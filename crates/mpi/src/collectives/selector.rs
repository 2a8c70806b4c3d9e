//! Per-call collective algorithm selection.
//!
//! Every algorithm family has a bandwidth-optimal member that wins for
//! large payloads (ring allreduce, ring allgather, van de Geijn bcast) and
//! a latency-optimal member that wins for small ones (recursive doubling,
//! Bruck, binomial tree). The crossover depends on the network model:
//! `benches/collectives.rs` sweeps both arms under each
//! [`starfish_vni::NetworkModel`], finds the measured crossover with
//! [`crate::threshold::measured_crossover`] and reports the calibrated
//! thresholds in `BENCH_collectives.json` (gated by `ci/check_bench.py`).
//! The bench reports the calibration; the constants below are what runs,
//! unless a caller installs its own selector
//! ([`crate::endpoint::MpiEndpoint::set_coll_selector`]).
//!
//! Selection must be *deterministic across ranks*: every member of the
//! communicator has to pick the same algorithm from shared knowledge only.
//! The dispatch layer in [`super`] arranges that (symmetric payload lengths
//! for allreduce, a length pre-round for allgather, a broadcast length
//! header for bcast) before consulting the selector.

use starfish_telemetry::{metric, MetricId};

/// Crossover for ring vs recursive-doubling allreduce (total payload
/// bytes).
pub const DEFAULT_ALLREDUCE_RING_BYTES: usize = 64 * 1024;
/// Crossover for ring vs Bruck allgather (total gathered bytes).
pub const DEFAULT_ALLGATHER_RING_BYTES: usize = 64 * 1024;
/// Crossover for scatter+allgather vs binomial bcast (payload
/// bytes). The van de Geijn scheme pays 2 extra latency phases, so its
/// break-even sits higher than the allreduce one.
pub const DEFAULT_BCAST_SCATTER_BYTES: usize = 256 * 1024;

/// Allreduce algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceAlgo {
    /// Binomial reduce to rank 0, then binomial bcast: 2(n−1) messages.
    /// What the cluster runtime forces; the selector never picks it.
    ReduceBcast,
    /// Recursive doubling with a pre/post fold for non-power-of-two sizes:
    /// ⌈log₂ n⌉ exchange rounds, every rank moves O(m·log n) bytes.
    RecursiveDoubling,
    /// Reduce-scatter + ring allgather: 2(n−1) steps, every rank moves
    /// 2(n−1)/n·m bytes — bandwidth-optimal for large m.
    Ring,
}

/// Allgather algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllgatherAlgo {
    /// Gather to rank 0, bcast the framed concatenation (total bytes cross
    /// the wire twice). What the cluster runtime forces; never selected.
    GatherBcast,
    /// Bruck's algorithm: ⌈log₂ n⌉ rounds of doubling block exchanges —
    /// latency-optimal for small blobs.
    Bruck,
    /// Ring circulation: n−1 steps, each rank forwards one blob per step —
    /// bandwidth-optimal for large blobs.
    Ring,
}

/// Bcast algorithm choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BcastAlgo {
    /// Binomial tree: ⌈log₂ n⌉ depth, the full payload on every edge.
    Binomial,
    /// van de Geijn: root scatters balanced chunks, then a ring allgather
    /// reassembles — every rank moves ~2m bytes regardless of n.
    ScatterAllgather,
}

impl AllreduceAlgo {
    pub fn name(self) -> &'static str {
        match self {
            AllreduceAlgo::ReduceBcast => "reduce-bcast",
            AllreduceAlgo::RecursiveDoubling => "recursive-doubling",
            AllreduceAlgo::Ring => "ring",
        }
    }

    pub(crate) fn metric(self) -> MetricId {
        match self {
            AllreduceAlgo::ReduceBcast => metric::COLL_ALGO_ALLREDUCE_REDUCE_BCAST,
            AllreduceAlgo::RecursiveDoubling => metric::COLL_ALGO_ALLREDUCE_RDOUBLE,
            AllreduceAlgo::Ring => metric::COLL_ALGO_ALLREDUCE_RING,
        }
    }
}

impl AllgatherAlgo {
    pub fn name(self) -> &'static str {
        match self {
            AllgatherAlgo::GatherBcast => "gather-bcast",
            AllgatherAlgo::Bruck => "bruck",
            AllgatherAlgo::Ring => "ring",
        }
    }

    pub(crate) fn metric(self) -> MetricId {
        match self {
            AllgatherAlgo::GatherBcast => metric::COLL_ALGO_ALLGATHER_GATHER_BCAST,
            AllgatherAlgo::Bruck => metric::COLL_ALGO_ALLGATHER_BRUCK,
            AllgatherAlgo::Ring => metric::COLL_ALGO_ALLGATHER_RING,
        }
    }
}

impl BcastAlgo {
    pub fn name(self) -> &'static str {
        match self {
            BcastAlgo::Binomial => "binomial",
            BcastAlgo::ScatterAllgather => "scatter-allgather",
        }
    }

    pub(crate) fn metric(self) -> MetricId {
        match self {
            BcastAlgo::Binomial => metric::COLL_ALGO_BCAST_BINOMIAL,
            BcastAlgo::ScatterAllgather => metric::COLL_ALGO_BCAST_SCATTER_ALLGATHER,
        }
    }
}

/// Per-endpoint algorithm selector, keyed on (message size, group size).
///
/// Thresholds are total payload bytes at which the bandwidth-optimal arm
/// takes over. An endpoint carries one (see
/// [`crate::endpoint::MpiEndpoint::set_coll_selector`]); the defaults are
/// the constants above.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollAlgoSelector {
    pub allreduce_ring_bytes: usize,
    pub allgather_ring_bytes: usize,
    pub bcast_scatter_bytes: usize,
}

impl Default for CollAlgoSelector {
    fn default() -> Self {
        CollAlgoSelector {
            allreduce_ring_bytes: DEFAULT_ALLREDUCE_RING_BYTES,
            allgather_ring_bytes: DEFAULT_ALLGATHER_RING_BYTES,
            bcast_scatter_bytes: DEFAULT_BCAST_SCATTER_BYTES,
        }
    }
}

impl CollAlgoSelector {
    /// Pick the allreduce algorithm for `bytes` total payload across `n`
    /// ranks. `bytes` is symmetric across ranks by MPI semantics, so every
    /// rank reaches the same verdict.
    pub fn select_allreduce(&self, bytes: usize, n: usize) -> AllreduceAlgo {
        // At n ≤ 2 the ring degenerates to the same single exchange with
        // more tag traffic; recursive doubling is strictly better.
        if n > 2 && bytes >= self.allreduce_ring_bytes {
            AllreduceAlgo::Ring
        } else {
            AllreduceAlgo::RecursiveDoubling
        }
    }

    /// Pick the allgather algorithm for `total_bytes` gathered across `n`
    /// ranks. Callers learn `total_bytes` from the length pre-round, which
    /// makes the verdict rank-symmetric even for ragged blobs.
    pub fn select_allgather(&self, total_bytes: usize, n: usize) -> AllgatherAlgo {
        if n > 2 && total_bytes >= self.allgather_ring_bytes {
            AllgatherAlgo::Ring
        } else {
            AllgatherAlgo::Bruck
        }
    }

    /// Pick the bcast algorithm for a `bytes` payload across `n` ranks.
    /// The scatter phase needs enough ranks for the chunking to pay off.
    pub fn select_bcast(&self, bytes: usize, n: usize) -> BcastAlgo {
        if n >= 4 && bytes >= self.bcast_scatter_bytes {
            BcastAlgo::ScatterAllgather
        } else {
            BcastAlgo::Binomial
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_pick_latency_arms_for_small_payloads() {
        let s = CollAlgoSelector::default();
        assert_eq!(s.select_allreduce(8, 64), AllreduceAlgo::RecursiveDoubling);
        assert_eq!(s.select_allgather(8, 64), AllgatherAlgo::Bruck);
        assert_eq!(s.select_bcast(8, 64), BcastAlgo::Binomial);
    }

    #[test]
    fn defaults_pick_bandwidth_arms_for_large_payloads() {
        let s = CollAlgoSelector::default();
        assert_eq!(s.select_allreduce(1 << 20, 64), AllreduceAlgo::Ring);
        assert_eq!(s.select_allgather(1 << 20, 64), AllgatherAlgo::Ring);
        assert_eq!(s.select_bcast(1 << 20, 64), BcastAlgo::ScatterAllgather);
    }

    #[test]
    fn tiny_groups_never_ring() {
        let s = CollAlgoSelector::default();
        assert_eq!(
            s.select_allreduce(1 << 20, 2),
            AllreduceAlgo::RecursiveDoubling
        );
        assert_eq!(s.select_allgather(1 << 20, 2), AllgatherAlgo::Bruck);
        assert_eq!(s.select_bcast(1 << 20, 2), BcastAlgo::Binomial);
    }
}
