//! Cluster-wide telemetry aggregation.
//!
//! Every process runtime sends a cumulative [`Snapshot`] of its registry up
//! to its daemon once per checkpoint round, once per restore and at exit.
//! A round's coordinator flushes at the commit
//! ([`ProcUp::Stats`](crate::msg::ProcUp)); a member's snapshot rides its
//! `Saved` to the coordinator's daemon, which casts it with that flush. The
//! daemon casts the snapshots, together with its infrastructure snapshot,
//! as one [`WireCast::Stats`](crate::msg::WireCast) entry on the totally
//! ordered ensemble stream (alone, or in one batch with its other casts of
//! that virtual instant), so all daemons converge on the same per-scope
//! table and history and any of them can answer the `STATS` and `HEALTH`
//! management commands.
//!
//! Scopes are named `"cluster"` for the shared infrastructure registry
//! (fabric, trace, ensemble) and `"app<N>.r<R>"` for one application
//! process; on the wire a rank's scope is its ids. Snapshots are
//! **cumulative**, so a newer snapshot for a scope *replaces* the previous
//! one; snapshots of *different* scopes merge additively.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use starfish_telemetry::Snapshot;
use starfish_util::ring::SeqRing;
use starfish_util::{Epoch, VirtualTime};

use crate::msg::StatsCast;

/// Default number of timestamped history snapshots retained.
pub const DEFAULT_HISTORY_RETENTION: usize = 64;

/// Shared table of the latest snapshot per scope. Cheap to clone.
#[derive(Clone)]
pub struct StatsHub {
    inner: Arc<Mutex<Table>>,
    history: Arc<Mutex<SeqRing<(VirtualTime, Snapshot)>>>,
}

#[derive(Default)]
struct Table {
    snaps: BTreeMap<String, Snapshot>,
    /// Each rank scope's `(epoch, seq)`: a snapshot older than the one held
    /// is no news.
    keys: BTreeMap<String, (Epoch, u64)>,
}

impl Table {
    fn merged(&self) -> Snapshot {
        let mut out = Snapshot::default();
        for snap in self.snaps.values() {
            out.merge(snap);
        }
        out
    }
}

impl Default for StatsHub {
    fn default() -> Self {
        StatsHub {
            inner: Arc::default(),
            history: Arc::new(Mutex::new(SeqRing::new(DEFAULT_HISTORY_RETENTION))),
        }
    }
}

impl StatsHub {
    pub(crate) fn new() -> Self {
        StatsHub::default()
    }

    /// Install a stats cast, delivered at `vt`: the cluster's snapshot,
    /// then each rank's that is newer than the one held, each followed by
    /// one point of history, so all daemons record the same sequence. The
    /// history is held throughout: a reader that sees a rank's snapshot and
    /// then asks for the history finds its point there.
    pub(crate) fn apply(&self, stats: StatsCast, vt: VirtualTime) {
        let mut history = self.history.lock();
        let mut table = self.inner.lock();
        if let Some(snap) = stats.cluster {
            table.snaps.insert("cluster".to_string(), snap);
        }
        for (app, rank, stats) in stats.ranks {
            let scope = starfish_trace::rank_scope(app, rank);
            if table
                .keys
                .get(&scope)
                .is_some_and(|&held| held > stats.key())
            {
                continue;
            }
            table.keys.insert(scope.clone(), stats.key());
            table.snaps.insert(scope, stats.snap);
            history.push((vt, table.merged()));
        }
    }

    /// All scopes currently known, in order.
    pub fn scopes(&self) -> Vec<String> {
        self.inner.lock().snaps.keys().cloned().collect()
    }

    /// Additive merge of every scope's latest snapshot — the cluster-wide
    /// view.
    pub fn merged(&self) -> Snapshot {
        self.inner.lock().merged()
    }

    /// Set how many history snapshots are retained (`SET stats_history <n>`).
    pub(crate) fn set_retention(&self, n: usize) {
        self.history.lock().set_capacity(n);
    }

    /// Oldest-first timestamped history snapshots.
    pub fn history(&self) -> Vec<(VirtualTime, Snapshot)> {
        self.history.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::RankStats;
    use starfish_telemetry::{metric, Registry};
    use starfish_util::{AppId, Rank};

    /// A cast of `ranks`' snapshots: `(rank, registry)`, all numbered
    /// `(0, 0)`.
    fn cast(ranks: &[(u32, &Registry)], cluster: Option<&Registry>) -> StatsCast {
        let snap = |(r, reg): &(u32, &Registry)| {
            let stats = RankStats {
                snap: reg.snapshot(),
                ..RankStats::default()
            };
            (AppId(1), Rank(*r), stats)
        };
        StatsCast {
            ranks: ranks.iter().map(snap).collect(),
            cluster: cluster.map(Registry::snapshot),
        }
    }

    #[test]
    fn replace_per_scope_merge_across_scopes() {
        let hub = StatsHub::new();
        let r = Registry::new();
        r.inc(metric::ENSEMBLE_CASTS);
        hub.apply(cast(&[(0, &r)], None), VirtualTime::ZERO);
        r.inc(metric::ENSEMBLE_CASTS);
        // Cumulative re-flush of the same scope replaces, not doubles.
        hub.apply(cast(&[(0, &r)], None), VirtualTime::ZERO);
        assert_eq!(hub.merged().counter(metric::ENSEMBLE_CASTS), 2);
        let r2 = Registry::new();
        r2.inc(metric::ENSEMBLE_CASTS);
        hub.apply(cast(&[(1, &r)], Some(&r2)), VirtualTime::ZERO);
        assert_eq!(hub.merged().counter(metric::ENSEMBLE_CASTS), 5);
        assert_eq!(hub.scopes(), ["app1.r0", "app1.r1", "cluster"]);
    }

    /// Each rank's snapshot is one point of history, taken after it is in.
    #[test]
    fn each_ranks_snapshot_is_one_point_of_history() {
        let hub = StatsHub::new();
        let (r0, r1) = (Registry::new(), Registry::new());
        r0.inc(metric::CKPT_ROUNDS);
        r1.add(metric::CKPT_ROUNDS, 2);
        hub.apply(cast(&[(0, &r0), (1, &r1)], None), VirtualTime(7));
        let rounds: Vec<u64> = (hub.history().iter())
            .map(|(_, s)| s.counter(metric::CKPT_ROUNDS))
            .collect();
        assert_eq!(rounds, [1, 3]);
        hub.apply(cast(&[], Some(&r0)), VirtualTime(8));
        assert_eq!(hub.history().len(), 2, "the cluster's alone is no point");
    }

    /// A rank's snapshot older than the one held, by `(epoch, seq)`, is
    /// no news: two daemons cast a rank's snapshots, in either order.
    #[test]
    fn an_older_snapshot_of_a_rank_is_ignored() {
        let hub = StatsHub::new();
        let apply = |epoch, seq, rounds| {
            let snap = Registry::new();
            snap.add(metric::CKPT_ROUNDS, rounds);
            let stats = RankStats {
                epoch: Epoch(epoch),
                seq,
                snap: snap.snapshot(),
            };
            let ranks = vec![(AppId(1), Rank(1), stats)];
            hub.apply(
                StatsCast {
                    ranks,
                    cluster: None,
                },
                VirtualTime::ZERO,
            );
            hub.merged().counter(metric::CKPT_ROUNDS)
        };
        assert_eq!(apply(0, 5, 5), 5);
        assert_eq!(apply(0, 4, 4), 5, "an older flush delivered late");
        assert_eq!(apply(0, 5, 5), 5);
        assert_eq!(apply(1, 1, 2), 2, "a respawn counts from 1 again");
        assert_eq!(apply(0, 9, 9), 2, "a flush of an earlier epoch");
        assert_eq!(hub.history().len(), 3);
    }

    #[test]
    fn history_ring_respects_retention() {
        let hub = StatsHub::new();
        let r = Registry::new();
        for i in 0..5u64 {
            r.inc(metric::ENSEMBLE_CASTS);
            hub.apply(cast(&[(0, &r)], None), VirtualTime(i * 100));
        }
        assert_eq!(hub.history().len(), 5);
        hub.set_retention(2);
        let h = hub.history();
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].0, starfish_util::VirtualTime(300));
        // New samples keep honouring the tighter retention.
        hub.apply(cast(&[(0, &r)], None), VirtualTime(500));
        assert_eq!(hub.history().len(), 2);
    }
}
