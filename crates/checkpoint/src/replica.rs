//! Diskless replicated checkpoint placement (the `replica` backend).
//!
//! Instead of writing images to the modeled NFS/IDE disk, each rank's image
//! is split into fixed-size fragments and pushed to `k` peer nodes over the
//! fabric (large fragments ride the rendezvous path, paying its extra
//! control RTT). The placement map is a deterministic ring walk over the
//! live membership excluding the owner, so no fragment's replicas co-reside
//! on one node and any `k−1` node losses leave at least one live copy of
//! every fragment. An XOR parity fragment per image (stored on yet more
//! nodes, offset on the same ring) rebuilds exactly one fully lost fragment
//! when losses exceed `k−1` — the ReStore-style fallback.
//!
//! Recovery reassembles the lost rank's image from surviving peers at
//! fabric speed: per-fragment sources are fetched in parallel, so the
//! charged virtual time is the *maximum* per-source-node cost, not the sum.
//! No disk is in the loop in either direction — this is the scale story for
//! frequent checkpointing under heavy traffic.
//!
//! This module is only the replica logic: a [`Placement`] and what building,
//! rebuilding and fetching it costs. The images themselves, the live-node
//! set and the per-app policy live in [`crate::store::CkptStore`], which
//! stores a replica image as an ordinary image carrying its placement.
//!
//! Determinism: everything here is a pure function of its arguments;
//! timing is virtual, derived from [`ReplicaNet`]. No wall clock, no
//! entropy.

use std::collections::{BTreeMap, BTreeSet};

use starfish_util::{NodeId, Rank, VirtualTime};

use crate::image::CkptImage;

/// Default fragment size: small enough that a lost node's replicas spread
/// over several peers (parallel recovery), large enough that per-fragment
/// control overhead stays negligible.
pub const DEFAULT_FRAG_BYTES: u64 = 256 * 1024;

/// Timing model of the replication fabric: plain numbers, so the store does
/// not depend on `vni`.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaNet {
    /// One-way small-message latency.
    pub(crate) latency: VirtualTime,
    /// Sustained point-to-point bandwidth, bytes/second.
    pub(crate) bandwidth: f64,
    /// Fragments at or above this size ride the rendezvous path and pay
    /// `rndv_rtt` of control handshake on top of the transfer.
    pub rndv_threshold: u64,
    /// Control round-trip of the rendezvous handshake (RTS/CTS).
    pub(crate) rndv_rtt: VirtualTime,
    /// Fragment size used when splitting images.
    pub frag_bytes: u64,
}

impl ReplicaNet {
    /// The paper-era testbed fabric: switched Fast Ethernet, ~11 MB/s
    /// sustained, ~120 µs one-way latency. Even at disk-comparable
    /// bandwidth, skipping the IDE model's 50 ms fixed cost and fetching
    /// fragments from several peers in parallel makes recovery far faster.
    pub fn lan_1999() -> Self {
        ReplicaNet {
            latency: VirtualTime::from_micros(120),
            bandwidth: 11.0 * 1024.0 * 1024.0,
            // `starfish_mpi::DEFAULT_RNDV_THRESHOLD`, which `checkpoint`
            // cannot name; a test in `starfish_mpi::replication` pins it.
            rndv_threshold: 512 * 1024,
            rndv_rtt: VirtualTime::from_micros(240),
            frag_bytes: DEFAULT_FRAG_BYTES,
        }
    }

    /// Cost of moving one fragment across one link.
    fn frag_cost(&self, bytes: u64) -> VirtualTime {
        let mut t = self.latency + VirtualTime::transfer(bytes, self.bandwidth);
        if bytes >= self.rndv_threshold {
            t += self.rndv_rtt;
        }
        t
    }
}

/// One fragment's placement: which nodes hold a full copy.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// Fragment number within the image (0-based).
    pub seq: u32,
    pub bytes: u64,
    /// Distinct nodes holding a replica, in ring order from the owner.
    pub replicas: Vec<NodeId>,
}

impl Fragment {
    fn live_source(&self, live: &BTreeSet<NodeId>) -> Option<NodeId> {
        self.replicas.iter().copied().find(|n| live.contains(n))
    }

    fn live_copies(&self, live: &BTreeSet<NodeId>) -> u32 {
        self.replicas.iter().filter(|n| live.contains(n)).count() as u32
    }
}

/// Where a replica-backed image's fragments live in peer memory.
#[derive(Debug, Clone)]
pub(crate) struct Placement {
    pub(crate) owner: NodeId,
    pub(crate) frags: Vec<Fragment>,
    /// XOR parity over all data fragments (size = largest fragment),
    /// placed on the ring after the data replicas.
    pub(crate) parity: Fragment,
    /// True when fewer than `k` distinct peers were live at put time; the
    /// k−1-loss guarantee is void until the next full-strength put.
    pub(crate) under_replicated: bool,
}

/// Receipt of a put: virtual-time cost at the owner (its disk write, or its
/// NIC pushing every replica) plus accounting for the telemetry counters.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PutReceipt {
    pub cost: VirtualTime,
    /// Data fragments the image was split into (excludes parity); 0 for a
    /// disk image.
    pub fragments: u32,
    /// Total bytes pushed to peers (all replicas + parity copies).
    pub replicated_bytes: u64,
    pub under_replicated: bool,
}

/// Receipt of a recovery fetch.
#[derive(Debug, Clone)]
pub struct FetchReceipt {
    pub img: CkptImage,
    /// Virtual time to read the image back: a disk read, or for a replica
    /// image the max over source nodes (parallel fetch).
    pub cost: VirtualTime,
    /// Fragments pulled from peers (parity included); 0 for a disk image.
    pub fragments_fetched: u32,
    /// Fragments that had to be rebuilt from the XOR parity group.
    pub parity_rebuilds: u32,
}

/// Per-rank replication health, for `CKPT STATUS`.
#[derive(Debug, Clone)]
pub struct RankHealth {
    pub rank: Rank,
    pub index: u64,
    pub owner: NodeId,
    pub fragments: u32,
    /// Minimum live replica count over all fragments.
    pub min_live_replicas: u32,
    pub parity_live: bool,
    pub recoverable: bool,
    pub under_replicated: bool,
    /// The placement map: every data fragment, then the parity fragment.
    pub map: Vec<Fragment>,
}

/// Deterministic placement: walk the sorted live peers (owner excluded)
/// ring starting at the owner's successor; fragment `f`'s `k` replicas are
/// `peers[(f + j) mod n]` for `j in 0..k`. Consecutive `j` give distinct
/// nodes whenever `n ≥ k`; the `f` offset rotates load across peers.
#[expect(clippy::indexing_slicing, reason = "`n > 0`; the index is mod `n`")]
pub fn ring_placement(peers: &[NodeId], frag: u32, k: u8) -> Vec<NodeId> {
    let n = peers.len();
    if n == 0 {
        return Vec::new();
    }
    let take = (k as usize).min(n);
    (0..take).map(|j| peers[(frag as usize + j) % n]).collect()
}

impl Placement {
    /// Split an image of `total` bytes into fragments, place `k` replicas
    /// of each on distinct live peers of `owner`, plus an XOR parity
    /// fragment, and charge the owner-side push cost.
    pub(crate) fn new(
        total: u64,
        owner: NodeId,
        k: u8,
        live: &BTreeSet<NodeId>,
        net: &ReplicaNet,
    ) -> (Placement, PutReceipt) {
        let peers: Vec<NodeId> = live.iter().copied().filter(|n| *n != owner).collect();
        let frag_bytes = net.frag_bytes.max(1);
        let n_frags = (total.div_ceil(frag_bytes)).max(1) as u32;
        let frags: Vec<Fragment> = (0..n_frags)
            .map(|f| Fragment {
                seq: f,
                bytes: frag_bytes.min(total - u64::from(f) * frag_bytes),
                replicas: ring_placement(&peers, f, k),
            })
            .collect();
        // Parity lives one ring step past the last data placement so it
        // lands on different nodes than fragment 0's replicas when n > k.
        let parity = Fragment {
            seq: n_frags,
            bytes: frags.iter().map(|f| f.bytes).max().unwrap_or(0),
            replicas: ring_placement(&peers, n_frags, k),
        };
        let under_replicated = peers.len() < k as usize;

        // Owner-side cost: every replica copy leaves through one NIC, so
        // pushes serialize there; per-fragment control costs accumulate.
        let mut cost = VirtualTime::ZERO;
        let mut replicated_bytes = 0u64;
        for fr in frags.iter().chain(std::iter::once(&parity)) {
            let copies = fr.replicas.len() as u64;
            replicated_bytes += fr.bytes * copies;
            for _ in 0..copies {
                cost += net.frag_cost(fr.bytes);
            }
        }
        let receipt = PutReceipt {
            cost,
            fragments: n_frags,
            replicated_bytes,
            under_replicated,
        };
        let placement = Placement {
            owner,
            frags,
            parity,
            under_replicated,
        };
        (placement, receipt)
    }

    /// Can the image be reassembled from the `live` set? Returns the number
    /// of parity rebuilds needed (`0` = every fragment has a live replica,
    /// `1` = exactly one fragment is fully lost but the parity group and
    /// every other fragment survive), or `None` if unrecoverable.
    pub(crate) fn rebuild_plan(&self, live: &BTreeSet<NodeId>) -> Option<u32> {
        let lost = self
            .frags
            .iter()
            .filter(|f| f.live_source(live).is_none())
            .count();
        match lost {
            0 => Some(0),
            1 if self.parity.live_source(live).is_some() => Some(1),
            _ => None,
        }
    }

    /// Reassemble `img` on node `to` from the `live` peers, charging
    /// fabric-speed recovery cost; `None` if too many fragments are lost
    /// (beyond what parity can rebuild).
    pub(crate) fn fetch(
        &self,
        img: CkptImage,
        live: &BTreeSet<NodeId>,
        to: NodeId,
        net: &ReplicaNet,
    ) -> Option<FetchReceipt> {
        let rebuilds = self.rebuild_plan(live)?;
        // Each fragment from its first live replica; a lost fragment is
        // rebuilt by XOR-ing the parity copy with every *other* fragment,
        // which this fetch pulls anyway. Per-source costs add (that node's
        // NIC serializes); distinct sources run in parallel, so the
        // reassembly cost is the max per-source total.
        let parity = (rebuilds > 0).then_some(&self.parity);
        let mut per_source: BTreeMap<NodeId, VirtualTime> = BTreeMap::new();
        let mut fragments_fetched = 0u32;
        for f in self.frags.iter().chain(parity) {
            if let Some(src) = f.live_source(live) {
                // A surviving replica on the recovering node itself is free.
                if src != to {
                    *per_source.entry(src).or_default() += net.frag_cost(f.bytes);
                }
                fragments_fetched += 1;
            }
        }
        let cost = per_source
            .values()
            .copied()
            .fold(VirtualTime::ZERO, VirtualTime::max_of);
        Some(FetchReceipt {
            img,
            cost,
            fragments_fetched,
            parity_rebuilds: rebuilds,
        })
    }

    /// The `CKPT STATUS` row of the image `(rank, index)` placed here.
    pub(crate) fn health(&self, rank: Rank, index: u64, live: &BTreeSet<NodeId>) -> RankHealth {
        let mut map = self.frags.clone();
        map.push(self.parity.clone());
        RankHealth {
            rank,
            index,
            owner: self.owner,
            fragments: self.frags.len() as u32,
            min_live_replicas: self
                .frags
                .iter()
                .map(|f| f.live_copies(live))
                .min()
                .unwrap_or(0),
            parity_live: self.parity.live_source(live).is_some(),
            recoverable: self.rebuild_plan(live).is_some(),
            under_replicated: self.under_replicated,
            map,
        }
    }

    /// `node` lost its memory: it holds no copy of any fragment any more.
    pub(crate) fn forget(&mut self, node: NodeId) {
        for f in self
            .frags
            .iter_mut()
            .chain(std::iter::once(&mut self.parity))
        {
            f.replicas.retain(|r| *r != node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::MACHINES;
    use crate::backend::CkptBackend;
    use crate::image::CkptLevel;
    use crate::store::CkptStore;
    use crate::value::CkptValue;
    use starfish_util::{AppId, Epoch};

    fn img(rank: u32, index: u64) -> CkptImage {
        CkptImage::capture(
            AppId(1),
            Rank(rank),
            Epoch(0),
            index,
            CkptLevel::Vm { arch: MACHINES[0] },
            &CkptValue::Int(index as i64),
            vec![],
            VirtualTime::ZERO,
        )
        .unwrap()
    }

    fn live(nodes: u32) -> BTreeSet<NodeId> {
        (0..nodes).map(NodeId).collect()
    }

    /// A store with nodes `0..nodes` up and app 1 on `replica:k`, rank `r`
    /// owned by node `r % nodes`.
    fn store(nodes: u32, k: u8) -> CkptStore {
        let s = CkptStore::new();
        for n in 0..nodes {
            s.node_up(NodeId(n));
        }
        let owners = (0..8).map(|r| NodeId(r % nodes)).collect();
        s.set_backend(AppId(1), CkptBackend::Replica { k }, owners);
        s
    }

    #[test]
    fn ring_placement_is_distinct_and_rotates() {
        let peers: Vec<NodeId> = (1..5).map(NodeId).collect();
        for f in 0..8 {
            let p = ring_placement(&peers, f, 3);
            assert_eq!(p.len(), 3);
            let set: BTreeSet<NodeId> = p.iter().copied().collect();
            assert_eq!(set.len(), 3, "replicas must be on distinct nodes");
        }
        assert_ne!(ring_placement(&peers, 0, 2), ring_placement(&peers, 1, 2));
        // Fewer peers than k: degrade to all peers, never duplicate.
        assert_eq!(ring_placement(&peers[..2], 0, 3).len(), 2);
        assert!(ring_placement(&[], 0, 3).is_empty());
    }

    #[test]
    fn placement_never_includes_the_owner() {
        let bytes = img(0, 1).total_bytes();
        let (p, r) = Placement::new(bytes, NodeId(0), 2, &live(4), &ReplicaNet::lan_1999());
        assert!(!r.under_replicated);
        for f in p.frags.iter().chain([&p.parity]) {
            assert!(!f.replicas.contains(&NodeId(0)), "{f:?}");
            assert_eq!(
                f.replicas.iter().collect::<BTreeSet<_>>().len(),
                f.replicas.len()
            );
        }
    }

    #[test]
    fn survives_any_k_minus_1_node_losses() {
        for k in [2u8, 3] {
            let nodes = 5;
            // Every (k-1)-subset of nodes.
            let subsets: Vec<Vec<u32>> = match k {
                2 => (0..nodes).map(|a| vec![a]).collect(),
                _ => (0..nodes)
                    .flat_map(|a| ((a + 1)..nodes).map(move |b| vec![a, b]))
                    .collect(),
            };
            for dead in subsets {
                let s2 = store(nodes, k);
                for r in 0..4u32 {
                    s2.put(img(r, 1));
                }
                for d in &dead {
                    s2.node_down(NodeId(*d));
                }
                let ranks: Vec<Rank> = (0..4).map(Rank).collect();
                assert_eq!(
                    s2.latest_common_index(AppId(1), &ranks),
                    1,
                    "k={k} dead={dead:?}"
                );
                for r in ranks {
                    let f = s2.fetch(AppId(1), r, 1, NodeId(4)).unwrap();
                    assert_eq!(f.parity_rebuilds, 0, "k−1 losses never need parity");
                    assert_eq!(f.img.index, 1);
                }
            }
        }
    }

    #[test]
    fn parity_rebuilds_one_fully_lost_fragment() {
        // k=1 (single replica) so losing that one node loses the fragment
        // outright; the parity group must carry the rebuild.
        let net = ReplicaNet::lan_1999();
        let mut up = live(4);
        let (p, _) = Placement::new(img(0, 1).total_bytes(), NodeId(0), 1, &up, &net);
        let victim = p.frags[0].replicas[0];
        assert!(!p.parity.replicas.contains(&victim) || p.frags.len() == 1);
        up.remove(&victim);
        let f = p.fetch(img(0, 1), &up, victim, &net);
        if p.parity.replicas.contains(&victim) {
            assert!(f.is_none());
        } else {
            let f = f.unwrap();
            assert!(f.parity_rebuilds >= 1, "{f:?}");
        }
    }

    #[test]
    fn too_many_losses_is_unrecoverable_and_node_up_heals_nothing_stale() {
        let s = store(3, 2); // owner + 2 peers, k=2 ⇒ both peers hold everything
        s.put(img(0, 1));
        s.node_down(NodeId(1));
        s.node_down(NodeId(2));
        assert!(s.get(AppId(1), Rank(0), 1).is_none());
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 0);
        // A node coming back has been restarted with its memory wiped: it
        // rejoins holding none of the fragments it held before the crash.
        s.node_up(NodeId(1));
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 0);
    }

    #[test]
    fn a_rejoining_node_holds_no_replicas() {
        let s = store(3, 2); // owner + 2 peers, k=2 ⇒ both peers hold everything
        s.put(img(0, 1));
        s.node_down(NodeId(1));
        s.node_up(NodeId(1)); // crash + restart: memory gone, node back
                              // The image survives via node 2's copies, but node 1 is no longer a
                              // listed replica anywhere…
        for f in &s.health(AppId(1))[0].map {
            assert!(!f.replicas.contains(&NodeId(1)), "{f:?}");
        }
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 1);
        // …so a second loss of node 2 is now fatal even though node 1 is up.
        s.node_down(NodeId(2));
        assert!(s.get(AppId(1), Rank(0), 1).is_none());
        // A fresh put places on the rejoined node again, and a repeated
        // join of a node that is already up forgets nothing.
        s.put(img(0, 2));
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 2);
        s.node_up(NodeId(1));
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 2);
    }

    #[test]
    fn fetch_cost_is_parallel_max_not_sum() {
        let mut net = ReplicaNet::lan_1999();
        net.frag_bytes = 64 * 1024; // several fragments per image
        let up = live(5);
        let (p, receipt) = Placement::new(img(0, 1).total_bytes(), NodeId(0), 2, &up, &net);
        assert!(receipt.fragments > 1);
        let f = p.fetch(img(0, 1), &up, NodeId(0), &net).unwrap();
        // Serial lower bound: all fragments from one source.
        let serial: VirtualTime = (0..f.fragments_fetched)
            .map(|_| net.frag_cost(net.frag_bytes))
            .sum();
        assert!(f.cost < serial, "parallel {} !< serial {}", f.cost, serial);
        assert!(f.cost > VirtualTime::ZERO);
    }

    #[test]
    fn corrupt_prune_and_remove_match_store_semantics() {
        let s = store(4, 2);
        for i in 1..=3 {
            s.put(img(0, i));
        }
        assert!(s.corrupt_image(AppId(1), Rank(0), 3));
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 2);
        s.put(img(0, 3)); // re-put heals
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 3);
        s.prune_below(AppId(1), 3);
        assert!(s.get(AppId(1), Rank(0), 2).is_none());
        assert!(s.get(AppId(1), Rank(0), 3).is_some());
        s.remove_app(AppId(1));
        assert_eq!(s.stats().0, 0);
    }

    #[test]
    fn health_reports_degradation() {
        let s = store(4, 2);
        s.put(img(0, 1));
        let h = &s.health(AppId(1))[0];
        assert_eq!((h.rank, h.index, h.owner), (Rank(0), 1, NodeId(0)));
        assert_eq!(h.min_live_replicas, 2);
        assert!(h.recoverable && h.parity_live && !h.under_replicated);
        s.node_down(NodeId(1));
        let h = &s.health(AppId(1))[0];
        assert_eq!(h.min_live_replicas, 1);
        assert!(h.recoverable);
    }
}
