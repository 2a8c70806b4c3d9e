//! Diskless replicated checkpoint store (the `replica` backend).
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
//! Determinism: everything here is a pure function of the put/fetch/
//! node-up/node-down call sequence; timing is virtual, derived from
//! [`ReplicaNet`]. No wall clock, no entropy.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;

use starfish_util::{AppId, NodeId, Rank, VirtualTime};

use crate::image::CkptImage;

/// Default fragment size: small enough that a lost node's replicas spread
/// over several peers (parallel recovery), large enough that per-fragment
/// control overhead stays negligible.
pub const DEFAULT_FRAG_BYTES: u64 = 256 * 1024;

/// Timing model of the replication fabric: plain numbers, so the store does
/// not depend on `vni`. The canonical constructors for the simulated
/// cluster live in `starfish_mpi::replication`, next to the real rendezvous
/// threshold they must agree with.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaNet {
    /// One-way small-message latency.
    pub latency: VirtualTime,
    /// Sustained point-to-point bandwidth, bytes/second.
    pub bandwidth: f64,
    /// Fragments at or above this size ride the rendezvous path and pay
    /// `rndv_rtt` of control handshake on top of the transfer.
    pub rndv_threshold: u64,
    /// Control round-trip of the rendezvous handshake (RTS/CTS).
    pub rndv_rtt: VirtualTime,
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

    /// Zero-cost network for tests that only care about placement logic.
    pub fn instant() -> Self {
        ReplicaNet {
            latency: VirtualTime::ZERO,
            bandwidth: f64::INFINITY,
            rndv_threshold: u64::MAX,
            rndv_rtt: VirtualTime::ZERO,
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
}

/// One replicated image: the logical payload plus its placement map.
#[derive(Debug, Clone)]
struct Stored {
    img: CkptImage,
    owner: NodeId,
    frags: Vec<Fragment>,
    /// XOR parity over all data fragments (size = largest fragment),
    /// placed on the ring after the data replicas.
    parity: Fragment,
    /// True when fewer than `k` distinct peers were live at put time; the
    /// k−1-loss guarantee is void until the next full-strength put.
    under_replicated: bool,
}

/// Receipt of a replicated put: virtual-time cost at the owner's NIC plus
/// accounting for the telemetry counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PutReceipt {
    pub cost: VirtualTime,
    /// Data fragments the image was split into (excludes parity).
    pub fragments: u32,
    /// Total bytes pushed to peers (all replicas + parity copies).
    pub replicated_bytes: u64,
    pub under_replicated: bool,
}

/// Receipt of a recovery fetch.
#[derive(Debug, Clone)]
pub struct FetchReceipt {
    pub img: CkptImage,
    /// Virtual time to reassemble: max over source nodes (parallel fetch).
    pub cost: VirtualTime,
    pub fragments_fetched: u32,
    pub bytes_fetched: u64,
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
}

#[derive(Default)]
struct ReplicaInner {
    live: BTreeSet<NodeId>,
    images: HashMap<(AppId, Rank), Vec<Stored>>,
    corrupted: HashSet<(AppId, Rank, u64)>,
}

/// Shared in-memory replicated checkpoint store. Cheap to clone; one per
/// cluster (it *is* the aggregate of all peers' memories — per-node
/// partitioning is expressed by the placement map plus `node_down`).
#[derive(Clone, Default)]
pub struct ReplicaStore {
    inner: Arc<Mutex<ReplicaInner>>,
}

/// Deterministic placement: walk the sorted live peers (owner excluded)
/// ring starting at the owner's successor; fragment `f`'s `k` replicas are
/// `peers[(f + j) mod n]` for `j in 0..k`. Consecutive `j` give distinct
/// nodes whenever `n ≥ k`; the `f` offset rotates load across peers.
pub fn ring_placement(peers: &[NodeId], frag: u32, k: u8) -> Vec<NodeId> {
    let n = peers.len();
    if n == 0 {
        return Vec::new();
    }
    let take = (k as usize).min(n);
    (0..take).map(|j| peers[(frag as usize + j) % n]).collect()
}

impl ReplicaStore {
    pub fn new() -> Self {
        ReplicaStore::default()
    }

    pub fn node_up(&self, n: NodeId) {
        self.inner.lock().live.insert(n);
    }

    pub fn node_down(&self, n: NodeId) {
        self.inner.lock().live.remove(&n);
    }

    pub fn set_live(&self, nodes: &[NodeId]) {
        self.inner.lock().live = nodes.iter().copied().collect();
    }

    /// A node rejoined after losing its memory (crash + restart): every
    /// replica it used to hold is gone for good, so drop it from all
    /// placement maps *before* marking the node live again. Old images
    /// survive only through their other copies (or parity); new puts may
    /// place fragments on the node as usual.
    pub fn node_wiped(&self, n: NodeId) {
        let mut g = self.inner.lock();
        for v in g.images.values_mut() {
            for s in v.iter_mut() {
                for f in s.frags.iter_mut() {
                    f.replicas.retain(|r| *r != n);
                }
                s.parity.replicas.retain(|r| *r != n);
            }
        }
        g.live.insert(n);
    }

    pub fn live_nodes(&self) -> Vec<NodeId> {
        self.inner.lock().live.iter().copied().collect()
    }

    /// Split `img` into fragments, place `k` replicas of each on distinct
    /// live peers of `owner`, plus an XOR parity fragment, and charge the
    /// owner-side push cost.
    pub fn put_replicated(
        &self,
        img: CkptImage,
        owner: NodeId,
        k: u8,
        net: &ReplicaNet,
    ) -> PutReceipt {
        let mut g = self.inner.lock();
        let peers: Vec<NodeId> = g.live.iter().copied().filter(|n| *n != owner).collect();
        let total = img.total_bytes();
        let frag_bytes = net.frag_bytes.max(1);
        let n_frags = (total.div_ceil(frag_bytes)).max(1) as u32;
        let mut frags = Vec::with_capacity(n_frags as usize);
        let mut largest = 0u64;
        for f in 0..n_frags {
            let bytes = if f + 1 == n_frags {
                total - u64::from(f) * frag_bytes
            } else {
                frag_bytes
            };
            largest = largest.max(bytes);
            frags.push(Fragment {
                seq: f,
                bytes,
                replicas: ring_placement(&peers, f, k),
            });
        }
        // Parity lives one ring step past the last data placement so it
        // lands on different nodes than fragment 0's replicas when n > k.
        let parity = Fragment {
            seq: n_frags,
            bytes: largest,
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

        g.corrupted.remove(&(img.app, img.rank, img.index));
        let key = (img.app, img.rank);
        let stored = Stored {
            owner,
            frags,
            parity,
            under_replicated,
            img,
        };
        let v = g.images.entry(key).or_default();
        match v.binary_search_by_key(&stored.img.index, |s| s.img.index) {
            Ok(pos) => v[pos] = stored,
            Err(pos) => v.insert(pos, stored),
        }
        PutReceipt {
            cost,
            fragments: n_frags,
            replicated_bytes,
            under_replicated,
        }
    }

    /// Can `s` be reassembled from the current live set? Returns the number
    /// of parity rebuilds needed (`0` = every fragment has a live replica,
    /// `1` = exactly one fragment is fully lost but the parity group and
    /// every other fragment survive), or `None` if unrecoverable.
    fn rebuild_plan(s: &Stored, live: &BTreeSet<NodeId>) -> Option<u32> {
        let lost = s
            .frags
            .iter()
            .filter(|f| f.live_source(live).is_none())
            .count();
        match lost {
            0 => Some(0),
            1 if s.parity.live_source(live).is_some() => Some(1),
            _ => None,
        }
    }

    fn readable(g: &ReplicaInner, app: AppId, rank: Rank) -> impl Iterator<Item = &Stored> {
        let live = &g.live;
        let corrupted = &g.corrupted;
        g.images
            .get(&(app, rank))
            .into_iter()
            .flatten()
            .filter(move |s| {
                !corrupted.contains(&(app, rank, s.img.index))
                    && Self::rebuild_plan(s, live).is_some()
            })
    }

    /// Reassemble a specific image on node `to`, charging fabric-speed
    /// recovery cost. `None` if the image is absent, corrupt, or has lost
    /// too many fragments (beyond what parity can rebuild).
    pub fn fetch(
        &self,
        app: AppId,
        rank: Rank,
        index: u64,
        to: NodeId,
        net: &ReplicaNet,
    ) -> Option<FetchReceipt> {
        let g = self.inner.lock();
        if g.corrupted.contains(&(app, rank, index)) {
            return None;
        }
        let v = g.images.get(&(app, rank))?;
        let s = &v[v.binary_search_by_key(&index, |s| s.img.index).ok()?];
        let rebuilds = Self::rebuild_plan(s, &g.live)?;

        // Plan the fetch: each fragment from its first live replica; a lost
        // fragment is rebuilt by XOR-ing the parity copy with every *other*
        // fragment, which this fetch pulls anyway. Per-source costs add
        // (that node's NIC serializes); distinct sources run in parallel,
        // so the reassembly cost is the max per-source total.
        let mut per_source: BTreeMap<NodeId, VirtualTime> = BTreeMap::new();
        let mut fragments_fetched = 0u32;
        let mut bytes_fetched = 0u64;
        let mut charge = |src: NodeId, bytes: u64| {
            *per_source.entry(src).or_insert(VirtualTime::ZERO) += net.frag_cost(bytes);
        };
        for f in &s.frags {
            if let Some(src) = f.live_source(&g.live) {
                // A surviving replica on the recovering node itself is free.
                if src != to {
                    charge(src, f.bytes);
                }
                fragments_fetched += 1;
                bytes_fetched += f.bytes;
            }
        }
        if rebuilds > 0 {
            let src = s.parity.live_source(&g.live).expect("plan checked parity");
            if src != to {
                charge(src, s.parity.bytes);
            }
            fragments_fetched += 1;
            bytes_fetched += s.parity.bytes;
        }
        let cost = per_source
            .values()
            .copied()
            .fold(VirtualTime::ZERO, VirtualTime::max_of);
        Some(FetchReceipt {
            img: s.img.clone(),
            cost,
            fragments_fetched,
            bytes_fetched,
            parity_rebuilds: rebuilds,
        })
    }

    /// A specific image by index, untimed; `None` if absent, corrupt, or
    /// unrecoverable from the live set.
    pub fn get(&self, app: AppId, rank: Rank, index: u64) -> Option<CkptImage> {
        let g = self.inner.lock();
        let img = Self::readable(&g, app, rank)
            .find(|s| s.img.index == index)
            .map(|s| s.img.clone());
        img
    }

    /// Latest recoverable image of a process, if any.
    pub fn latest(&self, app: AppId, rank: Rank) -> Option<CkptImage> {
        let g = self.inner.lock();
        let img = Self::readable(&g, app, rank).last().map(|s| s.img.clone());
        img
    }

    pub fn latest_index(&self, app: AppId, rank: Rank) -> u64 {
        self.latest(app, rank).map(|i| i.index).unwrap_or(0)
    }

    /// Highest index every rank can *reassemble from live peers* — same
    /// joint-restorability contract as [`crate::store::CkptStore`], with
    /// "readable" meaning "recoverable from surviving memory".
    pub fn latest_common_index(&self, app: AppId, ranks: &[Rank]) -> u64 {
        if ranks.is_empty() {
            return 0;
        }
        let g = self.inner.lock();
        let readable =
            |r: Rank| -> HashSet<u64> { Self::readable(&g, app, r).map(|s| s.img.index).collect() };
        let mut common = readable(ranks[0]);
        for r in &ranks[1..] {
            let set = readable(*r);
            common.retain(|idx| set.contains(idx));
            if common.is_empty() {
                return 0;
            }
        }
        common.into_iter().max().unwrap_or(0)
    }

    /// Mark an image torn (chaos injection): reads skip it until re-put.
    pub fn corrupt_image(&self, app: AppId, rank: Rank, index: u64) -> bool {
        let mut g = self.inner.lock();
        let exists = g
            .images
            .get(&(app, rank))
            .is_some_and(|v| v.binary_search_by_key(&index, |s| s.img.index).is_ok());
        if exists {
            g.corrupted.insert((app, rank, index));
        }
        exists
    }

    pub fn prune_below(&self, app: AppId, keep_from: u64) {
        let mut g = self.inner.lock();
        for ((a, _), v) in g.images.iter_mut() {
            if *a == app {
                v.retain(|s| s.img.index >= keep_from);
            }
        }
        g.corrupted
            .retain(|(a, _, idx)| *a != app || *idx >= keep_from);
    }

    pub fn remove_app(&self, app: AppId) {
        let mut g = self.inner.lock();
        g.images.retain(|(a, _), _| *a != app);
        g.corrupted.retain(|(a, _, _)| *a != app);
    }

    /// (image count, logical bytes) — logical image sizes, matching the
    /// disk store's accounting (replica copies are reported separately via
    /// the replication-bytes telemetry counter).
    pub fn stats(&self) -> (usize, u64) {
        let g = self.inner.lock();
        let count = g.images.values().map(|v| v.len()).sum();
        let bytes = g
            .images
            .values()
            .flat_map(|v| v.iter())
            .map(|s| s.img.total_bytes())
            .sum();
        (count, bytes)
    }

    /// Replication health of every rank's *latest* stored image, for the
    /// management plane's `CKPT STATUS`.
    pub fn health(&self, app: AppId) -> Vec<RankHealth> {
        let g = self.inner.lock();
        let mut out: Vec<RankHealth> = g
            .images
            .iter()
            .filter(|((a, _), v)| *a == app && !v.is_empty())
            .map(|((_, rank), v)| {
                let s = v.last().expect("non-empty");
                let live_count =
                    |f: &Fragment| f.replicas.iter().filter(|n| g.live.contains(n)).count() as u32;
                RankHealth {
                    rank: *rank,
                    index: s.img.index,
                    owner: s.owner,
                    fragments: s.frags.len() as u32,
                    min_live_replicas: s.frags.iter().map(live_count).min().unwrap_or(0),
                    parity_live: s.parity.live_source(&g.live).is_some(),
                    recoverable: Self::rebuild_plan(s, &g.live).is_some(),
                    under_replicated: s.under_replicated,
                }
            })
            .collect();
        out.sort_by_key(|h| h.rank);
        out
    }

    /// Placement map of a rank's latest image: `(fragment, bytes, replicas)`
    /// triples plus the parity row, for `CKPT STATUS <app> <rank>` detail.
    pub fn placement(&self, app: AppId, rank: Rank) -> Vec<Fragment> {
        let g = self.inner.lock();
        g.images
            .get(&(app, rank))
            .and_then(|v| v.last())
            .map(|s| {
                let mut frags = s.frags.clone();
                frags.push(s.parity.clone());
                frags
            })
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::MACHINES;
    use crate::image::CkptLevel;
    use crate::value::CkptValue;
    use starfish_util::Epoch;

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

    fn store(nodes: u32) -> ReplicaStore {
        let s = ReplicaStore::new();
        s.set_live(&(0..nodes).map(NodeId).collect::<Vec<_>>());
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
        let s = store(4);
        let r = s.put_replicated(img(0, 1), NodeId(0), 2, &ReplicaNet::lan_1999());
        assert!(!r.under_replicated);
        for f in s.placement(AppId(1), Rank(0)) {
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
            let s = store(nodes);
            let net = ReplicaNet::lan_1999();
            for r in 0..4u32 {
                s.put_replicated(img(r, 1), NodeId(r % nodes), k, &net);
            }
            // Every (k-1)-subset of nodes.
            let subsets: Vec<Vec<u32>> = match k {
                2 => (0..nodes).map(|a| vec![a]).collect(),
                _ => (0..nodes)
                    .flat_map(|a| ((a + 1)..nodes).map(move |b| vec![a, b]))
                    .collect(),
            };
            for dead in subsets {
                let s2 = store(nodes);
                for r in 0..4u32 {
                    s2.put_replicated(img(r, 1), NodeId(r % nodes), k, &net);
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
                    let f = s2.fetch(AppId(1), r, 1, NodeId(4), &net).unwrap();
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
        let s = store(4);
        let net = ReplicaNet::lan_1999();
        s.put_replicated(img(0, 1), NodeId(0), 1, &net);
        let frags = s.placement(AppId(1), Rank(0));
        let data = &frags[..frags.len() - 1];
        let parity = frags.last().unwrap();
        let victim = data[0].replicas[0];
        assert!(!parity.replicas.contains(&victim) || data.len() == 1);
        s.node_down(victim);
        let f = s.fetch(AppId(1), Rank(0), 1, victim, &net);
        if parity.replicas.contains(&victim) {
            assert!(f.is_none());
        } else {
            let f = f.unwrap();
            assert!(f.parity_rebuilds >= 1, "{f:?}");
        }
    }

    #[test]
    fn too_many_losses_is_unrecoverable_and_node_up_heals_nothing_stale() {
        let s = store(3); // owner + 2 peers, k=2 ⇒ both peers hold everything
        let net = ReplicaNet::lan_1999();
        s.put_replicated(img(0, 1), NodeId(0), 2, &net);
        s.node_down(NodeId(1));
        s.node_down(NodeId(2));
        assert!(s.get(AppId(1), Rank(0), 1).is_none());
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 0);
        // The node coming back (restart with wiped memory is modeled by the
        // caller re-putting) — here memory is assumed intact on rejoin.
        s.node_up(NodeId(1));
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 1);
    }

    #[test]
    fn node_wiped_forgets_fragments_but_rejoins_live() {
        let s = store(3); // owner + 2 peers, k=2 ⇒ both peers hold everything
        let net = ReplicaNet::lan_1999();
        s.put_replicated(img(0, 1), NodeId(0), 2, &net);
        s.node_down(NodeId(1));
        s.node_wiped(NodeId(1)); // crash + restart: memory gone, node back
        assert_eq!(s.live_nodes(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        // The image survives via node 2's copies, but node 1 is no longer a
        // listed replica anywhere…
        for f in s.placement(AppId(1), Rank(0)) {
            assert!(!f.replicas.contains(&NodeId(1)), "{f:?}");
        }
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 1);
        // …so a second loss of node 2 is now fatal even though node 1 is up.
        s.node_down(NodeId(2));
        assert!(s.get(AppId(1), Rank(0), 1).is_none());
        // A fresh put places on the rejoined node again.
        s.put_replicated(img(0, 2), NodeId(0), 2, &net);
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 2);
    }

    #[test]
    fn fetch_cost_is_parallel_max_not_sum() {
        let s = store(5);
        let mut net = ReplicaNet::lan_1999();
        net.frag_bytes = 64 * 1024; // several fragments per image
        let receipt = s.put_replicated(img(0, 1), NodeId(0), 2, &net);
        assert!(receipt.fragments > 1);
        let f = s.fetch(AppId(1), Rank(0), 1, NodeId(0), &net).unwrap();
        // Serial lower bound: all fragments from one source.
        let serial: VirtualTime = (0..f.fragments_fetched)
            .map(|_| net.frag_cost(net.frag_bytes))
            .sum();
        assert!(f.cost < serial, "parallel {} !< serial {}", f.cost, serial);
        assert!(f.cost > VirtualTime::ZERO);
    }

    #[test]
    fn corrupt_prune_and_remove_match_store_semantics() {
        let s = store(4);
        let net = ReplicaNet::lan_1999();
        for i in 1..=3 {
            s.put_replicated(img(0, i), NodeId(0), 2, &net);
        }
        assert!(s.corrupt_image(AppId(1), Rank(0), 3));
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 2);
        s.put_replicated(img(0, 3), NodeId(0), 2, &net); // re-put heals
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 3);
        s.prune_below(AppId(1), 3);
        assert!(s.get(AppId(1), Rank(0), 2).is_none());
        assert!(s.get(AppId(1), Rank(0), 3).is_some());
        s.remove_app(AppId(1));
        assert_eq!(s.stats().0, 0);
    }

    #[test]
    fn health_reports_degradation() {
        let s = store(4);
        let net = ReplicaNet::lan_1999();
        s.put_replicated(img(0, 1), NodeId(0), 2, &net);
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
