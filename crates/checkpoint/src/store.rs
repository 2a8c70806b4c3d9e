//! The checkpoint store.
//!
//! One store holds every image of the cluster, whichever backend an app
//! checkpoints to. It models the cluster's shared stable storage (the
//! NFS-mounted checkpoint directory of the paper's testbed): it survives
//! node crashes, so a process restarted on a *different* node finds its
//! images. A `replica` app's image is the same stored image carrying a
//! fragment [`Placement`] over peer memory ([`crate::replica`]): it stays
//! readable only while that placement can be rebuilt from the live nodes.
//! The store also decides what each put and fetch costs — the modeled disk
//! ([`DiskModel`]) or the replication fabric ([`ReplicaNet`]) — and says so
//! in the receipt. All daemons and runtimes share one handle.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use starfish_util::watch::ChangeCount;
use starfish_util::{AppId, Error, NodeId, Rank, Result};

use crate::backend::CkptBackend;
use crate::disk::DiskModel;
use crate::image::{CkptImage, CkptLevel};
use crate::recovery::MsgDep;
use crate::replica::{FetchReceipt, Placement, PutReceipt, RankHealth, ReplicaNet};

/// One stored image; `placement` is set for a replica-backed one.
struct Stored {
    img: CkptImage,
    placement: Option<Placement>,
}

/// An app's checkpoint policy: its backend and the node each rank runs on
/// (kept current by the daemons on submit and restart), which names the
/// owner a replica put pushes from.
struct AppPolicy {
    backend: CkptBackend,
    placement: Vec<NodeId>,
}

#[derive(Default)]
struct StoreInner {
    images: HashMap<(AppId, Rank), Vec<Stored>>,
    /// Message-dependency log for uncoordinated checkpointing, per app.
    deps: HashMap<AppId, Vec<MsgDep>>,
    /// Images the chaos layer marked torn/corrupt: present on disk but
    /// failing their checksum, so every read path skips them (a torn write
    /// must degrade recovery to an older line, never crash it).
    corrupted: HashSet<(AppId, Rank, u64)>,
    /// Nodes whose memory can serve replica fragments.
    live: BTreeSet<NodeId>,
    apps: HashMap<AppId, AppPolicy>,
}

impl StoreInner {
    /// The readable images of one process, oldest first: not torn and, if
    /// placed in peer memory, rebuildable from the live nodes.
    fn readable(&self, app: AppId, rank: Rank) -> impl Iterator<Item = &Stored> {
        self.images
            .get(&(app, rank))
            .into_iter()
            .flatten()
            .filter(move |s| {
                !self.corrupted.contains(&(app, rank, s.img.index))
                    && s.placement
                        .as_ref()
                        .is_none_or(|p| p.rebuild_plan(&self.live).is_some())
            })
    }
}

/// What writing and reading back an image costs on stable storage: a native
/// image is a synchronous core dump to the IDE disk, a VM-level one is
/// absorbed by the buffer cache (DESIGN.md §6).
fn disk_model(level: &CkptLevel) -> DiskModel {
    match level {
        CkptLevel::Native { .. } => DiskModel::ide_1999(),
        CkptLevel::Vm { .. } => DiskModel::vm_buffered(),
    }
}

/// Shared, thread-safe checkpoint storage. Cheap to clone; clones share
/// state.
#[derive(Clone, Default)]
pub struct CkptStore {
    inner: Arc<Mutex<StoreInner>>,
    /// Bumped once per image stored.
    stored: Arc<ChangeCount>,
}

impl CkptStore {
    pub fn new() -> Self {
        CkptStore::default()
    }

    /// Register (or update) an app's backend and rank placement. An app
    /// never registered checkpoints to `disk`.
    pub fn set_backend(&self, app: AppId, backend: CkptBackend, placement: Vec<NodeId>) {
        let policy = AppPolicy { backend, placement };
        self.inner.lock().apps.insert(app, policy);
    }

    /// Update only the placement (after restart/migration re-placement).
    pub fn update_placement(&self, app: AppId, placement: Vec<NodeId>) {
        if let Some(p) = self.inner.lock().apps.get_mut(&app) {
            p.placement = placement;
        }
    }

    pub fn backend_of(&self, app: AppId) -> CkptBackend {
        let g = self.inner.lock();
        g.apps.get(&app).map(|p| p.backend).unwrap_or_default()
    }

    /// A node joins. It holds no replicas: a restarted node's memory was
    /// wiped by its crash, so every copy placed on it before is forgotten
    /// and old images survive only through their other copies (or parity).
    /// New puts place fragments on it as usual. Every daemon relays the
    /// same join, so a repeat for a node that is already up changes nothing.
    pub fn node_up(&self, node: NodeId) {
        let mut g = self.inner.lock();
        if !g.live.insert(node) {
            return;
        }
        let placements = g.images.values_mut().flatten();
        for p in placements.filter_map(|s| s.placement.as_mut()) {
            p.forget(node);
        }
    }

    /// A node died, and the fragments in its memory with it.
    pub fn node_down(&self, node: NodeId) {
        self.inner.lock().live.remove(&node);
    }

    /// Persist an image and charge its write. A replica app's image is
    /// split over `k` live peers of the rank's node; any other is written
    /// to the modeled disk. Images of one process are kept sorted by index;
    /// re-putting an index replaces it (idempotent retry) and clears any
    /// corruption mark (a fresh write heals the torn one).
    pub fn put(&self, img: CkptImage) -> PutReceipt {
        let mut g = self.inner.lock();
        let bytes = img.total_bytes();
        let (placement, receipt) = match g.apps.get(&img.app) {
            Some(AppPolicy {
                backend: CkptBackend::Replica { k },
                placement,
            }) => {
                let owner = placement.get(img.rank.0 as usize).copied();
                let net = ReplicaNet::lan_1999();
                let (p, r) = Placement::new(bytes, owner.unwrap_or(NodeId(0)), *k, &g.live, &net);
                (Some(p), r)
            }
            _ => {
                let cost = disk_model(&img.level).write_time(bytes);
                (
                    None,
                    PutReceipt {
                        cost,
                        ..PutReceipt::default()
                    },
                )
            }
        };
        let (app, rank, index) = (img.app, img.rank, img.index);
        g.corrupted.remove(&(app, rank, index));
        let v = g.images.entry((app, rank)).or_default();
        v.retain(|s| s.img.index != index);
        let pos = v.partition_point(|s| s.img.index < index);
        v.insert(pos, Stored { img, placement });
        drop(g);
        self.stored.bump();
        receipt
    }

    /// Read image `index` back to node `to` and charge the read: a disk
    /// read, or a parallel fetch of its fragments from surviving peers
    /// (rebuilding a fully lost one from parity). `None` if the image is
    /// absent, corrupt or unrecoverable.
    pub fn fetch(&self, app: AppId, rank: Rank, index: u64, to: NodeId) -> Option<FetchReceipt> {
        let g = self.inner.lock();
        let s = g.readable(app, rank).find(|s| s.img.index == index)?;
        let img = s.img.clone();
        match &s.placement {
            Some(p) => p.fetch(img, &g.live, to, &ReplicaNet::lan_1999()),
            None => Some(FetchReceipt {
                cost: disk_model(&img.level).read_time(img.total_bytes()),
                img,
                fragments_fetched: 0,
                parity_rebuilds: 0,
            }),
        }
    }

    /// Block (real time) until every rank in `ranks` has a readable image
    /// newer than `above`, and return that common index. Re-evaluated once
    /// per image stored, not on a timer.
    pub fn wait_common_index(
        &self,
        app: AppId,
        ranks: &[Rank],
        above: u64,
        timeout: Duration,
    ) -> Result<u64> {
        #[expect(clippy::disallowed_methods, reason = "the caller's `timeout`")]
        let deadline = Instant::now() + timeout;
        let mut seen = self.stored.current();
        loop {
            let idx = self.latest_common_index(app, ranks);
            if idx > above {
                return Ok(idx);
            }
            seen = self.stored.wait_past(seen, deadline).ok_or_else(|| {
                Error::timeout(format!("{app}: no common checkpoint above {above}"))
            })?;
        }
    }

    /// Mark a stored image torn/corrupt: every read path skips it from now
    /// on, as if its checksum failed on load. Returns false if no such
    /// image exists. Chaos-layer injection point.
    pub fn corrupt_image(&self, app: AppId, rank: Rank, index: u64) -> bool {
        let mut g = self.inner.lock();
        let exists = g
            .images
            .get(&(app, rank))
            .is_some_and(|v| v.iter().any(|s| s.img.index == index));
        if exists {
            g.corrupted.insert((app, rank, index));
        }
        exists
    }

    /// Latest *readable* image of a process, if any.
    pub fn latest(&self, app: AppId, rank: Rank) -> Option<CkptImage> {
        let g = self.inner.lock();
        let img = g.readable(app, rank).last().map(|s| s.img.clone());
        img
    }

    /// A specific image by index; `None` if absent or unreadable.
    pub fn get(&self, app: AppId, rank: Rank, index: u64) -> Option<CkptImage> {
        let g = self.inner.lock();
        let img = g
            .readable(app, rank)
            .find(|s| s.img.index == index)
            .map(|s| s.img.clone());
        img
    }

    /// Index 0 means "initial state" (no stored image); this returns the
    /// highest readable index, or 0.
    pub fn latest_index(&self, app: AppId, rank: Rank) -> u64 {
        let g = self.inner.lock();
        let index = g.readable(app, rank).last().map_or(0, |s| s.img.index);
        index
    }

    /// Highest checkpoint index at which *every* rank of `ranks` has a
    /// readable image — the recovery line of coordinated checkpointing.
    ///
    /// This is deliberately not `min(latest_index)`: with torn images a
    /// rank can hold readable images at {1, 3} while another holds {1, 2},
    /// making min-of-latest 2 — an index the first rank cannot restore.
    /// The chaos harness's `torn-interior-image` regression plan pins this
    /// (the line must be jointly *restorable*, not just jointly reached).
    pub fn latest_common_index(&self, app: AppId, ranks: &[Rank]) -> u64 {
        let Some((first, rest)) = ranks.split_first() else {
            return 0;
        };
        let g = self.inner.lock();
        let readable =
            |r: Rank| -> HashSet<u64> { g.readable(app, r).map(|s| s.img.index).collect() };
        let mut common = readable(*first);
        for r in rest {
            let set = readable(*r);
            common.retain(|idx| set.contains(idx));
            if common.is_empty() {
                return 0;
            }
        }
        common.into_iter().max().unwrap_or(0)
    }

    /// Drop images with index < `keep_from` (garbage collection after a
    /// coordinated checkpoint commits).
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

    /// Delete everything belonging to an application, its policy included
    /// (a deleted or killed app; a finished one keeps its images).
    pub fn remove_app(&self, app: AppId) {
        let mut g = self.inner.lock();
        g.images.retain(|(a, _), _| *a != app);
        g.deps.remove(&app);
        g.corrupted.retain(|(a, _, _)| *a != app);
        g.apps.remove(&app);
    }

    /// Record a message dependency (uncoordinated checkpointing).
    pub fn log_dep(&self, app: AppId, dep: MsgDep) {
        self.inner.lock().deps.entry(app).or_default().push(dep);
    }

    /// All logged dependencies of an application.
    pub fn deps(&self, app: AppId) -> Vec<MsgDep> {
        self.inner
            .lock()
            .deps
            .get(&app)
            .cloned()
            .unwrap_or_default()
    }

    /// (image count, logical bytes) across the whole store — logical image
    /// sizes for both backends (replica copies are reported separately via
    /// the replication-bytes telemetry counter).
    #[cfg(test)]
    pub(crate) fn stats(&self) -> (usize, u64) {
        let g = self.inner.lock();
        let images = g.images.values().flatten();
        let count = images.clone().count();
        (count, images.map(|s| s.img.total_bytes()).sum())
    }

    /// Replication health of every rank's *latest* stored image that sits
    /// in peer memory, by rank, for the management plane's `CKPT STATUS`;
    /// empty for a disk app.
    pub fn health(&self, app: AppId) -> Vec<RankHealth> {
        let g = self.inner.lock();
        let mut out: Vec<RankHealth> = g
            .images
            .iter()
            .filter(|((a, _), _)| *a == app)
            .filter_map(|((_, rank), v)| {
                let s = v.last()?;
                let p = s.placement.as_ref()?;
                Some(p.health(*rank, s.img.index, &g.live))
            })
            .collect();
        out.sort_by_key(|h| h.rank);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::MACHINES;
    use crate::image::CkptLevel;
    use crate::value::CkptValue;
    use starfish_util::{Epoch, VirtualTime};

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

    #[test]
    fn put_get_latest() {
        let s = CkptStore::new();
        s.put(img(0, 1));
        s.put(img(0, 2));
        assert_eq!(s.latest(AppId(1), Rank(0)).unwrap().index, 2);
        assert_eq!(s.get(AppId(1), Rank(0), 1).unwrap().index, 1);
        assert!(s.get(AppId(1), Rank(0), 9).is_none());
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 2);
        assert_eq!(s.latest_index(AppId(1), Rank(7)), 0);
    }

    #[test]
    fn replacing_same_index_is_idempotent() {
        let s = CkptStore::new();
        s.put(img(0, 1));
        s.put(img(0, 1));
        let (count, _) = s.stats();
        assert_eq!(count, 1);
    }

    #[test]
    fn out_of_order_puts_stay_sorted() {
        let s = CkptStore::new();
        s.put(img(0, 3));
        s.put(img(0, 1));
        s.put(img(0, 2));
        assert_eq!(s.latest(AppId(1), Rank(0)).unwrap().index, 3);
        assert_eq!(s.get(AppId(1), Rank(0), 2).unwrap().index, 2);
    }

    #[test]
    fn latest_common_index_is_min() {
        let s = CkptStore::new();
        s.put(img(0, 1));
        s.put(img(0, 2));
        s.put(img(1, 1));
        let ranks = [Rank(0), Rank(1)];
        assert_eq!(s.latest_common_index(AppId(1), &ranks), 1);
        // A rank with no checkpoint pins the line at 0.
        let ranks3 = [Rank(0), Rank(1), Rank(2)];
        assert_eq!(s.latest_common_index(AppId(1), &ranks3), 0);
    }

    #[test]
    fn latest_common_index_on_an_empty_store_is_zero() {
        let s = CkptStore::new();
        assert_eq!(s.latest_common_index(AppId(1), &[Rank(0), Rank(1)]), 0);
        // An empty rank list means "no constraint holders": index 0 (start
        // from initial state), never a panic.
        assert_eq!(s.latest_common_index(AppId(1), &[]), 0);
        // A store with images for a *different* app is still empty here.
        s.put(img(0, 5));
        assert_eq!(s.latest_common_index(AppId(2), &[Rank(0)]), 0);
    }

    #[test]
    fn latest_common_index_single_rank_is_its_latest_readable() {
        let s = CkptStore::new();
        s.put(img(0, 1));
        s.put(img(0, 4));
        assert_eq!(s.latest_common_index(AppId(1), &[Rank(0)]), 4);
        // With the head torn, the single-rank line falls back, matching
        // `latest_index` exactly.
        assert!(s.corrupt_image(AppId(1), Rank(0), 4));
        assert_eq!(s.latest_common_index(AppId(1), &[Rank(0)]), 1);
        assert_eq!(
            s.latest_common_index(AppId(1), &[Rank(0)]),
            s.latest_index(AppId(1), Rank(0))
        );
    }

    #[test]
    fn latest_common_index_interleaved_torn_images() {
        // Readable sets interleave with no overlap above 1:
        //   rank 0: {1, 2, 4} (3 torn), rank 1: {1, 3} (2, 4 torn),
        //   rank 2: {1, 2, 3, 4}.
        // Pairwise mins and min-of-latest all lie: the only jointly
        // readable index is 1.
        let s = CkptStore::new();
        for r in 0..3 {
            for i in 1..=4 {
                s.put(img(r, i));
            }
        }
        assert!(s.corrupt_image(AppId(1), Rank(0), 3));
        assert!(s.corrupt_image(AppId(1), Rank(1), 2));
        assert!(s.corrupt_image(AppId(1), Rank(1), 4));
        let ranks = [Rank(0), Rank(1), Rank(2)];
        assert_eq!(s.latest_common_index(AppId(1), &ranks), 1);
        // Healing rank 1's torn index 4 is not enough (rank 1 still lacks
        // nothing at 4 now, but rank 0 has 4 too — line jumps to 4).
        s.put(img(1, 4));
        assert_eq!(s.latest_common_index(AppId(1), &ranks), 4);
    }

    #[test]
    fn prune_below_garbage_collects() {
        let s = CkptStore::new();
        for i in 1..=4 {
            s.put(img(0, i));
        }
        s.prune_below(AppId(1), 3);
        assert!(s.get(AppId(1), Rank(0), 2).is_none());
        assert!(s.get(AppId(1), Rank(0), 3).is_some());
    }

    #[test]
    fn corrupt_image_degrades_recovery_line_by_one() {
        let s = CkptStore::new();
        s.put(img(0, 1));
        s.put(img(0, 2));
        s.put(img(1, 1));
        s.put(img(1, 2));
        assert!(s.corrupt_image(AppId(1), Rank(0), 2));
        // Reads skip the torn image: rank 0 falls back to index 1, pulling
        // the recovery line with it — one step back, no domino.
        assert!(s.get(AppId(1), Rank(0), 2).is_none());
        assert_eq!(s.latest(AppId(1), Rank(0)).unwrap().index, 1);
        assert_eq!(s.latest_index(AppId(1), Rank(0)), 1);
        assert_eq!(s.latest_common_index(AppId(1), &[Rank(0), Rank(1)]), 1);
        // Marking something that was never stored reports failure.
        assert!(!s.corrupt_image(AppId(1), Rank(0), 9));
    }

    #[test]
    fn recovery_line_is_jointly_restorable_not_min_of_latest() {
        // rank 0 readable {1, 3} (2 torn), rank 1 readable {1, 2} (3 torn):
        // min-of-latest would claim 2, which rank 0 cannot restore. The
        // line must fall back to 1, the highest index readable by all.
        let s = CkptStore::new();
        for i in 1..=3 {
            s.put(img(0, i));
            s.put(img(1, i));
        }
        assert!(s.corrupt_image(AppId(1), Rank(0), 2));
        assert!(s.corrupt_image(AppId(1), Rank(1), 3));
        let ranks = [Rank(0), Rank(1)];
        let line = s.latest_common_index(AppId(1), &ranks);
        assert_eq!(line, 1);
        for r in ranks {
            assert!(s.get(AppId(1), r, line).is_some(), "line must be readable");
        }
    }

    #[test]
    fn rewriting_a_corrupt_image_heals_it() {
        let s = CkptStore::new();
        s.put(img(0, 1));
        assert!(s.corrupt_image(AppId(1), Rank(0), 1));
        assert!(s.latest(AppId(1), Rank(0)).is_none());
        s.put(img(0, 1)); // checkpoint retry overwrites the torn file
        assert_eq!(s.latest(AppId(1), Rank(0)).unwrap().index, 1);
    }

    #[test]
    fn remove_app_clears_everything() {
        let s = CkptStore::new();
        s.put(img(0, 1));
        s.log_dep(
            AppId(1),
            MsgDep {
                sender: Rank(0),
                send_interval: 1,
                receiver: Rank(1),
                recv_interval: 0,
            },
        );
        s.remove_app(AppId(1));
        assert_eq!(s.stats().0, 0);
        assert!(s.deps(AppId(1)).is_empty());
    }
}
