//! Pluggable checkpoint storage backends.
//!
//! [`CkptBackend`] is the per-application *policy* (selected at submit time
//! via the daemon config, like the C/R protocol and level); the
//! [`CheckpointStore`] trait is the *mechanism* interface both backends
//! implement:
//!
//! * `disk` — the existing [`CkptStore`] stable store behind the modeled
//!   NFS/IDE disk ([`crate::disk::DiskModel`] charges the timing);
//! * `replica` — the diskless in-memory [`ReplicaStore`]
//!   ([`crate::replica`]), `k` copies of every fragment in peer memory.
//!
//! [`StoreHub`] is what the daemons and runtimes actually hold: one handle
//! that owns both stores plus the per-app policy/placement registry, and
//! routes every call to the app's backend. `From<CkptStore>` keeps the many
//! existing `Daemon::start(…, CkptStore::new())` call sites compiling — a
//! bare disk store lifts into a hub with every app defaulting to `disk`.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use starfish_util::watch::ChangeCount;
use starfish_util::{AppId, Error, NodeId, Rank, Result, VirtualTime};

use crate::image::CkptImage;
use crate::recovery::MsgDep;
use crate::replica::{FetchReceipt, PutReceipt, RankHealth, ReplicaNet, ReplicaStore};
use crate::store::CkptStore;

/// Which storage backend an application's checkpoints use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CkptBackend {
    /// Stable storage behind the modeled disk (the paper's NFS testbed).
    #[default]
    Disk,
    /// Diskless: fragments replicated to `k` distinct peer nodes' memory.
    Replica { k: u8 },
}

impl CkptBackend {
    /// Parse a mgmt/CLI spelling: `disk`, `replica` (k = 2) or `replica:3`.
    pub fn parse(s: &str) -> Option<CkptBackend> {
        let t = s.trim().to_ascii_lowercase();
        match t.as_str() {
            "disk" => Some(CkptBackend::Disk),
            "replica" => Some(CkptBackend::Replica { k: 2 }),
            _ => {
                let k = t.strip_prefix("replica:")?.parse::<u8>().ok()?;
                (k >= 1).then_some(CkptBackend::Replica { k })
            }
        }
    }
}

impl std::fmt::Display for CkptBackend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CkptBackend::Disk => write!(f, "disk"),
            CkptBackend::Replica { k } => write!(f, "replica:{k}"),
        }
    }
}

/// The mechanism interface `disk` and `replica` both provide. Timing-bearing
/// operations (`put`/`fetch` on the replica path) stay on the concrete
/// types — the trait covers the placement-agnostic storage contract that
/// daemons, recovery-line computation and chaos oracles rely on.
pub trait CheckpointStore: Send + Sync {
    fn backend_name(&self) -> &'static str;
    fn put(&self, img: CkptImage, owner: NodeId);
    fn get(&self, app: AppId, rank: Rank, index: u64) -> Option<CkptImage>;
    fn latest(&self, app: AppId, rank: Rank) -> Option<CkptImage>;
    fn latest_index(&self, app: AppId, rank: Rank) -> u64;
    fn latest_common_index(&self, app: AppId, ranks: &[Rank]) -> u64;
    fn corrupt_image(&self, app: AppId, rank: Rank, index: u64) -> bool;
    fn prune_below(&self, app: AppId, keep_from: u64);
    fn remove_app(&self, app: AppId);
    fn stats(&self) -> (usize, u64);
    /// Membership hooks: only the replica backend cares.
    fn node_down(&self, _node: NodeId) {}
    fn node_up(&self, _node: NodeId) {}
}

/// The disk backend: the stable [`CkptStore`] (placement-independent).
#[derive(Clone, Default)]
pub struct DiskBackend {
    pub store: CkptStore,
}

impl CheckpointStore for DiskBackend {
    fn backend_name(&self) -> &'static str {
        "disk"
    }
    fn put(&self, img: CkptImage, _owner: NodeId) {
        self.store.put(img);
    }
    fn get(&self, app: AppId, rank: Rank, index: u64) -> Option<CkptImage> {
        self.store.get(app, rank, index)
    }
    fn latest(&self, app: AppId, rank: Rank) -> Option<CkptImage> {
        self.store.latest(app, rank)
    }
    fn latest_index(&self, app: AppId, rank: Rank) -> u64 {
        self.store.latest_index(app, rank)
    }
    fn latest_common_index(&self, app: AppId, ranks: &[Rank]) -> u64 {
        self.store.latest_common_index(app, ranks)
    }
    fn corrupt_image(&self, app: AppId, rank: Rank, index: u64) -> bool {
        self.store.corrupt_image(app, rank, index)
    }
    fn prune_below(&self, app: AppId, keep_from: u64) {
        self.store.prune_below(app, keep_from)
    }
    fn remove_app(&self, app: AppId) {
        self.store.remove_app(app)
    }
    fn stats(&self) -> (usize, u64) {
        self.store.stats()
    }
}

/// Replica backend with a fixed `k` and net model: the trait's untimed
/// entry points over a [`ReplicaStore`].
#[derive(Clone)]
pub struct ReplicaBackend {
    pub store: ReplicaStore,
    pub k: u8,
    pub net: ReplicaNet,
}

impl CheckpointStore for ReplicaBackend {
    fn backend_name(&self) -> &'static str {
        "replica"
    }
    fn put(&self, img: CkptImage, owner: NodeId) {
        self.store.put_replicated(img, owner, self.k, &self.net);
    }
    fn get(&self, app: AppId, rank: Rank, index: u64) -> Option<CkptImage> {
        self.store.get(app, rank, index)
    }
    fn latest(&self, app: AppId, rank: Rank) -> Option<CkptImage> {
        self.store.latest(app, rank)
    }
    fn latest_index(&self, app: AppId, rank: Rank) -> u64 {
        self.store.latest_index(app, rank)
    }
    fn latest_common_index(&self, app: AppId, ranks: &[Rank]) -> u64 {
        self.store.latest_common_index(app, ranks)
    }
    fn corrupt_image(&self, app: AppId, rank: Rank, index: u64) -> bool {
        self.store.corrupt_image(app, rank, index)
    }
    fn prune_below(&self, app: AppId, keep_from: u64) {
        self.store.prune_below(app, keep_from)
    }
    fn remove_app(&self, app: AppId) {
        self.store.remove_app(app)
    }
    fn stats(&self) -> (usize, u64) {
        self.store.stats()
    }
    fn node_down(&self, node: NodeId) {
        self.store.node_down(node)
    }
    fn node_up(&self, node: NodeId) {
        self.store.node_up(node)
    }
}

#[derive(Clone)]
struct AppPolicy {
    backend: CkptBackend,
    /// rank → node placement, kept current by the daemons on submit and
    /// restart; lets `put` derive the owner node from the image's rank.
    placement: Vec<NodeId>,
}

#[derive(Default)]
struct HubInner {
    apps: HashMap<AppId, AppPolicy>,
}

/// One storage handle for daemons, runtimes and the chaos driver: both
/// backends plus the per-app policy registry. Cheap to clone; clones share
/// state (like the stores themselves).
#[derive(Clone)]
pub struct StoreHub {
    nfs: CkptStore,
    replica: ReplicaStore,
    net: ReplicaNet,
    inner: Arc<Mutex<HubInner>>,
    /// Bumped once per image stored through this hub.
    stored: Arc<ChangeCount>,
}

impl Default for StoreHub {
    fn default() -> Self {
        StoreHub {
            nfs: CkptStore::new(),
            replica: ReplicaStore::new(),
            net: ReplicaNet::lan_1999(),
            inner: Arc::default(),
            stored: Arc::default(),
        }
    }
}

impl From<CkptStore> for StoreHub {
    /// Lift a bare disk store into a hub (every app defaults to `disk`).
    /// This keeps pre-hub call sites — `Daemon::start(…, CkptStore::new())`
    /// — source-compatible.
    fn from(nfs: CkptStore) -> Self {
        StoreHub {
            nfs,
            ..StoreHub::default()
        }
    }
}

impl StoreHub {
    pub fn new() -> Self {
        StoreHub::default()
    }

    pub fn with_net(net: ReplicaNet) -> Self {
        StoreHub {
            net,
            ..StoreHub::default()
        }
    }

    /// The underlying disk store (figure harnesses and tests that poke the
    /// NFS model directly).
    pub fn nfs(&self) -> &CkptStore {
        &self.nfs
    }

    /// The underlying replica store (chaos driver, status reporting).
    pub fn replica(&self) -> &ReplicaStore {
        &self.replica
    }

    pub fn net(&self) -> ReplicaNet {
        self.net
    }

    /// Register (or update) an app's backend policy and rank placement.
    pub fn set_backend(&self, app: AppId, backend: CkptBackend, placement: Vec<NodeId>) {
        self.inner
            .lock()
            .apps
            .insert(app, AppPolicy { backend, placement });
    }

    /// Update only the placement (after restart/migration re-placement).
    pub fn update_placement(&self, app: AppId, placement: Vec<NodeId>) {
        if let Some(p) = self.inner.lock().apps.get_mut(&app) {
            p.placement = placement;
        }
    }

    pub fn backend_of(&self, app: AppId) -> CkptBackend {
        self.inner
            .lock()
            .apps
            .get(&app)
            .map(|p| p.backend)
            .unwrap_or_default()
    }

    /// The node a rank's pushes originate from, per the registered
    /// placement (`None` when unregistered — disk apps don't need one).
    pub fn owner_of(&self, app: AppId, rank: Rank) -> Option<NodeId> {
        let g = self.inner.lock();
        let p = g.apps.get(&app)?;
        p.placement.get(rank.0 as usize).copied()
    }

    fn dispatch(&self, app: AppId) -> Box<dyn CheckpointStore> {
        match self.backend_of(app) {
            CkptBackend::Disk => Box::new(DiskBackend {
                store: self.nfs.clone(),
            }),
            CkptBackend::Replica { k } => Box::new(ReplicaBackend {
                store: self.replica.clone(),
                k,
                net: self.net,
            }),
        }
    }

    // ---- CkptStore-mirroring surface, routed per app ----------------------

    pub fn put(&self, img: CkptImage) {
        let app = img.app;
        let owner = self.owner_of(app, img.rank).unwrap_or(NodeId(0));
        self.dispatch(app).put(img, owner);
        self.stored.bump();
    }

    /// Block (real time) until every rank in `ranks` has a readable image
    /// newer than `above`, and return that common index. Re-evaluated once
    /// per image stored through this hub, not on a timer.
    pub fn wait_common_index(
        &self,
        app: AppId,
        ranks: &[Rank],
        above: u64,
        timeout: Duration,
    ) -> Result<u64> {
        let deadline = Instant::now() + timeout; // lint: allow(wall-clock)
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

    /// Replica-path put with its timing receipt; falls back to an untimed
    /// disk put (the caller charges its own [`crate::disk::DiskModel`]
    /// time) when the app's backend is `disk`.
    pub fn put_timed(&self, img: CkptImage) -> Option<PutReceipt> {
        let app = img.app;
        let receipt = match self.backend_of(app) {
            CkptBackend::Disk => {
                self.nfs.put(img);
                None
            }
            CkptBackend::Replica { k } => {
                let owner = self.owner_of(app, img.rank).unwrap_or(NodeId(0));
                Some(self.replica.put_replicated(img, owner, k, &self.net))
            }
        };
        self.stored.bump();
        receipt
    }

    /// Replica-path fetch with its timing receipt; `None` for disk apps
    /// (use [`StoreHub::get`] and charge disk read time) and for
    /// unrecoverable images.
    pub fn fetch_timed(
        &self,
        app: AppId,
        rank: Rank,
        index: u64,
        to: NodeId,
    ) -> Option<FetchReceipt> {
        match self.backend_of(app) {
            CkptBackend::Disk => None,
            CkptBackend::Replica { .. } => self.replica.fetch(app, rank, index, to, &self.net),
        }
    }

    pub fn get(&self, app: AppId, rank: Rank, index: u64) -> Option<CkptImage> {
        self.dispatch(app).get(app, rank, index)
    }

    pub fn latest(&self, app: AppId, rank: Rank) -> Option<CkptImage> {
        self.dispatch(app).latest(app, rank)
    }

    pub fn latest_index(&self, app: AppId, rank: Rank) -> u64 {
        self.dispatch(app).latest_index(app, rank)
    }

    pub fn latest_common_index(&self, app: AppId, ranks: &[Rank]) -> u64 {
        self.dispatch(app).latest_common_index(app, ranks)
    }

    pub fn corrupt_image(&self, app: AppId, rank: Rank, index: u64) -> bool {
        self.dispatch(app).corrupt_image(app, rank, index)
    }

    pub fn prune_below(&self, app: AppId, keep_from: u64) {
        self.dispatch(app).prune_below(app, keep_from)
    }

    pub fn remove_app(&self, app: AppId) {
        self.dispatch(app).remove_app(app);
        self.inner.lock().apps.remove(&app);
    }

    pub fn log_dep(&self, app: AppId, dep: MsgDep) {
        // Dependency logs are tiny control records; they stay on the stable
        // store for both backends (the paper logs them with the daemons).
        self.nfs.log_dep(app, dep)
    }

    pub fn deps(&self, app: AppId) -> Vec<MsgDep> {
        self.nfs.deps(app)
    }

    /// Combined (image count, logical bytes) across both backends.
    pub fn stats(&self) -> (usize, u64) {
        let (dc, db) = self.nfs.stats();
        let (rc, rb) = self.replica.stats();
        (dc + rc, db + rb)
    }

    // ---- membership hooks -------------------------------------------------

    pub fn node_down(&self, node: NodeId) {
        self.replica.node_down(node);
    }

    pub fn node_up(&self, node: NodeId) {
        self.replica.node_up(node);
    }

    // ---- status reporting (mgmt `CKPT STATUS`) ----------------------------

    /// Per-rank replication health for a replica app; empty for disk apps.
    pub fn health(&self, app: AppId) -> Vec<RankHealth> {
        match self.backend_of(app) {
            CkptBackend::Disk => Vec::new(),
            CkptBackend::Replica { .. } => self.replica.health(app),
        }
    }

    /// Apps with a registered policy, sorted (mgmt listing).
    pub fn registered_apps(&self) -> Vec<(AppId, CkptBackend)> {
        let g = self.inner.lock();
        let mut v: Vec<(AppId, CkptBackend)> =
            g.apps.iter().map(|(a, p)| (*a, p.backend)).collect();
        v.sort_by_key(|(a, _)| a.0);
        v
    }

    /// Estimated disk-backend recovery time for `bytes` (for the status
    /// line's disk-vs-replica comparison), using the level-appropriate
    /// model the runtime charges.
    pub fn disk_read_estimate(bytes: u64, native: bool) -> VirtualTime {
        let model = if native {
            crate::disk::DiskModel::ide_1999()
        } else {
            crate::disk::DiskModel::vm_buffered()
        };
        model.read_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::MACHINES;
    use crate::image::CkptLevel;
    use crate::value::CkptValue;
    use starfish_util::Epoch;

    fn img(app: u32, rank: u32, index: u64) -> CkptImage {
        CkptImage::capture(
            AppId(app),
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
    fn backend_parse_and_display_roundtrip() {
        assert_eq!(CkptBackend::parse("disk"), Some(CkptBackend::Disk));
        assert_eq!(
            CkptBackend::parse("REPLICA"),
            Some(CkptBackend::Replica { k: 2 })
        );
        assert_eq!(
            CkptBackend::parse("replica:3"),
            Some(CkptBackend::Replica { k: 3 })
        );
        assert_eq!(CkptBackend::parse("replica:0"), None);
        assert_eq!(CkptBackend::parse("tape"), None);
        for b in [CkptBackend::Disk, CkptBackend::Replica { k: 3 }] {
            assert_eq!(CkptBackend::parse(&b.to_string()), Some(b));
        }
    }

    #[test]
    fn hub_defaults_unregistered_apps_to_disk() {
        let hub = StoreHub::new();
        hub.put(img(1, 0, 1));
        assert_eq!(hub.backend_of(AppId(1)), CkptBackend::Disk);
        assert_eq!(hub.nfs().latest_index(AppId(1), Rank(0)), 1);
        assert_eq!(hub.latest_index(AppId(1), Rank(0)), 1);
    }

    #[test]
    fn wait_common_index_wakes_on_the_completing_put() {
        let hub = StoreHub::new();
        let ranks = [Rank(0), Rank(1)];
        let long = Duration::from_secs(30);
        hub.put(img(1, 0, 1));
        let waiter = {
            let hub = hub.clone();
            std::thread::spawn(move || hub.wait_common_index(AppId(1), &ranks, 0, long))
        };
        // Images of other apps and of the same rank again wake the waiter
        // but do not satisfy it; rank 1's does.
        hub.put(img(2, 1, 1));
        hub.put(img(1, 0, 2));
        hub.put_timed(img(1, 1, 1));
        assert_eq!(waiter.join().unwrap().unwrap(), 1);
        // Already satisfied: returns without waiting. Never satisfied:
        // times out at the deadline.
        assert_eq!(hub.wait_common_index(AppId(1), &ranks, 0, long).unwrap(), 1);
        let late = hub.wait_common_index(AppId(1), &ranks, 1, Duration::from_millis(10));
        assert!(matches!(late, Err(Error::Timeout(_))), "{late:?}");
    }

    #[test]
    fn from_ckpt_store_preserves_existing_contents() {
        let disk = CkptStore::new();
        disk.put(img(1, 0, 1));
        let hub: StoreHub = disk.into();
        assert_eq!(hub.latest_index(AppId(1), Rank(0)), 1);
    }

    #[test]
    fn replica_apps_route_to_peer_memory_and_disk_stays_empty() {
        let hub = StoreHub::new();
        for n in 0..4 {
            hub.node_up(NodeId(n));
        }
        hub.set_backend(
            AppId(2),
            CkptBackend::Replica { k: 2 },
            vec![NodeId(0), NodeId(1)],
        );
        hub.put(img(2, 0, 1));
        hub.put(img(2, 1, 1));
        assert_eq!(hub.nfs().stats().0, 0, "replica puts must not hit disk");
        assert_eq!(hub.latest_index(AppId(2), Rank(0)), 1);
        assert_eq!(hub.latest_common_index(AppId(2), &[Rank(0), Rank(1)]), 1);
        // Survives one node loss at k=2 …
        hub.node_down(NodeId(1));
        assert_eq!(hub.latest_common_index(AppId(2), &[Rank(0), Rank(1)]), 1);
        let r = hub.fetch_timed(AppId(2), Rank(1), 1, NodeId(3)).unwrap();
        assert_eq!(r.img.rank, Rank(1));
        // … and the timed put returns a receipt only on the replica path.
        assert!(hub.put_timed(img(2, 0, 2)).is_some());
        assert!(hub.put_timed(img(9, 0, 1)).is_none());
    }

    #[test]
    fn remove_app_clears_policy_and_data() {
        let hub = StoreHub::new();
        hub.node_up(NodeId(0));
        hub.node_up(NodeId(1));
        hub.set_backend(AppId(3), CkptBackend::Replica { k: 1 }, vec![NodeId(0)]);
        hub.put(img(3, 0, 1));
        hub.remove_app(AppId(3));
        assert_eq!(hub.stats().0, 0);
        assert_eq!(hub.backend_of(AppId(3)), CkptBackend::Disk);
    }
}
