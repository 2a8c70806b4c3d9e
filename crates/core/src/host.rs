//! The runtime node host: bridges the daemon's placement decisions to real
//! application-process threads.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use starfish_checkpoint::store::CkptStore;
use starfish_checkpoint::Arch;
use starfish_daemon::config::AppEntry;
use starfish_daemon::{DownLink, NodeHost, ProcSpec};
use starfish_mpi::{MpiEndpoint, RankDirectory, RecvMode};
use starfish_util::trace::TraceSink;
use starfish_util::{AppId, Rank, Result};
use starfish_vni::{Fabric, KickSender};

use crate::ctx::Ctx;
use crate::runtime::{process_main, Outputs, ProcessRuntime};

/// The registered application programs, shared cluster-wide (stands in for
/// the executables an admin would install on every node).
#[derive(Clone, Default)]
pub(crate) struct AppRegistry {
    inner: Arc<Mutex<HashMap<String, Arc<AppFn>>>>,
}

pub(crate) type AppFn = dyn Fn(&mut Ctx<'_>) -> Result<()> + Send + Sync;

impl AppRegistry {
    pub(crate) fn new() -> Self {
        AppRegistry::default()
    }

    pub(crate) fn register(
        &self,
        name: &str,
        f: impl Fn(&mut Ctx<'_>) -> Result<()> + Send + Sync + 'static,
    ) {
        self.inner.lock().insert(name.to_string(), Arc::new(f));
    }

    pub(crate) fn get(&self, name: &str) -> Option<Arc<AppFn>> {
        self.inner.lock().get(name).cloned()
    }
}

/// Cluster-wide registry of per-application placement directories.
#[derive(Clone, Default)]
pub(crate) struct DirRegistry {
    inner: Arc<Mutex<HashMap<AppId, RankDirectory>>>,
}

impl DirRegistry {
    pub(crate) fn get_or_create(&self, app: AppId, size: usize) -> RankDirectory {
        self.inner
            .lock()
            .entry(app)
            .or_insert_with(|| RankDirectory::new(size))
            .clone()
    }

    pub(crate) fn get(&self, app: AppId) -> Option<RankDirectory> {
        self.inner.lock().get(&app).cloned()
    }
}

/// Knobs that apply to every process spawned on the cluster (ablations and
/// policy defaults).
#[derive(Clone, Copy, Debug)]
pub struct RuntimeKnobs {
    /// Charge receives as the paper's polling thread would (paper design)
    /// or a kernel crossing per port read (ablation). A cost model: either
    /// way the rank reads its own port.
    pub recv_mode: RecvMode,
}

impl Default for RuntimeKnobs {
    fn default() -> Self {
        RuntimeKnobs {
            recv_mode: RecvMode::Polled,
        }
    }
}

/// One node's host: implements the daemon's spawn interface with real
/// process threads.
pub(crate) struct RuntimeHost {
    pub(crate) arch: Arch,
    pub(crate) fabric: Fabric,
    pub(crate) registry: AppRegistry,
    pub(crate) dirs: DirRegistry,
    pub(crate) store: CkptStore,
    pub(crate) outputs: Outputs,
    pub(crate) trace: TraceSink,
    pub(crate) knobs: RuntimeKnobs,
    /// Cluster-wide flight-recorder registry; every spawned rank registers
    /// its ring here under `"app<A>.r<R>"`.
    pub(crate) trace_hub: starfish_trace::TraceHub,
    /// Ring capacity for per-rank flight recorders (0 = recording off).
    pub(crate) trace_cap: usize,
}

impl NodeHost for RuntimeHost {
    fn placement_update(&self, entry: &AppEntry) {
        let dir = self.dirs.get_or_create(entry.id, entry.spec.size as usize);
        for (rank, n) in entry.placed() {
            dir.place(rank, n);
        }
        dir.set_epoch(entry.epoch);
    }

    fn spawn(&self, spec: ProcSpec) -> Option<DownLink> {
        // Unknown program: nothing to start (the submission stays
        // "running" but empty; a real system would reject at submit).
        let run = self.registry.get(&spec.entry.spec.name)?;
        let dir = self
            .dirs
            .get_or_create(spec.app, spec.entry.spec.size as usize);
        // (An error here is the node going down while spawning.)
        let mut mpi = MpiEndpoint::new(
            &self.fabric,
            spec.app,
            spec.rank,
            dir,
            self.knobs.recv_mode,
            self.trace.clone(),
        )
        .ok()?;
        // The port is bound: wake the peers waiting to send here, and have
        // this rank woken when one of theirs binds.
        mpi.directory().bound(spec.rank, mpi.kicker());
        if self.trace_cap > 0 {
            // A restarted incarnation re-registers under the same scope,
            // replacing the dead ring; the epoch salts the span namespace
            // so stale receives held by survivors never match its spans.
            let rec = starfish_trace::FlightRecorder::with_incarnation(
                &starfish_trace::rank_scope(spec.app, spec.rank),
                self.trace_cap,
                u64::from(spec.entry.epoch.0),
            );
            self.trace_hub.register(rec.clone());
            mpi.set_recorder(rec);
        }
        let (down_tx, down_rx) = crossbeam::channel::unbounded();
        let rt = ProcessRuntime::new(
            spec.entry,
            spec.rank,
            spec.node,
            self.arch,
            mpi,
            down_rx,
            spec.up_tx,
            self.store.clone(),
            self.outputs.clone(),
            spec.spawn_vt,
            spec.restore_from,
            starfish_telemetry::Registry::new(),
        );
        // The daemon's end: it queues, then kicks the rank's wait point.
        let down_tx = KickSender::new(down_tx, rt.mpi.kicker());
        let link = DownLink::new(down_tx, rt.abort_flag.clone());
        std::thread::Builder::new()
            .name(format!("app-{}-{}", spec.app, spec.rank))
            .spawn(move || process_main(rt, run))
            .expect("spawn application process");
        Some(link)
    }

    fn rank_lost(&self, app: AppId, rank: Rank) {
        if let Some(dir) = self.dirs.get(app) {
            dir.unplace(rank);
        }
    }
}
