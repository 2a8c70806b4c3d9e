//! The runtime node host: bridges the daemon's placement decisions to real
//! application-process threads.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use starfish_checkpoint::backend::StoreHub;
use starfish_checkpoint::Arch;
use starfish_daemon::config::AppEntry;
use starfish_daemon::{DownLink, NodeHost, ProcSpec};
use starfish_mpi::{MpiEndpoint, RankDirectory, RecvMode};
use starfish_util::trace::TraceSink;
use starfish_util::{AppId, NodeId, Rank, Result};
use starfish_vni::{Fabric, KickSender};

use crate::ctx::Ctx;
use crate::runtime::{process_main, Outputs, ProcessRuntime};

/// The registered application programs, shared cluster-wide (stands in for
/// the executables an admin would install on every node).
#[derive(Clone, Default)]
pub struct AppRegistry {
    inner: Arc<Mutex<HashMap<String, Arc<AppFn>>>>,
}

pub type AppFn = dyn Fn(&mut Ctx<'_>) -> Result<()> + Send + Sync;

impl AppRegistry {
    pub fn new() -> Self {
        AppRegistry::default()
    }

    pub fn register(
        &self,
        name: &str,
        f: impl Fn(&mut Ctx<'_>) -> Result<()> + Send + Sync + 'static,
    ) {
        self.inner.lock().insert(name.to_string(), Arc::new(f));
    }

    pub fn get(&self, name: &str) -> Option<Arc<AppFn>> {
        self.inner.lock().get(name).cloned()
    }
}

/// Cluster-wide registry of per-application placement directories.
#[derive(Clone, Default)]
pub struct DirRegistry {
    inner: Arc<Mutex<HashMap<AppId, RankDirectory>>>,
}

impl DirRegistry {
    pub fn get_or_create(&self, app: AppId, size: usize) -> RankDirectory {
        self.inner
            .lock()
            .entry(app)
            .or_insert_with(|| RankDirectory::new(size))
            .clone()
    }

    pub fn get(&self, app: AppId) -> Option<RankDirectory> {
        self.inner.lock().get(&app).cloned()
    }
}

/// Knobs that apply to every process spawned on the cluster (ablations and
/// policy defaults).
#[derive(Clone, Copy, Debug)]
pub struct RuntimeKnobs {
    /// Use the polling thread (paper design) or direct port reads
    /// (ablation).
    pub recv_mode: RecvMode,
    /// Route data messages through the object bus (ablation; default off =
    /// fast path).
    pub bus_data_path: bool,
    /// Independent protocol: auto-checkpoint every N safepoints (None =
    /// only explicit checkpoints).
    pub indep_every: Option<u64>,
}

impl Default for RuntimeKnobs {
    fn default() -> Self {
        RuntimeKnobs {
            recv_mode: RecvMode::Polled,
            bus_data_path: false,
            indep_every: None,
        }
    }
}

/// One node's host: implements the daemon's spawn interface with real
/// process threads.
pub struct RuntimeHost {
    pub node: NodeId,
    pub arch: Arch,
    pub fabric: Fabric,
    pub registry: AppRegistry,
    pub dirs: DirRegistry,
    pub store: StoreHub,
    pub outputs: Outputs,
    pub trace: TraceSink,
    pub knobs: RuntimeKnobs,
    /// Cluster-wide flight-recorder registry; every spawned rank registers
    /// its ring here under `"app<A>.r<R>"`.
    pub trace_hub: starfish_trace::TraceHub,
    /// Ring capacity for per-rank flight recorders (0 = recording off).
    pub trace_cap: usize,
}

impl NodeHost for RuntimeHost {
    fn placement_update(&self, entry: &AppEntry) {
        let dir = self.dirs.get_or_create(entry.id, entry.spec.size as usize);
        for (r, n) in entry.placement.iter().enumerate() {
            dir.place(Rank(r as u32), *n);
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
                &format!("{}.{}", spec.app, spec.rank),
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
            self.knobs.bus_data_path,
            self.knobs.indep_every,
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
