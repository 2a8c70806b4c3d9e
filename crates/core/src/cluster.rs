//! The cluster: the user-facing entry point of starfish-rs.
//!
//! A [`Cluster`] is the whole simulated installation: the interconnect
//! fabric, one daemon per node, shared stable checkpoint storage, and the
//! program registry. It exposes the operations the paper's clients have —
//! submit/suspend/resume/delete/checkpoint applications, administrate nodes
//! — plus the fault-injection surface the evaluation needs (crash nodes,
//! partition links, add nodes on the fly).

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use std::time::Duration;

use crossbeam::channel::RecvTimeoutError;

use starfish_checkpoint::backend::{CkptBackend, StoreHub};
use starfish_checkpoint::store::CkptStore;
use starfish_checkpoint::CkptValue;
use starfish_daemon::config::{AppSpec, AppStatus, ClusterConfig};
use starfish_daemon::{CfgCmd, CkptProto, Daemon, DaemonConfig, FtPolicy, LevelKind, MgmtSession};
use starfish_ensemble::{HeartbeatCfg, HeartbeatChaos};
use starfish_events::{EventBus, EventKind};
use starfish_mpi::RankDirectory;
use starfish_util::trace::TraceSink;
use starfish_util::{AppId, Error, NodeId, Rank, Result};
use starfish_vni::{BipMyrinet, Fabric, LayerCosts, NetworkModel, TcpEthernet};

use crate::ctx::Ctx;
use crate::host::{AppRegistry, DirRegistry, RuntimeHost, RuntimeKnobs};
use crate::runtime::Outputs;

/// Per-submission options (policy, checkpoint level, protocol, store).
#[derive(Debug, Clone, Copy)]
pub struct SubmitOpts {
    pub policy: FtPolicy,
    pub level: LevelKind,
    pub proto: CkptProto,
    pub backend: CkptBackend,
}

impl Default for SubmitOpts {
    fn default() -> Self {
        SubmitOpts {
            policy: FtPolicy::Restart,
            level: LevelKind::Vm,
            proto: CkptProto::StopAndSync,
            backend: CkptBackend::Disk,
        }
    }
}

impl SubmitOpts {
    pub fn policy(mut self, p: FtPolicy) -> Self {
        self.policy = p;
        self
    }
    pub fn level(mut self, l: LevelKind) -> Self {
        self.level = l;
        self
    }
    pub fn proto(mut self, p: CkptProto) -> Self {
        self.proto = p;
        self
    }
    /// Checkpoint store backend: stable disk (default) or the diskless
    /// peer-memory replica store with `k` copies per fragment.
    pub fn backend(mut self, b: CkptBackend) -> Self {
        self.backend = b;
        self
    }
    /// Shorthand for [`backend`](SubmitOpts::backend) with
    /// `CkptBackend::Replica { k }`.
    pub fn replica(self, k: u8) -> Self {
        self.backend(CkptBackend::Replica { k })
    }
}

/// Builder for a [`Cluster`].
pub struct ClusterBuilder {
    node_archs: Vec<u8>,
    model: Box<dyn NetworkModel>,
    layers: LayerCosts,
    trace: TraceSink,
    knobs: RuntimeKnobs,
    heartbeat: Option<HeartbeatCfg>,
    heartbeat_chaos: Option<HeartbeatChaos>,
    trace_cap: usize,
    /// Event-bus ring capacity per daemon; 0 disables the bus.
    events_cap: usize,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            node_archs: vec![0, 0],
            model: Box::new(BipMyrinet),
            layers: LayerCosts::prototype(),
            trace: TraceSink::disabled(),
            knobs: RuntimeKnobs::default(),
            heartbeat: None,
            heartbeat_chaos: None,
            trace_cap: starfish_trace::DEFAULT_CAPACITY,
            events_cap: starfish_events::bus::DEFAULT_CAPACITY,
        }
    }
}

impl ClusterBuilder {
    /// `n` nodes of the default machine type (the paper's P-II Linux boxes).
    pub fn nodes(mut self, n: u32) -> Self {
        self.node_archs = vec![0; n as usize];
        self
    }

    /// Explicit per-node machine types (indexes into
    /// [`starfish_checkpoint::MACHINES`], Table 2) — a heterogeneous
    /// cluster.
    pub fn node_archs(mut self, archs: &[u8]) -> Self {
        self.node_archs = archs.to_vec();
        self
    }

    /// Use the BIP/Myrinet interconnect model (default).
    pub fn network_bip(mut self) -> Self {
        self.model = Box::new(BipMyrinet);
        self
    }

    /// Use the TCP/IP over Fast Ethernet model.
    pub fn network_tcp(mut self) -> Self {
        self.model = Box::new(TcpEthernet);
        self
    }

    /// Use an arbitrary interconnect model (e.g. the ServerNet port).
    pub fn network(mut self, model: Box<dyn NetworkModel>) -> Self {
        self.model = model;
        self
    }

    /// Override the software layer costs (zero for pure-logic tests).
    pub fn layers(mut self, layers: LayerCosts) -> Self {
        self.layers = layers;
        self
    }

    /// Attach a message-taxonomy trace sink.
    pub fn trace(mut self, trace: TraceSink) -> Self {
        self.trace = trace;
        self
    }

    /// Runtime knobs (ablations).
    pub fn knobs(mut self, knobs: RuntimeKnobs) -> Self {
        self.knobs = knobs;
        self
    }

    /// Size of each process's flight-recorder message ring (sends and
    /// receives retained per daemon / per rank; phases and marks have their
    /// own fixed-size ring). Recording is on by default; see
    /// [`no_flight_recorder`](ClusterBuilder::no_flight_recorder).
    pub fn flight_recorder(mut self, events: usize) -> Self {
        self.trace_cap = events;
        self
    }

    /// Disable the causal flight recorder entirely (one predicted branch
    /// per would-be event remains; see BENCH_trace.json). `TRACE *` and
    /// `TIMELINE` then have nothing to show: phases are recorded nowhere
    /// else.
    pub fn no_flight_recorder(mut self) -> Self {
        self.trace_cap = 0;
        self
    }

    /// Ring capacity of each daemon's cluster event bus (events retained
    /// for `EVENTS TAIL` / postmortem slices; drops are counted exactly).
    /// The bus is on by default; see
    /// [`no_event_bus`](ClusterBuilder::no_event_bus).
    pub fn event_bus(mut self, capacity: usize) -> Self {
        self.events_cap = capacity;
        self
    }

    /// Disable the cluster event bus entirely (publishes become no-ops;
    /// postmortem bundles lose their event slice).
    pub fn no_event_bus(mut self) -> Self {
        self.events_cap = 0;
        self
    }

    /// Enable heartbeat failure detection on every daemon's ensemble stack
    /// (needed to notice *silent* crashes, which emit no fabric event).
    pub fn heartbeat(mut self, interval: Duration, timeout: Duration) -> Self {
        self.heartbeat = Some(HeartbeatCfg { interval, timeout });
        self
    }

    /// Seeded chaos on the heartbeat path (beacon rounds skipped with
    /// probability `skip_p`); only meaningful together with [`heartbeat`].
    ///
    /// [`heartbeat`]: ClusterBuilder::heartbeat
    pub fn heartbeat_chaos(mut self, seed: u64, skip_p: f64) -> Self {
        self.heartbeat_chaos = Some(HeartbeatChaos { seed, skip_p });
        self
    }

    /// Build and boot the cluster: all daemons started and converged on the
    /// full node set.
    pub fn build(self) -> Result<Cluster> {
        let fabric = Fabric::new(self.model, self.layers);
        // One shared registry for cluster infrastructure (fabric, ensemble,
        // daemons): every daemon piggybacks it under the single "cluster"
        // stats scope, so replace-on-update keeps the aggregate exact.
        let metrics = starfish_telemetry::Registry::new();
        fabric.attach_metrics(metrics.clone());
        self.trace
            .attach_metrics(std::sync::Arc::new(metrics.clone()));
        let store = StoreHub::new();
        let registry = AppRegistry::new();
        let dirs = DirRegistry::default();
        let outputs = Outputs::new();
        let trace_hub = starfish_trace::TraceHub::new();
        let n = self.node_archs.len();
        let cluster = Cluster {
            fabric,
            daemons: parking_lot::Mutex::new(Vec::new()),
            store,
            registry,
            dirs,
            outputs,
            trace: self.trace,
            knobs: self.knobs,
            metrics,
            heartbeat: self.heartbeat,
            heartbeat_chaos: self.heartbeat_chaos,
            trace_hub,
            trace_cap: self.trace_cap,
            events_cap: self.events_cap,
            next_token: AtomicU64::new(1),
            next_node: AtomicU32::new(n as u32),
        };
        for (i, arch_index) in self.node_archs.iter().enumerate() {
            // The first node founds the group, the rest join through it.
            let contact = (i > 0).then_some(NodeId(0));
            let d = cluster.boot_daemon(NodeId(i as u32), *arch_index, contact)?;
            // Sequential boot keeps daemon ids and join order deterministic.
            d.wait_config(Duration::from_secs(30), |c| c.up_nodes().len() == i + 1)?;
            cluster.daemons.lock().push(d);
        }
        for d in cluster.daemons.lock().iter() {
            d.wait_config(Duration::from_secs(30), |c| c.up_nodes().len() == n)?;
        }
        Ok(cluster)
    }
}

/// A running Starfish cluster.
pub struct Cluster {
    fabric: Fabric,
    daemons: parking_lot::Mutex<Vec<Daemon>>,
    store: StoreHub,
    registry: AppRegistry,
    dirs: DirRegistry,
    outputs: Outputs,
    trace: TraceSink,
    knobs: RuntimeKnobs,
    metrics: starfish_telemetry::Registry,
    heartbeat: Option<HeartbeatCfg>,
    heartbeat_chaos: Option<HeartbeatChaos>,
    trace_hub: starfish_trace::TraceHub,
    trace_cap: usize,
    events_cap: usize,
    next_token: AtomicU64,
    next_node: AtomicU32,
}

impl Cluster {
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// The interconnect fabric (fault injection lives here too).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Shared stable (disk) checkpoint storage — the NFS side of the hub.
    pub fn store(&self) -> &CkptStore {
        self.store.nfs()
    }

    /// The full checkpoint store hub: stable disk plus the diskless
    /// peer-memory replica backend, with per-app routing policies.
    pub fn ckpt_hub(&self) -> &StoreHub {
        &self.store
    }

    /// A live daemon handle (for management sessions and status queries).
    pub fn daemon(&self) -> Daemon {
        let ds = self.daemons.lock();
        for d in ds.iter() {
            if self
                .fabric
                .node_status(d.node())
                .map(|s| s.reachable())
                .unwrap_or(false)
            {
                return d.clone();
            }
        }
        ds[0].clone()
    }

    /// Daemon of a specific node.
    pub fn daemon_of(&self, node: NodeId) -> Option<Daemon> {
        self.daemons
            .lock()
            .iter()
            .find(|d| d.node() == node)
            .cloned()
    }

    /// Open a management/user session against a live daemon (the ASCII
    /// protocol of paper §3.1.1).
    pub fn session(&self) -> MgmtSession {
        let seed = self.next_token.fetch_add(1, Ordering::Relaxed);
        MgmtSession::connect(self.daemon(), seed)
    }

    /// Register an application program under a name, cluster-wide.
    pub fn register_app(
        &self,
        name: &str,
        f: impl Fn(&mut Ctx<'_>) -> Result<()> + Send + Sync + 'static,
    ) {
        self.registry.register(name, f);
    }

    /// Submit a registered program with `size` ranks.
    pub fn submit(&self, name: &str, size: u32, opts: SubmitOpts) -> Result<AppId> {
        let token = self.next_token.fetch_add(1, Ordering::Relaxed) << 20 | 0xA11C0;
        let spec = AppSpec {
            name: name.to_string(),
            size,
            policy: opts.policy,
            level: opts.level,
            proto: opts.proto,
            backend: opts.backend,
            owner: "cluster".to_string(),
            token,
        };
        let d = self.daemon();
        d.issue(CfgCmd::Submit { spec })?;
        let cfg = d.wait_config(Duration::from_secs(30), |c| {
            c.find_app_by_token(token).is_some()
        })?;
        Ok(cfg.find_app_by_token(token).expect("just checked").id)
    }

    /// The replicated configuration as the contacted daemon sees it.
    pub fn config(&self) -> ClusterConfig {
        self.daemon().config()
    }

    /// Status of an application.
    pub fn app_status(&self, app: AppId) -> Option<AppStatus> {
        self.config().apps.get(&app).map(|a| a.status)
    }

    /// Block until the application reaches `Done` (every rank finished).
    pub fn wait_app_done(&self, app: AppId, timeout: Duration) -> Result<()> {
        self.daemon()
            .wait_config(timeout, |c| {
                c.apps
                    .get(&app)
                    .map(|a| a.status == AppStatus::Done)
                    .unwrap_or(false)
            })
            .map(|_| ())
    }

    /// Block until `pred` holds on the application's replicated entry.
    pub fn wait_app(
        &self,
        app: AppId,
        timeout: Duration,
        mut pred: impl FnMut(&starfish_daemon::config::AppEntry) -> bool,
    ) -> Result<()> {
        self.daemon()
            .wait_config(timeout, |c| {
                c.apps.get(&app).map(&mut pred).unwrap_or(false)
            })
            .map(|_| ())
    }

    /// Trigger a system-initiated checkpoint of an application.
    pub fn checkpoint(&self, app: AppId) -> Result<()> {
        self.daemon().issue(CfgCmd::TriggerCkpt { app })
    }

    /// Enable *system-initiated checkpointing* (paper §1): every `interval`
    /// of real time, a checkpoint round is triggered for each running
    /// application — "programs that do not wish to handle these upcalls can
    /// simply ignore them ... such programs will only enjoy part of Starfish
    /// capability, e.g., system initiated checkpointing". Returns a guard;
    /// dropping it stops the driver.
    pub fn enable_auto_checkpoint(&self, interval: Duration) -> AutoCheckpoint {
        let daemon = self.daemon();
        let (stop, stopped) = crossbeam::channel::unbounded::<()>();
        let handle = std::thread::Builder::new()
            .name("starfish-auto-ckpt".into())
            .spawn(move || {
                // A timer, not a poll: each `interval` that passes without
                // the guard being dropped triggers one round per running app.
                while let Err(RecvTimeoutError::Timeout) = stopped.recv_timeout(interval) {
                    let cfg = daemon.config();
                    for app in cfg.apps.values() {
                        if app.status == AppStatus::Running {
                            let _ = daemon.issue(CfgCmd::TriggerCkpt { app: app.id });
                        }
                    }
                }
            })
            .expect("spawn auto-checkpoint driver");
        AutoCheckpoint {
            stop: Some(stop),
            handle: Some(handle),
        }
    }

    /// Suspend / resume / delete an application.
    pub fn suspend(&self, app: AppId) -> Result<()> {
        self.daemon().issue(CfgCmd::Suspend { app })
    }

    pub fn resume(&self, app: AppId) -> Result<()> {
        self.daemon().issue(CfgCmd::ResumeApp { app })
    }

    pub fn delete(&self, app: AppId) -> Result<()> {
        self.daemon().issue(CfgCmd::Delete { app })
    }

    /// Migrate one rank to another node (paper §3.2.1): takes a coordinated
    /// checkpoint first (warm migration), then moves the rank; the whole
    /// application resumes from that checkpoint with the rank on its new
    /// home.
    pub fn migrate(&self, app: AppId, rank: Rank, to: NodeId) -> Result<()> {
        let entry = self
            .config()
            .apps
            .get(&app)
            .cloned()
            .ok_or_else(|| Error::not_found(format!("{app}")))?;
        let ranks: Vec<Rank> = (0..entry.spec.size).map(Rank).collect();
        let before = self.store.latest_common_index(app, &ranks);
        self.checkpoint(app)?;
        let idx = self
            .store
            .wait_common_index(app, &ranks, before, Duration::from_secs(60))
            .map_err(|_| Error::timeout("pre-migration checkpoint"))?;
        self.daemon().issue(starfish_daemon::CfgCmd::Migrate {
            app,
            rank,
            node: to,
            line: vec![idx; ranks.len()],
        })
    }

    /// Crash a node (fail-stop fault injection). The injection itself is
    /// published to the event bus via a surviving daemon, so postmortems
    /// can correlate recoveries with the faults that caused them.
    pub fn crash_node(&self, node: NodeId) {
        self.fabric.crash_node(node);
        let _ = self.daemon().publish_event(EventKind::FaultInjected {
            desc: format!("crash {node}"),
        });
    }

    /// Administratively disable / enable a node.
    pub fn disable_node(&self, node: NodeId) -> Result<()> {
        self.fabric.disable_node(node);
        self.daemon().issue(CfgCmd::DisableNode { node })
    }

    pub fn enable_node(&self, node: NodeId) -> Result<()> {
        self.fabric.enable_node(node);
        self.daemon().issue(CfgCmd::EnableNode { node })
    }

    /// Add a brand-new node to the running cluster (paper §3.1.2
    /// dynamicity). Returns its id once the whole cluster knows it.
    pub fn add_node(&self, arch_index: u8) -> Result<NodeId> {
        let node = NodeId(self.next_node.fetch_add(1, Ordering::Relaxed));
        self.join_node(node, arch_index)?;
        Ok(node)
    }

    /// Restart the daemon of a crashed node (the paper's "recovering
    /// workstation rejoins the cluster"): the node comes back up on the
    /// fabric with the *same* identity and a fresh daemon joins through a
    /// surviving contact. The replicated configuration keeps the NodeId, so
    /// placement decisions made before the crash stay meaningful.
    pub fn restart_node(&self, node: NodeId) -> Result<()> {
        if self
            .fabric
            .node_status(node)
            .map(|s| s.reachable())
            .unwrap_or(false)
        {
            return Err(Error::invalid_arg(format!("{node:?} is still up")));
        }
        // Recover the machine type the node booted with; a restarted box is
        // the same hardware.
        let arch = self.config().arch_of(node);
        let arch_index = starfish_checkpoint::MACHINES
            .iter()
            .position(|a| *a == arch)
            .unwrap_or(0) as u8;
        // Drop the dead daemon handle before booting its replacement.
        self.daemons.lock().retain(|d| d.node() != node);
        let _ = self.daemon().publish_event(EventKind::FaultInjected {
            desc: format!("restart {node}"),
        });
        self.join_node(node, arch_index)
    }

    /// Boot a daemon for `node`, join it through a live contact and wait
    /// until the whole cluster knows it (`add_node`, `restart_node`).
    fn join_node(&self, node: NodeId, arch_index: u8) -> Result<()> {
        let contact = self.daemon().node();
        let d = self.boot_daemon(node, arch_index, Some(contact))?;
        // The newcomer first, then every daemon still running (`config()`
        // may ask any of them next).
        let up = |n| self.fabric.node_status(n).is_some_and(|s| s.reachable());
        let running: Vec<Daemon> = self.daemons.lock().clone();
        for w in std::iter::once(&d).chain(running.iter().filter(|w| up(w.node()))) {
            w.wait_config(Duration::from_secs(30), |c| c.up_nodes().contains(&node))?;
        }
        self.daemons.lock().push(d);
        Ok(())
    }

    /// The one node bring-up: power `node` on at the fabric and start its
    /// daemon, founding the group (`contact == None`: `build`'s first node)
    /// or joining through `contact`. What to wait for is the caller's.
    fn boot_daemon(&self, node: NodeId, arch_index: u8, contact: Option<NodeId>) -> Result<Daemon> {
        self.fabric.add_node(node);
        let host = RuntimeHost {
            node,
            arch: starfish_checkpoint::MACHINES
                .get(arch_index as usize)
                .copied()
                .unwrap_or(starfish_checkpoint::arch::DEFAULT_ARCH),
            fabric: self.fabric.clone(),
            registry: self.registry.clone(),
            dirs: self.dirs.clone(),
            store: self.store.clone(),
            outputs: self.outputs.clone(),
            trace: self.trace.clone(),
            knobs: self.knobs,
            trace_hub: self.trace_hub.clone(),
            trace_cap: self.trace_cap,
        };
        let mut dc = DaemonConfig::new(node);
        dc.arch_index = arch_index;
        dc.trace = self.trace.clone();
        dc.ensemble.trace = self.trace.clone();
        dc.ensemble.heartbeat = self.heartbeat;
        dc.ensemble.chaos = self.heartbeat_chaos;
        dc.metrics = Some(self.metrics.clone());
        dc.ensemble.metrics = Some(self.metrics.clone());
        if self.trace_cap > 0 {
            dc.recorder = starfish_trace::FlightRecorder::new(&format!("{node}"), self.trace_cap);
        }
        dc.events = if self.events_cap > 0 {
            EventBus::with_capacity(self.events_cap)
        } else {
            EventBus::disabled()
        };
        dc.trace_hub = self.trace_hub.clone();
        let store = self.store.clone();
        Daemon::start(&self.fabric, dc, contact, Box::new(host), store)
    }

    /// Values published by a rank (in publish order).
    pub fn outputs(&self, app: AppId, rank: Rank) -> Vec<CkptValue> {
        self.outputs.get(app, rank)
    }

    /// Wait for a rank to publish at least `n` values.
    pub fn wait_outputs(
        &self,
        app: AppId,
        rank: Rank,
        n: usize,
        timeout: Duration,
    ) -> Result<Vec<CkptValue>> {
        self.outputs.wait_count(app, rank, n, timeout)
    }

    /// The placement directory of an application (diagnostics).
    pub fn directory(&self, app: AppId) -> Option<RankDirectory> {
        self.dirs.get(app)
    }

    /// The message-taxonomy trace attached at build time.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The cluster-wide flight-recorder registry: one causal event ring per
    /// daemon (`"n<id>"`) and per application rank (`"app<A>.r<R>"`). Dump
    /// and [`reassemble`](starfish_trace::reassemble) them, or use the
    /// `TRACE` management commands.
    pub fn trace_hub(&self) -> &starfish_trace::TraceHub {
        &self.trace_hub
    }

    /// The shared cluster-infrastructure telemetry registry (fabric, trace,
    /// ensemble, daemons). Per-process registries are separate; their
    /// snapshots arrive via the daemons' `StatsHub` (see [`Cluster::stats`]).
    pub fn metrics(&self) -> &starfish_telemetry::Registry {
        &self.metrics
    }

    /// The stats hub of the first daemon — the cluster-wide aggregate view
    /// (all daemons converge on the same contents via the ordered cast path).
    pub fn stats(&self) -> starfish_daemon::StatsHub {
        let d = self.daemon();
        d.stats().clone()
    }

    /// The cluster event bus of a live daemon: the sequenced record of
    /// membership, checkpoint and recovery events (`EVENTS` over mgmt, or
    /// subscribe with [`EventBus::subscribe`]).
    pub fn events(&self) -> EventBus {
        self.daemon().events().clone()
    }

    /// The recovery postmortem bundle of `app` on a live daemon, if one has
    /// been assembled (also served by the `POSTMORTEM` mgmt command and
    /// written to `target/postmortems/` by the view coordinator).
    pub fn postmortem(&self, app: AppId) -> Option<starfish_events::Postmortem> {
        self.daemon().postmortem(app)
    }
}

impl Drop for Cluster {
    /// Deterministic teardown: power every node off at the fabric, then
    /// wait for the daemon threads. Daemons that are merely dropped
    /// negotiate their leave with peers doing the same, for up to two
    /// seconds each; a powered-off node's ports close, so its node loop,
    /// polling threads and ranks all see a disconnect and exit.
    fn drop(&mut self) {
        for (node, _) in self.fabric.nodes() {
            self.fabric.crash_node(node);
        }
        for d in self.daemons.get_mut().drain(..) {
            d.join();
        }
    }
}

/// Guard for the system-initiated checkpoint driver; dropping it stops the
/// periodic triggering and joins the driver thread.
pub struct AutoCheckpoint {
    stop: Option<crossbeam::channel::Sender<()>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Drop for AutoCheckpoint {
    fn drop(&mut self) {
        // Disconnecting the channel wakes the driver out of its interval.
        self.stop.take();
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cfg = self.config();
        write!(
            f,
            "Cluster({} nodes, {} apps)",
            cfg.nodes.len(),
            cfg.apps.len()
        )
    }
}

#[allow(dead_code)]
fn _assert_traits() {
    fn is_send_sync<T: Send + Sync>() {}
    is_send_sync::<Cluster>();
}
