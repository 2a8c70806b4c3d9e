//! The daemon event loop.
//!
//! One [`Daemon`] runs per node, on one thread: the loop owns the node's
//! group-communication [`Stack`] and parks on its port (DESIGN.md §5d).
//! Each pass serves three sources: the stack's deliveries (views, totally
//! ordered casts, targeted relays), the local application processes (their
//! `ProcUp` queue), and administrative commands from management sessions.
//!
//! Everything that must be **consistent cluster-wide** (configuration,
//! placement, restart decisions) flows through the totally ordered cast
//! stream and a deterministic state machine, so all daemons agree without
//! any extra protocol. Everything **node-local** (spawning processes,
//! relaying to local processes) is derived from that shared state plus the
//! daemon's own node id. Every such decision is the [`Node`] machine's
//! (`node.rs`); the loop here is its I/O shell.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, TryRecvError};
use parking_lot::Mutex;

use starfish_checkpoint::recovery::{self};
use starfish_checkpoint::store::CkptStore;
use starfish_ensemble::{EndpointConfig, GcEvent, HeartbeatAges, Stack};
use starfish_telemetry::{metric, Registry};
use starfish_trace::event::{ClusterEvent, EventKind as ClusterKind};
use starfish_trace::postmortem::{postmortem_dir, Postmortem};
use starfish_trace::{EventLog, FlightRecorder, TraceHub};
use starfish_util::codec::{Decode, Encode};
use starfish_util::trace::{ActorKind, TraceSink};
use starfish_util::watch::ChangeCount;
use starfish_util::{AppId, Error, NodeId, Rank, Result, VClock, VirtualTime};
use starfish_vni::{Fabric, KickSender};

use crate::config::{CkptProto, ClusterConfig};
use crate::forensics::Forensics;
use crate::host::{DownLink, NodeHost, ProcSpec};
use crate::msg::{CfgCmd, P2pMsg, ProcDown, ProcUp, WireCast};
use crate::node::{Node, Out, StoreOp};
use crate::stats::StatsHub;

/// Per-daemon settings.
pub struct DaemonConfig {
    pub node: NodeId,
    /// Index into [`starfish_checkpoint::arch::MACHINES`] of this node's
    /// machine type (heterogeneous clusters, Table 2).
    pub arch_index: u8,
    pub trace: TraceSink,
    pub ensemble: EndpointConfig,
    /// Shared infrastructure registry (fabric/trace/ensemble metrics); its
    /// snapshot is cast under the `"cluster"` scope whenever process stats
    /// flush through this daemon.
    pub metrics: Option<Registry>,
    /// This daemon's flight recorder (scope `"n<id>"`); shared with the
    /// ensemble endpoint so casts and view changes become causal events.
    /// The cluster event stream is a record class of it: on by default,
    /// and a [`FlightRecorder::disabled`] one also turns off `EVENTS` and
    /// the postmortems.
    pub recorder: FlightRecorder,
    /// The cluster's recorder registry. The daemon registers its own
    /// recorder here at start; the runtime host registers one per spawned
    /// process; the `TRACE` management commands read it.
    pub trace_hub: TraceHub,
}

impl DaemonConfig {
    pub fn new(node: NodeId) -> Self {
        DaemonConfig {
            node,
            arch_index: 0,
            trace: TraceSink::disabled(),
            ensemble: EndpointConfig::default(),
            metrics: None,
            recorder: FlightRecorder::new(&node.to_string(), starfish_trace::DEFAULT_CAPACITY),
            trace_hub: TraceHub::new(),
        }
    }
}

enum DaemonCmd {
    Issue(CfgCmd),
    /// Publish a locally observed cluster event (rides the ordered cast
    /// path so every daemon's recorder assigns it the same sequence number).
    Emit(ClusterKind),
}

/// Handle to a running daemon (cheap to clone; management sessions hold
/// one).
#[derive(Clone)]
pub struct Daemon {
    node: NodeId,
    /// Shared, so the loop is kicked for the last handle's hang-up only.
    cmd_tx: Arc<KickSender<DaemonCmd>>,
    shared_cfg: Arc<Mutex<ClusterConfig>>,
    /// Bumped by the loop (its only writer) after each `shared_cfg` update.
    cfg_published: Arc<ChangeCount>,
    stats: StatsHub,
    trace_hub: TraceHub,
    store: CkptStore,
    recorder: FlightRecorder,
    postmortems: Arc<Mutex<BTreeMap<AppId, Postmortem>>>,
    liveness: HeartbeatAges,
    /// The loop thread, until someone [`join`](Daemon::join)s it.
    thread: Arc<Mutex<Option<std::thread::JoinHandle<()>>>>,
}

impl Daemon {
    /// Start a daemon. `contact == None` founds the Starfish group (first
    /// daemon of the cluster); otherwise join via an existing member.
    /// `store` is the checkpoint store the cluster shares.
    pub fn start(
        fabric: &Fabric,
        cfg: DaemonConfig,
        contact: Option<NodeId>,
        host: Box<dyn NodeHost>,
        store: CkptStore,
    ) -> Result<Daemon> {
        let (daemon, node_loop) = Self::boot(fabric, cfg, contact, host, store)?;
        #[expect(clippy::expect_used, reason = "only fails when out of threads")]
        let thread = std::thread::Builder::new()
            .name(format!("starfishd-{}", daemon.node))
            .spawn(move || node_loop.run())
            .expect("spawn daemon");
        *daemon.thread.lock() = Some(thread);
        Ok(daemon)
    }

    /// All of [`start`](Self::start) but the thread: the handle, and the
    /// node loop for a thread to `run`.
    fn boot(
        fabric: &Fabric,
        mut cfg: DaemonConfig,
        contact: Option<NodeId>,
        host: Box<dyn NodeHost>,
        store: CkptStore,
    ) -> Result<(Daemon, Loop)> {
        // Share the daemon's recorder with its ensemble endpoint (unless
        // the caller installed a distinct one) and make it discoverable.
        if cfg.recorder.is_enabled() && !cfg.ensemble.recorder.is_enabled() {
            cfg.ensemble.recorder = cfg.recorder.clone();
        }
        cfg.trace_hub.register(cfg.recorder.clone());
        let stack = Stack::start(fabric, cfg.node, contact, cfg.ensemble.clone())?;
        let (cmd_tx, cmd_rx) = channel::unbounded();
        let cmd_tx = Arc::new(KickSender::new(cmd_tx, stack.kicker()));
        let (up_tx, up_rx) = channel::unbounded();
        let up_tx = Arc::new(KickSender::new(up_tx, stack.kicker()));
        let shared_cfg = Arc::new(Mutex::new(ClusterConfig::new()));
        let cfg_published = Arc::new(ChangeCount::new());
        let stats = StatsHub::new();
        let trace_hub = cfg.trace_hub.clone();
        let node = cfg.node;
        let recorder = cfg.recorder.clone();
        let postmortems = Arc::new(Mutex::new(BTreeMap::new()));
        let liveness = stack.liveness();
        let state = Loop {
            node,
            // The founding daemon owns the (empty) initial state; joiners
            // acquire it by state transfer first.
            machine: Node::new(node, cfg.arch_index, contact.is_none(), fabric.hop()),
            trace: cfg.trace,
            metrics: cfg.metrics,
            stats: stats.clone(),
            stack,
            shared_cfg: shared_cfg.clone(),
            cfg_published: cfg_published.clone(),
            host,
            store: store.clone(),
            clock: VClock::new(),
            procs: HashMap::new(),
            up_tx,
            up_rx,
            cmd_rx,
            recorder: recorder.clone(),
            forensics: Forensics::new(),
            postmortems: postmortems.clone(),
            trace_hub: trace_hub.clone(),
            debug: std::env::var_os("STARFISH_RT_DEBUG").is_some(),
        };
        let daemon = Daemon {
            thread: Arc::default(),
            node,
            cmd_tx,
            shared_cfg,
            cfg_published,
            stats,
            trace_hub,
            store,
            recorder,
            postmortems,
            liveness,
        };
        Ok((daemon, state))
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Issue a configuration command (cast to all daemons).
    pub fn issue(&self, cmd: CfgCmd) -> Result<()> {
        self.cmd_tx
            .send(DaemonCmd::Issue(cmd))
            .map_err(|_| Error::closed("daemon gone"))
    }

    /// Snapshot of the replicated configuration as this daemon knows it.
    pub fn config(&self) -> ClusterConfig {
        self.shared_cfg.lock().clone()
    }

    /// Wait (real time) until `pred` holds on the replicated configuration.
    /// `pred` runs on a snapshot, outside the lock, once now and once per
    /// configuration the daemon loop publishes afterwards — never on a
    /// timer.
    pub fn wait_config(
        &self,
        timeout: Duration,
        mut pred: impl FnMut(&ClusterConfig) -> bool,
    ) -> Result<ClusterConfig> {
        #[expect(clippy::disallowed_methods, reason = "the caller's `timeout`")]
        let deadline = Instant::now() + timeout;
        let mut seen = self.cfg_published.current();
        loop {
            let cfg = self.config();
            if pred(&cfg) {
                return Ok(cfg);
            }
            seen = self
                .cfg_published
                .wait_past(seen, deadline)
                .ok_or_else(|| Error::timeout("wait_config"))?;
        }
    }

    /// The telemetry aggregation hub this daemon converges with the rest of
    /// the cluster (fed by totally ordered `WireCast::Stats`).
    pub fn stats(&self) -> &StatsHub {
        &self.stats
    }

    /// The cluster's flight-recorder registry (the `TRACE` management
    /// commands read it).
    pub(crate) fn trace_hub(&self) -> &TraceHub {
        &self.trace_hub
    }

    /// The checkpoint store this daemon reads recovery lines from (the
    /// `CKPT` management commands report through it).
    pub(crate) fn ckpt_store(&self) -> &CkptStore {
        &self.store
    }

    /// This daemon's flight recorder (`EVENTS SUBSCRIBE` follows it).
    pub(crate) fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    /// This daemon's cluster events (sequenced over the ordered cast path;
    /// the `EVENTS` management commands read them).
    pub fn events(&self) -> EventLog {
        self.recorder.events()
    }

    /// Publish a locally observed cluster event (e.g. an injected fault).
    /// Rides the ordered cast path, so all daemons sequence it identically.
    pub fn publish_event(&self, kind: ClusterKind) -> Result<()> {
        self.cmd_tx
            .send(DaemonCmd::Emit(kind))
            .map_err(|_| Error::closed("daemon gone"))
    }

    /// The postmortem bundle of the most recent completed recovery of
    /// `app`, if any (the `POSTMORTEM` management command reads it).
    pub fn postmortem(&self, app: AppId) -> Option<Postmortem> {
        self.postmortems.lock().get(&app).cloned()
    }

    /// Apps with a completed recovery bundle available.
    pub(crate) fn postmortem_apps(&self) -> Vec<AppId> {
        self.postmortems.lock().keys().copied().collect()
    }

    /// Failure-detector liveness: `(peer, time since last heard)` per peer
    /// (the `HEALTH` management command's heartbeat-age column).
    pub(crate) fn heartbeat_ages(&self) -> Vec<(NodeId, Duration)> {
        self.liveness.ages()
    }

    /// Wait for the daemon loop to exit — after its node was powered off at
    /// the fabric. The first caller
    /// joins the thread; later calls (other clones) return at once.
    pub fn join(&self) {
        let handle = {
            let mut slot = self.thread.lock();
            slot.take()
        };
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------

/// The node loop: the I/O shell around one [`Node`] machine. It parks on
/// the stack's port, feeds each delivery, local rank message and command to
/// the machine, and carries out the answers in order.
struct Loop {
    node: NodeId,
    machine: Node,
    trace: TraceSink,
    /// Shared infrastructure registry (see [`DaemonConfig::metrics`]).
    metrics: Option<Registry>,
    stats: StatsHub,
    stack: Stack,
    shared_cfg: Arc<Mutex<ClusterConfig>>,
    cfg_published: Arc<ChangeCount>,
    host: Box<dyn NodeHost>,
    store: CkptStore,
    clock: VClock,
    /// Local processes; `None` where the host started nothing to talk to.
    procs: HashMap<(AppId, Rank), Option<DownLink>>,
    up_tx: Arc<KickSender<(AppId, Rank, Vec<ProcUp>)>>,
    up_rx: Receiver<(AppId, Rank, Vec<ProcUp>)>,
    cmd_rx: Receiver<DaemonCmd>,
    /// The daemon's recorder. Its cluster events are all recorded while
    /// applying the totally ordered stream (or are the stream), so every
    /// bootstrapped daemon assigns identical sequence numbers.
    recorder: FlightRecorder,
    forensics: Forensics,
    postmortems: Arc<Mutex<BTreeMap<AppId, Postmortem>>>,
    /// Local flight recorders, for the postmortem causal slice.
    trace_hub: TraceHub,
    /// `STARFISH_RT_DEBUG`: print what the machine answers.
    debug: bool,
}

impl Loop {
    fn run(mut self) {
        while self.pass() {}
    }

    /// One pass of the node loop: park in the stack's wait, then serve the
    /// three sources in this order — all of them, whichever ended the wait:
    /// a kick only says "look". `false` once the loop is over.
    fn pass(&mut self) -> bool {
        for ev in self.stack.wait(Duration::MAX) {
            self.on_group_event(ev);
        }
        if self.stack.done() {
            return false; // left, excluded, or the node went down
        }
        while let Ok((app, rank, ups)) = self.up_rx.try_recv() {
            let now = self.clock.now();
            for up in &ups {
                self.clock.merge(up.vt());
                if let ProcUp::Cast { kind, body, .. } = up {
                    let (from, to) = (ActorKind::AppProcess, ActorKind::Daemon);
                    let len = body.len();
                    self.trace.record(kind.class(), from, to, "via-daemon", len);
                }
            }
            let outs = self.machine.proc_up(app, rank, ups, now);
            self.carry(outs);
        }
        loop {
            match self.cmd_rx.try_recv() {
                Ok(DaemonCmd::Issue(c)) => {
                    let (wc, vt) = (WireCast::Cfg(c), self.clock.now());
                    self.carry(vec![Out::Cast { wc, vt }]);
                }
                Ok(DaemonCmd::Emit(kind)) => {
                    let outs = self.machine.emit(kind, self.clock.now());
                    self.carry(outs);
                }
                // The last handle is gone: leave the group and exit.
                Err(TryRecvError::Disconnected) => {
                    self.leave();
                    return false;
                }
                Err(TryRecvError::Empty) => return true,
            }
        }
    }

    fn on_group_event(&mut self, ev: GcEvent) {
        let outs = match ev {
            GcEvent::View { view, vt } => {
                self.clock.merge(vt);
                self.machine.view(view, self.clock.now())
            }
            GcEvent::Cast {
                from, payload, vt, ..
            } => {
                self.clock.merge(vt);
                match WireCast::decode_from_bytes(&payload) {
                    Ok(wc) => self.machine.cast(from, wc, vt, self.clock.now()),
                    Err(_) => return,
                }
            }
            // A local failure-detector observation, published so that the
            // suspicion and its detection latency land on every daemon.
            GcEvent::Suspected {
                node,
                silent_for,
                vt,
            } => {
                self.clock.merge(vt);
                let silent_ns = silent_for.as_nanos() as u64;
                let kind = ClusterKind::NodeSuspected { node, silent_ns };
                self.machine.emit(kind, self.clock.now())
            }
            GcEvent::P2p { payload, vt, .. } => {
                self.clock.merge(vt);
                let Ok(msg) = P2pMsg::decode_from_bytes(&payload) else {
                    return;
                };
                self.machine.p2p(msg, self.clock.now())
            }
            GcEvent::Left => return, // the last one: `run` finds the stack done
        };
        self.carry(outs);
    }

    /// Leave the group and keep the stack going until it has (bounded: the
    /// peers may be leaving too).
    #[expect(clippy::disallowed_methods, reason = "the 2 s bound on leaving")]
    fn leave(&mut self) {
        self.stack.leave();
        let deadline = Instant::now() + Duration::from_secs(2);
        while !self.stack.done() && Instant::now() < deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            self.stack.wait(left);
        }
    }

    /// Carry out what the machine answered, in order.
    fn carry(&mut self, outs: Vec<Out>) {
        if self.debug && !outs.is_empty() {
            eprintln!("[daemon {}] {outs:?}", self.node);
        }
        for out in outs {
            let now = self.clock.now();
            match out {
                Out::Cast { wc, vt } => self.cast(wc, vt),
                Out::SendTo { to, msg, vt } => self.stack.send_to(to, msg.encode_to_bytes(), vt),
                Out::Spawn {
                    entry,
                    rank,
                    restore_from,
                } => {
                    let (app, up_tx) = (entry.id, self.up_tx.clone());
                    let spec = ProcSpec {
                        app,
                        rank,
                        node: self.node,
                        entry,
                        restore_from,
                        up_tx,
                        spawn_vt: now,
                    };
                    let link = self.host.spawn(spec);
                    if self.procs.insert((app, rank), link).is_none() {
                        self.procs_delta(1);
                    }
                }
                Out::Down { app, rank, msg } => self.send_down(app, rank, msg),
                Out::Forget(app, rank) => {
                    if self.procs.remove(&(app, rank)).is_some() {
                        self.procs_delta(-1);
                    }
                }
                Out::Store(op) => match op {
                    StoreOp::NodeDown(node) => self.store.node_down(node),
                    StoreOp::NodeUp(node) => self.store.node_up(node),
                    StoreOp::SetBackend(app, backend, placement) => {
                        self.store.set_backend(app, backend, placement)
                    }
                    StoreOp::UpdatePlacement(app, placement) => {
                        self.store.update_placement(app, placement)
                    }
                    StoreOp::PruneBelow(app, index) => self.store.prune_below(app, index),
                    StoreOp::RemoveApp(app) => self.store.remove_app(app),
                },
                Out::Placement(entry) => self.host.placement_update(&entry),
                Out::RankLost(app, rank) => self.host.rank_lost(app, rank),
                Out::Event { origin, vt, kind } => self.record_event(origin, vt, kind),
                Out::Recovery {
                    app,
                    respawns,
                    origin,
                    vt,
                } => {
                    self.forensics.expect_respawns(app, respawns);
                    if respawns == 0 {
                        self.complete_recovery(app, origin, vt); // a pure rollback
                    }
                }
                Out::Restart { app, dead } => {
                    let line = self.compute_line(app, &dead);
                    self.cast(WireCast::Cfg(CfgCmd::RestartApp { app, line }), now);
                }
                // Cumulative telemetry: the total order makes every hub
                // converge, and its history stays queryable afterwards.
                Out::Stats { stats, vt } => self.stats.apply(stats, vt),
                Out::Retention(n) => self.stats.set_retention(n),
                Out::Publish => {
                    *self.shared_cfg.lock() = self.machine.config().clone();
                    self.cfg_published.bump();
                }
            }
        }
    }

    /// Cast `wc` at `vt`. Each stats entry gains the shared
    /// infrastructure's snapshot under one well-known scope (so re-casts
    /// replace): the ranks' telemetry and the cluster's take one slot.
    fn cast(&mut self, wc: WireCast, vt: VirtualTime) {
        let stamp = |entry| match entry {
            WireCast::Stats(mut stats) => {
                stats.cluster = self.metrics.as_ref().map(|m| m.snapshot());
                WireCast::Stats(stats)
            }
            entry => entry,
        };
        let wc = match wc {
            WireCast::Batch(casts) => WireCast::Batch(casts.into_iter().map(stamp).collect()),
            wc => stamp(wc),
        };
        self.stack.cast(wc.encode_to_bytes(), vt);
    }

    /// Record a cluster event at the current point of the ordered stream
    /// and run the forensics state machine over it. When the event
    /// completes a recovery, every daemon completes it at the same stream
    /// point.
    fn record_event(&mut self, origin: NodeId, vt: VirtualTime, kind: ClusterKind) {
        let Some(ev) = self.recorder.record_event(origin, vt, kind) else {
            return;
        };
        if let Some(m) = &self.metrics {
            m.inc(metric::EVENTS_PUBLISHED);
        }
        let stats = self.stats.clone();
        if let Some(app) = self.forensics.observe(&ev, move || stats.merged()) {
            self.complete_recovery(app, origin, vt);
        }
    }

    /// The `recovery-complete` event of `app` and its bundle.
    fn complete_recovery(&mut self, app: AppId, origin: NodeId, vt: VirtualTime) {
        let entry = self.machine.config().apps.get(&app);
        let epoch = entry.map(|a| a.epoch).unwrap_or_default();
        self.record_event(origin, vt, ClusterKind::RecoveryComplete { app, epoch });
        self.finalize_postmortem(app, vt);
    }

    /// Assemble the recovery bundle of `app`, store it for `POSTMORTEM`,
    /// and (acting daemon only) write it to [`postmortem_dir`].
    fn finalize_postmortem(&mut self, app: AppId, complete_vt: VirtualTime) {
        let name = format!("{app}");
        let backend = self
            .machine
            .config()
            .apps
            .get(&app)
            .map(|a| a.spec.backend.to_string())
            .unwrap_or_else(|| "disk".into());
        let stats_after = self.stats.merged();
        let Some(mut pm) = self.forensics.finalize(
            app,
            crate::forensics::BundleInputs {
                app_name: &name,
                store_backend: &backend,
                complete_vt_ns: complete_vt.as_nanos(),
                events: &self.recorder.events(),
                stats_after: &stats_after,
            },
        ) else {
            return;
        };
        pm.trace = self.trace_slice(&pm.events);
        if self.machine.acts_for_group() {
            let dir = postmortem_dir();
            if std::fs::create_dir_all(&dir).is_ok() {
                let path = dir.join(format!("{}-e{}.json", name, pm.epoch));
                let _ = std::fs::write(path, pm.to_json());
            }
        }
        self.postmortems.lock().insert(app, pm);
    }

    /// Flight-recorder summaries inside the virtual-time span of the
    /// bundle's events, for its causal slice (the events themselves are
    /// the bundle's own section). Bounded; local to this daemon's
    /// recorders.
    fn trace_slice(&self, events: &[ClusterEvent]) -> Vec<String> {
        const MAX: usize = 256;
        let vts = || events.iter().map(|e| e.vt);
        let (Some(from), Some(to)) = (vts().min(), vts().max()) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for pt in self.trace_hub.dump_all() {
            for ev in &pt.events {
                if (from..=to).contains(&ev.vt) && ev.cluster().is_none() {
                    out.push(format!("{}: {}", pt.scope, ev.summary()));
                    if out.len() >= MAX {
                        return out;
                    }
                }
            }
        }
        out
    }

    /// Keep the cluster-wide `procs.running` gauge in step with this
    /// daemon's local process table (additive deltas, so daemons sharing a
    /// registry in-process still sum correctly).
    fn procs_delta(&self, delta: i64) {
        if let Some(m) = &self.metrics {
            m.gauge_add(metric::PROCS_RUNNING, delta);
        }
    }

    fn send_down(&self, app: AppId, rank: Rank, msg: ProcDown) {
        if let Some(link) = self.procs.get(&(app, rank)) {
            let (from, to) = (ActorKind::Daemon, ActorKind::AppProcess);
            self.trace.record(msg.class(), from, to, "local-tcp", 0);
            if let Some(link) = link {
                link.send(msg);
            }
        }
    }

    /// Recovery line for a restart decision (carried in the cast so all
    /// daemons — whose store reads might race — agree by construction).
    fn compute_line(&self, app: AppId, dead: &[NodeId]) -> Vec<u64> {
        let Some(app) = self.machine.config().apps.get(&app) else {
            return Vec::new();
        };
        let ranks: Vec<Rank> = (0..app.spec.size).map(Rank).collect();
        match app.spec.proto {
            CkptProto::StopAndSync | CkptProto::ChandyLamport => {
                let idx = self.store.latest_common_index(app.id, &ranks);
                vec![idx; ranks.len()]
            }
            CkptProto::Independent => {
                let latest: BTreeMap<Rank, u64> = ranks
                    .iter()
                    .map(|r| (*r, self.store.latest_index(app.id, *r)))
                    .collect();
                let deps = self.store.deps(app.id);
                let failed: Vec<Rank> = app
                    .placed()
                    .filter(|(_, n)| dead.contains(n))
                    .map(|(r, _)| r)
                    .collect();
                let rl = recovery::recovery_line(&latest, &deps, &failed);
                ranks.iter().map(|r| rl.index_of(*r)).collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AppEntry, AppSpec, AppStatus, CfgNodeStatus, FtPolicy, LevelKind};
    use crate::host::NullHost;
    use starfish_checkpoint::backend::CkptBackend;
    use starfish_vni::{Ideal, LayerCosts};

    type SpawnLog = Arc<Mutex<Vec<(AppId, Rank, NodeId, u64)>>>;

    struct RecordingHost {
        spawns: SpawnLog,
        lost: Arc<Mutex<Vec<(AppId, Rank)>>>,
    }

    impl NodeHost for RecordingHost {
        fn placement_update(&self, _entry: &AppEntry) {}
        fn spawn(&self, spec: ProcSpec) -> Option<DownLink> {
            self.spawns
                .lock()
                .push((spec.app, spec.rank, spec.node, spec.restore_from));
            None
        }
        fn rank_lost(&self, app: AppId, rank: Rank) {
            self.lost.lock().push((app, rank));
        }
    }

    fn fabric(n: u32) -> Fabric {
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        for i in 0..n {
            f.add_node(NodeId(i));
        }
        f
    }

    fn spec(name: &str, size: u32, policy: FtPolicy) -> AppSpec {
        AppSpec {
            name: name.into(),
            size,
            policy,
            level: LevelKind::Vm,
            proto: CkptProto::StopAndSync,
            backend: CkptBackend::Disk,
            owner: "t".into(),
            token: 7,
        }
    }

    fn start_cluster(f: &Fabric, n: u32) -> (Vec<Daemon>, Vec<SpawnLog>) {
        let mut daemons = Vec::new();
        let mut spawns = Vec::new();
        for i in 0..n {
            let rec = Arc::new(Mutex::new(Vec::new()));
            let host = RecordingHost {
                spawns: rec.clone(),
                lost: Arc::new(Mutex::new(Vec::new())),
            };
            spawns.push(rec);
            let d = Daemon::start(
                f,
                DaemonConfig::new(NodeId(i)),
                if i == 0 { None } else { Some(NodeId(0)) },
                Box::new(host),
                CkptStore::new(),
            )
            .unwrap();
            // Wait until this daemon appears in the replicated config so
            // subsequent placements use every node.
            d.wait_config(Duration::from_secs(10), |c| {
                c.up_nodes().len() == (i + 1) as usize
            })
            .unwrap();
            daemons.push(d);
        }
        // All daemons converge on the full node set.
        for d in &daemons {
            d.wait_config(Duration::from_secs(10), |c| {
                c.up_nodes().len() == n as usize
            })
            .unwrap();
        }
        (daemons, spawns)
    }

    #[test]
    fn daemons_replicate_config_and_spawn() {
        let f = fabric(3);
        let (daemons, spawns) = start_cluster(&f, 3);
        daemons[1]
            .issue(CfgCmd::Submit {
                spec: spec("app", 3, FtPolicy::Restart),
            })
            .unwrap();
        // Every daemon sees the app.
        for d in &daemons {
            let cfg = d
                .wait_config(Duration::from_secs(10), |c| !c.apps.is_empty())
                .unwrap();
            let app = cfg.apps.values().next().unwrap();
            assert_eq!(app.spec.size, 3);
            assert_eq!(app.placement.len(), 3);
        }
        // Each node spawned exactly the ranks placed on it (a daemon
        // publishes a configuration only after acting on it, so the spawns
        // of every daemon waited on above have happened).
        let cfg = daemons[0].config();
        let app = cfg.apps.values().next().unwrap();
        for (i, rec) in spawns.iter().enumerate() {
            let got = rec.lock().clone();
            let expect: Vec<Rank> = app
                .placement
                .iter()
                .enumerate()
                .filter(|(_, n)| **n == NodeId(i as u32))
                .map(|(r, _)| Rank(r as u32))
                .collect();
            let got_ranks: Vec<Rank> = got.iter().map(|(_, r, _, _)| *r).collect();
            assert_eq!(got_ranks, expect, "node {i} spawned wrong ranks");
            assert!(got.iter().all(|(_, _, _, from)| *from == 0));
        }
    }

    #[test]
    fn node_crash_triggers_restart_decision() {
        let f = fabric(3);
        let (daemons, spawns) = start_cluster(&f, 3);
        daemons[0]
            .issue(CfgCmd::Submit {
                spec: spec("app", 3, FtPolicy::Restart),
            })
            .unwrap();
        for d in &daemons {
            d.wait_config(Duration::from_secs(10), |c| !c.apps.is_empty())
                .unwrap();
        }
        let app = daemons[0].config().apps.values().next().unwrap().clone();
        // Crash the node hosting rank 1.
        let dead = app.placement[1];
        f.crash_node(dead);
        // Surviving daemons converge: app restarted with bumped epoch and
        // rank 1 re-placed on a surviving node.
        for d in daemons.iter().filter(|d| d.node() != dead) {
            let cfg = d
                .wait_config(Duration::from_secs(10), |c| {
                    c.apps
                        .values()
                        .next()
                        .map(|a| a.epoch.0 == 1)
                        .unwrap_or(false)
                })
                .unwrap();
            let a = cfg.apps.values().next().unwrap();
            assert_ne!(a.placement[1], dead);
            assert_eq!(
                cfg.nodes[&dead].status,
                CfgNodeStatus::Dead,
                "dead node recorded"
            );
        }
        // Someone spawned the replacement with restore_from 0 (no
        // checkpoints were taken).
        let restarted: Vec<(AppId, Rank, NodeId, u64)> = spawns
            .iter()
            .flat_map(|r| r.lock().clone())
            .filter(|(_, r, _, _)| *r == Rank(1))
            .collect();
        assert!(
            restarted.iter().any(|(_, _, n, _)| *n != dead),
            "rank 1 respawned on a survivor: {restarted:?}"
        );
    }

    #[test]
    fn recovery_publishes_event_sequence_and_postmortem() {
        let f = fabric(3);
        let (daemons, _spawns) = start_cluster(&f, 3);
        daemons[0]
            .issue(CfgCmd::Submit {
                spec: spec("app", 3, FtPolicy::Restart),
            })
            .unwrap();
        for d in &daemons {
            d.wait_config(Duration::from_secs(10), |c| !c.apps.is_empty())
                .unwrap();
        }
        let entry = daemons[0].config().apps.values().next().unwrap().clone();
        let app = entry.id;
        let dead = entry.placement[1];
        f.crash_node(dead);
        // Every survivor assembles the same bundle for the recovered app.
        let survivors: Vec<&Daemon> = daemons.iter().filter(|d| d.node() != dead).collect();
        // The recovery completes with the respawn event, which the daemon
        // hosting the replacement casts while acting on the restart. A
        // marker cast through that same daemon afterwards is ordered behind
        // it, so whoever has applied the marker has assembled its bundle.
        let restarted = survivors[0]
            .wait_config(Duration::from_secs(10), |c| c.apps[&app].epoch.0 == 1)
            .unwrap();
        let host = restarted.apps[&app].placement[1];
        let host = survivors.iter().find(|d| d.node() == host).unwrap();
        host.wait_config(Duration::from_secs(10), |c| c.apps[&app].epoch.0 == 1)
            .unwrap();
        host.issue(CfgCmd::SetParam {
            key: "marker".into(),
            value: "1".into(),
        })
        .unwrap();
        let bundles: Vec<Postmortem> = survivors
            .iter()
            .map(|d| {
                d.wait_config(Duration::from_secs(10), |c| c.params.contains_key("marker"))
                    .unwrap();
                d.postmortem(app)
                    .unwrap_or_else(|| panic!("daemon {} produced no postmortem", d.node()))
            })
            .collect();
        let pm = &bundles[0];
        assert_eq!(pm.epoch, 1);
        assert_eq!(pm.store_backend, "disk");
        // No checkpoint committed: the recovery line is all-zeros.
        assert_eq!(pm.rollback.line, vec![0, 0, 0]);
        // The bundle's event slice tells the recovery story in order.
        let labels: Vec<&str> = pm.events.iter().map(|e| e.kind.label()).collect();
        for need in [
            "node-dead",
            "recovery-begin",
            "recovery-restore",
            "recovery-respawn",
            "recovery-complete",
        ] {
            assert!(labels.contains(&need), "missing {need} in {labels:?}");
        }
        let pos = |l: &str| labels.iter().position(|x| *x == l).unwrap();
        assert!(pos("node-dead") < pos("recovery-begin"));
        assert!(pos("recovery-begin") < pos("recovery-restore"));
        assert!(pos("recovery-restore") < pos("recovery-respawn"));
        assert!(pos("recovery-respawn") < pos("recovery-complete"));
        // Detection phase exists (fabric crash = fail-stop detector here).
        assert!(pm.complete_vt_ns >= pm.begin_vt_ns);
        // Every survivor tells the same story: the event *content and order*
        // come from the totally ordered stream, so they must agree.
        // Per-daemon observables legitimately differ — absolute sequence
        // numbers (joiners bootstrap later, so their buses start shorter)
        // and virtual timestamps (delivery vt is the receiver's own clock).
        let norm = |pm: &Postmortem| {
            let evs: Vec<String> = pm
                .events
                .iter()
                .map(|e| format!("{} {}", e.origin, e.kind.label()))
                .collect();
            (pm.epoch, pm.trigger.clone(), pm.rollback.clone(), evs)
        };
        for other in &bundles[1..] {
            assert_eq!(norm(pm), norm(other));
        }
        // The live bus carries the same story a subscriber would stream.
        let bus_labels: Vec<String> = survivors[0]
            .events()
            .snapshot()
            .iter()
            .map(|e| e.kind.label().to_string())
            .collect();
        for need in ["node-up", "node-dead", "recovery-complete"] {
            assert!(
                bus_labels.iter().any(|l| l == need),
                "bus missing {need}: {bus_labels:?}"
            );
        }
    }

    #[test]
    fn kill_policy_deletes_app_on_crash() {
        let f = fabric(2);
        let (daemons, _spawns) = start_cluster(&f, 2);
        daemons[0]
            .issue(CfgCmd::Submit {
                spec: spec("fragile", 2, FtPolicy::Kill),
            })
            .unwrap();
        daemons[0]
            .wait_config(Duration::from_secs(10), |c| !c.apps.is_empty())
            .unwrap();
        f.crash_node(NodeId(1));
        let cfg = daemons[0]
            .wait_config(Duration::from_secs(10), |c| {
                c.apps
                    .values()
                    .next()
                    .map(|a| a.status == AppStatus::Killed)
                    .unwrap_or(false)
            })
            .unwrap();
        assert_eq!(cfg.apps.values().next().unwrap().status, AppStatus::Killed);
    }

    #[test]
    fn suspend_resume_roundtrip_in_config() {
        let f = fabric(1);
        let d = Daemon::start(
            &f,
            DaemonConfig::new(NodeId(0)),
            None,
            Box::new(NullHost),
            CkptStore::new(),
        )
        .unwrap();
        d.wait_config(Duration::from_secs(5), |c| c.up_nodes().len() == 1)
            .unwrap();
        d.issue(CfgCmd::Submit {
            spec: spec("s", 1, FtPolicy::Kill),
        })
        .unwrap();
        let cfg = d
            .wait_config(Duration::from_secs(5), |c| !c.apps.is_empty())
            .unwrap();
        let id = cfg.apps.values().next().unwrap().id;
        d.issue(CfgCmd::Suspend { app: id }).unwrap();
        d.wait_config(Duration::from_secs(5), |c| {
            c.apps[&id].status == AppStatus::Suspended
        })
        .unwrap();
        d.issue(CfgCmd::ResumeApp { app: id }).unwrap();
        d.wait_config(Duration::from_secs(5), |c| {
            c.apps[&id].status == AppStatus::Running
        })
        .unwrap();
    }

    /// `wait_config` runs its predicate once on entry and once per
    /// configuration published after that — never on a timer.
    #[test]
    fn wait_config_evaluates_once_per_publish() {
        let f = fabric(1);
        let (daemons, _) = start_cluster(&f, 1);
        let d = daemons[0].clone();
        let publishes = |d: &Daemon| d.cfg_published.current();
        let before = publishes(&d);
        let evals = Arc::new(Mutex::new(0u64));
        let waiter = {
            let (d, evals) = (d.clone(), evals.clone());
            std::thread::spawn(move || {
                d.wait_config(Duration::from_secs(10), |c| {
                    *evals.lock() += 1;
                    c.params.get("k").map(String::as_str) == Some("3")
                })
                .unwrap();
            })
        };
        for v in 1..=3 {
            d.issue(CfgCmd::SetParam {
                key: "k".into(),
                value: v.to_string(),
            })
            .unwrap();
        }
        waiter.join().unwrap();
        let evals = *evals.lock();
        let published = publishes(&d) - before;
        assert_eq!(published, 3);
        assert!(
            (1..=published + 1).contains(&evals),
            "{evals} evaluations for {published} publishes"
        );
        // And a wait nothing satisfies ends at its deadline, not before.
        let err = d.wait_config(Duration::from_millis(20), |_| false);
        assert!(matches!(err, Err(Error::Timeout(_))));
    }

    /// A command queued while packets are waiting is served by the pass
    /// those packets wake — not one wake-up later, behind whatever arrives
    /// next (the loop here has no thread: the test makes its passes).
    #[test]
    fn a_pass_serves_commands_queued_behind_waiting_packets() {
        let f = fabric(2);
        let boot = DaemonConfig::new(NodeId(0));
        let (d, mut node) =
            Daemon::boot(&f, boot, None, Box::new(NullHost), CkptStore::new()).unwrap();
        let set = |key: &str| {
            let (key, value) = (key.to_string(), "1".to_string());
            d.issue(CfgCmd::SetParam { key, value }).unwrap();
        };
        // Boot: the founder's view, then its own announcement — which it
        // sequenced, so delivered in place: no packet.
        assert!(node.pass() && node.pass());
        assert_eq!(d.config().up_nodes(), vec![NodeId(0)]);
        assert_eq!(f.queued_packets(), 0);
        // A second node's join request is a packet waiting at our port ...
        let joiner = Stack::start(&f, NodeId(1), Some(NodeId(0)), EndpointConfig::default());
        assert_eq!(f.queued_packets(), 1);
        // ... which is what ends the wait of the next pass. "a", queued
        // behind it, is cast by that same pass.
        set("a");
        assert!(node.pass());
        assert!(node.cmd_rx.is_empty(), "left for the next wake-up");
        assert_eq!(node.stack.view().map(|v| v.size()), Some(2), "joined");
        assert!(!d.config().params.contains_key("a"));
        // Its delivery (in place) is the next pass's.
        assert!(node.pass());
        assert!(d.config().params.contains_key("a"));
        drop(joiner);
    }

    #[test]
    fn daemon_shutdown_leaves_group() {
        let f = fabric(2);
        let (mut daemons, _) = start_cluster(&f, 2);
        // Dropping a daemon's last handle makes it leave the group.
        drop(daemons.pop());
        // Daemon 0 keeps running: the group shrinks, and its coordinator
        // records the node that left as Dead — but still listed (dropping a
        // node from the configuration is the admin's REMOVENODE).
        let cfg = daemons[0]
            .wait_config(Duration::from_secs(10), |c| {
                c.nodes[&NodeId(1)].status == CfgNodeStatus::Dead
            })
            .unwrap();
        assert!(cfg.nodes.contains_key(&NodeId(1)));
        assert_eq!(cfg.up_nodes(), vec![NodeId(0)]);
    }
}
