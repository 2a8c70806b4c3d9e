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
//! daemon's own node id.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, TryRecvError};
use parking_lot::Mutex;

use starfish_checkpoint::backend::StoreHub;
use starfish_checkpoint::recovery::{self};
use starfish_ensemble::{EndpointConfig, GcEvent, HeartbeatAges, Stack, View};
use starfish_events::{ClusterEvent, EventBus, EventKind as BusEventKind, Postmortem};
use starfish_lwgroups::{LwEvent, LwMsg, LwRouter};
use starfish_telemetry::{metric, Registry};
use starfish_trace::{FlightRecorder, TraceHub};
use starfish_util::codec::{Decode, Encode};
use starfish_util::trace::{ActorKind, MsgClass, TraceSink};
use starfish_util::watch::ChangeCount;
use starfish_util::{AppId, Error, GroupId, NodeId, Rank, Result, VClock, VirtualTime};
use starfish_vni::{Fabric, KickSender};

use crate::config::{
    AppEntry, AppStatus, CfgEffect, CfgNodeStatus, CkptProto, ClusterConfig, FtPolicy,
};
use crate::forensics::Forensics;
use crate::host::{DownLink, NodeHost, ProcSpec};
use crate::msg::{AppRelay, CfgCmd, P2pMsg, ProcDown, ProcUp, WireCast};
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
    /// Disabled by default.
    pub recorder: FlightRecorder,
    /// The cluster's recorder registry. The daemon registers its own
    /// recorder here at start; the runtime host registers one per spawned
    /// process; the `TRACE` management commands read it.
    pub trace_hub: TraceHub,
    /// This daemon's cluster event bus. Enabled by default (events are
    /// control-plane volume; the bench pins publish cost at ns scale);
    /// pass [`EventBus::disabled`] to opt out entirely.
    pub events: EventBus,
}

impl DaemonConfig {
    pub fn new(node: NodeId) -> Self {
        DaemonConfig {
            node,
            arch_index: 0,
            trace: TraceSink::disabled(),
            ensemble: EndpointConfig::default(),
            metrics: None,
            recorder: FlightRecorder::disabled(),
            trace_hub: TraceHub::new(),
            events: EventBus::new(),
        }
    }
}

enum DaemonCmd {
    Issue(CfgCmd),
    /// Publish a locally observed cluster event (rides the ordered cast
    /// path so every daemon's bus assigns it the same sequence number).
    Emit(BusEventKind),
    Shutdown,
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
    store: StoreHub,
    events: EventBus,
    postmortems: Arc<Mutex<BTreeMap<AppId, Postmortem>>>,
    liveness: HeartbeatAges,
    /// The loop thread, until someone [`join`](Daemon::join)s it.
    thread: Arc<Mutex<Option<std::thread::JoinHandle<()>>>>,
}

impl Daemon {
    /// Start a daemon. `contact == None` founds the Starfish group (first
    /// daemon of the cluster); otherwise join via an existing member.
    ///
    /// `store` accepts either a bare [`CkptStore`] (lifted into a disk-only
    /// [`StoreHub`]) or a shared `StoreHub` carrying both the disk and the
    /// replica (peer-memory) checkpoint backends.
    pub fn start(
        fabric: &Fabric,
        cfg: DaemonConfig,
        contact: Option<NodeId>,
        host: Box<dyn NodeHost>,
        store: impl Into<StoreHub>,
    ) -> Result<Daemon> {
        let (daemon, node_loop) = Self::boot(fabric, cfg, contact, host, store.into())?;
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
        store: StoreHub,
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
        let events = cfg.events.clone();
        let postmortems = Arc::new(Mutex::new(BTreeMap::new()));
        let liveness = stack.liveness();
        let state = Loop {
            node,
            arch_index: cfg.arch_index,
            trace: cfg.trace,
            metrics: cfg.metrics,
            stats: stats.clone(),
            stack,
            router: LwRouter::new(node),
            config: ClusterConfig::new(),
            shared_cfg: shared_cfg.clone(),
            cfg_published: cfg_published.clone(),
            host,
            store: store.clone(),
            clock: VClock::new(),
            procs: HashMap::new(),
            up_tx,
            up_rx,
            cmd_rx,
            announced: false,
            // The founding daemon owns the (empty) initial state; joiners
            // must acquire it via state transfer first.
            bootstrapped: contact.is_none(),
            requested_state: false,
            cast_buffer: Vec::new(),
            events: events.clone(),
            forensics: Forensics::new(),
            postmortems: postmortems.clone(),
            trace_hub: trace_hub.clone(),
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
            events,
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
    pub fn trace_hub(&self) -> &TraceHub {
        &self.trace_hub
    }

    /// The checkpoint store hub this daemon reads recovery lines from (the
    /// `CKPT` management commands report through it).
    pub fn ckpt_store(&self) -> &StoreHub {
        &self.store
    }

    /// This daemon's cluster event bus (sequenced over the ordered cast
    /// path; the `EVENTS` management commands read it).
    pub fn events(&self) -> &EventBus {
        &self.events
    }

    /// Publish a locally observed cluster event (e.g. an injected fault).
    /// Rides the ordered cast path, so all daemons sequence it identically.
    pub fn publish_event(&self, kind: BusEventKind) -> Result<()> {
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
    pub fn postmortem_apps(&self) -> Vec<AppId> {
        self.postmortems.lock().keys().copied().collect()
    }

    /// Failure-detector liveness: `(peer, time since last heard)` per peer
    /// (the `HEALTH` management command's heartbeat-age column).
    pub fn heartbeat_ages(&self) -> Vec<(NodeId, Duration)> {
        self.liveness.ages()
    }

    /// Ask the daemon to leave the group and exit.
    pub fn shutdown(&self) {
        let _ = self.cmd_tx.send(DaemonCmd::Shutdown);
    }

    /// Wait for the daemon loop to exit — after [`shutdown`](Self::shutdown)
    /// or after its node was powered off at the fabric. The first caller
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

/// Directory recovery postmortem bundles are written to by the view
/// coordinator. `STARFISH_POSTMORTEM_DIR` overrides it (tests, CI).
pub fn postmortem_dir() -> PathBuf {
    match std::env::var_os("STARFISH_POSTMORTEM_DIR") {
        Some(d) => PathBuf::from(d),
        None => PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/postmortems"
        )),
    }
}

// ---------------------------------------------------------------------------

struct Loop {
    node: NodeId,
    arch_index: u8,
    trace: TraceSink,
    /// Shared infrastructure registry (see [`DaemonConfig::metrics`]).
    metrics: Option<Registry>,
    stats: StatsHub,
    stack: Stack,
    router: LwRouter,
    config: ClusterConfig,
    shared_cfg: Arc<Mutex<ClusterConfig>>,
    cfg_published: Arc<ChangeCount>,
    host: Box<dyn NodeHost>,
    store: StoreHub,
    clock: VClock,
    /// Local processes; `None` where the host started nothing to talk to.
    procs: HashMap<(AppId, Rank), Option<DownLink>>,
    up_tx: Arc<KickSender<(AppId, Rank, ProcUp)>>,
    up_rx: Receiver<(AppId, Rank, ProcUp)>,
    cmd_rx: Receiver<DaemonCmd>,
    /// Whether we have announced our own AddNode yet.
    announced: bool,
    /// Joiners start un-bootstrapped: they ignore configuration casts until
    /// the state-transfer snapshot arrives, buffering everything after their
    /// own `NeedState` marker (which fixes the snapshot's position in the
    /// total order).
    bootstrapped: bool,
    requested_state: bool,
    cast_buffer: Vec<CfgCmd>,
    /// Cluster event bus: all appends happen while applying the totally
    /// ordered stream (or are the stream), so every bootstrapped daemon
    /// assigns identical sequence numbers.
    events: EventBus,
    forensics: Forensics,
    postmortems: Arc<Mutex<BTreeMap<AppId, Postmortem>>>,
    /// Local flight recorders, for the postmortem causal slice.
    trace_hub: TraceHub,
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
        while let Ok((app, rank, up)) = self.up_rx.try_recv() {
            self.on_proc_up(app, rank, up);
        }
        loop {
            match self.cmd_rx.try_recv() {
                Ok(DaemonCmd::Issue(c)) => self.cast(WireCast::Cfg(c)),
                Ok(DaemonCmd::Emit(kind)) => self.cast_event(kind),
                Ok(DaemonCmd::Shutdown) | Err(TryRecvError::Disconnected) => {
                    self.leave();
                    return false;
                }
                Err(TryRecvError::Empty) => return true,
            }
        }
    }

    fn on_group_event(&mut self, ev: GcEvent) {
        match ev {
            GcEvent::View { view, vt } => {
                self.clock.merge(vt);
                self.on_view(view);
            }
            GcEvent::Cast {
                from, payload, vt, ..
            } => {
                self.clock.merge(vt);
                if let Ok(wc) = WireCast::decode_from_bytes(&payload) {
                    self.on_cast(from, wc, vt);
                }
            }
            GcEvent::Suspected {
                node,
                silent_for,
                vt,
            } => {
                self.clock.merge(vt);
                // Local failure-detector observation: cast it so the
                // suspicion (and its measured detection latency) lands on
                // every daemon's bus in the total order.
                self.cast_event(BusEventKind::NodeSuspected {
                    node,
                    silent_ns: silent_for.as_nanos() as u64,
                });
            }
            GcEvent::P2p { payload, vt, .. } => {
                self.clock.merge(vt);
                if let Ok(msg) = P2pMsg::decode_from_bytes(&payload) {
                    self.on_p2p(msg);
                }
            }
            GcEvent::Left => {} // the last one: `run` finds the stack done
        }
    }

    /// Leave the group and keep the stack going until it has (bounded: the
    /// peers may be leaving too).
    fn leave(&mut self) {
        self.stack.leave();
        let deadline = Instant::now() + Duration::from_secs(2);
        while !self.stack.done() && Instant::now() < deadline {
            let left = deadline.saturating_duration_since(Instant::now());
            self.stack.wait(left);
        }
    }

    fn cast(&mut self, wc: WireCast) {
        self.stack.cast(wc.encode_to_bytes(), self.clock.now());
    }

    /// Cast a locally observed cluster event (this daemon as origin, now).
    fn cast_event(&mut self, kind: BusEventKind) {
        self.cast(WireCast::Event {
            origin: self.node,
            vt: self.clock.now(),
            kind,
        });
    }

    fn publish_config(&self) {
        *self.shared_cfg.lock() = self.config.clone();
        self.cfg_published.bump();
    }

    // -- totally ordered casts --------------------------------------------------

    fn on_p2p(&mut self, msg: P2pMsg) {
        match msg {
            P2pMsg::Relay(relay) => self.deliver_targeted(relay),
            P2pMsg::State(bytes) => {
                if self.bootstrapped {
                    return; // duplicate snapshot
                }
                let Ok(cfg) = ClusterConfig::decode_from_bytes(&bytes) else {
                    return;
                };
                self.config = cfg;
                self.bootstrapped = true;
                self.publish_config();
                // Replay the casts that arrived after our snapshot point.
                let buffered = std::mem::take(&mut self.cast_buffer);
                for cmd in buffered {
                    let vt = self.clock.now();
                    self.on_cast(self.node, WireCast::Cfg(cmd), vt);
                }
                self.sync_lw_groups();
                self.announce();
            }
        }
    }

    /// Apply one totally ordered cast. `vt` is this daemon's delivery
    /// timestamp, used to stamp derived bus events: event *content and
    /// order* agree across daemons (they come from the total order), while
    /// timestamps are each daemon's own observation.
    fn on_cast(&mut self, from: NodeId, wc: WireCast, vt: VirtualTime) {
        match wc {
            WireCast::Cfg(cmd) => {
                if !self.bootstrapped {
                    match &cmd {
                        CfgCmd::NeedState { node } if *node == self.node => {
                            // Our snapshot point: buffer everything after it.
                            self.requested_state = true;
                        }
                        _ if self.requested_state => self.cast_buffer.push(cmd),
                        _ => {} // pre-snapshot traffic: covered by the snapshot
                    }
                    return;
                }
                // A bootstrapped member answers state-transfer requests if it
                // acts for the group.
                if let CfgCmd::NeedState { node } = &cmd {
                    if self.acts_for_group() && *node != self.node {
                        let snapshot = self.config.encode_to_bytes();
                        self.stack.send_to(
                            *node,
                            P2pMsg::State(snapshot).encode_to_bytes(),
                            self.clock.now(),
                        );
                    }
                    return;
                }
                // RestartApp: capture the dead set from the *pre-apply*
                // placement (the NodeDead casts precede the restart in the
                // total order, so the status map already knows them).
                let restart_dead = match &cmd {
                    CfgCmd::RestartApp { app, .. } => Some(self.dead_in_placement(*app)),
                    _ => None,
                };
                let effects = self.config.apply_from(from, &cmd);
                // Peer-memory checkpoint fragments hosted on a dead node are
                // gone; the replica store must stop counting them before any
                // recovery-line computation below this point of the total
                // order. Re-added nodes rejoin the placement ring (their old
                // fragments do not resurrect — see ReplicaStore::node_up).
                // Only a self-announced AddNode joins the ring: a bare admin
                // ADDNODE has no daemon to hold fragments.
                match &cmd {
                    CfgCmd::NodeDead { node } => self.store.node_down(*node),
                    CfgCmd::AddNode { node, .. } if *node == from => self.store.node_up(*node),
                    _ => {}
                }
                // NotifyView bookkeeping: when a node is recorded dead, ranks
                // of notify-policy apps on it are lost for good.
                if let CfgCmd::NodeDead { node } = &cmd {
                    for app in self.config.apps.values() {
                        if app.spec.policy == FtPolicy::NotifyView
                            && matches!(app.status, AppStatus::Running | AppStatus::Suspended)
                        {
                            for (r, n) in app.placement.iter().enumerate() {
                                if n == node {
                                    self.host.rank_lost(app.id, Rank(r as u32));
                                }
                            }
                        }
                    }
                }
                self.derive_events(from, &cmd, restart_dead, &effects, vt);
                for eff in effects {
                    self.on_effect(eff);
                }
                self.sync_lw_groups();
                // Published last: whoever `wait_config` wakes on this
                // command also finds this daemon's response to it done —
                // bus events appended, store policy set, local ranks
                // spawned or signalled.
                self.publish_config();
            }
            WireCast::Lw(lw) => {
                if !self.bootstrapped {
                    return; // no local processes yet; state derives from config
                }
                let events = self.router.on_cast(from, &lw, self.clock.now());
                self.deliver_lw_events(events);
            }
            WireCast::Stats { scope, snap } => {
                // Cumulative snapshot: total order makes every hub converge
                // on the same latest-per-scope table.
                self.stats.update(&scope, snap);
                // Timestamped history ring: rates/deltas stay queryable
                // after the fact (`STATS HISTORY`).
                self.stats.record_history(vt);
            }
            WireCast::Event {
                origin,
                vt: event_vt,
                kind,
            } => {
                // Cast-carried event (a local observation some daemon
                // published): every bootstrapped bus appends it at this
                // stream point with the publisher's origin and timestamp.
                if self.bootstrapped {
                    self.record_event(origin, event_vt, kind);
                }
            }
        }
    }

    /// Nodes of `app`'s current placement that the replicated configuration
    /// has recorded dead (or forgotten entirely).
    fn dead_in_placement(&self, app: AppId) -> Vec<NodeId> {
        let Some(entry) = self.config.apps.get(&app) else {
            return Vec::new();
        };
        let mut dead: Vec<NodeId> = entry
            .placement
            .iter()
            .filter(|n| {
                self.config
                    .nodes
                    .get(n)
                    .map(|e| e.status == CfgNodeStatus::Dead)
                    .unwrap_or(true)
            })
            .copied()
            .collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// Bus events derivable from the ordered configuration stream itself:
    /// appended directly (no extra casts) at the same stream point on every
    /// bootstrapped daemon, stamped with the cast's local delivery `vt`
    /// and the cast sender as origin — so all buses tell the same story
    /// in the same order (timestamps and seqs are per-daemon).
    fn derive_events(
        &mut self,
        from: NodeId,
        cmd: &CfgCmd,
        restart_dead: Option<Vec<NodeId>>,
        effects: &[CfgEffect],
        vt: VirtualTime,
    ) {
        match cmd {
            // Only a self-announced AddNode proves a live daemon (the
            // phantom-node rule); a bare admin registration is not "up".
            CfgCmd::AddNode { node, .. } if *node == from => {
                self.record_event(from, vt, BusEventKind::NodeUp { node: *node });
            }
            CfgCmd::NodeDead { node } => {
                self.record_event(from, vt, BusEventKind::NodeDead { node: *node });
            }
            CfgCmd::TriggerCkpt { app } => {
                self.record_event(from, vt, BusEventKind::CkptRoundBegin { app: *app });
            }
            CfgCmd::RestartApp { app, line } => {
                let dead = restart_dead.unwrap_or_default();
                self.record_event(from, vt, BusEventKind::RecoveryBegin { app: *app, dead });
                let epoch = self
                    .config
                    .apps
                    .get(app)
                    .map(|a| a.epoch)
                    .unwrap_or_default();
                self.record_event(
                    from,
                    vt,
                    BusEventKind::RecoveryRestore {
                        app: *app,
                        epoch,
                        line: line.clone(),
                    },
                );
                let replaced_n = effects
                    .iter()
                    .find_map(|e| match e {
                        CfgEffect::AppRestarted {
                            app: a, replaced, ..
                        } if a == app => Some(replaced.len()),
                        _ => None,
                    })
                    .unwrap_or(0);
                self.forensics.expect_respawns(*app, replaced_n);
                if replaced_n == 0 {
                    // Pure rollback, no replacement ranks: complete at once.
                    self.record_event(
                        from,
                        vt,
                        BusEventKind::RecoveryComplete { app: *app, epoch },
                    );
                    self.finalize_postmortem(*app, vt);
                }
            }
            _ => {}
        }
    }

    /// Append a bus event at the current point of the ordered stream and
    /// run the forensics state machine over it. When the event completes a
    /// recovery, synthesizes the `recovery-complete` event (every daemon
    /// does so at the same stream point) and finalizes the bundle.
    fn record_event(&mut self, origin: NodeId, vt: VirtualTime, kind: BusEventKind) {
        let Some(seq) = self.events.publish(origin, vt, kind.clone()) else {
            return;
        };
        if let Some(m) = &self.metrics {
            m.inc(metric::EVENTS_PUBLISHED);
        }
        let ev = ClusterEvent {
            seq,
            vt,
            origin,
            kind,
        };
        let stats = self.stats.clone();
        let completed = self.forensics.observe(&ev, move || stats.merged());
        if let Some(app) = completed {
            let epoch = self
                .config
                .apps
                .get(&app)
                .map(|a| a.epoch)
                .unwrap_or_default();
            self.record_event(origin, vt, BusEventKind::RecoveryComplete { app, epoch });
            self.finalize_postmortem(app, vt);
        }
    }

    /// Assemble the recovery bundle of `app`, store it for `POSTMORTEM`,
    /// and (coordinator only) write it to [`postmortem_dir`].
    fn finalize_postmortem(&mut self, app: AppId, complete_vt: VirtualTime) {
        let start_vt = self.forensics.window_start_vt(app).unwrap_or(0);
        let window: Vec<ClusterEvent> = self
            .events
            .snapshot()
            .into_iter()
            .filter(|e| e.vt.as_nanos() >= start_vt && e.vt.as_nanos() <= complete_vt.as_nanos())
            .collect();
        let name = format!("{app}");
        let backend = self
            .config
            .apps
            .get(&app)
            .map(|a| a.spec.backend.to_string())
            .unwrap_or_else(|| "disk".into());
        let trace = self.trace_slice(start_vt, complete_vt.as_nanos());
        let stats_after = self.stats.merged();
        let Some(pm) = self.forensics.finalize(
            app,
            crate::forensics::BundleInputs {
                app_name: &name,
                store_backend: &backend,
                complete_vt_ns: complete_vt.as_nanos(),
                events: window,
                stats_after: &stats_after,
                trace,
            },
        ) else {
            return;
        };
        if self.acts_for_group() {
            let dir = postmortem_dir();
            if std::fs::create_dir_all(&dir).is_ok() {
                let path = dir.join(format!("{}-e{}.json", name, pm.epoch));
                let _ = std::fs::write(path, pm.to_json());
            }
        }
        self.postmortems.lock().insert(app, pm);
    }

    /// Flight-recorder summaries inside the recovery window, for the
    /// bundle's causal slice. Bounded; local to this daemon's recorders.
    fn trace_slice(&self, from_ns: u64, to_ns: u64) -> Vec<String> {
        const MAX: usize = 256;
        let mut out = Vec::new();
        for pt in self.trace_hub.dump_all() {
            for ev in &pt.events {
                let t = ev.vt.as_nanos();
                if t >= from_ns && t <= to_ns {
                    out.push(format!("{}: {}", pt.scope, ev.summary()));
                    if out.len() >= MAX {
                        return out;
                    }
                }
            }
        }
        out
    }

    fn on_effect(&mut self, eff: CfgEffect) {
        match eff {
            CfgEffect::AppSubmitted(id) => {
                let entry = self.config.apps[&id].clone();
                if std::env::var_os("STARFISH_RT_DEBUG").is_some() {
                    eprintln!(
                        "[daemon {}] AppSubmitted {} placement={:?}",
                        self.node, id, entry.placement
                    );
                }
                self.store
                    .set_backend(id, entry.spec.backend, entry.placement.clone());
                self.host.placement_update(&entry);
                for (r, n) in entry.placement.iter().enumerate() {
                    if *n == self.node {
                        self.spawn_proc(&entry, Rank(r as u32), 0);
                    }
                }
            }
            CfgEffect::AppRestarted {
                app,
                epoch: _,
                line,
                replaced,
            } => {
                let entry = self.config.apps[&app].clone();
                self.store.update_placement(app, entry.placement.clone());
                self.host.placement_update(&entry);
                // Restart replaced ranks that land on this node; if a
                // replaced rank's *previous* incarnation ran here (a
                // migration, not a crash), kill it first.
                for (rank, node) in &replaced {
                    if *node != self.node && self.procs.contains_key(&(app, *rank)) {
                        let vt = self.clock.now();
                        self.send_down(app, *rank, ProcDown::Kill { vt }, MsgClass::Configuration);
                        self.procs.remove(&(app, *rank));
                        self.procs_delta(-1);
                    }
                }
                for (rank, node) in &replaced {
                    if *node == self.node {
                        let from = line.get(rank.index()).copied().unwrap_or(0);
                        self.spawn_proc(&entry, *rank, from);
                        // Observation, not derivation: only the hosting
                        // daemon knows the spawn happened, so it casts the
                        // respawn event into the total order.
                        self.cast_event(BusEventKind::RecoveryRespawn {
                            app,
                            rank: *rank,
                            node: *node,
                        });
                    }
                }
                // Roll back the survivors hosted here. A survivor whose
                // process already ran to completion has no one listening
                // for the rollback — and the restarted rank's coordinated
                // rounds and collectives span *every* rank — so finished
                // survivors are respawned from the line instead.
                let replaced_ranks: Vec<Rank> = replaced.iter().map(|(r, _)| *r).collect();
                for (r, n) in entry.placement.iter().enumerate() {
                    let rank = Rank(r as u32);
                    if *n == self.node && !replaced_ranks.contains(&rank) {
                        let idx = line.get(r).copied().unwrap_or(0);
                        if self.procs.contains_key(&(app, rank)) {
                            self.send_down(
                                app,
                                rank,
                                ProcDown::Rollback {
                                    index: idx,
                                    epoch: entry.epoch,
                                    vt: self.clock.now(),
                                },
                                MsgClass::Configuration,
                            );
                        } else {
                            self.spawn_proc(&entry, rank, idx);
                        }
                    }
                }
            }
            CfgEffect::AppKilled(app) => {
                self.down_all(app, MsgClass::Configuration, |vt| ProcDown::Kill { vt });
                self.forget_procs(app);
            }
            CfgEffect::AppSuspended(app) => {
                self.down_all(app, MsgClass::Configuration, |vt| ProcDown::Suspend { vt })
            }
            CfgEffect::AppResumed(app) => {
                self.down_all(app, MsgClass::Configuration, |vt| ProcDown::Resume { vt })
            }
            // Images are retained after completion (postmortem restore /
            // migration of finished jobs); storage is reclaimed when the
            // application is deleted.
            CfgEffect::AppDone(app) => self.forget_procs(app),
            CfgEffect::CheckpointRequested(app) => {
                // The round coordinator is the lowest rank; its hosting
                // daemon forwards the trigger.
                if let Some(entry) = self.config.apps.get(&app) {
                    if entry.placement.first() == Some(&self.node) {
                        self.send_down(
                            app,
                            Rank(0),
                            ProcDown::StartCheckpoint {
                                vt: self.clock.now(),
                            },
                            MsgClass::Configuration,
                        );
                    }
                }
            }
            CfgEffect::ParamSet(key) => {
                if key == "stats_history" {
                    if let Some(n) = self
                        .config
                        .params
                        .get("stats_history")
                        .and_then(|v| v.parse::<usize>().ok())
                    {
                        self.stats.set_retention(n);
                    }
                }
            }
            CfgEffect::NodeChanged(_) => {}
        }
    }

    fn spawn_proc(&mut self, entry: &AppEntry, rank: Rank, restore_from: u64) {
        if std::env::var_os("STARFISH_RT_DEBUG").is_some() {
            eprintln!(
                "[daemon {}] spawn {}.{} restore_from={restore_from} (replacing_entry={})",
                self.node,
                entry.id,
                rank,
                self.procs.contains_key(&(entry.id, rank))
            );
        }
        let link = self.host.spawn(ProcSpec {
            app: entry.id,
            rank,
            node: self.node,
            epoch: entry.epoch,
            entry: entry.clone(),
            restore_from,
            up_tx: self.up_tx.clone(),
            spawn_vt: self.clock.now(),
        });
        if self.procs.insert((entry.id, rank), link).is_none() {
            self.procs_delta(1);
        }
    }

    /// Keep the cluster-wide `procs.running` gauge in step with this
    /// daemon's local process table (additive deltas, so daemons sharing a
    /// registry in-process still sum correctly).
    fn procs_delta(&self, delta: i64) {
        if delta != 0 {
            if let Some(m) = &self.metrics {
                m.gauge_add(metric::PROCS_RUNNING, delta);
            }
        }
    }

    fn send_down(&self, app: AppId, rank: Rank, msg: ProcDown, class: MsgClass) {
        if let Some(link) = self.procs.get(&(app, rank)) {
            self.trace.record(
                class,
                ActorKind::Daemon,
                ActorKind::AppProcess,
                "local-tcp",
                0,
            );
            if let Some(link) = link {
                link.send(msg);
            }
        }
    }

    /// `make(now)` down to every local rank of `app`.
    fn down_all(&self, app: AppId, class: MsgClass, make: impl Fn(VirtualTime) -> ProcDown) {
        for (a, rank) in self.procs.keys().filter(|(a, _)| *a == app) {
            self.send_down(*a, *rank, make(self.clock.now()), class);
        }
    }

    /// Drop the links to `app`'s local ranks (which wakes any still there).
    fn forget_procs(&mut self, app: AppId) {
        let before = self.procs.len();
        self.procs.retain(|(a, _), _| *a != app);
        self.procs_delta(before as i64 - self.procs.len() as i64);
    }

    // -- lightweight groups -------------------------------------------------------

    /// Derive the lightweight groups from the replicated configuration. All
    /// daemons run this at the same point of the total order, so the
    /// synthesized operations are identical everywhere.
    fn sync_lw_groups(&mut self) {
        let vt = self.clock.now();
        let mut events = Vec::new();
        // Desired groups.
        let desired: Vec<(GroupId, Vec<NodeId>)> = self
            .config
            .apps
            .values()
            .filter(|a| matches!(a.status, AppStatus::Running | AppStatus::Suspended))
            .map(|a| {
                let mut nodes = a.placement.clone();
                nodes.sort_unstable();
                nodes.dedup();
                (GroupId(a.id.0), nodes)
            })
            .collect();
        for (gid, nodes) in &desired {
            match self.router.members(*gid) {
                None => {
                    events.extend(self.router.on_cast(
                        self.node,
                        &LwMsg::Create {
                            gid: *gid,
                            members: nodes.clone(),
                        },
                        vt,
                    ));
                }
                Some(current) => {
                    for n in nodes {
                        if !current.contains(n) {
                            events.extend(self.router.on_cast(
                                self.node,
                                &LwMsg::Join {
                                    gid: *gid,
                                    node: *n,
                                },
                                vt,
                            ));
                        }
                    }
                    for n in &current {
                        if !nodes.contains(n) {
                            events.extend(self.router.on_cast(
                                self.node,
                                &LwMsg::Leave {
                                    gid: *gid,
                                    node: *n,
                                },
                                vt,
                            ));
                        }
                    }
                }
            }
        }
        // Destroy groups of dead apps.
        let live: Vec<GroupId> = desired.iter().map(|(g, _)| *g).collect();
        let stale: Vec<GroupId> = self
            .router
            .groups_spanning(self.node)
            .into_iter()
            .chain(self.router.local_groups())
            .filter(|g| !live.contains(g))
            .collect();
        for gid in stale {
            events.extend(self.router.on_cast(self.node, &LwMsg::Destroy { gid }, vt));
        }
        self.deliver_lw_events(events);
    }

    fn deliver_lw_events(&mut self, events: Vec<LwEvent>) {
        for ev in events {
            match ev {
                LwEvent::View { view, vt } => {
                    let down = |_| ProcDown::LwView {
                        view: view.clone(),
                        vt,
                    };
                    self.down_all(AppId(view.gid.0), MsgClass::LwMembership, down);
                }
                LwEvent::Mcast {
                    gid: _,
                    from: _,
                    payload,
                    vt,
                } => {
                    if let Ok(relay) = AppRelay::decode_from_bytes(&payload) {
                        match relay.to {
                            Some(to) => self.deliver_targeted_at(relay, to, vt),
                            None => {
                                let others =
                                    |(a, r): &&(AppId, Rank)| *a == relay.app && *r != relay.from;
                                for (_, to) in self.procs.keys().filter(others) {
                                    self.deliver_targeted_at(relay.clone(), *to, vt);
                                }
                            }
                        }
                    }
                }
                LwEvent::Destroyed { .. } => {}
            }
        }
    }

    fn deliver_targeted(&self, relay: AppRelay) {
        if let Some(to) = relay.to {
            let vt = self.clock.now();
            self.deliver_targeted_at(relay, to, vt);
        }
    }

    fn deliver_targeted_at(&self, relay: AppRelay, to: Rank, vt: VirtualTime) {
        self.send_down(
            relay.app,
            to,
            ProcDown::Relay {
                kind: relay.kind,
                from: relay.from,
                body: relay.body,
                vt,
            },
            relay.kind.class(),
        );
    }

    // -- membership ----------------------------------------------------------------

    /// Whether this daemon is the one that acts for the group — answers
    /// `NeedState`, casts the failure response, writes the postmortem file:
    /// the smallest view member the replicated configuration knows as
    /// live, else the view's smallest member (the founder, before anyone
    /// has announced). Not simply the view coordinator: a rejoining daemon
    /// with the smallest id coordinates the view before it is bootstrapped.
    /// Every bootstrapped daemon evaluates this on the same configuration
    /// at the same point of the cast stream.
    fn acts_for_group(&self) -> bool {
        let Some(view) = self.stack.view().filter(|_| self.bootstrapped) else {
            return false;
        };
        let acting = view.members.iter().find(|m| self.config.is_live(**m));
        *acting.unwrap_or(&view.coordinator()) == self.node
    }

    /// Announce ourselves on the cast stream, once, when bootstrapped. A
    /// restarted daemon finds its node already in the replicated config but
    /// marked Dead, and a bare admin ADDNODE that raced our boot leaves it
    /// Up but unannounced: only an `AddNode` cast from the node itself marks
    /// it live, so both still announce.
    fn announce(&mut self) {
        if std::mem::replace(&mut self.announced, true) {
            return;
        }
        if !self.config.is_live(self.node) {
            self.cast(WireCast::Cfg(CfgCmd::AddNode {
                node: self.node,
                arch_index: self.arch_index,
            }));
        }
    }

    fn on_view(&mut self, view: View) {
        if std::env::var_os("STARFISH_RT_DEBUG").is_some() {
            eprintln!(
                "[daemon {}] view {:?} (coord {})",
                self.node,
                view,
                view.coordinator()
            );
        }
        if view.contains(self.node) {
            if self.bootstrapped {
                self.announce(); // founder, or already synced
            } else if !self.requested_state {
                // Joiner: mark our snapshot point in the total order.
                self.cast(WireCast::Cfg(CfgCmd::NeedState { node: self.node }));
                // `requested_state` flips when our own marker is delivered.
            }
        }
        // Lightweight views for groups spanning departed nodes.
        let events = self.router.on_main_view(&view, self.clock.now());
        self.deliver_lw_events(events);

        // One daemon drives the failure response; everyone else just
        // applies the resulting casts.
        if !self.acts_for_group() {
            return;
        }
        // One view-change event per installed view, cast by the coordinator
        // so it lands in the total order ahead of any NodeDead response.
        self.cast_event(BusEventKind::ViewChange {
            view: view.id.raw(),
            members: view.members.clone(),
        });
        let dead: Vec<NodeId> = self
            .config
            .nodes
            .iter()
            .filter(|(n, e)| {
                matches!(e.status, CfgNodeStatus::Up | CfgNodeStatus::Disabled)
                    && !view.contains(**n)
            })
            .map(|(n, _)| *n)
            .collect();
        if dead.is_empty() {
            return;
        }
        if std::env::var_os("STARFISH_RT_DEBUG").is_some() {
            eprintln!("[daemon {}] coordinator response: dead={dead:?}", self.node);
        }
        for n in &dead {
            self.cast(WireCast::Cfg(CfgCmd::NodeDead { node: *n }));
        }
        // Policy response per affected application. Note: we compute from
        // the *current* local config (the casts above will be applied by
        // everyone, including us, in order).
        let apps: Vec<AppEntry> = self
            .config
            .apps
            .values()
            .filter(|a| matches!(a.status, AppStatus::Running | AppStatus::Suspended))
            .filter(|a| a.placement.iter().any(|n| dead.contains(n)))
            .cloned()
            .collect();
        for app in apps {
            match app.spec.policy {
                FtPolicy::Kill => {
                    self.cast(WireCast::Cfg(CfgCmd::Delete { app: app.id }));
                }
                FtPolicy::NotifyView => {
                    // Nothing to cast: the lightweight view (delivered above
                    // on every daemon) is the application's signal.
                }
                FtPolicy::Restart => {
                    let line = self.compute_line(&app, &dead);
                    self.cast(WireCast::Cfg(CfgCmd::RestartApp { app: app.id, line }));
                }
            }
        }
    }

    /// Recovery line for a restart decision (carried in the cast so all
    /// daemons — whose store reads might race — agree by construction).
    fn compute_line(&self, app: &AppEntry, dead: &[NodeId]) -> Vec<u64> {
        let ranks: Vec<Rank> = (0..app.spec.size).map(Rank).collect();
        match app.spec.proto {
            CkptProto::StopAndSync | CkptProto::ChandyLamport => {
                let idx = self.store.latest_common_index(app.id, &ranks);
                vec![idx; ranks.len()]
            }
            CkptProto::Independent => {
                let latest: std::collections::BTreeMap<Rank, u64> = ranks
                    .iter()
                    .map(|r| (*r, self.store.latest_index(app.id, *r)))
                    .collect();
                let deps = self.store.deps(app.id);
                let failed: Vec<Rank> = app
                    .placement
                    .iter()
                    .enumerate()
                    .filter(|(_, n)| dead.contains(n))
                    .map(|(r, _)| Rank(r as u32))
                    .collect();
                let rl = recovery::recovery_line(&latest, &deps, &failed);
                ranks.iter().map(|r| rl.index_of(*r)).collect()
            }
        }
    }

    // -- process messages -------------------------------------------------------------

    fn on_proc_up(&mut self, app: AppId, rank: Rank, up: ProcUp) {
        match up {
            ProcUp::Cast { kind, body, vt } => {
                self.clock.merge(vt);
                self.trace.record(
                    kind.class(),
                    ActorKind::AppProcess,
                    ActorKind::Daemon,
                    "via-daemon",
                    body.len(),
                );
                let relay = AppRelay {
                    app,
                    kind,
                    from: rank,
                    to: None,
                    body,
                };
                self.cast(WireCast::Lw(LwMsg::Mcast {
                    gid: GroupId(app.0),
                    payload: relay.encode_to_bytes(),
                }));
            }
            ProcUp::SendTo { kind, to, body, vt } => {
                self.clock.merge(vt);
                let relay = AppRelay {
                    app,
                    kind,
                    from: rank,
                    to: Some(to),
                    body,
                };
                let Some(entry) = self.config.apps.get(&app) else {
                    return;
                };
                let Some(target_node) = entry.placement.get(to.index()).copied() else {
                    return;
                };
                if target_node == self.node {
                    self.deliver_targeted(relay);
                } else {
                    self.stack.send_to(
                        target_node,
                        P2pMsg::Relay(relay).encode_to_bytes(),
                        self.clock.now(),
                    );
                }
            }
            ProcUp::Done { vt } => {
                self.clock.merge(vt);
                if std::env::var_os("STARFISH_RT_DEBUG").is_some() {
                    eprintln!("[daemon {}] Done from {app}.{rank}", self.node);
                }
                if self.procs.remove(&(app, rank)).is_some() {
                    self.procs_delta(-1);
                }
                self.cast(WireCast::Cfg(CfgCmd::RankDone { app, rank }));
            }
            ProcUp::CkptCommitted { index, vt } => {
                self.clock.merge(vt);
                self.cast_event(BusEventKind::CkptCommit { app, rank, index });
                if index > 1 {
                    self.store.prune_below(app, index);
                }
            }
            ProcUp::Stats { snap, vt } => {
                self.clock.merge(vt);
                let scope = format!("{app}.r{}", rank.0);
                self.cast(WireCast::Stats { scope, snap });
                // Piggyback the shared infrastructure registry so `STATS`
                // reflects fabric/trace/ensemble activity too. The scope is
                // a single well-known key, so re-casts replace, not double.
                if let Some(m) = &self.metrics {
                    self.cast(WireCast::Stats {
                        scope: "cluster".to_string(),
                        snap: m.snapshot(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AppSpec, LevelKind};
    use crate::host::NullHost;
    use starfish_checkpoint::backend::CkptBackend;
    use starfish_checkpoint::store::CkptStore;
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
        let f = fabric(1);
        let boot = DaemonConfig::new(NodeId(0));
        let (d, mut node) =
            Daemon::boot(&f, boot, None, Box::new(NullHost), StoreHub::new()).unwrap();
        let set = |key: &str| {
            let (key, value) = (key.to_string(), "1".to_string());
            d.issue(CfgCmd::SetParam { key, value }).unwrap();
        };
        // Boot: the founder's view, then its own announcement coming back.
        assert!(node.pass() && node.pass());
        assert_eq!(d.config().up_nodes(), vec![NodeId(0)]);
        assert_eq!(f.queued_packets(), 0);
        // Idle, so "a" is served by the pass its kick wakes, and its cast
        // is now a packet waiting at our own port ...
        set("a");
        assert!(node.pass());
        assert_eq!(f.queued_packets(), 1);
        // ... which is what ends the wait of the next pass. "b", queued
        // behind it, is cast by that same pass.
        set("b");
        assert!(node.pass());
        assert!(d.config().params.contains_key("a"));
        assert!(node.cmd_rx.is_empty(), "left for the next wake-up");
        assert_eq!(f.queued_packets(), 1);
        assert!(node.pass());
        assert!(d.config().params.contains_key("b"));
    }

    #[test]
    fn daemon_shutdown_leaves_group() {
        let f = fabric(2);
        let (daemons, _) = start_cluster(&f, 2);
        daemons[1].shutdown();
        daemons[1].join();
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
