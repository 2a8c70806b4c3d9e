//! The application-process runtime (paper §2.2, figure 1).
//!
//! One [`ProcessRuntime`] hosts one MPI rank. Its five modules are:
//!
//! * the **application part** — the user closure, executed on this thread;
//! * the **MPI module** — [`starfish_mpi::MpiEndpoint`], reached through the
//!   *fast data path* (direct calls, no bus dispatch);
//! * the **VNI** — inside the MPI endpoint (port + polling thread);
//! * the **group handler** — the `ProcDown` queue from the daemon, drained
//!   at every service point and turned into object-bus events (no thread:
//!   the daemon's [`DownLink`](starfish_daemon::DownLink) queues, then
//!   kicks the rank's wait point);
//! * the **C/R module** — `CrModule`, the protocol engines plus image
//!   capture/restore.
//!
//! The runtime's *scheduler* is cooperative: non-data events are processed
//! at **service points** — every blocking receive slice and every explicit
//! [`Ctx::safepoint`](crate::Ctx::safepoint). Checkpoints are taken only at
//! safepoints (with the registered state in hand), mirroring VM-safepoint
//! checkpointing; the runtime documentation of `Ctx` spells out the
//! programming-model contract (iteration-structured programs call
//! `safepoint` once per iteration).
//!
//! ## Restart semantics
//!
//! A rollback (local decision or daemon-ordered) makes every context call
//! return [`Error::Interrupted`]; the application propagates it out of its
//! `run` function, and the runtime re-enters `run` with
//! [`Ctx::restored`](crate::Ctx::restored) populated from the recovery-line
//! image (state + channel contents + collective sequence number). Stale
//! messages from the rolled-back execution are discarded by the epoch filter
//! in the MPI layer.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Receiver};
use parking_lot::{Condvar, Mutex};

use starfish_checkpoint::backend::{CkptBackend, StoreHub};
use starfish_checkpoint::image::{ChannelMsg, CkptImage, CkptLevel};
use starfish_checkpoint::proto::chandy_lamport::{ChandyLamport, ClPhase};
use starfish_checkpoint::proto::independent::Independent;
use starfish_checkpoint::proto::stop_and_sync::StopAndSync;
use starfish_checkpoint::proto::{CrEffect, CrMsg, SyncCostModel};
use starfish_checkpoint::{Arch, CkptValue, DiskModel};
use starfish_daemon::config::AppEntry;
use starfish_daemon::{CkptProto, LevelKind, ProcDown, ProcUp, RelayKind};
use starfish_mpi::wire::MsgHeader;
use starfish_mpi::{Comm, MpiEndpoint};
use starfish_telemetry::{metric, Registry};
use starfish_util::codec::{Decode, Encode};
use starfish_util::{AppId, Error, NodeId, Rank, Result, VClock, VirtualTime};
use starfish_vni::KickSender;

use crate::bus::{Bus, BusEvent, BUS_EVENT_COST};
use crate::state::Checkpointable;

/// Throughput of representation conversion on restore (byte-swapping /
/// word-resizing a heap image on the era's hardware).
pub const CONVERT_BW: f64 = 25.0e6;

type OutputMap = HashMap<(AppId, Rank), Vec<CkptValue>>;

/// Per-process published results, visible to the cluster owner (tests,
/// examples, benches read these).
#[derive(Clone, Default)]
pub struct Outputs {
    inner: Arc<(Mutex<OutputMap>, Condvar)>,
}

impl Outputs {
    pub fn new() -> Self {
        Outputs::default()
    }

    pub fn publish(&self, app: AppId, rank: Rank, v: CkptValue) {
        self.inner.0.lock().entry((app, rank)).or_default().push(v);
        self.inner.1.notify_all();
    }

    pub fn get(&self, app: AppId, rank: Rank) -> Vec<CkptValue> {
        self.inner
            .0
            .lock()
            .get(&(app, rank))
            .cloned()
            .unwrap_or_default()
    }

    pub fn count(&self, app: AppId, rank: Rank) -> usize {
        self.inner
            .0
            .lock()
            .get(&(app, rank))
            .map(|v| v.len())
            .unwrap_or(0)
    }

    /// Wait (real time) until `rank` has published at least `n` values;
    /// woken by each [`publish`](Self::publish).
    pub fn wait_count(
        &self,
        app: AppId,
        rank: Rank,
        n: usize,
        timeout: Duration,
    ) -> Result<Vec<CkptValue>> {
        let deadline = Instant::now() + timeout;
        let mut g = self.inner.0.lock();
        loop {
            let have = g.get(&(app, rank)).map(|v| v.len()).unwrap_or(0);
            if have >= n {
                return Ok(g.get(&(app, rank)).cloned().unwrap_or_default());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(Error::timeout(format!(
                    "outputs of {app}.{rank}: have {have}, want {n}"
                )));
            }
            self.inner.1.wait_for(&mut g, left);
        }
    }
}

/// The checkpoint/restart module of one process.
pub(crate) struct CrModule {
    pub engine: CrEngine,
    /// Stop-and-sync: application held at its service point.
    pub stopped: bool,
    /// Chandy–Lamport: state snapshot waiting for the remaining markers.
    pub pending_cl: Option<PendingCl>,
    /// Highest checkpoint index written locally.
    pub last_index: u64,
    /// Rounds committed (coordinator only).
    pub committed: u64,
}

pub(crate) enum CrEngine {
    Sync(StopAndSync),
    Cl(ChandyLamport),
    Indep(Independent),
}

pub(crate) struct PendingCl {
    pub index: u64,
    pub state: CkptValue,
    pub taken_at: VirtualTime,
}

impl CrModule {
    fn new(proto: CkptProto, me: Rank, size: u32, start_index: u64) -> Self {
        let ranks: Vec<Rank> = (0..size).map(Rank).collect();
        let engine = match proto {
            CkptProto::StopAndSync => CrEngine::Sync(StopAndSync::new(me, ranks)),
            CkptProto::ChandyLamport => CrEngine::Cl(ChandyLamport::new(me, ranks)),
            CkptProto::Independent => {
                let mut e = Independent::new(me);
                e.rollback_to(start_index);
                CrEngine::Indep(e)
            }
        };
        CrModule {
            engine,
            stopped: false,
            pending_cl: None,
            last_index: start_index,
            committed: 0,
        }
    }
}

/// One application process (runs on its own OS thread).
pub struct ProcessRuntime {
    pub(crate) app: AppId,
    pub(crate) rank: Rank,
    pub(crate) size: u32,
    pub(crate) node: NodeId,
    pub(crate) arch: Arch,
    pub(crate) entry: AppEntry,
    pub(crate) mpi: MpiEndpoint,
    pub(crate) comm: Comm,
    pub(crate) clock: VClock,
    pub(crate) down_rx: Receiver<ProcDown>,
    pub(crate) up_tx: Arc<KickSender<(AppId, Rank, ProcUp)>>,
    pub(crate) store: StoreHub,
    pub(crate) outputs: Outputs,
    pub(crate) bus: Bus,
    pub(crate) cr: CrModule,
    pub(crate) disk: DiskModel,
    pub(crate) abort_flag: Arc<AtomicBool>,

    pub(crate) restored: Option<CkptValue>,
    pub(crate) restart_to: Option<u64>,
    /// Epoch ordered with a pending rollback (applied at load_checkpoint).
    pub(crate) pending_epoch: Option<starfish_util::Epoch>,
    pub(crate) suspended: bool,
    pub(crate) killed: bool,
    /// `(state, coll_seq)` cached at the last safepoint. When a checkpoint
    /// must be taken while the application is blocked in a communication
    /// call (no live state in hand), this pair is captured instead, together
    /// with the [`consumed_log`](Self::consumed_log): the restored process
    /// rewinds to the safepoint and replays exactly the messages the
    /// abandoned execution had consumed, so the cut stays consistent.
    pub(crate) cached_state: Option<(CkptValue, u64)>,
    /// Every data message consumed since the last safepoint (message log
    /// backing the cached-state capture; cleared at each safepoint).
    pub(crate) consumed_log: Vec<(MsgHeader, Bytes)>,
    /// Servicing from inside a blocking receive (`service_in_recv`).
    in_recv: bool,
    /// A stop-and-sync capture that came due inside a blocking receive, put
    /// off until that receive completes or would block again: its index.
    pub(crate) deferred_capture: Option<u64>,

    /// Ablation: route data-message delivery through the object bus,
    /// charging [`BUS_EVENT_COST`] per message (what the fast path avoids).
    pub(crate) bus_data_path: bool,
    /// Independent checkpointing: auto-checkpoint every N safepoints.
    pub(crate) indep_every: Option<u64>,
    pub(crate) safepoint_count: u64,
    /// C/R data-path marks whose destination port was not bound yet (peer
    /// mid-restart); retried at every service point with their original
    /// virtual send time.
    pub(crate) pending_marks: Vec<(Rank, Bytes, VirtualTime)>,

    /// This process's telemetry registry (also installed in the MPI
    /// endpoint); snapshots flush to the daemon at round commits,
    /// restores, and completion.
    pub(crate) metrics: Registry,
    /// Virtual time this incarnation's current checkpoint round began
    /// (set at local capture, cleared at commit/resume).
    pub(crate) round_started: Option<VirtualTime>,
    /// Forensic baselines: `(vt, consumed-message count)` at each committed
    /// checkpoint index. A rollback to index `i` is measured against these
    /// — rollback depth in virtual time, and messages consumed past the
    /// line that the rollback discards.
    pub(crate) ckpt_marks: std::collections::BTreeMap<u64, (VirtualTime, u64)>,
    /// Monotone count of data messages consumed since the last restore.
    pub(crate) consumed_total: u64,
    /// Set when a restore completes; taken by the first outbound send (the
    /// respawn-to-first-send forensic phase).
    pub(crate) restored_at: Option<VirtualTime>,
    /// Service points run so far (the no-poll tests count these).
    #[cfg(test)]
    pub(crate) service_calls: u64,
}

/// How often blocking loops wake to service interrupts (real time).
pub(crate) const SERVICE_SLICE: Duration = Duration::from_millis(50);

/// Real-time bound on holding at a service point for a checkpoint round.
pub(crate) const HOLD_LIMIT: Duration = Duration::from_secs(60);

impl ProcessRuntime {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        entry: AppEntry,
        rank: Rank,
        node: NodeId,
        arch: Arch,
        mpi: MpiEndpoint,
        down_rx: Receiver<ProcDown>,
        up_tx: Arc<KickSender<(AppId, Rank, ProcUp)>>,
        store: StoreHub,
        outputs: Outputs,
        spawn_vt: VirtualTime,
        restore_from: u64,
        bus_data_path: bool,
        indep_every: Option<u64>,
        metrics: Registry,
    ) -> ProcessRuntime {
        let app = entry.id;
        let size = entry.spec.size;
        let disk = match entry.spec.level {
            LevelKind::Native => DiskModel::ide_1999(),
            LevelKind::Vm => DiskModel::vm_buffered(),
        };
        let abort_flag = Arc::new(AtomicBool::new(false));
        let mut mpi = mpi;
        mpi.set_abort_flag(abort_flag.clone());
        mpi.set_metrics(metrics.clone());
        let proto = entry.spec.proto;
        ProcessRuntime {
            app,
            rank,
            size,
            node,
            arch,
            entry,
            mpi,
            comm: Comm::world(size, rank),
            clock: VClock::starting_at(spawn_vt),
            down_rx,
            up_tx,
            store,
            outputs,
            bus: Bus::new(),
            cr: CrModule::new(proto, rank, size, restore_from),
            disk,
            abort_flag,
            restored: None,
            pending_epoch: None,
            restart_to: if restore_from > 0 {
                Some(restore_from)
            } else {
                None
            },
            suspended: false,
            killed: false,
            cached_state: None,
            consumed_log: Vec::new(),
            in_recv: false,
            deferred_capture: None,
            bus_data_path,
            indep_every,
            safepoint_count: 0,
            pending_marks: Vec::new(),
            metrics,
            round_started: None,
            ckpt_marks: std::collections::BTreeMap::from([(0, (spawn_vt, 0))]),
            consumed_total: 0,
            restored_at: None,
            #[cfg(test)]
            service_calls: 0,
        }
    }

    /// First outbound send after a restore closes the respawn-to-first-send
    /// forensic window (no-op on every later send).
    pub(crate) fn note_first_send(&mut self) {
        if let Some(t) = self.restored_at.take() {
            let now = self.clock.now();
            self.metrics
                .record_vt(metric::RECOVERY_RESPAWN_SEND_NS, now - t);
            self.mpi
                .recorder()
                .span(t, now, "recovery.respawn_send", "");
        }
    }

    /// Close out the current checkpoint round, if one is open. Called from
    /// both `Resume` and `Committed` (with `take()`) because their order
    /// differs between coordinator and members — whichever fires first ends
    /// the member's view of the round.
    fn note_round_done(&mut self) {
        if let Some(started) = self.round_started.take() {
            let now = self.clock.now();
            self.metrics.record_vt(metric::CKPT_ROUND_NS, now - started);
            let index = self.cr.last_index;
            self.mpi
                .recorder()
                .phase_end(now, "ckpt.round", &format!("index {index}"));
        }
    }

    /// Ship the cumulative registry snapshot up to the daemon, which casts
    /// it cluster-wide (scope `"app<A>.r<R>"`).
    pub(crate) fn flush_stats(&self) {
        self.send_up(ProcUp::Stats {
            snap: self.metrics.snapshot(),
            vt: self.clock.now(),
        });
    }

    pub(crate) fn send_up(&self, msg: ProcUp) {
        let _ = self.up_tx.send((self.app, self.rank, msg));
    }

    // ---- the wait point ---------------------------------------------------------

    /// The rank's one wait point: park on the MPI receive queue until a
    /// packet arrives, the daemon queues a message (and kicks), a peer of
    /// this application is placed or binds its port — or
    /// `deadline` passes. Always preceded by [`service`](Self::service):
    /// whatever woke us is handled there, so the idiom is
    /// `service(); wait_event(deadline)` and nothing polls.
    pub(crate) fn wait_event(&mut self, deadline: Instant) -> Result<()> {
        let left = deadline.saturating_duration_since(Instant::now());
        self.mpi.wait_event(&mut self.clock, left)
    }

    /// Stay at this service point until `done` holds: service, and while it
    /// still does not hold, park on the wait point. `Timeout(what)` after
    /// `limit` of real time.
    pub(crate) fn service_until(
        &mut self,
        state: Option<&dyn Checkpointable>,
        limit: Duration,
        what: &str,
        done: impl Fn(&Self) -> bool,
    ) -> Result<()> {
        if done(self) {
            return Ok(()); // the common case, on every send: no clock read
        }
        let deadline = Instant::now() + limit;
        while !done(self) {
            if Instant::now() > deadline {
                if std::env::var_os("STARFISH_RT_DEBUG").is_some() {
                    if let CrEngine::Sync(e) = &self.cr.engine {
                        eprintln!(
                            "[rt {}.{}] {what} (epoch {}): {e:?}",
                            self.app,
                            self.rank,
                            self.mpi.epoch()
                        );
                    }
                }
                return Err(Error::timeout(what));
            }
            self.service(state)?;
            if !done(self) {
                self.wait_event(deadline)?;
            }
        }
        Ok(())
    }

    // ---- service points --------------------------------------------------------

    /// Drain daemon messages and C/R marks, run protocol engines, execute
    /// effects. `state` enables live checkpoint capture (safepoints);
    /// without it the cached safepoint state is captured instead.
    pub(crate) fn service(&mut self, mut state: Option<&dyn Checkpointable>) -> Result<()> {
        #[cfg(test)]
        {
            self.service_calls += 1;
        }
        // The receive a capture was put off for has completed: take it here,
        // live if this is a safepoint.
        if let Some(index) = self.deferred_capture.take() {
            self.capture(index, &mut state)?;
        }
        // Retry any C/R marks whose destination was not yet reachable,
        // preserving their original virtual send times.
        if !self.pending_marks.is_empty() {
            let pending = std::mem::take(&mut self.pending_marks);
            for (to, body, at) in pending {
                if let Err(e) = self.mpi.resend_ctrl_mark_at(at, to, &body) {
                    if std::env::var_os("STARFISH_RT_DEBUG").is_some() {
                        eprintln!(
                            "[rt {}.{}] mark retry -> {to} failed: {e:?}",
                            self.app, self.rank
                        );
                    }
                    self.pending_marks.push((to, body, at));
                }
            }
        }
        // Data-path marks first: they belong to an *earlier* protocol stage
        // than anything the daemons relay (e.g. a peer's Saved can arrive in
        // real time before the flush mark that gates our own capture, and
        // merging its later timestamp first would artificially serialize the
        // round in virtual time).
        self.pump_marks(&mut state)?;
        loop {
            match self.down_rx.try_recv() {
                Ok(msg) => self.handle_down(msg, &mut state)?,
                // Administratively suspended: hold here, on the wait point
                // the daemon's `Resume` or `Kill` will kick.
                Err(channel::TryRecvError::Empty) if self.suspended => {
                    self.wait_event(Instant::now() + HOLD_LIMIT)?
                }
                Err(channel::TryRecvError::Empty) => break,
                Err(channel::TryRecvError::Disconnected) => {
                    // Daemon gone: our node crashed or the app was torn down.
                    self.killed = true;
                    return Err(Error::interrupted("daemon connection lost"));
                }
            }
        }
        self.pump_marks(&mut state)
    }

    /// The service point inside a blocking receive: a capture that comes
    /// due here is put off until the receive has had a look (`capture`).
    pub(crate) fn service_in_recv(&mut self) -> Result<()> {
        self.in_recv = true;
        let serviced = self.service(None);
        self.in_recv = false;
        serviced
    }

    fn handle_down(
        &mut self,
        msg: ProcDown,
        state: &mut Option<&dyn Checkpointable>,
    ) -> Result<()> {
        match msg {
            ProcDown::LwView { view, vt } => {
                self.clock.merge(vt);
                self.clock.advance(BUS_EVENT_COST);
                self.bus.post(BusEvent::View {
                    view,
                    vt: self.clock.now(),
                });
            }
            ProcDown::Relay {
                kind: RelayKind::Coordination,
                from,
                body,
                vt,
            } => {
                self.clock.merge(vt);
                self.clock.advance(BUS_EVENT_COST);
                self.bus.post(BusEvent::Coord {
                    from,
                    body,
                    vt: self.clock.now(),
                });
            }
            ProcDown::Relay {
                kind: RelayKind::CheckpointRestart,
                from,
                body,
                vt,
            } => {
                self.clock.merge(vt);
                self.clock.advance(BUS_EVENT_COST);
                if let Ok(m) = CrMsg::decode_from_bytes(&body) {
                    let effects = match &mut self.cr.engine {
                        CrEngine::Sync(e) => e.on_msg(from, &m),
                        CrEngine::Cl(e) => e.on_msg(from, &m),
                        CrEngine::Indep(_) => Vec::new(),
                    };
                    self.run_effects(effects, state)?;
                }
            }
            ProcDown::StartCheckpoint { vt } => {
                self.clock.merge(vt);
                let next = self.cr.last_index + 1;
                let effects = match &mut self.cr.engine {
                    CrEngine::Sync(e)
                        if e.is_coordinator()
                            && e.phase()
                                == starfish_checkpoint::proto::stop_and_sync::Phase::Running =>
                    {
                        e.start(next)
                    }
                    CrEngine::Cl(e) if e.is_initiator() && e.phase() == ClPhase::Idle => {
                        e.start(next)
                    }
                    CrEngine::Indep(e) => e.take_checkpoint(),
                    _ => Vec::new(),
                };
                self.run_effects(effects, state)?;
            }
            ProcDown::Suspend { vt } => {
                self.clock.merge(vt);
                self.suspended = true;
            }
            ProcDown::Resume { vt } => {
                self.clock.merge(vt);
                self.suspended = false;
            }
            ProcDown::Rollback { index, epoch, vt } => {
                self.clock.merge(vt);
                // Rollback depth: virtual time and consumed messages past
                // the recovery line that this rollback discards.
                let now = self.clock.now();
                let (line_vt, line_consumed) = self
                    .ckpt_marks
                    .get(&index)
                    .copied()
                    .unwrap_or((VirtualTime::ZERO, 0));
                self.metrics
                    .record_vt(metric::RECOVERY_ROLLBACK_VT_NS, now - line_vt);
                self.metrics.record(
                    metric::RECOVERY_LOST_MSGS,
                    self.consumed_total.saturating_sub(line_consumed),
                );
                self.pending_epoch = Some(epoch);
                self.restart_to = Some(index);
                self.bus.clear();
                return Err(Error::interrupted("rollback ordered by daemon"));
            }
            ProcDown::Kill { vt } => {
                self.clock.merge(vt);
                self.killed = true;
                return Err(Error::interrupted("killed by daemon"));
            }
        }
        Ok(())
    }

    /// Pump C/R data-path marks (flush marks / markers) into the engines.
    fn pump_marks(&mut self, state: &mut Option<&dyn Checkpointable>) -> Result<()> {
        let marks = self.mpi.pump_ctrl(&mut self.clock);
        for (from, body, vt) in marks {
            self.clock.merge(vt);
            let Ok(m) = CrMsg::decode_from_bytes(&body) else {
                continue;
            };
            if std::env::var_os("STARFISH_RT_DEBUG").is_some() {
                eprintln!("[rt {}.{}] mark <- {from}: {m:?}", self.app, self.rank);
            }
            let effects = match (&mut self.cr.engine, &m) {
                (CrEngine::Sync(e), CrMsg::FlushMark { index }) => e.on_flush_mark(from, *index),
                (CrEngine::Cl(e), CrMsg::Marker { index }) => e.on_marker(from, *index),
                _ => Vec::new(),
            };
            self.run_effects(effects, state)?;
        }
        Ok(())
    }

    pub(crate) fn run_effects(
        &mut self,
        effects: Vec<CrEffect>,
        state: &mut Option<&dyn Checkpointable>,
    ) -> Result<()> {
        for eff in effects {
            match eff {
                CrEffect::Send { to, msg } => {
                    self.send_up(ProcUp::SendTo {
                        kind: RelayKind::CheckpointRestart,
                        to,
                        body: msg.encode_to_bytes(),
                        vt: self.clock.now(),
                    });
                }
                CrEffect::Broadcast { msg } => {
                    self.send_up(ProcUp::Cast {
                        kind: RelayKind::CheckpointRestart,
                        body: msg.encode_to_bytes(),
                        vt: self.clock.now(),
                    });
                }
                CrEffect::DataMark { to, msg } => {
                    // Channel capture assumes everything in flight precedes
                    // the marks on the wire: push any rendezvous payloads
                    // still parked awaiting CTS *before* the mark, so the
                    // per-link FIFO delivers them ahead of it (receivers
                    // merge unsolicited DATA like a granted push).
                    self.mpi.push_pending_rendezvous(&mut self.clock);
                    if std::env::var_os("STARFISH_RT_DEBUG").is_some() {
                        eprintln!(
                            "[rt {}.{}] DataMark -> {to}: {msg:?} (epoch {})",
                            self.app,
                            self.rank,
                            self.mpi.epoch()
                        );
                    }
                    let body = msg.encode_to_bytes();
                    self.mpi
                        .recorder()
                        .mark(self.clock.now(), "cr.mark", &msg.trace_label());
                    if let Err(e) = self.mpi.send_ctrl_mark(&mut self.clock, to, &body) {
                        if std::env::var_os("STARFISH_RT_DEBUG").is_some() {
                            eprintln!(
                                "[rt {}.{}] DataMark -> {to} FAILED: {e:?}",
                                self.app, self.rank
                            );
                        }
                        let _ = &e;
                        // Peer mid-restart (port not bound yet) or crashed:
                        // keep retrying at service points. Genuinely dead
                        // peers are resolved by the membership layer (the
                        // round is rebuilt after the restart decision).
                        self.pending_marks.push((to, body, self.clock.now()));
                    }
                }
                CrEffect::BeginQuiesce { .. } => {
                    self.cr.stopped = true;
                }
                CrEffect::TakeCheckpoint { index } => {
                    // Every flush mark is in, so everything the peers sent
                    // before they stopped has arrived. If that completes the
                    // receive we are inside of, the rank is not blocked — the
                    // Stop overtook the data on its way round the daemons —
                    // and capturing it as blocked would take the round its
                    // next `checkpoint()` waits for. Let the receive look.
                    if self.in_recv && matches!(self.cr.engine, CrEngine::Sync(_)) {
                        self.deferred_capture = Some(index);
                    } else {
                        self.capture(index, state)?;
                    }
                }
                CrEffect::RecordChannel { from } => self.mpi.start_recording(from),
                CrEffect::StopRecord { from } => self.mpi.stop_recording(from),
                CrEffect::Resume { .. } => {
                    self.cr.stopped = false;
                    // Member's view of the round ends here; make its layer
                    // histograms and checkpoint costs visible cluster-wide.
                    self.note_round_done();
                    self.flush_stats();
                }
                CrEffect::Committed { index } => {
                    // The coordinator charges the fitted daemon-coordination
                    // overhead for the distributed phase (EXPERIMENTS.md).
                    let nodes = self.participating_nodes();
                    let sync_cost = match self.entry.spec.level {
                        LevelKind::Native => SyncCostModel::native_sync(nodes),
                        LevelKind::Vm => SyncCostModel::vm_sync(nodes),
                    };
                    self.clock.advance(sync_cost);
                    self.cr.committed += 1;
                    self.metrics.inc(metric::CKPT_ROUNDS);
                    self.note_round_done();
                    self.mpi.recorder().mark(
                        self.clock.now(),
                        "ckpt.committed",
                        &format!("index {index}"),
                    );
                    self.ckpt_marks
                        .insert(index, (self.clock.now(), self.consumed_total));
                    self.send_up(ProcUp::CkptCommitted {
                        index,
                        vt: self.clock.now(),
                    });
                    self.flush_stats();
                }
            }
        }
        // Chandy–Lamport: finalize the image once all markers are in (the
        // engine already emitted its Saved message; here we persist the
        // state snapshot plus the recorded channel contents).
        let cl_complete = matches!(
            &self.cr.engine,
            CrEngine::Cl(e) if e.phase() == ClPhase::Complete || e.phase() == ClPhase::Idle
        );
        if cl_complete {
            if let Some(p) = self.cr.pending_cl.take() {
                let channel = self.take_recorded_channel();
                self.write_image(p.index, p.state, channel, p.taken_at)?;
            }
        }
        Ok(())
    }

    /// Take the local checkpoint of round `index`: live when the caller has
    /// the application's state in hand (a safepoint), else of the state
    /// cached at the last one.
    pub(crate) fn capture(
        &mut self,
        index: u64,
        state: &mut Option<&dyn Checkpointable>,
    ) -> Result<()> {
        if self.round_started.is_none() {
            self.round_started = Some(self.clock.now());
            self.mpi
                .recorder()
                .phase_begin(self.clock.now(), "ckpt.round");
        }
        match state {
            Some(s) => {
                // Live capture at a safepoint: nothing consumed since.
                let v = s.save();
                let seq = self.comm.coll_seq;
                self.cached_state = Some((v.clone(), seq));
                self.consumed_log.clear();
                self.take_checkpoint_value(index, v, seq, Vec::new())
            }
            None => {
                // Blocked in a communication call: rewind to the cached
                // safepoint and log the consumed messages so the restored
                // incarnation can replay them.
                let (v, seq) = self.cached_state.clone().unwrap_or((CkptValue::Unit, 0));
                let replay = self.consumed_log.clone();
                self.take_checkpoint_value(index, v, seq, replay)
            }
        }
    }

    fn participating_nodes(&self) -> usize {
        let mut nodes = self.entry.placement.clone();
        nodes.sort_unstable();
        nodes.dedup();
        nodes.len()
    }

    fn take_recorded_channel(&mut self) -> Vec<ChannelMsg> {
        self.mpi
            .take_recorded()
            .into_iter()
            .map(|(h, b)| ChannelMsg {
                src: h.src,
                dst: self.rank,
                context: h.context,
                tag: h.tag,
                payload: b.to_vec(),
            })
            .collect()
    }

    /// Capture a local checkpoint at `index` with the given state value,
    /// the collective sequence number matching that state, and any consumed
    /// messages the restored incarnation must replay.
    fn take_checkpoint_value(
        &mut self,
        index: u64,
        user_state: CkptValue,
        coll_seq: u64,
        replay: Vec<(MsgHeader, Bytes)>,
    ) -> Result<()> {
        let wrapped = CkptValue::Record(vec![
            ("__coll_seq".to_string(), CkptValue::Int(coll_seq as i64)),
            ("__user".to_string(), user_state),
        ]);
        match &mut self.cr.engine {
            CrEngine::Cl(_) => {
                // State snapshots now; channel recording completes later.
                self.cr.pending_cl = Some(PendingCl {
                    index,
                    state: wrapped,
                    taken_at: self.clock.now(),
                });
                // Serialization cost is charged at finalization (write).
                Ok(())
            }
            _ => {
                // Stop-and-sync / independent: the channel is the replay log
                // (messages consumed past the capture point) plus whatever
                // is unconsumed right now (stop-and-sync guarantees the
                // latter is all remaining in-flight traffic).
                let channel: Vec<ChannelMsg> = replay
                    .into_iter()
                    .chain(self.mpi.snapshot_channel(&mut self.clock))
                    .map(|(h, b)| ChannelMsg {
                        src: h.src,
                        dst: self.rank,
                        context: h.context,
                        tag: h.tag,
                        payload: b.to_vec(),
                    })
                    .collect();
                let taken_at = self.clock.now();
                self.write_image(index, wrapped, channel, taken_at)?;
                let effects = match &mut self.cr.engine {
                    CrEngine::Sync(e) => e.on_saved(index),
                    CrEngine::Indep(e) => {
                        self.mpi.piggyback_interval = e.current_interval();
                        Vec::new()
                    }
                    CrEngine::Cl(_) => unreachable!(),
                };
                let mut no_state: Option<&dyn Checkpointable> = None;
                self.run_effects(effects, &mut no_state)
            }
        }
    }

    fn write_image(
        &mut self,
        index: u64,
        state: CkptValue,
        channel: Vec<ChannelMsg>,
        taken_at: VirtualTime,
    ) -> Result<()> {
        let level = match self.entry.spec.level {
            LevelKind::Native => CkptLevel::Native { arch: self.arch },
            LevelKind::Vm => CkptLevel::Vm { arch: self.arch },
        };
        let img = CkptImage::capture(
            self.app,
            self.rank,
            self.entry.epoch,
            index,
            level,
            &state,
            channel,
            taken_at,
        )?;
        if std::env::var_os("STARFISH_RT_DEBUG").is_some() {
            eprintln!(
                "[rt {}.{}] write_image idx={index} start_vt={} bytes={}",
                self.app,
                self.rank,
                self.clock.now(),
                img.total_bytes()
            );
        }
        let bytes = img.total_bytes();
        // Disk-backed apps pay the (modeled) stable-storage write; replica
        // apps instead push fragments to peer memory over the fabric and pay
        // the serialized NIC cost reported by the replica store.
        let write_cost = match self.store.put_timed(img) {
            Some(receipt) => {
                self.metrics
                    .add(metric::CKPT_FRAGMENTS_STORED, u64::from(receipt.fragments));
                self.metrics
                    .record(metric::CKPT_REPLICATION_BYTES, receipt.replicated_bytes);
                receipt.cost
            }
            None => self.disk.write_time(bytes),
        };
        self.clock.advance(write_cost);
        self.metrics.record(metric::CKPT_IMAGE_BYTES, bytes);
        self.metrics.record_vt(metric::CKPT_WRITE_NS, write_cost);
        self.mpi.recorder().span(
            taken_at,
            self.clock.now(),
            "ckpt.write",
            &format!("index {index}, {bytes} B"),
        );
        self.cr.last_index = index;
        // For the CL path, emitting Saved is the engine's business; for
        // stop-and-sync, on_saved is invoked by the caller.
        Ok(())
    }

    /// Full safepoint: service everything; if a stop-and-sync round is in
    /// progress, hold here (quiesce) until it commits.
    pub(crate) fn safepoint(&mut self, state: &dyn Checkpointable) -> Result<()> {
        self.safepoint_count += 1;
        self.cached_state = Some((state.save(), self.comm.coll_seq));
        self.consumed_log.clear();
        self.service(Some(state))?;
        // Independent auto-checkpointing.
        if let (Some(every), CrEngine::Indep(_)) = (self.indep_every, &self.cr.engine) {
            if every > 0 && self.safepoint_count.is_multiple_of(every) {
                let effects = match &mut self.cr.engine {
                    CrEngine::Indep(e) => e.take_checkpoint(),
                    _ => unreachable!(),
                };
                let mut s = Some(state);
                self.run_effects(effects, &mut s)?;
            }
        }
        self.hold_while_stopped(Some(state))
    }

    /// Stop-and-sync quiesce: stay at this service point while a round has
    /// the process stopped, until its Resume.
    pub(crate) fn hold_while_stopped(&mut self, state: Option<&dyn Checkpointable>) -> Result<()> {
        self.service_until(state, HOLD_LIMIT, "quiesce never completed", |rt| {
            !rt.cr.stopped
        })
    }

    // ---- restart ---------------------------------------------------------------

    /// Load (or reset to) checkpoint `index` before (re-)entering the
    /// application code.
    pub(crate) fn load_checkpoint(&mut self, index: u64) {
        self.abort_flag.store(false, Ordering::Relaxed);
        self.bus.clear();
        self.suspended = false;
        self.cached_state = None;
        self.consumed_log.clear();
        self.deferred_capture = None;
        self.pending_marks.clear();
        // Drop forensic marks past the restored line and rewind the
        // consumed counter to the line's value.
        self.ckpt_marks.split_off(&(index + 1));
        self.consumed_total = self.ckpt_marks.get(&index).map(|m| m.1).unwrap_or(0);
        if let Some(e) = self.pending_epoch.take() {
            self.mpi.set_epoch(e);
        }
        self.comm = Comm::world(self.size, self.rank);
        self.cr = CrModule::new(self.entry.spec.proto, self.rank, self.size, index);
        self.mpi.piggyback_interval = index;
        if index == 0 {
            self.restored = None;
            self.mpi.restore_channel(Vec::new(), self.clock.now());
            return;
        }
        // Replica-backed apps reassemble the image from surviving peers at
        // fabric speed (parallel per-source fetch, parity rebuild if a
        // fragment was fully lost); disk apps read it back from stable
        // storage at the modeled disk rate.
        let replica = matches!(self.store.backend_of(self.app), CkptBackend::Replica { .. });
        let (img, fetch_cost) = if replica {
            match self
                .store
                .fetch_timed(self.app, self.rank, index, self.node)
            {
                Some(f) => {
                    self.metrics.add(
                        metric::CKPT_FRAGMENTS_FETCHED,
                        u64::from(f.fragments_fetched),
                    );
                    self.metrics
                        .add(metric::CKPT_PARITY_REBUILDS, u64::from(f.parity_rebuilds));
                    (Some(f.img), Some(f.cost))
                }
                None => (None, None),
            }
        } else {
            (self.store.get(self.app, self.rank, index), None)
        };
        let Some(img) = img else {
            // No such image (e.g. recovery line at 0 for this rank): fresh.
            self.restored = None;
            self.mpi.restore_channel(Vec::new(), self.clock.now());
            self.cr = CrModule::new(self.entry.spec.proto, self.rank, self.size, 0);
            self.mpi.piggyback_interval = 0;
            return;
        };
        match img.restore_state(self.arch) {
            Ok((value, report)) => {
                // Restore costs: read the image back (peer fetch or disk),
                // plus representation conversion when the saving machine
                // differed.
                match fetch_cost {
                    Some(c) => {
                        self.clock.advance(c);
                        self.metrics.record_vt(metric::RECOVERY_FETCH_NS, c);
                    }
                    None => {
                        self.clock.advance(self.disk.read_time(img.total_bytes()));
                    }
                }
                if !report.identical() {
                    self.clock
                        .advance(VirtualTime::transfer(report.body_bytes, CONVERT_BW));
                }
                if let Some(CkptValue::Int(seq)) = value.field("__coll_seq") {
                    // (restored through the wrapper written by take_checkpoint)
                    self.comm.coll_seq = *seq as u64;
                }
                self.restored = value.field("__user").cloned();
                let msgs: Vec<(MsgHeader, Bytes)> = img
                    .channel
                    .iter()
                    .map(|m| {
                        (
                            MsgHeader {
                                src: m.src,
                                context: m.context,
                                tag: m.tag,
                                epoch: self.mpi.epoch(),
                                interval: 0,
                                seq: 0,
                                flags: 0,
                            },
                            Bytes::from(m.payload.clone()),
                        )
                    })
                    .collect();
                self.mpi.restore_channel(msgs, self.clock.now());
            }
            Err(_) => {
                // Unrestorable here (native image on a different machine):
                // start fresh — the paper's native-level restriction.
                self.restored = None;
                self.mpi.restore_channel(Vec::new(), self.clock.now());
                self.cr = CrModule::new(self.entry.spec.proto, self.rank, self.size, 0);
                self.mpi.piggyback_interval = 0;
            }
        }
    }
}

/// The process main loop: run the user code, re-entering after rollbacks.
pub(crate) fn process_main(mut rt: ProcessRuntime, run: Arc<crate::host::AppFn>) {
    let dbg = std::env::var_os("STARFISH_RT_DEBUG").is_some();
    loop {
        if let Some(idx) = rt.restart_to.take() {
            if dbg {
                eprintln!("[rt {}.{}] load_checkpoint({idx})", rt.app, rt.rank);
            }
            let started = rt.clock.now();
            rt.mpi.recorder().phase_begin(started, "recovery.restore");
            rt.load_checkpoint(idx);
            let now = rt.clock.now();
            rt.metrics.inc(metric::RECOVERY_RESTARTS);
            rt.metrics
                .record_vt(metric::RECOVERY_RESTORE_NS, now - started);
            rt.mpi
                .recorder()
                .phase_end(now, "recovery.restore", &format!("to index {idx}"));
            rt.restored_at = Some(now);
            rt.flush_stats();
        }
        if dbg {
            eprintln!(
                "[rt {}.{}] entering run (restored={})",
                rt.app,
                rt.rank,
                rt.restored.is_some()
            );
        }
        let result = {
            let mut ctx = crate::ctx::Ctx { rt: &mut rt };
            run(&mut ctx)
        };
        if dbg {
            eprintln!(
                "[rt {}.{}] run -> {:?} killed={} restart_to={:?}",
                rt.app,
                rt.rank,
                result.as_ref().err(),
                rt.killed,
                rt.restart_to
            );
        }
        match result {
            Ok(()) => {
                // No service point is left to take a capture put off for
                // the program's last receive.
                if let Some(index) = rt.deferred_capture.take() {
                    let _ = rt.capture(index, &mut None);
                }
                // A member that returns right after its last checkpoint
                // never hears that round's Resume: close it here.
                rt.note_round_done();
                rt.flush_stats();
                rt.send_up(ProcUp::Done { vt: rt.clock.now() });
                return;
            }
            Err(Error::Interrupted(_)) => {
                if rt.killed {
                    return;
                }
                if rt.restart_to.is_none() {
                    // Interrupted without a pending rollback: the Rollback
                    // may be right behind the abort; wait for it briefly.
                    let deadline = Instant::now() + Duration::from_secs(10);
                    while rt.restart_to.is_none() && !rt.killed {
                        if Instant::now() > deadline
                            || (rt.service(None).is_ok() && rt.wait_event(deadline).is_err())
                        {
                            return;
                        }
                    }
                    if rt.killed {
                        return;
                    }
                }
                continue;
            }
            Err(_other) => {
                // Node crash mid-run or a fatal application error: exit.
                // (A crashed node's daemon is gone too, so nobody is left to
                // notify; the membership layer reports the loss.)
                return;
            }
        }
    }
}
