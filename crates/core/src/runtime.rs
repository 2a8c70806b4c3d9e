//! The application-process runtime (paper §2.2, figure 1).
//!
//! One [`ProcessRuntime`] hosts one MPI rank. Its five modules are:
//!
//! * the **application part** — the user closure, executed on this thread;
//! * the **MPI module** — [`starfish_mpi::MpiEndpoint`], reached through the
//!   *fast data path* (direct calls, no bus dispatch);
//! * the **VNI** — inside the MPI endpoint: the rank's own port, which the
//!   rank reads itself (the paper's polling thread is a cost model,
//!   [`RecvMode`](starfish_mpi::RecvMode));
//! * the **group handler** — the `ProcDown` queue from the daemon, drained
//!   at every service point and turned into object-bus events (no thread:
//!   the daemon's [`DownLink`](starfish_daemon::DownLink) queues, then
//!   kicks the rank's wait point);
//! * the **C/R module** — a [`RankCr`] machine (every checkpoint/restart
//!   decision, around the protocol engine) whose answers this runtime
//!   carries out: image capture, write and restore, marks, relays.
//!
//! The runtime's *scheduler* is cooperative: non-data events are processed
//! at **service points** — every blocking receive slice and every explicit
//! [`Ctx::safepoint`](crate::Ctx::safepoint). A capture at a safepoint
//! takes the registered state in hand, mirroring VM-safepoint
//! checkpointing; one inside a communication call takes the
//! [`SafepointCache`]: the state of an earlier safepoint — at or after the
//! last `checkpoint()` call, and copied again only when replaying what was
//! consumed since would cost as much as the copy — and that replay log.
//! The runtime documentation of `Ctx` spells out the programming-model
//! contract (iteration-structured programs call `safepoint` once per
//! iteration).
//!
//! ## Restart semantics
//!
//! A rollback (local decision or daemon-ordered) makes every context call
//! return [`Error::Interrupted`]; the application propagates it out of its
//! `run` function, and the runtime re-enters `run` with
//! [`Ctx::restored`](crate::Ctx::restored) populated from the recovery-line
//! image (state + channel contents + collective sequence number, and — for
//! an image taken inside a communication call — the sends to suppress).
//! Stale messages from the rolled-back execution are discarded by the epoch
//! filter in the MPI layer.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Receiver};
use parking_lot::{Condvar, Mutex};

use starfish_checkpoint::image::{ChannelMsg, CkptImage, CkptLevel};
use starfish_checkpoint::proto::rank::{Capture, Out, Point, RankCr};
use starfish_checkpoint::proto::CrMsg;
use starfish_checkpoint::store::CkptStore;
use starfish_checkpoint::{Arch, CkptValue};
use starfish_daemon::config::AppEntry;
use starfish_daemon::msg::RankStats;
use starfish_daemon::{LevelKind, ProcDown, ProcUp, RelayKind};
use starfish_mpi::wire::MsgHeader;
use starfish_mpi::{Comm, MpiEndpoint};
use starfish_telemetry::{metric, Registry};
use starfish_util::codec::{Decode, Encode};
use starfish_util::{AppId, Epoch, Error, NodeId, Rank, Result, VClock, VirtualTime};
use starfish_vni::KickSender;

use crate::bus::{Bus, BusEvent, BusTopic, BUS_EVENT_COST};
use crate::state::Checkpointable;

/// Throughput of representation conversion on restore (byte-swapping /
/// word-resizing a heap image on the era's hardware).
pub(crate) const CONVERT_BW: f64 = 25.0e6;

type OutputMap = HashMap<(AppId, Rank), Vec<CkptValue>>;

/// Per-process published results, visible to the cluster owner (tests,
/// examples, benches read these).
#[derive(Clone, Default)]
pub(crate) struct Outputs {
    inner: Arc<(Mutex<OutputMap>, Condvar)>,
}

impl Outputs {
    pub(crate) fn new() -> Self {
        Outputs::default()
    }

    pub(crate) fn publish(&self, app: AppId, rank: Rank, v: CkptValue) {
        self.inner.0.lock().entry((app, rank)).or_default().push(v);
        self.inner.1.notify_all();
    }

    pub(crate) fn get(&self, app: AppId, rank: Rank) -> Vec<CkptValue> {
        self.inner
            .0
            .lock()
            .get(&(app, rank))
            .cloned()
            .unwrap_or_default()
    }

    /// Wait (real time) until `rank` has published at least `n` values;
    /// woken by each [`publish`](Self::publish).
    #[expect(clippy::disallowed_methods, reason = "the caller's `timeout`")]
    pub(crate) fn wait_count(
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

/// One application process (runs on its own OS thread): the I/O shell of
/// its [`RankCr`] machine.
pub(crate) struct ProcessRuntime {
    pub(crate) app: AppId,
    pub rank: Rank,
    pub(crate) size: u32,
    pub(crate) node: NodeId,
    pub(crate) arch: Arch,
    pub(crate) entry: AppEntry,
    pub(crate) mpi: MpiEndpoint,
    pub(crate) comm: Comm,
    pub(crate) clock: VClock,
    pub(crate) down_rx: Receiver<ProcDown>,
    pub(crate) up_tx: Arc<KickSender<(AppId, Rank, Vec<ProcUp>)>>,
    pub(crate) store: CkptStore,
    pub(crate) outputs: Outputs,
    pub(crate) bus: Bus,
    /// Every checkpoint/restart decision of this rank.
    pub(crate) cr: RankCr,
    pub(crate) abort_flag: Arc<AtomicBool>,

    pub(crate) restored: Option<CkptValue>,
    /// What a capture taken inside a communication call is made of.
    pub(crate) cache: SafepointCache,
    /// A captured image, until the machine has it written.
    captured: Option<Captured>,

    /// This process's telemetry registry (also installed in the MPI
    /// endpoint); snapshots go up at round commits and with a member's
    /// `Saved`, at restores, and at completion.
    pub(crate) metrics: Registry,
    /// Snapshots sent up so far: the last one's `seq`.
    flushes: u64,
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
    /// This rank's `ckpt.round` phase is open: from its first flush mark
    /// or capture of a round to the round's close.
    round_phase: bool,
    /// `STARFISH_RT_DEBUG`: print what the machine answers.
    debug: bool,
    /// Service points run so far (the no-poll tests count these).
    #[cfg(test)]
    pub(crate) service_calls: u64,
}

/// The state of the cached safepoint (none before the first), the
/// collective sequence number that goes with it, and every data message
/// consumed since: what a rank blocked in a communication call is captured
/// as. The restored incarnation rewinds to that safepoint and replays
/// exactly those messages (and suppresses the sends the machine counted).
///
/// A plain safepoint copies the state in hand only when the copy is cheap
/// or the log has grown as heavy as it ([`stale`](Self::stale)); otherwise
/// it keeps the older state and the log grows on. A `checkpoint()` call
/// always copies, so the cached safepoint is at or after the last one, and
/// a restored rank never re-executes across it. Under piecewise
/// determinism, rewinding to any such safepoint and replaying the log
/// reaches the same state as rewinding to the last.
#[derive(Default)]
pub(crate) struct SafepointCache {
    pub(crate) state: Option<CkptValue>,
    /// `state`'s `heap_bytes()`.
    state_bytes: usize,
    pub(crate) coll_seq: u64,
    pub(crate) consumed: Vec<(MsgHeader, Bytes)>,
    /// What `consumed` weighs: its payloads plus [`LOG_ENTRY_BYTES`] each.
    consumed_bytes: usize,
}

/// A state smaller than this is copied at every safepoint: the copy costs
/// less than keeping the log would save.
const PAGE_BYTES: usize = 4096;

/// What a logged message weighs beyond its payload: its header and handle.
const LOG_ENTRY_BYTES: usize = 64;

impl SafepointCache {
    fn refresh(&mut self, state: Option<CkptValue>, coll_seq: u64) {
        self.state_bytes = state.as_ref().map_or(0, CkptValue::heap_bytes);
        self.state = state;
        self.coll_seq = coll_seq;
        self.consumed.clear();
        self.consumed_bytes = 0;
    }

    /// Whether a plain safepoint should copy the state in hand: nothing is
    /// cached, the cached state is under a page, or replaying the log
    /// would move as many bytes as the copy.
    fn stale(&self) -> bool {
        self.state.is_none()
            || self.state_bytes < PAGE_BYTES
            || self.consumed_bytes >= self.state_bytes
    }

    /// The application consumed a message: the restored incarnation
    /// replays it.
    pub(crate) fn log(&mut self, header: MsgHeader, payload: Bytes) {
        self.consumed_bytes += payload.len() + LOG_ENTRY_BYTES;
        self.consumed.push((header, payload));
    }
}

/// An image between its capture and its write: the wrapped state, the
/// consumed messages to replay, and when it was taken.
struct Captured {
    state: CkptValue,
    replay: Vec<(MsgHeader, Bytes)>,
    taken_at: VirtualTime,
}

/// How often blocking loops wake to service interrupts (real time).
pub(crate) const SERVICE_SLICE: Duration = Duration::from_millis(50);

/// Real-time bound on holding at a service point for a checkpoint round.
pub(crate) const HOLD_LIMIT: Duration = Duration::from_secs(60);

/// Real-time bound on waiting for the rollback behind an interrupt.
const REWIND_WAIT: Duration = Duration::from_secs(10);

impl ProcessRuntime {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        entry: AppEntry,
        rank: Rank,
        node: NodeId,
        arch: Arch,
        mpi: MpiEndpoint,
        down_rx: Receiver<ProcDown>,
        up_tx: Arc<KickSender<(AppId, Rank, Vec<ProcUp>)>>,
        store: CkptStore,
        outputs: Outputs,
        spawn_vt: VirtualTime,
        restore_from: u64,
        metrics: Registry,
    ) -> ProcessRuntime {
        let app = entry.id;
        let size = entry.spec.size;
        let abort_flag = Arc::new(AtomicBool::new(false));
        let mut mpi = mpi;
        mpi.set_abort_flag(abort_flag.clone());
        mpi.set_metrics(metrics.clone());
        let cr = RankCr::new(entry.spec.proto, rank, size, restore_from);
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
            cr,
            abort_flag,
            restored: None,
            cache: SafepointCache::default(),
            captured: None,
            metrics,
            flushes: 0,
            ckpt_marks: std::collections::BTreeMap::from([(0, (spawn_vt, 0))]),
            consumed_total: 0,
            restored_at: None,
            round_phase: false,
            debug: std::env::var_os("STARFISH_RT_DEBUG").is_some(),
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

    /// Close out the current checkpoint round, if one is open. Reached from
    /// both `Resume` and `Committed` because their order differs between
    /// coordinator and members — whichever comes first ends the rank's view
    /// of the round.
    fn note_round_done(&mut self) {
        let now = self.clock.now();
        if let Some(started) = self.cr.take_round_start() {
            self.metrics.record_vt(metric::CKPT_ROUND_NS, now - started);
        }
        if std::mem::take(&mut self.round_phase) {
            let index = self.cr.last_index();
            self.mpi
                .recorder()
                .phase_end(now, "ckpt.round", &format!("index {index}"));
        }
    }

    /// Open this rank's `ckpt.round` phase at its first act of a round, a
    /// flush mark or a capture: the round's data-path traffic then carries
    /// the phase's trace, whatever the sampling of roots.
    fn open_round_phase(&mut self) {
        if !std::mem::replace(&mut self.round_phase, true) {
            self.mpi
                .recorder()
                .phase_begin(self.clock.now(), "ckpt.round");
        }
    }

    /// The cumulative registry snapshot, for the daemon to cast
    /// cluster-wide (scope `"app<A>.r<R>"`): at a commit the rank
    /// coordinated, per restore, and at exit. A member's rides its `Saved`
    /// instead.
    pub(crate) fn stats_up(&mut self) -> ProcUp {
        ProcUp::Stats {
            stats: self.rank_stats(),
            vt: self.clock.now(),
        }
    }

    /// The cumulative registry snapshot, numbered.
    fn rank_stats(&mut self) -> RankStats {
        self.flushes += 1;
        RankStats {
            epoch: self.mpi.epoch(),
            seq: self.flushes,
            snap: self.metrics.snapshot(),
        }
    }

    /// Take the next event of `topic` off the bus, paying its dispatch.
    pub(crate) fn take_bus(&mut self, topic: BusTopic) -> Option<BusEvent> {
        let ev = self.bus.take(topic)?;
        self.clock.advance(BUS_EVENT_COST);
        Some(ev)
    }

    pub(crate) fn send_up(&self, msg: ProcUp) {
        self.send_ups(vec![msg]);
    }

    /// Hand the daemon `ups`, in order, as one message with one kick: what
    /// it casts of them at one virtual instant leaves as one cast.
    fn send_ups(&self, ups: Vec<ProcUp>) {
        if !ups.is_empty() {
            let _ = self.up_tx.send((self.app, self.rank, ups));
        }
    }

    // ---- the wait point ---------------------------------------------------------

    /// The rank's one wait point: park on the MPI receive queue until a
    /// packet arrives, the daemon queues a message (and kicks), a peer of
    /// this application is placed or binds its port — or
    /// `deadline` passes. Always preceded by [`service`](Self::service):
    /// whatever woke us is handled there, so the idiom is
    /// `service(); wait_event(deadline)` and nothing polls.
    pub(crate) fn wait_event(&mut self, deadline: Instant) -> Result<()> {
        #[expect(clippy::disallowed_methods, reason = "the caller's deadline")]
        let left = deadline.saturating_duration_since(Instant::now());
        self.mpi.wait_event(&mut self.clock, left)
    }

    /// Stay at this service point until `done` holds: service, and while it
    /// still does not hold, park on the wait point. `Timeout(what)`, with
    /// the machine's state, after `limit` of real time.
    #[expect(clippy::disallowed_methods, reason = "the service point's `limit`")]
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
                return Err(Error::timeout(format!("{what}: {:?}", self.cr)));
            }
            self.service(state)?;
            if !done(self) {
                self.wait_event(deadline)?;
            }
        }
        Ok(())
    }

    // ---- service points --------------------------------------------------------

    /// Drain daemon messages and C/R marks into the machine and carry out
    /// its answers. `state` (a safepoint) makes a capture live; without it
    /// the safepoint cache is captured.
    pub(crate) fn service(&mut self, state: Option<&dyn Checkpointable>) -> Result<()> {
        let point = match state {
            Some(_) => Point::Safepoint,
            None => Point::Busy,
        };
        self.service_at(point, state)
    }

    /// The service point inside a blocking receive: a capture that comes
    /// due here is put off until the receive has had a look.
    pub(crate) fn service_in_recv(&mut self) -> Result<()> {
        self.service_at(Point::InRecv, None)
    }

    fn service_at(&mut self, point: Point, state: Option<&dyn Checkpointable>) -> Result<()> {
        #[cfg(test)]
        {
            self.service_calls += 1;
        }
        let outs = self.cr.service(point);
        self.carry(outs, state)?;
        // Data-path marks first: they belong to an *earlier* protocol stage
        // than anything the daemons relay.
        self.pump_marks(state)?;
        loop {
            match self.down_rx.try_recv() {
                Ok(msg) => self.handle_down(msg, state)?,
                // Administratively suspended: hold here, on the wait point
                // the daemon's `Resume` or `Kill` will kick.
                #[expect(clippy::disallowed_methods, reason = "`HOLD_LIMIT` while suspended")]
                Err(channel::TryRecvError::Empty) if self.cr.suspended() => {
                    self.wait_event(Instant::now() + HOLD_LIMIT)?
                }
                Err(channel::TryRecvError::Empty) => break,
                Err(channel::TryRecvError::Disconnected) => {
                    // Daemon gone: our node crashed or the app was torn down.
                    self.cr.kill();
                    return Err(Error::interrupted("daemon connection lost"));
                }
            }
        }
        self.pump_marks(state)
    }

    fn handle_down(&mut self, msg: ProcDown, state: Option<&dyn Checkpointable>) -> Result<()> {
        match msg {
            ProcDown::LwView { view, vt } => {
                self.clock.merge(vt);
                self.bus.post(BusEvent::View { view });
            }
            ProcDown::Relay {
                kind: RelayKind::Coordination,
                from,
                body,
                vt,
            } => {
                self.clock.merge(vt);
                self.bus.post(BusEvent::Coord { from, body });
            }
            ProcDown::Relay {
                kind: RelayKind::CheckpointRestart,
                from,
                body,
                vt,
            } => {
                let Ok(msg) = CrMsg::decode_from_bytes(&body) else {
                    return Ok(());
                };
                let outs = self.cr.relay(from, &msg, vt + BUS_EVENT_COST);
                self.carry(outs, state)?;
            }
            ProcDown::StartCheckpoint { vt } => {
                self.clock.merge(vt);
                let outs = self.cr.start_round();
                self.carry(outs, state)?;
            }
            ProcDown::Suspend { vt } => {
                self.clock.merge(vt);
                self.cr.suspend();
            }
            ProcDown::Resume { vt } => {
                self.clock.merge(vt);
                self.cr.resume();
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
                self.cr.rollback(index, epoch);
                self.bus.clear();
                return Err(Error::interrupted("rollback ordered by daemon"));
            }
            ProcDown::Kill { vt } => {
                self.clock.merge(vt);
                self.cr.kill();
                return Err(Error::interrupted("killed by daemon"));
            }
        }
        Ok(())
    }

    /// Pump C/R data-path marks (flush marks / markers) into the machine.
    fn pump_marks(&mut self, state: Option<&dyn Checkpointable>) -> Result<()> {
        let marks = self.mpi.pump_ctrl(&mut self.clock);
        for (from, body, vt) in marks {
            if let Ok(msg) = CrMsg::decode_from_bytes(&body) {
                let outs = self.cr.mark(from, &msg, vt);
                self.carry(outs, state)?;
            }
        }
        Ok(())
    }

    /// Carry out what the machine answered, in order — with the
    /// application's state in hand, at a safepoint. Everything it sends the
    /// daemon goes up at the end, as one message. A batch that commits a
    /// round ends with one stats flush, which makes the round's layer
    /// histograms and checkpoint costs visible cluster-wide; the members'
    /// snapshots, handed over with their `Saved`s, go out with it.
    pub(crate) fn carry(
        &mut self,
        outs: Vec<Out>,
        state: Option<&dyn Checkpointable>,
    ) -> Result<()> {
        let mut ups = Vec::new();
        let carried = self.carry_into(outs, state, &mut ups);
        if ups
            .iter()
            .any(|up| matches!(up, ProcUp::CkptCommitted { .. }))
        {
            ups.push(self.stats_up());
        }
        self.send_ups(ups);
        carried
    }

    /// [`carry`](Self::carry), gathering what goes up in `ups`. A `Saved`
    /// carries the rank's cumulative snapshot.
    fn carry_into(
        &mut self,
        outs: Vec<Out>,
        state: Option<&dyn Checkpointable>,
        ups: &mut Vec<ProcUp>,
    ) -> Result<()> {
        if self.debug && !outs.is_empty() {
            eprintln!("[rt {}.{}] {outs:?}", self.app, self.rank);
        }
        for out in outs {
            match out {
                Out::Merge(t) => {
                    self.clock.merge(t);
                }
                Out::Up { to, msg } => {
                    let (kind, body) = (RelayKind::CheckpointRestart, msg.encode_to_bytes());
                    let vt = self.clock.now();
                    let saved = matches!(msg, CrMsg::Saved { .. });
                    ups.push(match to {
                        Some(to) => {
                            let stats = saved.then(|| self.rank_stats());
                            ProcUp::SendTo {
                                kind,
                                to,
                                body,
                                stats,
                                vt,
                            }
                        }
                        None => ProcUp::Cast { kind, body, vt },
                    });
                }
                Out::Mark { to, msg, at } => self.send_mark(to, msg, at),
                Out::Capture { kind, owed, .. } => self.capture(kind, owed, state),
                Out::Write { index, recorded } => {
                    let taken_at = self.write(index, recorded)?;
                    let outs = self.cr.written(index, taken_at);
                    self.carry_into(outs, state, ups)?;
                }
                Out::Record(from) => self.mpi.start_recording(from),
                Out::Unrecord(from) => self.mpi.stop_recording(from),
                Out::Interval(i) => self.mpi.piggyback_interval = i,
                Out::RoundClosed => self.note_round_done(),
                Out::Committed { index, saveds } => ups.push(self.committed(index, saveds)),
            }
        }
        Ok(())
    }

    /// A mark on the data path. Channel capture assumes everything in
    /// flight precedes the marks on the wire: push any rendezvous payloads
    /// still parked awaiting CTS *before* the mark, so the per-link FIFO
    /// delivers them ahead of it (receivers merge unsolicited DATA like a
    /// granted push). A mark that cannot leave — the peer is mid-restart or
    /// crashed — goes back to the machine, which has it retried at service
    /// points; genuinely dead peers are resolved by the membership layer.
    fn send_mark(&mut self, to: Rank, msg: CrMsg, at: Option<VirtualTime>) {
        let body = msg.encode_to_bytes();
        let sent = match at {
            Some(at) => self.mpi.resend_ctrl_mark_at(at, to, &body),
            None => {
                self.open_round_phase();
                self.mpi.push_pending_rendezvous(&mut self.clock);
                self.mpi
                    .recorder()
                    .mark(self.clock.now(), "cr.mark", &msg.trace_label());
                self.mpi.send_ctrl_mark(&mut self.clock, to, &body)
            }
        };
        if sent.is_err() {
            let at = at.unwrap_or(self.clock.now());
            self.cr.mark_failed(to, msg, at);
        }
    }

    /// Capture a checkpoint: the state in hand (`Live`), or the
    /// safepoint cache with its replay log. The image records how many
    /// captures are owed to `checkpoint()` calls and, per peer, the sends a
    /// restored incarnation must suppress (machine-level fields beside the
    /// collective sequence number, present only when non-zero).
    fn capture(&mut self, kind: Capture, owed: u64, state: Option<&dyn Checkpointable>) {
        self.open_round_phase();
        let (user, coll_seq, replay) = match (&kind, state) {
            (Capture::Live, Some(s)) => (Some(s.save()), self.comm.coll_seq, Vec::new()),
            _ => (
                self.cache.state.clone(),
                self.cache.coll_seq,
                self.cache.consumed.clone(),
            ),
        };
        let mut fields = vec![("__coll_seq".to_string(), CkptValue::Int(coll_seq as i64))];
        fields.extend(user.map(|u| ("__user".to_string(), u)));
        if owed > 0 {
            fields.push(("__owed".to_string(), CkptValue::Int(owed as i64)));
        }
        if let Capture::Cached { sent } = kind {
            if sent.iter().any(|n| *n > 0) {
                let sent = sent.into_iter().map(|n| n as i64).collect();
                fields.push(("__sent".to_string(), CkptValue::IntArray(sent)));
            }
        }
        self.captured = Some(Captured {
            state: CkptValue::Record(fields),
            replay,
            taken_at: self.clock.now(),
        });
    }

    /// Write the image captured for `index`: its channel state is the
    /// replay log, then the recorded channels (Chandy–Lamport) or whatever
    /// is unconsumed right now (stop-and-sync guarantees that is all the
    /// remaining in-flight traffic). Returns when the capture was taken.
    fn write(&mut self, index: u64, recorded: bool) -> Result<VirtualTime> {
        let captured = (self.captured.take())
            .ok_or_else(|| Error::protocol(format!("image {index} written before its capture")))?;
        let queued = if recorded {
            self.mpi.take_recorded()
        } else {
            self.mpi.snapshot_channel(&mut self.clock)
        };
        // A snapshotted image is stamped after its channel snapshot.
        let stamp = if recorded {
            captured.taken_at
        } else {
            self.clock.now()
        };
        let dst = self.rank;
        let channel = (captured.replay.into_iter().chain(queued))
            .map(|(h, b)| ChannelMsg {
                src: h.src,
                dst,
                context: h.context,
                tag: h.tag,
                payload: b.to_vec(),
            })
            .collect();
        self.write_image(index, captured.state, channel, stamp)?;
        Ok(captured.taken_at)
    }

    /// The round this rank coordinated committed: it took in the members'
    /// `saveds` one after another, at its level's `CoordCosts::saved` each
    /// (DESIGN.md §6); what the daemon is told.
    fn committed(&mut self, index: u64, saveds: u32) -> ProcUp {
        let saved = self.entry.spec.level.coord_costs().saved;
        self.clock.advance(saved * u64::from(saveds));
        self.metrics.inc(metric::CKPT_ROUNDS);
        self.note_round_done();
        self.mpi.recorder().mark(
            self.clock.now(),
            "ckpt.committed",
            &format!("index {index}"),
        );
        self.ckpt_marks
            .insert(index, (self.clock.now(), self.consumed_total));
        ProcUp::CkptCommitted {
            index,
            vt: self.clock.now(),
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
        let bytes = img.total_bytes();
        // The store charges the write: the (modeled) stable-storage write
        // of a disk app, or for a replica app the serialized NIC cost of
        // pushing its fragments to peer memory.
        let receipt = self.store.put(img);
        if receipt.fragments > 0 {
            self.metrics
                .add(metric::CKPT_FRAGMENTS_STORED, u64::from(receipt.fragments));
            self.metrics
                .record(metric::CKPT_REPLICATION_BYTES, receipt.replicated_bytes);
        }
        let write_cost = receipt.cost;
        self.clock.advance(write_cost);
        self.metrics.record(metric::CKPT_IMAGE_BYTES, bytes);
        self.metrics.record_vt(metric::CKPT_WRITE_NS, write_cost);
        self.mpi.recorder().span(
            taken_at,
            self.clock.now(),
            "ckpt.write",
            &format!("index {index}, {bytes} B"),
        );
        Ok(())
    }

    /// The application hands over its state: it is what a capture inside a
    /// later communication call is taken of, and the machine counts sends
    /// from here.
    pub(crate) fn cache_safepoint(&mut self, state: &dyn Checkpointable) {
        self.cache.refresh(Some(state.save()), self.comm.coll_seq);
        self.cr.safepoint();
    }

    /// Full safepoint: end an adopted trace (what the rank does next is
    /// its own step), refresh the cache if it is [stale](SafepointCache::stale),
    /// service everything; if a stop-and-sync round is in progress, hold
    /// here (quiesce) until it commits.
    pub(crate) fn safepoint(&mut self, state: &dyn Checkpointable) -> Result<()> {
        self.mpi.recorder().end_trace();
        if self.cache.stale() {
            self.cache_safepoint(state);
        }
        self.service(Some(state))?;
        self.hold_while_stopped(Some(state))
    }

    /// Stop-and-sync quiesce: stay at this service point while a round has
    /// the process stopped, until its Resume.
    pub(crate) fn hold_while_stopped(&mut self, state: Option<&dyn Checkpointable>) -> Result<()> {
        self.service_until(state, HOLD_LIMIT, "quiesce never completed", |rt| {
            !rt.cr.held()
        })
    }

    // ---- restart ---------------------------------------------------------------

    /// Load (or reset to) checkpoint `index`, entering `epoch`, before
    /// (re-)entering the application code.
    pub(crate) fn load_checkpoint(&mut self, index: u64, epoch: Option<Epoch>) {
        self.abort_flag.store(false, Ordering::Relaxed);
        self.bus.clear();
        // Drop forensic marks past the restored line and rewind the
        // consumed counter to the line's value.
        self.ckpt_marks.split_off(&(index + 1));
        self.consumed_total = self.ckpt_marks.get(&index).map(|m| m.1).unwrap_or(0);
        if let Some(e) = epoch {
            self.mpi.set_epoch(e);
        }
        self.comm = Comm::world(self.size, self.rank);
        let image = self.read_image(index);
        let line = if image.is_some() { index } else { 0 };
        let field = |name| image.as_ref().and_then(|v| v.field(name));
        let int = |name| match field(name) {
            Some(CkptValue::Int(n)) => *n as u64,
            _ => 0,
        };
        let sent: Vec<u64> = match field("__sent") {
            Some(CkptValue::IntArray(s)) => s.iter().map(|n| *n as u64).collect(),
            _ => Vec::new(),
        };
        self.comm.coll_seq = int("__coll_seq");
        self.restored = field("__user").cloned();
        self.cache
            .refresh(self.restored.clone(), self.comm.coll_seq);
        self.captured = None;
        self.cr.restored(line, int("__owed"), &sent);
        self.mpi.piggyback_interval = line;
    }

    /// Read image `index` back and refill the receive queue from its
    /// channel state; `None` (and an empty queue) when there is no image —
    /// index 0, a recovery line at 0 for this rank — or it cannot be
    /// restored here (a native image on a different machine: the paper's
    /// native-level restriction). The rank then starts fresh.
    fn read_image(&mut self, index: u64) -> Option<CkptValue> {
        let restored = if index == 0 { None } else { self.fetch(index) };
        let Some((value, channel)) = restored else {
            self.mpi.restore_channel(Vec::new(), self.clock.now());
            return None;
        };
        let epoch = self.mpi.epoch();
        let msgs: Vec<(MsgHeader, Bytes)> = channel
            .into_iter()
            .map(|m| {
                let header = MsgHeader {
                    src: m.src,
                    context: m.context,
                    tag: m.tag,
                    epoch,
                    interval: 0,
                    seq: 0,
                    flags: 0,
                    credit: 0,
                };
                (header, Bytes::from(m.payload))
            })
            .collect();
        self.mpi.restore_channel(msgs, self.clock.now());
        Some(value)
    }

    /// Fetch image `index` and charge its restore costs: the store's read
    /// (replica-backed apps reassemble it from surviving peers at fabric
    /// speed, disk apps read it back at the modeled disk rate); a different
    /// saving machine adds representation conversion.
    fn fetch(&mut self, index: u64) -> Option<(CkptValue, Vec<ChannelMsg>)> {
        let f = self.store.fetch(self.app, self.rank, index, self.node)?;
        // A disk read moves no fragments.
        let from_peers = f.fragments_fetched > 0;
        if from_peers {
            self.metrics.add(
                metric::CKPT_FRAGMENTS_FETCHED,
                u64::from(f.fragments_fetched),
            );
            self.metrics
                .add(metric::CKPT_PARITY_REBUILDS, u64::from(f.parity_rebuilds));
        }
        let (value, report) = f.img.restore_state(self.arch).ok()?;
        self.clock.advance(f.cost);
        if from_peers {
            self.metrics.record_vt(metric::RECOVERY_FETCH_NS, f.cost);
        }
        if !report.identical() {
            self.clock
                .advance(VirtualTime::transfer(report.body_bytes, CONVERT_BW));
        }
        Some((value, f.img.channel))
    }
}

/// The process main loop: run the user code, re-entering after rollbacks.
pub(crate) fn process_main(mut rt: ProcessRuntime, run: Arc<crate::host::AppFn>) {
    loop {
        if let Some((idx, epoch)) = rt.cr.take_rewind() {
            let started = rt.clock.now();
            rt.mpi.recorder().phase_begin(started, "recovery.restore");
            rt.load_checkpoint(idx, epoch);
            let now = rt.clock.now();
            rt.metrics.inc(metric::RECOVERY_RESTARTS);
            rt.metrics
                .record_vt(metric::RECOVERY_RESTORE_NS, now - started);
            rt.mpi
                .recorder()
                .phase_end(now, "recovery.restore", &format!("to index {idx}"));
            rt.restored_at = Some(now);
            let flush = rt.stats_up();
            rt.send_up(flush);
        }
        let result = {
            let mut ctx = crate::ctx::Ctx { rt: &mut rt };
            run(&mut ctx)
        };
        match result {
            Ok(()) => {
                // The last flush and `Done` go up together: one cast.
                let (outs, mut ups) = (rt.cr.finish(), Vec::new());
                let _ = rt.carry_into(outs, None, &mut ups);
                ups.push(rt.stats_up());
                ups.push(ProcUp::Done { vt: rt.clock.now() });
                rt.send_ups(ups);
                return;
            }
            Err(Error::Interrupted(_)) => {
                // Interrupted without a rollback (yet): the Rollback may be
                // right behind the abort.
                let _ = rt.service_until(None, REWIND_WAIT, "rollback", |rt| {
                    rt.cr.rewinding() || rt.cr.killed()
                });
                if rt.cr.killed() || !rt.cr.rewinding() {
                    return;
                }
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
