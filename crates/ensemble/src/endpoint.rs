//! The group-communication stack: one per Starfish daemon.
//!
//! A [`Stack`] is the I/O shell around one [`Group`] machine (`group.rs`
//! decides membership, sequencing and flush; the crate docs state the
//! guarantees). It owns what the machine may not name — the fabric port,
//! the fabric-event queue, the virtual clock, the instruments — and no
//! thread: its owner parks in [`Stack::wait`], which feeds what arrived to
//! the machine and carries out the answers in order — a `Send` becomes a
//! packet (a failed one is reported back), the rest a [`GcEvent`], a metric
//! or a trace record. Commands are direct calls. A daemon's node loop owns
//! its `Stack`; [`Endpoint`] is a `Stack` on a thread of its own.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{self, Receiver, RecvTimeoutError};
use parking_lot::Mutex;

use starfish_telemetry::{metric, Registry};
use starfish_trace::FlightRecorder;
use starfish_util::codec::{Decode, Encode};
use starfish_util::trace::{ActorKind, MsgClass, TraceSink};
use starfish_util::{Error, NodeId, Result, VClock, ViewId, VirtualTime};
use starfish_vni::{Addr, Fabric, FabricEvent, Kick, KickSender, Packet, PacketKind, Port, PortId};

use crate::group::{Group, HeartbeatCfg, HeartbeatChaos, Out};
use crate::msg::GcMsg;
use crate::view::View;

/// Well-known fabric port of the group-communication stack on every node.
pub const ENSEMBLE_PORT: PortId = PortId(1);

/// Configuration of an endpoint.
#[derive(Clone)]
pub struct EndpointConfig {
    /// Virtual CPU cost charged for handling one protocol message at a
    /// daemon. Calibrated for the era's daemons (OCaml bytecode): 50 µs.
    pub proc_cost: VirtualTime,
    /// Message-taxonomy trace sink (control messages).
    pub trace: TraceSink,
    /// Optional heartbeat failure detection. `None` (the default) relies on
    /// fabric events alone — a perfect failure detector, which keeps the
    /// virtual timeline deterministic. Enable for hang detection.
    pub heartbeat: Option<HeartbeatCfg>,
    /// Optional seeded perturbation of the heartbeat path (only meaningful
    /// together with `heartbeat`).
    pub chaos: Option<HeartbeatChaos>,
    /// Telemetry registry: view changes, cast deliveries and heartbeat
    /// misses are recorded here when present.
    pub metrics: Option<Registry>,
    /// This daemon's flight recorder: cast submissions/deliveries and view
    /// installations become causal trace events, with contexts carried on
    /// `CastReq`/`SeqCast` so the whole cast stitches across members.
    pub recorder: FlightRecorder,
}

impl Default for EndpointConfig {
    fn default() -> Self {
        EndpointConfig {
            proc_cost: VirtualTime::from_micros(50),
            trace: TraceSink::disabled(),
            heartbeat: None,
            chaos: None,
            metrics: None,
            recorder: FlightRecorder::disabled(),
        }
    }
}

/// Deliveries from the group-communication stack to its owner.
#[derive(Debug, Clone)]
pub enum GcEvent {
    /// A new view was installed.
    View { view: View, vt: VirtualTime },
    /// The failure detector stopped hearing heartbeats from a member.
    /// Advisory: the member is about to be excluded through the normal
    /// failure path (a `View` follows); `silent_for` is how long the member
    /// had been silent when suspicion fired — the detection latency.
    Suspected {
        node: NodeId,
        silent_for: Duration,
        vt: VirtualTime,
    },
    /// A totally ordered cast.
    Cast {
        from: NodeId,
        seq: u64,
        view: ViewId,
        payload: Bytes,
        vt: VirtualTime,
    },
    /// A point-to-point message from another member.
    P2p {
        from: NodeId,
        payload: Bytes,
        vt: VirtualTime,
    },
    /// This endpoint has left the group (gracefully or because it was
    /// excluded); no further events follow.
    Left,
}

/// Shared read view of when a stack last heard a packet — heartbeat or
/// otherwise — from each peer (mgmt `HEALTH`). Defaults to an empty table.
#[derive(Clone, Default)]
pub struct HeartbeatAges {
    last_seen: Arc<Mutex<BTreeMap<NodeId, Instant>>>,
}

impl HeartbeatAges {
    /// `(peer, time since last heard)` for every peer ever heard from.
    pub fn ages(&self) -> Vec<(NodeId, Duration)> {
        let now = Instant::now(); // lint: allow(wall-clock)
        self.last_seen
            .lock()
            .iter()
            .map(|(n, seen)| (*n, now.saturating_duration_since(*seen)))
            .collect()
    }
}

/// The thread-free I/O shell around one [`Group`] machine (module docs).
pub struct Stack {
    group: Group,
    fabric: Fabric,
    port: Port,
    fabric_events: Receiver<FabricEvent>,
    cfg: EndpointConfig,
    clock: VClock,
    /// The machine's time is the real time since this instant.
    epoch: Instant,
    /// Deliveries not handed to the owner yet (the next `wait` returns them).
    events: Vec<GcEvent>,
    liveness: HeartbeatAges,
    /// When (virtual) the change this member coordinates was opened; timed
    /// into `ensemble.view_change_ns` when the resulting view installs.
    change_started: Option<VirtualTime>,
    /// Our node crashed under us; `Left` has been said if anyone listens.
    dead: bool,
    /// `STARFISH_GC_DEBUG`: print what the machine answers.
    debug: bool,
}

impl Stack {
    /// Bind `node`'s ensemble port; found a new group (`contact == None`: the
    /// single member and coordinator of view 1) or join `contact`'s.
    pub fn start(
        fabric: &Fabric,
        node: NodeId,
        contact: Option<NodeId>,
        cfg: EndpointConfig,
    ) -> Result<Stack> {
        let port = fabric.bind(Addr::new(node, ENSEMBLE_PORT))?;
        let fabric_events = fabric.subscribe(port.kicker());
        let (group, first) = Group::new(node, contact, cfg.heartbeat, cfg.chaos, Duration::ZERO);
        let mut stack = Stack {
            group,
            fabric: fabric.clone(),
            port,
            fabric_events,
            debug: std::env::var_os("STARFISH_GC_DEBUG").is_some(),
            cfg,
            clock: VClock::new(),
            epoch: Instant::now(), // lint: allow(wall-clock)
            events: Vec::new(),
            liveness: HeartbeatAges::default(),
            change_started: None,
            dead: false,
        };
        stack.apply(first);
        Ok(stack)
    }

    /// Latest installed view, if any.
    pub fn view(&self) -> Option<&View> {
        self.group.view()
    }

    /// Cheap clonable handle onto the last-heard table.
    pub fn liveness(&self) -> HeartbeatAges {
        self.liveness.clone()
    }

    /// Wakes the owner out of [`wait`](Self::wait) (for its `KickSender`s).
    pub fn kicker(&self) -> Kick {
        self.port.kicker()
    }

    /// Finished: left, excluded, or our node crashed under us.
    pub fn done(&self) -> bool {
        self.dead || self.group.is_gone()
    }

    /// The owner's one wait point: park on the port until a packet, a
    /// [kick](Self::kicker), closure, the machine's deadline or `limit`
    /// (`Duration::MAX`: none); handle the packets, drain the fabric events,
    /// tick. Returns the deliveries since the last call — at once if a
    /// command has produced some, or the stack is [`done`](Self::done).
    pub fn wait(&mut self, limit: Duration) -> Vec<GcEvent> {
        if self.events.is_empty() && !self.done() {
            let left = |at: Duration| at.saturating_sub(self.epoch.elapsed()).min(limit);
            let timeout = self.group.deadline().map_or(limit, left);
            match self.port.recv_batch_timeout(usize::MAX, timeout) {
                Ok(batch) => batch.into_iter().for_each(|pkt| self.on_packet(pkt)),
                Err(Error::Interrupted(_)) => {} // kicked: events below, or the owner's queues
                Err(_) => self.node_down(),      // closed, and drained
            }
            while let (false, Ok(ev)) = (self.done(), self.fabric_events.try_recv()) {
                self.on_fabric_event(ev);
            }
            let outs = self.group.tick(self.epoch.elapsed());
            self.apply(outs);
        }
        std::mem::take(&mut self.events)
    }

    fn on_fabric_event(&mut self, ev: FabricEvent) {
        // Anything else is not about a node.
        let (FabricEvent::NodeCrashed(n) | FabricEvent::NodeRemoved(n)) = ev else {
            return;
        };
        if n == self.group.node() {
            return self.node_down();
        }
        let outs = self.group.member_failed(n);
        self.apply(outs);
    }

    fn node_down(&mut self) {
        if !std::mem::replace(&mut self.dead, true) && !self.group.is_gone() {
            self.events.push(GcEvent::Left);
        }
    }

    fn on_packet(&mut self, pkt: Packet) {
        let msg = match GcMsg::decode_from_bytes(&pkt.payload) {
            Ok(msg) if !self.done() => msg,
            _ => return, // corrupt, or nobody left to hear it: drop
        };
        let (from, now) = (pkt.src.node, self.epoch.elapsed());
        let heard = self.epoch + now;
        self.liveness.last_seen.lock().insert(from, heard);
        // Beacons and join retransmissions are real-time artifacts (of the
        // failure detector, of bootstrap): they must not advance the virtual
        // clock, or scheduling noise would leak into every measurement.
        if !matches!(msg, GcMsg::Heartbeat { .. }) {
            self.clock.merge(pkt.arrive_vt);
            if !matches!(&msg, GcMsg::JoinReq { node } if self.group.knows_joiner(*node)) {
                self.clock.advance(self.cfg.proc_cost);
            }
        }
        let outs = self.group.on_msg(from, msg, now);
        self.apply(outs);
    }

    /// Submit a totally ordered multicast. `vt` is the caller's current
    /// virtual time.
    pub fn cast(&mut self, payload: Bytes, vt: VirtualTime) {
        self.clock.merge(vt);
        self.clock.advance(self.cfg.proc_cost);
        // The submission is this daemon's send event; the context minted
        // here survives sequencing, backfill and flush, so every member's
        // delivery stitches back to it.
        let (now, node) = (self.clock.now(), self.group.node().0);
        let ctx = self.cfg.recorder.on_send(now, node, 0, 0, payload.len());
        let outs = self.group.cast(payload, ctx);
        self.apply(outs);
    }

    /// Point-to-point send to another member.
    pub fn send_to(&mut self, node: NodeId, payload: Bytes, vt: VirtualTime) {
        self.clock.merge(vt);
        self.clock.advance(self.cfg.proc_cost);
        let outs = self.group.send_to(node, payload);
        self.apply(outs);
    }

    /// Leave the group gracefully. The final event will be [`GcEvent::Left`].
    pub fn leave(&mut self) {
        let outs = self.group.leave();
        self.apply(outs);
    }

    /// Carry out what the machine answered to an input, in order. A send
    /// that fails goes back to the machine; its answer joins the queue.
    fn apply(&mut self, outs: Vec<Out>) {
        if self.debug && !outs.is_empty() {
            eprintln!("[gc {}] {outs:?}", self.group.node()); // inputs are peers' `Send`s
        }
        let mut queue = VecDeque::from(outs);
        while let Some(out) = queue.pop_front() {
            let vt = self.clock.now();
            match out {
                Out::Send { to, msg } => match self.send_gc(to, &msg) {
                    Ok(()) => {}
                    // *We* are the dead side: do not blame the receiver.
                    Err(Error::Closed(_)) => return self.dead = true,
                    Err(_) => queue.extend(self.group.send_failed(to, msg)),
                },
                Out::ChangeOpened => self.change_started = Some(vt),
                Out::View(view) => {
                    if let Some(m) = &self.cfg.metrics {
                        m.inc(metric::ENSEMBLE_VIEW_CHANGES);
                        if let Some(started) = self.change_started.take() {
                            m.record_vt(metric::ENSEMBLE_VIEW_CHANGE_NS, vt - started);
                        }
                    }
                    self.cfg
                        .recorder
                        .view_change(vt, view.id.0, view.size() as u32);
                    self.events.push(GcEvent::View { view, vt });
                }
                Out::Deliver { view, entry: e } => {
                    if let Some(m) = &self.cfg.metrics {
                        m.inc(metric::ENSEMBLE_CASTS);
                    }
                    self.cfg
                        .recorder
                        .on_recv(vt, e.origin.0, 0, e.seq, e.payload.len(), e.ctx);
                    self.events.push(GcEvent::Cast {
                        from: e.origin,
                        seq: e.seq,
                        view,
                        payload: e.payload,
                        vt,
                    });
                }
                Out::P2p { from, payload } => self.events.push(GcEvent::P2p { from, payload, vt }),
                Out::Suspected { node, silent_for } => {
                    if let Some(reg) = &self.cfg.metrics {
                        reg.inc(metric::ENSEMBLE_HEARTBEAT_MISSES);
                        // Detection latency: how long the member had actually
                        // been silent when the detector fired.
                        reg.record(metric::RECOVERY_DETECT_NS, silent_for.as_nanos() as u64);
                    }
                    self.events.push(GcEvent::Suspected {
                        node,
                        silent_for,
                        vt,
                    });
                }
                Out::Left => self.events.push(GcEvent::Left),
            }
        }
    }

    fn send_gc(&mut self, to: NodeId, msg: &GcMsg) -> Result<()> {
        let payload = msg.encode_to_bytes();
        self.cfg.trace.record(
            MsgClass::Control,
            ActorKind::Daemon,
            ActorKind::Daemon,
            "ensemble",
            payload.len(),
        );
        let mut pkt = Packet::new(
            Addr::new(self.group.node(), ENSEMBLE_PORT),
            Addr::new(to, ENSEMBLE_PORT),
            PacketKind::Control,
            0,
            payload,
        );
        pkt.depart_vt = self.clock.now();
        self.fabric.send(pkt)
    }
}

// -- The threaded driver of a `Stack`, for standalone use ---------------------

/// What an [`Endpoint`]'s owner asks of the stack its thread drives.
type Cmd = Box<dyn FnOnce(&mut Stack) + Send>;

/// Handle to a [`Stack`] running on a thread of its own: commands go in
/// through a queue whose sender kicks the stack's wait point, deliveries
/// come out of a channel.
pub struct Endpoint {
    node: NodeId,
    cmd_tx: KickSender<Cmd>,
    events_rx: Receiver<GcEvent>,
    liveness: HeartbeatAges,
}

impl Endpoint {
    /// [`Stack::start`] a new group, on a thread of its own.
    pub fn found(fabric: &Fabric, node: NodeId, cfg: EndpointConfig) -> Result<Endpoint> {
        Stack::start(fabric, node, None, cfg).map(|stack| Self::drive(node, stack))
    }

    /// [`Stack::start`] in `contact`'s group, on a thread of its own.
    pub fn join(
        fabric: &Fabric,
        node: NodeId,
        contact: NodeId,
        cfg: EndpointConfig,
    ) -> Result<Endpoint> {
        Stack::start(fabric, node, Some(contact), cfg).map(|stack| Self::drive(node, stack))
    }

    fn drive(node: NodeId, mut stack: Stack) -> Endpoint {
        let (cmd_tx, cmd_rx) = channel::unbounded::<Cmd>();
        let (events_tx, events_rx) = channel::unbounded();
        let ep = Endpoint {
            node,
            cmd_tx: KickSender::new(cmd_tx, stack.kicker()),
            events_rx,
            liveness: stack.liveness(),
        };
        // Deliveries out, then commands in — every pass, whatever ended the
        // wait: a kick only says "look". (A dropped owner said `leave`.)
        let run = move || loop {
            for ev in stack.wait(Duration::MAX) {
                let _ = events_tx.send(ev);
            }
            if stack.done() {
                return;
            }
            while let Ok(cmd) = cmd_rx.try_recv() {
                cmd(&mut stack);
            }
        };
        std::thread::Builder::new()
            .name(format!("ensemble-{node}"))
            .spawn(run)
            .expect("spawn ensemble stack");
        ep
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Latest installed view, if any: asked of the stack itself, so never
    /// older than the last delivery (`None` once its thread has finished).
    pub fn current_view(&self) -> Option<View> {
        let (tx, rx) = channel::unbounded();
        let asked = self.command(move |stack| drop(tx.send(stack.view().cloned())));
        asked.ok().and_then(|()| rx.recv().ok()).flatten()
    }

    fn command(&self, cmd: impl FnOnce(&mut Stack) + Send + 'static) -> Result<()> {
        let queued = self.cmd_tx.send(Box::new(cmd));
        queued.map_err(|_| Error::closed("ensemble stack gone"))
    }

    /// [`Stack::cast`].
    pub fn cast(&self, payload: Bytes, vt: VirtualTime) -> Result<()> {
        self.command(move |stack| stack.cast(payload, vt))
    }

    /// [`Stack::send_to`].
    pub fn send_to(&self, node: NodeId, payload: Bytes, vt: VirtualTime) -> Result<()> {
        self.command(move |stack| stack.send_to(node, payload, vt))
    }

    /// [`Stack::leave`].
    pub fn leave(&self) -> Result<()> {
        self.command(Stack::leave)
    }

    /// The delivery stream.
    pub fn events(&self) -> &Receiver<GcEvent> {
        &self.events_rx
    }

    /// [`HeartbeatAges::ages`] of this endpoint's stack.
    pub fn heartbeat_ages(&self) -> Vec<(NodeId, Duration)> {
        self.liveness.ages()
    }

    /// [`Stack::liveness`].
    pub fn liveness(&self) -> HeartbeatAges {
        self.liveness.clone()
    }

    /// Test/bootstrap helper: block until a view containing `expect_members`
    /// members is installed, returning it (events consumed in the process
    /// are NOT replayed; use only when driving the endpoint directly).
    pub fn wait_for_view_size(&self, size: usize, timeout: Duration) -> Result<View> {
        let started = Instant::now(); // lint: allow(wall-clock)
        loop {
            let remain = timeout.saturating_sub(started.elapsed());
            match self.events_rx.recv_timeout(remain) {
                Ok(GcEvent::View { view, .. }) if view.size() == size => return Ok(view),
                Ok(_) => continue,
                Err(RecvTimeoutError::Timeout) => return Err(Error::timeout("wait_for_view_size")),
                Err(RecvTimeoutError::Disconnected) => return Err(Error::closed("stack gone")),
            }
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        let _ = self.leave();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_vni::{Ideal, LayerCosts};
    use std::time::Duration;

    fn fabric(n: u32) -> Fabric {
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        for i in 0..n {
            f.add_node(NodeId(i));
        }
        f
    }

    fn drain_until_casts(
        ep: &Endpoint,
        want: usize,
        timeout: Duration,
    ) -> Vec<(NodeId, u64, Bytes)> {
        let deadline = std::time::Instant::now() + timeout;
        let mut out = Vec::new();
        while out.len() < want {
            let remain = deadline
                .checked_duration_since(std::time::Instant::now())
                .unwrap_or_default();
            match ep.events().recv_timeout(remain) {
                Ok(GcEvent::Cast {
                    from, seq, payload, ..
                }) => out.push((from, seq, payload)),
                Ok(_) => {}
                Err(_) => break,
            }
        }
        out
    }

    #[test]
    fn found_singleton_view() {
        let f = fabric(1);
        let ep = Endpoint::found(&f, NodeId(0), EndpointConfig::default()).unwrap();
        let v = ep.wait_for_view_size(1, Duration::from_secs(2)).unwrap();
        assert_eq!(v.members, vec![NodeId(0)]);
        assert_eq!(v.coordinator(), NodeId(0));
    }

    #[test]
    fn three_members_join_incrementally() {
        let f = fabric(3);
        let e0 = Endpoint::found(&f, NodeId(0), EndpointConfig::default()).unwrap();
        let e1 = Endpoint::join(&f, NodeId(1), NodeId(0), EndpointConfig::default()).unwrap();
        let v = e1.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        assert_eq!(v.members, vec![NodeId(0), NodeId(1)]);
        let e2 = Endpoint::join(&f, NodeId(2), NodeId(1), EndpointConfig::default()).unwrap();
        let v = e2.wait_for_view_size(3, Duration::from_secs(5)).unwrap();
        assert_eq!(v.members, vec![NodeId(0), NodeId(1), NodeId(2)]);
        // All members converge to the same view.
        let v0 = e0.wait_for_view_size(3, Duration::from_secs(5)).unwrap();
        assert_eq!(v0.id, v.id);
    }

    #[test]
    fn casts_are_totally_ordered_across_members() {
        let f = fabric(3);
        let e0 = Endpoint::found(&f, NodeId(0), EndpointConfig::default()).unwrap();
        let e1 = Endpoint::join(&f, NodeId(1), NodeId(0), EndpointConfig::default()).unwrap();
        e1.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        let e2 = Endpoint::join(&f, NodeId(2), NodeId(0), EndpointConfig::default()).unwrap();
        e2.wait_for_view_size(3, Duration::from_secs(5)).unwrap();
        e0.wait_for_view_size(3, Duration::from_secs(5)).unwrap();
        e1.wait_for_view_size(3, Duration::from_secs(5)).unwrap();

        // Concurrent casters.
        let n_each = 50;
        for i in 0..n_each {
            e0.cast(Bytes::from(format!("a{i}")), VirtualTime::ZERO)
                .unwrap();
            e1.cast(Bytes::from(format!("b{i}")), VirtualTime::ZERO)
                .unwrap();
            e2.cast(Bytes::from(format!("c{i}")), VirtualTime::ZERO)
                .unwrap();
        }
        let want = 3 * n_each;
        let d0 = drain_until_casts(&e0, want, Duration::from_secs(10));
        let d1 = drain_until_casts(&e1, want, Duration::from_secs(10));
        let d2 = drain_until_casts(&e2, want, Duration::from_secs(10));
        assert_eq!(d0.len(), want);
        assert_eq!(d0, d1);
        assert_eq!(d0, d2);
        // Sequence numbers are gap-free from 1.
        for (i, (_, seq, _)) in d0.iter().enumerate() {
            assert_eq!(*seq, (i + 1) as u64);
        }
    }

    #[test]
    fn member_crash_installs_smaller_view() {
        let f = fabric(3);
        let e0 = Endpoint::found(&f, NodeId(0), EndpointConfig::default()).unwrap();
        let e1 = Endpoint::join(&f, NodeId(1), NodeId(0), EndpointConfig::default()).unwrap();
        e1.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        let e2 = Endpoint::join(&f, NodeId(2), NodeId(0), EndpointConfig::default()).unwrap();
        e2.wait_for_view_size(3, Duration::from_secs(5)).unwrap();
        e0.wait_for_view_size(3, Duration::from_secs(5)).unwrap();
        e1.wait_for_view_size(3, Duration::from_secs(5)).unwrap();

        f.crash_node(NodeId(2));
        let v0 = e0.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        let v1 = e1.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        assert_eq!(v0.members, vec![NodeId(0), NodeId(1)]);
        assert_eq!(v0.id, v1.id);
    }

    #[test]
    fn coordinator_crash_elects_next_smallest() {
        let f = fabric(3);
        let e0 = Endpoint::found(&f, NodeId(0), EndpointConfig::default()).unwrap();
        let e1 = Endpoint::join(&f, NodeId(1), NodeId(0), EndpointConfig::default()).unwrap();
        e1.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        let e2 = Endpoint::join(&f, NodeId(2), NodeId(0), EndpointConfig::default()).unwrap();
        e2.wait_for_view_size(3, Duration::from_secs(5)).unwrap();
        e1.wait_for_view_size(3, Duration::from_secs(5)).unwrap();
        drop(e0);

        f.crash_node(NodeId(0));
        let v1 = e1.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        let v2 = e2.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        assert_eq!(v1.members, vec![NodeId(1), NodeId(2)]);
        assert_eq!(v1.coordinator(), NodeId(1));
        assert_eq!(v1.id, v2.id);
        // The group still works: new coordinator sequences casts.
        e2.cast(Bytes::from_static(b"post-crash"), VirtualTime::ZERO)
            .unwrap();
        let got = drain_until_casts(&e1, 1, Duration::from_secs(5));
        assert_eq!(got.len(), 1);
        assert_eq!(&got[0].2[..], b"post-crash");
    }

    #[test]
    fn coordinator_crash_without_graceful_leave() {
        // Unlike `coordinator_crash_elects_next_smallest`, the coordinator's
        // endpoint handle stays alive: the only signal is the node crash, so
        // the successor must take over recovery on its own.
        let f = fabric(3);
        let e0 = Endpoint::found(&f, NodeId(0), EndpointConfig::default()).unwrap();
        let e1 = Endpoint::join(&f, NodeId(1), NodeId(0), EndpointConfig::default()).unwrap();
        e1.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        let e2 = Endpoint::join(&f, NodeId(2), NodeId(0), EndpointConfig::default()).unwrap();
        e2.wait_for_view_size(3, Duration::from_secs(5)).unwrap();
        e1.wait_for_view_size(3, Duration::from_secs(5)).unwrap();

        f.crash_node(NodeId(0));
        let v1 = e1.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        let v2 = e2.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        assert_eq!(v1.members, vec![NodeId(1), NodeId(2)]);
        assert_eq!(v1.coordinator(), NodeId(1));
        assert_eq!(v1.id, v2.id);
        // The new coordinator sequences casts.
        e2.cast(Bytes::from_static(b"recovered"), VirtualTime::ZERO)
            .unwrap();
        let got = drain_until_casts(&e1, 1, Duration::from_secs(5));
        assert_eq!(&got[0].2[..], b"recovered");
        drop(e0);
    }

    #[test]
    fn graceful_leave_shrinks_view() {
        let f = fabric(2);
        let e0 = Endpoint::found(&f, NodeId(0), EndpointConfig::default()).unwrap();
        let e1 = Endpoint::join(&f, NodeId(1), NodeId(0), EndpointConfig::default()).unwrap();
        e1.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        e0.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        e1.leave().unwrap();
        // e1 gets Left.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            assert!(std::time::Instant::now() < deadline, "no Left event");
            match e1.events().recv_timeout(Duration::from_secs(1)) {
                Ok(GcEvent::Left) => break,
                Ok(_) => continue,
                Err(_) => continue,
            }
        }
        // e0 sees the singleton view.
        let v0 = e0.wait_for_view_size(1, Duration::from_secs(5)).unwrap();
        assert_eq!(v0.members, vec![NodeId(0)]);
    }

    #[test]
    fn p2p_between_members() {
        let f = fabric(2);
        let e0 = Endpoint::found(&f, NodeId(0), EndpointConfig::default()).unwrap();
        let e1 = Endpoint::join(&f, NodeId(1), NodeId(0), EndpointConfig::default()).unwrap();
        e1.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        e0.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        e0.send_to(NodeId(1), Bytes::from_static(b"direct"), VirtualTime::ZERO)
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            assert!(std::time::Instant::now() < deadline, "no P2p event");
            match e1.events().recv_timeout(Duration::from_secs(1)) {
                Ok(GcEvent::P2p { from, payload, .. }) => {
                    assert_eq!(from, NodeId(0));
                    assert_eq!(&payload[..], b"direct");
                    break;
                }
                _ => continue,
            }
        }
    }

    #[test]
    fn cast_before_any_remote_member_still_delivers_locally() {
        let f = fabric(1);
        let e0 = Endpoint::found(&f, NodeId(0), EndpointConfig::default()).unwrap();
        e0.wait_for_view_size(1, Duration::from_secs(2)).unwrap();
        e0.cast(Bytes::from_static(b"solo"), VirtualTime::ZERO)
            .unwrap();
        let got = drain_until_casts(&e0, 1, Duration::from_secs(5));
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, NodeId(0));
    }

    #[test]
    fn virtual_time_flows_through_casts() {
        let f = Fabric::new(Box::new(starfish_vni::TcpEthernet), LayerCosts::zero());
        f.add_node(NodeId(0));
        f.add_node(NodeId(1));
        let e0 = Endpoint::found(&f, NodeId(0), EndpointConfig::default()).unwrap();
        let e1 = Endpoint::join(&f, NodeId(1), NodeId(0), EndpointConfig::default()).unwrap();
        e1.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        e0.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        let start = VirtualTime::from_millis(5);
        e1.cast(Bytes::from_static(b"t"), start).unwrap();
        // Delivery at e0 is after: start + proc + wire(e1->e0) + proc + wire(e0->e0 is local-loop? no: e0 IS coordinator; e1->coord, coord multicasts).
        let got_vt = loop {
            match e0.events().recv_timeout(Duration::from_secs(5)).unwrap() {
                GcEvent::Cast { vt, .. } => break vt,
                _ => continue,
            }
        };
        // At minimum one TCP hop (239us) beyond the caller's start time.
        assert!(got_vt > start + VirtualTime::from_micros(239));
    }

    /// The threaded form of the hand-over regression: n2 streams casts while
    /// n0 — the smallest id, so the coordinator role moves to it — joins
    /// {n1, n2}. Nobody crashes, so nothing may be lost.
    #[test]
    fn casts_survive_a_coordinator_hand_over() {
        const CASTS: usize = 3_000;
        let f = fabric(3);
        let e1 = Endpoint::found(&f, NodeId(1), EndpointConfig::default()).unwrap();
        let e2 = Endpoint::join(&f, NodeId(2), NodeId(1), EndpointConfig::default()).unwrap();
        e2.wait_for_view_size(2, Duration::from_secs(5)).unwrap();
        let streamer = std::thread::spawn(move || {
            for i in 0..CASTS as u32 {
                let payload = Bytes::from(i.to_le_bytes().to_vec());
                e2.cast(payload, VirtualTime::ZERO).unwrap();
                if i % 64 == 0 {
                    std::thread::yield_now();
                }
            }
            e2
        });
        let e0 = Endpoint::join(&f, NodeId(0), NodeId(2), EndpointConfig::default()).unwrap();
        e0.wait_for_view_size(3, Duration::from_secs(10)).unwrap();
        let _e2 = streamer.join().unwrap();
        let got = drain_until_casts(&e1, CASTS, Duration::from_secs(20));
        let mut ids: Vec<u32> = got
            .iter()
            .map(|(_, _, p)| u32::from_le_bytes(p[..4].try_into().unwrap()))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), CASTS, "casts lost or duplicated in hand-over");
    }
}

#[cfg(test)]
mod churn_tests {
    use super::*;
    use starfish_vni::{Fabric, Ideal, LayerCosts};
    use std::time::Duration;

    /// Stress: joins interleaved with crashes; the survivors converge on one
    /// final view and total order still works afterwards.
    #[test]
    fn membership_churn_converges() {
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        for i in 0..6 {
            f.add_node(NodeId(i));
        }
        let e0 = Endpoint::found(&f, NodeId(0), EndpointConfig::default()).unwrap();
        let mut eps = vec![e0];
        for i in 1..4u32 {
            let ep = Endpoint::join(&f, NodeId(i), NodeId(0), EndpointConfig::default()).unwrap();
            ep.wait_for_view_size(i as usize + 1, Duration::from_secs(10))
                .unwrap();
            eps.push(ep);
        }
        // Crash one member and add two more while the change settles.
        f.crash_node(NodeId(2));
        let e4 = Endpoint::join(&f, NodeId(4), NodeId(0), EndpointConfig::default()).unwrap();
        let e5 = Endpoint::join(&f, NodeId(5), NodeId(1), EndpointConfig::default()).unwrap();
        eps.push(e4);
        eps.push(e5);
        eps.remove(2); // drop handle of the crashed member

        // Everyone alive converges on {0,1,3,4,5}.
        let want = vec![NodeId(0), NodeId(1), NodeId(3), NodeId(4), NodeId(5)];
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        for ep in &eps {
            loop {
                assert!(
                    std::time::Instant::now() < deadline,
                    "no convergence at {:?}: {:?}",
                    ep.node(),
                    ep.current_view()
                );
                if ep
                    .current_view()
                    .map(|v| v.members == want)
                    .unwrap_or(false)
                {
                    break;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        // Total order still intact: every member delivers the same casts.
        for (i, ep) in eps.iter().enumerate() {
            ep.cast(Bytes::from(vec![i as u8]), VirtualTime::ZERO)
                .unwrap();
        }
        let mut seqs = Vec::new();
        for ep in &eps {
            let mut got = Vec::new();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            while got.len() < eps.len() {
                assert!(std::time::Instant::now() < deadline, "missing casts");
                match ep.events().recv_timeout(Duration::from_millis(200)) {
                    Ok(GcEvent::Cast { payload, .. }) => got.push(payload[0]),
                    Ok(_) => {}
                    Err(_) => {}
                }
            }
            seqs.push(got);
        }
        for s in &seqs[1..] {
            assert_eq!(s, &seqs[0], "total order diverged after churn");
        }
    }
}

#[cfg(test)]
mod heartbeat_tests {
    use super::*;
    use starfish_vni::{Fabric, Ideal, LayerCosts};
    use std::time::Duration;

    fn hb_cfg() -> EndpointConfig {
        EndpointConfig {
            heartbeat: Some(HeartbeatCfg {
                interval: Duration::from_millis(50),
                timeout: Duration::from_millis(400),
            }),
            ..EndpointConfig::default()
        }
    }

    /// A silent crash (hang) emits no fabric event; only the heartbeat
    /// failure detector can evict the member.
    #[test]
    fn heartbeats_detect_silent_crash() {
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        for i in 0..3 {
            f.add_node(NodeId(i));
        }
        let e0 = Endpoint::found(&f, NodeId(0), hb_cfg()).unwrap();
        let e1 = Endpoint::join(&f, NodeId(1), NodeId(0), hb_cfg()).unwrap();
        e1.wait_for_view_size(2, Duration::from_secs(10)).unwrap();
        let e2 = Endpoint::join(&f, NodeId(2), NodeId(0), hb_cfg()).unwrap();
        e2.wait_for_view_size(3, Duration::from_secs(10)).unwrap();
        e0.wait_for_view_size(3, Duration::from_secs(10)).unwrap();
        e1.wait_for_view_size(3, Duration::from_secs(10)).unwrap();

        // Hang node 2: no event, ports closed.
        f.crash_node_silently(NodeId(2));
        let v0 = e0.wait_for_view_size(2, Duration::from_secs(15)).unwrap();
        let v1 = e1.wait_for_view_size(2, Duration::from_secs(15)).unwrap();
        assert_eq!(v0.members, vec![NodeId(0), NodeId(1)]);
        assert_eq!(v0.id, v1.id);
        // The group still sequences casts.
        e1.cast(Bytes::from_static(b"alive"), VirtualTime::ZERO)
            .unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            assert!(std::time::Instant::now() < deadline, "cast never delivered");
            match e0.events().recv_timeout(Duration::from_millis(200)) {
                Ok(GcEvent::Cast { payload, .. }) => {
                    assert_eq!(&payload[..], b"alive");
                    break;
                }
                _ => continue,
            }
        }
        drop(e2);
    }

    /// A member whose beacons the chaos layer suppresses entirely looks
    /// exactly like a hang: the others must suspect and evict it.
    #[test]
    fn chaos_muted_beacons_get_member_evicted() {
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        for i in 0..3 {
            f.add_node(NodeId(i));
        }
        let muted = EndpointConfig {
            chaos: Some(HeartbeatChaos {
                seed: 7,
                skip_p: 1.0,
            }),
            ..hb_cfg()
        };
        let e0 = Endpoint::found(&f, NodeId(0), hb_cfg()).unwrap();
        let e1 = Endpoint::join(&f, NodeId(1), NodeId(0), hb_cfg()).unwrap();
        e1.wait_for_view_size(2, Duration::from_secs(10)).unwrap();
        let e2 = Endpoint::join(&f, NodeId(2), NodeId(0), muted).unwrap();
        e2.wait_for_view_size(3, Duration::from_secs(10)).unwrap();
        e0.wait_for_view_size(3, Duration::from_secs(10)).unwrap();
        // Node 2 beacons never leave: it is evicted like a silent crash.
        let v0 = e0.wait_for_view_size(2, Duration::from_secs(15)).unwrap();
        assert_eq!(v0.members, vec![NodeId(0), NodeId(1)]);
        drop(e2);
    }
}
