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
//! its `Stack`; the tests below drive several from one thread.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::Receiver;
use parking_lot::Mutex;

use starfish_telemetry::{metric, Registry};
use starfish_trace::FlightRecorder;
use starfish_util::codec::{Decode, Encode};
use starfish_util::trace::{ActorKind, MsgClass, TraceSink};
use starfish_util::{Error, NodeId, Result, VClock, ViewId, VirtualTime};
use starfish_vni::{Addr, Fabric, FabricEvent, Kick, Packet, PacketKind, Port, PortId};

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
        #[expect(clippy::disallowed_methods, reason = "a peer's heartbeat age")]
        let now = Instant::now();
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
    /// The buffer the port trades for its queued packets (emptied by every
    /// `wait`, so a drained batch allocates nothing).
    rx: VecDeque<Packet>,
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
            rx: VecDeque::new(),
            fabric_events,
            debug: std::env::var_os("STARFISH_GC_DEBUG").is_some(),
            cfg,
            clock: VClock::new(),
            #[expect(clippy::disallowed_methods, reason = "origin of heartbeat deadlines")]
            epoch: Instant::now(),
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
            let mut batch = std::mem::take(&mut self.rx);
            match self.port.recv_batch(&mut batch, usize::MAX, Some(timeout)) {
                Ok(()) => batch.drain(..).for_each(|pkt| self.on_packet(pkt)),
                Err(Error::Interrupted(_)) => {} // kicked: events below, or the owner's queues
                Err(_) => self.node_down(),      // closed, and drained
            }
            self.rx = batch;
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

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_vni::{Ideal, LayerCosts};
    use std::time::Duration;

    /// Stacks driven from the test's own thread: a turn gives every stack
    /// one short [`Stack::wait`] and keeps what it delivered.
    pub(super) struct Pump {
        fabric: Fabric,
        stacks: Vec<Stack>,
        /// Everything each stack delivered, in order.
        got: Vec<Vec<GcEvent>>,
    }

    impl Pump {
        pub(super) fn new(fabric: &Fabric) -> Pump {
            let (fabric, stacks, got) = (fabric.clone(), Vec::new(), Vec::new());
            Pump {
                fabric,
                stacks,
                got,
            }
        }

        /// Start `node`'s stack, founding (`contact` `None`) or joining;
        /// returns its index.
        pub(super) fn start(
            &mut self,
            node: u32,
            contact: Option<u32>,
            cfg: EndpointConfig,
        ) -> usize {
            let stack = Stack::start(&self.fabric, NodeId(node), contact.map(NodeId), cfg);
            self.stacks.push(stack.unwrap());
            self.got.push(Vec::new());
            self.stacks.len() - 1
        }

        pub(super) fn stack(&mut self, i: usize) -> &mut Stack {
            &mut self.stacks[i]
        }

        pub(super) fn turn(&mut self) {
            for (stack, got) in self.stacks.iter_mut().zip(&mut self.got) {
                got.extend(stack.wait(Duration::from_millis(1)));
            }
        }

        /// Turn until `done` holds; fails the test after `secs` seconds.
        pub(super) fn until(&mut self, secs: u64, what: &str, mut done: impl FnMut(&Pump) -> bool) {
            let deadline = Instant::now() + Duration::from_secs(secs);
            while !done(self) {
                assert!(Instant::now() < deadline, "timed out waiting for {what}");
                self.turn();
            }
        }

        /// Turn until stack `i` is in a view of `size` members; that view.
        pub(super) fn view_size(&mut self, i: usize, size: usize, secs: u64) -> View {
            let sized = |p: &Pump| p.view(i).is_some_and(|v| v.size() == size);
            self.until(secs, &format!("a view of {size} at stack {i}"), sized);
            self.view(i).cloned().unwrap()
        }

        /// The casts stack `i` delivered: `(origin, seq, payload)`.
        pub(super) fn casts(&self, i: usize) -> Vec<(NodeId, u64, Bytes)> {
            let cast = |e: &GcEvent| match e {
                GcEvent::Cast {
                    from, seq, payload, ..
                } => Some((*from, *seq, payload.clone())),
                _ => None,
            };
            self.got[i].iter().filter_map(cast).collect()
        }

        pub(super) fn view(&self, i: usize) -> Option<&View> {
            self.stacks[i].view()
        }

        pub(super) fn got(&self, i: usize) -> &[GcEvent] {
            &self.got[i]
        }
    }

    fn fabric(n: u32) -> Fabric {
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        for i in 0..n {
            f.add_node(NodeId(i));
        }
        f
    }

    /// A pump with the group {0, …, n−1} booted: each joins through n0.
    fn group(f: &Fabric, n: u32) -> Pump {
        let mut p = Pump::new(f);
        for i in 0..n {
            let e = p.start(i, (i > 0).then_some(0), EndpointConfig::default());
            p.view_size(e, i as usize + 1, 5);
        }
        for e in 0..n as usize {
            p.view_size(e, n as usize, 5);
        }
        p
    }

    #[test]
    fn found_singleton_view() {
        let f = fabric(1);
        let mut p = Pump::new(&f);
        let e = p.start(0, None, EndpointConfig::default());
        let v = p.view_size(e, 1, 2);
        assert_eq!(v.members, vec![NodeId(0)]);
        assert_eq!(v.coordinator(), NodeId(0));
    }

    #[test]
    fn three_members_join_incrementally() {
        let f = fabric(3);
        let mut p = Pump::new(&f);
        let e0 = p.start(0, None, EndpointConfig::default());
        let e1 = p.start(1, Some(0), EndpointConfig::default());
        let v = p.view_size(e1, 2, 5);
        assert_eq!(v.members, vec![NodeId(0), NodeId(1)]);
        let e2 = p.start(2, Some(1), EndpointConfig::default());
        let v = p.view_size(e2, 3, 5);
        assert_eq!(v.members, vec![NodeId(0), NodeId(1), NodeId(2)]);
        // All members converge to the same view.
        let v0 = p.view_size(e0, 3, 5);
        assert_eq!(v0.id, v.id);
    }

    #[test]
    fn casts_are_totally_ordered_across_members() {
        let f = fabric(3);
        let mut p = group(&f, 3);
        // Interleaved casters.
        let n_each = 50;
        for i in 0..n_each {
            for (e, tag) in ["a", "b", "c"].iter().enumerate() {
                let payload = Bytes::from(format!("{tag}{i}"));
                p.stack(e).cast(payload, VirtualTime::ZERO);
            }
        }
        let want = 3 * n_each;
        p.until(10, "every cast everywhere", |p| {
            (0..3).all(|e| p.casts(e).len() == want)
        });
        let d0 = p.casts(0);
        assert_eq!(d0, p.casts(1));
        assert_eq!(d0, p.casts(2));
        // Sequence numbers are gap-free from 1.
        for (i, (_, seq, _)) in d0.iter().enumerate() {
            assert_eq!(*seq, (i + 1) as u64);
        }
    }

    #[test]
    fn member_crash_installs_smaller_view() {
        let f = fabric(3);
        let mut p = group(&f, 3);
        f.crash_node(NodeId(2));
        let v0 = p.view_size(0, 2, 5);
        let v1 = p.view_size(1, 2, 5);
        assert_eq!(v0.members, vec![NodeId(0), NodeId(1)]);
        assert_eq!(v0.id, v1.id);
    }

    #[test]
    fn coordinator_crash_elects_next_smallest() {
        let f = fabric(3);
        let mut p = group(&f, 3);
        p.stack(0).leave();
        f.crash_node(NodeId(0));
        let v1 = p.view_size(1, 2, 5);
        let v2 = p.view_size(2, 2, 5);
        assert_eq!(v1.members, vec![NodeId(1), NodeId(2)]);
        assert_eq!(v1.coordinator(), NodeId(1));
        assert_eq!(v1.id, v2.id);
        // The group still works: the new coordinator sequences casts.
        p.stack(2)
            .cast(Bytes::from_static(b"post-crash"), VirtualTime::ZERO);
        p.until(5, "the post-crash cast", |p| !p.casts(1).is_empty());
        assert_eq!(&p.casts(1)[0].2[..], b"post-crash");
    }

    #[test]
    fn coordinator_crash_without_graceful_leave() {
        // Unlike `coordinator_crash_elects_next_smallest`, the coordinator
        // never leaves: the only signal is the node crash, so the successor
        // must take over recovery on its own.
        let f = fabric(3);
        let mut p = group(&f, 3);
        f.crash_node(NodeId(0));
        let v1 = p.view_size(1, 2, 5);
        let v2 = p.view_size(2, 2, 5);
        assert_eq!(v1.members, vec![NodeId(1), NodeId(2)]);
        assert_eq!(v1.coordinator(), NodeId(1));
        assert_eq!(v1.id, v2.id);
        // The new coordinator sequences casts.
        p.stack(2)
            .cast(Bytes::from_static(b"recovered"), VirtualTime::ZERO);
        p.until(5, "the cast", |p| !p.casts(1).is_empty());
        assert_eq!(&p.casts(1)[0].2[..], b"recovered");
    }

    #[test]
    fn graceful_leave_shrinks_view() {
        let f = fabric(2);
        let mut p = group(&f, 2);
        p.stack(1).leave();
        // e1 gets Left.
        let left = |p: &Pump| p.got(1).iter().any(|e| matches!(e, GcEvent::Left));
        p.until(5, "Left", left);
        assert!(p.stack(1).done());
        // e0 sees the singleton view.
        let v0 = p.view_size(0, 1, 5);
        assert_eq!(v0.members, vec![NodeId(0)]);
    }

    #[test]
    fn p2p_between_members() {
        let f = fabric(2);
        let mut p = group(&f, 2);
        let direct = Bytes::from_static(b"direct");
        p.stack(0).send_to(NodeId(1), direct, VirtualTime::ZERO);
        let p2p = |e: &GcEvent| match e {
            GcEvent::P2p { from, payload, .. } => Some((*from, payload.clone())),
            _ => None,
        };
        p.until(5, "the P2p event", |p| {
            p.got(1).iter().any(|e| p2p(e).is_some())
        });
        let (from, payload) = p.got(1).iter().find_map(p2p).unwrap();
        assert_eq!(from, NodeId(0));
        assert_eq!(&payload[..], b"direct");
    }

    #[test]
    fn cast_before_any_remote_member_still_delivers_locally() {
        let f = fabric(1);
        let mut p = group(&f, 1);
        p.stack(0)
            .cast(Bytes::from_static(b"solo"), VirtualTime::ZERO);
        p.until(5, "the solo cast", |p| !p.casts(0).is_empty());
        assert_eq!(p.casts(0).len(), 1);
        assert_eq!(p.casts(0)[0].0, NodeId(0));
    }

    #[test]
    fn virtual_time_flows_through_casts() {
        let f = Fabric::new(Box::new(starfish_vni::TcpEthernet), LayerCosts::zero());
        f.add_node(NodeId(0));
        f.add_node(NodeId(1));
        let mut p = group(&f, 2);
        let start = VirtualTime::from_millis(5);
        p.stack(1).cast(Bytes::from_static(b"t"), start);
        // e1 → the coordinator e0, which sequences it: delivery at e0 is
        // at least one TCP hop (239 µs) beyond the caller's start.
        let cast_vt = |p: &Pump| {
            let vt = |e: &GcEvent| match e {
                GcEvent::Cast { vt, .. } => Some(*vt),
                _ => None,
            };
            p.got(0).iter().find_map(vt)
        };
        p.until(5, "the cast at e0", |p| cast_vt(p).is_some());
        assert!(cast_vt(&p).unwrap() > start + VirtualTime::from_micros(239));
    }

    /// The hand-over regression: n2 streams casts while n0 — the smallest
    /// id, so the coordinator role moves to it — joins {n1, n2}. Nobody
    /// crashes, so nothing may be lost.
    #[test]
    fn casts_survive_a_coordinator_hand_over() {
        const CASTS: usize = 3_000;
        let f = fabric(3);
        let mut p = Pump::new(&f);
        let e1 = p.start(1, None, EndpointConfig::default());
        let e2 = p.start(2, Some(1), EndpointConfig::default());
        p.view_size(e2, 2, 5);
        let e0 = p.start(0, Some(2), EndpointConfig::default());
        for i in 0..CASTS as u32 {
            let payload = Bytes::from(i.to_le_bytes().to_vec());
            p.stack(e2).cast(payload, VirtualTime::ZERO);
            if i % 64 == 0 {
                p.turn();
            }
        }
        p.view_size(e0, 3, 10);
        p.until(20, "every cast at n1", |p| p.casts(e1).len() >= CASTS);
        let casts = p.casts(e1);
        let mut ids: Vec<u32> = casts
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
    use super::tests::Pump;
    use super::*;
    use starfish_vni::{Fabric, Ideal, LayerCosts};

    /// Stress: joins interleaved with crashes; the survivors converge on one
    /// final view and total order still works afterwards.
    #[test]
    fn membership_churn_converges() {
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        for i in 0..6 {
            f.add_node(NodeId(i));
        }
        let mut p = Pump::new(&f);
        for i in 0..4 {
            let e = p.start(i, (i > 0).then_some(0), EndpointConfig::default());
            p.view_size(e, i as usize + 1, 10);
        }
        // Crash one member and add two more while the change settles.
        f.crash_node(NodeId(2));
        p.start(4, Some(0), EndpointConfig::default());
        p.start(5, Some(1), EndpointConfig::default());
        let live = [0, 1, 3, 4, 5];

        // Everyone alive converges on {0,1,3,4,5}.
        let want: Vec<NodeId> = live.iter().map(|i| NodeId(*i as u32)).collect();
        p.until(20, "convergence on {0,1,3,4,5}", |p| {
            live.iter()
                .all(|e| p.view(*e).map(|v| &v.members) == Some(&want))
        });
        // Total order still intact: every member delivers the same casts.
        let before: Vec<usize> = live.iter().map(|e| p.casts(*e).len()).collect();
        for e in live {
            p.stack(e)
                .cast(Bytes::from(vec![e as u8]), VirtualTime::ZERO);
        }
        let fresh = |p: &Pump, k: usize| -> Vec<u8> {
            let casts = p.casts(live[k]);
            casts[before[k]..].iter().map(|(_, _, c)| c[0]).collect()
        };
        p.until(10, "the post-churn casts", |p| {
            (0..live.len()).all(|k| fresh(p, k).len() == live.len())
        });
        for k in 1..live.len() {
            assert_eq!(
                fresh(&p, k),
                fresh(&p, 0),
                "total order diverged after churn"
            );
        }
    }
}

#[cfg(test)]
mod heartbeat_tests {
    use super::tests::Pump;
    use super::*;
    use starfish_vni::{Fabric, Ideal, LayerCosts};

    fn hb_cfg() -> EndpointConfig {
        EndpointConfig {
            heartbeat: Some(HeartbeatCfg {
                interval: Duration::from_millis(50),
                timeout: Duration::from_millis(400),
            }),
            ..EndpointConfig::default()
        }
    }

    /// {0, 1, 2} under heartbeats, node 2 with `last`.
    fn trio(last: EndpointConfig) -> (Fabric, Pump) {
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        for i in 0..3 {
            f.add_node(NodeId(i));
        }
        let mut p = Pump::new(&f);
        p.start(0, None, hb_cfg());
        p.start(1, Some(0), hb_cfg());
        p.view_size(1, 2, 10);
        p.start(2, Some(0), last);
        p.view_size(2, 3, 10);
        p.view_size(0, 3, 10);
        (f, p)
    }

    /// A silent crash (hang) emits no fabric event; only the heartbeat
    /// failure detector can evict the member.
    #[test]
    fn heartbeats_detect_silent_crash() {
        let (f, mut p) = trio(hb_cfg());
        p.view_size(1, 3, 10);
        // Hang node 2: no event, ports closed.
        f.crash_node_silently(NodeId(2));
        let v0 = p.view_size(0, 2, 15);
        let v1 = p.view_size(1, 2, 15);
        assert_eq!(v0.members, vec![NodeId(0), NodeId(1)]);
        assert_eq!(v0.id, v1.id);
        // The group still sequences casts.
        let before = p.casts(0).len();
        p.stack(1)
            .cast(Bytes::from_static(b"alive"), VirtualTime::ZERO);
        p.until(10, "the cast", |p| p.casts(0).len() > before);
        assert_eq!(&p.casts(0)[before].2[..], b"alive");
    }

    /// A member whose beacons the chaos layer suppresses entirely looks
    /// exactly like a hang: the others must suspect and evict it.
    #[test]
    fn chaos_muted_beacons_get_member_evicted() {
        let muted = EndpointConfig {
            chaos: Some(HeartbeatChaos {
                seed: 7,
                skip_p: 1.0,
            }),
            ..hb_cfg()
        };
        let (_f, mut p) = trio(muted);
        // Node 2 beacons never leave: it is evicted like a silent crash.
        let v0 = p.view_size(0, 2, 15);
        assert_eq!(v0.members, vec![NodeId(0), NodeId(1)]);
    }
}
