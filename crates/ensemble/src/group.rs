//! The group-membership machine: every decision of the ensemble stack.
//!
//! A [`Group`] is one member's whole protocol state — its role (joining
//! through a contact, or member of a view), the delivery queue
//! ([`DeliveryState`]), the change it coordinates ([`ChangeState`]), what
//! it holds for later (casts, joins, leaves), whom it suspects and when it
//! last heard from whom — as a plain value. It is driven by events and
//! answers with [`Out`]s, in the order they must happen:
//!
//! | event | method |
//! |---|---|
//! | a decoded [`GcMsg`] from a peer | [`Group::on_msg`] |
//! | the owner casts / sends / leaves | [`Group::cast`], [`Group::send_to`], [`Group::leave`] |
//! | a member failed (fabric event) | [`Group::member_failed`] |
//! | a `Send` could not be delivered | [`Group::send_failed`] |
//! | time passed | [`Group::tick`], due at [`Group::deadline`] |
//!
//! Like `mpi::{rendezvous, matching}` it is handed `Duration` *values* and
//! names no fabric, clock, lock or instrument: [`crate::endpoint`] is the
//! I/O shell that performs the sends and tells the owner, and the `verify`
//! crate's membership model holds *n* of these very values over a FIFO of
//! real [`GcMsg`]s.
//!
//! Who decides: the **coordinator** of a view (its smallest member)
//! sequences casts and runs membership changes; the **recovery
//! coordinator** (the smallest member nobody suspects) opens the change
//! that excludes a failed coordinator. A change closes the current view
//! with a flush: every live member stops delivering — the coordinator
//! included — and reports what it delivered, the union is backfilled with
//! the `NewView`. When the coordinator role moves (a joiner with a smaller
//! id, or the coordinator leaving), whoever held casts, joins or leaves
//! for the old view forwards them to the new coordinator on install, and a
//! joiner parks cast requests that beat its first view.
// lint: sans-io

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use bytes::Bytes;
use starfish_trace::TraceCtx;
use starfish_util::rng::DetRng;
use starfish_util::{NodeId, ViewId};

use crate::core::{encode_proposal, proposal_view, proposed_members, ChangeState, DeliveryState};
use crate::msg::{GcMsg, SeqEntry};
use crate::view::View;

/// How often a joining member re-sends its join request until a view that
/// includes it is installed.
pub const JOIN_RETRY: Duration = Duration::from_millis(200);

/// Heartbeat-based failure detection settings (the role Ensemble's
/// heartbeat stack plays on a real LAN, where hangs emit no event).
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatCfg {
    /// How often each member beacons to its peers (real time).
    pub interval: Duration,
    /// Silence at least this long marks a member suspected.
    pub timeout: Duration,
}

/// Chaos-layer perturbation of the heartbeat path: each beacon round is
/// skipped with probability `skip_p`, drawn from a deterministic RNG seeded
/// with `seed`. A skipped round models a stalled daemon or a lost beacon
/// burst — the stimulus the suspicion machinery must absorb (transient) or
/// act on (persistent).
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatChaos {
    pub seed: u64,
    /// Probability that one whole beacon round is skipped.
    pub skip_p: f64,
}

/// What the machine wants done, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Out {
    /// Send `msg` to `to`'s group port. If that fails, say so with
    /// [`Group::send_failed`].
    Send { to: NodeId, msg: GcMsg },
    /// This member opened a membership change (the shell times it until
    /// the resulting `View`).
    ChangeOpened,
    /// A view that includes this member was installed.
    View(View),
    /// Deliver one totally ordered cast of `view` to the owner.
    Deliver { view: ViewId, entry: SeqEntry },
    /// A point-to-point payload for the owner.
    P2p { from: NodeId, payload: Bytes },
    /// The failure detector gave up on `node` after `silent_for`; its
    /// exclusion is already under way.
    Suspected { node: NodeId, silent_for: Duration },
    /// This member is out of the group; every later event is a no-op.
    Left,
}

#[derive(Debug, Clone)]
enum Role {
    /// No view yet: `contact` is asked again at `retry_at`.
    Joining { contact: NodeId, retry_at: Duration },
    /// Member of the installed view (which always contains this node).
    Member(View),
    /// Left, excluded, or the group dissolved.
    Gone,
}

/// One member's protocol state. See the module docs.
#[derive(Debug, Clone)]
pub struct Group {
    node: NodeId,
    role: Role,
    delivery: DeliveryState,
    /// Set from our `FlushOk` (or from opening a change ourselves) until the
    /// next view: casts of the closing view are no longer delivered, the
    /// flush union backfills them.
    flushing: bool,
    leaving: bool,

    // Coordinator side.
    next_seq: u64,
    change: Option<ChangeState>,
    proposals: u64,
    pending_joins: BTreeSet<NodeId>,
    pending_leaves: BTreeSet<NodeId>,
    suspects: BTreeSet<NodeId>,

    /// `CastReq`s nobody can sequence right now — ours or received: we are
    /// view-less (a joiner's coordinatorship may be known to others before
    /// it is to us), flushing, or the coordinator could not be reached. The
    /// next view's coordinator gets them, trace contexts intact.
    held: Vec<GcMsg>,
    /// `SeqCast`s and `FlushReq`s `(from, msg)` of a view not installed here
    /// yet, replayed when a view installs.
    early: Vec<(NodeId, GcMsg)>,

    // Heartbeat failure detection (idle unless `heartbeat` is set).
    heartbeat: Option<HeartbeatCfg>,
    /// Beacon-skip decision stream and probability (chaos layer).
    skip: Option<(DetRng, f64)>,
    heard: BTreeMap<NodeId, Duration>,
    beacon_at: Duration,

    out: Vec<Out>,
}

impl Group {
    /// Start a member at time `now`: found a new group (`contact` is
    /// `None`: view 1, this node alone) or join the one `contact` belongs
    /// to. Returns the machine and its first outputs.
    pub fn new(
        node: NodeId,
        contact: Option<NodeId>,
        heartbeat: Option<HeartbeatCfg>,
        chaos: Option<HeartbeatChaos>,
        now: Duration,
    ) -> (Group, Vec<Out>) {
        let mut g = Group {
            node,
            role: Role::Gone,
            delivery: DeliveryState::new(),
            flushing: false,
            leaving: false,
            next_seq: 1,
            change: None,
            proposals: 0,
            pending_joins: BTreeSet::new(),
            pending_leaves: BTreeSet::new(),
            suspects: BTreeSet::new(),
            held: Vec::new(),
            early: Vec::new(),
            heartbeat,
            skip: chaos.map(|c| (DetRng::new(c.seed).derive(node.0 as u64), c.skip_p)),
            heard: BTreeMap::new(),
            beacon_at: now + heartbeat.map_or(Duration::ZERO, |hb| hb.interval),
            out: Vec::new(),
        };
        match contact {
            None => g.install(View::new(ViewId(1), vec![node])),
            Some(contact) => {
                let retry_at = now + JOIN_RETRY;
                g.role = Role::Joining { contact, retry_at };
                g.send(contact, GcMsg::JoinReq { node });
            }
        }
        let out = g.take_out();
        (g, out)
    }

    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The installed view, while a member.
    pub fn view(&self) -> Option<&View> {
        match &self.role {
            Role::Member(v) => Some(v),
            _ => None,
        }
    }

    /// Out of the group for good (`Out::Left` was emitted).
    pub fn is_gone(&self) -> bool {
        matches!(self.role, Role::Gone)
    }

    /// Whether a `JoinReq` for `node` would change nothing: it is already a
    /// member or already queued (a join retransmission).
    pub fn knows_joiner(&self, node: NodeId) -> bool {
        self.view().is_some_and(|v| v.contains(node)) || self.pending_joins.contains(&node)
    }

    /// When [`tick`](Self::tick) next has something to do: the join retry
    /// while view-less; the next beacon or the earliest possible suspicion
    /// when heartbeats are configured; otherwise never.
    pub fn deadline(&self) -> Option<Duration> {
        match &self.role {
            Role::Joining { retry_at, .. } => Some(*retry_at),
            Role::Member(view) => {
                let hb = self.heartbeat?;
                let suspicion = self
                    .watched(view)
                    .filter_map(|m| self.heard.get(&m))
                    .map(|seen| *seen + hb.timeout)
                    .min();
                Some(suspicion.map_or(self.beacon_at, |s| s.min(self.beacon_at)))
            }
            Role::Gone => None,
        }
    }

    // -- events ---------------------------------------------------------------

    /// A protocol message from `from` arrived at time `now`.
    pub fn on_msg(&mut self, from: NodeId, msg: GcMsg, now: Duration) -> Vec<Out> {
        if self.is_gone() {
            return Vec::new();
        }
        if self.heartbeat.is_some() {
            self.heard.insert(from, now);
        }
        self.handle(from, msg);
        self.take_out()
    }

    fn handle(&mut self, from: NodeId, msg: GcMsg) {
        // A cast or a flush of a view that has not reached us yet waits for
        // it: after a hand-over the `NewView` comes from the old coordinator
        // and the view's traffic from the new one, on different links.
        let names = match &msg {
            GcMsg::SeqCast { view, .. } => Some(view.0),
            GcMsg::FlushReq { proposal, .. } => Some(proposal_view(*proposal)),
            _ => None,
        };
        if names.is_some_and(|v| self.view().is_none_or(|mine| mine.id.0 < v)) {
            return self.early.push((from, msg));
        }
        let coordinator = self.coordinator();
        match msg {
            GcMsg::JoinReq { node } if self.knows_joiner(node) => {} // retransmission
            GcMsg::JoinReq { .. } | GcMsg::LeaveReq { .. } if coordinator != Some(self.node) => {
                // Only the coordinator decides (still joining, we know none).
                if let Some(c) = coordinator {
                    self.send(c, msg);
                }
            }
            GcMsg::JoinReq { node } => {
                self.pending_joins.insert(node);
                self.maybe_start_change();
            }
            GcMsg::LeaveReq { node } => {
                self.pending_leaves.insert(node);
                self.maybe_start_change();
            }
            GcMsg::CastReq { .. } => self.route(msg),
            GcMsg::SeqCast {
                view,
                seq,
                origin,
                payload,
                ctx,
            } => {
                // A cast of an older view, or of this one after our flush, is
                // stale: if any surviving member delivered it the flush union
                // backfills it, otherwise it is dropped as a whole (virtual
                // synchrony permits this). So is one from anyone but our
                // view's sequencer: a dead coordinator's view can have the id
                // its survivors gave theirs.
                let ours = |v: &View| v.id == view && v.coordinator() == from;
                if self.view().is_some_and(ours) && !self.flushing {
                    let entry = SeqEntry {
                        seq,
                        origin,
                        payload,
                        ctx,
                    };
                    let ready = self.delivery.on_seq_cast(entry);
                    self.deliver(view, ready);
                }
            }
            GcMsg::P2p { payload } => self.out.push(Out::P2p { from, payload }),
            GcMsg::FlushReq { proposal, .. } => {
                // The proposal's high bits name the view being closed; a
                // flush for any other view is stale (e.g. from a coordinator
                // that crashed before completing it) and must not re-block
                // delivery.
                let closing = ViewId(proposal_view(proposal));
                let ours = |v: &View| v.id == closing && v.contains(from);
                if self.view().is_some_and(ours) {
                    self.flushing = true;
                    let ok = GcMsg::FlushOk {
                        proposal,
                        node: self.node,
                        delivered: self.delivery.log().to_vec(),
                    };
                    self.send(from, ok);
                }
            }
            GcMsg::FlushOk {
                proposal,
                node,
                delivered,
            } => {
                if let Some(ch) = self.change.as_mut().filter(|c| c.proposal() == proposal) {
                    ch.on_flush_ok(node, delivered);
                    self.maybe_finish_change();
                }
            }
            GcMsg::NewView { view, backfill } => self.apply_new_view(view, backfill),
            // Refreshing `heard` is a beacon's whole job.
            GcMsg::Heartbeat { .. } => {}
        }
    }

    /// The owner submits a totally ordered cast; `ctx` is the trace context
    /// of the submission, carried to every member's delivery.
    pub fn cast(&mut self, payload: Bytes, ctx: TraceCtx) -> Vec<Out> {
        let origin = self.node;
        self.route(GcMsg::CastReq {
            origin,
            payload,
            ctx,
        });
        self.take_out()
    }

    /// The owner sends a point-to-point payload.
    pub fn send_to(&mut self, node: NodeId, payload: Bytes) -> Vec<Out> {
        self.send(node, GcMsg::P2p { payload });
        self.take_out()
    }

    /// The owner leaves gracefully. `Out::Left` follows at once when there
    /// is nobody to tell, otherwise with the view that excludes us.
    pub fn leave(&mut self) -> Vec<Out> {
        self.leaving = true;
        match self.view().map(|v| (v.size(), v.coordinator())) {
            Some((size, c)) if size > 1 && c == self.node => self.maybe_start_change(),
            Some((size, c)) if size > 1 => self.send(c, GcMsg::LeaveReq { node: self.node }),
            _ => self.depart(),
        }
        self.take_out()
    }

    /// `node` is believed failed (a fabric event; heartbeat suspicion and
    /// failed sends arrive here from inside).
    pub fn member_failed(&mut self, node: NodeId) -> Vec<Out> {
        self.fail(node);
        self.take_out()
    }

    /// The shell could not deliver `Send { to, msg }`: a lost `SeqCast` or
    /// `FlushReq` means the member is gone; an own cast the coordinator
    /// never took waits for the next view; anything else is best-effort.
    pub fn send_failed(&mut self, to: NodeId, msg: GcMsg) -> Vec<Out> {
        match msg {
            GcMsg::SeqCast { .. } | GcMsg::FlushReq { .. } if to != self.node => self.fail(to),
            GcMsg::CastReq { origin, .. } if origin == self.node => self.held.push(msg),
            _ => {}
        }
        self.take_out()
    }

    /// Time is `now`: re-ask the contact while view-less; with heartbeats
    /// configured, beacon when due and suspect members silent for the
    /// timeout. A member never heard from is on the clock from its first
    /// tick in the view.
    pub fn tick(&mut self, now: Duration) -> Vec<Out> {
        match (&mut self.role, self.heartbeat) {
            (Role::Joining { contact, retry_at }, _) if now >= *retry_at => {
                *retry_at = now + JOIN_RETRY;
                let (to, node) = (*contact, self.node);
                self.send(to, GcMsg::JoinReq { node });
            }
            (Role::Member(view), Some(hb)) => {
                let mut peers = view.members.clone();
                peers.retain(|m| *m != self.node);
                if now >= self.beacon_at {
                    self.beacon_at = now + hb.interval;
                    if !self.skip.as_mut().is_some_and(|(rng, p)| rng.chance(*p)) {
                        for m in &peers {
                            self.send(*m, GcMsg::Heartbeat { node: self.node });
                        }
                    }
                }
                peers.retain(|m| !self.suspects.contains(m));
                for node in peers {
                    let silent_for = now - *self.heard.entry(node).or_insert(now);
                    if silent_for >= hb.timeout {
                        self.out.push(Out::Suspected { node, silent_for });
                        self.fail(node);
                    }
                }
            }
            _ => {}
        }
        self.take_out()
    }

    // -- plumbing -------------------------------------------------------------

    fn take_out(&mut self) -> Vec<Out> {
        std::mem::take(&mut self.out)
    }

    fn send(&mut self, to: NodeId, msg: GcMsg) {
        self.out.push(Out::Send { to, msg });
    }

    fn deliver(&mut self, view: ViewId, entries: Vec<SeqEntry>) {
        let told = entries.into_iter();
        self.out
            .extend(told.map(|entry| Out::Deliver { view, entry }));
    }

    fn depart(&mut self) {
        self.role = Role::Gone;
        self.change = None;
        self.out.push(Out::Left);
    }

    fn coordinator(&self) -> Option<NodeId> {
        self.view().map(View::coordinator)
    }

    /// The members the failure detector watches: everyone but us and those
    /// already suspected.
    fn watched<'a>(&'a self, view: &'a View) -> impl Iterator<Item = NodeId> + 'a {
        let live = move |m: &NodeId| *m != self.node && !self.suspects.contains(m);
        view.members.iter().copied().filter(live)
    }

    // -- casts ----------------------------------------------------------------

    /// A cast request, ours or received: sequence it if that is ours to do,
    /// pass it to the coordinator (mis-routed: the view raced), or hold it
    /// for the next view's. While we flush it is held — the coordinator
    /// could only hold it too, and because every request sent *before* our
    /// `FlushOk` reaches it before its change can close, a coordinator that
    /// leaves with the change hands over everything it was ever sent.
    fn route(&mut self, req: GcMsg) {
        match self.coordinator() {
            Some(c) if c == self.node && !self.flushing => self.sequence(req),
            Some(c) if c != self.node && !self.flushing => self.send(c, req),
            _ => self.held.push(req),
        }
    }

    fn sequence(&mut self, req: GcMsg) {
        let (
            Role::Member(view),
            GcMsg::CastReq {
                origin,
                payload,
                ctx,
            },
        ) = (&self.role, req)
        else {
            return;
        };
        let msg = GcMsg::SeqCast {
            view: view.id,
            seq: self.next_seq,
            origin,
            payload,
            ctx,
        };
        self.next_seq += 1;
        // Ourselves included: the sequencer delivers through its own port.
        let sends = view.members.iter().map(|m| Out::Send {
            to: *m,
            msg: msg.clone(),
        });
        self.out.extend(sends);
    }

    // -- membership changes ---------------------------------------------------

    /// `crashed` is believed failed. The smallest member nobody suspects
    /// coordinates its exclusion; a change already open here goes on
    /// without it.
    fn fail(&mut self, crashed: NodeId) {
        let Role::Member(view) = &self.role else {
            // Still joining: if our contact died we have no group knowledge;
            // keep retrying (the owner may re-point us via a fresh join).
            return;
        };
        if !view.contains(crashed) {
            self.pending_joins.remove(&crashed);
            return;
        }
        self.suspects.insert(crashed);
        if let Some(ch) = self.change.as_mut() {
            ch.drop_member(crashed);
            self.maybe_finish_change();
        }
        // If a change was running under the old (now dead) coordinator and
        // we were mid-flush as a member, our own supersedes it.
        self.maybe_start_change();
    }

    /// Open a membership change if one is needed, none is open here, and
    /// this member is the one to coordinate it.
    fn maybe_start_change(&mut self) {
        let Role::Member(view) = &self.role else {
            return;
        };
        let idle = self.pending_joins.is_empty()
            && self.pending_leaves.is_empty()
            && self.suspects.is_empty()
            && !self.leaving;
        if idle || self.change.is_some() {
            return;
        }
        // Everyone still alive in the current view must flush; a member
        // smaller than us that nobody suspects coordinates instead of us.
        let waiting: BTreeSet<NodeId> = self.watched(view).collect();
        if waiting.first().is_some_and(|m| *m < self.node) {
            return;
        }
        let new_members = proposed_members(
            &view.members,
            &self.suspects,
            &self.pending_leaves,
            &self.pending_joins,
            self.node,
            self.leaving,
        );
        if new_members.is_empty() {
            // We were the last member and are leaving, or everyone else is
            // suspected too: the group dissolves.
            return self.depart();
        }
        self.proposals += 1;
        let proposal = encode_proposal(view.id.0, self.proposals);
        self.out.push(Out::ChangeOpened);
        // We flush too: nothing of the closing view is delivered here past
        // the log the change is seeded with.
        self.flushing = true;
        for m in &waiting {
            let new_members = new_members.clone();
            self.send(
                *m,
                GcMsg::FlushReq {
                    proposal,
                    new_members,
                },
            );
        }
        self.change = Some(ChangeState::new(
            proposal,
            new_members,
            waiting,
            self.delivery.log(),
        ));
        self.maybe_finish_change();
    }

    fn maybe_finish_change(&mut self) {
        let Role::Member(old) = &self.role else {
            return;
        };
        let Some(ch) = self.change.take_if(|c| c.is_done()) else {
            return;
        };
        let (members, backfill) = ch.into_outcome();
        if members.is_empty() {
            // Every prospective member is gone: the group dissolves here.
            return self.depart();
        }
        let view = View::new(ViewId(old.id.0 + 1), members);
        // Everyone involved: survivors learn the new view, leavers learn
        // they are out.
        let mut targets: BTreeSet<NodeId> = self.watched(old).collect();
        targets.extend(view.members.iter().filter(|m| **m != self.node));
        for m in targets {
            let (view, backfill) = (view.clone(), backfill.clone());
            self.send(m, GcMsg::NewView { view, backfill });
        }
        // Install locally (delivers our own missing backfill too).
        self.apply_new_view(view, backfill);
    }

    /// Deliver the closing view's backfill (if we were a member of it), then
    /// install `view`.
    fn apply_new_view(&mut self, view: View, backfill: Vec<SeqEntry>) {
        if let Role::Member(old) = &self.role {
            if view.id <= old.id {
                return; // from a coordinator we have since moved on without
            }
            let old = old.id;
            let missed = self.delivery.apply_backfill(backfill);
            self.deliver(old, missed);
        }
        self.install(view);
    }

    fn install(&mut self, view: View) {
        self.delivery.reset();
        self.next_seq = 1;
        self.flushing = false;
        // A change we opened for an older view is obsolete: completing it
        // would close that view again. What it was for is re-decided below.
        self.change = None;
        self.suspects.retain(|s| view.contains(*s));
        self.pending_joins.retain(|j| !view.contains(*j));
        self.pending_leaves.retain(|l| view.contains(*l));
        let (coordinator, member) = (view.coordinator(), view.contains(self.node));
        if member {
            self.role = Role::Member(view.clone());
            self.out.push(Out::View(view));
        }
        let held = std::mem::take(&mut self.held);
        if coordinator == self.node {
            // What waited for this view: held during the change, or parked
            // while we joined.
            for req in held {
                self.sequence(req);
            }
        } else {
            // The coordinator role is (or moved) elsewhere: whatever we held
            // for the old view is the new coordinator's to decide.
            for req in held {
                self.send(coordinator, req);
            }
            for node in std::mem::take(&mut self.pending_leaves) {
                self.send(coordinator, GcMsg::LeaveReq { node });
            }
            for node in std::mem::take(&mut self.pending_joins) {
                self.send(coordinator, GcMsg::JoinReq { node });
            }
        }
        if !member {
            return self.depart();
        }
        for (from, msg) in std::mem::take(&mut self.early) {
            self.handle(from, msg);
        }
        // Membership work that queued up meanwhile (ours to open also if the
        // view's coordinator is someone we already suspect).
        self.maybe_start_change();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    const HB: HeartbeatCfg = HeartbeatCfg {
        interval: Duration::from_millis(50),
        timeout: Duration::from_millis(400),
    };

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    fn ms(t: u64) -> Duration {
        Duration::from_millis(t)
    }

    fn ctx(span: u64) -> TraceCtx {
        TraceCtx {
            trace: span,
            span,
            ..TraceCtx::NONE
        }
    }

    fn cast_req(origin: u32, byte: u8, span: u64) -> GcMsg {
        GcMsg::CastReq {
            origin: n(origin),
            payload: Bytes::from(vec![byte]),
            ctx: ctx(span),
        }
    }

    /// Machines wired back to back — no fabric, no clock, no sleep: one FIFO
    /// of undelivered `(from, to, msg)`, the nodes that are down (a send to
    /// one fails, as the fabric's does), and what each owner was told.
    #[derive(Default)]
    struct Net {
        groups: BTreeMap<NodeId, Group>,
        wire: VecDeque<(NodeId, NodeId, GcMsg)>,
        down: BTreeSet<NodeId>,
        told: Vec<(NodeId, Out)>,
        heartbeat: Option<HeartbeatCfg>,
        now: Duration,
    }

    impl Net {
        /// A settled group: the first id founds it, the rest join in order
        /// through the founder.
        fn of(ids: &[u32], heartbeat: Option<HeartbeatCfg>) -> Net {
            let mut net = Net {
                heartbeat,
                ..Net::default()
            };
            for id in ids {
                net.start(*id, (id != &ids[0]).then_some(ids[0]));
                net.settle();
            }
            net.told.clear();
            net
        }

        fn start(&mut self, id: u32, contact: Option<u32>) {
            let (g, outs) = Group::new(n(id), contact.map(n), self.heartbeat, None, self.now);
            self.groups.insert(n(id), g);
            self.apply(n(id), outs);
        }

        /// What the shell does with an answer: sends go on the wire or come
        /// back as failures, the rest is for the owner.
        fn apply(&mut self, at: NodeId, outs: Vec<Out>) {
            let mut queue = VecDeque::from(outs);
            while let Some(out) = queue.pop_front() {
                match out {
                    Out::Send { to, msg } if self.down.contains(&to) => {
                        queue.extend(self.groups.get_mut(&at).unwrap().send_failed(to, msg));
                    }
                    Out::Send { to, msg } => self.wire.push_back((at, to, msg)),
                    out => self.told.push((at, out)),
                }
            }
        }

        fn at(&mut self, id: u32, event: impl FnOnce(&mut Group) -> Vec<Out>) {
            let outs = event(self.groups.get_mut(&n(id)).unwrap());
            self.apply(n(id), outs);
        }

        /// Deliver the oldest message (a dead port eats it).
        fn step(&mut self) -> bool {
            let Some((from, to, msg)) = self.wire.pop_front() else {
                return false;
            };
            if !self.down.contains(&to) {
                let now = self.now;
                self.at(to.0, |g| g.on_msg(from, msg, now));
            }
            true
        }

        fn settle(&mut self) {
            while self.step() {}
        }

        /// Deliver the oldest message from `from` to `to`, out of turn.
        fn deliver(&mut self, from: u32, to: u32) {
            let at = self
                .wire
                .iter()
                .position(|(f, t, _)| (f.0, t.0) == (from, to));
            let (_, _, msg) = self
                .wire
                .remove(at.expect("a message on that link"))
                .unwrap();
            let now = self.now;
            self.at(to, |g| g.on_msg(n(from), msg, now));
        }

        /// Fail-stop `id` and tell every survivor, smallest first.
        fn crash(&mut self, id: u32) {
            self.down.insert(n(id));
            let up = self.groups.keys().filter(|m| !self.down.contains(m));
            for m in up.copied().collect::<Vec<_>>() {
                self.at(m.0, |g| g.member_failed(n(id)));
            }
        }

        fn members(&self, id: u32) -> Option<Vec<u32>> {
            let view = self.groups[&n(id)].view()?;
            Some(view.members.iter().map(|m| m.0).collect())
        }

        /// First payload byte of every cast `id`'s owner was handed.
        fn casts(&self, id: u32) -> Vec<u8> {
            let cast = |(at, out): &(NodeId, Out)| match out {
                Out::Deliver { entry, .. } if *at == n(id) => Some(entry.payload[0]),
                _ => None,
            };
            self.told.iter().filter_map(cast).collect()
        }

        fn was_told(&self, id: u32, out: &Out) -> bool {
            self.told.contains(&(n(id), out.clone()))
        }
    }

    #[test]
    fn joins_reach_the_coordinator_once() {
        let mut net = Net::of(&[0, 1], None);
        net.start(2, Some(1));
        let join = GcMsg::JoinReq { node: n(2) };
        assert!(net.step(), "n1 is asked");
        assert_eq!(net.wire, [(n(1), n(0), join.clone())], "forwarded");
        assert!(net.step(), "n0 is asked");
        assert!(net.was_told(0, &Out::ChangeOpened));
        let in_flight = net.wire.len();
        net.at(0, |g| g.on_msg(n(2), join.clone(), ms(0)));
        assert_eq!(net.wire.len(), in_flight, "a retransmission mid-change");
        net.settle();
        for id in 0..3 {
            assert_eq!(net.members(id), Some(vec![0, 1, 2]));
            net.at(id, |g| g.on_msg(n(2), join.clone(), ms(0)));
        }
        assert!(net.wire.is_empty(), "a retransmission after success");
    }

    #[test]
    fn leaves_shrink_move_or_dissolve_the_group() {
        // (members, leaver, the view everyone else ends in)
        let table: [(&[u32], u32, &[u32]); 3] = [
            (&[0, 1, 2], 2, &[0, 1]), // member
            (&[0, 1, 2], 0, &[1, 2]), // coordinator: the role moves to n1
            (&[0], 0, &[]),           // last member: the group dissolves
        ];
        for (members, leaver, rest) in table {
            let mut net = Net::of(members, None);
            net.at(leaver, |g| g.leave());
            net.settle();
            assert!(net.was_told(leaver, &Out::Left), "{members:?} - {leaver}");
            assert!(net.groups[&n(leaver)].is_gone());
            assert_eq!(net.groups[&n(leaver)].deadline(), None);
            for id in rest {
                assert_eq!(net.members(*id).as_deref(), Some(rest));
            }
            // The survivors' coordinator sequences.
            if let Some(id) = rest.last() {
                net.at(*id, |g| g.cast(Bytes::from_static(b"x"), TraceCtx::NONE));
                net.settle();
                assert_eq!(net.casts(rest[0]), vec![b'x']);
            }
        }
    }

    #[test]
    fn a_member_crash_mid_flush_finishes_the_change_without_it() {
        let mut net = Net::of(&[0, 1, 2], None);
        net.start(3, Some(0));
        assert!(net.step(), "JoinReq reaches n0: FlushReq to n1 and n2");
        assert_eq!(net.wire.len(), 2);
        net.crash(1);
        net.settle();
        for id in [0, 2, 3] {
            assert_eq!(net.members(id), Some(vec![0, 2, 3]));
        }
    }

    #[test]
    fn a_coordinator_crash_is_superseded_by_the_smallest_survivor() {
        let mut net = Net::of(&[0, 1, 2], None);
        let closing = net.groups[&n(1)].view().unwrap().id;
        net.at(2, |g| g.cast(Bytes::from_static(b"a"), TraceCtx::NONE));
        net.settle();
        net.crash(0);
        // n1 opened its own proposal for the view n0 coordinated, and stops
        // delivering that view's casts itself: a straggler from the dead
        // sequencer that n2 will never see must not reach n1's owner.
        let straggler = GcMsg::SeqCast {
            view: closing,
            seq: 2,
            origin: n(2),
            payload: Bytes::from_static(b"b"),
            ctx: TraceCtx::NONE,
        };
        net.at(1, |g| g.on_msg(n(0), straggler, ms(0)));
        net.settle();
        assert_eq!(net.members(1), Some(vec![1, 2]));
        assert_eq!(net.members(2), Some(vec![1, 2]));
        assert_eq!(net.casts(1), net.casts(2));
        // A flush request of the dead coordinator for the closed view is
        // stale: it is not answered and does not re-block delivery.
        let stale = GcMsg::FlushReq {
            proposal: encode_proposal(closing.0, 7),
            new_members: vec![n(0), n(1), n(2), n(3)],
        };
        net.at(2, |g| g.on_msg(n(0), stale, ms(0)));
        assert!(net.wire.is_empty());
        net.at(2, |g| g.cast(Bytes::from_static(b"c"), TraceCtx::NONE));
        net.settle();
        assert_eq!(net.casts(2), vec![b'a', b'c']);
        assert_eq!(net.casts(1), vec![b'a', b'c']);
    }

    /// A dead coordinator's view and its survivor's can share an id: n0
    /// installs a view of {n0, n2} and casts in it, then dies before n2 has
    /// heard of it, and n2 installs a view of {n2} with the same id. What n0
    /// sent for its view is not delivered in n2's.
    #[test]
    fn a_dead_coordinators_traffic_stays_out_of_a_same_numbered_view() {
        let mut net = Net::of(&[0, 1, 2], None);
        net.down.insert(n(1));
        net.at(0, |g| g.member_failed(n(1)));
        net.at(2, |g| g.member_failed(n(1)));
        assert!(net.step() && net.step(), "FlushReq to n2, its FlushOk back");
        assert_eq!(net.members(0), Some(vec![0, 2]));
        net.at(0, |g| g.cast(Bytes::from_static(b"a"), TraceCtx::NONE));
        net.down.insert(n(0));
        let to_n2 = |(_, to, _): &(NodeId, NodeId, GcMsg)| *to == n(2);
        let in_flight: Vec<_> = net.wire.drain(..).filter(to_n2).collect();
        net.at(2, |g| g.member_failed(n(0)));
        assert_eq!(net.members(2), Some(vec![2]));
        let id = |i: u32| net.groups[&n(i)].view().map(|v| v.id);
        assert_eq!(id(2), id(0), "the same id, other members");
        net.wire.extend(in_flight);
        // Nor does a flush n0 opened for its view close n2's.
        let closing = id(2).unwrap();
        let proposal = encode_proposal(closing.0, 9);
        let flush = GcMsg::FlushReq {
            proposal,
            new_members: vec![n(0), n(2)],
        };
        net.at(2, |g| g.on_msg(n(0), flush, ms(0)));
        net.at(2, |g| g.cast(Bytes::from_static(b"b"), TraceCtx::NONE));
        net.settle();
        assert_eq!(net.casts(2), vec![b'b']);
    }

    /// n1 opens a change to exclude the dead n0, then installs the view n0
    /// had installed just before it died. The change it opened closes the
    /// view before that one: completed, it would deliver that view's casts
    /// again in this one.
    #[test]
    fn a_change_for_an_older_view_dies_with_it() {
        let mut net = Net::of(&[0, 1, 2], None);
        net.at(2, |g| g.cast(Bytes::from_static(b"a"), TraceCtx::NONE));
        net.settle();
        net.start(3, Some(0));
        for _ in 0..5 {
            net.step(); // the join, both flushes: n0 installs {n0,…,n3}
        }
        assert_eq!(net.members(0), Some(vec![0, 1, 2, 3]));
        net.down.insert(n(0));
        net.at(1, |g| g.member_failed(n(0)));
        net.deliver(1, 2); // n1's FlushReq; n2 answers
        net.deliver(0, 1); // n0's NewView
        net.deliver(2, 1); // n2's FlushOk for the older view
        net.at(2, |g| g.member_failed(n(0)));
        net.settle();
        assert_eq!(net.casts(1), vec![b'a'], "delivered once");
        for id in 1..4 {
            assert_eq!(net.members(id), Some(vec![1, 2, 3]));
        }
    }

    #[test]
    fn a_failed_send_suspects_the_receiver() {
        // SeqCast: the sequencer learns of n2's death from the send alone.
        let mut net = Net::of(&[0, 1, 2], None);
        net.down.insert(n(2));
        net.at(1, |g| g.cast(Bytes::from_static(b"s"), TraceCtx::NONE));
        net.settle();
        assert_eq!(net.members(0), Some(vec![0, 1]));
        assert_eq!(net.members(1), Some(vec![0, 1]));
        assert_eq!((net.casts(0), net.casts(1)), (vec![b's'], vec![b's']));
        // FlushReq: n2 drops out of the change that n3's join opened.
        let mut net = Net::of(&[0, 1, 2], None);
        net.down.insert(n(2));
        net.start(3, Some(0));
        net.settle();
        for id in [0, 1, 3] {
            assert_eq!(net.members(id), Some(vec![0, 1, 3]));
        }
    }

    #[test]
    fn a_cast_nobody_took_is_resubmitted_with_its_context() {
        let mut net = Net::of(&[0, 1], None);
        net.down.insert(n(0));
        net.at(1, |g| g.cast(Bytes::from_static(b"h"), ctx(9)));
        assert!(net.wire.is_empty() && net.told.is_empty(), "held, not lost");
        net.crash(0);
        net.settle();
        assert_eq!(net.members(1), Some(vec![1]));
        let delivered = net.told.iter().find_map(|(_, out)| match out {
            Out::Deliver { entry, .. } => Some((entry.origin, entry.payload[0], entry.ctx)),
            _ => None,
        });
        assert_eq!(delivered, Some((n(1), b'h', ctx(9))));
    }

    /// The hand-over regression: a view whose smallest member is a joiner
    /// moves the coordinator role while the old coordinator holds casts.
    #[test]
    fn a_hand_over_forwards_held_casts_and_the_joiner_parks_early_ones() {
        let mut net = Net::of(&[1, 2], None);
        let mut g1 = net.groups.remove(&n(1)).unwrap();
        let opened = g1.on_msg(n(0), GcMsg::JoinReq { node: n(0) }, ms(0));
        let Some(Out::Send {
            to,
            msg: GcMsg::FlushReq { proposal, .. },
        }) = opened.get(1)
        else {
            panic!("{opened:?}");
        };
        assert_eq!(*to, n(2));
        // Mid-flush: held, not sequenced.
        assert!(g1.on_msg(n(2), cast_req(2, b'x', 7), ms(0)).is_empty());
        let ok = GcMsg::FlushOk {
            proposal: *proposal,
            node: n(2),
            delivered: Vec::new(),
        };
        let closed = g1.on_msg(n(2), ok, ms(0));
        let view = View::new(ViewId(3), vec![n(0), n(1), n(2)]);
        let new_view = GcMsg::NewView {
            view: view.clone(),
            backfill: Vec::new(),
        };
        let at = |want: &Out| closed.iter().position(|o| o == want);
        let told_n0 = at(&Out::Send {
            to: n(0),
            msg: new_view.clone(),
        });
        let forwarded = at(&Out::Send {
            to: n(0),
            msg: cast_req(2, b'x', 7),
        });
        assert!(told_n0.is_some() && told_n0 < forwarded, "{closed:?}");
        // The joiner: a request that beats its first view waits for it.
        let (mut g0, _) = Group::new(n(0), Some(n(1)), None, None, ms(0));
        assert!(g0.on_msg(n(2), cast_req(2, b'y', 8), ms(0)).is_empty());
        let installed = g0.on_msg(n(1), new_view, ms(0));
        let vid = view.id;
        let seq = |to| Out::Send {
            to,
            msg: GcMsg::SeqCast {
                view: vid,
                seq: 1,
                origin: n(2),
                payload: Bytes::from_static(b"y"),
                ctx: ctx(8),
            },
        };
        assert_eq!(
            installed,
            vec![Out::View(view), seq(n(0)), seq(n(1)), seq(n(2))]
        );
    }

    #[test]
    fn the_join_retry_is_a_deadline() {
        let (mut g, first) = Group::new(n(1), Some(n(0)), None, None, ms(10));
        let ask = vec![Out::Send {
            to: n(0),
            msg: GcMsg::JoinReq { node: n(1) },
        }];
        assert_eq!(first, ask);
        assert_eq!(g.deadline(), Some(ms(10) + JOIN_RETRY));
        assert!(g.tick(ms(209)).is_empty());
        assert_eq!(g.tick(ms(215)), ask);
        assert_eq!(g.deadline(), Some(ms(215) + JOIN_RETRY));
        // A member without heartbeats has nothing to wake for.
        let view = View::new(ViewId(2), vec![n(0), n(1)]);
        let backfill = Vec::new();
        g.on_msg(n(0), GcMsg::NewView { view, backfill }, ms(220));
        assert_eq!(g.deadline(), None);
        assert!(g.tick(ms(10_000)).is_empty());
    }

    /// Stepped time: idle members beaconing every interval never suspect
    /// each other; silence is suspected exactly once the timeout is reached.
    #[test]
    fn suspicion_needs_silence_for_the_whole_timeout() {
        let mut net = Net::of(&[0, 1, 2], Some(HB));
        for t in (0..=2_000).step_by(50) {
            net.now = ms(t);
            for id in 0..3 {
                assert!(net.groups[&n(id)].deadline().unwrap() <= ms(t) + HB.interval);
                net.at(id, |g| g.tick(ms(t)));
            }
            net.settle();
        }
        assert!(net.told.is_empty(), "idle members stay: {:?}", net.told);
        // n2 hangs: no event, no beacons. The others last heard it at 2 s.
        net.down.insert(n(2));
        for t in (2_050..2_400).step_by(50) {
            net.now = ms(t);
            net.at(0, |g| g.tick(ms(t)));
            net.at(1, |g| g.tick(ms(t)));
            net.settle();
        }
        assert!(net.told.is_empty(), "{:?}", net.told);
        assert_eq!(net.groups[&n(0)].deadline(), Some(ms(2_400)));
        net.now = ms(2_400);
        net.at(0, |g| g.tick(ms(2_400)));
        let suspected = Out::Suspected {
            node: n(2),
            silent_for: HB.timeout,
        };
        assert!(net.was_told(0, &suspected), "{:?}", net.told);
        net.settle();
        assert_eq!(net.members(0), Some(vec![0, 1]));
        assert_eq!(net.members(1), Some(vec![0, 1]));
    }

    #[test]
    fn a_muted_member_sends_no_beacons() {
        let chaos = HeartbeatChaos {
            seed: 7,
            skip_p: 1.0,
        };
        let (mut muted, _) = Group::new(n(0), None, Some(HB), Some(chaos), ms(0));
        let (mut plain, _) = Group::new(n(0), None, Some(HB), None, ms(0));
        for g in [&mut muted, &mut plain] {
            g.on_msg(n(1), GcMsg::JoinReq { node: n(1) }, ms(0));
            assert_eq!(g.view().map(View::size), Some(2));
        }
        let beacon = vec![Out::Send {
            to: n(1),
            msg: GcMsg::Heartbeat { node: n(0) },
        }];
        assert_eq!(plain.tick(ms(50)), beacon);
        assert!(muted.tick(ms(50)).is_empty());
        assert_eq!(muted.deadline(), Some(ms(100)), "next round still due");
    }
}
