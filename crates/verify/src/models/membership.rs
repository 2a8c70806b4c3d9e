//! Exhaustive model of ensemble group membership and total order: *n*
//! deployed [`Group`] machines over a per-link FIFO of real [`GcMsg`]s.
//!
//! Every protocol decision — who sequences, when a flush starts, who takes
//! over from a dead coordinator, what a `NewView` carries, who forwards
//! what on a coordinator hand-over — is taken by the machine the
//! [`Stack`](starfish_ensemble::Stack) of every daemon runs
//! (`starfish_ensemble::group`). The model contributes the environment
//! only, and plays the endpoint's shell in it: sends go onto per-link FIFO
//! channels (ensemble p2p is FIFO-reliable between live nodes; frames on
//! the wire survive their sender's crash, a dead port eats what reaches
//! it), a send to a dead node fails back into the machine, a crash is told
//! to each survivor separately and late (failure-notification latency),
//! and the owner casts and leaves whenever it likes. The group is booted
//! the way a cluster is — the smallest id founds, the others join in order
//! — before exploration starts. Time does not pass: heartbeats are off and
//! the join retry never fires (no frame is lost in a crash-free run).
//!
//! Scenarios (one [`MembershipModel`] each):
//! * the **sequencer crashes** after delivering a sequenced cast to a
//!   strict subset of members — the classical virtual-synchrony hazard:
//!   member logs `[1,2]` and `[1]` must both end as `[1,2]` before the next
//!   view installs — optionally followed by a **second crash during the
//!   change** the first one started;
//! * a node **joins under in-flight casts**, with the largest id (the
//!   coordinator stays) or the smallest (the coordinator role is handed
//!   over mid-stream) — also a group of one, whose sequencer's casts are
//!   its own and must be in the log the join's change closes with;
//! * a member or the coordinator **leaves** under in-flight casts.
//!
//! Safety, checked on every reachable state:
//! * **total order** — logs of live members of one view are
//!   prefix-compatible, every log is gap-free from sequence 1, and no node
//!   delivers a cast twice;
//! * **view agreement** — nodes in the same view id agree on membership;
//! * **virtual synchrony** — nodes that move from one view into the same
//!   next view delivered the same casts in it.
//!
//! Liveness: every interleaving converges to "script done, wire empty, all
//! live members in one view with identical logs", and — when nobody
//! crashes — **nothing is lost**: every submitted cast was delivered
//! exactly once by every node that was a member from its submission to the
//! final view.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

use bytes::Bytes;
use starfish_ensemble::group::{Group, Out};
use starfish_ensemble::{GcMsg, View};
use starfish_trace::TraceCtx;
use starfish_util::NodeId;

use super::chan::{self, Fifo};
use crate::explorer::Model;

/// One scenario. Build with [`MembershipModel::of`] and struct update.
#[derive(Debug, Clone, Copy)]
pub struct MembershipModel {
    /// The booted group, ascending: the first founds, the rest join.
    pub members: &'static [u32],
    /// `caster` submits this many casts, whenever it likes.
    pub casts: u8,
    pub caster: u32,
    /// Fail-stop victims, in this order, whenever the adversary likes.
    pub crashes: &'static [u32],
    /// A node whose join request (through the largest member, which
    /// forwards it) is in flight from the start.
    pub joiner: Option<u32>,
    /// A member that leaves gracefully, whenever it likes.
    pub leaver: Option<u32>,
    /// Mutation: the casts of others that a member forwards when a view
    /// moves the coordinator role away from it are lost (the hand-over bug).
    pub drop_handover: bool,
}

impl MembershipModel {
    /// {n0, n1, n2} with n1 (a non-sequencer) casting twice: the base of the
    /// crash and leave rows.
    pub const TRIO: Self = Self::of(&[0, 1, 2], 1, 2);
    /// {n1, n2} with n2 casting twice: the group every join row starts from.
    pub const PAIR: Self = Self::of(&[1, 2], 2, 2);
    /// {n1} alone, casting twice: the sequencer is the only member, so
    /// every cast it makes is its own to deliver.
    pub const SOLO: Self = Self::of(&[1], 1, 2);

    pub(crate) const fn of(members: &'static [u32], caster: u32, casts: u8) -> Self {
        MembershipModel {
            members,
            casts,
            caster,
            crashes: &[],
            joiner: None,
            leaver: None,
            drop_handover: false,
        }
    }
}

/// Time does not pass in this model.
const NOW: Duration = Duration::ZERO;

#[derive(Clone, Debug)]
struct Node {
    group: Group,
    alive: bool,
    /// Every view this node installed, with the cast ids it delivered in
    /// it; the last one is the node's current view while it is a member.
    history: Vec<(View, Vec<u8>)>,
}

impl Node {
    /// Record what the owner is told; `Err` if a delivery is not the next
    /// sequence number of the view the node is in.
    fn told(&mut self, out: Out) -> Result<(), String> {
        match out {
            Out::View(view) => self.history.push((view, Vec::new())),
            Out::Deliver { view, entry } => match self.history.last_mut() {
                Some((v, log)) if v.id == view && entry.seq == log.len() as u64 + 1 => {
                    log.push(entry.payload[0])
                }
                open => return Err(format!("seq {} of {view:?} onto {open:?}", entry.seq)),
            },
            _ => {}
        }
        Ok(())
    }

    fn delivered(&self) -> Vec<u8> {
        self.history.iter().flat_map(|(_, l)| l.clone()).collect()
    }
}

#[derive(Clone, Debug)]
pub struct MemState {
    nodes: BTreeMap<u32, Node>,
    wire: Fifo<u32, GcMsg>,
    /// Who was a member when each cast was submitted (index = id − 1).
    witnesses: Vec<BTreeSet<u32>>,
    crashed: usize,
    /// `(observer, victim)` failure notifications still under way.
    unnotified: BTreeSet<(u32, u32)>,
    leave_pending: bool,
    broken: Option<String>,
}

#[derive(Clone, Debug)]
pub enum MemAction {
    /// The caster submits the next cast.
    Submit,
    /// Deliver the head message on link `from → to`.
    Deliver(u32, u32),
    /// The next victim fail-stops.
    Crash(u32),
    /// `observer` learns that `victim` failed.
    Notify(u32, u32),
    /// The leaver calls `leave()`.
    Leave(u32),
}

impl MembershipModel {
    /// Play the endpoint shell for what `at`'s machine answered: sends go
    /// on the wire (or fail back into the machine), the rest is recorded
    /// as the owner would see it.
    fn pump(&self, s: &mut MemState, at: u32, outs: Vec<Out>) {
        let mut queue = VecDeque::from(outs);
        let mut handed_over = false;
        while let Some(out) = queue.pop_front() {
            let alive = |to: &NodeId| s.nodes[&to.0].alive;
            match out {
                Out::Send {
                    msg: GcMsg::CastReq { origin, .. },
                    ..
                } if handed_over && self.drop_handover && origin.0 != at => {}
                Out::Send { to, msg } if alive(&to) => chan::push(&mut s.wire, at, to.0, msg),
                Out::Send { to, msg } => {
                    let node = s.nodes.get_mut(&at).expect("known node");
                    queue.extend(node.group.send_failed(to, msg));
                }
                out => {
                    let node = s.nodes.get_mut(&at).expect("known node");
                    handed_over |= matches!(&out, Out::View(v) if v.coordinator().0 != at);
                    if let Err(what) = node.told(out) {
                        s.broken.get_or_insert(format!("node {at}: {what}"));
                    }
                }
            }
        }
    }

    fn drive(&self, s: &mut MemState, at: u32, event: impl FnOnce(&mut Group) -> Vec<Out>) {
        let outs = event(&mut s.nodes.get_mut(&at).expect("known node").group);
        self.pump(s, at, outs);
    }

    /// Deliver the head message on link `from → to`.
    fn receive(&self, s: &mut MemState, from: u32, to: u32) {
        let msg = chan::pop(&mut s.wire, from, to).expect("a queued message");
        self.drive(s, to, |g| g.on_msg(NodeId(from), msg, NOW));
    }

    fn start(&self, s: &mut MemState, id: u32, contact: Option<u32>) {
        let (group, outs) = Group::new(NodeId(id), contact.map(NodeId), None, None, NOW);
        let node = Node {
            group,
            alive: true,
            history: Vec::new(),
        };
        s.nodes.insert(id, node);
        self.pump(s, id, outs);
    }

    /// Live nodes that are members of a view.
    fn in_view(s: &MemState) -> impl Iterator<Item = (&u32, &Node)> {
        let member = |(_, n): &(&u32, &Node)| n.alive && n.group.view().is_some();
        s.nodes.iter().filter(member)
    }
}

impl Model for MembershipModel {
    type State = MemState;
    type Action = MemAction;

    fn init(&self) -> Vec<MemState> {
        let mut s = MemState {
            nodes: BTreeMap::new(),
            wire: Fifo::new(),
            witnesses: Vec::new(),
            crashed: 0,
            unnotified: BTreeSet::new(),
            leave_pending: self.leaver.is_some(),
            broken: None,
        };
        // Boot: one deterministic schedule, the machines' own.
        for id in self.members {
            self.start(
                &mut s,
                *id,
                (*id != self.members[0]).then_some(self.members[0]),
            );
            while let Some((f, t)) = chan::heads(&s.wire).first().copied() {
                self.receive(&mut s, f, t);
            }
        }
        for node in s.nodes.values_mut() {
            node.history.drain(..node.history.len() - 1);
        }
        if let Some(joiner) = self.joiner {
            self.start(&mut s, joiner, self.members.last().copied());
        }
        vec![s]
    }

    fn actions(&self, s: &MemState) -> Vec<MemAction> {
        let mut acts = Vec::new();
        let up = |id: &u32| s.nodes[id].alive && !s.nodes[id].group.is_gone();
        if s.witnesses.len() < self.casts as usize && up(&self.caster) {
            acts.push(MemAction::Submit);
        }
        for (f, t) in chan::heads(&s.wire) {
            acts.push(MemAction::Deliver(f, t));
        }
        if let Some(victim) = self.crashes.get(s.crashed) {
            acts.push(MemAction::Crash(*victim));
        }
        for (o, v) in &s.unnotified {
            acts.push(MemAction::Notify(*o, *v));
        }
        if let Some(leaver) = self.leaver.filter(|l| s.leave_pending && up(l)) {
            acts.push(MemAction::Leave(leaver));
        }
        acts
    }

    fn next(&self, s: &MemState, a: &MemAction) -> MemState {
        let mut s = s.clone();
        match a {
            MemAction::Submit => {
                let members = Self::in_view(&s).map(|(id, _)| *id).collect();
                s.witnesses.push(members);
                let payload = Bytes::from(vec![s.witnesses.len() as u8]);
                self.drive(&mut s, self.caster, |g| g.cast(payload, TraceCtx::NONE));
            }
            MemAction::Deliver(f, t) => self.receive(&mut s, *f, *t),
            MemAction::Crash(victim) => {
                s.crashed += 1;
                s.nodes.get_mut(victim).expect("known node").alive = false;
                // Frames it sent survive; frames for it die at its port,
                // and it will hear of nobody's failure any more.
                s.wire.retain(|(_, to), _| to != victim);
                s.unnotified.retain(|(o, _)| o != victim);
                let alive = s.nodes.iter().filter(|(_, n)| n.alive);
                s.unnotified.extend(alive.map(|(o, _)| (*o, *victim)));
            }
            MemAction::Notify(o, victim) => {
                s.unnotified.remove(&(*o, *victim));
                self.drive(&mut s, *o, |g| g.member_failed(NodeId(*victim)));
            }
            MemAction::Leave(leaver) => {
                s.leave_pending = false;
                self.drive(&mut s, *leaver, |g| g.leave());
            }
        }
        s
    }

    fn check(&self, s: &MemState) -> Result<(), String> {
        if let Some(b) = &s.broken {
            return Err(b.clone());
        }
        for (id, node) in &s.nodes {
            let mut all = node.delivered();
            all.sort_unstable();
            if all.windows(2).any(|w| w[0] == w[1]) {
                return Err(format!("node {id} delivered a cast twice: {all:?}"));
            }
        }
        // View agreement and prefix compatibility among live members.
        let members: Vec<(&u32, &Node)> = Self::in_view(s).collect();
        for (i, (a, na)) in members.iter().enumerate() {
            for (b, nb) in &members[i + 1..] {
                let (va, vb) = (na.group.view(), nb.group.view());
                if va.map(|v| v.id) != vb.map(|v| v.id) {
                    continue;
                }
                if va != vb {
                    return Err(format!("view membership disagreement: {va:?} vs {vb:?}"));
                }
                let (la, lb) = (na.history.last(), nb.history.last());
                let (la, lb) = (&la.expect("in view").1, &lb.expect("in view").1);
                let k = la.len().min(lb.len());
                if la[..k] != lb[..k] {
                    return Err(format!("total order violated: node {a} vs node {b}"));
                }
            }
        }
        // Virtual synchrony: the same move, the same closed history.
        let closed = s.nodes.values().flat_map(|n| n.history.windows(2));
        let moves: Vec<_> = closed.map(|w| ((&w[0].0, &w[1].0), &w[0].1)).collect();
        for (i, (ma, ha)) in moves.iter().enumerate() {
            for (mb, hb) in &moves[i + 1..] {
                if ma == mb && ha != hb {
                    return Err(format!(
                        "virtual synchrony violated: {ma:?} closed with {ha:?} vs {hb:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    fn accepting(&self, s: &MemState) -> bool {
        let caster = &s.nodes[&self.caster];
        let script_done = (s.witnesses.len() == self.casts as usize || !caster.alive)
            && s.crashed == self.crashes.len()
            && !s.leave_pending;
        if !script_done || !chan::is_empty(&s.wire) || !s.unnotified.is_empty() {
            return false;
        }
        // Everyone alive is in (the joiner) or out (the leaver) …
        let settled =
            |(id, n): (&u32, &Node)| !n.alive || n.group.is_gone() == (Some(*id) == self.leaver);
        // … all members in one view, which is exactly them, with one log …
        let members: Vec<(&u32, &Node)> = Self::in_view(s).collect();
        let ids: Vec<NodeId> = members.iter().map(|(id, _)| NodeId(**id)).collect();
        let same = |(_, n): &(&u32, &Node)| {
            n.group.view().map(|v| &v.members) == Some(&ids)
                && n.history.last() == members[0].1.history.last()
        };
        // … and, if nobody crashed, nothing was lost on the way.
        let kept = |(id, n): &(&u32, &Node)| {
            let got = n.delivered();
            let owed = |c: &(usize, &BTreeSet<u32>)| c.1.contains(id);
            let mut owed = s.witnesses.iter().enumerate().filter(owed);
            owed.all(|(c, _)| got.contains(&(c as u8 + 1)))
        };
        s.nodes.iter().all(settled)
            && members.iter().all(same)
            && (!self.crashes.is_empty() || members.iter().all(kept))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, Options, ViolationKind};

    const TRIO: MembershipModel = MembershipModel::TRIO;
    const PAIR: MembershipModel = MembershipModel::PAIR;

    fn clean(m: MembershipModel) -> usize {
        let r = explore(&m, Options::default());
        assert!(r.clean(), "{m:?}: {:?}", r.violation);
        r.states
    }

    /// Sequencer crash with casts in flight: the flush union must keep the
    /// survivors' histories identical in every interleaving.
    #[test]
    fn sequencer_crash_preserves_agreement() {
        let states = clean(MembershipModel {
            crashes: &[0],
            ..TRIO
        });
        assert!(states > 100, "nontrivial space expected: {states}");
    }

    #[test]
    fn crash_free_total_order() {
        clean(MembershipModel { casts: 3, ..TRIO });
    }

    /// A second failure while the first one's change is open: the recovery
    /// coordinator finishes without the member, or the last survivor takes
    /// over from the recovery coordinator.
    #[test]
    fn member_crash_during_the_recovery_change() {
        for crashes in [&[0, 2], &[0, 1]] {
            clean(MembershipModel {
                casts: 1,
                crashes,
                ..TRIO
            });
        }
    }

    /// Joins under in-flight casts lose nothing — with the largest id (n1
    /// stays coordinator) and the smallest (n1 hands the role to n0 while
    /// it holds n2's casts, and n2's next request may beat n0's first view).
    #[test]
    fn joins_under_casts_lose_nothing() {
        for joiner in [3, 0] {
            clean(MembershipModel {
                joiner: Some(joiner),
                ..PAIR
            });
        }
    }

    /// A group of one under a join: the sequencer delivers its own casts
    /// as it sequences them, so a join it handles next finds them in the
    /// log its change closes with — whatever the joiner's id.
    #[test]
    fn a_lone_sequencer_loses_nothing_to_a_join() {
        for joiner in [2, 0] {
            clean(MembershipModel {
                joiner: Some(joiner),
                ..MembershipModel::SOLO
            });
        }
    }

    #[test]
    fn leaves_under_casts_lose_nothing() {
        for leaver in [2, 0] {
            clean(MembershipModel {
                casts: 1,
                leaver: Some(leaver),
                ..TRIO
            });
        }
    }

    /// The mutation the hand-over fix must kill: without the forward, some
    /// schedule ends at rest with a cast its witnesses never delivered.
    #[test]
    fn a_lost_hand_over_is_caught() {
        let m = MembershipModel {
            joiner: Some(0),
            drop_handover: true,
            ..PAIR
        };
        let v = explore(&m, Options::default()).violation.expect("caught");
        assert_eq!(v.kind, ViolationKind::Deadlock, "{v:?}");
        // The same mutation is harmless when the coordinator stays.
        clean(MembershipModel {
            joiner: Some(3),
            drop_handover: true,
            ..PAIR
        });
    }

    #[test]
    fn invariant_rejects_forked_histories() {
        let m = MembershipModel {
            crashes: &[0],
            ..TRIO
        };
        let mut s = m.init().pop().unwrap();
        assert!(m.check(&s).is_ok());
        // n1 and n2 both moved from the boot view into the current one, but
        // closed it with different histories.
        for (id, log) in [(1, vec![1, 2]), (2, vec![1])] {
            let history = &mut s.nodes.get_mut(&id).unwrap().history;
            let boot = View::new(starfish_util::ViewId(2), vec![NodeId(0), NodeId(1)]);
            history.insert(0, (boot, log));
        }
        assert!(m.check(&s).is_err());
    }
}
