//! Exhaustive model of the daemon: *n* deployed [`Node`] reducers, each over
//! its deployed ensemble [`Group`], on per-link FIFOs of real `GcMsg`s. The
//! model plays both shells — a group's sends leave at once, its deliveries
//! queue for the loop, which feeds them to the reducer and carries each
//! answer out — and keeps a ground truth of running ranks. A crash is told
//! to each survivor late but after the dead node's frames; a joiner retries
//! once the system is quiet; bus events are not cast. VERIFICATION.md states
//! the rows, the invariants and the two mutation switches: `fresh_dead_only`
//! (the failure response restarts only jobs on the nodes it declares dead
//! itself) and `ask_once` (a daemon casts one `NeedState` and one `AddNode`).

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

use starfish_checkpoint::backend::CkptBackend;
use starfish_daemon::config::{AppEntry, AppSpec, AppStatus, CkptProto, FtPolicy, LevelKind};
use starfish_daemon::msg::{CfgCmd, P2pMsg, ProcDown, WireCast};
use starfish_daemon::node::{Node, Out};
use starfish_ensemble::group::{Group, Out as GroupOut, JOIN_RETRY};
use starfish_ensemble::GcMsg;
use starfish_trace::TraceCtx;
use starfish_util::codec::{Decode, Encode};
use starfish_util::{NodeId, Rank, VirtualTime};

use super::chan::{self, Fifo};
use crate::explorer::Model;

/// One scenario over the booted {n0, n1, n2}.
#[derive(Debug, Clone, Copy)]
pub struct DaemonModel {
    /// The job's policy; `spare_n0`: none of its ranks on n0 (disabled
    /// while it is placed).
    pub policy: FtPolicy,
    pub spare_n0: bool,
    /// A node that crashes, whenever the adversary likes …
    pub victim: Option<u32>,
    /// … and restarts under its old id once it has.
    pub rejoin: bool,
    /// n3 joins, from the start.
    pub joiner: bool,
    /// A daemon that carries its answers out one at a time and may crash
    /// between any two.
    pub responder: Option<u32>,
    /// Mutation (i): restart only jobs on nodes declared dead now.
    pub fresh_dead_only: bool,
    /// Mutation (ii): a daemon asks for the configuration and announces
    /// itself once.
    pub ask_once: bool,
}

impl DaemonModel {
    /// A job of two ranks on n1 and n2 under `policy`.
    pub const fn job(policy: FtPolicy) -> Self {
        DaemonModel {
            policy,
            spare_n0: true,
            victim: None,
            rejoin: false,
            joiner: false,
            responder: None,
            fresh_dead_only: false,
            ask_once: false,
        }
    }
}

const VT: VirtualTime = VirtualTime::ZERO;

#[derive(Clone, Debug)]
enum Work {
    Event(GroupOut),
    Answer(Out),
}

/// A daemon: its group machine, its reducer, and what its loop has yet to
/// do — deliveries to feed, answers to carry out.
#[derive(Clone, Debug)]
struct Daemon {
    group: Group,
    node: Node,
    alive: bool,
    todo: VecDeque<Work>,
    /// Stream position fed last: (view, sequence number).
    pos: (u64, u64),
    /// It retried its join; it cast its `AddNode` (for `ask_once`).
    retried: bool,
    announced: bool,
}

#[derive(Clone, Debug, Default)]
pub struct DmState {
    daemons: BTreeMap<u32, Daemon>,
    wire: Fifo<u32, GcMsg>,
    /// `(observer, victim)` failure notifications still under way.
    unnotified: BTreeSet<(u32, u32)>,
    crashed: BTreeSet<u32>,
    rejoined: bool,
    /// Ground truth: the node and epoch each running `(app, rank)` runs in.
    running: BTreeMap<(u32, u32), (u32, u32)>,
    /// The last lightweight view `(daemon, app)` gave its ranks.
    lw: BTreeMap<(u32, u32), Vec<NodeId>>,
    /// Who acted for each view (a dead member's views may share its id).
    acted: BTreeMap<(u64, Vec<NodeId>), u32>,
    broken: Option<String>,
}

#[derive(Clone, Debug)]
pub enum DmAction {
    /// Deliver the head message on link `from → to`.
    Deliver(u32, u32),
    /// `observer` learns that `victim` failed.
    Notify(u32, u32),
    Crash(u32),
    /// The responder takes its next piece of work.
    Step(u32),
    /// A view-less joiner re-sends its join request.
    Retry(u32),
    /// The crashed victim boots again under its old id.
    Rejoin(u32),
}

impl DaemonModel {
    fn start(&self, s: &mut DmState, id: u32, contact: Option<u32>) {
        let (group, outs) = Group::new(NodeId(id), contact.map(NodeId), None, None, Duration::ZERO);
        let node = Node::new(NodeId(id), 0, contact.is_none());
        let (todo, pos, alive, retried, announced) = (VecDeque::new(), (0, 0), true, false, false);
        let daemon = Daemon {
            group,
            node,
            alive,
            todo,
            pos,
            retried,
            announced,
        };
        s.daemons.insert(id, daemon);
        self.group_outs(s, id, outs);
    }

    /// The stack: sends leave at once (or fail back), deliveries queue.
    fn group_outs(&self, s: &mut DmState, d: u32, outs: Vec<GroupOut>) {
        let mut queue = VecDeque::from(outs);
        while let Some(out) = queue.pop_front() {
            let reachable = |to: &NodeId| s.daemons.get(&to.0).is_some_and(|t| t.alive);
            match out {
                GroupOut::Send { to, msg } if reachable(&to) => {
                    chan::push(&mut s.wire, d, to.0, msg)
                }
                GroupOut::Send { to, msg } => queue.extend(at(s, d).group.send_failed(to, msg)),
                GroupOut::View(_) | GroupOut::Deliver { .. } | GroupOut::P2p { .. } => {
                    at(s, d).todo.push_back(Work::Event(out))
                }
                _ => {}
            }
        }
    }

    /// Deliver the head message on link `f → t`.
    fn receive(&self, s: &mut DmState, f: u32, t: u32) {
        let msg = chan::pop(&mut s.wire, f, t).expect("a queued message");
        let outs = at(s, t).group.on_msg(NodeId(f), msg, Duration::ZERO);
        self.group_outs(s, t, outs);
    }

    /// The loop's next piece of work at `d`: a delivery fed to the reducer
    /// (its answers go first in line), or an answer carried out.
    fn step(&self, s: &mut DmState, d: u32) {
        match at(s, d).todo.pop_front() {
            Some(Work::Event(ev)) => {
                let answers = self.feed(s, d, ev);
                let todo = &mut at(s, d).todo;
                for a in answers.into_iter().rev() {
                    todo.push_front(Work::Answer(a));
                }
            }
            Some(Work::Answer(out)) => self.carry(s, d, out),
            None => {}
        }
    }

    /// Run `d`'s loop to the end — unless `d` is the responder, which
    /// steps (or all do, at boot).
    fn drain(&self, s: &mut DmState, d: u32, boot: bool) {
        while (boot || Some(d) != self.responder) && !s.daemons[&d].todo.is_empty() {
            self.step(s, d);
        }
    }

    fn feed(&self, s: &mut DmState, d: u32, ev: GroupOut) -> Vec<Out> {
        let lp = at(s, d);
        let answers = match ev {
            GroupOut::View(view) => {
                let key = (view.id.raw(), view.members.clone());
                lp.pos = (key.0, 0);
                let answers = lp.node.view(view, VT);
                if lp.node.acts_for_group() {
                    if let Some(other) = s.acted.insert(key.clone(), d).filter(|o| *o != d) {
                        let twice = format!("n{other} and n{d} both acted for {key:?}");
                        s.broken.get_or_insert(twice);
                    }
                }
                answers
            }
            GroupOut::Deliver { view, entry } => {
                lp.pos = (view.raw(), entry.seq);
                let wc = WireCast::decode_from_bytes(&entry.payload);
                let answers = wc.map(|wc| lp.node.cast(entry.origin, wc, VT, VT));
                answers.unwrap_or_default()
            }
            GroupOut::P2p { payload, .. } => {
                let msg = P2pMsg::decode_from_bytes(&payload);
                msg.map(|m| lp.node.p2p(m, VT)).unwrap_or_default()
            }
            _ => Vec::new(),
        };
        // The mutations, and the abstraction of bus events.
        let declared = |a: &Out| match a {
            Out::Cast(WireCast::Cfg(CfgCmd::NodeDead { node })) => Some(*node),
            _ => None,
        };
        let fresh: Vec<NodeId> = answers.iter().filter_map(declared).collect();
        let announced = &mut at(s, d).announced;
        let mut kept = |a: &Out| match a {
            Out::Restart { dead, .. } => {
                !self.fresh_dead_only || dead.iter().any(|n| fresh.contains(n))
            }
            Out::Cast(WireCast::Cfg(CfgCmd::NeedState { req, .. })) => !self.ask_once || *req == 1,
            Out::Cast(WireCast::Cfg(CfgCmd::AddNode { node, .. })) if node.0 == d => {
                !self.ask_once || !std::mem::replace(announced, true)
            }
            Out::Cast(WireCast::Event { .. }) => false,
            _ => true,
        };
        answers.into_iter().filter(|a| kept(a)).collect()
    }

    fn carry(&self, s: &mut DmState, d: u32, out: Out) {
        let m = at(s, d);
        let outs = match out {
            Out::Cast(wc) => m.group.cast(wc.encode_to_bytes(), TraceCtx::NONE),
            Out::SendTo(node, msg) => m.group.send_to(node, msg.encode_to_bytes()),
            Out::Restart { app, .. } => {
                let line = vec![0; m.node.config().apps[&app].spec.size as usize];
                let restart = WireCast::Cfg(CfgCmd::RestartApp { app, line });
                m.group.cast(restart.encode_to_bytes(), TraceCtx::NONE)
            }
            Out::Spawn { entry, rank, .. } => {
                let (app, epoch) = (entry.id, entry.epoch);
                let before = s.running.insert((app.0, rank.0), (d, epoch.0));
                if before.is_some_and(|(n, e)| n != d && e == epoch.0) {
                    let twice = format!("{app}.{rank} spawned twice in {epoch}");
                    s.broken.get_or_insert(twice);
                }
                Vec::new()
            }
            Out::Forget(app, rank) => {
                let key = (app.0, rank.0);
                if s.running.get(&key).is_some_and(|(n, _)| *n == d) {
                    s.running.remove(&key);
                }
                Vec::new()
            }
            Out::Down {
                app,
                msg: ProcDown::LwView { view, .. },
                ..
            } => {
                s.lw.insert((d, app.0), view.members);
                Vec::new()
            }
            _ => Vec::new(), // the store, the host and the bus
        };
        self.group_outs(s, d, outs);
    }

    /// Quiet: nothing on the wire, told or to do.
    fn quiet(s: &DmState) -> bool {
        let idle = s.daemons.values().all(|d| d.todo.is_empty());
        idle && chan::is_empty(&s.wire) && s.unnotified.is_empty()
    }
}

fn at(s: &mut DmState, d: u32) -> &mut Daemon {
    s.daemons.get_mut(&d).expect("known daemon")
}

impl Model for DaemonModel {
    type State = DmState;
    type Action = DmAction;

    fn init(&self) -> Vec<DmState> {
        let mut s = DmState::default();
        let settle = |s: &mut DmState| loop {
            for d in s.daemons.keys().copied().collect::<Vec<_>>() {
                self.drain(s, d, true);
            }
            let Some((f, t)) = chan::heads(&s.wire).first().copied() else {
                break;
            };
            self.receive(s, f, t);
        };
        for id in 0..3 {
            self.start(&mut s, id, (id > 0).then_some(0));
            settle(&mut s);
        }
        let spec = AppSpec {
            name: "job".into(),
            size: 2,
            policy: self.policy,
            level: LevelKind::Vm,
            proto: CkptProto::StopAndSync,
            backend: CkptBackend::Disk,
            owner: String::new(),
            token: 0,
        };
        let (n0, spare) = (NodeId(0), self.spare_n0);
        let cmds = [
            spare.then_some(CfgCmd::DisableNode { node: n0 }),
            Some(CfgCmd::Submit { spec }),
            spare.then_some(CfgCmd::EnableNode { node: n0 }),
        ];
        for cmd in cmds.into_iter().flatten() {
            self.carry(&mut s, 0, Out::Cast(WireCast::Cfg(cmd)));
            settle(&mut s);
        }
        if self.joiner {
            self.start(&mut s, 3, Some(2));
        }
        vec![s]
    }

    fn actions(&self, s: &DmState) -> Vec<DmAction> {
        let mut acts = Vec::new();
        let free = |d: &u32| s.daemons[d].alive && s.daemons[d].todo.is_empty();
        let heads = chan::heads(&s.wire).into_iter().filter(|(_, t)| free(t));
        acts.extend(heads.map(|(f, t)| DmAction::Deliver(f, t)));
        // A crash is told after what the dead node sent before it.
        let sent = |v: &u32, o: &u32| s.wire.contains_key(&(*v, *o));
        let told = s.unnotified.iter().filter(|(o, v)| free(o) && !sent(v, o));
        acts.extend(told.map(|(o, v)| DmAction::Notify(*o, *v)));
        for v in [self.victim, self.responder].into_iter().flatten() {
            if s.daemons[&v].alive && !s.crashed.contains(&v) {
                acts.push(DmAction::Crash(v));
            }
        }
        if let Some(r) = self.responder.filter(|r| s.daemons[r].alive && !free(r)) {
            acts.push(DmAction::Step(r));
        }
        for (id, d) in &s.daemons {
            let joining = d.alive && d.group.view().is_none() && !d.group.is_gone();
            if joining && !d.retried && Self::quiet(s) {
                acts.push(DmAction::Retry(*id));
            }
        }
        // A restart comes after every survivor was told of the crash (an
        // exclusion may still be under way).
        let crashed = |v: &u32| self.rejoin && !s.rejoined && s.crashed.contains(v);
        if let Some(v) = self.victim.filter(crashed) {
            let told = !s.unnotified.iter().any(|(_, x)| *x == v);
            if told && !s.wire.keys().any(|(f, _)| *f == v) {
                acts.push(DmAction::Rejoin(v));
            }
        }
        acts
    }

    fn next(&self, s: &DmState, a: &DmAction) -> DmState {
        let mut s = s.clone();
        let d = match *a {
            DmAction::Deliver(f, t) => {
                self.receive(&mut s, f, t);
                t
            }
            DmAction::Notify(o, v) => {
                s.unnotified.remove(&(o, v));
                let outs = at(&mut s, o).group.member_failed(NodeId(v));
                self.group_outs(&mut s, o, outs);
                o
            }
            DmAction::Crash(v) => {
                s.crashed.insert(v);
                let dead = at(&mut s, v);
                dead.alive = false;
                dead.todo.clear();
                // Frames it sent survive; frames for it die at its port.
                s.wire.retain(|(_, to), _| *to != v);
                s.unnotified.retain(|(o, _)| *o != v);
                let alive = s.daemons.iter().filter(|(_, d)| d.alive);
                let told: Vec<(u32, u32)> = alive.map(|(o, _)| (*o, v)).collect();
                s.unnotified.extend(told);
                s.running.retain(|_, (n, _)| *n != v);
                s.lw.retain(|(host, _), _| *host != v);
                return s;
            }
            DmAction::Step(r) => {
                self.step(&mut s, r);
                return s;
            }
            DmAction::Retry(j) => {
                let m = at(&mut s, j);
                m.retried = true;
                let outs = m.group.tick(JOIN_RETRY);
                self.group_outs(&mut s, j, outs);
                j
            }
            DmAction::Rejoin(v) => {
                s.rejoined = true;
                let contact = s.daemons.iter().find(|(_, d)| d.alive).map(|(id, _)| *id);
                self.start(&mut s, v, contact);
                v
            }
        };
        self.drain(&mut s, d, false);
        s
    }

    fn check(&self, s: &DmState) -> Result<(), String> {
        if let Some(b) = &s.broken {
            return Err(b.clone());
        }
        let synced = s
            .daemons
            .iter()
            .filter(|(_, d)| d.alive && d.node.bootstrapped());
        let synced: Vec<(&u32, &Daemon)> = synced.collect();
        for (i, (a, la)) in synced.iter().enumerate() {
            for (b, lb) in &synced[i + 1..] {
                if la.pos == lb.pos && la.node.config() != lb.node.config() {
                    return Err(format!("n{a} and n{b} differ at {:?}", la.pos));
                }
            }
        }
        if !Self::quiet(s) {
            return Ok(());
        }
        // Quiet: each host's ranks were last told exactly the running hosts.
        let mut hosts: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
        for ((app, _), (n, _)) in &s.running {
            hosts.entry(*app).or_default().push(NodeId(*n));
        }
        for (app, nodes) in &mut hosts {
            nodes.sort_unstable();
            nodes.dedup();
            for n in nodes.iter() {
                let told = s.lw.get(&(n.0, *app));
                if told != Some(&*nodes) {
                    return Err(format!(
                        "app{app}: n{} told {told:?}, runs on {nodes:?}",
                        n.0
                    ));
                }
            }
        }
        Ok(())
    }

    fn accepting(&self, s: &DmState) -> bool {
        let done = self.victim.is_none_or(|v| s.crashed.contains(&v)) && s.rejoined == self.rejoin;
        let live: Vec<(&u32, &Daemon)> = s.daemons.iter().filter(|(_, d)| d.alive).collect();
        let Some((_, first)) = live.first().filter(|_| done && Self::quiet(s)) else {
            return false;
        };
        let cfg = first.node.config();
        let synced = |(id, lp): &(&u32, &Daemon)| {
            lp.node.bootstrapped() && lp.node.config() == cfg && cfg.is_live(NodeId(**id))
        };
        let runs = |a: &AppEntry| {
            let at = |(r, n): (Rank, NodeId)| {
                s.running.get(&(a.id.0, r.0)).map(|(h, _)| *h) == Some(n.0)
            };
            let placed = || a.placed().all(at);
            !matches!(a.status, AppStatus::Running | AppStatus::Suspended) || placed()
        };
        live.iter().all(synced) && cfg.apps.values().all(runs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, Options, ViolationKind};

    fn clean(m: DaemonModel) -> usize {
        let r = explore(&m, Options::default());
        assert!(r.clean(), "{m:?}: {:?}", r.violation);
        r.states
    }

    const RESTART: DaemonModel = DaemonModel::job(FtPolicy::Restart);

    /// (a) The host of rank 0 crashes; the acting daemon may crash at any
    /// step of its response.
    #[test]
    fn a_restart_survives_the_acting_daemons_crash() {
        let states = clean(DaemonModel {
            victim: Some(1),
            responder: Some(0),
            ..RESTART
        });
        assert!(states > 100, "nontrivial space expected: {states}");
    }

    /// Without re-deriving the restart from placement, the job whose dead
    /// host was declared by a daemon that then died is never restarted.
    #[test]
    fn a_restart_decided_by_a_dead_daemon_is_caught() {
        let m = DaemonModel {
            victim: Some(1),
            responder: Some(0),
            fresh_dead_only: true,
            ..RESTART
        };
        let v = explore(&m, Options::default()).violation.expect("caught");
        assert_eq!(v.kind, ViolationKind::Deadlock, "{v:?}");
    }

    /// (b) n3 joins; the daemon answering its `NeedState` may crash.
    #[test]
    fn a_joiner_is_bootstrapped_across_its_answerers_crash() {
        clean(DaemonModel {
            joiner: true,
            responder: Some(0),
            ..RESTART
        });
        let m = DaemonModel {
            joiner: true,
            responder: Some(0),
            ask_once: true,
            ..RESTART
        };
        let v = explore(&m, Options::default()).violation.expect("caught");
        assert_eq!(v.kind, ViolationKind::Deadlock, "{v:?}");
    }

    /// (c) n0 — the smallest id, so it coordinates the view it rejoins
    /// before it is bootstrapped — crashes and restarts; its rank of the
    /// notify-policy job stays lost and out of the lightweight group.
    #[test]
    fn a_rejoin_under_the_old_id_keeps_the_lost_rank_out() {
        clean(DaemonModel {
            victim: Some(0),
            rejoin: true,
            spare_n0: false,
            ..DaemonModel::job(FtPolicy::NotifyView)
        });
    }
}
