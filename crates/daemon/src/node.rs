//! Every decision of a daemon as one pure machine (paper §2.1, §3.1).
//!
//! A [`Node`] holds what a daemon decides with: the replicated
//! [`ClusterConfig`] it applies from the totally ordered cast stream, the
//! lightweight groups it derives from that and the main view, a joiner's
//! bootstrap (its `NeedState` marker, the casts buffered behind it, the
//! snapshot that ends it, its announcement), the installed main view —
//! which says who acts for the group and what a failure costs — and the set
//! of local ranks. It is driven by events and answers with [`Out`]s, in the
//! order they must happen:
//!
//! | event | method |
//! |---|---|
//! | a main view was installed | [`Node::view`] |
//! | a totally ordered cast was delivered | [`Node::cast`] |
//! | a daemon-to-daemon message arrived | [`Node::p2p`] |
//! | a local rank sent something up | [`Node::proc_up`] |
//! | a local observation to publish (a suspicion, an injected fault) | [`Node::emit`] |
//!
//! Each event is handed its timestamps — the input's `vt` and the shell's
//! clock after merging it (`now`) — and the machine stamps with those only,
//! the casts and sends it asks for included. The casts of one answer that
//! leave at one virtual instant, one after the other, leave as one
//! [`WireCast::Batch`]: one slot of the total order, unpacked in order on
//! delivery.
//! The shell (the node loop in `daemon.rs`) owns everything else: the
//! ensemble stack, the node host, the checkpoint store, the flight recorder
//! (cluster events included) and the forensics, the stats hub, the
//! instruments and the links to the local ranks. The `verify` crate's
//! daemon rows run *n* of these values over the deployed ensemble `Group`.
// lint: sans-io

use std::collections::{BTreeMap, BTreeSet};

use starfish_checkpoint::backend::CkptBackend;
use starfish_ensemble::View;
use starfish_trace::event::EventKind;
use starfish_util::codec::{Decode, Encode};
use starfish_util::{AppId, GroupId, NodeId, Rank, VirtualTime};
use starfish_vni::RELAY_COST;

use crate::config::{AppEntry, AppStatus, CfgEffect, CfgNodeStatus, ClusterConfig, FtPolicy};
use crate::lwgroups::{self as lw, LwGroups};
use crate::msg::{
    AppRelay, CfgCmd, P2pMsg, ProcDown, ProcUp, RankStats, RelayKind, StatsCast, WireCast,
};

/// What the machine asks its shell to do, in order.
#[derive(Debug, Clone)]
pub enum Out {
    /// Cast on the group's total order, leaving at `vt`.
    Cast {
        wc: WireCast,
        vt: VirtualTime,
    },
    /// Send to one daemon, leaving at `vt`.
    SendTo {
        to: NodeId,
        msg: P2pMsg,
        vt: VirtualTime,
    },
    /// Start local rank `rank` of `entry`, from checkpoint `restore_from`
    /// (0: its initial state).
    Spawn {
        entry: AppEntry,
        rank: Rank,
        restore_from: u64,
    },
    /// Queue `msg` for a local rank.
    Down {
        app: AppId,
        rank: Rank,
        msg: ProcDown,
    },
    /// Drop the link to a local rank.
    Forget(AppId, Rank),
    Store(StoreOp),
    /// The host updates its rank directory from `entry`.
    Placement(AppEntry),
    /// The host unplaces a rank lost with no replacement.
    RankLost(AppId, Rank),
    /// Record a cluster event on the daemon's flight recorder.
    Event {
        origin: NodeId,
        vt: VirtualTime,
        kind: EventKind,
    },
    /// The recovery of `app` begun at this stream point completes after
    /// `respawns` respawn events — at once if none.
    Recovery {
        app: AppId,
        respawns: usize,
        origin: NodeId,
        vt: VirtualTime,
    },
    /// The failure response to `app`'s ranks on `dead`: read its recovery
    /// line from the store and cast `RestartApp`.
    Restart {
        app: AppId,
        dead: Vec<NodeId>,
    },
    /// Telemetry a daemon cast, delivered at `vt`: each scope's snapshot
    /// replaces that scope's last one in the stats hub, and each rank's is
    /// one point of the hub's history.
    Stats {
        stats: StatsCast,
        vt: VirtualTime,
    },
    /// Keep this many stats history samples.
    Retention(usize),
    /// Publish the configuration: the response to it is carried out.
    Publish,
}

/// What the checkpoint store is told: its methods of the same names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreOp {
    NodeDown(NodeId),
    NodeUp(NodeId),
    SetBackend(AppId, CkptBackend, Vec<NodeId>),
    UpdatePlacement(AppId, Vec<NodeId>),
    PruneBelow(AppId, u64),
    RemoveApp(AppId),
}

/// One daemon's decision state. See the module docs.
#[derive(Debug, Clone)]
pub struct Node {
    me: NodeId,
    arch_index: u8,
    config: ClusterConfig,
    lw: LwGroups,
    view: Option<View>,
    procs: BTreeSet<(AppId, Rank)>,
    /// The founder owns the (empty) initial configuration; a joiner ignores
    /// the configuration stream until a snapshot arrives.
    bootstrapped: bool,
    /// `NeedState` markers cast so far: the last one's `req`.
    asked: u32,
    /// Configuration casts from our first own marker on, later own markers
    /// included: the snapshot answering marker `req` replays what follows
    /// it. Empty until the first marker is delivered.
    cast_buffer: Vec<(NodeId, CfgCmd)>,
    /// A snapshot that overtook its marker, applied when that is delivered.
    early_state: Option<(u32, ClusterConfig)>,
    /// Ranks' telemetry handed over with their `Saved`s: it rides this
    /// daemon's next stats cast, a newer snapshot replacing an older one,
    /// unless its job is done or deleted first.
    handed: BTreeMap<(AppId, Rank), RankStats>,
    /// The network's one-hop time between daemons, on a relayed stamp.
    hop: VirtualTime,
    out: Vec<Out>,
}

impl Node {
    /// The daemon on `me`, a machine of type `arch_index`: the group's
    /// `founder`, or a joiner; `hop` is the network's time between daemons.
    pub fn new(me: NodeId, arch_index: u8, founder: bool, hop: VirtualTime) -> Self {
        Node {
            me,
            arch_index,
            config: ClusterConfig::new(),
            lw: LwGroups::new(),
            view: None,
            procs: BTreeSet::new(),
            bootstrapped: founder,
            asked: 0,
            cast_buffer: Vec::new(),
            early_state: None,
            handed: BTreeMap::new(),
            hop,
            out: Vec::new(),
        }
    }

    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    pub fn bootstrapped(&self) -> bool {
        self.bootstrapped
    }

    /// Whether this daemon acts for the group — answers `NeedState`, casts
    /// the failure response, writes the postmortem file: the smallest view
    /// member the configuration knows as live, else the view's smallest
    /// member (the founder, before anyone announced). Not simply the view
    /// coordinator: a rejoining daemon with the smallest id coordinates the
    /// view before it is bootstrapped. Every bootstrapped daemon evaluates
    /// this on the same configuration at the same point of the stream.
    pub fn acts_for_group(&self) -> bool {
        let Some(view) = self.view.as_ref().filter(|_| self.bootstrapped) else {
            return false;
        };
        let acting = view.members.iter().find(|m| self.config.is_live(**m));
        *acting.unwrap_or(&view.coordinator()) == self.me
    }

    // -- events -------------------------------------------------------------

    /// A main view was installed.
    pub fn view(&mut self, view: View, now: VirtualTime) -> Vec<Out> {
        let member = view.contains(self.me);
        self.view = Some(view);
        // Both requests below are repeated at every view until answered: a
        // cast dies with a coordinator that crashes before sequencing it,
        // and a snapshot with the daemon that was to send it.
        if member && self.bootstrapped {
            self.announce(now);
        } else if member {
            // Mark our snapshot point in the total order.
            self.asked += 1;
            let (node, req) = (self.me, self.asked);
            self.cast_cfg(CfgCmd::NeedState { node, req }, now);
        }
        self.sync_lw(now);
        if self.acts_for_group() {
            self.respond(now);
        }
        self.take()
    }

    /// A totally ordered cast from `from`, delivered at `vt`: event
    /// *content and order* agree across daemons (the total order decides
    /// them), stamps are each daemon's own. A batch is its entries, in
    /// order.
    pub fn cast(
        &mut self,
        from: NodeId,
        wc: WireCast,
        vt: VirtualTime,
        now: VirtualTime,
    ) -> Vec<Out> {
        for wc in wc.into_entries() {
            self.delivered(from, wc, vt, now);
        }
        self.take()
    }

    fn delivered(&mut self, from: NodeId, wc: WireCast, vt: VirtualTime, now: VirtualTime) {
        match wc {
            WireCast::Cfg(cmd) => self.cfg(from, cmd, vt, now),
            // Delivered only at members of the app's lightweight group.
            WireCast::Mcast(relay)
                if self.bootstrapped && self.lw.delivers(GroupId(relay.app.0), self.me) =>
            {
                let path = self.hop * u64::from(from != self.me);
                for to in self.local(relay.app) {
                    if to != relay.from {
                        self.relay(&relay, to, path);
                    }
                }
            }
            // A local observation some daemon published.
            WireCast::Event { origin, vt, kind } if self.bootstrapped => {
                self.out.push(Out::Event { origin, vt, kind })
            }
            WireCast::Stats(stats) => self.out.push(Out::Stats { stats, vt }),
            // Before a snapshot: no local ranks and no event history yet.
            // A multicast of a group we are not in.
            _ => {}
        }
    }

    /// A daemon-to-daemon message. A C/R message relayed to one rank is a
    /// member's `Saved` on its way to the coordinator: it pays its level's
    /// `CoordCosts::saved_hop` on top of the network.
    pub fn p2p(&mut self, msg: P2pMsg, now: VirtualTime) -> Vec<Out> {
        match msg {
            P2pMsg::Relay { relay, stats } => {
                let level = self.config.apps.get(&relay.app).map(|e| e.spec.level);
                let saved_hop = match (relay.kind, level) {
                    (RelayKind::CheckpointRestart, Some(l)) => l.coord_costs().saved_hop,
                    _ => VirtualTime::ZERO,
                };
                if let Some(to) = relay.to {
                    self.relay(&relay, to, self.hop + saved_hop);
                }
                self.hand(relay.app, relay.from, stats);
            }
            P2pMsg::State { req, config } if !self.bootstrapped => {
                if let Ok(cfg) = ClusterConfig::decode_from_bytes(&config) {
                    let marker = |(_, c): &(NodeId, CfgCmd)| matches!(c, CfgCmd::NeedState { node, req: r } if *node == self.me && *r == req);
                    match self.cast_buffer.iter().position(marker) {
                        Some(at) => {
                            let after = self.cast_buffer.split_off(at + 1);
                            self.bootstrap(cfg, after, now);
                        }
                        None => self.early_state = Some((req, cfg)),
                    }
                }
            }
            P2pMsg::State { .. } => {} // another answer, too late
        }
        self.take()
    }

    /// Rank `rank` of `app`, local, sent `ups`: what one step of its
    /// machine produced, in order. Each is handled at `now` merged with its
    /// own `vt` and those before it, as the shell's clock merges them.
    pub(crate) fn proc_up(
        &mut self,
        app: AppId,
        rank: Rank,
        ups: Vec<ProcUp>,
        mut now: VirtualTime,
    ) -> Vec<Out> {
        for up in ups {
            now = now.max(up.vt());
            self.up(app, rank, up, now);
        }
        self.take()
    }

    fn up(&mut self, app: AppId, rank: Rank, up: ProcUp, now: VirtualTime) {
        match up {
            ProcUp::Cast { kind, body, vt } => {
                let relay = AppRelay {
                    app,
                    kind,
                    from: rank,
                    to: None,
                    body,
                    vt,
                };
                self.queue_cast(WireCast::Mcast(relay), now);
            }
            ProcUp::SendTo {
                kind,
                to,
                body,
                stats,
                vt,
            } => {
                let relay = AppRelay {
                    app,
                    kind,
                    from: rank,
                    to: Some(to),
                    body,
                    vt,
                };
                let entry = self.config.apps.get(&app);
                match entry.and_then(|e| e.placement.get(to.index())).copied() {
                    Some(node) if node == self.me => {
                        self.relay(&relay, to, VirtualTime::ZERO);
                        self.hand(app, rank, stats);
                    }
                    Some(to) => {
                        let msg = P2pMsg::Relay { relay, stats };
                        self.out.push(Out::SendTo { to, msg, vt: now });
                    }
                    None => {}
                }
            }
            // Cast first: the exit's stats flush ahead of it joins it.
            ProcUp::Done { .. } => {
                self.cast_cfg(CfgCmd::RankDone { app, rank }, now);
                self.forget(app, rank);
            }
            ProcUp::CkptCommitted { index, .. } => {
                if index > 1 {
                    self.out.push(Out::Store(StoreOp::PruneBelow(app, index)));
                }
                // Last: the stats flush behind it joins this cast.
                self.emit_event(EventKind::CkptCommit { app, rank, index }, now);
            }
            // The handed snapshots ride along, the rank's own older one
            // excepted; the shell adds the cluster's scope as it casts.
            ProcUp::Stats { stats, .. } => {
                self.handed.remove(&(app, rank));
                let handed = std::mem::take(&mut self.handed).into_iter();
                let mut ranks = vec![(app, rank, stats)];
                ranks.extend(handed.map(|((app, rank), stats)| (app, rank, stats)));
                let stats = StatsCast {
                    ranks,
                    cluster: None,
                };
                self.queue_cast(WireCast::Stats(stats), now);
            }
        }
    }

    /// Publish a locally observed event: it rides the total order, so every
    /// daemon records it at the same point.
    pub(crate) fn emit(&mut self, kind: EventKind, now: VirtualTime) -> Vec<Out> {
        self.emit_event(kind, now);
        self.take()
    }

    // -- the configuration stream ---------------------------------------------

    fn cfg(&mut self, from: NodeId, cmd: CfgCmd, vt: VirtualTime, now: VirtualTime) {
        if !self.bootstrapped {
            return self.buffer(from, cmd, now);
        }
        if let CfgCmd::NeedState { node, req } = cmd {
            if self.acts_for_group() && node != self.me {
                let (to, config) = (node, self.config.encode_to_bytes());
                let msg = P2pMsg::State { req, config };
                self.out.push(Out::SendTo { to, msg, vt: now });
            }
            return;
        }
        // A restart's dead set is the *pre-apply* placement's (the NodeDead
        // casts precede it, so the status map already knows them).
        let dead = match &cmd {
            CfgCmd::RestartApp { app, .. } => self.dead_in_placement(*app),
            _ => Vec::new(),
        };
        let effects = self.config.apply_from(from, &cmd);
        // Peer-memory fragments on a dead node are gone before any recovery
        // line below this point is computed; a self-announced node rejoins
        // the replica ring holding none of them (a bare admin ADDNODE has
        // no daemon to hold any).
        match &cmd {
            CfgCmd::NodeDead { node } => self.out.push(Out::Store(StoreOp::NodeDown(*node))),
            CfgCmd::AddNode { node, .. } if *node == from => {
                self.out.push(Out::Store(StoreOp::NodeUp(*node)))
            }
            _ => {}
        }
        self.derive_events(from, &cmd, dead, vt);
        if let CfgCmd::RestartApp { app, .. } = cmd {
            // The recovery completes with this many respawns (at once if none).
            let replaced = |e: &CfgEffect| match e {
                CfgEffect::AppRestarted { replaced, .. } => replaced.len(),
                _ => 0,
            };
            let respawns = effects.iter().map(replaced).sum();
            self.out.push(Out::Recovery {
                app,
                respawns,
                origin: from,
                vt,
            });
        }
        for eff in effects {
            self.effect(eff, vt, now);
        }
        self.sync_lw(now);
        // Last: whoever waits on this command finds the response done.
        self.out.push(Out::Publish);
    }

    /// A joiner's configuration cast: buffered from its first own marker
    /// on; before that it is covered by the snapshot.
    fn buffer(&mut self, from: NodeId, cmd: CfgCmd, now: VirtualTime) {
        let own = match &cmd {
            CfgCmd::NeedState { node, req } if *node == self.me => Some(*req),
            _ => None,
        };
        match self.early_state.take() {
            Some((req, cfg)) if own == Some(req) => return self.bootstrap(cfg, Vec::new(), now),
            early => self.early_state = early,
        }
        if own.is_some() || !self.cast_buffer.is_empty() {
            self.cast_buffer.push((from, cmd));
        }
    }

    /// Install the snapshot, apply what followed its marker, announce.
    fn bootstrap(&mut self, cfg: ClusterConfig, after: Vec<(NodeId, CfgCmd)>, now: VirtualTime) {
        self.config = cfg;
        self.bootstrapped = true;
        self.cast_buffer.clear();
        self.early_state = None;
        self.out.push(Out::Publish);
        for (from, cmd) in after {
            self.cfg(from, cmd, now, now);
        }
        self.sync_lw(now);
        self.announce(now);
    }

    /// Announce ourselves on the cast stream unless the configuration has
    /// us live. A restarted daemon finds its node there but `Dead`, and a
    /// bare admin ADDNODE that raced our boot leaves it `Up` but unannounced:
    /// only an `AddNode` cast by the node itself makes it live.
    fn announce(&mut self, now: VirtualTime) {
        if !self.config.is_live(self.me) {
            let (node, arch_index) = (self.me, self.arch_index);
            self.cast_cfg(CfgCmd::AddNode { node, arch_index }, now);
        }
    }

    /// Nodes of `app`'s placement recorded dead (or forgotten entirely).
    fn dead_in_placement(&self, app: AppId) -> Vec<NodeId> {
        let nodes = &self.config.nodes;
        let dead = |n: &NodeId| nodes.get(n).is_none_or(|e| e.status == CfgNodeStatus::Dead);
        let entry = self.config.apps.get(&app).into_iter();
        let placement = entry.flat_map(|a| a.placement.iter().copied());
        let mut dead: Vec<NodeId> = placement.filter(dead).collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// Bus events derivable from the stream itself: appended at the same
    /// stream point on every bootstrapped daemon, from the cast's sender,
    /// at its delivery time — no extra casts.
    fn derive_events(&mut self, from: NodeId, cmd: &CfgCmd, dead: Vec<NodeId>, vt: VirtualTime) {
        let kinds = match cmd {
            // Only a self-announced AddNode proves a live daemon.
            CfgCmd::AddNode { node, .. } if *node == from => {
                vec![EventKind::NodeUp { node: *node }]
            }
            CfgCmd::NodeDead { node } => vec![EventKind::NodeDead { node: *node }],
            CfgCmd::TriggerCkpt { app } => vec![EventKind::CkptRoundBegin { app: *app }],
            CfgCmd::RestartApp { app, line } => {
                let epoch = self.config.apps.get(app).map(|a| a.epoch);
                let (app, epoch, line) = (*app, epoch.unwrap_or_default(), line.clone());
                let restore = EventKind::RecoveryRestore { app, epoch, line };
                vec![EventKind::RecoveryBegin { app, dead }, restore]
            }
            _ => Vec::new(),
        };
        let event = |kind| Out::Event {
            origin: from,
            vt,
            kind,
        };
        self.out.extend(kinds.into_iter().map(event));
    }

    /// Carry out `eff` of a command delivered at `vt`.
    fn effect(&mut self, eff: CfgEffect, vt: VirtualTime, now: VirtualTime) {
        match eff {
            CfgEffect::AppSubmitted(app) => {
                let Some(entry) = self.config.apps.get(&app).cloned() else {
                    return;
                };
                let (backend, placement) = (entry.spec.backend, entry.placement.clone());
                let set = StoreOp::SetBackend(app, backend, placement);
                self.out.push(Out::Store(set));
                self.out.push(Out::Placement(entry.clone()));
                for (rank, node) in entry.placed() {
                    if node == self.me {
                        self.spawn(&entry, rank, 0);
                    }
                }
            }
            CfgEffect::AppRestarted {
                app,
                line,
                replaced,
                ..
            } => {
                let Some(entry) = self.config.apps.get(&app).cloned() else {
                    return;
                };
                let placement = entry.placement.clone();
                self.out
                    .push(Out::Store(StoreOp::UpdatePlacement(app, placement)));
                self.out.push(Out::Placement(entry.clone()));
                // A replaced rank that ran here moved away (a migration,
                // not a crash): kill it first.
                for (rank, node) in &replaced {
                    if *node != self.me && self.procs.contains(&(app, *rank)) {
                        self.down(app, *rank, ProcDown::Kill { vt: now });
                        self.forget(app, *rank);
                    }
                }
                for &(rank, node) in &replaced {
                    if node == self.me {
                        let from = line.get(rank.index()).copied().unwrap_or(0);
                        self.spawn(&entry, rank, from);
                        // Only the host knows the spawn happened.
                        self.emit_event(EventKind::RecoveryRespawn { app, rank, node }, now);
                    }
                }
                // Survivors hosted here roll back. One that already ran to
                // completion has nobody listening — and the restarted rank's
                // rounds and collectives span every rank — so it is respawned
                // from the line instead.
                for (rank, node) in entry.placed() {
                    if node != self.me || replaced.iter().any(|(r, _)| *r == rank) {
                        continue;
                    }
                    let index = line.get(rank.index()).copied().unwrap_or(0);
                    if self.procs.contains(&(app, rank)) {
                        let (epoch, vt) = (entry.epoch, now);
                        self.down(app, rank, ProcDown::Rollback { index, epoch, vt });
                    } else {
                        self.spawn(&entry, rank, index);
                    }
                }
            }
            // Deleted, by an admin or the `Kill` policy: its images,
            // dependency log and backend policy go with it.
            CfgEffect::AppKilled(app) => {
                let ranks = self.local(app);
                for rank in &ranks {
                    self.down(app, *rank, ProcDown::Kill { vt: now });
                }
                ranks.into_iter().for_each(|rank| self.forget(app, rank));
                self.handed.retain(|&(a, _), _| a != app);
                self.out.push(Out::Store(StoreOp::RemoveApp(app)));
            }
            CfgEffect::AppSuspended(app) => {
                for rank in self.local(app) {
                    self.down(app, rank, ProcDown::Suspend { vt: now });
                }
            }
            CfgEffect::AppResumed(app) => {
                for rank in self.local(app) {
                    self.down(app, rank, ProcDown::Resume { vt: now });
                }
            }
            // Images are retained after completion (postmortem restore,
            // migration of finished jobs) until the app is deleted.
            CfgEffect::AppDone(app) => {
                for rank in self.local(app) {
                    self.forget(app, rank);
                }
                self.handed.retain(|&(a, _), _| a != app);
            }
            // The round coordinator is rank 0; its host relays the trigger,
            // stamped from its ordered delivery.
            CfgEffect::CheckpointRequested(app) => {
                let first = self.config.apps.get(&app).and_then(|e| e.placement.first());
                let first = first.copied();
                if first == Some(self.me) {
                    let vt = vt + RELAY_COST;
                    self.down(app, Rank(0), ProcDown::StartCheckpoint { vt });
                }
            }
            CfgEffect::RankLost(app, rank) => self.out.push(Out::RankLost(app, rank)),
            CfgEffect::ParamSet(key) => {
                let value = self
                    .config
                    .params
                    .get(&key)
                    .filter(|_| key == "stats_history");
                if let Some(n) = value.and_then(|v| v.parse().ok()) {
                    self.out.push(Out::Retention(n));
                }
            }
        }
    }

    // -- membership -------------------------------------------------------------

    /// The failure response, by the daemon acting for the view just
    /// installed: one view-change event ahead of it, then `NodeDead` for
    /// every node the configuration still counts in that left the view, then
    /// each app's policy for its ranks on nodes that are gone — left now, or
    /// recorded dead by an earlier response whose daemon died before
    /// finishing it (`RestartApp` and `Delete` are idempotent).
    fn respond(&mut self, now: VirtualTime) {
        let Some(view) = self.view.clone() else {
            return;
        };
        let (id, members) = (view.id.raw(), view.members.clone());
        self.emit_event(EventKind::ViewChange { view: id, members }, now);
        let present = |s: Option<CfgNodeStatus>| {
            matches!(s, Some(CfgNodeStatus::Up | CfgNodeStatus::Disabled))
        };
        let status = |n: &NodeId| self.config.nodes.get(n).map(|e| e.status);
        let nodes = self.config.nodes.keys().copied();
        let left: Vec<NodeId> = nodes
            .filter(|n| present(status(n)) && !view.contains(*n))
            .collect();
        let gone = |n: &NodeId| !view.contains(*n) || !present(status(n));
        let mut responses = Vec::new();
        for app in self.config.apps.values() {
            let mut dead: Vec<NodeId> = app.placed().map(|(_, n)| n).filter(gone).collect();
            dead.sort_unstable();
            dead.dedup();
            let live = matches!(app.status, AppStatus::Running | AppStatus::Suspended);
            if live && !dead.is_empty() {
                responses.push((app.id, app.spec.policy, dead));
            }
        }
        for node in left {
            self.cast_cfg(CfgCmd::NodeDead { node }, now);
        }
        for (app, policy, dead) in responses {
            match policy {
                FtPolicy::Kill => self.cast_cfg(CfgCmd::Delete { app }, now),
                // The lightweight view is the application's signal.
                FtPolicy::NotifyView => {}
                FtPolicy::Restart => self.out.push(Out::Restart { app, dead }),
            }
        }
    }

    /// Bring the lightweight groups to the configuration and the main view;
    /// the local ranks of each group that changed get its view.
    fn sync_lw(&mut self, now: VirtualTime) {
        let Some(main) = &self.view else {
            return;
        };
        let live = self.config.apps.values();
        let live = live.filter(|a| matches!(a.status, AppStatus::Running | AppStatus::Suspended));
        let groups: Vec<_> = live
            .map(|a| {
                (
                    GroupId(a.id.0),
                    lw::members(a.placed().map(|(_, n)| n), main),
                )
            })
            .collect();
        for view in self.lw.sync(groups) {
            let app = AppId(view.gid.0);
            for rank in self.local(app) {
                let msg = ProcDown::LwView {
                    view: view.clone(),
                    vt: now,
                };
                self.down(app, rank, msg);
            }
        }
    }

    // -- local ranks --------------------------------------------------------------

    fn spawn(&mut self, entry: &AppEntry, rank: Rank, restore_from: u64) {
        self.procs.insert((entry.id, rank));
        let entry = entry.clone();
        self.out.push(Out::Spawn {
            entry,
            rank,
            restore_from,
        });
    }

    fn forget(&mut self, app: AppId, rank: Rank) {
        if self.procs.remove(&(app, rank)) {
            self.out.push(Out::Forget(app, rank));
        }
    }

    fn down(&mut self, app: AppId, rank: Rank, msg: ProcDown) {
        if self.procs.contains(&(app, rank)) {
            self.out.push(Out::Down { app, rank, msg });
        }
    }

    /// Hand `relay` to local rank `to`, stamped with its origin stamp, the
    /// `path` it took between daemons and the relay's own cost: the same
    /// stamp whatever else this daemon relayed first.
    fn relay(&mut self, relay: &AppRelay, to: Rank, path: VirtualTime) {
        let (kind, from, body) = (relay.kind, relay.from, relay.body.clone());
        let vt = relay.vt + path + RELAY_COST;
        self.down(
            relay.app,
            to,
            ProcDown::Relay {
                kind,
                from,
                body,
                vt,
            },
        );
    }

    /// Keep a rank's snapshot, handed over with its `Saved`, for the next
    /// stats cast.
    fn hand(&mut self, app: AppId, rank: Rank, stats: Option<RankStats>) {
        if let Some(stats) = stats {
            self.handed.insert((app, rank), stats);
        }
    }

    fn local(&self, app: AppId) -> Vec<Rank> {
        let of_app = self.procs.iter().filter(|(a, _)| *a == app);
        of_app.map(|(_, r)| *r).collect()
    }

    fn queue_cast(&mut self, wc: WireCast, vt: VirtualTime) {
        self.out.push(Out::Cast { wc, vt });
    }

    fn cast_cfg(&mut self, cmd: CfgCmd, vt: VirtualTime) {
        self.queue_cast(WireCast::Cfg(cmd), vt);
    }

    fn emit_event(&mut self, kind: EventKind, vt: VirtualTime) {
        let origin = self.me;
        self.queue_cast(WireCast::Event { origin, vt, kind }, vt);
    }

    /// The answer, with each run of casts that leave at one instant made
    /// one cast: no cast leaves later, and the total order takes the run
    /// in one slot.
    fn take(&mut self) -> Vec<Out> {
        let mut outs: Vec<Out> = Vec::with_capacity(self.out.len());
        for out in std::mem::take(&mut self.out) {
            match (out, outs.last_mut()) {
                (Out::Cast { wc, vt }, Some(Out::Cast { wc: run, vt: at })) if *at == vt => {
                    let run_so_far = std::mem::replace(run, WireCast::Batch(Vec::new()));
                    let mut casts = run_so_far.into_entries();
                    casts.push(wc);
                    *run = WireCast::Batch(casts);
                }
                (out, _) => outs.push(out),
            }
        }
        outs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AppSpec, CkptProto, LevelKind};
    use std::collections::{BTreeMap, VecDeque};

    use starfish_checkpoint::backend::CkptBackend;
    use starfish_util::{Epoch, ViewId};

    const T: VirtualTime = VirtualTime::ZERO;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    /// Machines over one in-memory total order — no stack, thread or clock:
    /// every cast any node answers joins one stream that every node is fed
    /// in order, sends wait in a queue of their own, the test installs the
    /// views, and everything else each node answered is kept. `casts` keeps
    /// each cast's entries, a batch's one by one.
    #[derive(Default)]
    struct Net {
        nodes: BTreeMap<u32, Node>,
        views: u64,
        stream: VecDeque<(NodeId, WireCast)>,
        sends: VecDeque<(NodeId, P2pMsg)>,
        casts: Vec<(NodeId, WireCast)>,
        told: Vec<(u32, Out)>,
    }

    impl Net {
        /// `ids` booted: the first founds, each joins and settles in turn.
        fn of(ids: &[u32]) -> Net {
            let mut net = Net::default();
            let mut members = Vec::new();
            for id in ids {
                net.nodes
                    .insert(*id, Node::new(n(*id), 0, members.is_empty(), T));
                members.push(*id);
                net.view(&members);
                net.settle();
            }
            net.told.clear();
            net.casts.clear();
            net
        }

        fn answer(&mut self, at: u32, outs: Vec<Out>) {
            for out in outs {
                match out {
                    Out::Cast { wc, .. } => {
                        let entries = wc.entries().iter().map(|e| (n(at), e.clone()));
                        self.casts.extend(entries);
                        self.stream.push_back((n(at), wc));
                    }
                    Out::SendTo { to, msg, .. } => self.sends.push_back((to, msg)),
                    out => self.told.push((at, out)),
                }
            }
        }

        /// Install the next view, of `members`, at each of them.
        fn view(&mut self, members: &[u32]) {
            self.views += 1;
            let view = View::new(ViewId(self.views), members.iter().map(|m| n(*m)).collect());
            for m in members {
                let outs = self.nodes.get_mut(m).unwrap().view(view.clone(), T);
                self.answer(*m, outs);
            }
        }

        /// Deliver the next cast to every node.
        fn step_cast(&mut self) -> bool {
            let Some((from, wc)) = self.stream.pop_front() else {
                return false;
            };
            for id in self.nodes.keys().copied().collect::<Vec<_>>() {
                let outs = self
                    .nodes
                    .get_mut(&id)
                    .unwrap()
                    .cast(from, wc.clone(), T, T);
                self.answer(id, outs);
            }
            true
        }

        fn step_send(&mut self) -> bool {
            let Some((to, msg)) = self.sends.pop_front() else {
                return false;
            };
            let outs = self.nodes.get_mut(&to.0).unwrap().p2p(msg, T);
            self.answer(to.0, outs);
            true
        }

        fn settle(&mut self) {
            while self.step_cast() || self.step_send() {}
        }

        fn at(&mut self, id: u32, event: impl FnOnce(&mut Node) -> Vec<Out>) {
            let outs = event(self.nodes.get_mut(&id).unwrap());
            self.answer(id, outs);
            self.settle();
        }

        fn issue(&mut self, cmd: CfgCmd) {
            self.stream.push_back((n(0), WireCast::Cfg(cmd)));
            self.settle();
        }

        fn submit(&mut self, size: u32, policy: FtPolicy) -> AppId {
            let spec = AppSpec {
                name: "j".into(),
                size,
                policy,
                level: LevelKind::Vm,
                proto: CkptProto::StopAndSync,
                backend: CkptBackend::Disk,
                owner: String::new(),
                token: 0,
            };
            self.issue(CfgCmd::Submit { spec });
            *self.nodes[&0].config().apps.keys().last().unwrap()
        }

        fn cfg(&self, id: u32) -> &ClusterConfig {
            self.nodes[&id].config()
        }

        /// Take what `id` was told (casts and sends excepted).
        fn told(&mut self, id: u32) -> Vec<Out> {
            let (mine, rest) = std::mem::take(&mut self.told)
                .into_iter()
                .partition(|(at, _)| *at == id);
            self.told = rest;
            mine.into_iter().map(|(_, out)| out).collect()
        }

        fn cfg_casts(&self, from: u32) -> Vec<CfgCmd> {
            let mine = self.casts.iter().filter(|(f, _)| *f == n(from));
            let cfg = |(_, wc): &(NodeId, WireCast)| match wc {
                WireCast::Cfg(c) => Some(c.clone()),
                _ => None,
            };
            mine.filter_map(cfg).collect()
        }
    }

    #[test]
    fn a_founder_boots_and_announces_once() {
        let mut net = Net::default();
        net.nodes.insert(0, Node::new(n(0), 3, true, T));
        net.view(&[0]);
        assert_eq!(
            net.cfg_casts(0),
            vec![CfgCmd::AddNode {
                node: n(0),
                arch_index: 3
            }]
        );
        net.settle();
        assert_eq!(net.cfg(0).live_nodes(), vec![n(0)]);
        assert!(net.nodes[&0].acts_for_group());
        let told = net.told(0);
        assert!(told.iter().any(|o| matches!(o, Out::Publish)), "{told:?}");
        // A view that finds us live announces nothing.
        net.view(&[0]);
        net.settle();
        assert_eq!(net.cfg_casts(0).len(), 1);
    }

    /// A joiner ignores the stream before its marker, buffers it after, and
    /// replays the buffer behind the snapshot — also when the snapshot
    /// overtakes the marker.
    #[test]
    fn a_joiner_buffers_behind_its_need_state_and_replays_after_state() {
        let mut net = Net::of(&[0]);
        net.nodes.insert(1, Node::new(n(1), 0, false, T));
        net.view(&[0, 1]);
        assert_eq!(
            net.cfg_casts(1),
            vec![CfgCmd::NeedState { node: n(1), req: 1 }]
        );
        let set = |k: &str| CfgCmd::SetParam {
            key: k.into(),
            value: "v".into(),
        };
        net.stream.push_back((n(0), WireCast::Cfg(set("after"))));
        while net.step_cast() {} // the marker, then "after": buffered
        assert!(!net.nodes[&1].bootstrapped());
        assert!(net.step_send(), "the acting daemon answered");
        assert!(net.nodes[&1].bootstrapped());
        assert_eq!(
            net.cfg(1).params.get("after").map(String::as_str),
            Some("v")
        );
        net.settle();
        assert_eq!(net.cfg(1), net.cfg(0));
        assert_eq!(net.cfg(1).live_nodes(), vec![n(0), n(1)]);
        // n2's snapshot overtakes its marker: it is kept until the marker.
        net.nodes.insert(2, Node::new(n(2), 0, false, T));
        net.view(&[0, 1, 2]);
        while net.stream.front().is_some_and(|(f, _)| *f != n(2)) {
            net.step_cast();
        }
        let (from, marker) = net.stream.pop_front().unwrap();
        for id in [0, 1] {
            let outs = net
                .nodes
                .get_mut(&id)
                .unwrap()
                .cast(from, marker.clone(), T, T);
            net.answer(id, outs);
        }
        assert!(net.step_send());
        assert!(!net.nodes[&2].bootstrapped(), "the snapshot waits");
        let outs = net.nodes.get_mut(&2).unwrap().cast(from, marker, T, T);
        net.answer(2, outs);
        assert!(net.nodes[&2].bootstrapped());
        net.settle();
        assert_eq!(net.cfg(2), net.cfg(0));
    }

    /// A joiner asks again at every view until a snapshot arrives, and a
    /// daemon announces at every view until it is live: the answerer, or
    /// the coordinator holding the cast, may have died.
    #[test]
    fn requests_are_repeated_at_each_view_until_answered() {
        let mut net = Net::of(&[0, 1]);
        net.nodes.insert(2, Node::new(n(2), 0, false, T));
        net.view(&[0, 1, 2]);
        while net.step_cast() {}
        net.sends.clear(); // n0 died before its answer left
        net.nodes.remove(&0);
        net.view(&[1, 2]);
        net.settle();
        let asked = [1, 2].map(|req| CfgCmd::NeedState { node: n(2), req });
        assert_eq!(net.cfg_casts(2)[..2], asked);
        assert!(net.cfg(2).is_live(n(2)));
        // Its announcement was lost with a coordinator: the next view re-casts it.
        net.stream.retain(|_| false);
        let mut node = net.nodes[&2].clone();
        let mut stale = node.config.clone();
        stale.apply(&CfgCmd::NodeDead { node: n(2) });
        node.config = stale;
        net.nodes.insert(2, node);
        net.view(&[1, 2]);
        let again = CfgCmd::AddNode {
            node: n(2),
            arch_index: 0,
        };
        assert_eq!(net.cfg_casts(2).last(), Some(&again));
    }

    #[test]
    fn a_restarted_daemon_that_finds_itself_dead_announces_once() {
        let mut net = Net::of(&[0, 1]);
        net.nodes.remove(&1);
        net.view(&[0]);
        net.settle();
        assert_eq!(net.cfg(0).nodes[&n(1)].status, CfgNodeStatus::Dead);
        net.nodes.insert(1, Node::new(n(1), 0, false, T));
        net.view(&[0, 1]);
        net.settle();
        net.view(&[0, 1]);
        net.settle();
        let announced = |c: &CfgCmd| matches!(c, CfgCmd::AddNode { node, .. } if *node == n(1));
        assert_eq!(net.cfg_casts(1).iter().filter(|c| announced(c)).count(), 1);
        assert!(net.cfg(0).is_live(n(1)));
        assert_eq!(net.cfg(1), net.cfg(0));
    }

    /// The acting daemon — and only it — answers a view that lost n2: the
    /// view-change event, `NodeDead`, then each job's policy.
    #[test]
    fn the_failure_response_follows_each_policy() {
        let mut net = Net::of(&[0, 1, 2]);
        let kill = net.submit(3, FtPolicy::Kill);
        let notify = net.submit(3, FtPolicy::NotifyView);
        let restart = net.submit(3, FtPolicy::Restart);
        net.told.clear();
        net.casts.clear();
        net.nodes.remove(&2);
        net.view(&[0, 1]);
        let view_change = |(f, wc): &(NodeId, WireCast)| {
            *f == n(0)
                && matches!(
                    wc,
                    WireCast::Event {
                        kind: EventKind::ViewChange { .. },
                        ..
                    }
                )
        };
        assert!(net.casts.iter().any(view_change));
        assert_eq!(
            net.cfg_casts(0),
            vec![
                CfgCmd::NodeDead { node: n(2) },
                CfgCmd::Delete { app: kill }
            ]
        );
        assert!(net.cfg_casts(1).is_empty(), "n1 does not act");
        let restarts: Vec<_> = net
            .told(0)
            .into_iter()
            .filter_map(|o| match o {
                Out::Restart { app, dead } => Some((app, dead)),
                _ => None,
            })
            .collect();
        assert_eq!(restarts, vec![(restart, vec![n(2)])]);
        net.settle();
        assert_eq!(net.cfg(0).apps[&kill].status, AppStatus::Killed);
        assert_eq!(net.cfg(0).apps[&notify].lost, vec![Rank(2)]);
        let lost = |o: &Out| matches!(o, Out::RankLost(a, Rank(2)) if *a == notify);
        // Every daemon drops the killed app's checkpoints, and only its.
        for id in [0, 1] {
            let told = net.told(id);
            let removed: Vec<AppId> = told
                .iter()
                .filter_map(|o| match o {
                    Out::Store(StoreOp::RemoveApp(app)) => Some(*app),
                    _ => None,
                })
                .collect();
            assert_eq!(removed, [kill], "n{id}");
            assert!(id == 0 || told.iter().any(lost));
        }
    }

    /// A restart whose acting daemon died after `NodeDead` is derived again
    /// by the next one, from placement on a node already recorded dead.
    #[test]
    fn a_restart_is_derived_again_from_placement_on_a_dead_node() {
        let mut net = Net::of(&[0, 1, 2]);
        net.issue(CfgCmd::DisableNode { node: n(0) });
        let app = net.submit(2, FtPolicy::Restart);
        net.issue(CfgCmd::EnableNode { node: n(0) });
        assert_eq!(net.cfg(0).apps[&app].placement, vec![n(1), n(2)]);
        // n1 dies; the acting n0 gets `NodeDead` out, then dies too.
        net.nodes.remove(&1);
        net.view(&[0, 2]);
        net.settle();
        net.told.clear();
        net.nodes.remove(&0);
        net.view(&[2]);
        let restarts: Vec<_> = net
            .told(2)
            .into_iter()
            .filter_map(|o| match o {
                Out::Restart { app, dead } => Some((app, dead)),
                _ => None,
            })
            .collect();
        assert_eq!(restarts, vec![(app, vec![n(1)])]);
    }

    #[test]
    fn a_migration_kills_the_old_rank_before_the_new_one_spawns() {
        let mut net = Net::of(&[0, 1, 2]);
        net.issue(CfgCmd::DisableNode { node: n(2) });
        let app = net.submit(2, FtPolicy::Restart);
        net.issue(CfgCmd::EnableNode { node: n(2) });
        net.told.clear();
        let line = vec![3, 3];
        net.issue(CfgCmd::Migrate {
            app,
            rank: Rank(1),
            node: n(2),
            line,
        });
        let kinds = |outs: Vec<Out>| -> Vec<String> {
            let kind = |o: &Out| match o {
                Out::Down { msg, rank, .. } => Some(format!(
                    "{}:{rank}",
                    format!("{msg:?}").split(' ').next().unwrap()
                )),
                Out::Forget(_, rank) => Some(format!("Forget:{rank}")),
                Out::Spawn {
                    rank,
                    restore_from,
                    entry,
                } => Some(format!("Spawn:{rank}@{restore_from}/{}", entry.epoch)),
                _ => None,
            };
            outs.iter().filter_map(kind).collect()
        };
        assert_eq!(kinds(net.told(1)), vec!["Kill:r1", "Forget:r1"]);
        let spawned = format!("Spawn:r1@3/{}", Epoch(1));
        assert_eq!(kinds(net.told(2)), vec![spawned, "LwView:r1".into()]);
        // The group moved from {n0, n1} to {n0, n2}: both ranks are told.
        assert_eq!(kinds(net.told(0)), vec!["Rollback:r0", "LwView:r0"]);
        let respawn = |(f, wc): &(NodeId, WireCast)| {
            *f == n(2)
                && matches!(
                    wc,
                    WireCast::Event {
                        kind: EventKind::RecoveryRespawn { .. },
                        ..
                    }
                )
        };
        assert!(net.casts.iter().any(respawn));
    }

    #[test]
    fn rank_done_leads_to_done() {
        let mut net = Net::of(&[0, 1]);
        let app = net.submit(2, FtPolicy::Restart);
        for r in 0..2 {
            net.at(r, |node| {
                node.proc_up(app, Rank(r), vec![ProcUp::Done { vt: T }], T)
            });
            assert!(net.told(r).iter().any(|o| matches!(o, Out::Forget(..))));
        }
        assert_eq!(net.cfg(0).apps[&app].status, AppStatus::Done);
        assert_eq!(net.cfg(1).apps[&app].done_ranks, 2);
    }

    #[test]
    fn a_checkpoint_request_goes_down_on_rank_0s_host_only() {
        let mut net = Net::of(&[0, 1]);
        let app = net.submit(2, FtPolicy::Restart);
        net.told.clear();
        net.issue(CfgCmd::TriggerCkpt { app });
        let started = |outs: Vec<Out>| {
            outs.iter().any(|o| {
                matches!(
                    o,
                    Out::Down {
                        rank: Rank(0),
                        msg: ProcDown::StartCheckpoint { .. },
                        ..
                    }
                )
            })
        };
        assert!(started(net.told(0)));
        assert!(!started(net.told(1)));
    }

    #[test]
    fn stats_history_sets_the_retention() {
        let mut net = Net::of(&[0, 1]);
        for (key, value) in [("stats_history", "5"), ("stats_history", "x"), ("k", "5")] {
            let (key, value) = (key.to_string(), value.to_string());
            net.issue(CfgCmd::SetParam { key, value });
        }
        for id in [0, 1] {
            let kept: Vec<usize> = net
                .told(id)
                .iter()
                .filter_map(|o| match o {
                    Out::Retention(n) => Some(*n),
                    _ => None,
                })
                .collect();
            assert_eq!(kept, vec![5]);
        }
    }

    /// One view per change of a group's node set, to the local ranks; a lost
    /// rank's node stays out when it comes back under its old id.
    #[test]
    fn lightweight_views_name_the_hosts_of_live_ranks() {
        let mut net = Net::of(&[0, 1, 2]);
        let app = net.submit(3, FtPolicy::NotifyView);
        let views = |net: &mut Net, id: u32| -> Vec<Vec<u32>> {
            let view = |o: Out| match o {
                Out::Down {
                    msg: ProcDown::LwView { view, .. },
                    ..
                } => Some(view.members.iter().map(|m| m.0).collect()),
                _ => None,
            };
            net.told(id).into_iter().filter_map(view).collect()
        };
        for id in 0..3 {
            assert_eq!(views(&mut net, id), vec![vec![0, 1, 2]]);
        }
        net.nodes.remove(&2);
        net.view(&[0, 1]);
        net.settle();
        assert_eq!(views(&mut net, 0), vec![vec![0, 1]]);
        assert_eq!(views(&mut net, 1), vec![vec![0, 1]]);
        net.nodes.insert(2, Node::new(n(2), 0, false, T));
        net.view(&[0, 1, 2]);
        net.settle();
        assert!(views(&mut net, 0).is_empty(), "rank 2 stays lost");
        assert_eq!(net.cfg(2).apps[&app].lost, vec![Rank(2)]);
    }

    /// A rank's multicast reaches the app's other ranks on every node, and
    /// not its sender.
    #[test]
    fn mcasts_reach_the_other_local_ranks_of_the_app() {
        let mut net = Net::of(&[0, 1]);
        let app = net.submit(3, FtPolicy::Restart); // ranks 0, 2 on n0; 1 on n1
        net.told.clear();
        let kind = crate::msg::RelayKind::Coordination;
        let body = bytes::Bytes::from_static(b"m");
        let up = ProcUp::Cast { kind, body, vt: T };
        net.at(0, |node| node.proc_up(app, Rank(0), vec![up], T));
        let relayed = |outs: Vec<Out>| -> Vec<Rank> {
            let to = |o: &Out| match o {
                Out::Down {
                    rank,
                    msg: ProcDown::Relay { .. },
                    ..
                } => Some(*rank),
                _ => None,
            };
            outs.iter().filter_map(to).collect()
        };
        assert_eq!(relayed(net.told(0)), vec![Rank(2)]);
        assert_eq!(relayed(net.told(1)), vec![Rank(1)]);
    }

    /// A relayed stamp is the origin's stamp plus its path: neither the
    /// relaying daemon's clock nor what it relayed first enters it, so two
    /// members' `Saved`s reach the coordinator with the same stamps in
    /// either order.
    #[test]
    fn a_relayed_stamp_is_its_origin_and_path_in_either_order() {
        let mut net = Net::of(&[0, 1, 2]);
        let app = net.submit(3, FtPolicy::Restart);
        let saved = |from: u32, ms: u64| P2pMsg::Relay {
            relay: AppRelay {
                app,
                kind: crate::msg::RelayKind::CheckpointRestart,
                from: Rank(from),
                to: Some(Rank(0)),
                body: bytes::Bytes::from_static(b"saved"),
                vt: VirtualTime::from_millis(ms),
            },
            stats: None,
        };
        let coordinator = net.nodes[&0].clone();
        let stamps = |order: [(u32, u64); 2], now: [u64; 2]| {
            let mut node = coordinator.clone();
            let mut got = BTreeMap::new();
            for ((from, ms), now) in order.into_iter().zip(now) {
                for out in node.p2p(saved(from, ms), VirtualTime::from_secs(now)) {
                    if let Out::Down {
                        msg: ProcDown::Relay { from, vt, .. },
                        ..
                    } = out
                    {
                        got.insert(from, vt);
                    }
                }
            }
            got
        };
        let forward = stamps([(1, 5), (2, 7)], [9, 10]);
        assert_eq!(forward, stamps([(2, 7), (1, 5)], [0, 3]));
        let path = T + LevelKind::Vm.coord_costs().saved_hop + RELAY_COST;
        let at = |ms| VirtualTime::from_millis(ms) + path;
        assert_eq!(
            forward,
            BTreeMap::from([(Rank(1), at(5)), (Rank(2), at(7))])
        );
    }

    /// A coordinator rank's last step of a round: the `Resume` relay at one
    /// instant, then the commit and the stats flush at a later one. Those
    /// two leave as one cast, which every daemon takes in order.
    #[test]
    fn the_casts_of_one_instant_leave_as_one() {
        let mut net = Net::of(&[0, 1]);
        let app = net.submit(2, FtPolicy::Restart);
        net.told.clear();
        let (t, synced) = (VirtualTime::from_micros(5), VirtualTime::from_micros(9));
        let kind = crate::msg::RelayKind::CheckpointRestart;
        let body = bytes::Bytes::from_static(b"resume");
        let ups = vec![
            ProcUp::Cast { kind, body, vt: t },
            ProcUp::CkptCommitted {
                index: 2,
                vt: synced,
            },
            ProcUp::Stats {
                stats: RankStats::default(),
                vt: synced,
            },
        ];
        let outs = net.nodes.get_mut(&0).unwrap().proc_up(app, Rank(0), ups, T);
        let casts: Vec<(VirtualTime, Vec<&'static str>)> = outs
            .iter()
            .filter_map(|o| match o {
                Out::Cast { wc, vt } => Some((*vt, wc.entries().iter().map(label).collect())),
                _ => None,
            })
            .collect();
        let prune = StoreOp::PruneBelow(app, 2);
        assert!(
            matches!(&outs[1], Out::Store(op) if *op == prune),
            "{outs:?}"
        );
        assert_eq!(
            casts,
            vec![(t, vec!["mcast"]), (synced, vec!["event", "stats"])]
        );
        net.answer(0, outs);
        net.settle();
        for id in [0, 1] {
            let told: Vec<&str> = net
                .told(id)
                .iter()
                .filter_map(|o| match o {
                    Out::Event { .. } => Some("event"),
                    Out::Stats { stats, .. } => Some(match stats.ranks[..] {
                        [(a, Rank(0), _)] if a == app => "stats",
                        _ => "other stats",
                    }),
                    _ => None,
                })
                .collect();
            assert_eq!(told, vec!["event", "stats"], "n{id}");
        }
    }

    /// A member's snapshot rides its `Saved` to the coordinator's daemon —
    /// in the relay, or straight in when the two ranks share a node — and
    /// leaves in that daemon's next stats cast, behind the coordinator's
    /// own, a newer one replacing an older. Nothing else casts it.
    #[test]
    fn a_members_snapshot_rides_its_saved_into_the_coordinators_flush() {
        use starfish_telemetry::{metric, Snapshot};
        let mut net = Net::of(&[0, 1]);
        let app = net.submit(3, FtPolicy::Restart); // ranks 0, 2 on n0; 1 on n1
        net.casts.clear();
        // A rank's `n`th flush, which counts `n` rounds.
        let rounds = |n| RankStats {
            seq: n,
            snap: Snapshot {
                counters: vec![(metric::CKPT_ROUNDS.0, n)],
                ..Snapshot::default()
            },
            ..RankStats::default()
        };
        let saved = |n| ProcUp::SendTo {
            kind: crate::msg::RelayKind::CheckpointRestart,
            to: Rank(0),
            body: bytes::Bytes::from_static(b"saved"),
            stats: Some(rounds(n)),
            vt: T,
        };
        net.at(1, |node| node.proc_up(app, Rank(1), vec![saved(1)], T));
        net.at(1, |node| node.proc_up(app, Rank(1), vec![saved(2)], T));
        net.at(0, |node| node.proc_up(app, Rank(2), vec![saved(3)], T));
        let relayed = net.told(0).into_iter().filter(|o| {
            matches!(
                o,
                Out::Down {
                    rank: Rank(0),
                    msg: ProcDown::Relay { .. },
                    ..
                }
            )
        });
        assert_eq!(relayed.count(), 3, "each `Saved` reaches the coordinator");
        assert!(net.casts.is_empty(), "{:?}", net.casts);
        // The coordinator flushes; n1 applies what that casts, as `(rank,
        // rounds)` per stats cast.
        let flush = |net: &mut Net, app, n| {
            let stats = rounds(n);
            let up = ProcUp::Stats { stats, vt: T };
            net.at(0, |node| node.proc_up(app, Rank(0), vec![up], T));
            let flushed =
                |(_, r, s): (AppId, Rank, RankStats)| (r.0, s.snap.counter(metric::CKPT_ROUNDS));
            (net.told(1).into_iter())
                .filter_map(|o| match o {
                    Out::Stats { stats, .. } => {
                        Some(stats.ranks.into_iter().map(flushed).collect())
                    }
                    _ => None,
                })
                .collect::<Vec<Vec<_>>>()
        };
        assert_eq!(flush(&mut net, app, 9), [[(0, 9), (1, 2), (2, 3)]]);
        // Handed snapshots go once.
        assert_eq!(flush(&mut net, app, 10), [[(0, 10)]]);
        // A deleted job's go with it: another job's flush carries none.
        let saved = saved(4);
        net.at(0, |node| node.proc_up(app, Rank(2), vec![saved], T));
        net.issue(CfgCmd::Delete { app });
        assert_eq!(flush(&mut net, AppId(app.0 + 1), 1), [[(0, 1)]]);
        assert_eq!(net.casts.len(), 3, "one cast per flush");
    }

    fn label(wc: &WireCast) -> &'static str {
        match wc {
            WireCast::Cfg(_) => "cfg",
            WireCast::Mcast(_) => "mcast",
            WireCast::Stats { .. } => "stats",
            WireCast::Event { .. } => "event",
            WireCast::Batch(_) => "batch",
        }
    }

    /// The failure response leaves in one cast: the view-change event, then
    /// `NodeDead`, then the kill.
    #[test]
    fn the_failure_response_is_one_cast() {
        let mut net = Net::of(&[0, 1, 2]);
        net.submit(3, FtPolicy::Kill);
        net.nodes.remove(&2);
        let view = View::new(ViewId(9), vec![n(0), n(1)]);
        let outs = net.nodes.get_mut(&0).unwrap().view(view, T);
        let casts: Vec<Vec<&str>> = outs
            .iter()
            .filter_map(|o| match o {
                Out::Cast { wc, .. } => Some(wc.entries().iter().map(label).collect()),
                _ => None,
            })
            .collect();
        assert_eq!(casts, vec![vec!["event", "cfg", "cfg"]]);
    }
}
