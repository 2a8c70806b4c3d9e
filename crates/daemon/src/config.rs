//! The management module: replicated cluster configuration.
//!
//! A deterministic state machine. Every mutation is a [`CfgCmd`] delivered
//! through the totally ordered cast stream, so all daemons apply the same
//! commands in the same order and hold bit-identical state. Queries are
//! local. (Paper §2.1, §3.1.1.)

use std::collections::BTreeMap;

use starfish_checkpoint::arch::{Arch, DEFAULT_ARCH, MACHINES};
use starfish_checkpoint::backend::CkptBackend;
use starfish_util::codec::{Decode, Decoder, Encode, Encoder};
use starfish_util::{AppId, Epoch, Error, NodeId, Rank, Result};
use starfish_vni::CoordCosts;

use crate::msg::CfgCmd;

/// Per-application fault-tolerance policy (paper §3.2.2: the client chooses
/// at submission).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtPolicy {
    /// Automatically restart from the recovery line.
    Restart,
    /// Deliver view notifications and let the application repartition.
    NotifyView,
    /// Kill the application on any node loss (legacy MPI behaviour).
    Kill,
}

/// Which local checkpoint level an application uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LevelKind {
    Native,
    Vm,
}

impl LevelKind {
    /// What a stop-and-sync round's coordination costs at this level.
    pub fn coord_costs(self) -> CoordCosts {
        match self {
            LevelKind::Native => CoordCosts::NATIVE,
            LevelKind::Vm => CoordCosts::VM,
        }
    }
}

pub use starfish_checkpoint::proto::CkptProto;

/// Submission-time application description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSpec {
    pub name: String,
    pub size: u32,
    pub policy: FtPolicy,
    pub level: LevelKind,
    pub proto: CkptProto,
    /// Where this app's checkpoints live: the modeled stable disk, or the
    /// diskless in-memory replica store (k peer copies per fragment).
    pub backend: CkptBackend,
    /// Submitting user (for the user-session permission checks).
    pub owner: String,
    /// Client-chosen token so the submitting session can find the assigned
    /// AppId in the replicated state.
    pub token: u64,
}

/// Lifecycle of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppStatus {
    Running,
    Suspended,
    Done,
    Killed,
}

/// One application's replicated entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppEntry {
    pub id: AppId,
    pub spec: AppSpec,
    /// Node of each rank (index = rank).
    pub placement: Vec<NodeId>,
    pub status: AppStatus,
    /// Restart epoch: bumped on every rollback/restart decision.
    pub epoch: Epoch,
    /// How many ranks have reported completion (app is Done at size).
    pub done_ranks: u32,
    /// Ranks lost for good, ascending: under `NotifyView` a rank whose node
    /// was recorded dead is not replaced. The rank directory, the
    /// application's `alive_ranks` and its lightweight group all read this.
    pub lost: Vec<Rank>,
}

impl AppEntry {
    /// `(rank, node)` of every rank that is not lost, by rank.
    pub fn placed(&self) -> impl Iterator<Item = (Rank, NodeId)> + '_ {
        let all = (0..).map(Rank).zip(self.placement.iter().copied());
        all.filter(|(r, _)| !self.lost.contains(r))
    }
}

/// Node lifecycle in the replicated configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CfgNodeStatus {
    Up,
    Disabled,
    Dead,
    Removed,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeEntry {
    pub status: CfgNodeStatus,
    pub(crate) arch: Arch,
    /// Whether the node's own daemon has self-announced (an `AddNode` cast
    /// originated by the node itself). A bare admin `ADDNODE` registers the
    /// node in the configuration but leaves it unannounced: it shows up in
    /// `NODES` output and [`ClusterConfig::up_nodes`], but the scheduler
    /// refuses to place ranks there until the daemon proves it is alive.
    pub(crate) announced: bool,
}

impl NodeEntry {
    /// Eligible to run work: administratively `Up` *and* its daemon has
    /// announced itself on the cast stream.
    pub(crate) fn live(&self) -> bool {
        self.status == CfgNodeStatus::Up && self.announced
    }
}

/// The replicated cluster configuration.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterConfig {
    pub nodes: BTreeMap<NodeId, NodeEntry>,
    pub params: BTreeMap<String, String>,
    pub apps: BTreeMap<AppId, AppEntry>,
    next_app: u32,
}

/// Deterministic side effects the applier reports so the daemon can act on
/// them (spawn, kill, ...). Effects are derived purely from the command and
/// the pre-state, so every daemon computes the same list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CfgEffect {
    AppSubmitted(AppId),
    AppKilled(AppId),
    AppSuspended(AppId),
    AppResumed(AppId),
    AppDone(AppId),
    AppRestarted {
        app: AppId,
        epoch: Epoch,
        /// Recovery line: the checkpoint index each rank restarts from.
        line: Vec<u64>,
        /// (rank, node) for every rank whose placement changed.
        replaced: Vec<(Rank, NodeId)>,
    },
    CheckpointRequested(AppId),
    /// A rank of a `NotifyView` application was lost with its node.
    RankLost(AppId, Rank),
    ParamSet(String),
}

impl ClusterConfig {
    pub(crate) fn new() -> Self {
        ClusterConfig::default()
    }

    /// Administratively `Up` nodes, sorted by id. Includes nodes registered
    /// by a bare admin `ADDNODE` whose daemon has not announced yet — use
    /// [`ClusterConfig::live_nodes`] for scheduling decisions.
    pub fn up_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|(_, e)| e.status == CfgNodeStatus::Up)
            .map(|(n, _)| *n)
            .collect()
    }

    /// Whether `node` is eligible to run work (`Up` and daemon-announced).
    pub fn is_live(&self, node: NodeId) -> bool {
        self.nodes.get(&node).is_some_and(|e| e.live())
    }

    /// Nodes eligible to run work (`Up` and daemon-announced), sorted by id.
    pub(crate) fn live_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|(_, e)| e.live())
            .map(|(n, _)| *n)
            .collect()
    }

    pub fn arch_of(&self, node: NodeId) -> Arch {
        self.nodes
            .get(&node)
            .map(|e| e.arch)
            .unwrap_or(DEFAULT_ARCH)
    }

    /// Current load (placed ranks of live apps) per node.
    fn load(&self) -> BTreeMap<NodeId, usize> {
        let mut load: BTreeMap<NodeId, usize> = BTreeMap::new();
        for app in self.apps.values() {
            if matches!(app.status, AppStatus::Running | AppStatus::Suspended) {
                for n in &app.placement {
                    *load.entry(*n).or_default() += 1;
                }
            }
        }
        load
    }

    /// Deterministic initial placement: round-robin over up nodes, starting
    /// at the least-loaded one.
    #[expect(clippy::indexing_slicing, reason = "non-empty; the index is mod len")]
    pub(crate) fn place_new(&self, size: u32) -> Option<Vec<NodeId>> {
        let nodes = self.live_nodes();
        if nodes.is_empty() {
            return None;
        }
        let load = self.load();
        let start = nodes
            .iter()
            .enumerate()
            .min_by_key(|(_, n)| (load.get(n).copied().unwrap_or(0), **n))
            .map(|(i, _)| i)
            .unwrap_or(0);
        Some(
            (0..size as usize)
                .map(|r| nodes[(start + r) % nodes.len()])
                .collect(),
        )
    }

    /// Deterministic re-placement of lost ranks onto surviving nodes
    /// (least-loaded first; paper §3.2.2: "some rules regarding how to
    /// choose the node on which a process will be started after a partial
    /// failure").
    pub(crate) fn replace_lost(&self, app: &AppEntry) -> Option<Vec<(Rank, NodeId)>> {
        let nodes = self.live_nodes();
        if nodes.is_empty() {
            return None;
        }
        let mut load = self.load();
        let mut out = Vec::new();
        for (r, n) in app.placement.iter().enumerate() {
            if !self.is_live(*n) {
                let target = *nodes
                    .iter()
                    .min_by_key(|cand| (load.get(cand).copied().unwrap_or(0), **cand))?;
                *load.entry(target).or_default() += 1;
                out.push((Rank(r as u32), target));
            }
        }
        Some(out)
    }

    pub fn find_app_by_token(&self, token: u64) -> Option<&AppEntry> {
        self.apps.values().find(|a| a.spec.token == token)
    }

    /// Apply a command as if originated by the node it concerns: an
    /// `AddNode` applied this way counts as a self-announce. Convenience for
    /// single-replica state machines and tests; daemons delivering the cast
    /// stream use [`ClusterConfig::apply_from`] with the real sender.
    #[cfg(test)]
    pub(crate) fn apply(&mut self, cmd: &CfgCmd) -> Vec<CfgEffect> {
        let from = match cmd {
            CfgCmd::AddNode { node, .. } => *node,
            _ => NodeId(u32::MAX),
        };
        self.apply_from(from, cmd)
    }

    /// Apply one totally ordered command originated by `from`; returns the
    /// deterministic effects. `from` is the cast's sender in the total
    /// order, so every replica sees the same value: an `AddNode` whose
    /// sender *is* the added node is a daemon self-announce and marks the
    /// node live; any other sender (an admin `ADDNODE` relayed by whichever
    /// daemon served the management connection) merely registers it.
    pub(crate) fn apply_from(&mut self, from: NodeId, cmd: &CfgCmd) -> Vec<CfgEffect> {
        match cmd {
            CfgCmd::AddNode { node, arch_index } => {
                let arch = MACHINES
                    .get(*arch_index as usize)
                    .copied()
                    .unwrap_or(DEFAULT_ARCH);
                // Announce survives a benign re-add, but never resurrects
                // across Dead/Removed: those daemons must announce anew.
                let announced = from == *node
                    || self
                        .nodes
                        .get(node)
                        .map(|e| {
                            e.announced
                                && matches!(e.status, CfgNodeStatus::Up | CfgNodeStatus::Disabled)
                        })
                        .unwrap_or(false);
                self.nodes.insert(
                    *node,
                    NodeEntry {
                        status: CfgNodeStatus::Up,
                        arch,
                        announced,
                    },
                );
                Vec::new()
            }
            CfgCmd::RemoveNode { node } => {
                if let Some(e) = self.nodes.get_mut(node) {
                    e.status = CfgNodeStatus::Removed;
                    e.announced = false;
                }
                Vec::new()
            }
            CfgCmd::DisableNode { node } => {
                if let Some(e) = self.nodes.get_mut(node) {
                    if e.status == CfgNodeStatus::Up {
                        e.status = CfgNodeStatus::Disabled;
                    }
                }
                Vec::new()
            }
            CfgCmd::EnableNode { node } => {
                if let Some(e) = self.nodes.get_mut(node) {
                    if matches!(e.status, CfgNodeStatus::Disabled | CfgNodeStatus::Dead) {
                        e.status = CfgNodeStatus::Up;
                    }
                }
                Vec::new()
            }
            CfgCmd::NodeDead { node } => {
                if let Some(e) = self.nodes.get_mut(node) {
                    if e.status != CfgNodeStatus::Removed {
                        e.status = CfgNodeStatus::Dead;
                    }
                    // A dead daemon's announce is void: after an admin
                    // re-add (or ENABLE) the restarted daemon must announce
                    // again before the node is schedulable.
                    e.announced = false;
                }
                // Ranks of notify-policy apps on it are lost for good.
                let mut lost = Vec::new();
                for app in self
                    .apps
                    .values_mut()
                    .filter(|a| a.spec.policy == FtPolicy::NotifyView)
                {
                    let on_node: Vec<Rank> = app
                        .placed()
                        .filter(|(_, n)| n == node)
                        .map(|(r, _)| r)
                        .collect();
                    let live = matches!(app.status, AppStatus::Running | AppStatus::Suspended);
                    for rank in on_node.into_iter().filter(|_| live) {
                        lost.push(CfgEffect::RankLost(app.id, rank));
                        app.lost.push(rank);
                    }
                    app.lost.sort_unstable();
                }
                lost
            }
            CfgCmd::SetParam { key, value } => {
                self.params.insert(key.clone(), value.clone());
                vec![CfgEffect::ParamSet(key.clone())]
            }
            CfgCmd::Submit { spec } => {
                let Some(placement) = self.place_new(spec.size) else {
                    return Vec::new(); // no nodes: submission dropped
                };
                self.next_app += 1;
                let id = AppId(self.next_app);
                self.apps.insert(
                    id,
                    AppEntry {
                        id,
                        spec: spec.clone(),
                        placement,
                        status: AppStatus::Running,
                        epoch: Epoch(0),
                        done_ranks: 0,
                        lost: Vec::new(),
                    },
                );
                vec![CfgEffect::AppSubmitted(id)]
            }
            CfgCmd::Suspend { app } => match self.apps.get_mut(app) {
                Some(a) if a.status == AppStatus::Running => {
                    a.status = AppStatus::Suspended;
                    vec![CfgEffect::AppSuspended(*app)]
                }
                _ => Vec::new(),
            },
            CfgCmd::ResumeApp { app } => match self.apps.get_mut(app) {
                Some(a) if a.status == AppStatus::Suspended => {
                    a.status = AppStatus::Running;
                    vec![CfgEffect::AppResumed(*app)]
                }
                _ => Vec::new(),
            },
            CfgCmd::Delete { app } => match self.apps.get_mut(app) {
                Some(a) if matches!(a.status, AppStatus::Running | AppStatus::Suspended) => {
                    a.status = AppStatus::Killed;
                    vec![CfgEffect::AppKilled(*app)]
                }
                _ => Vec::new(),
            },
            CfgCmd::RankDone { app, rank: _ } => match self.apps.get_mut(app) {
                Some(a) if a.status == AppStatus::Running => {
                    a.done_ranks += 1;
                    if a.done_ranks >= a.spec.size {
                        a.status = AppStatus::Done;
                        vec![CfgEffect::AppDone(*app)]
                    } else {
                        Vec::new()
                    }
                }
                _ => Vec::new(),
            },
            // No round for a job that is ending: a rank that returned
            // cannot answer one.
            CfgCmd::TriggerCkpt { app } => {
                let open = |a: &AppEntry| a.status == AppStatus::Running && a.done_ranks == 0;
                if self.apps.get(app).is_some_and(open) {
                    vec![CfgEffect::CheckpointRequested(*app)]
                } else {
                    Vec::new()
                }
            }
            CfgCmd::NeedState { .. } => Vec::new(),
            #[expect(clippy::indexing_slicing, reason = "`rank` is range-checked first")]
            CfgCmd::Migrate {
                app,
                rank,
                node,
                line,
            } => {
                if !self.is_live(*node) {
                    return Vec::new();
                }
                let Some(a) = self.apps.get_mut(app) else {
                    return Vec::new();
                };
                if a.status != AppStatus::Running || rank.index() >= a.placement.len() {
                    return Vec::new();
                }
                if a.placement[rank.index()] == *node {
                    return Vec::new(); // already there
                }
                a.placement[rank.index()] = *node;
                a.lost.retain(|r| r != rank);
                a.epoch = Epoch(a.epoch.0 + 1);
                // Reuses the restart machinery: the migrated rank spawns
                // from its line checkpoint on the new node; survivors roll
                // back to the same line so the cut stays consistent. Any
                // rank that had already finished re-runs from the line, so
                // the done count starts over.
                a.done_ranks = 0;
                vec![CfgEffect::AppRestarted {
                    app: *app,
                    epoch: a.epoch,
                    line: line.clone(),
                    replaced: vec![(*rank, *node)],
                }]
            }
            CfgCmd::RestartApp { app, line } => {
                // Deterministic restart decision: bump epoch, re-place lost
                // ranks. Every daemon computes the identical outcome.
                let Some(entry) = self.apps.get(app).cloned() else {
                    return Vec::new();
                };
                if !matches!(entry.status, AppStatus::Running | AppStatus::Suspended) {
                    return Vec::new();
                }
                #[expect(clippy::expect_used, reason = "`app` was found above")]
                let Some(replaced) = self.replace_lost(&entry) else {
                    // No nodes left to host the lost ranks: kill.
                    self.apps.get_mut(app).expect("present").status = AppStatus::Killed;
                    return vec![CfgEffect::AppKilled(*app)];
                };
                if replaced.is_empty() {
                    // Nothing was actually lost (e.g. a re-issued restart
                    // decision after a coordinator handover): no-op, keeping
                    // the command idempotent.
                    return Vec::new();
                }
                #[expect(clippy::expect_used, reason = "`app` was found above")]
                let a = self.apps.get_mut(app).expect("present");
                #[expect(clippy::indexing_slicing, reason = "ranks of this app's placement")]
                for (r, n) in &replaced {
                    a.placement[r.index()] = *n;
                }
                a.epoch = Epoch(a.epoch.0 + 1);
                // A coordinated line cannot be partially resumed: every
                // rank — including ones that already finished — rolls back
                // to the line and runs again, so the done count restarts.
                a.done_ranks = 0;
                vec![CfgEffect::AppRestarted {
                    app: *app,
                    epoch: a.epoch,
                    line: line.clone(),
                    replaced,
                }]
            }
        }
    }
}

// ---- state-transfer serialization ------------------------------------------

fn status_byte(s: AppStatus) -> u8 {
    match s {
        AppStatus::Running => 0,
        AppStatus::Suspended => 1,
        AppStatus::Done => 2,
        AppStatus::Killed => 3,
    }
}

fn status_from(b: u8) -> Result<AppStatus> {
    Ok(match b {
        0 => AppStatus::Running,
        1 => AppStatus::Suspended,
        2 => AppStatus::Done,
        3 => AppStatus::Killed,
        _ => return Err(Error::codec(format!("bad app status {b}"))),
    })
}

fn node_status_byte(s: CfgNodeStatus) -> u8 {
    match s {
        CfgNodeStatus::Up => 0,
        CfgNodeStatus::Disabled => 1,
        CfgNodeStatus::Dead => 2,
        CfgNodeStatus::Removed => 3,
    }
}

fn node_status_from(b: u8) -> Result<CfgNodeStatus> {
    Ok(match b {
        0 => CfgNodeStatus::Up,
        1 => CfgNodeStatus::Disabled,
        2 => CfgNodeStatus::Dead,
        3 => CfgNodeStatus::Removed,
        _ => return Err(Error::codec(format!("bad node status {b}"))),
    })
}

impl Encode for AppEntry {
    fn encode(&self, enc: &mut Encoder) {
        self.id.encode(enc);
        self.spec.encode(enc);
        self.placement.encode(enc);
        enc.put_u8(status_byte(self.status));
        self.epoch.encode(enc);
        enc.put_u32(self.done_ranks);
        self.lost.encode(enc);
    }
}

impl Decode for AppEntry {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(AppEntry {
            id: AppId::decode(dec)?,
            spec: AppSpec::decode(dec)?,
            placement: Vec::<NodeId>::decode(dec)?,
            status: status_from(dec.get_u8()?)?,
            epoch: Epoch::decode(dec)?,
            done_ranks: dec.get_u32()?,
            lost: Vec::<Rank>::decode(dec)?,
        })
    }
}

impl Encode for ClusterConfig {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.nodes.len() as u32);
        for (n, e) in &self.nodes {
            n.encode(enc);
            enc.put_u8(node_status_byte(e.status));
            e.arch.encode(enc);
            enc.put_u8(e.announced as u8);
        }
        enc.put_u32(self.params.len() as u32);
        for (k, v) in &self.params {
            enc.put_str(k);
            enc.put_str(v);
        }
        enc.put_u32(self.apps.len() as u32);
        for a in self.apps.values() {
            a.encode(enc);
        }
        enc.put_u32(self.next_app);
    }
}

impl Decode for ClusterConfig {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let mut cfg = ClusterConfig::new();
        let n_nodes = dec.get_u32()? as usize;
        for _ in 0..n_nodes {
            let n = NodeId::decode(dec)?;
            let status = node_status_from(dec.get_u8()?)?;
            let arch = Arch::decode(dec)?;
            let announced = dec.get_u8()? != 0;
            cfg.nodes.insert(
                n,
                NodeEntry {
                    status,
                    arch,
                    announced,
                },
            );
        }
        let n_params = dec.get_u32()? as usize;
        for _ in 0..n_params {
            let k = dec.get_str()?;
            let v = dec.get_str()?;
            cfg.params.insert(k, v);
        }
        let n_apps = dec.get_u32()? as usize;
        for _ in 0..n_apps {
            let a = AppEntry::decode(dec)?;
            cfg.apps.insert(a.id, a);
        }
        cfg.next_app = dec.get_u32()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_util::codec::roundtrip;

    fn spec(name: &str, size: u32) -> AppSpec {
        AppSpec {
            name: name.into(),
            size,
            policy: FtPolicy::Restart,
            level: LevelKind::Vm,
            proto: CkptProto::StopAndSync,
            backend: CkptBackend::Replica { k: 2 },
            owner: "alice".into(),
            token: 42,
        }
    }

    fn with_nodes(n: u32) -> ClusterConfig {
        let mut c = ClusterConfig::new();
        for i in 0..n {
            c.apply(&CfgCmd::AddNode {
                node: NodeId(i),
                arch_index: 0,
            });
        }
        c
    }

    #[test]
    fn submit_assigns_ids_and_round_robin_placement() {
        let mut c = with_nodes(3);
        let eff = c.apply(&CfgCmd::Submit { spec: spec("a", 5) });
        assert_eq!(eff, vec![CfgEffect::AppSubmitted(AppId(1))]);
        let app = c.apps.get(&AppId(1)).unwrap();
        assert_eq!(app.placement.len(), 5);
        // Round-robin over 3 nodes.
        assert_eq!(app.placement[0], app.placement[3]);
        assert_eq!(app.placement[1], app.placement[4]);
        // Second submission starts at the least-loaded node.
        let eff = c.apply(&CfgCmd::Submit { spec: spec("b", 1) });
        assert_eq!(eff, vec![CfgEffect::AppSubmitted(AppId(2))]);
        let b = c.apps.get(&AppId(2)).unwrap();
        assert_eq!(b.placement[0], NodeId(2), "node 2 had only one rank");
    }

    #[test]
    fn two_replicas_converge_on_same_command_stream() {
        let cmds = vec![
            CfgCmd::AddNode {
                node: NodeId(0),
                arch_index: 0,
            },
            CfgCmd::AddNode {
                node: NodeId(1),
                arch_index: 5,
            },
            CfgCmd::Submit { spec: spec("x", 4) },
            CfgCmd::SetParam {
                key: "ckpt_interval".into(),
                value: "3600".into(),
            },
            CfgCmd::DisableNode { node: NodeId(1) },
        ];
        let mut a = ClusterConfig::new();
        let mut b = ClusterConfig::new();
        for cmd in &cmds {
            a.apply(cmd);
            b.apply(cmd);
        }
        assert_eq!(a.apps, b.apps);
        assert_eq!(a.nodes, b.nodes);
        assert_eq!(a.params, b.params);
    }

    #[test]
    fn lifecycle_suspend_resume_delete() {
        let mut c = with_nodes(1);
        c.apply(&CfgCmd::Submit { spec: spec("a", 1) });
        let id = AppId(1);
        assert_eq!(
            c.apply(&CfgCmd::Suspend { app: id }),
            vec![CfgEffect::AppSuspended(id)]
        );
        // Double-suspend is a no-op.
        assert!(c.apply(&CfgCmd::Suspend { app: id }).is_empty());
        assert_eq!(
            c.apply(&CfgCmd::ResumeApp { app: id }),
            vec![CfgEffect::AppResumed(id)]
        );
        assert_eq!(
            c.apply(&CfgCmd::Delete { app: id }),
            vec![CfgEffect::AppKilled(id)]
        );
        assert_eq!(c.apps[&id].status, AppStatus::Killed);
    }

    #[test]
    fn app_done_when_all_ranks_finish() {
        let mut c = with_nodes(1);
        c.apply(&CfgCmd::Submit { spec: spec("a", 2) });
        assert!(c
            .apply(&CfgCmd::RankDone {
                app: AppId(1),
                rank: Rank(0)
            })
            .is_empty());
        let eff = c.apply(&CfgCmd::RankDone {
            app: AppId(1),
            rank: Rank(1),
        });
        assert_eq!(eff, vec![CfgEffect::AppDone(AppId(1))]);
    }

    /// A job one of whose ranks returned opens no round: the returned rank
    /// could not answer it.
    #[test]
    fn no_round_for_an_ending_job() {
        let mut c = with_nodes(1);
        c.apply(&CfgCmd::Submit { spec: spec("a", 2) });
        let trigger = CfgCmd::TriggerCkpt { app: AppId(1) };
        assert_eq!(
            c.clone().apply(&trigger),
            vec![CfgEffect::CheckpointRequested(AppId(1))]
        );
        c.apply(&CfgCmd::RankDone {
            app: AppId(1),
            rank: Rank(0),
        });
        assert!(c.apply(&trigger).is_empty());
    }

    #[test]
    fn restart_replaces_lost_ranks_deterministically() {
        let mut c = with_nodes(3);
        c.apply(&CfgCmd::Submit { spec: spec("a", 3) });
        let app = c.apps[&AppId(1)].clone();
        let dead = app.placement[1];
        c.apply(&CfgCmd::NodeDead { node: dead });
        let eff = c.apply(&CfgCmd::RestartApp {
            app: AppId(1),
            line: vec![7, 7, 7],
        });
        match &eff[0] {
            CfgEffect::AppRestarted {
                app,
                epoch,
                line,
                replaced,
            } => {
                assert_eq!(*app, AppId(1));
                assert_eq!(*epoch, Epoch(1));
                assert_eq!(line, &vec![7, 7, 7]);
                assert_eq!(replaced.len(), 1);
                assert_eq!(replaced[0].0, Rank(1));
                assert_ne!(replaced[0].1, dead);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The placement is updated in the replicated state.
        let app = &c.apps[&AppId(1)];
        assert_ne!(app.placement[1], dead);
    }

    /// A notify-policy app's ranks on a dead node are recorded lost once,
    /// travel with the snapshot, and a migration brings one back.
    #[test]
    fn node_dead_records_notify_view_ranks_lost() {
        let mut c = with_nodes(3);
        let notify = AppSpec {
            policy: FtPolicy::NotifyView,
            ..spec("n", 3)
        };
        c.apply(&CfgCmd::Submit { spec: notify });
        c.apply(&CfgCmd::Submit { spec: spec("r", 3) });
        let eff = c.apply(&CfgCmd::NodeDead { node: NodeId(2) });
        assert_eq!(eff, vec![CfgEffect::RankLost(AppId(1), Rank(2))]);
        assert!(c.apply(&CfgCmd::NodeDead { node: NodeId(2) }).is_empty());
        assert_eq!(c.apps[&AppId(1)].lost, vec![Rank(2)]);
        assert!(
            c.apps[&AppId(2)].lost.is_empty(),
            "restart apps lose nothing"
        );
        assert_eq!(roundtrip(&c).unwrap().apps, c.apps);
        c.apply(&CfgCmd::Migrate {
            app: AppId(1),
            rank: Rank(2),
            node: NodeId(0),
            line: vec![0; 3],
        });
        assert!(c.apps[&AppId(1)].lost.is_empty());
    }

    #[test]
    fn restart_with_no_nodes_kills() {
        let mut c = with_nodes(1);
        c.apply(&CfgCmd::Submit { spec: spec("a", 1) });
        c.apply(&CfgCmd::NodeDead { node: NodeId(0) });
        let eff = c.apply(&CfgCmd::RestartApp {
            app: AppId(1),
            line: vec![0],
        });
        assert_eq!(eff, vec![CfgEffect::AppKilled(AppId(1))]);
    }

    #[test]
    fn disabled_nodes_get_no_new_work() {
        let mut c = with_nodes(2);
        c.apply(&CfgCmd::DisableNode { node: NodeId(0) });
        c.apply(&CfgCmd::Submit { spec: spec("a", 3) });
        let app = &c.apps[&AppId(1)];
        assert!(app.placement.iter().all(|n| *n == NodeId(1)));
        // Re-enable and the node is eligible again.
        c.apply(&CfgCmd::EnableNode { node: NodeId(0) });
        assert_eq!(c.up_nodes(), vec![NodeId(0), NodeId(1)]);
    }

    /// The phantom-node regression at the state-machine level: a bare
    /// `ADDNODE` (an AddNode cast originated by some *other* daemon) makes
    /// the node administratively Up but not schedulable; only the node's
    /// own announce cast does.
    #[test]
    fn unannounced_node_gets_no_placement_until_self_announce() {
        let mut c = with_nodes(1); // NodeId(0): self-announced, live
        let phantom = NodeId(9);
        // Admin registers the phantom through whichever daemon served the
        // management connection — node 0 here, never the phantom itself.
        c.apply_from(
            NodeId(0),
            &CfgCmd::AddNode {
                node: phantom,
                arch_index: 0,
            },
        );
        assert_eq!(c.up_nodes(), vec![NodeId(0), phantom], "admin view");
        assert_eq!(c.live_nodes(), vec![NodeId(0)], "scheduler view");
        c.apply(&CfgCmd::Submit { spec: spec("a", 4) });
        let app = &c.apps[&AppId(1)];
        assert!(
            app.placement.iter().all(|n| *n == NodeId(0)),
            "no rank may land on the unannounced node: {:?}",
            app.placement
        );
        // Lost-rank re-placement skips it too.
        let entry = app.clone();
        c.apply(&CfgCmd::NodeDead { node: NodeId(0) });
        assert_eq!(c.replace_lost(&entry), None, "no live node to host ranks");
        // The phantom's daemon finally boots and announces itself: the
        // AddNode cast comes from the node itself, upgrading it to live.
        c.apply_from(
            phantom,
            &CfgCmd::AddNode {
                node: phantom,
                arch_index: 0,
            },
        );
        assert_eq!(c.live_nodes(), vec![phantom]);
        c.apply(&CfgCmd::Submit { spec: spec("b", 2) });
        assert!(c.apps[&AppId(2)].placement.iter().all(|n| *n == phantom));
    }

    /// Death voids an announce: an admin re-add of a dead node does not
    /// resurrect liveness, the restarted daemon's own announce does.
    #[test]
    fn announce_does_not_survive_death() {
        let mut c = with_nodes(2);
        c.apply(&CfgCmd::NodeDead { node: NodeId(1) });
        c.apply_from(
            NodeId(0),
            &CfgCmd::AddNode {
                node: NodeId(1),
                arch_index: 0,
            },
        );
        assert_eq!(c.live_nodes(), vec![NodeId(0)], "re-add is not an announce");
        // Disable/enable of a live node keeps the announce (the daemon
        // never went away).
        c.apply(&CfgCmd::DisableNode { node: NodeId(0) });
        c.apply(&CfgCmd::EnableNode { node: NodeId(0) });
        assert_eq!(c.live_nodes(), vec![NodeId(0)]);
    }

    #[test]
    fn token_lookup() {
        let mut c = with_nodes(1);
        c.apply(&CfgCmd::Submit { spec: spec("a", 1) });
        assert_eq!(c.find_app_by_token(42).unwrap().id, AppId(1));
        assert!(c.find_app_by_token(7).is_none());
    }

    #[test]
    fn full_config_snapshot_roundtrips() {
        let mut c = with_nodes(3);
        c.apply(&CfgCmd::Submit { spec: spec("a", 4) });
        c.apply(&CfgCmd::SetParam {
            key: "x".into(),
            value: "1".into(),
        });
        c.apply(&CfgCmd::DisableNode { node: NodeId(2) });
        let got = roundtrip(&c).unwrap();
        assert_eq!(got.nodes, c.nodes);
        assert_eq!(got.params, c.params);
        assert_eq!(got.apps, c.apps);
        // next_app travels too: the next submission gets a fresh id.
        let mut got = got;
        got.apply(&CfgCmd::Submit { spec: spec("b", 1) });
        assert!(got.apps.contains_key(&AppId(2)));
    }

    #[test]
    fn needstate_is_a_noop_on_state() {
        let mut c = with_nodes(1);
        let before = c.clone();
        assert!(c
            .apply(&CfgCmd::NeedState {
                node: NodeId(9),
                req: 1
            })
            .is_empty());
        assert_eq!(c.nodes, before.nodes);
        assert_eq!(c.apps, before.apps);
    }

    #[test]
    fn migrate_moves_rank_and_bumps_epoch() {
        let mut c = with_nodes(3);
        c.apply(&CfgCmd::Submit { spec: spec("a", 2) });
        let app = AppId(1);
        let old = c.apps[&app].placement[1];
        let target = (0..3)
            .map(NodeId)
            .find(|n| *n != old && *n != c.apps[&app].placement[0])
            .unwrap_or(NodeId(2));
        let eff = c.apply(&CfgCmd::Migrate {
            app,
            rank: Rank(1),
            node: target,
            line: vec![3, 3],
        });
        match &eff[0] {
            CfgEffect::AppRestarted {
                replaced,
                epoch,
                line,
                ..
            } => {
                assert_eq!(replaced, &vec![(Rank(1), target)]);
                assert_eq!(*epoch, Epoch(1));
                assert_eq!(line, &vec![3, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.apps[&app].placement[1], target);
        // Migrating to a dead node is refused.
        c.apply(&CfgCmd::NodeDead { node: NodeId(0) });
        let eff = c.apply(&CfgCmd::Migrate {
            app,
            rank: Rank(0),
            node: NodeId(0),
            line: vec![0, 0],
        });
        assert!(eff.is_empty());
    }

    #[test]
    fn heterogeneous_arch_tracked_per_node() {
        let mut c = ClusterConfig::new();
        c.apply(&CfgCmd::AddNode {
            node: NodeId(0),
            arch_index: 1, // SunOS big-endian
        });
        assert_eq!(c.arch_of(NodeId(0)), MACHINES[1]);
        assert_eq!(c.arch_of(NodeId(9)), DEFAULT_ARCH);
    }
}
