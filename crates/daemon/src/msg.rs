//! Daemon message types: the replicated command stream and the local
//! daemon ↔ application-process protocol (paper §2.3, Table 1).

use bytes::Bytes;

use starfish_checkpoint::backend::CkptBackend;
use starfish_telemetry::Snapshot;
use starfish_util::codec::{Decode, Decoder, Encode, Encoder};
use starfish_util::trace::MsgClass;
use starfish_util::{AppId, Epoch, Error, NodeId, Rank, Result, VirtualTime};

use crate::config::{AppSpec, CkptProto, FtPolicy, LevelKind};
use crate::lwgroups::LwView;

/// Replicated configuration commands, carried as totally ordered casts
/// between daemons (Table 1 "Control" messages).
#[derive(Debug, Clone, PartialEq)]
pub enum CfgCmd {
    AddNode {
        node: NodeId,
        arch_index: u8,
    },
    RemoveNode {
        node: NodeId,
    },
    DisableNode {
        node: NodeId,
    },
    EnableNode {
        node: NodeId,
    },
    /// The membership layer reported this node gone (crash); recorded in the
    /// replicated state so placement decisions exclude it.
    NodeDead {
        node: NodeId,
    },
    SetParam {
        key: String,
        value: String,
    },
    Submit {
        spec: AppSpec,
    },
    Suspend {
        app: AppId,
    },
    ResumeApp {
        app: AppId,
    },
    Delete {
        app: AppId,
    },
    /// A rank reported normal completion.
    RankDone {
        app: AppId,
        rank: Rank,
    },
    /// Client- or system-initiated checkpoint request.
    TriggerCkpt {
        app: AppId,
    },
    /// Deterministic restart decision (issued by the surviving view
    /// coordinator's daemon after a failure under the `Restart` policy).
    /// `line` is the recovery line: the checkpoint index each rank restarts
    /// from (uniform for coordinated protocols, per-rank for uncoordinated).
    RestartApp {
        app: AppId,
        line: Vec<u64>,
    },
    /// State-transfer request: a freshly joined daemon asks for the
    /// replicated configuration. Applying it changes nothing; its position
    /// in the total order defines the snapshot point, and the daemon acting
    /// for the group answers with a [`P2pMsg::State`] carrying the same
    /// `req` (the joiner asks again at each view until one arrives).
    NeedState {
        node: NodeId,
        req: u32,
    },
    /// Migrate one rank to another node (paper §3.2.1: "C/R allows Starfish
    /// to migrate application processes from one node to another, e.g., if
    /// a better node becomes available"). The whole application rolls back
    /// to `line` (so the cut is consistent) and the rank restarts on `node`.
    Migrate {
        app: AppId,
        rank: Rank,
        node: NodeId,
        line: Vec<u64>,
    },
}

const T_ADD: u8 = 1;
const T_REMOVE: u8 = 2;
const T_DISABLE: u8 = 3;
const T_ENABLE: u8 = 4;
const T_DEAD: u8 = 5;
const T_PARAM: u8 = 6;
const T_SUBMIT: u8 = 7;
const T_SUSPEND: u8 = 8;
const T_RESUMEAPP: u8 = 9;
const T_DELETE: u8 = 10;
const T_RANKDONE: u8 = 11;
const T_CKPT: u8 = 12;
const T_RESTART: u8 = 13;
const T_NEEDSTATE: u8 = 14;
const T_MIGRATE: u8 = 15;

fn encode_policy(p: FtPolicy) -> u8 {
    match p {
        FtPolicy::Restart => 0,
        FtPolicy::NotifyView => 1,
        FtPolicy::Kill => 2,
    }
}

fn decode_policy(b: u8) -> Result<FtPolicy> {
    Ok(match b {
        0 => FtPolicy::Restart,
        1 => FtPolicy::NotifyView,
        2 => FtPolicy::Kill,
        _ => return Err(Error::codec(format!("bad policy byte {b}"))),
    })
}

fn encode_level(l: LevelKind) -> u8 {
    match l {
        LevelKind::Native => 0,
        LevelKind::Vm => 1,
    }
}

fn decode_level(b: u8) -> Result<LevelKind> {
    Ok(match b {
        0 => LevelKind::Native,
        1 => LevelKind::Vm,
        _ => return Err(Error::codec(format!("bad level byte {b}"))),
    })
}

fn encode_proto(p: CkptProto) -> u8 {
    match p {
        CkptProto::StopAndSync => 0,
        CkptProto::ChandyLamport => 1,
        CkptProto::Independent => 2,
    }
}

fn decode_proto(b: u8) -> Result<CkptProto> {
    Ok(match b {
        0 => CkptProto::StopAndSync,
        1 => CkptProto::ChandyLamport,
        2 => CkptProto::Independent,
        _ => return Err(Error::codec(format!("bad proto byte {b}"))),
    })
}

/// Backend wire form: tag byte then the replica degree (0 for disk, which
/// has no parameters).
fn encode_backend(b: CkptBackend, enc: &mut Encoder) {
    match b {
        CkptBackend::Disk => {
            enc.put_u8(0);
            enc.put_u8(0);
        }
        CkptBackend::Replica { k } => {
            enc.put_u8(1);
            enc.put_u8(k);
        }
    }
}

fn decode_backend(dec: &mut Decoder<'_>) -> Result<CkptBackend> {
    let tag = dec.get_u8()?;
    let k = dec.get_u8()?;
    Ok(match tag {
        0 => CkptBackend::Disk,
        1 if k >= 1 => CkptBackend::Replica { k },
        _ => return Err(Error::codec(format!("bad backend tag {tag} (k={k})"))),
    })
}

impl Encode for AppSpec {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(&self.name);
        enc.put_u32(self.size);
        enc.put_u8(encode_policy(self.policy));
        enc.put_u8(encode_level(self.level));
        enc.put_u8(encode_proto(self.proto));
        encode_backend(self.backend, enc);
        enc.put_str(&self.owner);
        enc.put_u64(self.token);
    }
}

impl Decode for AppSpec {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(AppSpec {
            name: dec.get_str()?,
            size: dec.get_u32()?,
            policy: decode_policy(dec.get_u8()?)?,
            level: decode_level(dec.get_u8()?)?,
            proto: decode_proto(dec.get_u8()?)?,
            backend: decode_backend(dec)?,
            owner: dec.get_str()?,
            token: dec.get_u64()?,
        })
    }
}

impl Encode for CfgCmd {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            CfgCmd::AddNode { node, arch_index } => {
                enc.put_u8(T_ADD);
                node.encode(enc);
                enc.put_u8(*arch_index);
            }
            CfgCmd::RemoveNode { node } => {
                enc.put_u8(T_REMOVE);
                node.encode(enc);
            }
            CfgCmd::DisableNode { node } => {
                enc.put_u8(T_DISABLE);
                node.encode(enc);
            }
            CfgCmd::EnableNode { node } => {
                enc.put_u8(T_ENABLE);
                node.encode(enc);
            }
            CfgCmd::NodeDead { node } => {
                enc.put_u8(T_DEAD);
                node.encode(enc);
            }
            CfgCmd::SetParam { key, value } => {
                enc.put_u8(T_PARAM);
                enc.put_str(key);
                enc.put_str(value);
            }
            CfgCmd::Submit { spec } => {
                enc.put_u8(T_SUBMIT);
                spec.encode(enc);
            }
            CfgCmd::Suspend { app } => {
                enc.put_u8(T_SUSPEND);
                app.encode(enc);
            }
            CfgCmd::ResumeApp { app } => {
                enc.put_u8(T_RESUMEAPP);
                app.encode(enc);
            }
            CfgCmd::Delete { app } => {
                enc.put_u8(T_DELETE);
                app.encode(enc);
            }
            CfgCmd::RankDone { app, rank } => {
                enc.put_u8(T_RANKDONE);
                app.encode(enc);
                rank.encode(enc);
            }
            CfgCmd::TriggerCkpt { app } => {
                enc.put_u8(T_CKPT);
                app.encode(enc);
            }
            CfgCmd::RestartApp { app, line } => {
                enc.put_u8(T_RESTART);
                app.encode(enc);
                line.encode(enc);
            }
            CfgCmd::NeedState { node, req } => {
                enc.put_u8(T_NEEDSTATE);
                node.encode(enc);
                enc.put_u32(*req);
            }
            CfgCmd::Migrate {
                app,
                rank,
                node,
                line,
            } => {
                enc.put_u8(T_MIGRATE);
                app.encode(enc);
                rank.encode(enc);
                node.encode(enc);
                line.encode(enc);
            }
        }
    }
}

impl Decode for CfgCmd {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.get_u8()? {
            T_ADD => CfgCmd::AddNode {
                node: NodeId::decode(dec)?,
                arch_index: dec.get_u8()?,
            },
            T_REMOVE => CfgCmd::RemoveNode {
                node: NodeId::decode(dec)?,
            },
            T_DISABLE => CfgCmd::DisableNode {
                node: NodeId::decode(dec)?,
            },
            T_ENABLE => CfgCmd::EnableNode {
                node: NodeId::decode(dec)?,
            },
            T_DEAD => CfgCmd::NodeDead {
                node: NodeId::decode(dec)?,
            },
            T_PARAM => CfgCmd::SetParam {
                key: dec.get_str()?,
                value: dec.get_str()?,
            },
            T_SUBMIT => CfgCmd::Submit {
                spec: AppSpec::decode(dec)?,
            },
            T_SUSPEND => CfgCmd::Suspend {
                app: AppId::decode(dec)?,
            },
            T_RESUMEAPP => CfgCmd::ResumeApp {
                app: AppId::decode(dec)?,
            },
            T_DELETE => CfgCmd::Delete {
                app: AppId::decode(dec)?,
            },
            T_RANKDONE => CfgCmd::RankDone {
                app: AppId::decode(dec)?,
                rank: Rank::decode(dec)?,
            },
            T_CKPT => CfgCmd::TriggerCkpt {
                app: AppId::decode(dec)?,
            },
            T_RESTART => CfgCmd::RestartApp {
                app: AppId::decode(dec)?,
                line: Vec::<u64>::decode(dec)?,
            },
            T_NEEDSTATE => CfgCmd::NeedState {
                node: NodeId::decode(dec)?,
                req: dec.get_u32()?,
            },
            T_MIGRATE => CfgCmd::Migrate {
                app: AppId::decode(dec)?,
                rank: Rank::decode(dec)?,
                node: NodeId::decode(dec)?,
                line: Vec::<u64>::decode(dec)?,
            },
            t => return Err(Error::codec(format!("unknown CfgCmd tag {t}"))),
        })
    }
}

/// Kind of application message relayed through the daemons (Table 1:
/// coordination vs. checkpoint/restart; both opaque to daemons).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelayKind {
    Coordination,
    CheckpointRestart,
}

impl RelayKind {
    /// The Table 1 class a relay of this kind is audited under.
    pub(crate) fn class(self) -> MsgClass {
        match self {
            RelayKind::Coordination => MsgClass::Coordination,
            RelayKind::CheckpointRestart => MsgClass::CheckpointRestart,
        }
    }
}

/// Envelope of an application message relayed inside a lightweight group.
/// Every field but the kind is a varint on the wire: the ids are small.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppRelay {
    pub(crate) app: AppId,
    pub(crate) kind: RelayKind,
    pub(crate) from: Rank,
    /// Specific destination rank, or None for a lightweight-group multicast.
    pub(crate) to: Option<Rank>,
    pub(crate) body: Bytes,
    /// The origin stamp: when the rank sent it. A daemon that relays it
    /// stamps it from this and the path, not from its own clock.
    pub(crate) vt: VirtualTime,
}

impl Encode for AppRelay {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_var(u64::from(self.app.0));
        enc.put_u8(match self.kind {
            RelayKind::Coordination => 0,
            RelayKind::CheckpointRestart => 1,
        });
        enc.put_var(u64::from(self.from.0));
        // 0: a multicast; else the destination rank + 1.
        enc.put_var(self.to.map_or(0, |r| u64::from(r.0) + 1));
        enc.put_var(self.body.len() as u64);
        enc.put_raw(&self.body);
        enc.put_var(self.vt.as_nanos());
    }
}

impl Decode for AppRelay {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let app = AppId(var_u32(dec)?);
        let kind = match dec.get_u8()? {
            0 => RelayKind::Coordination,
            1 => RelayKind::CheckpointRestart,
            b => return Err(Error::codec(format!("bad relay kind {b}"))),
        };
        let from = Rank(var_u32(dec)?);
        let to = match dec.get_var()? {
            0 => None,
            r => Some(Rank(
                u32::try_from(r - 1).map_err(|_| Error::codec("a rank past u32"))?,
            )),
        };
        let len = dec.get_len(1)?;
        let body = Bytes::copy_from_slice(dec.take(len)?);
        let vt = VirtualTime::from_nanos(dec.get_var()?);
        Ok(AppRelay {
            app,
            kind,
            from,
            to,
            body,
            vt,
        })
    }
}

/// Messages from the daemon's lightweight endpoint module to a local
/// application process (the paper's local TCP connection, §2.3).
#[derive(Debug, Clone)]
pub enum ProcDown {
    /// Lightweight-group view notification (the dynamicity/fault-tolerance
    /// upcall of §3.2).
    LwView { view: LwView, vt: VirtualTime },
    /// Relayed application message (coordination or C/R).
    Relay {
        kind: RelayKind,
        from: Rank,
        body: Bytes,
        vt: VirtualTime,
    },
    /// Configuration: start a checkpoint round now.
    StartCheckpoint { vt: VirtualTime },
    /// Configuration: suspend at the next service point.
    Suspend { vt: VirtualTime },
    /// Configuration: resume from suspension.
    Resume { vt: VirtualTime },
    /// Configuration: roll back to checkpoint `index` with a new epoch.
    Rollback {
        index: u64,
        epoch: Epoch,
        vt: VirtualTime,
    },
    /// Configuration: terminate immediately.
    Kill { vt: VirtualTime },
}

impl ProcDown {
    /// The Table 1 class this message is audited under.
    pub(crate) fn class(&self) -> MsgClass {
        match self {
            ProcDown::LwView { .. } => MsgClass::LwMembership,
            ProcDown::Relay { kind, .. } => kind.class(),
            _ => MsgClass::Configuration,
        }
    }
}

/// Messages from a local application process up to its daemon.
#[derive(Debug, Clone)]
pub enum ProcUp {
    /// Multicast a coordination or C/R message in the app's lightweight
    /// group.
    Cast {
        kind: RelayKind,
        body: Bytes,
        vt: VirtualTime,
    },
    /// Send a C/R message to a specific rank. A member's `Saved` carries
    /// its telemetry (`stats`): the daemon that hosts the coordinator casts
    /// it with the coordinator's own flush, so a round costs no cast of the
    /// member's.
    SendTo {
        kind: RelayKind,
        to: Rank,
        body: Bytes,
        stats: Option<RankStats>,
        vt: VirtualTime,
    },
    /// This rank finished normally.
    Done { vt: VirtualTime },
    /// A checkpoint round committed locally at `index` (reported by the
    /// round coordinator for bookkeeping/GC).
    CkptCommitted { index: u64, vt: VirtualTime },
    /// This process's telemetry; the daemon casts it, with the snapshots
    /// other ranks' `Saved`s handed it and its own infrastructure snapshot,
    /// in one [`WireCast::Stats`] so every daemon's stats hub sees them all.
    Stats { stats: RankStats, vt: VirtualTime },
}

impl ProcUp {
    /// The process's virtual time when it sent this.
    pub(crate) fn vt(&self) -> VirtualTime {
        match self {
            ProcUp::Cast { vt, .. }
            | ProcUp::SendTo { vt, .. }
            | ProcUp::Done { vt }
            | ProcUp::CkptCommitted { vt, .. }
            | ProcUp::Stats { vt, .. } => *vt,
        }
    }
}

/// Top-level envelope of every daemon cast.
#[derive(Debug, Clone, PartialEq)]
pub enum WireCast {
    /// A replicated configuration command.
    Cfg(CfgCmd),
    /// An application multicast inside its lightweight group: every other
    /// rank of `relay.app` gets it.
    Mcast(AppRelay),
    /// Cumulative telemetry snapshots (see [`StatsCast`]).
    Stats(StatsCast),
    /// A structured cluster event observed locally (suspicion, checkpoint
    /// commit, respawn, injected fault) published to every daemon's flight
    /// recorder through the total order, so all agree on sequence.
    /// Events derivable from the `Cfg` stream itself are *not* cast — each
    /// daemon appends those deterministically while applying the command.
    Event {
        origin: NodeId,
        vt: VirtualTime,
        kind: starfish_trace::event::EventKind,
    },
    /// Casts one daemon made at one virtual instant, in one slot of the
    /// total order: every daemon takes them in this order. Never empty and
    /// never nested; build it with [`WireCast::batch`], which leaves a
    /// single cast as it is.
    Batch(Vec<WireCast>),
}

const T_BATCH: u8 = 4;

/// A rank's cumulative telemetry snapshot, numbered: its `seq`-th flush in
/// `epoch`. Its own daemon casts some of a rank's snapshots and the
/// coordinator's daemon the rest, so two of them can be delivered out of
/// order; a hub keeps the one with the greater `(epoch, seq)`. A respawned
/// rank counts from 1 again, in a later epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankStats {
    pub epoch: Epoch,
    pub seq: u64,
    pub snap: Snapshot,
}

impl RankStats {
    pub(crate) fn key(&self) -> (Epoch, u64) {
        (self.epoch, self.seq)
    }
}

/// In varints.
impl Encode for RankStats {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_var(u64::from(self.epoch.0));
        enc.put_var(self.seq);
        self.snap.encode(enc);
    }
}

impl Decode for RankStats {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(RankStats {
            epoch: Epoch(var_u32(dec)?),
            seq: dec.get_var()?,
            snap: Snapshot::decode(dec)?,
        })
    }
}

/// A varint that must fit a `u32` id.
fn var_u32(dec: &mut Decoder<'_>) -> Result<u32> {
    u32::try_from(dec.get_var()?).map_err(|_| Error::codec("an id past u32"))
}

/// Telemetry in one cast: cumulative snapshots, each of which replaces the
/// previous one of its scope in every daemon's stats hub.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsCast {
    /// Ranks' snapshots (scope `"app<A>.r<R>"`), each one point of the
    /// hub's history: the flushing rank's first, then those handed to its
    /// daemon with a `Saved`.
    pub(crate) ranks: Vec<(AppId, Rank, RankStats)>,
    /// The shared infrastructure's (scope `"cluster"`), where the casting
    /// daemon has an infrastructure registry.
    pub(crate) cluster: Option<Snapshot>,
}

/// On the wire a scope is its ids, in varints.
impl Encode for StatsCast {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_var(self.ranks.len() as u64);
        for (app, rank, stats) in &self.ranks {
            enc.put_var(u64::from(app.0));
            enc.put_var(u64::from(rank.0));
            stats.encode(enc);
        }
        self.cluster.encode(enc);
    }
}

impl Decode for StatsCast {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        // Four varints and a snapshot's three counts.
        let n = dec.get_len(7)?;
        let mut ranks = Vec::with_capacity(n);
        for _ in 0..n {
            let (app, rank) = (AppId(var_u32(dec)?), Rank(var_u32(dec)?));
            ranks.push((app, rank, RankStats::decode(dec)?));
        }
        let cluster = Option::<Snapshot>::decode(dec)?;
        Ok(StatsCast { ranks, cluster })
    }
}

/// Entries a decoder reserves room for before it has seen them: a lying
/// count costs a truncation error, not an allocation.
const BATCH_RESERVE: u32 = 4;

impl WireCast {
    /// `casts`, which are not none, as one cast: the cast itself if there
    /// is one, a batch if there are more.
    pub fn batch(casts: Vec<WireCast>) -> WireCast {
        match <[WireCast; 1]>::try_from(casts) {
            Ok([one]) => one,
            Err(casts) => WireCast::Batch(casts),
        }
    }

    /// The casts this one carries: a batch's entries, or itself.
    pub fn entries(&self) -> &[WireCast] {
        match self {
            WireCast::Batch(casts) => casts,
            wc => std::slice::from_ref(wc),
        }
    }

    /// [`entries`](Self::entries), by value.
    pub fn into_entries(self) -> Vec<WireCast> {
        match self {
            WireCast::Batch(casts) => casts,
            wc => vec![wc],
        }
    }

    /// Decode the rest of a cast tagged `tag` that is not a batch.
    fn decode_plain(tag: u8, dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match tag {
            0 => WireCast::Cfg(CfgCmd::decode(dec)?),
            1 => WireCast::Mcast(AppRelay::decode(dec)?),
            2 => WireCast::Stats(StatsCast::decode(dec)?),
            3 => WireCast::Event {
                origin: NodeId::decode(dec)?,
                vt: VirtualTime::from_nanos(dec.get_u64()?),
                kind: starfish_trace::event::EventKind::decode(dec)?,
            },
            T_BATCH => return Err(Error::codec("a batch inside a batch")),
            t => return Err(Error::codec(format!("unknown WireCast tag {t}"))),
        })
    }
}

impl Encode for WireCast {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            WireCast::Cfg(c) => {
                enc.put_u8(0);
                c.encode(enc);
            }
            WireCast::Mcast(r) => {
                enc.put_u8(1);
                r.encode(enc);
            }
            WireCast::Stats(stats) => {
                enc.put_u8(2);
                stats.encode(enc);
            }
            WireCast::Event { origin, vt, kind } => {
                enc.put_u8(3);
                origin.encode(enc);
                enc.put_u64(vt.as_nanos());
                kind.encode(enc);
            }
            WireCast::Batch(casts) => {
                enc.put_u8(T_BATCH);
                enc.put_u32(casts.len() as u32);
                casts.iter().for_each(|wc| wc.encode(enc));
            }
        }
    }
}

impl Decode for WireCast {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let tag = dec.get_u8()?;
        if tag != T_BATCH {
            return WireCast::decode_plain(tag, dec);
        }
        let n = dec.get_u32()?;
        if n == 0 {
            return Err(Error::codec("an empty batch"));
        }
        let mut casts = Vec::with_capacity(n.min(BATCH_RESERVE) as usize);
        for _ in 0..n {
            let tag = dec.get_u8()?;
            casts.push(WireCast::decode_plain(tag, dec)?);
        }
        Ok(WireCast::Batch(casts))
    }
}

/// Targeted daemon-to-daemon payloads (ensemble point-to-point).
#[derive(Debug, Clone, PartialEq)]
pub enum P2pMsg {
    /// A relayed application message addressed to one rank, with the
    /// sender's telemetry snapshot when it is a `Saved` (see
    /// [`ProcUp::SendTo`]).
    Relay {
        relay: AppRelay,
        stats: Option<RankStats>,
    },
    /// State transfer: the serialized replicated configuration at the
    /// point of the joiner's `NeedState { req }` cast.
    State { req: u32, config: Bytes },
}

impl Encode for P2pMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            P2pMsg::Relay { relay, stats: None } => {
                enc.put_u8(0);
                relay.encode(enc);
            }
            P2pMsg::Relay {
                relay,
                stats: Some(stats),
            } => {
                enc.put_u8(2);
                relay.encode(enc);
                stats.encode(enc);
            }
            P2pMsg::State { req, config } => {
                enc.put_u8(1);
                enc.put_u32(*req);
                config.encode(enc);
            }
        }
    }
}

impl Decode for P2pMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.get_u8()? {
            0 => P2pMsg::Relay {
                relay: AppRelay::decode(dec)?,
                stats: None,
            },
            1 => P2pMsg::State {
                req: dec.get_u32()?,
                config: Bytes::decode(dec)?,
            },
            2 => P2pMsg::Relay {
                relay: AppRelay::decode(dec)?,
                stats: Some(RankStats::decode(dec)?),
            },
            t => return Err(Error::codec(format!("unknown P2pMsg tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_util::codec::roundtrip;

    fn spec() -> AppSpec {
        AppSpec {
            name: "jacobi".into(),
            size: 8,
            policy: FtPolicy::NotifyView,
            level: LevelKind::Native,
            proto: CkptProto::Independent,
            backend: CkptBackend::Replica { k: 3 },
            owner: "bob".into(),
            token: 99,
        }
    }

    /// A relayed `Stop` of app 1 from rank 0, sent at 2 ms: app, kind,
    /// sender, destination and body length a byte each, the 9-byte body,
    /// and its origin stamp in 3 bytes.
    #[test]
    fn a_relay_frames_its_ids_and_stamp_in_varints() {
        let stop = AppRelay {
            app: AppId(1),
            kind: RelayKind::CheckpointRestart,
            from: Rank(0),
            to: None,
            body: Bytes::from_static(&[1, 0, 0, 0, 0, 0, 0, 0, 1]),
            vt: VirtualTime::from_millis(2),
        };
        assert_eq!(stop.encode_to_bytes().len(), 17);
        assert_eq!(roundtrip(&stop).unwrap(), stop);
        let saved = AppRelay {
            to: Some(Rank(0)),
            ..stop
        };
        assert_eq!(roundtrip(&saved).unwrap(), saved);
        let mut past = Encoder::new();
        past.put_var(1);
        past.put_u8(1);
        past.put_var(0);
        past.put_var(u64::from(u32::MAX) + 2);
        assert!(AppRelay::decode_from_bytes(&past.into_vec()).is_err());
    }

    #[test]
    fn appspec_backend_bytes_roundtrip_and_reject_bad_tags() {
        for b in [
            CkptBackend::Disk,
            CkptBackend::Replica { k: 1 },
            CkptBackend::Replica { k: 2 },
        ] {
            let cmd = CfgCmd::Submit {
                spec: AppSpec {
                    backend: b,
                    ..spec()
                },
            };
            assert_eq!(roundtrip(&cmd).unwrap(), cmd);
        }
        let mut enc = starfish_util::codec::Encoder::new();
        enc.put_u8(9); // unknown backend tag
        enc.put_u8(0);
        let bytes = enc.into_bytes();
        let mut dec = starfish_util::codec::Decoder::new(&bytes);
        assert!(decode_backend(&mut dec).is_err());
        // Replica with k = 0 is meaningless on the wire.
        let mut enc = starfish_util::codec::Encoder::new();
        enc.put_u8(1);
        enc.put_u8(0);
        let bytes = enc.into_bytes();
        let mut dec = starfish_util::codec::Decoder::new(&bytes);
        assert!(decode_backend(&mut dec).is_err());
    }

    #[test]
    fn cfgcmd_roundtrip_all_variants() {
        let cmds = vec![
            CfgCmd::AddNode {
                node: NodeId(1),
                arch_index: 5,
            },
            CfgCmd::RemoveNode { node: NodeId(1) },
            CfgCmd::DisableNode { node: NodeId(2) },
            CfgCmd::EnableNode { node: NodeId(2) },
            CfgCmd::NodeDead { node: NodeId(3) },
            CfgCmd::SetParam {
                key: "k".into(),
                value: "v".into(),
            },
            CfgCmd::Submit { spec: spec() },
            CfgCmd::Suspend { app: AppId(4) },
            CfgCmd::ResumeApp { app: AppId(4) },
            CfgCmd::Delete { app: AppId(4) },
            CfgCmd::RankDone {
                app: AppId(4),
                rank: Rank(2),
            },
            CfgCmd::TriggerCkpt { app: AppId(4) },
            CfgCmd::RestartApp {
                app: AppId(4),
                line: vec![3, 3, 2],
            },
            CfgCmd::NeedState {
                node: NodeId(5),
                req: 2,
            },
            CfgCmd::Migrate {
                app: AppId(4),
                rank: Rank(1),
                node: NodeId(2),
                line: vec![1, 1, 1],
            },
        ];
        for c in cmds {
            assert_eq!(roundtrip(&c).unwrap(), c);
        }
        assert!(CfgCmd::decode_from_bytes(&[0xEE]).is_err());
    }

    #[test]
    fn wirecast_roundtrip() {
        let w = WireCast::Cfg(CfgCmd::TriggerCkpt { app: AppId(1) });
        assert_eq!(roundtrip(&w).unwrap(), w);
        let w = WireCast::Mcast(AppRelay {
            app: AppId(3),
            kind: RelayKind::CheckpointRestart,
            from: Rank(0),
            to: None,
            body: Bytes::from_static(b"stop"),
            vt: VirtualTime::from_micros(7),
        });
        assert_eq!(roundtrip(&w).unwrap(), w);
        for w in stats_casts() {
            assert_eq!(roundtrip(&w).unwrap(), w);
        }
        let w = WireCast::Event {
            origin: NodeId(1),
            vt: VirtualTime::from_nanos(42_000),
            kind: starfish_trace::event::EventKind::NodeSuspected {
                node: NodeId(2),
                silent_ns: 450_000_000,
            },
        };
        assert_eq!(roundtrip(&w).unwrap(), w);
    }

    /// Stats casts of no snapshot, a rank's, two ranks', and two ranks'
    /// with `"cluster"`'s.
    pub(super) fn stats_casts() -> Vec<WireCast> {
        let reg = starfish_telemetry::Registry::new();
        reg.inc(starfish_telemetry::metric::CKPT_ROUNDS);
        reg.record(starfish_telemetry::metric::CKPT_IMAGE_BYTES, 4096);
        let infra = starfish_telemetry::Registry::new();
        infra.inc(starfish_telemetry::metric::ENSEMBLE_CASTS);
        let stats = |epoch, seq| RankStats {
            epoch: Epoch(epoch),
            seq,
            snap: reg.snapshot(),
        };
        let ranks = [
            (AppId(1), Rank(0), stats(0, 1)),
            (AppId(1), Rank(300), stats(2, 700)),
        ];
        let cast = |n: usize, cluster: Option<Snapshot>| {
            let ranks = ranks[..n].to_vec();
            WireCast::Stats(StatsCast { ranks, cluster })
        };
        vec![
            cast(0, None),
            cast(1, None),
            cast(2, None),
            cast(2, Some(infra.snapshot())),
        ]
    }

    #[test]
    fn stats_casts_roundtrip_and_a_lying_count_or_a_cut_is_an_error() {
        for wc in stats_casts() {
            assert_eq!(roundtrip(&wc).unwrap(), wc);
        }
        let mut enc = starfish_util::codec::Encoder::new();
        enc.put_u8(2);
        enc.put_var(u64::from(u32::MAX));
        enc.put_raw(&[1; 64]);
        let lying = enc.into_bytes();
        assert!(WireCast::decode_from_bytes(&lying).is_err());
        let whole = stats_casts().pop().unwrap().encode_to_bytes();
        for cut in 0..whole.len() {
            assert!(WireCast::decode_from_bytes(&whole[..cut]).is_err(), "{cut}");
        }
    }

    /// A batch of one cast of each kind but a batch, in stream order.
    pub(super) fn batched() -> WireCast {
        let event = WireCast::Event {
            origin: NodeId(1),
            vt: VirtualTime::from_nanos(42_000),
            kind: starfish_trace::event::EventKind::CkptCommit {
                app: AppId(1),
                rank: Rank(0),
                index: 3,
            },
        };
        let mcast = WireCast::Mcast(AppRelay {
            app: AppId(1),
            kind: RelayKind::CheckpointRestart,
            from: Rank(0),
            to: None,
            body: Bytes::from_static(b"resume"),
            vt: VirtualTime::from_micros(7),
        });
        let dead = WireCast::Cfg(CfgCmd::NodeDead { node: NodeId(2) });
        let stats = stats_casts().pop().unwrap();
        WireCast::Batch(vec![mcast, event, stats, dead])
    }

    #[test]
    fn a_batch_roundtrips_in_order_and_one_cast_is_no_batch() {
        let batch = batched();
        assert_eq!(roundtrip(&batch).unwrap(), batch);
        let entries = batch.entries().to_vec();
        assert_eq!(WireCast::batch(entries.clone()), batch);
        assert_eq!(batch.into_entries(), entries);
        let one = entries[3].clone();
        assert_eq!(WireCast::batch(vec![one.clone()]), one);
        assert_eq!(one.entries(), std::slice::from_ref(&one));
        assert_eq!(one.clone().into_entries(), vec![one]);
    }

    #[test]
    fn an_empty_nested_lying_or_truncated_batch_is_an_error() {
        let mut enc = starfish_util::codec::Encoder::new();
        enc.put_u8(T_BATCH);
        enc.put_u32(0);
        let empty = enc.into_bytes();
        assert!(WireCast::decode_from_bytes(&empty).is_err(), "empty");
        let nested = WireCast::Batch(vec![batched()]).encode_to_bytes();
        assert!(WireCast::decode_from_bytes(&nested).is_err(), "nested");
        let whole = batched().encode_to_bytes();
        let mut lying = whole.to_vec();
        lying[1..5].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(WireCast::decode_from_bytes(&lying).is_err(), "lying");
        for cut in 0..whole.len() {
            assert!(WireCast::decode_from_bytes(&whole[..cut]).is_err(), "{cut}");
        }
    }

    #[test]
    fn p2pmsg_roundtrip() {
        let m = P2pMsg::State {
            req: 1,
            config: Bytes::from_static(b"cfg"),
        };
        assert_eq!(roundtrip(&m).unwrap(), m);
        let relay = AppRelay {
            app: AppId(1),
            kind: RelayKind::Coordination,
            from: Rank(0),
            to: Some(Rank(1)),
            body: Bytes::from_static(b"x"),
            vt: VirtualTime::from_micros(7),
        };
        let m = P2pMsg::Relay {
            relay: relay.clone(),
            stats: None,
        };
        assert_eq!(roundtrip(&m).unwrap(), m);
        // A relay without telemetry is the relay alone behind its tag.
        assert_eq!(m.encode_to_bytes()[1..], relay.encode_to_bytes()[..]);
        let reg = starfish_telemetry::Registry::new();
        reg.inc(starfish_telemetry::metric::CKPT_ROUNDS);
        let m = P2pMsg::Relay {
            relay,
            stats: Some(RankStats {
                epoch: Epoch(1),
                seq: 3,
                snap: reg.snapshot(),
            }),
        };
        assert_eq!(roundtrip(&m).unwrap(), m);
    }

    #[test]
    fn apprelay_roundtrip() {
        let r = AppRelay {
            app: AppId(3),
            kind: RelayKind::CheckpointRestart,
            from: Rank(1),
            to: Some(Rank(2)),
            body: Bytes::from_static(b"cr"),
            vt: VirtualTime::from_micros(7),
        };
        assert_eq!(roundtrip(&r).unwrap(), r);
        let r2 = AppRelay {
            to: None,
            kind: RelayKind::Coordination,
            ..r
        };
        assert_eq!(roundtrip(&r2).unwrap(), r2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use starfish_telemetry::HistSnap;
    use starfish_util::codec::{Decode, Encode};

    /// `s` as its merge into an empty snapshot, zero entries left out: two
    /// snapshots are merge-equal when this is equal.
    fn normal(s: &Snapshot) -> Snapshot {
        let mut n = Snapshot::default();
        n.merge(s);
        n.counters.retain(|&(_, v)| v != 0);
        n.gauges.retain(|&(_, v)| v != 0);
        n.hists.retain(|(_, h)| h.count != 0);
        for (_, h) in &mut n.hists {
            h.buckets.retain(|&(_, c)| c != 0);
        }
        n
    }

    proptest! {
        /// Arbitrary submissions round-trip (names/owners are user input).
        #[test]
        fn appspec_roundtrip(
            name in ".{0,32}",
            size in 1u32..512,
            policy in 0u8..3,
            level in 0u8..2,
            proto in 0u8..3,
            replica_k in 0u8..8,
            owner in "[a-z]{0,12}",
            token in any::<u64>(),
        ) {
            let spec = AppSpec {
                name,
                size,
                policy: decode_policy(policy).unwrap(),
                level: decode_level(level).unwrap(),
                proto: decode_proto(proto).unwrap(),
                backend: match replica_k {
                    0 => CkptBackend::Disk,
                    k => CkptBackend::Replica { k },
                },
                owner,
                token,
            };
            let cmd = CfgCmd::Submit { spec };
            let bytes = cmd.encode_to_bytes();
            prop_assert_eq!(CfgCmd::decode_from_bytes(&bytes).unwrap(), cmd);
        }

        /// Corrupt bytes never panic the decoder.
        #[test]
        fn decode_never_panics(data in proptest::collection::vec(any::<u8>(), 0..128)) {
            let _ = CfgCmd::decode_from_bytes(&data);
            let _ = WireCast::decode_from_bytes(&data);
            let _ = P2pMsg::decode_from_bytes(&data);
            let _ = AppRelay::decode_from_bytes(&data);
            // A stats cast that claims u32::MAX snapshots, whatever follows.
            let mut lying = vec![2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F];
            lying.extend_from_slice(&data);
            prop_assert!(WireCast::decode_from_bytes(&lying).is_err());
        }

        /// A cut batch is an error, and no flipped bit of a real one panics
        /// the decoder.
        #[test]
        fn a_cut_or_flipped_batch_never_panics(
            cut in any::<usize>(),
            pos in any::<usize>(),
            bit in 0u8..8,
        ) {
            let whole = super::tests::batched().encode_to_bytes().to_vec();
            let cut = cut % whole.len();
            prop_assert!(WireCast::decode_from_bytes(&whole[..cut]).is_err());
            let mut flipped = whole.clone();
            flipped[pos % whole.len()] ^= 1 << bit;
            let _ = WireCast::decode_from_bytes(&flipped);
        }

        /// Snapshots of any shape survive the codec merge-equal, alone and in
        /// the relay that carries one; every cut of that relay is an error,
        /// and no flipped bit or lying count panics a decoder or gets past
        /// the bytes that follow it.
        #[test]
        fn a_relayed_snapshot_roundtrips_and_damage_never_panics(
            counters in proptest::collection::vec((0u16..80, 0u64..1 << 56), 0..12),
            gauges in proptest::collection::vec((0u16..80, -(1i64 << 56)..1 << 56), 0..6),
            hists in proptest::collection::vec(
                (0u16..80, proptest::collection::vec((0u8..=64, 0u64..1 << 40), 0..8),
                 0u64..1 << 40, 0u64..1 << 40),
                0..6,
            ),
            cut in any::<usize>(),
            pos in any::<usize>(),
            bit in 0u8..8,
            count in any::<u64>(),
            epoch in any::<u32>(),
            seq in any::<u64>(),
        ) {
            let hists = hists.into_iter().map(|(id, buckets, sum, max)| {
                // Ascending and one per index, as a histogram's are.
                let buckets: std::collections::BTreeMap<u8, u64> = buckets.into_iter().collect();
                let buckets: Vec<(u8, u64)> = buckets.into_iter().collect();
                let count: u64 = buckets.iter().map(|&(_, n)| n).sum();
                let (sum, max) = if count == 0 { (0, 0) } else { (sum, max) };
                (id, HistSnap { count, sum, max, buckets })
            });
            let snap = Snapshot { counters, gauges, hists: hists.collect() };
            let bytes = snap.encode_to_bytes();
            prop_assert_eq!(normal(&Snapshot::decode_from_bytes(&bytes).unwrap()), normal(&snap));
            let relay = AppRelay {
                app: AppId(7),
                kind: RelayKind::CheckpointRestart,
                from: Rank(1),
                to: Some(Rank(0)),
                body: Bytes::from_static(b"saved"),
                vt: VirtualTime::from_micros(7),
            };
            let stats = RankStats { epoch: Epoch(epoch), seq, snap: snap.clone() };
            let whole = P2pMsg::Relay { relay: relay.clone(), stats: Some(stats) }
                .encode_to_bytes()
                .to_vec();
            match P2pMsg::decode_from_bytes(&whole).unwrap() {
                P2pMsg::Relay { relay: got, stats: Some(stats) } => {
                    prop_assert_eq!(got, relay);
                    prop_assert_eq!(stats.key(), (Epoch(epoch), seq));
                    prop_assert_eq!(normal(&stats.snap), normal(&snap));
                }
                other => prop_assert!(false, "{other:?}"),
            }
            prop_assert!(P2pMsg::decode_from_bytes(&whole[..cut % whole.len()]).is_err());
            let mut flipped = whole.clone();
            flipped[pos % whole.len()] ^= 1 << bit;
            let _ = P2pMsg::decode_from_bytes(&flipped);
            // A lying count in front of a real snapshot's bytes: as the
            // snapshot's counters, a histogram's buckets, a stats cast's
            // ranks.
            let mut enc = Encoder::new();
            enc.put_var(count);
            enc.put_raw(&bytes);
            let lying = enc.into_vec();
            let overstated = count > bytes.len() as u64;
            let got = Snapshot::decode_from_bytes(&lying);
            prop_assert!(!overstated || got.is_err());
            let mut enc = Encoder::new();
            enc.put_var(0);
            enc.put_var(0);
            enc.put_raw(&lying);
            let got = HistSnap::decode_from_bytes(&enc.into_vec());
            prop_assert!(!overstated || got.is_err());
            let got = StatsCast::decode_from_bytes(&lying);
            prop_assert!(!overstated || got.is_err());
        }

        /// A batch count that overstates what follows is an error, and no
        /// count panics the decoder or sizes an allocation from the wire.
        #[test]
        fn lying_batch_counts_never_panic(
            small in 0u32..40,
            huge in any::<u32>(),
            tail in proptest::collection::vec(any::<u8>(), 0..96),
        ) {
            for n in [small, huge, u32::MAX] {
                let mut enc = Encoder::new();
                enc.put_u8(T_BATCH);
                enc.put_u32(n);
                let mut frame = enc.into_vec();
                frame.extend_from_slice(&tail);
                let got = WireCast::decode_from_bytes(&frame);
                // Every entry takes at least its tag byte.
                if n as usize > tail.len() {
                    prop_assert!(got.is_err(), "{n} entries in {} bytes", tail.len());
                }
            }
        }
    }
}
