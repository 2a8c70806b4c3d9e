//! Daemon message types: the replicated command stream and the local
//! daemon ↔ application-process protocol (paper §2.3, Table 1).

use bytes::Bytes;

use starfish_checkpoint::backend::CkptBackend;
use starfish_lwgroups::LwView;
use starfish_telemetry::Snapshot;
use starfish_util::codec::{Decode, Decoder, Encode, Encoder};
use starfish_util::trace::MsgClass;
use starfish_util::{AppId, Epoch, Error, NodeId, Rank, Result, VirtualTime};

use crate::config::{AppSpec, CkptProto, FtPolicy, LevelKind};

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
    /// in the total order defines the snapshot point, and the view
    /// coordinator responds with a [`P2pMsg::State`] snapshot.
    NeedState {
        node: NodeId,
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
            CfgCmd::NeedState { node } => {
                enc.put_u8(T_NEEDSTATE);
                node.encode(enc);
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
    pub fn class(self) -> MsgClass {
        match self {
            RelayKind::Coordination => MsgClass::Coordination,
            RelayKind::CheckpointRestart => MsgClass::CheckpointRestart,
        }
    }
}

/// Envelope of an application message relayed inside a lightweight group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppRelay {
    pub app: AppId,
    pub kind: RelayKind,
    pub from: Rank,
    /// Specific destination rank, or None for a lightweight-group multicast.
    pub to: Option<Rank>,
    pub body: Bytes,
}

impl Encode for AppRelay {
    fn encode(&self, enc: &mut Encoder) {
        self.app.encode(enc);
        enc.put_u8(match self.kind {
            RelayKind::Coordination => 0,
            RelayKind::CheckpointRestart => 1,
        });
        self.from.encode(enc);
        self.to.map(|r| r.0).encode(enc);
        self.body.encode(enc);
    }
}

impl Decode for AppRelay {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(AppRelay {
            app: AppId::decode(dec)?,
            kind: match dec.get_u8()? {
                0 => RelayKind::Coordination,
                1 => RelayKind::CheckpointRestart,
                b => return Err(Error::codec(format!("bad relay kind {b}"))),
            },
            from: Rank::decode(dec)?,
            to: Option::<u32>::decode(dec)?.map(Rank),
            body: Bytes::decode(dec)?,
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
    /// Send a C/R message to a specific rank.
    SendTo {
        kind: RelayKind,
        to: Rank,
        body: Bytes,
        vt: VirtualTime,
    },
    /// This rank finished normally.
    Done { vt: VirtualTime },
    /// A checkpoint round committed locally at `index` (reported by the
    /// round coordinator for bookkeeping/GC).
    CkptCommitted { index: u64, vt: VirtualTime },
    /// Cumulative telemetry snapshot of this process's registry; the daemon
    /// casts it so every daemon's stats hub sees it.
    Stats { snap: Snapshot, vt: VirtualTime },
}

/// Top-level envelope of every daemon cast: either a replicated
/// configuration command or a lightweight-group operation.
#[derive(Debug, Clone, PartialEq)]
pub enum WireCast {
    Cfg(CfgCmd),
    Lw(starfish_lwgroups::LwMsg),
    /// Cumulative telemetry snapshot of one scope (replaces the previous
    /// snapshot of that scope in every daemon's stats hub).
    Stats {
        scope: String,
        snap: Snapshot,
    },
    /// A structured cluster event observed locally (suspicion, checkpoint
    /// commit, respawn, injected fault) published onto every daemon's event
    /// bus through the total order, so all buses agree on sequence.
    /// Events derivable from the `Cfg` stream itself are *not* cast — each
    /// daemon appends those deterministically while applying the command.
    Event {
        origin: NodeId,
        vt: VirtualTime,
        kind: starfish_events::EventKind,
    },
}

impl Encode for WireCast {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            WireCast::Cfg(c) => {
                enc.put_u8(0);
                c.encode(enc);
            }
            WireCast::Lw(l) => {
                enc.put_u8(1);
                l.encode(enc);
            }
            WireCast::Stats { scope, snap } => {
                enc.put_u8(2);
                enc.put_str(scope);
                snap.encode(enc);
            }
            WireCast::Event { origin, vt, kind } => {
                enc.put_u8(3);
                origin.encode(enc);
                enc.put_u64(vt.as_nanos());
                kind.encode(enc);
            }
        }
    }
}

impl Decode for WireCast {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.get_u8()? {
            0 => WireCast::Cfg(CfgCmd::decode(dec)?),
            1 => WireCast::Lw(starfish_lwgroups::LwMsg::decode(dec)?),
            2 => WireCast::Stats {
                scope: dec.get_str()?,
                snap: Snapshot::decode(dec)?,
            },
            3 => WireCast::Event {
                origin: NodeId::decode(dec)?,
                vt: VirtualTime::from_nanos(dec.get_u64()?),
                kind: starfish_events::EventKind::decode(dec)?,
            },
            t => return Err(Error::codec(format!("unknown WireCast tag {t}"))),
        })
    }
}

/// Targeted daemon-to-daemon payloads (ensemble point-to-point).
#[derive(Debug, Clone, PartialEq)]
pub enum P2pMsg {
    /// A relayed application message addressed to one rank.
    Relay(AppRelay),
    /// State transfer: the serialized replicated configuration, sent by the
    /// view coordinator in response to a `NeedState` cast.
    State(Bytes),
}

impl Encode for P2pMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            P2pMsg::Relay(r) => {
                enc.put_u8(0);
                r.encode(enc);
            }
            P2pMsg::State(b) => {
                enc.put_u8(1);
                b.encode(enc);
            }
        }
    }
}

impl Decode for P2pMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.get_u8()? {
            0 => P2pMsg::Relay(AppRelay::decode(dec)?),
            1 => P2pMsg::State(Bytes::decode(dec)?),
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
        let w = WireCast::Lw(starfish_lwgroups::LwMsg::Destroy {
            gid: starfish_util::GroupId(3),
        });
        assert_eq!(roundtrip(&w).unwrap(), w);
        let reg = starfish_telemetry::Registry::new();
        reg.inc(starfish_telemetry::metric::CKPT_ROUNDS);
        reg.record(starfish_telemetry::metric::CKPT_IMAGE_BYTES, 4096);
        let w = WireCast::Stats {
            scope: "app1.r0".into(),
            snap: reg.snapshot(),
        };
        assert_eq!(roundtrip(&w).unwrap(), w);
        let w = WireCast::Event {
            origin: NodeId(1),
            vt: VirtualTime::from_nanos(42_000),
            kind: starfish_events::EventKind::NodeSuspected {
                node: NodeId(2),
                silent_ns: 450_000_000,
            },
        };
        assert_eq!(roundtrip(&w).unwrap(), w);
    }

    #[test]
    fn p2pmsg_roundtrip() {
        let m = P2pMsg::State(Bytes::from_static(b"cfg"));
        assert_eq!(roundtrip(&m).unwrap(), m);
        let m = P2pMsg::Relay(AppRelay {
            app: AppId(1),
            kind: RelayKind::Coordination,
            from: Rank(0),
            to: Some(Rank(1)),
            body: Bytes::from_static(b"x"),
        });
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
    use starfish_util::codec::{Decode, Encode};

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
        }
    }
}
