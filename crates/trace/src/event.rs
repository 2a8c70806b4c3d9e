//! The structured cluster event vocabulary.
//!
//! Events travel between daemons over the totally ordered cast path (a
//! `WireCast::Event` frame) or are derived deterministically from the ordered
//! configuration stream itself, so every daemon's flight recorder holds the
//! same events in the same order with the same sequence numbers. The codec
//! is the same portable big-endian format as the rest of the control plane.

// The panic surface, held as in the audited crates although the rest of
// `trace` is not: each surviving site carries an `#[expect]` with its
// reason (VERIFICATION.md §2).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo)]
#![deny(clippy::unimplemented, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

use starfish_util::codec::{Decode, Decoder, Encode, Encoder};
use starfish_util::{AppId, Epoch, Error, NodeId, Rank, Result, VirtualTime};

/// What happened. Payload fields carry the facts a forensic consumer needs;
/// everything else (who observed it, when) lives on [`ClusterEvent`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// A node's daemon self-announced on the cast stream and became
    /// schedulable (`live()`), as opposed to a bare admin registration.
    NodeUp { node: NodeId },
    /// A failure detector stopped hearing heartbeats from `node`.
    /// `silent_ns` is how long the node had been silent when suspicion
    /// fired (wall-clock in the live cluster, virtual in the chaos model).
    NodeSuspected { node: NodeId, silent_ns: u64 },
    /// The membership layer declared `node` dead; it is excluded from
    /// placement and the replicated configuration records it gone.
    NodeDead { node: NodeId },
    /// A new membership view was installed by the coordinator.
    ViewChange { view: u64, members: Vec<NodeId> },
    /// A coordinated checkpoint round was triggered for `app`.
    CkptRoundBegin { app: AppId },
    /// Rank `rank` of `app` committed checkpoint `index`.
    CkptCommit { app: AppId, rank: Rank, index: u64 },
    /// Recovery of `app` started: these nodes died and took ranks with them.
    RecoveryBegin { app: AppId, dead: Vec<NodeId> },
    /// The recovery line chosen for `app`: per-rank checkpoint indices
    /// (the paper's consistent line; 0 = from the beginning).
    RecoveryRestore {
        app: AppId,
        epoch: Epoch,
        line: Vec<u64>,
    },
    /// A replacement incarnation of `rank` was spawned on `node`.
    RecoveryRespawn {
        app: AppId,
        rank: Rank,
        node: NodeId,
    },
    /// All replacement ranks of the recovery are spawned; the app is
    /// running again under `epoch`.
    RecoveryComplete { app: AppId, epoch: Epoch },
    /// A fault was injected deliberately (chaos driver, admin kill).
    FaultInjected { desc: String },
}

const T_NODE_UP: u8 = 1;
const T_NODE_SUSPECTED: u8 = 2;
const T_NODE_DEAD: u8 = 3;
const T_VIEW_CHANGE: u8 = 4;
const T_CKPT_ROUND_BEGIN: u8 = 5;
const T_CKPT_COMMIT: u8 = 6;
const T_RECOVERY_BEGIN: u8 = 7;
const T_RECOVERY_RESTORE: u8 = 8;
const T_RECOVERY_RESPAWN: u8 = 9;
const T_RECOVERY_COMPLETE: u8 = 10;
const T_FAULT_INJECTED: u8 = 11;

impl EventKind {
    /// Stable kebab-case label, used for `EVENTS SUBSCRIBE <filter>` prefix
    /// matching and as the `kind` field of postmortem JSON.
    pub fn label(&self) -> &'static str {
        match self {
            EventKind::NodeUp { .. } => "node-up",
            EventKind::NodeSuspected { .. } => "node-suspected",
            EventKind::NodeDead { .. } => "node-dead",
            EventKind::ViewChange { .. } => "view-change",
            EventKind::CkptRoundBegin { .. } => "ckpt-begin",
            EventKind::CkptCommit { .. } => "ckpt-commit",
            EventKind::RecoveryBegin { .. } => "recovery-begin",
            EventKind::RecoveryRestore { .. } => "recovery-restore",
            EventKind::RecoveryRespawn { .. } => "recovery-respawn",
            EventKind::RecoveryComplete { .. } => "recovery-complete",
            EventKind::FaultInjected { .. } => "fault-injected",
        }
    }

    /// Human-readable detail portion (no label, no timestamps).
    pub(crate) fn detail(&self) -> String {
        match self {
            EventKind::NodeUp { node } => format!("{node}"),
            EventKind::NodeSuspected { node, silent_ns } => {
                format!("{node} silent={silent_ns}ns")
            }
            EventKind::NodeDead { node } => format!("{node}"),
            EventKind::ViewChange { view, members } => {
                let m: Vec<String> = members.iter().map(|n| n.to_string()).collect();
                format!("v{view} [{}]", m.join(" "))
            }
            EventKind::CkptRoundBegin { app } => format!("{app}"),
            EventKind::CkptCommit { app, rank, index } => {
                format!("{app} {rank} index={index}")
            }
            EventKind::RecoveryBegin { app, dead } => {
                let d: Vec<String> = dead.iter().map(|n| n.to_string()).collect();
                format!("{app} dead=[{}]", d.join(" "))
            }
            EventKind::RecoveryRestore { app, epoch, line } => {
                let l: Vec<String> = line.iter().map(|i| i.to_string()).collect();
                format!("{app} {epoch} line=[{}]", l.join(" "))
            }
            EventKind::RecoveryRespawn { app, rank, node } => {
                format!("{app} {rank} on {node}")
            }
            EventKind::RecoveryComplete { app, epoch } => format!("{app} {epoch}"),
            EventKind::FaultInjected { desc } => desc.clone(),
        }
    }
}

impl Encode for EventKind {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            EventKind::NodeUp { node } => {
                enc.put_u8(T_NODE_UP);
                node.encode(enc);
            }
            EventKind::NodeSuspected { node, silent_ns } => {
                enc.put_u8(T_NODE_SUSPECTED);
                node.encode(enc);
                enc.put_u64(*silent_ns);
            }
            EventKind::NodeDead { node } => {
                enc.put_u8(T_NODE_DEAD);
                node.encode(enc);
            }
            EventKind::ViewChange { view, members } => {
                enc.put_u8(T_VIEW_CHANGE);
                enc.put_u64(*view);
                members.encode(enc);
            }
            EventKind::CkptRoundBegin { app } => {
                enc.put_u8(T_CKPT_ROUND_BEGIN);
                app.encode(enc);
            }
            EventKind::CkptCommit { app, rank, index } => {
                enc.put_u8(T_CKPT_COMMIT);
                app.encode(enc);
                rank.encode(enc);
                enc.put_u64(*index);
            }
            EventKind::RecoveryBegin { app, dead } => {
                enc.put_u8(T_RECOVERY_BEGIN);
                app.encode(enc);
                dead.encode(enc);
            }
            EventKind::RecoveryRestore { app, epoch, line } => {
                enc.put_u8(T_RECOVERY_RESTORE);
                app.encode(enc);
                epoch.encode(enc);
                line.encode(enc);
            }
            EventKind::RecoveryRespawn { app, rank, node } => {
                enc.put_u8(T_RECOVERY_RESPAWN);
                app.encode(enc);
                rank.encode(enc);
                node.encode(enc);
            }
            EventKind::RecoveryComplete { app, epoch } => {
                enc.put_u8(T_RECOVERY_COMPLETE);
                app.encode(enc);
                epoch.encode(enc);
            }
            EventKind::FaultInjected { desc } => {
                enc.put_u8(T_FAULT_INJECTED);
                enc.put_str(desc);
            }
        }
    }
}

impl Decode for EventKind {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.get_u8()? {
            T_NODE_UP => EventKind::NodeUp {
                node: NodeId::decode(dec)?,
            },
            T_NODE_SUSPECTED => EventKind::NodeSuspected {
                node: NodeId::decode(dec)?,
                silent_ns: dec.get_u64()?,
            },
            T_NODE_DEAD => EventKind::NodeDead {
                node: NodeId::decode(dec)?,
            },
            T_VIEW_CHANGE => EventKind::ViewChange {
                view: dec.get_u64()?,
                members: Vec::<NodeId>::decode(dec)?,
            },
            T_CKPT_ROUND_BEGIN => EventKind::CkptRoundBegin {
                app: AppId::decode(dec)?,
            },
            T_CKPT_COMMIT => EventKind::CkptCommit {
                app: AppId::decode(dec)?,
                rank: Rank::decode(dec)?,
                index: dec.get_u64()?,
            },
            T_RECOVERY_BEGIN => EventKind::RecoveryBegin {
                app: AppId::decode(dec)?,
                dead: Vec::<NodeId>::decode(dec)?,
            },
            T_RECOVERY_RESTORE => EventKind::RecoveryRestore {
                app: AppId::decode(dec)?,
                epoch: Epoch::decode(dec)?,
                line: Vec::<u64>::decode(dec)?,
            },
            T_RECOVERY_RESPAWN => EventKind::RecoveryRespawn {
                app: AppId::decode(dec)?,
                rank: Rank::decode(dec)?,
                node: NodeId::decode(dec)?,
            },
            T_RECOVERY_COMPLETE => EventKind::RecoveryComplete {
                app: AppId::decode(dec)?,
                epoch: Epoch::decode(dec)?,
            },
            T_FAULT_INJECTED => EventKind::FaultInjected {
                desc: dec.get_str()?,
            },
            t => return Err(Error::protocol(format!("bad EventKind tag {t}"))),
        })
    }
}

/// One sequenced cluster event: who observed/originated it (`origin`), the
/// publisher's virtual time, and its sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterEvent {
    /// Assigned by the recorder's event class: dense and strictly
    /// increasing, identical on every daemon for cast-carried and
    /// cast-derived events.
    pub seq: u64,
    /// The publisher's virtual time when the event was observed.
    pub vt: VirtualTime,
    /// The node that observed or originated the event.
    pub origin: NodeId,
    pub kind: EventKind,
}

impl ClusterEvent {
    /// One-line rendering for `EVENTS` output and subscription frames:
    /// `#seq @vt_ns origin label detail`.
    pub fn summary(&self) -> String {
        format!(
            "#{} @{} {} {} {}",
            self.seq,
            self.vt.as_nanos(),
            self.origin,
            self.kind.label(),
            self.kind.detail()
        )
    }
}

impl Encode for ClusterEvent {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.seq);
        enc.put_u64(self.vt.as_nanos());
        self.origin.encode(enc);
        self.kind.encode(enc);
    }
}

impl Decode for ClusterEvent {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(ClusterEvent {
            seq: dec.get_u64()?,
            vt: VirtualTime::from_nanos(dec.get_u64()?),
            origin: NodeId::decode(dec)?,
            kind: EventKind::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_util::codec::roundtrip;

    fn all_kinds() -> Vec<EventKind> {
        vec![
            EventKind::NodeUp { node: NodeId(3) },
            EventKind::NodeSuspected {
                node: NodeId(2),
                silent_ns: 450_000_000,
            },
            EventKind::NodeDead { node: NodeId(2) },
            EventKind::ViewChange {
                view: 7,
                members: vec![NodeId(0), NodeId(1), NodeId(3)],
            },
            EventKind::CkptRoundBegin { app: AppId(1) },
            EventKind::CkptCommit {
                app: AppId(1),
                rank: Rank(2),
                index: 4,
            },
            EventKind::RecoveryBegin {
                app: AppId(1),
                dead: vec![NodeId(2)],
            },
            EventKind::RecoveryRestore {
                app: AppId(1),
                epoch: Epoch(2),
                line: vec![4, 4, 3],
            },
            EventKind::RecoveryRespawn {
                app: AppId(1),
                rank: Rank(1),
                node: NodeId(0),
            },
            EventKind::RecoveryComplete {
                app: AppId(1),
                epoch: Epoch(2),
            },
            EventKind::FaultInjected {
                desc: "@3 crash n2".into(),
            },
        ]
    }

    #[test]
    fn every_kind_roundtrips() {
        for k in all_kinds() {
            assert_eq!(roundtrip(&k).unwrap(), k, "roundtrip {k:?}");
        }
    }

    #[test]
    fn cluster_event_roundtrips() {
        for (i, kind) in all_kinds().into_iter().enumerate() {
            let ev = ClusterEvent {
                seq: i as u64,
                vt: VirtualTime::from_nanos(1_000 * (i as u64 + 1)),
                origin: NodeId(i as u32 % 3),
                kind,
            };
            assert_eq!(roundtrip(&ev).unwrap(), ev);
        }
    }

    #[test]
    fn labels_are_stable_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for k in all_kinds() {
            assert!(seen.insert(k.label()), "duplicate label {}", k.label());
            assert!(!k.label().is_empty());
            assert!(k
                .label()
                .chars()
                .all(|c| c.is_ascii_lowercase() || c == '-'));
        }
    }

    #[test]
    fn summary_mentions_seq_label_and_detail() {
        let ev = ClusterEvent {
            seq: 12,
            vt: VirtualTime::from_nanos(5000),
            origin: NodeId(1),
            kind: EventKind::NodeDead { node: NodeId(2) },
        };
        let s = ev.summary();
        assert!(s.contains("#12"), "{s}");
        assert!(s.contains("@5000"), "{s}");
        assert!(s.contains("node-dead"), "{s}");
        assert!(s.contains("n2"), "{s}");
    }

    #[test]
    fn decode_rejects_bad_tag() {
        let mut enc = Encoder::new();
        enc.put_u8(200);
        let bytes = enc.into_vec();
        assert!(EventKind::decode(&mut Decoder::new(&bytes)).is_err());
    }

    /// Every kind in the frame `WireCast::Event` carries between daemons.
    fn frames() -> Vec<Vec<u8>> {
        all_kinds()
            .into_iter()
            .map(|kind| {
                let (seq, vt, origin) = (9, VirtualTime::from_nanos(77), NodeId(1));
                ClusterEvent {
                    seq,
                    vt,
                    origin,
                    kind,
                }
                .encode_to_bytes()
                .to_vec()
            })
            .collect()
    }

    #[test]
    fn every_truncation_is_an_error() {
        for frame in frames() {
            for cut in 0..frame.len() {
                let got = ClusterEvent::decode_from_bytes(&frame[..cut]);
                assert!(got.is_err(), "{cut} of {frame:?} decoded: {got:?}");
            }
        }
    }

    /// A frame whose `Vec` length prefix (`ViewChange.members`,
    /// `RecoveryRestore.line`) says `len`, followed by `tail`.
    fn lying(restore: bool, len: u32, tail: &[u8]) -> Vec<u8> {
        let mut enc = Encoder::new();
        if restore {
            enc.put_u8(T_RECOVERY_RESTORE);
            AppId(1).encode(&mut enc);
            Epoch(2).encode(&mut enc);
        } else {
            enc.put_u8(T_VIEW_CHANGE);
            enc.put_u64(7);
        }
        enc.put_u32(len);
        let mut bytes = enc.into_vec();
        bytes.extend_from_slice(tail);
        bytes
    }

    proptest::proptest! {
        /// Decoding never panics, whatever bit of a real frame is flipped.
        #[test]
        fn decode_never_panics_on_a_flipped_bit(
            k in 0usize..11,
            pos in proptest::prelude::any::<usize>(),
            bit in 0u8..8,
        ) {
            let mut frame = frames().swap_remove(k);
            let at = pos % frame.len();
            frame[at] ^= 1 << bit;
            let _ = ClusterEvent::decode_from_bytes(&frame);
        }

        /// A `Vec` length that overstates what follows is an error, and no
        /// length panics the decoder or sizes an allocation from the wire.
        #[test]
        fn lying_vec_lengths_never_panic(
            small in 0u32..40,
            huge in proptest::prelude::any::<u32>(),
            tail in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..96),
        ) {
            for (restore, width) in [(false, 4), (true, 8)] {
                for len in [small, huge, u32::MAX] {
                    let got = EventKind::decode_from_bytes(&lying(restore, len, &tail));
                    if len as usize * width > tail.len() {
                        proptest::prop_assert!(got.is_err(), "{len} over {} bytes", tail.len());
                    }
                }
            }
        }
    }
}
