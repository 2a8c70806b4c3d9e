//! Wire messages of the group-communication protocol.
//!
//! These are the paper's *control messages* (Table 1): exchanged solely by
//! daemons, never passed to application processes.

use bytes::Bytes;
use starfish_trace::TraceCtx;
use starfish_util::codec::{Decode, Decoder, Encode, Encoder};
use starfish_util::{Error, NodeId, Result, ViewId};

use crate::view::View;

/// One sequenced cast: `(seq, origin, payload)` plus the origin's trace
/// context ([`TraceCtx::NONE`] when the origin was not tracing), preserved
/// through sequencing, backfill and flush so the delivery event on every
/// member stitches back to the origin's send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqEntry {
    pub seq: u64,
    pub origin: NodeId,
    pub payload: Bytes,
    pub(crate) ctx: TraceCtx,
}

impl Encode for SeqEntry {
    fn encode(&self, enc: &mut Encoder) {
        self.seq.encode(enc);
        self.origin.encode(enc);
        self.payload.encode(enc);
        self.ctx.encode(enc);
    }
}

impl Decode for SeqEntry {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(SeqEntry {
            seq: u64::decode(dec)?,
            origin: NodeId::decode(dec)?,
            payload: Bytes::decode(dec)?,
            ctx: TraceCtx::decode(dec)?,
        })
    }
}

/// Group-communication protocol messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GcMsg {
    /// A node asks to join the group; sent to any member, forwarded to the
    /// coordinator.
    JoinReq { node: NodeId },
    /// A member asks to leave gracefully.
    LeaveReq { node: NodeId },
    /// A member submits a cast to the sequencer; `ctx` is the origin's
    /// trace context (carried through so every member's delivery event
    /// stitches back to the submitting daemon's send span).
    CastReq {
        origin: NodeId,
        payload: Bytes,
        ctx: TraceCtx,
    },
    /// The sequencer's ordered multicast.
    SeqCast {
        view: ViewId,
        seq: u64,
        origin: NodeId,
        payload: Bytes,
        ctx: TraceCtx,
    },
    /// Point-to-point application payload between members.
    P2p { payload: Bytes },
    /// Coordinator starts a flush for a proposed membership change.
    FlushReq {
        proposal: u64,
        new_members: Vec<NodeId>,
    },
    /// Member's flush response: everything it delivered in the closing view.
    FlushOk {
        proposal: u64,
        node: NodeId,
        delivered: Vec<SeqEntry>,
    },
    /// Coordinator installs the next view; `backfill` re-delivers closing
    /// view casts that some members missed.
    NewView { view: View, backfill: Vec<SeqEntry> },
    /// Liveness beacon (when heartbeat failure detection is enabled). Any
    /// received packet refreshes the sender's liveness; heartbeats exist so
    /// silence is distinguishable from death.
    Heartbeat { node: NodeId },
}

impl GcMsg {
    /// The bytes its trace contexts take on the wire beyond an absent
    /// context's: what the network model does not charge a control packet
    /// for, as the data path charges its payload alone. A cast then costs
    /// the same virtual time whether the flight recorder traces it or not.
    pub(crate) fn context_len(&self) -> usize {
        let len = |ctx: &TraceCtx| ctx.encode_to_bytes().len();
        let extra = |ctx: &TraceCtx| len(ctx).saturating_sub(len(&TraceCtx::NONE));
        match self {
            GcMsg::CastReq { ctx, .. } | GcMsg::SeqCast { ctx, .. } => extra(ctx),
            GcMsg::FlushOk { delivered, .. } => delivered.iter().map(|e| extra(&e.ctx)).sum(),
            GcMsg::NewView { backfill, .. } => backfill.iter().map(|e| extra(&e.ctx)).sum(),
            _ => 0,
        }
    }
}

const T_JOIN: u8 = 1;
const T_LEAVE: u8 = 2;
const T_CASTREQ: u8 = 3;
const T_SEQCAST: u8 = 4;
const T_P2P: u8 = 5;
const T_FLUSHREQ: u8 = 6;
const T_FLUSHOK: u8 = 7;
const T_NEWVIEW: u8 = 8;
const T_HEARTBEAT: u8 = 9;

impl Encode for GcMsg {
    fn encode(&self, enc: &mut Encoder) {
        match self {
            GcMsg::JoinReq { node } => {
                enc.put_u8(T_JOIN);
                node.encode(enc);
            }
            GcMsg::LeaveReq { node } => {
                enc.put_u8(T_LEAVE);
                node.encode(enc);
            }
            GcMsg::CastReq {
                origin,
                payload,
                ctx,
            } => {
                enc.put_u8(T_CASTREQ);
                origin.encode(enc);
                payload.encode(enc);
                ctx.encode(enc);
            }
            GcMsg::SeqCast {
                view,
                seq,
                origin,
                payload,
                ctx,
            } => {
                enc.put_u8(T_SEQCAST);
                view.encode(enc);
                seq.encode(enc);
                origin.encode(enc);
                payload.encode(enc);
                ctx.encode(enc);
            }
            GcMsg::P2p { payload } => {
                enc.put_u8(T_P2P);
                payload.encode(enc);
            }
            GcMsg::FlushReq {
                proposal,
                new_members,
            } => {
                enc.put_u8(T_FLUSHREQ);
                proposal.encode(enc);
                new_members.encode(enc);
            }
            GcMsg::FlushOk {
                proposal,
                node,
                delivered,
            } => {
                enc.put_u8(T_FLUSHOK);
                proposal.encode(enc);
                node.encode(enc);
                delivered.encode(enc);
            }
            GcMsg::NewView { view, backfill } => {
                enc.put_u8(T_NEWVIEW);
                view.encode(enc);
                backfill.encode(enc);
            }
            GcMsg::Heartbeat { node } => {
                enc.put_u8(T_HEARTBEAT);
                node.encode(enc);
            }
        }
    }
}

impl Decode for GcMsg {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(match dec.get_u8()? {
            T_JOIN => GcMsg::JoinReq {
                node: NodeId::decode(dec)?,
            },
            T_LEAVE => GcMsg::LeaveReq {
                node: NodeId::decode(dec)?,
            },
            T_CASTREQ => GcMsg::CastReq {
                origin: NodeId::decode(dec)?,
                payload: Bytes::decode(dec)?,
                ctx: TraceCtx::decode(dec)?,
            },
            T_SEQCAST => GcMsg::SeqCast {
                view: ViewId::decode(dec)?,
                seq: u64::decode(dec)?,
                origin: NodeId::decode(dec)?,
                payload: Bytes::decode(dec)?,
                ctx: TraceCtx::decode(dec)?,
            },
            T_P2P => GcMsg::P2p {
                payload: Bytes::decode(dec)?,
            },
            T_FLUSHREQ => GcMsg::FlushReq {
                proposal: u64::decode(dec)?,
                new_members: Vec::<NodeId>::decode(dec)?,
            },
            T_FLUSHOK => GcMsg::FlushOk {
                proposal: u64::decode(dec)?,
                node: NodeId::decode(dec)?,
                delivered: Vec::<SeqEntry>::decode(dec)?,
            },
            T_NEWVIEW => GcMsg::NewView {
                view: View::decode(dec)?,
                backfill: Vec::<SeqEntry>::decode(dec)?,
            },
            T_HEARTBEAT => GcMsg::Heartbeat {
                node: NodeId::decode(dec)?,
            },
            t => return Err(Error::codec(format!("unknown GcMsg tag {t}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_util::codec::roundtrip;

    #[test]
    fn all_variants_roundtrip() {
        let msgs = vec![
            GcMsg::JoinReq { node: NodeId(4) },
            GcMsg::LeaveReq { node: NodeId(2) },
            GcMsg::CastReq {
                origin: NodeId(1),
                payload: Bytes::from_static(b"hello"),
                ctx: TraceCtx::NONE,
            },
            GcMsg::SeqCast {
                view: ViewId(3),
                seq: 17,
                origin: NodeId(1),
                payload: Bytes::from_static(b"m"),
                ctx: TraceCtx {
                    trace: 7,
                    span: 8,
                    parent: 0,
                    lamport: 3,
                },
            },
            GcMsg::P2p {
                payload: Bytes::from_static(b"pp"),
            },
            GcMsg::FlushReq {
                proposal: 9,
                new_members: vec![NodeId(1), NodeId(2)],
            },
            GcMsg::FlushOk {
                proposal: 9,
                node: NodeId(2),
                delivered: vec![SeqEntry {
                    seq: 1,
                    origin: NodeId(1),
                    payload: Bytes::from_static(b"x"),
                    ctx: TraceCtx::NONE,
                }],
            },
            GcMsg::NewView {
                view: View::new(ViewId(4), vec![NodeId(1), NodeId(2)]),
                backfill: vec![],
            },
            GcMsg::Heartbeat { node: NodeId(3) },
        ];
        for m in msgs {
            assert_eq!(roundtrip(&m).unwrap(), m);
        }
    }

    /// A cast's context goes through the one trace-context codec with no
    /// implied bases: absent, it is one byte.
    #[test]
    fn an_untraced_entry_carries_a_one_byte_context() {
        let entry = SeqEntry {
            seq: 1,
            origin: NodeId(1),
            payload: Bytes::from_static(&[0; 64]),
            ctx: TraceCtx::NONE,
        };
        // seq, origin, the payload's length and bytes, the context.
        assert_eq!(entry.encode_to_bytes().len(), 8 + 4 + 4 + 64 + 1);
        let ok = GcMsg::FlushOk {
            proposal: 9,
            node: NodeId(2),
            delivered: vec![entry; 100],
        };
        assert_eq!(ok.encode_to_bytes().len(), 8_117);
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(GcMsg::decode_from_bytes(&[99]).is_err());
    }
}
