//! Data-message envelope and addressing constants.
//!
//! Every decoder here reads through `util::codec`'s bounds-checked
//! [`Decoder`]: a truncated or malformed frame is an `Err`, never a panic.

use bytes::Bytes;
use starfish_trace::TraceCtx;
use starfish_util::codec::{Decode, Decoder, Encode, Encoder, VAR_MAX_LEN};
use starfish_util::{AppId, Epoch, Error, Rank, Result};
use starfish_vni::PortId;

/// Application processes bind data ports at
/// `DATA_PORT_BASE + app * APP_PORT_STRIDE + world_rank`, so concurrent
/// applications sharing a node never collide.
pub(crate) const DATA_PORT_BASE: u32 = 1000;

/// Maximum ranks per application for port allocation purposes.
pub(crate) const APP_PORT_STRIDE: u32 = 8192;

/// Context id of `MPI_COMM_WORLD` point-to-point traffic.
pub const WORLD_CONTEXT: u32 = 1;

/// Context id reserved for C/R data-path marks (flush marks and
/// Chandy–Lamport markers) — FIFO with data, never matched by user receives.
pub(crate) const CTRL_CONTEXT: u32 = 0;

/// Data port of a given application's world rank.
pub(crate) fn data_port(app: AppId, world_rank: Rank) -> PortId {
    PortId(DATA_PORT_BASE + app.0 * APP_PORT_STRIDE + world_rank.0)
}

/// The world rank whose data port of `app` is `port`, the inverse of
/// [`data_port`]; `None` for a port outside the application's range. A
/// data frame's sender is the rank of the packet's source port: `src` is
/// not on the wire.
pub(crate) fn rank_of_port(app: AppId, port: PortId) -> Option<Rank> {
    let offset = port.0.checked_sub(data_port(app, Rank(0)).0)?;
    (offset < APP_PORT_STRIDE).then_some(Rank(offset))
}

/// Header flag: the body is a rendezvous RTS envelope ([`RndvEnv`]), not
/// application data. The real payload follows in a later
/// [`FLAG_RNDV_DATA`] message once the receiver grants a CTS.
pub const FLAG_RNDV_RTS: u8 = 1 << 0;

/// Header flag: the frame is one rendezvous DATA chunk. The header is
/// followed by a [`RndvChunk`] descriptor; the chunk bytes ride in the
/// packet's separate `payload` segment (zero-copy gather framing). On a
/// complete message in the matching queue it marks a payload that charged
/// no eager credit: a merged rendezvous payload, or one replayed from a
/// checkpoint's channel state.
pub const FLAG_RNDV_DATA: u8 = 1 << 1;

/// The bits of the wire's flags byte that are [`MsgHeader::flags`]; the
/// six above them carry [`MsgHeader::credit`].
const FLAG_BITS: u8 = FLAG_RNDV_RTS | FLAG_RNDV_DATA;

/// Shift of [`MsgHeader::credit`] within the wire's flags byte.
const CREDIT_SHIFT: u8 = 2;

// The layout byte's bits, each set when its part of the header follows
// the tag: a `context` other than `WORLD_CONTEXT`, a nonzero `epoch`,
// `interval` or `seq`, and an extension region (its length, then its
// bytes). `LAYOUT_BITS` are those in use; bits 5–7 are reserved, and a
// frame that sets one is a decode error.
const LAYOUT_CONTEXT: u8 = 1 << 0;
const LAYOUT_EPOCH: u8 = 1 << 1;
const LAYOUT_INTERVAL: u8 = 1 << 2;
const LAYOUT_SEQ: u8 = 1 << 3;
const LAYOUT_EXT: u8 = 1 << 4;
const LAYOUT_BITS: u8 = 0x1F;

/// The longest varint of a `u32` field.
const VAR_U32_LEN: usize = 5;

/// The envelope prefixed to every data-path message.
///
/// On the wire: the flags byte (the rendezvous [`flags`](Self::flags) in
/// bits 0–1, the [`credit`](Self::credit) count in bits 2–7), the layout
/// byte, the `tag`, then only the fields the layout names — `context` when
/// it is not [`WORLD_CONTEXT`], `epoch`, `interval` and `seq` when nonzero,
/// each an LEB128 varint ([`Encoder::put_var`]) — then, when the layout
/// says so, the length of the extension region and the extension, then the
/// body. `src` is not on the wire: the receiver takes it from the packet's
/// source port ([`rank_of_port`]). An untraced world-context header at
/// epoch 0, outside the reliability layer and independent C/R, with a tag
/// below 128 is 3 bytes; each field off its usual value adds its varint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgHeader {
    /// Sender's world rank.
    pub src: Rank,
    /// Communicator context.
    pub context: u32,
    /// User (or collective-internal) tag.
    pub tag: u64,
    /// Sender's restart epoch: stale-epoch messages are dropped on receive.
    pub epoch: Epoch,
    /// Sender's checkpoint interval (uncoordinated-C/R piggyback, §recovery).
    pub interval: u64,
    /// Per-(sender, destination, epoch) sequence number assigned by the
    /// reliability layer; `0` means the message is outside it (reliability
    /// off, or control/restored traffic) and is delivered as it arrives.
    pub seq: u64,
    /// Rendezvous-protocol flags ([`FLAG_RNDV_RTS`] / [`FLAG_RNDV_DATA`]);
    /// `0` for plain eager messages.
    pub flags: u8,
    /// The low six bits of the sender's eager credit count toward the
    /// destination: the units of the destination's eager payload it has
    /// consumed this epoch ([`crate::credit`]). It rides in bits 2–7 of the
    /// flags byte, so it costs no wire byte.
    pub credit: u8,
}

impl MsgHeader {
    /// The longest header [`frame_ext`](Self::frame_ext) writes: the flags
    /// and layout bytes, two `u32` and three `u64` varints, and the one-byte
    /// extension length. It only sizes the frame buffer: a header is as
    /// long as its values need. The extension region (absent, or exactly
    /// one [`TraceCtx`]) is skipped wholesale by [`parse`](Self::parse), so
    /// a receiver that does not understand it — the paper's unmodified MPI
    /// program, §MPI-module — still gets the exact body bytes.
    pub(crate) const MAX_LEN: usize = 2 + 2 * VAR_U32_LEN + 3 * VAR_MAX_LEN + 1;

    /// The fields after the tag, in wire order: each one's layout bit, its
    /// value and its usual value, which costs no byte.
    fn optional(&self) -> [(u8, u64, u64); 4] {
        [
            (LAYOUT_CONTEXT, self.context.into(), WORLD_CONTEXT.into()),
            (LAYOUT_EPOCH, self.epoch.0.into(), 0),
            (LAYOUT_INTERVAL, self.interval, 0),
            (LAYOUT_SEQ, self.seq, 0),
        ]
    }

    /// Write the header up to the extension region, announcing one when
    /// `ext` is set.
    fn put_head(&self, enc: &mut Encoder, ext: bool) {
        let fields = self.optional();
        let layout = fields
            .iter()
            .filter(|&&(_, v, usual)| v != usual)
            .fold(if ext { LAYOUT_EXT } else { 0 }, |l, &(bit, ..)| l | bit);
        enc.put_u8(self.flags | (self.credit << CREDIT_SHIFT));
        enc.put_u8(layout);
        enc.put_var(self.tag);
        for (bit, v, _) in fields {
            if layout & bit != 0 {
                enc.put_var(v);
            }
        }
    }

    /// Prefix `body` with this header (no extension); see
    /// [`frame_ext`](Self::frame_ext).
    #[cfg(test)]
    pub(crate) fn frame(&self, body: &[u8]) -> Bytes {
        self.frame_ext(body, TraceCtx::NONE, [0; 2])
    }

    /// Prefix `body` with this header and an extension region holding
    /// `ext` as it is, whatever it decodes to.
    #[cfg(test)]
    pub(crate) fn frame_raw_ext(&self, ext: &[u8], body: &[u8]) -> Bytes {
        let mut enc = Encoder::new();
        self.put_head(&mut enc, true);
        enc.put_var(ext.len() as u64);
        let mut buf = enc.into_vec();
        buf.extend_from_slice(ext);
        buf.extend_from_slice(body);
        Bytes::from(buf)
    }

    /// Prefix `body` with this header and, when `ctx` carries one, a
    /// trace-context extension coded against `bases`: the span bases of
    /// the sender and of the receiver at the header's epoch, which the
    /// receiver derives from the packet and the header alone
    /// ([`parse_ext`](Self::parse_ext)). One buffer of at least the frame's
    /// size: the body bytes are copied into it once, and it becomes the
    /// `Bytes` uncopied.
    pub(crate) fn frame_ext(&self, body: &[u8], ctx: TraceCtx, bases: [u64; 2]) -> Bytes {
        const { assert!(TraceCtx::MAX_WIRE_LEN < 0x80) };
        let mut enc = Encoder::with_capacity(Self::MAX_LEN + TraceCtx::MAX_WIRE_LEN + body.len());
        let traced = ctx.is_some();
        self.put_head(&mut enc, traced);
        // The extension's length, a one-byte varint whatever the context
        // holds: written once the context is.
        let len_at = enc.len();
        if traced {
            enc.put_u8(0);
            ctx.encode_with(&mut enc, &bases);
        }
        let mut buf = enc.into_vec();
        if traced {
            let ext = buf.len() - len_at - 1;
            if let Some(len) = buf.get_mut(len_at) {
                *len = ext as u8;
            }
        }
        buf.extend_from_slice(body);
        Bytes::from(buf)
    }

    /// Decode the header of a frame `src` sent and step over its
    /// extension: the header, the extension's bytes and the offset at which
    /// the body starts.
    fn parse_head(framed: &[u8], src: Rank) -> Result<(MsgHeader, &[u8], usize)> {
        let mut dec = Decoder::new(framed);
        let bits = dec.get_u8()?;
        let layout = dec.get_u8()?;
        if layout & !LAYOUT_BITS != 0 {
            return Err(Error::codec(format!("reserved layout bit in {layout:#x}")));
        }
        let tag = dec.get_var()?;
        let mut field = |bit: u8, usual: u64| {
            if layout & bit == 0 {
                Ok(usual)
            } else {
                dec.get_var()
            }
        };
        let header = MsgHeader {
            src,
            context: narrow(field(LAYOUT_CONTEXT, WORLD_CONTEXT.into())?)?,
            tag,
            epoch: Epoch(narrow(field(LAYOUT_EPOCH, 0)?)?),
            interval: field(LAYOUT_INTERVAL, 0)?,
            seq: field(LAYOUT_SEQ, 0)?,
            flags: bits & FLAG_BITS,
            credit: bits >> CREDIT_SHIFT,
        };
        let ext = if layout & LAYOUT_EXT == 0 {
            &[][..]
        } else {
            let len = dec.get_var()?;
            dec.take(usize::try_from(len).unwrap_or(usize::MAX))?
        };
        Ok((header, ext, framed.len() - dec.remaining()))
    }

    /// A copy of the frame `framed` whose header carries the credit count
    /// `credit` instead of the one it left with: a retransmission reports
    /// the count of when it leaves again, never a stale one. The flags byte
    /// leads the header, so this rewrites the first byte alone however long
    /// the fields after it are.
    pub(crate) fn restamp(framed: &Bytes, credit: u8) -> Bytes {
        let mut buf = framed.to_vec();
        if let Some(bits) = buf.first_mut() {
            *bits = (*bits & FLAG_BITS) | (credit << CREDIT_SHIFT);
        }
        Bytes::from(buf)
    }

    /// Split a frame `src` sent into header + body (zero-copy body slice).
    /// Any extension region is skipped unread.
    #[cfg(test)]
    pub(crate) fn parse(framed: &Bytes, src: Rank) -> Result<(MsgHeader, Bytes)> {
        let (header, _, body) = Self::parse_head(framed, src)?;
        Ok((header, framed.slice(body..)))
    }

    /// Like [`parse`](Self::parse), but also decode the trace context when
    /// the extension carries one, against the span bases `bases` gives for
    /// the parsed header (asked only then; see [`frame_ext`](Self::frame_ext)).
    /// An extension that is not exactly one context reads as
    /// [`TraceCtx::NONE`]: tracing never costs a message.
    pub(crate) fn parse_ext(
        framed: &Bytes,
        src: Rank,
        bases: impl FnOnce(&MsgHeader) -> [u64; 2],
    ) -> Result<(MsgHeader, Bytes, TraceCtx)> {
        let (header, ext, body) = Self::parse_head(framed, src)?;
        let ctx = if ext.is_empty() {
            TraceCtx::NONE
        } else {
            let mut dec = Decoder::new(ext);
            TraceCtx::decode_with(&mut dec, &bases(&header))
                .and_then(|ctx| dec.finish().map(|()| ctx))
                .unwrap_or(TraceCtx::NONE)
        };
        Ok((header, framed.slice(body..), ctx))
    }
}

/// A varint that must fit a `u32` field.
fn narrow(v: u64) -> Result<u32> {
    u32::try_from(v).map_err(|_| Error::codec(format!("varint {v} overflows a u32 field")))
}

/// `words` as consecutive big-endian `u64`s, in a buffer on the stack: a
/// rendezvous descriptor is copied into its frame at once, so it costs no
/// heap block of its own.
fn be_words<const N: usize, const LEN: usize>(words: [u64; N]) -> [u8; LEN] {
    const { assert!(LEN == 8 * N) };
    let mut buf = [0u8; LEN];
    for (dst, src) in buf
        .iter_mut()
        .zip(words.into_iter().flat_map(u64::to_be_bytes))
    {
        *dst = src;
    }
    buf
}

/// The descriptor of one rendezvous DATA chunk.
///
/// A rendezvous payload is shipped as a pipeline of chunk frames. Each frame
/// is a *two-segment* (gather) packet: the [`MsgHeader`] (with
/// [`FLAG_RNDV_DATA`]) plus this 24-byte descriptor travel in the packet's
/// `head` segment; the chunk bytes themselves are the packet's `payload`
/// segment — a reference-counted slice of the sender's original buffer,
/// never copied into the frame. The receiver reassembles chunks
/// offset-addressed into one contiguous buffer (the transfer's single copy),
/// so duplicates are idempotent and arrival order does not matter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RndvChunk {
    /// Transfer id of the RTS this chunk answers.
    pub(crate) id: u64,
    /// Byte offset of this chunk within the transfer.
    pub(crate) offset: u64,
    /// Total transfer size in bytes (every chunk repeats it, so a chunk
    /// that overtakes its RTS still sizes the reassembly buffer).
    pub(crate) total: u64,
}

impl RndvChunk {
    pub(crate) const LEN: usize = 24;

    /// The three fields as big-endian `u64`s.
    pub fn encode(&self) -> [u8; Self::LEN] {
        be_words([self.id, self.offset, self.total])
    }

    /// Decode the descriptor at the front of `body`; bytes after it are
    /// not read.
    pub(crate) fn decode(body: &[u8]) -> Result<RndvChunk> {
        let mut dec = Decoder::new(body);
        Ok(RndvChunk {
            id: dec.get_u64()?,
            offset: dec.get_u64()?,
            total: dec.get_u64()?,
        })
    }
}

/// The body of a rendezvous RTS message: the transfer id (unique per sender
/// incarnation) and the payload size the receiver should expect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RndvEnv {
    pub(crate) id: u64,
    pub(crate) size: u64,
}

impl RndvEnv {
    pub(crate) const LEN: usize = 16;

    /// The two fields as big-endian `u64`s.
    pub fn encode(&self) -> [u8; Self::LEN] {
        be_words([self.id, self.size])
    }

    /// Decode the envelope at the front of `body`; bytes after it are not
    /// read.
    pub(crate) fn decode(body: &[u8]) -> Result<RndvEnv> {
        let mut dec = Decoder::new(body);
        Ok(RndvEnv {
            id: dec.get_u64()?,
            size: dec.get_u64()?,
        })
    }
}

/// Control traffic of the MPI reliability layer, carried on the data port as
/// [`starfish_vni::PacketKind::Control`] packets so it can never be confused
/// with (or matched against) application data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RelMsg {
    /// Receiver reports a gap: `seqs` are missing from `from`'s flow.
    Nack {
        from: Rank,
        epoch: Epoch,
        seqs: Vec<u64>,
    },
    /// Receiver probes a silent flow: it has everything below `next`.
    Ping { from: Rank, epoch: Epoch, next: u64 },
    /// Sender advertises its highest assigned seq so the receiver can
    /// detect tail loss at quiescence.
    Flush {
        from: Rank,
        epoch: Epoch,
        highest: u64,
    },
    /// Receiver grants a rendezvous transfer: a matching receive is posted
    /// for the RTS carrying `id`, the sender may ship the payload.
    /// Idempotent — a blocked receiver re-sends it on the ping cadence, the
    /// sender honours only the first copy per id. `credit` is the
    /// receiver's full eager credit count toward the sender, as in
    /// [`RelMsg::Credit`], so a sender that fell back to rendezvous for
    /// want of credit gets it back with the grant it waits for.
    Cts {
        from: Rank,
        epoch: Epoch,
        id: u64,
        credit: u64,
    },
    /// Receiver returns eager flow-control credit: `credit` is the full
    /// count of [`CREDIT_BATCH_BYTES`](crate::credit::CREDIT_BATCH_BYTES)
    /// units of the addressee's eager payload that `from` has consumed
    /// this epoch. Cumulative, so a lost copy is repaired by the next
    /// report and a duplicated or late one changes nothing.
    Credit {
        from: Rank,
        epoch: Epoch,
        credit: u64,
    },
}

impl RelMsg {
    pub fn encode(&self) -> Bytes {
        let mut enc = Encoder::with_capacity(32);
        match self {
            RelMsg::Nack { from, epoch, seqs } => {
                enc.put_u8(1);
                from.encode(&mut enc);
                epoch.encode(&mut enc);
                enc.put_u32(seqs.len() as u32);
                for s in seqs {
                    enc.put_u64(*s);
                }
            }
            RelMsg::Ping { from, epoch, next } => {
                enc.put_u8(2);
                from.encode(&mut enc);
                epoch.encode(&mut enc);
                enc.put_u64(*next);
            }
            RelMsg::Flush {
                from,
                epoch,
                highest,
            } => {
                enc.put_u8(3);
                from.encode(&mut enc);
                epoch.encode(&mut enc);
                enc.put_u64(*highest);
            }
            RelMsg::Cts {
                from,
                epoch,
                id,
                credit,
            } => {
                enc.put_u8(4);
                from.encode(&mut enc);
                epoch.encode(&mut enc);
                enc.put_u64(*id);
                enc.put_u64(*credit);
            }
            RelMsg::Credit {
                from,
                epoch,
                credit,
            } => {
                enc.put_u8(5);
                from.encode(&mut enc);
                epoch.encode(&mut enc);
                enc.put_u64(*credit);
            }
        }
        enc.into_bytes()
    }

    pub(crate) fn decode(buf: &Bytes) -> Result<RelMsg> {
        let mut dec = Decoder::new(buf);
        let kind = dec.get_u8()?;
        let from = Rank::decode(&mut dec)?;
        let epoch = Epoch::decode(&mut dec)?;
        match kind {
            1 => {
                let n = dec.get_u32()? as usize;
                let mut seqs = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    seqs.push(dec.get_u64()?);
                }
                Ok(RelMsg::Nack { from, epoch, seqs })
            }
            2 => Ok(RelMsg::Ping {
                from,
                epoch,
                next: dec.get_u64()?,
            }),
            3 => Ok(RelMsg::Flush {
                from,
                epoch,
                highest: dec.get_u64()?,
            }),
            4 => Ok(RelMsg::Cts {
                from,
                epoch,
                id: dec.get_u64()?,
                credit: dec.get_u64()?,
            }),
            5 => Ok(RelMsg::Credit {
                from,
                epoch,
                credit: dec.get_u64()?,
            }),
            k => Err(Error::codec(format!("unknown RelMsg kind {k}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_trace::{rank_scope, span_base};

    #[test]
    fn frame_and_parse_roundtrip() {
        let h = MsgHeader {
            src: Rank(3),
            context: 7,
            tag: 42,
            epoch: Epoch(1),
            interval: 9,
            seq: 11,
            flags: 0,
            credit: 0,
        };
        let framed = h.frame(b"payload");
        assert_eq!(
            framed.len(),
            7 + 7,
            "flags, layout, tag and four fields below 128: 7 header bytes"
        );
        let (got, body) = MsgHeader::parse(&framed, Rank(3)).unwrap();
        assert_eq!(got, h);
        assert_eq!(&body[..], b"payload");
    }

    #[test]
    fn body_slice_is_zero_copy() {
        let h = MsgHeader {
            src: Rank(0),
            context: 1,
            tag: 0,
            epoch: Epoch(0),
            interval: 0,
            seq: 0,
            flags: 0,
            credit: 0,
        };
        let framed = h.frame(&[9u8; 64]);
        let (_, body) = MsgHeader::parse(&framed, Rank(0)).unwrap();
        // Same backing allocation.
        assert_eq!(body.as_ptr(), framed[framed.len() - 64..].as_ptr());
    }

    #[test]
    fn rndv_chunk_roundtrip() {
        let c = RndvChunk {
            id: 0x1122_3344_5566_7788,
            offset: 128 * 1024,
            total: 1 << 20,
        };
        assert_eq!(RndvChunk::decode(&c.encode()).unwrap(), c);
        // Big-endian words, in field order.
        assert_eq!(c.encode()[..8], 0x1122_3344_5566_7788u64.to_be_bytes());
        assert_eq!(c.encode()[16..], (1u64 << 20).to_be_bytes());
        // Trailing bytes after the descriptor are ignored.
        let mut buf = c.encode().to_vec();
        buf.extend_from_slice(b"chunk-bytes");
        assert_eq!(RndvChunk::decode(&buf).unwrap(), c);
        assert!(RndvChunk::decode(&buf[..23]).is_err());
        let env = RndvEnv {
            id: 7,
            size: 1 << 40,
        };
        assert_eq!(env.encode()[8..], (1u64 << 40).to_be_bytes());
        assert_eq!(RndvEnv::decode(&env.encode()).unwrap(), env);
        assert!(RndvEnv::decode(&env.encode()[..15]).is_err());
    }

    #[test]
    fn rel_msg_roundtrip() {
        for msg in [
            RelMsg::Nack {
                from: Rank(2),
                epoch: Epoch(1),
                seqs: vec![3, 4, 9],
            },
            RelMsg::Ping {
                from: Rank(0),
                epoch: Epoch(0),
                next: 17,
            },
            RelMsg::Flush {
                from: Rank(5),
                epoch: Epoch(2),
                highest: 40,
            },
            RelMsg::Cts {
                from: Rank(1),
                epoch: Epoch(0),
                id: 9,
                credit: 17,
            },
            RelMsg::Credit {
                from: Rank(3),
                epoch: Epoch(1),
                credit: 70,
            },
        ] {
            assert_eq!(RelMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    /// The credit count shares the flags byte without touching the
    /// rendezvous bits or the header length, and a restamped copy changes
    /// the count alone.
    #[test]
    fn credit_rides_the_spare_flag_bits() {
        for (flags, credit) in [(0, 63), (FLAG_RNDV_RTS, 1), (FLAG_RNDV_DATA, 42), (0, 0)] {
            let h = MsgHeader {
                src: Rank(2),
                context: 1,
                tag: 5,
                epoch: Epoch(3),
                interval: 0,
                seq: 4,
                flags,
                credit,
            };
            let framed = h.frame(b"body");
            let bare = MsgHeader {
                flags: 0,
                credit: 0,
                ..h
            };
            assert_eq!(framed.len(), bare.frame(b"body").len());
            assert_eq!(MsgHeader::parse(&framed, h.src).unwrap().0, h);
            let again = MsgHeader::restamp(&framed, 7);
            let (got, body) = MsgHeader::parse(&again, h.src).unwrap();
            assert_eq!(got, MsgHeader { credit: 7, ..h });
            assert_eq!(&body[..], b"body");
        }
    }

    #[test]
    fn truncated_header_rejected() {
        for short in [&b""[..], &[0], &[0, 0], &[0, LAYOUT_SEQ, 1], b"abc"] {
            assert!(
                MsgHeader::parse(&Bytes::copy_from_slice(short), Rank(0)).is_err(),
                "{short:?}"
            );
        }
    }

    /// The implied span bases the test frames are coded against: those of
    /// app 1's ranks 5 and 0 at epoch 2.
    fn bases() -> [u64; 2] {
        [5, 0].map(|r| span_base(&rank_scope(AppId(1), Rank(r)), 2))
    }

    /// A send of rank 5 to rank 0 deep into a stream: its span and trace
    /// under its own base, its parent under the receiver's.
    fn ctx() -> TraceCtx {
        let [me, peer] = bases();
        TraceCtx {
            trace: me | 1,
            span: me | 1000,
            parent: peer | 7,
            lamport: 1042,
        }
    }

    fn parse_ext(framed: &Bytes, src: Rank) -> Result<(MsgHeader, Bytes, TraceCtx)> {
        MsgHeader::parse_ext(framed, src, |_| bases())
    }

    /// The length of `v`'s varint.
    fn var_len(v: u64) -> usize {
        let mut enc = Encoder::new();
        enc.put_var(v);
        enc.len()
    }

    /// The unmodified-program compatibility guarantee (§MPI-module): a peer
    /// that knows nothing about trace contexts parses a context-carrying
    /// frame with the plain `parse` and gets exactly the same header and
    /// body bytes — the length-prefixed extension is skipped wholesale.
    #[test]
    fn trace_ext_is_invisible_to_a_plain_parse() {
        let h = MsgHeader {
            src: Rank(3),
            context: 7,
            tag: 42,
            epoch: Epoch(1),
            interval: 9,
            seq: 11,
            flags: 0,
            credit: 0,
        };
        let traced = h.frame_ext(b"payload", ctx(), bases());
        // The extension's length, the context's tag, the span's counter in
        // two bytes, the trace's and the parent's and the lamport delta in
        // one each.
        assert_eq!(traced.len(), h.frame(b"payload").len() + 7);
        let (got, body) = MsgHeader::parse(&traced, h.src).unwrap();
        assert_eq!(got, h);
        assert_eq!(&body[..], b"payload");
        // And the ctx-aware parse recovers the context.
        let (got2, body2, c) = parse_ext(&traced, h.src).unwrap();
        assert_eq!(got2, h);
        assert_eq!(&body2[..], b"payload");
        assert_eq!(c, ctx());
    }

    /// The converse direction: a frame without a context parses cleanly
    /// with the ctx-aware parse, reporting "no context".
    #[test]
    fn untraced_frame_parses_with_ctx_aware_parse() {
        let h = MsgHeader {
            src: Rank(0),
            context: 1,
            tag: 5,
            epoch: Epoch(0),
            interval: 0,
            seq: 0,
            flags: 0,
            credit: 0,
        };
        let plain = h.frame(b"xy");
        let (_, body, c) = parse_ext(&plain, h.src).unwrap();
        assert_eq!(&body[..], b"xy");
        assert!(c.is_none());
    }

    /// An extension that is not exactly one context — garbage, a context
    /// cut short inside its region, a context with bytes after it, an empty
    /// region — reads as no context, and the frame still gives its header
    /// and body.
    #[test]
    fn an_extension_that_does_not_decode_reads_as_no_context() {
        let h = base_header();
        let mut good = Encoder::new();
        ctx().encode_with(&mut good, &bases());
        let mut trailing = good.into_vec();
        trailing.push(0);
        for ext in [&[0xFF][..], &[0x03, 1, 2], &trailing, &[]] {
            let raw = h.frame_raw_ext(ext, b"body");
            let (got, body, c) = parse_ext(&raw, h.src).unwrap();
            assert_eq!(
                (got, &body[..], c),
                (h, &b"body"[..], TraceCtx::NONE),
                "{ext:?}"
            );
        }
    }

    /// A lying extension length (longer than the frame) is rejected, not
    /// sliced out of bounds.
    #[test]
    fn oversized_ext_length_rejected() {
        let h = MsgHeader {
            src: Rank(0),
            context: 1,
            tag: 0,
            epoch: Epoch(0),
            interval: 0,
            seq: 0,
            flags: 0,
            credit: 0,
        };
        let mut raw = h.frame_raw_ext(&[], b"abc").to_vec();
        // Flags, layout and tag, then the extension length.
        assert_eq!(raw[1], LAYOUT_EXT);
        assert_eq!(raw[3], 0);
        raw[3] = 100;
        let lying = Bytes::from(raw);
        assert!(MsgHeader::parse(&lying, Rank(0)).is_err());
        assert!(parse_ext(&lying, Rank(0)).is_err());
    }

    /// The envelope on the small-message path: an 8-byte world-context
    /// eager frame whose tag is below 128, outside the reliability layer and
    /// before any checkpoint, is the flags byte, the layout byte, the tag and
    /// the payload — 21 bytes with the extension's length and the context
    /// of a send 2.5 M messages into a stream. Each field off its usual
    /// value adds exactly its varint, wherever the sender's rank is. A
    /// header with every field at its maximum and a context whose ids all
    /// travel in full is `MAX_LEN` and `TraceCtx::MAX_WIRE_LEN`.
    #[test]
    fn an_8_byte_eager_frame_is_11_bytes_or_21_traced() {
        let h = MsgHeader {
            src: Rank(127),
            context: WORLD_CONTEXT,
            tag: 127,
            epoch: Epoch(0),
            interval: 0,
            seq: 0,
            flags: 0,
            credit: 63,
        };
        assert_eq!(h.frame(&[7u8; 8]).len(), 11);
        for src in [0, 128, u32::MAX] {
            let far = MsgHeader {
                src: Rank(src),
                ..h
            };
            assert_eq!(far.frame(&[7u8; 8]).len(), 11);
        }
        for v in [0, 2, 127, 128, 1 << 20, u32::MAX.into(), u64::MAX] {
            let v32 = u32::try_from(v).unwrap_or(u32::MAX);
            let off = |v: u64, usual: u64| if v == usual { 0 } else { var_len(v) };
            let cases = [
                (MsgHeader { tag: v, ..h }, var_len(v) - 1),
                (
                    MsgHeader { context: v32, ..h },
                    off(v32.into(), WORLD_CONTEXT.into()),
                ),
                (
                    MsgHeader {
                        epoch: Epoch(v32),
                        ..h
                    },
                    off(v32.into(), 0),
                ),
                (MsgHeader { interval: v, ..h }, off(v, 0)),
                (MsgHeader { seq: v, ..h }, off(v, 0)),
            ];
            for (h2, extra) in cases {
                assert_eq!(h2.frame(&[7u8; 8]).len(), 11 + extra, "{h2:?}");
            }
        }
        let [me, peer] = [127, 0].map(|r| span_base(&rank_scope(AppId(1), Rank(r)), 0));
        let streaming = TraceCtx {
            trace: me | 1,
            span: me | 2_500_000,
            parent: peer | 125,
            lamport: 2_500_300,
        };
        let traced = h.frame_ext(&[7u8; 8], streaming, [me, peer]);
        assert_eq!(traced.len(), 21);
        let (_, _, got) = MsgHeader::parse_ext(&traced, h.src, |_| [me, peer]).unwrap();
        assert_eq!(got, streaming);
        let max = MsgHeader {
            src: Rank(u32::MAX),
            context: u32::MAX,
            tag: u64::MAX,
            epoch: Epoch(u32::MAX),
            interval: u64::MAX,
            seq: u64::MAX,
            flags: FLAG_BITS,
            credit: 63,
        };
        let unknown = TraceCtx {
            trace: u64::MAX,
            span: u64::MAX - 1,
            parent: u64::MAX - 2,
            lamport: 1 << 63,
        };
        assert_eq!(
            max.frame_ext(&[], unknown, bases()).len(),
            MsgHeader::MAX_LEN + TraceCtx::MAX_WIRE_LEN
        );
        assert_eq!(max.frame(&[]).len(), MsgHeader::MAX_LEN - 1);
    }

    /// Everything the envelope promises of one frame: both parses give back
    /// the header, the body and the context; every strict prefix of the
    /// header and its extension is rejected; an extension length past the
    /// end of the frame is rejected; no single bit flip panics; and a
    /// restamp rewrites the credit bits and nothing else.
    fn check_frame(h: MsgHeader, ctx: TraceCtx, body: &[u8]) {
        let framed = h.frame_ext(body, ctx, bases());
        let (got, got_body, got_ctx) = parse_ext(&framed, h.src).unwrap();
        assert_eq!((got, &got_body[..], got_ctx), (h, body, ctx));
        let (plain, plain_body) = MsgHeader::parse(&framed, h.src).unwrap();
        assert_eq!((plain, &plain_body[..]), (h, body));
        let head = framed.len() - body.len();
        // The extension region: its length byte and the context.
        let ext = framed.len() - h.frame(body).len();
        assert_eq!(ext == 0, ctx.is_none());
        assert!(ext <= 1 + TraceCtx::MAX_WIRE_LEN, "{ctx:?}: {ext} bytes");
        assert!(head - ext < MsgHeader::MAX_LEN, "{h:?}: {head} bytes");
        for cut in 0..head {
            let prefix = framed.slice(..cut);
            assert!(
                MsgHeader::parse(&prefix, h.src).is_err(),
                "{h:?} cut at {cut}"
            );
            assert!(parse_ext(&prefix, h.src).is_err(), "{h:?} cut at {cut}");
        }
        if ext != 0 {
            // Claim one byte more than the context and the body hold.
            let mut raw = framed.to_vec();
            raw[head - ext] = (ext + body.len()) as u8;
            assert!(MsgHeader::parse(&Bytes::from(raw), h.src).is_err(), "{h:?}");
        }
        for bit in 0..framed.len() * 8 {
            let mut raw = framed.to_vec();
            raw[bit / 8] ^= 1 << (bit % 8);
            let flipped = Bytes::from(raw);
            let _ = MsgHeader::parse(&flipped, h.src);
            let _ = parse_ext(&flipped, h.src);
        }
        for credit in [0, 1, 42, 63] {
            let again = MsgHeader::restamp(&framed, credit);
            assert_eq!(again.len(), framed.len());
            assert_eq!(again[0] & FLAG_BITS, framed[0] & FLAG_BITS);
            assert_eq!(again[1..], framed[1..]);
            let (got, _, _) = parse_ext(&again, h.src).unwrap();
            assert_eq!(got, MsgHeader { credit, ..h });
        }
    }

    fn base_header() -> MsgHeader {
        MsgHeader {
            src: Rank(5),
            context: WORLD_CONTEXT,
            tag: 300,
            epoch: Epoch(2),
            interval: 1,
            seq: 129,
            flags: 0,
            credit: 0,
        }
    }

    /// Each field at 0, 127, 128 (where a varint grows to two bytes) and its
    /// type's maximum, every flag pair against all 64 credit values, each
    /// with and without a trace context.
    #[test]
    fn every_field_at_its_varint_edges_roundtrips() {
        let edges = |max: u64| [0, 127, 128, max];
        for traced in [TraceCtx::NONE, ctx()] {
            for v in edges(u32::MAX.into()) {
                let v32 = v as u32;
                for h in [
                    MsgHeader {
                        src: Rank(v32),
                        ..base_header()
                    },
                    MsgHeader {
                        context: v32,
                        ..base_header()
                    },
                    MsgHeader {
                        epoch: Epoch(v32),
                        ..base_header()
                    },
                ] {
                    check_frame(h, traced, b"body");
                }
            }
            for v in edges(u64::MAX) {
                for h in [
                    MsgHeader {
                        tag: v,
                        ..base_header()
                    },
                    MsgHeader {
                        interval: v,
                        ..base_header()
                    },
                    MsgHeader {
                        seq: v,
                        ..base_header()
                    },
                ] {
                    check_frame(h, traced, b"");
                }
            }
            for flags in 0..=FLAG_BITS {
                for credit in 0..64 {
                    let h = MsgHeader {
                        flags,
                        credit,
                        ..base_header()
                    };
                    check_frame(h, traced, b"x");
                }
            }
        }
    }

    /// A header whose fields are off their usual values exactly where
    /// `layout`'s bits say, and the context its extension bit asks for.
    fn header_of_layout(layout: u8) -> (MsgHeader, TraceCtx) {
        let on = |bit: u8, v: u64, usual: u64| if layout & bit == 0 { usual } else { v };
        let h = MsgHeader {
            src: Rank(5),
            context: on(
                LAYOUT_CONTEXT,
                u64::from(CTRL_CONTEXT),
                WORLD_CONTEXT.into(),
            ) as u32,
            tag: 300,
            epoch: Epoch(on(LAYOUT_EPOCH, 200, 0) as u32),
            interval: on(LAYOUT_INTERVAL, 9, 0),
            seq: on(LAYOUT_SEQ, 1 << 40, 0),
            flags: FLAG_RNDV_RTS,
            credit: 42,
        };
        let traced = if layout & LAYOUT_EXT == 0 {
            TraceCtx::NONE
        } else {
            ctx()
        };
        (h, traced)
    }

    /// Each of the 32 subsets of the layout bits: the layout byte names
    /// exactly the fields off their usual values, the frame round-trips
    /// (with every check of `check_frame`), and its length is the flags and
    /// layout bytes, the tag, the varint of each field the layout names,
    /// the extension region and the body.
    #[test]
    fn every_subset_of_the_layout_bits_roundtrips() {
        for layout in 0..=LAYOUT_BITS {
            let (h, traced) = header_of_layout(layout);
            check_frame(h, traced, b"body");
            let framed = h.frame_ext(b"body", traced, bases());
            assert_eq!(framed[1], layout);
            let fields: usize = h
                .optional()
                .iter()
                .filter(|&&(bit, ..)| layout & bit != 0)
                .map(|&(_, v, _)| var_len(v))
                .sum();
            let ext = framed.len() - h.frame(b"body").len();
            assert_eq!(framed.len(), 2 + var_len(300) + fields + ext + 4);
        }
    }

    /// Bits 5–7 of the layout byte are reserved: a frame with any of them
    /// set is an error, whatever else it holds.
    #[test]
    fn a_reserved_layout_bit_is_rejected() {
        for layout in [0, LAYOUT_BITS] {
            let (h, traced) = header_of_layout(layout);
            let framed = h.frame_ext(b"body", traced, bases());
            for bit in 5..8 {
                let mut raw = framed.to_vec();
                raw[1] |= 1 << bit;
                let bad = Bytes::from(raw);
                assert!(MsgHeader::parse(&bad, h.src).is_err(), "bit {bit}");
                assert!(parse_ext(&bad, h.src).is_err(), "bit {bit}");
            }
        }
    }

    /// The credit restamp of a retransmission rewrites byte 0 alone, on
    /// every layout.
    #[test]
    fn a_restamp_edits_byte_0_only() {
        for layout in 0..=LAYOUT_BITS {
            let (h, traced) = header_of_layout(layout);
            let framed = h.frame_ext(b"body", traced, bases());
            let again = MsgHeader::restamp(&framed, 7);
            assert_eq!(again[0], FLAG_RNDV_RTS | 7 << CREDIT_SHIFT);
            assert_eq!(again[1..], framed[1..]);
        }
    }

    /// A varint wider than its field is rejected, not truncated.
    #[test]
    fn a_u32_field_past_its_range_is_rejected() {
        for layout in [LAYOUT_CONTEXT, LAYOUT_EPOCH] {
            let mut enc = Encoder::new();
            enc.put_u8(0);
            enc.put_u8(layout);
            enc.put_var(0); // tag
            enc.put_var(u64::from(u32::MAX) + 1);
            assert!(MsgHeader::parse(&enc.into_bytes(), Rank(0)).is_err());
        }
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn edge_u64() -> impl Strategy<Value = u64> {
            prop_oneof![Just(0), Just(127), Just(128), Just(u64::MAX), any::<u64>()]
        }

        fn edge_u32() -> impl Strategy<Value = u32> {
            prop_oneof![
                Just(0),
                Just(1),
                Just(127),
                Just(128),
                Just(u32::MAX),
                any::<u32>()
            ]
        }

        fn arb_header() -> impl Strategy<Value = MsgHeader> {
            (
                (edge_u32(), edge_u32(), edge_u64()),
                (edge_u32(), edge_u64(), edge_u64()),
                (0..=FLAG_BITS, 0u8..64),
            )
                .prop_map(
                    |((src, context, tag), (epoch, interval, seq), (flags, credit))| MsgHeader {
                        src: Rank(src),
                        context,
                        tag,
                        epoch: Epoch(epoch),
                        interval,
                        seq,
                        flags,
                        credit,
                    },
                )
        }

        proptest! {
            #[test]
            fn any_header_roundtrips_and_its_prefixes_are_rejected(
                h in arb_header(),
                traced in any::<bool>(),
                body in proptest::collection::vec(any::<u8>(), 0..16),
            ) {
                check_frame(h, if traced { ctx() } else { TraceCtx::NONE }, &body);
            }

            /// Any byte string, a valid frame's or not, is a header or an
            /// `Err`: parsing never panics.
            #[test]
            fn any_bytes_parse_without_a_panic(
                raw in proptest::collection::vec(any::<u8>(), 0..48),
            ) {
                let raw = Bytes::from(raw);
                let _ = MsgHeader::parse(&raw, Rank(0));
                let _ = parse_ext(&raw, Rank(0));
            }
        }
    }

    #[test]
    fn data_port_offsets_by_app_and_rank() {
        assert_eq!(data_port(AppId(0), Rank(0)), PortId(1000));
        assert_eq!(data_port(AppId(0), Rank(7)), PortId(1007));
        // Different applications never collide.
        assert_ne!(data_port(AppId(1), Rank(0)), data_port(AppId(0), Rank(0)));
        assert_ne!(
            data_port(AppId(1), Rank(0)),
            data_port(AppId(0), Rank(8191))
        );
    }

    /// The rank a frame came from is its source port's, within the
    /// application's own range only.
    #[test]
    fn rank_of_port_inverts_data_port() {
        for app in [AppId(0), AppId(1), AppId(3)] {
            for r in [0, 1, 127, APP_PORT_STRIDE - 1] {
                assert_eq!(rank_of_port(app, data_port(app, Rank(r))), Some(Rank(r)));
            }
            let first = data_port(app, Rank(0)).0;
            assert_eq!(rank_of_port(app, PortId(first - 1)), None);
            assert_eq!(rank_of_port(app, PortId(first + APP_PORT_STRIDE)), None);
            assert_eq!(rank_of_port(app, PortId(0)), None);
        }
        assert_eq!(rank_of_port(AppId(1), data_port(AppId(2), Rank(0))), None);
    }
}
