//! Data-message envelope and addressing constants.

use bytes::Bytes;
use starfish_trace::TraceCtx;
use starfish_util::codec::{Decode, Decoder, Encode, Encoder};
use starfish_util::{AppId, Epoch, Rank, Result};
use starfish_vni::PortId;

/// Application processes bind data ports at
/// `DATA_PORT_BASE + app * APP_PORT_STRIDE + world_rank`, so concurrent
/// applications sharing a node never collide.
pub const DATA_PORT_BASE: u32 = 1000;

/// Maximum ranks per application for port allocation purposes.
pub const APP_PORT_STRIDE: u32 = 8192;

/// Context id of `MPI_COMM_WORLD` point-to-point traffic.
pub const WORLD_CONTEXT: u32 = 1;

/// Context id reserved for C/R data-path marks (flush marks and
/// Chandy–Lamport markers) — FIFO with data, never matched by user receives.
pub const CTRL_CONTEXT: u32 = 0;

/// Data port of a given application's world rank.
pub fn data_port(app: AppId, world_rank: Rank) -> PortId {
    PortId(DATA_PORT_BASE + app.0 * APP_PORT_STRIDE + world_rank.0)
}

/// Header flag: the body is a rendezvous RTS envelope ([`RndvEnv`]), not
/// application data. The real payload follows in a later
/// [`FLAG_RNDV_DATA`] message once the receiver grants a CTS.
pub const FLAG_RNDV_RTS: u8 = 1 << 0;

/// Header flag: the frame is one rendezvous DATA chunk. The header is
/// followed by a [`RndvChunk`] descriptor; the chunk bytes ride in the
/// packet's separate `payload` segment (zero-copy gather framing).
pub const FLAG_RNDV_DATA: u8 = 1 << 1;

/// The envelope prefixed to every data-path message.
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
}

impl MsgHeader {
    /// Serialized header length: the fixed fields plus the `u16` length of
    /// the optional extension region that follows them. The extension (today
    /// only a [`TraceCtx`]) is skipped wholesale by [`parse`](Self::parse),
    /// so a receiver that does not understand it — the paper's unmodified
    /// MPI program, §MPI-module — still gets the exact body bytes.
    pub const LEN: usize = 4 + 4 + 8 + 4 + 8 + 8 + 1 + 2;

    fn put_fixed(&self, enc: &mut Encoder) {
        self.src.encode(enc);
        enc.put_u32(self.context);
        enc.put_u64(self.tag);
        self.epoch.encode(enc);
        enc.put_u64(self.interval);
        enc.put_u64(self.seq);
        enc.put_u8(self.flags);
    }

    /// Prefix `body` with this header (no extension); see
    /// [`frame_ext`](Self::frame_ext).
    pub fn frame(&self, body: &[u8]) -> Bytes {
        self.frame_ext(body, TraceCtx::NONE)
    }

    /// Prefix `body` with this header and, when `ctx` carries one, a
    /// trace-context extension. One buffer of the exact frame size: the body
    /// bytes are copied into it once, and it becomes the `Bytes` uncopied.
    pub fn frame_ext(&self, body: &[u8], ctx: TraceCtx) -> Bytes {
        let ext = if ctx.is_some() { TraceCtx::WIRE_LEN } else { 0 };
        let mut enc = Encoder::with_capacity(Self::LEN + ext + body.len());
        self.put_fixed(&mut enc);
        enc.put_u16(ext as u16);
        if ctx.is_some() {
            ctx.encode(&mut enc);
        }
        let mut buf = enc.into_vec();
        buf.extend_from_slice(body);
        Bytes::from(buf)
    }

    fn parse_fixed(framed: &Bytes) -> Result<(MsgHeader, usize)> {
        let mut dec = Decoder::new(&framed[..]);
        let src = Rank::decode(&mut dec)?;
        let context = dec.get_u32()?;
        let tag = dec.get_u64()?;
        let epoch = Epoch::decode(&mut dec)?;
        let interval = dec.get_u64()?;
        let seq = dec.get_u64()?;
        let flags = dec.get_u8()?;
        let ext = dec.get_u16()? as usize;
        if dec.remaining() < ext {
            return Err(starfish_util::Error::codec(format!(
                "extension length {ext} exceeds remaining {} bytes",
                dec.remaining()
            )));
        }
        Ok((
            MsgHeader {
                src,
                context,
                tag,
                epoch,
                interval,
                seq,
                flags,
            },
            ext,
        ))
    }

    /// Split a framed payload into header + body (zero-copy body slice).
    /// Any extension region is skipped unread.
    pub fn parse(framed: &Bytes) -> Result<(MsgHeader, Bytes)> {
        let (header, ext) = Self::parse_fixed(framed)?;
        Ok((header, framed.slice(Self::LEN + ext..)))
    }

    /// Like [`parse`](Self::parse), but also decode the trace context when
    /// the extension carries one ([`TraceCtx::NONE`] otherwise).
    pub fn parse_ext(framed: &Bytes) -> Result<(MsgHeader, Bytes, TraceCtx)> {
        let (header, ext) = Self::parse_fixed(framed)?;
        let ctx = if ext >= TraceCtx::WIRE_LEN {
            let mut dec = Decoder::new(&framed[Self::LEN..Self::LEN + ext]);
            TraceCtx::decode(&mut dec)?
        } else {
            TraceCtx::NONE
        };
        Ok((header, framed.slice(Self::LEN + ext..), ctx))
    }
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
    pub id: u64,
    /// Byte offset of this chunk within the transfer.
    pub offset: u64,
    /// Total transfer size in bytes (every chunk repeats it, so a chunk
    /// that overtakes its RTS still sizes the reassembly buffer).
    pub total: u64,
}

impl RndvChunk {
    pub const LEN: usize = 24;

    pub fn encode(&self) -> [u8; Self::LEN] {
        let mut buf = [0u8; Self::LEN];
        buf[..8].copy_from_slice(&self.id.to_be_bytes());
        buf[8..16].copy_from_slice(&self.offset.to_be_bytes());
        buf[16..].copy_from_slice(&self.total.to_be_bytes());
        buf
    }

    pub fn decode(body: &[u8]) -> Result<RndvChunk> {
        if body.len() < Self::LEN {
            return Err(starfish_util::Error::codec(format!(
                "rendezvous chunk descriptor {} bytes, need {}",
                body.len(),
                Self::LEN
            )));
        }
        Ok(RndvChunk {
            id: u64::from_be_bytes(body[..8].try_into().expect("8 bytes")),
            offset: u64::from_be_bytes(body[8..16].try_into().expect("8 bytes")),
            total: u64::from_be_bytes(body[16..24].try_into().expect("8 bytes")),
        })
    }
}

/// The body of a rendezvous RTS message: the transfer id (unique per sender
/// incarnation) and the payload size the receiver should expect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct RndvEnv {
    pub id: u64,
    pub size: u64,
}

impl RndvEnv {
    pub const LEN: usize = 16;

    pub fn encode(&self) -> [u8; Self::LEN] {
        let mut buf = [0u8; Self::LEN];
        buf[..8].copy_from_slice(&self.id.to_be_bytes());
        buf[8..].copy_from_slice(&self.size.to_be_bytes());
        buf
    }

    pub fn decode(body: &[u8]) -> Result<RndvEnv> {
        if body.len() < Self::LEN {
            return Err(starfish_util::Error::codec(format!(
                "RTS envelope {} bytes, need {}",
                body.len(),
                Self::LEN
            )));
        }
        Ok(RndvEnv {
            id: u64::from_be_bytes(body[..8].try_into().expect("8 bytes")),
            size: u64::from_be_bytes(body[8..16].try_into().expect("8 bytes")),
        })
    }
}

/// Control traffic of the MPI reliability layer, carried on the data port as
/// [`starfish_vni::PacketKind::Control`] packets so it can never be confused
/// with (or matched against) application data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelMsg {
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
    /// sender honours only the first copy per id.
    Cts { from: Rank, epoch: Epoch, id: u64 },
    /// Receiver returns eager flow-control credit: it consumed `bytes` of
    /// eager payload from `from`'s traffic, the sender may spend them again.
    Credit {
        from: Rank,
        epoch: Epoch,
        bytes: u64,
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
            RelMsg::Cts { from, epoch, id } => {
                enc.put_u8(4);
                from.encode(&mut enc);
                epoch.encode(&mut enc);
                enc.put_u64(*id);
            }
            RelMsg::Credit { from, epoch, bytes } => {
                enc.put_u8(5);
                from.encode(&mut enc);
                epoch.encode(&mut enc);
                enc.put_u64(*bytes);
            }
        }
        enc.into_bytes()
    }

    pub fn decode(buf: &Bytes) -> Result<RelMsg> {
        let mut dec = Decoder::new(&buf[..]);
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
            }),
            5 => Ok(RelMsg::Credit {
                from,
                epoch,
                bytes: dec.get_u64()?,
            }),
            k => Err(starfish_util::Error::codec(format!(
                "unknown RelMsg kind {k}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        };
        let framed = h.frame(b"payload");
        assert_eq!(framed.len(), MsgHeader::LEN + 7);
        let (got, body) = MsgHeader::parse(&framed).unwrap();
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
        };
        let framed = h.frame(&[9u8; 64]);
        let (_, body) = MsgHeader::parse(&framed).unwrap();
        // Same backing allocation.
        assert_eq!(body.as_ptr(), framed[MsgHeader::LEN..].as_ptr());
    }

    #[test]
    fn rndv_chunk_roundtrip() {
        let c = RndvChunk {
            id: 0x1122_3344_5566_7788,
            offset: 128 * 1024,
            total: 1 << 20,
        };
        assert_eq!(RndvChunk::decode(&c.encode()).unwrap(), c);
        // Trailing bytes after the descriptor are ignored.
        let mut buf = c.encode().to_vec();
        buf.extend_from_slice(b"chunk-bytes");
        assert_eq!(RndvChunk::decode(&buf).unwrap(), c);
        assert!(RndvChunk::decode(&buf[..23]).is_err());
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
            },
            RelMsg::Credit {
                from: Rank(3),
                epoch: Epoch(1),
                bytes: 4096,
            },
        ] {
            assert_eq!(RelMsg::decode(&msg.encode()).unwrap(), msg);
        }
    }

    #[test]
    fn truncated_header_rejected() {
        let short = Bytes::from_static(b"abc");
        assert!(MsgHeader::parse(&short).is_err());
    }

    fn ctx() -> TraceCtx {
        TraceCtx {
            trace: 0xAAAA,
            span: 0xBBBB,
            parent: 0xCCCC,
            lamport: 42,
        }
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
        };
        let traced = h.frame_ext(b"payload", ctx());
        assert_eq!(traced.len(), MsgHeader::LEN + TraceCtx::WIRE_LEN + 7);
        let (got, body) = MsgHeader::parse(&traced).unwrap();
        assert_eq!(got, h);
        assert_eq!(&body[..], b"payload");
        // And the ctx-aware parse recovers the context.
        let (got2, body2, c) = MsgHeader::parse_ext(&traced).unwrap();
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
        };
        let plain = h.frame(b"xy");
        let (_, body, c) = MsgHeader::parse_ext(&plain).unwrap();
        assert_eq!(&body[..], b"xy");
        assert!(c.is_none());
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
        };
        let framed = h.frame(b"abc");
        let mut raw = framed.to_vec();
        // The ext_len u16 is the last two bytes of the fixed header.
        raw[MsgHeader::LEN - 2..MsgHeader::LEN].copy_from_slice(&1000u16.to_be_bytes());
        let lying = Bytes::from(raw);
        assert!(MsgHeader::parse(&lying).is_err());
        assert!(MsgHeader::parse_ext(&lying).is_err());
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
}
