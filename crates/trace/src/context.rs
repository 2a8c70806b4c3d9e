//! The trace context: the few words of causal metadata a message carries so
//! one logical operation is stitchable across processes and nodes.
//!
//! In memory the context is four `u64`s; on the wire its one codec
//! ([`TraceCtx::encode_with`]) sends only what the receiver cannot derive.
//! A tag byte gives two bits to each of `span`, `trace` and `parent`: the
//! id is implied (a `span` or `parent` of 0, a `trace` equal to the span),
//! is the 24-bit counter under one of two *implied* span bases both ends
//! know (a varint), or travels in full. Bit 6 says a zigzag varint of
//! `lamport`'s distance from the span's counter follows (a sending process
//! keeps the two close; only the absent context omits it); bit 7 is
//! reserved. On the MPI data path the bases are the sender's and the
//! receiver's [`span_base`], which both ends derive from the packet's
//! source port and the header's epoch, so a streaming 8-byte message
//! carries its context in 4 to 9 bytes instead of 32. An id under any
//! other base (a survivor rolled back in place keeps its old recorder)
//! travels in full, so decoding is exact whatever the recorders are. Casts between daemons have no bases; an absent
//! context there is one byte.
//!
//! The context is deliberately *optional*: a frame without one (or one
//! parsed by a peer that does not understand it) is a perfectly valid
//! frame — see
//! [`MsgHeader`](../../starfish_mpi/wire/struct.MsgHeader.html), whose
//! layout byte says whether an extension region follows and whose parse
//! skips that length-prefixed region unconditionally.

// The panic surface, held as in the audited crates although the rest of
// `trace` is not: this module decodes foreign bytes, so each surviving
// site carries an `#[expect]` with its reason (VERIFICATION.md §2).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo)]
#![deny(clippy::unimplemented, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

use starfish_util::codec::{Decode, Decoder, Encode, Encoder, VAR_MAX_LEN};
use starfish_util::{AppId, Error, Rank, Result};

/// The low bits of a span id that count spans within one recorder; the
/// bits above them are the recorder's [`span_base`].
pub(crate) const SPAN_COUNTER_MASK: u64 = 0xff_ffff;

/// FNV-1a, the same cheap stable hash the rest of the workspace idiom uses
/// for deterministic non-cryptographic ids.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The high bits of every span id a recorder of `scope` mints in its
/// `incarnation`: the scope's hash salted by the incarnation, above the
/// 24-bit span counter. The top bit is set, so a real span id never
/// collides with the 0 sentinel.
pub fn span_base(scope: &str, incarnation: u64) -> u64 {
    (fnv1a(scope).wrapping_add(incarnation.wrapping_mul(0x9e37_79b9_7f4a_7c15)) << 24) | (1 << 63)
}

/// The recorder scope of an application rank (`"app1.r0"`).
pub fn rank_scope(app: AppId, rank: Rank) -> String {
    format!("{app}.{rank}")
}

/// Causal metadata stamped on a message by the sending recorder.
///
/// `span == 0` is the reserved "no context" sentinel ([`TraceCtx::NONE`]):
/// recorders never allocate span id 0, so an all-zero context decodes as
/// "the sender was not tracing".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Id of the logical operation (the root span) this message belongs to.
    pub trace: u64,
    /// Id of this message's own send span — globally unique, the key the
    /// reassembler uses to match a receive back to its send.
    pub span: u64,
    /// The sender's enclosing span (0 = this send is a root).
    pub parent: u64,
    /// The sender's Lamport clock at send time; the receiver folds it in
    /// (`max(local, remote) + 1`) so clocks respect happens-before.
    pub lamport: u64,
}

/// How one id travels: its two bits of the tag byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Form {
    /// Not on the wire: a `span` or `parent` of 0, a `trace` equal to the
    /// span.
    Implied = 0,
    /// The counter under the first implied base, as a varint.
    Base0 = 1,
    /// The counter under the second implied base, as a varint.
    Base1 = 2,
    /// All eight bytes, big-endian.
    Full = 3,
}

/// Tag bit: a zigzag varint of `lamport`'s distance from the span counter
/// follows the ids. Every context with a span sets it, even at distance
/// 0: whether the clock equals the counter is thread scheduling (an
/// untraced receive in between moves the clock), so a frame's length must
/// not hinge on it. Only a context without a span, at distance 0, goes
/// without, so the absent context is one byte.
const LAMPORT_FOLLOWS: u8 = 1 << 6;

/// Tag bit that no encoder sets: a frame carrying it is not a context.
const RESERVED: u8 = 1 << 7;

impl Form {
    /// How `id` travels, given the value it takes when implied.
    fn of(id: u64, implied: u64, bases: &[u64]) -> Form {
        let under = |i| {
            bases
                .get(i)
                .is_some_and(|b| b & !SPAN_COUNTER_MASK == id & !SPAN_COUNTER_MASK)
        };
        if id == implied {
            Form::Implied
        } else if under(0) {
            Form::Base0
        } else if under(1) {
            Form::Base1
        } else {
            Form::Full
        }
    }

    fn from_bits(bits: u8) -> Form {
        match bits & 3 {
            0 => Form::Implied,
            1 => Form::Base0,
            2 => Form::Base1,
            _ => Form::Full,
        }
    }

    fn put(self, enc: &mut Encoder, id: u64) {
        match self {
            Form::Implied => {}
            Form::Base0 | Form::Base1 => enc.put_var(id & SPAN_COUNTER_MASK),
            Form::Full => enc.put_u64(id),
        }
    }

    fn get(self, dec: &mut Decoder<'_>, implied: u64, bases: &[u64]) -> Result<u64> {
        let base = match self {
            Form::Implied => return Ok(implied),
            Form::Full => return dec.get_u64(),
            Form::Base0 => bases.first(),
            Form::Base1 => bases.get(1),
        };
        let base = base.ok_or_else(|| Error::codec("trace context names an unknown span base"))?;
        let counter = dec.get_var()?;
        if counter > SPAN_COUNTER_MASK {
            return Err(Error::codec("span counter overflows 24 bits"));
        }
        Ok(base & !SPAN_COUNTER_MASK | counter)
    }
}

/// `lamport`'s distance from the span counter, zigzagged so a small
/// distance either way is a small varint.
fn lamport_delta(lamport: u64, span: u64) -> u64 {
    let d = lamport.wrapping_sub(span & SPAN_COUNTER_MASK) as i64;
    ((d << 1) ^ (d >> 63)) as u64
}

fn lamport_from_delta(z: u64, span: u64) -> u64 {
    let d = ((z >> 1) as i64) ^ -((z & 1) as i64);
    (span & SPAN_COUNTER_MASK).wrapping_add(d as u64)
}

impl TraceCtx {
    /// The absent context (all zero; `span == 0` is the discriminant).
    pub const NONE: TraceCtx = TraceCtx {
        trace: 0,
        span: 0,
        parent: 0,
        lamport: 0,
    };

    /// The longest encoding: the tag, three ids in full and a `lamport`
    /// delta of ten varint bytes.
    pub const MAX_WIRE_LEN: usize = 1 + 3 * 8 + VAR_MAX_LEN;

    /// True if this is the "no context" sentinel.
    pub fn is_none(&self) -> bool {
        self.span == 0
    }

    /// True if this context carries real causal metadata.
    pub fn is_some(&self) -> bool {
        self.span != 0
    }

    /// Write the context, sending an id under one of `bases` (at most the
    /// first two are used) as its counter alone. The decoder must be given
    /// the same bases in the same order.
    pub fn encode_with(&self, enc: &mut Encoder, bases: &[u64]) {
        let span = Form::of(self.span, 0, bases);
        let trace = Form::of(self.trace, self.span, bases);
        let parent = Form::of(self.parent, 0, bases);
        let delta = lamport_delta(self.lamport, self.span);
        let follows = self.is_some() || delta != 0;
        let tag = span as u8 | (trace as u8) << 2 | (parent as u8) << 4;
        enc.put_u8(if follows { tag | LAMPORT_FOLLOWS } else { tag });
        span.put(enc, self.span);
        trace.put(enc, self.trace);
        parent.put(enc, self.parent);
        if follows {
            enc.put_var(delta);
        }
    }

    /// Read a context written by [`encode_with`](Self::encode_with) with
    /// the same `bases`. A cut-short or malformed context, or one naming a
    /// base the caller does not have, is an `Err`.
    pub fn decode_with(dec: &mut Decoder<'_>, bases: &[u64]) -> Result<TraceCtx> {
        let tag = dec.get_u8()?;
        if tag & RESERVED != 0 {
            return Err(Error::codec("trace context tag has its reserved bit set"));
        }
        let span = Form::from_bits(tag).get(dec, 0, bases)?;
        let trace = Form::from_bits(tag >> 2).get(dec, span, bases)?;
        let parent = Form::from_bits(tag >> 4).get(dec, 0, bases)?;
        let delta = if tag & LAMPORT_FOLLOWS != 0 {
            dec.get_var()?
        } else {
            0
        };
        Ok(TraceCtx {
            trace,
            span,
            parent,
            lamport: lamport_from_delta(delta, span),
        })
    }
}

/// The codec with no implied bases: every id travels implied or in full.
impl Encode for TraceCtx {
    fn encode(&self, enc: &mut Encoder) {
        self.encode_with(enc, &[]);
    }
}

impl Decode for TraceCtx {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        TraceCtx::decode_with(dec, &[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use starfish_util::codec::roundtrip;

    fn encoded(ctx: &TraceCtx, bases: &[u64]) -> Vec<u8> {
        let mut enc = Encoder::new();
        ctx.encode_with(&mut enc, bases);
        enc.into_vec()
    }

    fn decoded(buf: &[u8], bases: &[u64]) -> Result<TraceCtx> {
        let mut dec = Decoder::new(buf);
        let ctx = TraceCtx::decode_with(&mut dec, bases)?;
        dec.finish()?;
        Ok(ctx)
    }

    #[test]
    fn roundtrips_without_bases_and_none_is_one_byte() {
        assert_eq!(TraceCtx::NONE.encode_to_bytes().len(), 1);
        let ctx = TraceCtx {
            trace: 1,
            span: 2,
            parent: 3,
            lamport: 4,
        };
        assert_eq!(roundtrip(&ctx).unwrap(), ctx);
        // Tag, three ids in full, the lamport delta 4 - 2 as one byte.
        assert_eq!(ctx.encode_to_bytes().len(), 1 + 3 * 8 + 1);
    }

    /// A steady-state send of a streaming rank: its own span deep into the
    /// counter, the trace its first send, the parent the peer's last
    /// answer, the clock a little past the counter.
    #[test]
    fn a_streaming_send_costs_nine_bytes() {
        let (me, peer) = (span_base("app1.r0", 0), span_base("app1.r1", 0));
        let ctx = TraceCtx {
            trace: me | 1,
            span: me | 2_500_000,
            parent: peer | 125,
            lamport: 2_500_300,
        };
        let wire = encoded(&ctx, &[me, peer]);
        // Tag; 4 counter bytes; 1; 1; the zigzagged 300 in 2.
        assert_eq!(wire.len(), 9);
        assert_eq!(decoded(&wire, &[me, peer]).unwrap(), ctx);
    }

    #[test]
    fn none_sentinel() {
        assert!(TraceCtx::NONE.is_none());
        assert!(TraceCtx {
            span: 9,
            ..TraceCtx::NONE
        }
        .is_some());
    }

    #[test]
    fn the_rank_scope_is_the_recorder_name_the_cluster_uses() {
        assert_eq!(rank_scope(AppId(1), Rank(0)), "app1.r0");
        let base = span_base("app1.r0", 3);
        assert_eq!(base & SPAN_COUNTER_MASK, 0);
        assert_ne!(base, span_base("app1.r0", 4));
        assert_ne!(base >> 63, 0);
    }

    const FORMS: [Form; 4] = [Form::Implied, Form::Base0, Form::Base1, Form::Full];

    /// One id in `form`: `implied` when implied, `counter` under the base
    /// the form names, `full` otherwise.
    fn id_in(form: Form, implied: u64, bases: [u64; 2], counter: u64, full: u64) -> u64 {
        match form {
            Form::Implied => implied,
            Form::Base0 => bases[0] | counter,
            Form::Base1 => bases[1] | counter,
            Form::Full => full,
        }
    }

    /// Everything the codec promises of one context under `bases`.
    fn check(
        ctx: TraceCtx,
        bases: &[u64],
    ) -> std::result::Result<(), proptest::test_runner::TestCaseError> {
        let wire = encoded(&ctx, bases);
        prop_assert!(wire.len() <= TraceCtx::MAX_WIRE_LEN);
        prop_assert_eq!(decoded(&wire, bases).unwrap(), ctx);
        for cut in 0..wire.len() {
            prop_assert!(
                decoded(&wire[..cut], bases).is_err(),
                "{ctx:?} cut at {cut}"
            );
        }
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = decoded(&flipped, bases);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every tag case — each id in each of its four forms, with and
        /// without a lamport delta — round-trips exactly under random
        /// bases; the encoder picks the form the context was built in;
        /// every strict prefix is an error and no bit flip panics.
        #[test]
        fn every_tag_case_roundtrips_and_no_damage_panics(
            seeds in (any::<u64>(), any::<u64>()),
            counters in (0..=SPAN_COUNTER_MASK, 0..=SPAN_COUNTER_MASK, 0..=SPAN_COUNTER_MASK),
            fulls in (any::<u64>(), any::<u64>(), any::<u64>()),
            delta in prop_oneof![Just(1i64), Just(-1i64), -300i64..300, any::<i64>()],
        ) {
            // Two distinct bases, as `span_base` makes them.
            let b0 = (seeds.0 << 24) | (1 << 63);
            let b1 = b0 ^ (((seeds.1 | 1) << 24) & !(1 << 63));
            let bases = [b0, b1];
            // Full ids that no base covers.
            let full = |v: u64| v & !(1 << 63);
            for span_form in FORMS {
                let span = id_in(span_form, 0, bases, counters.0 | 1, full(fulls.0) | 1);
                for trace_form in FORMS {
                    let trace = id_in(trace_form, span, bases, counters.1, full(fulls.1) | 2);
                    for parent_form in FORMS {
                        let parent = id_in(parent_form, 0, bases, counters.2, full(fulls.2) | 1);
                        for d in [0, delta] {
                            let lamport = (span & SPAN_COUNTER_MASK).wrapping_add(d as u64);
                            let ctx = TraceCtx { trace, span, parent, lamport };
                            let tag = encoded(&ctx, &bases)[0];
                            prop_assert_eq!(
                                tag,
                                span_form as u8
                                    | (trace_form as u8) << 2
                                    | (parent_form as u8) << 4
                                    | if span != 0 || d != 0 { LAMPORT_FOLLOWS } else { 0 },
                                "{:?}", ctx
                            );
                            check(ctx, &bases)?;
                            // With no bases every id still round-trips.
                            check(ctx, &[])?;
                        }
                    }
                }
            }
        }

        /// Arbitrary contexts under arbitrary bases, zero to two of them.
        #[test]
        fn any_context_roundtrips(
            ids in (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
            bases in proptest::collection::vec(any::<u64>(), 0..3),
        ) {
            let (trace, span, parent, lamport) = ids;
            check(TraceCtx { trace, span, parent, lamport }, &bases)?;
        }

        /// No byte string panics the decoder, whatever the bases.
        #[test]
        fn arbitrary_bytes_never_panic(
            bytes in proptest::collection::vec(any::<u8>(), 0..40),
            bases in proptest::collection::vec(any::<u64>(), 0..3),
        ) {
            let _ = decoded(&bytes, &bases);
        }
    }
}
