//! Pure state machines of the rendezvous protocol (RTS → CTS → chunked
//! DATA).
//!
//! [`RndvTx`] is the sender: the transfers whose RTS is out and whose
//! payload is parked, the early-chunk window, and which chunks leave on a
//! grant or on a checkpoint `DataMark` push. [`RndvRx`] is the receiver:
//! reassembly ([`RndvAsm`]), chunks that overtook their RTS, and the pacing
//! of CTS re-grants from a `now` the caller passes in. Like
//! [`crate::reliability`] they are `state × event → value` machines with no
//! I/O: the endpoint frames and sends what they name, and the `verify`
//! crate's rendezvous model drives the very same types with one-byte chunks
//! under every loss/reorder/duplication schedule.
//!
//! Invariants encoded here (and model-checked in `crates/verify`):
//! * the last chunk of a transfer never leaves before a grant or a push, so
//!   a transfer completes sender-side only through one of the two;
//! * a grant or push for a transfer that already drained names no chunk
//!   (duplicate CTS is a no-op);
//! * reassembly is offset-addressed: duplicates are idempotent, arrival
//!   order does not matter, a chunk whose `total` disagrees is dropped.
// lint: sans-io

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use bytes::Bytes;
use starfish_util::{Rank, VirtualTime};

use crate::wire::{RndvChunk, RndvEnv};

/// How many chunks a size-based rendezvous send streams *before* the CTS
/// arrives (bounded optimism: the receiver buffers at most this many chunks
/// per transfer it has not granted). The last chunk is never streamed early
/// — a transfer only completes via CTS or the checkpoint protocols'
/// unsolicited push — so parking semantics, quiescence accounting and the
/// receiver-memory bound all survive pipelining. Credit-exhaustion
/// fallbacks stream nothing early: they exist to bound receiver memory.
pub(crate) const RNDV_EARLY_CHUNKS: usize = 2;

/// How a receiver paces CTS re-grants for a rendezvous transfer still
/// awaiting its DATA. Real deployments throttle on wall time so a blocked
/// receive cannot flood the wire; deterministic harnesses (the chaos
/// driver, the model checker) re-grant on every matching-receive encounter
/// instead, keeping the packet schedule a pure function of the drain
/// schedule — a replay is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtsCadence {
    /// At most one CTS per transfer per interval.
    Interval(Duration),
    /// One CTS per encounter of the still-ungranted transfer.
    EveryEncounter,
}

/// One DATA chunk the sender machine wants on the wire: the descriptor and
/// a zero-copy slice of the parked payload, addressed like its RTS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkOut {
    pub(crate) dst: Rank,
    pub(crate) context: u32,
    pub(crate) tag: u64,
    pub desc: RndvChunk,
    pub seg: Bytes,
}

/// A transfer parked until the receiver's CTS. `next_chunk` advances as
/// chunks leave: early-streamed chunks move it before the CTS arrives, the
/// grant (or a checkpoint push) drains the rest.
#[derive(Debug, Clone)]
struct Parked {
    dst: Rank,
    context: u32,
    tag: u64,
    data: Bytes,
    /// Chunk size fixed at RTS time: the descriptor schedule must not shift
    /// if the endpoint's chunk size is re-tuned mid-transfer.
    chunk_bytes: u64,
    /// Next chunk index to put on the wire.
    next_chunk: u64,
}

impl Parked {
    /// Chunk count; an empty payload still ships one (empty) chunk so the
    /// receiver observes an arrival to complete on.
    fn n_chunks(&self) -> u64 {
        (self.data.len() as u64).div_ceil(self.chunk_bytes).max(1)
    }
}

/// Sender side: every transfer whose RTS is out and whose payload has not
/// fully left, by transfer id (`1..`, unique per endpoint incarnation).
#[derive(Debug, Clone, Default)]
pub struct RndvTx {
    started: u64,
    parked: BTreeMap<u64, Parked>,
}

impl RndvTx {
    /// The RTS envelope the next [`park`](Self::park) will answer to.
    /// Assignment is split from parking so a failed RTS send burns no id.
    pub fn next_rts(&self, len: usize) -> RndvEnv {
        RndvEnv {
            id: self.started + 1,
            size: len as u64,
        }
    }

    /// Park `data` behind the RTS just sent (the one
    /// [`next_rts`](Self::next_rts) named). Returns the transfer id and the
    /// chunks that may follow the RTS without waiting for the CTS: up to
    /// [`RNDV_EARLY_CHUNKS`] of a size-based (`pipelined`) transfer, never
    /// its last.
    pub fn park(
        &mut self,
        dst: Rank,
        context: u32,
        tag: u64,
        data: Bytes,
        chunk_bytes: usize,
        pipelined: bool,
    ) -> (u64, Vec<ChunkOut>) {
        self.started += 1;
        let p = Parked {
            dst,
            context,
            tag,
            data,
            chunk_bytes: chunk_bytes.max(1) as u64,
            next_chunk: 0,
        };
        let window = (p.n_chunks() - 1).min(RNDV_EARLY_CHUNKS as u64);
        self.parked.insert(self.started, p);
        let early = if pipelined { window } else { 0 };
        (self.started, self.chunks(self.started, early))
    }

    /// Every chunk of `id` not yet on the wire: what a grant releases, or a
    /// `DataMark` push that does not wait for one. Empty for a transfer
    /// that already drained (duplicate CTS).
    pub fn remaining(&self, id: u64) -> Vec<ChunkOut> {
        self.chunks(id, u64::MAX)
    }

    /// Up to `limit` chunks of `id` from its `next_chunk` on.
    fn chunks(&self, id: u64, limit: u64) -> Vec<ChunkOut> {
        let Some(p) = self.parked.get(&id) else {
            return Vec::new();
        };
        let total = p.data.len() as u64;
        let end_chunk = p.n_chunks().min(p.next_chunk.saturating_add(limit));
        let chunk = |k: u64| {
            let offset = k * p.chunk_bytes;
            let end = (offset + p.chunk_bytes).min(total);
            ChunkOut {
                dst: p.dst,
                context: p.context,
                tag: p.tag,
                desc: RndvChunk { id, offset, total },
                seg: p.data.slice(offset as usize..end as usize),
            }
        };
        (p.next_chunk..end_chunk).map(chunk).collect()
    }

    /// `n` of the chunks last named for `id` made it onto the wire (fewer
    /// than named when the peer became unreachable mid-burst: the rest stay
    /// parked for the next grant or push). A fully streamed transfer is
    /// complete sender-side and forgotten.
    pub fn sent(&mut self, id: u64, n: usize) {
        if let Some(p) = self.parked.get_mut(&id) {
            p.next_chunk += n as u64;
            if p.next_chunk >= p.n_chunks() {
                self.parked.remove(&id);
            }
        }
    }

    /// Parked transfer ids in id order — the order a `DataMark` push drains
    /// them in.
    pub fn ids(&self) -> Vec<u64> {
        self.parked.keys().copied().collect()
    }

    pub(crate) fn is_parked(&self, id: u64) -> bool {
        self.parked.contains_key(&id)
    }

    /// Give up on `id` (its blocking send timed out): a later push must not
    /// resurrect a send the caller saw fail.
    pub(crate) fn abandon(&mut self, id: u64) {
        self.parked.remove(&id);
    }

    /// Forget every transfer (the incarnation that parked them rolled back).
    pub(crate) fn clear(&mut self) {
        self.parked.clear();
    }
}

/// Receiver-side reassembly of one chunked rendezvous transfer.
///
/// The common case — a transfer that fits in one chunk — is fully
/// zero-copy: the arriving chunk `Bytes` (a refcounted slice of the
/// sender's application payload) is kept in `whole` and delivered as-is,
/// and no assembly buffer is ever allocated. Multi-chunk transfers pay a
/// *single* placement copy: `buf` is allocated lazily on the first partial
/// chunk and each chunk is written straight to its offset (the analogue of
/// RDMA rendezvous placing data directly into the posted receive buffer).
#[derive(Debug, Clone, Default)]
pub(crate) struct RndvAsm {
    /// Total payload size (RTS envelope / chunk descriptors agree on it).
    total: u64,
    /// Distinct payload bytes absorbed so far.
    received: u64,
    /// Zero-copy fast path: a single chunk covering the entire transfer.
    whole: Option<Bytes>,
    /// Placement buffer for multi-chunk transfers (lazily allocated).
    buf: Vec<u8>,
    /// Offsets already absorbed: chunk retransmissions are idempotent.
    got: BTreeSet<u64>,
    /// Latest virtual arrival over the absorbed chunks. The chunk that
    /// *completes* reassembly is whichever the fabric processed last, and
    /// with per-packet bandwidth charging a tiny tail chunk can carry a
    /// much earlier timestamp than the big chunk before it — so the
    /// transfer's delivery time is this watermark, not the last chunk's.
    pub(crate) latest: VirtualTime,
}

impl RndvAsm {
    pub fn new(total: u64) -> RndvAsm {
        RndvAsm {
            total,
            ..RndvAsm::default()
        }
    }

    /// Absorb one chunk. Descriptor-mismatched or out-of-bounds chunks are
    /// dropped; duplicates are no-ops. Returns completeness.
    pub(crate) fn absorb(&mut self, c: &RndvChunk, chunk: Bytes, arrive: VirtualTime) -> bool {
        let end = c.offset.saturating_add(chunk.len() as u64);
        if c.total != self.total || end > self.total {
            return self.is_complete();
        }
        if self.got.insert(c.offset) {
            // First arrival of this chunk only: duplicates are retransmission
            // traffic, which costs no virtual time by the reliability layer's
            // convention.
            self.latest = self.latest.max(arrive);
            self.received += chunk.len() as u64;
            if c.offset == 0 && chunk.len() as u64 == self.total && self.buf.is_empty() {
                // Single chunk covering the whole transfer: keep the
                // sender's payload slice, no copy, no buffer.
                self.whole = Some(chunk);
            } else {
                if self.buf.is_empty() {
                    self.buf = vec![0u8; self.total as usize];
                    // A whole-transfer chunk may already be parked from the
                    // fast path (out-of-order arrival of a retransmitted
                    // split): migrate it into the placement buffer.
                    if let Some(w) = self.whole.take() {
                        self.place(0, &w);
                    }
                }
                self.place(c.offset as usize, &chunk);
            }
        }
        self.is_complete()
    }

    /// Complete when every byte arrived and at least one chunk was seen —
    /// the second clause makes empty transfers complete on their single
    /// empty chunk rather than at creation.
    pub(crate) fn is_complete(&self) -> bool {
        self.received == self.total && !self.got.is_empty()
    }

    pub(crate) fn take_bytes(&mut self) -> Bytes {
        match self.whole.take() {
            Some(w) => w,
            None => Bytes::from(std::mem::take(&mut self.buf)),
        }
    }

    /// Copy `src` to `buf[at..]`; `absorb` bounds-checked the range already.
    fn place(&mut self, at: usize, src: &[u8]) {
        if let Some(dst) = self.buf.get_mut(at..at + src.len()) {
            dst.copy_from_slice(src);
        }
    }
}

/// What the receiver does about a transfer its receive is waiting on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// First CTS for this transfer: send it.
    First,
    /// The last CTS may have been lost: send it again.
    Again,
    /// Granted too recently: send nothing.
    Hold,
}

/// Receiver side: chunks that arrived before their RTS placed them in
/// matching order, and when each awaited transfer was last granted.
#[derive(Debug, Clone)]
pub struct RndvRx {
    pub(crate) cadence: CtsCadence,
    /// Reassembly of chunks that overtook their RTS (possible outside the
    /// reliability layer), by (sender, transfer id).
    strays: BTreeMap<(Rank, u64), RndvAsm>,
    /// Last CTS per (sender, transfer id), on the caller's clock.
    granted: BTreeMap<(Rank, u64), Duration>,
}

impl RndvRx {
    pub fn new(cadence: CtsCadence) -> RndvRx {
        RndvRx {
            cadence,
            strays: BTreeMap::new(),
            granted: BTreeMap::new(),
        }
    }

    /// A chunk arrived with no RTS placeholder to merge into: reassemble it
    /// aside until the RTS places the transfer in matching order.
    pub(crate) fn on_stray_chunk(
        &mut self,
        src: Rank,
        c: &RndvChunk,
        chunk: Bytes,
        at: VirtualTime,
    ) {
        let slot = self.strays.entry((src, c.id));
        slot.or_insert_with(|| RndvAsm::new(c.total))
            .absorb(c, chunk, at);
    }

    /// The RTS of `env` arrived: the reassembly its placeholder starts from
    /// — whatever overtook it, or empty. Strays that disagree with the RTS
    /// about the size are corrupt and dropped.
    pub(crate) fn on_rts(&mut self, src: Rank, env: &RndvEnv) -> RndvAsm {
        match self.strays.remove(&(src, env.id)) {
            Some(asm) if asm.total == env.size => asm,
            _ => RndvAsm::new(env.size),
        }
    }

    /// A matching receive met the still-incomplete transfer `(peer, id)` at
    /// `now` (any monotonic clock; only differences are used).
    pub fn grant(&mut self, peer: Rank, id: u64, now: Duration) -> Grant {
        let verdict = match (self.cadence, self.granted.get(&(peer, id))) {
            (CtsCadence::Interval(every), Some(last)) if now.saturating_sub(*last) < every => {
                return Grant::Hold
            }
            (_, Some(_)) => Grant::Again,
            (_, None) => Grant::First,
        };
        self.granted.insert((peer, id), now);
        verdict
    }

    /// Transfer `(src, id)` merged completely: its pacing record goes.
    pub(crate) fn on_complete(&mut self, src: Rank, id: u64) {
        self.granted.remove(&(src, id));
    }

    /// Forget everything (in-flight transfers belong to a rolled-back
    /// incarnation; stray DATA from it is dropped on arrival anyway).
    pub(crate) fn clear(&mut self) {
        self.strays.clear();
        self.granted.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A transfer of `len` bytes parked, its early window already sent.
    fn tx_with(len: usize, chunk: usize, pipelined: bool) -> (RndvTx, u64, Vec<ChunkOut>) {
        let mut tx = RndvTx::default();
        let data = Bytes::from((0..len).map(|i| i as u8).collect::<Vec<u8>>());
        assert_eq!(
            tx.next_rts(len),
            RndvEnv {
                id: 1,
                size: len as u64
            }
        );
        let (id, early) = tx.park(Rank(1), 1, 7, data, chunk, pipelined);
        tx.sent(id, early.len());
        (tx, id, early)
    }

    /// The early window is `min(n − 1, RNDV_EARLY_CHUNKS)`: never the last
    /// chunk, nothing at all for a credit fallback.
    #[test]
    fn early_window_never_contains_the_last_chunk() {
        for (n_chunks, want_early) in [(1usize, 0usize), (2, 1), (3, 2), (5, 2)] {
            let (mut tx, id, early) = tx_with(n_chunks * 4, 4, true);
            assert_eq!(early.len(), want_early, "{n_chunks}-chunk transfer");
            let last_off = (n_chunks as u64 - 1) * 4;
            assert!(early.iter().all(|c| c.desc.offset != last_off));
            assert!(tx.is_parked(id), "only a grant or a push completes it");
            let tail = tx.remaining(id);
            assert_eq!(tail.len(), n_chunks - want_early);
            assert_eq!(tail.last().map(|c| c.desc.offset), Some(last_off));
            tx.sent(id, tail.len());
            assert!(tx.ids().is_empty());

            let (_, _, early) = tx_with(n_chunks * 4, 4, false);
            assert!(early.is_empty(), "fallbacks stream nothing early");
        }
    }

    #[test]
    fn chunks_slice_the_payload_and_an_empty_payload_is_one_chunk() {
        let (tx, id, _) = tx_with(10, 4, false);
        let all = tx.remaining(id);
        let offs: Vec<(u64, usize)> = all.iter().map(|c| (c.desc.offset, c.seg.len())).collect();
        assert_eq!(offs, vec![(0, 4), (4, 4), (8, 2)]);
        assert!(all.iter().all(|c| c.desc.total == 10 && c.desc.id == id));
        assert_eq!(&all[1].seg[..], &[4, 5, 6, 7]);
        assert_eq!((all[0].dst, all[0].context, all[0].tag), (Rank(1), 1, 7));

        let (tx, id, _) = tx_with(0, 4, true);
        let all = tx.remaining(id);
        assert_eq!(all.len(), 1);
        assert!(all[0].seg.is_empty());
    }

    #[test]
    fn duplicate_cts_is_a_no_op_and_a_partial_burst_stays_parked() {
        let (mut tx, id, _) = tx_with(12, 4, false);
        assert_eq!(tx.remaining(id).len(), 3);
        // The peer vanished after one chunk: the other two stay parked.
        tx.sent(id, 1);
        assert_eq!(tx.ids(), vec![id]);
        let again = tx.remaining(id);
        assert_eq!(again.len(), 2);
        assert_eq!(again[0].desc.offset, 4);
        tx.sent(id, 2);
        assert!(!tx.is_parked(id));
        assert!(tx.remaining(id).is_empty(), "duplicate CTS");
        tx.sent(id, 0);
        assert!(tx.remaining(99).is_empty(), "unknown transfer");
    }

    #[test]
    fn datamark_push_drains_every_parked_tail_in_id_order() {
        let mut tx = RndvTx::default();
        let mut ids = Vec::new();
        for n in [3usize, 1, 5] {
            let data = Bytes::from(vec![n as u8; n * 2]);
            let (id, early) = tx.park(Rank(2), 1, 0, data, 2, true);
            tx.sent(id, early.len());
            ids.push(id);
        }
        assert_eq!(tx.ids(), ids, "ids ascend in start order");
        let mut pushed = Vec::new();
        for id in tx.ids() {
            let tail = tx.remaining(id);
            pushed.push(tail.len());
            tx.sent(id, tail.len());
        }
        assert_eq!(pushed, vec![1, 1, 3], "each tail = chunks − early window");
        assert!(tx.ids().is_empty());
        assert_eq!(tx.next_rts(0).id, 4, "ids are never reused");
        for forget in [RndvTx::clear, |tx: &mut RndvTx| tx.abandon(tx.started)] {
            tx.park(Rank(2), 1, 0, Bytes::new(), 2, false);
            forget(&mut tx);
            assert!(tx.ids().is_empty());
        }
    }

    fn chunk(id: u64, offset: u64, total: u64) -> RndvChunk {
        RndvChunk { id, offset, total }
    }

    #[test]
    fn reassembly_is_idempotent_order_free_and_stamped_with_the_latest_chunk() {
        let at = VirtualTime::from_micros;
        let mut asm = RndvAsm::new(6);
        assert!(!asm.absorb(&chunk(1, 4, 6), Bytes::from_static(b"ef"), at(9)));
        assert!(!asm.absorb(&chunk(1, 4, 6), Bytes::from_static(b"XX"), at(50)));
        assert!(!asm.absorb(&chunk(1, 0, 6), Bytes::from_static(b"ab"), at(3)));
        // Wrong total and out-of-bounds chunks are dropped.
        assert!(!asm.absorb(&chunk(1, 2, 7), Bytes::from_static(b"cd"), at(99)));
        assert!(!asm.absorb(&chunk(1, 5, 6), Bytes::from_static(b"cd"), at(99)));
        assert!(asm.absorb(&chunk(1, 2, 6), Bytes::from_static(b"cd"), at(4)));
        assert_eq!(asm.latest, at(9), "duplicates and drops leave no stamp");
        assert_eq!(&asm.take_bytes()[..], b"abcdef");

        // One chunk covering the transfer is kept as the sender's slice.
        let payload = Bytes::from_static(b"whole");
        let mut asm = RndvAsm::new(5);
        assert!(asm.absorb(&chunk(2, 0, 5), payload.clone(), at(1)));
        assert_eq!(asm.take_bytes().as_ptr(), payload.as_ptr());

        // Empty transfers complete on their one empty chunk, not before.
        let mut asm = RndvAsm::new(0);
        assert!(!asm.is_complete());
        assert!(asm.absorb(&chunk(3, 0, 0), Bytes::new(), at(1)));
    }

    #[test]
    fn strays_wait_for_their_rts_and_a_disagreeing_rts_starts_afresh() {
        let mut rx = RndvRx::new(CtsCadence::EveryEncounter);
        let at = VirtualTime::from_micros(5);
        rx.on_stray_chunk(Rank(0), &chunk(1, 0, 2), Bytes::from_static(b"hi"), at);
        rx.on_stray_chunk(Rank(0), &chunk(2, 0, 2), Bytes::from_static(b"yo"), at);
        // Same id from another sender is another transfer.
        let other = rx.on_rts(Rank(3), &RndvEnv { id: 1, size: 2 });
        assert!(!other.is_complete());
        let mut asm = rx.on_rts(Rank(0), &RndvEnv { id: 1, size: 2 });
        assert!(asm.is_complete());
        assert_eq!((asm.latest, &asm.take_bytes()[..]), (at, &b"hi"[..]));
        // The RTS says 3 bytes, the stray said 2: the stray was corrupt.
        let fresh = rx.on_rts(Rank(0), &RndvEnv { id: 2, size: 3 });
        assert_eq!((fresh.total, fresh.is_complete()), (3, false));
        assert!(!rx
            .on_rts(Rank(0), &RndvEnv { id: 1, size: 2 })
            .is_complete());
    }

    #[test]
    fn regrants_are_paced_on_the_callers_clock() {
        let ms = Duration::from_millis;
        let mut rx = RndvRx::new(CtsCadence::Interval(ms(25)));
        assert_eq!(rx.grant(Rank(0), 1, ms(100)), Grant::First);
        assert_eq!(rx.grant(Rank(0), 1, ms(110)), Grant::Hold);
        assert_eq!(rx.grant(Rank(0), 2, ms(110)), Grant::First, "per transfer");
        assert_eq!(rx.grant(Rank(0), 1, ms(124)), Grant::Hold);
        assert_eq!(rx.grant(Rank(0), 1, ms(125)), Grant::Again);
        assert_eq!(
            rx.grant(Rank(0), 1, ms(130)),
            Grant::Hold,
            "paced from the re-grant"
        );
        rx.on_complete(Rank(0), 1);
        assert_eq!(rx.grant(Rank(0), 1, ms(131)), Grant::First);

        rx.cadence = CtsCadence::EveryEncounter;
        assert_eq!(rx.grant(Rank(0), 2, ms(110)), Grant::Again);
        assert_eq!(rx.grant(Rank(0), 2, ms(110)), Grant::Again);
        rx.clear();
        assert_eq!(rx.grant(Rank(0), 2, ms(110)), Grant::First);
    }
}
