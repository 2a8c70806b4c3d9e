//! MPI collectives over point-to-point, with per-call algorithm selection:
//! the one collective stack, generic over the [`Transport`] that carries
//! its messages (a bare endpoint, or the cluster runtime's `Ctx`).
//!
//! Every collective operation of a communicator must be invoked by all
//! members in the same order (the MPI rule); the communicator's internal
//! sequence number then gives each round a unique tag so that consecutive
//! collectives never cross-match. Each operation with a bandwidth/latency
//! trade-off carries several algorithms; the `*_with` entry points take
//! one, the plain ones ask the [`CollAlgoSelector`]:
//!
//! * **allreduce** — recursive doubling ([`rdouble`]) for small payloads,
//!   reduce-scatter + ring allgather ([`ring`]) for large ones; forced
//!   only: binomial reduce + bcast that meets in the middle (each half
//!   reduces, the half roots swap partials, each half bcasts), which is
//!   what the cluster runs;
//! * **allgather** — Bruck doubling ([`bruck`]) small, ring circulation
//!   large; forced only: gather + bcast, which is what the cluster runs;
//! * **bcast** — binomial tree small, van de Geijn scatter + ring
//!   allgather ([`vdg`]) large.
//!
//! Selection is deterministic across ranks: allreduce keys on the (rank-
//! symmetric) payload size, allgather first circulates blob lengths in a
//! Bruck pre-round and keys on the total, and bcast broadcasts an 8-byte
//! length header on the binomial tree before selecting. Every decision is
//! counted (`coll.algo.*`), every payload byte a rank puts on the wire is
//! counted (`coll.bytes_moved`), and each call records a trace span named
//! `coll.<op>` with the chosen algorithm as detail.
//!
//! # Tag layout
//!
//! Collective tags live above [`COLL_TAG_BASE`]; user tags must stay below
//! it (`Ctx` rejects the rest). The 64-bit tag packs:
//!
//! ```text
//! bit  63       COLL_TAG_BASE
//! bits 58..63   op    (5 bits: barrier, bcast, …, allreduce)
//! bits 56..58   phase (2 bits: 0 = main, 1 = allgather phase, 2 = ctrl)
//! bits 44..56   step  (12 bits: ring step / doubling round / tree chunk)
//! bits 32..44   seg   (12 bits: segment index within one block transfer)
//! bits  0..32   seq   (communicator collective sequence number)
//! ```
//!
//! # Segmented block phases
//!
//! Ring, doubling and scatter phases move *blocks* of a known length. A
//! block larger than the endpoint's rendezvous chunk size is split into
//! chunk-aligned segments, each sent as its own tagged message (`seg` field
//! ascending, zero-copy [`Bytes`] slices), so consecutive ring steps
//! pipeline through the rendezvous data path instead of serialising on one
//! large transfer. Both sides derive the segment count from the block
//! length, which the protocol guarantees they share. Binomial-tree phases
//! send whole payloads and rely on the transport's own chunked rendezvous
//! pipeline. Segmenting assumes every member of the communicator runs the
//! same rendezvous chunk configuration (the default unless a test tunes
//! it), like any other wire-format parameter.
//!
//! # Buffer discipline
//!
//! Per-rank blobs move as [`Bytes`] handles that alias the arrival buffer —
//! receiving a blob never copies it, and multi-blob results are zero-copy
//! slices. Sending does not copy what the library owns either: a tree
//! forward, an encoded contribution or a scattered blob leaves as its
//! `Bytes` through [`Transport::isend`]; only a slice the caller lent
//! (gather, alltoall) pays the endpoint's one copy. The one composite wire
//! format is the gather+bcast allgather's concatenation:
//!
//! ```text
//! [count: u32 BE] ( [len_i: u32 BE] [blob_i: len_i bytes] ) * count
//! ```

mod bruck;
mod rdouble;
mod ring;
pub mod selector;
mod transport;
mod vdg;

pub use selector::{AllgatherAlgo, AllreduceAlgo, BcastAlgo, CollAlgoSelector};
pub use transport::Transport;

use bytes::Bytes;
use starfish_telemetry::{metric, MetricId};
use starfish_util::{Error, Rank, Result};

use crate::comm::Comm;
use crate::endpoint::{MpiEndpoint, RecvdMsg, Request};

/// Tag space reserved for collectives: user tags must stay below this.
pub const COLL_TAG_BASE: u64 = 1 << 63;

const OP_SHIFT: u32 = 58;
const PHASE_SHIFT: u32 = 56;
const STEP_SHIFT: u32 = 44;
const SEG_SHIFT: u32 = 32;
const SEQ_MASK: u64 = 0xFFFF_FFFF;

/// Ring/scatter step indices ride the 12-bit `step` tag field, so a
/// collective can span at most this many ranks.
pub const MAX_COLL_RANKS: usize = 1 << 12;

/// The stepped algorithms (ring, Bruck, scatter+allgather) refuse a group
/// whose step indices would overflow the tag field.
fn check_group_size(n: usize) -> Result<()> {
    if n > MAX_COLL_RANKS {
        return Err(Error::invalid_arg(format!(
            "stepped collectives span at most {MAX_COLL_RANKS} ranks, got {n}"
        )));
    }
    Ok(())
}

pub(crate) const OP_BARRIER: u8 = 1;
pub(crate) const OP_BCAST: u8 = 2;
pub(crate) const OP_REDUCE: u8 = 3;
pub(crate) const OP_GATHER: u8 = 4;
pub(crate) const OP_SCATTER: u8 = 5;
pub(crate) const OP_ALLGATHER: u8 = 6;
pub(crate) const OP_ALLTOALL: u8 = 7;
pub(crate) const OP_SCAN: u8 = 8;
pub(crate) const OP_SPLIT: u8 = 9;
pub(crate) const OP_ALLREDUCE: u8 = 10;

/// Main data phase of an algorithm (reduce-scatter steps, doubling rounds).
pub(crate) const PHASE_MAIN: u8 = 0;
/// The trailing allgather phase of ring allreduce / van de Geijn bcast.
pub(crate) const PHASE_AG: u8 = 1;
/// Control traffic: length headers and length pre-rounds.
pub(crate) const PHASE_CTRL: u8 = 2;

fn coll_tag_at(op: u8, seq: u64, phase: u8, step: u32, seg: u32) -> u64 {
    debug_assert!(op < 32 && phase < 4 && step < (1 << 12) && seg < (1 << 12));
    COLL_TAG_BASE
        | ((op as u64) << OP_SHIFT)
        | ((phase as u64) << PHASE_SHIFT)
        | ((step as u64) << STEP_SHIFT)
        | ((seg as u64) << SEG_SHIFT)
        | (seq & SEQ_MASK)
}

/// One (op, seq, phase, step) slot of the tag space; [`PhaseTag::seg`]
/// yields the wire tag of an individual segment in that slot.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PhaseTag {
    op: u8,
    seq: u64,
    phase: u8,
    step: u32,
}

impl PhaseTag {
    pub(crate) fn new(op: u8, seq: u64, phase: u8, step: u32) -> PhaseTag {
        PhaseTag {
            op,
            seq,
            phase,
            step,
        }
    }

    pub(crate) fn seg(self, seg: u32) -> u64 {
        coll_tag_at(self.op, self.seq, self.phase, self.step, seg)
    }
}

/// Plain-old-data element codec for typed collectives (canonical big-endian
/// on the wire).
pub trait Pod: Copy {
    const SIZE: usize;
    fn write(self, out: &mut Vec<u8>);
    fn read(buf: &[u8]) -> Self;
}

macro_rules! impl_pod {
    ($ty:ty, $size:expr) => {
        impl Pod for $ty {
            const SIZE: usize = $size;
            fn write(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_be_bytes());
            }
            #[expect(clippy::indexing_slicing, reason = "callers pass whole `SIZE` chunks")]
            fn read(buf: &[u8]) -> Self {
                <$ty>::from_be_bytes(buf[..$size].try_into().unwrap())
            }
        }
    };
}

impl_pod!(f64, 8);
impl_pod!(i64, 8);
impl_pod!(u64, 8);
impl_pod!(u32, 4);
impl_pod!(u8, 1);

/// Encode a slice of Pod elements.
pub fn encode_slice<T: Pod>(xs: &[T]) -> Vec<u8> {
    let mut out = Vec::with_capacity(xs.len() * T::SIZE);
    for x in xs {
        x.write(&mut out);
    }
    out
}

/// Decode a slice of Pod elements.
pub fn decode_slice<T: Pod>(buf: &[u8]) -> Result<Vec<T>> {
    if !buf.len().is_multiple_of(T::SIZE) {
        return Err(Error::codec("ragged Pod buffer"));
    }
    Ok(buf.chunks_exact(T::SIZE).map(T::read).collect())
}

/// Fold the big-endian elements of a received buffer into `acc` in place,
/// `*a = f(*a, theirs)` element by element: the buffer is never decoded
/// into a vector of its own.
fn fold_into<T: Pod>(acc: &mut [T], theirs: &[u8], f: impl Fn(T, T) -> T) -> Result<()> {
    if theirs.len() != acc.len() * T::SIZE {
        return Err(Error::invalid_arg("reduce buffers differ in length"));
    }
    for (a, b) in acc.iter_mut().zip(theirs.chunks_exact(T::SIZE)) {
        *a = f(*a, T::read(b));
    }
    Ok(())
}

/// Element-wise reduction operators (associative and commutative, as the
/// tree and ring algorithms require).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Prod,
    Min,
    Max,
}

/// Numeric element for reductions.
pub trait PodNum: Pod {
    fn reduce(op: ReduceOp, a: Self, b: Self) -> Self;
}

impl PodNum for f64 {
    fn reduce(op: ReduceOp, a: f64, b: f64) -> f64 {
        match op {
            ReduceOp::Sum => a + b,
            ReduceOp::Prod => a * b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

impl PodNum for i64 {
    fn reduce(op: ReduceOp, a: i64, b: i64) -> i64 {
        match op {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Prod => a.wrapping_mul(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

impl PodNum for u64 {
    fn reduce(op: ReduceOp, a: u64, b: u64) -> u64 {
        match op {
            ReduceOp::Sum => a.wrapping_add(b),
            ReduceOp::Prod => a.wrapping_mul(b),
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

// --- telemetry plumbing ------------------------------------------------

fn note(ep: &MpiEndpoint, id: MetricId, n: u64) {
    if let Some(m) = ep.metrics_handle() {
        m.add(id, n);
    }
}

// --- point-to-point plumbing -------------------------------------------

fn send_c<X: Transport>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    dst: Rank, // communicator rank
    tag: u64,
    data: &[u8],
) -> Result<()> {
    let world = comm.world_rank(dst)?;
    note(t.endpoint(), metric::COLL_BYTES_MOVED, data.len() as u64);
    t.send(clock, world, comm.context(), tag, data)
}

/// [`send_c`] of a buffer the library owns (one it encoded or received):
/// the buffer itself leaves, uncopied, eager or rendezvous.
fn send_owned_c<X: Transport>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    dst: Rank, // communicator rank
    tag: u64,
    data: Bytes,
) -> Result<()> {
    let world = comm.world_rank(dst)?;
    note(t.endpoint(), metric::COLL_BYTES_MOVED, data.len() as u64);
    let req = t.isend(clock, world, comm.context(), tag, data)?;
    t.wait(clock, req)
}

/// One unsegmented full-duplex step with `peer`: isend `data` (a buffer
/// the library owns), receive the peer's message under the same tag, then
/// retire the send. The isend-first order keeps two peers that both call
/// this from deadlocking at rendezvous sizes.
fn exchange_c<X: Transport>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    peer: Rank, // communicator rank
    tag: u64,
    data: Bytes,
) -> Result<RecvdMsg> {
    let world = comm.world_rank(peer)?;
    note(t.endpoint(), metric::COLL_BYTES_MOVED, data.len() as u64);
    let req = t.isend(clock, world, comm.context(), tag, data)?;
    let got = recv_c(t, comm, clock, peer, tag)?;
    t.wait(clock, req)?;
    Ok(got)
}

fn recv_c<X: Transport>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    src: Rank, // communicator rank
    tag: u64,
) -> Result<RecvdMsg> {
    let world = comm.world_rank(src)?;
    t.recv(clock, comm.context(), world, tag)
}

/// Segment count of a block of `len` bytes at `seg_bytes` per segment.
/// Zero-length blocks still cost one (empty) message so both sides agree.
fn seg_count(len: usize, seg_bytes: usize) -> u32 {
    len.div_ceil(seg_bytes).max(1) as u32
}

/// Start a segmented block send: the block is sliced into rendezvous-chunk-
/// aligned segments, each isent under its own `seg` tag. Returns the
/// requests; the caller must [`Transport::wait`] them (after posting its
/// own receives, so segment pipelines from both directions interleave).
fn isend_segments<X: Transport>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    dst: Rank,
    tag: PhaseTag,
    data: Bytes,
) -> Result<Vec<Request>> {
    let seg_bytes = t.endpoint().rendezvous_chunk_bytes().max(1);
    let nsegs = seg_count(data.len(), seg_bytes);
    let world = comm.world_rank(dst)?;
    note(t.endpoint(), metric::COLL_BYTES_MOVED, data.len() as u64);
    note(t.endpoint(), metric::COLL_SEGMENTS, nsegs as u64);
    let mut reqs = Vec::with_capacity(nsegs as usize);
    for i in 0..nsegs {
        let lo = i as usize * seg_bytes;
        let hi = (lo + seg_bytes).min(data.len());
        reqs.push(t.isend(clock, world, comm.context(), tag.seg(i), data.slice(lo..hi))?);
    }
    Ok(reqs)
}

/// Receive a segmented block of exactly `expect` bytes (see
/// [`isend_segments`]). Single-segment blocks come back as the zero-copy
/// arrival buffer; multi-segment blocks are assembled into one buffer.
fn recv_segments<X: Transport>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    src: Rank,
    tag: PhaseTag,
    expect: usize,
) -> Result<Bytes> {
    let seg_bytes = t.endpoint().rendezvous_chunk_bytes().max(1);
    let nsegs = seg_count(expect, seg_bytes);
    if nsegs == 1 {
        let m = recv_c(t, comm, clock, src, tag.seg(0))?;
        if m.data.len() != expect {
            return Err(Error::codec("collective segment length mismatch"));
        }
        return Ok(m.data);
    }
    let mut buf = Vec::with_capacity(expect);
    for i in 0..nsegs {
        buf.extend_from_slice(&recv_c(t, comm, clock, src, tag.seg(i))?.data);
    }
    if buf.len() != expect {
        return Err(Error::codec("collective segment length mismatch"));
    }
    Ok(Bytes::from(buf))
}

/// One full-duplex step: isend `out` to `dst` (segmented), receive `expect`
/// bytes from `src`, then retire the send requests. The isend-first order
/// is what makes rings and doubling exchanges deadlock-free.
#[expect(clippy::too_many_arguments, reason = "peers, tag, blob and length")]
fn exchange_segments<X: Transport>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    dst: Rank,
    src: Rank,
    tag: PhaseTag,
    out: Bytes,
    expect: usize,
) -> Result<Bytes> {
    let reqs = isend_segments(t, comm, clock, dst, tag, out)?;
    let got = recv_segments(t, comm, clock, src, tag, expect)?;
    for r in reqs {
        t.wait(clock, r)?;
    }
    Ok(got)
}

// --- core tree algorithms ----------------------------------------------

/// `MPI_Barrier`: dissemination algorithm, ⌈log₂ n⌉ rounds.
pub fn barrier<X: Transport>(t: &mut X, comm: &mut Comm, clock: &mut X::Clock) -> Result<()> {
    let n = comm.size() as usize;
    let me = comm.rank().index();
    let seq = comm.next_coll_seq();
    let mut k = 1usize;
    let mut round = 0u32;
    while k < n {
        let tag = PhaseTag::new(OP_BARRIER, seq, PHASE_MAIN, round).seg(0);
        let to = Rank(((me + k) % n) as u32);
        let from = Rank(((me + n - k) % n) as u32);
        send_c(t, comm, clock, to, tag, &[])?;
        recv_c(t, comm, clock, from, tag)?;
        k <<= 1;
        round += 1;
    }
    Ok(())
}

/// Binomial-tree broadcast of `data` from `root` to the `span` ranks
/// `root, root + 1, …` (mod n) under an explicit tag; only those ranks call
/// it. Non-roots receive into the returned buffer, which aliases the
/// arrival buffer (no copy per tree level).
fn binomial_bcast_raw<X: Transport>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    root: Rank,
    span: usize,
    data: Bytes,
    tag: u64,
) -> Result<Bytes> {
    let n = comm.size() as usize;
    let me = comm.rank().index();
    let vr = (me + n - root.index()) % n;
    let mut buf = data;
    // Receive from parent (non-root).
    let mut mask = 1usize;
    while mask < span {
        if vr & mask != 0 {
            let src = Rank(((me + n - mask) % n) as u32);
            buf = recv_c(t, comm, clock, src, tag)?.data;
            break;
        }
        mask <<= 1;
    }
    // Forward to children.
    mask >>= 1;
    while mask > 0 {
        if vr + mask < span {
            let dst = Rank(((me + mask) % n) as u32);
            send_owned_c(t, comm, clock, dst, tag, buf.clone())?;
        }
        mask >>= 1;
    }
    Ok(buf)
}

/// Binomial combine tree over the `span` ranks `root, root + 1, …` (mod n),
/// the mirror of [`binomial_bcast_raw`]: each rank folds its children's
/// partials into `acc` in place, `acc` first, then sends `acc` to its
/// parent. Returns whether this rank is `root`, the one left holding the
/// reduction of all `span` contributions.
#[expect(clippy::too_many_arguments, reason = "one binomial reduction")]
fn binomial_reduce_raw<X: Transport, T: PodNum>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    root: Rank,
    span: usize,
    acc: &mut [T],
    op: ReduceOp,
    tag: u64,
) -> Result<bool> {
    let n = comm.size() as usize;
    let me = comm.rank().index();
    let vr = (me + n - root.index()) % n;
    let mut mask = 1usize;
    while mask < span {
        if vr & mask != 0 {
            let dst = Rank(((me + n - mask) % n) as u32);
            send_owned_c(t, comm, clock, dst, tag, encode_slice(acc).into())?;
            return Ok(false);
        }
        if vr + mask < span {
            let src = Rank(((me + mask) % n) as u32);
            let m = recv_c(t, comm, clock, src, tag)?;
            fold_into(acc, &m.data, |a, b| T::reduce(op, a, b))?;
        }
        mask <<= 1;
    }
    Ok(true)
}

/// Broadcast the payload length from `root` on the control phase, so every
/// rank can run the selector (and the van de Geijn chunk arithmetic) on
/// shared knowledge.
fn bcast_len_header<X: Transport>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    seq: u64,
    root: Rank,
    len_at_root: usize,
) -> Result<usize> {
    let tag = PhaseTag::new(OP_BCAST, seq, PHASE_CTRL, 0).seg(0);
    let hdr = if comm.rank() == root {
        Bytes::copy_from_slice(&(len_at_root as u64).to_be_bytes())
    } else {
        Bytes::new()
    };
    let got = binomial_bcast_raw(t, comm, clock, root, comm.size() as usize, hdr, tag)?;
    let len = <[u8; 8]>::try_from(got.as_ref())
        .map_err(|_| Error::codec("bcast length header truncated"))?;
    Ok(u64::from_be_bytes(len) as usize)
}

/// `MPI_Bcast` of raw bytes from communicator rank `root`. A length header
/// rides the binomial tree first (control phase), then the
/// [`CollAlgoSelector`] picks binomial vs scatter+allgather from the
/// now-shared (size, group) key.
pub fn bcast<X: Transport>(
    t: &mut X,
    comm: &mut Comm,
    clock: &mut X::Clock,
    root: Rank,
    data: Bytes,
) -> Result<Bytes> {
    let n = comm.size() as usize;
    let seq = comm.next_coll_seq();
    let len = bcast_len_header(t, comm, clock, seq, root, data.len())?;
    let algo = t.endpoint().coll_selector().select_bcast(len, n);
    run_bcast(t, comm, clock, root, data, len, seq, algo)
}

/// `MPI_Bcast` with a forced algorithm. `Binomial` sends no length header;
/// `ScatterAllgather` needs one so non-roots can size their chunks.
pub fn bcast_with<X: Transport>(
    t: &mut X,
    comm: &mut Comm,
    clock: &mut X::Clock,
    root: Rank,
    data: Bytes,
    algo: BcastAlgo,
) -> Result<Bytes> {
    let seq = comm.next_coll_seq();
    let len = match algo {
        BcastAlgo::Binomial => data.len(),
        BcastAlgo::ScatterAllgather => bcast_len_header(t, comm, clock, seq, root, data.len())?,
    };
    run_bcast(t, comm, clock, root, data, len, seq, algo)
}

#[expect(clippy::too_many_arguments, reason = "one broadcast's parameters")]
fn run_bcast<X: Transport>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    root: Rank,
    data: Bytes,
    len: usize,
    seq: u64,
    algo: BcastAlgo,
) -> Result<Bytes> {
    note(t.endpoint(), algo.metric(), 1);
    let t0 = t.now(clock);
    let out = match algo {
        BcastAlgo::Binomial => {
            let tag = PhaseTag::new(OP_BCAST, seq, PHASE_MAIN, 0).seg(0);
            binomial_bcast_raw(t, comm, clock, root, comm.size() as usize, data, tag)
        }
        BcastAlgo::ScatterAllgather => vdg::bcast(t, comm, clock, seq, root, data, len),
    }?;
    t.endpoint()
        .recorder()
        .span(t0, t.now(clock), "coll.bcast", algo.name());
    Ok(out)
}

/// `MPI_Reduce` to communicator rank `root`: binomial combine tree. Returns
/// `Some(result)` at the root, `None` elsewhere.
pub fn reduce<X: Transport, T: PodNum>(
    t: &mut X,
    comm: &mut Comm,
    clock: &mut X::Clock,
    root: Rank,
    data: &[T],
    op: ReduceOp,
) -> Result<Option<Vec<T>>> {
    let n = comm.size() as usize;
    let tag = PhaseTag::new(OP_REDUCE, comm.next_coll_seq(), PHASE_MAIN, 0).seg(0);
    let mut acc: Vec<T> = data.to_vec();
    let at_root = binomial_reduce_raw(t, comm, clock, root, n, &mut acc, op, tag)?;
    Ok(at_root.then_some(acc))
}

/// `MPI_Allreduce`. The [`CollAlgoSelector`] picks the algorithm from the
/// payload size (symmetric across ranks by MPI semantics) and group size.
pub fn allreduce<X: Transport, T: PodNum>(
    t: &mut X,
    comm: &mut Comm,
    clock: &mut X::Clock,
    data: &[T],
    op: ReduceOp,
) -> Result<Vec<T>> {
    let n = comm.size() as usize;
    let algo = t
        .endpoint()
        .coll_selector()
        .select_allreduce(data.len() * T::SIZE, n);
    allreduce_with(t, comm, clock, data, op, algo)
}

/// `MPI_Allreduce` with a forced algorithm (every rank must force the same
/// one — the usual MPI symmetric-call rule).
pub fn allreduce_with<X: Transport, T: PodNum>(
    t: &mut X,
    comm: &mut Comm,
    clock: &mut X::Clock,
    data: &[T],
    op: ReduceOp,
    algo: AllreduceAlgo,
) -> Result<Vec<T>> {
    note(t.endpoint(), algo.metric(), 1);
    let t0 = t.now(clock);
    let out = match algo {
        AllreduceAlgo::ReduceBcast => {
            let seq = comm.next_coll_seq();
            allreduce_halves(t, comm, clock, seq, data, op)
        }
        AllreduceAlgo::RecursiveDoubling => {
            let seq = comm.next_coll_seq();
            rdouble::allreduce(t, comm, clock, seq, data, op)
        }
        AllreduceAlgo::Ring => {
            let seq = comm.next_coll_seq();
            ring::allreduce(t, comm, clock, seq, data, op)
        }
    }?;
    t.endpoint()
        .recorder()
        .span(t0, t.now(clock), "coll.allreduce", algo.name());
    Ok(out)
}

/// Reduce + bcast that meets in the middle: a binomial reduce inside each
/// half, `[0, h)` and `[h, n)` with `h = ⌈n/2⌉`, to the half's lowest rank;
/// one full-duplex exchange of the two partials between those half roots;
/// a binomial bcast inside each half. 2(n−1) full-vector messages, as
/// reduce to rank 0 then bcast, in 2⌈log₂ n⌉ − 1 rounds instead of
/// 2⌈log₂ n⌉: the top reduce hop and the top bcast hop cross the link
/// between the half roots at once. Both roots combine the lower half's
/// partial first, so every rank returns the same bits; for a power-of-two
/// n they are the bits of `reduce` to rank 0 + binomial `bcast`.
/// Tag steps: 0 = reduce, 1 = exchange, 2 = bcast.
fn allreduce_halves<X: Transport, T: PodNum>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    seq: u64,
    data: &[T],
    op: ReduceOp,
) -> Result<Vec<T>> {
    let n = comm.size() as usize;
    let me = comm.rank().index();
    let h = n.div_ceil(2);
    let (lo, span) = if me < h { (0, h) } else { (h, n - h) };
    let root = Rank(lo as u32);
    let tag = |step: u32| PhaseTag::new(OP_ALLREDUCE, seq, PHASE_MAIN, step).seg(0);
    let mut acc: Vec<T> = data.to_vec();
    let is_root = binomial_reduce_raw(t, comm, clock, root, span, &mut acc, op, tag(0))?;
    let mut out = Bytes::new();
    if is_root && n > 1 {
        let peer = Rank((h - lo) as u32);
        let theirs = exchange_c(t, comm, clock, peer, tag(1), encode_slice(&acc).into())?;
        if lo == 0 {
            fold_into(&mut acc, &theirs.data, |mine, up| T::reduce(op, mine, up))?;
        } else {
            fold_into(&mut acc, &theirs.data, |mine, low| T::reduce(op, low, mine))?;
        }
        if span > 1 {
            out = encode_slice(&acc).into();
        }
    }
    let got = binomial_bcast_raw(t, comm, clock, root, span, out, tag(2))?;
    if !is_root {
        fold_into(&mut acc, &got, |_, result| result)?;
    }
    Ok(acc)
}

/// `MPI_Gather` of per-rank byte blobs to `root`. Returns `Some(blobs)` in
/// communicator-rank order at the root, `None` elsewhere. Each received
/// blob aliases its arrival buffer — the root copies nothing but its own
/// contribution.
#[expect(clippy::indexing_slicing, reason = "`me.index() < n = out.len()`")]
pub fn gather<X: Transport>(
    t: &mut X,
    comm: &mut Comm,
    clock: &mut X::Clock,
    root: Rank,
    data: &[u8],
) -> Result<Option<Vec<Bytes>>> {
    let n = comm.size() as usize;
    let me = comm.rank();
    let tag = PhaseTag::new(OP_GATHER, comm.next_coll_seq(), PHASE_MAIN, 0).seg(0);
    if me == root {
        let mut out: Vec<Bytes> = vec![Bytes::new(); n];
        out[me.index()] = Bytes::copy_from_slice(data);
        for (i, slot) in out.iter_mut().enumerate() {
            if i == me.index() {
                continue;
            }
            let m = recv_c(t, comm, clock, Rank(i as u32), tag)?;
            *slot = m.data;
        }
        Ok(Some(out))
    } else {
        send_c(t, comm, clock, root, tag, data)?;
        Ok(None)
    }
}

/// `MPI_Scatter` of per-rank byte blobs from `root` (which passes
/// `Some(blobs)`, one per rank). Returns this rank's blob.
#[expect(clippy::indexing_slicing, reason = "`blobs.len() == n` checked above")]
pub fn scatter<X: Transport>(
    t: &mut X,
    comm: &mut Comm,
    clock: &mut X::Clock,
    root: Rank,
    data: Option<Vec<Bytes>>,
) -> Result<Bytes> {
    let n = comm.size() as usize;
    let me = comm.rank();
    let tag = PhaseTag::new(OP_SCATTER, comm.next_coll_seq(), PHASE_MAIN, 0).seg(0);
    if me == root {
        let blobs = data.ok_or_else(|| Error::invalid_arg("scatter root must supply the blobs"))?;
        if blobs.len() != n {
            return Err(Error::invalid_arg(format!(
                "scatter needs {n} blobs, got {}",
                blobs.len()
            )));
        }
        for (i, blob) in blobs.iter().enumerate() {
            if i != me.index() {
                send_owned_c(t, comm, clock, Rank(i as u32), tag, blob.clone())?;
            }
        }
        Ok(blobs[me.index()].clone())
    } else {
        Ok(recv_c(t, comm, clock, root, tag)?.data)
    }
}

/// `MPI_Allgather` of per-rank blobs. Blob lengths circulate in a Bruck
/// pre-round first (control phase, ⌈log₂ n⌉ tiny messages), which both
/// feeds the selector a rank-symmetric total and lets the ring/Bruck data
/// phases run without per-blob framing.
pub fn allgather<X: Transport>(
    t: &mut X,
    comm: &mut Comm,
    clock: &mut X::Clock,
    data: &[u8],
) -> Result<Vec<Bytes>> {
    let n = comm.size() as usize;
    let seq = comm.next_coll_seq();
    let lens = bruck::exchange_lens(t, comm, clock, seq, data.len())?;
    let total: usize = lens.iter().sum();
    let algo = t.endpoint().coll_selector().select_allgather(total, n);
    run_allgather(t, comm, clock, seq, data, Some(lens), algo)
}

/// `MPI_Allgather` with a forced algorithm. `GatherBcast` runs no length
/// pre-round; `Bruck`/`Ring` run it themselves.
pub fn allgather_with<X: Transport>(
    t: &mut X,
    comm: &mut Comm,
    clock: &mut X::Clock,
    data: &[u8],
    algo: AllgatherAlgo,
) -> Result<Vec<Bytes>> {
    match algo {
        AllgatherAlgo::GatherBcast => run_allgather(t, comm, clock, 0, data, None, algo),
        AllgatherAlgo::Bruck | AllgatherAlgo::Ring => {
            let seq = comm.next_coll_seq();
            let lens = bruck::exchange_lens(t, comm, clock, seq, data.len())?;
            run_allgather(t, comm, clock, seq, data, Some(lens), algo)
        }
    }
}

fn run_allgather<X: Transport>(
    t: &mut X,
    comm: &mut Comm,
    clock: &mut X::Clock,
    seq: u64,
    data: &[u8],
    lens: Option<Vec<usize>>,
    algo: AllgatherAlgo,
) -> Result<Vec<Bytes>> {
    note(t.endpoint(), algo.metric(), 1);
    let t0 = t.now(clock);
    #[expect(clippy::expect_used, reason = "Bruck and Ring run the lens pre-round")]
    let out = match algo {
        AllgatherAlgo::GatherBcast => allgather_gather_bcast(t, comm, clock, data),
        AllgatherAlgo::Bruck => {
            bruck::allgather(t, comm, clock, seq, data, &lens.expect("lens pre-round"))
        }
        AllgatherAlgo::Ring => {
            ring::allgather(t, comm, clock, seq, data, &lens.expect("lens pre-round"))
        }
    }?;
    t.endpoint()
        .recorder()
        .span(t0, t.now(clock), "coll.allgather", algo.name());
    Ok(out)
}

/// Gather to rank 0, then broadcast the concatenation (wire layout in the
/// module docs). Every returned blob is a zero-copy slice of the single
/// broadcast buffer.
fn allgather_gather_bcast<X: Transport>(
    t: &mut X,
    comm: &mut Comm,
    clock: &mut X::Clock,
    data: &[u8],
) -> Result<Vec<Bytes>> {
    let gathered = gather(t, comm, clock, Rank(0), data)?;
    let framed = gathered.map(|blobs| {
        let total: usize = 4 + blobs.iter().map(|b| 4 + b.len()).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&(blobs.len() as u32).to_be_bytes());
        for b in &blobs {
            out.extend_from_slice(&(b.len() as u32).to_be_bytes());
            out.extend_from_slice(b);
        }
        Bytes::from(out)
    });
    let bytes = bcast_with(
        t,
        comm,
        clock,
        Rank(0),
        framed.unwrap_or_default(),
        BcastAlgo::Binomial,
    )?;
    // Unframe by slicing the shared buffer.
    let mut out = Vec::new();
    let mut pos = 4usize;
    if bytes.len() < 4 {
        return Err(Error::codec("allgather frame too short"));
    }
    #[expect(clippy::indexing_slicing, reason = "`bytes.len() >= 4`")]
    #[expect(clippy::unwrap_used, reason = "a 4-byte slice")]
    let count = u32::from_be_bytes(bytes[0..4].try_into().unwrap()) as usize;
    for _ in 0..count {
        if pos + 4 > bytes.len() {
            return Err(Error::codec("allgather frame truncated"));
        }
        #[expect(clippy::indexing_slicing, reason = "`pos + 4 <= bytes.len()`")]
        #[expect(clippy::unwrap_used, reason = "a 4-byte slice")]
        let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        pos += 4;
        if pos + len > bytes.len() {
            return Err(Error::codec("allgather frame truncated"));
        }
        out.push(bytes.slice(pos..pos + len));
        pos += len;
    }
    Ok(out)
}

/// `MPI_Alltoall` of per-destination blobs (`send[i]` goes to communicator
/// rank `i`); returns per-source blobs, each aliasing its arrival buffer
/// (only this rank's own blob is copied).
#[expect(clippy::indexing_slicing, reason = "`send.len() == n`; index mod `n`")]
pub fn alltoall<X: Transport>(
    t: &mut X,
    comm: &mut Comm,
    clock: &mut X::Clock,
    send: &[Vec<u8>],
) -> Result<Vec<Bytes>> {
    let n = comm.size() as usize;
    let me = comm.rank().index();
    if send.len() != n {
        return Err(Error::invalid_arg(format!(
            "alltoall needs {n} blobs, got {}",
            send.len()
        )));
    }
    let tag = PhaseTag::new(OP_ALLTOALL, comm.next_coll_seq(), PHASE_MAIN, 0).seg(0);
    let mut out: Vec<Bytes> = vec![Bytes::new(); n];
    out[me] = Bytes::copy_from_slice(&send[me]);
    // Pairwise exchange: round r pairs me with me^r is only valid for powers
    // of two; use the simple shifted schedule instead.
    for r in 1..n {
        let dst = (me + r) % n;
        let src = (me + n - r) % n;
        send_c(t, comm, clock, Rank(dst as u32), tag, &send[dst])?;
        let m = recv_c(t, comm, clock, Rank(src as u32), tag)?;
        out[src] = m.data;
    }
    Ok(out)
}

/// `MPI_Scan` (inclusive prefix reduction in communicator-rank order).
pub fn scan<X: Transport, T: PodNum>(
    t: &mut X,
    comm: &mut Comm,
    clock: &mut X::Clock,
    data: &[T],
    op: ReduceOp,
) -> Result<Vec<T>> {
    let n = comm.size() as usize;
    let me = comm.rank().index();
    let tag = PhaseTag::new(OP_SCAN, comm.next_coll_seq(), PHASE_MAIN, 0).seg(0);
    let mut acc: Vec<T> = data.to_vec();
    if me > 0 {
        let m = recv_c(t, comm, clock, Rank((me - 1) as u32), tag)?;
        fold_into(&mut acc, &m.data, |a, prev| T::reduce(op, prev, a))?;
    }
    if me + 1 < n {
        let next = Rank((me + 1) as u32);
        send_owned_c(t, comm, clock, next, tag, encode_slice(&acc).into())?;
    }
    Ok(acc)
}

/// `MPI_Comm_split`: members with the same `color` form a new communicator,
/// ordered by `(key, world rank)`. Returns `None` for `color == None`
/// (MPI_UNDEFINED). The `(color, key)` pairs travel by an `exchange`
/// allgather.
pub fn comm_split<X: Transport>(
    t: &mut X,
    comm: &mut Comm,
    clock: &mut X::Clock,
    color: Option<u32>,
    key: u32,
    exchange: AllgatherAlgo,
) -> Result<Option<Comm>> {
    let mut mine = Vec::with_capacity(8);
    mine.extend_from_slice(&color.unwrap_or(u32::MAX).to_be_bytes());
    mine.extend_from_slice(&key.to_be_bytes());
    let all = allgather_with(t, comm, clock, &mine, exchange)?;
    let Some(my_color) = color else {
        return Ok(None);
    };
    let mut members: Vec<(u32, Rank)> = Vec::new();
    #[expect(clippy::indexing_slicing, reason = "each blob has 8 bytes")]
    #[expect(clippy::unwrap_used, reason = "4-byte slices")]
    for (i, blob) in all.iter().enumerate() {
        if blob.len() != 8 {
            return Err(Error::codec("bad split blob"));
        }
        let c = u32::from_be_bytes(blob[0..4].try_into().unwrap());
        let k = u32::from_be_bytes(blob[4..8].try_into().unwrap());
        if c == my_color {
            members.push((k, comm.world_rank(Rank(i as u32))?));
        }
    }
    members.sort();
    let world_members: Vec<Rank> = members.into_iter().map(|(_, r)| r).collect();
    let new_ctx = crate::comm::derive_context(
        comm.context(),
        my_color
            .wrapping_mul(2654435761)
            .wrapping_add(OP_SPLIT as u32),
    );
    let me_world = comm.world_rank(comm.rank())?;
    Ok(Some(Comm::from_members(new_ctx, world_members, me_world)?))
}

#[cfg(test)]
mod tests;
