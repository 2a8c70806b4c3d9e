//! Ring algorithms: reduce-scatter + allgather allreduce, and ring
//! allgather — the bandwidth-optimal arms.
//!
//! Both phases move data only between ring neighbours (`me → me+1 mod n`),
//! so every rank sends and receives exactly `2(n−1)/n · m` bytes for an
//! allreduce of `m` bytes — no link ever carries the whole payload and no
//! root is a funnel. Steps are full-duplex [`exchange_segments`] calls:
//! the send is posted first (non-blocking, segmented), then the matching
//! receive, so all n links are busy in every step.
//!
//! Index arithmetic (all mod n): in reduce-scatter step `s` rank `me`
//! sends block `me − s` and receives-and-reduces block `me − s − 1`; after
//! `n−1` steps it owns the fully reduced block `me + 1`. The allgather
//! phase then circulates the reduced blocks the same way: step `s` sends
//! block `me + 1 − s`, receives block `me − s`.

use bytes::Bytes;

use starfish_util::{Rank, Result};

use super::{
    check_group_size, encode_slice, exchange_segments, fold_into, Comm, PhaseTag, PodNum, ReduceOp,
    Transport, OP_ALLGATHER, OP_ALLREDUCE, PHASE_AG, PHASE_MAIN,
};

/// Element range `[lo, hi)` of block `b` when `total` elements are split
/// into `n` balanced contiguous blocks (the first `total % n` blocks get
/// one extra element).
pub(crate) fn block_range(total: usize, n: usize, b: usize) -> (usize, usize) {
    let base = total / n;
    let rem = total % n;
    let lo = b * base + b.min(rem);
    let hi = lo + base + usize::from(b < rem);
    (lo, hi)
}

/// Ring allreduce: reduce-scatter then ring allgather.
#[expect(clippy::indexing_slicing, reason = "blocks lie within `acc`")]
pub(super) fn allreduce<X: Transport, T: PodNum>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    seq: u64,
    data: &[T],
    op: ReduceOp,
) -> Result<Vec<T>> {
    let n = comm.size() as usize;
    let me = comm.rank().index();
    if n == 1 {
        return Ok(data.to_vec());
    }
    check_group_size(n)?;
    let mut acc: Vec<T> = data.to_vec();
    let m = acc.len();
    let right = Rank(((me + 1) % n) as u32);
    let left = Rank(((me + n - 1) % n) as u32);
    // Phase 1: reduce-scatter. After step s every rank has reduced s+1
    // contributions into block me − s (mod n).
    for s in 0..n - 1 {
        let send_b = (me + n - s) % n;
        let recv_b = (me + n - s - 1) % n;
        let (lo, hi) = block_range(m, n, send_b);
        let out = Bytes::from(encode_slice(&acc[lo..hi]));
        let (rlo, rhi) = block_range(m, n, recv_b);
        let tag = PhaseTag::new(OP_ALLREDUCE, seq, PHASE_MAIN, s as u32);
        let got = exchange_segments(t, comm, clock, right, left, tag, out, (rhi - rlo) * T::SIZE)?;
        fold_into(&mut acc[rlo..rhi], &got, |a, b| T::reduce(op, a, b))?;
    }
    // Phase 2: ring allgather of the reduced blocks (rank me owns block
    // me + 1 after the reduce-scatter).
    for s in 0..n - 1 {
        let send_b = (me + 1 + n - s) % n;
        let recv_b = (me + n - s) % n;
        let (lo, hi) = block_range(m, n, send_b);
        let out = Bytes::from(encode_slice(&acc[lo..hi]));
        let (rlo, rhi) = block_range(m, n, recv_b);
        let tag = PhaseTag::new(OP_ALLREDUCE, seq, PHASE_AG, s as u32);
        let got = exchange_segments(t, comm, clock, right, left, tag, out, (rhi - rlo) * T::SIZE)?;
        fold_into(&mut acc[rlo..rhi], &got, |_, b| b)?;
    }
    Ok(acc)
}

/// Ring allgather of per-rank blobs whose lengths are already known to
/// every rank (from the Bruck length pre-round): n−1 steps, each rank
/// forwards the blob it received in the previous step.
#[expect(clippy::indexing_slicing, reason = "index mod `n`, one slot per rank")]
pub(super) fn allgather<X: Transport>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    seq: u64,
    data: &[u8],
    lens: &[usize],
) -> Result<Vec<Bytes>> {
    let n = comm.size() as usize;
    let me = comm.rank().index();
    check_group_size(n)?;
    let mut out: Vec<Bytes> = vec![Bytes::new(); n];
    out[me] = Bytes::copy_from_slice(data);
    let right = Rank(((me + 1) % n) as u32);
    let left = Rank(((me + n - 1) % n) as u32);
    for s in 0..n - 1 {
        let send_b = (me + n - s) % n;
        let recv_b = (me + n - s - 1) % n;
        let tag = PhaseTag::new(OP_ALLGATHER, seq, PHASE_MAIN, s as u32);
        out[recv_b] = exchange_segments(
            t,
            comm,
            clock,
            right,
            left,
            tag,
            out[send_b].clone(),
            lens[recv_b],
        )?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::block_range;

    #[test]
    fn block_ranges_partition_exactly() {
        for total in [0usize, 1, 7, 64, 1023] {
            for n in [1usize, 2, 3, 5, 7, 13, 64] {
                let mut covered = 0;
                for b in 0..n {
                    let (lo, hi) = block_range(total, n, b);
                    assert_eq!(lo, covered, "block {b} of {total}/{n}");
                    assert!(hi >= lo);
                    covered = hi;
                    // Balanced: no block is more than one element bigger
                    // than any other.
                    assert!(hi - lo <= total / n + 1);
                }
                assert_eq!(covered, total);
            }
        }
    }
}
