//! Recursive-doubling allreduce — the latency-optimal arm.
//!
//! For n a power of two: ⌈log₂ n⌉ rounds, round `k` pairing virtual rank
//! `v` with `v XOR 2^k`, each pair exchanging full vectors and reducing.
//! For other n the standard fold brings the group to `p = 2^⌊log₂ n⌋`
//! participants first: the lowest `2r` ranks (`r = n − p`) pair up, the
//! even member folds its vector into the odd one and sits out, and after
//! the doubling rounds gets the result back. Tag steps: 0 = pre-fold,
//! 1..=⌈log₂ p⌉ = doubling rounds, last = post-fold.

use bytes::Bytes;

use starfish_util::{Rank, Result};

use super::{
    decode_slice, encode_slice, exchange_segments, isend_segments, recv_segments, Comm, PhaseTag,
    PodNum, ReduceOp, Transport, OP_ALLREDUCE, PHASE_MAIN,
};

/// Real rank of virtual rank `v` after the fold (`r` = excess ranks).
fn real_rank(v: usize, r: usize) -> usize {
    if v < r {
        2 * v + 1
    } else {
        v + r
    }
}

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
    let mut acc: Vec<T> = data.to_vec();
    if n == 1 {
        return Ok(acc);
    }
    let p = 1usize << (usize::BITS - 1 - n.leading_zeros());
    let r = n - p;
    let expect = acc.len() * T::SIZE;
    let tag = |step: u32| PhaseTag::new(OP_ALLREDUCE, seq, PHASE_MAIN, step);

    // Pre-fold: even member of each low pair sends its vector to the odd
    // member and waits for the result after the doubling rounds.
    let vrank = if me < 2 * r {
        if me.is_multiple_of(2) {
            let reqs = isend_segments(
                t,
                comm,
                clock,
                Rank((me + 1) as u32),
                tag(0),
                Bytes::from(encode_slice(&acc)),
            )?;
            for q in reqs {
                t.wait(clock, q)?;
            }
            None
        } else {
            let got = recv_segments(t, comm, clock, Rank((me - 1) as u32), tag(0), expect)?;
            let other: Vec<T> = decode_slice(&got)?;
            for (a, b) in acc.iter_mut().zip(other) {
                *a = T::reduce(op, *a, b);
            }
            Some(me / 2)
        }
    } else {
        Some(me - r)
    };

    if let Some(v) = vrank {
        let mut mask = 1usize;
        let mut step = 1u32;
        while mask < p {
            let peer = Rank(real_rank(v ^ mask, r) as u32);
            let out = Bytes::from(encode_slice(&acc));
            let got = exchange_segments(t, comm, clock, peer, peer, tag(step), out, expect)?;
            let other: Vec<T> = decode_slice(&got)?;
            for (a, b) in acc.iter_mut().zip(other) {
                *a = T::reduce(op, *a, b);
            }
            mask <<= 1;
            step += 1;
        }
    }

    // Post-fold: odd members hand the result back to their even partner.
    if me < 2 * r {
        let step = p.trailing_zeros() + 1;
        if me % 2 == 1 {
            let reqs = isend_segments(
                t,
                comm,
                clock,
                Rank((me - 1) as u32),
                tag(step),
                Bytes::from(encode_slice(&acc)),
            )?;
            for q in reqs {
                t.wait(clock, q)?;
            }
        } else {
            let got = recv_segments(t, comm, clock, Rank((me + 1) as u32), tag(step), expect)?;
            acc = decode_slice(&got)?;
        }
    }
    Ok(acc)
}
