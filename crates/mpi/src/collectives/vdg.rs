//! van de Geijn broadcast: scatter + ring allgather.
//!
//! The root splits the payload into n balanced byte chunks and sends each
//! rank its chunk (scatter phase, segmented); a ring allgather then
//! circulates the chunks so every rank reassembles the whole payload.
//! Every rank moves ~2m bytes regardless of n — for large payloads this
//! beats the binomial tree, which pushes the full m across every tree
//! edge. Chunk indices live in root-relative virtual-rank space, so the
//! ring neighbours are the real `me ± 1` ring.

use bytes::Bytes;

use starfish_util::{Error, Rank, Result};

use super::ring::block_range;
use super::{
    check_group_size, exchange_segments, isend_segments, recv_segments, Comm, PhaseTag, Transport,
    OP_BCAST, PHASE_AG, PHASE_MAIN,
};

pub(super) fn bcast<X: Transport>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    seq: u64,
    root: Rank,
    data: Bytes,
    len: usize,
) -> Result<Bytes> {
    let n = comm.size() as usize;
    let me = comm.rank().index();
    if n == 1 {
        return Ok(data);
    }
    check_group_size(n)?;
    let vr = (me + n - root.index()) % n;

    // Phase 1: the root scatters chunk `v` to virtual rank `v`.
    let mut chunks: Vec<Bytes> = vec![Bytes::new(); n];
    if me == root.index() {
        if data.len() != len {
            return Err(Error::invalid_arg("bcast length header mismatch"));
        }
        let mut reqs = Vec::new();
        for v in 1..n {
            let dst = Rank(((v + root.index()) % n) as u32);
            let (lo, hi) = block_range(len, n, v);
            reqs.extend(isend_segments(
                t,
                comm,
                clock,
                dst,
                PhaseTag::new(OP_BCAST, seq, PHASE_MAIN, v as u32),
                data.slice(lo..hi),
            )?);
        }
        let (lo, hi) = block_range(len, n, 0);
        chunks[0] = data.slice(lo..hi);
        for r in reqs {
            t.wait(clock, r)?;
        }
    } else {
        let (lo, hi) = block_range(len, n, vr);
        chunks[vr] = recv_segments(
            t,
            comm,
            clock,
            root,
            PhaseTag::new(OP_BCAST, seq, PHASE_MAIN, vr as u32),
            hi - lo,
        )?;
    }

    // Phase 2: ring allgather of the chunks in virtual-rank space.
    let right = Rank(((me + 1) % n) as u32);
    let left = Rank(((me + n - 1) % n) as u32);
    for s in 0..n - 1 {
        let send_b = (vr + n - s) % n;
        let recv_b = (vr + n - s - 1) % n;
        let (rlo, rhi) = block_range(len, n, recv_b);
        chunks[recv_b] = exchange_segments(
            t,
            comm,
            clock,
            right,
            left,
            PhaseTag::new(OP_BCAST, seq, PHASE_AG, s as u32),
            chunks[send_b].clone(),
            rhi - rlo,
        )?;
    }

    if me == root.index() {
        return Ok(data);
    }
    let mut buf = Vec::with_capacity(len);
    for chunk in &chunks {
        buf.extend_from_slice(chunk);
    }
    debug_assert_eq!(buf.len(), len);
    Ok(Bytes::from(buf))
}
