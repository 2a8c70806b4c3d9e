//! Bruck's allgather — ⌈log₂ n⌉ rounds of doubling block exchanges.
//!
//! Rank `me` keeps a rotated block list starting `[own blob]` where slot
//! `j` holds the blob of rank `me + j` (mod n). In the round where it
//! holds `d` blocks it sends its first `min(d, n − d)` blocks to rank
//! `me − d` and appends the same count received from rank `me + d`; after
//! ⌈log₂ n⌉ rounds the list is complete and gets un-rotated.
//!
//! The same skeleton runs twice per allgather: once over fixed 4-byte
//! length entries (the control pre-round that also feeds the selector) and
//! once over the blobs themselves, split on the now-shared lengths — so
//! blob messages need no framing.

use bytes::Bytes;

use starfish_util::codec::{Decode, Encode};
use starfish_util::{Error, Rank, Result};

use super::{
    check_group_size, exchange_segments, Comm, PhaseTag, Transport, OP_ALLGATHER, PHASE_CTRL,
    PHASE_MAIN,
};

/// One Bruck circulation. `lens_rot[j]` must hold the byte length of the
/// blob of rank `me + j` (mod n); `blocks` starts as `[own blob]` and ends
/// with all `n` blobs in rotated order.
#[expect(clippy::indexing_slicing, reason = "`cnt <= have`, `have + cnt <= n`")]
fn rounds<X: Transport>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    phase_of: impl Fn(u32) -> PhaseTag,
    lens_rot: &[usize],
    blocks: &mut Vec<Bytes>,
) -> Result<()> {
    let n = comm.size() as usize;
    let me = comm.rank().index();
    let mut step = 0u32;
    while blocks.len() < n {
        let have = blocks.len();
        let cnt = have.min(n - have);
        let dst = Rank(((me + n - have) % n) as u32);
        let src = Rank(((me + have) % n) as u32);
        let out: Bytes = if cnt == 1 {
            blocks[0].clone()
        } else {
            let mut buf = Vec::with_capacity(blocks[..cnt].iter().map(Bytes::len).sum());
            for b in &blocks[..cnt] {
                buf.extend_from_slice(b);
            }
            Bytes::from(buf)
        };
        let expect: usize = lens_rot[have..have + cnt].iter().sum();
        let got = exchange_segments(t, comm, clock, dst, src, phase_of(step), out, expect)?;
        let mut pos = 0usize;
        for j in 0..cnt {
            let len = lens_rot[have + j];
            blocks.push(got.slice(pos..pos + len));
            pos += len;
        }
        step += 1;
    }
    Ok(())
}

/// Un-rotate `blocks` (slot `j` = rank `me + j` mod n) into rank order.
fn unrotate<T: Clone + Default>(me: usize, n: usize, blocks: &[T]) -> Vec<T> {
    let mut out = vec![T::default(); n];
    #[expect(clippy::indexing_slicing, reason = "index mod `n` = `out.len()`")]
    for (j, b) in blocks.iter().enumerate() {
        out[(me + j) % n] = b.clone();
    }
    out
}

/// The length pre-round: circulate every rank's blob length (4-byte BE
/// entries on the control phase). Returns lengths in rank order.
pub(super) fn exchange_lens<X: Transport>(
    t: &mut X,
    comm: &Comm,
    clock: &mut X::Clock,
    seq: u64,
    my_len: usize,
) -> Result<Vec<usize>> {
    let n = comm.size() as usize;
    let me = comm.rank().index();
    check_group_size(n)?;
    let entry = u32::try_from(my_len)
        .map_err(|_| Error::invalid_arg("allgather blob exceeds u32 length"))?;
    let mut blocks = vec![entry.encode_to_bytes()];
    let lens_rot = vec![4usize; n];
    rounds(
        t,
        comm,
        clock,
        |step| PhaseTag::new(OP_ALLGATHER, seq, PHASE_CTRL, step),
        &lens_rot,
        &mut blocks,
    )?;
    block_lens(&unrotate(me, n, &blocks))
}

/// The lengths the pre-round's blocks carry, one `u32` each. The blocks
/// came from peers: one of another size is an error, not a panic.
fn block_lens(blocks: &[Bytes]) -> Result<Vec<usize>> {
    let len = |b: &Bytes| Ok(u32::decode_from_bytes(b)? as usize);
    blocks.iter().map(len).collect()
}

/// Bruck allgather of the blobs themselves, lengths already shared.
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
    #[expect(clippy::indexing_slicing, reason = "index mod `n` = `lens.len()`")]
    let lens_rot: Vec<usize> = (0..n).map(|j| lens[(me + j) % n]).collect();
    let mut blocks = vec![Bytes::copy_from_slice(data)];
    rounds(
        t,
        comm,
        clock,
        |step| PhaseTag::new(OP_ALLGATHER, seq, PHASE_MAIN, step),
        &lens_rot,
        &mut blocks,
    )?;
    Ok(unrotate(me, n, &blocks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_short_length_block_is_an_error() {
        let blocks = [
            Bytes::from_static(&[0, 0, 0, 7]),
            Bytes::from_static(&[0, 0, 1]),
        ];
        assert!(block_lens(&blocks).is_err());
        assert_eq!(block_lens(&blocks[..1]).unwrap(), vec![7]);
    }
}
