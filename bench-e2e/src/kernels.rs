//! The pure, Starfish-free part of the workloads: seeded input generation,
//! payload checks, the two stencil kernels and their serial reference
//! replays. The jobs call the same functions as the replays, so a correct
//! run is bit-identical to its reference.

/// SplitMix64 step — the one generator every seeded input comes from.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Independent stream `lane` of seed `seed`, element `i`.
#[inline]
pub fn draw(seed: u64, lane: u64, i: u64) -> u64 {
    mix(mix(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F)).wrapping_add(i))
}

// ---- stream payloads ------------------------------------------------------

/// 8-byte payload of message `seq`: the value itself is sequence number and
/// checksum at once — the receiver recomputes it for the `seq` it expects.
#[inline]
pub fn small_payload(seed: u64, seq: u64) -> [u8; 8] {
    draw(seed, 1, seq).to_le_bytes()
}

pub const LARGE_BYTES: usize = 1 << 20;
const LARGE_HEADER: usize = 16;

fn body_sum(body: &[u8]) -> u64 {
    body.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .fold(0u64, u64::wrapping_add)
}

/// 1 MiB message template: seeded random body behind a 16-byte header that
/// [`stamp_large`] fills per message.
pub fn large_template(seed: u64) -> Vec<u8> {
    let mut buf = vec![0u8; LARGE_BYTES];
    for (i, c) in buf[LARGE_HEADER..].chunks_exact_mut(8).enumerate() {
        c.copy_from_slice(&draw(seed, 2, i as u64).to_le_bytes());
    }
    buf
}

/// Header = `[seq][body_sum ^ draw(seq)]`; returns the template's body sum
/// so the sender computes it once.
pub fn large_body_sum(template: &[u8]) -> u64 {
    body_sum(&template[LARGE_HEADER..])
}

#[inline]
pub fn stamp_large(buf: &mut [u8], seed: u64, seq: u64, sum: u64) {
    buf[..8].copy_from_slice(&seq.to_le_bytes());
    buf[8..16].copy_from_slice(&(sum ^ draw(seed, 3, seq)).to_le_bytes());
}

/// Full check of a received 1 MiB message: length, sequence number (FIFO
/// order) and a checksum over every body byte.
pub fn check_large(data: &[u8], seed: u64, expect_seq: u64) -> bool {
    if data.len() != LARGE_BYTES {
        return false;
    }
    let seq = u64::from_le_bytes(data[..8].try_into().expect("8 bytes"));
    let tag = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
    seq == expect_seq && body_sum(&data[LARGE_HEADER..]) ^ draw(seed, 3, seq) == tag
}

// ---- f64 rows on the wire --------------------------------------------------

pub fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    out.clear();
    out.reserve(xs.len() * 8);
    for x in xs {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// False (and `out` untouched) when the length does not match.
pub fn get_f64s(buf: &[u8], out: &mut [f64]) -> bool {
    if buf.len() != out.len() * 8 {
        return false;
    }
    for (o, c) in out.iter_mut().zip(buf.chunks_exact(8)) {
        *o = f64::from_le_bytes(c.try_into().expect("8-byte chunk"));
    }
    true
}

// ---- shared grid shape -------------------------------------------------------

/// Row length of both stencil kernels: one row is the 8 KiB halo.
pub const COLS: usize = 1024;

// ---- ft_jacobi: 5-point Jacobi relaxation -------------------------------------

/// Rows per rank: 128 × 1024 f64 = 1 MiB of checkpointed state.
pub const JACOBI_ROWS: usize = 128;

pub fn jacobi_init(seed: u64, rank: u64) -> Vec<f64> {
    (0..(JACOBI_ROWS * COLS) as u64)
        .map(|i| (draw(seed, 10 + rank, i) >> 11) as f64 * (100.0 / (1u64 << 53) as f64))
        .collect()
}

#[inline]
fn jacobi_row(out: &mut [f64], up: &[f64], mid: &[f64], down: &[f64]) {
    let n = mid.len();
    out[0] = 0.25 * (up[0] + down[0] + mid[0] + mid[1]);
    out[n - 1] = 0.25 * (up[n - 1] + down[n - 1] + mid[n - 2] + mid[n - 1]);
    // Equal-length windows zipped together: no bounds checks, so the loop
    // vectorises.
    let vertical = up[1..n - 1].iter().zip(&down[1..n - 1]);
    let horizontal = mid[..n - 2].iter().zip(&mid[2..]);
    for ((o, (u, d)), (l, r)) in out[1..n - 1].iter_mut().zip(vertical).zip(horizontal) {
        *o = 0.25 * (u + d + l + r);
    }
}

/// One relaxation sweep of a rank's block. `above`/`below` are the
/// neighbouring ranks' edge rows; `None` is the domain boundary, where the
/// block's own edge row is mirrored.
pub fn jacobi_sweep(grid: &[f64], above: Option<&[f64]>, below: Option<&[f64]>, next: &mut [f64]) {
    let rows = grid.len() / COLS;
    for r in 0..rows {
        let mid = &grid[r * COLS..(r + 1) * COLS];
        let up = if r > 0 {
            &grid[(r - 1) * COLS..r * COLS]
        } else {
            above.unwrap_or(mid)
        };
        let down = if r + 1 < rows {
            &grid[(r + 1) * COLS..(r + 2) * COLS]
        } else {
            below.unwrap_or(mid)
        };
        jacobi_row(&mut next[r * COLS..(r + 1) * COLS], up, mid, down);
    }
}

/// Crash-free, checkpoint-free serial replay of the 2-rank job.
pub fn jacobi_reference(seed: u64, iters: u64) -> [Vec<f64>; 2] {
    let mut g = [jacobi_init(seed, 0), jacobi_init(seed, 1)];
    let mut n = [vec![0.0; g[0].len()], vec![0.0; g[1].len()]];
    for _ in 0..iters {
        let (top, bottom) = g.split_at(1);
        let edge_of_top = &top[0][(JACOBI_ROWS - 1) * COLS..];
        let edge_of_bottom = &bottom[0][..COLS];
        jacobi_sweep(&top[0], None, Some(edge_of_bottom), &mut n[0]);
        jacobi_sweep(&bottom[0], Some(edge_of_top), None, &mut n[1]);
        std::mem::swap(&mut g, &mut n);
    }
    g
}

// ---- solver_allreduce: integer-valued Lanczos-shaped iteration --------------------

/// Four ranks on a ring: with their four polling threads, more busy threads
/// than the reference box has vCPUs — the one place that rule is knowingly
/// exceeded (README, non-workloads).
pub const SOLVER_RANKS: usize = 4;
/// Rows per rank: 32 × 1024 f64 = 256 KiB, the large allreduce's size.
pub const SOLVER_ROWS: usize = 32;

/// `v mod 1024`, exact for the small non-negative integer values the solver
/// produces (a handful of terms below 1024 each).
#[inline]
fn wrap(v: f64) -> f64 {
    f64::from(v as i32 & 1023)
}

pub fn solver_init(seed: u64, rank: u64) -> Vec<f64> {
    (0..(SOLVER_ROWS * COLS) as u64)
        .map(|i| (draw(seed, 20 + rank, i) % 1024) as f64)
        .collect()
}

/// `y = (up + down + left + right + 4·x) mod 1024` on a periodic domain:
/// rows wrap through the ring neighbours' halos, columns wrap in place.
pub fn solver_stencil(x: &[f64], above: &[f64], below: &[f64], y: &mut [f64]) {
    let rows = x.len() / COLS;
    for r in 0..rows {
        let mid = &x[r * COLS..(r + 1) * COLS];
        let up = if r > 0 {
            &x[(r - 1) * COLS..r * COLS]
        } else {
            above
        };
        let down = if r + 1 < rows {
            &x[(r + 1) * COLS..(r + 2) * COLS]
        } else {
            below
        };
        let out = &mut y[r * COLS..(r + 1) * COLS];
        let last = COLS - 1;
        out[0] = wrap(up[0] + down[0] + mid[last] + mid[1] + 4.0 * mid[0]);
        out[last] = wrap(up[last] + down[last] + mid[last - 1] + mid[0] + 4.0 * mid[last]);
        let vertical = up[1..last].iter().zip(&down[1..last]);
        let horizontal = mid[..last - 1].iter().zip(&mid[2..]);
        let inner = out[1..last].iter_mut().zip(&mid[1..last]);
        for (((o, m), (u, d)), (l, r)) in inner.zip(vertical).zip(horizontal) {
            *o = wrap(u + d + l + r + 4.0 * m);
        }
    }
}

/// Dot product over four independent accumulators so it vectorises. The
/// result does not depend on the split: every partial sum is an integer far
/// below 2^53.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let (a4, b4) = (a.chunks_exact(4), b.chunks_exact(4));
    let tail: f64 = a4
        .remainder()
        .iter()
        .zip(b4.remainder())
        .map(|(p, q)| p * q)
        .sum();
    for (p, q) in a4.zip(b4) {
        for k in 0..4 {
            acc[k] += p[k] * q[k];
        }
    }
    acc.iter().sum::<f64>() + tail
}

/// Fold every reduction result back into the state, so one wrong allreduce
/// anywhere changes every later iteration.
pub fn solver_update(x: &mut [f64], y: &[f64], sum: &[f64], alpha: f64, beta: f64) {
    let shift = alpha % 7.0 + beta % 5.0;
    for ((xi, yi), si) in x.iter_mut().zip(y).zip(sum) {
        *xi = wrap(si + yi + shift);
    }
}

pub struct SolverReference {
    /// `(alpha, beta)` of every iteration — the two scalar allreduces.
    pub scalars: Vec<(f64, f64)>,
    pub final_x: Vec<Vec<f64>>,
}

/// Serial replay of the ring job. All values are small integers held in
/// f64, so every sum is exact whatever order a reduction tree adds them in.
pub fn solver_reference(seed: u64, iters: u64) -> SolverReference {
    let n = SOLVER_RANKS;
    let mut x: Vec<Vec<f64>> = (0..n as u64).map(|r| solver_init(seed, r)).collect();
    let mut y: Vec<Vec<f64>> = vec![vec![0.0; SOLVER_ROWS * COLS]; n];
    let mut sum = vec![0.0; SOLVER_ROWS * COLS];
    let mut scalars = Vec::with_capacity(iters as usize);
    for _ in 0..iters {
        for r in 0..n {
            let above = &x[(r + n - 1) % n][(SOLVER_ROWS - 1) * COLS..];
            let below = &x[(r + 1) % n][..COLS];
            solver_stencil(&x[r], above, below, &mut y[r]);
        }
        let alpha: f64 = (0..n).map(|r| dot(&x[r], &y[r])).sum();
        let beta: f64 = (0..n).map(|r| dot(&y[r], &y[r])).sum();
        sum.fill(0.0);
        for yr in &y {
            for (s, v) in sum.iter_mut().zip(yr) {
                *s += v;
            }
        }
        for r in 0..n {
            solver_update(&mut x[r], &y[r], &sum, alpha, beta);
        }
        scalars.push((alpha, beta));
    }
    SolverReference {
        scalars,
        final_x: x,
    }
}

// ---- ft_jacobi crash schedule ----------------------------------------------------

/// Iterations between coordinated checkpoints (and the batch size).
pub const CKPT_EVERY: u64 = 50;

/// Progress points (rank 0's committed iteration) at which the node hosting
/// rank 1 is crashed. One point per equal segment of the run, drawn from the
/// seed inside the segment's middle half, then moved to offset 10..30 of its
/// checkpoint interval so a crash never races a checkpoint round. Needs
/// `total_iters / crashes >= 8 * CKPT_EVERY` to keep consecutive points two
/// commits apart; the first lies after the first commit, the last at least
/// one interval before the end.
pub fn crash_points(seed: u64, total_iters: u64, crashes: u64) -> Vec<u64> {
    if crashes == 0 {
        return Vec::new();
    }
    let seg = total_iters / crashes;
    assert!(seg >= 8 * CKPT_EVERY, "run too short for {crashes} crashes");
    (0..crashes)
        .map(|k| {
            let within = seg / 4 + draw(seed, 30, k) % (seg / 2);
            let block = (k * seg + within) / CKPT_EVERY;
            block * CKPT_EVERY + 10 + draw(seed, 31, k) % 20
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_payloads_are_distinct_per_seq_and_seed() {
        assert_ne!(small_payload(1, 0), small_payload(1, 1));
        assert_ne!(small_payload(1, 5), small_payload(2, 5));
        assert_eq!(small_payload(9, 5), small_payload(9, 5));
    }

    #[test]
    fn large_check_catches_reorder_truncation_and_corruption() {
        let mut buf = large_template(7);
        let sum = large_body_sum(&buf);
        stamp_large(&mut buf, 7, 41, sum);
        assert!(check_large(&buf, 7, 41));
        assert!(!check_large(&buf, 7, 42), "wrong position in the stream");
        assert!(!check_large(&buf, 8, 41), "wrong seed");
        assert!(!check_large(&buf[..LARGE_BYTES - 8], 7, 41), "truncated");
        buf[LARGE_BYTES / 2] ^= 1;
        assert!(!check_large(&buf, 7, 41), "one flipped bit in the body");
    }

    #[test]
    fn f64_rows_round_trip_and_reject_wrong_length() {
        let xs = [1.5, -0.0, f64::MAX, 3.0];
        let mut wire = Vec::new();
        put_f64s(&mut wire, &xs);
        let mut back = [0.0; 4];
        assert!(get_f64s(&wire, &mut back));
        assert_eq!(xs.map(f64::to_bits), back.map(f64::to_bits));
        assert!(!get_f64s(&wire[..24], &mut back));
    }

    #[test]
    fn wrap_is_exact_on_integers() {
        for v in [0.0, 1.0, 1023.0, 1024.0, 1025.0, 8184.0, 5119.0] {
            assert_eq!(wrap(v), (v as u64 % 1024) as f64);
        }
    }

    #[test]
    fn solver_reference_stays_integer_and_bounded() {
        let r = solver_reference(3, 5);
        assert_eq!(r.scalars.len(), 5);
        for x in &r.final_x {
            assert!(x
                .iter()
                .all(|v| v.fract() == 0.0 && (0.0..1024.0).contains(v)));
        }
        assert!(r
            .scalars
            .iter()
            .all(|(a, b)| a.fract() == 0.0 && b.fract() == 0.0));
        let again = solver_reference(3, 5);
        assert_eq!(r.final_x, again.final_x);
        assert_ne!(r.final_x, solver_reference(4, 5).final_x);
    }

    #[test]
    fn jacobi_reference_is_deterministic_and_couples_the_ranks() {
        let a = jacobi_reference(5, 3);
        let b = jacobi_reference(5, 3);
        assert_eq!(a[0], b[0]);
        assert_eq!(a[1], b[1]);
        // With the halo ignored rank 0's last row would differ.
        let g0 = jacobi_init(5, 0);
        let mut alone = vec![0.0; g0.len()];
        jacobi_sweep(&g0, None, None, &mut alone);
        let coupled = jacobi_reference(5, 1);
        assert_ne!(
            alone[(JACOBI_ROWS - 1) * COLS..],
            coupled[0][(JACOBI_ROWS - 1) * COLS..]
        );
        assert_eq!(alone[..COLS], coupled[0][..COLS]);
    }

    #[test]
    fn crash_points_are_seeded_spaced_and_clear_of_checkpoints() {
        let total = 24_000;
        let p = crash_points(11, total, 16);
        assert_eq!(p.len(), 16);
        assert_eq!(p, crash_points(11, total, 16));
        assert_ne!(p, crash_points(12, total, 16));
        assert!(p[0] > CKPT_EVERY, "after the first commit");
        assert!(*p.last().unwrap() + CKPT_EVERY < total);
        for w in p.windows(2) {
            assert!(w[1] >= w[0] + 2 * CKPT_EVERY, "two commits apart: {w:?}");
        }
        for x in &p {
            assert!((10..30).contains(&(x % CKPT_EVERY)), "mid-interval: {x}");
        }
        assert!(crash_points(1, total, 0).is_empty());
        // The --quick shape: one crash in 400 iterations.
        let q = crash_points(1, 400, 1);
        assert!(q[0] > CKPT_EVERY && q[0] + CKPT_EVERY < 400);
    }
}
