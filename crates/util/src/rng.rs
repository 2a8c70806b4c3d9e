//! Deterministic random-number helpers.
//!
//! Workload generators and failure injectors must be reproducible: the same
//! seed must produce the same run on every platform. We use a self-contained
//! SplitMix64/xoshiro256** pair (no platform entropy anywhere), plus a
//! convenience for deriving per-actor streams from one master seed.

/// xoshiro256** — a small, fast, high-quality PRNG with a 256-bit state.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl DetRng {
    /// Seed deterministically; any `u64` is a valid seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    /// Derive an independent stream for a sub-actor (node, process, ...).
    /// Streams with different tags are statistically independent.
    pub fn derive(&self, tag: u64) -> DetRng {
        // Mix the tag into a fresh seed via splitmix.
        let mut sm = self.s[0] ^ tag.wrapping_mul(0xA24B_AED4_963E_E407);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        DetRng { s }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, bound)`; `bound` must be non-zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Widening-multiply rejection-free mapping (Lemire); tiny bias is
        // irrelevant for workload generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// Deterministic pseudo-random payload of `n` bytes (for workloads).
    pub fn bytes(&mut self, n: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(n);
        while out.len() + 8 <= n {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = self.next_u64().to_le_bytes();
        #[expect(clippy::indexing_slicing, reason = "fewer than 8 bytes are left")]
        out.extend_from_slice(&rest[..n - out.len()]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn derived_streams_independent_and_reproducible() {
        let master = DetRng::new(7);
        let mut c1 = master.derive(1);
        let mut c2 = master.derive(2);
        let mut c1b = master.derive(1);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::new(3);
        for _ in 0..1000 {
            assert!(r.below(10) < 10);
            let x = r.range(5, 8);
            assert!((5..8).contains(&x));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = DetRng::new(4);
        for _ in 0..1000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn bytes_exact_length_and_deterministic() {
        let mut a = DetRng::new(5);
        let mut b = DetRng::new(5);
        for n in [0usize, 1, 7, 8, 9, 63, 64, 1000] {
            assert_eq!(a.bytes(n).len(), n);
            let _ = b.bytes(n);
        }
        let mut a = DetRng::new(5);
        let mut b = DetRng::new(5);
        assert_eq!(a.bytes(100), b.bytes(100));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::new(6);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
