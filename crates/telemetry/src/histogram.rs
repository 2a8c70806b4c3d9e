//! Log-bucketed histograms: power-of-two buckets, lock-free recording,
//! quantile estimates from bucket upper bounds.

// The panic surface, held as in the audited crates although the rest of
// `telemetry` is not: this module decodes foreign bytes, so each surviving
// site carries an `#[expect]` with its reason (VERIFICATION.md §2).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo)]
#![deny(clippy::unimplemented, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

use std::sync::atomic::{AtomicU64, Ordering};

use starfish_util::codec::{Decode, Decoder, Encode, Encoder};
use starfish_util::Result;

pub(crate) const BUCKETS: usize = 64;

/// Bucket index for a value: 0 holds zero, bucket `i >= 1` holds values in
/// `(2^(i-1) - 1, 2^i - 1]`, i.e. values up to `2^i - 1`.
#[inline]
pub(crate) fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Upper bound of bucket `i` (inclusive).
#[inline]
pub(crate) fn bucket_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// Lock-free log-bucketed histogram. A record is two atomic adds (its
/// bucket and the sum) and, only when it raises the maximum, a third RMW;
/// the count is the buckets' total, summed when read.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS + 1],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); BUCKETS + 1].map(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    pub(crate) fn new() -> Self {
        Histogram::default()
    }

    #[inline]
    #[expect(
        clippy::indexing_slicing,
        reason = "`bucket_of` is at most 64, the last of `BUCKETS + 1`"
    )]
    pub(crate) fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        if value > self.max.load(Ordering::Relaxed) {
            self.max.fetch_max(value, Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self) -> HistSnap {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let v = b.load(Ordering::Relaxed);
            if v > 0 {
                buckets.push((i as u8, v));
            }
        }
        HistSnap {
            count: buckets.iter().map(|&(_, n)| n).sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen, mergeable, wire-encodable histogram state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistSnap {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// Sparse `(bucket index, count)` pairs, ascending by index.
    pub buckets: Vec<(u8, u64)>,
}

impl HistSnap {
    pub(crate) fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Quantile estimate: the upper bound of the first bucket at which the
    /// cumulative count reaches `q * count`. The true max is reported for
    /// `q >= 1`.
    pub(crate) fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(idx, n) in &self.buckets {
            seen += n;
            if seen >= target {
                // Never report beyond the observed maximum.
                return bucket_bound(idx as usize).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub(crate) fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub(crate) fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Accumulates another snapshot into this one.
    #[expect(clippy::indexing_slicing, reason = "`pos` is a `binary_search` hit")]
    pub(crate) fn merge(&mut self, other: &HistSnap) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for &(idx, n) in &other.buckets {
            match self.buckets.binary_search_by_key(&idx, |&(i, _)| i) {
                Ok(pos) => self.buckets[pos].1 += n,
                Err(pos) => self.buckets.insert(pos, (idx, n)),
            }
        }
    }
}

impl Encode for HistSnap {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.count);
        enc.put_u64(self.sum);
        enc.put_u64(self.max);
        enc.put_u16(self.buckets.len() as u16);
        for &(idx, n) in &self.buckets {
            enc.put_u8(idx);
            enc.put_u64(n);
        }
    }
}

impl Decode for HistSnap {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let count = dec.get_u64()?;
        let sum = dec.get_u64()?;
        let max = dec.get_u64()?;
        let n = dec.get_u16()? as usize;
        let mut buckets = Vec::with_capacity(n.min(BUCKETS + 1));
        for _ in 0..n {
            let idx = dec.get_u8()?;
            let cnt = dec.get_u64()?;
            buckets.push((idx, cnt));
        }
        Ok(HistSnap {
            count,
            sum,
            max,
            buckets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_exact() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(255), 8);
        assert_eq!(bucket_of(256), 9);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Each bucket's upper bound maps back into that bucket, and the
        // next value up maps into the next bucket.
        for i in 1..63 {
            let bound = bucket_bound(i);
            assert_eq!(bucket_of(bound), i, "bound of bucket {i}");
            assert_eq!(bucket_of(bound + 1), i + 1, "first value past bucket {i}");
        }
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.max, 1000);
        // p50 of 1..=1000 is ~500; log-bucket estimate must land within
        // the enclosing power-of-two bracket.
        assert!(s.p50() >= 500 && s.p50() <= 1023, "p50={}", s.p50());
        assert!(s.p99() >= 990, "p99={}", s.p99());
        assert_eq!(s.quantile(1.0), 1000);
        assert!((s.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn merge_accumulates() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        a.record(100);
        b.record(1000);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 1110);
        assert_eq!(s.max, 1000);
    }

    /// Concurrent records lose nothing: the count derived from the buckets,
    /// the sum, the max and every bucket equal the totals of the same
    /// values recorded serially.
    #[test]
    fn concurrent_records_sum_to_the_serial_totals() {
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 20_000;
        let value = |t: u64, i: u64| (i * 7919 + t * 104_729) % (1 << (i % 40)) + t;
        let shared = Histogram::new();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let h = &shared;
                s.spawn(move || (0..PER_THREAD).for_each(|i| h.record(value(t, i))));
            }
        });
        let serial = Histogram::new();
        for t in 0..THREADS {
            (0..PER_THREAD).for_each(|i| serial.record(value(t, i)));
        }
        let (got, want) = (shared.snapshot(), serial.snapshot());
        assert_eq!(got, want);
        assert_eq!(got.count, THREADS * PER_THREAD);
        assert_eq!(got.buckets.iter().map(|&(_, n)| n).sum::<u64>(), got.count);
    }

    #[test]
    fn snapshot_codec_roundtrip() {
        let h = Histogram::new();
        for v in [0, 1, 5, 1 << 20, u64::MAX] {
            h.record(v);
        }
        let s = h.snapshot();
        let bytes = s.encode_to_bytes();
        assert_eq!(HistSnap::decode_from_bytes(&bytes).unwrap(), s);
    }
}
