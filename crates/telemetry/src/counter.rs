//! Sharded lock-free counters and gauges.
//!
//! Counters are striped across cache-line-padded atomic shards so
//! concurrent writers on the MPI fast path do not contend on one cache
//! line; reads sum the shards. Each thread hashes to a stable shard via a
//! thread-local ticket.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

const SHARDS: usize = 8;

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

/// Monotonically increasing, sharded counter.
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; SHARDS],
}

fn shard_index() -> usize {
    use std::cell::Cell;
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TICKET: Cell<usize> = const { Cell::new(usize::MAX) };
    }
    TICKET.with(|t| {
        let mut v = t.get();
        if v == usize::MAX {
            v = NEXT.fetch_add(1, Ordering::Relaxed) as usize % SHARDS;
            t.set(v);
        }
        v
    })
}

impl Counter {
    pub fn new() -> Self {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[shard_index()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Sum over all shards. Concurrent adds may or may not be included.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

/// A point-in-time signed value (queue depths, live process counts).
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    pub(crate) fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn gauge_tracks_value() {
        let g = Gauge::new();
        g.set(10);
        g.add(-3);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn concurrent_increments_are_exact() {
        let c = Arc::new(Counter::new());
        let threads = 8;
        let per_thread = 50_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), threads as u64 * per_thread);
    }
}
