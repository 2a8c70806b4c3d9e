//! Concurrency model tests for the [`FlightRecorder`] message ring.
//!
//! Written against the `loom` API: under the real crate (CI images that
//! patch it in) every interleaving is explored exhaustively; under the
//! offline stand-in the closure runs as a many-schedule stress loop. The
//! assertions are interleaving-universal either way:
//!
//! * no event is lost unaccounted — `len() + dropped()` equals the number
//!   of recording calls, whatever the arrival order;
//! * the ring's `seq` and Lamport stamps are strictly increasing in dump
//!   order (the per-ring lock must serialize stamping and eviction
//!   atomically; a torn push would fork or repeat a stamp);
//! * eviction takes the oldest entry first — the retained window is the
//!   contiguous tail of the sequence space.

use loom::sync::Arc;
use loom::thread;
use starfish_trace::FlightRecorder;
use starfish_util::VirtualTime;

const THREADS: usize = 3;
const PER_THREAD: usize = 4;
const CAP: usize = 6; // smaller than THREADS * PER_THREAD: eviction is live

#[test]
fn concurrent_sends_never_tear_the_ring() {
    loom::model(|| {
        let rec = Arc::new(FlightRecorder::new("loom.r0", CAP));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let rec = Arc::clone(&rec);
                thread::spawn(move || {
                    for k in 0..PER_THREAD {
                        let n = (t * PER_THREAD + k) as u64;
                        rec.on_send(VirtualTime(n), t as u32, 0, n, 8);
                        thread::yield_now();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }

        let total = (THREADS * PER_THREAD) as u64;
        assert_eq!(rec.len() as u64 + rec.dropped(), total);
        assert_eq!(rec.len(), CAP);

        let dump = rec.dump();
        assert_eq!(dump.events.len(), CAP);
        for w in dump.events.windows(2) {
            assert!(w[0].seq < w[1].seq, "seq tear: {:?} then {:?}", w[0], w[1]);
            assert!(
                w[0].lamport < w[1].lamport,
                "lamport tear: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
        // Oldest-first eviction: the survivors are the contiguous tail.
        assert_eq!(dump.events[0].seq, total - CAP as u64);
        assert_eq!(dump.events.last().unwrap().seq, total - 1);
    });
}

#[test]
fn concurrent_send_recv_spans_stay_unique() {
    loom::model(|| {
        let rec = Arc::new(FlightRecorder::new("loom.r1", 64));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let rec = Arc::clone(&rec);
                thread::spawn(move || {
                    let mut spans = Vec::new();
                    for k in 0..PER_THREAD {
                        let ctx = rec.on_send(
                            VirtualTime(k as u64),
                            t as u32,
                            0,
                            (t * PER_THREAD + k) as u64,
                            8,
                        );
                        spans.push(ctx.span);
                    }
                    spans
                })
            })
            .collect();
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        let before = all.len();
        all.dedup();
        // Span ids seed the cross-process happens-before reassembly; a
        // duplicate mints two sends that alias one edge.
        assert_eq!(all.len(), before, "duplicate span ids minted");
        assert_eq!(rec.len(), THREADS * PER_THREAD);
    });
}
