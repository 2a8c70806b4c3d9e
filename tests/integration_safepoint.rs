//! What a safepoint copies. A state of a page or more is copied into the
//! safepoint cache at a `checkpoint()` call and then kept while the log of
//! what was consumed since weighs less than it; a smaller state is copied
//! at every safepoint. The allocator counts each thread's bytes, so a
//! rank's count is its own whatever else the process runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use starfish::{Checkpointable, CkptValue, Cluster, Rank, SubmitOpts};

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // No destructor and a const initializer: this never allocates.
    let _ = ALLOCATED.try_with(|n| n.set(n.get() + size));
}

/// Bytes allocated by this thread so far.
fn allocated() -> usize {
    ALLOCATED.with(Cell::get)
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only a thread-local cell.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

const T: Duration = Duration::from_secs(60);

/// Safepoints between the two `checkpoint()` calls, each followed by an
/// exchange of [`MSG`] bytes: `ft_jacobi`'s interval and halo.
const SAFEPOINTS: usize = 49;
const MSG: usize = 8 * 1024;

/// A state that counts its copies.
struct Counted<'a> {
    value: &'a CkptValue,
    saves: &'a AtomicUsize,
}

impl Checkpointable for Counted<'_> {
    fn save(&self) -> CkptValue {
        self.saves.fetch_add(1, Ordering::Relaxed);
        self.value.clone()
    }
}

/// Run two ranks over a `cells`-float state: `checkpoint()`, [`SAFEPOINTS`]
/// ping-pong exchanges with a safepoint in each, `checkpoint()`. A rank
/// reaches its safepoint with nothing in flight to it, so what the
/// safepoint allocates is its own. Each rank publishes `[copies made inside
/// the safepoints, copies made inside the second call, most bytes one
/// safepoint allocated]`.
fn interval(name: &str, cells: usize) -> Vec<Vec<i64>> {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app(name, move |ctx| {
        let value = CkptValue::FloatArray(vec![1.0; cells]);
        let saves = AtomicUsize::new(0);
        let state = Counted {
            value: &value,
            saves: &saves,
        };
        let (me, halo) = (ctx.rank().0, vec![7u8; MSG]);
        let peer = Rank(1 - me);
        let recv = |ctx: &mut starfish::Ctx<'_>| match ctx.recv(Some(peer), Some(1))? {
            m if m.data.len() == MSG => Ok(()),
            _ => Err(starfish::Error::invalid_arg("a short halo")),
        };
        ctx.checkpoint(&state)?;
        // Rank 0: safepoint, send, receive; rank 1: receive, safepoint, send.
        let (mut in_safepoints, mut worst) = (0, 0);
        for _ in 0..SAFEPOINTS {
            if me == 1 {
                recv(ctx)?;
            }
            let (copies, bytes) = (saves.load(Ordering::Relaxed), allocated());
            ctx.safepoint(&state)?;
            worst = worst.max(allocated() - bytes);
            in_safepoints += saves.load(Ordering::Relaxed) - copies;
            ctx.send(peer, 1, &halo)?;
            if me == 0 {
                recv(ctx)?;
            }
        }
        let copies = saves.load(Ordering::Relaxed);
        ctx.checkpoint(&state)?;
        let in_call = saves.load(Ordering::Relaxed) - copies;
        let counts = [in_safepoints, in_call, worst];
        ctx.publish(CkptValue::IntArray(counts.map(|n| n as i64).to_vec()));
        Ok(())
    });
    let app = cluster.submit(name, 2, SubmitOpts::default()).unwrap();
    (0..2)
        .map(|r| {
            let out = cluster.wait_outputs(app, Rank(r), 1, T).unwrap();
            out[0].as_int_array().expect("counts").to_vec()
        })
        .collect()
}

/// A 1 MiB state is copied by the `checkpoint()` calls alone: the 49
/// safepoints between them keep the cached copy (their log, 49 × 8 KiB,
/// weighs less than it) and allocate less than a page each.
#[test]
fn a_large_state_is_copied_once_per_checkpoint_interval() {
    for (r, [in_safepoints, in_call, worst]) in interval("big", 128 * 1024)
        .into_iter()
        .map(|c| <[i64; 3]>::try_from(c).unwrap())
        .enumerate()
    {
        assert_eq!(in_safepoints, 0, "rank {r}: copies at kept safepoints");
        // One copy refreshes the cache, one is the call's live capture.
        assert_eq!(in_call, 2, "rank {r}: copies inside checkpoint()");
        assert!(
            worst < 4096,
            "rank {r}: a kept safepoint allocated {worst} B"
        );
    }
}

/// A 16-byte state costs less than keeping a log: it is copied at every
/// safepoint, as before the cache kept anything.
#[test]
fn a_small_state_is_copied_at_every_safepoint() {
    for (r, counts) in interval("small", 1).into_iter().enumerate() {
        assert_eq!(counts[0], SAFEPOINTS as i64, "rank {r}: {counts:?}");
    }
}
