//! What the MPI data path allocates, counted by the allocator across every
//! thread of the process: the polling threads and receivers included. The
//! tests take turns (`one_at_a_time`) so each counts only its own traffic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use starfish_mpi::collectives::{self, AllreduceAlgo, ReduceOp};
use starfish_mpi::{Comm, MpiEndpoint, RankDirectory, RecvMode, WORLD_CONTEXT};
use starfish_util::trace::TraceSink;
use starfish_util::{AppId, NodeId, Rank, VClock};
use starfish_vni::{BipMyrinet, Fabric, LayerCosts};

/// A block at least this big is a payload-sized buffer in these tests.
const BIG: usize = 256 * 1024;

static BLOCKS: AtomicUsize = AtomicUsize::new(0);
static BIG_BLOCKS: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    BLOCKS.fetch_add(1, Ordering::Relaxed);
    if size >= BIG {
        BIG_BLOCKS.fetch_add(1, Ordering::Relaxed);
    }
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counting touches only atomics.
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

/// `(blocks, blocks of at least BIG bytes)` allocated so far, process-wide.
fn counts() -> (usize, usize) {
    (
        BLOCKS.load(Ordering::Relaxed),
        BIG_BLOCKS.load(Ordering::Relaxed),
    )
}

fn one_at_a_time() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Raw endpoints as bench-e2e's `raw` probe builds them: the prototype's
/// layer costs on BIP/Myrinet, polled receive, registries on the fabric
/// and every endpoint, every knob at its default.
fn endpoints(n: u32) -> (Fabric, Vec<MpiEndpoint>) {
    let f = Fabric::new(Box::new(BipMyrinet), LayerCosts::prototype());
    f.attach_metrics(starfish_telemetry::Registry::new());
    let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
    for &node in &nodes {
        f.add_node(node);
    }
    let dir = RankDirectory::with_placement(&nodes);
    let eps = (0..n)
        .map(|r| {
            let mut ep = MpiEndpoint::new(
                &f,
                AppId(1),
                Rank(r),
                dir.clone(),
                RecvMode::Polled,
                TraceSink::disabled(),
            )
            .unwrap();
            ep.set_metrics(starfish_telemetry::Registry::new());
            ep
        })
        .collect();
    (f, eps)
}

/// Rank 1 receives `n` messages of tag 1 from rank 0 on its own thread.
fn receiver(mut rx: MpiEndpoint, n: usize) -> std::thread::JoinHandle<MpiEndpoint> {
    std::thread::spawn(move || {
        let mut clock = VClock::new();
        for _ in 0..n {
            rx.recv_world(&mut clock, WORLD_CONTEXT, Some(Rank(0)), Some(1))
                .unwrap();
        }
        rx
    })
}

/// ROADMAP 5(a): an eager 8 B message — frame, wire, polling thread,
/// matching, delivery — costs at most three allocations: two for the frame
/// and its `Bytes`, and at most one per batch the polling thread moves.
/// The parent commit made 7.1 here.
#[test]
fn an_eager_8_byte_message_allocates_at_most_three_times() {
    const N: usize = 20_000;
    let _turn = one_at_a_time();
    let (_f, mut eps) = endpoints(2);
    let (rx, mut tx) = (eps.pop().unwrap(), eps.pop().unwrap());
    let (before, _) = counts();
    let rx = receiver(rx, N);
    let mut clock = VClock::new();
    for _ in 0..N {
        tx.send_world(&mut clock, Rank(1), WORLD_CONTEXT, 1, &[7u8; 8])
            .unwrap();
    }
    let rx = rx.join().unwrap();
    let per_msg = (counts().0 - before) as f64 / N as f64;
    drop((tx, rx));
    assert!(per_msg <= 3.0, "{per_msg:.2} allocations per 8 B message");
}

/// A borrowed rendezvous payload is copied once, in `start_send`: one
/// 256 KiB block end to end, since a one-chunk transfer reaches the
/// receiver as the sender's buffer. The parent made two on the send side.
#[test]
fn a_borrowed_256_kib_send_allocates_one_payload_block() {
    let _turn = one_at_a_time();
    let (_f, mut eps) = endpoints(2);
    let (rx, mut tx) = (eps.pop().unwrap(), eps.pop().unwrap());
    let payload = vec![3u8; BIG];
    let (_, before) = counts();
    let rx = receiver(rx, 1);
    tx.send_world(&mut VClock::new(), Rank(1), WORLD_CONTEXT, 1, &payload)
        .unwrap();
    let rx = rx.join().unwrap();
    let big = counts().1 - before;
    drop((tx, rx));
    assert_eq!(big, 1, "payload-sized blocks for one borrowed 256 KiB send");
}

/// The collectives hand over the buffers they own. One 4-rank 256 KiB
/// reduce + bcast allreduce allocates 15 payload-sized blocks: each rank's
/// accumulator and decoded result (8), the three encoded reduce
/// contributions and the root's encoded result (4), and the three decoded
/// contributions (3) — nothing per hop. The parent allocated 28: two more
/// per rendezvous hop (six hops: `copy_from_slice` copied twice) and one
/// for the root's `Bytes::from`.
#[test]
fn a_reduce_bcast_allreduce_copies_nothing_per_hop() {
    const RANKS: u32 = 4;
    let _turn = one_at_a_time();
    let (_f, eps) = endpoints(RANKS);
    let data = vec![1.0f64; BIG / 8];
    let (_, before) = counts();
    let eps: Vec<MpiEndpoint> = std::thread::scope(|s| {
        let ranks: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(r, mut ep)| {
                let data = &data;
                s.spawn(move || {
                    let mut comm = Comm::world(RANKS, Rank(r as u32));
                    let sum = collectives::allreduce_with(
                        &mut ep,
                        &mut comm,
                        &mut VClock::new(),
                        data,
                        ReduceOp::Sum,
                        AllreduceAlgo::ReduceBcast,
                    )
                    .unwrap();
                    assert!(sum.iter().all(|x| *x == f64::from(RANKS)));
                    ep
                })
            })
            .collect();
        ranks.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let big = counts().1 - before;
    drop(eps);
    assert!(big <= 15, "{big} payload-sized blocks (the parent made 28)");
}
