//! Integration: collective telemetry end to end.
//!
//! A 64-rank allreduce over the VNI fabric must (a) auto-select the ring
//! algorithm from the payload size alone, (b) account every payload byte
//! and wire segment it moved under the `coll.*` counters with exact
//! (closed-form) values, and (c) surface as one contiguous `coll.` block
//! in the same `render_stats` output the management `STATS` verb returns —
//! so an operator reading STATS sees which algorithm ran and what it cost
//! without correlating scattered lines.

use starfish_mpi::collectives::{allgather, allreduce, bcast};
use starfish_mpi::{CollAlgoSelector, Comm, MpiEndpoint, RankDirectory, RecvMode, ReduceOp};
use starfish_telemetry::{metric, render_stats, Registry};
use starfish_trace::FlightRecorder;
use starfish_util::trace::TraceSink;
use starfish_util::{AppId, NodeId, Rank, VClock};
use starfish_vni::{Fabric, Ideal, LayerCosts};

/// Run `f(rank, endpoint, comm, clock)` on `n` rank-threads over an ideal
/// zero-cost fabric and collect the results in rank order. Mirrors the
/// MPI_Init barrier: every endpoint binds before any rank runs.
fn run_ranks<T: Send + 'static>(
    n: u32,
    f: impl Fn(u32, &mut MpiEndpoint, &mut Comm, &mut VClock) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let fabric = Fabric::new(Box::new(Ideal), LayerCosts::zero());
    for i in 0..n {
        fabric.add_node(NodeId(i));
    }
    let dir = RankDirectory::with_placement(&(0..n).map(NodeId).collect::<Vec<_>>());
    let f = std::sync::Arc::new(f);
    let eps: Vec<MpiEndpoint> = (0..n)
        .map(|r| {
            MpiEndpoint::new(
                &fabric,
                AppId(1),
                Rank(r),
                dir.clone(),
                RecvMode::Polled,
                TraceSink::disabled(),
            )
            .unwrap()
        })
        .collect();
    let mut handles = Vec::new();
    for (r, mut ep) in eps.into_iter().enumerate() {
        let f = f.clone();
        handles.push(std::thread::spawn(move || {
            let mut comm = Comm::world(n, Rank(r as u32));
            let mut clock = VClock::new();
            f(r as u32, &mut ep, &mut comm, &mut clock)
        }));
    }
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

/// 64 ranks, 16384 u64 (128 KiB — twice the default ring threshold): the
/// selector must pick ring on its own, and the shared registry must report
/// the exact algorithm count, byte count, and segment count the ring
/// algorithm implies. Every quantity is closed-form, not a bound:
///
/// - one `coll.algo.allreduce.ring` increment per rank → 64;
/// - 16384 elements over 64 ranks → equal 256-element (2048 B) blocks,
///   each rank sends one block per step for 2(n−1) = 126 steps →
///   64 · 126 · 2048 = 16 515 072 payload bytes on the wire;
/// - 2048 B ≤ the 1 MiB rendezvous chunk → one segment per block send →
///   64 · 126 = 8064 segments.
#[test]
fn ring_allreduce_reports_algorithm_bytes_and_segments_exactly() {
    const N: u32 = 64;
    const ELEMS: usize = 16384;
    let reg = Registry::new();
    let reg_for_ranks = reg.clone();
    let res = run_ranks(N, move |r, ep, comm, clock| {
        ep.set_metrics(reg_for_ranks.clone());
        ep.set_recorder(FlightRecorder::new(&format!("app1.r{r}"), 64));
        let data = vec![(r + 1) as u64; ELEMS];
        let sum = allreduce(ep, comm, clock, &data, ReduceOp::Sum).unwrap();
        (sum, ep.recorder().dump())
    });

    // Correctness first: sum of 1..=64 in every element on every rank.
    let expect = (1..=N as u64).sum::<u64>();
    for (v, _) in &res {
        assert_eq!(v.len(), ELEMS);
        assert!(v.iter().all(|&x| x == expect), "expected all {expect}");
    }

    // The selector chose ring everywhere and nothing else ran.
    assert_eq!(reg.counter(metric::COLL_ALGO_ALLREDUCE_RING), N as u64);
    assert_eq!(reg.counter(metric::COLL_ALGO_ALLREDUCE_RDOUBLE), 0);
    assert_eq!(reg.counter(metric::COLL_ALGO_ALLREDUCE_REDUCE_BCAST), 0);

    // Exact data-movement accounting.
    let block = (ELEMS / N as usize * 8) as u64; // 2048 B, divides evenly
    let sends = N as u64 * 2 * (N as u64 - 1); // 64 ranks · 126 steps
    assert_eq!(reg.counter(metric::COLL_BYTES_MOVED), sends * block);
    assert_eq!(reg.counter(metric::COLL_SEGMENTS), sends);

    // Each rank's flight recorder names the operation and the chosen
    // algorithm, once — and the 252 sends and receives around it (in a
    // 64-event message ring) did not evict it.
    for (_, trace) in &res {
        let ring_spans = trace
            .phases()
            .iter()
            .filter(|p| p.name == "coll.allreduce" && p.detail == "ring")
            .count();
        assert_eq!(ring_spans, 1, "{}", trace.scope);
    }
}

/// The `STATS` verb renders a registry snapshot through `render_stats`;
/// after a mixed collective workload the touched `coll.*` metrics must come
/// out as one contiguous, registry-ordered block with the values above.
#[test]
fn stats_rendering_groups_coll_metrics_into_one_block() {
    const N: u32 = 8;
    let reg = Registry::new();
    let reg_for_ranks = reg.clone();
    let res = run_ranks(N, move |r, ep, comm, clock| {
        ep.set_metrics(reg_for_ranks.clone());
        // Low thresholds so small payloads still exercise the bandwidth
        // algorithms (the default-threshold path is pinned above).
        ep.set_coll_selector(CollAlgoSelector {
            allreduce_ring_bytes: 256,
            allgather_ring_bytes: 256,
            bcast_scatter_bytes: 256,
        });
        let summed = allreduce(ep, comm, clock, &vec![r as u64 + 1; 512], ReduceOp::Sum).unwrap();
        let gathered = allgather(ep, comm, clock, &[r as u8; 100]).unwrap();
        let root_blob: Vec<u8> = if r == 0 { vec![7u8; 4096] } else { Vec::new() };
        let b = bcast(ep, comm, clock, Rank(0), root_blob.into()).unwrap();
        (summed[0], gathered.len(), b.len())
    });
    for (sum, gathered, blen) in res {
        assert_eq!(sum, (1..=N as u64).sum::<u64>());
        assert_eq!(gathered, N as usize);
        assert_eq!(blen, 4096);
    }

    let out = render_stats(&reg.snapshot());
    let coll_lines: Vec<&str> = out.lines().filter(|l| l.starts_with("coll.")).collect();
    assert!(
        coll_lines.len() >= 4,
        "expected algo + bytes + segments lines, got {coll_lines:?}"
    );
    // Contiguity: the coll.* lines form one unbroken run in the rendering.
    let idxs: Vec<usize> = out
        .lines()
        .enumerate()
        .filter(|(_, l)| l.starts_with("coll."))
        .map(|(i, _)| i)
        .collect();
    for w in idxs.windows(2) {
        assert_eq!(
            w[1],
            w[0] + 1,
            "coll.* lines interleaved with others:\n{out}"
        );
    }
    // The block names the algorithms that actually ran, with their counts.
    assert!(
        out.contains(&format!("coll.algo.allreduce.ring {N}")),
        "{out}"
    );
    assert!(
        out.contains(&format!("coll.algo.allgather.ring {N}")),
        "{out}"
    );
    assert!(out.contains("coll.algo.bcast.scatter-allgather"), "{out}");
    assert!(out.contains("coll.bytes_moved"), "{out}");
    assert!(out.contains("coll.segments"), "{out}");
    // And none of the untouched algorithms leak zero-valued lines.
    assert!(!out.contains("coll.algo.allreduce.reduce-bcast"), "{out}");
}
