//! Fabric/MPI hot-path microbenchmarks: ping-pong latency, N-sender
//! throughput under contention, and the eager-vs-rendezvous crossover.
//! Results are written to `BENCH_fabric.json` at the workspace root so the
//! perf trajectory shows up in review diffs.
//!
//! Wall-clock timing of real threads is the point here (the virtual-clock
//! models cover protocol *semantics*; this file measures the *implementation*
//! cost of the shared-memory fabric), so `Instant` use is deliberate.
//!
//! `BENCH_QUICK=1` shrinks every iteration count for the CI smoke job: the
//! numbers are then meaningless but every code path still runs, so panics
//! and deadlocks are caught cheaply.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use bytes::Bytes;
use starfish_bench::report;
use starfish_mpi::{
    calibrate, measured_crossover, threshold_consistent, MpiEndpoint, RankDirectory, RecvMode,
    WORLD_CONTEXT,
};
use starfish_util::trace::TraceSink;
use starfish_util::{AppId, NodeId, Rank, VClock};
use starfish_vni::{Addr, Fabric, Ideal, LayerCosts, Packet, PacketKind, PortId};

fn quick() -> bool {
    std::env::var("BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn pkt(src: Addr, dst: Addr, payload: &Bytes) -> Packet {
    Packet::new(src, dst, PacketKind::Data, 0, payload.clone())
}

/// Raw-port ping-pong: two threads bounce one small packet; reports the
/// mean one-way latency (half the round trip) in nanoseconds.
fn ping_pong(rounds: usize) -> f64 {
    let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
    f.add_node(NodeId(0));
    f.add_node(NodeId(1));
    let a = Addr::new(NodeId(0), PortId(1));
    let b = Addr::new(NodeId(1), PortId(1));
    let pa = f.bind(a).unwrap();
    let pb = f.bind(b).unwrap();
    let payload = Bytes::from_static(&[0u8; 8]);

    let f2 = f.clone();
    let payload2 = payload.clone();
    let echo = std::thread::spawn(move || {
        for _ in 0..rounds {
            let _ = pb.recv().unwrap();
            f2.send(pkt(b, a, &payload2)).unwrap();
        }
    });
    let start = Instant::now();
    for _ in 0..rounds {
        f.send(pkt(a, b, &payload)).unwrap();
        let _ = pa.recv().unwrap();
    }
    let elapsed = start.elapsed();
    echo.join().unwrap();
    elapsed.as_nanos() as f64 / rounds as f64 / 2.0
}

/// N disjoint sender→receiver pairs hammer the fabric concurrently; each
/// pair has its own nodes, link, and destination port, so any slowdown as N
/// grows is contention inside the fabric itself. Returns aggregate
/// packets/second.
fn contention(n_senders: usize, per_sender: usize) -> f64 {
    let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
    for i in 0..2 * n_senders {
        f.add_node(NodeId(i as u32));
    }
    let barrier = Arc::new(Barrier::new(2 * n_senders + 1));
    let payload = Bytes::from_static(&[0u8; 64]);
    let mut handles = Vec::new();
    for i in 0..n_senders {
        let src = Addr::new(NodeId(i as u32), PortId(1));
        let dst = Addr::new(NodeId((n_senders + i) as u32), PortId(1));
        let _keep_src = f.bind(src).unwrap();
        let port = f.bind(dst).unwrap();
        let (f2, b2, p2) = (f.clone(), barrier.clone(), payload.clone());
        handles.push(std::thread::spawn(move || {
            let _keep_src = _keep_src;
            b2.wait();
            for _ in 0..per_sender {
                f2.send(pkt(src, dst, &p2)).unwrap();
            }
        }));
        let b2 = barrier.clone();
        handles.push(std::thread::spawn(move || {
            b2.wait();
            for _ in 0..per_sender {
                let _ = port.recv().unwrap();
            }
        }));
    }
    barrier.wait();
    let start = Instant::now();
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed();
    (n_senders * per_sender) as f64 / elapsed.as_secs_f64()
}

/// How many transfers the sweep keeps in flight: real MPI codes drive
/// throughput with windowed isend/wait, and a window this deep hides the
/// rendezvous CTS round-trip behind neighbouring transfers.
const SEND_WINDOW: usize = 8;

/// MPI-level one-way transfer cost at `size` bytes, eager vs rendezvous,
/// measured over real threads (sender + receiver). Both arms run the same
/// windowed `isend_world_bytes` pipeline; the clock stops when the receiver
/// has drained every message, so a fire-and-forget send doesn't get credit
/// for payloads still sitting in the receive queue.
///
/// The eager arm lifts the credit ceiling to `usize::MAX` so it measures
/// the *pure* eager protocol (sender-side frame copy per message,
/// unbounded buffering): with the production 1 MiB credit a large-message
/// eager arm would silently fall back to rendezvous and both columns would
/// measure the same code path.
fn mpi_transfer(size: usize, threshold: usize, credit: usize, msgs: usize) -> f64 {
    let fabric = Fabric::new(Box::new(Ideal), LayerCosts::zero());
    fabric.add_node(NodeId(0));
    fabric.add_node(NodeId(1));
    let dir = RankDirectory::with_placement(&[NodeId(0), NodeId(1)]);
    let app = AppId(1);
    let mk = |r: u32| {
        let mut ep = MpiEndpoint::new(
            &fabric,
            app,
            Rank(r),
            dir.clone(),
            RecvMode::Direct,
            TraceSink::disabled(),
        )
        .unwrap();
        ep.set_rendezvous_threshold(threshold);
        ep.set_eager_credit(credit);
        ep
    };
    let mut tx = mk(0);
    let mut rx = mk(1);
    let data = Bytes::from(vec![7u8; size]);

    let recv = std::thread::spawn(move || {
        let mut clock = VClock::new();
        for _ in 0..msgs {
            rx.recv_world(&mut clock, WORLD_CONTEXT, Some(Rank(0)), Some(1))
                .unwrap();
        }
    });
    let mut clock = VClock::new();
    let start = Instant::now();
    let mut inflight = std::collections::VecDeque::new();
    for _ in 0..msgs {
        let req = tx
            .isend_world_bytes(&mut clock, Rank(1), WORLD_CONTEXT, 1, data.clone())
            .unwrap();
        inflight.push_back(req);
        if inflight.len() >= SEND_WINDOW {
            tx.wait(&mut clock, inflight.pop_front().unwrap()).unwrap();
        }
    }
    while let Some(req) = inflight.pop_front() {
        tx.wait(&mut clock, req).unwrap();
    }
    recv.join().unwrap();
    let elapsed = start.elapsed();
    elapsed.as_nanos() as f64 / msgs as f64
}

struct Json(String);

impl Json {
    fn push(&mut self, s: &str) {
        self.0.push_str(s);
    }
}

fn main() {
    let q = quick();
    let rounds = if q { 500 } else { 50_000 };
    let per_sender = if q { 2_000 } else { 100_000 };
    let msgs = if q { 50 } else { 2_000 };

    report::print_banner(
        "Fabric/MPI hot path",
        &format!(
            "{} mode: {rounds} ping-pong rounds, {per_sender} pkts/sender, {msgs} msgs/size",
            if q { "quick" } else { "full" }
        ),
    );

    // ---- ping-pong latency -------------------------------------------------
    let pp_ns = ping_pong(rounds);
    println!("\nping-pong one-way: {pp_ns:.0} ns");

    // ---- N-sender contention sweep ----------------------------------------
    // Best-of-N: each cell is wall-clock over OS threads, so one unlucky
    // scheduling hiccup (a sender descheduled mid-burst) can halve a
    // reading. Max over trials keeps the fabric's real capacity.
    let trials = if q { 1 } else { 3 };
    let sweep: &[usize] = &[1, 2, 4, 8];
    let mut contention_rows = Vec::new();
    let mut contention_json = Vec::new();
    for &n in sweep {
        let pps = (0..trials)
            .map(|_| contention(n, per_sender))
            .fold(0.0f64, f64::max);
        contention_rows.push(vec![
            n.to_string(),
            format!("{:.0}", pps),
            format!("{:.2}", pps / 1e6),
        ]);
        contention_json.push((n, pps));
    }
    report::print_table(&["senders", "pkts/s", "Mpkts/s"], &contention_rows);

    // ---- eager vs rendezvous crossover ------------------------------------
    // For each payload size, force each path by setting the threshold above
    // or below the size; the crossover rule (smallest size where rendezvous
    // is within CROSSOVER_TOLERANCE of eager) is shared with the threshold
    // calibration module so the bench and the runtime agree on it.
    let sizes: &[usize] = &[256, 1024, 4096, 16384, 65536, 262144, 1048576];
    let mut xover_rows = Vec::new();
    let mut sweep: Vec<starfish_mpi::threshold::SweepRow> = Vec::new();
    for &size in sizes {
        let eager_ns = mpi_transfer(size, usize::MAX, usize::MAX, msgs);
        let rndv_ns = mpi_transfer(size, 1, starfish_mpi::EAGER_CREDIT_BYTES, msgs);
        xover_rows.push(vec![
            size.to_string(),
            format!("{:.0}", eager_ns),
            format!("{:.0}", rndv_ns),
            format!("{:.2}", rndv_ns / eager_ns),
        ]);
        sweep.push((size, eager_ns, rndv_ns));
    }
    report::print_table(
        &["bytes", "eager ns/msg", "rndv ns/msg", "rndv/eager"],
        &xover_rows,
    );
    let crossover = measured_crossover(&sweep);
    let measured = crossover.is_some();
    let calibrated = calibrate(crossover);
    match crossover {
        Some(c) => println!(
            "\ncrossover (rndv within {:.0}% of eager): {c} bytes -> calibrated \
             threshold {calibrated}",
            (starfish_mpi::threshold::CROSSOVER_TOLERANCE - 1.0) * 100.0
        ),
        None => println!(
            "\nno crossover: rendezvous never came within {:.0}% of eager on this \
             box; keeping the {}-byte fallback threshold",
            (starfish_mpi::threshold::CROSSOVER_TOLERANCE - 1.0) * 100.0,
            starfish_mpi::DEFAULT_RNDV_THRESHOLD
        ),
    }
    // In full mode the sweep numbers are real: a calibration inconsistent
    // with its own fresh measurements means the data path or the calibration
    // logic regressed, and the bench (and the CI smoke job running it)
    // should fail loudly rather than write a plausible-looking JSON.
    if !q {
        assert!(
            threshold_consistent(calibrated, &sweep),
            "calibrated threshold {calibrated} inconsistent with measured sweep {sweep:?}"
        );
    }

    // ---- JSON report -------------------------------------------------------
    // The baseline_global_lock section was measured at the pre-sharding
    // commit (single global Mutex<State> in vni::Fabric) with the same
    // full-mode parameters, and is kept static so the before/after
    // comparison survives in the committed file.
    let mut j = Json(String::new());
    j.push("{\n  \"bench\": \"fabric\",\n");
    j.push(&format!("  \"quick\": {q},\n"));
    j.push(&format!("  \"ping_pong_one_way_ns\": {pp_ns:.0},\n"));
    j.push("  \"contention_pkts_per_sec\": {\n");
    for (i, (n, pps)) in contention_json.iter().enumerate() {
        let comma = if i + 1 == contention_json.len() {
            ""
        } else {
            ","
        };
        j.push(&format!("    \"{n}\": {pps:.0}{comma}\n"));
    }
    j.push("  },\n");
    j.push("  \"baseline_global_lock\": {\n");
    j.push("    \"note\": \"measured at the pre-sharding commit, full mode\",\n");
    j.push("    \"ping_pong_one_way_ns\": 58592,\n");
    j.push("    \"contention_pkts_per_sec\": {\n");
    j.push("      \"1\": 42017,\n");
    j.push("      \"2\": 18162,\n");
    j.push("      \"4\": 15143,\n");
    j.push("      \"8\": 16843\n");
    j.push("    }\n  },\n");
    j.push("  \"eager_vs_rendezvous_ns_per_msg\": {\n");
    for (i, (size, e, r)) in sweep.iter().enumerate() {
        let comma = if i + 1 == sweep.len() { "" } else { "," };
        j.push(&format!(
            "    \"{size}\": {{\"eager\": {e:.0}, \"rendezvous\": {r:.0}}}{comma}\n"
        ));
    }
    j.push("  },\n");
    // An unmeasured crossover is an explicit null, not a smuggled-in
    // fallback number a consumer could mistake for a measurement.
    let crossover_json = crossover.map_or_else(|| "null".to_string(), |c| c.to_string());
    j.push(&format!("  \"crossover_bytes\": {crossover_json},\n"));
    j.push(&format!("  \"crossover_measured\": {measured},\n"));
    j.push(&format!(
        "  \"calibrated_rendezvous_threshold\": {calibrated},\n"
    ));
    j.push(&format!(
        "  \"default_rendezvous_threshold\": {}\n",
        starfish_mpi::DEFAULT_RNDV_THRESHOLD
    ));
    j.push("}\n");

    let path = format!("{}/../../BENCH_fabric.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &j.0) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}
