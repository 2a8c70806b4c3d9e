//! The one report: the paper's evaluation and what the virtual-time model
//! and the collective selector rest on, measured in one run and written to
//! `BENCH_calibrate.json` at the workspace root.
//!
//! * **The paper's evaluation** — Figures 3–6, Tables 1–2, the § 5 claim
//!   and seven ablations, one section each under the names of
//!   `starfish_bench::PAPER`. They run the same in quick and full mode.
//! * **Collectives** — allreduce / allgather / bcast, every algorithm arm,
//!   at 8–1024 simulated ranks under both network models, and the selector
//!   thresholds calibrated from the measured crossovers. The bench reports
//!   the calibration; the constants in `collectives::selector` are what runs.
//! * **Checkpoint recovery** — modelled stable storage (the paper-era IDE
//!   disk behind NFS) versus the diskless in-memory replica store, across
//!   image sizes.
//!
//! Every section of the report names its clock: `"virtual"` (modelled
//! time, or a ratio of it) or `"count"` (bytes, messages). Nothing here reads
//! a wall clock: on a shared host a per-thread wall-clock figure for 64
//! communicating rank-threads measures the scheduler, not the algorithms.
//!
//! Each rank's `VClock` max-merges across message exchanges, so the largest
//! final clock is the modelled critical path. Endpoints read their ports as
//! every cluster rank does (`RecvMode::Polled`: a port read is free, however
//! many reads host scheduling splits a message into) and grant a CTS on
//! every encounter, as the chaos driver does. The recovery rows and every
//! collective cell whose messages stay below the rendezvous threshold are
//! then identical run to run. A cell with a message at or above it is not:
//! a CTS is stamped with the receiver's clock at the moment it meets the RTS,
//! and that moment depends on thread scheduling (DESIGN.md §5b,
//! "Determinism caveat").
//!
//! `BENCH_QUICK=1` shrinks the calibration's ranks, sizes and images for
//! the CI smoke job.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use starfish_bench::recovery::{recovery_model, speedup, K, LEGS, NODES};
use starfish_bench::report::section;
use starfish_bench::threshold::{calibrate, measured_crossover, threshold_consistent, SweepRow};
use starfish_bench::PAPER;
use starfish_mpi::collectives::{self, AllgatherAlgo, AllreduceAlgo, BcastAlgo, ReduceOp};
use starfish_mpi::{
    Comm, CtsCadence, MpiEndpoint, RankDirectory, RecvMode, DEFAULT_RNDV_THRESHOLD,
};
use starfish_util::json::Json;
use starfish_util::trace::TraceSink;
use starfish_util::{AppId, NodeId, Rank, VClock};
use starfish_vni::{BipMyrinet, Fabric, LayerCosts, NetworkModel, TcpEthernet};

const APP: AppId = AppId(1);

fn quick() -> bool {
    std::env::var("BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Model names as they appear in report keys.
fn key(model: &str) -> String {
    model.replace('/', "-")
}

// ---- collectives -----------------------------------------------------------

/// Run `f` on `n` rank-threads over a fabric with the given network model
/// and prototype per-layer software costs; returns the maximum final
/// virtual time across ranks in nanoseconds — the modelled critical path.
fn run_vt(
    model: Box<dyn NetworkModel>,
    n: u32,
    f: impl Fn(u32, &mut MpiEndpoint, &mut Comm, &mut VClock) + Send + Sync + 'static,
) -> u64 {
    let fabric = Fabric::new(model, LayerCosts::prototype());
    for i in 0..n {
        fabric.add_node(NodeId(i));
    }
    let dir = RankDirectory::with_placement(&(0..n).map(NodeId).collect::<Vec<_>>());
    let f = Arc::new(f);
    let eps: Vec<MpiEndpoint> = (0..n)
        .map(|r| {
            let mut ep = MpiEndpoint::new(
                &fabric,
                APP,
                Rank(r),
                dir.clone(),
                RecvMode::Polled,
                TraceSink::disabled(),
            )
            .unwrap();
            ep.set_cts_cadence(CtsCadence::EveryEncounter);
            // 1024 rank-threads share the host's cores: a late-scheduled
            // rank can legitimately wait minutes of wall-clock mid-collective.
            ep.set_blocking_timeout(Duration::from_secs(600));
            ep
        })
        .collect();
    let mut handles = Vec::new();
    for (r, mut ep) in eps.into_iter().enumerate() {
        let f = f.clone();
        handles.push(std::thread::spawn(move || {
            let mut comm = Comm::world(n, Rank(r as u32));
            let mut clock = VClock::new();
            f(r as u32, &mut ep, &mut comm, &mut clock);
            clock.now().as_nanos()
        }));
    }
    handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .max()
        .unwrap()
}

fn model_of(name: &str) -> Box<dyn NetworkModel> {
    match name {
        "BIP/Myrinet" => Box::new(BipMyrinet),
        "TCP/IP" => Box::new(TcpEthernet),
        other => panic!("unknown model {other}"),
    }
}

/// Critical-path virtual time of one allreduce of `bytes` payload.
fn allreduce_vt(model: &str, n: u32, bytes: usize, algo: AllreduceAlgo) -> u64 {
    let elems = bytes / 8;
    run_vt(model_of(model), n, move |r, ep, comm, clock| {
        let data: Vec<u64> = (0..elems as u64).map(|i| i + r as u64).collect();
        collectives::allreduce_with(ep, comm, clock, &data, ReduceOp::Sum, algo).unwrap();
    })
}

/// Critical-path virtual time of one allgather of `per_rank` bytes/rank.
fn allgather_vt(model: &str, n: u32, per_rank: usize, algo: AllgatherAlgo) -> u64 {
    run_vt(model_of(model), n, move |r, ep, comm, clock| {
        let data = vec![r as u8; per_rank];
        collectives::allgather_with(ep, comm, clock, &data, algo).unwrap();
    })
}

/// Critical-path virtual time of one bcast of `bytes` from rank 0.
fn bcast_vt(model: &str, n: u32, bytes: usize, algo: BcastAlgo) -> u64 {
    run_vt(model_of(model), n, move |r, ep, comm, clock| {
        let data = if r == 0 {
            Bytes::from(vec![0xA5u8; bytes])
        } else {
            Bytes::new()
        };
        collectives::bcast_with(ep, comm, clock, Rank(0), data, algo).unwrap();
    })
}

const ALLREDUCE: [(&str, AllreduceAlgo); 3] = [
    ("reduce_bcast", AllreduceAlgo::ReduceBcast),
    ("rdouble", AllreduceAlgo::RecursiveDoubling),
    ("ring", AllreduceAlgo::Ring),
];
const ALLGATHER: [(&str, AllgatherAlgo); 3] = [
    ("gather_bcast", AllgatherAlgo::GatherBcast),
    ("bruck", AllgatherAlgo::Bruck),
    ("ring", AllgatherAlgo::Ring),
];
const BCAST: [(&str, BcastAlgo); 2] = [
    ("binomial", BcastAlgo::Binomial),
    ("scatter_allgather", BcastAlgo::ScatterAllgather),
];

/// One swept table: a row per key (bytes or ranks), a virtual-time
/// critical path in ns per algorithm arm.
struct Sweep {
    arms: Vec<&'static str>,
    rows: Vec<(usize, Vec<u64>)>,
}

impl Sweep {
    fn measure<A: Copy>(
        arms: &[(&'static str, A)],
        keys: &[usize],
        f: impl Fn(usize, A) -> u64,
    ) -> Sweep {
        let rows = keys
            .iter()
            .map(|&k| (k, arms.iter().map(|&(_, a)| f(k, a)).collect()))
            .collect();
        let arms = arms.iter().map(|&(name, _)| name).collect();
        Sweep { arms, rows }
    }

    /// The report's rows: key → {arm: ns}.
    fn json(&self) -> Json {
        Json::obj(self.rows.iter().map(|(k, ns)| {
            let cells = self.arms.iter().zip(ns).map(|(a, &v)| (a, Json::Num(v)));
            (k, Json::obj(cells))
        }))
    }

    /// Arm `lat` (wins small) against arm `bw` (wins large), per key.
    fn crossover_sweep(&self, lat: usize, bw: usize) -> Vec<SweepRow> {
        let row = |(k, ns): &(usize, Vec<u64>)| (*k, ns[lat] as f64, ns[bw] as f64);
        self.rows.iter().map(row).collect()
    }
}

/// The collective sweeps and their report sections.
fn collectives_sections(q: bool) -> Vec<(&'static str, Json)> {
    let models: &[&str] = &["BIP/Myrinet", "TCP/IP"];
    let ranks: &[u32] = if q { &[4, 8] } else { &[8, 64] };
    let sizes: &[usize] = if q {
        &[1024, 4096]
    } else {
        &[1024, 16384, 262144, 1048576]
    };
    let scaling_ranks: &[usize] = if q { &[8, 16] } else { &[8, 64, 256, 1024] };
    // Allreduce: algorithm x size x ranks x model.
    let mut allreduce = Vec::new();
    for &model in models {
        let mut per_ranks = Vec::new();
        for &n in ranks {
            let sw = Sweep::measure(&ALLREDUCE, sizes, |size, algo| {
                allreduce_vt(model, n, size, algo)
            });
            per_ranks.push((n, sw));
        }
        allreduce.push((model, per_ranks));
    }

    // Headline: ring vs the old reduce+bcast composition. Full mode measures
    // 1 MiB @ 64 ranks on BIP/Myrinet; quick mode reuses the largest measured
    // cell (numbers meaningless, field present).
    let (head_n, head_size) = (*ranks.last().unwrap(), *sizes.last().unwrap());
    let head_row = &allreduce[0].1.last().unwrap().1.rows.last().unwrap().1;
    let head = head_row[0] as f64 / head_row[2] as f64;

    // Allreduce scaling in ranks at a fixed 64 KiB.
    let scaling = Sweep::measure(&ALLREDUCE[1..], scaling_ranks, |n, algo| {
        allreduce_vt(models[0], n as u32, 65536, algo)
    });

    // Allgather, keyed on total gathered bytes, and bcast.
    let per_rank: &[usize] = if q { &[64, 256] } else { &[64, 1024, 16384] };
    let totals: Vec<usize> = per_rank.iter().map(|b| b * head_n as usize).collect();
    let allgather = Sweep::measure(&ALLGATHER, &totals, |total, algo| {
        allgather_vt(models[0], head_n, total / head_n as usize, algo)
    });
    let bc_sizes: &[usize] = if q {
        &[1024, 4096]
    } else {
        &[4096, 65536, 1048576]
    };
    let bcast = Sweep::measure(&BCAST, bc_sizes, |size, algo| {
        bcast_vt(models[0], head_n, size, algo)
    });

    // Threshold calibration: per op and model, the smallest size where the
    // bandwidth-optimal arm is within tolerance of the latency-optimal arm,
    // then calibrated (power of two, clamped).
    let mut sweeps: Vec<(&str, &str, Vec<SweepRow>)> = Vec::new();
    for (model, per_ranks) in &allreduce {
        // rdouble vs ring, at the largest rank count.
        let sweep = per_ranks.last().unwrap().1.crossover_sweep(1, 2);
        sweeps.push(("allreduce", model, sweep));
    }
    sweeps.push(("allgather", models[0], allgather.crossover_sweep(1, 2)));
    sweeps.push(("bcast", models[0], bcast.crossover_sweep(0, 1)));
    let mut all_measured = true;
    let mut thresholds: Vec<(&str, Vec<(String, Json)>)> = Vec::new();
    for (op, model, sweep) in sweeps {
        let crossover = measured_crossover(&sweep);
        let calibrated = calibrate(crossover);
        all_measured &= crossover.is_some();
        if op == "allreduce" && !q {
            assert!(
                threshold_consistent(calibrated, &sweep),
                "allreduce threshold {calibrated} inconsistent with sweep {sweep:?} @ {model}"
            );
        }
        let entry = Json::obj([
            ("crossover_bytes", crossover.map_or(Json::Null, Json::Num)),
            ("measured", Json::Bool(crossover.is_some())),
            ("calibrated", Json::Num(calibrated)),
        ]);
        match thresholds.last_mut() {
            Some((last, entries)) if *last == op => entries.push((key(model), entry)),
            _ => thresholds.push((op, vec![(key(model), entry)])),
        }
    }
    let allreduce_rows = Json::obj(allreduce.iter().map(|(model, per_ranks)| {
        (
            key(model),
            Json::obj(per_ranks.iter().map(|(n, sw)| (n, sw.json()))),
        )
    }));
    let head = vec![
        ("ranks", Json::Num(head_n)),
        ("bytes", Json::Num(head_size)),
        ("model", Json::str(key(models[0]))),
        ("speedup", Json::Num(format!("{head:.2}"))),
    ];
    let thresholds = vec![
        ("unit", Json::str("bytes")),
        ("measured", Json::Bool(all_measured)),
        (
            "rows",
            Json::obj(thresholds.into_iter().map(|(op, e)| (op, Json::obj(e)))),
        ),
    ];
    let virt = |fields| section("virtual", fields);
    vec![
        (
            "allreduce_vt_ns",
            virt(vec![
                ("layer_costs", Json::str("prototype")),
                ("rows", allreduce_rows),
            ]),
        ),
        ("ring_speedup_largest", virt(head)),
        (
            "scaling_allreduce_65536_vt_ns",
            virt(vec![("rows", scaling.json())]),
        ),
        (
            "allgather_vt_ns",
            virt(vec![
                ("ranks", Json::Num(head_n)),
                ("rows", allgather.json()),
            ]),
        ),
        (
            "bcast_vt_ns",
            virt(vec![("ranks", Json::Num(head_n)), ("rows", bcast.json())]),
        ),
        ("selector_thresholds", section("count", thresholds)),
    ]
}

// ---- checkpoint recovery ---------------------------------------------------

/// The disk-vs-replica rows and their report section.
fn recovery_section(q: bool) -> (&'static str, Json) {
    let sizes: &[usize] = if q {
        &[256 * 1024, 1 << 20]
    } else {
        &[256 * 1024, 1 << 20, 4 << 20, 16 << 20]
    };
    let mut cells = Vec::new();
    let mut replica_wins = true;
    for &size in sizes {
        let legs = recovery_model(size);
        let [.., disk_read, replica_fetch] = legs;
        replica_wins &= replica_fetch < disk_read;
        let speedup = speedup(legs);
        let mut cell: Vec<_> = LEGS
            .iter()
            .zip(legs)
            .map(|(l, v)| (*l, Json::Num(v)))
            .collect();
        cell.push(("speedup", Json::Num(speedup)));
        cells.push((size, Json::obj(cell)));
    }
    let fields = vec![
        ("k", Json::Num(K)),
        ("nodes", Json::Num(NODES)),
        ("replica_recovery_beats_disk", Json::Bool(replica_wins)),
        ("rows", Json::obj(cells)),
    ];
    ("recovery_ns", section("virtual", fields))
}

fn main() {
    let q = quick();
    println!("calibrate: {} mode", if q { "quick" } else { "full" });
    let mut fields = vec![
        ("bench", Json::str("calibrate")),
        ("quick", Json::Bool(q)),
        // The recovery rows and the large collective cells depend on it.
        ("rndv_threshold_bytes", Json::Num(DEFAULT_RNDV_THRESHOLD)),
    ];
    fields.extend(collectives_sections(q));
    fields.push(recovery_section(q));
    for (name, section) in PAPER {
        fields.push((name, section()));
        println!("calibrate: {name}");
    }

    let path = format!("{}/../../BENCH_calibrate.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, Json::obj(fields).render()) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}
