//! Model calibration: what the virtual-time model and the collective
//! selector rest on, measured in one run and written to one report,
//! `BENCH_calibrate.json` at the workspace root.
//!
//! * **Collectives** — allreduce / allgather / bcast, every algorithm arm,
//!   at 8–1024 simulated ranks under both network models, and the selector
//!   thresholds calibrated from the measured crossovers. The bench reports
//!   the calibration; the constants in `collectives::selector` are what runs.
//! * **Checkpoint recovery** — modelled stable storage (the paper-era IDE
//!   disk behind NFS) versus the diskless in-memory replica store, across
//!   image sizes.
//!
//! Every section of the report names its clock: `"virtual"` (modelled
//! nanoseconds, or a ratio of them) or `"count"` (bytes). Nothing here reads
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
//! `BENCH_QUICK=1` shrinks ranks, sizes and images for the CI smoke job.

use std::fmt::Display;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use starfish_bench::report;
use starfish_bench::threshold::{calibrate, measured_crossover, threshold_consistent, SweepRow};
use starfish_checkpoint::replica::ReplicaStore;
use starfish_checkpoint::{CkptImage, CkptLevel, CkptValue, DiskModel, MACHINES};
use starfish_mpi::collectives::{self, AllgatherAlgo, AllreduceAlgo, BcastAlgo, ReduceOp};
use starfish_mpi::{replica_net, Comm, CtsCadence, MpiEndpoint, RankDirectory, RecvMode};
use starfish_util::trace::TraceSink;
use starfish_util::{json, AppId, Epoch, NodeId, Rank, VClock, VirtualTime};
use starfish_vni::{BipMyrinet, Fabric, LayerCosts, NetworkModel, TcpEthernet};

/// Replication factor and cluster size of the recovery rows.
const K: u8 = 2;
const NODES: u32 = 8;
const APP: AppId = AppId(1);

fn quick() -> bool {
    std::env::var("BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// One value of the report: a formatted scalar, or an object. An object of
/// scalars prints on one line; an object holding an object nests.
enum J {
    Lit(String),
    Obj(Vec<(String, J)>),
}

impl J {
    fn num(v: impl Display) -> J {
        J::Lit(v.to_string())
    }

    fn str(s: &str) -> J {
        J::Lit(json::string(s))
    }

    fn obj<S: Display>(fields: impl IntoIterator<Item = (S, J)>) -> J {
        J::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// A report section: its clock first, then its fields.
    fn section(clock: &str, fields: Vec<(&str, J)>) -> J {
        J::obj([("clock", J::str(clock))].into_iter().chain(fields))
    }

    fn write(&self, out: &mut String, depth: usize) {
        let fields = match self {
            J::Lit(s) => return out.push_str(s),
            J::Obj(fields) => fields,
        };
        let flat = fields.iter().all(|(_, v)| matches!(v, J::Lit(_)));
        out.push('{');
        for (i, (k, v)) in fields.iter().enumerate() {
            out.push_str(if i == 0 { "" } else { "," });
            if flat {
                out.push_str(if i == 0 { "" } else { " " });
            } else {
                out.push('\n');
                out.push_str(&"  ".repeat(depth + 1));
            }
            out.push_str(&format!("{}: ", json::string(k)));
            v.write(out, depth + 1);
        }
        if !flat {
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
        }
        out.push('}');
    }
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

/// Virtual µs with one decimal, for the printed tables.
fn us(ns: u64) -> String {
    format!("{:.1}", ns as f64 / 1e3)
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

    /// Print as a table of virtual µs.
    fn print(&self, title: &str, key: &str) {
        println!("\n{title} (virtual µs):");
        let headers: Vec<&str> = [key].into_iter().chain(self.arms.clone()).collect();
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(k, ns)| {
                [k.to_string()]
                    .into_iter()
                    .chain(ns.iter().map(|&v| us(v)))
                    .collect()
            })
            .collect();
        report::print_table(&headers, &rows);
    }

    /// The report's rows: key → {arm: ns}.
    fn json(&self) -> J {
        J::obj(self.rows.iter().map(|(k, ns)| {
            let cells = self.arms.iter().zip(ns).map(|(a, &v)| (a, J::num(v)));
            (k, J::obj(cells))
        }))
    }

    /// Arm `lat` (wins small) against arm `bw` (wins large), per key.
    fn crossover_sweep(&self, lat: usize, bw: usize) -> Vec<SweepRow> {
        let row = |(k, ns): &(usize, Vec<u64>)| (*k, ns[lat] as f64, ns[bw] as f64);
        self.rows.iter().map(row).collect()
    }
}

/// The collective sweeps, printed, and their report sections.
fn collectives_sections(q: bool) -> Vec<(&'static str, J)> {
    let models: &[&str] = &["BIP/Myrinet", "TCP/IP"];
    let ranks: &[u32] = if q { &[4, 8] } else { &[8, 64] };
    let sizes: &[usize] = if q {
        &[1024, 4096]
    } else {
        &[1024, 16384, 262144, 1048576]
    };
    let scaling_ranks: &[usize] = if q { &[8, 16] } else { &[8, 64, 256, 1024] };
    report::print_banner(
        "Collective algorithms (virtual-time critical path)",
        &format!("ranks {ranks:?}, sizes {sizes:?}, scaling {scaling_ranks:?}"),
    );

    // Allreduce: algorithm x size x ranks x model.
    let mut allreduce = Vec::new();
    for &model in models {
        let mut per_ranks = Vec::new();
        for &n in ranks {
            let sw = Sweep::measure(&ALLREDUCE, sizes, |size, algo| {
                allreduce_vt(model, n, size, algo)
            });
            sw.print(&format!("allreduce @ {model}, {n} ranks"), "bytes");
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
    println!(
        "\nring allreduce speedup vs reduce+bcast @ {head_size} B x {head_n} ranks \
         ({}): {head:.2}x",
        models[0]
    );

    // Allreduce scaling in ranks at a fixed 64 KiB.
    let scaling = Sweep::measure(&ALLREDUCE[1..], scaling_ranks, |n, algo| {
        allreduce_vt(models[0], n as u32, 65536, algo)
    });
    scaling.print(
        &format!("allreduce 64 KiB scaling @ {}", models[0]),
        "ranks",
    );

    // Allgather, keyed on total gathered bytes, and bcast.
    let per_rank: &[usize] = if q { &[64, 256] } else { &[64, 1024, 16384] };
    let totals: Vec<usize> = per_rank.iter().map(|b| b * head_n as usize).collect();
    let allgather = Sweep::measure(&ALLGATHER, &totals, |total, algo| {
        allgather_vt(models[0], head_n, total / head_n as usize, algo)
    });
    allgather.print(
        &format!("allgather @ {}, {head_n} ranks", models[0]),
        "total bytes",
    );
    let bc_sizes: &[usize] = if q {
        &[1024, 4096]
    } else {
        &[4096, 65536, 1048576]
    };
    let bcast = Sweep::measure(&BCAST, bc_sizes, |size, algo| {
        bcast_vt(models[0], head_n, size, algo)
    });
    bcast.print(&format!("bcast @ {}, {head_n} ranks", models[0]), "bytes");

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
    let mut th_rows = Vec::new();
    let mut thresholds: Vec<(&str, Vec<(String, J)>)> = Vec::new();
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
        let shown = crossover.map_or("null".to_string(), |c| c.to_string());
        th_rows.push(vec![
            op.into(),
            model.into(),
            shown.clone(),
            calibrated.to_string(),
        ]);
        let entry = J::obj([
            ("crossover_bytes", J::Lit(shown)),
            ("measured", J::num(crossover.is_some())),
            ("calibrated", J::num(calibrated)),
        ]);
        match thresholds.last_mut() {
            Some((last, entries)) if *last == op => entries.push((key(model), entry)),
            _ => thresholds.push((op, vec![(key(model), entry)])),
        }
    }
    println!("\ncalibrated selector thresholds:");
    report::print_table(&["op", "model", "crossover", "calibrated"], &th_rows);

    let allreduce_rows = J::obj(allreduce.iter().map(|(model, per_ranks)| {
        (
            key(model),
            J::obj(per_ranks.iter().map(|(n, sw)| (n, sw.json()))),
        )
    }));
    let head = vec![
        ("ranks", J::num(head_n)),
        ("bytes", J::num(head_size)),
        ("model", J::str(&key(models[0]))),
        ("speedup", J::num(format!("{head:.2}"))),
    ];
    let thresholds = vec![
        ("unit", J::str("bytes")),
        ("measured", J::num(all_measured)),
        (
            "rows",
            J::obj(thresholds.into_iter().map(|(op, e)| (op, J::obj(e)))),
        ),
    ];
    let virt = |fields| J::section("virtual", fields);
    vec![
        (
            "allreduce_vt_ns",
            virt(vec![
                ("layer_costs", J::str("prototype")),
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
            virt(vec![("ranks", J::num(head_n)), ("rows", allgather.json())]),
        ),
        (
            "bcast_vt_ns",
            virt(vec![("ranks", J::num(head_n)), ("rows", bcast.json())]),
        ),
        ("selector_thresholds", J::section("count", thresholds)),
    ]
}

// ---- checkpoint recovery ---------------------------------------------------

fn image(index: u64, bytes: usize) -> CkptImage {
    CkptImage::capture(
        APP,
        Rank(0),
        Epoch(0),
        index,
        CkptLevel::Vm { arch: MACHINES[0] },
        &CkptValue::Bytes(vec![0x5a; bytes]),
        vec![],
        VirtualTime::ZERO,
    )
    .expect("capture image")
}

/// The four legs of the disk-vs-replica comparison.
const LEGS: [&str; 4] = ["disk_write", "replica_push", "disk_read", "replica_fetch"];

/// Virtual-time disk-vs-replica comparison at one image size: the [`LEGS`]
/// in nanoseconds. The recovery legs lose the owner node first, so the
/// replica fetch reassembles the image purely from surviving peers.
fn recovery_model(bytes: usize) -> [u64; 4] {
    let disk = DiskModel::ide_1999();
    let img = image(1, bytes);
    let total = img.total_bytes();
    let dw = disk.write_time(total).as_nanos();
    let dr = disk.read_time(total).as_nanos();

    let store = ReplicaStore::new();
    store.set_live(&(0..NODES).map(NodeId).collect::<Vec<_>>());
    let net = replica_net();
    let receipt = store.put_replicated(img, NodeId(0), K, &net);
    assert!(!receipt.under_replicated);
    store.node_down(NodeId(0)); // the owner dies with its local state
    let fetch = store
        .fetch(APP, Rank(0), 1, NodeId(1), &net)
        .expect("image must be recoverable from peers after owner loss");
    assert_eq!(fetch.parity_rebuilds, 0, "k−1 losses never need parity");
    [dw, receipt.cost.as_nanos(), dr, fetch.cost.as_nanos()]
}

/// The disk-vs-replica rows, printed, and their report section.
fn recovery_section(q: bool) -> (&'static str, J) {
    let sizes: &[usize] = if q {
        &[256 * 1024, 1 << 20]
    } else {
        &[256 * 1024, 1 << 20, 4 << 20, 16 << 20]
    };
    report::print_banner(
        "Checkpoint recovery: disk vs diskless replica (virtual ms)",
        &format!("k={K}, {NODES} nodes"),
    );
    let mut rows = Vec::new();
    let mut cells = Vec::new();
    let mut replica_wins = true;
    for &size in sizes {
        let legs = recovery_model(size);
        let [.., disk_read, replica_fetch] = legs;
        replica_wins &= replica_fetch < disk_read;
        let speedup = format!("{:.2}", disk_read as f64 / replica_fetch as f64);
        let ms = legs.map(|ns| format!("{:.2}", ns as f64 / 1e6));
        rows.push(
            [
                vec![size.to_string()],
                ms.to_vec(),
                vec![format!("{speedup}x")],
            ]
            .concat(),
        );
        let mut cell: Vec<_> = LEGS
            .iter()
            .zip(legs)
            .map(|(l, v)| (*l, J::num(v)))
            .collect();
        cell.push(("speedup", J::Lit(speedup)));
        cells.push((size, J::obj(cell)));
    }
    let headers = [["bytes"].as_slice(), &LEGS, &["recovery speedup"]].concat();
    report::print_table(&headers, &rows);
    println!(
        "\nreplica recovery {} modelled disk on every size",
        if replica_wins { "beats" } else { "LOSES TO" }
    );
    let fields = vec![
        ("k", J::num(K)),
        ("nodes", J::num(NODES)),
        ("replica_recovery_beats_disk", J::num(replica_wins)),
        ("rows", J::obj(cells)),
    ];
    ("recovery_ns", J::section("virtual", fields))
}

fn main() {
    let q = quick();
    println!("calibrate: {} mode", if q { "quick" } else { "full" });
    let mut fields = vec![("bench", J::str("calibrate")), ("quick", J::num(q))];
    fields.extend(collectives_sections(q));
    fields.push(recovery_section(q));

    let mut out = String::new();
    J::obj(fields).write(&mut out, 0);
    out.push('\n');
    let path = format!("{}/../../BENCH_calibrate.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &out) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}
