//! Collective-algorithm sweep: allreduce / allgather / bcast, every
//! algorithm arm, at 8–1024 simulated ranks under both network models.
//! Results — the measured crossovers and the thresholds calibrated from
//! them included — are written to `BENCH_collectives.json` at the workspace
//! root. The bench reports the calibration; the constants in
//! `collectives::selector` are what runs.
//!
//! Unlike the fabric bench, the figure of merit here is **virtual time**:
//! every rank's `VClock` max-merges across message exchanges, so the
//! maximum final clock over all ranks is the modeled critical path of the
//! collective under the network model's latency/bandwidth — deterministic
//! regardless of host scheduling (this box has one CPU; wall-clock numbers
//! for 64 communicating threads would measure the scheduler, not the
//! algorithms). Wall-clock stays the right tool for the fabric
//! microbenches; algorithm comparisons belong in virtual time.
//!
//! `BENCH_QUICK=1` shrinks ranks and sizes for the CI smoke job.

use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use starfish_bench::report;
use starfish_mpi::collectives::{self, AllgatherAlgo, AllreduceAlgo, BcastAlgo, ReduceOp};
use starfish_mpi::{
    calibrate, measured_crossover, threshold_consistent, Comm, MpiEndpoint, RankDirectory, RecvMode,
};
use starfish_util::trace::TraceSink;
use starfish_util::{json, AppId, NodeId, Rank, VClock};
use starfish_vni::{BipMyrinet, Fabric, LayerCosts, NetworkModel, TcpEthernet};

/// `rows[model][ranks][size]` = (reduce_bcast, rdouble, ring) vt-ns.
type AllreduceRows = Vec<(String, Vec<(u32, Vec<(usize, u64, u64, u64)>)>)>;
/// `thresholds[op][model]` = (model name, crossover, calibrated).
type ThresholdRows = Vec<(&'static str, Vec<(String, Option<usize>, usize)>)>;

fn quick() -> bool {
    std::env::var("BENCH_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// Run `f` on `n` rank-threads over a fabric with the given network model
/// and prototype per-layer software costs; returns the maximum final
/// virtual time across ranks in nanoseconds — the modeled critical path.
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
                AppId(1),
                Rank(r),
                dir.clone(),
                RecvMode::Direct,
                TraceSink::disabled(),
            )
            .unwrap();
            // 1024 rank-threads share one CPU: a late-scheduled rank can
            // legitimately wait minutes of wall-clock mid-collective.
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

struct Json(String);

impl Json {
    fn push(&mut self, s: &str) {
        self.0.push_str(s);
    }
}

fn json_map<K: std::fmt::Display>(j: &mut Json, indent: &str, rows: &[(K, String)]) {
    for (i, (k, v)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        j.push(&format!(
            "{indent}{}: {v}{comma}\n",
            json::string(&k.to_string())
        ));
    }
}

fn main() {
    let q = quick();
    let models: &[&str] = &["BIP/Myrinet", "TCP/IP"];
    let ranks: &[u32] = if q { &[4, 8] } else { &[8, 64] };
    let sizes: &[usize] = if q {
        &[1024, 4096]
    } else {
        &[1024, 16384, 262144, 1048576]
    };
    let scaling_ranks: &[u32] = if q { &[8, 16] } else { &[8, 64, 256, 1024] };

    report::print_banner(
        "Collective algorithms (virtual-time critical path)",
        &format!(
            "{} mode: ranks {ranks:?}, sizes {sizes:?}, scaling {scaling_ranks:?}",
            if q { "quick" } else { "full" }
        ),
    );

    // ---- allreduce: algorithm x size x ranks x model ----------------------
    let mut allreduce: AllreduceRows = Vec::new();
    for model in models {
        let mut per_ranks = Vec::new();
        for &n in ranks {
            let mut table_rows = Vec::new();
            let mut rows = Vec::new();
            for &size in sizes {
                let rb = allreduce_vt(model, n, size, AllreduceAlgo::ReduceBcast);
                let rd = allreduce_vt(model, n, size, AllreduceAlgo::RecursiveDoubling);
                let ri = allreduce_vt(model, n, size, AllreduceAlgo::Ring);
                table_rows.push(vec![
                    size.to_string(),
                    format!("{:.1}", rb as f64 / 1e3),
                    format!("{:.1}", rd as f64 / 1e3),
                    format!("{:.1}", ri as f64 / 1e3),
                    format!("{:.2}", rb as f64 / ri as f64),
                ]);
                rows.push((size, rb, rd, ri));
            }
            println!("\nallreduce @ {model}, {n} ranks (virtual µs):");
            report::print_table(
                &["bytes", "reduce+bcast", "rdouble", "ring", "rb/ring"],
                &table_rows,
            );
            per_ranks.push((n, rows));
        }
        allreduce.push((model.to_string(), per_ranks));
    }

    // ---- headline: ring vs the old reduce+bcast composition ---------------
    // Full mode measures 1 MiB @ 64 ranks on BIP/Myrinet; quick mode reuses
    // the largest measured cell (numbers meaningless, field present).
    let (head_n, head_size) = (*ranks.last().unwrap(), *sizes.last().unwrap());
    let head = allreduce
        .iter()
        .find(|(m, _)| m == models[0])
        .and_then(|(_, per)| per.iter().find(|(n, _)| *n == head_n))
        .and_then(|(_, rows)| rows.iter().find(|(s, ..)| *s == head_size))
        .map(|&(_, rb, _, ri)| rb as f64 / ri as f64)
        .unwrap();
    println!(
        "\nring allreduce speedup vs reduce+bcast @ {head_size} B x {head_n} ranks \
         ({}): {head:.2}x",
        models[0]
    );

    // ---- allreduce scaling in ranks at fixed 64 KiB -----------------------
    let mut scaling: Vec<(u32, u64, u64)> = Vec::new();
    let mut scale_rows = Vec::new();
    for &n in scaling_ranks {
        let rd = allreduce_vt(models[0], n, 65536, AllreduceAlgo::RecursiveDoubling);
        let ri = allreduce_vt(models[0], n, 65536, AllreduceAlgo::Ring);
        scale_rows.push(vec![
            n.to_string(),
            format!("{:.1}", rd as f64 / 1e3),
            format!("{:.1}", ri as f64 / 1e3),
        ]);
        scaling.push((n, rd, ri));
    }
    println!("\nallreduce 64 KiB scaling @ {} (virtual µs):", models[0]);
    report::print_table(&["ranks", "rdouble", "ring"], &scale_rows);

    // ---- allgather: gather+bcast vs Bruck vs ring -------------------------
    let ag_ranks = *ranks.last().unwrap();
    let ag_sizes: &[usize] = if q { &[64, 256] } else { &[64, 1024, 16384] };
    let mut allgather: Vec<(usize, u64, u64, u64)> = Vec::new();
    let mut ag_rows = Vec::new();
    for &per_rank in ag_sizes {
        let gb = allgather_vt(models[0], ag_ranks, per_rank, AllgatherAlgo::GatherBcast);
        let br = allgather_vt(models[0], ag_ranks, per_rank, AllgatherAlgo::Bruck);
        let ri = allgather_vt(models[0], ag_ranks, per_rank, AllgatherAlgo::Ring);
        ag_rows.push(vec![
            (per_rank * ag_ranks as usize).to_string(),
            format!("{:.1}", gb as f64 / 1e3),
            format!("{:.1}", br as f64 / 1e3),
            format!("{:.1}", ri as f64 / 1e3),
        ]);
        allgather.push((per_rank, gb, br, ri));
    }
    println!(
        "\nallgather @ {}, {ag_ranks} ranks (total bytes; virtual µs):",
        models[0]
    );
    report::print_table(&["total bytes", "gather+bcast", "bruck", "ring"], &ag_rows);

    // ---- bcast: binomial vs scatter+allgather -----------------------------
    let bc_sizes: &[usize] = if q {
        &[1024, 4096]
    } else {
        &[4096, 65536, 1048576]
    };
    let mut bcast: Vec<(usize, u64, u64)> = Vec::new();
    let mut bc_rows = Vec::new();
    for &size in bc_sizes {
        let bi = bcast_vt(models[0], ag_ranks, size, BcastAlgo::Binomial);
        let vdg = bcast_vt(models[0], ag_ranks, size, BcastAlgo::ScatterAllgather);
        bc_rows.push(vec![
            size.to_string(),
            format!("{:.1}", bi as f64 / 1e3),
            format!("{:.1}", vdg as f64 / 1e3),
        ]);
        bcast.push((size, bi, vdg));
    }
    println!("\nbcast @ {}, {ag_ranks} ranks (virtual µs):", models[0]);
    report::print_table(&["bytes", "binomial", "scatter+allgather"], &bc_rows);

    // ---- threshold calibration --------------------------------------------
    // The selector's crossover per op and model, found exactly the way the
    // rendezvous threshold is: smallest size where the bandwidth-optimal
    // arm is within tolerance of the latency-optimal arm, then calibrated
    // (power of two, clamped).
    let mut thresholds: ThresholdRows = Vec::new();
    let mut all_measured = true;

    // allreduce: rdouble (latency arm) vs ring, at the largest rank count.
    let mut ar_entries = Vec::new();
    for (model, per_ranks) in &allreduce {
        let rows = &per_ranks.last().unwrap().1;
        let sweep: Vec<starfish_mpi::threshold::SweepRow> = rows
            .iter()
            .map(|&(size, _, rd, ri)| (size, rd as f64, ri as f64))
            .collect();
        let crossover = measured_crossover(&sweep);
        let calibrated = calibrate(crossover);
        all_measured &= crossover.is_some();
        if !q {
            assert!(
                threshold_consistent(calibrated, &sweep),
                "allreduce threshold {calibrated} inconsistent with sweep {sweep:?} @ {model}"
            );
        }
        ar_entries.push((model.clone(), crossover, calibrated));
    }
    thresholds.push(("allreduce", ar_entries));

    // allgather: Bruck vs ring, keyed on total gathered bytes.
    let ag_sweep: Vec<starfish_mpi::threshold::SweepRow> = allgather
        .iter()
        .map(|&(per_rank, _, br, ri)| (per_rank * ag_ranks as usize, br as f64, ri as f64))
        .collect();
    let ag_cross = measured_crossover(&ag_sweep);
    let ag_cal = calibrate(ag_cross);
    all_measured &= ag_cross.is_some();
    thresholds.push(("allgather", vec![(models[0].to_string(), ag_cross, ag_cal)]));

    // bcast: binomial vs scatter+allgather.
    let bc_sweep: Vec<starfish_mpi::threshold::SweepRow> = bcast
        .iter()
        .map(|&(size, bi, vdg)| (size, bi as f64, vdg as f64))
        .collect();
    let bc_cross = measured_crossover(&bc_sweep);
    let bc_cal = calibrate(bc_cross);
    all_measured &= bc_cross.is_some();
    thresholds.push(("bcast", vec![(models[0].to_string(), bc_cross, bc_cal)]));

    println!("\ncalibrated selector thresholds:");
    let mut th_rows = Vec::new();
    for (op, entries) in &thresholds {
        for (model, cross, cal) in entries {
            th_rows.push(vec![
                op.to_string(),
                model.clone(),
                cross.map_or("none".into(), |c| c.to_string()),
                cal.to_string(),
            ]);
        }
    }
    report::print_table(&["op", "model", "crossover", "calibrated"], &th_rows);

    // ---- JSON report -------------------------------------------------------
    let mut j = Json(String::new());
    j.push("{\n  \"bench\": \"collectives\",\n");
    j.push(&format!("  \"quick\": {q},\n"));
    j.push("  \"unit\": \"virtual-time ns (modeled critical path)\",\n");
    j.push("  \"layer_costs\": \"prototype\",\n");
    j.push("  \"allreduce_vt_ns\": {\n");
    for (mi, (model, per_ranks)) in allreduce.iter().enumerate() {
        j.push(&format!(
            "    {}: {{\n",
            json::string(&model.replace('/', "-"))
        ));
        for (ni, (n, rows)) in per_ranks.iter().enumerate() {
            j.push(&format!("      \"{n}\": {{\n"));
            let cells: Vec<(usize, String)> = rows
                .iter()
                .map(|&(size, rb, rd, ri)| {
                    (
                        size,
                        format!("{{\"reduce_bcast\": {rb}, \"rdouble\": {rd}, \"ring\": {ri}}}"),
                    )
                })
                .collect();
            json_map(&mut j, "        ", &cells);
            let comma = if ni + 1 == per_ranks.len() { "" } else { "," };
            j.push(&format!("      }}{comma}\n"));
        }
        let comma = if mi + 1 == allreduce.len() { "" } else { "," };
        j.push(&format!("    }}{comma}\n"));
    }
    j.push("  },\n");
    j.push(&format!(
        "  \"ring_speedup_largest\": {{\"ranks\": {head_n}, \"bytes\": {head_size}, \
         \"model\": {}, \"speedup\": {head:.2}}},\n",
        json::string(&models[0].replace('/', "-"))
    ));
    j.push("  \"scaling_allreduce_65536_vt_ns\": {\n");
    let cells: Vec<(u32, String)> = scaling
        .iter()
        .map(|&(n, rd, ri)| (n, format!("{{\"rdouble\": {rd}, \"ring\": {ri}}}")))
        .collect();
    json_map(&mut j, "    ", &cells);
    j.push("  },\n");
    j.push(&format!(
        "  \"allgather_vt_ns\": {{\"ranks\": {ag_ranks}, \"rows\": {{\n"
    ));
    let cells: Vec<(usize, String)> = allgather
        .iter()
        .map(|&(per_rank, gb, br, ri)| {
            (
                per_rank * ag_ranks as usize,
                format!("{{\"gather_bcast\": {gb}, \"bruck\": {br}, \"ring\": {ri}}}"),
            )
        })
        .collect();
    json_map(&mut j, "    ", &cells);
    j.push("  }},\n");
    j.push(&format!(
        "  \"bcast_vt_ns\": {{\"ranks\": {ag_ranks}, \"rows\": {{\n"
    ));
    let cells: Vec<(usize, String)> = bcast
        .iter()
        .map(|&(size, bi, vdg)| {
            (
                size,
                format!("{{\"binomial\": {bi}, \"scatter_allgather\": {vdg}}}"),
            )
        })
        .collect();
    json_map(&mut j, "    ", &cells);
    j.push("  }},\n");
    j.push("  \"selector_thresholds\": {\n");
    for (oi, (op, entries)) in thresholds.iter().enumerate() {
        j.push(&format!("    {}: {{\n", json::string(op)));
        let cells: Vec<(String, String)> = entries
            .iter()
            .map(|(model, cross, cal)| {
                (
                    model.replace('/', "-"),
                    format!(
                        "{{\"crossover_bytes\": {}, \"measured\": {}, \"calibrated\": {cal}}}",
                        cross.map_or("null".to_string(), |c| c.to_string()),
                        cross.is_some()
                    ),
                )
            })
            .collect();
        json_map(&mut j, "      ", &cells);
        let comma = if oi + 1 == thresholds.len() { "" } else { "," };
        j.push(&format!("    }}{comma}\n"));
    }
    j.push("  },\n");
    j.push(&format!("  \"thresholds_measured\": {all_measured}\n"));
    j.push("}\n");

    let path = format!(
        "{}/../../BENCH_collectives.json",
        env!("CARGO_MANIFEST_DIR")
    );
    match std::fs::write(&path, &j.0) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}
