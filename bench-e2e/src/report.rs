//! The metric catalogue and the one output format.
//!
//! Every number the benchmark reports is declared here once — name, unit,
//! clock domain, direction, bound — and `BENCHMARK.json` repeats the same
//! list (a unit test keeps the two in step). A run prints one `METRIC` line
//! per catalogue entry and ends with the JSON object the driver reads.

/// Which clock (or none) a number was read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// `Instant`/`/proc` on the host running the benchmark.
    Wall,
    /// The simulator's modelled 1999 cluster (`ctx.time()`).
    Virtual,
    /// A counter; repeats exactly where the README says so.
    Count,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Virtual => "virtual",
            Clock::Count => "count",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub higher_is_better: bool,
    /// End-to-end only: relative worsening that counts as a regression.
    pub bound: f64,
    /// Per-layer only: the one workload whose traced run measures this
    /// (the others print 0 — they do not exercise it); `None` = every one.
    pub only: Option<&'static str>,
}

const fn e2e(name: &'static str, unit: &'static str, clock: Clock, bound: f64) -> Def {
    Def {
        name,
        unit,
        clock,
        higher_is_better: false,
        bound,
        only: None,
    }
}

const fn layer(name: &'static str, unit: &'static str, clock: Clock) -> Def {
    e2e(name, unit, clock, 0.0)
}

const fn up(d: Def) -> Def {
    Def {
        higher_is_better: true,
        ..d
    }
}

const fn on(workload: &'static str, d: Def) -> Def {
    Def {
        only: Some(workload),
        ..d
    }
}

use Clock::{Count, Virtual, Wall};

/// Reported by every workload of an untraced run, and gated. Only set-up
/// is wall-clock: no wall-clock job metric holds a 0.10 bound on the 2-vCPU
/// reference box (README, "What this box can hold"), so those are printed
/// ungated (the first five of [`PER_LAYER`]) and the gate is what repeats:
/// the modelled job time and the traffic per op.
pub const END_TO_END: &[Def] = &[
    e2e("setup_s", "s", Wall, 0.10),
    e2e("vt_job_s", "s_virtual", Virtual, 0.01),
    e2e("mpi.msgs_per_op", "count", Count, 0.01),
    e2e("mpi.wire_B_per_op", "B", Count, 0.01),
    e2e("vni.packets_per_op", "count", Count, 0.01),
];

const MSGRATE: &str = "msgrate_8B";
const STREAM: &str = "stream_1MiB";
const SOLVER: &str = "solver_allreduce";
const JACOBI: &str = "ft_jacobi";

/// How many leading [`PER_LAYER`] entries are the whole-job wall-clock
/// metrics an untraced run prints beside the gated ones.
pub const JOB_WALL: usize = 5;

/// Reported by a traced run; ungated. What each should move is in README.md.
pub const PER_LAYER: &[Def] = &[
    // the whole job in wall-clock: from the full-length untraced run as
    // METRIC lines, from the spans-off arm in a traced run's result
    layer("job_s", "s", Wall),
    up(layer("ops_per_s", "1/s", Wall)),
    up(layer("goodput_MBps", "MB/s", Wall)),
    layer("op_p50_us", "us", Wall),
    layer("cpu_us_per_op", "us", Wall),
    // core — spans around this workload's own Ctx calls; a two-rank Ctx job
    // for the call costs the self times are differenced from
    on(MSGRATE, layer("core.send_ns_p50", "ns", Wall)),
    on(MSGRATE, layer("core.recv_ns_p50", "ns", Wall)),
    on(MSGRATE, layer("core.self_ns_per_msg.8B", "ns", Wall)),
    on(STREAM, layer("core.self_us_per_msg.1MiB", "us", Wall)),
    on(JACOBI, layer("core.safepoint_us_p50", "us", Wall)),
    on(SOLVER, layer("core.halo_us_p50", "us", Wall)),
    on(SOLVER, layer("core.allreduce_us_p50.8B", "us", Wall)),
    on(SOLVER, layer("core.allreduce_us_p50.256KiB", "us", Wall)),
    on(JACOBI, layer("core.barrier_us_p50", "us", Wall)),
    on(JACOBI, layer("core.ckpt_call_ms_p50", "ms", Wall)),
    layer("core.submit_ms", "ms", Wall),
    layer("core.first_msg_ms", "ms", Wall),
    layer("core.iter_us_p99", "us", Wall),
    on(MSGRATE, layer("core.pingpong_rtt_us_p50", "us", Wall)),
    // mpi — raw endpoint pairs, and counters of the traced pass
    on(MSGRATE, layer("mpi.send_ns_p50.8B", "ns", Wall)),
    on(MSGRATE, layer("mpi.recv_ns_p50.8B", "ns", Wall)),
    on(MSGRATE, layer("mpi.self_ns_per_msg.8B", "ns", Wall)),
    on(STREAM, layer("mpi.xfer_us_p50.1MiB", "us", Wall)),
    on(STREAM, layer("mpi.self_us_per_msg.1MiB", "us", Wall)),
    on(
        SOLVER,
        layer("mpi.coll_allreduce_us_p50.256KiB.n4", "us", Wall),
    ),
    layer("mpi.rndv_sends", "count", Count),
    layer("mpi.retransmits", "count", Count),
    layer("mpi.nacks", "count", Count),
    layer("mpi.credit_fallbacks", "count", Count),
    // vni — raw fabric ports, and a counter of the traced pass
    on(MSGRATE, layer("vni.send_ns_p50.8B", "ns", Wall)),
    on(MSGRATE, layer("vni.recv_ns_p50.8B", "ns", Wall)),
    on(STREAM, layer("vni.xfer_us_p50.1MiB", "us", Wall)),
    layer("vni.dropped", "count", Count),
    // checkpoint — capture/restore/store driven directly; counters of the pass
    on(JACOBI, up(layer("checkpoint.capture_MBps", "MB/s", Wall))),
    on(JACOBI, up(layer("checkpoint.restore_MBps", "MB/s", Wall))),
    on(JACOBI, layer("checkpoint.store_put_us.1MiB", "us", Wall)),
    on(JACOBI, layer("checkpoint.store_get_us.1MiB", "us", Wall)),
    layer("checkpoint.image_B", "B", Count),
    layer("checkpoint.rounds", "count", Count),
    // daemon / ensemble — set-up samples, the crash schedule, an idle control plane
    layer("daemon.boot_ms_per_node", "ms", Wall),
    on(JACOBI, layer("daemon.cfg_cast_ms_p50", "ms", Wall)),
    on(JACOBI, layer("daemon.mgmt_rtt_us_p50", "us", Wall)),
    on(JACOBI, layer("daemon.recover_ms_p50", "ms", Wall)),
    on(JACOBI, layer("daemon.epoch_bump_ms_p50", "ms", Wall)),
    on(JACOBI, layer("daemon.respawn_ms_p50", "ms", Wall)),
    on(JACOBI, layer("daemon.add_node_ms_p50", "ms", Wall)),
    layer("ensemble.casts", "count", Count),
    layer("ensemble.view_changes", "count", Count),
    layer("ensemble.view_change_ms_p50", "ms", Wall),
    // trace / events
    on(MSGRATE, layer("trace.overhead_pct", "%", Wall)),
    layer("trace.dropped", "count", Count),
    layer("events.dropped", "count", Count),
    // proc / harness
    layer("proc.allocs_per_op", "count", Count),
    layer("proc.alloc_B_per_op", "B", Count),
    layer("proc.ctx_switches_per_op", "count", Count),
    up(layer("proc.cpu_util", "cores", Wall)),
    layer("proc.threads", "count", Count),
    layer("proc.peak_rss_MiB", "MiB", Wall),
    layer("harness.serial_iter_us", "us", Wall),
    layer("harness.span_overhead_pct", "%", Wall),
    on(MSGRATE, layer("harness.layer_sum_residual_pct", "%", Wall)),
];

/// Measured values keyed by catalogue name.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    /// Zero for every per-layer metric that only another workload's traced
    /// run measures.
    pub fn zero_unexercised(&mut self, workload: &str) {
        for d in PER_LAYER {
            if d.only.is_some_and(|w| w != workload) {
                self.set(d.name, 0.0);
            }
        }
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    /// Catalogue entries without a finite value (a bug or an unreachable
    /// probe), and values set twice or under names the catalogue lacks.
    pub fn mismatches(&self, defs: &[Def]) -> Vec<String> {
        let mut out: Vec<String> = defs
            .iter()
            .filter(|d| !self.get(d.name).is_finite())
            .map(|d| format!("{} has no value", d.name))
            .collect();
        for (i, (n, _)) in self.0.iter().enumerate() {
            if !defs.iter().any(|d| d.name == *n) {
                out.push(format!("{n} is not in the catalogue"));
            }
            if self.0[..i].iter().any(|(earlier, _)| earlier == n) {
                out.push(format!("{n} is set twice"));
            }
        }
        out
    }
}

pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// `METRIC` lines for people and `--selfcheck` — `defs`, then the `ungated`
/// ones the driver is not told about — and the driver's JSON object of
/// `defs` as the last line. Values are printed with every digit `f64`'s
/// shortest round-trip form has.
pub fn print(o: &Outcome, defs: &[Def], ungated: &[Def], values: &Values, note: &str) {
    for d in defs.iter().chain(ungated) {
        println!(
            "METRIC {} {} {} {} {}{}",
            o.workload,
            d.name,
            values.get(d.name),
            d.unit,
            d.clock.label(),
            note
        );
    }
    println!(
        "ops_attempted {} ops_failed {} seed {}",
        o.attempted, o.failed, o.seed
    );
    println!("{}", json_line(o, defs, values));
}

pub fn json_line(o: &Outcome, defs: &[Def], values: &Values) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = values.get(d.name);
            // JSON has no NaN; a missing value already made the run incorrect.
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// A result line read back.
#[derive(Debug, PartialEq)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
}

/// Read back what [`json_line`] wrote. Only that shape is understood.
pub fn parse_json_line(line: &str) -> Option<Parsed> {
    let after = |key: &str| {
        let at = line.find(key)? + key.len();
        Some(line[at..].trim_start())
    };
    let number = |s: &str| -> Option<f64> {
        let end = s
            .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
            .unwrap_or(s.len());
        s[..end].parse().ok()
    };
    let correct = after("\"correct\":")?.starts_with("true");
    let attempted = number(after("\"attempted\":")?)? as u64;
    let failed = number(after("\"failed\":")?)? as u64;
    let mut metrics = Vec::new();
    let mut rest = after("\"metrics\":")?.strip_prefix('{')?;
    while let Some(open) = rest.find('"') {
        let name_end = open + 1 + rest[open + 1..].find('"')?;
        let name = &rest[open + 1..name_end];
        let body_end = name_end + rest[name_end..].find('}')?;
        let body = &rest[name_end..body_end];
        // `null` (a value the run could not measure) is skipped.
        if let Some(value) = body
            .find("\"value\":")
            .and_then(|i| number(body[i + 8..].trim_start()))
        {
            metrics.push((name.to_string(), value));
        }
        rest = &rest[body_end + 1..];
    }
    Some(Parsed {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in_benchmark_json(section: &str) -> Vec<String> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let end = start + text[start..].find(']').expect("section is an array");
        text[start..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn catalogue_and_benchmark_json_list_the_same_metrics() {
        let ours = |defs: &[Def]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(names_in_benchmark_json("end_to_end"), ours(END_TO_END));
        assert_eq!(names_in_benchmark_json("per_layer"), ours(PER_LAYER));
        let workloads: Vec<String> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| k.name().to_string())
            .collect();
        assert_eq!(names_in_benchmark_json("workloads"), workloads);
    }

    #[test]
    fn catalogue_respects_the_contract_limits() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "name {}", d.name);
            assert!(ok_unit(d.unit), "unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "duplicate {}", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        assert!(
            END_TO_END.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        assert!(PER_LAYER[..JOB_WALL].iter().all(|d| d.only.is_none()));
        assert_eq!(PER_LAYER[JOB_WALL - 1].name, "cpu_us_per_op");
    }

    #[test]
    fn every_owned_metric_names_a_workload_and_reads_zero_elsewhere() {
        let kinds = crate::workloads::Kind::ALL.map(|k| k.name());
        for d in PER_LAYER {
            assert!(d.only.is_none_or(|w| kinds.contains(&w)), "{}", d.name);
        }
        let mut v = Values::default();
        v.zero_unexercised("ft_jacobi");
        assert_eq!(v.get("core.send_ns_p50"), 0.0);
        assert_eq!(v.get("mpi.coll_allreduce_us_p50.256KiB.n4"), 0.0);
        assert!(v.get("core.ckpt_call_ms_p50").is_nan(), "ft_jacobi's own");
        assert!(v.get("proc.threads").is_nan(), "every workload's own");
    }

    #[test]
    fn json_line_round_trips_and_flags_missing_values() {
        let mut v = Values::default();
        v.set("setup_s", 0.0431);
        v.set("vt_job_s", 9.75);
        v.set("bogus", 1.0);
        v.set("setup_s", 0.05);
        let defs = &END_TO_END[..3];
        let o = Outcome {
            workload: "msgrate_8B",
            seed: 3,
            correct: true,
            attempted: 5_000_000,
            failed: 2,
        };
        let line = json_line(&o, defs, &v);
        let p = parse_json_line(&line).expect("parses");
        assert!(p.correct);
        assert_eq!((p.attempted, p.failed), (5_000_000, 2));
        assert_eq!(
            p.metrics,
            vec![
                ("setup_s".to_string(), 0.0431),
                ("vt_job_s".to_string(), 9.75)
            ]
        );
        assert!(line.contains("\"mpi.msgs_per_op\": {\"value\": null"));
        let bad = v.mismatches(defs);
        assert_eq!(
            bad,
            vec![
                "mpi.msgs_per_op has no value".to_string(),
                "bogus is not in the catalogue".to_string(),
                "setup_s is set twice".to_string()
            ]
        );
        assert!(parse_json_line("no json here").is_none());
    }

    #[test]
    fn parser_reads_exponents_and_negatives() {
        let line = r#"{"correct": false, "attempted": 1, "failed": 0, "metrics": {"a.b": {"value": 1.5e-7, "unit": "s"}, "c": {"value": -3, "unit": "%"}}}"#;
        let p = parse_json_line(line).expect("parses");
        assert!(!p.correct);
        assert_eq!(
            p.metrics,
            vec![("a.b".to_string(), 1.5e-7), ("c".to_string(), -3.0)]
        );
    }
}
