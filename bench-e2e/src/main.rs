//! `e2e` — the end-to-end job benchmark (see README.md).
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run (the driver's contract)
//! e2e [--seed n] [--seconds s] [--trace 1]                        all four workloads
//! e2e --quick [--trace 1]                                         every code path in seconds
//! e2e --selfcheck [runs]                                          two interleaved sets vs the bounds
//! ```

mod alloc;
mod kernels;
mod probes;
mod procfs;
mod report;
mod selfcheck;
mod spans;
mod stats;
mod workloads;

use report::{Outcome, Values, END_TO_END, PER_LAYER};
use workloads::{Kind, PassResult, Plan};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Set-up samples per untraced run (`setup_s` is their median): the
/// measured job's own set-up plus jobs cut to their first batch, half of
/// them before the measured job and half after it, so that a slow stretch
/// of the host shorter than the run does not own the median.
const SETUP_SAMPLES: usize = 41;
/// A traced run spends this share of `--seconds` on each of its two arms
/// (spans off, spans on); the probes take the rest.
const TRACE_ARM_SHARE: f64 = 0.3;
const TRACE_SETUP_SAMPLES: usize = 5;

pub fn die(msg: &str) -> ! {
    eprintln!("e2e: {msg}");
    std::process::exit(2);
}

pub struct Args {
    workload: Option<Kind>,
    pub seed: u64,
    pub seconds: f64,
    trace: bool,
    quick: bool,
    selfcheck: Option<usize>,
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        quick: false,
        selfcheck: None,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value("a workload name");
                a.workload = Some(
                    Kind::parse(&v).unwrap_or_else(|| die(&format!("unknown workload {v:?}"))),
                );
            }
            "--seed" => {
                a.seed = value("a u64")
                    .parse()
                    .unwrap_or_else(|_| die("--seed takes a u64"))
            }
            "--seconds" => {
                a.seconds = value("a number")
                    .parse()
                    .unwrap_or_else(|_| die("--seconds takes a number"));
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    die("--seconds must be in (0, 60]");
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => die("--trace takes 0 or 1"),
                }
            }
            "--quick" => a.quick = true,
            "--selfcheck" => {
                let runs = it.next_if(|v| !v.starts_with("--")).map(|v| v.parse());
                a.selfcheck = Some(match runs {
                    None => 3,
                    Some(Ok(n)) if n >= 2 => n,
                    Some(_) => die("--selfcheck takes a run count of at least 2"),
                });
            }
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    a
}

fn plan_for(kind: Kind, args: &Args, share: f64) -> Plan {
    if args.quick {
        Plan::quick(kind, args.seed)
    } else {
        Plan::sized(kind, args.seed, args.seconds / 10.0 * share)
    }
}

/// Throughput and per-op time from the median measured batch.
fn rates(r: &PassResult) -> (f64, f64) {
    let kind = r.plan.kind;
    let batch_ops = kind.batch_ops() as f64;
    let batch_p50 = stats::median(&r.batch_s);
    let op_p50_us = match kind {
        Kind::Msgrate8B | Kind::Stream1MiB => batch_p50 / batch_ops * 1e6,
        Kind::SolverAllreduce | Kind::FtJacobi => stats::median(&r.op_s) * 1e6,
    };
    (batch_ops / batch_p50, op_p50_us)
}

/// The whole job in wall-clock ([`report::JOB_WALL`]): printed, never gated.
fn set_job_wall(v: &mut Values, r: &PassResult) {
    let (ops_per_s, op_p50_us) = rates(r);
    v.set("job_s", r.job_s);
    v.set("ops_per_s", ops_per_s);
    v.set(
        "goodput_MBps",
        r.plan.kind.payload_bytes_per_op() * ops_per_s / 1e6,
    );
    v.set("op_p50_us", op_p50_us);
    v.set("cpu_us_per_op", r.cpu_s / r.ops_measured as f64 * 1e6);
}

fn complain(kind: Kind, what: &str, problems: &[String]) {
    for p in problems {
        eprintln!("e2e: {} ({what}): {p}", kind.name());
    }
}

fn note(args: &Args) -> &'static str {
    if args.quick {
        " INVALID(--quick)"
    } else {
        ""
    }
}

/// End-to-end metrics, and the job's wall-clock numbers beside them. Never
/// taken from a traced pass.
fn run_untraced(kind: Kind, args: &Args) -> bool {
    let plan = plan_for(kind, args, 1.0);
    let samples = if args.quick { 3 } else { SETUP_SAMPLES };
    let mut setups = Vec::with_capacity(samples);
    let mut ok = true;
    let mut sample_setups = |n: usize| {
        for _ in 0..n {
            let s = workloads::run_pass(plan.setup_only());
            complain(kind, "set-up sample", &s.problems);
            ok &= s.problems.is_empty();
            setups.push(s.setup_s);
        }
    };
    sample_setups(samples / 2);
    let r = workloads::run_pass(plan);
    complain(kind, "measured job", &r.problems);
    sample_setups(samples / 2);
    setups.push(r.setup_s);

    let per_op = |n: u64| n as f64 / r.ops_attempted as f64;
    let mut v = Values::default();
    v.set("setup_s", stats::median(&setups));
    v.set("vt_job_s", r.vt_job_s);
    v.set("mpi.msgs_per_op", per_op(r.counters.data_msgs));
    v.set("mpi.wire_B_per_op", per_op(r.counters.data_bytes));
    v.set("vni.packets_per_op", per_op(r.counters.vni_packets));
    set_job_wall(&mut v, &r);
    let (gated, job_wall) = (END_TO_END, &PER_LAYER[..report::JOB_WALL]);
    let missing = v.mismatches(&[gated, job_wall].concat());
    complain(kind, "report", &missing);
    println!(
        "# {}: {} {}s in {} batches of {} ({} warm-up), {} ranks on {} nodes, {} crashes, seed {}",
        kind.name(),
        r.ops_attempted,
        kind.op_name(),
        plan.batches,
        kind.batch_ops(),
        workloads::WARMUP_BATCHES,
        kind.ranks(),
        kind.nodes(),
        plan.crashes,
        args.seed
    );
    let outcome = Outcome {
        workload: kind.name(),
        seed: args.seed,
        correct: ok && r.problems.is_empty() && r.ops_failed == 0 && missing.is_empty(),
        attempted: r.ops_attempted,
        failed: r.ops_failed,
    };
    report::print(&outcome, gated, job_wall, &v, note(args));
    outcome.correct
}

/// A traced run's passes beyond its two arms, for the final verdict.
type Extra = Vec<(&'static str, PassResult)>;

/// Per-layer metrics only `msgrate_8B` measures: 8-byte call costs at each
/// level and their differences, and what the observability stack costs.
fn msgrate_layers(v: &mut Values, plain: &PassResult, extra: &mut Extra) {
    let (vni, mpi, core) = (probes::vni_8b(), probes::mpi_8b(), probes::core_8b());
    v.set("core.send_ns_p50", core.call.send_ns);
    v.set("core.recv_ns_p50", core.call.recv_ns);
    v.set(
        "core.self_ns_per_msg.8B",
        core.call.per_msg_ns() - mpi.per_msg_ns(),
    );
    v.set("core.pingpong_rtt_us_p50", core.pingpong_rtt_us);
    v.set("mpi.send_ns_p50.8B", mpi.send_ns);
    v.set("mpi.recv_ns_p50.8B", mpi.recv_ns);
    v.set(
        "mpi.self_ns_per_msg.8B",
        mpi.per_msg_ns() - vni.per_msg_ns(),
    );
    v.set("vni.send_ns_p50.8B", vni.send_ns);
    v.set("vni.recv_ns_p50.8B", vni.recv_ns);
    // The spans-off arm ran on the default builder; the same job again with
    // flight recorder and event bus off is the observability budget.
    let bare = workloads::run_pass(Plan {
        observability: false,
        ..plain.plan
    });
    let ((with_rate, with_op_us), (bare_rate, _)) = (rates(plain), rates(&bare));
    v.set("trace.overhead_pct", (bare_rate / with_rate - 1.0) * 100.0);
    v.set(
        "harness.layer_sum_residual_pct",
        (core.call.per_msg_ns() / (with_op_us * 1e3) - 1.0) * 100.0,
    );
    extra.push(("observability off", bare));
}

/// Per-layer metrics only `stream_1MiB` measures: one message's time at
/// each level of a concurrent 1 MiB stream.
fn stream_layers(v: &mut Values) {
    let (vni, mpi, core) = (
        probes::vni_1mib_us(),
        probes::mpi_1mib_us(),
        probes::core_1mib_us(),
    );
    v.set("core.self_us_per_msg.1MiB", core - mpi);
    v.set("mpi.xfer_us_p50.1MiB", mpi);
    v.set("mpi.self_us_per_msg.1MiB", mpi - vni);
    v.set("vni.xfer_us_p50.1MiB", vni);
}

/// Per-layer metrics only `solver_allreduce` measures: its own collective
/// and halo calls, and the `mpi::collectives` stack at the same shape.
fn solver_layers(v: &mut Values, span_p50_us: &dyn Fn(&str) -> f64) {
    v.set("core.halo_us_p50", span_p50_us("halo"));
    v.set("core.allreduce_us_p50.8B", span_p50_us("ctx.allreduce.8B"));
    v.set(
        "core.allreduce_us_p50.256KiB",
        span_p50_us("ctx.allreduce.256KiB"),
    );
    v.set(
        "mpi.coll_allreduce_us_p50.256KiB.n4",
        probes::coll_allreduce_us(),
    );
}

/// Per-layer metrics only `ft_jacobi` measures: its own checkpoint rounds
/// and recoveries, and the checkpoint and control-plane pieces under them.
fn jacobi_layers(
    v: &mut Values,
    traced: &PassResult,
    span_p50_us: &dyn Fn(&str) -> f64,
    seed: u64,
) {
    let ms_p50 = |s: &[f64]| stats::median(s) * 1e3;
    v.set("core.safepoint_us_p50", span_p50_us("ctx.safepoint"));
    v.set("core.barrier_us_p50", span_p50_us("ctx.barrier"));
    v.set("core.ckpt_call_ms_p50", ms_p50(&traced.ckpt_call_s));
    let rec = &traced.recovery;
    v.set("daemon.recover_ms_p50", ms_p50(&rec.recover_s));
    v.set("daemon.epoch_bump_ms_p50", ms_p50(&rec.epoch_bump_s));
    v.set("daemon.respawn_ms_p50", ms_p50(&rec.respawn_s));
    v.set("daemon.add_node_ms_p50", ms_p50(&rec.add_node_s));
    let ckpt = probes::checkpoint(seed);
    v.set("checkpoint.capture_MBps", ckpt.capture_mbps);
    v.set("checkpoint.restore_MBps", ckpt.restore_mbps);
    v.set("checkpoint.store_put_us.1MiB", ckpt.store_put_us);
    v.set("checkpoint.store_get_us.1MiB", ckpt.store_get_us);
    let daemon = probes::daemon();
    v.set("daemon.cfg_cast_ms_p50", daemon.cfg_cast_ms);
    v.set("daemon.mgmt_rtt_us_p50", daemon.mgmt_rtt_us);
}

/// Per-layer metrics: this workload with spans off and on, then the probes
/// of the layers this workload stresses. Metrics another workload owns
/// read 0 here.
fn run_traced(kind: Kind, args: &Args) -> bool {
    let plan = plan_for(kind, args, TRACE_ARM_SHARE);
    let setups: Vec<PassResult> = (0..if args.quick { 1 } else { TRACE_SETUP_SAMPLES })
        .map(|_| workloads::run_pass(plan.setup_only()))
        .collect();
    let plain = workloads::run_pass(plan);
    let traced = workloads::run_pass(plan.traced());
    let trace_file =
        std::path::PathBuf::from(format!("target/bench-e2e/{}.trace.json", kind.name()));
    if let Err(e) = spans::write_json(&trace_file, &traced.spans) {
        die(&format!("writing {}: {e}", trace_file.display()));
    }
    let summary = spans::summarize(&traced.spans);
    let span_p50_us = |name: &str| {
        summary
            .iter()
            .find(|s| s.name == name)
            .map_or(f64::NAN, |s| s.p50_us)
    };

    let med =
        |f: &dyn Fn(&PassResult) -> f64| stats::median(&setups.iter().map(f).collect::<Vec<_>>());
    let per_measured_op = |n: u64| n as f64 / traced.ops_measured as f64;
    let (plain_rate, plain_op_us) = rates(&plain);
    let (_, traced_op_us) = rates(&traced);
    let c = &traced.counters;

    let mut v = Values::default();
    set_job_wall(&mut v, &plain);
    v.set("core.submit_ms", med(&|s| s.submit_s) * 1e3);
    v.set("core.first_msg_ms", med(&|s| s.first_msg_s) * 1e3);
    v.set(
        "core.iter_us_p99",
        match kind {
            Kind::Msgrate8B | Kind::Stream1MiB => {
                stats::percentile(&traced.batch_s, 99.0) / kind.batch_ops() as f64 * 1e6
            }
            Kind::SolverAllreduce | Kind::FtJacobi => stats::percentile(&traced.op_s, 99.0) * 1e6,
        },
    );
    v.set("mpi.rndv_sends", c.rndv_sends as f64);
    v.set("mpi.retransmits", c.retransmits as f64);
    v.set("mpi.nacks", c.nacks as f64);
    v.set("mpi.credit_fallbacks", c.credit_fallbacks as f64);
    v.set("vni.dropped", c.vni_dropped as f64);
    v.set("checkpoint.image_B", c.ckpt_image_b);
    v.set("checkpoint.rounds", c.ckpt_rounds as f64);
    v.set(
        "daemon.boot_ms_per_node",
        med(&|s| s.build_s) * 1e3 / f64::from(kind.nodes()),
    );
    v.set("ensemble.casts", c.ensemble_casts as f64);
    v.set("ensemble.view_changes", c.view_changes as f64);
    v.set("ensemble.view_change_ms_p50", c.view_change_ms_p50);
    v.set("trace.dropped", c.trace_dropped as f64);
    v.set("events.dropped", c.events_dropped as f64);
    v.set("proc.allocs_per_op", per_measured_op(traced.allocs.0));
    v.set("proc.alloc_B_per_op", per_measured_op(traced.allocs.1));
    v.set(
        "proc.ctx_switches_per_op",
        per_measured_op(traced.ctx_switches),
    );
    v.set("proc.cpu_util", traced.cpu_s / traced.job_s);
    v.set("proc.threads", traced.threads as f64);
    v.set("proc.peak_rss_MiB", traced.peak_rss_mib);
    v.set(
        "harness.serial_iter_us",
        probes::serial_op_us(kind, args.seed),
    );
    v.set(
        "harness.span_overhead_pct",
        (traced_op_us / plain_op_us - 1.0) * 100.0,
    );
    let mut extra = Extra::new();
    match kind {
        Kind::Msgrate8B => msgrate_layers(&mut v, &plain, &mut extra),
        Kind::Stream1MiB => stream_layers(&mut v),
        Kind::SolverAllreduce => solver_layers(&mut v, &span_p50_us),
        Kind::FtJacobi => jacobi_layers(&mut v, &traced, &span_p50_us, args.seed),
    }
    v.zero_unexercised(kind.name());

    println!(
        "# {}: spans off {:.0} {}s/s, spans on: {} spans in {} ({} refused), {:.3} s of job",
        kind.name(),
        plain_rate,
        kind.op_name(),
        traced.spans.iter().map(Vec::len).sum::<usize>(),
        trace_file.display(),
        traced.span_overflow,
        traced.job_s
    );
    println!("# span                        count     p50_us     p99_us  self_total_ms");
    for s in &summary {
        println!(
            "# {:24} {:8} {:10.1} {:10.1} {:14.1}",
            s.name, s.count, s.p50_us, s.p99_us, s.self_total_ms
        );
    }

    let passes = [("spans off", &plain), ("spans on", &traced)]
        .into_iter()
        .chain(extra.iter().map(|(what, r)| (*what, r)));
    let (mut ok, mut failed) = (true, 0);
    for (what, r) in passes {
        complain(kind, what, &r.problems);
        ok &= r.problems.is_empty();
        failed += r.ops_failed;
    }
    let missing = v.mismatches(PER_LAYER);
    complain(kind, "report", &missing);
    let outcome = Outcome {
        workload: kind.name(),
        seed: args.seed,
        correct: ok && failed == 0 && missing.is_empty(),
        attempted: plain.ops_attempted + traced.ops_attempted,
        failed,
    };
    report::print(&outcome, PER_LAYER, &[], &v, note(args));
    outcome.correct
}

fn main() {
    let args = parse_args();
    // Recovery postmortems go to a directory fixed at the daemon crate's
    // compile time unless told otherwise; keep them under the run's cwd.
    // SAFETY: no other thread exists yet.
    unsafe { std::env::set_var("STARFISH_POSTMORTEM_DIR", "target/bench-e2e/postmortems") };
    if let Some(runs) = args.selfcheck {
        std::process::exit(selfcheck::run(&args, runs));
    }
    let kinds: Vec<Kind> = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    let mut ok = true;
    for kind in kinds {
        ok &= if args.trace {
            run_traced(kind, &args)
        } else {
            run_untraced(kind, &args)
        };
    }
    if !ok {
        std::process::exit(1);
    }
}
