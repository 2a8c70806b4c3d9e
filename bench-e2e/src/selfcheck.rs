//! `--selfcheck`: does the benchmark agree with itself on this box?
//!
//! Runs the untraced suite as two interleaved sets (A B A B …), each run a
//! fresh process like the driver's, and judges the sets the way the driver
//! does: per workload × end-to-end metric, the second set's median may not
//! be worse than the first's by more than the bound, and neither set's
//! interquartile spread (as a share of its median) may exceed it. `setup_s`
//! is exempt from the spread rule, as in the driver. The job's wall-clock
//! metrics are tabled the same way but not judged: the table is the record
//! of why they carry no bound.

use std::process::Command;

use crate::report::{self, Def, END_TO_END, JOB_WALL, PER_LAYER};
use crate::stats;
use crate::workloads::Kind;

fn one_run(
    exe: &std::path::Path,
    kind: Kind,
    seed: u64,
    seconds: f64,
) -> Result<Vec<(String, f64)>, String> {
    let out = Command::new(exe)
        .args([
            "--workload",
            kind.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let parsed = report::parse_json_line(last).ok_or_else(|| {
        format!(
            "{} seed {seed}: no result line (exit {:?}): {}",
            kind.name(),
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    if !parsed.correct || parsed.failed > 0 || !out.status.success() {
        return Err(format!(
            "{} seed {seed}: incorrect run ({} of {} ops failed)",
            kind.name(),
            parsed.failed,
            parsed.attempted
        ));
    }
    // `METRIC <workload> <name> <value> <unit> <clock>`: the gated metrics
    // of the result line and the ungated ones beside them.
    Ok(stdout
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            (f.next() == Some("METRIC")).then_some(())?;
            let (_workload, name, value) = (f.next()?, f.next()?, f.next()?);
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

fn tabled() -> Vec<Def> {
    [END_TO_END, &PER_LAYER[..JOB_WALL]].concat()
}

/// `samples[set][workload][metric]` over `runs` runs per set, interleaved.
fn collect(args: &crate::Args, runs: usize) -> Result<Vec<Vec<Vec<Vec<f64>>>>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let defs = tabled();
    let mut samples = vec![vec![vec![Vec::new(); defs.len()]; Kind::ALL.len()]; 2];
    for i in 0..runs {
        for (set, by_workload) in samples.iter_mut().enumerate() {
            for (w, kind) in Kind::ALL.into_iter().enumerate() {
                let seed = args.seed + (2 * i + set) as u64;
                eprintln!(
                    "selfcheck: set {} run {}/{runs} {} seed {seed}",
                    ["A", "B"][set],
                    i + 1,
                    kind.name()
                );
                let metrics = one_run(&exe, kind, seed, args.seconds)?;
                for (m, def) in defs.iter().enumerate() {
                    let (_, v) = metrics
                        .iter()
                        .find(|(n, _)| n == def.name)
                        .ok_or_else(|| format!("{} did not report {}", kind.name(), def.name))?;
                    by_workload[w][m].push(*v);
                }
            }
        }
    }
    Ok(samples)
}

/// Returns the process exit code.
pub fn run(args: &crate::Args, runs: usize) -> i32 {
    let samples = match collect(args, runs) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("selfcheck: {e}");
            return 1;
        }
    };

    println!(
        "selfcheck: {runs} runs per set, {} s each, seeds from {}, {:?} hardware threads",
        args.seconds,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("| workload | metric | unit | A median | A Q1..Q3 | A spread | B median | B Q1..Q3 | B spread | B worse by | bound | |");
    println!("|---|---|---|---|---|---|---|---|---|---|---|---|");
    let mut breaches = 0;
    for (w, kind) in Kind::ALL.into_iter().enumerate() {
        for (m, def) in tabled().iter().enumerate() {
            let gated = m < END_TO_END.len();
            let (a, b) = (&samples[0][w][m], &samples[1][w][m]);
            let (ma, mb) = (stats::median(a), stats::median(b));
            let ((a1, a3), (b1, b3)) =
                (stats::quartiles_exclusive(a), stats::quartiles_exclusive(b));
            let (sa, sb) = (stats::spread(a), stats::spread(b));
            let worse = if def.higher_is_better {
                (ma - mb) / ma
            } else {
                (mb - ma) / ma
            };
            let spread_counts = def.name != "setup_s";
            let breach = gated
                && (worse > def.bound || (spread_counts && (sa > def.bound || sb > def.bound)));
            breaches += usize::from(breach);
            println!(
                "| {} | {} | {} | {:.5} | {:.5}..{:.5} | {:.2}% | {:.5} | {:.5}..{:.5} | {:.2}% | {:+.2}% | {} | {} |",
                kind.name(),
                def.name,
                def.unit,
                ma,
                a1,
                a3,
                sa * 100.0,
                mb,
                b1,
                b3,
                sb * 100.0,
                worse * 100.0,
                if gated {
                    format!("{:.0}%", def.bound * 100.0)
                } else {
                    "—".to_string()
                },
                match (gated, breach) {
                    (false, _) => "ungated",
                    (true, true) => "BREACH",
                    (true, false) => "ok",
                }
            );
        }
    }
    if breaches > 0 {
        println!("selfcheck: {breaches} breach(es): the benchmark does not hold its own bounds on this box");
        1
    } else {
        println!("selfcheck: every end-to-end metric within its bound");
        0
    }
}
