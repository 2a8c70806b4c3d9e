//! starfish-verify: exhaustive protocol model checking and the repo's
//! static analysis.
//!
//! Three legs, per VERIFICATION.md:
//!
//! * [`explorer`] — a small explicit-state BFS model checker (safety +
//!   deadlock + livelock via reverse reachability), with shortest
//!   counterexample traces;
//! * [`models`] — exhaustive models of the repo's protocol engines
//!   (stop-and-sync and Chandy–Lamport checkpointing, ensemble membership
//!   with sequencer failover, the daemon reducer over it, the MPI
//!   reliability layer) driving the *real* `step`-style state machines,
//!   not re-implementations;
//! * the static analysis that the `starfish-lint` binary drives: only the
//!   rules clippy cannot express (the panic surface and the clock, sleep
//!   and entropy bans are clippy's, `clippy.toml`). Its layers, bottom up:
//!   [`source`] (comment/string blanking that keeps line numbers,
//!   `#[cfg(test)]` regions, token predicates), [`model`] (structs, enums,
//!   impl blocks, functions with body extents and call sites), [`locks`]
//!   (the lock-order graph and its cycles, blocking-while-locked,
//!   notify-unlocked), [`rules`] (wire-enum coverage and sans-io), and
//!   [`baseline`] / [`report`] (the committed triage file, the human and
//!   JSON outputs). Two drivers: [`analyze_workspace`] (CI mode: every
//!   pass, gated on `analysis-baseline.toml`) and [`analyze_crate`]
//!   (fixture mode: every pass on one crate directory, no baseline).
//!
//! [`counterexample`] renders violations as `FaultPlan` DSL so they replay
//! under the chaos driver; `tests/bridge.rs` keeps that loop closed.

use std::fs;
use std::path::{Path, PathBuf};

pub(crate) mod baseline;
pub mod counterexample;
pub mod explorer;
pub mod locks;
pub mod model;
pub mod models;
pub(crate) mod report;
pub(crate) mod rules;
pub mod source;

use baseline::Baseline;
use locks::{LockGraph, Watched};
use model::CrateModel;
use report::{Finding, Report};

/// The vendored stand-ins under `third_party/` that the runtime waits in:
/// the notify-unlocked pass covers them too.
const STAND_INS: [&str; 2] = ["crossbeam", "parking_lot"];

/// Parse models for every crate under `root/crates/`, sorted by name.
pub(crate) fn workspace_models(root: &Path) -> Vec<CrateModel> {
    let crates = root.join("crates");
    let mut dirs: Vec<PathBuf> = match fs::read_dir(&crates) {
        Ok(rd) => rd
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect(),
        Err(_) => Vec::new(),
    };
    dirs.sort();
    dirs.iter()
        .map(|d| {
            let name = d
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            CrateModel::parse(&name, d)
        })
        .collect()
}

/// CI mode: all passes over the workspace, findings gated on the committed
/// baseline. `Err` means the baseline itself is unreadable (always fatal).
pub fn analyze_workspace(root: &Path) -> Result<Report, String> {
    let bl = Baseline::load(&root.join("analysis-baseline.toml"))?;
    let models = workspace_models(root);
    let mut report = Report::default();
    let mut baselined = 0usize;

    // Lock passes.
    let la = locks::analyze(&models, Watched::VniDaemon);
    let mut graph = la.graph;
    let before = graph.edges.len();
    graph.edges.retain(|e| !bl.allows_edge(&e.a, &e.b));
    baselined += before - graph.edges.len();
    for c in graph.cycles() {
        report.findings.push(cycle_finding(&c));
    }
    for f in la.blocking {
        if bl.allows_blocking(&f.subject, &f.detail) {
            baselined += 1;
        } else {
            report.findings.push(f);
        }
    }
    report.findings.extend(la.notify);
    // The notify rule also covers the stand-ins the runtime waits in.
    for krate in STAND_INS {
        let m = CrateModel::parse(krate, &root.join("third_party").join(krate));
        report
            .findings
            .extend(locks::analyze(&[m], Watched::All).notify);
    }

    for m in &models {
        let dir = root.join("crates").join(&m.name);
        report.findings.extend(rules::sans_io(&dir.join("src")));
        report.findings.extend(rules::wire_enum_coverage(&dir));
    }

    finish(&mut report, &models, &graph, &la.stats, baselined);
    Ok(report)
}

/// Fixture mode: every pass on one crate directory, no baseline, every
/// class watched. This is what `starfish-lint <dir>` runs and what the
/// seeded `fixtures/badcrate` must fail.
pub fn analyze_crate(dir: &Path) -> Report {
    let name = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let models = vec![CrateModel::parse(&name, dir)];
    let mut report = Report::default();

    let la = locks::analyze(&models, Watched::All);
    for c in la.graph.cycles() {
        report.findings.push(cycle_finding(&c));
    }
    report.findings.extend(la.blocking);
    report.findings.extend(la.notify);

    report.findings.extend(rules::sans_io(&dir.join("src")));
    report.findings.extend(rules::wire_enum_coverage(dir));

    finish(&mut report, &models, &la.graph, &la.stats, 0);
    report
}

fn cycle_finding(c: &locks::Cycle) -> Finding {
    let mut f = Finding::new(
        "lock-order",
        c.file.clone(),
        c.line,
        if c.a == c.b {
            format!(
                "potential self-deadlock: `{}` re-acquired while already held \
                 (annotate `// {}` with the reason, or baseline the edge, if \
                 the two instances are provably distinct)",
                c.a,
                locks::ALLOW_LOCK_ORDER
            )
        } else {
            format!(
                "potential deadlock: `{}` and `{}` are acquired in both orders",
                c.a, c.b
            )
        },
    );
    f.subject = format!("{} -> {}", c.a, c.b);
    f.chains = c.forward.clone();
    if !c.back.is_empty() {
        f.chains.push("-- reverse order --".to_string());
        f.chains.extend(c.back.iter().cloned());
    }
    f
}

fn finish(
    report: &mut Report,
    models: &[CrateModel],
    graph: &LockGraph,
    lstats: &locks::LockStats,
    baselined: usize,
) {
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report.stats.crates = models.iter().map(|m| m.name.clone()).collect();
    report.stats.non_test_lines = models.iter().map(|m| m.non_test_lines()).collect();
    report.stats.files = models.iter().map(|m| m.files.len()).sum();
    report.stats.functions = lstats.functions;
    report.stats.lock_classes = graph.classes.len();
    report.stats.lock_edges = graph.edges.len();
    report.stats.unresolved_locks = lstats.unresolved_locks;
    report.stats.baselined = baselined;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_crate(name: &str, lib: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("starfish-analysis-lib-{name}"));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(d.join("src")).unwrap();
        fs::write(d.join("src/lib.rs"), lib).unwrap();
        d
    }

    #[test]
    fn analyze_crate_reports_cycles_and_blocking() {
        let d = fixture_crate(
            "all-passes",
            concat!(
                "pub struct S { a: Mutex<u32>, b: Mutex<u32> }\n",
                "impl S {\n",
                "    fn ab(&self) { let ga = self.a.lock(); let gb = self.b.lock(); }\n",
                "    fn ba(&self) { let gb = self.b.lock(); let ga = self.a.lock(); }\n",
                "    fn blk(&self) { let g = self.a.lock(); std::thread::sleep(d); }\n",
                "}\n",
            ),
        );
        let r = analyze_crate(&d);
        let rules: Vec<&str> = r.findings.iter().map(|f| f.rule.as_str()).collect();
        assert!(rules.contains(&"lock-order"), "{rules:?}");
        assert!(rules.contains(&"blocking-while-locked"), "{rules:?}");
        assert!(r.stats.lock_classes >= 2);
    }

    #[test]
    fn workspace_mode_baseline_gates_blocking_and_edges() {
        // A crate named `vni` so its classes are watched in workspace mode.
        let root = std::env::temp_dir().join("starfish-analysis-lib-ws");
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates/vni/src")).unwrap();
        fs::write(
            root.join("crates/vni/src/lib.rs"),
            concat!(
                "pub struct S { a: Mutex<u32> }\n",
                "impl S {\n",
                "    fn blk(&self) { let g = self.a.lock(); self.rx.recv(); }\n",
                "}\n",
            ),
        )
        .unwrap();
        let r = analyze_workspace(&root).unwrap();
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "blocking-while-locked");

        fs::write(
            root.join("analysis-baseline.toml"),
            concat!(
                "[[blocking-while-locked]]\n",
                "function = \"S::blk\"\n",
                "op = \"channel recv\"\n",
                "reason = \"test triage\"\n",
            ),
        )
        .unwrap();
        let r2 = analyze_workspace(&root).unwrap();
        assert!(r2.is_clean(), "{:?}", r2.findings);
        assert_eq!(r2.stats.baselined, 1);
    }

    #[test]
    fn workspace_mode_holds_the_stand_ins_to_the_notify_rule() {
        let root = std::env::temp_dir().join("starfish-analysis-lib-standin");
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates")).unwrap();
        fs::create_dir_all(root.join("third_party/crossbeam/src")).unwrap();
        fs::write(
            root.join("third_party/crossbeam/src/lib.rs"),
            concat!(
                "struct Shared { queue: Mutex<VecDeque<u8>>, avail: Condvar, senders: AtomicUsize }\n",
                "impl Drop for Sender {\n",
                "    fn drop(&mut self) {\n",
                "        self.shared.senders.fetch_sub(1, Ordering::SeqCst);\n",
                "        self.shared.avail.notify_all();\n",
                "    }\n",
                "}\n",
            ),
        )
        .unwrap();
        let r = analyze_workspace(&root).unwrap();
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].rule, "notify-unlocked");
        assert_eq!(r.findings[0].subject, "Sender::drop");
    }

    #[test]
    fn malformed_baseline_is_fatal() {
        let root = std::env::temp_dir().join("starfish-analysis-lib-badbl");
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(root.join("crates")).unwrap();
        fs::write(root.join("analysis-baseline.toml"), "[[mystery]]\n").unwrap();
        assert!(analyze_workspace(&root).is_err());
    }
}
