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
//!   rules neither clippy nor the run-time lock checker can hold. Clippy
//!   holds the panic surface and the clock, sleep and entropy bans
//!   (`clippy.toml`); the debug build's `parking_lot::lockdep` holds the
//!   lock order, waits under a lock and notifies that skip the waiters'
//!   mutex, on every acquisition a test makes. Its layers, bottom up:
//!   [`source`] (comment/string blanking that keeps line numbers,
//!   `#[cfg(test)]` regions, token predicates), [`model`] (each crate's
//!   files and enums), [`rules`] (sans-io and wire-enum coverage) and
//!   [`report`] (the human and JSON outputs). Two drivers:
//!   [`analyze_workspace`] (CI mode: every crate under `crates/`) and
//!   [`analyze_crate`] (fixture mode: one crate directory).
//!
//! [`counterexample`] renders violations as `FaultPlan` DSL so they replay
//! under the chaos driver; `tests/bridge.rs` keeps that loop closed.

use std::fs;
use std::path::{Path, PathBuf};

pub mod counterexample;
pub mod explorer;
pub mod model;
pub mod models;
pub(crate) mod report;
pub(crate) mod rules;
pub mod source;

use model::CrateModel;
use report::Report;

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

/// CI mode: every rule on every crate under `root/crates/`.
pub fn analyze_workspace(root: &Path) -> Report {
    let models = workspace_models(root);
    let dirs: Vec<PathBuf> = (models.iter())
        .map(|m| root.join("crates").join(&m.name))
        .collect();
    analyze(&models, &dirs)
}

/// Fixture mode: every rule on one crate directory. This is what
/// `starfish-lint <dir>` runs and what the seeded `fixtures/badcrate` must
/// fail.
pub fn analyze_crate(dir: &Path) -> Report {
    let name = dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    analyze(&[CrateModel::parse(&name, dir)], &[dir.to_path_buf()])
}

fn analyze(models: &[CrateModel], dirs: &[PathBuf]) -> Report {
    let mut report = Report::default();
    for (model, dir) in models.iter().zip(dirs) {
        report.findings.extend(rules::sans_io(&dir.join("src")));
        report
            .findings
            .extend(rules::wire_enum_coverage(model, dir));
    }
    report
        .findings
        .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    report.stats.crates = models.iter().map(|m| m.name.clone()).collect();
    report.stats.non_test_lines = models.iter().map(|m| m.non_test_lines()).collect();
    report.stats.files = models.iter().map(|m| m.files.len()).sum();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Workspace mode runs the rules on each crate under `crates/` and
    /// counts every crate's lines, findings or not.
    #[test]
    fn workspace_mode_runs_every_rule_on_every_crate() {
        let root = std::env::temp_dir().join("starfish-analysis-lib-ws");
        let _ = fs::remove_dir_all(&root);
        for krate in ["pure", "shell"] {
            fs::create_dir_all(root.join("crates").join(krate).join("src")).unwrap();
        }
        let machine = "// lint: sans-io\npub struct M { fabric: Fabric }\n";
        fs::write(root.join("crates/pure/src/lib.rs"), machine).unwrap();
        fs::write(root.join("crates/shell/src/lib.rs"), "pub struct S;\n").unwrap();
        let r = analyze_workspace(&root);
        let found: Vec<(&str, usize)> = r
            .findings
            .iter()
            .map(|f| (f.rule.as_str(), f.line))
            .collect();
        assert_eq!(found, [("sans-io", 2)]);
        assert_eq!(r.stats.crates, ["pure", "shell"]);
        assert_eq!(r.stats.non_test_lines, [2, 1]);
    }
}
