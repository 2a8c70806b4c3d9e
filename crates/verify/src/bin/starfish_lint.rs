//! Workspace analysis driver. Exit 0 clean, 1 findings, 2 usage/IO error.
//!
//! ```text
//! starfish-lint                     # analyze the workspace rooted at the cwd
//! starfish-lint <dir>               # analyze a single crate dir (fixture mode)
//! starfish-lint --json <path> [dir] # additionally write the JSON report
//! ```
//!
//! Both modes run every rule (wire-enum-coverage, sans-io) and report every
//! finding: the workspace mode on each crate under `crates/`, the fixture
//! mode on one crate directory, which the seeded `fixtures/badcrate`
//! must-fail check relies on. The panic surface and the clock, sleep and
//! entropy bans are clippy's (`clippy.toml`, seeded in
//! `fixtures/clippybad`); the lock rules are checked at run time by the
//! debug build's `parking_lot::lockdep`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use verify::{analyze_crate, analyze_workspace};

fn main() -> ExitCode {
    let mut json_out: Option<PathBuf> = None;
    let mut target: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => match args.next() {
                Some(p) => json_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("starfish-lint: --json requires a path");
                    return ExitCode::from(2);
                }
            },
            "-h" | "--help" => {
                eprintln!("usage: starfish-lint [--json <path>] [crate-dir]");
                return ExitCode::SUCCESS;
            }
            _ if target.is_none() && !a.starts_with('-') => target = Some(PathBuf::from(a)),
            _ => {
                eprintln!("usage: starfish-lint [--json <path>] [crate-dir]");
                return ExitCode::from(2);
            }
        }
    }

    let report = match &target {
        None => {
            let root = Path::new(".");
            if !root.join("crates").is_dir() {
                eprintln!("starfish-lint: no crates/ here — run from the workspace root");
                return ExitCode::from(2);
            }
            analyze_workspace(root)
        }
        Some(dir) => {
            if !dir.join("src").is_dir() {
                eprintln!("starfish-lint: {} has no src/", dir.display());
                return ExitCode::from(2);
            }
            analyze_crate(dir)
        }
    };

    if let Some(p) = &json_out {
        if let Err(e) = std::fs::write(p, report.to_json()) {
            eprintln!("starfish-lint: cannot write {}: {e}", p.display());
            return ExitCode::from(2);
        }
    }
    print!("{}", report.render_human());
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
