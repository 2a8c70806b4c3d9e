//! The original `starfish-lint` rules, re-hosted on the analysis
//! framework's source model:
//!
//! 1. **wall-clock** — crates whose behavior must be a pure function of
//!    virtual time and seeds must not call wall-clock or seedless-entropy
//!    APIs outside test code, and nothing on the runtime path — the
//!    vendored channel and lock stand-ins included — may `thread::sleep`
//!    there (it waits on the state change itself — see DESIGN.md, "who
//!    waits on what"). Real-time escape hatches carry
//!    `// lint: allow(wall-clock)` on the same or preceding line.
//! 2. **wire-enum-coverage** — every enum with an `Encode` *and* `Decode`
//!    implementation (trait or inherent) must have each variant named in
//!    the crate's test code. Variant parsing uses the item model, which
//!    (unlike the old line scanner) also sees single-line enums and
//!    several variants per line.
//! 3. **sans-io** — a file carrying the `// lint: sans-io` marker is a pure
//!    protocol machine: it may not name a clock read, the fabric, the
//!    virtual clock, a lock, a thread or an instrument, tests included, and
//!    there is no escape hatch (the wall-clock one is itself a finding).

use std::fs;
use std::path::Path;

use crate::model::CrateModel;
use crate::report::Finding;
use crate::source::{rs_files, token_in, SourceFile};

/// Tokens rule 1 forbids in deterministic crates: wall clocks plus
/// seedless entropy (`rand::random` / `Rng::gen` draw from OS entropy; the
/// workspace's `DetRng` is the seeded alternative).
pub const WALL_CLOCK_TOKENS: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "thread_rng",
    "rand::random",
    "Rng::gen",
];

/// The escape-hatch marker for rule 1.
pub const ALLOW_WALL_CLOCK: &str = "lint: allow(wall-clock)";

/// Crates (by directory name under `crates/`) whose `src/` must stay
/// virtual-time deterministic. `events` and `trace` sit on the recovery
/// forensics path: their frames are replayed and diffed across runs, so
/// wall-clock reads there would break postmortem reproducibility.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "vni",
    "mpi",
    "ensemble",
    "checkpoint",
    "chaos",
    "events",
    "trace",
];

/// Tokens rule 1 forbids on the runtime path: a sleep there is a poll of
/// state somebody else changes, and every such change has a wake-up
/// (config watch, a thread's one wait point, the checkpoint store's change
/// count).
pub const SLEEP_TOKENS: &[&str] = &["thread::sleep"];

/// Source directories (from the workspace root) whose non-test code must
/// not sleep: what a running cluster executes, stand-ins included (a
/// `select!` that slept 200 µs between probes hid in `crossbeam`). Some
/// read wall clocks for deadlines: [`WALL_CLOCK_TOKENS`] is not for them.
pub const NO_SLEEP_DIRS: &[&str] = &[
    "crates/core/src",
    "crates/daemon/src",
    "crates/ensemble/src",
    "crates/vni/src",
    "crates/mpi/src",
    "crates/lwgroups/src",
    "crates/checkpoint/src",
    "crates/util/src",
    "crates/events/src",
    "crates/trace/src",
    "crates/telemetry/src",
    "third_party/crossbeam/src",
    "third_party/parking_lot/src",
];

// ---------------------------------------------------------------------------
// Rule 1: wall-clock
// ---------------------------------------------------------------------------

/// Check one crate's `src/` for forbidden wall-clock/entropy tokens.
pub fn wall_clock(src_dir: &Path) -> Vec<Finding> {
    forbidden_tokens(
        src_dir,
        WALL_CLOCK_TOKENS,
        "in a virtual-time-deterministic crate",
    )
}

/// Check one crate's `src/` for sleeps on the runtime path.
pub fn sleep_poll(src_dir: &Path) -> Vec<Finding> {
    forbidden_tokens(
        src_dir,
        SLEEP_TOKENS,
        "on the runtime path (wait on the state change, not on a timer)",
    )
}

fn forbidden_tokens(src_dir: &Path, tokens: &[&str], wher: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    for f in rs_files(src_dir) {
        let Some(scan) = SourceFile::load(&f) else {
            continue;
        };
        for (i, code) in scan.code.iter().enumerate() {
            if scan.in_test[i] {
                continue;
            }
            for tok in tokens {
                if !token_in(code, tok) {
                    continue;
                }
                if !scan.allowed(i, ALLOW_WALL_CLOCK) {
                    out.push(Finding::new(
                        "wall-clock",
                        scan.path.clone(),
                        i + 1,
                        format!(
                            "`{tok}` {wher} \
                             (annotate `// {ALLOW_WALL_CLOCK}` if this is a real-time escape hatch)"
                        ),
                    ));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 3: sans-io
// ---------------------------------------------------------------------------

/// The file marker (a comment line of its own) that opts a module into
/// rule 3. `crates/mpi/src/{reliability,rendezvous,credit,matching}.rs`,
/// `crates/ensemble/src/{core,group}.rs`,
/// `crates/checkpoint/src/proto/{rank,stop_and_sync,chandy_lamport,independent}.rs`,
/// `crates/daemon/src/node.rs` and `crates/lwgroups/src/router.rs` carry
/// it; a unit test below pins that.
pub const SANS_IO_MARKER: &str = "// lint: sans-io";

/// What a sans-IO module may not name: wall-clock reads, the fabric and
/// the virtual clock (it is handed values, never the thing that produces
/// them), locks, threads (`thread::…` paths), and the instruments.
pub const SANS_IO_TOKENS: &[&str] = &[
    "Instant::now",
    "SystemTime::now",
    "Fabric",
    "VClock",
    "Mutex",
    "Condvar",
    "thread",
    "Registry",
    "FlightRecorder",
];

/// Does this file declare itself a pure machine?
pub fn is_sans_io(scan: &SourceFile) -> bool {
    scan.raw.iter().any(|l| l.trim() == SANS_IO_MARKER)
}

/// Check the marked files under `src_dir`: every line, test code included
/// (a machine whose tests need a thread or a clock is not driven purely),
/// and no marker excuses a finding.
pub fn sans_io(src_dir: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    let files = rs_files(src_dir);
    let scans = files.iter().filter_map(|f| SourceFile::load(f));
    for scan in scans.filter(is_sans_io) {
        for (i, code) in scan.code.iter().enumerate() {
            let named = SANS_IO_TOKENS.iter().filter(|t| token_in(code, t));
            let escape = scan.raw[i].contains(ALLOW_WALL_CLOCK);
            for tok in named.chain(escape.then_some(&ALLOW_WALL_CLOCK)) {
                let msg = format!(
                    "`{tok}` in a `{SANS_IO_MARKER}` module: protocol machines take values \
                     and return decisions; I/O, clocks, locks, threads and instruments \
                     belong to the shell that drives them"
                );
                out.push(Finding::new("sans-io", scan.path.clone(), i + 1, msg));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule 2: wire-enum coverage
// ---------------------------------------------------------------------------

/// Names with an `impl Encode for X` / `impl Decode for X`, or an inherent
/// impl block containing both `fn encode` and `fn decode`.
fn codec_types(scans: &[SourceFile]) -> Vec<String> {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for scan in scans {
        let mut i = 0;
        while i < scan.code.len() {
            let line = scan.code[i].trim().to_string();
            if let Some(rest) = line.strip_prefix("impl Encode for ") {
                if let Some(n) = crate::source::leading_ident(rest) {
                    enc.push(n);
                }
            } else if let Some(rest) = line.strip_prefix("impl Decode for ") {
                if let Some(n) = crate::source::leading_ident(rest) {
                    dec.push(n);
                }
            } else if line.starts_with("impl ") && !line.contains(" for ") {
                // Inherent impl: scope out the block, look for both fns.
                let after = line.trim_start_matches("impl").trim_start();
                let after = if after.starts_with('<') {
                    match after.find('>') {
                        Some(g) => after[g + 1..].trim_start(),
                        None => after,
                    }
                } else {
                    after
                };
                if let Some(name) = crate::source::leading_ident(after) {
                    let mut depth = 0i32;
                    let mut opened = false;
                    let (mut has_enc, mut has_dec) = (false, false);
                    let mut j = i;
                    'blk: while j < scan.code.len() {
                        let l = &scan.code[j];
                        if token_in(l, "fn") && (l.contains("fn encode") || l.contains("fn decode"))
                        {
                            has_enc |= l.contains("fn encode(") || l.contains("fn encode<");
                            has_dec |= l.contains("fn decode(")
                                || l.contains("fn decode<")
                                || l.contains("fn decode_from");
                        }
                        for c in l.chars() {
                            match c {
                                '{' => {
                                    depth += 1;
                                    opened = true;
                                }
                                '}' => {
                                    depth -= 1;
                                    if opened && depth == 0 {
                                        break 'blk;
                                    }
                                }
                                _ => {}
                            }
                        }
                        j += 1;
                    }
                    if has_enc && has_dec {
                        enc.push(name.clone());
                        dec.push(name);
                    }
                    i = j + 1;
                    continue;
                }
            }
            i += 1;
        }
    }
    enc.retain(|n| dec.contains(n));
    enc.sort();
    enc.dedup();
    enc
}

/// Check one crate directory (containing `src/`, optionally `tests/`).
pub fn wire_enum_coverage(crate_dir: &Path) -> Vec<Finding> {
    let name = crate_dir
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let model = CrateModel::parse(&name, crate_dir);
    let codecs = codec_types(&model.files);
    if codecs.is_empty() {
        return Vec::new();
    }
    // Test corpus: #[cfg(test)] regions of src plus everything in tests/.
    let mut corpus = String::new();
    for s in &model.files {
        for (i, l) in s.raw.iter().enumerate() {
            if s.in_test[i] {
                corpus.push_str(l);
                corpus.push('\n');
            }
        }
    }
    for f in rs_files(&crate_dir.join("tests")) {
        if let Ok(t) = fs::read_to_string(&f) {
            corpus.push_str(&t);
            corpus.push('\n');
        }
    }

    let mut out = Vec::new();
    for e in &model.enums {
        if e.in_test || !codecs.contains(&e.name) {
            continue;
        }
        for v in &e.variants {
            if !token_in(&corpus, v) {
                out.push(Finding::new(
                    "wire-enum-coverage",
                    model.files[e.file].path.clone(),
                    e.line + 1,
                    format!(
                        "wire enum `{}` variant `{v}` is never mentioned in this crate's \
                         tests — add it to the codec roundtrip test",
                        e.name
                    ),
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("starfish-analysis-test-{name}"));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(d.join("src")).unwrap();
        d
    }

    #[test]
    fn wall_clock_flags_bare_instant_now() {
        let d = tmpdir("wc1");
        fs::write(
            d.join("src/lib.rs"),
            "pub fn f() -> std::time::Instant { std::time::Instant::now() }\n",
        )
        .unwrap();
        let v = wall_clock(&d.join("src"));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "wall-clock");
        assert_eq!(v[0].line, 1);
    }

    #[test]
    fn wall_clock_flags_seedless_entropy() {
        let d = tmpdir("wc-entropy");
        fs::write(
            d.join("src/lib.rs"),
            concat!(
                "pub fn jitter() -> u64 { rand::random::<u64>() }\n",
                "pub fn draw<R: Rng>(r: &mut R) -> u64 { Rng::gen(r) }\n",
            ),
        )
        .unwrap();
        let v = wall_clock(&d.join("src"));
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].msg.contains("rand::random"), "{}", v[0].msg);
        assert!(v[1].msg.contains("Rng::gen"), "{}", v[1].msg);
    }

    #[test]
    fn wall_clock_honors_allow_and_tests_and_comments() {
        let d = tmpdir("wc2");
        fs::write(
            d.join("src/lib.rs"),
            concat!(
                "pub fn ok() {\n",
                "    let _ = std::time::Instant::now(); // lint: allow(wall-clock)\n",
                "    // lint: allow(wall-clock)\n",
                "    let _ = std::time::Instant::now();\n",
                "    // a comment mentioning Instant::now() is fine\n",
                "    let _ = \"Instant::now() in a string is fine\";\n",
                "}\n",
                "#[cfg(test)]\n",
                "mod tests {\n",
                "    fn t() { let _ = std::time::Instant::now(); }\n",
                "}\n",
            ),
        )
        .unwrap();
        let v = wall_clock(&d.join("src"));
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn wall_clock_ban_covers_the_diskless_replica_store() {
        // The replica backend's virtual-time determinism rests on the
        // checkpoint crate being policed; pin the crate list so a future
        // edit cannot silently drop it (or the other deterministic cores).
        assert!(DETERMINISTIC_CRATES.contains(&"checkpoint"));
        assert!(DETERMINISTIC_CRATES.contains(&"mpi"));
        // And the rule has teeth inside a replica.rs-shaped module.
        let d = tmpdir("wc-replica");
        fs::write(
            d.join("src/replica.rs"),
            concat!(
                "pub fn put_replicated() {\n",
                "    let _t0 = std::time::Instant::now();\n",
                "}\n",
            ),
        )
        .unwrap();
        let v = wall_clock(&d.join("src"));
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, "wall-clock");
        assert!(v[0].file.ends_with("replica.rs"), "{v:?}");
    }

    #[test]
    fn sleep_ban_covers_the_runtime_path_and_spares_tests() {
        for dir in [
            "crates/core/src",
            "crates/daemon/src",
            "crates/ensemble/src",
        ] {
            assert!(NO_SLEEP_DIRS.contains(&dir), "{dir}");
        }
        assert!(NO_SLEEP_DIRS.contains(&"third_party/crossbeam/src"));
        let d = tmpdir("sleep-poll");
        fs::write(
            d.join("src/lib.rs"),
            concat!(
                "pub fn wait_ready(ready: &dyn Fn() -> bool) {\n",
                "    while !ready() {\n",
                "        std::thread::sleep(std::time::Duration::from_millis(5));\n",
                "    }\n",
                "    // lint: allow(wall-clock)\n",
                "    std::thread::sleep(std::time::Duration::from_millis(1));\n",
                "    let _deadline = std::time::Instant::now();\n",
                "}\n",
                "#[cfg(test)]\n",
                "mod tests {\n",
                "    fn t() { std::thread::sleep(std::time::Duration::ZERO); }\n",
                "}\n",
            ),
        )
        .unwrap();
        // A macro body is code like any other: this is the shape the
        // stand-in's polling `select!` had.
        fs::write(
            d.join("src/select.rs"),
            concat!(
                "#[macro_export]\n",
                "macro_rules! select {\n",
                "    ($($rx:expr),*) => {{ loop {\n",
                "        $( if let Ok(m) = $rx.try_recv() { break m; } )*\n",
                "        ::std::thread::sleep(::std::time::Duration::from_micros(200));\n",
                "    } }};\n",
                "}\n",
            ),
        )
        .unwrap();
        let v = sleep_poll(&d.join("src"));
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|f| f.rule == "wall-clock"));
        assert!(v.iter().all(|f| f.msg.contains("thread::sleep")), "{v:?}");
        let at = |file: &str| v.iter().find(|f| f.file.ends_with(file)).map(|f| f.line);
        assert_eq!((at("lib.rs"), at("select.rs")), (Some(3), Some(5)), "{v:?}");
    }

    /// In a marked file every banned name is a finding — in test code too,
    /// and the wall-clock escape is one more finding rather than an excuse;
    /// an unmarked file is not this rule's business.
    #[test]
    fn sans_io_bans_io_names_in_marked_files_with_no_escape() {
        let d = tmpdir("sans-io");
        let body = concat!(
            "pub struct M { fabric: Fabric, last: Option<std::time::Instant> }\n",
            "impl M {\n",
            "    pub fn tick(&mut self, clock: &mut VClock) {\n",
            "        self.last = Some(std::time::Instant::now()); // lint: allow(wall-clock)\n",
            "        let _g = self.lock.lock(); // a Mutex in a comment is fine\n",
            "    }\n",
            "}\n",
            "#[cfg(test)]\n",
            "mod tests {\n",
            "    fn t() { std::thread::spawn(|| ()); let _ = \"Registry in a string\"; }\n",
            "}\n",
        );
        fs::write(
            d.join("src/machine.rs"),
            format!("//! A pure machine.\n{SANS_IO_MARKER}\n{body}"),
        )
        .unwrap();
        fs::write(d.join("src/shell.rs"), body).unwrap();
        // Mentioning the marker in prose does not opt a file in.
        fs::write(
            d.join("src/lib.rs"),
            format!("//! See `{SANS_IO_MARKER}`.\npub fn f(_: &Fabric) {{}}\n"),
        )
        .unwrap();
        let v = sans_io(&d.join("src"));
        let got: Vec<(usize, &str)> = v
            .iter()
            .map(|f| (f.line, f.msg.split('`').nth(1).unwrap()))
            .collect();
        assert_eq!(
            got,
            vec![
                (3, "Fabric"),
                (5, "VClock"),
                (6, "Instant::now"),
                (6, ALLOW_WALL_CLOCK),
                (12, "thread"),
            ],
            "{v:?}"
        );
        assert!(v
            .iter()
            .all(|f| f.rule == "sans-io" && f.file.ends_with("machine.rs")));
        // The wall-clock rule alone accepts the marked read.
        assert!(wall_clock(&d.join("src")).is_empty());
    }

    /// The protocol machines carry the marker (and the shells that drive
    /// them do not): deleting one is a reviewed change here, not a silent
    /// loss of coverage.
    #[test]
    fn the_protocol_machines_are_marked_sans_io() {
        // (crate dir, its machines, the shell that drives them)
        let table: [(&str, &[&str], &str); 5] = [
            (
                "mpi",
                &[
                    "reliability.rs",
                    "rendezvous.rs",
                    "credit.rs",
                    "matching.rs",
                ],
                "mpi/src/endpoint.rs",
            ),
            (
                "ensemble",
                &["core.rs", "group.rs"],
                "ensemble/src/endpoint.rs",
            ),
            (
                "checkpoint",
                &[
                    "proto/rank.rs",
                    "proto/stop_and_sync.rs",
                    "proto/chandy_lamport.rs",
                    "proto/independent.rs",
                ],
                "core/src/runtime.rs",
            ),
            ("daemon", &["node.rs"], "daemon/src/daemon.rs"),
            ("lwgroups", &["router.rs"], "daemon/src/daemon.rs"),
        ];
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let marked = |f: &Path| is_sans_io(&SourceFile::load(f).expect("a source file"));
        for (krate, machines, shell) in table {
            let src = crates.join(format!("{krate}/src"));
            for f in machines {
                assert!(
                    marked(&src.join(f)),
                    "{krate}/{f} lost its `{SANS_IO_MARKER}` marker"
                );
            }
            assert!(
                !marked(&crates.join(shell)),
                "{shell}: the shell is not a machine"
            );
            assert!(sans_io(&src).is_empty(), "{:?}", sans_io(&src));
        }
    }

    #[test]
    fn wall_clock_ban_covers_the_forensics_crates() {
        // PR 8's event bus / postmortem frames are replayed and diffed
        // across runs; pin `events` and `trace` into the deterministic set.
        assert!(DETERMINISTIC_CRATES.contains(&"events"));
        assert!(DETERMINISTIC_CRATES.contains(&"trace"));
    }

    #[test]
    fn wall_clock_does_not_match_sub_identifiers() {
        let d = tmpdir("wc3");
        fs::write(
            d.join("src/lib.rs"),
            "pub fn f(x: u64) -> u64 { my_thread_rng_seed(x) }\nfn my_thread_rng_seed(x: u64) -> u64 { x }\n",
        )
        .unwrap();
        assert!(wall_clock(&d.join("src")).is_empty());
    }

    #[test]
    fn enum_coverage_flags_untested_variant() {
        let d = tmpdir("enum1");
        fs::write(
            d.join("src/lib.rs"),
            concat!(
                "pub enum Wire {\n",
                "    Ping,\n",
                "    Pong,\n",
                "    Forgotten,\n",
                "}\n",
                "pub trait Encode {}\n",
                "pub trait Decode {}\n",
                "impl Encode for Wire {}\n",
                "impl Decode for Wire {}\n",
                "#[cfg(test)]\n",
                "mod tests {\n",
                "    #[test]\n",
                "    fn roundtrip() { /* Ping Pong */ let _ = (\"Ping\", \"Pong\"); }\n",
                "}\n",
            ),
        )
        .unwrap();
        let v = wire_enum_coverage(&d);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].msg.contains("Forgotten"), "{}", v[0].msg);
    }

    #[test]
    fn enum_coverage_sees_single_line_and_multi_variant_lines() {
        // Regression: the pre-framework scanner collected at most one
        // leading identifier per line and skipped the opening-brace line,
        // so these two shapes escaped coverage entirely.
        let d = tmpdir("enum-oneline");
        fs::write(
            d.join("src/lib.rs"),
            concat!(
                "pub enum Flat { Seen, Missed }\n",
                "pub enum Packed {\n",
                "    A, Skipped,\n",
                "}\n",
                "pub trait Encode {}\n",
                "pub trait Decode {}\n",
                "impl Encode for Flat {}\n",
                "impl Decode for Flat {}\n",
                "impl Encode for Packed {}\n",
                "impl Decode for Packed {}\n",
                "#[cfg(test)]\n",
                "mod tests {\n",
                "    #[test]\n",
                "    fn roundtrip() { let _ = (\"Seen\", \"A\"); }\n",
                "}\n",
            ),
        )
        .unwrap();
        let v = wire_enum_coverage(&d);
        let msgs: Vec<&str> = v.iter().map(|x| x.msg.as_str()).collect();
        assert_eq!(v.len(), 2, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`Missed`")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`Skipped`")), "{msgs:?}");
    }

    #[test]
    fn enum_without_codec_impls_is_ignored() {
        let d = tmpdir("enum2");
        fs::write(
            d.join("src/lib.rs"),
            "pub enum Internal { NeverOnTheWire }\n",
        )
        .unwrap();
        assert!(wire_enum_coverage(&d).is_empty());
    }

    #[test]
    fn inherent_codec_counts_as_wire_enum() {
        let d = tmpdir("enum3");
        fs::write(
            d.join("src/lib.rs"),
            concat!(
                "pub enum Rel {\n",
                "    Nack,\n",
                "    Quiet,\n",
                "}\n",
                "impl Rel {\n",
                "    pub fn encode(&self) -> Vec<u8> { Vec::new() }\n",
                "    pub fn decode(_b: &[u8]) -> Option<Rel> { None }\n",
                "}\n",
            ),
        )
        .unwrap();
        let v = wire_enum_coverage(&d);
        assert_eq!(v.len(), 2, "{v:?}"); // no tests at all: both flagged
    }
}
