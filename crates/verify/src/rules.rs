//! The repo-specific rules clippy cannot express, hosted on the analyser's
//! source model:
//!
//! 1. **sans-io** — a file carrying the `// lint: sans-io` marker is a pure
//!    protocol machine: it may not name a clock read, the fabric, the
//!    virtual clock, a lock, a thread or an instrument, tests included, and
//!    there is no escape hatch.
//! 2. **wire-enum-coverage** — every enum with an `Encode` *and* `Decode`
//!    implementation (trait or inherent) must have each variant named in
//!    the crate's test code. Variant parsing uses the item model, which
//!    (unlike the old line scanner) also sees single-line enums and
//!    several variants per line.

use std::fs;
use std::path::Path;

use crate::model::{CrateModel, EnumDef};
use crate::report::Finding;
use crate::source::{rs_files, token_in, SourceFile};

// ---------------------------------------------------------------------------
// sans-io
// ---------------------------------------------------------------------------

/// The file marker (a comment line of its own) that opts a module into
/// the sans-io rule. `crates/mpi/src/{reliability,rendezvous,credit,matching}.rs`,
/// `crates/ensemble/src/{core,group}.rs`,
/// `crates/checkpoint/src/proto/{rank,stop_and_sync,chandy_lamport,independent}.rs`
/// and `crates/daemon/src/{node,lwgroups}.rs` carry it; a unit test below
/// pins that.
pub(crate) const SANS_IO_MARKER: &str = "// lint: sans-io";

/// What a sans-IO module may not name: wall-clock reads, the fabric and
/// the virtual clock (it is handed values, never the thing that produces
/// them), locks, threads (`thread::…` paths), and the instruments.
pub(crate) const SANS_IO_TOKENS: &[&str] = &[
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
pub(crate) fn is_sans_io(scan: &SourceFile) -> bool {
    scan.raw.iter().any(|l| l.trim() == SANS_IO_MARKER)
}

/// Check the marked files under `src_dir`: every line, test code included
/// (a machine whose tests need a thread or a clock is not driven purely),
/// and nothing excuses a finding.
pub(crate) fn sans_io(src_dir: &Path) -> Vec<Finding> {
    let mut out = Vec::new();
    let files = rs_files(src_dir);
    let scans = files.iter().filter_map(|f| SourceFile::load(f));
    for scan in scans.filter(is_sans_io) {
        for (i, code) in scan.code.iter().enumerate() {
            for tok in SANS_IO_TOKENS.iter().filter(|t| token_in(code, t)) {
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
// wire-enum coverage
// ---------------------------------------------------------------------------

/// Names with an `impl Encode for X` / `impl Decode for X`, or an inherent
/// impl block containing both `fn encode` and `fn decode`, each with the
/// index of a file that holds one of those impls.
fn codec_types(scans: &[SourceFile]) -> Vec<(String, usize)> {
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for (file, scan) in scans.iter().enumerate() {
        let mut i = 0;
        while i < scan.code.len() {
            let line = scan.code[i].trim().to_string();
            if let Some(rest) = line.strip_prefix("impl Encode for ") {
                if let Some(n) = crate::source::leading_ident(rest) {
                    enc.push((n, file));
                }
            } else if let Some(rest) = line.strip_prefix("impl Decode for ") {
                if let Some(n) = crate::source::leading_ident(rest) {
                    dec.push((n, file));
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
                        enc.push((name.clone(), file));
                        dec.push((name, file));
                    }
                    i = j + 1;
                    continue;
                }
            }
            i += 1;
        }
    }
    let both = |n: &String, other: &[(String, usize)]| other.iter().any(|(o, _)| o == n);
    let mut out: Vec<(String, usize)> =
        enc.iter().filter(|(n, _)| both(n, &dec)).cloned().collect();
    out.extend(dec.iter().filter(|(n, _)| both(n, &enc)).cloned());
    out.sort();
    out.dedup();
    out
}

/// Check one crate: its model, and its directory's `tests/`.
pub(crate) fn wire_enum_coverage(model: &CrateModel, crate_dir: &Path) -> Vec<Finding> {
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

    // A codec impl names a type, not a path: where a crate has two enums of
    // one name, it belongs to the one in its own file.
    let coded = |e: &EnumDef| {
        codecs.iter().any(|(n, f)| {
            *n == e.name
                && (*f == e.file || !model.enums.iter().any(|o| o.name == *n && o.file == *f))
        })
    };
    let mut out = Vec::new();
    for e in &model.enums {
        if e.in_test || !coded(e) {
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

    fn coverage(dir: &Path) -> Vec<Finding> {
        wire_enum_coverage(&CrateModel::parse("t", dir), dir)
    }

    fn tmpdir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("starfish-analysis-test-{name}"));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(d.join("src")).unwrap();
        d
    }

    /// In a marked file every banned name is a finding — in test code too,
    /// and clippy's `#[expect]` for a clock read is no excuse here; an
    /// unmarked file is not this rule's business.
    #[test]
    fn sans_io_bans_io_names_in_marked_files_with_no_escape() {
        let d = tmpdir("sans-io");
        let body = concat!(
            "pub struct M { fabric: Fabric, last: Option<std::time::Instant> }\n",
            "impl M {\n",
            "    pub fn tick(&mut self, clock: &mut VClock) {\n",
            "        #[expect(clippy::disallowed_methods, reason = \"a deadline\")]\n",
            "        let now = std::time::Instant::now();\n",
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
                (7, "Instant::now"),
                (13, "thread"),
            ],
            "{v:?}"
        );
        assert!(v
            .iter()
            .all(|f| f.rule == "sans-io" && f.file.ends_with("machine.rs")));
    }

    /// The protocol machines carry the marker (and the shells that drive
    /// them do not): deleting one is a reviewed change here, not a silent
    /// loss of coverage.
    #[test]
    fn the_protocol_machines_are_marked_sans_io() {
        // (crate dir, its machines, the shell that drives them)
        let table: [(&str, &[&str], &str); 4] = [
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
            (
                "daemon",
                &["node.rs", "lwgroups.rs"],
                "daemon/src/daemon.rs",
            ),
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
        let v = coverage(&d);
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
        let v = coverage(&d);
        let msgs: Vec<&str> = v.iter().map(|x| x.msg.as_str()).collect();
        assert_eq!(v.len(), 2, "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`Missed`")), "{msgs:?}");
        assert!(msgs.iter().any(|m| m.contains("`Skipped`")), "{msgs:?}");
    }

    #[test]
    fn a_codec_covers_the_enum_of_its_own_file_only() {
        let d = tmpdir("enum-twins");
        fs::write(
            d.join("src/wire.rs"),
            concat!(
                "pub enum Kind { Sent, Lost }\n",
                "impl Encode for Kind {}\n",
                "impl Decode for Kind {}\n",
            ),
        )
        .unwrap();
        fs::write(d.join("src/local.rs"), "pub enum Kind { Kept }\n").unwrap();
        fs::write(
            d.join("src/lib.rs"),
            "#[cfg(test)]\nmod tests { fn t() { let _ = \"Sent\"; } }\n",
        )
        .unwrap();
        let v = coverage(&d);
        let msgs: Vec<&str> = v.iter().map(|x| x.msg.as_str()).collect();
        assert_eq!(msgs.len(), 1, "{msgs:?}");
        assert!(msgs[0].contains("`Lost`"), "{msgs:?}");
    }

    #[test]
    fn enum_without_codec_impls_is_ignored() {
        let d = tmpdir("enum2");
        fs::write(
            d.join("src/lib.rs"),
            "pub enum Internal { NeverOnTheWire }\n",
        )
        .unwrap();
        assert!(coverage(&d).is_empty());
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
        let v = coverage(&d);
        assert_eq!(v.len(), 2, "{v:?}"); // no tests at all: both flagged
    }
}
