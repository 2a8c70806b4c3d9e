//! The audited panic surface (VERIFICATION.md §2). The crates that decode
//! foreign bytes deny clippy's panic lints and `#[allow]` at their root,
//! and so do the modules of the unaudited crates that decode foreign bytes
//! (`trace`'s cluster event vocabulary and trace context, `telemetry`'s
//! snapshots), at their own head. Clippy holds each site; this test holds
//! the list, so dropping a block fails here instead of silently ending the
//! audit of a crate.

use std::path::Path;

/// What every audited block denies.
const LINTS: [&str; 9] = [
    "indexing_slicing",
    "unwrap_used",
    "expect_used",
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "allow_attributes",
    "allow_attributes_without_reason",
];

/// Each audited file, relative to `crates/`.
const AUDITED: [&str; 11] = [
    "vni/src/lib.rs",
    "mpi/src/lib.rs",
    "ensemble/src/lib.rs",
    "checkpoint/src/lib.rs",
    "daemon/src/lib.rs",
    "util/src/lib.rs",
    "trace/src/event.rs",
    "trace/src/postmortem.rs",
    "trace/src/context.rs",
    "telemetry/src/snapshot.rs",
    "telemetry/src/histogram.rs",
];

/// The `clippy::` lints that the inner attributes at the head of a file
/// deny, before its first item.
fn denied_at_head(src: &str) -> Vec<&str> {
    let mut denied = Vec::new();
    for line in src.lines().map(str::trim) {
        if line.is_empty() || line.starts_with("//") {
            continue;
        }
        if !line.starts_with("#![") {
            break;
        }
        if let Some(list) = line.strip_prefix("#![deny(") {
            let list = list.trim_end_matches(")]").split(',');
            denied.extend(list.filter_map(|l| l.trim().strip_prefix("clippy::")));
        }
    }
    denied
}

#[test]
fn audited_files_deny_the_panic_lints_at_their_head() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    for file in AUDITED {
        let src = std::fs::read_to_string(crates.join(file)).unwrap();
        let denied = denied_at_head(&src);
        for lint in LINTS {
            assert!(
                denied.contains(&lint),
                "{file} no longer denies `clippy::{lint}` at its head"
            );
        }
    }
}

/// The head ends at the first item: a deny list further down is not read.
#[test]
fn a_deny_after_the_first_item_is_not_at_the_head() {
    let src = "//! Doc.\n#![deny(clippy::panic)]\n\nuse x;\n#![deny(clippy::todo)]\n";
    assert_eq!(denied_at_head(src), ["panic"]);
}
