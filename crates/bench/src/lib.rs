//! # starfish-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§5) plus
//! the ablations DESIGN.md calls out. Each experiment is a library function
//! (so both the per-figure binaries and the `figures` bench target can run
//! it) that prints the series the paper reports next to the paper's own
//! anchor numbers.
//!
//! All times are **virtual** (see DESIGN.md): deterministic, calibrated to
//! the paper's 1999 testbed. Shapes — who wins, slopes, crossovers — are the
//! reproduction target; absolute agreement beyond the calibrated anchor
//! points is not expected. The one wall-clock number is Table 2's per-cell
//! decode time, labelled so in its header.
//!
//! The `calibrate` bench target measures what the model rests on — the
//! collective crossovers ([`threshold`]) and the modelled checkpoint
//! recovery ([`recovery`]) — and writes them to `BENCH_calibrate.json`.

pub mod ablations;
pub mod figures;
pub mod recovery;
pub mod report;
pub mod threshold;

pub use report::{print_banner, print_table};

/// Default runtime knobs (helper for the ablations).
pub fn host_knobs() -> starfish::RuntimeKnobs {
    starfish::RuntimeKnobs::default()
}
