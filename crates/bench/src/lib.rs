//! # starfish-bench — the evaluation harness
//!
//! One bench target, `calibrate`, writes one report, `BENCH_calibrate.json`
//! at the workspace root, and `ci/check_bench.py` gates it. Its sections:
//!
//! * **The paper's evaluation** (§5) — every table and figure plus the
//!   ablations DESIGN.md calls out, one section each under the names in
//!   [`PAPER`], each holding the paper's anchor and tolerance where the
//!   paper gives one ([`figures`], [`ablations`]).
//! * **The model calibration** — the collective crossovers ([`threshold`])
//!   and the modelled checkpoint recovery ([`recovery`]).
//!
//! All times are **virtual** (see DESIGN.md): computed by the calibrated
//! models, so shapes — who wins, slopes, crossovers — are the reproduction
//! target; absolute agreement beyond the calibrated anchor points is not
//! expected. Every section names its clock, `virtual` or `count`. A cell
//! that moves between runs is recorded as the range of [`report::REPEATS`]
//! runs with the cause that moves it ([`report::cause`]).

pub(crate) mod ablations;
pub(crate) mod figures;
pub mod recovery;
pub mod report;
pub mod threshold;

use starfish_util::json::Json;

/// A report section's name and what computes it.
pub(crate) type Section = (&'static str, fn() -> Json);

/// The paper's sections of the report. They run the same in quick and full
/// mode.
pub const PAPER: [Section; 14] = [
    ("fig3_native_ckpt", figures::fig3),
    ("fig4_hetero_ckpt", figures::fig4),
    ("fig5_roundtrip", figures::fig5),
    ("fig6_layers", figures::fig6),
    ("table1_message_audit", figures::table1),
    ("table2_hetero_matrix", figures::table2),
    ("claim_overhead_1pct", figures::claim_overhead),
    ("ablation_cr_protocols", ablations::cr_protocols),
    ("ablation_lwgroups", ablations::lwgroups),
    ("ablation_polling", ablations::polling),
    ("ablation_fastpath", ablations::fastpath),
    ("ablation_incremental", ablations::incremental),
    ("ablation_forked", ablations::forked),
    ("ablation_domino", ablations::domino),
];
