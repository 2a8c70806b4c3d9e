//! The seeded analyser fixture, pinned per violation. CI's must-fail step
//! only checks that `starfish-lint` exits non-zero on
//! `fixtures/badcrate`, which one surviving violation is enough for; this
//! test fails as soon as any pass stops finding its seed, or finds more.

use std::path::Path;

use verify::analyze_crate;

#[test]
fn badcrate_yields_exactly_its_seeded_findings() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/badcrate");
    let report = analyze_crate(&dir);
    let got: Vec<(&str, String, usize)> = report
        .findings
        .iter()
        .map(|f| {
            let file = f.file.strip_prefix(&dir).unwrap_or(&f.file);
            (f.rule.as_str(), file.display().to_string(), f.line)
        })
        .collect();
    let want = [
        ("wire-enum-coverage", "src/lib.rs", 22),
        ("wire-enum-coverage", "src/lib.rs", 34),
        ("lock-order", "src/lib.rs", 47),
        ("blocking-while-locked", "src/lib.rs", 62),
        ("notify-unlocked", "src/lib.rs", 78),
        ("sans-io", "src/machine.rs", 6),
        ("sans-io", "src/machine.rs", 12),
    ]
    .map(|(rule, file, line)| (rule, file.to_string(), line));
    assert_eq!(got, want, "{}", report.render_human());
}
