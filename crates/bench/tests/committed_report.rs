//! The committed `BENCH_calibrate.json` describes the code beside it: its
//! recovery rows and its large collective cells were measured at one
//! rendezvous threshold, and a report from another is stale. Re-record it
//! with `cargo bench -p starfish-bench --bench calibrate`.

use starfish_bench::recovery::{recovery_model, speedup, LEGS};
use starfish_mpi::DEFAULT_RNDV_THRESHOLD;

fn committed() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_calibrate.json");
    std::fs::read_to_string(path).expect("BENCH_calibrate.json is committed")
}

#[test]
fn committed_calibration_report_ran_at_the_current_rendezvous_threshold() {
    let report = committed();
    let recorded: Vec<usize> = report
        .lines()
        .filter_map(|l| l.trim().strip_prefix("\"rndv_threshold_bytes\":"))
        .map(|v| v.trim().trim_end_matches(',').parse().expect("an integer"))
        .collect();
    assert_eq!(
        recorded,
        [DEFAULT_RNDV_THRESHOLD],
        "BENCH_calibrate.json was recorded at another rendezvous threshold: re-run the calibrate bench"
    );
}

/// The committed recovery rows are what the model computes today, every
/// leg to the nanosecond and the speedup as printed: the 256 KiB and 1 MiB
/// rows, the sizes a quick run also covers.
#[test]
fn committed_recovery_rows_match_the_model() {
    let report = committed();
    let (_, recovery) = report
        .split_once("\"recovery_ns\":")
        .expect("a recovery_ns section");
    for bytes in [256 * 1024, 1 << 20] {
        let key = format!("\"{bytes}\": {{");
        let row = recovery
            .lines()
            .find_map(|l| l.trim().strip_prefix(key.as_str()))
            .unwrap_or_else(|| panic!("no committed recovery row for {bytes} B"));
        let cells: Vec<(String, String)> = row
            .trim_end_matches(',')
            .trim_end_matches('}')
            .split(", ")
            .map(|cell| {
                let (k, v) = cell.split_once(": ").expect("\"key\": value");
                (k.trim_matches('"').to_string(), v.to_string())
            })
            .collect();
        let legs = recovery_model(bytes);
        let mut model: Vec<(String, String)> = LEGS
            .iter()
            .zip(legs)
            .map(|(leg, ns)| (leg.to_string(), ns.to_string()))
            .collect();
        model.push(("speedup".into(), speedup(legs)));
        assert_eq!(cells, model, "recovery row {bytes} B: committed vs model");
    }
}
