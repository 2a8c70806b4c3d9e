//! The committed `BENCH_calibrate.json` describes the code beside it: its
//! recovery rows and its large collective cells were measured at one
//! rendezvous threshold, and a report from another is stale. Re-record it
//! with `cargo bench -p starfish-bench --bench calibrate`.

use starfish_mpi::DEFAULT_RNDV_THRESHOLD;

#[test]
fn committed_calibration_report_ran_at_the_current_rendezvous_threshold() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_calibrate.json");
    let report = std::fs::read_to_string(path).expect("BENCH_calibrate.json is committed");
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
