//! The committed `BENCH_calibrate.json` describes the code beside it: its
//! recovery rows and its large collective cells were measured at one
//! rendezvous threshold, and a report from another is stale; its recovery
//! rows are what the model computes; and every paper section that runs in
//! under a second here reads the same when it is run again, a cell the
//! report bands as a band with the same cause. Re-record it with
//! `cargo bench -p starfish-bench --bench calibrate`.

use starfish_bench::recovery::{recovery_model, speedup, LEGS};
use starfish_bench::PAPER;
use starfish_mpi::DEFAULT_RNDV_THRESHOLD;
use starfish_util::json::{self, Json};

fn committed() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_calibrate.json");
    let text = std::fs::read_to_string(path).expect("BENCH_calibrate.json is committed");
    json::parse(&text).expect("BENCH_calibrate.json is JSON")
}

#[test]
fn committed_calibration_report_ran_at_the_current_rendezvous_threshold() {
    let recorded = committed()
        .get("rndv_threshold_bytes")
        .and_then(Json::as_num);
    assert_eq!(
        recorded,
        Some(DEFAULT_RNDV_THRESHOLD as f64),
        "BENCH_calibrate.json was recorded at another rendezvous threshold: re-run the calibrate bench"
    );
}

/// The committed recovery rows are what the model computes today, every
/// leg to the nanosecond and the speedup as printed: the 256 KiB and 1 MiB
/// rows, the sizes a quick run also covers.
#[test]
fn committed_recovery_rows_match_the_model() {
    let report = committed();
    let rows = report
        .get("recovery_ns")
        .and_then(|s| s.get("rows"))
        .expect("a recovery_ns section with rows");
    for bytes in [256 * 1024, 1 << 20] {
        let row = rows
            .get(&bytes.to_string())
            .and_then(Json::as_obj)
            .unwrap_or_else(|| panic!("no committed recovery row for {bytes} B"));
        let cells: Vec<(&str, f64)> = row
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_num().expect("a number")))
            .collect();
        let legs = recovery_model(bytes);
        let mut model: Vec<(&str, f64)> = LEGS
            .iter()
            .zip(legs)
            .map(|(l, ns)| (*l, ns as f64))
            .collect();
        model.push(("speedup", speedup(legs).parse().unwrap()));
        assert_eq!(cells, model, "recovery row {bytes} B: committed vs model");
    }
}

fn is_band(v: &Json) -> bool {
    let keys = v
        .as_obj()
        .map(|kv| kv.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>());
    keys.as_deref() == Some(&["min", "max", "cause"][..])
}

/// `fresh` reads as `committed` does: equal, except that a band of the
/// committed report is a band with the same cause.
fn assert_same(committed: &Json, fresh: &Json, at: &str) {
    if is_band(committed) {
        assert!(is_band(fresh), "{at}: committed a band, ran {fresh:?}");
        assert_eq!(committed.get("cause"), fresh.get("cause"), "{at}: cause");
        return;
    }
    match (committed.as_obj(), fresh.as_obj()) {
        (Some(c), Some(f)) => {
            let keys =
                |kv: &[(String, Json)]| kv.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
            assert_eq!(keys(c), keys(f), "{at}: keys");
            for ((k, cv), (_, fv)) in c.iter().zip(f) {
                assert_same(cv, fv, &format!("{at}.{k}"));
            }
        }
        _ => assert_eq!(committed, fresh, "{at}: committed vs fresh"),
    }
}

/// Run paper section `name` again and compare it with the committed one.
fn rerun(name: &str) {
    let (_, section) = PAPER
        .iter()
        .find(|(n, _)| *n == name)
        .expect("a paper section");
    let fresh = json::parse(&section().render()).expect("a section renders JSON");
    let report = committed();
    let committed = report
        .get(name)
        .unwrap_or_else(|| panic!("no committed {name}"));
    assert_same(committed, &fresh, name);
}

// Every paper section but `ablation_incremental`, which takes seconds in a
// debug build; CI's bench job runs it.

#[test]
fn fig3_native_ckpt_reruns_as_committed() {
    rerun("fig3_native_ckpt");
}

#[test]
fn fig4_hetero_ckpt_reruns_as_committed() {
    rerun("fig4_hetero_ckpt");
}

#[test]
fn fig5_roundtrip_reruns_as_committed() {
    rerun("fig5_roundtrip");
}

#[test]
fn fig6_layers_reruns_as_committed() {
    rerun("fig6_layers");
}

#[test]
fn table1_message_audit_reruns_as_committed() {
    rerun("table1_message_audit");
}

#[test]
fn table2_hetero_matrix_reruns_as_committed() {
    rerun("table2_hetero_matrix");
}

#[test]
fn claim_overhead_1pct_reruns_as_committed() {
    rerun("claim_overhead_1pct");
}

#[test]
fn ablation_cr_protocols_reruns_as_committed() {
    rerun("ablation_cr_protocols");
}

#[test]
fn ablation_lwgroups_reruns_as_committed() {
    rerun("ablation_lwgroups");
}

#[test]
fn ablation_polling_reruns_as_committed() {
    rerun("ablation_polling");
}

#[test]
fn ablation_fastpath_reruns_as_committed() {
    rerun("ablation_fastpath");
}

#[test]
fn ablation_forked_reruns_as_committed() {
    rerun("ablation_forked");
}

#[test]
fn ablation_domino_reruns_as_committed() {
    rerun("ablation_domino");
}
