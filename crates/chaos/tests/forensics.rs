//! Forensic oracles: the driver's modeled recovery numbers must match the
//! plan's detector configuration and the checkpoint oracle's recovery
//! line — exactly, and identically across replays. This is the chaos-side
//! half of the ISSUE-8 acceptance criteria (the live-cluster half lives in
//! `tests/integration_management.rs`).

use starfish_chaos::{postmortem, run_mpi_scenario, write_postmortem, FaultPlan};

/// A replica-backed plan that silently kills one node after two committed
/// checkpoint rounds, under a declared heartbeat detector.
fn forensic_plan(seed: u64) -> FaultPlan {
    let text = format!(
        "starfish-fault-plan v1\n\
         seed {seed}\n\
         nodes 4\n\
         ranks 4\n\
         steps 22\n\
         ckpt-every 8\n\
         replica 2\n\
         heartbeat 200 800\n\
         @18 silent-crash 1\n"
    );
    FaultPlan::parse(&text).unwrap()
}

#[test]
fn detection_latency_is_bounded_by_the_heartbeat_config() {
    for seed in 0..12 {
        let plan = forensic_plan(seed);
        let (interval_us, timeout_us) = plan.heartbeat.unwrap();
        let report = run_mpi_scenario(&plan);
        let detect = report.detect_ns.expect("heartbeat + crash => detect_ns");
        // The detector cannot fire before the silence window has expired,
        // and must fire within two beacon intervals past it.
        assert!(
            detect > timeout_us * 1_000 - interval_us * 1_000,
            "seed {seed}: detected implausibly fast: {detect} ns"
        );
        assert!(
            detect <= (timeout_us + 2 * interval_us) * 1_000,
            "seed {seed}: detection {detect} ns exceeds timeout + 2*interval"
        );
    }
}

#[test]
fn detection_is_absent_without_a_heartbeat_or_a_crash() {
    // Crash but no declared detector: fail-stop semantics, no detect_ns.
    let mut plan = forensic_plan(1);
    plan.heartbeat = None;
    let report = run_mpi_scenario(&plan);
    assert_eq!(report.detect_ns, None);
    assert!(report.rollback_depth_ns.is_some(), "crash still rolls back");

    // Detector but no crash: nothing to detect, no forensics at all.
    let mut calm = forensic_plan(2);
    calm.events.clear();
    let report = run_mpi_scenario(&calm);
    assert_eq!(report.detect_ns, None);
    assert_eq!(report.rollback_depth_ns, None);
    assert_eq!(report.rollback_lost_msgs, None);
    assert_eq!(report.restore_ns, None);
    assert!(postmortem(&calm, &report).is_none(), "no crash, no bundle");
}

#[test]
fn rollback_depth_matches_the_recovery_line_oracle() {
    for seed in 0..12 {
        let plan = forensic_plan(seed);
        let report = run_mpi_scenario(&plan);
        // Two rounds commit (steps 8 and 16) before the @18 crash; the
        // replica line over live ranks must be the oracle's line, and the
        // modeled depth must equal end-of-run minus that line's round, on
        // the driver's synthetic clock (step s fires at (s+1) µs).
        assert_eq!(report.line, 2, "seed {seed}");
        assert!(report.line_restorable, "seed {seed}: line not restorable");
        let end_vt = u64::from(plan.steps) * 1_000;
        let line_vt = report.line * u64::from(plan.ckpt_every) * 1_000;
        assert_eq!(
            report.rollback_depth_ns,
            Some(end_vt - line_vt),
            "seed {seed}"
        );
        // Every accepted send is accounted: lost-since-line can cover at
        // most the sends of the post-line steps (live ranks only).
        let total: u64 = report.sent.values().map(|v| v.len() as u64).sum();
        let lost = report.rollback_lost_msgs.unwrap();
        assert!(lost <= total, "seed {seed}: lost {lost} > total {total}");
        // Replica-backed line with a crash: the modeled reassembly cost is
        // present and nonzero (fragments move at fabric speed, not free).
        let restore = report.restore_ns.expect("replica line => restore_ns");
        assert!(restore > 0, "seed {seed}: restore cost is zero");
    }
}

#[test]
fn postmortem_bundle_is_byte_identical_across_replays() {
    let plan = forensic_plan(42);
    let (r1, r2) = (run_mpi_scenario(&plan), run_mpi_scenario(&plan));
    assert_eq!(r1, r2, "scenario replay diverged");
    let pm1 = postmortem(&plan, &r1).expect("crash => bundle");
    let pm2 = postmortem(&plan, &r2).unwrap();
    assert_eq!(pm1.to_json(), pm2.to_json(), "bundle replay diverged");

    // The bundle carries the acceptance-criteria numbers.
    assert_eq!(pm1.store_backend, "replica:2");
    assert!(pm1.trigger.contains("heartbeat timeout"), "{}", pm1.trigger);
    assert_eq!(pm1.phase_ns("detect"), r1.detect_ns);
    assert_eq!(pm1.phase_ns("restore"), r1.restore_ns);
    assert_eq!(pm1.rollback.depth_vt_ns, r1.rollback_depth_ns.unwrap());
    assert_eq!(pm1.rollback.messages_lost, r1.rollback_lost_msgs.unwrap());
    let live = plan.ranks as usize - r1.dead_ranks.len();
    assert_eq!(pm1.rollback.line, vec![r1.line; live]);
    // The event sequence is ordered and ends with recovery-complete.
    let labels: Vec<&str> = pm1.events.iter().map(|e| e.kind.label()).collect();
    assert!(labels.contains(&"fault-injected"));
    assert!(labels.contains(&"node-suspected"));
    assert_eq!(labels.last(), Some(&"recovery-complete"));
    assert!(pm1.events.windows(2).all(|w| w[0].vt <= w[1].vt));
}

/// The bundle writer, pinned byte for byte: `forensic_plan(0)`'s bundle
/// as the writer produced it when it was committed.
#[test]
fn golden_bundle_is_byte_identical() {
    let plan = forensic_plan(0);
    let pm = postmortem(&plan, &run_mpi_scenario(&plan)).expect("crash => bundle");
    assert_eq!(pm.to_json(), include_str!("golden/postmortem_seed0.json"));
}

#[test]
fn bundle_is_written_under_the_postmortem_dir() {
    let plan = forensic_plan(7);
    let report = run_mpi_scenario(&plan);
    let pm = postmortem(&plan, &report).unwrap();
    let path = write_postmortem(&plan, &pm).expect("write bundle");
    let body = std::fs::read_to_string(&path).unwrap();
    assert_eq!(body, pm.to_json());
    assert!(body.starts_with('{') && body.trim_end().ends_with('}'));
    assert!(
        path.file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("chaos-seed7-"),
        "unexpected bundle name {path:?}"
    );
}
