//! Deterministic teardown: dropping a `Cluster` leaves no thread behind.
//!
//! This file holds a single test on purpose: it counts the threads of the
//! whole process, so it must not share one with tests that boot clusters of
//! their own.

use std::time::{Duration, Instant};

use starfish::{CkptValue, Cluster, FtPolicy, Rank, ReduceOp, SubmitOpts};

const T: Duration = Duration::from_secs(60);

fn threads() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line["Threads:".len()..].trim().parse().unwrap()
}

fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("comm")).ok())
        .map(|n| n.trim().to_string())
        .collect()
}

#[test]
fn dropping_a_cluster_leaves_no_thread_behind() {
    let before = threads();
    let cluster = Cluster::builder().nodes(4).build().unwrap();
    // One job that runs to completion through two checkpoint rounds ...
    cluster.register_app("job", |ctx| {
        let state = CkptValue::Unit;
        for _ in 0..2 {
            ctx.checkpoint(&state)?;
            ctx.allreduce_i64(&[1], ReduceOp::Sum)?;
        }
        Ok(())
    });
    // ... and one whose ranks are still blocked in a receive when the
    // cluster goes away.
    cluster.register_app("stuck", |ctx| {
        ctx.publish(CkptValue::Unit);
        let peer = Rank((ctx.rank().0 + 1) % ctx.size());
        ctx.recv(Some(peer), Some(1)).map(|_| ())
    });
    let auto = cluster.enable_auto_checkpoint(Duration::from_secs(3600));
    let job = cluster.submit("job", 2, SubmitOpts::default()).unwrap();
    let stuck = cluster
        .submit("stuck", 4, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    cluster.wait_app_done(job, T).unwrap();
    for r in 0..4 {
        cluster.wait_outputs(stuck, Rank(r), 1, T).unwrap();
    }
    assert!(threads() > before + 8, "a live cluster runs many threads");

    // The driver thread is joined by its guard, the daemons (each one
    // thread: the node loop owns its group stack) by the cluster; ranks are
    // detached and exit on their own once their node's ports close. Wait (bounded) for the operating system to show
    // all of them gone — a joined thread can linger in /proc for a moment
    // too.
    drop(auto);
    drop(cluster);
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() > before && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(threads(), before, "survivors: {:?}", thread_names());
}
