//! An idle cluster is idle: every thread of it is parked on its one wait
//! point, and nothing wakes on a timer — measured where a hidden poll
//! cannot hide, in the operating system's own context-switch counters.
//!
//! This file holds a single test on purpose: the counters it reads are
//! those of the whole process.

use std::time::Duration;

use starfish::{CkptValue, Cluster, FtPolicy, Rank, SubmitOpts};

const T: Duration = Duration::from_secs(60);

/// One `/proc/self/task/<tid>/<file>` per live thread.
fn per_thread(file: &str) -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join(file)).ok())
        .collect()
}

/// Times any thread of this process has gone to sleep of its own accord.
fn voluntary_switches() -> u64 {
    let count = |status: &String| -> u64 {
        let line = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"));
        line.unwrap().trim().parse().unwrap()
    };
    per_thread("status").iter().map(count).sum()
}

/// Every live thread's name, sorted. A thread listed between its `clone()`
/// and its own `PR_SET_NAME` still carries its parent's name — on a loaded
/// box for as long as it waits for a core — so list until two listings
/// 20 ms apart agree (for at most a second).
fn thread_names() -> Vec<String> {
    let list = || {
        let mut names: Vec<String> = per_thread("comm").iter().map(|n| n.trim().into()).collect();
        names.sort();
        names
    };
    let mut last = list();
    for _ in 0..50 {
        std::thread::sleep(Duration::from_millis(20));
        let now = list();
        if now == last {
            break;
        }
        last = now;
    }
    last
}

#[test]
fn an_idle_cluster_makes_no_context_switches_and_runs_no_helper_threads() {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    // `build` returns when every daemon knows every node; the last boot
    // casts (view-change events) may still be in flight. Let them land.
    std::thread::sleep(Duration::from_millis(300));
    let before = voluntary_switches();
    std::thread::sleep(Duration::from_millis(500));
    let woke = voluntary_switches().saturating_sub(before);
    // Ours is one of them (the sleep above). A 200 µs poll in each of the
    // three node loops alone would be 7 500.
    assert!(
        woke <= 50,
        "{woke} voluntary context switches in 500 ms of idling"
    );

    // A live job adds its ranks and their polling threads — and nothing
    // else: no thread stands between a daemon and its group, or between a
    // rank and its daemon.
    cluster.register_app("stuck", |ctx| {
        ctx.publish(CkptValue::Unit);
        let peer = Rank((ctx.rank().0 + 1) % ctx.size());
        ctx.recv(Some(peer), Some(1)).map(|_| ())
    });
    let opts = SubmitOpts::default().policy(FtPolicy::Kill);
    let stuck = cluster.submit("stuck", 2, opts).unwrap();
    for r in 0..2 {
        cluster.wait_outputs(stuck, Rank(r), 1, T).unwrap();
    }
    let names = thread_names();
    let family = |prefix: &str| names.iter().filter(|n| n.starts_with(prefix)).count();
    assert_eq!((family("starfishd-"), family("app-")), (3, 2), "{names:?}");
    assert_eq!((family("ensemble-"), family("gh-")), (0, 0), "{names:?}");
}
