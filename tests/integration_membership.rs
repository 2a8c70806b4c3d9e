//! Cluster membership under churn: daemons joining, crashing and being
//! administrated, with the replicated configuration staying coherent —
//! the paper's §3.1 manageability/dynamicity/high-availability properties.

use std::time::Duration;

use starfish::{CkptValue, Cluster, FtPolicy, NodeId, Rank, SubmitOpts};

const T: Duration = Duration::from_secs(60);

#[test]
fn all_daemons_converge_on_the_same_configuration() {
    let cluster = Cluster::builder().nodes(4).build().unwrap();
    cluster
        .daemon()
        .issue(starfish_daemon::CfgCmd::SetParam {
            key: "k".into(),
            value: "v".into(),
        })
        .unwrap();
    for i in 0..4 {
        let d = cluster.daemon_of(NodeId(i)).unwrap();
        d.wait_config(T, |c| {
            c.params.get("k").map(String::as_str) == Some("v") && c.up_nodes().len() == 4
        })
        .unwrap();
    }
}

#[test]
fn crash_of_one_node_leaves_the_rest_available() {
    // §3.1.3 high availability: "a failure of a few nodes does not cause the
    // entire system to crash or hang".
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    cluster.crash_node(NodeId(1));
    // Survivors record the death and keep serving.
    for i in [0u32, 2] {
        cluster
            .daemon_of(NodeId(i))
            .unwrap()
            .wait_config(T, |c| {
                c.nodes.get(&NodeId(1)).map(|e| e.status)
                    == Some(starfish_daemon::config::CfgNodeStatus::Dead)
            })
            .unwrap();
    }
    // New work still schedules (on the survivors).
    cluster.register_app("post-crash", |ctx| {
        ctx.publish(CkptValue::Unit);
        Ok(())
    });
    let app = cluster
        .submit(
            "post-crash",
            2,
            SubmitOpts::default().policy(FtPolicy::Kill),
        )
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    assert!(!cluster.config().apps[&app].placement.contains(&NodeId(1)));
}

#[test]
fn unaffected_application_survives_other_nodes_crash() {
    // §3.1.3: "if none of the application processes of a given application
    // was located on a failed node, then this application continues to run
    // transparently".
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    cluster.register_app("bystander", |ctx| {
        let state = CkptValue::Unit;
        for _ in 0..40 {
            ctx.safepoint(&state)?;
            std::thread::sleep(Duration::from_millis(5));
        }
        ctx.publish(CkptValue::Str("unperturbed".into()));
        Ok(())
    });
    // Pin the app to 2 ranks; find the node hosting neither.
    let app = cluster
        .submit("bystander", 2, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    let placement = cluster.config().apps[&app].placement.clone();
    let idle = (0..3)
        .map(NodeId)
        .find(|n| !placement.contains(n))
        .expect("one node hosts no rank");
    cluster.crash_node(idle);
    cluster.wait_app_done(app, T).unwrap();
    assert_eq!(
        cluster.outputs(app, Rank(0)),
        vec![CkptValue::Str("unperturbed".into())]
    );
}

#[test]
fn nodes_added_while_apps_run() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("longrun", |ctx| {
        let state = CkptValue::Unit;
        for _ in 0..80 {
            ctx.safepoint(&state)?;
            std::thread::sleep(Duration::from_millis(3));
        }
        ctx.publish(CkptValue::Unit);
        Ok(())
    });
    let app = cluster.submit("longrun", 2, SubmitOpts::default()).unwrap();
    // Grow the cluster mid-run.
    let n2 = cluster.add_node(0).unwrap();
    let n3 = cluster.add_node(3).unwrap();
    assert_eq!(cluster.config().up_nodes().len(), 4);
    cluster.wait_app_done(app, T).unwrap();
    // The new nodes schedule follow-up work.
    let app2 = cluster.submit("longrun", 4, SubmitOpts::default()).unwrap();
    cluster.wait_app_done(app2, T).unwrap();
    let p = &cluster.config().apps[&app2].placement;
    assert!(p.contains(&n2) && p.contains(&n3));
}

#[test]
fn several_sequential_crashes_until_one_node_remains() {
    let cluster = Cluster::builder().nodes(4).build().unwrap();
    for victim in [3u32, 2, 1] {
        cluster.crash_node(NodeId(victim));
        cluster
            .daemon_of(NodeId(0))
            .unwrap()
            .wait_config(T, |c| c.up_nodes().len() == victim as usize)
            .unwrap();
    }
    // The last daemon still serves requests.
    cluster.register_app("lonely", |ctx| {
        ctx.publish(CkptValue::Unit);
        Ok(())
    });
    let app = cluster
        .submit("lonely", 1, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
}

#[test]
fn lightweight_groups_follow_placement() {
    // Two disjoint apps: a node failure affecting only app B's lightweight
    // group must leave app A untouched (figure 2 of the paper).
    let cluster = Cluster::builder().nodes(4).build().unwrap();
    cluster.register_app("lw", |ctx| {
        let state = CkptValue::Unit;
        for _ in 0..60 {
            ctx.safepoint(&state)?;
            std::thread::sleep(Duration::from_millis(4));
        }
        ctx.publish(CkptValue::Str("done".into()));
        Ok(())
    });
    let a = cluster
        .submit("lw", 2, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    let a_nodes = cluster.config().apps[&a].placement.clone();
    let b_node = (0..4)
        .map(NodeId)
        .find(|n| !a_nodes.contains(n))
        .expect("a free node for app B");
    // Run B pinned implicitly to remaining nodes via load-based placement.
    let b = cluster
        .submit("lw", 1, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    let b_nodes = cluster.config().apps[&b].placement.clone();
    // Crash a node hosting only B (or an idle one hosting neither).
    let victim = if b_nodes.contains(&b_node) {
        b_node
    } else {
        b_nodes[0]
    };
    if a_nodes.contains(&victim) {
        // Placement happened to overlap; nothing to assert here.
        return;
    }
    cluster.crash_node(victim);
    // App A completes untouched.
    cluster.wait_app_done(a, T).unwrap();
    assert_eq!(
        cluster.outputs(a, Rank(0)),
        vec![CkptValue::Str("done".into())]
    );
}

/// A long job whose ranks record every lightweight view they are told, as
/// node lists, until `stop` is set; then each publishes `"end"`.
fn register_view_log(cluster: &Cluster, stop: &std::sync::Arc<std::sync::atomic::AtomicBool>) {
    let stop = stop.clone();
    cluster.register_app("views", move |ctx| {
        use std::sync::atomic::Ordering;
        loop {
            let done = stop.load(Ordering::Relaxed);
            while let Some(v) = ctx.take_view()? {
                let nodes = v.lw.members.iter().map(|n| n.0 as i64).collect();
                ctx.publish(CkptValue::IntArray(nodes));
            }
            if done {
                break;
            }
            ctx.safepoint(&CkptValue::Unit)?;
            std::thread::sleep(Duration::from_millis(2));
        }
        ctx.publish(CkptValue::Str("end".into()));
        Ok(())
    });
}

/// The lightweight group of a notify-policy job names exactly the nodes
/// that run one of its ranks: a survivor is told `[n0,n1,n2]`, then
/// `[n0,n1]` — and nothing more, neither when the dead node is recorded
/// dead nor when it comes back under the same id (its rank stays lost).
#[test]
fn a_notify_view_group_names_exactly_the_survivors() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    register_view_log(&cluster, &stop);
    let opts = SubmitOpts::default().policy(FtPolicy::NotifyView);
    let app = cluster.submit("views", 3, opts).unwrap();
    for r in 0..3 {
        cluster.wait_outputs(app, Rank(r), 1, T).unwrap();
    }
    let placement = cluster.config().apps[&app].placement.clone();
    assert_eq!(placement, vec![NodeId(0), NodeId(1), NodeId(2)]);
    let victim = NodeId(2);
    cluster.crash_node(victim);
    // A daemon publishes a configuration after acting on it: once every
    // survivor has recorded the death, every view it would send is sent.
    for n in [0, 1] {
        let d = cluster.daemon_of(NodeId(n)).unwrap();
        d.wait_config(T, |c| {
            c.nodes[&victim].status == starfish_daemon::config::CfgNodeStatus::Dead
        })
        .unwrap();
    }
    cluster.restart_node(victim).unwrap();
    stop.store(true, Ordering::Relaxed);
    for r in [0, 1] {
        let out = cluster.wait_outputs(app, Rank(r), 3, T).unwrap();
        let views = vec![
            CkptValue::IntArray(vec![0, 1, 2]),
            CkptValue::IntArray(vec![0, 1]),
            CkptValue::Str("end".into()),
        ];
        assert_eq!(out, views, "rank {r}");
    }
}

/// One lightweight view per change of the group's node set, to each local
/// rank: a Restart-policy job of three ranks on n0..n2 of four nodes loses
/// n1, so the group becomes {n0, n2} (two ranks told) and, once rank 1 is
/// respawned on n3, {n0, n2, n3} (three ranks told) — five in all.
#[test]
fn a_restart_sends_one_lightweight_view_per_node_set_change() {
    use starfish_util::trace::{MsgClass, TraceSink};
    use std::sync::atomic::AtomicBool;
    let trace = TraceSink::enabled();
    let cluster = Cluster::builder()
        .nodes(4)
        .trace(trace.clone())
        .build()
        .unwrap();
    let stop = std::sync::Arc::new(AtomicBool::new(false));
    register_view_log(&cluster, &stop);
    let app = cluster.submit("views", 3, SubmitOpts::default()).unwrap();
    let placement = cluster.config().apps[&app].placement.clone();
    assert_eq!(placement, vec![NodeId(0), NodeId(1), NodeId(2)]);
    let daemons: Vec<_> = (0..4)
        .map(|n| cluster.daemon_of(NodeId(n)).unwrap())
        .collect();
    for d in &daemons {
        d.wait_config(T, |c| c.apps.contains_key(&app)).unwrap();
    }
    let before = trace.count(MsgClass::LwMembership);
    cluster.crash_node(NodeId(1));
    for d in daemons.iter().filter(|d| d.node() != NodeId(1)) {
        d.wait_config(T, |c| c.apps[&app].epoch.0 == 1).unwrap();
    }
    let sent = trace.count(MsgClass::LwMembership) - before;
    assert_eq!(cluster.config().apps[&app].placement[1], NodeId(3));
    assert_eq!(sent, 2 + 3);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    cluster.wait_app_done(app, T).unwrap();
}
