//! The ASCII management/user protocol driving the real cluster (paper
//! §3.1.1): the protocol commands must actually start, steer and stop
//! application processes.

use std::time::Duration;

use starfish::{AppStatus, CkptValue, Cluster, Rank};

const T: Duration = Duration::from_secs(60);

fn ok(resp: &str) -> &str {
    assert!(resp.starts_with("OK"), "expected OK, got: {resp}");
    resp
}

#[test]
fn submission_via_protocol_actually_runs_the_program() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("protojob", |ctx| {
        ctx.publish(CkptValue::Int(ctx.rank().0 as i64 * 10));
        Ok(())
    });
    let mut s = cluster.session();
    ok(&s.handle_line("LOGIN USER dana"));
    let resp = s.handle_line("SUBMIT protojob 2 POLICY kill");
    ok(&resp);
    // "OK submitted appN size 2"
    let id_tok = resp.split_whitespace().nth(2).unwrap();
    let id = starfish::AppId(id_tok.trim_start_matches("app").parse().unwrap());
    cluster.wait_app_done(id, T).unwrap();
    assert_eq!(cluster.outputs(id, Rank(1)), vec![CkptValue::Int(10)]);
}

#[test]
fn checkpoint_command_triggers_a_real_round() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("ckptable", |ctx| {
        let state = CkptValue::Int(5);
        for _ in 0..500 {
            ctx.safepoint(&state)?;
            std::thread::sleep(Duration::from_millis(2));
            if ctx.last_checkpoint_index() > 0 {
                break;
            }
        }
        ctx.barrier()?;
        Ok(())
    });
    let mut s = cluster.session();
    ok(&s.handle_line("LOGIN USER erin"));
    let resp = s.handle_line("SUBMIT ckptable 2");
    let id_tok = resp.split_whitespace().nth(2).unwrap().to_string();
    std::thread::sleep(Duration::from_millis(80));
    ok(&s.handle_line(&format!("CHECKPOINT {id_tok}")));
    let id = starfish::AppId(id_tok.trim_start_matches("app").parse().unwrap());
    cluster.wait_app_done(id, T).unwrap();
    assert_eq!(cluster.store().latest_index(id, Rank(0)), 1);
}

#[test]
fn suspend_resume_delete_via_protocol() {
    let cluster = Cluster::builder().nodes(1).build().unwrap();
    cluster.register_app("steerable", |ctx| {
        let state = CkptValue::Unit;
        loop {
            ctx.safepoint(&state)?;
            std::thread::sleep(Duration::from_millis(2));
        }
    });
    let mut s = cluster.session();
    ok(&s.handle_line("LOGIN USER finn"));
    let resp = s.handle_line("SUBMIT steerable 1");
    let id_tok = resp.split_whitespace().nth(2).unwrap().to_string();
    let id = starfish::AppId(id_tok.trim_start_matches("app").parse().unwrap());

    ok(&s.handle_line(&format!("SUSPEND {id_tok}")));
    cluster
        .wait_app(id, T, |a| a.status == AppStatus::Suspended)
        .unwrap();
    ok(&s.handle_line(&format!("RESUME {id_tok}")));
    cluster
        .wait_app(id, T, |a| a.status == AppStatus::Running)
        .unwrap();
    ok(&s.handle_line(&format!("DELETE {id_tok}")));
    cluster
        .wait_app(id, T, |a| a.status == AppStatus::Killed)
        .unwrap();
}

/// A deleted app leaves nothing in the checkpoint store: its images and
/// its dependency log go with it.
#[test]
fn delete_prunes_the_app_from_the_store() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("pruned", |ctx| {
        let state = CkptValue::Unit;
        ctx.checkpoint(&state)?;
        if ctx.rank().0 == 0 {
            ctx.send(Rank(1), 1, b"dep")?;
        } else {
            ctx.recv(Some(Rank(0)), Some(1))?;
        }
        loop {
            ctx.safepoint(&state)?;
            std::thread::sleep(Duration::from_millis(2));
        }
    });
    let mut s = cluster.session();
    ok(&s.handle_line("LOGIN USER gale"));
    let resp = s.handle_line("SUBMIT pruned 2 PROTO indep");
    let id_tok = resp.split_whitespace().nth(2).unwrap().to_string();
    let id = starfish::AppId(id_tok.trim_start_matches("app").parse().unwrap());
    let ranks = [Rank(0), Rank(1)];
    cluster.store().wait_common_index(id, &ranks, 0, T).unwrap();
    let deadline = std::time::Instant::now() + T;
    while cluster.store().deps(id).is_empty() {
        assert!(std::time::Instant::now() < deadline, "no dependency logged");
        std::thread::sleep(Duration::from_millis(2));
    }
    ok(&s.handle_line(&format!("DELETE {id_tok}")));
    cluster
        .wait_app(id, T, |a| a.status == AppStatus::Killed)
        .unwrap();
    for rank in ranks {
        assert_eq!(cluster.store().latest_index(id, rank), 0);
    }
    assert!(cluster.store().deps(id).is_empty());
}

#[test]
fn nodes_and_apps_reports_reflect_cluster_state() {
    let cluster = Cluster::builder().node_archs(&[0, 1]).build().unwrap();
    cluster.register_app("visible", |ctx| {
        let state = CkptValue::Unit;
        for _ in 0..200 {
            ctx.safepoint(&state)?;
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    });
    let mut s = cluster.session();
    ok(&s.handle_line("LOGIN ADMIN starfish"));
    let nodes = s.handle_line("NODES");
    assert!(nodes.contains("n0") && nodes.contains("n1"), "{nodes}");
    assert!(
        nodes.contains("SunOS"),
        "heterogeneous arch listed: {nodes}"
    );
    let resp = s.handle_line("SUBMIT visible 2");
    ok(&resp);
    std::thread::sleep(Duration::from_millis(50));
    let apps = s.handle_line("APPS");
    assert!(apps.contains("visible"), "{apps}");
    assert!(apps.contains("placement=["), "{apps}");
}

#[test]
fn admin_survives_contacting_any_daemon() {
    // Sessions work against every daemon, and the replicated state is the
    // same from each (paper §3.1.1: "connect to one of the daemons").
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    let mut s0 = starfish::MgmtSession::connect(cluster.daemon_of(starfish::NodeId(0)).unwrap(), 1);
    let mut s2 = starfish::MgmtSession::connect(cluster.daemon_of(starfish::NodeId(2)).unwrap(), 2);
    ok(&s0.handle_line("LOGIN ADMIN starfish"));
    ok(&s2.handle_line("LOGIN ADMIN starfish"));
    ok(&s0.handle_line("SET flavor vanilla"));
    cluster
        .daemon_of(starfish::NodeId(2))
        .unwrap()
        .wait_config(T, |c| {
            c.params.get("flavor").map(String::as_str) == Some("vanilla")
        })
        .unwrap();
    let nodes = s2.handle_line("NODES");
    assert!(nodes.contains("n0") && nodes.contains("n1") && nodes.contains("n2"));
}

#[test]
fn client_reconnects_after_contact_daemon_crashes() {
    // §3.1.3: "if the client reconnects to the system, he/she can continue
    // the disrupted session" — new session against a surviving daemon sees
    // the same replicated state.
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    let mut s = cluster.session();
    ok(&s.handle_line("LOGIN ADMIN starfish"));
    ok(&s.handle_line("SET color green"));
    cluster
        .daemon()
        .wait_config(T, |c| c.params.contains_key("color"))
        .unwrap();
    cluster.crash_node(cluster.daemon().node());
    std::thread::sleep(Duration::from_millis(300));
    // Reconnect to a survivor; the parameter survived.
    let mut s2 = cluster.session();
    ok(&s2.handle_line("LOGIN ADMIN starfish"));
    let _ = s2.handle_line("NODES");
    let cfg = cluster.config();
    assert_eq!(cfg.params.get("color").map(String::as_str), Some("green"));
}

#[test]
fn migrate_command_moves_a_rank() {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    cluster.register_app("roamer", |ctx| {
        let state = CkptValue::Unit;
        for _ in 0..300 {
            ctx.safepoint(&state)?;
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    });
    let mut s = cluster.session();
    ok(&s.handle_line("LOGIN ADMIN starfish"));
    let resp = s.handle_line("SUBMIT roamer 2");
    ok(&resp);
    let id_tok = resp.split_whitespace().nth(2).unwrap().to_string();
    let id = starfish::AppId(id_tok.trim_start_matches("app").parse().unwrap());
    std::thread::sleep(Duration::from_millis(80));
    let entry = cluster.config().apps[&id].clone();
    let target = (0..3)
        .map(starfish::NodeId)
        .find(|n| !entry.placement.contains(n))
        .expect("free node");
    let resp = s.handle_line(&format!("MIGRATE {id_tok} r1 {target}"));
    ok(&resp);
    cluster
        .wait_app(id, T, |a| a.placement[1] == target && a.epoch.0 == 1)
        .unwrap();
    // Users may not migrate.
    let mut u = cluster.session();
    ok(&u.handle_line("LOGIN USER zoe"));
    assert!(u
        .handle_line(&format!("MIGRATE {id_tok} r0 n0"))
        .starts_with("ERR admin"));
}

/// The ISSUE-8 acceptance path: an `EVENTS SUBSCRIBE` stream opened before
/// a node kill must deliver the same event sequence the recovery's
/// postmortem bundle embeds — the live view and the forensic record are two
/// projections of one ordered bus.
#[test]
fn events_subscribe_stream_matches_postmortem_bundle() {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    cluster.register_app("forensic", |ctx| {
        let mut iter = ctx
            .restored()
            .and_then(|v| v.field("iter").and_then(|f| f.as_int()))
            .unwrap_or(0);
        while iter < 200 {
            let state = CkptValue::record(vec![("iter", CkptValue::Int(iter))]);
            if iter == 5 && ctx.rank().0 == 0 {
                ctx.checkpoint(&state)?;
            } else {
                ctx.safepoint(&state)?;
            }
            std::thread::sleep(Duration::from_millis(8));
            ctx.barrier()?;
            iter += 1;
        }
        Ok(())
    });
    let app = cluster
        .submit("forensic", 3, starfish::SubmitOpts::default().replica(2))
        .unwrap();
    let ranks = [Rank(0), Rank(1), Rank(2)];
    let deadline = std::time::Instant::now() + T;
    while cluster.store().latest_common_index(app, &ranks) < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "no replica checkpoint"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Stream from the n0 daemon (sessions bind to the first live daemon);
    // kill a different node so the subscription survives the crash.
    let mut s = cluster.session();
    ok(&s.handle_line("LOGIN USER watcher"));
    ok(&s.handle_line("EVENTS SUBSCRIBE"));
    let victim = *cluster.config().apps[&app]
        .placement
        .iter()
        .find(|n| n.0 != 0)
        .expect("a rank off n0");
    cluster.crash_node(victim);

    let mut streamed: Vec<String> = Vec::new();
    let deadline = std::time::Instant::now() + T;
    'stream: while std::time::Instant::now() < deadline {
        for frame in s.poll_frames() {
            assert!(
                !frame.starts_with("EVENT! missed"),
                "bus wrapped under test load: {frame}"
            );
            let done = frame.contains("recovery-complete");
            streamed.push(frame.trim_start_matches("EVENT ").to_string());
            if done {
                break 'stream;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        streamed.iter().any(|f| f.contains("recovery-complete")),
        "recovery never completed on the stream: {streamed:?}"
    );

    // The bundle (finalized on the same daemon, microseconds after the
    // complete event hit the bus).
    let deadline = std::time::Instant::now() + T;
    let pm = loop {
        if let Some(pm) = cluster.postmortem(app) {
            break pm;
        }
        assert!(std::time::Instant::now() < deadline, "no postmortem bundle");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert!(!pm.events.is_empty(), "bundle embeds no events");

    // Every bundle event must appear in the stream, in the same order and
    // with the same seq/vt/origin/detail (summary is the full projection).
    let mut at = 0usize;
    for ev in &pm.events {
        let want = ev.summary();
        match streamed[at..].iter().position(|f| *f == want) {
            Some(off) => at += off + 1,
            None => panic!("bundle event {want:?} missing from stream {streamed:?}"),
        }
    }
    cluster.wait_app_done(app, T).unwrap();
}
