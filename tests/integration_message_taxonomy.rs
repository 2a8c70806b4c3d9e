//! Table 1 audit: run a full application lifecycle (submission, data
//! exchange, coordination, checkpoint, membership change) with the trace
//! enabled and verify every message class appears, each only on its
//! sanctioned path.

use std::time::Duration;

use starfish::{CkptValue, Cluster, Rank, SubmitOpts};
use starfish_util::trace::{ActorKind, MsgClass, TraceSink};

const T: Duration = Duration::from_secs(90);

#[test]
fn all_six_message_classes_on_their_sanctioned_paths() {
    let trace = TraceSink::enabled();
    let cluster = Cluster::builder()
        .nodes(3)
        .trace(trace.clone())
        .build()
        .unwrap();

    cluster.register_app("everything", |ctx| {
        let me = ctx.rank().0;
        let state = CkptValue::Int(me as i64);
        // Data messages on the fast path.
        if me == 0 {
            ctx.send(Rank(1), 1, b"data")?;
        } else if me == 1 {
            ctx.recv(Some(Rank(0)), Some(1))?;
        }
        // A coordination broadcast through the daemons.
        if me == 0 {
            ctx.coord_cast(bytes::Bytes::from_static(b"coordinate!"))?;
        }
        // A coordinated checkpoint (C/R messages through the daemons,
        // flush marks on the data path).
        ctx.checkpoint(&state)?;
        // Spin long enough for the injected crash to arrive.
        for _ in 0..200 {
            ctx.safepoint(&state)?;
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    });

    let app = cluster
        .submit("everything", 2, SubmitOpts::default())
        .unwrap();
    // Wait for the checkpoint, then crash the spare node to produce
    // lightweight membership traffic.
    let deadline = std::time::Instant::now() + T;
    while cluster
        .store()
        .latest_common_index(app, &[Rank(0), Rank(1)])
        < 1
    {
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(Duration::from_millis(5));
    }
    // Administrative actions produce Configuration-class messages.
    cluster.suspend(app).unwrap();
    cluster
        .wait_app(app, T, |a| a.status == starfish::AppStatus::Suspended)
        .unwrap();
    cluster.resume(app).unwrap();
    cluster
        .wait_app(app, T, |a| a.status == starfish::AppStatus::Running)
        .unwrap();
    let placement = cluster.config().apps[&app].placement.clone();
    let idle = (0..3)
        .map(starfish::NodeId)
        .find(|n| !placement.contains(n))
        .expect("a node without app processes");
    cluster.crash_node(idle);
    std::thread::sleep(Duration::from_millis(400));

    // --- the audit ------------------------------------------------------------
    for class in MsgClass::ALL {
        assert!(
            trace.count(class) > 0,
            "message class {class:?} never observed; counts: {:?}",
            MsgClass::ALL
                .iter()
                .map(|c| (c.name(), trace.count(*c)))
                .collect::<Vec<_>>()
        );
    }

    // Sanctioned paths, per Table 1.
    for (from, to, path) in trace.paths_for(MsgClass::Control) {
        assert_eq!((from, to), (ActorKind::Daemon, ActorKind::Daemon));
        assert_eq!(path, "ensemble");
    }
    for (from, to, path) in trace.paths_for(MsgClass::Data) {
        assert_eq!((from, to), (ActorKind::AppProcess, ActorKind::AppProcess));
        assert!(
            path == "fast-path" || path == "data-path-mark",
            "data message on unexpected path {path}"
        );
    }
    for (from, to, _) in trace.paths_for(MsgClass::Coordination) {
        assert!(
            (from, to) == (ActorKind::AppProcess, ActorKind::Daemon)
                || (from, to) == (ActorKind::Daemon, ActorKind::AppProcess),
            "coordination messages travel only via daemons"
        );
    }
    for (from, to, _) in trace.paths_for(MsgClass::CheckpointRestart) {
        assert!(
            (from, to) == (ActorKind::AppProcess, ActorKind::Daemon)
                || (from, to) == (ActorKind::Daemon, ActorKind::AppProcess),
            "C/R messages travel only via daemons"
        );
    }
    for (from, to, path) in trace.paths_for(MsgClass::LwMembership) {
        assert_eq!((from, to), (ActorKind::Daemon, ActorKind::AppProcess));
        assert_eq!(path, "local-tcp");
    }
    for (from, to, path) in trace.paths_for(MsgClass::Configuration) {
        assert_eq!((from, to), (ActorKind::Daemon, ActorKind::AppProcess));
        assert_eq!(path, "local-tcp");
    }
    // Data never crosses the daemon boundary: the fast path exists.
    assert!(
        !trace
            .paths_for(MsgClass::Data)
            .iter()
            .any(|(f, t, _)| *f == ActorKind::Daemon || *t == ActorKind::Daemon),
        "data messages must never be relayed by daemons"
    );
}

#[test]
fn coordination_messages_reach_other_ranks() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("coorded", |ctx| {
        let me = ctx.rank().0;
        let state = CkptValue::Unit;
        if me == 0 {
            ctx.coord_cast(bytes::Bytes::from_static(b"rebalance"))?;
            ctx.publish(CkptValue::Bool(true));
        } else {
            for _ in 0..500 {
                ctx.safepoint(&state)?;
                if let Some((from, body)) = ctx.take_coord()? {
                    assert_eq!(from, Rank(0));
                    assert_eq!(&body[..], b"rebalance");
                    ctx.publish(CkptValue::Bool(true));
                    return Ok(());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            panic!("coordination message never arrived");
        }
        Ok(())
    });
    let app = cluster.submit("coorded", 2, SubmitOpts::default()).unwrap();
    cluster.wait_outputs(app, Rank(1), 1, T).unwrap();
}
