//! Telemetry end to end: a full application lifecycle (checkpoint, injected
//! failure, recovery) must leave the cluster-wide stats hub populated, the
//! three introspection commands (`STATS`, `HEALTH`, `TIMELINE`) must render
//! real data, and the message-class counters behind `STATS` must agree with
//! the Table 1 trace audit — both feed off the same accounting channel.

use std::time::Duration;

use starfish::{CkptValue, Cluster, Rank, SubmitOpts};
use starfish_telemetry::metric;
use starfish_util::trace::{MsgClass, TraceSink};

const T: Duration = Duration::from_secs(90);

fn ok(resp: &str) -> &str {
    assert!(resp.starts_with("OK"), "expected OK, got: {resp}");
    resp
}

/// Iterative app that checkpoints midway, so a later crash restarts it from
/// the image rather than from scratch.
fn iterative(ctx: &mut starfish::Ctx<'_>, iters: i64) -> starfish::Result<()> {
    let mut iter = match ctx.restored() {
        Some(v) => v.field("iter").and_then(|f| f.as_int()).unwrap_or(0),
        None => 0,
    };
    while iter < iters {
        let state = CkptValue::record(vec![("iter", CkptValue::Int(iter))]);
        if iter == 3 {
            ctx.checkpoint(&state)?;
        } else {
            ctx.safepoint(&state)?;
        }
        std::thread::sleep(Duration::from_millis(8));
        ctx.barrier()?;
        iter += 1;
    }
    Ok(())
}

fn wait_ckpt(cluster: &Cluster, app: starfish::AppId, ranks: u32, index: u64) {
    let rs: Vec<Rank> = (0..ranks).map(Rank).collect();
    let deadline = std::time::Instant::now() + T;
    while cluster.store().latest_common_index(app, &rs) < index {
        assert!(
            std::time::Instant::now() < deadline,
            "checkpoint {index} never appeared"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn stats_health_timeline_populated_through_checkpoint_and_failure() {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    cluster.register_app("observed", |ctx| iterative(ctx, 20));
    let app = cluster
        .submit("observed", 3, SubmitOpts::default())
        .unwrap();
    wait_ckpt(&cluster, app, 3, 1);
    // Inject a failure on a node that hosts a rank (never the contact node
    // the management session will attach to).
    let victim = *cluster.config().apps[&app]
        .placement
        .iter()
        .rev()
        .find(|n| n.0 != 0)
        .expect("a victim node other than node 0");
    cluster.crash_node(victim);
    cluster.wait_app_done(app, T).unwrap();
    // Let the final snapshot casts drain through the ensemble.
    std::thread::sleep(Duration::from_millis(300));

    let mut s = cluster.session();
    ok(&s.handle_line("LOGIN USER tess"));

    // STATS: the merged cluster view must carry real measurements from
    // every layer that participated in the run.
    let stats = ok(&s.handle_line("STATS")).to_string();
    assert!(
        !stats.contains("(no data)"),
        "stats should be populated: {stats}"
    );
    for needle in [
        "mpi.send_path_ns",  // MPI fast path histograms
        "layer.app_to_mpi",  // Figure 6 layer costs
        "ckpt.rounds",       // checkpoint protocol
        "ckpt.image_bytes",  // image sizes
        "recovery.restarts", // the injected failure
        "vni.packets",       // fabric accounting
        "msg.count.data",    // Table 1 taxonomy
    ] {
        assert!(stats.contains(needle), "STATS missing {needle}: {stats}");
    }

    // HEALTH: node statuses plus liveness counters; the injected failure
    // must be visible both as a non-Up node and as recovery activity.
    let health = ok(&s.handle_line("HEALTH")).to_string();
    assert!(health.contains(&format!("{victim}")), "{health}");
    assert!(health.contains("procs.running"), "{health}");
    let restarts: u64 = health
        .lines()
        .find_map(|l| l.strip_prefix("recovery.restarts "))
        .expect("recovery.restarts line")
        .trim()
        .parse()
        .unwrap();
    assert!(restarts >= 1, "expected at least one restart: {health}");
    let rounds: u64 = health
        .lines()
        .find_map(|l| l.strip_prefix("ckpt.rounds "))
        .expect("ckpt.rounds line")
        .trim()
        .parse()
        .unwrap();
    assert!(rounds >= 1, "expected at least one round: {health}");

    // TIMELINE: the app's spans must cover both the checkpoint round and
    // the recovery that followed the crash.
    let tl = ok(&s.handle_line(&format!("TIMELINE {app}"))).to_string();
    assert!(
        tl.contains("ckpt.write"),
        "timeline missing ckpt.write: {tl}"
    );
    assert!(
        tl.contains("ckpt.round"),
        "timeline missing ckpt.round: {tl}"
    );
    assert!(
        tl.contains("recovery.restore"),
        "timeline missing recovery.restore: {tl}"
    );
}

/// Traffic must not evict structure: with far more sends between two
/// checkpoint rounds than the message ring holds, `TIMELINE` still shows
/// both rounds, each with the index it committed.
#[test]
fn timeline_keeps_checkpoint_rounds_across_message_ring_eviction() {
    const RING: usize = 64;
    const SENDS: u64 = 4 * RING as u64;
    let cluster = Cluster::builder()
        .nodes(2)
        .flight_recorder(RING)
        .build()
        .unwrap();
    cluster.register_app("chatty", |ctx| {
        let state = CkptValue::Int(0);
        ctx.barrier()?;
        ctx.checkpoint(&state)?;
        for i in 0..SENDS {
            if ctx.rank().0 == 0 {
                ctx.send(Rank(1), 7, &i.to_le_bytes())?;
            } else {
                ctx.recv(Some(Rank(0)), Some(7))?;
            }
        }
        ctx.barrier()?;
        ctx.checkpoint(&state)?;
        Ok(())
    });
    let app = cluster.submit("chatty", 2, SubmitOpts::default()).unwrap();
    cluster.wait_app_done(app, T).unwrap();

    for rank in 0..2 {
        let rec = cluster
            .trace_hub()
            .get(&format!("{app}.r{rank}"))
            .expect("rank recorder");
        assert!(
            rec.dropped() >= SENDS - RING as u64,
            "the message ring must have overflowed (dropped {})",
            rec.dropped()
        );
    }
    let mut s = cluster.session();
    ok(&s.handle_line("LOGIN USER tess"));
    let tl = ok(&s.handle_line(&format!("TIMELINE {app}"))).to_string();
    // The coordinator always closes its round; a member that exits right
    // after its last checkpoint may never hear the resume, so one line per
    // round is the deterministic floor.
    for index in [1, 2] {
        assert!(
            tl.lines()
                .any(|l| l.starts_with(&format!("ckpt.round index {index} "))),
            "timeline lost ckpt.round index {index}: {tl}"
        );
    }
}

#[test]
fn stats_message_class_counters_match_trace_audit() {
    let trace = TraceSink::enabled();
    let cluster = Cluster::builder()
        .nodes(3)
        .trace(trace.clone())
        .build()
        .unwrap();
    cluster.register_app("audited", |ctx| {
        let me = ctx.rank().0;
        let state = CkptValue::Int(me as i64);
        if me == 0 {
            ctx.send(Rank(1), 1, b"data")?;
            ctx.coord_cast(bytes::Bytes::from_static(b"coordinate!"))?;
        } else {
            ctx.recv(Some(Rank(0)), Some(1))?;
        }
        ctx.checkpoint(&state)?;
        for _ in 0..150 {
            ctx.safepoint(&state)?;
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    });
    let app = cluster.submit("audited", 2, SubmitOpts::default()).unwrap();
    wait_ckpt(&cluster, app, 2, 1);
    // Administrative suspend/resume produces Configuration-class traffic.
    cluster.suspend(app).unwrap();
    cluster
        .wait_app(app, T, |a| a.status == starfish::AppStatus::Suspended)
        .unwrap();
    cluster.resume(app).unwrap();
    cluster
        .wait_app(app, T, |a| a.status == starfish::AppStatus::Running)
        .unwrap();
    // Crash the idle node for lightweight-membership traffic, then let the
    // app run to completion so its final snapshot flush (and the daemon's
    // piggybacked infrastructure snapshot) reaches every stats hub.
    let placement = cluster.config().apps[&app].placement.clone();
    let idle = (0..3)
        .map(starfish::NodeId)
        .find(|n| !placement.contains(n))
        .expect("an idle node");
    cluster.crash_node(idle);
    cluster.wait_app_done(app, T).unwrap();
    std::thread::sleep(Duration::from_millis(300));

    // The live registry and the trace sink are fed by the same hook, so for
    // every class that has quiesced they agree exactly. (Control traffic —
    // daemon heartbeats — never quiesces, so it gets a lower bound.)
    let reg = cluster.metrics();
    for class in [
        MsgClass::Data,
        MsgClass::Coordination,
        MsgClass::LwMembership,
        MsgClass::CheckpointRestart,
    ] {
        assert_eq!(
            reg.counter(metric::msg_count(class)),
            trace.count(class),
            "count mismatch for {class:?}"
        );
        assert_eq!(
            reg.counter(metric::msg_bytes(class)),
            trace.bytes(class),
            "bytes mismatch for {class:?}"
        );
    }
    assert!(reg.counter(metric::msg_count(MsgClass::Control)) > 0);

    // The STATS view is the snapshot shipped at the last flush: a consistent
    // prefix of the live audit — populated for every class, never ahead of
    // the trace.
    let mut s = cluster.session();
    ok(&s.handle_line("LOGIN USER audra"));
    let stats = ok(&s.handle_line("STATS")).to_string();
    for class in MsgClass::ALL {
        let name = metric::msg_count(class).name();
        let shipped: u64 = stats
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{name} ")))
            .unwrap_or_else(|| panic!("STATS missing {name}: {stats}"))
            .trim()
            .parse()
            .unwrap();
        assert!(shipped > 0, "{name} empty in STATS");
        assert!(
            shipped <= trace.count(class),
            "{name}: STATS value {shipped} ahead of audit {}",
            trace.count(class)
        );
    }
}
