//! Telemetry end to end: a full application lifecycle (checkpoint, injected
//! failure, recovery) must leave the cluster-wide stats hub populated, the
//! three introspection commands (`STATS`, `HEALTH`, `TIMELINE`) must render
//! real data, and the message-class counters behind `STATS` must agree with
//! the Table 1 trace audit — both feed off the same accounting channel.

use std::time::Duration;

use starfish::{CkptValue, Cluster, FtPolicy, Rank, ReduceOp, SubmitOpts};
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
/// checkpoint rounds than the message ring holds — and more collective
/// calls, each leaving `coll.*` spans, than the phase ring holds events —
/// `TIMELINE` still shows both rounds, each with the index it committed.
#[test]
fn timeline_keeps_checkpoint_rounds_across_message_ring_eviction() {
    const RING: usize = 64;
    const SENDS: u64 = 4 * RING as u64;
    // A reduce+bcast allreduce records 2 spans = 4 events; the phase ring
    // holds 1024.
    const ALLREDUCES: usize = 600;
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
        for _ in 0..ALLREDUCES {
            ctx.allreduce_f64(&[1.0], ReduceOp::Sum)?;
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

/// The cluster path runs the library's collectives with its algorithms
/// pinned (`ctx.rs`: reduce+bcast, binomial, gather+bcast). Each collective
/// issued through `Ctx` at 4 ranks must put exactly the messages of those
/// trees on the wire, and the job's `STATS` must carry the library's
/// `coll.*` accounting of them — so pointing the cluster path at the
/// selector (8 instead of 6 messages per allreduce) cannot happen silently.
#[test]
fn ctx_collectives_pin_message_counts_and_coll_telemetry() {
    const N: usize = 4;
    type Op = fn(&mut starfish::Ctx<'_>) -> starfish::Result<()>;
    // (name, data messages over all ranks, payload bytes over all ranks)
    let ops: [(&str, u64, u64, Op); 9] = [
        ("barrier", 8, 0, |c| c.barrier()),
        ("bcast", 3, 3 * 16, |c| {
            c.bcast(Rank(0), vec![7; 16]).map(drop)
        }),
        ("reduce", 3, 3 * 16, |c| {
            c.reduce_f64(Rank(0), &[1.0, 2.0], ReduceOp::Sum).map(drop)
        }),
        ("allreduce", 6, 6 * 16, |c| {
            c.allreduce_f64(&[1.0, 2.0], ReduceOp::Sum).map(drop)
        }),
        ("gather", 3, 3 * 4, |c| c.gather(Rank(0), &[1; 4]).map(drop)),
        ("scatter", 3, 3 * 4, |c| {
            let blobs = (c.rank() == Rank(0)).then(|| vec![vec![1; 4]; N]);
            c.scatter(Rank(0), blobs).map(drop)
        }),
        // 3 blobs in, then 3 copies of the frame `count, (len, blob) * 4`.
        ("allgather", 6, 3 * 4 + 3 * (4 + N as u64 * 8), |c| {
            c.allgather(&[1; 4]).map(drop)
        }),
        ("alltoall", 12, 12 * 4, |c| {
            c.alltoall(&vec![vec![1; 4]; N]).map(drop)
        }),
        ("scan", 3, 3 * 8, |c| {
            c.scan_i64(&[1], ReduceOp::Sum).map(drop)
        }),
    ];

    let cluster = Cluster::builder().nodes(2).build().unwrap();
    // The ranks are threads of this process: a std barrier fences each
    // collective, and rank 0 reads the cluster's data-message counter while
    // everyone stands still (a sender counts its message before `send`
    // returns).
    let fence = std::sync::Arc::new(std::sync::Barrier::new(N));
    let infra = cluster.metrics().clone();
    cluster.register_app("pinned", move |ctx| {
        let mut marks = Vec::new();
        for op in ops.iter().map(|o| Some(o.3)).chain([None]) {
            fence.wait();
            if ctx.rank() == Rank(0) {
                marks.push(infra.snapshot().counter(metric::MSG_COUNT_DATA) as i64);
            }
            fence.wait();
            if let Some(op) = op {
                op(ctx)?;
            }
        }
        for w in marks.windows(2) {
            ctx.publish(CkptValue::Int(w[1] - w[0]));
        }
        Ok(())
    });
    let app = cluster
        .submit(
            "pinned",
            N as u32,
            SubmitOpts::default().policy(FtPolicy::Kill),
        )
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();

    let counted = cluster.outputs(app, Rank(0));
    for ((name, msgs, _, _), got) in ops.iter().zip(&counted) {
        assert_eq!(got, &CkptValue::Int(*msgs as i64), "{name}: data messages");
    }
    assert_eq!(counted.len(), ops.len());

    // Each rank's registry reaches the hub by an ordered cast as it exits.
    let hub = cluster.stats();
    let deadline = std::time::Instant::now() + T;
    while hub.scopes().iter().filter(|s| s.contains(".r")).count() < N {
        assert!(
            std::time::Instant::now() < deadline,
            "rank stats never landed"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut s = cluster.session();
    ok(&s.handle_line("LOGIN USER tess"));
    let stats = ok(&s.handle_line("STATS")).to_string();
    let bytes: u64 = ops.iter().map(|o| o.2).sum();
    for want in [
        // One call per rank; bcast also serves allreduce and allgather.
        format!("coll.algo.allreduce.reduce-bcast {N}"),
        format!("coll.algo.allgather.gather-bcast {N}"),
        format!("coll.algo.bcast.binomial {}", 3 * N),
        format!("coll.bytes_moved {bytes}B"),
    ] {
        assert!(
            stats.lines().any(|l| l == want),
            "STATS lacks `{want}`: {stats}"
        );
    }
    // Nothing the selector would have picked, no segmented phase.
    assert_eq!(stats.matches("coll.algo.").count(), 3, "{stats}");
    assert!(!stats.contains("coll.segments"), "{stats}");
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
