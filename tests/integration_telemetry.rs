//! Telemetry end to end: a full application lifecycle (checkpoint, injected
//! failure, recovery) must leave the cluster-wide stats hub populated, the
//! three introspection commands (`STATS`, `HEALTH`, `TIMELINE`) must render
//! real data, and the message-class counters behind `STATS` must agree with
//! the Table 1 trace audit — both feed off the same accounting channel.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use starfish::{CkptValue, Cluster, FtPolicy, NodeId, Rank, ReduceOp, SubmitOpts};
use starfish_telemetry::metric;
use starfish_trace::{reassemble, EventKind};
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

/// Traffic must not evict structure: with far more collective calls
/// between two checkpoint rounds, each leaving a `coll.*` span in the
/// message ring, than the message ring — or the phase ring — holds events,
/// and sends around them (sampled one root in 64), `TIMELINE` still shows
/// both rounds, each with the index it committed.
#[test]
fn timeline_keeps_checkpoint_rounds_across_message_ring_eviction() {
    const RING: usize = 64;
    const SENDS: u64 = 4 * RING as u64;
    // A reduce+bcast allreduce records 1 span = 2 events; the phase ring
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
            rec.dropped() >= 2 * ALLREDUCES as u64 - RING as u64,
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
/// A 256 KiB allreduce is under `DEFAULT_RNDV_THRESHOLD`: its six hops leave
/// eager, with no RTS ahead of them.
#[test]
fn ctx_collectives_pin_message_counts_and_coll_telemetry() {
    const N: usize = 4;
    const BIG: usize = 256 * 1024;
    const _: () = assert!(BIG < starfish_mpi::DEFAULT_RNDV_THRESHOLD);
    type Op = fn(&mut starfish::Ctx<'_>) -> starfish::Result<()>;
    // (name, data messages over all ranks, payload bytes over all ranks)
    let ops: [(&str, u64, u64, Op); 10] = [
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
        ("allreduce 256 KiB", 6, 6 * BIG as u64, |c| {
            c.allreduce_f64(&vec![1.0; BIG / 8], ReduceOp::Sum)
                .map(drop)
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
        // One call per rank; bcast also serves allgather. An allreduce's
        // bcast inside each half is its own step, not a bcast call.
        format!("coll.algo.allreduce.reduce-bcast {}", 2 * N),
        format!("coll.algo.allgather.gather-bcast {N}"),
        format!("coll.algo.bcast.binomial {}", 2 * N),
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

/// A 2-rank job on `NODES` nodes that checkpoints `ROUNDS` times and holds
/// at safepoints after round `k` until the step reaches `k`.
fn held_rounds(nodes: u32, rounds: u64) -> (Cluster, starfish::AppId, Arc<AtomicU64>) {
    let cluster = Cluster::builder().nodes(nodes).build().unwrap();
    let step = Arc::new(AtomicU64::new(0));
    let released = step.clone();
    cluster.register_app("rounds", move |ctx| {
        let state = CkptValue::Unit;
        for round in 1..=rounds {
            ctx.checkpoint(&state)?;
            while released.load(Ordering::SeqCst) < round {
                ctx.safepoint(&state)?;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Ok(())
    });
    let app = cluster.submit("rounds", 2, SubmitOpts::default()).unwrap();
    (cluster, app, step)
}

/// Every daemon of `cluster`.
fn daemons(cluster: &Cluster, nodes: u32) -> Vec<starfish_daemon::Daemon> {
    (0..nodes)
        .map(|n| cluster.daemon_of(NodeId(n)).unwrap())
        .collect()
}

/// Wait until every hub in `daemons` passes `flushed`.
fn await_hubs(
    daemons: &[starfish_daemon::Daemon],
    what: &str,
    flushed: impl Fn(&starfish_daemon::StatsHub) -> bool,
) {
    let deadline = std::time::Instant::now() + T;
    while !daemons.iter().all(|d| flushed(d.stats())) {
        assert!(std::time::Instant::now() < deadline, "{what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// What a stop-and-sync round costs the daemons' total order: Stop,
/// Resume, and the coordinator's `CkptCommit` event and stats flush in one
/// cast — they leave its daemon at one virtual instant. The flush carries
/// the member's snapshot too, which rode its `Saved` to the coordinator's
/// daemon: three casts, each delivered at all three daemons. The sequencer
/// delivers its own copy in place, so a cast costs two packets, and a round
/// nine: six cast deliveries, the member's `Saved` relay and the two flush
/// marks. The ranks hold at safepoints after each round until the test has
/// read the counters that round left behind.
#[test]
fn a_checkpoint_round_costs_three_ordered_casts() {
    const NODES: u32 = 3;
    const ROUNDS: u64 = 4;
    let (cluster, app, step) = held_rounds(NODES, ROUNDS);
    let daemons = daemons(&cluster, NODES);
    let mut marks = Vec::new();
    for round in 1..=ROUNDS {
        // Every daemon has applied the round's flush: both snapshots count
        // the round's image, the coordinator's the commit and its round's
        // time, the member's (taken at its `Saved`) the times of the rounds
        // before.
        await_hubs(&daemons, &format!("round {round} stats"), |hub| {
            let m = hub.merged();
            let count = |id| m.hist(id).map_or(0, |h| h.count);
            let (images, timed) = (
                count(metric::CKPT_IMAGE_BYTES),
                count(metric::CKPT_ROUND_NS),
            );
            images == 2 * round && m.counter(metric::CKPT_ROUNDS) == round && timed == 2 * round - 1
        });
        let reg = cluster.metrics();
        let (casts, packets) = (
            reg.counter(metric::ENSEMBLE_CASTS),
            reg.counter(metric::VNI_PACKETS),
        );
        let samples: Vec<usize> = daemons.iter().map(|d| d.stats().history().len()).collect();
        marks.push((casts, packets, samples));
        step.store(round, Ordering::SeqCst);
    }
    for w in marks.windows(2) {
        let ((c0, p0, h0), (c1, p1, h1)) = (&w[0], &w[1]);
        assert_eq!(c1 - c0, 3 * u64::from(NODES), "casts delivered per round");
        assert!(p1 - p0 <= 9, "{} fabric packets in a round", p1 - p0);
        for (a, b) in h0.iter().zip(h1) {
            assert_eq!(b - a, 2, "stats samples per round (one per rank)");
        }
    }
    for d in &daemons {
        let done = |c: &starfish_daemon::config::ClusterConfig| {
            c.apps.get(&app).map(|a| a.status) == Some(starfish::AppStatus::Done)
        };
        d.wait_config(T, done).unwrap();
    }
    // The member's last round time lands with its exit flush.
    await_hubs(&daemons, "exit flushes", |hub| {
        let m = hub.merged();
        let timed = m.hist(metric::CKPT_ROUND_NS).map_or(0, |h| h.count);
        m.counter(metric::CKPT_ROUNDS) == ROUNDS && timed == 2 * ROUNDS
    });
}

/// A steady round casts no stats entry of the member's own: its snapshot
/// reaches every hub in the coordinator's flush, so both ranks' scopes are
/// there once the commit is, and the round's two history points share the
/// one delivery.
#[test]
fn a_round_casts_the_members_stats_with_the_coordinators() {
    const NODES: u32 = 3;
    let (cluster, app, step) = held_rounds(NODES, 2);
    let daemons = daemons(&cluster, NODES);
    // Both ranks' snapshots of the round are in.
    let committed = |round: u64| {
        move |hub: &starfish_daemon::StatsHub| {
            let images = hub.merged().hist(metric::CKPT_IMAGE_BYTES).map(|h| h.count);
            images == Some(2 * round)
        }
    };
    await_hubs(&daemons, "round 1 stats", committed(1));
    let scopes = [format!("{app}.r0"), format!("{app}.r1"), "cluster".into()];
    let before: Vec<usize> = daemons.iter().map(|d| d.stats().history().len()).collect();
    for d in &daemons {
        assert_eq!(d.stats().scopes(), scopes, "{} hub", d.node());
    }
    let casts = cluster.metrics().counter(metric::ENSEMBLE_CASTS);
    step.store(1, Ordering::SeqCst);
    await_hubs(&daemons, "round 2 stats", committed(2));
    let round = cluster.metrics().counter(metric::ENSEMBLE_CASTS) - casts;
    assert_eq!(round, 3 * u64::from(NODES), "casts delivered in round 2");
    for (d, before) in daemons.iter().zip(before) {
        let history = d.stats().history();
        let new: Vec<_> = history[before..].iter().map(|(vt, _)| *vt).collect();
        assert_eq!(new.len(), 2, "{} hub: {new:?}", d.node());
        assert_eq!(new[0], new[1], "{} hub: one delivery", d.node());
    }
    step.store(2, Ordering::SeqCst);
    cluster.wait_app_done(app, T).unwrap();
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

/// Sampling never cuts a checkpoint round: a rank's `ckpt.round` phase
/// opens at its first flush mark, so every mark carries the phase's
/// context, and `reassemble` pairs each with its receive, though the
/// traffic between the rounds is sampled one root in 64.
#[test]
fn reassemble_pairs_every_flush_mark_of_a_round() {
    const RANKS: u32 = 3;
    const ROUNDS: usize = 3;
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    cluster.register_app("marked", |ctx| {
        let state = CkptValue::Unit;
        let next = Rank((ctx.rank().0 + 1) % RANKS);
        for _ in 0..ROUNDS {
            for i in 0..100u64 {
                ctx.send(next, 1, &i.to_le_bytes())?;
                ctx.recv(None, Some(1))?;
            }
            ctx.checkpoint(&state)?;
        }
        ctx.barrier()?;
        Ok(())
    });
    let app = cluster
        .submit("marked", RANKS, SubmitOpts::default())
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    let traces = cluster.trace_hub().dump_prefix(&format!("{app}.r"));
    let mut marks = Vec::new();
    for t in &traces {
        // A C/R mark is a send on the data path's context 0.
        let sent: Vec<u64> = t
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Send {
                    context: 0, ctx, ..
                } => Some(ctx.span),
                _ => None,
            })
            .collect();
        let announced = t
            .events
            .iter()
            .filter(|e| matches!(&e.kind, EventKind::Mark { name, .. } if name == "cr.mark"));
        assert_eq!(
            sent.len(),
            announced.count(),
            "{}: a mark went untraced",
            t.scope
        );
        marks.extend(sent);
    }
    assert_eq!(marks.len(), ROUNDS * (RANKS * (RANKS - 1)) as usize);
    let received = |span: u64| {
        traces
            .iter()
            .flat_map(|t| &t.events)
            .any(|e| matches!(e.kind, EventKind::Recv { ctx, .. } if ctx.span == span))
    };
    assert!(marks.iter().all(|&span| received(span)), "an unpaired mark");
    let dag = reassemble(traces);
    dag.check().unwrap();
    assert!(dag.message_edges_in("ckpt.round") >= marks.len());
    assert!(
        dag.message_edges < marks.len() + 100,
        "the ring traffic between the rounds is sampled: {} edges",
        dag.message_edges
    );
}

/// A safepoint ends an adopted trace: rank 0 adopts rank 1's sampled
/// message, passes a safepoint and streams 64 messages without receiving
/// one. They are roots of rank 0's own, one in 64 traced, not 64 sends
/// that carry rank 1's trace.
#[test]
fn a_safepoint_ends_an_adopted_trace() {
    const SENDS: u64 = 64;
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("adopter", |ctx| {
        if ctx.rank() == Rank(1) {
            ctx.send(Rank(0), 1, b"sampled")?;
            for _ in 0..SENDS {
                ctx.recv(Some(Rank(0)), Some(2))?;
            }
        } else {
            ctx.recv(Some(Rank(1)), Some(1))?;
            ctx.safepoint(&CkptValue::Unit)?;
            for i in 0..SENDS {
                ctx.send(Rank(1), 2, &i.to_le_bytes())?;
            }
        }
        Ok(())
    });
    let app = cluster.submit("adopter", 2, SubmitOpts::default()).unwrap();
    cluster.wait_app_done(app, T).unwrap();
    let traces = cluster.trace_hub().dump_prefix(&format!("{app}.r0"));
    let events = &traces.first().expect("rank 0's recorder").events;
    let adopted = events.iter().find_map(|e| match e.kind {
        EventKind::Recv { tag: 1, ctx, .. } => Some(ctx),
        _ => None,
    });
    let adopted = adopted.expect("rank 1's first send is a sampled root");
    let sent: Vec<_> = (events.iter())
        .filter_map(|e| match e.kind {
            EventKind::Send { tag: 2, ctx, .. } => Some(ctx),
            _ => None,
        })
        .collect();
    assert_eq!(
        sent.len(),
        1,
        "the sends after the safepoint kept the adopted trace"
    );
    assert_eq!((sent[0].trace, sent[0].parent), (sent[0].span, 0));
    assert_ne!(sent[0].trace, adopted.trace);
}
