//! Ablations of the design choices DESIGN.md calls out.

use std::collections::BTreeMap;
use std::time::Duration;

use starfish::{CkptProto, CkptValue, Cluster, FtPolicy, Rank, RuntimeKnobs, SubmitOpts};
use starfish_checkpoint::disk::DiskModel;
use starfish_checkpoint::incremental::IncrementalTracker;
use starfish_checkpoint::recovery::{recovery_line, MsgDep};
use starfish_daemon::{CfgCmd, ClusterConfig};
use starfish_mpi::RecvMode;
use starfish_util::rng::DetRng;
use starfish_util::trace::{MsgClass, TraceSink};
use starfish_util::NodeId;
use starfish_vni::{Ideal, LayerCosts};

use crate::report::{cause, exact, J, REPEATS};

const T: Duration = Duration::from_secs(120);

/// Coordinated vs uncoordinated C/R, side by side — "we can run the same
/// application with two different C/R protocols, and compare them" (§1).
/// One round of a 4-rank ring on 4 nodes per protocol: (rank 0's round
/// seconds, C/R messages, channel messages captured).
fn cr_round(proto: CkptProto) -> (f64, u64, u64) {
    let trace = TraceSink::enabled();
    let cluster = Cluster::builder()
        .nodes(4)
        .trace(trace.clone())
        .build()
        .unwrap();
    cluster.register_app("compare", |ctx| {
        let me = ctx.rank().0;
        let n = ctx.size();
        let state = CkptValue::record(vec![("heap", CkptValue::Zeros(2_000_000))]);
        // Keep messages flowing so the protocols' channel handling
        // differs meaningfully.
        let next = Rank((me + 1) % n);
        let prev = Rank((me + n - 1) % n);
        ctx.send(next, 1, &[me as u8])?;
        let dt = ctx.checkpoint(&state)?;
        let m = ctx.recv(Some(prev), Some(1))?;
        assert_eq!(m.data[0] as u32, (me + n - 1) % n);
        if me == 0 {
            ctx.publish(CkptValue::Float(dt.as_secs_f64()));
        }
        ctx.barrier()?;
        Ok(())
    });
    let before = trace.count(MsgClass::CheckpointRestart);
    let app = cluster
        .submit("compare", 4, SubmitOpts::default().proto(proto))
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    let round = cluster.outputs(app, Rank(0))[0].as_float().unwrap();
    let cr_msgs = trace.count(MsgClass::CheckpointRestart) - before;
    let chan = (0..4)
        .filter_map(|r| cluster.store().latest(app, Rank(r)))
        .map(|i| i.channel.len() as u64)
        .sum();
    (round, cr_msgs, chan)
}

/// [`cr_round`] per protocol, [`REPEATS`] times: the round time moves with
/// [`cause::RELAY_ORDER`] and the captured channel messages with
/// [`cause::ARRIVAL_ORDER`].
pub fn cr_protocols() -> J {
    let protos = [
        CkptProto::StopAndSync,
        CkptProto::ChandyLamport,
        CkptProto::Independent,
    ];
    let rows = protos.map(|proto| {
        let runs: Vec<(f64, u64, u64)> = (0..REPEATS).map(|_| cr_round(proto)).collect();
        let cr_msgs: Vec<u64> = runs.iter().map(|r| r.1).collect();
        let cells = [
            (
                "round_s",
                J::band(runs.iter().map(|r| r.0), cause::RELAY_ORDER),
            ),
            ("cr_msgs", J::num(exact(&cr_msgs, "C/R messages"))),
            (
                "channel_msgs",
                J::band(runs.iter().map(|r| r.2 as f64), cause::ARRIVAL_ORDER),
            ),
        ];
        (format!("{proto:?}"), J::obj(cells))
    });
    J::section("virtual", vec![("rows", J::obj(rows))])
}

/// Lightweight groups vs full-blown groups: cost of one membership change.
/// A full one is a node joining the Starfish group (`add_node`: flush, new
/// view, state transfer, announcement); a lightweight one is a rank moving
/// to another node (`MIGRATE`): one cast, whose view change every daemon
/// derives from it without a message of its own. Control messages per
/// change at 5, 9 and 17 nodes.
pub fn lwgroups() -> J {
    let rows = [4u32, 8, 16].map(|n| {
        let trace = TraceSink::enabled();
        let cluster = Cluster::builder()
            .nodes(n)
            .network(Box::new(Ideal))
            .layers(LayerCosts::zero())
            .trace(trace.clone())
            .build()
            .unwrap();
        // Runs until it is deleted.
        cluster.register_app("lw", |ctx| loop {
            ctx.safepoint(&CkptValue::Unit)?;
            #[expect(clippy::disallowed_methods, reason = "idles 1 ms between safepoints")]
            std::thread::sleep(Duration::from_millis(1));
        });
        let app = cluster.submit("lw", 2, SubmitOpts::default()).unwrap();
        let everywhere = |cluster: &Cluster, done: &dyn Fn(&ClusterConfig) -> bool| {
            for d in (0..=n).filter_map(|i| cluster.daemon_of(NodeId(i))) {
                d.wait_config(T, done).unwrap();
            }
        };
        // A marker every daemon has applied ends a measurement, once what
        // the change set off (respawn events, telemetry) has had 100 ms to
        // land; one cast is its price, taken off each figure.
        let mut marks = 0;
        let mut settle = |cluster: &Cluster| {
            #[expect(clippy::disallowed_methods, reason = "100 ms for stats casts to land")]
            std::thread::sleep(Duration::from_millis(100));
            marks += 1;
            let (key, value) = (format!("mark{marks}"), String::new());
            let marker = CfgCmd::SetParam {
                key: key.clone(),
                value,
            };
            cluster.daemon().issue(marker).unwrap();
            everywhere(cluster, &|c| c.params.contains_key(&key));
            trace.count(MsgClass::Control)
        };
        let c0 = settle(&cluster);
        let cast = settle(&cluster) - c0;
        // (a) Full-blown membership change: one more node joins.
        let c1 = settle(&cluster);
        cluster.add_node(0).unwrap();
        let full = settle(&cluster) - c1 - cast;
        // (b) Lightweight change: rank 1 moves to the new node.
        let c2 = settle(&cluster);
        let (rank, node, line) = (Rank(1), NodeId(n), vec![0; 2]);
        let migrate = CfgCmd::Migrate {
            app,
            rank,
            node,
            line,
        };
        cluster.daemon().issue(migrate).unwrap();
        everywhere(&cluster, &|c| c.apps[&app].epoch.0 == 1);
        let lw = settle(&cluster) - c2 - cast;
        cluster.delete(app).unwrap();
        let cells = [("full_msgs", J::num(full)), ("lw_msgs", J::num(lw))];
        (n + 1, J::obj(cells))
    });
    J::section("count", vec![("rows", J::obj(rows))])
}

/// The polling thread (§2.2.1): virtual µs per receive of an
/// already-arrived message, with and without it.
pub fn polling() -> J {
    // The paper's point: "when using the polling thread, the time required
    // for kernel interaction is interleaved with other operations, yielding
    // fast receive operations". So the interesting case is a receive posted
    // *after* the messages arrived: with the polling thread they are already
    // in the queue; without it, every receive performs the (virtual) kernel
    // interaction itself.
    fn recv_cost(mode: RecvMode) -> f64 {
        let k = RuntimeKnobs {
            recv_mode: mode,
            ..RuntimeKnobs::default()
        };
        let cluster = Cluster::builder()
            .nodes(2)
            .network_bip()
            .knobs(k)
            .build()
            .unwrap();
        cluster.register_app("burst", |ctx| {
            let me = ctx.rank().0;
            const N: u64 = 100;
            if me == 1 {
                for i in 0..N {
                    ctx.send(Rank(0), i, &[0])?;
                }
            } else {
                // Compute while the burst arrives (the overlap the polling
                // thread exploits), then drain it.
                ctx.advance(starfish::VirtualTime::from_millis(20));
                #[expect(clippy::disallowed_methods, reason = "the burst arrives in real time")]
                std::thread::sleep(Duration::from_millis(100)); // real arrival
                let t0 = ctx.time();
                for i in 0..N {
                    ctx.recv(Some(Rank(1)), Some(i))?;
                }
                let per_msg = (ctx.time() - t0) / N;
                ctx.publish(CkptValue::Float(per_msg.as_micros_f64()));
            }
            Ok(())
        });
        let app = cluster
            .submit("burst", 2, SubmitOpts::default().policy(FtPolicy::Kill))
            .unwrap();
        cluster.wait_app_done(app, T).unwrap();
        cluster.outputs(app, Rank(0))[0].as_float().unwrap()
    }
    let rows = [("polled", RecvMode::Polled), ("direct", RecvMode::Direct)]
        .map(|(name, mode)| (name, J::obj([("us_per_recv", J::num(recv_cost(mode)))])));
    J::section("virtual", vec![("rows", J::obj(rows))])
}

/// The fast data path vs routing data through the object bus (§2.2, "we
/// employ a fast data path ... that does not go through the object bus"):
/// the 1-byte round trip each way.
pub fn fastpath() -> J {
    fn rtt(bus: bool) -> f64 {
        let k = RuntimeKnobs {
            bus_data_path: bus,
            ..RuntimeKnobs::default()
        };
        let cluster = Cluster::builder()
            .nodes(2)
            .network_bip()
            .knobs(k)
            .build()
            .unwrap();
        cluster.register_app("pp", |ctx| {
            let me = ctx.rank().0;
            const REPS: u64 = 100;
            if me == 0 {
                ctx.send(Rank(1), 999, &[0])?;
                ctx.recv(Some(Rank(1)), Some(999))?;
                let t0 = ctx.time();
                for i in 0..REPS {
                    ctx.send(Rank(1), i, &[0])?;
                    ctx.recv(Some(Rank(1)), Some(i))?;
                }
                ctx.publish(CkptValue::Float(((ctx.time() - t0) / REPS).as_micros_f64()));
            } else {
                let w = ctx.recv(Some(Rank(0)), Some(999))?;
                ctx.send(Rank(0), 999, &w.data)?;
                for i in 0..REPS {
                    let m = ctx.recv(Some(Rank(0)), Some(i))?;
                    ctx.send(Rank(0), i, &m.data)?;
                }
            }
            Ok(())
        });
        let app = cluster
            .submit("pp", 2, SubmitOpts::default().policy(FtPolicy::Kill))
            .unwrap();
        cluster.wait_app_done(app, T).unwrap();
        cluster.outputs(app, Rank(0))[0].as_float().unwrap()
    }
    let rows = [("fast_path", false), ("object_bus", true)]
        .map(|(name, bus)| (name, J::obj([("rtt_us", J::num(rtt(bus)))])));
    J::section("virtual", vec![("rows", J::obj(rows))])
}

/// Incremental checkpointing (libckpt-style, §6): a 64 MB image written
/// 10 times, in full or as the pages dirtied since the last checkpoint, at
/// several dirty fractions per interval.
pub fn incremental() -> J {
    let disk = DiskModel::ide_1999();
    const IMG: usize = 64 << 20;
    let rows = [1usize, 5, 20, 100].map(|dirty_pct| {
        let mut rng = DetRng::new(42);
        let mut image = vec![0u8; IMG];
        let mut tracker = IncrementalTracker::new();
        let base = tracker.capture(&image); // initial full checkpoint
        let mut full_bytes = base.bytes_written();
        let mut incr_bytes = base.bytes_written();
        let mut full_time = disk.write_time(IMG as u64);
        let mut incr_time = disk.write_time(incr_bytes);
        for _ in 0..10 {
            // Dirty `dirty_pct`% of the pages.
            let dirty_pages = (IMG / 4096) * dirty_pct / 100;
            for _ in 0..dirty_pages {
                let page = rng.below((IMG / 4096) as u64) as usize;
                image[page * 4096] = image[page * 4096].wrapping_add(1);
            }
            let inc = tracker.capture(&image);
            incr_bytes += inc.bytes_written();
            incr_time += disk.write_time(inc.bytes_written());
            full_bytes += IMG as u64;
            full_time += disk.write_time(IMG as u64);
        }
        let (full_s, incr_s) = (full_time.as_secs_f64(), incr_time.as_secs_f64());
        let cells = [
            ("full_MB", J::num(full_bytes as f64 / 1e6)),
            ("incr_MB", J::num(incr_bytes as f64 / 1e6)),
            ("full_s", J::num(full_s)),
            ("incr_s", J::num(incr_s)),
            ("speedup", J::num(full_s / incr_s)),
        ];
        (dirty_pct, J::obj(cells))
    });
    J::section("virtual", vec![("rows", J::obj(rows))])
}

/// Checkpoints discarded when rank 0 fails, on a ring workload of 8 ranks
/// and 200 steps, averaged over 50 seeded trials: checkpoints taken by each
/// rank on its own at a random rate (rollback propagation, the domino
/// effect [34,41]) or by all ranks together at the same rate.
fn discarded(ckpt_prob: f64, coordinated: bool) -> (f64, u64) {
    let mut total_rolled = 0u64;
    let mut worst = 0u64;
    const TRIALS: usize = 50;
    for trial in 0..TRIALS {
        let mut rng = DetRng::new(1000 + trial as u64);
        const N: u32 = 8;
        const STEPS: usize = 200;
        let mut intervals: BTreeMap<Rank, u64> = (0..N).map(|r| (Rank(r), 0u64)).collect();
        let mut deps: Vec<MsgDep> = Vec::new();
        for step in 0..STEPS {
            let s = Rank((step % N as usize) as u32);
            let r = Rank(((step + 1) % N as usize) as u32);
            deps.push(MsgDep {
                sender: s,
                send_interval: intervals[&s],
                receiver: r,
                recv_interval: intervals[&r],
            });
            if coordinated {
                if rng.chance(ckpt_prob / N as f64) {
                    intervals.values_mut().for_each(|i| *i += 1);
                }
                continue;
            }
            for rank in (0..N).map(Rank) {
                if rng.chance(ckpt_prob / N as f64) {
                    *intervals.get_mut(&rank).unwrap() += 1;
                }
            }
        }
        let rl = recovery_line(&intervals, &deps, &[Rank(0)]);
        total_rolled += rl.rolled_back;
        worst = worst.max(rl.rolled_back);
    }
    (total_rolled as f64 / TRIALS as f64, worst)
}

/// Rollback propagation under uncoordinated checkpointing against the
/// coordinated baseline, at three checkpoint rates (percent per step).
pub fn domino() -> J {
    let rows = [5u32, 20, 50].map(|rate_pct| {
        let ckpt_prob = rate_pct as f64 / 100.0;
        let (avg, worst) = discarded(ckpt_prob, false);
        let (coord_avg, coord_worst) = discarded(ckpt_prob, true);
        let cells = [
            ("independent_avg", J::num(avg)),
            ("independent_worst", J::num(worst)),
            ("coordinated_avg", J::num(coord_avg)),
            ("coordinated_worst", J::num(coord_worst)),
        ];
        (rate_pct, J::obj(cells))
    });
    J::section("count", vec![("rows", J::obj(rows))])
}

/// Forked (copy-on-write) checkpointing — the libckpt optimization the
/// paper's related work highlights alongside incremental checkpoints
/// (§6): the app-visible stall per checkpoint, blocking or forked, and the
/// slowdown it costs at a 60 s compute interval. The background write
/// still gates the next checkpoint: the minimum interval is the write time.
pub fn forked() -> J {
    let disk = DiskModel::ide_1999();
    const INTERVAL_S: f64 = 60.0;
    let rows = [1u64, 16, 64, 135].map(|mb| {
        let bytes = mb * 1_000_000;
        let blocking = disk.write_time(bytes).as_secs_f64();
        let forked = disk.fork_time(bytes).as_secs_f64();
        let cells = [
            ("blocking_s", J::num(blocking)),
            ("forked_s", J::num(forked)),
            (
                "overhead_blocking_pct",
                J::num(blocking / (INTERVAL_S + blocking) * 100.0),
            ),
            (
                "overhead_forked_pct",
                J::num(forked / (INTERVAL_S + forked) * 100.0),
            ),
        ];
        (mb, J::obj(cells))
    });
    let fields = vec![("interval_s", J::num(INTERVAL_S)), ("rows", J::obj(rows))];
    J::section("virtual", fields)
}
