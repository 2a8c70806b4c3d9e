//! Ablations of the design choices DESIGN.md calls out.

use std::collections::BTreeMap;
use std::time::Duration;

use starfish::{CkptProto, CkptValue, Cluster, FtPolicy, Rank, SubmitOpts};
use starfish_checkpoint::disk::DiskModel;
use starfish_checkpoint::incremental::IncrementalTracker;
use starfish_checkpoint::recovery::{recovery_line, MsgDep};
use starfish_daemon::{CfgCmd, ClusterConfig};
use starfish_mpi::RecvMode;
use starfish_util::rng::DetRng;
use starfish_util::trace::{MsgClass, TraceSink};
use starfish_util::NodeId;
use starfish_vni::{Ideal, LayerCosts};

use crate::report::{print_banner, print_table};

const T: Duration = Duration::from_secs(120);

/// Coordinated vs uncoordinated C/R, side by side — "we can run the same
/// application with two different C/R protocols, and compare them" (§1).
pub fn cr_protocols() {
    print_banner(
        "Ablation — C/R protocols side by side",
        "one application, three protocols; round time + control traffic",
    );
    let mut rows = Vec::new();
    for proto in [
        CkptProto::StopAndSync,
        CkptProto::ChandyLamport,
        CkptProto::Independent,
    ] {
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
        let chan: usize = (0..4)
            .map(|r| {
                cluster
                    .store()
                    .latest(app, Rank(r))
                    .map(|i| i.channel.len())
                    .unwrap_or(0)
            })
            .sum();
        rows.push(vec![
            format!("{proto:?}"),
            format!("{round:.4}"),
            format!("{cr_msgs}"),
            format!("{chan}"),
        ]);
    }
    print_table(
        &[
            "protocol",
            "round_s(rank0)",
            "cr_msgs",
            "channel_msgs_captured",
        ],
        &rows,
    );
    println!("\nStopAndSync pays a global stop; ChandyLamport snapshots without blocking;");
    println!("Independent has no coordination at all (but risks rollback propagation).");
}

/// Lightweight groups vs full-blown groups: cost of one membership change.
/// A full one is a node joining the Starfish group (`add_node`: flush, new
/// view, state transfer, announcement); a lightweight one is a rank moving
/// to another node (`MIGRATE`): one cast, whose view change every daemon
/// derives from it without a message of its own.
pub fn lwgroups() {
    print_banner(
        "Ablation — lightweight vs full-blown groups ([19], §2.1)",
        "control messages per membership change at several cluster sizes",
    );
    let mut rows = Vec::new();
    for n in [4u32, 8, 16] {
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
        rows.push(vec![
            format!("{}", n + 1),
            format!("{full}"),
            format!("{lw}"),
            format!("{:.1}x", full as f64 / lw.max(1) as f64),
        ]);
    }
    print_table(
        &["cluster size", "full-group msgs", "lw-group msgs", "ratio"],
        &rows,
    );
    println!("\nlightweight membership rides the existing total order: the migration's");
    println!("casts, versus the flush/new-view/state-transfer exchange of a node joining.");
}

/// The polling thread (§2.2.1): receive cost with and without it.
pub fn polling() {
    print_banner(
        "Ablation — the polling thread (§2.2.1)",
        "receives of already-arrived messages: kernel crossings on/off the critical path",
    );
    // The paper's point: "when using the polling thread, the time required
    // for kernel interaction is interleaved with other operations, yielding
    // fast receive operations". So the interesting case is a receive posted
    // *after* the messages arrived: with the polling thread they are already
    // in the queue; without it, every receive performs the (virtual) kernel
    // interaction itself.
    fn recv_cost(mode: RecvMode) -> f64 {
        let mut k = crate::host_knobs();
        k.recv_mode = mode;
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
    let with = recv_cost(RecvMode::Polled);
    let without = recv_cost(RecvMode::Direct);
    print_table(
        &["receive path", "us_per_recv(drained)"],
        &[
            vec!["polling thread (paper)".into(), format!("{with:.2}")],
            vec!["direct port reads".into(), format!("{without:.2}")],
        ],
    );
    println!(
        "\nwithout the polling thread each receive pays a kernel interaction: +{:.2} us per message",
        without - with
    );
}

/// The fast data path vs routing data through the object bus (§2.2).
pub fn fastpath() {
    print_banner(
        "Ablation — fast data path vs object bus (§2.2)",
        "\"we employ a fast data path ... that does not go through the object bus\"",
    );
    fn rtt(bus: bool) -> f64 {
        let mut k = crate::host_knobs();
        k.bus_data_path = bus;
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
    let fast = rtt(false);
    let bus = rtt(true);
    print_table(
        &["data path", "RTT_us(1B)"],
        &[
            vec!["fast path (paper)".into(), format!("{fast:.2}")],
            vec!["via object bus".into(), format!("{bus:.2}")],
        ],
    );
    println!(
        "\nbus dispatch would add {:.2} us per round trip to every data message",
        bus - fast
    );
}

/// Incremental checkpointing (libckpt-style, §6).
pub fn incremental() {
    print_banner(
        "Ablation — full vs incremental checkpoints (libckpt [33])",
        "64 MB image, 10 checkpoints, varying dirty fraction per interval",
    );
    let disk = DiskModel::ide_1999();
    const IMG: usize = 64 << 20;
    let mut rows = Vec::new();
    for dirty_pct in [1usize, 5, 20, 100] {
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
        rows.push(vec![
            format!("{dirty_pct}%"),
            format!("{:.1}", full_bytes as f64 / 1e6),
            format!("{:.1}", incr_bytes as f64 / 1e6),
            format!("{:.2}", full_time.as_secs_f64()),
            format!("{:.2}", incr_time.as_secs_f64()),
            format!("{:.1}x", full_time.as_secs_f64() / incr_time.as_secs_f64()),
        ]);
    }
    print_table(
        &[
            "dirty/ckpt",
            "full_MB",
            "incr_MB",
            "full_s",
            "incr_s",
            "speedup",
        ],
        &rows,
    );
}

/// Rollback propagation (domino effect) under uncoordinated checkpointing.
pub fn domino() {
    print_banner(
        "Ablation — rollback propagation under uncoordinated C/R [34,41]",
        "ring workload, random independent checkpoints; rollback on rank-0 failure",
    );
    let mut rows = Vec::new();
    for (label, ckpt_prob) in [
        ("rare (5%)", 0.05),
        ("occasional (20%)", 0.2),
        ("frequent (50%)", 0.5),
    ] {
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
                // Random independent checkpoints.
                for rank in (0..N).map(Rank) {
                    if rng.chance(ckpt_prob / N as f64) {
                        *intervals.get_mut(&rank).unwrap() += 1;
                    }
                }
            }
            let latest = intervals.clone();
            let rl = recovery_line(&latest, &deps, &[Rank(0)]);
            total_rolled += rl.rolled_back;
            worst = worst.max(rl.rolled_back);
        }
        rows.push(vec![
            label.to_string(),
            format!("{:.2}", total_rolled as f64 / TRIALS as f64),
            format!("{worst}"),
        ]);
    }
    // Coordinated baseline: the recovery line is always everyone's latest.
    rows.push(vec![
        "coordinated (any rate)".into(),
        "0.00".into(),
        "0".into(),
    ]);
    print_table(
        &["checkpoint rate", "avg ckpts discarded", "worst case"],
        &rows,
    );
    println!("\ncoordinated protocols never discard checkpoints; independent");
    println!("checkpointing trades coordination for rollback propagation.");
}

/// Forked (copy-on-write) checkpointing — the libckpt optimization the
/// paper's related work highlights alongside incremental checkpoints (§6).
pub fn forked() {
    print_banner(
        "Ablation — blocking vs forked (copy-on-write) checkpoints [32,33]",
        "app-visible stall per checkpoint; the write overlaps compute",
    );
    let disk = DiskModel::ide_1999();
    let mut rows = Vec::new();
    for mb in [1u64, 16, 64, 135] {
        let bytes = mb * 1_000_000;
        let blocking = disk.write_time(bytes);
        let forked = disk.fork_time(bytes);
        // A 60 s compute interval between checkpoints: end-to-end slowdown.
        let interval = 60.0;
        let over_b = blocking.as_secs_f64() / (interval + blocking.as_secs_f64()) * 100.0;
        let over_f = forked.as_secs_f64() / (interval + forked.as_secs_f64()) * 100.0;
        rows.push(vec![
            format!("{mb}"),
            format!("{:.3}", blocking.as_secs_f64()),
            format!("{:.4}", forked.as_secs_f64()),
            format!("{over_b:.2}%"),
            format!("{over_f:.3}%"),
        ]);
    }
    print_table(
        &[
            "image_MB",
            "blocking_s",
            "forked_s",
            "ovh_blk(60s)",
            "ovh_fork(60s)",
        ],
        &rows,
    );
    println!("\nthe background write still gates the next checkpoint: minimum");
    println!("checkpoint interval = write_time (11.3 s for the 135 MB image).");
}
