//! End-to-end scenario tests of the full Starfish stack (cluster boot →
//! daemons → application processes → C/R → recovery).

use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use starfish_checkpoint::CkptValue;
use starfish_daemon::{CkptProto, FtPolicy, LevelKind};
use starfish_mpi::ReduceOp;
use starfish_util::{AppId, Rank, VirtualTime};

use crate::cluster::{Cluster, SubmitOpts};
use crate::state::CkptValueExt;

const T: Duration = Duration::from_secs(60);

/// A gate the test opens once and application ranks wait at: it pins *where*
/// in its run an application is when the test injects a fault, the way the
/// old tests hoped a `sleep` would. Stays open, so restarted incarnations
/// pass straight through.
#[derive(Clone, Default)]
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn open(&self) {
        *self.0 .0.lock() = true;
        self.0 .1.notify_all();
    }

    fn wait(&self) {
        let mut open = self.0 .0.lock();
        while !*open {
            self.0 .1.wait(&mut open);
        }
    }
}

#[test]
fn ring_pass_completes() {
    let cluster = Cluster::builder().nodes(3).network_bip().build().unwrap();
    cluster.register_app("ring", |ctx| {
        let n = ctx.size();
        let me = ctx.rank().0;
        // Pass a counter around the ring twice.
        if me == 0 {
            ctx.send(Rank(1 % n), 1, &[1])?;
            let m = ctx.recv(Some(Rank(n - 1)), Some(1))?;
            ctx.publish(CkptValue::Int(m.data[0] as i64));
        } else {
            let m = ctx.recv(Some(Rank(me - 1)), Some(1))?;
            ctx.send(Rank((me + 1) % n), 1, &[m.data[0] + 1])?;
        }
        Ok(())
    });
    let app = cluster
        .submit("ring", 3, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    assert_eq!(cluster.outputs(app, Rank(0)), vec![CkptValue::Int(3)]);
}

#[test]
fn collectives_work_through_ctx() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("coll", |ctx| {
        let r = ctx.rank().0 as f64;
        ctx.barrier()?;
        let sum = ctx.allreduce_f64(&[r + 1.0], ReduceOp::Sum)?;
        let all = ctx.allgather(&[ctx.rank().0 as u8])?;
        ctx.publish(CkptValue::Float(sum[0]));
        ctx.publish(CkptValue::Int(all.len() as i64));
        Ok(())
    });
    let app = cluster
        .submit("coll", 4, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    for r in 0..4 {
        let out = cluster.outputs(app, Rank(r));
        assert_eq!(out[0], CkptValue::Float(1.0 + 2.0 + 3.0 + 4.0));
        assert_eq!(out[1], CkptValue::Int(4));
    }
}

#[test]
fn user_initiated_checkpoint_round_commits() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("ckpt", |ctx| {
        let state = CkptValue::record(vec![("iter", CkptValue::Int(1))]);
        let dt = ctx.checkpoint(&state)?;
        if ctx.rank().0 == 0 {
            ctx.publish(CkptValue::Float(dt.as_secs_f64()));
        }
        ctx.barrier()?;
        Ok(())
    });
    let app = cluster.submit("ckpt", 2, SubmitOpts::default()).unwrap();
    cluster.wait_app_done(app, T).unwrap();
    // Both ranks stored checkpoint index 1.
    assert_eq!(cluster.store().latest_index(app, Rank(0)), 1);
    assert_eq!(cluster.store().latest_index(app, Rank(1)), 1);
    // Rank 0 measured a positive round time that includes at least the
    // VM-level image write (~7.7ms single node; here 2 nodes + sync).
    let out = cluster.outputs(app, Rank(0));
    let secs = out[0].as_float().unwrap();
    assert!(secs > 0.005, "round time {secs}s too small");
}

/// The headline fault-tolerance scenario: crash a node mid-run, watch the
/// system restart from the last coordinated checkpoint, and check the final
/// answer matches a failure-free execution.
#[test]
fn crash_restart_from_checkpoint_preserves_result() {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    let crashed = Gate::default();
    let gate = crashed.clone();
    cluster.register_app("survivor", move |ctx| {
        let me = ctx.rank();
        let mut iter;
        let mut acc;
        match ctx.restored() {
            Some(v) => {
                iter = v.req_int("iter")?;
                acc = v.req_int("acc")?;
                ctx.publish(CkptValue::Str(format!("restored@{iter}")));
            }
            None => {
                iter = 0;
                acc = 0;
            }
        }
        while iter < 6 {
            let state = CkptValue::record(vec![
                ("iter", CkptValue::Int(iter)),
                ("acc", CkptValue::Int(acc)),
            ]);
            if iter == 3 && me.0 == 0 {
                // Coordinated checkpoint mid-run.
                ctx.checkpoint(&state)?;
            } else {
                ctx.safepoint(&state)?;
            }
            // Past the committed checkpoint every rank waits for the crash,
            // so it always lands mid-run.
            if iter == 4 {
                gate.wait();
            }
            // One "compute + exchange" step: global sum of ranks.
            let sums = ctx.allreduce_i64(&[me.0 as i64 + 1], ReduceOp::Sum)?;
            acc += sums[0];
            iter += 1;
        }
        ctx.publish(CkptValue::Int(acc));
        Ok(())
    });
    let app = cluster
        .submit("survivor", 3, SubmitOpts::default())
        .unwrap();

    // Let it checkpoint (all ranks at index 1), then kill a node.
    cluster
        .ckpt_hub()
        .wait_common_index(app, &[Rank(0), Rank(1), Rank(2)], 0, T)
        .expect("checkpoint never landed");
    let victim = cluster.config().apps[&app].placement[1];
    cluster.crash_node(victim);
    crashed.open();

    cluster.wait_app_done(app, T).unwrap();
    // Expected: 6 iterations × (1+2+3) = 36, identical to failure-free.
    for r in 0..3 {
        let out = cluster.outputs(app, Rank(r));
        assert!(
            out.contains(&CkptValue::Int(36)),
            "rank {r} outputs {out:?}"
        );
    }
    // The restart actually happened from the checkpoint (not from scratch):
    // some rank published a restore marker.
    let restored_seen = (0..3).any(|r| {
        cluster
            .outputs(app, Rank(r))
            .iter()
            .any(|v| matches!(v, CkptValue::Str(s) if s.starts_with("restored@")))
    });
    assert!(
        restored_seen,
        "no rank reported restoring from a checkpoint"
    );
    // And the epoch was bumped exactly once.
    assert_eq!(cluster.config().apps[&app].epoch.0, 1);
}

#[test]
fn kill_policy_takes_app_down_on_crash() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("fragile", |ctx| {
        ctx.advance(VirtualTime::from_millis(1));
        ctx.publish(CkptValue::Unit);
        // Blocked for good in a receive nobody will satisfy: only the
        // daemon's Kill (or the node's crash) gets a rank out of here.
        let peer = Rank(1 - ctx.rank().0);
        ctx.recv(Some(peer), Some(1)).map(|_| ())
    });
    let app = cluster
        .submit("fragile", 2, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    for r in 0..2 {
        cluster.wait_outputs(app, Rank(r), 1, T).unwrap();
    }
    let victim = cluster.config().apps[&app].placement[1];
    cluster.crash_node(victim);
    cluster
        .wait_app(app, T, |a| a.status == starfish_daemon::AppStatus::Killed)
        .unwrap();
}

/// Dynamicity (paper §3.2.1): a trivially parallel app under the NotifyView
/// policy repartitions over the survivors after a crash.
#[test]
fn notify_view_policy_repartitions() {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    let node_dead = Gate::default();
    let gate = node_dead.clone();
    cluster.register_app("adaptive", move |ctx| {
        let state = CkptValue::Unit;
        // Work is 12 items; each alive rank owns a slice.
        let me = ctx.rank();
        let mut covered: Vec<i64> = Vec::new();
        for round in 0..40 {
            ctx.safepoint(&state)?;
            let alive = ctx.alive_ranks();
            if !alive.contains(&me) {
                break;
            }
            let k = alive.iter().position(|r| *r == me).unwrap();
            let share = 12 / alive.len();
            for item in (k * share)..((k + 1) * share) {
                if !covered.contains(&(item as i64)) {
                    covered.push(item as i64);
                }
            }
            // Round 20 publishes a progress marker so the test can inject
            // the failure in the middle, and holds until it has.
            if round == 20 {
                if me.0 == 0 {
                    ctx.publish(CkptValue::Str("mid".into()));
                }
                gate.wait();
            }
        }
        covered.sort_unstable();
        ctx.publish(CkptValue::IntArray(covered));
        Ok(())
    });
    let app = cluster
        .submit(
            "adaptive",
            3,
            SubmitOpts::default().policy(FtPolicy::NotifyView),
        )
        .unwrap();
    cluster.wait_outputs(app, Rank(0), 1, T).unwrap();
    let placement = cluster.config().apps[&app].placement.clone();
    // Every daemon has acted on the submission: one that got to it only
    // after the crash would put the lost rank back into the (shared)
    // placement directory behind the survivors' backs.
    for node in &placement {
        let daemon = cluster.daemon_of(*node).unwrap();
        daemon
            .wait_config(T, |c| c.apps.contains_key(&app))
            .unwrap();
    }
    let victim = placement[2];
    cluster.crash_node(victim);
    // A daemon publishes NodeDead after dropping the lost rank from the
    // placement directory, so from here `alive_ranks` excludes it.
    cluster
        .daemon()
        .wait_config(T, |c| {
            c.nodes[&victim].status == starfish_daemon::config::CfgNodeStatus::Dead
        })
        .unwrap();
    node_dead.open();
    // Ranks 0 and 1 finish and together cover a larger share after the
    // crash (6 items each instead of 4).
    let out0 = cluster.wait_outputs(app, Rank(0), 2, T).unwrap();
    let out1 = cluster.wait_outputs(app, Rank(1), 1, T).unwrap();
    let cov0 = match &out0[1] {
        CkptValue::IntArray(v) => v.clone(),
        other => panic!("unexpected {other:?}"),
    };
    let cov1 = match &out1[0] {
        CkptValue::IntArray(v) => v.clone(),
        other => panic!("unexpected {other:?}"),
    };
    let mut union: Vec<i64> = cov0.iter().chain(cov1.iter()).copied().collect();
    union.sort_unstable();
    union.dedup();
    assert_eq!(
        union,
        (0..12).collect::<Vec<i64>>(),
        "full coverage after repartition"
    );
    assert!(
        cov0.len() >= 6,
        "rank 0 took over part of the lost share: {cov0:?}"
    );
}

#[test]
fn suspend_resume_via_cluster_api() {
    let cluster = Cluster::builder().nodes(1).build().unwrap();
    let resumed = Gate::default();
    let gate = resumed.clone();
    cluster.register_app("pausable", move |ctx| {
        let state = CkptValue::Unit;
        ctx.publish(CkptValue::Int(5));
        gate.wait();
        ctx.safepoint(&state)?;
        ctx.publish(CkptValue::Str("done".into()));
        Ok(())
    });
    let app = cluster
        .submit("pausable", 1, SubmitOpts::default())
        .unwrap();
    cluster.wait_outputs(app, Rank(0), 1, T).unwrap();
    cluster.suspend(app).unwrap();
    cluster
        .wait_app(app, T, |a| {
            a.status == starfish_daemon::AppStatus::Suspended
        })
        .unwrap();
    cluster.resume(app).unwrap();
    cluster
        .wait_app(app, T, |a| a.status == starfish_daemon::AppStatus::Running)
        .unwrap();
    // The rank finds Suspend and Resume queued in that order at its next
    // service point and runs on (that a suspended rank *stays* parked until
    // the Resume is pinned by `wait::suspended_rank_parks_until_resume`).
    resumed.open();
    cluster.wait_app_done(app, T).unwrap();
    assert_eq!(cluster.outputs(app, Rank(0)).len(), 2);
}

#[test]
fn independent_checkpoints_have_no_coordination() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("indep", |ctx| {
        let me = ctx.rank().0 as i64;
        let state = CkptValue::record(vec![("me", CkptValue::Int(me))]);
        // Each rank checkpoints independently: no Stop/Resume round.
        let dt = ctx.checkpoint(&state)?;
        ctx.publish(CkptValue::Float(dt.as_secs_f64()));
        Ok(())
    });
    let app = cluster
        .submit(
            "indep",
            2,
            SubmitOpts::default().proto(CkptProto::Independent),
        )
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    assert_eq!(cluster.store().latest_index(app, Rank(0)), 1);
    assert_eq!(cluster.store().latest_index(app, Rank(1)), 1);
    // Local-only cost: well under the coordinated round times.
    let dt0 = cluster.outputs(app, Rank(0))[0].as_float().unwrap();
    assert!(dt0 > 0.0 && dt0 < 0.05, "independent ckpt took {dt0}s");
}

#[test]
fn chandy_lamport_round_commits_without_stopping() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("cl", |ctx| {
        let state = CkptValue::record(vec![("x", CkptValue::Int(9))]);
        let me = ctx.rank().0;
        // Keep traffic flowing while the snapshot happens.
        for i in 0..10u64 {
            if me == 0 && i == 3 {
                ctx.checkpoint(&state)?;
            } else {
                ctx.safepoint(&state)?;
            }
            let peer = Rank(1 - me);
            ctx.send(peer, 40 + i, &[i as u8])?;
            let m = ctx.recv(Some(peer), Some(40 + i))?;
            assert_eq!(m.data[0], i as u8);
        }
        Ok(())
    });
    let app = cluster
        .submit(
            "cl",
            2,
            SubmitOpts::default().proto(CkptProto::ChandyLamport),
        )
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    assert_eq!(cluster.store().latest_index(app, Rank(0)), 1);
    assert_eq!(cluster.store().latest_index(app, Rank(1)), 1);
}

#[test]
fn native_level_checkpoint_images_are_bigger() {
    let cluster = Cluster::builder().nodes(1).build().unwrap();
    cluster.register_app("nat", |ctx| {
        let state = CkptValue::Unit;
        ctx.checkpoint(&state)?;
        Ok(())
    });
    let app_vm = cluster
        .submit("nat", 1, SubmitOpts::default().level(LevelKind::Vm))
        .unwrap();
    cluster.wait_app_done(app_vm, T).unwrap();
    let app_nat = cluster
        .submit("nat", 1, SubmitOpts::default().level(LevelKind::Native))
        .unwrap();
    cluster.wait_app_done(app_nat, T).unwrap();
    let vm = cluster.store().latest(app_vm, Rank(0)).unwrap();
    let nat = cluster.store().latest(app_nat, Rank(0)).unwrap();
    // Paper §5: 260 KB vs 632 KB for the empty program.
    assert!(vm.total_bytes() >= 260 * 1024 && vm.total_bytes() < 261 * 1024);
    assert!(nat.total_bytes() >= 632 * 1024 && nat.total_bytes() < 633 * 1024);
}

#[test]
fn dynamic_node_addition_expands_cluster() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    let new = cluster.add_node(1).unwrap(); // a SunOS big-endian box
    let cfg = cluster.config();
    assert!(cfg.nodes.contains_key(&new));
    assert_eq!(cfg.up_nodes().len(), 3);
    // New submissions can land on it.
    cluster.register_app("hello", |ctx| {
        ctx.publish(CkptValue::Int(ctx.rank().0 as i64));
        Ok(())
    });
    let app = cluster.submit("hello", 3, SubmitOpts::default()).unwrap();
    cluster.wait_app_done(app, T).unwrap();
    assert!(cluster.config().apps[&app].placement.contains(&new));
}

#[test]
fn mgmt_session_drives_whole_lifecycle() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("job", |ctx| {
        let state = CkptValue::Unit;
        for _ in 0..5 {
            ctx.safepoint(&state)?;
        }
        Ok(())
    });
    let mut s = cluster.session();
    assert!(s.handle_line("LOGIN USER carol").starts_with("OK"));
    let resp = s.handle_line("SUBMIT job 2 POLICY kill");
    assert!(resp.starts_with("OK submitted"), "{resp}");
    let status = s.handle_line("STATUS");
    assert!(status.contains("job"), "{status}");
}

/// Robustness: crash the same workload at several different points in its
/// execution (before any checkpoint, right after one, between two, after the
/// last); the answer must always match the failure-free run.
#[test]
fn crash_at_various_times_always_recovers() {
    for crash_at in [0i64, 3, 5, 9] {
        let cluster = Cluster::builder().nodes(3).build().unwrap();
        let crashed = Gate::default();
        let gate = crashed.clone();
        cluster.register_app("robust", move |ctx| {
            let me = ctx.rank();
            let (mut iter, mut acc) = match ctx.restored() {
                Some(v) => (
                    v.req_int("iter").unwrap_or(0),
                    v.req_int("acc").unwrap_or(0),
                ),
                None => (0, 0),
            };
            while iter < 10 {
                let state = CkptValue::record(vec![
                    ("iter", CkptValue::Int(iter)),
                    ("acc", CkptValue::Int(acc)),
                ]);
                if iter % 3 == 0 && iter > 0 {
                    ctx.checkpoint(&state)?;
                } else {
                    ctx.safepoint(&state)?;
                }
                // Every rank reports in and holds here until the node is
                // down: the crash hits exactly this point of the run.
                if iter == crash_at {
                    ctx.publish(CkptValue::Str("here".into()));
                    gate.wait();
                }
                let s = ctx.allreduce_i64(&[me.0 as i64 + 1], ReduceOp::Sum)?;
                acc += s[0];
                iter += 1;
            }
            ctx.publish(CkptValue::Int(acc));
            Ok(())
        });
        let app = cluster.submit("robust", 3, SubmitOpts::default()).unwrap();
        for r in 0..3 {
            cluster.wait_outputs(app, Rank(r), 1, T).unwrap();
        }
        // Crash whichever node currently hosts rank 1.
        let victim = cluster.config().apps[&app].placement[1];
        cluster.crash_node(victim);
        crashed.open();
        cluster
            .wait_app_done(app, Duration::from_secs(120))
            .unwrap();
        for r in 0..3 {
            let out = cluster.outputs(app, Rank(r));
            assert!(
                out.contains(&CkptValue::Int(60)), // 10 × (1+2+3)
                "crash at iteration {crash_at}, rank {r}: {out:?}"
            );
        }
    }
}

/// The textbook symmetric exchange — `isend(big) → recv → wait` on both
/// ranks — with a payload over the rendezvous threshold. Neither CTS is
/// granted before the peer's `recv`, so an `isend` that blocked until its
/// grant would park both ranks until the blocking timeout; a non-blocking
/// one finishes in milliseconds.
#[test]
fn symmetric_isend_exchange_of_rendezvous_payloads_completes() {
    const LEN: usize = 192 * 1024; // over DEFAULT_RNDV_THRESHOLD: one chunk, no early window
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("swap", |ctx| {
        let me = ctx.rank().0;
        let peer = Rank(1 - me);
        let fill = |r: u32| -> Vec<u8> { (0..LEN).map(|i| (i as u32 % 251 + r) as u8).collect() };
        let started = std::time::Instant::now();
        let req = ctx.isend(peer, 7, &fill(me))?;
        let m = ctx.recv(Some(peer), Some(7))?;
        ctx.wait(req)?;
        let quick = started.elapsed() < Duration::from_secs(10);
        ctx.publish(CkptValue::Int(
            (m.data[..] == fill(peer.0)[..] && quick) as i64,
        ));
        Ok(())
    });
    let app = cluster.submit("swap", 2, SubmitOpts::default()).unwrap();
    cluster.wait_app_done(app, T).unwrap();
    for r in 0..2 {
        assert_eq!(cluster.outputs(app, Rank(r)), vec![CkptValue::Int(1)]);
    }
}

/// Stop-and-sync checkpoint right behind a *rendezvous* transfer: rank 0
/// `isend`s a payload over the rendezvous threshold and then starts a
/// coordinated round while the transfer may still be parked behind its RTS
/// (rank 1 grants it from its `recv`, whenever that runs) — the round's
/// quiescence push or the grant completes it, whichever comes first. The
/// payload must arrive intact exactly once and both ranks must store the
/// round. (`starfish-mpi`'s
/// `snapshot_skips_placeholders_and_quiescence_push_completes_them` pins
/// the push alone at endpoint level.)
#[test]
fn checkpoint_behind_a_rendezvous_transfer_loses_nothing() {
    const LEN: usize = 192 * 1024; // over DEFAULT_RNDV_THRESHOLD (64 KiB)
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("bigsend", |ctx| {
        let me = ctx.rank().0;
        let state = CkptValue::Unit;
        if me == 0 {
            let payload: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
            let req = ctx.isend(Rank(1), 7, &payload)?;
            ctx.checkpoint(&state)?;
            ctx.wait(req)?;
            ctx.barrier()?;
        } else {
            let m = ctx.recv(Some(Rank(0)), Some(7))?;
            let intact = m.data.len() == LEN
                && m.data
                    .iter()
                    .enumerate()
                    .all(|(i, b)| *b == (i % 251) as u8);
            ctx.publish(CkptValue::Int(intact as i64));
            ctx.barrier()?;
        }
        Ok(())
    });
    let app = cluster.submit("bigsend", 2, SubmitOpts::default()).unwrap();
    cluster.wait_app_done(app, T).unwrap();
    assert_eq!(cluster.outputs(app, Rank(1)), vec![CkptValue::Int(1)]);
    assert_eq!(cluster.store().latest_index(app, Rank(0)), 1);
    assert_eq!(cluster.store().latest_index(app, Rank(1)), 1);
}

/// Diskless checkpointing end to end: a replica-backed app checkpoints into
/// peer memory (nothing touches the stable store), a node dies, and the
/// recovery line is reassembled entirely from surviving peers.
#[test]
fn replica_backend_recovers_from_peer_memory_after_crash() {
    let cluster = Cluster::builder().nodes(4).build().unwrap();
    let crashed = Gate::default();
    let gate = crashed.clone();
    cluster.register_app("diskless", move |ctx| {
        let me = ctx.rank();
        let (mut iter, mut acc) = match ctx.restored() {
            Some(v) => {
                ctx.publish(CkptValue::Str(format!("restored@{}", v.req_int("iter")?)));
                (v.req_int("iter")?, v.req_int("acc")?)
            }
            None => (0, 0),
        };
        while iter < 6 {
            let state = CkptValue::record(vec![
                ("iter", CkptValue::Int(iter)),
                ("acc", CkptValue::Int(acc)),
            ]);
            if iter == 3 && me.0 == 0 {
                ctx.checkpoint(&state)?;
            } else {
                ctx.safepoint(&state)?;
            }
            if iter == 4 {
                gate.wait(); // past the round: the crash lands mid-run
            }
            let sums = ctx.allreduce_i64(&[me.0 as i64 + 1], ReduceOp::Sum)?;
            acc += sums[0];
            iter += 1;
        }
        ctx.publish(CkptValue::Int(acc));
        Ok(())
    });
    let app = cluster
        .submit("diskless", 3, SubmitOpts::default().replica(2))
        .unwrap();
    let ranks = [Rank(0), Rank(1), Rank(2)];

    // Wait for the coordinated round to land in peer memory.
    cluster
        .ckpt_hub()
        .wait_common_index(app, &ranks, 0, T)
        .expect("replica checkpoint never landed");
    // The stable store saw none of it, and every rank is replicated.
    for r in ranks {
        assert_eq!(cluster.store().latest_index(app, r), 0, "disk used for {r}");
    }
    let health = cluster.ckpt_hub().replica().health(app);
    assert_eq!(health.len(), 3);
    assert!(health.iter().all(|h| h.recoverable && !h.under_replicated));

    let victim = cluster.config().apps[&app].placement[1];
    cluster.crash_node(victim);
    crashed.open();

    cluster.wait_app_done(app, T).unwrap();
    // Same answer as failure-free: 6 iterations × (1+2+3) = 36.
    for r in ranks {
        let out = cluster.outputs(app, r);
        assert!(
            out.contains(&CkptValue::Int(36)),
            "rank {r} outputs {out:?}"
        );
    }
    // The restart really came out of peer memory, not from scratch.
    let restored_seen = ranks.iter().any(|r| {
        cluster
            .outputs(app, *r)
            .iter()
            .any(|v| matches!(v, CkptValue::Str(s) if s.starts_with("restored@")))
    });
    assert!(restored_seen, "no rank restored from the replica store");
    assert_eq!(cluster.config().apps[&app].epoch.0, 1);
}

/// The management-protocol spelling of the same policy: `SUBMIT … STORE
/// replica:2` must route the round into peer memory and `CKPT STATUS`
/// must show the fragments — the path the paper's GUI drives.
#[test]
fn mgmt_submitted_replica_app_lands_fragments_in_peer_memory() {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    cluster.register_app("soak", |ctx| {
        // Blocked in a receive until the DELETE below: every daemon message
        // (the CHECKPOINT trigger, the relayed Stop) is serviced from here.
        let peer = Rank(1 - ctx.rank().0);
        ctx.recv(Some(peer), Some(1)).map(|_| ())
    });
    let mut s = cluster.session();
    assert!(s.handle_line("LOGIN USER alice").starts_with("OK"));
    let resp = s.handle_line("SUBMIT soak 2 POLICY restart LEVEL vm PROTO sync STORE replica:2");
    assert!(resp.starts_with("OK submitted"), "{resp}");
    let id = resp.split_whitespace().nth(2).unwrap().to_string();
    let app = AppId(id.trim_start_matches("app").parse().unwrap());
    assert!(s.handle_line(&format!("CHECKPOINT {id}")).starts_with("OK"));

    let ranks = [Rank(0), Rank(1)];
    cluster
        .ckpt_hub()
        .wait_common_index(app, &ranks, 0, T)
        .expect("mgmt-submitted replica checkpoint never landed");
    for r in ranks {
        assert_eq!(cluster.store().latest_index(app, r), 0, "disk used for {r}");
    }
    let status = s.handle_line(&format!("CKPT STATUS {id}"));
    assert!(status.contains("backend=replica:2"), "{status}");
    assert!(!status.contains("no fragments"), "{status}");
    assert!(s.handle_line(&format!("DELETE {id}")).starts_with("OK"));
}

/// Checkpoint while heavy point-to-point traffic is in flight: nothing is
/// lost or duplicated across the round.
#[test]
fn checkpoint_under_heavy_traffic_loses_nothing() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("firehose", |ctx| {
        let me = ctx.rank().0;
        let state = CkptValue::Unit;
        const N: u64 = 200;
        if me == 0 {
            // Blast messages, checkpoint mid-stream, keep blasting.
            for i in 0..N / 2 {
                ctx.send(Rank(1), i, &i.to_be_bytes())?;
            }
            ctx.checkpoint(&state)?;
            for i in N / 2..N {
                ctx.send(Rank(1), i, &i.to_be_bytes())?;
            }
            ctx.barrier()?;
        } else {
            // Consume everything, participating in the round when it comes.
            let mut sum = 0u64;
            for i in 0..N {
                let m = ctx.recv(Some(Rank(0)), Some(i))?;
                sum += u64::from_be_bytes(m.data[..8].try_into().unwrap());
            }
            ctx.publish(CkptValue::Int(sum as i64));
            ctx.barrier()?;
        }
        Ok(())
    });
    let app = cluster
        .submit("firehose", 2, SubmitOpts::default())
        .unwrap();
    cluster.wait_app_done(app, Duration::from_secs(60)).unwrap();
    let expect: u64 = (0..200u64).sum();
    assert_eq!(
        cluster.outputs(app, Rank(1)),
        vec![CkptValue::Int(expect as i64)]
    );
}

/// A member that returns right after its last checkpoint never hears that
/// round's Resume; the round is closed when the rank exits, so `TIMELINE`
/// shows every round on every rank.
#[test]
fn last_checkpoint_round_is_closed_on_every_rank() {
    const ROUNDS: usize = 3;
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("rounds", |ctx| {
        let state = CkptValue::Unit;
        for _ in 0..ROUNDS {
            ctx.checkpoint(&state)?;
        }
        Ok(())
    });
    let app = cluster.submit("rounds", 2, SubmitOpts::default()).unwrap();
    cluster.wait_app_done(app, T).unwrap();
    for r in 0..2 {
        let scope = format!("{app}.{}", Rank(r));
        let trace = cluster.trace_hub().get(&scope).unwrap().dump();
        let rounds: Vec<String> = trace
            .phases()
            .into_iter()
            .filter(|p| p.name == "ckpt.round")
            .map(|p| p.detail)
            .collect();
        assert_eq!(
            rounds,
            ["index 1", "index 2", "index 3"],
            "{scope} timeline"
        );
    }
}

/// User tags stay below `COLL_TAG_BASE`: a point-to-point message in the
/// reserved space could cross-match a collective on the world context, so
/// every entry point that takes a tag refuses one (and the largest user tag
/// still works).
#[test]
fn reserved_tags_are_rejected_at_every_entry_point() {
    use starfish_util::Error;
    const BAD: u64 = starfish_mpi::COLL_TAG_BASE | 7;
    let cluster = Cluster::builder().nodes(1).build().unwrap();
    cluster.register_app("tags", |ctx| {
        let me = ctx.rank();
        let ms = Duration::from_millis(1);
        let posted = ctx.irecv(None, Some(BAD));
        let verdicts = [
            ("send", ctx.send(me, BAD, b"x").err()),
            ("isend", ctx.isend(me, BAD, b"x").err()),
            ("recv", ctx.recv(None, Some(BAD)).err()),
            ("recv_timeout", ctx.recv_timeout(None, Some(BAD), ms).err()),
            ("try_recv", ctx.try_recv(None, Some(BAD)).err()),
            ("irecv", ctx.wait(posted).err()),
            ("iprobe", ctx.iprobe(None, Some(BAD)).err()),
        ];
        for (entry, verdict) in verdicts {
            if !matches!(verdict, Some(Error::InvalidArg(_))) {
                ctx.publish(CkptValue::Str(format!("{entry}: {verdict:?}")));
            }
        }
        ctx.send(me, BAD - 8, b"edge")?;
        let m = ctx.recv(Some(me), Some(BAD - 8))?;
        ctx.publish(CkptValue::Str(
            String::from_utf8_lossy(&m.data).into_owned(),
        ));
        Ok(())
    });
    let app = cluster
        .submit("tags", 1, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    assert_eq!(
        cluster.outputs(app, Rank(0)),
        vec![CkptValue::Str("edge".into())],
        "every entry point must answer InvalidArg"
    );
}

/// A wildcard-tag receive on the world context leaves a collective's queued
/// message alone. Rank 0's bcast leaves before its tag-5 message on the same
/// link, so once rank 1 has that, the bcast payload sits in rank 1's queue:
/// a `try_recv(None, None)` and an `iprobe(None, None)` must see nothing
/// there, and the bcast must still deliver.
#[test]
fn a_wildcard_receive_leaves_a_queued_collective_alone() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("wild", |ctx| {
        if ctx.rank() == Rank(0) {
            ctx.bcast(Rank(0), b"for everyone".to_vec())?;
            return ctx.send(Rank(1), 5, b"after");
        }
        ctx.recv(Some(Rank(0)), Some(5))?;
        let stolen = ctx.try_recv(None, None)?.map(|m| m.tag);
        let probed = ctx.iprobe(None, None)?;
        ctx.publish(CkptValue::Str(format!("{stolen:?} {probed}")));
        if stolen.is_none() {
            let got = ctx.bcast(Rank(0), Vec::new())?;
            ctx.publish(CkptValue::Str(String::from_utf8_lossy(&got).into_owned()));
        }
        Ok(())
    });
    let app = cluster
        .submit("wild", 2, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    assert_eq!(
        cluster.outputs(app, Rank(1)),
        vec![
            CkptValue::Str("None false".into()),
            CkptValue::Str("for everyone".into())
        ]
    );
}

/// What one rank adds to its accumulator in iteration `iter` of the
/// algorithm bank below, at payload scale `len`: element sums of two
/// allreduces, byte sums of two ragged allgathers and of one bcast.
/// `run` is `None` for the serial oracle (closed forms only) and
/// `Some(ctx)` for the real thing — every library algorithm the cluster
/// path does *not* pick, forced over the `Ctx` transport on the world
/// communicator.
fn algo_bank_round(
    mut run: Option<&mut crate::Ctx<'_>>,
    me: i64,
    n: i64,
    iter: i64,
    len: usize,
) -> crate::Result<i64> {
    use crate::transport::OwnClock;
    use bytes::Bytes;
    use starfish_mpi::collectives as coll;
    use starfish_mpi::{AllgatherAlgo, AllreduceAlgo, BcastAlgo};

    let bytes_sum =
        |blobs: &[Bytes]| -> i64 { blobs.iter().flat_map(|b| b.iter()).map(|b| *b as i64).sum() };
    let mut acc = 0i64;

    // Allreduce: rank r contributes r + iter + i (ring), (r+1)(i+1) + iter
    // (doubling).
    for (algo, mine, total) in [
        (
            AllreduceAlgo::Ring,
            (0..len as i64).map(|i| me + iter + i).collect::<Vec<_>>(),
            (0..len as i64)
                .map(|i| n * (n - 1) / 2 + n * (iter + i))
                .sum::<i64>(),
        ),
        (
            AllreduceAlgo::RecursiveDoubling,
            (0..len as i64).map(|i| (me + 1) * (i + 1) + iter).collect(),
            (0..len as i64)
                .map(|i| (i + 1) * n * (n + 1) / 2 + n * iter)
                .sum(),
        ),
    ] {
        acc += match run.as_deref_mut() {
            Some(ctx) => ctx
                .with_world(|c, w| {
                    coll::allreduce_with(c, &mut w.comm, &mut OwnClock, &mine, ReduceOp::Sum, algo)
                })?
                .iter()
                .sum(),
            None => total,
        };
    }

    // Allgather: rank r contributes 2·len + r bytes of value r + iter + k.
    for (k, algo) in [(1, AllgatherAlgo::Bruck), (2, AllgatherAlgo::Ring)] {
        let blob = |r: i64| vec![(r + iter + k) as u8; 2 * len + r as usize];
        acc += match run.as_deref_mut() {
            Some(ctx) => bytes_sum(&ctx.with_world(|c, w| {
                coll::allgather_with(c, &mut w.comm, &mut OwnClock, &blob(me), algo)
            })?),
            None => bytes_sum(&(0..n).map(|r| blob(r).into()).collect::<Vec<Bytes>>()),
        };
    }

    // Bcast: a rotating root sends 8·len + 1 patterned bytes.
    let root = Rank((iter % n) as u32);
    let payload: Bytes = (0..8 * len + 1).map(|i| (i as i64 + iter) as u8).collect();
    acc += match run {
        Some(ctx) => {
            let data = if ctx.rank() == root {
                payload
            } else {
                Bytes::new()
            };
            bytes_sum(&[ctx.with_world(|c, w| {
                coll::bcast_with(
                    c,
                    &mut w.comm,
                    &mut OwnClock,
                    root,
                    data,
                    BcastAlgo::ScatterAllgather,
                )
            })?])
        }
        None => bytes_sum(&[payload]),
    };
    Ok(acc)
}

/// ROADMAP item 3's "chaos banks re-run through `Ctx`" at tier-1 size: ring
/// and recursive-doubling allreduce, Bruck and ring allgather and van de
/// Geijn bcast all run over the `Ctx` transport — at an eager size and at
/// one whose every block is over the rendezvous threshold, so segmented
/// isends and their waits go through `Ctx` too — with stop-and-sync rounds
/// in between and a node crash mid-run. Every rank must finish with exactly
/// the closed-form sums of a failure-free run.
#[test]
fn library_algorithms_over_ctx_survive_checkpoint_and_crash() {
    const ITERS: i64 = 8;
    // 16 elements: eager everywhere. 40 Ki elements: a ring block of a
    // 4-rank i64 allreduce is 80 KiB, over DEFAULT_RNDV_THRESHOLD (64 KiB).
    const LENS: [usize; 2] = [16, 40 * 1024];
    const N: i64 = 4;
    // The running checksum is checkpointed state, and a VM-level image
    // keeps integers in the saving machine's 32-bit word.
    let fold = |acc: i64, round: i64| (acc + round) % 1_000_003;
    let cluster = Cluster::builder().nodes(4).build().unwrap();
    let crashed = Gate::default();
    let gate = crashed.clone();
    cluster.register_app("algos", move |ctx| {
        let me = ctx.rank().0 as i64;
        let (mut iter, mut acc) = match ctx.restored() {
            Some(v) => (v.req_int("iter")?, v.req_int("acc")?),
            None => (0, 0),
        };
        while iter < ITERS {
            let state = CkptValue::record(vec![
                ("iter", CkptValue::Int(iter)),
                ("acc", CkptValue::Int(acc)),
            ]);
            if iter % 2 == 0 && iter > 0 {
                // The barrier is bench-e2e finding 1's work-around for the
                // ≥ 3-rank checkpoint wedge (ROADMAP item 1a).
                ctx.barrier()?;
                ctx.checkpoint(&state)?;
            } else {
                ctx.safepoint(&state)?;
            }
            if iter == 5 {
                ctx.publish(CkptValue::Str("here".into()));
                gate.wait();
            }
            for len in LENS {
                acc = fold(acc, algo_bank_round(Some(&mut *ctx), me, N, iter, len)?);
            }
            iter += 1;
        }
        ctx.publish(CkptValue::Int(acc));
        Ok(())
    });
    let app = cluster
        .submit("algos", N as u32, SubmitOpts::default())
        .unwrap();
    for r in 0..N as u32 {
        cluster.wait_outputs(app, Rank(r), 1, T).unwrap();
    }
    let victim = cluster.config().apps[&app].placement[1];
    cluster.crash_node(victim);
    cluster.add_node(0).unwrap();
    crashed.open();
    cluster
        .wait_app_done(app, Duration::from_secs(120))
        .unwrap();

    assert_eq!(cluster.config().apps[&app].epoch.0, 1, "one rollback");
    for r in 0..N {
        let expect = (0..ITERS)
            .flat_map(|iter| LENS.map(|len| algo_bank_round(None, r, N, iter, len).unwrap()))
            .fold(0, fold);
        let out = cluster.outputs(app, Rank(r as u32));
        assert!(
            out.contains(&CkptValue::Int(expect)),
            "rank {r}: want {expect}, got {out:?}"
        );
    }
}
