//! Fault tolerance end to end: crashes under each policy, repeated
//! failures, restart placement, and recovery correctness.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use starfish::state::CkptValueExt;
use starfish::{AppStatus, CkptProto, CkptValue, Cluster, FtPolicy, Rank, ReduceOp, SubmitOpts};

const T: Duration = Duration::from_secs(90);

/// An iterative app whose state survives restarts. Runs `iters` iterations;
/// checkpoints (collectively) every `every`.
fn iterative(ctx: &mut starfish::Ctx<'_>, iters: i64, every: i64) -> starfish::Result<()> {
    let (mut iter, mut acc) = match ctx.restored() {
        Some(v) => (
            v.field("iter").and_then(|f| f.as_int()).unwrap_or(0),
            v.field("acc").and_then(|f| f.as_int()).unwrap_or(0),
        ),
        None => (0, 0),
    };
    while iter < iters {
        let state = CkptValue::record(vec![
            ("iter", CkptValue::Int(iter)),
            ("acc", CkptValue::Int(acc)),
        ]);
        if iter % every == 0 && iter > 0 {
            ctx.checkpoint(&state)?;
        } else {
            ctx.safepoint(&state)?;
        }
        std::thread::sleep(Duration::from_millis(8));
        let s = ctx.allreduce_i64(&[ctx.rank().0 as i64 + 1], ReduceOp::Sum)?;
        acc += s[0];
        iter += 1;
    }
    ctx.publish(CkptValue::Int(acc));
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
fn restart_policy_recovers_correct_answer() {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    cluster.register_app("it", |ctx| iterative(ctx, 12, 4));
    let app = cluster.submit("it", 3, SubmitOpts::default()).unwrap();
    wait_ckpt(&cluster, app, 3, 1);
    let victim = cluster.config().apps[&app].placement[2];
    cluster.crash_node(victim);
    cluster.wait_app_done(app, T).unwrap();
    // 12 iterations x sum(1..=3) = 72, exactly as failure-free.
    for r in 0..3 {
        let out = cluster.outputs(app, Rank(r));
        assert!(out.contains(&CkptValue::Int(72)), "rank {r}: {out:?}");
    }
    assert_eq!(cluster.config().apps[&app].epoch.0, 1);
}

#[test]
fn crash_before_any_checkpoint_restarts_from_scratch() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("fresh", |ctx| iterative(ctx, 6, 100));
    let app = cluster.submit("fresh", 2, SubmitOpts::default()).unwrap();
    std::thread::sleep(Duration::from_millis(30));
    let victim = cluster.config().apps[&app].placement[1];
    cluster.crash_node(victim);
    cluster.wait_app_done(app, T).unwrap();
    for r in 0..2 {
        let out = cluster.outputs(app, Rank(r));
        assert!(out.contains(&CkptValue::Int(18)), "rank {r}: {out:?}"); // 6 × 3
    }
}

#[test]
fn two_sequential_crashes_two_epochs() {
    let cluster = Cluster::builder().nodes(4).build().unwrap();
    cluster.register_app("hardy", |ctx| iterative(ctx, 16, 4));
    let app = cluster.submit("hardy", 2, SubmitOpts::default()).unwrap();

    wait_ckpt(&cluster, app, 2, 1);
    let v1 = cluster.config().apps[&app].placement[1];
    cluster.crash_node(v1);
    cluster.wait_app(app, T, |a| a.epoch.0 == 1).unwrap();

    wait_ckpt(&cluster, app, 2, 2);
    let v2 = cluster.config().apps[&app].placement[0];
    assert!(v2 != v1, "rank 0 should not be on the dead node");
    cluster.crash_node(v2);
    cluster.wait_app(app, T, |a| a.epoch.0 == 2).unwrap();

    cluster.wait_app_done(app, T).unwrap();
    for r in 0..2 {
        let out = cluster.outputs(app, Rank(r));
        assert!(out.contains(&CkptValue::Int(48)), "rank {r}: {out:?}"); // 16 × 3
    }
}

#[test]
fn replacement_lands_on_surviving_node() {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    cluster.register_app("moving", |ctx| iterative(ctx, 10, 3));
    let app = cluster.submit("moving", 3, SubmitOpts::default()).unwrap();
    wait_ckpt(&cluster, app, 3, 1);
    let victim = cluster.config().apps[&app].placement[1];
    cluster.crash_node(victim);
    cluster.wait_app(app, T, |a| a.epoch.0 == 1).unwrap();
    let new_node = cluster.config().apps[&app].placement[1];
    assert_ne!(new_node, victim);
    assert!(cluster.config().up_nodes().contains(&new_node));
    cluster.wait_app_done(app, T).unwrap();
}

#[test]
fn kill_policy_never_restarts() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("brittle", |ctx| iterative(ctx, 1000, 10));
    let app = cluster
        .submit("brittle", 2, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    std::thread::sleep(Duration::from_millis(100));
    cluster.crash_node(cluster.config().apps[&app].placement[1]);
    cluster
        .wait_app(app, T, |a| a.status == AppStatus::Killed)
        .unwrap();
    assert_eq!(
        cluster.config().apps[&app].epoch.0,
        0,
        "no restart under Kill"
    );
}

#[test]
fn independent_protocol_recovers_via_recovery_line() {
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    // Pure local computation with independent checkpoints: no domino.
    cluster.register_app("indep", |ctx| {
        let mut phase = match ctx.restored() {
            Some(v) => v.as_int().unwrap_or(0),
            None => 0,
        };
        while phase < 8 {
            let state = CkptValue::Int(phase);
            if phase % 3 == 2 {
                ctx.checkpoint(&state)?; // local, uncoordinated
            } else {
                ctx.safepoint(&state)?;
            }
            std::thread::sleep(Duration::from_millis(8));
            phase += 1;
        }
        ctx.publish(CkptValue::Int(phase));
        Ok(())
    });
    let app = cluster
        .submit(
            "indep",
            2,
            SubmitOpts::default().proto(CkptProto::Independent),
        )
        .unwrap();
    // Wait for both ranks' first independent checkpoints.
    wait_ckpt(&cluster, app, 2, 1);
    cluster.crash_node(cluster.config().apps[&app].placement[0]);
    cluster.wait_app_done(app, T).unwrap();
    for r in 0..2 {
        assert!(cluster.outputs(app, Rank(r)).contains(&CkptValue::Int(8)));
    }
}

#[test]
fn view_notify_app_finishes_with_survivors() {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    cluster.register_app("flex", |ctx| {
        let state = CkptValue::Unit;
        let me = ctx.rank();
        for _ in 0..60 {
            ctx.safepoint(&state)?;
            let alive = ctx.alive_ranks();
            if !alive.contains(&me) {
                break;
            }
            std::thread::sleep(Duration::from_millis(3));
        }
        ctx.publish(CkptValue::Int(ctx.alive_ranks().len() as i64));
        Ok(())
    });
    let app = cluster
        .submit(
            "flex",
            3,
            SubmitOpts::default().policy(FtPolicy::NotifyView),
        )
        .unwrap();
    std::thread::sleep(Duration::from_millis(60));
    cluster.crash_node(cluster.config().apps[&app].placement[1]);
    // The two survivors finish and observed the shrunken membership.
    let o0 = cluster.wait_outputs(app, Rank(0), 1, T).unwrap();
    let o2 = cluster.wait_outputs(app, Rank(2), 1, T).unwrap();
    assert_eq!(o0[0], CkptValue::Int(2));
    assert_eq!(o2[0], CkptValue::Int(2));
}

/// Warm process migration (paper §3.2.1): move a rank to another node
/// mid-run; the application finishes with the exact failure-free answer.
#[test]
fn warm_migration_moves_rank_and_preserves_result() {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    cluster.register_app("mover", |ctx| iterative(ctx, 14, 100));
    let app = cluster.submit("mover", 2, SubmitOpts::default()).unwrap();
    std::thread::sleep(Duration::from_millis(60));
    let entry = cluster.config().apps[&app].clone();
    let old = entry.placement[1];
    let target = (0..3)
        .map(starfish::NodeId)
        .find(|n| !entry.placement.contains(n))
        .expect("a free node");
    cluster.migrate(app, Rank(1), target).unwrap();
    cluster
        .wait_app(app, T, |a| a.placement[1] == target)
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    assert_ne!(cluster.config().apps[&app].placement[1], old);
    // 14 iterations × (1+2) = 42, as failure-free.
    for r in 0..2 {
        let out = cluster.outputs(app, Rank(r));
        assert!(out.contains(&CkptValue::Int(42)), "rank {r}: {out:?}");
    }
    // Exactly one epoch bump (the migration's rollback).
    assert_eq!(cluster.config().apps[&app].epoch.0, 1);
}

/// Steps of the `meet` app below: even steps sum one f64, odd steps 32 768
/// of them (256 KiB).
const MEET_STEPS: i64 = 12;

fn meet_len(step: i64) -> usize {
    if step % 2 == 0 {
        1
    } else {
        256 * 1024 / 8
    }
}

/// Rank `me`'s element `i` in `step`: small integers, so every order of
/// summation is exact.
fn meet_contribution(me: i64, step: i64, i: usize) -> f64 {
    ((me + 1) * (i as i64 % 97 + 1) + step) as f64
}

/// The running checksum is checkpointed state, and a VM-level image keeps
/// integers in the saving machine's 32-bit word.
fn meet_fold(acc: i64, sum: &[f64]) -> i64 {
    (acc + sum.iter().map(|x| *x as i64).sum::<i64>()) % 1_000_003
}

/// Whether rank 0's image `index` was captured blocked in the half roots'
/// exchange: it had sent since its cached safepoint, and the only send of a
/// lower half root before its exchange receive is its partial to rank 2.
fn rank0_in_exchange(cluster: &Cluster, app: starfish::AppId, index: u64) -> bool {
    let Some(img) = cluster.store().get(app, Rank(0), index) else {
        return false;
    };
    let (state, _) = img.restore_state(starfish::MACHINES[0]).unwrap();
    let sent = state.field("__sent").and_then(|s| s.as_int_array());
    sent.is_some_and(|sent| sent.get(2).is_some_and(|n| *n > 0))
}

/// A cluster allreduce at 4 ranks reduces each half to its lowest rank,
/// swaps the two partials between ranks 0 and 2 in one isend → recv → wait,
/// and bcasts in each half. Rank 3 holds back before every allreduce until
/// a round lands, so the rounds the test keeps triggering find rank 0
/// blocked in that exchange with its partial sent, rank 2 waiting for rank
/// 3 and rank 1 for the result. A node crash then rolls the job back to
/// such a capture. Every 8 B and 256 KiB sum must equal a serial replay.
#[test]
fn allreduce_recovers_from_captures_inside_the_half_root_exchange() {
    let cluster = Cluster::builder().nodes(5).build().unwrap();
    cluster.register_app("meet", |ctx| {
        let me = ctx.rank().0 as i64;
        let (mut step, mut acc) = match ctx.restored() {
            Some(v) => (
                v.field("step").and_then(|f| f.as_int()).unwrap_or(0),
                v.field("acc").and_then(|f| f.as_int()).unwrap_or(0),
            ),
            None => (0, 0),
        };
        while step < MEET_STEPS {
            let state = CkptValue::record(vec![
                ("step", CkptValue::Int(step)),
                ("acc", CkptValue::Int(acc)),
            ]);
            ctx.safepoint(&state)?;
            if me == 3 {
                let seen = ctx.last_checkpoint_index();
                while ctx.last_checkpoint_index() == seen {
                    std::thread::sleep(Duration::from_millis(1));
                    ctx.safepoint(&state)?;
                }
            }
            let mine: Vec<f64> = (0..meet_len(step))
                .map(|i| meet_contribution(me, step, i))
                .collect();
            acc = meet_fold(acc, &ctx.allreduce_f64(&mine, ReduceOp::Sum)?);
            step += 1;
        }
        ctx.publish(CkptValue::Int(acc));
        Ok(())
    });
    let app = cluster.submit("meet", 4, SubmitOpts::default()).unwrap();
    let ranks: Vec<Rank> = (0..4).map(Rank).collect();
    let deadline = std::time::Instant::now() + T;
    let mut crashed = false;
    while cluster
        .wait_app_done(app, Duration::from_millis(40))
        .is_err()
    {
        assert!(std::time::Instant::now() < deadline, "the job hung");
        let line = cluster.store().latest_common_index(app, &ranks);
        if !crashed && line > 0 && rank0_in_exchange(&cluster, app, line) {
            cluster.crash_node(cluster.config().apps[&app].placement[0]);
            crashed = true;
        }
        cluster.checkpoint(app).unwrap();
    }
    assert!(crashed, "no committed round caught rank 0 in the exchange");
    assert_eq!(cluster.config().apps[&app].epoch.0, 1, "one rollback");
    let expect = (0..MEET_STEPS).fold(0, |acc, step| {
        let sum: Vec<f64> = (0..meet_len(step))
            .map(|i| (0..4).map(|me| meet_contribution(me, step, i)).sum())
            .collect();
        meet_fold(acc, &sum)
    });
    for r in ranks {
        let out = cluster.outputs(app, r);
        assert!(
            out.contains(&CkptValue::Int(expect)),
            "rank {r}: want {expect}, got {out:?}"
        );
    }
}

/// The `pingpong` app's state: 256 KiB of floats, far more than the log of
/// its 16-byte messages, so a safepoint keeps the cached copy.
const PP_CELLS: usize = 32 * 1024;
/// Iterations, and the one at which rank 0 calls `checkpoint()`.
const PP_ITERS: i64 = 12;
const PP_CKPT: i64 = 5;

/// What `from` sends in iteration `iter`: the iteration, then a value.
fn pp_msg(from: i64, iter: i64) -> Vec<u8> {
    let value = (from + 1) * (iter + 1);
    [iter.to_le_bytes(), value.to_le_bytes()].concat()
}

fn pp_fold(acc: &mut [f64], msg: &[u8]) {
    let word = |k: usize| i64::from_le_bytes(msg[k..k + 8].try_into().unwrap());
    let (iter, value) = (word(0), word(8));
    acc[(iter as usize * 7919) % acc.len()] += value as f64;
}

/// Check that `msg` is the one iteration `iter` consumes. A message consumed
/// twice (or skipped) becomes the rank's only output and ends it.
fn pp_expect(ctx: &mut starfish::Ctx<'_>, msg: &[u8], iter: i64) -> starfish::Result<()> {
    let got = i64::from_le_bytes(msg[..8].try_into().unwrap());
    if msg.len() != 16 || got != iter {
        let why = format!("{} consumed message {got} in iteration {iter}", ctx.rank());
        ctx.publish(CkptValue::Str(why.clone()));
        return Err(starfish::Error::invalid_arg(why));
    }
    Ok(())
}

/// Two ranks in lockstep. Rank 1: safepoint, send, receive. Rank 0:
/// receive, safepoint, send — and in iteration [`PP_CKPT`] `checkpoint()`
/// in place of the safepoint, when rank 1 has passed its own safepoint and
/// sent, and waits in its receive for rank 0's send behind the call. Rank 1
/// is captured there, with the state cached at its first safepoint (every
/// later one keeps it) and the messages it consumed since; its own
/// `checkpoint()` call, next iteration, claims that capture. Rank 0 then
/// holds at a service point until `go`, which the test sets after crashing
/// rank 1's node.
fn pingpong(ctx: &mut starfish::Ctx<'_>, go: &AtomicBool) -> starfish::Result<()> {
    let me = ctx.rank().0 as i64;
    let peer = Rank(1 - me as u32);
    let restored = ctx.restored();
    let (mut iter, mut acc) = match &restored {
        Some(v) => (v.req_int("iter")?, v.req_float_array("acc")?),
        None => (0, vec![0.0; PP_CELLS]),
    };
    // Rank 0's state is taken after its receive: a restored rank 0 has it.
    let mut received = restored.is_some() && me == 0;
    // The image restored from is the checkpoint of its iteration.
    let mut skip_ckpt_at = restored.as_ref().map(|_| iter);
    while iter < PP_ITERS {
        if me == 0 && !std::mem::take(&mut received) {
            let m = ctx.recv(Some(peer), Some(1))?;
            pp_expect(ctx, &m.data, iter)?;
            pp_fold(&mut acc, &m.data);
        }
        let state = CkptValue::record(vec![
            ("iter", CkptValue::Int(iter)),
            ("acc", CkptValue::FloatArray(acc.clone())),
        ]);
        let ckpt_at = if me == 0 { PP_CKPT } else { PP_CKPT + 1 };
        if iter == ckpt_at && skip_ckpt_at.take() != Some(iter) {
            ctx.checkpoint(&state)?;
        } else {
            ctx.safepoint(&state)?;
        }
        ctx.send(peer, 1, &pp_msg(me, iter))?;
        if me == 0 && iter == PP_CKPT {
            while !go.load(Ordering::SeqCst) {
                ctx.take_coord()?;
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        if me == 1 {
            let m = ctx.recv(Some(peer), Some(1))?;
            pp_expect(ctx, &m.data, iter)?;
            pp_fold(&mut acc, &m.data);
        }
        iter += 1;
    }
    let sum = acc.iter().sum::<f64>() as i64;
    ctx.publish(CkptValue::record(vec![
        ("sum", CkptValue::Int(sum)),
        ("restored", CkptValue::Bool(restored.is_some())),
    ]));
    Ok(())
}

/// A capture inside a blocked receive, several kept safepoints after the
/// cached one, restores correctly: the image is the first safepoint's state
/// with every message consumed since as replay, the restored rank suppresses
/// every send since, and the job's answer is the serial one.
fn capture_at_a_kept_safepoint_restores(proto: CkptProto) {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    let go = Arc::new(AtomicBool::new(false));
    let gate = go.clone();
    cluster.register_app("pingpong", move |ctx| pingpong(ctx, &gate));
    let app = cluster
        .submit("pingpong", 2, SubmitOpts::default().proto(proto))
        .unwrap();
    wait_ckpt(&cluster, app, 2, 1);

    // Rank 1's image: its first safepoint's state, the messages consumed
    // since as replay, and the sends since to suppress.
    let img = cluster
        .store()
        .get(app, Rank(1), 1)
        .expect("rank 1's image");
    let (state, _) = img.restore_state(starfish::MACHINES[0]).unwrap();
    let user = state.field("__user").expect("a cached state");
    let cached_at = user.field("iter").and_then(|f| f.as_int()).unwrap();
    assert!(
        PP_CKPT - cached_at >= 3,
        "captured {} safepoints after the cached one",
        PP_CKPT - cached_at
    );
    let sent = state.field("__sent").and_then(|s| s.as_int_array());
    assert_eq!(
        sent,
        Some(&[PP_CKPT - cached_at + 1, 0][..]),
        "sends to suppress"
    );
    let replay: Vec<Vec<u8>> = img.channel.iter().map(|m| m.payload.clone()).collect();
    let kept: Vec<Vec<u8>> = (cached_at..PP_CKPT).map(|i| pp_msg(0, i)).collect();
    assert_eq!(replay, kept, "the replay log spans the kept intervals");
    let logged: usize = replay.iter().map(Vec::len).sum();
    assert!(logged <= user.heap_bytes() + 16, "{logged} B logged");

    let victim = cluster.config().apps[&app].placement[1];
    cluster.crash_node(victim);
    go.store(true, Ordering::SeqCst);

    // Each rank publishes once: its answer, or the message it consumed
    // twice.
    let mut serial = [vec![0.0; PP_CELLS], vec![0.0; PP_CELLS]];
    for iter in 0..PP_ITERS {
        pp_fold(&mut serial[0], &pp_msg(1, iter));
        pp_fold(&mut serial[1], &pp_msg(0, iter));
    }
    for (r, acc) in serial.iter().enumerate() {
        let want = acc.iter().sum::<f64>() as i64;
        let out = cluster.wait_outputs(app, Rank(r as u32), 1, T).unwrap();
        assert_eq!(
            out[0].field("sum"),
            Some(&CkptValue::Int(want)),
            "rank {r}: {out:?}"
        );
        assert_eq!(
            out[0].field("restored"),
            Some(&CkptValue::Bool(true)),
            "rank {r}"
        );
    }
    cluster.wait_app_done(app, T).unwrap();
    assert_eq!(cluster.config().apps[&app].epoch.0, 1, "one rollback");
}

#[test]
fn stop_and_sync_restores_a_capture_taken_after_kept_safepoints() {
    capture_at_a_kept_safepoint_restores(CkptProto::StopAndSync);
}

#[test]
fn chandy_lamport_restores_a_capture_taken_after_kept_safepoints() {
    capture_at_a_kept_safepoint_restores(CkptProto::ChandyLamport);
}
