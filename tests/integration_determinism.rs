//! Virtual-time determinism: the measured virtual durations of
//! deterministic workloads must be identical across repeated runs,
//! regardless of OS scheduling (the checkpoint round within a stated
//! tolerance). That is a property of these workloads, not of every section
//! of the bench report: the cells of Fig 3, Fig 4, Table 1, the § 5 claim
//! and the C/R protocol ablation that vary between runs are recorded as
//! bands in `BENCH_calibrate.json`, each naming its cause, and
//! `ci/check_bench.py` lists which cells may band and why.

use std::time::Duration;

use starfish::{CkptValue, Cluster, FtPolicy, Rank, ReduceOp, SubmitOpts, VirtualTime};

const T: Duration = Duration::from_secs(60);

fn run_pingpong() -> Vec<CkptValue> {
    let cluster = Cluster::builder().nodes(2).network_tcp().build().unwrap();
    cluster.register_app("p", |ctx| {
        let me = ctx.rank().0;
        if me == 0 {
            // Warm-up exchange: absorbs boot-time daemon notifications so
            // the measured window is pure data path.
            ctx.send(Rank(1), 999, &[0])?;
            ctx.recv(Some(Rank(1)), Some(999))?;
            let t0 = ctx.time();
            for size in [1usize, 1024, 65536] {
                let buf = vec![0u8; size];
                for i in 0..5u64 {
                    ctx.send(Rank(1), i, &buf)?;
                    ctx.recv(Some(Rank(1)), Some(i))?;
                }
            }
            ctx.publish(CkptValue::Int((ctx.time() - t0).as_nanos() as i64));
        } else {
            let w = ctx.recv(Some(Rank(0)), Some(999))?;
            ctx.send(Rank(0), 999, &w.data)?;
            for _ in 0..3 {
                for i in 0..5u64 {
                    let m = ctx.recv(Some(Rank(0)), Some(i))?;
                    ctx.send(Rank(0), i, &m.data)?;
                }
            }
        }
        Ok(())
    });
    let app = cluster
        .submit("p", 2, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    cluster.outputs(app, Rank(0))
}

#[test]
fn pingpong_virtual_times_reproducible() {
    let a = run_pingpong();
    let b = run_pingpong();
    assert_eq!(a, b, "virtual durations must not depend on scheduling");
}

/// One stop-and-sync round on 4 nodes, opened by rank 0 once every member
/// has told it that it got there: its call is the round's `Stop`, so the
/// round does not take in how far apart the ranks started.
fn run_checkpoint_round() -> Vec<CkptValue> {
    let cluster = Cluster::builder().nodes(4).build().unwrap();
    cluster.register_app("c", |ctx| {
        let state = CkptValue::record(vec![("pad", CkptValue::Zeros(1_000_000))]);
        if ctx.rank().0 == 0 {
            for member in 1..ctx.size() {
                ctx.recv(Some(Rank(member)), Some(7))?;
            }
        } else {
            ctx.send(Rank(0), 7, &[])?;
        }
        let dt = ctx.checkpoint(&state)?;
        if ctx.rank().0 == 0 {
            ctx.publish(CkptValue::Int(dt.as_nanos() as i64));
        }
        ctx.barrier()?;
        Ok(())
    });
    let app = cluster.submit("c", 4, SubmitOpts::default()).unwrap();
    cluster.wait_app_done(app, T).unwrap();
    cluster.outputs(app, Rank(0))
}

#[test]
fn checkpoint_round_virtual_time_reproducible() {
    // A relayed stamp is its origin's stamp plus its path, a rank merges
    // the round's marks where it waits on all of them, and a relay's
    // dispatch is charged on its stamp: no stamp of the round depends on
    // what arrived first, so two runs read the same to the nanosecond.
    let a = run_checkpoint_round();
    let b = run_checkpoint_round();
    assert_eq!(a, b, "a round's virtual time must not depend on scheduling");
}

#[test]
fn barrier_aligns_clocks_exactly() {
    let cluster = Cluster::builder().nodes(3).build().unwrap();
    cluster.register_app("align", |ctx| {
        // Skewed local work, then a barrier, then an allreduce of the local
        // clock: the max must dominate.
        let me = ctx.rank().0 as u64;
        ctx.advance(VirtualTime::from_millis(me * 100));
        ctx.barrier()?;
        let after = ctx.time();
        let max = ctx.allreduce_i64(&[after.as_nanos() as i64], ReduceOp::Max)?;
        // Everyone's post-barrier time is at least the slowest rank's
        // pre-barrier time (200 ms).
        assert!(after >= VirtualTime::from_millis(200));
        ctx.publish(CkptValue::Int(max[0]));
        Ok(())
    });
    let app = cluster
        .submit("align", 3, SubmitOpts::default().policy(FtPolicy::Kill))
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    // All ranks agreed on the same maximum.
    let m0 = cluster.outputs(app, Rank(0));
    for r in 1..3 {
        assert_eq!(cluster.outputs(app, Rank(r)), m0);
    }
}

#[test]
fn image_sizes_deterministic() {
    let mk = || {
        let cluster = Cluster::builder().nodes(2).build().unwrap();
        cluster.register_app("img", |ctx| {
            let state = CkptValue::record(vec![
                ("v", CkptValue::FloatArray(vec![0.5; 1000])),
                ("s", CkptValue::Str("stable".into())),
            ]);
            ctx.checkpoint(&state)?;
            Ok(())
        });
        let app = cluster.submit("img", 2, SubmitOpts::default()).unwrap();
        cluster.wait_app_done(app, T).unwrap();
        (
            cluster.store().latest(app, Rank(0)).unwrap().total_bytes(),
            cluster.store().latest(app, Rank(1)).unwrap().total_bytes(),
        )
    };
    assert_eq!(mk(), mk());
}
