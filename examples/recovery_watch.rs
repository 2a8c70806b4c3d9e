//! Watch a recovery unfold on the cluster's event stream, then read the
//! postmortem bundle the coordinator assembled.
//!
//! ```text
//! cargo run --example recovery_watch
//! ```
//!
//! A 3-node cluster runs a diskless-checkpointing job (`replica:2`); we
//! follow the cluster events a daemon records, kill the node hosting
//! rank 1, and stream the failure → recovery event sequence live. When the recovery completes, the
//! daemon's forensics module has already written a self-contained JSON
//! bundle (event sequence, per-phase timings, rollback depth, trace slice,
//! metric deltas) — the same bundle `POSTMORTEM app1` serves over the
//! management protocol.

use std::time::Duration;

use starfish::{CkptValue, Cluster, Result, SubmitOpts};

fn main() -> Result<()> {
    let cluster = Cluster::builder()
        .nodes(3)
        .heartbeat(Duration::from_millis(25), Duration::from_millis(100))
        .build()?;

    // An iterative app that checkpoints every 3 iterations; its state
    // (the iteration counter) survives the rollback.
    cluster.register_app("it", |ctx| {
        let mut iter = ctx
            .restored()
            .and_then(|v| v.field("iter").and_then(|f| f.as_int()))
            .unwrap_or(0);
        while iter < 80 {
            let state = CkptValue::record(vec![("iter", CkptValue::Int(iter))]);
            if iter % 10 == 0 && iter > 0 {
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

    // Follow the events from the live edge: everything after this line
    // streams.
    let events = cluster.events();
    let mut cursor = events.live_edge();
    let app = cluster.submit("it", 3, SubmitOpts::default().replica(2))?;

    // Watch the events until a checkpoint round commits, then kill the
    // node hosting rank 1 — the rollback will restore from that committed
    // line.
    let warmup = std::time::Instant::now() + Duration::from_secs(30);
    'warm: while std::time::Instant::now() < warmup {
        for ev in events.poll(&mut cursor).0 {
            println!("  {}", ev.summary());
            if matches!(ev.kind, starfish_trace::event::EventKind::CkptCommit { .. }) {
                break 'warm;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let victim = cluster.config().apps[&app].placement[1];
    println!("killing {victim} (hosts rank 1)...\n");
    cluster.crash_node(victim);

    // Stream events until the recovery completes (or the app finishes).
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    'watch: while std::time::Instant::now() < deadline {
        let (polled, missed) = events.poll(&mut cursor);
        if missed > 0 {
            println!("! missed {missed} events (their ring wrapped)");
        }
        for ev in &polled {
            println!("  {}", ev.summary());
            if matches!(
                ev.kind,
                starfish_trace::event::EventKind::RecoveryComplete { .. }
            ) {
                break 'watch;
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    cluster.wait_app_done(app, Duration::from_secs(90))?;

    // The forensics bundle: what failed, how fast we noticed, how far we
    // rolled back, and what it cost.
    let pm = cluster
        .postmortem(app)
        .expect("recovery completed, bundle must exist");
    println!("\npostmortem for {} (epoch {}):", pm.app, pm.epoch);
    println!("  trigger:  {}", pm.trigger);
    println!("  backend:  {}", pm.store_backend);
    for p in &pm.phases {
        println!("  phase:    {:<28} {:>12} ns  [{}]", p.name, p.ns, p.domain);
    }
    println!(
        "  rollback: line={:?} depth={} vt-ns, {} messages discarded",
        pm.rollback.line, pm.rollback.depth_vt_ns, pm.rollback.messages_lost
    );
    println!("  events:   {} in bundle window", pm.events.len());
    println!(
        "\n(full JSON, as served by `POSTMORTEM app1`, is {} bytes; bundles land in target/postmortems/)",
        pm.to_json().len()
    );
    Ok(())
}
