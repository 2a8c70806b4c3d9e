//! Causal tracing end to end: run a checkpointed MPI app under the
//! always-on flight recorder, survive an injected crash, then reconstruct
//! what happened — live over the management protocol (`TRACE ...`), and
//! offline by reassembling the per-process rings into a happens-before
//! DAG and exporting Perfetto JSON for `ui.perfetto.dev`.
//!
//! ```text
//! cargo run --example trace_explorer
//! ```
//!
//! Writes two artifacts next to the manifest root:
//! * `target/trace_explorer.perfetto.json` — load it in the Perfetto UI;
//! * `target/trace_explorer.dump.txt` — the raw flight-recorder rings.
//!
//! The example exits nonzero if the reassembled DAG is inconsistent, has
//! no cross-process message edge inside a `ckpt.round` phase (sampling
//! must never cut a checkpoint round's tracing), or the exported JSON fails
//! the schema check, so CI can run it as a gate.

use std::time::Duration;

use starfish::{CkptValue, Cluster, FtPolicy, Rank, ReduceOp, Result, SubmitOpts};
use starfish_trace::{perfetto, reassemble};

const ITERS: i64 = 12;

fn ring_app(ctx: &mut starfish::Ctx<'_>) -> Result<()> {
    let me = ctx.rank();
    let n = ctx.size();
    let mut iter = match ctx.restored() {
        Some(v) => v.field("iter").and_then(|f| f.as_int()).unwrap_or(0),
        None => 0,
    };
    while iter < ITERS {
        let state = CkptValue::record(vec![("iter", CkptValue::Int(iter))]);
        if iter % 4 == 0 && iter > 0 {
            ctx.checkpoint(&state)?;
        } else {
            ctx.safepoint(&state)?;
        }
        // Pass a token around the ring, then agree on the round sum.
        let next = Rank((me.0 + 1) % n);
        ctx.send(next, 1, &iter.to_be_bytes())?;
        let _ = ctx.recv(None, Some(1))?;
        let _ = ctx.allreduce_f64(&[iter as f64], ReduceOp::Sum)?;
        iter += 1;
        std::thread::sleep(Duration::from_millis(10));
    }
    ctx.publish(CkptValue::Int(ITERS));
    Ok(())
}

fn say(session: &mut starfish::MgmtSession, line: &str) {
    let resp = session.handle_line(line);
    println!("> {line}");
    for l in resp.lines().take(12) {
        println!("< {l}");
    }
    let extra = resp.lines().count().saturating_sub(12);
    if extra > 0 {
        println!("< ... ({extra} more lines)");
    }
}

fn main() -> Result<()> {
    // The flight recorder is on by default for every rank and daemon.
    let cluster = Cluster::builder().nodes(3).network_bip().build()?;
    cluster.register_app("ring", ring_app);
    let app = cluster.submit("ring", 3, SubmitOpts::default().policy(FtPolicy::Restart))?;

    // Let the app reach its first committed checkpoint, then kill the node
    // hosting rank 1 so the trace records a real fault + recovery.
    let ranks: Vec<Rank> = (0..3).map(Rank).collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while cluster.store().latest_common_index(app, &ranks) < 1 {
        assert!(std::time::Instant::now() < deadline, "no checkpoint");
        std::thread::sleep(Duration::from_millis(5));
    }
    let victim = cluster.config().apps[&app].placement[1];
    println!(">>> crashing node {victim} (hosts rank 1) <<<\n");
    cluster.crash_node(victim);
    cluster.wait_app_done(app, Duration::from_secs(120))?;

    // --- live: the management protocol ------------------------------------
    let mut s = cluster.session();
    say(&mut s, "LOGIN USER alice");
    say(&mut s, "TRACE SCOPES");
    say(&mut s, &format!("TRACE TAIL 5 {app}.r0"));
    say(&mut s, &format!("TRACE PATH {app}"));

    // --- offline: reassemble + export --------------------------------------
    let traces = cluster.trace_hub().dump_prefix(&format!("{app}.r"));
    let dag = reassemble(traces.clone());
    dag.check().expect("happens-before DAG must be consistent");
    println!(
        "\nreassembled {} rings: {} events, {} message edges; critical path:",
        traces.len(),
        dag.nodes.len(),
        dag.message_edges
    );
    print!("{}", dag.render_path());
    let round_edges = dag.message_edges_in("ckpt.round");
    println!("{round_edges} message edges inside ckpt.round phases");
    assert!(
        round_edges > 0,
        "a checkpoint round's messages must be traced whatever the sampling"
    );

    let json = perfetto::export(&traces);
    perfetto::validate(&json).expect("exported JSON must pass the schema check");

    let root = env!("CARGO_MANIFEST_DIR");
    let json_path = format!("{root}/../../target/trace_explorer.perfetto.json");
    std::fs::write(&json_path, &json).expect("write perfetto artifact");
    let mut dump = String::new();
    for t in &traces {
        dump.push_str(&format!("== {} dropped={}\n", t.scope, t.dropped));
        for e in &t.events {
            dump.push_str(&e.summary());
            dump.push('\n');
        }
    }
    let dump_path = format!("{root}/../../target/trace_explorer.dump.txt");
    std::fs::write(&dump_path, &dump).expect("write dump artifact");
    println!("\nwrote {json_path}");
    println!("wrote {dump_path}");
    println!("\nload the JSON in ui.perfetto.dev to explore the run visually ✓");
    Ok(())
}
