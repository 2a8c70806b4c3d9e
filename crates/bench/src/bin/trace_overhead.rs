//! Flight-recorder overhead: per-event cost of the always-on trace ring,
//! recorder enabled vs disabled, plus the wire-context encode cost. The
//! budget is ~100 ns/event (EXPERIMENTS.md); results are written to
//! `BENCH_trace.json` at the workspace root so regressions show up in
//! review diffs.

use std::time::Instant;

use starfish_bench::report;
use starfish_trace::{FlightRecorder, TraceCtx};
use starfish_util::codec::{Encode, Encoder};
use starfish_util::VirtualTime;

const EVENTS: usize = 2_000_000;

struct Case {
    name: &'static str,
    ns_per_event: f64,
}

fn time_per_event(n: usize, mut f: impl FnMut(u64)) -> f64 {
    // Warm up allocator and ring before timing.
    for i in 0..(n / 10).max(1) as u64 {
        f(i);
    }
    let start = Instant::now();
    for i in 0..n as u64 {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / n as f64
}

fn main() {
    report::print_banner(
        "Flight-recorder overhead",
        &format!("{EVENTS} events per case; budget ~100 ns/event"),
    );

    let vt = VirtualTime::from_nanos(1_000);
    let mut cases = Vec::new();

    let on = FlightRecorder::new("bench.r0", starfish_trace::DEFAULT_CAPACITY);
    cases.push(Case {
        name: "send_enabled",
        ns_per_event: time_per_event(EVENTS, |i| {
            let _ = on.on_send(vt, (i % 4) as u32, 0, i, 64);
        }),
    });
    cases.push(Case {
        name: "recv_enabled",
        ns_per_event: time_per_event(EVENTS, |i| {
            on.on_recv(vt, (i % 4) as u32, 0, i, 64, TraceCtx::NONE);
        }),
    });
    cases.push(Case {
        name: "mark_enabled",
        ns_per_event: time_per_event(EVENTS, |_| {
            on.mark(vt, "bench.mark", "detail");
        }),
    });

    let off = FlightRecorder::disabled();
    cases.push(Case {
        name: "send_disabled",
        ns_per_event: time_per_event(EVENTS, |i| {
            let _ = off.on_send(vt, (i % 4) as u32, 0, i, 64);
        }),
    });
    cases.push(Case {
        name: "mark_disabled",
        ns_per_event: time_per_event(EVENTS, |_| {
            off.mark(vt, "bench.mark", "detail");
        }),
    });

    // The cost a traced message pays on the wire path: encoding the
    // 32-byte context extension into the frame.
    let ctx = TraceCtx {
        trace: 7,
        span: 9,
        parent: 3,
        lamport: 40,
    };
    cases.push(Case {
        name: "ctx_encode",
        ns_per_event: time_per_event(EVENTS, |_| {
            let mut enc = Encoder::with_capacity(TraceCtx::WIRE_LEN);
            ctx.encode(&mut enc);
            std::hint::black_box(enc.into_bytes());
        }),
    });

    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            vec![
                c.name.to_string(),
                format!("{:.1}", c.ns_per_event),
                if c.ns_per_event <= 100.0 { "yes" } else { "NO" }.to_string(),
            ]
        })
        .collect();
    report::print_table(&["case", "ns/event", "within budget"], &rows);

    let enabled_worst = cases
        .iter()
        .filter(|c| c.name.ends_with("_enabled"))
        .map(|c| c.ns_per_event)
        .fold(0.0f64, f64::max);
    let within = enabled_worst <= 100.0;
    println!("\nworst enabled-path case: {enabled_worst:.1} ns/event (budget 100)");

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"trace_overhead\",\n");
    json.push_str(&format!("  \"events_per_case\": {EVENTS},\n"));
    json.push_str("  \"budget_ns_per_event\": 100,\n");
    json.push_str(&format!("  \"within_budget\": {within},\n"));
    json.push_str("  \"cases\": {\n");
    for (i, c) in cases.iter().enumerate() {
        let comma = if i + 1 == cases.len() { "" } else { "," };
        json.push_str(&format!(
            "    {}: {:.1}{comma}\n",
            starfish_util::json::string(c.name),
            c.ns_per_event
        ));
    }
    json.push_str("  }\n}\n");

    let path = format!("{}/../../BENCH_trace.json", env!("CARGO_MANIFEST_DIR"));
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => println!("could not write {path}: {e}"),
    }
}
