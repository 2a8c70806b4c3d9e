//! Chrome-trace / Perfetto JSON export and a structural validator.
//!
//! The exporter emits the JSON object format (`{"traceEvents": [...]}`)
//! that both `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load: one "process" per dumped ring, `B`/`E` slices for phases, short
//! `X` slices for sends/receives with `s`/`f` flow events stitching each
//! message's send to its receive across tracks. Timestamps are virtual
//! microseconds.
//!
//! [`validate`] is the schema check CI runs over every exported file; it
//! reads the file with the workspace's JSON reader, `starfish_util::json`.

use starfish_util::json::{self, Json};

use crate::record::EventKind;
use crate::recorder::ProcTrace;

/// Export dumped rings as a Chrome-trace JSON object.
pub fn export(traces: &[ProcTrace]) -> String {
    // Flow ends are only emitted when their start is present: a bounded
    // ring may have evicted the send, and a restarted sender's replaced
    // ring no longer holds the spans that surviving receivers recorded.
    let mut sent_spans = std::collections::BTreeSet::new();
    for t in traces {
        for e in &t.events {
            if let EventKind::Send { ctx, .. } = &e.kind {
                if ctx.is_some() {
                    sent_spans.insert(ctx.span);
                }
            }
        }
    }
    let mut ev = Vec::new();
    for (p, t) in traces.iter().enumerate() {
        let pid = Json::Num(p + 1);
        ev.push(Json::obj([
            ("ph", Json::str("M")),
            ("pid", pid.clone()),
            ("tid", Json::Num(1)),
            ("name", Json::str("process_name")),
            ("args", Json::obj([("name", Json::str(&t.scope))])),
        ]));
        for e in &t.events {
            // Virtual nanoseconds -> fractional microseconds.
            let ts = Json::Num(format!("{:.3}", e.vt.as_nanos() as f64 / 1000.0));
            // Name, category and phase, `more` fields, where and when, then
            // `args` if there are any.
            let event = |name: String, cat: &str, ph: &str, more, args: Vec<_>| {
                let head = [
                    ("name", Json::str(name)),
                    ("cat", Json::str(cat)),
                    ("ph", Json::str(ph)),
                ];
                let at = [
                    ("pid", pid.clone()),
                    ("tid", Json::Num(1)),
                    ("ts", ts.clone()),
                ];
                let args = (!args.is_empty()).then(|| ("args", Json::obj(args)));
                Json::obj(head.into_iter().chain(more).chain(at).chain(args))
            };
            let lam = ("lamport", Json::Num(e.lamport));
            let scope = |s| vec![("s", Json::str(s))];
            let one = match &e.kind {
                EventKind::Send {
                    peer,
                    context,
                    tag,
                    bytes,
                    ctx,
                }
                | EventKind::Recv {
                    peer,
                    context,
                    tag,
                    bytes,
                    ctx,
                } => {
                    let send = matches!(e.kind, EventKind::Send { .. });
                    let name = format!("{} r{peer} t{tag}", if send { "send" } else { "recv" });
                    let span = ("span", Json::Num(ctx.span));
                    let args = vec![
                        lam,
                        ("context", Json::Num(context)),
                        ("bytes", Json::Num(bytes)),
                        span,
                    ];
                    ev.push(event(name, "msg", "X", vec![("dur", Json::Num(1))], args));
                    let id = ("id", Json::Num(ctx.span));
                    if send && ctx.is_some() {
                        event("msg".into(), "flow", "s", vec![id], vec![])
                    } else if !send && ctx.is_some() && sent_spans.contains(&ctx.span) {
                        event(
                            "msg".into(),
                            "flow",
                            "f",
                            vec![("bp", Json::str("e")), id],
                            vec![],
                        )
                    } else {
                        continue;
                    }
                }
                EventKind::PhaseBegin { name } => {
                    event(name.clone(), "phase", "B", vec![], vec![lam])
                }
                EventKind::PhaseEnd { name, detail } => {
                    let args = vec![lam, ("detail", Json::str(detail))];
                    event(name.clone(), "phase", "E", vec![], args)
                }
                EventKind::ViewChange { view, members } => {
                    let args = vec![lam, ("members", Json::Num(members))];
                    event(format!("view v{view}"), "membership", "i", scope("p"), args)
                }
                EventKind::Mark { name, detail } => {
                    let args = vec![lam, ("detail", Json::str(detail))];
                    event(name.clone(), "mark", "i", scope("t"), args)
                }
                EventKind::Fault { desc } => event(
                    format!("fault: {desc}"),
                    "fault",
                    "i",
                    scope("g"),
                    vec![lam],
                ),
                EventKind::Cluster(c) => {
                    let args = vec![
                        lam,
                        ("seq", Json::Num(c.seq)),
                        ("detail", Json::str(c.kind.detail())),
                    ];
                    event(c.kind.label().to_string(), "event", "i", scope("p"), args)
                }
            };
            ev.push(one);
        }
    }
    let doc = [
        ("displayTimeUnit", Json::str("ns")),
        ("traceEvents", Json::Arr(ev)),
    ];
    Json::obj(doc).render()
}

/// What [`validate`] measured about a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    pub(crate) events: usize,
    pub(crate) processes: usize,
    pub(crate) flows: usize,
}

/// Structural schema check of an exported Chrome-trace file: a JSON object
/// with a `traceEvents` array whose members all carry a known `ph`, numeric
/// `pid`/`tid`, a numeric `ts` on every non-metadata event, and whose flow
/// ends (`f`) all match an emitted flow start (`s`). This is the check the
/// CI trace job runs over the example's export.
pub fn validate(text: &str) -> Result<TraceSummary, String> {
    let doc = json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .ok_or("missing traceEvents key")?
        .as_arr()
        .ok_or("traceEvents is not an array")?;
    let mut procs = std::collections::BTreeSet::new();
    let mut starts = std::collections::BTreeSet::new();
    let mut ends = Vec::new();
    let mut open: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        let ph = e
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing ph"))?;
        if !matches!(ph, "B" | "E" | "X" | "i" | "I" | "s" | "f" | "t" | "M") {
            return Err(format!("event {i}: unknown ph {ph:?}"));
        }
        let pid = e
            .get("pid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing numeric pid"))?;
        e.get("tid")
            .and_then(Json::as_num)
            .ok_or_else(|| format!("event {i}: missing numeric tid"))?;
        procs.insert(pid as u64);
        if ph != "M" {
            let ts = e
                .get("ts")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("event {i}: missing numeric ts"))?;
            if !ts.is_finite() || ts < 0.0 {
                return Err(format!("event {i}: bad ts {ts}"));
            }
        }
        e.get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing name"))?;
        match ph {
            // A flow id is a full 64-bit span id: read exactly.
            "s" | "f" => {
                let id = e
                    .get("id")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| format!("event {i}: flow without id"))?;
                if ph == "s" {
                    starts.insert(id);
                } else {
                    ends.push((i, id));
                }
            }
            "B" => *open.entry(pid as u64).or_default() += 1,
            "E" => {
                let n = open.entry(pid as u64).or_default();
                if *n == 0 {
                    return Err(format!("event {i}: E without matching B on pid {pid}"));
                }
                *n -= 1;
            }
            _ => {}
        }
    }
    for (i, id) in &ends {
        if !starts.contains(id) {
            return Err(format!("event {i}: flow end {id} has no start"));
        }
    }
    if let Some((pid, _)) = open.iter().find(|(_, n)| **n != 0) {
        return Err(format!("unclosed B slice on pid {pid}"));
    }
    Ok(TraceSummary {
        events: events.len(),
        processes: procs.len(),
        flows: starts.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TraceCtx;
    use crate::recorder::FlightRecorder;
    use starfish_util::VirtualTime;

    fn vt(n: u64) -> VirtualTime {
        VirtualTime::from_nanos(n)
    }

    #[test]
    fn export_of_a_real_exchange_validates() {
        let a = FlightRecorder::new("app0.r0", 64);
        let b = FlightRecorder::new("app0.r1", 64);
        a.phase_begin(vt(5), "round");
        let ctx = a.on_send(vt(10), 1, 1, 7, 64);
        b.on_recv(vt(20), 0, 1, 7, 64, ctx);
        b.on_recv(vt(25), 3, 1, 9, 8, TraceCtx::NONE);
        a.phase_end(vt(30), "round", "");
        a.view_change(vt(40), 2, 3);
        a.mark(vt(50), "ckpt.commit", "index 1");
        a.fault(vt(60), "partition n0|n1");
        let node = starfish_util::NodeId(0);
        a.record_event(node, vt(70), crate::event::EventKind::NodeUp { node });
        let json = export(&[a.dump(), b.dump()]);
        let sum = validate(&json).expect("exported trace must validate");
        assert_eq!(sum.processes, 2);
        assert_eq!(sum.flows, 1);
        assert!(sum.events >= 10);
    }

    /// Two span ids an `f64` cannot tell apart: a flow end whose start
    /// differs from its own only below bit 11 has no start.
    #[test]
    fn flow_ids_match_exactly() {
        let flow = |ph: &str, id: u64| {
            format!(r#"{{"ph":"{ph}","bp":"e","id":{id},"pid":1,"tid":1,"ts":1,"name":"m"}}"#)
        };
        let id = 15_887_240_108_374_491_137u64;
        assert_eq!(id as f64, (id ^ 0x2) as f64);
        let doc = |end: u64| {
            let events = [flow("s", id), flow("f", end)].join(",");
            format!(r#"{{"traceEvents":[{events}]}}"#)
        };
        assert_eq!(validate(&doc(id)).map(|s| s.flows), Ok(1));
        assert!(validate(&doc(id ^ 0x2)).is_err());
    }

    #[test]
    fn validator_rejects_structural_damage() {
        assert!(validate("not json").is_err());
        assert!(validate("{}").is_err());
        assert!(validate(r#"{"traceEvents":{}}"#).is_err());
        assert!(validate(r#"{"traceEvents":[{"ph":"Z","pid":1,"tid":1,"name":"x"}]}"#).is_err());
        // flow end without start
        assert!(validate(
            r#"{"traceEvents":[{"ph":"f","bp":"e","id":9,"pid":1,"tid":1,"ts":1,"name":"m"}]}"#
        )
        .is_err());
        // unbalanced B
        assert!(
            validate(r#"{"traceEvents":[{"ph":"B","pid":1,"tid":1,"ts":1,"name":"p"}]}"#).is_err()
        );
        // minimal valid file
        assert!(validate(
            r#"{"traceEvents":[{"ph":"i","s":"t","pid":1,"tid":1,"ts":0,"name":"x"}]}"#
        )
        .is_ok());
    }
}
