//! Chrome-trace / Perfetto JSON export and a structural validator.
//!
//! The exporter emits the JSON object format (`{"traceEvents": [...]}`)
//! that both `chrome://tracing` and [ui.perfetto.dev](https://ui.perfetto.dev)
//! load: one "process" per dumped ring, `B`/`E` slices for phases, short
//! `X` slices for sends/receives with `s`/`f` flow events stitching each
//! message's send to its receive across tracks. Timestamps are virtual
//! microseconds.
//!
//! The workspace has no serde (offline shims only), so the module also
//! carries a small recursive-descent JSON parser used by
//! [`validate`] — the schema check CI runs over every exported file — and
//! by tests.

use starfish_util::json;

use crate::event::EventKind;
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
        let pid = p + 1;
        ev.push(format!(
            r#"{{"ph":"M","pid":{pid},"tid":1,"name":"process_name","args":{{"name":{}}}}}"#,
            json::string(&t.scope)
        ));
        for e in &t.events {
            // Virtual nanoseconds -> fractional microseconds.
            let ts = e.vt.as_nanos() as f64 / 1000.0;
            let common = format!(r#""pid":{pid},"tid":1,"ts":{ts:.3}"#);
            let lam = e.lamport;
            match &e.kind {
                EventKind::Send {
                    peer,
                    context,
                    tag,
                    bytes,
                    ctx,
                } => {
                    ev.push(format!(
                        r#"{{"name":"send r{peer} t{tag}","cat":"msg","ph":"X","dur":1,{common},"args":{{"lamport":{lam},"context":{context},"bytes":{bytes},"span":{}}}}}"#,
                        ctx.span
                    ));
                    if ctx.is_some() {
                        ev.push(format!(
                            r#"{{"name":"msg","cat":"flow","ph":"s","id":{},{common}}}"#,
                            ctx.span
                        ));
                    }
                }
                EventKind::Recv {
                    peer,
                    context,
                    tag,
                    bytes,
                    ctx,
                } => {
                    ev.push(format!(
                        r#"{{"name":"recv r{peer} t{tag}","cat":"msg","ph":"X","dur":1,{common},"args":{{"lamport":{lam},"context":{context},"bytes":{bytes},"span":{}}}}}"#,
                        ctx.span
                    ));
                    if ctx.is_some() && sent_spans.contains(&ctx.span) {
                        ev.push(format!(
                            r#"{{"name":"msg","cat":"flow","ph":"f","bp":"e","id":{},{common}}}"#,
                            ctx.span
                        ));
                    }
                }
                EventKind::PhaseBegin { name } => {
                    ev.push(format!(
                        r#"{{"name":{},"cat":"phase","ph":"B",{common},"args":{{"lamport":{lam}}}}}"#,
                        json::string(name)
                    ));
                }
                EventKind::PhaseEnd { name, detail } => {
                    ev.push(format!(
                        r#"{{"name":{},"cat":"phase","ph":"E",{common},"args":{{"lamport":{lam},"detail":{}}}}}"#,
                        json::string(name),
                        json::string(detail)
                    ));
                }
                EventKind::ViewChange { view, members } => {
                    ev.push(format!(
                        r#"{{"name":"view v{view}","cat":"membership","ph":"i","s":"p",{common},"args":{{"lamport":{lam},"members":{members}}}}}"#
                    ));
                }
                EventKind::Mark { name, detail } => {
                    ev.push(format!(
                        r#"{{"name":{},"cat":"mark","ph":"i","s":"t",{common},"args":{{"lamport":{lam},"detail":{}}}}}"#,
                        json::string(name),
                        json::string(detail)
                    ));
                }
                EventKind::Fault { desc } => {
                    ev.push(format!(
                        r#"{{"name":{},"cat":"fault","ph":"i","s":"g",{common},"args":{{"lamport":{lam}}}}}"#,
                        json::string(&format!("fault: {desc}"))
                    ));
                }
            }
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{}\n]}}\n",
        ev.join(",\n")
    )
}

// ---- minimal JSON parsing, for the schema check --------------------------

/// A parsed JSON value (just enough for validation and tests).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.ws();
        self.b
            .get(self.i)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                c as char, self.i, self.b[self.i] as char
            ))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'n' => self.lit("null", Json::Null),
            _ => self.number(),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self.i < self.b.len()
            && matches!(
                self.b[self.i],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self
                .b
                .get(self.i)
                .ok_or_else(|| "unterminated string".to_string())?;
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let e = *self
                        .b
                        .get(self.i)
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            self.i += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape \\{}", e as char)),
                    }
                }
                c => {
                    // Reassemble multi-byte UTF-8 sequences verbatim.
                    let len = match c {
                        0x00..=0x7f => 0,
                        0xc0..=0xdf => 1,
                        0xe0..=0xef => 2,
                        _ => 3,
                    };
                    let start = self.i - 1;
                    self.i += len;
                    let chunk = self
                        .b
                        .get(start..self.i)
                        .ok_or_else(|| "truncated utf-8".to_string())?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        if self.peek()? == b']' {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            match self.peek()? {
                b',' => self.i += 1,
                b']' => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                c => return Err(format!("expected , or ] found {:?}", c as char)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = Vec::new();
        if self.peek()? == b'}' {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.expect(b':')?;
            out.push((key, self.value()?));
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                c => return Err(format!("expected , or }} found {:?}", c as char)),
            }
        }
    }
}

/// Parse a JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        b: text.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at {}", p.i));
    }
    Ok(v)
}

/// What [`validate`] measured about a trace file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSummary {
    pub events: usize,
    pub processes: usize,
    pub flows: usize,
}

/// Structural schema check of an exported Chrome-trace file: a JSON object
/// with a `traceEvents` array whose members all carry a known `ph`, numeric
/// `pid`/`tid`, a numeric `ts` on every non-metadata event, and whose flow
/// ends (`f`) all match an emitted flow start (`s`). This is the check the
/// CI trace job runs over the example's export.
pub fn validate(text: &str) -> Result<TraceSummary, String> {
    let doc = parse_json(text)?;
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
            "s" | "f" => {
                let id = e
                    .get("id")
                    .and_then(Json::as_num)
                    .ok_or_else(|| format!("event {i}: flow without id"))?
                    as u64;
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
        let json = export(&[a.dump(), b.dump()]);
        let sum = validate(&json).expect("exported trace must validate");
        assert_eq!(sum.processes, 2);
        assert_eq!(sum.flows, 1);
        assert!(sum.events >= 9);
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

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a":[1,2.5,-3e2],"b":"q\"\\\nA","c":{"d":null,"e":true}}"#).unwrap();
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "q\"\\\nA");
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert!(parse_json("[1,2,]").is_err());
        assert!(parse_json("{\"a\":1} extra").is_err());
    }
}
