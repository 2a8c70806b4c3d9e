//! Harness-side spans: recorded around each `Ctx` call inside the
//! benchmark's own app closures (the program itself is not instrumented).
//!
//! Each rank incarnation owns a [`Recorder`] with a preallocated buffer, so
//! recording is two `Instant::now()` calls and a `Vec` slot — no lock, no
//! allocation. Buffers are merged after the job and written out as JSON.

use std::time::Instant;

use crate::stats;

/// `parent` value of a top-level span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub rank: u32,
    /// Operation (message / iteration / batch number) the span belongs to.
    pub op: u64,
    /// Index of the enclosing span in the same rank's buffer.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Recorder {
    on: bool,
    rank: u32,
    epoch: Instant,
    buf: Vec<Span>,
    open: Vec<u32>,
    /// Spans refused because the preallocated buffer was full.
    pub overflow: u64,
}

/// Handle returned by [`Recorder::begin`]; `None` when nothing was recorded.
pub type Open = Option<u32>;

impl Recorder {
    pub fn new(on: bool, rank: u32, epoch: Instant, capacity: usize) -> Recorder {
        Recorder {
            on,
            rank,
            epoch,
            buf: Vec::with_capacity(if on { capacity } else { 0 }),
            open: Vec::with_capacity(8),
            overflow: 0,
        }
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        if !self.on {
            return None;
        }
        if self.buf.len() == self.buf.capacity() {
            self.overflow += 1;
            return None;
        }
        let idx = self.buf.len() as u32;
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.buf.push(Span {
            name,
            rank: self.rank,
            op,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        Some(idx)
    }

    #[inline]
    pub fn end(&mut self, span: Open) {
        let Some(idx) = span else { return };
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.buf[idx as usize].end_ns = now;
        // Spans close innermost-first; an early `?` return may leave inner
        // ones open, which closing the outer one abandons.
        while let Some(top) = self.open.pop() {
            if top == idx {
                break;
            }
        }
    }

    pub fn take(&mut self) -> Vec<Span> {
        self.open.clear();
        std::mem::take(&mut self.buf)
    }
}

/// Self time per span: its duration minus the part covered by its direct
/// children. `spans` must be one rank's buffer (parents index into it).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(slot) = child_ns.get_mut(s.parent as usize) {
            *slot += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}

#[derive(Debug, Clone)]
pub struct NameSummary {
    pub name: &'static str,
    pub count: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    pub self_total_ms: f64,
}

/// Per-name duration summary over per-rank buffers, in first-seen order.
pub fn summarize(per_rank: &[Vec<Span>]) -> Vec<NameSummary> {
    let mut names: Vec<&'static str> = Vec::new();
    let mut durs: Vec<Vec<f64>> = Vec::new();
    let mut selfs: Vec<f64> = Vec::new();
    for spans in per_rank {
        let self_ns = self_times_ns(spans);
        for (s, own) in spans.iter().zip(self_ns) {
            let i = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                durs.push(Vec::new());
                selfs.push(0.0);
                names.len() - 1
            });
            durs[i].push(s.dur_ns() as f64 / 1e3);
            selfs[i] += own as f64 / 1e6;
        }
    }
    names
        .into_iter()
        .zip(durs)
        .zip(selfs)
        .map(|((name, d), self_total_ms)| {
            let sorted = stats::sorted(&d);
            NameSummary {
                name,
                count: sorted.len(),
                p50_us: stats::quantile_sorted(&sorted, 0.5),
                p99_us: stats::quantile_sorted(&sorted, 0.99),
                self_total_ms,
            }
        })
        .collect()
}

/// `[{"name":..,"rank":..,"op":..,"parent":..,"start_ns":..,"end_ns":..},..]`
/// with `parent` as `-1` at top level. Names are Rust identifiers and
/// dots, so no escaping is needed.
pub fn write_json(path: &std::path::Path, per_rank: &[Vec<Span>]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    w.write_all(b"[")?;
    let mut first = true;
    for s in per_rank.iter().flatten() {
        if !first {
            w.write_all(b",")?;
        }
        first = false;
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        write!(
            w,
            "\n{{\"name\":\"{}\",\"rank\":{},\"op\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.rank, s.op, parent, s.start_ns, s.end_ns
        )?;
    }
    w.write_all(b"\n]\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            rank: 0,
            op: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("iter", NO_PARENT, 0, 1000),
            span("halo", 0, 100, 400),
            span("send", 1, 150, 250),
            span("allreduce", 0, 500, 900),
        ];
        assert_eq!(self_times_ns(&spans), vec![300, 200, 100, 400]);
    }

    #[test]
    fn self_time_never_underflows_on_skewed_clocks() {
        let spans = vec![span("outer", NO_PARENT, 0, 100), span("inner", 0, 0, 150)];
        assert_eq!(self_times_ns(&spans), vec![0, 150]);
    }

    #[test]
    fn recorder_nests_and_survives_abandoned_inner_spans() {
        let mut r = Recorder::new(true, 3, Instant::now(), 8);
        let outer = r.begin("outer", 7);
        let inner = r.begin("inner", 7);
        r.end(inner);
        let _abandoned = r.begin("abandoned", 7);
        r.end(outer);
        let next = r.begin("next", 8);
        r.end(next);
        let spans = r.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[2].parent, 0);
        assert_eq!(
            spans[3].parent, NO_PARENT,
            "stack unwound past the abandoned span"
        );
        assert!(spans.iter().all(|s| s.rank == 3 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn recorder_off_or_full_records_nothing() {
        let mut off = Recorder::new(false, 0, Instant::now(), 8);
        let s = off.begin("x", 0);
        off.end(s);
        assert!(off.take().is_empty());
        let mut full = Recorder::new(true, 0, Instant::now(), 1);
        let a = full.begin("a", 0);
        let b = full.begin("b", 0);
        full.end(b);
        full.end(a);
        assert_eq!(full.overflow, 1);
        assert_eq!(full.take().len(), 1);
    }

    #[test]
    fn summary_groups_by_name() {
        let per_rank = vec![vec![
            span("iter", NO_PARENT, 0, 4000),
            span("send", 0, 0, 1000),
            span("send", 0, 1000, 4000),
        ]];
        let s = summarize(&per_rank);
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].count), ("iter", 1));
        assert_eq!((s[1].name, s[1].count), ("send", 2));
        assert!((s[1].p50_us - 2.0).abs() < 1e-9);
        assert!((s[0].self_total_ms - 0.0).abs() < 1e-9);
    }
}
