//! The per-process flight recorder: an always-on, bounded record of
//! [`TraceEvent`]s plus the process's Lamport clock.
//!
//! Design constraints, in order:
//!
//! 1. **Cheap when off.** A disabled recorder is a `None` — every record
//!    call is one branch, no lock, no allocation. The MPI fast path keeps
//!    its seed-era cost.
//! 2. **Cheap when on.** One uncontended `parking_lot` mutex acquisition
//!    per event, no allocation for send/receive events (their fields are
//!    plain words), ring eviction instead of growth. What recording costs a
//!    whole job is bench-e2e's `trace.overhead_pct`.
//! 3. **Never lossy about being lossy.** Both rings are
//!    [`SeqRing`]s: eviction is counted exactly and `seq` keeps counting,
//!    so a dump always says how much history is missing.
//! 4. **Traffic cannot evict structure.** Sends, receives and the phases
//!    recorded once per operation ([`TRAFFIC_PHASES`]) live in one ring,
//!    everything else (phases, marks, view changes, faults) in a second one
//!    of fixed size, so a job that moves 20 000 messages or runs 600
//!    allreduces between two checkpoint rounds still shows both rounds in
//!    `TIMELINE`.

use std::sync::Arc;

use parking_lot::Mutex;
use starfish_util::ring::SeqRing;
use starfish_util::VirtualTime;

use crate::context::TraceCtx;
use crate::event::{EventKind, TraceEvent};

/// Default message-ring capacity (events) of recorders created by the
/// cluster.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Capacity of the phase ring. A constant: phases are rare (a handful per
/// checkpoint round or recovery), so no workload needs a different bound.
pub const PHASE_CAPACITY: usize = 1024;

/// Name prefix of the phases that occur at message rate — the `coll.<op>`
/// span of every collective call. They are traffic: filed in the message
/// ring, where a long run of them ages out sends and receives, never a
/// `ckpt.round`.
pub const TRAFFIC_PHASES: &str = "coll.";

/// One process's dumped rings: what the reassembler and exporters consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcTrace {
    /// The recorder's scope (`"app1.r0"`, `"n2"`, `"chaos"`, ...).
    pub scope: String,
    /// Events evicted before this dump.
    pub dropped: u64,
    /// Retained events of both rings, in record order.
    pub events: Vec<TraceEvent>,
}

/// One closed phase: a `PhaseBegin` folded with its `PhaseEnd`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    pub name: String,
    /// The annotation its `PhaseEnd` carried (checkpoint index, algorithm).
    pub detail: String,
    pub start: VirtualTime,
    pub end: VirtualTime,
}

impl ProcTrace {
    /// Fold begin/end pairs into closed phases, in end order — the
    /// `TIMELINE` query. An end closes the innermost open begin of its
    /// name; a begin that never ended (still running, or cut off by a
    /// crash) and an end whose begin was evicted produce nothing.
    pub fn phases(&self) -> Vec<PhaseSpan> {
        let mut open: Vec<(&str, VirtualTime)> = Vec::new();
        let mut out = Vec::new();
        for ev in &self.events {
            match &ev.kind {
                EventKind::PhaseBegin { name } => open.push((name, ev.vt)),
                EventKind::PhaseEnd { name, detail } => {
                    if let Some(pos) = open.iter().rposition(|(n, _)| n == name) {
                        let (_, start) = open.remove(pos);
                        out.push(PhaseSpan {
                            name: name.clone(),
                            detail: detail.clone(),
                            start,
                            end: ev.vt,
                        });
                    }
                }
                _ => {}
            }
        }
        out
    }
}

/// A reader's position in one recorder (`TRACE FOLLOW`): the next event it
/// has not seen, in each ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCursor {
    msgs: u64,
    phases: u64,
}

struct State {
    /// Sends, receives and [`TRAFFIC_PHASES`], bounded by the configured
    /// capacity.
    msgs: SeqRing<TraceEvent>,
    /// Everything else, bounded by [`PHASE_CAPACITY`].
    phases: SeqRing<TraceEvent>,
    /// The process Lamport clock.
    lamport: u64,
    /// Causal cursor: the trace/span subsequent sends attach to. Set by
    /// the latest delivered traced message or an open phase.
    cur_trace: u64,
    cur_parent: u64,
    /// Next span id suffix.
    span_ctr: u64,
}

impl State {
    fn mint(&mut self, span_base: u64) -> TraceCtx {
        self.span_ctr += 1;
        let span = span_base | (self.span_ctr & 0xff_ffff);
        TraceCtx {
            trace: if self.cur_trace != 0 {
                self.cur_trace
            } else {
                span
            },
            span,
            parent: self.cur_parent,
            // `lamport + 1` is the value the Send event is stamped with
            // when nothing is recorded in between; the wire carries the
            // same value so the receiver's `max + 1` lands strictly after
            // it.
            lamport: self.lamport + 1,
        }
    }

    fn push_send(
        &mut self,
        vt: VirtualTime,
        peer: u32,
        context: u32,
        tag: u64,
        bytes: usize,
        ctx: TraceCtx,
    ) {
        self.push(
            vt,
            EventKind::Send {
                peer,
                context,
                tag,
                bytes: bytes as u32,
                ctx,
            },
        );
    }

    fn push(&mut self, vt: VirtualTime, kind: EventKind) {
        self.lamport += 1;
        let ev = TraceEvent {
            // Events ever recorded here, across both rings.
            seq: self.msgs.pushed() + self.phases.pushed(),
            lamport: self.lamport,
            vt,
            kind,
        };
        match &ev.kind {
            EventKind::Send { .. } | EventKind::Recv { .. } => self.msgs.push(ev),
            EventKind::PhaseBegin { name } | EventKind::PhaseEnd { name, .. }
                if name.starts_with(TRAFFIC_PHASES) =>
            {
                self.msgs.push(ev)
            }
            _ => self.phases.push(ev),
        };
    }
}

struct Inner {
    scope: String,
    /// High bits of every span id minted here (derived from the scope), so
    /// spans are unique across the recorders of one cluster.
    span_base: u64,
    state: Mutex<State>,
}

/// Handle to a flight recorder. Cheap to clone; all clones share the rings.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Inner>>,
}

/// FNV-1a, the same cheap stable hash the rest of the workspace idiom uses
/// for deterministic non-cryptographic ids.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

impl FlightRecorder {
    /// Create an enabled recorder whose message ring holds `cap` events.
    pub fn new(scope: &str, cap: usize) -> FlightRecorder {
        FlightRecorder::with_incarnation(scope, cap, 0)
    }

    /// Like [`FlightRecorder::new`], but salting the span-id namespace with
    /// an incarnation number. A restarted process re-registers its scope
    /// (replacing the dead ring), yet surviving peers still hold receive
    /// events stamped with the old incarnation's span ids; a distinct
    /// namespace per incarnation keeps the reassembler from pairing those
    /// stale receives with the new incarnation's sends.
    pub fn with_incarnation(scope: &str, cap: usize, incarnation: u64) -> FlightRecorder {
        // Reserve 24 bits for the per-recorder counter; keep the top bit
        // set so a real span id can never collide with the 0 sentinel.
        let span_base =
            (fnv1a(scope).wrapping_add(incarnation.wrapping_mul(0x9e37_79b9_7f4a_7c15)) << 24)
                | (1 << 63);
        FlightRecorder {
            inner: Some(Arc::new(Inner {
                scope: scope.to_string(),
                span_base,
                state: Mutex::new(State {
                    msgs: SeqRing::new(cap),
                    phases: SeqRing::new(PHASE_CAPACITY),
                    lamport: 0,
                    cur_trace: 0,
                    cur_parent: 0,
                    span_ctr: 0,
                }),
            })),
        }
    }

    /// A recorder that records nothing (one branch per call).
    pub fn disabled() -> FlightRecorder {
        FlightRecorder { inner: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The recorder's scope; empty for a disabled recorder.
    pub fn scope(&self) -> &str {
        self.inner.as_ref().map(|i| i.scope.as_str()).unwrap_or("")
    }

    /// Run `f` under the state lock; a disabled recorder answers with the
    /// empty value (`()`, 0, [`TraceCtx::NONE`]) without running it.
    fn with<R: Default>(&self, f: impl FnOnce(&Inner, &mut State) -> R) -> R {
        match &self.inner {
            Some(inner) => f(inner, &mut inner.state.lock()),
            None => R::default(),
        }
    }

    /// Events evicted so far, over both rings.
    pub fn dropped(&self) -> u64 {
        self.with(|_, s| s.msgs.dropped() + s.phases.dropped())
    }

    /// Events currently retained, over both rings.
    pub fn len(&self) -> usize {
        self.with(|_, s| s.msgs.len() + s.phases.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current Lamport clock value.
    pub fn lamport(&self) -> u64 {
        self.with(|_, s| s.lamport)
    }

    /// Record a send and mint the context to stamp on the wire. Returns
    /// [`TraceCtx::NONE`] when disabled, so callers can pass the result to
    /// the framing layer unconditionally.
    pub fn on_send(
        &self,
        vt: VirtualTime,
        peer: u32,
        context: u32,
        tag: u64,
        bytes: usize,
    ) -> TraceCtx {
        self.with(|inner, s| {
            let ctx = s.mint(inner.span_base);
            s.push_send(vt, peer, context, tag, bytes, ctx);
            ctx
        })
    }

    /// First half of [`on_send`](Self::on_send) for senders whose send can
    /// fail: mint the wire context without recording anything. Follow a
    /// successful send with [`record_send`](Self::record_send); after a
    /// failed one do nothing (the span id is simply never used).
    pub fn mint_send(&self) -> TraceCtx {
        self.with(|inner, s| s.mint(inner.span_base))
    }

    /// Second half of [`on_send`](Self::on_send): record the send that
    /// carried `ctx` (from [`mint_send`](Self::mint_send)).
    pub fn record_send(
        &self,
        vt: VirtualTime,
        peer: u32,
        context: u32,
        tag: u64,
        bytes: usize,
        ctx: TraceCtx,
    ) {
        self.with(|_, s| s.push_send(vt, peer, context, tag, bytes, ctx));
    }

    /// Record a delivered message. Folds the sender's Lamport clock in
    /// and moves the causal cursor to the sender's span, so work this
    /// process does next is attributed to the arriving operation.
    pub fn on_recv(
        &self,
        vt: VirtualTime,
        peer: u32,
        context: u32,
        tag: u64,
        bytes: usize,
        ctx: TraceCtx,
    ) {
        self.with(|_, s| {
            if ctx.is_some() {
                s.lamport = s.lamport.max(ctx.lamport);
                s.cur_trace = ctx.trace;
                s.cur_parent = ctx.span;
            }
            s.push(
                vt,
                EventKind::Recv {
                    peer,
                    context,
                    tag,
                    bytes: bytes as u32,
                    ctx,
                },
            );
        })
    }

    /// Open a named phase; sends recorded until the matching
    /// [`phase_end`](Self::phase_end) parent to it.
    pub fn phase_begin(&self, vt: VirtualTime, name: &str) {
        self.with(|inner, s| {
            s.span_ctr += 1;
            let span = inner.span_base | (s.span_ctr & 0xff_ffff);
            if s.cur_trace == 0 {
                s.cur_trace = span;
            }
            s.cur_parent = span;
            s.push(
                vt,
                EventKind::PhaseBegin {
                    name: name.to_string(),
                },
            );
        })
    }

    /// Close the innermost open phase of `name`, annotating it with what
    /// is only known now (`detail`: the checkpoint index, the line restored
    /// to), and reset the causal cursor.
    pub fn phase_end(&self, vt: VirtualTime, name: &str, detail: &str) {
        self.with(|_, s| {
            s.cur_trace = 0;
            s.cur_parent = 0;
            s.push(
                vt,
                EventKind::PhaseEnd {
                    name: name.to_string(),
                    detail: detail.to_string(),
                },
            );
        })
    }

    /// Record a phase that was timed by its caller, as one begin/end pair.
    /// The causal cursor is left alone: the interval is already over, and
    /// it may lie inside a phase that is still open.
    pub fn span(&self, start: VirtualTime, end: VirtualTime, name: &str, detail: &str) {
        self.with(|_, s| {
            s.push(
                start,
                EventKind::PhaseBegin {
                    name: name.to_string(),
                },
            );
            s.push(
                end,
                EventKind::PhaseEnd {
                    name: name.to_string(),
                    detail: detail.to_string(),
                },
            );
        })
    }

    /// Record a membership view installation.
    pub fn view_change(&self, vt: VirtualTime, view: u64, members: u32) {
        self.with(|_, s| s.push(vt, EventKind::ViewChange { view, members }))
    }

    /// Record a point annotation.
    pub fn mark(&self, vt: VirtualTime, name: &str, detail: &str) {
        self.with(|_, s| {
            s.push(
                vt,
                EventKind::Mark {
                    name: name.to_string(),
                    detail: detail.to_string(),
                },
            )
        })
    }

    /// Record an injected fault.
    pub fn fault(&self, vt: VirtualTime, desc: &str) {
        self.with(|_, s| {
            s.push(
                vt,
                EventKind::Fault {
                    desc: desc.to_string(),
                },
            )
        })
    }

    /// A cursor at the live edge: polling it yields only events recorded
    /// after this call.
    pub fn live_edge(&self) -> TraceCursor {
        self.with(|_, s| TraceCursor {
            msgs: s.msgs.pushed(),
            phases: s.phases.pushed(),
        })
    }

    /// Events recorded since `cur` in record order, plus how many more were
    /// evicted before this reader got to them. Advances `cur`.
    pub fn poll(&self, cur: &mut TraceCursor) -> (Vec<TraceEvent>, u64) {
        self.with(|_, s| {
            let (mut events, missed_msgs) = s.msgs.since(cur.msgs);
            let (phases, missed_phases) = s.phases.since(cur.phases);
            events.extend(phases);
            // Two seq-sorted runs: the stable sort merges them in O(n).
            events.sort_by_key(|e| e.seq);
            *cur = TraceCursor {
                msgs: s.msgs.pushed(),
                phases: s.phases.pushed(),
            };
            (events, missed_msgs + missed_phases)
        })
    }

    /// Snapshot everything retained (record order).
    pub fn dump(&self) -> ProcTrace {
        let (events, dropped) = self.poll(&mut TraceCursor::default());
        ProcTrace {
            scope: self.scope().to_string(),
            dropped,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vt(n: u64) -> VirtualTime {
        VirtualTime::from_nanos(n)
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = FlightRecorder::disabled();
        assert!(r.on_send(vt(1), 0, 1, 0, 8).is_none());
        r.on_recv(vt(2), 0, 1, 0, 8, TraceCtx::NONE);
        assert_eq!(r.len(), 0);
        assert_eq!(r.dump().events.len(), 0);
    }

    #[test]
    fn lamport_is_strictly_monotone_per_recorder() {
        let r = FlightRecorder::new("app0.r0", 64);
        r.on_send(vt(1), 1, 1, 7, 8);
        r.mark(vt(2), "x", "");
        r.on_recv(vt(3), 1, 1, 7, 8, TraceCtx::NONE);
        let d = r.dump();
        for w in d.events.windows(2) {
            assert!(w[1].lamport > w[0].lamport);
        }
    }

    #[test]
    fn recv_folds_in_the_sender_clock() {
        let a = FlightRecorder::new("app0.r0", 64);
        let b = FlightRecorder::new("app0.r1", 64);
        // Advance a's clock well past b's.
        for _ in 0..10 {
            a.mark(vt(1), "tick", "");
        }
        let ctx = a.on_send(vt(2), 1, 1, 0, 4);
        b.on_recv(vt(3), 0, 1, 0, 4, ctx);
        let recv = b.dump().events.pop().unwrap();
        assert!(
            recv.lamport > ctx.lamport,
            "receive must land strictly after the send ({} vs {})",
            recv.lamport,
            ctx.lamport
        );
    }

    #[test]
    fn message_ring_evicts_and_counts_drops_exactly() {
        let r = FlightRecorder::new("app0.r0", 8);
        for i in 0..100 {
            r.on_send(vt(i), 1, 1, i, 8);
        }
        let d = r.dump();
        assert_eq!(d.events.len(), 8);
        assert_eq!(d.dropped, 92);
        assert_eq!(r.dropped(), 92);
        // seq keeps counting across evictions.
        assert_eq!(d.events.first().unwrap().seq, 92);
        assert_eq!(d.events.last().unwrap().seq, 99);
    }

    /// Traffic cannot evict structure: phases survive any number of
    /// sends, and the dump interleaves both rings in record order.
    #[test]
    fn phases_outlive_message_eviction() {
        let r = FlightRecorder::new("app0.r0", 4);
        r.phase_begin(vt(1), "ckpt.round");
        r.phase_end(vt(2), "ckpt.round", "index 1");
        for i in 0..50 {
            r.on_send(vt(10 + i), 1, 1, i, 8);
        }
        // Per-call spans are traffic too: 2 events each, in the same ring.
        for i in 0..PHASE_CAPACITY as u64 {
            r.span(vt(60), vt(61 + i), "coll.allreduce", "ring");
        }
        r.span(vt(70), vt(80), "ckpt.write", "index 2, 64 B");
        r.on_send(vt(90), 1, 1, 50, 8);
        let d = r.dump();
        assert_eq!(d.dropped, 51 + 2 * PHASE_CAPACITY as u64 - 4);
        assert_eq!(d.events.len(), 4 + 4);
        for w in d.events.windows(2) {
            assert!(w[0].seq < w[1].seq && w[0].lamport < w[1].lamport);
        }
        // The last send was recorded after the span: it dumps after it.
        assert!(matches!(
            d.events.last().unwrap().kind,
            EventKind::Send { tag: 50, .. }
        ));
        let phases = d.phases();
        assert_eq!(
            phases
                .iter()
                .map(|p| (p.name.as_str(), p.detail.as_str(), p.start, p.end))
                .collect::<Vec<_>>(),
            vec![
                ("ckpt.round", "index 1", vt(1), vt(2)),
                // The newest of them is still in the 4-slot message ring.
                (
                    "coll.allreduce",
                    "ring",
                    vt(60),
                    vt(60 + PHASE_CAPACITY as u64)
                ),
                ("ckpt.write", "index 2, 64 B", vt(70), vt(80)),
            ]
        );
    }

    /// A caller-timed span inside an open phase must not detach the sends
    /// that follow it from that phase.
    #[test]
    fn span_leaves_the_causal_cursor_alone() {
        let r = FlightRecorder::new("app0.r0", 16);
        r.phase_begin(vt(1), "ckpt.round");
        let before = r.on_send(vt(2), 1, 1, 0, 1);
        r.span(vt(2), vt(3), "ckpt.write", "index 1, 8 B");
        let after = r.on_send(vt(4), 1, 1, 1, 1);
        assert_ne!(after.parent, 0);
        assert_eq!((after.trace, after.parent), (before.trace, before.parent));
    }

    #[test]
    fn phase_fold_pairs_innermost_and_skips_unclosed() {
        let r = FlightRecorder::new("app0.r0", 4);
        r.phase_end(vt(1), "orphan", ""); // begin evicted / never seen
        r.phase_begin(vt(2), "outer");
        r.phase_begin(vt(3), "outer");
        r.phase_end(vt(4), "outer", "inner one");
        r.phase_begin(vt(5), "running");
        r.phase_end(vt(6), "outer", "");
        let spans: Vec<_> = r
            .dump()
            .phases()
            .into_iter()
            .map(|p| (p.detail, p.start, p.end))
            .collect();
        assert_eq!(
            spans,
            vec![
                ("inner one".to_string(), vt(3), vt(4)),
                (String::new(), vt(2), vt(6))
            ]
        );
    }

    #[test]
    fn cursor_reports_exactly_what_it_missed() {
        let r = FlightRecorder::new("app0.r0", 4);
        r.mark(vt(1), "before", "");
        let mut cur = r.live_edge();
        assert_eq!(r.poll(&mut cur), (vec![], 0));
        for i in 0..10 {
            r.on_send(vt(i), 1, 1, i, 8);
        }
        r.mark(vt(20), "after", "");
        let (events, missed) = r.poll(&mut cur);
        assert_eq!(missed, 6);
        assert_eq!(events.len(), 5);
        assert!(matches!(events[4].kind, EventKind::Mark { .. }));
        // The gap is charged once.
        assert_eq!(r.poll(&mut cur), (vec![], 0));
    }

    #[test]
    fn spans_are_unique_across_scopes() {
        let a = FlightRecorder::new("app0.r0", 16);
        let b = FlightRecorder::new("app0.r1", 16);
        let ca = a.on_send(vt(1), 1, 1, 0, 1);
        let cb = b.on_send(vt(1), 0, 1, 0, 1);
        assert_ne!(ca.span, cb.span);
        assert!(ca.is_some() && cb.is_some());
    }

    #[test]
    fn sends_inside_a_phase_parent_to_it() {
        let r = FlightRecorder::new("app0.r0", 16);
        let free = r.on_send(vt(1), 1, 1, 0, 1);
        assert_eq!(free.parent, 0);
        r.phase_begin(vt(2), "ckpt.round");
        let inside = r.on_send(vt(3), 1, 1, 0, 1);
        assert_ne!(inside.parent, 0);
        assert_eq!(inside.trace, inside.parent);
        r.phase_end(vt(4), "ckpt.round", "");
        let after = r.on_send(vt(5), 1, 1, 0, 1);
        assert_eq!(after.parent, 0);
    }
}
