//! The per-process flight recorder: an always-on, bounded record of
//! [`TraceEvent`]s plus the process's Lamport clock. A daemon's recorder is
//! also where the cluster's event stream lives: [`EventLog`] reads that
//! record class on its own.
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
//! 3. **Never lossy about being lossy.** Every ring is a [`SeqRing`]:
//!    eviction is counted exactly and `seq` keeps counting, so a dump
//!    always says how much history is missing.
//! 4. **Traffic cannot evict structure.** Retention is per record class,
//!    one ring each. Sends, receives and the phases recorded once per
//!    operation ([`TRAFFIC_PHASES`]) fill the message ring; cluster events
//!    have a ring of their own, of fixed size; everything else (phases,
//!    marks, view changes, faults) a third one, also of fixed size. So a
//!    job that moves 20 000 messages or runs 600 allreduces between two
//!    checkpoint rounds still shows both rounds in `TIMELINE`, and a
//!    recovery's events in its postmortem.
//! 5. **Sampled at the root, whole when sampled.** A data-path send with
//!    no causal cursor starts a trace, and one such root in
//!    [`SAMPLE_EVERY`] does; the others leave without a context and record
//!    nothing but a per-peer tally ([`Unsampled`]). A send with a cursor
//!    (inside a sampled trace or an open phase) always carries its
//!    context, so every recorded trace is recorded whole. A trace ends
//!    where it comes home, or at the next receive without a context.

use std::sync::Arc;

use parking_lot::Mutex;
use starfish_util::ring::SeqRing;
use starfish_util::{NodeId, VirtualTime};

use crate::context::{span_base, TraceCtx, SPAN_COUNTER_MASK};
use crate::event::{ClusterEvent, EventKind as ClusterKind};
use crate::record::{EventKind, TraceEvent};

/// Default message-ring capacity (events) of recorders created by the
/// cluster.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Capacity of the phase ring. A constant: phases are rare (a handful per
/// checkpoint round or recovery), so no workload needs a different bound.
pub const PHASE_CAPACITY: usize = 1024;

/// Capacity of the cluster-event ring. A constant: enough for every event
/// of a sizeable recovery with checkpoint traffic around it, small enough
/// to never matter in memory.
pub const EVENT_CAPACITY: usize = 4096;

/// One data-path root in this many carries a context: the first, then
/// every 64th root that left this recorder (head-based sampling).
pub(crate) const SAMPLE_EVERY: u64 = 64;

/// Name prefix of the phases that occur at message rate — the `coll.<op>`
/// span of every collective call. They are traffic: filed in the message
/// ring, where a long run of them ages out sends and receives, never a
/// `ckpt.round`.
pub(crate) const TRAFFIC_PHASES: &str = "coll.";

/// One process's dumped rings: what the reassembler and exporters consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcTrace {
    /// The recorder's scope (`"app1.r0"`, `"n2"`, `"chaos"`, ...).
    pub scope: String,
    /// Events evicted before this dump.
    pub dropped: u64,
    /// Retained events of every ring, in record order.
    pub events: Vec<TraceEvent>,
    /// The traffic sampling left unrecorded, per peer, by peer.
    pub unsampled: Vec<Unsampled>,
}

/// What one peer exchanged with a recorder that no event records: the
/// sampled-out data-path sends and the receives that arrived without a
/// context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Unsampled {
    pub peer: u32,
    pub sent: u64,
    pub sent_bytes: u64,
    pub recvd: u64,
    pub recvd_bytes: u64,
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
/// has not seen, in each ring. [`EventLog::poll`] reads and moves only its
/// cluster-event position (`EVENTS SUBSCRIBE`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCursor {
    msgs: u64,
    phases: u64,
    events: u64,
}

struct State {
    /// Sends, receives and [`TRAFFIC_PHASES`], bounded by the configured
    /// capacity.
    msgs: SeqRing<TraceEvent>,
    /// Cluster events, bounded by [`EVENT_CAPACITY`]. Their ring index is
    /// their [`ClusterEvent::seq`].
    events: SeqRing<TraceEvent>,
    /// Everything else, bounded by [`PHASE_CAPACITY`].
    phases: SeqRing<TraceEvent>,
    /// The process Lamport clock.
    lamport: u64,
    /// Causal cursor: the trace/span subsequent sends attach to (0: none,
    /// a send is a root). Set by the latest delivered traced message or an
    /// open phase; [`State::end_trace`] returns it to the phases.
    cur_trace: u64,
    cur_parent: u64,
    /// The open phases, innermost last: name, trace and span.
    open: Vec<(String, u64, u64)>,
    /// Spans minted so far; the next span id's suffix is one more.
    span_ctr: u64,
    /// Data-path roots that left, sampled or not: the sampling clock.
    roots: u64,
    /// Sampled-out traffic, per peer in first-contact order (a process
    /// talks to few peers, so a scan beats a map).
    unsampled: Vec<Unsampled>,
}

impl State {
    fn mint(&mut self, span_base: u64) -> TraceCtx {
        let ctx = self.next_ctx(span_base);
        self.span_ctr += 1;
        ctx
    }

    /// The context the next span would carry, minting nothing.
    fn next_ctx(&self, span_base: u64) -> TraceCtx {
        let span = span_base | ((self.span_ctr + 1) & SPAN_COUNTER_MASK);
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

    /// End the current trace: the cursor returns to the innermost open
    /// phase's, or to none.
    fn end_trace(&mut self) {
        (self.cur_trace, self.cur_parent) = self.open.last().map_or((0, 0), |p| (p.1, p.2));
    }

    /// The tally of sampled-out traffic with `peer`.
    fn unsampled(&mut self, peer: u32) -> &mut Unsampled {
        let i = match self.unsampled.iter().position(|t| t.peer == peer) {
            Some(i) => i,
            None => {
                self.unsampled.push(Unsampled {
                    peer,
                    ..Unsampled::default()
                });
                self.unsampled.len() - 1
            }
        };
        &mut self.unsampled[i]
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

    /// The position past everything recorded so far.
    fn edge(&self) -> TraceCursor {
        TraceCursor {
            msgs: self.msgs.pushed(),
            phases: self.phases.pushed(),
            events: self.events.pushed(),
        }
    }

    fn push(&mut self, vt: VirtualTime, kind: EventKind) {
        self.lamport += 1;
        let ev = TraceEvent {
            // Events ever recorded here, across all rings.
            seq: self.msgs.pushed() + self.events.pushed() + self.phases.pushed(),
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
            EventKind::Cluster(_) => self.events.push(ev),
            _ => self.phases.push(ev),
        };
    }
}

struct Inner {
    scope: String,
    /// High bits of every span id minted here ([`span_base`] of the scope
    /// and incarnation), so spans are unique across the recorders of one
    /// cluster.
    span_base: u64,
    state: Mutex<State>,
}

/// Handle to a flight recorder. Cheap to clone; all clones share the rings.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Inner>>,
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
        FlightRecorder {
            inner: Some(Arc::new(Inner {
                scope: scope.to_string(),
                span_base: span_base(scope, incarnation),
                state: Mutex::new(State {
                    msgs: SeqRing::new(cap),
                    events: SeqRing::new(EVENT_CAPACITY),
                    phases: SeqRing::new(PHASE_CAPACITY),
                    lamport: 0,
                    cur_trace: 0,
                    cur_parent: 0,
                    open: Vec::new(),
                    span_ctr: 0,
                    roots: 0,
                    unsampled: Vec::new(),
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

    /// Events evicted so far, over all rings.
    pub fn dropped(&self) -> u64 {
        self.with(|_, s| s.msgs.dropped() + s.events.dropped() + s.phases.dropped())
    }

    /// Events currently retained, over all rings.
    pub fn len(&self) -> usize {
        self.with(|_, s| s.msgs.len() + s.events.len() + s.phases.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Record a send and mint the context to stamp on the wire: the path
    /// of ensemble casts, which are not sampled.
    /// Returns [`TraceCtx::NONE`] when disabled, so callers can pass the
    /// result to the framing layer unconditionally.
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

    /// First half of a sampled data-path send, for senders whose send can
    /// fail: the context the send carries, consuming nothing. A send with
    /// a cursor carries one; a root does when it is the first of
    /// [`SAMPLE_EVERY`] roots, and is [`TraceCtx::NONE`] otherwise. Follow
    /// a successful send with [`record_send`](Self::record_send); after a
    /// failed one do nothing, so a retry gets the same answer.
    pub fn mint_send(&self) -> TraceCtx {
        self.with(|inner, s| {
            if s.cur_trace == 0 && !s.roots.is_multiple_of(SAMPLE_EVERY) {
                TraceCtx::NONE
            } else {
                s.next_ctx(inner.span_base)
            }
        })
    }

    /// Second half of a sampled data-path send: the send that carried
    /// `ctx` (from [`mint_send`](Self::mint_send), with nothing minted in
    /// between) left. Commits its span and records it, or tallies it
    /// under `peer` if it was sampled out.
    pub fn record_send(
        &self,
        vt: VirtualTime,
        peer: u32,
        context: u32,
        tag: u64,
        bytes: usize,
        ctx: TraceCtx,
    ) {
        self.with(|_, s| {
            if ctx.parent == 0 {
                s.roots += 1;
            }
            if ctx.is_some() {
                s.span_ctr += 1;
                s.push_send(vt, peer, context, tag, bytes, ctx);
            } else {
                let t = s.unsampled(peer);
                t.sent += 1;
                t.sent_bytes += bytes as u64;
            }
        })
    }

    /// A message was delivered. A traced one is recorded, its sender's
    /// Lamport clock folded in, and the causal cursor moved to its span,
    /// so work this process does next is attributed to the arriving
    /// operation — unless its trace was minted here: it came home, and
    /// the trace ends. One without a context is tallied under `peer` and
    /// ends an adopted trace the same way, so the latest delivered message
    /// wins either way.
    pub fn on_recv(
        &self,
        vt: VirtualTime,
        peer: u32,
        context: u32,
        tag: u64,
        bytes: usize,
        ctx: TraceCtx,
    ) {
        self.with(|inner, s| {
            if ctx.is_none() {
                s.end_trace();
                let t = s.unsampled(peer);
                t.recvd += 1;
                t.recvd_bytes += bytes as u64;
                return;
            }
            s.lamport = s.lamport.max(ctx.lamport);
            if ctx.trace & !SPAN_COUNTER_MASK == inner.span_base {
                s.end_trace();
            } else {
                (s.cur_trace, s.cur_parent) = (ctx.trace, ctx.span);
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

    /// The process reached a safepoint or a checkpoint call: an adopted
    /// trace ends there, as at a receive without a context, and the cursor
    /// returns to the innermost open phase's, or to none. What a rank does
    /// after its safepoint is its own next step, not the tail of the last
    /// traced message it received; an open phase's cursor survives.
    pub fn end_trace(&self) {
        self.with(|_, s| s.end_trace())
    }

    /// Open a named phase; sends until the matching
    /// [`phase_end`](Self::phase_end) parent to it, and an ended trace
    /// returns the cursor to it.
    pub fn phase_begin(&self, vt: VirtualTime, name: &str) {
        self.with(|inner, s| {
            let TraceCtx { trace, span, .. } = s.mint(inner.span_base);
            (s.cur_trace, s.cur_parent) = (trace, span);
            s.open.push((name.to_string(), trace, span));
            s.push(
                vt,
                EventKind::PhaseBegin {
                    name: name.to_string(),
                },
            );
        })
    }

    /// Close the innermost open phase of `name` (and any left open inside
    /// it), annotating it with what is only known now (`detail`: the
    /// checkpoint index, the line restored to), and return the causal
    /// cursor to the phase around it, or to none.
    pub fn phase_end(&self, vt: VirtualTime, name: &str, detail: &str) {
        self.with(|_, s| {
            if let Some(pos) = s.open.iter().rposition(|p| p.0 == name) {
                s.open.truncate(pos);
            }
            s.end_trace();
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

    /// Record a cluster event, assigning it the next sequence number of
    /// its class. Returns the sequenced event, or `None` when disabled.
    pub fn record_event(
        &self,
        origin: NodeId,
        vt: VirtualTime,
        kind: ClusterKind,
    ) -> Option<ClusterEvent> {
        self.with(|_, s| {
            let seq = s.events.pushed();
            let ev = ClusterEvent {
                seq,
                vt,
                origin,
                kind,
            };
            s.push(vt, EventKind::Cluster(Box::new(ev.clone())));
            Some(ev)
        })
    }

    /// The cluster-event class of this recorder, read on its own.
    pub fn events(&self) -> EventLog {
        EventLog(self.clone())
    }

    /// A cursor at the live edge: polling it yields only events recorded
    /// after this call.
    pub fn live_edge(&self) -> TraceCursor {
        self.with(|_, s| s.edge())
    }

    /// Events recorded since `cur` in record order, plus how many more were
    /// evicted before this reader got to them. Advances `cur`.
    pub fn poll(&self, cur: &mut TraceCursor) -> (Vec<TraceEvent>, u64) {
        self.with(|_, s| {
            let (mut events, mut missed) = s.msgs.since(cur.msgs);
            for (ring, from) in [(&s.events, cur.events), (&s.phases, cur.phases)] {
                let (more, gap) = ring.since(from);
                events.extend(more);
                missed += gap;
            }
            // Seq-sorted runs: the stable sort merges them in O(n).
            events.sort_by_key(|e| e.seq);
            *cur = s.edge();
            (events, missed)
        })
    }

    /// Snapshot everything retained (record order).
    pub fn dump(&self) -> ProcTrace {
        let (events, dropped) = self.poll(&mut TraceCursor::default());
        let mut unsampled = self.with(|_, s| s.unsampled.clone());
        unsampled.sort_by_key(|t| t.peer);
        ProcTrace {
            scope: self.scope().to_string(),
            dropped,
            events,
            unsampled,
        }
    }
}

/// The cluster-event class of one [`FlightRecorder`], read on its own:
/// what `EVENTS`, the postmortem and `Cluster::events()` see. Sequence
/// numbers and drops count this class alone, so they are exact, and equal
/// on every daemon at equal positions of the ordered stream. A disabled
/// recorder reads as empty.
#[derive(Clone)]
pub struct EventLog(FlightRecorder);

impl EventLog {
    fn read<R: Default>(&self, f: impl FnOnce(&SeqRing<TraceEvent>) -> R) -> R {
        self.0.with(|_, s| f(&s.events))
    }

    /// Events ever recorded (== the next seq to assign).
    pub fn published(&self) -> u64 {
        self.read(|r| r.pushed())
    }

    /// Exact count of events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.read(|r| r.dropped())
    }

    /// Events with `seq >= from`, oldest first, plus how many events in that
    /// range were already evicted (the gap a late reader can never see).
    pub fn since(&self, from: u64) -> (Vec<ClusterEvent>, u64) {
        let (records, missed) = self.read(|r| r.since(from));
        let events = records.iter().filter_map(TraceEvent::cluster).cloned();
        (events.collect(), missed)
    }

    /// Every retained event, oldest first.
    pub fn snapshot(&self) -> Vec<ClusterEvent> {
        self.since(0).0
    }

    /// The last `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<ClusterEvent> {
        self.since(self.published().saturating_sub(n as u64)).0
    }

    /// A cursor at the live edge: `EVENTS SUBSCRIBE` sees only what happens
    /// after it subscribed.
    pub fn live_edge(&self) -> TraceCursor {
        self.0.live_edge()
    }

    /// Events since `cur`'s cluster-event position, plus how many were
    /// evicted before this reader got to them; the gap is charged once.
    /// Advances that position only.
    pub fn poll(&self, cur: &mut TraceCursor) -> (Vec<ClusterEvent>, u64) {
        let (events, missed) = self.since(cur.events);
        cur.events += missed + events.len() as u64;
        (events, missed)
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

    /// Every rank's ring is made of these records: the boxed cluster event
    /// must not grow them.
    #[test]
    fn trace_event_stays_80_bytes() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 80);
    }

    fn node_up(n: u32) -> ClusterKind {
        ClusterKind::NodeUp { node: NodeId(n) }
    }

    /// Cluster events are a retention class of their own: a message flood
    /// evicts none of them, and their sequence counts that class alone.
    #[test]
    fn traffic_cannot_evict_cluster_events() {
        let r = FlightRecorder::new("n0", 4);
        for i in 0..3 {
            r.on_send(vt(i), 1, 1, i, 8);
            let ev = r.record_event(NodeId(0), vt(i), node_up(i as u32)).unwrap();
            assert_eq!(ev.seq, i);
        }
        for i in 0..100 {
            r.on_send(vt(10 + i), 1, 1, i, 8);
        }
        let log = r.events();
        assert_eq!((log.published(), log.dropped()), (3, 0));
        let seqs: Vec<u64> = log.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(log.tail(2)[0].seq, 1);
        assert_eq!(r.dropped(), 103 - 4);
        // One stream: the dump interleaves them with the traffic.
        let d = r.dump();
        assert_eq!(d.events.iter().filter_map(TraceEvent::cluster).count(), 3);
        assert!(d.events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn event_class_is_inert_when_disabled() {
        let r = FlightRecorder::disabled();
        assert_eq!(
            r.record_event(NodeId(0), VirtualTime::ZERO, node_up(1)),
            None
        );
        let log = r.events();
        assert_eq!((log.published(), log.dropped()), (0, 0));
        assert!(log.snapshot().is_empty());
        let mut cur = log.live_edge();
        assert_eq!(log.poll(&mut cur), (vec![], 0));
    }

    #[test]
    fn event_cursor_sees_only_post_subscribe_events() {
        let r = FlightRecorder::new("n0", 64);
        for i in 0..3 {
            r.record_event(NodeId(0), vt(i * 10), node_up(i as u32));
        }
        let log = r.events();
        let mut cur = log.live_edge();
        assert_eq!(log.poll(&mut cur), (vec![], 0));
        r.mark(vt(98), "not an event", "");
        r.record_event(NodeId(1), vt(99), node_up(42));
        let (events, missed) = log.poll(&mut cur);
        assert_eq!(missed, 0);
        assert_eq!(events.len(), 1);
        assert_eq!((events[0].seq, events[0].origin), (3, NodeId(1)));
        // Drained: next poll is empty.
        assert_eq!(log.poll(&mut cur), (vec![], 0));
    }

    #[test]
    fn event_cursor_reports_exact_gap_when_lapped() {
        let r = FlightRecorder::new("n0", 4);
        let log = r.events();
        let mut cur = log.live_edge();
        let total = EVENT_CAPACITY as u64 + 6;
        for i in 0..total {
            r.record_event(NodeId(0), VirtualTime::ZERO, node_up(i as u32));
        }
        let (events, missed) = log.poll(&mut cur);
        // The ring holds the newest EVENT_CAPACITY; the cursor wanted all
        // of them, so it missed exactly what the class counts as dropped.
        assert_eq!(missed, 6);
        assert_eq!(missed, log.dropped());
        assert_eq!(events.len(), EVENT_CAPACITY);
        assert_eq!(events[0].seq, 6);
        // Gap charged once: a further poll with no records misses nothing.
        assert_eq!(log.poll(&mut cur), (vec![], 0));
    }

    #[test]
    fn concurrent_event_publishers_never_lose_a_seq() {
        let r = FlightRecorder::new("n0", 16);
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let r = r.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        let app = starfish_util::AppId(t);
                        r.record_event(NodeId(t), vt(i), ClusterKind::CkptRoundBegin { app });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let log = r.events();
        assert_eq!((log.published(), log.dropped()), (400, 0));
        // Retained window is dense and sorted.
        let snap = log.snapshot();
        assert_eq!(snap.len(), 400);
        assert!(snap.windows(2).all(|w| w[1].seq == w[0].seq + 1));
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

    /// One data-path send: mint, then record as having left.
    fn send(r: &FlightRecorder, peer: u32, tag: u64) -> TraceCtx {
        let ctx = r.mint_send();
        r.record_send(vt(tag), peer, 1, tag, 8, ctx);
        ctx
    }

    /// 64·k roots record k sends, the first of each 64; the rest, and the
    /// receives without a context, are tallied per peer.
    #[test]
    fn one_root_in_64_is_recorded_and_the_rest_are_tallied_per_peer() {
        let r = FlightRecorder::new("app0.r0", 16);
        for tag in 0..3 * SAMPLE_EVERY {
            let ctx = send(&r, 1 + (tag % 2) as u32, tag);
            assert_eq!(ctx.is_some(), tag.is_multiple_of(SAMPLE_EVERY), "{tag}");
            assert_eq!((ctx.trace, ctx.parent), (ctx.span, 0));
        }
        r.on_recv(vt(500), 2, 1, 0, 5, TraceCtx::NONE);
        r.on_recv(vt(501), 3, 1, 0, 7, TraceCtx::NONE);
        let d = r.dump();
        let tags: Vec<Option<u64>> = (d.events.iter())
            .map(|e| match e.kind {
                EventKind::Send { tag, .. } => Some(tag),
                _ => None,
            })
            .collect();
        // Only the sampled sends: an untraced receive records no event.
        assert_eq!(tags, [Some(0), Some(64), Some(128)]);
        let half = 3 * SAMPLE_EVERY / 2;
        let tally = |peer, sent: u64, recvd, recvd_bytes| Unsampled {
            peer,
            sent,
            sent_bytes: 8 * sent,
            recvd,
            recvd_bytes,
        };
        assert_eq!(
            d.unsampled,
            [
                tally(1, half - 3, 0, 0),
                tally(2, half, 1, 5),
                tally(3, 0, 1, 7)
            ]
        );
    }

    /// A trace that comes back to the recorder that minted it ends there:
    /// the next send is a root again, sampled out.
    #[test]
    fn a_context_that_comes_home_ends_the_trace() {
        let a = FlightRecorder::new("app0.r0", 16);
        let b = FlightRecorder::new("app0.r1", 16);
        let out = send(&a, 1, 0);
        b.on_recv(vt(1), 0, 1, 0, 8, out);
        let back = send(&b, 0, 1);
        assert_eq!((back.trace, back.parent), (out.trace, out.span));
        a.on_recv(vt(2), 1, 1, 1, 8, back);
        assert!(send(&a, 1, 2).is_none(), "the trace came home and ended");
        // The receiver keeps the adopted trace until something ends it.
        assert_eq!(b.mint_send().trace, out.trace);
        assert_eq!(a.dump().events.len(), 2, "the traced send and its answer");
        let dag = crate::reassemble(vec![a.dump(), b.dump()]);
        assert_eq!(dag.message_edges, 2);
    }

    /// A receive without a context ends an adopted trace: the latest
    /// delivered message wins, so the next send is a root of its own.
    #[test]
    fn a_receive_without_a_context_ends_an_adopted_trace() {
        let a = FlightRecorder::new("app0.r0", 16);
        let b = FlightRecorder::new("app0.r1", 16);
        let out = send(&a, 1, 0);
        b.on_recv(vt(1), 0, 1, 0, 8, out);
        assert_eq!(b.mint_send().trace, out.trace);
        b.on_recv(vt(2), 0, 1, 1, 8, TraceCtx::NONE);
        let root = send(&b, 0, 2);
        assert_eq!((root.trace, root.parent), (root.span, 0));
        assert!(send(&b, 0, 3).is_none(), "b's second root is sampled out");
    }

    /// A safepoint ends an adopted trace: the sends after it are roots,
    /// sampled as any other, however long the rank receives nothing.
    #[test]
    fn a_safepoint_ends_an_adopted_trace() {
        let a = FlightRecorder::new("app0.r0", 16);
        let b = FlightRecorder::new("app0.r1", 16);
        let out = send(&a, 1, 0);
        b.on_recv(vt(1), 0, 1, 0, 8, out);
        assert_eq!(b.mint_send().trace, out.trace);
        b.end_trace();
        let root = send(&b, 0, 1);
        assert_eq!((root.trace, root.parent), (root.span, 0));
        assert!(send(&b, 0, 2).is_none(), "b's second root is sampled out");
        // Inside a phase the cursor returns to the phase, not to none.
        b.phase_begin(vt(2), "ckpt.round");
        let phase = b.mint_send();
        let foreign = send(&FlightRecorder::new("app0.r2", 16), 1, 3);
        b.on_recv(vt(3), 2, 1, 3, 8, foreign);
        assert_eq!(b.mint_send().trace, foreign.trace);
        b.end_trace();
        let after = b.mint_send();
        assert_eq!((after.trace, after.parent), (phase.trace, phase.parent));
    }

    /// An open phase's cursor survives both end-of-trace rules, and each
    /// phase's end returns the cursor to the phase around it.
    #[test]
    fn an_open_phase_survives_both_end_of_trace_rules() {
        let a = FlightRecorder::new("app0.r0", 16);
        let b = FlightRecorder::new("app0.r1", 16);
        send(&b, 0, 0); // b's first root: the next ones are sampled out
        a.phase_begin(vt(1), "ckpt.round");
        let inside = send(&a, 1, 1);
        let phase = (inside.trace, inside.parent);
        assert_ne!(phase.1, 0);
        // Adopted, then ended by a receive without a context.
        b.on_recv(vt(2), 0, 1, 1, 8, inside);
        let back = send(&b, 0, 2);
        let foreign = send(&FlightRecorder::new("app0.r2", 16), 0, 3);
        a.on_recv(vt(3), 2, 1, 3, 8, foreign);
        assert_eq!(a.mint_send().trace, foreign.trace);
        a.on_recv(vt(4), 2, 1, 4, 8, TraceCtx::NONE);
        let after = send(&a, 1, 5);
        assert_eq!((after.trace, after.parent), phase);
        // Came home: ended, back to the phase.
        a.on_recv(vt(5), 1, 1, 2, 8, back);
        assert_eq!((a.mint_send().trace, a.mint_send().parent), phase);
        // A nested phase's end returns to the outer one.
        a.phase_begin(vt(6), "recovery.restore");
        assert_ne!(a.mint_send().parent, phase.1);
        a.phase_end(vt(7), "recovery.restore", "");
        assert_eq!((a.mint_send().trace, a.mint_send().parent), phase);
        a.phase_end(vt(8), "ckpt.round", "index 1");
        assert_eq!(send(&a, 1, 9).parent, 0);
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
