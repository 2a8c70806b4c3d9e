//! The per-process MPI engine: the I/O shell around the protocol machines.
//!
//! One [`MpiEndpoint`] lives inside each application process. Sends are
//! *eager* (paper §2.2.1 \[18\]): the message leaves immediately; the
//! receive side reads the process's own port, whose queue is always ready
//! (the paper's **polling thread** is the cost model of [`RecvMode`]).
//! Receives go through the classic posted/unexpected design: a receive
//! first scans the unexpected queue, then blocks on the port.
//!
//! Every protocol *decision* is made by a pure machine in a sibling module
//! — [`crate::credit`], [`crate::rendezvous`], [`crate::matching`],
//! [`crate::reliability`] — and this file acts on the answer (DESIGN.md §5b
//! has the table). What is left here is I/O: framing and the one emit path
//! (`emit`, shared by first sends and retransmissions), `fabric.send`, the
//! layer charges on the virtual clock, metrics / flight recorder / trace
//! sink, the wall clock, and the one blocking pump.
//!
//! The endpoint is also the C/R module's window onto the data path: flush
//! marks and Chandy–Lamport markers are sent with [`CTRL_CONTEXT`] so they
//! are FIFO with data but invisible to application receives, and the
//! channel state of a checkpoint (all unconsumed data messages) is captured
//! and restored through it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;

use starfish_telemetry::{metric, Registry};
use starfish_trace::{rank_scope, span_base, FlightRecorder, TraceCtx};
use starfish_util::trace::{ActorKind, MsgClass, TraceSink};
use starfish_util::{AppId, Epoch, Error, Rank, Result, VClock, VirtualTime};
use starfish_vni::{Addr, Fabric, Kick, LayerCosts, Packet, PacketKind, Port};

use crate::credit::{Credit, Route, DEFAULT_RNDV_THRESHOLD};
use crate::directory::RankDirectory;
use crate::matching::{MatchQueue, Matched};
use crate::reliability::{Flows, RxVerdict};
use crate::rendezvous::{ChunkOut, CtsCadence, Grant, RndvRx, RndvTx};
use crate::wire::{
    data_port, rank_of_port, MsgHeader, RelMsg, CTRL_CONTEXT, FLAG_RNDV_DATA, FLAG_RNDV_RTS,
};

/// Default real-time bound on blocking operations: long enough for any test
/// workload, short enough to turn a deadlock into a diagnosable error.
pub(crate) const BLOCKING_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a blocked concrete-source receive waits before probing the
/// sender's flow with a [`RelMsg::Ping`] (recovers dropped packets); also
/// the default CTS re-grant interval.
pub(crate) const REL_PING_INTERVAL: Duration = Duration::from_millis(25);

/// Longest a blocked wait goes without re-checking its abort flag.
const WAIT_SLICE: Duration = Duration::from_millis(100);

/// Default size of one rendezvous DATA chunk. A transfer larger than this
/// is shipped as a pipeline of chunk frames so the receiver's placement
/// copy of chunk *k* overlaps the wire transfer of chunk *k+1*, and so the
/// CTS round-trip overlaps the early chunks instead of preceding the whole
/// payload. A transfer that *fits* in one chunk takes the fully zero-copy
/// path: no placement buffer, the receiver delivers the sender's payload
/// slice as-is. The default equals [`crate::EAGER_CREDIT_BYTES`] so a single
/// optimistically-streamed chunk never exposes the receiver to more
/// un-granted bytes than eager credit would.
pub(crate) const RNDV_CHUNK_BYTES: usize = 1 << 20;

// A threshold-sized rendezvous transfer is one chunk: no placement buffer.
const _: () = assert!(DEFAULT_RNDV_THRESHOLD <= RNDV_CHUNK_BYTES);

/// Packets drained from the port per ingest round: a pipelined chunk burst
/// is pulled out of the port's queue in one lock acquisition.
pub(crate) const INGEST_BATCH: usize = 64;

/// One data-path frame as it left, which is everything a retransmission
/// needs — the reliable flows retain exactly this. Single-segment messages
/// keep their whole frame in `envelope` and no `seg`; rendezvous DATA
/// chunks and owned eager payloads keep the gather envelope (the header,
/// and a DATA chunk's descriptor) and the zero-copy payload. `depart` is
/// the virtual departure of the *first* send: a retransmission is a
/// real-time artifact of the faulty wire; protocol-wise the message left
/// when it first left.
#[derive(Debug, Clone)]
struct Frame {
    envelope: Bytes,
    seg: Option<Bytes>,
    model_len: usize,
    depart: VirtualTime,
    tag: u64,
}

/// What a receiver flow parks above a gap: the parsed header, the body, the
/// gather payload segment (empty for single-segment frames), the arrival
/// time and the trace context the frame carried, so delivery records it.
type Arrival = (MsgHeader, Bytes, Bytes, VirtualTime, TraceCtx);

/// The implied span bases of the trace-context codec at the endpoint's
/// epoch: the [`span_base`] of each rank of the application (index =
/// rank), which both ends of a frame derive from its header. Another
/// epoch's (a stale or early frame's) is computed afresh.
struct SpanBases {
    app: AppId,
    epoch: Epoch,
    by_rank: Vec<u64>,
}

impl SpanBases {
    fn new(app: AppId, ranks: usize, epoch: Epoch) -> SpanBases {
        let by_rank = (0..ranks as u32)
            .map(|r| Self::compute(app, Rank(r), epoch))
            .collect();
        SpanBases {
            app,
            epoch,
            by_rank,
        }
    }

    fn compute(app: AppId, rank: Rank, epoch: Epoch) -> u64 {
        span_base(&rank_scope(app, rank), epoch.0.into())
    }

    /// The bases of a frame from `src` to `dst` in `epoch`: the sender's,
    /// then the receiver's.
    fn pair(&self, src: Rank, dst: Rank, epoch: Epoch) -> [u64; 2] {
        [src, dst].map(|r| match self.by_rank.get(r.0 as usize) {
            Some(&base) if epoch == self.epoch => base,
            _ => Self::compute(self.app, r, epoch),
        })
    }
}

/// A received, matched message.
#[derive(Debug, Clone)]
pub struct RecvdMsg {
    /// Sender's world rank.
    pub src: Rank,
    pub tag: u64,
    pub data: Bytes,
    /// Sender's piggybacked checkpoint interval (uncoordinated C/R).
    pub interval: u64,
}

/// Non-blocking operation handle.
#[derive(Debug)]
pub enum Request {
    /// An eager send: already on the wire.
    Send { vt: VirtualTime },
    /// A rendezvous send: the RTS is on the wire, the payload leaves when
    /// the receiver's CTS arrives. Completed by `wait` (which pumps the
    /// network until the payload is pushed) or externally observable via
    /// [`MpiEndpoint::pending_rendezvous`].
    RndvSend { id: u64, vt: VirtualTime },
    /// A posted receive, completed by `wait`.
    Recv {
        context: u32,
        src: Option<Rank>,
        tag: Option<u64>,
    },
}

/// What a read of the port costs — the polling-thread ablation (§2.2.1).
/// Either way the rank reads its own port; the mode only decides the
/// virtual cost of doing so.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvMode {
    /// The paper's design: a polling thread has already taken the packets
    /// off the network, so a port read is free and a matched receive pays
    /// only [`LayerCosts::poll`].
    Polled,
    /// No polling thread: every port read is a (virtual) kernel
    /// interaction, paying [`SYSCALL_COST`].
    Direct,
}

/// Cost of one user/kernel crossing on the era's hardware, paid per port
/// read in [`RecvMode::Direct`].
pub(crate) const SYSCALL_COST: VirtualTime = VirtualTime(25_000);

/// The MPI module of one application process.
pub struct MpiEndpoint {
    app: AppId,
    rank: Rank,
    dir: RankDirectory,
    fabric: Fabric,
    layers: LayerCosts,
    trace: TraceSink,
    /// This process's data port. Dropping it unbinds the address only if
    /// the port is still the one bound there: a newer incarnation of the
    /// rank may have bound it since.
    port: Port,
    mode: RecvMode,
    /// The buffer the port trades for its queued packets: emptied by every
    /// ingest round and handed back on the next, so a round allocates
    /// nothing.
    rx: VecDeque<Packet>,
    /// Origin of [`wall`](Self::wall).
    born: Instant,
    /// Parsed messages that arrived before a matching receive was posted.
    matching: MatchQueue,
    /// Drained C/R data-path marks awaiting the C/R module (with the epoch
    /// they were sent in: marks from a future epoch are held until this
    /// process rolls forward into it).
    ctrl_marks: Vec<(Rank, Bytes, VirtualTime, Epoch)>,
    /// This process incarnation's restart epoch. Deliberately *local* (not
    /// read from the shared directory): during a rollback the replicated
    /// epoch bumps before every process has stopped, and a survivor that is
    /// still executing the doomed past must keep stamping its messages with
    /// the old epoch so the new incarnations discard them.
    epoch: Epoch,
    /// The checkpoint-interval piggyback stamped on outgoing messages.
    pub piggyback_interval: u64,
    /// When set (by the process runtime), blocking receives abort with
    /// [`Error::Interrupted`] so rollback/kill requests preempt long waits
    /// (e.g. inside a collective whose peer just crashed).
    abort: Option<Arc<AtomicBool>>,
    /// Per-process telemetry registry; records the Figure 6 per-layer costs
    /// and total software-path latencies on every send/receive.
    metrics: Option<Registry>,
    /// Per-process flight recorder: every send mints a trace context that
    /// rides the wire extension; every delivery records the context that
    /// arrived. Disabled by default (one branch per event).
    recorder: FlightRecorder,
    /// The span bases the trace-context extension is coded against.
    span_bases: SpanBases,
    /// Real-time bound used by `recv_world` (tests shrink it so a crashed
    /// peer surfaces as a clean Timeout quickly).
    blocking_timeout: Duration,
    /// When enabled, data sends carry per-destination sequence numbers and
    /// are buffered for retransmission, and receives deliver each flow in
    /// sequence order — exactly-once delivery over a faulty fabric.
    flows: Flows<Frame, Arrival>,
    /// Payload size at which sends switch to the rendezvous protocol.
    rndv_threshold: usize,
    /// Rendezvous DATA chunk size for transfers this endpoint originates.
    rndv_chunk_bytes: usize,
    /// Rendezvous transfers whose RTS is out but whose payload has not been
    /// fully pushed yet (waiting for CTS).
    rndv_tx: RndvTx,
    rndv_rx: RndvRx,
    credit: Credit,
    /// Per-call collective algorithm selection policy (thresholds keyed on
    /// message size and group size; see `collectives::selector`).
    coll_selector: crate::collectives::CollAlgoSelector,
}

impl MpiEndpoint {
    /// Bind this process's data port.
    pub fn new(
        fabric: &Fabric,
        app: AppId,
        rank: Rank,
        dir: RankDirectory,
        mode: RecvMode,
        trace: TraceSink,
    ) -> Result<MpiEndpoint> {
        let node = dir.node_of(rank)?;
        let dir_epoch_at_start = dir.epoch();
        let span_bases = SpanBases::new(app, dir.size(), dir_epoch_at_start);
        let port = fabric.bind(Addr::new(node, data_port(app, rank)))?;
        Ok(MpiEndpoint {
            app,
            rank,
            dir,
            fabric: fabric.clone(),
            layers: fabric.layers(),
            trace,
            port,
            mode,
            rx: VecDeque::new(),
            #[expect(clippy::disallowed_methods, reason = "origin of the endpoint's clock")]
            born: Instant::now(),
            matching: MatchQueue::default(),
            ctrl_marks: Vec::new(),
            epoch: dir_epoch_at_start,
            piggyback_interval: 0,
            abort: None,
            metrics: None,
            recorder: FlightRecorder::disabled(),
            span_bases,
            blocking_timeout: BLOCKING_TIMEOUT,
            flows: Flows::default(),
            rndv_threshold: DEFAULT_RNDV_THRESHOLD,
            rndv_chunk_bytes: RNDV_CHUNK_BYTES,
            rndv_tx: RndvTx::default(),
            rndv_rx: RndvRx::new(CtsCadence::Interval(REL_PING_INTERVAL)),
            credit: Credit::default(),
            coll_selector: crate::collectives::CollAlgoSelector::default(),
        })
    }

    /// Install a collective algorithm selector (the static defaults
    /// otherwise). Benches install one calibrated from their sweeps.
    pub fn set_coll_selector(&mut self, sel: crate::collectives::CollAlgoSelector) {
        self.coll_selector = sel;
    }

    /// The collective algorithm selection policy in force.
    pub(crate) fn coll_selector(&self) -> &crate::collectives::CollAlgoSelector {
        &self.coll_selector
    }

    /// Override the payload size at which sends switch from eager to
    /// rendezvous ([`DEFAULT_RNDV_THRESHOLD`] otherwise). `usize::MAX`
    /// disables rendezvous entirely.
    pub fn set_rendezvous_threshold(&mut self, bytes: usize) {
        self.rndv_threshold = bytes;
    }

    /// Override the rendezvous DATA chunk size ([`RNDV_CHUNK_BYTES`] by
    /// default; values below 1 are clamped). Chaos harnesses shrink it so
    /// chunk-level faults are cheap to exercise; only transfers started
    /// after the call use the new size.
    pub fn set_rendezvous_chunk_bytes(&mut self, bytes: usize) {
        self.rndv_chunk_bytes = bytes.max(1);
    }

    /// The rendezvous DATA chunk size in force. Collective phases align
    /// their segments to this so every large-message leg rides the
    /// pipelined rendezvous path in whole chunks.
    pub(crate) fn rendezvous_chunk_bytes(&self) -> usize {
        self.rndv_chunk_bytes
    }

    /// Registry handle for same-crate layers (collectives) that account
    /// their own traffic and selection decisions.
    pub(crate) fn metrics_handle(&self) -> Option<&Registry> {
        self.metrics.as_ref()
    }

    /// Override the CTS re-grant pacing (see [`CtsCadence`]).
    pub fn set_cts_cadence(&mut self, cadence: CtsCadence) {
        self.rndv_rx.cadence = cadence;
    }

    /// Switch the reliability layer on or off (see the `flows` field).
    pub fn set_reliable(&mut self, on: bool) {
        self.flows.enabled = on;
    }

    /// Override the default real-time bound on blocking receives.
    pub fn set_blocking_timeout(&mut self, t: Duration) {
        self.blocking_timeout = t;
    }

    /// Install the runtime's abort flag (checked between blocking slices).
    pub fn set_abort_flag(&mut self, flag: Arc<AtomicBool>) {
        self.abort = Some(flag);
    }

    /// Install the process registry; per-layer latencies and the receive
    /// queue depth are recorded from here on.
    pub fn set_metrics(&mut self, reg: Registry) {
        self.metrics = Some(reg);
    }

    /// Install the process flight recorder; sends stamp trace contexts on
    /// the wire and deliveries are recorded from here on.
    pub fn set_recorder(&mut self, rec: FlightRecorder) {
        self.recorder = rec;
    }

    /// The installed flight recorder (disabled unless set).
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }

    fn inc(&self, id: starfish_telemetry::MetricId) {
        if let Some(m) = &self.metrics {
            m.inc(id);
        }
    }

    /// Real time since this endpoint was created: the clock of deadlines,
    /// ping probes and CTS pacing. The machines are handed the value.
    #[expect(clippy::disallowed_methods, reason = "deadlines, pings, CTS pacing")]
    fn wall(&self) -> Duration {
        Instant::now().duration_since(self.born)
    }

    /// This incarnation's epoch.
    pub fn epoch(&self) -> Epoch {
        self.epoch
    }

    /// Enter a new incarnation (restore path); stale-epoch traffic is
    /// discarded from now on, future-epoch traffic that was held becomes
    /// matchable.
    pub fn set_epoch(&mut self, e: Epoch) {
        self.epoch = e;
        self.span_bases = SpanBases::new(self.app, self.dir.size(), e);
        self.flows.new_epoch(e);
        // In-flight rendezvous state belongs to the rolled-back incarnation:
        // unsent payloads were captured (or re-sent) by the C/R protocol,
        // stray DATA/CTS from the old epoch is dropped on arrival anyway.
        self.rndv_tx.clear();
        self.rndv_rx.clear();
        self.credit.clear();
    }

    /// A handle that interrupts this endpoint's blocking waits once per
    /// kick: a blocking receive returns [`Error::Interrupted`] (the caller
    /// services whatever changed and re-posts it),
    /// [`wait_event`](Self::wait_event) returns. Unlike the abort flag a
    /// kick is consumed by the wait it wakes. Nobody holds one unless the
    /// owner hands it out (the process runtime gives one to its daemon's
    /// link and one to [`RankDirectory::bound`]), so a bare endpoint's
    /// receives are never interrupted.
    pub fn kicker(&self) -> Kick {
        self.port.kicker()
    }

    /// Park until something happens to this endpoint: packets arrive (they
    /// are ingested into the parsed queues), it is [kicked](Self::kicker),
    /// or `timeout` elapses. The process runtime's one wait point.
    pub fn wait_event(&mut self, clock: &mut VClock, timeout: Duration) -> Result<()> {
        match self.ingest_one(clock, Some(timeout)) {
            Ok(_) | Err(Error::Interrupted(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    pub fn rank(&self) -> Rank {
        self.rank
    }

    pub fn directory(&self) -> &RankDirectory {
        &self.dir
    }

    /// The one blocking loop: try `step` until it yields, ingesting what
    /// arrives in between for at most `slice` at a time; `Ok(None)` once
    /// `timeout` has passed. The abort flag ends the wait with `Interrupted`,
    /// and so does a kick — unless `ride_kicks` (a kick is not an abort).
    fn pump<T>(
        &mut self,
        clock: &mut VClock,
        timeout: Duration,
        slice: Duration,
        ride_kicks: bool,
        mut step: impl FnMut(&mut Self, &mut VClock) -> Option<T>,
    ) -> Result<Option<T>> {
        let deadline = self.wall() + timeout;
        loop {
            if self
                .abort
                .as_ref()
                .is_some_and(|f| f.load(Ordering::Relaxed))
            {
                return Err(Error::interrupted("blocking receive aborted"));
            }
            if let Some(done) = step(self, clock) {
                return Ok(Some(done));
            }
            let Some(remain) = deadline.checked_sub(self.wall()) else {
                return Ok(None);
            };
            let arrived = self.ingest_one(clock, Some(remain.min(slice)));
            if !(ride_kicks && matches!(arrived, Err(Error::Interrupted(_)))) {
                arrived?;
            }
        }
    }

    // ---- send side ----------------------------------------------------------

    /// Blocking send of `data` to world rank `dst` on `context`: eager
    /// (returns when the message is on the wire, the send-side layer costs
    /// charged to `clock`) or, for a large payload or an exhausted credit
    /// budget, rendezvous (returns when the receiver granted the transfer
    /// and the payload has been pushed).
    pub fn send_world(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: &[u8],
    ) -> Result<()> {
        let req = self.isend_world(clock, dst, context, tag, data)?;
        self.wait(clock, req).map(drop)
    }

    /// Non-blocking send. Eager payloads are on the wire when this returns;
    /// rendezvous payloads leave when the receiver grants CTS (drive with
    /// `wait`, or keep pumping receives and watch `pending_rendezvous`).
    pub fn isend_world(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: &[u8],
    ) -> Result<Request> {
        self.start_send(clock, dst, context, tag, data, None)
    }

    /// [`isend_world`](Self::isend_world) without the payload copy (see
    /// [`send_world_bytes`](Self::send_world_bytes)).
    pub fn isend_world_bytes(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: Bytes,
    ) -> Result<Request> {
        self.start_send(clock, dst, context, tag, &data.clone(), Some(data))
    }

    /// Every send: route it ([`Credit::route`]), then either the whole
    /// eager message leaves, charged against the destination's budget, or
    /// the RTS of a rendezvous transfer does and the payload is parked.
    /// `owned` is the caller's `Bytes` if it has one: it leaves as the
    /// packet's payload segment, eager or rendezvous, and is never copied. A
    /// `&[u8]` caller pays one payload copy — into the frame if eager, here
    /// if rendezvous — and from there to the wire, retransmissions
    /// included, only slices of it travel.
    fn start_send(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: &[u8],
        owned: Option<Bytes>,
    ) -> Result<Request> {
        let route = match context {
            CTRL_CONTEXT => Route::Eager,
            _ => self.credit.route(dst, data.len(), self.rndv_threshold),
        };
        if route == Route::Eager {
            let (body, seg): (&[u8], _) = match owned {
                Some(payload) => (&[], Some(payload)),
                None => (data, None),
            };
            self.emit(clock, dst, context, tag, 0, body, seg)?;
            if context != CTRL_CONTEXT {
                self.credit.spend(dst, data.len());
            }
            return Ok(Request::Send { vt: clock.now() });
        }
        if route == Route::CreditFallback {
            self.inc(metric::MPI_CREDIT_FALLBACKS);
        }
        // The RTS rides the normal data path (sequenced when the
        // reliability layer is on, so a lost RTS is repaired like any lost
        // data message) with [`FLAG_RNDV_RTS`] set and a `RndvEnv` body.
        let rts = self.rndv_tx.next_rts(data.len()).encode();
        self.emit(clock, dst, context, tag, FLAG_RNDV_RTS, &rts, None)?;
        let data = owned.unwrap_or_else(|| Bytes::copy_from_slice(data));
        if let Some(m) = &self.metrics {
            m.inc(metric::MPI_RNDV_SENDS);
            m.record(metric::MPI_RNDV_BYTES, data.len() as u64);
        }
        // Size-based transfers stream an early window without waiting for
        // the CTS — never the last chunk, so completion stays gated on the
        // grant (or a checkpoint push).
        let (chunk_bytes, by_size) = (self.rndv_chunk_bytes, route == Route::Rendezvous);
        let (id, early) = self
            .rndv_tx
            .park(dst, context, tag, data, chunk_bytes, by_size);
        self.push_chunks(clock, id, early);
        Ok(Request::RndvSend {
            id,
            vt: clock.now(),
        })
    }

    /// Put `chunks` of parked transfer `id` (named by [`RndvTx`]) on the
    /// wire as DATA frames, each sequenced at the moment it leaves: the flow
    /// gap from RTS to tail stays open no longer than the CTS round-trip.
    fn push_chunks(&mut self, clock: &mut VClock, id: u64, chunks: Vec<ChunkOut>) {
        let mut sent = 0;
        for c in chunks {
            let desc = c.desc.encode();
            // Peer unreachable right now (mid-restart): the rest stays
            // parked, the next CTS re-grant or quiescence push retries.
            let out = self.emit(
                clock,
                c.dst,
                c.context,
                c.tag,
                FLAG_RNDV_DATA,
                &desc,
                Some(c.seg),
            );
            if out.is_err() {
                break;
            }
            sent += 1;
        }
        self.rndv_tx.sent(id, sent);
    }

    /// Complete a blocking rendezvous send: pump the network (servicing
    /// CTS/NACK traffic) until the payload has been pushed.
    fn finish_rendezvous(&mut self, clock: &mut VClock, id: u64) -> Result<()> {
        let pushed = self.pump(
            clock,
            self.blocking_timeout,
            REL_PING_INTERVAL,
            true,
            |ep, _| (!ep.rndv_tx.is_parked(id)).then_some(()),
        )?;
        pushed.ok_or_else(|| {
            // Dead: a quiescence push must not resurrect a failed send.
            self.rndv_tx.abandon(id);
            Error::timeout(format!("rendezvous send {id} awaiting CTS"))
        })
    }

    /// Fabric addresses of this endpoint's data port and `dst`'s.
    fn addrs(&self, dst: Rank) -> Result<(Addr, Addr)> {
        let dst_node = self.dir.node_of(dst)?;
        let src_node = self.dir.node_of(self.rank)?;
        Ok((
            Addr::new(src_node, data_port(self.app, self.rank)),
            Addr::new(dst_node, data_port(self.app, dst)),
        ))
    }

    /// The one data-packet builder, for first sends and retransmissions: a
    /// gather packet (two `Bytes` handles cloned, no payload byte copied)
    /// when the frame has a payload segment, single-buffer otherwise.
    fn data_packet((src, dst): (Addr, Addr), f: &Frame) -> Packet {
        let head = f.envelope.clone();
        let mut pkt = match &f.seg {
            None => Packet::new(src, dst, PacketKind::Data, f.tag, head),
            Some(seg) => Packet::gather(src, dst, PacketKind::Data, f.tag, head, seg.clone()),
        };
        pkt.model_len = f.model_len;
        pkt.depart_vt = f.depart;
        pkt
    }

    /// The one emit path of the data plane: sequence, frame, send, account,
    /// retain. `body` follows the header in the envelope; a rendezvous DATA
    /// frame carries its chunk descriptor there and the chunk itself in
    /// `seg`, the packet's separate payload segment, uncopied — as an owned
    /// eager send carries its whole payload, with an empty `body`.
    #[expect(clippy::too_many_arguments, reason = "every field of the envelope")]
    fn emit(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        context: u32,
        tag: u64,
        flags: u8,
        body: &[u8],
        seg: Option<Bytes>,
    ) -> Result<()> {
        let addrs = self.addrs(dst)?;
        // Assign the next flow sequence but commit it only when the send
        // succeeds: a failed attempt must not leave a permanent gap the
        // receiver would wait on forever. C/R marks are never sequenced.
        let sequenced = self.flows.enabled && context != CTRL_CONTEXT;
        let seq = if sequenced {
            self.flows.tx(dst).peek_seq()
        } else {
            0
        };
        let header = MsgHeader {
            src: self.rank,
            context,
            tag,
            epoch: self.epoch,
            interval: self.piggyback_interval,
            seq,
            flags,
            credit: self.credit.stamp(dst),
        };
        let ctx = self.recorder.mint_send();
        let bases = self.span_bases.pair(self.rank, dst, self.epoch);
        // The bandwidth term covers the application payload; the envelope
        // is absorbed by the constant per-layer costs (Figure 6).
        let model_len = seg.as_ref().map_or(body.len(), Bytes::len);
        let frame = Frame {
            envelope: header.frame_ext(body, ctx, bases),
            seg,
            model_len,
            depart: clock.now() + self.layers.send_total(),
            tag,
        };
        self.fabric.send(Self::data_packet(addrs, &frame))?;
        // Charge the send-side layers — and count and record the message —
        // only now that the send actually happened: failed attempts (peer
        // mid-restart, retried by the caller) must not accumulate virtual
        // cost, message counts or flight-recorder events, or retry counts —
        // a real-time artifact — would leak into the timeline.
        self.recorder
            .record_send(clock.now(), dst.0, context, tag, model_len, ctx);
        self.trace.record(
            MsgClass::Data,
            ActorKind::AppProcess,
            ActorKind::AppProcess,
            if context == CTRL_CONTEXT {
                "data-path-mark"
            } else {
                "fast-path"
            },
            frame.envelope.len() + frame.seg.as_ref().map_or(0, Bytes::len),
        );
        clock.advance(self.layers.send_total());
        if let Some(m) = &self.metrics {
            // The send-side layer breakdown (Figure 6, left column).
            m.record_vt(metric::LAYER_APP_TO_MPI, self.layers.app_to_mpi);
            m.record_vt(metric::LAYER_MPI_SEND, self.layers.mpi_send);
            m.record_vt(metric::LAYER_VNI_SEND, self.layers.vni_send);
            m.record_vt(metric::MPI_SEND_PATH_NS, self.layers.send_total());
        }
        if seq != 0 {
            self.flows.tx(dst).commit(seq, frame);
        }
        Ok(())
    }

    /// Send a C/R mark (flush mark / marker) on the data path: FIFO with
    /// data messages to `dst`, never matched by user receives.
    pub fn send_ctrl_mark(&mut self, clock: &mut VClock, dst: Rank, body: &[u8]) -> Result<()> {
        self.emit(clock, dst, CTRL_CONTEXT, 0, 0, body, None)
    }

    /// Retry a C/R mark with the virtual time of its *original* attempt
    /// (a retransmission is a real-time artifact of the peer still binding
    /// its port; protocol-wise the mark left at `at`).
    pub fn resend_ctrl_mark_at(&mut self, at: VirtualTime, dst: Rank, body: &[u8]) -> Result<()> {
        self.send_ctrl_mark(&mut VClock::starting_at(at), dst, body)
    }

    // ---- receive side ---------------------------------------------------------

    /// Pull one *round* of packets from the port into the parsed queues: up
    /// to [`INGEST_BATCH`] frames drained in one lock acquisition, so a
    /// pipelined rendezvous burst costs one queue hop, then publish how many
    /// messages wait unconsumed. Returns true if anything was ingested.
    fn ingest_one(&mut self, clock: &mut VClock, wait: Option<Duration>) -> Result<bool> {
        if self.mode == RecvMode::Direct {
            // Without the polling thread every look at the network is a
            // kernel interaction (paper §2.2.1) — one per batched read.
            clock.advance(SYSCALL_COST);
        }
        let mut batch = std::mem::take(&mut self.rx);
        let read = self.port.recv_batch(&mut batch, INGEST_BATCH, wait);
        let ingested = !batch.is_empty();
        for pkt in batch.drain(..) {
            self.process_packet(clock, pkt);
        }
        self.rx = batch;
        if let Some(m) = &self.metrics {
            m.gauge_set(metric::VNI_RECV_QUEUE_DEPTH, self.matching.len() as i64);
        }
        read.map(|()| ingested)
    }

    /// Ingest everything that has already arrived, without waiting.
    fn drain(&mut self, clock: &mut VClock) -> Result<()> {
        while self.ingest_one(clock, None)? {}
        Ok(())
    }

    /// Route one raw packet into the parsed queues.
    fn process_packet(&mut self, clock: &mut VClock, pkt: Packet) {
        // Reliability-layer control traffic rides the data port as Control
        // packets: handled here, invisible to everything above.
        if pkt.kind == PacketKind::Control {
            if let Ok(msg) = RelMsg::decode(&pkt.payload) {
                self.handle_rel_ctrl(clock, msg);
            }
            return;
        }
        // The sender is the rank whose data port the packet left from: a
        // frame from any other port is not this application's, and is
        // dropped.
        let Some(src) = rank_of_port(self.app, pkt.src.port) else {
            return;
        };
        let arrive = pkt.arrive_vt;
        // Gather frames carry the MsgHeader envelope in the head segment and
        // the (zero-copy) payload in the payload segment — a rendezvous
        // chunk, or the body of an owned eager send; single-buffer frames
        // keep everything in the payload.
        let (envelope, seg) = if pkt.head.is_empty() {
            (pkt.payload, Bytes::new())
        } else {
            (pkt.head, pkt.payload)
        };
        let bases = |h: &MsgHeader| self.span_bases.pair(src, self.rank, h.epoch);
        let parsed = MsgHeader::parse_ext(&envelope, src, bases);
        let (header, body, ctx) = match parsed {
            Ok(x) => x,
            Err(_) => return, // corrupt: drop
        };
        let (body, seg) = match header.flags {
            0 if !seg.is_empty() => (seg, Bytes::new()),
            _ => (body, seg),
        };
        // Stale-epoch traffic (from before a rollback) is discarded;
        // future-epoch traffic (a restarted peer racing ahead of our own
        // rollback) is held until we enter that epoch.
        if header.epoch < self.epoch {
            return;
        }
        // Every current-epoch frame reports the sender's credit count. It
        // is cumulative, so a duplicate, a reordered frame or a
        // retransmission credits nothing twice.
        if header.epoch == self.epoch {
            self.credit.on_frame(header.src, header.credit);
        }
        if header.context == CTRL_CONTEXT {
            // Current-epoch marks are pumped now; future-epoch marks (a
            // restarted peer's round racing ahead of our own rollback) are
            // held until set_epoch advances us into their world. A mark
            // ends the recording of its sender's channel where it stands in
            // the stream: what came after it is not in flight at the cut,
            // even when it is drained before the mark is pumped.
            if header.epoch == self.epoch {
                self.matching.stop_recording(header.src);
            }
            self.recorder
                .on_recv(arrive, header.src.0, CTRL_CONTEXT, 0, body.len(), ctx);
            self.ctrl_marks
                .push((header.src, body, arrive, header.epoch));
            return;
        }
        if header.seq == 0 {
            // Unmanaged traffic: delivered as it arrives.
            self.enqueue_parsed((header, body, seg, arrive, ctx));
            return;
        }
        // Reliable flow: deliver in sequence order, discard duplicates, park
        // early arrivals and report the gap below them. The sequencing
        // decision itself is the pure `FlowRx` machine.
        let (src, epoch, seq) = (header.src, header.epoch, header.seq);
        let arrival = (header, body, seg, arrive, ctx);
        match self.flows.rx(src, epoch).on_data(seq, arrival) {
            RxVerdict::Duplicate => self.inc(metric::MPI_DUP_DISCARDS),
            RxVerdict::Parked { nack } => self.send_nack(clock, src, epoch, nack),
            RxVerdict::Deliver(ready) => ready.into_iter().for_each(|a| self.enqueue_parsed(a)),
        }
    }

    /// Hand a parsed in-order data message to the matching queue (which
    /// dispatches on the rendezvous flags) and record the receive of
    /// whatever message it completed.
    fn enqueue_parsed(&mut self, (header, body, seg, arrive, ctx): Arrival) {
        let done = self
            .matching
            .on_message(&mut self.rndv_rx, header, body, seg, arrive);
        if let Some(d) = done {
            let h = d.header;
            self.recorder
                .on_recv(d.at, h.src.0, h.context, h.tag, d.len, ctx);
        }
    }

    /// Send a reliability control message to `dst`'s data port. Costs no
    /// virtual time: retransmission traffic is a real-time artifact of the
    /// faulty wire, not part of the modelled software path.
    fn send_rel(&mut self, clock: &mut VClock, dst: Rank, msg: RelMsg) -> Result<()> {
        let (src, dst) = self.addrs(dst)?;
        let mut pkt = Packet::new(src, dst, PacketKind::Control, 0, msg.encode());
        pkt.model_len = 0;
        pkt.depart_vt = clock.now();
        self.fabric.send(pkt)
    }

    /// Tell `to` which sequences of its incarnation `epoch` are missing.
    fn send_nack(&mut self, clock: &mut VClock, to: Rank, epoch: Epoch, seqs: Vec<u64>) {
        if seqs.is_empty() {
            return;
        }
        let from = self.rank;
        let _ = self.send_rel(clock, to, RelMsg::Nack { from, epoch, seqs });
        self.inc(metric::MPI_NACKS);
    }

    /// Probe `peer`'s flow: the Ping's cumulative position makes the
    /// sender retransmit whatever a drop fault ate.
    fn send_ping(&mut self, clock: &mut VClock, peer: Rank) {
        let (from, epoch) = (self.rank, self.epoch);
        let next = self.flows.rx(peer, epoch).next_expected();
        let _ = self.send_rel(clock, peer, RelMsg::Ping { from, epoch, next });
    }

    /// React to a peer's reliability control message.
    fn handle_rel_ctrl(&mut self, clock: &mut VClock, msg: RelMsg) {
        match msg {
            RelMsg::Nack { from, epoch, seqs } if epoch == self.epoch => {
                self.retransmit(from, &seqs);
            }
            RelMsg::Ping { from, epoch, next } if epoch == self.epoch => {
                // Everything below `next` is delivered: a cumulative ack.
                let resend = self.flows.tx(from).on_ping(next);
                self.retransmit(from, &resend);
            }
            RelMsg::Flush {
                from,
                epoch,
                highest,
            } if epoch >= self.epoch && highest != 0 => {
                let missing = self.flows.rx(from, epoch).missing_upto(highest);
                self.send_nack(clock, from, epoch, missing);
            }
            RelMsg::Cts {
                from,
                epoch,
                id,
                credit,
            } if epoch == self.epoch => {
                self.credit.on_count(from, credit);
                let granted = self.rndv_tx.remaining(id);
                self.push_chunks(clock, id, granted);
            }
            RelMsg::Credit {
                from,
                epoch,
                credit,
            } if epoch == self.epoch => {
                self.credit.on_count(from, credit);
            }
            _ => {} // another incarnation's control traffic
        }
    }

    /// Re-inject buffered frames onto the wire as they first left, but
    /// reporting the credit count of now: a count as old as the frame could
    /// lie outside the window the peer reads it in.
    fn retransmit(&mut self, dst: Rank, seqs: &[u64]) {
        let Ok(addrs) = self.addrs(dst) else {
            return;
        };
        let credit = self.credit.stamp(dst);
        let frames = self.flows.tx(dst).select(seqs);
        let resends: Vec<Packet> = frames
            .iter()
            .map(|&(_, f)| {
                let mut f = f.clone();
                f.envelope = MsgHeader::restamp(&f.envelope, credit);
                Self::data_packet(addrs, &f)
            })
            .collect();
        for pkt in resends {
            if self.fabric.send(pkt).is_ok() {
                self.inc(metric::MPI_RETRANSMITS);
            }
        }
    }

    /// Advertise every reliable flow's highest assigned sequence so peers
    /// can detect and repair tail loss (call repeatedly, interleaved with
    /// receive pumping, until the system is quiescent).
    pub fn flush_reliable(&mut self, clock: &mut VClock) {
        let (from, epoch) = (self.rank, self.epoch);
        for (dst, highest) in self.flows.highest() {
            let flush = RelMsg::Flush {
                from,
                epoch,
                highest,
            };
            let _ = self.send_rel(clock, dst, flush);
        }
    }

    /// Grant (or re-grant, as [`RndvRx`] paces it) a rendezvous transfer:
    /// tell the sender to push its payload. With the reliability layer on, a
    /// Ping rides along so a lost RTS/DATA is repaired by the same probe.
    fn send_cts(&mut self, clock: &mut VClock, peer: Rank, id: u64) {
        match self.rndv_rx.grant(peer, id, self.wall()) {
            Grant::Hold => return,
            Grant::Again => self.inc(metric::MPI_CTS_RESENDS),
            Grant::First => {}
        }
        let (from, epoch) = (self.rank, self.epoch);
        let credit = self.credit.report(peer);
        let cts = RelMsg::Cts {
            from,
            epoch,
            id,
            credit,
        };
        let _ = self.send_rel(clock, peer, cts);
        if self.flows.enabled {
            self.send_ping(clock, peer);
        }
    }

    /// One attempt of a receive against the unexpected queue. A complete
    /// match is consumed: it counts toward its sender's credit (the count
    /// leaves alone only if no frame reported it for half the ceiling), its
    /// arrival time merges into `clock`, the receive-side layer costs
    /// (Figure 6, right column) are charged. A placeholder is the transfer
    /// this receive waits on: grant (or re-grant, if the last CTS was lost)
    /// and report nothing yet.
    fn match_once(
        &mut self,
        clock: &mut VClock,
        context: u32,
        src: Option<Rank>,
        tag: Option<u64>,
    ) -> Option<RecvdMsg> {
        let (header, data, at) = match self.matching.take(self.epoch, context, src, tag) {
            Matched::Ready { header, data, at } => (header, data, at),
            Matched::Await { src: peer, id } => {
                self.send_cts(clock, peer, id);
                return None;
            }
            Matched::None => return None,
        };
        if let Some(credit) = self.credit.consumed(&header, data.len()) {
            let (from, epoch) = (self.rank, self.epoch);
            let ret = RelMsg::Credit {
                from,
                epoch,
                credit,
            };
            let _ = self.send_rel(clock, header.src, ret);
        }
        clock.merge(at);
        clock.advance(self.layers.recv_total());
        if let Some(m) = &self.metrics {
            m.record_vt(metric::LAYER_POLL, self.layers.poll);
            m.record_vt(metric::LAYER_VNI_RECV, self.layers.vni_recv);
            m.record_vt(metric::LAYER_MPI_RECV, self.layers.mpi_recv);
            m.record_vt(metric::LAYER_MPI_TO_APP, self.layers.mpi_to_app);
            m.record_vt(metric::MPI_RECV_PATH_NS, self.layers.recv_total());
        }
        Some(RecvdMsg {
            src: header.src,
            tag: header.tag,
            data,
            interval: header.interval,
        })
    }

    /// Blocking receive with wildcards. Charges receive-side layer costs and
    /// merges the message's arrival time into `clock`.
    pub fn recv_world(
        &mut self,
        clock: &mut VClock,
        context: u32,
        src: Option<Rank>,
        tag: Option<u64>,
    ) -> Result<RecvdMsg> {
        self.recv_world_timeout(clock, context, src, tag, self.blocking_timeout)
    }

    /// Blocking receive with an explicit real-time bound.
    pub fn recv_world_timeout(
        &mut self,
        clock: &mut VClock,
        context: u32,
        src: Option<Rank>,
        tag: Option<u64>,
        timeout: Duration,
    ) -> Result<RecvdMsg> {
        // A blocked receive from a concrete source probes that sender's
        // reliable flow: if a drop fault ate the message, the Ping's
        // cumulative position triggers a retransmission.
        let probed = src.filter(|_| self.flows.enabled && context != CTRL_CONTEXT);
        let slice = probed.map_or(WAIT_SLICE, |_| REL_PING_INTERVAL);
        let mut next_ping = self.wall() + REL_PING_INTERVAL;
        let got = self.pump(clock, timeout, slice, false, |ep, clock| {
            let got = ep.match_once(clock, context, src, tag);
            if let (None, Some(peer)) = (&got, probed) {
                if ep.wall() >= next_ping {
                    next_ping = ep.wall() + REL_PING_INTERVAL;
                    ep.send_ping(clock, peer);
                }
            }
            got
        })?;
        got.ok_or_else(|| Error::timeout(format!("recv on {} ctx {}", self.rank, context)))
    }

    /// Non-blocking receive probe: returns a matched message if one is
    /// already here. A placeholder is not consumable yet, but its CTS is
    /// granted so repeated polling makes progress.
    pub fn try_recv_world(
        &mut self,
        clock: &mut VClock,
        context: u32,
        src: Option<Rank>,
        tag: Option<u64>,
    ) -> Result<Option<RecvdMsg>> {
        self.drain(clock)?;
        Ok(self.match_once(clock, context, src, tag))
    }

    /// Post a non-blocking receive.
    pub fn irecv_world(&mut self, context: u32, src: Option<Rank>, tag: Option<u64>) -> Request {
        Request::Recv { context, src, tag }
    }

    /// Complete a request. Send requests complete immediately; receive
    /// requests block until matched.
    pub fn wait(&mut self, clock: &mut VClock, req: Request) -> Result<Option<RecvdMsg>> {
        match req {
            Request::Send { vt } => {
                clock.merge(vt);
            }
            Request::RndvSend { id, vt } => {
                clock.merge(vt);
                self.finish_rendezvous(clock, id)?;
            }
            Request::Recv { context, src, tag } => {
                return self.recv_world(clock, context, src, tag).map(Some)
            }
        }
        Ok(None)
    }

    /// Number of rendezvous sends whose payload has not left yet (RTS out,
    /// CTS pending). Quiescence protocols gate on this reaching zero.
    pub fn pending_rendezvous(&self) -> usize {
        self.rndv_tx.ids().len()
    }

    /// Push every parked rendezvous payload *without* waiting for its CTS,
    /// in transfer-id order. Called by the C/R protocols before emitting
    /// flush marks or Chandy–Lamport markers: channel capture assumes all
    /// in-flight data precedes the marks on the wire, so parked payloads
    /// must be on the wire first (receivers accept unsolicited DATA — it
    /// merges into the RTS placeholder exactly as a granted push would).
    pub fn push_pending_rendezvous(&mut self, clock: &mut VClock) {
        for id in self.rndv_tx.ids() {
            let tail = self.rndv_tx.remaining(id);
            self.push_chunks(clock, id, tail);
        }
    }

    /// `MPI_Iprobe`: is a matching message available?
    pub fn iprobe(
        &mut self,
        clock: &mut VClock,
        context: u32,
        src: Option<Rank>,
        tag: Option<u64>,
    ) -> Result<bool> {
        self.drain(clock)?;
        Ok(self.matching.probe(self.epoch, context, src, tag))
    }

    // ---- C/R hooks -------------------------------------------------------------

    /// Drain the C/R data-path marks of the *current* epoch (non-blocking).
    /// Stale marks are dropped; future-epoch marks stay queued.
    pub fn pump_ctrl(&mut self, clock: &mut VClock) -> Vec<(Rank, Bytes, VirtualTime)> {
        let _ = self.drain(clock);
        let epoch = self.epoch;
        let marks = std::mem::take(&mut self.ctrl_marks);
        let live = marks.into_iter().filter(|(_, _, _, e)| *e >= epoch);
        let (due, held): (Vec<_>, Vec<_>) = live.partition(|(_, _, _, e)| *e == epoch);
        self.ctrl_marks = held;
        let mark = |(src, body, at, _)| (src, body, at);
        due.into_iter().map(mark).collect()
    }

    /// Block until at least one C/R mark arrives (quiesce loop).
    pub fn wait_ctrl(
        &mut self,
        clock: &mut VClock,
        timeout: Duration,
    ) -> Result<Vec<(Rank, Bytes, VirtualTime)>> {
        let marks = self.pump(clock, timeout, WAIT_SLICE, false, |ep, clock| {
            Some(ep.pump_ctrl(clock)).filter(|m| !m.is_empty())
        })?;
        marks.ok_or_else(|| Error::timeout("wait_ctrl"))
    }

    /// Capture the channel state for a checkpoint: every unconsumed data
    /// message (parsed unexpected queue + anything still in the raw queue;
    /// see [`MatchQueue::snapshot`] for why placeholders are skipped).
    pub fn snapshot_channel(&mut self, clock: &mut VClock) -> Vec<(MsgHeader, Bytes)> {
        let _ = self.drain(clock);
        self.matching.snapshot(self.epoch)
    }

    /// Refill the unexpected queue from a restored image's channel state
    /// (see [`MatchQueue::restore`] for what survives).
    pub fn restore_channel(&mut self, msgs: Vec<(MsgHeader, Bytes)>, restart_vt: VirtualTime) {
        let epoch = self.epoch;
        // Marks of this (new) epoch or later stay; the rolled-back past's go.
        self.ctrl_marks.retain(|(_, _, _, e)| *e >= epoch);
        self.matching.restore(epoch, msgs, restart_vt);
    }

    /// Start copying arriving data messages from `from` (Chandy–Lamport
    /// channel recording).
    pub fn start_recording(&mut self, from: Rank) {
        self.matching.start_recording(from);
    }

    /// Stop recording the channel from `from`.
    pub fn stop_recording(&mut self, from: Rank) {
        self.matching.stop_recording(from);
    }

    /// Take everything recorded so far.
    pub fn take_recorded(&mut self) -> Vec<(MsgHeader, Bytes)> {
        self.matching.take_recorded()
    }
}

impl Drop for MpiEndpoint {
    /// Take this incarnation's registration out of the rank directory; the
    /// port, dropped next, releases its own address.
    fn drop(&mut self) {
        self.dir.unbound(self.rank, &self.kicker());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rendezvous::RNDV_EARLY_CHUNKS;
    use crate::wire::{RndvChunk, RndvEnv};
    use starfish_trace::EventKind;
    use starfish_util::NodeId;
    use starfish_vni::{BipMyrinet, Ideal, PortId};

    impl MpiEndpoint {
        /// [`send_world`](Self::send_world) without the payload copy: a `Bytes`
        /// payload travels either path as zero-copy slices end-to-end.
        pub(super) fn send_world_bytes(
            &mut self,
            clock: &mut VClock,
            dst: Rank,
            context: u32,
            tag: u64,
            data: Bytes,
        ) -> Result<()> {
            let req = self.isend_world_bytes(clock, dst, context, tag, data)?;
            self.wait(clock, req).map(drop)
        }

        /// Number of unconsumed data messages currently buffered.
        pub(super) fn pending_count(&self) -> usize {
            self.matching.len()
        }
    }

    /// Wildcard source for receives (`MPI_ANY_SOURCE`).
    const ANY_SOURCE: Option<Rank> = None;
    /// Wildcard tag for receives (`MPI_ANY_TAG`).
    const ANY_TAG: Option<u64> = None;

    fn setup(n: u32, model: &str) -> (Fabric, RankDirectory) {
        let f = match model {
            "bip" => Fabric::new(Box::new(BipMyrinet), LayerCosts::prototype()),
            _ => Fabric::new(Box::new(Ideal), LayerCosts::zero()),
        };
        for i in 0..n {
            f.add_node(NodeId(i));
        }
        let dir = RankDirectory::with_placement(&(0..n).map(NodeId).collect::<Vec<_>>());
        (f, dir)
    }

    /// Far longer than any test runs: a wait bounded by it ends only when
    /// what it waits for happens.
    const LONG: Duration = Duration::from_secs(30);

    fn ep(f: &Fabric, dir: &RankDirectory, rank: u32) -> MpiEndpoint {
        MpiEndpoint::new(
            f,
            AppId(1),
            Rank(rank),
            dir.clone(),
            RecvMode::Polled,
            TraceSink::disabled(),
        )
        .unwrap()
    }

    #[test]
    fn send_recv_across_nodes() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        a.send_world(&mut ca, Rank(1), 1, 7, b"hello").unwrap();
        let m = b.recv_world(&mut cb, 1, Some(Rank(0)), Some(7)).unwrap();
        assert_eq!(&m.data[..], b"hello");
        assert_eq!(m.src, Rank(0));
        assert_eq!(m.tag, 7);
    }

    #[test]
    fn tag_and_source_matching_with_wildcards() {
        let (f, dir) = setup(3, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut c = ep(&f, &dir, 1);
        let mut b = ep(&f, &dir, 2);
        let mut ck = VClock::new();
        a.send_world(&mut ck, Rank(2), 1, 5, b"from-a").unwrap();
        c.send_world(&mut ck, Rank(2), 1, 6, b"from-c").unwrap();
        let mut cb = VClock::new();
        // Match by tag regardless of source.
        let m = b.recv_world(&mut cb, 1, ANY_SOURCE, Some(6)).unwrap();
        assert_eq!(&m.data[..], b"from-c");
        // Then match the other by source wildcard-tag.
        let m = b.recv_world(&mut cb, 1, Some(Rank(0)), ANY_TAG).unwrap();
        assert_eq!(&m.data[..], b"from-a");
    }

    #[test]
    fn fifo_order_per_sender_same_tag() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let mut ca = VClock::new();
        for i in 0..10u8 {
            a.send_world(&mut ca, Rank(1), 1, 3, &[i]).unwrap();
        }
        let mut cb = VClock::new();
        for i in 0..10u8 {
            let m = b.recv_world(&mut cb, 1, Some(Rank(0)), Some(3)).unwrap();
            assert_eq!(m.data[0], i, "messages must stay FIFO per sender");
        }
    }

    #[test]
    fn isend_irecv_wait() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        let req = b.irecv_world(1, ANY_SOURCE, ANY_TAG);
        let sreq = a.isend_world(&mut ca, Rank(1), 1, 9, b"x").unwrap();
        assert!(a.wait(&mut ca, sreq).unwrap().is_none());
        let m = b.wait(&mut cb, req).unwrap().unwrap();
        assert_eq!(m.tag, 9);
    }

    #[test]
    fn iprobe_and_try_recv() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        assert!(!b.iprobe(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap());
        assert!(b
            .try_recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG)
            .unwrap()
            .is_none());
        a.send_world(&mut ca, Rank(1), 1, 2, b"z").unwrap();
        // A frame the fabric accepted is in the receiver's port: its next
        // look finds it, with no hand-off to wait for.
        assert!(b.iprobe(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap());
        let m = b
            .try_recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG)
            .unwrap()
            .unwrap();
        assert_eq!(&m.data[..], b"z");
    }

    /// Figure 5 anchor at the MPI level: a 1-byte ping-pong on BIP/Myrinet
    /// takes 86 µs of virtual round-trip time.
    #[test]
    fn pingpong_virtual_time_matches_figure5() {
        let (f, dir) = setup(2, "bip");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let t = std::thread::spawn(move || {
            let mut cb = VClock::new();
            let m = b.recv_world(&mut cb, 1, Some(Rank(0)), Some(1)).unwrap();
            b.send_world(&mut cb, Rank(0), 1, 2, &m.data).unwrap();
        });
        let mut ca = VClock::new();
        let start = ca.now();
        a.send_world(&mut ca, Rank(1), 1, 1, &[0u8]).unwrap();
        let m = a.recv_world(&mut ca, 1, Some(Rank(1)), Some(2)).unwrap();
        t.join().unwrap();
        assert_eq!(m.data.len(), 1);
        let rtt = (ca.now() - start).as_micros_f64();
        assert!((rtt - 86.0).abs() < 0.5, "BIP 1-byte RTT = {rtt}us != 86us");
    }

    #[test]
    fn stale_epoch_messages_dropped() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        a.send_world(&mut ca, Rank(1), 1, 1, b"old-world").unwrap();
        // Rollback happens: the receiver enters a new epoch.
        std::thread::sleep(Duration::from_millis(50)); // let it reach the queue
        b.set_epoch(Epoch(1));
        let r = b.recv_world_timeout(&mut cb, 1, ANY_SOURCE, ANY_TAG, Duration::from_millis(300));
        assert!(
            matches!(r, Err(Error::Timeout(_))),
            "stale msg must be dropped"
        );
        // New-epoch traffic flows.
        a.set_epoch(Epoch(1));
        a.send_world(&mut ca, Rank(1), 1, 1, b"new-world").unwrap();
        let m = b.recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap();
        assert_eq!(&m.data[..], b"new-world");
    }

    #[test]
    fn ctrl_marks_invisible_to_user_recv() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        a.send_ctrl_mark(&mut ca, Rank(1), b"FLUSH").unwrap();
        a.send_world(&mut ca, Rank(1), 1, 1, b"user").unwrap();
        let m = b.recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap();
        assert_eq!(&m.data[..], b"user");
        let marks = b.pump_ctrl(&mut cb);
        assert_eq!(marks.len(), 1);
        assert_eq!(marks[0].0, Rank(0));
        assert_eq!(&marks[0].1[..], b"FLUSH");
    }

    /// A recorded channel takes what arrived before its sender's mark, not
    /// what one drain ingested after it.
    #[test]
    fn a_mark_ends_its_channels_recording_where_it_stands() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        b.start_recording(Rank(0));
        a.send_world(&mut ca, Rank(1), 1, 1, b"in flight").unwrap();
        a.send_ctrl_mark(&mut ca, Rank(1), b"MARKER").unwrap();
        a.send_world(&mut ca, Rank(1), 1, 1, b"after").unwrap();
        let after = b.recv_world(&mut cb, 1, ANY_SOURCE, Some(1)).unwrap();
        assert_eq!(&after.data[..], b"in flight");
        let after = b.recv_world(&mut cb, 1, ANY_SOURCE, Some(1)).unwrap();
        assert_eq!(&after.data[..], b"after");
        let recorded = b.take_recorded();
        assert_eq!(recorded.len(), 1);
        assert_eq!(&recorded[0].1[..], b"in flight");
        assert_eq!(b.pump_ctrl(&mut cb).len(), 1);
    }

    #[test]
    fn channel_snapshot_and_restore() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        a.send_world(&mut ca, Rank(1), 1, 4, b"in-flight-1")
            .unwrap();
        a.send_world(&mut ca, Rank(1), 1, 4, b"in-flight-2")
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        let snap = b.snapshot_channel(&mut cb);
        assert_eq!(snap.len(), 2);
        // Simulate rollback: epoch bump, queue restored from image.
        b.set_epoch(Epoch(1));
        b.restore_channel(snap, VirtualTime::from_millis(1));
        assert_eq!(b.pending_count(), 2);
        let m1 = b.recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap();
        let m2 = b.recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap();
        assert_eq!(&m1.data[..], b"in-flight-1");
        assert_eq!(&m2.data[..], b"in-flight-2");
    }

    #[test]
    fn direct_mode_works_and_costs_more() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = MpiEndpoint::new(
            &f,
            AppId(1),
            Rank(1),
            dir.clone(),
            RecvMode::Direct,
            TraceSink::disabled(),
        )
        .unwrap();
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        a.send_world(&mut ca, Rank(1), 1, 1, b"d").unwrap();
        let m = b.recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap();
        assert_eq!(&m.data[..], b"d");
        // At least one syscall cost was charged on the receive path.
        assert!(cb.now() >= SYSCALL_COST);
    }

    #[test]
    fn send_to_unplaced_rank_fails() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut ca = VClock::new();
        dir.unplace(Rank(1));
        assert!(a.send_world(&mut ca, Rank(1), 1, 1, b"x").is_err());
    }

    /// Attempts the fabric refuses (peer placed, port not bound yet: the
    /// caller retries them) are not messages: no data-message count, no
    /// flight-recorder event, no virtual send cost. The first accepted send
    /// is the first of each.
    #[test]
    fn failed_sends_are_neither_counted_nor_recorded() {
        let (f, dir) = setup(2, "bip");
        let reg = Registry::new();
        let sink = TraceSink::enabled();
        sink.attach_metrics(Arc::new(reg.clone()));
        let mut a = MpiEndpoint::new(
            &f,
            AppId(1),
            Rank(0),
            dir.clone(),
            RecvMode::Polled,
            sink.clone(),
        )
        .unwrap();
        a.set_recorder(FlightRecorder::new("app1.r0", 64));
        let mut ca = VClock::new();
        for _ in 0..5 {
            let err = a.send_world(&mut ca, Rank(1), 1, 1, b"x");
            assert!(matches!(err, Err(Error::NotFound(_))), "{err:?}");
            let mark = a.send_ctrl_mark(&mut ca, Rank(1), b"m");
            assert!(matches!(mark, Err(Error::NotFound(_))), "{mark:?}");
        }
        assert_eq!(reg.counter(metric::MSG_COUNT_DATA), 0);
        assert_eq!(sink.count(MsgClass::Data), 0);
        assert_eq!(sink.bytes(MsgClass::Data), 0);
        assert!(a.recorder().is_empty());
        assert_eq!(ca.now(), VirtualTime::ZERO);

        let mut b = ep(&f, &dir, 1);
        a.send_world(&mut ca, Rank(1), 1, 1, b"x").unwrap();
        assert_eq!(reg.counter(metric::MSG_COUNT_DATA), 1);
        assert_eq!(sink.count(MsgClass::Data), 1);
        assert_eq!(a.recorder().len(), 1);
        assert!(ca.now() > VirtualTime::ZERO);
        let mut cb = VClock::new();
        assert_eq!(
            &b.recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap().data[..],
            b"x"
        );
    }

    /// A kick gets a blocked receive out once, with `Interrupted`; nobody
    /// kicks an endpoint whose owner handed out no handle.
    #[test]
    fn kick_interrupts_a_blocked_receive() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let kick = b.kicker();
        let blocked = std::thread::spawn(move || {
            let mut cb = VClock::new();
            let first = b.recv_world_timeout(&mut cb, 1, ANY_SOURCE, ANY_TAG, LONG);
            let second = b.recv_world_timeout(&mut cb, 1, ANY_SOURCE, ANY_TAG, LONG);
            (first, second)
        });
        kick.kick();
        let mut ca = VClock::new();
        a.send_world(&mut ca, Rank(1), 1, 9, b"after the kick")
            .unwrap();
        let (first, second) = blocked.join().unwrap();
        // Either order of kick and packet is fine; neither is lost.
        let (kicked, got) = match (first, second) {
            (Err(e), Ok(m)) => (e, m),
            (Ok(m), Err(e)) => (e, m),
            other => panic!("expected one message and one kick, got {other:?}"),
        };
        assert!(matches!(kicked, Error::Interrupted(_)), "{kicked:?}");
        assert_eq!(&got.data[..], b"after the kick");
    }

    /// Has anything kicked `ep` since it last waited? (Consumes the kick.)
    fn kicked(ep: &mut MpiEndpoint) -> bool {
        let polled = ep.ingest_one(&mut VClock::new(), Some(Duration::ZERO));
        matches!(polled, Err(Error::Interrupted(_)))
    }

    /// A rank that registered with the directory is woken when a peer is
    /// placed somewhere new and when a peer's port binds — the two changes
    /// a "peer not reachable yet" send retry waits for.
    #[test]
    fn directory_wakes_registered_ranks_on_place_and_bind() {
        let (f, dir) = setup(3, "ideal");
        let mut a = ep(&f, &dir, 0);
        dir.bound(Rank(0), a.kicker());
        assert!(!kicked(&mut a), "nothing has happened yet");
        // The same placement again is no change.
        dir.place(Rank(1), NodeId(1));
        assert!(!kicked(&mut a));
        // A peer moves.
        dir.place(Rank(1), NodeId(2));
        assert!(kicked(&mut a));
        assert!(!kicked(&mut a), "a kick wakes one wait");
        // A peer binds its port and registers; the newcomer itself is left
        // alone.
        let mut b = MpiEndpoint::new(
            &f,
            AppId(1),
            Rank(1),
            dir.clone(),
            RecvMode::Direct,
            TraceSink::disabled(),
        )
        .unwrap();
        dir.bound(Rank(1), b.kicker());
        assert!(kicked(&mut a));
        assert!(!kicked(&mut b));
        dir.place(Rank(2), NodeId(0));
        assert!(kicked(&mut a) && kicked(&mut b));
        // An endpoint takes its registration with it — unless a newer
        // incarnation of the rank (here: a stand-in) has replaced it.
        let mut next = ep(&f, &dir, 2);
        dir.bound(Rank(1), next.kicker());
        drop(b);
        dir.place(Rank(0), NodeId(1));
        assert!(
            kicked(&mut next),
            "the newer registration survived the drop"
        );
    }

    /// A rank restarted on the same node binds the same address; dropping
    /// the stale endpoint afterwards leaves its successor's port bound.
    #[test]
    fn a_stale_endpoint_leaves_its_successors_port_bound() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let stale = ep(&f, &dir, 1);
        f.crash_node(NodeId(1));
        f.add_node(NodeId(1));
        let mut successor = ep(&f, &dir, 1);
        drop(stale);
        let mut ca = VClock::new();
        a.send_world(&mut ca, Rank(1), 1, 1, b"to the successor")
            .unwrap();
        let m = successor
            .recv_world(&mut VClock::new(), 1, ANY_SOURCE, ANY_TAG)
            .unwrap();
        assert_eq!(&m.data[..], b"to the successor");
    }

    /// `vni.recv_queue_depth` is the number of messages that arrived and
    /// wait unconsumed, as of the endpoint's last look at its port.
    #[test]
    fn recv_queue_depth_counts_unconsumed_messages() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let reg = Registry::new();
        b.set_metrics(reg.clone());
        let depth = || reg.gauge(metric::VNI_RECV_QUEUE_DEPTH);
        let (mut ca, mut cb) = (VClock::new(), VClock::new());
        for tag in 0..3 {
            a.send_world(&mut ca, Rank(1), 1, tag, b"x").unwrap();
        }
        assert_eq!(depth(), 0, "nothing looked at yet");
        assert!(b.iprobe(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap());
        assert_eq!(depth(), 3);
        b.recv_world(&mut cb, 1, ANY_SOURCE, Some(1)).unwrap();
        assert!(b.iprobe(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap());
        assert_eq!(depth(), 2);
    }

    #[test]
    fn piggyback_interval_travels() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        a.piggyback_interval = 5;
        a.send_world(&mut ca, Rank(1), 1, 1, b"x").unwrap();
        let m = b.recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap();
        assert_eq!(m.interval, 5);
    }

    // ---- reliability layer ------------------------------------------------

    fn ep_direct(f: &Fabric, dir: &RankDirectory, rank: u32) -> MpiEndpoint {
        let mut e = MpiEndpoint::new(
            f,
            AppId(1),
            Rank(rank),
            dir.clone(),
            RecvMode::Direct,
            TraceSink::disabled(),
        )
        .unwrap();
        e.set_reliable(true);
        e
    }

    #[test]
    fn reliable_recovers_single_dropped_packet() {
        use starfish_util::NodeId;
        use starfish_vni::LinkFault;
        let (f, dir) = setup(2, "ideal");
        let mut a = ep_direct(&f, &dir, 0);
        let mut b = ep_direct(&f, &dir, 1);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        // Eat exactly the second data packet on the wire.
        f.set_link_fault(NodeId(0), NodeId(1), LinkFault::seeded(1).drop_nth(1));
        for i in 0..4u8 {
            a.send_world(&mut ca, Rank(1), 1, 3, &[i]).unwrap();
        }
        // Receiving seq 3 parks it and NACKs the gap at seq 2; pumping the
        // sender services the NACK. Single-threaded, so alternate manually.
        for want in 0..4u8 {
            let got = loop {
                if let Some(m) = b
                    .try_recv_world(&mut cb, 1, Some(Rank(0)), Some(3))
                    .unwrap()
                {
                    break m;
                }
                while a.ingest_one(&mut ca, None).unwrap() {}
            };
            assert_eq!(got.data[0], want, "in-order despite the drop");
        }
        assert!(f.fault_stats().conserved());
    }

    #[test]
    fn reliable_discards_wire_duplicates() {
        use starfish_util::NodeId;
        use starfish_vni::LinkFault;
        let (f, dir) = setup(2, "ideal");
        let mut a = ep_direct(&f, &dir, 0);
        let mut b = ep_direct(&f, &dir, 1);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        // Every packet delivered twice.
        f.set_link_fault(NodeId(0), NodeId(1), LinkFault::seeded(1).duplicate(1.0));
        for i in 0..6u8 {
            a.send_world(&mut ca, Rank(1), 1, 3, &[i]).unwrap();
        }
        for want in 0..6u8 {
            let m = b.recv_world(&mut cb, 1, Some(Rank(0)), Some(3)).unwrap();
            assert_eq!(m.data[0], want);
        }
        // Nothing extra left behind.
        assert!(b
            .try_recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG)
            .unwrap()
            .is_none());
        assert_eq!(b.pending_count(), 0);
    }

    #[test]
    fn reliable_restores_order_under_reordering() {
        use starfish_util::NodeId;
        use starfish_vni::LinkFault;
        let (f, dir) = setup(2, "ideal");
        let mut a = ep_direct(&f, &dir, 0);
        let mut b = ep_direct(&f, &dir, 1);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        f.set_link_fault(NodeId(0), NodeId(1), LinkFault::seeded(9).reorder(0.4));
        for i in 0..12u8 {
            a.send_world(&mut ca, Rank(1), 1, 3, &[i]).unwrap();
        }
        f.clear_link_fault(NodeId(0), NodeId(1));
        for want in 0..12u8 {
            let m = b.recv_world(&mut cb, 1, Some(Rank(0)), Some(3)).unwrap();
            assert_eq!(m.data[0], want, "per-sender FIFO survives reordering");
        }
    }

    #[test]
    fn flush_repairs_tail_loss() {
        use starfish_util::NodeId;
        use starfish_vni::LinkFault;
        let (f, dir) = setup(2, "ideal");
        let mut a = ep_direct(&f, &dir, 0);
        let mut b = ep_direct(&f, &dir, 1);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        // The *last* packet is eaten: no later traffic exposes the gap, only
        // the sender's Flush advertisement can.
        f.set_link_fault(NodeId(0), NodeId(1), LinkFault::seeded(1).drop_nth(2));
        for i in 0..3u8 {
            a.send_world(&mut ca, Rank(1), 1, 3, &[i]).unwrap();
        }
        for want in 0..2u8 {
            let m = b.recv_world(&mut cb, 1, Some(Rank(0)), Some(3)).unwrap();
            assert_eq!(m.data[0], want);
        }
        // Quiescence protocol: flush + pump both sides until the tail shows.
        let got = loop {
            a.flush_reliable(&mut ca);
            while a.ingest_one(&mut ca, None).unwrap() {}
            if let Some(m) = b
                .try_recv_world(&mut cb, 1, Some(Rank(0)), Some(3))
                .unwrap()
            {
                break m;
            }
        };
        assert_eq!(got.data[0], 2);
    }

    #[test]
    fn reliable_off_is_unchanged_wire_format() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0); // reliability off
        let mut b = ep(&f, &dir, 1);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        a.send_world(&mut ca, Rank(1), 1, 1, b"x").unwrap();
        let m = b.recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap();
        assert_eq!(&m.data[..], b"x");
    }

    /// End-to-end trace propagation: two recording endpoints produce rings
    /// that reassemble into a cross-process happens-before edge, and the
    /// receiver's Lamport clock lands after the sender's.
    #[test]
    fn trace_context_propagates_across_the_wire() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        a.set_recorder(FlightRecorder::new("app1.r0", 64));
        b.set_recorder(FlightRecorder::new("app1.r1", 64));
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        a.send_world(&mut ca, Rank(1), 1, 5, b"traced").unwrap();
        let m = b.recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap();
        assert_eq!(&m.data[..], b"traced");
        let dag = starfish_trace::reassemble(vec![a.recorder().dump(), b.recorder().dump()]);
        assert_eq!(dag.message_edges, 1, "send must stitch to its recv");
        dag.check().unwrap();
    }

    /// The contexts of the sends (`true`) or receives recorded by `ep`, in
    /// order.
    fn recorded(ep: &MpiEndpoint, sends: bool) -> Vec<TraceCtx> {
        let events = ep.recorder().dump().events;
        events
            .into_iter()
            .filter_map(|e| match e.kind {
                EventKind::Send { ctx, .. } if sends => Some(ctx),
                EventKind::Recv { ctx, .. } if !sends => Some(ctx),
                _ => None,
            })
            .collect()
    }

    /// A survivor rolled back in place keeps its old recorder, whose span
    /// base is not the implied base of its new epoch; its peer restarted
    /// with a recorder of that epoch. The survivor's ids travel in full,
    /// the peer's under the implied bases, and every context arrives as it
    /// left, so every receive pairs with its send.
    #[test]
    fn a_recorder_off_its_implied_base_still_pairs_every_receive() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        a.set_recorder(FlightRecorder::new("app1.r0", 64));
        b.set_recorder(FlightRecorder::with_incarnation("app1.r1", 64, 1));
        a.set_epoch(Epoch(1));
        b.set_epoch(Epoch(1));
        let (mut ca, mut cb) = (VClock::new(), VClock::new());
        // Inside a phase every send carries its context.
        a.recorder().phase_begin(ca.now(), "ckpt.round");
        b.recorder().phase_begin(cb.now(), "ckpt.round");
        for tag in 0..3 {
            a.send_world(&mut ca, Rank(1), 1, tag, b"ping").unwrap();
            b.recv_world(&mut cb, 1, Some(Rank(0)), Some(tag)).unwrap();
            b.send_world(&mut cb, Rank(0), 1, tag, b"pong").unwrap();
            a.recv_world(&mut ca, 1, Some(Rank(1)), Some(tag)).unwrap();
        }
        assert_eq!(recorded(&a, true), recorded(&b, false));
        assert_eq!(recorded(&b, true), recorded(&a, false));
        let dag = starfish_trace::reassemble(vec![a.recorder().dump(), b.recorder().dump()]);
        assert_eq!(dag.message_edges, 6, "every receive pairs with its send");
        dag.check().unwrap();
    }

    /// A frame whose extension does not decode still delivers its body,
    /// tallied as untraced; the traced frame behind it keeps its context.
    #[test]
    fn a_garbage_extension_delivers_its_body_untraced() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        a.set_recorder(FlightRecorder::new("app1.r0", 64));
        b.set_recorder(FlightRecorder::new("app1.r1", 64));
        let h = MsgHeader {
            src: Rank(0),
            context: 1,
            tag: 1,
            epoch: Epoch(0),
            interval: 0,
            seq: 0,
            flags: 0,
            credit: 0,
        };
        // The one byte of extension has the context tag's reserved bit set.
        let raw = h.frame_raw_ext(&[0xFF], b"garbled");
        let (src, dst) = a.addrs(Rank(1)).unwrap();
        let garbled = Packet::new(src, dst, PacketKind::Data, 1, raw);
        f.send(garbled).unwrap();
        let (mut ca, mut cb) = (VClock::new(), VClock::new());
        a.send_world(&mut ca, Rank(1), 1, 2, b"traced").unwrap();
        let m = b.recv_world(&mut cb, 1, Some(Rank(0)), Some(1)).unwrap();
        assert_eq!(&m.data[..], b"garbled");
        let m = b.recv_world(&mut cb, 1, Some(Rank(0)), Some(2)).unwrap();
        assert_eq!(&m.data[..], b"traced");
        let sent = recorded(&a, true);
        assert!(sent.len() == 1 && sent[0].is_some());
        assert_eq!(recorded(&b, false), sent);
        let tally = b.recorder().dump().unsampled;
        assert_eq!(
            (tally[0].peer, tally[0].recvd, tally[0].recvd_bytes),
            (0, 1, 7)
        );
    }

    /// Sampling keeps the untraced frame off the wire: an 8-byte message
    /// whose root was sampled out frames in 11 bytes, with no extension.
    #[test]
    fn an_unsampled_8_byte_frame_is_11_bytes() {
        let (f, dir) = setup(2, "ideal");
        let sink = TraceSink::enabled();
        let mut a = MpiEndpoint::new(
            &f,
            AppId(1),
            Rank(0),
            dir.clone(),
            RecvMode::Polled,
            sink.clone(),
        )
        .unwrap();
        let _b = ep(&f, &dir, 1);
        a.set_recorder(FlightRecorder::new("app1.r0", 64));
        let mut ca = VClock::new();
        a.send_world(&mut ca, Rank(1), 1, 1, &[7; 8]).unwrap();
        let sampled = sink.bytes(MsgClass::Data);
        a.send_world(&mut ca, Rank(1), 1, 1, &[7; 8]).unwrap();
        assert_eq!(sink.bytes(MsgClass::Data) - sampled, 11);
        assert!(sampled > 11, "the first root carries its context");
        assert_eq!(recorded(&a, true).len(), 1);
    }

    /// The sender's rank is the packet's source port's: a well-formed
    /// frame from a port outside the application's data ports — an
    /// unbound port, another application's rank — is dropped, never
    /// delivered, and the frames behind it still are.
    #[test]
    fn a_frame_from_a_foreign_port_is_dropped() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let h = MsgHeader {
            src: Rank(0),
            context: 1,
            tag: 1,
            epoch: Epoch(0),
            interval: 0,
            seq: 0,
            flags: 0,
            credit: 0,
        };
        let (own, dst) = a.addrs(Rank(1)).unwrap();
        for port in [PortId(999), data_port(AppId(2), Rank(0))] {
            let foreign = Addr::new(own.node, port);
            let pkt = Packet::new(foreign, dst, PacketKind::Data, 1, h.frame(b"foreign"));
            f.send(pkt).unwrap();
        }
        let (mut ca, mut cb) = (VClock::new(), VClock::new());
        a.send_world(&mut ca, Rank(1), 1, 2, b"own").unwrap();
        let m = b.recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap();
        assert_eq!((m.src, m.tag, &m.data[..]), (Rank(0), 2, &b"own"[..]));
        let late = b.try_recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap();
        assert!(late.is_none(), "{late:?}");
        assert_eq!(b.pending_count(), 0);
    }

    /// A send the fabric refused minted nothing: once the peer is up, the
    /// first send that leaves carries the recorder's first span and takes
    /// the first sampling slot, and the 64th root after it is the next one
    /// traced.
    #[test]
    fn a_failed_attempt_consumes_no_span_and_no_sampling_slot() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        a.set_recorder(FlightRecorder::new("app1.r0", 64));
        let mut ca = VClock::new();
        for _ in 0..5 {
            let err = a.send_world(&mut ca, Rank(1), 1, 1, b"x");
            assert!(matches!(err, Err(Error::NotFound(_))), "{err:?}");
        }
        let _b = ep(&f, &dir, 1);
        for tag in 0..=64 {
            a.send_world(&mut ca, Rank(1), 1, tag, b"x").unwrap();
        }
        let base = starfish_trace::span_base("app1.r0", 0);
        let spans: Vec<u64> = recorded(&a, true).iter().map(|c| c.span).collect();
        assert_eq!(spans, [base | 1, base | 2]);
        assert_eq!(a.recorder().dump().unsampled[0].sent, 63);
    }

    // ---- rendezvous protocol ----------------------------------------------

    /// Blocking rendezvous end-to-end: a payload over the threshold goes
    /// RTS → CTS → DATA and arrives intact, with the sender's blocking send
    /// pumping its own endpoint until the payload is granted.
    #[test]
    fn rendezvous_roundtrip_large_payload() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        a.set_rendezvous_threshold(1024);
        let payload: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        let t = std::thread::spawn(move || {
            let mut cb = VClock::new();
            b.recv_world(&mut cb, 1, Some(Rank(0)), Some(7)).unwrap()
        });
        let mut ca = VClock::new();
        a.send_world(&mut ca, Rank(1), 1, 7, &payload).unwrap();
        assert_eq!(a.pending_rendezvous(), 0, "blocking send pushes the data");
        let m = t.join().unwrap();
        assert_eq!(&m.data[..], &expect[..]);
        assert_eq!(m.src, Rank(0));
        assert_eq!(m.tag, 7);
    }

    /// A multi-chunk rendezvous delivery is stamped with the *latest* chunk
    /// arrival, not the completing chunk's. With per-packet bandwidth
    /// charging the tiny tail chunk of a 256 KiB + 16 B transfer carries a
    /// microsecond-scale timestamp while the big chunk carries ~2.1 ms;
    /// the receiver's clock must reflect the big chunk's serialization.
    #[test]
    fn rendezvous_delivery_time_covers_all_chunks() {
        let (f, dir) = setup(2, "bip");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        a.set_rendezvous_threshold(1024);
        a.set_rendezvous_chunk_bytes(256 * 1024);
        let payload = vec![0x5Au8; 256 * 1024 + 16];
        let t = std::thread::spawn(move || {
            let mut cb = VClock::new();
            let m = b.recv_world(&mut cb, 1, Some(Rank(0)), Some(7)).unwrap();
            (m.data.len(), cb.now())
        });
        let mut ca = VClock::new();
        a.send_world(&mut ca, Rank(1), 1, 7, &payload).unwrap();
        let (len, vt) = t.join().unwrap();
        assert_eq!(len, 256 * 1024 + 16);
        // BIP/Myrinet moves 125 MB/s = 8 ns/B: the 256 KiB chunk alone is
        // ~2.1 ms on the wire.
        let serialization = VirtualTime::from_nanos(256 * 1024 * 8);
        assert!(
            vt >= serialization,
            "receiver clock {:?} lost the big chunk's serialization ({:?})",
            vt,
            serialization
        );
    }

    /// A rendezvous transfer across a link that drops, duplicates and
    /// reorders in both directions still delivers exactly once: lost RTS or
    /// DATA is repaired by the reliability layer, a lost CTS by the
    /// receiver's cadence-limited re-grant.
    #[test]
    fn rendezvous_exactly_once_over_faulty_link() {
        use starfish_util::NodeId;
        use starfish_vni::LinkFault;
        let (f, dir) = setup(2, "ideal");
        let mut a = ep_direct(&f, &dir, 0);
        let mut b = ep_direct(&f, &dir, 1);
        a.set_rendezvous_threshold(64);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        f.set_link_fault(
            NodeId(0),
            NodeId(1),
            LinkFault::seeded(7).drop(0.3).duplicate(0.3).reorder(0.3),
        );
        f.set_link_fault(
            NodeId(1),
            NodeId(0),
            LinkFault::seeded(8).drop(0.2).duplicate(0.2),
        );
        let payload: Vec<u8> = (0..10_000u32).map(|i| (i * 7 % 256) as u8).collect();
        let req = a.isend_world(&mut ca, Rank(1), 1, 3, &payload).unwrap();
        assert!(matches!(req, Request::RndvSend { .. }));
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let got = loop {
            assert!(
                std::time::Instant::now() < deadline,
                "rendezvous did not complete over faulty link"
            );
            if let Some(m) = b
                .try_recv_world(&mut cb, 1, Some(Rank(0)), Some(3))
                .unwrap()
            {
                break m;
            }
            // Repair loop: the sender advertises its flow tail and services
            // CTS/NACK traffic; real time passes so the CTS re-grant
            // cadence can elapse.
            a.flush_reliable(&mut ca);
            while a.ingest_one(&mut ca, None).unwrap() {}
            std::thread::sleep(Duration::from_millis(2));
        };
        assert_eq!(&got.data[..], &payload[..]);
        assert_eq!(a.pending_rendezvous(), 0);
        // Exactly once: nothing further is delivered.
        while a.ingest_one(&mut ca, None).unwrap() {}
        assert!(b
            .try_recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG)
            .unwrap()
            .is_none());
        assert!(f.fault_stats().conserved());
    }

    /// A sender that exhausts its eager credit toward one destination falls
    /// back to rendezvous even for tiny payloads, and the receiver's
    /// consumption returns credit that completes the transfer.
    #[test]
    fn exhausted_credit_forces_rendezvous_fallback() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        a.set_rendezvous_threshold(usize::MAX); // size alone never triggers
        let chunk = vec![0u8; 256 * 1024];
        let mut ca = VClock::new();
        for _ in 0..4 {
            // 4 × 256 KiB = exactly EAGER_CREDIT_BYTES
            a.send_world(&mut ca, Rank(1), 1, 1, &chunk).unwrap();
        }
        let req = a.isend_world(&mut ca, Rank(1), 1, 1, &[1, 2, 3]).unwrap();
        assert!(
            matches!(req, Request::RndvSend { .. }),
            "credit exhaustion must force rendezvous"
        );
        assert_eq!(a.pending_rendezvous(), 1);
        let mut cb = VClock::new();
        for _ in 0..4 {
            let m = b.recv_world(&mut cb, 1, ANY_SOURCE, Some(1)).unwrap();
            assert_eq!(m.data.len(), chunk.len());
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let got = loop {
            assert!(std::time::Instant::now() < deadline);
            if let Some(m) = b.try_recv_world(&mut cb, 1, ANY_SOURCE, Some(1)).unwrap() {
                break m;
            }
            while a.ingest_one(&mut ca, None).unwrap() {}
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(&got.data[..], &[1, 2, 3]);
        assert_eq!(a.pending_rendezvous(), 0);
    }

    /// A message replayed from a checkpoint's channel state was not spent
    /// by its sender in this epoch, so consuming it returns no credit.
    #[test]
    fn replayed_channel_messages_owe_no_credit() {
        let (f, dir) = setup(2, "ideal");
        let _a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let mut cb = VClock::new();
        b.set_epoch(Epoch(1));
        let header = MsgHeader {
            src: Rank(0),
            context: 1,
            tag: 4,
            epoch: Epoch(0),
            interval: 0,
            seq: 0,
            flags: 0,
            credit: 0,
        };
        let replay = Bytes::from(vec![7u8; 256 * 1024]);
        b.restore_channel(vec![(header, replay)], VirtualTime::ZERO);
        let m = b.recv_world(&mut cb, 1, Some(Rank(0)), Some(4)).unwrap();
        assert_eq!(m.data.len(), 256 * 1024);
        assert_eq!(f.stats().0, 0, "no credit packet left");
        assert_eq!(b.credit.stamp(Rank(0)), 0, "nothing counted for a frame");
    }

    /// The consumer's first standalone return is lost or duplicated in a
    /// one-way stream of 16 × 64 KiB eager messages. Halfway, the producer
    /// never believes it has more room than the consumer's count grants;
    /// once everything is consumed, its whole budget is back.
    #[test]
    fn a_lost_or_duplicated_credit_return_leaves_the_budget_exact() {
        use crate::credit::{CREDIT_BATCH_BYTES as UNIT, EAGER_CREDIT_BYTES};
        use starfish_vni::LinkFault;
        for fault in [
            LinkFault::seeded(1).drop_nth(0),
            LinkFault::seeded(1).dup_nth(0),
        ] {
            let (f, dir) = setup(2, "ideal");
            let mut a = ep(&f, &dir, 0);
            let mut b = ep(&f, &dir, 1);
            a.set_rendezvous_threshold(usize::MAX);
            f.set_link_fault(NodeId(1), NodeId(0), fault);
            let (mut ca, mut cb) = (VClock::new(), VClock::new());
            for _ in 0..16 {
                let req = a.isend_world(&mut ca, Rank(1), 1, 1, &[0; UNIT]).unwrap();
                assert!(matches!(req, Request::Send { .. }), "{fault:?}");
            }
            for half in [8, 16] {
                for _ in 0..8 {
                    b.recv_world(&mut cb, 1, Some(Rank(0)), Some(1)).unwrap();
                }
                a.drain(&mut ca).unwrap();
                let more = a.credit.route(Rank(1), half * UNIT + 1, usize::MAX);
                assert_eq!(more, Route::CreditFallback, "{fault:?} after {half}");
            }
            assert_eq!(f.fault_stats().dropped + f.fault_stats().duplicated, 1);
            let next = a
                .isend_world(&mut ca, Rank(1), 1, 1, &vec![0; EAGER_CREDIT_BYTES])
                .unwrap();
            assert!(matches!(next, Request::Send { .. }), "{fault:?}: {next:?}");
        }
    }

    /// A data frame lost while its sender's count moves on by most of the
    /// six-bit range is retransmitted with the count of now: the old one
    /// would read as a forward step and credit the producer with payload
    /// the consumer never took.
    #[test]
    fn a_retransmission_reports_the_count_of_now() {
        use crate::credit::CREDIT_BATCH_BYTES as UNIT;
        use starfish_vni::LinkFault;
        let (f, dir) = setup(2, "ideal");
        let (mut a, mut b) = (ep(&f, &dir, 0), ep(&f, &dir, 1));
        a.set_reliable(true);
        b.set_reliable(true);
        a.set_rendezvous_threshold(usize::MAX);
        let (mut ca, mut cb) = (VClock::new(), VClock::new());
        // The consumer's first packet to the producer is lost: a data
        // frame carrying a count of 4.
        f.set_link_fault(NodeId(1), NodeId(0), LinkFault::seeded(1).drop_nth(0));
        fn stream(a: &mut MpiEndpoint, b: &mut MpiEndpoint, units: usize, consume: bool) {
            let (mut ca, mut cb) = (VClock::new(), VClock::new());
            for _ in 0..units {
                a.send_world(&mut ca, Rank(1), 1, 1, &[0; UNIT]).unwrap();
                if consume {
                    b.recv_world(&mut cb, 1, Some(Rank(0)), Some(1)).unwrap();
                }
                a.drain(&mut ca).unwrap();
            }
        }
        stream(&mut a, &mut b, 4, true);
        b.send_world(&mut cb, Rank(0), 1, 9, b"lost").unwrap();
        // 60 units more, returned standalone up to 60; then 8 unconsumed.
        stream(&mut a, &mut b, 60, true);
        stream(&mut a, &mut b, 8, false);
        // The flush exposes the loss; the NACK brings the frame back.
        b.flush_reliable(&mut cb);
        a.drain(&mut ca).unwrap();
        b.drain(&mut cb).unwrap();
        let m = a.recv_world(&mut ca, 1, Some(Rank(1)), Some(9)).unwrap();
        assert_eq!(&m.data[..], b"lost");
        // 72 units spent, 64 consumed: room for exactly 8 more.
        assert_eq!(a.credit.route(Rank(1), 8 * UNIT, usize::MAX), Route::Eager);
        let more = a.credit.route(Rank(1), 8 * UNIT + 1, usize::MAX);
        assert_eq!(more, Route::CreditFallback);
    }

    /// A halo exchange returns its credit on the halos: 256 × 8 KiB each
    /// way is 512 packets, not one more.
    #[test]
    fn a_halo_exchange_sends_no_credit_packet() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let (mut ca, mut cb) = (VClock::new(), VClock::new());
        let halo = [0u8; 8 * 1024];
        for _ in 0..256 {
            a.send_world(&mut ca, Rank(1), 1, 1, &halo).unwrap();
            b.send_world(&mut cb, Rank(0), 1, 1, &halo).unwrap();
            a.recv_world(&mut ca, 1, Some(Rank(1)), Some(1)).unwrap();
            b.recv_world(&mut cb, 1, Some(Rank(0)), Some(1)).unwrap();
        }
        assert_eq!(f.stats().0, 2 * 256);
        for side in [&a, &b] {
            let peer = Rank(1 - side.rank().0);
            assert_eq!(side.credit.route(peer, 15 << 16, usize::MAX), Route::Eager);
        }
    }

    /// MPI non-overtaking: a small eager message sent *after* a rendezvous
    /// message (same sender, context, tag) must not be delivered first,
    /// even though it is complete long before the rendezvous payload.
    #[test]
    fn rendezvous_placeholder_preserves_sender_fifo() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep_direct(&f, &dir, 0);
        let mut b = ep_direct(&f, &dir, 1);
        a.set_rendezvous_threshold(64);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        let big = vec![7u8; 1024];
        let req = a.isend_world(&mut ca, Rank(1), 1, 5, &big).unwrap();
        assert!(matches!(req, Request::RndvSend { .. }));
        a.send_world(&mut ca, Rank(1), 1, 5, b"small").unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let first = loop {
            assert!(std::time::Instant::now() < deadline);
            if let Some(m) = b.try_recv_world(&mut cb, 1, ANY_SOURCE, Some(5)).unwrap() {
                break m;
            }
            while a.ingest_one(&mut ca, None).unwrap() {}
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(&first.data[..], &big[..], "rendezvous must deliver first");
        let second = loop {
            if let Some(m) = b.try_recv_world(&mut cb, 1, ANY_SOURCE, Some(5)).unwrap() {
                break m;
            }
            while a.ingest_one(&mut ca, None).unwrap() {}
        };
        assert_eq!(&second.data[..], b"small");
    }

    /// Channel capture around an in-flight rendezvous: the placeholder is
    /// not captured (its payload is still the sender's), a quiescence push
    /// completes it, and the completed message snapshots and restores like
    /// any eager message.
    #[test]
    fn snapshot_skips_placeholders_and_quiescence_push_completes_them() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep_direct(&f, &dir, 0);
        let mut b = ep_direct(&f, &dir, 1);
        a.set_rendezvous_threshold(64);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        let big = vec![3u8; 500];
        let _req = a.isend_world(&mut ca, Rank(1), 1, 2, &big).unwrap();
        let snap = b.snapshot_channel(&mut cb);
        assert!(
            snap.is_empty(),
            "unfulfilled placeholder must not be captured"
        );
        assert_eq!(b.pending_count(), 1, "but it is pending (matchable)");
        // Stop-and-sync quiescence: the sender pushes without waiting for
        // CTS, and the unsolicited DATA merges into the placeholder.
        a.push_pending_rendezvous(&mut ca);
        assert_eq!(a.pending_rendezvous(), 0);
        let snap = b.snapshot_channel(&mut cb);
        assert_eq!(snap.len(), 1);
        assert_eq!(&snap[0].1[..], &big[..]);
        // Restore into a new epoch: the payload comes back as plain eager.
        b.set_epoch(Epoch(1));
        b.restore_channel(snap, VirtualTime::from_millis(1));
        let m = b.recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap();
        assert_eq!(&m.data[..], &big[..]);
    }

    /// A pipelined transfer (many chunks, tiny chunk size) reassembles
    /// byte-for-byte, streams exactly [`RNDV_EARLY_CHUNKS`] chunks before
    /// any CTS, and never completes sender-side without the grant.
    #[test]
    fn pipelined_chunks_reassemble_byte_for_byte() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep_direct(&f, &dir, 0);
        let mut b = ep_direct(&f, &dir, 1);
        a.set_rendezvous_threshold(64);
        a.set_rendezvous_chunk_bytes(100);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 253) as u8).collect();
        let req = a.isend_world(&mut ca, Rank(1), 1, 5, &payload).unwrap();
        let Request::RndvSend { id, .. } = req else {
            panic!("expected a rendezvous send, got {req:?}");
        };
        // Early streaming happened, but the transfer must still be parked:
        // the last chunk only leaves on CTS (or a checkpoint push).
        assert_eq!(a.pending_rendezvous(), 1);
        assert_eq!(
            a.rndv_tx.remaining(id).first().map(|c| c.desc.offset),
            Some(RNDV_EARLY_CHUNKS as u64 * 100),
            "exactly the early-chunk budget streams before the CTS"
        );
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let got = loop {
            assert!(std::time::Instant::now() < deadline);
            if let Some(m) = b.try_recv_world(&mut cb, 1, ANY_SOURCE, Some(5)).unwrap() {
                break m;
            }
            while a.ingest_one(&mut ca, None).unwrap() {}
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(&got.data[..], &payload[..], "chunks reassemble exactly");
        assert_eq!(a.pending_rendezvous(), 0);
    }

    /// The receive-side zero-copy pin: a transfer that fits one chunk is
    /// delivered as a slice of the *sender's* payload allocation — no
    /// assembly buffer, no placement copy, end-to-end.
    #[test]
    fn single_chunk_delivery_is_zero_copy() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep_direct(&f, &dir, 0);
        let mut b = ep_direct(&f, &dir, 1);
        a.set_rendezvous_threshold(64);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        let payload = Bytes::from((0..4000u32).map(|i| (i % 241) as u8).collect::<Vec<u8>>());
        let range = payload.as_ptr() as usize..payload.as_ptr() as usize + payload.len();
        let req = a
            .isend_world_bytes(&mut ca, Rank(1), 1, 9, payload.clone())
            .unwrap();
        assert!(matches!(req, Request::RndvSend { .. }));
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let got = loop {
            assert!(std::time::Instant::now() < deadline);
            if let Some(m) = b.try_recv_world(&mut cb, 1, ANY_SOURCE, Some(9)).unwrap() {
                break m;
            }
            while a.ingest_one(&mut ca, None).unwrap() {}
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(&got.data[..], &payload[..]);
        let p = got.data.as_ptr() as usize;
        assert!(
            range.contains(&p) && range.contains(&(p + got.data.len() - 1)),
            "single-chunk delivery must alias the sender's payload buffer"
        );
    }

    /// A payload the sender owns reaches the receiver as the sender's own
    /// buffer on both paths, at the default thresholds: a threshold-sized
    /// blocking send goes rendezvous in one chunk, a 512 B `isend` goes
    /// eager with the payload as its packet's segment — and the eager one
    /// still counts as 512 B of payload wherever the body used to be counted.
    #[test]
    fn owned_payloads_reach_the_receiver_uncopied() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1);
        let sink = TraceSink::enabled();
        a.trace = sink.clone();
        a.set_recorder(FlightRecorder::new("app1.r0", 64));
        let reg = Registry::new();
        a.set_metrics(reg.clone());
        const BIG: usize = DEFAULT_RNDV_THRESHOLD;
        let big = Bytes::from(vec![0xB1u8; BIG]);
        let small = Bytes::from(vec![0x5Au8; 512]);
        let sent = [big.as_ptr(), small.as_ptr()];
        let rx = std::thread::spawn(move || {
            let mut cb = VClock::new();
            [1, 2].map(|tag| b.recv_world(&mut cb, 1, Some(Rank(0)), Some(tag)).unwrap())
        });
        let mut ca = VClock::new();
        // Inside a phase every send carries its context.
        a.recorder().phase_begin(ca.now(), "transfer");
        a.send_world_bytes(&mut ca, Rank(1), 1, 1, big).unwrap();
        let req = a.isend_world_bytes(&mut ca, Rank(1), 1, 2, small).unwrap();
        assert!(matches!(req, Request::Send { .. }), "512 B is eager");
        assert_eq!(
            reg.counter(metric::MPI_RNDV_SENDS),
            1,
            "BIG went rendezvous"
        );
        let got = rx.join().unwrap();
        for (m, (ptr, len)) in got.iter().zip(sent.into_iter().zip([BIG, 512])) {
            assert_eq!((m.data.as_ptr(), m.data.len()), (ptr, len), "tag {}", m.tag);
        }
        let events = a.recorder().dump().events;
        let eager = &events.last().expect("the eager send was recorded").kind;
        assert!(
            matches!(eager, EventKind::Send { bytes: 512, .. }),
            "{eager:?}"
        );
        // The RTS, the chunk and the eager frame, each header at its own
        // encoded length, each extension six bytes: its length, then the
        // context's tag, the counters of the span, of the trace and of the
        // parent (both the phase's span) under the sender's implied base,
        // and the clock's distance from the span's counter, 0.
        let seqs: [u64; 3] = if a.flows.enabled { [1, 2, 3] } else { [0; 3] };
        let head = |tag, seq, flags| {
            let h = MsgHeader {
                src: Rank(0),
                context: 1,
                tag,
                epoch: Epoch(0),
                interval: 0,
                seq,
                flags,
                credit: 0,
            };
            h.frame(&[]).len()
        };
        let rts = head(1, seqs[0], FLAG_RNDV_RTS) + RndvEnv::LEN;
        let chunk = head(1, seqs[1], FLAG_RNDV_DATA) + RndvChunk::LEN + BIG;
        let framed = rts + chunk + head(2, seqs[2], 0) + 3 * 6 + 512;
        assert_eq!(sink.bytes(MsgClass::Data), framed as u64);
    }

    /// The zero-copy pin: every chunk's retransmit record holds a slice of
    /// the *original* payload allocation — no payload byte is copied into
    /// the reliability layer's buffers.
    #[test]
    fn retransmit_records_slice_original_payload() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep_direct(&f, &dir, 0);
        let _b = ep_direct(&f, &dir, 1);
        a.set_rendezvous_threshold(64);
        a.set_rendezvous_chunk_bytes(128);
        let mut ca = VClock::new();
        let payload = Bytes::from((0..1000u32).map(|i| i as u8).collect::<Vec<u8>>());
        let range = payload.as_ptr() as usize..payload.as_ptr() as usize + payload.len();
        let req = a
            .isend_world_bytes(&mut ca, Rank(1), 1, 1, payload.clone())
            .unwrap();
        assert!(matches!(req, Request::RndvSend { .. }));
        a.push_pending_rendezvous(&mut ca);
        assert_eq!(a.pending_rendezvous(), 0, "the push drained the transfer");
        let highest = a.flows.highest();
        assert_eq!(highest.len(), 1, "one reliable flow: {highest:?}");
        let seqs: Vec<u64> = (1..=highest[0].1).collect();
        let mut chunk_records = 0usize;
        for (_seq, frame) in a.flows.tx(Rank(1)).select(&seqs) {
            let Some(seg) = &frame.seg else {
                continue; // the RTS record has no payload segment
            };
            let p = seg.as_ptr() as usize;
            assert!(
                range.contains(&p) && range.contains(&(p + seg.len() - 1)),
                "retransmit segment must alias the original payload buffer"
            );
            chunk_records += 1;
        }
        assert_eq!(chunk_records, 8, "1000 B / 128 B chunks = 8 records");
    }

    /// Stop-and-sync mid-pipeline: early chunks are on the wire, the CTS
    /// never comes, and the checkpoint push (`DataMark` semantics) must
    /// complete the partially-streamed transfer so channel capture sees the
    /// whole payload.
    #[test]
    fn datamark_push_completes_partially_streamed_transfer() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep_direct(&f, &dir, 0);
        let mut b = ep_direct(&f, &dir, 1);
        a.set_rendezvous_threshold(64);
        a.set_rendezvous_chunk_bytes(100);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        let payload: Vec<u8> = (0..950u32).map(|i| (i * 3 % 251) as u8).collect();
        let _req = a.isend_world(&mut ca, Rank(1), 1, 2, &payload).unwrap();
        // The receiver has the placeholder with a partial reassembly; an
        // unfulfilled transfer must not be captured.
        let snap = b.snapshot_channel(&mut cb);
        assert!(snap.is_empty(), "partial reassembly must not be captured");
        assert_eq!(b.pending_count(), 1, "but it is pending (matchable)");
        // Quiescence push: the remaining chunks leave without a CTS.
        a.push_pending_rendezvous(&mut ca);
        assert_eq!(a.pending_rendezvous(), 0);
        let snap = b.snapshot_channel(&mut cb);
        assert_eq!(snap.len(), 1);
        assert_eq!(&snap[0].1[..], &payload[..], "capture sees every chunk");
    }

    /// An empty rendezvous payload still completes: the sender ships one
    /// empty chunk so the receiver observes an arrival.
    #[test]
    fn empty_rendezvous_payload_completes() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep_direct(&f, &dir, 0);
        let mut b = ep_direct(&f, &dir, 1);
        a.set_rendezvous_threshold(0); // everything goes rendezvous
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        let req = a.isend_world(&mut ca, Rank(1), 1, 4, b"").unwrap();
        assert!(matches!(req, Request::RndvSend { .. }));
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let got = loop {
            assert!(std::time::Instant::now() < deadline);
            if let Some(m) = b.try_recv_world(&mut cb, 1, ANY_SOURCE, Some(4)).unwrap() {
                break m;
            }
            while a.ingest_one(&mut ca, None).unwrap() {}
            std::thread::sleep(Duration::from_millis(1));
        };
        assert!(got.data.is_empty());
        assert_eq!(a.pending_rendezvous(), 0);
    }

    /// Chunk-level loss, duplication and reordering on a pipelined transfer:
    /// the reliability layer repairs individual chunks and the reassembly
    /// is still byte-exact.
    #[test]
    fn pipelined_chunks_survive_chunk_level_faults() {
        use starfish_util::NodeId;
        use starfish_vni::LinkFault;
        let (f, dir) = setup(2, "ideal");
        let mut a = ep_direct(&f, &dir, 0);
        let mut b = ep_direct(&f, &dir, 1);
        a.set_rendezvous_threshold(64);
        a.set_rendezvous_chunk_bytes(64);
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        f.set_link_fault(
            NodeId(0),
            NodeId(1),
            LinkFault::seeded(21)
                .drop(0.25)
                .duplicate(0.25)
                .reorder(0.3),
        );
        f.set_link_fault(NodeId(1), NodeId(0), LinkFault::seeded(22).drop(0.2));
        let payload: Vec<u8> = (0..4000u32).map(|i| (i * 13 % 255) as u8).collect();
        let req = a.isend_world(&mut ca, Rank(1), 1, 6, &payload).unwrap();
        assert!(matches!(req, Request::RndvSend { .. }));
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        let got = loop {
            assert!(
                std::time::Instant::now() < deadline,
                "chunked rendezvous did not survive chunk-level faults"
            );
            if let Some(m) = b
                .try_recv_world(&mut cb, 1, Some(Rank(0)), Some(6))
                .unwrap()
            {
                break m;
            }
            a.flush_reliable(&mut ca);
            while a.ingest_one(&mut ca, None).unwrap() {}
            std::thread::sleep(Duration::from_millis(2));
        };
        assert_eq!(&got.data[..], &payload[..]);
        assert_eq!(a.pending_rendezvous(), 0);
        assert!(f.fault_stats().conserved());
    }

    /// A tracing sender talking to a peer with no recorder installed: the
    /// peer must receive the exact payload (the context rides an extension
    /// region the untraced side skips) and record nothing.
    #[test]
    fn traced_sender_to_untraced_receiver_is_compatible() {
        let (f, dir) = setup(2, "ideal");
        let mut a = ep(&f, &dir, 0);
        let mut b = ep(&f, &dir, 1); // recorder never installed
        a.set_recorder(FlightRecorder::new("app1.r0", 64));
        let mut ca = VClock::new();
        let mut cb = VClock::new();
        a.send_world(&mut ca, Rank(1), 1, 9, b"payload").unwrap();
        let m = b.recv_world(&mut cb, 1, Some(Rank(0)), Some(9)).unwrap();
        assert_eq!(&m.data[..], b"payload");
        assert!(!b.recorder().is_enabled());
        assert_eq!(b.recorder().dump().events.len(), 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::directory::RankDirectory;
    use proptest::prelude::*;
    use starfish_util::trace::TraceSink;
    use starfish_util::NodeId;
    use starfish_vni::{Fabric, Ideal, LayerCosts};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Every message is matched exactly once, whatever mix of tags and
        /// wildcard receives is used, and payloads survive intact.
        #[test]
        fn exactly_once_matching(
            msgs in proptest::collection::vec((0u64..4, 0u8..255), 1..24),
            use_wildcards in any::<bool>(),
        ) {
            let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
            f.add_node(NodeId(0));
            f.add_node(NodeId(1));
            let dir = RankDirectory::with_placement(&[NodeId(0), NodeId(1)]);
            let mut a = MpiEndpoint::new(
                &f, AppId(1), Rank(0), dir.clone(), RecvMode::Polled,
                TraceSink::disabled(),
            ).unwrap();
            let mut b = MpiEndpoint::new(
                &f, AppId(1), Rank(1), dir, RecvMode::Polled,
                TraceSink::disabled(),
            ).unwrap();
            let mut ca = VClock::new();
            let mut cb = VClock::new();
            for (tag, byte) in &msgs {
                a.send_world(&mut ca, Rank(1), 1, *tag, &[*byte]).unwrap();
            }
            // Receive them all back out, by tag or by wildcard.
            let mut got: Vec<(u64, u8)> = Vec::new();
            if use_wildcards {
                for _ in &msgs {
                    let m = b.recv_world(&mut cb, 1, None, None).unwrap();
                    got.push((m.tag, m.data[0]));
                }
            } else {
                // Per-tag receives, in per-tag FIFO order.
                for (tag, _) in &msgs {
                    let m = b.recv_world(&mut cb, 1, Some(Rank(0)), Some(*tag)).unwrap();
                    got.push((m.tag, m.data[0]));
                }
            }
            // Nothing left over, and multisets match.
            prop_assert_eq!(b.pending_count(), 0);
            let mut want = msgs.clone();
            let mut have = got.clone();
            want.sort_unstable();
            have.sort_unstable();
            prop_assert_eq!(have, want);
            // Per-tag order is FIFO.
            for t in 0u64..4 {
                let sent: Vec<u8> = msgs.iter().filter(|(x, _)| *x == t).map(|(_, b)| *b).collect();
                let rcvd: Vec<u8> = got.iter().filter(|(x, _)| *x == t).map(|(_, b)| *b).collect();
                prop_assert_eq!(sent, rcvd, "FIFO violated for tag {}", t);
            }
        }
    }
}
