//! The per-process MPI engine.
//!
//! One [`MpiEndpoint`] lives inside each application process. Sends are
//! *eager* (paper §2.2.1 \[18\]): the message leaves immediately; the
//! receive side is always ready because the **polling thread** continuously
//! drains the network port into the received-messages queue. Receives go
//! through the classic posted/unexpected design: a receive first scans the
//! unexpected queue, then blocks on the polling queue.
//!
//! The endpoint is also the C/R module's window onto the data path: flush
//! marks and Chandy–Lamport markers are sent with [`CTRL_CONTEXT`] so they
//! are FIFO with data but invisible to application receives, and the
//! channel state of a checkpoint (all unconsumed data messages) is captured
//! and restored here.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use starfish_telemetry::{metric, Registry};
use starfish_trace::{FlightRecorder, TraceCtx};
use starfish_util::trace::{ActorKind, MsgClass, TraceSink};
use starfish_util::{AppId, Epoch, Error, Rank, Result, VClock, VirtualTime};
use starfish_vni::{
    Addr, Fabric, Kick, LayerCosts, Packet, PacketKind, PollingThread, Port, RecvQueue,
};

use crate::directory::RankDirectory;
use crate::reliability::{FlowRx, FlowTx, RxVerdict};
use crate::wire::{
    data_port, MsgHeader, RelMsg, RndvChunk, RndvEnv, CTRL_CONTEXT, FLAG_RNDV_DATA, FLAG_RNDV_RTS,
};

/// Wildcard source for receives (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: Option<Rank> = None;
/// Wildcard tag for receives (`MPI_ANY_TAG`).
pub const ANY_TAG: Option<u64> = None;

/// Default real-time bound on blocking operations: long enough for any test
/// workload, short enough to turn a deadlock into a diagnosable error.
pub const BLOCKING_TIMEOUT: Duration = Duration::from_secs(60);

/// Retransmission window of the reliability layer: messages kept per
/// destination until acknowledged by a peer's Ping (cumulative ack).
pub const REL_WINDOW: usize = 1024;

/// How long a blocked concrete-source receive waits before probing the
/// sender's flow with a [`RelMsg::Ping`] (recovers dropped packets).
pub const REL_PING_INTERVAL: Duration = Duration::from_millis(25);

/// Default payload size at which sends leave the eager protocol for
/// rendezvous (RTS → CTS → DATA). Set from the eager/rendezvous crossover
/// measured by the fabric microbenchmarks (`starfish-bench`, see
/// EXPERIMENTS.md): below this the extra control round-trip costs more than
/// the unexpected-queue buffering it avoids. Runtimes that have run the
/// calibration sweep override it per network model (see
/// [`crate::threshold`]).
pub const DEFAULT_RNDV_THRESHOLD: usize = 64 * 1024;

/// Default size of one rendezvous DATA chunk. A transfer larger than this
/// is shipped as a pipeline of chunk frames so the receiver's placement
/// copy of chunk *k* overlaps the wire transfer of chunk *k+1*, and so the
/// CTS round-trip overlaps the early chunks instead of preceding the whole
/// payload. A transfer that *fits* in one chunk takes the fully zero-copy
/// path ([`RndvAsm::whole`]): no placement buffer, the receiver delivers
/// the sender's payload slice as-is. The default equals
/// [`EAGER_CREDIT_BYTES`] so a single optimistically-streamed chunk never
/// exposes the receiver to more un-granted bytes than eager credit would.
pub const RNDV_CHUNK_BYTES: usize = 1 << 20;

/// How many chunks a size-based rendezvous send streams *before* the CTS
/// arrives (bounded optimism: the receiver buffers at most this many chunks
/// per transfer it has not granted). The last chunk is never streamed early
/// — a transfer only completes via CTS or the checkpoint protocols'
/// unsolicited push — so parking semantics, quiescence accounting and the
/// receiver-memory bound all survive pipelining. Credit-exhaustion
/// fallbacks stream nothing early: they exist to bound receiver memory.
pub const RNDV_EARLY_CHUNKS: usize = 2;

/// Packets drained from the receive source per ingest round: a pipelined
/// chunk burst is pulled out of the shared queue in one lock acquisition.
pub const INGEST_BATCH: usize = 64;

/// How a receiver paces CTS re-grants for a rendezvous transfer still
/// awaiting its DATA. Real deployments throttle on wall time so a blocked
/// receive cannot flood the wire; deterministic harnesses (the chaos
/// driver) re-grant on every matching-receive encounter instead, keeping
/// the packet schedule a pure function of the drain schedule — no
/// wall-clock reads, so a replay is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtsCadence {
    /// At most one CTS per transfer per interval (the default, at
    /// [`REL_PING_INTERVAL`]).
    Interval(Duration),
    /// One CTS per encounter of the still-ungranted transfer.
    EveryEncounter,
}

/// Eager bytes a sender may have outstanding toward one destination before
/// its sends fall back to rendezvous *regardless of size*. Together with
/// the rendezvous threshold this bounds the receiver's unexpected-queue
/// memory per peer: at most `EAGER_CREDIT_BYTES` of payload plus
/// placeholder envelopes.
pub const EAGER_CREDIT_BYTES: usize = 1 << 20;

/// Consumed-byte granularity at which a receiver returns eager credit to
/// the sender. Batched so credit control traffic stays off the common path.
pub const CREDIT_BATCH_BYTES: usize = 64 * 1024;

/// Sender-side record retained per reliable message for retransmission:
/// `(framed envelope, payload segment, model_len, original depart vt, tag)`.
/// Single-segment messages keep their whole frame in the first field and an
/// empty second; rendezvous DATA chunks keep the gather envelope in the
/// first and the zero-copy payload slice in the second — retransmission
/// clones the `Bytes` handles, it never copies payload bytes.
type SentRecord = (Bytes, Bytes, usize, VirtualTime, u64);

/// Sender-side state of one reliable flow (this endpoint → one peer).
type OutFlow = FlowTx<SentRecord>;

/// Receiver-side state of one reliable flow (one peer incarnation → this
/// endpoint), keyed by `(source rank, source epoch)`. Parked entries keep
/// the body, the gather payload segment (empty for single-segment frames)
/// and the trace context each carried, so delivery records it.
type InFlow = FlowRx<(MsgHeader, Bytes, Bytes, VirtualTime, TraceCtx)>;

/// A received, matched message.
#[derive(Debug, Clone)]
pub struct RecvdMsg {
    /// Sender's world rank.
    pub src: Rank,
    pub tag: u64,
    pub data: Bytes,
    /// Receiver's virtual time after the receive completed.
    pub vt: VirtualTime,
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

/// Receiver-side reassembly of one chunked rendezvous transfer.
///
/// The common case — a transfer that fits in one chunk — is fully
/// zero-copy: the arriving chunk `Bytes` (a refcounted slice of the
/// sender's application payload) is kept in `whole` and delivered as-is,
/// and no assembly buffer is ever allocated. Multi-chunk transfers pay a
/// *single* placement copy: `buf` is allocated lazily on the first partial
/// chunk and each chunk is written straight to its offset (the analogue of
/// RDMA rendezvous placing data directly into the posted receive buffer).
#[derive(Debug, Clone, Default)]
struct RndvAsm {
    /// Total payload size (RTS envelope / chunk descriptors agree on it).
    total: u64,
    /// Distinct payload bytes absorbed so far.
    received: u64,
    /// Zero-copy fast path: a single chunk covering the entire transfer.
    whole: Option<Bytes>,
    /// Placement buffer for multi-chunk transfers (lazily allocated).
    buf: Vec<u8>,
    /// Offsets already absorbed: chunk retransmissions are idempotent.
    got: BTreeSet<u64>,
    /// Latest virtual arrival over the absorbed chunks. The chunk that
    /// *completes* reassembly is whichever the fabric processed last, and
    /// with per-packet bandwidth charging a tiny tail chunk can carry a
    /// much earlier timestamp than the big chunk before it — so the
    /// transfer's delivery time is this watermark, not the last chunk's.
    latest: VirtualTime,
}

impl RndvAsm {
    fn new(total: u64) -> RndvAsm {
        RndvAsm {
            total,
            received: 0,
            whole: None,
            buf: Vec::new(),
            got: BTreeSet::new(),
            latest: VirtualTime::default(),
        }
    }

    /// Absorb one chunk. Descriptor-mismatched or out-of-bounds chunks are
    /// dropped; duplicates are no-ops. Returns completeness.
    fn absorb(&mut self, c: &RndvChunk, chunk: Bytes, arrive: VirtualTime) -> bool {
        let end = c.offset.saturating_add(chunk.len() as u64);
        if c.total != self.total || end > self.total {
            return self.is_complete();
        }
        if self.got.insert(c.offset) {
            // First arrival of this chunk only: duplicates are retransmission
            // traffic, which costs no virtual time by the reliability layer's
            // convention.
            self.latest = self.latest.max(arrive);
            self.received += chunk.len() as u64;
            if c.offset == 0 && chunk.len() as u64 == self.total && self.buf.is_empty() {
                // Single chunk covering the whole transfer: keep the
                // sender's payload slice, no copy, no buffer.
                self.whole = Some(chunk);
            } else {
                if self.buf.is_empty() {
                    self.buf = vec![0u8; self.total as usize];
                    // A whole-transfer chunk may already be parked from the
                    // fast path (out-of-order arrival of a retransmitted
                    // split): migrate it into the placement buffer.
                    if let Some(w) = self.whole.take() {
                        self.buf[..w.len()].copy_from_slice(&w);
                    }
                }
                self.buf[c.offset as usize..end as usize].copy_from_slice(&chunk);
            }
        }
        self.is_complete()
    }

    /// Complete when every byte arrived and at least one chunk was seen —
    /// the second clause makes empty transfers complete on their single
    /// empty chunk rather than at creation.
    fn is_complete(&self) -> bool {
        self.received == self.total && !self.got.is_empty()
    }

    fn take_bytes(&mut self) -> Bytes {
        match self.whole.take() {
            Some(w) => w,
            None => Bytes::from(std::mem::take(&mut self.buf)),
        }
    }
}

/// The payload slot of an unexpected-queue entry.
#[derive(Debug, Clone)]
enum Body {
    /// A fully-arrived message (eager, or rendezvous after its DATA merged).
    Eager(Bytes),
    /// A rendezvous RTS whose payload has not fully arrived yet: matchable
    /// (so MPI non-overtaking order is preserved) but not yet consumable.
    /// Pipelined chunks accumulate in `asm` until the transfer completes.
    RndvPending { id: u64, size: u64, asm: RndvAsm },
}

/// Outcome of scanning the unexpected queue for a posted receive.
enum Matched {
    /// A complete message was matched and removed.
    Ready((MsgHeader, Bytes, VirtualTime)),
    /// The first matching entry is a rendezvous placeholder: the receive
    /// must grant (or re-grant) its CTS and wait for the payload. Scanning
    /// past it would break per-sender non-overtaking, so nothing later is
    /// considered.
    Await { src: Rank, id: u64 },
    /// Nothing matches.
    None,
}

/// A sender-side rendezvous transfer parked until the receiver's CTS.
/// `next_chunk` advances as chunks leave: early-streamed chunks move it
/// before the CTS arrives, the grant (or a checkpoint push) drains the rest.
struct PendingRndv {
    dst: Rank,
    context: u32,
    tag: u64,
    data: Bytes,
    /// Chunk size fixed at RTS time: the descriptor schedule must not shift
    /// if the endpoint's chunk size is re-tuned mid-transfer.
    chunk_bytes: u64,
    /// Next chunk index to put on the wire.
    next_chunk: u64,
}

impl PendingRndv {
    /// Chunk count; an empty payload still ships one (empty) chunk so the
    /// receiver observes an arrival to complete on.
    fn n_chunks(&self) -> u64 {
        let len = self.data.len() as u64;
        len.div_ceil(self.chunk_bytes).max(1)
    }
}

/// How the receive side is driven — the polling-thread ablation (§2.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvMode {
    /// The paper's design: a polling thread drains the port concurrently;
    /// receives pay only the queue hand-off.
    Polled,
    /// No polling thread: every receive performs the (virtual) kernel
    /// interaction itself, paying [`SYSCALL_COST`] per port read.
    Direct,
}

/// Cost of one user/kernel crossing on the era's hardware, paid per port
/// read in [`RecvMode::Direct`].
pub const SYSCALL_COST: VirtualTime = VirtualTime(25_000);

enum Source {
    Polled {
        queue: RecvQueue,
        _thread: PollingThread,
    },
    Direct {
        port: Port,
    },
}

/// The MPI module of one application process.
pub struct MpiEndpoint {
    app: AppId,
    rank: Rank,
    /// The exact fabric address this endpoint bound (NOT re-derived from the
    /// directory at drop time: by then the rank may have been re-placed, and
    /// unbinding the *replacement's* port would sever the new incarnation).
    bound_addr: Addr,
    dir: RankDirectory,
    fabric: Fabric,
    layers: LayerCosts,
    trace: TraceSink,
    source: Source,
    /// Parsed messages that arrived before a matching receive was posted.
    /// Rendezvous transfers appear here as [`Body::RndvPending`]
    /// placeholders from RTS arrival until their DATA merges in place.
    unexpected: VecDeque<(MsgHeader, Body, VirtualTime)>,
    /// Drained C/R data-path marks awaiting the C/R module (with the epoch
    /// they were sent in: marks from a future epoch are held until this
    /// process rolls forward into it).
    ctrl_marks: VecDeque<(Rank, Bytes, VirtualTime, Epoch)>,
    /// This process incarnation's restart epoch. Deliberately *local* (not
    /// read from the shared directory): during a rollback the replicated
    /// epoch bumps before every process has stopped, and a survivor that is
    /// still executing the doomed past must keep stamping its messages with
    /// the old epoch so the new incarnations discard them.
    epoch: Epoch,
    /// The checkpoint-interval piggyback stamped on outgoing messages.
    pub piggyback_interval: u64,
    /// Chandy–Lamport channel recording: data messages arriving from these
    /// senders are copied into `recorded` (in addition to normal delivery).
    recording: std::collections::BTreeSet<Rank>,
    recorded: Vec<(MsgHeader, Bytes)>,
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
    /// When true, data sends carry per-destination sequence numbers and are
    /// buffered for retransmission, and receives deliver each flow in
    /// sequence order — exactly-once delivery over a faulty fabric. Off by
    /// default (`seq == 0` marks unmanaged traffic, the pre-existing
    /// behaviour bit-for-bit).
    reliable: bool,
    /// Real-time bound used by `recv_world` (tests shrink it so a crashed
    /// peer surfaces as a clean Timeout quickly).
    blocking_timeout: Duration,
    out_flows: HashMap<Rank, OutFlow>,
    in_flows: HashMap<(Rank, Epoch), InFlow>,
    /// Payload size at which sends switch to the rendezvous protocol.
    rndv_threshold: usize,
    /// Rendezvous DATA chunk size for transfers this endpoint originates.
    rndv_chunk_bytes: usize,
    /// Rendezvous transfers whose RTS is out but whose payload has not been
    /// fully pushed yet (waiting for CTS), keyed by transfer id.
    pending_rndv_tx: HashMap<u64, PendingRndv>,
    /// Next rendezvous transfer id (unique per endpoint incarnation).
    next_rndv_id: u64,
    /// Reassembly of rendezvous chunks that arrived before their RTS
    /// placeholder (possible outside the reliability layer), keyed by
    /// (sender, id).
    rndv_payloads: HashMap<(Rank, u64), RndvAsm>,
    /// Last CTS grant per (sender, transfer id): re-grants are paced by
    /// `cts_cadence` so a blocked receive does not flood.
    cts_last: HashMap<(Rank, u64), std::time::Instant>,
    /// CTS re-grant pacing policy.
    cts_cadence: CtsCadence,
    /// Eager credit ceiling per destination ([`EAGER_CREDIT_BYTES`] unless
    /// overridden for measurement).
    eager_credit: usize,
    /// Remaining eager byte budget per destination (credit flow control).
    eager_budget: HashMap<Rank, usize>,
    /// Eager bytes consumed per source, not yet returned as credit.
    credit_owed: HashMap<Rank, usize>,
    /// Per-call collective algorithm selection policy (thresholds keyed on
    /// message size and group size; see `collectives::selector`).
    coll_selector: crate::collectives::CollAlgoSelector,
}

impl MpiEndpoint {
    /// Bind this process's data port and start its polling thread.
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
        let bound_addr = Addr::new(node, data_port(app, rank));
        let port = fabric.bind(bound_addr)?;
        let source = match mode {
            RecvMode::Polled => {
                let queue = RecvQueue::new();
                let thread = PollingThread::spawn(port, queue.clone());
                Source::Polled {
                    queue,
                    _thread: thread,
                }
            }
            RecvMode::Direct => Source::Direct { port },
        };
        Ok(MpiEndpoint {
            app,
            rank,
            bound_addr,
            dir,
            fabric: fabric.clone(),
            layers: fabric.layers(),
            trace,
            source,
            unexpected: VecDeque::new(),
            ctrl_marks: VecDeque::new(),
            epoch: dir_epoch_at_start,
            piggyback_interval: 0,
            recording: std::collections::BTreeSet::new(),
            recorded: Vec::new(),
            abort: None,
            metrics: None,
            recorder: FlightRecorder::disabled(),
            reliable: false,
            blocking_timeout: BLOCKING_TIMEOUT,
            out_flows: HashMap::new(),
            in_flows: HashMap::new(),
            rndv_threshold: DEFAULT_RNDV_THRESHOLD,
            rndv_chunk_bytes: RNDV_CHUNK_BYTES,
            pending_rndv_tx: HashMap::new(),
            next_rndv_id: 1,
            rndv_payloads: HashMap::new(),
            cts_last: HashMap::new(),
            cts_cadence: CtsCadence::Interval(REL_PING_INTERVAL),
            eager_credit: EAGER_CREDIT_BYTES,
            eager_budget: HashMap::new(),
            credit_owed: HashMap::new(),
            coll_selector: crate::collectives::CollAlgoSelector::default(),
        })
    }

    /// Install a calibrated collective algorithm selector (the static
    /// defaults otherwise). Benches calibrate one from measured sweeps via
    /// [`crate::collectives::CollAlgoSelector::from_cache`].
    pub fn set_coll_selector(&mut self, sel: crate::collectives::CollAlgoSelector) {
        self.coll_selector = sel;
    }

    /// The collective algorithm selection policy in force.
    pub fn coll_selector(&self) -> &crate::collectives::CollAlgoSelector {
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
    pub fn rendezvous_chunk_bytes(&self) -> usize {
        self.rndv_chunk_bytes
    }

    /// Registry handle for same-crate layers (collectives) that account
    /// their own traffic and selection decisions.
    pub(crate) fn metrics_handle(&self) -> Option<&Registry> {
        self.metrics.as_ref()
    }

    /// Override the per-destination eager credit ceiling
    /// ([`EAGER_CREDIT_BYTES`] by default). The fabric benchmark raises it
    /// to `usize::MAX` in its eager arm so the sweep measures the *pure*
    /// eager protocol — unbounded buffering and a sender-side frame copy per
    /// message — instead of the production credit fallback, which would
    /// silently route large messages through rendezvous and contaminate the
    /// comparison. Production endpoints keep the default bound.
    pub fn set_eager_credit(&mut self, bytes: usize) {
        self.eager_credit = bytes;
    }

    /// Override the CTS re-grant pacing (see [`CtsCadence`]).
    pub fn set_cts_cadence(&mut self, cadence: CtsCadence) {
        self.cts_cadence = cadence;
    }

    /// Switch the reliability layer on or off (see the `reliable` field).
    pub fn set_reliable(&mut self, on: bool) {
        self.reliable = on;
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
        if let Source::Polled { queue, .. } = &self.source {
            queue.attach_metrics(reg.clone());
        }
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

    /// Account one data-path message that the fabric accepted: the flight
    /// recorder's send event (stamped with the pre-send time, like the wire
    /// context minted for it), the message-taxonomy count, and the send-side
    /// layer costs on `clock`.
    fn note_sent(
        &self,
        clock: &mut VClock,
        dst: Rank,
        header: &MsgHeader,
        body_len: usize,
        wire_len: usize,
        ctx: TraceCtx,
    ) {
        self.recorder.record_send(
            clock.now(),
            dst.0,
            header.context,
            header.tag,
            body_len,
            ctx,
        );
        self.trace.record(
            MsgClass::Data,
            ActorKind::AppProcess,
            ActorKind::AppProcess,
            if header.context == CTRL_CONTEXT {
                "data-path-mark"
            } else {
                "fast-path"
            },
            wire_len,
        );
        clock.advance(self.layers.send_total());
        self.note_send();
    }

    /// Record the send-side layer breakdown (Figure 6, left column).
    fn note_send(&self) {
        if let Some(m) = &self.metrics {
            m.record_vt(metric::LAYER_APP_TO_MPI, self.layers.app_to_mpi);
            m.record_vt(metric::LAYER_MPI_SEND, self.layers.mpi_send);
            m.record_vt(metric::LAYER_VNI_SEND, self.layers.vni_send);
            m.record_vt(metric::MPI_SEND_PATH_NS, self.layers.send_total());
        }
    }

    /// Record the receive-side layer breakdown (Figure 6, right column).
    fn note_recv(&self) {
        if let Some(m) = &self.metrics {
            m.record_vt(metric::LAYER_POLL, self.layers.poll);
            m.record_vt(metric::LAYER_VNI_RECV, self.layers.vni_recv);
            m.record_vt(metric::LAYER_MPI_RECV, self.layers.mpi_recv);
            m.record_vt(metric::LAYER_MPI_TO_APP, self.layers.mpi_to_app);
            m.record_vt(metric::MPI_RECV_PATH_NS, self.layers.recv_total());
        }
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
        // Reliable flows are per incarnation: sequences restart at 1 in the
        // new epoch (receiver flows are keyed by the sender's epoch, so old
        // and new incarnations can never be confused), and flows from
        // rolled-back incarnations are dropped with their past.
        self.out_flows.clear();
        self.in_flows.retain(|(_, ep), _| *ep >= e);
        // In-flight rendezvous state belongs to the rolled-back incarnation:
        // unsent payloads were captured (or re-sent) by the C/R protocol,
        // stray DATA/CTS from the old epoch is dropped on arrival anyway.
        self.pending_rndv_tx.clear();
        self.rndv_payloads.clear();
        self.cts_last.clear();
        self.eager_budget.clear();
        self.credit_owed.clear();
    }

    /// A handle that interrupts this endpoint's blocking waits once per
    /// kick: a blocking receive returns [`Error::Interrupted`] (the caller
    /// services whatever changed and re-posts it), [`wait_event`] returns.
    /// Unlike the abort flag a kick is consumed by the wait it wakes.
    /// Nobody holds one unless the owner hands it out (the process runtime
    /// gives one to its forwarder and one to [`RankDirectory::bound`]), so
    /// a bare endpoint's receives are never interrupted.
    ///
    /// [`wait_event`]: Self::wait_event
    pub fn kicker(&self) -> Kick {
        match &self.source {
            Source::Polled { queue, .. } => queue.kicker(),
            Source::Direct { port } => port.kicker(),
        }
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

    fn check_abort(&self) -> Result<()> {
        if let Some(f) = &self.abort {
            if f.load(Ordering::Relaxed) {
                return Err(Error::interrupted("blocking receive aborted"));
            }
        }
        Ok(())
    }

    pub fn rank(&self) -> Rank {
        self.rank
    }

    pub fn app(&self) -> AppId {
        self.app
    }

    pub fn directory(&self) -> &RankDirectory {
        &self.dir
    }

    // ---- send side ----------------------------------------------------------

    /// Eager blocking send of `data` to world rank `dst` on `context`.
    /// Charges the send-side layer costs to `clock` and returns when the
    /// message is on the wire (eager semantics).
    pub fn send_world(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: &[u8],
    ) -> Result<()> {
        if context != CTRL_CONTEXT && self.wants_rendezvous(dst, data.len()) {
            // The one payload copy on the `&[u8]` rendezvous path: from here
            // to the wire — retransmissions included — only `Bytes` slices
            // of this buffer travel. Callers that already hold `Bytes` use
            // [`send_world_bytes`](Self::send_world_bytes) and skip it too.
            let data = Bytes::copy_from_slice(data);
            return self.send_rendezvous(clock, dst, context, tag, data);
        }
        self.send_eager(clock, dst, context, tag, data)
    }

    /// [`send_world`](Self::send_world) without the payload copy: a `Bytes`
    /// payload travels the rendezvous path as zero-copy slices end-to-end.
    pub fn send_world_bytes(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: Bytes,
    ) -> Result<()> {
        if context != CTRL_CONTEXT && self.wants_rendezvous(dst, data.len()) {
            return self.send_rendezvous(clock, dst, context, tag, data);
        }
        self.send_eager(clock, dst, context, tag, &data)
    }

    /// Blocking rendezvous send: RTS (plus early chunks when size-based),
    /// then pump until the receiver's CTS drains the transfer.
    fn send_rendezvous(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: Bytes,
    ) -> Result<()> {
        let pipelined = data.len() >= self.rndv_threshold;
        let id = self.start_rendezvous(clock, dst, context, tag, data, pipelined)?;
        self.finish_rendezvous(clock, id)
    }

    /// The eager path: the payload leaves immediately, charged against the
    /// destination's credit budget.
    fn send_eager(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: &[u8],
    ) -> Result<()> {
        // Assign the next flow sequence but commit it only when the send
        // succeeds: a failed attempt must not leave a permanent gap the
        // receiver would wait on forever.
        let seq = if self.reliable && context != CTRL_CONTEXT {
            self.out_flows.entry(dst).or_default().peek_seq()
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
            flags: 0,
        };
        let (framed, depart) = self.raw_send(clock, dst, header, data)?;
        if seq != 0 {
            let flow = self.out_flows.get_mut(&dst).expect("flow created above");
            flow.commit(seq, (framed, Bytes::new(), data.len(), depart, tag));
        }
        if context != CTRL_CONTEXT {
            let budget = self.eager_budget.entry(dst).or_insert(self.eager_credit);
            *budget = budget.saturating_sub(data.len());
        }
        Ok(())
    }

    /// Should this payload go rendezvous? Either it is large, or the
    /// destination's eager credit is exhausted (bounding unexpected-queue
    /// memory on the receiver even under a flood of small messages).
    fn wants_rendezvous(&mut self, dst: Rank, len: usize) -> bool {
        if len >= self.rndv_threshold {
            return true;
        }
        let budget = *self.eager_budget.get(&dst).unwrap_or(&self.eager_credit);
        if budget < len {
            if let Some(m) = &self.metrics {
                m.inc(metric::MPI_CREDIT_FALLBACKS);
            }
            return true;
        }
        false
    }

    /// Send the RTS of a rendezvous transfer and park the payload. The RTS
    /// rides the normal data path (sequenced when the reliability layer is
    /// on, so a lost RTS is repaired like any lost data message) with
    /// [`FLAG_RNDV_RTS`] set and a [`RndvEnv`] body. Size-based transfers
    /// (`pipelined`) then stream up to [`RNDV_EARLY_CHUNKS`] chunks without
    /// waiting for the CTS — but never the last chunk, so completion stays
    /// gated on the grant (or a checkpoint push): parking semantics,
    /// quiescence accounting and the receiver's memory bound all survive.
    /// Credit-exhaustion fallbacks stream nothing early — they exist to
    /// stop filling the receiver.
    fn start_rendezvous(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: Bytes,
        pipelined: bool,
    ) -> Result<u64> {
        let id = self.next_rndv_id;
        let env = RndvEnv {
            id,
            size: data.len() as u64,
        };
        let seq = if self.reliable && context != CTRL_CONTEXT {
            self.out_flows.entry(dst).or_default().peek_seq()
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
            flags: FLAG_RNDV_RTS,
        };
        let (framed, depart) = self.raw_send(clock, dst, header, &env.encode())?;
        if seq != 0 {
            let flow = self.out_flows.get_mut(&dst).expect("flow created above");
            flow.commit(seq, (framed, Bytes::new(), RndvEnv::LEN, depart, tag));
        }
        self.next_rndv_id += 1;
        let len = data.len();
        let pending = PendingRndv {
            dst,
            context,
            tag,
            data,
            chunk_bytes: self.rndv_chunk_bytes.max(1) as u64,
            next_chunk: 0,
        };
        let n_chunks = pending.n_chunks();
        self.pending_rndv_tx.insert(id, pending);
        if let Some(m) = &self.metrics {
            m.inc(metric::MPI_RNDV_SENDS);
            m.record(metric::MPI_RNDV_BYTES, len as u64);
        }
        if pipelined {
            let early = n_chunks.saturating_sub(1).min(RNDV_EARLY_CHUNKS as u64);
            if early > 0 {
                self.send_rndv_chunks(clock, id, Some(early as usize));
            }
        }
        Ok(id)
    }

    /// Push a parked rendezvous payload onto the wire as a pipeline of DATA
    /// chunk frames: [`FLAG_RNDV_DATA`], envelope = header ++ [`RndvChunk`]
    /// descriptor, payload segment = a zero-copy slice of the parked
    /// `Bytes`. `limit` bounds how many chunks leave now (early streaming);
    /// `None` drains the transfer. Each chunk is sequenced at the moment it
    /// leaves, so the flow gap between RTS and the tail chunk stays open no
    /// longer than the CTS round-trip.
    fn send_rndv_chunks(&mut self, clock: &mut VClock, id: u64, limit: Option<usize>) {
        let Some(mut p) = self.pending_rndv_tx.remove(&id) else {
            return; // duplicate CTS: the payload already left
        };
        let total = p.data.len() as u64;
        let n_chunks = p.n_chunks();
        let mut sent = 0usize;
        while p.next_chunk < n_chunks {
            if limit.map(|n| sent >= n).unwrap_or(false) {
                // Early-stream budget spent: park the rest for the CTS.
                self.pending_rndv_tx.insert(id, p);
                return;
            }
            let off = p.next_chunk * p.chunk_bytes;
            let end = (off + p.chunk_bytes).min(total);
            let desc = RndvChunk {
                id,
                offset: off,
                total,
            };
            let seg = p.data.slice(off as usize..end as usize);
            let seq = if self.reliable && p.context != CTRL_CONTEXT {
                self.out_flows.entry(p.dst).or_default().peek_seq()
            } else {
                0
            };
            let header = MsgHeader {
                src: self.rank,
                context: p.context,
                tag: p.tag,
                epoch: self.epoch,
                interval: self.piggyback_interval,
                seq,
                flags: FLAG_RNDV_DATA,
            };
            match self.raw_send_gather(clock, p.dst, header, &desc.encode(), seg.clone()) {
                Ok((envelope, depart)) => {
                    if seq != 0 {
                        let flow = self.out_flows.get_mut(&p.dst).expect("flow created above");
                        flow.commit(seq, (envelope, seg, (end - off) as usize, depart, p.tag));
                    }
                    p.next_chunk += 1;
                    sent += 1;
                }
                Err(_) => {
                    // Peer unreachable right now (mid-restart): park again,
                    // the next CTS re-grant or quiescence push retries.
                    self.pending_rndv_tx.insert(id, p);
                    return;
                }
            }
        }
        // Every chunk is on the wire: the transfer is complete sender-side.
    }

    /// Complete a blocking rendezvous send: pump the network (servicing
    /// CTS/NACK traffic) until the payload has been pushed.
    fn finish_rendezvous(&mut self, clock: &mut VClock, id: u64) -> Result<()> {
        let deadline = std::time::Instant::now() + self.blocking_timeout; // lint: allow(wall-clock)
        while self.pending_rndv_tx.contains_key(&id) {
            self.check_abort()?;
            let remain = deadline
                .checked_duration_since(std::time::Instant::now()) // lint: allow(wall-clock)
                .ok_or_else(|| {
                    // The transfer is dead: drop it so quiescence pushes do
                    // not resurrect a send the caller saw fail.
                    self.pending_rndv_tx.remove(&id);
                    Error::timeout(format!("rendezvous send {id} awaiting CTS"))
                })?;
            // A kick is not an abort (checked above): keep pumping.
            self.wait_event(clock, remain.min(REL_PING_INTERVAL))?;
        }
        Ok(())
    }

    fn raw_send(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        header: MsgHeader,
        data: &[u8],
    ) -> Result<(Bytes, VirtualTime)> {
        self.raw_send_parts(clock, dst, header, &[], data)
    }

    /// Frame and send one data-path message. `prefix` (the rendezvous
    /// transfer id on DATA messages, empty otherwise) lands between header
    /// and body so the payload is copied into the wire buffer exactly once.
    fn raw_send_parts(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        header: MsgHeader,
        prefix: &[u8],
        data: &[u8],
    ) -> Result<(Bytes, VirtualTime)> {
        let dst_node = self.dir.node_of(dst)?;
        let app = self.app;
        let ctx = self.recorder.mint_send();
        let payload = header.frame_ext_prefixed(prefix, data, ctx);
        let src_node = self.dir.node_of(self.rank)?;
        let mut pkt = Packet::new(
            Addr::new(src_node, data_port(app, self.rank)),
            Addr::new(dst_node, data_port(app, dst)),
            PacketKind::Data,
            header.tag,
            payload.clone(),
        );
        // The bandwidth term covers the application payload; the fixed-size
        // envelope is absorbed by the constant per-layer costs (Figure 6).
        pkt.model_len = data.len();
        // Charge the send-side layers — and count and record the message —
        // only when the send actually happens: failed attempts (peer
        // mid-restart, retried by the caller) must not accumulate virtual
        // cost, message counts or flight-recorder events, or retry counts —
        // a real-time artifact — would leak into the timeline.
        let depart = clock.now() + self.layers.send_total();
        pkt.depart_vt = depart;
        self.fabric.send(pkt)?;
        self.note_sent(clock, dst, &header, data.len(), payload.len(), ctx);
        Ok((payload, depart))
    }

    /// Frame and send one gather message: the envelope (header ++ `prefix`)
    /// is the only buffer built here; `seg` rides the packet's separate
    /// payload segment untouched. The returned envelope plus the caller's
    /// `seg` handle are everything a retransmission needs — no payload byte
    /// is copied anywhere on this path.
    fn raw_send_gather(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        header: MsgHeader,
        prefix: &[u8],
        seg: Bytes,
    ) -> Result<(Bytes, VirtualTime)> {
        let dst_node = self.dir.node_of(dst)?;
        let app = self.app;
        let ctx = self.recorder.mint_send();
        let envelope = header.frame_ext_prefixed(prefix, &[], ctx);
        let src_node = self.dir.node_of(self.rank)?;
        let model_len = seg.len();
        let mut pkt = Packet::gather(
            Addr::new(src_node, data_port(app, self.rank)),
            Addr::new(dst_node, data_port(app, dst)),
            PacketKind::Data,
            header.tag,
            envelope.clone(),
            seg,
        );
        // The bandwidth term covers the application payload; the fixed-size
        // envelope is absorbed by the constant per-layer costs (Figure 6).
        pkt.model_len = model_len;
        let depart = clock.now() + self.layers.send_total();
        pkt.depart_vt = depart;
        self.fabric.send(pkt)?;
        let wire_len = envelope.len() + model_len;
        self.note_sent(clock, dst, &header, model_len, wire_len, ctx);
        Ok((envelope, depart))
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
        if context != CTRL_CONTEXT && self.wants_rendezvous(dst, data.len()) {
            let data = Bytes::copy_from_slice(data);
            return self.istart_rendezvous(clock, dst, context, tag, data);
        }
        self.send_eager(clock, dst, context, tag, data)?;
        Ok(Request::Send { vt: clock.now() })
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
        if context != CTRL_CONTEXT && self.wants_rendezvous(dst, data.len()) {
            return self.istart_rendezvous(clock, dst, context, tag, data);
        }
        self.send_eager(clock, dst, context, tag, &data)?;
        Ok(Request::Send { vt: clock.now() })
    }

    fn istart_rendezvous(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: Bytes,
    ) -> Result<Request> {
        let pipelined = data.len() >= self.rndv_threshold;
        let id = self.start_rendezvous(clock, dst, context, tag, data, pipelined)?;
        Ok(Request::RndvSend {
            id,
            vt: clock.now(),
        })
    }

    /// Send a C/R mark (flush mark / marker) on the data path: FIFO with
    /// data messages to `dst`, never matched by user receives.
    pub fn send_ctrl_mark(&mut self, clock: &mut VClock, dst: Rank, body: &[u8]) -> Result<()> {
        let header = MsgHeader {
            src: self.rank,
            context: CTRL_CONTEXT,
            tag: 0,
            epoch: self.epoch,
            interval: self.piggyback_interval,
            seq: 0,
            flags: 0,
        };
        self.raw_send(clock, dst, header, body).map(|_| ())
    }

    /// Retry a C/R mark with the virtual time of its *original* attempt
    /// (a retransmission is a real-time artifact of the peer still binding
    /// its port; protocol-wise the mark left at `at`).
    pub fn resend_ctrl_mark_at(&mut self, at: VirtualTime, dst: Rank, body: &[u8]) -> Result<()> {
        let header = MsgHeader {
            src: self.rank,
            context: CTRL_CONTEXT,
            tag: 0,
            epoch: self.epoch,
            interval: self.piggyback_interval,
            seq: 0,
            flags: 0,
        };
        let mut replay_clock = VClock::starting_at(at);
        self.raw_send(&mut replay_clock, dst, header, body)
            .map(|_| ())
    }

    // ---- receive side ---------------------------------------------------------

    fn matches(
        epoch: Epoch,
        h: &MsgHeader,
        context: u32,
        src: Option<Rank>,
        tag: Option<u64>,
    ) -> bool {
        h.epoch == epoch
            && h.context == context
            && src.map(|s| s == h.src).unwrap_or(true)
            && tag.map(|t| t == h.tag).unwrap_or(true)
    }

    /// Pull one *round* of packets from the underlying source into the
    /// parsed queues: up to [`INGEST_BATCH`] frames drained in one lock
    /// acquisition, so a pipelined rendezvous burst costs one queue hop.
    /// Returns true if anything was ingested.
    fn ingest_one(&mut self, clock: &mut VClock, wait: Option<Duration>) -> Result<bool> {
        let batch = match &self.source {
            Source::Polled { queue, .. } => match wait {
                Some(d) => queue.wait_batch(INGEST_BATCH, d)?,
                None => queue.take_batch(INGEST_BATCH),
            },
            Source::Direct { port } => {
                // Without the polling thread every look at the network is a
                // kernel interaction (paper §2.2.1) — one per batched read.
                clock.advance(SYSCALL_COST);
                match wait {
                    Some(d) => port.recv_batch_timeout(INGEST_BATCH, d)?,
                    None => port.try_recv_batch(INGEST_BATCH),
                }
            }
        };
        if batch.is_empty() {
            return Ok(false);
        }
        for pkt in batch {
            self.process_packet(clock, pkt);
        }
        Ok(true)
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
        let arrive = pkt.arrive_vt;
        // Gather frames carry the MsgHeader envelope in the head segment and
        // the (zero-copy) chunk bytes in the payload segment; single-buffer
        // frames keep everything in the payload.
        let (envelope, seg) = if pkt.head.is_empty() {
            (pkt.payload, Bytes::new())
        } else {
            (pkt.head, pkt.payload)
        };
        let (header, body, ctx) = match MsgHeader::parse_ext(&envelope) {
            Ok(x) => x,
            Err(_) => return, // corrupt: drop
        };
        // Stale-epoch traffic (from before a rollback) is discarded;
        // future-epoch traffic (a restarted peer racing ahead of our own
        // rollback) is held until we enter that epoch.
        if header.epoch < self.epoch {
            return;
        }
        if header.context == CTRL_CONTEXT {
            // Current-epoch marks are pumped now; future-epoch marks (a
            // restarted peer's round racing ahead of our own rollback) are
            // held until set_epoch advances us into their world.
            self.recorder
                .on_recv(arrive, header.src.0, CTRL_CONTEXT, 0, body.len(), ctx);
            self.ctrl_marks
                .push_back((header.src, body, arrive, header.epoch));
            return;
        }
        if header.seq == 0 {
            // Unmanaged traffic: delivered as it arrives.
            self.enqueue_parsed(header, body, seg, arrive, ctx);
            return;
        }
        // Reliable flow: deliver in sequence order, discard duplicates, park
        // early arrivals and report the gap below them. The sequencing
        // decision itself is the pure `FlowRx` machine.
        let (src, epoch, seq) = (header.src, header.epoch, header.seq);
        let flow = self.in_flows.entry((src, epoch)).or_default();
        match flow.on_data(seq, (header, body, seg, arrive, ctx)) {
            RxVerdict::Duplicate => {
                if let Some(m) = &self.metrics {
                    m.inc(metric::MPI_DUP_DISCARDS);
                }
            }
            RxVerdict::Parked { nack } => {
                if !nack.is_empty() {
                    let _ = self.send_rel(
                        clock,
                        src,
                        RelMsg::Nack {
                            from: self.rank,
                            epoch,
                            seqs: nack,
                        },
                    );
                    if let Some(m) = &self.metrics {
                        m.inc(metric::MPI_NACKS);
                    }
                }
            }
            RxVerdict::Deliver(ready) => {
                for (h, b, s, at, c) in ready {
                    self.enqueue_parsed(h, b, s, at, c);
                }
            }
        }
    }

    /// Hand a parsed in-order data message to the matching queues,
    /// dispatching on the rendezvous flags: an RTS becomes a matchable
    /// placeholder (or completes immediately if its chunks raced ahead), a
    /// DATA chunk is absorbed into its placeholder's reassembly in place
    /// (preserving the RTS's matching position, i.e. per-sender
    /// non-overtaking), and plain eager messages are delivered directly.
    /// `seg` is the gather payload segment (the chunk bytes); empty for
    /// single-buffer frames.
    fn enqueue_parsed(
        &mut self,
        header: MsgHeader,
        body: Bytes,
        seg: Bytes,
        arrive: VirtualTime,
        ctx: TraceCtx,
    ) {
        if header.flags & FLAG_RNDV_RTS != 0 {
            let Ok(env) = RndvEnv::decode(&body) else {
                return; // corrupt envelope: drop
            };
            let asm = match self.rndv_payloads.remove(&(header.src, env.id)) {
                Some(mut asm) if asm.total == env.size => {
                    if asm.is_complete() {
                        // Chunks overtook the RTS (unsequenced traffic only):
                        // the transfer is complete the moment it becomes
                        // matchable, stamped with the latest chunk arrival.
                        let mut h = header;
                        h.flags = FLAG_RNDV_DATA;
                        let at = arrive.max(asm.latest);
                        self.finish_delivery(h, asm.take_bytes(), at, ctx);
                        return;
                    }
                    asm
                }
                // Size mismatch = corrupt stray; start a fresh reassembly.
                _ => RndvAsm::new(env.size),
            };
            self.unexpected.push_back((
                header,
                Body::RndvPending {
                    id: env.id,
                    size: env.size,
                    asm,
                },
                arrive,
            ));
            return;
        }
        if header.flags & FLAG_RNDV_DATA != 0 {
            let Ok(desc) = RndvChunk::decode(&body) else {
                return; // corrupt: DATA must carry its chunk descriptor
            };
            // Gather frames carry the chunk in the payload segment;
            // single-buffer frames (none currently sent) would carry it
            // after the descriptor.
            let chunk = if seg.is_empty() {
                body.slice(RndvChunk::LEN.min(body.len())..)
            } else {
                seg
            };
            let id = desc.id;
            let pos = self.unexpected.iter().position(|(h, b, _)| {
                h.src == header.src
                    && h.epoch == header.epoch
                    && matches!(b, Body::RndvPending { id: pid, .. } if *pid == id)
            });
            if let Some(i) = pos {
                let entry = &mut self.unexpected[i];
                let Body::RndvPending { size, asm, .. } = &mut entry.1 else {
                    unreachable!("position matched RndvPending");
                };
                if desc.total != *size {
                    return; // descriptor disagrees with the RTS: drop
                }
                if !asm.absorb(&desc, chunk, arrive) {
                    return; // more chunks to come: placeholder stays parked
                }
                // The transfer is delivered at the latest chunk arrival (or
                // the RTS's, parked in the entry), not the completing chunk's
                // timestamp: a tiny tail chunk can carry an earlier virtual
                // time than the big chunk before it.
                let at = arrive.max(asm.latest).max(entry.2);
                let payload = asm.take_bytes();
                // Keep the DATA flag on the merged header: it marks the
                // payload as credit-exempt when it is finally consumed.
                entry.0.flags = FLAG_RNDV_DATA;
                entry.0.interval = header.interval;
                entry.1 = Body::Eager(payload.clone());
                entry.2 = at;
                let h = entry.0;
                self.cts_last.remove(&(h.src, id));
                // The transfer completes *here*: record the receive (and
                // any Chandy–Lamport channel recording) at merge time.
                self.recorder
                    .on_recv(at, h.src.0, h.context, h.tag, payload.len(), ctx);
                if self.recording.contains(&h.src) {
                    self.recorded.push((h, payload));
                }
            } else {
                // Chunk before its RTS: reassemble aside until the RTS
                // places it in matching order.
                self.rndv_payloads
                    .entry((header.src, id))
                    .or_insert_with(|| RndvAsm::new(desc.total))
                    .absorb(&desc, chunk, arrive);
            }
            return;
        }
        self.finish_delivery(header, body, arrive, ctx);
    }

    /// Deliver a complete message: the exactly-once-per-delivered-message
    /// point (duplicates and stale epochs were discarded above), so the
    /// flight recorder's Recv event and C/R channel recording happen here.
    fn finish_delivery(
        &mut self,
        header: MsgHeader,
        body: Bytes,
        arrive: VirtualTime,
        ctx: TraceCtx,
    ) {
        self.recorder.on_recv(
            arrive,
            header.src.0,
            header.context,
            header.tag,
            body.len(),
            ctx,
        );
        if self.recording.contains(&header.src) {
            self.recorded.push((header, body.clone()));
        }
        self.unexpected
            .push_back((header, Body::Eager(body), arrive));
    }

    /// Send a reliability control message to `dst`'s data port. Costs no
    /// virtual time: retransmission traffic is a real-time artifact of the
    /// faulty wire, not part of the modelled software path.
    fn send_rel(&mut self, clock: &mut VClock, dst: Rank, msg: RelMsg) -> Result<()> {
        let dst_node = self.dir.node_of(dst)?;
        let src_node = self.dir.node_of(self.rank)?;
        let mut pkt = Packet::new(
            Addr::new(src_node, data_port(self.app, self.rank)),
            Addr::new(dst_node, data_port(self.app, dst)),
            PacketKind::Control,
            0,
            msg.encode(),
        );
        pkt.model_len = 0;
        pkt.depart_vt = clock.now();
        self.fabric.send(pkt)
    }

    /// React to a peer's reliability control message.
    fn handle_rel_ctrl(&mut self, clock: &mut VClock, msg: RelMsg) {
        match msg {
            RelMsg::Nack { from, epoch, seqs } => {
                if epoch == self.epoch {
                    self.retransmit(from, &seqs);
                }
            }
            RelMsg::Ping { from, epoch, next } => {
                if epoch != self.epoch {
                    return;
                }
                // Everything below `next` is delivered: a cumulative ack.
                let resend: Vec<u64> = match self.out_flows.get_mut(&from) {
                    Some(flow) => flow.on_ping(next),
                    None => Vec::new(),
                };
                self.retransmit(from, &resend);
            }
            RelMsg::Flush {
                from,
                epoch,
                highest,
            } => {
                if epoch < self.epoch || highest == 0 {
                    return;
                }
                let flow = self.in_flows.entry((from, epoch)).or_default();
                let missing = flow.missing_upto(highest);
                if !missing.is_empty() {
                    let _ = self.send_rel(
                        clock,
                        from,
                        RelMsg::Nack {
                            from: self.rank,
                            epoch,
                            seqs: missing,
                        },
                    );
                    if let Some(m) = &self.metrics {
                        m.inc(metric::MPI_NACKS);
                    }
                }
            }
            RelMsg::Cts { from, epoch, id } => {
                if epoch != self.epoch {
                    return;
                }
                debug_assert!(
                    self.pending_rndv_tx
                        .get(&id)
                        .map(|p| p.dst == from)
                        .unwrap_or(true),
                    "CTS for transfer {id} from wrong peer"
                );
                self.send_rndv_chunks(clock, id, None);
            }
            RelMsg::Credit { from, epoch, bytes } => {
                if epoch != self.epoch {
                    return;
                }
                let budget = self.eager_budget.entry(from).or_insert(self.eager_credit);
                *budget = budget.saturating_add(bytes as usize).min(self.eager_credit);
            }
        }
    }

    /// Re-inject buffered messages onto the wire with their *original*
    /// departure times: a retransmission is a real-time artifact of the
    /// faulty wire; protocol-wise the message left when it first left.
    fn retransmit(&mut self, dst: Rank, seqs: &[u64]) {
        let (Ok(dst_node), Ok(src_node)) = (self.dir.node_of(dst), self.dir.node_of(self.rank))
        else {
            return;
        };
        let Some(flow) = self.out_flows.get(&dst) else {
            return;
        };
        let mut resends = Vec::new();
        for (_seq, (framed, seg, model_len, depart, tag)) in flow.select(seqs) {
            // Rebuilding a gather frame clones the two `Bytes` handles — the
            // payload bytes of a rendezvous chunk are never copied, even on
            // the retransmit path.
            let src_addr = Addr::new(src_node, data_port(self.app, self.rank));
            let dst_addr = Addr::new(dst_node, data_port(self.app, dst));
            let mut pkt = if seg.is_empty() {
                Packet::new(src_addr, dst_addr, PacketKind::Data, *tag, framed.clone())
            } else {
                Packet::gather(
                    src_addr,
                    dst_addr,
                    PacketKind::Data,
                    *tag,
                    framed.clone(),
                    seg.clone(),
                )
            };
            pkt.model_len = *model_len;
            pkt.depart_vt = *depart;
            resends.push(pkt);
        }
        for pkt in resends {
            if self.fabric.send(pkt).is_ok() {
                if let Some(m) = &self.metrics {
                    m.inc(metric::MPI_RETRANSMITS);
                }
            }
        }
    }

    /// Advertise every reliable flow's highest assigned sequence so peers
    /// can detect and repair tail loss (call repeatedly, interleaved with
    /// receive pumping, until the system is quiescent).
    pub fn flush_reliable(&mut self, clock: &mut VClock) {
        let flows: Vec<(Rank, u64)> = self
            .out_flows
            .iter()
            .filter_map(|(dst, f)| f.highest().map(|h| (*dst, h)))
            .collect();
        for (dst, highest) in flows {
            let _ = self.send_rel(
                clock,
                dst,
                RelMsg::Flush {
                    from: self.rank,
                    epoch: self.epoch,
                    highest,
                },
            );
        }
    }

    fn take_unexpected(&mut self, context: u32, src: Option<Rank>, tag: Option<u64>) -> Matched {
        let epoch = self.epoch;
        let Some(idx) = self
            .unexpected
            .iter()
            .position(|(h, _, _)| Self::matches(epoch, h, context, src, tag))
        else {
            return Matched::None;
        };
        match &self.unexpected[idx].1 {
            Body::Eager(_) => {
                let (h, b, at) = self.unexpected.remove(idx).expect("idx in range");
                let Body::Eager(bytes) = b else {
                    unreachable!()
                };
                Matched::Ready((h, bytes, at))
            }
            Body::RndvPending { id, .. } => Matched::Await {
                src: self.unexpected[idx].0.src,
                id: *id,
            },
        }
    }

    /// Bookkeeping for a consumed message: eager payloads owe their sender
    /// credit back, returned in [`CREDIT_BATCH_BYTES`] batches. Rendezvous
    /// payloads (DATA flag still set on the merged header) never charged
    /// credit, so they return none.
    fn note_consumed(&mut self, clock: &mut VClock, h: &MsgHeader, len: usize) {
        if h.context == CTRL_CONTEXT || h.flags & FLAG_RNDV_DATA != 0 {
            return;
        }
        let owed = self.credit_owed.entry(h.src).or_insert(0);
        *owed += len;
        if *owed >= CREDIT_BATCH_BYTES {
            let bytes = *owed as u64;
            *owed = 0;
            let _ = self.send_rel(
                clock,
                h.src,
                RelMsg::Credit {
                    from: self.rank,
                    epoch: self.epoch,
                    bytes,
                },
            );
        }
    }

    /// Grant (or re-grant) a rendezvous transfer: tell the sender to push
    /// its payload. Grants are cadence-limited per transfer; with the
    /// reliability layer on, a Ping rides along so a lost RTS/DATA sequence
    /// is repaired by the same probe.
    fn send_cts(&mut self, clock: &mut VClock, peer: Rank, id: u64) {
        let now = std::time::Instant::now(); // lint: allow(wall-clock)
        match (self.cts_cadence, self.cts_last.get(&(peer, id))) {
            (CtsCadence::Interval(every), Some(last)) if now.duration_since(*last) < every => {
                return
            }
            (_, Some(_)) => {
                if let Some(m) = &self.metrics {
                    m.inc(metric::MPI_CTS_RESENDS);
                }
            }
            (_, None) => {}
        }
        self.cts_last.insert((peer, id), now);
        let _ = self.send_rel(
            clock,
            peer,
            RelMsg::Cts {
                from: self.rank,
                epoch: self.epoch,
                id,
            },
        );
        if self.reliable {
            let next = self
                .in_flows
                .get(&(peer, self.epoch))
                .map(|f| f.next_expected())
                .unwrap_or(1);
            let _ = self.send_rel(
                clock,
                peer,
                RelMsg::Ping {
                    from: self.rank,
                    epoch: self.epoch,
                    next,
                },
            );
        }
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
        let deadline = std::time::Instant::now() + timeout; // lint: allow(wall-clock)
                                                            // A blocked receive from a concrete source probes that sender's
                                                            // reliable flow: if a drop fault ate the message, the Ping's
                                                            // cumulative position triggers a retransmission.
        let probe = self.reliable && context != CTRL_CONTEXT;
        let mut next_ping = std::time::Instant::now() + REL_PING_INTERVAL; // lint: allow(wall-clock)
        loop {
            self.check_abort()?;
            match self.take_unexpected(context, src, tag) {
                Matched::Ready((h, body, arrive)) => {
                    self.note_consumed(clock, &h, body.len());
                    clock.merge(arrive);
                    clock.advance(self.layers.recv_total());
                    self.note_recv();
                    return Ok(RecvdMsg {
                        src: h.src,
                        tag: h.tag,
                        data: body,
                        vt: clock.now(),
                        interval: h.interval,
                    });
                }
                Matched::Await { src: peer, id } => {
                    // Our receive is the one this transfer is waiting on:
                    // grant (or re-grant, if the last CTS was lost) and keep
                    // pumping until the payload merges.
                    self.send_cts(clock, peer, id);
                }
                Matched::None => {}
            }
            if probe {
                if let Some(peer) = src {
                    let ping_due = std::time::Instant::now() >= next_ping; // lint: allow(wall-clock)
                    if ping_due {
                        next_ping = std::time::Instant::now() + REL_PING_INTERVAL; // lint: allow(wall-clock)
                        let next = self
                            .in_flows
                            .get(&(peer, self.epoch))
                            .map(|f| f.next_expected())
                            .unwrap_or(1);
                        let _ = self.send_rel(
                            clock,
                            peer,
                            RelMsg::Ping {
                                from: self.rank,
                                epoch: self.epoch,
                                next,
                            },
                        );
                    }
                }
            }
            let slice = if probe && src.is_some() {
                REL_PING_INTERVAL
            } else {
                Duration::from_millis(100)
            };
            let remain = deadline
                .checked_duration_since(std::time::Instant::now()) // lint: allow(wall-clock)
                .ok_or_else(|| Error::timeout(format!("recv on {} ctx {}", self.rank, context)))?;
            self.ingest_one(clock, Some(remain.min(slice)))?;
        }
    }

    /// Non-blocking receive probe: returns a matched message if one is
    /// already here.
    pub fn try_recv_world(
        &mut self,
        clock: &mut VClock,
        context: u32,
        src: Option<Rank>,
        tag: Option<u64>,
    ) -> Result<Option<RecvdMsg>> {
        // Drain whatever has arrived, then match.
        while self.ingest_one(clock, None)? {}
        match self.take_unexpected(context, src, tag) {
            Matched::Ready((h, body, arrive)) => {
                self.note_consumed(clock, &h, body.len());
                clock.merge(arrive);
                clock.advance(self.layers.recv_total());
                self.note_recv();
                Ok(Some(RecvdMsg {
                    src: h.src,
                    tag: h.tag,
                    data: body,
                    vt: clock.now(),
                    interval: h.interval,
                }))
            }
            Matched::Await { src: peer, id } => {
                // Not consumable yet, but grant the CTS so repeated polling
                // makes progress (cadence-limited inside send_cts).
                self.send_cts(clock, peer, id);
                Ok(None)
            }
            Matched::None => Ok(None),
        }
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
                Ok(None)
            }
            Request::RndvSend { id, vt } => {
                clock.merge(vt);
                self.finish_rendezvous(clock, id)?;
                Ok(None)
            }
            Request::Recv { context, src, tag } => {
                Ok(Some(self.recv_world(clock, context, src, tag)?))
            }
        }
    }

    /// Test a request without blocking: `Ok(Some(..))`/`Ok(None)` semantics
    /// mirror MPI_Test's flag. Send requests are always complete.
    pub fn test(&mut self, clock: &mut VClock, req: &Request) -> Result<Option<RecvdMsg>> {
        match req {
            Request::Send { vt } => {
                clock.merge(*vt);
                // Completed; nothing to return for a send.
                Ok(None)
            }
            Request::RndvSend { id, vt } => {
                clock.merge(*vt);
                // Pump once so a waiting CTS is serviced; completion is
                // observable as the transfer leaving the pending set.
                while self.ingest_one(clock, None)? {}
                let _ = id;
                Ok(None)
            }
            Request::Recv { context, src, tag } => self.try_recv_world(clock, *context, *src, *tag),
        }
    }

    /// Number of rendezvous sends whose payload has not left yet (RTS out,
    /// CTS pending). Quiescence protocols gate on this reaching zero.
    pub fn pending_rendezvous(&self) -> usize {
        self.pending_rndv_tx.len()
    }

    /// Push every parked rendezvous payload *without* waiting for its CTS.
    /// Called by the C/R protocols before emitting flush marks or
    /// Chandy–Lamport markers: channel capture assumes all in-flight data
    /// precedes the marks on the wire, so parked payloads must be on the
    /// wire first (receivers accept unsolicited DATA — it merges into the
    /// RTS placeholder exactly as a granted push would).
    pub fn push_pending_rendezvous(&mut self, clock: &mut VClock) {
        let mut ids: Vec<u64> = self.pending_rndv_tx.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            self.send_rndv_chunks(clock, id, None);
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
        while self.ingest_one(clock, None)? {}
        let epoch = self.epoch;
        Ok(self
            .unexpected
            .iter()
            .any(|(h, _, _)| Self::matches(epoch, h, context, src, tag)))
    }

    // ---- C/R hooks -------------------------------------------------------------

    /// Drain the C/R data-path marks of the *current* epoch (non-blocking).
    /// Stale marks are dropped; future-epoch marks stay queued.
    pub fn pump_ctrl(&mut self, clock: &mut VClock) -> Vec<(Rank, Bytes, VirtualTime)> {
        while matches!(self.ingest_one(clock, None), Ok(true)) {}
        let epoch = self.epoch;
        let mut out = Vec::new();
        self.ctrl_marks.retain(|(_, _, _, e)| *e >= epoch);
        let mut keep = VecDeque::new();
        for entry in self.ctrl_marks.drain(..) {
            if entry.3 == epoch {
                out.push((entry.0, entry.1, entry.2));
            } else {
                keep.push_back(entry);
            }
        }
        self.ctrl_marks = keep;
        out
    }

    /// Block until at least one C/R mark arrives (quiesce loop).
    pub fn wait_ctrl(
        &mut self,
        clock: &mut VClock,
        timeout: Duration,
    ) -> Result<Vec<(Rank, Bytes, VirtualTime)>> {
        let deadline = std::time::Instant::now() + timeout; // lint: allow(wall-clock)
        loop {
            self.check_abort()?;
            let marks = self.pump_ctrl(clock);
            if !marks.is_empty() {
                return Ok(marks);
            }
            let remain = deadline
                .checked_duration_since(std::time::Instant::now()) // lint: allow(wall-clock)
                .ok_or_else(|| Error::timeout("wait_ctrl"))?;
            self.ingest_one(clock, Some(remain.min(Duration::from_millis(100))))?;
        }
    }

    /// Capture the channel state for a checkpoint: every unconsumed data
    /// message (parsed unexpected queue + anything still in the raw queue).
    /// Unfulfilled rendezvous placeholders are skipped: their sender pushed
    /// the payload (`push_pending_rendezvous`) before its flush mark, and
    /// the per-link FIFO guarantees it arrives before the marks complete —
    /// so by the time the snapshot is actually taken the placeholder has
    /// merged or its payload is still counted on the sender's side.
    pub fn snapshot_channel(&mut self, clock: &mut VClock) -> Vec<(MsgHeader, Bytes)> {
        while matches!(self.ingest_one(clock, None), Ok(true)) {}
        self.unexpected
            .iter()
            .filter(|(h, _, _)| h.epoch == self.epoch)
            .filter_map(|(h, b, _)| match b {
                Body::Eager(bytes) => Some((*h, bytes.clone())),
                Body::RndvPending { .. } => None,
            })
            .collect()
    }

    /// Refill the unexpected queue from a restored image's channel state.
    /// Messages already queued that belong to the *current* epoch are kept
    /// (they were sent by peers that have already restarted and will not be
    /// re-sent); everything older is dropped with the rolled-back past.
    pub fn restore_channel(&mut self, msgs: Vec<(MsgHeader, Bytes)>, restart_vt: VirtualTime) {
        let epoch = self.epoch;
        let survivors: Vec<(MsgHeader, Body, VirtualTime)> = self
            .unexpected
            .drain(..)
            .filter(|(h, _, _)| h.epoch == epoch)
            .collect();
        // Marks of this (new) epoch or later stay; the rolled-back past's go.
        self.ctrl_marks.retain(|(_, _, _, e)| *e >= epoch);
        self.recording.clear();
        self.recorded.clear();
        for (mut h, b) in msgs {
            // Restored messages belong to the *new* epoch, and sit outside
            // the reliability flows and the rendezvous protocol (their
            // originals were already sequenced/transferred by a rolled-back
            // incarnation) — they are complete eager payloads now.
            h.epoch = epoch;
            h.seq = 0;
            h.flags = 0;
            self.unexpected.push_back((h, Body::Eager(b), restart_vt));
        }
        self.unexpected.extend(survivors);
    }

    /// Start copying arriving data messages from `from` (Chandy–Lamport
    /// channel recording).
    pub fn start_recording(&mut self, from: Rank) {
        self.recording.insert(from);
    }

    /// Stop recording the channel from `from`.
    pub fn stop_recording(&mut self, from: Rank) {
        self.recording.remove(&from);
    }

    /// Take everything recorded so far.
    pub fn take_recorded(&mut self) -> Vec<(MsgHeader, Bytes)> {
        std::mem::take(&mut self.recorded)
    }

    /// Number of unconsumed data messages currently buffered.
    pub fn pending_count(&self) -> usize {
        self.unexpected.len()
    }
}

impl Drop for MpiEndpoint {
    /// Release the data port explicitly: the polling thread owns the `Port`
    /// object, so without this unbind it would keep the address bound (and
    /// itself alive) until the node dies — leaking the port across
    /// application lifetimes on the same node.
    fn drop(&mut self) {
        self.dir.unbound(self.rank, &self.kicker());
        self.fabric.unbind(self.bound_addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_util::NodeId;
    use starfish_vni::{BipMyrinet, Ideal};

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
        // Wait for the polling thread to move it.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !b.iprobe(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap() {
            assert!(std::time::Instant::now() < deadline);
            std::thread::yield_now();
        }
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
        assert!(matches!(req, Request::RndvSend { .. }));
        // Early streaming happened, but the transfer must still be parked:
        // the last chunk only leaves on CTS (or a checkpoint push).
        assert_eq!(a.pending_rendezvous(), 1);
        assert_eq!(
            a.pending_rndv_tx.values().next().unwrap().next_chunk,
            RNDV_EARLY_CHUNKS as u64,
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
        let flow = a.out_flows.get(&Rank(1)).expect("reliable flow exists");
        let seqs: Vec<u64> = (1..=flow.highest().unwrap()).collect();
        let mut chunk_records = 0usize;
        for (_seq, (_envelope, seg, _len, _vt, _tag)) in flow.select(&seqs) {
            if seg.is_empty() {
                continue; // the RTS record has no payload segment
            }
            let p = seg.as_ptr() as usize;
            assert!(
                range.contains(&p) && range.contains(&(p + seg.len() - 1)),
                "retransmit segment must alias the original payload buffer"
            );
            chunk_records += 1;
        }
        assert_eq!(chunk_records, 8, "1000 B / 128 B chunks = 8 records");
        // The parked payload itself is the caller's buffer, not a copy.
        assert_eq!(payload.as_ptr(), {
            let r = &a.pending_rndv_tx;
            assert!(r.is_empty());
            payload.as_ptr()
        });
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
                    let m = b.recv_world(&mut cb, 1, ANY_SOURCE, ANY_TAG).unwrap();
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
