//! The four jobs, as closures over the public `Ctx` API, and the pass
//! runner that builds a cluster, submits one job, drives the crash schedule
//! and collects what the ranks logged.
//!
//! Closed loop throughout: ranks wait on each other, the harness adds no
//! load. Its main thread sleeps in a 5 ms status poll (1 ms in `ft_jacobi`,
//! which must hit its crash points).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use starfish::state::CkptValueExt;
use starfish::{
    AppStatus, Checkpointable, CkptValue, Cluster, Ctx, Error, Rank, ReduceOp, Result, SubmitOpts,
};
use starfish_telemetry::metric;

use crate::kernels::{self, CKPT_EVERY, COLS, JACOBI_ROWS, SOLVER_RANKS, SOLVER_ROWS};
use crate::procfs::{self, ProcSample};
use crate::spans::{Recorder, Span, NO_PARENT};

/// Leading batches of every job that are run but not measured.
pub const WARMUP_BATCHES: u64 = 2;
/// A job that has not finished by then is reported failed, not waited for.
pub const WATCHDOG: Duration = Duration::from_secs(120);

const TAG_DATA: u64 = 1;
const TAG_ACK: u64 = 2;
const TAG_HALO_UP: u64 = 10;
const TAG_HALO_DOWN: u64 = 11;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Msgrate8B,
    Stream1MiB,
    SolverAllreduce,
    FtJacobi,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Msgrate8B,
        Kind::Stream1MiB,
        Kind::SolverAllreduce,
        Kind::FtJacobi,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Msgrate8B => "msgrate_8B",
            Kind::Stream1MiB => "stream_1MiB",
            Kind::SolverAllreduce => "solver_allreduce",
            Kind::FtJacobi => "ft_jacobi",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    pub fn ranks(self) -> u32 {
        match self {
            Kind::SolverAllreduce => SOLVER_RANKS as u32,
            _ => 2,
        }
    }

    /// `ft_jacobi` keeps one spare node for the crashed rank to move to.
    pub fn nodes(self) -> u32 {
        match self {
            Kind::FtJacobi => 3,
            k => k.ranks(),
        }
    }

    /// Ops per batch. Fixed: run length scales the batch *count* only, so a
    /// batch means the same thing at every `--seconds`.
    pub fn batch_ops(self) -> u64 {
        match self {
            Kind::Msgrate8B => 20_000,
            Kind::Stream1MiB => 32,
            Kind::SolverAllreduce => 20,
            Kind::FtJacobi => CKPT_EVERY,
        }
    }

    /// Batches (warm-up included) that take ≈10 s on the 2-vCPU reference
    /// box; `--seconds` scales this linearly (the recorded length is 10).
    fn batches_per_10s(self) -> u64 {
        match self {
            Kind::Msgrate8B => 250,
            Kind::Stream1MiB => 300,
            Kind::SolverAllreduce => 160,
            Kind::FtJacobi => 480,
        }
    }

    /// Application payload bytes delivered to ranks per op: the message for
    /// the streams; halos plus reduction results over all ranks otherwise.
    pub fn payload_bytes_per_op(self) -> f64 {
        let halo = (COLS * 8) as f64;
        match self {
            Kind::Msgrate8B => 8.0,
            Kind::Stream1MiB => kernels::LARGE_BYTES as f64,
            Kind::SolverAllreduce => {
                SOLVER_RANKS as f64 * (2.0 * halo + (SOLVER_ROWS * COLS * 8) as f64 + 16.0)
            }
            Kind::FtJacobi => 2.0 * halo,
        }
    }

    pub fn op_name(self) -> &'static str {
        match self {
            Kind::Msgrate8B | Kind::Stream1MiB => "message",
            Kind::SolverAllreduce | Kind::FtJacobi => "iteration",
        }
    }
}

/// What one pass runs.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub kind: Kind,
    pub seed: u64,
    /// Total batches, warm-up included.
    pub batches: u64,
    /// `ft_jacobi` only: harness-injected node crashes.
    pub crashes: u64,
    /// Record harness spans and count allocations.
    pub traced: bool,
    /// Default builder (flight recorder and event bus on); `false` is the
    /// arm `trace.overhead_pct` compares against.
    pub observability: bool,
}

impl Plan {
    /// The measured shape, `scale` = seconds / 10. Never fewer than 40
    /// measured batches, so a median batch stays meaningful.
    pub fn sized(kind: Kind, seed: u64, scale: f64) -> Plan {
        let batches =
            ((kind.batches_per_10s() as f64 * scale).round() as u64).max(40 + WARMUP_BATCHES);
        let crashes = match kind {
            Kind::FtJacobi => batches * CKPT_EVERY / CRASH_EVERY,
            _ => 0,
        };
        Plan::untraced(kind, seed, batches, crashes)
    }

    fn untraced(kind: Kind, seed: u64, batches: u64, crashes: u64) -> Plan {
        Plan {
            kind,
            seed,
            batches,
            crashes,
            traced: false,
            observability: true,
        }
    }

    /// `--quick`: every code path, numbers meaningless.
    pub fn quick(kind: Kind, seed: u64) -> Plan {
        let (batches, crashes) = match kind {
            Kind::Msgrate8B => (4, 0),
            Kind::Stream1MiB => (4, 0),
            Kind::SolverAllreduce => (4, 0),
            Kind::FtJacobi => (8, 1),
        };
        Plan::untraced(kind, seed, batches, crashes)
    }

    /// Same job cut to its first batch: what a set-up sample runs.
    pub fn setup_only(self) -> Plan {
        Plan {
            batches: 1,
            crashes: 0,
            traced: false,
            ..self
        }
    }

    pub fn traced(self) -> Plan {
        Plan {
            traced: true,
            ..self
        }
    }

    pub fn total_ops(&self) -> u64 {
        self.batches * self.kind.batch_ops()
    }

    fn span_capacity(&self) -> usize {
        let per_batch = match self.kind {
            Kind::Msgrate8B => self.kind.batch_ops() / MSGRATE_SPAN_EVERY + 8,
            Kind::Stream1MiB => self.kind.batch_ops() + 8,
            Kind::SolverAllreduce => self.kind.batch_ops() * 12,
            Kind::FtJacobi => self.kind.batch_ops() * 6,
        };
        // Rolled-back iterations are recorded again: leave half as much room.
        (self.batches * per_batch * 3 / 2) as usize
    }
}

/// `ft_jacobi`: one node crash per this many iterations (16 at the recorded
/// run length). Recovery and checkpoint rounds get slower with every node
/// that ever died (README, finding 3), so more crashes would mostly measure
/// that.
const CRASH_EVERY: u64 = 1500;

/// One in this many `msgrate_8B` messages gets its own span; a span on
/// every message would cost more than the send it times.
const MSGRATE_SPAN_EVERY: u64 = 16;

// ---- what ranks log --------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
pub struct PhaseMark {
    pub at: Instant,
    /// Rank 0's virtual clock, seconds.
    pub vt_s: f64,
    pub proc: ProcSample,
    pub allocs: (u64, u64),
}

#[derive(Default)]
pub struct RankOut {
    first_recv: Option<Instant>,
    first_batch_done: Option<Instant>,
    /// `(batch number from 1, end)`; rolled-back batches appear twice.
    batch_end: Vec<(u64, Instant)>,
    /// `(iteration from 1, end)` on rank 0 of the iterative jobs.
    op_end: Vec<(u64, Instant)>,
    phase_start: Option<PhaseMark>,
    phase_end: Option<PhaseMark>,
    /// Ops this rank checked and found wrong.
    failed: u64,
    checked: u64,
    ckpt_call_s: Vec<f64>,
    /// Solver rank 0: `(alpha, beta)` per iteration.
    scalars: Vec<(f64, f64)>,
    final_state: Option<Vec<f64>>,
    spans: Vec<Span>,
    span_overflow: u64,
}

pub struct Shared {
    pub plan: Plan,
    /// Start of set-up and epoch of every span.
    pub t0: Instant,
    ranks: Vec<Mutex<RankOut>>,
    /// Times each rank's closure was entered (1 + its rollbacks/respawns).
    entries: Vec<AtomicU64>,
    /// `ft_jacobi`: rank 0's current iteration.
    progress: AtomicU64,
    /// `ft_jacobi`: rank 0 finished its first iteration after a rollback.
    recovered: Mutex<Vec<Instant>>,
    /// `ft_jacobi`: rank 1 incarnations up to this one run on a crashed
    /// node; whatever error they die of is expected.
    doomed: AtomicU64,
    fatal: Mutex<Option<String>>,
}

impl Shared {
    fn new(plan: Plan) -> Shared {
        let n = plan.kind.ranks() as usize;
        Shared {
            plan,
            t0: Instant::now(),
            ranks: (0..n).map(|_| Mutex::new(RankOut::default())).collect(),
            entries: (0..n).map(|_| AtomicU64::new(0)).collect(),
            progress: AtomicU64::new(0),
            recovered: Mutex::new(Vec::new()),
            doomed: AtomicU64::new(0),
            fatal: Mutex::new(None),
        }
    }

    fn set_fatal(&self, msg: String) {
        let mut f = self.fatal.lock().expect("fatal slot poisoned");
        f.get_or_insert(msg);
    }

    fn fatal(&self) -> Option<String> {
        self.fatal.lock().expect("fatal slot poisoned").clone()
    }
}

/// A rank incarnation's private log; merged into [`Shared`] when the
/// closure returns, whether normally or through a rollback's `?`.
struct Local<'a> {
    sh: &'a Shared,
    me: usize,
    incarnation: u64,
    out: RankOut,
    rec: Recorder,
}

impl<'a> Local<'a> {
    fn new(sh: &'a Shared, me: usize) -> Local<'a> {
        let incarnation = sh.entries[me].fetch_add(1, Ordering::SeqCst) + 1;
        let rec = Recorder::new(sh.plan.traced, me as u32, sh.t0, sh.plan.span_capacity());
        Local {
            sh,
            me,
            incarnation,
            out: RankOut::default(),
            rec,
        }
    }

    /// Sampling `/proc` takes a fraction of a millisecond: stamp the mark
    /// on the side of it that keeps the sampling out of the phase.
    fn mark(&self, ctx: &Ctx<'_>, opens_phase: bool) -> PhaseMark {
        let before = Instant::now();
        let proc = procfs::sample();
        PhaseMark {
            at: if opens_phase { Instant::now() } else { before },
            vt_s: ctx.time().as_secs_f64(),
            proc,
            allocs: crate::alloc::totals(),
        }
    }

    /// Bookkeeping at the end of batch `b` (from 1).
    fn batch_done(&mut self, ctx: &Ctx<'_>, b: u64) {
        let now = Instant::now();
        self.out.batch_end.push((b, now));
        if b == 1 {
            self.out.first_batch_done = Some(now);
        }
        if self.me == 0 {
            if b == WARMUP_BATCHES.min(self.sh.plan.batches) {
                self.out.phase_start = Some(self.mark(ctx, true));
            }
            if b == self.sh.plan.batches {
                self.out.phase_end = Some(self.mark(ctx, false));
            }
        }
    }

    fn note_first_recv(&mut self) {
        if self.out.first_recv.is_none() {
            self.out.first_recv = Some(Instant::now());
        }
    }
}

impl Drop for Local<'_> {
    fn drop(&mut self) {
        let mut mine = std::mem::take(&mut self.out);
        mine.spans = self.rec.take();
        mine.span_overflow = self.rec.overflow;
        let Ok(mut all) = self.sh.ranks[self.me].lock() else {
            return;
        };
        all.first_recv = all.first_recv.or(mine.first_recv);
        all.first_batch_done = all.first_batch_done.or(mine.first_batch_done);
        all.phase_start = all.phase_start.or(mine.phase_start);
        all.phase_end = mine.phase_end.or(all.phase_end);
        all.final_state = mine.final_state.or(all.final_state.take());
        all.batch_end.append(&mut mine.batch_end);
        all.op_end.append(&mut mine.op_end);
        all.ckpt_call_s.append(&mut mine.ckpt_call_s);
        all.scalars.append(&mut mine.scalars);
        all.failed += mine.failed;
        all.checked += mine.checked;
        all.span_overflow += mine.span_overflow;
        // Parents index the incarnation's own buffer: shift them.
        let base = all.spans.len() as u32;
        for s in &mut mine.spans {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
        }
        all.spans.append(&mut mine.spans);
    }
}

/// Time a `Ctx` call under a span; `?` inside `$call` still unwinds cleanly.
macro_rules! spanned {
    ($log:expr, $name:expr, $op:expr, $call:expr) => {{
        let s = $log.rec.begin($name, $op);
        let r = $call;
        $log.rec.end(s);
        r
    }};
}

// ---- the jobs -----------------------------------------------------------------------

fn rank_main(ctx: &mut Ctx<'_>, sh: &Shared) -> Result<()> {
    let me = ctx.rank().index();
    let mut log = Local::new(sh, me);
    let r = match sh.plan.kind {
        Kind::Msgrate8B | Kind::Stream1MiB => stream_rank(ctx, &mut log),
        Kind::SolverAllreduce => solver_rank(ctx, &mut log),
        Kind::FtJacobi => jacobi_rank(ctx, &mut log),
    };
    if let Err(e) = &r {
        let expected = matches!(e, Error::Interrupted(_))
            || (sh.plan.kind == Kind::FtJacobi
                && me == 1
                && log.incarnation <= sh.doomed.load(Ordering::SeqCst));
        if !expected {
            sh.set_fatal(format!("rank {me}: {e}"));
        }
    }
    r
}

/// `msgrate_8B` and `stream_1MiB`: rank 0 streams a batch, rank 1 checks
/// every message and acknowledges the batch.
fn stream_rank(ctx: &mut Ctx<'_>, log: &mut Local<'_>) -> Result<()> {
    let plan = log.sh.plan;
    let large = plan.kind == Kind::Stream1MiB;
    let per_batch = plan.kind.batch_ops();
    let span_every = if large { 1 } else { MSGRATE_SPAN_EVERY };
    let mut seq = 0u64;
    let seed = plan.seed;
    let (sender, receiver) = (Rank(0), Rank(1));
    if log.me == 0 {
        let mut buf = if large {
            kernels::large_template(seed)
        } else {
            Vec::new()
        };
        let sum = if large {
            kernels::large_body_sum(&buf)
        } else {
            0
        };
        for b in 1..=plan.batches {
            let batch = log.rec.begin("batch", b);
            spanned!(
                log,
                "ctx.safepoint",
                b,
                ctx.safepoint(&CkptValue::Int(b as i64))
            )?;
            for _ in 0..per_batch {
                let span = if seq.is_multiple_of(span_every) {
                    log.rec.begin("ctx.send", seq)
                } else {
                    None
                };
                if large {
                    kernels::stamp_large(&mut buf, seed, seq, sum);
                    ctx.send(receiver, TAG_DATA, &buf)?;
                } else {
                    ctx.send(receiver, TAG_DATA, &kernels::small_payload(seed, seq))?;
                }
                log.rec.end(span);
                seq += 1;
            }
            let ack = spanned!(
                log,
                "ctx.recv.ack",
                b,
                ctx.recv(Some(receiver), Some(TAG_ACK))
            )?;
            log.note_first_recv();
            if ack.data[..] != b.to_le_bytes() {
                log.out.failed += 1;
            }
            log.rec.end(batch);
            log.batch_done(ctx, b);
        }
    } else {
        for b in 1..=plan.batches {
            let batch = log.rec.begin("batch", b);
            spanned!(
                log,
                "ctx.safepoint",
                b,
                ctx.safepoint(&CkptValue::Int(b as i64))
            )?;
            for _ in 0..per_batch {
                let span = if seq.is_multiple_of(span_every) {
                    log.rec.begin("ctx.recv", seq)
                } else {
                    None
                };
                let m = ctx.recv(Some(sender), Some(TAG_DATA))?;
                log.rec.end(span);
                log.note_first_recv();
                let ok = if large {
                    kernels::check_large(&m.data, seed, seq)
                } else {
                    m.data[..] == kernels::small_payload(seed, seq)
                };
                log.out.checked += 1;
                log.out.failed += u64::from(!ok);
                seq += 1;
            }
            spanned!(
                log,
                "ctx.send.ack",
                b,
                ctx.send(sender, TAG_ACK, &b.to_le_bytes())
            )?;
            log.rec.end(batch);
            log.batch_done(ctx, b);
        }
    }
    Ok(())
}

struct GridState<'a> {
    iter: u64,
    grid: &'a [f64],
}

impl Checkpointable for GridState<'_> {
    fn save(&self) -> CkptValue {
        CkptValue::record(vec![
            ("iter", CkptValue::Int(self.iter as i64)),
            ("grid", CkptValue::FloatArray(self.grid.to_vec())),
        ])
    }
}

/// `solver_allreduce`: Lanczos-shaped iteration on a ring of ranks.
fn solver_rank(ctx: &mut Ctx<'_>, log: &mut Local<'_>) -> Result<()> {
    let plan = log.sh.plan;
    let me = log.me;
    let n = SOLVER_RANKS;
    let (up, down) = (Rank(((me + n - 1) % n) as u32), Rank(((me + 1) % n) as u32));
    let mut x = kernels::solver_init(plan.seed, me as u64);
    let mut y = vec![0.0; x.len()];
    let (mut above, mut below) = (vec![0.0; COLS], vec![0.0; COLS]);
    let mut wire = Vec::with_capacity(COLS * 8);
    let iters = plan.total_ops();
    for it in 0..iters {
        let op = log.rec.begin("iter", it);
        spanned!(
            log,
            "ctx.safepoint",
            it,
            ctx.safepoint(&GridState { iter: it, grid: &x })
        )?;

        let halo = log.rec.begin("halo", it);
        kernels::put_f64s(&mut wire, &x[..COLS]);
        spanned!(log, "ctx.send", it, ctx.send(up, TAG_HALO_UP, &wire))?;
        kernels::put_f64s(&mut wire, &x[(SOLVER_ROWS - 1) * COLS..]);
        spanned!(log, "ctx.send", it, ctx.send(down, TAG_HALO_DOWN, &wire))?;
        let from_below = spanned!(log, "ctx.recv", it, ctx.recv(Some(down), Some(TAG_HALO_UP)))?;
        let from_above = spanned!(log, "ctx.recv", it, ctx.recv(Some(up), Some(TAG_HALO_DOWN)))?;
        log.note_first_recv();
        let halos_ok = kernels::get_f64s(&from_below.data, &mut below)
            & kernels::get_f64s(&from_above.data, &mut above);
        log.rec.end(halo);

        let compute = log.rec.begin("stencil", it);
        kernels::solver_stencil(&x, &above, &below, &mut y);
        let (xy, yy) = (kernels::dot(&x, &y), kernels::dot(&y, &y));
        log.rec.end(compute);

        let alpha = spanned!(
            log,
            "ctx.allreduce.8B",
            it,
            ctx.allreduce_f64(&[xy], ReduceOp::Sum)
        )?;
        let beta = spanned!(
            log,
            "ctx.allreduce.8B",
            it,
            ctx.allreduce_f64(&[yy], ReduceOp::Sum)
        )?;
        let sum = spanned!(
            log,
            "ctx.allreduce.256KiB",
            it,
            ctx.allreduce_f64(&y, ReduceOp::Sum)
        )?;
        if !halos_ok || alpha.len() != 1 || beta.len() != 1 || sum.len() != y.len() {
            return Err(Error::invalid_arg(format!(
                "iteration {it}: malformed halo or reduction"
            )));
        }
        kernels::solver_update(&mut x, &y, &sum, alpha[0], beta[0]);
        log.rec.end(op);

        if me == 0 {
            log.out.scalars.push((alpha[0], beta[0]));
            log.out.op_end.push((it + 1, Instant::now()));
        }
        if (it + 1) % plan.kind.batch_ops() == 0 {
            log.batch_done(ctx, (it + 1) / plan.kind.batch_ops());
        }
    }
    log.out.final_state = Some(x);
    Ok(())
}

/// `ft_jacobi`: two ranks relax a 2 MiB grid, checkpoint every
/// [`CKPT_EVERY`] iterations and survive the harness's node crashes.
///
/// `ctx.barrier()` precedes every `ctx.checkpoint()`: without it a rank
/// captured while blocked in the halo exchange re-enters `checkpoint()` and
/// waits for a round that never starts (README, finding 1).
fn jacobi_rank(ctx: &mut Ctx<'_>, log: &mut Local<'_>) -> Result<()> {
    let plan = log.sh.plan;
    let me = log.me;
    let peer = Rank(1 - me as u32);
    let iters = plan.total_ops();
    let restored = ctx.restored();
    let (mut iter, mut grid) = match &restored {
        Some(v) => (v.req_int("iter")? as u64, v.req_float_array("grid")?),
        None => (0, kernels::jacobi_init(plan.seed, me as u64)),
    };
    if grid.len() != JACOBI_ROWS * COLS {
        return Err(Error::checkpoint(format!(
            "restored grid has {} cells",
            grid.len()
        )));
    }
    // The image we restarted from *is* the checkpoint at `iter`: do not
    // take it again.
    let mut skip_ckpt_at = restored.map(|_| iter);
    let mut first_after_rollback = log.incarnation > 1;
    let mut next = vec![0.0; grid.len()];
    let mut halo = vec![0.0; COLS];
    let mut wire = Vec::with_capacity(COLS * 8);
    while iter < iters {
        let op = log.rec.begin("iter", iter);
        let state = GridState { iter, grid: &grid };
        if iter % CKPT_EVERY == 0 && iter > 0 && skip_ckpt_at.take() != Some(iter) {
            spanned!(log, "ctx.barrier", iter, ctx.barrier())?;
            let t = Instant::now();
            spanned!(log, "ctx.checkpoint", iter, ctx.checkpoint(&state))?;
            if me == 0 {
                log.out.ckpt_call_s.push(t.elapsed().as_secs_f64());
            }
        } else {
            spanned!(log, "ctx.safepoint", iter, ctx.safepoint(&state))?;
        }

        let edge = if me == 0 {
            &grid[(JACOBI_ROWS - 1) * COLS..]
        } else {
            &grid[..COLS]
        };
        kernels::put_f64s(&mut wire, edge);
        spanned!(log, "ctx.send", iter, ctx.send(peer, TAG_HALO_UP, &wire))?;
        let m = spanned!(
            log,
            "ctx.recv",
            iter,
            ctx.recv(Some(peer), Some(TAG_HALO_UP))
        )?;
        log.note_first_recv();
        if !kernels::get_f64s(&m.data, &mut halo) {
            return Err(Error::invalid_arg(format!(
                "iteration {iter}: malformed halo"
            )));
        }

        let compute = log.rec.begin("stencil", iter);
        let (above, below) = if me == 0 {
            (None, Some(&halo[..]))
        } else {
            (Some(&halo[..]), None)
        };
        kernels::jacobi_sweep(&grid, above, below, &mut next);
        std::mem::swap(&mut grid, &mut next);
        log.rec.end(compute);
        log.rec.end(op);

        iter += 1;
        if me == 0 {
            let now = Instant::now();
            log.out.op_end.push((iter, now));
            log.sh.progress.store(iter, Ordering::SeqCst);
            if std::mem::take(&mut first_after_rollback) {
                log.sh
                    .recovered
                    .lock()
                    .expect("recovered poisoned")
                    .push(now);
            }
        }
        if iter % CKPT_EVERY == 0 {
            log.batch_done(ctx, iter / CKPT_EVERY);
        }
    }
    log.out.final_state = Some(grid);
    Ok(())
}

// ---- running one pass ---------------------------------------------------------------

/// Counters read from the public telemetry after the job.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub data_msgs: u64,
    pub data_bytes: u64,
    pub vni_packets: u64,
    pub vni_dropped: u64,
    pub rndv_sends: u64,
    pub retransmits: u64,
    pub nacks: u64,
    pub credit_fallbacks: u64,
    pub ckpt_rounds: u64,
    pub ckpt_image_b: f64,
    pub ensemble_casts: u64,
    pub view_changes: u64,
    pub view_change_ms_p50: f64,
    pub trace_dropped: u64,
    pub events_dropped: u64,
}

#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// `crash_node` → rank 0 completes its first iteration of the new epoch.
    pub recover_s: Vec<f64>,
    /// `crash_node` → epoch + 1 visible in the replicated configuration
    /// (1 ms poll; traced passes only).
    pub epoch_bump_s: Vec<f64>,
    /// Epoch + 1 visible → rank 0's first iteration (traced passes only).
    pub respawn_s: Vec<f64>,
    pub add_node_s: Vec<f64>,
}

pub struct PassResult {
    pub plan: Plan,
    /// `Cluster::build` → every rank finished its first batch.
    pub setup_s: f64,
    pub build_s: f64,
    pub submit_s: f64,
    /// `submit` called → first message delivered to any rank. Usually
    /// shorter than `submit_s`: ranks are exchanging messages while `submit`
    /// still sleeps in its 5 ms poll for the configuration to show the job.
    pub first_msg_s: f64,
    /// Measured phase: end of warm-up to end of the last batch, on rank 0.
    pub job_s: f64,
    pub vt_job_s: f64,
    pub cpu_s: f64,
    pub ctx_switches: u64,
    pub allocs: (u64, u64),
    pub peak_rss_mib: f64,
    pub threads: u64,
    /// Rank 0's measured batches, seconds each.
    pub batch_s: Vec<f64>,
    /// Rank 0's measured iterations, seconds each (iterative jobs).
    pub op_s: Vec<f64>,
    pub ops_measured: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub ckpt_call_s: Vec<f64>,
    pub recovery: Recovery,
    pub counters: Counters,
    pub spans: Vec<Vec<Span>>,
    pub span_overflow: u64,
    /// Why the pass is not correct, if it is not.
    pub problems: Vec<String>,
}

fn build_cluster(plan: &Plan) -> Result<Cluster> {
    let b = Cluster::builder().nodes(plan.kind.nodes());
    if plan.observability {
        b
    } else {
        b.no_flight_recorder().no_event_bus()
    }
    .build()
}

/// Wait until the job is done, a rank reported a fatal error, or the
/// watchdog fires. `Ok(false)` = not done.
fn wait_done(cluster: &Cluster, app: starfish::AppId, sh: &Shared, deadline: Instant) -> bool {
    loop {
        if cluster.app_status(app) == Some(AppStatus::Done) {
            return true;
        }
        if sh.fatal().is_some() || Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Sleep-poll `cond` every millisecond. False on fatal error or deadline.
fn poll_until(sh: &Shared, deadline: Instant, mut cond: impl FnMut() -> bool) -> bool {
    loop {
        if cond() {
            return true;
        }
        if sh.fatal().is_some() || Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// `ft_jacobi`'s fault injector: at each drawn progress point crash the node
/// hosting rank 1, wait for rank 0 to iterate again, then add a node so three
/// stay live. (`add_node`, not `restart_node`: README, finding 2.)
fn drive_crashes(
    cluster: &Cluster,
    app: starfish::AppId,
    sh: &Shared,
    deadline: Instant,
) -> std::result::Result<Recovery, String> {
    let mut rec = Recovery::default();
    let points = kernels::crash_points(sh.plan.seed, sh.plan.total_ops(), sh.plan.crashes);
    for (k, &point) in points.iter().enumerate() {
        if !poll_until(sh, deadline, || sh.progress.load(Ordering::SeqCst) >= point) {
            return Err(format!(
                "crash {k}: progress never reached iteration {point}"
            ));
        }
        let entry = cluster
            .config()
            .apps
            .get(&app)
            .cloned()
            .ok_or("app vanished from the config")?;
        let victim = entry.placement[1];
        if victim == entry.placement[0] {
            return Err(format!("crash {k}: ranks 0 and 1 share {victim:?}"));
        }
        sh.doomed
            .store(sh.entries[1].load(Ordering::SeqCst), Ordering::SeqCst);
        let crashed_at = Instant::now();
        cluster.crash_node(victim);
        let mut bumped_at = None;
        let back = poll_until(sh, deadline, || {
            if sh.plan.traced && bumped_at.is_none() {
                let epoch = cluster.config().apps.get(&app).map(|a| a.epoch);
                if epoch.is_some_and(|e| e > entry.epoch) {
                    bumped_at = Some(Instant::now());
                }
            }
            sh.recovered.lock().expect("recovered poisoned").len() > k
        });
        if !back {
            return Err(format!(
                "crash {k} at iteration {point}: rank 0 never iterated again"
            ));
        }
        let iterating_at = sh.recovered.lock().expect("recovered poisoned")[k];
        rec.recover_s
            .push(iterating_at.duration_since(crashed_at).as_secs_f64());
        if let Some(b) = bumped_at {
            rec.epoch_bump_s
                .push(b.duration_since(crashed_at).as_secs_f64());
            rec.respawn_s
                .push(iterating_at.saturating_duration_since(b).as_secs_f64());
        }
        let t = Instant::now();
        cluster
            .add_node(0)
            .map_err(|e| format!("add_node after crash {k}: {e}"))?;
        rec.add_node_s.push(t.elapsed().as_secs_f64());
    }
    Ok(rec)
}

fn read_counters(cluster: &Cluster, ranks: u32) -> Counters {
    // Per-process registries reach the stats hub through an ordered cast
    // sent as each rank exits; give the last one a moment to land.
    let hub = cluster.stats();
    let deadline = Instant::now() + Duration::from_millis(500);
    let rank_scopes =
        |hub: &starfish_daemon::StatsHub| hub.scopes().iter().filter(|s| s.contains(".r")).count();
    while rank_scopes(&hub) < ranks as usize && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let procs = hub.merged();
    let infra = cluster.metrics().snapshot();
    let hub = cluster.trace_hub();
    Counters {
        data_msgs: infra.counter(metric::MSG_COUNT_DATA),
        data_bytes: infra.counter(metric::MSG_BYTES_DATA),
        vni_packets: infra.counter(metric::VNI_PACKETS),
        vni_dropped: infra.counter(metric::VNI_DROPPED),
        rndv_sends: procs.counter(metric::MPI_RNDV_SENDS),
        retransmits: procs.counter(metric::MPI_RETRANSMITS),
        nacks: procs.counter(metric::MPI_NACKS),
        credit_fallbacks: procs.counter(metric::MPI_CREDIT_FALLBACKS),
        ckpt_rounds: procs.counter(metric::CKPT_ROUNDS),
        ckpt_image_b: procs
            .hist(metric::CKPT_IMAGE_BYTES)
            .map_or(0.0, |h| h.mean()),
        ensemble_casts: infra.counter(metric::ENSEMBLE_CASTS),
        view_changes: infra.counter(metric::ENSEMBLE_VIEW_CHANGES),
        view_change_ms_p50: infra
            .hist(metric::ENSEMBLE_VIEW_CHANGE_NS)
            .map_or(0.0, |h| h.p50() as f64 / 1e6),
        trace_dropped: hub
            .scopes()
            .iter()
            .filter_map(|s| hub.get(s))
            .map(|r| r.dropped())
            .sum(),
        events_dropped: cluster.events().dropped(),
    }
}

/// Tear a cluster down and wait (bounded) until its threads are gone, so one
/// pass's teardown does not run inside the next pass's measurement.
///
/// The nodes are powered off at the fabric first: daemons that are merely
/// dropped negotiate their leave with peers doing the same, and now and then
/// an ensemble thread is left ticking for the rest of the process.
pub fn power_off(cluster: Cluster, baseline_threads: u64) {
    for node in cluster.config().nodes.keys() {
        cluster.fabric().crash_node(*node);
    }
    drop(cluster);
    let deadline = Instant::now() + Duration::from_secs(3);
    while procfs::threads() > baseline_threads && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Durations of the measured (post-warm-up) steps of a `(number, end)` log
/// whose numbers advance by one; steps broken by a rollback are skipped.
fn measured_steps(log: &[(u64, Instant)], first_measured: u64) -> Vec<f64> {
    log.windows(2)
        .filter(|w| w[1].0 == w[0].0 + 1 && w[1].0 >= first_measured)
        .map(|w| w[1].1.duration_since(w[0].1).as_secs_f64())
        .collect()
}

pub fn run_pass(plan: Plan) -> PassResult {
    let threads_before = procfs::threads();
    let sh = Arc::new(Shared::new(plan));
    let mut problems = Vec::new();
    crate::alloc::set_enabled(plan.traced);

    let cluster =
        build_cluster(&plan).unwrap_or_else(|e| crate::die(&format!("cluster build: {e}")));
    let built_at = Instant::now();
    let app_sh = sh.clone();
    cluster.register_app("e2e", move |ctx| rank_main(ctx, &app_sh));
    let app = cluster
        .submit("e2e", plan.kind.ranks(), SubmitOpts::default())
        .unwrap_or_else(|e| crate::die(&format!("submit: {e}")));
    let submitted_at = Instant::now();

    let deadline = Instant::now() + WATCHDOG;
    let mut recovery = Recovery::default();
    if plan.crashes > 0 {
        match drive_crashes(&cluster, app, &sh, deadline) {
            Ok(r) => recovery = r,
            Err(e) => problems.push(e),
        }
    }
    let done = problems.is_empty() && wait_done(&cluster, app, &sh, deadline);
    if let Some(f) = sh.fatal() {
        problems.push(f);
    } else if !done && problems.is_empty() {
        problems.push(format!(
            "watchdog: job not done after {} s",
            WATCHDOG.as_secs()
        ));
    }
    let counters = if done {
        read_counters(&cluster, plan.kind.ranks())
    } else {
        Counters::default()
    };
    power_off(cluster, threads_before);
    crate::alloc::set_enabled(false);

    // A hung job's ranks still hold their logs; read what was merged.
    let mut outs: Vec<RankOut> = sh
        .ranks
        .iter()
        .map(|m| std::mem::take(&mut *m.lock().expect("rank log poisoned")))
        .collect();
    // Set-up ends when the *last* rank finishes its first batch; a rank
    // that never did leaves it unmeasured.
    let setup_s = outs
        .iter()
        .map(|o| o.first_batch_done)
        .collect::<Option<Vec<Instant>>>()
        .and_then(|done| done.into_iter().max())
        .map_or(f64::NAN, |t| t.duration_since(sh.t0).as_secs_f64());
    let first_msg_s = outs
        .iter()
        .filter_map(|o| o.first_recv)
        .min()
        .map_or(f64::NAN, |t| {
            t.saturating_duration_since(built_at).as_secs_f64()
        });

    let r0 = &outs[0];
    let first_measured = WARMUP_BATCHES + 1;
    let batch_s = measured_steps(&r0.batch_end, first_measured);
    let op_s = measured_steps(&r0.op_end, WARMUP_BATCHES * plan.kind.batch_ops() + 1);
    let (job_s, vt_job_s, cpu_s, ctx_switches, allocs, threads) =
        match (r0.phase_start, r0.phase_end) {
            (Some(a), Some(b)) => (
                b.at.saturating_duration_since(a.at).as_secs_f64(),
                b.vt_s - a.vt_s,
                b.proc.cpu_s - a.proc.cpu_s,
                b.proc.ctx_switches.saturating_sub(a.proc.ctx_switches),
                (b.allocs.0 - a.allocs.0, b.allocs.1 - a.allocs.1),
                b.proc.threads,
            ),
            _ => (f64::NAN, f64::NAN, f64::NAN, 0, (0, 0), 0),
        };

    let ops_attempted = plan.total_ops();
    let (ops_failed, mut verdicts) = if done {
        verify(&plan, &outs, &counters)
    } else {
        (0, Vec::new())
    };
    problems.append(&mut verdicts);
    let ops_failed = if done {
        ops_failed
    } else {
        // Whatever did not complete counts as failed.
        let completed = match plan.kind {
            Kind::FtJacobi => sh.progress.load(Ordering::SeqCst),
            _ => r0
                .batch_end
                .last()
                .map_or(0, |(b, _)| b * plan.kind.batch_ops()),
        };
        ops_attempted - completed.min(ops_attempted)
    };

    PassResult {
        plan,
        setup_s,
        build_s: built_at.duration_since(sh.t0).as_secs_f64(),
        submit_s: submitted_at.duration_since(built_at).as_secs_f64(),
        first_msg_s,
        job_s,
        vt_job_s,
        cpu_s,
        ctx_switches,
        allocs,
        peak_rss_mib: procfs::sample().peak_rss_mib,
        threads,
        batch_s,
        op_s,
        ops_measured: plan.batches.saturating_sub(WARMUP_BATCHES) * plan.kind.batch_ops(),
        ops_attempted,
        ops_failed,
        ckpt_call_s: std::mem::take(&mut outs[0].ckpt_call_s),
        recovery,
        counters,
        span_overflow: outs.iter().map(|o| o.span_overflow).sum(),
        spans: outs
            .iter_mut()
            .map(|o| std::mem::take(&mut o.spans))
            .collect(),
        problems,
    }
}

// ---- oracles ------------------------------------------------------------------------

/// `(failed ops, reasons)` for a job that ran to completion.
fn verify(plan: &Plan, outs: &[RankOut], c: &Counters) -> (u64, Vec<String>) {
    let mut why = Vec::new();
    let total = plan.total_ops();
    let failed = match plan.kind {
        Kind::Msgrate8B | Kind::Stream1MiB => {
            let (sender, receiver) = (&outs[0], &outs[1]);
            let missing = total.saturating_sub(receiver.checked);
            let bad = receiver.failed + missing;
            if bad > 0 {
                why.push(format!(
                    "{} messages wrong or out of order, {missing} missing",
                    receiver.failed
                ));
            }
            if sender.failed > 0 {
                why.push(format!("{} batch acks wrong", sender.failed));
            }
            bad.max(sender.failed * plan.kind.batch_ops()).min(total)
        }
        Kind::SolverAllreduce => {
            let reference = kernels::solver_reference(plan.seed, total);
            // Every result feeds the next iteration, so everything after the
            // first wrong reduction is wrong too.
            let first_bad = outs[0]
                .scalars
                .iter()
                .zip(&reference.scalars)
                .position(|(got, want)| got != want)
                .unwrap_or(outs[0].scalars.len().min(reference.scalars.len()));
            let mut bad = total - first_bad as u64;
            if bad > 0 {
                why.push(format!(
                    "allreduce results diverge from the serial replay at iteration {first_bad}"
                ));
            }
            for (r, want) in reference.final_x.iter().enumerate() {
                if outs[r].final_state.as_ref() != Some(want) {
                    why.push(format!(
                        "rank {r}: final vector differs from the serial replay"
                    ));
                    bad = bad.max(1);
                }
            }
            bad
        }
        Kind::FtJacobi => {
            let reference = kernels::jacobi_reference(plan.seed, total);
            let mut bad = 0;
            for (r, want) in reference.iter().enumerate() {
                let same = outs[r].final_state.as_ref().is_some_and(|got| {
                    got.len() == want.len()
                        && got
                            .iter()
                            .zip(want)
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                });
                if !same {
                    why.push(format!(
                        "rank {r}: final grid differs from the crash-free serial replay"
                    ));
                    bad = total;
                }
            }
            bad
        }
    };
    let expect_rounds = match plan.kind {
        Kind::FtJacobi => plan.batches - 1,
        _ => 0,
    };
    if c.ckpt_rounds != expect_rounds {
        why.push(format!(
            "checkpoint.rounds = {}, expected {expect_rounds}",
            c.ckpt_rounds
        ));
    }
    if c.retransmits != 0 {
        why.push(format!(
            "mpi.retransmits = {} on a clean fabric",
            c.retransmits
        ));
    }
    // Packets addressed to a node the harness just crashed are expected drops.
    if c.vni_dropped != 0 && plan.crashes == 0 {
        why.push(format!("vni.dropped = {}", c.vni_dropped));
    }
    (failed, why)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_scale_batches_not_batch_sizes() {
        let double = Plan::sized(Kind::FtJacobi, 1, 2.0);
        assert_eq!(
            (double.batches, double.crashes, double.total_ops()),
            (960, 32, 48_000)
        );
        let recorded = Plan::sized(Kind::FtJacobi, 1, 1.0);
        assert_eq!((recorded.batches, recorded.crashes), (480, 16));
        assert_eq!(
            Plan::sized(Kind::SolverAllreduce, 1, 1.0).total_ops(),
            3_200
        );
        assert_eq!(Plan::sized(Kind::Stream1MiB, 1, 1.0).total_ops(), 9_600);
        assert_eq!(Plan::sized(Kind::Msgrate8B, 1, 1.0).total_ops(), 5_000_000);
        assert_eq!(
            Plan::sized(Kind::Stream1MiB, 1, 0.01).batches,
            42,
            "floor on measured batches"
        );
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
            assert_eq!(Plan::sized(k, 1, 1.0).setup_only().batches, 1);
        }
        assert_eq!(Kind::parse("taskfarm_fanin"), None);
    }

    #[test]
    fn measured_steps_skip_warmup_and_rollback_seams() {
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        // Batches 1..4, a rollback re-runs 3 and 4, then 5.
        let log = [
            (1, at(10)),
            (2, at(20)),
            (3, at(35)),
            (4, at(50)),
            (3, at(90)),
            (4, at(100)),
            (5, at(115)),
        ];
        let d = measured_steps(&log, 3);
        let ms: Vec<u64> = d.iter().map(|s| (s * 1e3).round() as u64).collect();
        assert_eq!(ms, vec![15, 15, 10, 15]);
    }
}
