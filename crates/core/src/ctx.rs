//! The application programming interface (the paper's §1 "API" discussion).
//!
//! A [`Ctx`] is handed to the application closure. It offers:
//!
//! * **standard MPI downcalls** — send/recv (blocking and non-blocking),
//!   probe, and the collectives — so unmodified MPI-style programs run
//!   unchanged;
//! * **Starfish extension downcalls** — [`Ctx::safepoint`] (service point +
//!   system-initiated checkpoint opportunity), [`Ctx::checkpoint`]
//!   (user-initiated checkpoint), [`Ctx::publish`] (result reporting),
//!   [`Ctx::advance`] (model application compute time);
//! * **Starfish upcalls** — [`Ctx::take_view`] (membership-change
//!   notifications for dynamically adaptable programs) and
//!   [`Ctx::take_coord`] (coordination messages). Programs that ignore the
//!   upcalls keep the conventional MPI model (paper §3.2.2: "applications
//!   that cannot utilize view changes simply do not register listeners").
//!
//! ## Programming-model contract
//!
//! * State that must survive a checkpoint is captured via the
//!   [`Checkpointable`] passed to [`Ctx::safepoint`]/[`Ctx::checkpoint`];
//!   on restart, [`Ctx::restored`] returns the recovered value.
//! * Iteration-structured programs should call `safepoint` once per
//!   iteration; checkpoints and reconfigurations take effect there.
//! * Every `Ctx` call can return [`Error::Interrupted`]; propagate it with
//!   `?`. The runtime catches it and re-enters `run` after the rollback.
//! * Message tags at or above [`COLL_TAG_BASE`] belong to the collectives;
//!   every point-to-point call rejects them with [`Error::InvalidArg`].
//!
//! ## One collective stack
//!
//! This file holds no collective algorithm: every `Ctx` collective is a
//! call into `starfish_mpi::collectives`, which runs over the `Ctx` as its
//! transport (`crate::transport` — sends and receives with this runtime's
//! service points inside). Which algorithm runs is fixed by three constants
//! below, not by the endpoint's `CollAlgoSelector`; DESIGN.md §5c says why.

use std::time::{Duration, Instant};

use bytes::Bytes;

use starfish_checkpoint::CkptValue;
use starfish_daemon::{ProcUp, RelayKind};
use starfish_lwgroups::LwView;
use starfish_mpi::collectives as coll;
use starfish_mpi::wire::WORLD_CONTEXT;
use starfish_mpi::{
    AllgatherAlgo, AllreduceAlgo, BcastAlgo, Comm, RecvdMsg, ReduceOp, Request, COLL_TAG_BASE,
};
use starfish_util::{Error, Rank, Result, VirtualTime};

use crate::bus::{BusEvent, BusTopic};
use crate::runtime::{ProcessRuntime, HOLD_LIMIT, SERVICE_SLICE};
use crate::state::Checkpointable;
use crate::transport::OwnClock;

/// What every cluster collective runs: the trees this runtime always ran,
/// as the library's code. The selector's picks (`coll::allreduce` & co.)
/// send a different number of messages, so switching is a measured change.
/// `ReduceBcast` sends the 2(n−1) messages of reduce to rank 0 then bcast
/// in one round fewer: each half of the group reduces to its lowest rank,
/// the two half roots swap partials in one exchange, each half bcasts.
const ALLREDUCE: AllreduceAlgo = AllreduceAlgo::ReduceBcast;
const BCAST: BcastAlgo = BcastAlgo::Binomial;
const ALLGATHER: AllgatherAlgo = AllgatherAlgo::GatherBcast;

/// A membership-change notification delivered to the application.
#[derive(Debug, Clone)]
pub struct ViewNotice {
    /// The lightweight (node-level) view of this application's group.
    pub lw: LwView,
    /// Ranks that currently have a live process (derived from the placement
    /// directory).
    pub alive: Vec<Rank>,
    pub vt: VirtualTime,
}

/// The application's window onto the Starfish runtime.
pub struct Ctx<'a> {
    pub(crate) rt: &'a mut ProcessRuntime,
}

/// A sub-communicator created by [`Ctx::comm_split`] or [`Ctx::comm_dup`]
/// (MPI-2 communicator management). Owned by the application; pass it to
/// the `sub_*` collective operations.
#[derive(Debug, Clone)]
pub struct SubComm {
    pub(crate) comm: Comm,
}

impl SubComm {
    /// This process's rank within the sub-communicator.
    pub fn rank(&self) -> Rank {
        self.comm.rank()
    }

    /// Number of members.
    pub fn size(&self) -> u32 {
        self.comm.size()
    }

    /// Members as world ranks.
    pub fn members(&self) -> &[Rank] {
        self.comm.members()
    }
}

/// How long a send retries while the destination's port is not yet bound
/// (peer still spawning / restarting).
const SEND_GRACE: Duration = Duration::from_secs(20);

/// Longest a blocking receive waits between two service points (a safety
/// net: whatever needs servicing kicks the receive out of its wait).
const RECV_SLICE: Duration = Duration::from_millis(100);

/// Reject a user tag in the space reserved for collectives (bit 63 set): a
/// point-to-point message there could cross-match a collective on the
/// world context.
fn user_tag(tag: Option<u64>) -> Result<()> {
    match tag {
        Some(t) if t >= COLL_TAG_BASE => Err(Error::invalid_arg(format!(
            "tag {t:#x} is reserved for collectives (user tags stay below {COLL_TAG_BASE:#x})"
        ))),
        _ => Ok(()),
    }
}

/// A non-blocking send that was suppressed is complete at once.
pub(crate) fn complete(rt: &ProcessRuntime) -> Request {
    Request::Send { vt: rt.clock.now() }
}

/// Collective results at the `Ctx` API are owned byte vectors.
fn to_vecs(blobs: Vec<Bytes>) -> Vec<Vec<u8>> {
    blobs.iter().map(|b| b.to_vec()).collect()
}

impl Ctx<'_> {
    // ---- identity & environment -------------------------------------------

    /// This process's world rank.
    pub fn rank(&self) -> Rank {
        self.rt.rank
    }

    /// Number of ranks in the application.
    pub fn size(&self) -> u32 {
        self.rt.size
    }

    pub fn app(&self) -> starfish_util::AppId {
        self.rt.app
    }

    /// The machine type this process runs on (Table 2).
    pub fn arch(&self) -> starfish_checkpoint::Arch {
        self.rt.arch
    }

    /// Current virtual time.
    pub fn time(&self) -> VirtualTime {
        self.rt.clock.now()
    }

    /// Model `cost` of application compute (advances virtual time only).
    pub fn advance(&mut self, cost: VirtualTime) {
        self.rt.clock.advance(cost);
    }

    /// The state recovered from the checkpoint this incarnation restarted
    /// from, if any. Returns the value once; later calls give `None`.
    pub fn restored(&mut self) -> Option<CkptValue> {
        self.rt.restored.take()
    }

    /// Publish a result visible to the cluster owner (tests/benches).
    pub fn publish(&mut self, v: CkptValue) {
        self.rt.outputs.publish(self.rt.app, self.rt.rank, v);
    }

    /// Ranks with a live process right now.
    pub fn alive_ranks(&self) -> Vec<Rank> {
        let dir = self.rt.mpi.directory();
        (0..self.rt.size)
            .map(Rank)
            .filter(|r| dir.node_of(*r).is_ok())
            .collect()
    }

    // ---- point-to-point ------------------------------------------------------

    /// Blocking eager send to a world rank. If a stop-and-sync round is in
    /// progress, the send is *held* until the round commits — the rule that
    /// makes checkpoints taken inside blocking calls consistent (see
    /// `runtime::SafepointCache`).
    pub fn send(&mut self, dst: Rank, tag: u64, data: &[u8]) -> Result<()> {
        user_tag(Some(tag))?;
        self.send_when_reachable(
            dst,
            |_| (),
            |rt| {
                rt.note_first_send();
                rt.mpi
                    .send_world(&mut rt.clock, dst, WORLD_CONTEXT, tag, data)
            },
        )
    }

    /// The one send path: hold while a stop-and-sync round has this process
    /// stopped (`hold_while_stopped`); skip a send the receiver already
    /// holds (a restored incarnation re-executing it: `suppressed` is the
    /// result); else run the send `attempt`, waiting out a destination that
    /// is not reachable *yet* (rank not placed, port not bound, node down:
    /// the peer is still spawning or restarting) for up to [`SEND_GRACE`].
    /// Each failed attempt parks on the rank's wait point: the rank
    /// directory kicks it when a peer is placed or binds its port, the
    /// daemon's link when it orders a rollback. What has no notifier (a
    /// healed partition, a re-enabled node) is re-tried once per
    /// [`SERVICE_SLICE`].
    #[expect(clippy::disallowed_methods, reason = "`SEND_GRACE`, in 50 ms slices")]
    pub(crate) fn send_when_reachable<R>(
        &mut self,
        dst: Rank,
        suppressed: impl FnOnce(&ProcessRuntime) -> R,
        mut attempt: impl FnMut(&mut ProcessRuntime) -> Result<R>,
    ) -> Result<R> {
        self.rt.hold_while_stopped(None)?;
        if self.rt.cr.suppress(dst) {
            return Ok(suppressed(self.rt));
        }
        let deadline = Instant::now() + SEND_GRACE;
        loop {
            match attempt(self.rt) {
                Err(Error::NotFound(_)) | Err(Error::Unreachable(_))
                    if Instant::now() < deadline =>
                {
                    self.rt.service(None)?;
                    self.rt
                        .wait_event(deadline.min(Instant::now() + SERVICE_SLICE))?;
                }
                done => {
                    if done.is_ok() {
                        self.rt.cr.sent(dst);
                    }
                    return done;
                }
            }
        }
    }

    /// Blocking receive with wildcards (`None` = any source / any tag).
    pub fn recv(&mut self, src: Option<Rank>, tag: Option<u64>) -> Result<RecvdMsg> {
        user_tag(tag)?;
        self.recv_on(WORLD_CONTEXT, src, tag, None)
    }

    /// Blocking receive with an explicit real-time bound.
    #[expect(clippy::disallowed_methods, reason = "the caller's receive bound")]
    pub fn recv_timeout(
        &mut self,
        src: Option<Rank>,
        tag: Option<u64>,
        timeout: Duration,
    ) -> Result<RecvdMsg> {
        user_tag(tag)?;
        self.recv_on(WORLD_CONTEXT, src, tag, Some(Instant::now() + timeout))
    }

    /// The one receive loop: wait in [`RECV_SLICE`]s, servicing interrupts
    /// between them (the runtime's service points inside blocking
    /// receives), until a message matches or `deadline` passes.
    pub(crate) fn recv_on(
        &mut self,
        context: u32,
        src: Option<Rank>,
        tag: Option<u64>,
        deadline: Option<Instant>,
    ) -> Result<RecvdMsg> {
        loop {
            #[expect(clippy::disallowed_methods, reason = "the deadline, in `RECV_SLICE`s")]
            let slice = match deadline {
                Some(d) => d
                    .checked_duration_since(Instant::now())
                    .ok_or_else(|| Error::timeout("ctx recv"))?
                    .min(RECV_SLICE),
                None => RECV_SLICE,
            };
            let clock = &mut self.rt.clock;
            // A capture the last service point put off for this receive:
            // what could complete it has arrived, so one look decides
            // whether the rank goes on or is captured blocked after all.
            let got = if self.rt.cr.deferred() {
                self.rt.mpi.try_recv_world(clock, context, src, tag)
            } else {
                self.rt
                    .mpi
                    .recv_world_timeout(clock, context, src, tag, slice)
                    .map(Some)
            };
            match got {
                Ok(Some(m)) => {
                    self.note_receive(context, &m);
                    return Ok(m);
                }
                Ok(None) => {
                    let outs = self.rt.cr.recv_would_block();
                    self.rt.carry(outs, None)?;
                }
                Err(Error::Timeout(_)) | Err(Error::Interrupted(_)) => self.rt.service_in_recv()?,
                Err(e) => return Err(e),
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self, src: Option<Rank>, tag: Option<u64>) -> Result<Option<RecvdMsg>> {
        user_tag(tag)?;
        self.rt.service(None)?;
        let got = self
            .rt
            .mpi
            .try_recv_world(&mut self.rt.clock, WORLD_CONTEXT, src, tag)?;
        if let Some(m) = &got {
            self.note_receive(WORLD_CONTEXT, m);
        }
        Ok(got)
    }

    /// Non-blocking send, down the same path as [`send`](Self::send). An
    /// eager payload is on the wire when this returns; a rendezvous-sized
    /// one is parked behind its RTS and leaves when the receiver grants it
    /// — complete the request with [`wait`](Self::wait).
    pub fn isend(&mut self, dst: Rank, tag: u64, data: &[u8]) -> Result<Request> {
        user_tag(Some(tag))?;
        self.send_when_reachable(dst, complete, |rt| {
            rt.note_first_send();
            rt.mpi
                .isend_world(&mut rt.clock, dst, WORLD_CONTEXT, tag, data)
        })
    }

    /// Post a non-blocking receive; complete with [`Ctx::wait`] (which is
    /// also where a tag in the collectives' reserved space is rejected —
    /// posting cannot fail).
    pub fn irecv(&mut self, src: Option<Rank>, tag: Option<u64>) -> Request {
        self.rt.mpi.irecv_world(WORLD_CONTEXT, src, tag)
    }

    /// Complete a request (receive requests block; rendezvous sends pump
    /// the endpoint until the payload is granted and pushed).
    pub fn wait(&mut self, req: Request) -> Result<Option<RecvdMsg>> {
        match req {
            Request::Send { .. } | Request::RndvSend { .. } => {
                self.rt.mpi.wait(&mut self.rt.clock, req)
            }
            Request::Recv { context, src, tag } => {
                user_tag(tag)?;
                Ok(Some(self.recv_on(context, src, tag, None)?))
            }
        }
    }

    /// `MPI_Iprobe`.
    pub fn iprobe(&mut self, src: Option<Rank>, tag: Option<u64>) -> Result<bool> {
        user_tag(tag)?;
        self.rt.service(None)?;
        self.rt
            .mpi
            .iprobe(&mut self.rt.clock, WORLD_CONTEXT, src, tag)
    }

    /// Bookkeeping common to every consumed message: the consumption log
    /// backing cached-state checkpoints, the uncoordinated-C/R dependency
    /// log, and the fast-path-ablation bus charge.
    fn note_receive(&mut self, context: u32, m: &RecvdMsg) {
        self.rt.consumed_total += 1;
        self.rt.cache.log(
            starfish_mpi::wire::MsgHeader {
                src: m.src,
                context,
                tag: m.tag,
                epoch: self.rt.mpi.epoch(),
                interval: m.interval,
                seq: 0,
                flags: 0,
                credit: 0,
            },
            m.data.clone(),
        );
        if self.rt.bus_data_path {
            // Ablation: pretend data messages ride the object bus.
            self.rt.clock.advance(crate::bus::BUS_EVENT_COST);
        }
        if let Some(dep) = self.rt.cr.consumed(m.src, m.interval) {
            self.rt.store.log_dep(self.rt.app, dep);
        }
    }

    // ---- collectives ---------------------------------------------------------
    //
    // Each is one call into `starfish_mpi::collectives` with this `Ctx` as the
    // transport. The world communicator is the `SubComm` the runtime keeps
    // (and checkpoints) for the application: where an operation exists on
    // sub-communicators, its world form is that `sub_*` on the world.

    /// Run `f` with the world communicator checked out of the runtime (a
    /// collective needs `&mut self` as its transport and the communicator
    /// side by side). Nothing reads `rt.comm` meanwhile: a checkpoint taken
    /// inside a collective captures the `coll_seq` of the cached
    /// safepoint.
    pub(crate) fn with_world<R>(
        &mut self,
        f: impl FnOnce(&mut Self, &mut SubComm) -> Result<R>,
    ) -> Result<R> {
        let mut world = SubComm {
            comm: std::mem::take(&mut self.rt.comm),
        };
        let r = f(self, &mut world);
        self.rt.comm = world.comm;
        r
    }

    /// `MPI_Barrier` over the world communicator.
    pub fn barrier(&mut self) -> Result<()> {
        self.with_world(Self::sub_barrier)
    }

    /// `MPI_Bcast` of raw bytes from `root`.
    pub fn bcast(&mut self, root: Rank, data: Vec<u8>) -> Result<Vec<u8>> {
        self.with_world(|c, w| c.sub_bcast(w, root, data))
    }

    /// `MPI_Allreduce` over f64 element-wise.
    pub fn allreduce_f64(&mut self, data: &[f64], op: ReduceOp) -> Result<Vec<f64>> {
        self.with_world(|c, w| c.sub_allreduce_f64(w, data, op))
    }

    /// `MPI_Allreduce` over i64 element-wise.
    pub fn allreduce_i64(&mut self, data: &[i64], op: ReduceOp) -> Result<Vec<i64>> {
        self.with_world(|c, w| c.sub_allreduce_i64(w, data, op))
    }

    /// `MPI_Reduce` to `root` (Some at root, None elsewhere).
    pub fn reduce_f64(
        &mut self,
        root: Rank,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<Option<Vec<f64>>> {
        self.with_world(|c, w| coll::reduce(c, &mut w.comm, &mut OwnClock, root, data, op))
    }

    /// `MPI_Gather` of byte blobs to `root`.
    pub fn gather(&mut self, root: Rank, data: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        self.with_world(|c, w| c.sub_gather(w, root, data))
    }

    /// `MPI_Scatter` from `root`.
    pub fn scatter(&mut self, root: Rank, data: Option<Vec<Vec<u8>>>) -> Result<Vec<u8>> {
        let blobs = data.map(|v| v.into_iter().map(Bytes::from).collect());
        self.with_world(|c, w| coll::scatter(c, &mut w.comm, &mut OwnClock, root, blobs))
            .map(|b| b.to_vec())
    }

    /// `MPI_Allgather` of byte blobs.
    pub fn allgather(&mut self, data: &[u8]) -> Result<Vec<Vec<u8>>> {
        self.with_world(|c, w| c.sub_allgather(w, data))
    }

    /// `MPI_Alltoall` of per-destination blobs.
    pub fn alltoall(&mut self, send: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        self.with_world(|c, w| coll::alltoall(c, &mut w.comm, &mut OwnClock, send))
            .map(to_vecs)
    }

    /// `MPI_Scan` (inclusive prefix) over i64.
    pub fn scan_i64(&mut self, data: &[i64], op: ReduceOp) -> Result<Vec<i64>> {
        self.with_world(|c, w| coll::scan(c, &mut w.comm, &mut OwnClock, data, op))
    }

    /// `MPI_Comm_split`: ranks with the same `color` form a new
    /// communicator, ordered by `(key, world rank)`. Returns `None` for
    /// `color == None` (MPI_UNDEFINED). Collective over the world
    /// communicator.
    ///
    /// Sub-communicators are plain values owned by the application; if one
    /// must survive a checkpoint, recreate it after restore (the split is
    /// deterministic) — the world communicator's state is checkpointed
    /// automatically.
    pub fn comm_split(&mut self, color: Option<u32>, key: u32) -> Result<Option<SubComm>> {
        let split = self.with_world(|c, w| {
            coll::comm_split(c, &mut w.comm, &mut OwnClock, color, key, ALLGATHER)
        })?;
        Ok(split.map(|comm| SubComm { comm }))
    }

    /// `MPI_Comm_dup` of the world communicator: same members, isolated
    /// traffic.
    pub fn comm_dup(&mut self) -> SubComm {
        SubComm {
            comm: self.rt.comm.dup(),
        }
    }

    /// Barrier over a sub-communicator.
    pub fn sub_barrier(&mut self, sub: &mut SubComm) -> Result<()> {
        coll::barrier(self, &mut sub.comm, &mut OwnClock)
    }

    /// Broadcast over a sub-communicator (`root` is a sub-communicator rank).
    pub fn sub_bcast(&mut self, sub: &mut SubComm, root: Rank, data: Vec<u8>) -> Result<Vec<u8>> {
        coll::bcast_with(self, &mut sub.comm, &mut OwnClock, root, data.into(), BCAST)
            .map(|b| b.to_vec())
    }

    /// Allreduce over a sub-communicator.
    pub fn sub_allreduce_f64(
        &mut self,
        sub: &mut SubComm,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<Vec<f64>> {
        coll::allreduce_with(self, &mut sub.comm, &mut OwnClock, data, op, ALLREDUCE)
    }

    /// Allreduce over a sub-communicator (i64).
    pub fn sub_allreduce_i64(
        &mut self,
        sub: &mut SubComm,
        data: &[i64],
        op: ReduceOp,
    ) -> Result<Vec<i64>> {
        coll::allreduce_with(self, &mut sub.comm, &mut OwnClock, data, op, ALLREDUCE)
    }

    /// Gather over a sub-communicator.
    pub fn sub_gather(
        &mut self,
        sub: &mut SubComm,
        root: Rank,
        data: &[u8],
    ) -> Result<Option<Vec<Vec<u8>>>> {
        Ok(coll::gather(self, &mut sub.comm, &mut OwnClock, root, data)?.map(to_vecs))
    }

    /// Allgather over a sub-communicator.
    pub fn sub_allgather(&mut self, sub: &mut SubComm, data: &[u8]) -> Result<Vec<Vec<u8>>> {
        coll::allgather_with(self, &mut sub.comm, &mut OwnClock, data, ALLGATHER).map(to_vecs)
    }

    // ---- Starfish extensions ------------------------------------------------------

    /// Service point: handle daemon messages, participate in checkpoint
    /// rounds, honor suspension. `state` is the application's registered
    /// checkpointable state. Call once per iteration.
    pub fn safepoint(&mut self, state: &dyn Checkpointable) -> Result<()> {
        self.rt.safepoint(state)
    }

    /// User-initiated checkpoint (a Starfish extension downcall), collective
    /// over the application: the round coordinator (rank 0 by convention)
    /// triggers a full distributed checkpoint and blocks until it commits;
    /// every other rank blocks until its image of that round is written —
    /// or returns at once if it was already captured, blocked in a
    /// communication call, for the round this call pairs with. Returns the
    /// call's virtual duration. An independent-protocol rank checkpoints
    /// locally.
    pub fn checkpoint(&mut self, state: &dyn Checkpointable) -> Result<VirtualTime> {
        let start = self.rt.clock.now();
        self.rt.cache_safepoint(state);
        let outs = self.rt.cr.checkpoint_called();
        self.rt.carry(outs, Some(state))?;
        self.rt.service_until(
            Some(state),
            HOLD_LIMIT,
            "checkpoint round never completed",
            |rt| !rt.cr.in_call(),
        )?;
        Ok(self.rt.clock.now() - start)
    }

    /// Highest checkpoint index written locally.
    pub fn last_checkpoint_index(&self) -> u64 {
        self.rt.cr.last_index()
    }

    /// Broadcast a coordination message to the application's other ranks
    /// (via the daemons, with Ensemble's delivery guarantees — paper §2.2).
    pub fn coord_cast(&mut self, body: Bytes) -> Result<()> {
        self.rt.send_up(ProcUp::Cast {
            kind: RelayKind::Coordination,
            body,
            vt: self.rt.clock.now(),
        });
        Ok(())
    }

    /// Take the next pending coordination message, if any.
    pub fn take_coord(&mut self) -> Result<Option<(Rank, Bytes)>> {
        self.rt.service(None)?;
        Ok(self.rt.bus.take(BusTopic::Coordination).map(|ev| match ev {
            BusEvent::Coord { from, body, .. } => (from, body),
            _ => unreachable!("coordination queue holds Coord events"),
        }))
    }

    /// Take the next membership-change notification, if any (the paper's
    /// view upcall; programs that never call this keep plain MPI
    /// semantics).
    pub fn take_view(&mut self) -> Result<Option<ViewNotice>> {
        self.rt.service(None)?;
        Ok(self.rt.bus.take(BusTopic::Membership).map(|ev| match ev {
            BusEvent::View { view, vt } => ViewNotice {
                lw: view,
                alive: self.alive_ranks(),
                vt,
            },
            _ => unreachable!("membership queue holds View events"),
        }))
    }
}
