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

use std::time::{Duration, Instant};

use bytes::Bytes;

use starfish_checkpoint::CkptValue;
use starfish_daemon::{CkptProto, ProcUp, RelayKind};
use starfish_lwgroups::LwView;
use starfish_mpi::collectives as coll;
use starfish_mpi::wire::WORLD_CONTEXT;
use starfish_mpi::{Comm, RecvdMsg, ReduceOp, Request};
use starfish_util::{Error, Rank, Result, VirtualTime};

use crate::bus::{BusEvent, BusTopic};
use crate::runtime::{CrEngine, ProcessRuntime, HOLD_LIMIT, SERVICE_SLICE};
use crate::state::Checkpointable;

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
    comm: Comm,
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
    /// `ProcessRuntime::cached_state`).
    pub fn send(&mut self, dst: Rank, tag: u64, data: &[u8]) -> Result<()> {
        self.hold_while_stopped()?;
        self.rt.note_first_send();
        self.send_when_reachable(WORLD_CONTEXT, dst, tag, data)
    }

    /// Send, waiting out a destination that is not reachable *yet* (rank
    /// not placed, port not bound, node down: the peer is still spawning or
    /// restarting) for up to [`SEND_GRACE`]. Each failed attempt parks on
    /// the rank's wait point: the rank directory kicks it when a peer is
    /// placed or binds its port, the forwarder when the daemon orders a
    /// rollback. What has no notifier (a healed partition, a re-enabled
    /// node) is re-tried once per [`SERVICE_SLICE`].
    fn send_when_reachable(
        &mut self,
        context: u32,
        dst: Rank,
        tag: u64,
        data: &[u8],
    ) -> Result<()> {
        let deadline = Instant::now() + SEND_GRACE;
        loop {
            match self
                .rt
                .mpi
                .send_world(&mut self.rt.clock, dst, context, tag, data)
            {
                Ok(()) => return Ok(()),
                Err(Error::NotFound(_)) | Err(Error::Unreachable(_))
                    if Instant::now() < deadline =>
                {
                    self.rt.service(None)?;
                    self.rt
                        .wait_event(deadline.min(Instant::now() + SERVICE_SLICE))?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Blocking receive with wildcards (`None` = any source / any tag).
    pub fn recv(&mut self, src: Option<Rank>, tag: Option<u64>) -> Result<RecvdMsg> {
        self.recv_on(WORLD_CONTEXT, src, tag)
    }

    pub(crate) fn recv_on(
        &mut self,
        context: u32,
        src: Option<Rank>,
        tag: Option<u64>,
    ) -> Result<RecvdMsg> {
        loop {
            match self.rt.mpi.recv_world_timeout(
                &mut self.rt.clock,
                context,
                src,
                tag,
                Duration::from_millis(100),
            ) {
                Ok(m) => {
                    self.note_receive(context, &m);
                    return Ok(m);
                }
                Err(Error::Timeout(_)) | Err(Error::Interrupted(_)) => {
                    // Service interrupts, then keep waiting (the runtime's
                    // service points inside blocking receives).
                    self.rt.service(None)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Blocking receive with an explicit real-time bound.
    pub fn recv_timeout(
        &mut self,
        src: Option<Rank>,
        tag: Option<u64>,
        timeout: Duration,
    ) -> Result<RecvdMsg> {
        let deadline = Instant::now() + timeout;
        loop {
            let remain = deadline
                .checked_duration_since(Instant::now())
                .ok_or_else(|| Error::timeout("ctx recv"))?;
            match self.rt.mpi.recv_world_timeout(
                &mut self.rt.clock,
                WORLD_CONTEXT,
                src,
                tag,
                remain.min(Duration::from_millis(100)),
            ) {
                Ok(m) => {
                    self.note_receive(WORLD_CONTEXT, &m);
                    return Ok(m);
                }
                Err(Error::Timeout(_)) | Err(Error::Interrupted(_)) => {
                    self.rt.service(None)?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&mut self, src: Option<Rank>, tag: Option<u64>) -> Result<Option<RecvdMsg>> {
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

    /// Non-blocking send (eager: completes immediately).
    pub fn isend(&mut self, dst: Rank, tag: u64, data: &[u8]) -> Result<Request> {
        self.send(dst, tag, data)?;
        Ok(Request::Send {
            vt: self.rt.clock.now(),
        })
    }

    /// Post a non-blocking receive; complete with [`Ctx::wait`].
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
            Request::Recv { context, src, tag } => Ok(Some(self.recv_on(context, src, tag)?)),
        }
    }

    /// `MPI_Iprobe`.
    pub fn iprobe(&mut self, src: Option<Rank>, tag: Option<u64>) -> Result<bool> {
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
        self.rt.consumed_log.push((
            starfish_mpi::wire::MsgHeader {
                src: m.src,
                context,
                tag: m.tag,
                epoch: self.rt.mpi.epoch(),
                interval: m.interval,
                seq: 0,
                flags: 0,
            },
            m.data.clone(),
        ));
        if self.rt.bus_data_path {
            // Ablation: pretend data messages ride the object bus.
            self.rt.clock.advance(crate::bus::BUS_EVENT_COST);
        }
        if let CrEngine::Indep(e) = &mut self.rt.cr.engine {
            let dep = e.on_data_received(m.src, m.interval);
            self.rt.store.log_dep(self.rt.app, dep);
        }
    }

    // ---- collectives -----------------------------------------------------------
    //
    // Implemented over the serviceable ctx primitives (not the raw endpoint
    // collectives) so that a rank blocked inside a collective still
    // participates in checkpoint rounds, suspension and rollback. The
    // algorithms mirror `starfish_mpi::collectives` (binomial trees,
    // dissemination barrier); tags live in the same reserved space. Every
    // operation exists on the world communicator and on application-created
    // sub-communicators ([`SubComm`], from [`Ctx::comm_split`]/[`Ctx::comm_dup`]).

    /// Hold here while a stop-and-sync round has this process stopped.
    fn hold_while_stopped(&mut self) -> Result<()> {
        self.rt
            .service_until(None, HOLD_LIMIT, "quiesce never completed", |rt| {
                !rt.cr.stopped
            })
    }

    fn csend(&mut self, context: u32, dst_world: Rank, tag: u64, data: &[u8]) -> Result<()> {
        self.hold_while_stopped()?;
        self.send_when_reachable(context, dst_world, tag, data)
    }

    fn crecv(&mut self, context: u32, src_world: Rank, tag: u64) -> Result<RecvdMsg> {
        self.recv_on(context, Some(src_world), Some(tag))
    }

    /// Run `f` with the world communicator checked out (only its collective
    /// sequence number mutates).
    fn with_world<R>(&mut self, f: impl FnOnce(&mut Self, &mut Comm) -> Result<R>) -> Result<R> {
        let mut comm = self.rt.comm.clone();
        let r = f(self, &mut comm);
        self.rt.comm.coll_seq = comm.coll_seq;
        r
    }

    fn next_coll_tag(comm: &mut Comm, op: u8) -> u64 {
        let seq = comm.coll_seq;
        comm.coll_seq += 1;
        (1u64 << 63) | ((op as u64) << 48) | (seq & 0xFFFF_FFFF_FFFF)
    }

    fn barrier_in(&mut self, comm: &mut Comm) -> Result<()> {
        let n = comm.size() as usize;
        let me = comm.rank().index();
        let context = comm.context();
        let tag_base = Self::next_coll_tag(comm, 1);
        let mut k = 1usize;
        let mut round = 0u64;
        while k < n {
            let to = comm.world_rank(Rank(((me + k) % n) as u32))?;
            let from = comm.world_rank(Rank(((me + n - k) % n) as u32))?;
            self.csend(context, to, tag_base + (round << 32), &[])?;
            self.crecv(context, from, tag_base + (round << 32))?;
            k <<= 1;
            round += 1;
        }
        Ok(())
    }

    fn bcast_in(&mut self, comm: &mut Comm, root: Rank, data: Vec<u8>) -> Result<Vec<u8>> {
        let n = comm.size() as usize;
        let me = comm.rank().index();
        let context = comm.context();
        let tag = Self::next_coll_tag(comm, 2);
        if n == 1 {
            return Ok(data);
        }
        let vr = (me + n - root.index()) % n;
        let mut buf = data;
        let mut mask = 1usize;
        while mask < n {
            if vr & mask != 0 {
                let src = comm.world_rank(Rank(((me + n - mask) % n) as u32))?;
                buf = self.crecv(context, src, tag)?.data.to_vec();
                break;
            }
            mask <<= 1;
        }
        mask >>= 1;
        while mask > 0 {
            if vr + mask < n {
                let dst = comm.world_rank(Rank(((me + mask) % n) as u32))?;
                self.csend(context, dst, tag, &buf)?;
            }
            mask >>= 1;
        }
        Ok(buf)
    }

    fn reduce_in<T: coll::PodNum>(
        &mut self,
        comm: &mut Comm,
        root: Rank,
        data: &[T],
        op: ReduceOp,
    ) -> Result<Option<Vec<T>>> {
        let n = comm.size() as usize;
        let me = comm.rank().index();
        let context = comm.context();
        let tag = Self::next_coll_tag(comm, 3);
        let vr = (me + n - root.index()) % n;
        let mut acc: Vec<T> = data.to_vec();
        let mut mask = 1usize;
        while mask < n {
            if vr & mask == 0 {
                let peer_vr = vr | mask;
                if peer_vr < n {
                    let src = comm.world_rank(Rank(((peer_vr + root.index()) % n) as u32))?;
                    let m = self.crecv(context, src, tag)?;
                    let other: Vec<T> = coll::decode_slice(&m.data)?;
                    if other.len() != acc.len() {
                        return Err(Error::invalid_arg("reduce buffers differ in length"));
                    }
                    for (a, b) in acc.iter_mut().zip(other) {
                        *a = T::reduce(op, *a, b);
                    }
                }
            } else {
                let peer_vr = vr ^ mask;
                let dst = comm.world_rank(Rank(((peer_vr + root.index()) % n) as u32))?;
                self.csend(context, dst, tag, &coll::encode_slice(&acc))?;
                return Ok(None);
            }
            mask <<= 1;
        }
        Ok(Some(acc))
    }

    fn allreduce_in<T: coll::PodNum>(
        &mut self,
        comm: &mut Comm,
        data: &[T],
        op: ReduceOp,
    ) -> Result<Vec<T>> {
        let reduced = self.reduce_in(comm, Rank(0), data, op)?;
        let bytes = self.bcast_in(
            comm,
            Rank(0),
            reduced.map(|v| coll::encode_slice(&v)).unwrap_or_default(),
        )?;
        coll::decode_slice(&bytes)
    }

    fn gather_in(
        &mut self,
        comm: &mut Comm,
        root: Rank,
        data: &[u8],
    ) -> Result<Option<Vec<Vec<u8>>>> {
        let n = comm.size() as usize;
        let me = comm.rank();
        let context = comm.context();
        let tag = Self::next_coll_tag(comm, 4);
        if me == root {
            let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
            out[me.index()] = data.to_vec();
            for (i, slot) in out.iter_mut().enumerate() {
                if i == me.index() {
                    continue;
                }
                let src = comm.world_rank(Rank(i as u32))?;
                let m = self.crecv(context, src, tag)?;
                *slot = m.data.to_vec();
            }
            Ok(Some(out))
        } else {
            let dst = comm.world_rank(root)?;
            self.csend(context, dst, tag, data)?;
            Ok(None)
        }
    }

    fn scatter_in(
        &mut self,
        comm: &mut Comm,
        root: Rank,
        data: Option<Vec<Vec<u8>>>,
    ) -> Result<Vec<u8>> {
        let n = comm.size() as usize;
        let me = comm.rank();
        let context = comm.context();
        let tag = Self::next_coll_tag(comm, 5);
        if me == root {
            let blobs =
                data.ok_or_else(|| Error::invalid_arg("scatter root must supply the blobs"))?;
            if blobs.len() != n {
                return Err(Error::invalid_arg(format!(
                    "scatter needs {n} blobs, got {}",
                    blobs.len()
                )));
            }
            for (i, blob) in blobs.iter().enumerate() {
                if i != me.index() {
                    let dst = comm.world_rank(Rank(i as u32))?;
                    self.csend(context, dst, tag, blob)?;
                }
            }
            Ok(blobs[me.index()].clone())
        } else {
            let src = comm.world_rank(root)?;
            Ok(self.crecv(context, src, tag)?.data.to_vec())
        }
    }

    fn allgather_in(&mut self, comm: &mut Comm, data: &[u8]) -> Result<Vec<Vec<u8>>> {
        let gathered = self.gather_in(comm, Rank(0), data)?;
        let framed = gathered.map(|blobs| {
            let mut out = Vec::new();
            out.extend_from_slice(&(blobs.len() as u32).to_be_bytes());
            for b in &blobs {
                out.extend_from_slice(&(b.len() as u32).to_be_bytes());
                out.extend_from_slice(b);
            }
            out
        });
        let bytes = self.bcast_in(comm, Rank(0), framed.unwrap_or_default())?;
        let mut out = Vec::new();
        if bytes.len() < 4 {
            return Err(Error::codec("allgather frame too short"));
        }
        let count = u32::from_be_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let mut pos = 4usize;
        for _ in 0..count {
            if pos + 4 > bytes.len() {
                return Err(Error::codec("allgather frame truncated"));
            }
            let len = u32::from_be_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 4;
            if pos + len > bytes.len() {
                return Err(Error::codec("allgather frame truncated"));
            }
            out.push(bytes[pos..pos + len].to_vec());
            pos += len;
        }
        Ok(out)
    }

    fn alltoall_in(&mut self, comm: &mut Comm, send: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        let n = comm.size() as usize;
        let me = comm.rank().index();
        let context = comm.context();
        if send.len() != n {
            return Err(Error::invalid_arg(format!(
                "alltoall needs {n} blobs, got {}",
                send.len()
            )));
        }
        let tag = Self::next_coll_tag(comm, 7);
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
        out[me] = send[me].clone();
        for r in 1..n {
            let dst_i = (me + r) % n;
            let src_i = (me + n - r) % n;
            let dst = comm.world_rank(Rank(dst_i as u32))?;
            let src = comm.world_rank(Rank(src_i as u32))?;
            self.csend(context, dst, tag, &send[dst_i])?;
            let m = self.crecv(context, src, tag)?;
            out[src_i] = m.data.to_vec();
        }
        Ok(out)
    }

    fn scan_in(&mut self, comm: &mut Comm, data: &[i64], op: ReduceOp) -> Result<Vec<i64>> {
        let n = comm.size() as usize;
        let me = comm.rank().index();
        let context = comm.context();
        let tag = Self::next_coll_tag(comm, 8);
        let mut acc: Vec<i64> = data.to_vec();
        if me > 0 {
            let src = comm.world_rank(Rank((me - 1) as u32))?;
            let m = self.crecv(context, src, tag)?;
            let prev: Vec<i64> = coll::decode_slice(&m.data)?;
            for (a, p) in acc.iter_mut().zip(prev) {
                *a = <i64 as coll::PodNum>::reduce(op, p, *a);
            }
        }
        if me + 1 < n {
            let dst = comm.world_rank(Rank((me + 1) as u32))?;
            self.csend(context, dst, tag, &coll::encode_slice(&acc))?;
        }
        Ok(acc)
    }

    // -- world-communicator API --------------------------------------------------

    /// `MPI_Barrier` over the world communicator.
    pub fn barrier(&mut self) -> Result<()> {
        self.with_world(|c, comm| c.barrier_in(comm))
    }

    /// `MPI_Bcast` of raw bytes from `root`.
    pub fn bcast(&mut self, root: Rank, data: Vec<u8>) -> Result<Vec<u8>> {
        self.with_world(|c, comm| c.bcast_in(comm, root, data))
    }

    /// `MPI_Allreduce` over f64 element-wise.
    pub fn allreduce_f64(&mut self, data: &[f64], op: ReduceOp) -> Result<Vec<f64>> {
        self.with_world(|c, comm| c.allreduce_in(comm, data, op))
    }

    /// `MPI_Allreduce` over i64 element-wise.
    pub fn allreduce_i64(&mut self, data: &[i64], op: ReduceOp) -> Result<Vec<i64>> {
        self.with_world(|c, comm| c.allreduce_in(comm, data, op))
    }

    /// `MPI_Reduce` to `root` (Some at root, None elsewhere).
    pub fn reduce_f64(
        &mut self,
        root: Rank,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<Option<Vec<f64>>> {
        self.with_world(|c, comm| c.reduce_in(comm, root, data, op))
    }

    /// `MPI_Gather` of byte blobs to `root`.
    pub fn gather(&mut self, root: Rank, data: &[u8]) -> Result<Option<Vec<Vec<u8>>>> {
        self.with_world(|c, comm| c.gather_in(comm, root, data))
    }

    /// `MPI_Scatter` from `root`.
    pub fn scatter(&mut self, root: Rank, data: Option<Vec<Vec<u8>>>) -> Result<Vec<u8>> {
        self.with_world(|c, comm| c.scatter_in(comm, root, data))
    }

    /// `MPI_Allgather` of byte blobs.
    pub fn allgather(&mut self, data: &[u8]) -> Result<Vec<Vec<u8>>> {
        self.with_world(|c, comm| c.allgather_in(comm, data))
    }

    /// `MPI_Alltoall` of per-destination blobs.
    pub fn alltoall(&mut self, send: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        self.with_world(|c, comm| c.alltoall_in(comm, send))
    }

    /// `MPI_Scan` (inclusive prefix) over i64.
    pub fn scan_i64(&mut self, data: &[i64], op: ReduceOp) -> Result<Vec<i64>> {
        self.with_world(|c, comm| c.scan_in(comm, data, op))
    }

    // -- sub-communicators (MPI-2 comm management) --------------------------------

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
        let mut mine = Vec::with_capacity(8);
        mine.extend_from_slice(&color.unwrap_or(u32::MAX).to_be_bytes());
        mine.extend_from_slice(&key.to_be_bytes());
        let all = self.allgather(&mine)?;
        let Some(my_color) = color else {
            return Ok(None);
        };
        let mut members: Vec<(u32, Rank)> = Vec::new();
        for (i, blob) in all.iter().enumerate() {
            if blob.len() != 8 {
                return Err(Error::codec("bad split blob"));
            }
            let c = u32::from_be_bytes(blob[0..4].try_into().unwrap());
            let k = u32::from_be_bytes(blob[4..8].try_into().unwrap());
            if c == my_color {
                members.push((k, Rank(i as u32)));
            }
        }
        members.sort();
        let world_members: Vec<Rank> = members.into_iter().map(|(_, r)| r).collect();
        let ctxid = starfish_mpi::comm::derive_context(
            self.rt.comm.context(),
            my_color.wrapping_mul(2654435761).wrapping_add(9),
        );
        Ok(Some(SubComm {
            comm: Comm::from_members(ctxid, world_members, self.rt.rank)?,
        }))
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
        self.barrier_in(&mut sub.comm)
    }

    /// Broadcast over a sub-communicator (`root` is a sub-communicator rank).
    pub fn sub_bcast(&mut self, sub: &mut SubComm, root: Rank, data: Vec<u8>) -> Result<Vec<u8>> {
        self.bcast_in(&mut sub.comm, root, data)
    }

    /// Allreduce over a sub-communicator.
    pub fn sub_allreduce_f64(
        &mut self,
        sub: &mut SubComm,
        data: &[f64],
        op: ReduceOp,
    ) -> Result<Vec<f64>> {
        self.allreduce_in(&mut sub.comm, data, op)
    }

    /// Allreduce over a sub-communicator (i64).
    pub fn sub_allreduce_i64(
        &mut self,
        sub: &mut SubComm,
        data: &[i64],
        op: ReduceOp,
    ) -> Result<Vec<i64>> {
        self.allreduce_in(&mut sub.comm, data, op)
    }

    /// Gather over a sub-communicator.
    pub fn sub_gather(
        &mut self,
        sub: &mut SubComm,
        root: Rank,
        data: &[u8],
    ) -> Result<Option<Vec<Vec<u8>>>> {
        self.gather_in(&mut sub.comm, root, data)
    }

    /// Allgather over a sub-communicator.
    pub fn sub_allgather(&mut self, sub: &mut SubComm, data: &[u8]) -> Result<Vec<Vec<u8>>> {
        self.allgather_in(&mut sub.comm, data)
    }

    // ---- Starfish extensions ------------------------------------------------------

    /// Service point: handle daemon messages, participate in checkpoint
    /// rounds, honor suspension. `state` is the application's registered
    /// checkpointable state. Call once per iteration.
    pub fn safepoint(&mut self, state: &dyn Checkpointable) -> Result<()> {
        self.rt.safepoint(state)
    }

    /// User-initiated checkpoint (a Starfish extension downcall): the round
    /// coordinator (rank 0 by convention) triggers a full distributed
    /// checkpoint and blocks until it commits, returning the round's virtual
    /// duration. Other ranks participate through their safepoints. On other
    /// ranks, this behaves like [`Ctx::safepoint`] and returns zero.
    pub fn checkpoint(&mut self, state: &dyn Checkpointable) -> Result<VirtualTime> {
        let start = self.rt.clock.now();
        let is_initiator = match &self.rt.cr.engine {
            CrEngine::Sync(e) => e.is_coordinator(),
            CrEngine::Cl(e) => e.is_initiator(),
            CrEngine::Indep(_) => true, // no coordination: everyone local
        };
        if !is_initiator {
            // Collective participation: stay at this service point until a
            // round has been completed locally (image written and, for
            // stop-and-sync, the resume received).
            self.rt.cached_state = Some((state.save(), self.rt.comm.coll_seq));
            let before = self.rt.cr.last_index;
            // Exit as soon as this round's image landed; if the *next* round
            // has already stopped us, the following context call completes
            // it via `hold_while_stopped`.
            self.rt.service_until(
                Some(state),
                HOLD_LIMIT,
                "checkpoint round never reached this rank",
                |rt| rt.cr.last_index != before,
            )?;
            return Ok(self.rt.clock.now() - start);
        }
        self.rt.cached_state = Some((state.save(), self.rt.comm.coll_seq));
        let next = self.rt.cr.last_index + 1;
        let committed_before = self.rt.cr.committed;
        let effects = match &mut self.rt.cr.engine {
            CrEngine::Sync(e) => e.start(next),
            CrEngine::Cl(e) => e.start(next),
            CrEngine::Indep(e) => e.take_checkpoint(),
        };
        {
            let mut s: Option<&dyn Checkpointable> = Some(state);
            self.rt.run_effects(effects, &mut s)?;
        }
        // Independent: no distributed phase; the local write is it.
        if matches!(self.rt.cr.engine, CrEngine::Indep(_)) {
            return Ok(self.rt.clock.now() - start);
        }
        // Wait until the round commits (the engine reports Committed).
        self.rt.service_until(
            Some(state),
            HOLD_LIMIT,
            "checkpoint round never committed",
            |rt| rt.cr.committed != committed_before,
        )?;
        Ok(self.rt.clock.now() - start)
    }

    /// Number of committed checkpoint rounds this process coordinated.
    pub fn committed_rounds(&self) -> u64 {
        self.rt.cr.committed
    }

    /// Highest checkpoint index written locally.
    pub fn last_checkpoint_index(&self) -> u64 {
        self.rt.cr.last_index
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
                alive: (0..self.rt.size)
                    .map(Rank)
                    .filter(|r| self.rt.mpi.directory().node_of(*r).is_ok())
                    .collect(),
                vt,
            },
            _ => unreachable!("membership queue holds View events"),
        }))
    }

    /// The distributed C/R protocol this application runs.
    pub fn ckpt_proto(&self) -> CkptProto {
        self.rt.entry.spec.proto
    }
}
