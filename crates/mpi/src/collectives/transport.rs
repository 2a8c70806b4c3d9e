//! The seam under the collective algorithms: what they ask of whatever
//! carries their messages. Every algorithm in this module is generic over
//! [`Transport`], so its two implementors run the same code: a bare
//! [`MpiEndpoint`] (benches, chaos banks, tests), which forwards to its own
//! methods, and the cluster runtime's `starfish::Ctx`, which wraps the same
//! endpoint calls in its checkpoint/restart service points.

use bytes::Bytes;
use starfish_util::{Rank, Result, VClock, VirtualTime};

use crate::endpoint::{MpiEndpoint, RecvdMsg, Request};

pub trait Transport {
    /// The `clock` argument of every collective: the caller's [`VClock`]
    /// for a bare endpoint, a token for a transport that owns its clock.
    type Clock;

    /// The endpoint underneath, for what the algorithms only read: chunk
    /// size, selector, metrics registry, flight recorder.
    fn endpoint(&self) -> &MpiEndpoint;

    fn now(&self, clock: &Self::Clock) -> VirtualTime;

    /// Blocking send to world rank `dst`.
    fn send(
        &mut self,
        clock: &mut Self::Clock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: &[u8],
    ) -> Result<()>;

    /// Blocking receive of exactly (`src`, `tag`) on `context`.
    fn recv(
        &mut self,
        clock: &mut Self::Clock,
        context: u32,
        src: Rank,
        tag: u64,
    ) -> Result<RecvdMsg>;

    /// Non-blocking zero-copy send; retire the request with
    /// [`wait`](Self::wait).
    fn isend(
        &mut self,
        clock: &mut Self::Clock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: Bytes,
    ) -> Result<Request>;

    /// Complete a send request from [`isend`](Self::isend).
    fn wait(&mut self, clock: &mut Self::Clock, req: Request) -> Result<()>;
}

impl Transport for MpiEndpoint {
    type Clock = VClock;

    fn endpoint(&self) -> &MpiEndpoint {
        self
    }

    fn now(&self, clock: &VClock) -> VirtualTime {
        clock.now()
    }

    fn send(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: &[u8],
    ) -> Result<()> {
        self.send_world(clock, dst, context, tag, data)
    }

    fn recv(&mut self, clock: &mut VClock, context: u32, src: Rank, tag: u64) -> Result<RecvdMsg> {
        self.recv_world(clock, context, Some(src), Some(tag))
    }

    fn isend(
        &mut self,
        clock: &mut VClock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: Bytes,
    ) -> Result<Request> {
        self.isend_world_bytes(clock, dst, context, tag, data)
    }

    fn wait(&mut self, clock: &mut VClock, req: Request) -> Result<()> {
        MpiEndpoint::wait(self, clock, req).map(drop)
    }
}
