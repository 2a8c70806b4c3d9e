//! [`Ctx`] as the transport of `starfish_mpi::collectives`: each thing the
//! library asks is the endpoint call inside this runtime's service points,
//! so a rank in a collective keeps taking part in checkpoint rounds,
//! suspension and rollback. Sends go down `Ctx`'s one send path (held while
//! a round has the rank stopped, waiting out a restarting peer), receives
//! through its one receive loop (interrupts serviced, consumed messages
//! logged).

use bytes::Bytes;
use starfish_mpi::collectives::Transport;
use starfish_mpi::{MpiEndpoint, RecvdMsg, Request};
use starfish_util::{Rank, Result, VirtualTime};

use crate::ctx::Ctx;

/// The `clock` argument of a collective run over a [`Ctx`], which reads its
/// runtime's own clock. Not exported: only this crate can drive the library
/// over a `Ctx`, always paired with the communicator the `Ctx` method chose.
pub struct OwnClock;

impl Transport for Ctx<'_> {
    type Clock = OwnClock;

    fn endpoint(&self) -> &MpiEndpoint {
        &self.rt.mpi
    }

    fn now(&self, _: &OwnClock) -> VirtualTime {
        self.rt.clock.now()
    }

    fn send(
        &mut self,
        _: &mut OwnClock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: &[u8],
    ) -> Result<()> {
        self.send_when_reachable(
            dst,
            |_| (),
            |rt| rt.mpi.send_world(&mut rt.clock, dst, context, tag, data),
        )
    }

    fn recv(&mut self, _: &mut OwnClock, context: u32, src: Rank, tag: u64) -> Result<RecvdMsg> {
        self.recv_on(context, Some(src), Some(tag), None)
    }

    fn isend(
        &mut self,
        _: &mut OwnClock,
        dst: Rank,
        context: u32,
        tag: u64,
        data: Bytes,
    ) -> Result<Request> {
        self.send_when_reachable(dst, crate::ctx::complete, |rt| {
            rt.mpi
                .isend_world_bytes(&mut rt.clock, dst, context, tag, data.clone())
        })
    }

    fn wait(&mut self, _: &mut OwnClock, req: Request) -> Result<()> {
        Ctx::wait(self, req).map(drop)
    }
}
