//! How the owner of a port waits on it — and the paper's polling thread
//! (§2.2.1), which here is a cost model, not an OS thread.
//!
//! "In Starfish we overcome this problem by introducing a low priority
//! thread, called the *polling thread*. This thread continuously polls the
//! network, so whenever a message arrives, the polling thread receives the
//! message and puts it in a queue of received messages, for further handling
//! by the application at a later time."
//!
//! The benefit the paper claims — receive operations avoid a kernel
//! interaction on the critical path — is modelled by the cost accounting in
//! `starfish-mpi`: with the polling thread, a receive pays only
//! [`LayerCosts::poll`](crate::models::LayerCosts::poll); without it
//! (ablation), every read of the port pays an extra simulated system call.
//! Either way the rank reads its own [`Port`](crate::fabric::Port): an OS
//! thread copying packets into a second queue that nobody reads before the
//! rank does would only add a wake-up per packet.
//!
//! A port's owner with other inputs parks on the port and is woken by a
//! [`Kick`]; whoever feeds those inputs queues through a [`KickSender`].

use std::sync::Arc;

use crossbeam::channel::{SendError, Sender};

use crate::inbox::Inbox;

/// Wakes the owner of one port out of its waiting batch receive
/// ([`Port::recv_batch`](crate::fabric::Port::recv_batch)) without queueing
/// a packet: a flag on the port's [`Inbox`]. Cheap to clone and `Send`: the
/// owner hands one, inside a [`KickSender`], to whoever queues work for it
/// (a rank also gives one to the application's rank directory).
#[derive(Clone)]
pub struct Kick(Arc<Inbox>);

impl Kick {
    pub(crate) fn inbox(inbox: Arc<Inbox>) -> Kick {
        Kick(inbox)
    }

    pub fn kick(&self) {
        self.0.kick();
    }

    /// Do both handles wake the same port?
    pub fn same(&self, other: &Kick) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

/// The sending half of a queue whose owner is parked on a [`Kick`]able wait
/// point, not on the queue: *queue, then kick*. The owner drains the queue
/// with `try_recv` on every pass of its loop, so a kick that lands before
/// it parks is not lost and one that lands while it is busy costs an empty
/// pass. Dropping it kicks once more, after its end of the channel is gone,
/// so a parked owner finds the disconnect (share it in an `Arc`: the
/// hang-up is then the last holder's).
pub struct KickSender<T> {
    tx: Sender<T>, // dropped before `last`: fields drop in this order
    last: KickOnDrop,
}

struct KickOnDrop(Kick);

impl Drop for KickOnDrop {
    fn drop(&mut self) {
        self.0.kick();
    }
}

impl<T> KickSender<T> {
    pub fn new(tx: Sender<T>, kick: Kick) -> Self {
        let last = KickOnDrop(kick);
        KickSender { tx, last }
    }

    /// Fails only when the owner is gone (nobody is kicked then).
    pub fn send(&self, msg: T) -> std::result::Result<(), SendError<T>> {
        self.tx.send(msg)?;
        self.last.0.kick();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::{Fabric, Port};
    use crate::models::{Ideal, LayerCosts};
    use crate::packet::{Addr, Packet, PacketKind, PortId};
    use bytes::Bytes;
    use starfish_util::{Error, NodeId, Result};
    use std::collections::VecDeque;
    use std::time::Duration;

    fn setup() -> (Fabric, Addr, Addr) {
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        f.add_node(NodeId(0));
        f.add_node(NodeId(1));
        (
            f,
            Addr::new(NodeId(0), PortId(1)),
            Addr::new(NodeId(1), PortId(1)),
        )
    }

    fn pkt(src: Addr, dst: Addr, tag: u64) -> Packet {
        Packet::new(src, dst, PacketKind::Data, tag, Bytes::from_static(b"x"))
    }

    /// The owner's wait: up to 8 packets into a fresh buffer, their tags.
    fn wait(port: &Port, limit: Duration) -> Result<Vec<u64>> {
        let mut buf = VecDeque::new();
        port.recv_batch(&mut buf, 8, Some(limit))?;
        Ok(buf.iter().map(|p| p.tag).collect())
    }

    #[test]
    fn wait_batch_wakes_on_push() {
        let (f, a, b) = setup();
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        let h = std::thread::spawn(move || wait(&pb, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        f.send(pkt(a, b, 7)).unwrap();
        assert_eq!(h.join().unwrap().unwrap(), [7]);
    }

    #[test]
    fn close_wakes_waiters_with_error() {
        let (f, _, b) = setup();
        let pb = f.bind(b).unwrap();
        let h = std::thread::spawn(move || wait(&pb, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        f.crash_node(NodeId(1));
        assert!(matches!(h.join().unwrap(), Err(Error::Closed(_))));
    }

    /// A batch that fits an empty buffer is handed over whole, in order (the
    /// buffers trade places); a longer queue gives `max` at a time, and a
    /// buffer the owner has not emptied yet keeps what it holds.
    #[test]
    fn batches_leave_in_order_whole_or_max_at_a_time() {
        let (f, a, b) = setup();
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        let mut buf = VecDeque::new();
        let pop = |max: usize, buf: &mut VecDeque<Packet>| {
            pb.recv_batch(buf, max, None).unwrap();
            buf.iter().map(|p| p.tag).collect::<Vec<_>>()
        };
        for t in 0..5 {
            f.send(pkt(a, b, t)).unwrap();
        }
        assert_eq!(pop(2, &mut buf), [0, 1]);
        assert_eq!(pop(2, &mut buf), [0, 1, 2, 3]);
        buf.clear();
        assert_eq!(pop(8, &mut buf), [4]);
        buf.clear();
        assert!(pop(8, &mut buf).is_empty());
    }

    #[test]
    fn kick_interrupts_a_batch_wait_once() {
        let (f, _, b) = setup();
        let port = f.bind(b).unwrap();
        let kick = port.kicker();
        let waiter = std::thread::spawn(move || {
            let woken = wait(&port, Duration::from_secs(30));
            // Consumed by the wait it woke: the next one runs to its limit.
            (woken, wait(&port, Duration::from_millis(10)))
        });
        kick.kick();
        let (woken, idle) = waiter.join().unwrap();
        assert!(matches!(woken, Err(Error::Interrupted(_))), "{woken:?}");
        assert!(idle.unwrap().is_empty());
    }

    /// Packets win over a pending kick without clearing it: a kick is never
    /// lost to a packet.
    #[test]
    fn queued_packets_win_over_a_pending_kick() {
        let (f, a, b) = setup();
        let _pa = f.bind(a).unwrap();
        let port = f.bind(b).unwrap();
        f.send(pkt(a, b, 1)).unwrap();
        port.kicker().kick();
        assert_eq!(wait(&port, Duration::from_secs(30)).unwrap(), [1]);
        let kicked = wait(&port, Duration::from_secs(30));
        assert!(matches!(kicked, Err(Error::Interrupted(_))), "{kicked:?}");
    }

    /// Only a wait takes a kick: a look leaves it pending.
    #[test]
    fn port_kick_interrupts_a_direct_batch_receive() {
        let (f, _, b) = setup();
        let port = f.bind(b).unwrap();
        let other = f.bind(Addr::new(NodeId(1), PortId(2))).unwrap();
        let kick = port.kicker();
        assert!(kick.same(&port.kicker()));
        assert!(!kick.same(&other.kicker()));
        kick.kick();
        port.recv_batch(&mut VecDeque::new(), 8, None).unwrap();
        let got = wait(&port, Duration::from_secs(30));
        assert!(matches!(got, Err(Error::Interrupted(_))), "{got:?}");
        assert!(wait(&port, Duration::from_millis(10)).unwrap().is_empty());
    }

    /// Queue, then kick; the hang-up is a kick too, delivered after the
    /// sender's end of the channel is gone. An owner that drains its queue
    /// on every wake therefore never needs a timeout, however the kicks
    /// coalesce.
    #[test]
    fn kick_sender_queues_then_kicks_and_kicks_on_drop() {
        use crossbeam::channel::{self, TryRecvError};
        let (f, _, b) = setup();
        let port = f.bind(b).unwrap();
        let (tx, rx) = channel::unbounded();
        let tx = KickSender::new(tx, port.kicker());
        let owner = std::thread::spawn(move || {
            let mut got = Vec::new();
            loop {
                let woken = wait(&port, Duration::from_secs(30));
                assert!(matches!(woken, Err(Error::Interrupted(_))), "{woken:?}");
                loop {
                    match rx.try_recv() {
                        Ok(v) => got.push(v),
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => return got,
                    }
                }
            }
        });
        tx.send(7).unwrap();
        tx.send(8).unwrap();
        drop(tx);
        assert_eq!(owner.join().unwrap(), vec![7, 8]);
    }
}
