//! The polling thread and the received-messages queue (paper §2.2.1).
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
//! [`LayerCosts::poll`](crate::models::LayerCosts::poll); without it (ablation), every receive pays an extra
//! simulated system-call cost. The thread itself is real: it owns the port
//! and moves packets concurrently with application compute.

use std::collections::VecDeque;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::{SendError, Sender};
use parking_lot::{Condvar, Mutex};

use starfish_telemetry::{metric, Registry};
use starfish_util::{Error, Result};

use crate::fabric::Port;
use crate::inbox::Inbox;
use crate::packet::Packet;

/// The queue of received messages fed by the polling thread and consumed by
/// the MPI module's matching logic.
#[derive(Clone, Default)]
pub struct RecvQueue {
    inner: Arc<QueueInner>,
}

#[derive(Default)]
struct QueueInner {
    q: Mutex<QueueState>,
    cond: Condvar,
}

#[derive(Default)]
struct QueueState {
    packets: VecDeque<Packet>,
    closed: bool,
    /// Set by [`RecvQueue::kick`], consumed by the next `wait_batch` that
    /// finds no packet (kicks coalesce).
    kicked: bool,
    /// Telemetry registry whose `vni.recv_queue_depth` gauge mirrors
    /// `packets.len()` after every mutation.
    metrics: Option<Registry>,
}

impl QueueState {
    fn publish_depth(&self) {
        if let Some(m) = &self.metrics {
            m.gauge_set(metric::VNI_RECV_QUEUE_DEPTH, self.packets.len() as i64);
        }
    }

    /// Up to `max` (at least one) packets off the front. When they all fit,
    /// the queue's buffer itself is handed over — the batch the polling
    /// thread pushed, usually — so a packet costs no allocation here.
    fn take(&mut self, max: usize) -> Vec<Packet> {
        let max = max.max(1);
        if self.packets.len() <= max {
            return std::mem::take(&mut self.packets).into();
        }
        self.packets.drain(..max).collect()
    }
}

impl RecvQueue {
    pub fn new() -> Self {
        RecvQueue::default()
    }

    /// Mirror this queue's depth into `reg`'s `vni.recv_queue_depth` gauge.
    pub fn attach_metrics(&self, reg: Registry) {
        let mut g = self.inner.q.lock();
        g.metrics = Some(reg);
        g.publish_depth();
    }

    /// Enqueue a packet (called by the polling thread).
    pub fn push(&self, pkt: Packet) {
        let mut g = self.inner.q.lock();
        g.packets.push_back(pkt);
        g.publish_depth();
        self.inner.cond.notify_all();
    }

    /// Enqueue a batch of packets under one lock acquisition, preserving
    /// order (the polling thread's batched drain lands here). An empty
    /// queue adopts the batch's buffer instead of copying it into its own.
    pub fn push_batch(&self, batch: Vec<Packet>) {
        if batch.is_empty() {
            return;
        }
        let mut g = self.inner.q.lock();
        if g.packets.is_empty() {
            g.packets = batch.into();
        } else {
            g.packets.extend(batch);
        }
        g.publish_depth();
        self.inner.cond.notify_all();
    }

    /// Mark the queue closed (port gone); waiters wake with `Closed`.
    pub fn close(&self) {
        let mut g = self.inner.q.lock();
        g.closed = true;
        self.inner.cond.notify_all();
    }

    /// Wake whoever is (or next goes) blocked in [`wait_batch`](Self::wait_batch)
    /// without queueing a packet: that wait returns [`Error::Interrupted`].
    /// This is how state changes that do not travel the fabric (a daemon
    /// message, a peer's port being bound) reach a process whose one wait
    /// point is its receive queue.
    pub fn kick(&self) {
        let mut g = self.inner.q.lock();
        g.kicked = true;
        self.inner.cond.notify_all();
    }

    /// A [`Kick`] handle onto this queue.
    pub fn kicker(&self) -> Kick {
        Kick(KickTarget::Queue(self.clone()))
    }

    pub fn len(&self) -> usize {
        self.inner.q.lock().packets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove and return up to `max` packets from the front of the queue in
    /// one lock acquisition (empty when nothing is queued). The MPI module's
    /// ingest loop drains pipelined rendezvous bursts through here so a
    /// burst costs one lock hop, not one per frame.
    pub fn take_batch(&self, max: usize) -> Vec<Packet> {
        let mut g = self.inner.q.lock();
        let batch = g.take(max);
        if !batch.is_empty() {
            g.publish_depth();
        }
        batch
    }

    /// Block until at least one packet is available (or `deadline` passes),
    /// then remove and return up to `max` packets in one lock acquisition.
    /// `Ok(vec![])` means the wait timed out with nothing queued;
    /// [`Error::Interrupted`] means the queue was [kicked](Self::kick) while
    /// empty (packets win over a pending kick, which then stays pending).
    pub fn wait_batch(&self, max: usize, deadline: Duration) -> Result<Vec<Packet>> {
        let start = std::time::Instant::now(); // lint: allow(wall-clock)
        let mut g = self.inner.q.lock();
        loop {
            if !g.packets.is_empty() {
                let batch = g.take(max);
                g.publish_depth();
                return Ok(batch);
            }
            if g.closed {
                return Err(Error::closed("receive queue closed"));
            }
            if std::mem::take(&mut g.kicked) {
                return Err(Error::interrupted("receive queue kicked"));
            }
            let elapsed = start.elapsed();
            if elapsed >= deadline {
                return Ok(Vec::new());
            }
            self.inner.cond.wait_for(&mut g, deadline - elapsed);
        }
    }

    /// Remove and return the first packet matching `pred`, without blocking.
    pub fn take_matching(&self, mut pred: impl FnMut(&Packet) -> bool) -> Option<Packet> {
        let mut g = self.inner.q.lock();
        let idx = g.packets.iter().position(&mut pred)?;
        let pkt = g.packets.remove(idx);
        g.publish_depth();
        pkt
    }
}

#[derive(Clone)]
enum KickTarget {
    Queue(RecvQueue),
    Inbox(Arc<Inbox>),
}

/// Wakes the owner of one receive endpoint out of its timed batch wait —
/// the polled [`RecvQueue`] or, without a polling thread, the port's own
/// [`Inbox`] — without queueing a packet. Cheap to clone and `Send`: the
/// owner hands one, inside a [`KickSender`], to whoever queues work for it
/// (a rank also gives one to the application's rank directory).
#[derive(Clone)]
pub struct Kick(KickTarget);

impl Kick {
    pub(crate) fn inbox(inbox: Arc<Inbox>) -> Kick {
        Kick(KickTarget::Inbox(inbox))
    }

    pub fn kick(&self) {
        match &self.0 {
            KickTarget::Queue(q) => q.kick(),
            KickTarget::Inbox(i) => i.kick(),
        }
    }

    /// Do both handles wake the same endpoint?
    pub fn same(&self, other: &Kick) -> bool {
        match (&self.0, &other.0) {
            (KickTarget::Queue(a), KickTarget::Queue(b)) => Arc::ptr_eq(&a.inner, &b.inner),
            (KickTarget::Inbox(a), KickTarget::Inbox(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
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

/// Handle to a running polling thread. Dropping the handle does not stop the
/// thread; it stops when its port closes (node crash, process teardown).
pub struct PollingThread {
    handle: Option<JoinHandle<u64>>,
}

impl PollingThread {
    /// Packets drained from the port per wakeup. Bounds the time the recv
    /// queue lock is held per batch while amortizing the port lock + condvar
    /// handshake over many packets under load.
    pub const DRAIN_BATCH: usize = 64;

    /// Spawn the polling thread: moves every packet from `port` into `queue`
    /// until the port closes. Each wakeup drains up to [`Self::DRAIN_BATCH`]
    /// packets in one port lock acquisition instead of one packet per
    /// handshake. Returns immediately.
    pub fn spawn(port: Port, queue: RecvQueue) -> Self {
        let handle = std::thread::Builder::new()
            .name(format!("starfish-poll-{}", port.addr()))
            .spawn(move || {
                let mut moved = 0u64;
                loop {
                    match port.recv_batch(Self::DRAIN_BATCH) {
                        Ok(batch) => {
                            moved += batch.len() as u64;
                            queue.push_batch(batch);
                        }
                        Err(_) => {
                            queue.close();
                            return moved;
                        }
                    }
                }
            })
            .expect("spawn polling thread");
        PollingThread {
            handle: Some(handle),
        }
    }

    /// Wait for the thread to exit (after its port closed); returns the
    /// number of packets it moved.
    pub fn join(mut self) -> u64 {
        self.handle
            .take()
            .map(|h| h.join().unwrap_or(0))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::Fabric;
    use crate::models::{Ideal, LayerCosts};
    use crate::packet::{Addr, PacketKind, PortId};
    use bytes::Bytes;
    use starfish_util::NodeId;

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

    #[test]
    fn polling_thread_moves_packets() {
        let (f, a, b) = setup();
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        let q = RecvQueue::new();
        let poll = PollingThread::spawn(pb, q.clone());
        for t in 0..5 {
            f.send(pkt(a, b, t)).unwrap();
        }
        // Wait for all five to land, in order.
        let mut tags = Vec::new();
        while tags.len() < 5 {
            let batch = q.wait_batch(8, Duration::from_secs(2)).unwrap();
            tags.extend(batch.iter().map(|p| p.tag));
        }
        assert_eq!(tags, [0, 1, 2, 3, 4]);
        f.crash_node(NodeId(1));
        assert_eq!(poll.join(), 5);
        let closed = q.wait_batch(8, Duration::from_secs(2));
        assert!(matches!(closed, Err(Error::Closed(_))), "{closed:?}");
    }

    #[test]
    fn take_matching_picks_by_predicate_not_order() {
        let q = RecvQueue::new();
        let (_, a, b) = setup();
        for t in [3u64, 1, 2] {
            q.push(pkt(a, b, t));
        }
        let got = q.take_matching(|p| p.tag == 2).unwrap();
        assert_eq!(got.tag, 2);
        assert_eq!(q.len(), 2);
        assert!(q.take_matching(|p| p.tag == 99).is_none());
    }

    #[test]
    fn wait_batch_wakes_on_push() {
        let q = RecvQueue::new();
        let (_, a, b) = setup();
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.wait_batch(8, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        q.push(pkt(a, b, 7));
        assert_eq!(h.join().unwrap().unwrap()[0].tag, 7);
    }

    #[test]
    fn close_wakes_waiters_with_error() {
        let q = RecvQueue::new();
        let q2 = q.clone();
        let h = std::thread::spawn(move || q2.wait_batch(8, Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(matches!(h.join().unwrap(), Err(Error::Closed(_))));
    }

    /// A batch that fits is handed over whole, in order, and the next one
    /// starts from an empty queue; a longer queue gives `max` at a time.
    #[test]
    fn batches_leave_in_order_whole_or_max_at_a_time() {
        let q = RecvQueue::new();
        let (_, a, b) = setup();
        let tags = |batch: Vec<Packet>| batch.iter().map(|p| p.tag).collect::<Vec<_>>();
        q.push_batch((0..3).map(|t| pkt(a, b, t)).collect());
        q.push_batch((3..5).map(|t| pkt(a, b, t)).collect());
        assert_eq!(tags(q.take_batch(2)), [0, 1]);
        assert_eq!(tags(q.take_batch(8)), [2, 3, 4]);
        assert!(q.is_empty());
        q.push_batch(vec![pkt(a, b, 5)]);
        assert_eq!(tags(q.take_batch(8)), [5]);
    }

    #[test]
    fn kick_interrupts_a_batch_wait_once() {
        let q = RecvQueue::new();
        let kick = q.kicker();
        let waiter = {
            let q = q.clone();
            std::thread::spawn(move || q.wait_batch(8, Duration::from_secs(30)))
        };
        kick.kick();
        assert!(matches!(waiter.join().unwrap(), Err(Error::Interrupted(_))));
        // Consumed by the wait it woke: the next one runs to its deadline.
        let idle = q.wait_batch(8, Duration::from_millis(10)).unwrap();
        assert!(idle.is_empty());
    }

    #[test]
    fn queued_packets_win_over_a_pending_kick() {
        let q = RecvQueue::new();
        let (_, a, b) = setup();
        q.push(pkt(a, b, 1));
        q.kick();
        assert_eq!(q.wait_batch(8, Duration::from_secs(30)).unwrap().len(), 1);
        // The kick stayed pending: it is never lost to a packet.
        let kicked = q.wait_batch(8, Duration::from_secs(30));
        assert!(matches!(kicked, Err(Error::Interrupted(_))));
    }

    #[test]
    fn port_kick_interrupts_a_direct_batch_receive() {
        let (f, _, b) = setup();
        let port = f.bind(b).unwrap();
        let other = f.bind(Addr::new(NodeId(1), PortId(2))).unwrap();
        let kick = port.kicker();
        assert!(kick.same(&port.kicker()));
        assert!(!kick.same(&other.kicker()));
        assert!(!kick.same(&RecvQueue::new().kicker()));
        kick.kick();
        let got = port.recv_batch_timeout(8, Duration::from_secs(30));
        assert!(matches!(got, Err(Error::Interrupted(_))));
        let idle = port.recv_batch_timeout(8, Duration::from_millis(10));
        assert!(idle.unwrap().is_empty());
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
                let woken = port.recv_batch_timeout(8, Duration::from_secs(30));
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
