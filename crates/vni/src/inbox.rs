//! The per-endpoint inbox shard: one lock + condvar per bound port.
//!
//! Sharding the fabric means the send/recv hot path touches only the state
//! of the two endpoints involved: the sender takes a shared read lock on the
//! membership table to validate the route, then queues straight into the
//! destination's [`Inbox`]. Senders to different endpoints never contend.
//!
//! Besides the condvar (which serves the blocking `recv`/`recv_timeout`
//! family), every inbox carries a *doorbell*: a channel of `()` tokens where
//! a token means "packets may be waiting". The doorbell is what lets a
//! consumer multiplex a port with other channels via `crossbeam::select!`
//! without the fabric keeping a channel of packets per port. Tokens are
//! coalesced: a producer rings only when the bell is empty, and only while
//! holding the inbox lock, *after* enqueuing its packet. That makes the
//! protocol wakeup-safe: if the producer skips ringing, a token existed at
//! the moment the packet was already queued, so whichever consumer takes
//! that token (before or after the skip) drains a queue containing the
//! packet. A consumer must therefore always drain (`try_pop` until empty)
//! after taking a token; an occasional token left over after a drain wakes
//! the consumer once with an empty queue, which is harmless. Closing an
//! inbox drops the doorbell sender, so a `select!` arm sees a disconnect —
//! after which any still-queued packets remain drainable (the wire does not
//! eat frames already delivered).

use std::collections::VecDeque;
use std::time::Duration;

use crossbeam::channel::{self, Receiver, Sender};
use parking_lot::{Condvar, Mutex};

use crate::packet::Packet;

/// Outcome of a blocking pop.
pub enum Pop {
    Packet(Packet),
    Closed,
    TimedOut,
}

/// Outcome of a blocking batched pop.
pub enum PopBatch {
    /// At least one packet (never an empty vector).
    Packets(Vec<Packet>),
    Closed,
    TimedOut,
    /// [`Inbox::kick`] was called while the inbox was empty.
    Kicked,
}

struct InboxState {
    packets: VecDeque<Packet>,
    closed: bool,
    /// Set by [`Inbox::kick`], consumed by the next timed batch pop that
    /// finds no packet.
    kicked: bool,
    doorbell: Option<Sender<()>>,
}

/// One port's receive queue. Shared between the fabric (producer side) and
/// the owning [`Port`](crate::fabric::Port).
pub struct Inbox {
    q: Mutex<InboxState>,
    cond: Condvar,
}

impl Inbox {
    /// Create an inbox and the doorbell receiver its port will hold.
    pub fn new() -> (std::sync::Arc<Inbox>, Receiver<()>) {
        let (tx, rx) = channel::unbounded();
        let inbox = std::sync::Arc::new(Inbox {
            q: Mutex::new(InboxState {
                packets: VecDeque::new(),
                closed: false,
                kicked: false,
                doorbell: Some(tx),
            }),
            cond: Condvar::new(),
        });
        (inbox, rx)
    }

    /// Queue a packet. Returns `false` if the inbox is closed (the frame is
    /// then the caller's to account as dropped).
    pub fn push(&self, pkt: Packet) -> bool {
        let mut g = self.q.lock();
        if g.closed {
            return false;
        }
        g.packets.push_back(pkt);
        // Ring under the lock so producers' empty-checks are serialized;
        // the packet is already queued, so a consumer that takes the
        // pre-existing token (making the skip-ring decision stale) still
        // finds it in its drain.
        if let Some(bell) = &g.doorbell {
            if bell.is_empty() {
                let _ = bell.send(());
            }
        }
        drop(g);
        self.cond.notify_one();
        true
    }

    /// Close the inbox: waiters wake, the doorbell disconnects, and pushes
    /// start failing. Packets already queued stay drainable.
    pub fn close(&self) {
        let mut g = self.q.lock();
        g.closed = true;
        g.doorbell = None;
        drop(g);
        self.cond.notify_all();
    }

    /// Wake the owner out of [`pop_batch_timeout`](Self::pop_batch_timeout)
    /// without queueing a packet (see [`crate::polling::Kick`]).
    pub fn kick(&self) {
        self.q.lock().kicked = true;
        self.cond.notify_all();
    }

    pub fn len(&self) -> usize {
        self.q.lock().packets.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pop without blocking. `Pop::TimedOut` doubles as "empty" here.
    pub fn try_pop(&self) -> Pop {
        let mut g = self.q.lock();
        match g.packets.pop_front() {
            Some(p) => Pop::Packet(p),
            None if g.closed => Pop::Closed,
            None => Pop::TimedOut,
        }
    }

    /// Block until a packet arrives, the inbox closes, or `timeout` (if any)
    /// elapses. Packets win over closure: a closed inbox drains first.
    pub fn pop_wait(&self, timeout: Option<Duration>) -> Pop {
        let start = std::time::Instant::now(); // lint: allow(wall-clock)
        let mut g = self.q.lock();
        loop {
            if let Some(p) = g.packets.pop_front() {
                return Pop::Packet(p);
            }
            if g.closed {
                return Pop::Closed;
            }
            match timeout {
                Some(t) => {
                    let elapsed = start.elapsed();
                    if elapsed >= t {
                        return Pop::TimedOut;
                    }
                    self.cond.wait_for(&mut g, t - elapsed);
                }
                None => self.cond.wait(&mut g),
            }
        }
    }

    /// Like [`pop_batch_wait`](Self::pop_batch_wait), but bounded by a
    /// real-time `timeout`: a pipelined burst is still drained in one lock
    /// acquisition, and an idle wait surfaces as [`PopBatch::TimedOut`]
    /// instead of blocking forever. A [`kick`](Self::kick) on an empty inbox
    /// surfaces as [`PopBatch::Kicked`].
    pub fn pop_batch_timeout(&self, max: usize, timeout: Duration) -> PopBatch {
        let start = std::time::Instant::now(); // lint: allow(wall-clock)
        let mut g = self.q.lock();
        loop {
            if !g.packets.is_empty() {
                let take = g.packets.len().min(max.max(1));
                return PopBatch::Packets(g.packets.drain(..take).collect());
            }
            if g.closed {
                return PopBatch::Closed;
            }
            if std::mem::take(&mut g.kicked) {
                return PopBatch::Kicked;
            }
            let elapsed = start.elapsed();
            if elapsed >= timeout {
                return PopBatch::TimedOut;
            }
            self.cond.wait_for(&mut g, timeout - elapsed);
        }
    }

    /// Non-blocking batched pop: take up to `max` queued packets in one lock
    /// acquisition. An empty result means nothing was queued (closed or not).
    pub fn try_pop_batch(&self, max: usize) -> Vec<Packet> {
        let mut g = self.q.lock();
        let take = g.packets.len().min(max.max(1));
        g.packets.drain(..take).collect()
    }

    /// Blocking batched pop: wait for the first packet, then take up to
    /// `max` in one lock acquisition. Empty result means the inbox closed
    /// with nothing queued.
    pub fn pop_batch_wait(&self, max: usize) -> Vec<Packet> {
        let mut g = self.q.lock();
        loop {
            if !g.packets.is_empty() {
                let take = g.packets.len().min(max.max(1));
                return g.packets.drain(..take).collect();
            }
            if g.closed {
                return Vec::new();
            }
            self.cond.wait(&mut g);
        }
    }
}
