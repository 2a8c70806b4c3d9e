//! The per-endpoint inbox shard: one lock + condvar per bound port.
//!
//! Sharding the fabric means the send/recv hot path touches only the state
//! of the two endpoints involved: the sender takes a shared read lock on the
//! membership table to validate the route, then queues straight into the
//! destination's [`Inbox`]. Senders to different endpoints never contend.
//!
//! The condvar is the only way to wait on an inbox. The blocking
//! `recv`/`recv_timeout` family waits for a packet. An owner with more than
//! one input — a rank, a node loop (DESIGN.md §5d) — parks in
//! [`Inbox::pop_batch_timeout`] and is woken by a packet, by closure, or by
//! a [`kick`](Inbox::kick): whoever feeds another of its queues queues
//! first and kicks second ([`crate::polling::KickSender`]). The kick is a
//! flag under the inbox lock, so it is never lost — a wait that returns
//! packets leaves it set for the next one — and kicks coalesce. Closing an
//! inbox wakes every waiter; packets already queued remain drainable (the
//! wire does not eat frames already delivered).

use std::collections::VecDeque;
use std::time::Duration;

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
}

/// One port's receive queue. Shared between the fabric (producer side) and
/// the owning [`Port`](crate::fabric::Port).
pub struct Inbox {
    q: Mutex<InboxState>,
    cond: Condvar,
}

impl Inbox {
    pub fn new() -> std::sync::Arc<Inbox> {
        std::sync::Arc::new(Inbox {
            q: Mutex::new(InboxState {
                packets: VecDeque::new(),
                closed: false,
                kicked: false,
            }),
            cond: Condvar::new(),
        })
    }

    /// Queue a packet. Returns `false` if the inbox is closed (the frame is
    /// then the caller's to account as dropped).
    pub fn push(&self, pkt: Packet) -> bool {
        let mut g = self.q.lock();
        if g.closed {
            return false;
        }
        g.packets.push_back(pkt);
        drop(g);
        self.cond.notify_one();
        true
    }

    /// Close the inbox: waiters wake and pushes start failing. Packets
    /// already queued stay drainable.
    pub fn close(&self) {
        let mut g = self.q.lock();
        g.closed = true;
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
