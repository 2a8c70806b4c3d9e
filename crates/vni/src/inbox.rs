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
//! [`Inbox::pop_batch`] and is woken by a packet, by closure, or by a
//! [`kick`](Inbox::kick): whoever feeds another of its queues queues
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

/// Outcome of a batched pop ([`Inbox::pop_batch`]).
pub enum PopBatch {
    /// The consumer's buffer now holds at least one packet.
    Packets,
    /// Nothing queued: a look found none, or a wait ran to its limit.
    Empty,
    Closed,
    /// [`Inbox::kick`] was called while the inbox was empty.
    Kicked,
}

struct InboxState {
    packets: VecDeque<Packet>,
    closed: bool,
    /// Set by [`Inbox::kick`], consumed by the next waiting batch pop that
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

    /// Wake the owner out of [`pop_batch`](Self::pop_batch) without
    /// queueing a packet (see [`crate::polling::Kick`]).
    pub fn kick(&self) {
        self.q.lock().kicked = true;
        self.cond.notify_all();
    }

    pub(crate) fn len(&self) -> usize {
        self.q.lock().packets.len()
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
        #[expect(clippy::disallowed_methods, reason = "the caller's `timeout`")]
        let start = std::time::Instant::now();
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

    /// The one batched pop: hand up to `max` (at least one) queued packets
    /// to the consumer's `buf`. When they all fit and `buf` is empty, the
    /// two buffers trade places — the inbox keeps the consumer's emptied
    /// buffer, capacity and all, and the consumer takes the full one — so a
    /// drained batch allocates nothing; with more than `max` queued, the
    /// oldest `max` move over.
    ///
    /// `wait: None` only looks: [`PopBatch::Packets`] or
    /// [`PopBatch::Empty`], a pending kick and a closure left for a wait to
    /// report. `Some(limit)` waits up to `limit` for the first packet;
    /// packets win over closure and over a pending kick, which they leave
    /// pending.
    pub fn pop_batch(
        &self,
        buf: &mut VecDeque<Packet>,
        max: usize,
        wait: Option<Duration>,
    ) -> PopBatch {
        let mut g = self.q.lock();
        let Some(limit) = wait else {
            return match hand_over(&mut g.packets, buf, max) {
                true => PopBatch::Packets,
                false => PopBatch::Empty,
            };
        };
        #[expect(clippy::disallowed_methods, reason = "the caller's wait limit")]
        let start = std::time::Instant::now();
        loop {
            if hand_over(&mut g.packets, buf, max) {
                return PopBatch::Packets;
            }
            if g.closed {
                return PopBatch::Closed;
            }
            if std::mem::take(&mut g.kicked) {
                return PopBatch::Kicked;
            }
            let elapsed = start.elapsed();
            if elapsed >= limit {
                return PopBatch::Empty;
            }
            self.cond.wait_for(&mut g, limit - elapsed);
        }
    }
}

/// Move up to `max` of `queued` into `buf` (see [`Inbox::pop_batch`]);
/// false when nothing is queued.
fn hand_over(queued: &mut VecDeque<Packet>, buf: &mut VecDeque<Packet>, max: usize) -> bool {
    let max = max.max(1);
    if queued.is_empty() {
        return false;
    }
    if buf.is_empty() && queued.len() <= max {
        std::mem::swap(queued, buf);
    } else {
        buf.extend(queued.drain(..queued.len().min(max)));
    }
    true
}
