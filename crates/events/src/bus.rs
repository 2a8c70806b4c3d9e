//! The cluster event ring: a [`SeqRing`] of [`ClusterEvent`]s behind a lock,
//! plus cursor subscriptions.
//!
//! Like the trace `FlightRecorder`, the bus is an `Option<Arc<...>>`: a
//! disabled bus is one branch per publish and allocates nothing. Sequence
//! numbers keep counting across evictions, so a cursor that fell behind can
//! tell *exactly* how many events it missed instead of silently skipping.

use std::sync::Arc;

use parking_lot::Mutex;
use starfish_util::ring::SeqRing;
use starfish_util::{NodeId, VirtualTime};

use crate::event::{ClusterEvent, EventKind};

/// Default ring capacity: enough for every event of a sizeable recovery with
/// checkpoint traffic around it, small enough to never matter in memory.
pub const DEFAULT_CAPACITY: usize = 4096;

/// Handle to one bus. Cheap to clone; all clones share the ring.
#[derive(Clone)]
pub struct EventBus {
    ring: Option<Arc<Mutex<SeqRing<ClusterEvent>>>>,
}

impl EventBus {
    /// An enabled bus with the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    pub fn with_capacity(cap: usize) -> Self {
        EventBus {
            ring: Some(Arc::new(Mutex::new(SeqRing::new(cap)))),
        }
    }

    /// A disabled bus: `publish` is a single branch, everything reads empty.
    pub fn disabled() -> Self {
        EventBus { ring: None }
    }

    pub fn is_enabled(&self) -> bool {
        self.ring.is_some()
    }

    /// Read the ring under its lock; a disabled bus reads as empty.
    fn read<R: Default>(&self, f: impl FnOnce(&SeqRing<ClusterEvent>) -> R) -> R {
        self.ring.as_ref().map_or_else(R::default, |r| f(&r.lock()))
    }

    /// Append an event, assigning its sequence number. Returns the assigned
    /// seq, or `None` on a disabled bus.
    pub fn publish(&self, origin: NodeId, vt: VirtualTime, kind: EventKind) -> Option<u64> {
        let mut ring = self.ring.as_ref()?.lock();
        let seq = ring.pushed();
        ring.push(ClusterEvent {
            seq,
            vt,
            origin,
            kind,
        });
        Some(seq)
    }

    /// Total events ever published (== next seq to assign).
    pub fn published(&self) -> u64 {
        self.read(|r| r.pushed())
    }

    /// Exact count of events evicted from the ring.
    pub fn dropped(&self) -> u64 {
        self.read(|r| r.dropped())
    }

    /// Snapshot of the current ring contents, oldest first.
    pub fn snapshot(&self) -> Vec<ClusterEvent> {
        self.read(|r| r.iter().cloned().collect())
    }

    /// The last `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<ClusterEvent> {
        self.read(|r| r.tail(n))
    }

    /// Events with `seq >= from`, oldest first, plus how many events in that
    /// range were already evicted (the gap a late reader can never see).
    pub fn since(&self, from: u64) -> (Vec<ClusterEvent>, u64) {
        self.read(|r| r.since(from))
    }

    /// A cursor starting at the *next* event to be published: an
    /// `EVENTS SUBSCRIBE` sees only what happens after it subscribed.
    pub fn subscribe(&self) -> EventCursor {
        EventCursor {
            bus: self.clone(),
            next: self.published(),
        }
    }
}

impl Default for EventBus {
    fn default() -> Self {
        EventBus::new()
    }
}

/// What one `EventCursor::poll` saw.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Poll {
    /// New events since the last poll, oldest first.
    pub events: Vec<ClusterEvent>,
    /// Events that were evicted before this cursor read them. Non-zero means
    /// the subscriber fell more than one ring behind the publishers.
    pub missed: u64,
}

/// A pull-based subscription position. Polling advances the cursor; gaps
/// caused by ring eviction are reported exactly, never silently skipped.
#[derive(Clone)]
pub struct EventCursor {
    bus: EventBus,
    next: u64,
}

impl EventCursor {
    /// Drain everything published since the last poll.
    pub fn poll(&mut self) -> Poll {
        let (events, missed) = self.bus.since(self.next);
        // Past the gap and everything just read: the gap is charged once.
        self.next += missed + events.len() as u64;
        Poll { events, missed }
    }

    /// The next sequence number this cursor will read.
    pub fn position(&self) -> u64 {
        self.next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(n: u32) -> EventKind {
        EventKind::NodeUp { node: NodeId(n) }
    }

    fn bus_with(n: u64, cap: usize) -> EventBus {
        let bus = EventBus::with_capacity(cap);
        for i in 0..n {
            bus.publish(NodeId(0), VirtualTime::from_nanos(i * 10), ev(i as u32));
        }
        bus
    }

    #[test]
    fn disabled_bus_is_inert() {
        let bus = EventBus::disabled();
        assert_eq!(bus.publish(NodeId(0), VirtualTime::ZERO, ev(1)), None);
        assert_eq!(bus.published(), 0);
        assert_eq!(bus.dropped(), 0);
        assert!(bus.snapshot().is_empty());
        let mut cur = bus.subscribe();
        assert_eq!(cur.poll(), Poll::default());
    }

    #[test]
    fn cursor_sees_only_post_subscribe_events() {
        let bus = bus_with(3, 64);
        let mut cur = bus.subscribe();
        assert_eq!(cur.poll(), Poll::default());
        bus.publish(NodeId(1), VirtualTime::from_nanos(99), ev(42));
        let p = cur.poll();
        assert_eq!(p.missed, 0);
        assert_eq!(p.events.len(), 1);
        assert_eq!(p.events[0].seq, 3);
        assert_eq!(p.events[0].origin, NodeId(1));
        // Drained: next poll is empty.
        assert_eq!(cur.poll(), Poll::default());
    }

    #[test]
    fn cursor_reports_exact_gap_when_lapped() {
        let bus = EventBus::with_capacity(4);
        let mut cur = bus.subscribe();
        for i in 0..10 {
            bus.publish(NodeId(0), VirtualTime::ZERO, ev(i));
        }
        let p = cur.poll();
        // Ring holds seqs 6..10; cursor wanted from 0 → missed exactly 6,
        // which is exactly what the bus counts as dropped.
        assert_eq!(p.missed, 6);
        assert_eq!(p.missed, bus.dropped());
        assert_eq!(p.events.len(), 4);
        assert_eq!(p.events[0].seq, 6);
        // Gap charged once: a further poll with no publishes misses nothing.
        assert_eq!(cur.poll(), Poll::default());
    }

    #[test]
    fn concurrent_publishers_never_lose_a_seq() {
        let bus = EventBus::with_capacity(128);
        let mut handles = Vec::new();
        for t in 0..4 {
            let b = bus.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    b.publish(
                        NodeId(t),
                        VirtualTime::from_nanos(i),
                        EventKind::CkptRoundBegin {
                            app: starfish_util::AppId(t),
                        },
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(bus.published(), 400);
        assert_eq!(bus.dropped() as usize + bus.snapshot().len(), 400);
        // Retained window is dense and sorted.
        let snap = bus.snapshot();
        for w in snap.windows(2) {
            assert_eq!(w[1].seq, w[0].seq + 1);
        }
    }
}
