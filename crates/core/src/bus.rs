//! The object bus of an application process (paper §2.2).
//!
//! "All modules communicate by posting events on an object bus that invokes
//! the corresponding event handlers at each of the listening module. Using
//! an object bus allows us to completely decouple the modules."
//!
//! Our bus carries the paper's non-data event classes from the group handler
//! to the application module: lightweight membership views and relayed
//! coordination messages. A relayed C/R protocol message pays the same
//! dispatch, on its stamp, but goes straight to the rank's C/R machine.
//! Crucially, *data* messages never touch it — they use the fast data path
//! straight into the MPI module (the design decision Figure 6 and the bench
//! report's `ablation_fastpath` section justify). Each event costs
//! [`BUS_EVENT_COST`] of virtual time when its listener takes it (handler
//! dispatch on the era's hardware), which is exactly the cost the fast path
//! avoids per data message. An event nobody takes costs nothing, so a
//! rank's times do not depend on when in its run a daemon's message came.

use std::collections::VecDeque;

use bytes::Bytes;
use starfish_daemon::lwgroups::LwView;
use starfish_util::{Rank, VirtualTime};

/// Dispatch cost of one bus event on the prototype (handler lookup +
/// invocation in bytecode).
pub const BUS_EVENT_COST: VirtualTime = VirtualTime(15_000);

/// Event topics on the bus (one queue per listening module input).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BusTopic {
    /// Lightweight membership events → application module (view upcalls).
    Membership,
    /// Coordination messages → application module.
    Coordination,
}

/// One event on the bus.
#[derive(Debug, Clone)]
pub(crate) enum BusEvent {
    View { view: LwView },
    Coord { from: Rank, body: Bytes },
}

impl BusEvent {
    pub(crate) fn topic(&self) -> BusTopic {
        match self {
            BusEvent::View { .. } => BusTopic::Membership,
            BusEvent::Coord { .. } => BusTopic::Coordination,
        }
    }
}

/// The per-process object bus. Modules post events; listeners drain their
/// topic queue at their next activation (the runtime's scheduler drives
/// module activations at service points).
#[derive(Debug, Default)]
pub(crate) struct Bus {
    membership: VecDeque<BusEvent>,
    coordination: VecDeque<BusEvent>,
    /// Statistics: events posted per topic (for the taxonomy audit and the
    /// fast-path ablation).
    pub(crate) posted: u64,
}

impl Bus {
    pub(crate) fn new() -> Self {
        Bus::default()
    }

    /// Post an event; its listener charges [`BUS_EVENT_COST`] when it takes it.
    pub(crate) fn post(&mut self, ev: BusEvent) {
        self.posted += 1;
        match ev.topic() {
            BusTopic::Membership => self.membership.push_back(ev),
            BusTopic::Coordination => self.coordination.push_back(ev),
        }
    }

    /// Drain one event from a topic queue.
    pub(crate) fn take(&mut self, topic: BusTopic) -> Option<BusEvent> {
        match topic {
            BusTopic::Membership => self.membership.pop_front(),
            BusTopic::Coordination => self.coordination.pop_front(),
        }
    }

    /// Drop everything (rollback: queued events belong to the abandoned
    /// execution).
    pub(crate) fn clear(&mut self) {
        self.membership.clear();
        self.coordination.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_util::{GroupId, ViewId};

    fn view_ev() -> BusEvent {
        BusEvent::View {
            view: LwView {
                gid: GroupId(1),
                id: ViewId(1),
                members: vec![],
            },
        }
    }

    #[test]
    fn topics_are_separate_queues() {
        let mut bus = Bus::new();
        bus.post(view_ev());
        bus.post(BusEvent::Coord {
            from: Rank(1),
            body: Bytes::from_static(b"c"),
        });
        bus.post(view_ev());
        assert_eq!(bus.posted, 3);
        assert!(matches!(
            bus.take(BusTopic::Coordination),
            Some(BusEvent::Coord { .. })
        ));
        assert!(bus.take(BusTopic::Coordination).is_none());
        assert!(bus.take(BusTopic::Membership).is_some());
        bus.clear();
        assert!(bus.take(BusTopic::Membership).is_none());
    }

    #[test]
    fn fifo_within_topic() {
        let mut bus = Bus::new();
        for i in 0..3u8 {
            bus.post(BusEvent::Coord {
                from: Rank(i as u32),
                body: Bytes::from_static(b"x"),
            });
        }
        for i in 0..3u32 {
            match bus.take(BusTopic::Coordination) {
                Some(BusEvent::Coord { from, .. }) => assert_eq!(from, Rank(i)),
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
