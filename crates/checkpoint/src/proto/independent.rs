//! Independent (uncoordinated) checkpointing \[1,29,32,34,41\].
//!
//! Each process checkpoints on its own schedule with *no* synchronization —
//! the cheapest possible checkpoint — at the price of rollback propagation
//! at recovery time. To make recovery possible at all, every data message
//! piggybacks the sender's current checkpoint-interval index, and every
//! receive is logged as a [`crate::recovery::MsgDep`]; the recovery
//! line is then computed by [`crate::recovery::recovery_line`].
//!
//! The paper highlights that Starfish can run this protocol side by side
//! with the coordinated ones; the `ablation_cr_protocols` and
//! `ablation_domino` benches compare them.
// lint: sans-io

use starfish_util::Rank;

use crate::recovery::MsgDep;

use super::CrEffect;

/// Tracks one process's checkpoint intervals and message dependencies.
#[derive(Debug, Clone)]
pub(crate) struct Independent {
    me: Rank,
    /// Current interval index: number of checkpoints taken so far. Interval
    /// `k` is the execution after checkpoint `k`.
    interval: u64,
}

impl Independent {
    pub(crate) fn new(me: Rank) -> Self {
        Independent { me, interval: 0 }
    }

    /// The interval index to piggyback on outgoing data messages.
    pub(crate) fn current_interval(&self) -> u64 {
        self.interval
    }

    /// Take a local checkpoint right now (no coordination, no quiesce; the
    /// receive queue is captured as channel state so locally-buffered
    /// messages are not lost).
    pub(crate) fn take_checkpoint(&mut self) -> Vec<CrEffect> {
        self.interval += 1;
        vec![CrEffect::TakeCheckpoint {
            index: self.interval,
        }]
    }

    /// A data message arrived carrying the sender's piggybacked interval.
    /// Returns the dependency record the runtime must persist (the engine
    /// keeps no copy: the store's dependency log is the only one).
    pub(crate) fn on_data_received(&self, sender: Rank, sender_interval: u64) -> MsgDep {
        MsgDep {
            sender,
            send_interval: sender_interval,
            receiver: self.me,
            recv_interval: self.interval,
        }
    }

    /// After a rollback, reset to the restored interval.
    pub(crate) fn rollback_to(&mut self, index: u64) {
        self.interval = index;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intervals_advance_with_checkpoints() {
        let mut e = Independent::new(Rank(1));
        assert_eq!(e.current_interval(), 0);
        let eff = e.take_checkpoint();
        assert_eq!(eff, vec![CrEffect::TakeCheckpoint { index: 1 }]);
        assert_eq!(e.current_interval(), 1);
        e.take_checkpoint();
        assert_eq!(e.current_interval(), 2);
    }

    #[test]
    fn receives_logged_with_both_intervals() {
        let mut e = Independent::new(Rank(1));
        e.take_checkpoint();
        let dep = e.on_data_received(Rank(0), 3);
        assert_eq!(dep.sender, Rank(0));
        assert_eq!(dep.send_interval, 3);
        assert_eq!(dep.receiver, Rank(1));
        assert_eq!(dep.recv_interval, 1);
    }

    #[test]
    fn rollback_resets_interval_and_log() {
        let mut e = Independent::new(Rank(1));
        e.take_checkpoint();
        e.take_checkpoint();
        e.rollback_to(1);
        assert_eq!(e.current_interval(), 1);
        assert_eq!(e.on_data_received(Rank(0), 0).recv_interval, 1);
    }

    /// End-to-end with the recovery module: two processes, an orphan
    /// message, and the line computed from the logged deps.
    #[test]
    fn deps_feed_recovery_line() {
        use crate::recovery::recovery_line;
        use std::collections::BTreeMap;

        let mut p0 = Independent::new(Rank(0));
        let mut p1 = Independent::new(Rank(1));
        let mut deps = Vec::new();

        // p0 ckpt #1, then sends m in interval 1; p1 receives in interval 0
        // and then takes ckpt #1 (which therefore remembers m).
        p0.take_checkpoint();
        deps.push(p1.on_data_received(Rank(0), p0.current_interval()));
        p1.take_checkpoint();

        // p0 crashes. Its latest is ckpt 1 — the send in interval 1 rolls
        // back, so p1's ckpt 1 holds an orphan and p1 must restart from 0.
        let latest: BTreeMap<Rank, u64> = [(Rank(0), 1u64), (Rank(1), 1u64)].into_iter().collect();
        let rl = recovery_line(&latest, &deps, &[Rank(0)]);
        assert_eq!(rl.index_of(Rank(0)), 1);
        assert_eq!(rl.index_of(Rank(1)), 0);
        assert_eq!(rl.rolled_back, 1);
    }
}
