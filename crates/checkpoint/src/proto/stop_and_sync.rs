//! The stop-and-sync coordinated checkpoint protocol \[14\] — the protocol
//! behind the paper's Figure 3 and Figure 4 measurements.
//!
//! Round structure (coordinator = lowest participating rank by convention):
//!
//! 1. Coordinator broadcasts `Stop{index}` (through the daemons) and stops
//!    itself.
//! 2. Every process stops issuing application sends, then sends a
//!    `FlushMark{index}` **on the data path** to every peer. Because data
//!    channels are FIFO, receiving the mark from peer `p` proves every data
//!    message `p` sent before stopping has been drained into the local
//!    receive queue.
//! 3. When a process holds marks from all peers it is *quiesced*: it takes a
//!    local checkpoint whose channel state is the drained receive queue, and
//!    reports `Saved` to the coordinator.
//! 4. When the coordinator has all `Saved`s, the checkpoint commits; it
//!    broadcasts `Resume` and everyone continues.
// lint: sans-io

use std::collections::{BTreeMap, BTreeSet};

use starfish_util::Rank;

use super::{CrEffect, CrMsg};

/// Protocol phase of one participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Computing normally.
    Running,
    /// Stopped; waiting for flush marks from peers.
    Quiescing,
    /// Writing the local image.
    Saving,
    /// Local image saved; waiting for the global commit (members) or for
    /// remaining `Saved`s (coordinator).
    AwaitCommit,
}

/// One process's stop-and-sync engine.
#[derive(Debug, Clone)]
pub struct StopAndSync {
    me: Rank,
    ranks: Vec<Rank>,
    phase: Phase,
    index: u64,
    marks: BTreeSet<Rank>,
    saved: BTreeSet<Rank>,
    /// Flush marks that arrived for a round we have not entered yet. The
    /// fast data path can outrun the daemon-relayed control path: a peer
    /// that already resumed round `k` may deliver `FlushMark{k+1}` while we
    /// are still in `AwaitCommit` for round `k`. Marks are never resent, so
    /// they must be kept until `enter_stop(k+1)`.
    pending_marks: BTreeMap<u64, BTreeSet<Rank>>,
}

impl StopAndSync {
    /// `ranks`: all participating ranks (sorted or not). The coordinator is
    /// the smallest rank.
    pub fn new(me: Rank, mut ranks: Vec<Rank>) -> Self {
        ranks.sort_unstable();
        ranks.dedup();
        debug_assert!(ranks.contains(&me));
        StopAndSync {
            me,
            ranks,
            phase: Phase::Running,
            index: 0,
            marks: BTreeSet::new(),
            saved: BTreeSet::new(),
            pending_marks: BTreeMap::new(),
        }
    }

    #[expect(clippy::indexing_slicing, reason = "`new`'s `ranks` holds `me`")]
    pub fn coordinator(&self) -> Rank {
        self.ranks[0]
    }

    pub fn is_coordinator(&self) -> bool {
        self.me == self.coordinator()
    }

    pub fn phase(&self) -> Phase {
        self.phase
    }

    pub fn index(&self) -> u64 {
        self.index
    }

    fn peers(&self) -> impl Iterator<Item = Rank> + '_ {
        let me = self.me;
        self.ranks.iter().copied().filter(move |r| *r != me)
    }

    /// Coordinator initiates checkpoint round `index`.
    pub fn start(&mut self, index: u64) -> Vec<CrEffect> {
        assert!(self.is_coordinator(), "only the coordinator starts a round");
        assert_eq!(self.phase, Phase::Running, "round already in progress");
        let mut eff = vec![CrEffect::Broadcast {
            msg: CrMsg::Stop { index },
        }];
        eff.extend(self.enter_stop(index));
        eff
    }

    fn enter_stop(&mut self, index: u64) -> Vec<CrEffect> {
        self.phase = Phase::Quiescing;
        self.index = index;
        self.marks.clear();
        self.saved.clear();
        if let Some(early) = self.pending_marks.remove(&index) {
            self.marks.extend(early);
        }
        self.pending_marks.retain(|k, _| *k > index);
        let mut eff = vec![CrEffect::BeginQuiesce { index }];
        for p in self.peers() {
            eff.push(CrEffect::DataMark {
                to: p,
                msg: CrMsg::FlushMark { index },
            });
        }
        // A single-process application quiesces trivially.
        eff.extend(self.maybe_quiesced());
        eff
    }

    fn maybe_quiesced(&mut self) -> Vec<CrEffect> {
        if self.phase == Phase::Quiescing && self.marks.len() == self.ranks.len() - 1 {
            self.phase = Phase::Saving;
            vec![CrEffect::TakeCheckpoint { index: self.index }]
        } else {
            Vec::new()
        }
    }

    fn maybe_committed(&mut self) -> Vec<CrEffect> {
        if self.is_coordinator()
            && self.phase == Phase::AwaitCommit
            && self.saved.len() == self.ranks.len()
        {
            self.phase = Phase::Running;
            vec![
                CrEffect::Broadcast {
                    msg: CrMsg::Resume { index: self.index },
                },
                CrEffect::Resume { index: self.index },
                CrEffect::Committed { index: self.index },
            ]
        } else {
            Vec::new()
        }
    }

    /// A C/R control message arrived (through the daemons).
    pub fn on_msg(&mut self, from: Rank, msg: &CrMsg) -> Vec<CrEffect> {
        match msg {
            CrMsg::Stop { index } => {
                if self.phase == Phase::Running {
                    self.enter_stop(*index)
                } else {
                    Vec::new() // duplicate
                }
            }
            CrMsg::Saved { rank, index } if *index == self.index => {
                if self.is_coordinator() {
                    self.saved.insert(*rank);
                    self.maybe_committed()
                } else {
                    Vec::new()
                }
            }
            CrMsg::Resume { index } if *index == self.index => {
                if self.phase == Phase::AwaitCommit {
                    self.phase = Phase::Running;
                    vec![CrEffect::Resume { index: *index }]
                } else {
                    Vec::new()
                }
            }
            _ => {
                let _ = from;
                Vec::new()
            }
        }
    }

    /// A `FlushMark` arrived on the data path from `from`.
    pub fn on_flush_mark(&mut self, from: Rank, index: u64) -> Vec<CrEffect> {
        if index != self.index && self.phase == Phase::Running {
            // Mark raced ahead of the Stop control message (possible: they
            // travel different paths). Enter the round now; the Stop will be
            // a duplicate.
            let mut eff = self.enter_stop(index);
            self.marks.insert(from);
            eff.extend(self.maybe_quiesced());
            return eff;
        }
        if index == self.index {
            self.marks.insert(from);
            return self.maybe_quiesced();
        }
        if index > self.index {
            // A mark for a round we have not entered (e.g. we are still in
            // `AwaitCommit` of the previous round). Hold it for `enter_stop`.
            self.pending_marks.entry(index).or_default().insert(from);
        }
        Vec::new()
    }

    /// The runtime finished writing the local image for `index`.
    pub fn on_saved(&mut self, index: u64) -> Vec<CrEffect> {
        debug_assert_eq!(index, self.index);
        debug_assert_eq!(self.phase, Phase::Saving);
        self.phase = Phase::AwaitCommit;
        if self.is_coordinator() {
            self.saved.insert(self.me);
            self.maybe_committed()
        } else {
            vec![CrEffect::Send {
                to: self.coordinator(),
                msg: CrMsg::Saved {
                    rank: self.me,
                    index,
                },
            }]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a full round among 3 ranks entirely in-process, checking the
    /// effect sequences of each participant.
    #[test]
    fn full_three_rank_round() {
        let ranks = vec![Rank(0), Rank(1), Rank(2)];
        let mut e0 = StopAndSync::new(Rank(0), ranks.clone());
        let mut e1 = StopAndSync::new(Rank(1), ranks.clone());
        let mut e2 = StopAndSync::new(Rank(2), ranks.clone());
        assert!(e0.is_coordinator());

        let eff0 = e0.start(1);
        assert!(eff0.contains(&CrEffect::Broadcast {
            msg: CrMsg::Stop { index: 1 }
        }));
        assert!(eff0.contains(&CrEffect::BeginQuiesce { index: 1 }));
        // Coordinator sends flush marks to both peers.
        let marks0: Vec<_> = eff0
            .iter()
            .filter(|e| matches!(e, CrEffect::DataMark { .. }))
            .collect();
        assert_eq!(marks0.len(), 2);

        // Members receive Stop.
        let eff1 = e1.on_msg(Rank(0), &CrMsg::Stop { index: 1 });
        let eff2 = e2.on_msg(Rank(0), &CrMsg::Stop { index: 1 });
        assert!(eff1.contains(&CrEffect::BeginQuiesce { index: 1 }));
        assert!(eff2.contains(&CrEffect::BeginQuiesce { index: 1 }));

        // Deliver all flush marks.
        assert!(e0.on_flush_mark(Rank(1), 1).is_empty());
        let take0 = e0.on_flush_mark(Rank(2), 1);
        assert_eq!(take0, vec![CrEffect::TakeCheckpoint { index: 1 }]);
        e1.on_flush_mark(Rank(0), 1);
        let take1 = e1.on_flush_mark(Rank(2), 1);
        assert_eq!(take1, vec![CrEffect::TakeCheckpoint { index: 1 }]);
        e2.on_flush_mark(Rank(0), 1);
        let take2 = e2.on_flush_mark(Rank(1), 1);
        assert_eq!(take2, vec![CrEffect::TakeCheckpoint { index: 1 }]);

        // Saves complete: members report to coordinator.
        let s1 = e1.on_saved(1);
        assert_eq!(
            s1,
            vec![CrEffect::Send {
                to: Rank(0),
                msg: CrMsg::Saved {
                    rank: Rank(1),
                    index: 1
                }
            }]
        );
        let s2 = e2.on_saved(1);
        assert_eq!(s2.len(), 1);
        assert!(e0.on_saved(1).is_empty(), "coordinator still waiting");

        // Coordinator collects Saved messages; commit on the last one.
        assert!(e0
            .on_msg(
                Rank(1),
                &CrMsg::Saved {
                    rank: Rank(1),
                    index: 1
                }
            )
            .is_empty());
        let commit = e0.on_msg(
            Rank(2),
            &CrMsg::Saved {
                rank: Rank(2),
                index: 1,
            },
        );
        assert!(commit.contains(&CrEffect::Committed { index: 1 }));
        assert!(commit.contains(&CrEffect::Broadcast {
            msg: CrMsg::Resume { index: 1 }
        }));
        assert_eq!(e0.phase(), Phase::Running);

        // Members resume.
        let r1 = e1.on_msg(Rank(0), &CrMsg::Resume { index: 1 });
        assert_eq!(r1, vec![CrEffect::Resume { index: 1 }]);
        assert_eq!(e1.phase(), Phase::Running);
    }

    #[test]
    fn single_process_round_is_local() {
        let mut e = StopAndSync::new(Rank(0), vec![Rank(0)]);
        let eff = e.start(1);
        // No peers: quiesce completes immediately and checkpoint is taken.
        assert!(eff.contains(&CrEffect::TakeCheckpoint { index: 1 }));
        let eff = e.on_saved(1);
        assert!(eff.contains(&CrEffect::Committed { index: 1 }));
        assert_eq!(e.phase(), Phase::Running);
    }

    #[test]
    fn flush_mark_racing_ahead_of_stop_still_works() {
        let ranks = vec![Rank(0), Rank(1)];
        let mut e1 = StopAndSync::new(Rank(1), ranks);
        // The data-path mark overtakes the daemon-relayed Stop.
        let eff = e1.on_flush_mark(Rank(0), 1);
        assert!(eff.contains(&CrEffect::BeginQuiesce { index: 1 }));
        assert!(eff.contains(&CrEffect::TakeCheckpoint { index: 1 }));
        // The late Stop is ignored as a duplicate.
        assert!(e1.on_msg(Rank(0), &CrMsg::Stop { index: 1 }).is_empty());
    }

    #[test]
    fn duplicate_stop_and_stale_saved_ignored() {
        let ranks = vec![Rank(0), Rank(1)];
        let mut e0 = StopAndSync::new(Rank(0), ranks);
        e0.start(2);
        assert!(e0.on_msg(Rank(1), &CrMsg::Stop { index: 2 }).is_empty());
        // Saved for an old round does nothing.
        assert!(e0
            .on_msg(
                Rank(1),
                &CrMsg::Saved {
                    rank: Rank(1),
                    index: 1
                }
            )
            .is_empty());
    }

    /// Regression: the coordinator commits round `k`, returns to `Running`,
    /// and immediately starts round `k+1`; its `FlushMark{k+1}` travels the
    /// fast data path and can land while a member is still in `AwaitCommit`
    /// for round `k` (the daemon-relayed `Resume{k}` is slower). The mark is
    /// never resent, so dropping it deadlocks the member in round `k+1`.
    #[test]
    fn mark_for_next_round_during_await_commit_is_kept() {
        let ranks = vec![Rank(0), Rank(1)];
        let mut e1 = StopAndSync::new(Rank(1), ranks);
        // Round 1 up to the point where r1 saved and awaits the commit.
        e1.on_msg(Rank(0), &CrMsg::Stop { index: 1 });
        e1.on_flush_mark(Rank(0), 1);
        e1.on_saved(1);
        assert_eq!(e1.phase(), Phase::AwaitCommit);
        // Round 2's mark overtakes Resume{1}: must not be dropped.
        assert!(e1.on_flush_mark(Rank(0), 2).is_empty());
        // Resume{1} and Stop{2} arrive in (total) order.
        e1.on_msg(Rank(0), &CrMsg::Resume { index: 1 });
        let eff = e1.on_msg(Rank(0), &CrMsg::Stop { index: 2 });
        // The stashed mark completes the quiesce immediately.
        assert!(
            eff.contains(&CrEffect::TakeCheckpoint { index: 2 }),
            "{eff:?}"
        );
    }

    #[test]
    fn second_round_after_commit() {
        let mut e = StopAndSync::new(Rank(0), vec![Rank(0)]);
        e.start(1);
        e.on_saved(1);
        let eff = e.start(2);
        assert!(eff.contains(&CrEffect::TakeCheckpoint { index: 2 }));
        let eff = e.on_saved(2);
        assert!(eff.contains(&CrEffect::Committed { index: 2 }));
    }
}
