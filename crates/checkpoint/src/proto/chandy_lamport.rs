//! Chandy–Lamport distributed snapshots \[10\] — the coordinated protocol
//! Manetho builds on, implemented side by side with stop-and-sync to
//! demonstrate the paper's "multiple C/R protocols in one framework" claim.
//!
//! Unlike stop-and-sync, the application never blocks: a process snapshots
//! its state on first marker receipt (or initiation) and then *records* the
//! messages arriving on each incoming channel until that channel's marker
//! arrives. Channel FIFO order (which our data path provides per sender)
//! makes the recorded sets exactly the in-flight messages.
// lint: sans-io

use std::collections::BTreeSet;

use starfish_util::Rank;

use super::{CrEffect, CrMsg};

/// Snapshot status of one participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClPhase {
    Idle,
    /// State saved; still waiting for markers on some channels.
    Recording,
    /// All markers in; local snapshot complete.
    Complete,
}

/// One process's Chandy–Lamport engine.
#[derive(Debug, Clone)]
pub struct ChandyLamport {
    me: Rank,
    ranks: Vec<Rank>,
    phase: ClPhase,
    index: u64,
    markers_in: BTreeSet<Rank>,
    saved_seen: BTreeSet<Rank>,
}

impl ChandyLamport {
    pub fn new(me: Rank, mut ranks: Vec<Rank>) -> Self {
        ranks.sort_unstable();
        ranks.dedup();
        debug_assert!(ranks.contains(&me));
        ChandyLamport {
            me,
            ranks,
            phase: ClPhase::Idle,
            index: 0,
            markers_in: BTreeSet::new(),
            saved_seen: BTreeSet::new(),
        }
    }

    #[expect(clippy::indexing_slicing, reason = "`new`'s `ranks` holds `me`")]
    pub(crate) fn initiator(&self) -> Rank {
        self.ranks[0]
    }

    pub(crate) fn is_initiator(&self) -> bool {
        self.me == self.initiator()
    }

    pub fn phase(&self) -> ClPhase {
        self.phase
    }

    #[cfg(test)]
    pub(crate) fn index(&self) -> u64 {
        self.index
    }

    fn peers(&self) -> impl Iterator<Item = Rank> + '_ {
        let me = self.me;
        self.ranks.iter().copied().filter(move |r| *r != me)
    }

    /// Take the local snapshot and emit markers + recording directives.
    /// `already_marked`: the channel whose marker triggered us (recorded as
    /// empty), if any.
    fn snapshot(&mut self, index: u64, already_marked: Option<Rank>) -> Vec<CrEffect> {
        self.phase = ClPhase::Recording;
        self.index = index;
        self.markers_in.clear();
        self.saved_seen.clear();
        let mut eff = vec![CrEffect::TakeCheckpoint { index }];
        for p in self.peers() {
            eff.push(CrEffect::DataMark {
                to: p,
                msg: CrMsg::Marker { index },
            });
        }
        if let Some(from) = already_marked {
            self.markers_in.insert(from);
        }
        for p in self.peers() {
            if Some(p) != already_marked {
                eff.push(CrEffect::RecordChannel { from: p });
            }
        }
        eff.extend(self.maybe_complete());
        eff
    }

    fn maybe_complete(&mut self) -> Vec<CrEffect> {
        if self.phase == ClPhase::Recording && self.markers_in.len() == self.ranks.len() - 1 {
            self.phase = ClPhase::Complete;
            if self.is_initiator() {
                self.saved_seen.insert(self.me);
                self.maybe_committed()
            } else {
                vec![CrEffect::Send {
                    to: self.initiator(),
                    msg: CrMsg::Saved {
                        rank: self.me,
                        index: self.index,
                    },
                }]
            }
        } else {
            Vec::new()
        }
    }

    fn maybe_committed(&mut self) -> Vec<CrEffect> {
        if self.is_initiator()
            && self.phase == ClPhase::Complete
            && self.saved_seen.len() == self.ranks.len()
        {
            self.phase = ClPhase::Idle;
            vec![CrEffect::Committed { index: self.index }]
        } else {
            Vec::new()
        }
    }

    /// Initiator starts snapshot `index`.
    pub fn start(&mut self, index: u64) -> Vec<CrEffect> {
        assert!(self.is_initiator(), "only the initiator starts a snapshot");
        assert_eq!(self.phase, ClPhase::Idle, "snapshot already in progress");
        self.snapshot(index, None)
    }

    /// A marker arrived on the data channel from `from`.
    pub fn on_marker(&mut self, from: Rank, index: u64) -> Vec<CrEffect> {
        match self.phase {
            ClPhase::Idle => self.snapshot(index, Some(from)),
            ClPhase::Recording if index == self.index => {
                let mut eff = vec![CrEffect::StopRecord { from }];
                self.markers_in.insert(from);
                eff.extend(self.maybe_complete());
                eff
            }
            // A member's engine rests in `Complete` after a round (only the
            // initiator returns to `Idle` on commit). A marker with a higher
            // index is the start of the next round — it must open a new
            // snapshot, not be dropped (markers are never resent).
            ClPhase::Complete if index > self.index => self.snapshot(index, Some(from)),
            _ => Vec::new(),
        }
    }

    /// A `Saved` control message (initiator only).
    pub fn on_msg(&mut self, _from: Rank, msg: &CrMsg) -> Vec<CrEffect> {
        match msg {
            CrMsg::Saved { rank, index } if self.is_initiator() && *index == self.index => {
                self.saved_seen.insert(*rank);
                self.maybe_committed()
            }
            _ => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_three_rank_snapshot() {
        let ranks = vec![Rank(0), Rank(1), Rank(2)];
        let mut e0 = ChandyLamport::new(Rank(0), ranks.clone());
        let mut e1 = ChandyLamport::new(Rank(1), ranks.clone());
        let mut e2 = ChandyLamport::new(Rank(2), ranks.clone());

        let eff = e0.start(1);
        assert!(eff.contains(&CrEffect::TakeCheckpoint { index: 1 }));
        // Records both incoming channels, markers to both peers.
        assert!(eff.contains(&CrEffect::RecordChannel { from: Rank(1) }));
        assert!(eff.contains(&CrEffect::RecordChannel { from: Rank(2) }));
        assert_eq!(
            eff.iter()
                .filter(|e| matches!(e, CrEffect::DataMark { .. }))
                .count(),
            2
        );

        // e1 gets the marker first from 0: snapshots, records only channel 2.
        let eff = e1.on_marker(Rank(0), 1);
        assert!(eff.contains(&CrEffect::TakeCheckpoint { index: 1 }));
        assert!(eff.contains(&CrEffect::RecordChannel { from: Rank(2) }));
        assert!(!eff.contains(&CrEffect::RecordChannel { from: Rank(0) }));

        // e2 snapshots on 0's marker, then finishes on 1's marker.
        e2.on_marker(Rank(0), 1);
        let done2 = e2.on_marker(Rank(1), 1);
        assert!(done2.contains(&CrEffect::StopRecord { from: Rank(1) }));
        assert!(done2.iter().any(|e| matches!(
            e,
            CrEffect::Send {
                to: Rank(0),
                msg: CrMsg::Saved { .. }
            }
        )));
        assert_eq!(e2.phase(), ClPhase::Complete);

        // e1 finishes on 2's marker.
        let done1 = e1.on_marker(Rank(2), 1);
        assert!(done1.iter().any(|e| matches!(e, CrEffect::Send { .. })));

        // e0 finishes when both markers are in, then commits on Saveds.
        e0.on_marker(Rank(1), 1);
        let last = e0.on_marker(Rank(2), 1);
        // Complete, but still waiting for Saveds: only the StopRecord.
        assert_eq!(last, vec![CrEffect::StopRecord { from: Rank(2) }]);
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
        assert_eq!(commit, vec![CrEffect::Committed { index: 1 }]);
        assert_eq!(e0.phase(), ClPhase::Idle);
    }

    #[test]
    fn triggering_channel_recorded_empty() {
        let ranks = vec![Rank(0), Rank(1)];
        let mut e1 = ChandyLamport::new(Rank(1), ranks);
        let eff = e1.on_marker(Rank(0), 1);
        // Only peer channel is 0, whose marker triggered us: nothing to
        // record, so the snapshot is immediately complete.
        assert!(!eff
            .iter()
            .any(|e| matches!(e, CrEffect::RecordChannel { .. })));
        assert_eq!(e1.phase(), ClPhase::Complete);
    }

    /// Regression: a member rests in `Complete` after a round (only the
    /// initiator is reset by the commit). The next round's marker must start
    /// a fresh snapshot instead of being swallowed.
    #[test]
    fn next_round_marker_reopens_member_engine() {
        let ranks = vec![Rank(0), Rank(1)];
        let mut e1 = ChandyLamport::new(Rank(1), ranks);
        e1.on_marker(Rank(0), 1);
        assert_eq!(e1.phase(), ClPhase::Complete);
        let eff = e1.on_marker(Rank(0), 2);
        assert!(
            eff.contains(&CrEffect::TakeCheckpoint { index: 2 }),
            "{eff:?}"
        );
        assert_eq!(e1.index(), 2);
        // A stale duplicate from the finished round stays ignored.
        assert!(e1.on_marker(Rank(0), 1).is_empty());
    }

    #[test]
    fn duplicate_markers_ignored() {
        let ranks = vec![Rank(0), Rank(1), Rank(2)];
        let mut e1 = ChandyLamport::new(Rank(1), ranks);
        e1.on_marker(Rank(0), 1);
        let again = e1.on_marker(Rank(0), 1);
        // Recording and index matches, StopRecord emitted once more is
        // harmless but marker set cannot regress:
        assert!(again.len() <= 1);
        assert_eq!(e1.phase(), ClPhase::Recording);
    }

    #[test]
    fn no_blocking_application_never_pauses() {
        // The CL engine never emits BeginQuiesce or Resume: the app runs on.
        let ranks = vec![Rank(0), Rank(1)];
        let mut e0 = ChandyLamport::new(Rank(0), ranks);
        let eff = e0.start(1);
        assert!(!eff
            .iter()
            .any(|e| matches!(e, CrEffect::BeginQuiesce { .. } | CrEffect::Resume { .. })));
    }
}
