//! Exhaustive model of the Chandy–Lamport snapshot engine
//! ([`starfish_checkpoint::proto::chandy_lamport`]).
//!
//! Markers travel the FIFO data path per channel (the property the
//! algorithm requires); `Saved` reports travel the FIFO control path. The
//! application never blocks, so the interesting adversarial freedom is
//! *which channel's marker arrives first* at each rank, plus back-to-back
//! rounds (a member rests in `Complete` after a round and must reopen on
//! the next round's marker — the regression the engine's `Complete if
//! index > self.index` arm fixes).
//!
//! The model additionally audits the channel-recording discipline the
//! runtime relies on to capture in-flight messages: `RecordChannel{from}`
//! must precede `StopRecord{from}`, a channel is never stopped twice, and a
//! rank's snapshot completes with no channel still recording (otherwise the
//! image would capture an unbounded suffix of traffic).
//!
//! Safety invariants: exactly-once snapshot per (rank, index); a
//! `Committed{k}` implies every rank snapshotted `k`; recording discipline
//! as above. Liveness: every interleaving drains to "all engines resting,
//! all channels empty".

use std::collections::{BTreeMap, BTreeSet};

use starfish_checkpoint::proto::chandy_lamport::{ChandyLamport, ClPhase};
use starfish_checkpoint::proto::{CrEffect, CrMsg};
use starfish_util::Rank;

use super::chan::{self, Fifo};
use crate::explorer::Model;

/// Model parameters: `ranks` participants, `rounds` snapshots back-to-back.
#[derive(Debug, Clone, Copy)]
pub struct ChandyModel {
    pub ranks: u32,
    pub rounds: u64,
}

#[derive(Clone, Debug)]
pub struct ClState {
    engines: Vec<ChandyLamport>,
    /// Data path: markers, FIFO per channel.
    markers: Fifo<u32, u64>,
    /// Control path: `Saved` reports to the initiator.
    ctrl: Fifo<u32, CrMsg>,
    /// Channels each rank is currently recording.
    recording: Vec<BTreeSet<u32>>,
    /// Snapshot count per (rank, index).
    snaps: Vec<BTreeMap<u64, u32>>,
    committed: u64,
    started: u64,
    broken: Option<String>,
}

#[derive(Clone, Debug)]
pub enum ClAction {
    /// Initiator opens snapshot round `started + 1`.
    Start,
    /// Deliver the head marker on channel `from → to`.
    Marker(u32, u32),
    /// Deliver the head control message on `from → to`.
    Ctrl(u32, u32),
}

impl ChandyModel {
    fn apply_effects(&self, s: &mut ClState, rank: u32, effects: Vec<CrEffect>) {
        for eff in effects {
            match eff {
                CrEffect::DataMark {
                    to,
                    msg: CrMsg::Marker { index },
                } => chan::push(&mut s.markers, rank, to.0, index),
                CrEffect::Send { to, msg } => chan::push(&mut s.ctrl, rank, to.0, msg),
                CrEffect::TakeCheckpoint { index } => {
                    *s.snaps[rank as usize].entry(index).or_insert(0) += 1;
                }
                CrEffect::RecordChannel { from } => {
                    if !s.recording[rank as usize].insert(from.0) {
                        s.broken.get_or_insert(format!(
                            "rank {rank} started recording channel {from} twice"
                        ));
                    }
                }
                CrEffect::StopRecord { from } => {
                    if !s.recording[rank as usize].remove(&from.0) {
                        s.broken.get_or_insert(format!(
                            "rank {rank} stopped channel {from} it was not recording"
                        ));
                    }
                }
                CrEffect::Committed { index } => {
                    if index <= s.committed {
                        s.broken
                            .get_or_insert(format!("commit regressed to {index}"));
                    }
                    s.committed = index;
                }
                other => {
                    s.broken
                        .get_or_insert(format!("unexpected CL effect {other:?}"));
                }
            }
        }
    }
}

impl Model for ChandyModel {
    type State = ClState;
    type Action = ClAction;

    fn init(&self) -> Vec<ClState> {
        let ranks: Vec<Rank> = (0..self.ranks).map(Rank).collect();
        vec![ClState {
            engines: (0..self.ranks)
                .map(|r| ChandyLamport::new(Rank(r), ranks.clone()))
                .collect(),
            markers: Fifo::new(),
            ctrl: Fifo::new(),
            recording: vec![BTreeSet::new(); self.ranks as usize],
            snaps: vec![BTreeMap::new(); self.ranks as usize],
            committed: 0,
            started: 0,
            broken: None,
        }]
    }

    fn actions(&self, s: &ClState) -> Vec<ClAction> {
        let mut acts = Vec::new();
        // The initiator returns to Idle on commit; a new round needs every
        // marker of the old one consumed first (the engine tolerates late
        // next-round markers but the *initiator* cannot start early — it is
        // Idle only after its own round finished).
        if s.started < self.rounds && s.engines[0].phase() == ClPhase::Idle {
            acts.push(ClAction::Start);
        }
        for (f, t) in chan::heads(&s.markers) {
            acts.push(ClAction::Marker(f, t));
        }
        for (f, t) in chan::heads(&s.ctrl) {
            acts.push(ClAction::Ctrl(f, t));
        }
        acts
    }

    fn next(&self, s: &ClState, a: &ClAction) -> ClState {
        let mut s = s.clone();
        match a {
            ClAction::Start => {
                s.started += 1;
                let index = s.started;
                let eff = s.engines[0].start(index);
                self.apply_effects(&mut s, 0, eff);
            }
            ClAction::Marker(f, t) => {
                let index = chan::pop(&mut s.markers, *f, *t).expect("enabled action");
                let eff = s.engines[*t as usize].on_marker(Rank(*f), index);
                self.apply_effects(&mut s, *t, eff);
            }
            ClAction::Ctrl(f, t) => {
                let msg = chan::pop(&mut s.ctrl, *f, *t).expect("enabled action");
                let eff = s.engines[*t as usize].on_msg(Rank(*f), &msg);
                self.apply_effects(&mut s, *t, eff);
            }
        }
        s
    }

    fn check(&self, s: &ClState) -> Result<(), String> {
        if let Some(b) = &s.broken {
            return Err(b.clone());
        }
        for (r, snaps) in s.snaps.iter().enumerate() {
            for (idx, n) in snaps {
                if *n > 1 {
                    return Err(format!("rank {r} snapshotted index {idx} {n} times"));
                }
            }
        }
        if s.committed > 0 {
            for (r, snaps) in s.snaps.iter().enumerate() {
                if snaps.get(&s.committed).copied().unwrap_or(0) != 1 {
                    return Err(format!(
                        "index {} committed but rank {r} never snapshotted it",
                        s.committed
                    ));
                }
            }
        }
        // A completed local snapshot must have closed all its recordings.
        for (r, e) in s.engines.iter().enumerate() {
            if e.phase() == ClPhase::Complete && !s.recording[r].is_empty() {
                return Err(format!(
                    "rank {r} complete with channels still recording: {:?}",
                    s.recording[r]
                ));
            }
        }
        Ok(())
    }

    fn accepting(&self, s: &ClState) -> bool {
        chan::is_empty(&s.markers)
            && chan::is_empty(&s.ctrl)
            && s.recording.iter().all(BTreeSet::is_empty)
            && s.engines
                .iter()
                .all(|e| matches!(e.phase(), ClPhase::Idle | ClPhase::Complete))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, Options};

    #[test]
    fn three_ranks_two_rounds_clean() {
        let m = ChandyModel {
            ranks: 3,
            rounds: 2,
        };
        let r = explore(&m, Options::default());
        assert!(r.clean(), "{:?}", r.violation);
        assert!(r.states > 100, "nontrivial space expected: {}", r.states);
    }

    #[test]
    fn four_ranks_one_round_clean() {
        let m = ChandyModel {
            ranks: 4,
            rounds: 1,
        };
        let r = explore(&m, Options::default());
        assert!(r.clean(), "{:?}", r.violation);
    }

    #[test]
    fn invariant_rejects_commit_without_snapshot() {
        let m = ChandyModel {
            ranks: 2,
            rounds: 1,
        };
        let mut s = m.init().pop().unwrap();
        s.committed = 1;
        assert!(m.check(&s).is_err());
    }
}
