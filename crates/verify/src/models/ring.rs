//! Exhaustive model of the ring reduce-scatter phase of
//! [`starfish_mpi::collectives`]'s bandwidth-optimal allreduce, run over
//! the *deployed* reliability machines: one real `FlowTx`/`FlowRx` pair
//! ([`Link`]) per directed ring link `r → r+1 mod n`, exactly the flows the
//! endpoint drives under every collective step.
//!
//! The protocol layer is the ring index arithmetic of
//! `collectives/ring.rs`: in step `s` rank `me` sends its partial of
//! block `me − s` (mod n) to the right and receives-and-reduces block
//! `me − s − 1` from the left; sends are gated the way the real
//! full-duplex `exchange_segments` loop gates them (step `s+1` is posted
//! only after step `s`'s receive completed). After `n−1` steps rank `me`
//! owns the fully reduced block `me + 1`.
//!
//! Each wire is an unordered set of `(seq, payload)` frames — the
//! adversary delivers in any order, may drop up to `max_drops` and
//! deliver-without-consuming up to `max_dups` frames across all links,
//! the same fault model [`starfish_vni::LinkFault`] injects on the ring
//! fault bank's links. `Ping`/`Flush` collapse the repair round trips per
//! link exactly as the reliability model does.
//!
//! Contributions are distinct bit masks (`rank r` contributes `1 << r`)
//! and partials accumulate with `+`, so the safety oracle is
//! *exactly-once arithmetic*: every frame's payload must equal the
//! closed-form partial for its (link, step) slot — a duplicated
//! contribution doubles a bit, a lost one clears it, and either breaks
//! the equality the moment it surfaces. The accepting states demand every
//! rank's owned block carry the full mask, so the explorer's liveness
//! pass proves the flows can always repair the ring back to a correct
//! quiescent reduce-scatter.

use super::link::Link;
use crate::explorer::Model;

/// Model parameters.
#[derive(Debug, Clone, Copy)]
pub struct RingModel {
    /// Ring size (blocks == ranks; each rank sends `ranks − 1` partials).
    pub ranks: usize,
    /// Wire drop budget, shared across all links.
    pub max_drops: u32,
    /// Wire duplication budget, shared across all links.
    pub max_dups: u32,
    /// Retransmission window of every flow; must cover the
    /// in-flight span (`ranks − 1`) for the liveness claim to hold.
    pub window: usize,
}

#[derive(Clone, Debug)]
pub struct RingState {
    /// Directed ring link `i → (i+1) % n`, frames carrying partials.
    links: Vec<Link<u64>>,
    /// `acc[r][b]`: rank `r`'s current partial of block `b` (bit mask).
    acc: Vec<Vec<u64>>,
    /// Reduce-scatter steps posted by each rank (onto link `r`).
    sent: Vec<u32>,
    /// Incoming partials applied by each rank (from link `r−1`).
    applied: Vec<u32>,
    drops_left: u32,
    dups_left: u32,
    /// First exactly-once violation observed while applying a delivery;
    /// surfaces through `check` so the explorer reports the trace.
    corrupt: Option<String>,
}

#[derive(Clone, Debug)]
pub enum RingAction {
    /// Rank `r` posts its next reduce-scatter step on link `r`.
    Send(usize),
    /// Link `i` delivers frame `seq` (consuming it).
    Deliver(usize, u64),
    /// Link `i` duplicates frame `seq`: delivers a copy, keeps the original.
    Duplicate(usize, u64),
    /// Link `i` drops frame `seq`.
    Drop(usize, u64),
    /// Link `i`'s cumulative ack reaches its sender; unacked retransmit.
    Ping(usize),
    /// Link `i`'s tail-loss probe: receiver NACKs gaps, sender resends.
    Flush(usize),
}

impl RingModel {
    fn contribution(&self, r: usize) -> u64 {
        1 << r
    }

    fn full_mask(&self) -> u64 {
        (1 << self.ranks) - 1
    }

    /// The closed-form payload of step `s` on link `r → r+1`: rank `r`'s
    /// partial of block `(r − s) mod n` after `s` upstream contributions
    /// have been folded in — the OR (== sum, bits are distinct) of the
    /// contributions of ranks `r−s ..= r`.
    fn expected_payload(&self, r: usize, s: usize) -> u64 {
        let n = self.ranks;
        (0..=s).fold(0, |m, k| m | self.contribution((r + n - k) % n))
    }

    /// Fold one in-order delivery on link `i` into rank `i+1`'s state.
    fn apply(&self, s: &mut RingState, i: usize, payload: u64) {
        let n = self.ranks;
        let dst = (i + 1) % n;
        let step = s.applied[dst] as usize;
        let want = self.expected_payload(i, step);
        if payload != want {
            s.corrupt.get_or_insert(format!(
                "link {i} step {step}: payload {payload:#b} != expected {want:#b}"
            ));
            return;
        }
        // Receiving rank `dst` reduces block `dst − step − 1 = i − step`.
        let block = (i + n - step) % n;
        s.acc[dst][block] += payload;
        s.applied[dst] += 1;
    }
}

impl Model for RingModel {
    type State = RingState;
    type Action = RingAction;

    fn init(&self) -> Vec<RingState> {
        vec![RingState {
            links: vec![Link::new(self.window); self.ranks],
            acc: (0..self.ranks)
                .map(|r| vec![self.contribution(r); self.ranks])
                .collect(),
            sent: vec![0; self.ranks],
            applied: vec![0; self.ranks],
            drops_left: self.max_drops,
            dups_left: self.max_dups,
            corrupt: None,
        }]
    }

    fn actions(&self, s: &RingState) -> Vec<RingAction> {
        let steps = self.ranks as u32 - 1;
        let mut acts = Vec::new();
        for r in 0..self.ranks {
            // The full-duplex exchange loop: step s+1 posts only after
            // step s's receive landed (step 0 posts unconditionally).
            if s.sent[r] < steps && (s.sent[r] == 0 || s.applied[r] >= s.sent[r]) {
                acts.push(RingAction::Send(r));
            }
        }
        for (i, l) in s.links.iter().enumerate() {
            for &(seq, _) in &l.wire {
                acts.push(RingAction::Deliver(i, seq));
                if s.dups_left > 0 {
                    acts.push(RingAction::Duplicate(i, seq));
                }
                if s.drops_left > 0 {
                    acts.push(RingAction::Drop(i, seq));
                }
            }
            if s.sent[i] > 0 {
                acts.push(RingAction::Ping(i));
                acts.push(RingAction::Flush(i));
            }
        }
        acts
    }

    fn next(&self, s: &RingState, a: &RingAction) -> RingState {
        let mut s = s.clone();
        match a {
            RingAction::Send(r) => {
                let step = s.sent[*r] as usize;
                let n = self.ranks;
                let block = (*r + n - step) % n;
                let payload = s.acc[*r][block];
                s.sent[*r] += 1;
                s.links[*r].send(payload);
            }
            RingAction::Deliver(i, seq) | RingAction::Duplicate(i, seq) => {
                let dup = matches!(a, RingAction::Duplicate(..));
                if dup {
                    s.dups_left -= 1;
                }
                for (_, payload) in s.links[*i].deliver(*seq, dup) {
                    self.apply(&mut s, *i, payload);
                }
            }
            RingAction::Drop(i, seq) => {
                s.links[*i].take(*seq, false);
                s.drops_left -= 1;
            }
            RingAction::Ping(i) => s.links[*i].ping(),
            RingAction::Flush(i) => s.links[*i].flush(),
        }
        s
    }

    fn check(&self, s: &RingState) -> Result<(), String> {
        if let Some(c) = &s.corrupt {
            return Err(format!("exactly-once arithmetic violated: {c}"));
        }
        // Every partial is always a sub-mask of the full sum: a duplicate
        // contribution that slipped past the flows would carry a bit out
        // of range the moment it lands.
        for (r, blocks) in s.acc.iter().enumerate() {
            for (b, v) in blocks.iter().enumerate() {
                if *v & !self.full_mask() != 0 {
                    return Err(format!(
                        "rank {r} block {b} partial {v:#b} overflows the contribution mask"
                    ));
                }
            }
        }
        Ok(())
    }

    fn accepting(&self, s: &RingState) -> bool {
        let steps = self.ranks as u32 - 1;
        let n = self.ranks;
        s.sent.iter().all(|&k| k == steps)
            && s.applied.iter().all(|&k| k == steps)
            && s.links.iter().all(|l| l.wire.is_empty())
            && (0..n).all(|r| s.acc[r][(r + 1) % n] == self.full_mask())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, Options, ViolationKind};

    /// The acceptance configuration: a 3-ring with loss, duplication and
    /// free reorder on every link — the flows must keep the reduce-scatter
    /// arithmetic exactly-once from every reachable state.
    #[test]
    fn ring_reduce_scatter_survives_loss_dup_reorder() {
        let m = RingModel {
            ranks: 3,
            max_drops: 1,
            max_dups: 1,
            window: 8,
        };
        let r = explore(&m, Options::default());
        assert!(r.clean(), "{:?}", r.violation);
        assert!(r.states > 500, "nontrivial space expected: {}", r.states);
        assert!(r.accepting > 0, "the ring must be able to finish");
    }

    /// Mutation test for the liveness claim: a retransmission window of 1
    /// cannot cover the 2-step in-flight span, so a dropped first frame
    /// that slid out of the buffer is unrepairable and the pass must
    /// refuse the configuration.
    #[test]
    fn undersized_window_fails_liveness() {
        let m = RingModel {
            ranks: 3,
            max_drops: 1,
            max_dups: 0,
            window: 1,
        };
        let r = explore(&m, Options::default());
        let v = r.violation.expect("window 1 cannot repair the ring");
        assert_eq!(v.kind, ViolationKind::Livelock, "{v:?}");
    }

    /// The closed-form payloads match a direct simulation of the ring
    /// arithmetic: step s on link r carries s+1 consecutive contributions
    /// ending at rank r.
    #[test]
    fn expected_payloads_match_the_ring_index_arithmetic() {
        let m = RingModel {
            ranks: 5,
            max_drops: 0,
            max_dups: 0,
            window: 8,
        };
        assert_eq!(m.expected_payload(0, 0), 0b00001);
        assert_eq!(m.expected_payload(0, 1), 0b10001);
        assert_eq!(m.expected_payload(4, 3), 0b11110);
        for r in 0..5 {
            assert_eq!(m.expected_payload(r, 4), m.full_mask());
        }
    }
}
