//! Recovery-line computation for uncoordinated checkpointing.
//!
//! With independent checkpointing, processes snapshot on their own schedule
//! and the system must find, after a failure, the most recent *consistent*
//! global checkpoint — the recovery line \[14,32\]. A global checkpoint is
//! inconsistent if it contains an *orphan* message: one whose receipt is
//! remembered by the receiver's checkpoint but whose send was rolled back.
//! Eliminating orphans can force further rollbacks — the classic *domino
//! effect* \[34,41\], which the bench report's `ablation_domino` section
//! quantifies.
//!
//! Model: process `p`'s execution is divided into checkpoint intervals;
//! interval `k` is the execution *after* checkpoint `k` (interval 0 runs
//! from the start to checkpoint 1). "Rolling back to checkpoint `k`" means
//! re-executing from the start of interval `k`. A message logged as
//! `MsgDep { sender, send_interval, receiver, recv_interval }` was sent in
//! the sender's interval `send_interval` and received in the receiver's
//! interval `recv_interval`.

use std::collections::BTreeMap;

use starfish_util::Rank;

/// One logged message dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MsgDep {
    pub sender: Rank,
    pub send_interval: u64,
    pub receiver: Rank,
    pub recv_interval: u64,
}

/// The computed recovery line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryLine {
    /// Checkpoint index each rank must restart from.
    pub(crate) line: BTreeMap<Rank, u64>,
    /// Checkpoints discarded relative to each rank's latest
    /// (`latest[r] - line[r]`), summed — the domino-effect cost.
    pub rolled_back: u64,
    /// Number of fixpoint iterations the algorithm needed.
    pub(crate) iterations: u32,
}

impl RecoveryLine {
    pub fn index_of(&self, r: Rank) -> u64 {
        self.line.get(&r).copied().unwrap_or(0)
    }
}

/// Compute the recovery line after `failed` ranks are forced back to their
/// latest stored checkpoints.
///
/// `latest` maps each rank to its highest stored checkpoint index (0 = only
/// the initial state exists). `deps` is the message log. The algorithm is
/// the standard rollback-propagation fixpoint: start from everyone's latest
/// checkpoint and repeatedly cut receivers back below any orphaned receive.
/// It terminates because candidate indices only decrease and are bounded by
/// zero; the result is the *maximal* consistent line by the lattice argument
/// of \[32\].
pub fn recovery_line(
    latest: &BTreeMap<Rank, u64>,
    deps: &[MsgDep],
    failed: &[Rank],
) -> RecoveryLine {
    // Candidates start at the latest checkpoint of every process. (For the
    // failed processes, the volatile state is gone, so "latest" is already
    // the best they can do; the entry applies to them identically.)
    let mut line = latest.clone();
    for f in failed {
        line.entry(*f).or_insert(0);
    }
    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut changed = false;
        for d in deps {
            let c_s = line.get(&d.sender).copied().unwrap_or(0);
            let c_r = line.get(&d.receiver).copied().unwrap_or(0);
            // Orphan: the send happens in interval >= c_s (it will be rolled
            // back and re-executed), but the receive is already reflected in
            // the receiver's checkpoint c_r (received in an interval < c_r).
            if d.send_interval >= c_s && d.recv_interval < c_r {
                // Receiver must fall back to a checkpoint not later than the
                // receive interval start.
                let new_cr = d.recv_interval.min(c_r - 1);
                if new_cr < c_r {
                    line.insert(d.receiver, new_cr);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let rolled_back = latest
        .iter()
        .map(|(r, l)| l.saturating_sub(line.get(r).copied().unwrap_or(0)))
        .sum();
    RecoveryLine {
        line,
        rolled_back,
        iterations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn latest(pairs: &[(u32, u64)]) -> BTreeMap<Rank, u64> {
        pairs.iter().map(|(r, i)| (Rank(*r), *i)).collect()
    }

    fn dep(s: u32, si: u64, r: u32, ri: u64) -> MsgDep {
        MsgDep {
            sender: Rank(s),
            send_interval: si,
            receiver: Rank(r),
            recv_interval: ri,
        }
    }

    #[test]
    fn no_messages_no_rollback() {
        let l = latest(&[(0, 3), (1, 2)]);
        let rl = recovery_line(&l, &[], &[Rank(0)]);
        assert_eq!(rl.rolled_back, 0);
        assert_eq!(rl.index_of(Rank(0)), 3);
        assert_eq!(rl.index_of(Rank(1)), 2);
    }

    #[test]
    fn consistent_messages_no_rollback() {
        // Message sent in interval 0, received in interval 0; both have
        // checkpoints at index 1 taken after the exchange.
        let l = latest(&[(0, 1), (1, 1)]);
        let deps = [dep(0, 0, 1, 0)];
        let rl = recovery_line(&l, &deps, &[Rank(0)]);
        assert_eq!(rl.rolled_back, 0);
    }

    #[test]
    fn orphan_forces_receiver_rollback() {
        // Rank 0 sent in its interval 2 (after its checkpoint 2 = its
        // latest, so the send is rolled back). Rank 1 received it in
        // interval 1 and then took checkpoint 2 (latest): that checkpoint
        // remembers an unsent message.
        let l = latest(&[(0, 2), (1, 2)]);
        let deps = [dep(0, 2, 1, 1)];
        let rl = recovery_line(&l, &deps, &[Rank(0)]);
        assert_eq!(rl.index_of(Rank(0)), 2);
        assert_eq!(rl.index_of(Rank(1)), 1);
        assert_eq!(rl.rolled_back, 1);
    }

    #[test]
    fn domino_chain_cascades() {
        // Classic staircase: 0 -> 1 -> 2 -> 3, each message orphaned by the
        // previous rollback.
        let l = latest(&[(0, 1), (1, 2), (2, 2), (3, 2)]);
        let deps = [
            dep(0, 1, 1, 1), // rolled-back send (interval 1 >= c_0=1) received before ckpt 2
            dep(1, 1, 2, 1),
            dep(2, 1, 3, 1),
        ];
        let rl = recovery_line(&l, &deps, &[Rank(0)]);
        assert_eq!(rl.index_of(Rank(1)), 1);
        assert_eq!(rl.index_of(Rank(2)), 1);
        assert_eq!(rl.index_of(Rank(3)), 1);
        assert_eq!(rl.rolled_back, 3);
        assert!(rl.iterations >= 2, "cascade needs multiple passes");
    }

    #[test]
    fn domino_to_initial_state() {
        // Worst case: every checkpoint is orphaned; everyone restarts from
        // the beginning.
        let l = latest(&[(0, 1), (1, 1)]);
        let deps = [
            dep(0, 1, 1, 0), // orphan: kills 1's ckpt 1
            dep(1, 0, 0, 0), // now 1 re-executes interval 0, orphaning 0's receive before ckpt 1
        ];
        let rl = recovery_line(&l, &deps, &[Rank(0)]);
        assert_eq!(rl.index_of(Rank(0)), 0);
        assert_eq!(rl.index_of(Rank(1)), 0);
        assert_eq!(rl.rolled_back, 2);
    }

    #[test]
    fn unrelated_processes_untouched() {
        let l = latest(&[(0, 5), (1, 4), (2, 7)]);
        // Only 0 and 1 exchange messages; 2 is independent.
        let deps = [dep(0, 5, 1, 3)];
        let rl = recovery_line(&l, &deps, &[Rank(0)]);
        assert_eq!(rl.index_of(Rank(2)), 7);
        assert_eq!(rl.index_of(Rank(1)), 3);
    }

    #[test]
    fn discarded_counts() {
        // Rank 1 received in interval 0 what rank 0 sends again after its
        // rollback: rank 1 discards both of its checkpoints, rank 0 none.
        let l = latest(&[(0, 2), (1, 2)]);
        let deps = [dep(0, 2, 1, 0)];
        let rl = recovery_line(&l, &deps, &[Rank(0)]);
        assert_eq!((rl.index_of(Rank(0)), rl.index_of(Rank(1))), (2, 0));
        assert_eq!(rl.rolled_back, 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// The computed line is always consistent: no orphan remains.
        #[test]
        fn line_is_consistent(
            latest_v in proptest::collection::vec(0u64..6, 2..6),
            deps_raw in proptest::collection::vec(
                (0usize..6, 0u64..6, 0usize..6, 0u64..6), 0..40
            ),
        ) {
            let n = latest_v.len();
            let latest: BTreeMap<Rank, u64> = latest_v
                .iter()
                .enumerate()
                .map(|(i, l)| (Rank(i as u32), *l))
                .collect();
            let deps: Vec<MsgDep> = deps_raw
                .into_iter()
                .filter(|(s, _, r, _)| s % n != r % n)
                .map(|(s, si, r, ri)| MsgDep {
                    sender: Rank((s % n) as u32),
                    send_interval: si,
                    receiver: Rank((r % n) as u32),
                    recv_interval: ri,
                })
                .collect();
            let rl = recovery_line(&latest, &deps, &[Rank(0)]);
            // Verify consistency directly.
            for d in &deps {
                let c_s = rl.index_of(d.sender);
                let c_r = rl.index_of(d.receiver);
                prop_assert!(
                    !(d.send_interval >= c_s && d.recv_interval < c_r),
                    "orphan remains: {d:?} against line {:?}", rl.line
                );
            }
            // The line never exceeds the latest checkpoints.
            for (r, l) in &latest {
                prop_assert!(rl.index_of(*r) <= *l);
            }
        }
    }
}
