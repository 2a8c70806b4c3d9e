//! Exhaustive model of the diskless checkpoint fragment push/ack protocol
//! ([`starfish_mpi::replication::PushSession`] over
//! [`starfish_checkpoint::replica::ring_placement`]) under peer-node
//! crashes.
//!
//! The state owns the *deployed* pieces — the real ring placement map and a
//! real [`PushSession`] ack tracker — and the model supplies the
//! environment: copies in flight on the wire, peer memories, acks in
//! flight, and fail-stop crashes with the owner-side recovery discipline
//! the runtime uses:
//!
//! * a crash drops the dead peer's memory, its undelivered copies and its
//!   unprocessed acks (fail-stop: the view change severs the link);
//! * the owner calls [`PushSession::peer_lost`] and, pre-commit, re-pushes
//!   every fragment that lost a copy — *including already-acked copies*,
//!   the subtle case: an ack only certifies the copy was stored, not that
//!   it survives — to a substitute live peer via
//!   [`PushSession::repush`], re-arming the session;
//! * the round commits exactly when the session completes (every pushed
//!   copy acked). If replication strength cannot be restored for lack of
//!   peers, the round commits `under_replicated`, which voids the loss
//!   guarantee — mirroring a replica image's `Placement::under_replicated`
//!   in the checkpoint store.
//!
//! Safety invariants:
//! * **commit soundness** — a committed round's placement map only lists
//!   copies that are actually stored in live peer memory (an ack from a
//!   since-dead peer must never stand in for a copy);
//! * **k−1-loss guarantee** — after a full-strength (not under-replicated)
//!   commit, fewer than `k` post-commit crashes leave at least one live
//!   stored copy of every fragment;
//! * **no orphaned waits** — with nothing on the wire and no ack in
//!   flight, the session must be complete (every pending copy is always
//!   backed by an in-flight copy or ack, so the push cannot wedge).
//!
//! Liveness: from every reachable state the run can reach a quiescent
//! accepting state (wire and ack channels empty, round committed).

use std::collections::BTreeSet;

use starfish_checkpoint::replica::{ring_placement, Fragment};
use starfish_mpi::PushSession;
use starfish_util::NodeId;

use crate::explorer::Model;

/// Model parameters: the owner (node 0) pushes `frags` fragments at
/// replication strength `k` to peers `1..=peers`, of which up to `crashes`
/// may fail-stop at any point.
#[derive(Debug, Clone, Copy)]
pub struct ReplicaPushModel {
    pub peers: u32,
    pub frags: u32,
    pub k: u8,
    pub crashes: u32,
}

#[derive(Clone, Debug)]
pub struct RpState {
    /// The deployed ack tracker.
    session: PushSession,
    /// The placement map: which peers are supposed to hold each fragment.
    /// Crash surgery removes dead peers; re-push appends substitutes.
    placement: Vec<Fragment>,
    /// Live peer nodes.
    live: BTreeSet<u32>,
    /// Copies pushed but not yet delivered: `(seq, peer)`.
    wire: BTreeSet<(u32, u32)>,
    /// Copies resident in peer memory.
    stored: BTreeSet<(u32, u32)>,
    /// Acks sent by peers but not yet processed by the owner.
    acks: BTreeSet<(u32, u32)>,
    committed: bool,
    /// Replication strength could not be maintained (peers exhausted).
    under_replicated: bool,
    crashes_left: u32,
    post_commit_crashes: u32,
}

#[derive(Clone, Debug)]
pub enum RpAction {
    /// Copy `(seq, peer)` lands in the peer's memory; the peer acks.
    Deliver(u32, u32),
    /// The owner processes the peer's ack for `(seq, peer)`.
    Ack(u32, u32),
    /// Peer fail-stops; the owner runs the loss recovery discipline.
    Crash(u32),
}

impl ReplicaPushModel {
    /// Commit the moment every pushed copy is acked — the same "session
    /// complete" door the runtime uses.
    fn maybe_commit(s: &mut RpState) {
        if !s.committed && s.session.complete() {
            s.committed = true;
        }
    }
}

impl Model for ReplicaPushModel {
    type State = RpState;
    type Action = RpAction;

    fn init(&self) -> Vec<RpState> {
        let peers: Vec<NodeId> = (1..=self.peers).map(NodeId).collect();
        let placement: Vec<Fragment> = (0..self.frags)
            .map(|f| Fragment {
                seq: f,
                bytes: 1,
                replicas: ring_placement(&peers, f, self.k),
            })
            .collect();
        let session = PushSession::begin(&placement);
        let wire: BTreeSet<(u32, u32)> = placement
            .iter()
            .flat_map(|f| f.replicas.iter().map(move |n| (f.seq, n.0)))
            .collect();
        let under_replicated = (peers.len() as u32) < u32::from(self.k);
        let mut s = RpState {
            session,
            placement,
            live: (1..=self.peers).collect(),
            wire,
            stored: BTreeSet::new(),
            acks: BTreeSet::new(),
            committed: false,
            under_replicated,
            crashes_left: self.crashes,
            post_commit_crashes: 0,
        };
        Self::maybe_commit(&mut s);
        vec![s]
    }

    fn actions(&self, s: &RpState) -> Vec<RpAction> {
        let mut acts: Vec<RpAction> = Vec::new();
        for (seq, n) in &s.wire {
            acts.push(RpAction::Deliver(*seq, *n));
        }
        for (seq, n) in &s.acks {
            acts.push(RpAction::Ack(*seq, *n));
        }
        if s.crashes_left > 0 {
            for n in &s.live {
                acts.push(RpAction::Crash(*n));
            }
        }
        acts
    }

    fn next(&self, s: &RpState, a: &RpAction) -> RpState {
        let mut s = s.clone();
        match a {
            RpAction::Deliver(seq, n) => {
                s.wire.remove(&(*seq, *n));
                s.stored.insert((*seq, *n));
                s.acks.insert((*seq, *n));
            }
            RpAction::Ack(seq, n) => {
                s.acks.remove(&(*seq, *n));
                s.session.ack(*seq, NodeId(*n));
                Self::maybe_commit(&mut s);
            }
            RpAction::Crash(n) => {
                // Fail-stop: the peer's memory, its undelivered copies and
                // its unprocessed acks all vanish with the view change.
                s.live.remove(n);
                s.wire.retain(|(_, p)| p != n);
                s.stored.retain(|(_, p)| p != n);
                s.acks.retain(|(_, p)| p != n);
                s.crashes_left -= 1;
                if s.committed {
                    s.post_commit_crashes += 1;
                }
                s.session.peer_lost(NodeId(*n));
                // Owner-side recovery: every fragment that lost a copy —
                // pending *or already acked* — is re-pushed to a substitute
                // live peer, re-arming the session; the round only commits
                // once the substitutes ack. Post-commit, the round is
                // closed: the next checkpoint round re-replicates.
                for frag in &mut s.placement {
                    frag.replicas.retain(|r| r.0 != *n);
                    if s.committed {
                        continue;
                    }
                    while frag.replicas.len() < usize::from(self.k) {
                        let sub = s
                            .live
                            .iter()
                            .copied()
                            .find(|p| !frag.replicas.contains(&NodeId(*p)));
                        match sub {
                            Some(p) => {
                                frag.replicas.push(NodeId(p));
                                s.session.repush(frag.seq, NodeId(p));
                                s.wire.insert((frag.seq, p));
                            }
                            None => {
                                s.under_replicated = true;
                                break;
                            }
                        }
                    }
                }
                Self::maybe_commit(&mut s);
            }
        }
        s
    }

    fn check(&self, s: &RpState) -> Result<(), String> {
        if s.committed {
            // Commit soundness: the placement map never lists a copy that
            // is not actually resident in live peer memory.
            for f in &s.placement {
                for r in &f.replicas {
                    if !s.stored.contains(&(f.seq, r.0)) {
                        return Err(format!(
                            "committed with fragment {} listed on node {} but not stored there",
                            f.seq, r.0
                        ));
                    }
                }
            }
            // k−1-loss guarantee after a full-strength commit.
            if !s.under_replicated && s.post_commit_crashes < u32::from(self.k) {
                for f in &s.placement {
                    if f.replicas.is_empty() {
                        return Err(format!(
                            "fragment {} lost every copy after only {} post-commit crashes (k={})",
                            f.seq, s.post_commit_crashes, self.k
                        ));
                    }
                }
            }
        }
        // No orphaned waits: every pending copy is backed by an in-flight
        // copy or ack, so a drained wire means a complete session.
        if s.wire.is_empty() && s.acks.is_empty() && !s.session.complete() {
            return Err(format!(
                "session waits on {} copies with nothing in flight",
                s.session.outstanding()
            ));
        }
        Ok(())
    }

    fn accepting(&self, s: &RpState) -> bool {
        s.wire.is_empty() && s.acks.is_empty() && s.committed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, Options};

    /// The acceptance configuration: k=2 over four peers, three fragments,
    /// up to two crashes — covers crash-before-delivery,
    /// crash-after-ack-before-commit (the re-push race) and both
    /// post-commit loss orders.
    #[test]
    fn k2_four_peers_two_crashes_clean() {
        let m = ReplicaPushModel {
            peers: 4,
            frags: 3,
            k: 2,
            crashes: 2,
        };
        let r = explore(&m, Options::default());
        assert!(r.clean(), "{:?}", r.violation);
        assert!(r.states > 1000, "expected a nontrivial space: {}", r.states);
    }

    #[test]
    fn k3_exhausting_peers_commits_under_replicated_not_wedged() {
        // Three peers at k=3: the first crash leaves no substitute, so the
        // round must commit under-replicated rather than deadlock, and the
        // loss guarantee is (correctly) voided rather than violated.
        let m = ReplicaPushModel {
            peers: 3,
            frags: 2,
            k: 3,
            crashes: 2,
        };
        let r = explore(&m, Options::default());
        assert!(r.clean(), "{:?}", r.violation);
    }

    #[test]
    fn k1_single_copy_survives_the_model_but_not_losses() {
        // k=1 with one crash: the lone copy can be re-pushed pre-commit;
        // post-commit the guarantee only covers zero crashes, so the model
        // stays clean while offering no k−1 slack.
        let m = ReplicaPushModel {
            peers: 3,
            frags: 2,
            k: 1,
            crashes: 1,
        };
        let r = explore(&m, Options::default());
        assert!(r.clean(), "{:?}", r.violation);
    }

    /// Mutation sanity: the commit-soundness invariant rejects a forged
    /// state where an ack stood in for a copy a dead peer took with it.
    #[test]
    fn invariant_rejects_commit_backed_by_dead_memory() {
        let m = ReplicaPushModel {
            peers: 2,
            frags: 1,
            k: 2,
            crashes: 0,
        };
        let mut s = m.init().pop().unwrap();
        s.wire.clear();
        s.committed = true; // forged: nothing was ever stored
        assert!(m.check(&s).is_err());
    }
}
