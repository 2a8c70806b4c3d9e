//! Checkpoint-fragment replication over the MPI transfer paths.
//!
//! The diskless replica backend ([`starfish_checkpoint::replica`]) splits a
//! rank's checkpoint image into fragments and pushes each to `k` peer
//! nodes. Those pushes ride the same two transfer paths as application
//! data: fragments under the rendezvous threshold go out eagerly, larger
//! ones use the RTS/CTS rendezvous handshake — so replication traffic obeys
//! the same flow control as everything else on the fabric.
//!
//! This module is the flow-machinery side of that design: a test holds the
//! store's cost model, `ReplicaNet::lan_1999`, to the *real*
//! [`DEFAULT_RNDV_THRESHOLD`](crate::DEFAULT_RNDV_THRESHOLD), and
//! [`PushSession`] tracks the per-fragment acks of a push so a checkpoint
//! round can know when every replica is durable in peer memory. The ack
//! protocol is model-checked in `crates/verify` (`models/replica.rs`),
//! which is so far its only driver: the deployed `CkptStore::put` of a
//! replica image is a synchronous in-memory write.

use std::collections::BTreeSet;

use starfish_checkpoint::replica::Fragment;
use starfish_util::NodeId;

/// Ack tracking for one in-progress fragment push: the round may only
/// commit once every `(fragment, replica)` copy has been acknowledged by
/// its hosting peer.
#[derive(Debug, Default, Clone)]
pub struct PushSession {
    pending: BTreeSet<(u32, NodeId)>,
}

impl PushSession {
    /// Start tracking a push of `frags` (a `Placement`'s data fragments
    /// plus its parity).
    pub fn begin(frags: &[Fragment]) -> PushSession {
        let pending = frags
            .iter()
            .flat_map(|f| f.replicas.iter().map(move |n| (f.seq, *n)))
            .collect();
        PushSession { pending }
    }

    /// A peer acknowledged its copy of fragment `seq`. Returns `true` if
    /// this ack was still outstanding (duplicates are idempotent).
    pub fn ack(&mut self, seq: u32, from: NodeId) -> bool {
        self.pending.remove(&(seq, from))
    }

    /// A peer died mid-push: its outstanding copies will never be acked.
    /// Returns the fragment seqs that lost a pending copy — the caller
    /// re-pushes those to substitute peers (or commits under-replicated).
    pub fn peer_lost(&mut self, node: NodeId) -> Vec<u32> {
        let lost: Vec<u32> = self
            .pending
            .iter()
            .filter(|(_, n)| *n == node)
            .map(|(s, _)| *s)
            .collect();
        self.pending.retain(|(_, n)| *n != node);
        lost
    }

    /// A substitute copy was pushed after a peer loss: the round must now
    /// also wait for this peer's ack. Returns `true` if the copy was not
    /// already pending.
    pub fn repush(&mut self, seq: u32, to: NodeId) -> bool {
        self.pending.insert((seq, to))
    }

    /// Copies still awaiting acknowledgement.
    pub fn outstanding(&self) -> usize {
        self.pending.len()
    }

    /// Every copy acked: the checkpoint is durable in peer memory.
    pub fn complete(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::credit::DEFAULT_RNDV_THRESHOLD;
    use starfish_checkpoint::replica::{ReplicaNet, DEFAULT_FRAG_BYTES};

    #[test]
    fn replica_net_tracks_the_live_mpi_threshold() {
        // The checkpoint store charges replica pushes with the LAN model:
        // its copy of the threshold must agree with the data path's.
        let net = ReplicaNet::lan_1999();
        assert_eq!(net.rndv_threshold, DEFAULT_RNDV_THRESHOLD as u64);
        assert_eq!(net.frag_bytes, DEFAULT_FRAG_BYTES);
    }

    #[test]
    fn push_session_completes_only_after_every_ack() {
        let frags = vec![
            Fragment {
                seq: 0,
                bytes: 100,
                replicas: vec![NodeId(1), NodeId(2)],
            },
            Fragment {
                seq: 1,
                bytes: 100,
                replicas: vec![NodeId(2), NodeId(3)],
            },
        ];
        let mut s = PushSession::begin(&frags);
        assert_eq!(s.outstanding(), 4);
        assert!(s.ack(0, NodeId(1)));
        assert!(!s.ack(0, NodeId(1)), "duplicate ack is idempotent");
        assert!(!s.ack(0, NodeId(3)), "unknown copy ignored");
        assert!(s.ack(0, NodeId(2)));
        assert!(!s.complete());
        assert!(s.ack(1, NodeId(2)));
        assert!(s.ack(1, NodeId(3)));
        assert!(s.complete());
    }

    #[test]
    fn peer_loss_reports_fragments_needing_repush() {
        let frags = vec![
            Fragment {
                seq: 0,
                bytes: 100,
                replicas: vec![NodeId(1), NodeId(2)],
            },
            Fragment {
                seq: 1,
                bytes: 100,
                replicas: vec![NodeId(2), NodeId(3)],
            },
        ];
        let mut s = PushSession::begin(&frags);
        let lost = s.peer_lost(NodeId(2));
        assert_eq!(lost, vec![0, 1]);
        assert_eq!(s.outstanding(), 2);
        // Substitute copies re-arm the session until the new peer acks.
        for seq in lost {
            assert!(s.repush(seq, NodeId(4)));
        }
        assert_eq!(s.outstanding(), 4);
        s.ack(0, NodeId(1));
        s.ack(1, NodeId(3));
        s.ack(0, NodeId(4));
        s.ack(1, NodeId(4));
        assert!(s.complete());
        // Already-acked copies are not re-reported by a later loss.
        assert!(s.peer_lost(NodeId(1)).is_empty());
    }
}
