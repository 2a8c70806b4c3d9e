//! The rank → node directory.
//!
//! The daemons decide where each application process runs — initially at
//! spawn, and again when a process is migrated or restarted on a surviving
//! node (paper §3.2). The directory is the authoritative, shared view of
//! that placement, plus the application's current restart epoch, which the
//! MPI layer stamps on every message so that traffic from a rolled-back past
//! is discarded.
//!
//! It is also where a rank learns that a peer it could not reach has become
//! reachable: every bound endpoint leaves a [`Kick`] here, and a placement
//! change or a newly bound port kicks the others, so a send that failed with
//! "not placed" / "no port bound" is retried on the change instead of on a
//! timer.

use std::sync::Arc;

use parking_lot::RwLock;

use starfish_util::{Epoch, Error, NodeId, Rank, Result};
use starfish_vni::Kick;

#[derive(Default)]
struct DirInner {
    placement: Vec<Option<NodeId>>,
    epoch: Epoch,
    /// The wake-up handle of each rank's currently bound endpoint.
    bound: Vec<(Rank, Kick)>,
}

/// Shared placement directory of one application. Cheap to clone.
#[derive(Clone, Default)]
pub struct RankDirectory {
    inner: Arc<RwLock<DirInner>>,
}

impl std::fmt::Debug for RankDirectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let g = self.inner.read();
        f.debug_struct("RankDirectory")
            .field("placement", &g.placement)
            .field("epoch", &g.epoch)
            .finish_non_exhaustive()
    }
}

impl RankDirectory {
    /// Create a directory for `size` ranks, all unplaced.
    pub fn new(size: usize) -> Self {
        RankDirectory {
            inner: Arc::new(RwLock::new(DirInner {
                placement: vec![None; size],
                ..DirInner::default()
            })),
        }
    }

    /// Create with an explicit initial placement.
    pub fn with_placement(nodes: &[NodeId]) -> Self {
        RankDirectory {
            inner: Arc::new(RwLock::new(DirInner {
                placement: nodes.iter().map(|n| Some(*n)).collect(),
                ..DirInner::default()
            })),
        }
    }

    pub fn size(&self) -> usize {
        self.inner.read().placement.len()
    }

    /// Where a rank currently lives.
    pub fn node_of(&self, rank: Rank) -> Result<NodeId> {
        self.inner
            .read()
            .placement
            .get(rank.index())
            .copied()
            .flatten()
            .ok_or_else(|| Error::not_found(format!("rank {rank} is not placed")))
    }

    /// (Re)place a rank on a node (spawn, migration, restart). A change
    /// wakes the bound ranks: one of them may be waiting to send here.
    pub fn place(&self, rank: Rank, node: NodeId) {
        let mut g = self.inner.write();
        if rank.index() >= g.placement.len() {
            g.placement.resize(rank.index() + 1, None);
        }
        if g.placement[rank.index()].replace(node) != Some(node) {
            Self::wake_except(g, rank);
        }
    }

    /// `rank`'s endpoint has bound its data port and wants wake-ups through
    /// `kick` (replacing the handle of a previous incarnation). Every other
    /// registered rank is kicked: its sends to `rank` can succeed now.
    /// Called by the process runtime; bare endpoints never register.
    pub fn bound(&self, rank: Rank, kick: Kick) {
        let mut g = self.inner.write();
        g.bound.retain(|(r, _)| *r != rank);
        g.bound.push((rank, kick));
        Self::wake_except(g, rank);
    }

    /// `rank`'s endpoint is going away; forget `kick` unless a newer
    /// incarnation has already replaced it.
    pub fn unbound(&self, rank: Rank, kick: &Kick) {
        self.inner
            .write()
            .bound
            .retain(|(r, k)| !(*r == rank && k.same(kick)));
    }

    /// Kick every bound rank but `rank`, after releasing the directory lock
    /// (a kick takes the target's queue lock).
    fn wake_except(g: parking_lot::RwLockWriteGuard<'_, DirInner>, rank: Rank) {
        let kicks: Vec<Kick> = g
            .bound
            .iter()
            .filter(|(r, _)| *r != rank)
            .map(|(_, k)| k.clone())
            .collect();
        drop(g);
        for k in kicks {
            k.kick();
        }
    }

    /// Mark a rank as down (its node crashed); sends to it fail fast until
    /// it is re-placed.
    pub fn unplace(&self, rank: Rank) {
        let mut g = self.inner.write();
        if let Some(slot) = g.placement.get_mut(rank.index()) {
            *slot = None;
        }
    }

    /// Ranks currently placed on `node`.
    pub fn ranks_on(&self, node: NodeId) -> Vec<Rank> {
        self.inner
            .read()
            .placement
            .iter()
            .enumerate()
            .filter(|(_, n)| **n == Some(node))
            .map(|(i, _)| Rank(i as u32))
            .collect()
    }

    /// Full placement snapshot.
    pub fn snapshot(&self) -> Vec<(Rank, Option<NodeId>)> {
        self.inner
            .read()
            .placement
            .iter()
            .enumerate()
            .map(|(i, n)| (Rank(i as u32), *n))
            .collect()
    }

    /// The application's current restart epoch.
    pub fn epoch(&self) -> Epoch {
        self.inner.read().epoch
    }

    /// Bump the epoch (called by the daemons when the application rolls
    /// back); returns the new epoch.
    pub fn bump_epoch(&self) -> Epoch {
        let mut g = self.inner.write();
        g.epoch = Epoch(g.epoch.0 + 1);
        g.epoch
    }

    /// Set the epoch to an absolute value (from the replicated
    /// configuration; idempotent, never regresses).
    pub fn set_epoch(&self, e: Epoch) {
        let mut g = self.inner.write();
        if e > g.epoch {
            g.epoch = e;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn place_and_lookup() {
        let d = RankDirectory::new(3);
        assert!(d.node_of(Rank(0)).is_err());
        d.place(Rank(0), NodeId(5));
        d.place(Rank(1), NodeId(6));
        assert_eq!(d.node_of(Rank(0)).unwrap(), NodeId(5));
        assert_eq!(d.ranks_on(NodeId(6)), vec![Rank(1)]);
        assert_eq!(d.size(), 3);
    }

    #[test]
    fn unplace_fails_fast() {
        let d = RankDirectory::with_placement(&[NodeId(0), NodeId(1)]);
        d.unplace(Rank(1));
        assert!(d.node_of(Rank(1)).is_err());
        // Re-placement (restart on another node).
        d.place(Rank(1), NodeId(0));
        assert_eq!(d.node_of(Rank(1)).unwrap(), NodeId(0));
        assert_eq!(d.ranks_on(NodeId(0)), vec![Rank(0), Rank(1)]);
    }

    #[test]
    fn epoch_bumps() {
        let d = RankDirectory::new(1);
        assert_eq!(d.epoch(), Epoch(0));
        assert_eq!(d.bump_epoch(), Epoch(1));
        assert_eq!(d.epoch(), Epoch(1));
    }

    #[test]
    fn place_beyond_size_grows() {
        let d = RankDirectory::new(1);
        d.place(Rank(4), NodeId(2));
        assert_eq!(d.node_of(Rank(4)).unwrap(), NodeId(2));
        assert_eq!(d.size(), 5);
    }
}
