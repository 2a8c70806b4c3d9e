//! Communicators.

use starfish_util::{Error, Rank, Result};

use crate::wire::WORLD_CONTEXT;

/// A communicator: an ordered set of world ranks plus a context id that
/// isolates its traffic from every other communicator's. The default is
/// empty: what `mem::take` leaves while the real one is checked out.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Comm {
    context: u32,
    /// Members as world ranks; a member's *communicator rank* is its index.
    members: Vec<Rank>,
    my_index: usize,
    /// Collective-operation sequence number: every process of a communicator
    /// must invoke collectives in the same order (an MPI requirement), so
    /// this advances in lock-step and disambiguates concurrent rounds.
    /// Public because the checkpoint runtime must save/restore it so that a
    /// restored execution's collective tags line up across ranks.
    pub coll_seq: u64,
}

impl Comm {
    /// `MPI_COMM_WORLD` for an application of `size` ranks.
    pub fn world(size: u32, me: Rank) -> Comm {
        assert!(me.0 < size, "rank {me} out of range for size {size}");
        Comm {
            context: WORLD_CONTEXT,
            members: (0..size).map(Rank).collect(),
            my_index: me.0 as usize,
            coll_seq: 0,
        }
    }

    /// Build an arbitrary communicator (used by split/dup and by the
    /// dynamic-process machinery).
    pub(crate) fn from_members(context: u32, members: Vec<Rank>, me: Rank) -> Result<Comm> {
        let my_index = members
            .iter()
            .position(|r| *r == me)
            .ok_or_else(|| Error::invalid_arg(format!("{me} not in communicator")))?;
        Ok(Comm {
            context,
            members,
            my_index,
            coll_seq: 0,
        })
    }

    /// Take the sequence number of the next collective round.
    pub(crate) fn next_coll_seq(&mut self) -> u64 {
        self.coll_seq += 1;
        self.coll_seq - 1
    }

    /// This process's rank *within the communicator*.
    pub fn rank(&self) -> Rank {
        Rank(self.my_index as u32)
    }

    pub fn size(&self) -> u32 {
        self.members.len() as u32
    }

    pub(crate) fn context(&self) -> u32 {
        self.context
    }

    /// Translate a communicator rank to a world rank.
    pub(crate) fn world_rank(&self, comm_rank: Rank) -> Result<Rank> {
        self.members
            .get(comm_rank.index())
            .copied()
            .ok_or_else(|| Error::invalid_arg(format!("rank {comm_rank} out of range")))
    }

    pub fn members(&self) -> &[Rank] {
        &self.members
    }

    /// Duplicate with a fresh, deterministically derived context: same
    /// members, isolated traffic (MPI_Comm_dup).
    pub fn dup(&self) -> Comm {
        Comm {
            context: derive_context(self.context, 0x5F5F),
            members: self.members.clone(),
            my_index: self.my_index,
            coll_seq: 0,
        }
    }
}

/// Deterministic context derivation: every member computes the same child
/// context with no extra agreement round (contexts only need to be unique
/// per application, and the derivation chain is collision-resistant enough
/// for the handful of communicators real programs create).
pub(crate) fn derive_context(parent: u32, salt: u32) -> u32 {
    parent
        .wrapping_mul(0x9E37_79B9)
        .wrapping_add(salt)
        .wrapping_add(0x85EB_CA6B)
        | 0x8000_0000 // never collides with the well-known low contexts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_layout() {
        let c = Comm::world(4, Rank(2));
        assert_eq!(c.rank(), Rank(2));
        assert_eq!(c.size(), 4);
        assert_eq!(c.context(), WORLD_CONTEXT);
        assert_eq!(c.world_rank(Rank(3)).unwrap(), Rank(3));
    }

    #[test]
    fn subset_comm_translates_ranks() {
        // world ranks {1, 3} form a communicator.
        let c = Comm::from_members(55, vec![Rank(1), Rank(3)], Rank(3)).unwrap();
        assert_eq!(c.rank(), Rank(1)); // index of world rank 3
        assert_eq!(c.size(), 2);
        assert_eq!(c.world_rank(Rank(0)).unwrap(), Rank(1));
    }

    #[test]
    fn non_member_rejected() {
        assert!(Comm::from_members(55, vec![Rank(1)], Rank(0)).is_err());
    }

    #[test]
    fn dup_changes_context_only() {
        let c = Comm::world(2, Rank(0));
        let d = c.dup();
        assert_ne!(d.context(), c.context());
        assert_eq!(d.members(), c.members());
        assert_eq!(d.rank(), c.rank());
        // Derivation is deterministic: another process computes the same.
        let c2 = Comm::world(2, Rank(1));
        let d2 = c2.dup();
        assert_eq!(d.context(), d2.context());
    }

    #[test]
    fn derived_contexts_avoid_reserved_space() {
        let ctx = derive_context(WORLD_CONTEXT, 3);
        assert!(ctx >= 0x8000_0000);
        assert_ne!(ctx, WORLD_CONTEXT);
    }
}
