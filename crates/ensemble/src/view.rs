//! Membership views.

use starfish_util::codec::{Decode, Decoder, Encode, Encoder};
use starfish_util::{NodeId, Result, ViewId};

/// A membership view: the set of nodes the group-communication system
/// currently believes are alive and connected, plus the view's coordinator
/// (the smallest member, which also acts as the total-order sequencer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    pub id: ViewId,
    /// Sorted, duplicate-free member list.
    pub members: Vec<NodeId>,
}

impl View {
    pub fn new(id: ViewId, mut members: Vec<NodeId>) -> Self {
        members.sort_unstable();
        members.dedup();
        View { id, members }
    }

    /// The coordinator/sequencer of this view: the smallest member.
    #[expect(clippy::expect_used, reason = "no empty view is ever installed")]
    pub fn coordinator(&self) -> NodeId {
        *self.members.first().expect("view never empty")
    }

    pub fn contains(&self, n: NodeId) -> bool {
        self.members.binary_search(&n).is_ok()
    }

    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// The members of `self` that are also in `other` (the survivor set used
    /// by view-synchrony reasoning).
    #[cfg(test)]
    pub(crate) fn survivors(&self, other: &View) -> Vec<NodeId> {
        self.members
            .iter()
            .copied()
            .filter(|m| other.contains(*m))
            .collect()
    }
}

impl Encode for View {
    fn encode(&self, enc: &mut Encoder) {
        self.id.encode(enc);
        self.members.encode(enc);
    }
}

impl Decode for View {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let id = ViewId::decode(dec)?;
        let members = Vec::<NodeId>::decode(dec)?;
        Ok(View::new(id, members))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_util::codec::roundtrip;

    #[test]
    fn members_sorted_and_deduped() {
        let v = View::new(ViewId(1), vec![NodeId(3), NodeId(1), NodeId(3)]);
        assert_eq!(v.members, vec![NodeId(1), NodeId(3)]);
        assert_eq!(v.coordinator(), NodeId(1));
        assert!(v.contains(NodeId(3)));
        assert!(!v.contains(NodeId(2)));
    }

    #[test]
    fn survivors_intersection() {
        let a = View::new(ViewId(1), vec![NodeId(1), NodeId(2), NodeId(3)]);
        let b = View::new(ViewId(2), vec![NodeId(2), NodeId(3), NodeId(4)]);
        assert_eq!(a.survivors(&b), vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn codec_roundtrip() {
        let v = View::new(ViewId(9), vec![NodeId(0), NodeId(5)]);
        assert_eq!(roundtrip(&v).unwrap(), v);
    }
}
