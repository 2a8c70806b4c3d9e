//! The lightweight membership module as one derivation (paper §2.1,
//! figure 2). An application's lightweight group is the set of nodes that
//! host one of its ranks not lost, intersected with the main view:
//! [`members`] computes it. [`LwGroups`] keeps, per group, a view counter
//! and the node set it last announced, and answers one [`LwView`] per change
//! of that set; [`LwGroups::delivers`] filters multicasts by it. Both are
//! pure: each daemon's reducer calls them with the replicated configuration
//! and its installed main view at the same point of the total order, so
//! every daemon derives the same views and delivers at the same members.
// lint: sans-io

use std::collections::BTreeMap;

use starfish_ensemble::View;
use starfish_util::{GroupId, NodeId, ViewId};

/// A lightweight group's view: per-group id sequence, independent of the
/// main Starfish group's view ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LwView {
    pub gid: GroupId,
    pub id: ViewId,
    pub members: Vec<NodeId>,
}

impl LwView {
    pub fn contains(&self, n: NodeId) -> bool {
        self.members.binary_search(&n).is_ok()
    }

    pub fn size(&self) -> usize {
        self.members.len()
    }
}

/// The lightweight group of an application whose live ranks run on
/// `hosts`: the hosts that are members of the main view, sorted, once each.
pub fn members(hosts: impl IntoIterator<Item = NodeId>, main: &View) -> Vec<NodeId> {
    let mut m: Vec<NodeId> = hosts.into_iter().filter(|n| main.contains(*n)).collect();
    m.sort_unstable();
    m.dedup();
    m
}

/// Every lightweight group one daemon knows: `(view counter, members)`.
#[derive(Debug, Clone, Default)]
pub struct LwGroups {
    groups: BTreeMap<GroupId, (u64, Vec<NodeId>)>,
}

impl LwGroups {
    pub fn new() -> Self {
        LwGroups::default()
    }

    /// Bring the table to `groups` — every live group with its
    /// [`members`]. A group whose node set changed, a new one included,
    /// answers its next view; a group that is empty or not listed is
    /// dropped without one (its application is over, or nobody is left to
    /// tell).
    pub fn sync(
        &mut self,
        groups: impl IntoIterator<Item = (GroupId, Vec<NodeId>)>,
    ) -> Vec<LwView> {
        let mut kept = BTreeMap::new();
        let mut views = Vec::new();
        for (gid, members) in groups.into_iter().filter(|(_, m)| !m.is_empty()) {
            let (mut id, old) = self.groups.remove(&gid).unwrap_or_default();
            if old != members {
                id += 1;
                let (id, members) = (ViewId(id), members.clone());
                views.push(LwView { gid, id, members });
            }
            kept.insert(gid, (id, members));
        }
        self.groups = kept;
        views
    }

    /// Whether a multicast in `gid` is delivered at `node`: only at a
    /// member of the group's last view. An unknown group has no members.
    pub fn delivers(&self, gid: GroupId, node: NodeId) -> bool {
        let members = self.groups.get(&gid).map(|(_, m)| m);
        members.is_some_and(|m| m.binary_search(&node).is_ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn main(ids: &[u32]) -> View {
        View::new(ViewId(1), ids.iter().copied().map(NodeId).collect())
    }

    fn nodes(ids: &[u32]) -> Vec<NodeId> {
        ids.iter().copied().map(NodeId).collect()
    }

    #[test]
    fn create_delivers_view_to_members_only() {
        let mut lw = LwGroups::new();
        // Hosts outside the main view are not members.
        let m = members(nodes(&[1, 0, 9, 1]), &main(&[0, 1, 2]));
        assert_eq!(m, nodes(&[0, 1]));
        let views = lw.sync([(GroupId(1), m)]);
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].id, ViewId(1));
        assert_eq!(views[0].members, nodes(&[0, 1]));
        assert!(views[0].contains(NodeId(1)) && !views[0].contains(NodeId(9)));
        // The same set again is no change, and no view.
        assert!(lw.sync([(GroupId(1), nodes(&[0, 1]))]).is_empty());
    }

    #[test]
    fn mcast_filtered_by_membership() {
        let mut lw = LwGroups::new();
        lw.sync([(GroupId(1), members(nodes(&[0]), &main(&[0, 9])))]);
        assert!(lw.delivers(GroupId(1), NodeId(0)));
        assert!(!lw.delivers(GroupId(1), NodeId(9)));
        assert!(!lw.delivers(GroupId(2), NodeId(0)), "unknown group");
        // Once its node leaves the main view, nobody is left to deliver at.
        lw.sync([(GroupId(1), members(nodes(&[0]), &main(&[9])))]);
        assert!(!lw.delivers(GroupId(1), NodeId(0)));
    }

    #[test]
    fn join_and_leave_bump_views() {
        let mut lw = LwGroups::new();
        lw.sync([(GroupId(1), nodes(&[0]))]);
        let v = lw.sync([(GroupId(1), nodes(&[0, 1]))]);
        assert_eq!((v[0].id, v[0].size()), (ViewId(2), 2));
        let v = lw.sync([(GroupId(1), nodes(&[0]))]);
        assert_eq!((v[0].id, &v[0].members), (ViewId(3), &nodes(&[0])));
    }

    #[test]
    fn node_failure_affects_only_spanning_groups() {
        // Figure 2 of the paper: g1 = {p1,p2,p3}, g2 = {p3,p4}; p8 idle.
        let mut lw = LwGroups::new();
        let all = main(&[1, 2, 3, 4, 8]);
        let g1 = || nodes(&[1, 2, 3]);
        let g2 = || nodes(&[3, 4]);
        lw.sync([
            (GroupId(1), members(g1(), &all)),
            (GroupId(2), members(g2(), &all)),
        ]);
        // Node 4 crashes out of the main group: only g2 gets a view.
        let after = main(&[1, 2, 3, 8]);
        let v = lw.sync([
            (GroupId(1), members(g1(), &after)),
            (GroupId(2), members(g2(), &after)),
        ]);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].gid, &v[0].members), (GroupId(2), &nodes(&[3])));
    }

    #[test]
    fn group_vanishes_when_last_member_gone() {
        let mut lw = LwGroups::new();
        lw.sync([(GroupId(1), nodes(&[5]))]);
        assert!(lw
            .sync([(GroupId(1), members(nodes(&[5]), &main(&[1])))])
            .is_empty());
        // So does the group of an application that is over: either comes
        // back as a new group.
        lw.sync([(GroupId(2), nodes(&[1]))]);
        assert!(lw.sync([]).is_empty());
        for gid in [GroupId(1), GroupId(2)] {
            assert_eq!(lw.sync([(gid, nodes(&[1]))])[0].id, ViewId(1));
        }
    }

    #[test]
    fn routers_converge_given_same_input_order() {
        let script = [
            vec![(GroupId(1), nodes(&[0, 1]))],
            vec![(GroupId(1), nodes(&[0, 1, 2])), (GroupId(2), nodes(&[1]))],
            vec![(GroupId(1), nodes(&[1, 2])), (GroupId(2), nodes(&[1]))],
        ];
        let mut tables = vec![LwGroups::new(); 3];
        let seen: Vec<Vec<LwView>> = tables
            .iter_mut()
            .map(|t| script.iter().flat_map(|g| t.sync(g.clone())).collect())
            .collect();
        assert!(seen.iter().all(|s| *s == seen[0]));
        assert_eq!(seen[0].len(), 4);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any sequence of placements and main views gives every table the
        /// same views, exactly one per change of a group's node set, each
        /// naming exactly the derived members.
        #[test]
        fn routers_converge(
            steps in proptest::collection::vec(
                (proptest::collection::vec(0u32..5, 0..4), proptest::collection::vec(0u32..5, 1..5)),
                0..30,
            ),
        ) {
            let mut tables = vec![LwGroups::new(); 2];
            let mut last: Option<Vec<NodeId>> = None;
            for (hosts, view) in steps {
                let main = View::new(ViewId(1), view.into_iter().map(NodeId).collect());
                let m = members(hosts.into_iter().map(NodeId), &main);
                let got: Vec<Vec<LwView>> =
                    tables.iter_mut().map(|t| t.sync([(GroupId(7), m.clone())])).collect();
                prop_assert_eq!(&got[0], &got[1]);
                let changed = !m.is_empty() && last.as_ref() != Some(&m);
                prop_assert_eq!(got[0].len(), changed as usize);
                if let Some(v) = got[0].first() {
                    prop_assert_eq!(&v.members, &m);
                }
                last = (!m.is_empty()).then_some(m);
            }
        }

        /// Mcasts are delivered exactly at members.
        #[test]
        fn mcast_delivery_matches_membership(
            hosts in proptest::collection::vec(0u32..6, 1..6),
            view in proptest::collection::vec(0u32..6, 1..6),
        ) {
            let main = View::new(ViewId(1), view.into_iter().map(NodeId).collect());
            let m = members(hosts.into_iter().map(NodeId), &main);
            let mut lw = LwGroups::new();
            lw.sync([(GroupId(1), m.clone())]);
            for node in (0..6).map(NodeId) {
                prop_assert_eq!(lw.delivers(GroupId(1), node), m.contains(&node));
            }
        }
    }
}
