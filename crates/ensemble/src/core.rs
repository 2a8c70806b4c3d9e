//! Pure building blocks of the [`Group`](crate::group::Group) machine.
//!
//! Every decision the ensemble stack makes lives in `group.rs`; the parts of
//! it that are state machines in their own right live here:
//!
//! * [`DeliveryState`] — the member-side totally-ordered delivery queue:
//!   out-of-order parking, gap-free cascade, flush-union backfill;
//! * [`ChangeState`] — the coordinator-side flush bookkeeping of one
//!   membership change: who still owes a `FlushOk`, the union of delivered
//!   logs that becomes the backfill;
//! * [`proposed_members`], [`encode_proposal`], [`proposal_view`] — the
//!   next-view computation and the proposal numbering that ties a flush to
//!   the view it closes.
//!
//! A `Group` owns one `DeliveryState` and an `Option<ChangeState>` directly;
//! the `verify` crate's model checker holds whole `Group`s, so every
//! interleaving of casts, flushes and failures it enumerates runs exactly
//! this code.
// lint: sans-io

use std::collections::{BTreeMap, BTreeSet};

use starfish_util::NodeId;

use crate::msg::SeqEntry;

/// Member-side totally-ordered delivery state for one installed view.
#[derive(Debug, Clone, Default)]
pub(crate) struct DeliveryState {
    /// Next sequence number to deliver (the sequencer assigns from 1).
    next_deliver_seq: u64,
    /// Everything delivered in the current view, in order — the flush
    /// contribution of this member.
    delivered_log: Vec<SeqEntry>,
    /// Sequenced casts that arrived above a gap, parked until it fills.
    pending_oos: BTreeMap<u64, SeqEntry>,
}

impl DeliveryState {
    pub(crate) fn new() -> Self {
        DeliveryState {
            next_deliver_seq: 1,
            delivered_log: Vec::new(),
            pending_oos: BTreeMap::new(),
        }
    }

    /// A sequenced cast arrived (already validated against the current view
    /// and flush status). Returns the entries that become deliverable, in
    /// delivery order: the new cast may fill a gap and release a parked run.
    pub(crate) fn on_seq_cast(&mut self, entry: SeqEntry) -> Vec<SeqEntry> {
        self.pending_oos.insert(entry.seq, entry);
        let mut out = Vec::new();
        while let Some(e) = self.pending_oos.remove(&self.next_deliver_seq) {
            self.next_deliver_seq += 1;
            self.delivered_log.push(e.clone());
            out.push(e);
        }
        out
    }

    /// Deliver the closing view's backfill (the coordinator's flush union).
    /// The union is gap-free by construction — a sequencer assigned `1..=k`
    /// — but may start below our own position; entries we already delivered
    /// are skipped, the rest are delivered in order. Returns the newly
    /// delivered entries.
    pub(crate) fn apply_backfill(&mut self, backfill: Vec<SeqEntry>) -> Vec<SeqEntry> {
        let mut out = Vec::new();
        for e in backfill {
            if e.seq >= self.next_deliver_seq {
                self.next_deliver_seq = e.seq + 1;
                self.delivered_log.push(e.clone());
                out.push(e);
            }
        }
        out
    }

    /// Install a new view: sequencing restarts at 1, the log and any parked
    /// strays of the closed view are discarded.
    pub(crate) fn reset(&mut self) {
        self.next_deliver_seq = 1;
        self.delivered_log.clear();
        self.pending_oos.clear();
    }

    /// Everything delivered in the current view, in order.
    pub(crate) fn log(&self) -> &[SeqEntry] {
        &self.delivered_log
    }
}

/// Proposal number of the flush that closes `view_id`: the view's identity
/// in the high bits ties every `FlushReq`/`FlushOk` to the view it closes,
/// the counter in the low bits distinguishes successive proposals by the
/// same coordinator.
pub(crate) fn encode_proposal(view_id: u64, counter: u64) -> u64 {
    (view_id << 16) | counter
}

/// The view a proposal closes (inverse of [`encode_proposal`]'s high bits).
pub(crate) fn proposal_view(proposal: u64) -> u64 {
    proposal >> 16
}

/// Membership of the next view: the current members minus suspects and
/// leavers (including ourselves if `leaving`), plus joiners.
pub(crate) fn proposed_members(
    view_members: &[NodeId],
    suspects: &BTreeSet<NodeId>,
    leaves: &BTreeSet<NodeId>,
    joins: &BTreeSet<NodeId>,
    me: NodeId,
    leaving: bool,
) -> Vec<NodeId> {
    let mut members: BTreeSet<NodeId> = view_members.iter().copied().collect();
    for s in suspects {
        members.remove(s);
    }
    for l in leaves {
        members.remove(l);
    }
    if leaving {
        members.remove(&me);
    }
    for j in joins {
        members.insert(*j);
    }
    members.into_iter().collect()
}

/// Coordinator-side bookkeeping of one in-progress membership change.
#[derive(Debug, Clone)]
pub(crate) struct ChangeState {
    proposal: u64,
    new_members: Vec<NodeId>,
    waiting: BTreeSet<NodeId>,
    collected: BTreeMap<u64, SeqEntry>,
}

impl ChangeState {
    /// Open a change: `waiting` are the members that owe a `FlushOk`;
    /// `delivered` seeds the flush union with the coordinator's own log.
    pub(crate) fn new(
        proposal: u64,
        new_members: Vec<NodeId>,
        waiting: BTreeSet<NodeId>,
        delivered: &[SeqEntry],
    ) -> Self {
        let mut collected = BTreeMap::new();
        for e in delivered {
            collected.insert(e.seq, e.clone());
        }
        ChangeState {
            proposal,
            new_members,
            waiting,
            collected,
        }
    }

    pub(crate) fn proposal(&self) -> u64 {
        self.proposal
    }

    /// A member's flush reply: it stops owing, its delivered log joins the
    /// union.
    pub(crate) fn on_flush_ok(&mut self, node: NodeId, delivered: Vec<SeqEntry>) {
        self.waiting.remove(&node);
        for e in delivered {
            self.collected.insert(e.seq, e);
        }
    }

    /// A member died (or a send to it failed) mid-change: it no longer owes
    /// a flush and leaves the proposed membership.
    pub(crate) fn drop_member(&mut self, node: NodeId) {
        self.waiting.remove(&node);
        self.new_members.retain(|m| *m != node);
    }

    /// All flushes are in: the change can finish.
    pub(crate) fn is_done(&self) -> bool {
        self.waiting.is_empty()
    }

    /// Consume the finished change: the next view's members and the backfill
    /// (the flush union in sequence order).
    pub(crate) fn into_outcome(self) -> (Vec<NodeId>, Vec<SeqEntry>) {
        (self.new_members, self.collected.into_values().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use starfish_trace::TraceCtx;

    impl DeliveryState {
        /// Number of casts parked above a gap.
        pub(super) fn parked_len(&self) -> usize {
            self.pending_oos.len()
        }
    }

    fn entry(seq: u64) -> SeqEntry {
        SeqEntry {
            seq,
            origin: NodeId(seq as u32),
            payload: Bytes::from(vec![seq as u8]),
            ctx: TraceCtx::NONE,
        }
    }

    #[test]
    fn delivery_cascades_over_filled_gap() {
        let mut d = DeliveryState::new();
        assert!(d.on_seq_cast(entry(2)).is_empty());
        assert!(d.on_seq_cast(entry(3)).is_empty());
        assert_eq!(d.parked_len(), 2);
        let released = d.on_seq_cast(entry(1));
        let seqs: Vec<u64> = released.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert_eq!(d.next_deliver_seq, 4);
        assert_eq!(d.log().len(), 3);
    }

    #[test]
    fn backfill_skips_already_delivered() {
        let mut d = DeliveryState::new();
        d.on_seq_cast(entry(1));
        d.on_seq_cast(entry(2));
        let newly = d.apply_backfill(vec![entry(1), entry(2), entry(3)]);
        assert_eq!(newly.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![3]);
        assert_eq!(d.next_deliver_seq, 4);
    }

    #[test]
    fn reset_forgets_the_closed_view() {
        let mut d = DeliveryState::new();
        d.on_seq_cast(entry(1));
        d.on_seq_cast(entry(5)); // stray above a gap
        d.reset();
        assert_eq!(d.next_deliver_seq, 1);
        assert!(d.log().is_empty());
        assert_eq!(d.parked_len(), 0);
    }

    #[test]
    fn proposal_roundtrip_names_the_view() {
        let p = encode_proposal(7, 3);
        assert_eq!(proposal_view(p), 7);
        assert_ne!(encode_proposal(7, 3), encode_proposal(7, 4));
        assert_ne!(proposal_view(encode_proposal(8, 3)), 7);
    }

    #[test]
    fn proposed_members_applies_all_deltas() {
        let view = [NodeId(0), NodeId(1), NodeId(2)];
        let suspects = BTreeSet::from([NodeId(1)]);
        let leaves = BTreeSet::new();
        let joins = BTreeSet::from([NodeId(5)]);
        let next = proposed_members(&view, &suspects, &leaves, &joins, NodeId(0), false);
        assert_eq!(next, vec![NodeId(0), NodeId(2), NodeId(5)]);
        let next = proposed_members(&view, &suspects, &leaves, &joins, NodeId(0), true);
        assert_eq!(next, vec![NodeId(2), NodeId(5)]);
    }

    #[test]
    fn change_unions_flushes_and_finishes() {
        let mut ch = ChangeState::new(
            encode_proposal(1, 1),
            vec![NodeId(0), NodeId(2)],
            BTreeSet::from([NodeId(1), NodeId(2)]),
            &[entry(1)],
        );
        assert!(!ch.is_done());
        ch.on_flush_ok(NodeId(1), vec![entry(1), entry(2)]);
        ch.drop_member(NodeId(2)); // died mid-flush
        assert!(ch.is_done());
        let (members, backfill) = ch.into_outcome();
        assert_eq!(members, vec![NodeId(0)]);
        assert_eq!(backfill.iter().map(|e| e.seq).collect::<Vec<_>>(), [1, 2]);
    }
}
