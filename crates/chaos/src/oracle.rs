//! Invariant oracles: judgments over a [`ScenarioReport`] endstate.
//!
//! Six classes run against every MPI-family scenario:
//!
//! 1. **exactly-once** — every accepted send to a surviving rank is
//!    delivered exactly once (no loss the reliability layer failed to
//!    repair, no duplicate it failed to discard);
//! 2. **per-flow FIFO** — each (sender, receiver) flow is delivered in
//!    send order despite wire reordering and retransmission;
//! 3. **conservation** — the fabric fault layer accounts for every frame:
//!    `accepted + duplicated == delivered + dropped + held`, and nothing
//!    remains queued after quiescence;
//! 4. **recovery line** — the coordinated recovery line is *restorable*
//!    (every live rank can read an image at it) and torn images degrade it
//!    by at most one round each (no domino);
//! 5. **quiescence** — the scenario converges to a fixed point at all,
//!    with no rendezvous transfer left parked awaiting its CTS;
//! 6. **payload integrity** — every delivered body matches the sender's
//!    deterministic fill (a mis-spliced rendezvous DATA merge would show);
//! 7. **diskless recovery** — on `replica <k>` plans, losing at most
//!    `k−1` nodes must leave the full recovery line standing in peer
//!    memory (no disk exists to fall back on).
//!
//! The ensemble family adds **view agreement** and **total order** (see
//! `tests/ensemble_chaos.rs`). Oracles return violation strings rather
//! than panicking so the shrinker can use "still fails" as a predicate.

use crate::driver::ScenarioReport;

/// Run every oracle; an empty vector is a clean bill of health.
pub fn check_all(r: &ScenarioReport) -> Vec<String> {
    let mut v = Vec::new();
    v.extend(exactly_once(r));
    v.extend(fifo_order(r));
    v.extend(conservation(r));
    v.extend(recovery_line(r));
    v.extend(quiescence(r));
    v.extend(payload_integrity(r));
    v.extend(diskless_recovery(r));
    v
}

/// Oracle 1: accepted sends to surviving ranks are delivered exactly once.
pub fn exactly_once(r: &ScenarioReport) -> Option<String> {
    for ((src, dst), sent) in &r.sent {
        if r.dead_ranks.contains(src) || r.dead_ranks.contains(dst) {
            continue; // a dead port eats frames by design
        }
        let mut got: Vec<u64> = r
            .recv
            .get(dst)
            .map(|v| {
                v.iter()
                    .filter(|(s, _)| s == src)
                    .map(|(_, id)| *id)
                    .collect()
            })
            .unwrap_or_default();
        got.sort_unstable();
        let mut want = sent.clone();
        want.sort_unstable();
        if got != want {
            return Some(format!(
                "exactly-once violated on flow {src}->{dst}: sent {} ids, delivered {} ({})",
                want.len(),
                got.len(),
                diff_summary(&want, &got),
            ));
        }
    }
    None
}

/// Oracle 2: per-flow delivery order equals send order.
pub(crate) fn fifo_order(r: &ScenarioReport) -> Option<String> {
    for ((src, dst), sent) in &r.sent {
        if r.dead_ranks.contains(src) || r.dead_ranks.contains(dst) {
            continue;
        }
        let got: Vec<u64> = r
            .recv
            .get(dst)
            .map(|v| {
                v.iter()
                    .filter(|(s, _)| s == src)
                    .map(|(_, id)| *id)
                    .collect()
            })
            .unwrap_or_default();
        if got.len() == sent.len() && got != *sent {
            return Some(format!(
                "FIFO violated on flow {src}->{dst}: delivered {got:?}, sent {sent:?}"
            ));
        }
    }
    None
}

/// Oracle 3: fault-layer frame conservation, and an empty wire afterwards.
pub(crate) fn conservation(r: &ScenarioReport) -> Option<String> {
    if !r.stats.conserved() {
        return Some(format!(
            "conservation violated: accepted {} + duplicated {} != delivered {} + dropped {} + held {}",
            r.stats.accepted, r.stats.duplicated, r.stats.delivered, r.stats.dropped, r.stats.held
        ));
    }
    if r.quiesced && r.queued != 0 {
        return Some(format!(
            "conservation violated: {} packets still queued after quiescence",
            r.queued
        ));
    }
    None
}

/// Oracle 4: the recovery line is restorable and degrades gracefully.
pub(crate) fn recovery_line(r: &ScenarioReport) -> Option<String> {
    if !r.line_restorable {
        return Some(format!(
            "recovery line {} is not restorable by every live rank",
            r.line
        ));
    }
    // Each torn image can pull the jointly-readable line back at most one
    // round; anything steeper is a domino.
    if !r.dead_ranks.is_empty() {
        return None; // crashed ranks stop checkpointing; the bound shifts
    }
    if r.line + r.corruptions < r.ckpt_rounds {
        return Some(format!(
            "domino: line {} after {} rounds with only {} torn images",
            r.line, r.ckpt_rounds, r.corruptions
        ));
    }
    None
}

/// Oracle 5: the run converged before the quiescence deadline.
pub(crate) fn quiescence(r: &ScenarioReport) -> Option<String> {
    if !r.quiesced {
        return Some("scenario failed to quiesce before the deadline".into());
    }
    if r.rndv_pending != 0 {
        return Some(format!(
            "{} rendezvous transfers never pushed their payload",
            r.rndv_pending
        ));
    }
    None
}

/// Oracle 6: delivered bodies are byte-identical to what was sent (the
/// driver checks each delivery against the sender's deterministic fill —
/// the teeth behind the rendezvous DATA-merge path).
pub(crate) fn payload_integrity(r: &ScenarioReport) -> Option<String> {
    if r.payload_corruptions > 0 {
        return Some(format!(
            "{} delivered payloads had corrupted bodies",
            r.payload_corruptions
        ));
    }
    None
}

/// Oracle 7: the diskless store keeps its `k−1`-loss promise. When every
/// put reached full `k`-replica strength, nothing was torn, and fewer than
/// `k` distinct nodes crashed, every checkpoint round's images still have
/// at least one live copy per fragment — so the recovery line must equal
/// the number of rounds completed (live ranks checkpointed every round).
/// Restorability-from-peer-memory itself is enforced by oracle 4: for
/// replica plans the driver computes `line_restorable` by actually
/// reassembling each image from surviving fragments.
pub(crate) fn diskless_recovery(r: &ScenarioReport) -> Option<String> {
    let k = r.replica_k?;
    let promise_in_force =
        r.nodes_lost < u32::from(k) && r.replica_under_replicated == 0 && r.corruptions == 0;
    if promise_in_force && r.line < r.ckpt_rounds {
        return Some(format!(
            "diskless: {} rounds fully replicated at k={k} and only {} nodes lost, \
             yet the peer-memory line regressed to {}",
            r.ckpt_rounds, r.nodes_lost, r.line
        ));
    }
    None
}

fn diff_summary(want: &[u64], got: &[u64]) -> String {
    let missing: Vec<u64> = want.iter().filter(|w| !got.contains(w)).copied().collect();
    let extra: Vec<u64> = got.iter().filter(|g| !want.contains(g)).copied().collect();
    format!("missing {missing:?}, unexpected {extra:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_vni::FaultStats;

    fn clean_report() -> ScenarioReport {
        let mut r = ScenarioReport {
            quiesced: true,
            line_restorable: true,
            ..ScenarioReport::default()
        };
        r.sent.insert((0, 1), vec![0, 1, 2]);
        r.recv.insert(1, vec![(0, 0), (0, 1), (0, 2)]);
        r
    }

    #[test]
    fn clean_report_passes_all_oracles() {
        assert!(check_all(&clean_report()).is_empty());
    }

    #[test]
    fn lost_message_trips_exactly_once() {
        let mut r = clean_report();
        r.recv.get_mut(&1).unwrap().pop();
        let v = check_all(&r);
        assert!(v.iter().any(|m| m.contains("exactly-once")), "{v:?}");
    }

    #[test]
    fn duplicate_trips_exactly_once() {
        let mut r = clean_report();
        r.recv.get_mut(&1).unwrap().push((0, 2));
        assert!(exactly_once(&r).is_some());
    }

    #[test]
    fn swapped_delivery_trips_fifo_only() {
        let mut r = clean_report();
        r.recv.insert(1, vec![(0, 1), (0, 0), (0, 2)]);
        assert!(exactly_once(&r).is_none());
        assert!(fifo_order(&r).is_some());
    }

    #[test]
    fn unbalanced_stats_trip_conservation() {
        let mut r = clean_report();
        r.stats = FaultStats {
            accepted: 5,
            delivered: 3,
            ..FaultStats::default()
        };
        assert!(conservation(&r).is_some());
    }

    #[test]
    fn unrestorable_line_trips_recovery_oracle() {
        let mut r = clean_report();
        r.line = 2;
        r.line_restorable = false;
        assert!(recovery_line(&r).is_some());
    }

    #[test]
    fn steep_line_regression_is_a_domino() {
        let mut r = clean_report();
        r.ckpt_rounds = 5;
        r.corruptions = 1;
        r.line = 2; // one torn image may cost one round, not three
        r.line_restorable = true;
        assert!(recovery_line(&r).is_some());
    }

    #[test]
    fn diskless_line_regression_is_flagged_within_the_promise() {
        let mut r = clean_report();
        r.replica_k = Some(2);
        r.ckpt_rounds = 4;
        r.nodes_lost = 1; // k−1: the promise holds
        r.line = 2;
        assert!(diskless_recovery(&r).is_some());
        r.line = 4;
        assert!(diskless_recovery(&r).is_none());
    }

    #[test]
    fn diskless_promise_is_void_beyond_k_minus_1_or_under_replication() {
        let mut r = clean_report();
        r.replica_k = Some(2);
        r.ckpt_rounds = 4;
        r.line = 0;
        r.nodes_lost = 2; // ≥ k losses: regression is legitimate
        assert!(diskless_recovery(&r).is_none());
        r.nodes_lost = 1;
        r.replica_under_replicated = 3; // puts never reached strength k
        assert!(diskless_recovery(&r).is_none());
        r.replica_under_replicated = 0;
        r.corruptions = 1; // torn images excuse the line too
        assert!(diskless_recovery(&r).is_none());
        // Disk plans are never judged by this oracle.
        r.replica_k = None;
        r.corruptions = 0;
        assert!(diskless_recovery(&r).is_none());
    }

    #[test]
    fn dead_rank_flows_are_excluded() {
        let mut r = clean_report();
        r.recv.get_mut(&1).unwrap().clear();
        r.dead_ranks = vec![1];
        assert!(exactly_once(&r).is_none());
    }
}
