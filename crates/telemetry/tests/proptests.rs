//! Property coverage for the aggregation algebra the cluster relies on:
//! cross-scope [`Snapshot`] merging must be commutative and associative
//! (daemons fold per-scope snapshots in whatever order the total order
//! happens to deliver them).

use proptest::prelude::*;
use starfish_telemetry::{HistSnap, Snapshot};

// ---- generators --------------------------------------------------------------

fn arb_hist() -> impl Strategy<Value = HistSnap> {
    (
        proptest::collection::vec((0u8..64, 1u64..100), 0..4),
        0u64..1_000,
    )
        .prop_map(|(raw, sum)| {
            let buckets = dedup_by_key(raw);
            let count = buckets.iter().map(|&(_, c)| c).sum();
            let max = buckets.iter().map(|&(b, _)| 1u64 << b.min(62)).max();
            HistSnap {
                count,
                sum,
                max: max.unwrap_or(0),
                buckets,
            }
        })
}

/// Sort by key and keep the first value per key: snapshots index their
/// sparse tables by metric id, so generated tables must not repeat keys.
fn dedup_by_key<K: Ord + Copy, V>(mut pairs: Vec<(K, V)>) -> Vec<(K, V)> {
    pairs.sort_by_key(|&(k, _)| k);
    pairs.dedup_by_key(|&mut (k, _)| k);
    pairs
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        proptest::collection::vec((0u16..24, 1u64..1_000), 0..6),
        proptest::collection::vec((0u16..24, -50i64..50), 0..6),
        proptest::collection::vec((0u16..24, arb_hist()), 0..3),
    )
        .prop_map(|(counters, gauges, hists)| Snapshot {
            counters: dedup_by_key(counters),
            gauges: dedup_by_key(gauges),
            hists: dedup_by_key(hists),
        })
}

fn merged(a: &Snapshot, b: &Snapshot) -> Snapshot {
    let mut out = a.clone();
    out.merge(b);
    out
}

/// Histogram bucket lists may differ in ordering depending on merge order;
/// compare them as multisets alongside the scalar fields.
fn canonical(mut s: Snapshot) -> Snapshot {
    for (_, h) in &mut s.hists {
        h.buckets.sort_unstable();
    }
    s
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn snapshot_merge_is_commutative(a in arb_snapshot(), b in arb_snapshot()) {
        prop_assert_eq!(canonical(merged(&a, &b)), canonical(merged(&b, &a)));
    }

    #[test]
    fn snapshot_merge_is_associative(
        a in arb_snapshot(),
        b in arb_snapshot(),
        c in arb_snapshot(),
    ) {
        let left = merged(&merged(&a, &b), &c);
        let right = merged(&a, &merged(&b, &c));
        prop_assert_eq!(canonical(left), canonical(right));
    }
}
