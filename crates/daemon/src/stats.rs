//! Cluster-wide telemetry aggregation.
//!
//! Every process runtime flushes a cumulative [`Snapshot`] of its registry
//! up to its daemon ([`ProcUp::Stats`](crate::msg::ProcUp)) once per
//! checkpoint round, once per restore and at exit. The daemon casts it,
//! together with its infrastructure snapshot, as one
//! [`WireCast::Stats`](crate::msg::WireCast) entry on the totally ordered
//! ensemble stream (alone, or in one batch with its other casts of that
//! virtual instant), so all daemons converge on the same per-scope table
//! and history and any of them can answer the `STATS` and `HEALTH`
//! management commands.
//!
//! Scopes are strings: `"cluster"` for the shared infrastructure registry
//! (fabric, trace, ensemble), `"app<N>.r<R>"` for one application process.
//! Snapshots are **cumulative**, so a newer snapshot for a scope *replaces*
//! the previous one; snapshots of *different* scopes merge additively.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use starfish_telemetry::Snapshot;
use starfish_util::ring::SeqRing;
use starfish_util::VirtualTime;

/// Default number of timestamped history snapshots retained.
pub const DEFAULT_HISTORY_RETENTION: usize = 64;

/// Shared table of the latest snapshot per scope. Cheap to clone.
#[derive(Clone)]
pub struct StatsHub {
    inner: Arc<Mutex<BTreeMap<String, Snapshot>>>,
    history: Arc<Mutex<SeqRing<(VirtualTime, Snapshot)>>>,
}

impl Default for StatsHub {
    fn default() -> Self {
        StatsHub {
            inner: Arc::default(),
            history: Arc::new(Mutex::new(SeqRing::new(DEFAULT_HISTORY_RETENTION))),
        }
    }
}

impl StatsHub {
    pub(crate) fn new() -> Self {
        StatsHub::default()
    }

    /// Install `snap` as the latest cumulative snapshot of `scope`.
    pub(crate) fn update(&self, scope: &str, snap: Snapshot) {
        self.inner.lock().insert(scope.to_string(), snap);
    }

    /// All scopes currently known, in order.
    pub fn scopes(&self) -> Vec<String> {
        self.inner.lock().keys().cloned().collect()
    }

    /// Additive merge of every scope's latest snapshot — the cluster-wide
    /// view.
    pub fn merged(&self) -> Snapshot {
        let g = self.inner.lock();
        let mut out = Snapshot::default();
        for snap in g.values() {
            out.merge(snap);
        }
        out
    }

    /// Append a timestamped snapshot of the current cluster-wide merge to
    /// the history ring (called once per delivered `Stats` entry, after all of
    /// its scopes are in, so all daemons record the same sequence).
    pub(crate) fn record_history(&self, vt: VirtualTime) {
        let sample = (vt, self.merged());
        self.history.lock().push(sample);
    }

    /// Set how many history snapshots are retained (`SET stats_history <n>`).
    pub(crate) fn set_retention(&self, n: usize) {
        self.history.lock().set_capacity(n);
    }

    /// Oldest-first timestamped history snapshots.
    pub fn history(&self) -> Vec<(VirtualTime, Snapshot)> {
        self.history.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_telemetry::{metric, Registry};

    #[test]
    fn replace_per_scope_merge_across_scopes() {
        let hub = StatsHub::new();
        let r = Registry::new();
        r.inc(metric::ENSEMBLE_CASTS);
        hub.update("a", r.snapshot());
        r.inc(metric::ENSEMBLE_CASTS);
        // Cumulative re-flush of the same scope replaces, not doubles.
        hub.update("a", r.snapshot());
        assert_eq!(hub.merged().counter(metric::ENSEMBLE_CASTS), 2);
        let r2 = Registry::new();
        r2.inc(metric::ENSEMBLE_CASTS);
        hub.update("b", r2.snapshot());
        assert_eq!(hub.merged().counter(metric::ENSEMBLE_CASTS), 3);
        assert_eq!(hub.scopes(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn history_ring_respects_retention() {
        let hub = StatsHub::new();
        let r = Registry::new();
        for i in 0..5u64 {
            r.inc(metric::ENSEMBLE_CASTS);
            hub.update("a", r.snapshot());
            hub.record_history(starfish_util::VirtualTime(i * 100));
        }
        assert_eq!(hub.history().len(), 5);
        hub.set_retention(2);
        let h = hub.history();
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].0, starfish_util::VirtualTime(300));
        // New samples keep honouring the tighter retention.
        hub.record_history(starfish_util::VirtualTime(500));
        assert_eq!(hub.history().len(), 2);
    }
}
