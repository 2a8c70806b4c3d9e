//! Per-node / per-process metric registries.
//!
//! A [`Registry`] owns one slot per entry in [`crate::metric::DEFS`]:
//! counters, gauges and histograms are all lock-free. Cloning a registry
//! is an `Arc` bump, so one handle threads through the whole stack
//! (fabric, MPI endpoints, ensemble, checkpoint engine) without plumbing
//! costs.

use std::sync::Arc;

use crate::counter::{Counter, Gauge};
use crate::histogram::Histogram;
use crate::metric::{self, MetricId, MetricKind};
use crate::snapshot::Snapshot;
use starfish_util::time::VirtualTime;

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A cheap-to-clone handle on a full set of metric slots.
#[derive(Clone)]
pub struct Registry {
    slots: Arc<Vec<Slot>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    pub fn new() -> Self {
        let slots = metric::DEFS
            .iter()
            .map(|def| match def.kind {
                MetricKind::Counter => Slot::Counter(Counter::new()),
                MetricKind::Gauge => Slot::Gauge(Gauge::new()),
                MetricKind::Histogram => Slot::Histogram(Histogram::new()),
            })
            .collect();
        Registry {
            slots: Arc::new(slots),
        }
    }

    /// True when `other` is a clone of this registry (same slots).
    pub fn same_as(&self, other: &Registry) -> bool {
        Arc::ptr_eq(&self.slots, &other.slots)
    }

    // --- counters ---------------------------------------------------------

    #[inline]
    pub fn inc(&self, id: MetricId) {
        self.add(id, 1);
    }

    #[inline]
    pub fn add(&self, id: MetricId, n: u64) {
        if let Slot::Counter(c) = &self.slots[id.0 as usize] {
            c.add(n);
        } else {
            debug_assert!(false, "{} is not a counter", id.name());
        }
    }

    pub fn counter(&self, id: MetricId) -> u64 {
        match &self.slots[id.0 as usize] {
            Slot::Counter(c) => c.get(),
            _ => 0,
        }
    }

    // --- gauges -----------------------------------------------------------

    pub fn gauge_set(&self, id: MetricId, v: i64) {
        if let Slot::Gauge(g) = &self.slots[id.0 as usize] {
            g.set(v);
        } else {
            debug_assert!(false, "{} is not a gauge", id.name());
        }
    }

    pub fn gauge_add(&self, id: MetricId, delta: i64) {
        if let Slot::Gauge(g) = &self.slots[id.0 as usize] {
            g.add(delta);
        } else {
            debug_assert!(false, "{} is not a gauge", id.name());
        }
    }

    pub fn gauge(&self, id: MetricId) -> i64 {
        match &self.slots[id.0 as usize] {
            Slot::Gauge(g) => g.get(),
            _ => 0,
        }
    }

    // --- histograms -------------------------------------------------------

    #[inline]
    pub fn record(&self, id: MetricId, value: u64) {
        if let Slot::Histogram(h) = &self.slots[id.0 as usize] {
            h.record(value);
        } else {
            debug_assert!(false, "{} is not a histogram", id.name());
        }
    }

    /// Record a virtual-time duration in nanoseconds.
    #[inline]
    pub fn record_vt(&self, id: MetricId, d: VirtualTime) {
        self.record(id, d.as_nanos());
    }

    pub fn hist_count(&self, id: MetricId) -> u64 {
        match &self.slots[id.0 as usize] {
            Slot::Histogram(h) => h.count(),
            _ => 0,
        }
    }

    // --- snapshots --------------------------------------------------------

    /// Cumulative, non-destructive dump of every touched metric.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for (i, slot) in self.slots.iter().enumerate() {
            match slot {
                Slot::Counter(c) => {
                    let v = c.get();
                    if v != 0 {
                        snap.counters.push((i as u16, v));
                    }
                }
                Slot::Gauge(g) => {
                    let v = g.get();
                    if v != 0 {
                        snap.gauges.push((i as u16, v));
                    }
                }
                Slot::Histogram(h) => {
                    let s = h.snapshot();
                    if !s.is_empty() {
                        snap.hists.push((i as u16, s));
                    }
                }
            }
        }
        snap
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("metrics", &metric::DEFS.len())
            .finish()
    }
}

impl starfish_util::trace::MsgCounter for Registry {
    fn on_message(&self, class: starfish_util::trace::MsgClass, bytes: usize) {
        self.inc(metric::msg_count(class));
        self.add(metric::msg_bytes(class), bytes as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::*;

    #[test]
    fn clones_share_slots() {
        let r = Registry::new();
        let r2 = r.clone();
        r.inc(VNI_PACKETS);
        r2.add(VNI_PACKETS, 2);
        assert_eq!(r.counter(VNI_PACKETS), 3);
        assert!(r.same_as(&r2));
        assert!(!r.same_as(&Registry::new()));
    }

    #[test]
    fn snapshot_is_sparse_and_cumulative() {
        let r = Registry::new();
        assert!(r.snapshot().is_empty());
        r.inc(CKPT_ROUNDS);
        r.gauge_set(PROCS_RUNNING, 4);
        r.record(CKPT_IMAGE_BYTES, 4096);
        let s1 = r.snapshot();
        assert_eq!(s1.counters.len(), 1);
        assert_eq!(s1.counter(CKPT_ROUNDS), 1);
        assert_eq!(s1.gauge(PROCS_RUNNING), 4);
        assert_eq!(s1.hist(CKPT_IMAGE_BYTES).unwrap().count, 1);
        r.inc(CKPT_ROUNDS);
        assert_eq!(r.snapshot().counter(CKPT_ROUNDS), 2);
    }

    #[test]
    fn msg_counter_hook_feeds_table1() {
        use starfish_util::trace::{MsgClass, MsgCounter};
        let r = Registry::new();
        r.on_message(MsgClass::Data, 128);
        r.on_message(MsgClass::Data, 64);
        r.on_message(MsgClass::Control, 8);
        assert_eq!(r.counter(MSG_COUNT_DATA), 2);
        assert_eq!(r.counter(MSG_BYTES_DATA), 192);
        assert_eq!(r.counter(MSG_COUNT_CONTROL), 1);
    }
}
