//! ASCII rendering for the management protocol (`STATS`).
//!
//! One metric per line, machine-greppable, in the same plain style as the
//! rest of the management protocol.

use crate::metric::{MetricId, MetricKind, Unit, DEFS};
use crate::snapshot::Snapshot;

fn unit_suffix(unit: Unit) -> &'static str {
    match unit {
        Unit::Count => "",
        Unit::Bytes => "B",
        Unit::VirtualNanos => "vns",
        Unit::WallNanos => "ns",
    }
}

/// Render every touched metric, one `name value` line each, in
/// registry-table order. Histograms render count/p50/p95/p99/max/mean.
pub fn render_stats(snap: &Snapshot) -> String {
    let mut out = String::new();
    for (idx, def) in DEFS.iter().enumerate() {
        let id = MetricId(idx as u16);
        let suffix = unit_suffix(def.unit);
        match def.kind {
            MetricKind::Counter => {
                let v = snap.counter(id);
                if v != 0 {
                    out.push_str(&format!("{} {}{}\n", def.name, v, suffix));
                }
            }
            MetricKind::Gauge => {
                let v = snap.gauge(id);
                if v != 0 {
                    out.push_str(&format!("{} {}{}\n", def.name, v, suffix));
                }
            }
            MetricKind::Histogram => {
                if let Some(h) = snap.hist(id) {
                    out.push_str(&format!(
                        "{} count={} p50={}{s} p95={}{s} p99={}{s} max={}{s} mean={:.1}{s}\n",
                        def.name,
                        h.count,
                        h.p50(),
                        h.p95(),
                        h.p99(),
                        h.max,
                        h.mean(),
                        s = suffix,
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::*;
    use crate::Registry;

    #[test]
    fn stats_renders_touched_metrics_only() {
        let r = Registry::new();
        r.add(MSG_COUNT_DATA, 10);
        r.add(MSG_BYTES_DATA, 1000);
        r.record(VNI_WIRE_NS, 500);
        let text = render_stats(&r.snapshot());
        assert!(text.contains("msg.count.data 10\n"), "{text}");
        assert!(text.contains("msg.bytes.data 1000B\n"), "{text}");
        assert!(text.contains("vni.wire_ns count=1"), "{text}");
        assert!(!text.contains("msg.count.control"), "{text}");
    }
}
