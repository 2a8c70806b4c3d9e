//! Self-contained recovery postmortem bundles.
//!
//! One bundle describes one recovery of one application end to end: the
//! ordered event sequence around the failure, per-phase timings (detection,
//! restore, respawn), rollback depth against the chosen recovery line, a
//! causal trace slice from the flight recorders, and the metrics that moved.
//! A bundle is a [`Json`] value rendered by the workspace's one JSON writer
//! (`starfish_util::json`), written to [`postmortem_dir`] and served over
//! the mgmt protocol via `POSTMORTEM <app>`.
//!
//! Every timestamp in a bundle is either virtual (deterministic, replayable)
//! or explicitly tagged `"wall"` (the failure detector's clock). A bundle
//! produced by a deterministic scenario is byte-identical across replays.

// The panic surface, held as in the audited crates although the rest of
// `trace` is not: each surviving site carries an `#[expect]` with its
// reason (VERIFICATION.md §2).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo)]
#![deny(clippy::unimplemented, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

use starfish_util::json::Json;

use crate::event::ClusterEvent;

/// One timed recovery phase. `domain` says which clock measured it:
/// `"virtual"` (modeled, deterministic) or `"wall"` (failure detector).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Phase {
    pub name: String,
    pub ns: u64,
    pub domain: &'static str,
}

impl Phase {
    pub fn virt(name: impl Into<String>, ns: u64) -> Self {
        Phase {
            name: name.into(),
            ns,
            domain: "virtual",
        }
    }

    pub fn wall(name: impl Into<String>, ns: u64) -> Self {
        Phase {
            name: name.into(),
            ns,
            domain: "wall",
        }
    }
}

/// How far the application rolled back to reach its recovery line.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Rollback {
    /// Per-rank checkpoint indices of the recovery line (0 = from scratch).
    pub line: Vec<u64>,
    /// Virtual time between the line's checkpoint and the recovery.
    pub depth_vt_ns: u64,
    /// Messages sent after the line that the rollback discards.
    pub messages_lost: u64,
}

/// One metric that changed over the recovery window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricDelta {
    pub name: String,
    pub delta: i64,
}

/// A complete recovery forensics bundle. See module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Postmortem {
    /// Application name as mgmt clients know it (e.g. `app1`).
    pub app: String,
    /// The epoch the application runs under after this recovery.
    pub epoch: u64,
    /// Human-readable cause, e.g. `node n2 dead (heartbeat timeout)`.
    pub trigger: String,
    /// Store backend the recovery line was fetched from (`disk`,
    /// `replica:2`, ...).
    pub store_backend: String,
    /// Virtual-time window of the recovery: first and last event.
    pub begin_vt_ns: u64,
    pub complete_vt_ns: u64,
    pub phases: Vec<Phase>,
    pub rollback: Rollback,
    /// The cluster events of this recovery, in sequence order: from the
    /// forensics anchor to `recovery-complete`.
    pub events: Vec<ClusterEvent>,
    /// Causal trace slice around the crash (flight-recorder summaries).
    pub trace: Vec<String>,
    /// Metrics that moved over the recovery window.
    pub metrics: Vec<MetricDelta>,
}

impl Postmortem {
    pub fn new(app: impl Into<String>) -> Self {
        Postmortem {
            app: app.into(),
            epoch: 0,
            trigger: String::new(),
            store_backend: "disk".into(),
            begin_vt_ns: 0,
            complete_vt_ns: 0,
            phases: Vec::new(),
            rollback: Rollback::default(),
            events: Vec::new(),
            trace: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Duration of a named phase, if recorded.
    pub fn phase_ns(&self, name: &str) -> Option<u64> {
        self.phases.iter().find(|p| p.name == name).map(|p| p.ns)
    }

    /// The bundle as a JSON document (stable key order, no wall-clock
    /// stamps: deterministic input ⇒ byte-identical output).
    pub fn to_json(&self) -> String {
        let phases = self.phases.iter().map(|p| {
            Json::obj([
                ("name", Json::str(&p.name)),
                ("ns", Json::Num(p.ns)),
                ("domain", Json::str(p.domain)),
            ])
        });
        let rollback = [
            ("line", Json::arr(self.rollback.line.iter().map(Json::Num))),
            ("depth_vt_ns", Json::Num(self.rollback.depth_vt_ns)),
            ("messages_lost", Json::Num(self.rollback.messages_lost)),
        ];
        let events = self.events.iter().map(|e| {
            Json::obj([
                ("seq", Json::Num(e.seq)),
                ("vt_ns", Json::Num(e.vt.as_nanos())),
                ("origin", Json::str(e.origin.to_string())),
                ("kind", Json::str(e.kind.label())),
                ("detail", Json::str(e.kind.detail())),
            ])
        });
        let window = [
            ("begin", Json::Num(self.begin_vt_ns)),
            ("complete", Json::Num(self.complete_vt_ns)),
        ];
        Json::obj([
            ("postmortem", Json::str(&self.app)),
            ("epoch", Json::Num(self.epoch)),
            ("trigger", Json::str(&self.trigger)),
            ("store_backend", Json::str(&self.store_backend)),
            ("window_vt_ns", Json::obj(window)),
            ("phases", Json::arr(phases)),
            ("rollback", Json::obj(rollback)),
            ("events", Json::arr(events)),
            ("trace", Json::arr(self.trace.iter().map(Json::str))),
            (
                "metrics_delta",
                Json::obj(self.metrics.iter().map(|m| (&m.name, Json::Num(m.delta)))),
            ),
        ])
        .render()
    }
}

/// Where recovery bundles are written: `$STARFISH_POSTMORTEM_DIR`, else
/// `target/postmortems/` at the workspace root. The daemon's view
/// coordinator and the chaos driver both write there.
pub fn postmortem_dir() -> std::path::PathBuf {
    match std::env::var_os("STARFISH_POSTMORTEM_DIR") {
        Some(d) => std::path::PathBuf::from(d),
        None => std::path::PathBuf::from(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/postmortems"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use starfish_util::{AppId, NodeId, VirtualTime};

    fn sample() -> Postmortem {
        let mut pm = Postmortem::new("app1");
        pm.epoch = 2;
        pm.trigger = "node n2 dead (heartbeat timeout)".into();
        pm.store_backend = "replica:2".into();
        pm.begin_vt_ns = 3_000;
        pm.complete_vt_ns = 9_000;
        pm.phases = vec![
            Phase::virt("detect", 450_000),
            Phase::virt("restore", 1_200),
            Phase::virt("respawn", 800),
        ];
        pm.rollback = Rollback {
            line: vec![2, 2, 2],
            depth_vt_ns: 6_000,
            messages_lost: 14,
        };
        pm.events = vec![ClusterEvent {
            seq: 7,
            vt: VirtualTime::from_nanos(3_000),
            origin: NodeId(0),
            kind: EventKind::RecoveryBegin {
                app: AppId(1),
                dead: vec![NodeId(2)],
            },
        }];
        pm.trace = vec!["send r0->r1 #4".into()];
        pm.metrics = vec![MetricDelta {
            name: "recovery.restarts".into(),
            delta: 1,
        }];
        pm
    }

    #[test]
    fn json_is_balanced_and_contains_all_sections() {
        let j = sample().to_json();
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced braces:\n{j}"
        );
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        for key in [
            "\"postmortem\"",
            "\"epoch\"",
            "\"trigger\"",
            "\"store_backend\"",
            "\"window_vt_ns\"",
            "\"phases\"",
            "\"rollback\"",
            "\"events\"",
            "\"trace\"",
            "\"metrics_delta\"",
        ] {
            assert!(j.contains(key), "missing {key} in:\n{j}");
        }
        assert!(j.contains("\"replica:2\""));
        assert!(j.contains("\"recovery-begin\""));
        assert!(j.contains("\"messages_lost\": 14"));
    }

    #[test]
    fn json_is_deterministic() {
        assert_eq!(sample().to_json(), sample().to_json());
    }

    #[test]
    fn empty_sections_render_as_empty_collections() {
        let pm = Postmortem::new("app9");
        let j = pm.to_json();
        assert!(j.contains("\"phases\": []"), "{j}");
        assert!(j.contains("\"events\": []"), "{j}");
        assert!(j.contains("\"metrics_delta\": {}"), "{j}");
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn strings_are_escaped() {
        let mut pm = Postmortem::new("app1");
        pm.trigger = "quote \" backslash \\ newline \n tab \t".into();
        let j = pm.to_json();
        assert!(j.contains("quote \\\" backslash \\\\ newline \\n tab \\t"));
    }

    #[test]
    fn phase_lookup() {
        let pm = sample();
        assert_eq!(pm.phase_ns("detect"), Some(450_000));
        assert_eq!(pm.phase_ns("nope"), None);
    }
}
