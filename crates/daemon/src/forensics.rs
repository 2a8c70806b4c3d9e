//! Recovery forensics: a deterministic observer of the ordered event
//! stream that assembles one [`Postmortem`] bundle per application
//! recovery.
//!
//! The tracker is driven exclusively by the daemon's cluster events — every
//! input is a [`ClusterEvent`] that either rode the totally ordered cast
//! path or was derived deterministically from it, so all daemons observing
//! the same stream assemble byte-identical bundles. A bundle embeds a
//! sequence range of that stream, from the recovery's anchor to its
//! `recovery-complete`: an event's vt is its origin daemon's clock, so
//! stream order is not vt order, and a vt window would lose events.
//!
//! Lifecycle of one recovery:
//!
//! ```text
//! node-suspected ──► node-dead ──► recovery-begin ──► recovery-restore
//!      (wall age)      (vt)           (opens bundle)    (line, epoch)
//!                 ──► recovery-respawn × replaced ──► recovery-complete
//!                        (per replacement rank)        (synthesized on the
//!                                                       last respawn)
//! ```
//!
//! The per-phase timings mix clock domains deliberately and say so:
//! detection latency is the failure detector's wall clock (carried inside
//! the `node-suspected` event), everything downstream is virtual time.

use std::collections::BTreeMap;

use starfish_telemetry::{metric, MetricKind, Snapshot};
use starfish_trace::event::{ClusterEvent, EventKind};
use starfish_trace::postmortem::{MetricDelta, Phase, Postmortem, Rollback};
use starfish_trace::EventLog;
use starfish_util::{AppId, NodeId};

/// One in-flight recovery, keyed by app.
struct InFlight {
    /// Seq of the first event the bundle embeds: the earliest suspicion or
    /// death of a node in `dead`, else the `recovery-begin` itself.
    anchor: u64,
    begin_vt_ns: u64,
    dead: Vec<NodeId>,
    /// Wall-clock silent-time of the first suspicion of the first dead
    /// node, if the failure was detected by heartbeat (fail-stop fabric
    /// events skip suspicion).
    detect_wall_ns: Option<u64>,
    /// Virtual time between first suspicion and the dead declaration.
    suspect_to_dead_vt_ns: Option<u64>,
    line: Vec<u64>,
    epoch: u64,
    expected_respawns: Option<usize>,
    respawns_seen: usize,
    /// Cluster-wide metrics at recovery begin (for the delta section).
    stats_before: Snapshot,
}

/// Everything [`Forensics::finalize`] needs besides its own record: the
/// cluster events to embed (read from the recovery's anchor on, so the
/// newest must be its `recovery-complete`), the cluster-wide metrics at
/// completion, and the recovery line's backend label.
pub(crate) struct BundleInputs<'a> {
    pub(crate) app_name: &'a str,
    pub(crate) store_backend: &'a str,
    pub(crate) complete_vt_ns: u64,
    pub(crate) events: &'a EventLog,
    pub(crate) stats_after: &'a Snapshot,
}

/// Deterministic recovery observer. One per daemon loop.
#[derive(Default)]
pub(crate) struct Forensics {
    /// First suspicion per node: `(event seq, event vt ns, wall silent ns)`.
    suspects: BTreeMap<NodeId, (u64, u64, u64)>,
    /// When the cluster declared each node dead: `(event seq, event vt ns)`.
    dead_at: BTreeMap<NodeId, (u64, u64)>,
    inflight: BTreeMap<AppId, InFlight>,
}

impl Forensics {
    pub(crate) fn new() -> Self {
        Forensics::default()
    }

    /// Tell the tracker how many replacement ranks the recovery of `app`
    /// will respawn (known when the `RestartApp` effect is applied). The
    /// recovery completes when that many `recovery-respawn` events have
    /// been observed.
    pub(crate) fn expect_respawns(&mut self, app: AppId, n: usize) {
        if let Some(f) = self.inflight.get_mut(&app) {
            f.expected_respawns = Some(n);
        }
    }

    /// Feed one cluster event. Returns `Some(app)` when this event completed a
    /// recovery: the caller should synthesize the `recovery-complete` event,
    /// feed it back through here, and then call [`Forensics::finalize`].
    ///
    /// `stats_now` is only read when a recovery *begins* (cheap closure so
    /// the common path never snapshots).
    pub(crate) fn observe(
        &mut self,
        ev: &ClusterEvent,
        stats_now: impl FnOnce() -> Snapshot,
    ) -> Option<AppId> {
        match &ev.kind {
            EventKind::NodeSuspected { node, silent_ns } => {
                self.suspects
                    .entry(*node)
                    .or_insert((ev.seq, ev.vt.as_nanos(), *silent_ns));
            }
            EventKind::NodeUp { node } => {
                // A re-announced node starts a fresh detector history.
                self.suspects.remove(node);
                self.dead_at.remove(node);
            }
            EventKind::NodeDead { node } => {
                self.dead_at
                    .entry(*node)
                    .or_insert((ev.seq, ev.vt.as_nanos()));
            }
            EventKind::RecoveryBegin { app, dead } => {
                let first_dead = dead.first();
                let detect = first_dead.and_then(|n| self.suspects.get(n)).copied();
                let suspect_to_dead = first_dead.and_then(|n| {
                    let (_, s_vt, _) = self.suspects.get(n)?;
                    let (_, d_vt) = self.dead_at.get(n)?;
                    Some(d_vt.saturating_sub(*s_vt))
                });
                let anchor = dead
                    .iter()
                    .flat_map(|n| {
                        [
                            self.suspects.get(n).map(|s| s.0),
                            self.dead_at.get(n).map(|d| d.0),
                        ]
                    })
                    .flatten()
                    .fold(ev.seq, u64::min);
                self.inflight.insert(
                    *app,
                    InFlight {
                        anchor,
                        begin_vt_ns: ev.vt.as_nanos(),
                        dead: dead.clone(),
                        detect_wall_ns: detect.map(|(_, _, silent)| silent),
                        suspect_to_dead_vt_ns: suspect_to_dead,
                        line: Vec::new(),
                        epoch: 0,
                        expected_respawns: None,
                        respawns_seen: 0,
                        stats_before: stats_now(),
                    },
                );
            }
            EventKind::RecoveryRestore { app, epoch, line } => {
                if let Some(f) = self.inflight.get_mut(app) {
                    f.line = line.clone();
                    f.epoch = epoch.raw() as u64;
                }
            }
            EventKind::RecoveryRespawn { app, .. } => {
                if let Some(f) = self.inflight.get_mut(app) {
                    f.respawns_seen += 1;
                    if Some(f.respawns_seen) == f.expected_respawns {
                        return Some(*app);
                    }
                }
            }
            _ => {}
        }
        None
    }

    /// Build the bundle for `app` and close its in-flight record.
    pub(crate) fn finalize(&mut self, app: AppId, inputs: BundleInputs<'_>) -> Option<Postmortem> {
        let BundleInputs {
            app_name,
            store_backend,
            complete_vt_ns,
            events,
            stats_after,
        } = inputs;
        let f = self.inflight.remove(&app)?;
        let mut pm = Postmortem::new(app_name);
        pm.epoch = f.epoch;
        pm.store_backend = store_backend.to_string();
        pm.begin_vt_ns = f.begin_vt_ns;
        pm.complete_vt_ns = complete_vt_ns;
        let dead: Vec<String> = f.dead.iter().map(|n| n.to_string()).collect();
        pm.trigger = if f.detect_wall_ns.is_some() {
            format!("node {} dead (heartbeat timeout)", dead.join(" "))
        } else {
            format!("node {} dead (fail-stop)", dead.join(" "))
        };
        if let Some(d) = f.detect_wall_ns {
            pm.phases.push(Phase::wall("detect", d));
        }
        if let Some(d) = f.suspect_to_dead_vt_ns {
            pm.phases.push(Phase::virt("suspect-to-dead", d));
        }
        // Restore latency is recorded by the restarted ranks themselves
        // (recovery.restore_ns / recovery.fetch_ns histograms); at bundle
        // time the window delta is the best available daemon-side view.
        let restore_delta =
            hist_sum_delta(&f.stats_before, stats_after, metric::RECOVERY_RESTORE_NS);
        if restore_delta > 0 {
            pm.phases.push(Phase::virt("restore", restore_delta));
        }
        pm.phases.push(Phase::virt(
            "respawn-window",
            complete_vt_ns.saturating_sub(f.begin_vt_ns),
        ));
        let depth = hist_sum_delta(
            &f.stats_before,
            stats_after,
            metric::RECOVERY_ROLLBACK_VT_NS,
        );
        let lost = hist_sum_delta(&f.stats_before, stats_after, metric::RECOVERY_LOST_MSGS);
        pm.rollback = Rollback {
            line: f.line,
            depth_vt_ns: depth,
            messages_lost: lost,
        };
        pm.events = events.since(f.anchor).0;
        pm.metrics = metrics_delta(&f.stats_before, stats_after);
        Some(pm)
    }
}

/// Counters that moved between two cluster-wide snapshots, by metric name.
fn metrics_delta(before: &Snapshot, after: &Snapshot) -> Vec<MetricDelta> {
    let mut out = Vec::new();
    for id in metric::all() {
        match id.kind() {
            MetricKind::Counter => {
                let d = after.counter(id) as i64 - before.counter(id) as i64;
                if d != 0 {
                    out.push(MetricDelta {
                        name: id.name().to_string(),
                        delta: d,
                    });
                }
            }
            MetricKind::Histogram => {
                let b = before.hist(id).map(|h| h.count).unwrap_or(0);
                let a = after.hist(id).map(|h| h.count).unwrap_or(0);
                if a != b {
                    out.push(MetricDelta {
                        name: id.name().to_string(),
                        delta: a as i64 - b as i64,
                    });
                }
            }
            MetricKind::Gauge => {}
        }
    }
    out
}

fn hist_sum_delta(before: &Snapshot, after: &Snapshot, id: starfish_telemetry::MetricId) -> u64 {
    let b = before.hist(id).map(|h| h.sum).unwrap_or(0);
    let a = after.hist(id).map(|h| h.sum).unwrap_or(0);
    a.saturating_sub(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_trace::FlightRecorder;
    use starfish_util::{Epoch, Rank, VirtualTime};

    impl Forensics {
        /// Whether a recovery of `app` is currently being assembled.
        pub(super) fn in_flight(&self, app: AppId) -> bool {
            self.inflight.contains_key(&app)
        }
    }

    /// The daemon loop in miniature: each event is recorded on a
    /// recorder's event class, and the sequenced event feeds the tracker.
    struct Stream {
        fx: Forensics,
        rec: FlightRecorder,
    }

    impl Stream {
        fn new() -> Self {
            Stream {
                fx: Forensics::new(),
                rec: FlightRecorder::new("n0", 64),
            }
        }

        fn feed(&mut self, vt_ns: u64, kind: EventKind) -> Option<AppId> {
            let vt = VirtualTime::from_nanos(vt_ns);
            let ev = self.rec.record_event(NodeId(0), vt, kind).unwrap();
            self.fx.observe(&ev, Snapshot::default)
        }

        /// Record `recovery-complete`, then assemble the bundle.
        fn complete(&mut self, app: AppId, vt_ns: u64) -> Option<Postmortem> {
            let epoch = Epoch(2);
            self.feed(vt_ns, EventKind::RecoveryComplete { app, epoch });
            self.finalize(app, vt_ns)
        }

        fn finalize(&mut self, app: AppId, complete_vt_ns: u64) -> Option<Postmortem> {
            let inputs = BundleInputs {
                app_name: &app.to_string(),
                store_backend: "disk",
                complete_vt_ns,
                events: &self.rec.events(),
                stats_after: &Snapshot::default(),
            };
            self.fx.finalize(app, inputs)
        }
    }

    fn labels(pm: &Postmortem) -> Vec<&'static str> {
        pm.events.iter().map(|e| e.kind.label()).collect()
    }

    /// Suspicion, death and a recovery of app1 whose one respawn lands at
    /// virtual time `respawn_vt_ns`.
    fn drive_recovery(s: &mut Stream, respawn_vt_ns: u64) {
        let (app, node) = (AppId(1), NodeId(2));
        let silent_ns = 450_000_000;
        assert_eq!(
            s.feed(1_000, EventKind::NodeSuspected { node, silent_ns }),
            None
        );
        assert_eq!(s.feed(2_000, EventKind::NodeDead { node }), None);
        let dead = vec![node];
        assert_eq!(s.feed(3_000, EventKind::RecoveryBegin { app, dead }), None);
        s.fx.expect_respawns(app, 1);
        let (epoch, line) = (Epoch(2), vec![4, 4, 4]);
        let restore = EventKind::RecoveryRestore { app, epoch, line };
        assert_eq!(s.feed(3_500, restore), None);
        let (rank, node) = (Rank(1), NodeId(0));
        let respawn = EventKind::RecoveryRespawn { app, rank, node };
        let done = s.feed(respawn_vt_ns, respawn);
        assert_eq!(done, Some(app), "last respawn completes the recovery");
    }

    #[test]
    fn full_lifecycle_builds_a_bundle() {
        let mut s = Stream::new();
        // Before the recovery's anchor: not in its bundle.
        s.feed(500, EventKind::NodeUp { node: NodeId(3) });
        drive_recovery(&mut s, 4_000);
        assert!(s.fx.in_flight(AppId(1)));
        let pm = s.complete(AppId(1), 5_000).unwrap();
        assert!(!s.fx.in_flight(AppId(1)));
        assert_eq!(pm.epoch, 2);
        assert_eq!(pm.rollback.line, vec![4, 4, 4]);
        assert_eq!(pm.phase_ns("detect"), Some(450_000_000));
        assert_eq!(pm.phase_ns("suspect-to-dead"), Some(1_000));
        assert_eq!(pm.phase_ns("respawn-window"), Some(2_000));
        assert!(pm.trigger.contains("heartbeat timeout"), "{}", pm.trigger);
        // The window walks back to the suspicion and ends at the complete.
        assert_eq!(
            labels(&pm),
            [
                "node-suspected",
                "node-dead",
                "recovery-begin",
                "recovery-restore",
                "recovery-respawn",
                "recovery-complete"
            ]
        );
        assert_eq!(pm.events[0].seq, 1);
    }

    /// An event's vt is its origin daemon's clock, so an event inside the
    /// recovery can carry a vt below the window's first one. The bundle is
    /// a sequence range, so it keeps it; a vt window would drop it.
    #[test]
    fn in_window_event_with_an_earlier_origin_vt_lands_in_the_bundle() {
        let mut s = Stream::new();
        drive_recovery(&mut s, 600);
        let pm = s.complete(AppId(1), 700).unwrap();
        let respawn = &pm.events[4];
        assert_eq!(respawn.kind.label(), "recovery-respawn");
        assert!(respawn.vt < pm.events[0].vt, "{:?}", pm.events);
        assert_eq!(labels(&pm).last(), Some(&"recovery-complete"));
        assert_eq!(pm.events.len(), 6);
    }

    #[test]
    fn fail_stop_without_suspicion_is_labelled() {
        let mut s = Stream::new();
        let (app, node) = (AppId(3), NodeId(1));
        s.feed(100, EventKind::NodeDead { node });
        let dead = vec![node];
        s.feed(200, EventKind::RecoveryBegin { app, dead });
        s.fx.expect_respawns(app, 0);
        let pm = s.finalize(app, 300).unwrap();
        assert!(pm.trigger.contains("fail-stop"), "{}", pm.trigger);
        assert_eq!(pm.phase_ns("detect"), None);
        assert_eq!(labels(&pm), ["node-dead", "recovery-begin"]);
    }

    #[test]
    fn reannounce_resets_detector_history() {
        let mut s = Stream::new();
        let node = NodeId(2);
        s.feed(100, EventKind::NodeSuspected { node, silent_ns: 7 });
        s.feed(200, EventKind::NodeUp { node });
        let (app, dead) = (AppId(1), vec![node]);
        s.feed(300, EventKind::RecoveryBegin { app, dead });
        let pm = s.finalize(app, 400).unwrap();
        // The stale pre-rejoin suspicion must not masquerade as detection,
        // nor anchor the bundle.
        assert_eq!(pm.phase_ns("detect"), None);
        assert_eq!(labels(&pm), ["recovery-begin"]);
    }

    #[test]
    fn finalize_unknown_app_is_none() {
        assert!(Stream::new().finalize(AppId(9), 0).is_none());
    }
}
