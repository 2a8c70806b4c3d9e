//! OBSERVABILITY.md against the code: its list of event labels is exactly
//! the labels `EventKind::label()` returns, its "Metric catalogue" is the
//! metric table row for row, and its "One ring" table has one row per
//! ring, each with the capacity the code gives it.

use starfish_daemon::stats::DEFAULT_HISTORY_RETENTION;
use starfish_telemetry::{metric, MetricKind, Unit};
use starfish_trace::event::EventKind;
use starfish_trace::recorder::{EVENT_CAPACITY, PHASE_CAPACITY};
use starfish_trace::DEFAULT_CAPACITY;
use starfish_util::{AppId, Epoch, NodeId, Rank};

const DOC: &str = include_str!("../../../OBSERVABILITY.md");

/// One event of every kind. The match fails to build when a kind is
/// added, until it is listed here too.
fn every_kind() -> Vec<EventKind> {
    let (app, node, rank, epoch) = (AppId(1), NodeId(2), Rank(0), Epoch(1));
    let kinds = vec![
        EventKind::NodeUp { node },
        EventKind::NodeSuspected { node, silent_ns: 1 },
        EventKind::NodeDead { node },
        EventKind::ViewChange {
            view: 1,
            members: vec![node],
        },
        EventKind::CkptRoundBegin { app },
        EventKind::CkptCommit {
            app,
            rank,
            index: 1,
        },
        EventKind::RecoveryBegin {
            app,
            dead: vec![node],
        },
        EventKind::RecoveryRestore {
            app,
            epoch,
            line: vec![1],
        },
        EventKind::RecoveryRespawn { app, rank, node },
        EventKind::RecoveryComplete { app, epoch },
        EventKind::FaultInjected { desc: "x".into() },
    ];
    for k in &kinds {
        match k {
            EventKind::NodeUp { .. }
            | EventKind::NodeSuspected { .. }
            | EventKind::NodeDead { .. }
            | EventKind::ViewChange { .. }
            | EventKind::CkptRoundBegin { .. }
            | EventKind::CkptCommit { .. }
            | EventKind::RecoveryBegin { .. }
            | EventKind::RecoveryRestore { .. }
            | EventKind::RecoveryRespawn { .. }
            | EventKind::RecoveryComplete { .. }
            | EventKind::FaultInjected { .. } => {}
        }
    }
    kinds
}

/// The lines of the section under `## <title>`, up to the next heading.
fn section(title: &str) -> Vec<&'static str> {
    let head = format!("## {title}");
    let mut lines = DOC.lines().skip_while(|l| *l != head);
    assert!(lines.next().is_some(), "OBSERVABILITY.md has no {head:?}");
    lines.take_while(|l| !l.starts_with("## ")).collect()
}

#[test]
fn event_kind_list_is_every_label() {
    let text = section("Cluster events").join("\n");
    let list = text
        .split("Event kinds")
        .nth(1)
        .and_then(|rest| rest.split(":").nth(1))
        .and_then(|rest| rest.split(".\n").next())
        .expect("an \"Event kinds ...:\" paragraph");
    let mut doc: Vec<&str> = list.split('`').skip(1).step_by(2).collect();
    let mut code: Vec<&str> = every_kind().iter().map(EventKind::label).collect();
    doc.sort_unstable();
    code.sort_unstable();
    assert_eq!(doc, code);
}

#[test]
fn one_ring_table_has_one_row_per_ring() {
    let rows: Vec<Vec<&str>> = section("One ring")
        .into_iter()
        .filter(|l| l.starts_with("| ") && !l.starts_with("| ring |"))
        .map(|l| l.split(" | ").collect())
        .collect();
    let ring = |name: &str| rows.iter().filter(|r| r[0].starts_with(name)).count();
    let expect = [
        ("| flight recorder, messages", DEFAULT_CAPACITY),
        ("| flight recorder, cluster events", EVENT_CAPACITY),
        ("| flight recorder, phases", PHASE_CAPACITY),
        ("| stats history", DEFAULT_HISTORY_RETENTION),
    ];
    assert_eq!(rows.len(), expect.len(), "{rows:?}");
    for (name, cap) in expect {
        assert_eq!(ring(name), 1, "{name}: {rows:?}");
        let row = rows.iter().find(|r| r[0].starts_with(name)).unwrap();
        assert!(row[2].contains(&cap.to_string()), "{name}: {row:?}");
    }
}

#[test]
fn metric_catalogue_is_the_metric_table() {
    let doc: Vec<String> = section("Metric catalogue")
        .into_iter()
        .filter(|l| l.starts_with("| `"))
        .map(str::to_string)
        .collect();
    let code: Vec<String> = metric::all()
        .map(|id| {
            let kind = match id.kind() {
                MetricKind::Counter => "counter",
                MetricKind::Gauge => "gauge",
                MetricKind::Histogram => "histogram",
            };
            let unit = match id.unit() {
                Unit::Count => "count",
                Unit::Bytes => "bytes",
                Unit::VirtualNanos => "virtual ns",
                Unit::WallNanos => "wall ns",
            };
            format!("| `{}` | {kind} | {unit} |", id.name())
        })
        .collect();
    assert_eq!(doc, code);
}
