//! Lock-graph integration tests: a snapshot of the graph extracted from
//! `fixtures/locky`, the mutation test proving cycle detection actually
//! depends on the edges (delete one, the cycle report must die), and a pin
//! of the real `vni` fabric's lock order so a future refactor that inverts
//! it fails loudly.

use std::collections::BTreeSet;
use std::path::Path;
use verify::locks::{self, Watched};
use verify::model::CrateModel;

fn locky() -> locks::LockAnalysis {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/locky");
    let models = vec![CrateModel::parse("locky", &dir)];
    locks::analyze(&models, Watched::All)
}

#[test]
fn locky_graph_snapshot() {
    let la = locky();
    let classes: Vec<&str> = la.graph.classes.iter().map(|s| s.as_str()).collect();
    assert_eq!(
        classes,
        vec!["locky::Hub.a", "locky::Hub.b", "locky::Hub.c"],
        "lock classes changed"
    );
    let edges: BTreeSet<(String, String)> = la
        .graph
        .edges
        .iter()
        .map(|e| (e.a.clone(), e.b.clone()))
        .collect();
    let want: BTreeSet<(String, String)> = [
        ("locky::Hub.a", "locky::Hub.b"),
        ("locky::Hub.b", "locky::Hub.c"),
        ("locky::Hub.c", "locky::Hub.a"),
    ]
    .into_iter()
    .map(|(a, b)| (a.to_string(), b.to_string()))
    .collect();
    assert_eq!(edges, want, "edge set changed");

    // The a->b edge is interprocedural: its witness must show BOTH the
    // acquisition in `ab` and the hop through `grab_b`.
    let ab = la
        .graph
        .edges
        .iter()
        .find(|e| e.a == "locky::Hub.a" && e.b == "locky::Hub.b")
        .expect("a->b edge");
    let w = ab.witness.join("\n");
    assert!(w.contains("Hub::ab"), "witness missing the holder:\n{w}");
    assert!(w.contains("grab_b"), "witness missing the call hop:\n{w}");
}

#[test]
fn locky_cycle_is_detected_and_mutation_kills_it() {
    let la = locky();
    let cycles = la.graph.cycles();
    assert!(
        !cycles.is_empty(),
        "the seeded 3-cycle a->b->c->a must be reported"
    );

    // Mutation test: deleting any single edge of the cycle must make the
    // report disappear — proves detection depends on the edges rather than
    // always (or never) firing.
    for (a, b) in [
        ("locky::Hub.a", "locky::Hub.b"),
        ("locky::Hub.b", "locky::Hub.c"),
        ("locky::Hub.c", "locky::Hub.a"),
    ] {
        let mutated = la.graph.without_edge(a, b);
        assert!(
            mutated.cycles().is_empty(),
            "cycle survived deleting {a} -> {b}"
        );
    }
}

#[test]
fn real_vni_fabric_lock_order_is_pinned_and_acyclic() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let vni = CrateModel::parse("vni", &root.join("crates/vni"));
    let la = locks::analyze(&[vni], Watched::VniDaemon);

    let edges: BTreeSet<(String, String)> = la
        .graph
        .edges
        .iter()
        .map(|e| (e.a.clone(), e.b.clone()))
        .collect();
    // The fabric's documented order: membership (outer) before the
    // per-link shard lock before the destination inbox queue.
    for (a, b) in [
        ("vni::Inner.membership", "vni::Membership.links"),
        ("vni::Membership.links", "vni::Inbox.q"),
        ("vni::Inner.membership", "vni::Inbox.q"),
    ] {
        assert!(
            edges.contains(&(a.to_string(), b.to_string())),
            "expected lock-order edge {a} -> {b} not extracted; got {edges:?}"
        );
    }
    assert!(
        la.graph.cycles().is_empty(),
        "vni fabric lock graph must stay acyclic: {:?}",
        la.graph.cycles()
    );
}
