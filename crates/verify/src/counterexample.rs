//! Counterexample rendering: model-checker traces as `FaultPlan` DSL.
//!
//! A violation found by the explorer is an action trace over an abstract
//! model. To make it *actionable* it is rendered as a
//! [`starfish_chaos::FaultPlan`] — the repo's lingua franca for adversarial
//! schedules — with the abstract trace preserved as `#` comments. The plan
//! parses with `FaultPlan::parse`, replays under the deterministic chaos
//! driver, and trips the corresponding oracle there: the bridge test
//! (`tests/bridge.rs`) holds that loop closed, and CI uploads these plans
//! as artifacts whenever `model-check` finds a violation.

use starfish_chaos::FaultPlan;

use crate::explorer::Violation;

/// Render a generic violation as a commented, parseable plan skeleton for
/// the artifact upload: shape `nodes`/`ranks`, no packet faults (the trace
/// comments carry the abstract schedule).
pub fn render_plan_commented(model: &str, v: &Violation, nodes: u32, ranks: u32) -> String {
    let mut out = String::new();
    out.push_str("starfish-fault-plan v1\n");
    out.push_str(&format!("# model-checker counterexample: {model}\n"));
    out.push_str(&format!("# {:?}: {}\n", v.kind, v.message));
    out.push_str("# abstract trace (shortest path):\n");
    for (i, a) in v.trace.iter().enumerate() {
        out.push_str(&format!("#   {i:>3}. {a}\n"));
    }
    out.push_str(&format!(
        "seed 1\nnodes {nodes}\nranks {ranks}\nsteps 8\nckpt-every 0\n"
    ));
    out
}

/// Render the unreliable-flow loss counterexample as a *concrete* plan: two
/// ranks on two nodes, reliability layer off, and a total-loss link from
/// the sender's node to the receiver's — the driver-level realization of
/// the model's `Drop` action. Replaying it violates the `exactly_once`
/// oracle, which is exactly what the abstract trace proves must happen.
pub fn unreliable_loss_plan(trace: &[String], delivered: &[u64]) -> String {
    let mut out = String::new();
    out.push_str("starfish-fault-plan v1\n");
    out.push_str("# model-checker counterexample: reliability model, reliable=false\n");
    out.push_str("# without the flow layer a single wire drop is a permanent loss;\n");
    out.push_str(&format!(
        "# abstract endstate delivered {delivered:?} of the sent prefix\n"
    ));
    out.push_str("# abstract trace (shortest path):\n");
    for (i, a) in trace.iter().enumerate() {
        out.push_str(&format!("#   {i:>3}. {a}\n"));
    }
    out.push_str("seed 1\n");
    out.push_str("nodes 2\n");
    out.push_str("ranks 2\n");
    out.push_str("steps 8\n");
    out.push_str("ckpt-every 0\n");
    out.push_str("unreliable\n");
    // Total loss on the 0→1 link realizes the model's Drop budget; with the
    // layer disabled nothing repairs it.
    out.push_str("fault 0->1 seed=1 drop=1 dup=0 delay=0us@0 reorder=0\n");
    out
}

/// Every rendered plan must stay parseable — the artifact is useless if the
/// DSL rejects it.
pub fn assert_parses(text: &str) -> FaultPlan {
    match FaultPlan::parse(text) {
        Ok(p) => p,
        Err(e) => panic!("rendered counterexample does not parse: {e}\n{text}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::ViolationKind;

    #[test]
    fn commented_skeleton_parses() {
        let v = Violation {
            kind: ViolationKind::Safety,
            message: "x".into(),
            trace: vec!["A".into(), "B".into()],
        };
        let p = assert_parses(&render_plan_commented("stop-sync", &v, 3, 3));
        assert_eq!(p.nodes, 3);
        assert!(!p.unreliable);
    }

    #[test]
    fn loss_plan_parses_with_unreliable_and_total_drop() {
        let text = unreliable_loss_plan(&["Send".into(), "Drop(1)".into()], &[]);
        let p = assert_parses(&text);
        assert!(p.unreliable);
        assert_eq!(p.faults.len(), 1);
        assert_eq!(p.faults[0].drop_p, 1.0);
    }
}
