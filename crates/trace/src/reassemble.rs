//! Reassembly: merge per-process rings into a happens-before DAG.
//!
//! Nodes are the retained events of every dumped ring; edges are
//!
//! * **program order** — consecutive events of one process, and
//! * **message order** — a `Send` to the `Recv` that carried its span id.
//!
//! The DAG supports the two invariants the chaos acceptance test pins
//! (acyclicity, per-process Lamport monotonicity plus Lamport respecting
//! every edge) and the critical-path query the `TRACE PATH` management
//! command exposes: the causal chain ending at the latest event that
//! crosses the most process boundaries — the chain you read to answer
//! "what did the slow round actually wait on".

use std::collections::HashMap;

use crate::record::{EventKind, TraceEvent};
use crate::recorder::ProcTrace;

/// One node of the happens-before DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRef {
    /// Index into the dumped traces.
    pub(crate) proc: usize,
    /// Index into that trace's `events`.
    pub(crate) idx: usize,
}

/// The reassembled happens-before DAG over a set of dumped rings.
pub struct Dag {
    pub(crate) traces: Vec<ProcTrace>,
    pub nodes: Vec<NodeRef>,
    /// Edges as (from, to) indices into `nodes`.
    pub(crate) edges: Vec<(usize, usize)>,
    /// How many of `edges` are cross-process message edges.
    pub message_edges: usize,
}

/// One step of a rendered critical path.
#[derive(Debug, Clone)]
pub(crate) struct PathStep {
    pub(crate) scope: String,
    pub(crate) event: TraceEvent,
}

/// Build the happens-before DAG of the given dumps.
pub fn reassemble(traces: Vec<ProcTrace>) -> Dag {
    let mut nodes = Vec::new();
    let mut edges = Vec::new();
    // span id -> node index of the Send that minted it.
    let mut send_of: HashMap<u64, usize> = HashMap::new();
    for (p, t) in traces.iter().enumerate() {
        for (i, ev) in t.events.iter().enumerate() {
            let n = nodes.len();
            nodes.push(NodeRef { proc: p, idx: i });
            if i > 0 {
                edges.push((n - 1, n));
            }
            if let EventKind::Send { ctx, .. } = &ev.kind {
                send_of.insert(ctx.span, n);
            }
        }
    }
    let mut message_edges = 0;
    for (n, nr) in nodes.iter().enumerate() {
        let ev = &traces[nr.proc].events[nr.idx];
        if let EventKind::Recv { ctx, .. } = &ev.kind {
            if ctx.is_some() {
                if let Some(&s) = send_of.get(&ctx.span) {
                    edges.push((s, n));
                    message_edges += 1;
                }
                // A send evicted from its ring (or a dead node's ring not
                // dumped) leaves a dangling receive: still a valid node,
                // just without its cross-process edge.
            }
        }
    }
    Dag {
        traces,
        nodes,
        edges,
        message_edges,
    }
}

impl Dag {
    fn event(&self, n: usize) -> &TraceEvent {
        let nr = self.nodes[n];
        &self.traces[nr.proc].events[nr.idx]
    }

    /// Kahn topological sort; `None` if the graph has a cycle.
    fn topo(&self) -> Option<Vec<usize>> {
        let mut indeg = vec![0usize; self.nodes.len()];
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); self.nodes.len()];
        for &(a, b) in &self.edges {
            indeg[b] += 1;
            out[a].push(b);
        }
        let mut stack: Vec<usize> = (0..self.nodes.len()).filter(|&n| indeg[n] == 0).collect();
        let mut order = Vec::with_capacity(self.nodes.len());
        while let Some(n) = stack.pop() {
            order.push(n);
            for &m in &out[n] {
                indeg[m] -= 1;
                if indeg[m] == 0 {
                    stack.push(m);
                }
            }
        }
        (order.len() == self.nodes.len()).then_some(order)
    }

    /// True iff the happens-before relation is acyclic.
    pub(crate) fn is_acyclic(&self) -> bool {
        self.topo().is_some()
    }

    /// True iff every process's Lamport clock is strictly increasing in
    /// ring order. (Virtual time is deliberately *not* required to be
    /// monotone: a retransmitted control mark is replayed at its original
    /// virtual departure time.)
    pub(crate) fn lamport_monotone(&self) -> bool {
        self.traces
            .iter()
            .all(|t| t.events.windows(2).all(|w| w[1].lamport > w[0].lamport))
    }

    /// Full consistency check: acyclic, per-process monotone, and Lamport
    /// strictly increasing along every edge (the clock respects
    /// happens-before). Returns a description of the first violation.
    pub fn check(&self) -> Result<(), String> {
        if !self.lamport_monotone() {
            return Err("a per-process Lamport sequence is not strictly increasing".into());
        }
        for &(a, b) in &self.edges {
            let (ea, eb) = (self.event(a), self.event(b));
            if ea.lamport >= eb.lamport {
                return Err(format!(
                    "edge violates Lamport order: {} !< {} ({} -> {})",
                    ea.lamport,
                    eb.lamport,
                    self.traces[self.nodes[a].proc].scope,
                    self.traces[self.nodes[b].proc].scope,
                ));
            }
        }
        if !self.is_acyclic() {
            return Err("happens-before graph has a cycle".into());
        }
        Ok(())
    }

    /// The causal chain ending at the globally latest event, preferring
    /// (in order) chains that cross more process boundaries, then longer
    /// chains. Empty if there are no events.
    pub(crate) fn critical_path(&self) -> Vec<PathStep> {
        let Some(order) = self.topo() else {
            return Vec::new();
        };
        let mut preds: Vec<Vec<(usize, bool)>> = vec![Vec::new(); self.nodes.len()];
        for &(a, b) in &self.edges {
            let cross = self.nodes[a].proc != self.nodes[b].proc;
            preds[b].push((a, cross));
        }
        // best[n] = (message hops, total hops, predecessor)
        let mut best: Vec<(u64, u64, Option<usize>)> = vec![(0, 0, None); self.nodes.len()];
        for &n in &order {
            for &(p, cross) in &preds[n] {
                let cand = (best[p].0 + cross as u64, best[p].1 + 1, Some(p));
                if (cand.0, cand.1) > (best[n].0, best[n].1) {
                    best[n] = cand;
                }
            }
        }
        let Some(mut cur) = (0..self.nodes.len()).max_by_key(|&n| {
            let ev = self.event(n);
            (ev.vt, best[n].0, best[n].1)
        }) else {
            return Vec::new();
        };
        let mut path = Vec::new();
        loop {
            let nr = self.nodes[cur];
            path.push(PathStep {
                scope: self.traces[nr.proc].scope.clone(),
                event: self.event(cur).clone(),
            });
            match best[cur].2 {
                Some(p) => cur = p,
                None => break,
            }
        }
        path.reverse();
        path
    }

    /// How many message edges leave a send that its ring recorded inside
    /// an open phase named `phase` (`"ckpt.round"`): the traffic a
    /// sampled-out root cannot hide.
    pub fn message_edges_in(&self, phase: &str) -> usize {
        let mut inside = vec![false; self.nodes.len()];
        let mut depth = 0usize;
        for (n, nr) in self.nodes.iter().enumerate() {
            if nr.idx == 0 {
                depth = 0;
            }
            match &self.event(n).kind {
                EventKind::PhaseBegin { name } if name == phase => depth += 1,
                EventKind::PhaseEnd { name, .. } if name == phase => {
                    depth = depth.saturating_sub(1)
                }
                EventKind::Send { .. } => inside[n] = depth > 0,
                _ => {}
            }
        }
        // The message edges follow the program-order ones.
        let messages = &self.edges[self.edges.len() - self.message_edges..];
        messages.iter().filter(|&&(send, _)| inside[send]).count()
    }

    /// Render the critical path one step per line.
    pub fn render_path(&self) -> String {
        let path = self.critical_path();
        let mut out = String::new();
        for step in &path {
            out.push_str(&format!("{:<12} {}\n", step.scope, step.event.summary()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::TraceCtx;
    use crate::recorder::FlightRecorder;
    use starfish_util::VirtualTime;

    fn vt(n: u64) -> VirtualTime {
        VirtualTime::from_nanos(n)
    }

    /// Two processes, one message each way: the DAG must be acyclic, obey
    /// Lamport order, and the critical path must cross processes.
    #[test]
    fn cross_process_chain_reassembles() {
        let a = FlightRecorder::new("r0", 64);
        let b = FlightRecorder::new("r1", 64);
        let c1 = a.on_send(vt(10), 1, 1, 7, 8);
        b.on_recv(vt(20), 0, 1, 7, 8, c1);
        let c2 = b.on_send(vt(30), 0, 1, 8, 8);
        a.on_recv(vt(40), 1, 1, 8, 8, c2);
        let dag = reassemble(vec![a.dump(), b.dump()]);
        assert_eq!(dag.message_edges, 2);
        assert_eq!(dag.message_edges_in("round"), 0);
        dag.check().unwrap();
        let path = dag.critical_path();
        assert_eq!(path.len(), 4, "send->recv->send->recv chain");
        assert_eq!(path[0].scope, "r0");
        assert_eq!(path.last().unwrap().scope, "r0");
    }

    /// Only the edges whose send lies inside the named phase count: the
    /// receiver's phases do not matter, nor the sender's other phases.
    #[test]
    fn edges_are_counted_inside_the_senders_phase() {
        let a = FlightRecorder::new("r0", 64);
        let b = FlightRecorder::new("r1", 64);
        let before = a.on_send(vt(1), 1, 1, 1, 8);
        a.phase_begin(vt(2), "round");
        a.phase_begin(vt(3), "inner");
        let inside = a.on_send(vt(4), 1, 1, 2, 8);
        a.phase_end(vt(5), "inner", "");
        let still = a.on_send(vt(6), 1, 1, 3, 8);
        a.phase_end(vt(7), "round", "");
        b.phase_begin(vt(8), "round");
        for ctx in [before, inside, still] {
            b.on_recv(vt(9), 0, 1, 0, 8, ctx);
        }
        let reply = b.on_send(vt(10), 0, 1, 4, 8);
        a.on_recv(vt(11), 1, 1, 4, 8, reply);
        let dag = reassemble(vec![a.dump(), b.dump()]);
        assert_eq!(dag.message_edges, 4);
        assert_eq!(dag.message_edges_in("round"), 3);
        assert_eq!(dag.message_edges_in("inner"), 1);
    }

    /// A receive whose send was evicted (or whose sender died) dangles but
    /// does not corrupt the graph.
    #[test]
    fn dangling_recv_is_tolerated() {
        let b = FlightRecorder::new("r1", 64);
        b.on_recv(
            vt(5),
            0,
            1,
            7,
            8,
            TraceCtx {
                trace: 99,
                span: 99,
                parent: 0,
                lamport: 50,
            },
        );
        b.mark(vt(6), "after", "");
        let dag = reassemble(vec![b.dump()]);
        assert_eq!(dag.message_edges, 0);
        dag.check().unwrap();
    }

    /// An artificially corrupted ring (non-monotone Lamport) is reported.
    #[test]
    fn corrupted_ring_fails_check() {
        let a = FlightRecorder::new("r0", 64);
        a.mark(vt(1), "x", "");
        a.mark(vt(2), "y", "");
        let mut d = a.dump();
        d.events[1].lamport = 0;
        let dag = reassemble(vec![d]);
        assert!(dag.check().is_err());
    }
}
