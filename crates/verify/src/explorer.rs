//! A hand-rolled explicit-state model checker in the style of `stateright`
//! (vendoring the real crate is impossible offline; the subset we need —
//! BFS over a finite transition system with safety invariants, deadlock
//! detection and a reachability liveness pass — fits in this file).
//!
//! A [`Model`] describes a finite nondeterministic system:
//!
//! * [`Model::init`] — the initial state(s);
//! * [`Model::actions`] — every action enabled in a state (message
//!   deliveries, crashes, local completions …);
//! * [`Model::next`] — the successor of a state under an action;
//! * [`Model::check`] — safety invariants, judged on **every** reachable
//!   state;
//! * [`Model::accepting`] — states in which the system is allowed to rest
//!   (quiescent and healthy).
//!
//! [`explore`] enumerates the whole reachable state space breadth-first and
//! reports the first violation with a minimal-length action trace (BFS
//! explores by depth, so the reconstructed counterexample is a shortest
//! path). Three failure classes are distinguished:
//!
//! 1. **safety** — `check` rejected a reachable state;
//! 2. **deadlock** — a non-accepting state enables no action at all;
//! 3. **livelock** (optional, [`Options::liveness`]) — a reachable state
//!    from which no accepting state is reachable. This is how "the
//!    reliability layer can always finish repairing" is phrased: retransmit
//!    actions keep states from deadlocking, so plain deadlock detection
//!    would miss a repair path that cycles without converging.
//!
//! States are keyed by their `Debug` rendering. Every state type in this
//! crate is built from `BTreeMap`/`BTreeSet`/`Vec`/scalars, whose `Debug`
//! output is a canonical serialization, so two states collide exactly when
//! they are equal — and the protocol engines under test need no `Hash`/`Eq`
//! derives of their own.

use std::collections::{HashMap, VecDeque};
use std::fmt::Debug;

/// A finite nondeterministic transition system to exhaustively check.
pub trait Model {
    type State: Clone + Debug;
    type Action: Clone + Debug;

    /// Initial state(s).
    fn init(&self) -> Vec<Self::State>;

    /// Every action enabled in `s`. An empty vector in a non-accepting
    /// state is reported as a deadlock.
    fn actions(&self, s: &Self::State) -> Vec<Self::Action>;

    /// The (deterministic) successor of `s` under `a`.
    fn next(&self, s: &Self::State, a: &Self::Action) -> Self::State;

    /// Safety invariants; judged on every reachable state.
    fn check(&self, s: &Self::State) -> Result<(), String>;

    /// May the system rest here?
    fn accepting(&self, s: &Self::State) -> bool;
}

/// Exploration limits and switches.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Hard cap on distinct states; exceeding it marks the report
    /// incomplete instead of looping forever on an infinite space.
    pub(crate) max_states: usize,
    /// Also require every reachable state to be able to *reach* an
    /// accepting state (no livelocks).
    pub(crate) liveness: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_states: 1 << 21,
            liveness: true,
        }
    }
}

/// Why exploration stopped at a state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViolationKind {
    Safety,
    Deadlock,
    Livelock,
}

/// A counterexample: the shortest action trace from an initial state to the
/// offending state.
#[derive(Debug, Clone)]
pub struct Violation {
    pub kind: ViolationKind,
    pub message: String,
    /// `Debug` renderings of the actions along the path, in order.
    pub trace: Vec<String>,
}

/// The outcome of one exhaustive exploration.
#[derive(Debug, Clone)]
pub struct Report {
    /// Distinct states enumerated.
    pub states: usize,
    /// Transitions (edges) taken.
    pub transitions: usize,
    /// Depth of the deepest state (longest shortest-path).
    pub max_depth: usize,
    /// Number of accepting states.
    pub accepting: usize,
    /// Whether the whole space fit under `max_states`.
    pub complete: bool,
    pub violation: Option<Violation>,
}

impl Report {
    /// True exactly when the space was fully enumerated and no safety,
    /// deadlock or liveness violation was found.
    #[cfg(test)]
    pub(crate) fn clean(&self) -> bool {
        self.complete && self.violation.is_none()
    }
}

/// Exhaustively enumerate `m`'s reachable states breadth-first.
pub fn explore<M: Model>(m: &M, opts: Options) -> Report {
    // Index of every seen state by its canonical (Debug) key.
    let mut seen: HashMap<String, usize> = HashMap::new();
    let mut states: Vec<M::State> = Vec::new();
    let mut parent: Vec<Option<(usize, M::Action)>> = Vec::new();
    let mut depth: Vec<usize> = Vec::new();
    let mut preds: Vec<Vec<usize>> = Vec::new(); // reverse edges (liveness)
    let mut acceptings: Vec<usize> = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();

    let mut report = Report {
        states: 0,
        transitions: 0,
        max_depth: 0,
        accepting: 0,
        complete: true,
        violation: None,
    };

    let push = |s: M::State,
                from: Option<(usize, M::Action)>,
                d: usize,
                seen: &mut HashMap<String, usize>,
                states: &mut Vec<M::State>,
                parent: &mut Vec<Option<(usize, M::Action)>>,
                depth: &mut Vec<usize>,
                preds: &mut Vec<Vec<usize>>,
                queue: &mut VecDeque<usize>|
     -> usize {
        let key = format!("{s:?}");
        if let Some(&idx) = seen.get(&key) {
            return idx;
        }
        let idx = states.len();
        seen.insert(key, idx);
        states.push(s);
        parent.push(from);
        depth.push(d);
        preds.push(Vec::new());
        queue.push_back(idx);
        idx
    };

    for s in m.init() {
        push(
            s,
            None,
            0,
            &mut seen,
            &mut states,
            &mut parent,
            &mut depth,
            &mut preds,
            &mut queue,
        );
    }

    while let Some(idx) = queue.pop_front() {
        if states.len() > opts.max_states {
            report.complete = false;
            break;
        }
        let s = states[idx].clone();
        let d = depth[idx];
        report.max_depth = report.max_depth.max(d);

        if let Err(msg) = m.check(&s) {
            report.violation = Some(Violation {
                kind: ViolationKind::Safety,
                message: msg,
                trace: trace_to(idx, &parent),
            });
            break;
        }
        let accepting = m.accepting(&s);
        if accepting {
            acceptings.push(idx);
        }

        let actions = m.actions(&s);
        if actions.is_empty() && !accepting {
            report.violation = Some(Violation {
                kind: ViolationKind::Deadlock,
                message: "non-accepting state enables no action".into(),
                trace: trace_to(idx, &parent),
            });
            break;
        }
        for a in actions {
            let succ = m.next(&s, &a);
            report.transitions += 1;
            let sidx = push(
                succ,
                Some((idx, a)),
                d + 1,
                &mut seen,
                &mut states,
                &mut parent,
                &mut depth,
                &mut preds,
                &mut queue,
            );
            preds[sidx].push(idx);
        }
    }

    report.states = states.len();
    report.accepting = acceptings.len();

    // Liveness: every reachable state must be able to reach an accepting
    // state. Reverse BFS from the accepting set; anything unpainted is a
    // livelock witness.
    if report.violation.is_none() && report.complete && opts.liveness {
        let mut can_finish = vec![false; states.len()];
        let mut rq: VecDeque<usize> = VecDeque::new();
        for &a in &acceptings {
            can_finish[a] = true;
            rq.push_back(a);
        }
        while let Some(i) = rq.pop_front() {
            for &p in &preds[i] {
                if !can_finish[p] {
                    can_finish[p] = true;
                    rq.push_back(p);
                }
            }
        }
        if let Some(stuck) = (0..states.len()).find(|&i| !can_finish[i]) {
            report.violation = Some(Violation {
                kind: ViolationKind::Livelock,
                message: "state cannot reach any accepting state".into(),
                trace: trace_to(stuck, &parent),
            });
        }
    }

    report
}

/// Reconstruct the action trace from an initial state to `idx`.
fn trace_to<A: Debug>(mut idx: usize, parent: &[Option<(usize, A)>]) -> Vec<String> {
    let mut rev = Vec::new();
    while let Some((p, a)) = &parent[idx] {
        rev.push(format!("{a:?}"));
        idx = *p;
    }
    rev.reverse();
    rev
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter that steps 0→N and may double-step from 2 to break an
    /// invariant at 5 when `broken`.
    struct Counter {
        limit: u64,
        broken: bool,
    }

    impl Model for Counter {
        type State = u64;
        type Action = u64; // increment amount

        fn init(&self) -> Vec<u64> {
            vec![0]
        }
        fn actions(&self, s: &u64) -> Vec<u64> {
            if *s >= self.limit {
                return Vec::new();
            }
            if self.broken && *s == 2 {
                vec![1, 3]
            } else {
                vec![1]
            }
        }
        fn next(&self, s: &u64, a: &u64) -> u64 {
            s + a
        }
        fn check(&self, s: &u64) -> Result<(), String> {
            if self.broken && *s == 5 && self.limit != 5 {
                Err("hit 5".into())
            } else {
                Ok(())
            }
        }
        fn accepting(&self, s: &u64) -> bool {
            *s == self.limit
        }
    }

    #[test]
    fn clean_chain_explores_fully() {
        let r = explore(
            &Counter {
                limit: 4,
                broken: false,
            },
            Options::default(),
        );
        assert!(r.clean(), "{r:?}");
        assert_eq!(r.states, 5);
        assert_eq!(r.max_depth, 4);
        assert_eq!(r.accepting, 1);
    }

    #[test]
    fn safety_violation_yields_shortest_trace() {
        let r = explore(
            &Counter {
                limit: 7,
                broken: true,
            },
            Options::default(),
        );
        let v = r.violation.expect("must find the violation");
        assert_eq!(v.kind, ViolationKind::Safety);
        // Shortest path to 5 is 1,1,3 (depth 3), not five increments.
        assert_eq!(v.trace, vec!["1", "1", "3"]);
    }

    #[test]
    fn deadlock_detected_when_stuck_short_of_accepting() {
        struct Stuck;
        impl Model for Stuck {
            type State = u8;
            type Action = u8;
            fn init(&self) -> Vec<u8> {
                vec![0]
            }
            fn actions(&self, s: &u8) -> Vec<u8> {
                if *s == 0 {
                    vec![1]
                } else {
                    Vec::new()
                }
            }
            fn next(&self, s: &u8, a: &u8) -> u8 {
                s + a
            }
            fn check(&self, _: &u8) -> Result<(), String> {
                Ok(())
            }
            fn accepting(&self, s: &u8) -> bool {
                *s == 9
            }
        }
        let r = explore(&Stuck, Options::default());
        assert_eq!(r.violation.unwrap().kind, ViolationKind::Deadlock);
    }

    #[test]
    fn livelock_detected_by_reachability_pass() {
        // 0 → {1, 2}; 1 ⇄ 1' forever; 2 → done. State 1 never reaches
        // accepting but always has actions: invisible to deadlock checks.
        struct Loopy;
        impl Model for Loopy {
            type State = u8;
            type Action = u8;
            fn init(&self) -> Vec<u8> {
                vec![0]
            }
            fn actions(&self, s: &u8) -> Vec<u8> {
                match s {
                    0 => vec![1, 2],
                    1 => vec![10],
                    10 => vec![1],
                    _ => Vec::new(),
                }
            }
            fn next(&self, _: &u8, a: &u8) -> u8 {
                *a
            }
            fn check(&self, _: &u8) -> Result<(), String> {
                Ok(())
            }
            fn accepting(&self, s: &u8) -> bool {
                *s == 2
            }
        }
        let r = explore(&Loopy, Options::default());
        assert_eq!(r.violation.unwrap().kind, ViolationKind::Livelock);
        let r = explore(
            &Loopy,
            Options {
                liveness: false,
                ..Options::default()
            },
        );
        assert!(r.violation.is_none());
    }

    #[test]
    fn state_cap_marks_report_incomplete() {
        let r = explore(
            &Counter {
                limit: 1000,
                broken: false,
            },
            Options {
                max_states: 10,
                liveness: false,
            },
        );
        assert!(!r.complete);
        assert!(!r.clean());
    }
}
