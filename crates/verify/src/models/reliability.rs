//! Exhaustive model of the MPI reliability layer
//! ([`starfish_mpi::reliability`]) over a lossy, reordering, duplicating
//! wire — and of the same wire *without* the layer, which is where the
//! model-checker → chaos bridge gets its counterexample.
//!
//! The state holds the real `FlowTx`/`FlowRx` machines the endpoint runs
//! ([`Link`]), specialized to `u64` payloads (the endpoint stores framed
//! bytes; the machines are payload-generic, so checking them over ids
//! checks the deployed logic). The wire is an unordered *set* of frames —
//! the adversary delivers any element in any order, may drop up to
//! `max_drops` and deliver-without-consuming (duplicate) up to `max_dups`
//! of them. That is exactly the fault model [`starfish_vni::LinkFault`]
//! injects. The control round trips (`Ping`, `Flush`, the NACK) are
//! collapsed into atomic repair actions, as [`Link`] documents.
//!
//! With `reliable = true` the safety invariant is the chaos `exactly_once`
//! and `fifo_order` oracle pair in their strongest form — the delivered list
//! is always exactly `1..=k` in order — and the liveness pass proves
//! **repair completeness**: from every reachable state (any combination of
//! losses, dups, reorders within budget) the flows can still converge to
//! full delivery. With `reliable = false` the flow machines are bypassed
//! (the endpoint's seq-0 unmanaged path) and the checker finds the
//! inevitable exactly-once violation; [`crate::counterexample`] turns its
//! trace into a committed `FaultPlan`.

use super::link::Link;
use crate::explorer::Model;

/// Model parameters.
#[derive(Debug, Clone, Copy)]
pub struct ReliabilityModel {
    /// Messages the sender wants delivered (sequences `1..=total`).
    pub total: u64,
    /// Wire drop budget.
    pub max_drops: u32,
    /// Wire duplication budget.
    pub max_dups: u32,
    /// Run the real flow machines (true) or the raw datagram path (false).
    pub reliable: bool,
    /// Retransmission window of the flow; must be ≥ `total` for the
    /// liveness claim (a seed narrower than the in-flight span genuinely
    /// cannot repair).
    pub window: usize,
}

#[derive(Clone, Debug)]
pub struct RelState {
    /// The flow pair and the wire; every frame carries its own sequence.
    link: Link<u64>,
    delivered: Vec<u64>,
    sent: u64,
    drops_left: u32,
    dups_left: u32,
}

#[derive(Clone, Debug)]
pub enum RelAction {
    /// Application sends the next message.
    Send,
    /// Wire delivers packet `seq` (consuming it).
    Deliver(u64),
    /// Wire duplicates packet `seq`: delivers a copy, keeps the original.
    Duplicate(u64),
    /// Wire drops packet `seq`.
    Drop(u64),
    /// Receiver's cumulative ack reaches the sender; unacked retransmit.
    Ping,
    /// Sender's tail-loss probe: receiver NACKs its gaps, sender resends.
    Flush,
}

impl Model for ReliabilityModel {
    type State = RelState;
    type Action = RelAction;

    fn init(&self) -> Vec<RelState> {
        vec![RelState {
            link: Link::new(self.window),
            delivered: Vec::new(),
            sent: 0,
            drops_left: self.max_drops,
            dups_left: self.max_dups,
        }]
    }

    fn actions(&self, s: &RelState) -> Vec<RelAction> {
        let mut acts = Vec::new();
        if s.sent < self.total {
            acts.push(RelAction::Send);
        }
        for &(seq, _) in &s.link.wire {
            acts.push(RelAction::Deliver(seq));
            if s.dups_left > 0 {
                acts.push(RelAction::Duplicate(seq));
            }
            if s.drops_left > 0 {
                acts.push(RelAction::Drop(seq));
            }
        }
        if self.reliable && s.sent > 0 {
            acts.push(RelAction::Ping);
            acts.push(RelAction::Flush);
        }
        acts
    }

    fn next(&self, s: &RelState, a: &RelAction) -> RelState {
        let mut s = s.clone();
        match a {
            RelAction::Send => {
                s.sent += 1;
                if self.reliable {
                    s.link.send(s.sent);
                } else {
                    s.link.wire.insert((s.sent, s.sent));
                }
            }
            RelAction::Deliver(seq) | RelAction::Duplicate(seq) => {
                let dup = matches!(a, RelAction::Duplicate(_));
                if dup {
                    s.dups_left -= 1;
                }
                if self.reliable {
                    let ready = s.link.deliver(*seq, dup);
                    s.delivered.extend(ready.iter().map(|(_, m)| m));
                } else {
                    // Raw datagram path: endpoint seq 0, no dedup, no
                    // ordering.
                    s.delivered.extend(s.link.take(*seq, dup).map(|(_, m)| m));
                }
            }
            RelAction::Drop(seq) => {
                s.link.take(*seq, false);
                s.drops_left -= 1;
            }
            RelAction::Ping => s.link.ping(),
            RelAction::Flush => s.link.flush(),
        }
        s
    }

    fn check(&self, s: &RelState) -> Result<(), String> {
        if self.reliable {
            // Exactly-once + FIFO at every state: the delivered list is the
            // exact in-order prefix 1..=k, no dup, no gap, no reorder —
            // regardless of what the wire has done so far.
            for (i, seq) in s.delivered.iter().enumerate() {
                if *seq != i as u64 + 1 {
                    return Err(format!(
                        "delivery stream corrupt at position {i}: {:?}",
                        s.delivered
                    ));
                }
            }
            Ok(())
        } else {
            // Raw datagrams promise nothing mid-flight; the endstate oracle
            // lives in `accepting`/bridge. Nothing to check here — the
            // violation shows up as a quiescent state missing messages.
            Ok(())
        }
    }

    fn accepting(&self, s: &RelState) -> bool {
        if self.reliable {
            s.sent == self.total
                && s.link.wire.is_empty()
                && s.delivered.len() == self.total as usize
        } else {
            // Raw path: quiescence is just "everything sent, wire empty".
            // Exactly-once then *fails* in accepting states after a drop —
            // the bridge asserts that with the explorer directly.
            s.sent == self.total && s.link.wire.is_empty()
        }
    }
}

/// Find a quiescent endstate of the **unreliable** configuration that
/// violates exactly-once, with its shortest action trace. This is the
/// counterexample the bridge replays through the chaos driver.
pub fn find_unreliable_loss(total: u64, max_drops: u32) -> Option<(Vec<String>, Vec<u64>)> {
    use crate::explorer::{explore, Options};

    /// Wraps the raw-datagram model and turns "quiescent but lossy" into a
    /// safety violation so the explorer hands us the trace.
    #[derive(Debug)]
    struct LossWitness(ReliabilityModel);
    impl Model for LossWitness {
        type State = RelState;
        type Action = RelAction;
        fn init(&self) -> Vec<RelState> {
            self.0.init()
        }
        fn actions(&self, s: &RelState) -> Vec<RelAction> {
            self.0.actions(s)
        }
        fn next(&self, s: &RelState, a: &RelAction) -> RelState {
            self.0.next(s, a)
        }
        fn check(&self, s: &RelState) -> Result<(), String> {
            let want: Vec<u64> = (1..=self.0.total).collect();
            let mut got = s.delivered.clone();
            got.sort_unstable();
            if self.0.accepting(s) && got != want {
                Err(format!(
                    "exactly-once violated at quiescence: sent {want:?}, delivered {:?}",
                    s.delivered
                ))
            } else {
                Ok(())
            }
        }
        fn accepting(&self, s: &RelState) -> bool {
            self.0.accepting(s)
        }
    }

    let m = LossWitness(ReliabilityModel {
        total,
        max_drops,
        max_dups: 0,
        reliable: false,
        window: total as usize + 1,
    });
    let r = explore(
        &m,
        Options {
            liveness: false,
            ..Options::default()
        },
    );
    let v = r.violation?;
    // Replay the trace to recover the lossy endstate's delivered list.
    // Traces are Debug strings; each step has a unique rendering in its
    // state, so matching on the rendering is unambiguous.
    let mut s = m.0.init().pop().unwrap();
    for step in &v.trace {
        let a =
            m.0.actions(&s)
                .into_iter()
                .find(|a| format!("{a:?}") == *step)?;
        s = m.0.next(&s, &a);
    }
    Some((v.trace, s.delivered))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, Options, ViolationKind};

    /// The acceptance configuration from the issue: 2 ranks (one directed
    /// flow), loss + reorder; plus duplication for good measure.
    #[test]
    fn reliable_flow_survives_loss_reorder_dup() {
        let m = ReliabilityModel {
            total: 3,
            max_drops: 2,
            max_dups: 1,
            reliable: true,
            window: 8,
        };
        let r = explore(&m, Options::default());
        assert!(r.clean(), "{:?}", r.violation);
        assert!(r.states > 200, "nontrivial space expected: {}", r.states);
    }

    /// Narrower window than the in-flight span: the liveness pass must
    /// refuse the configuration (a dropped packet that slid out of the
    /// retransmission buffer is unrecoverable). This proves the pass has
    /// teeth — it is the mutation test for "repair completeness".
    #[test]
    fn undersized_window_fails_liveness() {
        let m = ReliabilityModel {
            total: 3,
            max_drops: 1,
            max_dups: 0,
            reliable: true,
            window: 1,
        };
        let r = explore(&m, Options::default());
        let v = r.violation.expect("window 1 cannot repair 3 in flight");
        assert_eq!(v.kind, ViolationKind::Livelock, "{v:?}");
    }

    #[test]
    fn unreliable_flow_loses_messages() {
        let (trace, delivered) = find_unreliable_loss(3, 1).expect("drop must be observable");
        assert!(trace.iter().any(|a| a.starts_with("Drop")), "{trace:?}");
        assert!(delivered.len() < 3, "{delivered:?}");
    }
}
