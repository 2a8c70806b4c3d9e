//! Exhaustive model of eager flow control: the deployed
//! [`starfish_mpi::credit::Credit`] machines of one producer and one
//! consumer.
//!
//! The producer sends `msgs` eager payloads of `units` × 64 KiB, each routed
//! by its `Credit`; a send the budget cannot cover falls back to rendezvous
//! and blocks until the consumer's grant arrives. That direction is the
//! in-order, lossless flow the reliability row proves. Everything that
//! carries credit back — data frames with the six-bit count, standalone
//! returns and CTS grants with the full count — crosses the unordered lossy
//! bag of the other MPI rows ([`super::link::Link`]'s wire): any element in
//! any order, up to `max_drops` lost and `max_dups` delivered without being
//! consumed. The consumer sends up to `frames` data frames at any moment
//! and re-grants a lost CTS, as its receive does on the ping cadence. A
//! retransmitted frame is a fresh frame here, since the endpoint restamps
//! the count of a retransmission.
//!
//! **Safety**, on every state: the consumer never holds more than
//! `EAGER_CREDIT_BYTES` of the producer's eager payload unconsumed (in
//! flight counts as held), and the producer's budget is never above the
//! truth — the ceiling minus what it spent and the consumer has not counted.
//! **Liveness**: from every reachable state, a state is reachable where
//! everything sent has been consumed and the producer's budget is back at
//! the ceiling, with at most one more fallback (`Probe`, enabled once at
//! quiescence while the budget is short). The `delta` mutation reads the
//! six bits as a delta, and the checker finds a budget above the truth.

use std::collections::{BTreeSet, VecDeque};

use starfish_mpi::credit::{Credit, Route, CREDIT_BATCH_BYTES, EAGER_CREDIT_BYTES};
use starfish_mpi::wire::{MsgHeader, FLAG_RNDV_DATA, WORLD_CONTEXT};
use starfish_util::{Epoch, Rank};

use crate::explorer::Model;

const PRODUCER: Rank = Rank(0);
const CONSUMER: Rank = Rank(1);

/// Model parameters.
#[derive(Debug, Clone, Copy)]
pub struct CreditModel {
    /// Eager payloads the producer sends.
    pub msgs: u32,
    /// Size of each, in 64 KiB units (a remainder below a unit is never
    /// counted back, so sizes are whole units).
    pub units: usize,
    /// Data frames the consumer sends the producer.
    pub frames: u32,
    /// Bag drop budget.
    pub max_drops: u32,
    /// Bag duplication budget.
    pub max_dups: u32,
    /// Mutation: the producer reads a frame's six bits as a delta.
    pub delta: bool,
}

/// Producer → consumer, in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fwd {
    /// An eager payload of this many bytes.
    Eager(usize),
    /// The RTS of credit fallback number `id`.
    Rts(u32),
    /// The fallback's payload, pushed on the grant.
    Data(usize),
}

/// Consumer → producer, through the lossy bag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Back {
    /// A data frame and the six-bit count it carries.
    Frame(u8),
    /// A standalone return: the full count.
    Credit(u64),
    /// A grant of fallback `id`, and the full count.
    Cts(u32, u64),
}

#[derive(Clone, Debug)]
pub struct CreditState {
    producer: Credit,
    consumer: Credit,
    fwd: VecDeque<Fwd>,
    back: BTreeSet<Back>,
    sent: u32,
    /// Fallbacks so far: the next one's transfer id.
    fallbacks: u32,
    /// The producer's send blocks on the grant of fallback `id`, to push
    /// its payload of `len` bytes.
    waiting: Option<(u32, usize)>,
    /// The consumer's receive waits on fallback `id`'s payload.
    blocked: Option<u32>,
    /// The one fallback of the liveness claim was taken.
    probed: bool,
    /// Eager payload bytes the producer sent and the consumer consumed.
    spent: u64,
    taken: u64,
    frames_left: u32,
    drops_left: u32,
    dups_left: u32,
}

#[derive(Clone, Debug)]
pub enum CreditAction {
    /// The producer sends its next payload.
    Send,
    /// Quiescent with a short budget: the producer sends the ceiling, which
    /// must fall back.
    Probe,
    /// The consumer takes the head of the producer's flow.
    Consume,
    /// The consumer sends a data frame.
    Frame,
    /// The consumer's blocked receive grants again.
    Regrant,
    /// The bag delivers `m` (consuming it).
    Deliver(Back),
    /// The bag delivers a copy of `m` and keeps it.
    Duplicate(Back),
    /// The bag loses `m`.
    Drop(Back),
}

impl CreditModel {
    fn len(&self) -> usize {
        self.units * CREDIT_BATCH_BYTES
    }

    /// The producer sends `len` bytes: eager if the budget covers it,
    /// otherwise an RTS that blocks it until the grant.
    fn send(&self, s: &mut CreditState, len: usize) {
        match s.producer.route(CONSUMER, len, usize::MAX) {
            Route::Eager => {
                s.producer.spend(CONSUMER, len);
                s.spent += len as u64;
                s.fwd.push_back(Fwd::Eager(len));
            }
            Route::CreditFallback | Route::Rendezvous => {
                s.fwd.push_back(Fwd::Rts(s.fallbacks));
                s.waiting = Some((s.fallbacks, len));
                s.fallbacks += 1;
            }
        }
    }

    /// The producer ingests `m` from the bag.
    fn ingest(&self, s: &mut CreditState, m: Back) {
        match m {
            Back::Frame(bits) if self.delta => {
                let acked = s.producer.peer(CONSUMER).acked;
                s.producer.on_count(CONSUMER, acked + u64::from(bits));
            }
            Back::Frame(bits) => s.producer.on_frame(CONSUMER, bits),
            Back::Credit(units) => s.producer.on_count(CONSUMER, units),
            Back::Cts(id, units) => {
                s.producer.on_count(CONSUMER, units);
                // Only the first copy of the awaited grant releases the
                // payload.
                if let Some((awaited, len)) = s.waiting {
                    if awaited == id {
                        s.waiting = None;
                        s.fwd.push_back(Fwd::Data(len));
                    }
                }
            }
        }
    }

    fn quiescent(&self, s: &CreditState) -> bool {
        s.sent == self.msgs && s.waiting.is_none() && s.blocked.is_none() && s.fwd.is_empty()
    }
}

fn header(flags: u8) -> MsgHeader {
    MsgHeader {
        src: PRODUCER,
        context: WORLD_CONTEXT,
        tag: 0,
        epoch: Epoch(0),
        interval: 0,
        seq: 0,
        flags,
        credit: 0,
    }
}

impl Model for CreditModel {
    type State = CreditState;
    type Action = CreditAction;

    fn init(&self) -> Vec<CreditState> {
        vec![CreditState {
            producer: Credit::default(),
            consumer: Credit::default(),
            fwd: VecDeque::new(),
            back: BTreeSet::new(),
            sent: 0,
            fallbacks: 0,
            waiting: None,
            blocked: None,
            probed: false,
            spent: 0,
            taken: 0,
            frames_left: self.frames,
            drops_left: self.max_drops,
            dups_left: self.max_dups,
        }]
    }

    fn actions(&self, s: &CreditState) -> Vec<CreditAction> {
        let mut acts = Vec::new();
        if s.sent < self.msgs && s.waiting.is_none() {
            acts.push(CreditAction::Send);
        }
        let short = s.producer.budget(CONSUMER) < EAGER_CREDIT_BYTES;
        if self.quiescent(s) && !s.probed && short {
            acts.push(CreditAction::Probe);
        }
        if !s.fwd.is_empty() {
            acts.push(CreditAction::Consume);
        }
        if s.frames_left > 0 {
            acts.push(CreditAction::Frame);
        }
        if s.blocked.is_some() && s.fwd.is_empty() {
            acts.push(CreditAction::Regrant);
        }
        for &m in &s.back {
            acts.push(CreditAction::Deliver(m));
            if s.dups_left > 0 {
                acts.push(CreditAction::Duplicate(m));
            }
            if s.drops_left > 0 {
                acts.push(CreditAction::Drop(m));
            }
        }
        acts
    }

    fn next(&self, s: &CreditState, a: &CreditAction) -> CreditState {
        let mut s = s.clone();
        match a {
            CreditAction::Send => {
                s.sent += 1;
                self.send(&mut s, self.len());
            }
            CreditAction::Probe => {
                s.probed = true;
                self.send(&mut s, EAGER_CREDIT_BYTES);
            }
            CreditAction::Consume => match s.fwd.pop_front() {
                Some(Fwd::Eager(len)) => {
                    s.taken += len as u64;
                    if let Some(units) = s.consumer.consumed(&header(0), len) {
                        s.back.insert(Back::Credit(units));
                    }
                }
                Some(Fwd::Rts(id)) => {
                    s.blocked = Some(id);
                    s.back.insert(Back::Cts(id, s.consumer.report(PRODUCER)));
                }
                Some(Fwd::Data(len)) => {
                    s.blocked = None;
                    let exempt = s.consumer.consumed(&header(FLAG_RNDV_DATA), len);
                    debug_assert_eq!(exempt, None);
                }
                None => {}
            },
            CreditAction::Frame => {
                s.frames_left -= 1;
                s.back.insert(Back::Frame(s.consumer.stamp(PRODUCER)));
            }
            CreditAction::Regrant => {
                if let Some(id) = s.blocked {
                    s.back.insert(Back::Cts(id, s.consumer.report(PRODUCER)));
                }
            }
            CreditAction::Deliver(m) => {
                s.back.remove(m);
                self.ingest(&mut s, *m);
            }
            CreditAction::Duplicate(m) => {
                s.dups_left -= 1;
                self.ingest(&mut s, *m);
            }
            CreditAction::Drop(m) => {
                s.drops_left -= 1;
                s.back.remove(m);
            }
        }
        s
    }

    fn check(&self, s: &CreditState) -> Result<(), String> {
        let unconsumed = s.spent - s.taken;
        if unconsumed > EAGER_CREDIT_BYTES as u64 {
            return Err(format!("consumer holds {unconsumed} B unconsumed"));
        }
        let unit = CREDIT_BATCH_BYTES as u64;
        let uncounted = s.spent - s.taken / unit * unit;
        let truth = EAGER_CREDIT_BYTES.saturating_sub(uncounted as usize);
        let budget = s.producer.budget(CONSUMER);
        if budget > truth {
            return Err(format!(
                "producer budget {budget} B above the truth {truth} B"
            ));
        }
        Ok(())
    }

    fn accepting(&self, s: &CreditState) -> bool {
        self.quiescent(s) && s.producer.budget(CONSUMER) == EAGER_CREDIT_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, Options, ViolationKind};

    const ROW: CreditModel = CreditModel {
        msgs: 3,
        units: 8,
        frames: 2,
        max_drops: 1,
        max_dups: 1,
        delta: false,
    };

    /// Three half-ceiling payloads: the third needs the first's credit
    /// back, over a bag that loses and duplicates.
    #[test]
    fn credit_survives_loss_and_duplication() {
        let r = explore(&ROW, Options::default());
        assert!(r.clean(), "{:?}", r.violation);
        assert!(r.states > 100, "nontrivial space expected: {}", r.states);
    }

    /// Read as a delta, a duplicated frame credits twice: the checker
    /// finds a budget above the truth.
    #[test]
    fn reading_the_count_as_a_delta_inflates_the_budget() {
        let m = CreditModel { delta: true, ..ROW };
        let v = explore(&m, Options::default())
            .violation
            .expect("a delta reading must over-credit");
        assert_eq!(v.kind, ViolationKind::Safety, "{v:?}");
        assert!(v.message.contains("above the truth"), "{}", v.message);
    }
}
