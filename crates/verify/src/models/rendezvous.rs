//! Exhaustive model of the MPI rendezvous protocol (RTS → CTS → chunked
//! DATA) over the same lossy, reordering, duplicating wire the reliability
//! model uses — driving the **deployed** machines, not a transcription of
//! them: the sender is [`RndvTx`], the receiver [`RndvRx`] behind the
//! [`MatchQueue`], exactly the values an `MpiEndpoint` holds. The model
//! contributes the environment only: the wire, the application's receive
//! calls, and the checkpoint push.
//!
//! Fidelity follows the deployed layering. RTS and DATA chunks are
//! *sequenced* messages riding the real `FlowTx`/`FlowRx` machines
//! ([`Link`], the reliability model's wire) — a
//! lost RTS or chunk is repaired by the same Ping/Flush/NACK machinery as
//! any data message, and in-order flow delivery is what guarantees a chunk
//! never reaches matching before its RTS placeholder. Every delivered frame
//! goes through `MatchQueue::on_message` with a real header, a real encoded
//! `RndvEnv`/`RndvChunk` body and the chunk bytes the sender machine sliced.
//! CTS is an *unsequenced* control message (the endpoint's `RelMsg::Cts`):
//! it can be dropped or duplicated, and its only repair is the re-grant —
//! which, as deployed, happens when the application's receive meets the
//! still-incomplete placeholder (`take → Await`, then `RndvRx::grant` under
//! `EveryEncounter` pacing). Only the *first matching* placeholder is ever
//! granted: a later transfer's tail stays parked until the one before it
//! was received, which is the deployed non-overtaking rule.
//!
//! Payloads are tiny — one byte per chunk, `chunks` chunks per transfer —
//! so the deployed early-window rule is what the explorer walks: a
//! size-based transfer streams `min(chunks − 1, RNDV_EARLY_CHUNKS)` chunks
//! right behind its RTS and **never its last**, so every transfer, a
//! single-chunk one included, parks until a CTS or a push. Crash-mid-chunk
//! states — early chunks out or even merged, tail still parked, any subset
//! of frames dropped — are ordinary reachable states, and the liveness pass
//! proves each one converges. The `datamark_push` switch adds the recovery
//! path that covers those states in the deployed system: `PushPending` is
//! `push_pending_rendezvous` (the checkpoint `DataMark` re-push), draining
//! every parked tail in id order without a grant.
//!
//! The safety invariant is MPI non-overtaking end to end: the application
//! receives transfers in RTS (send) order, each exactly once and reassembled
//! byte for byte. The `broken_cts` mutation disables the grant path and
//! must be caught as a livelock — the parked tail can never leave — proving
//! the liveness pass depends on the CTS machinery; flipping `datamark_push`
//! on top must restore convergence, proving the DataMark re-push alone can
//! finish a transfer cut down mid-pipeline.

use std::collections::BTreeSet;
use std::time::Duration;

use bytes::Bytes;
use starfish_mpi::matching::{MatchQueue, Matched};
use starfish_mpi::rendezvous::{ChunkOut, CtsCadence, Grant, RndvRx, RndvTx};
use starfish_mpi::wire::{MsgHeader, RndvChunk, RndvEnv, FLAG_RNDV_DATA, FLAG_RNDV_RTS};
use starfish_util::{Epoch, Rank, VirtualTime};

use super::link::Link;
use crate::explorer::Model;

/// The one sender, the one receiver, and the (context, tag) every transfer
/// shares — so non-overtaking is judged on a single match.
const SENDER: Rank = Rank(0);
const RECEIVER: Rank = Rank(1);
const CONTEXT: u32 = 1;
const TAG: u64 = 7;
const EPOCH: Epoch = Epoch(0);

/// A sequenced frame on the data-path flow, reduced to what the receiver
/// needs to rebuild the real frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Msg {
    /// Request-to-send for a parked payload.
    Rts(RndvEnv),
    /// One payload chunk: its descriptor and its single byte.
    Data(RndvChunk, u8),
}

/// Model parameters.
#[derive(Debug, Clone, Copy)]
pub struct RendezvousModel {
    /// Rendezvous transfers the sender starts (ids `1..=transfers`).
    pub transfers: u64,
    /// One-byte DATA chunks per transfer (≥ 1). The sender machine decides
    /// how many stream early and how many park.
    pub chunks: u8,
    /// Wire drop budget (shared by the data and CTS paths).
    pub max_drops: u32,
    /// Wire duplication budget (shared by the data and CTS paths).
    pub max_dups: u32,
    /// Retransmission window of the flow; must cover the in-flight span.
    pub window: usize,
    /// Mutation: the receiver never grants (or re-grants) a CTS. The
    /// liveness pass must refuse this configuration unless `datamark_push`
    /// provides the recovery route.
    pub broken_cts: bool,
    /// Enable the checkpoint-recovery push: `PushPending` re-pushes every
    /// parked tail without a grant, exactly as `push_pending_rendezvous`
    /// does when a `DataMark` effect replays after a crash mid-pipeline.
    pub datamark_push: bool,
}

#[derive(Clone, Debug)]
pub struct RndvState {
    /// The sequenced data path: RTS and DATA frames.
    link: Link<Msg>,
    /// Unsequenced CTS grants in flight, by transfer id.
    cts: BTreeSet<u64>,
    /// The deployed sender machine: parked transfers, early window, what a
    /// grant or a push releases.
    sender: RndvTx,
    /// The deployed receiver machine (re-grant pacing, strays)…
    receiver: RndvRx,
    /// …behind the deployed unexpected queue.
    queue: MatchQueue,
    /// Transfers the application has received, in match order.
    delivered: Vec<u64>,
    started: u64,
    drops_left: u32,
    dups_left: u32,
    /// Protocol-impossible observation (e.g. a corrupt reassembly).
    poison: Option<String>,
}

#[derive(Clone, Debug)]
pub enum RndvAction {
    /// Sender starts the next transfer: RTS committed to the flow, payload
    /// parked, the early window streamed behind the RTS.
    Start,
    /// Wire delivers sequenced packet `seq` (consuming it).
    Deliver(u64),
    /// Wire duplicates sequenced packet `seq`.
    Duplicate(u64),
    /// Wire drops sequenced packet `seq`.
    Drop(u64),
    /// The application's receive looks at the queue: a complete head is
    /// consumed; an incomplete one is the transfer it waits on, so its CTS
    /// is granted (or re-granted); later entries are never considered.
    Receive,
    /// Wire delivers the CTS for `id`; the sender pushes what is parked
    /// (or ignores a duplicate grant).
    DeliverCts(u64),
    /// Wire duplicates the CTS for `id`.
    DuplicateCts(u64),
    /// Wire drops the CTS for `id` (repair: the receiver re-grants).
    DropCts(u64),
    /// Checkpoint recovery: every parked tail is pushed without a grant
    /// (`push_pending_rendezvous` replaying a `DataMark`).
    PushPending,
    /// Receiver's cumulative ack reaches the sender; unacked retransmit.
    Ping,
    /// Sender's tail-loss probe: receiver NACKs gaps, sender resends.
    Flush,
}

impl RendezvousModel {
    /// The payload of transfer `id`: distinct per transfer and per chunk,
    /// so a mis-spliced reassembly cannot hide.
    fn payload(&self, id: u64) -> Vec<u8> {
        (0..self.chunks).map(|c| (id as u8) << 4 | c).collect()
    }
}

/// The endpoint's `push_chunks`: put the chunks the sender machine named
/// for `id` on the wire and tell it they left.
fn push_chunks(s: &mut RndvState, id: u64, chunks: Vec<ChunkOut>) {
    s.sender.sent(id, chunks.len());
    for c in chunks {
        match c.seg[..] {
            [byte] => s.link.send(Msg::Data(c.desc, byte)),
            _ => s.poison = Some(format!("chunk {:?} is not one byte", c.desc)),
        }
    }
}

/// Receiver side of an in-order flow delivery: the endpoint's
/// `enqueue_parsed` — rebuild the frame and hand it to the matching queue.
fn deliver_frame(s: &mut RndvState, seq: u64, m: Msg) {
    let (flags, body, seg) = match m {
        Msg::Rts(env) => (FLAG_RNDV_RTS, env.encode().to_vec(), Bytes::new()),
        Msg::Data(desc, byte) => (
            FLAG_RNDV_DATA,
            desc.encode().to_vec(),
            Bytes::copy_from_slice(&[byte]),
        ),
    };
    let header = MsgHeader {
        src: SENDER,
        context: CONTEXT,
        tag: TAG,
        epoch: EPOCH,
        interval: 0,
        seq,
        flags,
    };
    let (queue, rndv) = (&mut s.queue, &mut s.receiver);
    let done = queue.on_message(rndv, header, body.into(), seg, VirtualTime::ZERO);
    if done.is_some() && flags == FLAG_RNDV_RTS {
        s.poison = Some(format!("chunks overtook {m:?} through an in-order flow"));
    }
}

impl Model for RendezvousModel {
    type State = RndvState;
    type Action = RndvAction;

    fn init(&self) -> Vec<RndvState> {
        assert!(
            (1..=16).contains(&self.chunks),
            "1..=16 one-byte chunks per transfer"
        );
        assert!(self.transfers < 16, "transfer ids share a payload nibble");
        vec![RndvState {
            link: Link::new(self.window),
            cts: BTreeSet::new(),
            sender: RndvTx::default(),
            receiver: RndvRx::new(CtsCadence::EveryEncounter),
            queue: MatchQueue::default(),
            delivered: Vec::new(),
            started: 0,
            drops_left: self.max_drops,
            dups_left: self.max_dups,
            poison: None,
        }]
    }

    fn actions(&self, s: &RndvState) -> Vec<RndvAction> {
        let mut acts = Vec::new();
        if s.started < self.transfers {
            acts.push(RndvAction::Start);
        }
        for &(seq, _) in &s.link.wire {
            acts.push(RndvAction::Deliver(seq));
            if s.dups_left > 0 {
                acts.push(RndvAction::Duplicate(seq));
            }
            if s.drops_left > 0 {
                acts.push(RndvAction::Drop(seq));
            }
        }
        if !s.queue.is_empty() {
            acts.push(RndvAction::Receive);
        }
        for &id in &s.cts {
            acts.push(RndvAction::DeliverCts(id));
            if s.dups_left > 0 {
                acts.push(RndvAction::DuplicateCts(id));
            }
            if s.drops_left > 0 {
                acts.push(RndvAction::DropCts(id));
            }
        }
        if self.datamark_push && !s.sender.ids().is_empty() {
            acts.push(RndvAction::PushPending);
        }
        if s.started > 0 {
            acts.push(RndvAction::Ping);
            acts.push(RndvAction::Flush);
        }
        acts
    }

    fn next(&self, s: &RndvState, a: &RndvAction) -> RndvState {
        let mut s = s.clone();
        match a {
            RndvAction::Start => {
                s.started += 1;
                // The endpoint's `start_send`, rendezvous arm: RTS, park,
                // then whatever the machine lets stream early.
                let data = Bytes::from(self.payload(s.started));
                let rts = s.sender.next_rts(data.len());
                s.link.send(Msg::Rts(rts));
                let (id, early) = s.sender.park(RECEIVER, CONTEXT, TAG, data, 1, true);
                push_chunks(&mut s, id, early);
            }
            RndvAction::Deliver(seq) | RndvAction::Duplicate(seq) => {
                let dup = matches!(a, RndvAction::Duplicate(_));
                if dup {
                    s.dups_left -= 1;
                }
                for (q, m) in s.link.deliver(*seq, dup) {
                    deliver_frame(&mut s, q, m);
                }
            }
            RndvAction::Drop(seq) => {
                s.link.take(*seq, false);
                s.drops_left -= 1;
            }
            RndvAction::Receive => {
                // The endpoint's `match_once`.
                match s.queue.take(EPOCH, CONTEXT, Some(SENDER), Some(TAG)) {
                    Matched::Ready { data, .. } => {
                        let id = u64::from(data.first().copied().unwrap_or(0) >> 4);
                        if data[..] != self.payload(id)[..] {
                            s.poison = Some(format!("transfer {id} reassembled as {data:?}"));
                        }
                        s.delivered.push(id);
                    }
                    Matched::Await { src, id } => {
                        let grant = s.receiver.grant(src, id, Duration::ZERO);
                        if grant != Grant::Hold && !self.broken_cts {
                            s.cts.insert(id);
                        }
                    }
                    Matched::None => {}
                }
            }
            RndvAction::DeliverCts(id) | RndvAction::DuplicateCts(id) => {
                // A duplicate reaches the sender without consuming the
                // grant in flight.
                if matches!(a, RndvAction::DuplicateCts(_)) {
                    s.dups_left -= 1;
                } else {
                    s.cts.remove(id);
                }
                let granted = s.sender.remaining(*id);
                push_chunks(&mut s, *id, granted);
            }
            RndvAction::DropCts(id) => {
                s.cts.remove(id);
                s.drops_left -= 1;
            }
            RndvAction::PushPending => {
                for id in s.sender.ids() {
                    let tail = s.sender.remaining(id);
                    push_chunks(&mut s, id, tail);
                }
            }
            RndvAction::Ping => s.link.ping(),
            RndvAction::Flush => s.link.flush(),
        }
        s
    }

    fn check(&self, s: &RndvState) -> Result<(), String> {
        if let Some(p) = &s.poison {
            return Err(p.clone());
        }
        // Non-overtaking + exactly-once at every state: the application's
        // receive stream is the exact in-order prefix 1..=k of the send
        // stream (each reassembled byte for byte, checked on receipt),
        // whatever the wire, the chunk pipeline and the grant path have
        // done so far.
        for (i, id) in s.delivered.iter().enumerate() {
            if *id != i as u64 + 1 {
                return Err(format!(
                    "receive stream corrupt at position {i}: {:?}",
                    s.delivered
                ));
            }
        }
        Ok(())
    }

    fn accepting(&self, s: &RndvState) -> bool {
        s.started == self.transfers
            && s.link.wire.is_empty()
            && s.cts.is_empty()
            && s.sender.ids().is_empty()
            && s.queue.is_empty()
            && s.delivered.len() == self.transfers as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{explore, Options, ViolationKind};

    /// Two overlapping two-chunk transfers over a wire that may drop,
    /// duplicate and reorder both the sequenced path and the CTS path.
    /// The early chunk races its own CTS in every ordering (delivered
    /// before the grant leaves, after it, interleaved with the other
    /// transfer's frames), and any individual frame can be the one dropped.
    /// Non-overtaking, exactly-once and byte-exact reassembly must hold in
    /// every reachable state, and every reachable state must still be
    /// able to converge.
    #[test]
    fn rendezvous_survives_loss_reorder_dup() {
        let m = RendezvousModel {
            transfers: 2,
            chunks: 2,
            max_drops: 2,
            max_dups: 1,
            window: 8,
            broken_cts: false,
            datamark_push: false,
        };
        let r = explore(&m, Options::default());
        assert!(r.clean(), "{:?}", r.violation);
        assert!(r.states > 500, "nontrivial space expected: {}", r.states);
    }

    /// The deployed early-window rule with a parked tail of *two* chunks:
    /// four chunks stream two early (`RNDV_EARLY_CHUNKS`) and park two, so
    /// a grant (or its duplicate, or a racing push) releases a multi-chunk
    /// burst whose frames the wire then drops, duplicates and reorders
    /// individually. The window is the deployed `RndvTx`'s decision.
    #[test]
    fn two_chunk_parked_tail_survives_loss_reorder_dup() {
        let m = RendezvousModel {
            transfers: 1,
            chunks: 4,
            max_drops: 2,
            max_dups: 1,
            window: 8,
            broken_cts: false,
            datamark_push: true,
        };
        // The window the rest of the test rests on, read off the machine.
        let mut s = m.init().remove(0);
        s = m.next(&s, &RndvAction::Start);
        assert_eq!(s.link.wire.len(), 1 + 2, "RTS + two early chunks");
        assert_eq!(s.sender.remaining(1).len(), 2, "two chunks parked");
        let r = explore(&m, Options::default());
        assert!(r.clean(), "{:?}", r.violation);
        assert!(r.states > 5000, "nontrivial space expected: {}", r.states);
    }

    /// The mutation test: disable the CTS grant path and the parked tail
    /// chunk can never leave — the liveness pass must report a livelock.
    /// The early chunk still streams (that's the point: a transfer cut
    /// down mid-pipeline), so this proves convergence genuinely depends on
    /// the CTS machinery rather than holding vacuously.
    #[test]
    fn broken_cts_fails_liveness() {
        let m = RendezvousModel {
            transfers: 1,
            chunks: 2,
            max_drops: 0,
            max_dups: 0,
            window: 8,
            broken_cts: true,
            datamark_push: false,
        };
        let r = explore(&m, Options::default());
        let v = r.violation.expect("no CTS means the tail never leaves");
        assert_eq!(v.kind, ViolationKind::Livelock, "{v:?}");
    }

    /// Crash-mid-chunk recovery: with the grant path still broken, the
    /// DataMark push (`push_pending_rendezvous`) must be enough to finish
    /// every transfer — the early chunk already streamed, the tail arrives
    /// via `PushPending`, and the receiver reassembles without ever
    /// granting. Together with `broken_cts_fails_liveness` this isolates
    /// exactly which mechanism restores liveness after a checkpoint replay.
    #[test]
    fn datamark_push_restores_liveness_without_cts() {
        let m = RendezvousModel {
            transfers: 2,
            chunks: 2,
            max_drops: 1,
            max_dups: 0,
            window: 8,
            broken_cts: true,
            datamark_push: true,
        };
        let r = explore(&m, Options::default());
        assert!(r.clean(), "{:?}", r.violation);
    }

    /// A duplicated CTS must be idempotent at the sender: the tail leaves
    /// once, the second grant is ignored. With the DataMark push enabled
    /// as well, a grant racing a push is the same idempotence check from
    /// the other side. Covered by the clean sweep above, but pin the
    /// smallest configuration that exercises it.
    #[test]
    fn duplicate_cts_is_idempotent() {
        let m = RendezvousModel {
            transfers: 1,
            chunks: 2,
            max_drops: 0,
            max_dups: 2,
            window: 8,
            broken_cts: false,
            datamark_push: true,
        };
        let r = explore(&m, Options::default());
        assert!(r.clean(), "{:?}", r.violation);
    }

    /// The last chunk never streams early, so even a transfer that *is* one
    /// chunk parks behind its RTS: with the grant path broken nothing can
    /// release it (livelock), with it intact the transfer converges.
    #[test]
    fn single_chunk_parks_until_granted() {
        let mut m = RendezvousModel {
            transfers: 2,
            chunks: 1,
            max_drops: 1,
            max_dups: 1,
            window: 8,
            broken_cts: true,
            datamark_push: false,
        };
        let v = explore(&m, Options::default()).violation;
        let v = v.expect("one chunk is the last chunk: it waits for a grant");
        assert_eq!(v.kind, ViolationKind::Livelock, "{v:?}");
        m.broken_cts = false;
        let r = explore(&m, Options::default());
        assert!(r.clean(), "{:?}", r.violation);
    }
}
