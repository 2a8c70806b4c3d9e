//! Pure state machine of message matching: the unexpected queue.
//!
//! Every in-order data message the endpoint parsed lands here through
//! [`MatchQueue::on_message`]: a plain eager message is queued complete, a
//! rendezvous RTS becomes a *placeholder* — matchable, so MPI
//! non-overtaking order holds, but not yet consumable — and each DATA chunk
//! is absorbed into its placeholder in place, preserving the RTS's matching
//! position. A receive is [`take`](MatchQueue::take): the first entry that
//! matches is handed over if it is complete, or reported as the transfer
//! the receive must grant and wait for; nothing behind it is considered.
//!
//! The queue is also the C/R module's window onto the data path: the
//! channel state of a checkpoint (all unconsumed data messages) is
//! snapshotted and restored here, and Chandy–Lamport channel recording
//! copies deliveries as they complete. No I/O: the endpoint feeds it parsed
//! frames and acts on what it returns, the `verify` crate's rendezvous
//! model feeds it the same frames under every schedule.
// lint: sans-io

use std::collections::{BTreeSet, VecDeque};

use bytes::Bytes;
use starfish_util::{Epoch, Rank, VirtualTime};

use crate::collectives::COLL_TAG_BASE;
use crate::rendezvous::{RndvAsm, RndvRx};
use crate::wire::{MsgHeader, RndvChunk, RndvEnv, FLAG_RNDV_DATA, FLAG_RNDV_RTS};

/// The payload slot of an unexpected-queue entry.
#[derive(Debug, Clone)]
enum Body {
    /// A fully-arrived message (eager, or rendezvous after its DATA merged).
    Eager(Bytes),
    /// A rendezvous RTS whose payload has not fully arrived yet. Pipelined
    /// chunks accumulate in `asm` until the transfer completes.
    RndvPending { id: u64, asm: RndvAsm },
}

#[derive(Debug, Clone)]
struct Entry {
    header: MsgHeader,
    body: Body,
    /// Virtual arrival (of the RTS while pending, of the latest chunk once
    /// merged).
    at: VirtualTime,
}

/// Outcome of scanning the unexpected queue for a posted receive.
#[derive(Debug)]
pub enum Matched {
    /// A complete message was matched and removed.
    Ready {
        header: MsgHeader,
        data: Bytes,
        at: VirtualTime,
    },
    /// The first matching entry is a rendezvous placeholder: the receive
    /// must grant (or re-grant) its CTS and wait for the payload. Scanning
    /// past it would break per-sender non-overtaking, so nothing later is
    /// considered.
    Await { src: Rank, id: u64 },
    /// Nothing matches.
    None,
}

/// A message became complete: the exactly-once-per-delivered-message point
/// (duplicates and stale epochs were discarded before the queue), which the
/// endpoint records in its flight recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    pub header: MsgHeader,
    pub len: usize,
    pub at: VirtualTime,
}

/// Parsed messages that arrived before a matching receive was posted.
#[derive(Debug, Clone, Default)]
pub struct MatchQueue {
    queue: VecDeque<Entry>,
    /// Chandy–Lamport channel recording: data messages completing from
    /// these senders are copied into `recorded` (in addition to normal
    /// delivery).
    recording: BTreeSet<Rank>,
    recorded: Vec<(MsgHeader, Bytes)>,
}

/// Does a receive posted in `epoch` for (`context`, `src`, `tag`) take `h`?
/// A wildcard tag sees user tags only: the space from [`COLL_TAG_BASE`] up
/// belongs to the collectives, whose messages share the context with
/// point-to-point traffic and are received by exact tag.
fn matches(epoch: Epoch, h: &MsgHeader, context: u32, src: Option<Rank>, tag: Option<u64>) -> bool {
    h.epoch == epoch
        && h.context == context
        && src.is_none_or(|s| s == h.src)
        && tag.map_or(h.tag < COLL_TAG_BASE, |t| t == h.tag)
}

impl MatchQueue {
    /// Hand one parsed in-order data message to the queue, dispatching on
    /// the rendezvous flags. `body` is what followed the header; `seg` is
    /// the gather payload segment — the chunk bytes of a DATA frame, empty
    /// otherwise. Corrupt rendezvous envelopes are dropped.
    pub fn on_message(
        &mut self,
        rndv: &mut RndvRx,
        mut header: MsgHeader,
        body: Bytes,
        seg: Bytes,
        arrive: VirtualTime,
    ) -> Option<Delivery> {
        if header.flags & FLAG_RNDV_RTS != 0 {
            // An RTS becomes a matchable placeholder — or, if its chunks
            // raced ahead (unsequenced traffic only), a complete message
            // the moment it becomes matchable, stamped with the latest
            // chunk arrival.
            let env = RndvEnv::decode(&body).ok()?;
            let mut asm = rndv.on_rts(header.src, &env);
            if asm.is_complete() {
                header.flags = FLAG_RNDV_DATA;
                let at = arrive.max(asm.latest);
                return Some(self.deliver(header, asm.take_bytes(), at));
            }
            let body = Body::RndvPending { id: env.id, asm };
            let at = arrive;
            self.queue.push_back(Entry { header, body, at });
            return None;
        }
        if header.flags & FLAG_RNDV_DATA == 0 {
            return Some(self.deliver(header, body, arrive));
        }
        // A DATA chunk merges into its transfer's placeholder in place
        // (preserving the RTS's matching position, i.e. per-sender
        // non-overtaking); with no placeholder yet it waits aside in `rndv`
        // until the RTS places it in matching order.
        let desc = RndvChunk::decode(&body).ok()?;
        let placeholder = self.queue.iter_mut().find(|e| {
            e.header.src == header.src
                && e.header.epoch == header.epoch
                && matches!(&e.body, Body::RndvPending { id, .. } if *id == desc.id)
        });
        let Some(e) = placeholder else {
            rndv.on_stray_chunk(header.src, &desc, seg, arrive);
            return None;
        };
        let Body::RndvPending { asm, .. } = &mut e.body else {
            return None;
        };
        // A descriptor that disagrees with the RTS is dropped by `absorb`.
        if !asm.absorb(&desc, seg, arrive) {
            return None; // more chunks to come: the placeholder stays parked
        }
        // The transfer is delivered at the latest chunk arrival (or the
        // RTS's, parked in the entry), not the completing chunk's
        // timestamp: a tiny tail chunk can carry an earlier virtual time
        // than the big chunk before it.
        e.at = arrive.max(asm.latest).max(e.at);
        let payload = asm.take_bytes();
        // Keep the DATA flag on the merged header: it marks the payload as
        // credit-exempt when it is finally consumed.
        e.header.flags = FLAG_RNDV_DATA;
        e.header.interval = header.interval;
        e.body = Body::Eager(payload.clone());
        // The transfer completes *here*: the receive (and any channel
        // recording) is recorded at merge time.
        let done = Delivery {
            header: e.header,
            len: payload.len(),
            at: e.at,
        };
        rndv.on_complete(header.src, desc.id);
        self.record(&done.header, &payload);
        Some(done)
    }

    /// Queue a complete message (and copy it if its channel is recorded).
    fn deliver(&mut self, header: MsgHeader, body: Bytes, at: VirtualTime) -> Delivery {
        self.record(&header, &body);
        let len = body.len();
        self.queue.push_back(Entry {
            header,
            body: Body::Eager(body),
            at,
        });
        Delivery { header, len, at }
    }

    fn record(&mut self, header: &MsgHeader, body: &Bytes) {
        if self.recording.contains(&header.src) {
            self.recorded.push((*header, body.clone()));
        }
    }

    /// Match a receive posted in `epoch` against the queue.
    pub fn take(
        &mut self,
        epoch: Epoch,
        context: u32,
        src: Option<Rank>,
        tag: Option<u64>,
    ) -> Matched {
        let mut entries = self.queue.iter().enumerate();
        let Some((idx, e)) = entries.find(|(_, e)| matches(epoch, &e.header, context, src, tag))
        else {
            return Matched::None;
        };
        if let Body::RndvPending { id, .. } = e.body {
            let src = e.header.src;
            return Matched::Await { src, id };
        }
        match self.queue.remove(idx) {
            Some(Entry {
                header,
                body: Body::Eager(data),
                at,
            }) => Matched::Ready { header, data, at },
            _ => Matched::None,
        }
    }

    /// `MPI_Iprobe`: is a matching message (or its placeholder) queued?
    pub fn probe(&self, epoch: Epoch, context: u32, src: Option<Rank>, tag: Option<u64>) -> bool {
        self.queue
            .iter()
            .any(|e| matches(epoch, &e.header, context, src, tag))
    }

    /// The channel state for a checkpoint: every unconsumed complete data
    /// message of `epoch`. Unfulfilled rendezvous placeholders are skipped:
    /// their sender pushes the payload before its flush mark, and the
    /// per-link FIFO guarantees it arrives before the marks complete — so
    /// by the time the snapshot is actually taken the placeholder has
    /// merged or its payload is still counted on the sender's side.
    pub fn snapshot(&self, epoch: Epoch) -> Vec<(MsgHeader, Bytes)> {
        self.queue
            .iter()
            .filter(|e| e.header.epoch == epoch)
            .filter_map(|e| match &e.body {
                Body::Eager(bytes) => Some((e.header, bytes.clone())),
                Body::RndvPending { .. } => None,
            })
            .collect()
    }

    /// Refill the queue from a restored image's channel state, entering
    /// `epoch`. Messages already queued that belong to `epoch` are kept
    /// behind the restored ones (they were sent by peers that have already
    /// restarted and will not be re-sent); everything older is dropped with
    /// the rolled-back past, and so is any recording.
    pub fn restore(
        &mut self,
        epoch: Epoch,
        msgs: Vec<(MsgHeader, Bytes)>,
        restart_vt: VirtualTime,
    ) {
        let mut survivors = std::mem::take(&mut self.queue);
        survivors.retain(|e| e.header.epoch == epoch);
        self.recording.clear();
        self.recorded.clear();
        for (mut header, b) in msgs {
            // Restored messages belong to the *new* epoch, and sit outside
            // the reliability flows and the rendezvous protocol (their
            // originals were already sequenced/transferred by a rolled-back
            // incarnation) — they are complete eager payloads now.
            header.epoch = epoch;
            header.seq = 0;
            header.flags = 0;
            self.queue.push_back(Entry {
                header,
                body: Body::Eager(b),
                at: restart_vt,
            });
        }
        self.queue.extend(survivors);
    }

    /// Start copying messages completing from `from` (Chandy–Lamport
    /// channel recording).
    pub fn start_recording(&mut self, from: Rank) {
        self.recording.insert(from);
    }

    /// Stop recording the channel from `from`.
    pub fn stop_recording(&mut self, from: Rank) {
        self.recording.remove(&from);
    }

    /// Take everything recorded so far.
    pub fn take_recorded(&mut self) -> Vec<(MsgHeader, Bytes)> {
        std::mem::take(&mut self.recorded)
    }

    /// Number of unconsumed data messages (placeholders included).
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rendezvous::CtsCadence;

    const E0: Epoch = Epoch(0);

    fn header(src: u32, tag: u64, flags: u8) -> MsgHeader {
        MsgHeader {
            src: Rank(src),
            context: 1,
            tag,
            epoch: E0,
            interval: 0,
            seq: 0,
            flags,
        }
    }

    fn vt(us: u64) -> VirtualTime {
        VirtualTime::from_micros(us)
    }

    struct Rx {
        q: MatchQueue,
        rndv: RndvRx,
    }

    impl Rx {
        fn new() -> Rx {
            Rx {
                q: MatchQueue::default(),
                rndv: RndvRx::new(CtsCadence::EveryEncounter),
            }
        }

        fn eager(&mut self, src: u32, tag: u64, body: &'static [u8], at: u64) -> Option<Delivery> {
            let (h, b) = (header(src, tag, 0), Bytes::from_static(body));
            self.q
                .on_message(&mut self.rndv, h, b, Bytes::new(), vt(at))
        }

        fn rts(&mut self, src: u32, tag: u64, id: u64, size: u64, at: u64) -> Option<Delivery> {
            let body = Bytes::copy_from_slice(&RndvEnv { id, size }.encode());
            let h = header(src, tag, FLAG_RNDV_RTS);
            self.q
                .on_message(&mut self.rndv, h, body, Bytes::new(), vt(at))
        }

        #[allow(clippy::too_many_arguments)]
        fn chunk(
            &mut self,
            src: u32,
            tag: u64,
            id: u64,
            offset: u64,
            total: u64,
            seg: &'static [u8],
            at: u64,
        ) -> Option<Delivery> {
            let body = Bytes::copy_from_slice(&RndvChunk { id, offset, total }.encode());
            let (h, seg) = (header(src, tag, FLAG_RNDV_DATA), Bytes::from_static(seg));
            self.q.on_message(&mut self.rndv, h, body, seg, vt(at))
        }

        /// `take` rendered for table comparisons.
        fn take(&mut self, src: Option<u32>, tag: Option<u64>) -> String {
            match self.q.take(E0, 1, src.map(Rank), tag) {
                Matched::Ready { header, data, at } => format!(
                    "ready {}:{} {:?} @{}",
                    header.src.0,
                    header.tag,
                    std::str::from_utf8(&data).unwrap(),
                    at.0 / 1000
                ),
                Matched::Await { src, id } => format!("await {}#{id}", src.0),
                Matched::None => "none".into(),
            }
        }
    }

    /// A placeholder blocks later messages *of its match* — the receive is
    /// told to wait for it — without hiding other sources or tags.
    #[test]
    fn a_placeholder_blocks_its_match_and_nothing_else() {
        let mut rx = Rx::new();
        assert_eq!(rx.rts(0, 5, 1, 4, 10), None);
        assert!(rx.eager(0, 5, b"late", 11).is_some());
        assert!(rx.eager(0, 6, b"tag6", 12).is_some());
        assert!(rx.eager(2, 5, b"src2", 13).is_some());
        assert_eq!(rx.q.len(), 4);
        assert!(
            rx.q.probe(E0, 1, Some(Rank(0)), Some(5)),
            "a placeholder probes true"
        );
        for (src, tag, want) in [
            (Some(0), Some(5), "await 0#1"),
            (Some(0), None, "await 0#1"),
            (None, Some(5), "await 0#1"),
            (None, None, "await 0#1"),
            (Some(0), Some(5), "await 0#1"), // asking again changes nothing
            (Some(0), Some(6), "ready 0:6 \"tag6\" @12"),
            (Some(2), None, "ready 2:5 \"src2\" @13"),
            (Some(3), None, "none"),
        ] {
            assert_eq!(rx.take(src, tag), want, "take({src:?}, {tag:?})");
        }
        // The payload merges where the RTS stood: it is delivered first.
        let done = rx.chunk(0, 5, 1, 0, 4, b"BIG!", 20).expect("complete");
        assert_eq!(
            (done.len, done.at, done.header.flags),
            (4, vt(20), FLAG_RNDV_DATA)
        );
        assert_eq!(rx.take(None, None), "ready 0:5 \"BIG!\" @20");
        assert_eq!(rx.take(None, None), "ready 0:5 \"late\" @11");
        assert_eq!(rx.take(None, None), "none");
        assert_eq!(rx.q.len(), 0);
    }

    /// A wildcard-tag receive must not steal a collective's message, which
    /// shares the context with point-to-point traffic: only its exact tag
    /// takes it.
    #[test]
    fn a_wildcard_tag_never_sees_the_collective_tag_space() {
        let mut rx = Rx::new();
        let coll = COLL_TAG_BASE | 7;
        assert!(rx.eager(0, coll, b"coll", 1).is_some());
        assert!(!rx.q.probe(E0, 1, None, None));
        assert!(!rx.q.probe(E0, 1, Some(Rank(0)), None));
        assert_eq!(rx.take(None, None), "none");
        assert_eq!(rx.take(Some(0), None), "none");
        assert!(rx.eager(0, 5, b"user", 2).is_some());
        assert_eq!(rx.take(None, None), "ready 0:5 \"user\" @2");
        assert!(rx.q.probe(E0, 1, None, Some(coll)));
        assert_eq!(
            rx.take(None, Some(coll)),
            format!("ready 0:{coll} \"coll\" @1")
        );
        assert!(rx.q.is_empty());
    }

    #[test]
    fn chunks_merge_in_place_whatever_their_order_and_duplicates_are_idempotent() {
        let mut rx = Rx::new();
        assert_eq!(rx.rts(0, 1, 7, 6, 5), None);
        assert_eq!(rx.chunk(0, 1, 7, 4, 6, b"ef", 30), None);
        assert_eq!(rx.chunk(0, 1, 7, 4, 6, b"ef", 99), None, "duplicate chunk");
        assert_eq!(rx.chunk(0, 1, 7, 0, 6, b"ab", 8), None);
        // `total` disagreeing with the RTS: dropped, the transfer waits on.
        assert_eq!(rx.chunk(0, 1, 7, 2, 9, b"cd", 99), None);
        assert_eq!(rx.take(None, None), "await 0#7");
        // A chunk of the same id from another sender is not this transfer's.
        assert_eq!(rx.chunk(3, 1, 7, 2, 6, b"XX", 99), None);
        assert_eq!(rx.take(None, None), "await 0#7");
        let done = rx.chunk(0, 1, 7, 2, 6, b"cd", 9).expect("complete");
        assert_eq!(
            done.at,
            vt(30),
            "stamped with the latest chunk, not the last"
        );
        assert_eq!(rx.take(None, None), "ready 0:1 \"abcdef\" @30");
        // A chunk after the merge finds no placeholder: it waits aside for
        // an RTS that never comes, and is never delivered.
        assert_eq!(rx.chunk(0, 1, 7, 0, 6, b"ab", 40), None);
        assert_eq!(rx.take(None, None), "none");
    }

    /// Chunks that overtook their RTS complete the transfer the moment the
    /// RTS arrives, stamped with the latest chunk.
    #[test]
    fn chunks_before_their_rts_complete_on_its_arrival() {
        let mut rx = Rx::new();
        assert_eq!(rx.chunk(0, 1, 3, 2, 4, b"cd", 50), None);
        assert_eq!(rx.chunk(0, 1, 3, 0, 4, b"ab", 20), None);
        assert_eq!(rx.q.len(), 0, "nothing is matchable before the RTS");
        let done = rx.rts(0, 1, 3, 4, 30).expect("complete on arrival");
        assert_eq!(
            (done.len, done.at, done.header.flags),
            (4, vt(50), FLAG_RNDV_DATA)
        );
        assert_eq!(rx.take(None, None), "ready 0:1 \"abcd\" @50");

        // Only some chunks overtook: the placeholder starts from them.
        assert_eq!(rx.chunk(0, 1, 4, 0, 4, b"ab", 60), None);
        assert_eq!(rx.rts(0, 1, 4, 4, 61), None);
        assert_eq!(rx.take(None, None), "await 0#4");
        assert!(rx.chunk(0, 1, 4, 2, 4, b"cd", 62).is_some());
        assert_eq!(rx.take(None, None), "ready 0:1 \"abcd\" @62");

        // The strays disagree with the RTS about the size: dropped.
        assert_eq!(rx.chunk(0, 1, 5, 0, 2, b"zz", 70), None);
        assert_eq!(rx.rts(0, 1, 5, 3, 71), None);
        assert_eq!(rx.take(None, None), "await 0#5");

        // Corrupt envelopes are dropped whole.
        let short = Bytes::from_static(b"short");
        for flags in [FLAG_RNDV_RTS, FLAG_RNDV_DATA] {
            let h = header(0, 1, flags);
            let got =
                rx.q.on_message(&mut rx.rndv, h, short.clone(), Bytes::new(), vt(80));
            assert_eq!(got, None);
        }
        assert_eq!(rx.q.len(), 1);
    }

    #[test]
    fn an_empty_transfer_completes_on_its_one_empty_chunk() {
        let mut rx = Rx::new();
        assert_eq!(rx.rts(0, 1, 1, 0, 5), None);
        assert_eq!(rx.take(None, None), "await 0#1");
        assert!(rx.chunk(0, 1, 1, 0, 0, b"", 6).is_some());
        assert_eq!(rx.take(None, None), "ready 0:1 \"\" @6");
    }

    #[test]
    fn snapshot_skips_placeholders_and_restore_puts_the_image_first() {
        let mut rx = Rx::new();
        rx.eager(0, 1, b"one", 1);
        rx.rts(0, 1, 9, 3, 2);
        rx.eager(1, 1, b"two", 3);
        let snap = rx.q.snapshot(E0);
        let bodies: Vec<&[u8]> = snap.iter().map(|(_, b)| &b[..]).collect();
        assert_eq!(bodies, vec![&b"one"[..], &b"two"[..]]);
        assert!(rx.q.snapshot(Epoch(1)).is_empty());

        // A message of the new epoch is already queued when the image is
        // restored: it stays, behind the restored ones; the old epoch's
        // entries (placeholder included) and any recording go.
        let mut early = header(2, 1, 0);
        early.epoch = Epoch(1);
        rx.q.on_message(
            &mut rx.rndv,
            early,
            Bytes::from_static(b"new"),
            Bytes::new(),
            vt(4),
        );
        rx.q.start_recording(Rank(0));
        rx.q.restore(Epoch(1), snap, vt(100));
        assert_eq!(rx.q.len(), 3);
        let mut order = Vec::new();
        while let Matched::Ready { header, data, at } = rx.q.take(Epoch(1), 1, None, None) {
            assert_eq!((header.epoch, header.seq, header.flags), (Epoch(1), 0, 0));
            order.push((data, at));
        }
        let want: Vec<(&[u8], VirtualTime)> =
            vec![(b"one", vt(100)), (b"two", vt(100)), (b"new", vt(4))];
        assert_eq!(order.len(), want.len());
        for ((data, at), (wd, wa)) in order.iter().zip(want) {
            assert_eq!((&data[..], *at), (wd, wa));
        }
        rx.eager(0, 1, b"unrecorded", 5);
        assert!(
            rx.q.take_recorded().is_empty(),
            "restore cleared the recording"
        );
    }

    /// Channel recording copies each message once, when it completes — a
    /// rendezvous transfer at its merge, not at its RTS.
    #[test]
    fn recording_copies_completions_from_recorded_senders_only() {
        let mut rx = Rx::new();
        rx.q.start_recording(Rank(0));
        rx.eager(0, 1, b"a", 1);
        rx.eager(1, 1, b"not recorded", 2);
        rx.rts(0, 1, 1, 2, 3);
        assert_eq!(rx.q.take_recorded().len(), 1);
        rx.chunk(0, 1, 1, 0, 2, b"bc", 4);
        let rec = rx.q.take_recorded();
        assert_eq!(rec.len(), 1);
        assert_eq!(
            (&rec[0].1[..], rec[0].0.flags),
            (&b"bc"[..], FLAG_RNDV_DATA)
        );
        rx.q.stop_recording(Rank(0));
        rx.eager(0, 1, b"d", 5);
        assert!(rx.q.take_recorded().is_empty());
    }
}
