//! Pure per-flow state machines of the MPI reliability layer.
//!
//! [`FlowTx`] (sender → one peer) and [`FlowRx`] (one peer incarnation →
//! this endpoint) hold *all* sequencing decisions of the reliable channel:
//! sequence assignment, the retransmission window with cumulative
//! acknowledgement, duplicate discard, out-of-order parking with gap NACKs,
//! and tail-loss detection against a flushed high-water mark. They are pure
//! `state × event → verdict` machines over an opaque payload type `P`: the
//! endpoint instantiates them with real framed packets, and the `verify`
//! crate's model checker instantiates them with one-byte payloads and
//! exhaustively enumerates loss/reorder/duplication schedules against the
//! exactly-once and FIFO oracles.
//!
//! Invariants encoded here (and model-checked in `crates/verify`):
//! * sequences are assigned contiguously from 1 (0 marks unmanaged traffic);
//! * a payload is delivered exactly once, in sequence order;
//! * everything below a cumulative ack is forgotten, everything above is
//!   retransmittable;
//! * a NACK never names a sequence that is already parked or delivered.
//!
//! [`Flows`] is one endpoint's set of them — a [`FlowTx`] per destination, a
//! [`FlowRx`] per peer incarnation — with the layer's on/off switch.
// lint: sans-io

use std::collections::{BTreeMap, VecDeque};

use starfish_util::{Epoch, Rank};

/// Default retransmission window: messages kept per destination until
/// acknowledged by a peer's Ping (cumulative ack).
pub const REL_WINDOW: usize = 1024;

/// Most missing sequences named by a single NACK. Bounds control-message
/// size; the remainder is recovered by the next ping/flush round.
pub const NACK_BATCH: usize = 64;

/// Sender-side state of one reliable flow.
#[derive(Debug, Clone)]
pub struct FlowTx<P> {
    /// Next sequence number to assign (sequences start at 1; 0 = unmanaged).
    next_seq: u64,
    /// Sent payloads retained for retransmission, oldest first.
    buf: VecDeque<(u64, P)>,
    /// Retention bound: the window slides once more than `window` payloads
    /// are unacknowledged.
    window: usize,
}

impl<P> FlowTx<P> {
    pub fn new(window: usize) -> Self {
        FlowTx {
            next_seq: 1,
            buf: VecDeque::new(),
            window,
        }
    }

    /// The sequence the next committed send will carry. Assignment is split
    /// from [`commit`](Self::commit) so a failed wire send does not burn a
    /// sequence number and leave a permanent gap the receiver would NACK
    /// forever.
    pub fn peek_seq(&self) -> u64 {
        self.next_seq
    }

    /// Record a successfully sent payload under `seq` (which must be the
    /// value [`peek_seq`](Self::peek_seq) returned) and advance the flow.
    pub fn commit(&mut self, seq: u64, payload: P) {
        debug_assert_eq!(seq, self.next_seq, "commit out of order");
        self.next_seq += 1;
        self.buf.push_back((seq, payload));
        if self.buf.len() > self.window {
            self.buf.pop_front();
        }
    }

    /// Cumulative acknowledgement: everything below `next` is delivered and
    /// forgotten. Returns the sequences still buffered — the peer asked for
    /// them by pinging, so they are all candidates for retransmission.
    pub fn on_ping(&mut self, next: u64) -> Vec<u64> {
        self.buf.retain(|(s, _)| *s >= next);
        self.buf.iter().map(|(s, _)| *s).collect()
    }

    /// Buffered payloads whose sequence appears in `seqs`, for retransmission.
    pub fn select(&self, seqs: &[u64]) -> Vec<(u64, &P)> {
        self.buf
            .iter()
            .filter(|(s, _)| seqs.contains(s))
            .map(|(s, p)| (*s, p))
            .collect()
    }

    /// Highest sequence ever assigned, if any send was committed: the
    /// high-water mark advertised by a Flush.
    pub fn highest(&self) -> Option<u64> {
        (self.next_seq > 1).then(|| self.next_seq - 1)
    }

    /// Number of unacknowledged payloads currently buffered.
    pub fn in_flight(&self) -> usize {
        self.buf.len()
    }
}

/// What the receive side decided about one arriving sequenced payload.
#[derive(Debug, PartialEq, Eq)]
pub enum RxVerdict<P> {
    /// Already delivered or already parked: discard (and count it).
    Duplicate,
    /// In order: deliver these payloads (the arrival plus any parked run it
    /// unblocked), in sequence order.
    Deliver(Vec<P>),
    /// Early arrival parked above a gap; NACK these missing sequences (may
    /// be empty when every gap member is already parked).
    Parked { nack: Vec<u64> },
}

/// Receiver-side state of one reliable flow.
#[derive(Debug, Clone)]
pub struct FlowRx<P> {
    /// Lowest sequence number not yet delivered.
    next: u64,
    /// Out-of-order arrivals parked until the gap below them fills.
    parked: BTreeMap<u64, P>,
}

impl<P> FlowRx<P> {
    pub fn new() -> Self {
        FlowRx {
            next: 1,
            parked: BTreeMap::new(),
        }
    }

    /// Classify an arriving payload carrying `seq` (> 0).
    pub fn on_data(&mut self, seq: u64, payload: P) -> RxVerdict<P> {
        debug_assert!(seq > 0, "sequence 0 is unmanaged traffic");
        if seq < self.next || self.parked.contains_key(&seq) {
            return RxVerdict::Duplicate;
        }
        if seq > self.next {
            let nack: Vec<u64> = (self.next..seq)
                .filter(|s| !self.parked.contains_key(s))
                .take(NACK_BATCH)
                .collect();
            self.parked.insert(seq, payload);
            return RxVerdict::Parked { nack };
        }
        self.next += 1;
        let mut ready = vec![payload];
        while let Some(p) = self.parked.remove(&self.next) {
            self.next += 1;
            ready.push(p);
        }
        RxVerdict::Deliver(ready)
    }

    /// Sequences missing below a peer-advertised high-water mark `highest`
    /// (tail-loss repair on Flush): everything in `next..=highest` that is
    /// neither delivered nor parked, capped at [`NACK_BATCH`].
    pub fn missing_upto(&self, highest: u64) -> Vec<u64> {
        (self.next..=highest)
            .filter(|s| !self.parked.contains_key(s))
            .take(NACK_BATCH)
            .collect()
    }

    /// Lowest sequence not yet delivered (the cumulative-ack value a Ping
    /// advertises).
    pub fn next_expected(&self) -> u64 {
        self.next
    }

    /// Number of payloads parked above a gap.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }
}

impl<P> Default for FlowTx<P> {
    fn default() -> Self {
        FlowTx::new(REL_WINDOW)
    }
}

impl<P> Default for FlowRx<P> {
    fn default() -> Self {
        FlowRx::new()
    }
}

/// Every reliable flow of one endpoint: outgoing by destination (payload
/// `S`, what a retransmission needs), incoming by `(source rank, source
/// epoch)` (payload `R`, what delivery needs).
#[derive(Debug, Clone)]
pub struct Flows<S, R> {
    /// While off (the default) sends are not sequenced: `seq == 0` marks
    /// unmanaged traffic, delivered as it arrives.
    pub enabled: bool,
    tx: BTreeMap<Rank, FlowTx<S>>,
    rx: BTreeMap<(Rank, Epoch), FlowRx<R>>,
}

impl<S, R> Default for Flows<S, R> {
    fn default() -> Self {
        Flows {
            enabled: false,
            tx: BTreeMap::new(),
            rx: BTreeMap::new(),
        }
    }
}

impl<S, R> Flows<S, R> {
    /// The flow to `dst`.
    pub fn tx(&mut self, dst: Rank) -> &mut FlowTx<S> {
        self.tx.entry(dst).or_default()
    }

    /// The flow from `src`'s incarnation `epoch`.
    pub fn rx(&mut self, src: Rank, epoch: Epoch) -> &mut FlowRx<R> {
        self.rx.entry((src, epoch)).or_default()
    }

    /// Every outgoing flow's highest assigned sequence, in rank order: what
    /// a quiescence flush advertises.
    pub fn highest(&self) -> Vec<(Rank, u64)> {
        let sent = |(dst, f): (&Rank, &FlowTx<S>)| f.highest().map(|h| (*dst, h));
        self.tx.iter().filter_map(sent).collect()
    }

    /// Enter incarnation `epoch`. Flows are per incarnation: sequences
    /// restart at 1 (receiver flows are keyed by the sender's epoch, so old
    /// and new incarnations can never be confused), and flows from
    /// rolled-back incarnations are dropped with their past.
    pub fn new_epoch(&mut self, epoch: Epoch) {
        self.tx.clear();
        self.rx.retain(|(_, e), _| *e >= epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream_delivers_immediately() {
        let mut rx = FlowRx::new();
        for seq in 1..=5u64 {
            assert_eq!(rx.on_data(seq, seq), RxVerdict::Deliver(vec![seq]));
        }
        assert_eq!(rx.next_expected(), 6);
    }

    #[test]
    fn gap_parks_and_nacks_then_cascades() {
        let mut rx = FlowRx::new();
        assert_eq!(rx.on_data(3, "c"), RxVerdict::Parked { nack: vec![1, 2] });
        // The second early arrival only NACKs the still-missing member.
        assert_eq!(rx.on_data(2, "b"), RxVerdict::Parked { nack: vec![1] });
        assert_eq!(rx.parked_len(), 2);
        // Filling the gap releases the whole parked run in order.
        assert_eq!(rx.on_data(1, "a"), RxVerdict::Deliver(vec!["a", "b", "c"]));
        assert_eq!(rx.parked_len(), 0);
        assert_eq!(rx.next_expected(), 4);
    }

    #[test]
    fn duplicates_discarded_before_and_after_delivery() {
        let mut rx = FlowRx::new();
        assert_eq!(rx.on_data(2, "b"), RxVerdict::Parked { nack: vec![1] });
        assert_eq!(rx.on_data(2, "b"), RxVerdict::Duplicate); // parked dup
        assert_eq!(rx.on_data(1, "a"), RxVerdict::Deliver(vec!["a", "b"]));
        assert_eq!(rx.on_data(1, "a"), RxVerdict::Duplicate); // delivered dup
    }

    #[test]
    fn cumulative_ack_trims_and_reports_remainder() {
        let mut tx = FlowTx::new(16);
        for i in 1..=4u64 {
            let s = tx.peek_seq();
            assert_eq!(s, i);
            tx.commit(s, i * 10);
        }
        assert_eq!(tx.highest(), Some(4));
        // Peer delivered 1 and 2: forget them, resend the rest.
        assert_eq!(tx.on_ping(3), vec![3, 4]);
        assert_eq!(tx.in_flight(), 2);
        assert_eq!(tx.select(&[3]), vec![(3, &30)]);
        assert!(tx.select(&[1, 2]).is_empty());
    }

    #[test]
    fn window_slides_oldest_out() {
        let mut tx = FlowTx::new(2);
        for _ in 0..3 {
            let s = tx.peek_seq();
            tx.commit(s, ());
        }
        assert_eq!(tx.in_flight(), 2);
        assert!(tx.select(&[1]).is_empty(), "seq 1 slid out of the window");
        assert_eq!(tx.select(&[2, 3]).len(), 2);
    }

    #[test]
    fn flush_names_missing_tail() {
        let mut rx = FlowRx::new();
        assert!(matches!(rx.on_data(1, ()), RxVerdict::Deliver(_)));
        assert_eq!(rx.missing_upto(4), vec![2, 3, 4]);
        assert_eq!(rx.on_data(3, ()), RxVerdict::Parked { nack: vec![2] });
        assert_eq!(rx.missing_upto(4), vec![2, 4]);
        assert!(rx.missing_upto(1).is_empty());
    }

    /// The endpoint-wide table: off by default, flows keyed per peer and per
    /// peer incarnation, flush marks in rank order, a new epoch restarts
    /// the senders and drops only older receivers.
    #[test]
    fn flows_key_by_peer_and_incarnation() {
        let mut f: Flows<&str, &str> = Flows::default();
        assert!(!f.enabled);
        assert!(f.highest().is_empty());
        for (dst, want) in [(2, 1), (1, 1), (2, 2)] {
            let seq = f.tx(Rank(dst)).peek_seq();
            assert_eq!(seq, want);
            f.tx(Rank(dst)).commit(seq, "m");
        }
        f.tx(Rank(3)); // looked at, never sent on: nothing to flush
        assert_eq!(f.highest(), vec![(Rank(1), 1), (Rank(2), 2)]);
        assert_eq!(f.tx(Rank(2)).on_ping(2), vec![2]);

        let (old, new) = (Epoch(0), Epoch(1));
        assert_eq!(
            f.rx(Rank(1), old).on_data(1, "a"),
            RxVerdict::Deliver(vec!["a"])
        );
        assert_eq!(
            f.rx(Rank(1), new).on_data(1, "b"),
            RxVerdict::Deliver(vec!["b"])
        );
        assert_eq!(f.rx(Rank(1), old).next_expected(), 2);
        assert_eq!(f.rx(Rank(5), old).missing_upto(2), vec![1, 2]);
        f.new_epoch(new);
        assert_eq!(f.tx(Rank(2)).peek_seq(), 1, "senders restart");
        assert_eq!(
            f.rx(Rank(1), old).next_expected(),
            1,
            "the old incarnation is gone"
        );
        assert_eq!(f.rx(Rank(1), new).next_expected(), 2, "the new one is kept");
    }

    #[test]
    fn nack_batch_is_bounded() {
        let mut rx: FlowRx<()> = FlowRx::new();
        let verdict = rx.on_data(1000, ());
        match verdict {
            RxVerdict::Parked { nack } => {
                assert_eq!(nack.len(), NACK_BATCH);
                assert_eq!(nack[0], 1);
            }
            other => panic!("expected Parked, got {other:?}"),
        }
    }
}
