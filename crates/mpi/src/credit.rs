//! Pure state machine of eager flow control.
//!
//! A producer may have at most [`EAGER_CREDIT_BYTES`] of eager payload
//! outstanding toward one destination; past it, sends fall back to
//! rendezvous *regardless of size*, so together with the rendezvous
//! threshold the receiver's unexpected-queue memory per peer is bounded by
//! the ceiling plus placeholder envelopes.
//!
//! The consumer counts the eager payload it has consumed from each peer in
//! whole [`CREDIT_BATCH_BYTES`] units: a cumulative count per epoch, not a
//! delta. Every data-path frame it sends that peer carries the count's low
//! six bits ([`MsgHeader::credit`]), so a halo exchange returns credit on
//! the halos. A standalone `RelMsg::Credit` with the full count goes out
//! only once half the ceiling has been consumed since the count last left
//! for that peer; a CTS carries the full count too. The producer reads the
//! six bits with serial-number arithmetic: a forward step of 1–31 advances
//! its acknowledged count, anything else is stale or a duplicate. A true
//! step never reaches 32: the producer never has more than the ceiling
//! outstanding, and the consumer counts only what the producer spent in
//! this epoch (replayed channel state is exempt). Being cumulative, a lost
//! report is repaired by the next one, and a duplicated, reordered or
//! retransmitted one credits nothing twice.
//!
//! [`Credit`] holds both halves for one endpoint, per peer: it decides the
//! route of every send, the count every frame carries and when a standalone
//! return is due. The endpoint does the sending.
// lint: sans-io

use std::collections::BTreeMap;

use starfish_util::Rank;

use crate::wire::{MsgHeader, CTRL_CONTEXT, FLAG_RNDV_DATA};

/// Eager bytes a sender may have outstanding toward one destination before
/// its sends fall back to rendezvous *regardless of size*.
pub const EAGER_CREDIT_BYTES: usize = 1 << 20;

/// Default payload size at which sends leave the eager protocol for
/// rendezvous (RTS → CTS → DATA): half the ceiling. Below it the handshake
/// buys nothing:
/// * credit already bounds what one peer can leave in the receiver's
///   unexpected queue at [`EAGER_CREDIT_BYTES`], whatever the threshold;
/// * both routes copy a borrowed `&[u8]` once and an owned `Bytes` never;
/// * two threshold-sized messages fit the window, so a send never waits for
///   its predecessor's credit to come back.
///
/// It is what every endpoint runs unless a harness calls
/// [`crate::MpiEndpoint::set_rendezvous_threshold`] (DESIGN.md §5b).
pub const DEFAULT_RNDV_THRESHOLD: usize = EAGER_CREDIT_BYTES / 2;

// Two threshold-sized messages must fit the window.
const _: () = assert!(DEFAULT_RNDV_THRESHOLD <= EAGER_CREDIT_BYTES / 2);

/// The unit in which a consumer counts the eager payload it consumed. A
/// remainder below one unit stays outstanding until more is consumed.
pub const CREDIT_BATCH_BYTES: usize = 64 * 1024;

/// Forward steps of the six-bit count a frame carries below this are
/// progress; any other value is stale or a duplicate.
const COUNT_WINDOW: u64 = 32;

// A true step is at most the ceiling, which must stay inside the window.
const _: () = assert!(((EAGER_CREDIT_BYTES / CREDIT_BATCH_BYTES) as u64) < COUNT_WINDOW);

/// Units consumed since the count last left for a peer at which a
/// standalone return goes out: half the ceiling.
const RETURN_UNITS: u64 = (EAGER_CREDIT_BYTES / CREDIT_BATCH_BYTES / 2) as u64;

/// Which protocol a payload leaves by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The payload leaves immediately, charged against the budget.
    Eager,
    /// At or over the rendezvous threshold: RTS, an early-chunk window,
    /// the rest on the grant.
    Rendezvous,
    /// Under the threshold but the destination's budget is spent:
    /// rendezvous with nothing streamed early (it exists to stop filling
    /// the receiver).
    CreditFallback,
}

/// Both directions of eager credit with one peer, in this epoch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Peer {
    /// Eager payload bytes sent to the peer.
    pub(crate) spent: u64,
    /// Units of them the peer has reported consumed.
    pub acked: u64,
    /// Eager payload bytes consumed from the peer.
    pub consumed: u64,
    /// Units of them last reported to the peer.
    pub(crate) reported: u64,
}

/// Both directions of one endpoint's eager credit, per peer.
#[derive(Debug, Clone, Default)]
pub struct Credit {
    peers: BTreeMap<Rank, Peer>,
}

impl Credit {
    /// The credit state with `peer` (all zero before any traffic).
    pub fn peer(&self, peer: Rank) -> Peer {
        self.peers.get(&peer).copied().unwrap_or_default()
    }

    /// Eager bytes `dst` may still be sent: the ceiling minus what was
    /// spent and not yet reported consumed.
    pub fn budget(&self, dst: Rank) -> usize {
        let p = self.peer(dst);
        let unreturned = p.spent.saturating_sub(p.acked * CREDIT_BATCH_BYTES as u64);
        EAGER_CREDIT_BYTES.saturating_sub(unreturned as usize)
    }

    /// Should `len` bytes to `dst` go rendezvous? Either the payload is
    /// large, or the destination's eager credit is exhausted.
    pub fn route(&self, dst: Rank, len: usize, rndv_threshold: usize) -> Route {
        if len >= rndv_threshold {
            Route::Rendezvous
        } else if self.budget(dst) < len {
            Route::CreditFallback
        } else {
            Route::Eager
        }
    }

    /// An eager payload of `len` bytes left for `dst`.
    pub fn spend(&mut self, dst: Rank, len: usize) {
        self.peers.entry(dst).or_default().spent += len as u64;
    }

    /// A current-epoch frame from `from` carried the six-bit count `bits`.
    pub fn on_frame(&mut self, from: Rank, bits: u8) {
        if let Some(p) = self.peers.get_mut(&from) {
            let step = u64::from(bits).wrapping_sub(p.acked) % (2 * COUNT_WINDOW);
            if step < COUNT_WINDOW {
                ack(p, p.acked + step);
            }
        }
    }

    /// A standalone return or a CTS from `from` carried its full count.
    pub fn on_count(&mut self, from: Rank, units: u64) {
        if let Some(p) = self.peers.get_mut(&from) {
            ack(p, units);
        }
    }

    /// The full count to report to `peer` now; it counts as reported.
    pub fn report(&mut self, peer: Rank) -> u64 {
        match self.peers.get_mut(&peer) {
            Some(p) => {
                p.reported = p.consumed / CREDIT_BATCH_BYTES as u64;
                p.reported
            }
            None => 0,
        }
    }

    /// The six-bit count a data frame leaving for `peer` carries.
    pub fn stamp(&mut self, peer: Rank) -> u8 {
        (self.report(peer) % (2 * COUNT_WINDOW)) as u8
    }

    /// The application consumed a message of `len` payload bytes. Eager
    /// payloads count toward their sender's credit: returns the full count
    /// to send standalone once half the ceiling has accrued since it last
    /// left. Rendezvous payloads, replayed channel state (both carry the
    /// DATA flag by then) and C/R marks never charged credit in this epoch,
    /// so they count for nothing.
    pub fn consumed(&mut self, h: &MsgHeader, len: usize) -> Option<u64> {
        if h.context == CTRL_CONTEXT || h.flags & FLAG_RNDV_DATA != 0 {
            return None;
        }
        let p = self.peers.entry(h.src).or_default();
        p.consumed += len as u64;
        let units = p.consumed / CREDIT_BATCH_BYTES as u64;
        (units - p.reported >= RETURN_UNITS).then(|| {
            p.reported = units;
            units
        })
    }

    /// Forget every count (they belong to a rolled-back incarnation).
    pub(crate) fn clear(&mut self) {
        self.peers.clear();
    }
}

/// Advance `p`'s acknowledged count to `units` if that is progress and no
/// more than the producer ever spent: a count beyond it is no true count.
fn ack(p: &mut Peer, units: u64) {
    if units > p.acked && units <= p.spent / CREDIT_BATCH_BYTES as u64 {
        p.acked = units;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_util::Epoch;

    const UNIT: usize = CREDIT_BATCH_BYTES;

    fn header(src: u32, context: u32, flags: u8) -> MsgHeader {
        MsgHeader {
            src: Rank(src),
            context,
            tag: 0,
            epoch: Epoch(0),
            interval: 0,
            seq: 0,
            flags,
            credit: 0,
        }
    }

    #[test]
    fn size_routes_rendezvous_and_an_exhausted_budget_falls_back() {
        let mut c = Credit::default();
        let left = EAGER_CREDIT_BYTES - 100;
        c.spend(Rank(1), left);
        let table = [
            // (spend first, len, threshold, verdict)
            (0usize, 10usize, 64usize, Route::Eager),
            (0, 64, 64, Route::Rendezvous),
            (0, 65, 64, Route::Rendezvous),
            (60, 40, 64, Route::Eager),         // exactly the budget left
            (0, 41, 64, Route::CreditFallback), // 40 left
            (40, 1, 64, Route::CreditFallback), // spent to zero
            (0, 0, 64, Route::Eager),           // nothing to buffer
            (0, 0, 0, Route::Rendezvous),       // threshold 0: everything
            (0, 1, usize::MAX, Route::CreditFallback),
        ];
        for (spend, len, threshold, want) in table {
            c.spend(Rank(1), spend);
            assert_eq!(c.route(Rank(1), len, threshold), want, "len {len}");
        }
        // Budgets are per destination.
        let full = EAGER_CREDIT_BYTES;
        assert_eq!(c.route(Rank(2), full, usize::MAX), Route::Eager);
        assert_eq!(
            c.route(Rank(2), full + 1, usize::MAX),
            Route::CreditFallback
        );
    }

    /// At the default constants, from an idle budget: just under the
    /// threshold leaves eager and the threshold goes rendezvous; two
    /// threshold-sized payloads fit the budget, so the second never waits
    /// for the first's credit, and only a third falls back.
    #[test]
    fn the_default_threshold_is_half_the_ceiling() {
        let t = DEFAULT_RNDV_THRESHOLD;
        let idle = Credit::default();
        for (len, want) in [(t - 1, Route::Eager), (t, Route::Rendezvous)] {
            assert_eq!(idle.route(Rank(1), len, t), want, "len {len}");
        }
        let mut c = Credit::default();
        // (len, budget before, verdict with size taken out of the question)
        let table = [
            (t, EAGER_CREDIT_BYTES, Route::Eager),
            (t, EAGER_CREDIT_BYTES - t, Route::Eager),
            (t, 0, Route::CreditFallback),
        ];
        for (len, budget, want) in table {
            assert_eq!(c.budget(Rank(1)), budget);
            assert_eq!(c.route(Rank(1), len, usize::MAX), want, "{budget} left");
            if want == Route::Eager {
                c.spend(Rank(1), len);
            }
        }
    }

    /// The consumer's side: frames carry the running count, a standalone
    /// return is due only at half the ceiling since the count last left.
    #[test]
    fn the_count_rides_frames_and_leaves_alone_at_half_the_ceiling() {
        let mut c = Credit::default();
        let h = header(3, 1, 0);
        assert_eq!(c.stamp(Rank(3)), 0, "nothing consumed from a stranger");
        assert_eq!(c.consumed(&h, UNIT - 1), None);
        assert_eq!(c.consumed(&h, 1), None, "one unit rides the next frame");
        assert_eq!(c.stamp(Rank(3)), 1);
        assert_eq!(c.consumed(&h, (RETURN_UNITS as usize - 1) * UNIT), None);
        assert_eq!(
            c.consumed(&h, UNIT),
            Some(RETURN_UNITS + 1),
            "half the ceiling since the frame: the full count leaves alone"
        );
        assert_eq!(c.consumed(&h, UNIT), None, "and counts as reported");
        assert_eq!(c.report(Rank(3)), RETURN_UNITS + 2, "a CTS carries it all");
        // Far past the six bits: the frame carries the count modulo 64.
        assert_eq!(c.consumed(&h, 70 * UNIT), Some(RETURN_UNITS + 72));
        assert_eq!(c.stamp(Rank(3)), ((RETURN_UNITS + 72) % 64) as u8);
        // Counts are per source.
        assert_eq!(c.consumed(&header(4, 1, 0), 10 * UNIT), Some(10));
        assert_eq!(c.peer(Rank(3)).consumed, 80 * UNIT as u64);
    }

    /// The producer's side: a forward step inside the window advances the
    /// acknowledged count, a stale, duplicated or impossible one changes
    /// nothing, and a full count is taken whole.
    #[test]
    fn the_producer_reads_six_bits_with_serial_arithmetic() {
        let mut c = Credit::default();
        let p = Rank(1);
        c.on_frame(p, 5); // nothing spent toward it: no count is true
        assert_eq!(c.peer(p), Peer::default());
        c.spend(p, EAGER_CREDIT_BYTES);
        assert_eq!(c.budget(p), 0);
        c.on_frame(p, 3);
        assert_eq!(c.budget(p), 3 * UNIT);
        c.on_frame(p, 3); // duplicate
        c.on_frame(p, 2); // reordered, stale
        assert_eq!(c.budget(p), 3 * UNIT);
        c.on_frame(p, 17); // beyond what was ever spent
        assert_eq!(c.budget(p), 3 * UNIT);
        c.on_count(p, 16);
        assert_eq!(c.budget(p), EAGER_CREDIT_BYTES);
        c.on_count(p, 17); // beyond what was ever spent
        c.on_count(p, 4); // late
        assert_eq!(c.peer(p).acked, 16);
        // Wrap the six bits: 16 → 70 units is counted as 6 on the wire.
        c.spend(p, 54 * UNIT);
        for units in (20..=70).step_by(10) {
            c.on_frame(p, (units % 64) as u8);
            assert_eq!(c.peer(p).acked, units, "step to {units}");
        }
        c.on_frame(p, 70 - 31); // 31 behind reads as a step of 33
        c.on_frame(p, ((70 + 32) % 64) as u8); // a step of 32: outside the window
        assert_eq!(c.peer(p).acked, 70);
        assert_eq!(c.budget(p), EAGER_CREDIT_BYTES);
    }

    #[test]
    fn rendezvous_payloads_and_marks_are_exempt() {
        let mut c = Credit::default();
        let big = 10 * UNIT;
        assert_eq!(c.consumed(&header(1, 1, FLAG_RNDV_DATA), big), None);
        assert_eq!(c.consumed(&header(1, CTRL_CONTEXT, 0), big), None);
        assert_eq!(c.stamp(Rank(1)), 0, "nothing accrued above");
    }

    #[test]
    fn clear_forgets_budgets_and_counts() {
        let mut c = Credit::default();
        c.spend(Rank(1), EAGER_CREDIT_BYTES);
        c.consumed(&header(1, 1, 0), UNIT - 1);
        c.clear();
        assert_eq!(
            c.route(Rank(1), EAGER_CREDIT_BYTES, usize::MAX),
            Route::Eager
        );
        assert_eq!(c.consumed(&header(1, 1, 0), 1), None);
        assert_eq!(c.stamp(Rank(1)), 0, "the partial unit went with the epoch");
    }
}
