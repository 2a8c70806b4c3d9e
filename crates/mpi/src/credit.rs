//! Pure state machine of eager flow control.
//!
//! A sender may have at most a ceiling of eager payload bytes outstanding
//! toward one destination; past it, sends fall back to rendezvous
//! *regardless of size*, so together with the rendezvous threshold the
//! receiver's unexpected-queue memory per peer is bounded by the ceiling
//! plus placeholder envelopes. The receiver returns what it consumed in
//! batches. [`Credit`] holds both halves for one endpoint — the budget per
//! destination, the bytes owed per source — and decides the route of every
//! send and when a `Credit` message is due; the endpoint sends it.
// lint: sans-io

use std::collections::BTreeMap;

use starfish_util::Rank;

use crate::wire::{MsgHeader, CTRL_CONTEXT, FLAG_RNDV_DATA};

/// Eager bytes a sender may have outstanding toward one destination before
/// its sends fall back to rendezvous *regardless of size*.
pub const EAGER_CREDIT_BYTES: usize = 1 << 20;

/// Consumed-byte granularity at which a receiver returns eager credit to
/// the sender. Batched so credit control traffic stays off the common path.
pub const CREDIT_BATCH_BYTES: usize = 64 * 1024;

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

/// Both directions of one endpoint's eager credit.
#[derive(Debug, Clone)]
pub struct Credit {
    /// Budget a destination starts from and is refilled up to.
    ceiling: usize,
    /// Remaining eager byte budget per destination.
    budget: BTreeMap<Rank, usize>,
    /// Eager bytes consumed per source, not yet returned as credit.
    owed: BTreeMap<Rank, usize>,
}

impl Credit {
    pub fn new(ceiling: usize) -> Credit {
        Credit {
            ceiling,
            budget: BTreeMap::new(),
            owed: BTreeMap::new(),
        }
    }

    /// Change the ceiling; destinations already sent to keep the budget
    /// they have.
    pub fn set_ceiling(&mut self, bytes: usize) {
        self.ceiling = bytes;
    }

    /// Should `len` bytes to `dst` go rendezvous? Either the payload is
    /// large, or the destination's eager credit is exhausted.
    pub fn route(&self, dst: Rank, len: usize, rndv_threshold: usize) -> Route {
        if len >= rndv_threshold {
            Route::Rendezvous
        } else if *self.budget.get(&dst).unwrap_or(&self.ceiling) < len {
            Route::CreditFallback
        } else {
            Route::Eager
        }
    }

    /// An eager payload of `len` bytes left for `dst`.
    pub fn spend(&mut self, dst: Rank, len: usize) {
        let budget = self.budget.entry(dst).or_insert(self.ceiling);
        *budget = budget.saturating_sub(len);
    }

    /// `from` returned `bytes` of credit; the budget never exceeds the
    /// ceiling, whatever a duplicated or inflated return claims.
    pub fn refill(&mut self, from: Rank, bytes: u64) {
        let budget = self.budget.entry(from).or_insert(self.ceiling);
        *budget = budget.saturating_add(bytes as usize).min(self.ceiling);
    }

    /// The application consumed a message of `len` payload bytes. Eager
    /// payloads owe their sender credit back: returns the byte count to
    /// send once [`CREDIT_BATCH_BYTES`] have accumulated. Rendezvous
    /// payloads (DATA flag still set on the merged header) and C/R marks
    /// never charged credit, so they return none.
    pub fn consumed(&mut self, h: &MsgHeader, len: usize) -> Option<u64> {
        if h.context == CTRL_CONTEXT || h.flags & FLAG_RNDV_DATA != 0 {
            return None;
        }
        let owed = self.owed.entry(h.src).or_insert(0);
        *owed += len;
        (*owed >= CREDIT_BATCH_BYTES).then(|| std::mem::take(owed) as u64)
    }

    /// Forget budgets and debts (they belong to a rolled-back incarnation).
    pub fn clear(&mut self) {
        self.budget.clear();
        self.owed.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use starfish_util::Epoch;

    fn header(src: u32, context: u32, flags: u8) -> MsgHeader {
        MsgHeader {
            src: Rank(src),
            context,
            tag: 0,
            epoch: Epoch(0),
            interval: 0,
            seq: 0,
            flags,
        }
    }

    #[test]
    fn size_routes_rendezvous_and_an_exhausted_budget_falls_back() {
        let mut c = Credit::new(100);
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
        assert_eq!(c.route(Rank(2), 100, usize::MAX), Route::Eager);
        assert_eq!(c.route(Rank(2), 101, usize::MAX), Route::CreditFallback);
    }

    #[test]
    fn credit_returns_in_batches_and_refills_clamp_at_the_ceiling() {
        let mut c = Credit::new(EAGER_CREDIT_BYTES);
        let h = header(3, 1, 0);
        assert_eq!(c.consumed(&h, CREDIT_BATCH_BYTES - 1), None);
        assert_eq!(c.consumed(&h, 1), Some(CREDIT_BATCH_BYTES as u64));
        assert_eq!(c.consumed(&h, 10), None, "the debt restarts from zero");
        assert_eq!(
            c.consumed(&h, 2 * CREDIT_BATCH_BYTES),
            Some(2 * CREDIT_BATCH_BYTES as u64 + 10),
            "one return covers everything owed"
        );
        // Debts are per source.
        assert_eq!(c.consumed(&header(4, 1, 0), 10), None);

        c.spend(Rank(3), 1000);
        c.refill(Rank(3), 400);
        assert_eq!(
            c.route(Rank(3), EAGER_CREDIT_BYTES - 600, usize::MAX),
            Route::Eager
        );
        assert_eq!(
            c.route(Rank(3), EAGER_CREDIT_BYTES - 599, usize::MAX),
            Route::CreditFallback
        );
        c.refill(Rank(3), u64::MAX);
        c.refill(Rank(9), 5); // a return from a peer never sent to
        for r in [3, 9] {
            assert_eq!(
                c.route(Rank(r), EAGER_CREDIT_BYTES, usize::MAX),
                Route::Eager
            );
            assert_eq!(
                c.route(Rank(r), EAGER_CREDIT_BYTES + 1, usize::MAX),
                Route::CreditFallback
            );
        }
    }

    #[test]
    fn rendezvous_payloads_and_marks_are_exempt() {
        let mut c = Credit::new(EAGER_CREDIT_BYTES);
        let big = 10 * CREDIT_BATCH_BYTES;
        assert_eq!(c.consumed(&header(1, 1, FLAG_RNDV_DATA), big), None);
        assert_eq!(c.consumed(&header(1, CTRL_CONTEXT, 0), big), None);
        assert_eq!(
            c.consumed(&header(1, 1, 0), 1),
            None,
            "nothing accrued above"
        );
    }

    #[test]
    fn a_new_ceiling_applies_to_new_destinations_and_clear_forgets() {
        let mut c = Credit::new(100);
        c.spend(Rank(1), 30);
        c.set_ceiling(usize::MAX);
        assert_eq!(c.route(Rank(1), 71, usize::MAX), Route::CreditFallback);
        assert_eq!(c.route(Rank(2), 1 << 40, usize::MAX), Route::Eager);
        c.consumed(&header(1, 1, 0), CREDIT_BATCH_BYTES - 1);
        c.clear();
        assert_eq!(c.route(Rank(1), 1 << 40, usize::MAX), Route::Eager);
        assert_eq!(c.consumed(&header(1, 1, 0), 1), None);
    }
}
