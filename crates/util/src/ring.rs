//! The one bounded ring of the observability path.
//!
//! A [`SeqRing`] keeps the newest `cap` items it was given and numbers every
//! item with a sequence that keeps counting across evictions, so a reader
//! that fell behind learns *exactly* how much it missed instead of silently
//! skipping. The flight recorder (one ring per record class) and the stats
//! history are typed users of it; neither evicts or counts drops on its own.
//!
//! The ring is plain data: its owner supplies the lock.

use std::collections::VecDeque;

/// Bounded FIFO whose items carry implicit, dense sequence numbers: the
/// oldest retained item has seq `pushed() - len()`, the newest
/// `pushed() - 1`.
#[derive(Debug, Clone)]
pub struct SeqRing<T> {
    items: VecDeque<T>,
    cap: usize,
    /// Items ever pushed == the seq the next push gets.
    pushed: u64,
}

impl<T> SeqRing<T> {
    /// A ring retaining at most `cap` items (at least one).
    pub fn new(cap: usize) -> Self {
        SeqRing {
            items: VecDeque::new(),
            cap: cap.max(1),
            pushed: 0,
        }
    }

    /// Append `item`, evicting the oldest when full. Returns its seq.
    pub fn push(&mut self, item: T) -> u64 {
        if self.items.len() == self.cap {
            self.items.pop_front();
        }
        self.items.push_back(item);
        self.pushed += 1;
        self.pushed - 1
    }

    /// Items ever pushed (the seq the next push will get).
    pub fn pushed(&self) -> u64 {
        self.pushed
    }

    /// Exact count of evicted items.
    pub fn dropped(&self) -> u64 {
        self.pushed - self.items.len() as u64
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Change the bound, evicting (and counting) the oldest items that no
    /// longer fit.
    pub fn set_capacity(&mut self, cap: usize) {
        self.cap = cap.max(1);
        let excess = self.items.len().saturating_sub(self.cap);
        self.items.drain(..excess);
    }

    /// Retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }
}

impl<T: Clone> SeqRing<T> {
    /// Items with seq `>= from`, oldest first, plus how many items in that
    /// range were already evicted. A cursor resumes at
    /// `from + missed + items.len()`.
    pub fn since(&self, from: u64) -> (Vec<T>, u64) {
        let oldest = self.dropped();
        let skip = usize::try_from(from.saturating_sub(oldest)).unwrap_or(usize::MAX);
        (
            self.items.iter().skip(skip).cloned().collect(),
            oldest.saturating_sub(from),
        )
    }

    /// The newest `n` items, oldest first.
    #[cfg(test)]
    pub(crate) fn tail(&self, n: usize) -> Vec<T> {
        let skip = self.items.len().saturating_sub(n);
        self.items.iter().skip(skip).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn filled(n: u64, cap: usize) -> SeqRing<u64> {
        let mut r = SeqRing::new(cap);
        for i in 0..n {
            assert_eq!(r.push(i), i);
        }
        r
    }

    #[test]
    fn seqs_are_dense_and_survive_eviction() {
        let r = filled(10, 4);
        assert_eq!(r.pushed(), 10);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![6, 7, 8, 9]);
    }

    #[test]
    fn since_reports_the_exact_gap_once() {
        let mut r = filled(10, 4);
        let mut next = 0;
        let (items, missed) = r.since(next);
        assert_eq!((items, missed), (vec![6, 7, 8, 9], 6));
        next += missed + 4;
        assert_eq!(r.since(next), (vec![], 0));
        r.push(10);
        assert_eq!(r.since(next), (vec![10], 0));
        // A cursor inside the retained window misses nothing.
        assert_eq!(r.since(9), (vec![9, 10], 0));
    }

    #[test]
    fn tail_returns_newest_n_oldest_first() {
        let r = filled(5, 64);
        assert_eq!(r.tail(2), vec![3, 4]);
        assert_eq!(r.tail(100).len(), 5);
    }

    #[test]
    fn shrinking_counts_as_eviction() {
        let mut r = filled(5, 8);
        assert_eq!((r.pushed(), r.dropped()), (5, 0));
        r.set_capacity(2);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(r.dropped(), 3);
        r.push(5);
        assert_eq!((r.len(), r.dropped()), (2, 4));
    }

    proptest! {
        /// The three facts every user of the ring leans on: nothing is lost
        /// uncounted, seqs stay dense and monotone across eviction, and a
        /// late reader's gap is exactly the evicted part of its range.
        #[test]
        fn accounting_is_exact(cap in 1usize..40, n in 0u64..200, from in 0u64..220) {
            let r = filled(n, cap);
            prop_assert_eq!(r.len() as u64 + r.dropped(), n);
            prop_assert_eq!(r.dropped(), n.saturating_sub(cap as u64));
            // Items are their own seqs here, so the window is checkable.
            let window: Vec<u64> = r.iter().copied().collect();
            prop_assert_eq!(&window, &(r.dropped()..n).collect::<Vec<_>>());
            let (items, missed) = r.since(from);
            let evicted_in_range = (from..n).filter(|s| *s < r.dropped()).count() as u64;
            prop_assert_eq!(missed, evicted_in_range);
            prop_assert_eq!(items, (from.max(r.dropped())..n).collect::<Vec<_>>());
        }
    }
}
