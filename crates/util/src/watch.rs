//! A change counter that waiters block on.
//!
//! The notification half of "wait for a predicate over shared state without
//! polling it": the writer updates its state (under whatever lock that state
//! has) and then [`bump`](ChangeCount::bump)s; a waiter reads
//! [`current`](ChangeCount::current) *before* it looks at the state, and if
//! the state does not satisfy it yet, blocks in
//! [`wait_past`](ChangeCount::wait_past) until the count has moved on. A
//! change that lands between the look and the wait has already moved the
//! count, so it is never missed; the predicate runs once per change, outside
//! every lock, and never on a timer.

use std::time::Instant;

use parking_lot::{Condvar, Mutex};

#[derive(Debug, Default)]
pub struct ChangeCount {
    count: Mutex<u64>,
    changed: Condvar,
}

impl ChangeCount {
    pub fn new() -> Self {
        ChangeCount::default()
    }

    /// Record one change and wake every waiter.
    pub fn bump(&self) {
        *self.count.lock() += 1;
        self.changed.notify_all();
    }

    /// Changes recorded so far.
    pub fn current(&self) -> u64 {
        *self.count.lock()
    }

    /// Block until more than `seen` changes have been recorded and return
    /// the new count, or `None` once `deadline` has passed without one.
    pub fn wait_past(&self, seen: u64, deadline: Instant) -> Option<u64> {
        let mut count = self.count.lock();
        while *count == seen {
            #[expect(clippy::disallowed_methods, reason = "the caller's deadline")]
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return None;
            }
            self.changed.wait_for(&mut count, left);
        }
        Some(*count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn wait_past_returns_on_a_bump_and_not_before() {
        let c = Arc::new(ChangeCount::new());
        let seen = c.current();
        let waiter = {
            let c = c.clone();
            let deadline = Instant::now() + Duration::from_secs(30);
            std::thread::spawn(move || c.wait_past(seen, deadline))
        };
        c.bump();
        assert_eq!(waiter.join().unwrap(), Some(seen + 1));
        // A change that landed before the wait is not missed.
        assert_eq!(c.wait_past(seen, Instant::now()), Some(seen + 1));
    }

    #[test]
    fn wait_past_gives_up_at_the_deadline() {
        let c = ChangeCount::new();
        let deadline = Instant::now() + Duration::from_millis(10);
        assert_eq!(c.wait_past(c.current(), deadline), None);
        assert!(Instant::now() >= deadline);
    }
}
