//! Seeded lint-violation fixture. This crate is NOT a workspace member and
//! is never compiled; it exists so CI can prove `starfish-lint` actually
//! fails on violations (`cargo run -p verify --bin starfish-lint -- \
//! crates/verify/fixtures/badcrate` must exit 1), and so
//! `crates/verify/tests/badcrate.rs` can pin every finding by rule, file
//! and line. The rules clippy holds (the panic surface, the clock, sleep
//! and entropy bans) are seeded in the compiled `fixtures/clippybad`.
//!
//! One seeded violation per analysis pass:
//!   1. wire-enum-coverage   — `Orphan` variant no test mentions
//!   2. wire-enum-coverage   — single-line enum `Packed`, untested `Skipped`
//!   3. lock-order           — `Locks.a`/`Locks.b` acquired in both orders
//!   4. blocking-while-locked— `thread::sleep` under `Locks.a`
//!   5. sans-io              — `src/machine.rs` declares itself a pure machine
//!                             and reads a clock and holds a `Fabric`
//!   6. notify-unlocked      — `Flag::raise` notifies without the waiter's mutex

pub trait Encode {}
pub trait Decode {}

/// A wire enum with a codec impl pair…
pub enum BadWire {
    Ping,
    /// Violation 1 (wire-enum-coverage): no test ever mentions this.
    Orphan,
}

impl Encode for BadWire {}
impl Decode for BadWire {}

/// Violation 2 (wire-enum-coverage): a single-line wire enum — the old
/// line-oriented parser missed variants declared like this, so this is a
/// regression guard as much as a seeded violation.
pub enum Packed { Seen, Skipped }

impl Encode for Packed {}
impl Decode for Packed {}

pub struct Locks {
    a: Mutex<u32>,
    b: Mutex<u32>,
}

impl Locks {
    /// Half of violation 3 (lock-order): `a` then `b`…
    pub fn forward(&self) -> u32 {
        let ga = self.a.lock();
        let gb = self.b.lock();
        *ga + *gb
    }

    /// …and the other half: `b` then `a`. Together: a cycle.
    pub fn backward(&self) -> u32 {
        let gb = self.b.lock();
        let ga = self.a.lock();
        *gb - *ga
    }

    /// Violation 4 (blocking-while-locked): sleeping while holding `a`.
    pub fn doze(&self) -> u32 {
        let ga = self.a.lock();
        std::thread::sleep(std::time::Duration::from_millis(5));
        *ga
    }
}

pub struct Flag {
    up: AtomicBool,
    m: Mutex<()>,
    cv: Condvar,
}

impl Flag {
    /// Violation 6 (notify-unlocked): a waiter that has checked `up` but not
    /// yet parked misses this wake-up.
    pub fn raise(&self) {
        self.up.store(true, Ordering::SeqCst);
        self.cv.notify_one();
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn roundtrip_ping_only() {
        let _ = "Ping";
        let _ = "Seen";
    }
}
