//! Seeded lint-violation fixture. This crate is NOT a workspace member and
//! is never compiled; it exists so CI can prove `starfish-lint` actually
//! fails on violations (`cargo run -p verify --bin starfish-lint -- \
//! crates/verify/fixtures/badcrate` must exit 1).
//!
//! One seeded violation per analysis pass:
//!   1. wall-clock           — `Instant::now` in non-test code
//!   2. wall-clock (entropy) — seedless `rand::random`
//!   3. wire-enum-coverage   — `Orphan` variant no test mentions
//!   4. wire-enum-coverage   — single-line enum `Packed`, untested `Skipped`
//!   5. lock-order           — `Locks.a`/`Locks.b` acquired in both orders
//!   6. blocking-while-locked— `thread::sleep` under `Locks.a`
//!   7. panic-surface        — `unwrap` in non-test code
//!   8. wall-clock (sleep)   — a `thread::sleep` poll loop on the runtime path
//!   9. sans-io              — `src/machine.rs` declares itself a pure machine
//!                             and reads a clock (under the wall-clock escape,
//!                             which is no excuse there) and holds a `Fabric`

use std::time::Instant;

/// Violation 1 (wall-clock): bare `Instant::now` in non-test code with no
/// `lint: allow` marker.
pub fn stamp() -> Instant {
    Instant::now()
}

/// Violation 2 (wall-clock): seedless process entropy.
pub fn jitter() -> u64 {
    rand::random::<u64>()
}

pub trait Encode {}
pub trait Decode {}

/// A wire enum with a codec impl pair…
pub enum BadWire {
    Ping,
    /// Violation 3 (wire-enum-coverage): no test ever mentions this.
    Orphan,
}

impl Encode for BadWire {}
impl Decode for BadWire {}

/// Violation 4 (wire-enum-coverage): a single-line wire enum — the old
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
    /// Half of violation 5 (lock-order): `a` then `b`…
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

    /// Violation 6 (blocking-while-locked): sleeping while holding `a`.
    pub fn doze(&self) -> u32 {
        let ga = self.a.lock();
        std::thread::sleep(std::time::Duration::from_millis(5));
        *ga
    }
}

/// Violation 8 (wall-clock): polling state on a timer instead of waiting
/// on the change itself.
pub fn wait_ready(ready: &dyn Fn() -> bool) {
    while !ready() {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// Violation 7 (panic-surface): `unwrap` on a protocol path.
pub fn first_byte(frame: &[u8]) -> u8 {
    frame.first().copied().unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn roundtrip_ping_only() {
        let _ = "Ping";
        let _ = "Seen";
    }
}
