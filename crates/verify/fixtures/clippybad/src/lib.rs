//! Seeded clippy-violation fixture: one violation for each check clippy
//! holds for the workspace — the panic surface of the audited crates (their
//! `lib.rs` carries the same `#![deny]` list as this one) and the clock,
//! sleep and entropy bans of the workspace `clippy.toml`. CI requires each
//! of them to fire by lint name (`ci/clippy_must_fail.py`), so a fixture
//! that stops compiling, or a lint that goes quiet, fails the step.
//!
//!   1. clippy::indexing_slicing   — `frame[0]`
//!   2. clippy::unwrap_used        — `unwrap` on a protocol path
//!   3. clippy::expect_used        — `expect` on a protocol path
//!   4. clippy::panic              — `panic!` on a bad frame
//!   5. clippy::disallowed_methods — `Instant::now` (the clock)
//!   6. clippy::disallowed_methods — `RandomState::new` (seedless entropy)
//!   7. clippy::disallowed_methods — a `thread::sleep` poll loop
//!   8. clippy::allow_attributes   — an `#[allow]` where `#[expect]` belongs
//!   9. unfulfilled_lint_expectations — an `#[expect]` left on a fixed site
//!
//! `deadline` is not a violation: a clock read under an `#[expect]` that
//! names its deadline is what the workspace's runtime crates do.

#![deny(
    clippy::indexing_slicing,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes,
    clippy::allow_attributes_without_reason
)]

use std::collections::hash_map::RandomState;
use std::time::{Duration, Instant};

/// Violation 1: indexing that panics on an empty frame.
pub fn kind(frame: &[u8]) -> u8 {
    frame[0]
}

/// Violation 2: `unwrap` on a protocol path.
pub fn first_byte(frame: &[u8]) -> u8 {
    frame.first().copied().unwrap()
}

/// Violation 3: `expect` on a protocol path.
pub fn last_byte(frame: &[u8]) -> u8 {
    frame.last().copied().expect("a non-empty frame")
}

/// Violation 4: `panic!` on a bad frame instead of an error.
pub fn check(ok: bool) {
    if !ok {
        panic!("bad frame");
    }
}

/// Violation 5: a bare wall-clock read.
pub fn stamp() -> Instant {
    Instant::now()
}

/// Violation 6: seedless process entropy.
pub fn hasher() -> RandomState {
    RandomState::new()
}

/// Violation 7: polling state on a timer instead of waiting on the change.
pub fn wait_ready(ready: &dyn Fn() -> bool) {
    while !ready() {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Violation 8: an `#[allow]` is silent once its lint stops firing.
#[allow(clippy::too_many_arguments, reason = "every field of a header")]
pub fn header(a: u8, b: u8, c: u8, d: u8, e: u8, f: u8, g: u8, h: u8) -> [u8; 8] {
    [a, b, c, d, e, f, g, h]
}

/// Violation 9: the site was fixed (`get` cannot panic), its `#[expect]`
/// was left behind.
#[expect(clippy::indexing_slicing, reason = "a two-byte frame")]
pub fn second_byte(frame: &[u8]) -> Option<u8> {
    frame.get(1).copied()
}

/// Not a violation: a deadline read, under an `#[expect]` that names it.
#[expect(clippy::disallowed_methods, reason = "the caller's timeout")]
pub fn deadline(timeout: Duration) -> Instant {
    Instant::now() + timeout
}
