//! Seeded lint-violation fixture. This crate is NOT a workspace member and
//! is never compiled; it exists so CI can prove `starfish-lint` actually
//! fails on violations (`cargo run -p verify --bin starfish-lint -- \
//! crates/verify/fixtures/badcrate` must exit 1), and so
//! `crates/verify/tests/badcrate.rs` can pin every finding by rule, file
//! and line. The rules clippy holds (the panic surface, the clock, sleep
//! and entropy bans) are seeded in the compiled `fixtures/clippybad`.
//!
//! Seeded violations, at least one per rule:
//!   1. wire-enum-coverage — `Orphan` variant no test mentions
//!   2. wire-enum-coverage — single-line enum `Packed`, untested `Skipped`
//!   3. sans-io            — `src/machine.rs` declares itself a pure machine
//!                           and reads a clock and holds a `Fabric`
//!
//! The lock rules are checked at run time (`parking_lot::lockdep`), and
//! seeded in `third_party/parking_lot/tests/lockdep.rs`.

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

#[cfg(test)]
mod tests {
    #[test]
    fn roundtrip_ping_only() {
        let _ = "Ping";
        let _ = "Seen";
    }
}
