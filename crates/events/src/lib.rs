//! The cluster event vocabulary and recovery postmortems of starfish.
//!
//! The paper's daemons are organized around an event bus that management
//! clients register listeners on (§3.1). Here that bus is a record class of
//! each daemon's flight recorder (`starfish_trace::EventLog`); this crate is
//! what the class records and what is built from it:
//!
//! - [`event`]: the structured event vocabulary ([`EventKind`]) and the
//!   sequenced, virtually-timestamped [`ClusterEvent`] record, with the same
//!   portable wire codec the rest of the control plane uses.
//! - [`postmortem`]: the self-contained recovery [`Postmortem`] bundle — the
//!   event sequence, per-phase timings, rollback depth, causal trace slice
//!   and metrics deltas of one recovery — plus its hand-rolled JSON writer.
//!
//! Determinism contract: nothing in this crate reads wall clocks or entropy.
//! Events carry virtual timestamps supplied by the caller; two replays of a
//! deterministic scenario produce byte-identical bundles.

// The panic surface: each surviving site carries an `#[expect]` with its
// reason (VERIFICATION.md §2).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo)]
#![deny(clippy::unimplemented, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod event;
pub mod postmortem;

pub use event::{ClusterEvent, EventKind};
pub use postmortem::{MetricDelta, Phase, Postmortem, Rollback};
