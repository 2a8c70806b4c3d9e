//! Cluster event bus and recovery forensics for starfish.
//!
//! The paper's daemons are organized around an event bus that management
//! clients register listeners on (§3.1). This crate reifies that as a
//! first-class subsystem:
//!
//! - [`event`]: the structured event vocabulary ([`EventKind`]) and the
//!   sequenced, virtually-timestamped [`ClusterEvent`] record, with the same
//!   portable wire codec the rest of the control plane uses.
//! - [`bus`]: the shared `SeqRing` of events ([`EventBus`]) with cheap cursor
//!   subscriptions ([`EventCursor`]) that report evicted-before-read gaps
//!   instead of silently skipping.
//! - [`postmortem`]: the self-contained recovery [`Postmortem`] bundle — the
//!   event sequence, per-phase timings, rollback depth, causal trace slice
//!   and metrics deltas of one recovery — plus its hand-rolled JSON writer.
//!
//! Determinism contract: nothing in this crate reads wall clocks or entropy.
//! Events carry virtual timestamps supplied by the caller; two replays of a
//! deterministic scenario produce byte-identical bundles.

pub mod bus;
pub mod event;
pub mod postmortem;

pub use bus::{EventBus, EventCursor, Poll};
pub use event::{ClusterEvent, EventKind};
pub use postmortem::{MetricDelta, Phase, Postmortem, Rollback};
