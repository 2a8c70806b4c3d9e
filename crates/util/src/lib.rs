//! # starfish-util
//!
//! Common substrate shared by every crate in the starfish-rs workspace:
//!
//! * [`ids`] — strongly typed identifiers for nodes, processes, applications,
//!   ranks, views and lightweight groups.
//! * [`time`] — virtual time ([`time::VirtualTime`]) and per-actor logical
//!   clocks ([`time::VClock`]). The whole reproduction measures protocol time
//!   in a deterministic virtual timeline calibrated to the paper's hardware
//!   (see DESIGN.md §5/§6).
//! * [`codec`] — a small, canonical, portable binary wire format used for all
//!   control-plane messages. Checkpoint images deliberately do *not* use this
//!   canonical format; they use the architecture-native representation from
//!   `starfish-checkpoint`, because representation control is part of the
//!   heterogeneous-checkpointing experiment.
//! * [`rng`] — deterministic seeded RNG helpers for reproducible workloads.
//! * [`trace`] — the Table 1 message-taxonomy audit: per-class totals and
//!   the exact set of paths each class was seen on.
//! * [`ring`] — [`ring::SeqRing`], the one bounded, sequenced ring every
//!   observability buffer (the flight recorder's record classes, the stats
//!   history) is a typed user of.
//! * [`json`] — the one JSON string writer.
//! * [`error`] — the shared error type.

pub mod codec;
pub mod error;
pub mod ids;
pub mod json;
pub mod ring;
pub mod rng;
pub mod time;
pub mod trace;
pub mod watch;

pub use error::{Error, Result};
pub use ids::{AppId, Epoch, GroupId, NodeId, ProcId, Rank, SeqNo, ViewId};
pub use time::{VClock, VirtualTime};
