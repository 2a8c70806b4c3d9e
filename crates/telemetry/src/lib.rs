//! `starfish-telemetry`: the measurement substrate of the Starfish
//! reproduction.
//!
//! The paper's daemons "track application health", and every experimental
//! claim (Figures 3–6, Table 1) is a measurement of runtime behaviour.
//! This crate makes that observability first-class instead of ad hoc:
//!
//! * [`Counter`]/[`Gauge`] — sharded, lock-free, cheap enough for the MPI
//!   fast path;
//! * [`Histogram`] — log-bucketed latency/size distributions with
//!   p50/p95/p99/max;
//! * [`MetricId`] — a static registry of every metric the system emits
//!   (see [`metric::DEFS`]), so node snapshots aggregate by identity;
//! * [`Registry`] — a per-node (or per-process) handle owning one slot per
//!   metric, cloneable and shareable across threads;
//! * [`Snapshot`] — a wire-encodable dump of a registry, mergeable across
//!   nodes; the daemons ship these over the totally ordered ensemble path
//!   and the management protocol renders the aggregate (`STATS`, `HEALTH`).
//!
//! Phases (checkpoint rounds, recoveries, collectives) are not metrics:
//! they are recorded once, on the process's `starfish-trace` flight
//! recorder, and `TIMELINE` folds them from there.

pub mod counter;
pub mod histogram;
pub mod metric;
pub mod registry;
pub mod render;
pub mod snapshot;

pub use counter::{Counter, Gauge};
pub use histogram::{HistSnap, Histogram};
pub use metric::{MetricDef, MetricId, MetricKind, Unit};
pub use registry::Registry;
pub use render::render_stats;
pub use snapshot::Snapshot;
