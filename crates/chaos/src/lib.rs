//! # starfish-chaos — deterministic fault-injection harness
//!
//! Starfish's claim (HPDC 1999) is that dynamic MPI programs survive
//! arbitrary node crashes, partitions, and membership churn. Hand-scripted
//! crash points exercise single protocol steps; this crate turns the claim
//! into a property checked under *adversarial schedules*:
//!
//! - [`plan::FaultPlan`] — a seeded, serializable DSL describing one
//!   schedule: per-link packet faults (drop / duplicate / delay / reorder,
//!   injected by the fabric's fault layer), timed partitions and heals,
//!   node crashes (fail-stop and silent), daemon restarts, and torn
//!   checkpoint images;
//! - [`driver`] — replays a plan against an in-memory cluster
//!   deterministically from a single `u64` seed and records the complete
//!   delivery trace;
//! - [`oracle`] — invariant oracles judged at quiescence: exactly-once
//!   delivery, per-flow FIFO, fault-layer frame conservation, recovery-line
//!   restorability (no domino), and convergence; the ensemble test family
//!   adds view agreement and total-order agreement;
//! - [`shrink`] — greedy plan minimization, so a failing random schedule
//!   shrinks to a few lines committed under `tests/regressions/`.
//!
//! See `CHAOS.md` at the repository root for the plan format and the
//! reproduction workflow.

pub(crate) mod driver;
pub mod oracle;
pub(crate) mod plan;
pub(crate) mod shrink;

pub use driver::{postmortem, run_mpi_scenario, run_mpi_scenario_traced, write_postmortem};
pub use plan::{Event, FaultPlan, TimedEvent};
pub use shrink::minimize;
