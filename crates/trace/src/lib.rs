//! # starfish-trace — causal distributed tracing
//!
//! The observability layer that turns "what happened" (metrics, chaos
//! oracles) into "why": every process carries an always-on, bounded
//! [`FlightRecorder`] of structured events stamped with a Lamport clock;
//! every message carries a tiny optional [`TraceCtx`] (trace id, parent
//! span, logical clock) in a length-prefixed wire extension, so one logical
//! operation is stitchable across nodes. [`reassemble`] merges dumped rings
//! into a happens-before DAG, checks its invariants, and computes critical
//! paths; [`perfetto::export`] renders the whole thing as Chrome-trace JSON
//! that `ui.perfetto.dev` loads directly.
//!
//! A daemon's recorder also holds the cluster's event stream (§3.1's event
//! bus) as a record class of its own, read through [`EventLog`]. Its
//! vocabulary is [`event`] (the sequenced [`event::ClusterEvent`] and its
//! wire codec), and [`postmortem`] builds the self-contained recovery
//! bundle from it. Neither reads a wall clock or entropy: two replays of a
//! deterministic scenario produce byte-identical bundles. Both hold the
//! audited crates' panic lints (VERIFICATION.md §2); the rest of this crate
//! does not.
//!
//! Layering: this crate depends only on `starfish-util`, so every layer —
//! vni, mpi, ensemble, checkpoint, daemon, chaos — can record into it.
//!
//! See `OBSERVABILITY.md` at the repository root for the wire layout and a
//! worked debugging walkthrough.

pub(crate) mod context;
pub mod event;
pub(crate) mod hub;
pub mod perfetto;
pub mod postmortem;
pub mod reassemble;
pub(crate) mod record;
pub mod recorder;

pub use context::{rank_scope, span_base, TraceCtx};
pub use hub::TraceHub;
pub use reassemble::reassemble;
pub use record::EventKind;
pub use recorder::{EventLog, FlightRecorder, ProcTrace, TraceCursor, DEFAULT_CAPACITY};
