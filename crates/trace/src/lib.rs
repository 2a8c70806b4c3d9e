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
//! Layering: this crate depends only on `starfish-util`, so every layer —
//! vni, mpi, ensemble, checkpoint, daemon, chaos — can record into it.
//!
//! See `OBSERVABILITY.md` at the repository root for the wire layout and a
//! worked debugging walkthrough.

pub mod context;
pub mod event;
pub mod hub;
pub mod perfetto;
pub mod reassemble;
pub mod recorder;

pub use context::TraceCtx;
pub use event::{EventKind, TraceEvent};
pub use hub::TraceHub;
pub use reassemble::{reassemble, Dag, NodeRef, PathStep};
pub use recorder::{FlightRecorder, PhaseSpan, ProcTrace, TraceCursor, DEFAULT_CAPACITY};
