//! starfish-verify: exhaustive protocol model checking and repo lints.
//!
//! Three legs, per VERIFICATION.md:
//!
//! * [`explorer`] — a small explicit-state BFS model checker (safety +
//!   deadlock + livelock via reverse reachability), with shortest
//!   counterexample traces;
//! * [`models`] — exhaustive models of the repo's protocol engines
//!   (stop-and-sync and Chandy–Lamport checkpointing, ensemble membership
//!   with sequencer failover, the daemon reducer over it, the MPI
//!   reliability layer) driving the *real* `step`-style state machines,
//!   not re-implementations;
//! * the `starfish-lint` binary — the `starfish_analysis` workspace passes
//!   (lock order, blocking while locked, notify-unlocked, wire-enum test
//!   coverage, sans-IO machines); the panic surface and the clock, sleep
//!   and entropy bans are clippy's (`clippy.toml`).
//!
//! [`counterexample`] renders violations as `FaultPlan` DSL so they replay
//! under the chaos driver; `tests/bridge.rs` keeps that loop closed.

pub mod counterexample;
pub mod explorer;
pub mod models;
