//! # starfish-lwgroups — lightweight process groups
//!
//! The paper (§2.1, figure 2) associates each application with a
//! *lightweight group* whose members are the daemons running that
//! application's processes, following the dynamic lightweight groups design
//! of Guo & Rodrigues \[19\]: instead of paying for a full-blown Ensemble
//! group per application, all lightweight groups are multiplexed over the
//! single Starfish group.
//!
//! The properties the paper relies on:
//!
//! * A membership change of one application (process exit, spawn) produces a
//!   view event **only in that application's lightweight group** — other
//!   lightweight groups and the main group are undisturbed.
//! * A node failure is translated by the *lightweight membership module* into
//!   view events **only for the lightweight groups that spanned that node**.
//! * Messages multicast in a lightweight group are delivered **only to its
//!   members**, even though the transport is the main group's totally
//!   ordered multicast.
//!
//! Because every lightweight-group operation rides the main group's total
//! order, all daemons observe the same sequence of lightweight views — no
//! extra agreement protocol is needed. That is the efficiency argument of
//! \[19\], quantified by the `ablation_lwgroups` benchmark.
//!
//! This crate is deliberately transport-agnostic: [`LwRouter`] is a
//! deterministic state machine fed with the daemon's delivered casts and
//! main-group views; the daemon crate owns the actual
//! [`starfish_ensemble::Stack`].

pub mod router;

pub use router::{LwEvent, LwMsg, LwRouter, LwView};
