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
//! * A node failure produces view events **only for the lightweight groups
//!   that spanned that node**.
//! * Messages multicast in a lightweight group are delivered **only to its
//!   members**, even though the transport is the main group's totally
//!   ordered multicast.
//!
//! Here a lightweight group is no protocol of its own but a *function*:
//! [`router::members`] of an application's placement (minus its lost ranks)
//! and the main view. Every daemon evaluates it at the same point of the
//! total order, so all derive the same view sequence without exchanging a
//! message; [`LwGroups`] turns the sequence into numbered [`LwView`]s, one
//! per change. The daemon's reducer owns the table and the multicast
//! delivery; the `ablation_lwgroups` benchmark measures what this saves.

pub mod router;

pub use router::{members, LwGroups, LwView};
