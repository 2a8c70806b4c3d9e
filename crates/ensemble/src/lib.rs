//! # starfish-ensemble — group communication for the Starfish daemons
//!
//! The paper builds its daemons on the Ensemble group-communication toolkit
//! \[20,38\]: all daemons form a single *Starfish group*, and Ensemble gives
//! them reliable, totally ordered message delivery, consistent membership
//! views, and automatic failure detection. This crate is our from-scratch
//! implementation of exactly the properties Starfish consumes:
//!
//! * **Membership & views** — a coordinator-driven membership protocol
//!   installs a sequence of [`View`]s; every surviving member installs the
//!   same sequence of views for the group.
//! * **Totally ordered multicast** — [`Stack::cast`] routes messages
//!   through the view coordinator, which acts as a sequencer; all members
//!   deliver casts in the same order.
//! * **View synchrony** — a flush protocol runs before each view change:
//!   members exchange the set of messages delivered in the closing view, and
//!   the coordinator backfills stragglers, so all members that install the
//!   next view have delivered the same set of messages in the previous one.
//! * **Failure detection** — endpoints subscribe to fabric events (crash
//!   injection acts as a perfect failure detector, the role Ensemble's
//!   heartbeat stack plays on a real network) and additionally suspect
//!   members on send failures.
//!
//! The implementation is intentionally a *primary-component, sequencer-based*
//! design: the simplest of the classical virtual-synchrony architectures and
//! sufficient for the daemon workloads in the paper (configuration commands,
//! application coordination, C/R control traffic).
//!
//! ## Shape
//!
//! One machine and a shell (DESIGN.md §5e): [`group::Group`] is one member's
//! whole protocol as a pure `event → outputs` state machine over the
//! building blocks of [`core`] — linted sans-IO, unit-tested without fabric,
//! clock or sleep, model-checked as deployed by the `verify` crate — and
//! [`Stack`] does its I/O, thread-free: a daemon's node loop owns one and
//! parks in its `wait`; [`Endpoint`] is a `Stack` on a thread of its own.
//!
//! ## Delivery guarantees, precisely
//!
//! * Casts are delivered in a single total order per view (gap-free sequence
//!   numbers, restarting at 1 in each view).
//! * If any member that survives into the next view delivered cast `m` in
//!   view `v`, every member that survives into the next view delivers `m` in
//!   `v` (before installing the next view).
//! * A cast issued while a view change is in progress is sequenced in the
//!   next view: held by the coordinator, or kept by the member while it
//!   flushes (or cannot reach a coordinator) and re-sent after the new view
//!   installs. When the view change moves the coordinator role without a
//!   crash — a joiner with a smaller id, or the coordinator leaving — the
//!   old coordinator forwards what it held to the new one, which parks
//!   requests that beat its first view: absent a crash, no cast is lost.
//! * Point-to-point sends ([`Stack::send_to`]) are FIFO per sender and
//!   reliable while both endpoints stay up.

pub mod core;
pub mod endpoint;
pub mod group;
pub mod msg;
pub mod view;

pub use endpoint::{Endpoint, EndpointConfig, GcEvent, HeartbeatAges, Stack, ENSEMBLE_PORT};
pub use group::{HeartbeatCfg, HeartbeatChaos};
pub use msg::GcMsg;
pub use view::View;
