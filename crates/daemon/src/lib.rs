//! # starfish-daemon — the per-node Starfish daemon
//!
//! "Each Starfish node runs a Starfish daemon ... these daemons are used to
//! interact with clients, spawn MPI programs ..., track and recover from
//! failures, and to maintain the configuration of the system" (paper §1).
//!
//! The daemon is built from the paper's four modules (figure 1):
//!
//! * **Ensemble** — the group-communication stack
//!   ([`starfish_ensemble::Stack`]), owned by the daemon's node loop, which
//!   parks on its port;
//! * **management module** ([`config`]) — the replicated cluster
//!   configuration: a deterministic state machine driven exclusively by
//!   totally ordered casts, so every daemon holds identical state
//!   (§3.1.1: "the use of ensemble's reliable and totally ordered delivery
//!   mechanism is instrumental here, in maintaining coherent state between
//!   all cluster daemons");
//! * **lightweight membership module** ([`lwgroups`]) — deduces
//!   per-application lightweight views from the configuration and the main
//!   view;
//! * **lightweight endpoint modules** — one per local application process:
//!   the pair of queues ([`host::DownLink`] down) carrying configuration,
//!   lightweight-membership and relayed coordination / C-R messages (paper
//!   §2.3, Table 1).
//!
//! Every decision a daemon takes is one pure machine, [`node::Node`]; the
//! node loop in [`daemon`] is its I/O shell (DESIGN.md §5g).
//!
//! The daemon is deliberately **application-agnostic**: starting an actual
//! MPI process is delegated to a [`host::NodeHost`] implementation supplied
//! by the `starfish` crate. Because every daemon derives its actions
//! (spawn/restart/rollback decisions, placement, epochs) deterministically
//! from the same replicated state and view sequence, no additional agreement
//! protocol is needed anywhere in the failure path.
//!
//! [`mgmt`] implements the ASCII management/user protocol (§3.1.1): login,
//! node administration, parameter control, and job submission — the exact
//! textual protocol the paper's Java GUI speaks underneath.

// The panic surface: each surviving site carries an `#[expect]` with its
// reason (VERIFICATION.md §2).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo)]
#![deny(clippy::unimplemented, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod config;
pub(crate) mod daemon;
pub(crate) mod forensics;
pub(crate) mod host;
pub mod lwgroups;
pub(crate) mod mgmt;
pub mod msg;
pub mod node;
pub mod stats;

pub use config::{AppEntry, AppSpec, AppStatus, CkptProto, ClusterConfig, FtPolicy, LevelKind};
pub use daemon::{Daemon, DaemonConfig};
pub use host::{DownLink, NodeHost, ProcSpec};
pub use mgmt::MgmtSession;
pub use msg::{CfgCmd, ProcDown, ProcUp, RelayKind};
pub use stats::StatsHub;
