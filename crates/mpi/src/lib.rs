//! # starfish-mpi — the MPI module of Starfish
//!
//! Implements the MPI subset the paper's runtime provides to application
//! processes (§2.2): blocking and non-blocking point-to-point operations
//! with an eager protocol, message matching with `ANY_SOURCE`/`ANY_TAG`
//! wildcards, the posted/unexpected-queue design, and the standard
//! collectives, all running over the VNI's fast data path.
//!
//! Structure:
//! * [`wire`] — the data-message envelope (source rank, context, tag,
//!   piggybacked checkpoint interval, restart epoch);
//! * [`directory`] — the rank → node directory maintained by the daemons
//!   (updated when processes spawn, migrate or restart);
//! * [`comm`] — communicators ([`comm::Comm`]): rank translation, split and
//!   dup with deterministic context derivation;
//! * [`endpoint`] — [`endpoint::MpiEndpoint`], one per application process:
//!   send/recv/isend/irecv/wait/probe, channel-state capture for C/R, and
//!   the C/R data-path marks (flush marks, Chandy–Lamport markers). It is
//!   the I/O shell around four pure protocol machines, which name no
//!   fabric, clock, lock or thread (`starfish-lint` checks) and which the
//!   `verify` crate's model checker drives directly: [`reliability`]
//!   (per-flow sequencing and repair), [`rendezvous`] (parked transfers,
//!   early window, reassembly, CTS pacing), [`credit`] (eager budget, the
//!   fall-back-to-rendezvous verdict) and [`matching`] (the unexpected
//!   queue with its placeholders, channel snapshot/restore/recording);
//! * [`collectives`] — barrier, bcast, reduce, allreduce, gather, scatter,
//!   allgather, alltoall, scan over point-to-point.
//!
//! ## Starfish API notes (paper §1)
//!
//! Everything here is standard MPI shape; the Starfish extensions
//! (checkpoint requests, view-change upcalls, reconfiguration) live in the
//! `starfish` crate's process context as *additional* downcalls/upcalls, so
//! unmodified MPI programs run unchanged and Starfish-aware programs can be
//! mechanically stripped back to plain MPI.

// The panic surface: each surviving site carries an `#[expect]` with its
// reason (VERIFICATION.md §2).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo)]
#![deny(clippy::unimplemented, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod collectives;
pub(crate) mod comm;
pub mod credit;
pub(crate) mod directory;
pub(crate) mod endpoint;
pub mod matching;
pub mod reliability;
pub mod rendezvous;
pub(crate) mod replication;
pub mod wire;

pub use collectives::{
    AllgatherAlgo, AllreduceAlgo, BcastAlgo, CollAlgoSelector, ReduceOp, COLL_TAG_BASE,
};
pub use comm::Comm;
pub use credit::{DEFAULT_RNDV_THRESHOLD, EAGER_CREDIT_BYTES};
pub use directory::RankDirectory;
pub use endpoint::{MpiEndpoint, RecvMode, RecvdMsg, Request};
pub use rendezvous::CtsCadence;
pub use replication::PushSession;
pub use wire::{MsgHeader, WORLD_CONTEXT};
