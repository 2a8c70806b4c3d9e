//! # starfish — a fault-tolerant, dynamic MPI runtime for clusters of
//! workstations
//!
//! A production-quality Rust reproduction of *"Starfish: Fault-Tolerant
//! Dynamic MPI Programs on Clusters of Workstations"* (Agbaria & Friedman,
//! HPDC 1999). See the repository's `DESIGN.md` for the complete system
//! inventory and `EXPERIMENTS.md` for the reproduced evaluation.
//!
//! ## Quick start
//!
//! ```
//! use starfish::{Cluster, CkptValue, SubmitOpts};
//!
//! // A 2-node cluster on the simulated BIP/Myrinet interconnect.
//! let cluster = Cluster::builder().nodes(2).network_bip().build().unwrap();
//!
//! // Register an MPI program: rank 0 pings, rank 1 pongs.
//! cluster.register_app("ping", |ctx| {
//!     if ctx.rank().0 == 0 {
//!         ctx.send(starfish::Rank(1), 7, b"ping")?;
//!         let m = ctx.recv(Some(starfish::Rank(1)), Some(8))?;
//!         ctx.publish(CkptValue::Str(
//!             String::from_utf8_lossy(&m.data).into_owned(),
//!         ));
//!     } else {
//!         let m = ctx.recv(Some(starfish::Rank(0)), Some(7))?;
//!         assert_eq!(&m.data[..], b"ping");
//!         ctx.send(starfish::Rank(0), 8, b"pong")?;
//!     }
//!     Ok(())
//! });
//!
//! let app = cluster.submit("ping", 2, SubmitOpts::default()).unwrap();
//! cluster.wait_app_done(app, std::time::Duration::from_secs(30)).unwrap();
//! let out = cluster.outputs(app, starfish::Rank(0));
//! assert_eq!(out[0], CkptValue::Str("pong".into()));
//! ```
//!
//! ## Architecture (paper figure 1)
//!
//! * Each node of the simulated cluster runs a **Starfish daemon**
//!   ([`starfish_daemon`]); all daemons form a process group under our
//!   Ensemble-style group-communication system ([`starfish_ensemble`]).
//! * Each application process runs the five-module runtime of the paper:
//!   group handler, application part (your closure), checkpoint/restart
//!   module, MPI module and the virtual network interface, connected by an
//!   object bus ([`bus`]) — with a separate **fast data path** between the
//!   application and MPI for data messages.
//! * Fault tolerance: coordinated (stop-and-sync, Chandy–Lamport) and
//!   uncoordinated checkpointing with automatic restart from the recovery
//!   line, or view-change notifications for trivially parallel programs
//!   ([`SubmitOpts`]).
//! * Heterogeneity: per-node machine types (Table 2) with VM-level
//!   checkpoint conversion on restore.

pub mod bus;
pub(crate) mod cluster;
pub(crate) mod ctx;
pub(crate) mod host;
pub(crate) mod runtime;
pub mod state;
mod transport;

pub use cluster::{Cluster, SubmitOpts};
pub use ctx::Ctx;
pub use host::RuntimeKnobs;
pub use state::Checkpointable;

// Re-exports for downstream convenience.
pub use starfish_checkpoint::{Arch, CkptValue, DiskModel, Endianness, MACHINES};
pub use starfish_daemon::{AppStatus, CkptProto, FtPolicy, LevelKind, MgmtSession};
pub use starfish_mpi::{RecvMode, ReduceOp};
pub use starfish_util::{AppId, Epoch, Error, NodeId, Rank, Result, VirtualTime};
pub use starfish_vni::{BipMyrinet, Ideal, NetworkModel, ServerNetVia, TcpEthernet};

#[cfg(test)]
mod tests;
#[cfg(test)]
mod wait_tests;
