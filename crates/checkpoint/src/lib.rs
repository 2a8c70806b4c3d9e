//! # starfish-checkpoint — checkpoint/restart for Starfish
//!
//! Implements both halves of the paper's C/R story:
//!
//! * **Local checkpointing** at two levels (paper §3.2.2, §4):
//!   * *native* (homogeneous): the whole process image including the
//!     virtual-machine segment; restorable only on an identical
//!     architecture ([`image::CkptLevel::Native`]);
//!   * *virtual-machine level* (heterogeneous): a typed value tree
//!     ([`value::CkptValue`]) saved in the **saving machine's native
//!     representation** with a concise representation header, converted on
//!     restore ([`portable`]) — the design of Agbaria & Friedman's
//!     heterogeneous checkpointing TR \[2\]. The six machine types of
//!     Table 2 are modelled in [`arch`].
//! * **Distributed checkpoint protocols** (paper §1, §3.2.2): pure,
//!   message-driven protocol engines in [`proto`] — coordinated
//!   *stop-and-sync* \[14\], *Chandy–Lamport* distributed snapshots \[10\],
//!   and *independent (uncoordinated)* checkpointing with recovery-line
//!   computation over a rollback-dependency graph ([`recovery`]) \[32,41\].
//!   The engines emit effects; the runtime in `starfish` maps effects onto
//!   real sends, queue flushes and disk writes. This is what lets Starfish
//!   "run multiple C/R protocols side by side" and compare them.
//! * **Storage and timing** : [`store::CkptStore`] is the one checkpoint
//!   store. It models the cluster's stable checkpoint storage, with
//!   [`disk::DiskModel`] charging virtual time calibrated to the paper's
//!   Figures 3 and 4 anchor points, and keeps each app's [`backend`]
//!   policy: `disk` (the above) or `replica`, where an image also carries
//!   the k-way fragment placement over peer memory of [`replica`], with an
//!   XOR-parity fallback (DESIGN.md §6a).
//! * **Optimizations**: [`incremental`] implements libckpt-style
//!   incremental checkpoints (only chunks dirtied since the previous image
//!   are written), quantified by the bench report's `ablation_incremental`
//!   section.

// The panic surface: each surviving site carries an `#[expect]` with its
// reason (VERIFICATION.md §2).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo)]
#![deny(clippy::unimplemented, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

pub mod arch;
pub mod backend;
pub mod disk;
pub mod image;
pub mod incremental;
pub mod portable;
pub mod proto;
pub mod recovery;
pub mod replica;
pub mod store;
pub(crate) mod value;

pub use arch::{Arch, Endianness, MACHINES};
pub use backend::CkptBackend;
pub use disk::DiskModel;
pub use image::{ChannelMsg, CkptImage, CkptLevel};
pub use replica::ReplicaNet;
pub use store::CkptStore;
pub use value::CkptValue;
