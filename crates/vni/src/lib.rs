//! # starfish-vni — the Virtual Network Interface
//!
//! The paper's VNI is the thin layer that hides the concrete network
//! (Myrinet via BIP, plain TCP/IP, later ServerNet) from the rest of the
//! system. Porting Starfish to a new network "only requires writing a thin
//! layer of code" inside the VNI (paper §1).
//!
//! In this reproduction the VNI is also where the physical cluster is
//! *simulated*: an in-memory switched [`fabric::Fabric`] connects node-local
//! [`fabric::Port`]s, and a pluggable [`models::NetworkModel`] charges
//! deterministic virtual time per message (one-way hardware latency +
//! OS-stack traversal cost + size/bandwidth), calibrated to the paper's
//! measurements (86 µs BIP / 552 µs TCP round trip at 1 byte — Figure 5).
//!
//! Per-layer software costs ([`models::LayerCosts`]) reproduce Figure 6: the
//! time a message spends in each layer of the stack, independent of message
//! size because payloads are reference-counted [`bytes::Bytes`] and never
//! copied (paper §5: "messages are never copied in our code").
//!
//! The paper's **polling thread** (§2.2.1) is a cost model here, not an OS
//! thread: a rank reads its own port, and `starfish-mpi` charges a polled
//! receive [`models::LayerCosts::poll`] where the no-polling-thread ablation
//! pays a (virtual) kernel crossing per port read (see [`polling`]).

// The panic surface: each surviving site carries an `#[expect]` with its
// reason (VERIFICATION.md §2).
#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable, clippy::todo)]
#![deny(clippy::unimplemented, clippy::allow_attributes)]
#![deny(clippy::allow_attributes_without_reason)]

pub(crate) mod fabric;
pub mod inbox;
pub(crate) mod models;
pub(crate) mod packet;
pub(crate) mod polling;

pub use fabric::{Fabric, FabricEvent, FaultStats, LinkFault, Port};
pub use inbox::{Inbox, Pop, PopBatch};
pub use models::{
    BipMyrinet, CoordCosts, Ideal, LayerCosts, NetworkModel, ServerNetVia, TcpEthernet, RELAY_COST,
};
pub use packet::{Addr, Packet, PacketKind, PortId};
pub use polling::{Kick, KickSender};
