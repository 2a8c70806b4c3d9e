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

pub mod fabric;
pub mod inbox;
pub mod models;
pub mod packet;
pub mod polling;

pub use fabric::{Fabric, FabricEvent, FaultStats, LinkFault, NodeStatus, Port};
pub use inbox::{Inbox, Pop, PopBatch};
pub use models::{BipMyrinet, Ideal, LayerCosts, NetKind, NetworkModel, ServerNetVia, TcpEthernet};
pub use packet::{Addr, Packet, PacketKind, PortId, DAEMON_PORT};
pub use polling::{Kick, KickSender};
