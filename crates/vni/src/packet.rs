//! Packets and addressing on the virtual fabric.

use std::fmt;

use bytes::Bytes;
use starfish_util::{NodeId, VirtualTime};

/// A port number within one node. Port 0 is reserved for the node's Starfish
/// daemon; application processes bind higher ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortId(pub u32);

/// The daemon's well-known port on every node.
pub(crate) const DAEMON_PORT: PortId = PortId(0);

/// A fabric address: (node, port).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr {
    pub node: NodeId,
    pub port: PortId,
}

impl Addr {
    pub fn new(node: NodeId, port: PortId) -> Self {
        Addr { node, port }
    }

    /// The daemon address of `node`.
    pub fn daemon(node: NodeId) -> Self {
        Addr {
            node,
            port: DAEMON_PORT,
        }
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.port.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Coarse classification of a packet, used for routing decisions and the
/// Table 1 taxonomy audit. (Finer protocol typing lives in each packet's
/// payload.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// User MPI payload on the fast data path.
    Data,
    /// Daemon-to-daemon control traffic (carried by ensemble).
    Control,
    /// Daemon ↔ local application process traffic (configuration,
    /// lightweight membership, relayed coordination / C-R messages). This is
    /// the simulated local TCP connection of paper §2.3.
    Local,
}

/// One message in flight on the fabric.
///
/// The payload is a reference-counted [`Bytes`]: cloning a packet or handing
/// it between layers never copies the payload, matching the paper's zero-copy
/// claim (§5, Figure 6 discussion).
#[derive(Debug, Clone)]
pub struct Packet {
    pub src: Addr,
    pub(crate) dst: Addr,
    pub kind: PacketKind,
    /// Protocol-specific discriminator (MPI tag, control opcode, ...).
    pub tag: u64,
    /// Optional scatter/gather envelope segment, delivered logically *before*
    /// `payload`. Empty for ordinary single-segment packets. The rendezvous
    /// DATA path frames its header + chunk descriptor here so `payload` can
    /// stay a zero-copy slice of the sender's original buffer — the two
    /// segments are never concatenated on the send side.
    pub head: Bytes,
    pub payload: Bytes,
    /// Payload size used by the network model's bandwidth term. Defaults to
    /// the real payload length; protocol layers with their own envelopes set
    /// it to the application-payload size (envelope processing is already
    /// covered by the constant layer costs, matching how the paper reports
    /// application-level message sizes).
    pub model_len: usize,
    /// Sender's virtual clock when the message left the sender's software
    /// stack (all send-side layer costs already charged).
    pub depart_vt: VirtualTime,
    /// Virtual instant the message becomes available at the destination port
    /// (depart + one-way wire time). Stamped by the fabric.
    pub arrive_vt: VirtualTime,
}

impl Packet {
    pub fn new(src: Addr, dst: Addr, kind: PacketKind, tag: u64, payload: Bytes) -> Self {
        let model_len = payload.len();
        Packet {
            src,
            dst,
            kind,
            tag,
            head: Bytes::new(),
            payload,
            model_len,
            depart_vt: VirtualTime::ZERO,
            arrive_vt: VirtualTime::ZERO,
        }
    }

    /// Two-segment (gather) packet: `head` carries the protocol envelope,
    /// `payload` the body. Neither segment is copied.
    pub fn gather(
        src: Addr,
        dst: Addr,
        kind: PacketKind,
        tag: u64,
        head: Bytes,
        payload: Bytes,
    ) -> Self {
        let model_len = head.len() + payload.len();
        Packet {
            src,
            dst,
            kind,
            tag,
            head,
            payload,
            model_len,
            depart_vt: VirtualTime::ZERO,
            arrive_vt: VirtualTime::ZERO,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.head.len() + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_display() {
        let a = Addr::new(NodeId(2), PortId(5));
        assert_eq!(format!("{a}"), "n2:5");
        assert_eq!(Addr::daemon(NodeId(2)).port, DAEMON_PORT);
    }

    #[test]
    fn gather_packet_shares_both_segments() {
        let head = Bytes::from(vec![1u8; 48]);
        let payload = Bytes::from(vec![7u8; 4096]);
        let p = Packet::gather(
            Addr::daemon(NodeId(0)),
            Addr::daemon(NodeId(1)),
            PacketKind::Data,
            3,
            head.clone(),
            payload.clone(),
        );
        assert_eq!(p.head.as_ptr(), head.as_ptr());
        assert_eq!(p.payload.as_ptr(), payload.as_ptr());
        assert_eq!(p.len(), 48 + 4096);
        assert_eq!(p.model_len, 48 + 4096);
        let q = p.clone();
        assert_eq!(q.head.as_ptr(), head.as_ptr());
        assert_eq!(q.payload.as_ptr(), payload.as_ptr());
    }

    #[test]
    fn packet_clone_shares_payload() {
        let payload = Bytes::from(vec![7u8; 1024]);
        let p = Packet::new(
            Addr::daemon(NodeId(0)),
            Addr::daemon(NodeId(1)),
            PacketKind::Data,
            9,
            payload.clone(),
        );
        let q = p.clone();
        // Same backing storage: zero-copy.
        assert_eq!(q.payload.as_ptr(), payload.as_ptr());
        assert_eq!(q.len(), 1024);
    }
}
