//! The fabric's lock order, as the debug build's lock checker saw it
//! (`parking_lot::lockdep`): the membership lock (outer) before a link's
//! fault state before the destination inbox's queue. A send over a faulted
//! link takes all three; the reverse order anywhere in this process would
//! have aborted it.

#![cfg(debug_assertions)]

use bytes::Bytes;
use starfish_util::NodeId;
use starfish_vni::{Addr, Fabric, Ideal, LayerCosts, LinkFault, Packet, PacketKind, PortId};

#[test]
fn a_send_over_a_faulted_link_locks_membership_then_link_then_inbox() {
    let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
    f.add_node(NodeId(0));
    f.add_node(NodeId(1));
    let (a, b) = (
        Addr::new(NodeId(0), PortId(1)),
        Addr::new(NodeId(1), PortId(1)),
    );
    let _pa = f.bind(a).unwrap();
    let pb = f.bind(b).unwrap();
    f.set_link_fault(NodeId(0), NodeId(1), LinkFault::seeded(1));
    let pkt = Packet::new(a, b, PacketKind::Data, 0, Bytes::from_static(b"x"));
    f.send(pkt).unwrap();
    assert_eq!(&pb.recv().unwrap().payload[..], b"x");

    let seen: Vec<(&str, &str)> = (parking_lot::lockdep::edges().iter())
        .map(|(a, b)| (a.ty, b.ty))
        .collect();
    let (membership, link, inbox) = (
        "starfish_vni::fabric::Membership",
        "starfish_vni::fabric::LinkState",
        "starfish_vni::inbox::InboxState",
    );
    for edge in [(membership, link), (link, inbox), (membership, inbox)] {
        assert!(seen.contains(&edge), "no edge {edge:?} in {seen:?}");
    }
}
