//! Network and software-layer cost models.
//!
//! These models are the single source of truth for every timing constant in
//! the reproduction (DESIGN.md §6). They are calibrated so that the paper's
//! two measured anchor points come out exactly:
//!
//! * Figure 5: round-trip of a 1-byte message = **86 µs** on BIP/Myrinet and
//!   **552 µs** on TCP/IP over Fast Ethernet;
//! * Figure 6: per-layer overheads are constant in message size.
//!
//! One-way time of a `b`-byte message:
//!
//! ```text
//! t = software layers (LayerCosts, 37 µs total)
//!   + hw_latency + os_stack            (NetworkModel)
//!   + b / bandwidth                    (NetworkModel)
//! ```
//!
//! BIP/Myrinet: 37 + 6 + 0 = 43 µs ⇒ RTT 86 µs. TCP/IP: 37 + 6 + 233 =
//! 276 µs ⇒ RTT 552 µs. The OS-stack term models the kernel/user crossings
//! and IP processing that the user-level BIP interface avoids (paper §1).

use starfish_util::VirtualTime;

/// Which concrete interconnect a model represents (reporting only).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    BipMyrinet,
    TcpEthernet,
    ServerNet,
    Ideal,
}

/// A pluggable interconnect model: the "thin layer" one writes to port the
/// VNI to a new network (paper §1, §6-related-work on ServerNet).
pub trait NetworkModel: Send + Sync + 'static {
    /// Which network this is (for reports).
    fn kind(&self) -> NetKind;

    /// Human-readable name used in figure output.
    fn name(&self) -> &'static str;

    /// One-way hardware (NIC + switch + wire) latency, size-independent.
    fn hw_latency(&self) -> VirtualTime;

    /// Per-traversal operating-system stack cost. Zero for user-level
    /// interfaces (BIP), large for in-kernel TCP/IP.
    fn os_stack(&self) -> VirtualTime;

    /// Sustained bandwidth in bytes/second.
    fn bandwidth(&self) -> f64;

    /// Total one-way wire time for a message of `bytes` (excludes the
    /// software layer costs, which are charged by [`LayerCosts`]).
    fn one_way(&self, bytes: usize) -> VirtualTime {
        self.hw_latency() + self.os_stack() + VirtualTime::transfer(bytes as u64, self.bandwidth())
    }
}

/// Myrinet accessed through the BIP user-level interface \[6\]: tiny latency,
/// no kernel involvement, ~125 MB/s sustained (LANai-4 era).
#[derive(Debug, Clone, Copy, Default)]
pub struct BipMyrinet;

impl NetworkModel for BipMyrinet {
    fn kind(&self) -> NetKind {
        NetKind::BipMyrinet
    }
    fn name(&self) -> &'static str {
        "BIP/Myrinet"
    }
    fn hw_latency(&self) -> VirtualTime {
        VirtualTime::from_micros(6)
    }
    fn os_stack(&self) -> VirtualTime {
        VirtualTime::ZERO
    }
    fn bandwidth(&self) -> f64 {
        125.0e6
    }
}

/// Plain TCP/IP over 100 Mb/s Fast Ethernet: every message crosses the
/// kernel twice and the IP stack once per direction.
#[derive(Debug, Clone, Copy, Default)]
pub struct TcpEthernet;

impl NetworkModel for TcpEthernet {
    fn kind(&self) -> NetKind {
        NetKind::TcpEthernet
    }
    fn name(&self) -> &'static str {
        "TCP/IP"
    }
    fn hw_latency(&self) -> VirtualTime {
        VirtualTime::from_micros(6)
    }
    fn os_stack(&self) -> VirtualTime {
        VirtualTime::from_micros(233)
    }
    fn bandwidth(&self) -> f64 {
        8.8e6
    }
}

/// Tandem ServerNet (the porting target the paper names as planned work).
/// Exists to demonstrate that adding an interconnect is exactly this much
/// code: a fourth impl of the thin trait. Constants follow published
/// ServerNet-I numbers (≈10 µs one-way, ~40 MB/s per link).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerNetVia;

impl NetworkModel for ServerNetVia {
    fn kind(&self) -> NetKind {
        NetKind::ServerNet
    }
    fn name(&self) -> &'static str {
        "ServerNet/VIA"
    }
    fn hw_latency(&self) -> VirtualTime {
        VirtualTime::from_micros(10)
    }
    fn os_stack(&self) -> VirtualTime {
        VirtualTime::ZERO
    }
    fn bandwidth(&self) -> f64 {
        40.0e6
    }
}

/// A zero-cost wire, used by unit tests that assert pure protocol logic and
/// by benchmarks measuring this implementation's own wall-clock overhead.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ideal;

impl NetworkModel for Ideal {
    fn kind(&self) -> NetKind {
        NetKind::Ideal
    }
    fn name(&self) -> &'static str {
        "ideal"
    }
    fn hw_latency(&self) -> VirtualTime {
        VirtualTime::ZERO
    }
    fn os_stack(&self) -> VirtualTime {
        VirtualTime::ZERO
    }
    fn bandwidth(&self) -> f64 {
        0.0 // VirtualTime::transfer treats 0 as "free"
    }
}

/// The software layers a message traverses (Figure 6). Each cost is constant
/// in message size: payloads are never copied between layers.
///
/// Send side: application → MPI module → VNI → wire.
/// Receive side: wire → polling thread → VNI → MPI module → application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerCosts {
    /// Application posts the send on the fast data path.
    pub app_to_mpi: VirtualTime,
    /// MPI module: envelope construction, eager-protocol bookkeeping.
    pub mpi_send: VirtualTime,
    /// VNI send: transport framing, doorbell.
    pub vni_send: VirtualTime,
    /// Polling thread picks the message off the port.
    pub poll: VirtualTime,
    /// VNI receive: deframing, enqueue on the received-messages queue.
    pub vni_recv: VirtualTime,
    /// MPI module: matching against posted receives / unexpected queue.
    pub mpi_recv: VirtualTime,
    /// Handoff to the application on the fast data path.
    pub mpi_to_app: VirtualTime,
}

impl LayerCosts {
    /// Calibrated defaults (non-optimized bytecode prototype, 300 MHz P-II).
    /// Sum = 37 µs, so BIP one-way = 37 + 6 = 43 µs (Figure 5 anchor).
    pub fn prototype() -> Self {
        LayerCosts {
            app_to_mpi: VirtualTime::from_micros(2),
            mpi_send: VirtualTime::from_micros(9),
            vni_send: VirtualTime::from_micros(5),
            poll: VirtualTime::from_micros(4),
            vni_recv: VirtualTime::from_micros(5),
            mpi_recv: VirtualTime::from_micros(10),
            mpi_to_app: VirtualTime::from_micros(2),
        }
    }

    /// A free stack, for pure-logic tests.
    pub fn zero() -> Self {
        LayerCosts {
            app_to_mpi: VirtualTime::ZERO,
            mpi_send: VirtualTime::ZERO,
            vni_send: VirtualTime::ZERO,
            poll: VirtualTime::ZERO,
            vni_recv: VirtualTime::ZERO,
            mpi_recv: VirtualTime::ZERO,
            mpi_to_app: VirtualTime::ZERO,
        }
    }

    /// Total send-side software cost (charged to the sender's clock before
    /// the packet departs).
    pub fn send_total(&self) -> VirtualTime {
        self.app_to_mpi + self.mpi_send + self.vni_send
    }

    /// Total receive-side software cost (charged to the receiver's clock
    /// after arrival).
    pub fn recv_total(&self) -> VirtualTime {
        self.poll + self.vni_recv + self.mpi_recv + self.mpi_to_app
    }

    /// All layers, named, for the Figure 6 table.
    pub fn breakdown(&self) -> Vec<(&'static str, &'static str, VirtualTime)> {
        vec![
            ("send", "application -> MPI (fast path)", self.app_to_mpi),
            ("send", "MPI module", self.mpi_send),
            ("send", "VNI", self.vni_send),
            ("recv", "polling thread", self.poll),
            ("recv", "VNI", self.vni_recv),
            ("recv", "MPI module (matching)", self.mpi_recv),
            ("recv", "MPI -> application (fast path)", self.mpi_to_app),
        ]
    }
}

/// What a daemon adds to a C/R or coordination message it relays to a
/// local rank: its VNI receive and send of the message
/// ([`LayerCosts::prototype`]'s `vni_recv` + `vni_send`). A relayed message
/// is stamped with its origin stamp, plus one network hop when it crossed
/// daemons, plus this; never with the relaying daemon's own clock, which
/// holds whatever else it relayed first (DESIGN.md §6).
pub const RELAY_COST: VirtualTime = VirtualTime::from_micros(10);

/// What a stop-and-sync round's coordination costs at one checkpoint level,
/// by the event of the deployed round that pays it (DESIGN.md §6). The
/// values are fitted to the paper's Figures 3 and 4, whose rounds grow by
/// 27.8 ms at 2 nodes and 45.2 ms at 4 (native), 12.8 ms and 44.3 ms (VM).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoordCosts {
    /// A member's `Saved` relayed from its daemon to the coordinator's,
    /// charged on that relay's stamp: the members' `Saved`s cross side by
    /// side, so a round pays it once.
    pub saved_hop: VirtualTime,
    /// The coordinator takes in one member's `Saved` (at the VM level it
    /// checks the image's portable header), charged at the commit, one
    /// `Saved` after another.
    pub saved: VirtualTime,
}

impl CoordCosts {
    /// Native level: 19.1 + 8.7 = 27.8 ms at 2 nodes, 19.1 + 3 × 8.7 =
    /// 45.2 ms at 4.
    pub const NATIVE: CoordCosts = CoordCosts {
        saved_hop: VirtualTime::from_micros(19_100),
        saved: VirtualTime::from_micros(8_700),
    };
    /// VM level: 13.9 ms per member's header, 41.7 ms at 4 nodes.
    pub const VM: CoordCosts = CoordCosts {
        saved_hop: VirtualTime::ZERO,
        saved: VirtualTime::from_micros(13_900),
    };
}

impl Default for LayerCosts {
    fn default() -> Self {
        LayerCosts::prototype()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The two Figure 5 anchor points must come out exactly.
    #[test]
    fn figure5_anchor_points() {
        let layers = LayerCosts::prototype();
        let sw = layers.send_total() + layers.recv_total();
        assert_eq!(sw, VirtualTime::from_micros(37));

        let bip_one_way = sw + BipMyrinet.one_way(1);
        // 1 byte at 125 MB/s = 8 ns; RTT = 86.000016 us ~ 86 us.
        let rtt = (bip_one_way * 2).as_micros_f64();
        assert!((rtt - 86.0).abs() < 0.5, "BIP RTT {rtt} != 86us");

        let tcp_one_way = sw + TcpEthernet.one_way(1);
        let rtt = (tcp_one_way * 2).as_micros_f64();
        assert!((rtt - 552.0).abs() < 0.5, "TCP RTT {rtt} != 552us");
    }

    #[test]
    fn a_relay_costs_a_daemons_vni_pass() {
        let layers = LayerCosts::prototype();
        assert_eq!(RELAY_COST, layers.vni_recv + layers.vni_send);
    }

    #[test]
    fn one_way_grows_linearly_with_size() {
        let m = BipMyrinet;
        let t0 = m.one_way(0).as_nanos() as f64;
        let t1 = m.one_way(100_000).as_nanos() as f64;
        let t2 = m.one_way(200_000).as_nanos() as f64;
        // Equal increments for equal size steps.
        assert!(((t2 - t1) - (t1 - t0)).abs() < 2.0);
        // 100 KB at 125 MB/s = 800 us.
        assert!(((t1 - t0) / 1000.0 - 800.0).abs() < 0.01);
    }

    #[test]
    fn tcp_is_much_slower_than_bip() {
        for sz in [1usize, 1024, 65536, 1 << 20] {
            assert!(TcpEthernet.one_way(sz) > BipMyrinet.one_way(sz));
        }
    }

    #[test]
    fn ideal_is_free() {
        assert_eq!(Ideal.one_way(1 << 30), VirtualTime::ZERO);
    }

    #[test]
    fn breakdown_covers_all_layers() {
        let l = LayerCosts::prototype();
        let b = l.breakdown();
        assert_eq!(b.len(), 7);
        let sum: VirtualTime = b.iter().map(|(_, _, t)| *t).sum();
        assert_eq!(sum, l.send_total() + l.recv_total());
    }

    #[test]
    fn servernet_sits_between_bip_and_tcp() {
        let s = ServerNetVia.one_way(1);
        assert!(s > BipMyrinet.one_way(1));
        assert!(s < TcpEthernet.one_way(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// One-way time is monotone and exactly linear in size for every
        /// model (the paper's "grows linearly with the size" observation).
        #[test]
        fn one_way_linear(a in 0usize..1_000_000, b in 0usize..1_000_000) {
            for m in [&BipMyrinet as &dyn NetworkModel, &TcpEthernet, &ServerNetVia] {
                let t_a = m.one_way(a).as_nanos() as i128;
                let t_b = m.one_way(b).as_nanos() as i128;
                let t_ab = m.one_way(a + b).as_nanos() as i128;
                let base = m.one_way(0).as_nanos() as i128;
                // t(a) + t(b) == t(a+b) + base (within rounding).
                prop_assert!(((t_a + t_b) - (t_ab + base)).abs() <= 2);
                if a <= b {
                    prop_assert!(t_a <= t_b);
                }
            }
        }

        /// The BIP fast path is never slower than TCP at any size.
        #[test]
        fn bip_dominates_tcp(size in 0usize..4_000_000) {
            prop_assert!(BipMyrinet.one_way(size) <= TcpEthernet.one_way(size));
        }
    }
}
