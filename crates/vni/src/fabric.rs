//! The in-memory cluster fabric.
//!
//! The fabric plays the role of the physical LAN/SAN in the paper's testbed:
//! it connects every node's ports, stamps each packet's virtual arrival time
//! according to the configured [`NetworkModel`], and is the injection point
//! for the failures the rest of the system must tolerate (node crashes,
//! disables, removals, and network partitions).
//!
//! Semantics chosen to match a real cluster:
//!
//! * Packets already "on the wire" when a node crashes are still delivered if
//!   the *destination* stays up (the wire does not eat in-flight frames).
//!   The same rule holds for partitions: frames that left the source before
//!   the cut was installed still arrive — including frames a link fault is
//!   holding for reordering.
//! * Sends to a crashed/removed node fail with [`Error::Unreachable`];
//!   receives on a crashed node's port fail with [`Error::Closed`].
//! * A partition blocks traffic in both directions between the two sides but
//!   leaves both sides running.
//!
//! # Sharding
//!
//! The send/recv hot path takes no global exclusive lock. Fabric state is
//! split three ways:
//!
//! * the **membership table** (nodes, partitions, bound ports, installed
//!   link faults) sits under a [`RwLock`]; the hot path takes it *shared*,
//!   so concurrent senders validate routes without serializing. Exclusive
//!   access is only for membership changes — bind/unbind, crash, partition,
//!   fault install — which are rare and may be slow;
//! * each bound port owns an [`Inbox`] shard (its own mutex + condvar, see
//!   [`crate::inbox`]); senders to different endpoints touch different
//!   locks;
//! * per-link fault state (decision RNG streams, reorder buffers) lives in a
//!   mutex keyed by the *directed* node pair, locked only when a fault is
//!   actually installed on that link — an unfaulted route goes straight
//!   from the shared membership read to the destination inbox.
//!
//! Aggregate statistics (`packets/bytes accepted`, [`FaultStats`]) are
//! relaxed atomics: every packet's accounting lands before the fabric
//! quiesces, which is when the conservation oracle reads them.
//!
//! Lock order is strict — membership, then link, then inbox — so the fabric
//! cannot deadlock against itself.
//!
//! The fabric is also the chaos layer's packet-fault injection point: a
//! [`LinkFault`] installed on a directed node pair makes packets on that
//! link subject to seeded drop / duplicate / delay / reorder decisions (see
//! [`Fabric::set_link_fault`]). Fault decisions draw from one deterministic
//! RNG stream per `(src, dst, dst port)` so that traffic of one subsystem
//! (e.g. the ensemble control port) can never perturb the fault schedule
//! seen by another (e.g. an application's data port) — the property the
//! chaos harness's replay-a-seed guarantee rests on.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver};
use parking_lot::{Mutex, RwLock};

use starfish_telemetry::{metric, Registry};
use starfish_util::rng::DetRng;
use starfish_util::{Error, NodeId, Result, VirtualTime};

use crate::inbox::{Inbox, Pop, PopBatch};
use crate::models::{LayerCosts, NetworkModel};
use crate::packet::{Addr, Packet, PortId};
use crate::polling::{Kick, KickSender};

/// Latency of the node-local daemon ↔ application-process TCP connection
/// (paper §2.3). Loopback TCP on the era's hardware: tens of microseconds.
pub(crate) const LOCAL_LATENCY: VirtualTime = VirtualTime(30_000);

/// Lifecycle state of a cluster node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeStatus {
    /// Running normally.
    Up,
    /// Administratively disabled: no new work placed, traffic still flows
    /// (paper §3.1.1 "disable and (re)enable nodes").
    Disabled,
    /// Crashed: all ports closed, unreachable until re-added.
    Crashed,
    /// Administratively removed from the cluster.
    Removed,
}

impl NodeStatus {
    /// Can this node currently exchange packets?
    pub fn reachable(self) -> bool {
        matches!(self, NodeStatus::Up | NodeStatus::Disabled)
    }
}

/// Events the fabric reports to subscribers (the failure detectors of the
/// group-communication layer listen to these, alongside their own
/// heartbeats).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricEvent {
    NodeAdded(NodeId),
    NodeCrashed(NodeId),
    NodeRemoved(NodeId),
    NodeDisabled(NodeId),
    NodeEnabled(NodeId),
    Partitioned(NodeId, NodeId),
    Healed(NodeId, NodeId),
}

/// Per-link packet-fault specification (chaos layer). Probabilities are per
/// packet and evaluated in a fixed order (drop, duplicate, delay, reorder)
/// against a deterministic RNG derived from `seed`, so the same seed always
/// produces the same fault schedule for the same packet sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFault {
    /// Seed of the per-stream decision RNG.
    pub(crate) seed: u64,
    /// Probability of silently dropping a packet (the sender still sees
    /// `Ok`: a lossy wire gives no feedback).
    pub(crate) drop_p: f64,
    /// Probability of delivering a packet twice.
    pub(crate) dup_p: f64,
    /// Probability of adding `delay` to a packet's virtual arrival time.
    pub(crate) delay_p: f64,
    /// Extra virtual wire time applied to delayed packets.
    pub(crate) delay: VirtualTime,
    /// Probability of holding a packet so the next packet on the stream
    /// overtakes it (released when the next packet passes, the fault is
    /// cleared, or the link partitions — held frames are on the wire).
    pub(crate) reorder_p: f64,
    /// Deterministically drop exactly the k-th packet (0-based) of each
    /// stream, regardless of probabilities.
    pub drop_nth: Option<u64>,
    /// Deterministically duplicate exactly the k-th packet of each stream.
    pub(crate) dup_nth: Option<u64>,
}

impl LinkFault {
    /// A fault spec with the given seed and no faults enabled; chain the
    /// builder methods to switch individual faults on.
    pub fn seeded(seed: u64) -> Self {
        LinkFault {
            seed,
            drop_p: 0.0,
            dup_p: 0.0,
            delay_p: 0.0,
            delay: VirtualTime::ZERO,
            reorder_p: 0.0,
            drop_nth: None,
            dup_nth: None,
        }
    }

    pub fn drop(mut self, p: f64) -> Self {
        self.drop_p = p;
        self
    }

    pub fn duplicate(mut self, p: f64) -> Self {
        self.dup_p = p;
        self
    }

    pub fn delay(mut self, p: f64, by: VirtualTime) -> Self {
        self.delay_p = p;
        self.delay = by;
        self
    }

    pub fn reorder(mut self, p: f64) -> Self {
        self.reorder_p = p;
        self
    }

    pub fn drop_nth(mut self, k: u64) -> Self {
        self.drop_nth = Some(k);
        self
    }

    pub fn dup_nth(mut self, k: u64) -> Self {
        self.dup_nth = Some(k);
        self
    }
}

/// Conservation counters of the fault layer: every packet the fabric accepts
/// (plus every duplicate it mints) ends up delivered, dropped, or held in a
/// reorder buffer — the invariant the chaos conservation oracle checks.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Packets accepted by `send` (validation passed).
    pub accepted: u64,
    /// Packets placed into a destination port queue (originals, duplicates
    /// and released held frames alike).
    pub delivered: u64,
    /// Packets eaten: by a drop fault, or because the destination vanished
    /// while the frame was on the wire.
    pub dropped: u64,
    /// Extra copies minted by duplicate faults.
    pub duplicated: u64,
    /// Frames currently parked in reorder buffers (in flight).
    pub held: u64,
}

impl FaultStats {
    /// `accepted + duplicated == delivered + dropped + held`.
    pub fn conserved(&self) -> bool {
        self.accepted + self.duplicated == self.delivered + self.dropped + self.held
    }
}

/// The fault layer's conservation counters as relaxed atomics. Each
/// packet's accounting runs on one thread, so once the wire quiesces the
/// loaded sums are exact.
#[derive(Default)]
struct FaultCells {
    accepted: AtomicU64,
    delivered: AtomicU64,
    dropped: AtomicU64,
    duplicated: AtomicU64,
    held: AtomicU64,
}

impl FaultCells {
    fn snapshot(&self) -> FaultStats {
        FaultStats {
            accepted: self.accepted.load(Ordering::Relaxed),
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            held: self.held.load(Ordering::Relaxed),
        }
    }
}

/// One fault stream: the decision RNG and reorder buffer of a
/// `(src, dst, dst port)` triple.
struct StreamState {
    rng: DetRng,
    held: Vec<Packet>,
    /// Packets seen by this stream so far (drives `drop_nth`/`dup_nth`).
    count: u64,
}

/// Fault state of one *directed* link, locked only when a fault is
/// installed there (no entry → fast path).
struct LinkState {
    fault: LinkFault,
    /// Lazily created decision streams, one per destination port.
    streams: HashMap<PortId, StreamState>,
}

/// Everything that changes only on membership-shaped events. The hot path
/// reads it shared; bind/crash/partition/fault-install take it exclusive.
struct Membership {
    ports: HashMap<Addr, Arc<Inbox>>,
    nodes: HashMap<NodeId, NodeStatus>,
    /// Unordered node pairs with a cut link, stored as (min, max).
    partitions: HashSet<(NodeId, NodeId)>,
    watchers: Vec<KickSender<FabricEvent>>,
    /// Installed link faults, keyed by *directed* (src, dst) node pair.
    links: HashMap<(NodeId, NodeId), Mutex<LinkState>>,
    /// Telemetry registry fed per accepted packet (count, size, wire time).
    metrics: Option<Registry>,
}

struct Inner {
    model: Box<dyn NetworkModel>,
    layers: LayerCosts,
    membership: RwLock<Membership>,
    /// Running count of packets accepted by the fabric (statistics).
    packets_sent: AtomicU64,
    bytes_sent: AtomicU64,
    fault_stats: FaultCells,
}

/// Handle to the shared cluster interconnect. Cheap to clone.
#[derive(Clone)]
pub struct Fabric {
    inner: Arc<Inner>,
}

fn pair(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Stream-derivation tag for a `(src, dst, dst port)` triple. Injective for
/// the id ranges the runtime uses, so distinct streams of one fault never
/// share an RNG sequence.
fn stream_tag((src, dst, port): (NodeId, NodeId, PortId)) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV-1a over the three ids
    for part in [src.0 as u64, dst.0 as u64, port.0 as u64] {
        h = (h ^ part).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl Fabric {
    /// Create a fabric with the given interconnect model and software layer
    /// costs.
    pub fn new(model: Box<dyn NetworkModel>, layers: LayerCosts) -> Self {
        Fabric {
            inner: Arc::new(Inner {
                model,
                layers,
                membership: RwLock::new(Membership {
                    ports: HashMap::new(),
                    nodes: HashMap::new(),
                    partitions: HashSet::new(),
                    watchers: Vec::new(),
                    links: HashMap::new(),
                    metrics: None,
                }),
                packets_sent: AtomicU64::new(0),
                bytes_sent: AtomicU64::new(0),
                fault_stats: FaultCells::default(),
            }),
        }
    }

    /// The software layer costs in force.
    pub fn layers(&self) -> LayerCosts {
        self.inner.layers
    }

    /// The wire time of an empty message between two nodes: one hop of a
    /// message relayed between daemons.
    pub fn hop(&self) -> VirtualTime {
        self.inner.model.one_way(0)
    }

    /// Subscribe to fabric events (node lifecycle, partitions): each is
    /// queued, then `kick` wakes the subscriber (membership → inbox order).
    pub fn subscribe(&self, kick: Kick) -> Receiver<FabricEvent> {
        let (tx, rx) = channel::unbounded();
        let watcher = KickSender::new(tx, kick);
        self.inner.membership.write().watchers.push(watcher);
        rx
    }

    fn emit(m: &mut Membership, ev: FabricEvent) {
        m.watchers.retain(|w| w.send(ev).is_ok());
    }

    // ---- node lifecycle ----------------------------------------------------

    /// Add (or re-add after crash/removal) a node in `Up` state.
    pub fn add_node(&self, n: NodeId) {
        let mut m = self.inner.membership.write();
        m.nodes.insert(n, NodeStatus::Up);
        Self::emit(&mut m, FabricEvent::NodeAdded(n));
    }

    /// Close and drop every port of node `n`; held frames touching `n` are
    /// then released (frames to the dead node are eaten with its ports,
    /// frames it sent before dying still arrive). Caller holds exclusive
    /// membership.
    fn take_down(&self, m: &mut Membership, n: NodeId, status: NodeStatus) {
        m.nodes.insert(n, status);
        let dead: Vec<Arc<Inbox>> = {
            let mut dead = Vec::new();
            m.ports.retain(|a, inbox| {
                if a.node == n {
                    dead.push(Arc::clone(inbox));
                    false
                } else {
                    true
                }
            });
            dead
        };
        for inbox in dead {
            inbox.close();
        }
        self.release_held(m, |a, b| a == n || b == n);
    }

    /// Crash a node: all its ports close, it becomes unreachable.
    pub fn crash_node(&self, n: NodeId) {
        let mut m = self.inner.membership.write();
        if m.nodes.get(&n) == Some(&NodeStatus::Crashed) {
            return;
        }
        self.take_down(&mut m, n, NodeStatus::Crashed);
        Self::emit(&mut m, FabricEvent::NodeCrashed(n));
    }

    /// Crash a node *without* emitting a fabric event — models a hang or a
    /// failure the hardware does not report. Only heartbeat-based failure
    /// detection can notice this one.
    pub fn crash_node_silently(&self, n: NodeId) {
        let mut m = self.inner.membership.write();
        if m.nodes.get(&n) == Some(&NodeStatus::Crashed) {
            return;
        }
        self.take_down(&mut m, n, NodeStatus::Crashed);
    }

    /// Disable a node: it keeps running but should get no new work.
    pub fn disable_node(&self, n: NodeId) {
        let mut m = self.inner.membership.write();
        if m.nodes.get(&n) == Some(&NodeStatus::Up) {
            m.nodes.insert(n, NodeStatus::Disabled);
            Self::emit(&mut m, FabricEvent::NodeDisabled(n));
        }
    }

    /// Re-enable a disabled node.
    pub fn enable_node(&self, n: NodeId) {
        let mut m = self.inner.membership.write();
        if m.nodes.get(&n) == Some(&NodeStatus::Disabled) {
            m.nodes.insert(n, NodeStatus::Up);
            Self::emit(&mut m, FabricEvent::NodeEnabled(n));
        }
    }

    /// Cut the link between two nodes (both directions).
    pub fn partition(&self, a: NodeId, b: NodeId) {
        let mut m = self.inner.membership.write();
        if m.partitions.insert(pair(a, b)) {
            // Frames a reorder fault is holding on this link left their
            // source before the cut existed: the wire does not eat in-flight
            // frames, so they are delivered, not blocked (module docs).
            self.release_held(&m, |x, y| pair(x, y) == pair(a, b));
            Self::emit(&mut m, FabricEvent::Partitioned(a, b));
        }
    }

    /// Restore the link between two nodes.
    pub fn heal(&self, a: NodeId, b: NodeId) {
        let mut m = self.inner.membership.write();
        if m.partitions.remove(&pair(a, b)) {
            Self::emit(&mut m, FabricEvent::Healed(a, b));
        }
    }

    /// Current status of a node (None if never added).
    pub fn node_status(&self, n: NodeId) -> Option<NodeStatus> {
        self.inner.membership.read().nodes.get(&n).copied()
    }

    /// All nodes ever added, with their current status.
    pub fn nodes(&self) -> Vec<(NodeId, NodeStatus)> {
        let m = self.inner.membership.read();
        let mut v: Vec<_> = m.nodes.iter().map(|(n, st)| (*n, *st)).collect();
        v.sort_by_key(|(n, _)| *n);
        v
    }

    /// (packets, bytes) accepted so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.inner.packets_sent.load(Ordering::Relaxed),
            self.inner.bytes_sent.load(Ordering::Relaxed),
        )
    }

    /// Feed per-packet accounting (`vni.*` metrics) into `reg` from now on.
    pub fn attach_metrics(&self, reg: Registry) {
        self.inner.membership.write().metrics = Some(reg);
    }

    // ---- ports -------------------------------------------------------------

    /// Bind a port on a node. Fails if the node is not up-ish or the address
    /// is taken.
    pub fn bind(&self, addr: Addr) -> Result<Port> {
        let mut m = self.inner.membership.write();
        match m.nodes.get(&addr.node) {
            Some(st) if st.reachable() => {}
            Some(_) => return Err(Error::unreachable(format!("{} is down", addr.node))),
            None => return Err(Error::not_found(format!("{} not in cluster", addr.node))),
        }
        if m.ports.contains_key(&addr) {
            return Err(Error::invalid_arg(format!("{addr} already bound")));
        }
        let inbox = Inbox::new();
        m.ports.insert(addr, Arc::clone(&inbox));
        Ok(Port {
            addr,
            inbox,
            fabric: self.clone(),
        })
    }

    /// Release a dropped port: unbind only if `addr` still maps to this
    /// port's own inbox (a crash + rebind may have installed a successor,
    /// which a stale drop must not tear down).
    fn unbind_port(&self, addr: Addr, inbox: &Arc<Inbox>) {
        let mut m = self.inner.membership.write();
        if m.ports.get(&addr).is_some_and(|i| Arc::ptr_eq(i, inbox)) {
            m.ports.remove(&addr);
        }
        drop(m);
        inbox.close();
    }

    /// Inject a packet. The fabric stamps `arrive_vt = depart_vt + wire` and
    /// queues it at the destination port, subject to any [`LinkFault`]
    /// installed on the (src node → dst node) link.
    ///
    /// Hot path: shared membership read, then the destination inbox's own
    /// lock (plus the link's fault mutex when one is installed).
    pub fn send(&self, mut pkt: Packet) -> Result<()> {
        let m = self.inner.membership.read();
        let src_ok = m
            .nodes
            .get(&pkt.src.node)
            .map(|st| st.reachable())
            .unwrap_or(false);
        if !src_ok {
            return Err(Error::closed(format!("source {} is down", pkt.src.node)));
        }
        let dst_ok = m
            .nodes
            .get(&pkt.dst.node)
            .map(|st| st.reachable())
            .unwrap_or(false);
        if !dst_ok {
            return Err(Error::unreachable(format!("{} is down", pkt.dst.node)));
        }
        if m.partitions.contains(&pair(pkt.src.node, pkt.dst.node)) {
            return Err(Error::unreachable(format!(
                "{} <-> {} partitioned",
                pkt.src.node, pkt.dst.node
            )));
        }
        if !m.ports.contains_key(&pkt.dst) {
            return Err(Error::not_found(format!("no port bound at {}", pkt.dst)));
        }
        self.inner.packets_sent.fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_sent
            .fetch_add(pkt.len() as u64, Ordering::Relaxed);
        let wire = if pkt.src.node == pkt.dst.node {
            LOCAL_LATENCY
        } else {
            self.inner.model.one_way(pkt.model_len)
        };
        pkt.arrive_vt = pkt.depart_vt + wire;
        if let Some(reg) = &m.metrics {
            reg.inc(metric::VNI_PACKETS);
            reg.record(metric::VNI_PACKET_BYTES, pkt.len() as u64);
            reg.record_vt(metric::VNI_WIRE_NS, wire);
        }

        // Node-local loopback never crosses a link and is exempt from faults;
        // so is a link with no fault installed (no entry → no lock).
        let link = if pkt.src.node == pkt.dst.node {
            None
        } else {
            m.links.get(&(pkt.src.node, pkt.dst.node))
        };
        let Some(link) = link else {
            return self.deliver(&m, pkt, false);
        };

        let stats = &self.inner.fault_stats;
        stats.accepted.fetch_add(1, Ordering::Relaxed);
        let mut ls = link.lock();
        let f = ls.fault;
        let key = (pkt.src.node, pkt.dst.node, pkt.dst.port);
        let port = pkt.dst.port;
        let stream = ls.streams.entry(port).or_insert_with(|| StreamState {
            rng: DetRng::new(f.seed).derive(stream_tag(key)),
            held: Vec::new(),
            count: 0,
        });
        let k = stream.count;
        stream.count += 1;
        // Every decision is drawn for every packet, whatever the
        // outcome: a fixed draw count per packet is what makes a
        // stream's schedule a pure function of (seed, packet index).
        let (do_drop, do_dup, do_delay, do_reorder) = (
            stream.rng.chance(f.drop_p) || f.drop_nth == Some(k),
            stream.rng.chance(f.dup_p) || f.dup_nth == Some(k),
            stream.rng.chance(f.delay_p),
            stream.rng.chance(f.reorder_p),
        );
        if do_drop {
            stats.dropped.fetch_add(1, Ordering::Relaxed);
            if let Some(reg) = &m.metrics {
                reg.inc(metric::VNI_DROPPED);
            }
            // A lossy wire gives the sender no feedback.
            return Ok(());
        }
        if do_delay {
            pkt.arrive_vt += f.delay;
            if let Some(reg) = &m.metrics {
                reg.inc(metric::VNI_DELAYED);
            }
        }
        if do_reorder {
            stats.held.fetch_add(1, Ordering::Relaxed);
            if let Some(reg) = &m.metrics {
                reg.inc(metric::VNI_HELD);
            }
            stream.held.push(pkt);
            return Ok(());
        }
        // The packet passes the stream: deliver it, then everything it
        // overtook (delivering the held frames *after* a later send is the
        // reordering).
        let copy = do_dup.then(|| pkt.clone());
        let res = self.deliver(&m, pkt, true);
        if let Some(copy) = copy {
            stats.duplicated.fetch_add(1, Ordering::Relaxed);
            if let Some(reg) = &m.metrics {
                reg.inc(metric::VNI_DUPLICATED);
            }
            let _ = self.deliver(&m, copy, true);
        }
        #[expect(clippy::expect_used, reason = "the stream was inserted above")]
        let held = std::mem::take(&mut ls.streams.get_mut(&port).expect("stream above").held);
        for frame in held {
            stats.held.fetch_sub(1, Ordering::Relaxed);
            let _ = self.deliver(&m, frame, true);
        }
        res
    }

    /// Queue a packet at its destination inbox. The caller holds the
    /// membership table (shared or exclusive); `faulty` selects whether the
    /// fault layer's conservation counters account for this packet.
    fn deliver(&self, m: &Membership, pkt: Packet, faulty: bool) -> Result<()> {
        let dst = pkt.dst;
        let sent = match m.ports.get(&dst) {
            Some(inbox) => inbox.push(pkt),
            None => false,
        };
        if sent {
            if faulty {
                self.inner
                    .fault_stats
                    .delivered
                    .fetch_add(1, Ordering::Relaxed);
            }
            Ok(())
        } else {
            if faulty {
                self.inner
                    .fault_stats
                    .dropped
                    .fetch_add(1, Ordering::Relaxed);
                if let Some(reg) = &m.metrics {
                    reg.inc(metric::VNI_DROPPED);
                }
            }
            // NB: `Closed` from `send` always means the *source* is down; a
            // destination whose port raced away is reported `Unreachable`.
            Err(Error::unreachable("destination port closed".to_string()))
        }
    }

    /// Release every held frame of streams matching `filter(src, dst)`:
    /// frames whose destination port still exists are delivered, the rest
    /// are eaten with the port that vanished. Deterministic: streams are
    /// processed in (src, dst, port) order.
    fn release_held<F>(&self, m: &Membership, filter: F)
    where
        F: Fn(NodeId, NodeId) -> bool,
    {
        let mut link_keys: Vec<_> = m
            .links
            .keys()
            .filter(|(src, dst)| filter(*src, *dst))
            .copied()
            .collect();
        link_keys.sort_unstable();
        for lk in link_keys {
            #[expect(clippy::indexing_slicing, reason = "`lk` is a key of `m.links`")]
            let mut ls = m.links[&lk].lock();
            let mut ports: Vec<PortId> = ls.streams.keys().copied().collect();
            ports.sort_unstable();
            for port in ports {
                #[expect(clippy::expect_used, reason = "`port` is a key of `ls.streams`")]
                let held = std::mem::take(&mut ls.streams.get_mut(&port).expect("stream").held);
                for frame in held {
                    self.inner.fault_stats.held.fetch_sub(1, Ordering::Relaxed);
                    let _ = self.deliver(m, frame, true);
                }
            }
        }
    }

    // ---- link faults (chaos layer) -----------------------------------------

    /// Install (or replace) the fault spec on the *directed* link
    /// `src → dst`. Replacing a spec restarts the link's decision streams
    /// from the new seed; frames held by the old spec are released first.
    pub fn set_link_fault(&self, src: NodeId, dst: NodeId, fault: LinkFault) {
        let mut m = self.inner.membership.write();
        self.release_held(&m, |a, b| a == src && b == dst);
        m.links.insert(
            (src, dst),
            Mutex::new(LinkState {
                fault,
                streams: HashMap::new(),
            }),
        );
    }

    /// Remove the fault on `src → dst`, releasing any held frames.
    pub fn clear_link_fault(&self, src: NodeId, dst: NodeId) {
        let mut m = self.inner.membership.write();
        self.release_held(&m, |a, b| a == src && b == dst);
        m.links.remove(&(src, dst));
    }

    /// Remove every installed link fault, releasing all held frames.
    pub fn clear_all_link_faults(&self) {
        let mut m = self.inner.membership.write();
        self.release_held(&m, |_, _| true);
        m.links.clear();
    }

    /// Conservation counters of the fault layer.
    pub fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats.snapshot()
    }

    /// Packets queued anywhere inside the fabric: waiting in a bound port's
    /// inbox or parked in a reorder buffer. Zero means the wire is quiescent
    /// (the chaos driver's quiescence gate).
    pub fn queued_packets(&self) -> usize {
        let m = self.inner.membership.read();
        let queued: usize = m.ports.values().map(|i| i.len()).sum();
        let held: usize = m
            .links
            .values()
            .map(|l| {
                l.lock()
                    .streams
                    .values()
                    .map(|s| s.held.len())
                    .sum::<usize>()
            })
            .sum();
        queued + held
    }
}

/// A bound receive endpoint on the fabric: the owning handle of one
/// [`Inbox`] shard.
pub struct Port {
    addr: Addr,
    inbox: Arc<Inbox>,
    fabric: Fabric,
}

impl Port {
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// A handle that wakes this port's owner out of a waiting
    /// [`recv_batch`](Self::recv_batch).
    pub fn kicker(&self) -> Kick {
        Kick::inbox(Arc::clone(&self.inbox))
    }

    /// Blocking receive. Errors with [`Error::Closed`] if the port was
    /// unbound (e.g. the node crashed) and nothing remains queued.
    pub fn recv(&self) -> Result<Packet> {
        match self.inbox.pop_wait(None) {
            Pop::Packet(p) => Ok(p),
            _ => Err(Error::closed(format!("port {} closed", self.addr))),
        }
    }

    /// The one batched receive ([`Inbox::pop_batch`]): up to `max` queued
    /// packets land in `buf` in one inbox lock acquisition, by trading
    /// buffers when they all fit. `Ok` with `buf` still empty: nothing
    /// arrived (within `wait`; `None` only looks). While waiting,
    /// [`Error::Interrupted`] means the port was [kicked](Self::kicker)
    /// while empty and [`Error::Closed`] that it is closed and drained.
    pub fn recv_batch(
        &self,
        buf: &mut VecDeque<Packet>,
        max: usize,
        wait: Option<Duration>,
    ) -> Result<()> {
        match self.inbox.pop_batch(buf, max, wait) {
            PopBatch::Packets | PopBatch::Empty => Ok(()),
            PopBatch::Kicked => Err(Error::interrupted(format!("port {} kicked", self.addr))),
            PopBatch::Closed => Err(Error::closed(format!("port {} closed", self.addr))),
        }
    }

    /// Non-blocking receive; `Ok(None)` when no packet is waiting.
    #[cfg(test)]
    pub(crate) fn try_recv(&self) -> Result<Option<Packet>> {
        match self.inbox.try_pop() {
            Pop::Packet(p) => Ok(Some(p)),
            Pop::TimedOut => Ok(None),
            Pop::Closed => Err(Error::closed(format!("port {} closed", self.addr))),
        }
    }

    /// Drain everything currently queued.
    #[cfg(test)]
    pub(crate) fn drain(&self) -> Vec<Packet> {
        let mut out = Vec::new();
        while let Ok(Some(p)) = self.try_recv() {
            out.push(p);
        }
        out
    }
}

impl Drop for Port {
    fn drop(&mut self) {
        self.fabric.unbind_port(self.addr, &self.inbox);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::{BipMyrinet, Ideal};
    use crate::packet::{PacketKind, PortId};
    use bytes::Bytes;

    fn fabric() -> Fabric {
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        f.add_node(NodeId(0));
        f.add_node(NodeId(1));
        f
    }

    fn pkt(src: Addr, dst: Addr, n: usize) -> Packet {
        Packet::new(src, dst, PacketKind::Data, 0, Bytes::from(vec![0u8; n]))
    }

    #[test]
    fn bind_send_recv() {
        let f = fabric();
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        f.send(pkt(a, b, 16)).unwrap();
        let got = pb.recv().unwrap();
        assert_eq!(got.src, a);
        assert_eq!(got.len(), 16);
    }

    #[test]
    fn double_bind_rejected() {
        let f = fabric();
        let a = Addr::new(NodeId(0), PortId(1));
        let _p = f.bind(a).unwrap();
        assert!(f.bind(a).is_err());
    }

    #[test]
    fn unbind_on_drop() {
        let f = fabric();
        let a = Addr::new(NodeId(0), PortId(1));
        {
            let _p = f.bind(a).unwrap();
        }
        // Port dropped: rebinding succeeds.
        let _p2 = f.bind(a).unwrap();
    }

    #[test]
    fn stale_port_drop_does_not_unbind_successor() {
        let f = fabric();
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let _pa = f.bind(a).unwrap();
        let old = f.bind(b).unwrap();
        f.crash_node(NodeId(1));
        f.add_node(NodeId(1));
        let new = f.bind(b).unwrap();
        drop(old); // must not tear down `new`'s binding
        f.send(pkt(a, b, 1)).unwrap();
        assert!(new.recv().is_ok());
    }

    #[test]
    fn send_to_crashed_node_fails() {
        let f = fabric();
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let _pa = f.bind(a).unwrap();
        let _pb = f.bind(b).unwrap();
        f.crash_node(NodeId(1));
        assert!(matches!(f.send(pkt(a, b, 1)), Err(Error::Unreachable(_))));
    }

    #[test]
    fn crash_closes_ports_after_drain() {
        let f = fabric();
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        f.send(pkt(a, b, 1)).unwrap();
        f.crash_node(NodeId(1));
        // In-flight packet still delivered (it was already on the wire)...
        assert!(pb.recv().is_ok());
        // ...then the port reports closed.
        assert!(matches!(pb.recv(), Err(Error::Closed(_))));
    }

    #[test]
    fn partition_blocks_and_heal_restores() {
        let f = fabric();
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        f.partition(NodeId(0), NodeId(1));
        assert!(f.send(pkt(a, b, 1)).is_err());
        f.heal(NodeId(0), NodeId(1));
        f.send(pkt(a, b, 1)).unwrap();
        assert!(pb.recv().is_ok());
    }

    #[test]
    fn events_emitted_to_subscribers() {
        let f = fabric();
        let port = f.bind(Addr::new(NodeId(0), PortId(1))).unwrap();
        let rx = f.subscribe(port.kicker());
        f.crash_node(NodeId(1));
        f.add_node(NodeId(2));
        // Queued before the kick: a subscriber parked on its port wakes to
        // find them.
        let woken = port.recv_batch(&mut VecDeque::new(), 8, Some(Duration::from_secs(30)));
        assert!(matches!(woken, Err(Error::Interrupted(_))));
        assert_eq!(rx.try_recv().unwrap(), FabricEvent::NodeCrashed(NodeId(1)));
        assert_eq!(rx.try_recv().unwrap(), FabricEvent::NodeAdded(NodeId(2)));
    }

    #[test]
    fn arrival_time_stamped_from_model() {
        let f = Fabric::new(Box::new(BipMyrinet), LayerCosts::zero());
        f.add_node(NodeId(0));
        f.add_node(NodeId(1));
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        let mut p = pkt(a, b, 0);
        p.depart_vt = VirtualTime::from_micros(100);
        f.send(p).unwrap();
        let got = pb.recv().unwrap();
        assert_eq!(got.arrive_vt, VirtualTime::from_micros(106)); // +6us hw
    }

    #[test]
    fn local_traffic_uses_loopback_latency() {
        let f = Fabric::new(Box::new(BipMyrinet), LayerCosts::zero());
        f.add_node(NodeId(0));
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(0), PortId(2));
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        f.send(pkt(a, b, 1 << 20)).unwrap(); // 1 MB, but local: constant
        let got = pb.recv().unwrap();
        assert_eq!(got.arrive_vt, LOCAL_LATENCY);
    }

    #[test]
    fn disable_enable_cycle() {
        let f = fabric();
        f.disable_node(NodeId(1));
        assert_eq!(f.node_status(NodeId(1)), Some(NodeStatus::Disabled));
        // Disabled nodes still receive traffic.
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        f.send(pkt(a, b, 1)).unwrap();
        assert!(pb.recv().is_ok());
        f.enable_node(NodeId(1));
        assert_eq!(f.node_status(NodeId(1)), Some(NodeStatus::Up));
    }

    #[test]
    fn stats_accumulate() {
        let f = fabric();
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let _pa = f.bind(a).unwrap();
        let _pb = f.bind(b).unwrap();
        f.send(pkt(a, b, 10)).unwrap();
        f.send(pkt(a, b, 20)).unwrap();
        assert_eq!(f.stats(), (2, 30));
    }

    #[test]
    fn recv_batch_takes_contiguous_run() {
        let f = fabric();
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        for tag in 0..5 {
            f.send(tagged(a, b, tag)).unwrap();
        }
        let mut batch = VecDeque::new();
        let mut take = |max| {
            pb.recv_batch(&mut batch, max, None).unwrap();
            batch.drain(..).map(|p| p.tag).collect::<Vec<_>>()
        };
        assert_eq!(take(3), [0, 1, 2]);
        assert_eq!(take(16), [3, 4]);
        assert!(take(16).is_empty());
        f.crash_node(NodeId(1));
        let closed = pb.recv_batch(&mut batch, 16, Some(Duration::ZERO));
        assert!(matches!(closed, Err(Error::Closed(_))));
    }

    // ---- link faults -------------------------------------------------------

    fn tagged(src: Addr, dst: Addr, tag: u64) -> Packet {
        Packet::new(src, dst, PacketKind::Data, tag, Bytes::from_static(b"x"))
    }

    #[test]
    fn drop_fault_eats_packets_silently() {
        let f = fabric();
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        f.set_link_fault(NodeId(0), NodeId(1), LinkFault::seeded(1).drop(1.0));
        // The sender sees Ok: a lossy wire gives no feedback.
        f.send(pkt(a, b, 1)).unwrap();
        f.send(pkt(a, b, 1)).unwrap();
        assert!(pb.try_recv().unwrap().is_none());
        let st = f.fault_stats();
        assert_eq!((st.accepted, st.dropped, st.delivered), (2, 2, 0));
        assert!(st.conserved());
    }

    #[test]
    fn duplicate_fault_delivers_twice() {
        let f = fabric();
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        f.set_link_fault(NodeId(0), NodeId(1), LinkFault::seeded(1).duplicate(1.0));
        f.send(tagged(a, b, 7)).unwrap();
        let got = pb.drain();
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|p| p.tag == 7));
        let st = f.fault_stats();
        assert_eq!((st.accepted, st.duplicated, st.delivered), (1, 1, 2));
        assert!(st.conserved());
    }

    #[test]
    fn delay_fault_postpones_arrival() {
        let f = fabric(); // Ideal model: cross-node wire time is zero
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        let extra = VirtualTime::from_micros(250);
        f.set_link_fault(NodeId(0), NodeId(1), LinkFault::seeded(1).delay(1.0, extra));
        let mut p = pkt(a, b, 1);
        p.depart_vt = VirtualTime::from_micros(100);
        f.send(p).unwrap();
        assert_eq!(pb.recv().unwrap().arrive_vt, VirtualTime::from_micros(350));
        assert!(f.fault_stats().conserved());
    }

    #[test]
    fn reorder_fault_lets_later_packet_overtake() {
        // With p = 0.5 some seed in a small bank must hold packet 0 and pass
        // packet 1; scan for it, then pin that the swap replays identically.
        let run = |seed: u64| -> Vec<u64> {
            let f = fabric();
            let a = Addr::new(NodeId(0), PortId(1));
            let b = Addr::new(NodeId(1), PortId(1));
            let _pa = f.bind(a).unwrap();
            let pb = f.bind(b).unwrap();
            f.set_link_fault(NodeId(0), NodeId(1), LinkFault::seeded(seed).reorder(0.5));
            for tag in 0..4 {
                f.send(tagged(a, b, tag)).unwrap();
            }
            f.clear_link_fault(NodeId(0), NodeId(1)); // flush any tail holds
            assert!(f.fault_stats().conserved());
            pb.drain().into_iter().map(|p| p.tag).collect()
        };
        let swapped = (0..64).find(|&seed| {
            let order = run(seed);
            order.len() == 4 && order != [0, 1, 2, 3]
        });
        let seed = swapped.expect("some seed in 0..64 reorders");
        assert_eq!(run(seed), run(seed), "same seed, same delivery order");
    }

    #[test]
    fn drop_nth_and_dup_nth_hit_exactly_one_packet() {
        let f = fabric();
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        f.set_link_fault(NodeId(0), NodeId(1), LinkFault::seeded(1).drop_nth(1));
        for tag in 0..3 {
            f.send(tagged(a, b, tag)).unwrap();
        }
        let got: Vec<u64> = pb.drain().into_iter().map(|p| p.tag).collect();
        assert_eq!(got, vec![0, 2]);

        f.set_link_fault(NodeId(0), NodeId(1), LinkFault::seeded(1).dup_nth(0));
        for tag in 10..13 {
            f.send(tagged(a, b, tag)).unwrap();
        }
        let got: Vec<u64> = pb.drain().into_iter().map(|p| p.tag).collect();
        assert_eq!(got, vec![10, 10, 11, 12]);
        assert!(f.fault_stats().conserved());
    }

    #[test]
    fn same_seed_identical_delivery_trace() {
        let run = |seed: u64| -> Vec<(u64, VirtualTime)> {
            let f = fabric();
            let a = Addr::new(NodeId(0), PortId(1));
            let b = Addr::new(NodeId(1), PortId(1));
            let _pa = f.bind(a).unwrap();
            let pb = f.bind(b).unwrap();
            f.set_link_fault(
                NodeId(0),
                NodeId(1),
                LinkFault::seeded(seed)
                    .drop(0.2)
                    .duplicate(0.2)
                    .delay(0.3, VirtualTime::from_micros(40))
                    .reorder(0.3),
            );
            for tag in 0..50 {
                let mut p = tagged(a, b, tag);
                p.depart_vt = VirtualTime::from_micros(tag * 10);
                f.send(p).unwrap();
            }
            f.clear_link_fault(NodeId(0), NodeId(1));
            assert!(f.fault_stats().conserved());
            pb.drain()
                .into_iter()
                .map(|p| (p.tag, p.arrive_vt))
                .collect()
        };
        assert_eq!(run(42), run(42), "same seed must replay identically");
        assert_ne!(run(42), run(43), "distinct seeds should diverge");
    }

    #[test]
    fn fault_streams_isolated_per_destination_port() {
        // Traffic on another port of the same link must not perturb the
        // fault schedule a port sees — the chaos replay guarantee.
        let run = |noise: bool| -> Vec<u64> {
            let f = fabric();
            let a = Addr::new(NodeId(0), PortId(1));
            let b = Addr::new(NodeId(1), PortId(1));
            let other = Addr::new(NodeId(1), PortId(9));
            let _pa = f.bind(a).unwrap();
            let pb = f.bind(b).unwrap();
            let _po = f.bind(other).unwrap();
            f.set_link_fault(
                NodeId(0),
                NodeId(1),
                LinkFault::seeded(7).drop(0.3).duplicate(0.2),
            );
            for tag in 0..40 {
                if noise {
                    f.send(tagged(a, other, 1000 + tag)).unwrap();
                }
                f.send(tagged(a, b, tag)).unwrap();
            }
            pb.drain().into_iter().map(|p| p.tag).collect()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn partition_does_not_eat_held_frames() {
        // Regression (satellite): a frame a reorder fault is holding was
        // already on the wire when the cut appeared — it must arrive.
        let f = fabric();
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        f.set_link_fault(NodeId(0), NodeId(1), LinkFault::seeded(1).reorder(1.0));
        f.send(tagged(a, b, 5)).unwrap(); // held by the fault
        assert!(pb.try_recv().unwrap().is_none());
        assert_eq!(f.queued_packets(), 1);
        f.partition(NodeId(0), NodeId(1));
        // The held frame crossed the cut; new traffic does not.
        assert_eq!(pb.recv().unwrap().tag, 5);
        assert!(f.send(tagged(a, b, 6)).is_err());
        let st = f.fault_stats();
        assert_eq!((st.delivered, st.held), (1, 0));
        assert!(st.conserved());
    }

    #[test]
    fn crash_eats_held_frames_to_dead_node_only() {
        let f = fabric();
        f.add_node(NodeId(2));
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let c = Addr::new(NodeId(2), PortId(1));
        let _pa = f.bind(a).unwrap();
        let _pb = f.bind(b).unwrap();
        let pc = f.bind(c).unwrap();
        f.set_link_fault(NodeId(0), NodeId(1), LinkFault::seeded(1).reorder(1.0));
        f.set_link_fault(NodeId(1), NodeId(2), LinkFault::seeded(1).reorder(1.0));
        f.send(tagged(a, b, 1)).unwrap(); // held, bound for node 1
        f.send(tagged(b, c, 2)).unwrap(); // held, sent by node 1
        f.crash_node(NodeId(1));
        // The frame node 1 sent before dying still arrives; the frame bound
        // for it dies with its ports.
        assert_eq!(pc.recv().unwrap().tag, 2);
        let st = f.fault_stats();
        assert_eq!((st.delivered, st.dropped, st.held), (1, 1, 0));
        assert!(st.conserved());
    }

    #[test]
    fn clear_and_queued_packets_account_for_held() {
        let f = fabric();
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(1), PortId(1));
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        f.set_link_fault(NodeId(0), NodeId(1), LinkFault::seeded(1).reorder(1.0));
        f.send(tagged(a, b, 1)).unwrap();
        f.send(tagged(a, b, 2)).unwrap();
        assert_eq!(f.queued_packets(), 2); // both parked in the stream
        f.clear_all_link_faults();
        assert_eq!(f.queued_packets(), 2); // now waiting in the port queue
        let got: Vec<u64> = pb.drain().into_iter().map(|p| p.tag).collect();
        assert_eq!(got, vec![1, 2]);
        assert_eq!(f.queued_packets(), 0);
        assert!(f.fault_stats().conserved());
    }

    #[test]
    fn local_traffic_exempt_from_link_faults() {
        let f = fabric();
        let a = Addr::new(NodeId(0), PortId(1));
        let b = Addr::new(NodeId(0), PortId(2));
        let _pa = f.bind(a).unwrap();
        let pb = f.bind(b).unwrap();
        f.set_link_fault(NodeId(0), NodeId(0), LinkFault::seeded(1).drop(1.0));
        f.send(pkt(a, b, 1)).unwrap();
        assert!(pb.recv().is_ok());
        assert_eq!(f.fault_stats().accepted, 0);
    }

    #[test]
    fn disjoint_pairs_deliver_concurrently() {
        // Smoke test for the sharding contract: senders to different
        // endpoints make progress concurrently (the message rate end to
        // end is bench-e2e's `msgrate_8B`).
        let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
        for i in 0..4 {
            f.add_node(NodeId(i));
        }
        let mut handles = Vec::new();
        for i in 0..2u32 {
            let src = Addr::new(NodeId(i), PortId(1));
            let dst = Addr::new(NodeId(2 + i), PortId(1));
            let keep = f.bind(src).unwrap();
            let port = f.bind(dst).unwrap();
            let f2 = f.clone();
            handles.push(std::thread::spawn(move || {
                let _keep = keep;
                for tag in 0..500 {
                    f2.send(tagged(src, dst, tag)).unwrap();
                }
            }));
            handles.push(std::thread::spawn(move || {
                for tag in 0..500 {
                    assert_eq!(port.recv().unwrap().tag, tag);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(f.stats().0, 1000);
    }
}
