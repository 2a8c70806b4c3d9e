//! The static metric registry: every metric the system emits, by identity.
//!
//! Metric identities are compile-time constants so recording is an array
//! index away and snapshots from different nodes aggregate without name
//! exchange. The taxonomy mirrors the paper: Table 1's six message classes
//! (counts and bytes), Figure 6's seven messaging layers, checkpoint and
//! recovery phase timings, and liveness bookkeeping.

use starfish_util::trace::MsgClass;

/// Identity of a metric: index into [`DEFS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId(pub u16);

impl MetricId {
    pub fn def(self) -> &'static MetricDef {
        &DEFS[self.0 as usize]
    }

    pub fn name(self) -> &'static str {
        self.def().name
    }

    pub fn kind(self) -> MetricKind {
        self.def().kind
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
    Histogram,
}

/// What a recorded value means (used only for rendering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    Count,
    Bytes,
    /// Nanoseconds of virtual time (the modelled 1999 hardware clock).
    VirtualNanos,
    /// Nanoseconds of wall-clock time on the simulating host.
    WallNanos,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub kind: MetricKind,
    pub unit: Unit,
    pub help: &'static str,
}

macro_rules! metric_table {
    ( $( $konst:ident = ($name:expr, $kind:ident, $unit:ident, $help:expr); )* ) => {
        metric_table!(@step (0u16) [] $( $konst = ($name, $kind, $unit, $help); )*);
    };
    (@step ($idx:expr) [$($acc:tt)*]) => {
        /// Every metric in the system, indexed by [`MetricId`].
        pub const DEFS: &[MetricDef] = &[ $($acc)* ];
    };
    (@step ($idx:expr) [$($acc:tt)*]
        $konst:ident = ($name:expr, $kind:ident, $unit:ident, $help:expr);
        $($rest:tt)*
    ) => {
        pub const $konst: MetricId = MetricId($idx);
        metric_table!(@step ($idx + 1)
            [
                $($acc)*
                MetricDef {
                    name: $name,
                    kind: MetricKind::$kind,
                    unit: Unit::$unit,
                    help: $help,
                },
            ]
            $($rest)*);
    };
}

metric_table! {
    // --- Table 1: message counts/bytes by class (recorded via the trace
    // hook, so they cover every sanctioned path) -------------------------
    MSG_COUNT_CONTROL = ("msg.count.control", Counter, Count, "Control messages (daemon<->daemon, ensemble)");
    MSG_COUNT_COORDINATION = ("msg.count.coordination", Counter, Count, "Coordination messages relayed via daemons");
    MSG_COUNT_DATA = ("msg.count.data", Counter, Count, "Data messages on the MPI fast path");
    MSG_COUNT_LW_MEMBERSHIP = ("msg.count.lw-membership", Counter, Count, "Lightweight membership notifications");
    MSG_COUNT_CONFIGURATION = ("msg.count.configuration", Counter, Count, "Configuration messages daemon->process");
    MSG_COUNT_CKPT_RESTART = ("msg.count.checkpoint-restart", Counter, Count, "Checkpoint/restart protocol messages");
    MSG_BYTES_CONTROL = ("msg.bytes.control", Counter, Bytes, "Bytes of control messages");
    MSG_BYTES_COORDINATION = ("msg.bytes.coordination", Counter, Bytes, "Bytes of coordination messages");
    MSG_BYTES_DATA = ("msg.bytes.data", Counter, Bytes, "Bytes of data messages");
    MSG_BYTES_LW_MEMBERSHIP = ("msg.bytes.lw-membership", Counter, Bytes, "Bytes of lightweight membership messages");
    MSG_BYTES_CONFIGURATION = ("msg.bytes.configuration", Counter, Bytes, "Bytes of configuration messages");
    MSG_BYTES_CKPT_RESTART = ("msg.bytes.checkpoint-restart", Counter, Bytes, "Bytes of C/R protocol messages");

    // --- VNI / fabric ----------------------------------------------------
    VNI_PACKETS = ("vni.packets", Counter, Count, "Packets accepted by the fabric");
    VNI_WIRE_NS = ("vni.wire_ns", Histogram, VirtualNanos, "One-way wire latency per packet");
    VNI_PACKET_BYTES = ("vni.packet_bytes", Histogram, Bytes, "Payload size per packet");
    VNI_RECV_QUEUE_DEPTH = ("vni.recv_queue_depth", Gauge, Count, "Entries waiting in MPI receive queues");
    VNI_DROPPED = ("vni.dropped", Counter, Count, "Packets eaten by a link fault or a vanished destination");
    VNI_DUPLICATED = ("vni.duplicated", Counter, Count, "Extra packet copies minted by duplicate faults");
    VNI_DELAYED = ("vni.delayed", Counter, Count, "Packets whose arrival a delay fault postponed");
    VNI_HELD = ("vni.held", Counter, Count, "Packets parked in reorder buffers by a link fault");

    // --- Figure 6: per-layer costs of the messaging stack ----------------
    LAYER_APP_TO_MPI = ("layer.app_to_mpi", Histogram, VirtualNanos, "Application -> MPI library hand-off");
    LAYER_MPI_SEND = ("layer.mpi_send", Histogram, VirtualNanos, "MPI send-side processing");
    LAYER_VNI_SEND = ("layer.vni_send", Histogram, VirtualNanos, "VNI send-side processing");
    LAYER_POLL = ("layer.poll", Histogram, VirtualNanos, "Polling-thread dispatch");
    LAYER_VNI_RECV = ("layer.vni_recv", Histogram, VirtualNanos, "VNI receive-side processing");
    LAYER_MPI_RECV = ("layer.mpi_recv", Histogram, VirtualNanos, "MPI receive-side processing");
    LAYER_MPI_TO_APP = ("layer.mpi_to_app", Histogram, VirtualNanos, "MPI -> application hand-off");
    MPI_SEND_PATH_NS = ("mpi.send_path_ns", Histogram, VirtualNanos, "Total send-side software path");
    MPI_RECV_PATH_NS = ("mpi.recv_path_ns", Histogram, VirtualNanos, "Total receive-side software path");
    MPI_RETRANSMITS = ("mpi.retransmits", Counter, Count, "Messages re-sent by the reliability layer");
    MPI_DUP_DISCARDS = ("mpi.dup_discards", Counter, Count, "Duplicate deliveries discarded by sequence check");
    MPI_NACKS = ("mpi.nacks", Counter, Count, "Gap reports sent by the reliability layer");
    MPI_RNDV_SENDS = ("mpi.rndv_sends", Counter, Count, "Sends routed through the rendezvous protocol");
    MPI_RNDV_BYTES = ("mpi.rndv_bytes", Histogram, Bytes, "Payload size per rendezvous transfer");
    MPI_CTS_RESENDS = ("mpi.cts_resends", Counter, Count, "CTS grants re-sent while awaiting rendezvous data");
    MPI_CREDIT_FALLBACKS = ("mpi.credit_fallbacks", Counter, Count, "Eager sends forced to rendezvous by exhausted credit");

    // --- Collectives: algorithm selection + traffic accounting -----------
    // One counter per (operation, algorithm) pair so STATS shows the
    // selector's decisions directly; kept contiguous so the rendered
    // output groups them. The mapping lives with the selector
    // (starfish-mpi), which tests pin against these ids.
    COLL_ALGO_ALLREDUCE_REDUCE_BCAST = ("coll.algo.allreduce.reduce-bcast", Counter, Count, "Allreduce calls routed through binomial reduce + bcast (the cluster path)");
    COLL_ALGO_ALLREDUCE_RDOUBLE = ("coll.algo.allreduce.recursive-doubling", Counter, Count, "Allreduce calls routed through recursive doubling");
    COLL_ALGO_ALLREDUCE_RING = ("coll.algo.allreduce.ring", Counter, Count, "Allreduce calls routed through ring reduce-scatter + ring allgather");
    COLL_ALGO_ALLGATHER_GATHER_BCAST = ("coll.algo.allgather.gather-bcast", Counter, Count, "Allgather calls routed through gather + bcast (the cluster path)");
    COLL_ALGO_ALLGATHER_BRUCK = ("coll.algo.allgather.bruck", Counter, Count, "Allgather calls routed through the Bruck log-step algorithm");
    COLL_ALGO_ALLGATHER_RING = ("coll.algo.allgather.ring", Counter, Count, "Allgather calls routed through the bandwidth-optimal ring");
    COLL_ALGO_BCAST_BINOMIAL = ("coll.algo.bcast.binomial", Counter, Count, "Bcast calls routed through the binomial tree");
    COLL_ALGO_BCAST_SCATTER_ALLGATHER = ("coll.algo.bcast.scatter-allgather", Counter, Count, "Bcast calls routed through scatter + ring allgather (van de Geijn)");
    COLL_BYTES_MOVED = ("coll.bytes_moved", Counter, Bytes, "Payload bytes this process placed on the wire inside collectives");
    COLL_SEGMENTS = ("coll.segments", Counter, Count, "Wire messages sent by chunk-aligned segmented collective phases");

    // --- Ensemble / membership ------------------------------------------
    ENSEMBLE_VIEW_CHANGES = ("ensemble.view_changes", Counter, Count, "Views installed by the main group");
    ENSEMBLE_VIEW_CHANGE_NS = ("ensemble.view_change_ns", Histogram, WallNanos, "Suspicion -> new view installation");
    ENSEMBLE_HEARTBEAT_MISSES = ("ensemble.heartbeat_misses", Counter, Count, "Heartbeat deadlines missed before suspicion");
    ENSEMBLE_CASTS = ("ensemble.casts", Counter, Count, "Totally ordered casts delivered");

    // --- Checkpoint / restart -------------------------------------------
    CKPT_ROUNDS = ("ckpt.rounds", Counter, Count, "Distributed checkpoint rounds committed");
    CKPT_IMAGE_BYTES = ("ckpt.image_bytes", Histogram, Bytes, "Checkpoint image size per rank");
    CKPT_WRITE_NS = ("ckpt.write_ns", Histogram, VirtualNanos, "Stable-storage write time per image");
    CKPT_ROUND_NS = ("ckpt.round_ns", Histogram, VirtualNanos, "Quiesce -> commit per checkpoint round");
    RECOVERY_RESTARTS = ("recovery.restarts", Counter, Count, "Application restarts after failures");
    RECOVERY_RESTORE_NS = ("recovery.restore_ns", Histogram, VirtualNanos, "Image load + rollback time per rank");
    CKPT_FRAGMENTS_STORED = ("ckpt.fragments_stored", Counter, Count, "Checkpoint fragments pushed to peer memory (replica backend)");
    CKPT_FRAGMENTS_FETCHED = ("ckpt.fragments_fetched", Counter, Count, "Checkpoint fragments pulled from peers during recovery");
    CKPT_REPLICATION_BYTES = ("ckpt.replication_bytes", Histogram, Bytes, "Bytes replicated to peers per checkpoint image");
    CKPT_PARITY_REBUILDS = ("ckpt.parity_rebuilds", Counter, Count, "Fragments reconstructed from XOR parity groups");
    RECOVERY_FETCH_NS = ("recovery.fetch_ns", Histogram, VirtualNanos, "Peer-memory image reassembly time per rank (replica backend)");

    // --- Daemon / liveness ----------------------------------------------
    PROCS_RUNNING = ("procs.running", Gauge, Count, "Application processes alive on this node");

    // --- Recovery forensics (event bus + postmortems) --------------------
    EVENTS_PUBLISHED = ("events.published", Counter, Count, "Cluster events appended to this node's event bus");
    RECOVERY_DETECT_NS = ("recovery.detect_ns", Histogram, WallNanos, "Failure detection latency: last heartbeat heard to suspicion");
    RECOVERY_ROLLBACK_VT_NS = ("recovery.rollback_vt_ns", Histogram, VirtualNanos, "Rollback depth: virtual time between the recovery line and the rollback");
    RECOVERY_LOST_MSGS = ("recovery.lost_msgs", Histogram, Count, "Messages consumed since the recovery line that a rollback discards");
    RECOVERY_RESPAWN_SEND_NS = ("recovery.respawn_send_ns", Histogram, VirtualNanos, "Respawn-to-first-send: restore completion to first outbound message");
}

/// Table 1 message-count metric for a class.
pub fn msg_count(class: MsgClass) -> MetricId {
    match class {
        MsgClass::Control => MSG_COUNT_CONTROL,
        MsgClass::Coordination => MSG_COUNT_COORDINATION,
        MsgClass::Data => MSG_COUNT_DATA,
        MsgClass::LwMembership => MSG_COUNT_LW_MEMBERSHIP,
        MsgClass::Configuration => MSG_COUNT_CONFIGURATION,
        MsgClass::CheckpointRestart => MSG_COUNT_CKPT_RESTART,
    }
}

/// Table 1 message-bytes metric for a class.
pub fn msg_bytes(class: MsgClass) -> MetricId {
    match class {
        MsgClass::Control => MSG_BYTES_CONTROL,
        MsgClass::Coordination => MSG_BYTES_COORDINATION,
        MsgClass::Data => MSG_BYTES_DATA,
        MsgClass::LwMembership => MSG_BYTES_LW_MEMBERSHIP,
        MsgClass::Configuration => MSG_BYTES_CONFIGURATION,
        MsgClass::CheckpointRestart => MSG_BYTES_CKPT_RESTART,
    }
}

/// The seven Figure 6 layer histograms, send-to-receive order.
pub const LAYERS: [MetricId; 7] = [
    LAYER_APP_TO_MPI,
    LAYER_MPI_SEND,
    LAYER_VNI_SEND,
    LAYER_POLL,
    LAYER_VNI_RECV,
    LAYER_MPI_RECV,
    LAYER_MPI_TO_APP,
];

/// Iterator over every metric id.
pub fn all() -> impl Iterator<Item = MetricId> {
    (0..DEFS.len() as u16).map(MetricId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_nonempty() {
        let mut seen = std::collections::BTreeSet::new();
        for def in DEFS {
            assert!(!def.name.is_empty());
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
        }
    }

    #[test]
    fn class_mappings_cover_all_six() {
        let mut counts = std::collections::BTreeSet::new();
        let mut bytes = std::collections::BTreeSet::new();
        for class in MsgClass::ALL {
            assert_eq!(msg_count(class).kind(), MetricKind::Counter);
            assert_eq!(msg_bytes(class).kind(), MetricKind::Counter);
            assert!(msg_count(class).name().starts_with("msg.count."));
            assert!(msg_bytes(class).name().starts_with("msg.bytes."));
            assert!(counts.insert(msg_count(class)), "mapping must be injective");
            assert!(bytes.insert(msg_bytes(class)), "mapping must be injective");
        }
    }

    /// The collective counters must stay one contiguous block: `STATS`
    /// renders in DEFS order, so contiguity is what groups them in the
    /// management output.
    #[test]
    fn coll_metrics_form_one_contiguous_block() {
        let ids: Vec<u16> = (0..DEFS.len() as u16)
            .filter(|i| DEFS[*i as usize].name.starts_with("coll."))
            .collect();
        assert_eq!(ids.len(), 10, "expected the full coll.* block");
        for w in ids.windows(2) {
            assert_eq!(w[1], w[0] + 1, "coll.* block must be contiguous");
        }
        assert_eq!(COLL_ALGO_ALLREDUCE_REDUCE_BCAST.0, ids[0]);
        assert_eq!(COLL_SEGMENTS.0, *ids.last().unwrap());
    }

    #[test]
    fn layer_table_matches_kinds() {
        for id in LAYERS {
            assert_eq!(id.kind(), MetricKind::Histogram);
        }
    }
}
