//! The scenario driver: replays a [`FaultPlan`] against an in-memory
//! cluster and records everything the oracles need.
//!
//! The MPI family (`run_mpi_scenario`) is **single-threaded and fully
//! deterministic**: direct-mode reliable endpoints on an `Ideal` fabric
//! with zero layer costs, every receive drained synchronously, every fault
//! decision drawn from seeded streams. Re-running a plan yields a
//! bit-identical [`ScenarioReport`] — the property the regression corpus
//! and the shrinker depend on.
//!
//! Each step the driver (1) fires the plan's due events, (2) lets every
//! rank drain its arrivals, (3) has every rank send one sequenced message
//! to a seed-chosen peer, and (4) takes a coordinated checkpoint round on
//! the plan's cadence. After the last step it *quiesces*: heals all
//! partitions, clears all link faults, then alternates reliability flushes
//! and drains until no data moves for three rounds and no packet is queued
//! anywhere — at which point the oracles judge the endstate.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use starfish_checkpoint::{CkptBackend, CkptImage, CkptLevel, CkptStore, CkptValue, MACHINES};
use starfish_mpi::{CtsCadence, MpiEndpoint, RankDirectory, RecvMode, WORLD_CONTEXT};
use starfish_trace::event::{ClusterEvent, EventKind};
use starfish_trace::postmortem::{postmortem_dir, Phase, Postmortem, Rollback};
use starfish_trace::{FlightRecorder, ProcTrace};
use starfish_util::rng::DetRng;
use starfish_util::trace::TraceSink;
use starfish_util::{AppId, Epoch, NodeId, Rank, VClock, VirtualTime};
use starfish_vni::{Fabric, FaultStats, Ideal, LayerCosts};

use crate::plan::{Event, FaultPlan};

/// Application id every scenario runs under.
pub(crate) const CHAOS_APP: AppId = AppId(7);

/// Traffic tag (a single flow per rank pair keeps oracles simple).
const TRAFFIC_TAG: u64 = 1;

/// Stream tag separating traffic choices from plan generation.
const TRAFFIC_STREAM: u64 = 0x5452_4146; // "TRAF"

/// Real-time bound on the quiescence phase; hitting it marks the report
/// `quiesced: false`, which the quiescence oracle turns into a violation.
const QUIESCE_DEADLINE: Duration = Duration::from_secs(20);

/// Everything a scenario run exposes to the oracles. `PartialEq` is the
/// determinism contract: two runs of one plan must compare equal.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ScenarioReport {
    /// Per directed rank pair: payload ids in send order (only sends the
    /// endpoint accepted — a rejected send never left the source).
    pub sent: BTreeMap<(u32, u32), Vec<u64>>,
    /// Per receiver: (source rank, payload id) in arrival order.
    pub recv: BTreeMap<u32, Vec<(u32, u64)>>,
    /// Sends rejected at the source (partitioned/crashed destination).
    pub send_rejects: u64,
    /// Fabric fault-layer accounting at the end of the run.
    pub stats: FaultStats,
    /// Packets still sitting in fabric queues after quiescence.
    pub(crate) queued: usize,
    /// Whether the quiescence loop converged before its deadline.
    pub(crate) quiesced: bool,
    /// Coordinated checkpoint rounds completed.
    pub ckpt_rounds: u64,
    /// Torn-image injections that hit an existing image.
    pub corruptions: u64,
    /// The recovery line (`latest_common_index`) over live ranks at the end.
    pub line: u64,
    /// Whether every live rank can actually read an image at `line`.
    pub line_restorable: bool,
    /// Ranks whose node crashed mid-run (oracles exclude their flows from
    /// completeness checks: a dead port eats frames by design).
    pub dead_ranks: Vec<u32>,
    /// Rendezvous transfers still awaiting CTS after quiescence (payload
    /// never left the sender). Zero on a converged run.
    pub rndv_pending: usize,
    /// Deliveries whose body did not match the sender's deterministic
    /// fill — a mis-spliced rendezvous DATA merge or torn payload.
    pub payload_corruptions: u64,
    /// The plan's `replica <k>` directive (`None` = legacy disk store).
    pub(crate) replica_k: Option<u8>,
    /// Distinct nodes that crashed at least once (a restart brings the
    /// node back empty, so its pre-crash replicas stay lost).
    pub nodes_lost: u32,
    /// Data fragments pushed to peer memory across all checkpoint rounds.
    pub replica_fragments: u64,
    /// Per-rank puts that could not reach full `k`-replica strength
    /// (fewer than `k` live peers at put time).
    pub replica_under_replicated: u64,
    /// Parity-group rebuilds needed while proving the final line
    /// restorable (0 ⇒ every fragment still had a live full copy).
    pub replica_parity_rebuilds: u64,
    /// Modeled failure-detection latency of the plan's *first* crash,
    /// vt-ns: from the crash to the first heartbeat tick at which the
    /// detector's silence window has expired. Present only when the plan
    /// declares a `heartbeat` and a node crashed; always bounded by
    /// `timeout + 2 * interval`.
    pub detect_ns: Option<u64>,
    /// Rollback depth a recovery from the final line would take: virtual
    /// time from the end of the run back to the line's checkpoint round.
    /// Present when a node crashed.
    pub rollback_depth_ns: Option<u64>,
    /// Accepted sends issued after the final line's round — the traffic a
    /// rollback to that line discards. Present when a node crashed.
    pub rollback_lost_msgs: Option<u64>,
    /// Modeled cost of reassembling every live rank's image at the line
    /// from peer memory (sum of per-rank parallel fetch costs, vt-ns).
    /// Present for replica-backed plans with a crash and a line > 0.
    pub restore_ns: Option<u64>,
}

/// Replay `plan` deterministically; see the module docs for the schedule.
pub fn run_mpi_scenario(plan: &FaultPlan) -> ScenarioReport {
    run_scenario_inner(plan, false).0
}

/// Replay `plan` with a flight recorder attached to every rank plus a
/// plan-level `"chaos"` recorder that logs the injected faults. Returns the
/// identical [`ScenarioReport`] a plain run produces (recorders never touch
/// virtual clocks, so the determinism contract is preserved) together with
/// the dumped rings, ready for [`starfish_trace::reassemble`] or
/// [`starfish_trace::perfetto::export`].
pub fn run_mpi_scenario_traced(plan: &FaultPlan) -> (ScenarioReport, Vec<ProcTrace>) {
    run_scenario_inner(plan, true)
}

fn run_scenario_inner(plan: &FaultPlan, traced: bool) -> (ScenarioReport, Vec<ProcTrace>) {
    let fabric = Fabric::new(Box::new(Ideal), LayerCosts::zero());
    for n in 0..plan.nodes {
        fabric.add_node(NodeId(n));
    }
    for f in &plan.faults {
        fabric.set_link_fault(NodeId(f.src), NodeId(f.dst), f.to_fault());
    }
    let placement: Vec<NodeId> = (0..plan.ranks).map(|r| NodeId(r % plan.nodes)).collect();
    let store = CkptStore::new();
    for n in 0..plan.nodes {
        store.node_up(NodeId(n));
    }
    // Diskless mode: a `replica <k>` directive places the app's images in
    // peer memory instead of on the stable disk; node crashes then take
    // checkpoint fragments with them, which is exactly what the diskless
    // oracles probe.
    if let Some(k) = plan.replica_k {
        store.set_backend(CHAOS_APP, CkptBackend::Replica { k }, placement.clone());
    }
    let dir = RankDirectory::with_placement(&placement);
    let recorders: Vec<FlightRecorder> = (0..plan.ranks)
        .map(|r| {
            if traced {
                FlightRecorder::new(
                    &format!("{CHAOS_APP}.{}", Rank(r)),
                    starfish_trace::DEFAULT_CAPACITY,
                )
            } else {
                FlightRecorder::disabled()
            }
        })
        .collect();
    let chaos_rec = if traced {
        FlightRecorder::new("chaos", starfish_trace::DEFAULT_CAPACITY)
    } else {
        FlightRecorder::disabled()
    };
    let mut eps: Vec<MpiEndpoint> = (0..plan.ranks)
        .map(|r| {
            let mut ep = MpiEndpoint::new(
                &fabric,
                CHAOS_APP,
                Rank(r),
                dir.clone(),
                RecvMode::Direct,
                TraceSink::disabled(),
            )
            .expect("bind endpoint");
            ep.set_reliable(!plan.unreliable);
            ep.set_recorder(recorders[r as usize].clone());
            if let Some(t) = plan.rndv_threshold {
                ep.set_rendezvous_threshold(t as usize);
            }
            if let Some(c) = plan.rndv_chunk {
                ep.set_rendezvous_chunk_bytes(c as usize);
            }
            // Wall-clock CTS pacing would make re-grant counts (and thus
            // the fault layer's decision-stream consumption) depend on
            // scheduling; per-encounter pacing keeps replays bit-identical.
            ep.set_cts_cadence(CtsCadence::EveryEncounter);
            ep
        })
        .collect();
    let mut clocks: Vec<VClock> = (0..plan.ranks).map(|_| VClock::new()).collect();

    // Payload: id in the first 8 bytes (what the oracles track), padded to
    // the plan's size with a (rank, id)-derived fill so a misdelivered
    // rendezvous DATA merge could not go unnoticed.
    let payload_len = plan.payload.max(8) as usize;

    let mut rng = DetRng::new(plan.seed).derive(TRAFFIC_STREAM);
    let mut report = ScenarioReport::default();
    let mut next_id: Vec<u64> = vec![0; plan.ranks as usize];
    let mut dead: Vec<bool> = vec![false; plan.ranks as usize];
    let mut crashed_nodes: BTreeSet<u32> = BTreeSet::new();
    report.replica_k = plan.replica_k;
    // Forensic bookkeeping: when the first node died, and how many sends
    // had been accepted by the end of each checkpoint round (so the
    // rollback oracle can count the traffic a restore would discard).
    let mut first_crash_vt: Option<u64> = None;
    let mut accepted_total: u64 = 0;
    let mut sends_at_round: Vec<u64> = Vec::new();

    for step in 0..plan.steps {
        // The plan-level recorder stamps injections with a step-derived
        // virtual time (the driver's rank clocks are per-endpoint).
        let step_vt = VirtualTime::from_nanos((step as u64 + 1) * 1_000);
        for te in plan.events_at(step) {
            chaos_rec.fault(step_vt, &format!("@{step} {:?}", te.event));
            match te.event {
                Event::Partition(a, b) => fabric.partition(NodeId(a), NodeId(b)),
                Event::Heal(a, b) => fabric.heal(NodeId(a), NodeId(b)),
                Event::Crash(n) => {
                    fabric.crash_node(NodeId(n));
                    mark_dead(&mut dead, plan, n);
                    crashed_nodes.insert(n);
                    first_crash_vt.get_or_insert(step_vt.as_nanos());
                    store.node_down(NodeId(n));
                }
                Event::SilentCrash(n) => {
                    fabric.crash_node_silently(NodeId(n));
                    mark_dead(&mut dead, plan, n);
                    crashed_nodes.insert(n);
                    first_crash_vt.get_or_insert(step_vt.as_nanos());
                    store.node_down(NodeId(n));
                }
                // Restarting an application rank needs the full runtime's
                // recovery machinery; the ensemble/cluster family covers
                // it. Here a restart only revives the node on the wire —
                // with its memory wiped, so any checkpoint fragments it
                // hosted before the crash stay lost.
                Event::Restart(n) => {
                    fabric.add_node(NodeId(n));
                    store.node_up(NodeId(n));
                }
                Event::Corrupt { rank, index } => {
                    if store.corrupt_image(CHAOS_APP, Rank(rank), index) {
                        report.corruptions += 1;
                    }
                }
            }
        }

        for r in 0..plan.ranks as usize {
            if dead[r] {
                continue;
            }
            drain(&mut eps[r], &mut clocks[r], &mut report);
            // One message to a seed-chosen live-ish peer. The rng draw
            // happens unconditionally so the traffic schedule is a pure
            // function of the seed, independent of fault outcomes.
            let peer = rng.below(plan.ranks as u64) as u32;
            if peer == r as u32 {
                continue;
            }
            let id = next_id[r];
            let mut buf = vec![0u8; payload_len];
            buf[..8].copy_from_slice(&id.to_le_bytes());
            for (i, b) in buf[8..].iter_mut().enumerate() {
                *b = (id as u8) ^ (r as u8) ^ (i as u8);
            }
            let (ep, clock) = (&mut eps[r], &mut clocks[r]);
            // Fire and forget: an accepted rendezvous send's RTS is out and
            // its payload parked; the drain/quiescence pumping drives the
            // CTS → DATA completion, gated on `pending_rendezvous` below.
            match ep.isend_world(clock, Rank(peer), WORLD_CONTEXT, TRAFFIC_TAG, &buf) {
                Ok(_) => {
                    next_id[r] += 1;
                    accepted_total += 1;
                    report.sent.entry((r as u32, peer)).or_default().push(id);
                }
                Err(_) => report.send_rejects += 1,
            }
        }

        if plan.ckpt_every > 0 && (step + 1) % plan.ckpt_every == 0 {
            report.ckpt_rounds += 1;
            chaos_rec.mark(
                step_vt,
                "ckpt.round",
                &format!("index {}", report.ckpt_rounds),
            );
            for r in 0..plan.ranks {
                if dead[r as usize] {
                    continue;
                }
                let img = CkptImage::capture(
                    CHAOS_APP,
                    Rank(r),
                    Epoch(0),
                    report.ckpt_rounds,
                    CkptLevel::Vm { arch: MACHINES[0] },
                    &CkptValue::Int(report.ckpt_rounds as i64),
                    vec![],
                    clocks[r as usize].now(),
                )
                .expect("capture image");
                let receipt = store.put(img);
                report.replica_fragments += u64::from(receipt.fragments);
                if receipt.under_replicated {
                    report.replica_under_replicated += 1;
                }
            }
            sends_at_round.push(accepted_total);
        }
    }

    // ---- quiescence: repair the wire, then drain to a fixed point -------
    for a in 0..plan.nodes {
        for b in a + 1..plan.nodes {
            fabric.heal(NodeId(a), NodeId(b));
        }
    }
    fabric.clear_all_link_faults();
    // The quiescence deadline is a real-time escape hatch for a hung run,
    // not part of the virtual-time schedule: a converging run never consults
    // it, so determinism is unaffected.
    #[expect(clippy::disallowed_methods, reason = "`QUIESCE_DEADLINE` for a hang")]
    let deadline = Instant::now() + QUIESCE_DEADLINE;
    let mut quiet = 0u32;
    report.quiesced = true;
    let pending_rndv = |eps: &[MpiEndpoint], dead: &[bool]| -> usize {
        eps.iter()
            .zip(dead)
            .filter(|(_, d)| !**d)
            .map(|(e, _)| e.pending_rendezvous())
            .sum()
    };
    while quiet < 3 || fabric.queued_packets() > 0 || pending_rndv(&eps, &dead) > 0 {
        #[expect(clippy::disallowed_methods, reason = "`QUIESCE_DEADLINE` for a hang")]
        let overdue = Instant::now() > deadline;
        if overdue {
            report.quiesced = false;
            break;
        }
        // Flush phase first, then drain phase: every Flush/NACK emitted
        // this round is consumed this round once the system has settled.
        for r in 0..plan.ranks as usize {
            if !dead[r] {
                eps[r].flush_reliable(&mut clocks[r]);
            }
        }
        let before: usize = report.recv.values().map(Vec::len).sum();
        for r in 0..plan.ranks as usize {
            if !dead[r] {
                drain(&mut eps[r], &mut clocks[r], &mut report);
            }
        }
        let after: usize = report.recv.values().map(Vec::len).sum();
        if after == before {
            quiet += 1;
        } else {
            quiet = 0;
        }
    }

    report.stats = fabric.fault_stats();
    report.queued = fabric.queued_packets();
    report.rndv_pending = pending_rndv(&eps, &dead);
    report.dead_ranks = (0..plan.ranks).filter(|r| dead[*r as usize]).collect();
    let live: Vec<Rank> = (0..plan.ranks)
        .filter(|r| !dead[*r as usize])
        .map(Rank)
        .collect();
    report.nodes_lost = crashed_nodes.len() as u32;
    let mut restore_cost_ns: u64 = 0;
    report.line = store.latest_common_index(CHAOS_APP, &live);
    // Restorability is proven the hard way: actually read back every live
    // rank's image at the line to a live node — under `replica <k>`,
    // reassembled from surviving peer memory (parity rebuilds allowed).
    report.line_restorable = true;
    if report.line > 0 {
        let to = NodeId(live[0].0 % plan.nodes);
        for r in &live {
            match store.fetch(CHAOS_APP, *r, report.line, to) {
                Some(f) => {
                    report.replica_parity_rebuilds += u64::from(f.parity_rebuilds);
                    restore_cost_ns += f.cost.as_nanos();
                }
                None => report.line_restorable = false,
            }
        }
    }
    // ---- recovery forensics: a pure function of (plan, schedule) --------
    // The model mirrors what the live daemon's forensics module measures,
    // but on the driver's synthetic clock (step s fires at (s+1) µs): the
    // numbers are exact, so the forensic oracles can assert equalities.
    if let Some(crash_vt) = first_crash_vt {
        if let Some((interval_us, timeout_us)) = plan.heartbeat {
            report.detect_ns = Some(modeled_detect_ns(
                crash_vt,
                interval_us * 1_000,
                timeout_us * 1_000,
            ));
        }
        let end_vt = plan.steps as u64 * 1_000;
        let line_vt = report.line * plan.ckpt_every as u64 * 1_000;
        report.rollback_depth_ns = Some(end_vt.saturating_sub(line_vt));
        let at_line = if report.line > 0 {
            sends_at_round[report.line as usize - 1]
        } else {
            0
        };
        report.rollback_lost_msgs = Some(accepted_total - at_line);
        if plan.replica_k.is_some() && report.line > 0 && report.line_restorable {
            report.restore_ns = Some(restore_cost_ns);
        }
    }
    let traces = if traced {
        let mut t: Vec<ProcTrace> = recorders.iter().map(|r| r.dump()).collect();
        t.push(chaos_rec.dump());
        t
    } else {
        Vec::new()
    };
    (report, traces)
}

/// The heartbeat detector model: beacons fire at every multiple of
/// `interval_ns`; the crash silences them after the tick at or before
/// `crash_vt`; suspicion fires at the first later tick by which the node
/// has been silent longer than `timeout_ns`. Worst case over crash phase:
/// `timeout + 2 * interval`.
fn modeled_detect_ns(crash_vt: u64, interval_ns: u64, timeout_ns: u64) -> u64 {
    let last_beacon = (crash_vt / interval_ns) * interval_ns;
    let suspect = ((last_beacon + timeout_ns) / interval_ns + 1) * interval_ns;
    suspect - crash_vt
}

/// Assemble the postmortem bundle for a completed scenario run: the same
/// JSON shape the live daemon writes on a recovery, but fed entirely by
/// the driver's deterministic model, so two replays of one plan yield
/// byte-identical bundles. `None` when the plan crashed no node — there
/// was nothing to recover from.
pub fn postmortem(plan: &FaultPlan, report: &ScenarioReport) -> Option<Postmortem> {
    let crashes: Vec<(u64, u32, bool)> = plan
        .events
        .iter()
        .filter_map(|te| {
            let vt = (te.step as u64 + 1) * 1_000;
            match te.event {
                Event::Crash(n) => Some((vt, n, false)),
                Event::SilentCrash(n) => Some((vt, n, true)),
                _ => None,
            }
        })
        .collect();
    let &(crash_vt, first_node, silent) = crashes.first()?;
    let end_vt = plan.steps as u64 * 1_000;
    // With a modeled heartbeat the death declaration may land *after* the
    // last step (the detector's silence window outlives a short run); the
    // recovery window extends to cover it.
    let dead_vt = crash_vt + report.detect_ns.unwrap_or(0);
    let complete_vt = end_vt.max(dead_vt);
    let live_ranks = plan.ranks as usize - report.dead_ranks.len();

    let mut pm = Postmortem::new(CHAOS_APP.to_string());
    pm.epoch = u64::from(report.nodes_lost);
    pm.store_backend = match plan.replica_k {
        Some(k) => format!("replica:{k}"),
        None => "disk".into(),
    };
    pm.trigger = format!(
        "node n{first_node} dead ({})",
        if silent && plan.heartbeat.is_some() {
            "heartbeat timeout"
        } else {
            "fail-stop"
        }
    );
    pm.begin_vt_ns = crash_vt;
    pm.complete_vt_ns = complete_vt;
    if let Some(d) = report.detect_ns {
        pm.phases.push(Phase::virt("detect", d));
    }
    if let Some(r) = report.restore_ns {
        pm.phases.push(Phase::virt("restore", r));
    }
    pm.phases.push(Phase::virt(
        "respawn-window",
        complete_vt.saturating_sub(crash_vt),
    ));
    pm.rollback = Rollback {
        line: vec![report.line; live_ranks],
        depth_vt_ns: report.rollback_depth_ns.unwrap_or(0),
        messages_lost: report.rollback_lost_msgs.unwrap_or(0),
    };

    // The modeled event sequence, in the order the live bus would carry it.
    let mut kinds: Vec<(u64, EventKind)> = Vec::new();
    for &(vt, n, s) in &crashes {
        kinds.push((
            vt,
            EventKind::FaultInjected {
                desc: format!("{} n{n}", if s { "silent-crash" } else { "crash" }),
            },
        ));
    }
    if let (Some(d), Some((interval_us, _))) = (report.detect_ns, plan.heartbeat) {
        // At suspicion the node has been silent since its last beacon.
        let i = interval_us * 1_000;
        let last_beacon = (crash_vt / i) * i;
        kinds.push((
            dead_vt,
            EventKind::NodeSuspected {
                node: NodeId(first_node),
                silent_ns: crash_vt + d - last_beacon,
            },
        ));
    }
    kinds.push((
        dead_vt,
        EventKind::NodeDead {
            node: NodeId(first_node),
        },
    ));
    kinds.push((
        dead_vt,
        EventKind::RecoveryBegin {
            app: CHAOS_APP,
            dead: vec![NodeId(first_node)],
        },
    ));
    kinds.push((
        dead_vt,
        EventKind::RecoveryRestore {
            app: CHAOS_APP,
            epoch: Epoch(report.nodes_lost),
            line: vec![report.line; live_ranks],
        },
    ));
    kinds.push((
        complete_vt,
        EventKind::RecoveryComplete {
            app: CHAOS_APP,
            epoch: Epoch(report.nodes_lost),
        },
    ));
    kinds.sort_by_key(|(vt, _)| *vt);
    pm.events = kinds
        .into_iter()
        .enumerate()
        .map(|(seq, (vt, kind))| ClusterEvent {
            seq: seq as u64,
            vt: VirtualTime::from_nanos(vt),
            origin: NodeId(0),
            kind,
        })
        .collect();
    // Causal slice: the plan's full injection schedule (what the chaos
    // flight recorder logs during a traced run).
    pm.trace = plan
        .events
        .iter()
        .map(|te| format!("chaos: @{} {:?}", te.step, te.event))
        .collect();
    Some(pm)
}

/// Write the bundle for this plan under [`postmortem_dir`] as
/// `chaos-seed<seed>-e<epoch>.json`; returns the path.
pub fn write_postmortem(plan: &FaultPlan, pm: &Postmortem) -> std::io::Result<std::path::PathBuf> {
    let dir = postmortem_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("chaos-seed{}-e{}.json", plan.seed, pm.epoch));
    std::fs::write(&path, pm.to_json())?;
    Ok(path)
}

/// Mark every rank placed on node `n` dead.
fn mark_dead(dead: &mut [bool], plan: &FaultPlan, n: u32) {
    for r in 0..plan.ranks {
        if r % plan.nodes == n {
            dead[r as usize] = true;
        }
    }
}

/// Drain every matchable arrival at `ep` into the report.
fn drain(ep: &mut MpiEndpoint, clock: &mut VClock, report: &mut ScenarioReport) {
    while let Ok(Some(msg)) = ep.try_recv_world(clock, WORLD_CONTEXT, None, None) {
        let mut id = [0u8; 8];
        id.copy_from_slice(&msg.data[..8]);
        let id = u64::from_le_bytes(id);
        // The body past the id is a pure function of (sender, id): check it
        // so a mis-spliced rendezvous DATA merge cannot go unnoticed.
        let fill_ok = msg.data[8..]
            .iter()
            .enumerate()
            .all(|(i, b)| *b == (id as u8) ^ (msg.src.0 as u8) ^ (i as u8));
        if !fill_ok {
            report.payload_corruptions += 1;
        }
        report
            .recv
            .entry(ep.rank().0)
            .or_default()
            .push((msg.src.0, id));
    }
}
