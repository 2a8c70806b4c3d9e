//! Ensemble-family chaos: seeded churn scenarios against the
//! group-communication stack, judged by the two group oracles — **view
//! agreement** (surviving members converge on the same view with the same
//! membership) and **total order** (pairwise, the cast sequences of any two
//! survivors agree on every cast they both delivered). The stacks run from
//! this test's thread, each given a short wait per turn, under real-time
//! heartbeats, so the *verdict* is deterministic per seed even though
//! packet interleavings are not.
//!
//! The tail of the file drives the same machinery through the full
//! [`starfish::Cluster`]: a silently-crashed node must be evicted by the
//! heartbeat detector and a restarted daemon must rejoin under its old
//! identity.

use std::time::{Duration, Instant};

use bytes::Bytes;
use starfish_ensemble::{EndpointConfig, GcEvent, HeartbeatCfg, HeartbeatChaos, Stack};
use starfish_util::rng::DetRng;
use starfish_util::{NodeId, VirtualTime};
use starfish_vni::{Fabric, Ideal, LayerCosts};

const MARKER: u32 = u32::MAX;

fn encode(from: u32, id: u64) -> Bytes {
    let mut b = Vec::with_capacity(12);
    b.extend_from_slice(&from.to_le_bytes());
    b.extend_from_slice(&id.to_le_bytes());
    Bytes::from(b)
}

fn decode(p: &[u8]) -> (u32, u64) {
    let mut f = [0u8; 4];
    let mut i = [0u8; 8];
    f.copy_from_slice(&p[..4]);
    i.copy_from_slice(&p[4..12]);
    (u32::from_le_bytes(f), u64::from_le_bytes(i))
}

/// Survivor node id, its final view members, and its delivered casts in
/// order.
type SurvivorRow = (u32, Vec<NodeId>, Vec<(u32, u64)>);

struct EnsembleReport {
    survivors: Vec<SurvivorRow>,
}

/// One stack per node (index = node id), each turn given one short wait;
/// the casts each delivered, decoded.
struct Pump {
    stacks: Vec<Stack>,
    casts: Vec<Vec<(u32, u64)>>,
}

impl Pump {
    fn turn(&mut self) {
        for (stack, casts) in self.stacks.iter_mut().zip(&mut self.casts) {
            for ev in stack.wait(Duration::from_millis(1)) {
                if let GcEvent::Cast { payload, .. } = ev {
                    casts.push(decode(&payload));
                }
            }
        }
    }

    fn until(&mut self, what: &str, mut done: impl FnMut(&Pump) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(20);
        while !done(self) {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            self.turn();
        }
    }

    fn size(&self, n: u32) -> usize {
        self.stacks[n as usize].view().map_or(0, |v| v.size())
    }
}

/// One churn scenario derived from `seed`: boot 3–4 members under
/// heartbeat detection (optionally with seeded beacon-skip chaos), cast a
/// round of traffic, kill one member (fail-stop or silently), let the
/// survivors reconverge, cast again, then drain to a marker.
fn run_ensemble_scenario(seed: u64) -> EnsembleReport {
    let mut rng = DetRng::new(seed).derive(0x454E53); // "ENS"
    let nodes = 3 + rng.below(2) as u32; // 3..=4
    let victim = rng.below(nodes as u64) as u32;
    let silent = rng.chance(0.5);
    let skip_p = if rng.chance(0.5) { 0.15 } else { 0.0 };

    let cfg = || EndpointConfig {
        heartbeat: Some(HeartbeatCfg {
            interval: Duration::from_millis(50),
            timeout: Duration::from_millis(400),
        }),
        chaos: (skip_p > 0.0).then_some(HeartbeatChaos { seed, skip_p }),
        ..EndpointConfig::default()
    };

    let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
    let mut p = Pump {
        stacks: Vec::new(),
        casts: Vec::new(),
    };
    for n in 0..nodes {
        f.add_node(NodeId(n));
        let contact = (n > 0).then_some(NodeId(0));
        p.stacks
            .push(Stack::start(&f, NodeId(n), contact, cfg()).unwrap());
        p.casts.push(Vec::new());
        p.until("the join", |p| p.size(n) == n as usize + 1);
    }
    p.until("the booted group", |p| {
        (0..nodes).all(|n| p.size(n) == nodes as usize)
    });

    // Round 1: two casts per member.
    for n in 0..nodes {
        for id in 0..2u64 {
            p.stacks[n as usize].cast(encode(n, id), VirtualTime::ZERO);
        }
    }

    if silent {
        f.crash_node_silently(NodeId(victim));
    } else {
        f.crash_node(NodeId(victim));
    }
    let survivors: Vec<u32> = (0..nodes).filter(|n| *n != victim).collect();
    let all = survivors.len();
    p.until("the survivors' view", |p| {
        survivors.iter().all(|n| p.size(*n) == all)
    });

    // Round 2 from the survivors, then a drain marker from the lowest.
    for n in &survivors {
        p.stacks[*n as usize].cast(encode(*n, 2), VirtualTime::ZERO);
    }
    p.stacks[survivors[0] as usize].cast(encode(MARKER, 0), VirtualTime::ZERO);
    let marked = |p: &Pump, n: u32| p.casts[n as usize].iter().any(|(from, _)| *from == MARKER);
    p.until(&format!("seed {seed}: the drain marker"), |p| {
        survivors.iter().all(|n| marked(p, *n))
    });

    let mut report = EnsembleReport {
        survivors: Vec::new(),
    };
    for n in &survivors {
        let got = p.casts[*n as usize]
            .iter()
            .take_while(|(from, _)| *from != MARKER);
        let view = p.stacks[*n as usize].view().expect("survivor has a view");
        report
            .survivors
            .push((*n, view.members.clone(), got.copied().collect()));
    }
    report
}

/// Oracle: view agreement — all survivors report identical membership,
/// and it is exactly the survivor set.
fn check_view_agreement(seed: u64, r: &EnsembleReport) {
    let expect: Vec<NodeId> = r.survivors.iter().map(|(n, _, _)| NodeId(*n)).collect();
    for (n, members, _) in &r.survivors {
        assert_eq!(
            *members, expect,
            "seed {seed}: node {n} disagrees on the surviving membership"
        );
    }
}

/// Oracle: total order — any two survivors deliver the casts they have in
/// common in the same order, and nobody delivers a cast twice.
fn check_total_order(seed: u64, r: &EnsembleReport) {
    for (n, _, casts) in &r.survivors {
        let mut dedup = casts.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            casts.len(),
            "seed {seed}: node {n} delivered a cast twice"
        );
    }
    for (i, (na, _, a)) in r.survivors.iter().enumerate() {
        for (nb, _, b) in &r.survivors[i + 1..] {
            let common_a: Vec<_> = a.iter().filter(|c| b.contains(c)).collect();
            let common_b: Vec<_> = b.iter().filter(|c| a.contains(c)).collect();
            assert_eq!(
                common_a, common_b,
                "seed {seed}: total order diverged between nodes {na} and {nb}"
            );
        }
    }
}

#[test]
fn seeded_churn_scenarios_uphold_group_oracles() {
    for seed in 0..6u64 {
        let r = run_ensemble_scenario(seed);
        check_view_agreement(seed, &r);
        check_total_order(seed, &r);
    }
}

#[test]
fn churn_verdict_is_reproducible_per_seed() {
    // The interleavings are concurrent, but the oracle verdict (and the
    // survivor membership itself) must be a pure function of the seed.
    for seed in [1u64, 4] {
        let a = run_ensemble_scenario(seed);
        let b = run_ensemble_scenario(seed);
        let ms = |r: &EnsembleReport| {
            r.survivors
                .iter()
                .map(|(n, m, _)| (*n, m.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(ms(&a), ms(&b), "seed {seed}: membership verdict diverged");
    }
}

// ---- full-cluster chaos: silent crash, heartbeat eviction, restart -----

#[test]
fn cluster_evicts_silent_crash_and_restart_rejoins() {
    let cluster = starfish::Cluster::builder()
        .nodes(3)
        .network(Box::new(Ideal))
        .layers(LayerCosts::zero())
        .heartbeat(Duration::from_millis(50), Duration::from_millis(400))
        .build()
        .unwrap();
    // A hang emits no fabric event: only the heartbeat detector (enabled
    // through the builder knob) can evict the node from the replicated
    // configuration.
    cluster.fabric().crash_node_silently(NodeId(2));
    cluster
        .daemon()
        .wait_config(Duration::from_secs(20), |c| {
            c.up_nodes() == vec![NodeId(0), NodeId(1)]
        })
        .unwrap();
    // The recovered workstation rejoins under its old identity.
    cluster.restart_node(NodeId(2)).unwrap();
    cluster
        .daemon()
        .wait_config(Duration::from_secs(20), |c| c.up_nodes().len() == 3)
        .unwrap();
    assert!(cluster.daemon_of(NodeId(2)).is_some());
}

#[test]
fn cluster_restart_after_fail_stop_crash() {
    let cluster = starfish::Cluster::builder()
        .nodes(3)
        .network(Box::new(Ideal))
        .layers(LayerCosts::zero())
        .build()
        .unwrap();
    cluster.crash_node(NodeId(1));
    cluster
        .daemon()
        .wait_config(Duration::from_secs(20), |c| c.up_nodes().len() == 2)
        .unwrap();
    // Restarting an up node is rejected; restarting the crashed one works.
    assert!(cluster.restart_node(NodeId(0)).is_err());
    cluster.restart_node(NodeId(1)).unwrap();
    cluster
        .daemon()
        .wait_config(Duration::from_secs(20), |c| c.up_nodes().len() == 3)
        .unwrap();
}

/// The rejoining daemon with the smallest id coordinates the view before
/// it is bootstrapped: the state transfer, and any failure response in that
/// window, must come from the smallest *live* member instead.
#[test]
fn cluster_restart_of_the_lowest_node_id() {
    const T: Duration = Duration::from_secs(20);
    let cluster = starfish::Cluster::builder()
        .nodes(3)
        .network(Box::new(Ideal))
        .layers(LayerCosts::zero())
        .build()
        .unwrap();
    cluster.crash_node(NodeId(0));
    cluster
        .daemon()
        .wait_config(T, |c| c.up_nodes().len() == 2)
        .unwrap();
    cluster.restart_node(NodeId(0)).unwrap();
    cluster
        .daemon()
        .wait_config(T, |c| c.up_nodes().len() == 3)
        .unwrap();
    // The rejoined daemon is a full member again: new work schedules.
    cluster.register_app("after-rejoin", |ctx| {
        ctx.publish(starfish_checkpoint::CkptValue::Unit);
        Ok(())
    });
    let app = cluster
        .submit("after-rejoin", 2, starfish::SubmitOpts::default())
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
}

/// ROADMAP 1(b), the checkpoint-cadence form: a job checkpointing every 50
/// iterations as fast as it can loses rank 1's host, and that host is
/// restarted while the job recovers and goes on checkpointing. The rejoin
/// takes milliseconds (the report was the 30 s `wait_config` timeout) and
/// the job finishes with the failure-free answer.
#[test]
fn cluster_restart_under_a_frequently_checkpointing_job() {
    use starfish::{CkptValue, Rank, ReduceOp};
    const T: Duration = Duration::from_secs(60);
    const ITERS: i64 = 20_000;
    let cluster = starfish::Cluster::builder().nodes(3).build().unwrap();
    cluster.register_app("cadence", |ctx| {
        let restored = ctx.restored();
        let int = |f| {
            restored
                .as_ref()
                .and_then(|v| v.field(f)?.as_int())
                .unwrap_or(0)
        };
        let (mut iter, mut acc) = (int("iter"), int("acc"));
        while iter < ITERS {
            if iter % 50 == 0 && iter > 0 {
                let at = [("iter", CkptValue::Int(iter)), ("acc", CkptValue::Int(acc))];
                ctx.checkpoint(&CkptValue::record(at.to_vec()))?;
            }
            acc += ctx.allreduce_i64(&[ctx.rank().0 as i64 + 1], ReduceOp::Sum)?[0];
            iter += 1;
        }
        ctx.publish(CkptValue::Int(acc));
        Ok(())
    });
    let app = cluster
        .submit("cadence", 2, starfish::SubmitOpts::default())
        .unwrap();
    let ranks = [Rank(0), Rank(1)];
    cluster
        .store()
        .wait_common_index(app, &ranks, 1, T)
        .unwrap();
    let host = cluster.config().apps[&app].placement[1];
    cluster.crash_node(host);
    let started = std::time::Instant::now();
    cluster.restart_node(host).unwrap();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(5), "restart_node took {took:?}");
    assert!(cluster.config().up_nodes().contains(&host));
    cluster.wait_app_done(app, T).unwrap();
    assert_eq!(
        cluster.config().apps[&app].epoch.0,
        1,
        "the job did recover"
    );
    for r in ranks {
        let out = cluster.outputs(app, r);
        assert_eq!(out, vec![CkptValue::Int(3 * ITERS)], "{r}");
    }
}
