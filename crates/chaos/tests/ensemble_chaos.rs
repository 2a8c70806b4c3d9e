//! Ensemble-family chaos: seeded churn scenarios against the threaded
//! group-communication stack, judged by the two group oracles —
//! **view agreement** (surviving members converge on the same view with
//! the same membership) and **total order** (pairwise, the cast sequences
//! of any two survivors agree on every cast they both delivered). These
//! scenarios are real-time concurrent, so the *verdict* is deterministic
//! per seed even though packet interleavings are not.
//!
//! The tail of the file drives the same machinery through the full
//! [`starfish::Cluster`]: a silently-crashed node must be evicted by the
//! heartbeat detector and a restarted daemon must rejoin under its old
//! identity.

use std::time::Duration;

use bytes::Bytes;
use starfish_ensemble::{Endpoint, EndpointConfig, GcEvent, HeartbeatCfg, HeartbeatChaos};
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

    let cfg = |_node: u32| EndpointConfig {
        heartbeat: Some(HeartbeatCfg {
            interval: Duration::from_millis(50),
            timeout: Duration::from_millis(400),
        }),
        chaos: (skip_p > 0.0).then_some(HeartbeatChaos { seed, skip_p }),
        ..EndpointConfig::default()
    };

    let f = Fabric::new(Box::new(Ideal), LayerCosts::zero());
    for n in 0..nodes {
        f.add_node(NodeId(n));
    }
    let mut eps = vec![Endpoint::found(&f, NodeId(0), cfg(0)).unwrap()];
    for n in 1..nodes {
        let e = Endpoint::join(&f, NodeId(n), NodeId(0), cfg(n)).unwrap();
        e.wait_for_view_size(n as usize + 1, Duration::from_secs(10))
            .unwrap();
        eps.push(e);
    }
    // Settle everyone but the last joiner: `wait_for_view_size` consumes
    // from the events channel, and the last joiner's own join-wait already
    // consumed its size-`nodes` view event.
    for e in &eps[..eps.len() - 1] {
        e.wait_for_view_size(nodes as usize, Duration::from_secs(10))
            .unwrap();
    }

    // Round 1: two casts per member.
    for (n, e) in eps.iter().enumerate() {
        for id in 0..2u64 {
            e.cast(encode(n as u32, id), VirtualTime::ZERO).unwrap();
        }
    }

    if silent {
        f.crash_node_silently(NodeId(victim));
    } else {
        f.crash_node(NodeId(victim));
    }
    let survivors: Vec<u32> = (0..nodes).filter(|n| *n != victim).collect();
    for n in &survivors {
        eps[*n as usize]
            .wait_for_view_size(survivors.len(), Duration::from_secs(20))
            .unwrap();
    }

    // Round 2 from the survivors, then a drain marker from the lowest.
    for n in &survivors {
        eps[*n as usize]
            .cast(encode(*n, 2), VirtualTime::ZERO)
            .unwrap();
    }
    eps[survivors[0] as usize]
        .cast(encode(MARKER, 0), VirtualTime::ZERO)
        .unwrap();

    let mut report = EnsembleReport {
        survivors: Vec::new(),
    };
    for n in &survivors {
        let e = &eps[*n as usize];
        let mut got = Vec::new();
        let deadline = std::time::Instant::now() + Duration::from_secs(20);
        loop {
            match e.events().recv_timeout(Duration::from_millis(200)) {
                Ok(GcEvent::Cast { payload, .. }) => {
                    let (from, id) = decode(&payload);
                    if from == MARKER {
                        break;
                    }
                    got.push((from, id));
                }
                Ok(_) => {}
                Err(_) => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "seed {seed}: node {n} never saw the drain marker"
                    );
                }
            }
        }
        let view = e.current_view().expect("survivor has a view");
        report.survivors.push((*n, view.members, got));
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
        .ckpt_hub()
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
