//! Exhaustive model-check driver: runs every configuration from
//! VERIFICATION.md, prints state-space sizes and wall times, and — on a
//! violation — writes the counterexample as a `FaultPlan` to
//! `target/model-check/` (uploaded as a CI artifact) before exiting 1.
//!
//! Wall-clock use is fine here: `verify` is tooling, not one of the
//! virtual-time-deterministic crates `starfish-lint` polices.

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use verify::counterexample;
use verify::explorer::{explore, Model, Options, Report};
use verify::models::chandy::ChandyModel;
use verify::models::membership::MembershipModel;
use verify::models::reliability::ReliabilityModel;
use verify::models::rendezvous::RendezvousModel;
use verify::models::replica::ReplicaPushModel;
use verify::models::ring::RingModel;
use verify::models::stop_sync::StopSyncModel;

fn run<M: Model>(name: &str, nodes: u32, ranks: u32, m: &M, failed: &mut bool) -> Report {
    let t0 = Instant::now();
    let r = explore(m, Options::default());
    let dt = t0.elapsed();
    println!(
        "{name:<44} states {:>8}  transitions {:>9}  depth {:>3}  accepting {:>7}  {:>8.2?}{}",
        r.states,
        r.transitions,
        r.max_depth,
        r.accepting,
        dt,
        if r.complete { "" } else { "  (TRUNCATED)" },
    );
    if let Some(v) = &r.violation {
        *failed = true;
        println!("  VIOLATION [{:?}] {}", v.kind, v.message);
        for (i, a) in v.trace.iter().enumerate() {
            println!("    {i:>3}. {a}");
        }
        let plan = counterexample::render_plan_commented(name, v, nodes, ranks);
        counterexample::assert_parses(&plan);
        let dir = Path::new("target/model-check");
        let _ = fs::create_dir_all(dir);
        let file = dir.join(format!("{}.plan", name.replace(' ', "-")));
        if fs::write(&file, &plan).is_ok() {
            println!("  counterexample plan written to {}", file.display());
        }
    }
    r
}

fn main() -> ExitCode {
    let mut failed = false;

    println!("== checkpoint: stop-and-sync ==");
    for (ranks, crashes, rounds) in [(2, 0, 3), (3, 1, 2), (4, 1, 1), (3, 2, 2)] {
        run(
            &format!("stop-sync ranks={ranks} crashes={crashes} rounds={rounds}"),
            ranks,
            ranks,
            &StopSyncModel {
                ranks,
                crashes,
                rounds,
            },
            &mut failed,
        );
    }

    println!("== checkpoint: chandy-lamport ==");
    for (ranks, rounds) in [(3, 2), (4, 1)] {
        run(
            &format!("chandy-lamport ranks={ranks} rounds={rounds}"),
            ranks,
            ranks,
            &ChandyModel { ranks, rounds },
            &mut failed,
        );
    }

    println!("== checkpoint: replica placement ==");
    for (peers, frags, k, crashes) in [(4, 3, 2, 2), (3, 2, 3, 2), (3, 3, 1, 1)] {
        run(
            &format!("replica-push peers={peers} frags={frags} k={k} crashes={crashes}"),
            peers + 1,
            1,
            &ReplicaPushModel {
                peers,
                frags,
                k,
                crashes,
            },
            &mut failed,
        );
    }

    println!("== ensemble: membership ==");
    let (trio, pair) = (MembershipModel::TRIO, MembershipModel::PAIR);
    let crash = |crashes| MembershipModel { crashes, ..trio };
    let join = |joiner, caster| MembershipModel {
        joiner: Some(joiner),
        caster,
        casts: 3,
        ..pair
    };
    let leave = |leaver| MembershipModel {
        leaver: Some(leaver),
        ..trio
    };
    for (name, m) in [
        ("casts=3", MembershipModel { casts: 3, ..trio }),
        ("casts=2 crash=n0 (sequencer)", crash(&[0])),
        ("casts=2 crash=n0,n2 (member, mid-change)", crash(&[0, 2])),
        ("casts=2 crash=n0,n1 (recovery coord.)", crash(&[0, 1])),
        ("casts=3 join=n3 (largest id)", join(3, 2)),
        ("casts=3 join=n0 (hand-over)", join(0, 2)),
        ("casts=3 join=n0, old coordinator casts", join(0, 1)),
        ("casts=2 leave=n2", leave(2)),
        ("casts=2 leave=n0 (coordinator)", leave(0)),
    ] {
        run(&format!("membership {name}"), 4, 4, &m, &mut failed);
    }

    println!("== mpi: reliability ==");
    for (total, drops, dups) in [(3, 2, 1), (4, 2, 0)] {
        run(
            &format!("reliability total={total} drops={drops} dups={dups}"),
            2,
            2,
            &ReliabilityModel {
                total,
                max_drops: drops,
                max_dups: dups,
                reliable: true,
                window: 8,
            },
            &mut failed,
        );
    }

    println!("== mpi: rendezvous (pipelined chunks) ==");
    // chunks=4 parks a two-chunk tail behind the two-chunk early window.
    for (transfers, chunks, drops, dups) in [(2, 2, 2, 1), (2, 3, 1, 0), (1, 4, 2, 1)] {
        run(
            &format!("rendezvous transfers={transfers} chunks={chunks} drops={drops} dups={dups}"),
            2,
            2,
            &RendezvousModel {
                transfers,
                chunks,
                max_drops: drops,
                max_dups: dups,
                window: 8,
                broken_cts: false,
                datamark_push: false,
            },
            &mut failed,
        );
    }
    // Crash-mid-chunk recovery: the grant path is dead and only the
    // checkpoint DataMark push can release parked tails — must converge.
    run(
        "rendezvous datamark-push no-cts chunks=2",
        2,
        2,
        &RendezvousModel {
            transfers: 2,
            chunks: 2,
            max_drops: 1,
            max_dups: 0,
            window: 8,
            broken_cts: true,
            datamark_push: true,
        },
        &mut failed,
    );

    println!("== mpi: ring reduce-scatter ==");
    for (drops, dups) in [(1, 1), (2, 0)] {
        run(
            &format!("ring-reduce-scatter ranks=3 drops={drops} dups={dups}"),
            3,
            3,
            &RingModel {
                ranks: 3,
                max_drops: drops,
                max_dups: dups,
                window: 8,
            },
            &mut failed,
        );
    }

    // The known-bad configuration: raw datagrams lose messages. This one is
    // *expected* to produce a counterexample; it becomes the bridge plan.
    println!("== mpi: raw datagrams (expected counterexample) ==");
    match verify::models::reliability::find_unreliable_loss(3, 1) {
        Some((trace, delivered)) => {
            let plan = counterexample::unreliable_loss_plan(&trace, &delivered);
            counterexample::assert_parses(&plan);
            let dir = Path::new("target/model-check");
            let _ = fs::create_dir_all(dir);
            let file = dir.join("unreliable-loss.plan");
            let _ = fs::write(&file, &plan);
            println!(
                "unreliable loss witnessed in {} steps, delivered {delivered:?}; plan at {}",
                trace.len(),
                file.display()
            );
        }
        None => {
            println!("ERROR: raw datagram path failed to lose a message — model broken");
            failed = true;
        }
    }

    if failed {
        println!("model-check: VIOLATIONS FOUND (plans in target/model-check/)");
        ExitCode::FAILURE
    } else {
        println!("model-check: all configurations clean");
        ExitCode::SUCCESS
    }
}
