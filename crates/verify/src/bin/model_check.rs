//! Exhaustive model-check driver: runs every configuration from
//! VERIFICATION.md, prints state-space sizes and wall times, and — on a
//! violation — writes the counterexample as a `FaultPlan` to
//! `target/model-check/` (uploaded as a CI artifact) before exiting 1.
//!
//! Wall-clock use is fine here: `verify` is tooling, and its one clock
//! read times the explorations for the report.

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use starfish_daemon::FtPolicy;
use verify::counterexample;
use verify::explorer::{explore, Model, Options, Report};
use verify::models::chandy::ChandyModel;
use verify::models::credit::CreditModel;
use verify::models::daemon::DaemonModel;
use verify::models::membership::MembershipModel;
use verify::models::rank_cr::RankCrModel;
use verify::models::reliability::ReliabilityModel;
use verify::models::rendezvous::RendezvousModel;
use verify::models::replica::ReplicaPushModel;
use verify::models::ring::RingModel;
use verify::models::stop_sync::StopSyncModel;

fn run<M: Model>(name: &str, nodes: u32, ranks: u32, m: &M, failed: &mut bool) -> Report {
    #[expect(clippy::disallowed_methods, reason = "times each exploration")]
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

/// A mutation row: switched back on, a fixed defect must be found again.
fn must_find<M: Model>(name: &str, m: &M, failed: &mut bool) {
    let r = explore(m, Options::default());
    match r.violation {
        Some(v) => {
            let (kind, steps, why) = (v.kind, v.trace.len(), v.message);
            let states = r.states;
            println!("{name}: {kind:?} after {steps} steps ({states} states): {why}");
        }
        None => {
            println!("ERROR: {name} found nothing — model broken");
            *failed = true;
        }
    }
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

    println!("== checkpoint: rank C/R service loop (RankCr x stop-and-sync) ==");
    // A ring of blocking exchanges and a checkpoint() per step; segs=2 puts
    // a crash inside a ring step and a plain safepoint, kept or refreshed,
    // between its exchanges; segs=3 puts two there.
    for (ranks, steps, segs, crashes) in [(3, 2, 1, 0), (3, 2, 1, 1), (3, 2, 2, 1), (3, 1, 3, 1)] {
        run(
            &format!("rank-cr ranks={ranks} steps={steps} segs={segs} crashes={crashes}"),
            ranks,
            ranks,
            &RankCrModel::ring(ranks, steps, segs, crashes),
            &mut failed,
        );
    }
    // The defects the machine and its shell avoid, switched back on: each
    // must be found again.
    println!("== checkpoint: rank C/R mutations (expected counterexamples) ==");
    let ring = RankCrModel::ring(3, 2, 1, 1);
    let late_claim = RankCrModel {
        late_claim: true,
        ..ring
    };
    must_find("rank-cr late-claim", &late_claim, &mut failed);
    let resend = RankCrModel {
        resend: true,
        ..ring
    };
    must_find("rank-cr resend", &resend, &mut failed);
    let reset_on_keep = RankCrModel {
        reset_on_keep: true,
        ..RankCrModel::ring(3, 1, 2, 1)
    };
    must_find("rank-cr reset-on-keep", &reset_on_keep, &mut failed);

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
    let solo = |joiner| MembershipModel {
        joiner: Some(joiner),
        ..MembershipModel::SOLO
    };
    for (name, m) in [
        ("casts=3", MembershipModel { casts: 3, ..trio }),
        ("casts=2 crash=n0 (sequencer)", crash(&[0])),
        ("casts=2 crash=n0,n2 (member, mid-change)", crash(&[0, 2])),
        ("casts=2 crash=n0,n1 (recovery coord.)", crash(&[0, 1])),
        ("casts=3 join=n3 (largest id)", join(3, 2)),
        ("casts=3 join=n0 (hand-over)", join(0, 2)),
        ("casts=3 join=n0, old coordinator casts", join(0, 1)),
        ("casts=2 group of one, join=n2", solo(2)),
        ("casts=2 group of one, join=n0 (hand-over)", solo(0)),
        ("casts=2 leave=n2", leave(2)),
        ("casts=2 leave=n0 (coordinator)", leave(0)),
    ] {
        run(&format!("membership {name}"), 4, 4, &m, &mut failed);
    }

    println!("== daemon: the Node reducer over Group ==");
    let restart = DaemonModel::job(FtPolicy::Restart);
    let crash = DaemonModel {
        victim: Some(1),
        responder: Some(0),
        ..restart
    };
    let join = DaemonModel {
        joiner: true,
        responder: Some(0),
        ..restart
    };
    let rejoin = DaemonModel {
        victim: Some(0),
        rejoin: true,
        spare_n0: false,
        ..DaemonModel::job(FtPolicy::NotifyView)
    };
    let kill = DaemonModel {
        policy: FtPolicy::Kill,
        ..crash
    };
    for (name, m) in [
        ("crash=n1, acting n0 may crash (a)", crash),
        ("crash=n1, kill, acting n0 may crash (d)", kill),
        ("join=n3, answering n0 may crash (b)", join),
        ("crash=n0, rejoin=n0, notify-view (c)", rejoin),
    ] {
        run(&format!("daemon {name}"), 4, 2, &m, &mut failed);
    }
    // The two defects the reducer fixed, switched back on.
    println!("== daemon: mutations (expected counterexamples) ==");
    let fresh_dead_only = DaemonModel {
        fresh_dead_only: true,
        ..crash
    };
    must_find("daemon fresh-dead-only", &fresh_dead_only, &mut failed);
    let ask_once = DaemonModel {
        ask_once: true,
        ..join
    };
    must_find("daemon ask-once", &ask_once, &mut failed);

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

    println!("== mpi: eager credit (count on frames, returns and grants) ==");
    // units=8: every payload is half the ceiling, so the third waits on the
    // first's credit; units=4 leaves counts that only frames report.
    let credit = |msgs, units, frames, drops, dups| CreditModel {
        msgs,
        units,
        frames,
        max_drops: drops,
        max_dups: dups,
        delta: false,
    };
    for m in [
        credit(3, 8, 2, 1, 1),
        credit(4, 8, 2, 2, 1),
        credit(5, 4, 3, 1, 1),
        credit(2, 16, 2, 2, 1),
    ] {
        let name = format!(
            "credit msgs={} units={} frames={} drops={} dups={}",
            m.msgs, m.units, m.frames, m.max_drops, m.max_dups
        );
        run(&name, 2, 2, &m, &mut failed);
    }
    println!("== mpi: eager credit mutation (expected counterexample) ==");
    let delta = CreditModel {
        delta: true,
        ..credit(3, 8, 2, 1, 1)
    };
    must_find("credit delta-count", &delta, &mut failed);

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
