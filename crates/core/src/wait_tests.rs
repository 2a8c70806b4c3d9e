//! Deterministic tests of the rank's wait point.
//!
//! The rig is a hand-built rank of a two-rank stop-and-sync application:
//! rank 1, a member, unless a test asks for the coordinator, rank 0. The
//! test plays everything around it: its daemon (holding the real
//! [`DownLink`] and the receiving end of a `KickSender` for `ProcUp`, as a
//! node loop does) and its peer, the other rank (a bare MPI endpoint). Nothing
//! here sleeps, and the assertions count service points, not time: a rank
//! that waits correctly runs one service point per thing delivered to it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver};

use starfish_checkpoint::backend::CkptBackend;
use starfish_checkpoint::proto::CrMsg;
use starfish_checkpoint::store::CkptStore;
use starfish_checkpoint::CkptValue;
use starfish_daemon::config::{AppEntry, AppSpec, AppStatus};
use starfish_daemon::{CkptProto, DownLink, FtPolicy, LevelKind, ProcDown, ProcUp, RelayKind};
use starfish_mpi::wire::WORLD_CONTEXT;
use starfish_mpi::{MpiEndpoint, RankDirectory, RecvMode};
use starfish_telemetry::metric;
use starfish_util::codec::{Decode, Encode};
use starfish_util::trace::TraceSink;
use starfish_util::{AppId, Epoch, Error, NodeId, Rank, Result, VClock, VirtualTime};
use starfish_vni::{Addr, Fabric, Ideal, KickSender, LayerCosts};

use crate::ctx::Ctx;
use crate::runtime::{process_main, Outputs, ProcessRuntime};

const T: Duration = Duration::from_secs(30);
const APP: AppId = AppId(1);

/// What the test holds of the world around the rig's rank.
struct Rig {
    me: Rank,
    /// The daemon's side of the rank's message queues. Nobody parks on the
    /// wait point `up`'s senders kick (the test blocks on the queue).
    down: DownLink,
    up: Receiver<(AppId, Rank, Vec<ProcUp>)>,
    /// What came up in one message but was not looked at yet.
    unread: VecDeque<ProcUp>,
    /// The other rank, and its clock.
    peer: MpiEndpoint,
    clock: VClock,
}

fn rig() -> (Rig, ProcessRuntime) {
    rig_of(Rank(1))
}

fn rig_of(me: Rank) -> (Rig, ProcessRuntime) {
    let fabric = Fabric::new(Box::new(Ideal), LayerCosts::zero());
    fabric.add_node(NodeId(0));
    fabric.add_node(NodeId(1));
    let dir = RankDirectory::with_placement(&[NodeId(0), NodeId(1)]);
    let ep = |r| {
        MpiEndpoint::new(
            &fabric,
            APP,
            Rank(r),
            dir.clone(),
            RecvMode::Polled,
            TraceSink::disabled(),
        )
        .unwrap()
    };
    let entry = AppEntry {
        id: APP,
        spec: AppSpec {
            name: "rig".into(),
            size: 2,
            policy: FtPolicy::Restart,
            level: LevelKind::Vm,
            proto: CkptProto::StopAndSync,
            backend: CkptBackend::Disk,
            owner: "t".into(),
            token: 1,
        },
        placement: vec![NodeId(0), NodeId(1)],
        status: AppStatus::Running,
        epoch: Epoch(0),
        done_ranks: 0,
        lost: Vec::new(),
    };
    let (down_tx, down_rx) = channel::unbounded();
    let (up_tx, up) = channel::unbounded();
    let daemon_port = fabric.bind(Addr::daemon(NodeId(me.0))).unwrap();
    let up_tx = Arc::new(KickSender::new(up_tx, daemon_port.kicker()));
    let rt = ProcessRuntime::new(
        entry,
        me,
        NodeId(me.0),
        starfish_checkpoint::arch::DEFAULT_ARCH,
        ep(me.0),
        down_rx,
        up_tx,
        CkptStore::new(),
        Outputs::new(),
        VirtualTime::ZERO,
        0,
        starfish_telemetry::Registry::new(),
    );
    let rig = Rig {
        me,
        down: DownLink::new(
            KickSender::new(down_tx, rt.mpi.kicker()),
            rt.abort_flag.clone(),
        ),
        up,
        unread: VecDeque::new(),
        peer: ep(1 - me.0),
        clock: VClock::new(),
    };
    (rig, rt)
}

impl Rig {
    fn other(&self) -> Rank {
        Rank(1 - self.me.0)
    }

    /// The daemon relays a C/R control message from the other rank.
    fn relay(&self, msg: CrMsg) {
        self.down.send(ProcDown::Relay {
            kind: RelayKind::CheckpointRestart,
            from: self.other(),
            body: msg.encode_to_bytes(),
            vt: VirtualTime::ZERO,
        });
    }

    /// The other rank sends the rig's rank a data message.
    fn go(&mut self, tag: u64) {
        self.peer
            .send_world(&mut self.clock, self.me, WORLD_CONTEXT, tag, b"go")
            .unwrap();
    }

    /// The other rank puts a flush mark on the data path.
    fn flush_mark(&mut self, index: u64) {
        let body = CrMsg::FlushMark { index }.encode_to_bytes();
        self.peer
            .send_ctrl_mark(&mut self.clock, self.me, &body)
            .unwrap();
    }

    /// Block until the rig's flush mark for `index` reaches the other rank:
    /// proof that it has serviced (or, coordinating, started) that round.
    fn await_flush_mark(&mut self, index: u64) {
        let marks = self.peer.wait_ctrl(&mut self.clock, T).unwrap();
        let got: Vec<CrMsg> = marks
            .iter()
            .map(|(_, body, _)| CrMsg::decode_from_bytes(body).unwrap())
            .collect();
        assert_eq!(got, vec![CrMsg::FlushMark { index }]);
    }

    /// Block until the rig's rank sends up a message `pick` accepts (stats
    /// flushes and the like are skipped).
    fn await_up<R>(&mut self, mut pick: impl FnMut(ProcUp) -> Option<R>) -> R {
        loop {
            if self.unread.is_empty() {
                let (_, _, msgs) = self.up.recv_timeout(T).expect("the rank went quiet");
                self.unread.extend(msgs);
            }
            let msg = self.unread.pop_front().expect("a message");
            if let Some(r) = pick(msg) {
                return r;
            }
        }
    }

    fn await_saved(&mut self, index: u64) {
        let me = self.me;
        self.await_up(|m| match m {
            ProcUp::SendTo { body, .. } => {
                let saved = CrMsg::decode_from_bytes(&body).unwrap();
                assert_eq!(saved, CrMsg::Saved { rank: me, index });
                Some(())
            }
            _ => None,
        })
    }

    fn await_done(&mut self) {
        self.await_up(|m| matches!(m, ProcUp::Done { .. }).then_some(()))
    }
}

fn run(
    rt: ProcessRuntime,
    app: impl Fn(&mut Ctx<'_>) -> Result<()> + Send + Sync + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || process_main(rt, Arc::new(app)))
}

/// Held in `hold_while_stopped`, then as a member inside `Ctx::checkpoint`,
/// the rank runs a service point per delivery (a packet, a relayed daemon
/// message) — not per millisecond, and not in a spin.
#[test]
fn held_rank_services_once_per_delivery() {
    let (mut rig, rt) = rig();
    let (report, counts) = channel::unbounded();
    let rank = run(rt, move |ctx| {
        // Blocked in a receive when round 1's Stop is relayed.
        ctx.recv(Some(Rank(0)), Some(1))?;
        assert!(ctx.rt.cr.held(), "the Stop was serviced inside recv");
        let before = ctx.rt.service_calls;
        ctx.send(Rank(0), 2, b"held")?; // waits out the round
        report.send(ctx.rt.service_calls - before).unwrap();
        // Captured outside a call, round 1 is owed to the next one.
        ctx.checkpoint(&CkptValue::Unit)?;
        assert_eq!(ctx.rt.cr.last_index(), 1);
        let before = ctx.rt.service_calls;
        ctx.checkpoint(&CkptValue::Unit)?; // round 2, as a member
        report.send(ctx.rt.service_calls - before).unwrap();
        Ok(())
    });

    // Round 1 up to the point where rank 1 is held in its send.
    rig.relay(CrMsg::Stop { index: 1 });
    rig.await_flush_mark(1);
    rig.go(1);
    // Two deliveries finish the round: rank 0's mark, then the Resume.
    rig.flush_mark(1);
    rig.await_saved(1);
    rig.relay(CrMsg::Resume { index: 1 });
    let held = rig
        .peer
        .recv_world(&mut rig.clock, WORLD_CONTEXT, Some(Rank(1)), Some(2))
        .unwrap();
    assert_eq!(&held.data[..], b"held");
    // One service point on entry, one per delivery, one to spare for a
    // wake-up whose cause an earlier service point had already handled.
    let n = counts.recv_timeout(T).unwrap();
    assert!(
        (1..=4).contains(&n),
        "hold_while_stopped serviced {n} times"
    );

    // Round 2: the Stop, then rank 0's mark, and the member call returns
    // with its image written — without waiting for the Resume.
    rig.relay(CrMsg::Stop { index: 2 });
    rig.await_flush_mark(2);
    rig.flush_mark(2);
    rig.await_saved(2);
    let n = counts.recv_timeout(T).unwrap();
    assert!((1..=4).contains(&n), "Ctx::checkpoint serviced {n} times");

    rig.await_done();
    rank.join().unwrap();
}

/// The daemon's link kicks the wait point on every message: a rank
/// blocked in an MPI receive — here with no service slice at all — gets out
/// to service a relayed Stop at once.
#[test]
fn blocked_receive_is_kicked_by_a_relayed_stop() {
    let (mut rig, rt) = rig();
    let rank = run(rt, |ctx| {
        let rt = &mut *ctx.rt;
        let got =
            rt.mpi
                .recv_world_timeout(&mut rt.clock, WORLD_CONTEXT, Some(Rank(0)), Some(1), T);
        assert!(matches!(got, Err(Error::Interrupted(_))), "{got:?}");
        rt.service(None)
    });
    rig.relay(CrMsg::Stop { index: 1 });
    rig.await_flush_mark(1);
    rig.await_done();
    rank.join().unwrap();
}

/// A daemon that goes away (its link dropped) wakes a rank held at its wait
/// point, which then finds the disconnect and exits.
#[test]
fn held_rank_notices_its_daemon_going_away() {
    let (mut rig, rt) = rig();
    let rank = run(rt, |ctx| {
        ctx.recv(Some(Rank(0)), Some(1))?;
        let held = ctx.send(Rank(0), 2, b"never sent");
        assert!(matches!(held, Err(Error::Interrupted(_))), "{held:?}");
        held
    });
    rig.relay(CrMsg::Stop { index: 1 });
    rig.await_flush_mark(1);
    rig.go(1);
    drop(rig.down);
    rank.join().unwrap();
}

/// A suspended rank stays parked in its service point until the Resume:
/// the flag is set before the Resume is sent and read after the service
/// point returns, so it can only read `true`.
#[test]
fn suspended_rank_parks_until_resume() {
    let (rig, mut rt) = rig();
    rig.down.send(ProcDown::Suspend {
        vt: VirtualTime::ZERO,
    });
    let resumed = Arc::new(AtomicBool::new(false));
    let seen = resumed.clone();
    let rank = std::thread::spawn(move || {
        rt.service(None).unwrap();
        seen.load(Ordering::SeqCst)
    });
    resumed.store(true, Ordering::SeqCst);
    rig.down.send(ProcDown::Resume {
        vt: VirtualTime::ZERO,
    });
    assert!(rank.join().unwrap(), "left the park before the Resume");
}

/// Round 1 as the service point inside rank 1's `recv(tag 1)` finds it
/// when the Stop's kick wins its race against the data path: the Stop at
/// the link, rank 0's mark (behind `sent_first`, if any) on the wire but not
/// looked at yet. Returns with the capture put off.
fn stopped_inside_a_receive(sent_first: Option<u64>) -> (Rig, ProcessRuntime) {
    let (mut rig, mut rt) = rig();
    rig.relay(CrMsg::Stop { index: 1 });
    if let Some(tag) = sent_first {
        rig.go(tag);
    }
    rig.flush_mark(1);
    rt.service_in_recv().unwrap();
    assert_eq!((rt.cr.deferred(), rt.cr.last_index()), (true, 0));
    rig.await_flush_mark(1);
    (rig, rt)
}

/// A Stop relayed round the daemons can overtake the data rank 0 sent just
/// before stopping. A rank serviced inside the receive of that data is not
/// blocked: once the flush mark is in, so is the message — the receive
/// completes, and the capture is taken, live, by the `checkpoint()` call
/// the round pairs with (which would otherwise wait for a round that never
/// starts).
#[test]
fn a_round_lets_a_receive_complete_instead_of_capturing_it_blocked() {
    let (mut rig, rt) = stopped_inside_a_receive(Some(1));
    let rank = run(rt, |ctx| {
        ctx.recv(Some(Rank(0)), Some(1))?;
        assert_eq!(
            ctx.rt.cr.last_index(),
            0,
            "captured although it could go on"
        );
        ctx.checkpoint(&CkptValue::Unit)?;
        assert!(ctx.rt.cr.last_index() == 1 && ctx.rt.cache.consumed.is_empty());
        Ok(())
    });
    rig.await_saved(1);
    rig.await_done();
    rank.join().unwrap();
}

/// ... and a receive that what has arrived does not complete is captured
/// blocked, as ever: its sender is stopped too.
#[test]
fn a_round_captures_a_receive_that_stays_blocked() {
    let (mut rig, rt) = stopped_inside_a_receive(None);
    let rank = run(rt, |ctx| {
        ctx.recv(Some(Rank(0)), Some(1))?;
        assert_eq!(ctx.rt.cr.last_index(), 1);
        Ok(())
    });
    rig.await_saved(1);
    rig.go(1);
    rig.await_done();
    rank.join().unwrap();
}

/// The round coordinator sends its telemetry up once per round, after the
/// commit and in the same message, so the snapshot counts the round it
/// closes and the daemon can cast both at once; and once more at exit,
/// with its `Done`.
#[test]
fn the_coordinator_flushes_stats_once_per_round_after_counting_it() {
    const ROUNDS: u64 = 3;
    let (mut rig, rt) = rig_of(Rank(0));
    let rank = run(rt, |ctx| {
        for _ in 0..ROUNDS {
            ctx.checkpoint(&CkptValue::Unit)?;
        }
        Ok(())
    });
    for index in 1..=ROUNDS {
        rig.await_flush_mark(index);
        rig.flush_mark(index);
        let (rank, index) = (Rank(1), index);
        rig.relay(CrMsg::Saved { rank, index });
    }
    let mut seen: Vec<String> = Vec::new();
    while !seen.last().is_some_and(|m| m.ends_with("done")) {
        let (_, _, msgs) = rig.up.recv_timeout(T).expect("the rank went quiet");
        let message: Vec<String> = msgs
            .into_iter()
            .filter_map(|msg| match msg {
                ProcUp::CkptCommitted { index, .. } => Some(format!("commit {index}")),
                ProcUp::Stats { stats, .. } => {
                    Some(format!("stats {}", stats.snap.counter(metric::CKPT_ROUNDS)))
                }
                ProcUp::Done { .. } => Some("done".into()),
                _ => None,
            })
            .collect();
        if !message.is_empty() {
            seen.push(message.join(" + "));
        }
    }
    let rounds = [
        "commit 1 + stats 1",
        "commit 2 + stats 2",
        "commit 3 + stats 3",
    ];
    let exit = ["stats 3 + done"];
    assert_eq!(seen, [&rounds[..], &exit].concat());
    rank.join().unwrap();
}

/// A member's telemetry rides its `Saved`, and no flush of its own goes up
/// in a round: the snapshot counts the round's image and the rounds before
/// it (a round's time is taken at its `Resume`); the last round's time goes
/// up with the exit flush, beside the `Done`. Each snapshot is numbered, one
/// past the last.
#[test]
fn a_members_stats_ride_its_saved() {
    const ROUNDS: u64 = 3;
    let (mut rig, rt) = rig();
    let rank = run(rt, |ctx| {
        for _ in 0..ROUNDS {
            ctx.checkpoint(&CkptValue::Unit)?;
        }
        Ok(())
    });
    // `#seq images round-times`.
    let counts = |stats: &starfish_daemon::msg::RankStats| {
        let n = |id| stats.snap.hist(id).map_or(0, |h| h.count);
        let (images, timed) = (n(metric::CKPT_IMAGE_BYTES), n(metric::CKPT_ROUND_NS));
        format!("#{} {images} {timed}", stats.seq)
    };
    // The next message up, labelled.
    let next = |rig: &mut Rig| -> String {
        let (_, _, msgs) = rig.up.recv_timeout(T).expect("the rank went quiet");
        let label = |msg: ProcUp| match msg {
            ProcUp::SendTo { stats, .. } => Some(match stats {
                Some(stats) => format!("saved {}", counts(&stats)),
                None => "saved".into(),
            }),
            ProcUp::Stats { stats, .. } => Some(format!("stats {}", counts(&stats))),
            ProcUp::Done { .. } => Some("done".into()),
            _ => None,
        };
        msgs.into_iter()
            .filter_map(label)
            .collect::<Vec<_>>()
            .join(" + ")
    };
    let mut seen = Vec::new();
    for index in 1..=ROUNDS {
        rig.relay(CrMsg::Stop { index });
        rig.await_flush_mark(index);
        rig.flush_mark(index);
        loop {
            let up = next(&mut rig);
            let saved = up.starts_with("saved");
            seen.push(up);
            if saved {
                break;
            }
        }
        rig.relay(CrMsg::Resume { index });
    }
    while !seen.last().is_some_and(|m| m.ends_with("done")) {
        seen.push(next(&mut rig));
    }
    seen.retain(|m| !m.is_empty());
    assert_eq!(
        seen,
        [
            "saved #1 1 0",
            "saved #2 2 1",
            "saved #3 3 2",
            "stats #4 3 3 + done"
        ]
    );
    rank.join().unwrap();
}
