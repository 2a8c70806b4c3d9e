//! Deterministic tests of the rank's wait point.
//!
//! The rig is a hand-built rank 1 of a two-rank stop-and-sync application.
//! The test plays everything around it: its daemon (holding the real
//! [`DownLink`] and the receiving end of a `KickSender` for `ProcUp`, as a
//! node loop does) and its peer, rank 0 (a bare MPI endpoint). Nothing
//! here sleeps, and the assertions count service points, not time: a rank
//! that waits correctly runs one service point per thing delivered to it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crossbeam::channel::{self, Receiver};

use starfish_checkpoint::backend::{CkptBackend, StoreHub};
use starfish_checkpoint::proto::CrMsg;
use starfish_checkpoint::CkptValue;
use starfish_daemon::config::{AppEntry, AppSpec, AppStatus};
use starfish_daemon::{CkptProto, DownLink, FtPolicy, LevelKind, ProcDown, ProcUp, RelayKind};
use starfish_mpi::wire::WORLD_CONTEXT;
use starfish_mpi::{MpiEndpoint, RankDirectory, RecvMode};
use starfish_util::codec::{Decode, Encode};
use starfish_util::trace::TraceSink;
use starfish_util::{AppId, Epoch, Error, NodeId, Rank, Result, VClock, VirtualTime};
use starfish_vni::{Fabric, Ideal, KickSender, LayerCosts, RecvQueue};

use crate::ctx::Ctx;
use crate::runtime::{process_main, Outputs, ProcessRuntime};

const T: Duration = Duration::from_secs(30);
const APP: AppId = AppId(1);

/// What the test holds of the world around rank 1.
struct Rig {
    /// The daemon's side of rank 1's message queues. Nobody parks on the
    /// wait point `up`'s senders kick (the test blocks on the queue).
    down: DownLink,
    up: Receiver<(AppId, Rank, ProcUp)>,
    /// Rank 0, and its clock.
    peer: MpiEndpoint,
    clock: VClock,
}

fn rig() -> (Rig, ProcessRuntime) {
    rig_receiving(RecvMode::Polled)
}

/// `Direct` puts what rank 0 sends where rank 1's next look at the network
/// finds it, with no polling thread in between to wait for.
fn rig_receiving(mode: RecvMode) -> (Rig, ProcessRuntime) {
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
            mode,
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
    let up_tx = Arc::new(KickSender::new(up_tx, RecvQueue::new().kicker()));
    let rt = ProcessRuntime::new(
        entry,
        Rank(1),
        NodeId(1),
        starfish_checkpoint::arch::DEFAULT_ARCH,
        ep(1),
        down_rx,
        up_tx,
        StoreHub::new(),
        Outputs::new(),
        VirtualTime::ZERO,
        0,
        false,
        starfish_telemetry::Registry::new(),
    );
    let rig = Rig {
        down: DownLink::new(
            KickSender::new(down_tx, rt.mpi.kicker()),
            rt.abort_flag.clone(),
        ),
        up,
        peer: ep(0),
        clock: VClock::new(),
    };
    (rig, rt)
}

impl Rig {
    /// The daemon relays a C/R control message from rank 0.
    fn relay(&self, msg: CrMsg) {
        self.down.send(ProcDown::Relay {
            kind: RelayKind::CheckpointRestart,
            from: Rank(0),
            body: msg.encode_to_bytes(),
            vt: VirtualTime::ZERO,
        });
    }

    /// Rank 0 sends rank 1 a data message.
    fn go(&mut self, tag: u64) {
        self.peer
            .send_world(&mut self.clock, Rank(1), WORLD_CONTEXT, tag, b"go")
            .unwrap();
    }

    /// Rank 0 puts a flush mark on the data path.
    fn flush_mark(&mut self, index: u64) {
        let body = CrMsg::FlushMark { index }.encode_to_bytes();
        self.peer
            .send_ctrl_mark(&mut self.clock, Rank(1), &body)
            .unwrap();
    }

    /// Block until rank 1's flush mark for `index` reaches rank 0: proof
    /// that it has serviced the Stop of that round.
    fn await_flush_mark(&mut self, index: u64) {
        let marks = self.peer.wait_ctrl(&mut self.clock, T).unwrap();
        let got: Vec<CrMsg> = marks
            .iter()
            .map(|(_, body, _)| CrMsg::decode_from_bytes(body).unwrap())
            .collect();
        assert_eq!(got, vec![CrMsg::FlushMark { index }]);
    }

    /// Block until rank 1 sends up a message `pick` accepts (stats flushes
    /// and the like are skipped).
    fn await_up<R>(&self, mut pick: impl FnMut(ProcUp) -> Option<R>) -> R {
        loop {
            let (_, _, msg) = self.up.recv_timeout(T).expect("rank 1 went quiet");
            if let Some(r) = pick(msg) {
                return r;
            }
        }
    }

    fn await_saved(&self, index: u64) {
        self.await_up(|m| match m {
            ProcUp::SendTo { body, .. } => {
                let saved = CrMsg::decode_from_bytes(&body).unwrap();
                assert_eq!(
                    saved,
                    CrMsg::Saved {
                        rank: Rank(1),
                        index
                    }
                );
                Some(())
            }
            _ => None,
        })
    }

    fn await_done(&self) {
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
    let (mut rig, mut rt) = rig_receiving(RecvMode::Direct);
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
    let (rig, rt) = stopped_inside_a_receive(Some(1));
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
