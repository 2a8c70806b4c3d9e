//! Direct-drive probes: each layer measured from outside through its
//! crate's public functions, in the shapes the workloads use and on the
//! network model `ClusterBuilder` defaults to.
//!
//! 8-byte costs are *call* costs, taken in two phases so neither side waits
//! on the other: the sender issues a burst, then the receiver drains it.
//! 1 MiB costs are per-message times of a concurrent stream, because a
//! rendezvous send cannot complete without its receiver.

use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use starfish::{CkptValue, Cluster, Ctx, Rank, ReduceOp, Result, SubmitOpts};
use starfish_checkpoint::image::{CkptImage, CkptLevel};
use starfish_checkpoint::store::CkptStore;
use starfish_daemon::CfgCmd;
use starfish_mpi::{collectives, Comm, MpiEndpoint, RankDirectory, RecvMode, WORLD_CONTEXT};
use starfish_util::trace::TraceSink;
use starfish_util::{AppId, Epoch, NodeId, VClock, VirtualTime};
use starfish_vni::{Addr, BipMyrinet, Fabric, LayerCosts, Packet, PacketKind, PortId};

use crate::kernels::{self, COLS, LARGE_BYTES, SOLVER_RANKS, SOLVER_ROWS};
use crate::stats;

/// Calls per timed burst: amortises the two clock reads around it.
const BURST: usize = 64;
const BURSTS: usize = 200;
const LARGE_MSGS: usize = 96;
const TAG_DATA: u64 = 1;

fn fabric(nodes: u32) -> Fabric {
    let f = Fabric::new(Box::new(BipMyrinet), LayerCosts::prototype());
    // The cluster attaches a registry to its fabric; so does the probe, or
    // it would time a path with the per-packet accounting missing.
    f.attach_metrics(starfish_telemetry::Registry::new());
    for n in 0..nodes {
        f.add_node(NodeId(n));
    }
    f
}

/// Median per-call time over bursts, in the unit `scale` converts seconds to.
fn per_call(burst_s: &[f64], calls: usize, scale: f64) -> f64 {
    stats::median(burst_s) / calls as f64 * scale
}

/// Median interval between consecutive completions, microseconds.
fn interval_us(done: &[Instant]) -> f64 {
    stats::median(&stats::deltas_s(done)) * 1e6
}

/// Wall-clock cost of one 8-byte send call and one receive call.
#[derive(Default, Clone, Copy)]
pub struct CallCost {
    pub send_ns: f64,
    pub recv_ns: f64,
}

impl CallCost {
    pub fn per_msg_ns(self) -> f64 {
        self.send_ns + self.recv_ns
    }
}

/// The two-phase burst protocol on two threads: `send` issues one burst,
/// then — after a barrier, so neither side waits inside its timed section —
/// `recv` drains it.
fn burst_costs(mut send: impl FnMut() + Send, mut recv: impl FnMut() + Send) -> CallCost {
    let gate = Barrier::new(2);
    let (mut send_s, mut recv_s) = (Vec::new(), Vec::new());
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..BURSTS {
                let t = Instant::now();
                for _ in 0..BURST {
                    send();
                }
                send_s.push(t.elapsed().as_secs_f64());
                gate.wait(); // burst is queued: receiver drains it
                gate.wait();
            }
        });
        s.spawn(|| {
            for _ in 0..BURSTS {
                gate.wait();
                let t = Instant::now();
                for _ in 0..BURST {
                    recv();
                }
                recv_s.push(t.elapsed().as_secs_f64());
                gate.wait();
            }
        });
    });
    CallCost {
        send_ns: per_call(&send_s, BURST, 1e9),
        recv_ns: per_call(&recv_s, BURST, 1e9),
    }
}

/// Median per-message time, microseconds, of [`LARGE_MSGS`] messages
/// streamed from one thread to another.
fn stream_us(mut send: impl FnMut() + Send, mut recv: impl FnMut() + Send) -> f64 {
    let mut done = Vec::with_capacity(LARGE_MSGS);
    std::thread::scope(|s| {
        s.spawn(|| (0..LARGE_MSGS).for_each(|_| send()));
        s.spawn(|| {
            for _ in 0..LARGE_MSGS {
                recv();
                done.push(Instant::now());
            }
        });
    });
    interval_us(&done)
}

// ---- vni ---------------------------------------------------------------------------

fn vni_pair(payload: Bytes) -> (impl FnMut() + Send, impl FnMut() + Send) {
    let f = fabric(2);
    let a = Addr::new(NodeId(0), PortId(1));
    let b = Addr::new(NodeId(1), PortId(1));
    let pa = f.bind(a).expect("bind sender port");
    let pb = f.bind(b).expect("bind receiver port");
    (
        move || {
            let from = pa.addr();
            f.send(Packet::new(
                from,
                b,
                PacketKind::Data,
                TAG_DATA,
                payload.clone(),
            ))
            .expect("fabric send")
        },
        move || drop(std::hint::black_box(pb.recv().expect("port recv"))),
    )
}

pub fn vni_8b() -> CallCost {
    let (send, recv) = vni_pair(Bytes::from_static(&[7u8; 8]));
    burst_costs(send, recv)
}

pub fn vni_1mib_us() -> f64 {
    let (send, recv) = vni_pair(Bytes::from(vec![7u8; LARGE_BYTES]));
    stream_us(send, recv)
}

// ---- mpi ---------------------------------------------------------------------------

fn endpoints(f: &Fabric, n: u32) -> Vec<MpiEndpoint> {
    let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
    let dir = RankDirectory::with_placement(&nodes);
    (0..n)
        .map(|r| {
            // As `RuntimeHost::spawn` builds them: polled receive, a
            // telemetry registry installed, every knob at its default.
            let mut ep = MpiEndpoint::new(
                f,
                AppId(1),
                Rank(r),
                dir.clone(),
                RecvMode::Polled,
                TraceSink::disabled(),
            )
            .expect("bind mpi endpoint");
            ep.set_metrics(starfish_telemetry::Registry::new());
            ep
        })
        .collect()
}

/// `&[u8]` like `Ctx::send` passes down, so the rendezvous path's one payload
/// copy is inside the measurement on both levels.
fn mpi_pair(payload: Vec<u8>) -> (impl FnMut() + Send, impl FnMut() + Send) {
    let f = fabric(2);
    let mut eps = endpoints(&f, 2);
    let (mut rx, mut tx) = (eps.pop().expect("rank 1"), eps.pop().expect("rank 0"));
    let (mut tx_clock, mut rx_clock) = (VClock::new(), VClock::new());
    (
        move || {
            tx.send_world(&mut tx_clock, Rank(1), WORLD_CONTEXT, TAG_DATA, &payload)
                .expect("mpi send")
        },
        move || {
            std::hint::black_box(
                rx.recv_world(&mut rx_clock, WORLD_CONTEXT, Some(Rank(0)), Some(TAG_DATA))
                    .expect("mpi recv"),
            );
        },
    )
}

pub fn mpi_8b() -> CallCost {
    let (send, recv) = mpi_pair(vec![7u8; 8]);
    burst_costs(send, recv)
}

pub fn mpi_1mib_us() -> f64 {
    let (send, recv) = mpi_pair(vec![7u8; LARGE_BYTES]);
    stream_us(send, recv)
}

/// The `mpi::collectives` allreduce — the stack `Ctx` does not use — at the
/// solver's shape: 256 KiB over [`SOLVER_RANKS`] raw endpoints.
pub fn coll_allreduce_us() -> f64 {
    const REPS: usize = 60;
    let n = SOLVER_RANKS as u32;
    let f = fabric(n);
    let data = vec![1.0f64; SOLVER_ROWS * COLS];
    let rank0_s = std::thread::scope(|s| {
        let ranks: Vec<_> = endpoints(&f, n)
            .into_iter()
            .enumerate()
            .map(|(r, mut ep)| {
                let data = &data;
                s.spawn(move || {
                    let mut clock = VClock::new();
                    let mut comm = Comm::world(n, Rank(r as u32));
                    let mut took = Vec::with_capacity(REPS);
                    for _ in 0..REPS {
                        let t = Instant::now();
                        let out = collectives::allreduce(
                            &mut ep,
                            &mut comm,
                            &mut clock,
                            data,
                            ReduceOp::Sum,
                        )
                        .expect("collectives allreduce");
                        took.push(t.elapsed().as_secs_f64());
                        assert_eq!(out[0], f64::from(n), "allreduce sum");
                    }
                    took
                })
            })
            .collect();
        let mut per_rank = ranks
            .into_iter()
            .map(|h| h.join().expect("allreduce rank panicked"));
        per_rank.next().expect("rank 0")
    });
    stats::median(&rank0_s) * 1e6
}

// ---- checkpoint ----------------------------------------------------------------------

pub struct Checkpoint {
    pub capture_mbps: f64,
    pub restore_mbps: f64,
    pub store_put_us: f64,
    pub store_get_us: f64,
}

/// Capture/restore and the disk store at `ft_jacobi`'s shape: one rank's
/// 1 MiB `FloatArray` record, VM level.
pub fn checkpoint(seed: u64) -> Checkpoint {
    const REPS: u64 = 40;
    let arch = starfish::MACHINES[0];
    let state = CkptValue::record(vec![
        ("iter", CkptValue::Int(1)),
        ("grid", CkptValue::FloatArray(kernels::jacobi_init(seed, 0))),
    ]);
    let mb = (kernels::JACOBI_ROWS * COLS * 8) as f64 / 1e6;
    let store = CkptStore::new();
    let (mut cap, mut res, mut put, mut get) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 1..=REPS {
        let t = Instant::now();
        let img = CkptImage::capture(
            AppId(1),
            Rank(0),
            Epoch(0),
            i,
            CkptLevel::Vm { arch },
            &state,
            Vec::new(),
            VirtualTime::ZERO,
        )
        .expect("capture");
        cap.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(img.restore_state(arch).expect("restore"));
        res.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        store.put(img);
        put.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        std::hint::black_box(store.get(AppId(1), Rank(0), i).expect("stored image"));
        get.push(t.elapsed().as_secs_f64());
        // As the daemon does at each commit: keep only the recovery line.
        store.prune_below(AppId(1), i);
    }
    Checkpoint {
        capture_mbps: mb / stats::median(&cap),
        restore_mbps: mb / stats::median(&res),
        store_put_us: stats::median(&put) * 1e6,
        store_get_us: stats::median(&get) * 1e6,
    }
}

// ---- daemon --------------------------------------------------------------------------

pub struct DaemonProbe {
    pub cfg_cast_ms: f64,
    pub mgmt_rtt_us: f64,
}

/// Control-plane round trips on an idle 3-node cluster: a configuration
/// command from `Daemon::issue` until the replicated configuration shows it
/// (watched by yielding, not by `wait_config`'s 5 ms sleep), and one
/// management-protocol request.
pub fn daemon() -> DaemonProbe {
    const REPS: usize = 50;
    let threads_before = crate::procfs::threads();
    let cluster = Cluster::builder().nodes(3).build().expect("probe cluster");
    let d = cluster.daemon();
    let mut cast = Vec::new();
    for i in 0..REPS {
        let (key, value) = ("e2e.probe".to_string(), i.to_string());
        let t = Instant::now();
        d.issue(CfgCmd::SetParam {
            key: key.clone(),
            value: value.clone(),
        })
        .expect("issue");
        let deadline = t + Duration::from_secs(5);
        while d.config().params.get(&key) != Some(&value) {
            assert!(Instant::now() < deadline, "SetParam never became visible");
            std::thread::yield_now();
        }
        cast.push(t.elapsed().as_secs_f64());
    }
    // STATS renders what ranks have flushed; on a cluster that never ran a
    // job it answers "no data" in nanoseconds. Run one first.
    cluster.register_app("noop", |ctx| ctx.barrier());
    let app = cluster
        .submit("noop", 3, SubmitOpts::default())
        .expect("submit noop");
    cluster
        .wait_app_done(app, Duration::from_secs(30))
        .expect("noop job");
    let deadline = Instant::now() + Duration::from_secs(2);
    while cluster.stats().scopes().len() < 3 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut session = cluster.session();
    let login = session.handle_line("LOGIN ADMIN starfish");
    assert!(login.starts_with("OK"), "mgmt login: {login}");
    let mut rtt = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let reply = session.handle_line("STATS");
        rtt.push(t.elapsed().as_secs_f64());
        assert!(reply.starts_with("OK stats\n"), "STATS: {reply}");
    }
    crate::workloads::power_off(cluster, threads_before);
    DaemonProbe {
        cfg_cast_ms: stats::median(&cast) * 1e3,
        mgmt_rtt_us: stats::median(&rtt) * 1e6,
    }
}

// ---- core: the same shapes through Ctx ----------------------------------------------------

fn timed<T>(into: &mut Vec<f64>, f: impl FnOnce() -> Result<T>) -> Result<T> {
    let t = Instant::now();
    let r = f()?;
    into.push(t.elapsed().as_secs_f64());
    Ok(r)
}

/// Run `body` as a two-rank job on a default cluster; it fills `T`. `gate` is
/// a harness-side barrier between the two ranks: it separates a send phase
/// from a receive phase without a message (a receiver blocked in `recv` would
/// be woken by every packet of the burst it is waiting out).
fn ctx_pair<T: Default + Clone + Send + 'static>(
    body: fn(&mut Ctx<'_>, &Barrier, &Mutex<T>) -> Result<()>,
) -> T {
    let threads_before = crate::procfs::threads();
    let cluster = Cluster::builder().nodes(2).build().expect("probe cluster");
    let out = Arc::new(Mutex::new(T::default()));
    let slot = out.clone();
    let gate = Barrier::new(2);
    cluster.register_app("probe", move |ctx| body(ctx, &gate, &slot));
    let app = cluster
        .submit("probe", 2, SubmitOpts::default())
        .expect("submit probe");
    cluster
        .wait_app_done(app, crate::workloads::WATCHDOG)
        .unwrap_or_else(|e| crate::die(&format!("core probe: {e}")));
    crate::workloads::power_off(cluster, threads_before);
    let result = out.lock().expect("core probe slot poisoned").clone();
    result
}

#[derive(Default, Clone, Copy)]
pub struct Core8B {
    pub call: CallCost,
    pub pingpong_rtt_us: f64,
}

fn core_8b_rank(ctx: &mut Ctx<'_>, gate: &Barrier, out: &Mutex<Core8B>) -> Result<()> {
    let me = ctx.rank().0;
    let peer = Rank(1 - me);
    // Call costs, two-phase like the raw probes.
    let mut burst_s = Vec::new();
    for _ in 0..BURSTS {
        ctx.safepoint(&CkptValue::Unit)?;
        if me == 0 {
            timed(&mut burst_s, || {
                (0..BURST).try_for_each(|_| ctx.send(peer, TAG_DATA, &[7u8; 8]))
            })?;
            gate.wait();
            gate.wait();
        } else {
            gate.wait();
            timed(&mut burst_s, || {
                (0..BURST).try_for_each(|_| {
                    ctx.recv(Some(peer), Some(TAG_DATA))
                        .map(|m| drop(std::hint::black_box(m)))
                })
            })?;
            gate.wait();
        }
    }
    // Blocking ping-pong (informational: README, non-workloads).
    ctx.safepoint(&CkptValue::Unit)?;
    let mut rtt = Vec::new();
    for _ in 0..1000 {
        if me == 0 {
            timed(&mut rtt, || {
                ctx.send(peer, TAG_DATA, &[7u8; 8])?;
                ctx.recv(Some(peer), Some(TAG_DATA))
            })?;
        } else {
            ctx.recv(Some(peer), Some(TAG_DATA))?;
            ctx.send(peer, TAG_DATA, &[7u8; 8])?;
        }
    }
    let mut o = out.lock().expect("core probe slot poisoned");
    if me == 0 {
        o.call.send_ns = per_call(&burst_s, BURST, 1e9);
        o.pingpong_rtt_us = stats::median(&rtt) * 1e6;
    } else {
        o.call.recv_ns = per_call(&burst_s, BURST, 1e9);
    }
    Ok(())
}

pub fn core_8b() -> Core8B {
    ctx_pair(core_8b_rank)
}

/// A 1 MiB stream in `stream_1MiB`'s batches: the consumed-message log holds
/// a batch's buffers until the next safepoint releases them.
fn core_1mib_rank(ctx: &mut Ctx<'_>, gate: &Barrier, out: &Mutex<f64>) -> Result<()> {
    let me = ctx.rank().0;
    let peer = Rank(1 - me);
    let buf = vec![7u8; LARGE_BYTES];
    let mut done = Vec::with_capacity(LARGE_MSGS);
    for _ in 0..LARGE_MSGS / 32 {
        ctx.safepoint(&CkptValue::Unit)?;
        for _ in 0..32 {
            if me == 0 {
                ctx.send(peer, TAG_DATA, &buf)?;
            } else {
                std::hint::black_box(ctx.recv(Some(peer), Some(TAG_DATA))?);
                done.push(Instant::now());
            }
        }
        gate.wait();
    }
    if me == 1 {
        *out.lock().expect("core probe slot poisoned") = interval_us(&done);
    }
    Ok(())
}

pub fn core_1mib_us() -> f64 {
    ctx_pair(core_1mib_rank)
}

// ---- harness -------------------------------------------------------------------------

/// The workload's own compute, single-threaded with no Starfish, per op: the
/// share of `op_p50_us` that is not ours.
pub fn serial_op_us(kind: crate::workloads::Kind, seed: u64) -> f64 {
    use crate::workloads::Kind;
    // Each arm: (seconds, per-rank ops they cover). The replays do every
    // rank's share; one rank's is what an op costs.
    let timed = |work: &mut dyn FnMut()| {
        let t = Instant::now();
        work();
        t.elapsed().as_secs_f64()
    };
    let (secs, ops) = match kind {
        Kind::Msgrate8B => {
            let n = 1_000_000u64;
            let s = timed(&mut || {
                for seq in 0..n {
                    std::hint::black_box(
                        kernels::small_payload(seed, seq) == kernels::small_payload(seed, seq + 1),
                    );
                }
            });
            (s, n)
        }
        Kind::Stream1MiB => {
            let n = 200u64;
            let mut buf = kernels::large_template(seed);
            let sum = kernels::large_body_sum(&buf);
            let s = timed(&mut || {
                for seq in 0..n {
                    kernels::stamp_large(&mut buf, seed, seq, sum);
                    assert!(kernels::check_large(std::hint::black_box(&buf), seed, seq));
                }
            });
            (s, n)
        }
        Kind::SolverAllreduce => {
            let n = 40u64;
            let s = timed(&mut || drop(std::hint::black_box(kernels::solver_reference(seed, n))));
            (s, n * SOLVER_RANKS as u64)
        }
        Kind::FtJacobi => {
            let n = 400u64;
            let s = timed(&mut || drop(std::hint::black_box(kernels::jacobi_reference(seed, n))));
            (s, n * 2)
        }
    };
    secs / ops as f64 * 1e6
}
