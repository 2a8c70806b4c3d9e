//! The paper's tables and figures, regenerated as report sections.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use starfish::{CkptValue, Cluster, LevelKind, NodeId, Rank, SubmitOpts, MACHINES};
use starfish_checkpoint::portable::{decode_portable, encode_portable};
use starfish_checkpoint::proto::SyncCostModel;
use starfish_daemon::config::{AppStatus, CfgNodeStatus};
use starfish_telemetry::metric as telemetry_metric;
use starfish_util::trace::{MsgClass, TraceSink};
use starfish_vni::{BipMyrinet, LayerCosts, NetworkModel, TcpEthernet};

use crate::report::{cause, exact, J, REPEATS};

const T: Duration = Duration::from_secs(120);

/// Run one coordinated checkpoint of an app whose registered state is
/// `payload` zero bytes, on `n` nodes (one rank per node), at `level`.
/// Returns (total image bytes, round seconds).
fn one_ckpt_point(level: LevelKind, n: u32, payload: u64) -> (u64, f64) {
    let cluster = Cluster::builder().nodes(n).network_tcp().build().unwrap();
    cluster.register_app("sweep", move |ctx| {
        let state = CkptValue::record(vec![("heap", CkptValue::Zeros(payload))]);
        let dt = ctx.checkpoint(&state)?;
        if ctx.rank().0 == 0 {
            ctx.publish(CkptValue::Float(dt.as_secs_f64()));
        }
        ctx.barrier()?;
        Ok(())
    });
    let app = cluster
        .submit("sweep", n, SubmitOpts::default().level(level))
        .unwrap();
    cluster.wait_app_done(app, T).unwrap();
    let secs = cluster.outputs(app, Rank(0))[0].as_float().unwrap();
    let bytes = cluster
        .store()
        .latest(app, Rank(0))
        .map(|i| i.total_bytes())
        .unwrap_or(0);
    (bytes, secs)
}

/// [`REPEATS`] runs of [`one_ckpt_point`]: the image bytes, which repeat,
/// and each run's round seconds.
fn repeated_ckpt_point(level: LevelKind, n: u32, payload: u64) -> (u64, Vec<f64>) {
    let runs: Vec<(u64, f64)> = (0..REPEATS)
        .map(|_| one_ckpt_point(level, n, payload))
        .collect();
    let bytes: Vec<u64> = runs.iter().map(|r| r.0).collect();
    (
        exact(&bytes, "image bytes"),
        runs.iter().map(|r| r.1).collect(),
    )
}

/// The round seconds of one node count: one node relays no stamp between
/// daemons and repeats; more nodes move with the relay order.
fn round_cell(n: u32, secs: &[f64]) -> J {
    match n {
        1 => J::num(exact(secs, "1-node round")),
        _ => J::band(secs.iter().copied(), cause::RELAY_ORDER),
    }
}

/// Checkpoint time vs image size at 1, 2 and 4 nodes, against the paper's
/// times for the smallest image.
fn ckpt_figure(level: LevelKind, payloads: &[u64], anchor: [f64; 3], tolerance_pct: u32) -> J {
    const NODES: [u32; 3] = [1, 2, 4];
    const COLUMNS: [&str; 3] = ["t_1node_s", "t_2nodes_s", "t_4nodes_s"];
    let rows = payloads.iter().map(|&payload| {
        let points: Vec<(u64, Vec<f64>)> = NODES
            .iter()
            .map(|&n| repeated_ckpt_point(level, n, payload))
            .collect();
        let bytes: Vec<u64> = points.iter().map(|p| p.0).collect();
        let mb = exact(&bytes, "image bytes") as f64 / 1e6;
        let cells = NODES.iter().zip(&points).map(|(&n, p)| round_cell(n, &p.1));
        let row = [("image_MB", J::num(mb))].into_iter();
        (payload, J::obj(row.chain(COLUMNS.into_iter().zip(cells))))
    });
    let anchor = COLUMNS.iter().zip(anchor).map(|(c, s)| (*c, J::num(s)));
    let anchor = anchor.chain([("tolerance_pct", J::num(tolerance_pct))]);
    J::section(
        "virtual",
        vec![("anchor", J::obj(anchor)), ("rows", J::obj(rows))],
    )
}

/// Figure 3: native (homogeneous) checkpointing time vs size, 1/2/4 nodes.
/// Payloads span the paper's 632 KB ... 135 MB range; the smallest image
/// is the empty program.
pub fn fig3() -> J {
    let payloads = [
        0u64,
        4_000_000,
        16_000_000,
        48_000_000,
        96_000_000,
        134_352_832, // ≈ 135 MB total with the 632 KB base
    ];
    let anchor = [0.104061, 0.131898, 0.149219];
    ckpt_figure(LevelKind::Native, &payloads, anchor, 2)
}

/// Figure 4: VM-level (heterogeneous) checkpointing time vs size. The
/// smallest image is 260 KB: the VM itself is not saved (§5).
pub fn fig4() -> J {
    let payloads = [
        0u64, 4_000_000, 16_000_000, 48_000_000,
        95_733_760, // ≈ 96 MB total with the 260 KB base
    ];
    ckpt_figure(LevelKind::Vm, &payloads, [0.0077, 0.0205, 0.052], 10)
}

/// Figure 5: application-level round-trip delay vs data size, BIP vs TCP,
/// each a 100-repetition average like the paper's ping application.
pub fn fig5() -> J {
    let sizes: [usize; 8] = [1, 256, 1024, 4096, 16384, 65536, 262_144, 1_048_576];

    fn run(cluster: &Cluster, sizes: &[usize]) -> Vec<f64> {
        let idx = Arc::new(AtomicU64::new(0));
        let sizes_owned: Vec<usize> = sizes.to_vec();
        let idx2 = idx.clone();
        cluster.register_app("ping", move |ctx| {
            let size = sizes_owned[idx2.load(Ordering::Relaxed) as usize];
            let me = ctx.rank().0;
            const REPS: u64 = 100;
            if me == 0 {
                // Warm-up absorbs boot-time notifications.
                ctx.send(Rank(1), 9999, &[0])?;
                ctx.recv(Some(Rank(1)), Some(9999))?;
                let buf = vec![0u8; size];
                let t0 = ctx.time();
                for i in 0..REPS {
                    ctx.send(Rank(1), i, &buf)?;
                    ctx.recv(Some(Rank(1)), Some(i))?;
                }
                let avg = (ctx.time() - t0) / REPS;
                ctx.publish(CkptValue::Float(avg.as_micros_f64()));
            } else {
                let w = ctx.recv(Some(Rank(0)), Some(9999))?;
                ctx.send(Rank(0), 9999, &w.data)?;
                for i in 0..REPS {
                    let m = ctx.recv(Some(Rank(0)), Some(i))?;
                    ctx.send(Rank(0), i, &m.data)?;
                }
            }
            Ok(())
        });
        let mut out = Vec::new();
        for i in 0..sizes.len() {
            idx.store(i as u64, Ordering::Relaxed);
            let app = cluster
                .submit(
                    "ping",
                    2,
                    SubmitOpts::default().policy(starfish::FtPolicy::Kill),
                )
                .unwrap();
            cluster.wait_app_done(app, T).unwrap();
            out.push(cluster.outputs(app, Rank(0))[0].as_float().unwrap());
        }
        out
    }

    let bip = run(
        &Cluster::builder().nodes(2).network_bip().build().unwrap(),
        &sizes,
    );
    let tcp = run(
        &Cluster::builder().nodes(2).network_tcp().build().unwrap(),
        &sizes,
    );
    let rows = sizes
        .iter()
        .zip(bip.iter().zip(&tcp))
        .map(|(s, (b, t))| (s, J::obj([("bip_us", J::num(b)), ("tcp_us", J::num(t))])));
    let anchor = [
        ("bytes", J::num(1)),
        ("bip_us", J::num(86)),
        ("tcp_us", J::num(552)),
        ("tolerance_pct", J::num(1)),
    ];
    J::section(
        "virtual",
        vec![("anchor", J::obj(anchor)), ("rows", J::obj(rows))],
    )
}

/// Figure 6: per-layer overhead of sending and receiving a message, the
/// software time left of a one-way message once the wire terms are
/// removed (the same at every size: payloads are never copied between
/// layers), and the per-layer histograms a live ping-pong records.
pub fn fig6() -> J {
    let layers = LayerCosts::prototype();
    let breakdown = layers.breakdown();
    let layers_us = ["send", "recv"].map(|dir| {
        let cells = breakdown.iter().filter(|(d, ..)| *d == dir);
        (
            dir,
            J::obj(cells.map(|(_, name, t)| (name, J::num(t.as_micros_f64())))),
        )
    });

    let software = [&BipMyrinet as &dyn NetworkModel, &TcpEthernet].map(|model| {
        let cells = [1usize, 1024, 65536, 1_048_576].map(|size| {
            let one_way = layers.send_total() + model.one_way(size) + layers.recv_total();
            (
                size,
                J::num((one_way - model.one_way(size)).as_micros_f64()),
            )
        });
        (model.name().replace('/', "-"), J::obj(cells))
    });

    // Run a ping-pong and read the seven per-layer histograms back out of
    // the cluster's aggregated registry snapshots (the data the STATS
    // management command renders).
    let cluster = Cluster::builder().nodes(2).build().unwrap();
    cluster.register_app("layers", |ctx| {
        let me = ctx.rank().0;
        for _ in 0..64 {
            if me == 0 {
                ctx.send(Rank(1), 7, b"x")?;
                ctx.recv(Some(Rank(1)), Some(7))?;
            } else {
                ctx.recv(Some(Rank(0)), Some(7))?;
                ctx.send(Rank(0), 7, b"x")?;
            }
        }
        Ok(())
    });
    let app = cluster.submit("layers", 2, SubmitOpts::default()).unwrap();
    cluster.wait_app_done(app, T).unwrap();
    let snap = cluster.stats().merged();
    let measured = telemetry_metric::LAYERS.iter().filter_map(|id| {
        let h = snap.hist(*id)?;
        let cells = [
            ("samples", J::num(h.count)),
            ("mean_us", J::num(h.mean() / 1e3)),
        ];
        Some((id.name(), J::obj(cells)))
    });
    J::section(
        "virtual",
        vec![
            ("layers_us", J::obj(layers_us)),
            ("software_us", J::obj(software)),
            ("measured", J::obj(measured)),
        ],
    )
}

/// One application lifecycle — submission, data exchange, a coordination
/// broadcast, a coordinated checkpoint, suspend/resume and the crash of an
/// idle node — traced: (count, bytes) per message class.
fn lifecycle_audit() -> Vec<(u64, u64)> {
    let trace = TraceSink::enabled();
    let cluster = Cluster::builder()
        .nodes(3)
        .trace(trace.clone())
        .build()
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    cluster.register_app("audit", move |ctx| {
        let me = ctx.rank().0;
        let state = CkptValue::Int(1);
        if me == 0 {
            ctx.send(Rank(1), 1, b"payload")?;
            ctx.coord_cast(bytes::Bytes::from_static(b"coord"))?;
        } else {
            ctx.recv(Some(Rank(0)), Some(1))?;
        }
        ctx.checkpoint(&state)?;
        // The round is over here, so the suspension below cannot race it.
        ctx.publish(CkptValue::Unit);
        // Alive, at safepoints, until the lifecycle is over.
        while !stop2.load(Ordering::Relaxed) {
            ctx.safepoint(&state)?;
            #[expect(clippy::disallowed_methods, reason = "idles 1 ms between safepoints")]
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    });
    let app = cluster.submit("audit", 2, SubmitOpts::default()).unwrap();
    for rank in [Rank(0), Rank(1)] {
        cluster.wait_outputs(app, rank, 1, T).unwrap();
    }
    cluster.suspend(app).unwrap();
    cluster
        .wait_app(app, T, |a| a.status == AppStatus::Suspended)
        .unwrap();
    cluster.resume(app).unwrap();
    cluster
        .wait_app(app, T, |a| a.status == AppStatus::Running)
        .unwrap();
    let placement = cluster.config().apps[&app].placement.clone();
    let idle = (0..3).map(NodeId).find(|n| !placement.contains(n)).unwrap();
    cluster.crash_node(idle);
    cluster
        .daemon()
        .wait_config(T, |c| c.nodes[&idle].status == CfgNodeStatus::Dead)
        .unwrap();
    stop.store(true, Ordering::Relaxed);
    cluster.wait_app_done(app, T).unwrap();

    // Counts come from the shared telemetry registry: the trace sink feeds
    // every classified message into it (single accounting channel), and the
    // same counters back the daemons' STATS management command.
    let reg = cluster.metrics();
    MsgClass::ALL
        .iter()
        .map(|c| {
            let count = reg.counter(telemetry_metric::msg_count(*c));
            (count, reg.counter(telemetry_metric::msg_bytes(*c)))
        })
        .collect()
}

/// Table 1: the message taxonomy, audited on [`REPEATS`] live lifecycles.
/// Every class repeats but Control, whose count and bytes move with
/// [`cause::CAST_TIMING`].
pub fn table1() -> J {
    let runs: Vec<Vec<(u64, u64)>> = (0..REPEATS).map(|_| lifecycle_audit()).collect();
    let rows = MsgClass::ALL.iter().enumerate().map(|(i, c)| {
        let sent_between = match c {
            MsgClass::Control => "Starfish daemons",
            MsgClass::Coordination => "application processes through daemons",
            MsgClass::Data => "application processes (MPI/VNI fast path)",
            MsgClass::LwMembership => "lightweight endpoint module and processes",
            MsgClass::Configuration => "local daemon and application processes",
            MsgClass::CheckpointRestart => "C/R modules through daemons",
        };
        let count: Vec<u64> = runs.iter().map(|r| r[i].0).collect();
        let bytes: Vec<u64> = runs.iter().map(|r| r[i].1).collect();
        let cell = |v: &[u64], what: &str| match c {
            MsgClass::Control => J::band(v.iter().map(|&x| x as f64), cause::CAST_TIMING),
            _ => J::num(exact(v, what)),
        };
        let cells = [
            ("sent_between", J::str(sent_between)),
            ("count", cell(&count, c.name())),
            ("bytes", cell(&bytes, c.name())),
        ];
        (c.name(), J::obj(cells))
    });
    J::section("count", vec![("rows", J::obj(rows))])
}

/// Table 2: the heterogeneous C/R machine matrix. An image saved in each
/// of the six Table 2 machines' native representation is restored on each
/// (§4): a cell is the conversion the pair needed (`=` identical
/// representation, `S` byte-swapped, `W` word-resized, `S+W` both) when the
/// state came back exact, `corrupt` when it did not, `error` when decoding
/// failed.
pub fn table2() -> J {
    // A representative VM heap.
    let state = CkptValue::record(vec![
        ("step", CkptValue::Int(123_456)),
        (
            "grid",
            CkptValue::FloatArray((0..4096).map(|i| i as f64 * 0.5).collect()),
        ),
        (
            "ids",
            CkptValue::IntArray((0..1024).map(|i| i - 512).collect()),
        ),
        ("tag", CkptValue::Str("heterogeneous".into())),
    ]);
    let machines = MACHINES.iter().enumerate().map(|(i, m)| {
        let cells = [
            ("cpu", J::str(m.cpu)),
            ("os", J::str(m.os)),
            ("endian", J::str(m.endian.name())),
            ("word_bits", J::num(m.word_bits)),
        ];
        (i, J::obj(cells))
    });
    let rows = MACHINES.iter().enumerate().map(|(si, src)| {
        let img = encode_portable(&state, *src).unwrap();
        let cells = MACHINES.iter().enumerate().map(|(di, dst)| {
            let kind = match decode_portable(&img, *dst) {
                Err(_) => "error",
                Ok((got, _)) if got != state => "corrupt",
                Ok((_, rep)) if rep.identical() => "=",
                Ok((_, rep)) if rep.byte_swapped && (rep.word_widened || rep.word_narrowed) => {
                    "S+W"
                }
                Ok((_, rep)) if rep.byte_swapped => "S",
                Ok(_) => "W",
            };
            (di, J::str(kind))
        });
        (si, J::obj(cells))
    });
    J::section(
        "count",
        vec![("machines", J::obj(machines)), ("rows", J::obj(rows))],
    )
}

/// §5 claim: "if a checkpoint is taken once every hour, it would only slow
/// down the entire execution time by less than 1%" — the worst case, a
/// native-level round of the largest image (135 MB) on 4 nodes.
pub fn claim_overhead() -> J {
    let (bytes, rounds) = repeated_ckpt_point(LevelKind::Native, 4, 134_352_832);
    let rows = [10u64, 30, 60, 120].map(|interval_min| {
        let interval = interval_min as f64 * 60.0;
        let overhead = rounds.iter().map(|r| r / (interval + r) * 100.0);
        let cell = J::band(overhead, cause::RELAY_ORDER);
        (interval_min, J::obj([("overhead_pct", cell)]))
    });
    let anchor = [
        ("interval_min", J::num(60)),
        ("overhead_pct_below", J::num(1)),
    ];
    J::section(
        "virtual",
        vec![
            ("anchor", J::obj(anchor)),
            ("image_MB", J::num(bytes as f64 / 1e6)),
            ("ckpt_s", J::band(rounds, cause::RELAY_ORDER)),
            ("rows", J::obj(rows)),
        ],
    )
}

/// The fitted stop-and-sync coordination model behind Figures 3 and 4's
/// node scaling (DESIGN.md §6): native 55.6 ms x (1 - 1/n), VM 13.9 ms x
/// (n - 1).
pub fn sync_model_table() -> J {
    let rows = [1usize, 2, 4, 8].map(|n| {
        let cells = [
            (
                "native_ms",
                J::num(SyncCostModel::native_sync(n).as_millis_f64()),
            ),
            ("vm_ms", J::num(SyncCostModel::vm_sync(n).as_millis_f64())),
        ];
        (n, J::obj(cells))
    });
    J::section("virtual", vec![("rows", J::obj(rows))])
}
