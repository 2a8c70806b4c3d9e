//! Criterion micro-benchmarks: wall-clock cost of the hot primitives of
//! this implementation (as opposed to the virtual-time figures, which model
//! the paper's hardware).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};

use starfish_checkpoint::incremental::IncrementalTracker;
use starfish_checkpoint::portable::{decode_portable, encode_portable};
use starfish_checkpoint::recovery::{recovery_line, MsgDep};
use starfish_checkpoint::{CkptValue, MACHINES};
use starfish_mpi::wire::MsgHeader;
use starfish_util::codec::{Decode, Encode};
use starfish_util::rng::DetRng;
use starfish_util::{Epoch, Rank};

fn bench_portable_codec(c: &mut Criterion) {
    let mut g = c.benchmark_group("portable_codec");
    let state = CkptValue::record(vec![
        (
            "grid",
            CkptValue::FloatArray((0..65536).map(|i| i as f64).collect()),
        ),
        ("meta", CkptValue::Str("jacobi-checkpoint".into())),
        ("step", CkptValue::Int(1234)),
    ]);
    let bytes = encode_portable(&state, MACHINES[0]).unwrap();
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_512KB_le32", |b| {
        b.iter(|| encode_portable(&state, MACHINES[0]).unwrap())
    });
    g.bench_function("decode_same_arch", |b| {
        b.iter(|| decode_portable(&bytes, MACHINES[0]).unwrap())
    });
    g.bench_function("decode_byteswap_be32", |b| {
        b.iter(|| decode_portable(&bytes, MACHINES[1]).unwrap())
    });
    g.bench_function("decode_widen_le64", |b| {
        b.iter(|| decode_portable(&bytes, MACHINES[5]).unwrap())
    });
    g.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("wire");
    let header = MsgHeader {
        src: Rank(3),
        context: 1,
        tag: 42,
        epoch: Epoch(0),
        interval: 7,
        seq: 0,
        flags: 0,
    };
    let body = vec![0u8; 4096];
    g.throughput(Throughput::Bytes(4096));
    g.bench_function("frame_4KB", |b| b.iter(|| header.frame(&body)));
    let framed = header.frame(&body);
    g.bench_function("parse_4KB", |b| {
        b.iter(|| MsgHeader::parse(&framed).unwrap())
    });
    g.finish();

    let mut g = c.benchmark_group("control_codec");
    let msg = starfish_daemon::CfgCmd::Submit {
        spec: starfish_daemon::config::AppSpec {
            name: "bench".into(),
            size: 16,
            policy: starfish_daemon::FtPolicy::Restart,
            level: starfish_daemon::LevelKind::Vm,
            proto: starfish_daemon::CkptProto::StopAndSync,
            backend: starfish_checkpoint::CkptBackend::default(),
            owner: "bench".into(),
            token: 99,
        },
    };
    g.bench_function("cfgcmd_encode", |b| b.iter(|| msg.encode_to_bytes()));
    let enc = msg.encode_to_bytes();
    g.bench_function("cfgcmd_decode", |b| {
        b.iter(|| starfish_daemon::CfgCmd::decode_from_bytes(&enc).unwrap())
    });
    g.finish();
}

fn bench_recovery_line(c: &mut Criterion) {
    let mut g = c.benchmark_group("recovery_line");
    let mut rng = DetRng::new(7);
    let n = 16u32;
    let latest: std::collections::BTreeMap<Rank, u64> = (0..n).map(|r| (Rank(r), 10)).collect();
    let deps: Vec<MsgDep> = (0..2000)
        .map(|_| {
            let s = rng.below(n as u64) as u32;
            let mut r = rng.below(n as u64) as u32;
            if r == s {
                r = (r + 1) % n;
            }
            MsgDep {
                sender: Rank(s),
                send_interval: rng.below(10),
                receiver: Rank(r),
                recv_interval: rng.below(10),
            }
        })
        .collect();
    g.bench_function("16_ranks_2000_deps", |b| {
        b.iter(|| recovery_line(&latest, &deps, &[Rank(0)]))
    });
    g.finish();
}

fn bench_incremental(c: &mut Criterion) {
    let mut g = c.benchmark_group("incremental_ckpt");
    let image = vec![7u8; 8 << 20];
    g.throughput(Throughput::Bytes(image.len() as u64));
    g.bench_function("capture_8MB_clean", |b| {
        b.iter_batched(
            || {
                let mut t = IncrementalTracker::new();
                t.capture(&image);
                t
            },
            |mut t| t.capture(&image),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_portable_codec,
    bench_wire,
    bench_recovery_line,
    bench_incremental
);
criterion_main!(benches);
