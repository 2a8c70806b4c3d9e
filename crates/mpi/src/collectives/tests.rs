use super::*;
use crate::directory::RankDirectory;
use crate::endpoint::RecvMode;
use proptest::prelude::*;
use starfish_telemetry::Registry;
use starfish_util::trace::TraceSink;
use starfish_util::{AppId, NodeId, VClock, VirtualTime};
use starfish_vni::{Fabric, Ideal, LayerCosts};

/// Run `f(rank, endpoint, comm, clock)` on `n` rank-threads and collect
/// the results in rank order.
fn run_ranks<T: Send + 'static>(
    n: u32,
    f: impl Fn(u32, &mut MpiEndpoint, &mut Comm, &mut VClock) -> T + Send + Sync + 'static,
) -> Vec<T> {
    let fabric = Fabric::new(Box::new(Ideal), LayerCosts::zero());
    for i in 0..n {
        fabric.add_node(NodeId(i));
    }
    let dir = RankDirectory::with_placement(&(0..n).map(NodeId).collect::<Vec<_>>());
    let f = std::sync::Arc::new(f);
    // Bind every endpoint before any rank runs (the MPI_Init barrier the
    // daemons provide in the full runtime).
    let eps: Vec<MpiEndpoint> = (0..n)
        .map(|r| {
            MpiEndpoint::new(
                &fabric,
                AppId(1),
                starfish_util::Rank(r),
                dir.clone(),
                RecvMode::Polled,
                TraceSink::disabled(),
            )
            .unwrap()
        })
        .collect();
    let mut handles = Vec::new();
    for (r, mut ep) in eps.into_iter().enumerate() {
        let f = f.clone();
        handles.push(std::thread::spawn(move || {
            let mut comm = Comm::world(n, starfish_util::Rank(r as u32));
            let mut clock = VClock::new();
            f(r as u32, &mut ep, &mut comm, &mut clock)
        }));
    }
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn barrier_completes_at_many_sizes() {
    for n in [1u32, 2, 3, 5, 8] {
        let done = run_ranks(n, |_, ep, comm, clock| {
            barrier(ep, comm, clock).unwrap();
            true
        });
        assert_eq!(done.len(), n as usize);
    }
}

#[test]
fn barrier_synchronizes_virtual_time() {
    // Rank 0 is far ahead in virtual time; after the barrier everyone's
    // clock is at least rank 0's pre-barrier time.
    let vts = run_ranks(4, |r, ep, comm, clock| {
        if r == 0 {
            clock.advance(VirtualTime::from_millis(500));
        }
        barrier(ep, comm, clock).unwrap();
        clock.now()
    });
    for vt in &vts {
        assert!(*vt >= VirtualTime::from_millis(500), "vt {vt:?}");
    }
}

#[test]
fn bcast_from_various_roots() {
    for n in [2u32, 3, 5] {
        for root in 0..n {
            let res = run_ranks(n, move |r, ep, comm, clock| {
                let data = if r == root {
                    format!("hello-{root}").into_bytes()
                } else {
                    Vec::new()
                };
                bcast(ep, comm, clock, Rank(root), data.into()).unwrap()
            });
            for v in res {
                assert_eq!(v, format!("hello-{root}").into_bytes());
            }
        }
    }
}

#[test]
fn bcast_forced_algorithms_agree() {
    // Payload big enough for several chunks per rank, odd length so the
    // balanced chunking is ragged.
    for n in [2u32, 3, 5, 7] {
        for root in [0, n - 1] {
            let res = run_ranks(n, move |r, ep, comm, clock| {
                let data: Bytes = if r == root {
                    (0..997u32)
                        .flat_map(|x| x.to_be_bytes())
                        .collect::<Vec<u8>>()
                        .into()
                } else {
                    Bytes::new()
                };
                let a = bcast_with(
                    ep,
                    comm,
                    clock,
                    Rank(root),
                    data.clone(),
                    BcastAlgo::Binomial,
                )
                .unwrap();
                let b = bcast_with(
                    ep,
                    comm,
                    clock,
                    Rank(root),
                    data,
                    BcastAlgo::ScatterAllgather,
                )
                .unwrap();
                (a, b)
            });
            let expect: Vec<u8> = (0..997u32).flat_map(|x| x.to_be_bytes()).collect();
            for (a, b) in res {
                assert_eq!(a, expect);
                assert_eq!(b, expect);
            }
        }
    }
}

#[test]
fn reduce_sum_and_max() {
    let res = run_ranks(5, |r, ep, comm, clock| {
        let data = vec![r as i64, 10 - r as i64];
        reduce(ep, comm, clock, Rank(0), &data, ReduceOp::Sum).unwrap()
    });
    assert_eq!(res[0].as_ref().unwrap(), &vec![10, 40]); // sum 0..5, 50-10
    for r in res.iter().skip(1) {
        assert!(r.is_none());
    }
    let res = run_ranks(4, |r, ep, comm, clock| {
        reduce(ep, comm, clock, Rank(2), &[r as i64], ReduceOp::Max).unwrap()
    });
    assert_eq!(res[2].as_ref().unwrap(), &vec![3]);
}

#[test]
fn allreduce_everyone_gets_result() {
    for n in [1u32, 3, 4, 6] {
        let res = run_ranks(n, |r, ep, comm, clock| {
            allreduce(ep, comm, clock, &[(r + 1) as f64], ReduceOp::Prod).unwrap()
        });
        let expect: f64 = (1..=n).map(|x| x as f64).product();
        for v in res {
            assert_eq!(v, vec![expect]);
        }
    }
}

#[test]
fn allreduce_forced_algorithms_agree() {
    // Vector length 13 is not divisible by any tested n: every ring block
    // boundary is ragged, and n > 13 would make some blocks empty.
    for n in [1u32, 2, 3, 4, 5, 7, 8] {
        let res = run_ranks(n, |r, ep, comm, clock| {
            let data: Vec<i64> = (0..13).map(|i| (r as i64 + 1) * (i + 1)).collect();
            let a = allreduce_with(
                ep,
                comm,
                clock,
                &data,
                ReduceOp::Sum,
                AllreduceAlgo::ReduceBcast,
            )
            .unwrap();
            let b = allreduce_with(
                ep,
                comm,
                clock,
                &data,
                ReduceOp::Sum,
                AllreduceAlgo::RecursiveDoubling,
            )
            .unwrap();
            let c =
                allreduce_with(ep, comm, clock, &data, ReduceOp::Sum, AllreduceAlgo::Ring).unwrap();
            (a, b, c)
        });
        let rank_sum: i64 = (1..=n as i64).sum();
        let expect: Vec<i64> = (0..13).map(|i| rank_sum * (i + 1)).collect();
        for (a, b, c) in res {
            assert_eq!(a, expect);
            assert_eq!(b, expect);
            assert_eq!(c, expect);
        }
    }
}

#[test]
fn allreduce_selector_picks_ring_for_large_payloads() {
    // Explicit threshold so the test pins the dispatch decision itself,
    // not the default constant: 8 B stays below 1 KiB, 2 KiB crosses it.
    let res = run_ranks(4, |r, ep, comm, clock| {
        let reg = Registry::new();
        ep.set_metrics(reg.clone());
        ep.set_coll_selector(CollAlgoSelector {
            allreduce_ring_bytes: 1024,
            ..CollAlgoSelector::default()
        });
        let small = allreduce(ep, comm, clock, &[r as u64], ReduceOp::Sum).unwrap();
        let big: Vec<u64> = (0..256).map(|i| i + r as u64).collect();
        let big_out = allreduce(ep, comm, clock, &big, ReduceOp::Max).unwrap();
        (
            small,
            big_out,
            reg.counter(metric::COLL_ALGO_ALLREDUCE_RDOUBLE),
            reg.counter(metric::COLL_ALGO_ALLREDUCE_RING),
        )
    });
    for (small, big, rdouble_n, ring_n) in res {
        assert_eq!(small, vec![6]); // sum of ranks 0..4
        assert_eq!(big.len(), 256);
        assert_eq!(big[0], 3); // max over r of (0 + r)
        assert_eq!(rdouble_n, 1, "small payload must pick recursive doubling");
        assert_eq!(ring_n, 1, "2 KiB payload must pick ring at threshold 1 KiB");
    }
}

#[test]
fn segmented_ring_pipelines_and_counts_segments() {
    // Shrink the chunk size so every 104-byte ring block splits into
    // several segments, and keep the eager path (threshold above payload)
    // so the test isolates collective-level segmentation from rendezvous.
    let res = run_ranks(4, |r, ep, comm, clock| {
        let reg = Registry::new();
        ep.set_metrics(reg.clone());
        ep.set_rendezvous_chunk_bytes(16);
        let data: Vec<u64> = (0..13).map(|i| i * (r as u64 + 1)).collect();
        let out =
            allreduce_with(ep, comm, clock, &data, ReduceOp::Sum, AllreduceAlgo::Ring).unwrap();
        (
            out,
            reg.counter(metric::COLL_SEGMENTS),
            reg.counter(metric::COLL_BYTES_MOVED),
        )
    });
    let expect: Vec<u64> = (0..13).map(|i| i * 10).collect();
    for (out, segs, bytes) in res {
        assert_eq!(out, expect);
        // 6 block exchanges (2·(n−1) steps), blocks of 3–4 u64 = 24–32
        // bytes → 2 segments each at 16 bytes/segment.
        assert_eq!(segs, 12);
        // Total bytes: reduce-scatter sends blocks 13,13·8 = in balanced
        // blocks; per-rank total is 2·(13·8 − own-block) ≈ 2·(104 − 26).
        assert!((2 * (104 - 32)..=2 * 104).contains(&bytes), "bytes {bytes}");
    }
}

#[test]
fn gather_and_scatter() {
    let res = run_ranks(4, |r, ep, comm, clock| {
        gather(ep, comm, clock, Rank(1), &[r as u8; 3]).unwrap()
    });
    let blobs = res[1].as_ref().unwrap();
    for (i, b) in blobs.iter().enumerate() {
        assert_eq!(b, &vec![i as u8; 3]);
    }
    let res = run_ranks(4, |r, ep, comm, clock| {
        let data = if r == 0 {
            Some((0..4).map(|i| Bytes::from(vec![i as u8 * 10])).collect())
        } else {
            None
        };
        scatter(ep, comm, clock, Rank(0), data).unwrap()
    });
    for (i, b) in res.iter().enumerate() {
        assert_eq!(b, &vec![i as u8 * 10]);
    }
}

#[test]
fn allgather_all_see_all() {
    let res = run_ranks(3, |r, ep, comm, clock| {
        allgather(ep, comm, clock, &[r as u8 + 1]).unwrap()
    });
    for blobs in res {
        assert_eq!(blobs, vec![vec![1u8], vec![2], vec![3]]);
    }
}

#[test]
fn allgather_forced_algorithms_agree_on_ragged_blobs() {
    for n in [1u32, 2, 3, 5, 7] {
        let res = run_ranks(n, |r, ep, comm, clock| {
            // Ragged: rank r contributes r+1 bytes (rank 3 contributes 0).
            let len = if r == 3 { 0 } else { (r + 1) as usize };
            let data: Vec<u8> = (0..len).map(|i| r as u8 * 16 + i as u8).collect();
            let a = allgather_with(ep, comm, clock, &data, AllgatherAlgo::GatherBcast).unwrap();
            let b = allgather_with(ep, comm, clock, &data, AllgatherAlgo::Bruck).unwrap();
            let c = allgather_with(ep, comm, clock, &data, AllgatherAlgo::Ring).unwrap();
            (a, b, c)
        });
        for (a, b, c) in res {
            assert_eq!(a.len(), n as usize);
            for src in 0..n {
                let len = if src == 3 { 0 } else { (src + 1) as usize };
                let expect: Vec<u8> = (0..len).map(|i| src as u8 * 16 + i as u8).collect();
                assert_eq!(&a[src as usize][..], &expect[..]);
            }
            assert_eq!(a, b);
            assert_eq!(a, c);
        }
    }
}

#[test]
fn alltoall_transposes() {
    let res = run_ranks(4, |r, ep, comm, clock| {
        let send: Vec<Vec<u8>> = (0..4).map(|d| vec![r as u8, d as u8]).collect();
        alltoall(ep, comm, clock, &send).unwrap()
    });
    for (me, got) in res.iter().enumerate() {
        for (src, blob) in got.iter().enumerate() {
            assert_eq!(blob, &vec![src as u8, me as u8]);
        }
    }
}

#[test]
fn scan_prefix_sums() {
    let res = run_ranks(5, |r, ep, comm, clock| {
        scan(ep, comm, clock, &[(r + 1) as i64], ReduceOp::Sum).unwrap()
    });
    let mut expect = 0i64;
    for (r, v) in res.iter().enumerate() {
        expect += (r + 1) as i64;
        assert_eq!(v, &vec![expect]);
    }
}

#[test]
fn comm_split_partitions_and_works() {
    // Even/odd split; each half does its own allreduce.
    let res = run_ranks(4, |r, ep, comm, clock| {
        let color = Some(r % 2);
        let mut sub = comm_split(ep, comm, clock, color, r, AllgatherAlgo::Bruck)
            .unwrap()
            .unwrap();
        assert_eq!(sub.size(), 2);
        allreduce(ep, &mut sub, clock, &[r as i64], ReduceOp::Sum).unwrap()
    });
    assert_eq!(res[0], vec![2]); // 0 + 2
    assert_eq!(res[2], vec![2]);
    assert_eq!(res[1], vec![4]); // 1 + 3
    assert_eq!(res[3], vec![4]);
}

#[test]
fn comm_split_undefined_color() {
    let res = run_ranks(3, |r, ep, comm, clock| {
        let color = if r == 2 { None } else { Some(0) };
        comm_split(ep, comm, clock, color, 0, AllgatherAlgo::Bruck)
            .unwrap()
            .is_some()
    });
    assert_eq!(res, vec![true, true, false]);
}

#[test]
fn consecutive_collectives_do_not_cross_match() {
    let res = run_ranks(3, |r, ep, comm, clock| {
        let a = allreduce(ep, comm, clock, &[r as i64], ReduceOp::Sum).unwrap();
        let b = allreduce(ep, comm, clock, &[r as i64 * 10], ReduceOp::Sum).unwrap();
        barrier(ep, comm, clock).unwrap();
        let c = allreduce(ep, comm, clock, &[1i64], ReduceOp::Sum).unwrap();
        (a, b, c)
    });
    for (a, b, c) in res {
        assert_eq!(a, vec![3]);
        assert_eq!(b, vec![30]);
        assert_eq!(c, vec![3]);
    }
}

#[test]
fn pod_slice_roundtrip() {
    let xs = vec![1.5f64, -2.25, 0.0];
    assert_eq!(decode_slice::<f64>(&encode_slice(&xs)).unwrap(), xs);
    assert!(decode_slice::<f64>(&[1, 2, 3]).is_err());
}

#[test]
fn tag_fields_do_not_collide() {
    // Every field lands in its own bit range: distinct (op, phase, step,
    // seg, seq) tuples give distinct tags, and the base bit survives.
    let mut seen = std::collections::BTreeSet::new();
    for op in [OP_BARRIER, OP_BCAST, OP_ALLREDUCE] {
        for phase in [PHASE_MAIN, PHASE_AG, PHASE_CTRL] {
            for step in [0u32, 1, 4095] {
                for seg in [0u32, 1, 4095] {
                    for seq in [0u64, 1, u32::MAX as u64] {
                        let t = coll_tag_at(op, seq, phase, step, seg);
                        assert!(t & COLL_TAG_BASE != 0);
                        assert!(
                            seen.insert(t),
                            "tag collision at {op}/{phase}/{step}/{seg}/{seq}"
                        );
                    }
                }
            }
        }
    }
    // Sequence numbers wrap at 32 bits instead of leaking into seg.
    assert_eq!(
        coll_tag_at(OP_BCAST, 1u64 << 32, 0, 0, 0),
        coll_tag_at(OP_BCAST, 0, 0, 0, 0)
    );
}

/// Every allreduce variant, every tested op, at prime and non-power-of-two
/// communicator sizes, with zero-length payloads in range.
fn allreduce_case(n: u32, len: usize, algo: AllreduceAlgo, op: ReduceOp) {
    let res = run_ranks(n, move |r, ep, comm, clock| {
        let data: Vec<i64> = (0..len).map(|i| (r as i64 + 2) * (i as i64 + 1)).collect();
        allreduce_with(ep, comm, clock, &data, op, algo).unwrap()
    });
    let expect: Vec<i64> = (0..len)
        .map(|i| {
            let xs = (0..n).map(|r| (r as i64 + 2) * (i as i64 + 1));
            match op {
                ReduceOp::Sum => xs.sum(),
                ReduceOp::Prod => xs.product(),
                ReduceOp::Min => xs.min().unwrap(),
                ReduceOp::Max => xs.max().unwrap(),
            }
        })
        .collect();
    for v in res {
        assert_eq!(v, expect, "n={n} len={len} algo={algo:?} op={op:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn allreduce_algos_correct_at_awkward_sizes(
        n in (0usize..4).prop_map(|i| [3u32, 5, 7, 13][i]),
        len in (0usize..4).prop_map(|i| [0usize, 1, 5, 16][i]),
        algo in (0usize..3).prop_map(|i| [
            AllreduceAlgo::ReduceBcast,
            AllreduceAlgo::RecursiveDoubling,
            AllreduceAlgo::Ring,
        ][i]),
        op in (0usize..3).prop_map(|i| [ReduceOp::Sum, ReduceOp::Min, ReduceOp::Max][i]),
    ) {
        allreduce_case(n, len, algo, op);
    }

    #[test]
    fn allgather_algos_correct_at_awkward_sizes(
        n in (0usize..4).prop_map(|i| [3u32, 5, 7, 13][i]),
        algo in (0usize..3).prop_map(|i| [
            AllgatherAlgo::GatherBcast,
            AllgatherAlgo::Bruck,
            AllgatherAlgo::Ring,
        ][i]),
        stride in 0usize..5,
    ) {
        let res = run_ranks(n, move |r, ep, comm, clock| {
            // Blob length varies per rank and hits zero when stride == 0
            // or (r * stride) wraps to 0 mod 7.
            let len = (r as usize * stride) % 7;
            let data: Vec<u8> = (0..len).map(|i| (r as usize * 31 + i) as u8).collect();
            allgather_with(ep, comm, clock, &data, algo).unwrap()
        });
        for blobs in res {
            prop_assert_eq!(blobs.len(), n as usize);
            for (src, blob) in blobs.iter().enumerate() {
                let len = (src * stride) % 7;
                let expect: Vec<u8> = (0..len).map(|i| (src * 31 + i) as u8).collect();
                prop_assert_eq!(&blob[..], &expect[..]);
            }
        }
    }

    #[test]
    fn bcast_algos_correct_at_awkward_sizes(
        n in (0usize..4).prop_map(|i| [3u32, 5, 7, 13][i]),
        len in (0usize..4).prop_map(|i| [0usize, 1, 13, 64][i]),
        algo in (0usize..2).prop_map(|i| [BcastAlgo::Binomial, BcastAlgo::ScatterAllgather][i]),
        root_from_end in 0u32..3,
    ) {
        let root = (n - 1).saturating_sub(root_from_end);
        let res = run_ranks(n, move |r, ep, comm, clock| {
            let data: Bytes = if r == root {
                (0..len).map(|i| (i * 13 % 251) as u8).collect::<Vec<u8>>().into()
            } else {
                Bytes::new()
            };
            bcast_with(ep, comm, clock, Rank(root), data, algo).unwrap()
        });
        let expect: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
        for v in res {
            prop_assert_eq!(&v[..], &expect[..]);
        }
    }

    #[test]
    fn simple_collectives_correct_at_prime_sizes(
        n in (0usize..4).prop_map(|i| [3u32, 5, 7, 13][i]),
        len in (0usize..3).prop_map(|i| [0usize, 1, 4][i]),
    ) {
        let res = run_ranks(n, move |r, ep, comm, clock| {
            barrier(ep, comm, clock).unwrap();
            let data: Vec<i64> = (0..len).map(|i| r as i64 + i as i64).collect();
            let red = reduce(ep, comm, clock, Rank(n - 1), &data, ReduceOp::Sum).unwrap();
            let sc = scan(ep, comm, clock, &data, ReduceOp::Sum).unwrap();
            let gathered = gather(ep, comm, clock, Rank(0), &vec![r as u8; len]).unwrap();
            (red, sc, gathered)
        });
        for (r, (red, sc, gathered)) in res.iter().enumerate() {
            if r as u32 == n - 1 {
                let expect: Vec<i64> =
                    (0..len).map(|i| (0..n).map(|x| x as i64 + i as i64).sum()).collect();
                prop_assert_eq!(red.as_ref().unwrap(), &expect);
            } else {
                prop_assert!(red.is_none());
            }
            let expect_scan: Vec<i64> =
                (0..len).map(|i| (0..=r as i64).map(|x| x + i as i64).sum()).collect();
            prop_assert_eq!(sc, &expect_scan);
            if r == 0 {
                let blobs = gathered.as_ref().unwrap();
                for (src, b) in blobs.iter().enumerate() {
                    prop_assert_eq!(&b[..], &vec![src as u8; len][..]);
                }
            }
        }
    }
}
