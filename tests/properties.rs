//! Property-based tests (proptest) of the library's core invariants.

use bytes::Bytes;
use proptest::prelude::*;
use rankmpi_core::coll::{bytes_to_f64s, f64s_to_bytes};
use rankmpi_core::matching::{EngineKind, Incoming, MatchPattern, PostedRecv};
use rankmpi_core::request::ReqState;
use rankmpi_core::tag::{bits_for, default_tag_hash, TagLayout, TagPlacement, TAG_UB};
use rankmpi_fabric::{Header, Packet};
use rankmpi_vtime::{Nanos, Resource};
use rankmpi_workloads::commcount::{boundary_threads_brute_force, min_channels_3d};
use rankmpi_workloads::stencil::maps::{colored_map, Geometry};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Tag encode/decode is a bijection over every layout that fits.
    #[test]
    fn tag_layout_roundtrips(
        src_bits in 0u32..=8,
        dst_bits in 0u32..=8,
        msb in any::<bool>(),
        src in 0usize..256,
        dst in 0usize..256,
        app in 0i64..1024,
    ) {
        let app_bits = 22u32.saturating_sub(src_bits + dst_bits).min(10);
        let placement = if msb { TagPlacement::Msb } else { TagPlacement::Lsb };
        let layout = TagLayout::new(src_bits, dst_bits, app_bits, placement).unwrap();
        let src = src % (1usize << src_bits.min(20));
        let dst = dst % (1usize << dst_bits.min(20));
        let app = app % (1i64 << app_bits);
        let tag = layout.encode(src, dst, app).unwrap();
        prop_assert!((0..=TAG_UB).contains(&tag));
        prop_assert_eq!(layout.decode(tag), (src, dst, app));
    }

    /// `bits_for` is exact: the minimum width that represents 0..n.
    #[test]
    fn bits_for_is_minimal(n in 1usize..100_000) {
        let b = bits_for(n);
        prop_assert!((1u64 << b) >= n as u64);
        if b > 0 {
            prop_assert!((1u64 << (b - 1)) < n as u64);
        }
    }

    /// The default tag hash always lands inside the pool.
    #[test]
    fn tag_hash_in_range(ctx in any::<u32>(), tag in 0i64..TAG_UB, n in 1usize..64) {
        prop_assert!(default_tag_hash(ctx, tag, n) < n);
    }

    /// f64 wire serialization is lossless (including NaN-free specials).
    #[test]
    fn f64_bytes_roundtrip(v in proptest::collection::vec(any::<f64>().prop_filter("no NaN", |x| !x.is_nan()), 0..64)) {
        prop_assert_eq!(bytes_to_f64s(&f64s_to_bytes(&v)), v);
    }

    /// Resource acquisitions never overlap and never start before request.
    #[test]
    fn resource_serializes_any_request_sequence(
        reqs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..50)
    ) {
        let r = Resource::new();
        let mut spans = Vec::new();
        for (at, busy) in &reqs {
            let a = r.acquire(Nanos(*at), Nanos(*busy));
            prop_assert!(a.start >= Nanos(*at));
            prop_assert_eq!(a.end, a.start + Nanos(*busy));
            spans.push(a);
        }
        spans.sort_by_key(|a| a.start);
        for w in spans.windows(2) {
            prop_assert!(w[0].end <= w[1].start);
        }
        let total: u64 = reqs.iter().map(|(_, b)| *b).sum();
        prop_assert_eq!(r.busy_total(), Nanos(total));
    }

    /// Every matching engine conserves messages and preserves per-channel FIFO
    /// under arbitrary interleavings of posts and arrivals.
    #[test]
    fn matching_conserves_and_orders(
        ops in proptest::collection::vec((any::<bool>(), 0u32..3, 0i64..3), 1..120)
    ) {
        for kind in EngineKind::all() {
            let mut e = kind.new_engine();
            let mut sent: Vec<u64> = Vec::new();     // seq of every arrival
            let mut matched: Vec<(i64, u64)> = Vec::new(); // (channel key, seq)
            let mut seq = 0u64;
            let mut arrival_clock = 0u64;
            for &(is_post, src, tag) in &ops {
                let key = (src as i64) << 8 | tag;
                if is_post {
                    let recv = PostedRecv {
                        pattern: MatchPattern { context_id: 1, src: src as i64, tag },
                        req: ReqState::detached(),
                        posted_at: Nanos::ZERO,
                    };
                    if let (Some(pkt), _) = e.post_recv(recv) {
                        matched.push((key, pkt.header.seq));
                    }
                } else {
                    arrival_clock += 10;
                    let pkt = Packet {
                        header: Header {
                            kind: 1,
                            context_id: 1,
                            src,
                            dst: 0,
                            tag,
                            seq,
                            aux: 0,
                            aux2: 0,
                        },
                        payload: Bytes::new(),
                        arrive_at: Nanos(arrival_clock),
                    };
                    sent.push(seq);
                    seq += 1;
                    if let Incoming::Matched { packet, .. } = e.incoming(pkt) {
                        matched.push((key, packet.header.seq));
                    }
                }
            }
            // Conservation: matched + still-queued == sent.
            prop_assert_eq!(matched.len() + e.unexpected_len(), sent.len());
            // Per-channel FIFO: within one (src, tag) channel, matched seqs rise.
            let mut per_chan: std::collections::HashMap<i64, u64> = std::collections::HashMap::new();
            for (key, s) in matched {
                if let Some(prev) = per_chan.insert(key, s) {
                    prop_assert!(s > prev, "[{}] channel {} matched {} after {}", kind.name(), key, s, prev);
                }
            }
        }
    }

    /// The sequence-merged engine's pop order equals the linear oracle's
    /// under arbitrary interleavings of posts (all four wildcard shapes),
    /// arrivals, and cancel-by-identity holes — including runs where the
    /// engine sequence counters wrap around `u64::MAX` mid-stream.
    #[test]
    fn merged_order_equals_linear_oracle(
        ops in proptest::collection::vec((0u8..8, 0u32..4, 0i64..4), 1..150),
        wrap in any::<bool>(),
    ) {
        use rankmpi_core::matching::{ANY_SOURCE, ANY_TAG};
        use std::sync::Arc;

        // `wrap` starts both engines' internal post/arrival counters just
        // below u64::MAX so they wrap while the queues are populated; the
        // linear oracle ignores the base, which is the point — observable
        // order must not depend on raw counter values.
        let base = if wrap { u64::MAX - 37 } else { 0 };
        let mut oracle = EngineKind::Linear.new_engine_with_seq_base(base);
        let mut merged = EngineKind::SeqMerged.new_engine_with_seq_base(base);
        let mut handles: Vec<(Arc<ReqState>, Arc<ReqState>)> = Vec::new();
        let mut seq = 0u64;
        let mut clock = 0u64;
        for &(sel, src, tag) in &ops {
            clock += 7;
            match sel {
                0..=3 => {
                    // Post: `sel` picks the wildcard shape, so all four
                    // classes (exact, ANY-src, ANY-tag, full wildcard) mix.
                    let pattern = MatchPattern {
                        context_id: 1,
                        src: if sel & 1 == 1 { ANY_SOURCE } else { src as i64 },
                        tag: if sel & 2 == 2 { ANY_TAG } else { tag },
                    };
                    let ro = ReqState::detached();
                    let rm = ReqState::detached();
                    let mk = |req: &Arc<ReqState>| PostedRecv {
                        pattern,
                        req: req.clone(),
                        posted_at: Nanos(clock),
                    };
                    let (po, _) = oracle.post_recv(mk(&ro));
                    let (pm, _) = merged.post_recv(mk(&rm));
                    prop_assert_eq!(
                        po.map(|p| p.header.seq),
                        pm.map(|p| p.header.seq),
                        "post pop divergence (wrap={})", wrap
                    );
                    handles.push((ro, rm));
                }
                4..=6 => {
                    let this_seq = seq;
                    seq += 1;
                    let mk = || Packet {
                        header: Header {
                            kind: 1,
                            context_id: 1,
                            src,
                            dst: 0,
                            tag,
                            seq: this_seq,
                            aux: 0,
                            aux2: 0,
                        },
                        payload: Bytes::new(),
                        arrive_at: Nanos(clock),
                    };
                    let io = oracle.incoming(mk());
                    let im = merged.incoming(mk());
                    match (io, im) {
                        (
                            Incoming::Matched { recv: a, packet: pa, .. },
                            Incoming::Matched { recv: b, packet: pb, .. },
                        ) => {
                            prop_assert_eq!(a.pattern, b.pattern, "matched different posts");
                            prop_assert_eq!(a.posted_at, b.posted_at);
                            prop_assert_eq!(pa.header.seq, pb.header.seq);
                        }
                        (Incoming::Queued { .. }, Incoming::Queued { .. }) => {}
                        (a, b) => {
                            panic!("incoming divergence (wrap={wrap}): oracle={a:?} merged={b:?}")
                        }
                    }
                }
                _ => {
                    // Cancel-by-identity: punch a hole at a pseudo-random
                    // post. The merged engine tombstones; order must hold.
                    if !handles.is_empty() {
                        let k = (src as usize * 4 + tag as usize) % handles.len();
                        let co = oracle.cancel(&handles[k].0);
                        let cm = merged.cancel(&handles[k].1);
                        prop_assert_eq!(co, cm, "cancel divergence (wrap={})", wrap);
                    }
                }
            }
        }
        // Residual queues and their drain order agree exactly.
        prop_assert_eq!(oracle.posted_len(), merged.posted_len());
        prop_assert_eq!(oracle.unexpected_len(), merged.unexpected_len());
        let (po, uo) = oracle.drain();
        let (pm, um) = merged.drain();
        let pats_o: Vec<_> = po.iter().map(|r| (r.pattern, r.posted_at)).collect();
        let pats_m: Vec<_> = pm.iter().map(|r| (r.pattern, r.posted_at)).collect();
        prop_assert_eq!(pats_o, pats_m, "posted drain order differs (wrap={})", wrap);
        let seqs_o: Vec<u64> = uo.iter().map(|p| p.header.seq).collect();
        let seqs_m: Vec<u64> = um.iter().map(|p| p.header.seq).collect();
        prop_assert_eq!(seqs_o, seqs_m, "unexpected drain order differs (wrap={})", wrap);
    }

    /// The closed-form boundary-thread count equals brute force everywhere.
    #[test]
    fn min_channels_formula_is_exact(x in 1usize..8, y in 1usize..8, z in 1usize..8) {
        prop_assert_eq!(min_channels_3d(x, y, z), boundary_threads_brute_force(x, y, z));
    }

    /// Every generated communicator map matches consistently and exposes one
    /// distinct channel per (thread, direction) at each process.
    #[test]
    // px, py >= 2: a 1-wide torus folds a channel's two endpoints into one
    // process, where "two threads share the channel's comm" is inherent
    // rather than a coloring defect.
    fn colored_maps_are_valid(px in 2usize..4, py in 2usize..4, tx in 2usize..5, ty in 2usize..5, nine in any::<bool>(), corner in any::<bool>()) {
        let geo = Geometry { px, py, tx, ty };
        let map = colored_map(geo, nine, corner);
        prop_assert!(map.validate_matching().is_ok());
        if !corner {
            // Without corner sharing, no two threads of a process may share.
            prop_assert_eq!(map.max_threads_sharing_a_comm(), 1);
        }
    }

    /// Nanos arithmetic: monotone, saturating, unit-consistent.
    #[test]
    fn nanos_arithmetic(a in any::<u64>(), b in any::<u64>()) {
        let (na, nb) = (Nanos(a), Nanos(b));
        prop_assert_eq!(na + nb, nb + na);
        prop_assert!(na + nb >= na.max(nb));
        prop_assert_eq!((na - nb) + (nb - na), Nanos(a.abs_diff(b)));
        prop_assert_eq!(na.max(nb).min(na), na.min(nb).max(na));
    }

    /// 16-bit retransmit-window sequence comparison is a strict total order
    /// on any window-sized slice of sequence space, across wraparound.
    #[test]
    fn resil_seq_compare_orders_windows(start in any::<u16>(), window in 1u16..1024) {
        use rankmpi_fabric::resil::{seq_after, seq_distance};
        // Within a window starting anywhere (including across 0xFFFF→0),
        // later offsets always compare after earlier ones, never vice versa.
        let a = start;
        let b = start.wrapping_add(window);
        prop_assert!(seq_after(b, a));
        prop_assert!(!seq_after(a, b));
        prop_assert!(!seq_after(a, a));
        prop_assert_eq!(seq_distance(b, a), window);
        prop_assert_eq!(seq_distance(a, a), 0);
        // Antisymmetry over arbitrary in-window pairs.
        let mid = start.wrapping_add(window / 2);
        if mid != b {
            prop_assert!(seq_after(b, mid) != seq_after(mid, b));
        }
    }

    /// Retransmit backoff is monotone nondecreasing in the attempt number,
    /// capped at `rto_cap`, and jitter stays within `rto_base / 4`.
    #[test]
    fn resil_backoff_is_monotone_and_capped(
        base in 1_000u64..100_000,
        cap_mult in 1u64..64,
        seed in any::<u64>(),
        src in 0u32..8,
        seq in any::<u64>(),
    ) {
        use rankmpi_fabric::resil::{backoff, rto, ResilConfig};
        use rankmpi_fabric::FaultPlan;
        let cfg = ResilConfig {
            rto_base: Nanos(base),
            rto_cap: Nanos(base.saturating_mul(cap_mult)),
            ..ResilConfig::default()
        };
        let plan = FaultPlan::new(seed);
        let mut prev = Nanos::ZERO;
        for attempt in 1..40u32 {
            let b = backoff(&cfg, attempt);
            prop_assert!(b >= prev, "backoff must not shrink");
            prop_assert!(b <= cfg.rto_cap.max(cfg.rto_base), "backoff exceeds cap");
            let j = rto(&cfg, &plan, src, seq, attempt);
            prop_assert!(j >= b);
            prop_assert!(j.as_ns() - b.as_ns() <= (base / 4).max(1), "jitter out of bounds");
            // Determinism: same identity, same jitter.
            prop_assert_eq!(j, rto(&cfg, &plan, src, seq, attempt));
            prev = b;
        }
    }
}

/// End-to-end property: allreduce equals the sequential reduction for random
/// vectors and process counts. (Outside the proptest! macro block to control
/// the heavier case count.)
#[test]
fn allreduce_matches_sequential_reduction() {
    use rand::rngs::StdRng;
    use rand::Rng;
    use rand::SeedableRng;
    use rankmpi_core::{ReduceOp, Universe};

    let mut rng = StdRng::seed_from_u64(42);
    for _ in 0..8 {
        let procs = rng.gen_range(1..=6);
        let len = rng.gen_range(1..=40);
        let data: Vec<Vec<f64>> = (0..procs)
            .map(|_| (0..len).map(|_| rng.gen_range(-100.0..100.0)).collect())
            .collect();
        let mut expect = vec![0.0; len];
        for v in &data {
            for (e, x) in expect.iter_mut().zip(v) {
                *e += x;
            }
        }
        let u = Universe::builder().nodes(procs).build();
        let data_ref = &data;
        let results = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            world
                .allreduce(&mut th, &data_ref[env.rank()], ReduceOp::Sum)
                .unwrap()
        });
        for r in results {
            for (a, b) in r.iter().zip(&expect) {
                assert!((a - b).abs() < 1e-9, "allreduce mismatch: {a} vs {b}");
            }
        }
    }
}

// Heavier end-to-end properties get their own block with a small case count:
// each case spins up a full universe (real threads), so 64 cases would
// dominate the suite's wall clock for no extra coverage.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Partitioned roundtrip: any partition count / size and ANY pready order
    /// delivers every partition's payload intact, exactly once.
    #[test]
    fn partitioned_roundtrip_any_order(
        parts in 1usize..=8,
        part_bytes in 1usize..=32,
        order_seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        use rankmpi_core::{Info, Universe};

        let u = Universe::builder().nodes(2).num_vcis(2).build();
        let ok = u.run(move |env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let sreq =
                    world.psend_init(&mut th, 1, 11, parts, part_bytes, &Info::new()).unwrap();
                sreq.start(&mut th).unwrap();
                let mut order: Vec<usize> = (0..parts).collect();
                order.shuffle(&mut StdRng::seed_from_u64(order_seed));
                for &p in &order {
                    let fill = (p as u8).wrapping_mul(31).wrapping_add(order_seed as u8);
                    sreq.pready(&mut th, p, &vec![fill; part_bytes]).unwrap();
                }
                sreq.wait(&mut th).unwrap();
                true
            } else {
                let rreq =
                    world.precv_init(&mut th, 0, 11, parts, part_bytes, &Info::new()).unwrap();
                rreq.start(&mut th).unwrap();
                let data = rreq.wait(&mut th).unwrap();
                assert_eq!(data.len(), parts * part_bytes);
                for p in 0..parts {
                    let fill = (p as u8).wrapping_mul(31).wrapping_add(order_seed as u8);
                    assert!(
                        data[p * part_bytes..(p + 1) * part_bytes]
                            .iter()
                            .all(|&b| b == fill),
                        "partition {p} corrupted (parts={parts}, bytes={part_bytes})"
                    );
                }
                true
            }
        });
        prop_assert!(ok.iter().all(|&x| x));
    }

    /// Endpoint fan-out: with a random endpoint count, every sender thread
    /// reaches every receiver endpoint and nothing cross-matches.
    #[test]
    fn endpoint_fanout_delivers_everything(eps_n in 1usize..=4, salt in 0u8..32) {
        use rankmpi_core::{Universe, ANY_SOURCE, ANY_TAG};

        let u = Universe::builder()
            .nodes(2)
            .threads_per_proc(eps_n)
            .num_vcis(eps_n)
            .build();
        let totals = u.run(move |env| {
            let world = env.world();
            let mut setup = env.single_thread();
            let eps = world.create_endpoints(&mut setup, eps_n).unwrap();
            let eps = &eps;
            let got = env.parallel(|th| {
                let tid = th.tid();
                let ep = &eps[tid];
                let peer_proc = 1 - env.rank();
                if env.rank() == 0 {
                    // Fan out: this thread sends one message to EVERY peer
                    // endpoint, tagged with (sender, receiver).
                    for j in 0..eps_n {
                        let dst = ep.endpoint_rank(peer_proc, j);
                        let tag = (tid * 10 + j) as i64;
                        ep.send(th, dst, tag, &[tid as u8, j as u8, salt]).unwrap();
                    }
                    0usize
                } else {
                    // Fan in: one message from every sender thread.
                    let mut seen = vec![false; eps_n];
                    for _ in 0..eps_n {
                        let (st, d) = ep.recv(th, ANY_SOURCE, ANY_TAG).unwrap();
                        let (from, to) = (d[0] as usize, d[1] as usize);
                        assert_eq!(to, tid, "message for endpoint {to} leaked to {tid}");
                        assert_eq!(st.tag, (from * 10 + to) as i64);
                        assert_eq!(d[2], salt);
                        assert!(!seen[from], "duplicate delivery from thread {from}");
                        seen[from] = true;
                    }
                    seen.iter().filter(|&&s| s).count()
                }
            });
            got.iter().sum::<usize>()
        });
        prop_assert_eq!(totals[1], eps_n * eps_n);
    }
}
