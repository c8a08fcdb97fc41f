//! Criterion microbenchmarks of the library's hot paths (real wall time, not
//! virtual time): matching-engine scans at varying queue depths under both
//! engines, resource acquisition, contention-lock round trips, and tag
//! encoding — plus a simulated-cost ablation of linear vs sequence-merged
//! matching and a machine-readable
//! `BENCH_micro_hotpaths.json` summary.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bytes::Bytes;
use rankmpi_bench::json::{engine_counters, write_bench_json, Json};
use rankmpi_bench::{mailbox_costs, print_table, ratio};
use rankmpi_core::costs::CoreCosts;
use rankmpi_core::matching::{EngineKind, MatchPattern, PostedRecv, ANY_SOURCE, ANY_TAG};
use rankmpi_core::request::ReqState;
use rankmpi_core::tag::{default_tag_hash, TagLayout, TagPlacement};
use rankmpi_core::{LaunchMode, TaskLaunch, Universe};
use rankmpi_fabric::{Header, Packet};
use rankmpi_vtime::engine::{self, Dispatch, EngineConfig, TaskFn};
use rankmpi_vtime::{Clock, ContentionLock, Nanos, Resource};

fn pkt(ctx: u32, src: u32, tag: i64) -> Packet {
    Packet {
        header: Header {
            kind: 1,
            context_id: ctx,
            src,
            dst: 0,
            tag,
            seq: 0,
            aux: 0,
            aux2: 0,
        },
        payload: Bytes::new(),
        arrive_at: Nanos(1),
    }
}

fn recv(ctx: u32, src: i64, tag: i64) -> PostedRecv {
    PostedRecv {
        pattern: MatchPattern {
            context_id: ctx,
            src,
            tag,
        },
        req: ReqState::detached(),
        posted_at: Nanos::ZERO,
    }
}

fn bench_matching(c: &mut Criterion) {
    let mut g = c.benchmark_group("matching_engine");
    for kind in EngineKind::all() {
        for depth in [0usize, 16, 128, 1024] {
            g.bench_with_input(
                BenchmarkId::new(format!("post_recv_scan_{}", kind.name()), depth),
                &depth,
                |b, &depth| {
                    b.iter_batched(
                        || {
                            let mut e = kind.new_engine();
                            for i in 0..depth {
                                e.incoming(pkt(1, 0, i as i64));
                            }
                            e
                        },
                        |mut e| {
                            // Miss: the linear engine scans the whole
                            // unexpected queue; the merged engine answers
                            // from an empty index. Return the engine so its
                            // teardown is not timed.
                            let (m, work) = e.post_recv(recv(1, 0, depth as i64 + 1));
                            black_box((m.is_some(), work.scanned));
                            e
                        },
                        criterion::BatchSize::SmallInput,
                    );
                },
            );
        }
    }
    g.finish();
}

/// Simulated matching cost (the `CoreCosts` model, not wall time) for every
/// engine across unexpected-queue depths, plus live engine counters from a
/// reordered exchange. Writes `BENCH_micro_hotpaths.json`.
fn bench_engine_ablation(_c: &mut Criterion) {
    let costs = CoreCosts::default();
    let mut rows = Vec::new();
    let mut sweep_json = Vec::new();
    for depth in [1usize, 16, 64, 256, 1024] {
        let mut per_kind = Vec::new();
        let mut jrow = vec![("depth".to_string(), Json::int(depth as u64))];
        for kind in EngineKind::all() {
            // Exact receive of the last-arrived of `depth` uniquely tagged
            // unexpected packets: the hot path tag-multiplexed apps hit.
            let mut e = kind.new_engine();
            for i in 0..depth {
                e.incoming(pkt(1, 0, i as i64));
            }
            let (m, work) = e.post_recv(recv(1, 0, depth as i64 - 1));
            assert!(m.is_some());
            let exact = costs.match_cost_of(&work);
            // Wildcard receive on a fresh engine of the same depth.
            let mut e = kind.new_engine();
            for i in 0..depth {
                e.incoming(pkt(1, 0, i as i64));
            }
            let (m, work) = e.post_recv(recv(1, ANY_SOURCE, ANY_TAG));
            assert!(m.is_some());
            let wild = costs.match_cost_of(&work);
            jrow.push((
                format!("{}_exact_ns", kind.name()),
                Json::int(exact.as_ns()),
            ));
            jrow.push((
                format!("{}_wildcard_ns", kind.name()),
                Json::int(wild.as_ns()),
            ));
            per_kind.push((exact, wild));
        }
        let (lin, mrg) = (per_kind[0], per_kind[1]);
        if depth >= 64 {
            assert!(
                mrg.0 < lin.0,
                "seq_merged exact match must undercut linear at depth {depth}: {} vs {}",
                mrg.0,
                lin.0
            );
        }
        // The merged engine's whole claim: wildcard matching costs the same
        // O(1) head comparison as exact matching at any depth (within 4x,
        // leaving room for tombstone skips).
        assert!(
            mrg.1.as_ns() <= 4 * mrg.0.as_ns(),
            "seq_merged wildcard ({}) exceeds 4x its exact cost ({}) at depth {depth}",
            mrg.1,
            mrg.0
        );
        rows.push(vec![
            depth.to_string(),
            format!("{}", lin.0),
            format!("{}", mrg.0),
            format!("{}", lin.1),
            format!("{}", mrg.1),
        ]);
        sweep_json.push(Json::Obj(jrow));
    }
    print_table(
        "Simulated matching cost — linear vs seq_merged (unexpected-depth sweep)",
        &[
            "depth",
            "linear exact",
            "seq_merged exact",
            "linear wildcard",
            "seq_merged wildcard",
        ],
        &rows,
    );

    // Live engine counters: rank 0 sends 64 uniquely tagged messages, rank 1
    // drains them in reverse, snapshotting its VCI counters halfway while the
    // unexpected queue is still deep.
    let n = 64i64;
    let mut engines_json = Vec::new();
    for kind in EngineKind::all() {
        let u = Universe::builder().nodes(2).matching(kind).build();
        let snaps = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                for t in 0..n {
                    world.send(&mut th, 1, t, b"payload").unwrap();
                }
                Json::Null
            } else {
                for t in (n / 2..n).rev() {
                    world.recv(&mut th, 0, t).unwrap();
                }
                let snap = engine_counters(&env.proc().vci(world.vci_block()[0]));
                for t in (0..n / 2).rev() {
                    world.recv(&mut th, 0, t).unwrap();
                }
                snap
            }
        });
        let snap = snaps.into_iter().find(|s| *s != Json::Null).unwrap();
        engines_json.push(snap);
    }

    // Datapath rows: single-thread mailbox push cost and drain rate (the
    // `datapath` bench has the rest; these keep the hot-path summary
    // self-contained).
    let (ring_push_ns, ring_drain_tput) = mailbox_costs(512);
    print_table(
        "Mailbox datapath — single thread, 4 channels x 32 pushes per drain",
        &["ns/push", "drain msgs/s"],
        &[vec![
            format!("{ring_push_ns:.0}"),
            format!("{ring_drain_tput:.3e}"),
        ]],
    );

    write_bench_json(
        "micro_hotpaths",
        &Json::obj([
            ("bench", Json::str("micro_hotpaths")),
            ("sim_matching_cost", Json::Arr(sweep_json)),
            ("receiver_counters_mid_drain", Json::Arr(engines_json)),
            ("resource_acquire_ns", resource_acquire_ns()),
            ("engine_yield_ns", engine_yield_ns()),
            (
                "datapath_ablation",
                Json::obj([
                    ("ring_ns_per_push", Json::Num(ring_push_ns)),
                    ("ring_drain_msgs_per_sec", Json::Num(ring_drain_tput)),
                ]),
            ),
        ]),
    );
}

/// Wall-clock nanoseconds per pingpong iteration (2 ranks, 1 thread each,
/// blocking send/recv round trip) — the hot path the `obs` feature must not
/// tax when disabled.
fn pingpong_wall_ns_per_iter(iters: usize) -> f64 {
    let u = Universe::builder().nodes(2).build();
    let start = std::time::Instant::now();
    u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        let peer = 1 - env.rank();
        for i in 0..iters {
            let tag = (i % 512) as i64;
            if env.rank() == 0 {
                world.send(&mut th, peer, tag, b"pingpong").unwrap();
                world.recv(&mut th, peer as i64, tag).unwrap();
            } else {
                world.recv(&mut th, peer as i64, tag).unwrap();
                world.send(&mut th, peer, tag, b"pingpong").unwrap();
            }
        }
    });
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Median-of-repeats pingpong timing, written to the summary JSON. The file
/// name carries the tracer state (`micro_hotpaths` vs `micro_hotpaths_obs`)
/// so feature-off and feature-on runs can sit side by side and be diffed:
/// their ratio is the compiled-in tracer's overhead. The rank threads are
/// not pinned, so the absolute number depends on where the kernel puts them
/// (`benchmark/`'s pinned `pingpong` is the wall-clock measuring stick).
fn bench_pingpong_overhead(_c: &mut Criterion) {
    let iters = 2_000;
    pingpong_wall_ns_per_iter(iters); // warmup
    let mut runs: Vec<f64> = (0..5).map(|_| pingpong_wall_ns_per_iter(iters)).collect();
    runs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = runs[runs.len() / 2];
    println!(
        "\npingpong hot path: {median:.0} ns/iter wall (obs compiled: {})",
        rankmpi_obs::COMPILED
    );
    let name = if rankmpi_obs::COMPILED {
        "micro_hotpaths_pingpong_obs"
    } else {
        "micro_hotpaths_pingpong"
    };
    write_bench_json(
        name,
        &Json::obj([
            ("bench", Json::str("micro_hotpaths")),
            ("obs_compiled", Json::Bool(rankmpi_obs::COMPILED)),
            ("pingpong_iters", Json::int(iters as u64)),
            ("pingpong_ns_per_iter_median", Json::Num(median)),
            (
                "pingpong_ns_per_iter_runs",
                Json::Arr(runs.into_iter().map(Json::Num).collect()),
            ),
        ]),
    );
}

/// Real wall time to build, run a trivial per-rank body, and join a 64-rank
/// universe under each launch mode — the fixed cost a large-rank run pays for
/// OS-thread-per-rank vs cooperatively scheduled rank-tasks. Writes
/// `BENCH_micro_hotpaths_launch.json`.
fn bench_launch_overhead(_c: &mut Criterion) {
    const RANKS: usize = 64;
    let run_once = |mode: LaunchMode| -> f64 {
        let u = Universe::builder().nodes(RANKS).launch(mode).build();
        let start = std::time::Instant::now();
        u.run(|env| env.rank());
        start.elapsed().as_secs_f64() * 1e6
    };
    let median = |mode: LaunchMode| -> f64 {
        run_once(mode); // warmup
        let mut runs: Vec<f64> = (0..5).map(|_| run_once(mode)).collect();
        runs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        runs[runs.len() / 2]
    };
    let threads_us = median(LaunchMode::Threads);
    let tasks_us = median(LaunchMode::Tasks(TaskLaunch::default()));
    print_table(
        "Launch + join overhead — trivial per-rank body (real wall time, median of 5)",
        &["ranks", "threads", "tasks", "threads/tasks"],
        &[vec![
            RANKS.to_string(),
            format!("{threads_us:.0} us"),
            format!("{tasks_us:.0} us"),
            ratio(threads_us, tasks_us),
        ]],
    );
    write_bench_json(
        "micro_hotpaths_launch",
        &Json::obj([
            ("bench", Json::str("micro_hotpaths")),
            ("ranks", Json::int(RANKS as u64)),
            ("threads_launch_us", Json::Num(threads_us)),
            ("tasks_launch_us", Json::Num(tasks_us)),
        ]),
    );
}

/// One `bench <group>/<name> … ns/iter` line per row, in the criterion shim's
/// format.
fn print_rows(group: &str, rows: &[(&str, f64)]) {
    for (name, ns) in rows {
        println!("bench {:<48} {ns:>14.1} ns/iter", format!("{group}/{name}"));
    }
}

/// `Resource::acquire` wall cost for the shapes its schedule distinguishes
/// (median of `reps` fresh resources, `calls` timed calls each):
/// `append_sparse_{1k,200k}` — in-order requests that never merge, onto
/// 1k or 200k remembered intervals; `touching` — each request starts where
/// the last ended; `behind_1k` — requests that fit a gap 1 000 intervals
/// behind the frontier of 100k. The two ratio asserts are the regression
/// gate: the cost of a request may depend neither on how much history the
/// resource holds nor on how far behind the frontier it lands.
fn resource_acquire_ns() -> Json {
    // Sparse history: [15i + 10, 15i + 15), 10-wide gaps.
    let sparse = |n: u64| {
        let r = Resource::new();
        for i in 0..n {
            r.acquire(Nanos(15 * i + 10), Nanos(5));
        }
        r
    };
    let median_ns = |reps: usize, calls: u64, shape: &dyn Fn() -> (Resource, u64, u64)| {
        let mut runs: Vec<f64> = (0..reps)
            .map(|_| {
                // `at` is the first request time, `busy` its length; each
                // later request starts 15 after the one before.
                let (r, at, busy) = shape();
                let start = std::time::Instant::now();
                for i in 0..calls {
                    black_box(r.acquire(Nanos(at + 15 * i), Nanos(busy)));
                }
                start.elapsed().as_nanos() as f64 / calls as f64
            })
            .collect();
        runs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        runs[runs.len() / 2]
    };
    let rows = [
        (
            "append_sparse_1k",
            median_ns(201, 1_000, &|| (sparse(1_000), 15 * 1_000 + 10, 5)),
        ),
        (
            "append_sparse_200k",
            median_ns(21, 1_000, &|| (sparse(200_000), 15 * 200_000 + 10, 5)),
        ),
        ("touching", median_ns(201, 1_000, &|| (sparse(1), 15, 15))),
        (
            "behind_1k",
            median_ns(21, 500, &|| (sparse(100_000), 15 * 99_000 + 2, 2)),
        ),
    ];
    print_rows("resource_acquire", &rows);
    let [(_, append_1k), (_, append_200k), _, (_, behind_1k)] = rows;
    assert!(
        append_200k <= 3.0 * append_1k,
        "Resource::acquire got slower with history: {rows:?}"
    );
    assert!(
        behind_1k <= 20.0 * append_1k,
        "Resource::acquire behind the frontier fell off a cliff: {rows:?}"
    );
    Json::obj(rows.map(|(name, ns)| (name, Json::Num(ns))))
}

/// Wall nanoseconds per `Clock::advance` inside an engine task that has
/// nothing to switch to (best of 11 runs, slowest task of each — the second
/// row needs two cores at once, and a shared runner only ever adds to it):
/// `1_worker` — one task on one worker; `2_workers` — two tasks, each
/// spinning on its own worker. A yield point that does not switch takes no
/// engine lock, so all the tasks share is the step flush every 64th point;
/// the ratio assert is the regression gate, and a lock taken per point is
/// exactly the cliff it catches.
fn engine_yield_ns() -> Json {
    const POINTS: u64 = 1_000_000;
    let best_ns = |workers: usize| {
        (0..11)
            .map(|_| {
                let tasks = (0..workers)
                    .map(|_| {
                        Box::new(|| {
                            let mut c = Clock::new();
                            let start = std::time::Instant::now();
                            for _ in 0..POINTS {
                                black_box(&mut c).advance(Nanos(1));
                            }
                            start.elapsed().as_nanos() as f64 / POINTS as f64
                        }) as TaskFn<'static, f64>
                    })
                    .collect();
                let out = engine::run(
                    EngineConfig {
                        dispatch: Dispatch::VirtualTime {
                            workers,
                            slack: Nanos(100_000),
                        },
                        ..EngineConfig::default()
                    },
                    tasks,
                );
                assert!(out.panic.is_none(), "{:?}", out.panic);
                out.results.into_iter().flatten().fold(0.0, f64::max)
            })
            .fold(f64::INFINITY, f64::min)
    };
    let rows = [("1_worker", best_ns(1)), ("2_workers", best_ns(2))];
    print_rows("engine_yield", &rows);
    let [(_, one), (_, two)] = rows;
    assert!(
        two <= 3.0 * one,
        "a yield point that does not switch got slower with a second worker: {rows:?}"
    );
    Json::obj(rows.map(|(name, ns)| (name, Json::Num(ns))))
}

fn bench_lock(c: &mut Criterion) {
    c.bench_function("contention_lock_roundtrip", |b| {
        let l = ContentionLock::new(0u64);
        let mut clock = Clock::new();
        b.iter(|| {
            let mut g = l.lock(&mut clock);
            *g += 1;
            g.release(&mut clock);
        });
    });
}

fn bench_tags(c: &mut Criterion) {
    let layout = TagLayout::for_threads(64, TagPlacement::Msb).unwrap();
    c.bench_function("tag_encode_decode", |b| {
        b.iter(|| {
            let t = layout
                .encode(black_box(13), black_box(57), black_box(1000))
                .unwrap();
            black_box(layout.decode(t))
        });
    });
    c.bench_function("default_tag_hash", |b| {
        let mut t = 0i64;
        b.iter(|| {
            t += 1;
            black_box(default_tag_hash(7, t, 16))
        });
    });
}

criterion_group!(
    benches,
    bench_matching,
    bench_engine_ablation,
    bench_pingpong_overhead,
    bench_launch_overhead,
    bench_lock,
    bench_tags
);
criterion_main!(benches);
