//! Hot-path cost gates: the simulated linear-vs-`seq_merged` matching cost
//! over unexpected-queue depths (the `CoreCosts` model, deterministic), plus
//! two wall-clock ratio gates, `Resource::acquire` against its history and an
//! engine yield point against a second worker. Each section asserts its
//! claim, and the run writes `BENCH_micro_hotpaths.json`. Per-structure wall
//! costs (mailbox, matching, lock, launch) live in `benchmark/`'s probes.

use std::hint::black_box;

use bytes::Bytes;
use rankmpi_bench::{print_table, write_bench_json};
use rankmpi_core::costs::CoreCosts;
use rankmpi_core::matching::{EngineKind, MatchPattern, PostedRecv, ANY_SOURCE, ANY_TAG};
use rankmpi_core::request::ReqState;
use rankmpi_fabric::{Header, Packet};
use rankmpi_obs::json::Value;
use rankmpi_vtime::engine::{self, Dispatch, EngineConfig, TaskFn};
use rankmpi_vtime::{Clock, Nanos, Resource};

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

/// Simulated matching cost (the `CoreCosts` model, not wall time) for every
/// engine across unexpected-queue depths: one row per depth with each
/// engine's exact and wildcard cost in ns.
fn sim_matching_cost() -> Value {
    let costs = CoreCosts::default();
    let mut rows = Vec::new();
    let mut sweep_json = Vec::new();
    for depth in [1usize, 16, 64, 256, 1024] {
        let mut per_kind = Vec::new();
        let mut jrow = vec![("depth".to_string(), Value::int(depth as u64))];
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
                Value::int(exact.as_ns()),
            ));
            jrow.push((
                format!("{}_wildcard_ns", kind.name()),
                Value::int(wild.as_ns()),
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
        sweep_json.push(Value::obj(jrow));
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
    Value::Arr(sweep_json)
}

/// One `bench <group>/<name> … ns/iter` line per row.
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
fn resource_acquire_ns() -> Value {
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
    Value::obj(rows.map(|(name, ns)| (name, Value::Num(ns))))
}

/// Wall nanoseconds per `Clock::advance` inside an engine task that has
/// nothing to switch to (best of 11 runs, slowest task of each — the second
/// row needs two cores at once, and a shared runner only ever adds to it):
/// `1_worker` — one task on one worker; `2_workers` — two tasks, each
/// spinning on its own worker. A yield point that does not switch takes no
/// engine lock, so all the tasks share is the step flush every 64th point;
/// the ratio assert is the regression gate, and a lock taken per point is
/// exactly the cliff it catches.
fn engine_yield_ns() -> Value {
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
    Value::obj(rows.map(|(name, ns)| (name, Value::Num(ns))))
}

fn main() {
    write_bench_json(
        "micro_hotpaths",
        &Value::obj([
            ("bench", Value::str("micro_hotpaths")),
            ("sim_matching_cost", sim_matching_cost()),
            ("resource_acquire_ns", resource_acquire_ns()),
            ("engine_yield_ns", engine_yield_ns()),
        ]),
    );
}
