//! Dual-mode launch parity: thread-mode and task-mode runs of the same
//! workload must agree.
//!
//! What "agree" means depends on what the model guarantees:
//!
//! - **MPI-visible results** (payloads, sources, collective values) are
//!   asserted bit-identical in every scenario — correctness can never depend
//!   on the launch mode.
//! - **Virtual times** are asserted bit-identical where the model is
//!   schedule-deterministic: pure clock/barrier coupling, self-messaging
//!   (one thread drives its whole progress path), and partitioned rounds.
//! - Blocking cross-rank traffic rides MPICH's "anyone can progress
//!   anything" model: whether a packet is matched on the incoming side or at
//!   post time depends on the *real* drain/post race, shifting completion by
//!   O(one matching-scan cost). That race exists between two thread-mode
//!   runs too, so those scenarios assert virtual times within a tight
//!   tolerance (0.5%) instead of bit-equality.
//!
//! Everything runs under both launch modes.

use std::sync::Arc;

use rankmpi_check::{base_seed, oracle, BuildChecked};
use rankmpi_core::{EngineKind, Info, LaunchMode, TaskLaunch, Universe};
use rankmpi_vtime::{Nanos, VirtualBarrier};

fn modes() -> [LaunchMode; 2] {
    [
        LaunchMode::Threads,
        LaunchMode::Tasks(TaskLaunch::default()),
    ]
}

/// Run `f` under both launch modes and return the two result vectors.
fn both_modes<R: Send + PartialEq + std::fmt::Debug>(
    build: impl Fn() -> rankmpi_core::UniverseBuilder,
    f: impl Fn(rankmpi_core::ProcEnv) -> R + Sync,
) -> [Vec<R>; 2] {
    let run = |mode: LaunchMode| build().launch(mode).build_checked().run(&f);
    [run(modes()[0]), run(modes()[1])]
}

/// Assert `a` and `b` differ by at most `permille`‰ — the bound on
/// accumulated drain/post race shifts (each racy hop can move completion by
/// about one matching-scan cost, so chained collectives get a wider bound
/// than a single exchange).
fn assert_close(a: Nanos, b: Nanos, permille: u64, context: &str) {
    // Each racy hop can shift completion by roughly one matching-scan cost
    // (~50-200ns), so short scenarios get an absolute floor on top of the
    // relative bound; structural divergence (a wrong code path, a missed
    // wakeup) shows up at µs scale and is still caught.
    const FLOOR_NS: u64 = 400;
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    let diff = hi.as_ns() - lo.as_ns();
    assert!(
        diff * 1000 <= (hi.as_ns() * permille).max(FLOOR_NS * 1000),
        "{context}: virtual times diverged beyond {permille}‰: {a} vs {b}"
    );
}

#[test]
fn compute_and_barrier_times_are_identical() {
    // Pure virtual-time coupling: clock advances join through a
    // VirtualBarrier (max of arrivals + episode cost) — commutative, so the
    // result cannot depend on scheduling at all. This also drives the
    // engine's park/unpark barrier path in task mode.
    let n = 8usize;
    let bar = Arc::new(VirtualBarrier::new(n));
    let bar_ref = &bar;
    let [threads, tasks] = both_modes(
        || Universe::builder().nodes(8),
        |env| {
            let mut th = env.single_thread();
            for round in 1..=3u64 {
                th.clock
                    .advance(Nanos(env.rank() as u64 * 1_000 + 17 * round));
                bar_ref.wait(&mut th.clock);
            }
            th.clock.now()
        },
    );
    assert_eq!(
        threads, tasks,
        "barrier-joined times diverged between modes"
    );
    assert!(
        threads.windows(2).all(|w| w[0] == w[1]),
        "barrier must join all ranks to one time: {threads:?}"
    );
}

#[test]
fn self_messaging_times_are_identical() {
    // One thread drives its entire send→deliver→match→recv pipeline, so
    // there is no drain/post race and virtual times are bit-deterministic.
    let [threads, tasks] = both_modes(
        || Universe::builder().nodes(3),
        |env| {
            let world = env.world();
            let me = env.rank();
            let mut th = env.single_thread();
            for round in 0..4i64 {
                world
                    .send(&mut th, me, round, &[me as u8, round as u8])
                    .unwrap();
            }
            for round in 0..4i64 {
                let (_s, data) = world.recv(&mut th, me as i64, round).unwrap();
                assert_eq!(&data[..], &[me as u8, round as u8]);
            }
            th.clock.now()
        },
    );
    assert_eq!(
        threads, tasks,
        "self-messaging virtual times diverged between launch modes"
    );
}

#[test]
fn ring_pt2pt_agrees_across_modes() {
    let [threads, tasks] = both_modes(
        || Universe::builder().nodes(4),
        |env| {
            let world = env.world();
            let rank = env.rank();
            let size = env.size();
            let mut th = env.single_thread();
            let next = (rank + 1) % size;
            let prev = (rank + size - 1) % size;
            let mut seen = Vec::new();
            for round in 0..3u8 {
                let tag = round as i64;
                world
                    .send(&mut th, next, tag, &[rank as u8, round])
                    .unwrap();
                let (st, data) = world.recv(&mut th, prev as i64, tag).unwrap();
                seen.push((st.source, data[0], data[1]));
            }
            (seen, th.clock.now())
        },
    );
    for (r, (t, k)) in threads.iter().zip(tasks.iter()).enumerate() {
        assert_eq!(t.0, k.0, "ring results diverged at rank {r}");
        assert_close(t.1, k.1, 10, &format!("ring rank {r}"));
    }
}

#[test]
fn collectives_agree_across_modes() {
    let [threads, tasks] = both_modes(
        || Universe::builder().nodes(4),
        |env| {
            let world = env.world();
            let mut th = env.single_thread();
            let mine = [env.rank() as f64 + 1.0];
            let sum = world
                .allreduce(&mut th, &mine, rankmpi_core::ReduceOp::Sum)
                .unwrap();
            world.barrier(&mut th).unwrap();
            let sub = world
                .split(&mut th, (env.rank() % 2) as i64, env.rank() as i64)
                .unwrap()
                .unwrap();
            sub.barrier(&mut th).unwrap();
            ((sum[0] as u64, sub.size()), th.clock.now())
        },
    );
    for (r, (t, k)) in threads.iter().zip(tasks.iter()).enumerate() {
        assert_eq!(t.0, k.0, "collective results diverged at rank {r}");
        assert_close(t.1, k.1, 30, &format!("collectives rank {r}"));
    }
}

#[test]
fn multithreaded_results_are_mode_independent() {
    // With threads sharing a process's VCIs, contention pricing tracks real
    // claimant overlap, so exact clock equality is not defined even within
    // one mode. What must match is everything MPI-visible: which messages
    // arrive, with which payloads, on which (rank, tid).
    let [threads, tasks] = both_modes(
        || Universe::builder().nodes(4).threads_per_proc(2).num_vcis(2),
        |env| {
            let world = env.world();
            let rank = env.rank();
            let size = env.size();
            env.parallel(|th| {
                let next = (rank + 1) % size;
                let prev = (rank + size - 1) % size;
                let mut seen = Vec::new();
                for round in 0..3u8 {
                    let tag = (th.tid() as i64) << 8 | round as i64;
                    world.send(th, next, tag, &[rank as u8, round]).unwrap();
                    let (st, data) = world.recv(th, prev as i64, tag).unwrap();
                    seen.push((st.source, data[0], data[1]));
                }
                seen
            })
        },
    );
    assert_eq!(
        threads, tasks,
        "multithreaded MPI-visible results diverged between launch modes"
    );
}

#[test]
fn partitioned_times_are_mode_independent() {
    const PARTS: usize = 8;
    const PART_BYTES: usize = 16;
    let [threads, tasks] = both_modes(
        || Universe::builder().nodes(2).num_vcis(2),
        |env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let sreq = world
                    .psend_init(&mut th, 1, 5, PARTS, PART_BYTES, &Info::new())
                    .unwrap();
                sreq.start(&mut th).unwrap();
                for p in 0..PARTS {
                    sreq.pready(&mut th, p, &[p as u8; PART_BYTES]).unwrap();
                }
                sreq.wait(&mut th).unwrap();
            } else {
                let rreq = world
                    .precv_init(&mut th, 0, 5, PARTS, PART_BYTES, &Info::new())
                    .unwrap();
                rreq.start(&mut th).unwrap();
                let data = rreq.wait(&mut th).unwrap();
                for p in 0..PARTS {
                    assert_eq!(data[p * PART_BYTES], p as u8);
                }
            }
            th.clock.now()
        },
    );
    for (r, (t, k)) in threads.iter().zip(tasks.iter()).enumerate() {
        assert_close(*t, *k, 10, &format!("partitioned rank {r}"));
    }
}

#[test]
fn oracle_differential_runs_identically_inside_both_modes() {
    // The differential oracle drives both matching engines through the same
    // operation stream and asserts equivalence internally; hosting it inside
    // engine rank-tasks must change nothing about what it covers.
    let [threads, tasks] = both_modes(
        || Universe::builder().nodes(2).procs_per_node(2),
        |env| {
            let stats = oracle::differential_run(base_seed() ^ env.rank() as u64, 300);
            (stats.ops, stats.delivered, stats.events)
        },
    );
    assert_eq!(
        threads, tasks,
        "oracle differential coverage diverged between launch modes"
    );
}

#[test]
fn serialized_exploration_still_replays_under_the_engine() {
    // The deterministic scheduler is now a policy of the same engine that
    // powers task-mode: a recorded schedule must replay the matching-engine
    // choice stream exactly.
    use rankmpi_check::{run_tasks, Schedule, Task};
    use std::sync::Mutex;

    let make = |log: Arc<Mutex<Vec<(usize, u64)>>>| -> Vec<Task> {
        (0..3usize)
            .map(|id| {
                let log = Arc::clone(&log);
                Box::new(move || {
                    let mut drv = oracle::DiffDriver::new(EngineKind::Linear);
                    for i in 0..4u64 {
                        drv.post(
                            i as usize,
                            rankmpi_core::MatchPattern {
                                context_id: 0,
                                src: rankmpi_core::ANY_SOURCE,
                                tag: i as i64,
                            },
                            Nanos(i * 10),
                        );
                        log.lock().unwrap().push((id, i));
                        rankmpi_vtime::sched::yield_point(
                            rankmpi_vtime::sched::SchedPoint::Custom("parity"),
                        );
                    }
                }) as Task
            })
            .collect()
    };
    let log1 = Arc::new(Mutex::new(Vec::new()));
    let out = run_tasks(make(Arc::clone(&log1)), &Schedule::random(11), 100_000);
    assert!(out.panic.is_none(), "{:?}", out.panic);
    let log2 = Arc::new(Mutex::new(Vec::new()));
    let out2 = run_tasks(make(Arc::clone(&log2)), &out.replay(12345), 100_000);
    assert_eq!(*log1.lock().unwrap(), *log2.lock().unwrap());
    assert_eq!(out.decisions, out2.decisions);
}
