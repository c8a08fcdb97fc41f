//! 1k-rank scale smoke: the whole point of the cooperative task engine.
//!
//! Thread-mode launch tops out around the OS's appetite for schedulable
//! threads; task-mode multiplexes thousands of rank-tasks over a small
//! worker pool with parked (zero-CPU) waits. These tests run a 1024-rank
//! universe — barrier coupling and a real halo exchange — in one process
//! and check it completes promptly and correctly.
//!
//! The wall-clock bound is asserted only in release builds (CI's `scale`
//! job); debug builds still run the same workload for correctness.

use std::sync::Arc;

use rankmpi_core::{LaunchMode, TaskLaunch, Universe};
use rankmpi_vtime::{Nanos, VirtualBarrier};
use rankmpi_workloads::stencil::halo::{run_halo, HaloConfig, HaloMechanism};
use rankmpi_workloads::stencil::maps::Geometry;

const RANKS: usize = 1024;

fn tasks() -> LaunchMode {
    LaunchMode::Tasks(TaskLaunch::default())
}

#[test]
fn thousand_ranks_of_four_threads_join_barriers() {
    let started = std::time::Instant::now();
    const THREADS: usize = 4;
    let bar = Arc::new(VirtualBarrier::new(RANKS * THREADS));
    let bar_ref = &bar;
    let u = Universe::builder()
        .nodes(RANKS)
        .threads_per_proc(THREADS)
        .launch(tasks())
        .build();
    let out = u.run(|env| {
        let rank = env.rank();
        env.parallel(|th| {
            for round in 1..=2u64 {
                th.clock
                    .advance(Nanos((rank as u64 * 31 + th.tid() as u64) % 977 + round));
                bar_ref.wait(&mut th.clock);
            }
            th.clock.now()
        })
    });
    // Every one of the 4096 simulated threads leaves the last barrier at the
    // same joined virtual time.
    let t0 = out[0][0];
    assert!(t0 > Nanos::ZERO);
    for (r, per_thread) in out.iter().enumerate() {
        assert_eq!(per_thread.len(), THREADS);
        for t in per_thread {
            assert_eq!(*t, t0, "rank {r} left the barrier at a different time");
        }
    }
    // The engine saw all rank-tasks and thread-tasks, and parked waiters
    // instead of spinning them.
    let observed = u
        .engine_metrics()
        .expect("a task-mode run records its engine metrics")
        .peak_tasks;
    assert!(
        observed >= RANKS,
        "peak task count {observed} below rank count"
    );
    #[cfg(not(debug_assertions))]
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "1k-rank barrier smoke took {:?}",
        started.elapsed()
    );
    let _ = started;
}

#[test]
fn thousand_rank_halo_exchange_completes() {
    let started = std::time::Instant::now();
    let cfg = HaloConfig {
        geo: Geometry {
            px: 32,
            py: 32,
            tx: 2,
            ty: 2,
        },
        iters: 2,
        elems_per_face: 16,
        nine_point: false,
        compute: Nanos::us(2),
        compute_jitter: 0.0,
        profile: rankmpi_fabric::NetworkProfile::omni_path(),
        launch: tasks(),
    };
    let rep = run_halo(HaloMechanism::TagsHashed, &cfg);
    assert!(rep.verified);
    assert!(rep.total_time > Nanos::ZERO);
    #[cfg(not(debug_assertions))]
    assert!(
        started.elapsed() < std::time::Duration::from_secs(10),
        "1k-rank halo smoke took {:?}",
        started.elapsed()
    );
    let _ = started;
}
