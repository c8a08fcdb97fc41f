//! Coverage exporter for the conformance infrastructure.
//!
//! Runs a representative exploration plus a faulted differential sweep in
//! one process, then writes `BENCH_check_coverage.json` (honors
//! `RANKMPI_BENCH_DIR`): explored-schedule and decision counters, and the
//! sweep's totals, every `FaultReport` field summed over its mailboxes. CI
//! runs this in the `check` job so schedule/fault coverage is a tracked
//! artifact, not a side effect.

use std::path::PathBuf;
use std::sync::Arc;

use rankmpi_check::oracle::differential_run_faulted;
use rankmpi_check::{base_seed, explore, ExploreConfig, Task};
use rankmpi_fabric::{FaultPlan, FaultReport};
use rankmpi_obs::json::Value;
use rankmpi_vtime::sched::{yield_point, SchedPoint};
use rankmpi_vtime::{Clock, ContentionLock, VirtualBarrier};

/// A small but representative task set: three threads contending on one
/// `ContentionLock` and meeting at a `VirtualBarrier` — every yield-point
/// kind in `rankmpi-vtime` fires.
fn contention_tasks() -> Vec<Task> {
    let lock = Arc::new(ContentionLock::new(0u64));
    let barrier = Arc::new(VirtualBarrier::new(3));
    (0..3u64)
        .map(|id| {
            let lock = Arc::clone(&lock);
            let barrier = Arc::clone(&barrier);
            Box::new(move || {
                let mut clock = Clock::new();
                for _ in 0..4 {
                    let mut g = lock.lock(&mut clock);
                    *g += id + 1;
                    g.release(&mut clock);
                    yield_point(SchedPoint::Custom("between"));
                }
                barrier.wait(&mut clock);
            }) as Task
        })
        .collect()
}

fn main() {
    let seed = base_seed();

    let cfg = ExploreConfig {
        depth: 4,
        max_exhaustive: 200,
        random_samples: 32,
        ..ExploreConfig::with_seed(seed)
    };
    let cov = explore("check_coverage_contention", &cfg, contention_tasks);

    // Faulted differential sweep: 32 derived seeds under a chaos plan.
    let mut delivered = 0u64;
    let mut ops = 0u64;
    let mut f = FaultReport::default();
    for i in 0..32u64 {
        let plan = FaultPlan::chaos(seed ^ (0xFA_u64 << 32) ^ i);
        let stats = differential_run_faulted(seed.wrapping_add(i), 300, &plan);
        ops += stats.ops as u64;
        delivered += stats.delivered as u64;
        if let Some(r) = stats.fault_report {
            f.delays += r.delays;
            f.delay_ns += r.delay_ns;
            f.dups_injected += r.dups_injected;
            f.dups_dropped += r.dups_dropped;
            f.nacks += r.nacks;
            f.reorders += r.reorders;
            f.spurious_dropped += r.spurious_dropped;
            f.stragglers += r.stragglers;
            f.straggler_ns += r.straggler_ns;
        }
    }

    let out = Value::obj([
        ("bench", Value::str("check_coverage")),
        ("base_seed", Value::int(seed)),
        (
            "exploration",
            Value::obj([
                ("schedules", Value::int(cov.schedules)),
                ("decisions", Value::int(cov.decisions)),
            ]),
        ),
        (
            "faulted_differential",
            Value::obj([
                ("sweep_seeds", Value::int(32)),
                ("ops", Value::int(ops)),
                ("delivered", Value::int(delivered)),
                ("delays", Value::int(f.delays)),
                ("delay_ns", Value::int(f.delay_ns)),
                ("dups_injected", Value::int(f.dups_injected)),
                ("dups_dropped", Value::int(f.dups_dropped)),
                ("nacks", Value::int(f.nacks)),
                ("reorders", Value::int(f.reorders)),
                ("spurious_dropped", Value::int(f.spurious_dropped)),
                ("stragglers", Value::int(f.stragglers)),
                ("straggler_ns", Value::int(f.straggler_ns)),
            ]),
        ),
    ]);
    let text = out.render_pretty() + "\n";
    print!("{text}");
    // Default: the workspace root, two levels above crates/check.
    let dir = std::env::var_os("RANKMPI_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("BENCH_check_coverage.json");
    match std::fs::write(&path, text) {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}
