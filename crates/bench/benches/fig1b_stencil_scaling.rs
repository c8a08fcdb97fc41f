//! Fig. 1(b): Uintah/hypre-style stencil under weak scaling — MPI+threads
//! with logically parallel communication vs the Original single-channel mode.
//!
//! The paper shows the hypre solver inside Uintah speeding up substantially
//! once communication is logically parallel. We run the 2D 9-point halo
//! exchange (hypre's kernel shape) per node-count, one process per node,
//! 3×3 threads per process, and report per-iteration halo time.
//!
//! A second sweep runs the same exchange in task-mode up to 1024 ranks in a
//! single process — the scale the event-driven engine exists for — and writes
//! `BENCH_fig1b_scale.json` with wall time per simulated step and the
//! engine's peak task count.

use std::time::Instant;

use rankmpi_bench::write_bench_json;
use rankmpi_bench::{print_table, ratio, takeaway};
use rankmpi_core::{LaunchMode, TaskLaunch};
use rankmpi_obs::json::Value;
use rankmpi_obs::registry;
use rankmpi_vtime::Nanos;
use rankmpi_workloads::stencil::halo::{run_halo, HaloConfig, HaloMechanism};
use rankmpi_workloads::stencil::maps::Geometry;

/// The engine's running peak task count from the metrics registry. The scale
/// sweep runs in ascending rank order, so the running max after a run is that
/// run's peak.
fn peak_tasks() -> u64 {
    registry::global()
        .snapshot_prefix("engine.peak_tasks")
        .first()
        .map(|s| match &s.value {
            registry::Value::Stats { max, .. } => max.unwrap_or(0),
            registry::Value::Count(c) => *c,
        })
        .unwrap_or(0)
}

/// Task-mode weak-scaling sweep: 64 → 1024 ranks (2×2 threads each) of the
/// 5-point halo exchange, all cooperatively scheduled in one process.
fn scale_sweep() {
    let grids = [(8usize, 8usize), (16, 16), (32, 32)];
    let mut rows = Vec::new();
    let mut sweep_json = Vec::new();
    for (px, py) in grids {
        let ranks = px * py;
        let cfg = HaloConfig {
            geo: Geometry {
                px,
                py,
                tx: 2,
                ty: 2,
            },
            iters: 4,
            elems_per_face: 64,
            nine_point: false,
            compute: Nanos::us(2),
            launch: LaunchMode::Tasks(TaskLaunch::default()),
            ..HaloConfig::default()
        };
        let started = Instant::now();
        let rep = run_halo(HaloMechanism::TagsHashed, &cfg);
        let wall = started.elapsed();
        assert!(rep.verified, "halo verification failed at {ranks} ranks");
        let wall_ms_per_step = wall.as_secs_f64() * 1e3 / cfg.iters as f64;
        let peak = peak_tasks();
        rows.push(vec![
            ranks.to_string(),
            format!("{wall_ms_per_step:.1} ms"),
            format!("{}", rep.per_iter),
            peak.to_string(),
        ]);
        sweep_json.push(Value::obj([
            ("ranks", Value::int(ranks as u64)),
            ("threads_per_rank", Value::int(4)),
            ("wall_ms_per_step", Value::Num(wall_ms_per_step)),
            ("sim_per_iter_ns", Value::int(rep.per_iter.as_ns())),
            ("peak_tasks", Value::int(peak)),
        ]));
    }
    print_table(
        "Task-mode weak scaling — 5-pt halo, 2x2 threads/rank, one process (wall time)",
        &["ranks", "wall/step", "sim/iter", "peak tasks"],
        &rows,
    );
    write_bench_json(
        "fig1b_scale",
        &Value::obj([
            ("bench", Value::str("fig1b_stencil_scaling")),
            ("mechanism", Value::str("tags_hashed")),
            ("launch", Value::str("tasks")),
            ("sweep", Value::Arr(sweep_json)),
        ]),
    );
}

fn main() {
    let grids = [(2usize, 2usize), (4, 2), (4, 4)];
    let mechanisms = [
        HaloMechanism::SingleComm,
        HaloMechanism::TagsOneToOne,
        HaloMechanism::Endpoints,
    ];

    let mut rows = Vec::new();
    let mut last: Vec<(HaloMechanism, Nanos)> = Vec::new();
    for (px, py) in grids {
        let cfg = HaloConfig {
            geo: Geometry {
                px,
                py,
                tx: 4,
                ty: 4,
            },
            iters: 8,
            elems_per_face: 1024,
            nine_point: true,
            compute: Nanos::us(3),
            ..HaloConfig::default()
        };
        let mut row = vec![format!("{}x{} nodes", px, py)];
        last.clear();
        for mech in mechanisms {
            let cfg = HaloConfig {
                nine_point: mech != HaloMechanism::Partitioned,
                ..cfg.clone()
            };
            let rep = run_halo(mech, &cfg);
            row.push(format!("{}", rep.per_iter));
            last.push((mech, rep.per_iter));
        }
        // Speedup of the parallel-communication variants over Original.
        let orig = last[0].1;
        row.push(ratio(orig.as_ns() as f64, last[1].1.as_ns() as f64));
        row.push(ratio(orig.as_ns() as f64, last[2].1.as_ns() as f64));
        rows.push(row);
    }

    print_table(
        "Fig. 1(b) — 2D 9-pt halo per-iteration time (weak scaling, 16 threads/process)",
        &[
            "nodes",
            "Original",
            "tags+hints (one-to-one)",
            "endpoints",
            "speedup tags/orig",
            "speedup eps/orig",
        ],
        &rows,
    );

    takeaway(
        "Uintah/hypre runs ~2x faster once MPI+threads communication is logically \
         parallel, and the gap persists at scale (Fig. 1b)",
        &format!(
            "largest grid: endpoints are {} faster than Original per halo iteration",
            rows.last()
                .map(|r| r[r.len() - 1].clone())
                .unwrap_or_default()
        ),
    );

    scale_sweep();
}
