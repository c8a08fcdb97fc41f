//! One engine worker makes simulated time repeatable.
//!
//! With `TaskLaunch { workers: 1 }` every admission is decided by the engine
//! alone: rank-tasks and the simulated threads they fork start in task-id
//! order, and the one running task hands over only at yield points. So two
//! runs of the same configuration must agree on every simulated field. Each
//! case forks threads inside its ranks (`ProcEnv::parallel`), which is where
//! run-to-run drift used to enter. Both reports hold simulated values only,
//! so their `Debug` text is every field, floats included, exactly.

use rankmpi_core::{LaunchMode, TaskLaunch};
use rankmpi_vtime::Nanos;
use rankmpi_workloads::stencil::halo::{run_halo, HaloConfig, HaloMechanism};
use rankmpi_workloads::stencil::maps::Geometry;
use rankmpi_workloads::stream::{run_stream, Mechanism, StreamConfig};

fn one_worker() -> LaunchMode {
    LaunchMode::Tasks(TaskLaunch {
        workers: 1,
        ..Default::default()
    })
}

#[test]
fn the_stream_farm_repeats_at_one_worker() {
    for mechanism in [
        Mechanism::Baseline,
        Mechanism::TagsVci,
        Mechanism::Partitioned,
    ] {
        let cfg = StreamConfig {
            mechanism,
            launch: one_worker(),
            ..StreamConfig::default()
        };
        let first = run_stream(&cfg);
        assert!(first.verified, "{}", mechanism.label());
        let second = run_stream(&cfg);
        assert_eq!(
            format!("{first:?}"),
            format!("{second:?}"),
            "{}",
            mechanism.label()
        );
    }
}

#[test]
fn lesson_14s_partitioned_halo_repeats_at_one_worker() {
    // Lesson 14's configuration: 2x2 ranks of 2x2 threads under 2x load
    // imbalance, each rank polling `parrived` on its shared request.
    let cfg = HaloConfig {
        geo: Geometry {
            px: 2,
            py: 2,
            tx: 2,
            ty: 2,
        },
        iters: 6,
        compute: Nanos::us(15),
        compute_jitter: 1.0,
        launch: one_worker(),
        ..HaloConfig::default()
    };
    let first = run_halo(HaloMechanism::Partitioned, &cfg);
    assert!(first.verified);
    let second = run_halo(HaloMechanism::Partitioned, &cfg);
    assert_eq!(format!("{first:?}"), format!("{second:?}"));
}
