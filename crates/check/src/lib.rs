#![warn(missing_docs)]

//! Deterministic schedule exploration and the semantics conformance suite.
//!
//! Every lesson the simulator reproduces is ultimately a claim about
//! *semantics under concurrency*: per-`(comm, src, tag)` non-overtaking,
//! `ANY_SOURCE`/`ANY_TAG` wildcard order, request completion monotonicity,
//! `Parrived` never true before `Pready`, RMA epoch visibility. Ordinary
//! tests only exercise the interleavings the OS scheduler happens to
//! produce; this crate makes interleavings an enumerable, replayable input:
//!
//! - [`sched`]: a deterministic scheduler built on
//!   [`rankmpi_vtime::sched`]'s yield points — it serializes a set of tasks
//!   so exactly one runs between yield points, with every choice among
//!   runnable tasks recorded;
//! - [`explore`](mod@explore): schedule exploration — exhaustive DFS over choice
//!   prefixes up to a bounded depth, then seeded-random sampling — with
//!   failing runs reported as a compact replayable schedule string
//!   (`RANKMPI_SCHED='s7:1.0.2' …`);
//! - [`oracle`]: the `linear`-vs-`seq_merged` differential driver shared by the
//!   conformance suite, the workspace's `engine_differential` test, and the
//!   `engine_fuzz` harness, including a variant that routes arrivals
//!   through a fault-injecting [`Mailbox`](rankmpi_fabric::Mailbox) (see
//!   [`rankmpi_fabric::fault`]).
//!
//! The conformance tests themselves live in this crate's `tests/`
//! directory (`conformance_*.rs`). Their universes are
//! [`build_checked`](BuildChecked::build_checked): teardown asserts, in
//! every build, that no request fell below a pruned GVT horizon. They honor
//! one environment knob used by
//! CI's seed matrix: `RANKMPI_CHECK_SEED` (base seed, default 0). Suites
//! that sweep launch modes run both ([`launch_modes_under_test`]) and name
//! the failing cell (`"launch tasks, seed 0x3"`). They run the production
//! matching engine; `linear`, the reference, is covered where the engine
//! contract itself is tested ([`oracle`] and `conformance_matching.rs`).

pub mod explore;
pub mod oracle;
pub mod sched;

pub use explore::{explore, Coverage, ExploreConfig};
pub use sched::{run_tasks, RunOutcome, Schedule, Task};

use rankmpi_core::{LaunchMode, TaskLaunch, Universe, UniverseBuilder};

/// The base seed of this run: `RANKMPI_CHECK_SEED` if set, else 0. CI runs
/// the conformance suite once per seed of its matrix.
pub fn base_seed() -> u64 {
    std::env::var("RANKMPI_CHECK_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0)
}

/// The launch modes under test: both. Used by the conformance suites whose
/// protocols must behave identically whether ranks are OS threads or
/// cooperative rank-tasks.
pub fn launch_modes_under_test() -> Vec<LaunchMode> {
    vec![
        LaunchMode::Threads,
        LaunchMode::Tasks(TaskLaunch::default()),
    ]
}

/// A universe whose teardown asserts that no request of any of its runs
/// fell below a resource's pruned GVT horizon ([`UniverseShared::below_horizon`]).
/// The resource's own check is a `debug_assert!`; this one holds in
/// release too, where CI's seed matrix and lossy sweep run.
///
/// [`UniverseShared::below_horizon`]: rankmpi_core::universe::UniverseShared::below_horizon
pub struct Checked(Universe);

impl std::ops::Deref for Checked {
    type Target = Universe;
    fn deref(&self) -> &Universe {
        &self.0
    }
}

impl Drop for Checked {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let below = self.0.shared().below_horizon();
            assert_eq!(below, 0, "{below} requests fell below a pruned GVT horizon");
        }
    }
}

/// [`UniverseBuilder::build`] with the teardown check of [`Checked`].
pub trait BuildChecked {
    /// Build the universe, checked at teardown.
    fn build_checked(self) -> Checked;
}

impl BuildChecked for UniverseBuilder {
    fn build_checked(self) -> Checked {
        Checked(self.build())
    }
}
