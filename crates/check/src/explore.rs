//! Schedule exploration: bounded-depth exhaustive DFS plus seeded-random
//! sampling, with replayable failure reports.
//!
//! [`explore`] repeatedly runs a task set under different [`Schedule`]s.
//! The exhaustive phase branches on every alternative at each choice point
//! up to `depth` decisions deep (classic stateless model checking over the
//! recorded decision lists); the random phase then samples full-length
//! schedules from seeds derived from the base seed, covering interleavings
//! past the exhaustive horizon. The first failing run aborts exploration
//! with a panic whose message contains a copy-pasteable replay command
//! (`RANKMPI_SCHED='s7:1.0.2' cargo test -p rankmpi-check …`); when
//! `RANKMPI_CHECK_DIR` is set the schedule is also written there as
//! `FAILING_SCHEDULE_<name>.txt` (CI uploads it as an artifact).
//!
//! Setting `RANKMPI_SCHED` switches [`explore`] into replay mode: it runs
//! exactly that one schedule and nothing else.

use crate::sched::{run_tasks, RunOutcome, Schedule, Task};

/// Bounds for one exploration ([`explore`]).
#[derive(Debug, Clone)]
pub struct ExploreConfig {
    /// Exhaustive-phase horizon: branch on alternatives at choice points
    /// `0..depth` of each run.
    pub depth: usize,
    /// Hard cap on schedules run in the exhaustive phase (the DFS frontier
    /// can grow combinatorially with many tasks).
    pub max_exhaustive: usize,
    /// Number of purely random schedules run after the exhaustive phase.
    pub random_samples: usize,
    /// Base seed; the random phase derives per-sample seeds from it. Use
    /// [`crate::base_seed`] so CI's seed matrix reaches every test.
    pub seed: u64,
    /// Per-run yield-point cap (livelock backstop).
    pub step_cap: u64,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            depth: 5,
            max_exhaustive: 300,
            random_samples: 16,
            seed: crate::base_seed(),
            step_cap: 200_000,
        }
    }
}

impl ExploreConfig {
    /// Default bounds on a given base seed.
    pub fn with_seed(seed: u64) -> Self {
        ExploreConfig {
            seed,
            ..ExploreConfig::default()
        }
    }
}

/// What one [`explore`] call covered.
#[derive(Debug, Clone, Copy, Default)]
pub struct Coverage {
    /// Schedules executed.
    pub schedules: u64,
    /// Scheduling decisions made across all executed schedules.
    pub decisions: u64,
    /// True when `RANKMPI_SCHED` forced a single replay (coverage
    /// expectations don't apply).
    pub replay: bool,
}

fn run_one(
    name: &str,
    schedule: &Schedule,
    cfg: &ExploreConfig,
    mk: &dyn Fn() -> Vec<Task>,
    cov: &mut Coverage,
) -> RunOutcome {
    let out = run_tasks(mk(), schedule, cfg.step_cap);
    cov.schedules += 1;
    cov.decisions += out.decisions.len() as u64;
    if let Some(msg) = &out.panic {
        report_failure(name, schedule, &out, msg);
    }
    out
}

fn report_failure(name: &str, schedule: &Schedule, out: &RunOutcome, panic_msg: &str) -> ! {
    let replay = out.replay(schedule.seed);
    if let Ok(dir) = std::env::var("RANKMPI_CHECK_DIR") {
        let _ = std::fs::create_dir_all(&dir);
        let path = format!("{dir}/FAILING_SCHEDULE_{name}.txt");
        let _ = std::fs::write(
            &path,
            format!("RANKMPI_SCHED='{replay}'\n# {name}\n# panic: {panic_msg}\n"),
        );
    }
    panic!(
        "[rankmpi-check] '{name}' failed under schedule {replay}\n  \
         panic: {panic_msg}\n  \
         replay: RANKMPI_SCHED='{replay}' cargo test -p rankmpi-check {name} -- --test-threads=1 --nocapture"
    );
}

/// Explore schedules of the task set produced by `mk`.
///
/// `mk` is called once per schedule and must build a fresh, independent task
/// set (fresh clocks, mailboxes, engines — no state shared across runs).
/// Exploration is exhaustive over choice points `0..cfg.depth`, then samples
/// `cfg.random_samples` seeded-random schedules. Panics with a replayable
/// schedule string on the first failing run; returns the coverage achieved
/// otherwise.
pub fn explore(name: &str, cfg: &ExploreConfig, mk: impl Fn() -> Vec<Task>) -> Coverage {
    let mut cov = Coverage::default();

    // Replay mode: one forced schedule, nothing else.
    if let Ok(s) = std::env::var("RANKMPI_SCHED") {
        let schedule: Schedule = s
            .parse()
            .unwrap_or_else(|e| panic!("bad RANKMPI_SCHED {s:?}: {e}"));
        cov.replay = true;
        run_one(name, &schedule, cfg, &mk, &mut cov);
        return cov;
    }

    // Exhaustive phase: DFS over forced-choice prefixes. Each executed run
    // reports its decision list; for every choice point past the current
    // prefix (and under the horizon) we enqueue every untaken alternative.
    // Branching only at positions >= prefix.len() guarantees each prefix is
    // enqueued at most once.
    let mut frontier: Vec<Vec<u32>> = vec![Vec::new()];
    while let Some(prefix) = frontier.pop() {
        if cov.schedules as usize >= cfg.max_exhaustive {
            break;
        }
        let schedule = Schedule {
            seed: cfg.seed,
            prefix,
        };
        let out = run_one(name, &schedule, cfg, &mk, &mut cov);
        let horizon = out.decisions.len().min(cfg.depth);
        for pos in schedule.prefix.len()..horizon {
            let (chosen, arity) = out.decisions[pos];
            for alt in 0..arity {
                if alt != chosen {
                    let mut child: Vec<u32> = out.decisions[..pos].iter().map(|d| d.0).collect();
                    child.push(alt);
                    frontier.push(child);
                }
            }
        }
    }

    // Random phase: full-length schedules from derived seeds.
    for i in 0..cfg.random_samples {
        let seed = cfg
            .seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i as u64)
            .rotate_left(17)
            | 1;
        let schedule = Schedule::random(seed);
        run_one(name, &schedule, cfg, &mk, &mut cov);
    }

    cov
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use rankmpi_vtime::sched::{yield_point, SchedPoint};
    use std::sync::Arc;

    fn two_increments(shared: Arc<Mutex<Vec<usize>>>) -> Vec<Task> {
        (0..2)
            .map(|id| {
                let shared = Arc::clone(&shared);
                Box::new(move || {
                    yield_point(SchedPoint::Custom("step"));
                    shared.lock().push(id);
                    yield_point(SchedPoint::Custom("step"));
                }) as Task
            })
            .collect()
    }

    #[test]
    fn exhaustive_phase_covers_both_orders() {
        let orders = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let cfg = ExploreConfig {
            depth: 4,
            random_samples: 0,
            ..ExploreConfig::with_seed(1)
        };
        let orders2 = Arc::clone(&orders);
        let cov = explore("both_orders", &cfg, move || {
            let log = Arc::new(Mutex::new(Vec::new()));
            let tasks = two_increments(Arc::clone(&log));
            let orders = Arc::clone(&orders2);
            // Record the observed order when the second task finishes.
            let recorder: Task = Box::new(move || loop {
                yield_point(SchedPoint::Custom("poll"));
                let l = log.lock();
                if l.len() == 2 {
                    orders.lock().insert(l.clone());
                    return;
                }
            });
            let mut all = tasks;
            all.push(recorder);
            all
        });
        assert!(cov.schedules > 1, "exploration ran only one schedule");
        let seen = orders.lock();
        assert!(
            seen.contains(&vec![0, 1]) && seen.contains(&vec![1, 0]),
            "exhaustive phase missed an order: {:?}",
            *seen
        );
    }

    #[test]
    fn failure_report_contains_replayable_schedule() {
        let cfg = ExploreConfig {
            depth: 3,
            random_samples: 0,
            ..ExploreConfig::with_seed(5)
        };
        let result = std::panic::catch_unwind(|| {
            explore("always_fails", &cfg, || {
                vec![
                    Box::new(|| {
                        yield_point(SchedPoint::Custom("a"));
                        panic!("seeded bug");
                    }) as Task,
                    Box::new(|| yield_point(SchedPoint::Custom("b"))) as Task,
                ]
            })
        });
        let msg = *result
            .expect_err("failing task set must abort exploration")
            .downcast::<String>()
            .expect("panic payload is the report string");
        assert!(msg.contains("seeded bug"), "missing cause: {msg}");
        assert!(msg.contains("RANKMPI_SCHED='s5"), "missing replay: {msg}");
        // The printed schedule must parse back.
        let sched_str = msg
            .split("RANKMPI_SCHED='")
            .nth(1)
            .unwrap()
            .split('\'')
            .next()
            .unwrap();
        sched_str.parse::<Schedule>().expect("replay string parses");
    }
}
