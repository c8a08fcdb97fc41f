//! Deterministic schedule exploration as a *policy* of the execution engine.
//!
//! [`run_tasks`] takes a set of closures ("tasks") and runs them under
//! [`rankmpi_vtime::engine`] in serialized dispatch: exactly one task executes
//! at a time, and control only changes hands at yield points (lock
//! acquire/release, clock advance, barrier arrive/wait, mailbox push/drain,
//! notify poll — see [`SchedPoint`](rankmpi_vtime::sched::SchedPoint)).
//! Whenever more than one task is runnable, the engine asks this module's
//! seeded [`Chooser`](rankmpi_vtime::engine::Chooser) to pick; every choice is
//! recorded, so the full decision list of any run is itself a schedule that
//! replays that run exactly.
//!
//! A [`Schedule`] is `seed` + `prefix`: the first `prefix.len()` choices are
//! forced, the rest are drawn from a seeded RNG. The compact rendering
//! (`s7:1.0.2`) is what failure reports print and what `RANKMPI_SCHED`
//! accepts for replay.
//!
//! Before the engine existed, this module carried its own
//! condvar-chained scheduler; it is now ~60 lines of policy on top of
//! [`engine::Dispatch::Serialized`], and the same engine runs production
//! virtual-time dispatch — so exploration exercises the exact task-switch
//! machinery that 1k-rank simulations use.

use std::fmt;
use std::str::FromStr;

use rand::{rngs::StdRng, Rng, SeedableRng};
use rankmpi_vtime::engine;

/// A schedulable task: a closure run as one engine task under serialized
/// dispatch.
pub type Task = Box<dyn FnOnce() + Send + 'static>;

/// A replayable schedule: `prefix` forces the first choices (as indices into
/// the sorted runnable-task list at each choice point), `seed` drives every
/// choice past the prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Seed for choices beyond `prefix`.
    pub seed: u64,
    /// Forced choice indices, in choice-point order.
    pub prefix: Vec<u32>,
}

impl Schedule {
    /// A purely random schedule: empty prefix, all choices from `seed`.
    pub fn random(seed: u64) -> Self {
        Schedule {
            seed,
            prefix: Vec::new(),
        }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.seed)?;
        for (i, c) in self.prefix.iter().enumerate() {
            write!(f, "{}{}", if i == 0 { ':' } else { '.' }, c)?;
        }
        Ok(())
    }
}

impl FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let body = s
            .trim()
            .strip_prefix('s')
            .ok_or_else(|| format!("schedule must start with 's': {s:?}"))?;
        let (seed_str, prefix_str) = match body.split_once(':') {
            Some((a, b)) => (a, Some(b)),
            None => (body, None),
        };
        let seed: u64 = seed_str
            .parse()
            .map_err(|e| format!("bad schedule seed {seed_str:?}: {e}"))?;
        let mut prefix = Vec::new();
        if let Some(p) = prefix_str {
            for tok in p.split('.').filter(|t| !t.is_empty()) {
                prefix.push(
                    tok.parse()
                        .map_err(|e| format!("bad schedule choice {tok:?}: {e}"))?,
                );
            }
        }
        Ok(Schedule { seed, prefix })
    }
}

/// What one scheduled run did.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Every choice made: `(chosen_index, num_runnable)` per choice point.
    /// `decisions.iter().map(|d| d.0)` is a prefix that replays this run.
    pub decisions: Vec<(u32, u32)>,
    /// Total yield points crossed (scheduling steps).
    pub steps: u64,
    /// Panic message of the first task that failed, if any.
    pub panic: Option<String>,
}

impl RunOutcome {
    /// The schedule that deterministically replays this run (its full
    /// decision list as a forced prefix).
    pub fn replay(&self, seed: u64) -> Schedule {
        Schedule {
            seed,
            prefix: self.decisions.iter().map(|d| d.0).collect(),
        }
    }
}

/// The deterministic choice policy: forced prefix first, seeded RNG after.
/// The engine clamps out-of-range prefix entries to the candidate count, so
/// hand-written prefixes stay safe; exploration-generated ones are always in
/// range.
struct SeededChooser {
    prefix: Vec<u32>,
    pos: usize,
    rng: StdRng,
}

impl engine::Chooser for SeededChooser {
    fn choose(&mut self, arity: usize) -> usize {
        if self.pos < self.prefix.len() {
            let c = self.prefix[self.pos] as usize;
            self.pos += 1;
            c
        } else {
            self.rng.gen_range(0..arity)
        }
    }
}

/// Run `tasks` to completion under `schedule`, serialized at yield points.
///
/// Tasks run as engine tasks but only one makes progress at a time; the
/// returned [`RunOutcome`] records every scheduling decision, so
/// `outcome.replay(schedule.seed)` reproduces the run exactly. `step_cap`
/// bounds total yield points as a livelock backstop.
///
/// Tasks must synchronize only through the library's cooperative primitives
/// — `Notify::wait_until`, which `ContentionLock`, requests, mailboxes,
/// `VirtualBarrier` and the rendezvous boards all wait through — a raw
/// blocking wait between tasks would deadlock the serialized dispatcher.
pub fn run_tasks(tasks: Vec<Task>, schedule: &Schedule, step_cap: u64) -> RunOutcome {
    assert!(!tasks.is_empty(), "run_tasks needs at least one task");
    let chooser = SeededChooser {
        prefix: schedule.prefix.clone(),
        pos: 0,
        rng: StdRng::seed_from_u64(schedule.seed),
    };
    let tasks: Vec<engine::TaskFn<'static, ()>> = tasks
        .into_iter()
        .map(|t| t as engine::TaskFn<'static, ()>)
        .collect();
    let out = engine::run(
        engine::EngineConfig {
            dispatch: engine::Dispatch::Serialized(Box::new(chooser)),
            step_cap,
            ..engine::EngineConfig::default()
        },
        tasks,
    );
    RunOutcome {
        decisions: out.decisions,
        steps: out.steps,
        panic: out.panic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;
    use rankmpi_vtime::sched::{yield_point, SchedPoint};
    use std::sync::Arc;

    fn log_tasks(log: Arc<PMutex<Vec<usize>>>, yields: usize, n: usize) -> Vec<Task> {
        (0..n)
            .map(|id| {
                let log = Arc::clone(&log);
                Box::new(move || {
                    for _ in 0..yields {
                        log.lock().push(id);
                        yield_point(SchedPoint::Custom("test"));
                    }
                }) as Task
            })
            .collect()
    }

    #[test]
    fn same_schedule_replays_identically() {
        let mut logs = Vec::new();
        for _ in 0..2 {
            let log = Arc::new(PMutex::new(Vec::new()));
            let out = run_tasks(
                log_tasks(Arc::clone(&log), 5, 3),
                &Schedule::random(42),
                10_000,
            );
            assert!(out.panic.is_none());
            logs.push((out.decisions, log.lock().clone()));
        }
        assert_eq!(logs[0], logs[1]);
    }

    #[test]
    fn replay_prefix_reproduces_a_random_run() {
        let log1 = Arc::new(PMutex::new(Vec::new()));
        let out = run_tasks(
            log_tasks(Arc::clone(&log1), 5, 3),
            &Schedule::random(7),
            10_000,
        );
        // Replay under a *different* seed but the full decision prefix: the
        // interleaving must match exactly.
        let replay = out.replay(999);
        let log2 = Arc::new(PMutex::new(Vec::new()));
        let out2 = run_tasks(log_tasks(Arc::clone(&log2), 5, 3), &replay, 10_000);
        assert_eq!(*log1.lock(), *log2.lock());
        assert_eq!(out.decisions, out2.decisions);
    }

    #[test]
    fn seeded_run_reproduces_its_pinned_decisions() {
        // Recorded before the engine's virtual-time dispatch learned to skip
        // its lock at yield points: serialized dispatch must not have moved.
        let log = Arc::new(PMutex::new(Vec::new()));
        let out = run_tasks(
            log_tasks(Arc::clone(&log), 5, 3),
            &Schedule::random(7),
            10_000,
        );
        assert!(out.panic.is_none());
        assert_eq!(
            out.replay(7).to_string(),
            "s7:1.0.2.1.1.0.1.0.0.1.0.2.2.2.2.1.1"
        );
        assert_eq!(out.steps, 15);
        assert_eq!(*log.lock(), [1, 0, 2, 1, 1, 0, 1, 0, 0, 1, 0, 2, 2, 2, 2]);
    }

    #[test]
    fn different_seeds_reach_different_interleavings() {
        let mut seen = std::collections::HashSet::new();
        for seed in 0..16 {
            let log = Arc::new(PMutex::new(Vec::new()));
            run_tasks(
                log_tasks(Arc::clone(&log), 4, 3),
                &Schedule::random(seed),
                10_000,
            );
            seen.insert(log.lock().clone());
        }
        assert!(seen.len() > 1, "16 seeds all produced one interleaving");
    }

    #[test]
    fn task_panic_is_reported_and_other_tasks_unwind() {
        let tasks: Vec<Task> = vec![
            Box::new(|| {
                yield_point(SchedPoint::Custom("a"));
                panic!("deliberate failure");
            }),
            Box::new(|| loop {
                yield_point(SchedPoint::Custom("spin"));
            }),
        ];
        let out = run_tasks(tasks, &Schedule::random(3), 10_000);
        assert_eq!(out.panic.as_deref(), Some("deliberate failure"));
    }

    #[test]
    fn step_cap_stops_livelock() {
        let tasks: Vec<Task> = vec![Box::new(|| loop {
            yield_point(SchedPoint::Custom("spin"));
        })];
        let out = run_tasks(tasks, &Schedule::random(0), 100);
        let msg = out.panic.expect("step cap must abort the run");
        assert!(msg.contains("step cap"), "unexpected message: {msg}");
    }

    #[test]
    fn schedule_strings_round_trip() {
        for s in [
            Schedule::random(0),
            Schedule {
                seed: 7,
                prefix: vec![1, 0, 2],
            },
        ] {
            let rendered = s.to_string();
            assert_eq!(rendered.parse::<Schedule>().unwrap(), s);
        }
        assert_eq!(
            Schedule {
                seed: 7,
                prefix: vec![1, 0, 2]
            }
            .to_string(),
            "s7:1.0.2"
        );
        assert!("x7".parse::<Schedule>().is_err());
        assert!("s7:z".parse::<Schedule>().is_err());
    }
}
