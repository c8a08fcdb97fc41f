//! VASP-style multithreaded allreduce (Fig. 7, Lessons 18–19).
//!
//! Every thread of every process holds a full-length contribution vector (its
//! partial forces); the job needs the elementwise global sum visible to every
//! thread. The paper's three designs:
//!
//! - **funneled**: threads reduce on-node, one thread does the internode
//!   allreduce on one communicator — no communication parallelism;
//! - **multi-comm segmented** (the VASP approach, Fig. 7 left): each thread
//!   owns a segment and a dedicated communicator; the *user* writes the
//!   intranode pre-reduction and the final assembly (Lesson 18's burden),
//!   but the internode allreduces run in parallel — the ≥2× win the paper
//!   cites;
//! - **endpoints one-step** (Fig. 7 right): every endpoint passes its full
//!   contribution to a single library call; the library does both portions.
//!   Simple, but each endpoint receives its own copy of the result
//!   (Lesson 19's duplication, quantified in the report).

use parking_lot::Mutex;
use rankmpi_core::{Communicator, LaunchMode, ReduceOp, Universe};
use rankmpi_fabric::NetworkProfile;
use rankmpi_vtime::{Nanos, VirtualBarrier};
use std::sync::Arc;

/// Allreduce design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VaspMode {
    /// On-node reduction, then one thread's internode allreduce.
    Funneled,
    /// Per-thread segments on per-thread communicators + user intranode step.
    MultiCommSegmented,
    /// One-step endpoint allreduce of full contributions.
    EndpointsOneStep,
}

impl VaspMode {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            VaspMode::Funneled => "funneled (hierarchical)",
            VaspMode::MultiCommSegmented => "multi-comm segmented + user intranode",
            VaspMode::EndpointsOneStep => "endpoints one-step",
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct VaspConfig {
    /// Processes (one per node).
    pub procs: usize,
    /// Threads per process.
    pub threads: usize,
    /// Elements in the reduced array (divisible by `threads`).
    pub elems: usize,
    /// Allreduce repetitions.
    pub repeats: usize,
    /// Network profile.
    pub profile: NetworkProfile,
}

impl Default for VaspConfig {
    fn default() -> Self {
        VaspConfig {
            procs: 4,
            threads: 4,
            elems: 4096,
            repeats: 3,
            profile: NetworkProfile::omni_path(),
        }
    }
}

/// Results of one run.
#[derive(Debug, Clone)]
pub struct VaspReport {
    /// Mode label.
    pub mode: &'static str,
    /// Slowest thread's total virtual time.
    pub total_time: Nanos,
    /// Result bytes held per process (Lesson 19 accounting).
    pub result_bytes_per_process: usize,
    /// Duplicated result bytes across the job (0 except for endpoints).
    pub duplicated_bytes: usize,
    /// The reduced array's first element (correctness check).
    pub first_elem: f64,
}

/// The contribution of thread `t` on process `p`: a constant vector so the
/// global sum is checkable in O(1).
fn contribution(p: usize, t: usize, elems: usize) -> Vec<f64> {
    vec![(p * 10 + t) as f64 + 1.0; elems]
}

/// The expected elementwise sum over all contributions.
pub fn expected_sum(cfg: &VaspConfig) -> f64 {
    (0..cfg.procs)
        .flat_map(|p| (0..cfg.threads).map(move |t| (p * 10 + t) as f64 + 1.0))
        .sum()
}

/// Run the multithreaded allreduce under `mode`.
pub fn run_vasp(mode: VaspMode, cfg: &VaspConfig) -> VaspReport {
    run_vasp_launched(mode, cfg, LaunchMode::default())
}

fn run_vasp_launched(mode: VaspMode, cfg: &VaspConfig, launch: LaunchMode) -> VaspReport {
    assert_eq!(cfg.elems % cfg.threads, 0, "segments must divide evenly");
    let t = cfg.threads;
    let num_vcis = match mode {
        VaspMode::Funneled => 1,
        VaspMode::MultiCommSegmented => t + 1,
        VaspMode::EndpointsOneStep => 1,
    };
    let uni = Universe::builder()
        .nodes(cfg.procs)
        .threads_per_proc(t)
        .num_vcis(num_vcis)
        .profile(cfg.profile.clone())
        .launch(launch)
        .build();

    let results: Vec<(Nanos, f64)> = match mode {
        VaspMode::Funneled => uni.run(|env| {
            let world = env.world();
            let me = env.rank();
            let team = Arc::new(VirtualBarrier::new(t));
            let shared: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(vec![0.0; cfg.elems]));
            let team = &team;
            let shared = &shared;
            let per_thread = env.parallel(|th| {
                crate::measure::begin(th);
                let tid = th.tid();
                let mine = contribution(me, tid, cfg.elems);
                let mut first = 0.0;
                for _ in 0..cfg.repeats {
                    // Intranode reduction into the shared buffer.
                    {
                        let mut s = shared.lock();
                        if tid == 0 {
                            s.iter_mut().for_each(|x| *x = 0.0);
                        }
                    }
                    team.wait(&mut th.clock);
                    ReduceOp::Sum.apply(&mut shared.lock(), &mine);
                    // The on-node combine is serial per thread arrival. The
                    // advance is a yield point under tasks, so it comes after
                    // the guard drops: a task parked holding the lock would
                    // block every other task in the OS.
                    th.clock.advance(th.proc().costs().reduce_cost(cfg.elems));
                    team.wait(&mut th.clock);
                    // One thread funnels the internode allreduce.
                    if tid == 0 {
                        let local = shared.lock().clone();
                        let global = world.allreduce(th, &local, ReduceOp::Sum).unwrap();
                        *shared.lock() = global;
                    }
                    team.wait(&mut th.clock);
                    first = shared.lock()[0];
                }
                (crate::measure::elapsed(th), first)
            });
            per_thread.into_iter().max_by_key(|(t, _)| *t).unwrap()
        }),
        VaspMode::MultiCommSegmented => uni.run(|env| {
            let world = env.world();
            let me = env.rank();
            let mut setup = env.single_thread();
            let comms: Vec<Communicator> = (0..t).map(|_| world.dup(&mut setup).unwrap()).collect();
            let seg = cfg.elems / t;
            let team = Arc::new(VirtualBarrier::new(t));
            let shared: Arc<Mutex<Vec<f64>>> = Arc::new(Mutex::new(vec![0.0; cfg.elems]));
            let comms = &comms;
            let team = &team;
            let shared = &shared;
            let per_thread = env.parallel(|th| {
                crate::measure::begin(th);
                let tid = th.tid();
                // All local contributions are derivable (shared memory).
                let mut first = 0.0;
                for _ in 0..cfg.repeats {
                    // USER intranode step 1: thread `tid` pre-reduces segment
                    // `tid` across the local threads' contributions.
                    let mut my_seg = vec![0.0f64; seg];
                    for lt in 0..t {
                        let c = contribution(me, lt, cfg.elems);
                        ReduceOp::Sum.apply(&mut my_seg, &c[tid * seg..(tid + 1) * seg]);
                    }
                    th.clock.advance(th.proc().costs().reduce_cost(cfg.elems)); // t * seg adds
                                                                                // Parallel internode allreduce of my segment on my comm.
                    let global_seg = comms[tid].allreduce(th, &my_seg, ReduceOp::Sum).unwrap();
                    // USER intranode step 2: assemble the full result.
                    shared.lock()[tid * seg..(tid + 1) * seg].copy_from_slice(&global_seg);
                    th.clock.advance(th.proc().costs().copy_cost(seg * 8));
                    team.wait(&mut th.clock);
                    first = shared.lock()[0];
                }
                (crate::measure::elapsed(th), first)
            });
            per_thread.into_iter().max_by_key(|(t, _)| *t).unwrap()
        }),
        VaspMode::EndpointsOneStep => uni.run(|env| {
            let world = env.world();
            let me = env.rank();
            let mut setup = env.single_thread();
            let eps = world.create_endpoints(&mut setup, t).unwrap();
            let eps = &eps;
            let per_thread = env.parallel(|th| {
                crate::measure::begin(th);
                let tid = th.tid();
                let mine = contribution(me, tid, cfg.elems);
                let mut first = 0.0;
                for _ in 0..cfg.repeats {
                    // ONE call; the library handles internode + intranode.
                    let global = eps[tid].allreduce(th, &mine, ReduceOp::Sum).unwrap();
                    first = global[0];
                }
                (crate::measure::elapsed(th), first)
            });
            per_thread.into_iter().max_by_key(|(t, _)| *t).unwrap()
        }),
    };

    // Lesson 19: each endpoint holds its own copy of the result, `threads - 1`
    // more per process than one process-rank buffer.
    let result_bytes = cfg.elems * 8;
    let copies = if mode == VaspMode::EndpointsOneStep {
        t
    } else {
        1
    };
    let total_time = results.iter().map(|(t, _)| *t).max().unwrap();
    let first_elem = results[0].1;
    VaspReport {
        mode: mode.label(),
        total_time,
        result_bytes_per_process: copies * result_bytes,
        duplicated_bytes: cfg.procs * (copies - 1) * result_bytes,
        first_elem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> VaspConfig {
        VaspConfig {
            procs: 2,
            threads: 2,
            elems: 64,
            repeats: 2,
            ..VaspConfig::default()
        }
    }

    #[test]
    fn all_modes_compute_the_same_sum() {
        let cfg = quick();
        let want = expected_sum(&cfg);
        for mode in [
            VaspMode::Funneled,
            VaspMode::MultiCommSegmented,
            VaspMode::EndpointsOneStep,
        ] {
            let rep = run_vasp(mode, &cfg);
            assert_eq!(rep.first_elem, want, "{mode:?}");
        }
    }

    #[test]
    fn segmented_beats_funneled() {
        let cfg = VaspConfig {
            procs: 4,
            threads: 4,
            elems: 8192,
            repeats: 2,
            ..VaspConfig::default()
        };
        let funneled = run_vasp(VaspMode::Funneled, &cfg);
        let segmented = run_vasp(VaspMode::MultiCommSegmented, &cfg);
        assert!(
            segmented.total_time < funneled.total_time,
            "parallel segments must win: {} vs {}",
            segmented.total_time,
            funneled.total_time
        );
    }

    #[test]
    fn funneled_finishes_under_one_worker_tasks() {
        use rankmpi_core::TaskLaunch;
        use std::sync::mpsc::{channel, RecvTimeoutError};
        use std::time::Duration;
        // A task that yields (a clock advance) while it holds the on-node
        // buffer's mutex blocks every other task in the OS: with one engine
        // worker the run never finishes. Fail on a timeout, not a hang.
        let cfg = VaspConfig {
            procs: 2,
            threads: 2,
            elems: 4096,
            ..VaspConfig::default()
        };
        let launch = LaunchMode::Tasks(TaskLaunch {
            workers: 1,
            vtime_slack: Nanos(1_000),
        });
        let want = expected_sum(&cfg);
        let (done, finished) = channel();
        let run = std::thread::spawn(move || {
            let rep = run_vasp_launched(VaspMode::Funneled, &cfg, launch);
            let _ = done.send(());
            rep
        });
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60)) {
            panic!("Funneled hung under one-worker tasks");
        }
        assert_eq!(run.join().unwrap().first_elem, want);
    }

    #[test]
    fn endpoints_duplicate_result_buffers() {
        let cfg = quick();
        let eps = run_vasp(VaspMode::EndpointsOneStep, &cfg);
        let seg = run_vasp(VaspMode::MultiCommSegmented, &cfg);
        assert_eq!(seg.duplicated_bytes, 0);
        // (threads - 1) extra copies per process.
        assert_eq!(
            eps.duplicated_bytes,
            cfg.procs * (cfg.threads - 1) * cfg.elems * 8
        );
        assert!(eps.result_bytes_per_process > seg.result_bytes_per_process);
    }
}
