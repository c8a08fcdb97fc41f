//! Crash-surviving task farm: an emitter that detects dead workers,
//! shrinks the communicator, redistributes their unacknowledged items,
//! and still delivers every result exactly once.
//!
//! The farm is the second fault-tolerance workload (the first is the ring
//! halo in `rankmpi-workloads`): where the halo is symmetric — every rank
//! runs the same exchange — the farm is asymmetric. Rank 0 (the emitter,
//! which the [`FaultPlan`] never kills) owns all durable state: the set of
//! acknowledged items. Workers are stateless servers; a worker's death
//! loses only the in-flight items assigned to it, which the emitter
//! re-dispatches to the survivors after a shrink. Item results are a pure
//! function of `(seed, seq)`, so re-execution after a crash is idempotent
//! by construction and duplicate processing is harmless.
//!
//! Recovery uses the same ULFM fence protocol as the halo: any torn-out
//! rank revokes, every member of the communicator funnels into one
//! [`agree`](rankmpi_core::Communicator::agree) per fence round, a false
//! verdict sends everyone through one
//! [`shrink`](rankmpi_core::Communicator::shrink), and only a unanimous
//! healthy verdict lets anyone exit. Because the shrunk communicator has a
//! fresh context id, acknowledgments stranded on the revoked context can
//! never leak into the next round — each round's dispatch/ack exchange is
//! isolated by construction, and the emitter needs no deduplication
//! beyond its own acked set.

use rankmpi_core::{Communicator, Errhandler, LaunchMode, ThreadCtx, Universe};
use rankmpi_fabric::{FaultPlan, NetworkProfile};
use rankmpi_vtime::Nanos;

use crate::item::splitmix;

/// Work items, emitter → worker (payload: `seq` u64 LE; [`STOP_SEQ`] ends
/// the worker's serve loop for the current fence round).
const WORK_TAG: i64 = 600_000;
/// Acknowledgments, worker → emitter (payload: `seq` u64, `result` u64).
const ACK_TAG: i64 = 600_001;
/// Sentinel sequence number that tells a worker the round is over.
const STOP_SEQ: u64 = u64::MAX;

/// Configuration for the crash-surviving task farm.
#[derive(Debug, Clone)]
pub struct FarmFtConfig {
    /// Simulated processes: rank 0 is the emitter (never crashes by
    /// plan), ranks `1..procs` are workers.
    pub procs: usize,
    /// Work items the emitter must see acknowledged.
    pub items: u64,
    /// Virtual compute per item at a worker.
    pub work: Nanos,
    /// Fault-plan seed (drives the crash draw).
    pub seed: u64,
    /// Per-rank crash probability (0 disables crashes entirely).
    pub crash_prob: f64,
    /// Latest crash point in MPI sends.
    pub crash_max_sends: u64,
    /// Latest crash point in virtual time.
    pub crash_max_vtime: Nanos,
    /// Network profile.
    pub profile: NetworkProfile,
    /// Launch mode (threads or cooperative rank-tasks).
    pub launch: LaunchMode,
}

impl Default for FarmFtConfig {
    fn default() -> Self {
        FarmFtConfig {
            procs: 6,
            items: 48,
            work: Nanos::us(1),
            seed: 1,
            crash_prob: 0.35,
            crash_max_sends: 24,
            crash_max_vtime: Nanos::us(150),
            profile: NetworkProfile::omni_path(),
            launch: LaunchMode::Threads,
        }
    }
}

/// One survivor's view of the farm run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmFtRankReport {
    /// True for the emitter (world rank 0).
    pub emitter: bool,
    /// Items this rank computed (worker: served; emitter: computed
    /// locally after every worker died).
    pub processed: u64,
    /// Recovery rounds (revoke + agree + shrink) this rank went through.
    pub recoveries: usize,
    /// Size of the communicator the rank finished on.
    pub final_size: usize,
    /// Verdict of the final fault-tolerant agreement.
    pub final_verdict: bool,
}

/// Aggregated outcome of [`run_farm_ft`].
#[derive(Debug, Clone)]
pub struct FarmFtReport {
    /// Items the emitter sourced.
    pub items: u64,
    /// Ranks the fault plan killed mid-run.
    pub victims: Vec<usize>,
    /// Per-survivor reports, indexed by world rank.
    pub survivors: Vec<(usize, FarmFtRankReport)>,
    /// Recovery rounds the emitter observed.
    pub recoveries: usize,
    /// All survivors finished on a communicator of the same size with
    /// the same agreement verdict.
    pub consistent: bool,
    /// Every item was acknowledged with the expected result.
    pub verified: bool,
}

/// The expected result for an item: pure in `(seed, seq)` so that
/// re-execution on a different worker after a crash is idempotent.
fn expected_result(seed: u64, seq: u64) -> u64 {
    splitmix(seed ^ seq.rotate_left(17) ^ 0xFA37)
}

/// One emitter fence-round phase: dispatch every unacknowledged item
/// round-robin over the current workers, then collect the acknowledgments
/// in assignment order, then stop the workers. Returns `Ok(true)` when the
/// round completed (all items acked, all stops delivered) and `Ok(false)`
/// when a fault tore it up partway.
fn emitter_phase(
    comm: &Communicator,
    th: &mut ThreadCtx,
    cfg: &FarmFtConfig,
    acked: &mut [bool],
    processed: &mut u64,
) -> bool {
    let workers = comm.size() - 1;
    let unacked: Vec<u64> = (0..cfg.items).filter(|&s| !acked[s as usize]).collect();
    if workers == 0 {
        // Every worker died: the emitter is the farm now. Compute the
        // remainder locally so the run still terminates with full results.
        for seq in unacked {
            th.clock.advance(cfg.work);
            acked[seq as usize] = true;
            *processed += 1;
        }
        return true;
    }
    // Deterministic round-robin assignment over the survivor workers.
    let mut assignment: Vec<Vec<u64>> = vec![Vec::new(); workers];
    for (i, &seq) in unacked.iter().enumerate() {
        assignment[i % workers].push(seq);
    }
    for (w, seqs) in assignment.iter().enumerate() {
        for &seq in seqs {
            if comm.send(th, w + 1, WORK_TAG, &seq.to_le_bytes()).is_err() {
                return false;
            }
        }
    }
    // Collect acks in assignment order. A live worker holds all its items
    // (eager sends above completed), so it will ack them all; a blocking
    // receive from a dead one fails through the detector instead of
    // hanging.
    for (w, seqs) in assignment.iter().enumerate() {
        for &seq in seqs {
            match comm.recv(th, (w + 1) as i64, ACK_TAG) {
                Ok((_st, data)) => {
                    let got_seq = u64::from_le_bytes(data[..8].try_into().unwrap());
                    let result = u64::from_le_bytes(data[8..16].try_into().unwrap());
                    assert_eq!(got_seq, seq, "acks arrive in assignment order");
                    assert_eq!(
                        result,
                        expected_result(cfg.seed, seq),
                        "worker {} returned a wrong result for item {seq}",
                        w + 1
                    );
                    acked[seq as usize] = true;
                }
                Err(e) if e.is_ft() => return false,
                Err(e) => panic!("ack recv failed: {e:?}"),
            }
        }
    }
    for w in 1..comm.size() {
        if comm.send(th, w, WORK_TAG, &STOP_SEQ.to_le_bytes()).is_err() {
            return false;
        }
    }
    true
}

/// One worker fence-round phase: serve work items from the emitter until
/// a stop sentinel (round completed) or a fault (returns `false`).
fn worker_phase(
    comm: &Communicator,
    th: &mut ThreadCtx,
    cfg: &FarmFtConfig,
    processed: &mut u64,
) -> bool {
    loop {
        match comm.recv(th, 0, WORK_TAG) {
            Ok((_st, data)) => {
                let seq = u64::from_le_bytes(data[..8].try_into().unwrap());
                if seq == STOP_SEQ {
                    return true;
                }
                th.clock.advance(cfg.work);
                let mut ack = [0u8; 16];
                ack[..8].copy_from_slice(&seq.to_le_bytes());
                ack[8..].copy_from_slice(&expected_result(cfg.seed, seq).to_le_bytes());
                match comm.send(th, 0, ACK_TAG, &ack) {
                    Ok(()) => *processed += 1,
                    Err(e) if e.is_ft() => return false,
                    Err(e) => panic!("ack send failed: {e:?}"),
                }
            }
            Err(e) if e.is_ft() => return false,
            Err(e) => panic!("work recv failed: {e:?}"),
        }
    }
}

/// Run the crash-surviving task farm and report every survivor's view.
///
/// Unlike the halo, no post-shrink resynchronization collective is needed:
/// the emitter owns all durable state, and the fresh context id of the
/// shrunk communicator isolates each round's dispatch/ack traffic from
/// messages stranded on the revoked one.
pub fn run_farm_ft(cfg: &FarmFtConfig) -> FarmFtReport {
    assert!(cfg.procs >= 2, "the farm needs an emitter and a worker");
    let plan =
        FaultPlan::new(cfg.seed).crashes(cfg.crash_prob, cfg.crash_max_sends, cfg.crash_max_vtime);
    let uni = Universe::builder()
        .nodes(cfg.procs)
        .procs_per_node(1)
        .threads_per_proc(1)
        .profile(cfg.profile.clone())
        .fault_plan(plan)
        .launch(cfg.launch)
        .build();

    let max_rounds = cfg.procs + 2;
    let results = uni.run_ft(|env| {
        let world = env.world();
        world.set_errhandler(Errhandler::ErrorsReturn);
        let mut th = env.single_thread();
        let mut comm = world.clone();
        let emitter = env.rank() == 0;
        let mut acked = vec![false; cfg.items as usize];
        let mut processed = 0u64;
        let mut recoveries = 0usize;
        let final_verdict = loop {
            let completed = if emitter {
                emitter_phase(&comm, &mut th, cfg, &mut acked, &mut processed)
            } else {
                worker_phase(&comm, &mut th, cfg, &mut processed)
            };
            // Fence: a torn-out rank revokes first so no peer stays
            // blocked mid-round; then everyone votes on health.
            if !completed {
                comm.revoke(&mut th).expect("revoke cannot fail");
            }
            let healthy = comm
                .agree(&mut th, completed && !comm.is_revoked())
                .expect("agreement must resolve for a survivor");
            if healthy {
                break true;
            }
            comm = comm.shrink(&mut th).expect("a survivor can always shrink");
            recoveries += 1;
            assert!(
                recoveries <= max_rounds,
                "more recovery rounds than possible crash events"
            );
        };
        if emitter {
            assert!(
                acked.iter().all(|&a| a),
                "the emitter exited with unacknowledged items"
            );
        }
        FarmFtRankReport {
            emitter,
            processed,
            recoveries,
            final_size: comm.size(),
            final_verdict,
        }
    });

    let victims: Vec<usize> = results
        .iter()
        .enumerate()
        .filter_map(|(r, res)| res.is_none().then_some(r))
        .collect();
    let survivors: Vec<(usize, FarmFtRankReport)> = results
        .into_iter()
        .enumerate()
        .filter_map(|(r, res)| res.map(|rep| (r, rep)))
        .collect();
    let emitter_rep = survivors.iter().find(|(r, _)| *r == 0).map(|(_, rep)| rep);
    let consistent = !survivors.is_empty()
        && survivors.windows(2).all(|w| {
            w[0].1.final_size == w[1].1.final_size && w[0].1.final_verdict == w[1].1.final_verdict
        });
    FarmFtReport {
        items: cfg.items,
        victims,
        recoveries: emitter_rep.map_or(0, |r| r.recoveries),
        // The emitter's exit assertion already proved full acknowledgment
        // with correct results; reaching here with an emitter report means
        // the farm delivered everything.
        verified: emitter_rep.is_some(),
        survivors,
        consistent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_farm_delivers_everything() {
        let cfg = FarmFtConfig {
            crash_prob: 0.0,
            procs: 4,
            items: 24,
            ..FarmFtConfig::default()
        };
        let rep = run_farm_ft(&cfg);
        assert!(rep.victims.is_empty());
        assert!(rep.consistent && rep.verified);
        assert_eq!(rep.recoveries, 0);
        let served: u64 = rep
            .survivors
            .iter()
            .filter(|(_, r)| !r.emitter)
            .map(|(_, r)| r.processed)
            .sum();
        assert_eq!(served, 24, "workers served every item exactly once");
    }

    #[test]
    fn farm_redistributes_after_worker_crashes() {
        let mut saw_crash = false;
        for seed in 0..4u64 {
            let cfg = FarmFtConfig {
                seed,
                crash_prob: 0.9,
                procs: 6,
                items: 36,
                // Workers send only a handful of acks each; keep the
                // drawn crash points inside that activity window.
                crash_max_sends: 5,
                crash_max_vtime: Nanos::us(60),
                ..FarmFtConfig::default()
            };
            let rep = run_farm_ft(&cfg);
            assert!(rep.consistent, "seed {seed}: inconsistent survivors");
            assert!(rep.verified, "seed {seed}: emitter lost items");
            assert!(
                rep.survivors.iter().any(|(r, _)| *r == 0),
                "the emitter never crashes by plan"
            );
            if !rep.victims.is_empty() {
                saw_crash = true;
                let (_, first) = &rep.survivors[0];
                // Shrinks exclude exactly the members known dead at shrink
                // time — a subset of the planned victims (one may die
                // after its last visible act, e.g. right after a stop).
                assert!(
                    first.final_size >= 6 - rep.victims.len(),
                    "seed {seed}: shrink dropped a live member"
                );
                if first.recoveries > 0 {
                    assert!(
                        first.final_size < 6,
                        "seed {seed}: recovered but never actually shrank"
                    );
                }
            }
        }
        assert!(saw_crash, "the sweep never exercised a crash");
    }
}
