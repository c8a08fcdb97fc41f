//! Crash-surviving workloads: a ring halo exchange that detects a dead
//! neighbor, revokes, shrinks, and finishes on the survivor communicator.
//!
//! The recovery protocol is the ULFM idiom end to end:
//!
//! 1. any operation surfaces [`ProcessFailed`](rankmpi_core::Error) (the
//!    detector) or [`Revoked`](rankmpi_core::Error) (a peer already gave
//!    up on the communicator) through `ErrorsReturn`;
//! 2. the observer calls [`revoke`](rankmpi_core::Communicator::revoke)
//!    so every *other* survivor's pending and future operations fail too
//!    — no survivor is left blocked;
//! 3. everyone runs [`agree`](rankmpi_core::Communicator::agree) /
//!    [`shrink`](rankmpi_core::Communicator::shrink) and resynchronizes
//!    the iteration counter with an allreduce on the new communicator.
//!
//! Victims are chosen by the [`FaultPlan`]'s crash draw (rank 0 never
//! crashes), so the survivor set is a schedule-independent oracle.

use rankmpi_core::{Communicator, Errhandler, Error, LaunchMode, ReduceOp, ThreadCtx, Universe};
use rankmpi_fabric::{FaultPlan, NetworkProfile};
use rankmpi_vtime::Nanos;

/// Configuration for the crash-surviving ring halo.
#[derive(Debug, Clone)]
pub struct HaloFtConfig {
    /// Simulated processes (ring members). Rank 0 never crashes.
    pub procs: usize,
    /// Halo iterations each survivor must complete.
    pub iters: usize,
    /// Bytes per halo face message.
    pub bytes: usize,
    /// Virtual compute per iteration.
    pub compute: Nanos,
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

impl Default for HaloFtConfig {
    fn default() -> Self {
        HaloFtConfig {
            procs: 6,
            iters: 12,
            bytes: 128,
            compute: Nanos::us(2),
            seed: 1,
            crash_prob: 0.35,
            crash_max_sends: 12,
            crash_max_vtime: Nanos::us(120),
            profile: NetworkProfile::omni_path(),
            launch: LaunchMode::Threads,
        }
    }
}

/// One survivor's view of the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HaloFtRankReport {
    /// Iterations this rank actually exchanged (skipped ones were lost to
    /// a mid-iteration crash and resynchronized past).
    pub exchanged: usize,
    /// Recovery rounds (revoke + agree + shrink) this rank went through.
    pub recoveries: usize,
    /// Size of the communicator the rank finished on.
    pub final_size: usize,
    /// Verdict of the final fault-tolerant agreement.
    pub final_verdict: bool,
    /// Every received halo payload matched its expected (iter, sender).
    pub verified: bool,
}

/// Aggregated outcome of [`run_halo_ft`].
#[derive(Debug, Clone)]
pub struct HaloFtReport {
    /// Ranks that the fault plan killed mid-run (`None` slots).
    pub victims: Vec<usize>,
    /// Per-survivor reports, indexed by world rank.
    pub survivors: Vec<(usize, HaloFtRankReport)>,
    /// All survivors finished on a communicator of the same size with the
    /// same agreement verdict and verified payloads.
    pub consistent: bool,
}

const DIR_RIGHT: i64 = 0;
const DIR_LEFT: i64 = 1;

fn halo_tag(iter: usize, dir: i64) -> i64 {
    ((iter as i64) % 512) * 2 + dir
}

fn stamp(iter: usize, sender: usize) -> u64 {
    ((iter as u64) << 20) | sender as u64
}

/// One ring-halo iteration on `comm`: exchange stamped payloads with both
/// neighbors and verify them. Any fault-tolerance error aborts the
/// iteration for the caller to recover from.
fn halo_step(
    comm: &Communicator,
    th: &mut ThreadCtx,
    iter: usize,
    bytes: usize,
    compute: Nanos,
) -> Result<(), Error> {
    let p = comm.size();
    let r = comm.rank();
    if p > 1 {
        let left = (r + p - 1) % p;
        let right = (r + 1) % p;
        // Receive the rightward message from the left neighbor and the
        // leftward one from the right neighbor (distinct tags so the two
        // directions cannot cross even when p == 2 and left == right).
        let from_left = comm.irecv(th, left as i64, halo_tag(iter, DIR_RIGHT))?;
        let from_right = comm.irecv(th, right as i64, halo_tag(iter, DIR_LEFT))?;
        let mut payload = vec![0u8; bytes.max(8)];
        payload[..8].copy_from_slice(&stamp(iter, r).to_le_bytes());
        comm.isend(th, right, halo_tag(iter, DIR_RIGHT), &payload)?;
        comm.isend(th, left, halo_tag(iter, DIR_LEFT), &payload)?;
        for (req, sender) in [(from_left, left), (from_right, right)] {
            let (_st, data) = req.wait_outcome(&mut th.clock)?;
            assert_eq!(
                u64::from_le_bytes(data[..8].try_into().unwrap()),
                stamp(iter, sender),
                "halo payload mismatch at iter {iter}: rank {r} expected sender {sender}"
            );
        }
    }
    th.clock.advance(compute);
    Ok(())
}

/// Run the crash-surviving ring halo and report every survivor's view.
///
/// The loop alternates a *compute phase* (halo iterations until done or
/// torn out by an FT error) with a *fence*: one `agree` per communicator
/// that every member reaches — done ranks and broken ranks alike — so no
/// rank can exit while a peer still needs it for a collective shrink. A
/// broken rank revokes before fencing (releasing peers blocked in the
/// compute phase), a false verdict sends *everyone* through one `shrink`,
/// and only a unanimous healthy verdict lets anyone return. This keeps
/// the per-context agreement boards aligned across ranks no matter where
/// in the iteration space each survivor was interrupted.
pub fn run_halo_ft(cfg: &HaloFtConfig) -> HaloFtReport {
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
        let mut exchanged = 0usize;
        let mut recoveries = 0usize;
        let mut iter = 0usize;
        let final_verdict = loop {
            // Compute phase: iterate until done or torn out by a failure.
            let mut broken = false;
            while iter < cfg.iters {
                match halo_step(&comm, &mut th, iter, cfg.bytes, cfg.compute) {
                    Ok(()) => {
                        exchanged += 1;
                        iter += 1;
                    }
                    Err(e) if e.is_ft() => {
                        broken = true;
                        break;
                    }
                    Err(e) => panic!("halo step failed: {e:?}"),
                }
            }
            // Fence: a broken rank revokes first so no peer stays blocked
            // in its compute phase; then everyone votes on health.
            if broken {
                comm.revoke(&mut th).expect("revoke cannot fail");
            }
            let healthy = comm
                .agree(&mut th, !broken && !comm.is_revoked())
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
            // Resynchronize: survivors were torn out of different
            // iterations; resume together at the frontier. If this
            // collective is itself interrupted, the iteration counters are
            // now divergent — a rank left behind would block forever on
            // messages nobody will send — so the comm must be revoked
            // immediately to funnel every member back into the fence.
            match comm.allreduce(&mut th, &[iter as f64], ReduceOp::Max) {
                Ok(m) => iter = m[0] as usize,
                Err(ref e) if e.is_ft() => {
                    comm.revoke(&mut th).expect("revoke cannot fail");
                }
                Err(e) => panic!("resync failed: {e:?}"),
            }
        };
        HaloFtRankReport {
            exchanged,
            recoveries,
            final_size: comm.size(),
            final_verdict,
            verified: true,
        }
    });

    let victims: Vec<usize> = results
        .iter()
        .enumerate()
        .filter_map(|(r, res)| res.is_none().then_some(r))
        .collect();
    let survivors: Vec<(usize, HaloFtRankReport)> = results
        .into_iter()
        .enumerate()
        .filter_map(|(r, res)| res.map(|rep| (r, rep)))
        .collect();
    let consistent = !survivors.is_empty()
        && survivors.windows(2).all(|w| {
            w[0].1.final_size == w[1].1.final_size && w[0].1.final_verdict == w[1].1.final_verdict
        })
        && survivors.iter().all(|(_, rep)| rep.verified);
    HaloFtReport {
        victims,
        survivors,
        consistent,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_plan_runs_clean() {
        let cfg = HaloFtConfig {
            crash_prob: 0.0,
            procs: 4,
            iters: 6,
            ..HaloFtConfig::default()
        };
        let rep = run_halo_ft(&cfg);
        assert!(rep.victims.is_empty());
        assert!(rep.consistent);
        for (_, r) in &rep.survivors {
            assert_eq!(r.exchanged, 6);
            assert_eq!(r.recoveries, 0);
            assert_eq!(r.final_size, 4);
            assert!(r.final_verdict);
        }
    }

    #[test]
    fn survivors_outlive_planned_crashes() {
        // Sweep seeds until the draw produces at least one victim; with
        // p=0.9 over 5 non-zero ranks that is essentially every seed.
        let mut saw_crash = false;
        for seed in 0..4u64 {
            let cfg = HaloFtConfig {
                seed,
                crash_prob: 0.9,
                procs: 6,
                iters: 10,
                ..HaloFtConfig::default()
            };
            let rep = run_halo_ft(&cfg);
            assert!(rep.consistent, "seed {seed}: inconsistent survivors");
            assert!(
                rep.survivors.iter().any(|(r, _)| *r == 0),
                "rank 0 never crashes by plan"
            );
            if !rep.victims.is_empty() {
                saw_crash = true;
                let (_, first) = &rep.survivors[0];
                // Shrinks exclude exactly the members known dead at shrink
                // time — a subset of the planned victims (one may die after
                // the last recovery, e.g. inside the final agreement).
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
