//! Fault-tolerance conformance: under a crash plan, no survivor ever
//! hangs — every pending operation resolves `Ok`, `ProcessFailed`, or
//! `Revoked`; the fault-tolerant agreement returns the same verdict on
//! every survivor; and after a shrink, the halo and the task farm both
//! complete with verified results.
//!
//! The sweeps run under both launch modes (OS threads and cooperative
//! rank-tasks): the recovery protocol lives above the channel layer and
//! must be oblivious to the choice. Failures name the exact
//! `(launch, seed)` pair; `RANKMPI_CHECK_SEED` replays the seed.

use std::sync::Arc;
use std::time::Duration;

use rankmpi_check::{base_seed, launch_modes_under_test, BuildChecked};
use rankmpi_core::{Errhandler, LaunchMode, RankMpiError, Universe};
use rankmpi_fabric::{CrashPoint, FaultPlan, NetworkProfile};
use rankmpi_stream::ft::{run_farm_ft, FarmFtConfig};
use rankmpi_vtime::Nanos;
use rankmpi_workloads::ft::{run_halo_ft, HaloFtConfig};

const SWEEP: u64 = 3;

fn launch_name(l: &LaunchMode) -> &'static str {
    match l {
        LaunchMode::Threads => "threads",
        LaunchMode::Tasks(_) => "tasks",
    }
}

/// The schedule-independent victim oracle: the set of ranks whose crash
/// draw fired. Actual victims must be a subset (a drawn crash point past
/// the rank's last operation never fires).
fn oracle(plan: &FaultPlan, procs: usize) -> Vec<usize> {
    (0..procs)
        .filter(|&r| plan.crash_point(r as u64).is_some())
        .collect()
}

/// Crash-plan sweep over the ring halo: every survivor finishes (the run
/// returning at all is the no-hang property), survivors agree on the
/// final communicator size and verdict, rank 0 always survives, and the
/// victim set is a subset of the plan's oracle.
#[test]
fn halo_crash_sweep_no_survivor_hangs() {
    for launch in launch_modes_under_test() {
        for s in 0..SWEEP {
            let seed = base_seed() ^ 0xFA17 ^ (s << 8);
            let cfg = HaloFtConfig {
                seed,
                procs: 6,
                iters: 10,
                crash_prob: 0.8,
                launch,
                ..HaloFtConfig::default()
            };
            let plan = FaultPlan::new(seed).crashes(
                cfg.crash_prob,
                cfg.crash_max_sends,
                cfg.crash_max_vtime,
            );
            let allowed = oracle(&plan, cfg.procs);
            let rep = run_halo_ft(&cfg);
            let cell = format!("launch {}, seed {seed:#x}", launch_name(&launch));
            assert!(rep.consistent, "survivors disagree ({cell})");
            assert!(
                rep.survivors.iter().any(|(r, _)| *r == 0),
                "rank 0 must survive by plan ({cell})"
            );
            assert!(
                rep.victims.iter().all(|v| allowed.contains(v)),
                "victims {:?} outside the plan oracle {allowed:?} ({cell})",
                rep.victims
            );
        }
    }
}

/// Same sweep over the task farm: the emitter re-dispatches dead workers'
/// items and exits only with every item acknowledged and verified.
#[test]
fn farm_crash_sweep_redistributes_and_completes() {
    for launch in launch_modes_under_test() {
        for s in 0..SWEEP {
            let seed = base_seed() ^ 0xFA43 ^ (s << 8);
            let cfg = FarmFtConfig {
                seed,
                procs: 6,
                items: 30,
                crash_prob: 0.8,
                crash_max_sends: 5,
                crash_max_vtime: Nanos::us(60),
                launch,
                ..FarmFtConfig::default()
            };
            let plan = FaultPlan::new(seed).crashes(
                cfg.crash_prob,
                cfg.crash_max_sends,
                cfg.crash_max_vtime,
            );
            let allowed = oracle(&plan, cfg.procs);
            let rep = run_farm_ft(&cfg);
            let cell = format!("launch {}, seed {seed:#x}", launch_name(&launch));
            assert!(rep.verified, "emitter lost items ({cell})");
            assert!(rep.consistent, "survivors disagree ({cell})");
            assert!(
                rep.victims.iter().all(|v| allowed.contains(v)),
                "victims {:?} outside the plan oracle {allowed:?} ({cell})",
                rep.victims
            );
        }
    }
}

/// A pending receive aimed at a certain-to-die peer resolves with
/// `ProcessFailed` naming that peer — never a hang (the `recv_timeout`
/// is a real-time backstop that must not be what fires).
#[test]
fn pending_recv_from_the_dead_fails_with_process_failed() {
    let plan = FaultPlan::new(base_seed() ^ 0xD1E).crashes(1.0, 4, Nanos::us(40));
    assert!(
        plan.crash_point(1).is_some(),
        "probability 1 must draw a crash for rank 1"
    );
    let u = Universe::builder()
        .nodes(2)
        .fault_plan(plan)
        .build_checked();
    u.run_ft(|env| {
        let world = env.world();
        world.set_errhandler(Errhandler::ErrorsReturn);
        let mut th = env.single_thread();
        if env.rank() == 0 {
            // Tag 5 is never sent: this receive can only resolve
            // through the failure detector.
            match world.recv_timeout(&mut th, 1, 5, Duration::from_secs(30)) {
                Err(RankMpiError::ProcessFailed { rank }) => assert_eq!(rank, 1),
                other => panic!("expected ProcessFailed {{ rank: 1 }}, got {other:?}"),
            }
        } else {
            // Keep issuing operations until the crash point fires
            // (sends count toward it; the clock advances toward a
            // virtual-time trigger).
            for i in 0..64u32 {
                th.clock.advance(Nanos::us(2));
                if world.send(&mut th, 0, 9, &i.to_le_bytes()).is_err() {
                    break;
                }
            }
            panic!("rank 1 outlived a probability-1 crash plan");
        }
    });
}

/// A message the dead rank sent before it died stays deliverable: a
/// receive posted *after* the detector fired matches it instead of failing
/// at post time. Only a receive that would stay posted is doomed.
#[test]
fn recv_posted_after_detection_still_gets_an_arrived_message() {
    for launch in launch_modes_under_test() {
        let plan = FaultPlan::new(0xD1E).crashes(1.0, 200, Nanos::us(4000));
        assert_eq!(plan.crash_point(1), Some(CrashPoint::Sends(61)));
        let u = Universe::builder()
            .nodes(2)
            .launch(launch)
            .fault_plan(plan)
            .build_checked();
        u.run_ft(|env| {
            let world = env.world();
            world.set_errhandler(Errhandler::ErrorsReturn);
            let mut th = env.single_thread();
            if env.rank() == 1 {
                world.send(&mut th, 0, 3, b"sent before the crash").unwrap();
                while world.send(&mut th, 0, 9, b"x").is_ok() {}
                panic!("rank 1 outlived a probability-1 crash plan");
            }
            // Tag 77 is never sent: this resolves only through the detector.
            let fired = world.recv_timeout(&mut th, 1, 77, Duration::from_secs(20));
            assert!(
                matches!(fired, Err(RankMpiError::ProcessFailed { rank: 1 })),
                "detector must fire, got {fired:?}"
            );
            let cell = launch_name(&launch);
            match world.recv_timeout(&mut th, 1, 3, Duration::from_secs(20)) {
                Ok((_, data)) => assert_eq!(&data[..], b"sent before the crash"),
                Err(e) => panic!("arrived message from the dead rank was refused: {e:?} ({cell})"),
            }
            // Nothing else with tag 3 ever arrived: this one stays posted,
            // so it is doomed.
            let doomed = world.recv_timeout(&mut th, 1, 3, Duration::from_secs(20));
            assert!(
                matches!(doomed, Err(RankMpiError::ProcessFailed { rank: 1 })),
                "second receive: {doomed:?} ({cell})"
            );
        });
    }
}

/// Endpoint ranks are attributed to their owner process: when rank 1 dies,
/// a receive from an endpoint rank 0 owns stays pending, a receive from one
/// of the dead rank's endpoints fails naming world rank 1, and so does a
/// send to one (through the errhandler inherited from the parent).
#[test]
fn endpoint_failures_are_attributed_to_the_owner_process() {
    for launch in launch_modes_under_test() {
        let plan = FaultPlan::new(0xD1E).crashes(1.0, 200, Nanos::us(4000));
        assert_eq!(plan.crash_point(1), Some(CrashPoint::Sends(61)));
        let u = Universe::builder()
            .nodes(2)
            .launch(launch)
            .fault_plan(plan)
            .build_checked();
        u.run_ft(|env| {
            let world = env.world();
            world.set_errhandler(Errhandler::ErrorsReturn);
            let mut th = env.single_thread();
            // Endpoint ranks 0,1 live on world rank 0; 2,3 on world rank 1.
            let eps = world.create_endpoints(&mut th, 2).unwrap();
            if env.rank() == 1 {
                while world.send(&mut th, 0, 9, b"x").is_ok() {}
                panic!("rank 1 outlived a probability-1 crash plan");
            }
            // Tag 5 is never sent: these resolve only through the detector.
            let from_live = eps[0].irecv(&mut th, 1, 5).unwrap();
            let from_dead = eps[0].irecv(&mut th, 2, 5).unwrap();
            let fired = world.recv_timeout(&mut th, 1, 77, Duration::from_secs(20));
            assert!(
                matches!(fired, Err(RankMpiError::ProcessFailed { rank: 1 })),
                "detector must fire, got {fired:?}"
            );
            let cell = launch_name(&launch);
            assert!(
                from_live.test(&mut th.clock).is_none(),
                "receive from a live endpoint must stay pending ({cell})"
            );
            let got = from_dead.wait_timeout(&mut th.clock, Duration::from_secs(2));
            assert!(
                matches!(got, Err(RankMpiError::ProcessFailed { rank: 1 })),
                "receive from the dead rank's endpoint: {got:?} ({cell})"
            );
            let sent = eps[0].send(&mut th, 3, 5, b"to a corpse");
            assert!(
                matches!(sent, Err(RankMpiError::ProcessFailed { rank: 1 })),
                "send to the dead rank's endpoint: {sent:?} ({cell})"
            );
        });
    }
}

/// The fault-tolerant agreement is a true AND over the contributions and
/// decides identically everywhere, including when re-run on the same
/// communicator.
#[test]
fn agree_is_a_consistent_and_over_contributions() {
    let u = Universe::builder()
        .nodes(4)
        .profile(NetworkProfile::omni_path())
        .build_checked();
    let verdicts: Vec<(bool, bool)> = u.run(|env| {
        let world = env.world();
        world.set_errhandler(Errhandler::ErrorsReturn);
        let mut th = env.single_thread();
        let first = world.agree(&mut th, env.rank() != 2).unwrap();
        let second = world.agree(&mut th, true).unwrap();
        (first, second)
    });
    for (r, (first, second)) in verdicts.iter().enumerate() {
        assert!(!first, "rank {r}: one false contribution must veto");
        assert!(second, "rank {r}: unanimous truth must carry");
    }
}

/// Shrink releases the dead rank's hardware contexts: the victim node's
/// NIC pool gauge returns to zero once a survivor shrinks past it.
#[test]
fn shrink_releases_the_dead_ranks_hw_contexts() {
    let plan = FaultPlan::new(base_seed() ^ 0x5EAD).crashes(1.0, 3, Nanos::us(30));
    let u = Universe::builder()
        .nodes(2)
        .fault_plan(plan)
        .build_checked();
    let shared = Arc::clone(u.shared());
    let baseline = shared.nic(1).contexts_in_use();
    assert!(baseline > 0, "rank 1's VCI must hold a context at start");
    let shared_ref = &shared;
    u.run_ft(|env| {
        let world = env.world();
        world.set_errhandler(Errhandler::ErrorsReturn);
        let mut th = env.single_thread();
        if env.rank() == 0 {
            let got = world.recv_timeout(&mut th, 1, 5, Duration::from_secs(30));
            assert!(
                matches!(got, Err(RankMpiError::ProcessFailed { rank: 1 })),
                "detector must fire first, got {got:?}"
            );
            world.revoke(&mut th).unwrap();
            assert!(!world.agree(&mut th, false).unwrap());
            let alone = world.shrink(&mut th).unwrap();
            assert_eq!(alone.size(), 1);
            assert_eq!(
                shared_ref.nic(1).contexts_in_use(),
                0,
                "the dead rank's contexts must be reclaimed by the shrink"
            );
        } else {
            for i in 0..64u32 {
                th.clock.advance(Nanos::us(2));
                if world.send(&mut th, 0, 9, &i.to_le_bytes()).is_err() {
                    break;
                }
            }
            panic!("rank 1 outlived a probability-1 crash plan");
        }
    });
}

/// Hardware contexts fail under traffic: two threads of rank 0 each drive
/// their own VCI while a saboteur keeps failing whatever context each VCI
/// is on. Nothing is lost, duplicated or reordered within a thread's
/// channel, both VCIs really failed over, and every context a VCI left is
/// still alive at the end (a send may have borrowed it).
///
/// The receivers hold back until their sender is done, so every message
/// waits in the unexpected queue and is matched by earliest *arrival*: a
/// replacement context that forgot its predecessor's backlog reorders here.
#[test]
fn contexts_fail_over_under_traffic_without_losing_or_reordering() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    const MSGS: usize = 48;
    const SABOTAGE_ROUNDS: usize = 6;
    const DONE_TAG: i64 = 99;
    for launch in launch_modes_under_test() {
        for s in 0..SWEEP {
            let seed = base_seed() ^ 0xC7F0 ^ (s << 8);
            let u = Universe::builder()
                .nodes(2)
                .num_vcis(2)
                .launch(launch)
                .build_checked();
            let shared = Arc::clone(u.shared());
            let senders_done = AtomicUsize::new(0);
            let retired = parking_lot::Mutex::new(Vec::new());
            let (shared_ref, senders_done, retired) = (&shared, &senders_done, &retired);
            u.run(|env| {
                let world = env.world();
                let mut th0 = env.single_thread();
                let comms = [world.dup(&mut th0).unwrap(), world.dup(&mut th0).unwrap()];
                let vcis = [comms[0].vci_block()[0], comms[1].vci_block()[0]];
                assert_ne!(vcis[0], vcis[1], "each sender thread drives its own VCI");
                if env.rank() == 0 {
                    env.parallel_n(3, |th| {
                        let tid = th.tid();
                        if tid == 2 {
                            // The saboteur. Bounded; each round waits until
                            // both VCIs moved off what it broke (or the
                            // senders are through).
                            let proc = shared_ref.proc(0);
                            for _ in 0..SABOTAGE_ROUNDS {
                                let before: Vec<u64> =
                                    vcis.iter().map(|&v| proc.vci(v).failovers()).collect();
                                for &v in &vcis {
                                    let ctx = proc.vci(v).hw_context();
                                    ctx.mark_failed();
                                    retired.lock().push(Arc::downgrade(&ctx));
                                }
                                while senders_done.load(Ordering::Acquire) < 2
                                    && vcis
                                        .iter()
                                        .zip(&before)
                                        .any(|(&v, &b)| proc.vci(v).failovers() == b)
                                {
                                    th.compute(Nanos::us(1));
                                    std::thread::yield_now();
                                }
                            }
                            return;
                        }
                        let c = &comms[tid];
                        // 8 KiB and up: the context pipeline, not the CPU,
                        // paces the channel, so a failure leaves a backlog.
                        let len = 8192 + ((seed as usize + tid) % 7) * 1024;
                        for i in 0..MSGS {
                            let mut data = vec![tid as u8; len];
                            data[..8].copy_from_slice(&(i as u64).to_le_bytes());
                            c.send(th, 1, tid as i64, &data).unwrap();
                            let vci = c.proc().vci_ref(vcis[tid]);
                            if i == MSGS / 2 && vci.failovers() == 0 {
                                // The host ran this thread start to finish
                                // before the saboteur got a turn.
                                vci.hw_context().mark_failed();
                            }
                        }
                        c.send(th, 1, DONE_TAG, b"").unwrap();
                        senders_done.fetch_add(1, Ordering::AcqRel);
                    });
                } else {
                    env.parallel_n(2, |th| {
                        let tid = th.tid();
                        let c = &comms[tid];
                        c.recv(th, 0, DONE_TAG).unwrap();
                        for i in 0..MSGS {
                            let (st, data) = c.recv(th, 0, tid as i64).unwrap();
                            let got = u64::from_le_bytes(data[..8].try_into().unwrap());
                            assert_eq!(
                                got,
                                i as u64,
                                "{} seed {seed:#x}: thread {tid} message {i} overtaken \
                                 across a failover",
                                launch_name(&launch)
                            );
                            assert_eq!(data[8], tid as u8);
                            assert_eq!(st.len, data.len());
                        }
                        // Exactly once: nothing of this channel is left over.
                        assert!(c.iprobe(th, 0, tid as i64).unwrap().is_none());
                    });
                }
            });
            for v in 0..2 {
                assert!(
                    shared.proc(0).vci(v).failovers() > 0,
                    "{} seed {seed:#x}: VCI {v} never failed over",
                    launch_name(&launch)
                );
            }
            let retired = retired.lock();
            assert!(retired.len() >= 2);
            assert!(
                retired.iter().all(|w| w.upgrade().is_some()),
                "a retired context was freed while its VCI lives"
            );
        }
    }
}
