//! Reliability-protocol conformance: a lossy fabric (wire drops + link
//! flaps) must look loss-free and in-order to the MPI layer, bounded
//! retries must surface as `RetriesExhausted` through `ErrorsReturn`
//! (never a hang), and a failed hardware context must be remapped live
//! without dropping traffic — all of it while every resource forgets the
//! history behind the universe's GVT.
//!
//! Every scenario sweeps several derived seeds, mirroring the other
//! conformance suites.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rankmpi_check::{base_seed, launch_modes_under_test, BuildChecked};
use rankmpi_core::{Errhandler, Info, RankMpiError, Universe, ANY_SOURCE, ANY_TAG};
use rankmpi_fabric::{FaultPlan, ResilConfig};
use rankmpi_vtime::Nanos;

const SWEEP: u64 = 4;
const ROUNDS: u64 = 16;

/// Ping-pong over a 5% drop + 30% flap fabric: every payload arrives
/// exactly once, in order, and the protocol actually retransmitted
/// (otherwise the plan was not exercising the lossy path at all).
#[test]
fn pingpong_over_lossy_fabric_is_exactly_once_in_order() {
    let mut retransmits = 0u64;
    for s in 0..SWEEP {
        let plan = FaultPlan::lossy(base_seed() ^ 0xC0DE ^ (s << 9));
        let u = Universe::builder()
            .nodes(2)
            .fault_plan(plan)
            .build_checked();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                for i in 0..ROUNDS {
                    world.send(&mut th, 1, 7, &[i as u8; 24]).unwrap();
                    let (_st, data) = world.recv(&mut th, 1, 8).unwrap();
                    assert_eq!(
                        data.as_ref(),
                        [(i as u8) ^ 0xFF; 24],
                        "reply {i} corrupted or reordered (sweep {s})"
                    );
                }
            } else {
                for i in 0..ROUNDS {
                    let (_st, data) = world.recv(&mut th, 0, 7).unwrap();
                    assert_eq!(
                        data.as_ref(),
                        [i as u8; 24],
                        "message {i} lost, duplicated, or reordered \
                         (sweep {s})"
                    );
                    world.send(&mut th, 0, 8, &[(i as u8) ^ 0xFF; 24]).unwrap();
                }
            }
        });
        for r in 0..2 {
            let mb = u.shared().proc(r).vci(0).mailbox().clone();
            let rep = mb.resil().expect("lossy plan must arm resil").report();
            assert_eq!(rep.exhausted, 0, "retry budget must not run out here");
            retransmits += rep.retransmits;
        }
    }
    assert!(
        retransmits > 0,
        "a {SWEEP}-seed sweep over a 5% drop fabric never retransmitted: \
         the lossy path is not being exercised"
    );
}

/// Partitioned transfers under the lossy plan: `parrived` is never true
/// before the matching `pready` (happens-before witness, same scheme as
/// the partitioned conformance suite) and every partition's payload
/// survives drop + flap episodes intact.
#[test]
fn parrived_never_before_pready_under_lossy_fabric() {
    const PARTS: usize = 8;
    const PART_BYTES: usize = 16;
    for s in 0..3u64 {
        let plan = FaultPlan::lossy(base_seed() ^ 0xF1A6 ^ (s << 4));
        let pready_at: Arc<Vec<AtomicU64>> =
            Arc::new((0..PARTS).map(|_| AtomicU64::new(u64::MAX)).collect());
        let u = Universe::builder()
            .nodes(2)
            .num_vcis(2)
            .fault_plan(plan)
            .build_checked();
        let pready_at_ref = &pready_at;
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let sreq = world
                    .psend_init(&mut th, 1, 3, PARTS, PART_BYTES, &Info::new())
                    .unwrap();
                sreq.start(&mut th).unwrap();
                for p in 0..PARTS {
                    // Stamp strictly before pready: the packet cannot be
                    // visible remotely while the sentinel is in place.
                    pready_at_ref[p].store(th.clock.now().0, Ordering::SeqCst);
                    sreq.pready(&mut th, p, &[(p as u8) ^ 0x33; PART_BYTES])
                        .unwrap();
                }
                sreq.wait(&mut th).unwrap();
            } else {
                let rreq = world
                    .precv_init(&mut th, 0, 3, PARTS, PART_BYTES, &Info::new())
                    .unwrap();
                rreq.start(&mut th).unwrap();
                let mut arrived = [false; PARTS];
                while arrived.iter().any(|a| !a) {
                    for p in 0..PARTS {
                        if arrived[p] || !rreq.parrived(&mut th, p).unwrap() {
                            continue;
                        }
                        assert_ne!(
                            pready_at_ref[p].load(Ordering::SeqCst),
                            u64::MAX,
                            "parrived({p}) true before pready({p}) under loss \
                             (sweep {s})"
                        );
                        assert_eq!(
                            rreq.read_partition(p),
                            vec![(p as u8) ^ 0x33; PART_BYTES],
                            "partition {p} corrupted by the lossy fabric"
                        );
                        arrived[p] = true;
                    }
                }
                rreq.wait(&mut th).unwrap();
            }
        });
    }
}

/// Total loss with a tight retry budget: the protocol gives up after
/// `max_retries`, the poisoned completion reaches the posted receive,
/// and `ErrorsReturn` turns it into `Err(RetriesExhausted)` on both
/// ranks — no panic and no hang.
#[test]
fn capped_retries_surface_retries_exhausted_without_hanging() {
    for s in 0..SWEEP {
        let plan = FaultPlan::new(base_seed() ^ 0xDEAD ^ s).drops(1.0);
        let u = Universe::builder()
            .nodes(2)
            .fault_plan(plan)
            .resil(ResilConfig {
                max_retries: 3,
                ..ResilConfig::default()
            })
            .build_checked();
        u.run(|env| {
            let world = env.world();
            world.set_errhandler(Errhandler::ErrorsReturn);
            let mut th = env.single_thread();
            let peer = 1 - env.rank();
            world.send(&mut th, peer, 5, b"doomed").unwrap();
            // recv_timeout as a hang backstop: the failure must arrive
            // as a completed-with-error request long before this expires.
            let got = world.recv_timeout(&mut th, peer as i64, 5, Duration::from_secs(20));
            match got {
                Err(RankMpiError::RetriesExhausted { src, attempts }) => {
                    assert_eq!(src as usize, peer);
                    assert!(attempts > 3, "attempts must count the initial try");
                }
                other => panic!(
                    "expected RetriesExhausted from rank {peer}, got {other:?} \
                     (sweep {s})"
                ),
            }
        });
        for r in 0..2 {
            let rep = u
                .shared()
                .proc(r)
                .vci(0)
                .mailbox()
                .resil()
                .expect("drop plan must arm resil")
                .report();
            assert!(
                rep.exhausted >= 1,
                "exhaustion counter must record the give-up"
            );
        }
    }
}

/// A receive whose message never comes: `recv_timeout` returns
/// `Err(Timeout)` after the (real-time) bound instead of spinning
/// forever, and the timeout bypasses the error handler (it is a caller
/// decision, not a communicator fault).
#[test]
fn recv_timeout_expires_on_a_message_that_never_comes() {
    let u = Universe::builder().nodes(2).build_checked();
    u.run(|env| {
        if env.rank() == 1 {
            let world = env.world();
            let mut th = env.single_thread();
            let got = world.recv_timeout(&mut th, 0, 99, Duration::from_millis(40));
            match got {
                Err(RankMpiError::Timeout { waited_ms }) => {
                    assert!(waited_ms >= 40, "reported wait shorter than the bound");
                }
                other => panic!("expected Timeout, got {other:?}"),
            }
        }
    });
}

/// Mid-run hardware-context failure: rank 0 loses its context between
/// rounds; the next send remaps the VCI onto a replacement context and
/// every in-flight and subsequent payload still arrives exactly once.
#[test]
fn mid_run_context_failure_remaps_live_without_losing_traffic() {
    let plan = FaultPlan::lossy(base_seed() ^ 0xFA11);
    let u = Universe::builder()
        .nodes(2)
        .fault_plan(plan)
        .build_checked();
    let shared = Arc::clone(u.shared());
    let shared_ref = &shared;
    u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        if env.rank() == 0 {
            for i in 0..ROUNDS {
                if i == ROUNDS / 2 {
                    // Pull the context out from under our own VCI; the
                    // very next send must detect and remap.
                    let ctx = shared_ref.proc(0).vci(0).hw_context();
                    assert!(
                        shared_ref.fail_context(0, ctx.id()),
                        "failed to mark context {} down",
                        ctx.id()
                    );
                }
                world.send(&mut th, 1, 11, &[i as u8; 32]).unwrap();
            }
        } else {
            for i in 0..ROUNDS {
                let (_st, data) = world.recv(&mut th, 0, 11).unwrap();
                assert_eq!(
                    data.as_ref(),
                    [i as u8; 32],
                    "message {i} lost or reordered across the failover"
                );
            }
        }
    });
    let vci = shared.proc(0).vci(0);
    assert!(
        vci.failovers() >= 1,
        "context failure never triggered a live remap"
    );
    assert!(
        !vci.hw_context().is_failed(),
        "VCI still bound to the failed context after the run"
    );
}

/// GVT pruning under composed faults, in both launch modes: a lossy and
/// delaying fabric (so packets sit in retransmit timelines, delayed and
/// reordered stamps, and spurious copies the mailbox must drop) and a
/// mid-run context failure whose replacement inherits the failed
/// context's backlog. Every payload arrives exactly once and in order,
/// history is pruned, and no request falls below a pruned horizon — the
/// holders of stamps outside the rings are covered.
#[test]
fn pruned_history_survives_loss_delay_and_failover() {
    const WINDOW: u64 = 64;
    const WINDOWS: u64 = 48;
    const CREDIT_TAG: i64 = 1 << 20;
    for launch in launch_modes_under_test() {
        let plan = FaultPlan::lossy(base_seed() ^ 0x6A7).delays(0.2, Nanos::us(3));
        let u = Universe::builder()
            .nodes(2)
            .fault_plan(plan)
            .launch(launch)
            .build_checked();
        let shared = Arc::clone(u.shared());
        let shared_ref = &shared;
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            for w in 0..WINDOWS {
                if env.rank() == 0 {
                    world.recv(&mut th, 1, CREDIT_TAG).unwrap();
                    if w == WINDOWS / 2 {
                        let ctx = shared_ref.proc(0).vci(0).hw_context();
                        assert!(shared_ref.fail_context(0, ctx.id()));
                    }
                    for i in 0..WINDOW {
                        let n = w * WINDOW + i;
                        world.send(&mut th, 1, 11, &n.to_le_bytes()).unwrap();
                    }
                } else {
                    world.send(&mut th, 0, CREDIT_TAG, b"").unwrap();
                    for i in 0..WINDOW {
                        let (_st, data) = world.recv(&mut th, 0, 11).unwrap();
                        assert_eq!(
                            data.as_ref(),
                            (w * WINDOW + i).to_le_bytes(),
                            "{launch:?}: message lost, duplicated or reordered"
                        );
                    }
                }
            }
            if env.rank() == 1 {
                let extra = world.iprobe(&mut th, ANY_SOURCE, ANY_TAG).unwrap();
                assert!(extra.is_none(), "{launch:?}: a copy was delivered twice");
            }
        });
        let vci = shared.proc(0).vci(0);
        assert!(vci.failovers() >= 1, "{launch:?}: no failover");
        let resil = shared.proc(1).vci(0).mailbox().resil().unwrap().report();
        assert!(
            resil.retransmits > 0,
            "{launch:?}: nothing was retransmitted"
        );
        // Every resource opened chunks, and GVT moved: without pruning the
        // busiest would hold an interval or more per message.
        let peak = shared.gvt().peak_history();
        assert!(
            (512..=5 * 512).contains(&peak),
            "{launch:?}: peak live history {peak}"
        );
        assert_eq!(shared.below_horizon(), 0, "{launch:?}");
    }
}
