//! End-to-end point-to-point conformance under fabric fault injection.
//!
//! Whole-universe runs with a [`FaultPlan`] armed on every mailbox: packets
//! get delayed, legally reordered across channels, duplicated (then
//! deduplicated), and NACKed — and the MPI-visible ordering guarantees must
//! be unaffected:
//!
//! - per-`(comm, src, tag)` non-overtaking: messages on one channel are
//!   received in send order;
//! - wildcard receives (`ANY_SOURCE`/`ANY_TAG`) still observe each source's
//!   stream in order;
//! - payloads arrive intact, exactly once.
//!
//! Each test sweeps fault seeds derived from `RANKMPI_CHECK_SEED`.

use rankmpi_check::{base_seed, BuildChecked};
use rankmpi_core::{Universe, ANY_SOURCE, ANY_TAG};
use rankmpi_fabric::FaultPlan;

const SWEEP: u64 = 4;

#[test]
fn per_channel_order_survives_fault_injection() {
    for s in 0..SWEEP {
        let plan = FaultPlan::chaos(base_seed() ^ (0x9e37 << 16) ^ s);
        let u = Universe::builder()
            .nodes(2)
            .fault_plan(plan)
            .build_checked();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            const N: u8 = 40;
            if env.rank() == 0 {
                for i in 0..N {
                    world.send(&mut th, 1, 7, &[i, i.wrapping_mul(3)]).unwrap();
                }
            } else {
                for i in 0..N {
                    let (st, data) = world.recv(&mut th, 0, 7).unwrap();
                    assert_eq!(st.source, 0);
                    assert_eq!(
                        &data[..],
                        &[i, i.wrapping_mul(3)],
                        "message overtook on (src 0, tag 7): fault seed {s}"
                    );
                }
            }
        });
    }
}

#[test]
fn wildcard_receives_keep_each_source_in_order() {
    for s in 0..SWEEP {
        let plan = FaultPlan::chaos(base_seed() ^ 0x3b1 ^ (s << 8));
        let u = Universe::builder()
            .nodes(3)
            .fault_plan(plan)
            .build_checked();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            const PER_SRC: u8 = 20;
            if env.rank() == 0 {
                let mut next = [0u8; 3];
                for _ in 0..2 * PER_SRC as usize {
                    let (st, data) = world.recv(&mut th, ANY_SOURCE, ANY_TAG).unwrap();
                    let src = st.source;
                    assert!(src == 1 || src == 2, "unexpected source {src}");
                    assert_eq!(
                        data[0], next[src],
                        "wildcard stream out of order for source {src} \
                         (fault seed {s})"
                    );
                    assert_eq!(data[1], src as u8, "payload/source mismatch");
                    next[src] += 1;
                }
                assert_eq!(next[1], PER_SRC);
                assert_eq!(next[2], PER_SRC);
            } else {
                for i in 0..PER_SRC {
                    world
                        .send(&mut th, 0, env.rank() as i64, &[i, env.rank() as u8])
                        .unwrap();
                }
            }
        });
    }
}

#[test]
fn fault_plans_are_armed_and_actually_fire() {
    // Guard against the suite silently testing a fault-free fabric: after a
    // chaos run, the receiving mailboxes must report injected faults.
    let plan = FaultPlan::chaos(base_seed() ^ 0xF1FE);
    let u = Universe::builder()
        .nodes(2)
        .fault_plan(plan)
        .build_checked();
    u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        if env.rank() == 0 {
            for i in 0..60u8 {
                world.send(&mut th, 1, 1, &[i; 16]).unwrap();
            }
        } else {
            for i in 0..60u8 {
                let (_s, d) = world.recv(&mut th, 0, 1).unwrap();
                assert_eq!(d[0], i);
            }
        }
    });
    let report = u.shared().proc(1).vci(0).mailbox().fault_report();
    let r = report.expect("fault plan must be armed on every mailbox");
    assert!(
        r.delays + r.dups_injected + r.nacks + r.reorders > 0,
        "chaos plan injected nothing across 60 messages: {r:?}"
    );
}

#[test]
fn messages_are_delivered_exactly_once_under_duplication() {
    // A duplicate-heavy plan: if mailbox dedup ever leaked a copy, the
    // second receive of a payload would observe it again (and the final
    // probe would find a stray message).
    let plan = FaultPlan::new(base_seed() ^ 0xD0D0)
        .duplicates(0.6)
        .delays(0.3, rankmpi_vtime::Nanos(1500));
    let u = Universe::builder()
        .nodes(2)
        .fault_plan(plan)
        .build_checked();
    u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        const N: u8 = 30;
        if env.rank() == 0 {
            for i in 0..N {
                world.send(&mut th, 1, i as i64, &[i]).unwrap();
            }
            let (_s, done) = world.recv(&mut th, 1, 999).unwrap();
            assert_eq!(&done[..], b"done");
        } else {
            for i in 0..N {
                let (_s, data) = world.recv(&mut th, 0, i as i64).unwrap();
                assert_eq!(&data[..], &[i]);
            }
            // No duplicate survived: nothing further is in flight.
            assert!(
                world
                    .iprobe(&mut th, ANY_SOURCE, ANY_TAG)
                    .unwrap()
                    .is_none(),
                "a duplicated packet leaked past mailbox dedup"
            );
            world.send(&mut th, 0, 999, b"done").unwrap();
        }
    });
}
