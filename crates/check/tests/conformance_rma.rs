//! RMA epoch-visibility conformance under fault injection.
//!
//! The one-sided contract: operations issued inside an access epoch become
//! visible at the target only after the epoch-closing synchronization
//! (`flush` for passive target, `fence` for active target) — and *all* of
//! them are visible then, regardless of what the fabric did to the
//! underlying packets. Runs under a sweep of fault seeds.

use rankmpi_check::{base_seed, BuildChecked};
use rankmpi_core::{Info, ReduceOp, Universe, Window};
use rankmpi_fabric::FaultPlan;

#[test]
fn fence_makes_the_whole_epoch_visible() {
    for s in 0..3u64 {
        let plan = FaultPlan::chaos(base_seed() ^ 0x43A ^ (s << 9));
        let u = Universe::builder()
            .nodes(2)
            .num_vcis(2)
            .fault_plan(plan)
            .build_checked();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let win = Window::create(&world, &mut th, 256, &Info::new()).unwrap();
            if env.rank() == 0 {
                // One epoch: scattered puts plus accumulates, then fence.
                for i in 0..8usize {
                    win.put(&mut th, 1, i * 16, &[i as u8 + 1; 8]).unwrap();
                }
                for _ in 0..4 {
                    win.accumulate(&mut th, 1, 128, &[1.0], ReduceOp::Sum)
                        .unwrap();
                }
                win.fence(&mut th).unwrap();
            } else {
                win.fence(&mut th).unwrap();
                // Epoch closed on both sides: everything must be there.
                for i in 0..8usize {
                    assert_eq!(
                        win.read_local(i * 16, 1).unwrap(),
                        vec![i as u8 + 1],
                        "put {i} invisible after fence (sweep {s})"
                    );
                }
                assert_eq!(
                    win.read_local_f64(128, 1).unwrap(),
                    vec![4.0],
                    "accumulates lost under faults (sweep {s})"
                );
            }
        });
    }
}

#[test]
fn flush_orders_get_after_put() {
    // Passive-target epoch: put, flush, then a get on the *same* offset must
    // observe the flushed value even on a faulty fabric.
    let plan = FaultPlan::chaos(base_seed() ^ 0xF1054);
    let u = Universe::builder()
        .nodes(2)
        .fault_plan(plan)
        .build_checked();
    u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        let win = Window::create(&world, &mut th, 64, &Info::new()).unwrap();
        if env.rank() == 0 {
            win.put(&mut th, 1, 0, &[0xAB; 4]).unwrap();
            win.flush(&mut th, 1).unwrap();
            let got = win.get(&mut th, 1, 0, 4).unwrap();
            assert_eq!(got, vec![0xAB; 4], "get overtook flushed put");
        }
        win.fence(&mut th).unwrap();
        if env.rank() == 1 {
            assert_eq!(win.read_local(0, 4).unwrap(), vec![0xAB; 4]);
        }
    });
}
