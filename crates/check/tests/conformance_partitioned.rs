//! Partitioned-communication conformance: `Parrived` is never true before
//! the matching `Pready`, and partition payloads survive fault injection.
//!
//! The "never before" claim is checked with a happens-before witness: the
//! sender stamps a per-partition atomic with its virtual `pready` time
//! *before* calling `pready` (sentinel `u64::MAX` until then). The packet
//! only becomes visible to the receiver through the mailbox mutex, so if
//! `parrived(part)` returns true while the sentinel is still in place, the
//! receiver observed a partition that was never made ready — a real
//! ordering bug, not a benign race. The receiver additionally checks that
//! its virtual time at the first true `parrived` is not earlier than the
//! sender's `pready` stamp.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::{rngs::StdRng, SeedableRng};
use rankmpi_check::{base_seed, BuildChecked};
use rankmpi_core::{Info, Universe};
use rankmpi_fabric::FaultPlan;

const PARTS: usize = 8;
const PART_BYTES: usize = 16;

#[test]
fn parrived_never_true_before_pready() {
    for s in 0..3u64 {
        let plan = FaultPlan::chaos(base_seed() ^ 0x9A11 ^ (s << 5));
        let pready_at: Arc<Vec<AtomicU64>> =
            Arc::new((0..PARTS).map(|_| AtomicU64::new(u64::MAX)).collect());
        let order: Vec<usize> = {
            let mut o: Vec<usize> = (0..PARTS).collect();
            let mut rng = StdRng::seed_from_u64(base_seed() ^ (s << 3) ^ 0x01de);
            o.shuffle(&mut rng);
            o
        };
        let u = Universe::builder()
            .nodes(2)
            .num_vcis(2)
            .fault_plan(plan)
            .build_checked();
        let pready_at_ref = &pready_at;
        let order_ref = &order;
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let sreq = world
                    .psend_init(&mut th, 1, 3, PARTS, PART_BYTES, &Info::new())
                    .unwrap();
                sreq.start(&mut th).unwrap();
                for &p in order_ref.iter() {
                    // Stamp strictly before pready: the packet cannot be
                    // visible remotely while the sentinel is in place.
                    pready_at_ref[p].store(th.clock.now().0, Ordering::SeqCst);
                    sreq.pready(&mut th, p, &[(p as u8) ^ 0x5A; PART_BYTES])
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
                        let stamp = pready_at_ref[p].load(Ordering::SeqCst);
                        assert_ne!(
                            stamp,
                            u64::MAX,
                            "parrived({p}) true before pready({p}) was ever called \
                             (sweep {s})"
                        );
                        assert!(
                            th.clock.now().0 >= stamp,
                            "parrived({p}) at virtual {} but pready stamped {stamp}",
                            th.clock.now().0
                        );
                        assert_eq!(
                            rreq.read_partition(p),
                            vec![(p as u8) ^ 0x5A; PART_BYTES],
                            "partition {p} payload corrupted"
                        );
                        arrived[p] = true;
                    }
                }
                rreq.wait(&mut th).unwrap();
            }
        });
    }
}

#[test]
fn shuffled_pready_order_delivers_every_partition_intact() {
    // pready in a different shuffled order each sweep, under a chaotic
    // fabric; wait() must return every partition's bytes exactly.
    for s in 0..4u64 {
        let plan = FaultPlan::chaos(base_seed() ^ 0x9A27 ^ s);
        let order: Vec<usize> = {
            let mut o: Vec<usize> = (0..PARTS).collect();
            let mut rng = StdRng::seed_from_u64(base_seed() ^ (s << 7) ^ 0xFEED);
            o.shuffle(&mut rng);
            o
        };
        let u = Universe::builder()
            .nodes(2)
            .num_vcis(2)
            .fault_plan(plan)
            .build_checked();
        let order_ref = &order;
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let sreq = world
                    .psend_init(&mut th, 1, 9, PARTS, PART_BYTES, &Info::new())
                    .unwrap();
                for round in 0..2u8 {
                    sreq.start(&mut th).unwrap();
                    for &p in order_ref.iter() {
                        sreq.pready(&mut th, p, &[p as u8 + round * 100; PART_BYTES])
                            .unwrap();
                    }
                    sreq.wait(&mut th).unwrap();
                }
            } else {
                let rreq = world
                    .precv_init(&mut th, 0, 9, PARTS, PART_BYTES, &Info::new())
                    .unwrap();
                for round in 0..2u8 {
                    rreq.start(&mut th).unwrap();
                    let data = rreq.wait(&mut th).unwrap();
                    for p in 0..PARTS {
                        assert_eq!(
                            data[p * PART_BYTES],
                            p as u8 + round * 100,
                            "partition {p} wrong in round {round} (sweep {s})"
                        );
                    }
                }
            }
        });
    }
}
