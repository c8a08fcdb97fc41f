//! Property: the failure detector has **no false positives**. A fabric
//! that is merely slow (heavy-tail stragglers) or lossy (20% drops, with
//! the reliability protocol retransmitting underneath) — but has no crash
//! plan — must never surface `ProcessFailed` or `Revoked`: those verdicts
//! are reserved for ranks that actually died. Late is not dead.

use std::time::Duration;

use proptest::prelude::*;
use rankmpi_check::{base_seed, BuildChecked};
use rankmpi_core::{Errhandler, RankMpiError, Universe};
use rankmpi_fabric::{FaultPlan, ResilConfig};
use rankmpi_vtime::Nanos;

const ROUNDS: u32 = 8;

/// Ring exchange over `plan`: every op must resolve without a
/// fault-tolerance verdict (the fabric is slow or lossy, never dead).
fn assert_no_ft_verdicts(plan: FaultPlan, what: &str) {
    let u = Universe::builder()
        .nodes(3)
        .fault_plan(plan.clone())
        .resil(ResilConfig {
            // Generous budget: a 20%-loss fabric must exhaust neither
            // retries nor our patience, and exhaustion is a different
            // verdict than death anyway.
            max_retries: 64,
            ..ResilConfig::default()
        })
        .build_checked();
    u.run(|env| {
        let world = env.world();
        world.set_errhandler(Errhandler::ErrorsReturn);
        let mut th = env.single_thread();
        let p = world.size();
        let next = (env.rank() + 1) % p;
        let prev = (env.rank() + p - 1) % p;
        for i in 0..ROUNDS {
            world
                .send(&mut th, next, 3, &i.to_le_bytes())
                .unwrap_or_else(|e| panic!("send {i} failed over {what}: {e:?}"));
            // recv_timeout as a real-time hang backstop only; the
            // assertion is about *which* error, never about time.
            match world.recv_timeout(&mut th, prev as i64, 3, Duration::from_secs(30)) {
                Ok((_st, data)) => {
                    assert_eq!(data[..4], i.to_le_bytes(), "payload survived {what}");
                }
                Err(e @ (RankMpiError::ProcessFailed { .. } | RankMpiError::Revoked { .. })) => {
                    panic!(
                        "false positive over {what}: {e:?} \
                         with no crash plan armed"
                    )
                }
                Err(e) => panic!("round {i} failed over {what}: {e:?}"),
            }
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Straggler-only fabric: up to 60% of packets take a heavy-tail
    /// delay. Slow must never be diagnosed as dead.
    #[test]
    fn stragglers_are_never_diagnosed_as_dead(seed in any::<u64>(), permille in 0u64..600) {
        let plan = FaultPlan::new(seed ^ base_seed())
            .stragglers(permille as f64 / 1000.0, Nanos(20_000), Nanos(500_000));
        assert_no_ft_verdicts(plan, "a straggler fabric");
    }

    /// 20%-loss fabric: the reliability protocol retransmits underneath;
    /// the detector must stay silent while it does.
    #[test]
    fn packet_loss_is_never_diagnosed_as_death(seed in any::<u64>()) {
        let plan = FaultPlan::new(seed ^ base_seed()).drops(0.2);
        assert_no_ft_verdicts(plan, "a 20%-loss fabric");
    }
}
