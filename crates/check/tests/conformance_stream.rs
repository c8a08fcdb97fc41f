//! Stream-delivery conformance: exactly-once, in-order delivery must
//! survive everything the harness can throw at it.
//!
//! Three attack surfaces:
//!
//! - **Fabric faults**: whole-universe stream runs under chaos and lossy
//!   fault plans (drops, duplicates, reordering, NACKs, heavy-tail
//!   stragglers), swept over fault seeds, every mechanism, and both
//!   launch modes. The collector's internal checks
//!   panic on any duplicate, gap, out-of-order emission, or corrupted
//!   provenance, so a clean `verified` report is the conformance claim.
//! - **Thread schedules**: the reorder buffer's exactly-once/in-order
//!   contract is explored across interleavings of concurrent producers and
//!   a draining consumer with [`explore`].
//! - **Backpressure**: a one-credit window — the tightest legal
//!   configuration — must still complete under faults (the collector's
//!   idle-flush of partial credit batches is what makes it deadlock-free).
//!
//! Seeds derive from `RANKMPI_CHECK_SEED`.

use std::sync::Arc;

use parking_lot::Mutex;
use rankmpi_check::{base_seed, explore, ExploreConfig, Task};
use rankmpi_core::LaunchMode;
use rankmpi_fabric::FaultPlan;
use rankmpi_stream::{run_stream, Mechanism, ReorderBuffer, StreamConfig, Topology};
use rankmpi_vtime::sched::{yield_point, SchedPoint};
use rankmpi_vtime::Nanos;

const SWEEP: u64 = 2;

fn conf(topology: Topology, mechanism: Mechanism) -> StreamConfig {
    StreamConfig {
        topology,
        mechanism,
        items: 32,
        item_bytes: 96,
        credits: 8,
        credit_batch: 2,
        work: Nanos::us(1),
        seed: base_seed() ^ 0xA11CE,
        ..StreamConfig::default()
    }
}

fn assert_exact(rep: &rankmpi_stream::StreamReport, ctx: &str) {
    assert!(rep.verified, "delivery not verified: {ctx}");
    assert_eq!(rep.delivered, rep.items, "{ctx}");
    assert_eq!(rep.latencies_ns.len(), rep.items as usize, "{ctx}");
}

#[test]
fn farm_is_exactly_once_under_chaos_every_mechanism() {
    for s in 0..SWEEP {
        for mech in Mechanism::ALL {
            let cfg = StreamConfig {
                fault_plan: Some(FaultPlan::chaos(base_seed() ^ 0x51AE ^ (s << 9))),
                ..conf(
                    Topology::Farm {
                        workers: 2,
                        threads: 2,
                    },
                    mech,
                )
            };
            let rep = run_stream(&cfg);
            assert_exact(&rep, &format!("chaos, seed {s}, {}", mech.label()));
        }
    }
}

#[test]
fn pipeline_is_exactly_once_under_loss_and_stragglers_both_launch_modes() {
    for launch in [LaunchMode::Threads, LaunchMode::Tasks(Default::default())] {
        for s in 0..SWEEP {
            let plan = FaultPlan::new(base_seed() ^ 0xF10D ^ s)
                .drops(0.05)
                .stragglers(0.1, Nanos(30_000), Nanos(2_000_000));
            let cfg = StreamConfig {
                launch,
                fault_plan: Some(plan),
                ..conf(
                    Topology::Pipeline {
                        stages: 2,
                        threads: 2,
                    },
                    Mechanism::TagsVci,
                )
            };
            let rep = run_stream(&cfg);
            assert_exact(&rep, &format!("lossy, {launch:?}, seed {s}"));
        }
    }
}

#[test]
fn feedback_items_loop_exactly_once_under_chaos() {
    let topo = Topology::FarmFeedback {
        workers: 2,
        threads: 2,
        feedback_permille: 300,
    };
    let cfg = StreamConfig {
        fault_plan: Some(FaultPlan::chaos(base_seed() ^ 0xFEEDB)),
        ..conf(topo, Mechanism::Baseline)
    };
    let rep = run_stream(&cfg);
    assert_exact(&rep, "feedback chaos");
    assert_eq!(
        rep.feedback_items,
        topo.selected_count(cfg.seed, cfg.items),
        "every selected item must loop exactly once"
    );
}

#[test]
fn one_credit_window_is_deadlock_free_under_loss() {
    let cfg = StreamConfig {
        credits: 1,
        credit_batch: 1,
        items: 12,
        fault_plan: Some(FaultPlan::new(base_seed() ^ 0x1C4ED).drops(0.05)),
        ..conf(
            Topology::Farm {
                workers: 2,
                threads: 1,
            },
            Mechanism::Baseline,
        )
    };
    let rep = run_stream(&cfg);
    assert_exact(&rep, "one credit");
    assert!(
        rep.credit_stalls > 0,
        "a one-credit window must stall the emitter"
    );
}

#[test]
fn reorder_buffer_is_exactly_once_across_explored_schedules() {
    let cfg = ExploreConfig {
        depth: 6,
        max_exhaustive: 200,
        random_samples: 16,
        ..ExploreConfig::with_seed(base_seed() ^ 0x4EB0)
    };
    explore("stream_reorder_exactly_once", &cfg, || {
        const N: u64 = 6;
        let rb = Arc::new(Mutex::new(ReorderBuffer::new(N as usize)));
        let out: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

        // Two producers push disjoint out-of-order halves of the sequence.
        let producer = |seqs: &'static [u64], rb: Arc<Mutex<ReorderBuffer<u64>>>| -> Task {
            Box::new(move || {
                for &s in seqs {
                    yield_point(SchedPoint::Custom("push"));
                    rb.lock().push(s, s).expect("capacity covers all items");
                }
            })
        };
        // The consumer drains whatever run is ready after each step.
        let consumer: Task = {
            let rb = Arc::clone(&rb);
            let out = Arc::clone(&out);
            Box::new(move || {
                loop {
                    yield_point(SchedPoint::Custom("drain"));
                    let mut rb = rb.lock();
                    let mut out = out.lock();
                    while let Some((seq, v)) = rb.pop_next() {
                        assert_eq!(seq, v);
                        assert_eq!(
                            out.last().map(|&l| l + 1).unwrap_or(0),
                            seq,
                            "out-of-order emission"
                        );
                        out.push(seq);
                    }
                    if out.len() == N as usize {
                        break;
                    }
                }
                assert_eq!(*out.lock(), (0..N).collect::<Vec<_>>());
            })
        };
        vec![
            producer(&[1, 3, 0], Arc::clone(&rb)),
            producer(&[2, 5, 4], Arc::clone(&rb)),
            consumer,
        ]
    });
}
