//! End-to-end stream runs: every topology × every mechanism, plus
//! backpressure and feedback behavior.

use rankmpi_core::{EngineKind, LaunchMode};
use rankmpi_fabric::FaultPlan;
use rankmpi_stream::{run_stream, Mechanism, StreamConfig, Topology};
use rankmpi_vtime::Nanos;

fn quick(topology: Topology, mechanism: Mechanism) -> StreamConfig {
    StreamConfig {
        topology,
        mechanism,
        items: 48,
        item_bytes: 128,
        credits: 16,
        credit_batch: 4,
        work: Nanos::us(1),
        seed: 7,
        ..StreamConfig::default()
    }
}

fn assert_clean(rep: &rankmpi_stream::StreamReport) {
    assert!(rep.verified, "{}/{} failed", rep.topology, rep.mechanism);
    assert_eq!(rep.delivered, rep.items);
    assert_eq!(rep.latencies_ns.len(), rep.items as usize);
    assert!(rep.elapsed > Nanos::ZERO);
    assert!(rep.latencies_ns.iter().all(|&l| l > 0));
}

#[test]
fn pipeline_runs_over_every_mechanism() {
    for mech in Mechanism::ALL {
        let cfg = quick(
            Topology::Pipeline {
                stages: 3,
                threads: 2,
            },
            mech,
        );
        assert_clean(&run_stream(&cfg));
    }
}

#[test]
fn farm_runs_over_every_mechanism() {
    for mech in Mechanism::ALL {
        let cfg = quick(
            Topology::Farm {
                workers: 3,
                threads: 2,
            },
            mech,
        );
        assert_clean(&run_stream(&cfg));
    }
}

#[test]
fn farm_feedback_reprocesses_selected_items() {
    for mech in Mechanism::ALL {
        let topo = Topology::FarmFeedback {
            workers: 2,
            threads: 2,
            feedback_permille: 250,
        };
        let cfg = quick(topo, mech);
        let rep = run_stream(&cfg);
        assert_clean(&rep);
        let expected = topo.selected_count(cfg.seed, cfg.items);
        assert!(expected > 0, "25% of 48 items must select some");
        assert_eq!(rep.feedback_items, expected, "{mech:?}");
    }
}

#[test]
fn tiny_credit_window_stalls_but_completes() {
    let cfg = StreamConfig {
        credits: 2,
        credit_batch: 1,
        ..quick(
            Topology::Farm {
                workers: 2,
                threads: 2,
            },
            Mechanism::TagsVci,
        )
    };
    let rep = run_stream(&cfg);
    assert_clean(&rep);
    assert!(
        rep.credit_stalls > 0,
        "2 credits against 48 items must starve the emitter"
    );
    assert!(rep.credit_stall_ns > 0);
    // +1: the in-order head is accepted even at capacity.
    assert!(rep.reorder_peak <= cfg.credits as usize + 1);
}

#[test]
fn wide_credit_window_streams_without_stalling() {
    let cfg = StreamConfig {
        credits: 64,
        ..quick(
            Topology::Farm {
                workers: 2,
                threads: 2,
            },
            Mechanism::TagsVci,
        )
    };
    let rep = run_stream(&cfg);
    assert_clean(&rep);
    assert_eq!(rep.credit_stalls, 0, "48 items fit a 64-credit window");
}

#[test]
fn lossy_fabric_still_delivers_exactly_once_in_order() {
    for mech in [
        Mechanism::Baseline,
        Mechanism::TagsVci,
        Mechanism::Endpoints,
    ] {
        let cfg = StreamConfig {
            fault_plan: Some(FaultPlan::new(0xB0B).drops(0.05)),
            ..quick(
                Topology::Farm {
                    workers: 2,
                    threads: 2,
                },
                mech,
            )
        };
        assert_clean(&run_stream(&cfg));
    }
}

#[test]
fn stragglers_inflate_tail_latency_not_correctness() {
    let base = quick(
        Topology::Farm {
            workers: 2,
            threads: 2,
        },
        Mechanism::TagsVci,
    );
    let clean = run_stream(&base);
    let cfg = StreamConfig {
        fault_plan: Some(FaultPlan::new(0xC0FFEE).stragglers(0.2, Nanos(50_000), Nanos(5_000_000))),
        ..base
    };
    let straggled = run_stream(&cfg);
    assert_clean(&clean);
    assert_clean(&straggled);
    let p99 = |v: &[u64]| {
        let mut s = v.to_vec();
        s.sort_unstable();
        s[(s.len() * 99)
            .div_ceil(100)
            .saturating_sub(1)
            .min(s.len() - 1)]
    };
    assert!(
        p99(&straggled.latencies_ns) > p99(&clean.latencies_ns),
        "heavy-tail stragglers must show up in p99: {} vs {}",
        p99(&straggled.latencies_ns),
        p99(&clean.latencies_ns)
    );
}

#[test]
fn task_mode_matches_thread_mode_delivery() {
    for launch in [LaunchMode::Threads, LaunchMode::Tasks(Default::default())] {
        let cfg = StreamConfig {
            launch,
            ..quick(
                Topology::Pipeline {
                    stages: 2,
                    threads: 2,
                },
                Mechanism::Baseline,
            )
        };
        assert_eq!(
            cfg.matching,
            EngineKind::default(),
            "streams run the engine a default universe gets"
        );
        assert_clean(&run_stream(&cfg));
    }
}
