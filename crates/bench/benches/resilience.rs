//! Resilience: goodput vs packet loss, and the cost of a live context
//! failover.
//!
//! A fixed ping-pong workload (two ranks, 256 rounds, 64-byte payloads)
//! runs over fabrics with increasing loss — 0%, 1%, 5%, and 20% wire
//! drops, the last tier with link flapping layered on top. Midway through
//! every run rank 0's hardware context is marked failed, so each tier also
//! exercises the live VCI remap. The table reports delivered payloads,
//! retransmissions, virtual completion time, and goodput relative to the
//! loss-free baseline; `BENCH_resilience.json` carries the same numbers
//! for regression tooling.

use rankmpi_bench::write_bench_json;
use rankmpi_bench::{print_table, ratio, takeaway};
use rankmpi_core::Universe;
use rankmpi_fabric::{FaultPlan, ResilReport};
use rankmpi_obs::json::Value;

const SEED: u64 = 0x5EED_0F1A;
const ROUNDS: u64 = 256;
const BYTES: usize = 64;

struct Tier {
    label: &'static str,
    loss: f64,
    plan: FaultPlan,
}

struct Outcome {
    label: &'static str,
    loss: f64,
    virtual_ns: u64,
    resil: ResilReport,
    failovers: u64,
    shared_allocs: u64,
}

fn run_tier(t: &Tier) -> Outcome {
    let u = Universe::builder()
        .nodes(2)
        .fault_plan(t.plan.clone())
        .build();
    let shared = std::sync::Arc::clone(u.shared());
    let shared_ref = &shared;
    let finish = u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        if env.rank() == 0 {
            for i in 0..ROUNDS {
                if i == ROUNDS / 2 {
                    let ctx = shared_ref.proc(0).vci(0).hw_context();
                    shared_ref.fail_context(0, ctx.id());
                }
                world.send(&mut th, 1, 1, &[i as u8; BYTES]).unwrap();
                let _ = world.recv(&mut th, 1, 2).unwrap();
            }
        } else {
            for i in 0..ROUNDS {
                let _ = world.recv(&mut th, 0, 1).unwrap();
                world.send(&mut th, 0, 2, &[i as u8; BYTES]).unwrap();
            }
        }
        th.clock.now().0
    });
    let mut resil = ResilReport::default();
    for r in 0..2 {
        if let Some(x) = shared.proc(r).vci(0).mailbox().resil() {
            let rep = x.report();
            resil.delivered += rep.delivered;
            resil.retransmits += rep.retransmits;
            resil.wire_drops += rep.wire_drops;
            resil.link_down_drops += rep.link_down_drops;
            resil.exhausted += rep.exhausted;
            resil.spurious_rexmit += rep.spurious_rexmit;
            resil.backpressure_waits += rep.backpressure_waits;
            resil.backpressure_ns += rep.backpressure_ns;
        }
    }
    Outcome {
        label: t.label,
        loss: t.loss,
        virtual_ns: finish.into_iter().max().unwrap_or(0),
        resil,
        failovers: shared.proc(0).vci(0).failovers(),
        shared_allocs: shared.nic(0).shared_allocs(),
    }
}

fn main() {
    let tiers = [
        Tier {
            label: "0% loss",
            loss: 0.0,
            plan: FaultPlan::new(SEED),
        },
        Tier {
            label: "1% loss",
            loss: 0.01,
            plan: FaultPlan::new(SEED).drops(0.01),
        },
        Tier {
            label: "5% loss",
            loss: 0.05,
            plan: FaultPlan::new(SEED).drops(0.05),
        },
        Tier {
            label: "20% loss + flap",
            loss: 0.20,
            plan: FaultPlan::new(SEED).drops(0.20).flaps(0.30, 8),
        },
    ];

    let outcomes: Vec<Outcome> = tiers.iter().map(run_tier).collect();
    let base_ns = outcomes[0].virtual_ns.max(1);

    let rows: Vec<Vec<String>> = outcomes
        .iter()
        .map(|o| {
            vec![
                o.label.to_string(),
                o.resil.delivered.to_string(),
                o.resil.retransmits.to_string(),
                (o.resil.wire_drops + o.resil.link_down_drops).to_string(),
                o.failovers.to_string(),
                format!("{:.3} ms", o.virtual_ns as f64 / 1e6),
                ratio(base_ns as f64, o.virtual_ns as f64),
            ]
        })
        .collect();
    print_table(
        "Resilience — ping-pong goodput vs wire loss (256 rounds, 64 B, live failover at round 128)",
        &[
            "fabric",
            "delivered",
            "retransmits",
            "attempts lost",
            "failovers",
            "virtual time",
            "goodput vs 0%",
        ],
        &rows,
    );

    let worst = outcomes.last().unwrap();
    takeaway(
        "paper: a lossy provider must not surface as lost messages (MPI promises reliable delivery)",
        &format!(
            "measured: {} retransmits absorbed {} lost attempts at 20% drop + flap; \
             every payload delivered, goodput {}",
            worst.resil.retransmits,
            worst.resil.wire_drops + worst.resil.link_down_drops,
            ratio(base_ns as f64, worst.virtual_ns as f64),
        ),
    );
    assert!(
        outcomes.iter().all(|o| o.resil.exhausted == 0),
        "default retry budget must survive every tier"
    );
    assert!(
        outcomes.iter().all(|o| o.failovers >= 1),
        "the mid-run context failure must trigger a live remap in every tier"
    );

    let json = Value::obj([
        ("workload", Value::str("pingpong")),
        ("rounds", Value::int(ROUNDS)),
        ("payload_bytes", Value::int(BYTES as u64)),
        ("failover_at_round", Value::int(ROUNDS / 2)),
        (
            "tiers",
            Value::Arr(
                outcomes
                    .iter()
                    .map(|o| {
                        Value::obj([
                            ("fabric", Value::str(o.label)),
                            ("drop_prob", Value::Num(o.loss)),
                            ("delivered", Value::int(o.resil.delivered)),
                            ("retransmits", Value::int(o.resil.retransmits)),
                            ("wire_drops", Value::int(o.resil.wire_drops)),
                            ("link_down_drops", Value::int(o.resil.link_down_drops)),
                            ("exhausted", Value::int(o.resil.exhausted)),
                            ("spurious_rexmit", Value::int(o.resil.spurious_rexmit)),
                            ("backpressure_waits", Value::int(o.resil.backpressure_waits)),
                            ("backpressure_ns", Value::int(o.resil.backpressure_ns)),
                            ("failovers", Value::int(o.failovers)),
                            ("nic_shared_allocs", Value::int(o.shared_allocs)),
                            ("virtual_ns", Value::int(o.virtual_ns)),
                            (
                                "goodput_vs_lossless",
                                Value::Num(base_ns as f64 / o.virtual_ns.max(1) as f64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    write_bench_json("resilience", &json);
}
