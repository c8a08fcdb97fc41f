//! Streaming topologies: throughput and tail latency per mechanism.
//!
//! Pipeline and farm streams (sequence-numbered items, ordered reassembly,
//! credit backpressure) run over every mechanism — plain communicator
//! baseline, tags+VCI hints, endpoints, partitioned — on a clean fabric,
//! under 1% and 5% packet loss (retransmission armed), and with heavy-tail
//! stragglers. A farm-with-feedback row exercises the collector→emitter
//! loop, and a 258-rank task-mode farm shows the topology at scale.
//! `BENCH_stream.json` carries throughput plus p50/p90/p99 latency per row
//! for regression tooling.

use rankmpi_bench::{histogram_json, percentile, percentiles_json, write_bench_json};
use rankmpi_bench::{print_table, takeaway};
use rankmpi_core::LaunchMode;
use rankmpi_fabric::FaultPlan;
use rankmpi_obs::json::Value;
use rankmpi_vtime::Nanos;
use rankmpi_workloads::stream::{run_stream, Mechanism, StreamConfig, StreamReport, Topology};

const SEED: u64 = 0x57E4;

struct Fabric {
    label: &'static str,
    plan: Option<FaultPlan>,
}

fn fabrics() -> Vec<Fabric> {
    vec![
        Fabric {
            label: "clean",
            plan: None,
        },
        Fabric {
            label: "1% loss",
            plan: Some(FaultPlan::new(SEED ^ 1).drops(0.01)),
        },
        Fabric {
            label: "5% loss",
            plan: Some(FaultPlan::new(SEED ^ 5).drops(0.05)),
        },
        Fabric {
            label: "stragglers",
            plan: Some(FaultPlan::new(SEED ^ 9).stragglers(0.05, Nanos(50_000), Nanos(5_000_000))),
        },
    ]
}

fn base(topology: Topology, mechanism: Mechanism) -> StreamConfig {
    StreamConfig {
        topology,
        mechanism,
        items: 240,
        item_bytes: 512,
        credits: 48,
        credit_batch: 8,
        work: Nanos::us(2),
        work_jitter: 0.3,
        seed: SEED,
        ..StreamConfig::default()
    }
}

fn row_json(fabric: &str, launch: &str, rep: &StreamReport, hist: bool) -> Value {
    let mut fields = vec![
        ("topology", Value::str(rep.topology)),
        ("mechanism", Value::str(rep.mechanism)),
        ("fabric", Value::str(fabric)),
        ("launch", Value::str(launch)),
        ("items", Value::int(rep.items)),
        ("delivered", Value::int(rep.delivered)),
        ("feedback_items", Value::int(rep.feedback_items)),
        ("elapsed_ns", Value::int(rep.elapsed.0)),
        (
            "throughput_items_per_sec",
            Value::Num(rep.throughput_items_per_sec()),
        ),
        ("latency_ns", percentiles_json(&rep.latencies_ns)),
        ("credit_stalls", Value::int(rep.credit_stalls)),
        ("credit_stall_ns", Value::int(rep.credit_stall_ns)),
        ("reorder_peak", Value::int(rep.reorder_peak as u64)),
        ("verified", Value::Bool(rep.verified)),
    ];
    if hist {
        fields.push(("latency_hist", histogram_json(&rep.latencies_ns)));
    }
    Value::obj(fields)
}

fn table_row(fabric: &str, rep: &StreamReport) -> Vec<String> {
    let p = |q: f64| {
        percentile(&rep.latencies_ns, q)
            .map(|v| format!("{:.1} us", v as f64 / 1e3))
            .unwrap_or_default()
    };
    vec![
        rep.topology.to_string(),
        rep.mechanism.to_string(),
        fabric.to_string(),
        format!("{:.0}", rep.throughput_items_per_sec() / 1e3),
        p(50.0),
        p(90.0),
        p(99.0),
        rep.credit_stalls.to_string(),
        if rep.verified { "yes" } else { "NO" }.to_string(),
    ]
}

fn main() {
    let topologies = [
        Topology::Pipeline {
            stages: 3,
            threads: 2,
        },
        Topology::Farm {
            workers: 4,
            threads: 2,
        },
    ];

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_rows: Vec<Value> = Vec::new();

    for topo in topologies {
        for mech in Mechanism::ALL {
            for fabric in fabrics() {
                let cfg = StreamConfig {
                    fault_plan: fabric.plan.clone(),
                    ..base(topo, mech)
                };
                let rep = run_stream(&cfg);
                assert!(
                    rep.verified,
                    "{}/{}/{}",
                    rep.topology, rep.mechanism, fabric.label
                );
                rows.push(table_row(fabric.label, &rep));
                json_rows.push(row_json(fabric.label, "threads", &rep, false));
            }
        }
    }

    // Farm-with-feedback: a quarter of the items make a second pass through
    // their worker before delivery.
    for fabric in [&fabrics()[0], &fabrics()[2]] {
        let cfg = StreamConfig {
            fault_plan: fabric.plan.clone(),
            ..base(
                Topology::FarmFeedback {
                    workers: 4,
                    threads: 2,
                    feedback_permille: 250,
                },
                Mechanism::TagsVci,
            )
        };
        let rep = run_stream(&cfg);
        assert!(rep.verified, "feedback/{}", fabric.label);
        rows.push(table_row(fabric.label, &rep));
        json_rows.push(row_json(fabric.label, "threads", &rep, true));
    }

    // Scale: 256 single-threaded workers (258 ranks) under the cooperative
    // task engine.
    let scale = StreamConfig {
        items: 1024,
        credits: 256,
        credit_batch: 32,
        launch: LaunchMode::Tasks(Default::default()),
        ..base(
            Topology::Farm {
                workers: 256,
                threads: 1,
            },
            Mechanism::TagsVci,
        )
    };
    let rep = run_stream(&scale);
    assert!(rep.verified, "scale farm");
    rows.push(table_row("clean @258 ranks/tasks", &rep));
    json_rows.push(row_json("clean", "tasks-258-ranks", &rep, true));

    print_table(
        "Stream topologies — throughput and latency per mechanism (240 items, 512 B, 48 credits; scale row: 1024 items over 258 ranks)",
        &[
            "topology",
            "mechanism",
            "fabric",
            "kitems/s",
            "p50",
            "p90",
            "p99",
            "stalls",
            "verified",
        ],
        &rows,
    );
    takeaway(
        "Lessons 1/7/12: giving each lane an independent fast path (tags+VCIs, endpoints) \
         lifts stream throughput over the single-channel baseline",
        "ordered exactly-once delivery holds on every row, including 5% loss and heavy-tail stragglers",
    );

    write_bench_json(
        "stream",
        &Value::obj([
            ("bench", Value::str("stream")),
            ("seed", Value::int(SEED)),
            ("rows", Value::Arr(json_rows)),
        ]),
    );
}
