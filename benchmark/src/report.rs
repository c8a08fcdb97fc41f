//! Metric names, units and bounds — the same tables `BENCHMARK.json` lists —
//! and how one run's measurements become them.

use crate::counters::ratio;
use crate::json::Value;
use crate::probes::Probes;
use crate::spans::Kind;
use crate::stats;
use crate::workloads::{RunOut, StreamStats, Workload};

/// Unit of wall-clock metrics: host nanoseconds (`std::time::Instant`).
const NS: &str = "ns";
/// Unit of simulated metrics: virtual nanoseconds (`ThreadCtx::clock`).
const SIM_NS: &str = "sim_ns";

/// An end-to-end metric: what a user of the library sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen (all four
    /// are lower-is-better) before a change counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_ns_per_op",
        unit: NS,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_ns_per_op",
        unit: SIM_NS,
        bound: 0.03,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.20,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

/// Per-layer metrics `(name, unit)`, in the order they print. The layer is
/// the part of the name before the first dot.
pub const PER_LAYER: [(&str, &str); 47] = [
    // Spans around the driver's calls.
    ("pt2pt.send_wall_ns", NS),
    ("pt2pt.send_sim_ns", SIM_NS),
    ("pt2pt.post_wall_ns", NS),
    ("pt2pt.post_sim_ns", SIM_NS),
    ("request.wait_wall_ns_p50", NS),
    ("request.wait_wall_ns_p99", NS),
    ("request.wait_sim_ns", SIM_NS),
    ("pt2pt.op_wall_ns_p50", NS),
    ("pt2pt.op_wall_ns_p99", NS),
    ("driver.self_wall_ns_per_op", NS),
    // Counters.
    ("stream.item_sim_ns_p50", SIM_NS),
    ("stream.item_sim_ns_p99", SIM_NS),
    ("stream.credit_stall_sim_ns_per_op", SIM_NS),
    ("stream.reorder_peak", "count"),
    ("notify.notifies_per_op", "count"),
    ("vci.polls_per_op", "count"),
    ("vci.lock_acquires_per_op", "count"),
    ("vci.lock_contended_share", "ratio"),
    ("vci.lock_hold_sim_ns_per_op", SIM_NS),
    ("vci.doorbells_per_msg", "ratio"),
    ("matching.scanned_per_match", "ratio"),
    ("mailbox.ring_spill_share", "ratio"),
    ("arena.reuse_share", "ratio"),
    ("context.gate_contention_sim_ns_per_op", SIM_NS),
    ("alloc.count_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    // Probes.
    ("arena.alloc_ns", NS),
    ("spsc.push_pop_ns", NS),
    ("mailbox.push_ns", NS),
    ("mailbox.drain_ns_per_msg", NS),
    ("notify.notify_ns", NS),
    ("notify.wake_latency_ns_p50", NS),
    ("engine.handoff_ns_p50", NS),
    ("lock.roundtrip_ns", NS),
    ("transmit.transmit_ns", NS),
    ("matching.post_ns", NS),
    ("matching.incoming_ns", NS),
    ("request.complete_ns", NS),
    ("vci.send_packet_ns", NS),
    ("vci.post_recv_ns", NS),
    ("vci.progress_ns_per_msg", NS),
    ("universe.launch_ns_per_rank", NS),
    // Derived.
    ("ledger.one_thread_path_ns", NS),
    ("ledger.wake_share", "ratio"),
    ("ledger.leaf_coverage", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.plain_wall_ns_per_op", NS),
];

/// One metric of a result: value plus how it was obtained, for the
/// human-readable line.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub note: String,
}

fn median_note(samples: &[f64], what: &str) -> String {
    let [q1, _, q3] = stats::quartiles(samples);
    // Seconds need decimals, nanosecond counts do not.
    let digits = if q3 < 100.0 { 4 } else { 1 };
    format!(
        "median of {} {what}, q1 {q1:.digits$} q3 {q3:.digits$}",
        samples.len()
    )
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the tables"))
        .1
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(w: Workload, run: &RunOut) -> Vec<Metric> {
    let (wall, sim) = run.per_op(w, false).expect("a run has plain reps");
    let setup = run.setup_s();
    let metric = |name: &'static str, value: f64, note: String| Metric {
        name,
        unit: unit_of(name),
        value,
        note,
    };
    vec![
        metric(
            "wall_ns_per_op",
            stats::median(&wall),
            median_note(&wall, "reps"),
        ),
        metric(
            "sim_ns_per_op",
            stats::median(&sim),
            median_note(&sim, "reps"),
        ),
        metric(
            "peak_rss_mib",
            run.peak_rss_mib,
            "VmHWM after the first rep".to_string(),
        ),
        metric(
            "setup_s",
            stats::median(&setup),
            median_note(&setup, "set-ups"),
        ),
    ]
}

/// The ledger figures derived from probes, counters and the plain reps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ledger {
    pub one_thread_path_ns: f64,
    pub wake_share: f64,
    pub leaf_coverage: f64,
}

/// `one_thread_path_ns` is what a message costs with no wake anywhere;
/// `wake_share` is the part of an op that path does not explain;
/// `leaf_coverage` is how much of the path the leaf probes explain.
pub fn ledger(
    p: &Probes,
    msgs_per_op: f64,
    lock_acquires_per_msg: f64,
    wall_ns_per_op: f64,
) -> Ledger {
    let path = p.arena_alloc_ns
        + p.vci_send_packet_ns
        + p.vci_post_recv_ns
        + p.vci_progress_ns_per_msg
        + p.request_complete_ns;
    let leaves = p.arena_alloc_ns
        + p.transmit_transmit_ns
        + p.mailbox_drain_ns_per_msg
        + p.matching_post_ns
        + p.matching_incoming_ns
        + p.request_complete_ns
        + p.lock_roundtrip_ns * lock_acquires_per_msg;
    Ledger {
        one_thread_path_ns: path,
        wake_share: 1.0 - path * msgs_per_op / wall_ns_per_op,
        leaf_coverage: leaves / path,
    }
}

/// The per-layer metrics of a traced run.
pub fn per_layer(w: Workload, run: &RunOut, p: &Probes) -> Vec<Metric> {
    let mut out: Vec<Metric> = Vec::with_capacity(PER_LAYER.len());
    let mut put = |name: &'static str, value: f64, note: String| {
        out.push(Metric {
            name,
            unit: unit_of(name),
            value,
            note,
        })
    };
    let span = || "mean over the traced reps' spans".to_string();
    let none = || "not applicable to this workload".to_string();

    // Spans.
    let agg = &run.agg;
    let spans_of = |k: Kind| agg.kind(k).spans;
    let mean_note = |k: Kind| if spans_of(k) == 0 { none() } else { span() };
    put(
        "pt2pt.send_wall_ns",
        agg.wall_per_unit(Kind::Send),
        mean_note(Kind::Send),
    );
    put(
        "pt2pt.send_sim_ns",
        agg.sim_per_unit(Kind::Send),
        mean_note(Kind::Send),
    );
    put(
        "pt2pt.post_wall_ns",
        agg.wall_per_unit(Kind::Post),
        mean_note(Kind::Post),
    );
    put(
        "pt2pt.post_sim_ns",
        agg.sim_per_unit(Kind::Post),
        mean_note(Kind::Post),
    );
    let pct_note = |used: f64, n: usize| {
        if n == 0 {
            none()
        } else {
            format!("p{:.4} of {n} spans", used * 100.0)
        }
    };
    let (p50, tail, used, n) = agg.wall_percentiles(Kind::Wait, 0.99);
    put("request.wait_wall_ns_p50", p50, pct_note(0.5, n));
    put("request.wait_wall_ns_p99", tail, pct_note(used, n));
    put(
        "request.wait_sim_ns",
        agg.sim_per_unit(Kind::Wait),
        mean_note(Kind::Wait),
    );
    // `farm` has no op the driver can see inside of: its op span is the
    // whole `run_stream` call, per item.
    let op_kind = if w == Workload::Farm {
        Kind::Stream
    } else {
        Kind::Op
    };
    let (p50, tail, used, n) = agg.wall_percentiles(op_kind, 0.99);
    put("pt2pt.op_wall_ns_p50", p50, pct_note(0.5, n));
    put("pt2pt.op_wall_ns_p99", tail, pct_note(used, n));
    put(
        "driver.self_wall_ns_per_op",
        ratio(agg.op_self_wall_ns, agg.kind(Kind::Op).units),
        "op span self time (duration minus child cover) per op the spans cover".to_string(),
    );

    // Counters.
    let stream = |field: fn(&StreamStats) -> f64| {
        let per_rep: Vec<f64> = run.stream.iter().map(field).collect();
        if per_rep.is_empty() {
            (0.0, none())
        } else {
            (
                stats::median(&per_rep),
                format!("StreamReport, median of {} reps", per_rep.len()),
            )
        }
    };
    let (v, note) = stream(|s| s.item_sim_ns_p50);
    put("stream.item_sim_ns_p50", v, note);
    let (v, note) = stream(|s| s.item_sim_ns_p99);
    put("stream.item_sim_ns_p99", v, note);
    let (v, note) = stream(|s| s.credit_stall_sim_ns_per_op);
    put("stream.credit_stall_sim_ns_per_op", v, note);
    let (v, note) = stream(|s| s.reorder_peak);
    put("stream.reorder_peak", v, note);
    let ops = run.timed_ops(w);
    let c = run.counters.unwrap_or_default();
    let counter_note = || {
        if run.counters.is_some() {
            format!("counter delta over {ops} timed ops")
        } else {
            "universe is inside run_stream: no accessor".to_string()
        }
    };
    let nic_msgs = c.doorbells + c.doorbells_coalesced;
    put(
        "notify.notifies_per_op",
        ratio(c.notifies, ops),
        counter_note(),
    );
    put("vci.polls_per_op", ratio(c.polls, ops), counter_note());
    put(
        "vci.lock_acquires_per_op",
        ratio(c.lock_acquires, ops),
        counter_note(),
    );
    put(
        "vci.lock_contended_share",
        ratio(c.lock_contended, c.lock_acquires),
        counter_note(),
    );
    put(
        "vci.lock_hold_sim_ns_per_op",
        ratio(c.lock_hold_sim_ns, ops),
        counter_note(),
    );
    put(
        "vci.doorbells_per_msg",
        ratio(c.doorbells, nic_msgs),
        counter_note(),
    );
    put(
        "matching.scanned_per_match",
        ratio(c.match_scanned, c.matched),
        counter_note(),
    );
    put(
        "mailbox.ring_spill_share",
        ratio(c.ring_spills, c.ring_pushes + c.ring_spills),
        counter_note(),
    );
    put(
        "arena.reuse_share",
        ratio(c.arena_reuses, c.arena_reuses + c.arena_fresh),
        counter_note(),
    );
    put(
        "context.gate_contention_sim_ns_per_op",
        ratio(c.gate_contention_sim_ns, ops),
        counter_note(),
    );
    let traced_reps = run.reps.iter().filter(|r| r.traced).count() as u64;
    let traced_ops = traced_reps * w.ops_per_rep();
    let alloc_note = || format!("counting allocator over {traced_ops} traced ops");
    put(
        "alloc.count_per_op",
        ratio(run.alloc.0, traced_ops),
        alloc_note(),
    );
    put(
        "alloc.bytes_per_op",
        ratio(run.alloc.1, traced_ops),
        alloc_note(),
    );

    // Probes.
    let shape = w.shape();
    let probe = || {
        format!(
            "probe at {} B x {} lane(s) x batch {}",
            shape.bytes, shape.lanes, shape.batch
        )
    };
    put("arena.alloc_ns", p.arena_alloc_ns, probe());
    put("spsc.push_pop_ns", p.spsc_push_pop_ns, probe());
    put("mailbox.push_ns", p.mailbox_push_ns, probe());
    put(
        "mailbox.drain_ns_per_msg",
        p.mailbox_drain_ns_per_msg,
        probe(),
    );
    put("notify.notify_ns", p.notify_notify_ns, probe());
    put(
        "notify.wake_latency_ns_p50",
        p.notify_wake_latency_ns_p50,
        "probe, 2 OS threads".to_string(),
    );
    put(
        "engine.handoff_ns_p50",
        p.engine_handoff_ns_p50,
        "probe, 2 engine tasks".to_string(),
    );
    put("lock.roundtrip_ns", p.lock_roundtrip_ns, probe());
    put("transmit.transmit_ns", p.transmit_transmit_ns, probe());
    put("matching.post_ns", p.matching_post_ns, probe());
    put("matching.incoming_ns", p.matching_incoming_ns, probe());
    put("request.complete_ns", p.request_complete_ns, probe());
    put("vci.send_packet_ns", p.vci_send_packet_ns, probe());
    put("vci.post_recv_ns", p.vci_post_recv_ns, probe());
    put(
        "vci.progress_ns_per_msg",
        p.vci_progress_ns_per_msg,
        probe(),
    );
    put(
        "universe.launch_ns_per_rank",
        p.universe_launch_ns_per_rank,
        format!("probe, {} rank(s)", w.ranks()),
    );

    // Derived.
    let (plain, _) = run.per_op(w, false).expect("a run has plain reps");
    let (traced, _) = run.per_op(w, true).expect("a traced pass has traced reps");
    let plain_wall = stats::median(&plain);
    let msgs_per_op = w.msgs_per_op();
    let acquires_per_msg = ratio(c.lock_acquires, ops) / msgs_per_op;
    let l = ledger(p, msgs_per_op, acquires_per_msg, plain_wall);
    put(
        "ledger.one_thread_path_ns",
        l.one_thread_path_ns,
        "arena.alloc + vci.send_packet + vci.post_recv + vci.progress + request.complete"
            .to_string(),
    );
    put(
        "ledger.wake_share",
        l.wake_share,
        format!("1 - path x {msgs_per_op} msgs/op / plain wall per op"),
    );
    put(
        "ledger.leaf_coverage",
        l.leaf_coverage,
        "leaf probes / one_thread_path_ns".to_string(),
    );
    put(
        "trace.overhead_share",
        stats::median(&traced) / plain_wall - 1.0,
        format!(
            "traced / plain median wall per op - 1, {} + {} reps",
            traced.len(),
            plain.len()
        ),
    );
    put(
        "trace.plain_wall_ns_per_op",
        plain_wall,
        "wall_ns_per_op of this pass's plain reps (base of wake_share and overhead_share)"
            .to_string(),
    );
    out
}

/// The contract's result object for one run.
pub fn result_json(run: &RunOut, metrics: &[Metric]) -> Value {
    // A receive checks several things, so failures can outnumber ops.
    let failed = run.failed.min(run.attempted);
    Value::obj([
        ("correct", Value::Bool(run.failed == 0)),
        ("attempted", Value::Num(run.attempted as f64)),
        ("failed", Value::Num(failed as f64)),
        (
            "metrics",
            Value::obj(metrics.iter().map(|m| {
                (
                    m.name,
                    Value::obj([("value", Value::Num(m.value)), ("unit", Value::str(m.unit))]),
                )
            })),
        ),
    ])
}

/// Exit code of a run: non-zero as soon as one op failed its checks.
pub fn exit_code(run: &RunOut) -> i32 {
    i32::from(run.failed > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::RepSample;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn fake_run(failed: u64) -> RunOut {
        let mut run = RunOut {
            attempted: 1000,
            failed,
            peak_rss_mib: 30.5,
            ..RunOut::default()
        };
        for i in 0..10 {
            run.reps.push(RepSample {
                traced: i % 2 == 1,
                setup_s: 0.2 + i as f64 * 1e-3,
                wall_ns: 5e8 + i as f64,
                sim_ns: 3e7,
            });
        }
        run.stream.push(StreamStats::default());
        run
    }

    fn names_of(list: &Value) -> Vec<(String, String)> {
        list.as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").unwrap().as_str().unwrap().to_string(),
                    m.get("unit").unwrap().as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let b = benchmark_json();
        let e2e = b.get("end_to_end").unwrap();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names_of(e2e), want);
        for (m, j) in END_TO_END.iter().zip(e2e.as_arr().unwrap()) {
            assert_eq!(
                j.get("bound").unwrap().as_f64(),
                Some(m.bound),
                "{}",
                m.name
            );
            assert_eq!(
                j.get("better").unwrap().as_str(),
                Some("lower"),
                "{}",
                m.name
            );
            assert!(m.bound <= 0.25);
        }
        let want: Vec<_> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names_of(b.get("per_layer").unwrap()), want);
        let workloads: Vec<_> = b
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        let ours: Vec<_> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            b.get("run_seconds").unwrap().as_f64(),
            Some(crate::DEFAULT_SECONDS)
        );
        assert_eq!(
            b.get("paths").unwrap().as_arr().unwrap()[0].as_str(),
            Some("benchmark")
        );
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let all = END_TO_END.iter().map(|m| (m.name, m.unit)).chain(PER_LAYER);
        for (name, unit) in all {
            assert!(seen.insert(name), "{name} listed twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn emitted_json_has_every_listed_name_exactly_once() {
        let b = benchmark_json();
        let probes = Probes {
            arena_alloc_ns: 1.0,
            vci_send_packet_ns: 1.0,
            ..Probes::default()
        };
        for w in Workload::ALL {
            let run = fake_run(0);
            for (list, metrics) in [
                ("end_to_end", end_to_end(w, &run)),
                ("per_layer", per_layer(w, &run, &probes)),
            ] {
                let line = result_json(&run, &metrics).to_string();
                let back = json::parse(&line).unwrap();
                let keys: Vec<&str> = ["correct", "attempted", "failed", "metrics"].to_vec();
                let got: Vec<&str> = back
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(got, keys);
                let emitted = back.get("metrics").unwrap().as_obj().unwrap();
                for (name, unit) in names_of(b.get(list).unwrap()) {
                    let hits: Vec<_> = emitted.iter().filter(|(k, _)| *k == name).collect();
                    assert_eq!(hits.len(), 1, "{name} on {}", w.name());
                    assert_eq!(hits[0].1.get("unit").unwrap().as_str(), Some(unit.as_str()));
                    assert!(hits[0].1.get("value").unwrap().as_f64().is_some());
                }
                assert_eq!(emitted.len(), names_of(b.get(list).unwrap()).len());
            }
        }
    }

    #[test]
    fn failed_ops_flip_correct_and_the_exit_code() {
        let ok = fake_run(0);
        let bad = fake_run(3);
        assert_eq!(exit_code(&ok), 0);
        assert_eq!(exit_code(&bad), 1);
        let w = Workload::Pingpong;
        let j = result_json(&bad, &end_to_end(w, &bad));
        assert_eq!(j.get("correct").unwrap().as_bool(), Some(false));
        assert_eq!(j.get("failed").unwrap().as_f64(), Some(3.0));
        let j = result_json(&ok, &end_to_end(w, &ok));
        assert_eq!(j.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("attempted").unwrap().as_f64(), Some(1000.0));
    }

    #[test]
    fn ledger_arithmetic() {
        let p = Probes {
            arena_alloc_ns: 30.0,
            vci_send_packet_ns: 200.0,
            vci_post_recv_ns: 120.0,
            vci_progress_ns_per_msg: 100.0,
            request_complete_ns: 50.0,
            transmit_transmit_ns: 150.0,
            mailbox_drain_ns_per_msg: 20.0,
            matching_post_ns: 40.0,
            matching_incoming_ns: 40.0,
            lock_roundtrip_ns: 10.0,
            ..Probes::default()
        };
        // pingpong-like: 2 messages per op, 50 us per op, 2 lock acquires
        // per message.
        let l = ledger(&p, 2.0, 2.0, 50_000.0);
        assert_eq!(l.one_thread_path_ns, 500.0);
        assert!((l.wake_share - 0.98).abs() < 1e-12);
        assert!((l.leaf_coverage - 350.0 / 500.0).abs() < 1e-12);
    }
}
