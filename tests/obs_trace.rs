//! End-to-end observability test: run the halo workload with the tracer
//! active, export the Chrome trace, re-parse it, and check its structure.

use rankmpi::obs::json::Value;
use rankmpi::obs::{chrome, critpath, json};
use rankmpi::vtime::Nanos;
use rankmpi::workloads::stencil::halo::{run_halo_traced, HaloConfig, HaloMechanism};
use rankmpi::workloads::stencil::maps::Geometry;

fn halo_cfg() -> HaloConfig {
    HaloConfig {
        geo: Geometry {
            px: 2,
            py: 2,
            tx: 2,
            ty: 2,
        },
        iters: 3,
        elems_per_face: 32,
        nine_point: false,
        compute: Nanos::us(2),
        compute_jitter: 0.0,
        ..HaloConfig::default()
    }
}

/// One parsed "X" (complete) event: actor, interval, category, name.
struct Ev {
    pid: i64,
    tid: i64,
    start_ns: i64,
    end_ns: i64,
    cat: String,
    name: String,
}

fn parse_events(root: &Value) -> Vec<Ev> {
    let events = root
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    events
        .iter()
        .filter(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
        .map(|e| {
            let arg = |k: &str| {
                e.get("args")
                    .and_then(|a| a.get(k))
                    .and_then(Value::as_f64)
                    .unwrap_or_else(|| panic!("event missing args.{k}")) as i64
            };
            Ev {
                pid: e.get("pid").and_then(Value::as_f64).unwrap() as i64,
                tid: e.get("tid").and_then(Value::as_f64).unwrap() as i64,
                start_ns: arg("start_ns"),
                end_ns: arg("end_ns"),
                cat: e.get("cat").and_then(Value::as_str).unwrap().to_string(),
                name: e.get("name").and_then(Value::as_str).unwrap().to_string(),
            }
        })
        .collect()
}

/// `inner` must sit inside some `outer`-named span of the same thread.
fn assert_nested(evs: &[Ev], inner_cat: &str, inner_name: &str, outer_cat: &str, outer_name: &str) {
    let inners: Vec<&Ev> = evs
        .iter()
        .filter(|e| e.cat == inner_cat && e.name == inner_name)
        .collect();
    assert!(
        !inners.is_empty(),
        "no {inner_cat}/{inner_name} spans recorded"
    );
    for i in &inners {
        let enclosed = evs.iter().any(|o| {
            o.cat == outer_cat
                && o.name == outer_name
                && o.pid == i.pid
                && o.tid == i.tid
                && o.start_ns <= i.start_ns
                && o.end_ns >= i.end_ns
        });
        assert!(
            enclosed,
            "{inner_cat}/{inner_name} [{}, {}] on rank {} tid {} not nested in any \
             {outer_cat}/{outer_name} span",
            i.start_ns, i.end_ns, i.pid, i.tid
        );
    }
}

#[test]
fn halo_trace_round_trips_through_chrome_json() {
    let (rep, trace) = run_halo_traced(HaloMechanism::SingleComm, &halo_cfg());
    assert!(rep.verified);
    assert!(trace.dropped == 0, "ring overflow in a tiny run");
    assert!(
        trace.layers().len() >= 4,
        "expected spans from >= 4 layers, got {:?}",
        trace.layers()
    );

    // Export and re-parse: everything below checks the *serialized* trace.
    let dir = std::env::temp_dir().join("rankmpi_obs_trace_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("TRACE_halo_singlecomm.json");
    chrome::write_trace_to(&path, &trace).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let root = json::parse(&text).expect("trace must be valid JSON");
    let evs = parse_events(&root);
    assert_eq!(evs.len(), trace.spans.len());

    // Timestamps: non-negative, monotone within each span.
    for e in &evs {
        assert!(e.start_ns >= 0, "negative start in {}/{}", e.cat, e.name);
        assert!(
            e.end_ns >= e.start_ns,
            "span {}/{} ends ({}) before it starts ({})",
            e.cat,
            e.name,
            e.end_ns,
            e.start_ns
        );
    }

    // Cross-layer nesting: matching work happens inside the recv post, and
    // the fabric transmit happens inside the pt2pt send.
    assert_nested(&evs, "match", "match_post", "pt2pt", "recv");
    assert_nested(&evs, "fabric", "transmit", "pt2pt", "send");

    std::fs::remove_file(&path).unwrap();
}

#[test]
fn halo_critpath_reports_contended_resources() {
    let (_rep, trace) = run_halo_traced(HaloMechanism::SingleComm, &halo_cfg());
    let report = critpath::analyze(&trace);
    assert!(report.makespan > Nanos::ZERO);
    assert!(!report.critical.is_empty(), "empty critical path");
    assert!(
        !report.resources.is_empty(),
        "no per-resource breakdown in the critpath report"
    );
    // The single-communicator design funnels all four threads of a process
    // through one VCI: that resource must show up.
    assert!(
        report.resources.iter().any(|r| r.res.kind == "vci"),
        "no VCI resource in the breakdown"
    );
    // Rendering must not panic and must mention the contention table.
    let text = report.render();
    assert!(text.contains("per-resource contention"));
}

#[test]
fn partitioned_trace_has_partition_spans() {
    let (_rep, trace) = run_halo_traced(HaloMechanism::Partitioned, &halo_cfg());
    assert!(
        trace.spans.iter().any(|s| s.cat == "part"),
        "partitioned run recorded no 'part' spans; layers: {:?}",
        trace.layers()
    );
}
