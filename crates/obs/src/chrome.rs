//! Chrome trace-event JSON export.
//!
//! Converts a finished [`Trace`] into the trace-event format understood by
//! Perfetto and `chrome://tracing`: one `"ph":"X"` (complete) event per span,
//! with `ts`/`dur` in microseconds (the format's unit) and the exact
//! virtual-nanosecond interval preserved in `args` for lossless tooling.
//! Simulated ranks map to `pid` and simulated threads to `tid`, so the
//! timeline groups one track per rank with one row per thread — the same
//! shape the paper's per-VCI/per-context figures have.

use std::io;
use std::path::{Path, PathBuf};

use crate::json::Value;
use crate::trace::Trace;

/// Convert a trace to a Chrome trace-event [`Value`] (an object with a
/// `traceEvents` array plus process/thread-name metadata events).
pub fn to_chrome(trace: &Trace) -> Value {
    let mut events: Vec<Value> = Vec::with_capacity(trace.spans.len() + 8);

    // Metadata events name each rank/thread track.
    let mut actors: Vec<(u32, u32)> = trace.spans.iter().map(|s| (s.pid, s.tid)).collect();
    actors.sort_unstable();
    actors.dedup();
    let mut ranks: Vec<u32> = actors.iter().map(|&(p, _)| p).collect();
    ranks.dedup();
    for pid in ranks {
        events.push(meta_event(
            "process_name",
            pid,
            None,
            &format!("rank {pid}"),
        ));
    }
    for (pid, tid) in actors {
        events.push(meta_event(
            "thread_name",
            pid,
            Some(tid),
            &format!("thread {tid}"),
        ));
    }

    for s in &trace.spans {
        let mut args = vec![
            ("start_ns", Value::int(s.start.as_ns())),
            ("end_ns", Value::int(s.end.as_ns())),
            ("kind", Value::str(s.kind.label())),
        ];
        if !s.res.is_none() {
            args.push(("res", Value::str(s.res.label())));
        }
        events.push(Value::obj([
            ("name", Value::str(s.name)),
            ("cat", Value::str(s.cat)),
            ("ph", Value::str("X")),
            ("ts", Value::Num(s.start.as_ns() as f64 / 1e3)),
            ("dur", Value::Num(s.dur().as_ns() as f64 / 1e3)),
            ("pid", Value::int(u64::from(s.pid))),
            ("tid", Value::int(u64::from(s.tid))),
            ("args", Value::obj(args)),
        ]));
    }

    Value::obj([
        ("traceEvents", Value::Arr(events)),
        ("displayTimeUnit", Value::str("ns")),
        (
            "otherData",
            Value::obj([("dropped_spans", Value::int(trace.dropped))]),
        ),
    ])
}

fn meta_event(name: &str, pid: u32, tid: Option<u32>, label: &str) -> Value {
    let mut ev = vec![
        ("name", Value::str(name)),
        ("ph", Value::str("M")),
        ("pid", Value::int(u64::from(pid))),
        ("args", Value::obj([("name", Value::str(label))])),
    ];
    if let Some(t) = tid {
        ev.push(("tid", Value::int(u64::from(t))));
    }
    Value::obj(ev)
}

/// Directory trace files are written to: `RANKMPI_TRACE_DIR`, defaulting to
/// the current directory.
pub fn trace_dir() -> PathBuf {
    std::env::var_os("RANKMPI_TRACE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// Write `trace` as `TRACE_<name>.json` under [`trace_dir`], returning the
/// path written.
pub fn write_trace(name: &str, trace: &Trace) -> io::Result<PathBuf> {
    let path = trace_dir().join(format!("TRACE_{name}.json"));
    write_trace_to(&path, trace)?;
    Ok(path)
}

/// Write `trace` to an explicit path.
pub fn write_trace_to(path: &Path, trace: &Trace) -> io::Result<()> {
    std::fs::write(path, to_chrome(trace).render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::trace::{ResId, Span, SpanKind};
    use rankmpi_vtime::Nanos;

    fn sample_trace() -> Trace {
        Trace {
            spans: vec![
                Span {
                    cat: "pt2pt",
                    name: "send",
                    start: Nanos(1_000),
                    end: Nanos(3_500),
                    pid: 0,
                    tid: 2,
                    res: ResId::new("vci", 0, 1),
                    kind: SpanKind::Busy,
                },
                Span {
                    cat: "fabric",
                    name: "wire",
                    start: Nanos(2_000),
                    end: Nanos(3_000),
                    pid: 1,
                    tid: 0,
                    res: ResId::NONE,
                    kind: SpanKind::Wait,
                },
            ],
            dropped: 3,
        }
    }

    #[test]
    fn emits_complete_events_with_ns_args() {
        let v = to_chrome(&sample_trace());
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        let send = evs
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("send"))
            .unwrap();
        assert_eq!(send.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(send.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(send.get("dur").unwrap().as_f64(), Some(2.5));
        let args = send.get("args").unwrap();
        assert_eq!(args.get("start_ns").unwrap().as_f64(), Some(1000.0));
        assert_eq!(args.get("end_ns").unwrap().as_f64(), Some(3500.0));
        assert_eq!(args.get("res").unwrap().as_str(), Some("vci:0.1"));
        assert_eq!(args.get("kind").unwrap().as_str(), Some("busy"));
        assert_eq!(
            v.get("otherData").unwrap().get("dropped_spans").unwrap(),
            &Value::Num(3.0)
        );
    }

    #[test]
    fn includes_metadata_tracks_and_round_trips() {
        let v = to_chrome(&sample_trace());
        let rendered = v.render();
        let back = json::parse(&rendered).unwrap();
        let evs = back.get("traceEvents").unwrap().as_arr().unwrap();
        let metas: Vec<&Value> = evs
            .iter()
            .filter(|e| e.get("ph").and_then(Value::as_str) == Some("M"))
            .collect();
        // 2 ranks + 2 threads named.
        assert_eq!(metas.len(), 4);
        assert!(metas
            .iter()
            .any(|m| { m.get("args").unwrap().get("name").unwrap().as_str() == Some("rank 1") }));
    }

    #[test]
    fn writes_file_to_env_dir() {
        let dir = std::env::temp_dir().join(format!("obs_chrome_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("TRACE_unit.json");
        write_trace_to(&path, &sample_trace()).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(json::parse(&body).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }
}
