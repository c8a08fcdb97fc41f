#![warn(missing_docs)]

//! The benchmark harness: the paper as one checked table ([`paper`]) and the
//! shared reporting helpers of the bench targets in `benches/`.
//!
//! `EXPERIMENTS.md` records the paper-vs-measured comparison by row id.
//! Benches whose numbers are tracked write a `BENCH_<name>.json` summary
//! ([`write_bench_json`]) built from [`rankmpi_obs::json::Value`].

use std::fmt::Display;
use std::path::PathBuf;

use rankmpi_obs::json::Value;

// Lesson 20's cost model lives in `paper`; this module holds its tests.
#[cfg(test)]
mod device;
pub mod paper;

/// Print a Markdown-style table.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n## {title}\n");
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let mut widths: Vec<usize> = head.iter().map(|h| h.len()).collect();
    for row in &body {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&head);
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&sep);
    for row in &body {
        line(row);
    }
}

/// Print the takeaway line comparing measurement to the paper's claim.
pub fn takeaway(paper: &str, measured: &str) {
    println!("\npaper:    {paper}");
    println!("measured: {measured}");
}

/// Format a ratio to two decimals with an `x` suffix.
pub fn ratio(num: f64, den: f64) -> String {
    format!("{:.2}x", num / den)
}

/// The nearest-rank percentile of `samples` (`p` in `[0, 100]`). Sorts a
/// copy; `None` on an empty slice. `p = 0` is the minimum, `p = 100` the
/// maximum, and interior ranks round up (`ceil(p/100 · n)`), so the result
/// is always an observed sample — the right convention for latency tails,
/// where interpolating between observations invents values nothing saw.
pub fn percentile(samples: &[u64], p: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.saturating_sub(1).min(v.len() - 1)])
}

/// The standard latency-tail summary of `samples` as a JSON object:
/// `count`, `min`, `p50`, `p90`, `p99`, `max`, `mean`. Empty input renders
/// `{"count": 0}` so a row is never silently absent.
pub fn percentiles_json(samples: &[u64]) -> Value {
    if samples.is_empty() {
        return Value::obj([("count", Value::int(0))]);
    }
    let sum: u128 = samples.iter().map(|&v| v as u128).sum();
    let at = |p| Value::int(percentile(samples, p).unwrap());
    Value::obj([
        ("count", Value::int(samples.len() as u64)),
        ("min", at(0.0)),
        ("p50", at(50.0)),
        ("p90", at(90.0)),
        ("p99", at(99.0)),
        ("max", at(100.0)),
        ("mean", Value::int((sum / samples.len() as u128) as u64)),
    ])
}

/// Export `samples` as log2 histogram buckets: a JSON array of
/// `{"le": 2^k, "count": n}` rows (cumulative counts, like a Prometheus
/// cumulative histogram), ending with the exact total so consumers can
/// recover per-bucket counts by differencing. Zero maps to the `le: 1`
/// bucket.
pub fn histogram_json(samples: &[u64]) -> Value {
    if samples.is_empty() {
        return Value::Arr(vec![]);
    }
    let max = *samples.iter().max().unwrap();
    let top_bit = 64 - max.max(1).leading_zeros();
    let total = samples.len() as u64;
    let mut rows = Vec::new();
    for k in 0..=top_bit {
        let le = 1u64 << k;
        let count = samples.iter().filter(|&&v| v <= le).count() as u64;
        rows.push(Value::obj([
            ("le", Value::int(le)),
            ("count", Value::int(count)),
        ]));
        if count == total {
            break;
        }
    }
    rows.push(Value::obj([
        ("le", Value::str("inf")),
        ("count", Value::int(total)),
    ]));
    Value::Arr(rows)
}

/// Write `BENCH_<name>.json` into `RANKMPI_BENCH_DIR` (default: the
/// workspace root, where the committed reference snapshots live — `cargo
/// bench` sets the working directory to the *package*, which would scatter
/// them under `crates/bench/`) and return the path. Failures are reported,
/// not fatal: benches should still print their tables on read-only
/// filesystems.
pub fn write_bench_json(name: &str, v: &Value) -> Option<PathBuf> {
    let dir = std::env::var_os("RANKMPI_BENCH_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            // crates/bench -> the workspace root two levels up.
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .ancestors()
                .nth(2)
                .map(PathBuf::from)
                .unwrap_or_else(|| PathBuf::from("."))
        });
    let path = dir.join(format!("BENCH_{name}.json"));
    match std::fs::write(&path, v.render_pretty() + "\n") {
        Ok(()) => {
            println!("\nwrote {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("could not write {}: {e}", path.display());
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(3.0, 2.0), "1.50x");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7], 50.0), Some(7));
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), Some(1));
        assert_eq!(percentile(&v, 50.0), Some(50));
        assert_eq!(percentile(&v, 90.0), Some(90));
        assert_eq!(percentile(&v, 99.0), Some(99));
        assert_eq!(percentile(&v, 100.0), Some(100));
        // Unsorted input; nearest rank rounds up and never interpolates.
        assert_eq!(percentile(&[40, 10, 30, 20], 50.0), Some(20));
        assert_eq!(percentile(&[40, 10, 30, 20], 51.0), Some(30));
        // Out-of-range p clamps.
        assert_eq!(percentile(&v, -5.0), Some(1));
        assert_eq!(percentile(&v, 200.0), Some(100));
    }

    #[test]
    fn percentiles_json_summarizes_tails() {
        let mut v: Vec<u64> = vec![10; 99];
        v.push(1000); // one straggler in the p100/p99 tail
        let s = percentiles_json(&v);
        let field = |k| s.get(k).and_then(Value::as_f64);
        assert_eq!(field("count"), Some(100.0));
        assert_eq!(field("p50"), Some(10.0));
        assert_eq!(field("p90"), Some(10.0));
        assert_eq!(field("p99"), Some(10.0));
        assert_eq!(field("max"), Some(1000.0));
        assert_eq!(
            percentiles_json(&[]).render_pretty(),
            "{\n  \"count\": 0\n}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_log2() {
        let v = [1u64, 2, 3, 5, 9];
        let hist = histogram_json(&v);
        let rows: Vec<String> = hist.as_arr().unwrap().iter().map(Value::render).collect();
        // le: 1,2,4,8,16 then the "inf" total.
        assert_eq!(
            rows,
            [
                r#"{"count":1,"le":1}"#,
                r#"{"count":2,"le":2}"#,
                r#"{"count":3,"le":4}"#,
                r#"{"count":4,"le":8}"#,
                r#"{"count":5,"le":16}"#,
                r#"{"count":5,"le":"inf"}"#,
            ]
        );
        assert_eq!(histogram_json(&[]), Value::Arr(vec![]));
    }

    #[test]
    fn writes_file_to_bench_dir() {
        let dir = std::env::temp_dir().join("rankmpi_json_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::env::set_var("RANKMPI_BENCH_DIR", &dir);
        let p = write_bench_json("unit_test", &Value::obj([("ok", Value::Bool(true))])).unwrap();
        std::env::remove_var("RANKMPI_BENCH_DIR");
        let text = std::fs::read_to_string(&p).unwrap();
        assert_eq!(text, "{\n  \"ok\": true\n}\n");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn committed_snapshots_parse() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut parsed = 0;
        for entry in std::fs::read_dir(root).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("BENCH_") && name.ends_with(".json") {
                let text = std::fs::read_to_string(&path).unwrap();
                if let Err(e) = rankmpi_obs::json::parse(&text) {
                    panic!("{name} is not JSON: {e}");
                }
                parsed += 1;
            }
        }
        assert!(parsed > 0, "no BENCH_*.json at the workspace root");
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".to_string(), "2".to_string()]],
        );
        takeaway("x", "y");
    }
}
