//! `rankmpi-benchmark`: the frozen wall-and-simulated measuring stick.
//!
//! Three ways to run it (see README.md):
//!
//! - `--workload <name> --seed <n> --seconds <s> --trace <0|1>`: one run of
//!   one workload in this process. Prints every metric by name with its
//!   unit, then — as the last line of standard output — the result object
//!   `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//!   with `--trace 0`, the per-layer metrics with `--trace 1`.
//! - no `--workload`: every workload, each run in a fresh child process of
//!   this binary (so set-up time and peak memory are per workload), first
//!   plain then traced; prints the whole table and the ledger verdict and
//!   writes `out/result.json`.
//! - `--aa`: the acceptance check run against itself — two sets of ten
//!   plain runs per workload, one seed each, compared with every end-to-end
//!   bound.

mod alloc;
mod counters;
mod json;
mod load;
mod probes;
mod report;
mod spans;
mod stats;
mod sys;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use json::Value;
use report::{Metric, END_TO_END};
use workloads::{RunCfg, Workload};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures by default.
pub const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 2022;
/// Runs per A/A set: what the acceptance rule uses.
const AA_RUNS: usize = 10;

const USAGE: &str = "usage: rankmpi-benchmark [--workload <pingpong|msgrate|halo|fanin|farm>] \
[--seed <u64>] [--seconds <s>] [--trace <0|1>] [--aa]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        aa: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value()?.parse().map_err(|_| "--seed takes a u64")?;
            }
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 3600.0)
                    .ok_or("--seconds takes a number in (0, 3600]")?;
            }
            "--trace" => {
                args.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--aa" => args.aa = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.aa && args.workload.is_some() {
        return Err("--aa runs every workload; drop --workload".into());
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn write_out(file: &str, v: &Value) -> std::io::Result<PathBuf> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    std::fs::write(&path, format!("{v}\n"))?;
    Ok(path)
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<40} {:>16.4} {:<7} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

/// One run of one workload in this process.
fn single(w: Workload, args: &Args) -> ExitCode {
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
    };
    let run = workloads::run(w, &cfg);
    let metrics = if cfg.trace {
        report::per_layer(w, &run, &probes::run(w))
    } else {
        report::end_to_end(w, &run)
    };
    println!(
        "{} (op = one {}), seed {}, {} timed reps of {} ops, {} pass, ranks {}",
        w.name(),
        w.op(),
        cfg.seed,
        run.reps.len(),
        w.ops_per_rep(),
        if cfg.trace { "traced" } else { "plain" },
        if run.pinned { "pinned" } else { "not pinned" },
    );
    print_metrics(&metrics);
    if let Some((wall, _)) = run.per_op(w, false) {
        let reps: Vec<String> = wall.iter().map(|v| format!("{v:.0}")).collect();
        println!("  plain reps, wall ns per op: {}", reps.join(" "));
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        run.attempted, run.failed
    );
    if cfg.trace {
        let trace = Value::obj([
            ("workload", Value::str(w.name())),
            ("seed", Value::Num(cfg.seed as f64)),
            (
                "note",
                Value::str(
                    "spans of each thread's last traced rep (first spans only; spans_recorded is \
                 the full count); times in ns, wall since the run's base instant, sim from \
                 the thread's virtual clock",
                ),
            ),
            (
                "threads",
                Value::Arr(
                    run.trace_threads
                        .iter()
                        .map(|(rank, spans)| spans::thread_json(*rank, spans))
                        .collect(),
                ),
            ),
        ]);
        match write_out(&format!("trace_{}.json", w.name()), &trace) {
            Ok(path) => println!("  trace written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write the trace file: {e}");
                return ExitCode::from(2);
            }
        }
    }
    println!("{}", report::result_json(&run, &metrics));
    ExitCode::from(report::exit_code(&run) as u8)
}

/// What a child run printed on its last line, plus whether it exited 0.
struct Child {
    result: Value,
    ok: bool,
}

impl Child {
    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("child result lacks {name}"))
    }

    fn count(&self, key: &str) -> u64 {
        self.result.get(key).and_then(Value::as_f64).unwrap_or(0.0) as u64
    }
}

/// Run one workload in a fresh process of this binary. `echo` passes the
/// child's human-readable lines through.
fn child(w: Workload, seed: u64, seconds: f64, trace: bool, echo: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", w.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let last = lines
        .pop()
        .ok_or_else(|| format!("the {} run printed nothing ({})", w.name(), out.status))?;
    if echo {
        for l in lines {
            println!("{l}");
        }
    }
    let result = json::parse(last).map_err(|e| format!("{} result line: {e}", w.name()))?;
    Ok(Child {
        result,
        ok: out.status.success(),
    })
}

/// Every workload, plain pass then traced pass, each in its own process.
fn all(args: &Args) -> Result<ExitCode, String> {
    println!(
        "rankmpi-benchmark: 5 workloads x (plain + traced) x {} s, seed {}, nproc {}",
        args.seconds,
        args.seed,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let mut ok = true;
    let mut results = Vec::new();
    let mut ledger_lines = Vec::new();
    for w in Workload::ALL {
        println!();
        let plain = child(w, args.seed, args.seconds, false, true)?;
        let traced = child(w, args.seed, args.seconds, true, true)?;
        ok &= plain.ok && traced.ok;
        if matches!(w, Workload::Pingpong | Workload::Msgrate) {
            ledger_lines.push(format!(
                "  {:<9} ledger.wake_share {:.3}  ledger.leaf_coverage {:.3}  \
                 (one_thread_path {:.0} ns x {} msg/op against {:.0} ns/op)",
                w.name(),
                traced.metric("ledger.wake_share"),
                traced.metric("ledger.leaf_coverage"),
                traced.metric("ledger.one_thread_path_ns"),
                w.msgs_per_op(),
                traced.metric("trace.plain_wall_ns_per_op"),
            ));
        }
        if w == Workload::Pingpong {
            let share = traced.metric("ledger.wake_share");
            ledger_lines.push(format!(
                "  ROADMAP item 1's hypothesis \"park/wake dominates the pingpong\" {}: \
                 {:.1}% of a round trip is outside the no-wake message path.",
                if share >= 0.9 { "HELD" } else { "DID NOT HOLD" },
                share * 100.0,
            ));
        }
        results.push(Value::obj([
            ("workload", Value::str(w.name())),
            ("end_to_end", plain.result),
            ("per_layer", traced.result),
        ]));
    }
    println!("\nledger:");
    for l in &ledger_lines {
        println!("{l}");
    }
    let doc = Value::obj([
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("results", Value::Arr(results)),
    ]);
    let path = write_out("result.json", &doc).map_err(|e| format!("result.json: {e}"))?;
    println!("\nresults written to {}", path.display());
    if !ok {
        println!("FAILED: at least one run reported failed ops or exited non-zero");
    }
    Ok(ExitCode::from(u8::from(!ok)))
}

/// The acceptance check against itself: two sets of `AA_RUNS` plain runs per
/// workload (seeds `seed .. seed + AA_RUNS`), each metric's spread (IQR over
/// median) per set and the second median against the first.
fn aa(args: &Args) -> Result<ExitCode, String> {
    println!(
        "A/A: 2 sets x {} runs x 5 workloads x {} s, seeds {}..{}",
        AA_RUNS,
        args.seconds,
        args.seed,
        args.seed + AA_RUNS as u64 - 1
    );
    // values[set][workload][metric] = one value per run
    let mut values = vec![vec![vec![Vec::new(); END_TO_END.len()]; Workload::ALL.len()]; 2];
    let mut ok = true;
    for set in values.iter_mut() {
        for (w, per_metric) in Workload::ALL.into_iter().zip(set.iter_mut()) {
            for i in 0..AA_RUNS {
                let c = child(w, args.seed + i as u64, args.seconds, false, false)?;
                ok &= c.ok && c.count("failed") == 0;
                for (m, vals) in END_TO_END.iter().zip(per_metric.iter_mut()) {
                    vals.push(c.metric(m.name));
                }
            }
            eprintln!("  {} done", w.name());
        }
    }
    println!(
        "{:<9} {:<15} {:>12} {:>12} {:>8} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "median A", "median B", "spread A", "spread B", "B vs A", "bound"
    );
    for (wi, w) in Workload::ALL.into_iter().enumerate() {
        for (mi, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][wi][mi], &values[1][wi][mi]);
            let (ma, mb) = (stats::median(a), stats::median(b));
            let (sa, sb) = (stats::spread(a), stats::spread(b));
            // All four metrics are lower-is-better: worse means larger.
            let drift = mb / ma - 1.0;
            // `setup_s` is held to the median check only.
            let spread_ok = m.name == "setup_s" || (sa <= m.bound && sb <= m.bound);
            let pass = spread_ok && drift <= m.bound;
            ok &= pass;
            println!(
                "{:<9} {:<15} {:>12.4} {:>12.4} {:>7.2}% {:>7.2}% {:>+7.2}% {:>5.0}%  {}",
                w.name(),
                m.name,
                ma,
                mb,
                sa * 100.0,
                sb * 100.0,
                drift * 100.0,
                m.bound * 100.0,
                if pass { "PASS" } else { "FAIL" },
            );
        }
    }
    println!("{}", if ok { "A/A PASS" } else { "A/A FAIL" });
    Ok(ExitCode::from(u8::from(!ok)))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Some(w) => Ok(single(w, &args)),
        None if args.aa => aa(&args),
        None => all(&args),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = parse_args(&argv("--workload fanin --seed 7 --seconds 20 --trace 1")).unwrap();
        assert_eq!(a.workload, Some(Workload::Fanin));
        assert_eq!((a.seed, a.seconds, a.trace, a.aa), (7, 20.0, true, false));
        let d = parse_args(&[]).unwrap();
        assert_eq!(d.workload, None);
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(parse_args(&argv("--aa")).unwrap().aa);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--workload nope",
            "--seed x",
            "--seed",
            "--seconds 0",
            "--seconds nan",
            "--trace 2",
            "--frobnicate",
            "--aa --workload halo",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn per_layer_table_fits_the_contract() {
        assert!(report::PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
