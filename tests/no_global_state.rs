//! No process-global state: a universe owns what it runs on.
//!
//! Scans the library sources (`crates/*/src`) for `static` items whose type
//! holds mutable state — `Atomic*`, `Mutex`, `RwLock` or `OnceLock` — outside
//! `thread_local!`, and fails on any not in [`ALLOWED`]. Such a static is
//! shared by every universe a process runs, so whatever it holds (ids,
//! tables, counters) depends on what ran before and leaks between runs.

use std::fs;
use std::path::{Path, PathBuf};

/// The documented exceptions: `(file under crates/, item, why)`.
const ALLOWED: &[(&str, &str, &str)] = &[
    (
        "obs/src/trace.rs",
        "ACTIVE",
        "the tracer's recording flag: its rings are process-global until each universe owns its own",
    ),
    (
        "obs/src/trace.rs",
        "BUFS",
        "the tracer's registry of per-thread rings (same)",
    ),
    (
        "obs/src/trace.rs",
        "SESSION",
        "the tracer's one-session-at-a-time turn (same)",
    ),
    (
        "vtime/src/engine.rs",
        "EVER_ACTIVE",
        "a latch that lets a process that never ran a task engine skip task-waiter bookkeeping",
    ),
    (
        "vtime/src/notify.rs",
        "WAKE_LATENCY_NS",
        "the smoothed wake-up latency: a property of the host, not of a universe",
    ),
];

const STATEFUL: &[&str] = &["Atomic", "Mutex", "RwLock", "OnceLock"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `(name, type)` of a `static` declared on `line`, if any.
fn static_item(line: &str) -> Option<(&str, &str)> {
    let mut rest = line.trim_start();
    if let Some(r) = rest.strip_prefix("pub") {
        rest = match r.strip_prefix('(') {
            Some(r) => &r[r.find(')')? + 1..],
            None => r,
        }
        .trim_start();
    }
    let rest = rest.strip_prefix("static ")?.trim_start();
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let (name, ty) = rest.split_once(':')?;
    Some((name.trim(), ty))
}

/// Every stateful `static` outside `thread_local!` in `src`, as
/// `(line number, name)`.
fn stateful_statics(src: &str) -> Vec<(usize, String)> {
    let mut found = Vec::new();
    // Brace depth inside a `thread_local!` invocation, if in one.
    let mut thread_local: Option<i64> = None;
    for (i, line) in src.lines().enumerate() {
        let code = line.split("//").next().unwrap();
        if thread_local.is_none() && code.contains("thread_local!") {
            thread_local = Some(0);
        }
        match thread_local.as_mut() {
            Some(depth) => {
                *depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
                if *depth <= 0 && (code.contains('}') || code.trim_end().ends_with(';')) {
                    thread_local = None;
                }
            }
            None => {
                if let Some((name, ty)) = static_item(code) {
                    if STATEFUL.iter().any(|s| ty.contains(s)) {
                        found.push((i + 1, name.to_string()));
                    }
                }
            }
        }
    }
    found
}

#[test]
fn the_scanner_sees_statics_and_skips_thread_locals() {
    let src = "\
static A: AtomicU64 = AtomicU64::new(0);
pub(crate) static B: Mutex<Vec<u8>> = Mutex::new(Vec::new());
static C: &[u8] = &[];
thread_local! {
    static D: Cell<u64> = const { Cell::new(0) };
    static E: RefCell<Option<Arc<Mutex<u8>>>> = const { RefCell::new(None) };
}
fn f() {
    static F: OnceLock<RwLock<u8>> = OnceLock::new();
}
";
    let names: Vec<String> = stateful_statics(src).into_iter().map(|(_, n)| n).collect();
    assert_eq!(names, ["A", "B", "F"]);
}

#[test]
fn library_sources_hold_no_process_global_state() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut files = Vec::new();
    for krate in fs::read_dir(&crates).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files.sort();
    assert!(!files.is_empty(), "no sources under {}", crates.display());
    let mut unexpected = Vec::new();
    let mut allowed_seen = Vec::new();
    for file in &files {
        let rel = file.strip_prefix(&crates).unwrap().to_string_lossy();
        for (line, name) in stateful_statics(&fs::read_to_string(file).unwrap()) {
            if ALLOWED.iter().any(|&(f, n, _)| f == rel && n == name) {
                allowed_seen.push((rel.to_string(), name));
            } else {
                unexpected.push(format!("crates/{rel}:{line}: static {name}"));
            }
        }
    }
    assert!(
        unexpected.is_empty(),
        "process-global state in library sources (keep it in a universe, or \
         document why it is a property of the process in ALLOWED):\n{}",
        unexpected.join("\n")
    );
    // A stale exception would let its name come back unnoticed.
    for &(file, name, _) in ALLOWED {
        assert!(
            allowed_seen.iter().any(|(f, n)| f == file && n == name),
            "ALLOWED names crates/{file}'s {name}, which no longer exists"
        );
    }
}
