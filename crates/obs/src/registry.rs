//! A labeled metrics registry unifying the stack's scattered counters.
//!
//! Before this crate, every subsystem grew its own ad-hoc statistics surface:
//! `rankmpi_vtime::stats` atomics inside `Vci`, depth accessors on the
//! matching engines, occupancy totals on `HwContext`, nothing at all on
//! `Nic`'s context pool. The registry gives them one home: a metric is a
//! `name` plus a small set of `label=value` pairs (vci id, rank, context id),
//! and its value is either a shared [`Counter`] or a shared [`Accumulator`]
//! from `rankmpi_vtime` — the exact same relaxed atomics the hand-rolled
//! counters already paid, so registering costs nothing on the hot path.
//!
//! Unlike the tracer, the registry is **always compiled**: counters are part
//! of the product surface (bench JSON export), not a debugging aid.
//!
//! Instances that are recreated per run (a `Vci`, a `Nic`) register with
//! [`Registry::insert_counter`] / [`Registry::insert_accum`], which *replace*
//! any series left behind by a previous `Universe` under the same key, so
//! sequential simulations in one process don't bleed counts into each other.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use rankmpi_vtime::{Accumulator, Counter};

use crate::json;

/// Labels attached to a metric: an ordered `key -> value` map rendered as
/// `{k1=v1,k2=v2}` in exported names.
pub type Labels = BTreeMap<&'static str, String>;

/// Build a [`Labels`] map from `(key, value)` pairs; values are anything
/// `Display`.
#[macro_export]
macro_rules! labels {
    ($($k:expr => $v:expr),* $(,)?) => {{
        let mut m: $crate::registry::Labels = ::std::collections::BTreeMap::new();
        $( m.insert($k, ::std::string::ToString::to_string(&$v)); )*
        m
    }};
}

/// The value side of a registered series.
#[derive(Debug, Clone)]
pub enum Metric {
    /// A monotonically increasing event count.
    Counter(Arc<Counter>),
    /// A count/sum/min/max sample accumulator (durations, sizes).
    Accum(Arc<Accumulator>),
}

/// A point-in-time reading of one series, for export.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (without labels).
    pub name: String,
    /// The series' labels.
    pub labels: BTreeMap<&'static str, String>,
    /// The read value.
    pub value: Value,
}

impl Sample {
    /// Fully qualified `name{k=v,...}` key (just `name` when unlabeled).
    pub fn key(&self) -> String {
        render_key(&self.name, &self.labels)
    }
}

/// A read metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Counter reading.
    Count(u64),
    /// Accumulator reading: number of samples, their sum, and the observed
    /// extrema (`None` when no samples were recorded).
    Stats {
        /// Number of recorded samples.
        count: u64,
        /// Sum of recorded samples.
        sum: u64,
        /// Smallest sample, if any.
        min: Option<u64>,
        /// Largest sample, if any.
        max: Option<u64>,
    },
}

fn render_key(name: &str, labels: &Labels) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", body.join(","))
}

struct Entry {
    name: String,
    labels: Labels,
    metric: Metric,
}

/// A set of named, labeled metric series.
///
/// Most code uses the process-wide [`global`] registry; tests can construct
/// private ones.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Entry>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter series `name{labels}`.
    pub fn counter(&self, name: &str, labels: Labels) -> Arc<Counter> {
        let key = render_key(name, &labels);
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.get(&key) {
            if let Metric::Counter(c) = &e.metric {
                return Arc::clone(c);
            }
        }
        let c = Arc::new(Counter::new());
        inner.insert(
            key,
            Entry {
                name: name.to_string(),
                labels,
                metric: Metric::Counter(Arc::clone(&c)),
            },
        );
        c
    }

    /// Get or create the accumulator series `name{labels}`.
    pub fn accum(&self, name: &str, labels: Labels) -> Arc<Accumulator> {
        let key = render_key(name, &labels);
        let mut inner = self.inner.lock().unwrap();
        if let Some(e) = inner.get(&key) {
            if let Metric::Accum(a) = &e.metric {
                return Arc::clone(a);
            }
        }
        let a = Arc::new(Accumulator::new());
        inner.insert(
            key,
            Entry {
                name: name.to_string(),
                labels,
                metric: Metric::Accum(Arc::clone(&a)),
            },
        );
        a
    }

    /// Register a *fresh* counter under `name{labels}`, replacing any series a
    /// previous instance left under the same key. Per-instance owners (`Vci`,
    /// `Nic`) use this so each new `Universe` starts from zero.
    pub fn insert_counter(&self, name: &str, labels: Labels) -> Arc<Counter> {
        let key = render_key(name, &labels);
        let c = Arc::new(Counter::new());
        self.inner.lock().unwrap().insert(
            key,
            Entry {
                name: name.to_string(),
                labels,
                metric: Metric::Counter(Arc::clone(&c)),
            },
        );
        c
    }

    /// Register a fresh accumulator under `name{labels}` (replace semantics,
    /// see [`insert_counter`](Self::insert_counter)).
    pub fn insert_accum(&self, name: &str, labels: Labels) -> Arc<Accumulator> {
        let key = render_key(name, &labels);
        let a = Arc::new(Accumulator::new());
        self.inner.lock().unwrap().insert(
            key,
            Entry {
                name: name.to_string(),
                labels,
                metric: Metric::Accum(Arc::clone(&a)),
            },
        );
        a
    }

    /// Read every series, sorted by qualified key.
    pub fn snapshot(&self) -> Vec<Sample> {
        let inner = self.inner.lock().unwrap();
        inner
            .values()
            .map(|e| Sample {
                name: e.name.clone(),
                labels: e.labels.clone(),
                value: match &e.metric {
                    Metric::Counter(c) => Value::Count(c.get()),
                    Metric::Accum(a) => Value::Stats {
                        count: a.count(),
                        sum: a.sum(),
                        min: a.min(),
                        max: a.max(),
                    },
                },
            })
            .collect()
    }

    /// Read the series whose name starts with `prefix`.
    pub fn snapshot_prefix(&self, prefix: &str) -> Vec<Sample> {
        self.snapshot()
            .into_iter()
            .filter(|s| s.name.starts_with(prefix))
            .collect()
    }

    /// Drop every series. Mainly for tests that need a clean global registry.
    pub fn reset(&self) {
        self.inner.lock().unwrap().clear();
    }
}

/// The process-wide registry the instrumented crates register into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// One sample as a JSON object: `key`, `name` and `count`, plus `sum`, `min`
/// and `max` for an accumulator (`null` extrema when it is empty).
fn sample_json(s: &Sample) -> json::Value {
    let mut fields = vec![
        ("key", json::Value::str(s.key())),
        ("name", json::Value::str(s.name.as_str())),
    ];
    match &s.value {
        Value::Count(n) => fields.push(("count", json::Value::int(*n))),
        Value::Stats {
            count,
            sum,
            min,
            max,
        } => {
            let ext = |v: &Option<u64>| v.map_or(json::Value::Null, json::Value::int);
            fields.extend([
                ("count", json::Value::int(*count)),
                ("sum", json::Value::int(*sum)),
                ("min", ext(min)),
                ("max", ext(max)),
            ]);
        }
    }
    json::Value::obj(fields)
}

/// The [`global`] registry's series whose name starts with `prefix` (empty
/// prefix: every series) as a JSON array of sample objects.
pub fn registry_samples(prefix: &str) -> json::Value {
    json::Value::Arr(
        global()
            .snapshot_prefix(prefix)
            .iter()
            .map(sample_json)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_series_are_shared_by_key() {
        let r = Registry::new();
        let a = r.counter("polls", labels! {"vci" => 0});
        let b = r.counter("polls", labels! {"vci" => 0});
        let other = r.counter("polls", labels! {"vci" => 1});
        a.incr();
        b.add(2);
        other.incr();
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].key(), "polls{vci=0}");
        assert_eq!(snap[0].value, Value::Count(3));
        assert_eq!(snap[1].value, Value::Count(1));
    }

    #[test]
    fn insert_replaces_stale_series() {
        let r = Registry::new();
        let old = r.insert_counter("acquires", labels! {"vci" => 3});
        old.add(10);
        let fresh = r.insert_counter("acquires", labels! {"vci" => 3});
        assert_eq!(fresh.get(), 0);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].value, Value::Count(0));
        // The old handle still works but is detached from the registry.
        old.incr();
        assert_eq!(r.snapshot()[0].value, Value::Count(0));
    }

    #[test]
    fn accumulators_snapshot_all_moments() {
        let r = Registry::new();
        let a = r.accum("hold_ns", labels! {"vci" => 2, "rank" => 0});
        a.record(5);
        a.record(15);
        let snap = r.snapshot();
        assert_eq!(snap[0].key(), "hold_ns{rank=0,vci=2}");
        assert_eq!(
            snap[0].value,
            Value::Stats {
                count: 2,
                sum: 20,
                min: Some(5),
                max: Some(15)
            }
        );
    }

    #[test]
    fn prefix_snapshot_and_reset() {
        let r = Registry::new();
        r.counter("nic.shared", Labels::new()).incr();
        r.counter("vci.polls", Labels::new()).incr();
        assert_eq!(r.snapshot_prefix("nic.").len(), 1);
        r.reset();
        assert!(r.snapshot().is_empty());
    }
}
