//! Lock-free counters and accumulators for experiment accounting.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::Nanos;

/// A monotonically increasing event counter (messages sent, collisions, bytes).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add `n` to a counter whose every writer holds one lock: the lock
    /// orders each writer's load and store, so no update is lost and no
    /// read-modify-write is needed. Readers outside the lock see some recent
    /// total. Never mix with [`add`](Self::add) on one counter.
    #[inline]
    pub fn add_held(&self, n: u64) {
        self.0
            .store(self.0.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Reset to zero, returning the previous value.
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// A count/sum/min/max accumulator over `u64` samples (durations, sizes).
///
/// All updates are relaxed atomics — the accumulator tolerates torn *ordering*
/// across fields under concurrency (a sample may be visible in `sum` before
/// `min`), which is fine for end-of-run reporting.
#[derive(Debug)]
pub struct Accumulator {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Accumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Accumulator {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// [`record`](Self::record) for an accumulator whose every writer holds
    /// one lock (see [`Counter::add_held`]): loads and stores, no
    /// read-modify-write and no CAS loop.
    pub fn record_held(&self, v: u64) {
        let held = |a: &AtomicU64, f: fn(u64, u64) -> u64| {
            a.store(f(a.load(Ordering::Relaxed), v), Ordering::Relaxed)
        };
        held(&self.count, |c, _| c + 1);
        held(&self.sum, u64::wrapping_add);
        held(&self.min, u64::min);
        held(&self.max, u64::max);
    }

    /// Record a duration sample.
    pub fn record_nanos(&self, v: Nanos) {
        self.record(v.as_ns());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest sample, `None` if empty.
    pub fn min(&self) -> Option<u64> {
        let c = self.count();
        (c > 0).then(|| self.min.load(Ordering::Relaxed))
    }

    /// Largest sample, `None` if empty.
    pub fn max(&self) -> Option<u64> {
        let c = self.count();
        (c > 0).then(|| self.max.load(Ordering::Relaxed))
    }

    /// Mean of samples, `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        let c = self.count();
        (c > 0).then(|| self.sum() as f64 / c as f64)
    }

    /// Clear back to the empty state (not atomic across fields; callers must
    /// quiesce recorders first, as between benchmark repetitions).
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

impl Default for Accumulator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn accumulator_tracks_all_moments() {
        let a = Accumulator::new();
        assert_eq!(a.min(), None);
        assert_eq!(a.mean(), None);
        for v in [5u64, 1, 9, 5] {
            a.record(v);
        }
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 20);
        assert_eq!(a.min(), Some(1));
        assert_eq!(a.max(), Some(9));
        assert_eq!(a.mean(), Some(5.0));
    }

    #[test]
    fn held_updates_under_one_mutex_lose_no_update() {
        let (c, a) = (Counter::new(), Accumulator::new());
        let lock = std::sync::Mutex::new(());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let (c, a, lock) = (&c, &a, &lock);
                s.spawn(move || {
                    for i in 0..10_000u64 {
                        let _held = lock.lock().unwrap();
                        c.add_held(2);
                        a.record_held(t * 10_000 + i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
        assert_eq!(a.count(), 40_000);
        assert_eq!(a.sum(), (0..40_000).sum::<u64>());
        assert_eq!((a.min(), a.max()), (Some(0), Some(39_999)));
    }

    #[test]
    fn accumulator_concurrent_sum_is_exact() {
        let a = std::sync::Arc::new(Accumulator::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let a = std::sync::Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        a.record(2);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.count(), 4000);
        assert_eq!(a.sum(), 8000);
        assert_eq!(a.min(), Some(2));
        assert_eq!(a.max(), Some(2));
    }
}
