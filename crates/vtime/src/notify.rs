//! Progress-event notification: the wake path between a deposit (a request
//! completion, a barrier turning) and the caller blocked on it, and
//! [`Notify::wait_until`], the one way a caller blocks.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::engine;
use crate::sched::{self, SchedPoint};

/// How long a thread-launched waiter sleeps before it re-polls although the
/// version has not moved: a backstop against a condition that changes
/// without a notify, never the wake path itself.
const RE_POLL: Duration = Duration::from_millis(1);

/// How long a bounded wait may block before it must look at `deadline`
/// again: [`RE_POLL`], cut to what is left, zero once it has passed.
fn poll_interval(deadline: Instant, now: Instant) -> Duration {
    deadline.saturating_duration_since(now).min(RE_POLL)
}

/// Busy polls (`spin_loop` + one load; 100 of them take 1.1–1.4 µs on the
/// 2.1 GHz Xeon this was written on) before a thread-launched waiter starts
/// giving its timeslice away between polls. A count, not a time: it only
/// delays the first `yield_now`; the time budget below governs how long
/// polling lasts.
const SPIN_POLLS: u32 = 100;

/// Ceiling on the polling phase of one [`Notify::wait_past`], and the budget
/// used until the process has observed a wake of its own.
///
/// The budget proper is twice the smoothed notify→wakeup latency sleepers
/// measure: long enough that a rank whose peer just parked is still polling
/// when the woken peer's reply arrives, so one park does not turn every later
/// handoff into a wake. On the 2-vCPU host this was measured on, sleepers in
/// `benchmark/`'s pinned `pingpong` observe 10–470 µs, median 49 µs (the
/// estimate settles at 65–75 µs, the budget at 130–150 µs), so a 200 µs
/// ceiling sits just above what the measurement asks for and bounds what a
/// sleeper that was descheduled for milliseconds can make later waiters
/// burn. The workload itself is flat in the budget once it covers a wake:
/// `pingpong` wall ns per round trip at a *fixed* budget of 2 / 10 / 25 / 50 /
/// 100 / 200 / 400 / 900 µs is 46 853 / 4 809 / 5 036 / 4 850 / 5 537 / 4 978 /
/// 4 993 / 4 857 (5 s runs, seed 3; 61 795 without polling), and the
/// thread-launched examples with more rank threads than CPUs run no slower
/// than without polling because the phase yields between polls.
const POLL_CEILING: Duration = Duration::from_micros(200);

/// Smoothed notify→wakeup latency (ns) observed by sleepers of any notifier
/// in this process; 0 until the first sample. A property of the host and its
/// load rather than of one notifier, hence process-wide. `Relaxed`: a
/// statistic that publishes no other data and only sizes the polling budget.
static WAKE_LATENCY_NS: AtomicU64 = AtomicU64::new(0);

/// How long a waiter polls before it parks, given the smoothed wake latency
/// (`wake_ns`, 0 = none observed yet): twice that latency, at most
/// [`POLL_CEILING`], which also stands in until a wake was observed.
fn poll_budget(wake_ns: u64) -> Duration {
    match wake_ns {
        0 => POLL_CEILING,
        ns => Duration::from_nanos(ns.saturating_mul(2)).min(POLL_CEILING),
    }
}

/// The estimate after folding in one observed wake latency: the first sample
/// whole, later ones with weight 1/8. Samples are cut at [`POLL_CEILING`]
/// (a sleeper that was descheduled reads milliseconds, which says nothing
/// more about the budget than "the ceiling"). Never 0, which means "no
/// sample".
fn smoothed(wake_ns: u64, sample: Duration) -> u64 {
    let sample = sample.min(POLL_CEILING).as_nanos() as u64;
    match wake_ns {
        0 => sample,
        old => old - old / 8 + sample / 8,
    }
    .max(1)
}

/// A progress-event channel: one atomic version word with a sleep/park slow
/// path beside it.
///
/// Every packet deposit (and, at the MPI layer, every request completion)
/// bumps the version. Blocking operations wait in
/// [`wait_until`](Self::wait_until): read the version, poll their condition,
/// and wait for the version to move past what they read.
///
/// A [`notify`](Self::notify) that finds nobody sleeping or parked is one
/// read-modify-write and two loads: no lock, no syscall. Only a non-zero
/// sleeper or task-waiter count sends it into the slow path (condvar mutex +
/// `notify_all`, unparker drain).
///
/// **No lost wakeups** rests on one `SeqCst` store→load pairing, the same on
/// both slow paths. The waiter publishes its count (`sleepers` while holding
/// the condvar mutex, `waiters` together with its queued unparker), *then*
/// re-reads the version, *then* sleeps or parks. The notifier bumps the
/// version, *then* reads the counts. In the single total order of these
/// `SeqCst` operations either the notifier's count load follows the waiter's
/// increment — it takes the slow path, and because a sleeper holds the
/// condvar mutex from before its increment until it is enqueued on the
/// condvar, the notifier's pass through that mutex orders its `notify_all`
/// after the enqueue — or the waiter's version re-read follows the bump and
/// it does not sleep at all.
#[derive(Debug, Default)]
pub struct Notify {
    /// The version word. `SeqCst` everywhere: it is one half of the pairing
    /// above, and its RMW releases what the notifier published before it
    /// (completion flags, ring entries) to whoever reads the moved version.
    version: AtomicU64,
    /// Threads in the sleep phase of `wait_past`, i.e. holding or waiting on
    /// `sleep`. `SeqCst`: the other half of the pairing.
    sleepers: AtomicUsize,
    /// The condvar's mutex; holds when the last slow-path notify fired, so a
    /// woken sleeper can measure the wake it just paid for.
    sleep: Mutex<Option<Instant>>,
    cv: Condvar,
    /// Engine tasks parked until the version moves, drained by every
    /// notification that sees a non-zero `waiters`.
    task_waiters: Mutex<Vec<engine::Unparker>>,
    /// `task_waiters.len()` as of its last unlock (incremented with the push,
    /// decremented by the drainer, both under that lock). `SeqCst`: the
    /// task-side half of the pairing.
    waiters: AtomicUsize,
    /// Notifies that found a sleeper or a task waiter. `Relaxed`: a
    /// statistic, publishes nothing.
    wakes: AtomicU64,
    /// `v + 1` when the last sleep on version `v` ran out its whole timeout
    /// (0: none): whoever waits on that same version again goes straight to
    /// sleep, so an idle waiter's re-polls cost a futex wait each, not a
    /// polling budget each. `SeqCst` for uniformity; only a policy hint —
    /// any value is safe.
    idle_past: AtomicU64,
}

impl Notify {
    /// New notifier at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current version: one load.
    ///
    /// Public for `benchmark/`'s probes, which time the raw wake path; code in
    /// the workspace blocks through [`wait_until`](Self::wait_until) (CI
    /// rejects other callers of `wait_past`), because the order is the whole
    /// contract: `PrecvRequest::wait` once read the version *after* draining
    /// and checking, and a partition landing in between parked a task for good.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Notifies so far that found somebody to wake (a sleeping thread or a
    /// parked task) and took the slow path. `wakes() / version()` is the share
    /// of notifications that were not free.
    pub fn wakes(&self) -> u64 {
        self.wakes.load(Ordering::Relaxed)
    }

    /// Threads currently in the sleep phase of [`wait_past`](Self::wait_past)
    /// (tests use it to observe that a waiter is past its polling phase).
    #[cfg(test)]
    pub(crate) fn sleepers(&self) -> usize {
        self.sleepers.load(Ordering::SeqCst)
    }

    /// Bump the version and wake whoever sleeps or is parked on it.
    #[inline]
    pub fn notify(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
        let sleepers = self.sleepers.load(Ordering::SeqCst);
        let waiters = self.waiters.load(Ordering::SeqCst);
        if sleepers != 0 || waiters != 0 {
            self.wake(sleepers != 0, waiters != 0);
        }
    }

    /// The slow path of [`notify`](Self::notify), entered only with somebody
    /// to wake: `notify_all` for sleeping threads, an unparker drain for
    /// parked tasks.
    #[cold]
    fn wake(&self, sleepers: bool, waiters: bool) {
        self.wakes.fetch_add(1, Ordering::Relaxed);
        if sleepers {
            // Through the mutex, not around it: see the type doc.
            *self.sleep.lock() = Some(Instant::now());
            self.cv.notify_all();
        }
        if waiters {
            let parked = {
                let mut q = self.task_waiters.lock();
                self.waiters.fetch_sub(q.len(), Ordering::SeqCst);
                std::mem::take(&mut *q)
            };
            for w in parked {
                w.unpark();
            }
        }
    }

    /// Block until `poll` returns `Some`, and return what it returned.
    ///
    /// Each round reads the version, *then* runs `poll`, and on `None` waits
    /// for the version to move past what it read: a notify landing after the
    /// read ends that wait at once, one landing before it was seen by `poll`.
    /// Between rounds an engine task parks, a `sched`-armed thread yields, a
    /// plain thread polls, then sleeps with a 1 ms re-poll. `poll` may run any
    /// number of times; what must happen before blocking (a drain, flushing a
    /// credit batch) belongs in it.
    pub fn wait_until<T>(&self, poll: impl FnMut() -> Option<T>) -> T {
        self.wait_until_deadline(None, poll)
            .expect("a wait without a deadline ends only with what `poll` found")
    }

    /// [`wait_until`](Self::wait_until) that gives up once the real-time
    /// `deadline` has passed (`None`: never), returning `None`. `poll` runs
    /// at least once. An engine task parks until a notify whatever the
    /// deadline: it has no wall clock to wake on.
    pub fn wait_until_deadline<T>(
        &self,
        deadline: Option<Instant>,
        mut poll: impl FnMut() -> Option<T>,
    ) -> Option<T> {
        loop {
            let seen = self.version();
            if let Some(t) = poll() {
                return Some(t);
            }
            let timeout = deadline.map_or(RE_POLL, |d| poll_interval(d, Instant::now()));
            if timeout.is_zero() {
                return None;
            }
            // The window a lost wakeup lives in, between the failed check and
            // the wait: explored schedules may run a notifier here. Under
            // `VirtualTime` the park below is the switch point; yielding here
            // would only hand the slot away to come back and park.
            if sched::hooked() {
                sched::yield_point(SchedPoint::NotifyWait);
            }
            self.wait_past(seen, timeout);
        }
    }

    /// Wait until the version moves past `seen` or `timeout` elapses, and
    /// return the version last observed. Public for `benchmark/`'s probes
    /// only: see [`version`](Self::version).
    ///
    /// A plain OS thread goes through three phases, all counted against
    /// `timeout` (a zero `timeout` returns after one load):
    /// 1. *spin*: `SPIN_POLLS` × (`spin_loop`, load) — ≈1 µs, for a peer
    ///    that is already replying;
    /// 2. *yield*: (`yield_now`, load) until a time budget of twice the wake
    ///    latency this process has observed, at most `POLL_CEILING`. The
    ///    yield is what keeps this safe with more rank threads than CPUs: a
    ///    polling thread gives its slice to whoever would notify it;
    /// 3. *sleep*: register as a sleeper, re-read the version, and `wait_for`
    ///    the remainder on the condvar.
    ///
    /// Phases 1–2 are skipped when the last wait on this same `seen` ran out
    /// its timeout — an idle waiter polls once, then only sleeps until the
    /// version moves.
    ///
    /// Two kinds of caller never poll. An engine task *parks*: it queues its
    /// unparker, re-reads the version and parks until a notify drains the
    /// queue, so idle tasks cost no CPU and no timeout. A thread under a
    /// plain [`sched`] hook yields once to the deterministic scheduler and
    /// returns. Neither reads a wall clock, so explored schedules and replay
    /// strings do not depend on the host.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> u64 {
        if let Some(up) = engine::current_unparker() {
            loop {
                let v = self.version();
                if v > seen {
                    return v;
                }
                {
                    let mut q = self.task_waiters.lock();
                    q.push(up.clone());
                    self.waiters.fetch_add(1, Ordering::SeqCst);
                }
                // Published: a notify from here on drains us, one from before
                // the increment is caught by this re-read (the entry it
                // leaves queued costs one spurious unpark, which `park`
                // tolerates).
                let v = self.version();
                if v > seen {
                    return v;
                }
                engine::park();
            }
        }
        let v = self.version();
        if v > seen {
            return v;
        }
        if sched::armed() {
            sched::yield_point(SchedPoint::NotifyWait);
            return self.version();
        }
        if timeout.is_zero() {
            return v;
        }
        let entered = Instant::now();
        if self.idle_past.load(Ordering::SeqCst) != seen + 1 {
            let budget = poll_budget(WAKE_LATENCY_NS.load(Ordering::Relaxed)).min(timeout);
            if let Some(v) = self.poll_past(seen, entered, budget) {
                return v;
            }
        }
        let remaining = timeout.saturating_sub(entered.elapsed());
        let v = if remaining.is_zero() {
            self.version()
        } else {
            self.sleep_past(seen, remaining)
        };
        if v <= seen {
            self.idle_past.store(seen + 1, Ordering::SeqCst);
        }
        v
    }

    /// Phases 1–2 of [`wait_past`](Self::wait_past): `Some(version)` as soon
    /// as it moves past `seen`, `None` once `budget` (counted from `entered`)
    /// is spent. The clock is read only between yields, never while spinning.
    fn poll_past(&self, seen: u64, entered: Instant, budget: Duration) -> Option<u64> {
        let mut spins = 0;
        loop {
            if spins < SPIN_POLLS {
                spins += 1;
                std::hint::spin_loop();
            } else if entered.elapsed() < budget {
                std::thread::yield_now();
            } else {
                return None;
            }
            let v = self.version();
            if v > seen {
                return Some(v);
            }
        }
    }

    /// Phase 3 of [`wait_past`](Self::wait_past): sleep on the condvar for at
    /// most `timeout` unless the version has moved past `seen`, and feed the
    /// wake latency into the process-wide estimate when a notify woke us.
    fn sleep_past(&self, seen: u64, timeout: Duration) -> u64 {
        let mut last_notify = self.sleep.lock();
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let mut v = self.version();
        if v <= seen {
            let asleep_from = Instant::now();
            let _ = self.cv.wait_for(&mut last_notify, timeout);
            v = self.version();
            // The notify that moved the version saw our count and stamped the
            // mutex while we slept; an older stamp means the timeout woke us
            // just ahead of that notify's pass through the mutex.
            if let Some(at) = last_notify.filter(|at| v > seen && *at >= asleep_from) {
                let estimate = smoothed(WAKE_LATENCY_NS.load(Ordering::Relaxed), at.elapsed());
                WAKE_LATENCY_NS.store(estimate, Ordering::Relaxed);
            }
        }
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wait_past_returns_immediately_if_moved() {
        let n = Notify::new();
        n.notify();
        assert_eq!(n.wait_past(0, Duration::from_secs(10)), 1);
    }

    #[test]
    fn wait_past_times_out_without_progress() {
        let n = Notify::new();
        // A zero timeout is one load: any wait that polled or slept and saw
        // nothing would have marked the version idle.
        assert_eq!(n.wait_past(0, Duration::ZERO), 0);
        assert_eq!(n.idle_past.load(Ordering::SeqCst), 0);
        assert_eq!(n.wait_past(0, Duration::from_millis(10)), 0);
        assert_eq!(n.idle_past.load(Ordering::SeqCst), 1, "version 0 is idle");
        assert_eq!((n.sleepers(), n.wakes()), (0, 0));
    }

    /// Spawn a waiter that returns the first moved version it sees.
    fn waiter(n: &Arc<Notify>) -> std::thread::JoinHandle<u64> {
        let n = Arc::clone(n);
        std::thread::spawn(move || n.wait_past(0, Duration::from_secs(30)))
    }

    #[test]
    fn parked_sleepers_are_woken_by_one_notify() {
        for count in [1, 2] {
            let n = Arc::new(Notify::new());
            let from = Instant::now();
            let threads: Vec<_> = (0..count).map(|_| waiter(&n)).collect();
            // Observed, not slept for: every waiter is past its polling
            // phase and registered under the condvar mutex.
            while n.sleepers() < count {
                std::thread::yield_now();
            }
            assert_eq!(n.wakes(), 0);
            n.notify();
            for t in threads {
                assert_eq!(t.join().unwrap(), 1);
            }
            assert_eq!(n.wakes(), 1, "one notify, one slow path");
            assert!(
                from.elapsed() < Duration::from_secs(20),
                "woken, not timed out"
            );
            assert_eq!(n.sleepers(), 0);
        }
    }

    #[test]
    fn poll_interval_never_sleeps_past_the_deadline() {
        let now = Instant::now();
        let ms = Duration::from_millis;
        assert_eq!(poll_interval(now + ms(20), now), RE_POLL);
        let left = Duration::from_micros(300);
        assert_eq!(poll_interval(now + left, now), left);
        assert_eq!(poll_interval(now, now), Duration::ZERO);
        assert_eq!(poll_interval(now, now + ms(3)), Duration::ZERO);
    }

    #[test]
    fn a_passed_deadline_polls_once_and_gives_up() {
        let n = Notify::new();
        let mut polls = 0;
        let none = n.wait_until_deadline(Some(Instant::now()), || {
            polls += 1;
            None::<()>
        });
        assert_eq!((none, polls), (None, 1));
        assert_eq!(
            n.wait_until_deadline(Some(Instant::now()), || Some(7)),
            Some(7)
        );
    }

    #[test]
    fn notify_without_waiters_stays_on_the_fast_path() {
        let n = Notify::new();
        for _ in 0..1000 {
            n.notify();
        }
        assert_eq!(n.version(), 1000);
        assert_eq!(n.wakes(), 0);
    }

    #[test]
    fn poll_budget_is_twice_the_smoothed_wake_up_to_the_ceiling() {
        assert_eq!(poll_budget(0), POLL_CEILING, "no sample yet");
        assert_eq!(poll_budget(20_000), Duration::from_micros(40));
        assert_eq!(poll_budget(u64::MAX), POLL_CEILING);
        // First sample whole, then weight 1/8; never back to "no sample".
        assert_eq!(smoothed(0, Duration::from_micros(24)), 24_000);
        assert_eq!(smoothed(24_000, Duration::from_micros(8)), 22_000);
        assert_eq!(
            smoothed(0, Duration::from_secs(1)),
            POLL_CEILING.as_nanos() as u64
        );
        assert_eq!(smoothed(0, Duration::ZERO), 1);
        assert_eq!(smoothed(1, Duration::ZERO), 1);
    }
}
