//! Contention-aware locks: real mutual exclusion plus virtual-time cost modeling.

use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};

use crate::engine;
use crate::sched::{self, SchedPoint};
use crate::{Clock, Nanos, Resource};

/// Cost parameters for a [`ContentionLock`].
///
/// `acquire_base` is the uncontended acquisition cost (an uncontended CAS plus
/// pipeline effects). Each *additional concurrent waiter* adds `per_waiter`
/// of *latency* to the acquiring thread (cache-line bouncing, futex
/// sleep/wake) — this part overlaps with queueing, so it inflates individual
/// operation latency but not the lock's serial throughput. `handoff` is the
/// serialized cost of passing the lock from one holder to the next: it is
/// appended to every critical section and is what bounds a contended lock's
/// throughput (real queue locks hand off in roughly constant time). These
/// defaults are in the range reported by the multithreaded-MPI literature the
/// paper cites for lock-based critical-section entry on many-core Xeons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockCosts {
    /// Uncontended acquisition cost.
    pub acquire_base: Nanos,
    /// Extra latency per concurrent waiter observed at acquisition time.
    pub per_waiter: Nanos,
    /// Serialized holder-to-holder handoff cost under contention.
    pub handoff: Nanos,
}

impl Default for LockCosts {
    fn default() -> Self {
        LockCosts {
            acquire_base: Nanos(30),
            per_waiter: Nanos(10),
            handoff: Nanos(50),
        }
    }
}

/// A mutex protecting real shared state whose critical sections are also
/// serialized in *virtual* time.
///
/// The guard couples three things:
///
/// 1. real mutual exclusion over `T` (`parking_lot::Mutex`);
/// 2. virtual serialization — critical sections occupy non-overlapping
///    intervals of a gap-aware [`Resource`] that lives under the same mutex
///    as `T`, so reserving one takes no second lock. The interval is reserved at
///    [`release`](ContentionGuard::release), when the section's true length
///    is known: if the earliest fitting slot starts later than the section's
///    entry time (a genuine virtual collision with another holder), the
///    holder's clock is shifted by the difference. Reserving gap-aware slots
///    keeps real scheduling order from masquerading as virtual queueing: a
///    thread the OS ran late still gets the slot its virtual clock entitles
///    it to (compare [`Resource`]'s rationale);
/// 3. contention accounting — acquisition latency grows with waiters, and
///    totals are recorded so experiments can report synchronization overhead
///    (Lessons 3 and 14).
#[derive(Debug)]
pub struct ContentionLock<T> {
    inner: Mutex<Held<T>>,
    costs: LockCosts,
    /// Number of threads currently trying to acquire (incl. the holder).
    claimants: AtomicU64,
    /// Total virtual time spent on acquisition latency + collision shifts.
    /// Written only by the holder (see `add_held`).
    contended_total: AtomicU64,
    /// Written only by the holder (see `add_held`).
    acquisitions: AtomicU64,
    /// Engine tasks parked waiting for the real mutex; drained (and woken)
    /// by every release.
    task_waiters: Mutex<Vec<engine::Unparker>>,
}

/// What the real mutex guards: the protected value and the virtual
/// schedule of past critical sections.
#[derive(Debug)]
struct Held<T> {
    value: T,
    sections: Resource,
}

/// Add `n` to a counter that only the lock holder writes: the mutex orders
/// every writer's load and store, so no update is lost and no
/// read-modify-write is needed. Readers outside the lock see some recent
/// total.
fn add_held(counter: &AtomicU64, n: u64) {
    counter.store(counter.load(Ordering::Relaxed) + n, Ordering::Relaxed);
}

impl<T> ContentionLock<T> {
    /// Wrap `value` with default [`LockCosts`].
    pub fn new(value: T) -> Self {
        Self::with_costs(value, LockCosts::default())
    }

    /// Wrap `value` with explicit costs.
    pub fn with_costs(value: T, costs: LockCosts) -> Self {
        ContentionLock {
            inner: Mutex::new(Held {
                value,
                sections: Resource::new(),
            }),
            costs,
            claimants: AtomicU64::new(0),
            contended_total: AtomicU64::new(0),
            acquisitions: AtomicU64::new(0),
            task_waiters: Mutex::new(Vec::new()),
        }
    }

    /// Acquire the lock, charging the caller's virtual clock for acquisition
    /// latency. The critical section's serialization is settled at
    /// [`release`](ContentionGuard::release).
    pub fn lock<'a>(&'a self, clock: &mut Clock) -> ContentionGuard<'a, T> {
        let waiters_before = self.claimants.fetch_add(1, Ordering::AcqRel);

        // Real exclusion first: once we hold the mutex, the section's virtual
        // placement is computed single-threaded at release.
        let guard = self.acquire_inner();

        let acquire_cost = self.costs.acquire_base + self.costs.per_waiter * waiters_before;
        clock.advance(acquire_cost);
        add_held(&self.contended_total, acquire_cost.as_ns());
        add_held(&self.acquisitions, 1);

        ContentionGuard {
            lock: self,
            guard: ManuallyDrop::new(guard),
            entered_at: clock.now(),
        }
    }

    /// The cost parameters this lock charges (instrumentation uses
    /// `acquire_base` to distinguish contended from uncontended entries).
    pub fn costs(&self) -> LockCosts {
        self.costs
    }

    /// Total virtual time all threads spent acquiring (latency + collision
    /// shifts at release).
    pub fn contended_total(&self) -> Nanos {
        Nanos(self.contended_total.load(Ordering::Relaxed))
    }

    /// Number of successful acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Access the protected value without cost accounting (setup/teardown
    /// paths that are outside the modeled critical path). The guard still
    /// participates in engine-task wakeups: releasing it unparks any tasks
    /// parked on this lock.
    pub fn lock_unmodeled(&self) -> UnmodeledGuard<'_, T> {
        UnmodeledGuard {
            lock: self,
            guard: ManuallyDrop::new(self.acquire_inner()),
        }
    }

    /// Take the real mutex.
    ///
    /// Inside an engine task, contended acquisition *parks*: the task
    /// registers an [`engine::Unparker`] on the lock's waiter list and
    /// leaves the CPU until a release wakes it — this is what lets the
    /// holder (whose critical section may itself contain yield points) run
    /// to its release while arbitrarily many tasks queue at zero cost.
    /// Under a plain [`sched`] hook (no engine) the acquisition is a
    /// cooperative `try_lock` spin with a yield point between attempts.
    fn acquire_inner(&self) -> MutexGuard<'_, Held<T>> {
        if engine::in_task() {
            sched::yield_point(SchedPoint::LockAcquire);
            // Built once an attempt fails: it clones the `Arc` all tasks share.
            let mut up = None;
            loop {
                if let Some(g) = self.inner.try_lock() {
                    return g;
                }
                let up = up.get_or_insert_with(|| engine::current_unparker().expect("in a task"));
                self.task_waiters.lock().push(up.clone());
                // Re-check after registering: a release between the failed
                // try_lock and the registration already drained the list,
                // so parking now would never be woken.
                if let Some(g) = self.inner.try_lock() {
                    return g;
                }
                engine::park(SchedPoint::LockAcquire);
            }
        }
        if sched::armed() {
            sched::yield_point(SchedPoint::LockAcquire);
            loop {
                if let Some(g) = self.inner.try_lock() {
                    return g;
                }
                sched::yield_point(SchedPoint::LockAcquire);
            }
        }
        self.inner.lock()
    }

    /// Wake every engine task parked on this lock (called after the real
    /// mutex is released). Woken tasks re-try-lock and re-register if they
    /// lose the race.
    fn wake_task_waiters(&self) {
        if engine::ever_active() {
            let waiters = std::mem::take(&mut *self.task_waiters.lock());
            for w in waiters {
                w.unpark();
            }
        }
    }
}

/// Guard returned by [`ContentionLock::lock`]. Dereferences to the protected
/// value. [`release`](ContentionGuard::release) (or drop) ends the critical
/// section; `release` also reserves the section's slot in the lock's virtual
/// schedule, shifting the caller's clock if the section collided with another
/// holder's — prefer it whenever a `Clock` is available.
pub struct ContentionGuard<'a, T> {
    lock: &'a ContentionLock<T>,
    guard: ManuallyDrop<MutexGuard<'a, Held<T>>>,
    entered_at: Nanos,
}

impl<'a, T> ContentionGuard<'a, T> {
    /// End the critical section at the caller's current virtual time,
    /// settling its place in the lock's virtual schedule.
    pub fn release(mut self, clock: &mut Clock) {
        let busy = clock.now().saturating_sub(self.entered_at) + self.lock.costs.handoff;
        let acq = self.guard.sections.acquire_exclusive(self.entered_at, busy);
        let shift = acq.start.saturating_sub(self.entered_at);
        if shift > Nanos::ZERO {
            add_held(&self.lock.contended_total, shift.as_ns());
        }
        // `claimants` decremented in Drop; release the real mutex before
        // advancing the clock so the collision-shift yield point fires with
        // the critical section already over.
        drop(self);
        if shift > Nanos::ZERO {
            clock.advance(shift);
        }
        sched::yield_point(SchedPoint::LockRelease);
    }
}

impl<'a, T> std::ops::Deref for ContentionGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard.value
    }
}

impl<'a, T> std::ops::DerefMut for ContentionGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard.value
    }
}

impl<'a, T> Drop for ContentionGuard<'a, T> {
    fn drop(&mut self) {
        self.lock.claimants.fetch_sub(1, Ordering::AcqRel);
        // SAFETY: dropped exactly once, here. The real mutex must be
        // released *before* waking parked tasks so their re-try-lock can
        // succeed — waking first would strand them parked with their waiter
        // registration already drained.
        unsafe { ManuallyDrop::drop(&mut self.guard) };
        self.lock.wake_task_waiters();
    }
}

/// Guard returned by [`ContentionLock::lock_unmodeled`]: real exclusion
/// with no virtual-time accounting, but full engine-task wakeup semantics.
pub struct UnmodeledGuard<'a, T> {
    lock: &'a ContentionLock<T>,
    guard: ManuallyDrop<MutexGuard<'a, Held<T>>>,
}

impl<'a, T> std::ops::Deref for UnmodeledGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard.value
    }
}

impl<'a, T> std::ops::DerefMut for UnmodeledGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard.value
    }
}

impl<'a, T> Drop for UnmodeledGuard<'a, T> {
    fn drop(&mut self) {
        // SAFETY: dropped exactly once, here; release before waking (see
        // `ContentionGuard::drop`).
        unsafe { ManuallyDrop::drop(&mut self.guard) };
        self.lock.wake_task_waiters();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_lock_costs_base() {
        let l = ContentionLock::new(0u32);
        let mut c = Clock::new();
        let mut g = l.lock(&mut c);
        *g += 1;
        assert_eq!(c.now(), LockCosts::default().acquire_base);
        g.release(&mut c);
        assert_eq!(*l.lock_unmodeled(), 1);
        assert_eq!(l.acquisitions(), 1);
    }

    #[test]
    fn colliding_critical_sections_serialize_in_virtual_time() {
        let l = ContentionLock::with_costs(
            (),
            LockCosts {
                acquire_base: Nanos(10),
                per_waiter: Nanos(0),
                handoff: Nanos(0),
            },
        );
        // Thread A: enters at 10 (after acquire cost), works 100ns inside.
        let mut a = Clock::new();
        let g = l.lock(&mut a);
        a.advance(Nanos(100));
        g.release(&mut a);
        assert_eq!(a.now(), Nanos(110));

        // Thread B "at the same time": its section collides with A's and is
        // shifted behind it.
        let mut b = Clock::new();
        let g = l.lock(&mut b);
        b.advance(Nanos(5));
        g.release(&mut b);
        // B entered at 10, worked 5, then shifted past A's [10, 110) slot.
        assert_eq!(b.now(), Nanos(115));
    }

    #[test]
    fn virtually_disjoint_sections_do_not_interact() {
        let l = ContentionLock::with_costs(
            (),
            LockCosts {
                acquire_base: Nanos(0),
                per_waiter: Nanos(0),
                handoff: Nanos(0),
            },
        );
        // A virtually-late thread holds the lock first in real time...
        let mut late = Clock::starting_at(Nanos(10_000));
        let g = l.lock(&mut late);
        late.advance(Nanos(100));
        g.release(&mut late);
        // ...but a virtually-early thread's section backfills the gap,
        // unshifted. No time travel from real scheduling order.
        let mut early = Clock::starting_at(Nanos(50));
        let g = l.lock(&mut early);
        early.advance(Nanos(100));
        g.release(&mut early);
        assert_eq!(early.now(), Nanos(150));
    }

    #[test]
    fn waiters_inflate_latency() {
        let costs = LockCosts {
            acquire_base: Nanos(10),
            per_waiter: Nanos(100),
            handoff: Nanos(20),
        };
        let l = std::sync::Arc::new(ContentionLock::with_costs(0u64, costs));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = std::sync::Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                let mut c = Clock::new();
                for _ in 0..50 {
                    let mut g = l.lock(&mut c);
                    *g += 1;
                    g.release(&mut c);
                }
                c.now()
            }));
        }
        let times: Vec<Nanos> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(*l.lock_unmodeled(), 200);
        assert_eq!(l.acquisitions(), 200);
        // Every acquisition costs at least the base.
        assert!(times.iter().all(|t| *t >= Nanos(500)));
        assert!(l.contended_total() >= Nanos(10) * 200);
        // Waiter latency spreads entries out; whether sections collide then
        // depends on the interleaving, so only the per-thread floor is
        // deterministic: 50 acquisitions x 10ns base each.
        assert!(times.iter().min().unwrap() >= &Nanos(500));
    }

    #[test]
    fn holder_only_counters_lose_no_update() {
        // Empty sections: every tick a thread's clock takes is a charge the
        // lock also adds to `contended_total` (acquire latency or collision
        // shift), so the clocks' sum is what the counter must read.
        let costs = LockCosts {
            acquire_base: Nanos(3),
            per_waiter: Nanos(5),
            handoff: Nanos(7),
        };
        let l = ContentionLock::with_costs((), costs);
        let charged: Vec<Nanos> = std::thread::scope(|s| {
            let threads: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        let mut c = Clock::new();
                        for _ in 0..10_000 {
                            l.lock(&mut c).release(&mut c);
                        }
                        c.now()
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(l.acquisitions(), 40_000);
        assert_eq!(
            l.contended_total(),
            Nanos(charged.iter().map(|t| t.as_ns()).sum())
        );
    }

    #[test]
    fn guard_drop_without_release_still_decrements_claimants() {
        let l = ContentionLock::new(());
        let mut c = Clock::new();
        {
            let _g = l.lock(&mut c);
        }
        // A subsequent lock sees zero waiters, costing only base.
        let before = c.now();
        let g = l.lock(&mut c);
        assert_eq!(c.now() - before, LockCosts::default().acquire_base);
        g.release(&mut c);
    }
}
