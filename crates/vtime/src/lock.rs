//! Contention-aware locks: real mutual exclusion plus virtual-time cost modeling.

use std::mem::ManuallyDrop;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use crate::engine;
use crate::sched::{self, SchedPoint};
use crate::{Clock, Counter, Gvt, Nanos, Notify, Resource};

/// Cost parameters for a [`ContentionLock`].
///
/// `acquire_base` is what every acquisition costs (an uncontended CAS plus
/// pipeline effects). `handoff` is the serialized cost of passing the lock
/// from one holder to the next: it is appended to every critical section and
/// is what bounds a contended lock's throughput (real queue locks hand off in
/// roughly constant time). These defaults are in the range reported by the
/// multithreaded-MPI literature the paper cites for lock-based
/// critical-section entry on many-core Xeons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LockCosts {
    /// Cost of every acquisition.
    pub acquire_base: Nanos,
    /// Serialized holder-to-holder handoff cost, appended to every section.
    pub handoff: Nanos,
}

impl Default for LockCosts {
    fn default() -> Self {
        LockCosts {
            acquire_base: Nanos(30),
            handoff: Nanos(50),
        }
    }
}

/// A mutex protecting real shared state whose critical sections are also
/// serialized in *virtual* time: one real mutex plus the virtual schedule of
/// its critical sections, nothing else.
///
/// The mutex guards `T` together with a gap-aware [`Resource`] of past
/// sections, so reserving one takes no second lock. Acquiring charges
/// `acquire_base`. The section's interval (its length plus `handoff`) is
/// reserved at [`release`](ContentionGuard::release), when that length is
/// known: if the earliest fitting slot starts later than the section's entry
/// time, the section overlapped another one in virtual time, and the
/// holder's clock is shifted by the difference. That collision shift is the
/// only contention charge; how many real threads happen to be inside
/// [`lock`](Self::lock) costs nothing, so the OS's scheduling never shows up
/// as virtual queueing. Gap-aware reservation keeps a thread the OS ran late
/// in the slot its virtual clock entitles it to (compare [`Resource`]'s
/// rationale). Totals are recorded so experiments can report
/// synchronization overhead (Lessons 3 and 14).
///
/// A plain thread blocks on the mutex. An engine task or a `sched`-armed
/// thread waits through [`Notify::wait_until`] on a notifier every release
/// rings, so it parks (or yields) instead of holding its worker.
#[derive(Debug)]
pub struct ContentionLock<T> {
    inner: Mutex<Held<T>>,
    costs: LockCosts,
    /// Total virtual time charged for acquisitions and collision shifts.
    /// Written only by the holder ([`Counter::add_held`]).
    contended_total: Counter,
    /// Written only by the holder ([`Counter::add_held`]).
    acquisitions: Counter,
    /// Rung after every release once an engine has run: what tasks waiting
    /// for the mutex wait on.
    released: Notify,
}

/// What the real mutex guards: the protected value and the virtual
/// schedule of past critical sections.
#[derive(Debug)]
struct Held<T> {
    value: T,
    sections: Resource,
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
            contended_total: Counter::new(),
            acquisitions: Counter::new(),
            released: Notify::new(),
        }
    }

    /// This lock with its section schedule's history bounded by `gvt` (see
    /// [`Resource::pruned_by`]).
    pub fn pruned_by(mut self, gvt: &Arc<Gvt>) -> Self {
        let held = self.inner.get_mut();
        held.sections = std::mem::take(&mut held.sections).pruned_by(gvt);
        self
    }

    /// Acquire the lock, charging the caller's clock `acquire_base`. The
    /// critical section's serialization is settled at
    /// [`release`](ContentionGuard::release).
    pub fn lock<'a>(&'a self, clock: &mut Clock) -> ContentionGuard<'a, T> {
        let guard = self.lock_unmodeled();
        clock.advance(self.costs.acquire_base);
        self.contended_total
            .add_held(self.costs.acquire_base.as_ns());
        self.acquisitions.add_held(1);
        ContentionGuard {
            guard,
            entered_at: clock.now(),
        }
    }

    /// The cost parameters this lock charges. A
    /// [`release`](ContentionGuard::release) shift of at most `handoff`
    /// only waited out a handoff (possibly the caller's own previous one);
    /// a larger one queued behind another holder's section.
    pub fn costs(&self) -> LockCosts {
        self.costs
    }

    /// Total virtual time all threads were charged by this lock
    /// (acquisitions plus collision shifts at release).
    pub fn contended_total(&self) -> Nanos {
        Nanos(self.contended_total.get())
    }

    /// Number of successful acquisitions.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.get()
    }

    /// Take the real mutex without cost accounting (setup/teardown paths
    /// outside the modeled critical path, and the first half of
    /// [`lock`](Self::lock)).
    pub fn lock_unmodeled(&self) -> UnmodeledGuard<'_, T> {
        let guard = if engine::in_task() || sched::armed() {
            sched::yield_point(SchedPoint::LockAcquire);
            self.released.wait_until(|| self.inner.try_lock())
        } else {
            self.inner.lock()
        };
        UnmodeledGuard {
            lock: self,
            guard: ManuallyDrop::new(guard),
        }
    }
}

/// Guard returned by [`ContentionLock::lock`]: an [`UnmodeledGuard`] plus the
/// section's entry time. Dereferences to the protected value.
/// [`release`](ContentionGuard::release) (or drop) ends the critical section;
/// `release` also reserves the section's slot in the lock's virtual
/// schedule — prefer it whenever a `Clock` is available.
pub struct ContentionGuard<'a, T> {
    guard: UnmodeledGuard<'a, T>,
    entered_at: Nanos,
}

impl<'a, T> ContentionGuard<'a, T> {
    /// End the critical section at the caller's current virtual time,
    /// settling its place in the lock's virtual schedule. Returns the
    /// collision shift the caller's clock took: greater than zero exactly
    /// when the section overlapped an earlier one (with its handoff) in
    /// virtual time.
    pub fn release(self, clock: &mut Clock) -> Nanos {
        let ContentionGuard {
            mut guard,
            entered_at,
        } = self;
        let lock = guard.lock;
        let busy = clock.now().saturating_sub(entered_at) + lock.costs.handoff;
        let acq = guard.guard.sections.acquire_exclusive(entered_at, busy);
        let shift = acq.start.saturating_sub(entered_at);
        if shift > Nanos::ZERO {
            lock.contended_total.add_held(shift.as_ns());
        }
        // Release the real mutex before advancing the clock, so the
        // collision-shift yield point fires with the critical section over.
        drop(guard);
        if shift > Nanos::ZERO {
            clock.advance(shift);
        }
        sched::yield_point(SchedPoint::LockRelease);
        shift
    }
}

impl<'a, T> std::ops::Deref for ContentionGuard<'a, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<'a, T> std::ops::DerefMut for ContentionGuard<'a, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// Guard returned by [`ContentionLock::lock_unmodeled`]: real exclusion with
/// no virtual-time accounting.
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
        // SAFETY: dropped exactly once, here. The mutex is released before
        // the notify, so a task the notify wakes finds it free.
        unsafe { ManuallyDrop::drop(&mut self.guard) };
        if engine::ever_active() {
            self.lock.released.notify();
        }
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
        assert_eq!(g.release(&mut c), Nanos::ZERO);
        assert_eq!(*l.lock_unmodeled(), 1);
        assert_eq!(l.acquisitions(), 1);
    }

    #[test]
    fn colliding_critical_sections_serialize_in_virtual_time() {
        let l = ContentionLock::with_costs(
            (),
            LockCosts {
                acquire_base: Nanos(10),
                handoff: Nanos(0),
            },
        );
        // Thread A: enters at 10 (after acquire cost), works 100ns inside.
        let mut a = Clock::new();
        let g = l.lock(&mut a);
        a.advance(Nanos(100));
        assert_eq!(g.release(&mut a), Nanos::ZERO);
        assert_eq!(a.now(), Nanos(110));

        // Thread B "at the same time": its section collides with A's and is
        // shifted behind it.
        let mut b = Clock::new();
        let g = l.lock(&mut b);
        b.advance(Nanos(5));
        // B entered at 10, worked 5, then shifted past A's [10, 110) slot.
        assert_eq!(g.release(&mut b), Nanos(100));
        assert_eq!(b.now(), Nanos(115));
    }

    #[test]
    fn virtually_disjoint_sections_do_not_interact() {
        let l = ContentionLock::with_costs(
            (),
            LockCosts {
                acquire_base: Nanos(0),
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
        assert_eq!(g.release(&mut early), Nanos::ZERO);
        assert_eq!(early.now(), Nanos(150));
    }

    #[test]
    fn concurrent_sections_are_disjoint_in_virtual_time() {
        // Whatever the interleaving: every acquisition counts, and every
        // section (plus its handoff) gets its own slot of the schedule.
        let (section, handoff) = (Nanos(40), Nanos(20));
        let costs = LockCosts {
            acquire_base: Nanos(10),
            handoff,
        };
        let l = ContentionLock::with_costs(0u64, costs);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let mut c = Clock::new();
                    for _ in 0..50 {
                        let mut g = l.lock(&mut c);
                        *g += 1;
                        c.advance(section);
                        g.release(&mut c);
                    }
                });
            }
        });
        assert_eq!(l.acquisitions(), 200);
        let held = l.inner.lock();
        assert_eq!(held.value, 200);
        assert_eq!(held.sections.busy_total(), (section + handoff) * 200);
        assert!(
            held.sections.next_free() >= held.sections.busy_total(),
            "200 disjoint slots need at least their summed length"
        );
    }

    #[test]
    fn holder_only_counters_lose_no_update() {
        // Empty sections: every tick a thread's clock takes is a charge the
        // lock also adds to `contended_total` (acquisition or collision
        // shift), so the clocks' sum is what the counter must read.
        let costs = LockCosts {
            acquire_base: Nanos(3),
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
    fn a_dropped_guard_wakes_a_task_parked_on_the_lock() {
        // One worker, and whichever task the engine admits first runs ahead
        // in virtual time until the other has reached its side: the waiter
        // tries the lock only while the holder holds it, and parks. Only the
        // holder's drop — no `release` — can wake it.
        use std::sync::atomic::{AtomicBool, Ordering};
        let l = ContentionLock::new(0u32);
        let (held, trying) = (AtomicBool::new(false), AtomicBool::new(false));
        let (l, held, trying) = (&l, &held, &trying);
        let wait_for = |flag: &AtomicBool, c: &mut Clock| {
            while !flag.load(Ordering::Relaxed) {
                c.advance(Nanos(1_000));
            }
        };
        let tasks: Vec<engine::TaskFn<'_, ()>> = vec![
            Box::new(move || {
                let mut c = Clock::new();
                let mut g = l.lock(&mut c);
                held.store(true, Ordering::Relaxed);
                wait_for(trying, &mut c);
                *g += 1;
            }),
            Box::new(move || {
                let mut c = Clock::new();
                wait_for(held, &mut c);
                trying.store(true, Ordering::Relaxed);
                let mut g = l.lock(&mut c);
                *g += 1;
                g.release(&mut c);
            }),
        ];
        let out = engine::run(
            engine::EngineConfig {
                dispatch: engine::Dispatch::VirtualTime {
                    workers: 1,
                    slack: Nanos(100),
                },
                step_cap: 1_000_000,
                stack_size: 256 * 1024,
            },
            tasks,
        );
        assert!(out.panic.is_none(), "{:?}", out.panic);
        assert_eq!(out.metrics.parked, 1, "the waiter parked on the lock");
        assert_eq!(*l.lock_unmodeled(), 2);
    }
}
