//! Per-thread virtual clocks.

use crate::gvt::Cover;
use crate::Nanos;

/// The virtual clock of one simulated thread.
///
/// A `Clock` is owned by exactly one executing thread and is advanced by every
/// modeled operation that thread performs: CPU overheads, time spent serialized on
/// shared [`Resource`](crate::Resource)s, and waiting for message arrival. It is
/// deliberately *not* shared — cross-thread time interactions only happen through
/// `Resource`s, [`ContentionLock`](crate::ContentionLock)s and
/// [`VirtualBarrier`](crate::VirtualBarrier)s, which is what keeps the accounting
/// race-free.
///
/// A clock of a universe's simulated thread is [`covered`](Clock::covered):
/// it owns a [`Gvt`](crate::gvt::Gvt) slot and [`publish`](Clock::publish)es
/// its time there at blocking points. A clone is a scratch copy and owns no
/// slot.
#[derive(Debug)]
pub struct Clock {
    now: Nanos,
    /// Total time this clock spent blocked waiting on others (arrivals, barriers).
    /// Useful for separating "communication time" from "wait time" in reports.
    waited: Nanos,
    cover: Option<Cover>,
}

impl Clone for Clock {
    fn clone(&self) -> Self {
        Clock {
            now: self.now,
            waited: self.waited,
            cover: None,
        }
    }
}

impl Clock {
    /// A clock starting at the simulation epoch.
    pub fn new() -> Self {
        Self::starting_at(Nanos::ZERO)
    }

    /// A clock starting at a given instant (e.g. a thread spawned mid-run).
    pub fn starting_at(now: Nanos) -> Self {
        Clock {
            now,
            waited: Nanos::ZERO,
            cover: None,
        }
    }

    /// A clock at the time `cover` publishes, owning that GVT slot.
    pub fn covered(cover: Cover) -> Self {
        Clock {
            now: cover.get(),
            waited: Nanos::ZERO,
            cover: Some(cover),
        }
    }

    /// A blocking point: publish the current time as this clock's GVT
    /// bound. Every request the clock makes until it publishes again is at
    /// or after it. A no-op on a clock that owns no slot.
    #[inline]
    pub fn publish(&self) {
        if let Some(c) = &self.cover {
            c.set(self.now);
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Advance by a modeled CPU/overhead cost.
    ///
    /// A yield point: under a [`sched`](crate::sched) hook, every modeled
    /// cost is a place the deterministic scheduler may switch tasks.
    #[inline]
    pub fn advance(&mut self, d: Nanos) {
        self.now += d;
        crate::engine::note_vtime(self.now);
        crate::sched::yield_point(crate::sched::SchedPoint::ClockAdvance);
    }

    /// Jump forward to `t` if `t` is later; records the skipped span as waiting.
    ///
    /// This is how a thread models blocking until an event that completes at
    /// virtual time `t` (a message arrival, a barrier release). If the event is
    /// already in the past, the clock is unchanged — the data was ready before the
    /// thread asked for it.
    #[inline]
    pub fn wait_until(&mut self, t: Nanos) {
        if t > self.now {
            self.waited += t - self.now;
            self.now = t;
            crate::engine::note_vtime(self.now);
        }
    }

    /// Total time spent blocked in [`wait_until`](Self::wait_until).
    #[inline]
    pub fn waited(&self) -> Nanos {
        self.waited
    }

    /// Set the clock to exactly `t` without recording a wait.
    ///
    /// Used by barriers when re-synchronizing a team of threads.
    #[inline]
    pub fn sync_to(&mut self, t: Nanos) {
        if t > self.now {
            self.now = t;
            crate::engine::note_vtime(self.now);
        }
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_moves_forward() {
        let mut c = Clock::new();
        c.advance(Nanos(100));
        c.advance(Nanos(50));
        assert_eq!(c.now(), Nanos(150));
    }

    #[test]
    fn wait_until_records_wait_only_when_future() {
        let mut c = Clock::new();
        c.advance(Nanos(100));
        c.wait_until(Nanos(80)); // already past: no-op
        assert_eq!(c.now(), Nanos(100));
        assert_eq!(c.waited(), Nanos::ZERO);

        c.wait_until(Nanos(250));
        assert_eq!(c.now(), Nanos(250));
        assert_eq!(c.waited(), Nanos(150));
    }

    #[test]
    fn sync_to_never_moves_backwards() {
        let mut c = Clock::starting_at(Nanos(500));
        c.sync_to(Nanos(300));
        assert_eq!(c.now(), Nanos(500));
        c.sync_to(Nanos(700));
        assert_eq!(c.now(), Nanos(700));
        assert_eq!(c.waited(), Nanos::ZERO);
    }
}
