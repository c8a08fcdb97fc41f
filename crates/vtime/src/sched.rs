//! Optional deterministic-scheduling hooks.
//!
//! The simulator's virtual-time results are schedule-independent by design,
//! but its *semantics* (matching order, request completion, partitioned
//! arrival) are exercised only on the interleavings the OS happens to
//! produce. This module turns every synchronization-relevant operation in
//! `rankmpi-vtime` (and, downstream, `rankmpi-fabric`) into an explicit
//! **yield point**: a place where an installed [`SchedHook`] may pause the
//! calling thread and hand control to another. A deterministic scheduler
//! (see the `rankmpi-check` crate) installs a hook per worker thread and
//! serializes execution, making thread interleavings enumerable and
//! replayable.
//!
//! With no hook installed (the default, and the only state production code
//! ever sees) [`yield_point`] is a single thread-local flag read; an
//! [`engine`](crate::engine) task reaches its hook only to take the engine's lock.
//!
//! ## Cooperative blocking
//!
//! When a hook is armed on a thread, the library's blocking primitives
//! switch to *cooperative* variants so that a paused task can never wedge a
//! scheduled one. [`Notify::wait_until`](crate::Notify::wait_until), through
//! which every wait goes, yields between polls instead of sleeping, with a
//! [`SchedPoint::NotifyWait`] between a failed poll and its wait (the window
//! a lost wakeup lives in). A [`ContentionLock`](crate::ContentionLock)
//! acquisition is such a wait — a [`SchedPoint::LockAcquire`], then
//! `try_lock` as the poll, on a notifier every release rings — and so is a
//! [`VirtualBarrier`](crate::VirtualBarrier)'s.
//!
//! Mixing hooked and un-hooked threads on one blocking primitive is not
//! supported: either all participants of a barrier/lock run under the
//! scheduler or none do.

use std::cell::{Cell, RefCell};
use std::sync::Arc;

/// Which library operation reached a yield point.
///
/// The variants are coarse on purpose: schedules must stay replayable across
/// refactors, so the hook receives *what kind* of step happened, not an
/// address or sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchedPoint {
    /// A virtual clock advanced ([`Clock::advance`](crate::Clock::advance)).
    ClockAdvance,
    /// A [`ContentionLock`](crate::ContentionLock) acquisition (fired
    /// before the first `try_lock` while armed).
    LockAcquire,
    /// A [`ContentionLock`](crate::ContentionLock) critical section ended.
    LockRelease,
    /// A thread arrived at a [`VirtualBarrier`](crate::VirtualBarrier).
    BarrierArrive,
    /// A packet was pushed toward a mailbox.
    MailboxPush,
    /// A mailbox is about to be drained.
    MailboxDrain,
    /// A thread waits on a [`Notify`](crate::Notify): after a failed poll,
    /// and where it would otherwise sleep or park.
    NotifyWait,
    /// A library- or test-defined yield point.
    Custom(&'static str),
}

/// A per-thread scheduling hook: called at every yield point the thread
/// reaches. The hook may block (that is the point — a deterministic
/// scheduler parks the thread here until it is chosen to run again).
pub trait SchedHook: Send + Sync {
    /// The calling thread reached `point`.
    fn reached(&self, point: SchedPoint);
}

/// What [`yield_point`] does on this thread.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Armed {
    No,
    /// Call the installed hook at every point.
    Hook,
    /// The engine's own hook: called only when `engine::yield_fast` declines.
    Engine,
}

thread_local! {
    static HOOK: RefCell<Option<Arc<dyn SchedHook>>> = const { RefCell::new(None) };
    static ARMED: Cell<Armed> = const { Cell::new(Armed::No) };
}

/// Install `hook` on the current thread; every subsequent yield point on
/// this thread calls it until the returned guard drops (or
/// [`clear_thread_hook`] runs). Hooks are strictly thread-local so parallel
/// test binaries with independent schedulers cannot interfere.
#[must_use = "the hook is cleared when the guard drops"]
pub fn install_thread_hook(hook: Arc<dyn SchedHook>) -> HookGuard {
    install(hook, Armed::Hook)
}

pub(crate) fn install(hook: Arc<dyn SchedHook>, armed: Armed) -> HookGuard {
    HOOK.with(|h| *h.borrow_mut() = Some(hook));
    ARMED.with(|a| a.set(armed));
    HookGuard { _priv: () }
}

/// Remove the current thread's hook, if any.
pub fn clear_thread_hook() {
    ARMED.with(|a| a.set(Armed::No));
    HOOK.with(|h| *h.borrow_mut() = None);
}

/// Whether the current thread has a hook installed. Blocking primitives use
/// this to pick their cooperative variants.
#[inline]
pub fn armed() -> bool {
    ARMED.with(|a| a.get()) != Armed::No
}

/// Whether the installed hook sees every yield point (a user's, or the
/// engine's under `Dispatch::Serialized`) rather than only those where a task
/// runs ahead of the pack (the engine's under `Dispatch::VirtualTime`).
#[inline]
pub(crate) fn hooked() -> bool {
    ARMED.with(|a| a.get()) == Armed::Hook
}

/// Fire a yield point. A no-op (one thread-local read) unless a hook is
/// installed on the current thread.
#[inline]
pub fn yield_point(point: SchedPoint) {
    match ARMED.with(|a| a.get()) {
        Armed::No => {}
        Armed::Engine if crate::engine::yield_fast() => {}
        _ => fire(point),
    }
}

#[cold]
fn fire(point: SchedPoint) {
    // Clone the Arc out of the RefCell before calling: the hook blocks, and
    // holding a RefCell borrow across that would poison re-entrant installs.
    let hook = HOOK.with(|h| h.borrow().clone());
    if let Some(h) = hook {
        h.reached(point);
    }
}

/// Clears the thread hook on drop, including during unwinding, so a
/// panicking scheduled task cannot leave a stale hook on a pooled thread.
pub struct HookGuard {
    _priv: (),
}

impl Drop for HookGuard {
    fn drop(&mut self) {
        clear_thread_hook();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct CountHook(AtomicUsize);
    impl SchedHook for CountHook {
        fn reached(&self, _p: SchedPoint) {
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn yield_point_is_inert_without_hook() {
        assert!(!armed());
        yield_point(SchedPoint::ClockAdvance); // must not panic or block
    }

    #[test]
    fn hook_sees_points_until_guard_drops() {
        let hook = Arc::new(CountHook(AtomicUsize::new(0)));
        {
            let _g = install_thread_hook(hook.clone() as Arc<dyn SchedHook>);
            assert!(armed());
            yield_point(SchedPoint::LockAcquire);
            yield_point(SchedPoint::Custom("x"));
            assert_eq!(hook.0.load(Ordering::Relaxed), 2);
        }
        assert!(!armed());
        yield_point(SchedPoint::LockRelease);
        assert_eq!(hook.0.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn hooks_are_thread_local() {
        let hook = Arc::new(CountHook(AtomicUsize::new(0)));
        let _g = install_thread_hook(hook.clone() as Arc<dyn SchedHook>);
        std::thread::spawn(|| {
            assert!(!armed());
            yield_point(SchedPoint::ClockAdvance);
        })
        .join()
        .unwrap();
        assert_eq!(hook.0.load(Ordering::Relaxed), 0);
    }
}
