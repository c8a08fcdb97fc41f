//! Rank-crash fault tolerance: the fabric-level failure detector.
//!
//! A crash plan ([`FaultPlan::crashes`](crate::FaultPlan::crashes)) kills a
//! rank at a hash-derived point — mid-send, mid-collective, mid-stream —
//! and the survivors must *detect* that instead of hanging. In a real
//! fabric the detector is built from liveness traffic the transport already
//! generates: every retransmit ack doubles as a heartbeat, and an idle
//! channel falls back to a probe timer. The simulation models the
//! aggregate of that machinery as a [`Liveness`] registry shared by every
//! process of a universe: the crashing rank records its own death at a
//! virtual timestamp (its last packets are already in flight — anything
//! pushed before the crash stays deliverable), and each channel *observes*
//! the death no earlier than `crash time + `[`PROBE_TIMEOUT`], the modeled
//! probe round-trip. Detection is therefore deterministic in virtual time
//! and independent of the real thread schedule, like every other fault in
//! [`fault`](crate::fault).
//!
//! The registry is deliberately per-universe (never process-global): test
//! binaries run many universes concurrently in one process, and a crash in
//! one must not be observed by another.
//!
//! ## The crash mechanism
//!
//! A simulated rank "crashes" by unwinding its carrier thread with a quiet
//! panic ([`crash_now`]): a [`RankCrashed`] payload plus a thread-local
//! flag that suppresses the default panic hook's backtrace spew. Harness
//! code that joins simulated threads (`Universe::run_ft`,
//! `ProcEnv::parallel`) checks the [`Liveness`] registry — not the payload,
//! which `join().unwrap()` rewraps — to tell a modeled crash from a real
//! bug, and re-raises anything it cannot attribute to the crash plan.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use rankmpi_vtime::{Counter, Nanos};

/// Modeled idle-probe round trip: a channel observes a peer's death no
/// earlier than `crash time + PROBE_TIMEOUT` in virtual time. Chosen within
/// an order of magnitude of a real NIC-level keepalive relative to the
/// simulated per-packet costs (tens of microseconds).
pub const PROBE_TIMEOUT: Nanos = Nanos(20_000);

/// Panic payload of a modeled rank crash (see [`crash_now`]).
#[derive(Debug)]
pub struct RankCrashed;

thread_local! {
    static CRASHING: Cell<bool> = const { Cell::new(false) };
}

fn install_quiet_hook() {
    use std::sync::Once;
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CRASHING.with(|c| c.get()) {
                prev(info);
            }
        }));
    });
}

/// Unwind the current simulated thread as a modeled rank crash: suppresses
/// the panic hook for this panic and raises [`RankCrashed`]. The caller
/// must have recorded the death in the universe's [`Liveness`] first —
/// that registry entry, not the panic payload, is what harness code uses
/// to recognize the unwind as a planned crash.
pub fn crash_now() -> ! {
    install_quiet_hook();
    CRASHING.with(|c| c.set(true));
    std::panic::panic_any(RankCrashed);
}

/// Clear the quiet-crash flag on this OS thread. Worker threads are reused
/// across simulated ranks in task mode, so every `catch_unwind` that eats a
/// crash must clear the flag before the thread runs anything else —
/// otherwise a later *real* panic on the same worker would be silenced.
pub fn clear_crash_flag() {
    CRASHING.with(|c| c.set(false));
}

/// The per-universe failure detector: which ranks are dead, and since when.
///
/// `epoch` counts registry changes; hot paths read it with one relaxed
/// atomic load and skip the map entirely while it is zero, so a universe
/// without a crash plan pays nothing.
#[derive(Debug, Default)]
pub struct Liveness {
    crashed: RwLock<HashMap<usize, Nanos>>,
    epoch: AtomicU64,
    detections: Counter,
    /// Notifiers rung on every registry change: one per process, plus the
    /// universe's rendezvous for agreement boards. A crash emits no packet,
    /// so without these a survivor parked on one (task launch mode parks
    /// instead of timed-sleeping) would never wake to observe the death —
    /// the engine would report an all-parked deadlock.
    wakers: RwLock<Vec<Arc<crate::Notify>>>,
}

impl Liveness {
    /// An empty registry: every rank alive.
    pub fn new() -> Liveness {
        Liveness::default()
    }

    /// Register a notifier to be rung on every crash. The universe registers
    /// one per process and its rendezvous at build time.
    pub fn register_waker(&self, notify: Arc<crate::Notify>) {
        self.wakers.write().push(notify);
    }

    /// Record `rank` as dead at virtual time `at`. Idempotent; called by the
    /// crashing rank itself immediately before it unwinds, so everything it
    /// sent beforehand is already in the destination mailboxes. Rings every
    /// registered notifier so parked survivors re-poll and observe the
    /// death.
    pub fn mark_crashed(&self, rank: usize, at: Nanos) {
        {
            let mut map = self.crashed.write();
            if map.contains_key(&rank) {
                return;
            }
            map.insert(rank, at);
        }
        self.epoch.fetch_add(1, Ordering::Release);
        for w in self.wakers.read().iter() {
            w.notify();
        }
    }

    /// Number of registry changes so far; zero means no rank has ever
    /// crashed (the fast path).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Is `rank` dead?
    pub fn is_crashed(&self, rank: usize) -> bool {
        self.epoch() != 0 && self.crashed.read().contains_key(&rank)
    }

    /// Virtual time `rank` died, if it did.
    pub fn crashed_at(&self, rank: usize) -> Option<Nanos> {
        if self.epoch() == 0 {
            return None;
        }
        self.crashed.read().get(&rank).copied()
    }

    /// Virtual time a channel *observes* `rank`'s death: crash time plus the
    /// modeled probe timeout. `None` while the rank is alive.
    pub fn detect_at(&self, rank: usize) -> Option<Nanos> {
        self.crashed_at(rank)
            .map(|at| Nanos(at.0 + PROBE_TIMEOUT.0))
    }

    /// Record one detection event (a pending operation resolved to
    /// `ProcessFailed` instead of hanging).
    pub fn note_detection(&self) {
        self.detections.incr();
    }

    /// Detection events recorded so far (see
    /// [`note_detection`](Liveness::note_detection)).
    pub fn detections(&self) -> u64 {
        self.detections.get()
    }

    /// Every dead rank, unordered.
    pub fn crashed_ranks(&self) -> Vec<usize> {
        self.crashed.read().keys().copied().collect()
    }

    /// Number of dead ranks.
    pub fn num_crashed(&self) -> usize {
        if self.epoch() == 0 {
            return 0;
        }
        self.crashed.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_starts_empty_and_marks_idempotently() {
        let l = Liveness::new();
        assert_eq!(l.epoch(), 0);
        assert!(!l.is_crashed(3));
        assert_eq!(l.detect_at(3), None);
        l.mark_crashed(3, Nanos(100));
        l.mark_crashed(3, Nanos(999)); // later re-mark keeps the first stamp
        assert!(l.is_crashed(3));
        assert_eq!(l.crashed_at(3), Some(Nanos(100)));
        assert_eq!(l.detect_at(3), Some(Nanos(100 + PROBE_TIMEOUT.0)));
        assert_eq!(l.num_crashed(), 1);
        assert_eq!(l.crashed_ranks(), vec![3]);
    }

    #[test]
    fn crash_unwind_is_catchable_and_flag_clears() {
        let r = std::panic::catch_unwind(|| crash_now());
        assert!(r.is_err());
        clear_crash_flag();
        // A plain panic after clearing is reported as usual (hook chains).
        let r = std::panic::catch_unwind(|| {
            std::panic::panic_any("not a crash");
        });
        assert!(r.is_err());
    }
}
