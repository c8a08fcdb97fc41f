//! Global virtual time: how far back any future [`Resource`](crate::Resource)
//! request of one universe can still reach.
//!
//! GVT is the least virtual time that a request not yet made can carry
//! (Jefferson, "Virtual Time", TOPLAS 1985). Every busy interval that ends at
//! or before it can be forgotten without changing any result, so a
//! [`Resource`](crate::Resource) built with
//! [`pruned_by`](crate::Resource::pruned_by) drops whole chunks of its
//! history behind it. Nothing is rolled back: this is Time Warp's GVT used
//! only for fossil collection.
//!
//! Two kinds of party hold it down:
//!
//! - **clocks**: a live [`Clock`](crate::Clock) (one per simulated thread)
//!   owns a [`Cover`], a cache-padded slot it writes at blocking points
//!   only. A clock never runs backwards, so a published value stays a lower
//!   bound of every request the clock makes until it publishes again;
//! - **holders**: a stamp in transit — a packet from the moment its sender
//!   pushed it until its receiver charged it — is held by its mailbox, a
//!   [`Holder`] whose [`floor`](Holder::floor) is at or below every stamp it
//!   still holds.
//!
//! A stamp moves only from a clock into a holder, and the pusher hands it
//! over before its clock can next publish. [`Gvt::read`] therefore reads
//! every clock slot first (acquire) and every holder after: if it saw a
//! clock that has already published past a pushed stamp, it also sees the
//! holder that took the stamp over. This is the transient-message problem
//! of Fujimoto and Hybinette's shared-memory GVT ("Computing Global Virtual
//! Time in Shared-Memory Multiprocessors", TOMACS 1997) solved by the order
//! of one snapshot, with no acknowledgement and no read-modify-write per
//! message.
//!
//! Outside [`Gvt::enter_run`] GVT reads 0: code that steps a universe
//! outside a run may start clocks anywhere.
//!
//! A read visits every slot and holder, so a pruned resource reads a recent
//! value instead: the GVT recomputed once the chunks opened since the last
//! computation reach one per 64 entries a read would visit, and reused in
//! between. GVT only grows within a run, so an older value is still a lower
//! bound.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};

use crate::Nanos;

/// Whatever holds stamps in transit between clocks.
pub trait Holder: Send + Sync {
    /// At or below every stamp held now, and every stamp handed over by a
    /// clock before that clock's last publication (`Nanos(u64::MAX)` when
    /// nothing is held).
    fn floor(&self) -> Nanos;
}

/// How many slots and holders one chunk opening may pay to visit, on
/// average: a universe of a few slots reads GVT at every opening, a 1k-rank
/// one (≈8k entries) once per 128.
const ENTRIES_PER_OPEN: usize = 64;

/// One clock's published lower bound, alone on its 128-byte block (two
/// lines: adjacent-line prefetch pairs them), so its owner's stores bounce
/// no other slot.
#[repr(align(128))]
#[derive(Debug)]
struct Slot(AtomicU64);

/// The GVT of one universe: its clock slots and holders, and what its
/// pruned resources report back.
#[derive(Default)]
pub struct Gvt {
    /// Clock slots. Registration is rare (a thread's birth) and reuses freed
    /// slots; reads take the shared lock only.
    clocks: RwLock<Vec<Arc<Slot>>>,
    free: Mutex<Vec<usize>>,
    holders: RwLock<Vec<Weak<dyn Holder>>>,
    /// Clock slots and holders registered.
    entries: AtomicUsize,
    /// The last value [`recent`](Gvt::recent) computed, and the chunk
    /// openings since.
    cached: AtomicU64,
    opens: AtomicUsize,
    /// Runs in progress ([`enter_run`](Gvt::enter_run)).
    runs: AtomicUsize,
    /// Requests that arrived below a resource's pruned horizon.
    below: AtomicU64,
    /// Most intervals any pruned resource held when it opened a chunk.
    peak_history: AtomicUsize,
}

impl Gvt {
    /// A GVT with no slot, reading 0 until a run is entered.
    pub fn new() -> Arc<Self> {
        Arc::new(Gvt::default())
    }

    /// Register a clock slot publishing `at`.
    pub fn clock(self: &Arc<Self>, at: Nanos) -> Cover {
        let reused = self.free.lock().pop();
        let (index, slot) = match reused {
            Some(i) => (i, Arc::clone(&self.clocks.read()[i])),
            None => {
                self.entries.fetch_add(1, Ordering::Relaxed);
                let mut clocks = self.clocks.write();
                clocks.push(Arc::new(Slot(AtomicU64::new(u64::MAX))));
                (clocks.len() - 1, Arc::clone(&clocks[clocks.len() - 1]))
            }
        };
        slot.0.store(at.as_ns(), Ordering::Release);
        Cover {
            gvt: Arc::clone(self),
            index,
            slot,
        }
    }

    /// Count `holder` in every later read, for as long as it lives. Register
    /// it before it takes over any stamp.
    pub fn hold(&self, holder: Weak<dyn Holder>) {
        self.entries.fetch_add(1, Ordering::Relaxed);
        self.holders.write().push(holder);
    }

    /// Mark a run in progress until the guard drops. Register the clocks that
    /// start with the run first. A run's clocks start at 0, so what an
    /// earlier run computed no longer bounds anything.
    pub fn enter_run(self: &Arc<Self>) -> RunGuard {
        self.cached.store(0, Ordering::Release);
        self.runs.fetch_add(1, Ordering::AcqRel);
        RunGuard(Arc::clone(self))
    }

    /// [`read`](Gvt::read), or the last value this computed while fewer
    /// than one chunk opening per [`ENTRIES_PER_OPEN`] entries has passed
    /// since. Called once per chunk a pruned resource opens.
    pub(crate) fn recent(&self) -> Nanos {
        if self.runs.load(Ordering::Acquire) == 0 {
            return Nanos::ZERO;
        }
        let opens = self.opens.fetch_add(1, Ordering::Relaxed) + 1;
        if opens * ENTRIES_PER_OPEN < self.entries.load(Ordering::Relaxed) {
            return Nanos(self.cached.load(Ordering::Acquire));
        }
        self.opens.store(0, Ordering::Relaxed);
        let now = self.read().as_ns();
        Nanos(self.cached.fetch_max(now, Ordering::AcqRel).max(now))
    }

    /// The least time any request can still carry: the minimum over every
    /// clock slot, then every holder; 0 outside a run.
    pub fn read(&self) -> Nanos {
        if self.runs.load(Ordering::Acquire) == 0 {
            return Nanos::ZERO;
        }
        let clocks = self
            .clocks
            .read()
            .iter()
            .map(|s| s.0.load(Ordering::Acquire))
            .min()
            .unwrap_or(u64::MAX);
        let holders = self
            .holders
            .read()
            .iter()
            .filter_map(Weak::upgrade)
            .map(|h| h.floor().as_ns())
            .min()
            .unwrap_or(u64::MAX);
        Nanos(clocks.min(holders))
    }

    /// Requests that arrived below the horizon of a resource pruned by this
    /// GVT. Every one of them is a bug: 0 means every result is the one an
    /// unbounded history would have given.
    pub fn below_horizon(&self) -> u64 {
        self.below.load(Ordering::Relaxed)
    }

    /// The most intervals any resource pruned by this GVT held at the moment
    /// it opened a chunk (its live history, sampled once per 512 intervals).
    pub fn peak_history(&self) -> usize {
        self.peak_history.load(Ordering::Relaxed)
    }

    pub(crate) fn note_below(&self) {
        self.below.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_history(&self, len: usize) {
        self.peak_history.fetch_max(len, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Gvt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gvt")
            .field("clocks", &self.clocks.read().len())
            .field("holders", &self.holders.read().len())
            .field("below_horizon", &self.below_horizon())
            .finish()
    }
}

/// Ends a run on drop (see [`Gvt::enter_run`]).
#[derive(Debug)]
pub struct RunGuard(Arc<Gvt>);

impl Drop for RunGuard {
    fn drop(&mut self) {
        self.0.runs.fetch_sub(1, Ordering::AcqRel);
    }
}

/// One clock's registered slot: it holds its universe's GVT at or below
/// what it publishes, and frees the slot on drop.
#[derive(Debug)]
pub struct Cover {
    gvt: Arc<Gvt>,
    index: usize,
    slot: Arc<Slot>,
}

impl Cover {
    /// Publish `t`.
    #[inline]
    pub fn set(&self, t: Nanos) {
        self.slot.0.store(t.as_ns(), Ordering::Release);
    }

    /// The published value.
    pub fn get(&self) -> Nanos {
        Nanos(self.slot.0.load(Ordering::Acquire))
    }
}

impl Drop for Cover {
    fn drop(&mut self) {
        self.slot.0.store(u64::MAX, Ordering::Release);
        self.gvt.free.lock().push(self.index);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Held(AtomicU64);

    impl Holder for Held {
        fn floor(&self) -> Nanos {
            Nanos(self.0.load(Ordering::Acquire))
        }
    }

    #[test]
    fn gvt_is_the_least_slot_and_zero_outside_a_run() {
        let gvt = Gvt::new();
        let a = gvt.clock(Nanos(50));
        let h = Arc::new(Held(AtomicU64::new(u64::MAX)));
        gvt.hold(Arc::downgrade(&h) as Weak<dyn Holder>);
        assert_eq!(gvt.read(), Nanos::ZERO, "no run: nothing is bounded");
        let run = gvt.enter_run();
        assert_eq!(gvt.read(), Nanos(50));
        h.0.store(30, Ordering::Release);
        assert_eq!(gvt.read(), Nanos(30));
        drop(h);
        a.set(Nanos(70));
        assert_eq!(gvt.read(), Nanos(70), "a dropped holder holds nothing");
        drop(a);
        assert_eq!(gvt.read(), Nanos(u64::MAX), "no slot holds it down");
        let b = gvt.clock(Nanos(5));
        assert_eq!(gvt.clocks.read().len(), 1, "the freed slot is reused");
        assert_eq!(gvt.read(), Nanos(5));
        drop(run);
        assert_eq!(gvt.read(), Nanos::ZERO);
        drop(b);
    }

    #[test]
    fn recent_reuses_its_last_value_until_enough_chunks_opened() {
        // Two openings per computation at 2 × ENTRIES_PER_OPEN entries.
        let gvt = Gvt::new();
        let covers: Vec<_> = (0..2 * ENTRIES_PER_OPEN)
            .map(|_| gvt.clock(Nanos(10)))
            .collect();
        let run = gvt.enter_run();
        assert_eq!(gvt.recent(), Nanos::ZERO, "nothing computed in this run");
        assert_eq!(gvt.recent(), Nanos(10));
        covers.iter().for_each(|c| c.set(Nanos(20)));
        assert_eq!(gvt.recent(), Nanos(10), "still the last value");
        assert_eq!(gvt.recent(), Nanos(20));
        drop(run);
        assert_eq!(gvt.recent(), Nanos::ZERO, "outside a run");
        let _run = gvt.enter_run();
        assert_eq!(gvt.recent(), Nanos::ZERO, "a new run starts over");
    }
}
