//! A bounded single-producer/single-consumer ring buffer.
//!
//! This is the lock-free primitive under the mailbox's per-channel queues:
//! one producer (the sender holding its context gate, or — rarely — a racer
//! that won the channel's producer claim) publishes entries with a release
//! store of `tail`; one consumer (whichever thread runs the owning VCI's
//! progress engine; the engine lock serializes them) consumes with a release
//! store of `head`. Slots are `MaybeUninit` so steady-state traffic moves
//! values in place with no per-entry heap allocation — the ring *is* the
//! packet arena for in-flight entries.
//!
//! The two indices live on separate cachelines, and each side keeps a
//! *cached* copy of the other side's index next to its own: the producer
//! reloads `head` only when its cache says the ring looks full, the consumer
//! reloads `tail` only when its cache says the ring looks empty. Steady-state
//! push/pop traffic therefore touches the remote cacheline about once per
//! ring-length of entries instead of once per entry.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The producer's cacheline: its index plus a stale-but-safe view of the
/// consumer's. `head` only ever advances, so a cached value understates how
/// much room is free — never overstates it.
#[repr(align(64))]
struct ProducerSide {
    /// Next slot to fill (owned by the producer; consumer reads it).
    tail: AtomicUsize,
    /// Last observed `head`; claim-holder exclusive (see `try_push` safety).
    cached_head: UnsafeCell<usize>,
}

/// The consumer's cacheline: its index plus a stale-but-safe view of the
/// producer's. `tail` only ever advances, so a cached value understates how
/// many entries are ready — never overstates it.
#[repr(align(64))]
struct ConsumerSide {
    /// Next slot to pop (owned by the consumer; producer reads it).
    head: AtomicUsize,
    /// Last observed `tail`; drain-holder exclusive (see `pop` safety).
    cached_tail: UnsafeCell<usize>,
}

/// A bounded SPSC ring. `try_push` may only be called by one thread at a
/// time, and `pop` by one thread at a time (the two may be different threads
/// and may run concurrently with each other) — callers enforce this with a
/// producer claim and a consumer lock respectively.
pub struct SpscRing<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    prod: ProducerSide,
    cons: ConsumerSide,
}

// One logical producer and one logical consumer may touch the cells
// concurrently, but never the same cell: a cell is writable iff it is
// outside [head, tail) and readable iff inside — the indices' acquire/release
// pairing is the hand-off. The cached indices are each exclusive to their
// side's single thread.
unsafe impl<T: Send> Send for SpscRing<T> {}
unsafe impl<T: Send> Sync for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// A ring holding up to `capacity` entries (rounded up to a power of two).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        SpscRing {
            slots,
            mask: cap - 1,
            prod: ProducerSide {
                tail: AtomicUsize::new(0),
                cached_head: UnsafeCell::new(0),
            },
            cons: ConsumerSide {
                head: AtomicUsize::new(0),
                cached_tail: UnsafeCell::new(0),
            },
        }
    }

    /// Number of slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries currently queued (racy under concurrent push/pop; exact when
    /// quiescent on either side). Reads only the true indices, so it is safe
    /// from *any* thread — the mailbox's emptiness scan relies on that.
    pub fn len(&self) -> usize {
        self.prod
            .tail
            .load(Ordering::Acquire)
            .wrapping_sub(self.cons.head.load(Ordering::Acquire))
    }

    /// Whether the ring is empty (same caveat as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries ever pushed: `tail` counts them and never wraps in practice
    /// (2^64 pushes). Same caveat as [`len`](Self::len).
    pub(crate) fn pushed(&self) -> u64 {
        self.prod.tail.load(Ordering::Relaxed) as u64
    }

    /// Publish `v`, or hand it back if the ring is full. Single producer:
    /// the caller must hold the channel's producer claim.
    pub fn try_push(&self, v: T) -> Result<(), T> {
        let tail = self.prod.tail.load(Ordering::Relaxed);
        // Safety: claim-holder exclusive — no other thread touches the cache.
        let cached_head = unsafe { &mut *self.prod.cached_head.get() };
        if tail.wrapping_sub(*cached_head) == self.slots.len() {
            *cached_head = self.cons.head.load(Ordering::Acquire);
            if tail.wrapping_sub(*cached_head) == self.slots.len() {
                return Err(v);
            }
        }
        // Safety: the slot at `tail` is outside [cached_head, tail) ⊇
        // [head, tail) — the consumer will not read it until the release
        // store below publishes it.
        unsafe { (*self.slots[tail & self.mask].get()).write(v) };
        self.prod
            .tail
            .store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Consume every entry published as of entry, appending them to `out` in
    /// FIFO order, with one `head` store for the whole run (at most two
    /// `memcpy`s — the run can wrap the ring once). Returns the count. Same
    /// single-consumer requirement as [`pop`](Self::pop).
    pub fn pop_all_into(&self, out: &mut Vec<T>) -> usize {
        let head = self.cons.head.load(Ordering::Relaxed);
        let tail = self.prod.tail.load(Ordering::Acquire);
        // Safety: drain-holder exclusive — no other thread touches the cache.
        unsafe { *self.cons.cached_tail.get() = tail };
        let n = tail.wrapping_sub(head);
        if n == 0 {
            return 0;
        }
        out.reserve(n);
        let start = head & self.mask;
        let first = n.min(self.slots.len() - start);
        // Safety: slots [head, tail) are initialized (ordered by the acquire
        // load of `tail`) and exclusively ours until the release store below
        // frees them; the raw copies move the values out and the slots are
        // `MaybeUninit`, so nothing is dropped twice.
        unsafe {
            let dst = out.as_mut_ptr().add(out.len());
            std::ptr::copy_nonoverlapping(self.slots[start].get() as *const T, dst, first);
            if n > first {
                std::ptr::copy_nonoverlapping(
                    self.slots[0].get() as *const T,
                    dst.add(first),
                    n - first,
                );
            }
            out.set_len(out.len() + n);
        }
        self.cons.head.store(tail, Ordering::Release);
        n
    }

    /// Consume the oldest entry. Single consumer: the caller must hold the
    /// mailbox's drain serialization (the VCI engine lock).
    pub fn pop(&self) -> Option<T> {
        let head = self.cons.head.load(Ordering::Relaxed);
        // Safety: drain-holder exclusive — no other thread touches the cache.
        let cached_tail = unsafe { &mut *self.cons.cached_tail.get() };
        if head == *cached_tail {
            *cached_tail = self.prod.tail.load(Ordering::Acquire);
            if head == *cached_tail {
                return None;
            }
        }
        // Safety: the slot at `head` is inside [head, cached_tail) ⊆
        // [head, tail): initialized by the producer's release store (ordered
        // by the acquire load that refreshed the cache), and the producer
        // will not overwrite it until the release store below frees it.
        let v = unsafe { (*self.slots[head & self.mask].get()).assume_init_read() };
        self.cons
            .head
            .store(head.wrapping_add(1), Ordering::Release);
        Some(v)
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for SpscRing<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SpscRing(len {}/{})", self.len(), self.capacity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let r = SpscRing::with_capacity(8);
        for i in 0..8 {
            r.try_push(i).unwrap();
        }
        assert_eq!(r.try_push(99), Err(99), "full ring rejects");
        for i in 0..8 {
            assert_eq!(r.pop(), Some(i));
        }
        assert!(r.pop().is_none());
    }

    #[test]
    fn wraparound_many_times() {
        let r = SpscRing::with_capacity(4);
        for round in 0..1000u64 {
            for i in 0..3 {
                r.try_push(round * 3 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(r.pop(), Some(round * 3 + i));
            }
        }
        assert!(r.is_empty());
    }

    #[test]
    fn full_then_drained_ring_accepts_again() {
        // The producer's cached head goes stale while the ring sits full;
        // the retry reload must observe the consumer's progress.
        let r = SpscRing::with_capacity(4);
        for i in 0..4 {
            r.try_push(i).unwrap();
        }
        assert_eq!(r.try_push(4), Err(4));
        assert_eq!(r.pop(), Some(0));
        r.try_push(4).unwrap();
        for i in 1..5 {
            assert_eq!(r.pop(), Some(i));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn pop_all_into_takes_wrapped_runs_in_order() {
        let r = SpscRing::with_capacity(8);
        // Advance head so the next published run wraps the ring boundary.
        for i in 0..6 {
            r.try_push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(r.pop_all_into(&mut out), 6);
        for i in 6..13 {
            r.try_push(i).unwrap();
        }
        assert_eq!(r.pop_all_into(&mut out), 7);
        assert_eq!(out, (0..13).collect::<Vec<_>>());
        assert_eq!(r.pop_all_into(&mut out), 0, "drained ring yields nothing");
        assert!(r.is_empty());
    }

    #[test]
    fn pop_all_into_moves_nontrivial_values_exactly_once() {
        let token = Arc::new(());
        let r = SpscRing::with_capacity(4);
        let mut out = Vec::new();
        for round in 0..10 {
            for _ in 0..3 {
                r.try_push(Arc::clone(&token)).unwrap();
            }
            assert_eq!(r.pop_all_into(&mut out), 3, "round {round}");
        }
        assert_eq!(
            Arc::strong_count(&token),
            31,
            "each queued clone moved once"
        );
        out.clear();
        assert_eq!(Arc::strong_count(&token), 1, "no clone leaked or doubled");
    }

    #[test]
    fn drop_releases_queued_entries() {
        let token = Arc::new(());
        {
            let r = SpscRing::with_capacity(4);
            for _ in 0..3 {
                r.try_push(Arc::clone(&token)).unwrap();
            }
        }
        assert_eq!(Arc::strong_count(&token), 1);
    }

    #[test]
    fn concurrent_producer_and_consumer_lose_nothing() {
        let r = Arc::new(SpscRing::with_capacity(16));
        let n = 100_000u64;
        let p = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || {
                for i in 0..n {
                    let mut v = i;
                    loop {
                        match r.try_push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::hint::spin_loop();
                            }
                        }
                    }
                }
            })
        };
        let mut seen = 0u64;
        while seen < n {
            if let Some(v) = r.pop() {
                assert_eq!(v, seen, "FIFO order");
                seen += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        p.join().unwrap();
        assert!(r.is_empty());
    }
}
