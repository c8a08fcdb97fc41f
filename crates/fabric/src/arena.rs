//! Pooled payload buffers: the eager-protocol copy without the per-message
//! heap allocation.
//!
//! Every eager send copies the user buffer into an immutable [`Bytes`]. Done
//! naively that is two allocations per message (`Vec` + shared backing) — a
//! real cost on the hot loop the paper's message-rate arguments live on. A
//! [`PayloadPool`] keeps a freelist of `Arc<Vec<u8>>` slabs: an `alloc`
//! copies into a recycled slab (no allocation once warm), hands the receiver
//! a zero-copy [`Bytes::from_owner`] view, and keeps its own reference so the
//! slab is *scavenged* back to the freelist once the receiver drops the view.
//! Scavenging is piggybacked on later `alloc`s — no background work, O(1)
//! amortized per message.
//!
//! A payload of at most [`INLINE_CAP`] bytes skips the slabs altogether: it
//! is copied into the `Bytes` value itself, so neither side writes a line
//! the other owns — no pool lock, no `Arc` count the receiver decrements.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{Bytes, INLINE_CAP};
use parking_lot::Mutex;

/// Slabs checked for reclamation per `alloc` — bounds the scan while still
/// keeping up with a steady drain (each send returns at most one slab, so
/// scanning a few per send drains any backlog).
const SCAVENGE_PER_ALLOC: usize = 4;

#[derive(Debug, Default)]
struct PoolState {
    /// Slabs with no outstanding view: ready to back the next payload.
    free: Vec<Arc<Vec<u8>>>,
    /// Slabs whose `Bytes` view may still be alive, oldest first (views are
    /// mostly dropped in send order, so the front drains first).
    lent: VecDeque<Arc<Vec<u8>>>,
}

/// A freelist of payload slabs for one process's eager sends.
#[derive(Debug, Default)]
pub struct PayloadPool {
    state: Mutex<PoolState>,
    fresh_allocs: AtomicU64,
    reuses: AtomicU64,
}

impl PayloadPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Copy `data` into an inline `Bytes` if it fits, into a pooled buffer
    /// otherwise. Steady state (a warm freelist and slab capacities that fit
    /// `data`) performs zero heap allocations.
    pub fn alloc(&self, data: &[u8]) -> Bytes {
        if data.len() <= INLINE_CAP {
            self.reuses.fetch_add(1, Ordering::Relaxed);
            return Bytes::copy_from_slice(data);
        }
        let mut st = self.state.lock();
        // Reclaim slabs whose receivers have dropped their views: the pool's
        // own reference is then the only one left.
        for _ in 0..SCAVENGE_PER_ALLOC {
            match st.lent.front() {
                Some(a) if Arc::strong_count(a) == 1 => {
                    let a = st.lent.pop_front().unwrap();
                    st.free.push(a);
                }
                _ => break,
            }
        }
        let mut slab = match st.free.pop() {
            Some(s) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                s
            }
            None => {
                self.fresh_allocs.fetch_add(1, Ordering::Relaxed);
                Arc::new(Vec::with_capacity(data.len().max(64)))
            }
        };
        {
            // The pool holds the only reference to a free slab.
            let v = Arc::get_mut(&mut slab).expect("free slab has a live view");
            v.clear();
            v.extend_from_slice(data);
        }
        let out = Bytes::from_owner(Arc::clone(&slab));
        st.lent.push_back(slab);
        out
    }

    /// Buffers created because the freelist was empty or cold.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs.load(Ordering::Relaxed)
    }

    /// Allocations served without allocating: inline, or from a recycled
    /// slab.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Slabs currently lent out (receiver may still hold the view).
    pub fn lent(&self) -> usize {
        self.state.lock().lent.len()
    }

    /// Slabs on the freelist.
    pub fn free(&self) -> usize {
        self.state.lock().free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The shortest payload that needs a slab.
    const SLAB_MIN: usize = INLINE_CAP + 1;

    #[test]
    fn alloc_copies_and_views_share() {
        let pool = PayloadPool::new();
        let data = [b'h'; SLAB_MIN];
        let b = pool.alloc(&data);
        assert_eq!(&b[..], &data);
        assert_eq!(b.owner_count(), Some(2), "the view shares the pool's slab");
        assert_eq!(pool.fresh_allocs(), 1);
        assert_eq!(pool.lent(), 1);
    }

    #[test]
    fn dropped_views_are_scavenged_and_reused() {
        let pool = PayloadPool::new();
        let b = pool.alloc(&[1u8; 2 * SLAB_MIN]);
        drop(b);
        let c = pool.alloc(&[2u8; SLAB_MIN]);
        assert_eq!(&c[..], &[2u8; SLAB_MIN]);
        assert_eq!(pool.fresh_allocs(), 1, "second alloc reuses the slab");
        assert_eq!(pool.reuses(), 1);
    }

    #[test]
    fn live_views_are_never_reused() {
        let pool = PayloadPool::new();
        let a = pool.alloc(&[7u8; SLAB_MIN]);
        let b = pool.alloc(&[9u8; SLAB_MIN]);
        assert_eq!(
            &a[..],
            &[7u8; SLAB_MIN],
            "first view intact after second alloc"
        );
        assert_eq!(pool.fresh_allocs(), 2);
        drop(a);
        drop(b);
        pool.alloc(&[0u8; SLAB_MIN]);
        assert_eq!(pool.reuses(), 1);
    }

    #[test]
    fn a_payload_that_fits_inline_never_touches_the_slabs() {
        let pool = PayloadPool::new();
        for len in [0, 8, INLINE_CAP] {
            let data = vec![len as u8; len];
            let b = pool.alloc(&data);
            assert_eq!(&b[..], &data[..]);
            assert_eq!(b.owner_count(), None, "no slab behind a {len}-byte payload");
        }
        assert_eq!((pool.lent(), pool.free()), (0, 0));
        assert_eq!(pool.fresh_allocs(), 0);
        assert_eq!(
            pool.reuses(),
            3,
            "inline payloads are served without allocating"
        );
    }

    #[test]
    fn steady_state_stops_allocating() {
        let pool = PayloadPool::new();
        for i in 0..1000u64 {
            let data = [i as u8; SLAB_MIN];
            let b = pool.alloc(&data);
            assert_eq!(&b[..], &data);
            drop(b);
        }
        assert!(
            pool.fresh_allocs() <= 2,
            "warm pool must recycle, got {} fresh allocs",
            pool.fresh_allocs()
        );
    }
}
