//! Pooled payload buffers: the eager-protocol copy without the per-message
//! heap allocation.
//!
//! Every eager send copies the user buffer into an immutable [`Bytes`]. Done
//! naively that is an allocation per message — a real cost on the hot loop
//! the paper's message-rate arguments live on. A [`PayloadPool`] keeps a
//! freelist of `Arc<[u8]>` slabs: an `alloc` copies into a recycled slab (no
//! allocation once warm), hands the receiver a zero-copy
//! [`Bytes::from_shared`] view, and keeps its own reference so the slab is
//! *scavenged* back to the freelist once the receiver drops the view.
//! Scavenging is piggybacked on later `alloc`s — no background work, O(1)
//! amortized per message.
//!
//! A slab's reference count is in the same allocation, 16 bytes in front of
//! its bytes, so it is next to what the copy writes anyway, and a read takes
//! no hop through a separate `Vec` header. A new slab is built from its
//! payload in one pass, exactly as long (at least 64 bytes), so every page it
//! holds is one a payload wrote; a free slab too short for the next payload
//! is dropped for a new one, so slabs ratchet up to the largest size in use.
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

/// Length of the shortest slab.
const MIN_SLAB: usize = 64;

#[derive(Debug, Default)]
struct PoolState {
    /// Slabs with no outstanding view: ready to back the next payload.
    free: Vec<Arc<[u8]>>,
    /// Slabs whose `Bytes` view may still be alive, oldest first (views are
    /// mostly dropped in send order, so the front drains first).
    lent: VecDeque<Arc<[u8]>>,
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

    /// Copy `data` into an inline `Bytes` if it fits, into a pooled slab
    /// otherwise. Steady state (a warm freelist of slabs long enough for
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
        let slab = match st.free.pop() {
            Some(mut s) if s.len() >= data.len() => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                // The pool holds the only reference to a free slab.
                Arc::get_mut(&mut s).expect("free slab has a live view")[..data.len()]
                    .copy_from_slice(data);
                s
            }
            // A slab too short for `data` is dropped for one made for it.
            _ => {
                self.fresh_allocs.fetch_add(1, Ordering::Relaxed);
                let pad = MIN_SLAB.saturating_sub(data.len());
                data.iter()
                    .copied()
                    .chain(std::iter::repeat_n(0, pad))
                    .collect()
            }
        };
        st.lent.push_back(Arc::clone(&slab));
        Bytes::from_shared(slab, data.len())
    }

    /// Slabs created because the freelist was empty or its top slab too
    /// short.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh_allocs.load(Ordering::Relaxed)
    }

    /// Allocations served without allocating: inline, or from a recycled
    /// slab.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(pool.state.lock().lent.len(), 1);
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
        let st = pool.state.lock();
        assert_eq!((st.lent.len(), st.free.len()), (0, 0));
        drop(st);
        assert_eq!(pool.fresh_allocs(), 0);
        assert_eq!(
            pool.reuses(),
            3,
            "inline payloads are served without allocating"
        );
    }

    #[test]
    fn a_short_slab_is_replaced_by_one_made_for_the_payload() {
        let pool = PayloadPool::new();
        drop(pool.alloc(&[1u8; SLAB_MIN]));
        drop(pool.alloc(&[4u8; 64]));
        assert_eq!(pool.fresh_allocs(), 1, "the shortest slab is 64 long");
        let b = pool.alloc(&[2u8; 100]);
        assert_eq!(&b[..], &[2u8; 100]);
        assert_eq!(pool.fresh_allocs(), 2, "a 64-byte slab cannot hold 100");
        drop(b);
        drop(pool.alloc(&[3u8; 100]));
        assert_eq!(pool.fresh_allocs(), 2, "the replacement is 100 long");
        drop(pool.alloc(&[3u8; 101]));
        assert_eq!(pool.fresh_allocs(), 3);
        assert_eq!(pool.reuses(), 2);
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random interleavings of `alloc`, clone, slice and drop: every live
        /// view keeps its bytes, and a slab is never handed out while any
        /// view of it lives.
        #[test]
        fn live_views_keep_their_bytes_and_their_slab(
            ops in collection::vec((0u8..4, any::<usize>(), SLAB_MIN..(64 << 10) + 1, any::<u8>()), 1..40)
        ) {
            let pool = PayloadPool::new();
            // Each live view with the bytes it must show.
            let mut live: Vec<(Bytes, Vec<u8>)> = Vec::new();
            for (op, pick, len, fill) in ops {
                let at = pick % live.len().max(1);
                match op {
                    0 => {
                        let data: Vec<u8> = (0..len).map(|i| fill ^ i as u8).collect();
                        let b = pool.alloc(&data);
                        prop_assert_eq!(b.owner_count(), Some(2), "the slab is the pool's and this view's alone");
                        let fresh = b.as_ptr_range();
                        for (v, _) in &live {
                            let old = v.as_ptr_range();
                            prop_assert!(fresh.end <= old.start || old.end <= fresh.start, "a live view's bytes were handed out");
                        }
                        live.push((b, data));
                    }
                    1 if !live.is_empty() => {
                        let (v, want) = &live[at];
                        live.push((v.clone(), want.clone()));
                    }
                    2 if !live.is_empty() => {
                        let (v, want) = &live[at];
                        let (lo, hi) = (fill as usize % (v.len() + 1), len % (v.len() + 1));
                        let (lo, hi) = (lo.min(hi), lo.max(hi));
                        live.push((v.slice(lo..hi), want[lo..hi].to_vec()));
                    }
                    3 if !live.is_empty() => {
                        live.swap_remove(at);
                    }
                    _ => {}
                }
                for (v, want) in &live {
                    prop_assert_eq!(&v[..], &want[..]);
                }
            }
        }
    }
}
