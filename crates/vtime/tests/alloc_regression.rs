//! Allocation regression for `Resource`'s schedule: sparse in-order
//! requests — intervals that never merge, the worst case for memory — must
//! cost one allocator call per 512-interval chunk, not one per tree node,
//! and 8 bytes per interval.
//!
//! This file deliberately holds a single `#[test]`: the harness runs tests
//! of one binary on concurrent threads, and a neighbor's allocations would
//! race the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rankmpi_vtime::{Nanos, Resource};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated and not yet freed.
static LIVE: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn sparse_appends_allocate_per_chunk_not_per_interval() {
    const N: u64 = 100_000;
    const CHUNK: u64 = 512;
    let r = Resource::new();
    let (calls0, live0) = (ALLOCS.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    for i in 0..N {
        let a = r.acquire(Nanos(i * 10), Nanos(5));
        assert_eq!(a.start, Nanos(i * 10));
    }
    let calls = ALLOCS.load(Ordering::Relaxed) - calls0;
    assert!(
        calls <= N / CHUNK + 32,
        "{N} sparse appends made {calls} allocator calls; the schedule \
         allocates per {CHUNK}-interval chunk, so at most {}",
        N / CHUNK + 32
    );
    // 8 B per interval, one partly filled chunk, and the chunk list: a
    // 32-byte entry per chunk, in a vector of up to twice the entries.
    let bytes = LIVE.load(Ordering::Relaxed) - live0;
    let bound = 8 * N + 8 * CHUNK + 2 * 32 * (N / CHUNK + 1);
    assert!(
        bytes <= bound,
        "{N} sparse appends hold {bytes} B ({:.2} B per interval); at most {bound}",
        bytes as f64 / N as f64
    );
    assert_eq!(r.busy_total(), Nanos(N * 5));
}
