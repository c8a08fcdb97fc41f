//! Allocation regression for `Resource`'s schedule: sparse in-order
//! requests — intervals that never merge, the worst case for memory — must
//! cost one allocator call per 256-interval chunk, not one per tree node.
//!
//! This file deliberately holds a single `#[test]`: the harness runs tests
//! of one binary on concurrent threads, and a neighbor's allocations would
//! race the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use rankmpi_vtime::{Nanos, Resource};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn sparse_appends_allocate_per_chunk_not_per_interval() {
    const N: u64 = 100_000;
    let r = Resource::new();
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..N {
        let a = r.acquire(Nanos(i * 10), Nanos(5));
        assert_eq!(a.start, Nanos(i * 10));
    }
    let calls = ALLOCS.load(Ordering::Relaxed) - before;
    assert!(
        calls <= N / 256 + 32,
        "{N} sparse appends made {calls} allocator calls; the schedule \
         allocates per 256-interval chunk, so at most {}",
        N / 256 + 32
    );
    assert_eq!(r.busy_total(), Nanos(N * 5));
}
