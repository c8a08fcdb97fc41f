//! Allocation regression for the batched eager send: once warm, an
//! `isend_multi` allocates its staging buffer and the `Vec<Request>` it
//! returns, nothing else, and the payload copy behind each message comes
//! from a recycled slab. A counting global allocator makes that an
//! assertable number.
//!
//! The count is per thread (a const-initialised thread-local, so reading it
//! from inside the allocator allocates nothing), which is what separates a
//! rank's own calls from its peer's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rankmpi_core::request::wait_all;
use rankmpi_core::Universe;
use rankmpi_fabric::PayloadPool;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down still frees and allocates.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const FACES: usize = 4;
const FACE_BYTES: usize = 16 << 10;
const WARMUP: u64 = 16;
const ITERS: u64 = 256;
const TAGS: u64 = 512;

#[test]
fn a_warm_batched_send_allocates_its_staging_and_its_requests_only() {
    // A warm pool copies a face into a recycled slab.
    let pool = PayloadPool::new();
    let face = vec![0xA5u8; FACE_BYTES];
    for _ in 0..WARMUP {
        drop(pool.alloc(&face));
    }
    let base = allocs();
    for _ in 0..ITERS {
        let b = pool.alloc(&face);
        assert_eq!(b.len(), FACE_BYTES);
    }
    assert_eq!(allocs() - base, 0, "a warm 16 KiB PayloadPool::alloc");

    // Both ranks batch FACES faces to each other per iteration, then
    // receive the peer's.
    let u = Universe::builder().nodes(2).build();
    let shared = std::sync::Arc::clone(u.shared());
    // Per rank: (allocator calls inside the measured `isend_multi`s, payload
    // slabs its pool added meanwhile).
    let counts = u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        let (me, peer) = (env.rank(), 1 - env.rank());
        let pool = shared.proc(me).vci(0);
        let faces: Vec<Vec<u8>> = (0..FACES)
            .map(|f| vec![(me * FACES + f) as u8; FACE_BYTES])
            .collect();
        let (mut in_send, mut slabs) = (0, 0);
        for it in 0..WARMUP + ITERS {
            if it == WARMUP {
                in_send = 0;
                slabs = pool.payload_pool().fresh_allocs();
            }
            let tag = |f: usize| ((it * FACES as u64 + f as u64) % TAGS) as i64;
            let msgs: [(usize, i64, &[u8]); FACES] =
                std::array::from_fn(|f| (peer, tag(f), &faces[f][..]));
            let before = allocs();
            let sent = world.isend_multi(&mut th, &msgs).unwrap();
            in_send += allocs() - before;
            assert_eq!(sent.len(), FACES);
            drop(sent);
            let reqs: Vec<_> = (0..FACES)
                .map(|f| world.irecv(&mut th, peer as i64, tag(f)).unwrap())
                .collect();
            for (f, (st, data)) in wait_all(&mut th.clock, &reqs).into_iter().enumerate() {
                assert_eq!((st.source, st.tag, st.len), (peer, tag(f), FACE_BYTES));
                assert!(data.iter().all(|&b| b == (peer * FACES + f) as u8));
            }
        }
        (in_send, pool.payload_pool().fresh_allocs() - slabs)
    });
    for (rank, (in_send, slabs)) in counts.into_iter().enumerate() {
        // Two per call. Beyond that only a payload slab the pool had to add
        // (a peer the host descheduled still holds the last faces), and the
        // schedules of the two resources a batch reserves (context pipeline,
        // gate): a first chunk that doubles up to 512 intervals, then a chunk
        // per 512.
        let allowed = 2 * ITERS + slabs + 2 * (9 + ITERS / 512);
        assert!(
            in_send <= allowed,
            "rank {rank}: {in_send} allocator calls in {ITERS} warm isend_multi calls \
             (allowed {allowed}, {slabs} new slabs)"
        );
    }
}
