//! Steady-state allocation regression for the point-to-point path: once
//! warm, a message costs almost no heap allocation — the receive's
//! `ReqState` comes from the receiving thread's spares — a `send` call
//! allocates nothing of its own, and neither does a matched probe that
//! misses. A counting global allocator makes that an assertable number.
//!
//! The count is per thread (a const-initialised thread-local, so reading it
//! from inside the allocator allocates nothing), which is what separates
//! the sender's calls from the receiver's, and each test's ranks from the
//! other test's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rankmpi_core::request::wait_all;
use rankmpi_core::Universe;

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

const WINDOW: u64 = 64;
const WARMUP: u64 = 16;
const WINDOWS: u64 = 64;
const TAGS: u64 = 512;
const CREDIT_TAG: i64 = 1_000;

#[test]
fn a_warm_message_almost_never_allocates_and_a_send_not_at_all() {
    let u = Universe::builder().nodes(2).build();
    let shared = std::sync::Arc::clone(u.shared());
    let pool_of_sender = || shared.proc(0).vci(0).payload_pool().fresh_allocs();
    // Per rank: (allocator calls over the measured windows, of which inside
    // `send`, payload slabs the sender's pool added meanwhile).
    let counts = u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        let payload = [0x5Au8; 8];
        let mut reqs = Vec::with_capacity(WINDOW as usize);
        let (mut base, mut in_send, mut slabs) = (0, 0, 0);
        for w in 0..WARMUP + WINDOWS {
            if w == WARMUP {
                base = allocs();
                slabs = pool_of_sender();
                in_send = 0;
            }
            let tag = |i: u64| ((w * WINDOW + i) % TAGS) as i64;
            if env.rank() == 0 {
                // The receiver has posted the whole window.
                world.recv(&mut th, 1, CREDIT_TAG).unwrap();
                for i in 0..WINDOW {
                    let before = allocs();
                    world.send(&mut th, 1, tag(i), &payload).unwrap();
                    in_send += allocs() - before;
                }
            } else {
                reqs.extend((0..WINDOW).map(|i| world.irecv(&mut th, 0, tag(i)).unwrap()));
                world.send(&mut th, 0, CREDIT_TAG, b"").unwrap();
                assert_eq!(wait_all(&mut th.clock, &reqs).len(), WINDOW as usize);
                reqs.clear();
            }
        }
        (allocs() - base, in_send, pool_of_sender() - slabs)
    });
    let n = WINDOW * WINDOWS;
    let (sender, receiver) = (counts[0], counts[1]);
    let per_msg = (sender.0 + receiver.0) as f64 / n as f64;
    assert!(
        per_msg <= 0.1,
        "{per_msg:.3} allocator calls per warm message (sender {}, receiver {} over {n})",
        sender.0,
        receiver.0
    );
    // Not zero: a send reserves two `Resource` intervals (context pipeline,
    // gate), whose schedules grow by a chunk per 256 — and a receiver the
    // host descheduled makes the payload pool add slabs.
    let allowed = 2 * n / 256 + 8 + 3 * sender.2;
    assert!(
        sender.1 <= allowed,
        "{} allocator calls inside {n} `send` calls (allowed {allowed}, {} new slabs)",
        sender.1,
        sender.2
    );
}

#[test]
fn a_warm_improbe_miss_allocates_no_request() {
    const MISSES: u64 = 1_000;
    let u = Universe::builder().nodes(1).build();
    let allocated = u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        let mut miss = || assert!(world.improbe(&mut th, 0, 7).unwrap().is_none());
        for _ in 0..WARMUP {
            miss();
        }
        let base = allocs();
        for _ in 0..MISSES {
            miss();
        }
        allocs() - base
    });
    // Not zero: every miss is one engine-lock section, whose virtual
    // schedule grows by a chunk per 256. A probe request of its own would
    // cost at least one allocation per miss.
    let allowed = MISSES / 256 + 8;
    assert!(
        allocated[0] <= allowed,
        "{} allocator calls in {MISSES} warm misses (allowed {allowed})",
        allocated[0]
    );
}
