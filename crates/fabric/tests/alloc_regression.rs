//! Steady-state allocation regression: the hot datapath — pool a payload,
//! push it through a mailbox ring, drain, release — must stop allocating
//! once warmed up. A counting global allocator makes "zero allocs per
//! message" an assertable number instead of a code-review claim.
//!
//! This file deliberately holds a single `#[test]`: the harness runs tests
//! of one binary on concurrent threads, and a neighbor's allocations would
//! race the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rankmpi_fabric::{Header, Mailbox, Notify, Packet, PayloadPool};
use rankmpi_vtime::Nanos;

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

fn header(src: u32, seq: u64) -> Header {
    Header {
        kind: 1,
        context_id: 7,
        src,
        dst: 0,
        tag: 3,
        seq,
        aux: 0,
        aux2: 0,
    }
}

/// One simulated steady-state round: `msgs` messages across `srcs` channels,
/// each pool-allocated and pushed, drained into a reused buffer every
/// `burst` pushes, and dropped (returning its slab to the pool). Returns
/// allocator events observed.
fn round(
    mb: &Mailbox,
    pool: &PayloadPool,
    drained: &mut Vec<Packet>,
    data: &[u8],
    srcs: u32,
    msgs: u64,
    burst: u64,
) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..msgs {
        let payload = pool.alloc(data);
        mb.push(Packet {
            header: header(i as u32 % srcs, i),
            payload,
            arrive_at: Nanos(i),
        });
        // A burst stays below the ring capacity per channel, so rings never
        // overflow into the locked fallback (a spill is legal, but the
        // steady state under test is the ring path).
        if i % burst == burst - 1 {
            drain(mb, drained);
        }
    }
    drain(mb, drained);
    ALLOCS.load(Ordering::Relaxed) - before
}

/// Drain `mb`, check that the ticket merge restored push order across the
/// channels, and drop the packets.
fn drain(mb: &Mailbox, drained: &mut Vec<Packet>) {
    drained.clear();
    mb.drain_into(drained);
    assert!(
        drained
            .windows(2)
            .all(|w| w[0].header.seq < w[1].header.seq),
        "a drain left push order"
    );
    drained.clear();
}

#[test]
fn steady_state_datapath_allocates_nothing_per_message() {
    let mb = Mailbox::new(Arc::new(Notify::new()));
    let pool = PayloadPool::new();
    let data = vec![0xA5u8; 256];
    let mut drained: Vec<Packet> = Vec::new();

    // Warmup: registers every channel ring, grows the pool and the drain
    // scratch to their steady footprint.
    // Drains of 8 entries, then of 256 (64 per channel): a merge of more
    // than 20 entries is where a stable sort takes a scratch buffer.
    for burst in [8, 256] {
        for _ in 0..4 {
            round(&mb, &pool, &mut drained, &data, 4, 512, burst);
        }
    }

    let fresh_before = pool.fresh_allocs();
    for burst in [8, 256] {
        let steady = round(&mb, &pool, &mut drained, &data, 4, 2048, burst);
        assert_eq!(
            steady, 0,
            "steady-state datapath performed {steady} heap allocations over \
             2048 messages drained {burst} at a time; the ring + arena hot \
             loop must allocate nothing"
        );
    }
    assert_eq!(
        pool.fresh_allocs(),
        fresh_before,
        "payload pool fell back to fresh slab allocation in steady state"
    );
    assert!(
        mb.ring_spills() == 0,
        "rings overflowed during the steady-state round; the measurement \
         did not stay on the lock-free path"
    );
    assert!(pool.reuses() > 0, "pool never recycled a slab");
}
