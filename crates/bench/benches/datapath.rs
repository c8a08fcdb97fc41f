//! Datapath benchmarks: single-thread mailbox push/drain cost, packet-arena
//! allocation behavior, and batched-doorbell amortization curves. Writes a
//! machine-readable `BENCH_datapath.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use rankmpi_bench::json::{write_bench_json, Json};
use rankmpi_bench::{mailbox_costs, packet, print_table};
use rankmpi_core::Universe;
use rankmpi_fabric::{Mailbox, Notify, Packet, PayloadPool};

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

/// Heap allocations per message in a warmed steady state: pooled payloads
/// vs a fresh `Bytes` copy per message (the pre-arena datapath), both
/// through the same mailbox.
fn allocs_per_message(pooled: bool) -> f64 {
    const MSGS: u64 = 4_096;
    let mb = Mailbox::new(Arc::new(Notify::new()));
    let pool = PayloadPool::new();
    let data = vec![0x3Cu8; 256];
    let mut buf: Vec<Packet> = Vec::new();
    let mut round = |n: u64| {
        for seq in 0..n {
            let payload = if pooled {
                pool.alloc(&data)
            } else {
                Bytes::copy_from_slice(&data)
            };
            mb.push_quiet(packet((seq % 4) as u32, seq, payload), None);
            if seq % 8 == 7 {
                buf.clear();
                mb.drain_into(&mut buf);
            }
        }
        buf.clear();
        mb.drain_into(&mut buf);
        buf.clear();
    };
    for _ in 0..4 {
        round(MSGS);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    round(MSGS);
    (ALLOCS.load(Ordering::Relaxed) - before) as f64 / MSGS as f64
}

/// Doorbell rings per message when rank 0 injects `rounds` batches, each one
/// message per entry of `dsts` (virtual counters; fully deterministic).
fn doorbells_per_message(nodes: usize, rounds: usize, dsts: &[usize]) -> f64 {
    let u = Universe::builder().nodes(nodes).build();
    let deltas = u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        if env.rank() == 0 {
            let vci = env.proc().vci(world.vci_block()[0]);
            let before = vci.doorbells();
            let body = [0x77u8; 64];
            for _ in 0..rounds {
                let msgs: Vec<(usize, i64, &[u8])> =
                    dsts.iter().map(|&d| (d, 9i64, &body[..])).collect();
                for r in world.isend_multi(&mut th, &msgs).unwrap() {
                    r.wait(&mut th.clock);
                }
            }
            vci.doorbells() - before
        } else {
            let mine = dsts.iter().filter(|&&d| d == env.rank()).count();
            for _ in 0..rounds * mine {
                world.recv(&mut th, 0, 9).unwrap();
            }
            0
        }
    });
    deltas.into_iter().sum::<u64>() as f64 / (rounds * dsts.len()) as f64
}

fn bench_datapath(_c: &mut Criterion) {
    let (push_ns, drain_tput) = mailbox_costs(2_000);
    print_table(
        "Mailbox push+drain — single thread, 4 channels x 32 pushes per drain",
        &["ns/push", "drain msgs/s"],
        &[vec![format!("{push_ns:.0}"), format!("{drain_tput:.3e}")]],
    );

    // --- Allocations per message, before/after the packet arena. ---
    let pooled_allocs = allocs_per_message(true);
    let unpooled_allocs = allocs_per_message(false);
    print_table(
        "Heap allocations per message (steady state)",
        &["arena", "fresh Bytes"],
        &[vec![
            format!("{pooled_allocs:.3}"),
            format!("{unpooled_allocs:.3}"),
        ]],
    );
    assert_eq!(
        pooled_allocs, 0.0,
        "pooled steady state must allocate nothing per message"
    );
    assert!(
        unpooled_allocs >= 1.0,
        "the unpooled baseline should allocate at least once per message"
    );

    // --- Doorbells per message vs batch size (virtual counters). ---
    let mut curve = Vec::new();
    let mut curve_rows = Vec::new();
    let mut prev = f64::INFINITY;
    for batch in [1usize, 4, 16, 64] {
        let dpm = doorbells_per_message(2, 64 / batch, &vec![1; batch]);
        assert!(
            dpm <= prev,
            "doorbells/message must not increase with batch size"
        );
        if batch == 1 {
            assert_eq!(dpm, 1.0, "unbatched sends ring one doorbell each");
        }
        if batch >= 16 {
            assert!(
                dpm < 0.3,
                "batch {batch} must amortize below 0.3 doorbells/message, got {dpm}"
            );
        }
        prev = dpm;
        curve.push(Json::obj([
            ("batch", Json::int(batch as u64)),
            ("doorbells_per_message", Json::Num(dpm)),
        ]));
        curve_rows.push(vec![batch.to_string(), format!("{dpm:.4}")]);
    }
    print_table(
        "Doorbells per message vs injection batch size",
        &["batch", "doorbells/message"],
        &curve_rows,
    );

    // --- Workload-shaped doorbell ratios. ---
    // Halo: a center rank posts its four per-direction boundary sends (one
    // per neighbor rank) as one batch per iteration — the shape
    // `exchange_loop` produces per thread. Farm: the emitter flushes a full
    // 16-item lane burst to one worker per round (the stream runner's
    // `EMIT_BURST` credit window).
    let halo = doorbells_per_message(5, 64, &[1, 2, 3, 4]);
    let farm = doorbells_per_message(2, 32, &[1; 16]);
    print_table(
        "Workload-shaped doorbell amortization",
        &["halo (4-direction rounds)", "stream farm (16-item flushes)"],
        &[vec![format!("{halo:.4}"), format!("{farm:.4}")]],
    );
    assert!(halo < 0.3, "halo-shaped ratio must be < 0.3, got {halo}");
    assert!(farm < 0.3, "farm-shaped ratio must be < 0.3, got {farm}");

    write_bench_json(
        "datapath",
        &Json::obj([
            ("bench", Json::str("datapath")),
            (
                "push_drain",
                Json::obj([
                    ("ring_ns_per_push", Json::Num(push_ns)),
                    ("ring_drain_msgs_per_sec", Json::Num(drain_tput)),
                ]),
            ),
            (
                "allocs_per_message",
                Json::obj([
                    ("arena", Json::Num(pooled_allocs)),
                    ("fresh_bytes", Json::Num(unpooled_allocs)),
                ]),
            ),
            ("doorbells_vs_batch", Json::Arr(curve)),
            (
                "workload_shaped_doorbells_per_message",
                Json::obj([
                    ("halo_shaped", Json::Num(halo)),
                    ("stream_farm_shaped", Json::Num(farm)),
                ]),
            ),
        ]),
    );
}

criterion_group!(benches, bench_datapath);
criterion_main!(benches);
