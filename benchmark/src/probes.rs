//! Probes: tight loops over one layer's public functions, shaped by the
//! workload's payload size, lane count and batch depth. Each returns the
//! median over [`BATCHES`] batches of wall ns per call. Single-threaded
//! unless the name says otherwise, so a probe prices a layer with nothing
//! contending and no wake in the way — the floor the ledger compares the
//! end-to-end number against.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rankmpi_core::matching::{Incoming, MatchPattern, PostedRecv};
use rankmpi_core::request::ReqState;
use rankmpi_core::vci::KIND_PT2PT;
use rankmpi_core::{EngineKind, Status, Universe, ANY_SOURCE, ANY_TAG};
use rankmpi_fabric::{
    transmit, Header, Mailbox, NetworkProfile, Nic, Notify, Packet, PayloadPool, SpscRing,
};
use rankmpi_vtime::{Clock, ContentionLock, Nanos};

use crate::stats;
use crate::workloads::{Shape, Workload};

/// Batches a probe takes its median over.
const BATCHES: usize = 7;
/// Calls per batch aimed at (a batch is whole rounds of the shape).
const CALLS: usize = 4096;
/// Handoffs per side of the two wake-latency probes.
const HANDOFFS: usize = 2000;

/// Every probe result of one workload, wall ns.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    pub arena_alloc_ns: f64,
    pub spsc_push_pop_ns: f64,
    pub mailbox_push_ns: f64,
    pub mailbox_drain_ns_per_msg: f64,
    pub notify_notify_ns: f64,
    pub notify_wake_latency_ns_p50: f64,
    pub engine_handoff_ns_p50: f64,
    pub lock_roundtrip_ns: f64,
    pub transmit_transmit_ns: f64,
    pub matching_post_ns: f64,
    pub matching_incoming_ns: f64,
    pub request_complete_ns: f64,
    pub vci_send_packet_ns: f64,
    pub vci_post_recv_ns: f64,
    pub vci_progress_ns_per_msg: f64,
    pub universe_launch_ns_per_rank: f64,
}

/// Run every probe in the shape of `w`.
pub fn run(w: Workload) -> Probes {
    let shape = w.shape();
    // `fanin` is the one workload whose receives are wildcards that mostly
    // find their message already queued; the others match posted receives.
    let unexpected = w == Workload::Fanin;
    let (mailbox_push_ns, mailbox_drain_ns_per_msg) = mailbox(shape);
    let (matching_post_ns, matching_incoming_ns) = matching(shape, unexpected);
    let (vci_send_packet_ns, vci_post_recv_ns, vci_progress_ns_per_msg) = vci(shape, unexpected);
    Probes {
        arena_alloc_ns: arena_alloc(shape),
        spsc_push_pop_ns: spsc(shape),
        mailbox_push_ns,
        mailbox_drain_ns_per_msg,
        notify_notify_ns: notify_notify(),
        notify_wake_latency_ns_p50: wake_latency_threads(),
        engine_handoff_ns_p50: wake_latency_tasks(),
        lock_roundtrip_ns: lock_roundtrip(),
        transmit_transmit_ns: transmit_probe(shape),
        matching_post_ns,
        matching_incoming_ns,
        request_complete_ns: request_complete(),
        vci_send_packet_ns,
        vci_post_recv_ns,
        vci_progress_ns_per_msg,
        universe_launch_ns_per_rank: universe_launch(w),
    }
}

/// Median of [`BATCHES`] batches, each reported by `batch` as ns per call,
/// after one unreported batch that warms caches, freelists and branch
/// predictors.
fn median_of_batches(mut batch: impl FnMut() -> f64) -> f64 {
    batch();
    let samples: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    stats::median(&samples)
}

/// Rounds of `per_round` calls that make a batch of about [`CALLS`] calls.
fn rounds_for(per_round: usize) -> usize {
    (CALLS / per_round.max(1)).max(1)
}

fn header(src: u32, tag: i64, seq: u64) -> Header {
    Header {
        kind: KIND_PT2PT,
        context_id: 0,
        src,
        dst: 0,
        tag,
        seq,
        aux: 0,
        aux2: 0,
    }
}

fn packet(src: u32, tag: i64, seq: u64, payload: Bytes) -> Packet {
    Packet {
        header: header(src, tag, seq),
        payload,
        arrive_at: Nanos(seq),
    }
}

/// `PayloadPool::alloc` of a workload-sized message, view dropped at once
/// (the steady state: the slab is recycled by the next call).
fn arena_alloc(shape: Shape) -> f64 {
    let pool = PayloadPool::new();
    let data = vec![0xA5u8; shape.bytes];
    median_of_batches(|| {
        let from = Instant::now();
        for _ in 0..CALLS {
            black_box(pool.alloc(black_box(&data)));
        }
        from.elapsed().as_nanos() as f64 / CALLS as f64
    })
}

/// `SpscRing::try_push` of a batch, then one `pop_all_into`; per element.
fn spsc(shape: Shape) -> f64 {
    let ring: SpscRing<Packet> = SpscRing::with_capacity(Mailbox::ring_capacity());
    let batch = shape.batch.min(ring.capacity());
    let rounds = rounds_for(batch);
    let mut out: Vec<Packet> = Vec::with_capacity(batch);
    median_of_batches(|| {
        let from = Instant::now();
        for _ in 0..rounds {
            for i in 0..batch {
                let pushed = ring.try_push(packet(0, i as i64, i as u64, Bytes::new()));
                assert!(pushed.is_ok(), "ring sized for the batch");
            }
            out.clear();
            assert_eq!(ring.pop_all_into(&mut out), batch);
        }
        from.elapsed().as_nanos() as f64 / (rounds * batch) as f64
    })
}

/// `Mailbox::push_quiet` over `lanes` source channels x `batch`, then one
/// `drain_into`: `(ns per push, drain ns per message)`.
fn mailbox(shape: Shape) -> (f64, f64) {
    let mb = Mailbox::new(Arc::new(Notify::new()));
    let per_round = shape.lanes * shape.batch;
    let rounds = rounds_for(per_round);
    let mut out: Vec<Packet> = Vec::with_capacity(per_round);
    let mut push = Vec::new();
    let mut drain = Vec::new();
    for _ in 0..=BATCHES {
        let (mut push_ns, mut drain_ns) = (0u128, 0u128);
        for _ in 0..rounds {
            let from = Instant::now();
            for i in 0..shape.batch {
                for lane in 0..shape.lanes {
                    mb.push_quiet(packet(lane as u32, i as i64, i as u64, Bytes::new()), None);
                }
            }
            push_ns += from.elapsed().as_nanos();
            out.clear();
            let from = Instant::now();
            let n = mb.drain_into(&mut out);
            drain_ns += from.elapsed().as_nanos();
            assert_eq!(n, per_round);
        }
        push.push(push_ns as f64 / (rounds * per_round) as f64);
        drain.push(drain_ns as f64 / (rounds * per_round) as f64);
    }
    (stats::median(&push[1..]), stats::median(&drain[1..]))
}

/// `Notify::notify` with nobody waiting.
fn notify_notify() -> f64 {
    let n = Notify::new();
    median_of_batches(|| {
        let from = Instant::now();
        for _ in 0..CALLS {
            n.notify();
        }
        black_box(n.version());
        from.elapsed().as_nanos() as f64 / CALLS as f64
    })
}

/// One side of a two-party handoff over two notifiers: wait for the peer's
/// `notify`, note how long ago the peer stamped the clock just before it,
/// stamp and notify back. Returns the observed wake latencies.
fn handoff_side(
    first: bool,
    mine: &Notify,
    theirs: &Notify,
    stamp: &AtomicU64,
    base: Instant,
) -> Vec<f64> {
    let mut lat = Vec::with_capacity(HANDOFFS);
    let mut seen = 0;
    for i in 0..HANDOFFS {
        if !(first && i == 0) {
            loop {
                let v = mine.wait_past(seen, Duration::from_millis(1));
                if v > seen {
                    seen = v;
                    break;
                }
            }
            let now = base.elapsed().as_nanos() as u64;
            // Acquire pairs with the peer's Release store below: the stamp
            // read is the one written before the notify that woke us.
            lat.push(now.saturating_sub(stamp.load(Ordering::Acquire)) as f64);
        }
        stamp.store(base.elapsed().as_nanos() as u64, Ordering::Release);
        theirs.notify();
    }
    lat
}

/// `notify()` → peer returns from `wait_past`, between two OS threads pinned
/// like the ranks of a thread-launched workload: the condvar wake every
/// blocking receive of such a run pays.
fn wake_latency_threads() -> f64 {
    let (a, b) = (Notify::new(), Notify::new());
    let stamp = AtomicU64::new(0);
    let base = Instant::now();
    let side = |slot: usize| {
        let (a, b, stamp) = (&a, &b, &stamp);
        move || {
            crate::sys::pin(slot);
            if slot == 0 {
                handoff_side(true, a, b, stamp, base)
            } else {
                handoff_side(false, b, a, stamp, base)
            }
        }
    };
    let lat = std::thread::scope(|s| {
        let sides = [s.spawn(side(0)), s.spawn(side(1))];
        sides
            .map(|h| h.join().expect("handoff side panicked"))
            .concat()
    });
    stats::median(&lat)
}

/// The same handoff between two rank-tasks of a task-launched universe,
/// pinned the same way: `wait_past` parks through `vtime::engine` instead of
/// a condvar.
fn wake_latency_tasks() -> f64 {
    let (a, b) = (Notify::new(), Notify::new());
    let stamp = AtomicU64::new(0);
    let base = Instant::now();
    let uni = Universe::builder().nodes(2).tasks().build();
    let lat: Vec<f64> = uni
        .run(|env| {
            crate::sys::pin(env.rank());
            if env.rank() == 0 {
                handoff_side(true, &a, &b, &stamp, base)
            } else {
                handoff_side(false, &b, &a, &stamp, base)
            }
        })
        .concat();
    stats::median(&lat)
}

/// `ContentionLock::lock` + `release`, uncontended.
fn lock_roundtrip() -> f64 {
    let lock = ContentionLock::new(0u64);
    let mut clock = Clock::new();
    median_of_batches(|| {
        let from = Instant::now();
        for _ in 0..CALLS {
            let mut g = lock.lock(&mut clock);
            *g += 1;
            g.release(&mut clock);
        }
        from.elapsed().as_nanos() as f64 / CALLS as f64
    })
}

/// `fabric::transmit` of a workload-sized payload into a mailbox (gate,
/// stamping, ring push and the notify), drained between rounds untimed.
fn transmit_probe(shape: Shape) -> f64 {
    let profile = NetworkProfile::omni_path();
    let src = Nic::new(0, profile.clone()).alloc_context();
    let dst = Nic::new(1, profile.clone()).alloc_context();
    let mb = Mailbox::new(Arc::new(Notify::new()));
    let payload = Bytes::from(vec![0xA5u8; shape.bytes]);
    let mut clock = Clock::new();
    let rounds = rounds_for(shape.batch);
    let mut out: Vec<Packet> = Vec::with_capacity(shape.batch);
    median_of_batches(|| {
        let mut ns = 0u128;
        for _ in 0..rounds {
            let from = Instant::now();
            for i in 0..shape.batch {
                let h = header(1, i as i64, i as u64);
                black_box(transmit(
                    &profile,
                    &mut clock,
                    &src,
                    &dst,
                    &mb,
                    h,
                    payload.clone(),
                ));
            }
            ns += from.elapsed().as_nanos();
            out.clear();
            mb.drain_into(&mut out);
        }
        ns as f64 / (rounds * shape.batch) as f64
    })
}

fn posted(src: i64, tag: i64) -> PostedRecv {
    PostedRecv {
        pattern: MatchPattern {
            context_id: 0,
            src,
            tag,
        },
        req: ReqState::detached(),
        posted_at: Nanos::ZERO,
    }
}

/// The default engine's `post_recv` and `incoming` at the workload's queue
/// depth: `(post ns, incoming ns)`. Posted-first: `lanes x batch` exact
/// receives are queued, then as many packets match them. Unexpected-first
/// (`fanin`): the packets queue, then wildcard receives take them.
fn matching(shape: Shape, unexpected: bool) -> (f64, f64) {
    let per_round = shape.lanes * shape.batch;
    let rounds = rounds_for(per_round);
    let mut eng = EngineKind::default().new_engine();
    // Arrival stamps keep rising across rounds, as virtual time does in a
    // run: the engine keeps its unexpected queue sorted by arrival.
    let mut arrivals = 0u64;
    let mut post = Vec::new();
    let mut incoming = Vec::new();
    for _ in 0..=BATCHES {
        let (mut post_ns, mut in_ns) = (0u128, 0u128);
        for _ in 0..rounds {
            // Receives and packets are built untimed; only the engine calls
            // are inside the clocks.
            let recvs: Vec<PostedRecv> = (0..per_round)
                .map(|k| {
                    if unexpected {
                        posted(ANY_SOURCE, ANY_TAG)
                    } else {
                        posted((k % shape.lanes) as i64 + 1, (k / shape.lanes) as i64)
                    }
                })
                .collect();
            let pkts: Vec<Packet> = (0..per_round)
                .map(|k| {
                    let (lane, i) = (k % shape.lanes, k / shape.lanes);
                    arrivals += 1;
                    packet(lane as u32 + 1, i as i64, arrivals, Bytes::new())
                })
                .collect();
            let mut deliver = |eng: &mut Box<dyn rankmpi_core::matching::MatchEngine>| {
                let from = Instant::now();
                let mut matched = 0;
                for p in pkts.iter().cloned() {
                    if let Incoming::Matched { .. } = black_box(eng.incoming(p)) {
                        matched += 1;
                    }
                }
                in_ns += from.elapsed().as_nanos();
                matched
            };
            if unexpected {
                assert_eq!(deliver(&mut eng), 0);
            }
            let from = Instant::now();
            let mut hits = 0;
            for r in recvs {
                if black_box(eng.post_recv(r)).0.is_some() {
                    hits += 1;
                }
            }
            post_ns += from.elapsed().as_nanos();
            if unexpected {
                assert_eq!(hits, per_round);
            } else {
                assert_eq!(hits, 0);
                assert_eq!(deliver(&mut eng), per_round);
            }
            assert_eq!(eng.posted_len() + eng.unexpected_len(), 0);
        }
        post.push(post_ns as f64 / (rounds * per_round) as f64);
        incoming.push(in_ns as f64 / (rounds * per_round) as f64);
    }
    (stats::median(&post[1..]), stats::median(&incoming[1..]))
}

/// `ReqState::new` + `complete` + `take_outcome`: a request's whole life
/// with nobody blocked on it.
fn request_complete() -> f64 {
    let notify = Arc::new(Notify::new());
    let status = Status {
        source: 0,
        tag: 0,
        len: 0,
    };
    median_of_batches(|| {
        let from = Instant::now();
        for _ in 0..CALLS {
            let req = ReqState::new(Arc::clone(&notify));
            req.complete(Nanos(1), status, Bytes::new());
            black_box(req.take_outcome()).expect("completed without error");
        }
        from.elapsed().as_nanos() as f64 / CALLS as f64
    })
}

/// The three calls a message makes through `Vci`, with one thread driving
/// the VCIs of all ranks over the NIC path ("anyone can progress anything")
/// and so no wake in between: `(send_packet ns, post_recv ns, progress ns
/// per message)`. Ranks `1..=lanes` send `batch` messages each to rank 0.
fn vci(shape: Shape, unexpected: bool) -> (f64, f64, f64) {
    let uni = Universe::builder().nodes(shape.lanes + 1).build();
    let shared = uni.shared();
    let dst_proc = shared.proc(0);
    let dst = dst_proc.vci(0);
    let srcs: Vec<_> = (1..=shape.lanes).map(|r| shared.proc(r).vci(0)).collect();
    let data = vec![0xA5u8; shape.bytes];
    let per_round = shape.lanes * shape.batch;
    let rounds = rounds_for(per_round);
    let mut clock = Clock::new();
    let mut seq = 0u64;
    let (mut send, mut post, mut progress) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..=BATCHES {
        let (mut send_ns, mut post_ns, mut prog_ns) = (0u128, 0u128, 0u128);
        for _ in 0..rounds {
            // Untimed: requests (priced by `request.complete_ns`) and pooled
            // payloads (priced by `arena.alloc_ns`).
            let reqs: Vec<Arc<ReqState>> = (0..per_round)
                .map(|_| ReqState::new(Arc::clone(dst_proc.notify())))
                .collect();
            let mut payloads: Vec<Bytes> = (0..per_round)
                .map(|k| srcs[k % shape.lanes].payload_pool().alloc(&data))
                .collect();
            let mut post_all = |clock: &mut Clock| {
                let from = Instant::now();
                for (k, req) in reqs.iter().enumerate() {
                    let (src, tag) = if unexpected {
                        (ANY_SOURCE, ANY_TAG)
                    } else {
                        ((k % shape.lanes) as i64 + 1, (k / shape.lanes) as i64)
                    };
                    let pattern = MatchPattern {
                        context_id: 0,
                        src,
                        tag,
                    };
                    dst.post_recv(clock, pattern, Arc::clone(req));
                }
                post_ns += from.elapsed().as_nanos();
            };
            if !unexpected {
                post_all(&mut clock);
            }
            let from = Instant::now();
            for (k, payload) in payloads.drain(..).enumerate() {
                let (lane, i) = (k % shape.lanes, k / shape.lanes);
                seq += 1;
                let h = header(lane as u32 + 1, i as i64, seq);
                black_box(srcs[lane].send_packet(&mut clock, &dst, false, h, payload));
            }
            send_ns += from.elapsed().as_nanos();
            let from = Instant::now();
            let n = dst.progress(&mut clock);
            prog_ns += from.elapsed().as_nanos();
            assert_eq!(n, per_round);
            if unexpected {
                post_all(&mut clock);
            }
            for req in &reqs {
                assert!(req.is_complete(), "every message met its receive");
                black_box(req.take_outcome()).expect("completed without error");
            }
        }
        let calls = (rounds * per_round) as f64;
        send.push(send_ns as f64 / calls);
        post.push(post_ns as f64 / calls);
        progress.push(prog_ns as f64 / calls);
    }
    (
        stats::median(&send[1..]),
        stats::median(&post[1..]),
        stats::median(&progress[1..]),
    )
}

/// Build a universe of the workload's size and launch mode and run a trivial
/// body on it; per rank.
fn universe_launch(w: Workload) -> f64 {
    median_of_batches(|| {
        let from = Instant::now();
        let mut b = Universe::builder().nodes(w.ranks());
        if w.tasks() {
            b = b.tasks();
        }
        black_box(b.build().run(|env| env.rank()));
        from.elapsed().as_nanos() as f64 / w.ranks() as f64
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every probe runs to completion on every workload shape and measures
    /// something: the internal asserts (message counts, matches, completed
    /// requests) are the real check here.
    #[test]
    fn probes_run_on_every_shape() {
        for w in [Workload::Pingpong, Workload::Fanin] {
            let p = run(w);
            for (name, v) in [
                ("arena", p.arena_alloc_ns),
                ("spsc", p.spsc_push_pop_ns),
                ("push", p.mailbox_push_ns),
                ("drain", p.mailbox_drain_ns_per_msg),
                ("notify", p.notify_notify_ns),
                ("wake", p.notify_wake_latency_ns_p50),
                ("handoff", p.engine_handoff_ns_p50),
                ("lock", p.lock_roundtrip_ns),
                ("transmit", p.transmit_transmit_ns),
                ("post", p.matching_post_ns),
                ("incoming", p.matching_incoming_ns),
                ("complete", p.request_complete_ns),
                ("send_packet", p.vci_send_packet_ns),
                ("post_recv", p.vci_post_recv_ns),
                ("progress", p.vci_progress_ns_per_msg),
                ("launch", p.universe_launch_ns_per_rank),
            ] {
                assert!(v.is_finite() && v > 0.0, "{name} on {}: {v}", w.name());
            }
        }
    }
}
