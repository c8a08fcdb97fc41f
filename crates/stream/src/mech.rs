//! The paper's communication mechanisms behind one lane-transport trait.
//!
//! A [`LaneTransport`] moves opaque item buffers along the topology's
//! [`Lane`]s. The stream runner is mechanism-agnostic: emitter, workers, and
//! collector call `send`/`recv`/`try_recv` with the lane and the item's
//! per-lane ordinal (`lane_seq`), and each mechanism maps that onto its own
//! wire resources:
//!
//! - **Baseline** — one plain duplicated communicator, the lane id as the
//!   tag. No hints: every thread funnels through the library's default
//!   single-VCI path ("MPI+threads (Original)").
//! - **Tags + VCIs** — one communicator duplicated with the MPI 4.0
//!   assertions and the tag-bits→VCI one-to-one hint (Listing 2): lane
//!   endpoints' thread ids ride in the tag's MSBs, giving each lane an
//!   independent fast path.
//! - **Endpoints** — one endpoint per thread slot (Listing 3);
//!   lanes address `(rank, thread)` directly in endpoint-rank space.
//! - **Partitioned** — one persistent partitioned op per lane (Listing 4),
//!   cycled in rounds of `part_window` partitions; `lane_seq` selects
//!   `(round, partition)` and the final partial round is padded.
//!
//! Transports are per-process, shared by its threads (`&self` methods);
//! per-lane mutable state carries its own lock and each lane is driven by
//! exactly one thread, so the locks are uncontended.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rankmpi_core::info::keys;
use rankmpi_core::tag::{TagLayout, TagPlacement};
use rankmpi_core::{Communicator, Info, ThreadCtx};
use rankmpi_core::{PrecvRequest, PsendRequest};

use crate::topology::{Lane, RankPlan};

/// Tag region for partitioned lane routes (clear of the runner's credit and
/// feedback tags and of baseline lane-id tags).
const PART_TAG_BASE: i64 = 600_000;

/// Sizing knobs a transport needs at setup.
#[derive(Debug, Clone, Copy)]
pub struct TransportOpts {
    /// Threads per middle rank (endpoint slots, VCI counts).
    pub threads: usize,
    /// Bytes per item (the partitioned partition size).
    pub item_bytes: usize,
    /// Partitions per partitioned round.
    pub part_window: usize,
}

/// Mechanism-neutral movement of item buffers along lanes.
///
/// `lane_seq` is the item's ordinal within the lane (0-based, dense): both
/// sides of a lane call with the same sequence of ordinals, which is what
/// lets the partitioned transport agree on `(round, partition)` without any
/// extra control traffic.
pub trait LaneTransport: Send + Sync {
    /// Send item `lane_seq` of `lane` (called by the lane's source thread).
    fn send(&self, th: &mut ThreadCtx, lane: &Lane, lane_seq: u64, data: &[u8]);
    /// Send a burst of items in one call: `(lane, lane_seq, data)` per item.
    ///
    /// Transports that can amortize injection (one context-gate acquisition,
    /// one batched doorbell for the whole burst) override this; the default
    /// just loops [`LaneTransport::send`]. Per-lane ordering within the
    /// batch must match the slice order.
    fn send_many(&self, th: &mut ThreadCtx, batch: &[(&Lane, u64, &[u8])]) {
        for (lane, lane_seq, data) in batch {
            self.send(th, lane, *lane_seq, data);
        }
    }
    /// Blocking receive of item `lane_seq` of `lane` into `out`, which the
    /// caller owns and reuses: its previous contents are replaced.
    fn recv(&self, th: &mut ThreadCtx, lane: &Lane, lane_seq: u64, out: &mut Vec<u8>);
    /// Nonblocking receive of item `lane_seq` of `lane` into `out`; `false`
    /// (and `out` untouched) if it has not arrived.
    fn try_recv(&self, th: &mut ThreadCtx, lane: &Lane, lane_seq: u64, out: &mut Vec<u8>) -> bool;
    /// Flush/complete the send side of `lane` after its last item.
    fn finish_tx(&self, th: &mut ThreadCtx, lane: &Lane);
    /// Complete the receive side of `lane` after its last item.
    fn finish_rx(&self, th: &mut ThreadCtx, lane: &Lane);
}

/// Which paper mechanism carries the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Plain shared communicator, no hints.
    Baseline,
    /// Communicator with assertions + tag-bits→VCI one-to-one hint.
    TagsVci,
    /// One endpoint per thread slot.
    Endpoints,
    /// Persistent partitioned ops, one per lane.
    Partitioned,
}

impl Mechanism {
    /// Every mechanism, benchmark order.
    pub const ALL: [Mechanism; 4] = [
        Mechanism::Baseline,
        Mechanism::TagsVci,
        Mechanism::Endpoints,
        Mechanism::Partitioned,
    ];

    /// Display label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Mechanism::Baseline => "baseline",
            Mechanism::TagsVci => "tags+vci",
            Mechanism::Endpoints => "endpoints",
            Mechanism::Partitioned => "partitioned",
        }
    }

    /// VCIs per process the universe should be built with.
    pub fn num_vcis(&self, threads: usize) -> usize {
        match self {
            Mechanism::Baseline => 1,
            Mechanism::TagsVci => threads.max(1),
            // Endpoints allocate their own VCIs on creation.
            Mechanism::Endpoints => 1,
            Mechanism::Partitioned => threads.clamp(2, 8),
        }
    }

    /// Build this rank's transport. Collective: every rank calls this once,
    /// in its setup thread, before entering its stream role.
    pub fn setup(
        &self,
        th: &mut ThreadCtx,
        world: &Communicator,
        plan: &RankPlan,
        opts: &TransportOpts,
    ) -> Arc<dyn LaneTransport> {
        match self {
            Mechanism::Baseline => {
                let comm = world.dup(th).expect("dup");
                Arc::new(CommTransport { comm, layout: None })
            }
            Mechanism::TagsVci => {
                let layout = TagLayout::for_threads(opts.threads, TagPlacement::Msb).unwrap();
                let info = Info::new()
                    .set(keys::ASSERT_ALLOW_OVERTAKING, "true")
                    .set(keys::ASSERT_NO_ANY_TAG, "true")
                    .set(keys::ASSERT_NO_ANY_SOURCE, "true")
                    .set(keys::NUM_VCIS, &opts.threads.to_string())
                    .set(keys::NUM_TAG_BITS_VCI, &layout.src_tid_bits.to_string())
                    .set(keys::PLACE_TAG_BITS, "MSB")
                    .set(keys::TAG_VCI_HASH_TYPE, "one-to-one");
                let comm = world.dup_with_info(th, info).expect("dup_with_info");
                Arc::new(CommTransport {
                    comm,
                    layout: Some(layout),
                })
            }
            Mechanism::Endpoints => {
                let eps = world
                    .create_endpoints(th, opts.threads)
                    .expect("create_endpoints");
                Arc::new(EpTransport { eps })
            }
            Mechanism::Partitioned => Arc::new(PartTransport::setup(th, world, plan, opts)),
        }
    }
}

/// Replace `out`'s contents with a received payload, reusing its capacity.
fn fill(out: &mut Vec<u8>, data: &[u8]) {
    out.clear();
    out.extend_from_slice(data);
}

/// Baseline / tags+VCIs: one shared communicator, lanes keyed by tag.
struct CommTransport {
    comm: Communicator,
    /// `Some` = encode lane thread ids into tag bits (tags+VCI mechanism);
    /// `None` = plain lane-id tags (baseline).
    layout: Option<TagLayout>,
}

impl CommTransport {
    fn tag(&self, lane: &Lane) -> i64 {
        match &self.layout {
            // Matching is (source rank, tag): thread ids in the tag make
            // each lane unique per rank pair, and the MSB src bits drive
            // the one-to-one VCI hash.
            Some(l) => l.encode(lane.src_tid, lane.dst_tid, 0).unwrap(),
            None => lane.id as i64,
        }
    }
}

impl LaneTransport for CommTransport {
    fn send(&self, th: &mut ThreadCtx, lane: &Lane, _lane_seq: u64, data: &[u8]) {
        self.comm
            .send(th, lane.dst, self.tag(lane), data)
            .expect("lane send");
    }

    fn send_many(&self, th: &mut ThreadCtx, batch: &[(&Lane, u64, &[u8])]) {
        // One isend_multi = one gate acquisition + one batched doorbell per
        // destination VCI group for the whole burst.
        let msgs: Vec<(usize, i64, &[u8])> = batch
            .iter()
            .map(|(lane, _seq, data)| (lane.dst, self.tag(lane), *data))
            .collect();
        for r in self.comm.isend_multi(th, &msgs).expect("lane send_many") {
            r.wait(&mut th.clock);
        }
    }

    fn recv(&self, th: &mut ThreadCtx, lane: &Lane, _lane_seq: u64, out: &mut Vec<u8>) {
        let (_st, data) = self
            .comm
            .recv(th, lane.src as i64, self.tag(lane))
            .expect("lane recv");
        fill(out, &data);
    }

    fn try_recv(&self, th: &mut ThreadCtx, lane: &Lane, _lane_seq: u64, out: &mut Vec<u8>) -> bool {
        self.comm
            .try_recv(th, lane.src as i64, self.tag(lane))
            .expect("lane try_recv")
            .map(|(_st, data)| fill(out, &data))
            .is_some()
    }

    fn finish_tx(&self, _th: &mut ThreadCtx, _lane: &Lane) {}
    fn finish_rx(&self, _th: &mut ThreadCtx, _lane: &Lane) {}
}

/// Endpoints: lanes address `(rank, thread slot)` in endpoint-rank space.
struct EpTransport {
    eps: Vec<Communicator>,
}

impl LaneTransport for EpTransport {
    fn send(&self, th: &mut ThreadCtx, lane: &Lane, _lane_seq: u64, data: &[u8]) {
        let ep = &self.eps[lane.src_tid];
        let dst_ep = ep.endpoint_rank(lane.dst, lane.dst_tid);
        ep.send(th, dst_ep, lane.id as i64, data).expect("ep send");
    }

    fn recv(&self, th: &mut ThreadCtx, lane: &Lane, _lane_seq: u64, out: &mut Vec<u8>) {
        let ep = &self.eps[lane.dst_tid];
        let src_ep = ep.endpoint_rank(lane.src, lane.src_tid);
        let (_st, data) = ep.recv(th, src_ep as i64, lane.id as i64).expect("ep recv");
        fill(out, &data);
    }

    fn try_recv(&self, th: &mut ThreadCtx, lane: &Lane, _lane_seq: u64, out: &mut Vec<u8>) -> bool {
        let ep = &self.eps[lane.dst_tid];
        let src_ep = ep.endpoint_rank(lane.src, lane.src_tid);
        ep.try_recv(th, src_ep as i64, lane.id as i64)
            .expect("ep try_recv")
            .map(|(_st, data)| fill(out, &data))
            .is_some()
    }

    fn finish_tx(&self, _th: &mut ThreadCtx, _lane: &Lane) {}
    fn finish_rx(&self, _th: &mut ThreadCtx, _lane: &Lane) {}
}

struct RxLane {
    req: PrecvRequest,
    /// Highest round `start` has been issued for.
    round: Mutex<u64>,
}

/// Partitioned: one persistent op pair per lane, cycled in fixed rounds.
struct PartTransport {
    window: usize,
    part_bytes: usize,
    tx: HashMap<usize, PsendRequest>,
    rx: HashMap<usize, RxLane>,
}

impl PartTransport {
    fn setup(
        th: &mut ThreadCtx,
        world: &Communicator,
        plan: &RankPlan,
        opts: &TransportOpts,
    ) -> Self {
        let comm = world.dup(th).expect("dup");
        let window = opts.part_window.max(1);
        let info = Info::new();
        // Init everything, then start receives, then sends: a psend's first
        // start blocks on the receiver's route handshake, which its precv
        // start emits.
        let mut rx = HashMap::new();
        for l in &plan.in_lanes {
            let req = comm
                .precv_init(
                    th,
                    l.src,
                    PART_TAG_BASE + l.id as i64,
                    window,
                    opts.item_bytes,
                    &info,
                )
                .expect("precv_init");
            rx.insert(
                l.id,
                RxLane {
                    req,
                    round: Mutex::new(0),
                },
            );
        }
        let mut tx = HashMap::new();
        for l in &plan.out_lanes {
            let req = comm
                .psend_init(
                    th,
                    l.dst,
                    PART_TAG_BASE + l.id as i64,
                    window,
                    opts.item_bytes,
                    &info,
                )
                .expect("psend_init");
            tx.insert(l.id, req);
        }
        for lane in rx.values() {
            lane.req.start(th).expect("precv start");
        }
        for req in tx.values() {
            req.start(th).expect("psend start");
        }
        PartTransport {
            window,
            part_bytes: opts.item_bytes,
            tx,
            rx,
        }
    }

    /// Re-arm the receive op when `lane_seq` crosses into a new round
    /// (idempotent — `try_recv` may ask repeatedly for the same ordinal).
    fn rx_rollover(&self, th: &mut ThreadCtx, lane: &Lane, round: u64) {
        let rx = &self.rx[&lane.id];
        // Read, then re-arm with `round` released (a lane has one consumer,
        // so nobody moves it meanwhile): `wait` and `start` are yield
        // points, and a plain mutex held across one keeps an engine task's
        // worker slot from whoever wants the lock next.
        let cur = *rx.round.lock();
        if round > cur {
            // The previous round was fully consumed partition by partition,
            // so its completion is immediate.
            rx.req.wait(th).expect("precv wait");
            rx.req.start(th).expect("precv start");
            *rx.round.lock() = round;
        }
    }
}

impl LaneTransport for PartTransport {
    fn send(&self, th: &mut ThreadCtx, lane: &Lane, lane_seq: u64, data: &[u8]) {
        let req = &self.tx[&lane.id];
        let part = (lane_seq % self.window as u64) as usize;
        if part == 0 && lane_seq > 0 {
            req.wait(th).expect("psend wait");
            req.start(th).expect("psend start");
        }
        req.pready(th, part, data).expect("pready");
    }

    fn recv(&self, th: &mut ThreadCtx, lane: &Lane, lane_seq: u64, out: &mut Vec<u8>) {
        let round = lane_seq / self.window as u64;
        let part = (lane_seq % self.window as u64) as usize;
        self.rx_rollover(th, lane, round);
        let rx = &self.rx[&lane.id];
        let notify = Arc::clone(th.proc().notify());
        notify.wait_until(|| rx.req.parrived(th, part).expect("parrived").then_some(()));
        *out = rx.req.read_partition(part);
    }

    fn try_recv(&self, th: &mut ThreadCtx, lane: &Lane, lane_seq: u64, out: &mut Vec<u8>) -> bool {
        let round = lane_seq / self.window as u64;
        let part = (lane_seq % self.window as u64) as usize;
        self.rx_rollover(th, lane, round);
        let rx = &self.rx[&lane.id];
        let arrived = rx.req.parrived(th, part).expect("parrived");
        if arrived {
            *out = rx.req.read_partition(part);
        }
        arrived
    }

    /// Pad the final partial round so the receiver's last `wait` completes
    /// (padding partitions are never consumed as items — lane counts bound
    /// what the receiver reads).
    fn finish_tx(&self, th: &mut ThreadCtx, lane: &Lane) {
        let req = &self.tx[&lane.id];
        let pad = vec![0u8; self.part_bytes];
        let rem = (lane.count % self.window as u64) as usize;
        if rem != 0 || lane.count == 0 {
            for part in rem..self.window {
                req.pready(th, part, &pad).expect("pad pready");
            }
        }
        req.wait(th).expect("psend final wait");
    }

    fn finish_rx(&self, th: &mut ThreadCtx, lane: &Lane) {
        // The in-flight round (padded by the sender if partial) completes.
        let rx = &self.rx[&lane.id];
        rx.req.wait(th).expect("precv final wait");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Role;
    use rankmpi_core::Universe;
    use rankmpi_vtime::sched::{install_thread_hook, SchedHook, SchedPoint};
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Counts the yield points its thread reaches, and how many of them with
    /// the lane's `round` mutex held.
    struct RoundHeld {
        transport: Arc<PartTransport>,
        lane: usize,
        yields: AtomicU64,
        held: AtomicU64,
    }

    impl SchedHook for RoundHeld {
        fn reached(&self, _point: SchedPoint) {
            self.yields.fetch_add(1, Ordering::Relaxed);
            if self.transport.rx[&self.lane].round.try_lock().is_none() {
                self.held.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn rx_rollover_holds_no_plain_lock_while_it_rearms_the_lane() {
        const WINDOW: usize = 2;
        const ITEMS: u64 = 3 * WINDOW as u64;
        let lane = Lane {
            id: 0,
            src: 0,
            src_tid: 0,
            dst: 1,
            dst_tid: 0,
            count: ITEMS,
        };
        let opts = TransportOpts {
            threads: 1,
            item_bytes: 8,
            part_window: WINDOW,
        };
        let u = Universe::builder().nodes(2).num_vcis(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let sender = env.rank() == 0;
            let lanes = |mine: bool| if mine { vec![lane.clone()] } else { Vec::new() };
            let plan = RankPlan {
                rank: env.rank(),
                role: if sender {
                    Role::Emitter
                } else {
                    Role::Collector
                },
                in_lanes: lanes(!sender),
                out_lanes: lanes(sender),
            };
            let t = Arc::new(PartTransport::setup(&mut th, &world, &plan, &opts));
            if sender {
                for i in 0..ITEMS {
                    t.send(&mut th, &lane, i, &i.to_le_bytes());
                }
                t.finish_tx(&mut th, &lane);
                return;
            }
            let hook = Arc::new(RoundHeld {
                transport: Arc::clone(&t),
                lane: lane.id,
                yields: AtomicU64::new(0),
                held: AtomicU64::new(0),
            });
            {
                let _armed = install_thread_hook(hook.clone());
                let mut buf = Vec::new();
                for i in 0..ITEMS {
                    t.recv(&mut th, &lane, i, &mut buf);
                    assert_eq!(buf, i.to_le_bytes());
                }
            }
            t.finish_rx(&mut th, &lane);
            // Asserted after the exchange: a lock held is a count, not a
            // hang.
            assert_eq!(*t.rx[&lane.id].round.lock(), ITEMS / WINDOW as u64 - 1);
            assert!(hook.yields.load(Ordering::Relaxed) > 0);
            assert_eq!(hook.held.load(Ordering::Relaxed), 0);
        });
    }
}
