//! The staged-topology stream runner.
//!
//! Rank 0 is the **emitter**: it sources sequence-numbered items under
//! credit-based backpressure. Middle ranks are multithreaded **worker**
//! stages: each thread owns one in-lane/out-lane pair and processes exactly
//! the lane's item count. The last rank is the **collector**: it greedily
//! polls every in-lane, verifies each item's payload and provenance digest,
//! reassembles sequence order through a bounded [`ReorderBuffer`], and emits
//! results exactly once, in order.
//!
//! **Backpressure.** The emitter starts with `credits` tokens; a first
//! emission consumes one. The collector grants tokens back in batches of
//! `credit_batch` as it delivers items in order, and flushes a partial batch
//! whenever its poll loop goes idle — with that flush, any `credits >= 1`
//! is deadlock-free. The reorder buffer's capacity equals the credit
//! window, which makes overflow impossible by construction: at most
//! `credits` items are un-delivered at any instant.
//!
//! **Feedback** (farm-with-feedback): the collector routes a hash-selected
//! item's first-pass arrival back to the emitter, which re-emits it on the
//! same lane *without* consuming a new token — the item keeps its token (and
//! its original emission timestamp) across the whole loop, so the
//! backpressure bound still holds.

use std::collections::VecDeque;
use std::sync::Arc;

use rankmpi_core::{Communicator, EngineKind, LaunchMode, ThreadCtx, Universe};
use rankmpi_fabric::{FaultPlan, NetworkProfile};
use rankmpi_obs::trace as obs;
use rankmpi_vtime::Nanos;

use crate::item::{self, ItemHeader, HEADER};
use crate::mech::{LaneTransport, Mechanism, TransportOpts};
use crate::reorder::{PushErr, ReorderBuffer};
use crate::topology::{plan_for_rank, RankPlan, Role, Topology};

/// Credit grants, collector → emitter (payload: `u64` token count, LE).
const CREDIT_TAG: i64 = 500_000;
/// Feedback items, collector → emitter (payload: the full item buffer).
const FEEDBACK_TAG: i64 = 500_001;

/// Max items the emitter injects per [`LaneTransport::send_many`] burst.
/// Bounded so a large credit window doesn't turn into one giant batch that
/// delays the first items' injection.
const EMIT_BURST: u64 = 16;

/// Common measurement start instant (1 ms of virtual time, past all setup
/// activity — same convention as the workloads crate).
const START: Nanos = Nanos(1_000_000);

/// Stream run configuration.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Stage layout.
    pub topology: Topology,
    /// Which paper mechanism carries the lanes.
    pub mechanism: Mechanism,
    /// Items the emitter sources.
    pub items: u64,
    /// Bytes per item (≥ [`HEADER`]).
    pub item_bytes: usize,
    /// Credit window: max items in flight, and the reorder-buffer capacity.
    pub credits: u64,
    /// Tokens per credit-grant message (clamped to `credits`).
    pub credit_batch: u64,
    /// Partitions per partitioned-mechanism round.
    pub part_window: usize,
    /// Virtual compute per item per worker stage.
    pub work: Nanos,
    /// Work imbalance: per-item compute scales by `1 + jitter * u`,
    /// deterministic `u ∈ [0, 1)` per (rank, thread, item).
    pub work_jitter: f64,
    /// Seed for payloads, digests, and feedback selection.
    pub seed: u64,
    /// Matching engine under the mechanisms.
    pub matching: EngineKind,
    /// Fabric timing profile.
    pub profile: NetworkProfile,
    /// OS threads or cooperative rank-tasks.
    pub launch: LaunchMode,
    /// Optional fault injection (drops/duplicates/reordering/stragglers).
    pub fault_plan: Option<FaultPlan>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            topology: Topology::Farm {
                workers: 2,
                threads: 2,
            },
            mechanism: Mechanism::Baseline,
            items: 64,
            item_bytes: 256,
            credits: 32,
            credit_batch: 8,
            part_window: 8,
            work: Nanos::us(2),
            work_jitter: 0.0,
            seed: 1,
            matching: EngineKind::default(),
            profile: NetworkProfile::omni_path(),
            launch: LaunchMode::Threads,
            fault_plan: None,
        }
    }
}

/// Results of one stream run.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Mechanism label.
    pub mechanism: &'static str,
    /// Topology label.
    pub topology: &'static str,
    /// Items sourced.
    pub items: u64,
    /// Items the collector delivered (== `items` on success).
    pub delivered: u64,
    /// Items that took the feedback loop.
    pub feedback_items: u64,
    /// Collector's virtual time from measurement start to last delivery.
    pub elapsed: Nanos,
    /// Per-item end-to-end latency (emission to in-order delivery), ns,
    /// in delivery order.
    pub latencies_ns: Vec<u64>,
    /// Times the emitter went token-starved.
    pub credit_stalls: u64,
    /// Total virtual time the emitter spent token-starved.
    pub credit_stall_ns: u64,
    /// Peak reorder-buffer occupancy at the collector.
    pub reorder_peak: usize,
    /// Every delivered item passed payload + digest + hop verification,
    /// exactly once, in order.
    pub verified: bool,
}

impl StreamReport {
    /// Delivered items per virtual second.
    pub fn throughput_items_per_sec(&self) -> f64 {
        if self.elapsed.0 == 0 {
            return 0.0;
        }
        self.delivered as f64 * 1e9 / self.elapsed.0 as f64
    }
}

/// Per-rank outcome returned from the universe closure.
enum RankOut {
    Emitter {
        credit_stalls: u64,
        credit_stall_ns: u64,
    },
    Worker,
    Collector {
        latencies_ns: Vec<u64>,
        delivered: u64,
        feedback_items: u64,
        reorder_peak: usize,
        elapsed: Nanos,
    },
}

/// Deterministic per-(rank, thread, item) work time under the configured
/// jitter.
fn work_time(cfg: &StreamConfig, rank: usize, tid: usize, n: u64) -> Nanos {
    if cfg.work_jitter == 0.0 {
        return cfg.work;
    }
    let x = item::splitmix(
        (rank as u64) ^ ((tid as u64) << 24) ^ n.rotate_left(40) ^ cfg.seed ^ 0x30B5,
    );
    let u = (x >> 40) as f64 / (1u64 << 24) as f64;
    cfg.work.scale_f64(1.0 + cfg.work_jitter * u)
}

/// Run the stream and report delivery, latency, and backpressure behavior.
///
/// Panics if any invariant breaks: payload corruption, digest/hop mismatch
/// (mis-routed or re-processed item), duplicate or out-of-order delivery, or
/// reorder-buffer overflow (backpressure violation).
pub fn run_stream(cfg: &StreamConfig) -> StreamReport {
    assert!(cfg.item_bytes >= HEADER, "items must fit the header");
    assert!(cfg.credits >= 1, "need at least one credit");
    assert!(cfg.items >= 1, "need at least one item");
    let topo = cfg.topology;
    let threads = topo.threads();

    let mut builder = Universe::builder()
        .nodes(topo.n_ranks())
        .procs_per_node(1)
        .threads_per_proc(threads)
        .num_vcis(cfg.mechanism.num_vcis(threads))
        .matching(cfg.matching)
        .profile(cfg.profile.clone())
        .launch(cfg.launch);
    if let Some(plan) = &cfg.fault_plan {
        builder = builder.fault_plan(plan.clone());
    }
    let uni = builder.build();

    let opts = TransportOpts {
        threads,
        item_bytes: cfg.item_bytes,
        part_window: cfg.part_window,
    };

    let outs: Vec<RankOut> = uni.run(|env| {
        let world = env.world();
        let mut setup = env.single_thread();
        let plan = plan_for_rank(&topo, env.rank(), cfg.seed, cfg.items);
        let transport = cfg.mechanism.setup(&mut setup, &world, &plan, &opts);
        drop(setup);
        match plan.role {
            Role::Emitter => env
                .parallel_n(1, |th| run_emitter(th, cfg, &world, &plan, &*transport))
                .pop()
                .unwrap(),
            Role::Worker => {
                env.parallel(|th| run_worker(th, cfg, &plan, &*transport));
                RankOut::Worker
            }
            Role::Collector => env
                .parallel_n(1, |th| run_collector(th, cfg, &world, &plan, &*transport))
                .pop()
                .unwrap(),
        }
    });

    let mut report = StreamReport {
        mechanism: cfg.mechanism.label(),
        topology: topo.label(),
        items: cfg.items,
        delivered: 0,
        feedback_items: 0,
        elapsed: Nanos::ZERO,
        latencies_ns: Vec::new(),
        credit_stalls: 0,
        credit_stall_ns: 0,
        reorder_peak: 0,
        verified: false,
    };
    for out in outs {
        match out {
            RankOut::Emitter {
                credit_stalls,
                credit_stall_ns,
            } => {
                report.credit_stalls = credit_stalls;
                report.credit_stall_ns = credit_stall_ns;
            }
            RankOut::Worker => {}
            RankOut::Collector {
                latencies_ns,
                delivered,
                feedback_items,
                reorder_peak,
                elapsed,
            } => {
                report.delivered = delivered;
                report.feedback_items = feedback_items;
                report.reorder_peak = reorder_peak;
                report.elapsed = elapsed;
                report.latencies_ns = latencies_ns;
            }
        }
    }
    // Checks panic inside the run; reaching here with full delivery means
    // every item was verified, exactly once, in order.
    report.verified = report.delivered == cfg.items;
    report
}

fn run_emitter(
    th: &mut ThreadCtx,
    cfg: &StreamConfig,
    world: &Communicator,
    plan: &RankPlan,
    transport: &dyn LaneTransport,
) -> RankOut {
    th.clock.sync_to(START);
    let topo = cfg.topology;
    let collector = topo.collector_rank() as i64;
    let notify = Arc::clone(th.proc().notify());

    // Out-lane ids are exactly 0..lanes in order, so lane_of indexes them.
    let out = &plan.out_lanes;
    debug_assert!(out.iter().enumerate().all(|(i, l)| l.id == i));
    let mut lane_seq = vec![0u64; out.len()];
    // One buffer per burst slot, encoded in place every burst.
    let mut bufs = vec![vec![0u8; cfg.item_bytes]; EMIT_BURST as usize];

    let feedback_expected = topo.selected_count(cfg.seed, cfg.items);
    let mut feedback_done = 0u64;
    let mut fb_queue: VecDeque<Vec<u8>> = VecDeque::new();

    let mut tokens = cfg.credits;
    let mut next_seq = 0u64;
    let mut stalls = 0u64;
    let mut stall_ns = 0u64;
    let mut stall_start: Option<Nanos> = None;

    while next_seq < cfg.items || feedback_done < feedback_expected {
        // One pass; wait for the next deposit only when it did nothing.
        notify.wait_until(|| {
            let mut progress = false;

            // Drain credit grants.
            while let Some((_st, data)) = world
                .try_recv(th, collector, CREDIT_TAG)
                .expect("credit recv")
            {
                tokens += u64::from_le_bytes(data[..8].try_into().unwrap());
                progress = true;
            }
            if tokens > 0 {
                if let Some(t0) = stall_start.take() {
                    let now = th.clock.now();
                    stalls += 1;
                    stall_ns += now.0.saturating_sub(t0.0);
                    obs::wait("stream", "credit_stall", t0, now, obs::ResId::NONE);
                }
            }

            // Drain feedback returns.
            while feedback_done + (fb_queue.len() as u64) < feedback_expected {
                match world
                    .try_recv(th, collector, FEEDBACK_TAG)
                    .expect("feedback recv")
                {
                    Some((_st, data)) => {
                        fb_queue.push_back(data.to_vec());
                        progress = true;
                    }
                    None => break,
                }
            }

            // Feedback re-emissions first: the item keeps its token, so they
            // can never be starved by backpressure.
            if let Some(mut fb) = fb_queue.pop_front() {
                let mut h = item::decode(&fb);
                h.pass = 1;
                item::restamp(&mut fb, &h);
                let lane = &out[topo.lane_of(h.seq)];
                transport.send(th, lane, lane_seq[lane.id], &fb);
                lane_seq[lane.id] += 1;
                feedback_done += 1;
                return Some(());
            }

            if next_seq < cfg.items {
                if tokens > 0 {
                    // Emit every tokened item (up to EMIT_BURST) as one
                    // burst: the transport amortizes the injection path
                    // across the whole batch where the mechanism allows it.
                    let burst = tokens.min(cfg.items - next_seq).min(EMIT_BURST);
                    let mut batch: Vec<(&_, u64, &[u8])> = Vec::with_capacity(burst as usize);
                    for buf in &mut bufs[..burst as usize] {
                        let h = ItemHeader {
                            seq: next_seq,
                            emit_ns: th.clock.now().0,
                            digest: item::base_digest(cfg.seed, next_seq),
                            pass: 0,
                            hops: 0,
                        };
                        item::encode(buf, &h, cfg.seed);
                        let lane = &out[topo.lane_of(next_seq)];
                        batch.push((lane, lane_seq[lane.id], buf));
                        lane_seq[lane.id] += 1;
                        next_seq += 1;
                    }
                    transport.send_many(th, &batch);
                    tokens -= burst;
                    return Some(());
                }
                if stall_start.is_none() {
                    stall_start = Some(th.clock.now());
                }
            }
            progress.then_some(())
        });
    }

    for lane in out {
        transport.finish_tx(th, lane);
    }

    RankOut::Emitter {
        credit_stalls: stalls,
        credit_stall_ns: stall_ns,
    }
}

fn run_worker(
    th: &mut ThreadCtx,
    cfg: &StreamConfig,
    plan: &RankPlan,
    transport: &dyn LaneTransport,
) {
    th.clock.sync_to(START);
    let tid = th.tid();
    // Each worker thread owns the (at most one) in/out lane pair addressed
    // to its thread id.
    let in_lane = plan.in_lanes.iter().find(|l| l.dst_tid == tid);
    let out_lane = plan.out_lanes.iter().find(|l| l.src_tid == tid);
    let (in_lane, out_lane) = match (in_lane, out_lane) {
        (Some(i), Some(o)) => (i, o),
        _ => return,
    };
    debug_assert_eq!(in_lane.count, out_lane.count);
    let salt = item::stage_salt(cfg.seed, plan.rank);
    // Every item is received into, restamped in and sent from this buffer.
    let mut buf = Vec::with_capacity(cfg.item_bytes);

    for n in 0..in_lane.count {
        transport.recv(th, in_lane, n, &mut buf);
        let Some(mut h) = item::verify(&buf, cfg.item_bytes, cfg.seed) else {
            panic!(
                "payload corrupt at worker rank {} tid {tid} item {n}",
                plan.rank
            );
        };
        let t0 = th.clock.now();
        th.clock.advance(work_time(cfg, plan.rank, tid, n));
        obs::busy("stream", "process", t0, th.clock.now(), obs::ResId::NONE);
        h.digest = item::mix(h.digest, salt);
        h.hops += 1;
        item::restamp(&mut buf, &h);
        transport.send(th, out_lane, n, &buf);
    }
    transport.finish_rx(th, in_lane);
    transport.finish_tx(th, out_lane);
}

fn run_collector(
    th: &mut ThreadCtx,
    cfg: &StreamConfig,
    world: &Communicator,
    plan: &RankPlan,
    transport: &dyn LaneTransport,
) -> RankOut {
    th.clock.sync_to(START);
    let topo = cfg.topology;
    let notify = Arc::clone(th.proc().notify());

    let permille = topo.feedback_permille();
    let credit_batch = cfg.credit_batch.clamp(1, cfg.credits);
    let mut reorder: ReorderBuffer<u64> = ReorderBuffer::new(cfg.credits as usize);
    let mut seen: Vec<u64> = vec![0; plan.in_lanes.len()];
    let mut latencies: Vec<u64> = Vec::with_capacity(cfg.items as usize);
    let mut delivered = 0u64;
    let mut feedback_items = 0u64;
    let mut pending_credit = 0u64;
    let mut buf = Vec::with_capacity(cfg.item_bytes);

    while delivered < cfg.items {
        // One sweep over the in-lanes; wait only when it found nothing.
        notify.wait_until(|| {
            let mut progress = false;
            for (i, lane) in plan.in_lanes.iter().enumerate() {
                if seen[i] >= lane.count {
                    continue;
                }
                if !transport.try_recv(th, lane, seen[i], &mut buf) {
                    continue;
                }
                let Some(h) = item::verify(&buf, cfg.item_bytes, cfg.seed) else {
                    panic!(
                        "payload corrupt at collector rank {} lane {} item {}",
                        plan.rank, lane.id, seen[i]
                    );
                };
                seen[i] += 1;
                progress = true;

                if h.pass == 0 && item::selected(cfg.seed, h.seq, permille) {
                    // First pass of a feedback item: route it back whole.
                    // Its credit token stays with it until the second pass
                    // lands.
                    world
                        .send(th, 0, FEEDBACK_TAG, &buf)
                        .expect("feedback send");
                    feedback_items += 1;
                    continue;
                }
                assert_eq!(
                    h.digest,
                    topo.expected_digest(cfg.seed, h.seq),
                    "provenance digest mismatch for item {} (skipped/repeated/mis-routed stage)",
                    h.seq
                );
                assert_eq!(
                    h.hops,
                    topo.expected_hops(cfg.seed, h.seq),
                    "hop count mismatch for item {}",
                    h.seq
                );
                match reorder.push(h.seq, h.emit_ns) {
                    Ok(()) => {}
                    Err(PushErr::Full) => panic!(
                        "reorder buffer overflow at item {}: backpressure violated \
                         (credits {} should bound in-flight items)",
                        h.seq, cfg.credits
                    ),
                    Err(PushErr::Stale) => panic!("duplicate delivery of item {}", h.seq),
                }
                while let Some((_seq, emit_ns)) = reorder.pop_next() {
                    // Latency is measured at in-order delivery: it includes
                    // head-of-line waiting inside the reorder buffer.
                    let lat = th.clock.now().0.saturating_sub(emit_ns);
                    latencies.push(lat);
                    delivered += 1;
                    pending_credit += 1;
                    if pending_credit >= credit_batch {
                        grant(th, world, pending_credit);
                        pending_credit = 0;
                    }
                }
            }
            // Flush a partial credit batch before parking: with this, the
            // emitter can never be left token-starved while we idle — any
            // credits >= 1 is deadlock-free.
            if !progress && pending_credit > 0 {
                grant(th, world, pending_credit);
                pending_credit = 0;
            }
            progress.then_some(())
        });
    }

    for lane in &plan.in_lanes {
        transport.finish_rx(th, lane);
    }
    let elapsed = th.clock.now() - START;

    RankOut::Collector {
        latencies_ns: latencies,
        delivered,
        feedback_items,
        reorder_peak: reorder.peak(),
        elapsed,
    }
}

fn grant(th: &mut ThreadCtx, world: &Communicator, tokens: u64) {
    world
        .send(th, 0, CREDIT_TAG, &tokens.to_le_bytes())
        .expect("credit grant");
}
