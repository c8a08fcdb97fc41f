//! Virtual communication interfaces (VCIs) and the policies that map
//! communicators, tags and windows onto them.
//!
//! A VCI is the MPICH concept the paper's quantitative results build on: an
//! independent communication channel inside the MPI library — its own matching
//! engine, its own mailbox, and its own NIC hardware context — so that traffic
//! on different VCIs never synchronizes in software and maps to parallel
//! hardware. The "MPI+threads (Original)" regime is a pool of exactly one VCI:
//! every thread contends on one engine lock and one hardware context.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use rankmpi_fabric::{
    errcode, send_batch, transmit, Header, HwContext, Mailbox, NetworkProfile, Nic, Notify, Packet,
    SendDesc, TxInfo,
};
use rankmpi_obs::trace as obs;
use rankmpi_vtime::lock::ContentionGuard;
use rankmpi_vtime::sched::{self, SchedPoint};
use rankmpi_vtime::{Accumulator, Clock, ContentionLock, Counter, Nanos};

use crate::append::AppendTable;
use crate::costs::CoreCosts;
use crate::error::RankMpiError;
use crate::ft::FtShared;
use crate::matching::{
    EngineKind, Incoming, MatchEngine, MatchPattern, PostedRecv, ScanWork, Status,
};
use crate::request::ReqState;
use crate::tag::{default_tag_hash, TagLayout};

/// Packet kind for point-to-point (and collective-internal) messages.
pub const KIND_PT2PT: u16 = 1;
/// Packet kind for direct-delivery packets (bypass matching; routed by
/// `header.aux` through the destination process's direct-sink registry).
pub const KIND_DIRECT: u16 = 3;
/// Packet kind for fault-tolerance control packets (communicator
/// revocation). Never matched: the progress loop feeds them straight into
/// the process's [`FtShared`] revocation state. Always
/// sent poisoned so the fault layer delivers them even when "lost".
pub const KIND_FT: u16 = 4;

/// How a communicator's operations choose VCIs.
#[derive(Debug, Clone)]
pub enum VciPolicy {
    /// All traffic of the communicator flows through one VCI (the
    /// communicator-granularity mapping of MPICH: one channel per comm).
    Single,
    /// The library hashes the whole tag onto the communicator's VCI block —
    /// what an application gets with `mpich_num_vcis > 1` but no tag-bit
    /// hints: spread, but at the mercy of the hash (Lesson 7).
    HashedTag,
    /// One-to-one tid→VCI mapping from tag bits (Listing 2 with
    /// `mpich_tag_vci_hash_type = one-to-one`).
    TagBitsOneToOne {
        /// The tag layout carrying thread ids.
        layout: TagLayout,
    },
    /// Rank *r*'s traffic leaves from and lands on pool index `vcis[r]` of
    /// *r*'s owner process — the endpoints design, where several ranks of one
    /// communicator live on one process and each owns a VCI. Receives always
    /// post on the caller's own entry, so wildcards are legal (Lesson 11).
    PerRank(Arc<Vec<usize>>),
}

/// A sink for [`KIND_DIRECT`] packets: deliveries that bypass the matching
/// engine entirely and are routed by `header.aux` (partitioned communication
/// uses this to get its O(1)-matching property).
pub trait DirectSink: Send + Sync {
    /// Handle one direct packet.
    fn deliver(&self, pkt: Packet);
}

/// Registry of [`DirectSink`]s for one process, keyed by `header.aux`.
#[derive(Default)]
pub struct DirectRegistry {
    sinks: parking_lot::RwLock<std::collections::HashMap<u64, Arc<dyn DirectSink>>>,
}

impl DirectRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `sink` under `key`; replaces any previous sink.
    pub fn register(&self, key: u64, sink: Arc<dyn DirectSink>) {
        self.sinks.write().insert(key, sink);
    }

    /// Remove the sink under `key`.
    pub fn unregister(&self, key: u64) {
        self.sinks.write().remove(&key);
    }

    /// Dispatch a packet to its sink (drops packets with no sink, which can
    /// only happen if a protocol tears down a sink with traffic in flight).
    pub fn dispatch(&self, pkt: Packet) {
        let sink = self.sinks.read().get(&pkt.header.aux).cloned();
        if let Some(s) = sink {
            s.deliver(pkt);
        } else {
            debug_assert!(
                false,
                "direct packet for unregistered sink {}",
                pkt.header.aux
            );
        }
    }
}

impl std::fmt::Debug for DirectRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DirectRegistry({} sinks)", self.sinks.read().len())
    }
}

/// One message of a [`Vci::send_batch`] injection.
pub struct BatchSend<'a> {
    /// Destination VCI.
    pub dst: &'a Vci,
    /// Whether the message takes the intra-node shared-memory path.
    pub intra_node: bool,
    /// Packet header (channel ids and sequence number already stamped).
    pub header: Header,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Where one matching operation's work is charged — the two time-accounting
/// regimes of the library unified behind [`Vci::charge_match`].
enum ChargeTo<'a> {
    /// The calling thread performs the work now: its clock advances by the
    /// cost (caller-side paths: post, probe, matched probe).
    Caller(&'a mut Clock),
    /// The engine performs the work, serialized on the VCI's virtual engine
    /// occupancy and anchored no earlier than the given ready time
    /// (incoming-side paths, where completion stamps must not depend on
    /// which real thread drained the mailbox, or when).
    EngineAt(Nanos),
}

/// What a VCI's engine lock guards.
#[derive(Debug)]
struct Matching {
    engine: Box<dyn MatchEngine>,
    /// Reusable drain buffer for [`Vci::progress`]: the steady-state poll
    /// allocates nothing once it is warm.
    scratch: Vec<Packet>,
}

/// One VCI: mailbox + matching engine + hardware context (+ an intra-node
/// shared-memory channel).
#[derive(Debug)]
pub struct Vci {
    id: usize,
    /// Rank of the owning process (trace/metrics identity only).
    rank: usize,
    profile: NetworkProfile,
    costs: CoreCosts,
    /// Every NIC hardware context this VCI was ever mapped onto, and which
    /// of them backs inter-node traffic now. A failed context is remapped
    /// *live* (see `maybe_failover`); the retired ones stay alive as long as
    /// the VCI does, so a send borrows the current one instead of taking a
    /// lock and a reference count.
    ctxs: AppendTable<Arc<HwContext>>,
    current: AtomicUsize,
    /// Serializes racing failovers.
    failover: parking_lot::Mutex<()>,
    /// The NIC the contexts come from — needed to allocate a replacement
    /// when the current one fails mid-run.
    nic: Arc<Nic>,
    /// Shared-memory channel for intra-node traffic (unbounded pool).
    shm_ctx: Arc<HwContext>,
    mailbox: Arc<Mailbox>,
    /// Which matching structure `engine` holds, fixed at construction.
    engine_kind: EngineKind,
    /// The VCI "big lock": serializes software access to the matching engine.
    engine: ContentionLock<Matching>,
    /// The matching engine's virtual occupancy: every message match/enqueue
    /// consumes engine time here, anchored to the message's arrival — so
    /// completion stamps are independent of *which* real thread happened to
    /// drain the mailbox (and when).
    engine_time: rankmpi_vtime::Resource,
    /// Direct-packet dispatcher shared by all VCIs of the owning process.
    direct: Arc<DirectRegistry>,
    polls: Arc<Counter>,
    matched: Arc<Counter>,
    /// Queue entries examined by matching operations (the [`ScanWork::scanned`]
    /// totals). Flat for O(1) engines, grows with queue depth on linear scans
    /// — the scan-count regression tests pin it down.
    match_scanned: Arc<Counter>,
    /// Lazy tombstones skipped ([`ScanWork::wildcard_scanned`] totals).
    match_wildcard_scanned: Arc<Counter>,
    /// Clock-charged engine-lock acquisitions.
    acquires: Arc<Counter>,
    /// Sections that queued behind another holder's section in virtual time
    /// (see `release_engine`).
    acquires_contended: Arc<Counter>,
    /// Virtual time the engine lock was held, per section.
    hold_ns: Arc<Accumulator>,
    /// Live hardware-context remaps after a failure.
    failovers: Arc<Counter>,
    /// Poisoned direct packets dropped (the direct protocol has no per-message
    /// request to fail; partitioned windows observe loss through the
    /// mailbox's `ResilReport` instead).
    poisoned_direct_drops: Arc<Counter>,
    /// NIC doorbell rings on this VCI's injection path (one per single send,
    /// one per batch — shared-memory sends ring none).
    doorbells: Arc<Counter>,
    /// Sends whose doorbell was coalesced into a batch ring (`n-1` per NIC
    /// batch of `n`). `doorbells + doorbells_coalesced` equals the NIC-path
    /// message count.
    doorbells_coalesced: Arc<Counter>,
    /// Pooled payload slabs for this VCI's eager sends — per-VCI (not
    /// per-process) so threads driving independent VCIs never serialize on
    /// the pool, mirroring the datapath's whole design argument.
    payloads: rankmpi_fabric::PayloadPool,
    /// Fault-tolerance state of the owning process (crash plan, liveness,
    /// revocations).
    ft: Arc<FtShared>,
    /// Last [`FtShared::stamp`] this VCI swept its engine against. While it
    /// matches the current stamp the progress path pays one atomic load.
    ft_seen: AtomicU64,
}

impl Vci {
    /// Create VCI `id` for a process on the node served by `nic`/`shm_nic`,
    /// signaling `notify` on arrivals and dispatching direct packets through
    /// `direct`. `engine_kind` selects the matching structure (see
    /// [`EngineKind`]) for the VCI's lifetime.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: usize,
        rank: usize,
        nic: &Arc<Nic>,
        shm_nic: &Nic,
        notify: Arc<Notify>,
        costs: CoreCosts,
        direct: Arc<DirectRegistry>,
        engine_kind: EngineKind,
        ft: Arc<FtShared>,
    ) -> Arc<Self> {
        let ctxs = AppendTable::new();
        ctxs.push(nic.alloc_context());
        Arc::new(Vci {
            id,
            rank,
            profile: nic.profile().clone(),
            costs,
            ctxs,
            current: AtomicUsize::new(0),
            failover: parking_lot::Mutex::new(()),
            nic: Arc::clone(nic),
            shm_ctx: shm_nic.alloc_context(),
            mailbox: Arc::new(Mailbox::new(notify)),
            engine_kind,
            engine: ContentionLock::new(Matching {
                engine: engine_kind.new_engine(),
                scratch: Vec::new(),
            }),
            engine_time: rankmpi_vtime::Resource::new(),
            direct,
            polls: Arc::new(Counter::new()),
            matched: Arc::new(Counter::new()),
            match_scanned: Arc::new(Counter::new()),
            match_wildcard_scanned: Arc::new(Counter::new()),
            acquires: Arc::new(Counter::new()),
            acquires_contended: Arc::new(Counter::new()),
            hold_ns: Arc::new(Accumulator::new()),
            failovers: Arc::new(Counter::new()),
            poisoned_direct_drops: Arc::new(Counter::new()),
            doorbells: Arc::new(Counter::new()),
            doorbells_coalesced: Arc::new(Counter::new()),
            payloads: rankmpi_fabric::PayloadPool::new(),
            ft,
            ft_seen: AtomicU64::new(0),
        })
    }

    /// Trace resource id for this VCI (`vci:rank.id`).
    pub fn res_id(&self) -> obs::ResId {
        obs::ResId::new("vci", self.rank as u64, self.id as u64)
    }

    /// Rank of the owning process.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Acquire the engine lock, counting the acquisition once it is held.
    fn lock_engine(&self, clock: &mut Clock) -> ContentionGuard<'_, Matching> {
        let guard = self.engine.lock(clock);
        self.acquires.add_held(1);
        guard
    }

    /// Release the engine lock, recording how long it was held (virtually)
    /// and its collision shift as a wait span. A section shifted by more
    /// than a handoff queued behind another holder's section: it counts as
    /// contended. One that only waited out a handoff — a thread re-entering
    /// right after its own release does — does not.
    fn release_engine(
        &self,
        guard: ContentionGuard<'_, Matching>,
        clock: &mut Clock,
        locked_at: Nanos,
    ) {
        self.hold_ns
            .record_held(clock.now().saturating_sub(locked_at).as_ns());
        let shift = guard.release(clock);
        obs::wait(
            "vci",
            "engine_acquire",
            clock.now() - shift,
            clock.now(),
            self.res_id(),
        );
        if shift > self.engine.costs().handoff {
            self.acquires_contended.incr();
        }
    }

    /// The matching-engine kind this VCI runs.
    pub fn engine_kind(&self) -> EngineKind {
        self.engine_kind
    }

    /// VCI index within its process's pool.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The NIC hardware context currently backing this VCI (failover can
    /// swap it mid-run, hence the owned handle).
    pub fn hw_context(&self) -> Arc<HwContext> {
        Arc::clone(self.current_ctx())
    }

    /// [`hw_context`](Vci::hw_context), borrowed.
    fn current_ctx(&self) -> &Arc<HwContext> {
        self.ctxs
            .get(self.current.load(Ordering::Acquire))
            .expect("`current` indexes a pushed context")
    }

    /// Live hardware-context remaps this VCI has performed.
    pub fn failovers(&self) -> u64 {
        self.failovers.get()
    }

    /// NIC doorbell rings this VCI paid for (one per single send or batch;
    /// shared-memory sends ring none).
    pub fn doorbells(&self) -> u64 {
        self.doorbells.get()
    }

    /// NIC sends that shared a batched doorbell instead of ringing their own
    /// (`n - 1` per batch of `n`). `doorbells + doorbells_coalesced` equals
    /// the NIC message count.
    pub fn doorbells_coalesced(&self) -> u64 {
        self.doorbells_coalesced.get()
    }

    /// If the backing hardware context has been marked failed, remap this
    /// VCI onto a replacement from the NIC — live, between sends. The
    /// failover mutex serializes racing senders; the first one through
    /// performs the swap (paying one doorbell write to program the new
    /// context) and later ones see a healthy context on the double-check.
    /// Falling back onto a shared context is the Lesson 3 oversubscription
    /// event, counted in `Nic::shared_allocs`; the remap itself is counted in
    /// [`failovers`](Vci::failovers).
    ///
    /// The replacement inherits the backlog of every context this VCI has
    /// left — all of them, because a replacement can itself fail before it
    /// carried a message. Without that, a message sent after the remap would
    /// be stamped with an earlier arrival than its predecessors still queued
    /// on the failed context, and matching (earliest arrival wins) would
    /// deliver it first.
    fn maybe_failover(&self, clock: &mut Clock) {
        if !self.current_ctx().is_failed() {
            return;
        }
        let entered = clock.now();
        let serial = self.failover.lock();
        let cur = self.current_ctx();
        if !cur.is_failed() {
            return; // another sender already remapped
        }
        let fresh = self.nic.replace_context(cur);
        let backlog = self.ctxs.iter().map(|c| c.pipeline_free_at()).max();
        fresh.inherit_backlog(backlog.expect("a VCI always has a context"));
        // An exhausted pool re-issues contexts: one we already hold keeps
        // its slot.
        let slot = match self.ctxs.iter().position(|c| Arc::ptr_eq(c, &fresh)) {
            Some(known) => known,
            None => self.ctxs.push(fresh),
        };
        self.current.store(slot, Ordering::Release);
        drop(serial);
        clock.advance(self.profile.doorbell);
        self.failovers.incr();
        obs::busy("resil", "failover", entered, clock.now(), self.res_id());
    }

    /// This VCI's mailbox (destination side).
    pub fn mailbox(&self) -> &Arc<Mailbox> {
        &self.mailbox
    }

    /// This VCI's payload slab pool (eager-send copies allocate from here).
    pub fn payload_pool(&self) -> &rankmpi_fabric::PayloadPool {
        &self.payloads
    }

    /// Send a packet from this VCI to a destination VCI.
    ///
    /// `intra_node` selects the shared-memory channel instead of the NIC.
    /// Returns fabric timing; the caller decides local-completion semantics.
    pub fn send_packet(
        &self,
        clock: &mut Clock,
        dst: &Vci,
        intra_node: bool,
        header: Header,
        payload: Bytes,
    ) -> TxInfo {
        if intra_node {
            // Shared-memory path: same structure, cheaper profile-independent
            // costs; still serializes on the per-VCI shm channel.
            let shm_profile = NetworkProfile {
                name: "shm",
                max_hw_contexts: usize::MAX,
                send_overhead: self.costs.shm_gap,
                recv_overhead: Nanos(0),
                doorbell: Nanos(0),
                doorbell_batch_step: Nanos(0),
                context_gap: self.costs.shm_occupancy(payload.len()),
                rx_gap: Nanos(0),
                latency: self.costs.shm_latency,
                byte_time_ps: 0,
                context_lock: self.profile.context_lock,
                shared_context_penalty: Nanos(0),
            };
            transmit(
                &shm_profile,
                clock,
                &self.shm_ctx,
                &dst.shm_ctx,
                &dst.mailbox,
                header,
                payload,
            )
        } else {
            self.maybe_failover(clock);
            self.doorbells.incr();
            transmit(
                &self.profile,
                clock,
                self.current_ctx(),
                dst.current_ctx(),
                &dst.mailbox,
                header,
                payload,
            )
        }
    }

    /// Send several packets from this VCI as one injection batch.
    ///
    /// NIC-path messages are written under a single context-gate acquisition
    /// and ring one amortized doorbell ([`doorbells`](Vci::doorbells) counts
    /// the ring, [`doorbells_coalesced`](Vci::doorbells_coalesced) the `n-1`
    /// sends that shared it). Intra-node messages take the shared-memory path
    /// individually — shm has no doorbell to amortize (its per-message
    /// occupancy is payload-sized), so batching buys nothing there.
    /// Descriptor order is preserved within each path, which preserves
    /// per-channel FIFO (a channel's messages never straddle the two paths).
    /// Returned timings are in descriptor order.
    pub fn send_batch(&self, clock: &mut Clock, descs: Vec<BatchSend<'_>>) -> Vec<TxInfo> {
        let mut out: Vec<Option<TxInfo>> = (0..descs.len()).map(|_| None).collect();
        let mut nic: Vec<(usize, BatchSend<'_>)> = Vec::with_capacity(descs.len());
        for (i, d) in descs.into_iter().enumerate() {
            if d.intra_node {
                out[i] = Some(self.send_packet(clock, d.dst, true, d.header, d.payload));
            } else {
                nic.push((i, d));
            }
        }
        if !nic.is_empty() {
            self.maybe_failover(clock);
            self.doorbells.incr();
            self.doorbells_coalesced.add(nic.len() as u64 - 1);
            let fab_descs = nic
                .iter()
                .map(|(_, d)| SendDesc {
                    dst_mail: &d.dst.mailbox,
                    header: d.header,
                    payload: d.payload.clone(),
                })
                .collect();
            let infos = send_batch(&self.profile, clock, self.current_ctx(), fab_descs);
            for ((i, _), info) in nic.iter().zip(infos) {
                out[*i] = Some(info);
            }
        }
        out.into_iter()
            .map(|o| o.expect("every slot filled"))
            .collect()
    }

    /// Post a receive on this VCI's engine.
    ///
    /// If a matching unexpected message is already queued the request is
    /// completed immediately (completion time accounts for arrival, matching
    /// work and the eager copy); otherwise the receive is queued.
    pub fn post_recv(&self, clock: &mut Clock, pattern: MatchPattern, req: Arc<ReqState>) {
        self.post_recv_ref(clock, pattern, &req);
    }

    /// [`post_recv`](Vci::post_recv) for a caller that keeps its handle:
    /// the engine's is the one clone taken.
    pub(crate) fn post_recv_ref(
        &self,
        clock: &mut Clock,
        pattern: MatchPattern,
        req: &Arc<ReqState>,
    ) {
        let mut eng = self.lock_engine(clock);
        let posted_at = clock.now();
        // The FT sweep re-examines pending state only when the failure stamp
        // moves, so a receive posted *after* the sweep for the current epoch
        // already ran would wait forever. Apply the same doom rules at post
        // time, under the same engine lock (which orders this check against
        // any concurrent sweep: either the sweep sees our insertion, or we
        // see the failure knowledge it acted on).
        let base_ctx = pattern.context_id & !crate::comm::COLL_CTX_BIT;
        if let Some(at) = self.ft.revoked_at(base_ctx) {
            req.fail(
                at.max(posted_at),
                RankMpiError::Revoked {
                    context_id: base_ctx,
                },
            );
            self.release_engine(eng, clock, posted_at);
            return;
        }
        // Only a receive that stays posted is doomed. What the dead rank
        // sent before it died is deliverable (the sweep leaves such packets
        // queued) wherever it sits, so the mailbox goes into the engine
        // before the match decides.
        let dead_src = self.failed_source(base_ctx, &pattern);
        let mut owed = false;
        if dead_src.is_some() {
            self.drain_mailbox(&mut eng, &mut owed);
        }
        let (matched, work) = eng.engine.post_recv(PostedRecv {
            pattern,
            req: Arc::clone(req),
            posted_at,
        });
        let done = self.charge_match(ChargeTo::Caller(clock), &work);
        obs::busy("match", "match_post", posted_at, done, self.engine_res_id());
        if let Some(pkt) = matched {
            self.complete_match(done, req, pkt, &mut owed);
        } else if let Some((at, rank)) = dead_src {
            eng.engine.cancel(req);
            self.ft.liveness().note_detection();
            req.fail(at.max(posted_at), RankMpiError::ProcessFailed { rank });
        }
        self.ring_owed(owed);
        self.release_engine(eng, clock, posted_at);
    }

    /// When `pattern` names a source the failure detector knows is dead:
    /// the detection time and the source's world rank.
    fn failed_source(&self, base_ctx: u32, pattern: &MatchPattern) -> Option<(Nanos, u32)> {
        // Nothing has ever crashed (one atomic load): skip the group lookup.
        if pattern.src < 0 || self.ft.liveness().epoch() == 0 {
            return None;
        }
        let global = self
            .ft
            .global_of(base_ctx, pattern.src as usize)
            .unwrap_or(pattern.src as usize);
        let at = self.ft.liveness().detect_at(global)?;
        Some((at, global as u32))
    }

    /// Drain this VCI's mailbox and run the matching engine. Returns the
    /// number of packets processed. Safe to call from any thread ("anyone can
    /// progress anything" — MPICH's progress model).
    ///
    /// Packets of kind [`KIND_DIRECT`] are not matched; they are dispatched
    /// through the process's [`DirectRegistry`].
    pub fn progress(&self, clock: &mut Clock) -> usize {
        let entered_at = clock.now();
        self.polls.incr();
        // A rank whose sibling thread hit the crash plan is dead as a whole
        // process: any thread still polling progress (e.g. blocked in a
        // wait loop) unwinds here. One atomic load while nothing has ever
        // crashed.
        if self.ft.self_crashed() {
            rankmpi_fabric::ft::crash_now();
        }
        let ft_dirty = self.ft.stamp() != self.ft_seen.load(Ordering::Acquire);
        if self.mailbox.is_empty() && !ft_dirty {
            clock.advance(self.costs.match_base / 4); // cheap empty poll
            return 0;
        }
        // Drain *inside* the engine critical section: if two threads drained
        // concurrently before locking, a later-arrived packet could enter the
        // engine (and match a posted receive) before an earlier one still
        // sitting in the other thread's batch — breaking the non-overtaking
        // order within a channel. Serializing drain+match preserves mailbox
        // push order end to end.
        //
        // The drain holds the real mutex only: incoming-side matching work is
        // priced on `engine_time`, anchored to each message's arrival, so the
        // (real-scheduling-dependent) number and timing of progress polls
        // cannot perturb virtual completion times.
        // The guard is dropped at the block's end: the engine lock is free
        // again before the poll's yield point below.
        let n = {
            let mut m = self.engine.lock_unmodeled();
            let mut owed = false;
            let n = self.drain_mailbox(&mut m, &mut owed);
            self.ring_owed(owed);
            n
        };
        clock.advance(self.costs.match_base / 4); // the poll's own CPU cost
        if n > 0 {
            obs::busy("vci", "progress", entered_at, clock.now(), self.res_id());
        }
        n
    }

    /// The engine critical section of [`progress`](Vci::progress): move the
    /// mailbox into the engine, then sweep if failure knowledge moved.
    /// Returns the number of packets drained; sets `owed` when a completion
    /// left its wake to the section's end ([`ring_owed`](Vci::ring_owed)).
    fn drain_mailbox(&self, m: &mut Matching, owed: &mut bool) -> usize {
        let Matching { engine, scratch } = m;
        let eng = &mut **engine;
        self.mailbox.drain_into(scratch);
        let n = scratch.len();
        for pkt in scratch.drain(..) {
            if pkt.header.base_kind() == KIND_FT {
                // Revocation control packet — epidemically poisons the
                // context; never enters matching.
                self.ft.learn_revoked(pkt.header.context_id, pkt.arrive_at);
                continue;
            }
            if pkt.header.base_kind() == KIND_DIRECT {
                if pkt.header.is_poisoned() {
                    // The direct protocol has no per-message request to fail;
                    // drop the tombstone and let the mailbox's `ResilReport`
                    // carry the loss signal.
                    self.poisoned_direct_drops.incr();
                    continue;
                }
                self.direct.dispatch(pkt);
                continue;
            }
            self.handle_incoming(eng, pkt, owed);
        }
        // Sweep *after* the drain (arrivals above may themselves have taught
        // us a revocation) and still under the engine lock, so pending state
        // can be failed or reposted without racing other matchers. The swap
        // lets exactly one thread per stamp change pay for the sweep.
        let stamp = self.ft.stamp();
        if stamp != 0 && self.ft_seen.swap(stamp, Ordering::AcqRel) != stamp {
            self.ft_sweep(eng);
        }
        n
    }

    /// Transmit *timing only*: charge the full injection path (overhead, gate,
    /// doorbell, context occupancy, latency, remote context serialization)
    /// without delivering a packet. RMA uses this: data is applied directly at
    /// the target while virtual time flows through the same resources a real
    /// NIC op would occupy. Returns the virtual arrival time at the target.
    pub fn raw_transmit(&self, clock: &mut Clock, intra_node: bool, bytes: usize) -> Nanos {
        let entered_at = clock.now();
        if intra_node {
            clock.advance(self.costs.shm_gap);
            let occ = self.costs.shm_occupancy(bytes);
            let out = self.shm_ctx.occupy_tx(clock.now(), occ, bytes);
            return out + self.costs.shm_latency;
        }
        self.maybe_failover(clock);
        self.doorbells.incr();
        let ctx = self.current_ctx();
        clock.advance(self.profile.send_overhead);
        let gate = ctx.lock_gate(clock);
        clock.advance(self.profile.doorbell);
        let injected = ctx.occupy_tx(
            clock.now(),
            self.profile.tx_occupancy_on(bytes, ctx.is_shared()),
            bytes,
        );
        gate.release(clock);
        let arrive = injected + self.profile.wire_latency() + self.profile.rx_gap;
        obs::busy("fabric", "raw_tx", entered_at, clock.now(), ctx.res_id());
        obs::busy("fabric", "wire", injected, arrive, obs::ResId::NONE);
        arrive
    }

    /// Re-examine the engine's pending state against the current failure and
    /// revocation knowledge (called with the engine lock held whenever
    /// [`FtShared::stamp`] moved): posted receives on a revoked context fail
    /// with [`RankMpiError::Revoked`]; concrete-source receives from a dead
    /// rank fail with [`RankMpiError::ProcessFailed`] at the modeled
    /// detection time; unexpected packets on a revoked context are dropped.
    /// Everything else is reposted unchanged — a drained engine holds no
    /// cross-matching pairs (each insertion path searched the other queue
    /// first), so the replay is a pure structural rebuild.
    ///
    /// Wildcard (`ANY_SOURCE`) receives are deliberately *not* failed:
    /// nothing attributes them to a specific dead peer (the documented ULFM
    /// limitation) — they resolve only through revocation.
    fn ft_sweep(&self, eng: &mut dyn MatchEngine) {
        let (posted, unexpected) = eng.drain();
        for p in posted {
            let base_ctx = p.pattern.context_id & !crate::comm::COLL_CTX_BIT;
            if !p.req.is_complete() {
                if let Some(at) = self.ft.revoked_at(base_ctx) {
                    p.req.fail(
                        at.max(p.posted_at),
                        RankMpiError::Revoked {
                            context_id: base_ctx,
                        },
                    );
                    continue;
                }
                if let Some((at, rank)) = self.failed_source(base_ctx, &p.pattern) {
                    self.ft.liveness().note_detection();
                    p.req
                        .fail(at.max(p.posted_at), RankMpiError::ProcessFailed { rank });
                    continue;
                }
            }
            let (m, _) = eng.post_recv(p);
            debug_assert!(m.is_none(), "drained engine state cannot cross-match");
        }
        for u in unexpected {
            let base_ctx = u.header.context_id & !crate::comm::COLL_CTX_BIT;
            if self.ft.is_revoked(base_ctx) {
                // Traffic on a revoked context can never be received again.
                self.ft.note_revoked_drop();
                continue;
            }
            // Packets from a dead rank stay: they were sent before the
            // crash and remain deliverable (completed sends complete).
            let outcome = eng.incoming(u);
            debug_assert!(matches!(outcome, Incoming::Queued { .. }));
        }
    }

    fn handle_incoming(&self, eng: &mut dyn MatchEngine, pkt: Packet, owed: &mut bool) {
        let arrived = pkt.arrive_at;
        match eng.incoming(pkt) {
            Incoming::Matched { recv, packet, work } => {
                // The serial matching engine processes this message no
                // earlier than its arrival and the receive's posting.
                let ready = packet.arrive_at.max(recv.posted_at);
                let done = self.charge_match(ChargeTo::EngineAt(ready), &work);
                self.complete_match(done, &recv.req, packet, owed);
            }
            Incoming::Queued { work } => {
                self.charge_match(ChargeTo::EngineAt(arrived), &work);
            }
        }
    }

    /// Charge one matching operation's work and return the virtual time the
    /// engine work finished. This is the single accounting point for every
    /// matching path — blocking and nonblocking receives, probes, and
    /// incoming-side handling — so all of them price engine occupancy
    /// identically.
    fn charge_match(&self, to: ChargeTo<'_>, work: &ScanWork) -> Nanos {
        self.match_scanned.add_held(work.scanned as u64);
        self.match_wildcard_scanned
            .add_held(work.wildcard_scanned as u64);
        let cost = self.costs.match_cost_of(work);
        match to {
            ChargeTo::Caller(clock) => {
                clock.advance(cost);
                clock.now()
            }
            ChargeTo::EngineAt(ready) => {
                let acq = self.engine_time.acquire(ready, cost);
                obs::busy(
                    "match",
                    "engine_work",
                    acq.start,
                    acq.end,
                    self.engine_res_id(),
                );
                acq.end
            }
        }
    }

    /// Trace resource id for this VCI's matching engine (`engine:rank.id`).
    fn engine_res_id(&self) -> obs::ResId {
        obs::ResId::new("engine", self.rank as u64, self.id as u64)
    }

    /// Complete `req` with `pkt`, with its matching work finished at `done`:
    /// delivery cannot precede the packet's arrival, then costs the receive
    /// overhead and the eager copy. Returns the completion time.
    ///
    /// A *poisoned* packet (the reliability layer's tombstone for a message
    /// whose retries were exhausted) fails the request instead — the waiting
    /// receiver gets a [`RankMpiError`] at the sender's give-up time rather
    /// than hanging on data that will never arrive.
    ///
    /// A request waiting on this VCI's notifier is not notified: `owed` is
    /// set, and the engine section rings the notifier once at its end.
    fn complete_match(&self, done: Nanos, req: &ReqState, pkt: Packet, owed: &mut bool) -> Nanos {
        // Explored schedules may run another task between a section's
        // completions: a waiter that polls here sees an empty mailbox and
        // its own request still pending, the state the owed ring resolves.
        sched::yield_point(SchedPoint::Custom("match-complete"));
        if pkt.header.is_poisoned() {
            let finish = done.max(pkt.arrive_at);
            let src = pkt.header.src;
            let base_ctx = pkt.header.context_id & !crate::comm::COLL_CTX_BIT;
            let err = match pkt.header.poison_code() {
                errcode::LINK_DOWN => RankMpiError::LinkDown { src },
                errcode::REVOKED => RankMpiError::Revoked {
                    context_id: base_ctx,
                },
                errcode::PROCESS_FAILED => RankMpiError::ProcessFailed {
                    rank: self
                        .ft
                        .global_of(base_ctx, src as usize)
                        .unwrap_or(src as usize) as u32,
                },
                _ => RankMpiError::RetriesExhausted {
                    src,
                    attempts: pkt.header.poison_attempts(),
                },
            };
            *owed |= req.settle_in(finish, Err(err), self.mailbox.notifier());
            return finish;
        }
        self.matched.add_held(1);
        let finish = done.max(pkt.arrive_at)
            + self.profile.recv_overhead
            + self.costs.copy_cost(pkt.payload.len());
        let status = Status {
            source: pkt.header.src as usize,
            tag: pkt.header.tag,
            len: pkt.payload.len(),
        };
        *owed |= req.settle_in(finish, Ok((status, pkt.payload)), self.mailbox.notifier());
        finish
    }

    /// End an engine section that completed requests on this VCI's notifier
    /// without ringing it (`owed`): one ring for all of them, after every
    /// completion store and before the lock is released.
    fn ring_owed(&self, owed: bool) {
        if owed {
            self.mailbox.notifier().notify();
        }
    }

    /// Probe for an unexpected message matching `pattern` without receiving
    /// it. Drains the mailbox first (progress), like a real `MPI_Iprobe`.
    pub fn iprobe(&self, clock: &mut Clock, pattern: &MatchPattern) -> Option<Status> {
        self.progress(clock);
        let eng = self.lock_engine(clock);
        let locked_at = clock.now();
        let (st, work) = eng.engine.probe(pattern);
        self.charge_match(ChargeTo::Caller(clock), &work);
        self.release_engine(eng, clock, locked_at);
        st
    }

    /// Matched probe (`MPI_Improbe` + `MPI_Imrecv` fused): atomically remove
    /// and return the earliest unexpected message matching `pattern`, or
    /// `None`. Unlike `iprobe` + a subsequent receive, no other thread can
    /// race for the probed message.
    pub fn mprobe(&self, clock: &mut Clock, pattern: &MatchPattern) -> Option<(Status, Bytes)> {
        self.progress(clock);
        let mut eng = self.lock_engine(clock);
        let locked_at = clock.now();
        // Reuse the posted-receive matching path with a throwaway request,
        // keeping its handle so a miss retracts exactly this probe — other
        // threads may have posted receives in the meantime. The request is
        // a recycled one on this VCI's notifier: it is completed and taken
        // inside this section, so nobody can wait on it and the ring its
        // completion leaves owed is dropped.
        let mut probe_req = ReqState::recycled(self.mailbox.notifier());
        let probe = PostedRecv {
            pattern: *pattern,
            req: Arc::clone(&probe_req),
            posted_at: clock.now(),
        };
        let (matched, work) = eng.engine.post_recv(probe);
        let done = self.charge_match(ChargeTo::Caller(clock), &work);
        let out = match matched {
            Some(pkt) => {
                let finish = self.complete_match(done, &probe_req, pkt, &mut false);
                clock.wait_until(finish);
                Some(probe_req.take_result())
            }
            None => {
                // Nothing matched: retract the probe by request identity.
                let removed = eng.engine.cancel(&probe_req);
                debug_assert!(removed);
                None
            }
        };
        self.release_engine(eng, clock, locked_at);
        ReqState::recycle(&mut probe_req);
        out
    }

    /// Number of progress polls on this VCI.
    pub fn polls(&self) -> u64 {
        self.polls.get()
    }

    /// Number of messages matched on this VCI.
    pub fn matched(&self) -> u64 {
        self.matched.get()
    }

    /// Total queue entries examined by this VCI's matching operations.
    pub fn match_scanned(&self) -> u64 {
        self.match_scanned.get()
    }

    /// Total lazy tombstones skipped by this VCI's matching operations.
    pub fn match_wildcard_scanned(&self) -> u64 {
        self.match_wildcard_scanned.get()
    }

    /// Current depth of the engine's posted-receive queue.
    pub fn posted_depth(&self) -> usize {
        self.engine.lock_unmodeled().engine.posted_len()
    }

    /// Current depth of the engine's unexpected-message queue.
    pub fn unexpected_depth(&self) -> usize {
        self.engine.lock_unmodeled().engine.unexpected_len()
    }

    /// Total virtual time the VCI lock charged: acquisitions plus collision
    /// shifts.
    pub fn lock_contention(&self) -> Nanos {
        self.engine.contended_total()
    }

    /// Clock-charged engine-lock acquisitions on this VCI.
    pub fn lock_acquires(&self) -> u64 {
        self.acquires.get()
    }

    /// Sections that overlapped another holder's section in virtual time, so
    /// their release shifted the holder's clock behind it.
    pub fn lock_acquires_contended(&self) -> u64 {
        self.acquires_contended.get()
    }

    /// Virtual lock-hold-time statistics for this VCI's engine lock.
    pub fn lock_hold_stats(&self) -> &Accumulator {
        &self.hold_ns
    }

    /// Access the costs model this VCI uses.
    pub fn costs(&self) -> &CoreCosts {
        &self.costs
    }

    /// Access the network profile this VCI uses.
    pub fn profile(&self) -> &NetworkProfile {
        &self.profile
    }
}

/// Select the sender-side and receiver-side VCI indices for an operation,
/// given a communicator's policy and VCI block.
///
/// `block` maps policy-relative indices to pool indices; it is identical on
/// all processes of the communicator (allocated in collective order).
///
/// [`VciPolicy::PerRank`] selects by rank, not by tag: the communicator
/// resolves it before calling here.
pub(crate) fn select_vcis(
    policy: &VciPolicy,
    block: &[usize],
    context_id: u32,
    tag: i64,
) -> crate::error::Result<(usize, usize)> {
    match policy {
        VciPolicy::Single => Ok((block[0], block[0])),
        VciPolicy::HashedTag => {
            let i = default_tag_hash(context_id, tag, block.len());
            Ok((block[i], block[i]))
        }
        VciPolicy::TagBitsOneToOne { layout } => Ok((
            block[layout.src_vci(tag, block.len())],
            block[layout.dst_vci(tag, block.len())],
        )),
        VciPolicy::PerRank(_) => unreachable!("resolved by Communicator::send_vcis"),
    }
}

/// Receiver-side VCI index for a posted receive, or `None` if the pattern's
/// wildcards make the VCI undeterminable under this policy (Lesson 7/15: a
/// wildcard cannot locate a tag-selected engine).
pub(crate) fn select_recv_vci(
    policy: &VciPolicy,
    block: &[usize],
    context_id: u32,
    pattern: &MatchPattern,
) -> Option<usize> {
    match policy {
        VciPolicy::Single => Some(block[0]),
        VciPolicy::HashedTag | VciPolicy::TagBitsOneToOne { .. } => {
            if block.len() == 1 {
                return Some(block[0]);
            }
            if pattern.tag == crate::matching::ANY_TAG {
                return None;
            }
            match policy {
                VciPolicy::TagBitsOneToOne { layout } => {
                    Some(block[layout.dst_vci(pattern.tag, block.len())])
                }
                _ => Some(block[default_tag_hash(context_id, pattern.tag, block.len())]),
            }
        }
        VciPolicy::PerRank(_) => unreachable!("resolved by Communicator::recv_vci"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matching::{ANY_SOURCE, ANY_TAG};
    use crate::tag::TagPlacement;

    fn test_vci(id: usize) -> (Arc<Vci>, Arc<Nic>, Arc<Nic>) {
        let nic = Arc::new(Nic::new(0, NetworkProfile::omni_path()));
        let shm = Arc::new(Nic::new(0, NetworkProfile::ideal()));
        let v = Vci::new(
            id,
            0,
            &nic,
            &shm,
            Arc::new(Notify::new()),
            CoreCosts::default(),
            Arc::new(DirectRegistry::new()),
            EngineKind::default(),
            FtShared::solo(),
        );
        (v, nic, shm)
    }

    fn header(ctx: u32, src: u32, tag: i64) -> Header {
        Header {
            kind: KIND_PT2PT,
            context_id: ctx,
            src,
            dst: 0,
            tag,
            seq: 0,
            aux: 0,
            aux2: 0,
        }
    }

    #[test]
    fn send_then_recv_completes() {
        let (a, _n1, _s1) = test_vci(0);
        let (b, _n2, _s2) = test_vci(0);
        let mut sc = Clock::new();
        let info = a.send_packet(
            &mut sc,
            &b,
            false,
            header(9, 0, 5),
            Bytes::from_static(b"hey"),
        );

        let mut rc = Clock::new();
        let req = ReqState::detached();
        b.post_recv(
            &mut rc,
            MatchPattern {
                context_id: 9,
                src: 0,
                tag: 5,
            },
            Arc::clone(&req),
        );
        assert!(!req.is_complete());
        // Progress drains the mailbox and matches.
        b.progress(&mut rc);
        assert!(req.is_complete());
        assert!(req.finish_at() >= info.arrive_at);
        let (st, data) = req.take_result();
        assert_eq!(st.tag, 5);
        assert_eq!(&data[..], b"hey");
        assert_eq!(b.matched(), 1);
    }

    #[test]
    fn unexpected_message_matches_on_post() {
        let (a, _n1, _s1) = test_vci(0);
        let (b, _n2, _s2) = test_vci(0);
        let mut sc = Clock::new();
        a.send_packet(
            &mut sc,
            &b,
            false,
            header(9, 3, 5),
            Bytes::from_static(b"x"),
        );

        let mut rc = Clock::new();
        b.progress(&mut rc); // queues as unexpected
        let req = ReqState::detached();
        b.post_recv(
            &mut rc,
            MatchPattern {
                context_id: 9,
                src: ANY_SOURCE,
                tag: ANY_TAG,
            },
            Arc::clone(&req),
        );
        assert!(req.is_complete());
        let (st, _) = req.take_result();
        assert_eq!(st.source, 3);
    }

    #[test]
    fn intra_node_path_is_faster_than_nic() {
        let (a, _n1, _s1) = test_vci(0);
        let (b, _n2, _s2) = test_vci(0);
        let mut c1 = Clock::new();
        let remote = a.send_packet(&mut c1, &b, false, header(1, 0, 0), Bytes::new());
        let mut c2 = Clock::new();
        let local = a.send_packet(&mut c2, &b, true, header(1, 0, 1), Bytes::new());
        assert!(local.arrive_at < remote.arrive_at);
    }

    #[test]
    fn empty_poll_is_cheap() {
        let (a, _n, _s) = test_vci(0);
        let mut c = Clock::new();
        let n = a.progress(&mut c);
        assert_eq!(n, 0);
        assert!(c.now() < Nanos(50));
        assert_eq!(a.polls(), 1);
    }

    #[test]
    fn mprobe_miss_retracts_only_its_own_probe() {
        let (b, _n, _s) = test_vci(0);
        let mut rc = Clock::new();
        // Another thread's receive is posted while we mprobe for something
        // that is not there: the miss must not disturb it.
        let req = ReqState::detached();
        b.post_recv(
            &mut rc,
            MatchPattern {
                context_id: 9,
                src: 0,
                tag: 7,
            },
            Arc::clone(&req),
        );
        let miss = b.mprobe(
            &mut rc,
            &MatchPattern {
                context_id: 9,
                src: 0,
                tag: 8,
            },
        );
        assert!(miss.is_none());
        assert_eq!(b.posted_depth(), 1, "the other receive survives the miss");
    }

    #[test]
    fn failed_context_is_remapped_on_next_send() {
        let nic = Arc::new(Nic::new(0, NetworkProfile::constrained(4)));
        let shm = Arc::new(Nic::new(0, NetworkProfile::ideal()));
        let mk = |id| {
            Vci::new(
                id,
                0,
                &nic,
                &shm,
                Arc::new(Notify::new()),
                CoreCosts::default(),
                Arc::new(DirectRegistry::new()),
                EngineKind::default(),
                FtShared::solo(),
            )
        };
        let a = mk(0);
        let b = mk(1);
        let failed = a.hw_context();
        failed.mark_failed();
        let mut clock = Clock::new();
        a.send_packet(&mut clock, &b, false, header(1, 0, 0), Bytes::new());
        assert_eq!(a.failovers(), 1);
        let healthy = a.hw_context();
        assert_ne!(healthy.id(), failed.id());
        assert!(!healthy.is_failed());
        // Subsequent sends stay on the replacement — no repeated remap.
        a.send_packet(&mut clock, &b, false, header(1, 0, 0), Bytes::new());
        assert_eq!(a.failovers(), 1);
    }

    #[test]
    fn failover_keeps_a_channels_arrival_order() {
        // Payloads big enough that the context's pipeline, not the sending
        // CPU, paces the channel: a backlog is queued when the context fails.
        let (a, _n1, _s1) = test_vci(0);
        let (b, _n2, _s2) = test_vci(0);
        let payload = Bytes::from(vec![0u8; 64 << 10]);
        let mut clock = Clock::new();
        let mut last = Nanos::ZERO;
        let mut retired = vec![a.hw_context()];
        for round in 0..4 {
            for _ in 0..4 {
                let info = a.send_packet(&mut clock, &b, false, header(1, 0, 0), payload.clone());
                assert!(
                    info.arrive_at > last,
                    "round {round}: arrival {:?} after {last:?} overtakes within the channel",
                    info.arrive_at
                );
                last = info.arrive_at;
            }
            // Two failovers per round: the first replacement fails before it
            // carried anything, so the backlog must survive an idle heir.
            for _ in 0..2 {
                a.hw_context().mark_failed();
                a.maybe_failover(&mut clock);
                retired.push(a.hw_context());
            }
        }
        assert_eq!(a.failovers(), 8);
        assert!(!a.hw_context().is_failed());
        // Every context the VCI left is still alive and still in its table.
        assert_eq!(a.ctxs.len(), retired.len());
        for (kept, seen) in a.ctxs.iter().zip(&retired) {
            assert!(Arc::ptr_eq(kept, seen));
        }
    }

    #[test]
    fn a_reissued_context_keeps_its_slot() {
        // A pool of two, both taken: every replacement is the other context.
        let nic = Arc::new(Nic::new(0, NetworkProfile::constrained(2)));
        let shm = Arc::new(Nic::new(0, NetworkProfile::ideal()));
        let mk = |id| {
            Vci::new(
                id,
                0,
                &nic,
                &shm,
                Arc::new(Notify::new()),
                CoreCosts::default(),
                Arc::new(DirectRegistry::new()),
                EngineKind::default(),
                FtShared::solo(),
            )
        };
        let (a, _b) = (mk(0), mk(1));
        let mut clock = Clock::new();
        let first = a.hw_context();
        for _ in 0..6 {
            a.hw_context().mark_failed();
            a.maybe_failover(&mut clock);
        }
        assert_eq!(a.failovers(), 6);
        assert_eq!(a.ctxs.len(), 2, "two contexts exist, two slots");
        assert!(
            Arc::ptr_eq(&a.hw_context(), &first),
            "an even number of swaps"
        );
    }

    #[test]
    fn poisoned_packet_fails_the_matched_receive() {
        use rankmpi_fabric::errcode;
        let (v, _n, _s) = test_vci(0);
        let mut clock = Clock::new();
        let req = ReqState::detached();
        v.post_recv(
            &mut clock,
            MatchPattern {
                context_id: 1,
                src: 0,
                tag: 4,
            },
            Arc::clone(&req),
        );
        let mut h = header(1, 0, 4);
        h.poison(errcode::RETRIES_EXHAUSTED, 5);
        v.mailbox().push(Packet {
            header: h,
            payload: Bytes::new(),
            arrive_at: Nanos(1_000),
        });
        v.progress(&mut clock);
        assert!(req.is_complete());
        assert_eq!(
            req.take_outcome(),
            Err(RankMpiError::RetriesExhausted {
                src: 0,
                attempts: 5
            })
        );
        assert_eq!(v.matched(), 0, "poisoned completion is not a match");
    }

    #[test]
    fn single_policy_pins_to_first_block_entry() {
        let (s, r) = select_vcis(&VciPolicy::Single, &[7], 1, 42).unwrap();
        assert_eq!((s, r), (7, 7));
        assert_eq!(
            select_recv_vci(
                &VciPolicy::Single,
                &[7],
                1,
                &MatchPattern {
                    context_id: 1,
                    src: ANY_SOURCE,
                    tag: ANY_TAG
                }
            ),
            Some(7)
        );
    }

    #[test]
    fn one_to_one_tag_policy_routes_by_tid_bits() {
        let layout = TagLayout::for_threads(4, TagPlacement::Msb).unwrap();
        let policy = VciPolicy::TagBitsOneToOne { layout };
        let block = [10, 11, 12, 13];
        let tag = layout.encode(2, 3, 0).unwrap();
        let (s, r) = select_vcis(&policy, &block, 1, tag).unwrap();
        assert_eq!(s, 12); // src tid 2
        assert_eq!(r, 13); // dst tid 3
                           // Receiver with the concrete tag finds the same VCI.
        let rv = select_recv_vci(
            &policy,
            &block,
            1,
            &MatchPattern {
                context_id: 1,
                src: 0,
                tag,
            },
        );
        assert_eq!(rv, Some(13));
    }

    #[test]
    fn wildcard_on_multi_vci_tag_policy_is_undeterminable() {
        let layout = TagLayout::for_threads(4, TagPlacement::Msb).unwrap();
        let policy = VciPolicy::TagBitsOneToOne { layout };
        let rv = select_recv_vci(
            &policy,
            &[0, 1, 2, 3],
            1,
            &MatchPattern {
                context_id: 1,
                src: 0,
                tag: ANY_TAG,
            },
        );
        assert_eq!(rv, None);
        // But a single-VCI block accepts wildcards.
        let rv = select_recv_vci(
            &policy,
            &[5],
            1,
            &MatchPattern {
                context_id: 1,
                src: 0,
                tag: ANY_TAG,
            },
        );
        assert_eq!(rv, Some(5));
    }

    #[test]
    fn single_thread_lock_use_is_never_contended() {
        let (v, _n, _s) = test_vci(0);
        let mut c = Clock::new();
        let pat = MatchPattern {
            context_id: 1,
            src: 0,
            tag: 0,
        };
        for _ in 0..2_000 {
            v.iprobe(&mut c, &pat);
        }
        assert_eq!(v.lock_acquires(), 2_000);
        assert_eq!(
            v.lock_acquires_contended(),
            0,
            "one thread can never observe a waiter on its own VCI lock"
        );
        assert_eq!(v.lock_hold_stats().count(), 2_000);
    }

    #[test]
    fn engine_counters_are_exact_under_concurrent_posts_and_drains() {
        // Four threads post and progress one VCI at once: every counter the
        // engine lock serializes must still count every event.
        const PER_THREAD: usize = 250;
        let (a, _n1, _s1) = test_vci(0);
        let (b, _n2, _s2) = test_vci(0);
        let pattern = |tag: usize| MatchPattern {
            context_id: 9,
            src: 0,
            tag: tag as i64,
        };
        std::thread::scope(|s| {
            for t in 0..4 {
                let (a, b) = (&a, &b);
                s.spawn(move || {
                    let mut c = Clock::new();
                    let reqs: Vec<_> = (0..PER_THREAD)
                        .map(|i| {
                            let req = ReqState::detached();
                            b.post_recv(&mut c, pattern(t * PER_THREAD + i), Arc::clone(&req));
                            req
                        })
                        .collect();
                    for i in 0..PER_THREAD {
                        let h = header(9, 0, (t * PER_THREAD + i) as i64);
                        a.send_packet(&mut c, b, false, h, Bytes::new());
                        b.progress(&mut c);
                    }
                    while reqs.iter().any(|r| !r.is_complete()) {
                        b.progress(&mut c);
                    }
                });
            }
        });
        let n = 4 * PER_THREAD as u64;
        assert_eq!(b.matched(), n);
        assert_eq!(b.lock_acquires(), n, "one clock-charged section per post");
        assert_eq!(b.lock_hold_stats().count(), n);
    }

    #[test]
    fn two_threads_on_one_vci_report_contended_acquires() {
        // Two tasks whose clocks both start at 0 probe one VCI in lockstep
        // virtual time: their sections overlap whatever the real order, so
        // every schedule reports contended (shifted) acquisitions.
        use rankmpi_check::{run_tasks, Schedule, Task};
        const PER_TASK: usize = 40;
        for seed in [3, 11, 29] {
            let (v, _n, _s) = test_vci(0);
            let tasks: Vec<Task> = (0..2)
                .map(|_| {
                    let v = Arc::clone(&v);
                    Box::new(move || {
                        let mut c = Clock::new();
                        let pat = MatchPattern {
                            context_id: 1,
                            src: 0,
                            tag: 0,
                        };
                        for _ in 0..PER_TASK {
                            v.iprobe(&mut c, &pat);
                        }
                    }) as Task
                })
                .collect();
            let out = run_tasks(tasks, &Schedule::random(seed), 500_000);
            assert!(out.panic.is_none(), "seed {seed}: {:?}", out.panic);
            assert_eq!(v.lock_acquires(), 2 * PER_TASK as u64);
            assert!(
                v.lock_acquires_contended() > 0,
                "seed {seed}: overlapping sections must be reported contended"
            );
            assert!(v.lock_contention() > Nanos::ZERO);
        }
    }

    #[test]
    fn recv_posted_after_detection_matches_what_the_dead_rank_already_sent() {
        let (a, _n1, _s1) = test_vci(0);
        let (b, _n2, _s2) = test_vci(0);
        let mut clock = Clock::new();
        a.send_packet(
            &mut clock,
            &b,
            false,
            header(9, 1, 5),
            Bytes::from_static(b"last words"),
        );
        b.ft.liveness().mark_crashed(1, Nanos(10));
        let from_the_dead = MatchPattern {
            context_id: 9,
            src: 1,
            tag: 5,
        };
        // Nothing has progressed `b`: the message is still in its mailbox.
        let req = ReqState::detached();
        b.post_recv(&mut clock, from_the_dead, Arc::clone(&req));
        assert_eq!(&req.take_outcome().unwrap().1[..], b"last words");
        // A second one can only stay posted, so it is doomed.
        let req = ReqState::detached();
        b.post_recv(&mut clock, from_the_dead, Arc::clone(&req));
        assert!(matches!(
            req.take_outcome(),
            Err(RankMpiError::ProcessFailed { rank: 1 })
        ));
        assert_eq!(b.posted_depth(), 0);
    }

    #[test]
    fn hashed_policy_is_symmetric_between_sides() {
        let policy = VciPolicy::HashedTag;
        let block = [0, 1, 2, 3, 4, 5, 6, 7];
        for tag in 0..100 {
            let (s, r) = select_vcis(&policy, &block, 42, tag).unwrap();
            assert_eq!(s, r, "hashed policy maps both sides identically");
            let rv = select_recv_vci(
                &policy,
                &block,
                42,
                &MatchPattern {
                    context_id: 42,
                    src: 0,
                    tag,
                },
            );
            assert_eq!(rv, Some(r));
        }
    }
}
