//! Destination-side packet queues (arrival notification is [`Notify`]).
//!
//! There is one datapath, and it is lock-free: each `(context_id, src)`
//! channel owns a bounded [`SpscRing`] (the sender holds its context gate
//! across stamp+push, making the channel single-producer; the owning VCI's
//! progress engine — serialized by the engine lock — is the single consumer),
//! and a global ticket counter linearizes pushes so the drain-side merge
//! delivers in exact cross-channel push order. Channels are found through a
//! fixed open-addressed `ChannelDir` whose lookups are pure atomic loads —
//! the push hot path performs exactly one shared read-modify-write (the
//! ticket) and otherwise touches only channel-local state. Drains pop the
//! rings without any lock and visit the fallback mutex only when the
//! fallback actually holds entries (see [`Mailbox::drain_into`] for the
//! two-pass ordering argument). An armed [`FaultPlan`] does not fork that path: packets pass a
//! `FaultStage` on their way *into* the rings and a `FaultFilter` on
//! their way *out* of the merge (see [`fault`](crate::fault)).
//!
//! A mailbox of a universe that bounds history by GVT
//! ([`covered`](Mailbox::covered)) holds its packets' stamps down from push
//! to charge: see [`Mailbox::settle`].

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::{Mutex, RwLock};
use rankmpi_vtime::gvt::Holder;
use rankmpi_vtime::sched::{self, SchedPoint};
use rankmpi_vtime::{Gvt, Nanos, Notify};

use crate::fault::{FaultFilter, FaultPlan, FaultReport, FaultStage, Stamp};
use crate::resil::{Resil, ResilConfig};
use crate::spsc::SpscRing;
use crate::Packet;

/// Per-channel ring capacity (entries). Bursts beyond it spill to the locked
/// fallback queue — ordering survives via tickets, only the lock-freedom of
/// the overflowing pushes is lost. Sized so a burst-y producer can run a full
/// batch window ahead of a briefly descheduled consumer without spilling.
const RING_CAPACITY: usize = 128;

/// Slots in the open-addressed channel directory. Never resized: lookups are
/// pure atomic loads and probe chains end at a null slot, which requires the
/// table to never fill — hence the lower [`DIR_MAX_CHANNELS`] insert cap.
const DIR_SLOTS: usize = 128;

/// Most channels that may register rings (load factor 3/4 keeps probes
/// short, and bounds per-mailbox ring memory). Later channels simply use the
/// ticketed locked fallback — correct, just not lock-free.
const DIR_MAX_CHANNELS: usize = 96;

/// Bounded backpressure on a full ring, before spilling: spin-retries (the
/// consumer may free a slot within nanoseconds on another core), then
/// OS-yield retries (on an oversubscribed machine the consumer needs our
/// timeslice to drain at all). Bounded so a push can never block on a
/// consumer that isn't coming — after the budget it spills exactly as
/// before, and the lane's `saturated` latch makes every following push on a
/// still-undrained channel skip straight to the spill.
const FULL_RING_SPINS: usize = 64;
const FULL_RING_YIELDS: usize = 32;

/// A ticket's high bits are the consumer's generation (see
/// [`Mailbox::settle`]), its low bits the push's index within it.
const GEN_SHIFT: u32 = 40;
const INDEX_MASK: u64 = (1 << GEN_SHIFT) - 1;

/// The holder slot a ticket's generation lowers.
fn parity(ticket: u64) -> usize {
    (ticket >> GEN_SHIFT) as usize & 1
}

/// One word alone on its 128-byte block (two lines: adjacent-line prefetch
/// pairs them).
#[repr(align(128))]
#[derive(Debug)]
struct Line(AtomicU64);

impl Default for Line {
    fn default() -> Self {
        Line(AtomicU64::new(u64::MAX))
    }
}

/// A covered mailbox's GVT state (see [`Mailbox::settle`]).
#[derive(Debug)]
struct Held {
    /// Per ticket-generation parity: at or below the arrival stamp of every
    /// uncharged packet of that generation. Pushes lower it.
    low: [Line; 2],
    /// A ticket word such that every push below it is charged: while the
    /// ticket still reads it, the mailbox holds nothing. Written by the
    /// consumer only.
    clean: Line,
    /// Set by a GVT read that found this mailbox holding something: the
    /// consumer turns the generation at its next settle.
    asked: AtomicBool,
}

impl Default for Held {
    fn default() -> Self {
        Held {
            low: Default::default(),
            clean: Line(AtomicU64::new(0)),
            asked: AtomicBool::new(false),
        }
    }
}

impl Held {
    fn lower(&self, ticket: u64, t: Nanos) {
        let low = &self.low[parity(ticket)].0;
        if t.as_ns() < low.load(Ordering::Relaxed) {
            low.fetch_min(t.as_ns(), Ordering::Release);
        }
    }

    fn clear(&self, parity: usize) {
        let low = &self.low[parity].0;
        if low.load(Ordering::Relaxed) != u64::MAX {
            low.store(u64::MAX, Ordering::Release);
        }
    }
}

/// One queued packet plus the bookkeeping it was pushed with.
#[derive(Debug)]
struct Entry {
    /// Mailbox-global push ticket (generation, then index): the
    /// linearization point of the push. The
    /// drain merges ring and fallback entries by ticket, which reconstructs
    /// the order the pushes happened in.
    ticket: u64,
    /// What the fault stage stamped on it (`None` when pushed unarmed — the
    /// drain filter passes such entries through untouched).
    stamp: Option<Stamp>,
    p: Packet,
}

impl Entry {
    fn chan(&self) -> (u32, u32) {
        (self.p.header.context_id, self.p.header.src)
    }
}

/// Consumer-side state, all behind the drain serialization lock.
#[derive(Debug, Default)]
struct DrainState {
    /// Reusable merge buffer (no per-drain allocation).
    batch: Vec<Entry>,
    /// Drain half of the armed fault plan, present exactly while
    /// [`Mailbox::stage`] is.
    filter: Option<FaultFilter>,
    /// Ticket generations, while the mailbox is covered.
    gens: Generations,
}

/// What the consumer knows of the ticket generations: pushes of the
/// current one lower holder slot `cur & 1`, and the previous one's size is
/// fixed. A slot is cleared once every entry of its generation has been
/// popped and charged.
#[derive(Debug, Default)]
struct Generations {
    cur: u64,
    /// Entries popped, by generation parity.
    popped: [u64; 2],
    /// Pushes of generation `cur - 1` (none before the first turn).
    prev_size: u64,
}

/// One channel's lock-free lane: the SPSC ring plus its producer claim and
/// producer-local counters.
///
/// The claim makes the single-producer assumption *unconditional*: the
/// context gate already serializes the common case, but a VCI policy may map
/// two source threads (distinct gates) onto one `(context_id, src)` channel —
/// the loser of the CAS simply takes the ticketed locked fallback.
#[derive(Debug)]
struct ChannelLane {
    key: (u32, u32),
    claim: AtomicBool,
    /// Set when a push exhausted the full-ring backpressure budget and
    /// spilled; cleared by the next successful ring push. While set, pushes
    /// skip the budget and spill immediately — a channel whose consumer
    /// isn't draining pays the wait once per saturation episode, not once
    /// per push.
    saturated: AtomicBool,
    /// Ring-path pushes on this lane that fell back to the locked queue
    /// (full ring or lost producer claim).
    spills: AtomicU64,
    ring: SpscRing<Entry>,
}

/// Lock-free channel directory: a fixed open-addressed table of lanes.
///
/// Lookups — the per-push hot path — are pure atomic loads: probe linearly
/// from the key's hash until the key or a null slot. Inserts (once per
/// channel, ever) serialize on a mutex and publish the fully-initialized
/// lane with release stores, so a racing lookup either finds it or misses
/// and retries under the insert lock. Lanes are never removed before the
/// directory drops, which is what makes handing out `&ChannelLane` borrows
/// sound. A dense side array (`active`) gives drains and emptiness scans
/// exactly the registered lanes, in registration order, without walking the
/// sparse table.
struct ChannelDir {
    slots: Box<[AtomicPtr<ChannelLane>]>,
    active: Box<[AtomicPtr<ChannelLane>]>,
    active_len: AtomicUsize,
    insert: Mutex<()>,
}

impl ChannelDir {
    fn new() -> Self {
        let nulls = |n: usize| {
            (0..n)
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect::<Vec<_>>()
                .into_boxed_slice()
        };
        ChannelDir {
            slots: nulls(DIR_SLOTS),
            active: nulls(DIR_MAX_CHANNELS),
            active_len: AtomicUsize::new(0),
            insert: Mutex::new(()),
        }
    }

    fn slot_of(key: (u32, u32)) -> usize {
        let h = key.0.wrapping_mul(0x9E37_79B1) ^ key.1.wrapping_mul(0x85EB_CA77);
        h as usize & (DIR_SLOTS - 1)
    }

    /// Find `key`'s lane with loads only; `None` means "not registered".
    /// Probes terminate because the insert cap keeps the table under-full
    /// and lanes are never removed.
    fn lookup(&self, key: (u32, u32)) -> Option<&ChannelLane> {
        let mut i = Self::slot_of(key);
        loop {
            let p = self.slots[i].load(Ordering::Acquire);
            if p.is_null() {
                return None;
            }
            // Safety: a published lane lives until the directory drops.
            let lane = unsafe { &*p };
            if lane.key == key {
                return Some(lane);
            }
            i = (i + 1) & (DIR_SLOTS - 1);
        }
    }

    /// [`lookup`](Self::lookup), inserting on miss. `None` only when the
    /// directory is at capacity — that channel then lives on the locked
    /// fallback for the mailbox's lifetime.
    fn get_or_insert(&self, key: (u32, u32)) -> Option<&ChannelLane> {
        if let Some(lane) = self.lookup(key) {
            return Some(lane);
        }
        let _g = self.insert.lock();
        if let Some(lane) = self.lookup(key) {
            return Some(lane);
        }
        let len = self.active_len.load(Ordering::Relaxed);
        if len == self.active.len() {
            return None;
        }
        let lane = Box::into_raw(Box::new(ChannelLane {
            key,
            claim: AtomicBool::new(false),
            saturated: AtomicBool::new(false),
            spills: AtomicU64::new(0),
            ring: SpscRing::with_capacity(RING_CAPACITY),
        }));
        let mut i = Self::slot_of(key);
        while !self.slots[i].load(Ordering::Relaxed).is_null() {
            i = (i + 1) & (DIR_SLOTS - 1);
        }
        self.slots[i].store(lane, Ordering::Release);
        self.active[len].store(lane, Ordering::Release);
        self.active_len.store(len + 1, Ordering::Release);
        // Safety: as in `lookup` — the lane lives until the directory drops.
        Some(unsafe { &*lane })
    }

    /// Registered lanes, in registration order.
    fn lanes(&self) -> impl Iterator<Item = &ChannelLane> {
        let n = self.active_len.load(Ordering::Acquire);
        self.active[..n].iter().map(|p| {
            // Safety: `active_len`'s release store ordered the lane pointer
            // store before it, and lanes live until the directory drops.
            unsafe { &*p.load(Ordering::Acquire) }
        })
    }

    /// Pop every published ring entry into `out` (consumer side: the caller
    /// must hold the mailbox's drain serialization).
    fn pop_all(&self, out: &mut Vec<Entry>) {
        for lane in self.lanes() {
            lane.ring.pop_all_into(out);
        }
    }

    /// Whether every registered ring is empty (loads only, any thread).
    fn rings_empty(&self) -> bool {
        self.lanes().all(|l| l.ring.is_empty())
    }

    /// Total entries across registered rings (racy; exact when quiescent).
    fn rings_len(&self) -> usize {
        self.lanes().map(|l| l.ring.len()).sum()
    }
}

impl Drop for ChannelDir {
    fn drop(&mut self) {
        for s in self.slots.iter() {
            let p = s.swap(std::ptr::null_mut(), Ordering::AcqRel);
            if !p.is_null() {
                // Safety: `slots` owns its lanes; each appears exactly once.
                drop(unsafe { Box::from_raw(p) });
            }
        }
    }
}

impl std::fmt::Debug for ChannelDir {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ChannelDir({} lanes)",
            self.active_len.load(Ordering::Relaxed)
        )
    }
}

/// The receive queue of one logical channel (VCI): packets deposited by
/// [`transmit`](fn@crate::transmit), drained by the owner's progress engine.
///
/// Per-source-context FIFO order is guaranteed by the sender holding its
/// context gate across stamp+push; the mailbox itself preserves push order —
/// unless a [`FaultPlan`] is armed, in which case it may legally perturb
/// deliveries (see [`fault`](crate::fault) for the invariants that survive).
#[derive(Debug)]
pub struct Mailbox {
    /// Locked fallback: ring spills, producer-claim losers, and channels
    /// past the directory cap. Empty on the steady-state path.
    fallback: Mutex<Vec<Entry>>,
    /// Lazily-registered per-channel ring lanes (a channel appears the first
    /// time a packet is pushed on it).
    dir: ChannelDir,
    /// Global push-order tickets (see [`Entry::ticket`]) — the one shared
    /// read-modify-write on the push hot path.
    ticket: AtomicU64,
    /// Undrained entries in the locked fallback queue only (ring occupancy
    /// is read straight off the ring indices). Lets `is_empty` and
    /// `drain_into` skip the fallback mutex whenever it is empty — the
    /// steady state.
    fallback_pending: AtomicUsize,
    /// Whether `stage` is occupied: the one flag an unarmed push reads.
    faulted: AtomicBool,
    /// Push half of an armed fault plan. Armed pushes hold this lock across
    /// perturb + enqueue, which totally orders them: a channel's sequence
    /// numbers, tickets and ring/fallback publications all happen in the
    /// same order even when two producers race on it.
    stage: Mutex<Option<FaultStage>>,
    /// Drain serialization (VCIs already serialize drains on the engine
    /// lock; this keeps `drain_into` safe for arbitrary callers), the
    /// ring-consumer claim, and everything the consumer owns.
    drain_scratch: Mutex<DrainState>,
    /// Pushes that wanted a ring but found the directory at capacity
    /// (per-lane spill counters cover the full-ring and lost-claim cases).
    dir_overflow: AtomicU64,
    notify: Arc<Notify>,
    /// Reliability layer, armed alongside a lossy fault plan (see
    /// [`resil`](crate::resil)). Read-mostly: armed at most once per plan, and
    /// read on every transmit — the flag lets the common unarmed send skip
    /// the lock entirely, and armed readers share a read lock instead of
    /// serializing on a mutex.
    resil_armed: AtomicBool,
    resil: RwLock<Option<Arc<Resil>>>,
    /// The GVT cover of a covered mailbox.
    held: Option<Held>,
}

impl Mailbox {
    /// A mailbox that signals `notify` on every deposit.
    pub fn new(notify: Arc<Notify>) -> Self {
        Mailbox {
            fallback: Mutex::new(Vec::new()),
            dir: ChannelDir::new(),
            ticket: AtomicU64::new(0),
            fallback_pending: AtomicUsize::new(0),
            faulted: AtomicBool::new(false),
            stage: Mutex::new(None),
            drain_scratch: Mutex::new(DrainState::default()),
            dir_overflow: AtomicU64::new(0),
            notify,
            resil_armed: AtomicBool::new(false),
            resil: RwLock::new(None),
            held: None,
        }
    }

    /// A mailbox that holds `gvt` at or below the arrival stamp of every
    /// packet pushed and not yet charged. Its consumer must call
    /// [`settle`](Mailbox::settle) once it has charged what a drain returned.
    pub fn covered(notify: Arc<Notify>, gvt: &Gvt) -> Arc<Self> {
        Arc::new_cyclic(|me: &Weak<Mailbox>| {
            gvt.hold(me.clone());
            Mailbox {
                held: Some(Held::default()),
                ..Mailbox::new(notify)
            }
        })
    }

    /// Arm deterministic fault injection on this mailbox. A plan with no
    /// fault class enabled disarms instead. A plan with a lossy class (drops
    /// or flaps) also arms the [`Resil`] retransmit layer — without it a
    /// lossy plan would violate MPI's no-loss contract.
    ///
    /// Packets already queued are never touched: those pushed unarmed carry
    /// no sequence number and pass the drain filter as they are, and
    /// re-arming an armed mailbox only swaps the plan, so sequenced packets
    /// keep meeting the watermarks they were numbered against. Disarming
    /// works the same way — the stage keeps sequencing (injecting nothing)
    /// until a drain leaves the mailbox empty, then retires.
    pub fn arm_faults(&self, plan: FaultPlan) {
        let armed_resil = plan.any_lossy();
        *self.resil.write() = armed_resil.then(|| Resil::new(plan.clone(), ResilConfig::default()));
        self.resil_armed.store(armed_resil, Ordering::Release);
        // Lock order scratch → stage, as in the drain.
        let mut st = self.drain_scratch.lock();
        {
            let mut stage = self.stage.lock();
            match stage.as_mut() {
                Some(s) => s.plan = plan,
                None if plan.any_enabled() => {
                    let (s, filter) = FaultStage::arm(plan);
                    *stage = Some(s);
                    st.filter = Some(filter);
                    self.faulted.store(true, Ordering::Release);
                }
                None => {}
            }
        }
        self.retire_if_idle(&mut st);
    }

    /// Drop a disarmed stage and its filter once nothing they sequenced can
    /// still be queued. Holding the stage lock excludes armed pushes, so an
    /// empty mailbox here has no sequenced entry left anywhere.
    fn retire_if_idle(&self, st: &mut DrainState) {
        let mut stage = self.stage.lock();
        if stage.as_ref().is_some_and(|s| !s.plan.any_enabled()) && self.is_empty() {
            *stage = None;
            st.filter = None;
            self.faulted.store(false, Ordering::Release);
        }
    }

    /// The reliability layer, if a lossy plan is armed. One atomic load when
    /// unarmed (the common case); armed readers share a read lock.
    pub fn resil(&self) -> Option<Arc<Resil>> {
        if !self.resil_armed.load(Ordering::Acquire) {
            return None;
        }
        self.resil.read().clone()
    }

    /// Number of live per-channel dedup records. O(channels) by
    /// construction — the regression tests assert it stays flat while
    /// thousands of duplicates flow through.
    pub fn dedup_entries(&self) -> usize {
        self.stage.lock().as_ref().map_or(0, |s| s.dedup_entries())
    }

    /// Counts of faults injected so far, if a plan is armed.
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.stage.lock().as_ref().map(|s| s.report())
    }

    /// Per-channel ring capacity, for tests that want to construct bursts
    /// that provably wrap or spill.
    pub fn ring_capacity() -> usize {
        RING_CAPACITY
    }

    /// Pushes that took a channel ring (the lock-free path): the sum of the
    /// rings' tails, which every ring push advances exactly once. Reading
    /// it is O(channels); the hot path writes no counter for it.
    pub fn ring_pushes(&self) -> u64 {
        self.dir.lanes().map(|l| l.ring.pushed()).sum()
    }

    /// Ring-path pushes that fell back to the locked queue: full ring, lost
    /// producer claim, or channel directory at capacity.
    pub fn ring_spills(&self) -> u64 {
        self.dir_overflow.load(Ordering::Relaxed)
            + self
                .dir
                .lanes()
                .map(|l| l.spills.load(Ordering::Relaxed))
                .sum::<u64>()
    }

    /// Deposit a packet (called by the sending thread) and wake the receiver.
    pub fn push(&self, p: Packet) {
        self.push_with_spurious(p, None);
    }

    /// Deposit a packet together with an optional spurious retransmit copy
    /// from the `resil` layer. The pair is pushed under one stage lock so the
    /// copy shares the original's dedup sequence number even when other
    /// senders race onto the same channel — the copy is then guaranteed to
    /// land below the watermark and be dropped at drain.
    pub fn push_with_spurious(&self, p: Packet, spurious: Option<Packet>) {
        self.push_quiet(p, spurious);
        self.wake();
    }

    /// Wake whoever waits on this mailbox's notifier.
    pub(crate) fn wake(&self) {
        self.notify.notify();
    }

    /// [`push_with_spurious`](Self::push_with_spurious) without the wakeup —
    /// the batched injection path pushes N packets and notifies once.
    pub fn push_quiet(&self, p: Packet, spurious: Option<Packet>) {
        sched::yield_point(SchedPoint::MailboxPush);
        if self.faulted.load(Ordering::Acquire) {
            let mut stage = self.stage.lock();
            if let Some(s) = stage.as_mut() {
                let (stamp, p, copy) = s.admit(p);
                self.enqueue(Some(stamp), p);
                // Copies follow their original with its sequence number (so
                // the watermark drops them) and never reorder on their own.
                let copy_stamp = |spurious| Stamp {
                    spurious,
                    reorder: false,
                    ..stamp
                };
                if let Some(c) = copy {
                    self.enqueue(Some(copy_stamp(false)), c);
                }
                if let Some(sp) = spurious {
                    self.enqueue(Some(copy_stamp(true)), sp);
                }
                return;
            }
        }
        // A spurious copy only exists when resil is armed, which implies a
        // lossy (armed) plan — i.e. the staged path above.
        debug_assert!(spurious.is_none(), "spurious copy without an armed plan");
        self.enqueue(None, p);
    }

    /// The one way in: ticket → channel lane → producer claim → ring, with a
    /// bounded wait on a full ring and the locked fallback behind everything.
    fn enqueue(&self, stamp: Option<Stamp>, p: Packet) {
        // Acquire: a generation's slot is cleared before the turn publishes
        // it. The pusher lowers the slot before its clock can next publish.
        let ticket = self.ticket.fetch_add(1, Ordering::AcqRel);
        if let Some(held) = &self.held {
            held.lower(ticket, p.arrive_at);
        }
        let entry = Entry { ticket, stamp, p };
        let Some(lane) = self.dir.get_or_insert(entry.chan()) else {
            // Directory at capacity: this channel lives on the fallback.
            self.dir_overflow.fetch_add(1, Ordering::Relaxed);
            self.spill(entry);
            return;
        };
        if lane
            .claim
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
        {
            match lane.ring.try_push(entry) {
                Ok(()) => {
                    if lane.saturated.load(Ordering::Relaxed) {
                        lane.saturated.store(false, Ordering::Relaxed);
                    }
                }
                Err(e) => match self.wait_for_ring_room(lane, e) {
                    None => lane.saturated.store(false, Ordering::Relaxed),
                    Some(e) => {
                        // Full ring: spill to the fallback queue. The ticket
                        // keeps the entry ordered; only lock-freedom is lost.
                        lane.saturated.store(true, Ordering::Relaxed);
                        lane.spills.fetch_add(1, Ordering::Relaxed);
                        self.spill(e);
                    }
                },
            }
            lane.claim.store(false, Ordering::Release);
        } else {
            // Rare second producer on one channel (e.g. two source VCIs whose
            // tags map onto the same destination channel): SPSC soundness is
            // preserved by sending the claim loser through the locked queue.
            lane.spills.fetch_add(1, Ordering::Relaxed);
            self.spill(entry);
        }
    }

    /// Bounded wait for the consumer to free a slot in `lane`'s full ring
    /// (the caller holds the producer claim). Returns `None` once the entry
    /// went in, or hands the entry back when the budget runs out — the
    /// caller then spills it. Waiting beats spilling because a spill is not
    /// one slow push: while the ring stays full, *every* subsequent push
    /// takes the fallback mutex, so yielding a timeslice to the consumer
    /// buys the next `RING_CAPACITY` pushes their lock-free path back.
    fn wait_for_ring_room(&self, lane: &ChannelLane, mut entry: Entry) -> Option<Entry> {
        if lane.saturated.load(Ordering::Relaxed) {
            return Some(entry);
        }
        // The full ring is itself a doorbell: a consumer parked in
        // `wait_until` cannot learn the ring filled without this (quiet
        // pushes defer their batch notify until after the burst).
        self.notify.notify();
        for i in 0..FULL_RING_SPINS + FULL_RING_YIELDS {
            if i < FULL_RING_SPINS {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            match lane.ring.try_push(entry) {
                Ok(()) => return None,
                Err(back) => entry = back,
            }
        }
        Some(entry)
    }

    /// Queue a ticketed entry on the locked fallback. The count is bumped
    /// under the lock, so `fallback_pending` equals the queue length at
    /// every lock release — a drain that observes it nonzero will find the
    /// entry (or a successor drain will).
    fn spill(&self, entry: Entry) {
        let mut q = self.fallback.lock();
        q.push(entry);
        self.fallback_pending.fetch_add(1, Ordering::Release);
    }

    /// Drain all queued packets, in push order, into `out`. Returns how
    /// many were delivered (injected duplicate and spurious-retransmit
    /// copies are dropped here, not delivered).
    pub fn drain_into(&self, out: &mut Vec<Packet>) -> usize {
        sched::yield_point(SchedPoint::MailboxDrain);
        let mut st = self.drain_scratch.lock();
        let DrainState {
            batch,
            filter,
            gens,
        } = &mut *st;
        batch.clear();
        // Pass 1, no locks: pop whatever each ring has published. On the
        // steady-state path (empty fallback) this is the whole drain —
        // producers and the consumer never share a lock.
        self.dir.pop_all(batch);
        if self.fallback_pending.load(Ordering::Acquire) != 0 {
            let mut q = self.fallback.lock();
            // Pass 2, under the fallback lock: any fallback entry we are
            // about to take was spilled *before* we acquired the lock, so
            // its same-channel ring predecessors were published earlier
            // still — this re-pop cannot miss them, and the ticket merge
            // below restores exact push order. (A spill that lands after
            // our acquisition is simply left for the next drain, together
            // with however much of its channel's ring we did not pop.)
            // "Earlier still" needs one producer per channel at a time: the
            // claim gives unarmed pushes that, and the stage lock gives it
            // to armed ones, whose watermark could not tolerate a sequence
            // number delivered ahead of its predecessor.
            self.dir.pop_all(batch);
            self.fallback_pending.fetch_sub(q.len(), Ordering::Release);
            batch.append(&mut q);
        }
        if self.held.is_some() {
            for e in batch.iter() {
                gens.popped[parity(e.ticket)] += 1;
            }
        }
        // Tickets are unique, so the unstable sort gives push order without
        // the stable sort's scratch allocation.
        batch.sort_unstable_by_key(|e| e.ticket);
        let Some(f) = filter else {
            let n = batch.len();
            out.extend(batch.drain(..).map(|e| e.p));
            return n;
        };
        // Armed: apply the flagged cross-channel swaps left to right — each
        // flagged entry trades places with whatever now precedes it, iff
        // that belongs to another channel (same-channel order is the
        // transport's non-overtaking guarantee and must survive) — then
        // deliver through the dedup watermark.
        for i in 1..batch.len() {
            if batch[i].stamp.is_some_and(|s| s.reorder) && batch[i - 1].chan() != batch[i].chan() {
                f.note_reorder(batch[i].p.arrive_at);
                batch.swap(i - 1, i);
            }
        }
        let before = out.len();
        for e in batch.drain(..) {
            if e.stamp.is_none_or(|s| f.deliver(e.chan(), s)) {
                out.push(e.p);
            }
        }
        let n = out.len() - before;
        self.retire_if_idle(&mut st);
        n
    }

    /// Every packet the drains so far returned has been charged (its
    /// arrival stamp can no longer become a request): release the GVT cover
    /// of what they held. A no-op on an uncovered mailbox.
    ///
    /// Pushes lower the holder slot of their ticket's generation. With
    /// every generation before the current one charged, the ticket word that
    /// all charged pushes lie below is published as `clean`: a mailbox whose
    /// ticket still reads it holds nothing, whatever its slots say, so an
    /// idle mailbox never pins GVT.
    ///
    /// A busy one is never clean, and its current slot only falls. A GVT
    /// read that finds it holding asks for a turn: at its next settle with
    /// something popped, the ticket word turns to the next generation (one
    /// swap), which returns the finished one's size; once that many are
    /// popped, the finished generation's slot is cleared. A push whose
    /// ticket was taken but whose entry was not yet visible keeps its
    /// generation's slot set until a later drain pops it. Turns follow GVT
    /// reads (one per 512 intervals a resource records), not messages, so
    /// no push or drain pays for them in the steady state.
    pub fn settle(&self) {
        let Some(held) = &self.held else {
            return;
        };
        let mut st = self.drain_scratch.lock();
        let g = &mut st.gens;
        let (cur, prev) = (g.cur as usize & 1, (g.cur as usize + 1) & 1);
        if g.popped[prev] < g.prev_size {
            return;
        }
        held.clear(prev);
        if g.popped[cur] > 0 && held.asked.load(Ordering::Relaxed) {
            held.asked.store(false, Ordering::Relaxed);
            g.popped[prev] = 0;
            let size = self.ticket.swap((g.cur + 1) << GEN_SHIFT, Ordering::AcqRel) & INDEX_MASK;
            g.cur += 1;
            g.prev_size = size;
            if g.popped[cur] < size {
                return;
            }
            held.clear(cur);
        }
        let clean = (g.cur << GEN_SHIFT) + g.popped[g.cur as usize & 1];
        held.clean.0.store(clean, Ordering::Release);
    }

    /// Whether the queue is currently empty — the progress engine's fast
    /// path: one load for the fallback plus one ring-index read per
    /// registered channel, no locks, no stores.
    pub fn is_empty(&self) -> bool {
        self.fallback_pending.load(Ordering::Acquire) == 0 && self.dir.rings_empty()
    }

    /// Number of queued packets (including any not-yet-dropped duplicates).
    /// Racy under concurrent pushes; exact when quiescent.
    pub fn len(&self) -> usize {
        self.fallback_pending.load(Ordering::Acquire) + self.dir.rings_len()
    }

    /// The notifier this mailbox signals.
    pub fn notify_handle(&self) -> Arc<Notify> {
        Arc::clone(&self.notify)
    }

    /// [`notify_handle`](Self::notify_handle), borrowed: no reference count
    /// is written.
    pub fn notifier(&self) -> &Arc<Notify> {
        &self.notify
    }
}

impl Holder for Mailbox {
    /// `u64::MAX` while every push is charged (the ticket still reads
    /// `clean`; read after it), else the lower holder slot, asking the
    /// consumer to turn (see [`Mailbox::settle`]).
    fn floor(&self) -> Nanos {
        let Some(held) = &self.held else {
            return Nanos(u64::MAX);
        };
        if held.clean.0.load(Ordering::Acquire) == self.ticket.load(Ordering::Acquire) {
            return Nanos(u64::MAX);
        }
        if !held.asked.load(Ordering::Relaxed) {
            held.asked.store(true, Ordering::Relaxed);
        }
        let [a, b] = &held.low;
        Nanos(a.0.load(Ordering::Acquire).min(b.0.load(Ordering::Acquire)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Header;
    use bytes::Bytes;
    use rankmpi_vtime::Nanos;
    use std::collections::HashMap;

    fn pkt(seq: u64) -> Packet {
        Packet {
            header: Header {
                seq,
                ..Header::zeroed()
            },
            payload: Bytes::new(),
            arrive_at: Nanos(seq),
        }
    }

    fn pkt_on(ctx: u32, src: u32, seq: u64, at: u64) -> Packet {
        Packet {
            header: Header {
                context_id: ctx,
                src,
                seq,
                ..Header::zeroed()
            },
            payload: Bytes::new(),
            arrive_at: Nanos(at),
        }
    }

    #[test]
    fn drain_preserves_push_order() {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        for s in 0..5 {
            mb.push(pkt(s));
        }
        assert_eq!(mb.len(), 5);
        let mut out = Vec::new();
        assert_eq!(mb.drain_into(&mut out), 5);
        assert!(mb.is_empty());
        let seqs: Vec<u64> = out.iter().map(|p| p.header.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drain_merges_channels_in_push_order() {
        // Interleave three channels; the ring merge must reproduce global
        // push order, not just per-channel order.
        let mb = Mailbox::new(Arc::new(Notify::new()));
        let mut expect = Vec::new();
        for i in 0..30u64 {
            let src = (i % 3) as u32;
            mb.push(pkt_on(1, src, i, i));
            expect.push((src, i));
        }
        let mut out = Vec::new();
        assert_eq!(mb.drain_into(&mut out), 30);
        let got: Vec<(u32, u64)> = out.iter().map(|p| (p.header.src, p.header.seq)).collect();
        assert_eq!(got, expect);
        assert_eq!(mb.ring_pushes(), 30);
        assert_eq!(mb.ring_spills(), 0);
    }

    #[test]
    fn ring_wraparound_and_overflow_spill_keep_order() {
        // Push far beyond the ring capacity without draining: overflow spills
        // to the locked queue; a later drain must still see exact push order.
        // Second case, with a duplicating plan armed: originals and copies
        // are split across the ring and the spill queue, and the one drain
        // still delivers every original exactly once, in push order.
        for armed in [false, true] {
            let mb = Mailbox::new(Arc::new(Notify::new()));
            if armed {
                mb.arm_faults(FaultPlan::new(17).duplicates(0.5));
            }
            let n = 4 * RING_CAPACITY as u64;
            for seq in 0..n {
                mb.push(pkt_on(1, 0, seq, seq));
            }
            assert!(mb.ring_spills() > 0, "burst beyond capacity must spill");
            let mut out = Vec::new();
            assert_eq!(mb.drain_into(&mut out), n as usize);
            let seqs: Vec<u64> = out.iter().map(|p| p.header.seq).collect();
            assert_eq!(seqs, (0..n).collect::<Vec<_>>());
            if armed {
                let report = mb.fault_report().unwrap();
                assert!(report.dups_injected > 0);
                assert_eq!(report.dups_dropped, report.dups_injected);
            }
            // Wraparound: repeated small bursts reuse the ring slots.
            for round in 0..10 {
                for seq in 0..8 {
                    mb.push(pkt_on(1, 0, n + round * 8 + seq, seq));
                }
                out.clear();
                assert_eq!(mb.drain_into(&mut out), 8);
            }
            assert!(mb.is_empty());
        }
    }

    #[test]
    fn concurrent_producers_preserve_per_channel_fifo() {
        // Four producer threads on four distinct channels against one
        // drainer: nothing lost, per-channel order exact.
        let mb = Arc::new(Mailbox::new(Arc::new(Notify::new())));
        let n_per = 5_000u64;
        let producers: Vec<_> = (0..4u32)
            .map(|src| {
                let mb = Arc::clone(&mb);
                std::thread::spawn(move || {
                    for seq in 0..n_per {
                        mb.push(pkt_on(7, src, seq, seq));
                    }
                })
            })
            .collect();
        let mut out = Vec::new();
        let mut got = 0usize;
        while got < 4 * n_per as usize {
            got += mb.drain_into(&mut out);
        }
        for t in producers {
            t.join().unwrap();
        }
        assert!(mb.is_empty());
        let mut next = [0u64; 4];
        for p in &out {
            let s = p.header.src as usize;
            assert_eq!(p.header.seq, next[s], "channel {s} FIFO violated");
            next[s] += 1;
        }
        assert_eq!(next, [n_per; 4]);
    }

    #[test]
    fn racing_producers_on_one_channel_lose_nothing() {
        // Two threads violating the one-producer-per-channel assumption: the
        // claim CAS must shunt the loser to the locked queue, not corrupt
        // the ring. Every packet is delivered exactly once. Second case, with a
        // duplicating plan armed: the stage lock keeps the racers' sequence
        // numbers in publication order, so the watermark drops exactly the
        // injected copies and nothing else.
        for armed in [false, true] {
            let mb = Arc::new(Mailbox::new(Arc::new(Notify::new())));
            if armed {
                mb.arm_faults(FaultPlan::new(13).duplicates(0.5));
            }
            let n_per = 5_000u64;
            let producers: Vec<_> = (0..2)
                .map(|half| {
                    let mb = Arc::clone(&mb);
                    std::thread::spawn(move || {
                        for seq in 0..n_per {
                            mb.push(pkt_on(7, 0, half * n_per + seq, seq));
                        }
                    })
                })
                .collect();
            for t in producers {
                t.join().unwrap();
            }
            let mut out = Vec::new();
            assert_eq!(mb.drain_into(&mut out), 2 * n_per as usize);
            let mut seqs: Vec<u64> = out.iter().map(|p| p.header.seq).collect();
            seqs.sort_unstable();
            assert_eq!(seqs, (0..2 * n_per).collect::<Vec<_>>());
            if armed {
                let report = mb.fault_report().unwrap();
                assert!(report.dups_injected > 0);
                assert_eq!(report.dups_dropped, report.dups_injected);
            }
        }
    }

    #[test]
    fn push_bumps_notify_version() {
        let n = Arc::new(Notify::new());
        let mb = Mailbox::new(Arc::clone(&n));
        let v0 = n.version();
        mb.push(pkt(0));
        assert_eq!(n.version(), v0 + 1);
    }

    #[test]
    fn quiet_push_defers_notification() {
        let n = Arc::new(Notify::new());
        let mb = Mailbox::new(Arc::clone(&n));
        let v0 = n.version();
        mb.push_quiet(pkt(0), None);
        mb.push_quiet(pkt(1), None);
        assert_eq!(n.version(), v0, "quiet pushes do not notify");
        mb.notify_handle().notify();
        assert_eq!(n.version(), v0 + 1, "one batch, one notification");
        let mut out = Vec::new();
        assert_eq!(mb.drain_into(&mut out), 2);
    }

    #[test]
    fn faulted_mailbox_keeps_channel_arrivals_monotone() {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        mb.arm_faults(FaultPlan::chaos(0xFA11));
        for seq in 0..200 {
            mb.push(pkt_on(1, 0, seq, 10 * seq));
            mb.push(pkt_on(1, 1, seq, 10 * seq));
        }
        let mut out = Vec::new();
        mb.drain_into(&mut out);
        let mut last: HashMap<(u32, u32), (Nanos, u64)> = HashMap::new();
        for p in &out {
            let chan = (p.header.context_id, p.header.src);
            if let Some((at, seq)) = last.insert(chan, (p.arrive_at, p.header.seq)) {
                assert!(p.arrive_at >= at, "channel arrival went backwards");
                assert!(p.header.seq > seq, "channel real order was swapped");
            }
        }
    }

    #[test]
    fn faulted_mailbox_delivers_each_packet_exactly_once() {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        mb.arm_faults(FaultPlan::new(7).duplicates(0.5));
        let n = 200;
        for seq in 0..n {
            mb.push(pkt_on(1, 0, seq, 10 * seq));
        }
        let report = mb.fault_report().unwrap();
        assert!(report.dups_injected > 0, "seed must inject some duplicates");
        assert_eq!(mb.len() as u64, n + report.dups_injected);
        let mut out = Vec::new();
        let delivered = mb.drain_into(&mut out) as u64;
        assert_eq!(delivered, n, "dedup must drop every duplicate copy");
        let report = mb.fault_report().unwrap();
        assert_eq!(report.dups_dropped, report.dups_injected);
        let mut seqs: Vec<u64> = out.iter().map(|p| p.header.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn arming_mid_run_migrates_ring_stragglers() {
        // Packets pushed before arming sit in rings; arming must route them
        // through the fault pipeline without loss or reordering.
        let mb = Mailbox::new(Arc::new(Notify::new()));
        for seq in 0..10 {
            mb.push(pkt_on(1, 0, seq, 10 * seq));
        }
        mb.arm_faults(FaultPlan::new(11).duplicates(0.5));
        for seq in 10..20 {
            mb.push(pkt_on(1, 0, seq, 10 * seq));
        }
        let mut out = Vec::new();
        let delivered = mb.drain_into(&mut out);
        assert_eq!(delivered, 20, "all originals exactly once");
        let seqs: Vec<u64> = out.iter().map(|p| p.header.seq).collect();
        assert_eq!(seqs, (0..20).collect::<Vec<_>>());
        assert!(mb.is_empty());
    }

    #[test]
    fn rearming_keeps_queued_packets_deliverable() {
        // Regression: re-arming used to reset the per-channel watermarks
        // while already-sequenced entries were still queued, so they sat
        // above the new watermark and were dropped as duplicates.
        let mb = Mailbox::new(Arc::new(Notify::new()));
        mb.arm_faults(FaultPlan::new(1).duplicates(0.5));
        for seq in 0..4 {
            mb.push(pkt_on(1, 0, seq, 10 * seq));
        }
        let mut out = Vec::new();
        assert_eq!(mb.drain_into(&mut out), 4);
        for seq in 4..6 {
            mb.push(pkt_on(1, 0, seq, 10 * seq));
        }
        mb.arm_faults(FaultPlan::new(2).duplicates(0.5));
        out.clear();
        assert_eq!(mb.drain_into(&mut out), 2);
        let seqs: Vec<u64> = out.iter().map(|p| p.header.seq).collect();
        assert_eq!(seqs, vec![4, 5]);
    }

    #[test]
    fn faulted_traffic_rides_the_rings() {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        mb.arm_faults(FaultPlan::chaos(0xA11));
        let mut out = Vec::new();
        let mut delivered = 0;
        for i in 0..200u64 {
            mb.push(pkt_on(1, (i % 2) as u32, i / 2, 10 * i));
            if i % 64 == 63 {
                delivered += mb.drain_into(&mut out);
            }
        }
        delivered += mb.drain_into(&mut out);
        assert_eq!(delivered, 200);
        assert!(mb.ring_pushes() > 0, "armed pushes must take the rings");
        assert_eq!(mb.ring_spills(), 0, "no ring ever filled");
    }

    #[test]
    fn reorders_swap_across_channels_only() {
        // Every packet is flagged for reorder; `arrive_at` carries the global
        // push index. Each applied swap inverts exactly one pair of push
        // indices, so the inversions in the output count the swaps.
        let mb = Mailbox::new(Arc::new(Notify::new()));
        mb.arm_faults(FaultPlan::new(9).reorders(1.0));
        let mut out = Vec::new();
        let mut inversions = 0;
        let mut next = [0u64; 2];
        for i in 0..64u64 {
            mb.push(pkt_on(1, (i % 2) as u32, i / 2, i));
            if i % 8 == 7 {
                out.clear();
                assert_eq!(mb.drain_into(&mut out), 8);
                for (k, p) in out.iter().enumerate() {
                    let ch = p.header.src as usize;
                    assert_eq!(p.header.seq, next[ch], "channel {ch} order broken");
                    next[ch] += 1;
                    inversions += out[..k]
                        .iter()
                        .filter(|q| q.arrive_at > p.arrive_at)
                        .count();
                }
            }
        }
        assert!(inversions > 0, "alternating channels must reorder");
        assert_eq!(mb.fault_report().unwrap().reorders, inversions as u64);
        // A same-channel run never swaps, flagged or not.
        for i in 0..8u64 {
            mb.push(pkt_on(1, 0, 32 + i, 64 + i));
        }
        out.clear();
        assert_eq!(mb.drain_into(&mut out), 8);
        assert!(out.windows(2).all(|w| w[0].arrive_at < w[1].arrive_at));
        assert_eq!(mb.fault_report().unwrap().reorders, inversions as u64);
    }

    #[test]
    fn dedup_memory_stays_flat_over_ten_thousand_dups() {
        // Regression: the dedup filter used to be a grow-forever
        // (src, seq) set; it is now a per-channel watermark. 10k packets on
        // two channels with ~100% duplication must leave exactly two dedup
        // records, and every copy must still be dropped.
        let mb = Mailbox::new(Arc::new(Notify::new()));
        mb.arm_faults(FaultPlan::new(21).duplicates(1.0));
        let n = 10_000u64;
        let mut out = Vec::new();
        let mut delivered = 0;
        for seq in 0..n {
            mb.push(pkt_on(1, 0, seq, seq));
            mb.push(pkt_on(1, 1, seq, seq));
            if seq % 64 == 0 {
                delivered += mb.drain_into(&mut out);
                out.clear();
            }
        }
        delivered += mb.drain_into(&mut out);
        assert_eq!(delivered as u64, 2 * n, "every original delivered once");
        let report = mb.fault_report().unwrap();
        assert_eq!(report.dups_injected, 2 * n, "prob 1.0 duplicates all");
        assert_eq!(report.dups_dropped, report.dups_injected);
        assert_eq!(
            mb.dedup_entries(),
            2,
            "dedup memory must be O(channels), not O(messages)"
        );
    }

    #[test]
    fn spurious_copies_are_dropped_and_counted_separately() {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        mb.arm_faults(FaultPlan::new(5).delays(0.2, Nanos(100)));
        for seq in 0..50 {
            let p = pkt_on(1, 0, seq, 10 * seq);
            let spur = (seq % 3 == 0).then(|| p.clone());
            mb.push_with_spurious(p, spur);
        }
        let mut out = Vec::new();
        let delivered = mb.drain_into(&mut out);
        assert_eq!(delivered, 50, "spurious copies must not be delivered");
        let report = mb.fault_report().unwrap();
        assert_eq!(report.spurious_dropped, 17);
        assert_eq!(report.dups_dropped, 0, "spurious != duplicate-fault");
    }

    #[test]
    fn lossy_plan_arms_the_resil_layer() {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        assert!(mb.resil().is_none());
        mb.arm_faults(FaultPlan::lossy(1));
        assert!(mb.resil().is_some());
        mb.arm_faults(FaultPlan::chaos(1));
        assert!(mb.resil().is_none(), "chaos has no lossy class");
    }

    #[test]
    fn fault_decisions_are_schedule_independent() {
        // Two mailboxes with the same plan see the same packets in different
        // real orders; per-packet outcomes (final arrival stamps) agree.
        let plan = FaultPlan::new(3)
            .delays(0.5, Nanos(500))
            .nacks(0.3, Nanos(900));
        let (a, b) = (
            Mailbox::new(Arc::new(Notify::new())),
            Mailbox::new(Arc::new(Notify::new())),
        );
        a.arm_faults(plan.clone());
        b.arm_faults(plan);
        // Interleave channels differently; per-channel order must hold.
        for seq in 0..50 {
            a.push(pkt_on(1, 0, seq, 100 * seq));
            a.push(pkt_on(1, 1, seq, 100 * seq));
        }
        for seq in 0..50 {
            b.push(pkt_on(1, 1, seq, 100 * seq));
        }
        for seq in 0..50 {
            b.push(pkt_on(1, 0, seq, 100 * seq));
        }
        let (mut oa, mut ob) = (Vec::new(), Vec::new());
        a.drain_into(&mut oa);
        b.drain_into(&mut ob);
        let stamps = |v: &[Packet]| {
            let mut m: Vec<((u32, u64), Nanos)> = v
                .iter()
                .map(|p| ((p.header.src, p.header.seq), p.arrive_at))
                .collect();
            m.sort();
            m
        };
        assert_eq!(stamps(&oa), stamps(&ob));
    }

    #[test]
    fn waiter_is_woken_by_push() {
        let n = Arc::new(Notify::new());
        let mb = Arc::new(Mailbox::new(Arc::clone(&n)));
        let mb2 = Arc::clone(&mb);
        // No sleep needed for correctness: wait_until reads the version
        // before each drain, so whichever side runs first, the waiter
        // returns once the push has happened. (The deterministic-interleaving
        // version of this test lives in the rankmpi-check conformance
        // suite, which drives both orders explicitly.)
        let t = std::thread::spawn(move || {
            let mut got = Vec::new();
            n.wait_until(|| (mb2.drain_into(&mut got) > 0).then_some(()));
            got.len()
        });
        mb.push(pkt(1));
        assert_eq!(t.join().unwrap(), 1);
    }
}
