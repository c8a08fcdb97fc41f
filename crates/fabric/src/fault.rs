//! Deterministic packet-level fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] armed on a [`Mailbox`](crate::Mailbox) perturbs arriving
//! packets the way a lossy-but-reliable transport would: extra latency,
//! transient NACK/retransmit rounds, duplicate deliveries (deduplicated
//! before they reach the matching engine, as a reliable transport must), and
//! cross-channel reordering of the real delivery queue. The plan runs as two
//! halves around the mailbox's one queue: a push-side `FaultStage` that
//! perturbs and sequences each packet before it is enqueued, and a
//! drain-side `FaultFilter` that applies the flagged reorders and drops
//! the copies. The perturbations stay inside MPI's transport contract:
//!
//! - **per-channel FIFO survives**: within one `(context_id, src)` channel,
//!   virtual arrival times remain monotone (delays propagate head-of-line,
//!   like retransmission on an in-order transport) and real queue order is
//!   never swapped between packets of the same channel;
//! - **no loss**: every pushed packet is eventually delivered exactly once —
//!   duplicates are injected by the stage *and* dropped by the filter.
//!
//! Every per-packet decision derives from `hash(seed, src, seq)`, never from
//! arrival order or wall-clock state, so a fault plan perturbs a run the
//! same way under every thread schedule — which is what lets
//! `rankmpi-check` sweep schedules and fault seeds independently.
//!
//! Two fault classes are *lossy*: wire drops ([`FaultPlan::drops`]) and link
//! down/flap windows ([`FaultPlan::flaps`]). Unlike the delivery-preserving
//! classes above, a lossy plan genuinely discards transmission attempts —
//! which is only semantics-preserving because arming one also arms the
//! [`resil`](crate::resil) retransmit layer on the mailbox. Flap decisions
//! hash the packet's *sequence window* (`seq / flap_window`) instead of the
//! individual `seq`, so consecutive sends share the outcome: bursts of loss,
//! like a link going down and coming back, still schedule-independent.
//!
//! Injected faults are recorded as `obs` spans (category `"fault"`) and
//! counted per mailbox, read back as a [`FaultReport`], so traces show them
//! and bench JSON can export them.

use std::collections::HashMap;
use std::sync::Arc;

use rankmpi_obs::trace as obs;
use rankmpi_vtime::{Counter, Nanos};

use crate::Packet;

/// Configuration of deterministic fault injection for one mailbox.
///
/// Probabilities are in `[0, 1]`; a default plan injects nothing. Build with
/// the chainable setters, or start from [`FaultPlan::chaos`] for a moderate
/// everything-on mix.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed all per-packet decisions derive from (mixed with `src`/`seq`).
    pub seed: u64,
    /// Probability a packet's arrival is delayed.
    pub delay_prob: f64,
    /// Maximum extra virtual latency of a delay (uniform in `[1, max]` ns).
    pub delay_max: Nanos,
    /// Probability a packet is delivered twice (the copy is deduplicated
    /// before it can reach a matching engine).
    pub duplicate_prob: f64,
    /// Probability a packet is transiently NACKed and retransmitted.
    pub nack_prob: f64,
    /// Extra virtual latency of one NACK/retransmit round.
    pub nack_delay: Nanos,
    /// Probability a packet is reordered past the previously queued packet
    /// (applied only across different `(context_id, src)` channels).
    pub reorder_prob: f64,
    /// Probability any single transmission attempt is dropped on the wire
    /// (lossy: requires the [`resil`](crate::resil) retransmit layer).
    pub drop_prob: f64,
    /// Probability an entire sequence window of attempts is lost to a link
    /// down/flap episode (lossy; see [`FaultPlan::flaps`]).
    pub flap_prob: f64,
    /// Length of one flap decision window in sender sequence numbers: all
    /// packets with the same `seq / flap_window` share each attempt's flap
    /// outcome, producing bursty loss.
    pub flap_window: u64,
    /// Probability a packet is a *straggler*: delayed by a heavy-tail
    /// (Pareto, α = 2) extra latency instead of the uniform delay class
    /// (see [`FaultPlan::stragglers`]).
    pub straggle_prob: f64,
    /// Scale (minimum) of the straggler heavy-tail delay.
    pub straggle_base: Nanos,
    /// Hard cap on one straggler delay, keeping the tail finite.
    pub straggle_cap: Nanos,
    /// Probability a given rank crashes outright during the run (see
    /// [`FaultPlan::crashes`]). Unlike the packet classes this is decided
    /// once per *rank* from the plan seed; rank 0 is always exempt because
    /// it anchors the recovery protocols.
    pub crash_prob: f64,
    /// Upper bound of the hash-drawn send-count crash trigger: a sends-mode
    /// victim dies on its `n`-th MPI send, `n` uniform in `[1, max]`.
    pub crash_max_sends: u64,
    /// Upper bound of the hash-drawn virtual-time crash trigger: a
    /// vtime-mode victim dies at its first MPI operation at or past `t`,
    /// `t` uniform in `[1, max]` ns.
    pub crash_max_vtime: Nanos,
}

/// Where a crash-plan victim dies, derived by [`FaultPlan::crash_point`].
/// Both triggers fire *inside* an MPI operation — mid-send, mid-collective,
/// mid-stream — whichever the rank happens to be issuing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die when about to issue the `n`-th MPI send (packet-count trigger).
    Sends(u64),
    /// Die at the first MPI operation at or past this virtual time.
    VTime(Nanos),
}

/// Why a transmission attempt was lost on the wire (lossy fault classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// An isolated wire drop ([`FaultPlan::drops`]).
    Drop,
    /// A link down/flap episode ([`FaultPlan::flaps`]).
    LinkDown,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            delay_prob: 0.0,
            delay_max: Nanos(2_000),
            duplicate_prob: 0.0,
            nack_prob: 0.0,
            nack_delay: Nanos(3_000),
            reorder_prob: 0.0,
            drop_prob: 0.0,
            flap_prob: 0.0,
            flap_window: 16,
            straggle_prob: 0.0,
            straggle_base: Nanos(20_000),
            straggle_cap: Nanos(2_000_000),
            crash_prob: 0.0,
            crash_max_sends: 64,
            crash_max_vtime: Nanos(200_000),
        }
    }
}

impl FaultPlan {
    /// A plan with `seed` and no faults enabled.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// A moderate everything-on mix: ~15% delays, ~10% duplicates, ~10%
    /// NACKs, ~20% cross-channel reorders.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan::new(seed)
            .delays(0.15, Nanos(2_000))
            .duplicates(0.10)
            .nacks(0.10, Nanos(3_000))
            .reorders(0.20)
    }

    /// Enable arrival delays: probability `prob`, up to `max` extra ns.
    pub fn delays(mut self, prob: f64, max: Nanos) -> Self {
        self.delay_prob = prob;
        self.delay_max = max;
        self
    }

    /// Enable duplicate-then-dedup deliveries with probability `prob`.
    pub fn duplicates(mut self, prob: f64) -> Self {
        self.duplicate_prob = prob;
        self
    }

    /// Enable transient NACK/retransmit rounds: probability `prob`, each
    /// costing `delay` extra ns.
    pub fn nacks(mut self, prob: f64, delay: Nanos) -> Self {
        self.nack_prob = prob;
        self.nack_delay = delay;
        self
    }

    /// Enable cross-channel reordering of the real delivery queue with
    /// probability `prob`.
    pub fn reorders(mut self, prob: f64) -> Self {
        self.reorder_prob = prob;
        self
    }

    /// Enable true wire drops: each transmission attempt is independently
    /// lost with probability `prob`. Lossy — the mailbox's `resil` layer
    /// retransmits until delivery or retry exhaustion.
    pub fn drops(mut self, prob: f64) -> Self {
        self.drop_prob = prob;
        self
    }

    /// Enable link down/flap episodes: all attempts in a window of `window`
    /// consecutive sender sequence numbers are lost together with
    /// probability `prob` per attempt round. Lossy (see [`FaultPlan::drops`]).
    pub fn flaps(mut self, prob: f64, window: u64) -> Self {
        self.flap_prob = prob;
        self.flap_window = window.max(1);
        self
    }

    /// Enable heavy-tail stragglers: with probability `prob` a packet's
    /// arrival is pushed out by a Pareto(α = 2) draw scaled by `base` and
    /// clamped to `cap` — most stragglers land near `base`, a few land an
    /// order of magnitude out, none past `cap`. Like every class the draw
    /// derives from `(seed, src, seq)`, so the same packets straggle by the
    /// same amount under every thread schedule. Delivery-preserving (the
    /// per-channel FIFO clamp still applies); this is the knob the stream
    /// workloads use to model slow nodes and tail latency.
    pub fn stragglers(mut self, prob: f64, base: Nanos, cap: Nanos) -> Self {
        self.straggle_prob = prob;
        self.straggle_base = base.max(Nanos(1));
        self.straggle_cap = cap.max(base);
        self
    }

    /// Enable rank crashes: each rank except rank 0 independently dies with
    /// probability `prob`, at a point drawn from the plan seed — half the
    /// victims on a send count in `[1, max_sends]`, half at a virtual time
    /// in `[1, max_vtime]`. The whole plan is *oracle-visible*: a test (or
    /// the conformance suite) calls [`FaultPlan::crash_point`] per rank to
    /// learn exactly who dies and when, under every thread schedule.
    ///
    /// Rank 0 is exempt by construction so at least one survivor exists to
    /// anchor recovery (shrink numbering, stream emitters, test oracles).
    pub fn crashes(mut self, prob: f64, max_sends: u64, max_vtime: Nanos) -> Self {
        self.crash_prob = prob;
        self.crash_max_sends = max_sends.max(1);
        self.crash_max_vtime = max_vtime.max(Nanos(1));
        self
    }

    /// Whether rank crashes are enabled.
    pub fn any_crashes(&self) -> bool {
        self.crash_prob > 0.0
    }

    /// The crash point of `rank` under this plan, or `None` if it survives.
    /// Salt 10 is reserved for crash decisions; the draw uses only the plan
    /// seed and the rank, so the victim set is schedule-independent and
    /// visible to oracles before the run starts.
    pub fn crash_point(&self, rank: u64) -> Option<CrashPoint> {
        if self.crash_prob <= 0.0 || rank == 0 {
            return None;
        }
        let r = rank as u32;
        if self.unit(r, 0xC0A5, 10) >= self.crash_prob {
            return None;
        }
        if self.unit(r, 0xC0A6, 10) < 0.5 {
            let n = 1 + (self.unit(r, 0xC0A7, 10) * self.crash_max_sends as f64) as u64;
            Some(CrashPoint::Sends(n.min(self.crash_max_sends)))
        } else {
            let t = 1 + (self.unit(r, 0xC0A8, 10) * self.crash_max_vtime.0 as f64) as u64;
            Some(CrashPoint::VTime(Nanos(t.min(self.crash_max_vtime.0))))
        }
    }

    /// A lossy preset: 5% independent wire drops plus flap episodes that
    /// take out ~30% of 8-send windows per attempt round, on top of mild
    /// delays. The mix the acceptance pingpong and the resilience bench run.
    pub fn lossy(seed: u64) -> Self {
        FaultPlan::new(seed)
            .drops(0.05)
            .flaps(0.30, 8)
            .delays(0.10, Nanos(1_500))
    }

    /// Derive a distinct-seed copy of this plan (e.g. one per `(rank, vci)`
    /// mailbox) so that mailboxes perturb independently.
    pub fn derive(&self, a: u64, b: u64) -> Self {
        let mut p = self.clone();
        p.seed = splitmix(self.seed ^ splitmix(a.rotate_left(32) ^ b));
        p
    }

    /// Whether any fault class is enabled.
    pub fn any_enabled(&self) -> bool {
        self.delay_prob > 0.0
            || self.duplicate_prob > 0.0
            || self.nack_prob > 0.0
            || self.reorder_prob > 0.0
            || self.straggle_prob > 0.0
            || self.any_lossy()
    }

    /// Whether a lossy class (drop or flap) is enabled — i.e. whether the
    /// retransmit layer is required for delivery.
    pub fn any_lossy(&self) -> bool {
        self.drop_prob > 0.0 || self.flap_prob > 0.0
    }

    /// Whether transmission attempt `attempt` (0 = the original send) of
    /// packet `(src, seq)` is lost, and to which cause. Flap outranks drop:
    /// a down link loses the packet regardless of the wire.
    ///
    /// Like every fault decision this depends only on the plan seed and the
    /// packet identity — the sender can (and does) evaluate the whole
    /// retransmit schedule at send time without breaking
    /// schedule-independence.
    pub(crate) fn lost(&self, src: u32, seq: u64, attempt: u32) -> Option<LossCause> {
        let a = attempt as u64;
        if self.flap_prob > 0.0 {
            let window = seq / self.flap_window.max(1);
            if self.unit(src, window, 7 + 16 * a) < self.flap_prob {
                return Some(LossCause::LinkDown);
            }
        }
        if self.drop_prob > 0.0 && self.unit(src, seq, 6 + 16 * a) < self.drop_prob {
            return Some(LossCause::Drop);
        }
        None
    }

    /// The straggler delay (ns) for packet `(src, seq)`, or `None` if this
    /// packet does not straggle. Salt 8 decides, salt 9 draws the tail:
    /// `extra = base / sqrt(1 - u)` is Pareto with α = 2 (P[extra > x] =
    /// (base/x)²), clamped to `straggle_cap`.
    pub(crate) fn straggle_ns(&self, src: u32, seq: u64) -> Option<u64> {
        if self.straggle_prob <= 0.0 || self.unit(src, seq, 8) >= self.straggle_prob {
            return None;
        }
        let u = self.unit(src, seq, 9);
        let extra = (self.straggle_base.0.max(1) as f64) / (1.0 - u).sqrt();
        Some((extra as u64).clamp(self.straggle_base.0.max(1), self.straggle_cap.0))
    }

    /// A uniform value in `[0, 1)` for decision `salt` on packet
    /// `(src, seq)`. Depends only on the plan seed and the packet identity,
    /// never on arrival order, so decisions are schedule-independent.
    pub(crate) fn unit(&self, src: u32, seq: u64, salt: u64) -> f64 {
        let z = splitmix(self.seed ^ splitmix(((src as u64) << 40) ^ seq ^ salt.rotate_left(17)));
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What the [`FaultStage`] stamped on one queued packet. Packets pushed
/// while no plan was armed carry no stamp and pass the [`FaultFilter`]
/// untouched.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Stamp {
    /// Push-order receive sequence on the packet's channel; a copy shares
    /// its original's.
    pub rseq: u64,
    /// A spurious retransmit copy from the `resil` layer (counted apart from
    /// injected duplicate-fault copies).
    pub spurious: bool,
    /// Swap with the predecessor at drain, iff that one is still queued and
    /// belongs to a different channel.
    pub reorder: bool,
}

/// Push half of an armed plan: perturbs each packet's arrival, clamps it to
/// its channel's head-of-line floor, and assigns its dedup sequence number.
///
/// The dedup filter is a *watermark*, not a set: the stage gives each
/// original a push-order sequence number on its channel, copies share their
/// original's number, and the [`FaultFilter`] delivers a packet iff its
/// number equals the channel's `next_deliver` (then advances it). Because
/// per-channel queue order equals push order (reorder faults only swap
/// across channels), every original hits its watermark exactly and every
/// copy lands strictly below it. `next_deliver` is exactly the channel's
/// cumulative-ack watermark, so dedup memory is O(channels), flat no matter
/// how many duplicates a run injects — the ack-based GC the reliability
/// protocol requires.
#[derive(Debug)]
pub(crate) struct FaultStage {
    /// Swappable at any time: sequence numbers and floors do not depend on it.
    pub plan: FaultPlan,
    /// Per `(context_id, src)`: the latest faulted arrival (keeps virtual
    /// arrival monotone within the channel — head-of-line delay
    /// propagation) and the next receive sequence number to assign.
    channels: HashMap<(u32, u32), (Nanos, u64)>,
    counters: Arc<FaultCounters>,
}

impl FaultStage {
    /// A fresh stage for `plan` and the drain filter that pairs with it.
    pub fn arm(plan: FaultPlan) -> (FaultStage, FaultFilter) {
        let counters = Arc::new(FaultCounters::default());
        let filter = FaultFilter {
            next_deliver: HashMap::new(),
            counters: Arc::clone(&counters),
        };
        let stage = FaultStage {
            plan,
            channels: HashMap::new(),
            counters,
        };
        (stage, filter)
    }

    /// Live per-channel dedup records.
    pub fn dedup_entries(&self) -> usize {
        self.channels.len()
    }

    /// Counts of faults injected (and copies dropped) so far.
    pub fn report(&self) -> FaultReport {
        self.counters.report()
    }

    /// Perturb and sequence one packet about to be enqueued. Returns its
    /// stamp, the packet, and the duplicate copy if one was injected.
    pub fn admit(&mut self, mut p: Packet) -> (Stamp, Packet, Option<Packet>) {
        let plan = &self.plan;
        let (src, seq) = (p.header.src, p.header.seq);
        // Poisoned packets are synthetic failure notifications: they bypass
        // fault perturbation (their timing is the protocol's give-up time)
        // but still take a dedup slot and respect the channel floor.
        let perturb = !p.header.is_poisoned();
        let hit = |prob: f64, salt: u64| perturb && prob > 0.0 && plan.unit(src, seq, salt) < prob;

        // Transient NACK: one retransmit round's worth of extra latency.
        if hit(plan.nack_prob, 1) {
            let before = p.arrive_at;
            p.arrive_at += plan.nack_delay;
            self.counters.bump_nack(plan.nack_delay.as_ns());
            obs::busy("fault", "nack", before, p.arrive_at, obs::ResId::NONE);
        }
        // Plain delay: uniform extra latency in [1, delay_max].
        if hit(plan.delay_prob, 2) {
            let span = plan.delay_max.as_ns().max(1);
            let extra = 1 + (plan.unit(src, seq, 3) * span as f64) as u64;
            let before = p.arrive_at;
            p.arrive_at += Nanos(extra.min(span));
            self.counters
                .bump_delay(p.arrive_at.as_ns() - before.as_ns());
            obs::busy("fault", "delay", before, p.arrive_at, obs::ResId::NONE);
        }
        // Heavy-tail straggler: Pareto extra latency on a few packets —
        // applied before the channel clamp so per-channel FIFO survives.
        if let Some(extra) = plan.straggle_ns(src, seq).filter(|_| perturb) {
            let before = p.arrive_at;
            p.arrive_at += Nanos(extra);
            self.counters.bump_straggle(extra);
            obs::busy("fault", "straggler", before, p.arrive_at, obs::ResId::NONE);
        }
        let chan = (p.header.context_id, src);
        let (floor, next_push) = self.channels.entry(chan).or_default();
        // Head-of-line clamp: a channel's arrivals stay monotone in virtual
        // time even when an earlier packet was delayed past this one.
        p.arrive_at = p.arrive_at.max(*floor);
        *floor = p.arrive_at;
        let rseq = *next_push;
        *next_push += 1;

        let copy = hit(plan.duplicate_prob, 4).then(|| {
            self.counters.bump_dup_injected();
            let at = p.arrive_at;
            obs::busy("fault", "duplicate", at, at, obs::ResId::NONE);
            p.clone()
        });
        let stamp = Stamp {
            rseq,
            spurious: false,
            reorder: hit(plan.reorder_prob, 5),
        };
        (stamp, p, copy)
    }
}

/// Drain half of an armed plan: the per-channel delivery watermarks (see
/// [`FaultStage`]) and the reorder count. Owned by the mailbox's consumer.
#[derive(Debug)]
pub(crate) struct FaultFilter {
    /// Per channel, everything below has been delivered (acked); a queued
    /// packet stamped below it is a copy and is dropped.
    next_deliver: HashMap<(u32, u32), u64>,
    counters: Arc<FaultCounters>,
}

impl FaultFilter {
    /// Record one applied cross-channel swap of a packet arriving at `at`.
    pub fn note_reorder(&self, at: Nanos) {
        self.counters.bump_reorder();
        obs::busy("fault", "reorder", at, at, obs::ResId::NONE);
    }

    /// Whether the packet stamped `stamp` on `chan` is delivered (it is the
    /// original at its channel's watermark) or dropped as a copy.
    pub fn deliver(&mut self, chan: (u32, u32), stamp: Stamp) -> bool {
        let next = self.next_deliver.entry(chan).or_default();
        if stamp.rseq == *next {
            *next += 1;
            return true;
        }
        debug_assert!(stamp.rseq < *next, "queued entry above the watermark");
        if stamp.spurious {
            self.counters.bump_spurious_dropped();
        } else {
            self.counters.bump_dup_dropped();
        }
        false
    }
}

/// Counts of injected faults on one mailbox (readable snapshot via
/// [`Mailbox::fault_report`](crate::Mailbox::fault_report)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultReport {
    /// Packets whose arrival was delayed.
    pub delays: u64,
    /// Total extra virtual latency injected (delays + NACK rounds), ns.
    pub delay_ns: u64,
    /// Duplicate copies injected.
    pub dups_injected: u64,
    /// Duplicate copies dropped by the dedup filter.
    pub dups_dropped: u64,
    /// Transient NACK/retransmit rounds.
    pub nacks: u64,
    /// Cross-channel queue reorders performed.
    pub reorders: u64,
    /// Spurious retransmit copies (from the `resil` layer) dropped by the
    /// dedup filter — kept separate so `dups_injected == dups_dropped`
    /// remains an invariant of the duplicate fault class alone.
    pub spurious_dropped: u64,
    /// Packets hit by the heavy-tail straggler class.
    pub stragglers: u64,
    /// Total extra virtual latency injected by stragglers, ns (kept apart
    /// from `delay_ns` so tail and body latency can be attributed).
    pub straggler_ns: u64,
}

/// Per-mailbox fault counters, read back as a [`FaultReport`].
#[derive(Debug, Default)]
pub(crate) struct FaultCounters {
    pub delays: Counter,
    pub delay_ns: Counter,
    pub dups_injected: Counter,
    pub dups_dropped: Counter,
    pub nacks: Counter,
    pub reorders: Counter,
    pub spurious_dropped: Counter,
    pub stragglers: Counter,
    pub straggler_ns: Counter,
}

impl FaultCounters {
    pub fn bump_delay(&self, extra_ns: u64) {
        self.delays.incr();
        self.delay_ns.add(extra_ns);
    }

    pub fn bump_dup_injected(&self) {
        self.dups_injected.incr();
    }

    pub fn bump_dup_dropped(&self) {
        self.dups_dropped.incr();
    }

    pub fn bump_nack(&self, extra_ns: u64) {
        self.nacks.incr();
        self.delay_ns.add(extra_ns);
    }

    pub fn bump_reorder(&self) {
        self.reorders.incr();
    }

    pub fn bump_spurious_dropped(&self) {
        self.spurious_dropped.incr();
    }

    pub fn bump_straggle(&self, extra_ns: u64) {
        self.stragglers.incr();
        self.straggler_ns.add(extra_ns);
    }

    pub fn report(&self) -> FaultReport {
        FaultReport {
            delays: self.delays.get(),
            delay_ns: self.delay_ns.get(),
            dups_injected: self.dups_injected.get(),
            dups_dropped: self.dups_dropped.get(),
            nacks: self.nacks.get(),
            reorders: self.reorders.get(),
            spurious_dropped: self.spurious_dropped.get(),
            stragglers: self.stragglers.get(),
            straggler_ns: self.straggler_ns.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_depend_only_on_identity() {
        let p = FaultPlan::chaos(7);
        for src in 0..4u32 {
            for seq in 0..64u64 {
                for salt in 0..4u64 {
                    assert_eq!(p.unit(src, seq, salt), p.unit(src, seq, salt));
                }
            }
        }
        // Distinct identities decorrelate.
        assert_ne!(p.unit(0, 1, 0), p.unit(1, 0, 0));
    }

    #[test]
    fn derive_changes_seed_but_not_rates() {
        let p = FaultPlan::chaos(1);
        let d = p.derive(3, 5);
        assert_ne!(p.seed, d.seed);
        assert_eq!(p.delay_prob, d.delay_prob);
        assert_eq!(d.derive(3, 5).seed, p.derive(3, 5).derive(3, 5).seed);
    }

    #[test]
    fn default_plan_is_inert() {
        assert!(!FaultPlan::new(9).any_enabled());
        assert!(FaultPlan::chaos(9).any_enabled());
        assert!(!FaultPlan::chaos(9).any_lossy());
        assert!(FaultPlan::lossy(9).any_lossy());
        assert!(FaultPlan::new(9).drops(0.01).any_enabled());
    }

    #[test]
    fn loss_decisions_are_deterministic_and_attempt_indexed() {
        let p = FaultPlan::new(11).drops(0.5);
        for seq in 0..200u64 {
            for attempt in 0..4u32 {
                assert_eq!(p.lost(0, seq, attempt), p.lost(0, seq, attempt));
            }
        }
        // At 50% drop some packet must be lost on attempt 0 but survive a
        // retransmit attempt (otherwise retries could never help).
        assert!((0..200u64)
            .any(|seq| p.lost(0, seq, 0) == Some(LossCause::Drop) && p.lost(0, seq, 1).is_none()));
    }

    #[test]
    fn straggler_draws_are_heavy_tailed_deterministic_and_capped() {
        let base = Nanos(10_000);
        let cap = Nanos(400_000);
        let p = FaultPlan::new(21).stragglers(0.25, base, cap);
        assert!(p.any_enabled());
        assert!(!p.any_lossy());

        let draws: Vec<u64> = (0..4000u64)
            .filter_map(|seq| p.straggle_ns(2, seq))
            .collect();
        // ~25% of packets straggle.
        assert!(
            draws.len() > 700 && draws.len() < 1300,
            "hit {}",
            draws.len()
        );
        // Deterministic in the packet identity, independent of call order.
        for seq in (0..4000u64).rev() {
            assert_eq!(p.straggle_ns(2, seq), p.straggle_ns(2, seq));
        }
        // Bounded: every draw lands in [base, cap].
        assert!(draws.iter().all(|&d| d >= base.0 && d <= cap.0));
        // Heavy tail: the Pareto(α=2) survival P[extra > 4·base] = 1/16, so
        // a few thousand draws must put some past 4x while the median stays
        // near base (P[extra > 2·base] = 1/4 ⇒ median < 2·base).
        let mut sorted = draws.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        assert!(median < 2 * base.0, "median {median}");
        assert!(draws.iter().any(|&d| d > 4 * base.0));

        // Distinct sources decorrelate but stay individually deterministic.
        assert!((0..200u64).any(|s| p.straggle_ns(0, s).is_some() != p.straggle_ns(1, s).is_some()));
        // Disabled plan never straggles.
        assert_eq!(FaultPlan::new(21).straggle_ns(2, 3), None);
    }

    #[test]
    fn flap_loss_is_bursty_over_sequence_windows() {
        let p = FaultPlan::new(4).flaps(0.5, 8);
        // All seqs within one flap window share each attempt's outcome.
        for window in 0..32u64 {
            let first = p.lost(3, window * 8, 0);
            for off in 1..8u64 {
                assert_eq!(p.lost(3, window * 8 + off, 0), first);
            }
            if first.is_some() {
                assert_eq!(first, Some(LossCause::LinkDown));
            }
        }
        // And at 50% some window is down while another is up.
        let outcomes: Vec<_> = (0..32u64).map(|w| p.lost(3, w * 8, 0)).collect();
        assert!(outcomes.iter().any(|o| o.is_some()));
        assert!(outcomes.iter().any(|o| o.is_none()));
    }
}
