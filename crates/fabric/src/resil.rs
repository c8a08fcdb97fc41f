//! Per-channel reliability: a sliding-window ack/retransmit protocol that
//! keeps MPI delivery semantics over a lossy fabric.
//!
//! When a [`FaultPlan`] with a lossy class armed (wire
//! drops or link flaps) is installed on a [`Mailbox`](crate::Mailbox), a
//! [`Resil`] instance rides along and [`transmit`](fn@crate::transmit) routes
//! every send through it. The protocol is the classic one — per-channel
//! 16-bit send sequence numbers, a bounded in-flight window with sender
//! backpressure, cumulative acks, retransmission on a virtual-time timeout
//! with exponential backoff (plus deterministic jitter) up to a retry cap —
//! with one simulation-specific twist: because loss decisions are
//! deterministic hashes of the packet identity (never of arrival order), the
//! sender can *replay the whole exchange analytically at send time*. Each
//! attempt either survives or is lost per
//! [`FaultPlan::lost`](crate::FaultPlan); a lost attempt schedules a
//! retransmit one timeout later, re-occupying the source hardware context so
//! the repeated injection is LogGP-cost-accounted exactly like a real
//! retransmit; only the final outcome is delivered. Virtual time and the
//! mailbox's [`ResilReport`] see every retry, while the real-time side
//! stays a single mailbox push — keeping the protocol composable with
//! `rankmpi-check`'s schedule exploration.
//!
//! Retry exhaustion does not drop the message silently (that would hang the
//! receiver): the packet is delivered *poisoned*
//! ([`Header::poison`](crate::Header::poison)) at the time the sender's final
//! timeout fires, flows through matching like any packet, and completes the
//! matched receive with an error instead of a payload — which is what lets
//! `rankmpi-core` surface `RetriesExhausted`/`LinkDown` through MPI-style
//! error handlers instead of deadlocking.
//!
//! If an ack would arrive after the next retransmit timer already fired, the
//! sender also emits one *spurious* retransmit copy (counted in
//! [`ResilReport::spurious_rexmit`]) that the mailbox's dedup watermark
//! drops — the duplicate-suppression path real protocols need is exercised,
//! not assumed.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use rankmpi_obs::trace as obs;
use rankmpi_vtime::{Clock, Counter, Nanos};

use crate::fault::{FaultPlan, LossCause};
use crate::HwContext;

/// Tuning knobs of the retransmit protocol (see module docs). Overridable
/// per universe and, at the MPI layer, through `rankmpi_resil_*` Info hints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResilConfig {
    /// Maximum unacked packets in flight per channel before the sender
    /// stalls (sliding-window backpressure).
    pub window: usize,
    /// Maximum retransmissions per packet; one more loss poisons the
    /// delivery with `RetriesExhausted`/`LinkDown`.
    pub max_retries: u32,
    /// Initial retransmit timeout (virtual ns); attempt `k` waits
    /// `rto_base << (k-1)` capped at [`rto_cap`](ResilConfig::rto_cap).
    pub rto_base: Nanos,
    /// Upper bound of the exponential backoff.
    pub rto_cap: Nanos,
}

impl Default for ResilConfig {
    fn default() -> Self {
        ResilConfig {
            window: 64,
            max_retries: 16,
            rto_base: Nanos(20_000),
            rto_cap: Nanos(320_000),
        }
    }
}

/// The deterministic backoff schedule: timeout before retransmit attempt
/// `attempt` (1-based), exponential in `rto_base` and capped at `rto_cap`.
/// Jitter is added separately (see [`rto`]).
pub fn backoff(cfg: &ResilConfig, attempt: u32) -> Nanos {
    let shift = attempt.saturating_sub(1).min(63);
    let raw = cfg.rto_base.as_ns().saturating_shl(shift);
    Nanos(raw.min(cfg.rto_cap.as_ns()))
}

/// Backoff plus deterministic jitter in `[0, rto_base / 4)`, derived from
/// the packet identity like every other fault decision (salt family
/// `9 + 16k`), so two senders retrying the same window don't stay
/// synchronized.
pub fn rto(cfg: &ResilConfig, plan: &FaultPlan, src: u32, seq: u64, attempt: u32) -> Nanos {
    let jitter_span = (cfg.rto_base.as_ns() / 4).max(1);
    let u = plan.unit(src, seq, 9 + 16 * attempt as u64);
    backoff(cfg, attempt) + Nanos((u * jitter_span as f64) as u64)
}

/// Wrapping 16-bit sequence comparison: whether `a` is logically after `b`.
/// Sound while fewer than 2^15 sequence numbers separate the ends of the
/// window — guaranteed because the window is far smaller than that.
pub fn seq_after(a: u16, b: u16) -> bool {
    a != b && a.wrapping_sub(b) < 0x8000
}

/// Forward wrapping distance from `b` to `a` in sequence space.
pub fn seq_distance(a: u16, b: u16) -> u16 {
    a.wrapping_sub(b)
}

/// What happened to one admitted send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Delivered (possibly after retransmissions).
    Delivered,
    /// Every retry was lost; the packet must be delivered poisoned.
    Lost(LossCause),
}

/// The resolved fate of one send: final arrival time, attempts spent, and
/// (when the ack raced a timer) the arrival of a spurious duplicate copy.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    /// Virtual arrival of the surviving attempt — or, for a lost packet,
    /// the time the sender's final timeout fires (when the error surfaces).
    pub arrive_at: Nanos,
    /// Transmission attempts performed (1 = no retransmit needed).
    pub attempts: u32,
    /// Delivered or lost.
    pub outcome: Outcome,
    /// Arrival of a spurious retransmit copy, if the protocol emitted one.
    pub spurious_arrive_at: Option<Nanos>,
}

/// Per-channel sender state.
#[derive(Debug, Default)]
struct Chan {
    /// Next 16-bit send sequence number (deliberately narrow: wraparound is
    /// routine, which is what the wrapping comparisons are for).
    next_seq: u16,
    /// Unacked sends in order: `(seq, virtual time the cumulative ack
    /// covering it arrives)`.
    inflight: VecDeque<(u16, Nanos)>,
    /// Latest delivered arrival: retransmitted packets may not overtake
    /// earlier deliveries on the same channel (in-order transport).
    floor: Nanos,
}

/// Protocol counters, read back as a [`ResilReport`].
#[derive(Debug, Default)]
struct ResilCounters {
    delivered: Counter,
    retransmits: Counter,
    wire_drops: Counter,
    link_down_drops: Counter,
    exhausted: Counter,
    spurious_rexmit: Counter,
    backpressure_waits: Counter,
    backpressure_ns: Counter,
}

/// Snapshot of one mailbox's reliability-protocol counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilReport {
    /// Packets delivered through the protocol.
    pub delivered: u64,
    /// Retransmissions performed (timeout-driven).
    pub retransmits: u64,
    /// Attempts lost to independent wire drops.
    pub wire_drops: u64,
    /// Attempts lost to link down/flap episodes.
    pub link_down_drops: u64,
    /// Packets whose retry budget ran out (delivered poisoned).
    pub exhausted: u64,
    /// Spurious retransmit copies emitted (dropped by mailbox dedup).
    pub spurious_rexmit: u64,
    /// Sends that stalled on a full in-flight window.
    pub backpressure_waits: u64,
    /// Total virtual ns spent stalled on window backpressure.
    pub backpressure_ns: u64,
}

/// The reliability layer of one mailbox (destination side of a channel set).
///
/// Created by [`Mailbox::arm_faults`](crate::Mailbox::arm_faults) when the
/// plan has a lossy class; [`transmit`](fn@crate::transmit) consults it on
/// every send into that mailbox.
#[derive(Debug)]
pub struct Resil {
    cfg: Mutex<ResilConfig>,
    plan: FaultPlan,
    chans: Mutex<HashMap<(u32, u32), Chan>>,
    counters: ResilCounters,
}

impl Resil {
    /// A reliability layer evaluating loss against `plan`.
    pub fn new(plan: FaultPlan, cfg: ResilConfig) -> Arc<Self> {
        Arc::new(Resil {
            cfg: Mutex::new(cfg),
            plan,
            chans: Mutex::new(HashMap::new()),
            counters: ResilCounters::default(),
        })
    }

    /// Replace the protocol configuration (Info hints, universe knobs).
    /// Applies to subsequent sends; in-flight bookkeeping is untouched.
    pub fn set_config(&self, cfg: ResilConfig) {
        *self.cfg.lock() = cfg;
    }

    /// Current protocol configuration.
    pub fn config(&self) -> ResilConfig {
        *self.cfg.lock()
    }

    /// Snapshot the protocol counters.
    pub fn report(&self) -> ResilReport {
        let c = &self.counters;
        ResilReport {
            delivered: c.delivered.get(),
            retransmits: c.retransmits.get(),
            wire_drops: c.wire_drops.get(),
            link_down_drops: c.link_down_drops.get(),
            exhausted: c.exhausted.get(),
            spurious_rexmit: c.spurious_rexmit.get(),
            backpressure_waits: c.backpressure_waits.get(),
            backpressure_ns: c.backpressure_ns.get(),
        }
    }

    /// Sliding-window admission: free every slot whose ack has arrived by
    /// `clock`, then stall the sending thread (virtual time) until a slot
    /// opens. Called with the source context gate held, before the send
    /// occupies the TX pipeline — backpressure delays injection.
    pub fn acquire_slot(&self, clock: &mut Clock, chan: (u32, u32)) {
        let window = self.cfg.lock().window.max(1);
        let mut chans = self.chans.lock();
        let st = chans.entry(chan).or_default();
        while let Some(&(_, ack_at)) = st.inflight.front() {
            if ack_at <= clock.now() {
                st.inflight.pop_front();
            } else {
                break;
            }
        }
        while st.inflight.len() >= window {
            let (_, ack_at) = st.inflight.pop_front().expect("window > 0");
            if ack_at > clock.now() {
                let stalled = ack_at.saturating_sub(clock.now());
                self.counters.backpressure_waits.incr();
                self.counters.backpressure_ns.add(stalled.as_ns());
                obs::wait(
                    "resil",
                    "window_stall",
                    clock.now(),
                    ack_at,
                    obs::ResId::NONE,
                );
                clock.wait_until(ack_at);
            }
        }
    }

    /// Resolve the fate of one send whose first attempt was injected at
    /// `sent_at` and would arrive at `first_arrive`.
    ///
    /// Replays the retransmit protocol analytically: every lost attempt
    /// schedules a retransmit one (backed-off, jittered) timeout after the
    /// previous injection, re-occupying `src_ctx` for `occupancy` so the
    /// retry is LogGP-accounted; `post_inject` (wire latency + rx gap) maps
    /// injections to arrivals and `ack_lat` maps arrivals to ack receipt.
    #[allow(clippy::too_many_arguments)]
    pub fn admit(
        &self,
        src_ctx: &HwContext,
        src: u32,
        seq: u64,
        chan: (u32, u32),
        occupancy: Nanos,
        bytes: usize,
        sent_at: Nanos,
        first_arrive: Nanos,
        post_inject: Nanos,
        ack_lat: Nanos,
    ) -> Delivery {
        let cfg = *self.cfg.lock();
        let mut attempt: u32 = 0;
        let mut send_at = sent_at;
        let mut arrive = first_arrive;
        let mut cause = None;
        loop {
            match self.plan.lost(src, seq, attempt) {
                None => break,
                Some(c) => {
                    match c {
                        LossCause::Drop => self.counters.wire_drops.incr(),
                        LossCause::LinkDown => self.counters.link_down_drops.incr(),
                    }
                    if attempt >= cfg.max_retries {
                        cause = Some(c);
                        break;
                    }
                    attempt += 1;
                    let timer = send_at + rto(&cfg, &self.plan, src, seq, attempt);
                    let injected = src_ctx.occupy_tx(timer, occupancy, bytes);
                    self.counters.retransmits.incr();
                    obs::busy("resil", "retransmit", timer, injected, src_ctx.res_id());
                    send_at = injected;
                    arrive = injected + post_inject;
                }
            }
        }

        let mut chans = self.chans.lock();
        let st = chans.entry(chan).or_default();
        let rseq = st.next_seq;
        st.next_seq = st.next_seq.wrapping_add(1);

        match cause {
            None => {
                // In-order transport: a retransmitted packet cannot overtake
                // an earlier delivery on its channel.
                let arrive = arrive.max(st.floor);
                st.floor = arrive;
                let ack_at = arrive + ack_lat;
                // Spurious retransmit: the ack lost the race against the
                // next timeout, so the sender fired one more copy.
                let spurious_arrive_at = (attempt < cfg.max_retries)
                    .then(|| send_at + rto(&cfg, &self.plan, src, seq, attempt + 1))
                    .filter(|&timer| ack_at > timer)
                    .map(|timer| {
                        let injected = src_ctx.occupy_tx(timer, occupancy, bytes);
                        self.counters.spurious_rexmit.incr();
                        obs::busy(
                            "resil",
                            "spurious_rexmit",
                            timer,
                            injected,
                            src_ctx.res_id(),
                        );
                        injected + post_inject
                    });
                st.inflight.push_back((rseq, ack_at));
                self.counters.delivered.incr();
                Delivery {
                    arrive_at: arrive,
                    attempts: attempt + 1,
                    outcome: Outcome::Delivered,
                    spurious_arrive_at,
                }
            }
            Some(c) => {
                // The sender gives up when the timeout after the final
                // attempt fires; the slot frees and the error surfaces then.
                let give_up = send_at + rto(&cfg, &self.plan, src, seq, attempt + 1);
                st.inflight.push_back((rseq, give_up));
                self.counters.exhausted.incr();
                obs::busy("resil", "exhausted", send_at, give_up, src_ctx.res_id());
                Delivery {
                    arrive_at: give_up,
                    attempts: attempt + 1,
                    outcome: Outcome::Lost(c),
                    spurious_arrive_at: None,
                }
            }
        }
    }
}

/// `u64` shift that saturates instead of overflowing (backoff helper).
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        if self == 0 {
            return 0;
        }
        if shift >= self.leading_zeros() {
            u64::MAX
        } else {
            self << shift
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkProfile;

    fn cfg() -> ResilConfig {
        ResilConfig::default()
    }

    #[test]
    fn backoff_is_monotone_then_capped() {
        let c = cfg();
        let mut prev = Nanos::ZERO;
        for attempt in 1..64 {
            let b = backoff(&c, attempt);
            assert!(b >= prev, "backoff must be nondecreasing");
            assert!(b <= c.rto_cap, "backoff must honor the cap");
            prev = b;
        }
        assert_eq!(backoff(&c, 1), c.rto_base);
        assert_eq!(backoff(&c, 63), c.rto_cap);
    }

    #[test]
    fn rto_jitter_is_bounded_and_deterministic() {
        let c = cfg();
        let plan = FaultPlan::new(5).drops(0.2);
        for attempt in 1..20 {
            let t = rto(&c, &plan, 2, 77, attempt);
            assert_eq!(t, rto(&c, &plan, 2, 77, attempt));
            let base = backoff(&c, attempt);
            assert!(t >= base);
            assert!(t < base + Nanos(c.rto_base.as_ns() / 4 + 1));
        }
    }

    #[test]
    fn seq_compare_wraps() {
        assert!(seq_after(1, 0));
        assert!(!seq_after(0, 1));
        assert!(!seq_after(5, 5));
        // Across the wrap point.
        assert!(seq_after(2, 0xFFFE));
        assert!(!seq_after(0xFFFE, 2));
        assert_eq!(seq_distance(2, 0xFFFE), 4);
        assert_eq!(seq_distance(0xFFFE, 2), 0xFFFC);
    }

    fn src_ctx() -> HwContext {
        HwContext::new(0, 0, &NetworkProfile::omni_path())
    }

    #[test]
    fn lossless_plan_admits_first_attempt_unchanged() {
        let r = Resil::new(FaultPlan::new(1), ResilConfig::default());
        let ctx = src_ctx();
        let d = r.admit(
            &ctx,
            0,
            0,
            (1, 0),
            Nanos(100),
            8,
            Nanos(50),
            Nanos(1_000),
            Nanos(950),
            Nanos(900),
        );
        assert_eq!(d.attempts, 1);
        assert_eq!(d.outcome, Outcome::Delivered);
        assert_eq!(d.arrive_at, Nanos(1_000));
        assert!(d.spurious_arrive_at.is_none());
        assert_eq!(r.report().retransmits, 0);
    }

    #[test]
    fn certain_loss_with_capped_retries_reports_lost() {
        // drop_prob 1.0: every attempt dies; 2 retries then exhaustion.
        let plan = FaultPlan::new(3).drops(1.0);
        let r = Resil::new(
            plan,
            ResilConfig {
                max_retries: 2,
                ..ResilConfig::default()
            },
        );
        let ctx = src_ctx();
        let d = r.admit(
            &ctx,
            0,
            0,
            (1, 0),
            Nanos(100),
            8,
            Nanos(0),
            Nanos(1_000),
            Nanos(950),
            Nanos(900),
        );
        assert_eq!(d.attempts, 3, "original + 2 retries");
        assert!(matches!(d.outcome, Outcome::Lost(LossCause::Drop)));
        let rep = r.report();
        assert_eq!(rep.retransmits, 2);
        assert_eq!(rep.exhausted, 1);
        assert_eq!(rep.wire_drops, 3);
        // The error surfaces strictly after the last injection.
        assert!(d.arrive_at > Nanos(1_000));
    }

    #[test]
    fn retransmits_are_cost_accounted_on_the_source_context() {
        let plan = FaultPlan::new(3).drops(1.0);
        let r = Resil::new(
            plan,
            ResilConfig {
                max_retries: 4,
                ..ResilConfig::default()
            },
        );
        let ctx = src_ctx();
        let before = ctx.msgs_tx();
        r.admit(
            &ctx,
            0,
            9,
            (1, 0),
            Nanos(100),
            8,
            Nanos(0),
            Nanos(1_000),
            Nanos(950),
            Nanos(900),
        );
        // 4 retransmissions re-occupied the TX pipeline.
        assert_eq!(ctx.msgs_tx() - before, 4);
        assert!(ctx.busy_total() >= Nanos(400));
    }

    #[test]
    fn channel_floor_keeps_retransmitted_arrivals_monotone() {
        // Packet seq 0 is retransmitted (arriving late); seq 1 is clean and
        // would arrive earlier — the floor must push it behind seq 0.
        let plan = FaultPlan::new(1);
        let r = Resil::new(plan, ResilConfig::default());
        let ctx = src_ctx();
        let d0 = r.admit(
            &ctx,
            0,
            0,
            (1, 0),
            Nanos(10),
            8,
            Nanos(0),
            Nanos(500_000),
            Nanos(950),
            Nanos(900),
        );
        let d1 = r.admit(
            &ctx,
            0,
            1,
            (1, 0),
            Nanos(10),
            8,
            Nanos(100),
            Nanos(1_100),
            Nanos(950),
            Nanos(900),
        );
        assert!(d1.arrive_at >= d0.arrive_at);
    }

    #[test]
    fn full_window_backpressures_the_sender() {
        let r = Resil::new(
            FaultPlan::new(1),
            ResilConfig {
                window: 2,
                ..ResilConfig::default()
            },
        );
        let ctx = src_ctx();
        let chan = (1, 0);
        // Two in-flight packets whose acks arrive at 10_000 and 20_000.
        for (i, ack_base) in [(0u64, 10_000u64), (1, 20_000)] {
            r.admit(
                &ctx,
                0,
                i,
                chan,
                Nanos(10),
                8,
                Nanos(0),
                Nanos(ack_base - 100),
                Nanos(50),
                Nanos(100),
            );
        }
        let mut clock = Clock::new();
        r.acquire_slot(&mut clock, chan);
        // Window full: the sender stalls until the first ack (10_000).
        assert_eq!(clock.now(), Nanos(10_000));
        let rep = r.report();
        assert_eq!(rep.backpressure_waits, 1);
        assert_eq!(rep.backpressure_ns, 10_000);
        // A later send sees a free slot and does not stall further.
        r.acquire_slot(&mut clock, chan);
        assert_eq!(clock.now(), Nanos(10_000));
    }
}
