//! Named network parameter sets.

use rankmpi_vtime::{LockCosts, Nanos};

/// LogGP-style cost parameters plus hardware-context limits for one fabric.
///
/// The defaults are calibrated to the regime of the paper's experiments: an
/// Omni-Path-class 100 Gb/s fabric where a single hardware context sustains on
/// the order of 5–10 M small messages/s and a single core can drive roughly one
/// context at full rate, so message-rate scaling requires *parallel* contexts.
#[derive(Debug, Clone)]
pub struct NetworkProfile {
    /// Human-readable profile name (appears in benchmark output).
    pub name: &'static str,
    /// Hardware contexts available per NIC. Omni-Path exposes 160.
    pub max_hw_contexts: usize,
    /// CPU-side cost to build a send descriptor (LogGP `o_send`).
    pub send_overhead: Nanos,
    /// CPU-side cost to process a received packet (LogGP `o_recv`).
    pub recv_overhead: Nanos,
    /// MMIO doorbell write cost, paid under the context lock.
    pub doorbell: Nanos,
    /// Marginal doorbell cost of each *additional* descriptor in a batched
    /// injection: a batch of `n` sends rings once for
    /// `doorbell + (n-1) * doorbell_batch_step` (the hardware reads the extra
    /// descriptors from the queue; only the tail-pointer MMIO is per-batch).
    pub doorbell_batch_step: Nanos,
    /// Per-message occupancy of a TX hardware context (LogGP `g`).
    /// `1/context_gap` is the per-context message rate ceiling.
    pub context_gap: Nanos,
    /// Per-message occupancy of an RX hardware context.
    pub rx_gap: Nanos,
    /// End-to-end wire latency (LogGP `L`).
    pub latency: Nanos,
    /// Per-byte DMA/wire time in picoseconds (LogGP `G`); 80 ps/B ≈ 100 Gb/s.
    pub byte_time_ps: u64,
    /// Cost model for the lock that serializes software access to a context
    /// shared by multiple logical channels.
    pub context_lock: LockCosts,
    /// Extra per-message occupancy when the context is *shared* by several
    /// logical channels: software context multiplexing (PSM2-style shared
    /// contexts on Omni-Path pay a substantial per-op software cost on top of
    /// the lock — the "software overheads of thread synchronization to access
    /// shared network queues" of Lesson 3).
    pub shared_context_penalty: Nanos,
}

impl NetworkProfile {
    /// An Omni-Path-like fabric: 160 hardware contexts per NIC, ~1 µs latency,
    /// 100 Gb/s. This is the profile used for all headline experiments because
    /// the paper's cluster results are on Omni-Path.
    pub fn omni_path() -> Self {
        NetworkProfile {
            name: "omnipath-160",
            max_hw_contexts: 160,
            send_overhead: Nanos(60),
            recv_overhead: Nanos(60),
            doorbell: Nanos(40),
            doorbell_batch_step: Nanos(5),
            context_gap: Nanos(120),
            rx_gap: Nanos(50),
            latency: Nanos(1_000),
            byte_time_ps: 80,
            context_lock: LockCosts {
                acquire_base: Nanos(30),
                handoff: Nanos(50),
            },
            shared_context_penalty: Nanos(2_000),
        }
    }

    /// An InfiniBand-like fabric with a larger context pool (QP-rich HCAs) and
    /// slightly lower latency; used to show portability of the conclusions.
    pub fn infiniband() -> Self {
        NetworkProfile {
            name: "infiniband-1024",
            max_hw_contexts: 1024,
            send_overhead: Nanos(50),
            recv_overhead: Nanos(50),
            doorbell: Nanos(30),
            doorbell_batch_step: Nanos(4),
            context_gap: Nanos(100),
            rx_gap: Nanos(40),
            latency: Nanos(800),
            byte_time_ps: 80,
            context_lock: LockCosts {
                acquire_base: Nanos(30),
                handoff: Nanos(45),
            },
            shared_context_penalty: Nanos(300),
        }
    }

    /// A Slingshot-like fabric: lower latency, 200 Gb/s, a large context pool,
    /// and cheap context sharing (hardware-multiplexed queues).
    pub fn slingshot() -> Self {
        NetworkProfile {
            name: "slingshot-2048",
            max_hw_contexts: 2048,
            send_overhead: Nanos(45),
            recv_overhead: Nanos(45),
            doorbell: Nanos(25),
            doorbell_batch_step: Nanos(3),
            context_gap: Nanos(80),
            rx_gap: Nanos(30),
            latency: Nanos(700),
            byte_time_ps: 40,
            context_lock: LockCosts {
                acquire_base: Nanos(25),
                handoff: Nanos(40),
            },
            shared_context_penalty: Nanos(100),
        }
    }

    /// An idealized fabric with an effectively unbounded context pool and free
    /// software costs. Useful in tests to isolate semantic effects from
    /// resource effects.
    pub fn ideal() -> Self {
        NetworkProfile {
            name: "ideal",
            max_hw_contexts: usize::MAX,
            send_overhead: Nanos(1),
            recv_overhead: Nanos(1),
            doorbell: Nanos(1),
            doorbell_batch_step: Nanos(0),
            context_gap: Nanos(1),
            rx_gap: Nanos(1),
            latency: Nanos(10),
            byte_time_ps: 0,
            context_lock: LockCosts {
                acquire_base: Nanos(0),
                handoff: Nanos(0),
            },
            shared_context_penalty: Nanos(0),
        }
    }

    /// An Omni-Path-like fabric with an explicitly constrained context pool.
    /// Used by the Lesson 3 experiment to sweep oversubscription.
    pub fn constrained(max_hw_contexts: usize) -> Self {
        NetworkProfile {
            name: "constrained",
            max_hw_contexts,
            ..Self::omni_path()
        }
    }

    /// TX context occupancy for a message of `bytes` payload: `g + bytes * G`.
    pub fn tx_occupancy(&self, bytes: usize) -> Nanos {
        self.context_gap + Nanos(bytes as u64 * self.byte_time_ps / 1_000)
    }

    /// TX occupancy through a possibly-shared context: adds the software
    /// multiplexing penalty when more than one logical channel owns it.
    pub fn tx_occupancy_on(&self, bytes: usize, shared: bool) -> Nanos {
        let base = self.tx_occupancy(bytes);
        if shared {
            base + self.shared_context_penalty
        } else {
            base
        }
    }

    /// One-way wire latency (size-independent part).
    pub fn wire_latency(&self) -> Nanos {
        self.latency
    }

    /// Doorbell cost of injecting `n` descriptors as one batch: one MMIO ring
    /// plus a marginal per-descriptor step. `doorbell_batched(1) == doorbell`,
    /// so a batch of one is indistinguishable from a plain send.
    pub fn doorbell_batched(&self, n: usize) -> Nanos {
        if n == 0 {
            return Nanos(0);
        }
        self.doorbell + Nanos(self.doorbell_batch_step.as_ns() * (n as u64 - 1))
    }

    /// Peak per-context message rate in messages/second for small messages.
    pub fn per_context_msg_rate(&self) -> f64 {
        1e9 / self.context_gap.as_ns() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn omni_path_has_160_contexts() {
        let p = NetworkProfile::omni_path();
        assert_eq!(p.max_hw_contexts, 160);
        assert_eq!(p.name, "omnipath-160");
    }

    #[test]
    fn tx_occupancy_includes_byte_time() {
        let p = NetworkProfile::omni_path();
        // 100_000 bytes at 80 ps/B = 8000 ns on top of the 120 ns gap.
        assert_eq!(p.tx_occupancy(100_000), Nanos(8_120));
        assert_eq!(p.tx_occupancy(0), p.context_gap);
    }

    #[test]
    fn ideal_profile_is_nearly_free() {
        let p = NetworkProfile::ideal();
        assert_eq!(p.tx_occupancy(1 << 20), Nanos(1));
        assert!(p.per_context_msg_rate() >= 1e9);
    }

    #[test]
    fn per_context_rate_matches_gap() {
        let p = NetworkProfile::omni_path();
        let rate = p.per_context_msg_rate();
        assert!((rate - 1e9 / 120.0).abs() < 1.0);
    }

    #[test]
    fn slingshot_is_faster_and_shares_cheaply() {
        let ss = NetworkProfile::slingshot();
        let opa = NetworkProfile::omni_path();
        assert!(ss.latency < opa.latency);
        assert!(ss.per_context_msg_rate() > opa.per_context_msg_rate());
        assert!(ss.shared_context_penalty < opa.shared_context_penalty);
        assert!(ss.max_hw_contexts > opa.max_hw_contexts);
    }

    #[test]
    fn shared_occupancy_adds_the_penalty() {
        let p = NetworkProfile::omni_path();
        assert_eq!(
            p.tx_occupancy_on(8, true),
            p.tx_occupancy(8) + p.shared_context_penalty
        );
        assert_eq!(p.tx_occupancy_on(8, false), p.tx_occupancy(8));
    }

    #[test]
    fn batched_doorbell_amortizes() {
        let p = NetworkProfile::omni_path();
        assert_eq!(p.doorbell_batched(0), Nanos(0));
        assert_eq!(p.doorbell_batched(1), p.doorbell, "batch of one is free");
        assert_eq!(
            p.doorbell_batched(16),
            p.doorbell + Nanos(15 * p.doorbell_batch_step.as_ns())
        );
        // The whole point: 16 batched rings cost far less than 16 single ones.
        assert!(p.doorbell_batched(16) < Nanos(16 * p.doorbell.as_ns()));
    }

    #[test]
    fn constrained_overrides_only_pool_size() {
        let p = NetworkProfile::constrained(8);
        assert_eq!(p.max_hw_contexts, 8);
        assert_eq!(p.latency, NetworkProfile::omni_path().latency);
    }
}
