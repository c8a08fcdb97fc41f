//! One NIC hardware context: a work-queue/doorbell pair.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use rankmpi_vtime::{Clock, ContentionLock, Counter, Gvt, Nanos, Resource};

use crate::NetworkProfile;

/// A hardware send/recv context on a NIC.
///
/// Software pushes descriptors into the context under a lock ([`gate`]): on real
/// NICs this is the library-level lock that serializes access to a shared work
/// queue. When a context is *dedicated* to one logical channel the lock is
/// uncontended and nearly free; when the channel pool is oversubscribed
/// (Lesson 3) multiple channels share the context, their sections overlap in
/// virtual time, and each overlap shifts the later one behind the earlier.
/// Independently of the lock, the context itself processes messages at
/// a bounded rate: its [`Resource`] is occupied for `gap + bytes*G` per message.
///
/// [`gate`]: HwContext::lock_gate
#[derive(Debug)]
pub struct HwContext {
    node: usize,
    id: usize,
    gate: ContentionLock<()>,
    time: Resource,
    /// Number of logical channels mapped onto this context.
    owners: AtomicUsize,
    /// Whether the context has been marked failed (fault injection / runtime
    /// health): channels remap off it on their next send.
    failed: AtomicBool,
    msgs_tx: Counter,
    bytes_tx: Counter,
}

impl HwContext {
    /// Create context `id` on `node` with the lock costs of `profile`.
    pub fn new(node: usize, id: usize, profile: &NetworkProfile) -> Self {
        HwContext {
            node,
            id,
            gate: ContentionLock::with_costs((), profile.context_lock),
            time: Resource::new(),
            owners: AtomicUsize::new(0),
            failed: AtomicBool::new(false),
            msgs_tx: Counter::new(),
            bytes_tx: Counter::new(),
        }
    }

    /// This context with its gate's and pipeline's histories bounded by
    /// `gvt` (see [`Resource::pruned_by`]).
    pub fn pruned_by(self, gvt: &Arc<Gvt>) -> Self {
        HwContext {
            gate: self.gate.pruned_by(gvt),
            time: self.time.pruned_by(gvt),
            ..self
        }
    }

    /// Node this context's NIC belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Context id within its NIC.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Trace resource id for this context (`hwctx:node.id`).
    pub fn res_id(&self) -> rankmpi_obs::trace::ResId {
        rankmpi_obs::trace::ResId::new("hwctx", self.node as u64, self.id as u64)
    }

    /// Register a logical channel on this context. Returns the new owner count.
    pub fn add_owner(&self) -> usize {
        self.owners.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Number of logical channels mapped onto this context.
    pub fn owners(&self) -> usize {
        self.owners.load(Ordering::Acquire)
    }

    /// Whether more than one logical channel shares this context.
    pub fn is_shared(&self) -> bool {
        self.owners() > 1
    }

    /// Mark this context failed: it stops being eligible for allocation and
    /// channels mapped onto it fail over to a replacement on their next send
    /// (see `Nic::replace_context` and the core VCI's live remap).
    pub fn mark_failed(&self) {
        self.failed.store(true, Ordering::Release);
    }

    /// Whether this context has been marked failed.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Acquire)
    }

    /// Deregister one logical channel (failover moved it elsewhere).
    pub fn remove_owner(&self) -> usize {
        let prev = self.owners.fetch_sub(1, Ordering::AcqRel);
        debug_assert!(prev > 0, "owner count underflow");
        prev - 1
    }

    /// Enter the software gate (descriptor write + doorbell serialization).
    ///
    /// Must be held while stamping and pushing a packet so that per-context
    /// packet order in real time equals virtual-time order.
    pub fn lock_gate<'a>(
        &'a self,
        clock: &mut Clock,
    ) -> rankmpi_vtime::lock::ContentionGuard<'a, ()> {
        self.gate.lock(clock)
    }

    /// Occupy the context's TX pipeline for one message arriving at `now`.
    /// Returns the virtual time the message leaves the context.
    pub fn occupy_tx(&self, now: Nanos, occupancy: Nanos, bytes: usize) -> Nanos {
        self.msgs_tx.incr();
        self.bytes_tx.add(bytes as u64);
        self.time.acquire(now, occupancy).end
    }

    /// Virtual time at which everything queued on the TX pipeline has left.
    pub fn pipeline_free_at(&self) -> Nanos {
        self.time.next_free()
    }

    /// Take over a backlog: nothing leaves this pipeline before `t`. A
    /// channel that fails over onto this context brings along the work still
    /// queued where it came from, so its later messages cannot arrive before
    /// its earlier ones.
    pub fn inherit_backlog(&self, t: Nanos) {
        self.time.advance_to(t);
    }

    /// Messages injected through this context.
    pub fn msgs_tx(&self) -> u64 {
        self.msgs_tx.get()
    }

    /// Payload bytes injected through this context.
    pub fn bytes_tx(&self) -> u64 {
        self.bytes_tx.get()
    }

    /// Total virtual time this context's pipeline was occupied.
    pub fn busy_total(&self) -> Nanos {
        self.time.busy_total()
    }

    /// Total virtual time the gate charged: acquisitions plus collision
    /// shifts (lock contention).
    pub fn gate_contention(&self) -> Nanos {
        self.gate.contended_total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> HwContext {
        HwContext::new(0, 0, &NetworkProfile::omni_path())
    }

    #[test]
    fn owners_track_sharing() {
        let c = ctx();
        assert!(!c.is_shared());
        assert_eq!(c.add_owner(), 1);
        assert!(!c.is_shared());
        assert_eq!(c.add_owner(), 2);
        assert!(c.is_shared());
    }

    #[test]
    fn tx_occupancy_serializes() {
        let c = ctx();
        let e1 = c.occupy_tx(Nanos(0), Nanos(100), 8);
        let e2 = c.occupy_tx(Nanos(0), Nanos(100), 8);
        assert_eq!(e1, Nanos(100));
        assert_eq!(e2, Nanos(200));
        assert_eq!(c.msgs_tx(), 2);
        assert_eq!(c.bytes_tx(), 16);
        assert_eq!(c.busy_total(), Nanos(200));
    }

    #[test]
    fn an_inherited_backlog_delays_the_pipeline() {
        let c = ctx();
        c.occupy_tx(Nanos(0), Nanos(100), 8);
        assert_eq!(c.pipeline_free_at(), Nanos(100));
        let heir = ctx();
        heir.inherit_backlog(c.pipeline_free_at());
        assert_eq!(heir.occupy_tx(Nanos(0), Nanos(10), 8), Nanos(110));
    }

    #[test]
    fn gate_charges_clock() {
        let c = ctx();
        let mut clk = Clock::new();
        let g = c.lock_gate(&mut clk);
        assert!(clk.now() >= NetworkProfile::omni_path().context_lock.acquire_base);
        g.release(&mut clk);
    }
}
