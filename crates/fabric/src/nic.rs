//! A per-node NIC with a bounded pool of hardware contexts.

use std::sync::Arc;

use parking_lot::Mutex;
use rankmpi_vtime::{Counter, Gvt};

use crate::{HwContext, NetworkProfile};

/// The network interface of one node.
///
/// Logical channels (MPI VCIs, one per communicator/endpoint/window stream)
/// call [`alloc_context`](Nic::alloc_context). While the pool has capacity each
/// channel gets a *dedicated* context — fully independent in both lock and
/// pipeline. Once `max_hw_contexts` is exhausted, further channels share
/// existing contexts round-robin, exactly the oversubscription regime the paper
/// describes for communicator-heavy applications on Omni-Path (Lesson 3).
#[derive(Debug)]
pub struct Nic {
    node: usize,
    profile: NetworkProfile,
    state: Mutex<NicState>,
    /// Channels that got a dedicated context.
    alloc_dedicated: Arc<Counter>,
    /// Channels that fell back to sharing (pool exhausted — the Lesson 3
    /// oversubscription event).
    alloc_shared: Arc<Counter>,
    /// What bounds its contexts' histories; `None` never prunes.
    gvt: Option<Arc<Gvt>>,
}

#[derive(Debug)]
struct NicState {
    contexts: Vec<Arc<HwContext>>,
    /// Round-robin cursor for oversubscribed allocation.
    share_cursor: usize,
    /// Total allocations requested (>= contexts.len() when oversubscribed).
    allocations: usize,
}

impl Nic {
    /// NIC for `node` with the context pool of `profile`.
    pub fn new(node: usize, profile: NetworkProfile) -> Self {
        Nic {
            node,
            profile,
            state: Mutex::new(NicState {
                contexts: Vec::new(),
                share_cursor: 0,
                allocations: 0,
            }),
            alloc_dedicated: Arc::new(Counter::new()),
            alloc_shared: Arc::new(Counter::new()),
            gvt: None,
        }
    }

    /// This NIC with every context it allocates
    /// [`pruned_by`](HwContext::pruned_by) `gvt`.
    pub fn pruned_by(mut self, gvt: &Arc<Gvt>) -> Self {
        self.gvt = Some(Arc::clone(gvt));
        self
    }

    /// A new context at pool position `id`.
    fn new_context(&self, id: usize) -> Arc<HwContext> {
        let ctx = HwContext::new(self.node, id, &self.profile);
        Arc::new(match &self.gvt {
            Some(gvt) => ctx.pruned_by(gvt),
            None => ctx,
        })
    }

    /// Node id this NIC belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The NIC's network profile.
    pub fn profile(&self) -> &NetworkProfile {
        &self.profile
    }

    /// Allocate a context for one logical channel.
    ///
    /// Dedicated while the pool lasts; shared round-robin afterwards. The
    /// returned context has the channel registered as an owner.
    pub fn alloc_context(&self) -> Arc<HwContext> {
        let mut st = self.state.lock();
        st.allocations += 1;
        let ctx = if st.contexts.len() < self.profile.max_hw_contexts {
            let ctx = self.new_context(st.contexts.len());
            st.contexts.push(Arc::clone(&ctx));
            self.alloc_dedicated.incr();
            ctx
        } else {
            let i = st.share_cursor % st.contexts.len();
            st.share_cursor += 1;
            self.alloc_shared.incr();
            Arc::clone(&st.contexts[i])
        };
        ctx.add_owner();
        ctx
    }

    /// Release one logical channel's claim on `ctx` (rank-crash recovery:
    /// `shrink` retires the dead rank's channels). The channel is removed as
    /// an owner; a context left with no owners leaves the pool entirely, so
    /// [`contexts_in_use`](Nic::contexts_in_use) returns to its pre-crash
    /// baseline and later allocations get dedicated contexts again. Shared
    /// contexts with surviving owners stay.
    pub fn release_context(&self, ctx: &HwContext) {
        let mut st = self.state.lock();
        ctx.remove_owner();
        if st.allocations > 0 {
            st.allocations -= 1;
        }
        if ctx.owners() == 0 {
            // Match by identity, not id: ids are pool positions at alloc
            // time and can repeat once the pool has shrunk.
            st.contexts
                .retain(|c| !std::ptr::eq(Arc::as_ptr(c), ctx as *const HwContext));
        }
    }

    /// Allocate a replacement for a channel whose context failed mid-run.
    ///
    /// Prefers a fresh dedicated context while the pool has capacity;
    /// otherwise round-robins onto the next *healthy* context — a genuine
    /// Lesson 3 oversubscription event, counted in
    /// [`shared_allocs`](Nic::shared_allocs). If every context is down the
    /// failed rotation is reused anyway (the simulation must keep moving;
    /// retries and error handlers decide what the application sees). The
    /// failed context loses an owner, the replacement gains one.
    pub fn replace_context(&self, failed: &HwContext) -> Arc<HwContext> {
        let mut st = self.state.lock();
        st.allocations += 1;
        let ctx = if st.contexts.len() < self.profile.max_hw_contexts {
            let ctx = self.new_context(st.contexts.len());
            st.contexts.push(Arc::clone(&ctx));
            self.alloc_dedicated.incr();
            ctx
        } else {
            let n = st.contexts.len();
            let mut pick = st.share_cursor % n;
            for probe in 0..n {
                let i = (st.share_cursor + probe) % n;
                if !st.contexts[i].is_failed() {
                    pick = i;
                    st.share_cursor = i + 1;
                    break;
                }
            }
            self.alloc_shared.incr();
            Arc::clone(&st.contexts[pick])
        };
        failed.remove_owner();
        ctx.add_owner();
        ctx
    }

    /// Channels that received a dedicated context.
    pub fn dedicated_allocs(&self) -> u64 {
        self.alloc_dedicated.get()
    }

    /// Channels that fell back to sharing an existing context (pool
    /// exhaustion events).
    pub fn shared_allocs(&self) -> u64 {
        self.alloc_shared.get()
    }

    /// Number of distinct hardware contexts currently in use.
    pub fn contexts_in_use(&self) -> usize {
        self.state.lock().contexts.len()
    }

    /// Number of logical channels allocated (owners across all contexts).
    pub fn channels_allocated(&self) -> usize {
        self.state.lock().allocations
    }

    /// Ratio of logical channels to physical contexts (1.0 = fully dedicated).
    pub fn oversubscription(&self) -> f64 {
        let st = self.state.lock();
        if st.contexts.is_empty() {
            return 0.0;
        }
        st.allocations as f64 / st.contexts.len() as f64
    }

    /// Snapshot of all in-use contexts (for utilization reports).
    pub fn contexts(&self) -> Vec<Arc<HwContext>> {
        self.state.lock().contexts.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedicated_until_pool_exhausted() {
        let nic = Nic::new(0, NetworkProfile::constrained(3));
        let a = nic.alloc_context();
        let b = nic.alloc_context();
        let c = nic.alloc_context();
        assert_eq!(nic.contexts_in_use(), 3);
        assert!(!a.is_shared() && !b.is_shared() && !c.is_shared());

        // Fourth allocation shares context 0; fifth shares context 1.
        let d = nic.alloc_context();
        let e = nic.alloc_context();
        assert_eq!(nic.contexts_in_use(), 3);
        assert_eq!(d.id(), 0);
        assert_eq!(e.id(), 1);
        assert!(d.is_shared());
        assert_eq!(nic.channels_allocated(), 5);
        assert!((nic.oversubscription() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ideal_profile_never_shares() {
        let nic = Nic::new(0, NetworkProfile::ideal());
        let ctxs: Vec<_> = (0..1000).map(|_| nic.alloc_context()).collect();
        assert!(ctxs.iter().all(|c| !c.is_shared()));
        assert_eq!(nic.contexts_in_use(), 1000);
    }

    #[test]
    fn oversubscription_zero_when_unused() {
        let nic = Nic::new(0, NetworkProfile::omni_path());
        assert_eq!(nic.oversubscription(), 0.0);
    }

    #[test]
    fn replace_context_skips_failed_contexts_when_pool_exhausted() {
        let nic = Nic::new(0, NetworkProfile::constrained(2));
        let a = nic.alloc_context();
        let b = nic.alloc_context();
        let shared_before = nic.shared_allocs();
        a.mark_failed();
        let r = nic.replace_context(&a);
        // Pool exhausted: replacement is the other (healthy) context, a
        // shared-allocation (Lesson 3) event.
        assert_eq!(r.id(), b.id());
        assert!(!r.is_failed());
        assert_eq!(nic.shared_allocs(), shared_before + 1);
        assert_eq!(a.owners(), 0, "failed context lost its owner");
        assert!(b.is_shared(), "replacement now carries both channels");
    }

    #[test]
    fn replace_context_prefers_spare_dedicated_capacity() {
        let nic = Nic::new(0, NetworkProfile::constrained(3));
        let a = nic.alloc_context();
        a.mark_failed();
        let r = nic.replace_context(&a);
        assert_ne!(r.id(), a.id());
        assert!(!r.is_shared(), "spare pool capacity gives a dedicated ctx");
        assert_eq!(nic.contexts_in_use(), 2);
    }
}
