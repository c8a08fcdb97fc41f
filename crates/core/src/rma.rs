//! One-sided (RMA) communication: windows, put/get/accumulate, flushes, and
//! MPI's accumulate-ordering semantics.
//!
//! The simulation model: because all simulated processes share one address
//! space, RMA data movement is applied *directly* at the target (under the
//! target window's lock for atomicity), while virtual time flows through the
//! same NIC resources a real one-sided operation would occupy (origin context,
//! wire, target context, target-side apply). Completion semantics follow MPI:
//! operations are complete at the target only after a `flush`, which waits for
//! every outstanding operation this *process* issued to that target plus an
//! acknowledgment round trip.
//!
//! Lesson 16's tension lives here: all atomics of a multithreaded process on
//! one window must preserve MPI's same-origin/same-target ordering unless the
//! user relaxes it with `accumulate_ordering=none` — and even then, operations
//! reach parallel network channels only through a hash that can collide.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rankmpi_vtime::{Gvt, Nanos, Resource};

use crate::coll::ReduceOp;
use crate::comm::{Communicator, WINDOW_NS};
use crate::error::{Error, Result};
use crate::info::{keys, Info};
use crate::proc::ThreadCtx;

/// Ordering required between accumulate operations from the same origin
/// process to the same target (MPI default: ordered; `accumulate_ordering=none`
/// relaxes it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccumulateOrdering {
    /// MPI's default: same-origin same-target accumulates apply in order.
    Ordered,
    /// `accumulate_ordering=none`: accumulates may apply in any order (and
    /// thus in parallel).
    None,
}

/// The target-side state of a window on one process: the exposed memory and
/// the per-origin ordering queues for accumulates.
#[derive(Debug)]
pub struct WindowTarget {
    mem: Mutex<Vec<u8>>,
    acc_order: Mutex<HashMap<usize, Arc<Resource>>>,
}

impl WindowTarget {
    /// Expose `size` zeroed bytes.
    pub fn new(size: usize) -> Arc<Self> {
        Arc::new(WindowTarget {
            mem: Mutex::new(vec![0; size]),
            acc_order: Mutex::new(HashMap::new()),
        })
    }

    /// The per-origin accumulate-ordering resource, its history bounded by
    /// `gvt`.
    fn order_resource(&self, origin: usize, gvt: &Arc<Gvt>) -> Arc<Resource> {
        Arc::clone(
            self.acc_order
                .lock()
                .entry(origin)
                .or_insert_with(|| Arc::new(Resource::new().pruned_by(gvt))),
        )
    }

    fn apply_put(&self, offset: usize, data: &[u8]) {
        self.mem.lock()[offset..offset + data.len()].copy_from_slice(data);
    }

    fn apply_get(&self, offset: usize, len: usize) -> Vec<u8> {
        self.mem.lock()[offset..offset + len].to_vec()
    }

    fn fetch_add_f64(&self, offset: usize, val: f64) -> f64 {
        let mut mem = self.mem.lock();
        let cur = f64::from_le_bytes(mem[offset..offset + 8].try_into().unwrap());
        mem[offset..offset + 8].copy_from_slice(&(cur + val).to_le_bytes());
        cur
    }

    fn compare_and_swap_u64(&self, offset: usize, expect: u64, new: u64) -> u64 {
        let mut mem = self.mem.lock();
        let cur = u64::from_le_bytes(mem[offset..offset + 8].try_into().unwrap());
        if cur == expect {
            mem[offset..offset + 8].copy_from_slice(&new.to_le_bytes());
        }
        cur
    }

    fn apply_accumulate_f64(&self, offset: usize, vals: &[f64], op: ReduceOp) {
        let mut mem = self.mem.lock();
        for (i, v) in vals.iter().enumerate() {
            let o = offset + i * 8;
            let cur = f64::from_le_bytes(mem[o..o + 8].try_into().unwrap());
            let mut acc = [cur];
            op.apply(&mut acc, &[*v]);
            mem[o..o + 8].copy_from_slice(&acc[0].to_le_bytes());
        }
    }
}

/// An RMA window over a communicator.
pub struct Window {
    comm: Communicator,
    win_id: usize,
    size: usize,
    ordering: AccumulateOrdering,
    targets: Vec<Arc<WindowTarget>>,
    /// Virtual time of the latest outstanding operation per
    /// `(target, channel)`. Flush semantics are *process*-scoped in MPI
    /// (`MPI_Win_flush(rank)` completes every operation the calling process
    /// issued to `rank`), so threads sharing a window entangle their
    /// completions; per-channel tracking lets the endpoints design offer the
    /// per-endpoint completion scope its proposal implies.
    pending: Mutex<HashMap<(usize, usize), u64>>,
    /// Error handler (`MPI_Win_set_errhandler`): windows carry their own
    /// handler, inheriting the communicator's at creation.
    errhandler: std::sync::Arc<std::sync::atomic::AtomicU8>,
}

impl Window {
    /// Collectively create a window of `size` bytes on every process of
    /// `comm`. Info may set `accumulate_ordering=none`.
    pub fn create(
        comm: &Communicator,
        th: &mut ThreadCtx,
        size: usize,
        info: &Info,
    ) -> Result<Window> {
        let ordering = match info.get(keys::ACCUMULATE_ORDERING) {
            Some("none") => AccumulateOrdering::None,
            _ => AccumulateOrdering::Ordered,
        };
        let idx = comm.creation_index(WINDOW_NS)?;
        let win_id = comm.universe().agree_window((comm.context_id(), idx));
        let mine = WindowTarget::new(size);
        comm.universe().publish_window_target(
            win_id,
            comm.global_rank(comm.rank()),
            Arc::clone(&mine),
        );
        // Creation is collective & synchronizing: after the barrier, every
        // process's target is published.
        comm.barrier(th)?;
        let targets = (0..comm.size())
            .map(|r| comm.universe().window_target(win_id, comm.global_rank(r)))
            .collect();
        Ok(Window {
            comm: comm.clone(),
            win_id,
            size,
            ordering,
            targets,
            pending: Mutex::new(HashMap::new()),
            errhandler: std::sync::Arc::new(std::sync::atomic::AtomicU8::new(
                comm.errhandler().as_u8(),
            )),
        })
    }

    /// Attach an error handler to the window (`MPI_Win_set_errhandler`).
    /// Independent of the communicator's handler after creation.
    pub fn set_errhandler(&self, h: crate::error::Errhandler) {
        self.errhandler
            .store(h.as_u8(), std::sync::atomic::Ordering::Relaxed);
    }

    /// The window's error handler.
    pub fn errhandler(&self) -> crate::error::Errhandler {
        crate::error::Errhandler::from_u8(
            self.errhandler.load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    /// The window id (shared by all processes of the window).
    pub fn win_id(&self) -> usize {
        self.win_id
    }

    /// Exposed bytes per process.
    pub fn size(&self) -> usize {
        self.size
    }

    /// The accumulate-ordering mode.
    pub fn ordering(&self) -> AccumulateOrdering {
        self.ordering
    }

    /// The communicator the window spans.
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    fn check_bounds(&self, offset: usize, len: usize) -> Result<()> {
        if offset + len > self.size {
            return Err(Error::WindowOutOfBounds {
                offset,
                len,
                size: self.size,
            });
        }
        Ok(())
    }

    /// The VCI this window's default mapping assigns to an operation on
    /// `(target, offset)`: a hash over the window's VCI block. Any such hash
    /// is prone to collisions — two independent operations can land on the
    /// same channel — which is exactly Lesson 16's complaint; the method is
    /// exposed so experiments can count those collisions.
    pub fn vci_for(&self, target: usize, offset: usize) -> usize {
        let block = self.comm.vci_block();
        if block.len() == 1 {
            return block[0];
        }
        // Fibonacci hash, keeping the *top* product bits: only they are
        // influenced by every input bit (low product bits are blind to
        // high-only input differences like page-aligned offsets).
        let x = (self.win_id as u64) ^ ((target as u64) << 16) ^ (offset as u64);
        block[(x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as usize % block.len()]
    }

    /// Charge the one-sided injection path and return the virtual time the
    /// operation is applied at the target.
    fn issue(
        &self,
        th: &mut ThreadCtx,
        vci_idx: usize,
        target: usize,
        bytes: usize,
        atomic: bool,
    ) -> Nanos {
        let _mpi = th.enter_mpi();
        let costs = th.proc().costs().clone();
        th.clock.advance(costs.copy_cost(bytes));
        let svci = th.proc().vci(vci_idx);
        let tgt_proc = th.universe().proc(self.comm.global_rank(target));
        let intra = tgt_proc.node() == th.proc().node();
        let arrival = svci.raw_transmit(&mut th.clock, intra, bytes);
        let mut apply = costs.rma_apply;
        if atomic {
            apply += costs.rma_atomic_extra;
        }
        arrival + apply
    }

    fn note_pending(&self, target: usize, vci: usize, t: Nanos) {
        let mut p = self.pending.lock();
        let e = p.entry((target, vci)).or_insert(0);
        *e = (*e).max(t.as_ns());
    }

    /// `MPI_Put`: write `data` at `offset` in `target`'s window.
    pub fn put(&self, th: &mut ThreadCtx, target: usize, offset: usize, data: &[u8]) -> Result<()> {
        self.put_on_vci(th, self.vci_for(target, offset), target, offset, data)
    }

    /// `put` through an explicit VCI (the endpoints design's mechanism).
    pub fn put_on_vci(
        &self,
        th: &mut ThreadCtx,
        vci_idx: usize,
        target: usize,
        offset: usize,
        data: &[u8],
    ) -> Result<()> {
        self.check_bounds(offset, data.len())?;
        let entered_at = th.clock.now();
        let apply_at = self.issue(th, vci_idx, target, data.len(), false);
        self.targets[target].apply_put(offset, data);
        self.note_pending(target, vci_idx, apply_at);
        rankmpi_obs::trace::busy(
            "rma",
            "put",
            entered_at,
            th.clock.now(),
            th.proc().vci(vci_idx).res_id(),
        );
        Ok(())
    }

    /// `MPI_Get` (blocking convenience): read `len` bytes at `offset` from
    /// `target`'s window. Virtual time includes the response transfer.
    pub fn get(
        &self,
        th: &mut ThreadCtx,
        target: usize,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>> {
        self.get_on_vci(th, self.vci_for(target, offset), target, offset, len)
    }

    /// `get` through an explicit VCI.
    pub fn get_on_vci(
        &self,
        th: &mut ThreadCtx,
        vci_idx: usize,
        target: usize,
        offset: usize,
        len: usize,
    ) -> Result<Vec<u8>> {
        self.check_bounds(offset, len)?;
        let entered_at = th.clock.now();
        // Request: an 8-byte descriptor travels out; data travels back.
        let apply_at = self.issue(th, vci_idx, target, 8, false);
        let profile = th.universe().profile().clone();
        let back = Nanos(len as u64 * profile.byte_time_ps / 1_000) + profile.latency;
        let ready = apply_at + back;
        let data = self.targets[target].apply_get(offset, len);
        self.note_pending(target, vci_idx, ready);
        th.clock.wait_until(ready);
        rankmpi_obs::trace::busy(
            "rma",
            "get",
            entered_at,
            th.clock.now(),
            th.proc().vci(vci_idx).res_id(),
        );
        Ok(data)
    }

    /// The VCI an *atomic* operation must use. With MPI's default accumulate
    /// ordering, all of a process's atomics to one target must flow through
    /// one channel so their applies stay ordered — this single-channel
    /// pinning is exactly the parallelism the user "has no way to explicitly
    /// expose" (Lesson 16). Only `accumulate_ordering=none` unlocks the hash
    /// spread.
    pub fn vci_for_atomic(&self, target: usize, offset: usize) -> usize {
        match self.ordering {
            AccumulateOrdering::Ordered => self.comm.vci_block()[0],
            AccumulateOrdering::None => self.vci_for(target, offset),
        }
    }

    /// `MPI_Accumulate` over `f64` elements (element offset is in bytes and
    /// must be 8-byte aligned to the window layout used by the caller).
    pub fn accumulate(
        &self,
        th: &mut ThreadCtx,
        target: usize,
        offset: usize,
        vals: &[f64],
        op: ReduceOp,
    ) -> Result<()> {
        self.accumulate_on_vci(
            th,
            self.vci_for_atomic(target, offset),
            target,
            offset,
            vals,
            op,
        )
    }

    /// `accumulate` through an explicit VCI.
    pub fn accumulate_on_vci(
        &self,
        th: &mut ThreadCtx,
        vci_idx: usize,
        target: usize,
        offset: usize,
        vals: &[f64],
        op: ReduceOp,
    ) -> Result<()> {
        self.check_bounds(offset, vals.len() * 8)?;
        let apply_at = self.issue(th, vci_idx, target, vals.len() * 8, true);
        let costs = th.proc().costs();
        let done = match self.ordering {
            AccumulateOrdering::Ordered => {
                // Same-origin same-target atomics serialize at the target.
                let res =
                    self.targets[target].order_resource(th.proc().rank(), th.universe().gvt());
                res.acquire(apply_at, costs.rma_apply + costs.rma_atomic_extra)
                    .end
            }
            AccumulateOrdering::None => apply_at,
        };
        self.targets[target].apply_accumulate_f64(offset, vals, op);
        self.note_pending(target, vci_idx, done);
        Ok(())
    }

    /// `MPI_Fetch_and_op(MPI_SUM)` on one `f64`: atomically add `val` at
    /// `offset` in `target`'s window and return the previous value. Blocking
    /// (the result needs a round trip), like the convenience `get`.
    pub fn fetch_and_add(
        &self,
        th: &mut ThreadCtx,
        target: usize,
        offset: usize,
        val: f64,
    ) -> Result<f64> {
        self.check_bounds(offset, 8)?;
        let vci_idx = self.vci_for_atomic(target, offset);
        let apply_at = self.issue(th, vci_idx, target, 8, true);
        let costs = th.proc().costs();
        let done = match self.ordering {
            AccumulateOrdering::Ordered => {
                let res =
                    self.targets[target].order_resource(th.proc().rank(), th.universe().gvt());
                res.acquire(apply_at, costs.rma_apply + costs.rma_atomic_extra)
                    .end
            }
            AccumulateOrdering::None => apply_at,
        };
        let old = self.targets[target].fetch_add_f64(offset, val);
        let ready = done + th.universe().profile().latency;
        self.note_pending(target, vci_idx, ready);
        th.clock.wait_until(ready);
        Ok(old)
    }

    /// `MPI_Compare_and_swap` on one `u64` slot: if the current value equals
    /// `expect`, store `new`; returns the value found. Blocking.
    pub fn compare_and_swap(
        &self,
        th: &mut ThreadCtx,
        target: usize,
        offset: usize,
        expect: u64,
        new: u64,
    ) -> Result<u64> {
        self.check_bounds(offset, 8)?;
        let vci_idx = self.vci_for_atomic(target, offset);
        let apply_at = self.issue(th, vci_idx, target, 8, true);
        let found = self.targets[target].compare_and_swap_u64(offset, expect, new);
        let ready = apply_at + th.universe().profile().latency;
        self.note_pending(target, vci_idx, ready);
        th.clock.wait_until(ready);
        Ok(found)
    }

    /// `MPI_Win_flush`: complete all operations this *process* issued to
    /// `target` (waits an acknowledgment round trip past the last apply).
    /// Process scope is MPI's semantic: one thread's flush waits for every
    /// sibling thread's outstanding operations too — the window-sharing
    /// entanglement the paper warns about in Section II-A.
    pub fn flush(&self, th: &mut ThreadCtx, target: usize) -> Result<()> {
        if target >= self.comm.size() {
            return Err(Error::InvalidRank {
                rank: target as i64,
                size: self.comm.size(),
            });
        }
        let last = {
            let p = self.pending.lock();
            p.iter()
                .filter(|((t, _), _)| *t == target)
                .map(|(_, &v)| v)
                .max()
                .unwrap_or(0)
        };
        if last > 0 {
            th.clock
                .wait_until(Nanos(last) + th.universe().profile().latency);
        }
        Ok(())
    }

    /// Per-channel flush: complete only the operations issued through
    /// `vci_idx` to `target` — the completion scope an *endpoint* window
    /// handle would have (each endpoint flushes its own stream without
    /// waiting for sibling threads).
    pub fn flush_on_vci(&self, th: &mut ThreadCtx, vci_idx: usize, target: usize) -> Result<()> {
        if target >= self.comm.size() {
            return Err(Error::InvalidRank {
                rank: target as i64,
                size: self.comm.size(),
            });
        }
        let last = self
            .pending
            .lock()
            .get(&(target, vci_idx))
            .copied()
            .unwrap_or(0);
        if last > 0 {
            th.clock
                .wait_until(Nanos(last) + th.universe().profile().latency);
        }
        Ok(())
    }

    /// `MPI_Win_flush_all`.
    pub fn flush_all(&self, th: &mut ThreadCtx) -> Result<()> {
        for t in 0..self.comm.size() {
            self.flush(th, t)?;
        }
        Ok(())
    }

    /// `MPI_Win_fence`: flush everything, then barrier.
    pub fn fence(&self, th: &mut ThreadCtx) -> Result<()> {
        self.flush_all(th)?;
        self.comm.barrier(th)
    }

    /// Read this process's own exposed memory (local load).
    pub fn read_local(&self, offset: usize, len: usize) -> Result<Vec<u8>> {
        self.check_bounds(offset, len)?;
        Ok(self.targets[self.comm.rank()].apply_get(offset, len))
    }

    /// Read this process's own exposed memory as `f64`s.
    pub fn read_local_f64(&self, offset: usize, count: usize) -> Result<Vec<f64>> {
        let bytes = self.read_local(offset, count * 8)?;
        Ok(crate::coll::bytes_to_f64s(&bytes))
    }
}

impl std::fmt::Debug for Window {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Window")
            .field("win_id", &self.win_id)
            .field("size", &self.size)
            .field("ordering", &self.ordering)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn put_then_read_at_target() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let win = Window::create(&world, &mut th, 64, &Info::new()).unwrap();
            if env.rank() == 0 {
                win.put(&mut th, 1, 8, b"rdma!").unwrap();
                win.flush(&mut th, 1).unwrap();
            }
            win.fence(&mut th).unwrap();
            if env.rank() == 1 {
                assert_eq!(&win.read_local(8, 5).unwrap()[..], b"rdma!");
            }
        });
    }

    #[test]
    fn get_reads_remote_memory() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let win = Window::create(&world, &mut th, 32, &Info::new()).unwrap();
            if env.rank() == 1 {
                // Target initializes its own memory, then everyone fences.
                win.put(&mut th, 1, 0, &[7u8; 8]).unwrap();
            }
            win.fence(&mut th).unwrap();
            if env.rank() == 0 {
                let t0 = th.clock.now();
                let data = win.get(&mut th, 1, 0, 8).unwrap();
                assert_eq!(data, vec![7u8; 8]);
                // A get pays at least two wire latencies.
                assert!(th.clock.now() - t0 >= Nanos(2_000));
            }
        });
    }

    #[test]
    fn accumulate_sums_atomically_across_procs() {
        let p = 4;
        let u = Universe::builder().nodes(p).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let win = Window::create(&world, &mut th, 64, &Info::new()).unwrap();
            // Everyone accumulates 1.0 into rank 0's first element, 3 times.
            for _ in 0..3 {
                win.accumulate(&mut th, 0, 0, &[1.0], ReduceOp::Sum)
                    .unwrap();
            }
            win.flush(&mut th, 0).unwrap();
            win.fence(&mut th).unwrap();
            if env.rank() == 0 {
                assert_eq!(win.read_local_f64(0, 1).unwrap(), vec![12.0]);
            }
        });
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let u = Universe::builder().nodes(1).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let win = Window::create(&world, &mut th, 16, &Info::new()).unwrap();
            assert!(matches!(
                win.put(&mut th, 0, 12, &[0u8; 8]),
                Err(Error::WindowOutOfBounds { .. })
            ));
            assert!(matches!(
                win.get(&mut th, 0, 16, 1),
                Err(Error::WindowOutOfBounds { .. })
            ));
        });
    }

    #[test]
    fn ordered_accumulates_serialize_in_virtual_time() {
        let u = Universe::builder().nodes(2).num_vcis(4).build();
        let times = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let ordered = Window::create(&world, &mut th, 64, &Info::new()).unwrap();
            let relaxed = Window::create(
                &world,
                &mut th,
                64,
                &Info::new().set(keys::ACCUMULATE_ORDERING, "none"),
            )
            .unwrap();
            if env.rank() == 0 {
                let n = 50;
                let t0 = th.clock.now();
                for i in 0..n {
                    ordered
                        .accumulate(&mut th, 1, (i % 8) * 8, &[1.0], ReduceOp::Sum)
                        .unwrap();
                }
                ordered.flush(&mut th, 1).unwrap();
                let t_ordered = th.clock.now() - t0;

                let t0 = th.clock.now();
                for i in 0..n {
                    relaxed
                        .accumulate(&mut th, 1, (i % 8) * 8, &[1.0], ReduceOp::Sum)
                        .unwrap();
                }
                relaxed.flush(&mut th, 1).unwrap();
                let t_relaxed = th.clock.now() - t0;
                ordered.fence(&mut th).unwrap();
                relaxed.fence(&mut th).unwrap();
                (t_ordered, t_relaxed)
            } else {
                ordered.fence(&mut th).unwrap();
                relaxed.fence(&mut th).unwrap();
                (Nanos::ZERO, Nanos::ZERO)
            }
        });
        let (ordered, relaxed) = times[0];
        assert!(
            ordered > relaxed,
            "ordered accumulates must pay target-side serialization: {ordered} vs {relaxed}"
        );
    }

    #[test]
    fn fetch_and_add_returns_previous_values() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let win = Window::create(&world, &mut th, 16, &Info::new()).unwrap();
            if env.rank() == 0 {
                let a = win.fetch_and_add(&mut th, 1, 0, 2.5).unwrap();
                let b = win.fetch_and_add(&mut th, 1, 0, 2.5).unwrap();
                assert_eq!(a, 0.0);
                assert_eq!(b, 2.5);
                win.flush(&mut th, 1).unwrap();
            }
            win.fence(&mut th).unwrap();
            if env.rank() == 1 {
                assert_eq!(win.read_local_f64(0, 1).unwrap(), vec![5.0]);
            }
        });
    }

    #[test]
    fn fetch_and_add_counts_exactly_under_concurrency() {
        let p = 3;
        let n = 20;
        let u = Universe::builder().nodes(p).threads_per_proc(2).build();
        u.run(|env| {
            let world = env.world();
            let mut setup = env.single_thread();
            let win = Window::create(&world, &mut setup, 8, &Info::new()).unwrap();
            let win = &win;
            env.parallel(|th| {
                for _ in 0..n {
                    win.fetch_and_add(th, 0, 0, 1.0).unwrap();
                }
                win.flush(th, 0).unwrap();
            });
            win.fence(&mut setup).unwrap();
            if env.rank() == 0 {
                assert_eq!(win.read_local_f64(0, 1).unwrap(), vec![(p * 2 * n) as f64]);
            }
        });
    }

    #[test]
    fn compare_and_swap_takes_exactly_one_winner() {
        let u = Universe::builder().nodes(4).build();
        let wins = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let win = Window::create(&world, &mut th, 8, &Info::new()).unwrap();
            // Everyone races to claim slot 0 (0 -> rank + 1).
            let found = win
                .compare_and_swap(&mut th, 0, 0, 0, env.rank() as u64 + 1)
                .unwrap();
            win.fence(&mut th).unwrap();
            let final_val =
                u64::from_le_bytes(win.read_local(0, 8).unwrap()[..8].try_into().unwrap());
            (found == 0, final_val, env.rank())
        });
        let winners: Vec<_> = wins.iter().filter(|(won, _, _)| *won).collect();
        assert_eq!(winners.len(), 1, "exactly one CAS must win");
        // The stored value matches the winner's rank + 1 (read at rank 0).
        let stored = wins[0].1;
        assert_eq!(stored, winners[0].2 as u64 + 1);
    }

    #[test]
    fn window_ordering_mode_parses_from_info() {
        let u = Universe::builder().nodes(1).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let w1 = Window::create(&world, &mut th, 8, &Info::new()).unwrap();
            assert_eq!(w1.ordering(), AccumulateOrdering::Ordered);
            let w2 = Window::create(
                &world,
                &mut th,
                8,
                &Info::new().set(keys::ACCUMULATE_ORDERING, "none"),
            )
            .unwrap();
            assert_eq!(w2.ordering(), AccumulateOrdering::None);
            assert_ne!(w1.win_id(), w2.win_id());
        });
    }
}
