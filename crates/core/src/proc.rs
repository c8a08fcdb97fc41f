//! Simulated MPI processes and threads.
//!
//! A [`ProcShared`] is read by every process that sends to it: the sender
//! looks up the destination VCI there. Nothing on that lookup is written per
//! message — the VCI pool is an append-only table whose entries are borrowed
//! ([`ProcShared::vci_ref`]), not cloned — and the one word the owner *does*
//! write per message, its sequence counter, sits on a line of its own.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rankmpi_fabric::resil::ResilConfig;
use rankmpi_fabric::{FaultPlan, Nic, Notify};
use rankmpi_vtime::{engine, Clock};

use crate::append::AppendTable;
use crate::comm::Communicator;
use crate::costs::CoreCosts;
use crate::ft::FtShared;
use crate::matching::EngineKind;
use crate::universe::UniverseShared;
use crate::vci::{DirectRegistry, DirectSink, Vci};
use rankmpi_fabric::Liveness;

/// The shared state of one simulated MPI process: its VCI pool, its arrival
/// notifier, and its direct-delivery registry.
///
/// Threads of the process hold `Arc<ProcShared>`; remote processes reach it
/// through the [`UniverseShared`] process table when transmitting.
pub struct ProcShared {
    rank: usize,
    node: usize,
    notify: Arc<Notify>,
    nic: Arc<Nic>,
    shm_nic: Arc<Nic>,
    costs: CoreCosts,
    /// Matching-engine kind of every VCI this process creates.
    matching: EngineKind,
    direct: Arc<DirectRegistry>,
    /// Fault plan (and retransmit config) armed on every VCI mailbox of
    /// this process — held here so VCIs added after universe construction
    /// (endpoints allocate per-endpoint VCIs) get the same weather as the
    /// build-time pool.
    fault: Option<(FaultPlan, Option<ResilConfig>)>,
    /// Rank-crash fault-tolerance state shared by every VCI and thread of
    /// this process: the crash plan (if any), the universe-wide liveness
    /// registry, and the set of revoked communicators learned so far.
    ft: Arc<FtShared>,
    vcis: AppendTable<Arc<Vci>>,
    seq: SeqLine,
    /// `MPI_THREAD_SERIALIZED` violation detector: set while any thread of
    /// this process is inside an MPI call.
    in_mpi: std::sync::atomic::AtomicBool,
    /// Per-parent-context collective-operation counters (used to key the
    /// universe's deterministic context-id agreement).
    dup_counters: parking_lot::Mutex<std::collections::HashMap<u32, u64>>,
}

/// The per-process message sequence counter, alone in a 128-byte block
/// (two lines: adjacent-line prefetch pairs them): every local send bumps
/// it, and every remote sender reads the fields around it.
#[repr(align(128))]
struct SeqLine(AtomicU64);

impl ProcShared {
    /// Create the process with `num_vcis` standard VCIs running `matching`
    /// engines.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        node: usize,
        nic: Arc<Nic>,
        shm_nic: Arc<Nic>,
        costs: CoreCosts,
        num_vcis: usize,
        matching: EngineKind,
        fault: Option<(FaultPlan, Option<ResilConfig>)>,
        liveness: Arc<Liveness>,
    ) -> Arc<Self> {
        let notify = Arc::new(Notify::new());
        let direct = Arc::new(DirectRegistry::new());
        let crash = fault
            .as_ref()
            .and_then(|(plan, _)| plan.crash_point(rank as u64));
        let ft = Arc::new(FtShared::new(rank, liveness, crash));
        let p = ProcShared {
            rank,
            node,
            notify,
            nic,
            shm_nic,
            costs,
            matching,
            direct,
            fault,
            ft,
            vcis: AppendTable::new(),
            seq: SeqLine(AtomicU64::new(0)),
            in_mpi: std::sync::atomic::AtomicBool::new(false),
            dup_counters: parking_lot::Mutex::new(std::collections::HashMap::new()),
        };
        let p = Arc::new(p);
        for _ in 0..num_vcis.max(1) {
            p.add_vci();
        }
        p
    }

    /// Global (world) rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Node hosting this process.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The process's progress notifier (signaled on arrivals/completions).
    pub fn notify(&self) -> &Arc<Notify> {
        &self.notify
    }

    /// The library cost model.
    pub fn costs(&self) -> &CoreCosts {
        &self.costs
    }

    /// VCI `id` of this process, as an owned handle.
    pub fn vci(&self, id: usize) -> Arc<Vci> {
        Arc::clone(self.vci_ref(id))
    }

    /// VCI `id` of this process, borrowed: what the per-message paths use,
    /// so a lookup writes nothing (no lock word, no reference count).
    pub fn vci_ref(&self, id: usize) -> &Arc<Vci> {
        self.vcis
            .get(id)
            .unwrap_or_else(|| panic!("rank {} has no VCI {id}", self.rank))
    }

    /// Number of VCIs currently in the pool.
    pub fn num_vcis(&self) -> usize {
        self.vcis.len()
    }

    /// Grow the pool by one VCI (endpoints allocate per-endpoint VCIs this
    /// way). Returns the new VCI's index.
    ///
    /// If the universe was built with a fault plan, the new VCI's mailbox is
    /// armed with the same per-`(rank, vci)` derived plan the build-time
    /// pool got — endpoint channels see the same weather as everything else.
    pub fn add_vci(&self) -> usize {
        // Armed before the push publishes it.
        self.vcis.push_with(|id| {
            let vci = Vci::new(
                id,
                self.rank,
                &self.nic,
                &self.shm_nic,
                Arc::clone(&self.notify),
                self.costs.clone(),
                Arc::clone(&self.direct),
                self.matching,
                Arc::clone(&self.ft),
            );
            if let Some((plan, resil)) = &self.fault {
                let mailbox = vci.mailbox();
                mailbox.arm_faults(plan.derive(self.rank as u64, id as u64));
                if let (Some(cfg), Some(r)) = (resil, mailbox.resil()) {
                    r.set_config(*cfg);
                }
            }
            vci
        })
    }

    /// Default matching-engine kind of this process's VCIs.
    pub fn matching(&self) -> EngineKind {
        self.matching
    }

    /// Register a direct-delivery sink (partitioned communication).
    pub fn register_direct(&self, key: u64, sink: Arc<dyn DirectSink>) {
        self.direct.register(key, sink);
    }

    /// Unregister a direct-delivery sink.
    pub fn unregister_direct(&self, key: u64) {
        self.direct.unregister(key);
    }

    /// The `MPI_THREAD_SERIALIZED` in-call flag.
    pub fn mpi_call_flag(&self) -> &std::sync::atomic::AtomicBool {
        &self.in_mpi
    }

    /// Next per-process message sequence number.
    pub fn next_seq(&self) -> u64 {
        self.seq.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Next collective-operation index for `parent_ctx` (keys deterministic
    /// context-id agreement across processes).
    pub fn next_dup_index(&self, parent_ctx: u32) -> u64 {
        let mut m = self.dup_counters.lock();
        let c = m.entry(parent_ctx).or_insert(0);
        let v = *c;
        *c += 1;
        v
    }

    /// The node's NIC (resource statistics).
    pub fn nic(&self) -> &Arc<Nic> {
        &self.nic
    }

    /// Rank-crash fault-tolerance state of this process.
    pub fn ft(&self) -> &Arc<FtShared> {
        &self.ft
    }

    /// Check the crash plan and die here if this is the planned crash point
    /// (called at MPI-operation entry; `is_send` ticks the send counter).
    pub fn maybe_crash(&self, clock: &Clock, is_send: bool) {
        self.ft.maybe_crash(clock, is_send);
    }
}

impl std::fmt::Debug for ProcShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcShared")
            .field("rank", &self.rank)
            .field("node", &self.node)
            .field("vcis", &self.num_vcis())
            .finish()
    }
}

/// Per-thread execution context: the thread's virtual clock plus its identity.
///
/// Every MPI call takes `&mut ThreadCtx`; the clock accumulates the cost of
/// everything the thread does. `tid` is the thread's index within its process
/// (what the paper's listings call the OpenMP thread id).
pub struct ThreadCtx {
    /// The thread's virtual clock.
    pub clock: Clock,
    tid: usize,
    proc: Arc<ProcShared>,
    universe: Arc<UniverseShared>,
}

impl ThreadCtx {
    /// Check this thread may make an MPI call under the universe's thread
    /// level; panics on erroneous programs (MPI leaves them undefined — the
    /// simulator fails loudly instead).
    ///
    /// For `Serialized`, concurrent calls are detected with a per-process
    /// in-MPI flag around the returned guard's lifetime.
    pub fn enter_mpi(&self) -> MpiCallGuard {
        use crate::universe::ThreadLevel;
        match self.universe.thread_level() {
            ThreadLevel::Single | ThreadLevel::Multiple => MpiCallGuard { proc: None },
            ThreadLevel::Funneled => {
                assert!(
                    self.tid == 0,
                    "MPI_THREAD_FUNNELED: only the main thread may call MPI (tid {})",
                    self.tid
                );
                MpiCallGuard { proc: None }
            }
            ThreadLevel::Serialized => {
                assert!(
                    !self
                        .proc
                        .mpi_call_flag()
                        .swap(true, std::sync::atomic::Ordering::AcqRel),
                    "MPI_THREAD_SERIALIZED violated: concurrent MPI calls detected"
                );
                MpiCallGuard {
                    proc: Some(Arc::clone(&self.proc)),
                }
            }
        }
    }

    /// Build a context for thread `tid` of `proc`.
    pub fn new(tid: usize, proc: Arc<ProcShared>, universe: Arc<UniverseShared>) -> Self {
        // Stamp the OS thread's trace identity so spans recorded from this
        // context carry the simulated (rank, tid).
        rankmpi_obs::trace::set_actor(proc.rank() as u32, tid as u32);
        ThreadCtx {
            clock: Clock::new(),
            tid,
            proc,
            universe,
        }
    }

    /// Thread index within the process.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The owning process.
    pub fn proc(&self) -> &Arc<ProcShared> {
        &self.proc
    }

    /// The universe.
    pub fn universe(&self) -> &Arc<UniverseShared> {
        &self.universe
    }

    /// Model a stretch of local computation taking `d` of virtual time.
    pub fn compute(&mut self, d: rankmpi_vtime::Nanos) {
        self.clock.advance(d);
    }
}

/// Guard of one MPI call under `MPI_THREAD_SERIALIZED` detection.
pub struct MpiCallGuard {
    proc: Option<Arc<ProcShared>>,
}

impl Drop for MpiCallGuard {
    fn drop(&mut self) {
        if let Some(p) = &self.proc {
            p.mpi_call_flag()
                .store(false, std::sync::atomic::Ordering::Release);
        }
    }
}

impl std::fmt::Debug for ThreadCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadCtx")
            .field("tid", &self.tid)
            .field("rank", &self.proc.rank())
            .field("now", &self.clock.now())
            .finish()
    }
}

/// The per-process environment handed to the `Universe::run` closure — the
/// equivalent of "after `MPI_Init_thread(MPI_THREAD_MULTIPLE)` returned".
pub struct ProcEnv {
    proc: Arc<ProcShared>,
    universe: Arc<UniverseShared>,
    threads_per_proc: usize,
}

impl ProcEnv {
    pub(crate) fn new(
        proc: Arc<ProcShared>,
        universe: Arc<UniverseShared>,
        threads_per_proc: usize,
    ) -> Self {
        ProcEnv {
            proc,
            universe,
            threads_per_proc,
        }
    }

    /// This process's world rank.
    pub fn rank(&self) -> usize {
        self.proc.rank()
    }

    /// Number of processes in the universe.
    pub fn size(&self) -> usize {
        self.universe.n_procs()
    }

    /// The node hosting this process.
    pub fn node(&self) -> usize {
        self.proc.node()
    }

    /// The configured thread count per process.
    pub fn threads(&self) -> usize {
        self.threads_per_proc
    }

    /// The world communicator (context id 0, all processes).
    pub fn world(&self) -> Communicator {
        Communicator::world(Arc::clone(&self.universe), Arc::clone(&self.proc))
    }

    /// The owning process state.
    pub fn proc(&self) -> &Arc<ProcShared> {
        &self.proc
    }

    /// The universe state.
    pub fn universe(&self) -> &Arc<UniverseShared> {
        &self.universe
    }

    /// Run `f` on the configured number of threads (like
    /// `#pragma omp parallel`), collecting per-thread results in tid order.
    pub fn parallel<R: Send>(&self, f: impl Fn(&mut ThreadCtx) -> R + Sync) -> Vec<R> {
        self.parallel_n(self.threads_per_proc, f)
    }

    /// Run `f` on `n` threads.
    ///
    /// Inside an engine rank-task, the simulated threads are forked as child
    /// tasks of the engine ([`engine::fork_join`]), so the virtual-time
    /// dispatcher interleaves *all* simulated threads of *all* ranks, and
    /// the parent parks without a worker slot until they have all finished.
    pub fn parallel_n<R: Send>(&self, n: usize, f: impl Fn(&mut ThreadCtx) -> R + Sync) -> Vec<R> {
        let member = |tid| {
            let mut th = ThreadCtx::new(tid, Arc::clone(&self.proc), Arc::clone(&self.universe));
            f(&mut th)
        };
        let joined = if engine::in_task() {
            engine::fork_join(n, member)
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..n).map(|tid| s.spawn(move || member(tid))).collect();
                handles.into_iter().map(|h| h.join()).collect()
            })
        };
        joined.into_iter().map(|j| self.join_member(j)).collect()
    }

    /// Unwrap one simulated thread's join result. A planned rank-crash
    /// unwind re-crashes the joining (parent) thread — the whole rank dies
    /// quietly, as one process would — while a genuine bug's panic resumes
    /// unchanged so the run still fails loudly.
    fn join_member<R>(&self, joined: std::thread::Result<R>) -> R {
        match joined {
            Ok(r) => r,
            Err(payload) => {
                if self.proc.ft().liveness().is_crashed(self.proc.rank()) {
                    rankmpi_fabric::ft::crash_now();
                }
                std::panic::resume_unwind(payload)
            }
        }
    }

    /// A single-thread context (tid 0) for serial sections.
    pub fn single_thread(&self) -> ThreadCtx {
        ThreadCtx::new(0, Arc::clone(&self.proc), Arc::clone(&self.universe))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{LaunchMode, TaskLaunch, Universe};
    use std::mem::{align_of, offset_of, size_of};

    #[test]
    fn the_sequence_counter_sits_alone_in_its_128_byte_block() {
        // The block is exactly the counter's, and the process state starts
        // on a block boundary, so no field a remote sender reads shares it.
        assert_eq!(size_of::<SeqLine>(), 128);
        assert_eq!(align_of::<ProcShared>(), 128);
        assert_eq!(offset_of!(ProcShared, seq) % 128, 0);
    }

    fn tasks(workers: usize) -> Universe {
        Universe::builder()
            .nodes(2)
            .launch(LaunchMode::Tasks(TaskLaunch {
                workers,
                ..Default::default()
            }))
            .build()
    }

    #[test]
    fn forked_threads_start_in_tid_order_at_one_worker() {
        // Each rank forks when admitted and parks; its children are reserved
        // in tid order and run once every reservation has registered.
        let expected: Vec<_> = (0..2).flat_map(|r| (0..4).map(move |t| (r, t))).collect();
        for run in 0..20 {
            let order = std::sync::Mutex::new(Vec::new());
            tasks(1).run(|env| {
                env.parallel_n(4, |th| order.lock().unwrap().push((env.rank(), th.tid())));
            });
            assert_eq!(order.into_inner().unwrap(), expected, "run {run}");
        }
    }

    #[test]
    #[should_panic(expected = "engine deadlock")]
    fn a_fork_whose_threads_all_wait_forever_is_a_deadlock() {
        // Rank 0's two threads each wait for a message nobody sends, while
        // rank 0 itself joins them: every live task is parked.
        tasks(2).run(|env| {
            if env.rank() == 0 {
                env.parallel_n(2, |th| env.world().recv(th, 1, 7).map(|_| ()));
            }
        });
    }
}
