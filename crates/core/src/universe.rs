//! The simulated MPI job: nodes, processes, and collective agreement state.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rankmpi_fabric::{FaultPlan, Liveness, NetworkProfile, Nic, ResilConfig};
use rankmpi_vtime::{engine, Nanos, Notify};

use crate::costs::CoreCosts;
use crate::ft::FtGather;
use crate::matching::EngineKind;
use crate::proc::{ProcEnv, ProcShared};
use crate::rma::WindowTarget;

/// MPI's thread-support levels (`MPI_Init_thread`). The paper's subject is
/// the gap between what applications want (`MPI_THREAD_MULTIPLE`) and what
/// performs; the lower levels are enforced here so erroneous programs fail
/// loudly instead of corrupting the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreadLevel {
    /// Only one thread exists per process.
    Single,
    /// Only the main thread (tid 0) makes MPI calls.
    Funneled,
    /// Any thread may call, but never concurrently (user-serialized).
    Serialized,
    /// Threads call MPI freely and concurrently.
    #[default]
    Multiple,
}

/// How [`Universe::run`] executes simulated processes and their threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaunchMode {
    /// One OS thread per simulated rank-thread (the original model). Every
    /// simulated thread is schedulable by the OS, so runs are capped at
    /// tens of ranks but need no cooperation from blocking primitives.
    #[default]
    Threads,
    /// Cooperative rank-tasks multiplexed by [`rankmpi_vtime::engine`]:
    /// each simulated thread is a task admitted by the engine's
    /// virtual-time dispatcher, parked (zero CPU) while blocked. Scales to
    /// 1k+ ranks in one process.
    Tasks(TaskLaunch),
}

/// Parameters of the task-mode launch path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskLaunch {
    /// Maximum concurrently-running tasks (default: host parallelism).
    pub workers: usize,
    /// Virtual-time slack before a running task yields its slot to a
    /// lagging ready task (default 100µs). Larger values mean fewer task
    /// switches, and less accurate results for anything that polls: a
    /// failed poll charges virtual time until the poller is `slack` ahead,
    /// and only then yields. Slack is a model-accuracy parameter; Lesson
    /// 14's partitioned halo costs ≈125µs per iteration at 100µs slack and
    /// ≈31µs at 1µs.
    pub vtime_slack: Nanos,
}

impl Default for TaskLaunch {
    fn default() -> Self {
        TaskLaunch {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            vtime_slack: Nanos(100_000),
        }
    }
}

/// Key of one collective communicator-creation agreement:
/// `(parent context id, per-parent op index, split color)`.
pub type CommKey = (u32, u64, i64);

/// Value of one agreement: the child's context id and VCI block.
type CommAgreement = (u32, Arc<Vec<usize>>);

/// Universe-wide shared state.
///
/// Because all simulated processes live in one address space, operations that
/// MPI defines as *collective agreements* (context-id allocation for `dup`,
/// window-id allocation, VCI-block assignment) are implemented through shared
/// registries keyed by `(parent context, per-parent op index)`: MPI's
/// collective-call ordering rules guarantee every process computes the same
/// key sequence, so the first arriver allocates and the rest look up.
pub struct UniverseShared {
    profile: NetworkProfile,
    costs: CoreCosts,
    n_nodes: usize,
    procs_per_node: usize,
    threads_per_proc: usize,
    num_vcis: usize,
    thread_level: ThreadLevel,
    matching: EngineKind,
    nics: Vec<Arc<Nic>>,
    shm_nics: Vec<Arc<Nic>>,
    procs: Vec<Arc<ProcShared>>,
    /// (parent ctx, op index, color) → (child ctx id, VCI block).
    comm_registry: Mutex<HashMap<CommKey, CommAgreement>>,
    next_ctx: AtomicU32,
    /// Round-robin cursor for VCI-block assignment (matches MPICH's cyclic
    /// comm→VCI assignment).
    vci_cursor: AtomicUsize,
    /// (parent ctx, op index) → window id.
    win_registry: Mutex<HashMap<(u32, u64), usize>>,
    next_win: AtomicUsize,
    /// (window id, global rank) → exposed memory.
    win_targets: Mutex<HashMap<(usize, usize), Arc<WindowTarget>>>,
    /// In-flight `split` gathers: (parent ctx, op index) → contributions.
    split_boards: Mutex<HashMap<(u32, u64), Arc<SplitBoard>>>,
    /// The universe-wide failure detector (rank-crash fault tolerance).
    liveness: Arc<Liveness>,
    /// In-flight fault-tolerant agreements (`agree`/`shrink` membership):
    /// (parent ctx, op index, kind) → board.
    ft_boards: Mutex<HashMap<(u32, u64, u8), Arc<FtGather>>>,
    /// What every member blocked on a split or FT board waits on: rung by
    /// the contribution that resolves a board, and by `liveness` on every
    /// crash (a death can resolve an FT board without anyone contributing).
    rendezvous: Arc<Notify>,
    /// Dead ranks whose channel resources have already been retired —
    /// `reclaim_rank` is requested by every survivor but performed once.
    reclaimed: Mutex<HashSet<usize>>,
    launch: LaunchMode,
}

/// Rendezvous board for one collective `split`: every member contributes its
/// `(color, key)` and blocks until the full vector is present.
#[derive(Debug)]
pub struct SplitBoard {
    entries: Mutex<Vec<Option<(i64, i64)>>>,
}

impl SplitBoard {
    fn new(size: usize) -> Self {
        SplitBoard {
            entries: Mutex::new(vec![None; size]),
        }
    }

    /// Contribute, ring `rendezvous` if that completed the board, and wait
    /// on it for the full vector.
    fn contribute(
        &self,
        rendezvous: &Notify,
        local_rank: usize,
        color: i64,
        key: i64,
    ) -> Vec<(i64, i64)> {
        let complete = {
            let mut e = self.entries.lock();
            e[local_rank] = Some((color, key));
            e.iter().all(Option::is_some)
        };
        if complete {
            rendezvous.notify();
        }
        rendezvous.wait_until(|| self.entries.lock().iter().copied().collect())
    }
}

impl UniverseShared {
    /// Number of processes.
    pub fn n_procs(&self) -> usize {
        self.procs.len()
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Processes per node.
    pub fn procs_per_node(&self) -> usize {
        self.procs_per_node
    }

    /// Configured threads per process.
    pub fn threads_per_proc(&self) -> usize {
        self.threads_per_proc
    }

    /// How [`Universe::run`] launches simulated processes and threads.
    pub fn launch(&self) -> LaunchMode {
        self.launch
    }

    /// Standard VCI pool size per process.
    pub fn num_vcis(&self) -> usize {
        self.num_vcis
    }

    /// The provided thread-support level.
    pub fn thread_level(&self) -> ThreadLevel {
        self.thread_level
    }

    /// The default matching-engine kind of the universe's VCIs.
    pub fn matching(&self) -> EngineKind {
        self.matching
    }

    /// The network profile.
    pub fn profile(&self) -> &NetworkProfile {
        &self.profile
    }

    /// The library cost model.
    pub fn costs(&self) -> &CoreCosts {
        &self.costs
    }

    /// Process with global rank `r`.
    pub fn proc(&self, r: usize) -> &Arc<ProcShared> {
        &self.procs[r]
    }

    /// The NIC of `node` (for resource-usage reports).
    pub fn nic(&self, node: usize) -> &Arc<Nic> {
        &self.nics[node]
    }

    /// The shared-memory "NIC" of `node` (intra-node channel statistics).
    pub fn shm_nic(&self, node: usize) -> &Arc<Nic> {
        &self.shm_nics[node]
    }

    /// Agree on a child communicator's context id and VCI block.
    ///
    /// `key` is `(parent ctx, per-parent op index, color)` — color is 0 for
    /// `dup` and the split color for `split`; `want_vcis` is how many
    /// VCIs the new communicator spreads over (1 for default communicators).
    /// The first-arriving process allocates; all processes receive identical
    /// values, mirroring MPI's collective context-id agreement.
    pub fn agree_comm(&self, key: CommKey, want_vcis: usize) -> (u32, Arc<Vec<usize>>) {
        let mut reg = self.comm_registry.lock();
        if let Some(v) = reg.get(&key) {
            return (v.0, Arc::clone(&v.1));
        }
        let ctx = self.next_ctx.fetch_add(1, Ordering::Relaxed);
        let n = want_vcis.clamp(1, self.num_vcis);
        let start = self.vci_cursor.fetch_add(n, Ordering::Relaxed);
        let block: Vec<usize> = (0..n).map(|i| (start + i) % self.num_vcis).collect();
        let block = Arc::new(block);
        reg.insert(key, (ctx, Arc::clone(&block)));
        (ctx, block)
    }

    /// Contribute to (and wait for) the `(color, key)` exchange of a `split`
    /// on `(parent ctx, op index)`. Returns every member's contribution in
    /// parent-rank order.
    ///
    /// The board is dropped by whichever member returns first: it resolved
    /// only after every member had fetched it, and op indices only grow, so
    /// nobody looks the key up again.
    pub fn gather_split(
        &self,
        key: (u32, u64),
        local_rank: usize,
        size: usize,
        color: i64,
        sort_key: i64,
    ) -> Vec<(i64, i64)> {
        let board = {
            let mut m = self.split_boards.lock();
            Arc::clone(
                m.entry(key)
                    .or_insert_with(|| Arc::new(SplitBoard::new(size))),
            )
        };
        let out = board.contribute(&self.rendezvous, local_rank, color, sort_key);
        self.split_boards.lock().remove(&key);
        out
    }

    /// Agree on a window id for `(parent ctx, op index)`.
    pub fn agree_window(&self, key: (u32, u64)) -> usize {
        let mut reg = self.win_registry.lock();
        if let Some(&id) = reg.get(&key) {
            return id;
        }
        let id = self.next_win.fetch_add(1, Ordering::Relaxed);
        reg.insert(key, id);
        id
    }

    /// Publish the exposed memory of `rank` for window `win`.
    pub fn publish_window_target(&self, win: usize, rank: usize, t: Arc<WindowTarget>) {
        self.win_targets.lock().insert((win, rank), t);
    }

    /// Look up the exposed memory of `rank` for window `win`.
    pub fn window_target(&self, win: usize, rank: usize) -> Arc<WindowTarget> {
        Arc::clone(
            self.win_targets
                .lock()
                .get(&(win, rank))
                .expect("window target not published (window creation is collective)"),
        )
    }

    /// The universe-wide failure detector.
    pub fn liveness(&self) -> &Arc<Liveness> {
        &self.liveness
    }

    /// Contribute to (and wait for) one fault-tolerant agreement. Unlike
    /// [`gather_split`](UniverseShared::gather_split), resolution waits only
    /// for members `alive` still believes in, and the first resolver freezes
    /// the contribution set — every survivor returns the same decision.
    ///
    /// The first member to return drops the board, as in `gather_split`: it
    /// resolved only once every member `alive` still believes in had
    /// contributed, and a rank is marked dead only by its own crash, so
    /// nobody left to arrive can need it.
    pub fn gather_ft(
        &self,
        key: (u32, u64, u8),
        local_rank: usize,
        size: usize,
        value: i64,
        alive: &(dyn Fn(usize) -> bool + Sync),
    ) -> Arc<Vec<(usize, i64)>> {
        let board = {
            let mut m = self.ft_boards.lock();
            Arc::clone(
                m.entry(key)
                    .or_insert_with(|| Arc::new(FtGather::new(size))),
            )
        };
        let out = board.contribute(&self.rendezvous, local_rank, value, alive);
        self.ft_boards.lock().remove(&key);
        out
    }

    /// Retire a dead rank's channel resources: every VCI of its process
    /// releases its NIC hardware context back to the node pool (shrink calls
    /// this for each crashed member). Idempotent — the first caller wins.
    pub fn reclaim_rank(&self, rank: usize) {
        {
            let mut done = self.reclaimed.lock();
            if !done.insert(rank) {
                return;
            }
        }
        let proc = &self.procs[rank];
        let nic = &self.nics[proc.node()];
        for v in 0..proc.num_vcis() {
            nic.release_context(&proc.vci(v).hw_context());
        }
    }

    /// Mark hardware context `ctx_id` on `node`'s NIC as failed mid-run.
    ///
    /// Every VCI mapped onto that context fails over to a replacement on its
    /// next send (see `Vci::maybe_failover`); the remap shows up in the
    /// `Vci::failovers` and (when the pool is exhausted) `Nic::shared_allocs`
    /// counters. Returns whether a context with that id existed.
    pub fn fail_context(&self, node: usize, ctx_id: usize) -> bool {
        for ctx in self.nics[node].contexts() {
            if ctx.id() == ctx_id {
                ctx.mark_failed();
                return true;
            }
        }
        false
    }
}

impl std::fmt::Debug for UniverseShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UniverseShared")
            .field("nodes", &self.n_nodes)
            .field("procs", &self.procs.len())
            .field("threads_per_proc", &self.threads_per_proc)
            .field("num_vcis", &self.num_vcis)
            .field("profile", &self.profile.name)
            .finish()
    }
}

/// Builder for a [`Universe`].
#[derive(Debug, Clone)]
pub struct UniverseBuilder {
    nodes: usize,
    procs_per_node: usize,
    threads_per_proc: usize,
    num_vcis: usize,
    thread_level: ThreadLevel,
    matching: EngineKind,
    profile: NetworkProfile,
    costs: CoreCosts,
    fault_plan: Option<FaultPlan>,
    resil: Option<ResilConfig>,
    launch: LaunchMode,
}

impl Default for UniverseBuilder {
    fn default() -> Self {
        UniverseBuilder {
            nodes: 2,
            procs_per_node: 1,
            threads_per_proc: 1,
            num_vcis: 1,
            thread_level: ThreadLevel::Multiple,
            matching: EngineKind::default(),
            profile: NetworkProfile::omni_path(),
            costs: CoreCosts::default(),
            fault_plan: None,
            resil: None,
            launch: LaunchMode::Threads,
        }
    }
}

impl UniverseBuilder {
    /// Number of nodes (default 2).
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// Processes per node (default 1 — the MPI+threads deployment; the MPI
    /// everywhere baseline uses one process per core instead).
    pub fn procs_per_node(mut self, n: usize) -> Self {
        self.procs_per_node = n;
        self
    }

    /// Threads per process (default 1).
    pub fn threads_per_proc(mut self, n: usize) -> Self {
        self.threads_per_proc = n;
        self
    }

    /// Per-process VCI pool size (default 1 — the "MPI+threads (Original)"
    /// regime where all threads share one channel).
    pub fn num_vcis(mut self, n: usize) -> Self {
        self.num_vcis = n.max(1);
        self
    }

    /// Thread-support level (default `MPI_THREAD_MULTIPLE`).
    pub fn thread_level(mut self, l: ThreadLevel) -> Self {
        self.thread_level = l;
        self
    }

    /// Matching-engine kind of every VCI, fixed for the universe's lifetime
    /// (default [`EngineKind::SeqMerged`]; [`EngineKind::Linear`] is the
    /// paper's "Original" baseline and the tests' reference).
    pub fn matching(mut self, kind: EngineKind) -> Self {
        self.matching = kind;
        self
    }

    /// Network profile (default Omni-Path-like).
    pub fn profile(mut self, p: NetworkProfile) -> Self {
        self.profile = p;
        self
    }

    /// Library cost model.
    pub fn costs(mut self, c: CoreCosts) -> Self {
        self.costs = c;
        self
    }

    /// Arm deterministic fabric fault injection on every VCI mailbox.
    ///
    /// Each `(rank, vci)` mailbox receives an independently derived seed, so
    /// the plan perturbs every channel differently but reproducibly (see
    /// [`FaultPlan::derive`]).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Override the reliability-protocol parameters (retransmit window, retry
    /// budget, RTO) applied to every VCI when the fault plan has a lossy
    /// class armed. No effect without a lossy [`fault_plan`].
    ///
    /// [`fault_plan`]: UniverseBuilder::fault_plan
    pub fn resil(mut self, cfg: ResilConfig) -> Self {
        self.resil = Some(cfg);
        self
    }

    /// Launch mode for [`Universe::run`] (default [`LaunchMode::Threads`]).
    pub fn launch(mut self, mode: LaunchMode) -> Self {
        self.launch = mode;
        self
    }

    /// Shorthand for [`launch`](Self::launch) with default task-mode
    /// parameters: cooperative rank-tasks on the virtual-time engine.
    pub fn tasks(self) -> Self {
        self.launch(LaunchMode::Tasks(TaskLaunch::default()))
    }

    /// Materialize the universe: nodes, NICs, processes, VCI pools.
    pub fn build(self) -> Universe {
        assert!(self.nodes > 0 && self.procs_per_node > 0 && self.threads_per_proc > 0);
        assert!(
            self.thread_level != ThreadLevel::Single || self.threads_per_proc == 1,
            "MPI_THREAD_SINGLE allows exactly one thread per process"
        );
        let nics: Vec<_> = (0..self.nodes)
            .map(|n| Arc::new(Nic::new(n, self.profile.clone())))
            .collect();
        // The shared-memory "fabric" has no context limit: it models
        // per-channel lock-free queues in memory.
        let shm_profile = NetworkProfile {
            name: "shm",
            max_hw_contexts: usize::MAX,
            ..NetworkProfile::ideal()
        };
        let shm_nics: Vec<_> = (0..self.nodes)
            .map(|n| Arc::new(Nic::new(n, shm_profile.clone())))
            .collect();
        let n_procs = self.nodes * self.procs_per_node;
        // Fault plans are handed to each process so that VCIs created later
        // (endpoints grow the pool live) are armed exactly like the
        // build-time pool — `ProcShared::add_vci` derives per-`(rank, vci)`
        // plans and applies the resil config on arm.
        let fault = self.fault_plan.clone().map(|p| (p, self.resil));
        // Per-universe, never process-global: test binaries run many
        // universes concurrently and a crash in one must stay invisible to
        // the others.
        let liveness = Arc::new(Liveness::new());
        let procs: Vec<_> = (0..n_procs)
            .map(|r| {
                let node = r / self.procs_per_node;
                ProcShared::new(
                    r,
                    node,
                    Arc::clone(&nics[node]),
                    Arc::clone(&shm_nics[node]),
                    self.costs.clone(),
                    self.num_vcis,
                    self.matching,
                    fault.clone(),
                    Arc::clone(&liveness),
                )
            })
            .collect();
        // A crash emits no packet, so the liveness registry rings every
        // process notifier and the rendezvous itself: survivors parked on
        // them (task launch mode) re-poll and observe the death instead of
        // deadlocking.
        let rendezvous = Arc::new(Notify::new());
        for p in &procs {
            liveness.register_waker(Arc::clone(p.notify()));
        }
        liveness.register_waker(Arc::clone(&rendezvous));
        let shared = UniverseShared {
            profile: self.profile,
            costs: self.costs,
            n_nodes: self.nodes,
            procs_per_node: self.procs_per_node,
            threads_per_proc: self.threads_per_proc,
            num_vcis: self.num_vcis,
            thread_level: self.thread_level,
            matching: self.matching,
            nics,
            shm_nics,
            procs,
            comm_registry: Mutex::new(HashMap::new()),
            // Context id 0 is the world communicator; collective-internal
            // traffic sets the high bit, so user contexts stay below 2^31.
            next_ctx: AtomicU32::new(1),
            // Start at 1: the world communicator owns VCI 0, so the first
            // user communicator gets its own channel when the pool allows.
            vci_cursor: AtomicUsize::new(1),
            win_registry: Mutex::new(HashMap::new()),
            next_win: AtomicUsize::new(0),
            win_targets: Mutex::new(HashMap::new()),
            split_boards: Mutex::new(HashMap::new()),
            liveness,
            ft_boards: Mutex::new(HashMap::new()),
            rendezvous,
            reclaimed: Mutex::new(HashSet::new()),
            launch: self.launch,
        };
        Universe {
            shared: Arc::new(shared),
            engine_metrics: Mutex::new(None),
        }
    }
}

/// A simulated MPI job.
pub struct Universe {
    shared: Arc<UniverseShared>,
    /// Engine counters of the last task-mode run.
    engine_metrics: Mutex<Option<engine::EngineMetrics>>,
}

impl Universe {
    /// Start building a universe.
    pub fn builder() -> UniverseBuilder {
        UniverseBuilder::default()
    }

    /// The shared state (process table, registries, statistics).
    pub fn shared(&self) -> &Arc<UniverseShared> {
        &self.shared
    }

    /// Engine counters of the last [`LaunchMode::Tasks`] run; `None` before
    /// the first one.
    pub fn engine_metrics(&self) -> Option<engine::EngineMetrics> {
        *self.engine_metrics.lock()
    }

    /// Run `f` once per process. Under [`LaunchMode::Threads`] each process
    /// gets its own OS thread; under [`LaunchMode::Tasks`] processes are
    /// cooperative rank-tasks multiplexed by the virtual-time engine, which
    /// scales to 1k+ ranks in one address space. Either way, processes spawn
    /// their simulated threads via [`ProcEnv::parallel`] and the per-process
    /// results come back in rank order.
    pub fn run<R: Send>(&self, f: impl Fn(ProcEnv) -> R + Sync) -> Vec<R> {
        self.launch_ranks(|_, env| f(env))
    }

    /// Like [`run`](Universe::run), but tolerant of planned rank crashes:
    /// a rank the fault plan killed yields `None` in its slot instead of
    /// tearing the whole run down. Any unwind the [`Liveness`] registry
    /// cannot attribute to the crash plan is re-raised — real bugs still
    /// fail loudly.
    pub fn run_ft<R: Send>(&self, f: impl Fn(ProcEnv) -> R + Sync) -> Vec<Option<R>> {
        let liveness = &self.shared.liveness;
        self.launch_ranks(|rank, env| {
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(env)));
            rankmpi_fabric::ft::clear_crash_flag();
            match out {
                Ok(r) => Some(r),
                // A planned crash: this rank's slot stays empty.
                Err(_) if liveness.is_crashed(rank) => None,
                Err(p) => std::panic::resume_unwind(p),
            }
        })
    }

    /// Run `rank_fn(rank, env)` once per process under the configured launch
    /// mode and collect the results in rank order. A rank's panic reaches the
    /// caller with its original payload in threads mode; the engine re-raises
    /// its message in tasks mode.
    fn launch_ranks<R: Send>(&self, rank_fn: impl Fn(usize, ProcEnv) -> R + Sync) -> Vec<R> {
        let shared = &self.shared;
        let rank_fn = &rank_fn;
        let rank_task = |r: usize| {
            let proc = Arc::clone(shared.proc(r));
            let universe = Arc::clone(shared);
            move || {
                let tpp = universe.threads_per_proc();
                rank_fn(r, ProcEnv::new(proc, universe, tpp))
            }
        };
        let cfg = match shared.launch() {
            LaunchMode::Threads => {
                return std::thread::scope(|s| {
                    let handles: Vec<_> = (0..shared.n_procs())
                        .map(|r| s.spawn(rank_task(r)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                        .collect()
                })
            }
            LaunchMode::Tasks(cfg) => cfg,
        };
        let tasks: Vec<engine::TaskFn<'_, R>> = (0..shared.n_procs())
            .map(|r| Box::new(rank_task(r)) as engine::TaskFn<'_, R>)
            .collect();
        let out = engine::run(
            engine::EngineConfig {
                dispatch: engine::Dispatch::VirtualTime {
                    workers: cfg.workers,
                    slack: cfg.vtime_slack,
                },
                // Every task's carrier, rank-tasks and the simulated threads
                // they fork: task counts are the point, so stacks stay small.
                stack_size: 512 * 1024,
                ..engine::EngineConfig::default()
            },
            tasks,
        );
        *self.engine_metrics.lock() = Some(out.metrics);
        if let Some(p) = out.panic {
            panic!("{p}");
        }
        out.results
            .into_iter()
            .map(|r| r.expect("rank-task finished without result or panic"))
            .collect()
    }
}

impl std::fmt::Debug for Universe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.shared.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_lays_out_procs_on_nodes() {
        let u = Universe::builder().nodes(3).procs_per_node(2).build();
        let s = u.shared();
        assert_eq!(s.n_procs(), 6);
        assert_eq!(s.proc(0).node(), 0);
        assert_eq!(s.proc(1).node(), 0);
        assert_eq!(s.proc(4).node(), 2);
    }

    #[test]
    fn run_executes_once_per_proc() {
        let u = Universe::builder().nodes(2).procs_per_node(2).build();
        let ranks = u.run(|env| env.rank());
        assert_eq!(ranks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn agree_comm_is_consistent_across_callers() {
        let u = Universe::builder().nodes(2).num_vcis(4).build();
        let s = u.shared();
        let (ctx_a, block_a) = s.agree_comm((0, 0, 0), 1);
        let (ctx_b, block_b) = s.agree_comm((0, 0, 0), 1);
        assert_eq!(ctx_a, ctx_b);
        assert_eq!(block_a, block_b);
        // A different op index gets a different context and the next block.
        let (ctx_c, block_c) = s.agree_comm((0, 1, 0), 1);
        assert_ne!(ctx_a, ctx_c);
        assert_ne!(block_a, block_c);
    }

    #[test]
    fn vci_blocks_round_robin_over_the_pool() {
        let u = Universe::builder().nodes(1).num_vcis(3).build();
        let s = u.shared();
        let blocks: Vec<_> = (0..4).map(|i| s.agree_comm((0, i, 0), 1).1[0]).collect();
        assert_eq!(blocks, vec![1, 2, 0, 1]);
    }

    #[test]
    fn multi_vci_block_is_contiguous_mod_pool() {
        let u = Universe::builder().nodes(1).num_vcis(4).build();
        let s = u.shared();
        let (_ctx, block) = s.agree_comm((0, 0, 0), 3);
        assert_eq!(&*block, &[1, 2, 3]);
        // Requests beyond the pool are clamped.
        let (_ctx, block) = s.agree_comm((0, 1, 0), 99);
        assert_eq!(block.len(), 4);
    }

    #[test]
    fn window_agreement_allocates_once() {
        let u = Universe::builder().nodes(1).build();
        let s = u.shared();
        assert_eq!(s.agree_window((0, 0)), s.agree_window((0, 0)));
        assert_ne!(s.agree_window((0, 0)), s.agree_window((0, 1)));
    }

    #[test]
    fn funneled_allows_main_thread_only() {
        let u = Universe::builder()
            .nodes(2)
            .threads_per_proc(2)
            .thread_level(ThreadLevel::Funneled)
            .build();
        u.run(|env| {
            let world = env.world();
            // tid 0 may communicate.
            let mut th = env.single_thread();
            if env.rank() == 0 {
                world.send(&mut th, 1, 0, b"ok").unwrap();
            } else {
                world.recv(&mut th, 0, 0).unwrap();
            }
        });
    }

    #[test]
    fn funneled_rejects_other_threads() {
        let u = Universe::builder()
            .nodes(1)
            .threads_per_proc(2)
            .thread_level(ThreadLevel::Funneled)
            .build();
        let caught = u.run(|env| {
            let world = env.world();
            let results = env.parallel(|th| {
                if th.tid() == 1 {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _ = world.iprobe(th, 0, 0);
                    }))
                    .is_err()
                } else {
                    false
                }
            });
            results[1]
        });
        assert!(
            caught[0],
            "tid 1's MPI call must be rejected under FUNNELED"
        );
    }

    #[test]
    fn serialized_allows_alternating_threads() {
        let u = Universe::builder()
            .nodes(2)
            .threads_per_proc(2)
            .thread_level(ThreadLevel::Serialized)
            .build();
        u.run(|env| {
            let world = env.world();
            // Serial sections: one thread at a time (enforced by the closure
            // structure here — the detector must NOT fire).
            let mut th = env.single_thread();
            if env.rank() == 0 {
                world.send(&mut th, 1, 0, b"a").unwrap();
                world.send(&mut th, 1, 1, b"b").unwrap();
            } else {
                world.recv(&mut th, 0, 0).unwrap();
                world.recv(&mut th, 0, 1).unwrap();
            }
        });
    }

    #[test]
    #[should_panic(expected = "MPI_THREAD_SINGLE")]
    fn single_level_rejects_multiple_threads() {
        let _ = Universe::builder()
            .nodes(1)
            .threads_per_proc(2)
            .thread_level(ThreadLevel::Single)
            .build();
    }

    #[test]
    #[should_panic(expected = "rank 1 gave up")]
    fn a_rank_panic_reaches_the_caller_with_its_message() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| assert!(env.rank() != 1, "rank {} gave up", env.rank()));
    }

    #[test]
    fn parallel_runs_threads_with_tids() {
        let u = Universe::builder().nodes(1).threads_per_proc(4).build();
        let out = u.run(|env| env.parallel(|th| th.tid()));
        assert_eq!(out, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn task_mode_runs_once_per_proc_in_rank_order() {
        let u = Universe::builder()
            .nodes(4)
            .procs_per_node(2)
            .tasks()
            .build();
        let ranks = u.run(|env| env.rank());
        assert_eq!(ranks, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn task_mode_parallel_and_pt2pt_work() {
        let u = Universe::builder()
            .nodes(2)
            .threads_per_proc(2)
            .num_vcis(2)
            .tasks()
            .build();
        let out = u.run(|env| {
            let world = env.world();
            let rank = env.rank();
            env.parallel(|th| {
                let tag = th.tid() as i64;
                if rank == 0 {
                    world.send(th, 1, tag, b"hi").unwrap();
                    0
                } else {
                    world.recv(th, 0, tag).unwrap().1.len()
                }
            })
        });
        assert_eq!(out, vec![vec![0, 0], vec![2, 2]]);
    }

    #[test]
    fn task_mode_matches_thread_mode_virtual_times() {
        // Self-messaging: each rank drives its entire send→deliver→match→recv
        // pipeline on one thread, so there is no cross-thread progress race
        // and the virtual-time result must be bit-identical across launch
        // modes. (Cross-rank blocking traffic rides the real drain/post race
        // and is covered by the tolerance-based parity suite in
        // rankmpi-check instead.)
        let run = |mode: LaunchMode| {
            let u = Universe::builder().nodes(3).launch(mode).build();
            u.run(|env| {
                let world = env.world();
                let me = env.rank();
                let mut th = env.single_thread();
                for round in 0..3i64 {
                    world.send(&mut th, me, round, b"x").unwrap();
                }
                for round in 0..3i64 {
                    world.recv(&mut th, me as i64, round).unwrap();
                }
                th.clock.now()
            })
        };
        let threads = run(LaunchMode::Threads);
        let tasks = run(LaunchMode::Tasks(TaskLaunch::default()));
        assert_eq!(
            threads, tasks,
            "virtual time must not depend on launch mode"
        );
    }

    #[test]
    fn task_mode_split_gathers_across_rank_tasks() {
        let u = Universe::builder().nodes(4).tasks().build();
        let sizes = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let sub = world
                .split(&mut th, (env.rank() % 2) as i64, env.rank() as i64)
                .unwrap()
                .expect("non-negative color yields a communicator");
            sub.size()
        });
        assert_eq!(sizes, vec![2, 2, 2, 2]);
    }

    #[test]
    fn resolved_rendezvous_boards_are_dropped() {
        let u = Universe::builder().nodes(4).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            for key in 0..64 {
                world.split(&mut th, (env.rank() % 2) as i64, key).unwrap();
            }
            assert!(world.agree(&mut th, true).unwrap());
            world.shrink(&mut th).unwrap();
        });
        let s = u.shared();
        assert_eq!(s.split_boards.lock().len(), 0, "split boards left behind");
        assert_eq!(s.ft_boards.lock().len(), 0, "agreement boards left behind");
    }

    /// Three members of an `agree` park on its board; the fourth, the last
    /// outstanding, dies without contributing. Only the crash can wake them
    /// — a parked task has no timeout to fall back on — and they must return
    /// the survivors' verdict.
    #[test]
    fn a_crash_wakes_members_parked_on_an_agreement_board() {
        let one_worker = TaskLaunch {
            workers: 1,
            ..TaskLaunch::default()
        };
        let u = Universe::builder()
            .nodes(4)
            .launch(LaunchMode::Tasks(one_worker))
            .build();
        let shared = Arc::clone(u.shared());
        let contributed = || -> usize {
            let boards = shared.ft_boards.lock();
            boards.values().map(|b| b.contributed()).sum()
        };
        let verdicts = u.run_ft(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() < 3 {
                return world.agree(&mut th, true).unwrap();
            }
            // One worker and the largest clock: this task runs only while no
            // other is ready, so three contributions mean three parked tasks.
            while contributed() < 3 {
                th.clock.advance(Nanos(1_000_000));
            }
            env.proc()
                .ft()
                .liveness()
                .mark_crashed(env.rank(), th.clock.now());
            rankmpi_fabric::ft::crash_now();
        });
        assert_eq!(verdicts, vec![Some(true), Some(true), Some(true), None]);
    }
}
