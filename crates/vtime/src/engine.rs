//! The cooperative rank-task execution engine.
//!
//! `rankmpi` originally pinned every simulated rank-thread to an OS thread,
//! capping runs at tens of ranks. This module is the discrete-event core
//! that lifts that cap: each simulated thread becomes a **task** — an OS
//! thread used only as a stack carrier, parked except when the engine admits
//! it — and the engine multiplexes thousands of tasks over a small number of
//! concurrently-running workers, ordered by virtual time.
//!
//! The [`SchedPoint`](crate::sched::SchedPoint) yield points introduced for
//! deterministic checking are the complete set of suspension points, and the
//! engine promotes them into its task-switch boundary: an admitted task runs
//! until it reaches a yield point (clock advance, lock acquire/release,
//! barrier, mailbox push/drain, notify poll) or blocks in a cooperative
//! primitive, at which moment the engine may hand its slot to another task.
//!
//! ## Task lifecycle
//!
//! ```text
//! Starting ──register──▶ Ready ──admit──▶ Running ──┬─ yield (ahead of
//!                          ▲                        │   the pack) ──▶ Ready
//!                          │                        ├─ park ──▶ Parked
//!                          └──────unpark────────────┘        (woken: Ready)
//!                                                   ├─ block_in_place
//!                                                   │     ──▶ Detached
//!                                                   └─ return ──▶ Finished
//! ```
//!
//! Blocking primitives never sleep on a condvar inside a task. Instead they
//! register an [`Unparker`] with the awaited object so that wakeups cannot
//! be lost — under the lock that guards the awaited condition, or (the
//! fabric's lock-free `Notify`) published before a `SeqCst` re-read of the
//! condition, which the waker writes before it looks for registrations —
//! then call [`park`]; the waker side drains registered unparkers after
//! publishing the condition. A parked task costs zero CPU — this is what
//! lets 1k+ idle tasks coexist on one core.
//!
//! ## Dispatch policies
//!
//! - [`Dispatch::VirtualTime`]: up to `workers` tasks run concurrently; the
//!   ready queue is a min-heap on each task's last published virtual time,
//!   and a running task is preempted at a yield point only when some ready
//!   task trails it by more than `slack`. Virtual-time *results* are
//!   schedule-independent by design, so this policy only shapes wall-clock
//!   and memory, never outcomes — which is what makes thread-mode/task-mode
//!   parity testable.
//! - [`Dispatch::Serialized`]: exactly one task runs at a time and every
//!   choice among ≥2 runnable tasks is delegated to a [`Chooser`] and
//!   recorded. This is the policy `rankmpi-check`'s deterministic scheduler
//!   is built on: a seeded chooser plus the recorded `(choice, arity)` list
//!   makes any interleaving replayable.
//!
//! ## Raw blocking
//!
//! A task that must block on something outside the engine's yield-point
//! vocabulary (joining scoped child threads, a plain condvar shared with
//! non-task threads) wraps the blocking section in [`block_in_place`], which
//! releases the task's worker slot for the duration so the tasks it is
//! waiting on can run.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use parking_lot::Mutex;

use crate::sched::{self, SchedHook, SchedPoint};
use crate::Nanos;

/// A root task: a closure run to completion on its own carrier thread.
pub type TaskFn<'env, R> = Box<dyn FnOnce() -> R + Send + 'env>;

/// Picks the next task at a serialized choice point.
///
/// `choose(arity)` must return an index in `0..arity`; out-of-range values
/// are clamped (hand-written replay prefixes may overshoot after refactors).
/// The engine records every `(choice, arity)` pair itself, so a chooser
/// needs no memory of its own beyond its randomness source.
pub trait Chooser: Send {
    /// Pick one of `arity` runnable tasks (sorted by task id).
    fn choose(&mut self, arity: usize) -> usize;
}

/// How the engine schedules admitted tasks.
pub enum Dispatch {
    /// Run up to `workers` tasks concurrently, least virtual time first;
    /// preempt a running task at a yield point only when a ready task
    /// trails it by more than `slack`.
    VirtualTime {
        /// Maximum concurrently-running tasks (≥ 1).
        workers: usize,
        /// How far ahead of the laggiest ready task a running task may get
        /// before it yields its slot. Larger values mean fewer switches.
        slack: Nanos,
    },
    /// Exactly one task runs at a time; every choice among ≥2 runnable
    /// tasks goes through the chooser and is recorded for replay.
    Serialized(Box<dyn Chooser>),
}

/// Engine configuration for one [`run`].
pub struct EngineConfig {
    /// Scheduling policy.
    pub dispatch: Dispatch,
    /// Abort the run once this many scheduling steps (yields + parks) have
    /// been crossed — a livelock/runaway-spin backstop.
    pub step_cap: u64,
    /// Carrier-thread stack size in bytes. Tasks exist to be numerous, so
    /// this should stay far below the OS default.
    pub stack_size: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            dispatch: Dispatch::VirtualTime {
                workers: std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
                slack: Nanos(100_000),
            },
            step_cap: u64::MAX,
            stack_size: 1 << 20,
        }
    }
}

/// Counters describing one engine run, for the `engine.*` metric family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Task admissions (switch-ins), including each task's first.
    pub task_switches: u64,
    /// Peak depth of the ready queue.
    pub ready_queue_depth: usize,
    /// Peak number of simultaneously parked tasks.
    pub parked: usize,
    /// Peak number of live (registered, unfinished) tasks.
    pub peak_tasks: usize,
    /// Total scheduling steps (yield points + parks) crossed.
    pub steps: u64,
}

/// What one engine run did.
pub struct Outcome<R> {
    /// Per-root-task results, in spawn order. `None` only if the run
    /// aborted (panic, deadlock, step cap) before that task returned.
    pub results: Vec<Option<R>>,
    /// Every serialized choice made: `(chosen_index, num_runnable)`.
    /// Empty under [`Dispatch::VirtualTime`].
    pub decisions: Vec<(u32, u32)>,
    /// Total scheduling steps crossed.
    pub steps: u64,
    /// Panic message of the first task that failed, or the engine's own
    /// deadlock/step-cap report.
    pub panic: Option<String>,
    /// Scheduling counters for the `engine.*` metric family.
    pub metrics: EngineMetrics,
}

/// Thrown (via `panic_any`) into parked tasks once a run aborts, so their
/// carriers unwind instead of waiting forever. Not a failure by itself —
/// [`panic_message`] filters it out.
pub struct AbortRun;

/// Extract a displayable message from a task panic payload, or `None` if it
/// is the engine's own [`AbortRun`] (the collateral unwind of a parked task
/// after some other task failed).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> Option<String> {
    if payload.downcast_ref::<AbortRun>().is_some() {
        return None;
    }
    Some(match payload.downcast_ref::<&str>() {
        Some(s) => (*s).to_string(),
        None => match payload.downcast_ref::<String>() {
            Some(s) => s.clone(),
            None => "non-string panic payload".to_string(),
        },
    })
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Slot allocated, carrier not yet registered.
    Starting,
    /// Runnable, waiting for a worker slot.
    Ready,
    /// Admitted: its carrier thread is executing.
    Running,
    /// Blocked in a cooperative primitive until some [`Unparker`] fires.
    Parked,
    /// Inside [`block_in_place`]: off the books, holding no slot.
    Detached,
    /// Returned (or unwound).
    Finished,
}

struct TaskSlot {
    status: Status,
    /// Last virtual time this task published (heap key while ready).
    vtime: u64,
    /// Bumped on every Ready transition; validates lazy heap entries.
    ready_stamp: u64,
    /// An unpark arrived while not parked; consume at the next park.
    wake_pending: bool,
    thread: Option<Thread>,
}

impl TaskSlot {
    fn starting() -> Self {
        TaskSlot {
            status: Status::Starting,
            vtime: 0,
            ready_stamp: 0,
            wake_pending: false,
            thread: None,
        }
    }
}

enum ReadyQueue {
    /// Min-heap on `(vtime, ready_stamp, id)` with lazy invalidation.
    Heap(BinaryHeap<Reverse<(u64, u64, usize)>>),
    /// Plain id list, sorted on demand (serialized choice points need a
    /// deterministic candidate order).
    List(Vec<usize>),
}

enum ModeState {
    VirtualTime { workers: usize, slack: u64 },
    Serialized { chooser: Box<dyn Chooser> },
}

struct State {
    tasks: Vec<TaskSlot>,
    ready: ReadyQueue,
    mode: ModeState,
    running: usize,
    parked: usize,
    detached: usize,
    starting: usize,
    alive: usize,
    ready_count: usize,
    steps: u64,
    switches: u64,
    decisions: Vec<(u32, u32)>,
    peak_ready: usize,
    peak_parked: usize,
    peak_alive: usize,
    abort: bool,
    panic: Option<String>,
}

struct Shared {
    state: Mutex<State>,
    step_cap: u64,
}

/// True once any engine has run in this process. Blocking primitives use it
/// to skip their task-waiter bookkeeping entirely in pure thread-mode
/// processes.
static EVER_ACTIVE: AtomicBool = AtomicBool::new(false);

/// Whether any engine has ever run in this process (cheap relaxed load).
#[inline]
pub fn ever_active() -> bool {
    EVER_ACTIVE.load(Ordering::Relaxed)
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<Shared>, usize)>> = const { RefCell::new(None) };
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
    static VTIME: Cell<u64> = const { Cell::new(0) };
}

fn current_ctx() -> Option<(Arc<Shared>, usize)> {
    if !IN_TASK.with(|t| t.get()) {
        return None;
    }
    CURRENT.with(|c| c.borrow().clone())
}

/// Whether the current thread is an engine task.
#[inline]
pub fn in_task() -> bool {
    IN_TASK.with(|t| t.get())
}

/// Publish the calling task's current virtual time to the engine. Called by
/// [`Clock`](crate::Clock) on every advance; a no-op outside tasks.
#[inline]
pub fn note_vtime(now: Nanos) {
    if IN_TASK.with(|t| t.get()) {
        VTIME.with(|v| v.set(now.as_ns()));
    }
}

/// A handle that can wake one specific parked task. Blocking primitives
/// store these next to the condition a task is waiting on and fire them
/// after publishing the condition. Unparking a task that is not parked sets
/// a wake-pending flag consumed by its next park, so the
/// register-check-park dance is race-free; unparking a finished task is a
/// no-op.
#[derive(Clone)]
pub struct Unparker {
    shared: Arc<Shared>,
    id: usize,
}

impl Unparker {
    /// Wake the task (move it Parked → Ready and re-dispatch).
    pub fn unpark(&self) {
        let mut st = self.shared.state.lock();
        unpark_task(&mut st, self.id);
    }
}

impl fmt::Debug for Unparker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Unparker").field("id", &self.id).finish()
    }
}

/// The current task's [`Unparker`], if the calling thread is a task.
pub fn current_unparker() -> Option<Unparker> {
    current_ctx().map(|(shared, id)| Unparker { shared, id })
}

/// Whether the current task's engine run has aborted (panic elsewhere,
/// deadlock, step cap). Raw-blocking loops inside [`block_in_place`] should
/// poll this so they stop waiting for peers that will never arrive.
pub fn aborted() -> bool {
    current_ctx().is_some_and(|(s, _)| s.state.lock().abort)
}

// ---------------------------------------------------------------------------
// State transitions (all called with the state lock held).
// ---------------------------------------------------------------------------

fn make_ready(st: &mut State, id: usize) {
    let t = &mut st.tasks[id];
    t.status = Status::Ready;
    t.ready_stamp += 1;
    let key = Reverse((t.vtime, t.ready_stamp, id));
    match &mut st.ready {
        ReadyQueue::Heap(h) => h.push(key),
        ReadyQueue::List(v) => v.push(id),
    }
    st.ready_count += 1;
    st.peak_ready = st.peak_ready.max(st.ready_count);
}

fn pop_best_ready(st: &mut State) -> Option<usize> {
    let State {
        ready,
        tasks,
        ready_count,
        ..
    } = st;
    match ready {
        ReadyQueue::Heap(h) => loop {
            let Reverse((_, stamp, id)) = h.pop()?;
            let t = &tasks[id];
            if t.status == Status::Ready && t.ready_stamp == stamp {
                *ready_count -= 1;
                return Some(id);
            }
        },
        ReadyQueue::List(v) => {
            if v.is_empty() {
                None
            } else {
                v.sort_unstable();
                *ready_count -= 1;
                Some(v.remove(0))
            }
        }
    }
}

/// Least virtual time among ready tasks, discarding stale heap entries.
fn peek_best_vtime(st: &mut State) -> Option<u64> {
    let State { ready, tasks, .. } = st;
    let ReadyQueue::Heap(h) = ready else {
        return None;
    };
    while let Some(&Reverse((vt, stamp, id))) = h.peek() {
        let t = &tasks[id];
        if t.status == Status::Ready && t.ready_stamp == stamp {
            return Some(vt);
        }
        h.pop();
    }
    None
}

fn admit(st: &mut State, id: usize) {
    debug_assert_eq!(st.tasks[id].status, Status::Ready);
    st.tasks[id].status = Status::Running;
    st.running += 1;
    st.switches += 1;
    if let Some(th) = &st.tasks[id].thread {
        th.unpark();
    }
}

fn admit_fill(st: &mut State, workers: usize) {
    while st.running < workers {
        match pop_best_ready(st) {
            Some(id) => admit(st, id),
            None => break,
        }
    }
}

/// Serialized dispatch: if no task is running, pick one among the ready set
/// (recording the choice when there are ≥ 2 candidates) and admit it.
fn dispatch_serialized(st: &mut State) {
    if st.running > 0 {
        return;
    }
    let k = {
        let ReadyQueue::List(list) = &mut st.ready else {
            unreachable!("serialized mode uses a list ready queue");
        };
        list.sort_unstable();
        list.len()
    };
    let id = match k {
        0 => return,
        1 => pop_best_ready(st).unwrap(),
        _ => {
            let idx = {
                let ModeState::Serialized { chooser } = &mut st.mode else {
                    unreachable!("list ready queue implies serialized mode");
                };
                chooser.choose(k).min(k - 1)
            };
            st.decisions.push((idx as u32, k as u32));
            let ReadyQueue::List(list) = &mut st.ready else {
                unreachable!();
            };
            let id = list.remove(idx);
            st.ready_count -= 1;
            id
        }
    };
    admit(st, id);
}

/// Fill free slots according to the dispatch policy. Serialized dispatch is
/// suppressed until every pre-allocated root task has registered, so the
/// first recorded choice always sees the full candidate set.
fn dispatch_free(st: &mut State) {
    match st.mode {
        ModeState::VirtualTime { workers, .. } => admit_fill(st, workers),
        ModeState::Serialized { .. } => {
            if st.starting == 0 {
                dispatch_serialized(st);
            }
        }
    }
}

fn unpark_task(st: &mut State, id: usize) {
    match st.tasks[id].status {
        Status::Parked => {
            st.parked -= 1;
            make_ready(st, id);
            dispatch_free(st);
        }
        Status::Finished => {}
        _ => st.tasks[id].wake_pending = true,
    }
}

fn abort_all(st: &mut State) {
    st.abort = true;
    for t in &st.tasks {
        if let Some(th) = &t.thread {
            th.unpark();
        }
    }
}

/// Declare deadlock if every live task is parked: nothing can ever wake.
fn maybe_deadlock(st: &mut State) {
    if !st.abort
        && st.alive > 0
        && st.starting == 0
        && st.running == 0
        && st.detached == 0
        && st.ready_count == 0
    {
        if st.panic.is_none() {
            st.panic = Some(format!(
                "engine deadlock: all {} unfinished tasks are parked",
                st.parked
            ));
        }
        abort_all(st);
    }
}

fn cap_abort(st: &mut State, cap: u64) {
    if st.panic.is_none() {
        st.panic = Some(format!(
            "scheduler step cap {cap} exceeded (livelock or runaway spin)"
        ));
    }
    abort_all(st);
}

// ---------------------------------------------------------------------------
// Carrier-side operations.
// ---------------------------------------------------------------------------

/// Block the carrier until its task is admitted. Returns `false` (or throws
/// [`AbortRun`]) if the run aborted first.
fn wait_admitted(shared: &Shared, me: usize, throw_on_abort: bool) -> bool {
    loop {
        {
            let st = shared.state.lock();
            if st.abort {
                drop(st);
                if throw_on_abort {
                    std::panic::panic_any(AbortRun);
                }
                return false;
            }
            if st.tasks[me].status == Status::Running {
                return true;
            }
        }
        std::thread::park();
    }
}

/// The engine's side of a yield point: maybe hand the slot to another task.
fn yield_now(shared: &Arc<Shared>, me: usize) {
    let my_vt = VTIME.with(|v| v.get());
    let mut st = shared.state.lock();
    if st.abort {
        drop(st);
        std::panic::panic_any(AbortRun);
    }
    if st.tasks[me].status != Status::Running {
        return; // inside block_in_place: the engine is not tracking us
    }
    st.steps += 1;
    if st.steps > shared.step_cap {
        cap_abort(&mut st, shared.step_cap);
        drop(st);
        std::panic::panic_any(AbortRun);
    }
    st.tasks[me].vtime = my_vt;
    match st.mode {
        ModeState::VirtualTime { workers, slack } => {
            admit_fill(&mut st, workers);
            if let Some(best) = peek_best_vtime(&mut st) {
                if my_vt > best.saturating_add(slack) {
                    // We are more than `slack` ahead of a ready task: hand
                    // over the slot and requeue at our own virtual time.
                    make_ready(&mut st, me);
                    st.running -= 1;
                    admit_fill(&mut st, workers);
                    drop(st);
                    wait_admitted(shared, me, true);
                }
            }
        }
        ModeState::Serialized { .. } => {
            let mut cands = {
                let ReadyQueue::List(list) = &st.ready else {
                    unreachable!();
                };
                list.clone()
            };
            cands.push(me);
            cands.sort_unstable();
            let k = cands.len();
            if k >= 2 {
                let idx = {
                    let ModeState::Serialized { chooser } = &mut st.mode else {
                        unreachable!();
                    };
                    chooser.choose(k).min(k - 1)
                };
                st.decisions.push((idx as u32, k as u32));
                let next = cands[idx];
                if next != me {
                    {
                        let ReadyQueue::List(list) = &mut st.ready else {
                            unreachable!();
                        };
                        let pos = list.iter().position(|&x| x == next).unwrap();
                        list.remove(pos);
                        st.ready_count -= 1;
                    }
                    make_ready(&mut st, me);
                    st.running -= 1;
                    admit(&mut st, next);
                    drop(st);
                    wait_admitted(shared, me, true);
                }
            }
        }
    }
}

/// Park the current task until some [`Unparker`] wakes it.
///
/// Callers must have registered an unparker with the awaited condition
/// before calling — *under the same lock that guards the condition*, or
/// published ahead of a `SeqCst` re-check of a condition whose writer reads
/// the registration only after writing — and must re-check the condition in
/// a loop afterwards: a consumed wake-pending flag or a drained stale
/// registration can produce spurious returns.
/// A no-op outside tasks and inside [`block_in_place`] sections.
pub fn park(point: SchedPoint) {
    let _ = point;
    let Some((shared, me)) = current_ctx() else {
        return;
    };
    let my_vt = VTIME.with(|v| v.get());
    let mut st = shared.state.lock();
    if st.abort {
        drop(st);
        std::panic::panic_any(AbortRun);
    }
    if st.tasks[me].status != Status::Running {
        return;
    }
    if st.tasks[me].wake_pending {
        st.tasks[me].wake_pending = false;
        return;
    }
    st.steps += 1;
    if st.steps > shared.step_cap {
        cap_abort(&mut st, shared.step_cap);
        drop(st);
        std::panic::panic_any(AbortRun);
    }
    st.tasks[me].vtime = my_vt;
    st.tasks[me].status = Status::Parked;
    st.parked += 1;
    st.peak_parked = st.peak_parked.max(st.parked);
    st.running -= 1;
    dispatch_free(&mut st);
    maybe_deadlock(&mut st);
    drop(st);
    wait_admitted(&shared, me, true);
}

/// Run `f` with the current task *detached*: its worker slot is released so
/// other tasks can run while `f` blocks outside the engine's vocabulary
/// (joining child carriers, a condvar shared with non-task threads).
/// Re-admission happens even if `f` unwinds. A transparent passthrough when
/// the caller is not a task or is already detached.
pub fn block_in_place<R>(f: impl FnOnce() -> R) -> R {
    let Some((shared, me)) = current_ctx() else {
        return f();
    };
    {
        let mut st = shared.state.lock();
        if st.abort {
            drop(st);
            std::panic::panic_any(AbortRun);
        }
        if st.tasks[me].status != Status::Running {
            drop(st);
            return f();
        }
        st.tasks[me].vtime = VTIME.with(|v| v.get());
        st.tasks[me].status = Status::Detached;
        st.detached += 1;
        st.running -= 1;
        dispatch_free(&mut st);
        maybe_deadlock(&mut st);
    }
    struct Readmit<'a> {
        shared: &'a Arc<Shared>,
        me: usize,
    }
    impl Drop for Readmit<'_> {
        fn drop(&mut self) {
            {
                let mut st = self.shared.state.lock();
                st.detached -= 1;
                make_ready(&mut st, self.me);
                dispatch_free(&mut st);
            }
            // Never throws: a panic here during an unwind would abort the
            // process. On engine abort this returns immediately.
            wait_admitted(self.shared, self.me, false);
        }
    }
    let r = {
        let _g = Readmit {
            shared: &shared,
            me,
        };
        f()
    };
    if shared.state.lock().abort {
        std::panic::panic_any(AbortRun);
    }
    r
}

fn finish(shared: &Shared, me: usize, panic_msg: Option<String>) {
    let mut st = shared.state.lock();
    match st.tasks[me].status {
        Status::Running => st.running -= 1,
        Status::Detached => st.detached -= 1,
        Status::Parked => st.parked -= 1,
        _ => {}
    }
    st.tasks[me].status = Status::Finished;
    st.tasks[me].thread = None;
    st.alive -= 1;
    if let Some(m) = panic_msg {
        if st.panic.is_none() {
            st.panic = Some(m);
        }
        abort_all(&mut st);
    } else if !st.abort {
        dispatch_free(&mut st);
        maybe_deadlock(&mut st);
    }
}

struct TaskHook {
    shared: Arc<Shared>,
    me: usize,
}

impl SchedHook for TaskHook {
    fn reached(&self, _point: SchedPoint) {
        yield_now(&self.shared, self.me);
    }
}

/// Restores the carrier's thread-locals on drop (including unwinds).
struct TlsGuard {
    prev: Option<(Arc<Shared>, usize)>,
    prev_in_task: bool,
    prev_vtime: u64,
}

impl TlsGuard {
    fn set(shared: Arc<Shared>, me: usize) -> Self {
        let prev = CURRENT.with(|c| c.borrow_mut().replace((shared, me)));
        let prev_in_task = IN_TASK.with(|t| t.replace(true));
        let prev_vtime = VTIME.with(|v| v.replace(0));
        TlsGuard {
            prev,
            prev_in_task,
            prev_vtime,
        }
    }
}

impl Drop for TlsGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
        IN_TASK.with(|t| t.set(self.prev_in_task));
        VTIME.with(|v| v.set(self.prev_vtime));
    }
}

/// Register task `me` (slot already allocated), wait for first admission,
/// then run `f` under the engine's hook. Returns the raw unwind payload on
/// panic so root and member carriers can handle it differently.
fn carrier_body<R>(
    shared: &Arc<Shared>,
    me: usize,
    preallocated: bool,
    f: impl FnOnce() -> R,
) -> Result<R, Box<dyn std::any::Any + Send>> {
    {
        let mut st = shared.state.lock();
        if preallocated {
            st.starting -= 1;
        }
        st.tasks[me].thread = Some(std::thread::current());
        make_ready(&mut st, me);
        dispatch_free(&mut st);
    }
    if !wait_admitted(shared, me, false) {
        finish(shared, me, None);
        return Err(Box::new(AbortRun));
    }
    let hook: Arc<dyn SchedHook> = Arc::new(TaskHook {
        shared: Arc::clone(shared),
        me,
    });
    let result = {
        let _hg = sched::install_thread_hook(hook);
        let _tg = TlsGuard::set(Arc::clone(shared), me);
        catch_unwind(AssertUnwindSafe(f))
    };
    match result {
        Ok(r) => {
            finish(shared, me, None);
            Ok(r)
        }
        Err(payload) => {
            // Peek at the payload for the report, then hand it back intact.
            let msg = if payload.downcast_ref::<AbortRun>().is_some() {
                None
            } else {
                Some(match payload.downcast_ref::<&str>() {
                    Some(s) => (*s).to_string(),
                    None => match payload.downcast_ref::<String>() {
                        Some(s) => s.clone(),
                        None => "non-string panic payload".to_string(),
                    },
                })
            };
            finish(shared, me, msg);
            Err(payload)
        }
    }
}

/// A capability to add tasks to a running engine, capturable by a task and
/// passed into threads it spawns (how `ProcEnv::parallel` turns its
/// simulated threads into sibling tasks).
#[derive(Clone)]
pub struct EngineHandle {
    shared: Arc<Shared>,
}

impl EngineHandle {
    /// Register the *calling thread* as a new engine task for the duration
    /// of `f`. Blocks until the engine first admits the task; panics from
    /// `f` are propagated to the caller after the task is unregistered (so
    /// a plain `join().unwrap()` surfaces them).
    pub fn run_member<R>(&self, f: impl FnOnce() -> R) -> R {
        let me = {
            let mut st = self.shared.state.lock();
            let id = st.tasks.len();
            st.tasks.push(TaskSlot::starting());
            st.alive += 1;
            st.peak_alive = st.peak_alive.max(st.alive);
            id
        };
        match carrier_body(&self.shared, me, false, f) {
            Ok(r) => r,
            Err(payload) => resume_unwind(payload),
        }
    }
}

/// The current task's engine, if the calling thread is a task.
pub fn handle() -> Option<EngineHandle> {
    current_ctx().map(|(shared, _)| EngineHandle { shared })
}

/// Run `tasks` to completion under the engine and collect their results.
///
/// Each task gets a small-stack carrier thread; the dispatch policy decides
/// which carriers may run at any moment. The call returns when every task
/// has finished or the run aborted (first panic, deadlock among parked
/// tasks, or step cap) — aborted runs report the failure in
/// [`Outcome::panic`] rather than panicking, so deterministic checkers can
/// treat failures as data.
pub fn run<'env, R: Send>(cfg: EngineConfig, tasks: Vec<TaskFn<'env, R>>) -> Outcome<R> {
    assert!(!tasks.is_empty(), "engine::run needs at least one task");
    EVER_ACTIVE.store(true, Ordering::Relaxed);
    let n = tasks.len();
    let mode = match cfg.dispatch {
        Dispatch::VirtualTime { workers, slack } => ModeState::VirtualTime {
            workers: workers.max(1),
            slack: slack.as_ns(),
        },
        Dispatch::Serialized(chooser) => ModeState::Serialized { chooser },
    };
    let ready = match mode {
        ModeState::VirtualTime { .. } => ReadyQueue::Heap(BinaryHeap::new()),
        ModeState::Serialized { .. } => ReadyQueue::List(Vec::new()),
    };
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            tasks: (0..n).map(|_| TaskSlot::starting()).collect(),
            ready,
            mode,
            running: 0,
            parked: 0,
            detached: 0,
            starting: n,
            alive: n,
            ready_count: 0,
            steps: 0,
            switches: 0,
            decisions: Vec::new(),
            peak_ready: 0,
            peak_parked: 0,
            peak_alive: n,
            abort: false,
            panic: None,
        }),
        step_cap: cfg.step_cap,
    });
    let results: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for (i, task) in tasks.into_iter().enumerate() {
            let shared = Arc::clone(&shared);
            let results = &results;
            std::thread::Builder::new()
                .name(format!("rankmpi-task-{i}"))
                .stack_size(cfg.stack_size)
                .spawn_scoped(scope, move || {
                    if let Ok(r) = carrier_body(&shared, i, true, task) {
                        results.lock()[i] = Some(r);
                    }
                })
                .expect("spawn engine carrier");
        }
    });
    let collected = std::mem::take(&mut *results.lock());
    let mut st = shared.state.lock();
    let metrics = EngineMetrics {
        task_switches: st.switches,
        ready_queue_depth: st.peak_ready,
        parked: st.peak_parked,
        peak_tasks: st.peak_alive,
        steps: st.steps,
    };
    Outcome {
        results: collected,
        decisions: std::mem::take(&mut st.decisions),
        steps: st.steps,
        panic: st.panic.clone(),
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn vt_cfg(workers: usize) -> EngineConfig {
        EngineConfig {
            dispatch: Dispatch::VirtualTime {
                workers,
                slack: Nanos(100),
            },
            step_cap: 1_000_000,
            stack_size: 256 * 1024,
        }
    }

    #[test]
    fn tasks_run_and_results_keep_spawn_order() {
        for workers in [1, 4] {
            let tasks: Vec<TaskFn<'static, usize>> = (0..32usize)
                .map(|i| {
                    Box::new(move || {
                        let mut c = crate::Clock::new();
                        for _ in 0..10 {
                            c.advance(Nanos(7));
                        }
                        i
                    }) as TaskFn<'static, usize>
                })
                .collect();
            let out = run(vt_cfg(workers), tasks);
            assert!(out.panic.is_none(), "{:?}", out.panic);
            let got: Vec<usize> = out.results.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(got, (0..32).collect::<Vec<_>>());
            assert!(out.metrics.peak_tasks >= 32);
        }
    }

    #[test]
    fn park_unpark_handoff_completes() {
        let slot: Arc<Mutex<(Option<Unparker>, bool)>> = Arc::new(Mutex::new((None, false)));
        let a = Arc::clone(&slot);
        let b = Arc::clone(&slot);
        let tasks: Vec<TaskFn<'static, ()>> = vec![
            Box::new(move || {
                // Register, then park until the flag is up.
                loop {
                    {
                        let mut s = a.lock();
                        if s.1 {
                            return;
                        }
                        s.0 = Some(current_unparker().unwrap());
                    }
                    park(SchedPoint::Custom("test-wait"));
                }
            }),
            Box::new(move || {
                let mut c = crate::Clock::new();
                c.advance(Nanos(1_000)); // give the waiter a chance to park
                let up = {
                    let mut s = b.lock();
                    s.1 = true;
                    s.0.take()
                };
                if let Some(up) = up {
                    up.unpark();
                }
            }),
        ];
        let out = run(vt_cfg(1), tasks);
        assert!(out.panic.is_none(), "{:?}", out.panic);
        assert!(out.metrics.parked <= 1);
    }

    #[test]
    fn all_parked_is_reported_as_deadlock() {
        let tasks: Vec<TaskFn<'static, ()>> = vec![Box::new(|| loop {
            // Parks with no registered waker: nothing can ever wake us.
            park(SchedPoint::Custom("forever"));
        })];
        let out = run(vt_cfg(2), tasks);
        let msg = out.panic.expect("deadlock must abort the run");
        assert!(msg.contains("deadlock"), "unexpected message: {msg}");
        assert_eq!(out.results, vec![None]);
    }

    #[test]
    fn block_in_place_releases_the_worker_slot() {
        // With one worker, A raw-blocks on a channel fed by B. Without
        // releasing the slot, B could never run and this would hang.
        let (tx, rx) = std::sync::mpsc::channel::<u32>();
        let tasks: Vec<TaskFn<'static, u32>> = vec![
            Box::new(move || block_in_place(|| rx.recv().unwrap())),
            Box::new(move || {
                let mut c = crate::Clock::new();
                c.advance(Nanos(10));
                tx.send(99).unwrap();
                0
            }),
        ];
        let out = run(vt_cfg(1), tasks);
        assert!(out.panic.is_none(), "{:?}", out.panic);
        assert_eq!(out.results[0], Some(99));
    }

    #[test]
    fn panic_aborts_run_and_reports_first_message() {
        let tasks: Vec<TaskFn<'static, ()>> = vec![
            Box::new(|| {
                let mut c = crate::Clock::new();
                loop {
                    c.advance(Nanos(1));
                }
            }),
            Box::new(|| panic!("deliberate engine failure")),
        ];
        let out = run(vt_cfg(1), tasks);
        assert_eq!(out.panic.as_deref(), Some("deliberate engine failure"));
    }

    #[test]
    fn step_cap_stops_runaway_spin() {
        let mut cfg = vt_cfg(1);
        cfg.step_cap = 100;
        let tasks: Vec<TaskFn<'static, ()>> = vec![Box::new(|| {
            let mut c = crate::Clock::new();
            loop {
                c.advance(Nanos(1));
            }
        })];
        let out = run(cfg, tasks);
        let msg = out.panic.expect("step cap must abort");
        assert!(msg.contains("step cap"), "unexpected message: {msg}");
    }

    struct RoundRobin(usize);
    impl Chooser for RoundRobin {
        fn choose(&mut self, arity: usize) -> usize {
            let i = self.0 % arity;
            self.0 += 1;
            i
        }
    }

    #[test]
    fn serialized_mode_records_replayable_decisions() {
        let run_once = || {
            let log: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
            let tasks: Vec<TaskFn<'static, ()>> = (0..3)
                .map(|id| {
                    let log = Arc::clone(&log);
                    Box::new(move || {
                        for _ in 0..4 {
                            log.lock().push(id);
                            sched::yield_point(SchedPoint::Custom("t"));
                        }
                    }) as TaskFn<'static, ()>
                })
                .collect();
            let out = run(
                EngineConfig {
                    dispatch: Dispatch::Serialized(Box::new(RoundRobin(0))),
                    step_cap: 10_000,
                    stack_size: 256 * 1024,
                },
                tasks,
            );
            assert!(out.panic.is_none(), "{:?}", out.panic);
            let interleaving = log.lock().clone();
            (out.decisions, interleaving)
        };
        let (d1, l1) = run_once();
        let (d2, l2) = run_once();
        assert_eq!(d1, d2, "serialized runs must be deterministic");
        assert_eq!(l1, l2);
        assert!(!d1.is_empty(), "3 tasks must produce real choice points");
        // Serialized mode runs one task at a time, so the interleaving the
        // round-robin chooser produces must not be one task at a stretch.
        assert!(l1.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn member_tasks_join_a_running_engine() {
        let spawned = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<TaskFn<'static, usize>> = (0..4)
            .map(|_| {
                let spawned = Arc::clone(&spawned);
                Box::new(move || {
                    let h = handle().expect("root task has a handle");
                    block_in_place(|| {
                        std::thread::scope(|s| {
                            let joins: Vec<_> = (0..8)
                                .map(|j| {
                                    let h = h.clone();
                                    let spawned = Arc::clone(&spawned);
                                    s.spawn(move || {
                                        h.run_member(move || {
                                            let mut c = crate::Clock::new();
                                            c.advance(Nanos(5 * (j + 1)));
                                            spawned.fetch_add(1, Ordering::Relaxed);
                                            j as usize
                                        })
                                    })
                                })
                                .collect();
                            joins.into_iter().map(|h| h.join().unwrap()).sum()
                        })
                    })
                }) as TaskFn<'static, usize>
            })
            .collect();
        let out = run(vt_cfg(2), tasks);
        assert!(out.panic.is_none(), "{:?}", out.panic);
        assert_eq!(spawned.load(Ordering::Relaxed), 32);
        assert!(out.results.iter().all(|r| *r == Some(28)));
        assert!(out.metrics.peak_tasks > 4);
    }
}
