//! The cooperative rank-task execution engine.
//!
//! `rankmpi` originally pinned every simulated rank-thread to an OS thread,
//! capping runs at tens of ranks. This module is the discrete-event core
//! that lifts that cap: each simulated thread becomes a **task** — an OS
//! thread used only as a stack carrier, parked except when the engine admits
//! it — and the engine multiplexes thousands of tasks over a small number of
//! concurrently-running workers, ordered by virtual time.
//!
//! The [`SchedPoint`] yield points introduced for deterministic checking are
//! the complete set of suspension points, and the engine promotes them into
//! its task-switch boundary: an admitted task runs until it reaches a yield
//! point (clock advance, lock acquire/release, barrier, mailbox push/drain,
//! notify poll) or blocks in a cooperative primitive, at which moment the
//! engine may hand its slot to another task.
//!
//! ## Task lifecycle
//!
//! ```text
//! Starting ──register──▶ Ready ──admit──▶ Running ──┬─ yield (ahead of
//!                          ▲                        │   the pack) ──▶ Ready
//!                          │                        ├─ park ──▶ Parked
//!                          └──────unpark────────────┘        (woken: Ready)
//!                                                   └─ return ──▶ Finished
//! ```
//!
//! Every task is reserved as `Starting` before its carrier exists: the root
//! tasks by [`run`], the children of a fork by [`fork_join`]. No task is
//! admitted while any reserved slot is still `Starting`, so the first choice
//! after a fork always sees the whole set, in task-id order.
//!
//! Blocking primitives never sleep on a condvar inside a task: they wait in
//! [`Notify::wait_until`](crate::Notify::wait_until), which registers the
//! task's [`Unparker`] with the notifier — published before a `SeqCst`
//! re-read of the version, which the notifier bumps before it looks for
//! registrations, so no wakeup is lost — then parks; a notify
//! drains the registered unparkers. A parked task costs zero CPU — this is
//! what lets 1k+ idle tasks coexist on one core. The one other wait is a
//! fork's join: the parent parks until its last child finishes.
//!
//! ## Dispatch policies
//!
//! - [`Dispatch::VirtualTime`]: up to `workers` tasks run concurrently; the
//!   ready queue is a min-heap on each task's last published virtual time,
//!   and a running task is preempted at a yield point only when some ready
//!   task trails it by more than `slack`. Virtual-time *results* are
//!   schedule-independent by design, so this policy only shapes wall-clock
//!   and memory, never outcomes — which is what makes thread-mode/task-mode
//!   parity testable. A yield point that does not switch decides from
//!   lock-free hints and takes no engine lock.
//! - [`Dispatch::Serialized`]: exactly one task runs at a time and every
//!   choice among ≥2 runnable tasks is delegated to a [`Chooser`] and
//!   recorded. This is the policy `rankmpi-check`'s deterministic scheduler
//!   is built on: a seeded chooser plus the recorded `(choice, arity)` list
//!   makes any interleaving replayable.

use std::cell::{Cell, RefCell};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::Thread;

use parking_lot::{Mutex, MutexGuard};

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

/// Counters describing one engine run.
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
    /// State-lock acquisitions; under `VirtualTime` only a yield point that may switch takes one.
    pub state_locks: u64,
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
    /// Scheduling counters of the run.
    pub metrics: EngineMetrics,
}

/// Thrown (via `panic_any`) into parked tasks once a run aborts, so their
/// carriers unwind instead of waiting forever. Not a failure by itself —
/// [`panic_message`] filters it out.
pub struct AbortRun;

/// Extract a displayable message from a task panic payload, or `None` if it
/// is the engine's own [`AbortRun`] (the collateral unwind of a parked task
/// after some other task failed).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> Option<String> {
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
    /// Blocked in a cooperative primitive until some [`Unparker`] fires, or
    /// in [`fork_join`] until its last child finishes.
    Parked,
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
    /// The task whose [`fork_join`] reserved this one.
    parent: Option<usize>,
    /// Unfinished children of this task's current fork.
    children: usize,
}

impl TaskSlot {
    fn starting(parent: Option<usize>) -> Self {
        TaskSlot {
            status: Status::Starting,
            vtime: 0,
            ready_stamp: 0,
            wake_pending: false,
            thread: None,
            parent,
            children: 0,
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
    starting: usize,
    alive: usize,
    ready_count: usize,
    steps: u64,
    locks: u64,
    hints: Arc<Hints>,
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
    stack_size: usize,
    hints: Arc<Hints>,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, State> {
        let mut st = self.state.lock();
        st.locks += 1;
        st
    }
}

/// All a running task reads at a yield point that does not switch
/// ([`yield_fast`]), on a cache line that lock traffic does not bounce.
/// Written only under the state lock and equal to the locked truth at every
/// unlock while no slot is `Starting` (see [`admit_fill`]): a racing reader
/// sees what some unlock published, the same as reaching its yield point a
/// moment earlier or later. `Relaxed`: they publish no other data, and the
/// lock decides whatever they cannot.
#[repr(align(64))]
struct Hints {
    /// Mirror of `State::abort`, set before any carrier is unparked.
    abort: AtomicBool,
    /// Least virtual time among ready tasks plus `slack` (`u64::MAX`: none is
    /// ready); a running task past it must ask under the lock.
    yield_above: AtomicU64,
}

/// A running task flushes its step count into `State::steps`, where the cap is
/// checked, at least this often: it overshoots by < `STEP_FLUSH` per live task.
const STEP_FLUSH: u64 = 64;

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
    /// `Shared::hints`, reached without touching `Shared`'s own lines.
    static HINTS: RefCell<Option<Arc<Hints>>> = const { RefCell::new(None) };
    /// Steps crossed on the lock-free path and not flushed yet.
    static STEPS: Cell<u64> = const { Cell::new(0) };
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
        let mut st = self.shared.lock();
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
    let ReadyQueue::Heap(h) = &mut st.ready else {
        unreachable!("virtual-time dispatch uses the heap");
    };
    loop {
        let Reverse((_, stamp, id)) = h.pop()?;
        let t = &st.tasks[id];
        if t.status == Status::Ready && t.ready_stamp == stamp {
            st.ready_count -= 1;
            return Some(id);
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

/// Fill free slots, then publish what is left waiting. Every `make_ready`
/// and every `running -= 1` of virtual-time dispatch is followed by this
/// under the same lock, which is what keeps `Hints::yield_above` exact —
/// except while a slot is `Starting`, when nothing may be admitted anyway
/// and the last registration republishes it.
fn admit_fill(st: &mut State, workers: usize, slack: u64) {
    while st.running < workers {
        match pop_best_ready(st) {
            Some(id) => admit(st, id),
            None => break,
        }
    }
    let above = peek_best_vtime(st).map_or(u64::MAX, |best| best.saturating_add(slack));
    st.hints.yield_above.store(above, Ordering::Relaxed);
}

/// Serialized dispatch: if no task is running, pick one among the ready set
/// (recording the choice when there are ≥ 2 candidates) and admit it.
fn dispatch_serialized(st: &mut State) {
    let (ReadyQueue::List(list), ModeState::Serialized { chooser }) = (&mut st.ready, &mut st.mode)
    else {
        unreachable!("serialized mode uses a list ready queue");
    };
    let k = list.len();
    if st.running > 0 || k == 0 {
        return;
    }
    list.sort_unstable();
    let idx = if k == 1 {
        0
    } else {
        let idx = chooser.choose(k).min(k - 1);
        st.decisions.push((idx as u32, k as u32));
        idx
    };
    let id = list.remove(idx);
    st.ready_count -= 1;
    admit(st, id);
}

/// Fill free slots according to the dispatch policy, but only once no
/// reserved slot is still `Starting`: admitting earlier would follow the
/// carriers' OS start order, so the first choice after [`run`] starts or a
/// task forks always sees the full candidate set, in task-id order.
fn dispatch_free(st: &mut State) {
    if st.starting > 0 {
        return;
    }
    match st.mode {
        ModeState::VirtualTime { workers, slack } => admit_fill(st, workers, slack),
        ModeState::Serialized { .. } => dispatch_serialized(st),
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
    st.hints.abort.store(true, Ordering::Relaxed);
    for t in &st.tasks {
        if let Some(th) = &t.thread {
            th.unpark();
        }
    }
}

/// Abort the run, reporting `msg` unless an earlier failure is recorded.
fn fail(st: &mut State, msg: String) {
    st.panic.get_or_insert(msg);
    abort_all(st);
}

/// Declare deadlock if every live task is parked: nothing can ever wake.
/// A parent joining its children is parked too, so a fork whose children
/// all wait forever is reported like any other.
fn maybe_deadlock(st: &mut State) {
    if !st.abort && st.alive > 0 && st.starting == 0 && st.running == 0 && st.ready_count == 0 {
        let msg = format!(
            "engine deadlock: all {} unfinished tasks are parked",
            st.parked
        );
        fail(st, msg);
    }
}

fn cap_abort(st: &mut State, cap: u64) {
    fail(
        st,
        format!("scheduler step cap {cap} exceeded (livelock or runaway spin)"),
    );
}

// ---------------------------------------------------------------------------
// Carrier-side operations.
// ---------------------------------------------------------------------------

/// Block the carrier until its task is admitted. Returns `false` if the run
/// aborted first.
fn wait_admitted(shared: &Shared, me: usize) -> bool {
    loop {
        {
            let st = shared.lock();
            if st.abort {
                return false;
            }
            if st.tasks[me].status == Status::Running {
                return true;
            }
        }
        std::thread::park();
    }
}

/// The lock-free side of a yield point under [`Dispatch::VirtualTime`]:
/// `true` when the task keeps its slot and that is all, `false` when
/// [`yield_now`] must decide under the lock (run aborted, step flush due, or a
/// ready task may trail by more than `slack`). Shares nothing but [`Hints`].
#[inline]
pub(crate) fn yield_fast() -> bool {
    HINTS.with(|h| {
        let h = h.borrow();
        let Some(hints) = h.as_deref() else {
            return false;
        };
        if hints.abort.load(Ordering::Relaxed) {
            return false;
        }
        let steps = STEPS.with(|s| s.get()) + 1;
        let ahead = VTIME.with(|v| v.get()) > hints.yield_above.load(Ordering::Relaxed);
        if ahead || steps >= STEP_FLUSH {
            return false;
        }
        STEPS.with(|s| s.set(steps));
        true
    })
}

/// The engine's side of a yield point: maybe hand the slot to another task.
fn yield_now(shared: &Arc<Shared>, me: usize) {
    let my_vt = VTIME.with(|v| v.get());
    let mut st = shared.lock();
    if st.abort {
        drop(st);
        std::panic::panic_any(AbortRun);
    }
    st.steps += 1 + STEPS.with(|s| s.replace(0));
    if st.steps > shared.step_cap {
        cap_abort(&mut st, shared.step_cap);
        drop(st);
        std::panic::panic_any(AbortRun);
    }
    st.tasks[me].vtime = my_vt;
    let hand_over = match st.mode {
        ModeState::VirtualTime { workers, slack } => {
            // See `admit_fill`: a slot is left free at an unlock only while
            // another is still `Starting`.
            debug_assert!(st.running == workers || st.ready_count == 0 || st.starting > 0);
            // Only when more than `slack` ahead of a ready task.
            peek_best_vtime(&mut st).is_some_and(|best| my_vt > best.saturating_add(slack))
        }
        // Every point is a recorded choice with this task among the candidates.
        ModeState::Serialized { .. } => true,
    };
    if hand_over {
        // Requeue at our own virtual time and let the dispatcher choose.
        make_ready(&mut st, me);
        st.running -= 1;
        dispatch_free(&mut st);
        if st.tasks[me].status != Status::Running {
            drop(st);
            if !wait_admitted(shared, me) {
                std::panic::panic_any(AbortRun);
            }
        }
    }
}

/// Park the running task `me` until an unpark makes it Ready and the
/// dispatcher admits it again, or return at once on a pending wake. `false`
/// once the run has aborted.
fn park_until_admitted(shared: &Shared, me: usize, mut st: MutexGuard<'_, State>) -> bool {
    if st.abort {
        return false;
    }
    if st.tasks[me].wake_pending {
        st.tasks[me].wake_pending = false;
        return true;
    }
    st.steps += 1 + STEPS.with(|s| s.replace(0));
    if st.steps > shared.step_cap {
        cap_abort(&mut st, shared.step_cap);
        return false;
    }
    st.tasks[me].vtime = VTIME.with(|v| v.get());
    st.tasks[me].status = Status::Parked;
    st.parked += 1;
    st.peak_parked = st.peak_parked.max(st.parked);
    st.running -= 1;
    dispatch_free(&mut st);
    maybe_deadlock(&mut st);
    drop(st);
    wait_admitted(shared, me)
}

/// Park the current task until some [`Unparker`] wakes it.
///
/// Callers must have registered an unparker with the awaited condition
/// before calling — *under the same lock that guards the condition*, or
/// published ahead of a `SeqCst` re-check of a condition whose writer reads
/// the registration only after writing — and must re-check the condition in
/// a loop afterwards: a consumed wake-pending flag or a drained stale
/// registration can produce spurious returns.
/// A no-op outside tasks.
/// [`Notify::wait_until`](crate::Notify::wait_until) is the one caller: a
/// task parks only through a notifier or in [`fork_join`].
pub(crate) fn park() {
    let Some((shared, me)) = current_ctx() else {
        return;
    };
    let st = shared.lock();
    if !park_until_admitted(&shared, me, st) {
        std::panic::panic_any(AbortRun);
    }
}

fn finish(shared: &Shared, me: usize, unflushed_steps: u64, panic_msg: Option<String>) {
    let mut st = shared.lock();
    st.steps += unflushed_steps;
    match st.tasks[me].status {
        Status::Running => st.running -= 1,
        Status::Parked => st.parked -= 1,
        _ => {}
    }
    st.tasks[me].status = Status::Finished;
    st.tasks[me].thread = None;
    st.alive -= 1;
    if let Some(parent) = st.tasks[me].parent {
        st.tasks[parent].children -= 1;
        if st.tasks[parent].children == 0 {
            unpark_task(&mut st, parent);
        }
    }
    if let Some(m) = panic_msg {
        fail(&mut st, m);
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

/// Makes the carrier thread task `me`'s, and clears its thread-locals on
/// drop (including unwinds).
struct TlsGuard;

impl TlsGuard {
    fn set(shared: Arc<Shared>, me: usize) -> Self {
        HINTS.with(|h| h.replace(Some(Arc::clone(&shared.hints))));
        CURRENT.with(|c| c.replace(Some((shared, me))));
        IN_TASK.with(|t| t.set(true));
        TlsGuard
    }
}

impl Drop for TlsGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.take());
        IN_TASK.with(|t| t.set(false));
        HINTS.with(|h| h.take());
    }
}

/// Register reserved task `me`, wait for its first admission, then run `f`
/// under the engine's hook. Returns `f`'s result or its unwind payload.
fn carrier_body<R>(
    shared: &Arc<Shared>,
    me: usize,
    f: impl FnOnce() -> R,
) -> std::thread::Result<R> {
    let armed = {
        let mut st = shared.lock();
        st.starting -= 1;
        st.tasks[me].thread = Some(std::thread::current());
        make_ready(&mut st, me);
        dispatch_free(&mut st);
        // `Serialized` keeps firing the hook at every point, like a user's.
        match st.mode {
            ModeState::VirtualTime { .. } => sched::Armed::Engine,
            ModeState::Serialized { .. } => sched::Armed::Hook,
        }
    };
    if !wait_admitted(shared, me) {
        finish(shared, me, 0, None);
        return Err(Box::new(AbortRun));
    }
    let hook: Arc<dyn SchedHook> = Arc::new(TaskHook {
        shared: Arc::clone(shared),
        me,
    });
    let (result, steps) = {
        let _hg = sched::install(hook, armed);
        let _tg = TlsGuard::set(Arc::clone(shared), me);
        let result = catch_unwind(AssertUnwindSafe(f));
        (result, STEPS.with(|s| s.get()))
    };
    let msg = result
        .as_ref()
        .err()
        .and_then(|p| panic_message(p.as_ref()));
    finish(shared, me, steps, msg);
    result
}

/// Start the carrier thread of reserved task `id` in `scope`.
fn spawn_carrier<'scope, R: Send + 'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    shared: &Arc<Shared>,
    id: usize,
    f: impl FnOnce() -> R + Send + 'scope,
) -> std::thread::ScopedJoinHandle<'scope, std::thread::Result<R>> {
    let carrier = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("rankmpi-task-{id}"))
        .stack_size(shared.stack_size)
        .spawn_scoped(scope, move || carrier_body(&carrier, id, f))
        .unwrap_or_else(|e| {
            // A slot left `Starting` would stop all admission: fail the run
            // so that every carrier already started can leave.
            let msg = format!("cannot start engine carrier {id}: {e}");
            fail(&mut shared.lock(), msg.clone());
            panic!("{msg}")
        })
}

/// Fork `n` child tasks running `f(0)`, …, `f(n - 1)` and join them: a
/// `#pragma omp parallel` region inside a task.
///
/// The children are reserved as `Starting` in index order before any carrier
/// starts, on the engine's carrier stack size. The calling task then parks,
/// holding no worker slot, until its last child finishes, and returns each
/// child's result or panic payload in index order. A child that panics
/// fails the run, as any task does.
///
/// # Panics
///
/// Outside an engine task; and with [`AbortRun`] when the run aborts while
/// every child returned.
pub fn fork_join<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<std::thread::Result<R>> {
    let (shared, me) = current_ctx().expect("engine::fork_join outside an engine task");
    let first = {
        let mut st = shared.lock();
        if st.abort {
            drop(st);
            std::panic::panic_any(AbortRun);
        }
        let first = st.tasks.len();
        st.tasks
            .extend((0..n).map(|_| TaskSlot::starting(Some(me))));
        st.tasks[me].children = n;
        st.starting += n;
        st.alive += n;
        st.peak_alive = st.peak_alive.max(st.alive);
        first
    };
    let f = &f;
    let results: Vec<_> = std::thread::scope(|scope| {
        let carriers: Vec<_> = (0..n)
            .map(|i| spawn_carrier(scope, &shared, first + i, move || f(i)))
            .collect();
        loop {
            let st = shared.lock();
            if st.tasks[me].children == 0 || !park_until_admitted(&shared, me, st) {
                break;
            }
        }
        // Every child has finished (or the run aborted): the joins wait only
        // for carriers that have already left the engine.
        carriers
            .into_iter()
            .map(|c| c.join().and_then(|r| r))
            .collect()
    });
    if shared.hints.abort.load(Ordering::Relaxed) && results.iter().all(Result::is_ok) {
        std::panic::panic_any(AbortRun);
    }
    results
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
    let hints = Arc::new(Hints {
        abort: AtomicBool::new(false),
        yield_above: AtomicU64::new(u64::MAX),
    });
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            tasks: (0..n).map(|_| TaskSlot::starting(None)).collect(),
            ready,
            mode,
            running: 0,
            parked: 0,
            starting: n,
            alive: n,
            ready_count: 0,
            steps: 0,
            locks: 0,
            hints: Arc::clone(&hints),
            switches: 0,
            decisions: Vec::new(),
            peak_ready: 0,
            peak_parked: 0,
            peak_alive: n,
            abort: false,
            panic: None,
        }),
        step_cap: cfg.step_cap,
        stack_size: cfg.stack_size,
        hints,
    });
    let results = std::thread::scope(|scope| {
        let carriers: Vec<_> = tasks
            .into_iter()
            .enumerate()
            .map(|(i, task)| spawn_carrier(scope, &shared, i, task))
            .collect();
        carriers
            .into_iter()
            .map(|c| c.join().ok().and_then(Result::ok))
            .collect()
    });
    let mut st = shared.lock();
    let metrics = EngineMetrics {
        task_switches: st.switches,
        ready_queue_depth: st.peak_ready,
        parked: st.peak_parked,
        peak_tasks: st.peak_alive,
        steps: st.steps,
        state_locks: st.locks,
    };
    Outcome {
        results,
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
        let tasks: Vec<TaskFn<'static, ()>> = vec![
            Box::new(move || wait_for(&a)),
            Box::new(move || {
                let mut c = crate::Clock::new();
                c.advance(Nanos(1_000)); // give the waiter a chance to park
                raise(&slot);
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
            park();
        })];
        let out = run(vt_cfg(2), tasks);
        let msg = out.panic.expect("deadlock must abort the run");
        assert!(msg.contains("deadlock"), "unexpected message: {msg}");
        assert_eq!(out.results, vec![None]);
    }

    /// Park the current task until `flag` is up; `raise` wakes it.
    fn wait_for(flag: &Mutex<(Option<Unparker>, bool)>) {
        loop {
            {
                let mut s = flag.lock();
                if s.1 {
                    return;
                }
                s.0 = Some(current_unparker().unwrap());
            }
            park();
        }
    }

    fn raise(flag: &Mutex<(Option<Unparker>, bool)>) {
        let up = {
            let mut s = flag.lock();
            s.1 = true;
            s.0.take()
        };
        if let Some(up) = up {
            up.unpark();
        }
    }

    #[test]
    fn a_joining_parent_holds_no_worker_slot() {
        // One worker. A's child waits for B, so B must run while A joins:
        // if the join held the slot, this would hang.
        let flag: Arc<Mutex<(Option<Unparker>, bool)>> = Arc::new(Mutex::new((None, false)));
        let f = Arc::clone(&flag);
        let tasks: Vec<TaskFn<'static, u32>> = vec![
            Box::new(move || {
                let (shared, me) = current_ctx().unwrap();
                let got = fork_join(1, |_| {
                    let st = shared.lock();
                    assert_eq!(st.tasks[me].status, Status::Parked);
                    assert_eq!(st.running, 1, "only the child holds the slot");
                    drop(st);
                    wait_for(&f);
                    99
                });
                got.into_iter().map(|r| r.unwrap()).sum()
            }),
            Box::new(move || {
                let mut c = crate::Clock::new();
                c.advance(Nanos(1_000));
                raise(&flag);
                0
            }),
        ];
        let out = run(vt_cfg(1), tasks);
        assert!(out.panic.is_none(), "{:?}", out.panic);
        assert_eq!(out.results, vec![Some(99), Some(0)]);
    }

    #[test]
    fn children_start_in_index_order_and_a_stuck_fork_is_a_deadlock() {
        let order: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        let tasks: Vec<TaskFn<'static, ()>> = vec![Box::new(move || {
            fork_join(4, |i| {
                o.lock().push(i);
                loop {
                    // Nothing will ever wake a child.
                    park();
                }
            });
        })];
        let out = run(vt_cfg(1), tasks);
        let msg = out
            .panic
            .expect("a fork whose children all park must abort");
        assert!(msg.contains("engine deadlock"), "unexpected message: {msg}");
        assert_eq!(*order.lock(), [0, 1, 2, 3]);
    }

    /// A task that only ever hits yield points and never parks.
    fn spinner() -> TaskFn<'static, ()> {
        Box::new(|| {
            let mut c = crate::Clock::new();
            loop {
                c.advance(Nanos(1));
            }
        })
    }

    #[test]
    fn panic_aborts_run_and_reports_first_message() {
        // The spinner never parks. With two workers it is running while the
        // other task panics, and must see the abort from its yield points.
        for workers in [1, 2] {
            let tasks: Vec<TaskFn<'static, ()>> =
                vec![spinner(), Box::new(|| panic!("deliberate engine failure"))];
            // No cap: the spinner would reach one before the panicking
            // task's carrier has even been spawned.
            let mut cfg = vt_cfg(workers);
            cfg.step_cap = u64::MAX;
            let out = run(cfg, tasks);
            assert_eq!(out.panic.as_deref(), Some("deliberate engine failure"));
        }
    }

    #[test]
    fn abort_reaches_parked_parents_and_running_children() {
        // Two workers: A forks two spinners and parks; once one spins, B
        // panics. The running child must stop at a yield point, the other
        // before its first admission, and the parked parent must wake and
        // hand back both children's unwinds.
        let spinning = Arc::new(AtomicBool::new(false));
        let s = Arc::clone(&spinning);
        let tasks: Vec<TaskFn<'static, usize>> = vec![
            Box::new(move || {
                let joined = fork_join(2, |_| {
                    s.store(true, Ordering::Relaxed);
                    loop {
                        sched::yield_point(SchedPoint::Custom("child-spin"));
                    }
                });
                joined.iter().filter(|r| r.is_err()).count()
            }),
            Box::new(move || {
                while !spinning.load(Ordering::Relaxed) {
                    sched::yield_point(SchedPoint::Custom("wait-for-spin"));
                }
                panic!("deliberate engine failure")
            }),
        ];
        let out = run(vt_cfg(2), tasks);
        assert_eq!(out.panic.as_deref(), Some("deliberate engine failure"));
        assert_eq!(out.results, vec![Some(2), None]);
    }

    #[test]
    fn step_cap_stops_runaway_spin() {
        // The cap still fires, at most one unflushed batch per task late.
        for n_tasks in [1, 3] {
            let mut cfg = vt_cfg(2);
            cfg.step_cap = 100;
            let out = run(cfg, (0..n_tasks).map(|_| spinner()).collect());
            let msg = out.panic.expect("step cap must abort");
            assert!(msg.contains("step cap"), "unexpected message: {msg}");
            assert!(out.steps > 100 && out.steps <= 100 + STEP_FLUSH * n_tasks);
        }
    }

    /// One task, `POINTS` clock advances, nothing to switch to.
    fn lone_advancer(dispatch: Dispatch) -> Outcome<()> {
        const POINTS: u64 = 100_000;
        let out = run(
            EngineConfig {
                dispatch,
                step_cap: u64::MAX,
                stack_size: 256 * 1024,
            },
            vec![Box::new(|| {
                let mut c = crate::Clock::new();
                for _ in 0..POINTS {
                    c.advance(Nanos(3));
                }
            }) as TaskFn<'static, ()>],
        );
        assert!(out.panic.is_none(), "{:?}", out.panic);
        assert_eq!(out.steps, POINTS, "every point is a step, none parks");
        assert_eq!(out.metrics.steps, POINTS);
        out
    }

    #[test]
    fn yield_points_that_do_not_switch_take_no_lock() {
        for workers in [1, 2] {
            let out = lone_advancer(Dispatch::VirtualTime {
                workers,
                slack: Nanos(100),
            });
            let locks = out.metrics.state_locks;
            assert!(
                locks <= out.steps / STEP_FLUSH + 64,
                "{locks} state-lock acquisitions for {} steps on {workers} workers",
                out.steps
            );
        }
        // The explorer's policy decides at every point, under the lock.
        let out = lone_advancer(Dispatch::Serialized(Box::new(RoundRobin(0))));
        assert!(out.metrics.state_locks >= out.steps);
    }

    /// The runner goes `lead` ns ahead of a parked task, wakes it, and
    /// crosses one more yield point. Returns the order things happened in.
    fn wake_then_yield(lead: u64) -> Vec<&'static str> {
        let log: Arc<Mutex<Vec<&'static str>>> = Arc::new(Mutex::new(Vec::new()));
        let slot: Mutex<(Option<Unparker>, bool)> = Mutex::new((None, false));
        let l = Arc::clone(&log);
        // Children start in index order on the one worker, so the waiter
        // has parked before the runner is first admitted.
        let tasks: Vec<TaskFn<'static, ()>> = vec![Box::new(move || {
            fork_join(2, |i| {
                if i == 0 {
                    wait_for(&slot);
                    l.lock().push("waiter ran");
                    return;
                }
                let mut c = crate::Clock::new();
                c.advance(Nanos(lead));
                assert!(slot.lock().0.is_some(), "the waiter has parked");
                raise(&slot); // the waiter is ready at virtual time 0
                l.lock().push("runner before its yield point");
                c.advance(Nanos(1));
                l.lock().push("runner after its yield point");
            });
        })];
        let out = run(vt_cfg(1), tasks); // slack 100
        assert!(out.panic.is_none(), "{:?}", out.panic);
        let order = log.lock().clone();
        order
    }

    #[test]
    fn runner_yields_to_a_ready_task_only_beyond_slack() {
        assert_eq!(
            wake_then_yield(1_000),
            [
                "runner before its yield point",
                "waiter ran",
                "runner after its yield point"
            ]
        );
        assert_eq!(
            wake_then_yield(50),
            [
                "runner before its yield point",
                "runner after its yield point",
                "waiter ran"
            ]
        );
    }

    #[test]
    fn a_fork_join_keeps_step_counts_exact() {
        let tasks: Vec<TaskFn<'static, ()>> = vec![Box::new(|| {
            let mut c = crate::Clock::new();
            for _ in 0..10 {
                c.advance(Nanos(1)); // counted task-locally, flushed at the join's park
            }
            fork_join(2, |_| {
                let mut c = crate::Clock::new();
                for _ in 0..50 {
                    c.advance(Nanos(1)); // within slack: no switch, flushed at finish
                }
            });
            for _ in 0..7 {
                c.advance(Nanos(1)); // flushed at finish
            }
        })];
        let out = run(vt_cfg(1), tasks);
        assert!(out.panic.is_none(), "{:?}", out.panic);
        assert_eq!(out.steps, 10 + 2 * 50 + 1 + 7, "points plus the one park");
        assert_eq!(
            out.metrics.task_switches, 4,
            "parent, two children, parent again"
        );
        assert_eq!(out.metrics.peak_tasks, 3);
    }

    #[test]
    fn user_hook_installed_inside_a_task_sees_every_point() {
        struct Count(AtomicUsize);
        impl SchedHook for Count {
            fn reached(&self, _p: SchedPoint) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let tasks: Vec<TaskFn<'static, usize>> = vec![Box::new(|| {
            let hook = Arc::new(Count(AtomicUsize::new(0)));
            let _g = sched::install_thread_hook(hook.clone() as Arc<dyn SchedHook>);
            let mut c = crate::Clock::new();
            for _ in 0..200 {
                c.advance(Nanos(1));
            }
            hook.0.load(Ordering::Relaxed)
        })];
        let out = run(vt_cfg(2), tasks);
        assert!(out.panic.is_none(), "{:?}", out.panic);
        assert_eq!(out.results, vec![Some(200)]);
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
    fn forked_children_join_a_running_engine() {
        let spawned = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<TaskFn<'static, usize>> = (0..4)
            .map(|_| {
                let spawned = Arc::clone(&spawned);
                Box::new(move || {
                    fork_join(8, |j| {
                        let mut c = crate::Clock::new();
                        c.advance(Nanos(5 * (j as u64 + 1)));
                        spawned.fetch_add(1, Ordering::Relaxed);
                        j
                    })
                    .into_iter()
                    .map(|r| r.unwrap())
                    .sum()
                }) as TaskFn<'static, usize>
            })
            .collect();
        let out = run(vt_cfg(2), tasks);
        assert!(out.panic.is_none(), "{:?}", out.panic);
        assert_eq!(spawned.load(Ordering::Relaxed), 32);
        assert!(out.results.iter().all(|r| *r == Some(28)));
        assert!(out.metrics.peak_tasks >= 4 + 8);
    }
}
