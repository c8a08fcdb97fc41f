//! Nonblocking-operation requests.
//!
//! A [`Request`] comes in two shapes. An eager send is complete the moment
//! it is injected: nobody else will ever touch it and nobody can be blocked
//! on it, so it is a plain value ([`Request::Done`]) — no allocation, no
//! shared state, no notification on the sender's own notifier.
//!
//! A receive is completed by whoever drains the mailbox, so its state
//! ([`ReqState`]) is shared. Its life writes only lines the receiving side
//! owns:
//! - it is taken from a bounded per-thread spare list that dropped requests
//!   refill, so a warm receive allocates nothing and clones no notifier;
//! - completion is one CAS on a completion word plus a `Release` store, and
//!   taking the outcome one CAS: no mutex;
//! - a request completed inside a VCI engine section is not notified one by
//!   one: the section rings the VCI's notifier once at its end
//!   ([`Vci::progress`](crate::vci::Vci::progress)).

use std::cell::{RefCell, UnsafeCell};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use rankmpi_fabric::Notify;
use rankmpi_vtime::Nanos;

use crate::error::RankMpiError;
use crate::matching::Status;

/// What a completed request hands out once.
type Outcome = Result<(Status, Bytes), RankMpiError>;

/// Completion-word states, in the only order a request moves through them.
const PENDING: u8 = 0;
/// A completer won the request and is writing its outcome.
const WRITING: u8 = 1;
/// The outcome is published.
const COMPLETE: u8 = 2;
/// The outcome was handed out.
const TAKEN: u8 = 3;

/// Spare request states per thread, like the matching engine's spare queues.
const SPARES: usize = 64;

thread_local! {
    /// States that dropped requests handed back, for this thread's next
    /// receives.
    static SPARE_STATES: RefCell<Vec<Arc<ReqState>>> = const { RefCell::new(Vec::new()) };
}

/// Shared completion state of one request.
///
/// Completion is two-phase: the *real* completion word flips once the library
/// has logically finished the operation, and `finish_at` records the *virtual*
/// time of completion. A waiting thread blocks (for real) on the word, then
/// advances its virtual clock to `finish_at`.
///
/// A request can complete with an error (`fail`): the reliability layer uses
/// this when a message's retries are exhausted, so the receiver's wait
/// returns instead of hanging on a packet that will never arrive.
#[derive(Debug)]
pub struct ReqState {
    /// `PENDING` → `WRITING` → `COMPLETE` → `TAKEN`. The two CAS steps
    /// decide who owns `outcome`: the completer between its CAS and its
    /// `COMPLETE` store, the taker after its CAS.
    state: AtomicU8,
    finish_at: AtomicU64,
    outcome: UnsafeCell<Option<Outcome>>,
    notify: Arc<Notify>,
}

// SAFETY: `outcome` is the only field that is not `Sync`, and the completion
// word gives it one accessor at a time. Only the settle that wins
// `PENDING → WRITING` writes it, before its `Release` store of `COMPLETE`.
// Only the take that wins `COMPLETE → TAKEN` (an `Acquire` CAS, so it sees
// that write) reads it. Both CASes succeed at most once per life, and a life
// restarts only through `&mut` (`recycle`). The outcome itself is `Send`.
unsafe impl Sync for ReqState {}

impl ReqState {
    /// A pending request that signals `notify` on completion.
    pub fn new(notify: Arc<Notify>) -> Arc<Self> {
        Arc::new(ReqState {
            state: AtomicU8::new(PENDING),
            finish_at: AtomicU64::new(0),
            outcome: UnsafeCell::new(None),
            notify,
        })
    }

    /// A pending request with a private notifier (tests, internal protocols).
    pub fn detached() -> Arc<Self> {
        Self::new(Arc::new(Notify::new()))
    }

    /// A pending request on `notify`: a spare this thread's dropped requests
    /// left behind if one waits on the same notifier, a fresh one otherwise.
    pub(crate) fn recycled(notify: &Arc<Notify>) -> Arc<Self> {
        let spare = SPARE_STATES.try_with(|spares| {
            let mut spares = spares.borrow_mut();
            let at = spares
                .iter()
                .rposition(|s| Arc::ptr_eq(&s.notify, notify))?;
            Some(spares.swap_remove(at))
        });
        spare
            .ok()
            .flatten()
            .unwrap_or_else(|| Self::new(Arc::clone(notify)))
    }

    /// Hand `state` back to this thread's spares if nobody else holds it,
    /// dropping any outcome nobody took. A state still shared (a user clone,
    /// the engine's clone mid-drain) is left to its last owner to free.
    pub(crate) fn recycle(state: &mut Arc<Self>) {
        let Some(s) = Arc::get_mut(state) else {
            return;
        };
        *s.state.get_mut() = PENDING;
        *s.finish_at.get_mut() = 0;
        *s.outcome.get_mut() = None;
        let _ = SPARE_STATES.try_with(|spares| {
            let mut spares = spares.borrow_mut();
            if spares.len() < SPARES {
                spares.push(Arc::clone(state));
            }
        });
    }

    /// Complete the request at virtual time `finish_at` and wake waiters.
    pub fn complete(&self, finish_at: Nanos, status: Status, data: Bytes) {
        self.settle(finish_at, Ok((status, data)));
        self.notify.notify();
    }

    /// Complete the request *with an error* at virtual time `finish_at` and
    /// wake waiters. Used when the fabric's reliability layer gives up on the
    /// message this request was matched against.
    pub fn fail(&self, finish_at: Nanos, err: RankMpiError) {
        self.settle(finish_at, Err(err));
        self.notify.notify();
    }

    /// Complete the request inside an engine section that rings `section`
    /// once at its end: a request waiting on `section` is left to that ring,
    /// any other is notified now. Returns whether `section` is owed its ring.
    pub(crate) fn settle_in(&self, finish_at: Nanos, outcome: Outcome, section: &Notify) -> bool {
        self.settle(finish_at, outcome);
        let owed = std::ptr::eq(&*self.notify, section);
        if !owed {
            self.notify.notify();
        }
        owed
    }

    /// Publish the outcome: one CAS, the slot, one `Release` store. Panics
    /// if the request was already completed.
    fn settle(&self, finish_at: Nanos, outcome: Outcome) {
        let won =
            self.state
                .compare_exchange(PENDING, WRITING, Ordering::Acquire, Ordering::Relaxed);
        assert!(won.is_ok(), "request completed twice");
        // SAFETY: winning `PENDING → WRITING` makes this the slot's only
        // accessor until the `COMPLETE` store below (see `impl Sync`).
        unsafe { *self.outcome.get() = Some(outcome) };
        self.finish_at.store(finish_at.as_ns(), Ordering::Relaxed);
        self.state.store(COMPLETE, Ordering::Release);
    }

    /// Whether the request has completed.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.state.load(Ordering::Acquire) >= COMPLETE
    }

    /// Virtual completion time (valid once complete).
    pub fn finish_at(&self) -> Nanos {
        Nanos(self.finish_at.load(Ordering::Relaxed))
    }

    /// Take the completion payload. Panics if not complete, taken twice, or
    /// the request completed with an error (use [`take_outcome`] for the
    /// non-panicking path).
    ///
    /// [`take_outcome`]: ReqState::take_outcome
    pub fn take_result(&self) -> (Status, Bytes) {
        match self.take_outcome() {
            Ok(r) => r,
            Err(e) => panic!("request failed: {e}"),
        }
    }

    /// Take the completion outcome — `Ok((status, payload))` or the error the
    /// request failed with. Panics if not complete or taken twice.
    pub fn take_outcome(&self) -> Result<(Status, Bytes), RankMpiError> {
        let won =
            self.state
                .compare_exchange(COMPLETE, TAKEN, Ordering::Acquire, Ordering::Relaxed);
        assert!(
            won.is_ok(),
            "request result taken before completion (or twice)"
        );
        // SAFETY: winning `COMPLETE → TAKEN` makes this the slot's only
        // accessor, after the completer's writes (see `impl Sync`).
        let outcome = unsafe { (*self.outcome.get()).take() };
        outcome.expect("a completed request holds its outcome")
    }

    /// The notifier signaled on completion.
    pub fn notify_handle(&self) -> Arc<Notify> {
        Arc::clone(&self.notify)
    }

    /// Block the real thread until complete or the real-time `deadline`
    /// passes (`None`: never), driving `progress` (the caller's hook: drain
    /// mailboxes, match messages) between notifications. Returns whether the
    /// request completed; on expiry it stays pending. A request complete on
    /// entry returns without calling `progress`.
    pub fn block_until_complete(
        &self,
        deadline: Option<Instant>,
        mut progress: impl FnMut(),
    ) -> bool {
        self.notify
            .wait_until_deadline(deadline, || {
                if !self.is_complete() {
                    progress();
                }
                self.is_complete().then_some(())
            })
            .is_some()
    }
}

/// A handle to a pending or completed nonblocking operation.
///
/// Unlike C MPI, `wait` returns the received payload (`Bytes`) rather than
/// filling a caller-provided buffer — the Rust-idiomatic equivalent that keeps
/// buffer ownership sound across threads. Send requests complete with an empty
/// payload.
#[derive(Debug, Clone)]
pub enum Request {
    /// Complete when it was created — every eager send. Nobody can be
    /// blocked on such a request, so there is nothing to share and nobody to
    /// wake: the outcome is carried inline.
    Done {
        /// Virtual completion time.
        finish_at: Nanos,
        /// What `wait` returns (with an empty payload).
        status: Status,
    },
    /// Completed by another party through shared state — every receive.
    /// Dropping the last handle recycles the state.
    Shared {
        /// The completion state.
        state: Arc<ReqState>,
        /// Progress hook: the VCI whose mailbox must be drained for this
        /// request to complete (`None` once it already has).
        progress_vci: Option<Arc<crate::vci::Vci>>,
    },
}

impl Request {
    /// A request that will be completed through `state`, progressed by
    /// draining `vci`.
    pub fn pending(state: Arc<ReqState>, vci: Arc<crate::vci::Vci>) -> Self {
        Request::Shared {
            state,
            progress_vci: Some(vci),
        }
    }

    /// An already-completed request that carries a payload (a receive that
    /// matched at once).
    pub fn ready(state: Arc<ReqState>) -> Self {
        debug_assert!(state.is_complete());
        Request::Shared {
            state,
            progress_vci: None,
        }
    }

    /// Nonblocking completion test. On completion advances `clock` to the
    /// completion time and returns the status/payload. Panics if the request
    /// completed with an error (fatal semantics; see [`wait_outcome`] for the
    /// returning path).
    ///
    /// [`wait_outcome`]: Request::wait_outcome
    pub fn test(&self, clock: &mut rankmpi_vtime::Clock) -> Option<(Status, Bytes)> {
        if let Request::Shared {
            progress_vci: Some(vci),
            ..
        } = self
        {
            vci.progress(clock);
        }
        if !self.is_complete() {
            return None;
        }
        clock.wait_until(self.finish_at());
        Some(match self {
            Request::Done { status, .. } => (*status, Bytes::new()),
            Request::Shared { state, .. } => state.take_result(),
        })
    }

    /// Block until complete; returns status and payload, advancing `clock` to
    /// the virtual completion time. Panics if the request completed with an
    /// error — the `MPI_ERRORS_ARE_FATAL` behavior. Use [`wait_outcome`] (or
    /// a communicator with `Errhandler::ErrorsReturn`) to receive the error.
    ///
    /// [`wait_outcome`]: Request::wait_outcome
    pub fn wait(&self, clock: &mut rankmpi_vtime::Clock) -> (Status, Bytes) {
        match self.wait_outcome(clock) {
            Ok(r) => r,
            Err(e) => panic!("request failed: {e}"),
        }
    }

    /// Block until complete; returns the outcome — `Ok((status, payload))` or
    /// the [`RankMpiError`] the library completed the request with (e.g.
    /// `RetriesExhausted` when the reliability layer gave up on the matching
    /// message). `clock` advances to the virtual completion time either way.
    pub fn wait_outcome(
        &self,
        clock: &mut rankmpi_vtime::Clock,
    ) -> Result<(Status, Bytes), RankMpiError> {
        self.wait_bounded(clock, None)
    }

    /// Bounded wait: like [`wait_outcome`] but gives up after `timeout` of
    /// *real* time, returning `Err(RankMpiError::Timeout)`. On expiry the
    /// request is left pending — a later `wait`/`wait_timeout` can still
    /// complete it.
    ///
    /// [`wait_outcome`]: Request::wait_outcome
    pub fn wait_timeout(
        &self,
        clock: &mut rankmpi_vtime::Clock,
        timeout: Duration,
    ) -> Result<(Status, Bytes), RankMpiError> {
        self.wait_bounded(clock, Some(timeout))
    }

    fn wait_bounded(
        &self,
        clock: &mut rankmpi_vtime::Clock,
        timeout: Option<Duration>,
    ) -> Result<(Status, Bytes), RankMpiError> {
        let entered_at = clock.now();
        // A blocking point. The scratch progress below runs at this clock,
        // so it is what the waiter publishes.
        clock.publish();
        let mut res = rankmpi_obs::trace::ResId::NONE;
        if let Request::Shared {
            state,
            progress_vci: Some(vci),
        } = self
        {
            res = vci.res_id();
            // Drive progress with a scratch clock while blocked: the matching
            // work done on behalf of *other* requests should not advance this
            // thread past its own completion time. The scratch is re-cloned
            // from the wait-entry clock on every poll so that repeated idle
            // polls (whose count depends on real scheduling, not virtual
            // time) cannot ratchet the engine's virtual schedule forward.
            let base = clock.clone();
            let progress = || {
                let mut scratch = base.clone();
                vci.progress(&mut scratch);
            };
            let started = timeout.map(|t| (Instant::now(), t));
            if !state.block_until_complete(started.map(|(at, t)| at + t), progress) {
                let waited = started.map_or(Duration::ZERO, |(at, _)| at.elapsed());
                return Err(RankMpiError::Timeout {
                    waited_ms: waited.as_millis() as u64,
                });
            }
        }
        debug_assert!(self.is_complete(), "no progress hook, so born complete");
        clock.wait_until(self.finish_at());
        rankmpi_obs::trace::wait("pt2pt", "req_wait", entered_at, clock.now(), res);
        match self {
            Request::Done { status, .. } => Ok((*status, Bytes::new())),
            Request::Shared { state, .. } => state.take_outcome(),
        }
    }

    /// Whether the request has completed (no progress attempted).
    pub fn is_complete(&self) -> bool {
        match self {
            Request::Done { .. } => true,
            Request::Shared { state, .. } => state.is_complete(),
        }
    }

    /// Virtual completion time (valid once complete).
    pub fn finish_at(&self) -> Nanos {
        match self {
            Request::Done { finish_at, .. } => *finish_at,
            Request::Shared { state, .. } => state.finish_at(),
        }
    }
}

impl Drop for Request {
    /// A receive's state goes back to this thread's spares when this was
    /// its last handle.
    fn drop(&mut self) {
        if let Request::Shared { state, .. } = self {
            ReqState::recycle(state);
        }
    }
}

/// Wait for all requests, like `MPI_Waitall`. Returns statuses/payloads in
/// request order; `clock` ends at the max completion time.
pub fn wait_all(clock: &mut rankmpi_vtime::Clock, reqs: &[Request]) -> Vec<(Status, Bytes)> {
    reqs.iter().map(|r| r.wait(clock)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_then_take() {
        let r = ReqState::detached();
        assert!(!r.is_complete());
        r.complete(
            Nanos(77),
            Status {
                source: 3,
                tag: 9,
                len: 2,
            },
            Bytes::from_static(b"ab"),
        );
        assert!(r.is_complete());
        assert_eq!(r.finish_at(), Nanos(77));
        let (st, data) = r.take_result();
        assert_eq!(st.source, 3);
        assert_eq!(&data[..], b"ab");
    }

    #[test]
    fn failed_request_returns_the_error() {
        let r = ReqState::detached();
        r.fail(Nanos(42), RankMpiError::LinkDown { src: 7 });
        assert!(r.is_complete());
        assert_eq!(r.finish_at(), Nanos(42));
        assert_eq!(r.take_outcome(), Err(RankMpiError::LinkDown { src: 7 }));
    }

    #[test]
    #[should_panic(expected = "request failed")]
    fn take_result_panics_on_failed_request() {
        let r = ReqState::detached();
        r.fail(
            Nanos(1),
            RankMpiError::RetriesExhausted {
                src: 0,
                attempts: 4,
            },
        );
        let _ = r.take_result();
    }

    #[test]
    fn completion_wakes_blocked_thread() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let r = ReqState::detached();
        let r2 = Arc::clone(&r);
        // The progress callback flags that the waiter is inside
        // block_until_complete, so completion deterministically happens
        // while it is blocked — no timing assumption.
        let polling = Arc::new(AtomicBool::new(false));
        let polling2 = Arc::clone(&polling);
        let t = std::thread::spawn(move || {
            r2.block_until_complete(None, || polling2.store(true, Ordering::SeqCst));
            r2.finish_at()
        });
        while !polling.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        r.complete(
            Nanos(123),
            Status {
                source: 0,
                tag: 0,
                len: 0,
            },
            Bytes::new(),
        );
        assert_eq!(t.join().unwrap(), Nanos(123));
    }

    #[test]
    fn bounded_block_expires_on_a_request_that_never_completes() {
        let r = ReqState::detached();
        let deadline = Instant::now() + Duration::from_millis(5);
        let done = r.block_until_complete(Some(deadline), || {});
        assert!(!done);
        assert!(!r.is_complete(), "expiry leaves the request pending");
    }

    #[test]
    fn ready_request_waits_to_finish_time() {
        let st = ReqState::detached();
        st.complete(
            Nanos(500),
            Status {
                source: 0,
                tag: 0,
                len: 0,
            },
            Bytes::new(),
        );
        let req = Request::ready(st);
        let mut clock = rankmpi_vtime::Clock::new();
        let (s, _) = req.wait(&mut clock);
        assert_eq!(s.len, 0);
        assert_eq!(clock.now(), Nanos(500));
    }

    #[test]
    fn done_request_is_complete_inline_and_waits_to_finish_time() {
        let status = Status {
            source: 2,
            tag: 11,
            len: 64,
        };
        let req = Request::Done {
            finish_at: Nanos(500),
            status,
        };
        assert!(req.is_complete());
        assert_eq!(req.finish_at(), Nanos(500));
        // Every way of completing it agrees, any number of times: there is
        // no shared state to take the result out of.
        let mut clock = rankmpi_vtime::Clock::new();
        assert_eq!(req.test(&mut clock), Some((status, Bytes::new())));
        assert_eq!(clock.now(), Nanos(500));
        assert_eq!(req.wait(&mut clock), (status, Bytes::new()));
        let timed = req.wait_timeout(&mut clock, Duration::ZERO);
        assert_eq!(timed, Ok((status, Bytes::new())));
        let mut late = rankmpi_vtime::Clock::starting_at(Nanos(900));
        req.clone().wait(&mut late);
        assert_eq!(late.now(), Nanos(900), "a clock past the finish stays");
    }

    #[test]
    fn ready_request_wait_timeout_returns_immediately() {
        let st = ReqState::detached();
        st.complete(
            Nanos(40),
            Status {
                source: 0,
                tag: 0,
                len: 0,
            },
            Bytes::new(),
        );
        let req = Request::ready(st);
        let mut clock = rankmpi_vtime::Clock::new();
        let out = req.wait_timeout(&mut clock, Duration::from_millis(5));
        assert!(out.is_ok());
        assert_eq!(clock.now(), Nanos(40));
    }

    fn status(tag: i64) -> Status {
        Status {
            source: 0,
            tag,
            len: 0,
        }
    }

    /// A request completed on `notify`, waited for and dropped.
    fn use_once(state: Arc<ReqState>) {
        state.complete(Nanos(5), status(1), Bytes::new());
        Request::ready(state).wait(&mut rankmpi_vtime::Clock::new());
    }

    #[test]
    fn a_dropped_unique_request_is_handed_out_again() {
        let notify = Arc::new(Notify::new());
        let first = ReqState::recycled(&notify);
        let at = Arc::as_ptr(&first);
        use_once(first);
        let again = ReqState::recycled(&notify);
        assert_eq!(Arc::as_ptr(&again), at, "the same state, recycled");
        assert!(!again.is_complete());
        assert_eq!(again.finish_at(), Nanos::ZERO);
        use_once(again);
    }

    #[test]
    fn a_shared_state_or_another_notifier_is_not_reused() {
        let (mine, other) = (Arc::new(Notify::new()), Arc::new(Notify::new()));
        let state = ReqState::recycled(&mine);
        let kept = Arc::clone(&state);
        use_once(state);
        let fresh = ReqState::recycled(&mine);
        assert!(!Arc::ptr_eq(&fresh, &kept), "a live clone keeps it out");
        drop(kept);
        let at = Arc::as_ptr(&fresh);
        use_once(fresh);
        let elsewhere = ReqState::recycled(&other);
        assert_ne!(Arc::as_ptr(&elsewhere), at, "another notifier's spare");
        assert!(Arc::ptr_eq(&elsewhere.notify, &other));
        assert_eq!(Arc::as_ptr(&ReqState::recycled(&mine)), at, "still spare");
    }

    #[test]
    fn an_untaken_payload_is_dropped_on_recycle() {
        let notify = Arc::new(Notify::new());
        let owner: Arc<[u8]> = Arc::from([7u8; 256]);
        let state = ReqState::recycled(&notify);
        state.complete(
            Nanos(1),
            status(2),
            Bytes::from_shared(Arc::clone(&owner), 256),
        );
        assert_eq!(Arc::strong_count(&owner), 2);
        drop(Request::ready(state));
        assert_eq!(Arc::strong_count(&owner), 1, "nobody took it");
    }

    #[test]
    #[should_panic(expected = "request completed twice")]
    fn completing_twice_panics() {
        let r = ReqState::detached();
        r.complete(Nanos(1), status(0), Bytes::new());
        r.fail(Nanos(2), RankMpiError::LinkDown { src: 0 });
    }

    #[test]
    #[should_panic(expected = "taken before completion (or twice)")]
    fn taking_twice_panics() {
        let r = ReqState::detached();
        r.complete(Nanos(1), status(0), Bytes::new());
        let _ = r.take_outcome();
        let _ = r.take_outcome();
    }

    #[test]
    fn completer_and_taker_threads_agree_on_every_outcome() {
        const N: usize = 100_000;
        let notify = Arc::new(Notify::new());
        let reqs: Vec<_> = (0..N).map(|_| ReqState::new(Arc::clone(&notify))).collect();
        std::thread::scope(|s| {
            s.spawn(|| {
                for (i, r) in reqs.iter().enumerate() {
                    let data = Bytes::copy_from_slice(&(i as u64).to_le_bytes());
                    r.complete(Nanos(i as u64), status(i as i64), data);
                }
            });
            s.spawn(|| {
                for (i, r) in reqs.iter().enumerate() {
                    while !r.is_complete() {
                        std::hint::spin_loop();
                    }
                    assert_eq!(r.finish_at(), Nanos(i as u64));
                    let (st, data) = r.take_result();
                    assert_eq!(st.tag, i as i64);
                    assert_eq!(&data[..], &(i as u64).to_le_bytes());
                }
            });
        });
        assert_eq!(notify.version(), N as u64);
    }

    #[test]
    fn clock_already_past_finish_is_unchanged() {
        let st = ReqState::detached();
        st.complete(
            Nanos(10),
            Status {
                source: 0,
                tag: 0,
                len: 0,
            },
            Bytes::new(),
        );
        let req = Request::ready(st);
        let mut clock = rankmpi_vtime::Clock::starting_at(Nanos(900));
        req.wait(&mut clock);
        assert_eq!(clock.now(), Nanos(900));
    }
}
