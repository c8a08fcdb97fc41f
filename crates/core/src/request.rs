//! Nonblocking-operation requests.
//!
//! A [`Request`] comes in two shapes. A receive is completed by whoever
//! drains the mailbox, so its state ([`ReqState`]) is shared, allocated, and
//! completion signals the process's notifier. An eager send is complete the
//! moment it is injected: nobody else will ever touch it and nobody can be
//! blocked on it, so it is a plain value ([`Request::Done`]) — no allocation,
//! no mutex, no notification on the sender's own notifier.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use parking_lot::Mutex;
use rankmpi_fabric::Notify;
use rankmpi_vtime::Nanos;

use crate::error::RankMpiError;
use crate::matching::Status;

/// Shared completion state of one request.
///
/// Completion is two-phase: the *real* completion flag flips once the library
/// has logically finished the operation, and `finish_at` records the *virtual*
/// time of completion. A waiting thread blocks (for real) on the flag, then
/// advances its virtual clock to `finish_at`.
///
/// A request can complete with an error (`fail`): the reliability layer uses
/// this when a message's retries are exhausted, so the receiver's wait
/// returns instead of hanging on a packet that will never arrive.
#[derive(Debug)]
pub struct ReqState {
    complete: AtomicBool,
    finish_at: AtomicU64,
    result: Mutex<Option<Result<(Status, Bytes), RankMpiError>>>,
    notify: Arc<Notify>,
}

impl ReqState {
    /// A pending request that signals `notify` on completion.
    pub fn new(notify: Arc<Notify>) -> Arc<Self> {
        Arc::new(ReqState {
            complete: AtomicBool::new(false),
            finish_at: AtomicU64::new(0),
            result: Mutex::new(None),
            notify,
        })
    }

    /// A pending request with a private notifier (tests, internal protocols).
    pub fn detached() -> Arc<Self> {
        Self::new(Arc::new(Notify::new()))
    }

    /// Complete the request at virtual time `finish_at` and wake waiters.
    pub fn complete(&self, finish_at: Nanos, status: Status, data: Bytes) {
        self.settle(finish_at, Ok((status, data)));
    }

    /// Complete the request *with an error* at virtual time `finish_at` and
    /// wake waiters. Used when the fabric's reliability layer gives up on the
    /// message this request was matched against.
    pub fn fail(&self, finish_at: Nanos, err: RankMpiError) {
        self.settle(finish_at, Err(err));
    }

    fn settle(&self, finish_at: Nanos, outcome: Result<(Status, Bytes), RankMpiError>) {
        {
            let mut r = self.result.lock();
            debug_assert!(r.is_none(), "request completed twice");
            *r = Some(outcome);
        }
        self.finish_at.store(finish_at.as_ns(), Ordering::Release);
        self.complete.store(true, Ordering::Release);
        self.notify.notify();
    }

    /// Whether the request has completed.
    #[inline]
    pub fn is_complete(&self) -> bool {
        self.complete.load(Ordering::Acquire)
    }

    /// Virtual completion time (valid once complete).
    pub fn finish_at(&self) -> Nanos {
        Nanos(self.finish_at.load(Ordering::Acquire))
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
        self.result
            .lock()
            .take()
            .expect("request result taken before completion (or twice)")
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
