//! The virtual-time span tracer.
//!
//! Spans are recorded *after the fact*: virtual time is explicit in this
//! codebase (every operation already knows the `Nanos` at which it started
//! and finished), so a span is a single `Copy` record pushed into the
//! recording thread's ring buffer — no begin/end pairing, no clock reads.
//!
//! The writer path is lock-free: each thread owns a fixed-capacity ring whose
//! slots only that thread writes; publication is a release store of the
//! length, and the collector ([`session`]) reads lengths with acquire
//! ordering, so every span it observes is fully written. A full ring drops
//! new spans (counted in [`Trace::dropped`]) instead of blocking or
//! reallocating on the hot path.
//!
//! Recording is inert outside a [`session`]: every recording call checks one
//! process-global flag with a relaxed load and returns while it is clear.

use std::cell::Cell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use rankmpi_vtime::Nanos;

/// Per-thread span capacity.
const CAP: usize = 1 << 16;

/// Whether a span consumed a resource or waited for one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// The thread (or resource) was doing modeled work.
    Busy,
    /// The thread was blocked: lock acquisition under contention, waiting for
    /// a message arrival, waiting for partitions. Wait time is what the
    /// critical-path pass attributes to resources.
    Wait,
}

impl SpanKind {
    /// Stable lowercase label (`"busy"` / `"wait"`).
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Busy => "busy",
            SpanKind::Wait => "wait",
        }
    }
}

/// Identity of the shared resource a span occupies or waits on.
///
/// Kept numeric (`kind` is a static string, `a`/`b` are ids) so that building
/// one costs nothing and recording stays allocation-free. Conventions used by
/// the instrumentation: `("vci", rank, vci_id)`, `("hwctx", node, ctx_id)`,
/// `("engine", rank, vci_id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResId {
    /// Resource class (`"vci"`, `"hwctx"`, ...). Empty string = no resource.
    pub kind: &'static str,
    /// First id component (rank or node).
    pub a: u64,
    /// Second id component (vci or context index).
    pub b: u64,
}

impl ResId {
    /// "No resource" marker.
    pub const NONE: ResId = ResId {
        kind: "",
        a: 0,
        b: 0,
    };

    /// A resource id.
    pub const fn new(kind: &'static str, a: u64, b: u64) -> Self {
        ResId { kind, a, b }
    }

    /// Whether this is the [`NONE`](Self::NONE) marker.
    pub fn is_none(&self) -> bool {
        self.kind.is_empty()
    }

    /// Render as `kind:a.b` (empty string for none).
    pub fn label(&self) -> String {
        if self.is_none() {
            String::new()
        } else {
            format!("{}:{}.{}", self.kind, self.a, self.b)
        }
    }
}

/// One recorded span: a closed virtual-time interval on one thread.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer/category (`"pt2pt"`, `"match"`, `"vci"`, `"fabric"`, `"part"`,
    /// `"coll"`, `"rma"`, `"resil"`). This is what the acceptance
    /// criterion's "spans from at least four layers" counts. The `"resil"`
    /// layer carries the reliability protocol: `retransmit`,
    /// `spurious_rexmit`, and `exhausted` busy spans on the source context,
    /// `window_stall` waits for send-window backpressure, and `failover`
    /// busy spans when a VCI remaps off a failed hardware context.
    pub cat: &'static str,
    /// Operation name within the layer (`"send"`, `"match_post"`, ...).
    pub name: &'static str,
    /// Virtual start time.
    pub start: Nanos,
    /// Virtual end time (`>= start`).
    pub end: Nanos,
    /// Recording process (MPI rank).
    pub pid: u32,
    /// Recording thread id within the process.
    pub tid: u32,
    /// Resource occupied/waited on, if any.
    pub res: ResId,
    /// Busy vs wait classification.
    pub kind: SpanKind,
}

impl Span {
    /// Span duration.
    pub fn dur(&self) -> Nanos {
        self.end.saturating_sub(self.start)
    }

    /// Whether `inner` lies within this span on the same thread.
    pub fn encloses(&self, inner: &Span) -> bool {
        self.pid == inner.pid
            && self.tid == inner.tid
            && self.start <= inner.start
            && inner.end <= self.end
    }
}

/// A finished trace: every span recorded during one [`session`], plus how
/// many spans ring overflow discarded.
#[derive(Debug, Default)]
pub struct Trace {
    /// All recorded spans (per-thread ring order; not globally sorted).
    pub spans: Vec<Span>,
    /// Spans dropped because a thread's ring was full.
    pub dropped: u64,
}

impl Trace {
    /// Distinct span categories (layers) present, sorted.
    pub fn layers(&self) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self.spans.iter().map(|s| s.cat).collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// One thread's span ring. Slots are written only by the owning thread;
/// `len` is the publication point (release on write, acquire on read).
struct ThreadBuf {
    slots: Box<[MaybeUninit<Span>]>,
    len: AtomicUsize,
    dropped: AtomicU64,
}

// SAFETY: slots[0..len] are only written before the release store publishing
// `len`, and only read after an acquire load of `len`; slots at or past `len`
// are never read. The single writer is the owning thread.
unsafe impl Sync for ThreadBuf {}
unsafe impl Send for ThreadBuf {}

impl ThreadBuf {
    fn new(cap: usize) -> Arc<Self> {
        let mut v = Vec::with_capacity(cap);
        v.resize_with(cap, MaybeUninit::uninit);
        Arc::new(ThreadBuf {
            slots: v.into_boxed_slice(),
            len: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Push from the owning thread.
    fn push(&self, s: Span) {
        let n = self.len.load(Ordering::Relaxed);
        if n >= self.slots.len() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // SAFETY: only the owning thread writes, and slot `n` is unpublished.
        unsafe {
            let slot = self.slots.as_ptr().add(n) as *mut MaybeUninit<Span>;
            (*slot).write(s);
        }
        self.len.store(n + 1, Ordering::Release);
    }

    /// Drain published spans (collector side).
    fn drain_into(&self, out: &mut Vec<Span>) -> u64 {
        let n = self.len.load(Ordering::Acquire);
        for i in 0..n {
            // SAFETY: slots below the acquired `len` are fully written.
            out.push(unsafe { self.slots[i].assume_init() });
        }
        self.dropped.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.len.store(0, Ordering::Release);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);

fn buf_registry() -> &'static Mutex<Vec<Arc<ThreadBuf>>> {
    static BUFS: OnceLock<Mutex<Vec<Arc<ThreadBuf>>>> = OnceLock::new();
    BUFS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static TLS_BUF: Cell<Option<&'static ThreadBuf>> = const { Cell::new(None) };
    static TLS_ACTOR: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
}

/// Get (or lazily register) this thread's ring. Leaks one `Arc` clone per
/// thread into a `&'static` so the hot path is a plain thread-local read —
/// buffers stay registered for collection either way.
fn my_buf() -> &'static ThreadBuf {
    TLS_BUF.with(|tls| {
        if let Some(b) = tls.get() {
            return b;
        }
        let buf = ThreadBuf::new(CAP);
        buf_registry().lock().unwrap().push(Arc::clone(&buf));
        let leaked: &'static ThreadBuf = Box::leak(Box::new(buf));
        tls.set(Some(leaked));
        tls.get().unwrap()
    })
}

/// Set the recording identity of the current OS thread: the simulated
/// process (rank) and thread id whose spans it produces. Called by
/// `ThreadCtx::new` in `rankmpi-core`; spans recorded before any identity is
/// set are stamped `(0, 0)`.
#[inline]
pub fn set_actor(pid: u32, tid: u32) {
    TLS_ACTOR.with(|a| a.set((pid, tid)));
}

/// Whether a trace session is currently collecting.
#[inline]
pub fn is_active() -> bool {
    ACTIVE.load(Ordering::Relaxed)
}

/// Record one span. No-op unless a session is active.
#[inline]
pub fn span(
    cat: &'static str,
    name: &'static str,
    start: Nanos,
    end: Nanos,
    res: ResId,
    kind: SpanKind,
) {
    if !ACTIVE.load(Ordering::Relaxed) {
        return;
    }
    let (pid, tid) = TLS_ACTOR.with(|a| a.get());
    debug_assert!(end >= start, "span {cat}/{name} ends before it starts");
    my_buf().push(Span {
        cat,
        name,
        start,
        end: end.max(start),
        pid,
        tid,
        res,
        kind,
    });
}

/// Record a [`SpanKind::Busy`] span.
#[inline]
pub fn busy(cat: &'static str, name: &'static str, start: Nanos, end: Nanos, res: ResId) {
    span(cat, name, start, end, res, SpanKind::Busy);
}

/// Record a [`SpanKind::Wait`] span (skipped when empty — waits of zero
/// length are the common case and carry no information).
#[inline]
pub fn wait(cat: &'static str, name: &'static str, start: Nanos, end: Nanos, res: ResId) {
    if end > start {
        span(cat, name, start, end, res, SpanKind::Wait);
    }
}

/// The rings and the recording flag are process-global, so sessions take
/// turns: whoever holds this is the one session collecting.
static SESSION: Mutex<()> = Mutex::new(());

/// Run `f` as one collection session and return its result with every span
/// recorded meanwhile: clears every registered ring, records while `f` runs,
/// then collects every thread's spans. Concurrent callers are serialised (a
/// second session starts when the first has collected), but spans from
/// threads *outside* `f` that run meanwhile land in the same trace — start
/// `f` from a quiescent point.
pub fn session<R>(f: impl FnOnce() -> R) -> (R, Trace) {
    // A session that panicked left nothing half-updated: the next one
    // resets the rings and the flag anyway.
    let _turn = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
    for b in buf_registry().lock().unwrap().iter() {
        b.reset();
    }
    ACTIVE.store(true, Ordering::SeqCst);
    let out = f();
    ACTIVE.store(false, Ordering::SeqCst);
    let mut trace = Trace::default();
    for b in buf_registry().lock().unwrap().iter() {
        trace.dropped += b.drain_into(&mut trace.spans);
    }
    (out, trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resid_labels() {
        assert_eq!(ResId::new("vci", 1, 2).label(), "vci:1.2");
        assert!(ResId::NONE.is_none());
        assert_eq!(ResId::NONE.label(), "");
    }

    #[test]
    fn span_encloses_requires_same_thread_and_interval() {
        let outer = Span {
            cat: "pt2pt",
            name: "send",
            start: Nanos(10),
            end: Nanos(100),
            pid: 0,
            tid: 1,
            res: ResId::NONE,
            kind: SpanKind::Busy,
        };
        let inner = Span {
            name: "transmit",
            cat: "fabric",
            start: Nanos(20),
            end: Nanos(90),
            ..outer
        };
        assert!(outer.encloses(&inner));
        assert!(!inner.encloses(&outer));
        let other_thread = Span { tid: 2, ..inner };
        assert!(!outer.encloses(&other_thread));
    }

    /// Only a span recorded inside a session reaches a trace. The spans
    /// before and after it are checked against this thread's ring, because
    /// the next session's reset would hide them from any trace.
    #[test]
    fn spans_outside_a_session_are_not_recorded() {
        let record_outside = |name| {
            // Holding the session turn: no session is collecting, and none
            // can reset this thread's ring under the check.
            let _turn = SESSION.lock().unwrap_or_else(PoisonError::into_inner);
            let ring = my_buf();
            let len = ring.len.load(Ordering::Acquire);
            busy("guard", name, Nanos(0), Nanos(1), ResId::NONE);
            assert_eq!(
                ring.len.load(Ordering::Acquire),
                len,
                "span {name:?} recorded outside a session"
            );
        };
        set_actor(5, 3);
        record_outside("before");
        let ((), tr) = session(|| busy("guard", "inside", Nanos(2), Nanos(4), ResId::NONE));
        record_outside("after");
        let mine: Vec<_> = tr.spans.iter().filter(|s| s.cat == "guard").collect();
        assert_eq!(mine.len(), 1, "{mine:?}");
        assert_eq!((mine[0].name, mine[0].pid, mine[0].tid), ("inside", 5, 3));
        assert_eq!((mine[0].start, mine[0].end), (Nanos(2), Nanos(4)));
    }

    #[test]
    fn session_records_across_threads() {
        let ((), tr) = session(|| {
            set_actor(7, 0);
            busy("t", "main", Nanos(0), Nanos(5), ResId::NONE);
            let h = std::thread::spawn(|| {
                set_actor(7, 1);
                busy("t", "worker", Nanos(2), Nanos(9), ResId::new("vci", 7, 0));
                wait("t", "zero", Nanos(3), Nanos(3), ResId::NONE); // dropped: empty
            });
            h.join().unwrap();
        });
        assert_eq!(tr.dropped, 0);
        let names: Vec<_> = {
            let mut v: Vec<_> = tr.spans.iter().map(|s| s.name).collect();
            v.sort_unstable();
            v
        };
        assert!(names.contains(&"main") && names.contains(&"worker"));
        assert!(!names.contains(&"zero"));
        let worker = tr.spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!((worker.pid, worker.tid), (7, 1));
        assert_eq!(worker.res.label(), "vci:7.0");
        // Recording outside a session is discarded.
        busy("t", "late", Nanos(0), Nanos(1), ResId::NONE);
        let ((), tr) = session(|| ());
        assert!(tr.spans.is_empty(), "rings reset between sessions");
    }
}
