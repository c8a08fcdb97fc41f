//! Serialized shared resources with gap-aware virtual-time scheduling.
//!
//! A [`Resource`]'s history is bounded by its universe's
//! [GVT](crate::gvt): whole chunks of intervals that end at or before it
//! are dropped when the schedule opens a new chunk. There is no other cap.
//! The contract that makes this exact is the GVT's: no request may arrive
//! below the *pruned horizon* (the end of the last interval dropped). One
//! that does is a bug, which fails a `debug_assert!` and is counted
//! ([`Resource::below_horizon`], [`Gvt::below_horizon`]). A resource built
//! without [`pruned_by`](Resource::pruned_by) keeps its horizon at 0 and
//! never forgets.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{Gvt, Nanos};

/// The outcome of queueing on a [`Resource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acquisition {
    /// When the resource actually started serving this request (>= request time).
    pub start: Nanos,
    /// When the resource finished (`start + busy`).
    pub end: Nanos,
}

impl Acquisition {
    /// Time the requester spent queued before service began.
    #[inline]
    pub fn queued(&self, requested_at: Nanos) -> Nanos {
        self.start.saturating_sub(requested_at)
    }
}

/// Intervals per chunk of a [`Schedule`] (4 KiB of offsets): an insert
/// behind the frontier moves at most this many entries, however long the
/// schedule is.
const CHUNK: usize = 512;

/// The widest range one [`Chunk`] covers: its offsets are `u32`.
const SPAN: u64 = u32::MAX as u64;

/// Up to [`CHUNK`] sorted intervals `(base + start, base + end)`, 8 bytes
/// each. `base` lies at or below the first start, and every end lies within
/// [`SPAN`] of it.
#[derive(Debug)]
struct Chunk {
    base: u64,
    iv: Vec<(u32, u32)>,
}

impl Chunk {
    fn get(&self, i: usize) -> (u64, u64) {
        let (s, e) = self.iv[i];
        (self.base + u64::from(s), self.base + u64::from(e))
    }

    fn last(&self) -> (u64, u64) {
        self.get(self.iv.len() - 1)
    }

    fn intervals(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        (0..self.iv.len()).map(|i| self.get(i))
    }

    /// `(start, end)` as offsets from `base`, if it lies in this chunk's
    /// range.
    fn offsets(&self, (start, end): (u64, u64)) -> Option<(u32, u32)> {
        let start = start.checked_sub(self.base)?;
        let end = end - self.base;
        (end <= SPAN).then_some((start as u32, end as u32))
    }

    /// [`offsets`](Chunk::offsets), first moving `base` to the lowest start
    /// if `iv` lies outside the range but the chunk with `iv` in it spans at
    /// most [`SPAN`] (`iv` covers any interval it replaces). The offsets are
    /// shifted in place.
    fn place(&mut self, iv: (u64, u64)) -> Option<(u32, u32)> {
        if let Some(off) = self.offsets(iv) {
            return Some(off);
        }
        let lo = iv.0.min(self.get(0).0);
        if iv.1.max(self.last().1) - lo > SPAN {
            return None;
        }
        // Every shifted offset lands in [0, SPAN], so wrapping is exact.
        let shift = self.base.wrapping_sub(lo) as u32;
        for (s, e) in &mut self.iv {
            *s = s.wrapping_add(shift);
            *e = e.wrapping_add(shift);
        }
        self.base = lo;
        self.offsets(iv)
    }
}

/// Busy intervals: sorted, disjoint and never touching (an insert merges
/// with a touching neighbour), stored as sorted chunks. The one exception to
/// "never touching" is an interval wider than [`SPAN`], stored as touching
/// pieces. No chunk is empty.
#[derive(Debug, Default)]
struct Schedule {
    chunks: Vec<Chunk>,
    /// Entries, each piece counted.
    len: usize,
    /// The pruned horizon: the end of the last interval dropped. Every
    /// interval that ends after it is still here.
    horizon: u64,
    /// A pruned chunk's emptied buffer, for the next chunk
    /// [`push`](Schedule::push) opens: a pruned history stops allocating.
    spare: Vec<(u32, u32)>,
}

impl Schedule {
    /// Position `(chunk, index)` of the first interval starting at or after
    /// `bound`. `index` is 0 only when no interval starts below `bound`, and
    /// may be one past the chunk's end.
    fn lower_bound(&self, bound: u64) -> (usize, usize) {
        match self.chunks.partition_point(|c| c.get(0).0 < bound) {
            0 => (0, 0),
            c => {
                let chunk = &self.chunks[c - 1];
                let bound = bound - chunk.base;
                (
                    c - 1,
                    chunk.iv.partition_point(|iv| u64::from(iv.0) < bound),
                )
            }
        }
    }

    /// Reserve the earliest `busy`-long gap at or after `cursor`; returns
    /// its start.
    fn reserve(&mut self, mut cursor: u64, busy: u64) -> u64 {
        // From the last interval's start on there is nothing to search —
        // the slot is at `max(cursor, frontier)`: the steady state of every
        // resource with a single owner, and of a saturated one.
        let Some(tail) = self.chunks.last() else {
            self.push((cursor, cursor + busy));
            return cursor;
        };
        let (last, (start, end)) = ((self.chunks.len() - 1, tail.iv.len() - 1), tail.last());
        if cursor > end {
            self.push((cursor, cursor + busy));
            return cursor;
        }
        if cursor >= start {
            self.set(last, (start, end + busy));
            return end;
        }
        // Find the earliest gap: repeatedly jump past the latest interval
        // that overlaps [cursor, cursor + busy). Intervals are sorted and
        // disjoint, so only the one with the greatest start below
        // `cursor + busy` can overlap.
        let (c, i) = loop {
            let (c, i) = self.lower_bound(cursor + busy);
            match i.checked_sub(1).map(|p| self.chunks[c].get(p).1) {
                Some(e) if e > cursor => cursor = e,
                _ => break (c, i),
            }
        };
        // Merge with a touching predecessor and successor to keep the
        // schedule small (halo loops produce long runs of contiguous slots).
        let end = cursor + busy;
        let prev = i.checked_sub(1).map(|p| self.chunks[c].get(p));
        let (nc, ni) = if i == self.chunks[c].iv.len() {
            (c + 1, 0)
        } else {
            (c, i)
        };
        let next = self.chunks.get(nc).map(|chunk| chunk.get(ni));
        match (prev.filter(|p| p.1 == cursor), next.filter(|n| n.0 == end)) {
            (Some(prev), Some(next)) => {
                // Removing (nc, ni) leaves (c, i - 1) where it is.
                self.remove(nc, ni);
                self.set((c, i - 1), (prev.0, next.1));
            }
            (Some(prev), None) => self.set((c, i - 1), (prev.0, end)),
            (None, Some(next)) => self.set((nc, ni), (cursor, next.1)),
            (None, None) => self.insert(c, i, (cursor, end)),
        }
        cursor
    }

    /// Append `iv` past every interval, opening a chunk when the last one is
    /// full or cannot take `iv` even rebased. An interval wider than [`SPAN`]
    /// is cut into touching pieces, one per chunk.
    fn push(&mut self, (mut start, end): (u64, u64)) {
        loop {
            self.len += 1;
            if let Some(c) = self.chunks.last_mut().filter(|c| c.iv.len() < CHUNK) {
                if let Some(off) = c.place((start, end)) {
                    c.iv.push(off);
                    return;
                }
            }
            // Most resources hold a handful of intervals, so the first chunk
            // grows on demand; later ones are whole, in a pruned one's buffer
            // when there is one.
            let mut iv = std::mem::take(&mut self.spare);
            if !self.chunks.is_empty() {
                iv.reserve_exact(CHUNK);
            }
            let piece = end.min(start.saturating_add(SPAN));
            iv.push((0, (piece - start) as u32));
            self.chunks.push(Chunk { base: start, iv });
            if piece == end {
                return;
            }
            start = piece;
        }
    }

    /// Rewrite the interval at `(c, i)` as `iv`, which covers it.
    fn set(&mut self, (c, i): (usize, usize), iv: (u64, u64)) {
        match self.chunks[c].place(iv) {
            Some(off) => self.chunks[c].iv[i] = off,
            None => self.respill(c, |ivs| ivs[i] = iv),
        }
    }

    /// Insert before position `(c, i)`. A full chunk is first split where
    /// the insert lands, but the left part keeps at least half of it: a run
    /// of inserts near the frontier then leaves full chunks behind it, not
    /// half-full ones. Both parts keep the chunk's `base`.
    fn insert(&mut self, mut c: usize, mut i: usize, iv: (u64, u64)) {
        if self.chunks[c].iv.len() == CHUNK {
            let at = i.clamp(CHUNK / 2, CHUNK - 1);
            let chunk = &mut self.chunks[c];
            let mut tail = Vec::with_capacity(CHUNK);
            tail.extend_from_slice(&chunk.iv[at..]);
            chunk.iv.truncate(at);
            let base = chunk.base;
            self.chunks.insert(c + 1, Chunk { base, iv: tail });
            if i >= at {
                (c, i) = (c + 1, i - at);
            }
        }
        match self.chunks[c].place(iv) {
            Some(off) => {
                self.chunks[c].iv.insert(i, off);
                self.len += 1;
            }
            None => self.respill(c, |ivs| ivs.insert(i, iv)),
        }
    }

    fn remove(&mut self, c: usize, i: usize) {
        self.chunks[c].iv.remove(i);
        if self.chunks[c].iv.is_empty() {
            self.chunks.remove(c);
        }
        self.len -= 1;
    }

    /// An edit to chunk `c` that no base can hold: rebuild the chunk's
    /// intervals, edited, into as many chunks as they need.
    fn respill(&mut self, c: usize, edit: impl FnOnce(&mut Vec<(u64, u64)>)) {
        let mut ivs: Vec<(u64, u64)> = self.chunks[c].intervals().collect();
        edit(&mut ivs);
        let mut rebuilt = Schedule::default();
        ivs.into_iter().for_each(|iv| rebuilt.push(iv));
        self.len = self.len + rebuilt.len - self.chunks[c].iv.len();
        self.chunks.splice(c..=c, rebuilt.chunks);
    }

    /// Drop every chunk but the last `keep` whose intervals all end at or
    /// before `gvt`, with one drain, raising the horizon to where they
    /// ended. The last one's buffer becomes the spare.
    fn prune(&mut self, gvt: u64, keep: usize) {
        let older = &self.chunks[..self.chunks.len().saturating_sub(keep)];
        let k = older.partition_point(|c| c.last().1 <= gvt);
        if k == 0 {
            return;
        }
        self.horizon = self.chunks[k - 1].last().1;
        for c in self.chunks.drain(..k) {
            self.len -= c.iv.len();
            self.spare = c.iv;
        }
        self.spare.clear();
    }
}

/// A shared physical resource that serves one request at a time in virtual
/// time — a NIC hardware context's pipeline, a DMA engine, the wire.
///
/// [`acquire`](Resource::acquire) reserves the *earliest gap* in the
/// resource's schedule at or after the requested time:
///
/// ```text
/// start = earliest t >= now with [t, t+busy) free
/// ```
///
/// Gap-aware scheduling matters because the simulation runs on real threads
/// whose *real* execution order is unrelated to their virtual clocks: a
/// thread that the OS ran late must still be able to claim the virtual time
/// slot it would have had, instead of queueing behind virtually-later work
/// that merely executed earlier in real time. Back-to-back requests for the
/// same instant still serialize exactly (no overlap, ever); a saturated
/// resource degenerates to the classic `max(now, next_free)` queue.
///
/// The schedule is a two-level sorted array of chunks, each a 64-bit base
/// and up to 512 intervals as 32-bit offsets from it: 8 bytes per
/// remembered interval. A request from the last interval's start on is
/// served at or past the frontier (that interval's end) in O(1); an earlier
/// one binary-searches the chunk heads, then one chunk.
///
/// History is bounded by the GVT of the universe the resource was
/// [`pruned_by`](Resource::pruned_by): as a push opens a chunk, it reads the
/// GVT and drops, with one drain, every chunk whose intervals all end at or
/// before it; the new chunk reuses one's buffer. A request below the horizon
/// breaks the GVT's contract; it is served from the horizon, counted in
/// [`below_horizon`](Resource::below_horizon), and fails a `debug_assert!`.
#[derive(Debug)]
pub struct Resource {
    schedule: Mutex<Schedule>,
    bounds: Bounds,
    busy_total: AtomicU64,
    acquisitions: AtomicU64,
}

/// The parts of a [`Resource`] read without its schedule lock.
#[derive(Debug, Default)]
struct Bounds {
    /// No request may be scheduled before this floor.
    floor: AtomicU64,
    /// The frontier, mirrored for lock-free `next_free` reads. Written
    /// while the schedule is held.
    max_end: AtomicU64,
    /// Requests that arrived below the pruned horizon.
    below: AtomicU64,
    /// What bounds the history; `None` never prunes.
    gvt: Option<Arc<Gvt>>,
}

impl Bounds {
    /// The reservation both acquire paths share, `busy` > 0: the caller
    /// holds `schedule` and has counted the request.
    fn reserve(&self, schedule: &mut Schedule, now: Nanos, busy: Nanos) -> Acquisition {
        let busy = busy.as_ns();
        let cursor = self.admit(schedule, now.as_ns());
        // A push past a full last chunk opens a chunk: prune first, the full
        // one included, so that the opening takes a dropped chunk's buffer.
        // Other growth (a split, a rebuilt chunk) prunes after it.
        let opens =
            (schedule.chunks.last()).is_some_and(|c| c.iv.len() == CHUNK && cursor > c.last().1);
        if opens {
            self.prune(schedule, 0);
        }
        let chunks = schedule.chunks.len();
        let start = schedule.reserve(cursor, busy);
        if start + busy > self.max_end.load(Ordering::Relaxed) {
            self.max_end.store(start + busy, Ordering::Release);
        }
        if !opens && schedule.chunks.len() > chunks {
            self.prune(schedule, 1);
        }
        Acquisition {
            start: Nanos(start),
            end: Nanos(start + busy),
        }
    }

    /// Drop the chunks behind the GVT but the last `keep`, if a GVT bounds
    /// this resource.
    fn prune(&self, schedule: &mut Schedule, keep: usize) {
        if let Some(gvt) = &self.gvt {
            gvt.note_history(schedule.len);
            schedule.prune(gvt.recent().as_ns(), keep);
        }
    }

    /// A zero-length request occupies nothing: it is served at `now`,
    /// raised to the floor.
    fn instant(&self, now: Nanos) -> Acquisition {
        let at = Nanos(self.floored(now.as_ns()));
        Acquisition { start: at, end: at }
    }

    fn floored(&self, now: u64) -> u64 {
        now.max(self.floor.load(Ordering::Acquire))
    }

    /// `now` raised to the floor, then checked against the pruned horizon.
    fn admit(&self, schedule: &Schedule, now: u64) -> u64 {
        let now = self.floored(now);
        if now >= schedule.horizon {
            return now;
        }
        self.below.fetch_add(1, Ordering::Relaxed);
        if let Some(gvt) = &self.gvt {
            gvt.note_below();
        }
        debug_assert!(
            false,
            "request at {now} ns below the pruned horizon {} ns",
            schedule.horizon
        );
        schedule.horizon
    }
}

impl Resource {
    /// A resource that is free from the simulation epoch and never forgets.
    pub fn new() -> Self {
        Resource {
            schedule: Mutex::default(),
            bounds: Bounds::default(),
            busy_total: AtomicU64::new(0),
            acquisitions: AtomicU64::new(0),
        }
    }

    /// This resource with its history bounded by `gvt` (see the type docs).
    pub fn pruned_by(mut self, gvt: &Arc<Gvt>) -> Self {
        self.bounds.gvt = Some(Arc::clone(gvt));
        self
    }

    /// Reserve the earliest `busy`-long slot at or after `now`.
    pub fn acquire(&self, now: Nanos, busy: Nanos) -> Acquisition {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        if busy == Nanos::ZERO {
            return self.bounds.instant(now);
        }
        self.busy_total.fetch_add(busy.as_ns(), Ordering::Relaxed);
        self.bounds.reserve(&mut self.schedule.lock(), now, busy)
    }

    /// [`acquire`](Resource::acquire) through exclusive access: the same
    /// reservation, with no lock and no read-modify-write. A resource that
    /// lives inside a mutex its callers already hold (a
    /// [`ContentionLock`](crate::ContentionLock)'s section schedule) takes
    /// this path.
    pub(crate) fn acquire_exclusive(&mut self, now: Nanos, busy: Nanos) -> Acquisition {
        *self.acquisitions.get_mut() += 1;
        if busy == Nanos::ZERO {
            return self.bounds.instant(now);
        }
        *self.busy_total.get_mut() += busy.as_ns();
        self.bounds.reserve(self.schedule.get_mut(), now, busy)
    }

    /// The virtual time at which all currently scheduled work is done.
    pub fn next_free(&self) -> Nanos {
        Nanos(self.bounds.max_end.load(Ordering::Acquire))
    }

    /// Forbid scheduling before `t` (resource created or handed off mid-run).
    pub fn advance_to(&self, t: Nanos) {
        self.bounds.floor.fetch_max(t.as_ns(), Ordering::AcqRel);
    }

    /// Total virtual time the resource spent busy.
    pub fn busy_total(&self) -> Nanos {
        Nanos(self.busy_total.load(Ordering::Relaxed))
    }

    /// Number of requests served.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions.load(Ordering::Relaxed)
    }

    /// Number of requests that arrived below the pruned horizon and were
    /// served from it. While this is 0, every result is the one an unbounded
    /// history would have given.
    pub fn below_horizon(&self) -> u64 {
        self.bounds.below.load(Ordering::Relaxed)
    }

    /// Fraction of `[0, horizon]` the resource was busy (clamped to 1.0).
    pub fn utilization(&self, horizon: Nanos) -> f64 {
        if horizon == Nanos::ZERO {
            return 0.0;
        }
        (self.busy_total().as_ns() as f64 / horizon.as_ns() as f64).min(1.0)
    }
}

impl Default for Resource {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// The `BTreeMap` schedule this module used before the sorted array:
    /// the reference every `Acquisition` must stay bit-identical to. It
    /// never forgets.
    #[derive(Default)]
    struct MapResource {
        intervals: BTreeMap<u64, u64>,
        floor: u64,
        busy_total: u64,
        acquisitions: u64,
        max_end: u64,
    }

    impl MapResource {
        fn acquire(&mut self, now: Nanos, busy: Nanos) -> Acquisition {
            self.acquisitions += 1;
            let busy = busy.as_ns();
            let mut cursor = now.as_ns().max(self.floor);
            if busy == 0 {
                return Acquisition {
                    start: Nanos(cursor),
                    end: Nanos(cursor),
                };
            }
            self.busy_total += busy;
            let map = &mut self.intervals;
            loop {
                let overlap = map
                    .range(..cursor + busy)
                    .next_back()
                    .filter(|&(_s, e)| *e > cursor)
                    .map(|(_s, &e)| e);
                match overlap {
                    Some(e) => cursor = e,
                    None => break,
                }
            }
            let (mut start, mut end) = (cursor, cursor + busy);
            if let Some((&ps, &pe)) = map.range(..=start).next_back() {
                if pe == start {
                    map.remove(&ps);
                    start = ps;
                }
            }
            if let Some(&ne) = map.get(&end) {
                map.remove(&end);
                end = ne;
            }
            map.insert(start, end);
            self.max_end = self.max_end.max(end);
            Acquisition {
                start: Nanos(cursor),
                end: Nanos(cursor + busy),
            }
        }
    }

    /// A `Resource` served through the shared path, one served through
    /// the exclusive path, and the reference, fed the same requests. A
    /// pruned pair's resources forget what lies behind `h`, a horizon that
    /// [`play`](Pair::play) moves; the map never forgets.
    #[derive(Default)]
    struct Pair {
        r: Resource,
        x: Resource,
        m: MapResource,
        h: Option<Horizon>,
    }

    /// A GVT in a run, held down by one clock slot at `at`.
    struct Horizon {
        gvt: Arc<Gvt>,
        cover: crate::gvt::Cover,
        _run: crate::gvt::RunGuard,
        at: u64,
    }

    /// Live intervals a pruned resource may hold while its horizon trails
    /// the frontier by less than 64 ns: the chunk the horizon falls in,
    /// the chunk being filled, and the intervals above the horizon.
    const PRUNED_BOUND: usize = 3 * CHUNK;

    impl Pair {
        /// Both sides after `n` in-order requests of `busy`, each `gap`
        /// past the frontier. The resource serves them; the map is built in
        /// the state they leave it in (`append_sparse` on an empty pair,
        /// minus a million debug-build `BTreeMap` descents).
        fn with_sparse_history(n: usize, gap: u64, busy: u64) -> Pair {
            let slots = (0..n as u64).map(|i| (i * (gap + busy) + gap, (i + 1) * (gap + busy)));
            let (r, mut x) = (Resource::new(), Resource::new());
            for (start, end) in slots.clone() {
                let got = r.acquire(Nanos(start), Nanos(busy));
                assert_eq!((got.start, got.end), (Nanos(start), Nanos(end)));
                assert_eq!(x.acquire_exclusive(Nanos(start), Nanos(busy)), got);
            }
            let m = MapResource {
                intervals: slots.collect(),
                floor: 0,
                busy_total: n as u64 * busy,
                acquisitions: n as u64,
                max_end: n as u64 * (gap + busy),
            };
            Pair { r, x, m, h: None }
        }

        /// An empty pair whose resources are pruned by a horizon at 0.
        fn pruned() -> Pair {
            let gvt = Gvt::new();
            let h = Horizon {
                cover: gvt.clock(Nanos::ZERO),
                _run: gvt.enter_run(),
                at: 0,
                gvt: Arc::clone(&gvt),
            };
            Pair {
                r: Resource::new().pruned_by(&gvt),
                x: Resource::new().pruned_by(&gvt),
                h: Some(h),
                ..Pair::default()
            }
        }

        /// Move the horizon (never back) to `lag` behind the frontier.
        fn trail(&mut self, lag: u64) {
            let frontier = self.m.max_end;
            if let Some(h) = &mut self.h {
                h.at = h.at.max(frontier.saturating_sub(lag));
                h.cover.set(Nanos(h.at));
            }
        }

        fn acquire(&mut self, now: u64, busy: u64) -> Acquisition {
            let got = self.r.acquire(Nanos(now), Nanos(busy));
            let want = self.m.acquire(Nanos(now), Nanos(busy));
            assert_eq!(got, want, "acquire({now}, {busy})");
            let exclusive = self.x.acquire_exclusive(Nanos(now), Nanos(busy));
            assert_eq!(exclusive, want, "acquire_exclusive({now}, {busy})");
            got
        }

        fn advance_to(&mut self, t: u64) {
            self.r.advance_to(Nanos(t));
            self.x.advance_to(Nanos(t));
            self.m.floor = self.m.floor.max(t);
        }

        /// Requests aimed relative to the frontier, so that they keep
        /// landing on chunk boundaries: gaps below `gap` and slots below
        /// `busy` (4 × `busy` behind the frontier). A pruned pair first
        /// moves its horizon to `b % 64` behind the frontier, raises every
        /// request to it, and checks the live history's bound.
        fn play(&mut self, script: Vec<(u8, u64, u64)>, gap: u64, busy: u64) {
            let mut served = Vec::new();
            for (kind, a, b) in script {
                self.trail(b % 64);
                let floor = self.h.as_ref().map_or(0, |h| h.at);
                let frontier = self.m.max_end;
                let (now, busy) = match kind {
                    0..=15 => (frontier + 1 + a % gap, 1 + b % busy), // in order, sparse
                    16..=21 => (frontier, 1 + b % busy),              // touching the frontier
                    22..=39 => (a % (frontier + 1), 1 + b % (4 * busy)), // anywhere behind
                    40..=53 if !served.is_empty() => {
                        // Fill the gap after an earlier slot exactly, or
                        // (on odd `b`) overshoot it by one.
                        let at: Acquisition = served[a as usize % served.len()];
                        let next = self.m.intervals.range(at.end.as_ns()..).next();
                        let gap = next.map_or(1 + b % busy, |(s, _)| s - at.end.as_ns());
                        (at.end.as_ns(), gap + b % 2)
                    }
                    40..=61 => (a % (frontier + 1), 0),
                    _ => {
                        self.advance_to(a % (frontier + 1));
                        continue;
                    }
                };
                served.push(self.acquire(now.max(floor), busy));
                if self.h.is_some() {
                    let live = self.r.schedule.lock().len;
                    assert!(live <= PRUNED_BOUND, "{live} live intervals");
                }
            }
        }

        /// `n` in-order requests, each leaving a gap of `gap` behind it.
        fn append_sparse(&mut self, n: usize, gap: u64, busy: u64) {
            for _ in 0..n {
                self.acquire(self.m.max_end + gap, busy);
            }
        }

        /// Same counters, same intervals, and the chunk invariants hold, on
        /// both paths. A pruned schedule holds the map's intervals that end
        /// after its horizon.
        fn check(&self) {
            for r in [&self.r, &self.x] {
                assert_eq!(r.next_free(), Nanos(self.m.max_end));
                assert_eq!(r.busy_total(), Nanos(self.m.busy_total));
                assert_eq!(r.acquisitions(), self.m.acquisitions);
                assert_eq!(r.below_horizon(), 0);
                let s = r.schedule.lock();
                let mut want: Vec<(u64, u64)> = self
                    .m
                    .intervals
                    .iter()
                    .map(|(&s, &e)| (s, e))
                    .filter(|&(_, e)| e > s.horizon)
                    .collect();
                assert!(s.chunks.iter().all(|c| (1..=CHUNK).contains(&c.iv.len())));
                let pieces: Vec<(u64, u64)> = s.chunks.iter().flat_map(Chunk::intervals).collect();
                assert_eq!(pieces.len(), s.len);
                // Touching neighbours are pieces of one interval wider
                // than a chunk's range; joined, they are the map's. The
                // first may be the tail of a map interval the horizon cut.
                let mut flat: Vec<(u64, u64)> = Vec::new();
                for (start, end) in pieces {
                    match flat.last_mut() {
                        Some(prev) if prev.1 == start => {
                            assert!(end - prev.0 > SPAN, "touching {prev:?}, {start}");
                            prev.1 = end;
                        }
                        _ => flat.push((start, end)),
                    }
                }
                if let (Some(f), Some(w)) = (flat.first(), want.first_mut()) {
                    if f.0 == s.horizon && w.0 < f.0 && w.1 == f.1 {
                        w.0 = f.0;
                    }
                }
                assert_eq!(flat, want);
            }
        }
    }

    #[test]
    fn back_to_back_requests_serialize() {
        let r = Resource::new();
        let a = r.acquire(Nanos(0), Nanos(10));
        assert_eq!(
            a,
            Acquisition {
                start: Nanos(0),
                end: Nanos(10)
            }
        );
        // Second request at t=0 queues behind the first.
        let b = r.acquire(Nanos(0), Nanos(10));
        assert_eq!(
            b,
            Acquisition {
                start: Nanos(10),
                end: Nanos(20)
            }
        );
        assert_eq!(b.queued(Nanos(0)), Nanos(10));
    }

    #[test]
    fn idle_gap_is_not_busy() {
        let r = Resource::new();
        r.acquire(Nanos(0), Nanos(10));
        let late = r.acquire(Nanos(100), Nanos(5));
        assert_eq!(late.start, Nanos(100));
        assert_eq!(late.end, Nanos(105));
        assert_eq!(r.busy_total(), Nanos(15));
        assert_eq!(r.acquisitions(), 2);
    }

    #[test]
    fn late_real_arrival_backfills_virtual_gaps() {
        // A virtually-later request executes first in real time...
        let r = Resource::new();
        let far = r.acquire(Nanos(1_000), Nanos(50));
        assert_eq!(far.start, Nanos(1_000));
        // ...and must not delay a virtually-earlier one.
        let early = r.acquire(Nanos(10), Nanos(50));
        assert_eq!(early.start, Nanos(10));
        // A request that does not fit in the gap goes after.
        let big = r.acquire(Nanos(980), Nanos(100));
        assert_eq!(big.start, Nanos(1_050));
    }

    #[test]
    fn gap_search_skips_exactly_filled_space() {
        let r = Resource::new();
        r.acquire(Nanos(0), Nanos(10)); // [0, 10)
        r.acquire(Nanos(20), Nanos(10)); // [20, 30)
                                         // A 10-wide request at 0 fits exactly into [10, 20).
        let fit = r.acquire(Nanos(0), Nanos(10));
        assert_eq!(fit.start, Nanos(10));
        // An 11-wide request at 0 does not; next fit is after 30.
        let no_fit = r.acquire(Nanos(0), Nanos(11));
        assert_eq!(no_fit.start, Nanos(30));
    }

    #[test]
    fn zero_busy_requests_do_not_occupy() {
        let r = Resource::new();
        let a = r.acquire(Nanos(5), Nanos(0));
        assert_eq!(a.start, a.end);
        assert_eq!(r.busy_total(), Nanos::ZERO);
        assert_eq!(r.acquisitions(), 1);
    }

    #[test]
    fn floor_blocks_early_scheduling() {
        let r = Resource::new();
        r.advance_to(Nanos(500));
        let a = r.acquire(Nanos(0), Nanos(10));
        assert_eq!(a.start, Nanos(500));
    }

    #[test]
    fn utilization_is_busy_over_horizon() {
        let r = Resource::new();
        r.acquire(Nanos(0), Nanos(25));
        assert!((r.utilization(Nanos(100)) - 0.25).abs() < 1e-12);
        assert_eq!(r.utilization(Nanos::ZERO), 0.0);
    }

    #[test]
    fn concurrent_acquires_never_overlap() {
        let r = Arc::new(Resource::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = Arc::clone(&r);
            handles.push(std::thread::spawn(move || {
                let mut spans = Vec::new();
                for _ in 0..100 {
                    spans.push(r.acquire(Nanos(0), Nanos(3)));
                }
                spans
            }));
        }
        let mut all: Vec<Acquisition> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_by_key(|a| a.start);
        for w in all.windows(2) {
            assert!(w[0].end <= w[1].start, "overlapping service intervals");
        }
        // 800 requests x 3ns each, all arriving at t=0, end exactly at 2400.
        assert_eq!(all.last().unwrap().end, Nanos(2400));
        assert_eq!(r.busy_total(), Nanos(2400));
        assert_eq!(r.next_free(), Nanos(2400));
    }

    #[test]
    fn concurrent_sparse_acquires_backfill_without_overlap() {
        // Every thread asks for the same 100 sparse instants: eight slots
        // queue up behind each instant and merge, the instants never do,
        // and threads out of phase in real time insert behind the frontier.
        let r = Arc::new(Resource::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    (0..100u64)
                        .map(|i| (i, r.acquire(Nanos(i * 100), Nanos(3))))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut all: Vec<(u64, Acquisition)> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_by_key(|(_, a)| a.start);
        for w in all.windows(2) {
            assert!(w[0].1.end <= w[1].1.start, "overlapping service intervals");
        }
        for (i, a) in &all {
            assert!(a.start.as_ns() >= i * 100 && a.end.as_ns() <= i * 100 + 24);
        }
        assert_eq!(r.schedule.lock().len, 100);
        assert_eq!(r.busy_total(), Nanos(2400));
        assert_eq!(r.next_free(), Nanos(9924));
        assert_eq!(r.below_horizon(), 0);
    }

    #[test]
    fn interval_map_stays_compact_for_contiguous_runs() {
        let r = Resource::new();
        for _ in 0..1000 {
            r.acquire(Nanos(0), Nanos(7));
        }
        assert_eq!(r.next_free(), Nanos(7000));
        assert_eq!(r.schedule.lock().len, 1, "contiguous slots merge");
    }

    #[test]
    fn chunk_boundaries_match_the_map() {
        // A full first chunk: inserts at its head, its middle and its end
        // split it; each half keeps taking inserts.
        let mut p = Pair::default();
        p.append_sparse(CHUNK, 10, 5); // [10, 15), [25, 30), ...
        assert_eq!(p.r.schedule.lock().chunks.len(), 1);
        assert_eq!(
            p.m.intervals,
            Pair::with_sparse_history(CHUNK, 10, 5).m.intervals
        );
        p.acquire(0, 3); // before the head
        p.acquire(15 * CHUNK as u64 / 2 + 1, 2); // at the split point
        p.acquire(p.m.max_end - 12, 2); // last gap of the second half
        assert_eq!(p.r.schedule.lock().chunks.len(), 2);
        p.check();

        // A chunk of one interval empties when the gap before it is filled
        // exactly: predecessor (tail of one chunk) and successor (head of
        // the next) become one interval.
        let mut p = Pair::default();
        p.append_sparse(CHUNK + 1, 10, 5);
        assert_eq!(p.r.schedule.lock().chunks.len(), 2);
        let head = p.r.schedule.lock().chunks[1].get(0);
        p.acquire(head.0 - 10, 10);
        assert_eq!(p.r.schedule.lock().chunks.len(), 1);
        p.check();

        // Joins that reach across a chunk boundary from either side, and a
        // successor-only join that rewrites a chunk head.
        let mut p = Pair::default();
        p.append_sparse(3 * CHUNK, 10, 5);
        let head = p.r.schedule.lock().chunks[1].get(0);
        p.acquire(head.0 - 4, 4); // joins the head of chunk 1 only
        p.acquire(head.0 - 10, 2); // joins the tail of chunk 0 only
        p.acquire(head.0 - 8, 4); // closes the gap between the two chunks
        let head = p.r.schedule.lock().chunks[2].get(0);
        p.acquire(head.0 - 7, 3); // lands between chunks, joins neither
        p.acquire(0, 3 * CHUNK as u64 * 15); // fits nowhere: goes to the frontier
        p.acquire(7, 0);
        p.advance_to(head.0 - 9);
        p.acquire(0, 2); // from the floor, inside a gap
        p.acquire(0, 6); // from the floor, first gap too small
        p.check();
    }

    #[test]
    fn edits_that_leave_a_chunks_range_match_the_map() {
        let lens = |p: &Pair| -> Vec<usize> {
            let s = p.r.schedule.lock();
            s.chunks.iter().map(|c| c.iv.len()).collect()
        };

        // Frontier extensions: past the chunk's range (the extended
        // interval opens a chunk), then wider than any range (pieces).
        let mut p = Pair::default();
        p.append_sparse(3, 10, 5); // [10, 15), [25, 30), [40, 45)
        p.acquire(p.m.max_end, SPAN - 20);
        assert_eq!(lens(&p), [2, 1]);
        p.acquire(p.m.max_end, 2 * SPAN);
        assert_eq!(lens(&p), [2, 1, 1, 1]);
        p.acquire(p.m.max_end, 7);
        p.check();

        // Inserts before a chunk's base: one that a rebase holds, one that
        // re-splits the chunk, one that fits the new first chunk as it is.
        let mut p = Pair::default();
        p.acquire(1 << 33, 5);
        p.acquire((1 << 33) + SPAN - 2_000, 5);
        p.acquire((1 << 33) - 1_000, 5);
        assert_eq!(p.r.schedule.lock().chunks[0].base, (1 << 33) - 1_000);
        assert_eq!(lens(&p), [3]);
        p.acquire(1 << 32, 5);
        assert_eq!(lens(&p), [2, 2]);
        p.acquire((1 << 33) - 100, 5);
        assert_eq!(lens(&p), [3, 2]);
        p.check();

        // Joins: one that fills its chunk's range exactly, one whose merged
        // interval leaves it (and is cut into pieces), one whose successor
        // is a head that a rebase moves.
        let mut p = Pair::default();
        p.acquire(0, 10);
        p.acquire(SPAN - 5, 5);
        p.acquire(10, SPAN - 15); // [0, SPAN): one entry
        assert_eq!(lens(&p), [1]);
        p.acquire(SPAN + 10, 100); // [SPAN + 10, SPAN + 110): a new chunk
        assert_eq!(lens(&p), [1, 1]);
        p.acquire(SPAN, 10); // [0, SPAN + 110) in pieces
        assert_eq!(lens(&p), [1, 1]);
        assert_eq!(p.r.schedule.lock().chunks[1].get(0), (SPAN, SPAN + 110));
        p.acquire(3 * SPAN, 5);
        p.acquire(3 * SPAN - 20, 20); // joins a chunk head only
        assert_eq!(p.r.schedule.lock().chunks[2].base, 3 * SPAN - 20);
        p.check();

        // Full chunks: a split where the insert lands keeps the left part
        // full; an insert before the head splits at the half and then
        // leaves the range of the left half, which re-splits.
        let full = || {
            let mut p = Pair::default();
            p.acquire(1 << 32, 5);
            p.append_sparse(CHUNK - 1, (1 << 23) - 8, 5); // spans 2^32 - 2^23 - 1528
            assert_eq!(lens(&p), [CHUNK]);
            p
        };
        let mut p = full();
        let late = p.r.schedule.lock().chunks[0].get(500);
        p.acquire(late.0 - 6, 3);
        assert_eq!(lens(&p), [500, 13]);
        p.append_sparse(CHUNK - 13, (1 << 23) - 8, 5);
        assert_eq!(lens(&p), [500, CHUNK]);
        p.check();
        let mut p = full();
        p.acquire((1 << 31) - (1 << 24), 5);
        let l = lens(&p);
        assert_eq!((l.len(), l[0] + l[1], l[2]), (3, CHUNK / 2 + 1, CHUNK / 2));
        p.check();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Random requests, aimed relative to the frontier so that they keep
        /// landing on chunk boundaries, give what the map gives.
        #[test]
        fn any_request_sequence_matches_the_map(
            preamble in 0usize..3 * CHUNK,
            script in collection::vec((0u8..64, any::<u64>(), any::<u64>()), 1..96)
        ) {
            let mut p = Pair::with_sparse_history(preamble, 24, 3);
            p.play(script, 16, 8);
            p.check();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The same requests with gaps up to 2^34 ns and slots up to 2^33
        /// ns, after a history whose chunks fill by count, by range at
        /// 511 intervals, or by range at 4: edits leave chunk ranges, rebase,
        /// re-split, and cut intervals into pieces.
        #[test]
        fn wide_request_sequences_match_the_map(
            preamble in 0usize..2 * CHUNK,
            spacing in 0usize..3,
            script in collection::vec((0u8..64, any::<u64>(), any::<u64>()), 1..96)
        ) {
            let gap = [24, 8_409_997, 1 << 30][spacing];
            let mut p = Pair::with_sparse_history(preamble, gap, 3);
            p.play(script, 1 << 34, 1 << 33);
            p.check();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A pruned resource and the map that never forgets, fed the same
        /// requests above a horizon that trails the frontier by a random
        /// lag: every `Acquisition` is the map's, and the live history stays
        /// within a fixed number of chunks however long the script runs.
        #[test]
        fn pruned_history_matches_the_map_and_stays_bounded(
            preamble in 0usize..3 * CHUNK,
            script in collection::vec((0u8..64, any::<u64>(), any::<u64>()), 1..2 * CHUNK)
        ) {
            // In-order sparse requests with the horizon at the frontier,
            // then the mixed script.
            let mut p = Pair::pruned();
            p.play(vec![(0, 7, 0); preamble], 16, 8);
            if preamble >= 2 * CHUNK {
                prop_assert!(p.r.schedule.lock().horizon > 0, "the preamble pruned");
            }
            p.play(script, 16, 8);
            p.check();
        }
    }

    #[test]
    fn pruning_drops_whole_chunks_behind_the_horizon() {
        let mut p = Pair::pruned();
        p.append_sparse(3 * CHUNK, 10, 5); // [10, 15), [25, 30), ...
        assert_eq!(
            p.r.schedule.lock().len,
            3 * CHUNK,
            "a horizon at 0 keeps all"
        );
        // Opening the next chunk reads the horizon: both chunks that end at
        // or before it go in one drain, the one it falls inside stays.
        p.trail(CHUNK as u64 * 15 / 2);
        p.append_sparse(1, 10, 5);
        {
            let s = p.r.schedule.lock();
            assert_eq!((s.chunks.len(), s.len), (2, CHUNK + 1));
            assert_eq!(s.horizon, 2 * CHUNK as u64 * 15);
        }
        // Requests from the horizon on still backfill exactly.
        let h = p.h.as_ref().map_or(0, |h| h.at);
        p.acquire(h, 3);
        p.acquire(h + 1, 30);
        p.check();
    }

    #[test]
    fn an_opening_takes_the_buffer_of_a_chunk_it_prunes() {
        let mut p = Pair::pruned();
        p.append_sparse(3 * CHUNK, 10, 5);
        let second = p.r.schedule.lock().chunks[1].iv.as_ptr();
        // As above: the opening drops the first two chunks, and the chunk it
        // opens is the second one's buffer, so no buffer waits idle.
        p.trail(CHUNK as u64 * 15 / 2);
        p.append_sparse(1, 10, 5);
        let s = p.r.schedule.lock();
        assert_eq!(s.chunks.len(), 2);
        assert_eq!(s.chunks[1].iv.as_ptr(), second);
        assert_eq!(s.spare.capacity(), 0);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "below the pruned horizon"))]
    fn a_request_below_the_pruned_horizon_is_counted() {
        let mut p = Pair::pruned();
        p.append_sparse(CHUNK, 10, 5);
        p.trail(0);
        p.append_sparse(1, 10, 5);
        let gvt = Arc::clone(&p.h.as_ref().unwrap().gvt);
        // Served from the horizon, where the map would have found the gap
        // at 0: a result no unbounded history gives, hence the count.
        let late = p.r.acquire(Nanos(0), Nanos(10));
        assert_eq!(late.start, Nanos(CHUNK as u64 * 15));
        assert_eq!((p.r.below_horizon(), gvt.below_horizon()), (1, 1));
        assert_eq!(p.x.acquire_exclusive(Nanos(0), Nanos(10)), late);
        assert_eq!(gvt.below_horizon(), 2);
    }
}
