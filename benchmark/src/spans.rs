//! Spans the driver records around its calls into the library, in both
//! clocks, and what is computed from them.
//!
//! A [`Recorder`] belongs to one simulated thread (its rank closure owns it,
//! so it works the same on OS threads and on engine tasks). The spans of a
//! rep are folded into an [`Agg`] once the rep is over; the spans of the
//! last traced rep are what the trace file shows.

use std::time::Instant;

use crate::counters::ratio;
use crate::json::Value;
use crate::stats;

/// Which library boundary a span wraps. The layer name is the module the
/// call enters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole operation of the workload (parent of the others).
    Op,
    /// `send` / `isend` / `isend_multi` (layer `pt2pt`).
    Send,
    /// `irecv` (layer `pt2pt`).
    Post,
    /// Blocked in `wait` / `wait_all` (layer `request`).
    Wait,
    /// One `run_stream` call (layer `stream`).
    Stream,
}

impl Kind {
    pub const ALL: [Kind; 5] = [Kind::Op, Kind::Send, Kind::Post, Kind::Wait, Kind::Stream];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Op => "op",
            Kind::Send => "pt2pt.send",
            Kind::Post => "pt2pt.post",
            Kind::Wait => "request.wait",
            Kind::Stream => "stream.run",
        }
    }
}

/// One recorded span. Times are nanoseconds: wall since the recorder's base
/// instant, sim as read from the thread's virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub kind: Kind,
    /// Operation id: the in-rep index of the op this span belongs to.
    pub op: u32,
    /// Index of the enclosing span in the same buffer.
    pub parent: Option<u32>,
    /// How many units the span covers (messages of an `isend_multi`, ops of
    /// a window); per-unit figures divide by it.
    pub units: u32,
    pub wall_start: u64,
    pub wall_end: u64,
    pub sim_start: u64,
    pub sim_end: u64,
}

impl Span {
    pub fn wall_ns(&self) -> u64 {
        self.wall_end - self.wall_start
    }

    pub fn sim_ns(&self) -> u64 {
        self.sim_end - self.sim_start
    }
}

/// Per-thread span buffer with the stack that assigns parents.
#[derive(Debug)]
pub struct Recorder {
    base: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Recorder {
    /// A recorder timing against `base` (shared by all threads of a run so
    /// their spans line up), with room for `capacity` spans so recording a
    /// rep never allocates.
    pub fn new(base: Instant, capacity: usize) -> Self {
        Recorder {
            base,
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
            op: 0,
        }
    }

    /// Set the operation id stamped on spans begun from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op as u32;
    }

    /// Open a span at virtual time `sim_now`; returns its handle.
    #[inline]
    pub fn begin(&mut self, kind: Kind, units: u32, sim_now: u64) -> u32 {
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            kind,
            op: self.op,
            parent: self.open.last().copied(),
            units,
            wall_start: 0,
            wall_end: 0,
            sim_start: sim_now,
            sim_end: sim_now,
        });
        self.open.push(idx);
        // Read the wall clock last on entry and first on exit, so a span
        // covers as little of the recorder itself as possible.
        self.spans[idx as usize].wall_start = self.base.elapsed().as_nanos() as u64;
        idx
    }

    /// Close span `idx` (the innermost open one) at virtual time `sim_now`.
    #[inline]
    pub fn end(&mut self, idx: u32, sim_now: u64) {
        let wall_end = self.base.elapsed().as_nanos() as u64;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans must close innermost first");
        let s = &mut self.spans[idx as usize];
        s.wall_end = wall_end;
        s.sim_end = sim_now;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        debug_assert!(self.open.is_empty(), "a span is still open");
        self.spans
    }
}

/// Self time of every span, wall clock: its duration minus the part of its
/// interval that its direct children cover (overlapping children count
/// once). Children are recorded after their parent in start order, which is
/// what one pass relies on.
pub fn self_wall_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    // Per parent: end of the child cover merged so far.
    let mut frontier = vec![0u64; spans.len()];
    for s in spans {
        let Some(p) = s.parent else { continue };
        let parent = &spans[p as usize];
        let start = s
            .wall_start
            .max(parent.wall_start)
            .max(frontier[p as usize]);
        let end = s.wall_end.min(parent.wall_end);
        if end > start {
            covered[p as usize] += end - start;
            frontier[p as usize] = end;
        }
    }
    spans
        .iter()
        .zip(&covered)
        .map(|(s, c)| s.wall_ns() - c)
        .collect()
}

/// Running totals of one span kind.
#[derive(Debug, Clone, Default)]
pub struct KindAgg {
    pub spans: u64,
    pub units: u64,
    pub wall_ns: u64,
    pub sim_ns: u64,
    /// Per-unit wall durations, kept only for the kinds whose percentiles
    /// are reported (`Op`, `Wait`, `Stream`).
    pub wall_samples: Vec<f64>,
}

/// What the spans of all traced reps of one thread add up to.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    kinds: [KindAgg; Kind::ALL.len()],
    /// Self time of the `Op` spans: wall time an op spent in the driver's
    /// own code (load generation, verification) rather than in the library.
    pub op_self_wall_ns: u64,
}

impl Agg {
    pub fn kind(&self, k: Kind) -> &KindAgg {
        &self.kinds[k as usize]
    }

    /// Fold one rep's spans in.
    pub fn fold(&mut self, spans: &[Span]) {
        let selfs = self_wall_ns(spans);
        for (s, own) in spans.iter().zip(selfs) {
            let a = &mut self.kinds[s.kind as usize];
            a.spans += 1;
            a.units += s.units as u64;
            a.wall_ns += s.wall_ns();
            a.sim_ns += s.sim_ns();
            if matches!(s.kind, Kind::Op | Kind::Wait | Kind::Stream) {
                a.wall_samples.push(s.wall_ns() as f64 / s.units as f64);
            }
            if s.kind == Kind::Op {
                self.op_self_wall_ns += own;
            }
        }
    }

    /// Merge another thread's totals in.
    pub fn merge(&mut self, other: Agg) {
        for (a, b) in self.kinds.iter_mut().zip(other.kinds) {
            a.spans += b.spans;
            a.units += b.units;
            a.wall_ns += b.wall_ns;
            a.sim_ns += b.sim_ns;
            a.wall_samples.extend(b.wall_samples);
        }
        self.op_self_wall_ns += other.op_self_wall_ns;
    }

    /// Mean wall ns per unit of kind `k` (0 when the workload has none).
    pub fn wall_per_unit(&self, k: Kind) -> f64 {
        let a = self.kind(k);
        ratio(a.wall_ns, a.units)
    }

    /// Mean sim ns per unit of kind `k` (0 when the workload has none).
    pub fn sim_per_unit(&self, k: Kind) -> f64 {
        let a = self.kind(k);
        ratio(a.sim_ns, a.units)
    }

    /// `(p50, tail, percentile used for the tail, samples)` of kind `k`'s
    /// per-unit wall time; zeros when the workload has no such span.
    pub fn wall_percentiles(&self, k: Kind, want: f64) -> (f64, f64, f64, usize) {
        let samples = &self.kind(k).wall_samples;
        if samples.is_empty() {
            return (0.0, 0.0, want, 0);
        }
        let (tail, used) = stats::tail(samples, want);
        (stats::median(samples), tail, used, samples.len())
    }
}

/// Most spans of one thread written to a trace file.
pub const TRACE_FILE_SPANS: usize = 4096;

/// The spans of one thread as the trace file shows them.
pub fn thread_json(rank: usize, spans: &[Span]) -> Value {
    let shown = &spans[..spans.len().min(TRACE_FILE_SPANS)];
    Value::obj([
        ("rank", Value::Num(rank as f64)),
        ("spans_recorded", Value::Num(spans.len() as f64)),
        (
            "spans",
            Value::Arr(
                shown
                    .iter()
                    .map(|s| {
                        Value::obj([
                            ("name", Value::str(s.kind.name())),
                            ("op", Value::Num(s.op as f64)),
                            (
                                "parent",
                                s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                            ),
                            ("units", Value::Num(s.units as f64)),
                            ("wall_start_ns", Value::Num(s.wall_start as f64)),
                            ("wall_end_ns", Value::Num(s.wall_end as f64)),
                            ("sim_start_ns", Value::Num(s.sim_start as f64)),
                            ("sim_end_ns", Value::Num(s.sim_end as f64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        kind: Kind,
        parent: Option<u32>,
        units: u32,
        wall: (u64, u64),
        sim: (u64, u64),
    ) -> Span {
        Span {
            kind,
            op: 0,
            parent,
            units,
            wall_start: wall.0,
            wall_end: wall.1,
            sim_start: sim.0,
            sim_end: sim.1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = [
            span(Kind::Op, None, 1, (100, 200), (0, 50)),
            span(Kind::Send, Some(0), 1, (110, 130), (0, 10)),
            span(Kind::Wait, Some(0), 1, (150, 190), (10, 50)),
            // A grandchild shortens its parent's self time, not the root's.
            span(Kind::Post, Some(2), 1, (160, 170), (10, 12)),
        ];
        assert_eq!(self_wall_ns(&spans), vec![40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(Kind::Op, None, 1, (100, 200), (0, 0)),
            span(Kind::Send, Some(0), 1, (90, 140), (0, 0)), // starts early
            span(Kind::Send, Some(0), 1, (120, 160), (0, 0)), // overlaps
            span(Kind::Send, Some(0), 1, (180, 250), (0, 0)), // ends late
        ];
        // Cover = [100,160] + [180,200] = 80.
        assert_eq!(self_wall_ns(&spans)[0], 20);
    }

    #[test]
    fn recorder_assigns_parents_and_ops() {
        let mut r = Recorder::new(Instant::now(), 16);
        r.set_op(7);
        let op = r.begin(Kind::Op, 1, 1000);
        let send = r.begin(Kind::Send, 4, 1000);
        r.end(send, 1100);
        let wait = r.begin(Kind::Wait, 1, 1100);
        r.end(wait, 1500);
        r.end(op, 1500);
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.op == 7));
        assert_eq!(s[1].units, 4);
        assert_eq!(s[0].sim_ns(), 500);
        assert!(s[0].wall_start <= s[1].wall_start && s[2].wall_end <= s[0].wall_end);
        assert_eq!(r.into_spans().len(), 3);
    }

    #[test]
    fn agg_divides_by_units_and_tracks_driver_self_time() {
        let spans = [
            span(Kind::Op, None, 2, (0, 1000), (0, 400)),
            span(Kind::Send, Some(0), 4, (100, 500), (0, 200)),
            span(Kind::Wait, Some(0), 1, (500, 900), (200, 400)),
        ];
        let mut a = Agg::default();
        a.fold(&spans);
        a.fold(&spans);
        assert_eq!(a.kind(Kind::Send).spans, 2);
        assert_eq!(a.wall_per_unit(Kind::Send), 100.0);
        assert_eq!(a.sim_per_unit(Kind::Send), 50.0);
        assert_eq!(a.wall_per_unit(Kind::Post), 0.0);
        assert_eq!(a.op_self_wall_ns, 400);
        let (p50, _, _, n) = a.wall_percentiles(Kind::Op, 0.99);
        assert_eq!((p50, n), (500.0, 2));
        let mut b = Agg::default();
        b.fold(&spans);
        a.merge(b);
        assert_eq!(a.kind(Kind::Wait).spans, 3);
        assert_eq!(a.op_self_wall_ns, 600);
    }

    #[test]
    fn trace_file_is_capped_and_parses() {
        let spans = vec![span(Kind::Send, None, 1, (1, 2), (3, 4)); TRACE_FILE_SPANS + 10];
        let v = thread_json(3, &spans);
        let text = v.to_string();
        let back = crate::json::parse(&text).unwrap();
        assert_eq!(back.get("rank").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            back.get("spans_recorded").unwrap().as_f64(),
            Some((TRACE_FILE_SPANS + 10) as f64)
        );
        let shown = back.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(shown.len(), TRACE_FILE_SPANS);
        assert_eq!(shown[0].get("name").unwrap().as_str(), Some("pt2pt.send"));
    }
}
