//! The five workloads and the run shape they share.
//!
//! Closed loop, fixed operation counts. A *rep* sets the workload up from
//! nothing — universe build, communicator set-up, rank launch, a
//! quarter-size warm-up — and then times a fixed number of operations with
//! fixed generated sizes. Every rep therefore starts from the same library
//! state, so simulated time and counters compare exactly from rep to rep,
//! and memory the library keeps per message sent (it does: see README.md)
//! cannot make late reps differ from early ones. `--seconds` only decides
//! how many reps a run makes. Rank 0 paces a rep over a control communicator
//! of its own, so control traffic can never match a workload receive
//! (`fanin` receives with wildcards).

use std::time::Instant;

use bytes::Bytes;
use rankmpi_core::request::wait_all;
use rankmpi_core::{
    Communicator, EngineKind, LaunchMode, ProcEnv, Request, Status, TaskLaunch, ThreadCtx,
    Universe, ANY_SOURCE, ANY_TAG,
};
use rankmpi_stream::{run_stream, Mechanism, StreamConfig, Topology};
use rankmpi_vtime::Nanos;

use crate::alloc;
use crate::counters::Counters;
use crate::load::{Load, Origin, SMALL_MIN, SMALL_SPAN};
use crate::spans::{Agg, Kind, Recorder, Span};
use crate::stats;

/// Fewest reps of each kind (plain, and traced in a traced pass) a run
/// reports a median over, however short `--seconds` is.
pub const MIN_REPS: usize = 5;
/// A warm-up rep is this fraction of a timed rep.
const WARMUP_DIV: u64 = 4;

/// `msgrate`: receives pre-posted and sends issued per 0-byte ack.
const WINDOW: u64 = 64;
/// `halo`: faces exchanged per iteration and direction.
const FACES: usize = 4;
/// `fanin`: messages a source sends per ack from rank 0.
const ACK_EVERY: u64 = 32;
/// `farm`: stream shape.
const FARM_ITEM_BYTES: usize = 512;
const FARM_CREDITS: u64 = 48;
const FARM_CREDIT_BATCH: u64 = 8;

/// Tag of workload acks; generated tags stay below [`crate::load::TAG_CYCLE`].
const ACK_TAG: i64 = 1000;
/// Tags on the control communicator.
const GO_TAG: i64 = 1;
const DONE_TAG: i64 = 2;

type SmallBuf = [u8; SMALL_MIN + SMALL_SPAN as usize];

/// Payload size, lane count and batch depth a workload puts on the layers:
/// what shapes the probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub bytes: usize,
    pub lanes: usize,
    pub batch: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Pingpong,
    Msgrate,
    Halo,
    Fanin,
    Farm,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Pingpong,
        Workload::Msgrate,
        Workload::Halo,
        Workload::Fanin,
        Workload::Farm,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pingpong => "pingpong",
            Workload::Msgrate => "msgrate",
            Workload::Halo => "halo",
            Workload::Fanin => "fanin",
            Workload::Farm => "farm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one op is.
    pub fn op(self) -> &'static str {
        match self {
            Workload::Pingpong => "round trip",
            Workload::Msgrate | Workload::Fanin => "message",
            Workload::Halo => "iteration",
            Workload::Farm => "item",
        }
    }

    /// Simulated ranks.
    pub fn ranks(self) -> usize {
        match self {
            Workload::Pingpong | Workload::Msgrate | Workload::Halo => 2,
            Workload::Fanin => 5,
            Workload::Farm => 4,
        }
    }

    /// Whether ranks are engine tasks (more ranks than cores) instead of OS
    /// threads.
    pub fn tasks(self) -> bool {
        matches!(self, Workload::Fanin | Workload::Farm)
    }

    /// Operations in one timed rep. Sized once on the reference host
    /// (`nproc` = 2) to about half a second and frozen; see README.md.
    pub fn ops_per_rep(self) -> u64 {
        match self {
            Workload::Pingpong => 10_240,
            Workload::Msgrate => 163_840,
            Workload::Halo => 20_480,
            Workload::Fanin => 131_072,
            Workload::Farm => 49_152,
        }
    }

    /// Application messages one op puts on the wire (acks and credits not
    /// counted): what the ledger multiplies the one-thread path by.
    pub fn msgs_per_op(self) -> f64 {
        match self {
            Workload::Pingpong => 2.0,
            Workload::Msgrate | Workload::Fanin => 1.0,
            Workload::Halo => 2.0 * FACES as f64,
            Workload::Farm => 2.0,
        }
    }

    pub fn shape(self) -> Shape {
        let (bytes, lanes, batch) = match self {
            Workload::Pingpong => (SMALL_MIN, 1, 1),
            Workload::Msgrate => (SMALL_MIN, 1, WINDOW as usize),
            Workload::Halo => (crate::load::FACE_MIN, 1, FACES),
            Workload::Fanin => (SMALL_MIN, 4, ACK_EVERY as usize),
            Workload::Farm => (FARM_ITEM_BYTES, 2, FARM_CREDIT_BATCH as usize),
        };
        Shape {
            bytes,
            lanes,
            batch,
        }
    }

    /// Most spans one rank records per op of a traced rep.
    fn spans_per_op(self) -> usize {
        match self {
            Workload::Pingpong => 4,
            Workload::Msgrate | Workload::Fanin => 3,
            Workload::Halo => 3 + FACES,
            Workload::Farm => 1,
        }
    }
}

/// What a run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    /// Wall time the timed reps should fill.
    pub seconds: f64,
    /// Traced pass: reps alternate plain/traced; the counting allocator runs
    /// in the traced ones.
    pub trace: bool,
}

/// One rep: the set-up time and the totals over [`Workload::ops_per_rep`]
/// timed ops.
#[derive(Debug, Clone, Copy)]
pub struct RepSample {
    pub traced: bool,
    /// Universe build to end of warm-up.
    pub setup_s: f64,
    pub wall_ns: f64,
    /// Virtual time the slowest participant spent in the timed ops.
    pub sim_ns: f64,
}

/// `StreamReport` figures of one `farm` rep.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    pub item_sim_ns_p50: f64,
    pub item_sim_ns_p99: f64,
    pub credit_stall_sim_ns_per_op: f64,
    pub reorder_peak: f64,
}

/// What one rep measured besides its [`RepSample`].
#[derive(Debug, Default)]
struct RepOut {
    attempted: u64,
    failed: u64,
    pinned: bool,
    setup_s: f64,
    wall_ns: f64,
    sim_ns: f64,
    /// Span totals (traced reps), all ranks merged, and per rank the spans
    /// themselves.
    agg: Agg,
    threads: Vec<(usize, Vec<Span>)>,
    counters: Option<Counters>,
    stream: Option<StreamStats>,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct RunOut {
    /// Ops executed and verified, warm-ups included.
    pub attempted: u64,
    /// Ops that failed a stamp, order, tag or stream check or returned `Err`.
    pub failed: u64,
    pub reps: Vec<RepSample>,
    /// Peak resident set of the process after the first rep: the footprint of one rep
    /// with every rank thread in a fresh allocator arena. Later reps' threads
    /// inherit the arenas of earlier ones in an order that depends on thread
    /// timing, which makes a reading at exit bimodal (`fanin`: 41 or 86 MiB).
    pub peak_rss_mib: f64,
    /// Span totals of the traced reps, all ranks merged.
    pub agg: Agg,
    /// Per rank, the spans of the last traced rep (for the trace file).
    pub trace_threads: Vec<(usize, Vec<Span>)>,
    /// Library counters summed over the timed ops of all reps (none for
    /// `farm`, whose universe lives inside `run_stream`).
    pub counters: Option<Counters>,
    /// `(allocations, bytes)` over the timed ops of the traced reps.
    pub alloc: (u64, u64),
    /// One entry per `farm` rep.
    pub stream: Vec<StreamStats>,
    /// Whether the ranks were pinned to CPUs (see [`crate::sys::pin`]).
    pub pinned: bool,
}

impl RunOut {
    /// Per-op `(wall ns, sim ns)` of every plain (or every traced) rep.
    pub fn per_op(&self, w: Workload, traced: bool) -> Option<(Vec<f64>, Vec<f64>)> {
        let ops = w.ops_per_rep() as f64;
        let (wall, sim): (Vec<f64>, Vec<f64>) = self
            .reps
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| (r.wall_ns / ops, r.sim_ns / ops))
            .unzip();
        (!wall.is_empty()).then_some((wall, sim))
    }

    /// Set-up time of every rep.
    pub fn setup_s(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.setup_s).collect()
    }

    /// Timed ops in all reps: what counter deltas divide by.
    pub fn timed_ops(&self, w: Workload) -> u64 {
        self.reps.len() as u64 * w.ops_per_rep()
    }
}

/// Whether to run another rep, and if so whether it is traced: stop once
/// `--seconds` are filled and every reported median has [`MIN_REPS`] reps
/// behind it; a traced pass alternates plain and traced reps.
fn next_rep(cfg: &RunCfg, reps: &[RepSample], started: Instant) -> Option<bool> {
    let traced = reps.iter().filter(|r| r.traced).count();
    let plain = reps.len() - traced;
    let enough = plain >= MIN_REPS && (!cfg.trace || traced >= MIN_REPS);
    let last_s = reps.last().map_or(0.0, |r| r.setup_s + r.wall_ns * 1e-9);
    if enough && started.elapsed().as_secs_f64() + last_s / 2.0 >= cfg.seconds {
        None
    } else {
        Some(cfg.trace && reps.len() % 2 == 1)
    }
}

/// Run `w` as `cfg` asks.
pub fn run(w: Workload, cfg: &RunCfg) -> RunOut {
    let load = Load::new(cfg.seed);
    let mut run = RunOut::default();
    let started = Instant::now();
    while let Some(traced) = next_rep(cfg, &run.reps, started) {
        let rep = match w {
            Workload::Farm => farm_rep(cfg, traced, started),
            _ => pt2pt_rep(w, &load, traced, started),
        };
        run.attempted += rep.attempted;
        run.failed += rep.failed;
        run.pinned = rep.pinned;
        run.reps.push(RepSample {
            traced,
            setup_s: rep.setup_s,
            wall_ns: rep.wall_ns,
            sim_ns: rep.sim_ns,
        });
        if run.reps.len() == 1 {
            run.peak_rss_mib = crate::sys::peak_rss_mib();
        }
        run.agg.merge(rep.agg);
        if traced {
            run.trace_threads = rep.threads;
        }
        if let Some(c) = rep.counters {
            run.counters = Some(run.counters.unwrap_or_default().plus(&c));
        }
        run.stream.extend(rep.stream);
    }
    run.alloc = alloc::totals();
    run
}

// ---------------------------------------------------------------------------
// pingpong, msgrate, halo, fanin: ranks driven over `Universe::run`.
// ---------------------------------------------------------------------------

/// One simulated rank of a point-to-point workload.
struct Rank<'a> {
    th: ThreadCtx,
    /// Carries the workload's traffic.
    work: Communicator,
    /// Carries rep control (go / done).
    ctl: Communicator,
    load: &'a Load,
    rec: Recorder,
    me: usize,
    /// 0 during the warm-up, 1 during the timed ops; part of every stamp.
    rep: u32,
    attempted: u64,
    failed: u64,
    /// `halo`: this rank's faces (stamped and sent every iteration) and the
    /// peer's bodies to check arrivals against.
    faces_out: Vec<Vec<u8>>,
    faces_in: Vec<Vec<u8>>,
}

impl Rank<'_> {
    #[inline(always)]
    fn open<const T: bool>(&mut self, kind: Kind, units: u32) -> u32 {
        if T {
            self.rec.begin(kind, units, self.th.clock.now().0)
        } else {
            0
        }
    }

    #[inline(always)]
    fn close<const T: bool>(&mut self, span: u32) {
        if T {
            self.rec.end(span, self.th.clock.now().0);
        }
    }

    #[inline(always)]
    fn set_op<const T: bool>(&mut self, op: u64) {
        if T {
            self.rec.set_op(op);
        }
    }

    fn origin(&self, src: usize, idx: u64, lane: u8) -> Origin {
        Origin {
            src,
            rep: self.rep,
            idx,
            lane,
        }
    }

    /// Blocking send of `data` (span: `pt2pt.send`).
    fn send<const T: bool>(&mut self, dst: usize, tag: i64, data: &[u8]) {
        let s = self.open::<T>(Kind::Send, 1);
        let res = self.work.send(&mut self.th, dst, tag, data);
        self.close::<T>(s);
        if res.is_err() {
            self.failed += 1;
        }
    }

    /// Generate and send the small message `idx` of this rank.
    fn send_small<const T: bool>(&mut self, dst: usize, idx: u64, buf: &mut SmallBuf) {
        let len = self.load.fill_small(buf, self.origin(self.me, idx, 0));
        self.send::<T>(dst, self.load.tag(idx), &buf[..len]);
    }

    /// `irecv` (span: `pt2pt.post`).
    fn post<const T: bool>(&mut self, src: i64, tag: i64) -> Option<Request> {
        let s = self.open::<T>(Kind::Post, 1);
        let req = self.work.irecv(&mut self.th, src, tag);
        self.close::<T>(s);
        if req.is_err() {
            self.failed += 1;
        }
        req.ok()
    }

    /// Block until `req` completes (span: `request.wait`).
    fn wait<const T: bool>(&mut self, req: &Request) -> Option<(Status, Bytes)> {
        let s = self.open::<T>(Kind::Wait, 1);
        let out = req.wait_outcome(&mut self.th.clock);
        self.close::<T>(s);
        if out.is_err() {
            self.failed += 1;
        }
        out.ok()
    }

    /// A blocking receive, split at the one boundary the library exposes:
    /// `Communicator::recv` is `irecv` followed by `wait_outcome`.
    fn recv<const T: bool>(&mut self, src: i64, tag: i64) -> Option<(Status, Bytes)> {
        let req = self.post::<T>(src, tag)?;
        self.wait::<T>(&req)
    }

    /// Receive small message `idx` from `src` and check source, tag, length,
    /// stamp and filler.
    fn recv_small<const T: bool>(&mut self, src: usize, idx: u64) {
        let tag = self.load.tag(idx);
        if let Some((st, data)) = self.recv::<T>(src as i64, tag) {
            self.check_small(&st, &data, src, idx);
        }
    }

    fn check_small(&mut self, st: &Status, data: &[u8], src: usize, idx: u64) {
        let ok = st.source == src
            && st.tag == self.load.tag(idx)
            && self.load.check_small(data, self.origin(src, idx, 0));
        if !ok {
            self.failed += 1;
        }
    }

    /// Send / receive a 0-byte workload ack.
    fn send_ack<const T: bool>(&mut self, dst: usize) {
        self.send::<T>(dst, ACK_TAG, &[]);
    }

    fn recv_ack<const T: bool>(&mut self, src: usize) {
        if let Some((_, data)) = self.recv::<T>(src as i64, ACK_TAG) {
            if !data.is_empty() {
                self.failed += 1;
            }
        }
    }
}

/// `pingpong`: rank 0 sends, rank 1 echoes; one op is one round trip.
fn pingpong<const T: bool>(r: &mut Rank<'_>, ops: u64) {
    let peer = 1 - r.me;
    let mut buf: SmallBuf = [0; SMALL_MIN + SMALL_SPAN as usize];
    for i in 0..ops {
        r.set_op::<T>(i);
        if r.me == 0 {
            let op = r.open::<T>(Kind::Op, 1);
            r.send_small::<T>(peer, i, &mut buf);
            r.recv_small::<T>(peer, i);
            r.close::<T>(op);
            r.attempted += 1;
        } else {
            r.recv_small::<T>(peer, i);
            r.send_small::<T>(peer, i, &mut buf);
        }
    }
}

/// `msgrate`: rank 0 sends windows of [`WINDOW`] messages, each window only
/// after rank 1 acked that its receives are posted, so every message matches
/// from the posted queue; one op is one message.
fn msgrate<const T: bool>(r: &mut Rank<'_>, ops: u64) {
    let windows = ops / WINDOW;
    if r.me == 0 {
        let mut buf: SmallBuf = [0; SMALL_MIN + SMALL_SPAN as usize];
        r.recv_ack::<false>(1); // window 0 is posted
        for w in 0..windows {
            r.set_op::<T>(w);
            let op = r.open::<T>(Kind::Op, WINDOW as u32);
            for i in w * WINDOW..(w + 1) * WINDOW {
                r.send_small::<T>(1, i, &mut buf);
            }
            r.recv_ack::<T>(1); // window w received, window w+1 posted
            r.close::<T>(op);
            r.attempted += WINDOW;
        }
    } else {
        let mut cur: Vec<Request> = Vec::with_capacity(WINDOW as usize);
        let mut next: Vec<Request> = Vec::with_capacity(WINDOW as usize);
        let post_window = |r: &mut Rank<'_>, w: u64, into: &mut Vec<Request>| {
            r.set_op::<T>(w);
            for i in w * WINDOW..(w + 1) * WINDOW {
                into.extend(r.post::<T>(0, r.load.tag(i)));
            }
        };
        post_window(r, 0, &mut cur);
        r.send_ack::<false>(0);
        for w in 0..windows {
            r.set_op::<T>(w);
            for (i, req) in (w * WINDOW..).zip(cur.drain(..)) {
                if let Some((st, data)) = r.wait::<T>(&req) {
                    r.check_small(&st, &data, 0, i);
                }
            }
            if w + 1 < windows {
                post_window(r, w + 1, &mut next);
                r.set_op::<T>(w);
            }
            r.send_ack::<T>(0);
            std::mem::swap(&mut cur, &mut next);
        }
    }
}

/// `halo`: both ranks batch-send [`FACES`] faces, post [`FACES`] receives
/// and wait for all of them; one op is one iteration (2 x FACES messages).
fn halo<const T: bool>(r: &mut Rank<'_>, ops: u64) {
    let peer = 1 - r.me;
    let load = r.load;
    let mut out = std::mem::take(&mut r.faces_out);
    let expect = std::mem::take(&mut r.faces_in);
    let mut reqs: Vec<Request> = Vec::with_capacity(FACES);
    for it in 0..ops {
        r.set_op::<T>(it);
        let op = r.open::<T>(Kind::Op, 1);
        let tag = |f: usize| load.tag(it * FACES as u64 + f as u64);
        for (f, body) in out.iter_mut().enumerate() {
            load.stamp_face(body, r.origin(r.me, it, f as u8));
        }
        let msgs: [(usize, i64, &[u8]); FACES] =
            std::array::from_fn(|f| (peer, tag(f), &out[f][..]));
        let s = r.open::<T>(Kind::Send, FACES as u32);
        let sent = r.work.isend_multi(&mut r.th, &msgs);
        r.close::<T>(s);
        if sent.is_err() {
            r.failed += 1;
        }
        reqs.clear();
        for f in 0..FACES {
            reqs.extend(r.post::<T>(peer as i64, tag(f)));
        }
        let w = r.open::<T>(Kind::Wait, 1);
        let got = wait_all(&mut r.th.clock, &reqs);
        r.close::<T>(w);
        for (f, (st, data)) in got.iter().enumerate() {
            let ok = st.source == peer
                && st.tag == tag(f)
                && load.check_face(data, &expect[f], r.origin(peer, it, f as u8));
            if !ok {
                r.failed += 1;
            }
        }
        if got.len() != FACES {
            r.failed += 1;
        }
        r.close::<T>(op);
        if r.me == 0 {
            r.attempted += 1;
        }
    }
    r.faces_out = out;
    r.faces_in = expect;
}

/// `fanin`: every other rank sends to rank 0, which receives with both
/// wildcards one message at a time and acks each source every
/// [`ACK_EVERY`] messages; one op is one message. The stamp carries the
/// per-source index, so it also proves per-source FIFO.
fn fanin<const T: bool>(r: &mut Rank<'_>, ops: u64) {
    let sources = r.work.size() - 1;
    let per_source = ops / sources as u64;
    if r.me == 0 {
        let mut seen = vec![0u64; sources + 1];
        for n in 0..ops {
            r.set_op::<T>(n);
            let Some((st, data)) = r.recv::<T>(ANY_SOURCE, ANY_TAG) else {
                continue;
            };
            r.attempted += 1;
            let src = st.source;
            if !(1..=sources).contains(&src) {
                r.failed += 1;
                continue;
            }
            r.check_small(&st, &data, src, seen[src]);
            seen[src] += 1;
            if seen[src].is_multiple_of(ACK_EVERY) {
                r.send_ack::<T>(src);
            }
        }
    } else {
        let mut buf: SmallBuf = [0; SMALL_MIN + SMALL_SPAN as usize];
        for round in 0..per_source / ACK_EVERY {
            r.set_op::<T>(round);
            let op = r.open::<T>(Kind::Op, ACK_EVERY as u32);
            for i in round * ACK_EVERY..(round + 1) * ACK_EVERY {
                r.send_small::<T>(0, i, &mut buf);
            }
            r.recv_ack::<T>(0);
            r.close::<T>(op);
        }
    }
}

fn rep<const T: bool>(w: Workload, r: &mut Rank<'_>, ops: u64) {
    match w {
        Workload::Pingpong => pingpong::<T>(r, ops),
        Workload::Msgrate => msgrate::<T>(r, ops),
        Workload::Halo => halo::<T>(r, ops),
        Workload::Fanin => fanin::<T>(r, ops),
        Workload::Farm => unreachable!("farm runs through run_stream"),
    }
}

/// What one rank hands back from `Universe::run`.
#[derive(Default)]
struct RankOut {
    attempted: u64,
    failed: u64,
    pinned: bool,
    spans: Vec<Span>,
    /// Rank 0 only.
    setup_s: f64,
    wall_ns: f64,
    sim_ns: f64,
    counters: Option<Counters>,
}

/// The body of one rank for one rep: set-up and warm-up, then the timed ops
/// between rank 0's go and the last rank's done.
fn rank_main(
    w: Workload,
    env: ProcEnv,
    load: &Load,
    traced: bool,
    base: Instant,
    setup_from: Instant,
) -> RankOut {
    // Thread-launched ranks get a CPU each, in rank order. Task-launched
    // ranks stay where the engine's carriers are scheduled: pinned, `fanin`'s
    // four senders would share one CPU and never meet at rank 0's VCI lock.
    let pinned = !w.tasks() && crate::sys::pin(env.rank()).is_some();
    let work = env.world();
    let mut th = env.single_thread();
    let ctl = work.dup(&mut th).expect("dup of the world communicator");
    let me = work.rank();
    let others = 1..work.size();
    let ops = w.ops_per_rep();
    let span_room = if traced {
        ops as usize * w.spans_per_op() + 64
    } else {
        0
    };
    let faces = |src: usize| -> Vec<Vec<u8>> {
        if w == Workload::Halo {
            (0..FACES).map(|f| load.face_body(src, f as u8)).collect()
        } else {
            Vec::new()
        }
    };
    let mut r = Rank {
        th,
        work,
        ctl,
        load,
        rec: Recorder::new(base, span_room),
        me,
        rep: 0,
        attempted: 0,
        failed: 0,
        faces_out: faces(me),
        faces_in: faces(me ^ 1),
    };
    let mut out = RankOut {
        pinned,
        ..RankOut::default()
    };

    // After its share of the ops, every other rank reports its virtual time
    // spent to rank 0, which returns the slowest participant's.
    let done = |r: &mut Rank<'_>, sim_ns: u64| -> u64 {
        if r.me == 0 {
            others.clone().fold(sim_ns, |max, src| {
                let (_, d) = r
                    .ctl
                    .recv(&mut r.th, src as i64, DONE_TAG)
                    .expect("done message");
                max.max(u64::from_le_bytes(d[..8].try_into().expect("8-byte done")))
            })
        } else {
            r.ctl
                .send(&mut r.th, 0, DONE_TAG, &sim_ns.to_le_bytes())
                .expect("done message");
            sim_ns
        }
    };

    rep::<false>(w, &mut r, ops / WARMUP_DIV);
    done(&mut r, 0);

    // Rank 0 reads the counters while every other rank sits in its receive
    // below, starts the clocks and says go.
    let mut wall_from = None;
    if me == 0 {
        out.setup_s = setup_from.elapsed().as_secs_f64();
        let before = Counters::read(env.universe());
        alloc::arm(traced);
        wall_from = Some((Instant::now(), before));
        for dst in others.clone() {
            r.ctl.send(&mut r.th, dst, GO_TAG, &[]).expect("go message");
        }
    } else {
        r.ctl.recv(&mut r.th, 0, GO_TAG).expect("go message");
    }
    r.rep = 1;
    let sim_from = r.th.clock.now();
    if traced {
        rep::<true>(w, &mut r, ops);
    } else {
        rep::<false>(w, &mut r, ops);
    }
    let spent = (r.th.clock.now() - sim_from).0;
    let sim_ns = done(&mut r, spent);
    if let Some((from, before)) = wall_from {
        out.wall_ns = from.elapsed().as_nanos() as f64;
        alloc::arm(false);
        out.sim_ns = sim_ns as f64;
        out.counters = Some(Counters::read(env.universe()).since(&before));
    }
    out.attempted = r.attempted;
    out.failed = r.failed;
    out.spans = r.rec.into_spans();
    out
}

/// One rep of a point-to-point workload on a universe of its own.
fn pt2pt_rep(w: Workload, load: &Load, traced: bool, base: Instant) -> RepOut {
    let setup_from = Instant::now();
    let mut builder = Universe::builder().nodes(w.ranks());
    if w.tasks() {
        builder = builder.tasks();
    }
    let uni = builder.build();
    let outs = uni.run(|env| rank_main(w, env, load, traced, base, setup_from));
    let mut rep = RepOut::default();
    for (rank, o) in outs.into_iter().enumerate() {
        rep.attempted += o.attempted;
        rep.failed += o.failed;
        rep.pinned = o.pinned;
        if rank == 0 {
            rep.setup_s = o.setup_s;
            rep.wall_ns = o.wall_ns;
            rep.sim_ns = o.sim_ns;
            rep.counters = o.counters;
        }
        if traced {
            rep.agg.fold(&o.spans);
            rep.threads.push((rank, o.spans));
        }
    }
    rep
}

// ---------------------------------------------------------------------------
// farm: one `run_stream` call for the warm-up, one for the timed items.
// ---------------------------------------------------------------------------

fn farm_config(seed: u64, items: u64) -> StreamConfig {
    StreamConfig {
        topology: Topology::Farm {
            workers: 2,
            threads: 1,
        },
        mechanism: Mechanism::Baseline,
        items,
        item_bytes: FARM_ITEM_BYTES,
        credits: FARM_CREDITS,
        credit_batch: FARM_CREDIT_BATCH,
        work: Nanos::us(2),
        work_jitter: 0.3,
        seed,
        matching: EngineKind::default(),
        launch: LaunchMode::Tasks(TaskLaunch::default()),
        ..StreamConfig::default()
    }
}

/// One `farm` rep. `run_stream` builds its own universe, so the set-up
/// sample is a whole quarter-size stream run and the timed call includes a
/// universe build of its own (under 1% of it).
fn farm_rep(cfg: &RunCfg, traced: bool, base: Instant) -> RepOut {
    let items = Workload::Farm.ops_per_rep();
    let mut rep = RepOut::default();
    let stream = |rep: &mut RepOut, items: u64| {
        let report = run_stream(&farm_config(cfg.seed, items));
        rep.attempted += items;
        if !(report.verified && report.delivered == items && report.items == items) {
            rep.failed += items;
        }
        report
    };

    let setup_from = Instant::now();
    stream(&mut rep, items / WARMUP_DIV);
    rep.setup_s = setup_from.elapsed().as_secs_f64();

    let mut rec = Recorder::new(base, usize::from(traced));
    alloc::arm(traced);
    let from = Instant::now();
    let span = traced.then(|| rec.begin(Kind::Stream, items as u32, 0));
    let report = stream(&mut rep, items);
    if let Some(s) = span {
        rec.end(s, report.elapsed.0);
    }
    rep.wall_ns = from.elapsed().as_nanos() as f64;
    alloc::arm(false);
    rep.sim_ns = report.elapsed.0 as f64;
    let lat: Vec<f64> = report.latencies_ns.iter().map(|&l| l as f64).collect();
    rep.stream = Some(StreamStats {
        item_sim_ns_p50: stats::median(&lat),
        item_sim_ns_p99: stats::tail(&lat, 0.99).0,
        credit_stall_sim_ns_per_op: report.credit_stall_ns as f64 / items as f64,
        reorder_peak: report.reorder_peak as f64,
    });
    if traced {
        rep.agg.fold(rec.spans());
        rep.threads.push((0, rec.into_spans()));
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_parse_back_and_rep_sizes_divide() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            let ops = w.ops_per_rep();
            assert_eq!(ops % WARMUP_DIV, 0);
            let warm = ops / WARMUP_DIV;
            match w {
                Workload::Msgrate => assert_eq!(warm % WINDOW, 0),
                Workload::Fanin => assert_eq!(warm % (4 * ACK_EVERY), 0),
                _ => {}
            }
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn reps_stop_when_seconds_are_filled_and_medians_are_backed() {
        let cfg = RunCfg {
            seed: 1,
            seconds: 1e-9,
            trace: false,
        };
        let rep = |traced| RepSample {
            traced,
            setup_s: 0.001,
            wall_ns: 1e6,
            sim_ns: 1.0,
        };
        let start = Instant::now();
        let mut reps = Vec::new();
        for _ in 0..MIN_REPS {
            assert_eq!(next_rep(&cfg, &reps, start), Some(false));
            reps.push(rep(false));
        }
        assert_eq!(next_rep(&cfg, &reps, start), None);
        // With time left the run keeps going.
        let long = RunCfg {
            seconds: 3600.0,
            ..cfg
        };
        assert_eq!(next_rep(&long, &reps, start), Some(false));
        // A traced pass alternates and needs MIN_REPS of each kind.
        let traced = RunCfg { trace: true, ..cfg };
        let mut reps = Vec::new();
        for i in 0..2 * MIN_REPS {
            let go = next_rep(&traced, &reps, start);
            assert_eq!(go, Some(i % 2 == 1));
            reps.push(rep(i % 2 == 1));
        }
        assert_eq!(next_rep(&traced, &reps, start), None);
    }

    /// A tiny end-to-end run of one rank pair through the real library with
    /// a corrupted stamp: the failure must be counted, not lost.
    #[test]
    fn corrupted_stamp_counts_as_failed_op() {
        let load = Load::new(3);
        let uni = Universe::builder().nodes(2).build();
        let failed: u64 = uni
            .run(|env| {
                let work = env.world();
                let mut th = env.single_thread();
                let ctl = work.dup(&mut th).unwrap();
                let me = work.rank();
                let mut r = Rank {
                    th,
                    work,
                    ctl,
                    load: &load,
                    rec: Recorder::new(Instant::now(), 0),
                    me,
                    rep: 1,
                    attempted: 0,
                    failed: 0,
                    faces_out: Vec::new(),
                    faces_in: Vec::new(),
                };
                let mut buf: SmallBuf = [0; SMALL_MIN + SMALL_SPAN as usize];
                if me == 0 {
                    // Message 0 as generated, message 1 with one bit flipped.
                    r.send_small::<false>(1, 0, &mut buf);
                    let len = load.fill_small(&mut buf, r.origin(0, 1, 0));
                    buf[3] ^= 0x10;
                    r.send::<false>(1, load.tag(1), &buf[..len]);
                } else {
                    r.recv_small::<false>(0, 0);
                    assert_eq!(r.failed, 0, "the intact message must pass");
                    r.recv_small::<false>(0, 1);
                }
                r.failed
            })
            .into_iter()
            .sum();
        assert_eq!(failed, 1);
    }
}
