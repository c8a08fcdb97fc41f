//! Matching-engine conformance under explored schedules.
//!
//! The matching engine is the heart of MPI message semantics: per-
//! `(context, src, tag)` non-overtaking, wildcard earliest-arrival order,
//! match conservation. These tests drive a shared engine (behind the same
//! `ContentionLock` the VCI layer uses) from several scheduled tasks and
//! check the invariants on *every* explored interleaving — exhaustively up
//! to a bounded depth, then across seeded-random schedules. A failing
//! interleaving panics with a replayable `RANKMPI_SCHED=…` string.
//!
//! Runs under both engines: this is where `linear`, the reference, keeps
//! its schedule-explored and Universe-level coverage.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rankmpi_check::oracle::fixed_packet;
use rankmpi_check::{base_seed, explore, BuildChecked, ExploreConfig, Task};
use rankmpi_core::matching::{
    EngineKind, Incoming, MatchEngine, MatchPattern, PostedRecv, ANY_SOURCE, ANY_TAG,
};
use rankmpi_core::request::ReqState;
use rankmpi_core::{Status, Universe};
use rankmpi_vtime::sched::{yield_point, SchedPoint};
use rankmpi_vtime::{Clock, ContentionLock, Nanos};

/// What the tasks observed, recorded inside the engine's critical section so
/// the log order is the engine's operation order.
#[derive(Default)]
struct Obs {
    /// Unmatched unexpected packets per context, in queueing order:
    /// `(seq, virtual arrival stamp)`.
    queued: HashMap<u32, Vec<(u64, Nanos)>>,
    /// Every match: `(context_id, src, tag, seq)` of the matched packet.
    matched: Vec<(u32, u32, i64, u64)>,
}

impl Obs {
    fn record_queued(&mut self, ctx: u32, seq: u64, at: Nanos) {
        self.queued.entry(ctx).or_default().push((seq, at));
    }

    fn record_matched(&mut self, ctx: u32, src: u32, tag: i64, seq: u64, wildcard: bool) {
        let q = self.queued.entry(ctx).or_default();
        if let Some(pos) = q.iter().position(|&(s, _)| s == seq) {
            // A wildcard receive must take the queued packet with the
            // smallest *virtual* arrival time (queueing order breaks ties) —
            // the engine contract's earliest-arrival rule.
            if wildcard {
                let (best_pos, _) = q
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, &(_, at))| (at, *i))
                    .unwrap();
                assert_eq!(
                    pos, best_pos,
                    "wildcard receive overtook: matched seq {seq} but seq {} arrives earlier (ctx {ctx})",
                    q[best_pos].0
                );
            }
            q.remove(pos);
        }
        self.matched.push((ctx, src, tag, seq));
    }

    /// Per-channel non-overtaking: within one `(ctx, src, tag)` channel,
    /// matched sequence numbers must be strictly increasing.
    fn assert_non_overtaking(&self) {
        let mut last: HashMap<(u32, u32, i64), u64> = HashMap::new();
        for &(ctx, src, tag, seq) in &self.matched {
            if let Some(&prev) = last.get(&(ctx, src, tag)) {
                assert!(
                    seq > prev,
                    "non-overtaking violated on channel (ctx {ctx}, src {src}, tag {tag}): \
                     seq {seq} matched after seq {prev}"
                );
            }
            last.insert((ctx, src, tag), seq);
        }
        // Conservation: no packet matched twice.
        let mut seqs: Vec<u64> = self.matched.iter().map(|m| m.3).collect();
        let n = seqs.len();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), n, "a packet matched more than once");
    }
}

type SharedEngine = Arc<ContentionLock<Box<dyn MatchEngine>>>;

const CTX: u32 = 1;
const PER_SENDER: usize = 6;

/// A task injecting `PER_SENDER` packets from one source, in seq order, on
/// one channel `(CTX, src, tag 0)`. Seqs are globally unique: `src * 1000 + i`.
fn sender_task(engine: SharedEngine, obs: Arc<Mutex<Obs>>, src: u32) -> Task {
    Box::new(move || {
        let mut clock = Clock::new();
        for i in 0..PER_SENDER as u64 {
            let seq = src as u64 * 1000 + i;
            let at = Nanos(10 * (seq + 1));
            let pkt = fixed_packet(CTX, src, 0, seq, at);
            let mut g = engine.lock(&mut clock);
            match g.incoming(pkt) {
                Incoming::Matched { packet, .. } => obs.lock().record_matched(
                    packet.header.context_id,
                    packet.header.src,
                    packet.header.tag,
                    packet.header.seq,
                    false,
                ),
                Incoming::Queued { .. } => obs.lock().record_queued(CTX, seq, at),
            }
            g.release(&mut clock);
            yield_point(SchedPoint::Custom("sent"));
        }
    })
}

/// A task posting `posts` receive patterns in order, recording immediate
/// matches, then polling until every packet in the run has matched.
fn receiver_task(
    engine: SharedEngine,
    obs: Arc<Mutex<Obs>>,
    posts: Vec<MatchPattern>,
    total_packets: usize,
) -> Task {
    Box::new(move || {
        let mut clock = Clock::new();
        for pattern in posts {
            let wildcard = pattern.src == ANY_SOURCE && pattern.tag == ANY_TAG;
            let req = ReqState::detached();
            let posted = PostedRecv {
                pattern,
                req,
                posted_at: clock.now(),
            };
            let mut g = engine.lock(&mut clock);
            let (m, _work) = g.post_recv(posted);
            if let Some(pkt) = m {
                obs.lock().record_matched(
                    pkt.header.context_id,
                    pkt.header.src,
                    pkt.header.tag,
                    pkt.header.seq,
                    wildcard,
                );
            }
            g.release(&mut clock);
            yield_point(SchedPoint::Custom("posted"));
        }
        // Wait for the senders to finish matching the queued posts, then
        // check the run's invariants from inside the schedule (so a
        // violation reports a replayable schedule).
        loop {
            yield_point(SchedPoint::Custom("await-matches"));
            let o = obs.lock();
            if o.matched.len() == total_packets {
                o.assert_non_overtaking();
                return;
            }
        }
    })
}

fn exact(src: i64, tag: i64) -> MatchPattern {
    MatchPattern {
        context_id: CTX,
        src,
        tag,
    }
}

fn cfg_for(name_salt: u64) -> ExploreConfig {
    ExploreConfig {
        depth: 4,
        max_exhaustive: 80,
        random_samples: 8,
        ..ExploreConfig::with_seed(base_seed() ^ name_salt)
    }
}

/// Two single-channel senders race a receiver posting exact-match receives:
/// every explored interleaving must preserve per-channel FIFO matching.
#[test]
fn exact_receives_never_overtake_within_a_channel() {
    for kind in EngineKind::all() {
        let cov = explore(
            &format!("exact_non_overtaking_{}", kind.name()),
            &cfg_for(0xE0 ^ kind as u64),
            move || {
                let engine: SharedEngine = Arc::new(ContentionLock::new(kind.new_engine()));
                let obs = Arc::new(Mutex::new(Obs::default()));
                let posts: Vec<MatchPattern> = (0..PER_SENDER)
                    .flat_map(|_| [exact(0, 0), exact(1, 0)])
                    .collect();
                vec![
                    sender_task(Arc::clone(&engine), Arc::clone(&obs), 0),
                    sender_task(Arc::clone(&engine), Arc::clone(&obs), 1),
                    receiver_task(engine, obs, posts, 2 * PER_SENDER),
                ]
            },
        );
        assert!(
            cov.replay || cov.schedules > 8,
            "exploration barely ran: {cov:?}"
        );
    }
}

/// Same race, but the receiver posts full wildcards: each wildcard match
/// must take the earliest-arrived queued packet, and per-channel FIFO must
/// still hold on the matched stream.
#[test]
fn wildcard_receives_match_in_arrival_order() {
    for kind in EngineKind::all() {
        explore(
            &format!("wildcard_arrival_order_{}", kind.name()),
            &cfg_for(0xF0 ^ kind as u64),
            move || {
                let engine: SharedEngine = Arc::new(ContentionLock::new(kind.new_engine()));
                let obs = Arc::new(Mutex::new(Obs::default()));
                let posts: Vec<MatchPattern> = (0..2 * PER_SENDER)
                    .map(|_| exact(ANY_SOURCE, ANY_TAG))
                    .collect();
                vec![
                    sender_task(Arc::clone(&engine), Arc::clone(&obs), 0),
                    sender_task(Arc::clone(&engine), Arc::clone(&obs), 1),
                    receiver_task(engine, obs, posts, 2 * PER_SENDER),
                ]
            },
        );
    }
}

/// Every engine kind stays observationally equivalent when the *same*
/// schedule-explored interleaving of operations is applied to all of them.
/// (The heavier seeded sweep lives in `conformance_differential.rs`; this
/// one explores interleavings of a small adversarial core.)
#[test]
fn engines_agree_under_explored_interleavings() {
    explore("explored_differential", &cfg_for(0xD1), || {
        // One shared op log: tasks append operations; a replayer task feeds
        // the log to every engine and compares. The interleaving decides
        // the op order; equivalence must hold for all of them.
        let ops: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(Vec::new()));
        let mut tasks: Vec<Task> = Vec::new();
        for t in 0..2u32 {
            let ops = Arc::clone(&ops);
            tasks.push(Box::new(move || {
                for i in 0..6u32 {
                    ops.lock().push(t * 100 + i);
                    yield_point(SchedPoint::Custom("op"));
                }
            }));
        }
        let ops2 = Arc::clone(&ops);
        tasks.push(Box::new(move || {
            loop {
                yield_point(SchedPoint::Custom("replay-wait"));
                if ops2.lock().len() == 12 {
                    break;
                }
            }
            let ops = ops2.lock().clone();
            let mut drivers: Vec<rankmpi_check::oracle::DiffDriver> = EngineKind::all()
                .into_iter()
                .map(rankmpi_check::oracle::DiffDriver::new)
                .collect();
            let mut post_id = 0;
            for (i, op) in ops.iter().enumerate() {
                let (t, i_op) = (op / 100, op % 100);
                if (t + i_op) % 2 == 0 {
                    let p = exact(if i_op % 3 == 0 { ANY_SOURCE } else { 0 }, 0);
                    for d in drivers.iter_mut() {
                        d.post(post_id, p, Nanos(i as u64 + 1));
                    }
                    post_id += 1;
                } else {
                    let pkt = fixed_packet(CTX, 0, 0, *op as u64, Nanos(i as u64 + 1));
                    for d in drivers.iter_mut() {
                        d.arrive(pkt.clone());
                    }
                }
            }
            rankmpi_check::oracle::assert_final_equivalence_all(drivers, "explored op order");
        }));
        tasks
    });
}

/// The paper table's `E8` deep-queue drain end to end through a
/// `Universe`: 256 tags sent in order, received in reverse, so every receive
/// digs its message out of a deep unexpected queue. Both engine kinds must
/// hand back the same statuses and payloads — `linear`'s one check through
/// the whole VCI stack rather than the bare engine.
#[test]
fn deep_queue_drain_agrees_across_engines_end_to_end() {
    const TAGS: i64 = 256;
    let drain = |kind: EngineKind| -> Vec<(Status, Vec<u8>)> {
        let u = Universe::builder().nodes(2).matching(kind).build_checked();
        let mut out = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            assert_eq!(
                env.proc().vci(world.vci_block()[0]).engine_kind(),
                kind,
                "the builder's kind reaches the VCI"
            );
            if env.rank() == 0 {
                for t in 0..TAGS {
                    world.send(&mut th, 1, t, &[t as u8; 8]).unwrap();
                }
                Vec::new()
            } else {
                (0..TAGS)
                    .rev()
                    .map(|t| {
                        let (st, data) = world.recv(&mut th, 0, t).unwrap();
                        (st, data.to_vec())
                    })
                    .collect()
            }
        });
        out.swap_remove(1)
    };
    let reference = drain(EngineKind::Linear);
    assert_eq!(reference.len(), TAGS as usize);
    for (i, (st, data)) in reference.iter().enumerate() {
        let tag = TAGS - 1 - i as i64;
        assert_eq!((st.source, st.tag, st.len), (0, tag, 8));
        assert_eq!(data, &[tag as u8; 8]);
    }
    assert_eq!(
        reference,
        drain(EngineKind::SeqMerged),
        "linear and seq_merged disagree"
    );
}
