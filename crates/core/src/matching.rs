//! The matching engines: posted-receive and unexpected-message queues with
//! MPI's ⟨communicator, rank, tag⟩ matching, wildcards, and non-overtaking
//! order.
//!
//! Message matching is the costly serial operation at the heart of the paper's
//! performance story: when *n* threads share one communicator (one engine),
//! queue depths — and therefore matching costs — grow with *n*, which is the
//! "MPI+threads (Original)" regime of Fig. 1. Each VCI owns one engine, so
//! logically parallel communication gets a *distinct matching engine per
//! channel* and queue depths stay per-thread.
//!
//! Two engines implement the [`MatchEngine`] trait:
//!
//! - [`LinearEngine`] — flat queues scanned front to back, the classic MPICH
//!   structure whose cost grows linearly with queue depth (the paper's
//!   "Original" regime baseline, and the reference every differential test
//!   compares against);
//! - [`SeqMergedEngine`] — the production engine, a two-level
//!   sequence-merged structure: every
//!   posted receive carries a global posting sequence number, wildcard
//!   receives are *flattened* into per-key sublists by shape (`(ANY, tag)`,
//!   `(src, ANY)`, `(ANY, ANY)`), and a match resolves by comparing only the
//!   head sequence numbers of the ≤ 4 candidate lists — O(1) for exact *and*
//!   wildcard patterns at any depth.
//!
//! Both are pure data structures; time accounting (engine occupancy, scan
//! costs) is done by the caller in [`crate::vci`] from the [`ScanWork`] each
//! operation reports, so the same code serves blocking, nonblocking, and
//! probe paths.
//!
//! The production engine does a dozen map lookups per message, on keys the
//! program itself made (ranks, tags, sequence numbers — nothing an outsider
//! can craft), so its maps hash with a multiply–rotate mix instead of
//! SipHash. The mix ends in a finalizer because this repo's tags carry
//! thread ids in their *high* bits and the map reads the hash's low bits
//! for the bucket and its top seven for the control byte: see `MixHasher`.
//! A posted class queue emptied by a match goes onto a short spare list and
//! serves the next key, so rotating tags allocate nothing; an unexpected
//! message's slab slot is freed by the match that takes it and serves the
//! next arrival.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use rankmpi_fabric::Packet;
use rankmpi_vtime::Nanos;

use crate::request::ReqState;

/// Wildcard source: match a message from any rank.
pub const ANY_SOURCE: i64 = -1;
/// Wildcard tag: match a message with any tag.
pub const ANY_TAG: i64 = -1;

/// Completion information of a received message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    /// Communicator-local rank (or endpoint rank) of the sender.
    pub source: usize,
    /// Tag of the matched message.
    pub tag: i64,
    /// Payload length in bytes.
    pub len: usize,
}

/// A receive-side match pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchPattern {
    /// Communicator context id (never wildcarded — MPI scopes matching to a
    /// communicator).
    pub context_id: u32,
    /// Source rank or [`ANY_SOURCE`].
    pub src: i64,
    /// Tag or [`ANY_TAG`].
    pub tag: i64,
}

impl MatchPattern {
    /// Does this pattern match a message envelope?
    #[inline]
    pub fn matches(&self, context_id: u32, src: u32, tag: i64) -> bool {
        self.context_id == context_id
            && (self.src == ANY_SOURCE || self.src == src as i64)
            && (self.tag == ANY_TAG || self.tag == tag)
    }
}

/// A receive posted to an engine, waiting for its message.
#[derive(Debug, Clone)]
pub struct PostedRecv {
    /// What to match.
    pub pattern: MatchPattern,
    /// The request to complete on match.
    pub req: Arc<ReqState>,
    /// Virtual time the receive was posted (matching cannot complete earlier).
    pub posted_at: Nanos,
}

/// The work one matching operation performed, reported by the engine so the
/// caller can price it ([`crate::costs::CoreCosts::match_cost_of`]).
///
/// `scanned` counts queue entries actually examined — for [`LinearEngine`]
/// that is the flat-queue walk, for [`SeqMergedEngine`] the candidate-list
/// heads compared — so linear depth-dependent pricing stays meaningful across
/// engines. `wildcard_scanned` counts the cancelled posted receives
/// (tombstones) a sequence-merged `incoming` skipped; the unexpected side
/// keeps none, so its operations report 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanWork {
    /// Queue entries examined on the primary path.
    pub scanned: usize,
    /// Cancelled-post tombstones skipped.
    pub wildcard_scanned: usize,
    /// Which engine structure performed the work (selects the fixed base
    /// cost: flat-queue touch or merged head comparison).
    pub engine: EngineKind,
}

impl ScanWork {
    /// Work of a flat-queue operation that examined `scanned` entries.
    pub fn linear(scanned: usize) -> Self {
        ScanWork {
            scanned,
            wildcard_scanned: 0,
            engine: EngineKind::Linear,
        }
    }

    /// Work of a sequence-merged operation: `scanned` candidate heads
    /// compared, `wildcard_scanned` cancelled-post tombstones skipped.
    pub fn merged(scanned: usize, wildcard_scanned: usize) -> Self {
        ScanWork {
            scanned,
            wildcard_scanned,
            engine: EngineKind::SeqMerged,
        }
    }
}

/// Result of presenting an incoming packet to an engine.
#[derive(Debug)]
pub enum Incoming {
    /// The packet matched a posted receive; both are handed back for
    /// completion.
    Matched {
        /// The matched posted receive.
        recv: PostedRecv,
        /// The matching packet.
        packet: Packet,
        /// Matching work performed.
        work: ScanWork,
    },
    /// No posted receive matched; the packet was stored on the unexpected
    /// queue.
    Queued {
        /// Matching work performed.
        work: ScanWork,
    },
}

/// Which matching engine a VCI runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// Flat queues, linear scans (the paper's "Original" regime baseline).
    Linear,
    /// Two-level sequence-merged structure with flattened wildcard sublists:
    /// O(1) exact *and* wildcard matching at any queue depth. The default
    /// and only production engine.
    #[default]
    SeqMerged,
}

impl EngineKind {
    /// Both engine kinds: the reference, then the production engine. The
    /// engine-contract tests and benches iterate this.
    pub fn all() -> [EngineKind; 2] {
        [EngineKind::Linear, EngineKind::SeqMerged]
    }

    /// The spelling of this kind in bench tables and test labels.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Linear => "linear",
            EngineKind::SeqMerged => "seq_merged",
        }
    }

    /// Construct a fresh engine of this kind.
    pub fn new_engine(self) -> Box<dyn MatchEngine> {
        match self {
            EngineKind::Linear => Box::new(LinearEngine::new()),
            EngineKind::SeqMerged => Box::new(SeqMergedEngine::new()),
        }
    }

    /// Construct a fresh engine whose internal sequence counters start at
    /// `base` — a test hook for exercising sequence-number wraparound
    /// ([`LinearEngine`] carries no counters, so `base` is ignored there).
    /// [`SeqMergedEngine`] compares sequence numbers with serial-number
    /// arithmetic ([`seq_lt`]), so ordering survives the `u64` wrap as long as fewer
    /// than 2^63 operations are simultaneously pending.
    pub fn new_engine_with_seq_base(self, base: u64) -> Box<dyn MatchEngine> {
        match self {
            EngineKind::Linear => Box::new(LinearEngine::new()),
            EngineKind::SeqMerged => Box::new(SeqMergedEngine::with_seq_base(base)),
        }
    }
}

/// Serial-number comparison: is sequence `a` earlier than `b`, under
/// wraparound? Total order on any set of live sequence numbers spanning less
/// than half the `u64` space — trivially true for queue contents.
#[inline]
pub fn seq_lt(a: u64, b: u64) -> bool {
    a != b && b.wrapping_sub(a) < (1 << 63)
}

/// Ordering key of an unexpected entry: virtual arrival time, ties broken by
/// arrival sequence number (serial-number order).
#[inline]
fn arrival_lt(a: (Nanos, u64), b: (Nanos, u64)) -> bool {
    a.0 < b.0 || (a.0 == b.0 && seq_lt(a.1, b.1))
}

/// A matching engine: the posted-receive and unexpected-message state of a
/// single VCI, behind a structure-agnostic interface.
///
/// All implementations preserve MPI's matching semantics exactly:
///
/// - *first-posted wins*: an arriving packet matches the earliest-posted
///   receive whose pattern accepts it;
/// - *earliest-arrival wins*: a posted receive matches the unexpected message
///   with the smallest virtual arrival time (ties broken by arrival order);
/// - wildcards never cross context ids.
pub trait MatchEngine: Send + std::fmt::Debug {
    /// Which kind of engine this is.
    fn kind(&self) -> EngineKind;

    /// Post a receive. If an unexpected message already matches, the earliest
    /// such message is removed and returned. Returns the matched packet (if
    /// any) and the matching work performed.
    fn post_recv(&mut self, recv: PostedRecv) -> (Option<Packet>, ScanWork);

    /// Present an arriving packet. The *first posted* matching receive wins.
    fn incoming(&mut self, packet: Packet) -> Incoming;

    /// Non-destructive probe: the earliest unexpected message matching
    /// `pattern`, if any, plus the work performed.
    fn probe(&self, pattern: &MatchPattern) -> (Option<Status>, ScanWork);

    /// Cancel the posted receive completing `req`, if still queued. Returns
    /// whether something was removed.
    fn cancel(&mut self, req: &Arc<ReqState>) -> bool;

    /// Depth of the posted-receive queue.
    fn posted_len(&self) -> usize;

    /// Depth of the unexpected-message queue.
    fn unexpected_len(&self) -> usize;

    /// Remove and return the complete engine state: posted receives in
    /// posting order, unexpected packets in arrival order. Used by the
    /// fault-tolerance sweep; re-inserting both lists into an empty engine
    /// (posts first, then arrivals) reconstructs equivalent state, because in
    /// any valid engine no posted receive matches any queued unexpected
    /// packet (each insertion path searches the other queue first).
    fn drain(&mut self) -> (Vec<PostedRecv>, Vec<Packet>);
}

/// The flat-queue engine: posted and unexpected messages in vectors scanned
/// front to back. Matching cost grows linearly with queue depth — the
/// behavior the paper's "Original" regime measurements show.
#[derive(Debug, Default)]
pub struct LinearEngine {
    posted: Vec<PostedRecv>,
    /// Unexpected messages ordered by virtual arrival time (stable for ties),
    /// so matching follows the fabric's arrival order regardless of which real
    /// thread drained which packet first.
    unexpected: Vec<Packet>,
}

impl LinearEngine {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }
}

impl MatchEngine for LinearEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::Linear
    }

    fn post_recv(&mut self, recv: PostedRecv) -> (Option<Packet>, ScanWork) {
        let mut scanned = 0;
        for i in 0..self.unexpected.len() {
            scanned += 1;
            let h = &self.unexpected[i].header;
            if recv.pattern.matches(h.context_id, h.src, h.tag) {
                let pkt = self.unexpected.remove(i);
                return (Some(pkt), ScanWork::linear(scanned));
            }
        }
        self.posted.push(recv);
        (None, ScanWork::linear(scanned))
    }

    fn incoming(&mut self, packet: Packet) -> Incoming {
        let h = packet.header;
        let mut scanned = 0;
        for i in 0..self.posted.len() {
            scanned += 1;
            if self.posted[i].pattern.matches(h.context_id, h.src, h.tag) {
                let recv = self.posted.remove(i);
                return Incoming::Matched {
                    recv,
                    packet,
                    work: ScanWork::linear(scanned),
                };
            }
        }
        // Keep the unexpected queue sorted by virtual arrival. Packets mostly
        // arrive nearly-sorted, so search from the back.
        let pos = self
            .unexpected
            .iter()
            .rposition(|p| p.arrive_at <= packet.arrive_at)
            .map(|i| i + 1)
            .unwrap_or(0);
        self.unexpected.insert(pos, packet);
        Incoming::Queued {
            work: ScanWork::linear(scanned),
        }
    }

    fn probe(&self, pattern: &MatchPattern) -> (Option<Status>, ScanWork) {
        let mut scanned = 0;
        for p in &self.unexpected {
            scanned += 1;
            let h = &p.header;
            if pattern.matches(h.context_id, h.src, h.tag) {
                return (
                    Some(Status {
                        source: h.src as usize,
                        tag: h.tag,
                        len: p.payload.len(),
                    }),
                    ScanWork::linear(scanned),
                );
            }
        }
        (None, ScanWork::linear(scanned))
    }

    fn cancel(&mut self, req: &Arc<ReqState>) -> bool {
        if let Some(i) = self.posted.iter().position(|p| Arc::ptr_eq(&p.req, req)) {
            self.posted.remove(i);
            true
        } else {
            false
        }
    }

    fn posted_len(&self) -> usize {
        self.posted.len()
    }

    fn unexpected_len(&self) -> usize {
        self.unexpected.len()
    }

    fn drain(&mut self) -> (Vec<PostedRecv>, Vec<Packet>) {
        (
            std::mem::take(&mut self.posted),
            std::mem::take(&mut self.unexpected),
        )
    }
}

/// The hasher of every [`FastMap`]: fold each word in with a rotate, xor and
/// odd multiply, then finish with one widening multiply whose high half is
/// folded onto the low. The multiply alone pushes entropy *up* only — a key
/// like `i << 20` would leave the low 20 bits, the bucket index, constant —
/// and the cheaper `h ^ h >> 32` brings down just the middle, not the thread
/// ids a tag layout keeps at the very top.
#[derive(Default, Clone, Copy)]
struct MixHasher(u64);

const MIX: u64 = 0x9E37_79B9_7F4A_7C15;
const FINAL_MIX: u64 = 0xD6E8_FEB8_6659_FD93;

impl Hasher for MixHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(v as u64);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(26) ^ v).wrapping_mul(MIX);
    }

    fn finish(&self) -> u64 {
        let wide = self.0 as u128 * FINAL_MIX as u128;
        wide as u64 ^ (wide >> 64) as u64
    }
}

/// The engine's map type: keys are made by this program, never by a peer.
type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MixHasher>>;

/// Longest spare list: how many emptied class queues an engine keeps for
/// reuse.
const SPARES: usize = 64;

/// No node: the end of an arrival list, or an empty list's head and tail.
const NIL: u32 = u32::MAX;

/// Which of its context's four arrival lists a node link threads: the
/// index into [`Node::links`].
const BY_EXACT: usize = 0;
const BY_TAG: usize = 1;
const BY_SRC: usize = 2;
const ALL: usize = 3;

/// One arrival-sorted, doubly linked list of slab nodes. Its `(tail, head)`
/// are the `(prev, next)` of a header that closes the list into a ring, so
/// [`links_of`] treats the ends like any node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct List {
    ends: (u32, u32),
}

impl Default for List {
    fn default() -> Self {
        List { ends: (NIL, NIL) }
    }
}

/// A slot of the unexpected slab: a queued packet, threaded on its context's
/// four arrival lists, or a free slot.
#[derive(Debug)]
struct Node {
    /// `None` while the slot is free.
    packet: Option<Packet>,
    /// The lists' sort key: `(virtual arrival time, arrival uid)`.
    at: (Nanos, u64),
    /// `(prev, next)` on each list, indexed by [`BY_EXACT`] .. [`ALL`].
    links: [(u32, u32); 4],
}

/// The `(prev, next)` of node `i` on `list`, or the list's ends for `NIL`.
fn links_of<'a>(
    nodes: &'a mut [Node],
    list: &'a mut List,
    which: usize,
    i: u32,
) -> &'a mut (u32, u32) {
    match i {
        NIL => &mut list.ends,
        i => &mut nodes[i as usize].links[which],
    }
}

/// Link node `n` into `list` at slot `which` of its links, after the last
/// node that arrived before it. Arrivals are mostly near-sorted, so search
/// from the tail.
fn link(nodes: &mut [Node], list: &mut List, which: usize, n: u32) {
    let at = nodes[n as usize].at;
    let mut prev = list.ends.0;
    while prev != NIL && arrival_lt(at, nodes[prev as usize].at) {
        prev = nodes[prev as usize].links[which].0;
    }
    let next = links_of(nodes, list, which, prev).1;
    nodes[n as usize].links[which] = (prev, next);
    links_of(nodes, list, which, prev).1 = n;
    links_of(nodes, list, which, next).0 = n;
}

/// Unlink node `n` from `list`; returns whether that emptied the list.
fn unlink(nodes: &mut [Node], list: &mut List, which: usize, n: u32) -> bool {
    let (prev, next) = nodes[n as usize].links[which];
    links_of(nodes, list, which, prev).1 = next;
    links_of(nodes, list, which, next).0 = prev;
    list.ends.1 == NIL
}

/// Unlink node `n` from the keyed list at `key`, and drop the key if that
/// empties the list.
fn unlink_keyed<K: Eq + std::hash::Hash>(
    map: &mut FastMap<K, List>,
    key: K,
    nodes: &mut [Node],
    which: usize,
    n: u32,
) {
    if let Entry::Occupied(mut list) = map.entry(key) {
        if unlink(nodes, list.get_mut(), which, n) {
            list.remove();
        }
    }
}

/// Which posted class a sequence-merged match candidate came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PostClass {
    Exact,
    AnySrc,
    AnyTag,
    Full,
}

/// Per-context state of the sequence-merged engine.
///
/// Posted receives are flattened into four *classes* by pattern shape — exact
/// `(src, tag)`, `(ANY, tag)` keyed by tag, `(src, ANY)` keyed by src, and
/// `(ANY, ANY)` — each class queue holding posting sequence numbers in FIFO
/// order. Every posted receive lives in exactly one class, and the receives
/// that can match a given packet are exactly the members of the ≤ 4 queues
/// addressed by the packet's envelope, so the earliest-posted match is the
/// minimum over ≤ 4 head sequence numbers.
///
/// Each unexpected packet is a slab node threaded on four arrival lists — by
/// exact envelope, by tag, by src, and all — each sorted by `(arrive_at,
/// uid)`. Any receive pattern's full candidate set is exactly one list, so
/// the earliest-arrival match is that list's head. A keyed list leaves its
/// map when it empties.
#[derive(Debug, Default)]
struct MergedCtx {
    /// Exact posted receives: posting seqs binned by `(src, tag)`.
    posted_exact: FastMap<(u32, i64), VecDeque<u64>>,
    /// `(ANY, tag)` posted receives: posting seqs keyed by tag.
    posted_any_src: FastMap<i64, VecDeque<u64>>,
    /// `(src, ANY)` posted receives: posting seqs keyed by src.
    posted_any_tag: FastMap<u32, VecDeque<u64>>,
    /// `(ANY, ANY)` posted receives, in posting order.
    posted_full: VecDeque<u64>,
    /// Unexpected arrivals listed by the exact `(src, tag)` envelope.
    un_by_exact: FastMap<(u32, i64), List>,
    /// Unexpected arrivals listed by tag (serves `(ANY, tag)` patterns).
    un_by_tag: FastMap<i64, List>,
    /// Unexpected arrivals listed by src (serves `(src, ANY)` patterns).
    un_by_src: FastMap<u32, List>,
    /// All unexpected arrivals (serves `(ANY, ANY)` patterns).
    un_all: List,
}

impl MergedCtx {
    /// The head of the one arrival list that holds every unexpected packet
    /// `pattern` accepts: the earliest-arrival match.
    fn unexpected_head(&self, pattern: &MatchPattern) -> Option<u32> {
        let list = match (pattern.src == ANY_SOURCE, pattern.tag == ANY_TAG) {
            (false, false) => self.un_by_exact.get(&(pattern.src as u32, pattern.tag)),
            (true, false) => self.un_by_tag.get(&pattern.tag),
            (false, true) => self.un_by_src.get(&(pattern.src as u32)),
            (true, true) => Some(&self.un_all),
        };
        list.map(|l| l.ends.1).filter(|&n| n != NIL)
    }
}

/// The unexpected packets of every context: one slab whose nodes each
/// context threads on its arrival lists, and the free slots. Links are
/// `u32` with [`NIL`] reserved, so fewer than 2^32 − 1 packets queue at once.
#[derive(Debug, Default)]
struct Slab {
    nodes: Vec<Node>,
    free: Vec<u32>,
}

impl Slab {
    /// Queue `packet` as arrival `uid`: take a slot, and link it into its
    /// context's four lists.
    fn insert(&mut self, bins: &mut MergedCtx, packet: Packet, uid: u64) {
        let h = packet.header;
        let node = Node {
            at: (packet.arrive_at, uid),
            packet: Some(packet),
            links: [(NIL, NIL); 4],
        };
        let n = self.free.pop().unwrap_or(self.nodes.len() as u32);
        if n as usize == self.nodes.len() {
            self.nodes.push(node);
        } else {
            self.nodes[n as usize] = node;
        }
        let (nodes, key) = (&mut self.nodes, (h.src, h.tag));
        link(nodes, bins.un_by_exact.entry(key).or_default(), BY_EXACT, n);
        link(nodes, bins.un_by_tag.entry(h.tag).or_default(), BY_TAG, n);
        link(nodes, bins.un_by_src.entry(h.src).or_default(), BY_SRC, n);
        link(nodes, &mut bins.un_all, ALL, n);
    }

    /// Unlink node `n` from its four lists, free its slot, and return its
    /// packet.
    fn take(&mut self, bins: &mut MergedCtx, n: u32) -> Packet {
        let Some(packet) = self.nodes[n as usize].packet.take() else {
            unreachable!("a listed node is live");
        };
        let h = packet.header;
        let nodes = &mut self.nodes;
        unlink_keyed(&mut bins.un_by_exact, (h.src, h.tag), nodes, BY_EXACT, n);
        unlink_keyed(&mut bins.un_by_tag, h.tag, nodes, BY_TAG, n);
        unlink_keyed(&mut bins.un_by_src, h.src, nodes, BY_SRC, n);
        unlink(nodes, &mut bins.un_all, ALL, n);
        self.free.push(n);
        packet
    }
}

/// The sequence-merged engine: every posted receive carries a global posting
/// sequence number and wildcard receives are flattened into per-key sublists
/// by shape, so a match — exact *or* wildcard — resolves by comparing only
/// the head sequence numbers of the ≤ 4 candidate lists.
///
/// The unexpected side mirrors the trick: each arrival is one slab node
/// linked into four arrival-sorted lists (by envelope, by tag, by src, all),
/// so any receive pattern consults exactly one list head. A match unlinks
/// the node from all four lists in O(1) and frees its slot, so the
/// unexpected side holds only live messages and skips nothing: its
/// operations report `wildcard_scanned = 0`. Cancelled posted receives leave
/// a *tombstone* in their class queue, skipped and popped when it surfaces
/// at the head; those skips are what [`ScanWork::wildcard_scanned`] counts.
///
/// Sequence numbers compare by serial-number arithmetic ([`seq_lt`]), so
/// ordering survives `u64` wraparound.
#[derive(Debug, Default)]
pub struct SeqMergedEngine {
    ctxs: FastMap<u32, MergedCtx>,
    /// Live posted receives, keyed by posting seq. A seq present in a class
    /// queue but absent here is a tombstone.
    posted_store: FastMap<u64, PostedRecv>,
    /// Queued unexpected packets, threaded on their contexts' lists.
    unexpected: Slab,
    post_seq: u64,
    arrival_seq: u64,
    /// Emptied class queues (at most [`SPARES`]), kept with their buffers
    /// for the next key that needs one.
    spare_queues: Vec<VecDeque<u64>>,
}

/// The queue at `key`, taken off `spares` if the key is new.
fn queue_at<'a, K: Eq + std::hash::Hash>(
    map: &'a mut FastMap<K, VecDeque<u64>>,
    key: K,
    spares: &mut Vec<VecDeque<u64>>,
) -> &'a mut VecDeque<u64> {
    map.entry(key)
        .or_insert_with(|| spares.pop().unwrap_or_default())
}

/// Pop the head of the class queue at `key` — the caller has just seen it
/// live — and retire the queue onto `spares`, while there is room, if that
/// empties it.
fn pop_class<K: Eq + std::hash::Hash>(
    map: &mut FastMap<K, VecDeque<u64>>,
    key: K,
    spares: &mut Vec<VecDeque<u64>>,
) {
    let Entry::Occupied(mut class) = map.entry(key) else {
        unreachable!("a class whose head was just compared");
    };
    class.get_mut().pop_front();
    if class.get().is_empty() {
        let q = class.remove();
        if spares.len() < SPARES {
            spares.push(q);
        }
    }
}

/// Pop dead heads off a posted class queue and return the live head's seq
/// without consuming it. Dead pops are counted into `skipped`.
fn posted_live_front(
    q: &mut VecDeque<u64>,
    store: &FastMap<u64, PostedRecv>,
    skipped: &mut usize,
) -> Option<u64> {
    while let Some(&seq) = q.front() {
        if store.contains_key(&seq) {
            return Some(seq);
        }
        q.pop_front();
        *skipped += 1;
    }
    None
}

impl SeqMergedEngine {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty engine whose sequence counters start at `base` (wraparound
    /// test hook; see [`EngineKind::new_engine_with_seq_base`]).
    pub fn with_seq_base(base: u64) -> Self {
        SeqMergedEngine {
            post_seq: base,
            arrival_seq: base,
            ..Self::default()
        }
    }
}

impl MatchEngine for SeqMergedEngine {
    fn kind(&self) -> EngineKind {
        EngineKind::SeqMerged
    }

    fn post_recv(&mut self, recv: PostedRecv) -> (Option<Packet>, ScanWork) {
        let ctx = recv.pattern.context_id;
        let bins = self.ctxs.entry(ctx).or_default();
        if let Some(n) = bins.unexpected_head(&recv.pattern) {
            let pkt = self.unexpected.take(bins, n);
            return (Some(pkt), ScanWork::merged(1, 0));
        }
        // No unexpected match: file the receive under its class.
        let seq = self.post_seq;
        self.post_seq = self.post_seq.wrapping_add(1);
        let spares = &mut self.spare_queues;
        let (src, tag) = (recv.pattern.src, recv.pattern.tag);
        match (src == ANY_SOURCE, tag == ANY_TAG) {
            (false, false) => queue_at(&mut bins.posted_exact, (src as u32, tag), spares),
            (true, false) => queue_at(&mut bins.posted_any_src, tag, spares),
            (false, true) => queue_at(&mut bins.posted_any_tag, src as u32, spares),
            (true, true) => &mut bins.posted_full,
        }
        .push_back(seq);
        self.posted_store.insert(seq, recv);
        (None, ScanWork::merged(0, 0))
    }

    fn incoming(&mut self, packet: Packet) -> Incoming {
        let h = packet.header;
        let key = (h.src, h.tag);
        let bins = self.ctxs.entry(h.context_id).or_default();
        let mut skipped = 0;

        // First-posted-wins over the ≤ 4 classes that can match this
        // envelope: each class queue is FIFO in posting order, so the winner
        // is the minimum (serial-order) head seq among live heads.
        let store = &self.posted_store;
        let candidates = [
            (
                bins.posted_exact
                    .get_mut(&key)
                    .and_then(|q| posted_live_front(q, store, &mut skipped)),
                PostClass::Exact,
            ),
            (
                bins.posted_any_src
                    .get_mut(&h.tag)
                    .and_then(|q| posted_live_front(q, store, &mut skipped)),
                PostClass::AnySrc,
            ),
            (
                bins.posted_any_tag
                    .get_mut(&h.src)
                    .and_then(|q| posted_live_front(q, store, &mut skipped)),
                PostClass::AnyTag,
            ),
            (
                posted_live_front(&mut bins.posted_full, store, &mut skipped),
                PostClass::Full,
            ),
        ];
        let mut scanned = 0;
        let mut best: Option<(u64, PostClass)> = None;
        for (head, class) in candidates {
            if let Some(seq) = head {
                scanned += 1;
                if best.is_none_or(|(b, _)| seq_lt(seq, b)) {
                    best = Some((seq, class));
                }
            }
        }
        let work = ScanWork::merged(scanned, skipped);

        if let Some((seq, class)) = best {
            let spares = &mut self.spare_queues;
            match class {
                PostClass::Exact => pop_class(&mut bins.posted_exact, key, spares),
                PostClass::AnySrc => pop_class(&mut bins.posted_any_src, h.tag, spares),
                PostClass::AnyTag => pop_class(&mut bins.posted_any_tag, h.src, spares),
                PostClass::Full => {
                    bins.posted_full.pop_front();
                }
            }
            let recv = self.posted_store.remove(&seq).expect("live entry");
            return Incoming::Matched { recv, packet, work };
        }

        // No match: queue the packet on its context's four arrival lists.
        let uid = self.arrival_seq;
        self.arrival_seq = self.arrival_seq.wrapping_add(1);
        self.unexpected.insert(bins, packet, uid);
        Incoming::Queued { work }
    }

    fn probe(&self, pattern: &MatchPattern) -> (Option<Status>, ScanWork) {
        let st = self
            .ctxs
            .get(&pattern.context_id)
            .and_then(|bins| bins.unexpected_head(pattern))
            .and_then(|n| self.unexpected.nodes[n as usize].packet.as_ref())
            .map(|p| Status {
                source: p.header.src as usize,
                tag: p.header.tag,
                len: p.payload.len(),
            });
        (st, ScanWork::merged(st.is_some() as usize, 0))
    }

    fn cancel(&mut self, req: &Arc<ReqState>) -> bool {
        let seq = self
            .posted_store
            .iter()
            .find(|(_, r)| Arc::ptr_eq(&r.req, req))
            .map(|(&seq, _)| seq);
        match seq {
            Some(seq) => {
                // The class queue keeps a tombstone, lazily popped when it
                // surfaces at the head during a later `incoming`.
                self.posted_store.remove(&seq);
                true
            }
            None => false,
        }
    }

    fn posted_len(&self) -> usize {
        self.posted_store.len()
    }

    fn unexpected_len(&self) -> usize {
        self.unexpected.nodes.len() - self.unexpected.free.len()
    }

    fn drain(&mut self) -> (Vec<PostedRecv>, Vec<Packet>) {
        self.ctxs.clear();
        // Every live seq and uid lies less than half the space behind its
        // counter, so its distance past the counter sorts in serial order.
        let (post_seq, arrival_seq) = (self.post_seq, self.arrival_seq);
        let mut posted: Vec<(u64, PostedRecv)> =
            std::mem::take(&mut self.posted_store).into_iter().collect();
        posted.sort_unstable_by_key(|e| e.0.wrapping_sub(post_seq));
        let mut unexpected: Vec<(Nanos, u64, Packet)> = std::mem::take(&mut self.unexpected)
            .nodes
            .into_iter()
            .filter_map(|n| Some((n.at.0, n.at.1.wrapping_sub(arrival_seq), n.packet?)))
            .collect();
        unexpected.sort_unstable_by_key(|e| (e.0, e.1));
        (
            posted.into_iter().map(|e| e.1).collect(),
            unexpected.into_iter().map(|e| e.2).collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use rankmpi_fabric::Header;

    fn pkt(ctx: u32, src: u32, tag: i64, arrive: u64) -> Packet {
        Packet {
            header: Header {
                kind: 1,
                context_id: ctx,
                src,
                dst: 0,
                tag,
                seq: 0,
                aux: 0,
                aux2: 0,
            },
            payload: Bytes::from_static(b"x"),
            arrive_at: Nanos(arrive),
        }
    }

    fn recv(ctx: u32, src: i64, tag: i64) -> PostedRecv {
        PostedRecv {
            pattern: MatchPattern {
                context_id: ctx,
                src,
                tag,
            },
            req: ReqState::detached(),
            posted_at: Nanos::ZERO,
        }
    }

    /// Run a semantics test against every engine.
    fn for_all(f: impl Fn(&mut dyn MatchEngine)) {
        for kind in EngineKind::all() {
            let mut e = kind.new_engine();
            f(e.as_mut());
        }
    }

    #[test]
    fn exact_triplet_matching() {
        for_all(|e| {
            assert!(matches!(
                e.incoming(pkt(1, 0, 5, 10)),
                Incoming::Queued { .. }
            ));
            // Wrong context, wrong src, wrong tag: all miss.
            let (m, _) = e.post_recv(recv(2, 0, 5));
            assert!(m.is_none());
            let (m, _) = e.post_recv(recv(1, 1, 5));
            assert!(m.is_none());
            let (m, _) = e.post_recv(recv(1, 0, 6));
            assert!(m.is_none());
            // Exact match hits.
            let (m, work) = e.post_recv(recv(1, 0, 5));
            assert!(m.is_some());
            assert_eq!(work.scanned, 1);
            assert_eq!(e.posted_len(), 3);
            assert_eq!(e.unexpected_len(), 0);
        });
    }

    #[test]
    fn wildcards_match_anything_in_context() {
        for_all(|e| {
            e.incoming(pkt(3, 7, 42, 10));
            let (m, _) = e.post_recv(recv(3, ANY_SOURCE, ANY_TAG));
            let p = m.unwrap();
            assert_eq!(p.header.src, 7);
            assert_eq!(p.header.tag, 42);
        });
    }

    #[test]
    fn wildcard_does_not_cross_contexts() {
        for_all(|e| {
            e.incoming(pkt(3, 7, 42, 10));
            let (m, _) = e.post_recv(recv(4, ANY_SOURCE, ANY_TAG));
            assert!(m.is_none());
        });
    }

    #[test]
    fn non_overtaking_earliest_arrival_wins() {
        for_all(|e| {
            // Same envelope, different arrival times, inserted out of real order.
            e.incoming(pkt(1, 0, 5, 300));
            e.incoming(pkt(1, 0, 5, 100));
            e.incoming(pkt(1, 0, 5, 200));
            let (m, _) = e.post_recv(recv(1, 0, 5));
            assert_eq!(m.unwrap().arrive_at, Nanos(100));
            let (m, _) = e.post_recv(recv(1, 0, 5));
            assert_eq!(m.unwrap().arrive_at, Nanos(200));
            let (m, _) = e.post_recv(recv(1, 0, 5));
            assert_eq!(m.unwrap().arrive_at, Nanos(300));
        });
    }

    #[test]
    fn earliest_arrival_wins_across_bins_for_wildcards() {
        for_all(|e| {
            // Different envelopes (thus different exact-index lists in the
            // sequence-merged engine), arrivals out of insertion order.
            e.incoming(pkt(1, 2, 8, 300));
            e.incoming(pkt(1, 0, 5, 100));
            e.incoming(pkt(1, 1, 6, 200));
            let (m, _) = e.post_recv(recv(1, ANY_SOURCE, ANY_TAG));
            assert_eq!(m.unwrap().arrive_at, Nanos(100));
            let (m, _) = e.post_recv(recv(1, ANY_SOURCE, ANY_TAG));
            assert_eq!(m.unwrap().arrive_at, Nanos(200));
            let (m, _) = e.post_recv(recv(1, ANY_SOURCE, ANY_TAG));
            assert_eq!(m.unwrap().arrive_at, Nanos(300));
        });
    }

    #[test]
    fn non_overtaking_first_posted_wins() {
        for_all(|e| {
            let r1 = recv(1, 0, 5);
            let r2 = recv(1, 0, 5);
            let req1 = Arc::clone(&r1.req);
            e.post_recv(r1);
            e.post_recv(r2);
            match e.incoming(pkt(1, 0, 5, 10)) {
                Incoming::Matched { recv, .. } => assert!(Arc::ptr_eq(&recv.req, &req1)),
                _ => panic!("expected a match"),
            }
            assert_eq!(e.posted_len(), 1);
        });
    }

    #[test]
    fn wildcard_posted_receives_steal_in_post_order() {
        for_all(|e| {
            let specific = recv(1, 0, 5);
            let wild = recv(1, ANY_SOURCE, ANY_TAG);
            let wild_req = Arc::clone(&wild.req);
            e.post_recv(wild); // posted first
            e.post_recv(specific);
            match e.incoming(pkt(1, 0, 5, 10)) {
                Incoming::Matched { recv, .. } => {
                    assert!(
                        Arc::ptr_eq(&recv.req, &wild_req),
                        "wildcard posted first wins"
                    )
                }
                _ => panic!("expected a match"),
            }
        });
    }

    #[test]
    fn exact_posted_before_wildcard_wins() {
        for_all(|e| {
            let specific = recv(1, 0, 5);
            let spec_req = Arc::clone(&specific.req);
            e.post_recv(specific); // posted first
            e.post_recv(recv(1, ANY_SOURCE, ANY_TAG));
            match e.incoming(pkt(1, 0, 5, 10)) {
                Incoming::Matched { recv, .. } => {
                    assert!(Arc::ptr_eq(&recv.req, &spec_req), "exact posted first wins")
                }
                _ => panic!("expected a match"),
            }
        });
    }

    #[test]
    fn probe_is_non_destructive() {
        for_all(|e| {
            e.incoming(pkt(1, 2, 9, 10));
            let pat = MatchPattern {
                context_id: 1,
                src: ANY_SOURCE,
                tag: 9,
            };
            let (st, _) = e.probe(&pat);
            let st = st.unwrap();
            assert_eq!(st.source, 2);
            assert_eq!(st.len, 1);
            assert_eq!(e.unexpected_len(), 1, "probe leaves the message queued");
        });
    }

    #[test]
    fn linear_scan_counts_grow_with_queue_depth() {
        let mut e = LinearEngine::new();
        for i in 0..10 {
            e.incoming(pkt(1, 0, i, 10 + i as u64));
        }
        // Matching the last-queued tag scans the whole queue.
        let (m, work) = e.post_recv(recv(1, 0, 9));
        assert!(m.is_some());
        assert_eq!(work.scanned, 10);
        assert_eq!(work.engine, EngineKind::Linear);
    }

    #[test]
    fn seq_merged_wildcard_work_is_depth_independent() {
        let mut e = SeqMergedEngine::new();
        for i in 0..64 {
            e.incoming(pkt(1, (i % 8) as u32, i, 10 + i as u64));
        }
        // Exact pattern: one index consulted, one entry taken.
        let (m, work) = e.post_recv(recv(1, 7, 63));
        assert!(m.is_some());
        assert_eq!(work.scanned, 1);
        assert_eq!(work.engine, EngineKind::SeqMerged);
        // Full wildcard: still one list (the all-list), no sweep — the
        // entry just consumed through `un_by_exact` left it too.
        let (m, work) = e.post_recv(recv(1, ANY_SOURCE, ANY_TAG));
        assert!(m.is_some());
        assert_eq!(work.scanned, 1);
        assert_eq!(work.wildcard_scanned, 0, "nothing dead to skip");
        // Shape wildcards consult their own single index.
        let (m, work) = e.post_recv(recv(1, ANY_SOURCE, 5));
        assert!(m.is_some());
        assert_eq!(work.scanned, 1);
        let (m, work) = e.post_recv(recv(1, 3, ANY_TAG));
        assert!(m.is_some());
        assert_eq!(work.scanned, 1);
    }

    #[test]
    fn seq_merged_incoming_compares_only_heads() {
        let mut e = SeqMergedEngine::new();
        // 256 posted receives across all four classes; an arriving packet
        // examines at most one live head per class.
        for i in 0..64 {
            e.post_recv(recv(1, i, 100 + i));
            e.post_recv(recv(1, ANY_SOURCE, i));
            e.post_recv(recv(1, i, ANY_TAG));
            e.post_recv(recv(1, ANY_SOURCE, ANY_TAG));
        }
        match e.incoming(pkt(1, 63, 63, 10)) {
            Incoming::Matched { work, .. } => {
                assert!(work.scanned <= 4, "at most one head per class");
                assert_eq!(work.wildcard_scanned, 0);
            }
            _ => panic!("expected a match"),
        }
    }

    #[test]
    fn seq_merged_skips_posted_tombstones_from_cancel() {
        let mut e = SeqMergedEngine::new();
        let r1 = recv(1, ANY_SOURCE, ANY_TAG);
        let r2 = recv(1, ANY_SOURCE, ANY_TAG);
        let req1 = Arc::clone(&r1.req);
        let req2 = Arc::clone(&r2.req);
        e.post_recv(r1);
        e.post_recv(r2);
        assert!(e.cancel(&req1));
        assert_eq!(e.posted_len(), 1);
        // The cancelled head is a tombstone: the next arrival skips it and
        // matches r2, charging the skip as lazy-deletion work.
        match e.incoming(pkt(1, 0, 5, 10)) {
            Incoming::Matched { recv, work, .. } => {
                assert!(Arc::ptr_eq(&recv.req, &req2));
                assert_eq!(work.wildcard_scanned, 1, "one tombstone popped");
            }
            _ => panic!("expected a match"),
        }
    }

    #[test]
    fn seq_merged_wraparound_preserves_order() {
        // Sequence counters a hair below u64::MAX: posting order must still
        // decide first-posted-wins across the wrap.
        let mut e = SeqMergedEngine::with_seq_base(u64::MAX - 2);
        let reqs: Vec<_> = (0..6)
            .map(|_| {
                let r = recv(1, ANY_SOURCE, ANY_TAG);
                let req = Arc::clone(&r.req);
                e.post_recv(r);
                req
            })
            .collect();
        for req in &reqs {
            match e.incoming(pkt(1, 0, 5, 10)) {
                Incoming::Matched { recv, .. } => assert!(Arc::ptr_eq(&recv.req, req)),
                _ => panic!("expected a match"),
            }
        }
    }

    #[test]
    fn cancel_removes_posted_by_identity() {
        for_all(|e| {
            // Interleave two "probes": cancelling the first must not disturb
            // the second — the race cancel-by-position used to lose.
            let r1 = recv(1, 0, 5);
            let r2 = recv(1, 0, 6);
            let req1 = Arc::clone(&r1.req);
            let req2 = Arc::clone(&r2.req);
            e.post_recv(r1);
            e.post_recv(r2);
            assert!(e.cancel(&req1));
            assert!(!e.cancel(&req1), "second cancel finds nothing");
            assert_eq!(e.posted_len(), 1);
            // The survivor is r2: its message matches, r1's queues.
            assert!(matches!(
                e.incoming(pkt(1, 0, 6, 10)),
                Incoming::Matched { .. }
            ));
            assert!(matches!(
                e.incoming(pkt(1, 0, 5, 20)),
                Incoming::Queued { .. }
            ));
            assert!(!e.cancel(&req2), "r2 already completed");
        });
    }

    #[test]
    fn cancel_removes_wildcard_posted() {
        for_all(|e| {
            let r = recv(1, ANY_SOURCE, ANY_TAG);
            let req = Arc::clone(&r.req);
            e.post_recv(r);
            assert!(e.cancel(&req));
            assert_eq!(e.posted_len(), 0);
            assert!(matches!(
                e.incoming(pkt(1, 0, 5, 10)),
                Incoming::Queued { .. }
            ));
        });
    }

    #[test]
    fn drain_preserves_posting_and_arrival_order() {
        // Counters starting just below the wrap: serial order, not plain
        // order, must decide both lists.
        let engines = EngineKind::all()
            .into_iter()
            .flat_map(|k| [k.new_engine(), k.new_engine_with_seq_base(u64::MAX - 1)]);
        for mut e in engines {
            let r1 = recv(1, 0, 5);
            let r2 = recv(1, ANY_SOURCE, ANY_TAG);
            let r3 = recv(2, 3, 7);
            let (req1, req2, req3) = (
                Arc::clone(&r1.req),
                Arc::clone(&r2.req),
                Arc::clone(&r3.req),
            );
            e.post_recv(r1);
            e.post_recv(r2);
            e.post_recv(r3);
            // Context 3 has no posted receives: all four arrivals queue, in
            // different (src, tag) bins, out of arrival order, two of them
            // at the same time.
            e.incoming(pkt(3, 9, 9, 300));
            e.incoming(pkt(3, 1, 2, 100));
            e.incoming(pkt(3, 8, 8, 200));
            e.incoming(pkt(3, 7, 7, 100));
            let (posted, unexpected) = e.drain();
            assert_eq!(e.posted_len(), 0);
            assert_eq!(e.unexpected_len(), 0);
            assert!(Arc::ptr_eq(&posted[0].req, &req1));
            assert!(Arc::ptr_eq(&posted[1].req, &req2));
            assert!(Arc::ptr_eq(&posted[2].req, &req3));
            let arrivals: Vec<(u64, u32)> = (unexpected.iter())
                .map(|p| (p.arrive_at.0, p.header.src))
                .collect();
            assert_eq!(arrivals, vec![(100, 1), (100, 7), (200, 8), (300, 9)]);
        }
    }

    /// Distinct values of the low 7 bits (the map's bucket index) and of the
    /// top 7 (its control byte) over `keys`.
    fn spread<K: std::hash::Hash>(keys: impl Iterator<Item = K>) -> (usize, usize) {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<MixHasher>::default();
        let (mut low, mut top) = (0u128, 0u128);
        for k in keys {
            let h = build.hash_one(k);
            low |= 1 << (h & 127);
            top |= 1 << (h >> 57);
        }
        (low.count_ones() as usize, top.count_ones() as usize)
    }

    #[test]
    fn mix_hasher_fills_both_ends_of_the_hash_for_the_engines_key_shapes() {
        const N: u64 = 4096;
        let shapes = [
            (
                "tags with low zeros",
                spread((0..N).map(|i| (i << 20) as i64)),
            ),
            (
                "(src, tid << 40 | i), 64 threads",
                spread((0..N).map(|i| (1u32, (((i % 64) << 40) | (i / 64)) as i64))),
            ),
            ("sequence numbers", spread(0..N)),
            ("ranks", spread((0..N).map(|i| i as u32))),
        ];
        for (shape, (low, top)) in shapes {
            assert!(low >= 100, "{shape}: low 7 bits take {low} of 128 values");
            assert!(top >= 100, "{shape}: top 7 bits take {top} of 128 values");
        }
    }

    #[test]
    fn rotating_tags_reuse_emptied_queues() {
        let mut e = SeqMergedEngine::new();
        for round in 0..10_000i64 {
            let tag = round % 512;
            // Posted path: a class queue is filed, matched and retired.
            e.post_recv(recv(1, 0, tag));
            assert!(matches!(
                e.incoming(pkt(1, 0, tag, round as u64)),
                Incoming::Matched { .. }
            ));
            // Unexpected path: a node is linked on four lists, matched
            // through one, and gone from all four.
            e.incoming(pkt(1, 1, tag, round as u64));
            assert!(e.post_recv(recv(1, 1, tag)).0.is_some());
            assert!(e.spare_queues.len() <= 1, "round {round}");
            let bins = &e.ctxs[&1];
            assert!(bins.un_by_exact.is_empty(), "round {round}");
            assert!(bins.un_by_tag.is_empty(), "round {round}");
            assert!(bins.un_by_src.is_empty(), "round {round}");
            assert_eq!(bins.un_all, List::default(), "round {round}");
            assert_eq!(e.unexpected.nodes.len(), 1, "one slot, reused");
        }
        assert!(e.ctxs[&1].posted_exact.is_empty());
        // The spare a later key picks up kept its buffer.
        assert!(e.spare_queues[0].capacity() > 0);
    }

    #[test]
    fn probe_then_exact_recv_skips_nothing() {
        // What `try_recv(ANY, ANY)` does per event: probe by full wildcard,
        // then receive the probed envelope exactly.
        let mut e = SeqMergedEngine::new();
        let any = MatchPattern {
            context_id: 1,
            src: ANY_SOURCE,
            tag: ANY_TAG,
        };
        for round in 0..10_000u64 {
            e.incoming(pkt(1, (round % 4) as u32, (round % 7) as i64, round));
            let (st, work) = e.probe(&any);
            let st = st.unwrap();
            assert_eq!(work.wildcard_scanned, 0, "round {round}");
            let (m, work) = e.post_recv(recv(1, st.source as i64, st.tag));
            assert_eq!(m.unwrap().arrive_at, Nanos(round));
            assert_eq!(work.wildcard_scanned, 0, "round {round}");
        }
        assert_eq!(e.unexpected_len(), 0);
        assert_eq!(e.ctxs[&1].un_all, List::default());
    }

    /// The nodes of `list` from head to tail, checking every back link.
    fn walk(nodes: &[Node], list: &List, which: usize) -> Vec<usize> {
        let mut out = Vec::new();
        let (mut prev, mut n) = (NIL, list.ends.1);
        while n != NIL {
            assert_eq!(nodes[n as usize].links[which].0, prev, "back link");
            out.push(n as usize);
            assert!(out.len() <= nodes.len(), "a cycle");
            (prev, n) = (n, nodes[n as usize].links[which].1);
        }
        assert_eq!(list.ends.0, prev, "tail");
        out
    }

    /// The slab's invariants: every live node is on exactly its four lists
    /// and no free slot is on any, each list is sorted, no map holds an
    /// empty list, live nodes and free slots fill the slab, and the
    /// all-lists hold `unexpected_len()` nodes.
    fn check_slab(e: &SeqMergedEngine) {
        let nodes = &e.unexpected.nodes;
        let mut on = vec![[0; 4]; nodes.len()];
        let mut listed = 0;
        for (&ctx, bins) in &e.ctxs {
            let lists = (bins.un_by_exact.iter())
                .map(|(&(src, tag), l)| (BY_EXACT, Some(src), Some(tag), l))
                .chain(
                    bins.un_by_tag
                        .iter()
                        .map(|(&t, l)| (BY_TAG, None, Some(t), l)),
                )
                .chain(
                    bins.un_by_src
                        .iter()
                        .map(|(&s, l)| (BY_SRC, Some(s), None, l)),
                )
                .chain([(ALL, None, None, &bins.un_all)]);
            for (which, src, tag, list) in lists {
                let walked = walk(nodes, list, which);
                assert!(which == ALL || !walked.is_empty(), "empty keyed list kept");
                for pair in walked.windows(2) {
                    assert!(arrival_lt(nodes[pair[0]].at, nodes[pair[1]].at), "unsorted");
                }
                for &n in &walked {
                    let h = nodes[n]
                        .packet
                        .as_ref()
                        .expect("a listed node is live")
                        .header;
                    assert_eq!(h.context_id, ctx);
                    assert!(src.is_none_or(|s| s == h.src) && tag.is_none_or(|t| t == h.tag));
                    on[n][which] += 1;
                }
                if which == ALL {
                    listed += walked.len();
                }
            }
        }
        for (n, node) in nodes.iter().enumerate() {
            let lists = if node.packet.is_some() {
                [1; 4]
            } else {
                [0; 4]
            };
            assert_eq!(on[n], lists, "node {n}");
        }
        let mut free = e.unexpected.free.clone();
        free.sort_unstable();
        free.dedup();
        assert_eq!(free.len(), e.unexpected.free.len(), "a slot freed twice");
        assert!(free.iter().all(|&f| nodes[f as usize].packet.is_none()));
        let live = nodes.iter().filter(|n| n.packet.is_some()).count();
        assert_eq!(live + free.len(), nodes.len());
        assert_eq!(e.unexpected_len(), listed);
    }

    /// One op of the mixed-op proptest on `e`, as a comparable string. A
    /// packet is known by its `seq`, a posted receive by its `posted_at`;
    /// 3 is the wildcard in a pattern and folds onto 0 in an envelope.
    fn apply(
        e: &mut dyn MatchEngine,
        id: u64,
        (op, ctx, src, tag, at): (u8, u32, u8, i64, u64),
    ) -> String {
        let pattern = MatchPattern {
            context_id: ctx,
            src: if src == 3 { ANY_SOURCE } else { src as i64 },
            tag: if tag == 3 { ANY_TAG } else { tag },
        };
        let posted = PostedRecv {
            posted_at: Nanos(id),
            ..recv(ctx, pattern.src, pattern.tag)
        };
        match op {
            0 => {
                let (p, work) = e.post_recv(posted);
                assert_eq!(work.wildcard_scanned, 0);
                format!("{:?}", p.map(|p| p.header.seq))
            }
            1 => {
                let mut p = pkt(ctx, src as u32 % 3, tag % 3, at);
                p.header.seq = id;
                match e.incoming(p) {
                    Incoming::Matched { recv, .. } => format!("{:?}", recv.posted_at),
                    Incoming::Queued { .. } => "queued".into(),
                }
            }
            2 => {
                let (st, work) = e.probe(&pattern);
                assert_eq!(work.wildcard_scanned, 0);
                format!("{st:?}")
            }
            _ => {
                // A post retracted on a miss (`cancel`).
                let req = Arc::clone(&posted.req);
                let (p, _) = e.post_recv(posted);
                if p.is_none() {
                    assert!(e.cancel(&req));
                }
                format!("{:?}", p.map(|p| p.header.seq))
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Mixed-shape posts, arrivals (out of order, with ties), probes and
        /// matched probes: after every op the slab keeps its invariants, the
        /// unexpected side skips nothing, and every result equals the
        /// linear reference's.
        #[test]
        fn slab_lists_stay_exact_under_mixed_ops(
            ops in proptest::collection::vec((0u8..4, 1u32..3, 0u8..4, 0i64..4, 0u64..16), 1..160)
        ) {
            let mut merged = SeqMergedEngine::new();
            let mut linear = LinearEngine::new();
            for (id, op) in ops.into_iter().enumerate() {
                let want = apply(&mut linear, id as u64, op);
                let got = apply(&mut merged, id as u64, op);
                proptest::prop_assert_eq!(want, got, "op {} {:?}", id, op);
                proptest::prop_assert_eq!(linear.unexpected_len(), merged.unexpected_len());
                proptest::prop_assert_eq!(linear.posted_len(), merged.posted_len());
                check_slab(&merged);
            }
        }
    }

    #[test]
    fn spare_lists_are_bounded() {
        let mut e = SeqMergedEngine::new();
        let n = 3 * SPARES as i64;
        for tag in 0..n {
            e.post_recv(recv(1, 0, tag));
        }
        for tag in 0..n {
            e.incoming(pkt(1, 0, tag, tag as u64));
        }
        assert_eq!(e.posted_len(), 0);
        assert_eq!(e.spare_queues.len(), SPARES);
    }

    #[test]
    fn engine_kinds_are_reference_and_production() {
        assert_eq!(
            EngineKind::all(),
            [EngineKind::Linear, EngineKind::SeqMerged]
        );
        assert_eq!(EngineKind::default(), EngineKind::SeqMerged);
        assert_eq!(EngineKind::Linear.name(), "linear");
        assert_eq!(EngineKind::SeqMerged.name(), "seq_merged");
        for kind in EngineKind::all() {
            assert_eq!(kind.new_engine().kind(), kind);
        }
    }
}
