//! MPI 4.0 partitioned communication: `Psend_init` / `Precv_init` / `Pready` /
//! `Parrived` (the paper's Fig. 3 and Listing 4), as
//! [`Communicator::psend_init`] and [`Communicator::precv_init`].
//!
//! A partitioned operation is a *persistent* message with multiple data
//! partitions: the envelope is matched **once** per operation lifetime (an
//! O(1) matching cost no matter how many threads drive partitions — the
//! motivation in Section II-C), after which partition data travels as
//! direct-delivery packets that bypass the matching engine entirely, routed by
//! a route id through the destination process's table of receive sinks.
//! That table counts its own ids, so a route id depends on nothing another
//! process or universe ran.
//!
//! The design's fundamental limitation (Lesson 14) is modeled faithfully: all
//! threads driving partitions share one request object, so every `pready`,
//! `parrived` and `wait` passes through the request's [`ContentionLock`].
//! Passes whose sections overlap in virtual time are shifted one behind the
//! other, so the cost grows with the number of threads arriving together, and
//! the other two designs do not pay it. Its *persistence* (Lesson 15) is also
//! structural: destination, tag and partitioning are fixed at init time, so
//! dynamic communication patterns and wildcard-based polling simply do not fit
//! the interface.
//!
//! [`BufferedPsend`] / [`BufferedPrecv`] are the mitigation the paper concedes
//! for Lesson 14: "Application developers could use multiple partitioned
//! operations (e.g., double buffering) to dampen the overhead resulting from
//! the semantic limitation, but they cannot eliminate them in a manner the
//! other two designs can." A pair rotates over `K` independent persistent
//! operations: while iteration `i`'s request drains, threads already fill
//! iteration `i+1`'s — the completion synchronization only blocks when the
//! pipeline wraps around.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use rankmpi_fabric::{Header, Notify, Packet};
use rankmpi_vtime::{ContentionLock, Nanos};

use crate::comm::{Communicator, PART_CTL_BIT};
use crate::error::{Error, Result};
use crate::info::Info;
use crate::matching::MatchPattern;
use crate::proc::ThreadCtx;
use crate::vci::KIND_DIRECT;

/// The receiver-side state of one partitioned operation: the assembly buffer,
/// per-partition arrival stamps, and iteration bookkeeping.
///
/// Registered in its process's [`DirectRegistry`] under its route id:
/// partition packets are dispatched here straight from VCI progress, without
/// touching the matching engine — the O(1)-matching property of partitioned
/// communication.
pub(crate) struct PartSink {
    partitions: usize,
    part_bytes: usize,
    buf: Mutex<Vec<u8>>,
    /// Virtual ready-time + 1 per partition for the active iteration
    /// (0 = not arrived).
    arrived: Vec<AtomicU64>,
    /// The iteration currently being assembled.
    iteration: AtomicU64,
    /// Packets for future iterations (sender ran ahead).
    early: Mutex<Vec<Packet>>,
    /// The receiving process's notifier.
    notify: Arc<Notify>,
    /// Receiver-side per-partition processing cost (recv overhead + copy).
    recv_cost: Nanos,
    /// Cumulative partitions accepted across all iterations (the sender's
    /// transfer-complete signal: iteration k is fully transferred once this
    /// reaches `(k+1) * partitions`).
    total_accepted: AtomicU64,
    /// Monotone max of partition ready times (never reset).
    last_ready: AtomicU64,
}

impl PartSink {
    /// Build a sink for `partitions × part_bytes`.
    pub(crate) fn new(
        partitions: usize,
        part_bytes: usize,
        notify: Arc<Notify>,
        recv_cost: Nanos,
    ) -> Arc<Self> {
        Arc::new(PartSink {
            partitions,
            part_bytes,
            buf: Mutex::new(vec![0; partitions * part_bytes]),
            arrived: (0..partitions).map(|_| AtomicU64::new(0)).collect(),
            iteration: AtomicU64::new(0),
            early: Mutex::new(Vec::new()),
            notify,
            recv_cost,
            total_accepted: AtomicU64::new(0),
            last_ready: AtomicU64::new(0),
        })
    }

    /// Take one direct packet: into the buffer if it belongs to the active
    /// iteration, aside if the sender ran ahead.
    pub(crate) fn deliver(&self, pkt: Packet) {
        let iter = pkt.header.aux2 >> 32;
        if iter == self.iteration.load(Ordering::Acquire) {
            self.accept(&pkt);
        } else {
            debug_assert!(iter > self.iteration.load(Ordering::Acquire));
            self.early.lock().push(pkt);
        }
        self.notify.notify();
    }

    fn accept(&self, pkt: &Packet) {
        let part = (pkt.header.aux2 & 0xFFFF_FFFF) as usize;
        debug_assert!(part < self.partitions);
        debug_assert_eq!(pkt.payload.len(), self.part_bytes);
        {
            let mut buf = self.buf.lock();
            let off = part * self.part_bytes;
            buf[off..off + self.part_bytes].copy_from_slice(&pkt.payload);
        }
        let ready = pkt.arrive_at + self.recv_cost;
        self.arrived[part].store(ready.as_ns() + 1, Ordering::Release);
        self.last_ready.fetch_max(ready.as_ns(), Ordering::AcqRel);
        self.total_accepted.fetch_add(1, Ordering::AcqRel);
    }

    /// Ready time of `part` in the active iteration, if arrived.
    pub(crate) fn partition_ready(&self, part: usize) -> Option<Nanos> {
        let v = self.arrived[part].load(Ordering::Acquire);
        (v > 0).then(|| Nanos(v - 1))
    }

    /// Whether all partitions of the active iteration have arrived; returns
    /// the max ready time if so.
    pub(crate) fn all_ready(&self) -> Option<Nanos> {
        let mut max = Nanos::ZERO;
        for a in &self.arrived {
            let v = a.load(Ordering::Acquire);
            if v == 0 {
                return None;
            }
            max = max.max(Nanos(v - 1));
        }
        Some(max)
    }

    /// Read the assembled partition `part` (valid once it arrived).
    pub(crate) fn read_partition(&self, part: usize) -> Vec<u8> {
        let buf = self.buf.lock();
        let off = part * self.part_bytes;
        buf[off..off + self.part_bytes].to_vec()
    }

    /// Copy out the whole assembled buffer.
    pub(crate) fn read_all(&self) -> Vec<u8> {
        self.buf.lock().clone()
    }

    /// Complete the active iteration: reset arrival state and re-deliver any
    /// early packets that belong to the next iteration.
    pub(crate) fn complete_iteration(&self) {
        for a in &self.arrived {
            a.store(0, Ordering::Release);
        }
        let next = self.iteration.fetch_add(1, Ordering::AcqRel) + 1;
        let mut early = self.early.lock();
        let (now_due, still_early): (Vec<Packet>, Vec<Packet>) =
            early.drain(..).partition(|p| (p.header.aux2 >> 32) == next);
        *early = still_early;
        drop(early);
        for p in now_due {
            self.accept(&p);
        }
        self.notify.notify();
    }
}

/// One process's partitioned receive sinks, keyed by route id (the
/// `header.aux` of a [`KIND_DIRECT`] packet). It lives in the receiving
/// process's [`ProcShared`](crate::ProcShared) and counts its own ids from 1.
///
/// The sender learns the route id from the handshake and addresses packets
/// with it; it also reads the receiver's sink through this table (for
/// `wait`'s transfer-complete check), where a real MPI library would receive
/// an acknowledgment message. The shared address space stands in for that
/// ack, as documented in DESIGN.md.
#[derive(Default)]
pub(crate) struct DirectRegistry {
    routes: RwLock<Routes>,
}

#[derive(Default)]
struct Routes {
    last_id: u64,
    sinks: HashMap<u64, Arc<PartSink>>,
}

impl DirectRegistry {
    /// Register `sink` under a fresh route id and return the id.
    pub(crate) fn register(&self, sink: Arc<PartSink>) -> u64 {
        let mut routes = self.routes.write();
        routes.last_id += 1;
        let id = routes.last_id;
        routes.sinks.insert(id, sink);
        id
    }

    /// Remove the sink under `id`.
    pub(crate) fn unregister(&self, id: u64) {
        self.routes.write().sinks.remove(&id);
    }

    /// The sink under `id`.
    pub(crate) fn sink(&self, id: u64) -> Option<Arc<PartSink>> {
        self.routes.read().sinks.get(&id).cloned()
    }

    /// Number of registered sinks.
    pub(crate) fn len(&self) -> usize {
        self.routes.read().sinks.len()
    }

    /// Dispatch a packet to its sink (drops packets with no sink, which can
    /// only happen if a protocol tears down a sink with traffic in flight).
    pub(crate) fn dispatch(&self, pkt: Packet) {
        if let Some(sink) = self.sink(pkt.header.aux) {
            sink.deliver(pkt);
        } else {
            debug_assert!(
                false,
                "direct packet for unregistered sink {}",
                pkt.header.aux
            );
        }
    }
}

impl std::fmt::Debug for DirectRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DirectRegistry({} sinks)", self.len())
    }
}

impl Communicator {
    /// `MPI_Psend_init`: set up a persistent send of `partitions × part_bytes`
    /// to `dst` with `tag`. A local call; the handshake completes on the
    /// first `start`.
    ///
    /// `_info` mirrors `MPI_Psend_init`'s signature; no key is interpreted.
    pub fn psend_init(
        &self,
        th: &mut ThreadCtx,
        dst: usize,
        tag: i64,
        partitions: usize,
        part_bytes: usize,
        _info: &Info,
    ) -> Result<PsendRequest> {
        if partitions == 0 {
            return Err(Error::InvalidState("partitioned op needs >= 1 partition"));
        }
        th.clock.advance(th.proc().costs().request_setup);
        Ok(PsendRequest {
            comm: self.clone(),
            dst,
            tag,
            partitions,
            part_bytes,
            route: Mutex::new(None),
            shared: ContentionLock::new(()),
            iteration: AtomicU64::new(0),
            ready_count: AtomicU64::new(0),
            active: AtomicBool::new(false),
        })
    }

    /// `MPI_Precv_init`: set up a persistent receive of
    /// `partitions × part_bytes` from `src` with `tag`.
    ///
    /// Sends the protocol's route handshake to the sender; matching for the
    /// whole operation happens exactly once, when the sender's first `start`
    /// receives that control message — O(1) matching regardless of partition
    /// or thread count.
    ///
    /// `_info` mirrors `MPI_Precv_init`'s signature; no key is interpreted.
    pub fn precv_init(
        &self,
        th: &mut ThreadCtx,
        src: usize,
        tag: i64,
        partitions: usize,
        part_bytes: usize,
        _info: &Info,
    ) -> Result<PrecvRequest> {
        if partitions == 0 {
            return Err(Error::InvalidState("partitioned op needs >= 1 partition"));
        }
        let costs = th.proc().costs();
        let recv_cost = th.universe().profile().recv_overhead + costs.copy_cost(part_bytes);
        let sink = PartSink::new(
            partitions,
            part_bytes,
            Arc::clone(th.proc().notify()),
            recv_cost,
        );
        let route_id = self.proc().direct().register(Arc::clone(&sink));
        // Built before the handshake so that a refused one drops it, which
        // unregisters the sink.
        let req = PrecvRequest {
            comm: self.clone(),
            src,
            tag,
            sink,
            route_id,
            shared: ContentionLock::new(()),
            active: AtomicBool::new(false),
        };

        // Handshake: tell the sender which route to use. Travels as a normal
        // matched message on the partitioned-control context.
        let vci = self.vci_block()[0];
        let r = self.isend_on_vcis(
            th,
            vci,
            vci,
            self.context_id() | PART_CTL_BIT,
            src,
            tag,
            &route_id.to_le_bytes(),
        )?;
        r.wait(&mut th.clock);
        Ok(req)
    }
}

/// One pass through a shared request: an acquisition, plus a shift whenever
/// another thread's pass overlaps this one in virtual time.
fn contend(shared: &ContentionLock<()>, th: &mut ThreadCtx) {
    let g = shared.lock(&mut th.clock);
    g.release(&mut th.clock);
}

/// A persistent partitioned send.
///
/// Created once ([`Communicator::psend_init`]), then cycled: `start` →
/// threads call `pready(part, data)` as their partition becomes ready → one
/// thread calls `wait` → `start` again. As on the receive side, every
/// operation passes through the shared request's [`ContentionLock`]
/// (Lesson 14): threads whose passes overlap in virtual time are shifted one
/// behind the other.
pub struct PsendRequest {
    comm: Communicator,
    dst: usize,
    tag: i64,
    partitions: usize,
    part_bytes: usize,
    /// Resolved on first `start` by receiving the route handshake — the one
    /// matched message of the operation's lifetime.
    pub(crate) route: Mutex<Option<(u64, Arc<PartSink>)>>,
    shared: ContentionLock<()>,
    iteration: AtomicU64,
    ready_count: AtomicU64,
    active: AtomicBool,
}

impl PsendRequest {
    fn resolve_route(&self, th: &mut ThreadCtx) -> Result<(u64, Arc<PartSink>)> {
        let known = self.route.lock().clone();
        if let Some(route) = known {
            return Ok(route);
        }
        // The operation's single matched message: the receiver's handshake.
        // `route` is not held across it — a plain mutex held over a blocking
        // wait keeps an engine task's worker slot from whoever needs the
        // lock next — and need not be: only the first `start` gets here,
        // and `active` admits one `start` at a time.
        let pattern = MatchPattern {
            context_id: self.comm.context_id() | PART_CTL_BIT,
            src: self.dst as i64,
            tag: self.tag,
        };
        let req = self
            .comm
            .irecv_on_vci(th, self.comm.vci_block()[0], pattern)?;
        // A lossy fabric can fail the handshake (retries exhausted): surface
        // that as an error instead of aborting the sender.
        let (_st, data) = req.wait_outcome(&mut th.clock)?;
        let id = u64::from_le_bytes(
            data[..8]
                .try_into()
                .expect("the route handshake carries an 8-byte route id"),
        );
        let sink = th
            .universe()
            .proc(self.comm.global_rank(self.dst))
            .direct()
            .sink(id)
            .ok_or(Error::InvalidState("unknown partitioned route"))?;
        if sink.partitions != self.partitions || sink.part_bytes != self.part_bytes {
            return Err(Error::LengthMismatch {
                expected: sink.partitions * sink.part_bytes,
                got: self.partitions * self.part_bytes,
            });
        }
        *self.route.lock() = Some((id, Arc::clone(&sink)));
        Ok((id, sink))
    }

    /// Activate the next iteration (`MPI_Start`). The first call performs the
    /// operation's only matching handshake.
    pub fn start(&self, th: &mut ThreadCtx) -> Result<()> {
        if self.active.swap(true, Ordering::AcqRel) {
            return Err(Error::InvalidState("partitioned send already active"));
        }
        if let Err(e) = self.resolve_route(th) {
            self.active.store(false, Ordering::Release);
            return Err(e);
        }
        self.ready_count.store(0, Ordering::Release);
        th.clock.advance(th.proc().costs().request_setup);
        Ok(())
    }

    /// `MPI_Pready`: partition `part` is filled; transfer it. Callable from
    /// any thread; partitions map round-robin onto the process's VCI pool, so
    /// with enough VCIs different partitions ride parallel hardware contexts.
    pub fn pready(&self, th: &mut ThreadCtx, part: usize, data: &[u8]) -> Result<()> {
        if !self.active.load(Ordering::Acquire) {
            return Err(Error::InvalidState("pready before start"));
        }
        if part >= self.partitions {
            return Err(Error::InvalidState("partition index out of range"));
        }
        if data.len() != self.part_bytes {
            return Err(Error::LengthMismatch {
                expected: self.part_bytes,
                got: data.len(),
            });
        }
        let entered_at = th.clock.now();
        // Shared-request access (Lesson 14): threads contend here.
        contend(&self.shared, th);

        let (route_id, _sink) = self.resolve_route(th)?;
        let costs = th.proc().costs().clone();
        th.clock.advance(costs.copy_cost(data.len()));

        let nv = th.proc().num_vcis().min(th.universe().num_vcis());
        let vci_idx = part % nv;
        let svci = th.proc().vci(vci_idx);
        let dst_proc = Arc::clone(th.universe().proc(self.comm.global_rank(self.dst)));
        let dvci = dst_proc.vci(vci_idx);
        let intra = dst_proc.node() == th.proc().node();

        let iter = self.iteration.load(Ordering::Acquire);
        let header = Header {
            kind: KIND_DIRECT,
            context_id: self.comm.context_id(),
            src: self.comm.rank() as u32,
            dst: self.dst as u32,
            tag: self.tag,
            seq: th.proc().next_seq(),
            aux: route_id,
            aux2: (iter << 32) | part as u64,
        };
        svci.send_packet(
            &mut th.clock,
            &dvci,
            intra,
            header,
            Bytes::copy_from_slice(data),
        );
        rankmpi_obs::trace::busy("part", "pready", entered_at, th.clock.now(), svci.res_id());
        self.ready_count.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Complete the active iteration (`MPI_Wait`): blocks until every
    /// partition of this iteration has been transferred to the receiver, then
    /// re-arms for the next `start`. Erroneous before all partitions were
    /// `pready`ed, as in MPI.
    pub fn wait(&self, th: &mut ThreadCtx) -> Result<()> {
        if !self.active.load(Ordering::Acquire) {
            return Err(Error::InvalidState("wait before start"));
        }
        if self.ready_count.load(Ordering::Acquire) < self.partitions as u64 {
            return Err(Error::InvalidState(
                "wait before every partition was marked ready",
            ));
        }
        let entered_at = th.clock.now();
        contend(&self.shared, th);
        let (_route_id, sink) = self.resolve_route(th)?;
        let iter = self.iteration.load(Ordering::Acquire);
        let needed = (iter + 1) * self.partitions as u64;
        sink.notify
            .wait_until(|| (sink.total_accepted.load(Ordering::Acquire) >= needed).then_some(()));
        // Transfer-complete acknowledgment: one wire latency past the last
        // partition's landing.
        th.clock.wait_until(
            Nanos(sink.last_ready.load(Ordering::Acquire)) + th.universe().profile().latency,
        );
        rankmpi_obs::trace::wait(
            "part",
            "psend_wait",
            entered_at,
            th.clock.now(),
            rankmpi_obs::trace::ResId::NONE,
        );
        self.iteration.fetch_add(1, Ordering::AcqRel);
        self.active.store(false, Ordering::Release);
        Ok(())
    }

    /// Total contention paid on the shared request lock so far.
    pub fn shared_contention(&self) -> Nanos {
        self.shared.contended_total()
    }
}

impl std::fmt::Debug for PsendRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PsendRequest")
            .field("dst", &self.dst)
            .field("tag", &self.tag)
            .field("partitions", &self.partitions)
            .finish()
    }
}

/// A persistent partitioned receive.
///
/// Created once ([`Communicator::precv_init`]), then cycled: `start` →
/// threads poll `parrived(part)` → one thread calls `wait` → `start` again
/// (Listing 4). All methods pass through the request's shared
/// [`ContentionLock`] — the Lesson 14 cost of threads sharing one MPI
/// request: passes that overlap in virtual time are shifted one behind the
/// other. Dropping it removes its sink from its process's route table.
pub struct PrecvRequest {
    comm: Communicator,
    src: usize,
    tag: i64,
    sink: Arc<PartSink>,
    route_id: u64,
    /// The shared-request lock every thread contends on.
    shared: ContentionLock<()>,
    active: AtomicBool,
}

impl PrecvRequest {
    /// The route id (diagnostics).
    pub fn route_id(&self) -> u64 {
        self.route_id
    }

    /// Activate the next iteration (`MPI_Start`).
    pub fn start(&self, th: &mut ThreadCtx) -> Result<()> {
        if self.active.swap(true, Ordering::AcqRel) {
            return Err(Error::InvalidState("partitioned recv already active"));
        }
        th.clock.advance(th.proc().costs().request_setup);
        Ok(())
    }

    /// `MPI_Parrived`: has partition `part` of the active iteration landed?
    /// On `true`, the caller's clock advances to the partition's ready time.
    pub fn parrived(&self, th: &mut ThreadCtx, part: usize) -> Result<bool> {
        if !self.active.load(Ordering::Acquire) {
            return Err(Error::InvalidState("parrived before start"));
        }
        if part >= self.sink.partitions {
            return Err(Error::InvalidState("partition index out of range"));
        }
        let entered_at = th.clock.now();
        // Shared-request access (Lesson 14).
        contend(&self.shared, th);
        // Progress the VCI this partition's packets land on.
        let nv = th.proc().num_vcis().min(th.universe().num_vcis());
        let vci = th.proc().vci(part % nv);
        vci.progress(&mut th.clock);
        match self.sink.partition_ready(part) {
            Some(ready) => {
                th.clock.wait_until(ready);
                rankmpi_obs::trace::busy(
                    "part",
                    "parrived",
                    entered_at,
                    th.clock.now(),
                    vci.res_id(),
                );
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// Read partition `part`'s data (valid after `parrived` returned true).
    pub fn read_partition(&self, part: usize) -> Vec<u8> {
        self.sink.read_partition(part)
    }

    /// Complete the active iteration (`MPI_Wait`): blocks until every
    /// partition has arrived, returns the assembled message, and re-arms the
    /// operation for the next `start`.
    pub fn wait(&self, th: &mut ThreadCtx) -> Result<Vec<u8>> {
        if !self.active.load(Ordering::Acquire) {
            return Err(Error::InvalidState("wait before start"));
        }
        let entered_at = th.clock.now();
        contend(&self.shared, th);
        let nv = th.proc().num_vcis().min(th.universe().num_vcis());
        let notify = th.proc().notify().clone();
        let finish = notify.wait_until(|| {
            for v in 0..nv {
                th.proc().vci(v).progress(&mut th.clock);
            }
            self.sink.all_ready()
        });
        th.clock.wait_until(finish);
        let data = self.sink.read_all();
        th.clock.advance(th.proc().costs().match_base); // completion bookkeeping
        rankmpi_obs::trace::wait(
            "part",
            "precv_wait",
            entered_at,
            th.clock.now(),
            rankmpi_obs::trace::ResId::NONE,
        );
        self.sink.complete_iteration();
        self.active.store(false, Ordering::Release);
        Ok(data)
    }

    /// Total contention paid on the shared request lock so far.
    pub fn shared_contention(&self) -> Nanos {
        self.shared.contended_total()
    }
}

impl Drop for PrecvRequest {
    fn drop(&mut self) {
        self.comm.proc().direct().unregister(self.route_id);
    }
}

impl std::fmt::Debug for PrecvRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrecvRequest")
            .field("src", &self.src)
            .field("tag", &self.tag)
            .field("partitions", &self.sink.partitions)
            .field("route", &self.route_id)
            .finish()
    }
}

/// A depth-`K` pipeline of partitioned sends to one destination.
pub struct BufferedPsend {
    slots: Vec<PsendRequest>,
    /// Next slot to start; slots complete in order.
    head: usize,
    /// Slots currently active (started, not yet waited).
    active: usize,
}

impl BufferedPsend {
    /// Create `depth` independent persistent sends (distinct tags derived
    /// from `base_tag`).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        comm: &Communicator,
        th: &mut ThreadCtx,
        dst: usize,
        base_tag: i64,
        depth: usize,
        partitions: usize,
        part_bytes: usize,
        info: &Info,
    ) -> Result<Self> {
        let slots = (0..depth)
            .map(|k| comm.psend_init(th, dst, base_tag + k as i64, partitions, part_bytes, info))
            .collect::<Result<Vec<_>>>()?;
        Ok(BufferedPsend {
            slots,
            head: 0,
            active: 0,
        })
    }

    /// Pipeline depth.
    pub fn depth(&self) -> usize {
        self.slots.len()
    }

    /// Begin the next iteration, returning the slot to `pready` into. Blocks
    /// (completes the oldest slot) only when the pipeline is full — the
    /// dampened, but not eliminated, Lesson 14 synchronization.
    pub fn begin(&mut self, th: &mut ThreadCtx) -> Result<&PsendRequest> {
        if self.active == self.slots.len() {
            let oldest = (self.head + self.slots.len() - self.active) % self.slots.len();
            self.slots[oldest].wait(th)?;
            self.active -= 1;
        }
        let slot = self.head;
        self.slots[slot].start(th)?;
        self.head = (self.head + 1) % self.slots.len();
        self.active += 1;
        Ok(&self.slots[slot])
    }

    /// The slot returned by the most recent [`begin`](Self::begin).
    pub fn current(&self) -> &PsendRequest {
        let cur = (self.head + self.slots.len() - 1) % self.slots.len();
        &self.slots[cur]
    }

    /// Drain every in-flight slot.
    pub fn finish(&mut self, th: &mut ThreadCtx) -> Result<()> {
        while self.active > 0 {
            let oldest = (self.head + self.slots.len() - self.active) % self.slots.len();
            self.slots[oldest].wait(th)?;
            self.active -= 1;
        }
        Ok(())
    }
}

/// A depth-`K` pipeline of partitioned receives from one source.
pub struct BufferedPrecv {
    slots: Vec<PrecvRequest>,
    head: usize,
    active: usize,
}

impl BufferedPrecv {
    /// Create `depth` independent persistent receives matching a
    /// [`BufferedPsend`] of the same shape.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        comm: &Communicator,
        th: &mut ThreadCtx,
        src: usize,
        base_tag: i64,
        depth: usize,
        partitions: usize,
        part_bytes: usize,
        info: &Info,
    ) -> Result<Self> {
        let slots = (0..depth)
            .map(|k| comm.precv_init(th, src, base_tag + k as i64, partitions, part_bytes, info))
            .collect::<Result<Vec<_>>>()?;
        Ok(BufferedPrecv {
            slots,
            head: 0,
            active: 0,
        })
    }

    /// Begin the next iteration's receive slot; completes (and returns the
    /// payload of) the oldest slot when the pipeline is full.
    pub fn begin(&mut self, th: &mut ThreadCtx) -> Result<(usize, Option<Vec<u8>>)> {
        let mut completed = None;
        if self.active == self.slots.len() {
            let oldest = (self.head + self.slots.len() - self.active) % self.slots.len();
            completed = Some(self.slots[oldest].wait(th)?);
            self.active -= 1;
        }
        let slot = self.head;
        self.slots[slot].start(th)?;
        self.head = (self.head + 1) % self.slots.len();
        self.active += 1;
        Ok((slot, completed))
    }

    /// Access slot `k` (to poll `parrived`).
    pub fn slot(&self, k: usize) -> &PrecvRequest {
        &self.slots[k]
    }

    /// Complete all in-flight slots, returning their payloads oldest-first.
    pub fn finish(&mut self, th: &mut ThreadCtx) -> Result<Vec<Vec<u8>>> {
        let mut out = Vec::new();
        while self.active > 0 {
            let oldest = (self.head + self.slots.len() - self.active) % self.slots.len();
            out.push(self.slots[oldest].wait(th)?);
            self.active -= 1;
        }
        Ok(out)
    }
}
