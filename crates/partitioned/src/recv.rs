//! The receive side: `MPI_Precv_init`, `MPI_Parrived`, and completion.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use rankmpi_core::{Communicator, Error, Info, Result, ThreadCtx};
use rankmpi_vtime::{ContentionLock, Nanos};

use crate::route::{register_route, PartSink};
use crate::PART_CTL_BIT;

/// A persistent partitioned receive.
///
/// Created once ([`precv_init`]), then cycled: `start` → threads poll
/// `parrived(part)` → one thread calls `wait` → `start` again (Listing 4).
/// All methods pass through the request's shared [`ContentionLock`] — the
/// Lesson 14 cost of threads sharing one MPI request: passes that overlap in
/// virtual time are shifted one behind the other.
pub struct PrecvRequest {
    comm: Communicator,
    src: usize,
    tag: i64,
    sink: Arc<PartSink>,
    route_id: u64,
    /// The shared-request lock every thread contends on.
    shared: ContentionLock<()>,
    /// Iterations completed through this handle's `wait`.
    my_iter: AtomicU64,
    active: std::sync::atomic::AtomicBool,
}

/// `MPI_Precv_init`: set up a persistent receive of `partitions × part_bytes`
/// from `src` with `tag` on `comm`.
///
/// Sends the protocol's route handshake to the sender; matching for the whole
/// operation happens exactly once, when the sender's first `start` receives
/// that control message — O(1) matching regardless of partition or thread
/// count.
///
/// `_info` mirrors `MPI_Precv_init`'s signature; no key is interpreted.
pub fn precv_init(
    comm: &Communicator,
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
    let route_id = register_route(Arc::clone(&sink));
    th.proc().register_direct(route_id, sink.clone());

    // Handshake: tell the sender which route to use. Travels as a normal
    // matched message on the partitioned-control context.
    let vci = comm.vci_block()[0];
    let r = comm.isend_on_vcis(
        th,
        vci,
        vci,
        comm.context_id() | PART_CTL_BIT,
        src,
        tag,
        &route_id.to_le_bytes(),
    )?;
    r.wait(&mut th.clock);

    Ok(PrecvRequest {
        comm: comm.clone(),
        src,
        tag,
        sink,
        route_id,
        shared: ContentionLock::new(()),
        my_iter: AtomicU64::new(0),
        active: std::sync::atomic::AtomicBool::new(false),
    })
}

impl PrecvRequest {
    /// Source rank of the persistent operation.
    pub fn source(&self) -> usize {
        self.src
    }

    /// Tag of the persistent operation.
    pub fn tag(&self) -> i64 {
        self.tag
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.sink.partitions()
    }

    /// Bytes per partition.
    pub fn part_bytes(&self) -> usize {
        self.sink.part_bytes()
    }

    /// The route id (diagnostics).
    pub fn route_id(&self) -> u64 {
        self.route_id
    }

    /// The communicator the operation was initialized on.
    pub fn comm(&self) -> &Communicator {
        &self.comm
    }

    /// Activate the next iteration (`MPI_Start`).
    pub fn start(&self, th: &mut ThreadCtx) -> Result<()> {
        if self.active.swap(true, Ordering::AcqRel) {
            return Err(Error::InvalidState("partitioned recv already active"));
        }
        th.clock.advance(th.proc().costs().request_setup);
        Ok(())
    }

    /// One pass through the shared request: an acquisition, plus a shift
    /// whenever another thread's pass overlaps this one in virtual time.
    fn contend(&self, th: &mut ThreadCtx) {
        let g = self.shared.lock(&mut th.clock);
        g.release(&mut th.clock);
    }

    /// `MPI_Parrived`: has partition `part` of the active iteration landed?
    /// On `true`, the caller's clock advances to the partition's ready time.
    pub fn parrived(&self, th: &mut ThreadCtx, part: usize) -> Result<bool> {
        if !self.active.load(Ordering::Acquire) {
            return Err(Error::InvalidState("parrived before start"));
        }
        if part >= self.sink.partitions() {
            return Err(Error::InvalidState("partition index out of range"));
        }
        let entered_at = th.clock.now();
        // Shared-request access (Lesson 14).
        self.contend(th);
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
        self.contend(th);
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
        self.sink.complete_iteration(th.clock.now());
        self.my_iter.fetch_add(1, Ordering::AcqRel);
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
        crate::route::unregister_route(self.route_id);
    }
}

impl std::fmt::Debug for PrecvRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrecvRequest")
            .field("src", &self.src)
            .field("tag", &self.tag)
            .field("partitions", &self.partitions())
            .field("route", &self.route_id)
            .finish()
    }
}
