//! The send side: `MPI_Psend_init`, `MPI_Pready`, and completion.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use rankmpi_core::matching::MatchPattern;
use rankmpi_core::vci::KIND_DIRECT;
use rankmpi_core::{Communicator, Error, Info, Result, ThreadCtx};
use rankmpi_fabric::Header;
use rankmpi_vtime::{ContentionLock, Nanos};

use crate::route::{lookup_route, PartSink};
use crate::PART_CTL_BIT;

/// A persistent partitioned send.
///
/// Created once ([`psend_init`]), then cycled: `start` → threads call
/// `pready(part, data)` as their partition becomes ready → one thread calls
/// `wait` → `start` again. As on the receive side, every operation passes
/// through the shared request's [`ContentionLock`] (Lesson 14): threads
/// whose passes overlap in virtual time are shifted one behind the other.
pub struct PsendRequest {
    comm: Communicator,
    dst: usize,
    tag: i64,
    partitions: usize,
    part_bytes: usize,
    /// Resolved on first `start` by receiving the route handshake — the one
    /// matched message of the operation's lifetime.
    route: Mutex<Option<(u64, Arc<PartSink>)>>,
    shared: ContentionLock<()>,
    iteration: AtomicU64,
    ready_count: AtomicU64,
    active: AtomicBool,
}

/// `MPI_Psend_init`: set up a persistent send of `partitions × part_bytes` to
/// `dst` with `tag` on `comm`. A local call; the handshake completes on the
/// first `start`.
///
/// `_info` mirrors `MPI_Psend_init`'s signature; no key is interpreted.
pub fn psend_init(
    comm: &Communicator,
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
        comm: comm.clone(),
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

impl PsendRequest {
    /// Destination rank.
    pub fn dest(&self) -> usize {
        self.dst
    }

    /// Number of partitions.
    pub fn partitions(&self) -> usize {
        self.partitions
    }

    /// Bytes per partition.
    pub fn part_bytes(&self) -> usize {
        self.part_bytes
    }

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
        let id = u64::from_le_bytes(data[..8].try_into().unwrap());
        let sink = lookup_route(id).ok_or(Error::InvalidState("unknown partitioned route"))?;
        if sink.partitions() != self.partitions || sink.part_bytes() != self.part_bytes {
            return Err(Error::LengthMismatch {
                expected: sink.partitions() * sink.part_bytes(),
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
        self.resolve_route(th)?;
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
        self.contend(th);

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
        self.contend(th);
        let (_route_id, sink) = self.resolve_route(th)?;
        let iter = self.iteration.load(Ordering::Acquire);
        let needed = (iter + 1) * self.partitions as u64;
        sink.notify_handle()
            .wait_until(|| (sink.total_accepted() >= needed).then_some(()));
        // Transfer-complete acknowledgment: one wire latency past the last
        // partition's landing.
        th.clock
            .wait_until(sink.last_ready() + th.universe().profile().latency);
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

    /// One pass through the shared request: an acquisition, plus a shift
    /// whenever another thread's pass overlaps this one in virtual time.
    fn contend(&self, th: &mut ThreadCtx) {
        let g = self.shared.lock(&mut th.clock);
        g.release(&mut th.clock);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recv::precv_init;
    use rankmpi_core::Universe;

    #[test]
    fn partitioned_roundtrip_single_iteration() {
        let u = Universe::builder().nodes(2).num_vcis(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let sreq = psend_init(&world, &mut th, 1, 5, 4, 8, &Info::new()).unwrap();
                sreq.start(&mut th).unwrap();
                for p in 0..4 {
                    sreq.pready(&mut th, p, &[p as u8; 8]).unwrap();
                }
                sreq.wait(&mut th).unwrap();
            } else {
                let rreq = precv_init(&world, &mut th, 0, 5, 4, 8, &Info::new()).unwrap();
                rreq.start(&mut th).unwrap();
                let data = rreq.wait(&mut th).unwrap();
                for p in 0..4 {
                    assert_eq!(&data[p * 8..(p + 1) * 8], &[p as u8; 8]);
                }
            }
        });
    }

    /// Counts the yield points its thread reaches, and how many of them with
    /// the request's `route` mutex held.
    struct RouteHeld {
        req: Arc<PsendRequest>,
        yields: AtomicU64,
        held: AtomicU64,
    }

    impl rankmpi_vtime::sched::SchedHook for RouteHeld {
        fn reached(&self, _point: rankmpi_vtime::sched::SchedPoint) {
            self.yields.fetch_add(1, Ordering::Relaxed);
            if self.req.route.try_lock().is_none() {
                self.held.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn first_start_holds_no_plain_lock_across_the_route_handshake() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let sreq = Arc::new(psend_init(&world, &mut th, 1, 5, 1, 8, &Info::new()).unwrap());
                let hook = Arc::new(RouteHeld {
                    req: Arc::clone(&sreq),
                    yields: AtomicU64::new(0),
                    held: AtomicU64::new(0),
                });
                {
                    let _armed = rankmpi_vtime::sched::install_thread_hook(hook.clone());
                    sreq.start(&mut th).unwrap();
                }
                // Asserted after the exchange: a lock held is a count, not
                // a hang.
                sreq.pready(&mut th, 0, &[7; 8]).unwrap();
                sreq.wait(&mut th).unwrap();
                assert!(
                    hook.yields.load(Ordering::Relaxed) > 0,
                    "the handshake posts, waits and advances the clock"
                );
                assert_eq!(hook.held.load(Ordering::Relaxed), 0);
            } else {
                let rreq = precv_init(&world, &mut th, 0, 5, 1, 8, &Info::new()).unwrap();
                rreq.start(&mut th).unwrap();
                assert_eq!(rreq.wait(&mut th).unwrap(), [7; 8]);
            }
        });
    }

    #[test]
    fn persistent_across_iterations() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let iters = 5;
            if env.rank() == 0 {
                let sreq = psend_init(&world, &mut th, 1, 9, 2, 4, &Info::new()).unwrap();
                for it in 0..iters {
                    sreq.start(&mut th).unwrap();
                    sreq.pready(&mut th, 0, &[it; 4]).unwrap();
                    sreq.pready(&mut th, 1, &[it + 100; 4]).unwrap();
                    sreq.wait(&mut th).unwrap();
                }
            } else {
                let rreq = precv_init(&world, &mut th, 0, 9, 2, 4, &Info::new()).unwrap();
                for it in 0..iters {
                    rreq.start(&mut th).unwrap();
                    let data = rreq.wait(&mut th).unwrap();
                    assert_eq!(data[0], it);
                    assert_eq!(data[4], it + 100);
                }
            }
        });
    }

    #[test]
    fn parrived_polls_partitions_independently() {
        let u = Universe::builder().nodes(2).num_vcis(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let sreq = psend_init(&world, &mut th, 1, 3, 2, 1, &Info::new()).unwrap();
                sreq.start(&mut th).unwrap();
                sreq.pready(&mut th, 1, b"B").unwrap();
                sreq.pready(&mut th, 0, b"A").unwrap();
                sreq.wait(&mut th).unwrap();
            } else {
                let rreq = precv_init(&world, &mut th, 0, 3, 2, 1, &Info::new()).unwrap();
                rreq.start(&mut th).unwrap();
                // Poll until partition 1 lands (sent first).
                while !rreq.parrived(&mut th, 1).unwrap() {
                    std::thread::yield_now();
                }
                assert_eq!(rreq.read_partition(1), b"B");
                rreq.wait(&mut th).unwrap();
            }
        });
    }

    #[test]
    fn multithreaded_partitions_one_request() {
        // Listing 4's shape: each thread drives its own partition of the
        // single shared request.
        let t = 4;
        let u = Universe::builder()
            .nodes(2)
            .threads_per_proc(t)
            .num_vcis(t)
            .build();
        u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            if env.rank() == 0 {
                let sreq = psend_init(&world, &mut th0, 1, 2, t, 8, &Info::new()).unwrap();
                sreq.start(&mut th0).unwrap();
                let sreq = &sreq;
                env.parallel(|th| {
                    sreq.pready(th, th.tid(), &[th.tid() as u8; 8]).unwrap();
                });
                sreq.wait(&mut th0).unwrap();
                assert!(sreq.shared_contention() > Nanos::ZERO);
            } else {
                let rreq = precv_init(&world, &mut th0, 0, 2, t, 8, &Info::new()).unwrap();
                rreq.start(&mut th0).unwrap();
                let data = rreq.wait(&mut th0).unwrap();
                for p in 0..t {
                    assert_eq!(data[p * 8], p as u8);
                }
            }
        });
    }

    #[test]
    fn misuse_is_rejected() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let sreq = psend_init(&world, &mut th, 1, 1, 2, 4, &Info::new()).unwrap();
                // pready before start.
                assert!(sreq.pready(&mut th, 0, &[0; 4]).is_err());
                sreq.start(&mut th).unwrap();
                // double start.
                assert!(sreq.start(&mut th).is_err());
                // wrong partition size.
                assert!(sreq.pready(&mut th, 0, &[0; 3]).is_err());
                // wait before all partitions ready.
                sreq.pready(&mut th, 0, &[0; 4]).unwrap();
                assert!(sreq.wait(&mut th).is_err());
                sreq.pready(&mut th, 1, &[0; 4]).unwrap();
                sreq.wait(&mut th).unwrap();
            } else {
                let rreq = precv_init(&world, &mut th, 0, 1, 2, 4, &Info::new()).unwrap();
                assert!(rreq.wait(&mut th).is_err()); // wait before start
                rreq.start(&mut th).unwrap();
                rreq.wait(&mut th).unwrap();
            }
        });
    }
}
