//! One endpoint: a rank of the endpoints communicator, backed by its own VCI.

use std::sync::Arc;

use bytes::Bytes;
use rankmpi_core::{Communicator, ProcShared, Request, Result, Status, ThreadCtx};

use crate::topology::EndpointTopology;

/// One user-visible endpoint.
///
/// A thread uses an endpoint exactly like it would use an MPI rank in MPI
/// everywhere: `send(th, dst_ep, tag, data)` where `dst_ep` is any endpoint's
/// global rank. Threads are *not* bound to endpoints — any thread may drive
/// any endpoint at any time (Lesson 10's flexibility for tasking runtimes);
/// concurrent use of one endpoint is legal and simply contends on that
/// endpoint's VCI, like threads sharing a rank do.
///
/// Every operation is the [`Communicator`]'s own, on a communicator whose
/// [`VciPolicy::PerRank`](rankmpi_core::VciPolicy) maps each endpoint rank to
/// its VCI. The communicator is deliberately not exposed: `dup`, `split`,
/// `shrink`, `revoke` and window creation assume one caller per process per
/// collective, which several endpoint ranks of one process are not.
pub struct Endpoint {
    pub(crate) topo: Arc<EndpointTopology>,
    pub(crate) comm: Communicator,
    pub(crate) vci_idx: usize,
}

impl Endpoint {
    /// This endpoint's global endpoint rank.
    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    /// Total endpoints in the endpoints communicator.
    pub fn size(&self) -> usize {
        self.comm.size()
    }

    /// The endpoints communicator's shared topology.
    pub fn topology(&self) -> &Arc<EndpointTopology> {
        &self.topo
    }

    /// The VCI index backing this endpoint (exposed so RMA experiments can
    /// drive `Window::*_on_vci` through an endpoint's channel).
    pub fn vci_index(&self) -> usize {
        self.vci_idx
    }

    /// The owning process.
    pub fn proc(&self) -> &Arc<ProcShared> {
        self.comm.proc()
    }

    /// Nonblocking send to endpoint `dst_ep` (eager: locally complete).
    pub fn isend(
        &self,
        th: &mut ThreadCtx,
        dst_ep: usize,
        tag: i64,
        data: &[u8],
    ) -> Result<Request> {
        self.comm.isend(th, dst_ep, tag, data)
    }

    /// Blocking send.
    pub fn send(&self, th: &mut ThreadCtx, dst_ep: usize, tag: i64, data: &[u8]) -> Result<()> {
        self.comm.send(th, dst_ep, tag, data)
    }

    /// Nonblocking receive *on this endpoint*. `src` is an endpoint rank or
    /// `ANY_SOURCE`; `tag` may be `ANY_TAG`. Wildcards are always legal:
    /// matching is local to this endpoint's engine (Lesson 11).
    pub fn irecv(&self, th: &mut ThreadCtx, src: i64, tag: i64) -> Result<Request> {
        self.comm.irecv(th, src, tag)
    }

    /// Blocking receive.
    pub fn recv(&self, th: &mut ThreadCtx, src: i64, tag: i64) -> Result<(Status, Bytes)> {
        self.comm.recv(th, src, tag)
    }

    /// Nonblocking probe on this endpoint (wildcards always legal).
    pub fn iprobe(&self, th: &mut ThreadCtx, src: i64, tag: i64) -> Result<Option<Status>> {
        self.comm.iprobe(th, src, tag)
    }

    /// Probe-and-receive if a matching message is already here.
    pub fn try_recv(
        &self,
        th: &mut ThreadCtx,
        src: i64,
        tag: i64,
    ) -> Result<Option<(Status, Bytes)>> {
        self.comm.try_recv(th, src, tag)
    }
}

impl std::fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Endpoint")
            .field("ep_rank", &self.rank())
            .field("vci", &self.vci_idx)
            .field("size", &self.size())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::comm_create_endpoints;
    use rankmpi_core::{Error, Info, Universe, ANY_SOURCE, ANY_TAG};

    #[test]
    fn endpoint_to_endpoint_roundtrip() {
        let u = Universe::builder().nodes(2).threads_per_proc(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            let eps = comm_create_endpoints(&world, &mut th0, 2, &Info::new()).unwrap();
            let eps = &eps;
            env.parallel(|th| {
                let ep = &eps[th.tid()];
                // Pair endpoint i of rank 0 with endpoint i of rank 1.
                let peer = if env.rank() == 0 {
                    ep.topology().ep_rank(1, th.tid())
                } else {
                    ep.topology().ep_rank(0, th.tid())
                };
                if env.rank() == 0 {
                    ep.send(th, peer, 5, b"to-ep").unwrap();
                    let (st, data) = ep.recv(th, peer as i64, 6).unwrap();
                    assert_eq!(st.source, peer);
                    assert_eq!(&data[..], b"back");
                } else {
                    let (st, data) = ep.recv(th, peer as i64, 5).unwrap();
                    assert_eq!(st.source, peer);
                    assert_eq!(&data[..], b"to-ep");
                    ep.send(th, peer, 6, b"back").unwrap();
                }
            });
        });
    }

    #[test]
    fn wildcard_on_one_endpoint_sees_all_senders() {
        // The Legion pattern: one polling endpoint receives from many task
        // threads' endpoints with ANY_SOURCE (Fig. 5, right side).
        let u = Universe::builder().nodes(2).threads_per_proc(3).build();
        u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            let n_ep = 3;
            let eps = comm_create_endpoints(&world, &mut th0, n_ep, &Info::new()).unwrap();
            if env.rank() == 0 {
                // Three task threads send from their own endpoints.
                let eps = &eps;
                env.parallel(|th| {
                    let ep = &eps[th.tid()];
                    let poller = ep.topology().ep_rank(1, 0);
                    ep.send(th, poller, th.tid() as i64, b"event").unwrap();
                });
            } else {
                // One polling endpoint drains everything with wildcards.
                let poll_ep = &eps[0];
                let mut seen = Vec::new();
                while seen.len() < 3 {
                    if let Some((st, _)) = poll_ep.try_recv(&mut th0, ANY_SOURCE, ANY_TAG).unwrap()
                    {
                        seen.push(st.tag);
                    } else {
                        std::thread::yield_now();
                    }
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![0, 1, 2]);
            }
        });
    }

    #[test]
    fn messages_between_distinct_endpoint_pairs_are_parallel() {
        // Two endpoint pairs at t=0 inject on distinct hardware contexts:
        // identical virtual timing — no serialization between them.
        let u = Universe::builder().nodes(2).threads_per_proc(2).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            let eps = comm_create_endpoints(&world, &mut th0, 2, &Info::new()).unwrap();
            let eps = &eps;
            env.parallel(|th| {
                let ep = &eps[th.tid()];
                if env.rank() == 0 {
                    let peer = ep.topology().ep_rank(1, th.tid());
                    ep.send(th, peer, 0, &[0u8; 8]).unwrap();
                    th.clock.now()
                } else {
                    let peer = ep.topology().ep_rank(0, th.tid());
                    let _ = ep.recv(th, peer as i64, 0).unwrap();
                    th.clock.now()
                }
            })
        });
        // Sender-side completion times identical across the two endpoints.
        assert_eq!(out[0][0], out[0][1]);
    }

    #[test]
    fn bad_endpoint_rank_is_rejected() {
        let u = Universe::builder().nodes(1).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let eps = comm_create_endpoints(&world, &mut th, 1, &Info::new()).unwrap();
            assert!(matches!(
                eps[0].send(&mut th, 99, 0, b""),
                Err(Error::InvalidRank { .. })
            ));
            assert!(matches!(
                eps[0].iprobe(&mut th, eps[0].size() as i64, 0),
                Err(Error::InvalidRank { .. })
            ));
        });
    }

    #[test]
    fn endpoint_sends_draw_on_the_payload_pool() {
        let u = Universe::builder().nodes(2).build();
        let pools = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let eps = comm_create_endpoints(&world, &mut th, 1, &Info::new()).unwrap();
            let ep = &eps[0];
            let peer = 1 - ep.rank();
            for _ in 0..64 {
                if env.rank() == 0 {
                    // Above the inline cap, so each payload needs a slab.
                    ep.send(&mut th, peer, 0, &[7u8; 64]).unwrap();
                    // The ack says the peer dropped its view of the payload:
                    // the slab is reusable from the next send on.
                    ep.recv(&mut th, peer as i64, 1).unwrap();
                } else {
                    drop(ep.recv(&mut th, peer as i64, 0).unwrap());
                    ep.send(&mut th, peer, 1, &[]).unwrap();
                }
            }
            let vci = ep.proc().vci(ep.vci_index());
            (
                vci.payload_pool().fresh_allocs(),
                vci.payload_pool().reuses(),
            )
        });
        let (fresh, reused) = pools[0];
        assert_eq!(fresh + reused, 64);
        assert!(reused > 0);
    }
}
