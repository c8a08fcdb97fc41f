//! One-step collectives over endpoints (Lessons 18 and 19).
//!
//! The algorithms are `rankmpi_core`'s own collectives. They are one-step
//! because every endpoint is a rank of the same communicator: the library's
//! tree spans *all* endpoints, so the intranode portion (endpoints on the same
//! process/node, connected by the cheap shared-memory path) and the internode
//! portion are both handled inside the call — the user never writes a manual
//! intranode reduction, unlike the existing-mechanisms design of Fig. 7.
//!
//! The trade-off the paper calls out in Lesson 19 is visible here: for
//! rooted/replicated results (allreduce, bcast) every endpoint of a process
//! receives its own copy of the result buffer, where a process-rank collective
//! would hold one. [`duplication_report`] quantifies exactly that overhead.

use bytes::Bytes;
use rankmpi_core::{ReduceOp, Result, ThreadCtx};

use crate::endpoint::Endpoint;
use crate::topology::EndpointTopology;

impl Endpoint {
    /// Dissemination barrier across all endpoints.
    pub fn ep_barrier(&self, th: &mut ThreadCtx) -> Result<()> {
        self.comm.barrier(th)
    }

    /// Binomial broadcast from endpoint `root_ep` across all endpoints.
    pub fn ep_bcast(
        &self,
        th: &mut ThreadCtx,
        root_ep: usize,
        data: Option<&[u8]>,
    ) -> Result<Bytes> {
        self.comm.bcast(th, root_ep, data)
    }

    /// Binomial reduction to endpoint `root_ep`.
    pub fn ep_reduce(
        &self,
        th: &mut ThreadCtx,
        root_ep: usize,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Result<Option<Vec<f64>>> {
        self.comm.reduce(th, root_ep, contribution, op)
    }

    /// One-step allreduce across all endpoints: every endpoint contributes
    /// and every endpoint receives the full result (Lesson 19: one result
    /// buffer *per endpoint*, not per process).
    pub fn ep_allreduce(
        &self,
        th: &mut ThreadCtx,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Result<Vec<f64>> {
        self.comm.allreduce(th, contribution, op)
    }

    /// Allgather across all endpoints (equal-size contributions).
    pub fn ep_allgather(&self, th: &mut ThreadCtx, data: &[u8]) -> Result<Vec<Bytes>> {
        self.comm.allgather(th, data)
    }
}

/// Result-buffer duplication of a replicated-result endpoint collective
/// (Lesson 19).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicationReport {
    /// Bytes a process-rank collective would hold per process (one buffer).
    pub per_process_bytes: usize,
    /// Bytes the endpoint collective delivers per process (one per endpoint).
    pub endpoint_bytes_per_process: Vec<usize>,
    /// Total duplicated bytes across the job (endpoint copies minus the one
    /// copy per process that is actually needed).
    pub duplicated_bytes: usize,
}

/// Quantify Lesson 19's duplication for a replicated result of `result_bytes`
/// on `topo`.
pub fn duplication_report(topo: &EndpointTopology, result_bytes: usize) -> DuplicationReport {
    let endpoint_bytes_per_process: Vec<usize> =
        topo.counts.iter().map(|c| c * result_bytes).collect();
    let duplicated_bytes = topo
        .counts
        .iter()
        .map(|c| c.saturating_sub(1) * result_bytes)
        .sum();
    DuplicationReport {
        per_process_bytes: result_bytes,
        endpoint_bytes_per_process,
        duplicated_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm_create_endpoints;
    use rankmpi_core::{Info, Universe};

    #[test]
    fn one_step_allreduce_across_all_endpoints() {
        // 2 procs x 3 endpoints: all 6 endpoints allreduce in ONE call — the
        // library handles internode + intranode (Lesson 18).
        let u = Universe::builder().nodes(2).threads_per_proc(3).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            let eps = comm_create_endpoints(&world, &mut th0, 3, &Info::new()).unwrap();
            let eps = &eps;
            env.parallel(|th| {
                let ep = &eps[th.tid()];
                ep.ep_allreduce(th, &[ep.rank() as f64], ReduceOp::Sum)
                    .unwrap()
            })
        });
        // Sum of ep ranks 0..6 = 15; every endpoint holds its own copy.
        for per_proc in out {
            for v in per_proc {
                assert_eq!(v, vec![15.0]);
            }
        }
    }

    #[test]
    fn ep_barrier_joins_all_endpoint_clocks() {
        let u = Universe::builder().nodes(2).threads_per_proc(2).build();
        let times = u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            let eps = comm_create_endpoints(&world, &mut th0, 2, &Info::new()).unwrap();
            let eps = &eps;
            env.parallel(|th| {
                let ep = &eps[th.tid()];
                // Stagger by global endpoint rank.
                th.compute(rankmpi_vtime::Nanos(ep.rank() as u64 * 5_000));
                ep.ep_barrier(th).unwrap();
                th.clock.now()
            })
        });
        for per_proc in &times {
            for t in per_proc {
                assert!(
                    t.as_ns() >= 15_000,
                    "no endpoint leaves before the slowest entered"
                );
            }
        }
    }

    #[test]
    fn ep_bcast_reaches_every_endpoint() {
        let u = Universe::builder().nodes(2).threads_per_proc(2).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            let eps = comm_create_endpoints(&world, &mut th0, 2, &Info::new()).unwrap();
            let eps = &eps;
            env.parallel(|th| {
                let ep = &eps[th.tid()];
                let data = (ep.rank() == 1).then_some(&b"hello-eps"[..]);
                ep.ep_bcast(th, 1, data).unwrap().to_vec()
            })
        });
        for per_proc in out {
            for b in per_proc {
                assert_eq!(&b[..], b"hello-eps");
            }
        }
    }

    #[test]
    fn ep_allgather_orders_by_endpoint_rank() {
        let u = Universe::builder().nodes(2).threads_per_proc(2).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            let eps = comm_create_endpoints(&world, &mut th0, 2, &Info::new()).unwrap();
            let eps = &eps;
            env.parallel(|th| {
                let ep = &eps[th.tid()];
                let mine = [ep.rank() as u8 + 100];
                let all = ep.ep_allgather(th, &mine).unwrap();
                all.iter().map(|b| b[0]).collect::<Vec<u8>>()
            })
        });
        for per_proc in out {
            for v in per_proc {
                assert_eq!(v, vec![100, 101, 102, 103]);
            }
        }
    }

    #[test]
    fn duplication_report_counts_extra_copies() {
        let topo = EndpointTopology {
            ctx_id: 1,
            map: vec![(0, 1), (0, 2), (0, 3), (1, 1), (1, 2)],
            counts: vec![3, 2],
            offsets: vec![0, 3],
            parent_ctx: 0,
        };
        let rep = duplication_report(&topo, 1024);
        assert_eq!(rep.per_process_bytes, 1024);
        assert_eq!(rep.endpoint_bytes_per_process, vec![3072, 2048]);
        // (3-1) + (2-1) = 3 extra copies.
        assert_eq!(rep.duplicated_bytes, 3 * 1024);
    }
}
