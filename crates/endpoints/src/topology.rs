//! Collective endpoint creation and the endpoint rank space.

use std::sync::Arc;

use rankmpi_core::{Communicator, Error, Group, Info, Result, ThreadCtx, VciPolicy};

use crate::endpoint::Endpoint;

/// The shared layout of one endpoints communicator: who owns which endpoint
/// rank, and which VCI backs it.
#[derive(Debug)]
pub struct EndpointTopology {
    /// Context id of the endpoints communicator.
    pub ctx_id: u32,
    /// For each endpoint rank: `(world process rank, VCI index on that process)`.
    pub map: Vec<(usize, usize)>,
    /// Endpoint counts per parent rank (parent-rank order).
    pub counts: Vec<usize>,
    /// Exclusive prefix sums of `counts`: the first endpoint rank per process.
    pub offsets: Vec<usize>,
    /// The parent communicator (kept for creation-order bookkeeping).
    pub parent_ctx: u32,
}

impl EndpointTopology {
    /// Total number of endpoints.
    pub fn size(&self) -> usize {
        self.map.len()
    }

    /// World process rank owning endpoint `ep`.
    pub fn proc_of(&self, ep: usize) -> usize {
        self.map[ep].0
    }

    /// VCI index backing endpoint `ep` on its owner process.
    pub fn vci_of(&self, ep: usize) -> usize {
        self.map[ep].1
    }

    /// The endpoint rank of the `i`-th endpoint of parent rank `r`.
    pub fn ep_rank(&self, parent_rank: usize, i: usize) -> usize {
        debug_assert!(i < self.counts[parent_rank]);
        self.offsets[parent_rank] + i
    }
}

/// `MPI_Comm_create_endpoints` (the paper's Fig. 2).
///
/// Collective over `parent`: every process passes its own `my_num_ep` and
/// receives that many [`Endpoint`] handles, each addressable by a distinct
/// global endpoint rank. Endpoint ranks are laid out in parent-rank order:
/// parent rank 0's endpoints first, then rank 1's, and so on.
///
/// Each endpoint gets a dedicated VCI; the VCIs draw hardware contexts from
/// the node's bounded pool, so creating more endpoints than the NIC has
/// contexts degrades gracefully into sharing — the library's responsibility,
/// not the user's.
///
/// `_info` mirrors the `MPI_Comm_create_endpoints` proposal's signature; no
/// key is interpreted.
pub fn comm_create_endpoints(
    parent: &Communicator,
    th: &mut ThreadCtx,
    my_num_ep: usize,
    _info: &Info,
) -> Result<Vec<Endpoint>> {
    if my_num_ep == 0 {
        return Err(Error::InvalidState("my_num_ep must be at least 1"));
    }
    let universe = parent.universe().clone();
    let proc = parent.proc().clone();

    // Creation-op index in a key space disjoint from dup/split and windows.
    let idx = proc.next_dup_index(parent.context_id() | 0x2000_0000);

    // Exchange endpoint counts (the collective agreement), reusing the
    // split rendezvous board.
    let all: Vec<(i64, i64)> = universe.gather_split(
        (parent.context_id() | 0x2000_0000, idx),
        parent.rank(),
        parent.size(),
        my_num_ep as i64,
        0,
    );
    let counts: Vec<usize> = all.iter().map(|&(c, _)| c as usize).collect();
    let mut offsets = Vec::with_capacity(counts.len());
    let mut acc = 0usize;
    for &c in &counts {
        offsets.push(acc);
        acc += c;
    }
    let total = acc;

    // Context id for the endpoints communicator (VCI block unused: endpoints
    // own dedicated VCIs outside the standard pool).
    let (ctx_id, _block) = universe.agree_comm((parent.context_id(), idx | (1 << 62), 0), 1);

    // Allocate my endpoints' VCIs, then publish the (proc, vci) map through a
    // second rendezvous: each process contributes its first VCI index (its
    // endpoints get consecutive indices because `add_vci` appends under this
    // process's creation lock — one creator per process).
    let my_vcis: Vec<usize> = (0..my_num_ep).map(|_| proc.add_vci()).collect();
    let first_vci = my_vcis[0];
    debug_assert!(my_vcis.windows(2).all(|w| w[1] == w[0] + 1));
    let vci_starts: Vec<(i64, i64)> = universe.gather_split(
        (parent.context_id() | 0x2000_0000, idx | (1 << 61)),
        parent.rank(),
        parent.size(),
        first_vci as i64,
        0,
    );

    let mut map = Vec::with_capacity(total);
    for (pr, &c) in counts.iter().enumerate() {
        let world = parent.global_rank(pr);
        let start = vci_starts[pr].0 as usize;
        for i in 0..c {
            map.push((world, start + i));
        }
    }

    let topo = Arc::new(EndpointTopology {
        ctx_id,
        map,
        counts: counts.clone(),
        offsets: offsets.clone(),
        parent_ctx: parent.context_id(),
    });

    // Creation is collective & synchronizing.
    parent.barrier(th)?;

    // Each endpoint is one rank of the endpoints communicator: same context
    // and group on every handle, one VCI per rank.
    let (owners, vcis): (Vec<usize>, Vec<usize>) = topo.map.iter().copied().unzip();
    let group = Group::from_owners(owners);
    let vcis = Arc::new(vcis);
    let base = offsets[parent.rank()];
    Ok(my_vcis
        .iter()
        .enumerate()
        .map(|(i, &vci)| {
            let comm = Communicator::from_parts(
                universe.clone(),
                proc.clone(),
                ctx_id,
                group.clone(),
                base + i,
                VciPolicy::PerRank(Arc::clone(&vcis)),
                Arc::new(vec![vci]),
                Info::new(),
            );
            comm.set_errhandler(parent.errhandler());
            Endpoint {
                topo: Arc::clone(&topo),
                comm,
                vci_idx: vci,
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rankmpi_core::Universe;

    #[test]
    fn ranks_are_laid_out_in_parent_order() {
        let u = Universe::builder().nodes(3).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            // Rank r asks for r+1 endpoints: counts 1, 2, 3.
            let eps = comm_create_endpoints(&world, &mut th, env.rank() + 1, &Info::new()).unwrap();
            eps.iter().map(|e| e.rank()).collect::<Vec<_>>()
        });
        assert_eq!(out[0], vec![0]);
        assert_eq!(out[1], vec![1, 2]);
        assert_eq!(out[2], vec![3, 4, 5]);
    }

    #[test]
    fn topology_maps_eps_to_owner_procs() {
        let u = Universe::builder().nodes(2).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let eps = comm_create_endpoints(&world, &mut th, 2, &Info::new()).unwrap();
            let t = eps[0].topology().clone();
            (0..t.size()).map(|e| t.proc_of(e)).collect::<Vec<_>>()
        });
        assert_eq!(out[0], vec![0, 0, 1, 1]);
    }

    #[test]
    fn each_endpoint_gets_its_own_vci() {
        let u = Universe::builder().nodes(1).num_vcis(1).build();
        let before = u.shared().proc(0).num_vcis();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let eps = comm_create_endpoints(&world, &mut th, 4, &Info::new()).unwrap();
            let vcis: Vec<_> = eps.iter().map(|e| e.vci_index()).collect();
            let mut sorted = vcis.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "distinct VCIs per endpoint");
        });
        assert_eq!(u.shared().proc(0).num_vcis(), before + 4);
    }

    #[test]
    fn zero_endpoints_is_an_error() {
        let u = Universe::builder().nodes(1).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            assert!(comm_create_endpoints(&world, &mut th, 0, &Info::new()).is_err());
        });
    }
}
