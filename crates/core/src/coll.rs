//! Collective operations.
//!
//! MPI requires collectives on a communicator to be issued *serially* — the
//! restriction that forces multithreaded applications to either dedicate a
//! communicator per thread (Fig. 7, VASP) or funnel collectives through one
//! thread. The serial-issuance rule is enforced here: concurrent entry returns
//! [`Error::ConcurrentCollective`].
//!
//! Algorithms are the textbook ones (dissemination barrier, binomial
//! bcast/reduce, pairwise alltoall) implemented over the communicator's own
//! point-to-point channel, on a context id with [`COLL_CTX_BIT`] set so that
//! collective traffic can never match user receives.

use bytes::Bytes;

use crate::comm::{CollGuard, Communicator, COLL_CTX_BIT};
use crate::error::{Error, Result};
use crate::matching::MatchPattern;
use crate::proc::ThreadCtx;
use crate::request::Request;
use crate::vci::VciPolicy;

/// Reduction operators over `f64` data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise maximum.
    Max,
    /// Elementwise minimum.
    Min,
}

impl ReduceOp {
    /// Fold `other` into `acc` elementwise.
    pub fn apply(&self, acc: &mut [f64], other: &[f64]) {
        debug_assert_eq!(acc.len(), other.len());
        match self {
            ReduceOp::Sum => acc.iter_mut().zip(other).for_each(|(a, b)| *a += b),
            ReduceOp::Max => acc.iter_mut().zip(other).for_each(|(a, b)| *a = a.max(*b)),
            ReduceOp::Min => acc.iter_mut().zip(other).for_each(|(a, b)| *a = a.min(*b)),
        }
    }
}

/// Serialize `f64`s to little-endian bytes (wire format of reductions).
pub fn f64s_to_bytes(v: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Deserialize little-endian bytes to `f64`s.
pub fn bytes_to_f64s(b: &[u8]) -> Vec<f64> {
    debug_assert_eq!(b.len() % 8, 0);
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

impl Communicator {
    fn coll_tag(guard: &CollGuard<'_>, phase: u32) -> i64 {
        // Successive collectives use distinct tag windows; 16 phases each.
        (((guard.seq % ((crate::tag::TAG_UB as u64 + 1) / 16)) * 16) + phase as u64) as i64
    }

    /// Sender-side and receiver-side VCI of collective traffic to `dst`: the
    /// communicator's first VCI on both sides, or each rank's own under
    /// [`VciPolicy::PerRank`].
    fn coll_vcis(&self, dst: usize) -> (usize, usize) {
        match self.policy() {
            VciPolicy::PerRank(vcis) => (vcis[self.rank()], vcis[dst]),
            _ => (self.vci_block()[0], self.vci_block()[0]),
        }
    }

    fn coll_send(
        &self,
        th: &mut ThreadCtx,
        guard: &CollGuard<'_>,
        phase: u32,
        dst: usize,
        data: &[u8],
    ) -> Result<Request> {
        let (src_vci, dst_vci) = self.coll_vcis(dst);
        self.isend_on_vcis(
            th,
            src_vci,
            dst_vci,
            self.context_id() | COLL_CTX_BIT,
            dst,
            Self::coll_tag(guard, phase),
            data,
        )
    }

    /// Fan out several same-phase sends as one batched injection (single
    /// gate acquisition + amortized doorbell on the collective VCI) — the
    /// root side of scatter-shaped collectives.
    fn coll_send_multi(
        &self,
        th: &mut ThreadCtx,
        guard: &CollGuard<'_>,
        phase: u32,
        msgs: &[(usize, &[u8])],
    ) -> Result<()> {
        let tag = Self::coll_tag(guard, phase);
        let specs: Vec<crate::pt2pt::SendSpec<'_>> = msgs
            .iter()
            .map(|&(dst, data)| {
                let (src_vci, dst_vci) = self.coll_vcis(dst);
                crate::pt2pt::SendSpec {
                    src_vci,
                    dst_vci,
                    ctx_id: self.context_id() | COLL_CTX_BIT,
                    dst,
                    tag,
                    data,
                }
            })
            .collect();
        // Eager sends: the returned requests are already locally complete.
        self.isend_multi_on_vcis(th, &specs)?;
        Ok(())
    }

    fn coll_recv(
        &self,
        th: &mut ThreadCtx,
        guard: &CollGuard<'_>,
        phase: u32,
        src: usize,
    ) -> Result<Bytes> {
        let pattern = MatchPattern {
            context_id: self.context_id() | COLL_CTX_BIT,
            src: src as i64,
            tag: Self::coll_tag(guard, phase),
        };
        let req = self.irecv_on_vci(th, self.coll_vcis(self.rank()).1, pattern)?;
        // Route fabric/FT failures through the errhandler instead of letting
        // `Request::wait` panic mid-collective: a poisoned or process-failure
        // outcome inside a collective phase must surface as an error the
        // caller (or the fatal default handler) can act on.
        match req.wait_outcome(&mut th.clock) {
            Ok((_st, data)) => Ok(data),
            Err(e) => self.handle_error(e),
        }
    }

    /// Dissemination barrier across the communicator.
    pub fn barrier(&self, th: &mut ThreadCtx) -> Result<()> {
        let guard = self.coll_enter()?;
        let entered_at = th.clock.now();
        let p = self.size();
        let r = self.rank();
        let mut phase = 0u32;
        let mut dist = 1usize;
        while dist < p {
            let to = (r + dist) % p;
            let from = (r + p - dist) % p;
            self.coll_send(th, &guard, phase, to, &[])?;
            self.coll_recv(th, &guard, phase, from)?;
            dist <<= 1;
            phase += 1;
        }
        rankmpi_obs::trace::busy(
            "coll",
            "barrier",
            entered_at,
            th.clock.now(),
            rankmpi_obs::trace::ResId::NONE,
        );
        Ok(())
    }

    /// Binomial-tree broadcast from `root`. The root passes `Some(data)`;
    /// everyone receives the broadcast payload.
    pub fn bcast(&self, th: &mut ThreadCtx, root: usize, data: Option<&[u8]>) -> Result<Bytes> {
        let guard = self.coll_enter()?;
        let entered_at = th.clock.now();
        let out = self.bcast_guarded(th, &guard, 0, root, data);
        rankmpi_obs::trace::busy(
            "coll",
            "bcast",
            entered_at,
            th.clock.now(),
            rankmpi_obs::trace::ResId::NONE,
        );
        out
    }

    /// Broadcast body reusable inside composite collectives (phase-offset so
    /// tags cannot collide with the enclosing collective's other phases).
    fn bcast_guarded(
        &self,
        th: &mut ThreadCtx,
        guard: &CollGuard<'_>,
        phase: u32,
        root: usize,
        data: Option<&[u8]>,
    ) -> Result<Bytes> {
        let p = self.size();
        let r = self.rank();
        if root >= p {
            return Err(Error::InvalidRank {
                rank: root as i64,
                size: p,
            });
        }
        let vr = (r + p - root) % p; // virtual rank: root becomes 0
        let buf: Bytes;
        let mut mask = 1usize;
        if vr == 0 {
            buf = Bytes::copy_from_slice(
                data.ok_or(Error::InvalidState("bcast root must supply data"))?,
            );
            while mask < p {
                mask <<= 1;
            }
        } else {
            // Find the lowest set bit: that is the edge to the parent.
            while vr & mask == 0 {
                mask <<= 1;
            }
            let parent = (vr - mask + root) % p;
            buf = self.coll_recv(th, guard, phase, parent)?;
        }
        // Forward down the tree.
        let mut m = mask >> 1;
        while m > 0 {
            if vr + m < p {
                let child = (vr + m + root) % p;
                self.coll_send(th, guard, phase, child, &buf)?;
            }
            m >>= 1;
        }
        Ok(buf)
    }

    /// Binomial-tree reduction to `root`. Returns `Some(result)` on the root,
    /// `None` elsewhere.
    pub fn reduce(
        &self,
        th: &mut ThreadCtx,
        root: usize,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Result<Option<Vec<f64>>> {
        let guard = self.coll_enter()?;
        self.reduce_guarded(th, &guard, 0, root, contribution, op)
    }

    fn reduce_guarded(
        &self,
        th: &mut ThreadCtx,
        guard: &CollGuard<'_>,
        phase: u32,
        root: usize,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Result<Option<Vec<f64>>> {
        let p = self.size();
        let r = self.rank();
        if root >= p {
            return Err(Error::InvalidRank {
                rank: root as i64,
                size: p,
            });
        }
        let vr = (r + p - root) % p;
        let mut acc = contribution.to_vec();
        let costs = th.proc().costs().clone();
        let mut mask = 1usize;
        while mask < p {
            if vr & mask != 0 {
                let parent = (vr - mask + root) % p;
                self.coll_send(th, guard, phase, parent, &f64s_to_bytes(&acc))?;
                return Ok(None);
            }
            if vr + mask < p {
                let child = (vr + mask + root) % p;
                let data = self.coll_recv(th, guard, phase, child)?;
                let other = bytes_to_f64s(&data);
                if other.len() != acc.len() {
                    return Err(Error::LengthMismatch {
                        expected: acc.len(),
                        got: other.len(),
                    });
                }
                th.clock.advance(costs.reduce_cost(acc.len()));
                op.apply(&mut acc, &other);
            }
            mask <<= 1;
        }
        Ok(Some(acc))
    }

    /// Allreduce: reduce to rank 0, then broadcast the result.
    pub fn allreduce(
        &self,
        th: &mut ThreadCtx,
        contribution: &[f64],
        op: ReduceOp,
    ) -> Result<Vec<f64>> {
        let guard = self.coll_enter()?;
        let entered_at = th.clock.now();
        let reduced = self.reduce_guarded(th, &guard, 0, 0, contribution, op)?;
        let out = self.bcast_guarded(
            th,
            &guard,
            8, // phase offset separates the bcast's tags from the reduce's
            0,
            reduced.as_ref().map(|v| f64s_to_bytes(v)).as_deref(),
        )?;
        rankmpi_obs::trace::busy(
            "coll",
            "allreduce",
            entered_at,
            th.clock.now(),
            rankmpi_obs::trace::ResId::NONE,
        );
        Ok(bytes_to_f64s(&out))
    }

    /// Gather equal-size byte contributions to `root`. Returns all
    /// contributions in rank order on the root, `None` elsewhere.
    pub fn gather(
        &self,
        th: &mut ThreadCtx,
        root: usize,
        data: &[u8],
    ) -> Result<Option<Vec<Bytes>>> {
        let guard = self.coll_enter()?;
        self.gather_guarded(th, &guard, 0, root, data)
    }

    fn gather_guarded(
        &self,
        th: &mut ThreadCtx,
        guard: &CollGuard<'_>,
        phase: u32,
        root: usize,
        data: &[u8],
    ) -> Result<Option<Vec<Bytes>>> {
        let p = self.size();
        let r = self.rank();
        if r != root {
            self.coll_send(th, guard, phase, root, data)?;
            return Ok(None);
        }
        let mut out: Vec<Bytes> = vec![Bytes::new(); p];
        out[r] = Bytes::copy_from_slice(data);
        for (src, slot) in out.iter_mut().enumerate() {
            if src != root {
                *slot = self.coll_recv(th, guard, phase, src)?;
            }
        }
        Ok(Some(out))
    }

    /// Allgather: gather to rank 0, then broadcast the concatenation.
    /// Contributions must be equal-sized.
    pub fn allgather(&self, th: &mut ThreadCtx, data: &[u8]) -> Result<Vec<Bytes>> {
        let guard = self.coll_enter()?;
        let p = self.size();
        let chunk = data.len();
        let gathered = self.gather_guarded(th, &guard, 0, 0, data)?;
        let concat: Option<Vec<u8>> = gathered.map(|parts| {
            let mut c = Vec::with_capacity(chunk * p);
            for part in &parts {
                debug_assert_eq!(part.len(), chunk, "allgather needs equal sizes");
                c.extend_from_slice(part);
            }
            c
        });
        let all = self.bcast_guarded(th, &guard, 8, 0, concat.as_deref())?;
        if all.len() != chunk * p {
            return Err(Error::LengthMismatch {
                expected: chunk * p,
                got: all.len(),
            });
        }
        Ok((0..p)
            .map(|i| all.slice(i * chunk..(i + 1) * chunk))
            .collect())
    }

    /// Scatter: the root sends `chunks[i]` to rank `i`; everyone returns
    /// their chunk. Implemented as direct root sends (roots of real MPI
    /// scatters use trees for large counts; the paper makes no claims here).
    pub fn scatter(
        &self,
        th: &mut ThreadCtx,
        root: usize,
        chunks: Option<&[&[u8]]>,
    ) -> Result<Bytes> {
        let guard = self.coll_enter()?;
        let p = self.size();
        let r = self.rank();
        if root >= p {
            return Err(Error::InvalidRank {
                rank: root as i64,
                size: p,
            });
        }
        if r == root {
            let chunks = chunks.ok_or(Error::InvalidState("scatter root must supply chunks"))?;
            if chunks.len() != p {
                return Err(Error::LengthMismatch {
                    expected: p,
                    got: chunks.len(),
                });
            }
            let msgs: Vec<(usize, &[u8])> = chunks
                .iter()
                .enumerate()
                .filter(|&(dst, _)| dst != root)
                .map(|(dst, chunk)| (dst, *chunk))
                .collect();
            self.coll_send_multi(th, &guard, 0, &msgs)?;
            Ok(Bytes::copy_from_slice(chunks[root]))
        } else {
            self.coll_recv(th, &guard, 0, root)
        }
    }

    /// Reduce-scatter with equal blocks: reduce elementwise over all ranks,
    /// then rank `i` keeps block `i`. `contribution.len()` must be
    /// `size() * block`.
    pub fn reduce_scatter_block(
        &self,
        th: &mut ThreadCtx,
        contribution: &[f64],
        block: usize,
        op: ReduceOp,
    ) -> Result<Vec<f64>> {
        let p = self.size();
        if contribution.len() != p * block {
            return Err(Error::LengthMismatch {
                expected: p * block,
                got: contribution.len(),
            });
        }
        let guard = self.coll_enter()?;
        // Reduce to rank 0, then scatter blocks (simple and predictable; the
        // classic pairwise reduce-scatter is an optimization, not a semantic
        // difference).
        let reduced = self.reduce_guarded(th, &guard, 0, 0, contribution, op)?;
        if let Some(full) = reduced {
            let blocks: Vec<Vec<u8>> = (1..p)
                .map(|dst| f64s_to_bytes(&full[dst * block..(dst + 1) * block]))
                .collect();
            let msgs: Vec<(usize, &[u8])> = blocks
                .iter()
                .enumerate()
                .map(|(i, b)| (i + 1, b.as_slice()))
                .collect();
            self.coll_send_multi(th, &guard, 8, &msgs)?;
            Ok(full[..block].to_vec())
        } else {
            let data = self.coll_recv(th, &guard, 8, 0)?;
            Ok(bytes_to_f64s(&data))
        }
    }

    /// Inclusive prefix scan: rank `r` returns `op` folded over the
    /// contributions of ranks `0..=r`.
    pub fn scan(&self, th: &mut ThreadCtx, contribution: &[f64], op: ReduceOp) -> Result<Vec<f64>> {
        let guard = self.coll_enter()?;
        let p = self.size();
        let r = self.rank();
        let costs = th.proc().costs().clone();
        let mut acc = contribution.to_vec();
        // Hillis-Steele: at distance d, receive from r-d and fold; send to r+d.
        let mut d = 1usize;
        let mut phase = 0u32;
        while d < p {
            let send = if r + d < p {
                Some(self.coll_send(th, &guard, phase, r + d, &f64s_to_bytes(&acc))?)
            } else {
                None
            };
            if r >= d {
                let data = self.coll_recv(th, &guard, phase, r - d)?;
                let other = bytes_to_f64s(&data);
                if other.len() != acc.len() {
                    return Err(Error::LengthMismatch {
                        expected: acc.len(),
                        got: other.len(),
                    });
                }
                th.clock.advance(costs.reduce_cost(acc.len()));
                // Fold the lower-ranked partial on the left.
                let mut folded = other;
                op.apply(&mut folded, &acc);
                acc = folded;
            }
            if let Some(s) = send {
                s.wait(&mut th.clock);
            }
            d <<= 1;
            phase += 1;
        }
        Ok(acc)
    }

    /// Pairwise-exchange alltoall: `chunks[i]` goes to rank `i`; returns the
    /// chunk received from each rank, in rank order.
    pub fn alltoall(&self, th: &mut ThreadCtx, chunks: &[&[u8]]) -> Result<Vec<Bytes>> {
        let guard = self.coll_enter()?;
        let p = self.size();
        let r = self.rank();
        if chunks.len() != p {
            return Err(Error::LengthMismatch {
                expected: p,
                got: chunks.len(),
            });
        }
        let mut out: Vec<Bytes> = vec![Bytes::new(); p];
        out[r] = Bytes::copy_from_slice(chunks[r]);
        th.clock
            .advance(th.proc().costs().copy_cost(chunks[r].len()));
        for step in 1..p {
            let to = (r + step) % p;
            let from = (r + p - step) % p;
            // Phase 0 for all steps: each (src,dst) pair occurs once.
            let send = self.coll_send(th, &guard, 0, to, chunks[to])?;
            out[from] = self.coll_recv(th, &guard, 0, from)?;
            send.wait(&mut th.clock);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::Universe;

    #[test]
    fn reduce_op_semantics() {
        let mut a = vec![1.0, 5.0, -2.0];
        ReduceOp::Sum.apply(&mut a, &[1.0, 1.0, 1.0]);
        assert_eq!(a, vec![2.0, 6.0, -1.0]);
        ReduceOp::Max.apply(&mut a, &[0.0, 10.0, 0.0]);
        assert_eq!(a, vec![2.0, 10.0, 0.0]);
        ReduceOp::Min.apply(&mut a, &[3.0, 3.0, 3.0]);
        assert_eq!(a, vec![2.0, 3.0, 0.0]);
    }

    #[test]
    fn f64_bytes_roundtrip() {
        let v = vec![0.0, -1.5, std::f64::consts::PI, f64::MAX];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&v)), v);
    }

    #[test]
    fn barrier_synchronizes_clocks_loosely() {
        let u = Universe::builder().nodes(4).build();
        let times = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            // Stagger processes in virtual time, then meet at the barrier.
            th.compute(rankmpi_vtime::Nanos(env.rank() as u64 * 10_000));
            world.barrier(&mut th).unwrap();
            th.clock.now()
        });
        // Everyone leaves the barrier no earlier than the slowest entrant.
        for t in &times {
            assert!(t.as_ns() >= 30_000);
        }
    }

    #[test]
    fn bcast_delivers_to_all() {
        for p in [1usize, 2, 3, 5, 8] {
            let u = Universe::builder().nodes(p).build();
            let out = u.run(|env| {
                let world = env.world();
                let mut th = env.single_thread();
                let data = if env.rank() == 2 % p {
                    Some(&b"broadcast-payload"[..])
                } else {
                    None
                };
                world.bcast(&mut th, 2 % p, data).unwrap().to_vec()
            });
            for o in out {
                assert_eq!(&o[..], b"broadcast-payload", "p={p}");
            }
        }
    }

    #[test]
    fn reduce_sums_contributions() {
        for p in [1usize, 2, 4, 7] {
            let u = Universe::builder().nodes(p).build();
            let out = u.run(|env| {
                let world = env.world();
                let mut th = env.single_thread();
                let mine = vec![env.rank() as f64, 1.0];
                world.reduce(&mut th, 0, &mine, ReduceOp::Sum).unwrap()
            });
            let expect_sum = (0..p).sum::<usize>() as f64;
            assert_eq!(out[0], Some(vec![expect_sum, p as f64]), "p={p}");
            for o in &out[1..] {
                assert_eq!(*o, None);
            }
        }
    }

    #[test]
    fn allreduce_gives_everyone_the_sum() {
        let p = 6;
        let u = Universe::builder().nodes(p).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            world
                .allreduce(&mut th, &[env.rank() as f64 + 1.0], ReduceOp::Sum)
                .unwrap()
        });
        for o in out {
            assert_eq!(o, vec![21.0]); // 1+2+...+6
        }
    }

    #[test]
    fn allgather_collects_in_rank_order() {
        let p = 5;
        let u = Universe::builder().nodes(p).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            world.allgather(&mut th, &[env.rank() as u8 * 3]).unwrap()
        });
        for o in out {
            let vals: Vec<u8> = o.iter().map(|b| b[0]).collect();
            assert_eq!(vals, vec![0, 3, 6, 9, 12]);
        }
    }

    #[test]
    fn alltoall_transposes() {
        let p = 4;
        let u = Universe::builder().nodes(p).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let r = env.rank() as u8;
            let chunks: Vec<Vec<u8>> = (0..p).map(|d| vec![r * 10 + d as u8]).collect();
            let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
            world.alltoall(&mut th, &refs).unwrap()
        });
        for (r, o) in out.iter().enumerate() {
            let vals: Vec<u8> = o.iter().map(|b| b[0]).collect();
            let expect: Vec<u8> = (0..p).map(|s| (s as u8) * 10 + r as u8).collect();
            assert_eq!(vals, expect, "rank {r} receives column {r}");
        }
    }

    #[test]
    fn scatter_distributes_root_chunks() {
        let p = 4;
        let u = Universe::builder().nodes(p).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let chunks: Vec<Vec<u8>> = (0..p).map(|i| vec![i as u8 * 2; 3]).collect();
            let refs: Vec<&[u8]> = chunks.iter().map(|c| c.as_slice()).collect();
            let mine = world
                .scatter(&mut th, 1, (env.rank() == 1).then_some(refs.as_slice()))
                .unwrap();
            mine[0]
        });
        assert_eq!(out, vec![0, 2, 4, 6]);
    }

    #[test]
    fn scatter_root_needs_chunks() {
        let u = Universe::builder().nodes(1).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            assert!(world.scatter(&mut th, 0, None).is_err());
        });
    }

    #[test]
    fn reduce_scatter_block_splits_the_sum() {
        let p = 4;
        let block = 2;
        let u = Universe::builder().nodes(p).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            // contribution[i] = rank for all 8 elements.
            let mine = vec![env.rank() as f64; p * block];
            world
                .reduce_scatter_block(&mut th, &mine, block, ReduceOp::Sum)
                .unwrap()
        });
        // Sum over ranks = 0+1+2+3 = 6 for every element; each rank keeps a
        // block of two sixes.
        for o in out {
            assert_eq!(o, vec![6.0, 6.0]);
        }
    }

    #[test]
    fn reduce_scatter_block_checks_lengths() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let r = world.reduce_scatter_block(&mut th, &[1.0, 2.0, 3.0], 2, ReduceOp::Sum);
            assert!(matches!(r, Err(Error::LengthMismatch { .. })));
            // Keep both processes in lockstep for clean shutdown.
            world.barrier(&mut th).unwrap();
        });
    }

    #[test]
    fn scan_computes_inclusive_prefixes() {
        for p in [1usize, 2, 3, 5, 8] {
            let u = Universe::builder().nodes(p).build();
            let out = u.run(|env| {
                let world = env.world();
                let mut th = env.single_thread();
                world
                    .scan(&mut th, &[(env.rank() + 1) as f64], ReduceOp::Sum)
                    .unwrap()
            });
            for (r, o) in out.iter().enumerate() {
                let expect: f64 = (1..=r + 1).sum::<usize>() as f64;
                assert_eq!(o[0], expect, "p={p} rank={r}");
            }
        }
    }

    #[test]
    fn scan_with_max_is_running_maximum() {
        let p = 5;
        let u = Universe::builder().nodes(p).build();
        // Contributions 3, 1, 4, 1, 5 -> running max 3, 3, 4, 4, 5.
        let vals = [3.0, 1.0, 4.0, 1.0, 5.0];
        let out = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            world
                .scan(&mut th, &[vals[env.rank()]], ReduceOp::Max)
                .unwrap()
        });
        let got: Vec<f64> = out.iter().map(|o| o[0]).collect();
        assert_eq!(got, vec![3.0, 3.0, 4.0, 4.0, 5.0]);
    }

    #[test]
    fn concurrent_collectives_are_rejected() {
        let u = Universe::builder().nodes(1).threads_per_proc(2).build();
        u.run(|env| {
            let world = env.world();
            // Hold the collective guard on one "thread", then try to enter
            // from another.
            let g = world.coll_enter().unwrap();
            assert!(matches!(
                world.coll_enter(),
                Err(Error::ConcurrentCollective { .. })
            ));
            drop(g);
            assert!(world.coll_enter().is_ok());
        });
    }

    #[test]
    fn distinct_communicators_allow_parallel_collectives() {
        // The Fig. 7 pattern: each thread drives a collective on its own
        // communicator, in parallel, legally.
        let p = 2;
        let t = 3;
        let u = Universe::builder().nodes(p).threads_per_proc(t).build();
        let out = u.run(|env| {
            let world = env.world();
            let comms: Vec<_> = {
                let mut th = env.single_thread();
                (0..t).map(|_| world.dup(&mut th).unwrap()).collect()
            };
            let comms = &comms;
            env.parallel(|th| {
                let c = &comms[th.tid()];
                c.allreduce(th, &[1.0], ReduceOp::Sum).unwrap()[0]
            })
        });
        for o in out {
            assert_eq!(o, vec![2.0; 3]);
        }
    }

    // One-step collectives over endpoints (Lessons 18 and 19): every
    // endpoint is a rank of one communicator, so the library's tree spans the
    // intranode and internode portions in one call.

    #[test]
    fn one_step_allreduce_across_all_endpoints() {
        // 2 procs x 3 endpoints: all 6 endpoints allreduce in ONE call — the
        // library handles internode + intranode (Lesson 18).
        let u = Universe::builder().nodes(2).threads_per_proc(3).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            let eps = world.create_endpoints(&mut th0, 3).unwrap();
            let eps = &eps;
            env.parallel(|th| {
                let ep = &eps[th.tid()];
                ep.allreduce(th, &[ep.rank() as f64], ReduceOp::Sum)
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
            let eps = world.create_endpoints(&mut th0, 2).unwrap();
            let eps = &eps;
            env.parallel(|th| {
                let ep = &eps[th.tid()];
                // Stagger by global endpoint rank.
                th.compute(rankmpi_vtime::Nanos(ep.rank() as u64 * 5_000));
                ep.barrier(th).unwrap();
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
            let eps = world.create_endpoints(&mut th0, 2).unwrap();
            let eps = &eps;
            env.parallel(|th| {
                let ep = &eps[th.tid()];
                let data = (ep.rank() == 1).then_some(&b"hello-eps"[..]);
                ep.bcast(th, 1, data).unwrap().to_vec()
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
            let eps = world.create_endpoints(&mut th0, 2).unwrap();
            let eps = &eps;
            env.parallel(|th| {
                let ep = &eps[th.tid()];
                let mine = [ep.rank() as u8 + 100];
                let all = ep.allgather(th, &mine).unwrap();
                all.iter().map(|b| b[0]).collect::<Vec<u8>>()
            })
        });
        for per_proc in out {
            for v in per_proc {
                assert_eq!(v, vec![100, 101, 102, 103]);
            }
        }
    }
}
