//! Point-to-point operations on communicators.
//!
//! The per-message paths borrow what they look up — the sender's and the
//! destination's VCI come out of the communicator's own `proc`/`universe`
//! handles as `&Vci` ([`ProcShared::vci_ref`](crate::ProcShared::vci_ref)),
//! which also leaves `&mut th.clock` free — and a send, complete once
//! injected, builds no shared request ([`Request::Done`]; a blocking `send`
//! builds none at all). What a message still writes outside its own
//! process is the destination mailbox and notifier, nothing else.
//!
//! A receive ([`irecv_on_vci`](Communicator::irecv_on_vci)) takes its
//! request state from the calling thread's spares ([`ReqState`]'s recycling),
//! so once warm it allocates nothing and writes no reference count of the
//! process notifier; the engine section that completes it rings that
//! notifier once for all its completions.

use std::sync::Arc;

use bytes::Bytes;
use rankmpi_fabric::Header;
use rankmpi_obs::trace as obs;

use crate::comm::{base_context, Communicator};
use crate::error::{Error, Result};
use crate::info::keys;
use crate::matching::{MatchPattern, Status, ANY_SOURCE, ANY_TAG};
use crate::proc::ThreadCtx;
use crate::request::{ReqState, Request};
use crate::tag::TAG_UB;
use crate::vci::{select_recv_vci, select_vcis, BatchSend, Route, VciPolicy, KIND_PT2PT};

/// One message of an [`isend_multi_on_vcis`] batch: explicit VCI indices and
/// matching context, as in [`isend_on_vcis`].
///
/// [`isend_multi_on_vcis`]: Communicator::isend_multi_on_vcis
/// [`isend_on_vcis`]: Communicator::isend_on_vcis
#[derive(Clone, Copy)]
pub struct SendSpec<'a> {
    /// Sender-side VCI index.
    pub src_vci: usize,
    /// Receiver-side VCI index.
    pub dst_vci: usize,
    /// Matching context id (collectives use a separate context).
    pub ctx_id: u32,
    /// Destination rank within the communicator.
    pub dst: usize,
    /// Message tag.
    pub tag: i64,
    /// Message payload.
    pub data: &'a [u8],
}

impl Communicator {
    fn check_rank(&self, rank: usize) -> Result<()> {
        if rank >= self.size() {
            return Err(Error::InvalidRank {
                rank: rank as i64,
                size: self.size(),
            });
        }
        Ok(())
    }

    fn check_tag(&self, tag: i64) -> Result<()> {
        if !(0..=TAG_UB).contains(&tag) {
            return Err(Error::TagOutOfRange { tag });
        }
        Ok(())
    }

    /// Sender-side and receiver-side VCI indices for a message to `dst`.
    fn send_vcis(&self, dst: usize, tag: i64) -> (usize, usize) {
        match self.policy() {
            VciPolicy::PerRank(vcis) => (vcis[self.rank()], vcis[dst]),
            by_tag => select_vcis(by_tag, self.vci_block(), self.context_id(), tag),
        }
    }

    /// Validate `(src, tag)` and locate the engine a receive or probe for it
    /// runs on.
    fn recv_vci(&self, src: i64, tag: i64) -> Result<(usize, MatchPattern)> {
        self.check_recv_args(src, tag)?;
        let pattern = MatchPattern {
            context_id: self.context_id(),
            src,
            tag,
        };
        let vci = match self.policy() {
            VciPolicy::PerRank(vcis) => vcis[self.rank()],
            by_tag => select_recv_vci(by_tag, self.vci_block(), self.context_id(), &pattern)
                .ok_or(Error::WildcardUnsupported {
                    reason: "VCI policy selects the matching engine by tag bits; a wildcard cannot locate it",
                })?,
        };
        Ok((vci, pattern))
    }

    /// Nonblocking send (eager protocol: the returned request is already
    /// locally complete, like a small-message `MPI_Isend`).
    pub fn isend(&self, th: &mut ThreadCtx, dst: usize, tag: i64, data: &[u8]) -> Result<Request> {
        self.send(th, dst, tag, data)?;
        Ok(self.sent(th, tag, data.len()))
    }

    /// Blocking send. Eager, so complete once injected: no request is built.
    pub fn send(&self, th: &mut ThreadCtx, dst: usize, tag: i64, data: &[u8]) -> Result<()> {
        self.check_rank(dst)?;
        self.check_tag(tag)?;
        let (src_vci, dst_vci) = self.send_vcis(dst, tag);
        self.inject(
            th,
            &SendSpec {
                src_vci,
                dst_vci,
                ctx_id: self.context_id(),
                dst,
                tag,
                data,
            },
        )
    }

    /// The per-message half of every send: refuse what fault tolerance
    /// forbids, charge the eager copy out of the user buffer, stamp the
    /// header and copy the payload into the source VCI's pool.
    fn stage_send(&self, th: &mut ThreadCtx, s: &SendSpec<'_>) -> Result<BatchSend<'_>> {
        debug_assert!(
            Arc::ptr_eq(self.proc(), th.proc()),
            "a communicator is used by threads of its own process"
        );
        let dst_global = self.global_rank(s.dst);
        // FT fast paths: sends complete locally under the eager protocol, so
        // a revoked communicator or an already-detected dead destination must
        // be refused *here* — a completed send to a corpse is a silent lie.
        let base_ctx = base_context(s.ctx_id);
        let ft = self.proc().ft();
        if ft.is_revoked(base_ctx) {
            return self.handle_error(Error::Revoked {
                context_id: base_ctx,
            });
        }
        if let Some(at) = ft.liveness().detect_at(dst_global) {
            if th.clock.now() >= at {
                ft.liveness().note_detection();
                return self.handle_error(Error::ProcessFailed {
                    rank: dst_global as u32,
                });
            }
        }
        th.clock
            .advance(self.proc().costs().copy_cost(s.data.len()));
        let dst_proc = self.universe().proc(dst_global);
        let (svci, dst) = (self.proc().vci_ref(s.src_vci), dst_proc.vci_ref(s.dst_vci));
        Ok(BatchSend {
            dst_mail: dst.mailbox(),
            route: Route {
                src: svci,
                dst,
                intra_node: dst_proc.node() == self.proc().node(),
            },
            header: Header {
                kind: KIND_PT2PT,
                context_id: s.ctx_id,
                src: self.rank() as u32,
                dst: s.dst as u32,
                tag: s.tag,
                seq: self.proc().next_seq(),
                aux: 0,
                aux2: 0,
            },
            payload: svci.payload_pool().alloc(s.data),
        })
    }

    /// Stage and inject one checked message.
    fn inject(&self, th: &mut ThreadCtx, spec: &SendSpec<'_>) -> Result<()> {
        let _mpi = th.enter_mpi();
        th.proc().maybe_crash(&th.clock, true);
        let entered_at = th.clock.now();
        let m = self.stage_send(th, spec)?;
        let r = m.route;
        r.src
            .send_packet(&mut th.clock, r.dst, r.intra_node, m.header, m.payload);
        obs::busy("pt2pt", "send", entered_at, th.clock.now(), r.src.res_id());
        Ok(())
    }

    /// The locally complete request of an eager send injected just now.
    fn sent(&self, th: &ThreadCtx, tag: i64, len: usize) -> Request {
        Request::Done {
            finish_at: th.clock.now(),
            status: Status {
                source: self.rank(),
                tag,
                len,
            },
        }
    }

    /// Nonblocking send with explicit sender-side and receiver-side VCI
    /// indices — the mechanism layer the endpoints design drives directly.
    /// `ctx_id` allows internal traffic (collectives) to use a separate
    /// matching context.
    #[allow(clippy::too_many_arguments)]
    pub fn isend_on_vcis(
        &self,
        th: &mut ThreadCtx,
        src_vci: usize,
        dst_vci: usize,
        ctx_id: u32,
        dst: usize,
        tag: i64,
        data: &[u8],
    ) -> Result<Request> {
        self.check_rank(dst)?;
        self.inject(
            th,
            &SendSpec {
                src_vci,
                dst_vci,
                ctx_id,
                dst,
                tag,
                data,
            },
        )?;
        Ok(self.sent(th, tag, data.len()))
    }

    /// Nonblocking multi-send: inject every message of `msgs` (`(dst, tag,
    /// data)` triples) as one batched operation.
    ///
    /// Messages sharing a sender-side VCI are written under a single
    /// context-gate acquisition with one amortized doorbell ring (see
    /// [`Vci::send_batch`](crate::vci::Vci)) — the fan-out pattern of a halo
    /// exchange, a stream lane flush, or a collective root. Per-channel
    /// ordering is identical to issuing the same [`isend`]s back to back,
    /// and every returned request is locally complete (eager protocol).
    ///
    /// [`isend`]: Communicator::isend
    pub fn isend_multi(
        &self,
        th: &mut ThreadCtx,
        msgs: &[(usize, i64, &[u8])],
    ) -> Result<Vec<Request>> {
        for &(dst, tag, _) in msgs {
            self.check_rank(dst)?;
            self.check_tag(tag)?;
        }
        self.inject_multi(
            th,
            msgs.iter().map(|&(dst, tag, data)| {
                let (src_vci, dst_vci) = self.send_vcis(dst, tag);
                SendSpec {
                    src_vci,
                    dst_vci,
                    ctx_id: self.context_id(),
                    dst,
                    tag,
                    data,
                }
            }),
        )
    }

    /// [`isend_multi`](Communicator::isend_multi) with explicit per-message
    /// VCI indices and matching contexts — the entry collectives and stream
    /// transports drive directly. A refused message refuses the whole batch.
    pub fn isend_multi_on_vcis(
        &self,
        th: &mut ThreadCtx,
        specs: &[SendSpec<'_>],
    ) -> Result<Vec<Request>> {
        for s in specs {
            self.check_rank(s.dst)?;
        }
        self.inject_multi(th, specs.iter().copied())
    }

    /// Stage and inject checked messages as one batch per source VCI; a
    /// request per message. Allocates the staging buffer and the requests.
    fn inject_multi<'d>(
        &self,
        th: &mut ThreadCtx,
        specs: impl ExactSizeIterator<Item = SendSpec<'d>> + Clone,
    ) -> Result<Vec<Request>> {
        if specs.len() == 0 {
            return Ok(Vec::new());
        }
        let _mpi = th.enter_mpi();
        th.proc().maybe_crash(&th.clock, true);
        let entered_at = th.clock.now();
        // Stage in message order: sequence numbers must be issued in
        // per-channel push order, and the grouping below never reorders
        // same-channel messages (one channel implies one source VCI).
        let mut staged = Vec::with_capacity(specs.len());
        for s in specs.clone() {
            staged.push(self.stage_send(th, &s)?);
        }
        // One injection batch per distinct source VCI, in first-appearance
        // order; message order within each batch is message order. Gathering
        // a batch rotates each of its messages to the end of the batch so
        // far, which keeps the unsent rest in message order too.
        let mut sent = 0;
        while sent < staged.len() {
            let svci = staged[sent].route.src;
            let mut end = sent + 1;
            for i in sent + 1..staged.len() {
                if std::ptr::eq(staged[i].route.src, svci) {
                    staged[end..=i].rotate_right(1);
                    end += 1;
                }
            }
            svci.send_batch(&mut th.clock, &mut staged[sent..end]);
            sent = end;
        }
        let last_res = staged[sent - 1].route.src.res_id();
        obs::busy("pt2pt", "send_multi", entered_at, th.clock.now(), last_res);
        Ok(specs.map(|s| self.sent(th, s.tag, s.data.len())).collect())
    }

    /// Nonblocking receive. `src` may be [`ANY_SOURCE`], `tag` may be
    /// [`ANY_TAG`] — subject to the communicator's assertions and VCI policy.
    pub fn irecv(&self, th: &mut ThreadCtx, src: i64, tag: i64) -> Result<Request> {
        let (vci_idx, pattern) = self.recv_vci(src, tag)?;
        self.irecv_on_vci(th, vci_idx, pattern)
    }

    /// Blocking receive; returns the matched status and payload.
    ///
    /// If the matching message was lost on the fabric (reliability layer
    /// gave up), the communicator's [`Errhandler`](crate::Errhandler)
    /// decides: the default aborts; `ErrorsReturn` surfaces the
    /// `RetriesExhausted`/`LinkDown` error here.
    pub fn recv(&self, th: &mut ThreadCtx, src: i64, tag: i64) -> Result<(Status, Bytes)> {
        let req = self.irecv(th, src, tag)?;
        match req.wait_outcome(&mut th.clock) {
            Ok(out) => Ok(out),
            Err(e) => self.handle_error(e),
        }
    }

    /// Blocking receive with a bound on *real* waiting time. Returns
    /// `Err(Timeout)` if nothing matched within `timeout` (always returned,
    /// regardless of the error handler — a timeout is the caller's own
    /// bound, not a fabric failure); fabric-loss errors go through the
    /// communicator's [`Errhandler`](crate::Errhandler) like [`recv`].
    ///
    /// [`recv`]: Communicator::recv
    pub fn recv_timeout(
        &self,
        th: &mut ThreadCtx,
        src: i64,
        tag: i64,
        timeout: std::time::Duration,
    ) -> Result<(Status, Bytes)> {
        let req = self.irecv(th, src, tag)?;
        match req.wait_timeout(&mut th.clock, timeout) {
            Ok(out) => Ok(out),
            Err(e @ Error::Timeout { .. }) => Err(e),
            Err(e) => self.handle_error(e),
        }
    }

    /// Nonblocking receive posted to an explicit VCI (endpoints/internal).
    pub fn irecv_on_vci(
        &self,
        th: &mut ThreadCtx,
        vci_idx: usize,
        pattern: MatchPattern,
    ) -> Result<Request> {
        let _mpi = th.enter_mpi();
        th.proc().maybe_crash(&th.clock, false);
        // A receive posted on a revoked communicator can never be satisfied;
        // fail it up front rather than letting the VCI sweep find it later.
        let base_ctx = base_context(pattern.context_id);
        if th.proc().ft().is_revoked(base_ctx) {
            return self.handle_error(Error::Revoked {
                context_id: base_ctx,
            });
        }
        let entered_at = th.clock.now();
        th.clock.advance(self.proc().costs().request_setup);
        let vci = self.proc().vci_ref(vci_idx);
        let req = ReqState::recycled(self.proc().notify());
        vci.post_recv_ref(&mut th.clock, pattern, &req);
        obs::busy("pt2pt", "recv", entered_at, th.clock.now(), vci.res_id());
        Ok(if req.is_complete() {
            Request::ready(req)
        } else {
            Request::pending(req, Arc::clone(vci))
        })
    }

    /// Nonblocking probe: is a matching message queued? Does not receive it.
    pub fn iprobe(&self, th: &mut ThreadCtx, src: i64, tag: i64) -> Result<Option<Status>> {
        let (vci_idx, pattern) = self.recv_vci(src, tag)?;
        let _mpi = th.enter_mpi();
        let vci = self.proc().vci_ref(vci_idx);
        Ok(vci.iprobe(&mut th.clock, &pattern))
    }

    /// Probe-and-receive: returns the message if one is already available.
    pub fn try_recv(
        &self,
        th: &mut ThreadCtx,
        src: i64,
        tag: i64,
    ) -> Result<Option<(Status, Bytes)>> {
        match self.iprobe(th, src, tag)? {
            // Receive exactly the probed message (same concrete envelope) so
            // concurrent consumers cannot steal it out from under us within
            // this communicator's serial polling pattern.
            Some(st) => {
                let (status, data) = self.recv(th, st.source as i64, st.tag)?;
                Ok(Some((status, data)))
            }
            None => Ok(None),
        }
    }

    /// `MPI_Improbe`-style matched probe: atomically *removes* a matching
    /// unexpected message from the engine so no other thread can steal it
    /// (the race `iprobe` + `recv` cannot close under wildcards), returning
    /// its status and payload. `None` if nothing matches yet.
    pub fn improbe(
        &self,
        th: &mut ThreadCtx,
        src: i64,
        tag: i64,
    ) -> Result<Option<(Status, Bytes)>> {
        let (vci_idx, pattern) = self.recv_vci(src, tag)?;
        let _mpi = th.enter_mpi();
        let vci = self.proc().vci_ref(vci_idx);
        Ok(vci.mprobe(&mut th.clock, &pattern))
    }

    /// `MPI_Sendrecv`: post the receive, send, then complete the receive —
    /// deadlock-free pairwise exchange.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &self,
        th: &mut ThreadCtx,
        dst: usize,
        send_tag: i64,
        data: &[u8],
        src: i64,
        recv_tag: i64,
    ) -> Result<(Status, Bytes)> {
        let recv = self.irecv(th, src, recv_tag)?;
        let send = self.isend(th, dst, send_tag, data)?;
        let out = match recv.wait_outcome(&mut th.clock) {
            Ok(out) => Ok(out),
            Err(e) => self.handle_error(e),
        };
        send.wait(&mut th.clock);
        out
    }

    fn check_recv_args(&self, src: i64, tag: i64) -> Result<()> {
        if src != ANY_SOURCE {
            self.check_rank(src as usize)?;
        } else if self
            .info()
            .get_bool(keys::ASSERT_NO_ANY_SOURCE)
            .unwrap_or(false)
        {
            return Err(Error::WildcardUnsupported {
                reason: "communicator asserted mpi_assert_no_any_source",
            });
        }
        if tag != ANY_TAG {
            self.check_tag(tag)?;
        } else if self
            .info()
            .get_bool(keys::ASSERT_NO_ANY_TAG)
            .unwrap_or(false)
        {
            return Err(Error::WildcardUnsupported {
                reason: "communicator asserted mpi_assert_no_any_tag",
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::info::Info;
    use crate::universe::Universe;

    #[test]
    fn blocking_roundtrip_across_nodes() {
        let u = Universe::builder().nodes(2).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                world.send(&mut th, 1, 42, b"ping").unwrap();
                let (st, data) = world.recv(&mut th, 1, 43).unwrap();
                assert_eq!(st.source, 1);
                (st.tag, data.len())
            } else {
                let (st, data) = world.recv(&mut th, 0, 42).unwrap();
                assert_eq!(&data[..], b"ping");
                world.send(&mut th, 0, 43, b"pong!").unwrap();
                (st.tag, data.len())
            }
        });
        assert_eq!(out, vec![(43, 5), (42, 4)]);
    }

    #[test]
    fn any_source_any_tag_receive() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                world.send(&mut th, 1, 7, b"x").unwrap();
            } else {
                let (st, _) = world.recv(&mut th, ANY_SOURCE, ANY_TAG).unwrap();
                assert_eq!(st.source, 0);
                assert_eq!(st.tag, 7);
            }
        });
    }

    #[test]
    fn non_overtaking_same_envelope_pair() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                for i in 0..20u8 {
                    world.send(&mut th, 1, 5, &[i]).unwrap();
                }
            } else {
                for i in 0..20u8 {
                    let (_, data) = world.recv(&mut th, 0, 5).unwrap();
                    assert_eq!(data[0], i, "messages must arrive in order");
                }
            }
        });
    }

    #[test]
    fn tags_demultiplex_within_a_channel() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                world.send(&mut th, 1, 1, b"one").unwrap();
                world.send(&mut th, 1, 2, b"two").unwrap();
            } else {
                // Receive in reverse tag order: matching is by tag, not FIFO.
                let (_, two) = world.recv(&mut th, 0, 2).unwrap();
                let (_, one) = world.recv(&mut th, 0, 1).unwrap();
                assert_eq!(&two[..], b"two");
                assert_eq!(&one[..], b"one");
            }
        });
    }

    #[test]
    fn invalid_rank_and_tag_are_rejected() {
        let u = Universe::builder().nodes(1).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            assert!(matches!(
                world.send(&mut th, 5, 0, b""),
                Err(Error::InvalidRank { .. })
            ));
            assert!(matches!(
                world.send(&mut th, 0, -3, b""),
                Err(Error::TagOutOfRange { .. })
            ));
            assert!(matches!(
                world.send(&mut th, 0, TAG_UB + 1, b""),
                Err(Error::TagOutOfRange { .. })
            ));
        });
    }

    #[test]
    fn asserted_communicator_rejects_wildcards() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let info = Info::new()
                .set(keys::ASSERT_NO_ANY_TAG, "true")
                .set(keys::ASSERT_NO_ANY_SOURCE, "true");
            let c = world.dup_with_info(&mut th, info).unwrap();
            assert!(matches!(
                c.irecv(&mut th, ANY_SOURCE, 0),
                Err(Error::WildcardUnsupported { .. })
            ));
            assert!(matches!(
                c.irecv(&mut th, 0, ANY_TAG),
                Err(Error::WildcardUnsupported { .. })
            ));
        });
    }

    #[test]
    fn per_rank_policy_maps_ranks_to_their_own_vcis() {
        // Four ranks, two per process (an endpoints communicator): rank r
        // owns pool index vcis[r] on its process.
        let u = Universe::builder().nodes(2).num_vcis(4).build();
        u.run(|env| {
            let world = env.world();
            let vcis = Arc::new(vec![1, 3, 2, 0]);
            let me = 2 * env.rank() + 1;
            let c = Communicator::from_parts(
                world.universe().clone(),
                world.proc().clone(),
                77,
                crate::group::Group::from_owners(vec![0, 0, 1, 1]),
                me,
                VciPolicy::PerRank(Arc::clone(&vcis)),
                Arc::new(vec![vcis[me]]),
                Info::new(),
            );
            for dst in 0..4 {
                assert_eq!(c.send_vcis(dst, 9), (vcis[me], vcis[dst]));
            }
            // A wildcard receive is always locatable: the caller's own VCI.
            let (vci, pattern) = c.recv_vci(ANY_SOURCE, ANY_TAG).unwrap();
            assert_eq!(vci, vcis[me]);
            assert_eq!((pattern.src, pattern.tag), (ANY_SOURCE, ANY_TAG));
        });
    }

    #[test]
    fn iprobe_then_recv() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                world.send(&mut th, 1, 9, b"probe-me").unwrap();
            } else {
                // Poll until the message shows up.
                let st = loop {
                    if let Some(st) = world.iprobe(&mut th, ANY_SOURCE, ANY_TAG).unwrap() {
                        break st;
                    }
                    std::thread::yield_now();
                };
                assert_eq!(st.len, 8);
                let got = world.try_recv(&mut th, st.source as i64, st.tag).unwrap();
                assert_eq!(&got.unwrap().1[..], b"probe-me");
            }
        });
    }

    #[test]
    fn isend_irecv_overlap() {
        let u = Universe::builder().nodes(2).threads_per_proc(1).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let r1 = world.irecv(&mut th, 1, 1).unwrap();
                let s1 = world.isend(&mut th, 1, 2, b"from0").unwrap();
                let (st, data) = r1.wait(&mut th.clock);
                s1.wait(&mut th.clock);
                assert_eq!(st.source, 1);
                assert_eq!(&data[..], b"from1");
            } else {
                let r1 = world.irecv(&mut th, 0, 2).unwrap();
                let s1 = world.isend(&mut th, 0, 1, b"from1").unwrap();
                let (_, data) = r1.wait(&mut th.clock);
                s1.wait(&mut th.clock);
                assert_eq!(&data[..], b"from0");
            }
        });
    }

    #[test]
    fn multithreaded_send_recv_on_world() {
        // THREAD_MULTIPLE: every thread sends/receives on one communicator.
        let u = Universe::builder().nodes(2).threads_per_proc(4).build();
        let sums = u.run(|env| {
            let world = env.world();
            let out = env.parallel(|th| {
                let tid = th.tid();
                if env.rank() == 0 {
                    world.send(th, 1, tid as i64, &[tid as u8; 4]).unwrap();
                    0u64
                } else {
                    let (st, data) = world.recv(th, 0, tid as i64).unwrap();
                    assert_eq!(data.len(), 4);
                    assert_eq!(data[0] as usize, tid);
                    st.len as u64
                }
            });
            out.iter().sum::<u64>()
        });
        assert_eq!(sums, vec![0, 16]);
    }

    #[test]
    fn sendrecv_exchanges_without_deadlock() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let peer = 1 - env.rank();
            let mine = [env.rank() as u8; 16];
            let (st, data) = world
                .sendrecv(&mut th, peer, 5, &mine, peer as i64, 5)
                .unwrap();
            assert_eq!(st.source, peer);
            assert_eq!(data[0] as usize, peer);
        });
    }

    #[test]
    fn improbe_consumes_atomically() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                world.send(&mut th, 1, 1, b"first").unwrap();
                world.send(&mut th, 1, 2, b"second").unwrap();
            } else {
                // Nothing matching tag 9.
                loop {
                    if let Some((st, data)) = world.improbe(&mut th, ANY_SOURCE, ANY_TAG).unwrap() {
                        assert_eq!(st.tag, 1);
                        assert_eq!(&data[..], b"first");
                        break;
                    }
                    std::thread::yield_now();
                }
                assert!(world.improbe(&mut th, 0, 9).unwrap().is_none());
                // The second message is still receivable normally.
                let (st, data) = world.recv(&mut th, 0, 2).unwrap();
                assert_eq!(st.len, 6);
                assert_eq!(&data[..], b"second");
            }
        });
    }

    #[test]
    fn improbe_leaves_posted_queue_clean_on_miss() {
        // A miss must not leave a phantom posted receive that would steal a
        // later message.
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 1 {
                // The sender is blocked on our go-signal, so this improbe is
                // a guaranteed miss — no timing assumption.
                assert!(world.improbe(&mut th, 0, 7).unwrap().is_none());
                world.send(&mut th, 0, 1, b"go").unwrap();
                let (st, data) = world.recv(&mut th, 0, 7).unwrap();
                assert_eq!(st.tag, 7);
                assert_eq!(&data[..], b"x");
            } else {
                world.recv(&mut th, 1, 1).unwrap();
                world.send(&mut th, 1, 7, b"x").unwrap();
            }
        });
    }

    #[test]
    fn failed_improbes_leave_nothing_behind() {
        // A miss is a probe: no retracted receive stays queued for a later
        // arrival to skip (and pay for) in virtual time.
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 1 {
                let vci = world.proc().vci(world.vci_block()[0]);
                // The sender waits for our go-signal: every improbe misses.
                for _ in 0..1_000 {
                    assert!(world
                        .improbe(&mut th, ANY_SOURCE, ANY_TAG)
                        .unwrap()
                        .is_none());
                }
                assert_eq!(vci.posted_depth(), 0);
                let skipped = vci.match_wildcard_scanned();
                world.send(&mut th, 0, 1, b"go").unwrap();
                let (st, _) = world.recv(&mut th, 0, 7).unwrap();
                assert_eq!(st.tag, 7);
                assert!(vci.match_wildcard_scanned() - skipped <= 1);
            } else {
                world.recv(&mut th, 1, 1).unwrap();
                world.send(&mut th, 1, 7, b"x").unwrap();
            }
        });
    }

    #[test]
    fn virtual_time_advances_across_a_roundtrip() {
        let u = Universe::builder().nodes(2).build();
        let times = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                world.send(&mut th, 1, 0, b"x").unwrap();
                world.recv(&mut th, 1, 1).unwrap();
            } else {
                world.recv(&mut th, 0, 0).unwrap();
                world.send(&mut th, 0, 1, b"y").unwrap();
            }
            th.clock.now()
        });
        // Rank 0 saw a full round trip: at least two wire latencies.
        assert!(times[0].as_ns() >= 2_000);
        // The receiver's completion embeds one wire latency.
        assert!(times[1].as_ns() >= 1_000);
    }
}
