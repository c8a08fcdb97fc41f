//! Communicators: context ids, groups, duplication, splitting, and the
//! Info-hint-driven VCI policies of MPI 4.0.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use crate::error::{Errhandler, Error, Result};
use crate::group::Group;
use crate::info::{keys, Info};
use crate::proc::{ProcShared, ThreadCtx};
use crate::tag::{TagLayout, TagPlacement, TAG_BITS};
use crate::universe::UniverseShared;
use crate::vci::VciPolicy;

/// High bit of the context id marks library-internal collective traffic so it
/// can never match user point-to-point operations on the same communicator.
pub const COLL_CTX_BIT: u32 = 0x8000_0000;

/// Key-space bit of [`Communicator::create_endpoints`]'s creation-op index
/// and rendezvous keys (the same bit as `shrink`'s, whose counter it shares).
const ENDPOINTS_NS: u32 = 0x2000_0000;

/// An MPI communicator.
///
/// Cheap to clone (all fields are shared handles); safe to use from many
/// threads concurrently, with MPI's rules enforced: point-to-point operations
/// are fully thread-safe, collectives must be issued serially per
/// communicator (violations return [`Error::ConcurrentCollective`]).
#[derive(Clone)]
pub struct Communicator {
    universe: Arc<UniverseShared>,
    proc: Arc<ProcShared>,
    ctx_id: u32,
    group: Group,
    my_rank: usize,
    policy: VciPolicy,
    block: Arc<Vec<usize>>,
    info: Info,
    /// Serial-issuance detector for collectives (per process).
    coll_active: Arc<AtomicBool>,
    /// Collective sequence number (isolates successive collectives' traffic).
    coll_seq: Arc<AtomicU64>,
    /// Error handler ([`Errhandler::as_u8`] encoding) shared by all clones of
    /// this communicator on this process — matching `MPI_Comm_set_errhandler`
    /// scope. Children get a fresh handle inheriting the current value.
    errhandler: Arc<AtomicU8>,
}

impl Communicator {
    /// The world communicator: context id 0, all processes, VCI 0.
    pub fn world(universe: Arc<UniverseShared>, proc: Arc<ProcShared>) -> Self {
        let n = universe.n_procs();
        let my_rank = proc.rank();
        proc.ft().register_group(0, &Group::world(n));
        Communicator {
            universe,
            proc,
            ctx_id: 0,
            group: Group::world(n),
            my_rank,
            policy: VciPolicy::Single,
            block: Arc::new(vec![0]),
            info: Info::new(),
            coll_active: Arc::new(AtomicBool::new(false)),
            coll_seq: Arc::new(AtomicU64::new(0)),
            errhandler: Arc::new(AtomicU8::new(Errhandler::default().as_u8())),
        }
    }

    /// Construct a communicator from parts.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        universe: Arc<UniverseShared>,
        proc: Arc<ProcShared>,
        ctx_id: u32,
        group: Group,
        my_rank: usize,
        policy: VciPolicy,
        block: Arc<Vec<usize>>,
        info: Info,
    ) -> Self {
        proc.ft().register_group(ctx_id, &group);
        Communicator {
            universe,
            proc,
            ctx_id,
            group,
            my_rank,
            policy,
            block,
            info,
            coll_active: Arc::new(AtomicBool::new(false)),
            coll_seq: Arc::new(AtomicU64::new(0)),
            errhandler: Arc::new(AtomicU8::new(Errhandler::default().as_u8())),
        }
    }

    /// This process's rank within the communicator.
    pub fn rank(&self) -> usize {
        self.my_rank
    }

    /// Number of processes in the communicator.
    pub fn size(&self) -> usize {
        self.group.size()
    }

    /// The communicator's group.
    pub fn group(&self) -> &Group {
        &self.group
    }

    /// The communicator's context id.
    pub fn context_id(&self) -> u32 {
        self.ctx_id
    }

    /// The Info hints this communicator was created with.
    pub fn info(&self) -> &Info {
        &self.info
    }

    /// The VCI policy in effect.
    pub fn policy(&self) -> &VciPolicy {
        &self.policy
    }

    /// The VCI block (pool indices) assigned to this communicator.
    pub fn vci_block(&self) -> &Arc<Vec<usize>> {
        &self.block
    }

    /// The owning process.
    pub fn proc(&self) -> &Arc<ProcShared> {
        &self.proc
    }

    /// The universe.
    pub fn universe(&self) -> &Arc<UniverseShared> {
        &self.universe
    }

    /// Translate a communicator-local rank to a world rank.
    pub fn global_rank(&self, local: usize) -> usize {
        self.group.global(local)
    }

    /// Attach an error handler (`MPI_Comm_set_errhandler`). Affects every
    /// clone of this communicator on this process; communicators created
    /// later via `dup`/`split` inherit the value current at creation.
    pub fn set_errhandler(&self, h: Errhandler) {
        self.errhandler.store(h.as_u8(), Ordering::Relaxed);
    }

    /// The error handler currently in effect.
    pub fn errhandler(&self) -> Errhandler {
        Errhandler::from_u8(self.errhandler.load(Ordering::Relaxed))
    }

    /// Dispatch a fabric-level error through the communicator's handler:
    /// `ErrorsReturn` hands it to the caller, the (default) fatal handler
    /// aborts with a diagnostic — MPI's `MPI_ERRORS_ARE_FATAL`.
    pub(crate) fn handle_error<T>(&self, err: Error) -> Result<T> {
        match self.errhandler() {
            Errhandler::ErrorsReturn => Err(err),
            Errhandler::ErrorsAreFatal => panic!(
                "fatal MPI error on communicator {} (rank {}): {err}",
                self.ctx_id, self.my_rank
            ),
        }
    }

    /// Duplicate the communicator (collective). The child inherits this
    /// communicator's Info.
    pub fn dup(&self, th: &mut ThreadCtx) -> Result<Communicator> {
        self.dup_with_info(th, self.info.clone())
    }

    /// Duplicate with new Info hints (collective) — the MPI 4.0 mechanism of
    /// Listing 2: assertions relax matching semantics and implementation
    /// hints shape the VCI mapping.
    pub fn dup_with_info(&self, th: &mut ThreadCtx, info: Info) -> Result<Communicator> {
        let (policy, want_vcis) = policy_from_info(&info)?;
        let idx = self.creation_index(0)?;
        let (ctx_id, block) = self.universe.agree_comm((self.ctx_id, idx, 0), want_vcis);
        // `rankmpi_resil_*` hints reconfigure the reliability protocol on
        // every VCI of the block. On a loss-free fabric there is no resil
        // layer and the hints are inert (hints, not directives) — but the
        // values are still validated.
        for &v in block.iter() {
            match self.proc.vci(v).mailbox().resil() {
                Some(r) => {
                    if let Some(cfg) = info.resil_config(r.config())? {
                        r.set_config(cfg);
                    }
                }
                None => {
                    info.resil_config(Default::default())?;
                }
            }
        }
        self.proc.ft().register_group(ctx_id, &self.group);
        let child = Communicator {
            universe: Arc::clone(&self.universe),
            proc: Arc::clone(&self.proc),
            ctx_id,
            group: self.group.clone(),
            my_rank: self.my_rank,
            policy,
            block,
            info,
            coll_active: Arc::new(AtomicBool::new(false)),
            coll_seq: Arc::new(AtomicU64::new(0)),
            // MPI semantics: a new communicator starts with the parent's
            // current handler, but set_errhandler on one never affects the
            // other — hence the fresh Arc seeded with the inherited value.
            errhandler: Arc::new(AtomicU8::new(self.errhandler.load(Ordering::Relaxed))),
        };
        // Communicator creation is collective and synchronizing.
        self.barrier(th)?;
        Ok(child)
    }

    /// Split the communicator by `color` (collective). Processes passing the
    /// same color land in the same child, ordered by `(key, parent rank)`.
    /// A negative color (like `MPI_UNDEFINED`) yields `None`.
    pub fn split(&self, th: &mut ThreadCtx, color: i64, key: i64) -> Result<Option<Communicator>> {
        let idx = self.creation_index(0)?;
        let all =
            self.universe
                .gather_split((self.ctx_id, idx), self.my_rank, self.size(), color, key);
        self.barrier(th)?;
        if color < 0 {
            return Ok(None);
        }
        let mut members: Vec<(i64, usize)> = all
            .iter()
            .enumerate()
            .filter(|(_, (c, _))| *c == color)
            .map(|(r, (_, k))| (*k, r))
            .collect();
        members.sort_unstable();
        let ranks: Vec<usize> = members.iter().map(|&(_, r)| self.group.global(r)).collect();
        let my_new = members
            .iter()
            .position(|&(_, r)| r == self.my_rank)
            .expect("caller must be a member of its own color");
        let (ctx_id, block) = self.universe.agree_comm((self.ctx_id, idx, color), 1);
        let group = Group::from_ranks(ranks);
        self.proc.ft().register_group(ctx_id, &group);
        Ok(Some(Communicator {
            universe: Arc::clone(&self.universe),
            proc: Arc::clone(&self.proc),
            ctx_id,
            group,
            my_rank: my_new,
            policy: VciPolicy::Single,
            block,
            info: Info::new(),
            coll_active: Arc::new(AtomicBool::new(false)),
            coll_seq: Arc::new(AtomicU64::new(0)),
            errhandler: Arc::new(AtomicU8::new(self.errhandler.load(Ordering::Relaxed))),
        }))
    }

    /// `MPI_Comm_create_endpoints` (the paper's Fig. 2), collective over this
    /// communicator: every process passes its own `my_num_ep` and receives
    /// that many communicators, one per endpoint. An endpoint *is* a rank:
    /// all of them share one new context, and ranks are laid out in owner
    /// order (this communicator's rank 0's endpoints first), so
    /// [`endpoint_rank`](Self::endpoint_rank) addresses any of them.
    ///
    /// Under [`VciPolicy::PerRank`] each endpoint rank owns a dedicated VCI
    /// drawn from the node's bounded hardware-context pool, so creating more
    /// endpoints than the NIC has contexts degrades into sharing (Lessons 12
    /// and 17). Point-to-point, collectives and fault handling are the
    /// ordinary communicator's; collectives are one-step over all endpoints
    /// (Lesson 18), and every endpoint holds its own copy of a replicated
    /// result (Lesson 19). Creation calls (`dup_with_info`, `split`, `agree`,
    /// `shrink`, `Window::create`, `create_endpoints`) on the returned
    /// communicators fail with `InvalidState`.
    pub fn create_endpoints(
        &self,
        th: &mut ThreadCtx,
        my_num_ep: usize,
    ) -> Result<Vec<Communicator>> {
        if my_num_ep == 0 {
            return Err(Error::InvalidState("my_num_ep must be at least 1"));
        }
        let idx = self.creation_index(ENDPOINTS_NS)?;
        let board = self.ctx_id | ENDPOINTS_NS;
        // The collective agreement on endpoint counts, on the split board.
        let counts = self.universe.gather_split(
            (board, idx),
            self.my_rank,
            self.size(),
            my_num_ep as i64,
            0,
        );
        // The context id (the standard VCI block goes unused: endpoints own
        // dedicated VCIs outside the pool).
        let (ctx_id, _block) = self
            .universe
            .agree_comm((self.ctx_id, idx | (1 << 62), 0), 1);
        // My endpoints' VCIs get consecutive indices because `add_vci`
        // appends and one thread per process creates; a second rendezvous
        // publishes each process's first one.
        let my_vcis: Vec<usize> = (0..my_num_ep).map(|_| self.proc.add_vci()).collect();
        debug_assert!(my_vcis.windows(2).all(|w| w[1] == w[0] + 1));
        let starts = self.universe.gather_split(
            (board, idx | (1 << 61)),
            self.my_rank,
            self.size(),
            my_vcis[0] as i64,
            0,
        );
        let mut owners = Vec::new();
        let mut vcis = Vec::new();
        for (r, (&(count, _), &(start, _))) in counts.iter().zip(&starts).enumerate() {
            owners.extend(std::iter::repeat_n(self.group.global(r), count as usize));
            vcis.extend(start as usize..(start + count) as usize);
        }
        let first: usize = counts[..self.my_rank]
            .iter()
            .map(|&(c, _)| c as usize)
            .sum();

        // Creation is collective and synchronizing.
        self.barrier(th)?;

        let group = Group::from_owners(owners);
        let vcis = Arc::new(vcis);
        Ok(my_vcis
            .into_iter()
            .enumerate()
            .map(|(i, vci)| {
                let ep = Communicator::from_parts(
                    Arc::clone(&self.universe),
                    Arc::clone(&self.proc),
                    ctx_id,
                    group.clone(),
                    first + i,
                    VciPolicy::PerRank(Arc::clone(&vcis)),
                    Arc::new(vec![vci]),
                    Info::new(),
                );
                ep.set_errhandler(self.errhandler());
                ep
            })
            .collect())
    }

    /// The rank of the `i`-th endpoint of world process `owner` on an
    /// endpoints communicator (ranks are laid out in owner order). On any
    /// other communicator, with `i == 0`, `owner`'s rank. Panics if `owner`
    /// holds no rank here.
    pub fn endpoint_rank(&self, owner: usize, i: usize) -> usize {
        let first = self
            .group
            .local(owner)
            .expect("owner process holds no rank of this communicator");
        debug_assert_eq!(self.group.global(first + i), owner);
        first + i
    }

    /// Draw this process's next creation-op index in key space `ns`: the
    /// per-process count that keys a collective creation's agreement. Every
    /// creation call (`dup_with_info`, `split`, `agree`, `shrink`,
    /// `Window::create`, `create_endpoints`) assumes one caller per process,
    /// which the endpoint ranks of one process are not, so on a
    /// [`VciPolicy::PerRank`] communicator they all fail here, before any
    /// rendezvous. `revoke` stays callable: it is idempotent per process.
    pub(crate) fn creation_index(&self, ns: u32) -> Result<u64> {
        if matches!(self.policy, VciPolicy::PerRank(_)) {
            return Err(Error::InvalidState(
                "creation calls need one caller per process; an endpoints communicator has several",
            ));
        }
        Ok(self.proc.next_dup_index(self.ctx_id | ns))
    }

    /// Enter a collective: enforce MPI's serial-issuance rule.
    pub(crate) fn coll_enter(&self) -> Result<CollGuard<'_>> {
        if self
            .coll_active
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(Error::ConcurrentCollective {
                context_id: self.ctx_id,
            });
        }
        let seq = self.coll_seq.fetch_add(1, Ordering::Relaxed);
        Ok(CollGuard { comm: self, seq })
    }
}

/// RAII guard of one collective episode on a communicator.
pub(crate) struct CollGuard<'a> {
    comm: &'a Communicator,
    /// The collective's sequence number (embedded in its internal tags).
    pub seq: u64,
}

impl Drop for CollGuard<'_> {
    fn drop(&mut self) {
        self.comm.coll_active.store(false, Ordering::Release);
    }
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("ctx_id", &self.ctx_id)
            .field("rank", &self.my_rank)
            .field("size", &self.size())
            .field("policy", &self.policy)
            .field("block", &*self.block)
            .finish()
    }
}

/// Derive the VCI policy from Info hints, enforcing the assertion
/// prerequisites the paper's Listing 2 sets:
///
/// - no hints → [`VciPolicy::Single`] (default communicator-granularity
///   mapping);
/// - `mpich_num_vcis > 1` *with* `allow_overtaking` + `no_any_tag` →
///   [`VciPolicy::HashedTag`] (without the assertions the non-overtaking
///   order pins everything to one channel, so extra VCIs are ignored);
/// - `mpich_num_tag_bits_vci` + `one-to-one` hash → [`VciPolicy::TagBitsOneToOne`],
///   requiring all three assertions.
pub fn policy_from_info(info: &Info) -> Result<(VciPolicy, usize)> {
    let num_vcis = info.get_usize(keys::NUM_VCIS)?.unwrap_or(1);
    let tid_bits = info.get_usize(keys::NUM_TAG_BITS_VCI)?;
    let overtaking = info.allow_overtaking()?;
    let no_any_tag = info.no_any_tag()?;
    let no_any_source = info.no_any_source()?;

    if let Some(bits) = tid_bits {
        if !overtaking {
            return Err(Error::MissingAssertion {
                hint: keys::ASSERT_ALLOW_OVERTAKING,
            });
        }
        if !no_any_tag {
            return Err(Error::MissingAssertion {
                hint: keys::ASSERT_NO_ANY_TAG,
            });
        }
        if !no_any_source {
            return Err(Error::MissingAssertion {
                hint: keys::ASSERT_NO_ANY_SOURCE,
            });
        }
        let placement = match info.get(keys::PLACE_TAG_BITS) {
            Some("LSB") | Some("lsb") => TagPlacement::Lsb,
            _ => TagPlacement::Msb,
        };
        let bits = bits as u32;
        let app_bits = TAG_BITS
            .checked_sub(2 * bits)
            .ok_or(Error::TagBitsOverflow {
                requested: 2 * bits,
                available: TAG_BITS,
            })?;
        let layout = TagLayout::new(bits, bits, app_bits, placement)?;
        let one_to_one = matches!(info.get(keys::TAG_VCI_HASH_TYPE), Some("one-to-one"));
        if one_to_one {
            return Ok((VciPolicy::TagBitsOneToOne { layout }, num_vcis));
        }
        return Ok((VciPolicy::HashedTag, num_vcis));
    }

    if num_vcis > 1 {
        if overtaking && no_any_tag {
            return Ok((VciPolicy::HashedTag, num_vcis));
        }
        // Extra VCIs cannot be used without relaxed ordering: stay on one.
        return Ok((VciPolicy::Single, 1));
    }
    Ok((VciPolicy::Single, 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_info_gives_single_policy() {
        let (p, n) = policy_from_info(&Info::new()).unwrap();
        assert!(matches!(p, VciPolicy::Single));
        assert_eq!(n, 1);
    }

    #[test]
    fn num_vcis_without_asserts_is_ignored() {
        let info = Info::new().set(keys::NUM_VCIS, "8");
        let (p, n) = policy_from_info(&info).unwrap();
        assert!(matches!(p, VciPolicy::Single));
        assert_eq!(n, 1);
    }

    #[test]
    fn num_vcis_with_asserts_hashes_tags() {
        let info = Info::new()
            .set(keys::NUM_VCIS, "8")
            .set(keys::ASSERT_ALLOW_OVERTAKING, "true")
            .set(keys::ASSERT_NO_ANY_TAG, "true");
        let (p, n) = policy_from_info(&info).unwrap();
        assert!(matches!(p, VciPolicy::HashedTag));
        assert_eq!(n, 8);
    }

    #[test]
    fn one_to_one_requires_all_three_asserts() {
        let base = Info::new()
            .set(keys::NUM_VCIS, "4")
            .set(keys::NUM_TAG_BITS_VCI, "2")
            .set(keys::TAG_VCI_HASH_TYPE, "one-to-one");
        assert!(matches!(
            policy_from_info(&base),
            Err(Error::MissingAssertion { hint }) if hint == keys::ASSERT_ALLOW_OVERTAKING
        ));
        let full = base
            .set(keys::ASSERT_ALLOW_OVERTAKING, "true")
            .set(keys::ASSERT_NO_ANY_TAG, "true")
            .set(keys::ASSERT_NO_ANY_SOURCE, "true");
        let (p, n) = policy_from_info(&full).unwrap();
        assert!(matches!(p, VciPolicy::TagBitsOneToOne { .. }));
        assert_eq!(n, 4);
    }

    #[test]
    fn retired_matching_hint_is_ignored() {
        use crate::matching::EngineKind;
        use crate::universe::Universe;
        // The engine is fixed at universe build time: the retired engine
        // hint is an unknown key — stored, never an error, and a dup cannot
        // swap the engine under its parent communicator.
        let u = Universe::builder().nodes(2).num_vcis(2).build();
        let kinds = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let info = Info::new().set("rankmpi_matching", "linear");
            let c = world.dup_with_info(&mut th, info).unwrap();
            if env.rank() == 0 {
                c.send(&mut th, 1, 7, b"still merged").unwrap();
            } else {
                let (_st, data) = c.recv(&mut th, 0, 7).unwrap();
                assert_eq!(&data[..], b"still merged");
            }
            c.proc().vci(c.vci_block()[0]).engine_kind()
        });
        assert!(kinds.iter().all(|&k| k == EngineKind::default()));
    }

    #[test]
    fn split_with_negative_color_returns_none() {
        use crate::universe::Universe;
        let u = Universe::builder().nodes(3).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            // Rank 1 opts out (MPI_UNDEFINED-style); ranks 0 and 2 form a pair.
            let color = if env.rank() == 1 { -1 } else { 0 };
            let sub = world.split(&mut th, color, 0).unwrap();
            sub.map(|c| (c.size(), c.rank()))
        });
        assert_eq!(out[1], None);
        assert_eq!(out[0], Some((2, 0)));
        assert_eq!(out[2], Some((2, 1)));
    }

    #[test]
    fn dup_children_have_distinct_contexts() {
        use crate::universe::Universe;
        let u = Universe::builder().nodes(2).build();
        let ctxs = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let a = world.dup(&mut th).unwrap();
            let b = world.dup(&mut th).unwrap();
            let c = a.dup(&mut th).unwrap(); // grandchild
            (a.context_id(), b.context_id(), c.context_id())
        });
        // All processes agree on all three ids, and they are distinct.
        assert_eq!(ctxs[0], ctxs[1]);
        let (a, b, c) = ctxs[0];
        assert!(a != b && b != c && a != c);
    }

    #[test]
    fn resil_hints_reconfigure_the_block_on_dup() {
        use crate::universe::Universe;
        use rankmpi_fabric::FaultPlan;
        let u = Universe::builder()
            .nodes(2)
            .fault_plan(FaultPlan::lossy(9))
            .build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let info = Info::new().set(keys::RESIL_MAX_RETRIES, "5");
            let c = world.dup_with_info(&mut th, info).unwrap();
            let r = c.proc().vci(c.vci_block()[0]).mailbox().resil().unwrap();
            assert_eq!(r.config().max_retries, 5);
        });
    }

    #[test]
    fn bad_resil_hint_is_an_error_even_on_a_lossless_fabric() {
        use crate::universe::Universe;
        let u = Universe::builder().nodes(1).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let info = Info::new().set(keys::RESIL_WINDOW, "0");
            assert!(matches!(
                world.dup_with_info(&mut th, info),
                Err(Error::BadInfoValue { .. })
            ));
        });
    }

    #[test]
    fn oversized_tag_bits_overflow() {
        let info = Info::new()
            .set(keys::NUM_TAG_BITS_VCI, "12")
            .set(keys::ASSERT_ALLOW_OVERTAKING, "true")
            .set(keys::ASSERT_NO_ANY_TAG, "true")
            .set(keys::ASSERT_NO_ANY_SOURCE, "true");
        assert!(matches!(
            policy_from_info(&info),
            Err(Error::TagBitsOverflow { .. })
        ));
    }

    #[test]
    fn creation_calls_fail_on_an_endpoints_communicator() {
        use crate::rma::Window;
        use crate::universe::Universe;
        use std::sync::mpsc::{channel, RecvTimeoutError};
        use std::time::Duration;
        type Call = fn(&Communicator, &mut ThreadCtx) -> Result<()>;
        let calls: [(&str, Call); 6] = [
            ("dup_with_info", |c, th| {
                c.dup_with_info(th, Info::new()).map(drop)
            }),
            ("split", |c, th| c.split(th, 0, 0).map(drop)),
            ("agree", |c, th| c.agree(th, true).map(drop)),
            ("shrink", |c, th| c.shrink(th).map(drop)),
            ("Window::create", |c, th| {
                Window::create(c, th, 8, &Info::new()).map(drop)
            }),
            ("create_endpoints", |c, th| {
                c.create_endpoints(th, 1).map(drop)
            }),
        ];
        // A call that reached its rendezvous would wait for the process's
        // other endpoint rank forever: fail on a timeout instead of hanging.
        let (done, finished) = channel();
        let run = std::thread::spawn(move || {
            let u = Universe::builder().nodes(2).build();
            u.run(|env| {
                let world = env.world();
                let mut th = env.single_thread();
                for ep in world.create_endpoints(&mut th, 2).unwrap() {
                    for (name, call) in calls {
                        assert!(
                            matches!(call(&ep, &mut th), Err(Error::InvalidState(_))),
                            "{name} on endpoint rank {}",
                            ep.rank()
                        );
                    }
                }
            });
            let _ = done.send(());
        });
        if let Err(RecvTimeoutError::Timeout) = finished.recv_timeout(Duration::from_secs(60)) {
            panic!("a creation call on an endpoints communicator hung");
        }
        run.join().unwrap();
    }
}
