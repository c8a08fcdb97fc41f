//! Rank-crash fault tolerance: per-process detector state and the
//! ULFM-style recovery API (`revoke` / `agree` / `shrink`).
//!
//! The model follows User-Level Failure Mitigation: a crash is *local
//! knowledge first* — each channel observes a peer's death through the
//! fabric detector ([`rankmpi_fabric::ft::Liveness`]) and surfaces
//! [`Error::ProcessFailed`] through the communicator's error handler. A
//! survivor that decides the communicator is no longer usable calls
//! [`Communicator::revoke`], which floods poisoned `KIND_FT` control
//! packets to every member on every VCI of the communicator's block; the
//! revocation spreads epidemically — whichever VCI a blocked peer is
//! progressing, a revoke packet reaches it, fails its pending operations
//! with [`Error::Revoked`], and poisons all its future operations on that
//! context. Survivors then reach a consistent verdict with
//! [`Communicator::agree`] (a fault-tolerant allreduce that, like ULFM's
//! `MPI_Comm_agree`, works even on a revoked communicator — it rides the
//! universe's shared-registry agreement plumbing, not packets) and rebuild
//! with [`Communicator::shrink`], which forms a new dense communicator
//! from the surviving group and retires the dead ranks' VCI hardware
//! contexts back to the NIC pool.
//!
//! What is *not* recovered: messages a dead rank received but never acted
//! on, wildcard (`ANY_SOURCE`) receives (nothing attributes them to a
//! specific dead peer — post concrete-source receives in recovery-aware
//! code), and the dead rank's application state. Messages the victim sent
//! *before* dying remain deliverable — the crash mark happens after its
//! last push, so the detector can never race ahead of real traffic
//! (no false positives by construction).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use rankmpi_fabric::fault::CrashPoint;
use rankmpi_fabric::ft::{crash_now, Liveness};
use rankmpi_fabric::{errcode, Header};
use rankmpi_vtime::{Clock, Counter, Nanos, Notify};

use crate::comm::{Communicator, FT_AGREE_NS, FT_SHRINK_NS};
use crate::error::{Error, Result};
use crate::group::Group;
use crate::info::Info;
use crate::vci::{VciPolicy, KIND_FT};

/// `agree_comm` color sentinel for shrink (user splits never pass a
/// negative color through to `agree_comm`).
const SHRINK_COLOR: i64 = -9;

/// Per-process fault-tolerance state: this rank's crash point (if the fault
/// plan kills it), the shared liveness registry, and local revocation
/// knowledge.
///
/// Hot paths gate on [`FtShared::stamp`] — one relaxed load — so a universe
/// without crashes or revocations pays a single atomic read per check.
pub struct FtShared {
    rank: usize,
    liveness: Arc<Liveness>,
    crash: Option<CrashPoint>,
    /// MPI sends issued so far (drives [`CrashPoint::Sends`]).
    sends: AtomicU64,
    /// Base context id → group, registered at communicator construction.
    /// VCIs match in communicator-local rank space (headers carry local
    /// src), so the engine sweep needs this to map a posted receive's
    /// concrete source to a world rank the liveness registry knows.
    groups: RwLock<HashMap<u32, Group>>,
    /// Locally known revoked context ids → virtual time of learning.
    revoked: RwLock<HashMap<u32, Nanos>>,
    revoke_epoch: AtomicU64,
    revokes: Counter,
    revoked_drops: Counter,
    shrinks: Counter,
}

impl FtShared {
    pub(crate) fn new(rank: usize, liveness: Arc<Liveness>, crash: Option<CrashPoint>) -> Self {
        FtShared {
            rank,
            liveness,
            crash,
            sends: AtomicU64::new(0),
            groups: RwLock::new(HashMap::new()),
            revoked: RwLock::new(HashMap::new()),
            revoke_epoch: AtomicU64::new(0),
            revokes: Counter::new(),
            revoked_drops: Counter::new(),
            shrinks: Counter::new(),
        }
    }

    /// A standalone instance for unit tests constructing bare VCIs.
    #[cfg(test)]
    pub(crate) fn solo() -> Arc<FtShared> {
        Arc::new(FtShared::new(0, Arc::new(Liveness::new()), None))
    }

    /// The universe-wide failure detector.
    pub fn liveness(&self) -> &Arc<Liveness> {
        &self.liveness
    }

    /// Has this very process been marked dead (a sibling thread hit the
    /// crash plan)? One atomic load while nothing has ever crashed.
    pub fn self_crashed(&self) -> bool {
        self.liveness.epoch() != 0 && self.liveness.is_crashed(self.rank)
    }

    /// Record the local-rank → world-rank mapping of a communicator using
    /// base context id `ctx` (called at communicator construction; first
    /// registration wins — all constructions of one context agree anyway).
    pub(crate) fn register_group(&self, ctx: u32, group: &Group) {
        let mut map = self.groups.write();
        map.entry(ctx).or_insert_with(|| group.clone());
    }

    /// World rank of communicator-local rank `local` on context `ctx`, if
    /// the context's group is known.
    pub fn global_of(&self, ctx: u32, local: usize) -> Option<usize> {
        let map = self.groups.read();
        let g = map.get(&ctx)?;
        (local < g.size()).then(|| g.global(local))
    }

    /// Combined change stamp: bumps whenever a rank crashes anywhere in the
    /// universe or this process learns a revocation. Zero means neither has
    /// ever happened — the fast path.
    pub fn stamp(&self) -> u64 {
        self.liveness.epoch() + self.revoke_epoch.load(Ordering::Acquire)
    }

    /// Is `ctx` (base context id, collective bit stripped) revoked here?
    pub fn is_revoked(&self, ctx: u32) -> bool {
        self.revoke_epoch.load(Ordering::Acquire) != 0 && self.revoked.read().contains_key(&ctx)
    }

    /// Virtual time this process learned `ctx` was revoked.
    pub fn revoked_at(&self, ctx: u32) -> Option<Nanos> {
        if self.revoke_epoch.load(Ordering::Acquire) == 0 {
            return None;
        }
        self.revoked.read().get(&ctx).copied()
    }

    /// Record a revocation of `ctx` learned at `at`. Returns whether it was
    /// news (first revoke wins; re-learning is a no-op).
    pub fn learn_revoked(&self, ctx: u32, at: Nanos) -> bool {
        let mut map = self.revoked.write();
        if map.contains_key(&ctx) {
            return false;
        }
        map.insert(ctx, at);
        self.revokes.incr();
        self.revoke_epoch.fetch_add(1, Ordering::Release);
        true
    }

    /// Count an unexpected-queue packet dropped because its context was
    /// revoked.
    pub fn note_revoked_drop(&self) {
        self.revoked_drops.incr();
    }

    /// Revocations this process has learned.
    pub fn revokes(&self) -> u64 {
        self.revokes.get()
    }

    /// Unexpected-queue packets this process dropped on revoked contexts.
    pub fn revoked_drops(&self) -> u64 {
        self.revoked_drops.get()
    }

    /// Shrinks this process has completed.
    pub fn shrinks(&self) -> u64 {
        self.shrinks.get()
    }

    /// Crash-plan check at an MPI operation boundary. Counts the operation
    /// when `is_send`, and unwinds the calling thread as a modeled crash if
    /// this rank's crash point has arrived — or if a sibling thread of this
    /// process already crashed it (the whole process dies, not one thread).
    pub fn maybe_crash(&self, clock: &Clock, is_send: bool) {
        if self.self_crashed() {
            crash_now();
        }
        let Some(cp) = self.crash else { return };
        let dead = match cp {
            CrashPoint::Sends(n) => is_send && self.sends.fetch_add(1, Ordering::Relaxed) + 1 >= n,
            CrashPoint::VTime(t) => clock.now() >= t,
        };
        if dead {
            self.liveness.mark_crashed(self.rank, clock.now());
            crash_now();
        }
    }
}

impl std::fmt::Debug for FtShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FtShared")
            .field("rank", &self.rank)
            .field("crash", &self.crash)
            .field("stamp", &self.stamp())
            .finish()
    }
}

/// Rendezvous board for one fault-tolerant agreement (`agree` or the
/// membership phase of `shrink`): like the split board, every member
/// contributes — but resolution waits only for members the detector still
/// believes alive, and the first resolver freezes the contribution set so
/// every survivor returns the *same* decision even if liveness keeps
/// changing underneath.
#[derive(Debug)]
pub(crate) struct FtGather {
    state: Mutex<GatherState>,
}

#[derive(Debug)]
struct GatherState {
    entries: Vec<Option<i64>>,
    decided: Option<Arc<Vec<(usize, i64)>>>,
}

impl FtGather {
    pub(crate) fn new(size: usize) -> Self {
        FtGather {
            state: Mutex::new(GatherState {
                entries: vec![None; size],
                decided: None,
            }),
        }
    }

    /// Members that have contributed so far.
    #[cfg(test)]
    pub(crate) fn contributed(&self) -> usize {
        self.state.lock().entries.iter().flatten().count()
    }

    fn try_decide(st: &mut GatherState, alive: &dyn Fn(usize) -> bool) {
        if st.decided.is_some() {
            return;
        }
        let resolved = st
            .entries
            .iter()
            .enumerate()
            .all(|(i, e)| e.is_some() || !alive(i));
        if resolved {
            let contribs: Vec<(usize, i64)> = st
                .entries
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.map(|v| (i, v)))
                .collect();
            st.decided = Some(Arc::new(contribs));
        }
    }

    /// Contribute `value` for `local_rank` and block on `rendezvous` until
    /// the agreement resolves: every slot contributed or is crashed per
    /// `alive`. Whoever resolves it rings `rendezvous`, and so does every
    /// crash, so a waiter re-evaluates liveness exactly when it changes.
    pub(crate) fn contribute(
        &self,
        rendezvous: &Notify,
        local_rank: usize,
        value: i64,
        alive: &(dyn Fn(usize) -> bool + Sync),
    ) -> Arc<Vec<(usize, i64)>> {
        {
            let mut st = self.state.lock();
            if st.decided.is_none() {
                st.entries[local_rank] = Some(value);
            }
        }
        rendezvous.wait_until(|| {
            let (decided, resolved_here) = {
                let mut st = self.state.lock();
                let open = st.decided.is_none();
                if open {
                    if !alive(local_rank) {
                        // A sibling thread crashed this process: no verdict
                        // is owed to it (and a board its peers resolved and
                        // dropped would never resolve again).
                        drop(st);
                        crash_now();
                    }
                    Self::try_decide(&mut st, alive);
                }
                (st.decided.clone(), open && st.decided.is_some())
            };
            if resolved_here {
                rendezvous.notify();
            }
            decided
        })
    }
}

impl Communicator {
    /// Has this communicator been revoked (locally known)?
    pub fn is_revoked(&self) -> bool {
        self.proc().ft().is_revoked(self.context_id())
    }

    /// Revoke the communicator (ULFM `MPI_Comm_revoke`): not collective —
    /// any member that has observed a failure may call it. Marks the
    /// context revoked locally and floods poisoned `KIND_FT` control
    /// packets to every other member on every VCI of the block, so the
    /// revocation reaches whichever channel a blocked peer is progressing.
    /// The control packets ride the reliable transmit path (a "lost" packet
    /// still delivers its poisoned tombstone), so revocation is immune to
    /// lossy weather. Idempotent.
    pub fn revoke(&self, th: &mut crate::proc::ThreadCtx) -> Result<()> {
        let _mpi = th.enter_mpi();
        if !th
            .proc()
            .ft()
            .learn_revoked(self.context_id(), th.clock.now())
        {
            return Ok(());
        }
        let entered = th.clock.now();
        let me = self.rank();
        for dst in 0..self.size() {
            if dst == me {
                continue;
            }
            let g = self.global_rank(dst);
            if th.proc().ft().liveness().is_crashed(g) {
                continue;
            }
            let dst_proc = Arc::clone(th.universe().proc(g));
            for &v in self.vci_block().iter() {
                let svci = th.proc().vci(v);
                let dvci = dst_proc.vci(v);
                let mut header = Header {
                    kind: KIND_FT,
                    context_id: self.context_id(),
                    src: th.proc().rank() as u32,
                    dst: g as u32,
                    tag: 0,
                    seq: th.proc().next_seq(),
                    aux: 0,
                    aux2: 0,
                };
                header.poison(errcode::REVOKED, 0);
                let intra = th.proc().node() == dst_proc.node();
                svci.send_packet(&mut th.clock, &dvci, intra, header, bytes::Bytes::new());
            }
        }
        rankmpi_obs::trace::busy(
            "ft",
            "revoke",
            entered,
            th.clock.now(),
            rankmpi_obs::trace::ResId::NONE,
        );
        Ok(())
    }

    /// Fault-tolerant agreement (ULFM `MPI_Comm_agree`): a collective AND
    /// over every *surviving* member's `flag`, returning the same verdict
    /// on every survivor even while members keep dying mid-call. Works on a
    /// revoked communicator — agreement rides the universe's shared
    /// registries, not packets, exactly because it must function when the
    /// communicator's channels no longer do.
    pub fn agree(&self, th: &mut crate::proc::ThreadCtx, flag: bool) -> Result<bool> {
        let _mpi = th.enter_mpi();
        th.proc().ft().maybe_crash(&th.clock, false);
        let entered = th.clock.now();
        let idx = self.creation_index(FT_AGREE_NS)?;
        let group = self.group().clone();
        let liveness = Arc::clone(self.proc().ft().liveness());
        let alive = move |local: usize| !liveness.is_crashed(group.global(local));
        let contribs = self.universe().gather_ft(
            (self.context_id(), idx, 0),
            self.rank(),
            self.size(),
            flag as i64,
            &alive,
        );
        rankmpi_obs::trace::busy(
            "ft",
            "agree",
            entered,
            th.clock.now(),
            rankmpi_obs::trace::ResId::NONE,
        );
        Ok(contribs.iter().all(|&(_, v)| v != 0))
    }

    /// Rebuild after failures (ULFM `MPI_Comm_shrink`): collective over the
    /// survivors. Forms the new dense communicator from every member that
    /// showed up (ranks compacted in parent order, so relative order — and
    /// rank 0 — are preserved), reusing the context-id/VCI-block agreement
    /// plumbing `dup` uses. The first resolver also retires each dead
    /// rank's VCI hardware contexts back to its node's NIC pool. The new
    /// communicator inherits this one's error handler and is synchronized
    /// by a fault-tolerant rendezvous over the *survivors* (never the
    /// parent, whose dead members would hang it — and never a plain
    /// barrier, which a death *during* the shrink would wedge).
    pub fn shrink(&self, th: &mut crate::proc::ThreadCtx) -> Result<Communicator> {
        let _mpi = th.enter_mpi();
        th.proc().ft().maybe_crash(&th.clock, false);
        let entered = th.clock.now();
        let idx = self.creation_index(FT_SHRINK_NS)?;
        let group = self.group().clone();
        let liveness = Arc::clone(self.proc().ft().liveness());
        let alive = {
            let group = group.clone();
            let liveness = Arc::clone(&liveness);
            move |local: usize| !liveness.is_crashed(group.global(local))
        };
        let contribs = self.universe().gather_ft(
            (self.context_id(), idx, 1),
            self.rank(),
            self.size(),
            0,
            &alive,
        );
        let mut survivors: Vec<usize> = contribs.iter().map(|&(r, _)| r).collect();
        survivors.sort_unstable();
        let my_new = survivors
            .binary_search(&self.rank())
            .map_err(|_| Error::InvalidState("shrink caller missing from the survivor set"))?;
        let ranks: Vec<usize> = survivors.iter().map(|&r| group.global(r)).collect();
        let world_ranks = ranks.clone();
        // Retire dead members' channel resources (idempotent per rank —
        // every survivor may request it; the universe reclaims once).
        for local in 0..group.size() {
            let g = group.global(local);
            if liveness.is_crashed(g) {
                self.universe().reclaim_rank(g);
            }
        }
        let (ctx_id, block) = self
            .universe()
            .agree_comm((self.context_id(), idx, SHRINK_COLOR), 1);
        let child = Communicator::from_parts(
            Arc::clone(self.universe()),
            Arc::clone(self.proc()),
            ctx_id,
            Group::from_ranks(ranks),
            my_new,
            VciPolicy::Single,
            block,
            Info::new(),
        );
        child.set_errhandler(self.errhandler());
        self.proc().ft().shrinks.incr();
        // Synchronize the survivors on the new context before returning it.
        // This must be fault-tolerant too: a plain barrier on the child
        // would hang blocked waves (or split the survivors' outcomes) if
        // yet another member died mid-shrink, so it rides the agreement
        // board like the membership phase — the child may then still
        // contain a freshly dead rank, which the *next* operation on it
        // surfaces as `ProcessFailed`, triggering one more recovery round.
        let sync_alive = {
            let liveness = Arc::clone(&liveness);
            move |local: usize| !liveness.is_crashed(world_ranks[local])
        };
        self.universe()
            .gather_ft((ctx_id, 0, 2), my_new, survivors.len(), 0, &sync_alive);
        rankmpi_obs::trace::busy(
            "ft",
            "shrink",
            entered,
            th.clock.now(),
            rankmpi_obs::trace::ResId::NONE,
        );
        Ok(child)
    }
}
