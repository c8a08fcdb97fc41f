#![warn(missing_docs)]

//! Virtual-time engine for deterministic performance modeling.
//!
//! The paper's performance arguments are *resource-mapping* arguments: how many
//! logically independent communication streams exist, how many physical network
//! contexts they map onto, and how much serialization/synchronization the mapping
//! induces. To reproduce those effects on any host (including a single-core CI
//! container), `rankmpi` does not measure wall-clock time. Instead, every simulated
//! thread carries a [`Clock`] — a virtual timestamp in nanoseconds — and every
//! shared physical resource (a NIC hardware context, a lock, a matching engine) is
//! a [`Resource`]: a schedule of the virtual-time intervals in which it is busy.
//!
//! Using a resource serializes in virtual time like queueing at a device, except
//! that the queue is ordered by *virtual* arrival, not by which real thread got
//! there first:
//!
//! ```text
//! start      = earliest t >= thread_now with [t, t + busy) free
//! thread_now = start + busy (+ any overlap-exempt overhead)
//! ```
//!
//! A request the OS ran late backfills the gap it would have had; a saturated
//! resource degenerates to `start = max(thread_now, next_free)`. The schedule is a
//! sorted array in chunks of 512 intervals, each stored as 32-bit offsets from its
//! chunk's base (8 bytes): a request from its last interval on — the steady state —
//! is O(1), an earlier one is a binary search plus a move within one chunk. History
//! is bounded by the universe's global virtual time ([`gvt`]): the least time any
//! future request can carry, published by every live clock at its blocking points
//! and by every mailbox for the packets it holds. Chunks that end at or before it
//! are dropped, so no result changes; [`Resource::below_horizon`] counts requests
//! that break that contract (0 means every result is exact).
//!
//! Costs follow the classic LogGP accounting (overhead `o`, gap `g`, latency `L`,
//! per-byte time `G`), so the *shape* of every benchmark — who wins, by what
//! factor, where crossovers fall — is reproducible on any host.
//!
//! The crate also provides:
//! - [`ContentionLock`]: a mutex plus the virtual schedule of its critical
//!   sections; a section that overlaps another in virtual time is shifted behind
//!   it (the thread-synchronization overheads of the paper's Lessons 3 and 14);
//! - [`VirtualBarrier`]: a barrier that joins the virtual clocks of all
//!   participants (used by stencil iterations and partitioned-request completion);
//! - [`Notify`]: the progress-event channel every blocked caller waits on, and
//!   [`Notify::wait_until`], the one place the rule for *how* it waits lives
//!   (an engine task parks, a `sched`-armed thread yields, a plain thread
//!   polls, then sleeps);
//! - [`gvt`]: the universe-wide lower bound on future requests that bounds
//!   every pruned resource's history;
//! - [`stats`]: lightweight atomic counters/accumulators used for byte and
//!   collision accounting in the experiments;
//! - [`sched`]: optional per-thread scheduling hooks that turn every clock
//!   advance, lock acquire/release, and barrier arrival into an explicit,
//!   replayable yield point (the foundation of `rankmpi-check`'s
//!   deterministic schedule exploration);
//! - [`engine`]: the cooperative rank-task execution engine built on those
//!   yield points — thousands of simulated threads multiplexed over a small
//!   worker pool, ordered by virtual time, with parked (zero-CPU) waits.

pub mod barrier;
pub mod clock;
pub mod engine;
pub mod gvt;
pub mod lock;
pub mod nanos;
pub mod notify;
pub mod resource;
pub mod sched;
pub mod stats;

pub use barrier::VirtualBarrier;
pub use clock::Clock;
pub use gvt::Gvt;
pub use lock::{ContentionLock, LockCosts, UnmodeledGuard};
pub use nanos::Nanos;
pub use notify::Notify;
pub use resource::{Acquisition, Resource};
pub use stats::{Accumulator, Counter};
