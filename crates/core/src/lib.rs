#![warn(missing_docs)]

//! `rankmpi-core`: an MPI-like message-passing library over a simulated fabric,
//! built to study the three designs for MPI+threads communication.
//!
//! A [`Universe`] is a simulated MPI job: `nodes × procs_per_node` processes,
//! each running `threads_per_proc` simulated threads (real OS threads carrying
//! virtual clocks). Processes share one address space — the "network" between
//! them is the [`rankmpi_fabric`] model — but the library enforces MPI's
//! semantics exactly as a real implementation would:
//!
//! - **Communicators** with context ids, `dup`/`split`/`dup_with_info`,
//!   and user-visible endpoints ("Rankpoints"): `create_endpoints` makes
//!   each endpoint a rank with a VCI of its own ([`comm`]);
//! - **Info hints** including MPI 4.0's `mpi_assert_allow_overtaking`,
//!   `mpi_assert_no_any_tag`, `mpi_assert_no_any_source` and the
//!   MPICH-style VCI mapping hints from the paper's Listing 2 ([`info`]);
//! - **Tag matching** with the ⟨communicator, rank, tag⟩ triplet, wildcards,
//!   and the non-overtaking order ([`matching`]);
//! - **VCIs** — virtual communication interfaces, each owning a hardware
//!   context, a mailbox and a matching engine; plus the mapping policies that
//!   place communicators/tags/windows onto VCIs ([`vci`]);
//! - **Point-to-point** blocking and nonblocking operations with requests
//!   ([`pt2pt`], [`request`]);
//! - **RMA windows** with put/get/accumulate, flush, and accumulate-ordering
//!   semantics ([`rma`]);
//! - **Collectives** (barrier, bcast, reduce, allreduce, gather, allgather,
//!   alltoall) with MPI's serial-issuance rule per communicator ([`coll`]);
//! - **Rank-crash fault tolerance** — ULFM-style failure detection,
//!   communicator revocation, fault-tolerant agreement and `shrink` ([`ft`]);
//! - **Partitioned communication** — MPI 4.0's `psend_init`/`precv_init` as
//!   communicator methods, with one matched handshake per operation and
//!   partition packets that bypass matching ([`partitioned`]).
//!
//! # Quick example
//!
//! ```
//! use rankmpi_core::{Universe, ANY_TAG};
//!
//! let uni = Universe::builder().nodes(2).threads_per_proc(1).build();
//! let sums: Vec<u64> = uni.run(|env| {
//!     let world = env.world();
//!     let mut results = env.parallel(|th| {
//!         if world.rank() == 0 {
//!             world.send(th, 1, 7, b"hi").unwrap();
//!             0
//!         } else {
//!             let (st, data) = world.recv(th, 0, ANY_TAG).unwrap();
//!             assert_eq!(st.tag, 7);
//!             data.len() as u64
//!         }
//!     });
//!     results.pop().unwrap()
//! });
//! assert_eq!(sums, vec![0, 2]);
//! ```

mod append;
pub mod coll;
pub mod comm;
pub mod costs;
// Endpoints are `Communicator::create_endpoints`; these two modules hold its
// rank-layout and endpoint-to-endpoint tests.
#[cfg(test)]
mod endpoint;
pub mod error;
pub mod ft;
pub mod group;
pub mod info;
pub mod matching;
pub mod partitioned;
pub mod proc;
pub mod pt2pt;
pub mod request;
pub mod rma;
// Partitioned communication is `Communicator::{psend_init, precv_init}`;
// these three modules hold its sink, request and pipeline tests.
#[cfg(test)]
mod buffered;
#[cfg(test)]
mod route;
#[cfg(test)]
mod send;
pub mod tag;
#[cfg(test)]
mod topology;
pub mod universe;
pub mod vci;

pub use coll::ReduceOp;
pub use comm::Communicator;
pub use error::{Errhandler, Error, RankMpiError, Result};
pub use ft::FtShared;
pub use group::Group;
pub use info::Info;
pub use matching::{EngineKind, MatchPattern, Status, ANY_SOURCE, ANY_TAG};
pub use partitioned::{BufferedPrecv, BufferedPsend, PrecvRequest, PsendRequest};
pub use proc::{ProcEnv, ProcShared, ThreadCtx};
pub use pt2pt::SendSpec;
pub use request::Request;
pub use rma::{AccumulateOrdering, Window};
pub use tag::{TagHash, TagLayout, TagPlacement, TAG_UB};
pub use universe::{LaunchMode, TaskLaunch, ThreadLevel, Universe, UniverseBuilder};
pub use vci::{BatchSend, Route, Vci, VciPolicy};
