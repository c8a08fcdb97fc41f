#![warn(missing_docs)]

//! User-visible MPI Endpoints — the design the paper re-brands as
//! **MPI Rankpoints**.
//!
//! [`comm_create_endpoints`] implements the suspended MPI Forum proposal's API
//! (the paper's Fig. 2): a collective call on a parent communicator in which
//! every process asks for `my_num_ep` endpoints and receives that many
//! handles. Each [`Endpoint`] is addressable by a *global endpoint rank* —
//! endpoints take on the semantics of MPI ranks, so messages from different
//! endpoints are unordered (logically parallel) and a thread can target any
//! remote endpoint directly, exactly like MPI-everywhere addressing
//! (Lesson 10).
//!
//! Implementation notes mirroring the paper's discussion:
//! - an endpoint *is* a rank: every [`Endpoint`] wraps a `rankmpi_core`
//!   `Communicator` of the same context whose `VciPolicy::PerRank` gives each
//!   endpoint rank a *dedicated VCI* (matching engine + mailbox + hardware
//!   context) from the node's bounded context pool — so point-to-point,
//!   fault handling and collectives are the core library's own, endpoints
//!   consume only as many network resources as there are communicating
//!   threads (Lesson 12), and the library, not the user, maps endpoints onto
//!   hardware (Lesson 17: endpoints are *not* handles to network resources);
//! - receives post on the endpoint's own engine, so wildcards work on any
//!   endpoint without constraining other endpoints' parallelism (Lesson 11 —
//!   the Legion polling-thread pattern);
//! - collectives are **one-step**: all endpoints of all processes are ranks
//!   of the same tree, so the library performs both the internode and
//!   intranode portions (Lesson 18), at the cost of duplicating result
//!   buffers on a node (Lesson 19 — see [`coll::duplication_report`]).

pub mod coll;
pub mod endpoint;
pub mod topology;

pub use endpoint::Endpoint;
pub use topology::{comm_create_endpoints, EndpointTopology};
