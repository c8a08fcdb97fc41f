#![warn(missing_docs)]

//! MPI 4.0 partitioned communication: `Psend_init` / `Precv_init` / `Pready` /
//! `Parrived` (the paper's Fig. 3 and Listing 4).
//!
//! A partitioned operation is a *persistent* message with multiple data
//! partitions: the envelope is matched **once** per operation lifetime (an
//! O(1) matching cost no matter how many threads drive partitions — the
//! motivation in Section II-C), after which partition data travels as
//! direct-delivery packets that bypass the matching engine entirely, routed by
//! a route id through the destination process's
//! [`DirectRegistry`](rankmpi_core::vci::DirectRegistry).
//!
//! The design's fundamental limitation (Lesson 14) is modeled faithfully: all
//! threads driving partitions share one request object, so every `pready`,
//! `parrived` and `wait` passes through the request's
//! [`ContentionLock`](rankmpi_vtime::ContentionLock). Passes whose sections
//! overlap in virtual time are shifted one behind the other, so the cost grows
//! with the number of threads arriving together, and the other two designs do
//! not pay it. Its *persistence* (Lesson 15) is also structural: destination,
//! tag and partitioning are fixed at init time, so dynamic communication
//! patterns and wildcard-based polling simply do not fit the interface.
//!
//! The [`device`] module models Lesson 20's cost argument: `Pready`-style
//! lightweight triggers versus full per-message setup for device-initiated
//! communication.

pub mod buffered;
pub mod device;
pub mod recv;
pub mod route;
pub mod send;

pub use buffered::{BufferedPrecv, BufferedPsend};
pub use recv::{precv_init, PrecvRequest};
pub use send::{psend_init, PsendRequest};

/// Context-id bit marking partitioned-protocol control traffic (disjoint from
/// user point-to-point and collective context spaces).
pub const PART_CTL_BIT: u32 = 0x4000_0000;
