#![warn(missing_docs)]

//! Simulated interconnect: NICs with bounded hardware-context pools and a
//! LogGP-style wire model.
//!
//! The paper's resource arguments hinge on a concrete hardware fact: a NIC
//! exposes a *limited* number of independent hardware contexts (work-queue /
//! doorbell pairs) — e.g. 160 on Intel Omni-Path — and an MPI library maps its
//! logical communication channels (MPICH VCIs, Open MPI CRIs) onto them. When the
//! number of logical channels exceeds the physical pool (Lesson 3: 808
//! communicators for a 3D 27-point stencil on a 64-core node), channels share
//! contexts and pay lock + queueing contention.
//!
//! This crate models exactly that layer:
//! - [`NetworkProfile`]: named parameter sets (Omni-Path-like with 160 contexts,
//!   an InfiniBand-like profile, an ideal fabric) with LogGP costs;
//! - [`HwContext`]: one hardware send/recv context — a real lock (preserving
//!   per-channel packet order) + a virtual-time [`Resource`](rankmpi_vtime::Resource)
//!   (per-message gap and per-byte DMA occupancy);
//! - [`Nic`]: a per-node bounded pool of contexts; allocations beyond the pool
//!   fall back to sharing, which is where oversubscription penalties come from;
//! - [`transmit`](mod@transmit): the injection path — overhead, doorbell, context occupancy,
//!   wire latency, remote context serialization — delivering a [`Packet`] into a
//!   destination [`Mailbox`] with its virtual arrival stamp.
//!
//! Two robustness layers complete the model: lossy fault classes (wire
//! drops, link flaps — [`fault`]) and the [`resil`] sliding-window
//! ack/retransmit protocol that preserves MPI delivery semantics over them,
//! surfacing unrecoverable losses as poisoned packets instead of hangs.
//! A third tier survives lost *ranks*: crash plans ([`FaultPlan::crashes`])
//! plus the [`ft`] failure detector that lets survivors observe a death at
//! a deterministic virtual time instead of hanging.

pub mod arena;
pub mod context;
pub mod fault;
pub mod ft;
pub mod mailbox;
pub mod nic;
pub mod packet;
pub mod profile;
pub mod resil;
pub mod spsc;
pub mod transmit;

pub use arena::PayloadPool;
pub use context::HwContext;
pub use fault::{CrashPoint, FaultPlan, FaultReport, LossCause};
pub use ft::Liveness;
pub use mailbox::Mailbox;
pub use nic::Nic;
pub use packet::{errcode, Header, Packet, KIND_ERR_FLAG};
pub use profile::NetworkProfile;
/// The progress-event channel a [`Mailbox`] rings on every deposit; it lives
/// in `rankmpi-vtime` beside the engine it parks tasks on.
pub use rankmpi_vtime::Notify;
pub use resil::{Resil, ResilConfig, ResilReport};
pub use spsc::SpscRing;
pub use transmit::{send_batch, transmit, SendDesc, TxInfo};
