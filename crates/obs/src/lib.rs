#![warn(missing_docs)]

//! `rankmpi-obs`: the observability subsystem.
//!
//! Every quantitative claim of the source paper is an *observability* result:
//! the authors could see where time went per VCI, per hardware context, and
//! per matching queue. This crate gives the reproduction the same eyes, in
//! two pieces:
//!
//! 1. [`trace`] — a span/event tracer stamped in **virtual time**. Hot paths
//!    across the stack (send/recv posting, match attempts, VCI lock holds,
//!    hardware-context occupancy, wire segments, partitioned transfers,
//!    collective phases) record [`trace::Span`]s into per-thread ring buffers
//!    whose writer path is lock-free. While no [`trace::session`] is
//!    collecting, a recording call costs one relaxed atomic load.
//! 2. [`critpath`] — an analysis pass over a finished [`trace::Trace`] that
//!    reconstructs the virtual-time critical path and emits a per-resource
//!    contention breakdown (which ranks share which hardware context, where
//!    engine locks serialized, how much time the slowest thread waited).
//!
//! Traces export as Chrome trace-event JSON ([`chrome`]) loadable in
//! Perfetto / `chrome://tracing`; [`json`] is the dependency-free JSON
//! value/parser/renderer backing that export and its tests.

pub mod chrome;
pub mod critpath;
pub mod json;
pub mod trace;
