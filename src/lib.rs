#![warn(missing_docs)]

//! `rankmpi` — a simulated-MPI laboratory for the three designs of
//! MPI+threads communication, reproducing *Lessons Learned on MPI+Threads
//! Communication* (Zambre & Chandramowlishwaran, SC 2022).
//!
//! This meta-crate re-exports the workspace:
//!
//! - [`vtime`]: virtual-time clocks, serialized resources, contention locks;
//! - [`fabric`]: the simulated interconnect (bounded hardware-context pools,
//!   LogGP costs, network profiles);
//! - [`core`]: the MPI-like library — communicators, Info hints, tag
//!   matching, VCIs, point-to-point, RMA windows, collectives, and
//!   user-visible MPI Endpoints ("Rankpoints") as a communicator
//!   constructor and MPI 4.0 partitioned communication as communicator
//!   methods;
//! - [`workloads`]: the paper's application kernels (stencils, event
//!   runtime, graph exchange, RMA matmul, multithreaded allreduce);
//! - [`obs`]: the observability layer — virtual-time span tracer (Chrome
//!   trace export) and critical-path analysis.
//!
//! See `examples/quickstart.rs` for a first program and the `rankmpi-bench`
//! crate for the harness that regenerates every figure and table of the
//! paper.

pub use rankmpi_core as core;
pub use rankmpi_fabric as fabric;
pub use rankmpi_obs as obs;
pub use rankmpi_vtime as vtime;
pub use rankmpi_workloads as workloads;

/// The most commonly used items in one import.
pub mod prelude {
    pub use rankmpi_core::{
        Communicator, Error, Info, ReduceOp, Request, Result, ThreadCtx, ThreadLevel, Universe,
        Window, ANY_SOURCE, ANY_TAG,
    };
    pub use rankmpi_fabric::NetworkProfile;
    pub use rankmpi_vtime::Nanos;
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_reexports_compile() {
        use crate::prelude::*;
        let uni = Universe::builder().nodes(1).build();
        let n: Vec<usize> = uni.run(|env| env.size());
        assert_eq!(n, vec![1]);
        let _ = Nanos::us(1);
        let _ = NetworkProfile::ideal();
    }
}
