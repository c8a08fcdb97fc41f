//! The paper's running example: a 2D halo exchange executed under every
//! design for MPI+threads communication, with resource and timing reports.
//!
//! Run with: `cargo run --release --example stencil_halo`
//!
//! Each mechanism also drops a Chrome trace-event file
//! (`TRACE_stencil_halo_<mechanism>.json`, loadable in Perfetto /
//! `chrome://tracing`); the single-communicator run also prints its
//! virtual-time critical path with the per-resource contention breakdown.

use rankmpi_obs::{chrome, critpath};
use rankmpi_vtime::Nanos;
use rankmpi_workloads::stencil::halo::{run_halo_traced, HaloConfig, HaloMechanism};
use rankmpi_workloads::stencil::maps::Geometry;

fn main() {
    let cfg = HaloConfig {
        geo: Geometry {
            px: 2,
            py: 2,
            tx: 4,
            ty: 4,
        },
        iters: 10,
        elems_per_face: 128,
        nine_point: false,
        compute: Nanos::us(10),
        compute_jitter: 0.5,
        ..HaloConfig::default()
    };

    println!(
        "2D 5-pt halo exchange: {}x{} process torus, {}x{} threads/process, {} iters\n",
        cfg.geo.px, cfg.geo.py, cfg.geo.tx, cfg.geo.ty, cfg.iters
    );
    println!(
        "{:<38} {:>12} {:>10} {:>12} {:>16}",
        "mechanism", "time/iter", "channels", "hw contexts", "gate contention"
    );

    let mut traces = Vec::new();
    for mech in [
        HaloMechanism::SingleComm,
        HaloMechanism::CommMapListing1,
        HaloMechanism::CommMapNaive,
        HaloMechanism::CommMapFig4,
        HaloMechanism::TagsHashed,
        HaloMechanism::TagsOneToOne,
        HaloMechanism::Endpoints,
        HaloMechanism::Partitioned,
    ] {
        let (rep, trace) = run_halo_traced(mech, &cfg);
        println!(
            "{:<38} {:>12} {:>10} {:>12} {:>16}",
            rep.mechanism,
            rep.per_iter.to_string(),
            rep.channels_created,
            rep.hw_contexts_used,
            rep.gate_contention.to_string(),
        );
        traces.push((mech, trace));
    }

    println!();
    for (mech, trace) in &traces {
        let slug = format!("{mech:?}").to_lowercase();
        match chrome::write_trace(&format!("stencil_halo_{slug}"), trace) {
            Ok(p) => println!(
                "{:<38} {} spans -> {}",
                mech.label(),
                trace.spans.len(),
                p.display()
            ),
            Err(e) => eprintln!("could not write trace for {}: {e}", mech.label()),
        }
    }
    // Critical path of the mechanism the paper spends the most ink on:
    // the single shared communicator, where every span contends on one
    // VCI and one hardware context.
    let (mech, trace) = &traces[0];
    println!("\ncritical path — {} :", mech.label());
    critpath::analyze(trace).print();

    println!(
        "\nEvery halo cell was verified against its expected sender and iteration; \
         see crates/workloads/src/stencil for the Listing 1-4 implementations."
    );
}
