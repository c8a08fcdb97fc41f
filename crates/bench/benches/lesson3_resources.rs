//! Lesson 3: communicators have high network-resource requirements.
//!
//! Part 1 — the paper's closed-form arithmetic: communicators required vs
//! minimum channels for 3D 27-point stencils, including the headline
//! `[4,4,4] → 808 vs 56 (14.4x)` row.
//!
//! Part 2 — the performance consequence: the same 2D halo workload run with a
//! full communicator map vs endpoints on a context-constrained NIC. The
//! communicator map oversubscribes the hardware-context pool (like hypre's
//! 808 communicators on Omni-Path's 160 contexts) and pays gate contention;
//! endpoints use only as many contexts as there are communicating threads.

use rankmpi_bench::write_bench_json;
use rankmpi_bench::{print_table, ratio, takeaway};
use rankmpi_fabric::NetworkProfile;
use rankmpi_obs::json::Value;
use rankmpi_obs::registry::registry_samples;
use rankmpi_vtime::Nanos;
use rankmpi_workloads::commcount::{
    communicators_required_3d, min_channels_3d, overprovision_ratio,
};
use rankmpi_workloads::stencil::halo::{run_halo, HaloConfig, HaloMechanism};
use rankmpi_workloads::stencil::maps::Geometry;

fn main() {
    // Part 1: the resource arithmetic.
    let grids = [
        (2usize, 2usize, 2usize),
        (2, 2, 4),
        (4, 4, 2),
        (4, 4, 4),
        (4, 4, 8),
        (8, 8, 4),
    ];
    let rows: Vec<Vec<String>> = grids
        .iter()
        .map(|&(x, y, z)| {
            vec![
                format!("[{x},{y},{z}]"),
                (x * y * z).to_string(),
                communicators_required_3d(x, y, z).to_string(),
                min_channels_3d(x, y, z).to_string(),
                format!("{:.1}x", overprovision_ratio(x, y, z)),
            ]
        })
        .collect();
    print_table(
        "Lesson 3 — 3D 27-pt stencil: communicators required vs minimum channels",
        &[
            "thread grid",
            "cores",
            "communicators",
            "min channels",
            "ratio",
        ],
        &rows,
    );
    assert_eq!(communicators_required_3d(4, 4, 4), 808);
    assert_eq!(min_channels_3d(4, 4, 4), 56);

    // Part 1b: an independently *constructed* communicator map for the real
    // 3D 27-pt pattern, to confront the closed form with a concrete map.
    use rankmpi_workloads::stencil::stencil3d::{colored_map3, Dir3, Geometry3};
    let mut rows3d = Vec::new();
    for t in [[2usize, 2, 2], [3, 3, 3], [4, 4, 4]] {
        let geo = Geometry3 { p: [2, 2, 2], t };
        let map = colored_map3(geo, &Dir3::all(), true);
        map.validate_matching().expect("3D map must match");
        rows3d.push(vec![
            format!("[{},{},{}]", t[0], t[1], t[2]),
            map.n_comms().to_string(),
            communicators_required_3d(t[0], t[1], t[2]).to_string(),
            min_channels_3d(t[0], t[1], t[2]).to_string(),
        ]);
    }
    print_table(
        "Lesson 3 — generated 3D 27-pt communicator maps vs the closed form",
        &[
            "thread grid",
            "greedy-colored comms",
            "paper formula",
            "min channels",
        ],
        &rows3d,
    );

    // Part 2: run the halo exchange on a constrained NIC. 6x6 threads per
    // process needs a 9-pt communicator map far larger than the context pool,
    // while endpoints stay within it.
    let geo = Geometry {
        px: 2,
        py: 2,
        tx: 6,
        ty: 6,
    };
    let profile = NetworkProfile::constrained(24);
    let cfg = HaloConfig {
        geo,
        iters: 6,
        elems_per_face: 1024,
        nine_point: true,
        compute: Nanos::us(2),
        compute_jitter: 0.0,
        profile,
        ..HaloConfig::default()
    };
    // Snapshot the NIC allocation counters right after each run: every run
    // builds a fresh Universe whose NICs re-register their registry series,
    // so the "nic." prefix always reflects the most recent run.
    let comm_rep = run_halo(HaloMechanism::CommMapFig4, &cfg);
    let comm_nic = registry_samples("nic.");
    let ep_rep = run_halo(HaloMechanism::Endpoints, &cfg);
    let ep_nic = registry_samples("nic.");

    // Communication time per iteration: the compute phase is identical, so
    // subtract it (the paper's >2x claim is specifically about comm time).
    let comm_time = |r: &rankmpi_workloads::stencil::halo::HaloReport| r.per_iter - cfg.compute;
    let fmt = |r: &rankmpi_workloads::stencil::halo::HaloReport| {
        vec![
            r.mechanism.to_string(),
            r.channels_created.to_string(),
            r.hw_contexts_used.to_string(),
            format!("{:.2}", r.oversubscription),
            format!("{}", comm_time(r)),
            format!("{}", r.per_iter),
        ]
    };
    print_table(
        "Lesson 3 — 2D 9-pt halo on a 24-context NIC (6x6 threads/process, 8 KiB faces)",
        &[
            "mechanism",
            "channels",
            "hw contexts",
            "oversubscription",
            "comm/iter",
            "time/iter",
        ],
        &[fmt(&comm_rep), fmt(&ep_rep)],
    );

    let mech_json = |r: &rankmpi_workloads::stencil::halo::HaloReport, nic: Value| {
        Value::obj([
            ("mechanism", Value::str(r.mechanism)),
            ("channels", Value::int(r.channels_created as u64)),
            ("hw_contexts", Value::int(r.hw_contexts_used as u64)),
            ("oversubscription", Value::Num(r.oversubscription)),
            ("comm_per_iter_ns", Value::int(comm_time(r).as_ns())),
            ("per_iter_ns", Value::int(r.per_iter.as_ns())),
            ("gate_contention_ns", Value::int(r.gate_contention.as_ns())),
            ("nic_counters", nic),
        ])
    };
    write_bench_json(
        "lesson3_resources",
        &Value::obj([
            (
                "config",
                Value::obj([
                    ("threads_per_proc", Value::int((geo.tx * geo.ty) as u64)),
                    ("nic_contexts", Value::int(24)),
                    ("nine_point", Value::Bool(cfg.nine_point)),
                    ("iters", Value::int(cfg.iters as u64)),
                ]),
            ),
            ("comm_map", mech_json(&comm_rep, comm_nic)),
            ("endpoints", mech_json(&ep_rep, ep_nic)),
            (
                "comm_over_ep",
                Value::Num(
                    (comm_rep.per_iter - cfg.compute).as_ns() as f64
                        / (ep_rep.per_iter - cfg.compute).as_ns() as f64,
                ),
            ),
        ]),
    );

    takeaway(
        "hypre's communication takes >2x longer with communicators than with other \
         mechanisms on Omni-Path because 808 communicators oversubscribe 160 \
         hardware contexts (Lesson 3, [68])",
        &format!(
            "communicator map's communication takes {} longer than endpoints' \
             ({} channels on {} contexts, {:.1}x oversubscribed, vs {} dedicated)",
            ratio(
                (comm_rep.per_iter - cfg.compute).as_ns() as f64,
                (ep_rep.per_iter - cfg.compute).as_ns() as f64
            ),
            comm_rep.channels_created,
            comm_rep.hw_contexts_used,
            comm_rep.oversubscription,
            ep_rep.channels_created,
        ),
    );
}
