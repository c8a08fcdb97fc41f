//! The paper's case as one checked table. Each [`Row`] runs one experiment
//! of `EXPERIMENTS.md` on its figure's workload configuration, names the
//! simulated values, and says whether the paper's own statement (an
//! ordering, or a magnitude where the paper gives one) held on them; [`check`]
//! holds it to its [`Status`]. `tests/paper.rs` checks every row in tier-1;
//! the `paper` bench prints the table and writes `BENCH_paper.json`.

use rankmpi_core::matching::EngineKind;
use rankmpi_core::tag::{bits_for, TagLayout, TagPlacement, TAG_BITS};
use rankmpi_core::vci::Vci;
use rankmpi_core::{BufferedPrecv, BufferedPsend, Info, Universe};
use rankmpi_fabric::NetworkProfile;
use rankmpi_obs::json::Value;
use rankmpi_vtime::{Nanos, VirtualBarrier};
use rankmpi_workloads::commcount::{communicators_required_3d, min_channels_3d};
use rankmpi_workloads::graph::{run_graph, GraphConfig, GraphMode};
use rankmpi_workloads::legion::{run_legion, LegionConfig, LegionMode};
use rankmpi_workloads::measure;
use rankmpi_workloads::msgrate::{run_rate, RateConfig, RateMode};
use rankmpi_workloads::nwchem::{expected_checksum, run_nwchem, NwchemConfig, RmaMode};
use rankmpi_workloads::smilei::{run_smilei, SmileiConfig, SmileiMode};
use rankmpi_workloads::stencil::halo::{run_halo, HaloConfig, HaloMechanism, HaloReport};
use rankmpi_workloads::stencil::maps::{colored_map, listing1_map_5pt, naive_map_5pt, Geometry};
use rankmpi_workloads::stencil::stencil3d::{colored_map3, Dir3, Geometry3};
use rankmpi_workloads::vasp::{expected_sum, run_vasp, VaspConfig, VaspMode};
use rankmpi_workloads::wombat::{run_wombat, WombatConfig, WombatMode};

/// How [`check`] holds a row's claim.
#[derive(Clone, Copy, Debug)]
pub enum Status {
    /// The claim must hold.
    Holds,
    /// The claim must not hold. A row that starts holding fails the check,
    /// so the status can only be flipped on purpose.
    Fails,
    /// Printed, not asserted: the result changes from run to run until
    /// simulated time is deterministic (ROADMAP item 1).
    Varies,
}

/// What one run of a row measured.
pub struct Outcome {
    /// Named simulated values, in print order.
    pub values: Vec<(&'static str, Value)>,
    /// Whether the paper's claim held on these values.
    pub held: bool,
}

impl Outcome {
    /// The scalar values as `name=value` pairs (the rest is JSON-only).
    pub fn measured(&self) -> String {
        let mut pairs = Vec::new();
        for (k, v) in &self.values {
            match v {
                Value::Num(n) if n.fract() == 0.0 => pairs.push(format!("{k}={n}")),
                Value::Num(n) => pairs.push(format!("{k}={n:.3}")),
                Value::Bool(b) => pairs.push(format!("{k}={b}")),
                _ => {}
            }
        }
        pairs.join(" ")
    }
}

/// One experiment of the paper.
pub struct Row {
    /// The `EXPERIMENTS.md` id (`E1`–`E15`), suffixed where it has two claims.
    pub id: &'static str,
    /// The paper's claim.
    pub claim: &'static str,
    /// Runs the workload and judges the claim.
    pub run: fn() -> Outcome,
    /// What [`check`] expects of the claim.
    pub status: Status,
}

/// `Err` naming the row and its values when `out` contradicts the row's
/// status.
pub fn check(row: &Row, out: &Outcome) -> Result<(), String> {
    let broken = match (row.status, out.held) {
        (Status::Holds, false) => "expected to hold, failed",
        (Status::Fails, true) => "expected to fail, now holds (flip its status)",
        _ => return Ok(()),
    };
    Err(format!("{}: claim {broken}: {}", row.id, out.measured()))
}

/// Every row, in `EXPERIMENTS.md` order.
pub static ROWS: &[Row] = &[
    Row {
        id: "E1",
        claim: "MPI everywhere and VCI-mapped MPI+threads scale together; the shared-channel \
                Original line stays flat (Fig. 1a)",
        run: fig1a,
        status: Status::Holds,
    },
    Row {
        id: "E2",
        claim: "Uintah/hypre runs ~2x faster once MPI+threads communication is logically \
                parallel, and the gap persists at scale (Fig. 1b)",
        run: fig1b,
        status: Status::Holds,
    },
    Row {
        id: "E3",
        claim: "the Legion circuit workload gains from logically parallel communication: \
                injection scales once each task thread owns a channel (Fig. 1c)",
        run: fig1c_injection,
        status: Status::Holds,
    },
    Row {
        id: "E4",
        claim: "the ideal map needs one comm per edge thread per direction (with corner \
                threads sharing), is non-obvious to construct, and the intuitive map exposes \
                only half the parallelism (Lessons 1-2)",
        run: fig4,
        status: Status::Holds,
    },
    Row {
        id: "E5",
        claim: "a [4,4,4] 27-pt stencil needs 808 communicators against 56 channels, and \
                hypre's communication takes >2x longer with communicators than with other \
                mechanisms on Omni-Path because they oversubscribe the hardware contexts \
                (Lesson 3)",
        run: lesson3,
        status: Status::Holds,
    },
    Row {
        id: "E6",
        claim: "Legion's polling thread processes events 1.63x slower with communicators \
                than with endpoints, and is cheapest on one wildcard endpoint at every \
                Fig. 1(c) width (Lesson 5)",
        run: lesson5_poller,
        status: Status::Holds,
    },
    Row {
        id: "E6.graph",
        claim: "dynamic patterns need O(T^2) pre-created communicators but only O(T) \
                endpoints (Lesson 5)",
        run: lesson5_graph,
        status: Status::Holds,
    },
    Row {
        id: "E7",
        claim: "without the implementation-specific one-to-one hint the application is at \
                the mercy of the library's tag hash (Lesson 7)",
        run: lesson7,
        status: Status::Fails,
    },
    Row {
        id: "E8",
        claim: "applications already hit tag overflow (SNAP, Smilei, MITgcm); encoding \
                parallelism into tags exacerbates it (Lesson 9)",
        run: lesson9,
        status: Status::Holds,
    },
    Row {
        id: "E9",
        claim: "threads share the partitioned request, so they contend on its resources or \
                synchronize to poll completion; the other designs allow complete \
                independence (Lesson 14)",
        run: lesson14,
        status: Status::Holds,
    },
    Row {
        id: "E9.grows",
        claim: "the partitioned halo's cost over endpoints grows with the threads sharing \
                the request (Lesson 14)",
        run: lesson14_growth,
        status: Status::Varies,
    },
    Row {
        id: "E10",
        claim: "default window semantics forbid exposing parallel atomics; \
                accumulate_ordering=none + hashing helps but collides; endpoints map \
                one-to-one while preserving atomicity (Lesson 16)",
        run: lesson16,
        status: Status::Holds,
    },
    Row {
        id: "E11",
        claim: "VASP-style parallel collectives on per-thread communicators run over 2x \
                faster than the funneled approach (Lesson 18); endpoint collectives are \
                one-step but duplicate the result per endpoint (Lesson 19)",
        run: lesson18,
        status: Status::Holds,
    },
    Row {
        id: "E12",
        claim: "Pready/Parrived let the serial message setup run on the CPU before kernel \
                launch, leaving only lightweight triggers on the device (Lesson 20)",
        run: lesson20,
        status: Status::Holds,
    },
    Row {
        id: "E15",
        claim: "double buffering dampens the shared-request synchronization (Lesson 14); \
                the design ordering is portable across fabrics (Lessons 8 and 12); the \
                Lesson 3 gap scales with the shared-context software cost",
        run: ablations,
        status: Status::Holds,
    },
];

fn ns(t: Nanos) -> Value {
    Value::int(t.as_ns())
}

fn num(x: f64) -> Value {
    Value::Num(x)
}

fn count(n: usize) -> Value {
    Value::int(n as u64)
}

fn ratio(num: Nanos, den: Nanos) -> f64 {
    num.as_ns() as f64 / den.as_ns() as f64
}

/// `px` x `py` processes of `t` x `t` threads.
fn grid(px: usize, py: usize, t: usize) -> Geometry {
    Geometry {
        px,
        py,
        tx: t,
        ty: t,
    }
}

fn fig1a() -> Outcome {
    use RateMode::{Everywhere, ThreadsEndpoints, ThreadsOriginal, ThreadsPerCommVci};
    let cfg = RateConfig::default();
    let modes = [
        Everywhere,
        ThreadsOriginal,
        ThreadsPerCommVci,
        ThreadsEndpoints,
    ];
    let rates = [1, 2, 4, 8, 16].map(|c| modes.map(|mode| run_rate(mode, c, &cfg).mmsgs_per_sec));
    // "Together" is a 1.00x ratio at two decimals; "flat" is less than one
    // doubling over the one-core rate at any width.
    let together = |a: f64, b: f64| (a / b - 1.0).abs() < 0.005;
    let held = rates.iter().all(|&[every, orig, vci, eps]| {
        together(vci, every) && together(eps, every) && orig < 2.0 * rates[0][1]
    });
    let [every, orig, vci, eps] = rates[4];
    Outcome {
        values: vec![
            ("everywhere_mmsgs_16", num(every)),
            ("original_mmsgs_1", num(rates[0][1])),
            ("original_mmsgs_16", num(orig)),
            ("everywhere_over_original_16", num(every / orig)),
            ("vci_over_everywhere_16", num(vci / every)),
            ("endpoints_over_everywhere_16", num(eps / every)),
        ],
        held,
    }
}

fn fig1b() -> Outcome {
    use HaloMechanism::{Endpoints, SingleComm, TagsOneToOne};
    let per_grid = [(2, 2), (4, 2), (4, 4)].map(|(px, py)| {
        let cfg = HaloConfig {
            geo: grid(px, py, 4),
            iters: 8,
            elems_per_face: 1024,
            nine_point: true,
            compute: Nanos::us(3),
            ..HaloConfig::default()
        };
        [SingleComm, TagsOneToOne, Endpoints].map(|mech| run_halo(mech, &cfg).per_iter)
    });
    let speedups = per_grid.iter().map(|&[orig, _, eps]| ratio(orig, eps));
    let min_speedup = speedups.fold(f64::INFINITY, f64::min);
    let [orig, tags, eps] = per_grid[2];
    Outcome {
        values: vec![
            ("original_ns_4x4", ns(orig)),
            ("tags_one_to_one_ns_4x4", ns(tags)),
            ("endpoints_ns_4x4", ns(eps)),
            ("min_original_over_endpoints", num(min_speedup)),
            ("tags_over_endpoints_4x4", num(ratio(tags, eps))),
        ],
        held: min_speedup >= 2.0,
    }
}

/// Fig. 1(c) at 2/4/8/12 task threads: injection in M events/s and poller
/// cost per event, for Original, communicator iteration and endpoints.
fn legion_sweep() -> [[(f64, Nanos); 3]; 4] {
    use LegionMode::{CommPerThread, Endpoints, SingleComm};
    [2, 4, 8, 12].map(|t| {
        let cfg = LegionConfig {
            task_threads: t,
            events_per_thread: 60,
            task_compute: Nanos(0), // saturate the injection path
            ..LegionConfig::default()
        };
        [SingleComm, CommPerThread, Endpoints].map(|mode| {
            let rep = run_legion(mode, &cfg);
            let inject = rep.events as f64 / rep.task_time.as_secs_f64() / 1e6;
            (inject, rep.poller_busy / rep.events as u64)
        })
    })
}

fn fig1c_injection() -> Outcome {
    let inject = legion_sweep().map(|w| w.map(|m| m.0));
    let wins = inject.iter().all(|w| w[1] > w[0] && w[2] > w[0]);
    let scales = inject.windows(2).all(|p| p[1][2] > p[0][2]);
    let [orig, _, eps] = inject[3];
    Outcome {
        values: vec![
            ("original_mevents_12", num(orig)),
            ("endpoints_mevents_12", num(eps)),
            ("endpoints_over_original_12", num(eps / orig)),
        ],
        held: wins && scales,
    }
}

fn fig4() -> Outcome {
    let geo = grid(2, 2, 3);
    let listing1 = listing1_map_5pt(geo);
    let naive = naive_map_5pt(geo);
    let colored5 = colored_map(geo, false, false);
    let nine_plain = colored_map(geo, true, false);
    let nine_ideal = colored_map(geo, true, true);
    for map in [&listing1, &naive, &colored5, &nine_plain, &nine_ideal] {
        map.validate_matching()
            .unwrap_or_else(|e| panic!("{} must match consistently: {e}", map.label));
    }
    let held = listing1.max_threads_sharing_a_comm() == 1
        && naive.max_threads_sharing_a_comm() > 1
        && naive.exposed_parallelism() < listing1.exposed_parallelism()
        && nine_ideal.n_comms() < nine_plain.n_comms();
    Outcome {
        values: vec![
            ("listing1_comms", count(listing1.n_comms())),
            ("listing1_exposed", count(listing1.exposed_parallelism())),
            ("naive_comms", count(naive.n_comms())),
            ("naive_exposed", count(naive.exposed_parallelism())),
            (
                "naive_max_sharing",
                count(naive.max_threads_sharing_a_comm()),
            ),
            ("colored_5pt_comms", count(colored5.n_comms())),
            ("colored_9pt_comms", count(nine_plain.n_comms())),
            ("ideal_9pt_comms", count(nine_ideal.n_comms())),
        ],
        held,
    }
}

/// Lesson 3's halo exchange: 6x6 threads per process need a 9-pt
/// communicator map far larger than a 24-context NIC's pool, while endpoints
/// stay within it.
fn lesson3_halo(profile: NetworkProfile) -> HaloConfig {
    HaloConfig {
        geo: grid(2, 2, 6),
        iters: 6,
        elems_per_face: 1024,
        nine_point: true,
        compute: Nanos::us(2),
        profile,
        ..HaloConfig::default()
    }
}

fn lesson3() -> Outcome {
    // An independently constructed 3D 27-pt map, to confront the closed form.
    let greedy = [[2, 2, 2], [3, 3, 3], [4, 4, 4]].map(|t| {
        let map = colored_map3(Geometry3 { p: [2, 2, 2], t }, &Dir3::all(), true);
        map.validate_matching().expect("3D map must match");
        map.n_comms()
    });

    let cfg = lesson3_halo(NetworkProfile::constrained(24));
    let comm = run_halo(HaloMechanism::CommMapFig4, &cfg);
    let eps = run_halo(HaloMechanism::Endpoints, &cfg);

    // The >2x claim is about communication time: the compute phase is
    // identical, so subtract it.
    let comm_time = |r: &HaloReport| r.per_iter - cfg.compute;
    let mech_json = |r: &HaloReport| {
        Value::obj([
            ("mechanism", Value::str(r.mechanism)),
            ("channels", count(r.channels_created)),
            ("hw_contexts", count(r.hw_contexts_used)),
            ("oversubscription", num(r.oversubscription)),
            ("comm_per_iter_ns", ns(comm_time(r))),
            ("per_iter_ns", ns(r.per_iter)),
            ("gate_contention_ns", ns(r.gate_contention)),
        ])
    };
    let required = communicators_required_3d(4, 4, 4);
    let min_channels = min_channels_3d(4, 4, 4);
    let comm_over_ep = ratio(comm_time(&comm), comm_time(&eps));
    let config = Value::obj([
        ("threads_per_proc", count(cfg.geo.tx * cfg.geo.ty)),
        ("nic_contexts", count(24)),
        ("nine_point", Value::Bool(cfg.nine_point)),
        ("iters", count(cfg.iters)),
    ]);
    Outcome {
        values: vec![
            ("required_444", count(required)),
            ("min_channels_444", count(min_channels)),
            ("greedy_222", count(greedy[0])),
            ("greedy_333", count(greedy[1])),
            ("greedy_444", count(greedy[2])),
            ("comm_channels", count(comm.channels_created)),
            ("endpoint_channels", count(eps.channels_created)),
            ("comm_over_ep", num(comm_over_ep)),
            ("config", config),
            ("comm_map", mech_json(&comm)),
            ("endpoints", mech_json(&eps)),
        ],
        held: required == 808 && min_channels == 56 && comm_over_ep > 2.0,
    }
}

fn lesson5_poller() -> Outcome {
    let slowdowns = [4, 8, 12, 16].map(|t| {
        let cfg = LegionConfig {
            task_threads: t,
            events_per_thread: 60,
            ..LegionConfig::default()
        };
        let comms = run_legion(LegionMode::CommPerThread, &cfg);
        let eps = run_legion(LegionMode::Endpoints, &cfg);
        ratio(comms.poller_busy, eps.poller_busy)
    });
    let per_event = legion_sweep();
    let dearer = per_event.iter().filter(|w| w[1].1 > w[2].1).count();
    Outcome {
        values: vec![
            ("slowdown_4", num(slowdowns[0])),
            ("slowdown_8", num(slowdowns[1])),
            ("slowdown_12", num(slowdowns[2])),
            ("slowdown_16", num(slowdowns[3])),
            ("fig1c_comm_poll_ns_12", ns(per_event[3][1].1)),
            ("fig1c_endpoint_poll_ns_12", ns(per_event[3][2].1)),
            ("fig1c_widths_comm_dearer", count(dearer)),
        ],
        held: slowdowns.iter().all(|&s| s > 1.0) && dearer == per_event.len(),
    }
}

fn lesson5_graph() -> Outcome {
    let cfg = GraphConfig::default();
    let comms = run_graph(GraphMode::PairwiseComms, &cfg).channels_created;
    let eps = run_graph(GraphMode::Endpoints, &cfg).channels_created;
    Outcome {
        values: vec![
            ("threads", count(cfg.threads)),
            ("pairwise_comms", count(comms)),
            ("endpoints", count(eps)),
        ],
        held: comms == cfg.threads * cfg.threads && eps == cfg.threads,
    }
}

fn lesson7() -> Outcome {
    use HaloMechanism::{SingleComm, TagsHashed, TagsOneToOne};
    let cfg = HaloConfig {
        geo: grid(2, 2, 4),
        iters: 8,
        elems_per_face: 2048,
        compute: Nanos::us(2),
        ..HaloConfig::default()
    };
    let [original, hashed, one_to_one] =
        [SingleComm, TagsHashed, TagsOneToOne].map(|mech| run_halo(mech, &cfg).per_iter);
    Outcome {
        values: vec![
            ("no_hints_ns", ns(original)),
            ("hashed_ns", ns(hashed)),
            ("one_to_one_ns", ns(one_to_one)),
        ],
        held: one_to_one < hashed && one_to_one < original,
    }
}

fn lesson9() -> Outcome {
    use SmileiMode::{Original, TagsUpgraded};
    // The tag-space budget: application bits left once src+dst thread ids
    // are encoded, per threads/process.
    let app_bits = [1, 4, 16, 64, 256, 1024, 4096]
        .map(|t| Some(TagLayout::for_threads(t, TagPlacement::Msb).ok()?.app_bits));
    // `None`, a layout that does not fit, sorts below every budget.
    let shrinks = app_bits.windows(2).all(|p| p[1] < p[0] || p[1].is_none());
    // A Smilei-like application already needs 16 tag bits of its own.
    let max_threads = (1..=4096)
        .filter(|&t| 2 * bits_for(t) + 16 <= TAG_BITS)
        .max()
        .unwrap_or(0);

    // The Smilei-style exchange end to end: the tags upgrade is the
    // least-change path (Lesson 6) but pays the tag budget; endpoints hand
    // the tid bits back to the application.
    let cfg = SmileiConfig {
        threads: 8,
        patches_per_thread: 4,
        iters: 5,
        mean_bytes: 4096,
        ..SmileiConfig::default()
    };
    let [original, tags, eps] =
        [Original, TagsUpgraded, SmileiMode::Endpoints].map(|mode| run_smilei(mode, &cfg));

    // The flip side: when parallelism cannot move into tags, all traffic
    // multiplexes over one communicator and the receiver's queues go deep.
    // A tag-overflowed consumer drains patches in its own order, not
    // arrival order — the worst case for a linear scan.
    let patches = 256i64;
    let mut totals = Vec::new();
    let mut engines = Vec::new();
    for kind in EngineKind::all() {
        let uni = Universe::builder().nodes(2).matching(kind).build();
        let out = uni.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            measure::begin(&mut th);
            let counters = if env.rank() == 0 {
                for t in 0..patches {
                    world.send(&mut th, 1, t, &[7u8; 64][..]).unwrap();
                }
                None
            } else {
                for t in (0..patches).rev() {
                    world.recv(&mut th, 0, t).unwrap();
                }
                Some(engine_counters(&env.proc().vci(world.vci_block()[0])))
            };
            (measure::elapsed(&th), counters)
        });
        let total = out.iter().map(|(t, _)| *t).max().unwrap();
        let counters = out.into_iter().find_map(|(_, c)| c).unwrap();
        assert!(
            totals.first().is_none_or(|&linear| total <= linear),
            "{} matching must not be slower than linear on the deep-queue drain",
            kind.name()
        );
        totals.push(total);
        engines.push(Value::obj([
            ("total_time_ns", ns(total)),
            ("receiver_counters", counters),
        ]));
    }

    let bits = |b: Option<u32>| b.map_or(Value::Null, |b| Value::int(b.into()));
    Outcome {
        values: vec![
            ("app_bits_16_threads", bits(app_bits[2])),
            ("app_bits_1024_threads", bits(app_bits[5])),
            ("fits_4096_threads", Value::Bool(app_bits[6].is_some())),
            ("threads_with_16_app_bits", count(max_threads)),
            ("smilei_original_ns", ns(original.total_time)),
            ("smilei_tags_ns", ns(tags.total_time)),
            ("smilei_endpoints_ns", ns(eps.total_time)),
            ("smilei_tags_bits", bits(Some(tags.tag_bits_used))),
            ("smilei_endpoints_bits", bits(Some(eps.tag_bits_used))),
            ("linear_over_seq_merged", num(ratio(totals[0], totals[1]))),
            ("patches", Value::int(patches as u64)),
            ("engines", Value::Arr(engines)),
        ],
        held: shrinks && app_bits[6].is_none(),
    }
}

/// One VCI's matching-engine counters: queue depths, matches and scan work,
/// polls, and the engine-lock series.
fn engine_counters(vci: &Vci) -> Value {
    Value::obj([
        ("engine", Value::str(vci.engine_kind().name())),
        ("posted_len", Value::int(vci.posted_depth() as u64)),
        ("unexpected_len", Value::int(vci.unexpected_depth() as u64)),
        ("matched", Value::int(vci.matched())),
        ("match_scanned", Value::int(vci.match_scanned())),
        (
            "match_wildcard_scanned",
            Value::int(vci.match_wildcard_scanned()),
        ),
        ("polls", Value::int(vci.polls())),
        ("lock_acquires", Value::int(vci.lock_acquires())),
        (
            "lock_acquires_contended",
            Value::int(vci.lock_acquires_contended()),
        ),
        ("lock_hold_ns", Value::int(vci.lock_hold_stats().sum())),
    ])
}

/// Partitioned over endpoints per iteration of Lesson 14's halo at 2x2/3x3/4x4
/// threads under 2x load imbalance: endpoints couple only neighbors, while the
/// `omp single` completion barrier makes every thread absorb the maximum.
fn partitioned_gaps() -> [f64; 3] {
    [2, 3, 4].map(|t| {
        let cfg = HaloConfig {
            geo: grid(2, 2, t),
            iters: 6,
            compute: Nanos::us(15),
            compute_jitter: 1.0,
            ..HaloConfig::default()
        };
        let eps = run_halo(HaloMechanism::Endpoints, &cfg);
        let part = run_halo(HaloMechanism::Partitioned, &cfg);
        ratio(part.per_iter, eps.per_iter)
    })
}

/// Virtual time the send side loses to the shared request lock while
/// `threads` persistent threads hammer `pready` for 10 iterations.
fn shared_request_contention(threads: usize) -> Nanos {
    let iters = 10;
    let uni = Universe::builder()
        .nodes(2)
        .threads_per_proc(threads)
        .num_vcis(threads)
        .build();
    let contention = uni.run(|env| {
        let world = env.world();
        let mut setup = env.single_thread();
        if env.rank() == 0 {
            let sreq = world
                .psend_init(&mut setup, 1, 0, threads, 64, &Info::new())
                .unwrap();
            let team = VirtualBarrier::new(threads);
            env.parallel(|th| {
                for _ in 0..iters {
                    if th.tid() == 0 {
                        sreq.start(th).unwrap();
                    }
                    team.wait(&mut th.clock);
                    sreq.pready(th, th.tid(), &[0u8; 64]).unwrap();
                    team.wait(&mut th.clock);
                    if th.tid() == 0 {
                        sreq.wait(th).unwrap();
                    }
                    team.wait(&mut th.clock);
                }
            });
            sreq.shared_contention()
        } else {
            let rreq = world
                .precv_init(&mut setup, 0, 0, threads, 64, &Info::new())
                .unwrap();
            for _ in 0..iters {
                rreq.start(&mut setup).unwrap();
                rreq.wait(&mut setup).unwrap();
            }
            rreq.shared_contention()
        }
    });
    contention[0]
}

fn lesson14() -> Outcome {
    let gaps = partitioned_gaps();
    let min_gap = gaps.iter().copied().fold(f64::INFINITY, f64::min);
    let lock = [1, 2, 4, 8].map(shared_request_contention);
    Outcome {
        values: vec![
            ("min_partitioned_over_endpoints", num(min_gap)),
            ("lock_contention_ns_1", ns(lock[0])),
            ("lock_contention_ns_8", ns(lock[3])),
        ],
        held: min_gap > 1.0 && lock.windows(2).all(|p| p[1] > p[0]),
    }
}

fn lesson14_growth() -> Outcome {
    let gaps = partitioned_gaps();
    Outcome {
        values: vec![
            ("partitioned_over_endpoints_2x2", num(gaps[0])),
            ("partitioned_over_endpoints_4x4", num(gaps[2])),
        ],
        held: gaps[2] > gaps[0],
    }
}

fn lesson16() -> Outcome {
    use RmaMode::{OrderedSingle, RelaxedHashed};
    use WombatMode::{EndpointsOneWindow, SingleWindow, WindowPerThread};
    let cfg = NwchemConfig {
        procs: 2,
        threads: 8,
        tiles: 32,
        tile_elems: 2048,
        steps: 12,
        compute: Nanos::us(2),
        ..NwchemConfig::default()
    };
    let [ordered, relaxed, eps] = [OrderedSingle, RelaxedHashed, RmaMode::Endpoints].map(|mode| {
        let rep = run_nwchem(mode, &cfg);
        assert_eq!(rep.checksum, expected_checksum(&cfg), "atomicity violated");
        rep
    });

    // The nonatomic sibling (WOMBAT-style puts, Section II-A): one window vs
    // window-per-thread vs endpoints.
    let wcfg = WombatConfig {
        threads: 8,
        patch_bytes: 8192,
        iters: 6,
        ..WombatConfig::default()
    };
    let [single, per_thread, eps_window] = [SingleWindow, WindowPerThread, EndpointsOneWindow]
        .map(|mode| run_wombat(mode, &wcfg).per_iter);

    let ordered_over_relaxed = ratio(ordered.total_time, relaxed.total_time);
    let held = ordered_over_relaxed > 1.0
        && relaxed.vci_imbalance > eps.vci_imbalance
        && eps.distinct_vcis_used == cfg.threads;
    Outcome {
        values: vec![
            ("ordered_ns", ns(ordered.total_time)),
            ("relaxed_hash_ns", ns(relaxed.total_time)),
            ("endpoints_ns", ns(eps.total_time)),
            ("ordered_over_relaxed", num(ordered_over_relaxed)),
            ("hash_imbalance", num(relaxed.vci_imbalance)),
            ("endpoints_imbalance", num(eps.vci_imbalance)),
            ("endpoints_vcis", count(eps.distinct_vcis_used)),
            ("wombat_single_window_ns", ns(single)),
            ("wombat_window_per_thread_ns", ns(per_thread)),
            ("wombat_endpoints_ns", ns(eps_window)),
        ],
        held,
    }
}

fn lesson18() -> Outcome {
    use VaspMode::{EndpointsOneStep, Funneled, MultiCommSegmented};
    let cfg = VaspConfig {
        procs: 4,
        threads: 4,
        elems: 16384,
        repeats: 3,
        ..VaspConfig::default()
    };
    let [funneled, segmented, eps] = [Funneled, MultiCommSegmented, EndpointsOneStep].map(|mode| {
        let rep = run_vasp(mode, &cfg);
        assert_eq!(rep.first_elem, expected_sum(&cfg), "wrong reduction result");
        rep
    });
    // Lesson 19: every endpoint but one holds a redundant copy of the
    // process's f64 result.
    let duplicate = cfg.procs * (cfg.threads - 1) * cfg.elems * 8;
    let speedup = ratio(funneled.total_time, segmented.total_time);
    Outcome {
        values: vec![
            ("funneled_ns", ns(funneled.total_time)),
            ("segmented_ns", ns(segmented.total_time)),
            ("endpoints_ns", ns(eps.total_time)),
            ("funneled_over_segmented", num(speedup)),
            ("duplicated_bytes", count(eps.duplicated_bytes)),
        ],
        held: speedup > 2.0 && eps.duplicated_bytes == duplicate,
    }
}

/// The cost parameters of a CPU+GPU node: Lesson 20's closed-form model of
/// device-initiated communication.
///
/// The paper's heterogeneous-computing argument is about *where* the serial
/// cost of setting up a network message runs: partitioned communication lets
/// the expensive `P{send,recv}_init` run on a low-latency CPU core before
/// kernel launch, leaving only lightweight `Pready`/`Parrived` triggers to the
/// GPU — whereas full MPI operations initiated on-device pay the high-latency
/// compute-unit setup per message, and CPU-proxy schemes pay a kernel
/// launch + control-return round trip per communication phase. No real GPU
/// is involved (the paper's own discussion is forward-looking).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DeviceProfile {
    /// Launching a GPU kernel from the host.
    kernel_launch: Nanos,
    /// Returning control from device to host (sync + callback).
    control_return: Nanos,
    /// Building a full network message descriptor on a GPU compute unit.
    device_msg_setup: Nanos,
    /// A lightweight device-side trigger (`Pready` flag / doorbell).
    device_trigger: Nanos,
    /// Building a full network message descriptor on a CPU core.
    cpu_msg_setup: Nanos,
}

impl Default for DeviceProfile {
    fn default() -> Self {
        DeviceProfile {
            kernel_launch: Nanos::us(8),
            control_return: Nanos::us(4),
            device_msg_setup: Nanos::us(3),
            device_trigger: Nanos(200),
            cpu_msg_setup: Nanos(400),
        }
    }
}

impl DeviceProfile {
    /// CPU-proxy pattern: the GPU computes; each iteration control returns to
    /// the CPU, which issues every message, then relaunches the kernel.
    pub(crate) fn cpu_proxy(&self, iterations: u64, msgs_per_iter: u64) -> Nanos {
        (self.control_return + self.kernel_launch) * iterations
            + self.cpu_msg_setup * (iterations * msgs_per_iter)
    }

    /// Hypothetical fully device-initiated MPI: a persistent kernel issues
    /// every message with full setup on a compute unit (the expensive path
    /// the paper cites as an open problem).
    pub(crate) fn device_full(&self, iterations: u64, msgs_per_iter: u64) -> Nanos {
        self.kernel_launch + self.device_msg_setup * (iterations * msgs_per_iter)
    }

    /// Partitioned device-initiated: `P*_init` on the CPU once, lightweight
    /// triggers from the device per partition — but control still returns to
    /// the CPU each iteration for `MPI_Wait` before the next partitions can
    /// be issued (the Lesson 20 caveat).
    pub(crate) fn device_partitioned(&self, iterations: u64, msgs_per_iter: u64) -> Nanos {
        self.cpu_msg_setup * msgs_per_iter // one-time init of the persistent op
            + self.kernel_launch
            + self.device_trigger * (iterations * msgs_per_iter)
            + (self.control_return + self.kernel_launch) * iterations // Wait each iter
    }
}

fn lesson20() -> Outcome {
    let p = DeviceProfile::default();
    let held = [(100, 8), (100, 64), (1000, 8), (1000, 64)]
        .into_iter()
        .all(|(iters, msgs)| {
            let part = p.device_partitioned(iters, msgs);
            part < p.cpu_proxy(iters, msgs) && part < p.device_full(iters, msgs)
        });
    Outcome {
        values: vec![
            ("cpu_proxy_ns_1000x64", ns(p.cpu_proxy(1000, 64))),
            ("device_full_ns_1000x64", ns(p.device_full(1000, 64))),
            ("partitioned_ns_1000x64", ns(p.device_partitioned(1000, 64))),
            ("control_returns_1000x64", Value::int(1000)),
        ],
        held,
    }
}

fn ablations() -> Outcome {
    // 1. The shared-context software penalty on the Lesson 3 workload.
    let penalty_gaps = [0, 500, 1_000, 2_000, 4_000].map(|penalty| {
        let mut profile = NetworkProfile::constrained(24);
        profile.shared_context_penalty = Nanos(penalty);
        let cfg = lesson3_halo(profile);
        let comm = run_halo(HaloMechanism::CommMapFig4, &cfg);
        let eps = run_halo(HaloMechanism::Endpoints, &cfg);
        ratio(comm.per_iter - cfg.compute, eps.per_iter - cfg.compute)
    });

    // 2. Network-profile portability: magnitudes shift, the ordering holds.
    let fabrics = [
        NetworkProfile::omni_path(),
        NetworkProfile::infiniband(),
        NetworkProfile::slingshot(),
    ]
    .map(|profile| {
        let cfg = HaloConfig {
            geo: grid(2, 2, 4),
            iters: 6,
            elems_per_face: 512,
            compute: Nanos::us(3),
            profile,
            ..HaloConfig::default()
        };
        let orig = run_halo(HaloMechanism::SingleComm, &cfg);
        let eps = run_halo(HaloMechanism::Endpoints, &cfg);
        ratio(orig.per_iter, eps.per_iter)
    });

    // 3. Partitioned pipeline depth: deeper pipelines hide more of the
    // per-iteration completion synchronization.
    let depths = [1, 2, 3].map(pipeline_time);

    let gap_grows = penalty_gaps.windows(2).all(|p| p[1] > p[0]);
    let ordering_portable = fabrics.iter().all(|&o| o >= 1.0);
    let buffering_dampens = depths.windows(2).all(|p| p[1] < p[0]);
    Outcome {
        values: vec![
            ("comm_over_ep_penalty_0", num(penalty_gaps[0])),
            ("comm_over_ep_penalty_4000", num(penalty_gaps[4])),
            ("original_over_endpoints_omnipath", num(fabrics[0])),
            ("original_over_endpoints_infiniband", num(fabrics[1])),
            ("original_over_endpoints_slingshot", num(fabrics[2])),
            ("depth1_over_depth2", num(ratio(depths[0], depths[1]))),
            ("depth1_over_depth3", num(ratio(depths[0], depths[2]))),
        ],
        held: gap_grows && ordering_portable && buffering_dampens,
    }
}

/// Total virtual time of 12 iterations of a 4-partition buffered stream at
/// pipeline `depth`, 2 nodes. The short fill phase lets the per-iteration
/// transfer-complete wait dominate at depth 1.
fn pipeline_time(depth: usize) -> Nanos {
    let (iters, parts) = (12, 4);
    let uni = Universe::builder().nodes(2).num_vcis(parts).build();
    let times = uni.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        let info = Info::new();
        measure::begin(&mut th);
        if env.rank() == 0 {
            let mut tx =
                BufferedPsend::new(&world, &mut th, 1, 500, depth, parts, 512, &info).unwrap();
            for i in 0..iters {
                th.compute(Nanos(200 + ((i * 7) % 5) as u64 * 100));
                tx.begin(&mut th).unwrap();
                for p in 0..parts {
                    tx.current().pready(&mut th, p, &[i as u8; 512]).unwrap();
                }
            }
            tx.finish(&mut th).unwrap();
        } else {
            let mut rx =
                BufferedPrecv::new(&world, &mut th, 0, 500, depth, parts, 512, &info).unwrap();
            for _ in 0..iters {
                rx.begin(&mut th).unwrap();
            }
            rx.finish(&mut th).unwrap();
        }
        measure::elapsed(&th)
    });
    *times.iter().max().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(ours_ns: u64, held: bool) -> Outcome {
        let values = vec![("ours_ns", Value::int(ours_ns)), ("theirs", Value::int(9))];
        Outcome { values, held }
    }

    #[test]
    fn check_names_the_row_and_its_values() {
        let row = |id, run, status| Row {
            id,
            claim: "ours is faster",
            run,
            status,
        };
        let x1 = row("X1", || outcome(11, false), Status::Holds);
        let e1 = check(&x1, &(x1.run)()).unwrap_err();
        assert!(
            e1.starts_with("X1:") && e1.contains("ours_ns=11 theirs=9"),
            "{e1}"
        );
        let x2 = row("X2", || outcome(7, true), Status::Fails);
        let e2 = check(&x2, &(x2.run)()).unwrap_err();
        assert!(
            e2.starts_with("X2:") && e2.contains("ours_ns=7 theirs=9"),
            "{e2}"
        );
        let x3 = row("X3", || outcome(11, false), Status::Varies);
        assert_eq!(check(&x3, &(x3.run)()), Ok(()));
    }
}
