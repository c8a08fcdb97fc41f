//! Executable 2D halo exchange under every mechanism (Listings 1–4).

use std::sync::Arc;

use rankmpi_core::info::keys;
use rankmpi_core::tag::{TagLayout, TagPlacement};
use rankmpi_core::{Communicator, Info, LaunchMode, Universe};
use rankmpi_core::{PrecvRequest, PsendRequest};
use rankmpi_fabric::NetworkProfile;
use rankmpi_vtime::{Nanos, VirtualBarrier};

use super::maps::{colored_map, listing1_map_5pt, naive_map_5pt, CommMap, Dir2, Geometry};

/// Which design drives the halo exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaloMechanism {
    /// One shared communicator, tags demultiplex — "MPI+threads (Original)".
    SingleComm,
    /// Listing 1's mirrored communicator map (5-point).
    CommMapListing1,
    /// Lesson 2's naive map: correct matching, half the parallelism.
    CommMapNaive,
    /// Fig. 4's generated ideal map (greedy coloring, corner optimization).
    CommMapFig4,
    /// Listing 2: one communicator, MPI 4.0 assertions, tag bits → VCIs with
    /// the one-to-one hint.
    TagsOneToOne,
    /// Tags without the one-to-one hint: the library's hash decides
    /// (Lesson 7's "at the mercy of the hash").
    TagsHashed,
    /// Listing 3: one endpoint per thread, MPI-everywhere-style addressing.
    Endpoints,
    /// Listing 4: partitioned operations, one per direction, partition per
    /// edge thread, with the `omp single` completion synchronization.
    Partitioned,
}

impl HaloMechanism {
    /// Display label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            HaloMechanism::SingleComm => "MPI+threads (Original)",
            HaloMechanism::CommMapListing1 => "communicators (Listing 1)",
            HaloMechanism::CommMapNaive => "communicators (naive, Lesson 2)",
            HaloMechanism::CommMapFig4 => "communicators (Fig. 4 ideal)",
            HaloMechanism::TagsOneToOne => "tags + hints (one-to-one)",
            HaloMechanism::TagsHashed => "tags + hints (hashed)",
            HaloMechanism::Endpoints => "endpoints (Listing 3)",
            HaloMechanism::Partitioned => "partitioned (Listing 4)",
        }
    }
}

/// Halo-exchange configuration.
#[derive(Debug, Clone)]
pub struct HaloConfig {
    /// Grid geometry (periodic process torus).
    pub geo: Geometry,
    /// Exchange iterations.
    pub iters: usize,
    /// `f64` elements per halo face message.
    pub elems_per_face: usize,
    /// Include the diagonal exchanges (9-point). Partitioned supports only
    /// the 5-point pattern of Listing 4.
    pub nine_point: bool,
    /// Virtual compute time per iteration per thread.
    pub compute: Nanos,
    /// Compute imbalance: each thread's per-iteration compute is scaled by
    /// `1 + jitter * u` with deterministic pseudo-random `u ∈ [0, 1)` per
    /// (thread, iteration). Load imbalance is what makes global per-iteration
    /// synchronization (the partitioned design's `omp single` + barrier,
    /// Lesson 14) expensive relative to free-running neighbors-only coupling.
    pub compute_jitter: f64,
    /// Network profile.
    pub profile: NetworkProfile,
    /// How the universe launches simulated processes/threads: OS threads
    /// (default) or cooperative rank-tasks (required past a few hundred
    /// ranks — see [`LaunchMode::Tasks`]).
    pub launch: LaunchMode,
}

impl Default for HaloConfig {
    fn default() -> Self {
        HaloConfig {
            geo: Geometry {
                px: 2,
                py: 2,
                tx: 3,
                ty: 3,
            },
            iters: 10,
            elems_per_face: 64,
            nine_point: false,
            compute: Nanos::us(5),
            compute_jitter: 0.0,
            profile: NetworkProfile::omni_path(),
            launch: LaunchMode::Threads,
        }
    }
}

/// Deterministic per-(thread, iteration) compute time under the configured
/// jitter.
fn compute_time(cfg: &HaloConfig, proc: usize, tid: usize, iter: usize) -> Nanos {
    if cfg.compute_jitter == 0.0 {
        return cfg.compute;
    }
    let x = (proc as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((tid as u64) << 32)
        .wrapping_add(iter as u64)
        .wrapping_mul(0xD134_2543_DE82_EF95);
    let u = (x >> 40) as f64 / (1u64 << 24) as f64;
    cfg.compute.scale_f64(1.0 + cfg.compute_jitter * u)
}

/// Results of one halo run.
#[derive(Debug, Clone)]
pub struct HaloReport {
    /// Mechanism label.
    pub mechanism: &'static str,
    /// Slowest thread's total virtual time.
    pub total_time: Nanos,
    /// `total_time / iters`.
    pub per_iter: Nanos,
    /// Communicators (or endpoints / partitioned ops) created per process.
    pub channels_created: usize,
    /// Distinct NIC hardware contexts in use on node 0.
    pub hw_contexts_used: usize,
    /// Logical channels per hardware context on node 0 (1.0 = dedicated).
    pub oversubscription: f64,
    /// Total virtual time spent contending on context gates, node 0.
    pub gate_contention: Nanos,
    /// Every received halo matched its expected sender/iteration.
    pub verified: bool,
}

fn dir_idx(d: Dir2) -> usize {
    Dir2::ALL.iter().position(|x| *x == d).unwrap()
}

fn fill_payload(buf: &mut [u8], iter: usize, sender_proc: usize, sender_tid: usize, d: Dir2) {
    let stamp: u64 = ((iter as u64) << 32)
        | ((sender_proc as u64) << 16)
        | ((sender_tid as u64) << 4)
        | dir_idx(d) as u64;
    buf[..8].copy_from_slice(&stamp.to_le_bytes());
}

fn check_payload(buf: &[u8], iter: usize, sender_proc: usize, sender_tid: usize, d: Dir2) -> bool {
    let stamp: u64 = ((iter as u64) << 32)
        | ((sender_proc as u64) << 16)
        | ((sender_tid as u64) << 4)
        | dir_idx(d) as u64;
    buf[..8] == stamp.to_le_bytes()
}

/// Decode a payload stamp to `(iter, proc, tid, dir index)` for diagnostics.
fn decode_stamp(buf: &[u8]) -> (u64, u64, u64, u64) {
    let s = u64::from_le_bytes(buf[..8].try_into().unwrap());
    (s >> 32, (s >> 16) & 0xFFFF, (s >> 4) & 0xFFF, s & 0xF)
}

/// Run the halo exchange under `mech` and report timing + resource usage.
pub fn run_halo(mech: HaloMechanism, cfg: &HaloConfig) -> HaloReport {
    assert!(
        !(cfg.nine_point && mech == HaloMechanism::Partitioned),
        "Listing 4's partitioned pattern is 5-point"
    );
    let geo = cfg.geo;
    let dirs: &[Dir2] = if cfg.nine_point {
        &Dir2::ALL
    } else {
        &Dir2::CARDINAL
    };

    let map: Option<CommMap> = match mech {
        HaloMechanism::CommMapListing1 => Some(listing1_map_5pt(geo)),
        HaloMechanism::CommMapNaive => Some(naive_map_5pt(geo)),
        HaloMechanism::CommMapFig4 => Some(colored_map(geo, cfg.nine_point, true)),
        _ => None,
    };

    let nthreads = geo.n_threads();
    let num_vcis = match mech {
        HaloMechanism::SingleComm => 1,
        HaloMechanism::CommMapListing1
        | HaloMechanism::CommMapNaive
        | HaloMechanism::CommMapFig4 => map.as_ref().unwrap().n_comms() + 1,
        HaloMechanism::TagsOneToOne | HaloMechanism::TagsHashed => nthreads,
        HaloMechanism::Endpoints => 1,
        HaloMechanism::Partitioned => nthreads.clamp(4, 8),
    };

    let uni = Universe::builder()
        .nodes(geo.n_procs())
        .procs_per_node(1)
        .threads_per_proc(nthreads)
        .num_vcis(num_vcis)
        .profile(cfg.profile.clone())
        .launch(cfg.launch)
        .build();

    let map = map.map(Arc::new);
    let channels_created;

    let times: Vec<Nanos> = match mech {
        HaloMechanism::SingleComm => {
            channels_created = 1;
            run_tagged(&uni, cfg, dirs, None)
        }
        HaloMechanism::CommMapListing1
        | HaloMechanism::CommMapNaive
        | HaloMechanism::CommMapFig4 => {
            let map = map.unwrap();
            channels_created = map.n_comms();
            run_comm_map(&uni, cfg, dirs, map)
        }
        HaloMechanism::TagsOneToOne => {
            channels_created = 1;
            run_tagged(&uni, cfg, dirs, Some(true))
        }
        HaloMechanism::TagsHashed => {
            channels_created = 1;
            run_tagged(&uni, cfg, dirs, Some(false))
        }
        HaloMechanism::Endpoints => {
            channels_created = boundary_tids(geo, dirs).len();
            run_endpoints(&uni, cfg, dirs)
        }
        HaloMechanism::Partitioned => {
            channels_created = 2 * dirs.len();
            run_partitioned(&uni, cfg)
        }
    };

    let total_time = times.into_iter().max().unwrap();
    let nic = uni.shared().nic(0);
    let gate_contention: Nanos = nic.contexts().iter().map(|c| c.gate_contention()).sum();
    HaloReport {
        mechanism: mech.label(),
        total_time,
        per_iter: total_time / cfg.iters as u64,
        channels_created,
        hw_contexts_used: nic.contexts_in_use(),
        oversubscription: nic.oversubscription(),
        gate_contention,
        verified: true, // mismatches panic inside the run
    }
}

/// Run the halo exchange with the span tracer active, returning the report
/// plus the captured trace.
pub fn run_halo_traced(
    mech: HaloMechanism,
    cfg: &HaloConfig,
) -> (HaloReport, rankmpi_obs::trace::Trace) {
    rankmpi_obs::trace::session(|| run_halo(mech, cfg))
}

/// Per-thread exchange loop shared by the comm-map and tag mechanisms.
/// `comm_of(dir)` picks the communicator; `tag_of(dir, src_tid, dst_tid)`
/// picks the tag.
fn exchange_loop(
    th: &mut rankmpi_core::ThreadCtx,
    cfg: &HaloConfig,
    dirs: &[Dir2],
    my_proc: usize,
    send_comm_of: &dyn Fn(Dir2) -> Communicator,
    recv_comm_of: &dyn Fn(Dir2) -> Communicator,
    tag_of: &dyn Fn(Dir2, usize, usize) -> i64,
) {
    let geo = cfg.geo;
    let (rx, ry) = geo.proc_coords(my_proc);
    let tid = th.tid();
    let (tid_x, tid_y) = geo.tid_coords(tid);
    let bytes = cfg.elems_per_face * 8;
    let mut payload = vec![0u8; bytes];

    for iter in 0..cfg.iters {
        let mut reqs = Vec::with_capacity(2 * dirs.len());
        // Collect this iteration's boundary sends, then inject them as
        // per-communicator batches: all posts of one neighbor-exchange round
        // share a single gate acquisition and one amortized doorbell per
        // comm instead of paying the full injection path per direction.
        let mut sends: Vec<(Communicator, usize, i64, Vec<u8>)> = Vec::new();
        for &d in dirs {
            if !geo.crosses_proc(tid_x, tid_y, d) {
                // Intra-process halo: shared memory, modeled as a copy.
                th.clock.advance(th.proc().costs().copy_cost(bytes));
                continue;
            }
            let (nproc, ntid) = geo.neighbor(rx, ry, tid_x, tid_y, d);
            // Receive from the partner (its send direction is d.opposite()).
            let comm = recv_comm_of(d);
            let rtag = tag_of(d.opposite(), ntid, tid);
            reqs.push((comm.irecv(th, nproc as i64, rtag).unwrap(), nproc, ntid, d));
            // Queue ours (the shared fill buffer is cloned per direction —
            // the batch borrows every payload at once).
            fill_payload(&mut payload, iter, my_proc, tid, d);
            let stag = tag_of(d, tid, ntid);
            sends.push((send_comm_of(d), nproc, stag, payload.clone()));
        }
        let mut done = vec![false; sends.len()];
        for i in 0..sends.len() {
            if done[i] {
                continue;
            }
            let ctx = sends[i].0.context_id();
            let mut msgs: Vec<(usize, i64, &[u8])> = Vec::new();
            for (j, s) in sends.iter().enumerate() {
                if !done[j] && s.0.context_id() == ctx {
                    done[j] = true;
                    msgs.push((s.1, s.2, s.3.as_slice()));
                }
            }
            for r in sends[i].0.isend_multi(th, &msgs).unwrap() {
                r.wait(&mut th.clock);
            }
        }
        for (req, nproc, ntid, d) in reqs {
            let (_st, data) = req.wait(&mut th.clock);
            assert!(
                check_payload(&data, iter, nproc, ntid, d.opposite()),
                "halo mismatch at proc {my_proc} tid {tid} dir {d:?} iter {iter}: \
                 expected from proc {nproc} tid {ntid} {:?}, got {:?}",
                d.opposite(),
                decode_stamp(&data)
            );
        }
        th.clock.advance(compute_time(cfg, my_proc, tid, iter));
    }
}

fn run_comm_map(uni: &Universe, cfg: &HaloConfig, dirs: &[Dir2], map: Arc<CommMap>) -> Vec<Nanos> {
    uni.run(|env| {
        let world = env.world();
        let mut setup = env.single_thread();
        // Every process dups the full comm set in id order (collective).
        let comms: Vec<Communicator> = (0..map.n_comms())
            .map(|_| world.dup(&mut setup).unwrap())
            .collect();
        let comms = &comms;
        let map = &map;
        let my_proc = env.rank();
        let times = env.parallel(|th| {
            crate::measure::begin(th);
            let tid = th.tid();
            exchange_loop(
                th,
                cfg,
                dirs,
                my_proc,
                &|d| {
                    let id = map
                        .send_comm(my_proc, tid, d)
                        .expect("map covers every crossing send");
                    comms[id].clone()
                },
                &|d| {
                    let id = map
                        .recv_comm(my_proc, tid, d)
                        .expect("map covers every crossing recv");
                    comms[id].clone()
                },
                // Within a communicator the direction tag disambiguates the
                // (rare) corner-optimized sharing of one comm by two
                // directions of the same thread.
                &|d, _s, _t| dir_idx(d) as i64,
            );
            crate::measure::elapsed(th)
        });
        times.into_iter().max().unwrap()
    })
}

fn run_tagged(uni: &Universe, cfg: &HaloConfig, dirs: &[Dir2], hints: Option<bool>) -> Vec<Nanos> {
    let nthreads = cfg.geo.n_threads();
    let layout = TagLayout::for_threads(nthreads, TagPlacement::Msb).unwrap();

    uni.run(|env| {
        let world = env.world();
        let mut setup = env.single_thread();
        let comm = match hints {
            None => world.dup(&mut setup).unwrap(),
            Some(one_to_one) => {
                let mut info = Info::new()
                    .set(keys::ASSERT_ALLOW_OVERTAKING, "true")
                    .set(keys::ASSERT_NO_ANY_TAG, "true")
                    .set(keys::ASSERT_NO_ANY_SOURCE, "true")
                    .set(keys::NUM_VCIS, &nthreads.to_string());
                if one_to_one {
                    info.insert(keys::NUM_TAG_BITS_VCI, &layout.src_tid_bits.to_string());
                    info.insert(keys::PLACE_TAG_BITS, "MSB");
                    info.insert(keys::TAG_VCI_HASH_TYPE, "one-to-one");
                }
                world.dup_with_info(&mut setup, info).unwrap()
            }
        };
        let comm = &comm;
        let my_proc = env.rank();
        let times = env.parallel(|th| {
            crate::measure::begin(th);
            exchange_loop(
                th,
                cfg,
                dirs,
                my_proc,
                &|_d| comm.clone(),
                &|_d| comm.clone(),
                &|d, s, t| layout.encode(s, t, dir_idx(d) as i64).unwrap(),
            );
            crate::measure::elapsed(th)
        });
        times.into_iter().max().unwrap()
    })
}

/// Thread ids that perform at least one inter-process exchange — the paper's
/// "communicating threads", the only ones that need endpoints (Lesson 12).
pub fn boundary_tids(geo: Geometry, dirs: &[Dir2]) -> Vec<usize> {
    (0..geo.n_threads())
        .filter(|&tid| {
            let (tx, ty) = geo.tid_coords(tid);
            dirs.iter().any(|&d| geo.crosses_proc(tx, ty, d))
        })
        .collect()
}

fn run_endpoints(uni: &Universe, cfg: &HaloConfig, dirs: &[Dir2]) -> Vec<Nanos> {
    let geo = cfg.geo;
    let bytes = cfg.elems_per_face * 8;
    // One endpoint per *communicating* thread only: interior threads never
    // touch MPI, so they consume no network resources (Lesson 12's "only as
    // many endpoints as there are communicating threads").
    let boundary = boundary_tids(geo, dirs);
    let ep_slot: std::collections::HashMap<usize, usize> = boundary
        .iter()
        .enumerate()
        .map(|(slot, &tid)| (tid, slot))
        .collect();
    let per_proc = uni.run(|env| {
        let world = env.world();
        let mut setup = env.single_thread();
        let eps = world.create_endpoints(&mut setup, boundary.len()).unwrap();
        let eps = &eps;
        let ep_slot = &ep_slot;
        let my_proc = env.rank();
        let (rx, ry) = geo.proc_coords(my_proc);
        let times = env.parallel(|th| {
            crate::measure::begin(th);
            let tid = th.tid();
            let (tid_x, tid_y) = geo.tid_coords(tid);
            let my_slot = ep_slot.get(&tid);
            let mut payload = vec![0u8; bytes];
            for iter in 0..cfg.iters {
                let mut reqs = Vec::with_capacity(2 * dirs.len());
                for &d in dirs {
                    if !geo.crosses_proc(tid_x, tid_y, d) {
                        th.clock.advance(th.proc().costs().copy_cost(bytes));
                        continue;
                    }
                    let ep = &eps[*my_slot.expect("crossing thread has an endpoint")];
                    // Listing 3's addressing: the remote endpoint rank is
                    // computed directly from the neighbor's rank and tid.
                    let (nproc, ntid) = geo.neighbor(rx, ry, tid_x, tid_y, d);
                    let n_ep = ep.endpoint_rank(nproc, ep_slot[&ntid]);
                    reqs.push((
                        ep.irecv(th, n_ep as i64, dir_idx(d.opposite()) as i64)
                            .unwrap(),
                        nproc,
                        ntid,
                        d,
                    ));
                    fill_payload(&mut payload, iter, my_proc, tid, d);
                    ep.isend(th, n_ep, dir_idx(d) as i64, &payload)
                        .unwrap()
                        .wait(&mut th.clock);
                }
                for (req, nproc, ntid, d) in reqs {
                    let (_st, data) = req.wait(&mut th.clock);
                    assert!(
                        check_payload(&data, iter, nproc, ntid, d.opposite()),
                        "halo mismatch (endpoints) at proc {my_proc} tid {tid} {d:?}"
                    );
                }
                th.clock.advance(compute_time(cfg, my_proc, tid, iter));
            }
            crate::measure::elapsed(th)
        });
        times.into_iter().max().unwrap()
    });
    per_proc
}

fn run_partitioned(uni: &Universe, cfg: &HaloConfig) -> Vec<Nanos> {
    let geo = cfg.geo;
    let nthreads = geo.n_threads();
    let bytes = cfg.elems_per_face * 8;
    let per_proc = uni.run(|env| {
        let world = env.world();
        let mut setup = env.single_thread();
        let my_proc = env.rank();
        let (rx, ry) = geo.proc_coords(my_proc);

        // One partitioned op pair per direction (Listing 4, lines 15–23):
        // N/S have tx partitions (one per edge column), E/W have ty.
        let mk = |d: Dir2| -> (usize, usize, i64) {
            // (neighbor proc, partitions, tag)
            let (nproc, _) = match d {
                Dir2::N => geo.neighbor(rx, ry, 0, geo.ty - 1, d),
                Dir2::S => geo.neighbor(rx, ry, 0, 0, d),
                Dir2::E => geo.neighbor(rx, ry, geo.tx - 1, 0, d),
                Dir2::W => geo.neighbor(rx, ry, 0, 0, d),
                _ => unreachable!(),
            };
            let parts = match d {
                Dir2::N | Dir2::S => geo.tx,
                _ => geo.ty,
            };
            (nproc, parts, dir_idx(d) as i64)
        };
        let info = Info::new();
        let mut sends: Vec<PsendRequest> = Vec::new();
        let mut recvs: Vec<PrecvRequest> = Vec::new();
        for &d in &Dir2::CARDINAL {
            let (nproc, parts, tag) = mk(d);
            sends.push(
                world
                    .psend_init(&mut setup, nproc, tag, parts, bytes, &info)
                    .unwrap(),
            );
            // Our receive for direction d matches the neighbor's send with
            // the opposite tag.
            recvs.push(
                world
                    .precv_init(
                        &mut setup,
                        nproc,
                        dir_idx(d.opposite()) as i64,
                        parts,
                        bytes,
                        &info,
                    )
                    .unwrap(),
            );
        }
        let sends = &sends;
        let recvs = &recvs;
        let team = Arc::new(VirtualBarrier::new(nthreads));
        let team = &team;

        let times = env.parallel(|th| {
            crate::measure::begin(th);
            let tid = th.tid();
            let (tid_x, tid_y) = geo.tid_coords(tid);
            let mut payload = vec![0u8; bytes];
            for iter in 0..cfg.iters {
                // `omp single`: one thread starts all ops, others wait.
                if tid == 0 {
                    for s in sends.iter() {
                        s.start(th).unwrap();
                    }
                    for r in recvs.iter() {
                        r.start(th).unwrap();
                    }
                }
                team.wait(&mut th.clock);

                // Contribute my partitions (Listing 4, lines 27–30).
                for (di, &d) in Dir2::CARDINAL.iter().enumerate() {
                    if !geo.crosses_proc(tid_x, tid_y, d) {
                        th.clock.advance(th.proc().costs().copy_cost(bytes));
                        continue;
                    }
                    let part = match d {
                        Dir2::N | Dir2::S => tid_x,
                        _ => tid_y,
                    };
                    fill_payload(&mut payload, iter, my_proc, tid, d);
                    sends[di].pready(th, part, &payload).unwrap();
                }
                // Poll for my incoming partitions (lines 31–35).
                for (di, &d) in Dir2::CARDINAL.iter().enumerate() {
                    if !geo.crosses_proc(tid_x, tid_y, d) {
                        continue;
                    }
                    let part = match d {
                        Dir2::N | Dir2::S => tid_x,
                        _ => tid_y,
                    };
                    while !recvs[di].parrived(th, part).unwrap() {
                        std::thread::yield_now();
                    }
                    let data = recvs[di].read_partition(part);
                    let (nproc, ntid) = geo.neighbor(rx, ry, tid_x, tid_y, d);
                    assert!(
                        check_payload(&data, iter, nproc, ntid, d.opposite()),
                        "halo mismatch (partitioned) at proc {my_proc} tid {tid} {d:?}"
                    );
                }

                // Listing 4 lines 37–40: single thread completes the
                // requests; the implicit barrier is required before the next
                // iteration's partitions can be issued (Lesson 14).
                team.wait(&mut th.clock);
                if tid == 0 {
                    for s in sends.iter() {
                        s.wait(th).unwrap();
                    }
                    for r in recvs.iter() {
                        r.wait(th).unwrap();
                    }
                }
                team.wait(&mut th.clock);
                th.clock.advance(compute_time(cfg, my_proc, tid, iter));
            }
            crate::measure::elapsed(th)
        });
        times.into_iter().max().unwrap()
    });
    per_proc
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(geo: Geometry, nine: bool) -> HaloConfig {
        HaloConfig {
            geo,
            iters: 3,
            elems_per_face: 16,
            nine_point: nine,
            compute: Nanos::us(2),
            compute_jitter: 0.0,
            profile: NetworkProfile::omni_path(),
            launch: LaunchMode::Threads,
        }
    }

    fn g22() -> Geometry {
        Geometry {
            px: 2,
            py: 2,
            tx: 2,
            ty: 2,
        }
    }

    #[test]
    fn all_mechanisms_complete_and_verify() {
        let cfg = quick(g22(), false);
        for mech in [
            HaloMechanism::SingleComm,
            HaloMechanism::CommMapListing1,
            HaloMechanism::CommMapNaive,
            HaloMechanism::CommMapFig4,
            HaloMechanism::TagsOneToOne,
            HaloMechanism::TagsHashed,
            HaloMechanism::Endpoints,
            HaloMechanism::Partitioned,
        ] {
            let rep = run_halo(mech, &cfg);
            assert!(rep.verified, "{:?}", mech);
            assert!(rep.total_time > Nanos::ZERO);
        }
    }

    #[test]
    fn nine_point_works_for_non_partitioned() {
        let cfg = quick(g22(), true);
        for mech in [
            HaloMechanism::SingleComm,
            HaloMechanism::CommMapFig4,
            HaloMechanism::TagsOneToOne,
            HaloMechanism::Endpoints,
        ] {
            let rep = run_halo(mech, &cfg);
            assert!(rep.verified, "{:?}", mech);
        }
    }

    #[test]
    fn parallel_mechanisms_beat_the_original() {
        let cfg = quick(
            Geometry {
                px: 2,
                py: 2,
                tx: 3,
                ty: 3,
            },
            false,
        );
        let orig = run_halo(HaloMechanism::SingleComm, &cfg);
        let eps = run_halo(HaloMechanism::Endpoints, &cfg);
        let tags = run_halo(HaloMechanism::TagsOneToOne, &cfg);
        assert!(
            eps.total_time < orig.total_time,
            "endpoints {} vs original {}",
            eps.total_time,
            orig.total_time
        );
        assert!(tags.total_time < orig.total_time);
    }

    #[test]
    fn naive_map_is_slower_than_listing1() {
        let cfg = HaloConfig {
            iters: 6,
            geo: Geometry {
                px: 2,
                py: 2,
                tx: 4,
                ty: 4,
            },
            ..quick(g22(), false)
        };
        let ideal = run_halo(HaloMechanism::CommMapListing1, &cfg);
        let naive = run_halo(HaloMechanism::CommMapNaive, &cfg);
        assert!(
            naive.total_time > ideal.total_time,
            "half the channels must cost time: naive {} vs ideal {}",
            naive.total_time,
            ideal.total_time
        );
    }

    #[test]
    fn endpoints_use_fewer_contexts_than_comm_map() {
        let cfg = quick(
            Geometry {
                px: 2,
                py: 2,
                tx: 3,
                ty: 3,
            },
            false,
        );
        let comms = run_halo(HaloMechanism::CommMapListing1, &cfg);
        let eps = run_halo(HaloMechanism::Endpoints, &cfg);
        assert!(comms.channels_created > eps.channels_created.min(9));
        assert!(comms.hw_contexts_used > eps.hw_contexts_used);
    }
}
