//! The 3D 27-point stencil — hypre's real communication shape and the basis
//! of Lesson 3's resource arithmetic.
//!
//! Extends the 2D machinery to the full 26-direction exchange: geometry on a
//! periodic process brick, a generated communicator map (the same
//! conflict-graph coloring as Fig. 4's, in 3D), and an executable halo
//! exchange under the Original / communicator-map / tags / endpoints
//! mechanisms.

use std::collections::HashMap;
use std::sync::Arc;

use rankmpi_core::info::keys;
use rankmpi_core::tag::{TagLayout, TagPlacement};
use rankmpi_core::{Communicator, Info, Universe};
use rankmpi_fabric::NetworkProfile;
use rankmpi_vtime::Nanos;

/// One of the 26 exchange directions: a nonzero offset in `{-1,0,1}^3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dir3 {
    /// Offset along x.
    pub dx: i8,
    /// Offset along y.
    pub dy: i8,
    /// Offset along z.
    pub dz: i8,
}

impl Dir3 {
    /// All 26 directions of the 27-point stencil, in a fixed order.
    pub fn all() -> Vec<Dir3> {
        let mut v = Vec::with_capacity(26);
        for dx in -1i8..=1 {
            for dy in -1i8..=1 {
                for dz in -1i8..=1 {
                    if dx != 0 || dy != 0 || dz != 0 {
                        v.push(Dir3 { dx, dy, dz });
                    }
                }
            }
        }
        v
    }

    /// The six face directions only (7-point stencil).
    pub fn faces() -> Vec<Dir3> {
        Self::all()
            .into_iter()
            .filter(|d| d.dx.abs() + d.dy.abs() + d.dz.abs() == 1)
            .collect()
    }

    /// The direction a matching receive comes from.
    pub fn opposite(&self) -> Dir3 {
        Dir3 {
            dx: -self.dx,
            dy: -self.dy,
            dz: -self.dz,
        }
    }

    /// Stable index of this direction within [`Dir3::all`].
    pub fn index(&self) -> usize {
        Dir3::all().iter().position(|d| d == self).unwrap()
    }
}

/// A periodic 3D process brick with a thread brick per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry3 {
    /// Processes along x/y/z.
    pub p: [usize; 3],
    /// Threads along x/y/z within a process.
    pub t: [usize; 3],
}

impl Geometry3 {
    /// Total processes.
    pub fn n_procs(&self) -> usize {
        self.p[0] * self.p[1] * self.p[2]
    }

    /// Threads per process.
    pub fn n_threads(&self) -> usize {
        self.t[0] * self.t[1] * self.t[2]
    }

    /// Linear process rank of brick coordinates.
    pub fn proc_rank(&self, c: [usize; 3]) -> usize {
        (c[2] * self.p[1] + c[1]) * self.p[0] + c[0]
    }

    /// Brick coordinates of a process rank.
    pub fn proc_coords(&self, r: usize) -> [usize; 3] {
        [
            r % self.p[0],
            (r / self.p[0]) % self.p[1],
            r / (self.p[0] * self.p[1]),
        ]
    }

    /// Linear thread id of thread coordinates.
    pub fn tid(&self, c: [usize; 3]) -> usize {
        (c[2] * self.t[1] + c[1]) * self.t[0] + c[0]
    }

    /// Thread coordinates of a linear thread id.
    pub fn tid_coords(&self, tid: usize) -> [usize; 3] {
        [
            tid % self.t[0],
            (tid / self.t[0]) % self.t[1],
            tid / (self.t[0] * self.t[1]),
        ]
    }

    /// Whether `(thread, direction)` crosses a process boundary.
    pub fn crosses_proc(&self, tc: [usize; 3], d: Dir3) -> bool {
        let offs = [d.dx, d.dy, d.dz];
        (0..3).any(|a| (offs[a] > 0 && tc[a] == self.t[a] - 1) || (offs[a] < 0 && tc[a] == 0))
    }

    /// The exchange partner of `(proc coords, thread coords)` in direction
    /// `d`: `(proc rank, thread id)` on the torus.
    pub fn neighbor(&self, pc: [usize; 3], tc: [usize; 3], d: Dir3) -> (usize, usize) {
        let offs = [d.dx as i64, d.dy as i64, d.dz as i64];
        let mut npc = [0usize; 3];
        let mut ntc = [0usize; 3];
        for a in 0..3 {
            let w = (self.p[a] * self.t[a]) as i64;
            let g = (pc[a] * self.t[a] + tc[a]) as i64;
            let ng = ((g + offs[a]) % w + w) % w;
            npc[a] = ng as usize / self.t[a];
            ntc[a] = ng as usize % self.t[a];
        }
        (self.proc_rank(npc), self.tid(ntc))
    }

    /// Thread ids with at least one crossing direction (the communicating
    /// threads of Lesson 3: `xyz − (x−2)(y−2)(z−2)` of them).
    pub fn boundary_tids(&self, dirs: &[Dir3]) -> Vec<usize> {
        (0..self.n_threads())
            .filter(|&tid| {
                let tc = self.tid_coords(tid);
                dirs.iter().any(|&d| self.crosses_proc(tc, d))
            })
            .collect()
    }
}

/// A generated 3D communicator map: send communicator per
/// `(proc, thread, direction)`, built by greedy conflict-graph coloring with
/// the corner optimization (same construction as the 2D Fig. 4 map).
#[derive(Debug)]
pub struct CommMap3 {
    geo: Geometry3,
    assign: HashMap<(usize, usize, Dir3), usize>,
    n_comms: usize,
}

impl CommMap3 {
    /// Number of distinct communicators.
    pub fn n_comms(&self) -> usize {
        self.n_comms
    }

    /// The communicator a send in direction `d` uses.
    pub fn send_comm(&self, proc: usize, tid: usize, d: Dir3) -> Option<usize> {
        self.assign.get(&(proc, tid, d)).copied()
    }

    /// The communicator a receive *from* direction `d` uses (the partner's
    /// send communicator).
    pub fn recv_comm(&self, proc: usize, tid: usize, d: Dir3) -> Option<usize> {
        let pc = self.geo.proc_coords(proc);
        let tc = self.geo.tid_coords(tid);
        let (np, nt) = self.geo.neighbor(pc, tc, d);
        self.assign.get(&(np, nt, d.opposite())).copied()
    }

    /// Every send has a partner send in the opposite direction.
    pub fn validate_matching(&self) -> Result<usize, String> {
        let mut n = 0;
        for &(proc, tid, d) in self.assign.keys() {
            self.recv_comm(proc, tid, d)
                .ok_or_else(|| format!("missing partner for p{proc} t{tid} {d:?}"))?;
            n += 1;
        }
        Ok(n)
    }
}

/// Build the 3D communicator map for `geo` over `dirs` by greedy coloring:
/// two channels touching the same process conflict unless they touch it at
/// the same thread (`corner_opt`).
pub fn colored_map3(geo: Geometry3, dirs: &[Dir3], corner_opt: bool) -> CommMap3 {
    struct Channel {
        a: (usize, usize, Dir3),
        b: (usize, usize, Dir3),
    }
    let mut channels: Vec<Channel> = Vec::new();
    for pr in 0..geo.n_procs() {
        let pc = geo.proc_coords(pr);
        for tid in 0..geo.n_threads() {
            let tc = geo.tid_coords(tid);
            for &d in dirs {
                if !geo.crosses_proc(tc, d) {
                    continue;
                }
                let (np, nt) = geo.neighbor(pc, tc, d);
                // One canonical record per channel.
                if (pr, tid, d.index()) <= (np, nt, d.opposite().index()) {
                    channels.push(Channel {
                        a: (pr, tid, d),
                        b: (np, nt, d.opposite()),
                    });
                }
            }
        }
    }

    // Greedy coloring over the per-process conflict structure. Index the
    // channels by process so each coloring step only scans local conflicts.
    let mut by_proc: HashMap<usize, Vec<usize>> = HashMap::new();
    let mut colors: Vec<usize> = Vec::with_capacity(channels.len());
    let mut n_colors = 0usize;
    for (i, ch) in channels.iter().enumerate() {
        let mut used = vec![false; n_colors];
        for &(p, t, _) in [&ch.a, &ch.b] {
            for &j in by_proc.get(&p).into_iter().flatten() {
                let other = &channels[j];
                for &(op, ot, _) in [&other.a, &other.b] {
                    if op == p && (!corner_opt || ot != t) {
                        used[colors[j]] = true;
                    }
                }
            }
        }
        let c = used.iter().position(|u| !u).unwrap_or(n_colors);
        if c == n_colors {
            n_colors += 1;
        }
        colors.push(c);
        by_proc.entry(ch.a.0).or_default().push(i);
        if ch.b.0 != ch.a.0 {
            by_proc.entry(ch.b.0).or_default().push(i);
        }
    }

    let mut assign = HashMap::new();
    for (ch, &c) in channels.iter().zip(&colors) {
        assign.insert(ch.a, c);
        assign.insert(ch.b, c);
    }
    CommMap3 {
        geo,
        assign,
        n_comms: n_colors,
    }
}

/// Which design drives the 3D halo exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Halo3Mechanism {
    /// One shared communicator (Original).
    SingleComm,
    /// The generated communicator map.
    CommMap,
    /// Listing 2's tag bits, one-to-one.
    TagsOneToOne,
    /// Listing 3's endpoints (one per communicating thread).
    Endpoints,
}

impl Halo3Mechanism {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Halo3Mechanism::SingleComm => "MPI+threads (Original)",
            Halo3Mechanism::CommMap => "communicators (3D colored map)",
            Halo3Mechanism::TagsOneToOne => "tags + hints (one-to-one)",
            Halo3Mechanism::Endpoints => "endpoints",
        }
    }
}

/// 3D halo configuration.
#[derive(Debug, Clone)]
pub struct Halo3Config {
    /// Geometry (periodic process brick).
    pub geo: Geometry3,
    /// Exchange iterations.
    pub iters: usize,
    /// Bytes per halo message (faces/edges/corners all use this size for
    /// simplicity; the paper's argument is about channel counts, not shapes).
    pub msg_bytes: usize,
    /// Use all 26 directions (27-pt) or faces only (7-pt).
    pub full_27pt: bool,
    /// Virtual compute per iteration per thread.
    pub compute: Nanos,
    /// Network profile.
    pub profile: NetworkProfile,
}

impl Default for Halo3Config {
    fn default() -> Self {
        Halo3Config {
            geo: Geometry3 {
                p: [2, 2, 2],
                t: [2, 2, 2],
            },
            iters: 4,
            msg_bytes: 512,
            full_27pt: true,
            compute: Nanos::us(5),
            profile: NetworkProfile::omni_path(),
        }
    }
}

/// Report of one 3D halo run.
#[derive(Debug, Clone)]
pub struct Halo3Report {
    /// Mechanism label.
    pub mechanism: &'static str,
    /// Slowest thread's measured time per iteration.
    pub per_iter: Nanos,
    /// Channels (communicators/endpoints) created per process.
    pub channels_created: usize,
    /// Hardware contexts in use on node 0.
    pub hw_contexts_used: usize,
    /// Communicating (boundary) threads per process.
    pub boundary_threads: usize,
}

fn stamp(iter: usize, proc: usize, tid: usize, d: Dir3) -> u64 {
    ((iter as u64) << 40) | ((proc as u64) << 24) | ((tid as u64) << 8) | d.index() as u64
}

/// Run the 3D halo exchange.
pub fn run_halo3(mech: Halo3Mechanism, cfg: &Halo3Config) -> Halo3Report {
    let geo = cfg.geo;
    let dirs = if cfg.full_27pt {
        Dir3::all()
    } else {
        Dir3::faces()
    };
    let nthreads = geo.n_threads();
    let boundary = geo.boundary_tids(&dirs);

    let map = match mech {
        Halo3Mechanism::CommMap => Some(Arc::new(colored_map3(geo, &dirs, true))),
        _ => None,
    };
    let num_vcis = match mech {
        Halo3Mechanism::SingleComm => 1,
        Halo3Mechanism::CommMap => map.as_ref().unwrap().n_comms() + 1,
        Halo3Mechanism::TagsOneToOne => nthreads,
        Halo3Mechanism::Endpoints => 1,
    };
    let channels_created = match mech {
        Halo3Mechanism::SingleComm | Halo3Mechanism::TagsOneToOne => 1,
        Halo3Mechanism::CommMap => map.as_ref().unwrap().n_comms(),
        Halo3Mechanism::Endpoints => boundary.len(),
    };

    let uni = Universe::builder()
        .nodes(geo.n_procs())
        .threads_per_proc(nthreads)
        .num_vcis(num_vcis)
        .profile(cfg.profile.clone())
        .build();

    let dirs = &dirs;
    let boundary = &boundary;
    let ep_slot: HashMap<usize, usize> =
        boundary.iter().enumerate().map(|(s, &t)| (t, s)).collect();
    let ep_slot = &ep_slot;
    let layout = TagLayout::for_threads(nthreads, TagPlacement::Msb).unwrap();

    let times = uni.run(|env| {
        let world = env.world();
        let mut setup = env.single_thread();
        let comms: Vec<Communicator> = match mech {
            Halo3Mechanism::CommMap => (0..map.as_ref().unwrap().n_comms())
                .map(|_| world.dup(&mut setup).unwrap())
                .collect(),
            Halo3Mechanism::TagsOneToOne => {
                let info = Info::new()
                    .set(keys::ASSERT_ALLOW_OVERTAKING, "true")
                    .set(keys::ASSERT_NO_ANY_TAG, "true")
                    .set(keys::ASSERT_NO_ANY_SOURCE, "true")
                    .set(keys::NUM_VCIS, &nthreads.to_string())
                    .set(keys::NUM_TAG_BITS_VCI, &layout.src_tid_bits.to_string())
                    .set(keys::PLACE_TAG_BITS, "MSB")
                    .set(keys::TAG_VCI_HASH_TYPE, "one-to-one");
                vec![world.dup_with_info(&mut setup, info).unwrap()]
            }
            _ => vec![world.dup(&mut setup).unwrap()],
        };
        let eps = match mech {
            Halo3Mechanism::Endpoints => {
                world.create_endpoints(&mut setup, boundary.len()).unwrap()
            }
            _ => Vec::new(),
        };
        let comms = &comms;
        let eps = &eps;
        let map = map.as_deref();
        let me = env.rank();
        let pc = geo.proc_coords(me);

        let per_thread = env.parallel(|th| {
            crate::measure::begin(th);
            let tid = th.tid();
            let tc = geo.tid_coords(tid);
            let mut payload = vec![0u8; cfg.msg_bytes.max(8)];
            for iter in 0..cfg.iters {
                let mut reqs = Vec::new();
                for &d in dirs {
                    if !geo.crosses_proc(tc, d) {
                        continue;
                    }
                    let (np, nt) = geo.neighbor(pc, tc, d);
                    match mech {
                        Halo3Mechanism::Endpoints => {
                            let ep = &eps[ep_slot[&tid]];
                            let n_ep = ep.endpoint_rank(np, ep_slot[&nt]);
                            reqs.push((
                                ep.irecv(th, n_ep as i64, d.opposite().index() as i64)
                                    .unwrap(),
                                np,
                                nt,
                                d,
                            ));
                            payload[..8].copy_from_slice(&stamp(iter, me, tid, d).to_le_bytes());
                            ep.isend(th, n_ep, d.index() as i64, &payload)
                                .unwrap()
                                .wait(&mut th.clock);
                        }
                        _ => {
                            let (send_comm, recv_comm, stag, rtag) = match mech {
                                Halo3Mechanism::SingleComm => (
                                    &comms[0],
                                    &comms[0],
                                    layout.encode(tid, nt, d.index() as i64).unwrap(),
                                    layout.encode(nt, tid, d.opposite().index() as i64).unwrap(),
                                ),
                                Halo3Mechanism::TagsOneToOne => (
                                    &comms[0],
                                    &comms[0],
                                    layout.encode(tid, nt, d.index() as i64).unwrap(),
                                    layout.encode(nt, tid, d.opposite().index() as i64).unwrap(),
                                ),
                                Halo3Mechanism::CommMap => {
                                    let m = map.unwrap();
                                    (
                                        &comms[m.send_comm(me, tid, d).unwrap()],
                                        &comms[m.recv_comm(me, tid, d).unwrap()],
                                        d.index() as i64,
                                        d.opposite().index() as i64,
                                    )
                                }
                                Halo3Mechanism::Endpoints => unreachable!(),
                            };
                            reqs.push((recv_comm.irecv(th, np as i64, rtag).unwrap(), np, nt, d));
                            payload[..8].copy_from_slice(&stamp(iter, me, tid, d).to_le_bytes());
                            send_comm
                                .isend(th, np, stag, &payload)
                                .unwrap()
                                .wait(&mut th.clock);
                        }
                    }
                }
                for (req, np, nt, d) in reqs {
                    let (_st, data) = req.wait(&mut th.clock);
                    let got = u64::from_le_bytes(data[..8].try_into().unwrap());
                    assert_eq!(
                        got,
                        stamp(iter, np, nt, d.opposite()),
                        "3D halo mismatch at p{me} t{tid} {d:?} iter {iter}"
                    );
                }
                th.clock.advance(cfg.compute);
            }
            crate::measure::elapsed(th)
        });
        per_thread.into_iter().max().unwrap()
    });

    let total = times.into_iter().max().unwrap();
    Halo3Report {
        mechanism: mech.label(),
        per_iter: total / cfg.iters as u64,
        channels_created,
        hw_contexts_used: uni.shared().nic(0).contexts_in_use(),
        boundary_threads: boundary.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commcount::{communicators_required_3d, min_channels_3d};

    #[test]
    fn geometry_roundtrips_and_wraps() {
        let g = Geometry3 {
            p: [2, 3, 2],
            t: [2, 2, 3],
        };
        for r in 0..g.n_procs() {
            assert_eq!(g.proc_rank(g.proc_coords(r)), r);
        }
        for t in 0..g.n_threads() {
            assert_eq!(g.tid(g.tid_coords(t)), t);
        }
        // +x from the last column wraps to proc x=0.
        let d = Dir3 {
            dx: 1,
            dy: 0,
            dz: 0,
        };
        let (np, nt) = g.neighbor([1, 0, 0], [1, 0, 0], d);
        assert_eq!(g.proc_coords(np), [0, 0, 0]);
        assert_eq!(g.tid_coords(nt), [0, 0, 0]);
    }

    #[test]
    fn dir3_has_26_directions_and_6_faces() {
        assert_eq!(Dir3::all().len(), 26);
        assert_eq!(Dir3::faces().len(), 6);
        for d in Dir3::all() {
            assert_eq!(d.opposite().opposite(), d);
            assert_eq!(Dir3::all()[d.index()], d);
        }
    }

    #[test]
    fn boundary_thread_count_matches_lesson3_formula() {
        for t in [[2, 2, 2], [3, 3, 3], [4, 4, 4], [2, 3, 4]] {
            let g = Geometry3 { p: [2, 2, 2], t };
            assert_eq!(
                g.boundary_tids(&Dir3::all()).len(),
                min_channels_3d(t[0], t[1], t[2]),
                "{t:?}"
            );
        }
    }

    #[test]
    fn colored_map3_matches_and_stays_near_the_formula() {
        let g = Geometry3 {
            p: [2, 2, 2],
            t: [2, 2, 2],
        };
        let m = colored_map3(g, &Dir3::all(), true);
        m.validate_matching().unwrap();
        // The paper's closed form counts a mirrored-construction map; the
        // greedy coloring must not exceed it and must cover at least the
        // minimum channel count.
        assert!(m.n_comms() >= min_channels_3d(2, 2, 2));
        assert!(m.n_comms() <= communicators_required_3d(2, 2, 2));
    }

    #[test]
    fn all_mechanisms_run_and_verify() {
        let cfg = Halo3Config {
            iters: 2,
            ..Halo3Config::default()
        };
        for mech in [
            Halo3Mechanism::SingleComm,
            Halo3Mechanism::CommMap,
            Halo3Mechanism::TagsOneToOne,
            Halo3Mechanism::Endpoints,
        ] {
            let rep = run_halo3(mech, &cfg);
            assert!(rep.per_iter > Nanos::ZERO, "{mech:?}");
            assert_eq!(rep.boundary_threads, 8); // all of [2,2,2] is boundary
        }
    }

    #[test]
    fn parallel_mechanisms_beat_original_in_3d() {
        let cfg = Halo3Config {
            geo: Geometry3 {
                p: [2, 2, 2],
                t: [2, 2, 2],
            },
            iters: 3,
            msg_bytes: 2048,
            compute: Nanos::us(2),
            ..Halo3Config::default()
        };
        let orig = run_halo3(Halo3Mechanism::SingleComm, &cfg);
        let eps = run_halo3(Halo3Mechanism::Endpoints, &cfg);
        assert!(
            eps.per_iter < orig.per_iter,
            "eps {} vs orig {}",
            eps.per_iter,
            orig.per_iter
        );
    }
}
