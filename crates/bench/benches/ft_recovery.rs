//! Rank-crash recovery costs: detection latency, revoke propagation,
//! shrink at scale, and survivor goodput before/after a crash.
//!
//! Four sections, each a small purpose-built universe:
//!
//! 1. **Detection** — a certain-to-die peer; the survivor's pending
//!    receive resolves `ProcessFailed` at `crash + PROBE_TIMEOUT` (or at
//!    post time for a receive posted after the detector already knew).
//!    Measured from both the crash and the post, in virtual ns.
//! 2. **Revoke propagation** — one rank revokes an 8-way world; every
//!    other rank is blocked in a receive that only the poisoned `KIND_FT`
//!    flood can resolve. Virtual ns from the revoke call to each
//!    observer's `Revoked` error.
//! 3. **Shrink at scale** — `agree` + `shrink` on crash-free worlds of
//!    64 → 1024 cooperative rank-tasks. The collectives ride the
//!    agreement boards (no virtual-time model), so the cost reported is
//!    real wall time per rank — the harness-side scaling curve.
//! 4. **Goodput** — a 5-rank ring halo with exactly one planned victim:
//!    iterations per virtual ms before the crash vs. after the survivors
//!    shrink and resume.
//!
//! `BENCH_ft_recovery.json` carries the same numbers for regression
//! tooling.

use rankmpi_bench::{percentile, percentiles_json, write_bench_json};
use rankmpi_bench::{print_table, takeaway};
use rankmpi_core::universe::UniverseShared;
use rankmpi_core::{
    Communicator, Errhandler, LaunchMode, RankMpiError, ReduceOp, TaskLaunch, ThreadCtx, Universe,
};
use rankmpi_fabric::ft::PROBE_TIMEOUT;
use rankmpi_fabric::FaultPlan;
use rankmpi_obs::json::Value;
use rankmpi_vtime::Nanos;
use std::time::{Duration, Instant};

const BACKSTOP: Duration = Duration::from_secs(30);

/// Fault-tolerance counters summed over every universe the bench builds.
#[derive(Default)]
struct FtCounters {
    crashes: u64,
    detections: u64,
    revoked_drops: u64,
    revokes: u64,
    shrinks: u64,
}

impl FtCounters {
    fn add(&mut self, u: &UniverseShared) {
        self.crashes += u.liveness().num_crashed() as u64;
        self.detections += u.liveness().detections();
        for r in 0..u.n_procs() {
            let ft = u.proc(r).ft();
            self.revoked_drops += ft.revoked_drops();
            self.revokes += ft.revokes();
            self.shrinks += ft.shrinks();
        }
    }

    fn json(&self) -> Value {
        Value::obj([
            ("crashes", Value::int(self.crashes)),
            ("detections", Value::int(self.detections)),
            ("revoked_drops", Value::int(self.revoked_drops)),
            ("revokes", Value::int(self.revokes)),
            ("shrinks", Value::int(self.shrinks)),
        ])
    }
}

// ---------------------------------------------------------------- detection

struct Detection {
    from_crash: Vec<u64>,
    from_post: Vec<u64>,
}

/// Two ranks, a probability-1 crash plan for rank 1, and a receive that
/// only the failure detector can resolve. The survivor delays its post by
/// a seed-dependent amount so the samples cover both regimes: a receive
/// already pending when the probe fires, and one posted after the
/// detector has the verdict (doomed at post time).
fn bench_detection(ft: &mut FtCounters) -> Detection {
    let mut from_crash = Vec::new();
    let mut from_post = Vec::new();
    for seed in 0..8u64 {
        let plan = FaultPlan::new(0xFEED ^ seed).crashes(1.0, 4, Nanos::us(40));
        assert!(plan.crash_point(1).is_some());
        let u = Universe::builder().nodes(2).fault_plan(plan).build();
        let shared = std::sync::Arc::clone(u.shared());
        let out = u.run_ft(|env| {
            let world = env.world();
            world.set_errhandler(Errhandler::ErrorsReturn);
            let mut th = env.single_thread();
            if env.rank() == 0 {
                th.clock.advance(Nanos::us(9 * (seed % 8)));
                let posted = th.clock.now().0;
                match world.recv_timeout(&mut th, 1, 5, BACKSTOP) {
                    Err(RankMpiError::ProcessFailed { rank: 1 }) => (posted, th.clock.now().0),
                    other => panic!("expected ProcessFailed {{ rank: 1 }}, got {other:?}"),
                }
            } else {
                for i in 0..64u32 {
                    th.clock.advance(Nanos::us(2));
                    if world.send(&mut th, 0, 9, &i.to_le_bytes()).is_err() {
                        break;
                    }
                }
                panic!("rank 1 outlived a probability-1 crash plan");
            }
        });
        let (posted, observed) = out[0].expect("rank 0 survives by plan");
        let crashed = shared
            .liveness()
            .crashed_at(1)
            .expect("rank 1 died by plan")
            .0;
        ft.add(&shared);
        from_crash.push(observed.saturating_sub(crashed));
        from_post.push(observed.saturating_sub(posted));
    }
    Detection {
        from_crash,
        from_post,
    }
}

// ------------------------------------------------------ revoke propagation

const REVOKE_RANKS: usize = 8;

/// Rank 0 collects a ready message from every peer (so their probe
/// receives are pending), then revokes. Each observer's blocked receive
/// can only resolve through the poisoned control flood; the sample is the
/// virtual time from the revoke call to that resolution.
fn bench_revoke(ft: &mut FtCounters) -> Vec<u64> {
    let u = Universe::builder().nodes(REVOKE_RANKS).build();
    let stamps = u.run(|env| {
        let world = env.world();
        world.set_errhandler(Errhandler::ErrorsReturn);
        let mut th = env.single_thread();
        if env.rank() == 0 {
            for r in 1..REVOKE_RANKS {
                world
                    .recv_timeout(&mut th, r as i64, 7, BACKSTOP)
                    .expect("ready message");
            }
            let t0 = th.clock.now().0;
            world.revoke(&mut th).expect("revoke cannot fail");
            t0
        } else {
            world
                .send(&mut th, 0, 7, &[env.rank() as u8])
                .expect("ready send");
            match world.recv_timeout(&mut th, 0, 99, BACKSTOP) {
                Err(RankMpiError::Revoked { .. }) => th.clock.now().0,
                other => panic!("expected Revoked, got {other:?}"),
            }
        }
    });
    ft.add(u.shared());
    let t0 = stamps[0];
    stamps[1..].iter().map(|&t| t.saturating_sub(t0)).collect()
}

// ------------------------------------------------------- shrink at scale

struct ShrinkTier {
    ranks: usize,
    agree_wall_ns: Vec<u64>,
    shrink_wall_ns: Vec<u64>,
    wall_ms_total: u64,
}

/// Crash-free `agree` + `shrink` on worlds of cooperative rank-tasks.
/// With nobody dead the shrink is a pure membership collective (the child
/// equals the parent), which isolates the cost being measured: the
/// fault-tolerant rendezvous itself as the member count grows.
fn bench_shrink_scale(ft: &mut FtCounters) -> Vec<ShrinkTier> {
    [64usize, 256, 1024]
        .iter()
        .map(|&n| {
            let started = Instant::now();
            let u = Universe::builder()
                .nodes(n)
                .launch(LaunchMode::Tasks(TaskLaunch::default()))
                .build();
            let out: Vec<(u64, u64)> = u.run(|env| {
                let world = env.world();
                world.set_errhandler(Errhandler::ErrorsReturn);
                let mut th = env.single_thread();
                let t0 = Instant::now();
                let verdict = world.agree(&mut th, true).expect("agree resolves");
                let agree_ns = t0.elapsed().as_nanos() as u64;
                assert!(verdict, "unanimous truth must carry at size {n}");
                let t1 = Instant::now();
                let child = world.shrink(&mut th).expect("shrink resolves");
                let shrink_ns = t1.elapsed().as_nanos() as u64;
                assert_eq!(child.size(), n, "nobody died; shrink must not drop members");
                (agree_ns, shrink_ns)
            });
            ft.add(u.shared());
            ShrinkTier {
                ranks: n,
                agree_wall_ns: out.iter().map(|&(a, _)| a).collect(),
                shrink_wall_ns: out.iter().map(|&(_, s)| s).collect(),
                wall_ms_total: started.elapsed().as_millis() as u64,
            }
        })
        .collect()
}

// -------------------------------------------------------------- goodput

const GOOD_PROCS: usize = 5;
const GOOD_ITERS: usize = 40;
const GOOD_BYTES: usize = 256;
const GOOD_COMPUTE: Nanos = Nanos(2_000);

#[derive(Debug, Clone)]
struct GoodRec {
    t_start: u64,
    iters_before: u64,
    t_last_ok: u64,
    t_break: Option<u64>,
    iter_resume: u64,
    t_resume: Option<u64>,
    t_end: u64,
    final_size: usize,
}

fn halo_tag(iter: usize, dir: i64) -> i64 {
    ((iter as i64) % 512) * 2 + dir
}

fn halo_step(comm: &Communicator, th: &mut ThreadCtx, iter: usize) -> Result<(), RankMpiError> {
    let p = comm.size();
    let r = comm.rank();
    if p > 1 {
        let left = (r + p - 1) % p;
        let right = (r + 1) % p;
        let from_left = comm.irecv(th, left as i64, halo_tag(iter, 0))?;
        let from_right = comm.irecv(th, right as i64, halo_tag(iter, 1))?;
        let payload = vec![iter as u8; GOOD_BYTES];
        comm.isend(th, right, halo_tag(iter, 0), &payload)?;
        comm.isend(th, left, halo_tag(iter, 1), &payload)?;
        from_left.wait_outcome(&mut th.clock)?;
        from_right.wait_outcome(&mut th.clock)?;
    }
    th.clock.advance(GOOD_COMPUTE);
    Ok(())
}

/// One crash-surviving halo run (same fence protocol as the workload
/// crate), instrumented with the virtual timestamps the goodput numbers
/// need: run start, first break, post-recovery resume, and finish.
fn goodput_run(seed: u64, ft: &mut FtCounters) -> Vec<Option<GoodRec>> {
    let plan = FaultPlan::new(seed).crashes(0.6, 60, Nanos::us(90));
    let u = Universe::builder()
        .nodes(GOOD_PROCS)
        .fault_plan(plan)
        .build();
    let out = u.run_ft(|env| {
        let world = env.world();
        world.set_errhandler(Errhandler::ErrorsReturn);
        let mut th = env.single_thread();
        let mut comm = world.clone();
        let t_start = th.clock.now().0;
        let mut iter = 0usize;
        let mut rec = GoodRec {
            t_start,
            iters_before: 0,
            t_last_ok: t_start,
            t_break: None,
            iter_resume: 0,
            t_resume: None,
            t_end: t_start,
            final_size: comm.size(),
        };
        loop {
            let mut broken = false;
            while iter < GOOD_ITERS {
                match halo_step(&comm, &mut th, iter) {
                    Ok(()) => {
                        iter += 1;
                        if rec.t_break.is_none() {
                            rec.t_last_ok = th.clock.now().0;
                        }
                    }
                    Err(e) if e.is_ft() => {
                        if rec.t_break.is_none() {
                            rec.t_break = Some(th.clock.now().0);
                            rec.iters_before = iter as u64;
                        }
                        broken = true;
                        break;
                    }
                    Err(e) => panic!("halo step failed: {e:?}"),
                }
            }
            if broken {
                comm.revoke(&mut th).expect("revoke cannot fail");
            }
            let healthy = comm
                .agree(&mut th, !broken && !comm.is_revoked())
                .expect("agreement resolves for a survivor");
            if healthy {
                break;
            }
            comm = comm.shrink(&mut th).expect("a survivor can always shrink");
            match comm.allreduce(&mut th, &[iter as f64], ReduceOp::Max) {
                Ok(m) => {
                    iter = m[0] as usize;
                    if rec.t_resume.is_none() {
                        rec.t_resume = Some(th.clock.now().0);
                        rec.iter_resume = iter as u64;
                    }
                }
                Err(ref e) if e.is_ft() => {
                    comm.revoke(&mut th).expect("revoke cannot fail");
                }
                Err(e) => panic!("resync failed: {e:?}"),
            }
        }
        rec.t_end = th.clock.now().0;
        rec.final_size = comm.size();
        rec
    });
    ft.add(u.shared());
    out
}

struct Goodput {
    seed: u64,
    victim: usize,
    before_iters_per_ms: f64,
    after_iters_per_ms: f64,
    final_size: usize,
}

/// Scan seeds for a plan with exactly one victim whose crash interrupts
/// the run (rank 0 breaks, recovers, and resumes iterations), then report
/// rank 0's iteration rate on either side of the recovery.
fn bench_goodput(ft: &mut FtCounters) -> Goodput {
    for seed in 0..200u64 {
        let plan = FaultPlan::new(seed).crashes(0.6, 60, Nanos::us(90));
        let victims: Vec<usize> = (1..GOOD_PROCS)
            .filter(|&r| plan.crash_point(r as u64).is_some())
            .collect();
        if victims.len() != 1 {
            continue;
        }
        let out = goodput_run(seed, ft);
        let rec = out[0].clone().expect("rank 0 survives by plan");
        let (Some(t_break), Some(t_resume)) = (rec.t_break, rec.t_resume) else {
            continue; // crash point fell past the last operation; next seed
        };
        if rec.iters_before == 0 || rec.iter_resume as usize >= GOOD_ITERS {
            continue; // no window on one side of the recovery; next seed
        }
        // The before-window ends at the last *successful* iteration, not
        // at the break: the detection stall (probe timeout) between the
        // two belongs to recovery cost, not to pre-crash throughput.
        let _ = t_break;
        let before_ns = rec.t_last_ok.saturating_sub(rec.t_start).max(1);
        let after_ns = rec.t_end.saturating_sub(t_resume).max(1);
        let after_iters = GOOD_ITERS as u64 - rec.iter_resume;
        return Goodput {
            seed,
            victim: victims[0],
            before_iters_per_ms: rec.iters_before as f64 * 1e6 / before_ns as f64,
            after_iters_per_ms: after_iters as f64 * 1e6 / after_ns as f64,
            final_size: rec.final_size,
        };
    }
    panic!("no seed in 0..200 produced a single mid-run victim");
}

// ------------------------------------------------------------------ main

fn p50_max(samples: &[u64]) -> (u64, u64) {
    let p50 = percentile(samples, 50.0).unwrap_or(0);
    let max = percentile(samples, 100.0).unwrap_or(0);
    (p50, max)
}

fn main() {
    let mut ft = FtCounters::default();
    let detection = bench_detection(&mut ft);
    let revoke = bench_revoke(&mut ft);
    let shrink = bench_shrink_scale(&mut ft);
    let goodput = bench_goodput(&mut ft);

    let (dc50, dcmax) = p50_max(&detection.from_crash);
    let (dp50, dpmax) = p50_max(&detection.from_post);
    let (rv50, rvmax) = p50_max(&revoke);
    print_table(
        "FT recovery — detection and revoke propagation (virtual ns)",
        &["event", "samples", "p50", "max"],
        &[
            vec![
                "crash -> ProcessFailed".into(),
                detection.from_crash.len().to_string(),
                dc50.to_string(),
                dcmax.to_string(),
            ],
            vec![
                "post -> ProcessFailed".into(),
                detection.from_post.len().to_string(),
                dp50.to_string(),
                dpmax.to_string(),
            ],
            vec![
                "revoke -> peer Revoked".into(),
                revoke.len().to_string(),
                rv50.to_string(),
                rvmax.to_string(),
            ],
        ],
    );

    let rows: Vec<Vec<String>> = shrink
        .iter()
        .map(|t| {
            let (a50, amax) = p50_max(&t.agree_wall_ns);
            let (s50, smax) = p50_max(&t.shrink_wall_ns);
            vec![
                format!("{} task ranks", t.ranks),
                format!("{:.2} ms", a50 as f64 / 1e6),
                format!("{:.2} ms", amax as f64 / 1e6),
                format!("{:.2} ms", s50 as f64 / 1e6),
                format!("{:.2} ms", smax as f64 / 1e6),
                format!("{} ms", t.wall_ms_total),
            ]
        })
        .collect();
    print_table(
        "FT recovery — agree/shrink wall cost vs member count (crash-free, task launch)",
        &[
            "world",
            "agree p50",
            "agree max",
            "shrink p50",
            "shrink max",
            "tier total",
        ],
        &rows,
    );

    print_table(
        "FT recovery — survivor goodput around one crash (5-rank ring halo)",
        &["window", "iters per virtual ms"],
        &[
            vec![
                "before crash".into(),
                format!("{:.2}", goodput.before_iters_per_ms),
            ],
            vec![
                format!("after shrink to {}", goodput.final_size),
                format!("{:.2}", goodput.after_iters_per_ms),
            ],
        ],
    );

    takeaway(
        "fault tolerance must leave survivors productive, not just alive",
        &format!(
            "detection at crash+{}ns (probe timeout), revoke reaches \
             {} peers in <= {}ns, and the shrunken halo sustains {:.0}% of its \
             pre-crash iteration rate",
            PROBE_TIMEOUT.0,
            revoke.len(),
            rvmax,
            100.0 * goodput.after_iters_per_ms / goodput.before_iters_per_ms.max(f64::MIN_POSITIVE),
        ),
    );
    assert!(
        detection.from_crash.iter().all(|&d| d >= PROBE_TIMEOUT.0),
        "no detection may precede the modeled probe timeout"
    );
    assert!(
        goodput.after_iters_per_ms > 0.0,
        "survivors must make progress after the shrink"
    );

    let json = Value::obj([
        (
            "detection",
            Value::obj([
                ("probe_timeout_ns", Value::int(PROBE_TIMEOUT.0)),
                ("from_crash_ns", percentiles_json(&detection.from_crash)),
                ("from_post_ns", percentiles_json(&detection.from_post)),
            ]),
        ),
        (
            "revoke",
            Value::obj([
                ("ranks", Value::int(REVOKE_RANKS as u64)),
                ("propagation_ns", percentiles_json(&revoke)),
            ]),
        ),
        (
            "shrink_scale",
            Value::Arr(
                shrink
                    .iter()
                    .map(|t| {
                        Value::obj([
                            ("ranks", Value::int(t.ranks as u64)),
                            ("launch", Value::str("tasks")),
                            ("agree_wall_ns", percentiles_json(&t.agree_wall_ns)),
                            ("shrink_wall_ns", percentiles_json(&t.shrink_wall_ns)),
                            ("tier_wall_ms", Value::int(t.wall_ms_total)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "goodput",
            Value::obj([
                ("workload", Value::str("ring_halo")),
                ("procs", Value::int(GOOD_PROCS as u64)),
                ("iters", Value::int(GOOD_ITERS as u64)),
                ("seed", Value::int(goodput.seed)),
                ("victim", Value::int(goodput.victim as u64)),
                ("final_size", Value::int(goodput.final_size as u64)),
                (
                    "before_iters_per_ms",
                    Value::Num(goodput.before_iters_per_ms),
                ),
                ("after_iters_per_ms", Value::Num(goodput.after_iters_per_ms)),
            ]),
        ),
        ("ft_counters", ft.json()),
    ]);
    write_bench_json("ft_recovery", &json);
}
