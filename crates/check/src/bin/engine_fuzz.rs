//! Randomized differential fuzzer across every matching engine.
//!
//! Each case feeds one seeded-random post/arrive/probe/cancel workload to
//! all [`EngineKind`]s in lockstep through the [`rankmpi_check::oracle`]
//! driver and demands observational equivalence — per step, and in full
//! (logs, depths, drain order, match conservation) at the end. Variants
//! cover direct delivery, chaos- and lossy-fault mailboxes, sequence-number
//! wraparound (engine counters started just below `u64::MAX`), and
//! schedule-explored op interleavings.
//!
//! The committed corpus (`crates/check/corpus/engine_fuzz_seeds.txt`) runs
//! first, then a sweep of [`SWEEP_SEEDS`] fresh seeds (derived from
//! `RANKMPI_CHECK_SEED`) per variant, each [`STEPS`] operations long. A
//! divergence prints a one-line replay command naming the exact variant and
//! seed:
//!
//! ```text
//! RANKMPI_FUZZ_VARIANT=faulted RANKMPI_FUZZ_SEED=17 \
//!     cargo run --release -p rankmpi-check --bin engine_fuzz
//! ```
//!
//! and the process exits nonzero so CI fails. Setting those two variables
//! reruns just that case.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rankmpi_check::oracle::{
    assert_final_equivalence_all, differential_run_config, random_packet, random_pattern,
    DiffConfig, DiffDriver,
};
use rankmpi_check::{base_seed, explore, ExploreConfig, Task};
use rankmpi_core::matching::EngineKind;
use rankmpi_fabric::FaultPlan;
use rankmpi_vtime::sched::{yield_point, SchedPoint};
use rankmpi_vtime::Nanos;

/// Regression seeds, committed with the repo; see the file's header.
const CORPUS: &str = include_str!("../../corpus/engine_fuzz_seeds.txt");
/// Operations per fuzz case.
const STEPS: usize = 400;
/// Fresh seeds swept per variant after the corpus.
const SWEEP_SEEDS: u64 = 32;

/// One workload shape the fuzzer drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// Direct delivery, counters from zero.
    Clean,
    /// Arrivals through a chaos-plan mailbox (delays, reorders, dups, NACKs).
    Faulted,
    /// Arrivals through a lossy-plan mailbox (drops and link flaps too).
    Lossy,
    /// Direct delivery with engine sequence counters wrapping mid-run.
    Wraparound,
    /// Schedule-explored op interleavings replayed into every engine.
    Explored,
}

impl Variant {
    fn all() -> [Variant; 5] {
        [
            Variant::Clean,
            Variant::Faulted,
            Variant::Lossy,
            Variant::Wraparound,
            Variant::Explored,
        ]
    }

    fn name(self) -> &'static str {
        match self {
            Variant::Clean => "clean",
            Variant::Faulted => "faulted",
            Variant::Lossy => "lossy",
            Variant::Wraparound => "wraparound",
            Variant::Explored => "explored",
        }
    }

    fn parse(s: &str) -> Option<Variant> {
        Self::all().into_iter().find(|v| v.name() == s)
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|s| s.trim().parse().ok())
}

/// Run one case; panics (caught by the caller) on any divergence.
fn run_case(variant: Variant, seed: u64) {
    let kinds = EngineKind::all();
    match variant {
        Variant::Clean => {
            differential_run_config(&kinds, &DiffConfig::clean(seed, STEPS));
        }
        Variant::Faulted => {
            let plan = FaultPlan::chaos(0xF022_0000 ^ seed);
            differential_run_config(&kinds, &DiffConfig::faulted(seed, STEPS, plan));
        }
        Variant::Lossy => {
            let plan = FaultPlan::lossy(0x1055_0000 ^ seed);
            differential_run_config(&kinds, &DiffConfig::faulted(seed, STEPS, plan));
        }
        Variant::Wraparound => {
            // Counters start close enough to u64::MAX that both the posting
            // and the arrival counter wrap while the queues are populated.
            let cfg = DiffConfig::clean(seed, STEPS).with_seq_base(u64::MAX - (STEPS as u64 / 4));
            differential_run_config(&kinds, &cfg);
        }
        Variant::Explored => explored_case(seed),
    }
}

/// The explored variant: two producer tasks emit op slots under the
/// deterministic scheduler; a replayer maps each slot to a seeded-random
/// op and feeds the interleaved stream to every engine. Equivalence must
/// hold on every explored interleaving.
fn explored_case(seed: u64) {
    const PER_TASK: u32 = 6;
    let cfg = ExploreConfig {
        depth: 3,
        max_exhaustive: 40,
        random_samples: 8,
        ..ExploreConfig::with_seed(seed)
    };
    explore(&format!("engine_fuzz_explored_{seed}"), &cfg, move || {
        let ops: Arc<Mutex<Vec<(u32, u32)>>> = Arc::new(Mutex::new(Vec::new()));
        let mut tasks: Vec<Task> = Vec::new();
        for t in 0..2u32 {
            let ops = Arc::clone(&ops);
            tasks.push(Box::new(move || {
                for i in 0..PER_TASK {
                    ops.lock().push((t, i));
                    yield_point(SchedPoint::Custom("fuzz-op"));
                }
            }));
        }
        let ops2 = Arc::clone(&ops);
        tasks.push(Box::new(move || {
            loop {
                yield_point(SchedPoint::Custom("fuzz-replay-wait"));
                if ops2.lock().len() == 2 * PER_TASK as usize {
                    break;
                }
            }
            let slots = ops2.lock().clone();
            let mut drivers: Vec<DiffDriver> =
                EngineKind::all().into_iter().map(DiffDriver::new).collect();
            let mut post_id = 0usize;
            for (pos, (t, i)) in slots.into_iter().enumerate() {
                // Each slot's op is a pure function of (seed, t, i): the
                // explored interleaving only decides the order.
                let mut rng = StdRng::seed_from_u64(seed ^ ((t as u64) << 32) ^ ((i as u64) << 8));
                let now = Nanos(pos as u64 + 1);
                if rng.gen_range(0u32..10) < 5 {
                    let p = random_pattern(&mut rng);
                    for d in drivers.iter_mut() {
                        d.post(post_id, p, now);
                    }
                    post_id += 1;
                } else {
                    let pkt = random_packet(&mut rng, (t * 1000 + i) as u64, now);
                    for d in drivers.iter_mut() {
                        d.arrive(pkt.clone());
                    }
                }
            }
            assert_final_equivalence_all(drivers, &format!("explored fuzz seed {seed}"));
        }));
        tasks
    });
}

fn main() {
    // Replay mode: exactly one pinned case.
    let mut cases: Vec<(Variant, u64)> = Vec::new();
    let pinned = std::env::var("RANKMPI_FUZZ_VARIANT")
        .ok()
        .and_then(|v| Variant::parse(v.trim()))
        .zip(env_u64("RANKMPI_FUZZ_SEED"));
    if let Some((variant, seed)) = pinned {
        cases.push((variant, seed));
    } else {
        for line in CORPUS.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let variant = parts
                .next()
                .and_then(Variant::parse)
                .unwrap_or_else(|| panic!("bad corpus line: {line:?}"));
            let seed: u64 = parts
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("bad corpus line: {line:?}"));
            cases.push((variant, seed));
        }
        let base = base_seed();
        for i in 0..SWEEP_SEEDS {
            for variant in Variant::all() {
                cases.push((variant, base.wrapping_mul(10_000).wrapping_add(i)));
            }
        }
    }

    let total = cases.len();
    let mut divergences = 0usize;
    for (variant, seed) in cases {
        let ok = catch_unwind(AssertUnwindSafe(|| run_case(variant, seed))).is_ok();
        if !ok {
            divergences += 1;
            println!(
                "DIVERGENCE: replay with RANKMPI_FUZZ_VARIANT={} RANKMPI_FUZZ_SEED={seed} \
                 cargo run --release -p rankmpi-check --bin engine_fuzz",
                variant.name()
            );
        }
    }

    let engines = EngineKind::all().len();
    println!("engine_fuzz: {total} cases x {engines} engines, {divergences} divergences");
    if divergences > 0 {
        std::process::exit(1);
    }
}
