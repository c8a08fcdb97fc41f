//! Smilei-style particle exchange (Lessons 6 and 9).
//!
//! Smilei's particle-in-cell patches exchange particle buffers whose sizes
//! change every iteration as particles move. Its `MPI_THREAD_MULTIPLE` code
//! already encodes thread ids and patch ids into tags — which is why the
//! tags-with-hints design is the *least-change* upgrade (Lesson 6: create one
//! communicator with the MPI 4.0 assertions and the MPICH mapping hints, keep
//! every send/recv line as is) — and also why it sits closest to the
//! tag-overflow cliff (Lesson 9: the patch-id bits compete with the
//! thread-id bits).

use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use rankmpi_core::info::keys;
use rankmpi_core::tag::{bits_for, TagLayout, TagPlacement};
use rankmpi_core::{Info, Universe};
use rankmpi_fabric::NetworkProfile;
use rankmpi_vtime::Nanos;

/// How the upgraded code exposes its parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmileiMode {
    /// The original code verbatim: one communicator, tags carry
    /// (src tid, dst tid, patch) — everything on one channel.
    Original,
    /// Lesson 6's upgrade: the same send/recv lines on a communicator
    /// duplicated with the MPI 4.0 assertions + MPICH one-to-one hints.
    TagsUpgraded,
    /// The endpoints rewrite: per-thread endpoints, patch id in the tag.
    Endpoints,
}

impl SmileiMode {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            SmileiMode::Original => "original (one comm, tags)",
            SmileiMode::TagsUpgraded => "tags + MPI 4.0 hints (least change)",
            SmileiMode::Endpoints => "endpoints (rewrite)",
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct SmileiConfig {
    /// Threads (patch columns) per process; 2 processes exchange.
    pub threads: usize,
    /// Patches per thread (each exchange carries a patch id in the tag).
    pub patches_per_thread: usize,
    /// Exchange iterations.
    pub iters: usize,
    /// Mean particle-buffer bytes (actual sizes vary ±50% per iteration).
    pub mean_bytes: usize,
    /// RNG seed for per-iteration buffer sizes.
    pub seed: u64,
    /// Network profile.
    pub profile: NetworkProfile,
}

impl Default for SmileiConfig {
    fn default() -> Self {
        SmileiConfig {
            threads: 4,
            patches_per_thread: 3,
            iters: 5,
            mean_bytes: 2048,
            seed: 11,
            profile: NetworkProfile::omni_path(),
        }
    }
}

/// Results of one run.
#[derive(Debug, Clone)]
pub struct SmileiReport {
    /// Mode label.
    pub mode: &'static str,
    /// Slowest thread's total time.
    pub total_time: Nanos,
    /// Tag bits consumed by the mechanism (thread ids + patch ids for tags;
    /// patch ids only for endpoints — Lesson 9's budget).
    pub tag_bits_used: u32,
    /// Bytes moved (all sizes verified on receipt).
    pub bytes_moved: usize,
}

/// Size of patch `p`'s buffer for thread `t` at iteration `i` (deterministic,
/// varies ±50% around the mean like a drifting particle population).
fn buf_size(cfg: &SmileiConfig, t: usize, p: usize, i: usize) -> usize {
    let mut rng =
        StdRng::seed_from_u64(cfg.seed ^ ((t as u64) << 40) ^ ((p as u64) << 20) ^ i as u64);
    let half = cfg.mean_bytes / 2;
    (cfg.mean_bytes - half + rng.gen_range(0..=2 * half)).max(16)
}

/// Run the particle exchange: thread `t` of each process trades every patch
/// buffer with thread `t` of the peer, sizes varying per iteration.
pub fn run_smilei(mode: SmileiMode, cfg: &SmileiConfig) -> SmileiReport {
    let t = cfg.threads;
    let layout = TagLayout::for_threads(t, TagPlacement::Msb)
        .expect("thread-id bits must fit (Lesson 9 otherwise)");
    let patch_bits = bits_for(cfg.patches_per_thread);
    assert!(
        patch_bits <= layout.app_bits,
        "patch ids overflow the tag space left by thread ids (Lesson 9)"
    );

    let num_vcis = match mode {
        SmileiMode::Original => 1,
        SmileiMode::TagsUpgraded => t,
        SmileiMode::Endpoints => 1,
    };
    let uni = Universe::builder()
        .nodes(2)
        .threads_per_proc(t)
        .num_vcis(num_vcis)
        .profile(cfg.profile.clone())
        .build();

    let tag_bits_used = match mode {
        // src tid + dst tid + patch id all ride the tag.
        SmileiMode::Original | SmileiMode::TagsUpgraded => {
            layout.src_tid_bits + layout.dst_tid_bits + patch_bits
        }
        // Endpoint ranks replace the tid bits; only patch ids remain.
        SmileiMode::Endpoints => patch_bits,
    };

    let times = uni.run(|env| {
        let world = env.world();
        let mut setup = env.single_thread();
        let comm = match mode {
            SmileiMode::Original => world.dup(&mut setup).unwrap(),
            SmileiMode::TagsUpgraded => {
                // Lesson 6: the one-time Info upgrade; every communication
                // line below is unchanged from the Original mode.
                let info = Info::new()
                    .set(keys::ASSERT_ALLOW_OVERTAKING, "true")
                    .set(keys::ASSERT_NO_ANY_TAG, "true")
                    .set(keys::ASSERT_NO_ANY_SOURCE, "true")
                    .set(keys::NUM_VCIS, &t.to_string())
                    .set(keys::NUM_TAG_BITS_VCI, &layout.src_tid_bits.to_string())
                    .set(keys::PLACE_TAG_BITS, "MSB")
                    .set(keys::TAG_VCI_HASH_TYPE, "one-to-one");
                world.dup_with_info(&mut setup, info).unwrap()
            }
            SmileiMode::Endpoints => world.dup(&mut setup).unwrap(),
        };
        let eps = match mode {
            SmileiMode::Endpoints => world.create_endpoints(&mut setup, t).unwrap(),
            _ => Vec::new(),
        };
        let comm = &comm;
        let eps = &eps;
        let peer = 1 - env.rank();

        let per_thread = env.parallel(|th| {
            crate::measure::begin(th);
            let tid = th.tid();
            for iter in 0..cfg.iters {
                for patch in 0..cfg.patches_per_thread {
                    let out_len = buf_size(cfg, tid, patch, iter);
                    let in_len = buf_size(cfg, tid, patch, iter); // symmetric
                    let buf = vec![(patch + iter) as u8; out_len];
                    match mode {
                        SmileiMode::Endpoints => {
                            let ep = &eps[tid];
                            let peer_ep = ep.endpoint_rank(peer, tid);
                            let r = ep.irecv(th, peer_ep as i64, patch as i64).unwrap();
                            ep.isend(th, peer_ep, patch as i64, &buf)
                                .unwrap()
                                .wait(&mut th.clock);
                            let (st, data) = r.wait(&mut th.clock);
                            assert_eq!(st.len, in_len);
                            assert_eq!(data[0], (patch + iter) as u8);
                        }
                        _ => {
                            // The app's existing tag encoding (Lesson 6).
                            let stag = layout.encode(tid, tid, patch as i64).unwrap();
                            let rtag = layout.encode(tid, tid, patch as i64).unwrap();
                            let r = comm.irecv(th, peer as i64, rtag).unwrap();
                            comm.isend(th, peer, stag, &buf)
                                .unwrap()
                                .wait(&mut th.clock);
                            let (st, data) = r.wait(&mut th.clock);
                            assert_eq!(st.len, in_len);
                            assert_eq!(data[0], (patch + iter) as u8);
                        }
                    }
                }
            }
            crate::measure::elapsed(th)
        });
        per_thread.into_iter().max().unwrap()
    });

    let bytes_moved: usize = (0..2)
        .flat_map(|_| {
            (0..t).flat_map(|tid| {
                (0..cfg.iters)
                    .flat_map(move |i| (0..cfg.patches_per_thread).map(move |p| (tid, p, i)))
            })
        })
        .map(|(tid, p, i)| buf_size(cfg, tid, p, i))
        .sum();

    SmileiReport {
        mode: mode.label(),
        total_time: times.into_iter().max().unwrap(),
        tag_bits_used,
        bytes_moved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_exchange_correctly() {
        let cfg = SmileiConfig::default();
        for mode in [
            SmileiMode::Original,
            SmileiMode::TagsUpgraded,
            SmileiMode::Endpoints,
        ] {
            let rep = run_smilei(mode, &cfg);
            assert!(rep.total_time > Nanos::ZERO, "{mode:?}");
            assert!(rep.bytes_moved > 0);
        }
    }

    #[test]
    fn upgrade_beats_original_and_endpoints_save_tag_bits() {
        let cfg = SmileiConfig {
            threads: 8,
            iters: 4,
            mean_bytes: 4096,
            ..SmileiConfig::default()
        };
        let orig = run_smilei(SmileiMode::Original, &cfg);
        let tags = run_smilei(SmileiMode::TagsUpgraded, &cfg);
        let eps = run_smilei(SmileiMode::Endpoints, &cfg);
        assert!(
            tags.total_time < orig.total_time,
            "the Info upgrade must pay off: {} vs {}",
            tags.total_time,
            orig.total_time
        );
        // Lesson 9: endpoints free the tid bits for the application.
        assert!(eps.tag_bits_used < tags.tag_bits_used);
        assert_eq!(tags.tag_bits_used - eps.tag_bits_used, 2 * 3); // 8 threads = 3+3 bits
    }

    #[test]
    fn buffer_sizes_vary_but_are_deterministic() {
        let cfg = SmileiConfig::default();
        let a = buf_size(&cfg, 1, 2, 3);
        assert_eq!(a, buf_size(&cfg, 1, 2, 3));
        let sizes: Vec<usize> = (0..10).map(|i| buf_size(&cfg, 0, 0, i)).collect();
        let distinct: std::collections::HashSet<_> = sizes.iter().collect();
        assert!(distinct.len() > 3, "sizes should drift across iterations");
        assert!(sizes.iter().all(|&s| s >= 16));
    }

    #[test]
    fn tag_budget_asserts_fire_when_patches_overflow() {
        let cfg = SmileiConfig {
            threads: 1024,              // 10 + 10 tid bits
            patches_per_thread: 1 << 3, // needs 3 more bits: 23 > 22
            ..SmileiConfig::default()
        };
        let r = std::panic::catch_unwind(|| run_smilei(SmileiMode::TagsUpgraded, &cfg));
        assert!(r.is_err(), "the Lesson 9 overflow must be caught");
    }
}
