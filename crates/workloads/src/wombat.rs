//! WOMBAT-style RMA halo exchange (Section II-A "Windows", Lesson 16's
//! sibling pattern for nonatomic one-sided communication).
//!
//! WOMBAT's magnetohydrodynamics patches exchange boundary data with
//! `MPI_Put`. The paper's window discussion gives users two ways to expose
//! parallelism for such nonatomic RMA:
//! - stay on **one window** — nonatomic puts are logically parallel by
//!   default, but mixing synchronization and parallel initiation on one
//!   window is hazardous and the channel mapping is a hash;
//! - create **distinct windows per thread**, each with its own channel — the
//!   windows analogue of communicator-per-thread, with the same resource
//!   multiplication;
//! - or, with the endpoints design, one window driven through per-thread
//!   endpoint channels.

use rankmpi_core::{Info, Universe, Window};
use rankmpi_fabric::NetworkProfile;
use rankmpi_vtime::Nanos;

/// How threads expose their put parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WombatMode {
    /// One shared window; puts ride the window's hash over one shared comm
    /// channel block.
    SingleWindow,
    /// One window per thread: explicit parallelism, multiplied resources.
    WindowPerThread,
    /// One window, puts driven through per-thread endpoint VCIs.
    EndpointsOneWindow,
}

impl WombatMode {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            WombatMode::SingleWindow => "single window (hashed channels)",
            WombatMode::WindowPerThread => "window per thread",
            WombatMode::EndpointsOneWindow => "endpoints within one window",
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct WombatConfig {
    /// Processes (one per node), exchanging pairwise (rank ↔ rank ^ 1).
    pub procs: usize,
    /// Threads per process, one patch each.
    pub threads: usize,
    /// Bytes per patch boundary put.
    pub patch_bytes: usize,
    /// Exchange iterations.
    pub iters: usize,
    /// Virtual compute per iteration per thread.
    pub compute: Nanos,
    /// Network profile.
    pub profile: NetworkProfile,
}

impl Default for WombatConfig {
    fn default() -> Self {
        WombatConfig {
            procs: 2,
            threads: 4,
            patch_bytes: 4096,
            iters: 6,
            compute: Nanos::us(4),
            profile: NetworkProfile::omni_path(),
        }
    }
}

/// Results of one run.
#[derive(Debug, Clone)]
pub struct WombatReport {
    /// Mode label.
    pub mode: &'static str,
    /// Slowest thread's time per iteration.
    pub per_iter: Nanos,
    /// Windows created per process.
    pub windows_created: usize,
    /// Every received boundary matched its expected sender/iteration.
    pub verified: bool,
}

/// Run the put-based halo exchange; boundary contents are verified after a
/// fence each iteration.
pub fn run_wombat(mode: WombatMode, cfg: &WombatConfig) -> WombatReport {
    assert!(
        cfg.procs.is_multiple_of(2),
        "pairwise exchange needs an even count"
    );
    let t = cfg.threads;
    let num_vcis = match mode {
        WombatMode::SingleWindow => t,
        WombatMode::WindowPerThread => t + 1,
        WombatMode::EndpointsOneWindow => 1,
    };
    let uni = Universe::builder()
        .nodes(cfg.procs)
        .threads_per_proc(t)
        .num_vcis(num_vcis)
        .profile(cfg.profile.clone())
        .build();

    let windows_created = match mode {
        WombatMode::WindowPerThread => t,
        _ => 1,
    };
    let patch = cfg.patch_bytes.max(16);
    let win_bytes = t * patch;

    let times = uni.run(|env| {
        let world = env.world();
        let mut setup = env.single_thread();
        // Window(s): per-thread windows each expose one patch slot; the
        // shared window exposes all patches.
        let wins: Vec<Window> = match mode {
            WombatMode::SingleWindow | WombatMode::EndpointsOneWindow => {
                vec![Window::create(&world, &mut setup, win_bytes, &Info::new()).unwrap()]
            }
            WombatMode::WindowPerThread => (0..t)
                .map(|_| Window::create(&world, &mut setup, patch, &Info::new()).unwrap())
                .collect(),
        };
        let eps = match mode {
            WombatMode::EndpointsOneWindow => world.create_endpoints(&mut setup, t).unwrap(),
            _ => Vec::new(),
        };
        let wins = &wins;
        let eps = &eps;
        let me = env.rank();
        let peer = me ^ 1;
        // Pairwise epochs: every iteration puts then fences.
        let per_thread = env.parallel(|th| {
            crate::measure::begin(th);
            let tid = th.tid();
            let mut boundary = vec![0u8; patch];
            for iter in 0..cfg.iters {
                let stamp: u64 = ((iter as u64) << 32) | ((me as u64) << 16) | tid as u64;
                boundary[..8].copy_from_slice(&stamp.to_le_bytes());
                match mode {
                    WombatMode::SingleWindow => {
                        wins[0].put(th, peer, tid * patch, &boundary).unwrap();
                        wins[0].flush(th, peer).unwrap();
                    }
                    WombatMode::WindowPerThread => {
                        wins[tid].put(th, peer, 0, &boundary).unwrap();
                        wins[tid].flush(th, peer).unwrap();
                    }
                    WombatMode::EndpointsOneWindow => {
                        // Endpoint completion scope: flush only this
                        // endpoint's channel, not sibling threads' streams.
                        let vci = eps[tid].vci_block()[0];
                        wins[0]
                            .put_on_vci(th, vci, peer, tid * patch, &boundary)
                            .unwrap();
                        wins[0].flush_on_vci(th, vci, peer).unwrap();
                    }
                }
                th.clock.advance(cfg.compute);
            }
            th.clock.now()
        });

        // Epoch close + verification (outside the measured loop).
        for w in wins.iter() {
            w.fence(&mut setup).unwrap();
        }
        let last_iter = cfg.iters as u64 - 1;
        for tid in 0..t {
            let got = match mode {
                WombatMode::WindowPerThread => wins[tid].read_local(0, 8).unwrap(),
                _ => wins[0].read_local(tid * patch, 8).unwrap(),
            };
            let stamp = u64::from_le_bytes(got[..8].try_into().unwrap());
            assert_eq!(
                stamp,
                (last_iter << 32) | ((peer as u64) << 16) | tid as u64,
                "boundary mismatch at p{me} slot {tid}"
            );
        }
        per_thread
            .into_iter()
            .map(|end| end - crate::measure::START)
            .max()
            .unwrap()
    });

    let total = times.into_iter().max().unwrap();
    WombatReport {
        mode: mode.label(),
        per_iter: total / cfg.iters as u64,
        windows_created,
        verified: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_exchange_correctly() {
        let cfg = WombatConfig {
            iters: 3,
            ..WombatConfig::default()
        };
        for mode in [
            WombatMode::SingleWindow,
            WombatMode::WindowPerThread,
            WombatMode::EndpointsOneWindow,
        ] {
            let rep = run_wombat(mode, &cfg);
            assert!(rep.verified, "{mode:?}");
            assert!(rep.per_iter > Nanos::ZERO);
        }
    }

    #[test]
    fn window_per_thread_multiplies_windows() {
        let cfg = WombatConfig {
            threads: 6,
            iters: 2,
            ..WombatConfig::default()
        };
        let single = run_wombat(WombatMode::SingleWindow, &cfg);
        let per_thread = run_wombat(WombatMode::WindowPerThread, &cfg);
        let eps = run_wombat(WombatMode::EndpointsOneWindow, &cfg);
        assert_eq!(single.windows_created, 1);
        assert_eq!(per_thread.windows_created, 6);
        assert_eq!(eps.windows_created, 1);
    }

    #[test]
    fn four_way_exchange_works() {
        let cfg = WombatConfig {
            procs: 4,
            iters: 2,
            ..WombatConfig::default()
        };
        let rep = run_wombat(WombatMode::SingleWindow, &cfg);
        assert!(rep.verified);
    }
}
