//! The Fig. 1(a) microbenchmark: small-message rate between two nodes as the
//! core/thread count grows, under the three deployment models.

use rankmpi_core::{Communicator, Universe};
use rankmpi_fabric::NetworkProfile;
use rankmpi_vtime::Nanos;

/// Deployment model for the message-rate sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateMode {
    /// MPI everywhere: `n` single-threaded processes per node, each with its
    /// own library instance (its own VCI and hardware context).
    Everywhere,
    /// MPI+threads, `MPI_THREAD_MULTIPLE`, no logically parallel
    /// communication: one process per node, `n` threads sharing one
    /// communicator — and therefore one VCI (the "Original" line).
    ThreadsOriginal,
    /// MPI+threads with logically parallel communication: one communicator
    /// per thread, each mapped to its own VCI (the fast MPI 4.0/MPICH line).
    ThreadsPerCommVci,
    /// MPI+threads with user-visible endpoints: one endpoint per thread.
    ThreadsEndpoints,
}

impl RateMode {
    /// Display label matching the paper's legend.
    pub fn label(&self) -> &'static str {
        match self {
            RateMode::Everywhere => "MPI everywhere",
            RateMode::ThreadsOriginal => "MPI+threads (Original)",
            RateMode::ThreadsPerCommVci => "MPI+threads (comm-per-thread VCIs)",
            RateMode::ThreadsEndpoints => "MPI+threads (endpoints)",
        }
    }
}

/// One sweep point's result.
#[derive(Debug, Clone, Copy)]
pub struct RatePoint {
    /// Cores (processes or threads) per node.
    pub cores: usize,
    /// Aggregate message rate in million messages per second.
    pub mmsgs_per_sec: f64,
    /// Virtual time of the slowest participant.
    pub elapsed: Nanos,
}

/// Configuration of the rate benchmark.
#[derive(Debug, Clone)]
pub struct RateConfig {
    /// Messages each sender issues.
    pub msgs_per_sender: usize,
    /// Receive window: receives posted per batch before waiting (the OSU
    /// message-rate methodology; bounds matching-queue depth).
    pub window: usize,
    /// Payload size in bytes (8 in the paper's regime: rate-, not
    /// bandwidth-bound).
    pub msg_bytes: usize,
    /// Network profile.
    pub profile: NetworkProfile,
}

impl Default for RateConfig {
    fn default() -> Self {
        RateConfig {
            msgs_per_sender: 200,
            window: 16,
            msg_bytes: 8,
            profile: NetworkProfile::omni_path(),
        }
    }
}

/// Run one sweep point: node 0's `cores` senders blast node 1's `cores`
/// receivers with eager messages; the rate is total messages over the slowest
/// participant's virtual time.
pub fn run_rate(mode: RateMode, cores: usize, cfg: &RateConfig) -> RatePoint {
    let elapsed = match mode {
        RateMode::Everywhere => run_everywhere(cores, cfg),
        RateMode::ThreadsOriginal => run_threads(cores, cfg, ThreadChannel::SharedComm),
        RateMode::ThreadsPerCommVci => run_threads(cores, cfg, ThreadChannel::CommPerThread),
        RateMode::ThreadsEndpoints => run_threads(cores, cfg, ThreadChannel::EndpointPerThread),
    };
    let total_msgs = (cores * cfg.msgs_per_sender) as f64;
    RatePoint {
        cores,
        mmsgs_per_sec: total_msgs / elapsed.as_secs_f64() / 1e6,
        elapsed,
    }
}

fn run_everywhere(cores: usize, cfg: &RateConfig) -> Nanos {
    let uni = Universe::builder()
        .nodes(2)
        .procs_per_node(cores)
        .threads_per_proc(1)
        .num_vcis(1)
        .profile(cfg.profile.clone())
        .build();
    let n = cores;
    let msgs = cfg.msgs_per_sender;
    let bytes = cfg.msg_bytes;
    let cfg_window = cfg.window.max(1);
    let times = uni.run(move |env| {
        let world = env.world();
        let mut th = env.single_thread();
        crate::measure::begin(&mut th);
        let r = env.rank();
        if r < n {
            // Sender on node 0 pairs with receiver r + n on node 1.
            let peer = r + n;
            let payload = vec![0u8; bytes];
            for _ in 0..msgs {
                world.send(&mut th, peer, 0, &payload).unwrap();
            }
        } else {
            let peer = r - n;
            let mut left = msgs;
            while left > 0 {
                let batch = left.min(cfg_window);
                let reqs: Vec<_> = (0..batch)
                    .map(|_| world.irecv(&mut th, peer as i64, 0).unwrap())
                    .collect();
                for req in reqs {
                    req.wait(&mut th.clock);
                }
                left -= batch;
            }
        }
        crate::measure::elapsed(&th)
    });
    times.into_iter().max().unwrap()
}

#[derive(Debug, Clone, Copy)]
enum ThreadChannel {
    SharedComm,
    CommPerThread,
    EndpointPerThread,
}

fn run_threads(cores: usize, cfg: &RateConfig, channel: ThreadChannel) -> Nanos {
    let num_vcis = match channel {
        ThreadChannel::SharedComm => 1,
        _ => cores,
    };
    let uni = Universe::builder()
        .nodes(2)
        .procs_per_node(1)
        .threads_per_proc(cores)
        .num_vcis(num_vcis)
        .profile(cfg.profile.clone())
        .build();
    let msgs = cfg.msgs_per_sender;
    let bytes = cfg.msg_bytes;
    let cfg_window = cfg.window.max(1);
    let times = uni.run(move |env| {
        let world = env.world();
        let peer = 1 - env.rank();

        // Per-thread channels, created serially up front (outside timing).
        let mut setup = env.single_thread();
        let comms: Vec<Communicator> = match channel {
            ThreadChannel::CommPerThread => {
                (0..cores).map(|_| world.dup(&mut setup).unwrap()).collect()
            }
            _ => Vec::new(),
        };
        let eps = match channel {
            ThreadChannel::EndpointPerThread => world.create_endpoints(&mut setup, cores).unwrap(),
            _ => Vec::new(),
        };
        let comms = &comms;
        let eps = &eps;

        let times = env.parallel(|th| {
            crate::measure::begin(th);
            let tid = th.tid();
            let payload = vec![0u8; bytes];
            match channel {
                ThreadChannel::SharedComm => {
                    // All threads on one communicator: tags demultiplex.
                    if env.rank() == 0 {
                        for _ in 0..msgs {
                            world.send(th, peer, tid as i64, &payload).unwrap();
                        }
                    } else {
                        let mut left = msgs;
                        while left > 0 {
                            let batch = left.min(cfg_window);
                            let reqs: Vec<_> = (0..batch)
                                .map(|_| world.irecv(th, peer as i64, tid as i64).unwrap())
                                .collect();
                            for r in reqs {
                                r.wait(&mut th.clock);
                            }
                            left -= batch;
                        }
                    }
                }
                ThreadChannel::CommPerThread => {
                    let c = &comms[tid];
                    if env.rank() == 0 {
                        for _ in 0..msgs {
                            c.send(th, peer, 0, &payload).unwrap();
                        }
                    } else {
                        let mut left = msgs;
                        while left > 0 {
                            let batch = left.min(cfg_window);
                            let reqs: Vec<_> = (0..batch)
                                .map(|_| c.irecv(th, peer as i64, 0).unwrap())
                                .collect();
                            for r in reqs {
                                r.wait(&mut th.clock);
                            }
                            left -= batch;
                        }
                    }
                }
                ThreadChannel::EndpointPerThread => {
                    let ep = &eps[tid];
                    let peer_ep = ep.endpoint_rank(peer, tid);
                    if env.rank() == 0 {
                        for _ in 0..msgs {
                            ep.send(th, peer_ep, 0, &payload).unwrap();
                        }
                    } else {
                        let mut left = msgs;
                        while left > 0 {
                            let batch = left.min(cfg_window);
                            let reqs: Vec<_> = (0..batch)
                                .map(|_| ep.irecv(th, peer_ep as i64, 0).unwrap())
                                .collect();
                            for r in reqs {
                                r.wait(&mut th.clock);
                            }
                            left -= batch;
                        }
                    }
                }
            }
            crate::measure::elapsed(th)
        });
        times.into_iter().max().unwrap()
    });
    times.into_iter().max().unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> RateConfig {
        RateConfig {
            msgs_per_sender: 50,
            ..RateConfig::default()
        }
    }

    #[test]
    fn everywhere_scales_with_cores() {
        let cfg = quick_cfg();
        let r1 = run_rate(RateMode::Everywhere, 1, &cfg);
        let r4 = run_rate(RateMode::Everywhere, 4, &cfg);
        assert!(
            r4.mmsgs_per_sec > 2.5 * r1.mmsgs_per_sec,
            "4 procs should be ~4x of 1: {} vs {}",
            r4.mmsgs_per_sec,
            r1.mmsgs_per_sec
        );
    }

    #[test]
    fn original_threads_do_not_scale() {
        let cfg = quick_cfg();
        let r1 = run_rate(RateMode::ThreadsOriginal, 1, &cfg);
        let r4 = run_rate(RateMode::ThreadsOriginal, 4, &cfg);
        assert!(
            r4.mmsgs_per_sec < 1.5 * r1.mmsgs_per_sec,
            "shared-channel threads must stay near flat: {} vs {}",
            r4.mmsgs_per_sec,
            r1.mmsgs_per_sec
        );
    }

    #[test]
    fn vci_threads_scale_like_everywhere() {
        let cfg = quick_cfg();
        let threads = run_rate(RateMode::ThreadsPerCommVci, 4, &cfg);
        let everywhere = run_rate(RateMode::Everywhere, 4, &cfg);
        let ratio = threads.mmsgs_per_sec / everywhere.mmsgs_per_sec;
        assert!(
            ratio > 0.7 && ratio < 1.4,
            "logically parallel threads should match MPI everywhere: ratio {ratio}"
        );
    }

    #[test]
    fn endpoints_scale_too() {
        let cfg = quick_cfg();
        let r1 = run_rate(RateMode::ThreadsEndpoints, 1, &cfg);
        let r4 = run_rate(RateMode::ThreadsEndpoints, 4, &cfg);
        assert!(r4.mmsgs_per_sec > 2.5 * r1.mmsgs_per_sec);
    }
}
