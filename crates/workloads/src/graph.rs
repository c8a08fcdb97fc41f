//! Vite-style irregular graph communication (Lesson 5): the communication
//! neighborhood of each thread changes every round, as in distributed
//! community detection.
//!
//! With communicators, matching requires sender and receiver to agree on the
//! communicator — so a dynamically changing neighborhood forces the
//! application to pre-create a communicator for *every possible pair* of
//! communicating threads. With endpoints, a thread just addresses whatever
//! endpoint it currently needs while receiving on its own.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rankmpi_core::{Communicator, Universe};
use rankmpi_fabric::NetworkProfile;
use rankmpi_vtime::Nanos;

/// Mechanism for the irregular exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphMode {
    /// Pre-created communicator per (sender thread, receiver thread) pair.
    PairwiseComms,
    /// One endpoint per thread.
    Endpoints,
}

impl GraphMode {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            GraphMode::PairwiseComms => "pairwise communicators",
            GraphMode::Endpoints => "endpoints",
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct GraphConfig {
    /// Threads per process (2 processes).
    pub threads: usize,
    /// Exchange rounds; the peer permutation reshuffles every round.
    pub rounds: usize,
    /// Message payload bytes.
    pub msg_bytes: usize,
    /// RNG seed for the permutations.
    pub seed: u64,
    /// Network profile.
    pub profile: NetworkProfile,
}

impl Default for GraphConfig {
    fn default() -> Self {
        GraphConfig {
            threads: 6,
            rounds: 8,
            msg_bytes: 128,
            seed: 7,
            profile: NetworkProfile::omni_path(),
        }
    }
}

/// Results of one run.
#[derive(Debug, Clone)]
pub struct GraphReport {
    /// Mode label.
    pub mode: &'static str,
    /// Channels (communicators or endpoints) created per process.
    pub channels_created: usize,
    /// Slowest thread's total virtual time.
    pub total_time: Nanos,
    /// Messages exchanged in total.
    pub messages: usize,
}

/// Per-round peer permutation: thread `i` on each process sends to thread
/// `perm[i]` on the other process.
fn permutation(round: usize, threads: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(round as u64));
    let mut p: Vec<usize> = (0..threads).collect();
    p.shuffle(&mut rng);
    p
}

/// Run the irregular exchange between two processes.
pub fn run_graph(mode: GraphMode, cfg: &GraphConfig) -> GraphReport {
    let t = cfg.threads;
    let num_vcis = match mode {
        GraphMode::PairwiseComms => t * t + 1,
        GraphMode::Endpoints => 1,
    };
    let uni = Universe::builder()
        .nodes(2)
        .threads_per_proc(t)
        .num_vcis(num_vcis)
        .profile(cfg.profile.clone())
        .build();

    let channels = match mode {
        GraphMode::PairwiseComms => t * t,
        GraphMode::Endpoints => t,
    };

    let times = uni.run(|env| {
        let world = env.world();
        let mut setup = env.single_thread();
        // Pairwise comms: comm[i * t + j] carries i→j traffic (either
        // direction between the two processes).
        let comms: Vec<Communicator> = match mode {
            GraphMode::PairwiseComms => {
                (0..t * t).map(|_| world.dup(&mut setup).unwrap()).collect()
            }
            _ => Vec::new(),
        };
        let eps = match mode {
            GraphMode::Endpoints => world.create_endpoints(&mut setup, t).unwrap(),
            _ => Vec::new(),
        };
        let comms = &comms;
        let eps = &eps;
        let peer = 1 - env.rank();

        let per_thread = env.parallel(|th| {
            crate::measure::begin(th);
            let tid = th.tid();
            let payload = vec![tid as u8; cfg.msg_bytes];
            for round in 0..cfg.rounds {
                let perm = permutation(round, t, cfg.seed);
                let send_to = perm[tid];
                // Who sends to me this round?
                let recv_from = perm.iter().position(|&x| x == tid).unwrap();
                match mode {
                    GraphMode::PairwiseComms => {
                        // The channel is identified by (sender tid, receiver
                        // tid) — both sides must look up the same comm.
                        let s = comms[tid * t + send_to]
                            .isend(th, peer, 0, &payload)
                            .unwrap();
                        let r = comms[recv_from * t + tid]
                            .irecv(th, peer as i64, 0)
                            .unwrap();
                        s.wait(&mut th.clock);
                        let (_st, data) = r.wait(&mut th.clock);
                        assert_eq!(data[0] as usize, recv_from);
                    }
                    GraphMode::Endpoints => {
                        let ep = &eps[tid];
                        let dst_ep = ep.endpoint_rank(peer, send_to);
                        let src_ep = ep.endpoint_rank(peer, recv_from);
                        let s = ep.isend(th, dst_ep, 0, &payload).unwrap();
                        let r = ep.irecv(th, src_ep as i64, 0).unwrap();
                        s.wait(&mut th.clock);
                        let (_st, data) = r.wait(&mut th.clock);
                        assert_eq!(data[0] as usize, recv_from);
                    }
                }
            }
            crate::measure::elapsed(th)
        });
        per_thread.into_iter().max().unwrap()
    });

    GraphReport {
        mode: mode.label(),
        channels_created: channels,
        total_time: times.into_iter().max().unwrap(),
        messages: 2 * t * cfg.rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutations_are_seeded_and_valid() {
        let p1 = permutation(3, 8, 42);
        let p2 = permutation(3, 8, 42);
        assert_eq!(p1, p2, "same seed, same round, same permutation");
        let mut sorted = p1.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        assert_ne!(permutation(4, 8, 42), p1, "rounds reshuffle");
    }

    #[test]
    fn both_modes_complete_correctly() {
        let cfg = GraphConfig {
            threads: 4,
            rounds: 4,
            ..GraphConfig::default()
        };
        let c = run_graph(GraphMode::PairwiseComms, &cfg);
        let e = run_graph(GraphMode::Endpoints, &cfg);
        assert_eq!(c.messages, e.messages);
        assert!(c.total_time > Nanos::ZERO && e.total_time > Nanos::ZERO);
    }

    #[test]
    fn endpoints_need_quadratically_fewer_channels() {
        let cfg = GraphConfig {
            threads: 6,
            rounds: 2,
            ..GraphConfig::default()
        };
        let c = run_graph(GraphMode::PairwiseComms, &cfg);
        let e = run_graph(GraphMode::Endpoints, &cfg);
        assert_eq!(c.channels_created, 36);
        assert_eq!(e.channels_created, 6);
    }
}
