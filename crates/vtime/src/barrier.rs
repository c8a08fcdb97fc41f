//! A barrier that synchronizes both real threads and their virtual clocks.

use parking_lot::Mutex;

use crate::sched::{self, SchedPoint};
use crate::{Clock, Nanos, Notify};

/// Per-participant cost of a barrier episode, modeled after tree barriers on
/// many-core nodes: a base cost plus a log2(n) fan-in/fan-out term.
#[derive(Debug, Clone, Copy)]
pub struct BarrierCosts {
    /// Fixed per-episode cost.
    pub base: Nanos,
    /// Added once per level of the (binary) fan-in/fan-out tree.
    pub per_level: Nanos,
}

impl Default for BarrierCosts {
    fn default() -> Self {
        BarrierCosts {
            base: Nanos(100),
            per_level: Nanos(120),
        }
    }
}

struct BarrierState {
    arrived: usize,
    generation: u64,
    /// Max clock among arrivals of the current generation.
    max_now: Nanos,
    /// Release time of the last completed generation.
    release_at: Nanos,
}

/// A cyclic barrier for `n` simulated threads that also joins virtual time:
/// every participant leaves with its clock set to
/// `max(arrival clocks) + episode cost`.
///
/// Used wherever the paper's pseudocode synchronizes threads: the end of a halo
/// exchange iteration, the `omp single` + implicit barrier that completes a
/// partitioned request (Listing 4, Lesson 14), and team-wide collectives.
pub struct VirtualBarrier {
    n: usize,
    costs: BarrierCosts,
    state: Mutex<BarrierState>,
    /// Rung by the last arrival of every generation.
    turned: Notify,
}

impl VirtualBarrier {
    /// Barrier for `n` participants with default costs.
    pub fn new(n: usize) -> Self {
        Self::with_costs(n, BarrierCosts::default())
    }

    /// Barrier for `n` participants with explicit costs.
    pub fn with_costs(n: usize, costs: BarrierCosts) -> Self {
        assert!(n > 0, "barrier needs at least one participant");
        VirtualBarrier {
            n,
            costs,
            state: Mutex::new(BarrierState {
                arrived: 0,
                generation: 0,
                max_now: Nanos::ZERO,
                release_at: Nanos::ZERO,
            }),
            turned: Notify::new(),
        }
    }

    /// Episode cost for this barrier's width: `base + per_level * ceil(log2(n))`.
    pub fn episode_cost(&self) -> Nanos {
        let log2_ceil = (usize::BITS - (self.n - 1).leading_zeros()) as u64;
        self.costs.base + self.costs.per_level * log2_ceil
    }

    /// Arrive at the barrier; blocks (for real) until all `n` arrive, then sets
    /// the caller's clock to the joined release time.
    ///
    /// Waiting is [`Notify::wait_until`] on the generation turning: an engine
    /// task parks (1k waiting tasks cost nothing), a thread under a
    /// [`sched`] hook yields between polls, any other thread
    /// polls briefly, then sleeps.
    pub fn wait(&self, clock: &mut Clock) {
        sched::yield_point(SchedPoint::BarrierArrive);
        let (my_gen, last) = {
            let mut st = self.state.lock();
            let my_gen = st.generation;
            st.max_now = st.max_now.max(clock.now());
            st.arrived += 1;
            let last = st.arrived == self.n;
            if last {
                st.release_at = st.max_now + self.episode_cost();
                st.arrived = 0;
                st.max_now = Nanos::ZERO;
                st.generation += 1;
            }
            (my_gen, last)
        };
        if last {
            self.turned.notify();
        }
        // The generation cannot turn twice while we wait (that needs our own
        // next arrival), so `release_at` is still ours when we see it move.
        let release = self.turned.wait_until(|| {
            let st = self.state.lock();
            (st.generation != my_gen).then_some(st.release_at)
        });
        clock.wait_until(release);
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn single_participant_pays_only_episode_cost() {
        let b = VirtualBarrier::new(1);
        let mut c = Clock::new();
        c.advance(Nanos(500));
        b.wait(&mut c);
        assert_eq!(c.now(), Nanos(500) + b.episode_cost());
    }

    #[test]
    fn all_leave_at_joined_time() {
        let b = Arc::new(VirtualBarrier::with_costs(
            4,
            BarrierCosts {
                base: Nanos(10),
                per_level: Nanos(0),
            },
        ));
        let mut handles = Vec::new();
        for i in 0..4u64 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let mut c = Clock::new();
                c.advance(Nanos(i * 100)); // staggered arrivals: 0, 100, 200, 300
                b.wait(&mut c);
                c.now()
            }));
        }
        let exits: Vec<Nanos> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for t in &exits {
            assert_eq!(*t, Nanos(310)); // max arrival 300 + base 10
        }
    }

    #[test]
    fn barrier_is_reusable_across_generations() {
        let b = Arc::new(VirtualBarrier::with_costs(
            2,
            BarrierCosts {
                base: Nanos(5),
                per_level: Nanos(0),
            },
        ));
        let mut handles = Vec::new();
        for i in 0..2u64 {
            let b = Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                let mut c = Clock::new();
                for iter in 0..10u64 {
                    c.advance(Nanos(10 + i * iter)); // diverging work
                    b.wait(&mut c);
                }
                c.now()
            }));
        }
        let exits: Vec<Nanos> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(exits[0], exits[1], "clocks re-join every generation");
    }

    #[test]
    fn episode_cost_grows_with_width() {
        let costs = BarrierCosts {
            base: Nanos(0),
            per_level: Nanos(10),
        };
        let b2 = VirtualBarrier::with_costs(2, costs);
        let b16 = VirtualBarrier::with_costs(16, costs);
        assert_eq!(b2.episode_cost(), Nanos(10)); // log2(2) = 1 level
        assert_eq!(b16.episode_cost(), Nanos(40)); // log2(16) = 4 levels
    }
}
