//! Legion-style event-based runtime: task threads issue active messages;
//! a dedicated polling thread per node processes incoming requests
//! (Fig. 5, Lesson 5, and the Fig. 1(c) circuit workload).
//!
//! The polling thread is the crux: it must see messages from *every* remote
//! task thread. With communicators it is forced to iterate over all of them
//! (`iprobe` each, paying a lock + engine scan per probe); with endpoints it
//! parks on one endpoint and uses wildcards. The paper reports the
//! communicator variant processes events 1.63× slower.

use rankmpi_core::matching::{ANY_SOURCE, ANY_TAG};
use rankmpi_core::{Communicator, Universe};
use rankmpi_fabric::NetworkProfile;
use rankmpi_vtime::Nanos;

/// How the runtime exposes its communication parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LegionMode {
    /// One communicator for everything; the poller uses wildcards on it.
    /// Legal but serializes all task threads on one channel ("Original").
    SingleComm,
    /// A communicator per remote task thread; the poller iterates over all
    /// of them (Fig. 5 left).
    CommPerThread,
    /// An endpoint per task thread plus one polling endpoint; the poller
    /// wildcards on its own endpoint (Fig. 5 right).
    Endpoints,
}

impl LegionMode {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            LegionMode::SingleComm => "single comm (Original)",
            LegionMode::CommPerThread => "communicators (poller iterates)",
            LegionMode::Endpoints => "endpoints (poller wildcards)",
        }
    }
}

/// Workload parameters.
#[derive(Debug, Clone)]
pub struct LegionConfig {
    /// Task threads on the sending node.
    pub task_threads: usize,
    /// Active messages each task thread issues.
    pub events_per_thread: usize,
    /// Active-message payload bytes.
    pub msg_bytes: usize,
    /// Virtual compute time a task performs between messages.
    pub task_compute: Nanos,
    /// Virtual time the poller's event handler runs per event.
    pub handler_compute: Nanos,
    /// Network profile.
    pub profile: NetworkProfile,
}

impl Default for LegionConfig {
    fn default() -> Self {
        LegionConfig {
            task_threads: 8,
            events_per_thread: 50,
            msg_bytes: 64,
            task_compute: Nanos(2_000),
            handler_compute: Nanos(200),
            profile: NetworkProfile::omni_path(),
        }
    }
}

/// Results of one run.
#[derive(Debug, Clone)]
pub struct LegionReport {
    /// Mode label.
    pub mode: &'static str,
    /// Total events processed by the poller.
    pub events: usize,
    /// The poller's virtual time span to drain everything (includes waiting
    /// for arrivals, so it mostly tracks the senders' pace).
    pub poller_time: Nanos,
    /// The poller's *busy* virtual time: probing, matching, receiving —
    /// excluding time spent waiting for messages to arrive. This is the
    /// per-event processing cost Lesson 5 is about.
    pub poller_busy: Nanos,
    /// Events per second of poller busy time (millions).
    pub mevents_per_sec: f64,
    /// Slowest task thread's virtual send time.
    pub task_time: Nanos,
}

/// Run the event workload: node 0 hosts `task_threads` senders; node 1 hosts
/// the polling thread, which drains `task_threads * events_per_thread`
/// events and acknowledges nothing (one-way active messages, like Realm's).
pub fn run_legion(mode: LegionMode, cfg: &LegionConfig) -> LegionReport {
    let t = cfg.task_threads;
    let total = t * cfg.events_per_thread;
    let num_vcis = match mode {
        LegionMode::SingleComm => 1,
        LegionMode::CommPerThread => t + 1,
        LegionMode::Endpoints => 1,
    };
    let uni = Universe::builder()
        .nodes(2)
        .procs_per_node(1)
        .threads_per_proc(t)
        .num_vcis(num_vcis)
        .profile(cfg.profile.clone())
        .build();

    let times = uni.run(|env| {
        let world = env.world();
        let mut setup = env.single_thread();
        let comms: Vec<Communicator> = match mode {
            LegionMode::CommPerThread => (0..t).map(|_| world.dup(&mut setup).unwrap()).collect(),
            _ => Vec::new(),
        };
        // Endpoints: rank 0 creates t task endpoints, rank 1 creates one
        // polling endpoint.
        let eps = match mode {
            LegionMode::Endpoints => {
                let mine = if env.rank() == 0 { t } else { 1 };
                world.create_endpoints(&mut setup, mine).unwrap()
            }
            _ => Vec::new(),
        };
        let comms = &comms;
        let eps = &eps;

        if env.rank() == 0 {
            // Task threads.
            let times = env.parallel(|th| {
                crate::measure::begin(th);
                let tid = th.tid();
                let payload = vec![tid as u8; cfg.msg_bytes];
                for _ in 0..cfg.events_per_thread {
                    th.clock.advance(cfg.task_compute);
                    match mode {
                        LegionMode::SingleComm => {
                            world.send(th, 1, tid as i64, &payload).unwrap();
                        }
                        LegionMode::CommPerThread => {
                            comms[tid].send(th, 1, tid as i64, &payload).unwrap();
                        }
                        LegionMode::Endpoints => {
                            let poller = eps[tid].endpoint_rank(1, 0);
                            eps[tid].send(th, poller, tid as i64, &payload).unwrap();
                        }
                    }
                }
                crate::measure::elapsed(th)
            });
            (times.into_iter().max().unwrap(), Nanos::ZERO)
        } else {
            // The polling thread. When a poll sweep finds nothing it parks on
            // the process notifier (sleeping, not advancing virtual time) so
            // the measured poller time is per-event processing cost, not
            // arbitrary idle spinning.
            let mut th = env.single_thread();
            crate::measure::begin(&mut th);
            let notify = env.proc().notify().clone();
            // Event loop shape: poll for ONE request, run its handler, then
            // re-poll from the top — the structure of Realm's progress
            // thread. With communicators the sweep restarts over *all* task
            // threads' communicators per event (Fig. 5 left); with a single
            // communicator or endpoint one wildcard probe suffices.
            for _ in 0..total {
                notify.wait_until(|| match mode {
                    LegionMode::SingleComm => world.try_recv(&mut th, ANY_SOURCE, ANY_TAG).unwrap(),
                    LegionMode::CommPerThread => comms
                        .iter()
                        .find_map(|c| c.try_recv(&mut th, ANY_SOURCE, ANY_TAG).unwrap()),
                    LegionMode::Endpoints => eps[0].try_recv(&mut th, ANY_SOURCE, ANY_TAG).unwrap(),
                });
                th.clock.advance(cfg.handler_compute);
            }
            (crate::measure::elapsed(&th), th.clock.waited())
        }
    });

    let task_time = times[0].0;
    let (poller_time, waited) = times[1];
    let poller_busy = poller_time - waited;
    LegionReport {
        mode: mode.label(),
        events: total,
        poller_time,
        poller_busy,
        mevents_per_sec: total as f64 / poller_busy.as_secs_f64() / 1e6,
        task_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> LegionConfig {
        LegionConfig {
            task_threads: 4,
            events_per_thread: 20,
            ..LegionConfig::default()
        }
    }

    #[test]
    fn all_modes_drain_all_events() {
        let cfg = quick();
        for mode in [
            LegionMode::SingleComm,
            LegionMode::CommPerThread,
            LegionMode::Endpoints,
        ] {
            let rep = run_legion(mode, &cfg);
            assert_eq!(rep.events, 80);
            assert!(rep.poller_time > Nanos::ZERO, "{mode:?}");
        }
    }

    #[test]
    fn endpoints_poll_faster_than_comm_iteration() {
        let cfg = LegionConfig {
            task_threads: 8,
            events_per_thread: 40,
            ..LegionConfig::default()
        };
        let comms = run_legion(LegionMode::CommPerThread, &cfg);
        let eps = run_legion(LegionMode::Endpoints, &cfg);
        assert!(
            comms.poller_time > eps.poller_time,
            "Lesson 5: iterating communicators is slower: {} vs {}",
            comms.poller_time,
            eps.poller_time
        );
    }

    #[test]
    fn parallel_channels_beat_single_comm_for_tasks() {
        let cfg = LegionConfig {
            task_threads: 8,
            events_per_thread: 40,
            task_compute: Nanos(0),
            ..LegionConfig::default()
        };
        let single = run_legion(LegionMode::SingleComm, &cfg);
        let eps = run_legion(LegionMode::Endpoints, &cfg);
        assert!(
            eps.task_time < single.task_time,
            "task-side injection must parallelize: {} vs {}",
            eps.task_time,
            single.task_time
        );
    }
}
