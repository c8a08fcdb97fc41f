//! Request-lifecycle conformance: completion is monotone and stable.
//!
//! Once a request reports complete it must stay complete, its completion
//! time must never change, and its payload must be handed out exactly once
//! — under explored schedules at the `ReqState` level and under fault
//! injection at the whole-universe level. And a blocked waiter is always
//! woken: a request (alone, or completed in a batch by another task's
//! drain), a barrier member, a split member and a lock member, the shapes of
//! wait that share `Notify::wait_until`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rankmpi_check::{base_seed, explore, BuildChecked, ExploreConfig, Task};
use rankmpi_core::matching::MatchPattern;
use rankmpi_core::request::{ReqState, Request};
use rankmpi_core::vci::KIND_PT2PT;
use rankmpi_core::Universe;
use rankmpi_fabric::{FaultPlan, Header, Packet};
use rankmpi_vtime::barrier::BarrierCosts;
use rankmpi_vtime::engine;
use rankmpi_vtime::sched::{yield_point, SchedPoint};
use rankmpi_vtime::{Clock, ContentionLock, LockCosts, Nanos, VirtualBarrier};

/// One completer and two observers race over a `ReqState` across every
/// explored interleaving: no observer may ever see completion regress, and
/// `finish_at` must be frozen from the first completed observation on.
#[test]
fn completion_is_monotone_under_explored_schedules() {
    let cfg = ExploreConfig {
        depth: 5,
        max_exhaustive: 120,
        random_samples: 8,
        ..ExploreConfig::with_seed(base_seed() ^ 0x4E9)
    };
    explore("request_completion_monotone", &cfg, || {
        let req = ReqState::detached();
        let completer: Task = {
            let req = Arc::clone(&req);
            Box::new(move || {
                yield_point(SchedPoint::Custom("pre-complete"));
                req.complete(
                    Nanos(1234),
                    rankmpi_core::Status {
                        source: 3,
                        tag: 9,
                        len: 2,
                    },
                    bytes::Bytes::from_static(b"ok"),
                );
                yield_point(SchedPoint::Custom("post-complete"));
            })
        };
        let observer = |req: Arc<ReqState>| -> Task {
            Box::new(move || {
                let mut seen_complete = false;
                let mut frozen_finish = Nanos::ZERO;
                for _ in 0..8 {
                    yield_point(SchedPoint::Custom("observe"));
                    let complete = req.is_complete();
                    if seen_complete {
                        assert!(complete, "request completion regressed");
                        assert_eq!(
                            req.finish_at(),
                            frozen_finish,
                            "finish_at changed after completion"
                        );
                    } else if complete {
                        seen_complete = true;
                        frozen_finish = req.finish_at();
                        assert_eq!(frozen_finish, Nanos(1234));
                    }
                }
            })
        };
        vec![
            completer,
            observer(Arc::clone(&req)),
            observer(Arc::clone(&req)),
        ]
    });
}

/// One case of the blocked-waiter suite: `mk` builds a fresh task set in
/// which `waiters` tasks block through `Notify::wait_until` (as engine tasks
/// they park) and count themselves into the counter once they return.
struct WaiterCase {
    name: &'static str,
    salt: u64,
    waiters: u64,
    mk: fn(&Arc<AtomicU64>) -> Vec<Task>,
}

/// Run one case under explored schedules. No schedule may lose a wakeup: a
/// waiter left parked is reported by the engine as a deadlock (there is no
/// timeout to rescue a parked task), which `explore` turns into a
/// replayable failure; and every waiter of every schedule must return.
fn explore_waiters(case: WaiterCase) {
    let cfg = ExploreConfig {
        depth: 5,
        max_exhaustive: 120,
        random_samples: 8,
        ..ExploreConfig::with_seed(base_seed() ^ case.salt)
    };
    let returned = Arc::new(AtomicU64::new(0));
    let cov = explore(case.name, &cfg, || (case.mk)(&returned));
    assert_eq!(
        returned.load(Ordering::Relaxed),
        case.waiters * cov.schedules,
        "{}: a waiter did not return",
        case.name
    );
}

/// The park / notify / unpark triple behind a *blocked* request, with the
/// waiter-count fast path in play: one task blocks in `block_until_complete`,
/// one completes the request between two yield points, one fires bare
/// notifies on the same notifier so the waiter's queued unparker is drained
/// by wakes that are not the completion.
#[test]
fn blocked_request_is_woken_under_explored_schedules() {
    explore_waiters(WaiterCase {
        name: "blocked_request_is_woken",
        salt: 0xB10C,
        waiters: 1,
        mk: |returned| {
            let req = ReqState::detached();
            let waiter: Task = {
                let (req, returned) = (Arc::clone(&req), Arc::clone(returned));
                Box::new(move || {
                    req.block_until_complete(None, || yield_point(SchedPoint::Custom("poll")));
                    assert!(req.is_complete());
                    assert_eq!(req.finish_at(), Nanos(77));
                    returned.fetch_add(1, Ordering::Relaxed);
                })
            };
            let completer: Task = {
                let req = Arc::clone(&req);
                Box::new(move || {
                    yield_point(SchedPoint::Custom("pre-complete"));
                    req.complete(
                        Nanos(77),
                        rankmpi_core::Status {
                            source: 0,
                            tag: 0,
                            len: 0,
                        },
                        bytes::Bytes::new(),
                    );
                    yield_point(SchedPoint::Custom("post-complete"));
                })
            };
            let noise: Task = {
                let notify = req.notify_handle();
                Box::new(move || {
                    for _ in 0..3 {
                        yield_point(SchedPoint::Custom("pre-noise"));
                        notify.notify();
                    }
                })
            };
            vec![waiter, completer, noise]
        },
    });
}

/// Two tasks of one process each wait on their own receive, and whichever
/// drain comes first completes both: the other's request is completed
/// without a notify of its own. The drain's engine section owes the
/// process notifier one ring at its end; without it, a waiter that polled
/// an empty mailbox while the drain was between its completions stays
/// parked.
#[test]
fn batched_completions_wake_every_waiter_under_explored_schedules() {
    explore_waiters(WaiterCase {
        name: "batched_completions_wake_every_waiter",
        salt: 0xBA7C,
        waiters: 2,
        mk: |returned| {
            let universe = Arc::clone(Universe::builder().nodes(1).build_checked().shared());
            let proc = universe.proc(0);
            let vci = proc.vci(0);
            let posted = Arc::new(AtomicU64::new(0));
            let mut tasks: Vec<Task> = (0..2i64)
                .map(|tag| {
                    let (vci, notify) = (Arc::clone(&vci), Arc::clone(proc.notify()));
                    let (posted, returned) = (Arc::clone(&posted), Arc::clone(returned));
                    Box::new(move || {
                        let mut clock = Clock::new();
                        let state = ReqState::new(notify);
                        let pattern = MatchPattern {
                            context_id: 1,
                            src: 0,
                            tag,
                        };
                        vci.post_recv(&mut clock, pattern, Arc::clone(&state));
                        posted.fetch_add(1, Ordering::SeqCst);
                        let (st, _) = Request::pending(state, vci).wait(&mut clock);
                        assert_eq!(st.tag, tag);
                        returned.fetch_add(1, Ordering::Relaxed);
                    }) as Task
                })
                .collect();
            tasks.push(Box::new(move || {
                // Both receives are posted, then both packets land before
                // the one wake: a single drain can complete both.
                while posted.load(Ordering::SeqCst) < 2 {
                    yield_point(SchedPoint::Custom("await-posts"));
                }
                let mailbox = vci.mailbox();
                for tag in 0..2 {
                    let header = Header {
                        kind: KIND_PT2PT,
                        context_id: 1,
                        src: 0,
                        dst: 0,
                        tag,
                        seq: 0,
                        aux: 0,
                        aux2: 0,
                    };
                    let payload = bytes::Bytes::new();
                    mailbox.push_quiet(
                        Packet {
                            header,
                            payload,
                            arrive_at: Nanos(100),
                        },
                        None,
                    );
                }
                mailbox.notifier().notify();
            }));
            tasks
        },
    });
}

/// A two-member `VirtualBarrier`: whichever member arrives first waits for
/// the other's arrival to turn the generation, and both leave at the joined
/// time. The barrier keeps its notifier to itself, so the third task makes
/// its noise by unparking the members directly — wakes that are not the
/// generation turning, which a parked member must sleep through again.
#[test]
fn blocked_barrier_members_are_woken_under_explored_schedules() {
    explore_waiters(WaiterCase {
        name: "blocked_barrier_members_are_woken",
        salt: 0xBA55,
        waiters: 2,
        mk: |returned| {
            let barrier = Arc::new(VirtualBarrier::with_costs(
                2,
                BarrierCosts {
                    base: Nanos(10),
                    per_level: Nanos(0),
                },
            ));
            let parked: Arc<Mutex<Vec<engine::Unparker>>> = Arc::default();
            let mut tasks: Vec<Task> = (0..2u64)
                .map(|i| {
                    let (barrier, parked) = (Arc::clone(&barrier), Arc::clone(&parked));
                    let returned = Arc::clone(returned);
                    Box::new(move || {
                        parked.lock().extend(engine::current_unparker());
                        let mut clock = Clock::starting_at(Nanos(100 * i));
                        yield_point(SchedPoint::Custom("pre-arrive"));
                        barrier.wait(&mut clock);
                        assert_eq!(clock.now(), Nanos(110), "left before the join");
                        returned.fetch_add(1, Ordering::Relaxed);
                    }) as Task
                })
                .collect();
            tasks.push(Box::new(move || {
                for _ in 0..3 {
                    yield_point(SchedPoint::Custom("pre-noise"));
                    let members = parked.lock().clone();
                    for up in members {
                        up.unpark();
                    }
                }
            }));
            tasks
        },
    });
}

/// A three-member `split` rendezvous: every member contributes, the last
/// contribution rings the universe's rendezvous notifier, and every member
/// returns the full vector in rank order.
#[test]
fn blocked_split_members_are_woken_under_explored_schedules() {
    explore_waiters(WaiterCase {
        name: "blocked_split_members_are_woken",
        salt: 0x5B17,
        waiters: 3,
        mk: |returned| {
            let universe = Arc::clone(Universe::builder().nodes(1).build_checked().shared());
            (0..3i64)
                .map(|i| {
                    let (universe, returned) = (Arc::clone(&universe), Arc::clone(returned));
                    Box::new(move || {
                        yield_point(SchedPoint::Custom("pre-contribute"));
                        let all = universe.gather_split((0, 0), i as usize, 3, i % 2, i);
                        assert_eq!(all, vec![(0, 0), (1, 1), (0, 2)]);
                        returned.fetch_add(1, Ordering::Relaxed);
                    }) as Task
                })
                .collect()
        },
    });
}

/// Three members of one `ContentionLock`, all entering at virtual 0: whoever
/// holds the mutex when another arrives makes that one park until the
/// release's notify. Contention is a function of virtual overlap alone, so
/// the sections line up one behind the other (each `handoff` apart) in
/// every schedule: the same sorted clocks and the same charged total,
/// whichever real order the members took the mutex in.
#[test]
fn blocked_lock_members_are_woken_under_explored_schedules() {
    explore_waiters(WaiterCase {
        name: "blocked_lock_members_are_woken",
        salt: 0x10C4,
        waiters: 3,
        mk: |returned| {
            let lock = Arc::new(ContentionLock::with_costs(
                (),
                LockCosts {
                    acquire_base: Nanos(30),
                    handoff: Nanos(50),
                },
            ));
            let clocks: Arc<Mutex<Vec<Nanos>>> = Arc::default();
            (0..3)
                .map(|_| {
                    let (lock, clocks) = (Arc::clone(&lock), Arc::clone(&clocks));
                    let returned = Arc::clone(returned);
                    Box::new(move || {
                        let mut clock = Clock::new();
                        let g = lock.lock(&mut clock);
                        clock.advance(Nanos(100));
                        g.release(&mut clock);
                        let mut clocks = clocks.lock();
                        clocks.push(clock.now());
                        if clocks.len() == 3 {
                            clocks.sort();
                            // Sections [30, 130) + 50, then two shifted
                            // behind it: 150 and 300 on top of 130.
                            assert_eq!(*clocks, [Nanos(130), Nanos(280), Nanos(430)]);
                            assert_eq!(lock.contended_total(), Nanos(3 * 30 + 150 + 300));
                        }
                        returned.fetch_add(1, Ordering::Relaxed);
                    }) as Task
                })
                .collect()
        },
    });
}

/// Nonblocking `test` polls under fault injection: completion observed via
/// `test` is final, payloads are intact, and completed requests report
/// `is_complete` forever after.
#[test]
fn test_polls_are_monotone_under_faults() {
    for s in 0..3u64 {
        let plan = FaultPlan::chaos(base_seed() ^ 0x7E57 ^ (s << 4));
        let u = Universe::builder()
            .nodes(2)
            .fault_plan(plan)
            .build_checked();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            const N: usize = 12;
            if env.rank() == 0 {
                for i in 0..N {
                    world.send(&mut th, 1, i as i64, &[i as u8; 8]).unwrap();
                }
            } else {
                let reqs: Vec<_> = (0..N)
                    .map(|i| world.irecv(&mut th, 0, i as i64).unwrap())
                    .collect();
                let mut done = [false; N];
                let mut results = vec![None; N];
                while done.iter().any(|d| !d) {
                    for (i, r) in reqs.iter().enumerate() {
                        if done[i] {
                            // Monotone: completion never regresses, even
                            // while other requests still progress.
                            assert!(r.is_complete(), "request {i} un-completed");
                            continue;
                        }
                        if let Some((st, data)) = r.test(&mut th.clock) {
                            assert_eq!(st.source, 0);
                            assert_eq!(st.tag, i as i64);
                            results[i] = Some(data);
                            done[i] = true;
                        }
                    }
                }
                for (i, data) in results.into_iter().enumerate() {
                    assert_eq!(&data.unwrap()[..], &[i as u8; 8]);
                }
            }
        });
    }
}

/// Completion virtual times are internally consistent: a request completed
/// later in the same channel never finishes at an earlier virtual time than
/// one it must follow (send order on one `(src, tag)` stream).
#[test]
fn completion_times_follow_channel_order() {
    let u = Universe::builder()
        .nodes(2)
        .fault_plan(FaultPlan::chaos(base_seed() ^ 0xC10C))
        .build_checked();
    u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        const N: usize = 16;
        if env.rank() == 0 {
            for i in 0..N {
                world.send(&mut th, 1, 5, &[i as u8]).unwrap();
            }
        } else {
            let mut last_finish = Nanos::ZERO;
            for i in 0..N {
                let r = world.irecv(&mut th, 0, 5).unwrap();
                let (_st, data) = r.wait(&mut th.clock);
                assert_eq!(data[0], i as u8, "channel order broken");
                let f = r.finish_at();
                assert!(
                    f >= last_finish,
                    "completion time regressed on one channel: {f:?} after {last_finish:?}"
                );
                last_finish = f;
            }
        }
    });
}
