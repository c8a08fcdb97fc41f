//! Tests of partitioned communication's send and receive requests
//! ([`Communicator::psend_init`](crate::Communicator::psend_init),
//! [`Communicator::precv_init`](crate::Communicator::precv_init)) between
//! two processes.

mod tests {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use rankmpi_vtime::Nanos;

    use crate::partitioned::PsendRequest;
    use crate::{Errhandler, Error, Info, Universe};

    #[test]
    fn partitioned_roundtrip_single_iteration() {
        let u = Universe::builder().nodes(2).num_vcis(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let sreq = world.psend_init(&mut th, 1, 5, 4, 8, &Info::new()).unwrap();
                sreq.start(&mut th).unwrap();
                for p in 0..4 {
                    sreq.pready(&mut th, p, &[p as u8; 8]).unwrap();
                }
                sreq.wait(&mut th).unwrap();
            } else {
                let rreq = world.precv_init(&mut th, 0, 5, 4, 8, &Info::new()).unwrap();
                rreq.start(&mut th).unwrap();
                let data = rreq.wait(&mut th).unwrap();
                for p in 0..4 {
                    assert_eq!(&data[p * 8..(p + 1) * 8], &[p as u8; 8]);
                }
            }
        });
    }

    /// Counts the yield points its thread reaches, and how many of them with
    /// the request's `route` mutex held.
    struct RouteHeld {
        req: Arc<PsendRequest>,
        yields: AtomicU64,
        held: AtomicU64,
    }

    impl rankmpi_vtime::sched::SchedHook for RouteHeld {
        fn reached(&self, _point: rankmpi_vtime::sched::SchedPoint) {
            self.yields.fetch_add(1, Ordering::Relaxed);
            if self.req.route.try_lock().is_none() {
                self.held.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn first_start_holds_no_plain_lock_across_the_route_handshake() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let sreq = Arc::new(world.psend_init(&mut th, 1, 5, 1, 8, &Info::new()).unwrap());
                let hook = Arc::new(RouteHeld {
                    req: Arc::clone(&sreq),
                    yields: AtomicU64::new(0),
                    held: AtomicU64::new(0),
                });
                {
                    let _armed = rankmpi_vtime::sched::install_thread_hook(hook.clone());
                    sreq.start(&mut th).unwrap();
                }
                // Asserted after the exchange: a lock held is a count, not
                // a hang.
                sreq.pready(&mut th, 0, &[7; 8]).unwrap();
                sreq.wait(&mut th).unwrap();
                assert!(
                    hook.yields.load(Ordering::Relaxed) > 0,
                    "the handshake posts, waits and advances the clock"
                );
                assert_eq!(hook.held.load(Ordering::Relaxed), 0);
            } else {
                let rreq = world.precv_init(&mut th, 0, 5, 1, 8, &Info::new()).unwrap();
                rreq.start(&mut th).unwrap();
                assert_eq!(rreq.wait(&mut th).unwrap(), [7; 8]);
            }
        });
    }

    #[test]
    fn persistent_across_iterations() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let iters = 5;
            if env.rank() == 0 {
                let sreq = world.psend_init(&mut th, 1, 9, 2, 4, &Info::new()).unwrap();
                for it in 0..iters {
                    sreq.start(&mut th).unwrap();
                    sreq.pready(&mut th, 0, &[it; 4]).unwrap();
                    sreq.pready(&mut th, 1, &[it + 100; 4]).unwrap();
                    sreq.wait(&mut th).unwrap();
                }
            } else {
                let rreq = world.precv_init(&mut th, 0, 9, 2, 4, &Info::new()).unwrap();
                for it in 0..iters {
                    rreq.start(&mut th).unwrap();
                    let data = rreq.wait(&mut th).unwrap();
                    assert_eq!(data[0], it);
                    assert_eq!(data[4], it + 100);
                }
            }
        });
    }

    #[test]
    fn parrived_polls_partitions_independently() {
        let u = Universe::builder().nodes(2).num_vcis(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let sreq = world.psend_init(&mut th, 1, 3, 2, 1, &Info::new()).unwrap();
                sreq.start(&mut th).unwrap();
                sreq.pready(&mut th, 1, b"B").unwrap();
                sreq.pready(&mut th, 0, b"A").unwrap();
                sreq.wait(&mut th).unwrap();
            } else {
                let rreq = world.precv_init(&mut th, 0, 3, 2, 1, &Info::new()).unwrap();
                rreq.start(&mut th).unwrap();
                // Poll until partition 1 lands (sent first).
                while !rreq.parrived(&mut th, 1).unwrap() {
                    std::thread::yield_now();
                }
                assert_eq!(rreq.read_partition(1), b"B");
                rreq.wait(&mut th).unwrap();
            }
        });
    }

    #[test]
    fn multithreaded_partitions_one_request() {
        // Listing 4's shape: each thread drives its own partition of the
        // single shared request.
        let t = 4;
        let u = Universe::builder()
            .nodes(2)
            .threads_per_proc(t)
            .num_vcis(t)
            .build();
        u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            if env.rank() == 0 {
                let sreq = world
                    .psend_init(&mut th0, 1, 2, t, 8, &Info::new())
                    .unwrap();
                sreq.start(&mut th0).unwrap();
                let sreq = &sreq;
                env.parallel(|th| {
                    sreq.pready(th, th.tid(), &[th.tid() as u8; 8]).unwrap();
                });
                sreq.wait(&mut th0).unwrap();
                assert!(sreq.shared_contention() > Nanos::ZERO);
            } else {
                let rreq = world
                    .precv_init(&mut th0, 0, 2, t, 8, &Info::new())
                    .unwrap();
                rreq.start(&mut th0).unwrap();
                let data = rreq.wait(&mut th0).unwrap();
                for p in 0..t {
                    assert_eq!(data[p * 8], p as u8);
                }
            }
        });
    }

    #[test]
    fn misuse_is_rejected() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let sreq = world.psend_init(&mut th, 1, 1, 2, 4, &Info::new()).unwrap();
                // pready before start.
                assert!(sreq.pready(&mut th, 0, &[0; 4]).is_err());
                sreq.start(&mut th).unwrap();
                // double start.
                assert!(sreq.start(&mut th).is_err());
                // wrong partition size.
                assert!(sreq.pready(&mut th, 0, &[0; 3]).is_err());
                // wait before all partitions ready.
                sreq.pready(&mut th, 0, &[0; 4]).unwrap();
                assert!(sreq.wait(&mut th).is_err());
                sreq.pready(&mut th, 1, &[0; 4]).unwrap();
                sreq.wait(&mut th).unwrap();
            } else {
                let rreq = world.precv_init(&mut th, 0, 1, 2, 4, &Info::new()).unwrap();
                assert!(rreq.wait(&mut th).is_err()); // wait before start
                rreq.start(&mut th).unwrap();
                rreq.wait(&mut th).unwrap();
            }
        });
    }

    #[test]
    fn a_revoked_communicator_refuses_the_route_handshake() {
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            world.set_errhandler(Errhandler::ErrorsReturn);
            let mut th = env.single_thread();
            world.revoke(&mut th).unwrap();
            assert!(matches!(
                world.send(&mut th, 1 - env.rank(), 1, b"x"),
                Err(Error::Revoked { context_id: 0 })
            ));
            if env.rank() == 0 {
                // `psend_init` is local; the handshake is `start`'s.
                let sreq = world.psend_init(&mut th, 1, 1, 2, 4, &Info::new()).unwrap();
                assert!(matches!(
                    sreq.start(&mut th),
                    Err(Error::Revoked { context_id: 0 })
                ));
            } else {
                assert!(matches!(
                    world.precv_init(&mut th, 0, 1, 2, 4, &Info::new()),
                    Err(Error::Revoked { context_id: 0 })
                ));
                assert_eq!(
                    world.proc().direct().len(),
                    0,
                    "a refused receive keeps no sink"
                );
            }
        });
    }
}
