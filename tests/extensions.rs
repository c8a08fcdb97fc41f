//! Integration tests of the endpoints and partitioned extensions working
//! together with the core library in one universe.

use rankmpi_core::{Info, ReduceOp, Universe, Window, ANY_SOURCE, ANY_TAG};

#[test]
fn endpoints_and_plain_comm_traffic_coexist() {
    // World pt2pt and endpoint pt2pt interleave on the same processes without
    // cross-matching (separate context ids).
    let u = Universe::builder().nodes(2).threads_per_proc(2).build();
    u.run(|env| {
        let world = env.world();
        let mut setup = env.single_thread();
        let eps = world.create_endpoints(&mut setup, 2).unwrap();
        let eps = &eps;
        env.parallel(|th| {
            let tid = th.tid();
            let ep = &eps[tid];
            let peer_proc = 1 - env.rank();
            let peer_ep = ep.endpoint_rank(peer_proc, tid);
            if env.rank() == 0 {
                world.send(th, 1, tid as i64, b"via-world").unwrap();
                ep.send(th, peer_ep, tid as i64, b"via-ep").unwrap();
                let (_s, d) = ep.recv(th, peer_ep as i64, ANY_TAG).unwrap();
                assert_eq!(&d[..], b"ep-reply");
            } else {
                let (_s, d1) = ep.recv(th, ANY_SOURCE, tid as i64).unwrap();
                assert_eq!(&d1[..], b"via-ep");
                let (_s, d2) = world.recv(th, 0, tid as i64).unwrap();
                assert_eq!(&d2[..], b"via-world");
                ep.send(th, peer_ep, 0, b"ep-reply").unwrap();
            }
        });
    });
}

#[test]
fn endpoint_collective_while_partitioned_traffic_flows() {
    let u = Universe::builder()
        .nodes(2)
        .threads_per_proc(2)
        .num_vcis(2)
        .build();
    u.run(|env| {
        let world = env.world();
        let mut setup = env.single_thread();
        let eps = world.create_endpoints(&mut setup, 2).unwrap();

        // A partitioned stream runs alongside the endpoint collective.
        if env.rank() == 0 {
            let sreq = world
                .psend_init(&mut setup, 1, 5, 4, 16, &Info::new())
                .unwrap();
            sreq.start(&mut setup).unwrap();
            for p in 0..4 {
                sreq.pready(&mut setup, p, &[p as u8; 16]).unwrap();
            }
            let eps = &eps;
            let sums =
                env.parallel(|th| eps[th.tid()].allreduce(th, &[1.0], ReduceOp::Sum).unwrap()[0]);
            assert!(sums.iter().all(|&s| s == 4.0));
            sreq.wait(&mut setup).unwrap();
        } else {
            let rreq = world
                .precv_init(&mut setup, 0, 5, 4, 16, &Info::new())
                .unwrap();
            rreq.start(&mut setup).unwrap();
            let eps = &eps;
            let sums =
                env.parallel(|th| eps[th.tid()].allreduce(th, &[1.0], ReduceOp::Sum).unwrap()[0]);
            assert!(sums.iter().all(|&s| s == 4.0));
            let data = rreq.wait(&mut setup).unwrap();
            for p in 0..4 {
                assert_eq!(data[p * 16], p as u8);
            }
        }
    });
}

#[test]
fn window_driven_through_endpoint_vcis() {
    let u = Universe::builder().nodes(2).threads_per_proc(2).build();
    u.run(|env| {
        let world = env.world();
        let mut setup = env.single_thread();
        let win = Window::create(&world, &mut setup, 128, &Info::new()).unwrap();
        let eps = world.create_endpoints(&mut setup, 2).unwrap();
        let win = &win;
        let eps = &eps;
        if env.rank() == 0 {
            env.parallel(|th| {
                let vci = eps[th.tid()].vci_block()[0];
                let off = th.tid() * 32;
                win.put_on_vci(th, vci, 1, off, &[th.tid() as u8 + 1; 8])
                    .unwrap();
                win.accumulate_on_vci(th, vci, 1, 64, &[1.0], ReduceOp::Sum)
                    .unwrap();
                win.flush(th, 1).unwrap();
            });
        }
        win.fence(&mut setup).unwrap();
        if env.rank() == 1 {
            assert_eq!(win.read_local(0, 1).unwrap(), vec![1]);
            assert_eq!(win.read_local(32, 1).unwrap(), vec![2]);
            assert_eq!(win.read_local_f64(64, 1).unwrap(), vec![2.0]);
        }
    });
}

#[test]
fn partitioned_streams_in_both_directions() {
    let u = Universe::builder().nodes(2).num_vcis(2).build();
    u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        let me = env.rank();
        let peer = 1 - me;
        let sreq = world
            .psend_init(&mut th, peer, 1, 2, 8, &Info::new())
            .unwrap();
        let rreq = world
            .precv_init(&mut th, peer, 1, 2, 8, &Info::new())
            .unwrap();
        for iter in 0..3u8 {
            sreq.start(&mut th).unwrap();
            rreq.start(&mut th).unwrap();
            sreq.pready(&mut th, 0, &[me as u8 * 10 + iter; 8]).unwrap();
            sreq.pready(&mut th, 1, &[me as u8 * 10 + iter + 100; 8])
                .unwrap();
            let data = rreq.wait(&mut th).unwrap();
            assert_eq!(data[0], peer as u8 * 10 + iter);
            assert_eq!(data[8], peer as u8 * 10 + iter + 100);
            sreq.wait(&mut th).unwrap();
        }
    });
}

#[test]
fn split_communicators_isolate_collectives() {
    // Split world into evens/odds; each half allreduces independently while
    // pt2pt still flows on world.
    let u = Universe::builder().nodes(4).build();
    u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        let color = (env.rank() % 2) as i64;
        let half = world
            .split(&mut th, color, env.rank() as i64)
            .unwrap()
            .unwrap();
        assert_eq!(half.size(), 2);
        let sum = half
            .allreduce(&mut th, &[env.rank() as f64], ReduceOp::Sum)
            .unwrap();
        let expect = if color == 0 { 0.0 + 2.0 } else { 1.0 + 3.0 };
        assert_eq!(sum[0], expect);
        // Cross-half pt2pt on world still works.
        if env.rank() == 0 {
            world.send(&mut th, 3, 7, b"hi").unwrap();
        } else if env.rank() == 3 {
            let (_s, d) = world.recv(&mut th, 0, 7).unwrap();
            assert_eq!(&d[..], b"hi");
        }
    });
}
