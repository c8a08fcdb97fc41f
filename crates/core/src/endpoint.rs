//! Tests of point-to-point traffic between endpoint ranks: the
//! communicators `Communicator::create_endpoints` returns, one per endpoint,
//! each on a VCI of its own.

mod tests {
    use crate::{Error, Universe, ANY_SOURCE, ANY_TAG};

    #[test]
    fn endpoint_to_endpoint_roundtrip() {
        let u = Universe::builder().nodes(2).threads_per_proc(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            let eps = world.create_endpoints(&mut th0, 2).unwrap();
            let eps = &eps;
            env.parallel(|th| {
                let ep = &eps[th.tid()];
                // Pair endpoint i of rank 0 with endpoint i of rank 1.
                let peer = if env.rank() == 0 {
                    ep.endpoint_rank(1, th.tid())
                } else {
                    ep.endpoint_rank(0, th.tid())
                };
                if env.rank() == 0 {
                    ep.send(th, peer, 5, b"to-ep").unwrap();
                    let (st, data) = ep.recv(th, peer as i64, 6).unwrap();
                    assert_eq!(st.source, peer);
                    assert_eq!(&data[..], b"back");
                } else {
                    let (st, data) = ep.recv(th, peer as i64, 5).unwrap();
                    assert_eq!(st.source, peer);
                    assert_eq!(&data[..], b"to-ep");
                    ep.send(th, peer, 6, b"back").unwrap();
                }
            });
        });
    }

    #[test]
    fn wildcard_on_one_endpoint_sees_all_senders() {
        // The Legion pattern: one polling endpoint receives from many task
        // threads' endpoints with ANY_SOURCE (Fig. 5, right side).
        let u = Universe::builder().nodes(2).threads_per_proc(3).build();
        u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            let n_ep = 3;
            let eps = world.create_endpoints(&mut th0, n_ep).unwrap();
            if env.rank() == 0 {
                // Three task threads send from their own endpoints.
                let eps = &eps;
                env.parallel(|th| {
                    let ep = &eps[th.tid()];
                    let poller = ep.endpoint_rank(1, 0);
                    ep.send(th, poller, th.tid() as i64, b"event").unwrap();
                });
            } else {
                // One polling endpoint drains everything with wildcards.
                let poll_ep = &eps[0];
                let mut seen = Vec::new();
                while seen.len() < 3 {
                    if let Some((st, _)) = poll_ep.try_recv(&mut th0, ANY_SOURCE, ANY_TAG).unwrap()
                    {
                        seen.push(st.tag);
                    } else {
                        std::thread::yield_now();
                    }
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![0, 1, 2]);
            }
        });
    }

    #[test]
    fn messages_between_distinct_endpoint_pairs_are_parallel() {
        // Two endpoint pairs at t=0 inject on distinct hardware contexts:
        // identical virtual timing — no serialization between them.
        let u = Universe::builder().nodes(2).threads_per_proc(2).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th0 = env.single_thread();
            let eps = world.create_endpoints(&mut th0, 2).unwrap();
            let eps = &eps;
            env.parallel(|th| {
                let ep = &eps[th.tid()];
                if env.rank() == 0 {
                    let peer = ep.endpoint_rank(1, th.tid());
                    ep.send(th, peer, 0, &[0u8; 8]).unwrap();
                    th.clock.now()
                } else {
                    let peer = ep.endpoint_rank(0, th.tid());
                    let _ = ep.recv(th, peer as i64, 0).unwrap();
                    th.clock.now()
                }
            })
        });
        // Sender-side completion times identical across the two endpoints.
        assert_eq!(out[0][0], out[0][1]);
    }

    #[test]
    fn bad_endpoint_rank_is_rejected() {
        let u = Universe::builder().nodes(1).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let eps = world.create_endpoints(&mut th, 1).unwrap();
            assert!(matches!(
                eps[0].send(&mut th, 99, 0, b""),
                Err(Error::InvalidRank { .. })
            ));
            assert!(matches!(
                eps[0].iprobe(&mut th, eps[0].size() as i64, 0),
                Err(Error::InvalidRank { .. })
            ));
        });
    }

    #[test]
    fn endpoint_sends_draw_on_the_payload_pool() {
        let u = Universe::builder().nodes(2).build();
        let pools = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let eps = world.create_endpoints(&mut th, 1).unwrap();
            let ep = &eps[0];
            let peer = 1 - ep.rank();
            for _ in 0..64 {
                if env.rank() == 0 {
                    // Above the inline cap, so each payload needs a slab.
                    ep.send(&mut th, peer, 0, &[7u8; 64]).unwrap();
                    // The ack says the peer dropped its view of the payload:
                    // the slab is reusable from the next send on.
                    ep.recv(&mut th, peer as i64, 1).unwrap();
                } else {
                    drop(ep.recv(&mut th, peer as i64, 0).unwrap());
                    ep.send(&mut th, peer, 1, &[]).unwrap();
                }
            }
            let vci = ep.proc().vci(ep.vci_block()[0]);
            (
                vci.payload_pool().fresh_allocs(),
                vci.payload_pool().reuses(),
            )
        });
        let (fresh, reused) = pools[0];
        assert_eq!(fresh + reused, 64);
        assert!(reused > 0);
    }
}
