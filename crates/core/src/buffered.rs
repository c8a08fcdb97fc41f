//! Tests of the double/triple-buffered partitioned pipelines
//! ([`BufferedPsend`](crate::BufferedPsend),
//! [`BufferedPrecv`](crate::BufferedPrecv)).

mod tests {
    use crate::{BufferedPrecv, BufferedPsend, Info, Universe};

    #[test]
    fn double_buffered_stream_preserves_iteration_order() {
        let u = Universe::builder().nodes(2).num_vcis(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            let iters = 6u8;
            if env.rank() == 0 {
                let mut tx =
                    BufferedPsend::new(&world, &mut th, 1, 100, 2, 2, 4, &Info::new()).unwrap();
                assert_eq!(tx.depth(), 2);
                for i in 0..iters {
                    let slot = tx.begin(&mut th).unwrap();
                    slot.pready(&mut th, 0, &[i; 4]).unwrap();
                    slot.pready(&mut th, 1, &[i + 100; 4]).unwrap();
                }
                tx.finish(&mut th).unwrap();
            } else {
                let mut rx =
                    BufferedPrecv::new(&world, &mut th, 0, 100, 2, 2, 4, &Info::new()).unwrap();
                let mut seen = Vec::new();
                for _ in 0..iters {
                    let (_slot, done) = rx.begin(&mut th).unwrap();
                    if let Some(data) = done {
                        seen.push(data[0]);
                    }
                }
                for data in rx.finish(&mut th).unwrap() {
                    seen.push(data[0]);
                }
                assert_eq!(seen, (0..iters).collect::<Vec<_>>());
            }
        });
    }

    #[test]
    fn pipeline_never_blocks_until_full() {
        // With depth 3, the first three begins must not require any wait.
        let u = Universe::builder().nodes(2).build();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let mut tx =
                    BufferedPsend::new(&world, &mut th, 1, 7, 3, 1, 1, &Info::new()).unwrap();
                for i in 0..3u8 {
                    let slot = tx.begin(&mut th).unwrap();
                    slot.pready(&mut th, 0, &[i]).unwrap();
                }
                tx.finish(&mut th).unwrap();
            } else {
                let mut rx =
                    BufferedPrecv::new(&world, &mut th, 0, 7, 3, 1, 1, &Info::new()).unwrap();
                for _ in 0..3 {
                    rx.begin(&mut th).unwrap();
                }
                let all = rx.finish(&mut th).unwrap();
                assert_eq!(all.len(), 3);
            }
        });
    }
}
