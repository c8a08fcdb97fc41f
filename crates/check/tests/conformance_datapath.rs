//! Datapath conformance: the lock-free mailbox rings, the batched-doorbell
//! injection path, and the spill queue behind them must be *invisible* to MPI
//! semantics — exactly-once, per-channel in-order delivery under concurrent
//! senders, bursts past ring capacity, fault plans, and both launch modes.

use std::sync::Arc;

use rankmpi_check::Task;
use rankmpi_check::{base_seed, explore, launch_modes_under_test, BuildChecked, ExploreConfig};
use rankmpi_core::Universe;
use rankmpi_fabric::{FaultPlan, Header, Mailbox, Notify, Packet};
use rankmpi_vtime::sched::{yield_point, SchedPoint};
use rankmpi_vtime::Nanos;

/// Messages per sender thread for the burst tests below — resolved at run
/// time to several times the per-channel ring capacity, so rings wrap
/// repeatedly and, when the receiver lags, spill mid-run.
fn per_sender() -> usize {
    3 * Mailbox::ring_capacity()
}

/// Four concurrent sender threads burst-write one receiver rank: every
/// payload arrives exactly once and per-channel FIFO holds, for both launch
/// modes; the rings (not the spill queue alone) must actually carry traffic.
#[test]
fn concurrent_bursts_past_ring_capacity_deliver_exactly_once_in_order() {
    for launch in launch_modes_under_test() {
        let u = Universe::builder()
            .nodes(2)
            .threads_per_proc(4)
            .launch(launch)
            .build_checked();
        u.run(|env| {
            let world = env.world();
            if env.rank() == 0 {
                env.parallel(|th| {
                    let tid = th.tid();
                    for i in 0..per_sender() {
                        let body = [tid as u8, i as u8, 0x5A];
                        world.send(th, 1, tid as i64, &body).unwrap();
                    }
                });
            } else {
                env.parallel(|th| {
                    let tid = th.tid();
                    for i in 0..per_sender() {
                        let (_st, data) = world.recv(th, 0, tid as i64).unwrap();
                        assert_eq!(
                            data.as_ref(),
                            [tid as u8, i as u8, 0x5A],
                            "message {i} on channel {tid} lost, duplicated, or \
                             reordered (launch {launch:?})"
                        );
                    }
                });
            }
        });
        let mut ring_pushes = 0;
        for r in 0..2 {
            for v in 0..u.shared().proc(r).num_vcis() {
                ring_pushes += u.shared().proc(r).vci(v).mailbox().ring_pushes();
            }
        }
        assert!(
            ring_pushes > 0,
            "no push ever took the lock-free ring path (launch {launch:?})"
        );
    }
}

/// A batched multi-send must deliver exactly what the equivalent singles
/// deliver, while coalescing its NIC doorbells: `n` messages in one batch
/// ring one doorbell, and `doorbells + doorbells_coalesced` stays equal to
/// the NIC message count (so nothing is double-counted or missed). Two
/// shapes: 16 messages to one peer, and the halo shape, one message to each
/// of four distinct neighbors, which share the doorbell all the same.
#[test]
fn batched_sends_match_singles_and_coalesce_doorbells() {
    let run = |nodes: usize, dsts: &[usize], batched: bool| -> (Vec<Vec<Vec<u8>>>, u64, u64) {
        let u = Universe::builder().nodes(nodes).build_checked();
        let got = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                let bodies: Vec<[u8; 24]> = (0..dsts.len()).map(|i| [i as u8 ^ 0x21; 24]).collect();
                if batched {
                    let msgs: Vec<(usize, i64, &[u8])> = dsts
                        .iter()
                        .zip(&bodies)
                        .map(|(&d, b)| (d, 9i64, &b[..]))
                        .collect();
                    for r in world.isend_multi(&mut th, &msgs).unwrap() {
                        r.wait(&mut th.clock);
                    }
                } else {
                    for (&d, b) in dsts.iter().zip(&bodies) {
                        world.send(&mut th, d, 9, b).unwrap();
                    }
                }
                Vec::new()
            } else {
                let mine = dsts.iter().filter(|&&d| d == env.rank()).count();
                (0..mine)
                    .map(|_| world.recv(&mut th, 0, 9).unwrap().1.to_vec())
                    .collect()
            }
        });
        let vci = u.shared().proc(0).vci(0);
        (got, vci.doorbells(), vci.doorbells_coalesced())
    };

    for (nodes, dsts) in [(2, vec![1usize; 16]), (5, vec![1, 2, 3, 4])] {
        let n = dsts.len() as u64;
        let (singles, singles_bells, singles_coal) = run(nodes, &dsts, false);
        let (batched, batch_bells, batch_coal) = run(nodes, &dsts, true);
        assert_eq!(
            batched, singles,
            "batched multi-send to {dsts:?} delivered different payloads than singles"
        );
        assert_eq!(singles_coal, 0, "singles must never share a doorbell");
        assert_eq!(
            batch_bells, 1,
            "a batch to {dsts:?} must ring exactly one doorbell"
        );
        assert_eq!(
            singles_bells - batch_bells,
            n - 1,
            "a batch to {dsts:?} must replace {n} doorbell rings with one"
        );
        assert_eq!(
            batch_coal,
            n - 1,
            "coalesced counter must record the {} sends to {dsts:?} that shared the ring",
            n - 1
        );
        assert_eq!(
            batch_bells + batch_coal,
            singles_bells,
            "doorbells + coalesced must equal the NIC message count"
        );
    }
}

/// Burst injection (batched multi-sends) over a lossy fabric: the batch
/// path flows through the same resil admission as singles, so drops and
/// flaps still end in exactly-once, in-order delivery — and the sweep must
/// actually retransmit, or the lossy path wasn't exercised.
#[test]
fn batched_bursts_over_lossy_fabric_stay_exactly_once() {
    const CHUNK: usize = 16;
    const CHUNKS: usize = 4;
    let mut retransmits = 0u64;
    for s in 0..4u64 {
        let plan = FaultPlan::lossy(base_seed() ^ 0xBA7C ^ (s << 7));
        let u = Universe::builder()
            .nodes(2)
            .fault_plan(plan)
            .build_checked();
        u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            if env.rank() == 0 {
                for c in 0..CHUNKS {
                    let bodies: Vec<[u8; 24]> =
                        (0..CHUNK).map(|i| [(c * CHUNK + i) as u8; 24]).collect();
                    let msgs: Vec<(usize, i64, &[u8])> =
                        bodies.iter().map(|b| (1usize, 5i64, &b[..])).collect();
                    for r in world.isend_multi(&mut th, &msgs).unwrap() {
                        r.wait(&mut th.clock);
                    }
                }
            } else {
                for i in 0..CHUNK * CHUNKS {
                    let (_st, data) = world.recv(&mut th, 0, 5).unwrap();
                    assert_eq!(
                        data.as_ref(),
                        [i as u8; 24],
                        "batched message {i} lost, duplicated, or reordered \
                         under loss (sweep {s})"
                    );
                }
            }
        });
        for r in 0..2 {
            let mb = u.shared().proc(r).vci(0).mailbox().clone();
            let rep = mb.resil().expect("lossy plan must arm resil").report();
            assert_eq!(rep.exhausted, 0, "retry budget must hold here");
            retransmits += rep.retransmits;
        }
    }
    assert!(
        retransmits > 0,
        "a 4-seed lossy sweep of batched sends never retransmitted: \
         the batch path is bypassing resil"
    );
}

/// Schedule-explored ring/drain interleavings straight on the mailbox: two
/// producers on distinct channels and one racing drainer, with every
/// interleaving of the `MailboxPush`/`MailboxDrain` yield points explored.
/// Per-channel FIFO and exactly-once delivery must hold on all of them,
/// with and without a (duplicating, non-lossy) fault plan armed.
#[test]
fn explored_push_drain_interleavings_preserve_channel_fifo() {
    const PER_TASK: u64 = 6;
    for faulted in [false, true] {
        let cfg = ExploreConfig {
            depth: 4,
            max_exhaustive: 64,
            random_samples: 8,
            ..ExploreConfig::with_seed(base_seed() ^ 0xDA7A ^ faulted as u64)
        };
        explore(
            &format!("datapath_push_drain_faulted_{faulted}"),
            &cfg,
            move || {
                let mb = Arc::new(Mailbox::new(Arc::new(Notify::new())));
                if faulted {
                    // Duplicates + reorder, no loss: delivery may legally be
                    // perturbed *across* channels, but each channel stays
                    // FIFO and exactly-once (watermark dedup).
                    mb.arm_faults(
                        FaultPlan::new(base_seed() ^ 0x11CE)
                            .duplicates(0.3)
                            .reorders(0.3),
                    );
                }
                let mut tasks: Vec<Task> = Vec::new();
                for src in 0..2u32 {
                    let mb = Arc::clone(&mb);
                    tasks.push(Box::new(move || {
                        for seq in 0..PER_TASK {
                            mb.push(Packet {
                                header: Header {
                                    kind: 1,
                                    context_id: 3,
                                    src,
                                    dst: 0,
                                    tag: 0,
                                    seq,
                                    aux: 0,
                                    aux2: 0,
                                },
                                payload: bytes::Bytes::new(),
                                arrive_at: Nanos(seq),
                            });
                        }
                    }));
                }
                let drainer: Task = Box::new(move || {
                    let mut next = [0u64; 2];
                    let mut got = 0u64;
                    let mut buf = Vec::new();
                    while got < 2 * PER_TASK {
                        yield_point(SchedPoint::Custom("await-packets"));
                        buf.clear();
                        mb.drain_into(&mut buf);
                        for p in &buf {
                            let ch = p.header.src as usize;
                            assert_eq!(
                                p.header.seq, next[ch],
                                "channel {ch} broke FIFO or delivered twice"
                            );
                            next[ch] += 1;
                            got += 1;
                        }
                    }
                });
                tasks.push(drainer);
                tasks
            },
        );
    }
}
