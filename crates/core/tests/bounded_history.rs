//! History bounded by GVT in both launch modes: the busy intervals a
//! universe's resources keep do not grow with the number of messages sent,
//! and no request ever arrives below a pruned horizon.
//!
//! Each loop runs at two lengths, four times apart. Without pruning, every
//! message leaves its intervals for the life of the universe, so the
//! largest live history would grow fourfold and the shorter run alone
//! would hold several thousand intervals. With it, both peaks stay under
//! the same few chunks: GVT trails the fastest clock by what the slowest
//! clock has not yet published (under task launch, up to the engine's
//! 100 µs of slack), and a resource forgets whole chunks only.

use std::sync::atomic::{AtomicUsize, Ordering};

use rankmpi_core::request::wait_all;
use rankmpi_core::{LaunchMode, TaskLaunch, Universe, ANY_SOURCE};
use rankmpi_vtime::Nanos;

/// Intervals per chunk of a resource's schedule: a pruned resource opens
/// one at a time, so one chunk is the peak's resolution.
const CHUNK: usize = 512;
/// The live history any resource may reach at either length: the chunk GVT
/// falls in, the intervals up to the frontier, and the chunk being opened.
const PEAK: usize = 5 * CHUNK;
const WINDOW: u64 = 64;
const CREDIT_TAG: i64 = 1 << 20;
const SHORT: u64 = 1 << 12;
const LONG: u64 = 1 << 14;

/// What a run left: the largest live history any resource reached, and the
/// requests that fell below a pruned horizon.
#[derive(Debug, Clone, Copy)]
struct Bound {
    peak: usize,
    below: u64,
}

fn bound(u: &Universe) -> Bound {
    Bound {
        peak: u.shared().gvt().peak_history(),
        below: u.shared().below_horizon(),
    }
}

/// `msgrate`'s shape: rank 0 sends windows of small messages to rank 1,
/// which pre-posts each window and grants it with a credit message.
fn msgrate(messages: u64) -> Bound {
    let u = Universe::builder().nodes(2).build();
    u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        let mut reqs = Vec::with_capacity(WINDOW as usize);
        for _ in 0..messages / WINDOW {
            if env.rank() == 0 {
                world.recv(&mut th, 1, CREDIT_TAG).unwrap();
                for i in 0..WINDOW {
                    world.send(&mut th, 1, i as i64, &[7; 8]).unwrap();
                }
            } else {
                reqs.extend((0..WINDOW).map(|i| world.irecv(&mut th, 0, i as i64).unwrap()));
                world.send(&mut th, 0, CREDIT_TAG, b"").unwrap();
                assert_eq!(wait_all(&mut th.clock, &reqs).len(), WINDOW as usize);
                reqs.clear();
            }
        }
    });
    bound(&u)
}

/// `fanin`'s shape: four task-launched senders into rank 0, which grants
/// each a window and receives them all by wildcard.
fn fanin(messages: u64) -> Bound {
    const SENDERS: usize = 4;
    let u = Universe::builder()
        .nodes(SENDERS + 1)
        .launch(LaunchMode::Tasks(TaskLaunch::default()))
        .build();
    let windows = messages / WINDOW / SENDERS as u64;
    u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        for _ in 0..windows {
            if env.rank() == 0 {
                for s in 1..=SENDERS {
                    world.send(&mut th, s, CREDIT_TAG, b"").unwrap();
                }
                for _ in 0..SENDERS as u64 * WINDOW {
                    world.recv(&mut th, ANY_SOURCE, 0).unwrap();
                }
            } else {
                world.recv(&mut th, 0, CREDIT_TAG).unwrap();
                for _ in 0..WINDOW {
                    world.send(&mut th, 0, 0, &[9; 8]).unwrap();
                }
            }
        }
    });
    bound(&u)
}

fn assert_flat(name: &str, run: fn(u64) -> Bound) {
    let (short, long) = (run(SHORT), run(LONG));
    assert_eq!(
        (short.below, long.below),
        (0, 0),
        "{name}: below the horizon"
    );
    assert!(
        short.peak >= CHUNK,
        "{name}: no resource opened a second chunk ({short:?})"
    );
    assert!(
        short.peak <= PEAK && long.peak <= PEAK,
        "{name}: live history beyond {PEAK} intervals: {short:?} at {SHORT} messages, \
         {long:?} at {LONG}"
    );
}

#[test]
fn msgrate_history_is_flat_with_run_length_under_threads() {
    assert_flat("msgrate", msgrate);
}

#[test]
fn fanin_history_is_flat_with_run_length_under_tasks() {
    assert_flat("fanin", fanin);
}

/// Only the mailbox holds GVT under the stamps it has not charged: every
/// clock publishes far past two bursts before rank 1 takes them in. The
/// burst pushed first (rank 2's) carries the later stamps, so rank 1's engine
/// schedule opens chunks at those, then charges the earlier ones.
#[test]
fn a_mailbox_holds_gvt_under_the_stamps_it_has_not_charged() {
    const BURST: u64 = 2 * CHUNK as u64;
    let u = Universe::builder().nodes(3).build();
    let (late_sent, published) = (AtomicUsize::new(0), AtomicUsize::new(0));
    u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        let wait_for = |flag: &AtomicUsize, n: usize| {
            while flag.load(Ordering::Acquire) < n {
                std::thread::yield_now();
            }
        };
        if env.rank() == 1 {
            th.compute(Nanos::ms(20));
            th.clock.publish();
            wait_for(&published, 2);
            for src in [2, 0] {
                for i in 0..BURST {
                    let (_st, data) = world.recv(&mut th, src, 5).unwrap();
                    assert_eq!(data.as_ref(), i.to_le_bytes());
                }
            }
        } else {
            if env.rank() == 2 {
                th.compute(Nanos::ms(1));
            } else {
                wait_for(&late_sent, 1);
            }
            for i in 0..BURST {
                world.send(&mut th, 1, 5, &i.to_le_bytes()).unwrap();
            }
            late_sent.fetch_add(1, Ordering::Release);
            // Publish as a blocking point would.
            th.compute(Nanos::ms(10));
            th.clock.publish();
            published.fetch_add(1, Ordering::Release);
        }
    });
    assert!(
        u.shared().gvt().peak_history() >= CHUNK,
        "the bursts opened chunks"
    );
    assert_eq!(u.shared().below_horizon(), 0);
}
