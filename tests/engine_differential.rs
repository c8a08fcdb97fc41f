//! Differential test: the two matching engines (linear "Original" and
//! sequence-merged) are observationally equivalent.
//!
//! The actual oracle — identical seeded-random interleavings of posts,
//! arrivals, probes, and cancels driven through every engine, with
//! event-log, queue-depth, and drain-order equivalence asserted — lives in
//! `rankmpi_check::oracle` so that the conformance suite can rerun it under
//! schedule exploration and fault injection. This integration test keeps the
//! clean 24-seed sweep plus a focused wildcard-priority case at the repo's
//! top level.

use rankmpi_check::oracle::{assert_equivalent_all, fixed_packet, DiffDriver};
use rankmpi_core::matching::{EngineKind, MatchPattern, ANY_SOURCE, ANY_TAG};
use rankmpi_vtime::Nanos;

#[test]
fn engines_are_observationally_equivalent() {
    for seed in 0..24u64 {
        let stats = rankmpi_check::oracle::differential_run(seed, 300);
        assert!(stats.ops >= 300, "seed {seed} ran too few ops");
        assert!(stats.events > 0, "seed {seed} recorded no events");
    }
}

/// A focused adversarial case wildcards make hard: an exact post and a
/// wildcard post race for the same packet; then a wildcard post races two
/// queued packets from different bins.
#[test]
fn wildcard_priority_is_identical_across_engines() {
    for (first_exact, ctx) in [(true, 1u32), (false, 1), (true, 2), (false, 2)] {
        let mut drivers: Vec<DiffDriver> =
            EngineKind::all().into_iter().map(DiffDriver::new).collect();
        for d in drivers.iter_mut() {
            let mk = |src, tag| MatchPattern {
                context_id: ctx,
                src,
                tag,
            };
            if first_exact {
                d.post(0, mk(2, 3), Nanos(1));
                d.post(1, mk(ANY_SOURCE, ANY_TAG), Nanos(2));
            } else {
                d.post(0, mk(ANY_SOURCE, ANY_TAG), Nanos(1));
                d.post(1, mk(2, 3), Nanos(2));
            }
            d.arrive(fixed_packet(ctx, 2, 3, 0, Nanos(10)));
            // Two queued packets in different bins, out of bin-key order.
            d.arrive(fixed_packet(ctx, 3, 1, 1, Nanos(20)));
            d.arrive(fixed_packet(ctx, 1, 2, 2, Nanos(30)));
            d.post(2, mk(ANY_SOURCE, ANY_TAG), Nanos(40));
        }
        assert_equivalent_all(&drivers, &format!("first_exact={first_exact}, ctx={ctx}"));
    }
}

/// Shape wildcards — `(ANY, tag)` and `(src, ANY)` — exercise the
/// sequence-merged engine's per-key sublists specifically: posted classes
/// must merge by posting seq, and the unexpected indexes must agree on
/// earliest arrival.
#[test]
fn shape_wildcard_priority_is_identical_across_engines() {
    let mut drivers: Vec<DiffDriver> = EngineKind::all().into_iter().map(DiffDriver::new).collect();
    for d in drivers.iter_mut() {
        let mk = |src, tag| MatchPattern {
            context_id: 1,
            src,
            tag,
        };
        // All four classes posted, interleaved; every one matches (2, 3).
        d.post(0, mk(ANY_SOURCE, 3), Nanos(1));
        d.post(1, mk(2, ANY_TAG), Nanos(2));
        d.post(2, mk(2, 3), Nanos(3));
        d.post(3, mk(ANY_SOURCE, ANY_TAG), Nanos(4));
        // Four packets on the same channel drain the classes in post order.
        for i in 0..4u64 {
            d.arrive(fixed_packet(1, 2, 3, i, Nanos(10 + i)));
        }
        // Now queue arrivals across bins and pick them off with shape
        // wildcards: earliest virtual arrival must win within each shape.
        d.arrive(fixed_packet(1, 0, 7, 10, Nanos(300)));
        d.arrive(fixed_packet(1, 1, 7, 11, Nanos(100)));
        d.arrive(fixed_packet(1, 0, 8, 12, Nanos(200)));
        d.post(4, mk(ANY_SOURCE, 7), Nanos(400));
        d.post(5, mk(0, ANY_TAG), Nanos(401));
        d.post(6, mk(ANY_SOURCE, ANY_TAG), Nanos(402));
    }
    assert_equivalent_all(&drivers, "shape wildcard priority");
}
