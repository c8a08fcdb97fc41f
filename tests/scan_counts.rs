//! Scan-count regression for the sequence-merged engine.
//!
//! A thousand pending wildcard receives must not tax unrelated exact
//! traffic: the merged engine compares only class/index heads, so the
//! `Vci::match_scanned` / `Vci::match_wildcard_scanned` counters stay a
//! small constant multiple of `Vci::matched` at any queue depth.
//! The linear engine, by contrast, walks the whole wildcard backlog on every
//! incoming packet — the counters are how the difference is observable.

use rankmpi_core::matching::EngineKind;
use rankmpi_core::{Universe, ANY_SOURCE};

const DEPTH: usize = 1024;

/// Drives the deep-wildcard workload under `kind` and returns rank 1's
/// receive-side `(matched, scanned, wildcard_scanned)` VCI counters.
///
/// Rank 1 posts `DEPTH` wildcard receives on a tag that stays quiet, then
/// `DEPTH` exact receives; rank 0 sends the exact traffic first, so every
/// exact match happens behind the full wildcard backlog, then releases the
/// wildcards.
fn deep_wildcard_counters(kind: EngineKind) -> (u64, u64, u64) {
    let u = Universe::builder().nodes(2).matching(kind).build();
    u.run(|env| {
        let world = env.world();
        let mut th = env.single_thread();
        if env.rank() == 1 {
            let wild: Vec<_> = (0..DEPTH)
                .map(|_| world.irecv(&mut th, ANY_SOURCE, 999).unwrap())
                .collect();
            let exact: Vec<_> = (0..DEPTH)
                .map(|_| world.irecv(&mut th, 0, 7).unwrap())
                .collect();
            for (i, r) in exact.into_iter().enumerate() {
                let (st, data) = r.wait(&mut th.clock);
                assert_eq!(st.tag, 7);
                assert_eq!(&data[..], &[(i & 0xff) as u8, (i >> 8) as u8]);
            }
            for r in wild {
                let (st, _) = r.wait(&mut th.clock);
                assert_eq!(st.tag, 999);
            }
        } else {
            for i in 0..DEPTH {
                world
                    .send(&mut th, 1, 7, &[(i & 0xff) as u8, (i >> 8) as u8])
                    .unwrap();
            }
            for i in 0..DEPTH {
                world.send(&mut th, 1, 999, &[i as u8, 0]).unwrap();
            }
        }
    });
    let vci = u.shared().proc(1).vci(0);
    (
        vci.matched(),
        vci.match_scanned(),
        vci.match_wildcard_scanned(),
    )
}

#[test]
fn seq_merged_scan_work_is_constant_per_match() {
    let (matched, scanned, wild) = deep_wildcard_counters(EngineKind::SeqMerged);
    assert!(
        matched >= 2 * DEPTH as u64,
        "expected every message matched, got {matched}"
    );
    // Every incoming compares at most four class heads and every post
    // consults one index head; tombstone skips are the only wildcard work.
    // The bound is a constant per match, independent of the 1024-deep
    // wildcard backlog.
    assert!(
        scanned <= 6 * matched,
        "seq_merged scanned {scanned} entries over {matched} matches — \
         per-match work is no longer constant"
    );
    assert!(
        wild <= 4 * matched,
        "seq_merged wildcard-scanned {wild} entries over {matched} matches"
    );
}

#[test]
fn seq_merged_beats_linear_backlog_scan() {
    let (s_matched, s_scanned, s_wild) = deep_wildcard_counters(EngineKind::SeqMerged);
    let (l_matched, l_scanned, _l_wild) = deep_wildcard_counters(EngineKind::Linear);
    assert_eq!(s_matched, l_matched, "engines disagree on match count");
    // Linear walks ~DEPTH pending wildcards per exact packet; merged does a
    // constant amount of work. The gap is the whole point of the engine.
    assert!(
        l_scanned >= 16 * (s_scanned + s_wild + 1),
        "expected linear's backlog scan ({l_scanned}) to dwarf merged's \
         head-only work ({s_scanned} + {s_wild})"
    );
}
