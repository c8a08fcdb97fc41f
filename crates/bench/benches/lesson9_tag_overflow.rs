//! Lesson 9: encoding communication parallelism in tags is limited by their
//! existing use — the tag-overflow problem.
//!
//! Applications like SNAP, Smilei and MITgcm already consume most of the tag
//! space for application information. This bench tabulates how many
//! application tag bits survive once sender/receiver thread ids are encoded,
//! and at which thread counts layouts stop fitting.

use rankmpi_bench::{engine_counters, write_bench_json};
use rankmpi_bench::{print_table, ratio, takeaway};
use rankmpi_core::matching::EngineKind;
use rankmpi_core::tag::{bits_for, TagLayout, TagPlacement, TAG_BITS};
use rankmpi_core::Universe;
use rankmpi_obs::json::Value;
use rankmpi_workloads::smilei::{run_smilei, SmileiConfig, SmileiMode};

fn main() {
    let thread_counts = [1usize, 4, 16, 64, 256, 1024, 4096];
    let rows: Vec<Vec<String>> = thread_counts
        .iter()
        .map(|&t| {
            let tid_bits = bits_for(t);
            match TagLayout::for_threads(t, TagPlacement::Msb) {
                Ok(l) => vec![
                    t.to_string(),
                    format!("{} + {}", l.src_tid_bits, l.dst_tid_bits),
                    l.app_bits.to_string(),
                    (l.max_app_tag() + 1).to_string(),
                    "ok".to_string(),
                ],
                Err(e) => vec![
                    t.to_string(),
                    format!("{tid_bits} + {tid_bits}"),
                    "-".to_string(),
                    "-".to_string(),
                    format!("{e}"),
                ],
            }
        })
        .collect();
    print_table(
        &format!("Lesson 9 — tag-space budget ({TAG_BITS} usable tag bits)"),
        &[
            "threads/process",
            "tid bits (src+dst)",
            "app bits left",
            "app tags left",
            "layout",
        ],
        &rows,
    );

    // A Smilei-like case: the application already needs 16 tag bits of its
    // own (patch ids). How many threads can still be encoded?
    let app_bits_needed = 16u32;
    let mut max_threads = 0usize;
    for t in 1..=4096usize {
        let tid = bits_for(t);
        if 2 * tid + app_bits_needed <= TAG_BITS {
            max_threads = t;
        }
    }
    println!(
        "\nWith {app_bits_needed} app bits already in use (Smilei-scale patch ids), \
         at most {max_threads} threads/process fit in the tag space."
    );

    // The Smilei-style exchange run end to end: the tags upgrade is the
    // least-change path (Lesson 6) but pays the tag budget; endpoints hand
    // the tid bits back to the application.
    let cfg = SmileiConfig {
        threads: 8,
        patches_per_thread: 4,
        iters: 5,
        mean_bytes: 4096,
        ..SmileiConfig::default()
    };
    let rows: Vec<Vec<String>> = [
        SmileiMode::Original,
        SmileiMode::TagsUpgraded,
        SmileiMode::Endpoints,
    ]
    .into_iter()
    .map(|mode| {
        let rep = run_smilei(mode, &cfg);
        vec![
            rep.mode.to_string(),
            format!("{}", rep.total_time),
            rep.tag_bits_used.to_string(),
        ]
    })
    .collect();
    print_table(
        "Lessons 6 + 9 — Smilei-style particle exchange (8 threads, 4 patches each)",
        &["mode", "total time", "tag bits used"],
        &rows,
    );

    // The flip side of tag overflow: when parallelism cannot move into tags,
    // all traffic multiplexes over one communicator and the receiver's
    // matching queues go deep. The sequence-merged engine keeps deep-queue
    // matching flat where the linear ("Original") scan pays per queued entry.
    let patches = 256i64;
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut engines_json = Vec::new();
    let mut totals = Vec::new();
    let kinds = EngineKind::all();
    for kind in kinds {
        let u = Universe::builder().nodes(2).matching(kind).build();
        let out = u.run(|env| {
            let world = env.world();
            let mut th = env.single_thread();
            rankmpi_workloads::measure::begin(&mut th);
            let counters = if env.rank() == 0 {
                for t in 0..patches {
                    world.send(&mut th, 1, t, &[7u8; 64][..]).unwrap();
                }
                Value::Null
            } else {
                // A tag-overflowed consumer drains patches in its own order,
                // not arrival order — the worst case for a linear scan.
                for t in (0..patches).rev() {
                    world.recv(&mut th, 0, t).unwrap();
                }
                engine_counters(&env.proc().vci(world.vci_block()[0]))
            };
            (rankmpi_workloads::measure::elapsed(&th), counters)
        });
        let total = out.iter().map(|(t, _)| *t).max().unwrap();
        totals.push(total);
        rows.push(vec![kind.name().to_string(), format!("{total}")]);
        let counters = out
            .into_iter()
            .map(|(_, c)| c)
            .find(|c| *c != Value::Null)
            .unwrap();
        engines_json.push(Value::obj([
            ("total_time_ns", Value::int(total.as_ns())),
            ("receiver_counters", counters),
        ]));
    }
    for (i, kind) in kinds.iter().enumerate().skip(1) {
        assert!(
            totals[i] <= totals[0],
            "{} matching must not be slower than linear on the deep-queue drain",
            kind.name()
        );
        rows.push(vec![
            format!("linear/{}", kind.name()),
            ratio(totals[0].as_ns() as f64, totals[i].as_ns() as f64),
        ]);
    }
    print_table(
        &format!("Lesson 9 flip side — {patches} multiplexed tags drained out of order"),
        &["matching engine", "total time"],
        &rows,
    );
    write_bench_json(
        "lesson9_tag_overflow",
        &Value::obj([
            ("bench", Value::str("lesson9_tag_overflow")),
            ("patches", Value::int(patches as u64)),
            ("engines", Value::Arr(engines_json)),
        ]),
    );

    takeaway(
        "applications already hit tag overflow (SNAP, Smilei, MITgcm); encoding \
         parallelism into tags exacerbates it (Lesson 9)",
        &format!(
            "with 22 usable bits, 4096-thread layouts do not fit at all, and a \
             16-bit application leaves room for only {max_threads} threads"
        ),
    );
}
