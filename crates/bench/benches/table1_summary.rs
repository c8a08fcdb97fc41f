//! Table I: summary of design choices to expose logically parallel
//! communication — regenerated from this library's implemented capabilities,
//! plus a qualitative scorecard aggregating the lessons.

use rankmpi_bench::print_table;

fn main() {
    // Table I verbatim (the operation-type × design matrix), with each cell
    // stating what this repository actually implements.
    print_table(
        "Table I — mechanisms to expose logically parallel communication",
        &[
            "Operation",
            "Existing MPI mechanisms",
            "User-Visible Endpoints",
            "Partitioned Communication",
        ],
        &[
            vec![
                "Point-to-point",
                "communicators (stencil::maps) or tags (VciPolicy::TagBits*)",
                "endpoints (Communicator::create_endpoints)",
                "partitioned pt2pt (psend_init/precv_init)",
            ],
            vec![
                "RMA",
                "window(s) (Window + accumulate_ordering)",
                "endpoints (Window::*_on_vci)",
                "partitioned RMA APIs (TBD in MPI; not standardized)",
            ],
            vec![
                "Collective",
                "communicators + user-driven intranode step (vasp::MultiCommSegmented)",
                "endpoints (allreduce etc. over endpoint ranks, one-step)",
                "partitioned collective APIs (TBD in MPI; not standardized)",
            ],
        ],
    );

    // A lesson-indexed scorecard of the qualitative comparison.
    print_table(
        "Qualitative scorecard (lesson numbers in parentheses)",
        &[
            "Property",
            "Communicators",
            "Tags + hints",
            "Endpoints",
            "Partitioned",
        ],
        &[
            vec![
                "intuitive to use",
                "no (2)",
                "yes (6)",
                "yes (10)",
                "new semantics (13)",
            ],
            vec![
                "complexity of correct use",
                "high (1)",
                "tedious hints (7)",
                "low (10)",
                "moderate (14)",
            ],
            vec![
                "network-resource efficiency",
                "poor (3)",
                "good",
                "optimal (12)",
                "good",
            ],
            vec![
                "portable optimal mapping",
                "library-dependent (4)",
                "no (8)",
                "yes (12)",
                "yes (13)",
            ],
            vec![
                "irregular/dynamic patterns",
                "limited (5)",
                "limited (5)",
                "yes (11)",
                "no (15)",
            ],
            vec![
                "wildcards",
                "yes",
                "forbidden by asserts",
                "yes (11)",
                "no (15)",
            ],
            vec!["tag-space pressure", "none", "high (9)", "none", "none"],
            vec![
                "thread independence",
                "full",
                "full",
                "full",
                "shared request (14)",
            ],
            vec![
                "RMA atomics parallelism",
                "no (16)",
                "no (16)",
                "yes (16)",
                "unstudied",
            ],
            vec![
                "one-step collectives",
                "no (18)",
                "no (18)",
                "yes (18)",
                "yes (18)",
            ],
            vec![
                "collective buffer duplication",
                "no",
                "no",
                "yes (19)",
                "no (19)",
            ],
            vec![
                "device-initiated friendliness",
                "heavy",
                "heavy",
                "heavy",
                "lightweight triggers (20)",
            ],
        ],
    );

    println!(
        "\nThe paper's conclusion: only user-visible endpoints (re-branded MPI \
         Rankpoints) apply uniformly to all operation types with full thread \
         independence; their costs are the Lesson 17 misconception and Lesson 19 \
         duplication."
    );
}
