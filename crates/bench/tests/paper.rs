//! Every row of the paper's table keeps its status: a `Holds` row's claim
//! holds, a `Fails` row's claim does not, and a `Varies` row runs.

use rankmpi_bench::paper::{check, ROWS};

#[test]
fn every_row_keeps_its_status() {
    let errors: Vec<String> = ROWS
        .iter()
        .filter_map(|row| check(row, &(row.run)()).err())
        .collect();
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}
