//! The paper as one checked table: runs every row of
//! [`rankmpi_bench::paper::ROWS`], prints id | status | claim | measured,
//! writes `BENCH_paper.json`, and fails if a row breaks its status.

use rankmpi_bench::paper::{check, ROWS};
use rankmpi_bench::{print_table, write_bench_json};
use rankmpi_obs::json::Value;

fn main() {
    let mut table = Vec::new();
    let mut json = Vec::new();
    let mut errors = Vec::new();
    for row in ROWS {
        let out = (row.run)();
        let status = format!("{:?}", row.status);
        let verdict = if out.held { "held" } else { "not held" };
        let measured = format!("{verdict}: {}", out.measured());
        let cells = [row.id, &status, row.claim, &measured];
        table.push(cells.map(String::from).to_vec());
        json.push(Value::obj([
            ("id", Value::str(row.id)),
            ("status", Value::str(status)),
            ("claim", Value::str(row.claim)),
            ("held", Value::Bool(out.held)),
            ("values", Value::obj(out.values.iter().cloned())),
        ]));
        errors.extend(check(row, &out).err());
    }
    print_table(
        "The paper, row by row (simulated time)",
        &["id", "status", "claim", "measured"],
        &table,
    );
    write_bench_json(
        "paper",
        &Value::obj([("bench", Value::str("paper")), ("rows", Value::Arr(json))]),
    );
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}
