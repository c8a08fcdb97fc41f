#![warn(missing_docs)]

//! Shared reporting helpers for the benchmark harness.
//!
//! Every table and figure of the paper has a bench target in `benches/`; each
//! prints the same rows/series the paper reports (in simulated time) and a
//! short interpretation line comparing the measured *shape* to the paper's
//! claim. `EXPERIMENTS.md` records the paper-vs-measured comparison.

use std::fmt::Display;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use rankmpi_fabric::{Header, Mailbox, Notify, Packet};
use rankmpi_vtime::Nanos;

pub mod json;

/// Print a Markdown-style table.
pub fn print_table<H: Display, C: Display>(title: &str, headers: &[H], rows: &[Vec<C>]) {
    println!("\n## {title}\n");
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(|c| c.to_string()).collect())
        .collect();
    let mut widths: Vec<usize> = head.iter().map(|h| h.len()).collect();
    for row in &body {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("| {} |", padded.join(" | "));
    };
    line(&head);
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&sep);
    for row in &body {
        line(row);
    }
}

/// Print the takeaway line comparing measurement to the paper's claim.
pub fn takeaway(paper: &str, measured: &str) {
    println!("\npaper:    {paper}");
    println!("measured: {measured}");
}

/// Format a ratio to two decimals with an `x` suffix.
pub fn ratio(num: f64, den: f64) -> String {
    format!("{:.2}x", num / den)
}

/// A context-1 eager packet from `src` — what the mailbox benches push.
pub fn packet(src: u32, seq: u64, payload: Bytes) -> Packet {
    let header = Header {
        kind: 1,
        context_id: 1,
        src,
        seq,
        ..Header::zeroed()
    };
    Packet {
        header,
        payload,
        arrive_at: Nanos(seq),
    }
}

/// Single-thread mailbox cost over `rounds` measured rounds of (32 pushes x
/// 4 channels, one drain), after a warmup that registers the channel rings
/// and sizes the drain scratch. Returns `(ns per push, drain msgs/sec)`.
pub fn mailbox_costs(rounds: u64) -> (f64, f64) {
    let mb = Mailbox::new(Arc::new(Notify::new()));
    let mut buf: Vec<Packet> = Vec::new();
    let burst = || {
        for src in 0..4u32 {
            for seq in 0..32u64 {
                mb.push_quiet(packet(src, seq, Bytes::new()), None);
            }
        }
    };
    for _ in 0..64 {
        burst();
        buf.clear();
        mb.drain_into(&mut buf);
    }
    let (mut push_ns, mut drain_ns) = (0.0f64, 0.0f64);
    for _ in 0..rounds {
        let t0 = Instant::now();
        burst();
        push_ns += t0.elapsed().as_nanos() as f64;
        let t1 = Instant::now();
        buf.clear();
        mb.drain_into(&mut buf);
        drain_ns += t1.elapsed().as_nanos() as f64;
        assert_eq!(buf.len(), 128);
    }
    let msgs = (rounds * 128) as f64;
    (push_ns / msgs, msgs * 1e9 / drain_ns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_formats() {
        assert_eq!(ratio(3.0, 2.0), "1.50x");
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            "demo",
            &["a", "b"],
            &[vec!["1".to_string(), "2".to_string()]],
        );
        takeaway("x", "y");
    }
}
