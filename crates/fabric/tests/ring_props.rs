//! Property tests pinning the mailbox's merged drain to push order.
//!
//! The oracle is the pushes themselves, in the order the script made them —
//! what a single locked queue would hold. For any script of pushes
//! (arbitrary channels, bursts far past ring capacity, so wraparound and
//! spill both trigger) interleaved with drains at arbitrary points, the
//! concatenated drains must deliver exactly that sequence.

use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;
use rankmpi_fabric::{Header, Mailbox, Notify, Packet};
use rankmpi_vtime::Nanos;

/// One scripted step: push on a small channel id, or drain everything.
#[derive(Debug, Clone)]
enum Op {
    /// `(context_id selector, src selector)` — 2×4 = 8 possible channels.
    Push(u8, u8),
    Drain,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Pushes dominate so per-channel bursts between drains regularly
        // grow deep enough to wrap the ring several times.
        8 => (0u8..2, 0u8..4).prop_map(|(c, s)| Op::Push(c, s)),
        1 => Just(Op::Drain),
    ]
}

type Stream = Vec<(u32, u32, u64)>;

/// Run the script, returning the delivered `(context_id, src, seq)` stream
/// and the oracle: the same triples in push order.
fn run(mb: &Mailbox, ops: &[Op]) -> (Stream, Stream) {
    let mut out: Vec<Packet> = Vec::new();
    let mut delivered = Vec::new();
    let mut pushed = Vec::new();
    let mut seq = 0u64;
    let mut drain = |delivered: &mut Stream| {
        out.clear();
        mb.drain_into(&mut out);
        delivered.extend(
            out.iter()
                .map(|p| (p.header.context_id, p.header.src, p.header.seq)),
        );
    };
    for op in ops {
        match op {
            Op::Push(c, s) => {
                mb.push(Packet {
                    header: Header {
                        kind: 1,
                        context_id: *c as u32,
                        src: *s as u32,
                        dst: 0,
                        tag: 0,
                        seq,
                        aux: 0,
                        aux2: 0,
                    },
                    payload: bytes::Bytes::new(),
                    arrive_at: Nanos(seq),
                });
                pushed.push((*c as u32, *s as u32, seq));
                seq += 1;
            }
            Op::Drain => drain(&mut delivered),
        }
    }
    drain(&mut delivered);
    (delivered, pushed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Merged ring drain ≡ push order on every script.
    #[test]
    fn ring_drain_matches_push_order(ops in vec(op_strategy(), 1..400)) {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        let (got, want) = run(&mb, &ops);
        prop_assert_eq!(got, want, "drain diverged from push order");
    }

    /// Same equivalence when the script's pushes all hammer one channel —
    /// the maximal-spill case (everything past ring capacity in a burst
    /// overflows to the spill queue and must merge back in order).
    #[test]
    fn single_channel_bursts_match_push_order(
        bursts in vec(1usize..(3 * Mailbox::ring_capacity()), 1..12),
    ) {
        let mb = Mailbox::new(Arc::new(Notify::new()));
        let mut ops = Vec::new();
        for b in &bursts {
            ops.extend(std::iter::repeat_n(Op::Push(0, 0), *b));
            ops.push(Op::Drain);
        }
        let (got, want) = run(&mb, &ops);
        prop_assert_eq!(got, want);
        if bursts.iter().any(|b| *b > Mailbox::ring_capacity()) {
            prop_assert!(mb.ring_spills() > 0, "oversized burst never spilled");
        }
    }
}
