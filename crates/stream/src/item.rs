//! Wire format of one stream item.
//!
//! Every item is a fixed-size buffer: a 32-byte header followed by
//! deterministic filler bytes derived from `(seed, seq)`. The header carries
//! the item's identity and provenance:
//!
//! - `seq` — the emission sequence number reassembly orders on;
//! - `emit_ns` — the emitter's virtual clock at first emission (pass 0); a
//!   feedback re-emission keeps the original stamp so per-item latency spans
//!   the whole journey;
//! - `digest` — a running hash every worker stage folds its
//!   [`stage_salt`] into; the collector recomputes the expected fold from
//!   the topology, so a skipped, repeated, or mis-routed stage is caught;
//! - `pass` — 0 on first emission, 1 after a feedback re-emission;
//! - `hops` — worker stages traversed so far.
//!
//! The filler is a function of `(seed, seq)` only — identical on every pass
//! — so any stage can cheaply verify payload integrity end to end.

/// Header length in bytes; items must be at least this large.
pub const HEADER: usize = 32;

/// The splitmix64 finalizer — the same mixer the fabric's fault plans use,
/// kept local so the wire format has no fabric dependency.
pub fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Decoded item header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemHeader {
    /// Emission sequence number (reassembly key).
    pub seq: u64,
    /// Emitter virtual time at first emission, ns.
    pub emit_ns: u64,
    /// Running provenance digest (see [`mix`]).
    pub digest: u64,
    /// 0 = first emission, 1 = feedback re-emission.
    pub pass: u16,
    /// Worker stages traversed.
    pub hops: u16,
}

/// The digest an item starts with at emission.
pub fn base_digest(seed: u64, seq: u64) -> u64 {
    splitmix(seed ^ seq.rotate_left(13) ^ 0xD1D1)
}

/// The per-stage salt worker rank `rank` folds into the digest.
pub fn stage_salt(seed: u64, rank: usize) -> u64 {
    splitmix(seed ^ ((rank as u64) << 17) ^ 0x57A6E)
}

/// One digest fold (applied by a worker stage per item).
pub fn mix(digest: u64, salt: u64) -> u64 {
    splitmix(digest ^ salt)
}

/// Whether `seq` takes the feedback loop (farm-with-feedback only):
/// hash-derived from `(seed, seq)` so every rank computes the same set
/// without coordination.
pub fn selected(seed: u64, seq: u64, permille: u32) -> bool {
    permille > 0 && (splitmix(seed ^ seq ^ 0xFEED_BAC0) >> 11) % 1000 < permille as u64
}

fn filler_word(seed: u64, seq: u64, chunk: u64) -> u64 {
    splitmix(seed ^ seq.rotate_left(7) ^ (chunk + 1).wrapping_mul(0xA5A5))
}

/// Write `h` and the deterministic filler into `buf`
/// (`buf.len() >= HEADER`).
pub fn encode(buf: &mut [u8], h: &ItemHeader, seed: u64) {
    assert!(buf.len() >= HEADER, "item buffer smaller than header");
    restamp(buf, h);
    buf[28..32].fill(0);
    // Whole words, then one sub-word tail: a fixed-size store each, no
    // per-word library call.
    let mut words = buf[HEADER..].chunks_exact_mut(8);
    let mut chunk = 0u64;
    for w in &mut words {
        w.copy_from_slice(&filler_word(seed, h.seq, chunk).to_le_bytes());
        chunk += 1;
    }
    let tail = words.into_remainder();
    let n = tail.len();
    tail.copy_from_slice(&filler_word(seed, h.seq, chunk).to_le_bytes()[..n]);
}

/// Rewrite only the header fields (stages restamp in place, keeping the
/// filler bytes they verified).
pub fn restamp(buf: &mut [u8], h: &ItemHeader) {
    buf[0..8].copy_from_slice(&h.seq.to_le_bytes());
    buf[8..16].copy_from_slice(&h.emit_ns.to_le_bytes());
    buf[16..24].copy_from_slice(&h.digest.to_le_bytes());
    buf[24..26].copy_from_slice(&h.pass.to_le_bytes());
    buf[26..28].copy_from_slice(&h.hops.to_le_bytes());
}

/// Decode the header of `buf`. Checks nothing beyond the header's length;
/// a stage that consumes an item calls [`verify`].
pub fn decode(buf: &[u8]) -> ItemHeader {
    assert!(buf.len() >= HEADER, "item buffer smaller than header");
    ItemHeader {
        seq: u64::from_le_bytes(buf[0..8].try_into().unwrap()),
        emit_ns: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
        digest: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
        pass: u16::from_le_bytes(buf[24..26].try_into().unwrap()),
        hops: u16::from_le_bytes(buf[26..28].try_into().unwrap()),
    }
}

/// Check that `buf` is an intact item of exactly `item_bytes` bytes and
/// return its header: the length, the reserved bytes 28..32 (zero), and
/// every filler byte against `(seed, seq)`. `None` if any of them is off.
pub fn verify(buf: &[u8], item_bytes: usize, seed: u64) -> Option<ItemHeader> {
    if buf.len() != item_bytes || buf.len() < HEADER || buf[28..32] != [0; 4] {
        return None;
    }
    let h = decode(buf);
    // Compare whole words in registers; the differences are OR-ed so the
    // loop has no data-dependent branch.
    let words = buf[HEADER..].chunks_exact(8);
    let tail = words.remainder();
    let mut diff = 0u64;
    let mut chunk = 0u64;
    for w in words {
        diff |= u64::from_le_bytes(w.try_into().unwrap()) ^ filler_word(seed, h.seq, chunk);
        chunk += 1;
    }
    if !tail.is_empty() {
        let mut last = [0u8; 8];
        last[..tail.len()].copy_from_slice(tail);
        let mask = u64::MAX >> (64 - 8 * tail.len());
        diff |= (u64::from_le_bytes(last) ^ filler_word(seed, h.seq, chunk)) & mask;
    }
    (diff == 0).then_some(h)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn header(seq: u64, seed: u64) -> ItemHeader {
        ItemHeader {
            seq,
            emit_ns: 1_234_567,
            digest: base_digest(seed, seq),
            pass: 1,
            hops: 3,
        }
    }

    /// Every length from a bare header through two words and a tail, plus
    /// the stream's usual 512 B.
    fn lengths() -> impl Iterator<Item = usize> {
        (HEADER..=HEADER + 17).chain([512])
    }

    #[test]
    fn roundtrip_header_and_filler() {
        let h = header(42, 9);
        for len in lengths() {
            let mut buf = vec![0xEE; len];
            encode(&mut buf, &h, 9);
            assert_eq!(decode(&buf), h, "len {len}");
            assert_eq!(verify(&buf, len, 9), Some(h), "len {len}");
            if len > HEADER {
                assert_eq!(verify(&buf, len, 10), None, "wrong seed, len {len}");
                // The filler is bound to the item's seq: the same bytes
                // under another seq must fail.
                let mut other = buf.clone();
                restamp(&mut other, &ItemHeader { seq: 43, ..h });
                assert_eq!(verify(&other, len, 9), None, "wrong seq, len {len}");
            }
        }
    }

    #[test]
    fn verify_catches_every_flipped_byte() {
        let h = header(7, 3);
        for len in lengths() {
            let mut buf = vec![0u8; len];
            encode(&mut buf, &h, 3);
            for i in 28..len {
                for bit in [0x01, 0x80, 0xFF] {
                    buf[i] ^= bit;
                    assert_eq!(
                        verify(&buf, len, 3),
                        None,
                        "len {len} byte {i} bit {bit:#x}"
                    );
                    buf[i] ^= bit;
                }
            }
            assert_eq!(verify(&buf, len, 3), Some(h), "len {len}");
        }
    }

    #[test]
    fn verify_rejects_a_truncated_or_padded_item() {
        let h = header(11, 5);
        for len in lengths() {
            // A well-formed item one byte longer than expected, and its
            // prefix one byte shorter: only the length gives them away.
            let mut buf = vec![0u8; len + 1];
            encode(&mut buf, &h, 5);
            assert_eq!(verify(&buf, len + 1, 5), Some(h), "len {len}");
            assert_eq!(verify(&buf, len, 5), None, "padded, len {len}");
            assert_eq!(
                verify(&buf[..len], len + 1, 5),
                None,
                "truncated, len {len}"
            );
        }
        assert_eq!(verify(&[0; HEADER - 1], HEADER - 1, 5), None);
    }

    #[test]
    fn restamp_preserves_filler() {
        for len in lengths() {
            let mut buf = vec![0u8; len];
            let mut h = ItemHeader {
                seq: 7,
                emit_ns: 100,
                digest: base_digest(1, 7),
                pass: 0,
                hops: 0,
            };
            encode(&mut buf, &h, 1);
            h.digest = mix(h.digest, stage_salt(1, 3));
            h.hops += 1;
            h.pass = 1;
            restamp(&mut buf, &h);
            assert_eq!(verify(&buf, len, 1), Some(h), "len {len}");
        }
    }

    #[test]
    fn digest_fold_is_order_sensitive() {
        let d0 = base_digest(5, 0);
        let a = mix(mix(d0, stage_salt(5, 1)), stage_salt(5, 2));
        let b = mix(mix(d0, stage_salt(5, 2)), stage_salt(5, 1));
        assert_ne!(a, b, "a swapped stage order must change the digest");
    }

    #[test]
    fn selection_rate_tracks_permille() {
        let hits = (0..10_000u64).filter(|&s| selected(3, s, 200)).count();
        assert!((1_600..2_400).contains(&hits), "hits {hits}");
        assert_eq!((0..1000u64).filter(|&s| selected(3, s, 0)).count(), 0);
        assert_eq!((0..1000u64).filter(|&s| selected(3, s, 1000)).count(), 1000);
    }
}
