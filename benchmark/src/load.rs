//! Seed-derived load: tags, message lengths and payload stamps.
//!
//! `--seed` is the only input that varies the load; the library receives
//! nothing but what is generated here. Lengths and tags depend on the seed
//! and on an operation's index *within* a rep, never on the rep number, so
//! every rep of a run injects the same sizes and `sim_ns_per_op` compares
//! exactly across reps. Lengths vary with the seed on purpose: the cost
//! model charges per byte, so two seeds give two (slightly) different
//! simulated times instead of one constant.

/// Tags cycle through this many values, offset by the seed.
pub const TAG_CYCLE: u64 = 512;
/// Small messages are `SMALL_MIN..SMALL_MIN + SMALL_SPAN` bytes.
pub const SMALL_MIN: usize = 8;
pub const SMALL_SPAN: u64 = 32;
/// Halo faces are `FACE_MIN..FACE_MIN + FACE_SPAN` bytes.
pub const FACE_MIN: usize = 16 * 1024;
pub const FACE_SPAN: u64 = 256;
/// Filler words of a face that a receiver compares against its own copy.
const FACE_SAMPLES: u64 = 16;

/// SplitMix64 finalizer: the one mixing function all generated load uses.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Who sent a message and where in the run it belongs: everything a receiver
/// checks. `lane` is the halo face (0 elsewhere).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Origin {
    pub src: usize,
    pub rep: u32,
    pub idx: u64,
    pub lane: u8,
}

/// The load generator of one run.
#[derive(Debug, Clone)]
pub struct Load {
    seed: u64,
    filler: [u8; SMALL_MIN + SMALL_SPAN as usize],
}

impl Load {
    pub fn new(seed: u64) -> Self {
        let mut filler = [0u8; SMALL_MIN + SMALL_SPAN as usize];
        for (i, chunk) in filler.chunks_mut(8).enumerate() {
            chunk.copy_from_slice(&splitmix64(seed ^ 0xF111 ^ ((i as u64) << 32)).to_le_bytes());
        }
        Load { seed, filler }
    }

    /// Tag of in-rep operation `idx`: cycles mod [`TAG_CYCLE`], offset by
    /// the seed.
    pub fn tag(&self, idx: u64) -> i64 {
        ((self.seed % TAG_CYCLE + idx) % TAG_CYCLE) as i64
    }

    /// The 8-byte stamp identifying `o`.
    pub fn stamp(&self, o: Origin) -> u64 {
        splitmix64(
            self.seed
                ^ ((o.src as u64) << 56)
                ^ ((o.lane as u64) << 48)
                ^ ((o.rep as u64) << 32).rotate_left(7)
                ^ o.idx.wrapping_mul(0x2545_F491_4F6C_DD1D),
        )
    }

    /// Length of the small message at in-rep index `idx` from `src`.
    pub fn small_len(&self, src: usize, idx: u64) -> usize {
        let x = splitmix64(self.seed ^ 0x51A1 ^ ((src as u64) << 40) ^ idx);
        SMALL_MIN + (x % SMALL_SPAN) as usize
    }

    /// Write the small message of `o` into `buf`; returns its length.
    pub fn fill_small(&self, buf: &mut [u8; SMALL_MIN + SMALL_SPAN as usize], o: Origin) -> usize {
        let len = self.small_len(o.src, o.idx);
        buf[..8].copy_from_slice(&self.stamp(o).to_le_bytes());
        buf[8..len].copy_from_slice(&self.filler[8..len]);
        len
    }

    /// Whether `data` is exactly the small message of `o`.
    pub fn check_small(&self, data: &[u8], o: Origin) -> bool {
        let len = self.small_len(o.src, o.idx);
        data.len() == len
            && data[..8] == self.stamp(o).to_le_bytes()
            && data[8..] == self.filler[8..len]
    }

    /// The body of halo face `lane` sent by `src`: seed-derived length and
    /// filler, generated once per run. The first 8 bytes are overwritten by
    /// [`stamp_face`](Self::stamp_face) every iteration.
    pub fn face_body(&self, src: usize, lane: u8) -> Vec<u8> {
        let key = self.seed ^ 0xFACE ^ ((src as u64) << 40) ^ ((lane as u64) << 32);
        let len = FACE_MIN + (splitmix64(key) % FACE_SPAN) as usize;
        let mut body = Vec::with_capacity(len + 8);
        let mut i = 0u64;
        while body.len() < len {
            body.extend_from_slice(&splitmix64(key ^ i.wrapping_mul(0x9E37)).to_le_bytes());
            i += 1;
        }
        body.truncate(len);
        body
    }

    /// Stamp `body` (a [`face_body`](Self::face_body)) as iteration `o.idx`.
    pub fn stamp_face(&self, body: &mut [u8], o: Origin) {
        body[..8].copy_from_slice(&self.stamp(o).to_le_bytes());
    }

    /// Whether `data` is face `o` of a sender whose body is `expect`: exact
    /// length, the iteration/face/source stamp, the last 8 bytes, and
    /// [`FACE_SAMPLES`] stamp-selected filler words (a full compare would
    /// cost as much as the copy being measured).
    pub fn check_face(&self, data: &[u8], expect: &[u8], o: Origin) -> bool {
        let stamp = self.stamp(o);
        if data.len() != expect.len() || data[..8] != stamp.to_le_bytes() {
            return false;
        }
        let n = data.len();
        if data[n - 8..] != expect[n - 8..] {
            return false;
        }
        let words = (n as u64 - 8) / 8;
        (0..FACE_SAMPLES).all(|k| {
            let at = 8 + (splitmix64(stamp ^ k) % words) as usize * 8;
            data[at..at + 8] == expect[at..at + 8]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin(src: usize, rep: u32, idx: u64, lane: u8) -> Origin {
        Origin {
            src,
            rep,
            idx,
            lane,
        }
    }

    #[test]
    fn same_seed_same_load_other_seed_other_load() {
        let (a, b, c) = (Load::new(7), Load::new(7), Load::new(8));
        let mut lens_a = Vec::new();
        let mut lens_c = Vec::new();
        for idx in 0..256 {
            assert_eq!(a.small_len(1, idx), b.small_len(1, idx));
            assert_eq!(a.stamp(origin(1, 0, idx, 0)), b.stamp(origin(1, 0, idx, 0)));
            lens_a.push(a.small_len(1, idx));
            lens_c.push(c.small_len(1, idx));
        }
        assert_ne!(lens_a, lens_c);
        assert_ne!(a.tag(0), c.tag(0));
        assert_eq!(a.face_body(0, 2), b.face_body(0, 2));
        assert_ne!(a.face_body(0, 2), c.face_body(0, 2));
    }

    #[test]
    fn lengths_and_tags_stay_in_range_and_ignore_the_rep() {
        let l = Load::new(0xDEAD_BEEF);
        for idx in 0..2000 {
            let len = l.small_len(3, idx);
            assert!((SMALL_MIN..SMALL_MIN + SMALL_SPAN as usize).contains(&len));
            assert!((0..TAG_CYCLE as i64).contains(&l.tag(idx)));
        }
        assert_eq!(l.tag(5), l.tag(5 + TAG_CYCLE));
        for lane in 0..4 {
            let n = l.face_body(1, lane).len();
            assert!((FACE_MIN..FACE_MIN + FACE_SPAN as usize).contains(&n));
        }
    }

    #[test]
    fn small_stamp_pins_source_rep_index() {
        let l = Load::new(42);
        let mut buf = [0u8; SMALL_MIN + SMALL_SPAN as usize];
        let o = origin(2, 3, 77, 0);
        let len = l.fill_small(&mut buf, o);
        assert!(l.check_small(&buf[..len], o));
        // Wrong source, wrong rep, wrong index (i.e. out of FIFO order).
        assert!(!l.check_small(&buf[..len], origin(1, 3, 77, 0)));
        assert!(!l.check_small(&buf[..len], origin(2, 4, 77, 0)));
        assert!(!l.check_small(&buf[..len], origin(2, 3, 78, 0)));
        // Truncated, and one flipped bit in stamp or filler.
        assert!(!l.check_small(&buf[..len - 1], o));
        let mut bad = buf;
        bad[0] ^= 1;
        assert!(!l.check_small(&bad[..len], o));
        if len > 8 {
            let mut bad = buf;
            bad[len - 1] ^= 0x80;
            assert!(!l.check_small(&bad[..len], o));
        }
    }

    #[test]
    fn face_stamp_pins_iteration_and_face() {
        let l = Load::new(9);
        let expect = l.face_body(1, 2);
        let mut sent = expect.clone();
        let o = origin(1, 0, 500, 2);
        l.stamp_face(&mut sent, o);
        assert!(l.check_face(&sent, &expect, o));
        assert!(!l.check_face(&sent, &expect, origin(1, 0, 501, 2)));
        assert!(!l.check_face(&sent, &expect, origin(1, 0, 500, 3)));
        assert!(!l.check_face(&sent[..sent.len() - 1], &expect, o));
        let mut bad = sent.clone();
        let n = bad.len();
        bad[n - 1] ^= 1;
        assert!(!l.check_face(&bad, &expect, o));
        // A body swapped for another face's filler is caught by the samples.
        let mut other = l.face_body(1, 3);
        other.resize(expect.len(), 0);
        l.stamp_face(&mut other, o);
        assert!(!l.check_face(&other, &expect, o));
    }
}
