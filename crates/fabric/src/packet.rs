//! Wire packets: an opaque fixed-size header plus a payload.

use bytes::Bytes;
use rankmpi_vtime::Nanos;

/// A fixed-size wire header.
///
/// The fabric does not interpret these fields beyond routing — they are the
/// simulated equivalent of a transport header that the upper (MPI) layer encodes
/// its envelope into: message kind, communicator context id, source/destination
/// ranks, tag, sequence number, and two auxiliary words (RMA window ids/offsets,
/// partitioned-request ids, collective phase tags, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Upper-layer message kind discriminant.
    pub kind: u16,
    /// Communicator context id (or window id for RMA traffic).
    pub context_id: u32,
    /// Source identity (rank or endpoint rank).
    pub src: u32,
    /// Destination identity (rank or endpoint rank).
    pub dst: u32,
    /// Match tag. `i64` so upper layers can use sentinel values freely.
    pub tag: i64,
    /// Per-channel sequence number (monotone per source context).
    pub seq: u64,
    /// Auxiliary word (upper-layer defined).
    pub aux: u64,
    /// Second auxiliary word (upper-layer defined).
    pub aux2: u64,
}

/// High bit of [`Header::kind`] flagging a *poisoned* packet: a transport
/// failure notification injected by the [`resil`](crate::resil) layer when a
/// send's retry budget ran out. A poisoned packet routes and matches like its
/// base kind (so the matched receive can be failed instead of left hanging),
/// but carries an error code instead of a payload.
pub const KIND_ERR_FLAG: u16 = 0x8000;

/// Error codes carried in the low byte of `aux2` by poisoned packets.
pub mod errcode {
    /// The retry budget ran out against independent wire drops.
    pub const RETRIES_EXHAUSTED: u64 = 1;
    /// The final attempts were lost to a link down/flap episode.
    pub const LINK_DOWN: u64 = 2;
    /// The peer process is dead (rank-crash fault tolerance).
    pub const PROCESS_FAILED: u64 = 3;
    /// The communicator this packet belongs to was revoked.
    pub const REVOKED: u64 = 4;
}

impl Header {
    /// A zeroed header, useful as a template.
    pub fn zeroed() -> Self {
        Header {
            kind: 0,
            context_id: 0,
            src: 0,
            dst: 0,
            tag: 0,
            seq: 0,
            aux: 0,
            aux2: 0,
        }
    }

    /// Mark this header poisoned with an [`errcode`] and the number of
    /// transmission attempts spent (packed into `aux2`; `aux2` is a
    /// transport field on the kinds that get poisoned).
    pub fn poison(&mut self, code: u64, attempts: u32) {
        self.kind |= KIND_ERR_FLAG;
        self.aux2 = (code & 0xFF) | ((attempts as u64) << 8);
    }

    /// Whether this packet is a transport-failure notification.
    pub fn is_poisoned(&self) -> bool {
        self.kind & KIND_ERR_FLAG != 0
    }

    /// The [`errcode`] of a poisoned packet.
    pub fn poison_code(&self) -> u64 {
        self.aux2 & 0xFF
    }

    /// Transmission attempts spent before the poisoned packet gave up.
    pub fn poison_attempts(&self) -> u32 {
        (self.aux2 >> 8) as u32
    }

    /// The upper-layer kind with the poison flag masked off.
    pub fn base_kind(&self) -> u16 {
        self.kind & !KIND_ERR_FLAG
    }
}

/// A packet in flight or queued at a destination mailbox.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Routing/matching header.
    pub header: Header,
    /// Message payload. `Bytes` keeps enqueue/clone cheap.
    pub payload: Bytes,
    /// Virtual time at which the packet is fully arrived at the destination
    /// hardware context (set by [`transmit`](fn@crate::transmit)).
    pub arrive_at: Nanos,
}

impl Packet {
    /// Payload size in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty (control messages).
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrips_fields() {
        let h = Header {
            kind: 3,
            context_id: 77,
            src: 1,
            dst: 2,
            tag: -42,
            seq: 9,
            aux: 0xdead,
            aux2: 0xbeef,
        };
        assert_eq!(h.tag, -42);
        assert_eq!(h.aux, 0xdead);
        let copy = h;
        assert_eq!(copy, h);
    }

    #[test]
    fn poison_roundtrips_code_and_attempts() {
        let mut h = Header {
            kind: 1,
            ..Header::zeroed()
        };
        assert!(!h.is_poisoned());
        h.poison(errcode::LINK_DOWN, 17);
        assert!(h.is_poisoned());
        assert_eq!(h.base_kind(), 1);
        assert_eq!(h.poison_code(), errcode::LINK_DOWN);
        assert_eq!(h.poison_attempts(), 17);
    }

    #[test]
    fn packet_len_tracks_payload() {
        let p = Packet {
            header: Header::zeroed(),
            payload: Bytes::from_static(b"hello"),
            arrive_at: Nanos(5),
        };
        assert_eq!(p.len(), 5);
        assert!(!p.is_empty());
        let empty = Packet {
            header: Header::zeroed(),
            payload: Bytes::new(),
            arrive_at: Nanos::ZERO,
        };
        assert!(empty.is_empty());
    }
}
