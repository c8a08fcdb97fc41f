//! Library error type and MPI-style error handlers.

use std::fmt;

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, RankMpiError>;

/// Backwards-compatible alias for [`RankMpiError`].
pub type Error = RankMpiError;

/// Errors surfaced by the library.
///
/// Several of these encode *semantic* limitations the paper dwells on: a
/// wildcard receive cannot be matched when the communicator's mapping policy
/// spreads matching across multiple VCIs by tag bits (Lessons 7 and 15), and a
/// tag layout can run out of bits (Lesson 9). The `Timeout` /
/// `RetriesExhausted` / `LinkDown` family surfaces fabric-level loss that the
/// reliability protocol could not hide — under `Errhandler::ErrorsReturn`
/// these reach the application instead of aborting it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RankMpiError {
    /// Rank outside the communicator's group.
    InvalidRank {
        /// The offending rank.
        rank: i64,
        /// The communicator's size.
        size: usize,
    },
    /// Tag outside `[0, TAG_UB]` (negative tags are reserved for wildcards
    /// and internal use).
    TagOutOfRange {
        /// The offending tag.
        tag: i64,
    },
    /// The requested tag layout does not fit in the tag space (Lesson 9).
    TagBitsOverflow {
        /// Bits requested by the layout (app + src-tid + dst-tid).
        requested: u32,
        /// Bits available in the tag space.
        available: u32,
    },
    /// A wildcard receive was posted on a communicator whose VCI policy needs
    /// the concrete tag/source to locate the matching engine (Lesson 7/15).
    WildcardUnsupported {
        /// What made the wildcard unreachable.
        reason: &'static str,
    },
    /// `dup_with_info` asked for a tag-bits VCI policy without asserting away
    /// the semantics that policy requires (`mpi_assert_no_any_tag` etc.).
    MissingAssertion {
        /// The missing `mpi_assert_*` hint.
        hint: &'static str,
    },
    /// Two threads issued a collective concurrently on one communicator —
    /// erroneous per MPI's serial-issuance rule (the restriction motivating
    /// per-thread communicators in Fig. 7).
    ConcurrentCollective {
        /// The communicator's context id.
        context_id: u32,
    },
    /// RMA access outside the window's exposed region.
    WindowOutOfBounds {
        /// Starting byte offset of the access.
        offset: usize,
        /// Length of the access in bytes.
        len: usize,
        /// The window's exposed size in bytes.
        size: usize,
    },
    /// Mismatched buffer lengths (e.g. reduce contributions of unequal size).
    LengthMismatch {
        /// The length the operation required.
        expected: usize,
        /// The length actually supplied.
        got: usize,
    },
    /// An Info value failed to parse.
    BadInfoValue {
        /// The hint's key.
        key: String,
        /// The unparsable value.
        value: String,
    },
    /// Operation is invalid in the current object state.
    InvalidState(&'static str),
    /// A bounded wait (`Request::wait_timeout`, `recv_timeout`) expired
    /// before the operation completed.
    Timeout {
        /// Real time waited before giving up, in milliseconds.
        waited_ms: u64,
    },
    /// The reliability layer gave up on a message after exhausting its retry
    /// budget (persistent wire drops).
    RetriesExhausted {
        /// Sending process rank.
        src: u32,
        /// Total transmission attempts made (first send + retransmits).
        attempts: u32,
    },
    /// The reliability layer gave up on a message because the link stayed
    /// down across every retry (link flap outlasted the retry budget).
    LinkDown {
        /// Sending process rank.
        src: u32,
    },
    /// The peer process died (rank-crash fault tolerance): the failure
    /// detector observed the crash, so this operation can never complete.
    /// ULFM's `MPI_ERR_PROC_FAILED`. Recovery: `Communicator::revoke`,
    /// `agree`, then `shrink` to a survivors-only communicator.
    ProcessFailed {
        /// World rank of the dead process.
        rank: u32,
    },
    /// The communicator was revoked (by this process or epidemically via a
    /// poisoned control packet) after some member observed a failure; every
    /// pending and future operation on it errors. ULFM's
    /// `MPI_ERR_REVOKED`.
    Revoked {
        /// Context id of the revoked communicator.
        context_id: u32,
    },
}

impl RankMpiError {
    /// Whether a fault-tolerant caller recovers from this error by revoking,
    /// agreeing and shrinking rather than treating it as a bug: a dead peer
    /// ([`ProcessFailed`](Self::ProcessFailed)), a revoked communicator
    /// ([`Revoked`](Self::Revoked)), or a link that stayed down across every
    /// retry ([`LinkDown`](Self::LinkDown)). Every other variant is `false`.
    pub fn is_ft(&self) -> bool {
        matches!(
            self,
            RankMpiError::ProcessFailed { .. }
                | RankMpiError::Revoked { .. }
                | RankMpiError::LinkDown { .. }
        )
    }
}

impl fmt::Display for RankMpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankMpiError::InvalidRank { rank, size } => {
                write!(
                    f,
                    "rank {rank} out of range for communicator of size {size}"
                )
            }
            RankMpiError::TagOutOfRange { tag } => write!(f, "tag {tag} out of range"),
            RankMpiError::TagBitsOverflow {
                requested,
                available,
            } => write!(
                f,
                "tag layout needs {requested} bits but only {available} are available"
            ),
            RankMpiError::WildcardUnsupported { reason } => {
                write!(f, "wildcard receive unsupported: {reason}")
            }
            RankMpiError::MissingAssertion { hint } => {
                write!(f, "VCI policy requires info assertion `{hint}`")
            }
            RankMpiError::ConcurrentCollective { context_id } => write!(
                f,
                "concurrent collectives on communicator with context id {context_id}"
            ),
            RankMpiError::WindowOutOfBounds { offset, len, size } => write!(
                f,
                "RMA access [{offset}, {}) outside window of {size} bytes",
                offset + len
            ),
            RankMpiError::LengthMismatch { expected, got } => {
                write!(f, "buffer length mismatch: expected {expected}, got {got}")
            }
            RankMpiError::BadInfoValue { key, value } => {
                write!(f, "bad info value for `{key}`: `{value}`")
            }
            RankMpiError::InvalidState(s) => write!(f, "invalid state: {s}"),
            RankMpiError::Timeout { waited_ms } => {
                write!(f, "operation timed out after {waited_ms} ms")
            }
            RankMpiError::RetriesExhausted { src, attempts } => write!(
                f,
                "message from rank {src} lost: retries exhausted after {attempts} attempts"
            ),
            RankMpiError::LinkDown { src } => {
                write!(f, "message from rank {src} lost: link down")
            }
            RankMpiError::ProcessFailed { rank } => {
                write!(f, "process {rank} failed (rank crash detected)")
            }
            RankMpiError::Revoked { context_id } => {
                write!(f, "communicator with context id {context_id} revoked")
            }
        }
    }
}

impl std::error::Error for RankMpiError {}

/// MPI-style error handler attached to communicators and windows.
///
/// Mirrors `MPI_ERRORS_ARE_FATAL` / `MPI_ERRORS_RETURN`: with the (default)
/// fatal handler a fabric-level failure that reaches a blocking operation
/// aborts the run with a diagnostic; with `ErrorsReturn` the operation
/// returns the [`RankMpiError`] to the caller, which can retry, reroute, or
/// shut down cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Errhandler {
    /// Abort (panic) on errors reaching a blocking call — `MPI_ERRORS_ARE_FATAL`.
    #[default]
    ErrorsAreFatal,
    /// Return errors to the caller — `MPI_ERRORS_RETURN`.
    ErrorsReturn,
}

impl Errhandler {
    /// Stable integer encoding (for lock-free storage in an `AtomicU8`).
    pub fn as_u8(self) -> u8 {
        match self {
            Errhandler::ErrorsAreFatal => 0,
            Errhandler::ErrorsReturn => 1,
        }
    }

    /// Decode [`Errhandler::as_u8`]; unknown values map to the fatal default.
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => Errhandler::ErrorsReturn,
            _ => Errhandler::ErrorsAreFatal,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = Error::TagBitsOverflow {
            requested: 30,
            available: 22,
        };
        assert!(e.to_string().contains("30"));
        assert!(e.to_string().contains("22"));
        let e = Error::WindowOutOfBounds {
            offset: 8,
            len: 8,
            size: 12,
        };
        assert!(e.to_string().contains("16"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::InvalidState("x"), Error::InvalidState("x"));
        assert_ne!(
            Error::TagOutOfRange { tag: 1 },
            Error::TagOutOfRange { tag: 2 }
        );
    }

    #[test]
    fn resilience_errors_name_the_source() {
        let e = RankMpiError::RetriesExhausted {
            src: 3,
            attempts: 17,
        };
        assert!(e.to_string().contains("rank 3"));
        assert!(e.to_string().contains("17"));
        assert!(RankMpiError::LinkDown { src: 1 }
            .to_string()
            .contains("link down"));
        assert!(RankMpiError::Timeout { waited_ms: 250 }
            .to_string()
            .contains("250"));
    }

    #[test]
    fn ft_errors_name_their_subject() {
        assert!(RankMpiError::ProcessFailed { rank: 5 }
            .to_string()
            .contains("process 5"));
        assert!(RankMpiError::Revoked { context_id: 42 }
            .to_string()
            .contains("42"));
    }

    #[test]
    fn is_ft_accepts_exactly_the_recoverable_failures() {
        let accepted = [
            RankMpiError::ProcessFailed { rank: 1 },
            RankMpiError::Revoked { context_id: 2 },
            RankMpiError::LinkDown { src: 3 },
        ];
        let rejected = [
            RankMpiError::InvalidRank { rank: 9, size: 4 },
            RankMpiError::TagOutOfRange { tag: -5 },
            RankMpiError::TagBitsOverflow {
                requested: 30,
                available: 22,
            },
            RankMpiError::WildcardUnsupported { reason: "r" },
            RankMpiError::MissingAssertion { hint: "h" },
            RankMpiError::ConcurrentCollective { context_id: 0 },
            RankMpiError::WindowOutOfBounds {
                offset: 0,
                len: 1,
                size: 0,
            },
            RankMpiError::LengthMismatch {
                expected: 1,
                got: 2,
            },
            RankMpiError::BadInfoValue {
                key: "k".into(),
                value: "v".into(),
            },
            RankMpiError::InvalidState("s"),
            RankMpiError::Timeout { waited_ms: 1 },
            RankMpiError::RetriesExhausted {
                src: 0,
                attempts: 3,
            },
        ];
        for e in &accepted {
            assert!(e.is_ft(), "{e:?} must be a fault-tolerance error");
        }
        for e in &rejected {
            assert!(!e.is_ft(), "{e:?} must not be a fault-tolerance error");
        }
    }

    #[test]
    fn errhandler_roundtrips_through_u8() {
        assert_eq!(Errhandler::default(), Errhandler::ErrorsAreFatal);
        for h in [Errhandler::ErrorsAreFatal, Errhandler::ErrorsReturn] {
            assert_eq!(Errhandler::from_u8(h.as_u8()), h);
        }
        assert_eq!(Errhandler::from_u8(200), Errhandler::ErrorsAreFatal);
    }
}
