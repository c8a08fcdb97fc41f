//! Offline shim for the subset of the `bytes` crate this workspace uses:
//! [`Bytes`], an immutable, cheaply-cloneable, sliceable byte buffer.
//!
//! Unlike the original, a short buffer is stored *inline*: up to
//! [`INLINE_CAP`] bytes live in the `Bytes` value itself, so building,
//! cloning and dropping one touches no heap and no shared reference count.
//! A longer one is a view of an `Arc<[u8]>`, whose count shares the bytes'
//! allocation; [`Bytes::from_shared`] lends a prefix of a buffer its caller
//! keeps, which is how an allocation pool recycles payload slabs.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Longest buffer [`Bytes::copy_from_slice`] stores inline: 40 bytes, the
/// size of a `Bytes` (which `Packet` and the mailbox ring's entries embed),
/// less the variant tag and a length byte. View offsets are `u32` so that a
/// view fits in the same 40 bytes.
pub const INLINE_CAP: usize = 38;

/// An immutable byte buffer. Clones share the underlying allocation;
/// [`Bytes::slice`] produces zero-copy sub-views.
#[derive(Clone)]
pub struct Bytes(Repr);

#[derive(Clone)]
enum Repr {
    /// A copy of at most [`INLINE_CAP`] bytes, owned by the value.
    Inline { len: u8, buf: [u8; INLINE_CAP] },
    /// A static slice; sub-views are sub-slices.
    Static(&'static [u8]),
    /// The view `[start, end)` of a shared buffer: a copy, or a pooled slab
    /// (see [`Bytes::from_shared`]). The reference count is in the same
    /// allocation, 16 bytes in front of the bytes.
    Shared {
        data: Arc<[u8]>,
        start: u32,
        end: u32,
    },
}

/// A view offset: views address at most 4 GiB.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("a Bytes view spans at most u32::MAX bytes")
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub const fn new() -> Self {
        Bytes(Repr::Static(&[]))
    }

    /// Wrap a static slice (no allocation).
    pub const fn from_static(s: &'static [u8]) -> Self {
        Bytes(Repr::Static(s))
    }

    /// Copy `s`: inline when it fits in [`INLINE_CAP`] bytes, into a new
    /// shared buffer otherwise.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        if s.len() > INLINE_CAP {
            return Bytes::from(s.to_vec());
        }
        let mut buf = [0; INLINE_CAP];
        buf[..s.len()].copy_from_slice(s);
        Bytes(Repr::Inline {
            len: s.len() as u8,
            buf,
        })
    }

    /// The first `len` bytes of a shared buffer, without copying. The caller
    /// may keep its own clone of the `Arc` (an allocation pool does) and
    /// reuse the buffer once [`owner_count`](Bytes::owner_count) drops back
    /// to its own references.
    pub fn from_shared(data: Arc<[u8]>, len: usize) -> Self {
        assert!(len <= data.len(), "slice out of range");
        Bytes(Repr::Shared {
            data,
            start: 0,
            end: offset(len),
        })
    }

    /// For a shared buffer: the current strong count of its `Arc`. `None`
    /// for inline or static buffers.
    pub fn owner_count(&self) -> Option<usize> {
        match &self.0 {
            Repr::Shared { data, .. } => Some(Arc::strong_count(data)),
            _ => None,
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Static(s) => s.len(),
            Repr::Shared { start, end, .. } => (end - start) as usize,
        }
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A sub-view of `range`: zero-copy, except that a sub-view of an
    /// inline buffer is an inline copy.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of range");
        Bytes(match &self.0 {
            Repr::Inline { .. } => return Bytes::copy_from_slice(&self[lo..hi]),
            Repr::Static(s) => Repr::Static(&s[lo..hi]),
            Repr::Shared { data, start, .. } => Repr::Shared {
                data: Arc::clone(data),
                start: start + offset(lo),
                end: start + offset(hi),
            },
        })
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Static(s) => s,
            Repr::Shared { data, start, end } => &data[*start as usize..*end as usize],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = offset(v.len());
        Bytes(Repr::Shared {
            data: Arc::from(v),
            start: 0,
            end,
        })
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Self {
        Bytes::from_static(s)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_deref() {
        assert_eq!(Bytes::new().len(), 0);
        assert_eq!(&Bytes::from_static(b"abc")[..], b"abc");
        assert_eq!(&Bytes::copy_from_slice(b"xyz")[1..], b"yz");
        assert_eq!(&Bytes::from(vec![1u8, 2, 3])[..], &[1, 2, 3]);
    }

    #[test]
    fn a_bytes_is_as_large_as_a_view() {
        // `Packet` and the mailbox ring's entries embed a `Bytes`: the
        // inline form must not grow them.
        assert_eq!(std::mem::size_of::<Bytes>(), 40);
    }

    #[test]
    fn clones_share_and_slices_are_views() {
        let b = Bytes::from(vec![0u8, 1, 2, 3, 4, 5]);
        let c = b.clone();
        assert_eq!(b, c);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.slice(1..).len(), 2);
        assert_eq!(&b.slice(..)[..], &b[..]);
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn oversized_slice_panics() {
        Bytes::from_static(b"ab").slice(0..3);
    }

    #[test]
    fn from_shared_shares_without_copy() {
        let a: Arc<[u8]> = Arc::from([9u8, 8, 7, 6]);
        let b = Bytes::from_shared(Arc::clone(&a), 3);
        assert_eq!(&b[..], &[9, 8, 7]);
        assert_eq!(b.owner_count(), Some(2));
        assert_eq!(b.slice(1..).owner_count(), Some(3));
        drop(b);
        assert_eq!(Arc::strong_count(&a), 1, "views release the owner");
        assert_eq!(Bytes::copy_from_slice(b"x").owner_count(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Up to and one past the inline capacity, a copy and a view of the
        /// same bytes are indistinguishable through the public API.
        #[test]
        fn inline_and_view_agree(
            data in collection::vec(any::<u8>(), 0..INLINE_CAP + 2),
            cut in (any::<usize>(), any::<usize>())
        ) {
            let copy = Bytes::copy_from_slice(&data);
            // A slab longer than its payload, as a pool hands out.
            let slab: Arc<[u8]> = data.iter().copied().chain([0xEE; 3]).collect();
            let view = Bytes::from_shared(slab, data.len());
            prop_assert_eq!(matches!(copy.0, Repr::Inline { .. }), data.len() <= INLINE_CAP);
            prop_assert!(matches!(view.0, Repr::Shared { .. }));
            let (a, b) = (cut.0 % (data.len() + 1), cut.1 % (data.len() + 1));
            let (lo, hi) = (a.min(b), a.max(b));
            for (x, y) in [
                (copy.clone(), view.clone()),
                (copy.slice(lo..hi), view.slice(lo..hi)),
                (copy.slice(lo..).slice(..hi - lo), view.slice(lo..).slice(..hi - lo)),
            ] {
                prop_assert_eq!(x.len(), y.len());
                prop_assert_eq!(x.is_empty(), y.is_empty());
                prop_assert_eq!(&x[..], &y[..]);
                prop_assert_eq!(&x, &y);
                prop_assert_eq!(format!("{x:?}"), format!("{y:?}"));
            }
            prop_assert_eq!(&copy.slice(lo..hi)[..], &data[lo..hi]);
        }
    }
}
