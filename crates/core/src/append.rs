//! An append-only table whose entries can be borrowed without a lock.
//!
//! A process's VCI pool and a VCI's hardware contexts are only ever appended
//! to, and the send path looks one of them up per message. A `RwLock<Vec<_>>`
//! makes that lookup a read-modify-write on a line the *owner* of the table
//! shares with every sender; here a lookup is two acquire loads and the
//! borrow it returns lives as long as the table.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use parking_lot::Mutex;

/// Slots in the first chunk; chunk `k` holds `FIRST << k`.
const FIRST: usize = 8;
/// Chunks of a table: room for `FIRST * (2^CHUNKS - 1)` entries.
const CHUNKS: usize = 16;

/// Append-only table of `T`: entries are pushed under a mutex into doubling
/// chunks that are never moved or freed before the table, so `get` hands out
/// plain borrows.
pub(crate) struct AppendTable<T> {
    chunks: [OnceLock<Box<[OnceLock<T>]>>; CHUNKS],
    /// Entries pushed so far. Written under `push`.
    len: AtomicUsize,
    push: Mutex<()>,
}

/// Chunk and offset of entry `i`; `None` past the last chunk.
fn locate(i: usize) -> Option<(usize, usize)> {
    let k = (i / FIRST + 1).ilog2() as usize;
    (k < CHUNKS).then(|| (k, i - FIRST * ((1 << k) - 1)))
}

impl<T> AppendTable<T> {
    pub(crate) fn new() -> Self {
        AppendTable {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            push: Mutex::new(()),
        }
    }

    /// Append `value`; returns its index.
    pub(crate) fn push(&self, value: T) -> usize {
        self.push_with(|_| value)
    }

    /// Append what `make` builds from the index it will get, with pushes
    /// held off meanwhile; returns that index.
    pub(crate) fn push_with(&self, make: impl FnOnce(usize) -> T) -> usize {
        let _serial = self.push.lock();
        let i = self.len.load(Ordering::Relaxed);
        let (k, off) = locate(i).expect("append-only table is full");
        let chunk =
            self.chunks[k].get_or_init(|| (0..FIRST << k).map(|_| OnceLock::new()).collect());
        if chunk[off].set(make(i)).is_err() {
            unreachable!("slot {i} filled twice");
        }
        self.len.store(i + 1, Ordering::Release);
        i
    }

    /// Entry `i`, if it has been pushed.
    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        let (k, off) = locate(i)?;
        self.chunks[k].get()?[off].get()
    }

    pub(crate) fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// The entries pushed before the call, in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len()).map_while(|i| self.get(i))
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for AppendTable<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn locate_tiles_the_index_space() {
        let mut expect = (0, 0);
        for i in 0..10 * FIRST {
            assert_eq!(locate(i), Some(expect), "index {i}");
            expect.1 += 1;
            if expect.1 == FIRST << expect.0 {
                expect = (expect.0 + 1, 0);
            }
        }
    }

    #[test]
    fn concurrent_pushes_and_gets_see_every_entry_once() {
        const PER: usize = 200;
        let t = AppendTable::<usize>::new();
        let start = Barrier::new(3);
        std::thread::scope(|s| {
            for w in 0..2 {
                let (t, start) = (&t, &start);
                s.spawn(move || {
                    start.wait();
                    for j in 0..PER {
                        let i = t.push(w * PER + j);
                        assert_eq!(t.get(i), Some(&(w * PER + j)));
                    }
                });
            }
            // A reader racing the writers: whatever `len` admits is there.
            start.wait();
            while t.len() < 2 * PER {
                let n = t.len();
                assert_eq!(t.iter().take(n).count(), n);
            }
        });
        let mut all: Vec<usize> = t.iter().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..2 * PER).collect::<Vec<_>>());
    }

    #[test]
    fn a_borrow_outlives_later_pushes() {
        let t = AppendTable::<String>::new();
        t.push("first".to_owned());
        let first = t.get(0).unwrap();
        let addr = first as *const String;
        for i in 0..5 * FIRST {
            t.push(i.to_string());
        }
        assert_eq!(first, "first");
        assert!(std::ptr::eq(t.get(0).unwrap(), addr), "entries never move");
    }

    #[test]
    fn an_index_past_the_end_is_none() {
        let t = AppendTable::<u8>::new();
        assert_eq!(t.get(0), None);
        t.push(7);
        assert_eq!(t.get(0), Some(&7));
        assert_eq!(t.get(1), None, "same chunk, empty slot");
        assert_eq!(t.get(FIRST), None, "chunk not allocated");
        assert_eq!(t.get(usize::MAX), None, "beyond the last chunk");
    }
}
