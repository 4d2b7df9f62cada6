//! Shared slice for provably disjoint parallel writes.
//!
//! The GPU model's width tables and the order-preserving `par_map` write
//! each index of one shared buffer from whichever worker claimed it. The
//! indices never overlap — each is claimed once — but the borrow checker
//! cannot see that through a work-stealing loop, so this wrapper carries
//! the invariant instead: it shares a raw pointer and exposes only a write
//! entry point marked `unsafe`, with the disjointness obligation on the
//! caller. Debug builds check that obligation: every write sets its
//! index's bit in an atomic bitset, and a second write to one index
//! panics, so the debug test suite checks every user.

use std::marker::PhantomData;
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};

/// A `&mut [T]` that can be written from many threads at once, provided
/// every thread writes a disjoint set of indices.
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
    /// One bit per index, set by its first write (debug builds only).
    #[cfg(debug_assertions)]
    written: Box<[AtomicU64]>,
    _borrow: PhantomData<&'a mut [T]>,
}

// Writes go through raw pointers at caller-guaranteed disjoint indices, so
// sharing the wrapper across threads is no more dangerous than sharing
// disjoint `&mut` sub-slices would be.
unsafe impl<T: Send> Sync for DisjointSlice<'_, T> {}
unsafe impl<T: Send> Send for DisjointSlice<'_, T> {}

impl<'a, T> DisjointSlice<'a, T> {
    /// Wrap `data` for disjoint parallel writing. The exclusive borrow
    /// guarantees nobody else reads or writes the slice for the wrapper's
    /// lifetime.
    pub fn new(data: &'a mut [T]) -> Self {
        Self {
            ptr: data.as_mut_ptr(),
            len: data.len(),
            #[cfg(debug_assertions)]
            written: (0..data.len().div_ceil(64))
                .map(|_| AtomicU64::new(0))
                .collect(),
            _borrow: PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Write one element.
    ///
    /// # Safety
    ///
    /// No other thread may read or write index `idx` for the lifetime of
    /// this wrapper. Debug builds panic on a second write to `idx`.
    #[inline]
    pub unsafe fn write(&self, idx: usize, value: T) {
        debug_assert!(idx < self.len);
        #[cfg(debug_assertions)]
        {
            // the bitset publishes no data, and `fetch_or`s on one word are
            // totally ordered, so two writers of one index cannot both see
            // its bit clear
            let bit = 1u64 << (idx % 64);
            let seen = self.written[idx / 64].fetch_or(bit, Ordering::Relaxed);
            assert!(seen & bit == 0, "DisjointSlice: index {idx} written twice");
        }
        unsafe { self.ptr.add(idx).write(value) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPool;

    /// `out.write(i, v)` for the tests, each of which writes every index
    /// once — except the one that breaks the rule on purpose and is
    /// stopped by the debug check before the second write lands.
    fn put(out: &DisjointSlice<'_, u64>, i: usize, v: u64) {
        unsafe { out.write(i, v) };
    }

    #[test]
    fn parallel_disjoint_writes_land() {
        let mut data = vec![0u64; 10_000];
        {
            let out = DisjointSlice::new(&mut data);
            let pool = ThreadPool::new(4);
            pool.for_each_guided_with(
                10_000,
                64,
                || (),
                |_, range| {
                    for i in range {
                        // each index written exactly once → disjoint
                        put(&out, i, (i * 3) as u64);
                    }
                },
            );
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == (i * 3) as u64));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "index 70 written twice")]
    fn debug_builds_refuse_a_second_write_to_one_index() {
        let mut data = vec![0u64; 100];
        let out = DisjointSlice::new(&mut data);
        for i in [3, 69, 70, 71, 70] {
            put(&out, i, 1);
        }
    }

    #[test]
    fn len_and_empty() {
        let mut data = [0u8; 3];
        let s = DisjointSlice::new(&mut data);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        let mut none: [u8; 0] = [];
        assert!(DisjointSlice::new(&mut none).is_empty());
    }
}
