//! Shared slice for provably disjoint parallel writes.
//!
//! The numeric pass of a two-pass spmm writes each output row into a
//! pre-offset region of one shared CSR buffer. The regions never overlap —
//! the symbolic pass sized them — but the borrow checker cannot see that
//! through a work-stealing loop, so this wrapper carries the invariant
//! instead: it shares a raw pointer and exposes only write entry points
//! marked `unsafe`, with the disjointness obligation on the caller.

use std::marker::PhantomData;

/// A `&mut [T]` that can be written from many threads at once, provided
/// every thread writes a disjoint set of indices.
pub struct DisjointSlice<'a, T> {
    ptr: *mut T,
    len: usize,
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
    /// this wrapper.
    #[inline]
    pub unsafe fn write(&self, idx: usize, value: T) {
        debug_assert!(idx < self.len);
        unsafe { self.ptr.add(idx).write(value) };
    }

    /// Copy `src` into the region starting at `offset`.
    ///
    /// # Safety
    ///
    /// No other thread may read or write `offset..offset + src.len()` for
    /// the lifetime of this wrapper.
    #[inline]
    pub unsafe fn write_slice(&self, offset: usize, src: &[T])
    where
        T: Copy,
    {
        debug_assert!(offset + src.len() <= self.len);
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.ptr.add(offset), src.len()) };
    }

    /// Exclusive view of the region starting at `offset`, `len` long — the
    /// bulk entry point for kernels that fill a whole row range at once
    /// (SoA accumulator drains, vectorized scaled copies) instead of
    /// writing element by element.
    ///
    /// # Safety
    ///
    /// No other thread may read or write `offset..offset + len`, and the
    /// caller must not obtain a second overlapping view, for as long as
    /// the returned slice lives. The region's prior contents may be
    /// uninitialized-equivalent garbage; callers must treat the view as
    /// write-only until they have written it.
    #[inline]
    #[allow(clippy::mut_from_ref)] // the disjointness contract is the point of this type
    pub unsafe fn slice_mut(&self, offset: usize, len: usize) -> &mut [T] {
        debug_assert!(offset + len <= self.len);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(offset), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadPool;

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
                        unsafe { out.write(i, (i * 3) as u64) };
                    }
                },
            );
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == (i * 3) as u64));
    }

    #[test]
    fn slice_copies_land() {
        let mut data = vec![0u32; 1_000];
        {
            let out = DisjointSlice::new(&mut data);
            let pool = ThreadPool::new(3);
            pool.for_each_guided_with(
                10,
                1,
                || (),
                |_, range| {
                    for block in range {
                        let src: Vec<u32> = (0..100).map(|j| (block * 100 + j) as u32).collect();
                        unsafe { out.write_slice(block * 100, &src) };
                    }
                },
            );
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));
    }

    #[test]
    fn bulk_views_land() {
        let mut data = vec![0u32; 600];
        {
            let out = DisjointSlice::new(&mut data);
            let pool = ThreadPool::new(3);
            pool.for_each_guided_with(
                6,
                1,
                || (),
                |_, range| {
                    for block in range {
                        let view = unsafe { out.slice_mut(block * 100, 100) };
                        for (j, v) in view.iter_mut().enumerate() {
                            *v = (block * 100 + j) as u32;
                        }
                    }
                },
            );
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32));
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
