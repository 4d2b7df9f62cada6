//! Scoped "pool": a thread-count policy plus parallel loop combinators.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Parallel execution policy. Holds a thread count and offers loop
/// combinators; threads are scoped per call (`std::thread::scope`), so no
/// shutdown handling or job queues are needed and borrows of stack data
/// work naturally.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Pool with an explicit thread count (≥ 1).
    pub fn new(num_threads: usize) -> Self {
        assert!(num_threads >= 1, "need at least one thread");
        Self { num_threads }
    }

    /// Pool sized to the host's available parallelism.
    pub fn host() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self::new(n)
    }

    /// Number of worker threads this pool uses.
    pub fn num_threads(&self) -> usize {
        self.num_threads
    }

    /// Guided self-scheduling loop with per-thread scratch state: threads
    /// repeatedly grab the next chunk of `chunk` indices from a shared
    /// counter until `0..len` is drained, each worker building one `S` with
    /// `init` and handing `&mut S` to every chunk it claims. This is the
    /// CPU-side scheduling the paper needs for spmm, where per-row work
    /// varies by orders of magnitude on scale-free inputs; the Gustavson
    /// engine needs the scratch — a sparse accumulator sized to `ncols` is
    /// far too expensive to build per row, and cannot be shared across
    /// threads.
    pub fn for_each_guided_with<S, I, F>(&self, len: usize, chunk: usize, init: I, f: F)
    where
        I: Fn() -> S + Sync,
        F: Fn(&mut S, std::ops::Range<usize>) + Sync,
    {
        assert!(chunk >= 1, "chunk must be >= 1");
        if len == 0 {
            return;
        }
        let t = self.num_threads.min(len.div_ceil(chunk));
        if t == 1 {
            let mut scratch = init();
            let mut lo = 0;
            while lo < len {
                let hi = (lo + chunk).min(len);
                f(&mut scratch, lo..hi);
                lo = hi;
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..t {
                let cursor = &cursor;
                let init = &init;
                let f = &f;
                s.spawn(move || {
                    let mut scratch = init();
                    loop {
                        let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if lo >= len {
                            break;
                        }
                        let hi = (lo + chunk).min(len);
                        f(&mut scratch, lo..hi);
                    }
                });
            }
        });
    }

    /// Order-preserving parallel map with *dynamic* index assignment:
    /// workers claim one index at a time from a shared counter and write
    /// `out[i] = f(i)` into its slot. Unlike static contiguous chunks,
    /// heavily skewed per-index costs — one Phase-I ladder candidate
    /// simulating 100× the rows of another — cannot strand the tail of the
    /// work on a single thread. The output depends only on
    /// `f` and the index, never on the schedule, so the result is identical
    /// for every thread count (the determinism the candidate-parallel
    /// threshold search is built on).
    pub fn par_map<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if len == 0 {
            return Vec::new();
        }
        let t = self.num_threads.min(len);
        if t == 1 {
            return (0..len).map(f).collect();
        }
        let mut out: Vec<Option<T>> = (0..len).map(|_| None).collect();
        {
            let slots = crate::DisjointSlice::new(&mut out);
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|s| {
                for _ in 0..t {
                    let cursor = &cursor;
                    let f = &f;
                    let slots = &slots;
                    s.spawn(move || loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= len {
                            break;
                        }
                        // each index is claimed exactly once → disjoint
                        unsafe { slots.write(i, Some(f(i))) };
                    });
                }
            });
        }
        out.into_iter()
            .map(|v| v.expect("every claimed index was written"))
            .collect()
    }
}

impl Default for ThreadPool {
    fn default() -> Self {
        Self::host()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn guided_loop_covers_all_indices_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU64> = (0..997).map(|_| AtomicU64::new(0)).collect();
        pool.for_each_guided_with(
            997,
            13,
            || (),
            |_, range| {
                for i in range {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            },
        );
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_map_is_identical_for_every_thread_count() {
        let expected: Vec<usize> = (0..503).map(|i| i * i + 1).collect();
        for threads in [1, 2, 3, 8] {
            let pool = ThreadPool::new(threads);
            assert_eq!(pool.par_map(503, |i| i * i + 1), expected);
        }
        assert!(ThreadPool::new(4).par_map(0, |i| i).is_empty());
    }

    #[test]
    fn par_map_survives_skewed_work() {
        // one index is 1000x heavier than the rest; dynamic claiming must
        // still produce the ordered output
        let pool = ThreadPool::new(4);
        let out = pool.par_map(64, |i| {
            let spins = if i == 0 { 100_000 } else { 100 };
            (0..spins).fold(i as u64, |a, x| a.wrapping_add(x))
        });
        let expected: Vec<u64> = (0..64)
            .map(|i| {
                let spins = if i == 0 { 100_000u64 } else { 100 };
                (0..spins).fold(i as u64, |a, x| a.wrapping_add(x))
            })
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn empty_inputs_are_noops() {
        let pool = ThreadPool::new(2);
        pool.for_each_guided_with(0, 8, || (), |_, _| panic!("must not run"));
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        let out = pool.par_map(10, |i| i + 1);
        assert_eq!(out[9], 10);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        ThreadPool::new(0);
    }

    #[test]
    fn host_pool_has_threads() {
        assert!(ThreadPool::host().num_threads() >= 1);
    }
}
