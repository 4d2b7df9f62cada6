//! In-order commit of out-of-order completions.
//!
//! The pipelined out-of-core shard driver fans band computations across
//! worker threads, but band results must be *committed* in plan order:
//! the write-behind spill channel's store keeps one slot per band in the
//! order it receives them and evicts the oldest first, and the stitch
//! appends those slots in that order, so only a plan-order commit lays
//! the bands of C end to end in row order. (The bands' per-claim entry
//! counts are integer sums, which any order would leave alike.)
//! [`OrderedCommitter`] is the small primitive that provides exactly
//! that: workers `submit` results under any interleaving, and the commit
//! closure observes index `i` only after indices `0..i` have all been
//! committed.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Commits out-of-order `(index, value)` submissions in strict index
/// order, starting at 0 with no gaps.
///
/// `submit(i, v)` parks `v` until every index below `i` has been
/// committed, then runs the commit closure on the ready prefix. The
/// closure runs under the committer's lock, so commits are serialized and
/// never reordered or interleaved — whichever thread submits the value
/// that completes a prefix drains that whole prefix.
pub struct OrderedCommitter<T, F: FnMut(usize, T)> {
    inner: Mutex<Inner<T, F>>,
}

struct Inner<T, F> {
    /// Next index to commit.
    next: usize,
    /// Out-of-order submissions parked until their turn.
    pending: BTreeMap<usize, T>,
    commit: F,
}

impl<T, F: FnMut(usize, T)> OrderedCommitter<T, F> {
    /// A committer that feeds `commit` indices `0, 1, 2, ...` in order.
    pub fn new(commit: F) -> Self {
        Self {
            inner: Mutex::new(Inner {
                next: 0,
                pending: BTreeMap::new(),
                commit,
            }),
        }
    }

    /// Hand in the result for `index`; commits every ready index.
    ///
    /// Panics if `index` was already submitted (each index is one band).
    pub fn submit(&self, index: usize, value: T) {
        let mut guard = self.inner.lock().unwrap();
        let inner = &mut *guard;
        let clash = inner.pending.insert(index, value);
        assert!(clash.is_none(), "index {index} submitted twice");
        while let Some(value) = inner.pending.remove(&inner.next) {
            (inner.commit)(inner.next, value);
            inner.next += 1;
        }
    }

    /// How many indices have been committed so far.
    pub fn committed(&self) -> usize {
        self.inner.lock().unwrap().next
    }

    /// Tear down, returning the commit count and the closure (with
    /// whatever state it captured by move).
    pub fn finish(self) -> (usize, F) {
        let inner = self.inner.into_inner().unwrap();
        assert!(
            inner.pending.is_empty(),
            "finish with {} uncommitted submissions",
            inner.pending.len()
        );
        (inner.next, inner.commit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn commits_in_index_order_regardless_of_submission_order() {
        let order = Mutex::new(Vec::new());
        let committer = OrderedCommitter::new(|i, v: usize| order.lock().unwrap().push((i, v)));
        for i in [3usize, 1, 4, 0, 2] {
            committer.submit(i, i * 10);
        }
        let (count, _) = committer.finish();
        assert_eq!(count, 5);
        let got = order.into_inner().unwrap();
        assert_eq!(got, vec![(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]);
    }

    #[test]
    fn prefix_commits_as_soon_as_it_is_ready() {
        let committer = OrderedCommitter::new(|_, _: ()| {});
        committer.submit(2, ());
        assert_eq!(committer.committed(), 0);
        committer.submit(0, ());
        assert_eq!(committer.committed(), 1);
        committer.submit(1, ());
        assert_eq!(committer.committed(), 3);
    }

    #[test]
    fn concurrent_submissions_commit_in_order() {
        const N: usize = 64;
        let seen = AtomicUsize::new(0);
        let committer = OrderedCommitter::new(|i, v: usize| {
            // each commit must observe exactly the prior commits
            assert_eq!(seen.load(Ordering::SeqCst), i);
            assert_eq!(v, i * 3);
            seen.fetch_add(1, Ordering::SeqCst);
        });
        std::thread::scope(|s| {
            for t in 0..4 {
                let committer = &committer;
                s.spawn(move || {
                    // thread t submits indices ≡ t (mod 4), descending —
                    // maximally out of order
                    for i in (0..N).filter(|i| i % 4 == t).rev() {
                        committer.submit(i, i * 3);
                    }
                });
            }
        });
        let (count, _) = committer.finish();
        assert_eq!(count, N);
        assert_eq!(seen.load(Ordering::SeqCst), N);
    }

    #[test]
    #[should_panic(expected = "submitted twice")]
    fn duplicate_index_panics() {
        let committer = OrderedCommitter::new(|_, _: ()| {});
        committer.submit(5, ());
        committer.submit(5, ());
    }
}
