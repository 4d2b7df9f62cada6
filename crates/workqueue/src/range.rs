//! Double-ended claiming over a row range with per-claim grains.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::End;

/// A row range `0..n` drained from both ends with independent grain sizes,
/// modelling §IV-B: "the size of the work-unit on the CPU … is set at 1000
/// rows … the variable gpuRows … is set to 10,000 rows".
///
/// Both cursors share one atomic word, so a claim is one CAS. The final claim at either end may be short when
/// fewer rows than the grain remain.
#[derive(Debug)]
pub struct RangeQueue {
    n: u64,
    /// `(front << 32) | back`; unclaimed rows are `front..back`.
    state: AtomicU64,
}

impl RangeQueue {
    /// Queue over `0..n` rows.
    pub fn new(n: usize) -> Self {
        assert!(n < u32::MAX as usize, "row count exceeds cursor packing");
        Self {
            n: n as u64,
            state: AtomicU64::new(n as u64),
        }
    }

    /// Total rows.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// True when created over an empty range.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Unclaimed rows (racy snapshot).
    pub fn remaining(&self) -> usize {
        let (front, back) = unpack(self.state.load(Ordering::Acquire));
        (back - front) as usize
    }

    /// Claim up to `grain` rows from `end`. Returns the claimed row range,
    /// or `None` once the ends have met.
    pub fn claim(&self, end: End, grain: usize) -> Option<Range<usize>> {
        assert!(grain >= 1, "grain must be >= 1");
        let grain = grain as u64;
        let mut s = self.state.load(Ordering::Acquire);
        loop {
            let (front, back) = unpack(s);
            if front >= back {
                return None;
            }
            let take = grain.min(back - front);
            let (range, next) = match end {
                End::Front => ((front..front + take), pack(front + take, back)),
                End::Back => ((back - take..back), pack(front, back - take)),
            };
            match self
                .state
                .compare_exchange_weak(s, next, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(range.start as usize..range.end as usize),
                Err(cur) => s = cur,
            }
        }
    }
}

#[inline]
fn unpack(s: u64) -> (u64, u64) {
    (s >> 32, s & 0xFFFF_FFFF)
}

#[inline]
fn pack(front: u64, back: u64) -> u64 {
    (front << 32) | back
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asymmetric_grains() {
        let q = RangeQueue::new(25_000);
        assert_eq!(q.claim(End::Front, 1_000), Some(0..1_000));
        assert_eq!(q.claim(End::Back, 10_000), Some(15_000..25_000));
        assert_eq!(q.claim(End::Front, 1_000), Some(1_000..2_000));
        assert_eq!(q.remaining(), 13_000);
    }

    #[test]
    fn final_claim_is_short() {
        let q = RangeQueue::new(1_500);
        assert_eq!(q.claim(End::Front, 1_000), Some(0..1_000));
        assert_eq!(q.claim(End::Front, 1_000), Some(1_000..1_500));
        assert!(q.claim(End::Front, 1_000).is_none());
    }

    #[test]
    fn ends_meet_without_overlap() {
        let q = RangeQueue::new(10_000);
        let mut covered = vec![false; 10_000];
        loop {
            let r = match (q.claim(End::Front, 700), q.claim(End::Back, 1_100)) {
                (None, None) => break,
                (a, b) => a.into_iter().chain(b),
            };
            for range in r {
                for i in range {
                    assert!(!covered[i], "row {i} claimed twice");
                    covered[i] = true;
                }
            }
        }
        assert!(covered.iter().all(|&c| c), "all rows claimed");
    }

    #[test]
    fn concurrent_claims_partition_rows() {
        use std::sync::Mutex;
        const N: usize = 200_000;
        let q = RangeQueue::new(N);
        let claimed = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for t in 0..4 {
                let q = &q;
                let claimed = &claimed;
                s.spawn(move || {
                    let (end, grain) = if t % 2 == 0 {
                        (End::Front, 997)
                    } else {
                        (End::Back, 3_001)
                    };
                    let mut local = Vec::new();
                    while let Some(r) = q.claim(end, grain) {
                        local.push(r);
                    }
                    claimed.lock().unwrap().extend(local);
                });
            }
        });
        let mut ranges = claimed.lock().unwrap().clone();
        ranges.sort_by_key(|r| r.start);
        let mut expected_start = 0;
        for r in &ranges {
            assert_eq!(
                r.start, expected_start,
                "gap or overlap at {expected_start}"
            );
            expected_start = r.end;
        }
        assert_eq!(expected_start, N);
    }

    #[test]
    fn empty_range() {
        let q = RangeQueue::new(0);
        assert!(q.is_empty());
        assert!(q.claim(End::Front, 10).is_none());
    }

    #[test]
    #[should_panic(expected = "grain must be")]
    fn zero_grain_rejected() {
        RangeQueue::new(10).claim(End::Front, 0);
    }
}
