//! Prefix sums (scans).
//!
//! The paper's Phase IV "scan[s] the marked array to identify the first
//! index for each row, column index" (§III-D) — that is an exclusive prefix
//! sum over head marks. The parallel version is the classic two-pass
//! blocked scan: per-block sums, serial scan of the block sums, then a
//! per-block local scan with the block offset.

use crate::ThreadPool;

/// In-place exclusive prefix sum; returns the grand total.
///
/// `[3, 1, 4] → [0, 3, 4]`, returns 8.
pub fn exclusive_scan(data: &mut [u64], pool: &ThreadPool) -> u64 {
    let n = data.len();
    if n == 0 {
        return 0;
    }
    let t = pool.num_threads().min(n);
    if t == 1 || n < 4096 {
        let mut acc = 0u64;
        for v in data.iter_mut() {
            let next = acc + *v;
            *v = acc;
            acc = next;
        }
        return acc;
    }
    let chunk = n.div_ceil(t);
    // pass 1: per-block sums
    let block_sums: Vec<u64> = pool.map(t, |i| {
        let lo = i * chunk;
        let hi = ((i + 1) * chunk).min(n);
        data[lo..hi].iter().sum()
    });
    // serial scan of block sums
    let mut offsets = Vec::with_capacity(t);
    let mut acc = 0u64;
    for &s in &block_sums {
        offsets.push(acc);
        acc += s;
    }
    let total = acc;
    // pass 2: local exclusive scan per block, seeded with the block offset
    let offsets_ref = &offsets;
    std::thread::scope(|s| {
        let mut rest: &mut [u64] = data;
        let mut handles = Vec::new();
        for (i, &offset) in offsets_ref.iter().enumerate() {
            let lo = i * chunk;
            let hi = ((i + 1) * chunk).min(n);
            let (block, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            handles.push(s.spawn(move || {
                let mut acc = offset;
                for v in block.iter_mut() {
                    let next = acc + *v;
                    *v = acc;
                    acc = next;
                }
            }));
        }
        for h in handles {
            h.join().expect("scan worker panicked");
        }
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exclusive_small() {
        let pool = ThreadPool::new(2);
        let mut v = vec![3, 1, 4];
        let total = exclusive_scan(&mut v, &pool);
        assert_eq!(v, vec![0, 3, 4]);
        assert_eq!(total, 8);
    }

    #[test]
    fn empty_and_singleton() {
        let pool = ThreadPool::new(4);
        let mut v: Vec<u64> = vec![];
        assert_eq!(exclusive_scan(&mut v, &pool), 0);
        let mut v = vec![5];
        assert_eq!(exclusive_scan(&mut v, &pool), 5);
        assert_eq!(v, vec![0]);
    }

    #[test]
    fn parallel_path_matches_serial() {
        let pool = ThreadPool::new(4);
        let n = 100_000;
        let mut par: Vec<u64> = (0..n).map(|i| (i % 7) as u64).collect();
        let mut ser = par.clone();
        let tp = exclusive_scan(&mut par, &pool);
        let ts = exclusive_scan(&mut ser, &ThreadPool::new(1));
        assert_eq!(tp, ts);
        assert_eq!(par, ser);
    }
}
