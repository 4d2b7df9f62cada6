//! A bank of same-geometry LRU caches probed in lockstep.
//!
//! Several simulations that replay nested sub-streams of one access stream
//! (the Phase I threshold candidates of `spmm-hetsim`'s GPU model) can walk
//! the stream once and touch each line in every cache that sees it. A
//! line's set and tag are the same in every member, so they are computed
//! once per line, and the members' copies of that set sit next to each
//! other in memory (`[set][member][way]`). Every member probes through the
//! same `touch` routine as a standalone [`Cache`], so a member's contents
//! and counters are exactly those of a [`Cache`] fed its own sub-stream —
//! [`CacheBank::member`] splits one out as such.

use std::ops::Range;

use crate::cache::{touch, Cache, CacheConfig, CacheStats, Sets, Tag};

/// `members` LRU caches of one geometry, probed together.
#[derive(Debug, Clone)]
pub struct CacheBank {
    config: CacheConfig,
    sets: Sets,
    members: usize,
    /// Set `s` of member `k` is the `assoc` ways starting at
    /// `(s * members + k) * assoc`, in the layout of [`Cache`]'s sets but
    /// with `u32` tags: a line whose set-relative tag does not fit is
    /// refused.
    ways: Vec<u32>,
    stats: Vec<CacheStats>,
}

impl CacheBank {
    /// `members` empty caches of geometry `config`.
    pub fn new(config: CacheConfig, members: usize) -> Self {
        let sets = Sets::new(config);
        Self {
            config,
            sets,
            members,
            ways: vec![u32::EMPTY; config.num_sets() * members * config.assoc],
            stats: vec![CacheStats::default(); members],
        }
    }

    /// Touch `len` consecutive bytes at `addr` in each cache of `members`,
    /// exactly as each one's [`Cache::access_range`] would, and leave each
    /// one's line misses in `misses[k]` (indexed by member; other slots are
    /// untouched). Returns the number of lines the range spans.
    pub fn access_range(
        &mut self,
        addr: u64,
        len: usize,
        members: Range<usize>,
        misses: &mut [u64],
    ) -> u64 {
        let misses = &mut misses[members.clone()];
        misses.fill(0);
        if len == 0 || members.is_empty() {
            return 0;
        }
        let assoc = self.config.assoc;
        let stride = self.members * assoc;
        let (first, last) = self.sets.lines(addr, len);
        for line in first..=last {
            let (set, tag) = self.sets.locate(line);
            let base = set * stride;
            let span = &mut self.ways[base + members.start * assoc..base + members.end * assoc];
            for (ways, miss) in span.chunks_exact_mut(assoc).zip(misses.iter_mut()) {
                *miss += u64::from(!touch(ways, tag));
            }
        }
        let lines = last - first + 1;
        for (stats, &miss) in self.stats[members].iter_mut().zip(misses.iter()) {
            stats.misses += miss;
            stats.hits += lines - miss;
        }
        lines
    }

    /// Member `member` as a standalone [`Cache`]: the same lines in the
    /// same LRU order, and the same counters.
    pub fn member(&self, member: usize) -> Cache {
        let assoc = self.config.assoc;
        let ways = self
            .ways
            .chunks_exact(assoc)
            .skip(member)
            .step_by(self.members)
            .flatten()
            .map(|&t| {
                if t == u32::EMPTY {
                    u64::EMPTY
                } else {
                    u64::from(t)
                }
            })
            .collect();
        Cache::from_parts(self.config, ways, self.stats[member])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(size_bytes: usize, line_size: usize, assoc: usize) -> CacheConfig {
        CacheConfig {
            size_bytes,
            line_size,
            assoc,
        }
    }

    /// Seeded `(addr, len, lowest member)` ranges: short and line-straddling
    /// ranges over a small address space (so sets alias and evict), with
    /// frequent exact repeats (MRU hits) and occasional far addresses.
    fn stream(seed: u64, members: usize, n: usize) -> Vec<(u64, usize, usize)> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut out: Vec<(u64, usize, usize)> = Vec::new();
        for _ in 0..n {
            let r = next();
            let op = match (r % 8, out.last()) {
                // repeat the previous range: every member's first line hit
                // sits at its MRU way
                (0 | 1, Some(&prev)) => prev,
                (2, _) => ((1 << 36) | ((r >> 20) % 4096), (r >> 8) as usize % 300, 0),
                _ => ((r >> 16) % 8192, (r >> 4) as usize % 400, 0),
            };
            out.push((op.0, op.1, (next() % (members as u64 + 1)) as usize));
        }
        out
    }

    fn assert_bank_matches_caches(config: CacheConfig, members: usize, seed: u64) {
        let mut bank = CacheBank::new(config, members);
        let mut caches = vec![Cache::new(config); members];
        let mut misses = vec![u64::MAX; members];
        for (i, (addr, len, lo)) in stream(seed, members, 3_000).into_iter().enumerate() {
            let lines = bank.access_range(addr, len, lo..members, &mut misses);
            for (k, cache) in caches.iter_mut().enumerate().skip(lo) {
                let before = cache.stats().accesses();
                assert_eq!(
                    misses[k],
                    cache.access_range(addr, len),
                    "op {i} member {k}"
                );
                assert_eq!(
                    lines,
                    cache.stats().accesses() - before,
                    "op {i} member {k}"
                );
            }
        }
        for (k, cache) in caches.iter().enumerate() {
            let split = bank.member(k);
            assert_eq!(split.stats(), cache.stats(), "member {k} stats");
            // same contents in the same LRU order: the same next probes
            let (mut split, mut cache) = (split, cache.clone());
            for (addr, len, _) in stream(seed ^ 0xff, 1, 500) {
                assert_eq!(split.access_range(addr, len), cache.access_range(addr, len));
            }
            assert_eq!(split.stats(), cache.stats(), "member {k} after the split");
        }
    }

    #[test]
    fn bank_matches_independent_caches() {
        for (seed, (config, members)) in [
            (config(20 * 128 * 16, 128, 16), 7),
            (config(512, 64, 2), 3),
            (config(512, 64, 8), 5),
            (config(256, 64, 1), 4),
            (config(4 * 128 * 16, 128, 16), 1),
        ]
        .into_iter()
        .enumerate()
        {
            assert_bank_matches_caches(config, members, seed as u64 + 1);
        }
    }

    #[test]
    fn empty_ranges_and_member_sets_touch_nothing() {
        let mut bank = CacheBank::new(config(512, 64, 2), 3);
        let mut misses = vec![9; 3];
        assert_eq!(bank.access_range(0, 0, 0..3, &mut misses), 0);
        assert_eq!(misses, [0, 0, 0]);
        misses[0] = 9;
        assert_eq!(bank.access_range(0, 64, 1..1, &mut misses), 0);
        assert_eq!(misses[0], 9);
        assert_eq!(bank.access_range(0, 64, 1..3, &mut misses), 1);
        assert_eq!(misses, [9, 1, 1]);
        assert_eq!(bank.member(0).stats(), CacheStats::default());
    }

    #[test]
    #[should_panic(expected = "overflows the set-relative tags")]
    fn tags_past_u32_are_refused_not_aliased() {
        // one set: the tag is the line number itself, and line 2^32 would
        // wrap onto line 0
        let mut bank = CacheBank::new(config(512, 64, 8), 2);
        let mut misses = [0; 2];
        bank.access_range(0, 1, 0..2, &mut misses);
        bank.access_range(64 << 32, 1, 0..2, &mut misses);
    }
}
