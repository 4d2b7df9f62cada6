//! A single set-associative LRU cache.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes. Must be a multiple of `line_size * assoc`.
    pub size_bytes: usize,
    /// Cache line size in bytes (power of two).
    pub line_size: usize,
    /// Ways per set.
    pub assoc: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        self.size_bytes / (self.line_size * self.assoc)
    }

    fn validate(&self) {
        assert!(
            self.line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(self.assoc >= 1, "associativity must be >= 1");
        assert!(
            self.size_bytes.is_multiple_of(self.line_size * self.assoc),
            "size must be a multiple of line_size * assoc"
        );
        assert!(self.num_sets() >= 1, "cache must have at least one set");
    }
}

/// Outcome of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    Hit,
    Miss,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit fraction in `[0, 1]`; 0 when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }
}

/// A set-relative tag: the quotient `line / num_sets`, which names a line
/// within its set. [`Cache`] keeps `u64` tags, so every line fits; a
/// [`crate::CacheBank`] keeps `u32` tags, so a 16-way set is one 64-byte
/// line (the ladder walk ran 25 % longer on `u64` tags).
pub(crate) trait Tag: Copy + Eq {
    /// The tag of a way no line has filled yet.
    const EMPTY: Self;

    /// The tag of quotient `q`, or `None` when `q` would wrap or alias
    /// [`Tag::EMPTY`].
    fn narrow(q: u64) -> Option<Self>;
}

impl Tag for u32 {
    const EMPTY: u32 = u32::MAX;

    fn narrow(q: u64) -> Option<u32> {
        u32::try_from(q).ok().filter(|&t| t != Self::EMPTY)
    }
}

impl Tag for u64 {
    const EMPTY: u64 = u64::MAX;

    fn narrow(q: u64) -> Option<u64> {
        (q != Self::EMPTY).then_some(q)
    }
}

/// Where one cache geometry puts a line: its set, and its tag within the
/// set. Shared by [`Cache`] and [`crate::CacheBank`], so both map lines
/// alike.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Sets {
    line_shift: u32,
    num_sets: u64,
    /// `floor((2^64 - 1) / num_sets)`: the quotient estimate
    /// `line * recip >> 64` is the true one or one short.
    recip: u64,
}

impl Sets {
    pub(crate) fn new(config: CacheConfig) -> Self {
        config.validate();
        Self {
            line_shift: config.line_size.trailing_zeros(),
            num_sets: config.num_sets() as u64,
            recip: u64::MAX / config.num_sets() as u64,
        }
    }

    /// First and last line of `len > 0` bytes at `addr`.
    #[inline]
    pub(crate) fn lines(&self, addr: u64, len: usize) -> (u64, u64) {
        (
            addr >> self.line_shift,
            (addr + len as u64 - 1) >> self.line_shift,
        )
    }

    /// Set index and set-relative tag (`line / num_sets`) of `line`. The
    /// lines of one set differ in that quotient, so it names the line
    /// within its set; a quotient the tag type cannot hold would alias
    /// another line (or the empty way) and is refused.
    #[inline]
    pub(crate) fn locate<T: Tag>(&self, line: u64) -> (usize, T) {
        let mut tag = ((u128::from(line) * u128::from(self.recip)) >> 64) as u64;
        let mut set = line - tag * self.num_sets;
        if set >= self.num_sets {
            tag += 1;
            set -= self.num_sets;
        }
        let Some(tag) = T::narrow(tag) else {
            panic!(
                "line {line} overflows the set-relative tags of a {}-set cache",
                self.num_sets
            )
        };
        (set as usize, tag)
    }
}

/// The one LRU set probe: touch `tag` in a set's ways (MRU → LRU order,
/// unfilled ways at the tail) and return whether it was resident. A hit
/// moves the line to the MRU way; a miss installs it there and drops the
/// LRU way (an unfilled one while the set has room).
///
/// An MRU hit changes nothing, so it is tested first. Past it, a hit
/// rotates the ways up to the match and a miss shifts the whole set down
/// by one way; both are one short memmove.
#[inline]
pub(crate) fn touch<T: Tag>(ways: &mut [T], tag: T) -> bool {
    if ways[0] == tag {
        return true;
    }
    match ways.iter().position(|&t| t == tag) {
        Some(pos) => {
            ways[..=pos].rotate_right(1);
            true
        }
        None => {
            ways.copy_within(..ways.len() - 1, 1);
            ways[0] = tag;
            false
        }
    }
}

/// Set-associative cache with true-LRU replacement.
///
/// Each set is `assoc` consecutive tags in most-recently-used order
/// (`touch`), so a probe is a scan of at most `assoc` entries followed by
/// a shift — fast for the small associativities real caches use (4–16
/// ways).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Sets,
    /// Set `s` is `ways[s * assoc..(s + 1) * assoc]`: its set-relative
    /// tags in MRU→LRU order, [`Tag::EMPTY`] in the ways not yet filled.
    ways: Vec<u64>,
    stats: CacheStats,
}

impl Cache {
    /// Build an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let sets = Sets::new(config);
        Self {
            config,
            sets,
            ways: vec![u64::EMPTY; config.num_sets() * config.assoc],
            stats: CacheStats::default(),
        }
    }

    /// A cache holding `ways` (laid out as [`Cache::ways`]) with counters
    /// `stats` — how a [`crate::CacheBank`] member is split out.
    pub(crate) fn from_parts(config: CacheConfig, ways: Vec<u64>, stats: CacheStats) -> Self {
        debug_assert_eq!(ways.len(), config.num_sets() * config.assoc);
        Self {
            config,
            sets: Sets::new(config),
            ways,
            stats,
        }
    }

    /// Geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Counters so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Drop all cached lines and counters.
    pub fn flush(&mut self) {
        self.ways.fill(u64::EMPTY);
        self.stats = CacheStats::default();
    }

    /// Touch one byte address; returns whether the containing line was
    /// resident. On a miss the line is installed, evicting the set's LRU
    /// line if full.
    pub fn access(&mut self, addr: u64) -> AccessResult {
        self.access_line(self.sets.lines(addr, 1).0)
    }

    /// [`Cache::access`] for a caller that already holds the line number
    /// (in *this* cache's line-size units). The hierarchy's range walks use
    /// this to probe once per line without re-deriving the line from a byte
    /// address at every level.
    pub fn access_line(&mut self, line: u64) -> AccessResult {
        let (set, tag) = self.sets.locate(line);
        let assoc = self.config.assoc;
        if touch(&mut self.ways[set * assoc..(set + 1) * assoc], tag) {
            self.stats.hits += 1;
            AccessResult::Hit
        } else {
            self.stats.misses += 1;
            AccessResult::Miss
        }
    }

    /// Count a hit on a line the caller has *proven* is at the MRU position
    /// of its set (it was the target of the immediately preceding access).
    /// A full probe would find it at position 0 and move nothing, so the
    /// only state change is the hit counter — which this records.
    pub(crate) fn record_mru_hit(&mut self) {
        self.stats.hits += 1;
    }

    /// Touch `len` consecutive bytes starting at `addr`; returns the number
    /// of line misses. This is the bulk interface the spmm cost model uses
    /// to charge a whole row read in one call.
    pub fn access_range(&mut self, addr: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let (first, last) = self.sets.lines(addr, len);
        let mut misses = 0;
        for line in first..=last {
            if self.access_line(line) == AccessResult::Miss {
                misses += 1;
            }
        }
        misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_size: 64,
            assoc: 2,
        })
    }

    #[test]
    fn first_touch_misses_second_hits() {
        let mut c = tiny();
        assert_eq!(c.access(0), AccessResult::Miss);
        assert_eq!(c.access(8), AccessResult::Hit); // same line
        assert_eq!(c.access(64), AccessResult::Miss); // next line
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // three lines mapping to set 0: line numbers 0, 4, 8 (4 sets)
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a);
        c.access(b);
        c.access(a); // a is MRU, b is LRU
        c.access(d); // evicts b
        assert_eq!(c.access(a), AccessResult::Hit);
        assert_eq!(c.access(b), AccessResult::Miss);
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = tiny();
        for line in 0..4u64 {
            assert_eq!(c.access(line * 64), AccessResult::Miss);
        }
        for line in 0..4u64 {
            assert_eq!(c.access(line * 64), AccessResult::Hit);
        }
    }

    #[test]
    fn access_range_counts_line_misses() {
        let mut c = tiny();
        // 130 bytes spanning 3 lines
        assert_eq!(c.access_range(0, 130), 3);
        assert_eq!(c.access_range(0, 130), 0);
        assert_eq!(c.access_range(0, 0), 0);
    }

    #[test]
    fn flush_forgets_everything() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert_eq!(c.access(0), AccessResult::Miss);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn hit_rate_math() {
        let mut c = tiny();
        assert_eq!(c.stats().hit_rate(), 0.0);
        c.access(0);
        c.access(0);
        c.access(0);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = tiny(); // 8 lines total
                            // stream over 64 distinct lines twice: everything misses both times
        for _ in 0..2 {
            for line in 0..64u64 {
                c.access(line * 64 * 5); // *5 scatters across sets (odd stride)
            }
        }
        assert!(c.stats().hit_rate() < 0.2);
    }

    #[test]
    fn small_working_set_hits_after_warmup() {
        let mut c = tiny();
        for _ in 0..100 {
            for line in 0..4u64 {
                c.access(line * 64);
            }
        }
        assert!(c.stats().hit_rate() > 0.95);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_line_size() {
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_size: 48,
            assoc: 2,
        });
    }

    #[test]
    fn locate_divides_exactly() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for num_sets in [1usize, 3, 4, 20, 64, 640, 12_288, 1 << 20] {
            let sets = Sets::new(CacheConfig {
                size_bytes: num_sets * 64 * 2,
                line_size: 64,
                assoc: 2,
            });
            let n = num_sets as u64;
            // the last line whose tag fits a u32
            let top = n * (u64::from(u32::MAX) - 1);
            for k in 0..2_500u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // both ends of the u32 tag range, multiples of the set
                // count and their neighbours, random lines in between, and
                // lines near the top of the u64 range
                let line = match k % 5 {
                    0 => x % (top + 1),
                    1 => top - x % 1_000,
                    2 => (x % 1_000) * n,
                    3 => ((x % 1_000) * n).saturating_sub(1),
                    _ => u64::MAX - 1 - x % 1_000,
                };
                let want = ((line % n) as usize, line / n);
                assert_eq!(sets.locate::<u64>(line), want, "{line} / {n}");
                if line <= top {
                    assert_eq!(sets.locate::<u32>(line), (want.0, want.1 as u32));
                }
            }
        }
    }

    #[test]
    fn lines_across_the_address_space_do_not_alias() {
        // 2 sets of 64 B lines, like the CPU L2 of a 1/256 platform: B
        // lines start at 2^34, and lines 2^32 apart share a set
        let mut c = Cache::new(CacheConfig {
            size_bytes: 256,
            line_size: 64,
            assoc: 2,
        });
        let lines = [0u64, 1 << 34, (1 << 34) + (1 << 33), 1 << 57];
        for &l in &lines {
            assert_eq!(c.access_line(l), AccessResult::Miss);
        }
        assert_eq!(c.access_line(1 << 57), AccessResult::Hit);
        assert_eq!(c.access_line(0), AccessResult::Miss);
    }

    #[test]
    fn fully_associative_degenerates_to_one_set() {
        let c = Cache::new(CacheConfig {
            size_bytes: 512,
            line_size: 64,
            assoc: 8,
        });
        assert_eq!(c.config().num_sets(), 1);
    }
}
