//! Three-level inclusive cache hierarchy with per-level latencies.

use crate::cache::{AccessResult, Cache, CacheConfig};

/// Geometry and latency of an L1/L2/L3 stack plus memory.
///
/// Latencies are in nanoseconds per *line* fill at that level; an access
/// that hits L1 costs `l1_ns`, one that misses to memory costs
/// `l1_ns + l2_ns + l3_ns + mem_ns` (the traversal accumulates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyConfig {
    pub l1: CacheConfig,
    pub l2: CacheConfig,
    pub l3: CacheConfig,
    pub l1_ns: f64,
    pub l2_ns: f64,
    pub l3_ns: f64,
    pub mem_ns: f64,
    /// Latency multiplier for the 2nd and later lines of one
    /// `access_range` call: consecutive-line streams trigger the hardware
    /// prefetchers, which overlap fills with consumption. 1.0 disables the
    /// effect (every line pays full latency).
    pub stream_discount: f64,
}

impl HierarchyConfig {
    /// The paper's Intel i7-980 (Westmere, §II-B): 32 KB L1d per core,
    /// 256 KB L2 per core, 12 MB shared L3. Latencies are the usual
    /// Westmere figures (≈4 / 10 / 40 cycles at 3.4 GHz, ≈65 ns DRAM).
    pub fn i7_980() -> Self {
        Self {
            l1: CacheConfig {
                size_bytes: 32 * 1024,
                line_size: 64,
                assoc: 8,
            },
            l2: CacheConfig {
                size_bytes: 256 * 1024,
                line_size: 64,
                assoc: 8,
            },
            l3: CacheConfig {
                size_bytes: 12 * 1024 * 1024,
                line_size: 64,
                assoc: 16,
            },
            l1_ns: 1.2,
            l2_ns: 3.0,
            l3_ns: 12.0,
            mem_ns: 65.0,
            stream_discount: 0.2,
        }
    }
}

/// Aggregate statistics for the stack.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HierarchyStats {
    pub l1_hits: u64,
    pub l2_hits: u64,
    pub l3_hits: u64,
    pub mem_accesses: u64,
    /// Total simulated nanoseconds spent in memory accesses.
    pub total_ns: f64,
}

impl HierarchyStats {
    /// Total line-granular accesses observed at L1.
    pub fn accesses(&self) -> u64 {
        self.l1_hits + self.l2_hits + self.l3_hits + self.mem_accesses
    }

    /// Fraction of accesses served by any cache level (the paper's [6]
    /// cites last-level-cache hit ratio as the mechanism behind
    /// high-degree-on-CPU placement; this is the observable for it).
    pub fn cache_hit_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            1.0 - self.mem_accesses as f64 / a as f64
        }
    }
}

/// L1→L2→L3→memory stack. Lines are installed at every level on the way
/// back (inclusive fill, no write-back modelling — spmm traffic is read
/// dominated and the cost model only needs read latency).
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    stats: HierarchyStats,
    /// L1 line number of the most recent probe (`NO_LINE` when none). That
    /// line is by construction at the MRU position of its L1 set, so a
    /// repeat touch can be answered as an L1 hit without walking the set —
    /// the last-line filter of the streaming fast path.
    last_line: u64,
    l1_shift: u32,
}

/// `last_line` sentinel: no byte address shifts down to this line number.
const NO_LINE: u64 = u64::MAX;

impl MemoryHierarchy {
    pub fn new(config: HierarchyConfig) -> Self {
        Self {
            config,
            l1: Cache::new(config.l1),
            l2: Cache::new(config.l2),
            l3: Cache::new(config.l3),
            stats: HierarchyStats::default(),
            last_line: NO_LINE,
            l1_shift: config.l1.line_size.trailing_zeros(),
        }
    }

    /// The i7-980 preset.
    pub fn i7_980() -> Self {
        Self::new(HierarchyConfig::i7_980())
    }

    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Forget all cached lines and counters.
    pub fn flush(&mut self) {
        self.l1.flush();
        self.l2.flush();
        self.l3.flush();
        self.stats = HierarchyStats::default();
        self.last_line = NO_LINE;
    }

    /// Walk one L1 line through the level chain: updates the per-level hit
    /// counters and the last-line filter and returns the full
    /// (undiscounted) traversal cost — but does *not* charge `total_ns`;
    /// the caller charges exactly what it decides the access costs (full
    /// price, or the stream discount).
    #[inline]
    fn probe_line(&mut self, line: u64) -> f64 {
        if line == self.last_line {
            // proven MRU of its L1 set: the full probe would hit at
            // position 0 and rotate nothing
            self.l1.record_mru_hit();
            self.stats.l1_hits += 1;
            return self.config.l1_ns;
        }
        self.last_line = line;
        let c = &self.config;
        let mut ns = c.l1_ns;
        if self.l1.access_line(line) == AccessResult::Hit {
            self.stats.l1_hits += 1;
        } else {
            let addr = line << self.l1_shift;
            ns += c.l2_ns;
            if self.l2.access(addr) == AccessResult::Hit {
                self.stats.l2_hits += 1;
            } else {
                ns += c.l3_ns;
                if self.l3.access(addr) == AccessResult::Hit {
                    self.stats.l3_hits += 1;
                } else {
                    ns += c.mem_ns;
                    self.stats.mem_accesses += 1;
                }
            }
        }
        ns
    }

    /// Touch one address; returns the nanoseconds this access costs.
    pub fn access(&mut self, addr: u64) -> f64 {
        let ns = self.probe_line(addr >> self.l1_shift);
        self.stats.total_ns += ns;
        ns
    }

    /// Touch `len` consecutive bytes at line granularity; returns total
    /// nanoseconds. One probe per distinct line, so sequential scans cost
    /// `ceil(len / line)` probes — the streaming behaviour the CPU kernel
    /// model relies on. The first line pays full latency; later lines of
    /// the same call are prefetched continuations and are charged
    /// `cost × stream_discount`, in both the returned time and `total_ns`
    /// (stats are written once per line with the charged cost — there is no
    /// post-hoc correction).
    ///
    /// This is the *reference* walk: one `probe_line` per line, nothing
    /// hoisted. [`MemoryHierarchy::access_stream`] is the fast path and is
    /// bit-identical to this by the equivalence suite.
    pub fn access_range(&mut self, addr: u64, len: usize) -> f64 {
        if len == 0 {
            return 0.0;
        }
        let first = addr >> self.l1_shift;
        let last = (addr + len as u64 - 1) >> self.l1_shift;
        let mut ns = 0.0;
        for l in first..=last {
            let cost = self.probe_line(l);
            let charged = if l == first {
                cost
            } else {
                cost * self.config.stream_discount
            };
            ns += charged;
            self.stats.total_ns += charged;
        }
        ns
    }

    /// Fast-path range walk: semantically identical to
    /// [`MemoryHierarchy::access_range`] (bit-identical returned ns and
    /// [`HierarchyStats`]) but built for the simulator's hot loop:
    ///
    /// * bounds and config are computed once, not re-derived per line;
    /// * the last-line (MRU) filter short-circuits only the first line —
    ///   inside one call consecutive lines are distinct by construction,
    ///   so the per-line filter check is hoisted out of the loop entirely;
    /// * L1 probes go straight to the set (`Cache::access_line`), and the
    ///   L2/L3 chain is only entered on an L1 miss;
    /// * per-level hit counters accumulate in locals and are flushed to
    ///   the stats struct once per call (integer adds — order-free), while
    ///   `total_ns` is charged per line in walk order so the float sum
    ///   matches the reference walk exactly.
    pub fn access_stream(&mut self, addr: u64, len: usize) -> f64 {
        if len == 0 {
            return 0.0;
        }
        let first = addr >> self.l1_shift;
        let last = (addr + len as u64 - 1) >> self.l1_shift;
        let HierarchyConfig {
            l1_ns,
            l2_ns,
            l3_ns,
            mem_ns,
            stream_discount,
            ..
        } = self.config;
        let l1_shift = self.l1_shift;
        let mut l1h = 0u64;
        let mut lower = LowerHits::default();
        let mut ns = 0.0f64;
        let mut total_ns = self.stats.total_ns;
        // First line: full price, and the only line the MRU filter can
        // apply to (lines within the walk are strictly increasing).
        let cost = if first == self.last_line {
            self.l1.record_mru_hit();
            l1h += 1;
            l1_ns
        } else {
            self.last_line = first;
            if self.l1.access_line(first) == AccessResult::Hit {
                l1h += 1;
                l1_ns
            } else {
                self.miss_chain(first << l1_shift, l1_ns + l2_ns, l3_ns, mem_ns, &mut lower)
            }
        };
        ns += cost;
        total_ns += cost;
        if first < last {
            for line in first + 1..=last {
                let cost = if self.l1.access_line(line) == AccessResult::Hit {
                    l1h += 1;
                    l1_ns
                } else {
                    self.miss_chain(line << l1_shift, l1_ns + l2_ns, l3_ns, mem_ns, &mut lower)
                };
                let charged = cost * stream_discount;
                ns += charged;
                total_ns += charged;
            }
            self.last_line = last;
        }
        self.stats.l1_hits += l1h;
        self.stats.l2_hits += lower.l2;
        self.stats.l3_hits += lower.l3;
        self.stats.mem_accesses += lower.mem;
        self.stats.total_ns = total_ns;
        ns
    }

    /// L2→L3→memory continuation of a probe that missed L1; returns the
    /// full traversal cost given `base = l1_ns + l2_ns` already owed.
    #[inline]
    fn miss_chain(
        &mut self,
        addr: u64,
        base: f64,
        l3_ns: f64,
        mem_ns: f64,
        hits: &mut LowerHits,
    ) -> f64 {
        let mut ns = base;
        if self.l2.access(addr) == AccessResult::Hit {
            hits.l2 += 1;
        } else {
            ns += l3_ns;
            if self.l3.access(addr) == AccessResult::Hit {
                hits.l3 += 1;
            } else {
                ns += mem_ns;
                hits.mem += 1;
            }
        }
        ns
    }
}

/// Local L2/L3/memory hit counters for one `access_stream` call, flushed
/// into [`HierarchyStats`] once per call.
#[derive(Default)]
struct LowerHits {
    l2: u64,
    l3: u64,
    mem: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemoryHierarchy {
        MemoryHierarchy::new(HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 256,
                line_size: 64,
                assoc: 2,
            },
            l2: CacheConfig {
                size_bytes: 1024,
                line_size: 64,
                assoc: 4,
            },
            l3: CacheConfig {
                size_bytes: 4096,
                line_size: 64,
                assoc: 4,
            },
            l1_ns: 1.0,
            l2_ns: 3.0,
            l3_ns: 10.0,
            mem_ns: 60.0,
            stream_discount: 1.0,
        })
    }

    #[test]
    fn cold_access_costs_full_traversal() {
        let mut h = small();
        let ns = h.access(0);
        assert_eq!(ns, 1.0 + 3.0 + 10.0 + 60.0);
        assert_eq!(h.stats().mem_accesses, 1);
    }

    #[test]
    fn warm_access_costs_l1() {
        let mut h = small();
        h.access(0);
        let ns = h.access(32);
        assert_eq!(ns, 1.0);
        assert_eq!(h.stats().l1_hits, 1);
    }

    #[test]
    fn l1_evicted_line_hits_l2() {
        let mut h = small();
        // L1: 2 sets x 2 ways. Fill set 0 with lines 0, 2, 4 (stride 2 lines)
        h.access(0);
        h.access(2 * 64);
        h.access(4 * 64); // evicts line 0 from L1, still in L2
        let ns = h.access(0);
        assert_eq!(ns, 1.0 + 3.0);
        assert_eq!(h.stats().l2_hits, 1);
    }

    #[test]
    fn streaming_range_costs_per_line() {
        let mut h = small();
        let ns = h.access_range(0, 256); // 4 cold lines
        assert_eq!(ns, 4.0 * 74.0);
        let ns2 = h.access_range(0, 256); // all in L1
        assert_eq!(ns2, 4.0 * 1.0);
    }

    #[test]
    fn hit_rate_reflects_reuse() {
        let mut h = small();
        for _ in 0..50 {
            h.access_range(0, 128);
        }
        assert!(h.stats().cache_hit_rate() > 0.9);
        h.flush();
        // stream a huge range once: every line misses
        h.access_range(0, 64 * 1024);
        assert_eq!(h.stats().cache_hit_rate(), 0.0);
    }

    #[test]
    fn total_ns_accumulates() {
        let mut h = small();
        h.access(0);
        h.access(0);
        assert_eq!(h.stats().total_ns, 74.0 + 1.0);
    }

    #[test]
    fn i7_preset_geometry() {
        let h = MemoryHierarchy::i7_980();
        assert_eq!(h.config().l3.size_bytes, 12 * 1024 * 1024);
        assert_eq!(h.config().l1.num_sets(), 64);
    }
}
