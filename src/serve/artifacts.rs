//! Per-`(A, B, policy, scale)` cache of Phase-I artifacts.
//!
//! One [`SpmmArtifacts`] (thresholds, Boolean masks, symbolic structures,
//! masked GPU width tables) is the entire non-numeric preprocessing of an
//! HH-CPU run — the empirical threshold search alone costs ~10 cost-model
//! dry runs. A warm request fetches the `Arc` and goes straight to the
//! phases, skipping Phase I's host-side work entirely while still being
//! charged its *simulated* nanoseconds, so the reply is bit-identical to a
//! cold single-shot run.
//!
//! The key includes the platform scale because thresholds are picked by
//! the device cost models: the same operands on a differently scaled
//! platform legitimately pick different thresholds.
//!
//! The key deliberately does *not* include the executor policy:
//! artifacts are pre-numeric (they record thresholds, masks, and width
//! tables, never engine scratch), and every executor produces the same
//! bits from them.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use spmm_core::{SpmmArtifacts, ThresholdPolicy};

use super::registry::MatrixKey;

/// Identity of one cached Phase-I computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArtifactKey {
    /// Content hash of `A`.
    pub a: MatrixKey,
    /// Content hash of `B`.
    pub b: MatrixKey,
    /// Threshold policy the plan was built under.
    pub policy: ThresholdPolicy,
    /// Platform scale ([`spmm_core::Platform::scaled`] argument).
    pub scale: usize,
    /// Shard count of the entry. Artifacts are shard-invariant — a
    /// sharded multiply executes the one global plan band by band — so
    /// [`SpmmService`](super::SpmmService) keys every request with 1 and
    /// a product has one entry whatever its shard count or byte cap.
    pub shards: usize,
}

/// Counters exposed by [`ArtifactCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArtifactStats {
    pub entries: usize,
    pub bytes: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub purged: u64,
}

#[derive(Debug)]
struct Entry {
    artifacts: Arc<SpmmArtifacts>,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    map: HashMap<ArtifactKey, Entry>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    purged: u64,
}

/// Thread-safe LRU cache of shared [`SpmmArtifacts`].
#[derive(Debug)]
pub struct ArtifactCache {
    inner: Mutex<Inner>,
    cap_bytes: usize,
}

impl ArtifactCache {
    /// Cache bounded to `cap_bytes` (`usize::MAX` for unbounded).
    pub fn new(cap_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            cap_bytes,
        }
    }

    /// Fetch, touching LRU recency and the hit/miss counters.
    pub fn get(&self, key: &ArtifactKey) -> Option<Arc<SpmmArtifacts>> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let out = entry.artifacts.clone();
                inner.hits += 1;
                Some(out)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) an entry, evicting LRU entries over the cap.
    /// The entry just inserted is never evicted.
    pub fn insert(&self, key: ArtifactKey, artifacts: Arc<SpmmArtifacts>) {
        let bytes = artifacts.byte_size();
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.map.insert(
            key,
            Entry {
                artifacts,
                bytes,
                last_used: tick,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        while inner.bytes > self.cap_bytes && inner.map.len() > 1 {
            let Some((&victim, _)) = inner
                .map
                .iter()
                .filter(|(&k, _)| k != key)
                .min_by_key(|(_, e)| e.last_used)
            else {
                break;
            };
            let entry = inner.map.remove(&victim).expect("victim exists");
            inner.bytes -= entry.bytes;
            inner.evictions += 1;
        }
    }

    /// Drop every entry whose `A` or `B` is `matrix` — called when the
    /// registry evicts a matrix, so artifacts can never outlive their
    /// operands' registration.
    pub fn purge_matrix(&self, matrix: MatrixKey) {
        let mut inner = self.inner.lock().unwrap();
        let victims: Vec<ArtifactKey> = inner
            .map
            .keys()
            .filter(|k| k.a == matrix || k.b == matrix)
            .copied()
            .collect();
        for key in victims {
            let entry = inner.map.remove(&key).expect("victim exists");
            inner.bytes -= entry.bytes;
            inner.purged += 1;
        }
    }

    /// Current counters.
    pub fn stats(&self) -> ArtifactStats {
        let inner = self.inner.lock().unwrap();
        ArtifactStats {
            entries: inner.map.len(),
            bytes: inner.bytes,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            purged: inner.purged,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_core::HeteroContext;
    use spmm_scalefree::{scale_free_matrix, GeneratorConfig};

    fn build(seed: u64) -> Arc<SpmmArtifacts> {
        let ctx = HeteroContext::paper().with_host_threads(1);
        let a = scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(150, 700, 2.5, seed));
        Arc::new(SpmmArtifacts::build(
            &ctx,
            &a,
            &a,
            ThresholdPolicy::default(),
        ))
    }

    fn key(a: MatrixKey, b: MatrixKey) -> ArtifactKey {
        ArtifactKey {
            a,
            b,
            policy: ThresholdPolicy::default(),
            scale: 1,
            shards: 1,
        }
    }

    #[test]
    fn hit_returns_the_same_arc() {
        let cache = ArtifactCache::new(usize::MAX);
        let art = build(1);
        cache.insert(key(1, 1), art.clone());
        let hit = cache.get(&key(1, 1)).unwrap();
        assert!(Arc::ptr_eq(&hit, &art));
        assert!(cache.get(&key(2, 2)).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn purge_matrix_drops_both_sides() {
        let cache = ArtifactCache::new(usize::MAX);
        cache.insert(key(1, 2), build(2));
        cache.insert(key(3, 1), build(3));
        cache.insert(key(4, 5), build(4));
        cache.purge_matrix(1);
        assert!(cache.get(&key(1, 2)).is_none());
        assert!(cache.get(&key(3, 1)).is_none());
        assert!(cache.get(&key(4, 5)).is_some());
        assert_eq!(cache.stats().purged, 2);
    }

    #[test]
    fn lru_eviction_under_cap() {
        let a1 = build(5);
        let cap = a1.byte_size() * 2 + 64;
        let cache = ArtifactCache::new(cap);
        cache.insert(key(1, 1), a1);
        cache.insert(key(2, 2), build(6));
        cache.get(&key(1, 1)).unwrap(); // key 2 becomes LRU
        cache.insert(key(3, 3), build(7));
        assert!(cache.get(&key(2, 2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(1, 1)).is_some());
        assert!(cache.get(&key(3, 3)).is_some());
        assert!(cache.stats().bytes <= cap);
        assert_eq!(cache.stats().evictions, 1);
    }
}
