//! The shared matrix registry: loaded operands keyed by content hash.
//!
//! Every matrix entering the service is hashed over its exact stored bits
//! ([`CsrMatrix::content_hash`]); the hash is the identity. Loading the
//! same content twice — two sessions loading the same catalog clone, one
//! trace replayed twice — dedups to one `Arc`, which also means the
//! self-product fast paths in the engine (keyed on pointer identity) fire
//! for every `A = B` request, exactly as they do for a cold single-shot
//! run that passes the same reference twice. A key hit is only a dedup
//! once the two matrices compare bit-equal ([`CsrMatrix::bit_eq`]): a
//! 64-bit hash can collide, and a collision must fail the load rather than
//! silently alias two different operands.
//!
//! Entries carry serving metadata on top of the content: an optional
//! human alias (`"wiki-Vote"`), the load *spec* (dataset + scale, or
//! generator parameters) so a warm re-load can skip regeneration outright,
//! and the default platform scale multiplies should run at.
//!
//! Eviction is LRU under a byte cap. Evicting never invalidates in-flight
//! requests (they hold `Arc` clones); the service layer purges dependent
//! artifact-cache entries for every key the registry reports evicted.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use spmm_sparse::CsrMatrix;

use super::service::ServeError;

/// Content hash identifying a registered matrix.
pub type MatrixKey = u64;

/// Counters exposed by [`MatrixRegistry::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    pub entries: usize,
    pub bytes: usize,
    pub hits: u64,
    pub misses: u64,
    pub dedup_hits: u64,
    pub spec_hits: u64,
    pub evictions: u64,
}

#[derive(Debug)]
struct Entry {
    matrix: Arc<CsrMatrix<f64>>,
    bytes: usize,
    last_used: u64,
    default_scale: usize,
    alias: Option<String>,
    spec: Option<String>,
}

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<MatrixKey, Entry>,
    aliases: HashMap<String, MatrixKey>,
    specs: HashMap<String, MatrixKey>,
    tick: u64,
    bytes: usize,
    hits: u64,
    misses: u64,
    dedup_hits: u64,
    spec_hits: u64,
    evictions: u64,
}

/// Outcome of one [`MatrixRegistry::insert`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InsertOutcome {
    pub key: MatrixKey,
    /// The content was already registered (the new copy was dropped).
    pub dedup: bool,
    /// Keys evicted to make room — the caller must purge dependent caches.
    pub evicted: Vec<MatrixKey>,
}

/// Thread-safe content-addressed matrix store with LRU eviction.
#[derive(Debug)]
pub struct MatrixRegistry {
    inner: Mutex<Inner>,
    cap_bytes: usize,
}

impl MatrixRegistry {
    /// Registry bounded to `cap_bytes` of matrix storage (`usize::MAX` for
    /// unbounded).
    pub fn new(cap_bytes: usize) -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            cap_bytes,
        }
    }

    /// Register a matrix. Hashes the content; if it is already present the
    /// new copy is dropped (dedup) and metadata is refreshed. Evicts LRU
    /// entries if the cap is exceeded — the entry just inserted is never
    /// evicted, so a single oversized matrix still serves. A key already
    /// held by a *different* matrix is a [`ServeError::HashCollision`], and
    /// the registry is left as it was.
    pub fn insert(
        &self,
        matrix: CsrMatrix<f64>,
        alias: Option<&str>,
        spec: Option<&str>,
        default_scale: usize,
    ) -> Result<InsertOutcome, ServeError> {
        self.insert_keyed(matrix.content_hash(), matrix, alias, spec, default_scale)
    }

    /// [`Self::insert`] under a given key (tests force collisions here).
    fn insert_keyed(
        &self,
        key: MatrixKey,
        matrix: CsrMatrix<f64>,
        alias: Option<&str>,
        spec: Option<&str>,
        default_scale: usize,
    ) -> Result<InsertOutcome, ServeError> {
        let bytes = matrix.byte_size();
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let dedup = match inner.entries.get_mut(&key) {
            Some(entry) if !entry.matrix.bit_eq(&matrix) => {
                return Err(ServeError::HashCollision(key));
            }
            Some(entry) => {
                entry.last_used = tick;
                entry.default_scale = default_scale;
                if let Some(a) = alias {
                    entry.alias = Some(a.to_string());
                }
                if let Some(s) = spec {
                    entry.spec = Some(s.to_string());
                }
                inner.dedup_hits += 1;
                true
            }
            None => {
                inner.entries.insert(
                    key,
                    Entry {
                        matrix: Arc::new(matrix),
                        bytes,
                        last_used: tick,
                        default_scale,
                        alias: alias.map(str::to_string),
                        spec: spec.map(str::to_string),
                    },
                );
                inner.bytes += bytes;
                false
            }
        };
        if let Some(a) = alias {
            inner.aliases.insert(a.to_string(), key);
        }
        if let Some(s) = spec {
            inner.specs.insert(s.to_string(), key);
        }
        let evicted = self.enforce_cap(&mut inner, key);
        Ok(InsertOutcome {
            key,
            dedup,
            evicted,
        })
    }

    /// The matrix and its default platform scale, touching LRU recency and
    /// the hit/miss counters.
    pub fn get(&self, key: MatrixKey) -> Option<(Arc<CsrMatrix<f64>>, usize)> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&key) {
            Some(entry) => {
                entry.last_used = tick;
                let out = (entry.matrix.clone(), entry.default_scale);
                inner.hits += 1;
                Some(out)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Key for a previously registered load spec (dataset + scale or
    /// generator parameters) — the warm-registry shortcut that lets a
    /// repeated `load` request skip regenerating and rehashing the matrix.
    pub fn lookup_spec(&self, spec: &str) -> Option<MatrixKey> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        let key = inner.specs.get(spec).copied()?;
        // a spec can outlive its entry if the entry was evicted
        let entry = inner.entries.get_mut(&key)?;
        entry.last_used = tick;
        inner.spec_hits += 1;
        Some(key)
    }

    /// Resolve a request token — an alias or a `0x…` key — to a key,
    /// without touching recency.
    pub fn resolve(&self, token: &str) -> Option<MatrixKey> {
        let inner = self.inner.lock().unwrap();
        if let Some(&key) = inner.aliases.get(token) {
            return inner.entries.contains_key(&key).then_some(key);
        }
        let key = super::json::parse_hex64(token)?;
        inner.entries.contains_key(&key).then_some(key)
    }

    /// nnz of a registered matrix without counting a hit (the micro-batch
    /// partitioner peeks sizes before admission).
    pub fn peek_nnz(&self, key: MatrixKey) -> Option<usize> {
        let inner = self.inner.lock().unwrap();
        inner.entries.get(&key).map(|e| e.matrix.nnz())
    }

    /// Current counters.
    pub fn stats(&self) -> RegistryStats {
        let inner = self.inner.lock().unwrap();
        RegistryStats {
            entries: inner.entries.len(),
            bytes: inner.bytes,
            hits: inner.hits,
            misses: inner.misses,
            dedup_hits: inner.dedup_hits,
            spec_hits: inner.spec_hits,
            evictions: inner.evictions,
        }
    }

    fn enforce_cap(&self, inner: &mut Inner, keep: MatrixKey) -> Vec<MatrixKey> {
        let mut evicted = Vec::new();
        while inner.bytes > self.cap_bytes && inner.entries.len() > 1 {
            let Some((&victim, _)) = inner
                .entries
                .iter()
                .filter(|(&k, _)| k != keep)
                .min_by_key(|(_, e)| e.last_used)
            else {
                break;
            };
            let entry = inner.entries.remove(&victim).expect("victim exists");
            inner.bytes -= entry.bytes;
            inner.evictions += 1;
            inner.aliases.retain(|_, &mut k| k != victim);
            inner.specs.retain(|_, &mut k| k != victim);
            evicted.push(victim);
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_scalefree::{scale_free_matrix, GeneratorConfig};

    fn matrix(seed: u64) -> CsrMatrix<f64> {
        scale_free_matrix(&GeneratorConfig::square_power_law(200, 1_000, 2.4, seed))
    }

    #[test]
    fn content_dedup_returns_one_key_and_one_arc() {
        let reg = MatrixRegistry::new(usize::MAX);
        let first = reg.insert(matrix(1), Some("m1"), None, 1).unwrap();
        let second = reg.insert(matrix(1), Some("other-name"), None, 1).unwrap();
        assert!(!first.dedup);
        assert!(second.dedup);
        assert_eq!(first.key, second.key);
        assert_eq!(reg.stats().entries, 1);
        // both aliases resolve to the shared entry
        assert_eq!(reg.resolve("m1"), Some(first.key));
        assert_eq!(reg.resolve("other-name"), Some(first.key));
        // the two handles share one allocation → ptr-identity fast paths
        let (a, _) = reg.get(first.key).unwrap();
        let (b, _) = reg.get(second.key).unwrap();
        assert!(std::ptr::eq(&*a, &*b));
    }

    #[test]
    fn resolve_accepts_hex_keys() {
        let reg = MatrixRegistry::new(usize::MAX);
        let key = reg.insert(matrix(2), None, None, 1).unwrap().key;
        assert_eq!(reg.resolve(&super::super::json::hex64(key)), Some(key));
        assert_eq!(reg.resolve("0xdeadbeef"), None);
        assert_eq!(reg.resolve("unknown"), None);
    }

    #[test]
    fn spec_lookup_skips_regeneration() {
        let reg = MatrixRegistry::new(usize::MAX);
        assert_eq!(reg.lookup_spec("dataset:x:32"), None);
        let key = reg
            .insert(matrix(3), Some("x"), Some("dataset:x:32"), 4)
            .unwrap()
            .key;
        assert_eq!(reg.lookup_spec("dataset:x:32"), Some(key));
        assert!(reg.stats().spec_hits >= 1);
    }

    #[test]
    fn lru_eviction_respects_cap_and_reports_victims() {
        let (m1, m2, m3) = (matrix(10), matrix(11), matrix(12));
        // fits any two of the three, never all three
        let cap = m1.byte_size() + m3.byte_size() + m2.byte_size() / 2;
        let reg = MatrixRegistry::new(cap);
        let k1 = reg.insert(m1, Some("m1"), Some("s1"), 1).unwrap().key;
        let k2 = reg.insert(m2, Some("m2"), None, 1).unwrap().key;
        // touch k1 so k2 is the LRU victim when m3 arrives
        reg.get(k1).unwrap();
        let out = reg.insert(m3, Some("m3"), None, 1).unwrap();
        assert_eq!(out.evicted, vec![k2]);
        assert!(reg.get(k2).is_none());
        assert!(reg.get(k1).is_some());
        assert!(reg.resolve("m2").is_none(), "alias must die with the entry");
        assert_eq!(reg.lookup_spec("s1"), Some(k1));
        let stats = reg.stats();
        assert_eq!(stats.evictions, 1);
        assert!(stats.bytes <= cap);
    }

    #[test]
    fn oversized_single_entry_still_serves() {
        let reg = MatrixRegistry::new(8);
        let key = reg.insert(matrix(20), None, None, 1).unwrap().key;
        assert!(reg.get(key).is_some(), "newest entry is never evicted");
    }

    #[test]
    fn colliding_key_is_an_error_not_an_alias() {
        let reg = MatrixRegistry::new(usize::MAX);
        let (m1, m2) = (matrix(30), matrix(31));
        let key = 0x5eed;
        let first = reg.insert_keyed(key, m1.clone(), Some("m1"), Some("s1"), 1);
        assert!(!first.unwrap().dedup);
        // a different matrix under the same key is refused, and touches
        // neither the entry nor the alias and spec tables
        let clash = reg.insert_keyed(key, m2, Some("m2"), Some("s2"), 7);
        assert_eq!(clash, Err(ServeError::HashCollision(key)));
        assert_eq!(reg.resolve("m2"), None);
        assert_eq!(reg.lookup_spec("s2"), None);
        let (held, scale) = reg.get(key).unwrap();
        assert!(held.bit_eq(&m1));
        assert_eq!(scale, 1);
        let stats = reg.stats();
        assert_eq!((stats.entries, stats.dedup_hits), (1, 0));
        // the same matrix under that key still dedups
        assert!(reg.insert_keyed(key, m1, None, None, 1).unwrap().dedup);
    }
}
