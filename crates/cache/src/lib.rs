//! Set-associative cache hierarchy simulator.
//!
//! Substrate for the CPU device model in `spmm-hetsim`. The paper's
//! architecture-awareness argument (§V-C) is that "the CPU is more
//! appropriate for multiplying dense matrices where it can use techniques
//! such as cache-blocking"; reproducing that requires a memory model in
//! which repeatedly touching the same few long B rows *hits* while
//! scattering across many short rows *misses*. This crate provides exactly
//! that: an LRU set-associative [`Cache`] and a three-level
//! [`MemoryHierarchy`] with per-level hit latencies, mirroring the paper's
//! i7-980 description (32 KB L1d, 256 KB L2 per core, 12 MB shared L3 —
//! §II-B). A [`CacheBank`] probes several same-geometry caches in lockstep
//! through the same set routine, for simulations that replay nested
//! sub-streams of one access stream.

pub mod bank;
pub mod cache;
pub mod hierarchy;

pub use bank::CacheBank;
pub use cache::{AccessResult, Cache, CacheConfig, CacheStats};
pub use hierarchy::{HierarchyConfig, HierarchyStats, MemoryHierarchy};
