//! Minimal data-parallel primitives built on scoped threads.
//!
//! The paper's CPU side runs the row-row kernel on 6 cores / 12 SMT threads
//! (§II-B) and Phase IV needs a parallel sort + scan (§III-D). This crate
//! provides the needed primitives without pulling in rayon: guided
//! (self-scheduling) loops, an ordered parallel map, an in-order committer,
//! and a disjoint-write slice. Everything is safe
//! code over `std::thread::scope` except [`DisjointSlice`], which carries
//! its disjointness obligation as an explicit `unsafe` contract.
//!
//! On a single-core host everything degrades gracefully to near-serial
//! execution — the *simulated* parallelism of the paper's platform lives in
//! `spmm-hetsim`, not here; these primitives only speed up wall-clock time
//! on real multicore hosts.

pub mod disjoint;
pub mod ordered;
pub mod pool;

pub use disjoint::DisjointSlice;
pub use ordered::OrderedCommitter;
pub use pool::ThreadPool;
