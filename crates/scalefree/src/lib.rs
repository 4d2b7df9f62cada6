//! Scale-free workload substrate.
//!
//! The paper's entire thesis keys on the *row-size distribution* of the
//! input matrices: "a matrix exhibiting a scale-free nature has several rows
//! with very few nonzero elements and very few rows with a large number of
//! nonzero elements" (§I). This crate provides:
//!
//! * [`powerlaw`] — a discrete power-law sampler and the
//!   Clauset–Shalizi–Newman maximum-likelihood fitter (with KS-minimising
//!   `x_min` selection). The fitter is the offline equivalent of Alstott's
//!   `powerlaw` Python package which the paper uses to produce Table I's α
//!   column.
//! * [`generator`] — synthetic scale-free matrix generators: a
//!   configuration-model generator with power-law row sizes (the stand-in
//!   for GTgraph, the paper's reference \[3\]) and an R-MAT generator.
//! * [`catalog`] — clones of the paper's 12 Table I matrices, matched on
//!   (rows, nnz, α), with a scale knob so the full figure suite runs on
//!   modest hardware.

pub mod catalog;
pub mod generator;
pub mod powerlaw;

pub use catalog::{CatalogEntry, Dataset, CATALOG};
pub use generator::{rmat, scale_free_matrix, GeneratorConfig, RowSizeDistribution};
pub use powerlaw::{fit_power_law, PowerLawFit, PowerLawSampler};
