//! Synthetic scale-free matrix generators.
//!
//! [`scale_free_matrix`] is the workspace's stand-in for GTgraph (the
//! paper's reference \[3\]): a configuration-model generator that draws row
//! sizes from a truncated discrete power law and fills each row with
//! distinct uniformly random columns. As in GTgraph, the exponent cannot be
//! dialled exactly — "one has to specify the number of nonzeros … that
//! result in a particular α" (§V-D) — so [`GeneratorConfig::target_nnz`]
//! rescales the sampled sizes to hit a nonzero budget, and callers measure
//! the achieved α with [`crate::fit_power_law`], exactly as the paper does.
//!
//! [`rmat`] provides the R-MAT recursive generator (also part of GTgraph)
//! for graph-shaped workloads.

use spmm_rng::{Rng, StdRng};
use spmm_sparse::{ColIndex, CooMatrix, CsrMatrix, Scalar};

use crate::powerlaw::PowerLawSampler;

/// How row sizes are distributed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowSizeDistribution {
    /// Truncated discrete power law with the given exponent. Smaller α ⇒
    /// more scale-free (paper §V-D).
    PowerLaw { alpha: f64 },
    /// Nearly constant row size (uniform jitter of ±spread around the mean).
    /// Models the high-α, "not scale-free" matrices of Table I
    /// (roadNet-CA, cop20kA, p2p-Gnutella31).
    NearUniform { spread: usize },
    /// Real-matrix mixture: most rows from a power-law bulk (xmin = 1),
    /// plus a `hub_fraction` of rows drawn from the same-exponent tail
    /// starting at `hub_xmin_factor × mean` — the high-density rows the
    /// paper's Figure 5 shows for every scale-free matrix, which a pure
    /// power law with α ≳ 3.5 fails to produce at reduced row counts.
    BulkAndHubs {
        alpha: f64,
        hub_fraction: f64,
        hub_xmin_factor: f64,
    },
}

/// Configuration for [`scale_free_matrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Number of rows (and, for square matrices, columns).
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Nonzero budget: sampled row sizes are iteratively rescaled until the
    /// total lands within 2% of this.
    pub target_nnz: usize,
    /// Row-size law.
    pub distribution: RowSizeDistribution,
    /// RNG seed — all generation is deterministic given the config.
    pub seed: u64,
}

impl GeneratorConfig {
    /// Square scale-free matrix with a power-law row-size distribution.
    pub fn square_power_law(n: usize, target_nnz: usize, alpha: f64, seed: u64) -> Self {
        Self {
            nrows: n,
            ncols: n,
            target_nnz,
            distribution: RowSizeDistribution::PowerLaw { alpha },
            seed,
        }
    }

    /// Square matrix with near-uniform row sizes (the non-scale-free
    /// regime).
    pub fn square_near_uniform(n: usize, target_nnz: usize, spread: usize, seed: u64) -> Self {
        Self {
            nrows: n,
            ncols: n,
            target_nnz,
            distribution: RowSizeDistribution::NearUniform { spread },
            seed,
        }
    }
}

/// Generate a sparse matrix whose row sizes follow the configured
/// distribution. Values are uniform in `(0, 1]` so no products cancel.
pub fn scale_free_matrix<T: Scalar>(config: &GeneratorConfig) -> CsrMatrix<T> {
    assert!(config.nrows > 0 && config.ncols > 0, "empty shape");
    assert!(
        config.target_nnz <= config.nrows * config.ncols,
        "target_nnz exceeds capacity"
    );
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut sizes = sample_row_sizes(config, &mut rng);
    rescale_to_budget(&mut sizes, config.target_nnz, config.ncols);

    let mut indptr = Vec::with_capacity(config.nrows + 1);
    let mut indices: Vec<ColIndex> = Vec::with_capacity(config.target_nnz + config.nrows);
    let mut values: Vec<T> = Vec::with_capacity(config.target_nnz + config.nrows);
    indptr.push(0);
    let mut scratch: Vec<ColIndex> = Vec::new();
    for &size in &sizes {
        sample_distinct_columns(size, config.ncols, &mut rng, &mut scratch);
        scratch.sort_unstable();
        for &c in &scratch {
            indices.push(c);
            values.push(T::from_f64(rng.gen_range(0.0f64..1.0) + f64::MIN_POSITIVE));
        }
        indptr.push(indices.len());
    }
    CsrMatrix::from_parts_unchecked(config.nrows, config.ncols, indptr, indices, values)
}

/// Draw raw row sizes from the configured law.
fn sample_row_sizes(config: &GeneratorConfig, rng: &mut StdRng) -> Vec<usize> {
    let mean = (config.target_nnz as f64 / config.nrows as f64).max(1.0);
    match config.distribution {
        RowSizeDistribution::PowerLaw { alpha } => {
            // Cap the tail the way real scale-free matrices behave: the
            // densest row of webbase-1M holds ~4700 of 3.1M nonzeros
            // (≈ 2.7·√nnz). An uncapped truncated power law at reduced n
            // would otherwise produce rows holding several percent of all
            // nonzeros and a single warp-busting output row.
            let cap = ((4.0 * (config.target_nnz as f64).sqrt()) as usize).clamp(8, config.ncols);
            let sampler = PowerLawSampler::new(alpha, 1, cap);
            sampler.sample_n(rng, config.nrows)
        }
        RowSizeDistribution::NearUniform { spread } => {
            let base = mean.round() as isize;
            (0..config.nrows)
                .map(|_| {
                    let jitter = rng.gen_range(-(spread as isize)..=spread as isize);
                    (base + jitter).max(1) as usize
                })
                .collect()
        }
        RowSizeDistribution::BulkAndHubs {
            alpha,
            hub_fraction,
            hub_xmin_factor,
        } => {
            let cap = ((4.0 * (config.target_nnz as f64).sqrt()) as usize).clamp(8, config.ncols);
            let bulk = PowerLawSampler::new(alpha, 1, cap);
            let hub_xmin = ((mean * hub_xmin_factor) as usize).clamp(2, cap);
            let hubs = PowerLawSampler::new(alpha, hub_xmin, cap);
            (0..config.nrows)
                .map(|_| {
                    if rng.gen_f64() < hub_fraction {
                        hubs.sample(rng)
                    } else {
                        bulk.sample(rng)
                    }
                })
                .collect()
        }
    }
}

/// Multiply all sizes by a common factor (rounding, clamping to
/// `[1, ncols]`) until the total lands within 2% of the budget. Preserves
/// the *shape* of the distribution — which is what α measures — while
/// matching Table I's nnz column.
fn rescale_to_budget(sizes: &mut [usize], target: usize, ncols: usize) {
    for _ in 0..32 {
        let total: usize = sizes.iter().sum();
        if total == 0 {
            sizes.iter_mut().for_each(|s| *s = 1);
            continue;
        }
        let err = (total as f64 - target as f64).abs() / target as f64;
        if err <= 0.02 {
            return;
        }
        let factor = target as f64 / total as f64;
        for s in sizes.iter_mut() {
            *s = ((*s as f64 * factor).round() as usize).clamp(1, ncols);
        }
    }
}

/// Reservoir-free distinct column sampling: rejection from a fresh set for
/// sparse rows, Fisher–Yates over the full range when the row is dense
/// relative to `ncols`.
fn sample_distinct_columns(size: usize, ncols: usize, rng: &mut StdRng, out: &mut Vec<ColIndex>) {
    out.clear();
    let size = size.min(ncols);
    if size * 3 >= ncols {
        // dense row: partial Fisher–Yates
        let mut all: Vec<ColIndex> = (0..ncols as ColIndex).collect();
        for k in 0..size {
            let pick = rng.gen_range(k..ncols);
            all.swap(k, pick);
        }
        out.extend_from_slice(&all[..size]);
    } else {
        // sparse row: rejection sampling against a sorted scratch
        let mut seen = std::collections::HashSet::with_capacity(size * 2);
        while out.len() < size {
            let c = rng.gen_range(0..ncols) as ColIndex;
            if seen.insert(c) {
                out.push(c);
            }
        }
    }
}

/// R-MAT recursive matrix generator (Chakrabarti–Zhan–Faloutsos), the other
/// half of the GTgraph suite. `(a, b, c, d)` are the quadrant
/// probabilities; `a + b + c + d` must be ≈ 1. Duplicate coordinates are
/// merged by summation.
pub fn rmat<T: Scalar>(
    scale: u32,
    edges: usize,
    probs: (f64, f64, f64, f64),
    seed: u64,
) -> CsrMatrix<T> {
    let (a, b, c, d) = probs;
    assert!(
        (a + b + c + d - 1.0).abs() < 1e-9,
        "quadrant probabilities must sum to 1"
    );
    let n = 1usize << scale;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut coo = CooMatrix::with_capacity(n, n, edges);
    for _ in 0..edges {
        let (mut r, mut cidx) = (0usize, 0usize);
        let mut span = n / 2;
        while span >= 1 {
            let u: f64 = rng.gen_f64();
            if u < a {
                // top-left
            } else if u < a + b {
                cidx += span;
            } else if u < a + b + c {
                r += span;
            } else {
                r += span;
                cidx += span;
            }
            span /= 2;
        }
        coo.push(r, cidx, T::ONE);
    }
    coo.to_csr()
        .expect("rmat coordinates are in range by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::powerlaw::fit_power_law;
    use spmm_sparse::RowHistogram;

    #[test]
    fn generates_requested_shape_and_budget() {
        let cfg = GeneratorConfig::square_power_law(5_000, 25_000, 2.5, 11);
        let m: CsrMatrix<f64> = scale_free_matrix(&cfg);
        assert_eq!(m.shape(), (5_000, 5_000));
        let err = (m.nnz() as f64 - 25_000.0).abs() / 25_000.0;
        assert!(err < 0.05, "nnz {} too far from budget", m.nnz());
    }

    #[test]
    fn rows_are_sorted_and_unique() {
        let cfg = GeneratorConfig::square_power_law(1_000, 8_000, 2.2, 3);
        let m: CsrMatrix<f64> = scale_free_matrix(&cfg);
        for r in 0..m.nrows() {
            let (cols, _) = m.row(r);
            assert!(
                cols.windows(2).all(|w| w[0] < w[1]),
                "row {r} not sorted/unique"
            );
        }
    }

    #[test]
    fn power_law_rows_fit_back() {
        let cfg = GeneratorConfig::square_power_law(50_000, 250_000, 2.5, 5);
        let m: CsrMatrix<f64> = scale_free_matrix(&cfg);
        let fit = fit_power_law(&m.row_sizes()).unwrap();
        assert!(
            (fit.alpha - 2.5).abs() < 0.6,
            "generated alpha {} too far from 2.5",
            fit.alpha
        );
    }

    #[test]
    fn near_uniform_rows_have_tiny_spread() {
        let cfg = GeneratorConfig::square_near_uniform(10_000, 50_000, 1, 9);
        let m: CsrMatrix<f64> = scale_free_matrix(&cfg);
        let h = RowHistogram::from_matrix(&m);
        // sizes concentrated in a narrow band around the mean of 5
        assert!(h.max_row_size() <= 8);
        let fit = fit_power_law(&m.row_sizes()).unwrap();
        assert!(
            fit.alpha > 6.0,
            "near-uniform should fit a huge alpha, got {}",
            fit.alpha
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = GeneratorConfig::square_power_law(500, 2_000, 2.8, 77);
        let a: CsrMatrix<f64> = scale_free_matrix(&cfg);
        let b: CsrMatrix<f64> = scale_free_matrix(&cfg);
        assert_eq!(a, b);
        let cfg2 = GeneratorConfig { seed: 78, ..cfg };
        let c: CsrMatrix<f64> = scale_free_matrix(&cfg2);
        assert_ne!(a, c);
    }

    #[test]
    fn values_are_nonzero() {
        let cfg = GeneratorConfig::square_power_law(300, 1_500, 2.4, 1);
        let m: CsrMatrix<f64> = scale_free_matrix(&cfg);
        assert!(m.values().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn rectangular_shapes_supported() {
        let cfg = GeneratorConfig {
            nrows: 100,
            ncols: 400,
            target_nnz: 900,
            distribution: RowSizeDistribution::PowerLaw { alpha: 2.5 },
            seed: 2,
        };
        let m: CsrMatrix<f64> = scale_free_matrix(&cfg);
        assert_eq!(m.shape(), (100, 400));
        assert!(m.indices().iter().all(|&c| (c as usize) < 400));
    }

    #[test]
    fn rmat_shape_and_skew() {
        let m: CsrMatrix<f64> = rmat(10, 8_000, (0.57, 0.19, 0.19, 0.05), 42);
        assert_eq!(m.shape(), (1024, 1024));
        assert!(m.nnz() > 6_000, "most edges survive dedup");
        // R-MAT with skewed quadrants concentrates mass in low indices
        let top_quarter: usize = (0..256).map(|r| m.row_nnz(r)).sum();
        assert!(
            top_quarter as f64 > m.nnz() as f64 * 0.4,
            "expected skew toward low rows"
        );
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rmat_rejects_bad_probs() {
        let _: CsrMatrix<f64> = rmat(4, 10, (0.5, 0.5, 0.5, 0.5), 0);
    }

    #[test]
    #[should_panic(expected = "exceeds capacity")]
    fn budget_cannot_exceed_dense() {
        let cfg = GeneratorConfig::square_power_law(10, 200, 2.5, 0);
        let _: CsrMatrix<f64> = scale_free_matrix(&cfg);
    }
}
