//! Property-based invariants across the workspace.
//!
//! Driven by a seeded in-repo RNG rather than `proptest` so the suite runs
//! in offline environments; every case is deterministic per seed and the
//! failing seed is printed in the assertion message.

use hetero_spmm::prelude::*;
use spmm_rng::{Rng, StdRng};

/// A random square CSR matrix of order `n` with up to `max_nnz` duplicates
/// pushed through COO (duplicate coordinates collapse by summation).
fn random_csr_n(rng: &mut StdRng, n: usize, max_nnz: usize) -> CsrMatrix<f64> {
    let nnz = rng.gen_range(0..max_nnz);
    let mut coo = CooMatrix::new(n, n);
    for _ in 0..nnz {
        coo.push(
            rng.gen_range(0..n),
            rng.gen_range(0..n),
            rng.gen_range(-4.0..4.0),
        );
    }
    coo.to_csr().expect("in-bounds by construction")
}

/// A random square CSR matrix with order drawn from `2..max_n`.
fn random_csr(rng: &mut StdRng, max_n: usize, max_nnz: usize) -> CsrMatrix<f64> {
    let n = rng.gen_range(2..max_n);
    random_csr_n(rng, n, max_nnz)
}

#[test]
fn hh_cpu_matches_reference() {
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_csr(&mut rng, 60, 500);
        let mut ctx = HeteroContext::paper();
        let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        assert!(
            out.c.approx_eq(&expected, 1e-9, 1e-12),
            "seed {seed} diverged"
        );
    }
}

#[test]
fn rowrow_matches_dense_oracle() {
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let n = rng.gen_range(2..40);
        let a = random_csr_n(&mut rng, n, 300);
        let b = random_csr_n(&mut rng, n, 300);
        let c = reference::spmm_rowrow(&a, &b).unwrap();
        let dense = a.to_dense().matmul(&b.to_dense());
        assert!(
            c.to_dense().approx_eq(&dense, 1e-9, 1e-12),
            "seed {seed} diverged"
        );
    }
}

#[test]
fn transpose_is_involutive() {
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(200 + seed);
        let a = random_csr(&mut rng, 80, 600);
        assert_eq!(a.transpose().transpose(), a, "seed {seed}");
    }
}

#[test]
fn csr_csc_roundtrip() {
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(300 + seed);
        let a = random_csr(&mut rng, 80, 600);
        assert_eq!(a.to_csc().to_csr(), a.clone(), "seed {seed}");
        assert_eq!(a.to_coo().to_csr().unwrap(), a, "seed {seed}");
    }
}

#[test]
fn transpose_reverses_products() {
    // (A·A)ᵀ = Aᵀ·Aᵀ
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(400 + seed);
        let a = random_csr(&mut rng, 30, 200);
        let left = reference::spmm_rowrow(&a, &a).unwrap().transpose();
        let t = a.transpose();
        let right = reference::spmm_rowrow(&t, &t).unwrap();
        assert!(left.approx_eq(&right, 1e-9, 1e-12), "seed {seed} diverged");
    }
}

#[test]
fn merge_agrees_with_serial_conversion() {
    // Phase IV over random overlapping claims: each claim multiplies a
    // random row subset of A (rows may repeat across claims) against a
    // random B-row mask (masks may overlap), and the oracle's per-row sums
    // must equal every partial product pushed as raw COO tuples and summed
    // by the serial conversion.
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(500 + seed);
        let a = random_csr_n(&mut rng, 50, 400);
        let b = random_csr_n(&mut rng, 50, 400);
        let nclaims = rng.gen_range(0usize..6);
        let rows: Vec<Vec<usize>> = (0..nclaims)
            .map(|_| (0..50).filter(|_| rng.gen_range(0..3u32) == 0).collect())
            .collect();
        let masks: Vec<Option<Vec<bool>>> = (0..nclaims)
            .map(|_| {
                (rng.gen_range(0..4u32) != 0)
                    .then(|| (0..50).map(|_| rng.gen_range(0..2u32) == 0).collect())
            })
            .collect();
        let claims: Vec<(&[usize], Option<&[bool]>)> = rows
            .iter()
            .zip(&masks)
            .map(|(r, m)| (r.as_slice(), m.as_deref()))
            .collect();

        let mut coo = CooMatrix::new(50, 50);
        for &(claim_rows, mask) in &claims {
            for &i in claim_rows {
                let (acols, avals) = a.row(i);
                for (&j, &aij) in acols.iter().zip(avals) {
                    if mask.is_some_and(|m| !m[j as usize]) {
                        continue;
                    }
                    let (bcols, bvals) = b.row(j as usize);
                    for (&c, &bjc) in bcols.iter().zip(bvals) {
                        coo.push(i, c as usize, aij * bjc);
                    }
                }
            }
        }
        let (merged, counts) = reference::spmm_claims(&a, &b, &claims).unwrap();
        assert_eq!(counts.len(), nclaims, "seed {seed}");
        assert!(
            merged.approx_eq(&coo.to_csr().unwrap(), 1e-9, 1e-12),
            "seed {seed} diverged"
        );
    }
}

#[test]
fn histogram_mass_is_conserved() {
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(600 + seed);
        let a = random_csr(&mut rng, 100, 800);
        let h = RowHistogram::from_matrix(&a);
        assert_eq!(h.nnz(), a.nnz(), "seed {seed}");
        assert_eq!(h.nrows(), a.nrows(), "seed {seed}");
        let total: usize = h.counts().iter().sum();
        assert_eq!(total, a.nrows(), "seed {seed}");
        // high-density counts are monotone non-increasing in the threshold
        for t in 0..h.max_row_size() {
            assert!(
                h.high_density_rows(t) >= h.high_density_rows(t + 1),
                "seed {seed}, threshold {t}"
            );
        }
    }
}

#[test]
fn generator_respects_shape_and_determinism() {
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(700 + seed);
        let n = rng.gen_range(16usize..400);
        let factor = rng.gen_range(1usize..6);
        let gen_seed = rng.gen_range(0u64..1_000);
        let nnz = n * factor;
        let cfg = GeneratorConfig::square_power_law(n, nnz, 2.5, gen_seed);
        let a: CsrMatrix<f64> = scale_free_matrix(&cfg);
        let b: CsrMatrix<f64> = scale_free_matrix(&cfg);
        assert_eq!(&a, &b, "seed {seed}: generator must be deterministic");
        assert_eq!(a.shape(), (n, n), "seed {seed}");
        for r in 0..a.nrows() {
            let (cols, _) = a.row(r);
            assert!(
                cols.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: row {r} not strictly sorted"
            );
        }
    }
}

#[test]
fn simulated_times_are_finite_and_positive() {
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(800 + seed);
        let a = random_csr(&mut rng, 50, 400);
        if a.nnz() == 0 {
            continue;
        }
        let mut ctx = HeteroContext::paper();
        let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
        assert!(out.total_ns().is_finite(), "seed {seed}");
        assert!(out.total_ns() > 0.0, "seed {seed}");
        for w in out.profile.walls() {
            assert!(w.is_finite() && w >= 0.0, "seed {seed}");
        }
    }
}

#[test]
fn spmv_distributes_over_product() {
    // (A·A)·x == A·(A·x)
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(900 + seed);
        let a = random_csr(&mut rng, 30, 250);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (i % 7) as f64 - 3.0).collect();
        let c = reference::spmm_rowrow(&a, &a).unwrap();
        let lhs = reference::spmv(&c, &x).unwrap();
        let inner = reference::spmv(&a, &x).unwrap();
        let rhs = reference::spmv(&a, &inner).unwrap();
        for (l, r) in lhs.iter().zip(&rhs) {
            assert!(
                (l - r).abs() <= 1e-8 + 1e-8 * r.abs(),
                "seed {seed} diverged"
            );
        }
    }
}
