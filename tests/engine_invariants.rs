//! Property coverage for the reference engine: `row_products` +
//! `concat_row_blocks` against the serial `reference::spmm_rowrow` oracle
//! on the shapes the masked four-way split actually produces — rectangular
//! operands, all-empty rows, a single fully-dense row, and masks that
//! select no rows at all.
//!
//! Seeded in-repo RNG (no `proptest`) so the suite runs offline; every
//! case is deterministic per seed and the failing seed is printed.

use hetero_spmm::core::kernels::{row_products, rows_where, RowBlock};
use hetero_spmm::core::merge::concat_row_blocks;
use hetero_spmm::parallel::ThreadPool;
use hetero_spmm::prelude::*;
use spmm_rng::{Rng, StdRng};

/// A random rectangular CSR matrix with up to `max_nnz` entries pushed
/// through COO (duplicate coordinates collapse by summation).
fn random_csr(rng: &mut StdRng, nrows: usize, ncols: usize, max_nnz: usize) -> CsrMatrix<f64> {
    let nnz = rng.gen_range(0..max_nnz);
    let mut coo = CooMatrix::new(nrows, ncols);
    for _ in 0..nnz {
        coo.push(
            rng.gen_range(0..nrows),
            rng.gen_range(0..ncols),
            rng.gen_range(-4.0..4.0),
        );
    }
    coo.to_csr().unwrap()
}

/// Multiply all rows of `a` by `b` through the two-pass engine and
/// assemble the result from the single block.
fn engine_product(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, pool: &ThreadPool) -> CsrMatrix<f64> {
    let rows: Vec<usize> = (0..a.nrows()).collect();
    let block = row_products(a, b, &rows, None, pool);
    concat_row_blocks(&[block], (a.nrows(), b.ncols()), pool)
}

#[test]
fn engine_matches_reference_on_rectangular_products() {
    let pool = ThreadPool::new(4);
    for seed in 0..24 {
        let mut rng = StdRng::seed_from_u64(1_000 + seed);
        let m = rng.gen_range(1usize..80);
        let k = rng.gen_range(1usize..60);
        let n = rng.gen_range(1usize..70);
        let a = random_csr(&mut rng, m, k, 600);
        let b = random_csr(&mut rng, k, n, 600);
        let c = engine_product(&a, &b, &pool);
        let expected = reference::spmm_rowrow(&a, &b).unwrap();
        assert!(
            c.approx_eq(&expected, 1e-9, 1e-12),
            "seed {seed}: rectangular {m}x{k} * {k}x{n} diverged"
        );
    }
}

#[test]
fn engine_handles_all_empty_rows() {
    let pool = ThreadPool::new(2);
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(2_000 + seed);
        let n = rng.gen_range(1usize..50);
        let empty = CsrMatrix::<f64>::zeros(n, n);
        let b = random_csr(&mut rng, n, n, 300);
        // empty × B and B × empty are both all-zero
        for (lhs, rhs) in [(&empty, &b), (&b, &empty), (&empty, &empty)] {
            let c = engine_product(lhs, rhs, &pool);
            assert_eq!(c.shape(), (n, n), "seed {seed}");
            assert_eq!(c.nnz(), 0, "seed {seed}: product of empties must be empty");
        }
    }
}

#[test]
fn engine_handles_a_single_fully_dense_row() {
    let pool = ThreadPool::new(4);
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(3_000 + seed);
        let n = rng.gen_range(2usize..60);
        // one hub row with every column stored, the rest sparse
        let mut coo = CooMatrix::new(n, n);
        let hub = rng.gen_range(0..n);
        for c in 0..n {
            coo.push(hub, c, rng.gen_range(-2.0..2.0));
        }
        for _ in 0..n {
            coo.push(
                rng.gen_range(0..n),
                rng.gen_range(0..n),
                rng.gen_range(-2.0..2.0),
            );
        }
        let a = coo.to_csr().unwrap();
        let b = random_csr(&mut rng, n, n, 4 * n);
        let c = engine_product(&a, &b, &pool);
        let expected = reference::spmm_rowrow(&a, &b).unwrap();
        assert!(
            c.approx_eq(&expected, 1e-9, 1e-12),
            "seed {seed}: dense-hub product diverged"
        );
        // the hub row of C covers every column B touches
        let (hub_cols, _) = c.row(hub);
        let (exp_cols, _) = expected.row(hub);
        assert_eq!(hub_cols, exp_cols, "seed {seed}");
    }
}

#[test]
fn engine_handles_masks_selecting_zero_rows() {
    let pool = ThreadPool::new(2);
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(4_000 + seed);
        let n = rng.gen_range(1usize..50);
        let a = random_csr(&mut rng, n, n, 400);
        // row set empty: nothing requested, nothing produced
        let block = row_products(&a, &a, &[], None, &pool);
        assert_eq!(block.num_rows(), 0, "seed {seed}");
        assert_eq!(block.nnz(), 0, "seed {seed}");
        let c = concat_row_blocks(&[block], (n, n), &pool);
        assert_eq!(c.nnz(), 0, "seed {seed}");
        // B-mask all false: every requested row exists but is empty
        let no_b = vec![false; n];
        let rows: Vec<usize> = (0..n).collect();
        let block = row_products(&a, &a, &rows, Some(&no_b), &pool);
        assert_eq!(block.num_rows(), n, "seed {seed}");
        assert_eq!(block.nnz(), 0, "seed {seed}");
        let c = concat_row_blocks(&[block], (n, n), &pool);
        assert_eq!(c.shape(), (n, n), "seed {seed}");
        assert_eq!(c.nnz(), 0, "seed {seed}");
    }
}

#[test]
fn masked_four_way_split_reassembles_the_full_product() {
    let pool = ThreadPool::new(4);
    for seed in 0..12 {
        let mut rng = StdRng::seed_from_u64(5_000 + seed);
        let n = rng.gen_range(2usize..80);
        let a = random_csr(&mut rng, n, n, 900);
        // arbitrary row classification, including degenerate all/none splits
        let mask: Vec<bool> = match seed % 4 {
            0 => (0..n).map(|_| rng.gen_range(0usize..2) == 1).collect(),
            1 => vec![true; n],
            2 => vec![false; n],
            _ => (0..n).map(|i| a.row_nnz(i) >= 2).collect(),
        };
        let inv: Vec<bool> = mask.iter().map(|&m| !m).collect();
        let high = rows_where(&mask, true);
        let low = rows_where(&mask, false);
        let blocks: Vec<RowBlock<f64>> = vec![
            row_products(&a, &a, &high, Some(&mask), &pool),
            row_products(&a, &a, &high, Some(&inv), &pool),
            row_products(&a, &a, &low, Some(&mask), &pool),
            row_products(&a, &a, &low, Some(&inv), &pool),
        ];
        let c = concat_row_blocks(&blocks, (n, n), &pool);
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        assert!(
            c.approx_eq(&expected, 1e-9, 1e-12),
            "seed {seed}: four-way reassembly diverged"
        );
    }
}
