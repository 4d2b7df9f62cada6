//! Property coverage for the production executor
//! (`schedule::execute(.., ExecPolicy::Batched)`) against the serial
//! `reference::spmm_rowrow` product on the shapes the masked four-way
//! split actually produces — rectangular operands, all-empty rows, a
//! single fully-dense row, and masks that select no rows at all. Every
//! case runs as one unmasked claim, which must be bit-equal to
//! `spmm_rowrow` (both scatter in A-row visit order and drain columns
//! ascending), and as the four masked quadrant claims of a row split.
//!
//! Seeded in-repo RNG (no `proptest`) so the suite runs offline; every
//! case is deterministic per seed and the failing seed is printed.

use hetero_spmm::core::kernels::rows_where;
use hetero_spmm::core::schedule::{self, ClaimSchedule, ExecCounts, ScheduledClaim};
use hetero_spmm::hetsim::DeviceKind;
use hetero_spmm::parallel::ThreadPool;
use hetero_spmm::prelude::*;
use hetero_spmm::sparse::WorkspacePool;
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

fn random_mask(rng: &mut StdRng, n: usize) -> Vec<bool> {
    (0..n).map(|_| rng.gen_range(0usize..2) == 1).collect()
}

/// Run `claims` (devices alternating CPU/GPU) through the production
/// executor.
fn batched(
    a: &CsrMatrix<f64>,
    b: &CsrMatrix<f64>,
    claims: &[(&[usize], Option<&[bool]>)],
    pool: &ThreadPool,
) -> (CsrMatrix<f64>, ExecCounts) {
    let schedule = ClaimSchedule {
        claims: claims
            .iter()
            .enumerate()
            .map(|(k, &(rows, b_mask))| ScheduledClaim {
                device: if k % 2 == 0 {
                    DeviceKind::Cpu
                } else {
                    DeviceKind::Gpu
                },
                rows,
                b_mask,
                sim_ns: 1.0,
            })
            .collect(),
    };
    let shape = (a.nrows(), b.ncols());
    let ws = WorkspacePool::new();
    schedule::execute(a, b, &schedule, shape, pool, &ws, ExecPolicy::Batched)
}

/// `a × b` as one unmasked claim over every row: bit-equal to the serial
/// product, with one stored entry per output nonzero.
fn one_claim(
    a: &CsrMatrix<f64>,
    b: &CsrMatrix<f64>,
    pool: &ThreadPool,
    what: &str,
) -> CsrMatrix<f64> {
    let all: Vec<usize> = (0..a.nrows()).collect();
    let (c, counts) = batched(a, b, &[(&all, None)], pool);
    let expected = reference::spmm_rowrow(a, b).unwrap();
    assert!(c.bit_eq(&expected), "{what}: one claim is not spmm_rowrow");
    assert_eq!(counts.per_claim, vec![expected.nnz()], "{what}: counts");
    c
}

/// `a × b` as the four quadrant claims of a row split: the `a_high` and
/// low rows of A, each against the `b_high` and low rows of B.
fn four_claims(
    a: &CsrMatrix<f64>,
    b: &CsrMatrix<f64>,
    a_high: &[bool],
    b_high: &[bool],
    pool: &ThreadPool,
    what: &str,
) -> CsrMatrix<f64> {
    let high = rows_where(a_high, true);
    let low = rows_where(a_high, false);
    let b_low: Vec<bool> = b_high.iter().map(|&h| !h).collect();
    let (c, _) = batched(
        a,
        b,
        &[
            (&high, Some(b_high)),
            (&high, Some(&b_low)),
            (&low, Some(b_high)),
            (&low, Some(&b_low)),
        ],
        pool,
    );
    let expected = reference::spmm_rowrow(a, b).unwrap();
    assert!(
        c.approx_eq(&expected, 1e-9, 1e-12),
        "{what}: four-way reassembly diverged"
    );
    c
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
        let what = format!("seed {seed}: rectangular {m}x{k} * {k}x{n}");
        one_claim(&a, &b, &pool, &what);
        let (a_high, b_high) = (random_mask(&mut rng, m), random_mask(&mut rng, k));
        four_claims(&a, &b, &a_high, &b_high, &pool, &what);
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
        let mask = random_mask(&mut rng, n);
        // empty × B and B × empty are both all-zero
        for (lhs, rhs) in [(&empty, &b), (&b, &empty), (&empty, &empty)] {
            let what = format!("seed {seed}");
            for c in [
                one_claim(lhs, rhs, &pool, &what),
                four_claims(lhs, rhs, &mask, &mask, &pool, &what),
            ] {
                assert_eq!(c.shape(), (n, n), "{what}");
                assert_eq!(c.nnz(), 0, "{what}: product of empties must be empty");
            }
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
        let what = format!("seed {seed}: dense-hub product");
        let c = one_claim(&a, &b, &pool, &what);
        // the hub row is the one high row of A
        let a_high: Vec<bool> = (0..n).map(|i| i == hub).collect();
        let b_high: Vec<bool> = (0..n).map(|j| b.row_nnz(j) >= 2).collect();
        let split = four_claims(&a, &b, &a_high, &b_high, &pool, &what);
        // the hub row of C covers every column B touches, however split
        let expected = reference::spmm_rowrow(&a, &b).unwrap();
        assert_eq!(c.row(hub).0, expected.row(hub).0, "{what}");
        assert_eq!(split.row(hub).0, expected.row(hub).0, "{what}: split");
    }
}

#[test]
fn engine_handles_masks_selecting_zero_rows() {
    let pool = ThreadPool::new(2);
    for seed in 0..8 {
        let mut rng = StdRng::seed_from_u64(4_000 + seed);
        let n = rng.gen_range(1usize..50);
        let a = random_csr(&mut rng, n, n, 400);
        let what = format!("seed {seed}");
        // row set empty: nothing requested, nothing produced
        let (c, counts) = batched(&a, &a, &[(&[], None)], &pool);
        assert_eq!(c.shape(), (n, n), "{what}");
        assert_eq!(c.nnz(), 0, "{what}");
        assert_eq!(counts.per_claim, vec![0], "{what}");
        // B-mask all false: every requested row exists but is empty
        let no_b = vec![false; n];
        let rows: Vec<usize> = (0..n).collect();
        let (c, counts) = batched(&a, &a, &[(&rows, Some(&no_b))], &pool);
        assert_eq!(c.shape(), (n, n), "{what}");
        assert_eq!(c.nnz(), 0, "{what}");
        assert_eq!(counts.per_claim, vec![0], "{what}");
        // four claims, two of them over no rows and two under an empty mask
        let all_high = vec![true; n];
        four_claims(&a, &a, &all_high, &no_b, &pool, &what);
        four_claims(&a, &a, &no_b, &all_high, &pool, &what);
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
            0 => random_mask(&mut rng, n),
            1 => vec![true; n],
            2 => vec![false; n],
            _ => (0..n).map(|i| a.row_nnz(i) >= 2).collect(),
        };
        four_claims(&a, &a, &mask, &mask, &pool, &format!("seed {seed}"));
    }
}
