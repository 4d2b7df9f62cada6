//! The SIMD numeric kernels are a perf knob only.
//!
//! The numeric hot loops — the SPA's SoA drain and the register-tiled
//! csrmm sweep — have runtime-dispatched AVX2 variants behind a chunked
//! scalar fallback. Neither reorders a floating-point reduction, so the
//! product of a forced-scalar run and a forced-AVX2 run must be bit-for-bit
//! *identical*, across all four algorithm paths, both executors (the
//! production batched engine and the per-claim reference), several host
//! thread counts, `A = B` and `A ≠ B`, remainder-lane row sizes
//! (`nnz ≡ 1..7 mod 8`), and empty rows.
//!
//! On hosts without AVX2 (or with `SPMM_SIMD=scalar` exported, as in CI's
//! scalar-fallback leg) forcing `Avx2` resolves to the scalar path and the
//! comparisons become scalar-vs-scalar: trivially green, still exercising
//! the dispatch plumbing.

use std::sync::Mutex;

use hetero_spmm::prelude::*;

/// Forced-level comparisons serialize here so parallel tests cannot flip
/// the process-wide dispatch level mid-measurement. (A concurrent flip
/// would still be *correct* — every dispatched primitive is bit-identical
/// across levels — but each comparison should test what it claims to.)
static LEVEL_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` twice — forced scalar, then forced AVX2 — and return both
/// results, restoring auto-detection after.
fn at_both_levels<R>(mut f: impl FnMut() -> R) -> (R, R) {
    let _g = LEVEL_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    simd::set_forced(Some(SimdLevel::Scalar));
    let scalar = f();
    simd::set_forced(Some(SimdLevel::Avx2));
    let vector = f();
    simd::set_forced(None);
    (scalar, vector)
}

fn assert_identical(got: &SpmmOutput<f64>, want: &SpmmOutput<f64>, what: &str) {
    assert_eq!(got.c, want.c, "{what}: output matrix diverged");
    assert_eq!(got.profile, want.profile, "{what}: PhaseBreakdown diverged");
    assert_eq!(
        (got.threshold_a, got.threshold_b),
        (want.threshold_a, want.threshold_b),
        "{what}: thresholds diverged"
    );
    assert_eq!(
        got.tuples_merged, want.tuples_merged,
        "{what}: tuples_merged diverged"
    );
}

fn matrix(n: usize, nnz: usize, seed: u64) -> CsrMatrix<f64> {
    scale_free_matrix(&GeneratorConfig::square_power_law(n, nnz, 2.2, seed))
}

fn check_all_paths(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, label: &str) {
    let units = WorkUnitConfig::auto(a.nrows());
    for threads in [1usize, 2, 8] {
        let mut ctx = HeteroContext::scaled(32).with_host_threads(threads);
        for policy in [ExecPolicy::PerClaim, ExecPolicy::Batched] {
            let what = format!("{label}, {threads} threads, {policy:?}");
            let hh_cfg = HhCpuConfig {
                exec: policy,
                ..HhCpuConfig::default()
            };

            let (s, v) = at_both_levels(|| hh_cpu(&mut ctx, a, b, &hh_cfg));
            assert_identical(&v, &s, &format!("hh_cpu ({what})"));

            let (s, v) = at_both_levels(|| hipc2012_with(&mut ctx, a, b, policy));
            assert_identical(&v, &s, &format!("hipc2012 ({what})"));

            let (s, v) = at_both_levels(|| unsorted_workqueue_with(&mut ctx, a, b, units, policy));
            assert_identical(&v, &s, &format!("unsorted_workqueue ({what})"));

            let (s, v) = at_both_levels(|| sorted_workqueue_with(&mut ctx, a, b, units, policy));
            assert_identical(&v, &s, &format!("sorted_workqueue ({what})"));
        }
    }
}

#[test]
fn simd_paths_are_bit_equal_on_self_product() {
    let a = matrix(2_000, 14_000, 71);
    check_all_paths(&a, &a, "A = A");
}

#[test]
fn simd_paths_are_bit_equal_on_distinct_inputs() {
    // different row-size profiles exercise the dual thresholds and land
    // both single- and multi-claim rows on both mask halves
    let a = matrix(1_500, 7_500, 72);
    let b = matrix(1_500, 21_000, 73);
    check_all_paths(&a, &b, "A != B");
}

/// A matrix pair built so output rows cover every drain remainder class:
/// `nnz(C[i,:]) ≡ 0..7 (mod 8)`, rows that are one scaled B row, rows
/// summed from two B-rows, fully empty rows, and rows fed by empty B rows.
fn remainder_lane_inputs() -> (CsrMatrix<f64>, CsrMatrix<f64>) {
    let n = 48usize;
    // B: row j holds j % 17 entries (0..=16 spans every residue mod 8,
    // including empty rows) starting at column j, values a fixed pattern.
    let mut b = CooMatrix::new(n, n);
    for j in 0..n {
        for k in 0..(j % 17).min(n - j) {
            let c = j + k;
            b.push(j, c, ((j * 31 + c) % 23) as f64 * 0.5 - 3.0);
        }
    }
    // A: even rows are single-entry (C row = scaled B row,
    // every width of B appears verbatim); odd rows sum two adjacent B rows
    // (overlapping column ranges ⇒ genuine accumulation, union sizes
    // spread across residues). Row n-1 is left fully empty.
    let mut a = CooMatrix::new(n, n);
    for i in 0..n - 1 {
        if i % 2 == 0 {
            a.push(i, i, 1.5);
        } else {
            a.push(i, i - 1, -0.75);
            a.push(i, i, 2.0);
        }
    }
    (a.to_csr().unwrap(), b.to_csr().unwrap())
}

#[test]
fn remainder_lanes_and_empty_rows_are_bit_equal() {
    let (a, b) = remainder_lane_inputs();
    // sanity: the construction really covers every residue class mod 8
    let mut ctx = HeteroContext::scaled(32).with_host_threads(2);
    let probe = hh_cpu(&mut ctx, &a, &b, &HhCpuConfig::default());
    let mut residues = [false; 8];
    let mut empties = 0;
    for i in 0..probe.c.nrows() {
        let nnz = probe.c.row_nnz(i);
        residues[nnz % 8] = true;
        empties += usize::from(nnz == 0);
    }
    assert!(
        residues.iter().all(|&r| r) && empties > 0,
        "construction must cover nnz ≡ 0..7 (mod 8) and empty rows: {residues:?}, {empties}"
    );
    check_all_paths(&a, &b, "remainder lanes");
}

#[test]
fn tiled_csrmm_is_bit_equal_across_levels_and_to_reference() {
    // widths straddle the 8-wide tile: full tiles, ragged tails, sub-tile
    for k in [5usize, 8, 13, 24] {
        let a = matrix(600, 4_200, 74);
        let data: Vec<f64> = (0..a.ncols() * k)
            .map(|i| (i % 29) as f64 * 0.125 - 1.0)
            .collect();
        let b = DenseMatrix::from_row_major(a.ncols(), k, data);
        let expected = reference::csrmm(&a, &b).unwrap();
        let (s, v) = at_both_levels(|| {
            let mut ctx = HeteroContext::paper();
            hh_csrmm(&mut ctx, &a, &b, ThresholdPolicy::Fixed { t_a: 6, t_b: 6 }).c
        });
        for (c, lvl) in [(&s, "scalar"), (&v, "avx2")] {
            assert!(
                c.data()
                    .iter()
                    .zip(expected.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits()),
                "tiled csrmm ({lvl}, width {k}) drifted from reference bits"
            );
        }
    }
}
