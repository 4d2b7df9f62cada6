//! The plan/execute split is a host-side wall-clock optimisation only.
//!
//! Every algorithm path records a `ClaimSchedule` during its event-driven
//! planning loop and runs the numeric work afterwards, either per claim
//! (`ExecPolicy::PerClaim`, the reference: one row block per claim, then
//! concatenate) or batched (`ExecPolicy::Batched`, the production engine:
//! one pass and one scan over every claim at once). These tests pin
//! the batched executor bit-equal to the per-claim reference for all four
//! algorithm paths, at several host thread counts, for both the `A = B`
//! self-product and the `A ≠ B` case — identical output matrix, identical
//! simulated `PhaseBreakdown`, identical thresholds, identical
//! `tuples_merged`.

use hetero_spmm::prelude::*;

mod common;
use common::{check_all_paths, matrix, remainder_lane_inputs};

#[test]
fn batched_executor_is_bit_equal_on_self_product() {
    let a = matrix(3_000, 21_000, 41);
    check_all_paths(&a, &a, "A = A", &[1, 2, 8]);
}

#[test]
fn batched_executor_is_bit_equal_on_distinct_inputs() {
    // different row-size profiles on the two sides exercise the dual
    // threshold pair and the A_H × B_L / A_L × B_H cross products
    let a = matrix(2_000, 10_000, 42);
    let b = matrix(2_000, 28_000, 43);
    check_all_paths(&a, &b, "A != B", &[1, 2, 8]);
    check_all_paths(&b, &a, "B != A", &[1, 2, 8]);
}

#[test]
fn batched_executor_is_bit_equal_on_catalog_clone() {
    let a = Dataset::by_name("wiki-Vote").unwrap().load::<f64>(32);
    check_all_paths(&a, &a, "wiki-Vote", &[1, 2, 8]);
}

#[test]
fn batched_executor_is_bit_equal_on_remainder_lanes() {
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
    let expected = reference::spmm_rowrow(&a, &b).unwrap();
    assert!(probe.c.approx_eq(&expected, 1e-9, 1e-12), "remainder lanes");
    check_all_paths(&a, &b, "remainder lanes", &[1, 2, 8]);
}
