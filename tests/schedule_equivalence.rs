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
use common::{check_all_paths, matrix};

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
