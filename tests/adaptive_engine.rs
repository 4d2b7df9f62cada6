//! The production engine's row-binned accumulators are a perf knob only.
//!
//! `ExecPolicy::Batched` picks a per-row accumulator (verbatim copy /
//! sorted list / open-addressing hash / dense SPA) from each output row's
//! size bound and masked source count. Every variant scatters in the same
//! A-row visit order (first touch sets, later touches `+=`) and drains
//! ascending by column, so the floating-point bits of the result must be
//! *identical* to the plain dense-SPA `ExecPolicy::PerClaim` reference —
//! not approximately equal, identical. These tests pin that contract
//! across all four algorithm paths and several host thread counts, on
//! inputs whose rows land in every bin.

use hetero_spmm::prelude::*;

mod common;
use common::{check_all_paths, matrix};

#[test]
fn adaptive_engine_is_bit_equal_on_self_product() {
    let a = matrix(3_000, 21_000, 51);
    check_all_paths(&a, &a, "A = A", &[1, 2, 8]);
}

#[test]
fn adaptive_engine_is_bit_equal_on_distinct_inputs() {
    // different row-size profiles on the two sides exercise the dual
    // threshold pair and the A_H × B_L / A_L × B_H cross products, which
    // land rows in every bin (copy rows from single-source masks, tiny
    // list rows, hash mid-rows, dense SPA rows)
    let a = matrix(2_000, 10_000, 52);
    let b = matrix(2_000, 28_000, 53);
    check_all_paths(&a, &b, "A != B", &[1, 2, 8]);
    check_all_paths(&b, &a, "B != A", &[1, 2, 8]);
}

#[test]
fn adaptive_engine_is_bit_equal_on_catalog_clone() {
    // a clone with a different hub profile from the wiki-Vote case in
    // schedule_equivalence.rs, so the bins fill in other proportions
    let a = Dataset::by_name("email-Enron").unwrap().load::<f64>(32);
    check_all_paths(&a, &a, "email-Enron", &[1, 2, 8]);
}
