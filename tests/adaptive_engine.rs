//! The production engine's fold of per-claim runs is a perf knob only.
//!
//! `ExecPolicy::Batched` treats a row by its claim count: a one-claim row
//! drains its accumulator lane verbatim, and a multi-claim row drains
//! `(0 + v0) + v1` over two lanes, folding any middle claim into the
//! first. Every run scatters in the same A-row visit order onto a −0.0
//! seed (the bits of "first touch sets, later touches `+=`"), the drain
//! sums each column from `T::ZERO` in claim order exactly as the
//! reference's per-row merge does, and drains are ascending by column, so
//! the floating-point bits of the result must be *identical* to the plain
//! dense-SPA `ExecPolicy::PerClaim` reference — not approximately equal,
//! identical. These tests pin that contract across all four algorithm
//! paths and several host thread counts, on inputs with one-claim and
//! multi-claim rows.

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
    // give rows one, two or more claims
    let a = matrix(2_000, 10_000, 52);
    let b = matrix(2_000, 28_000, 53);
    check_all_paths(&a, &b, "A != B", &[1, 2, 8]);
    check_all_paths(&b, &a, "B != A", &[1, 2, 8]);
}

#[test]
fn adaptive_engine_is_bit_equal_on_catalog_clone() {
    // a clone with a different hub profile from the wiki-Vote case in
    // schedule_equivalence.rs, so claim counts fill in other proportions
    let a = Dataset::by_name("email-Enron").unwrap().load::<f64>(32);
    check_all_paths(&a, &a, "email-Enron", &[1, 2, 8]);
}
