//! The production engine's per-row routing is a perf knob only.
//!
//! `ExecPolicy::Batched` routes each output row by its size bound and
//! masked source count: a scaled verbatim copy for a sole masked source,
//! otherwise a fused (bounded) or exactly sized (heavy) pass through the
//! dense SPA. Every route scatters in the same A-row visit order (first
//! touch sets, later touches `+=`) and drains ascending by column, so the
//! floating-point bits of the result must be *identical* to the plain
//! dense-SPA `ExecPolicy::PerClaim` reference — not approximately equal,
//! identical. These tests pin that contract across all four algorithm
//! paths and several host thread counts, on inputs whose rows take every
//! route.

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
    // send rows down every route (copy rows from single-source masks,
    // bounded and heavy rows through the SPA)
    let a = matrix(2_000, 10_000, 52);
    let b = matrix(2_000, 28_000, 53);
    check_all_paths(&a, &b, "A != B", &[1, 2, 8]);
    check_all_paths(&b, &a, "B != A", &[1, 2, 8]);
}

#[test]
fn adaptive_engine_is_bit_equal_on_catalog_clone() {
    // a clone with a different hub profile from the wiki-Vote case in
    // schedule_equivalence.rs, so the routes fill in other proportions
    let a = Dataset::by_name("email-Enron").unwrap().load::<f64>(32);
    check_all_paths(&a, &a, "email-Enron", &[1, 2, 8]);
}
