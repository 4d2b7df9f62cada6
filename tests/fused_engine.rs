//! The production engine's one-pass drain is a perf choice only.
//!
//! Under `ExecPolicy::Batched` every output row is computed once, without
//! a symbolic pass: each row segment's worker drains its rows in order
//! straight into the segment's CSR arrays, and several segments are
//! stitched by offset fix-up. Every run is still produced in the same
//! scatter order (first touch sets, later touches `+=`) with the same
//! ascending drain, drained values are copied verbatim, and `indptr` is a
//! running count of drained entries — so the floating-point bits must be
//! *identical* to the serial `ExecPolicy::PerClaim` oracle. These
//! tests pin that contract across all four algorithm paths and several
//! host thread counts, for `A = B` and `A ≠ B`; the Table I clones and the
//! sharded driver are covered in `engine_equivalence.rs`.

mod common;
use common::{check_all_paths, matrix};

#[test]
fn fused_engine_is_bit_equal_on_self_product() {
    let a = matrix(3_000, 21_000, 61);
    check_all_paths(&a, &a, "A = A", &[1, 2, 8]);
}

#[test]
fn fused_engine_is_bit_equal_on_distinct_inputs() {
    // different row-size profiles on the two sides exercise the dual
    // threshold pair and the A_H × B_L / A_L × B_H cross products: rows
    // from a single masked source, small rows, and hub rows that drain
    // thousands of entries
    let a = matrix(2_000, 10_000, 62);
    let b = matrix(2_000, 28_000, 63);
    check_all_paths(&a, &b, "A != B", &[1, 2, 8]);
    check_all_paths(&b, &a, "B != A", &[1, 2, 8]);
}
