//! The production engine's fused single-scatter tier is a perf knob only.
//!
//! Under `ExecPolicy::Batched`, rows whose structural upper bound (Σ over
//! k∈A(i,:) of |B(k,:)|) fits the staging budget skip the symbolic pass:
//! they scatter once through the accumulator their bound selects, drain
//! into pooled staging buffers, and a compaction pass stitches them next
//! to the exactly-sized heavy rows. Every row is still produced in the
//! same scatter order (first touch sets, later touches `+=`) with the same
//! ascending drain, staged runs are copied verbatim, and the indptr scan
//! runs over exact integer sizes — so the floating-point bits must be
//! *identical* to the two-pass `ExecPolicy::PerClaim` reference. These
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
    // threshold pair and the A_H × B_L / A_L × B_H cross products: copy
    // rows from single-source masks, bounded list/hash/dense rows, and
    // heavy hub rows that must keep the exact symbolic pass
    let a = matrix(2_000, 10_000, 62);
    let b = matrix(2_000, 28_000, 63);
    check_all_paths(&a, &b, "A != B", &[1, 2, 8]);
    check_all_paths(&b, &a, "B != A", &[1, 2, 8]);
}
