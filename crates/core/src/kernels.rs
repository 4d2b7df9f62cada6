//! Numeric kernels for the partial products of Phases II/III.
//!
//! These compute the *real* arithmetic (the simulated devices only charge
//! time). Following the paper's kernel of \[13\], each output row is
//! accumulated *within* the kernel (the GPU uses its `PartialOutput` array,
//! the CPU a sparse accumulator) and only "the nonzero values of C(i,:) are
//! copied to the output" (§II-A-b) — so one stored entry is produced per
//! distinct `(row, col)` of the partial product, not per elementary
//! multiplication. Output is deterministic in row order regardless of host
//! thread count.
//!
//! The production executor's one kernel lives here: the shared
//! accumulation order (`scatter_row`). The executor
//! (`schedule::execute`) drains each accumulated row straight into C and
//! is pinned bit for bit against the serial oracle
//! `spmm_sparse::reference::spmm_claims`, which shares none of this code.

use spmm_sparse::{CsrMatrix, Lane, Scalar};

/// Scatter one output row's partial products into an accumulator lane:
/// every masked `a[row, j] × B[j, :]` contribution, in A-row visit order. Every
/// production numeric path funnels through this, so the accumulation
/// order — and therefore every output bit — is defined in exactly one
/// place; the oracle `reference::spmm_claims` restates it independently.
#[inline]
pub(crate) fn scatter_row<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    row: usize,
    b_mask: Option<&[bool]>,
    mut lane: Lane<'_, T>,
) {
    let (acols, avals) = a.row(row);
    for (&j, &aij) in acols.iter().zip(avals) {
        if let Some(mask) = b_mask {
            if !mask[j as usize] {
                continue;
            }
        }
        let (bcols, bvals) = b.row(j as usize);
        for (&c, &bjc) in bcols.iter().zip(bvals) {
            lane.scatter(c, aij * bjc);
        }
    }
}

/// Row indices selected (`true`) by a mask.
pub fn rows_where(mask: &[bool], want: bool) -> Vec<usize> {
    mask.iter()
        .enumerate()
        .filter_map(|(i, &h)| (h == want).then_some(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_where_partitions() {
        let mask = vec![true, false, false, true];
        assert_eq!(rows_where(&mask, true), vec![0, 3]);
        assert_eq!(rows_where(&mask, false), vec![1, 2]);
    }
}
