//! Numeric kernels for the partial products of Phases II/III.
//!
//! These compute the *real* arithmetic (the simulated devices only charge
//! time). Following the paper's kernel of [13], each output row is
//! accumulated *within* the kernel (the GPU uses its `PartialOutput` array,
//! the CPU a sparse accumulator) and only "the nonzero values of C(i,:) are
//! copied to the output" (§II-A-b) — so one stored entry is produced per
//! distinct `(row, col)` of the partial product, not per elementary
//! multiplication. Output is deterministic in row order regardless of host
//! thread count.
//!
//! The production executor's building blocks live here: the shared
//! accumulation order ([`scatter_row`]) and the compaction that stitches
//! staged rows into their final slots. The executor (`schedule::execute`)
//! is pinned bit for bit against the serial oracle
//! `spmm_sparse::reference::spmm_claims`, which shares none of this code.

use spmm_parallel::{DisjointSlice, ThreadPool};
use spmm_sparse::{ColIndex, CsrMatrix, Scalar, SparseAccumulator, StagingBuffer, WorkspacePool};

/// Base chunk size for guided self-scheduling over undifferentiated rows.
pub(crate) const GUIDED_CHUNK: usize = 16;

/// Guided chunk for the staging compaction: each row is a memcpy, so
/// scheduling overhead dominates and chunks are large.
const COPY_CHUNK: usize = 16 * GUIDED_CHUNK;

/// Scatter one output row's partial products into `acc`: every masked
/// `a[row, j] × B[j, :]` contribution, in A-row visit order. Every
/// production numeric path funnels through this, so the accumulation
/// order — and therefore every output bit — is defined in exactly one
/// place; the oracle `reference::spmm_claims` restates it independently.
#[inline]
pub(crate) fn scatter_row<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    row: usize,
    b_mask: Option<&[bool]>,
    acc: &mut SparseAccumulator<T>,
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
            acc.scatter(c, aij * bjc);
        }
    }
}

/// Compaction: memcpy every staged run into its final pre-offset slot and
/// return the drained arenas to the pool. Run lengths come off the final
/// indptr (the staged exact sizes fed the scan), so the copy is a pure
/// offset fix-up — the same discipline `shard::concat_row_bands` uses to
/// stitch row bands.
pub(crate) fn compact_staged<T: Scalar>(
    pool: &ThreadPool,
    staged: Vec<StagingBuffer<T>>,
    workspaces: &WorkspacePool,
    indptr: &[usize],
    out_idx: &DisjointSlice<'_, ColIndex>,
    out_val: &DisjointSlice<'_, T>,
) {
    for arena in &staged {
        pool.for_each_guided_items(
            &arena.rows,
            COPY_CHUNK,
            || (),
            |(), items| {
                for &(key, start) in items {
                    let k = key as usize;
                    let at = indptr[k];
                    let n = indptr[k + 1] - at;
                    // rows own disjoint indptr ranges
                    unsafe {
                        out_idx.write_slice(at, &arena.cols[start..start + n]);
                        out_val
                            .slice_mut(at, n)
                            .copy_from_slice(&arena.vals[start..start + n]);
                    }
                }
            },
        );
    }
    for arena in staged {
        workspaces.release_staging(arena);
    }
}

/// Exclusive-scan `sizes` into a CSR `indptr`, returning it with the
/// entry total.
pub(crate) fn offsets_from_sizes(mut sizes: Vec<u64>, pool: &ThreadPool) -> (Vec<usize>, usize) {
    let total = spmm_parallel::exclusive_scan(&mut sizes, pool) as usize;
    let mut indptr = Vec::with_capacity(sizes.len() + 1);
    indptr.extend(sizes.iter().map(|&s| s as usize));
    indptr.push(total);
    (indptr, total)
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
