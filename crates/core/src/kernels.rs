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
//! [`row_products`] is the reference engine: a plain two-pass Gustavson
//! product. A symbolic pass sizes every output row exactly, an exclusive
//! scan turns the sizes into offsets, and a numeric pass scatters each row
//! through one dense SPA and drains it into its pre-offset slot of a
//! [`RowBlock`]. Per claim, followed by `merge::concat_row_blocks`, it is
//! the `ExecPolicy::PerClaim` executor the production batched executor
//! (`schedule::execute`) is pinned against bit for bit.
//!
//! The production executor's building blocks live here too: the shared
//! accumulation order ([`scatter_row`]) and the compaction that stitches
//! staged rows into their final slots.

use spmm_parallel::{DisjointSlice, ThreadPool};
use spmm_sparse::{ColIndex, CsrMatrix, Scalar, SparseAccumulator, StagingBuffer, WorkspacePool};

/// Base chunk size for guided self-scheduling over undifferentiated rows.
pub(crate) const GUIDED_CHUNK: usize = 16;

/// Guided chunk for the staging compaction: each row is a memcpy, so
/// scheduling overhead dominates and chunks are large.
const COPY_CHUNK: usize = 16 * GUIDED_CHUNK;

/// A partial product over a masked row set, stored as packed CSR rows.
///
/// `rows[k]` is the output-row index of stored row `k`; its entries live at
/// `indices[indptr[k]..indptr[k + 1]]` (columns ascending) and the matching
/// `values` range. Blocks from the four masked products are combined
/// per-row by `merge::concat_row_blocks`.
#[derive(Debug, Clone)]
pub struct RowBlock<T> {
    /// Output-row index of each stored row, in the order requested.
    pub rows: Vec<u32>,
    /// Offsets into `indices`/`values`; length `rows.len() + 1`.
    pub indptr: Vec<usize>,
    /// Column indices, ascending within each stored row.
    pub indices: Vec<ColIndex>,
    /// Values matching `indices`.
    pub values: Vec<T>,
}

impl<T> Default for RowBlock<T> {
    /// Delegates to [`RowBlock::empty`]. The derived impl would yield
    /// `indptr: vec![]`, an invalid block whose accessors disagree with
    /// every constructed block (`indptr` must always hold `rows + 1`
    /// offsets).
    fn default() -> Self {
        Self::empty()
    }
}

impl<T> RowBlock<T> {
    /// Empty block (no rows, no entries).
    pub fn empty() -> Self {
        Self {
            rows: Vec::new(),
            indptr: vec![0],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Number of stored rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Stored entries across all rows. Equals the number of accumulator
    /// insertions the kernel performed, which is what the simulated Phase
    /// IV merge cost is charged on (one tuple per stored entry).
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// The `k`-th stored row: `(output row, columns, values)`.
    pub fn row(&self, k: usize) -> (u32, &[ColIndex], &[T]) {
        let (lo, hi) = (self.indptr[k], self.indptr[k + 1]);
        (self.rows[k], &self.indices[lo..hi], &self.values[lo..hi])
    }
}

/// Two-pass Gustavson product of the listed rows of `a` against `b`,
/// restricted to B rows allowed by `b_mask` (None ⇒ all).
///
/// Pass one sizes every output row with a [`RowSizer`](spmm_sparse::RowSizer);
/// an exclusive scan converts the sizes to offsets; pass two re-runs the
/// products through a [`SparseAccumulator`] and drains each row, sorted,
/// into its pre-offset slot. Both passes run under guided self-scheduling
/// with per-thread scratch — row costs on scale-free inputs vary by orders
/// of magnitude, so static chunking would serialise on whichever thread
/// drew the hubs. Offsets are fixed by the symbolic pass, so the result is
/// byte-identical across thread counts.
pub fn row_products<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: &[usize],
    b_mask: Option<&[bool]>,
    pool: &ThreadPool,
) -> RowBlock<T> {
    row_products_pooled(a, b, rows, b_mask, pool, &WorkspacePool::new())
}

/// [`row_products`] drawing per-thread scratch from a [`WorkspacePool`],
/// so the O(ncols) stamp/value arrays are allocated once and
/// generation-reused across claims and repeated multiplies.
pub fn row_products_pooled<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: &[usize],
    b_mask: Option<&[bool]>,
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
) -> RowBlock<T> {
    assert_eq!(a.ncols(), b.nrows(), "incompatible shapes for product");
    if rows.is_empty() {
        return RowBlock::empty();
    }
    let ncols = b.ncols();

    // Pass 1 (symbolic): distinct-column count of every requested row.
    let mut sizes = vec![0u64; rows.len()];
    {
        let out = DisjointSlice::new(&mut sizes);
        pool.for_each_guided_with(
            rows.len(),
            GUIDED_CHUNK,
            || workspaces.acquire_sizer(ncols),
            |sizer, range| {
                for k in range {
                    mark_row(a, b, rows[k], b_mask, sizer);
                    // each k written by exactly one claimant
                    unsafe { out.write(k, sizer.finish_row() as u64) };
                }
            },
        );
    }

    let (indptr, total) = offsets_from_sizes(sizes, pool);

    // Pass 2 (numeric): accumulate each row and write it into its slot.
    let mut indices = vec![0 as ColIndex; total];
    let mut values = vec![T::ZERO; total];
    {
        let out_idx = DisjointSlice::new(&mut indices);
        let out_val = DisjointSlice::new(&mut values);
        let indptr = &indptr;
        pool.for_each_guided_with(
            rows.len(),
            GUIDED_CHUNK,
            || workspaces.acquire::<T>(ncols),
            |ws, range| {
                for k in range {
                    let spa = &mut ws.spa;
                    scatter_row(a, b, rows[k], b_mask, spa);
                    let mut at = indptr[k];
                    debug_assert_eq!(indptr[k + 1] - at, spa.nnz());
                    spa.drain_sorted(|c, v| {
                        // rows own disjoint indptr ranges
                        unsafe {
                            out_idx.write(at, c);
                            out_val.write(at, v);
                        }
                        at += 1;
                    });
                }
            },
        );
    }

    RowBlock {
        rows: rows.iter().map(|&r| r as u32).collect(),
        indptr,
        indices,
        values,
    }
}

/// Scatter one output row's partial products into `acc`: every masked
/// `a[row, j] × B[j, :]` contribution, in A-row visit order. All numeric
/// paths funnel through this, so the accumulation order — and therefore
/// every output bit — is defined in exactly one place.
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

/// Symbolic companion of [`scatter_row`]: mark the row's masked columns.
#[inline]
fn mark_row<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    row: usize,
    b_mask: Option<&[bool]>,
    sizer: &mut spmm_sparse::RowSizer,
) {
    let (acols, _) = a.row(row);
    for &j in acols {
        if let Some(mask) = b_mask {
            if !mask[j as usize] {
                continue;
            }
        }
        for &c in b.row(j as usize).0 {
            sizer.mark(c);
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
    use spmm_sparse::reference;
    use spmm_sparse::CooMatrix;

    fn fig2_a() -> CsrMatrix<f64> {
        CsrMatrix::try_new(
            4,
            4,
            vec![0, 2, 4, 6, 8],
            vec![1, 2, 2, 3, 0, 2, 0, 3],
            vec![2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn rows_where_partitions() {
        let mask = vec![true, false, false, true];
        assert_eq!(rows_where(&mask, true), vec![0, 3]);
        assert_eq!(rows_where(&mask, false), vec![1, 2]);
    }

    /// Rebuild a CSR matrix out of a single full-coverage block.
    fn block_to_csr(block: &RowBlock<f64>, shape: (usize, usize)) -> CsrMatrix<f64> {
        let mut coo = CooMatrix::new(shape.0, shape.1);
        for k in 0..block.num_rows() {
            let (r, cols, vals) = block.row(k);
            for (&c, &v) in cols.iter().zip(vals) {
                coo.push(r as usize, c as usize, v);
            }
        }
        coo.to_csr().unwrap()
    }

    #[test]
    fn row_products_matches_reference_product() {
        let a = fig2_a();
        let pool = ThreadPool::new(2);
        let rows: Vec<usize> = (0..4).collect();
        let block = row_products(&a, &a, &rows, None, &pool);
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        // in-kernel accumulation ⇒ one stored entry per output nonzero
        assert_eq!(block.nnz(), expected.nnz());
        assert!(block_to_csr(&block, (4, 4)).approx_eq(&expected, 1e-12, 1e-12));
    }

    #[test]
    fn row_products_is_deterministic_across_thread_counts() {
        let a = fig2_a();
        let rows: Vec<usize> = (0..4).collect();
        let b1 = row_products(&a, &a, &rows, None, &ThreadPool::new(1));
        let b4 = row_products(&a, &a, &rows, None, &ThreadPool::new(4));
        assert_eq!(b1.rows, b4.rows);
        assert_eq!(b1.indptr, b4.indptr);
        assert_eq!(b1.indices, b4.indices);
        assert_eq!(b1.values, b4.values);
    }

    #[test]
    fn default_row_block_is_the_empty_block() {
        // the derived Default used to yield `indptr: vec![]`, on which
        // `row(0)` / `nnz` disagree with every constructed block
        let d = RowBlock::<f64>::default();
        let e = RowBlock::<f64>::empty();
        assert_eq!(d.num_rows(), e.num_rows());
        assert_eq!(d.nnz(), e.nnz());
        assert_eq!(d.indptr, e.indptr);
        assert_eq!(d.indptr, vec![0]);
    }

    #[test]
    fn row_products_empty_inputs() {
        let a = fig2_a();
        let pool = ThreadPool::new(2);
        let block = row_products(&a, &a, &[], None, &pool);
        assert_eq!(block.num_rows(), 0);
        assert_eq!(block.nnz(), 0);
        // mask selecting no B rows ⇒ rows exist but are all empty
        let none = vec![false; 4];
        let rows: Vec<usize> = (0..4).collect();
        let block = row_products(&a, &a, &rows, Some(&none), &pool);
        assert_eq!(block.num_rows(), 4);
        assert_eq!(block.nnz(), 0);
        assert_eq!(block.indptr, vec![0, 0, 0, 0, 0]);
    }
}
