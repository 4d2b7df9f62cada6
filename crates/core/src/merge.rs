//! Phase IV: combine the partial products into the output CSR.
//!
//! [`concat_row_blocks`] is the host numeric path of the reference
//! executor. The two-pass engine emits per-row-sorted [`RowBlock`]s, so
//! combining them is a per-row k-way merge (k = blocks holding that row, at
//! most the number of partial products) instead of a global sort. Within
//! one block rows are disjoint; *across* blocks the same output row appears
//! once per B-mask half and its column sets can overlap, so the merge sums
//! duplicates. The paper's own Phase IV recipe (§III-D, Figure 4: sort the
//! `⟨r, c, v⟩` tuples, mark like-tuples, scan, segmented add) survives as
//! what the simulated devices charge for (`merge_cost`), since the paper's
//! GPUs really do sort.

use crate::kernels::RowBlock;
use spmm_parallel::{exclusive_scan, DisjointSlice, ThreadPool};
use spmm_sparse::{ColIndex, CsrMatrix, Scalar};

/// Rows a guided worker claims at a time while assembling output rows.
const GUIDED_CHUNK: usize = 64;

/// Combine the [`RowBlock`] partial products into the output CSR.
///
/// Builds the per-row source lists with a counting sort over the blocks'
/// stored rows, sizes every output row by a symbolic k-way walk, scans the
/// sizes into CSR offsets, and then merges each row's sources — summing
/// columns that appear in several blocks — straight into the pre-offset
/// storage. Single-source rows (the common case: a row of `A_H` multiplied
/// against an unsplit `B`) degrade to a bare copy.
pub fn concat_row_blocks<T: Scalar>(
    blocks: &[RowBlock<T>],
    shape: (usize, usize),
    pool: &ThreadPool,
) -> CsrMatrix<T> {
    let (nrows, ncols) = shape;

    // Counting sort of (block, stored row) pairs by output row.
    let mut src_off = vec![0usize; nrows + 1];
    for b in blocks {
        for &r in &b.rows {
            src_off[r as usize + 1] += 1;
        }
    }
    for r in 0..nrows {
        src_off[r + 1] += src_off[r];
    }
    let mut src: Vec<(u32, u32)> = vec![(0, 0); src_off[nrows]];
    {
        let mut cursor = src_off.clone();
        for (bi, b) in blocks.iter().enumerate() {
            for (k, &r) in b.rows.iter().enumerate() {
                src[cursor[r as usize]] = (bi as u32, k as u32);
                cursor[r as usize] += 1;
            }
        }
    }

    // Symbolic: distinct columns of each output row.
    let mut sizes = vec![0u64; nrows];
    {
        let out = DisjointSlice::new(&mut sizes);
        let src = &src;
        let src_off = &src_off;
        pool.for_each_guided(nrows, GUIDED_CHUNK, |range| {
            for r in range {
                let sources = &src[src_off[r]..src_off[r + 1]];
                let n = match sources {
                    [] => 0,
                    [(bi, k)] => {
                        let (_, cols, _) = blocks[*bi as usize].row(*k as usize);
                        cols.len()
                    }
                    _ => merge_row(sources, blocks, |_, _| {}),
                };
                // one writer per output row
                unsafe { out.write(r, n as u64) };
            }
        });
    }

    let total = exclusive_scan(&mut sizes, pool) as usize;
    let mut indptr = Vec::with_capacity(nrows + 1);
    indptr.extend(sizes.iter().map(|&s| s as usize));
    indptr.push(total);

    // Numeric: merge every row into its pre-offset slot.
    let mut indices = vec![0 as ColIndex; total];
    let mut values = vec![T::ZERO; total];
    {
        let out_idx = DisjointSlice::new(&mut indices);
        let out_val = DisjointSlice::new(&mut values);
        let src = &src;
        let src_off = &src_off;
        let indptr = &indptr;
        pool.for_each_guided(nrows, GUIDED_CHUNK, |range| {
            for r in range {
                let sources = &src[src_off[r]..src_off[r + 1]];
                let mut at = indptr[r];
                match sources {
                    [] => {}
                    [(bi, k)] => {
                        let (_, cols, vals) = blocks[*bi as usize].row(*k as usize);
                        // rows own disjoint indptr ranges
                        unsafe {
                            out_idx.write_slice(at, cols);
                            out_val.write_slice(at, vals);
                        }
                    }
                    _ => {
                        merge_row(sources, blocks, |c, v| {
                            unsafe {
                                out_idx.write(at, c);
                                out_val.write(at, v);
                            }
                            at += 1;
                        });
                    }
                }
            }
        });
    }

    CsrMatrix::from_parts_unchecked(nrows, ncols, indptr, indices, values)
}

/// k-way merge of one output row's sources (each column-sorted), summing
/// values of columns shared between sources. Calls `emit(col, sum)` in
/// ascending column order and returns the number of distinct columns.
/// Each sum starts from `T::ZERO` and adds the sources' values in source
/// order — the arithmetic the batched executor's
/// [`fold_into`](spmm_sparse::SparseAccumulator::fold_into) reproduces.
fn merge_row<T: Scalar, F: FnMut(ColIndex, T)>(
    sources: &[(u32, u32)],
    blocks: &[RowBlock<T>],
    mut emit: F,
) -> usize {
    let mut runs: Vec<(&[ColIndex], &[T], usize)> = sources
        .iter()
        .map(|&(bi, k)| {
            let (_, cols, vals) = blocks[bi as usize].row(k as usize);
            (cols, vals, 0usize)
        })
        .collect();
    let mut distinct = 0;
    loop {
        let mut min: Option<ColIndex> = None;
        for &(cols, _, pos) in &runs {
            if pos < cols.len() {
                min = Some(min.map_or(cols[pos], |m: ColIndex| m.min(cols[pos])));
            }
        }
        let Some(col) = min else { break };
        let mut sum = T::ZERO;
        for (cols, vals, pos) in &mut runs {
            if *pos < cols.len() && cols[*pos] == col {
                sum += vals[*pos];
                *pos += 1;
            }
        }
        emit(col, sum);
        distinct += 1;
    }
    distinct
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> ThreadPool {
        ThreadPool::new(4)
    }

    #[test]
    fn merges_duplicates_like_the_paper_figure4() {
        // Figure 4's like-tuples: (0,1) three times, (2,0) twice, (1,1)
        // once. Each contribution lives in its own partial block, so the
        // per-row merge must sum them exactly as the sort-based recipe does.
        let block = |rows: Vec<u32>, cols: Vec<ColIndex>, vals: Vec<f64>| RowBlock {
            indptr: (0..=rows.len()).collect(),
            rows,
            indices: cols,
            values: vals,
        };
        let blocks = [
            block(vec![0, 2], vec![1, 0], vec![1.0, 5.0]),
            block(vec![0, 1, 2], vec![1, 1, 0], vec![2.0, -1.0, 5.0]),
            block(vec![0], vec![1], vec![4.0]),
        ];
        let c = concat_row_blocks(&blocks, (3, 3), &pool());
        assert_eq!(c.nnz(), 3);
        assert_eq!(c.get(0, 1), 7.0);
        assert_eq!(c.get(1, 1), -1.0);
        assert_eq!(c.get(2, 0), 10.0);
    }

    #[test]
    fn no_blocks_give_zero_matrix() {
        let c: CsrMatrix<f64> = concat_row_blocks(&[], (4, 5), &pool());
        assert_eq!(c.shape(), (4, 5));
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    fn sums_columns_shared_between_blocks() {
        // Row 1 appears in both blocks; column 2 is shared and must sum.
        let lhs = RowBlock {
            rows: vec![1],
            indptr: vec![0, 2],
            indices: vec![0, 2],
            values: vec![1.0, 2.0],
        };
        let rhs = RowBlock {
            rows: vec![1, 2],
            indptr: vec![0, 2, 3],
            indices: vec![2, 3, 1],
            values: vec![5.0, 7.0, 9.0],
        };
        let c = concat_row_blocks(&[lhs, rhs], (3, 4), &pool());
        assert_eq!(c.nnz(), 4);
        assert_eq!(c.get(1, 0), 1.0);
        assert_eq!(c.get(1, 2), 7.0);
        assert_eq!(c.get(1, 3), 7.0);
        assert_eq!(c.get(2, 1), 9.0);
    }

    #[test]
    fn four_masked_partial_blocks_assemble_the_reference_product() {
        use crate::kernels::{row_products, rows_where};
        use spmm_scalefree::{scale_free_matrix, GeneratorConfig};
        use spmm_sparse::reference;

        let pool = pool();
        let a = scale_free_matrix(&GeneratorConfig::square_power_law(300, 1_800, 2.3, 41));
        // split rows of A (as producers and as B-mask) at the median size
        let t = a.mean_row_nnz().ceil() as usize;
        let mask: Vec<bool> = (0..a.nrows()).map(|i| a.row_nnz(i) >= t).collect();
        let inv: Vec<bool> = mask.iter().map(|&m| !m).collect();
        let high = rows_where(&mask, true);
        let low = rows_where(&mask, false);

        let blocks: Vec<RowBlock<f64>> = [
            row_products(&a, &a, &high, Some(&mask), &pool),
            row_products(&a, &a, &high, Some(&inv), &pool),
            row_products(&a, &a, &low, Some(&mask), &pool),
            row_products(&a, &a, &low, Some(&inv), &pool),
        ]
        .into();
        let c = concat_row_blocks(&blocks, (a.nrows(), a.nrows()), &pool);
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        assert!(c.approx_eq(&expected, 1e-9, 1e-12));
    }
}
