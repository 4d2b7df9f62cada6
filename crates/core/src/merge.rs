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
//!
//! The remaining functions are the production executor's merge kernels:
//! two-run and set-touch merges over scaled B rows that sum in exactly the
//! order `concat_row_blocks` does, so both executors agree bit for bit.

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

/// [`merge2_sorted`] with the run scaling folded into the merge: run `k`
/// is the B row `(ck, vk)` scaled by `sk`, never materialised. The fused
/// multi pass uses this when both claims of an output row have exactly one
/// masked source — the runs a scatter + drain would produce are the scaled
/// B rows verbatim (ascending, collision-free), so merging straight from
/// B skips the accumulator and the scratch writes entirely. Each emitted
/// value is `T::ZERO + sk * vk[i]` in run order — the product is the very
/// multiply `scatter_row` performs and the accumulation is the generic
/// loop's, so the bits match the materialised merge exactly. Either side
/// may be empty (a claim whose mask excludes every source).
pub(crate) fn merge2_scaled<T: Scalar, F: FnMut(ColIndex, T)>(
    s0: T,
    c0: &[ColIndex],
    v0: &[T],
    s1: T,
    c1: &[ColIndex],
    v1: &[T],
    mut emit: F,
) -> usize {
    let (mut i, mut j) = (0usize, 0usize);
    let mut distinct = 0usize;
    while i < c0.len() && j < c1.len() {
        let (a, b) = (c0[i], c1[j]);
        let mut sum = T::ZERO;
        let col = a.min(b);
        if a <= b {
            sum += s0 * v0[i];
            i += 1;
        }
        if b <= a {
            sum += s1 * v1[j];
            j += 1;
        }
        emit(col, sum);
        distinct += 1;
    }
    while i < c0.len() {
        let mut sum = T::ZERO;
        sum += s0 * v0[i];
        emit(c0[i], sum);
        i += 1;
        distinct += 1;
    }
    while j < c1.len() {
        let mut sum = T::ZERO;
        sum += s1 * v1[j];
        emit(c1[j], sum);
        j += 1;
        distinct += 1;
    }
    distinct
}

/// Materialise one *run* with exactly two masked sources as a direct merge
/// of the two scaled B rows, mirroring the accumulator's first-touch
/// semantics instead of [`merge2_scaled`]'s run-merge semantics: a column
/// hit by one source emits `sk * vk` verbatim (scatter's first touch
/// *sets* the product), and a collision emits `s0*v0 + s1*v1` — the
/// `values[c] += val` the accumulator performs on the second visit, in
/// the same source order (side 0 must be the earlier A-row entry). Output
/// is ascending by column, exactly a `drain_sorted` — so the scatter, the
/// touched-list sort, and the gather all disappear. Returns distinct
/// columns (the run's nnz).
pub(crate) fn merge2_scaled_set<T: Scalar, F: FnMut(ColIndex, T)>(
    s0: T,
    c0: &[ColIndex],
    v0: &[T],
    s1: T,
    c1: &[ColIndex],
    v1: &[T],
    mut emit: F,
) -> usize {
    let (mut i, mut j) = (0usize, 0usize);
    let mut distinct = 0usize;
    while i < c0.len() && j < c1.len() {
        let (a, b) = (c0[i], c1[j]);
        if a < b {
            emit(a, s0 * v0[i]);
            i += 1;
        } else if b < a {
            emit(b, s1 * v1[j]);
            j += 1;
        } else {
            let mut sum = s0 * v0[i];
            sum += s1 * v1[j];
            emit(a, sum);
            i += 1;
            j += 1;
        }
        distinct += 1;
    }
    while i < c0.len() {
        emit(c0[i], s0 * v0[i]);
        i += 1;
        distinct += 1;
    }
    while j < c1.len() {
        emit(c1[j], s1 * v1[j]);
        j += 1;
        distinct += 1;
    }
    distinct
}

/// Ping-pong buffers for [`merge_scaled_set`]'s cascade intermediates.
/// One per worker, reused across rows — capacities grow to the largest
/// run and stay.
pub(crate) struct MergeScratch<T> {
    c0: Vec<ColIndex>,
    v0: Vec<T>,
    c1: Vec<ColIndex>,
    v1: Vec<T>,
}

impl<T> Default for MergeScratch<T> {
    fn default() -> Self {
        Self {
            c0: Vec::new(),
            v0: Vec::new(),
            c1: Vec::new(),
            v1: Vec::new(),
        }
    }
}

/// One step of the cascade: the left run is an already-materialised
/// prefix (values verbatim — each column holds its fold over the runs
/// merged so far), the right run is the next scaled B row. A column only
/// in the prefix passes through untouched; first touch from the right
/// *sets* `s1 * v` (the scatter's first visit); a collision appends
/// `+=` to the prefix — the accumulator's next visit in source order.
fn merge2_mixed_set<T: Scalar, F: FnMut(ColIndex, T)>(
    c0: &[ColIndex],
    v0: &[T],
    s1: T,
    c1: &[ColIndex],
    v1: &[T],
    mut emit: F,
) -> usize {
    let (mut i, mut j) = (0usize, 0usize);
    let mut distinct = 0usize;
    while i < c0.len() && j < c1.len() {
        let (a, b) = (c0[i], c1[j]);
        if a < b {
            emit(a, v0[i]);
            i += 1;
        } else if b < a {
            emit(b, s1 * v1[j]);
            j += 1;
        } else {
            let mut sum = v0[i];
            sum += s1 * v1[j];
            emit(a, sum);
            i += 1;
            j += 1;
        }
        distinct += 1;
    }
    while i < c0.len() {
        emit(c0[i], v0[i]);
        i += 1;
        distinct += 1;
    }
    while j < c1.len() {
        emit(c1[j], s1 * v1[j]);
        j += 1;
        distinct += 1;
    }
    distinct
}

/// [`merge2_scaled_set`] generalised to k scaled B rows: materialise a run
/// with `runs.len()` masked sources without touching an accumulator.
/// `runs` must be ordered by the sources' A-row positions — the
/// accumulator visits sources in exactly that order, so accumulating a
/// shared column in run order (first contributing run *sets* `s * v`,
/// later ones `+=`) reproduces the scatter's bits: same first touch, same
/// add sequence, ascending drain.
///
/// Shape: a left-associated cascade of two-cursor merges through the
/// ping-pong scratch. After merging runs `0..m`, the prefix holds each
/// column's fold over those runs in run order, so merging run `m` appends
/// exactly the accumulator's next `+=` — the same bits as a k-pointer
/// visit-order loop, without its two scans of every cursor per emitted
/// column. The intermediates cost extra copies, but each step is the
/// branch-predictable two-run merge, which wins for the small k the
/// caller caps at
/// [`SET_MERGE_MAX_K`](spmm_sparse::upper_bound::SET_MERGE_MAX_K).
pub(crate) fn merge_scaled_set<T: Scalar, F: FnMut(ColIndex, T)>(
    runs: &[(T, &[ColIndex], &[T])],
    scratch: &mut MergeScratch<T>,
    emit: F,
) -> usize {
    debug_assert!(runs.len() >= 2);
    if runs.len() == 2 {
        let (s0, c0, v0) = runs[0];
        let (s1, c1, v1) = runs[1];
        return merge2_scaled_set(s0, c0, v0, s1, c1, v1, emit);
    }
    let MergeScratch { c0, v0, c1, v1 } = scratch;
    c0.clear();
    v0.clear();
    {
        let (sa, ca, va) = runs[0];
        let (sb, cb, vb) = runs[1];
        merge2_scaled_set(sa, ca, va, sb, cb, vb, |c, v| {
            c0.push(c);
            v0.push(v);
        });
    }
    let (mut cur_c, mut cur_v, mut spare_c, mut spare_v) = (c0, v0, c1, v1);
    for &(s, cb, vb) in &runs[2..runs.len() - 1] {
        spare_c.clear();
        spare_v.clear();
        merge2_mixed_set(cur_c, cur_v, s, cb, vb, |c, v| {
            spare_c.push(c);
            spare_v.push(v);
        });
        std::mem::swap(&mut cur_c, &mut spare_c);
        std::mem::swap(&mut cur_v, &mut spare_v);
    }
    let &(s, cb, vb) = runs.last().expect("len >= 3");
    merge2_mixed_set(cur_c, cur_v, s, cb, vb, emit)
}

/// Two-run merge, the overwhelmingly common case (one output row appears
/// in at most one block per B-mask half, and the masks split in two). The
/// generic k-way loop below re-scans every run per emitted column; this
/// walks both runs with two cursors and one three-way compare per output —
/// straight-line code the compiler can branch-predict and unroll.
///
/// Each emitted value is `T::ZERO` + the run contributions in run order —
/// exactly the generic loop's accumulation, so the output bits are
/// identical (including the `+0.0` normalization of `-0.0` entries).
pub(crate) fn merge2_sorted<T: Scalar, F: FnMut(ColIndex, T)>(
    c0: &[ColIndex],
    v0: &[T],
    c1: &[ColIndex],
    v1: &[T],
    mut emit: F,
) -> usize {
    let (mut i, mut j) = (0usize, 0usize);
    let mut distinct = 0usize;
    while i < c0.len() && j < c1.len() {
        let (a, b) = (c0[i], c1[j]);
        let mut sum = T::ZERO;
        let col = a.min(b);
        if a <= b {
            sum += v0[i];
            i += 1;
        }
        if b <= a {
            sum += v1[j];
            j += 1;
        }
        emit(col, sum);
        distinct += 1;
    }
    while i < c0.len() {
        let mut sum = T::ZERO;
        sum += v0[i];
        emit(c0[i], sum);
        i += 1;
        distinct += 1;
    }
    while j < c1.len() {
        let mut sum = T::ZERO;
        sum += v1[j];
        emit(c1[j], sum);
        j += 1;
        distinct += 1;
    }
    distinct
}

/// k-way merge of one output row's sources (each column-sorted), summing
/// values of columns shared between sources. Calls `emit(col, sum)` in
/// ascending column order and returns the number of distinct columns.
/// Two-source rows take [`merge2_sorted`]; the min-scan loop handles k > 2.
fn merge_row<T: Scalar, F: FnMut(ColIndex, T)>(
    sources: &[(u32, u32)],
    blocks: &[RowBlock<T>],
    mut emit: F,
) -> usize {
    if let [(b0, k0), (b1, k1)] = *sources {
        let (_, c0, v0) = blocks[b0 as usize].row(k0 as usize);
        let (_, c1, v1) = blocks[b1 as usize].row(k1 as usize);
        return merge2_sorted(c0, v0, c1, v1, emit);
    }
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
    use spmm_rng::{Rng, StdRng};

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

    /// The 2-run fast path must emit exactly what the generic min-scan
    /// loop emits, bit for bit — including `-0.0` entries, which the
    /// `T::ZERO + v` accumulation normalizes to `+0.0` in both.
    #[test]
    fn merge2_matches_generic_kway_bitwise() {
        let mut rng = StdRng::seed_from_u64(123);
        for trial in 0..20 {
            let make_run = |rng: &mut StdRng, n: usize| {
                let mut cols: Vec<ColIndex> = (0..n as u32 * 3).collect();
                // random subset, kept sorted
                cols.retain(|_| rng.gen_range(0..3u32) == 0);
                let vals: Vec<f64> = cols
                    .iter()
                    .map(|_| match rng.gen_range(0..10u32) {
                        0 => -0.0,
                        1 => 0.0,
                        _ => rng.gen_range(-1.0..1.0),
                    })
                    .collect();
                (cols, vals)
            };
            let (c0, v0) = make_run(&mut rng, 10 + trial);
            let (c1, v1) = make_run(&mut rng, 10 + trial);
            let blocks = vec![RowBlock {
                rows: vec![0, 0],
                indptr: vec![0, c0.len(), c0.len() + c1.len()],
                indices: c0.iter().chain(&c1).copied().collect(),
                values: v0.iter().chain(&v1).copied().collect(),
            }];
            // generic loop, forced by a 3-source list whose third run is empty
            let empty = RowBlock::<f64> {
                rows: vec![0],
                indptr: vec![0, 0],
                indices: vec![],
                values: vec![],
            };
            let mut all = blocks;
            all.push(empty);
            let mut via_generic = Vec::new();
            let n_generic = merge_row(&[(0, 0), (0, 1), (1, 0)], &all, |c, v| {
                via_generic.push((c, v.to_bits()))
            });
            let mut via_fast = Vec::new();
            let n_fast = merge2_sorted(&c0, &v0, &c1, &v1, |c, v| via_fast.push((c, v.to_bits())));
            assert_eq!(n_generic, n_fast, "trial {trial}");
            assert_eq!(via_generic, via_fast, "trial {trial}");
        }
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
