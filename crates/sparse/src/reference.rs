//! Serial reference kernels.
//!
//! Every heterogeneous algorithm in the workspace is tested against
//! [`spmm_rowrow`], the classic Gustavson row-row formulation (§II-A of the
//! paper; Gustavson 1978 is the paper's reference [7]). [`spmm_claims`]
//! runs the same product claim by claim and sums the partial products per
//! output row, the serial oracle the host engine's executor is pinned
//! against bit for bit. Also provided: spmv, sparse × dense, and the
//! work-volume measure (`flops`) that the device cost models and
//! load-balancing analyses are built on.

use crate::{ColIndex, CsrMatrix, DenseMatrix, Scalar, SparseError};

/// Check multiplication compatibility.
fn check_shapes<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Result<(), SparseError> {
    if a.ncols() != b.nrows() {
        Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
        })
    } else {
        Ok(())
    }
}

/// Serial Gustavson row-row spmm: `C(i,:) = Σ_k A(i, j_k) · B(j_k, :)`.
///
/// Uses a sparse accumulator (SPA): a dense value array plus an occupancy
/// stamp, reset lazily per row. `O(flops + nnz(C) log row_nnz(C))` time,
/// `O(ncols(B))` extra space.
pub fn spmm_rowrow<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
) -> Result<CsrMatrix<T>, SparseError> {
    check_shapes(a, b)?;
    let n = b.ncols();
    let mut acc = vec![T::ZERO; n];
    let mut stamp = vec![u32::MAX; n];
    let mut touched: Vec<ColIndex> = Vec::new();

    let mut indptr = Vec::with_capacity(a.nrows() + 1);
    let mut indices: Vec<ColIndex> = Vec::new();
    let mut values: Vec<T> = Vec::new();
    indptr.push(0);

    for i in 0..a.nrows() {
        let row_stamp = i as u32;
        touched.clear();
        let (acols, avals) = a.row(i);
        for (&j, &aij) in acols.iter().zip(avals) {
            let (bcols, bvals) = b.row(j as usize);
            for (&c, &bjc) in bcols.iter().zip(bvals) {
                let cu = c as usize;
                if stamp[cu] != row_stamp {
                    stamp[cu] = row_stamp;
                    acc[cu] = aij * bjc;
                    touched.push(c);
                } else {
                    acc[cu] += aij * bjc;
                }
            }
        }
        touched.sort_unstable();
        for &c in &touched {
            indices.push(c);
            values.push(acc[c as usize]);
        }
        indptr.push(indices.len());
    }
    Ok(CsrMatrix::from_parts_unchecked(
        a.nrows(),
        b.ncols(),
        indptr,
        indices,
        values,
    ))
}

/// Serial oracle for a claim schedule: the product assembled from
/// partial products over row subsets of `A` and masked halves of `B`, as
/// the paper's Phases II–IV produce it.
///
/// Each claim `(rows, b_mask)` multiplies its rows of `a` against the rows
/// of `b` its mask keeps (`None` ⇒ all), with [`spmm_rowrow`]'s own
/// accumulation: first touch stores `a·b`, later touches `+=`, columns
/// sorted. Phase IV then combines the runs per output row: a row with one
/// run keeps it verbatim; a row with several sums each column from
/// `T::ZERO` in claim order (so a lone `-0.0` becomes `+0.0`). Rows no
/// claim lists stay empty. Returns C and each claim's stored-entry count
/// (the tuples the paper's kernels hand to Phase IV).
pub fn spmm_claims<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    claims: &[(&[usize], Option<&[bool]>)],
) -> Result<(CsrMatrix<T>, Vec<usize>), SparseError> {
    check_shapes(a, b)?;
    let n = b.ncols();
    let mut acc = vec![T::ZERO; n];
    let mut stamp = vec![usize::MAX; n];
    let mut touched: Vec<ColIndex> = Vec::new();
    let mut run_id = 0;

    // Every output row's runs, in claim order.
    let mut runs: Vec<Vec<(Vec<ColIndex>, Vec<T>)>> = vec![Vec::new(); a.nrows()];
    let mut counts = Vec::with_capacity(claims.len());
    for &(rows, b_mask) in claims {
        let mut count = 0;
        for &i in rows {
            touched.clear();
            let (acols, avals) = a.row(i);
            for (&j, &aij) in acols.iter().zip(avals) {
                if b_mask.is_some_and(|m| !m[j as usize]) {
                    continue;
                }
                let (bcols, bvals) = b.row(j as usize);
                for (&c, &bjc) in bcols.iter().zip(bvals) {
                    let cu = c as usize;
                    if stamp[cu] != run_id {
                        stamp[cu] = run_id;
                        acc[cu] = aij * bjc;
                        touched.push(c);
                    } else {
                        acc[cu] += aij * bjc;
                    }
                }
            }
            run_id += 1;
            touched.sort_unstable();
            count += touched.len();
            let vals = touched.iter().map(|&c| acc[c as usize]).collect();
            runs[i].push((touched.clone(), vals));
        }
        counts.push(count);
    }

    let mut indptr = Vec::with_capacity(a.nrows() + 1);
    let mut indices: Vec<ColIndex> = Vec::new();
    let mut values: Vec<T> = Vec::new();
    indptr.push(0);
    for row_runs in &runs {
        if let [(cols, vals)] = row_runs.as_slice() {
            indices.extend_from_slice(cols);
            values.extend_from_slice(vals);
        } else {
            touched.clear();
            for (cols, vals) in row_runs {
                for (&c, &v) in cols.iter().zip(vals) {
                    let cu = c as usize;
                    if stamp[cu] != run_id {
                        stamp[cu] = run_id;
                        acc[cu] = T::ZERO;
                        touched.push(c);
                    }
                    acc[cu] += v;
                }
            }
            run_id += 1;
            touched.sort_unstable();
            indices.extend_from_slice(&touched);
            values.extend(touched.iter().map(|&c| acc[c as usize]));
        }
        indptr.push(indices.len());
    }
    let c = CsrMatrix::from_parts_unchecked(a.nrows(), b.ncols(), indptr, indices, values);
    Ok((c, counts))
}

/// Sparse matrix × dense vector.
pub fn spmv<T: Scalar>(a: &CsrMatrix<T>, x: &[T]) -> Result<Vec<T>, SparseError> {
    if x.len() != a.ncols() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: (x.len(), 1),
        });
    }
    let mut y = vec![T::ZERO; a.nrows()];
    for (i, yi) in y.iter_mut().enumerate() {
        let (cols, vals) = a.row(i);
        let mut sum = T::ZERO;
        for (&c, &v) in cols.iter().zip(vals) {
            sum += v * x[c as usize];
        }
        *yi = sum;
    }
    Ok(y)
}

/// Sparse × dense (the `csrmm` of the paper's conclusion, §VI).
pub fn csrmm<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &DenseMatrix<T>,
) -> Result<DenseMatrix<T>, SparseError> {
    if a.ncols() != b.nrows() {
        return Err(SparseError::ShapeMismatch {
            left: a.shape(),
            right: b.shape(),
        });
    }
    let mut out = DenseMatrix::zeros(a.nrows(), b.ncols());
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        for (&j, &aij) in cols.iter().zip(vals) {
            let brow = b.row(j as usize);
            let orow = out.row_mut(i);
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += aij * bv;
            }
        }
    }
    Ok(out)
}

/// Multiply-add count of the row-row product `A × B`:
/// `Σ_i Σ_{j ∈ A(i,:)} nnz(B(j,:))`.
///
/// This is the true work volume the paper says is "difficult to know …
/// a-priori" per output row (§I) — computing it costs a full pass over `A`
/// against `B`'s row sizes, which is exactly why the paper's Phase III needs
/// dynamic balancing rather than a static estimate.
pub fn flops<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> u64 {
    let mut total = 0u64;
    for i in 0..a.nrows() {
        let (cols, _) = a.row(i);
        for &j in cols {
            total += b.row_nnz(j as usize) as u64;
        }
    }
    total
}

/// Per-row multiply-add counts (work volume of each output row).
pub fn row_flops<T: Scalar>(a: &CsrMatrix<T>, b: &CsrMatrix<T>) -> Vec<u64> {
    (0..a.nrows())
        .map(|i| {
            let (cols, _) = a.row(i);
            cols.iter().map(|&j| b.row_nnz(j as usize) as u64).sum()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    /// The paper's Figure 2 example.
    fn fig2() -> (CsrMatrix<f64>, CsrMatrix<f64>) {
        let a = CsrMatrix::try_new(
            4,
            4,
            vec![0, 2, 4, 6, 8],
            vec![1, 2, 2, 3, 0, 2, 0, 3],
            vec![2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 4.0],
        )
        .unwrap();
        let b = CsrMatrix::try_new(
            4,
            3,
            vec![0, 3, 4, 5, 6],
            vec![0, 1, 2, 0, 2, 1],
            vec![2.0, 3.0, 4.0, 8.0, 6.0, 7.0],
        )
        .unwrap();
        (a, b)
    }

    #[test]
    fn rowrow_matches_paper_fig2() {
        let (a, b) = fig2();
        let c = spmm_rowrow(&a, &b).unwrap();
        assert_eq!(c.get(0, 0), 16.0);
        assert_eq!(c.get(0, 2), 6.0);
        assert_eq!(c.get(1, 1), 7.0);
        assert_eq!(c.get(1, 2), 6.0);
        assert_eq!(c.get(2, 0), 2.0);
        assert_eq!(c.get(2, 1), 3.0);
        assert_eq!(c.get(2, 2), 10.0);
        assert_eq!(c.get(3, 0), 4.0);
        assert_eq!(c.get(3, 1), 34.0);
        assert_eq!(c.get(3, 2), 8.0);
    }

    #[test]
    fn rowrow_matches_dense_oracle() {
        let (a, b) = fig2();
        let c = spmm_rowrow(&a, &b).unwrap();
        let dense = a.to_dense().matmul(&b.to_dense());
        assert!(c.to_dense().approx_eq(&dense, 1e-12, 1e-12));
    }

    #[test]
    fn shape_mismatch_detected() {
        let (a, b) = fig2();
        assert!(spmm_rowrow(&b, &a).is_err()); // 4x3 * 4x4
    }

    #[test]
    fn identity_is_neutral() {
        let (a, _) = fig2();
        let i = CsrMatrix::identity(4);
        assert_eq!(spmm_rowrow(&a, &i).unwrap(), a);
        assert_eq!(spmm_rowrow(&i, &a).unwrap(), a);
    }

    #[test]
    fn spmv_basic() {
        let (a, _) = fig2();
        let y = spmv(&a, &[1.0, 1.0, 1.0, 1.0]).unwrap();
        assert_eq!(y, vec![3.0, 2.0, 2.0, 6.0]);
        assert!(spmv(&a, &[1.0]).is_err());
    }

    #[test]
    fn csrmm_matches_dense() {
        let (a, b) = fig2();
        let bd = b.to_dense();
        let c = csrmm(&a, &bd).unwrap();
        assert!(c.approx_eq(&a.to_dense().matmul(&bd), 1e-12, 1e-12));
    }

    #[test]
    fn flops_counts_multiplications() {
        let (a, b) = fig2();
        // A row 0 hits B rows 1 (1 nnz) and 2 (1 nnz): 2 flops, etc.
        let per_row = row_flops(&a, &b);
        assert_eq!(per_row, vec![2, 2, 4, 4]);
        assert_eq!(flops(&a, &b), 12);
    }

    /// Run claims whose claim `k` yields exactly the tuples `blocks[k]`
    /// through [`spmm_claims`]: B stacks one `ncols × ncols` identity per
    /// claim and claim `k` keeps only its own, so `A(r, k·ncols + c) = v`
    /// puts `v` at `(r, c)` in claim `k`'s run.
    fn run_claims(
        blocks: &[&[(usize, usize, f64)]],
        (nrows, ncols): (usize, usize),
    ) -> (CsrMatrix<f64>, Vec<usize>) {
        let stacked = blocks.len() * ncols;
        let mut a = CooMatrix::new(nrows, stacked);
        let mut b = CooMatrix::new(stacked, ncols);
        for j in 0..stacked {
            b.push(j, j % ncols, 1.0);
        }
        let mut rows: Vec<Vec<usize>> = Vec::new();
        let mut masks: Vec<Vec<bool>> = Vec::new();
        for (k, block) in blocks.iter().enumerate() {
            let mut claim_rows: Vec<usize> = block.iter().map(|&(r, _, _)| r).collect();
            claim_rows.dedup();
            for &(r, c, v) in *block {
                a.push(r, k * ncols + c, v);
            }
            rows.push(claim_rows);
            masks.push((0..stacked).map(|j| j / ncols == k).collect());
        }
        let claims: Vec<(&[usize], Option<&[bool]>)> = rows
            .iter()
            .zip(&masks)
            .map(|(r, m)| (r.as_slice(), Some(m.as_slice())))
            .collect();
        spmm_claims(&a.to_csr().unwrap(), &b.to_csr().unwrap(), &claims).unwrap()
    }

    #[test]
    fn claims_sum_like_tuples_as_in_paper_figure4() {
        // Figure 4's like-tuples: (0,1) three times, (2,0) twice, (1,1)
        // once, each contribution in its own claim's run
        let (c, counts) = run_claims(
            &[
                &[(0, 1, 1.0), (2, 0, 5.0)],
                &[(0, 1, 2.0), (1, 1, -1.0), (2, 0, 5.0)],
                &[(0, 1, 4.0)],
            ],
            (3, 3),
        );
        assert_eq!(c.nnz(), 3);
        assert_eq!(c.get(0, 1), 7.0);
        assert_eq!(c.get(1, 1), -1.0);
        assert_eq!(c.get(2, 0), 10.0);
        assert_eq!(counts, vec![2, 3, 1]);
    }

    #[test]
    fn claims_sum_columns_shared_between_claims() {
        // row 1 appears in both claims; column 2 is shared and must sum
        let (c, counts) = run_claims(
            &[
                &[(1, 0, 1.0), (1, 2, 2.0)],
                &[(1, 2, 5.0), (1, 3, 7.0), (2, 1, 9.0)],
            ],
            (3, 4),
        );
        assert_eq!(c.nnz(), 4);
        assert_eq!(c.row(1).0, &[0, 2, 3]);
        assert_eq!(c.get(1, 0), 1.0);
        assert_eq!(c.get(1, 2), 7.0);
        assert_eq!(c.get(1, 3), 7.0);
        assert_eq!(c.get(2, 1), 9.0);
        assert_eq!(counts, vec![2, 3]);
    }

    #[test]
    fn no_claims_give_the_zero_matrix() {
        let (a, b) = fig2();
        let (c, counts) = spmm_claims(&a, &b, &[]).unwrap();
        assert_eq!(c.shape(), (4, 3));
        assert_eq!(c.nnz(), 0);
        assert!(counts.is_empty());
        assert!(spmm_claims(&b, &a, &[]).is_err());
    }

    #[test]
    fn one_claim_row_keeps_negative_zero_and_two_claims_sum_from_zero() {
        let (c, _) = run_claims(&[&[(0, 0, -0.0), (1, 0, -0.0)], &[(1, 0, -0.0)]], (2, 1));
        assert_eq!(c.nnz(), 2);
        assert_eq!(c.get(0, 0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(c.get(1, 0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn one_unmasked_claim_is_the_rowrow_product_bit_for_bit() {
        let (a, b) = fig2();
        let all: Vec<usize> = (0..a.nrows()).collect();
        let (c, counts) = spmm_claims(&a, &b, &[(&all, None)]).unwrap();
        let expected = spmm_rowrow(&a, &b).unwrap();
        assert!(c.bit_eq(&expected));
        assert_eq!(counts, vec![expected.nnz()]);
    }

    #[test]
    fn empty_rows_produce_empty_output_rows() {
        let a = CsrMatrix::<f64>::zeros(3, 3);
        let b = CsrMatrix::<f64>::identity(3);
        let c = spmm_rowrow(&a, &b).unwrap();
        assert_eq!(c.nnz(), 0);
    }
}
