//! Compressed sparse row storage — the working format of every row-row
//! kernel in the workspace.

use crate::{coo::CooMatrix, csc::CscMatrix, dense::DenseMatrix, ColIndex, Scalar, SparseError};

/// A sparse matrix in CSR (compressed sparse row) form.
///
/// Rows are contiguous: row `i` occupies `indices[indptr[i]..indptr[i+1]]`
/// and the matching slice of `values`. Column indices within a row are kept
/// sorted and duplicate-free; constructors enforce this (or sort on demand).
///
/// This is the layout assumed by the paper's Row-Row formulation (§II-A):
/// computing `C(i,:)` walks `A`'s row `i` and, for each nonzero column `j`,
/// walks `B`'s row `j`.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix<T> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<ColIndex>,
    values: Vec<T>,
}

impl<T: Scalar> CsrMatrix<T> {
    /// Build a CSR matrix from raw parts, validating every structural
    /// invariant (monotone `indptr`, in-bounds sorted unique indices,
    /// matching lengths).
    pub fn try_new(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<ColIndex>,
        values: Vec<T>,
    ) -> Result<Self, SparseError> {
        if indptr.len() != nrows + 1 {
            return Err(SparseError::MalformedIndptr(format!(
                "expected len {} got {}",
                nrows + 1,
                indptr.len()
            )));
        }
        if indptr[0] != 0 {
            return Err(SparseError::MalformedIndptr("indptr[0] != 0".into()));
        }
        if *indptr.last().unwrap() != indices.len() {
            return Err(SparseError::MalformedIndptr(format!(
                "indptr[last] = {} but nnz = {}",
                indptr.last().unwrap(),
                indices.len()
            )));
        }
        if indices.len() != values.len() {
            return Err(SparseError::LengthMismatch {
                indices: indices.len(),
                values: values.len(),
            });
        }
        for w in indptr.windows(2) {
            if w[0] > w[1] {
                return Err(SparseError::MalformedIndptr("indptr not monotone".into()));
            }
        }
        for row in 0..nrows {
            let cols = &indices[indptr[row]..indptr[row + 1]];
            for (k, &c) in cols.iter().enumerate() {
                if c as usize >= ncols {
                    return Err(SparseError::ColumnOutOfBounds {
                        row,
                        col: c as usize,
                        ncols,
                    });
                }
                if k > 0 && cols[k - 1] >= c {
                    return Err(SparseError::MalformedIndptr(format!(
                        "row {row} indices not sorted/unique"
                    )));
                }
            }
        }
        Ok(Self {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        })
    }

    /// Build from raw parts without validation.
    ///
    /// Not `unsafe` in the memory-safety sense (all accesses stay bounds
    /// checked), but callers must uphold the structural invariants or later
    /// operations will return wrong results. Kernels that construct outputs
    /// row-by-row use this to skip the `O(nnz)` re-validation.
    pub fn from_parts_unchecked(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<ColIndex>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(indptr.len(), nrows + 1);
        debug_assert_eq!(indices.len(), values.len());
        Self {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// The `nrows x ncols` matrix with no stored entries.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            nrows: n,
            ncols: n,
            indptr: (0..=n).collect(),
            indices: (0..n as ColIndex).collect(),
            values: vec![T::ONE; n],
        }
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Row pointer array (`nrows + 1` entries).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// Column indices of all stored entries, row-major.
    #[inline]
    pub fn indices(&self) -> &[ColIndex] {
        &self.indices
    }

    /// Values of all stored entries, row-major.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Number of stored entries in row `i` — the "row size" the paper's
    /// threshold classifies on.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.indptr[i + 1] - self.indptr[i]
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[ColIndex], &[T]) {
        let range = self.indptr[i]..self.indptr[i + 1];
        (&self.indices[range.clone()], &self.values[range])
    }

    /// Iterator over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.nrows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals)
                .map(move |(&c, &v)| (r, c as usize, v))
        })
    }

    /// Value at `(row, col)`, or `T::ZERO` when not stored. Binary search
    /// within the row; `O(log row_nnz)`.
    pub fn get(&self, row: usize, col: usize) -> T {
        let (cols, vals) = self.row(row);
        match cols.binary_search(&(col as ColIndex)) {
            Ok(k) => vals[k],
            Err(_) => T::ZERO,
        }
    }

    /// Row sizes for every row — the degree sequence whose distribution the
    /// paper fits a power law to (Table I's α column).
    pub fn row_sizes(&self) -> Vec<usize> {
        (0..self.nrows).map(|i| self.row_nnz(i)).collect()
    }

    /// Largest row size.
    pub fn max_row_nnz(&self) -> usize {
        (0..self.nrows).map(|i| self.row_nnz(i)).max().unwrap_or(0)
    }

    /// Average nonzeros per row.
    pub fn mean_row_nnz(&self) -> f64 {
        if self.nrows == 0 {
            0.0
        } else {
            self.nnz() as f64 / self.nrows as f64
        }
    }

    /// Convert to coordinate (triplet) form.
    pub fn to_coo(&self) -> CooMatrix<T> {
        let mut coo = CooMatrix::with_capacity(self.nrows, self.ncols, self.nnz());
        for (r, c, v) in self.iter() {
            coo.push(r, c, v);
        }
        coo
    }

    /// Convert to compressed sparse column form (a counting sort over
    /// columns; `O(nnz + ncols)`).
    pub fn to_csc(&self) -> CscMatrix<T> {
        let mut col_counts = vec![0usize; self.ncols + 1];
        for &c in &self.indices {
            col_counts[c as usize + 1] += 1;
        }
        for i in 0..self.ncols {
            col_counts[i + 1] += col_counts[i];
        }
        let indptr = col_counts.clone();
        let mut cursor = col_counts;
        let mut row_indices = vec![0 as ColIndex; self.nnz()];
        let mut values = vec![T::ZERO; self.nnz()];
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let dst = cursor[c as usize];
                row_indices[dst] = r as ColIndex;
                values[dst] = v;
                cursor[c as usize] += 1;
            }
        }
        CscMatrix::from_parts_unchecked(self.nrows, self.ncols, indptr, row_indices, values)
    }

    /// Transpose. Implemented as a CSC reinterpretation: `Aᵀ` in CSR is `A`
    /// in CSC with rows/columns swapped.
    pub fn transpose(&self) -> CsrMatrix<T> {
        let csc = self.to_csc();
        CsrMatrix::from_parts_unchecked(
            self.ncols,
            self.nrows,
            csc.indptr().to_vec(),
            csc.indices().to_vec(),
            csc.values().to_vec(),
        )
    }

    /// Materialise as a dense matrix (tests / small examples only).
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut d = DenseMatrix::zeros(self.nrows, self.ncols);
        for (r, c, v) in self.iter() {
            *d.get_mut(r, c) += v;
        }
        d
    }

    /// Drop stored entries equal to zero (kernels may produce explicit
    /// zeros through cancellation).
    pub fn prune_zeros(&self) -> CsrMatrix<T> {
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        indptr.push(0);
        for r in 0..self.nrows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                if v != T::ZERO {
                    indices.push(c);
                    values.push(v);
                }
            }
            indptr.push(indices.len());
        }
        CsrMatrix::from_parts_unchecked(self.nrows, self.ncols, indptr, indices, values)
    }

    /// Materialize a contiguous row band `rows` as its own CSR matrix of
    /// shape `(rows.len(), ncols)`. Column indices and value bit patterns
    /// are copied verbatim and row pointers are rebased to the band start,
    /// so row `i` of the band is bit-identical to row `rows.start + i` of
    /// `self`. The sharded SpGEMM driver multiplies each band × full B and
    /// stitches outputs back with the inverse offset fix-up.
    ///
    /// Edge cases: an empty range yields `indptr = [0]`, never `[]` (the
    /// bug a derived `Default` on a CSR-like type invites), and a band of all-empty rows
    /// yields `indptr = [0, 0, ...]` with empty `indices`/`values` — both
    /// are valid CSR and pass [`CsrMatrix::try_new`].
    pub fn row_band(&self, rows: std::ops::Range<usize>) -> CsrMatrix<T> {
        assert!(
            rows.start <= rows.end && rows.end <= self.nrows,
            "row band {}..{} out of bounds for {} rows",
            rows.start,
            rows.end,
            self.nrows
        );
        let base = self.indptr[rows.start];
        let end = self.indptr[rows.end];
        let indptr: Vec<usize> = self.indptr[rows.start..=rows.end]
            .iter()
            .map(|&p| p - base)
            .collect();
        CsrMatrix::from_parts_unchecked(
            rows.len(),
            self.ncols,
            indptr,
            self.indices[base..end].to_vec(),
            self.values[base..end].to_vec(),
        )
    }

    /// Bytes occupied by the CSR arrays — what a CPU→GPU transfer of this
    /// matrix must move over the PCIe link.
    pub fn byte_size(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<ColIndex>()
            + self.values.len() * std::mem::size_of::<T>()
    }

    /// [`CsrMatrix::byte_size`] of the matrix [`CsrMatrix::row_band`]
    /// would return for `rows`, computed from the row pointers alone.
    /// The sharded driver's admission gate prices a band's input bytes
    /// with this before deciding whether to materialize the band at all.
    pub fn row_band_byte_size(&self, rows: std::ops::Range<usize>) -> usize {
        assert!(
            rows.start <= rows.end && rows.end <= self.nrows,
            "row band {}..{} out of bounds for {} rows",
            rows.start,
            rows.end,
            self.nrows
        );
        let nnz = self.indptr[rows.end] - self.indptr[rows.start];
        (rows.len() + 1) * std::mem::size_of::<usize>()
            + nnz * std::mem::size_of::<ColIndex>()
            + nnz * std::mem::size_of::<T>()
    }

    /// Deterministic 64-bit content hash over the exact stored
    /// representation: shape, row pointers, column indices, and the *bit
    /// patterns* of the values. Equal bits ([`Self::bit_eq`]) give equal
    /// hashes, and `-0.0` vs `+0.0` or differently-NaN payloads hash
    /// differently — exactly what a bit-identity contract wants. This keys
    /// the serve layer's matrix registry and doubles as a wire-size proof
    /// of bit equality for results.
    ///
    /// The hash reads u64 words: the shape, the row pointers widened to
    /// u64, the column indices packed two per word (the first in the low
    /// half, as a little-endian load of the pair would read them), then
    /// [`Scalar::value_bits`]. Four independent multiply-rotate lanes (the
    /// xxHash64 round) absorb each section's words in turn, and an
    /// avalanche folds them into one value. It depends on no per-process
    /// state, so every run and every host computes the same hash.
    pub fn content_hash(&self) -> u64 {
        let mut h = WordHash::new();
        h.absorb::<usize, 1>(&[self.nrows, self.ncols], |w| w[0] as u64);
        h.absorb::<usize, 1>(&self.indptr, |w| w[0] as u64);
        h.absorb::<ColIndex, 2>(&self.indices, |w| {
            w[0] as u64 | w.get(1).map_or(0, |&c| (c as u64) << 32)
        });
        h.absorb::<T, 1>(&self.values, |w| w[0].value_bits());
        h.finish()
    }

    /// Bit equality of the stored representation: same shape, row
    /// pointers, column indices and value *bit patterns* (so, unlike `==`,
    /// a NaN equals the same NaN and `-0.0` differs from `+0.0`).
    pub fn bit_eq(&self, other: &Self) -> bool {
        self.shape() == other.shape()
            && self.indptr == other.indptr
            && self.indices == other.indices
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(x, y)| x.value_bits() == y.value_bits())
    }

    /// Element-wise approximate equality; shapes must match and entries are
    /// compared through dense expansion of both (test helper).
    pub fn approx_eq(&self, other: &CsrMatrix<T>, rtol: f64, atol: f64) -> bool {
        if self.shape() != other.shape() {
            return false;
        }
        // Compare as merged sorted triplet streams to avoid dense blowup.
        let a = self.prune_zeros();
        let b = other.prune_zeros();
        for r in 0..a.nrows {
            let (ac, av) = a.row(r);
            let (bc, bv) = b.row(r);
            if ac != bc {
                // Entries may differ only by explicit zeros pruned above —
                // fall back to positional comparison.
                let mut ai = 0;
                let mut bi = 0;
                while ai < ac.len() || bi < bc.len() {
                    let acol = ac.get(ai).copied().unwrap_or(ColIndex::MAX);
                    let bcol = bc.get(bi).copied().unwrap_or(ColIndex::MAX);
                    if acol == bcol {
                        if !av[ai].approx_eq(bv[bi], rtol, atol) {
                            return false;
                        }
                        ai += 1;
                        bi += 1;
                    } else if acol < bcol {
                        if !av[ai].approx_eq(T::ZERO, rtol, atol) {
                            return false;
                        }
                        ai += 1;
                    } else {
                        if !bv[bi].approx_eq(T::ZERO, rtol, atol) {
                            return false;
                        }
                        bi += 1;
                    }
                }
            } else {
                for (x, y) in av.iter().zip(bv) {
                    if !x.approx_eq(*y, rtol, atol) {
                        return false;
                    }
                }
            }
        }
        true
    }
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;

/// The word hasher behind [`CsrMatrix::content_hash`]: four independent
/// lanes, each a chain of xxHash64 rounds, so consecutive words do not wait
/// on one another's multiply.
struct WordHash {
    lanes: [u64; 4],
    words: u64,
}

impl WordHash {
    fn new() -> Self {
        Self {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            words: 0,
        }
    }

    #[inline(always)]
    fn round(acc: u64, word: u64) -> u64 {
        acc.wrapping_add(word.wrapping_mul(P2))
            .rotate_left(31)
            .wrapping_mul(P1)
    }

    /// Absorb one section: `items` read `PER` at a time into words, four
    /// words per block across the lanes; a short last block feeds the
    /// first lanes only. Section lengths follow from what came before (the
    /// shape fixes the row pointers, the last row pointer fixes nnz), so
    /// the word stream is unambiguous.
    #[inline(always)]
    fn absorb<X, const PER: usize>(&mut self, items: &[X], word: impl Fn(&[X]) -> u64) {
        let mut blocks = items.chunks_exact(4 * PER);
        for block in &mut blocks {
            let (w0, rest) = block.split_at(PER);
            let (w1, rest) = rest.split_at(PER);
            let (w2, w3) = rest.split_at(PER);
            self.lanes[0] = Self::round(self.lanes[0], word(w0));
            self.lanes[1] = Self::round(self.lanes[1], word(w1));
            self.lanes[2] = Self::round(self.lanes[2], word(w2));
            self.lanes[3] = Self::round(self.lanes[3], word(w3));
        }
        for (lane, w) in blocks.remainder().chunks(PER).enumerate() {
            self.lanes[lane] = Self::round(self.lanes[lane], word(w));
        }
        self.words += items.len().div_ceil(PER) as u64;
    }

    /// Fold the lanes and the word count, then avalanche.
    fn finish(self) -> u64 {
        let [a, b, c, d] = self.lanes;
        let mut h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        for lane in self.lanes {
            h = (h ^ Self::round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
        }
        h = h.wrapping_add(self.words);
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> CsrMatrix<f64> {
        // The 4x4 matrix A from the paper's Figure 2.
        //   0 2 1 0
        //   0 0 1 1
        //   1 0 1 0
        //   2 0 0 4
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
    fn construction_and_accessors() {
        let a = example();
        assert_eq!(a.shape(), (4, 4));
        assert_eq!(a.nnz(), 8);
        assert_eq!(a.row_nnz(0), 2);
        assert_eq!(a.get(0, 1), 2.0);
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.row(3), (&[0, 3][..], &[2.0, 4.0][..]));
        assert_eq!(a.max_row_nnz(), 2);
        assert!((a.mean_row_nnz() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_indptr_length() {
        let e = CsrMatrix::<f64>::try_new(2, 2, vec![0, 1], vec![0], vec![1.0]);
        assert!(matches!(e, Err(SparseError::MalformedIndptr(_))));
    }

    #[test]
    fn rejects_nonmonotone_indptr() {
        let e = CsrMatrix::<f64>::try_new(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(SparseError::MalformedIndptr(_))));
    }

    #[test]
    fn rejects_out_of_bounds_column() {
        let e = CsrMatrix::<f64>::try_new(1, 2, vec![0, 1], vec![5], vec![1.0]);
        assert!(matches!(e, Err(SparseError::ColumnOutOfBounds { .. })));
    }

    #[test]
    fn rejects_unsorted_row() {
        let e = CsrMatrix::<f64>::try_new(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 1.0]);
        assert!(matches!(e, Err(SparseError::MalformedIndptr(_))));
    }

    #[test]
    fn rejects_duplicate_column() {
        let e = CsrMatrix::<f64>::try_new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 1.0]);
        assert!(matches!(e, Err(SparseError::MalformedIndptr(_))));
    }

    #[test]
    fn rejects_length_mismatch() {
        let e = CsrMatrix::<f64>::try_new(1, 3, vec![0, 2], vec![0, 1], vec![1.0]);
        assert!(matches!(e, Err(SparseError::LengthMismatch { .. })));
    }

    #[test]
    fn identity_roundtrip() {
        let i = CsrMatrix::<f64>::identity(5);
        assert_eq!(i.nnz(), 5);
        for k in 0..5 {
            assert_eq!(i.get(k, k), 1.0);
        }
        assert_eq!(i.transpose(), i);
    }

    #[test]
    fn transpose_involution() {
        let a = example();
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn transpose_moves_entries() {
        let a = example();
        let t = a.transpose();
        for (r, c, v) in a.iter() {
            assert_eq!(t.get(c, r), v);
        }
        assert_eq!(t.nnz(), a.nnz());
    }

    #[test]
    fn to_csc_and_back() {
        let a = example();
        let csc = a.to_csc();
        assert_eq!(csc.to_csr(), a);
    }

    #[test]
    fn coo_roundtrip() {
        let a = example();
        assert_eq!(a.to_coo().to_csr().unwrap(), a);
    }

    #[test]
    fn dense_agrees() {
        let a = example();
        let d = a.to_dense();
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(d.get(r, c), a.get(r, c));
            }
        }
    }

    #[test]
    fn prune_zeros_removes_explicit_zeros() {
        let a =
            CsrMatrix::try_new(2, 2, vec![0, 2, 3], vec![0, 1, 1], vec![0.0, 2.0, 0.0]).unwrap();
        let p = a.prune_zeros();
        assert_eq!(p.nnz(), 1);
        assert_eq!(p.get(0, 1), 2.0);
    }

    #[test]
    fn approx_eq_tolerates_explicit_zeros() {
        let a = CsrMatrix::try_new(1, 3, vec![0, 2], vec![0, 2], vec![1.0, 0.0]).unwrap();
        let b = CsrMatrix::try_new(1, 3, vec![0, 1], vec![0], vec![1.0 + 1e-13]).unwrap();
        assert!(a.approx_eq(&b, 1e-9, 1e-12));
        let c = CsrMatrix::try_new(1, 3, vec![0, 1], vec![1], vec![1.0]).unwrap();
        assert!(!a.approx_eq(&c, 1e-9, 1e-12));
    }

    #[test]
    fn byte_size_counts_arrays() {
        let a = example();
        let expected = 5 * std::mem::size_of::<usize>() + 8 * 4 + 8 * 8;
        assert_eq!(a.byte_size(), expected);
    }

    #[test]
    fn zeros_has_no_entries() {
        let z = CsrMatrix::<f64>::zeros(3, 7);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.shape(), (3, 7));
        assert_eq!(z.row(2), (&[][..], &[][..]));
    }

    #[test]
    fn row_band_slices_rows_bitwise() {
        let a = example();
        let band = a.row_band(1..3);
        assert_eq!(band.shape(), (2, a.ncols()));
        for (i, r) in (1..3).enumerate() {
            assert_eq!(band.row(i), a.row(r));
        }
        // concatenating bands reconstitutes the matrix exactly
        let (n, _) = a.shape();
        let mut nnz = 0;
        for bounds in [[0, 2, n], [0, 1, n], [0, n, n]] {
            nnz = 0;
            for w in bounds.windows(2) {
                nnz += a.row_band(w[0]..w[1]).nnz();
            }
            assert_eq!(nnz, a.nnz());
        }
        assert!(nnz > 0);
    }

    #[test]
    fn row_band_byte_size_matches_materialized_band() {
        let a = example();
        let n = a.nrows();
        for range in [0..n, 0..0, 1..3, 2..2, 0..1, n - 1..n] {
            assert_eq!(
                a.row_band_byte_size(range.clone()),
                a.row_band(range.clone()).byte_size(),
                "predicted band bytes must equal the materialized band for {range:?}"
            );
        }
    }

    #[test]
    fn row_band_empty_range_is_valid_csr() {
        // Regression: a zero-row band must produce indptr = [0], not [].
        let a = example();
        for start in 0..=a.nrows() {
            let band = a.row_band(start..start);
            assert_eq!(band.shape(), (0, a.ncols()));
            assert_eq!(band.indptr(), &[0]);
            let valid = CsrMatrix::<f64>::try_new(
                band.nrows(),
                band.ncols(),
                band.indptr().to_vec(),
                band.indices().to_vec(),
                band.values().to_vec(),
            );
            assert!(valid.is_ok());
        }
    }

    #[test]
    fn row_band_all_empty_rows_is_valid_csr() {
        // Regression: a band covering only empty rows must keep one indptr
        // entry per row (all zeros), not collapse to an empty vec.
        let a = CsrMatrix::try_new(
            5,
            4,
            vec![0, 2, 2, 2, 2, 3],
            vec![0, 3, 1],
            vec![1.0, 2.0, 3.0],
        )
        .unwrap();
        let band = a.row_band(1..4);
        assert_eq!(band.shape(), (3, 4));
        assert_eq!(band.indptr(), &[0, 0, 0, 0]);
        assert_eq!(band.nnz(), 0);
        // band ending on the trailing empty run
        let tail = a.row_band(4..5);
        assert_eq!(tail.indptr(), &[0, 1]);
        assert_eq!(tail.row(0), a.row(4));
    }

    /// An odd-nnz matrix (5 entries: the packed-index tail is a lone
    /// index), with distinct values so swaps are visible.
    fn odd() -> CsrMatrix<f64> {
        CsrMatrix::try_new(
            3,
            4,
            vec![0, 2, 3, 5],
            vec![0, 3, 1, 0, 2],
            vec![1.5, -2.0, 3.25, 4.0, 0.5],
        )
        .unwrap()
    }

    #[test]
    fn content_hash_sees_every_bit() {
        let base = odd();
        let h = base.content_hash();
        let mut seen = std::collections::HashSet::from([h]);
        let mut fresh = |m: CsrMatrix<f64>, what: String| {
            assert!(seen.insert(m.content_hash()), "{what}: hash did not change");
        };
        for i in 0..base.indptr.len() {
            for bit in 0..usize::BITS {
                let mut m = base.clone();
                m.indptr[i] ^= 1 << bit;
                fresh(m, format!("indptr[{i}] bit {bit}"));
            }
        }
        for i in 0..base.indices.len() {
            for bit in 0..ColIndex::BITS {
                let mut m = base.clone();
                m.indices[i] ^= 1 << bit;
                fresh(m, format!("indices[{i}] bit {bit}"));
            }
        }
        for i in 0..base.values.len() {
            for bit in 0..64 {
                let mut m = base.clone();
                m.values[i] = f64::from_bits(m.values[i].to_bits() ^ (1 << bit));
                fresh(m, format!("values[{i}] bit {bit}"));
            }
        }
        let mut swapped = base.clone();
        swapped.values.swap(1, 3);
        fresh(swapped, "swapped values".into());
        let mut wider = base.clone();
        wider.ncols += 1;
        fresh(wider, "same arrays, wider shape".into());
    }

    #[test]
    fn content_hash_separates_signed_zeros_and_nan_payloads() {
        let with = |v: f64| {
            let mut m = odd();
            m.values[4] = v;
            m
        };
        let (pos, neg) = (with(0.0), with(-0.0));
        assert_eq!(pos, neg, "== treats the zeros as equal");
        assert!(!pos.bit_eq(&neg));
        assert_ne!(pos.content_hash(), neg.content_hash());
        let (nan1, nan2) = (
            with(f64::from_bits(0x7ff8_0000_0000_0001)),
            with(f64::from_bits(0x7ff8_0000_0000_0002)),
        );
        assert!(nan1.bit_eq(&nan1.clone()), "a NaN is bit-equal to itself");
        assert!(!nan1.bit_eq(&nan2));
        assert_ne!(nan1.content_hash(), nan2.content_hash());
        assert_eq!(nan1.content_hash(), nan1.clone().content_hash());
    }

    #[test]
    fn content_hash_is_route_independent() {
        let base = odd();
        let mut coo = CooMatrix::new(3, 4);
        // pushed out of order: the conversion sorts
        for (r, c, v) in [
            (2, 2, 0.5),
            (0, 3, -2.0),
            (1, 1, 3.25),
            (0, 0, 1.5),
            (2, 0, 4.0),
        ] {
            coo.push(r, c, v);
        }
        let from_coo = coo.to_csr().unwrap();
        assert!(from_coo.bit_eq(&base));
        assert_eq!(from_coo.content_hash(), base.content_hash());
        let mut text = Vec::new();
        crate::io::write_matrix_market(&base, &mut text).unwrap();
        let back: CsrMatrix<f64> = crate::io::read_matrix_market_from(&text[..]).unwrap();
        assert!(back.bit_eq(&base));
        assert_eq!(back.content_hash(), base.content_hash());
    }
}
