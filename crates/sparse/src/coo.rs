//! Coordinate (triplet) storage — the `⟨r, c, v⟩` tuples the paper's
//! Phase IV consumes (§III-D).

use crate::{ColIndex, CsrMatrix, Scalar, SparseError};

/// A single stored entry. The paper's Phase II/III kernels emit streams of
/// these which Phase IV then merges (sort → mark heads → scan → segmented
/// sum).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triplet<T> {
    pub row: ColIndex,
    pub col: ColIndex,
    pub val: T,
}

impl<T> Triplet<T> {
    #[inline]
    pub fn new(row: usize, col: usize, val: T) -> Self {
        Self {
            row: row as ColIndex,
            col: col as ColIndex,
            val,
        }
    }

    /// Lexicographic `(row, col)` key used by the Phase IV merge sort.
    #[inline]
    pub fn key(&self) -> (ColIndex, ColIndex) {
        (self.row, self.col)
    }
}

/// Unordered collection of triplets with a declared shape. Duplicates are
/// allowed: converting to CSR sums them, mirroring Phase IV semantics
/// ("there may be several tuples all of which have to be added together").
#[derive(Debug, Clone, PartialEq)]
pub struct CooMatrix<T> {
    nrows: usize,
    ncols: usize,
    entries: Vec<Triplet<T>>,
}

impl<T: Scalar> CooMatrix<T> {
    /// Empty triplet collection with the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::new(),
        }
    }

    /// Empty collection with `cap` entries preallocated.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Self {
            nrows,
            ncols,
            entries: Vec::with_capacity(cap),
        }
    }

    /// Append an entry. Panics (debug) on out-of-bounds coordinates.
    #[inline]
    pub fn push(&mut self, row: usize, col: usize, val: T) {
        debug_assert!(row < self.nrows && col < self.ncols);
        self.entries.push(Triplet::new(row, col, val));
    }

    /// Append all triplets from another collection (shapes must match).
    pub fn append(&mut self, other: &CooMatrix<T>) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "appending COO of different shape"
        );
        self.entries.extend_from_slice(&other.entries);
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of stored (possibly duplicate) entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stored triplets in insertion order.
    #[inline]
    pub fn entries(&self) -> &[Triplet<T>] {
        &self.entries
    }

    /// Convert to CSR, summing duplicate coordinates. Sorting is a stable
    /// `O(nnz log nnz)` comparison sort on the `(row, col)` key — the serial
    /// reference for the parallel Phase IV merge.
    pub fn to_csr(&self) -> Result<CsrMatrix<T>, SparseError> {
        for t in &self.entries {
            if t.row as usize >= self.nrows {
                return Err(SparseError::RowOutOfBounds {
                    row: t.row as usize,
                    nrows: self.nrows,
                });
            }
            if t.col as usize >= self.ncols {
                return Err(SparseError::ColumnOutOfBounds {
                    row: t.row as usize,
                    col: t.col as usize,
                    ncols: self.ncols,
                });
            }
        }
        let mut sorted = self.entries.clone();
        sorted.sort_by_key(|t| t.key());

        let mut indptr = vec![0usize; self.nrows + 1];
        let mut indices = Vec::with_capacity(sorted.len());
        let mut values: Vec<T> = Vec::with_capacity(sorted.len());
        let mut last_key: Option<(ColIndex, ColIndex)> = None;
        for t in &sorted {
            if last_key == Some(t.key()) {
                // Same (row, col) as previous entry ⇒ accumulate.
                *values.last_mut().unwrap() += t.val;
            } else {
                indices.push(t.col);
                values.push(t.val);
                indptr[t.row as usize + 1] += 1;
                last_key = Some(t.key());
            }
        }
        // prefix-sum the per-row counts into offsets
        for i in 0..self.nrows {
            indptr[i + 1] += indptr[i];
        }
        Ok(CsrMatrix::from_parts_unchecked(
            self.nrows, self.ncols, indptr, indices, values,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_convert() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 2, 1.5);
        coo.push(1, 0, 2.0);
        coo.push(0, 0, 3.0);
        let csr = coo.to_csr().unwrap();
        assert_eq!(csr.get(0, 2), 1.5);
        assert_eq!(csr.get(1, 0), 2.0);
        assert_eq!(csr.get(0, 0), 3.0);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(0, 1, 2.5);
        coo.push(1, 1, -1.0);
        coo.push(0, 1, 0.5);
        let csr = coo.to_csr().unwrap();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 1), 4.0);
        assert_eq!(csr.get(1, 1), -1.0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut coo = CooMatrix::with_capacity(1, 1, 1);
        coo.entries.push(Triplet {
            row: 5,
            col: 0,
            val: 1.0,
        });
        assert!(matches!(
            coo.to_csr(),
            Err(SparseError::RowOutOfBounds { .. })
        ));
    }

    #[test]
    fn append_concatenates() {
        let mut a = CooMatrix::new(2, 2);
        a.push(0, 0, 1.0);
        let mut b = CooMatrix::new(2, 2);
        b.push(1, 1, 2.0);
        b.push(0, 0, 1.0);
        a.append(&b);
        assert_eq!(a.len(), 3);
        let csr = a.to_csr().unwrap();
        assert_eq!(csr.get(0, 0), 2.0);
    }

    #[test]
    fn empty_converts_to_zeros() {
        let coo = CooMatrix::<f64>::new(3, 4);
        assert!(coo.is_empty());
        let csr = coo.to_csr().unwrap();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.shape(), (3, 4));
    }

    #[test]
    fn triplet_key_is_lexicographic() {
        let a = Triplet::new(1, 2, 0.0);
        let b = Triplet::new(1, 3, 0.0);
        let c = Triplet::new(2, 0, 0.0);
        assert!(a.key() < b.key());
        assert!(b.key() < c.key());
    }
}
