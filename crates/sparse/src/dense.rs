//! Row-major dense matrix, used as the correctness oracle in tests and as
//! the `B` operand of the paper's `csrmm` (sparse × dense) extension (§VI).

use crate::Scalar;

/// Row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix<T> {
    nrows: usize,
    ncols: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseMatrix<T> {
    /// All-zero matrix.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            data: vec![T::ZERO; nrows * ncols],
        }
    }

    /// Build from a row-major data vector. Panics if the length is not
    /// `nrows * ncols`.
    pub fn from_row_major(nrows: usize, ncols: usize, data: Vec<T>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "dense data length mismatch");
        Self { nrows, ncols, data }
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

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> T {
        self.data[r * self.ncols + c]
    }

    #[inline]
    pub fn get_mut(&mut self, r: usize, c: usize) -> &mut T {
        &mut self.data[r * self.ncols + c]
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Mutable row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        &mut self.data[r * self.ncols..(r + 1) * self.ncols]
    }

    /// Raw row-major storage.
    #[inline]
    pub fn data(&self) -> &[T] {
        &self.data
    }

    /// Dense × dense product, the ultimate correctness oracle. `O(n³)` —
    /// tests only.
    pub fn matmul(&self, other: &DenseMatrix<T>) -> DenseMatrix<T> {
        assert_eq!(self.ncols, other.nrows, "dense matmul shape mismatch");
        let mut out = DenseMatrix::zeros(self.nrows, other.ncols);
        for i in 0..self.nrows {
            for k in 0..self.ncols {
                let aik = self.get(i, k);
                if aik == T::ZERO {
                    continue;
                }
                let brow = other.row(k);
                let orow = out.row_mut(i);
                for (o, &b) in orow.iter_mut().zip(brow) {
                    *o += aik * b;
                }
            }
        }
        out
    }

    /// Element-wise approximate equality.
    pub fn approx_eq(&self, other: &DenseMatrix<T>, rtol: f64, atol: f64) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.approx_eq(*b, rtol, atol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_indexing() {
        let mut d = DenseMatrix::<f64>::zeros(2, 3);
        assert_eq!(d.get(1, 2), 0.0);
        *d.get_mut(1, 2) = 5.0;
        assert_eq!(d.get(1, 2), 5.0);
        assert_eq!(d.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    fn matmul_matches_paper_example() {
        // Figure 2 of the paper: A (4x4) * B (4x3... actually 4x3 columns
        // shown as 3 wide) — we reproduce the full example.
        let a = DenseMatrix::from_row_major(
            4,
            4,
            vec![
                0.0, 2.0, 1.0, 0.0, //
                0.0, 0.0, 1.0, 1.0, //
                1.0, 0.0, 1.0, 0.0, //
                2.0, 0.0, 0.0, 4.0,
            ],
        );
        let b = DenseMatrix::from_row_major(
            4,
            3,
            vec![
                2.0, 3.0, 4.0, //
                8.0, 0.0, 0.0, //
                0.0, 0.0, 6.0, //
                0.0, 7.0, 0.0,
            ],
        );
        let c = a.matmul(&b);
        let expected = DenseMatrix::from_row_major(
            4,
            3,
            vec![
                16.0, 0.0, 6.0, //
                0.0, 7.0, 6.0, //
                2.0, 3.0, 10.0, //
                4.0, 34.0, 8.0,
            ],
        );
        assert!(c.approx_eq(&expected, 1e-12, 0.0));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = DenseMatrix::<f64>::zeros(2, 3);
        let b = DenseMatrix::<f64>::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn approx_eq_shape_sensitive() {
        let a = DenseMatrix::<f64>::zeros(2, 2);
        let b = DenseMatrix::<f64>::zeros(2, 3);
        assert!(!a.approx_eq(&b, 0.0, 0.0));
    }
}
