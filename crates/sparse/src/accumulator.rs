//! Sparse accumulators for Gustavson-style row products.
//!
//! The row-row formulation (§II-A) computes one output row as a sum of
//! scaled B rows. The classic way to do that without materialising and
//! sorting intermediate tuples is Gustavson's SPA: a dense value array
//! indexed by column, a generation stamp per column marking which output
//! row last touched it, and a list of touched columns. Clearing between
//! rows is O(touched), not O(ncols), so one accumulator amortises across
//! every row a thread processes.
//!
//! [`SparseAccumulator`] is that SPA, and the engine's only numeric
//! accumulator: the first touch of a column sets its value, every later
//! touch `+=`s in visit order, and the drain emits ascending by column.
//! It is the reference's own accumulator too, so every engine path that
//! scatters through it reproduces the reference's bits, and
//! [`SparseAccumulator::fold_into`] sums several such rows into a second
//! accumulator with the reference's per-row merge arithmetic.
//!
//! [`RowSizer`] is the symbolic-pass companion: it only needs
//! distinct-column counts and therefore skips the value array entirely.

use crate::{ColIndex, Scalar};

/// Gustavson sparse accumulator: scatter `(col, val)` contributions for one
/// output row, then drain them in column order. Reusable across rows; build
/// one per thread, sized to the output's column count.
#[derive(Debug, Clone)]
pub struct SparseAccumulator<T> {
    values: Vec<T>,
    stamp: Vec<u32>,
    generation: u32,
    touched: Vec<ColIndex>,
}

impl<T: Scalar> SparseAccumulator<T> {
    /// Accumulator for output rows with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        Self {
            values: vec![T::ZERO; ncols],
            stamp: vec![0; ncols],
            generation: 1,
            touched: Vec::new(),
        }
    }

    /// Number of columns this accumulator covers.
    pub fn ncols(&self) -> usize {
        self.stamp.len()
    }

    /// Grow to cover at least `ncols` columns. New stamps start at 0,
    /// which never equals the live generation (it starts at 1 and resets
    /// to 1 on wrap), so grown slots read as untouched — pooled
    /// workspaces reuse one accumulator across matrices of any width.
    pub fn ensure_ncols(&mut self, ncols: usize) {
        if self.stamp.len() < ncols {
            self.stamp.resize(ncols, 0);
            self.values.resize(ncols, T::ZERO);
        }
    }

    /// Add `val` to the current row's column `col`. Returns `true` when
    /// this is the first contribution to that column for this row.
    #[inline]
    pub fn scatter(&mut self, col: ColIndex, val: T) -> bool {
        let c = col as usize;
        if self.stamp[c] == self.generation {
            self.values[c] += val;
            false
        } else {
            self.stamp[c] = self.generation;
            self.values[c] = val;
            self.touched.push(col);
            true
        }
    }

    /// Distinct columns touched so far in the current row.
    pub fn nnz(&self) -> usize {
        self.touched.len()
    }

    /// Drain the current row in ascending column order, invoking
    /// `f(col, value)` per entry, and reset for the next row.
    pub fn drain_sorted<F: FnMut(ColIndex, T)>(&mut self, mut f: F) {
        self.touched.sort_unstable();
        for &col in &self.touched {
            f(col, self.values[col as usize]);
        }
        self.touched.clear();
        self.advance_generation();
    }

    /// Drain the current row into pre-sized column/value slices (both
    /// exactly [`nnz`](Self::nnz) long), ascending by column, and reset for
    /// the next row. The SoA bulk form of [`drain_sorted`](Self::drain_sorted):
    /// sort the touched list once, memcpy it as the column array, and
    /// gather the values with a 4-way unrolled loop — no per-element
    /// closure dispatch. Same values, same order, bit-identical.
    pub fn drain_sorted_into(&mut self, out_cols: &mut [ColIndex], out_vals: &mut [T]) {
        self.touched.sort_unstable();
        assert_eq!(self.touched.len(), out_vals.len(), "drain: vals length");
        out_cols.copy_from_slice(&self.touched);
        gather(&self.touched, &self.values, out_vals);
        self.touched.clear();
        self.advance_generation();
    }

    /// Fold the current row into `outer` and reset for the next row: a
    /// column `outer` has not yet seen in its row stores `T::ZERO + v`, a
    /// column it has seen does `+= v`. Folding several runs in order thus
    /// performs exactly `sum = 0; sum += v_1; sum += v_2; …` per column —
    /// the per-row merge of sorted runs, without sorting or materialising
    /// any run. The visit order within one fold does not matter: each
    /// column is folded at most once per call.
    pub fn fold_into(&mut self, outer: &mut Self) {
        for &col in &self.touched {
            let (c, v) = (col as usize, self.values[col as usize]);
            if outer.stamp[c] == outer.generation {
                outer.values[c] += v;
            } else {
                outer.stamp[c] = outer.generation;
                outer.values[c] = T::ZERO + v;
                outer.touched.push(col);
            }
        }
        self.touched.clear();
        self.advance_generation();
    }

    fn advance_generation(&mut self) {
        if self.generation == u32::MAX {
            // wrap: forget every stamp so stale marks can't alias
            self.stamp.fill(0);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
    }
}

/// Gather values only: `out_vals[i] = table[idx[i]]`.
#[inline]
fn gather<T: Scalar>(idx: &[ColIndex], table: &[T], out_vals: &mut [T]) {
    // Chunked by 4 for ILP; the tail runs per element. The loads are
    // data-dependent (a true gather) so scalar code can't fuse them, but
    // splitting the chains lets the core overlap the four cache misses.
    let n = idx.len();
    let whole = n & !3;
    let mut i = 0;
    while i < whole {
        let v0 = table[idx[i] as usize];
        let v1 = table[idx[i + 1] as usize];
        let v2 = table[idx[i + 2] as usize];
        let v3 = table[idx[i + 3] as usize];
        out_vals[i] = v0;
        out_vals[i + 1] = v1;
        out_vals[i + 2] = v2;
        out_vals[i + 3] = v3;
        i += 4;
    }
    while i < n {
        out_vals[i] = table[idx[i] as usize];
        i += 1;
    }
}

/// Symbolic-pass companion of [`SparseAccumulator`]: counts the distinct
/// columns of one output row without storing values. This is the first
/// pass of the two-pass engine — its counts size each CSR row exactly, so
/// the numeric pass writes into pre-offset storage with no reallocation.
#[derive(Debug, Clone)]
pub struct RowSizer {
    stamp: Vec<u32>,
    generation: u32,
    count: usize,
}

impl RowSizer {
    /// Sizer for output rows with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        Self {
            stamp: vec![0; ncols],
            generation: 1,
            count: 0,
        }
    }

    /// Number of columns this sizer covers.
    pub fn ncols(&self) -> usize {
        self.stamp.len()
    }

    /// Grow to cover at least `ncols` columns (same soundness argument as
    /// [`SparseAccumulator::ensure_ncols`]: fresh stamps are 0, the live
    /// generation is never 0).
    pub fn ensure_ncols(&mut self, ncols: usize) {
        if self.stamp.len() < ncols {
            self.stamp.resize(ncols, 0);
        }
    }

    /// Mark column `col` as present in the current row. Returns `true` on
    /// the first mark for this row.
    #[inline]
    pub fn mark(&mut self, col: ColIndex) -> bool {
        let c = col as usize;
        if self.stamp[c] == self.generation {
            false
        } else {
            self.stamp[c] = self.generation;
            self.count += 1;
            true
        }
    }

    /// Distinct columns marked so far in the current row.
    pub fn nnz(&self) -> usize {
        self.count
    }

    /// Finish the current row: return its distinct-column count and reset
    /// for the next row.
    pub fn finish_row(&mut self) -> usize {
        let n = self.count;
        self.count = 0;
        if self.generation == u32::MAX {
            self.stamp.fill(0);
            self.generation = 1;
        } else {
            self.generation += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scatter_accumulates_duplicates() {
        let mut spa = SparseAccumulator::<f64>::new(8);
        assert!(spa.scatter(3, 1.0));
        assert!(spa.scatter(5, 2.0));
        assert!(!spa.scatter(3, 4.0));
        assert_eq!(spa.nnz(), 2);
        let mut out = Vec::new();
        spa.drain_sorted(|c, v| out.push((c, v)));
        assert_eq!(out, vec![(3, 5.0), (5, 2.0)]);
    }

    #[test]
    fn drain_resets_for_the_next_row() {
        let mut spa = SparseAccumulator::<f64>::new(4);
        spa.scatter(1, 1.0);
        spa.drain_sorted(|_, _| {});
        // same column again: must be a fresh first-touch with a fresh value
        assert!(spa.scatter(1, 7.0));
        let mut out = Vec::new();
        spa.drain_sorted(|c, v| out.push((c, v)));
        assert_eq!(out, vec![(1, 7.0)]);
    }

    #[test]
    fn drain_emits_sorted_columns() {
        let mut spa = SparseAccumulator::<f64>::new(100);
        for &c in &[90u32, 5, 40, 17, 3] {
            spa.scatter(c, 1.0);
        }
        let mut cols = Vec::new();
        spa.drain_sorted(|c, _| cols.push(c));
        assert_eq!(cols, vec![3, 5, 17, 40, 90]);
    }

    #[test]
    fn sizer_counts_distinct_columns() {
        let mut sizer = RowSizer::new(10);
        for &c in &[1u32, 4, 1, 9, 4, 4] {
            sizer.mark(c);
        }
        assert_eq!(sizer.nnz(), 3);
        assert_eq!(sizer.finish_row(), 3);
        // next row starts clean
        assert!(sizer.mark(1));
        assert_eq!(sizer.finish_row(), 1);
    }

    #[test]
    fn generation_wrap_is_sound() {
        let mut spa = SparseAccumulator::<f64>::new(4);
        spa.generation = u32::MAX - 1;
        spa.scatter(2, 1.0);
        spa.drain_sorted(|_, _| {});
        spa.scatter(2, 2.0);
        let mut out = Vec::new();
        spa.drain_sorted(|c, v| out.push((c, v)));
        assert_eq!(out, vec![(2, 2.0)]);
        // now past the wrap: stale stamps must not alias
        assert!(spa.scatter(2, 3.0));
        let mut out = Vec::new();
        spa.drain_sorted(|c, v| out.push((c, v)));
        assert_eq!(out, vec![(2, 3.0)]);

        let mut sizer = RowSizer::new(4);
        sizer.generation = u32::MAX;
        sizer.mark(0);
        assert_eq!(sizer.finish_row(), 1);
        assert!(sizer.mark(0), "stamp from before the wrap must not alias");
    }

    #[test]
    fn fold_sums_runs_from_zero_in_fold_order() {
        let mut inner = SparseAccumulator::<f64>::new(8);
        let mut outer = SparseAccumulator::<f64>::new(8);
        inner.scatter(2, -0.0);
        inner.scatter(5, 1.0);
        inner.fold_into(&mut outer);
        assert_eq!(inner.nnz(), 0, "fold resets the folded row");
        inner.scatter(5, 2.0);
        inner.scatter(7, -0.0);
        inner.fold_into(&mut outer);
        let mut out = Vec::new();
        outer.drain_sorted(|c, v| out.push((c, v.to_bits())));
        // first folds store 0 + v, so -0.0 comes out +0.0
        let want = [(2, 0.0f64), (5, 3.0), (7, 0.0)];
        assert_eq!(out, want.map(|(c, v)| (c, v.to_bits())));
    }

    #[test]
    fn empty_row_drains_nothing() {
        let mut spa = SparseAccumulator::<f64>::new(4);
        spa.drain_sorted(|_, _| panic!("no entries expected"));
        assert_eq!(spa.nnz(), 0);
    }

    /// Deterministic pseudo-random (col, val) stream with plenty of
    /// duplicate columns, exercising FP-order-sensitive accumulation:
    /// the values are chosen so that reordering any two `+=`s of the same
    /// column changes the rounded bits.
    fn touch_stream(len: usize, ncols: u32, seed: u64) -> Vec<(ColIndex, f64)> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut out = Vec::with_capacity(len);
        for i in 0..len {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let col = (state % u64::from(ncols)) as ColIndex;
            // wildly varying magnitudes force rounding, making the sum
            // order-sensitive — the equivalence check below is therefore a
            // real bit-identity check, not an algebraic one
            let val = (1.0 + i as f64) * 10f64.powi((state >> 32) as i32 % 17 - 8);
            out.push((col, val));
        }
        out
    }

    fn soa_of(
        acc: &mut SparseAccumulator<f64>,
        stream: &[(ColIndex, f64)],
    ) -> Vec<(ColIndex, u64)> {
        for &(c, v) in stream {
            acc.scatter(c, v);
        }
        let n = acc.nnz();
        let (mut oc, mut ov) = (vec![0u32; n], vec![0f64; n]);
        acc.drain_sorted_into(&mut oc, &mut ov);
        oc.into_iter()
            .zip(ov.into_iter().map(f64::to_bits))
            .collect()
    }

    /// drain_sorted_into must equal drain_sorted bit for bit, including
    /// remainder-lane sizes (nnz ≡ 1..7 mod 8) and the empty row.
    #[test]
    fn soa_drain_matches_closure_drain_bitwise() {
        let sizes = [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 17, 100, 1025];
        for (i, &len) in sizes.iter().enumerate() {
            let stream = touch_stream(len, 2048, i as u64 + 77);
            let mut via_closure = Vec::new();
            let mut oracle = SparseAccumulator::<f64>::new(2048);
            for &(c, v) in &stream {
                oracle.scatter(c, v);
            }
            oracle.drain_sorted(|c, v| via_closure.push((c, v.to_bits())));

            let mut spa = SparseAccumulator::<f64>::new(2048);
            assert_eq!(
                via_closure,
                soa_of(&mut spa, &stream),
                "SoA drain diverged at len {len}"
            );
        }
    }

    /// Every unrolled-chunk remainder (lengths ≡ 0..3 mod 4) gathers
    /// exactly `table[idx]`, bit for bit.
    #[test]
    fn gather_reads_table_bits_at_every_length() {
        let table: Vec<f64> = (0..257u64)
            .map(|i| ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 1) % 2000) as f64 / 7.0 - 140.0)
            .collect();
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 33, 64] {
            let idx: Vec<ColIndex> = (0..n).map(|i| ((i * 37 + 11) % 257) as ColIndex).collect();
            let mut out = vec![f64::NAN; n];
            gather(&idx, &table, &mut out);
            for (k, &i) in idx.iter().enumerate() {
                assert_eq!(out[k].to_bits(), table[i as usize].to_bits(), "len {n}");
            }
        }
    }

    #[test]
    fn soa_drain_resets_for_next_row() {
        let mut acc = SparseAccumulator::<f64>::new(16);
        acc.scatter(3, 1.0);
        acc.scatter(1, 2.0);
        let (mut oc, mut ov) = (vec![0u32; 2], vec![0f64; 2]);
        acc.drain_sorted_into(&mut oc, &mut ov);
        assert_eq!(oc, vec![1, 3]);
        assert_eq!(ov, vec![2.0, 1.0]);
        assert_eq!(acc.nnz(), 0);
        // next row: same column must be a fresh first touch
        assert!(acc.scatter(3, 7.0));
        let (mut oc, mut ov) = (vec![0u32; 1], vec![0f64; 1]);
        acc.drain_sorted_into(&mut oc, &mut ov);
        assert_eq!((oc[0], ov[0]), (3, 7.0));
    }

    #[test]
    fn ensure_ncols_grows_without_aliasing() {
        let mut spa = SparseAccumulator::<f64>::new(2);
        spa.scatter(1, 5.0);
        spa.drain_sorted(|_, _| {});
        spa.ensure_ncols(10);
        assert_eq!(spa.ncols(), 10);
        assert!(spa.scatter(9, 1.0), "grown slot must read untouched");
        assert!(spa.scatter(1, 2.0));
        let mut out = Vec::new();
        spa.drain_sorted(|c, v| out.push((c, v)));
        assert_eq!(out, vec![(1, 2.0), (9, 1.0)]);

        let mut sizer = RowSizer::new(2);
        sizer.mark(0);
        sizer.finish_row();
        sizer.ensure_ncols(8);
        assert!(sizer.mark(7));
        assert!(sizer.mark(0));
        assert_eq!(sizer.finish_row(), 2);
    }
}
