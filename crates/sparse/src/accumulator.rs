//! Sparse accumulators for Gustavson-style row products.
//!
//! The row-row formulation (§II-A) computes one output row as a sum of
//! scaled B rows. The classic way to do that without materialising and
//! sorting intermediate tuples is Gustavson's SPA (Gilbert–Moler–Schreiber):
//! a dense value array indexed by column, an occupancy bitmap marking the
//! columns the current row has touched, and a list of touched columns.
//! Every drain clears the bits it emits, so the bitmap is all zeros between
//! rows and one accumulator amortises across every row a thread processes.
//!
//! [`SparseAccumulator`] is that SPA, and the engine's only numeric
//! accumulator: the first touch of a column sets its value, every later
//! touch `+=`s in visit order, and [`SparseAccumulator::drain_into`]
//! appends the row to C's arrays ascending by column, picking per row the
//! cheaper of a word scan of the bitmap and a sort of the touched list (the
//! per-row method choice Liu–Vinter make by row size). Both orders are the
//! same, so the choice never moves a bit. [`SparseAccumulator::fold_into`]
//! sums several such rows into a second accumulator with the claims
//! oracle's per-row merge arithmetic; the oracle itself
//! (`reference::spmm_claims`) shares no code with this module.
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
    /// One bit per column, set while the current row has touched it.
    occupied: Vec<u64>,
    /// Bitmap words the current product's columns span: the word scan's
    /// reach, which can be shorter than `occupied` in a pooled accumulator.
    words: usize,
    touched: Vec<ColIndex>,
}

impl<T: Scalar> SparseAccumulator<T> {
    /// Accumulator for output rows with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        Self {
            values: vec![T::ZERO; ncols],
            occupied: vec![0; ncols.div_ceil(64)],
            words: ncols.div_ceil(64),
            touched: Vec::new(),
        }
    }

    /// Number of columns this accumulator can hold.
    pub fn ncols(&self) -> usize {
        self.values.len()
    }

    /// Fit a product `ncols` wide: grow the dense arrays if they are
    /// narrower, and bound the word scan to that product's columns. Every
    /// bit is clear between rows and grown words start clear, so grown
    /// slots read as untouched — pooled workspaces reuse one accumulator
    /// across matrices of any width, and a narrow product never scans the
    /// bitmap a wider one left behind.
    pub fn ensure_ncols(&mut self, ncols: usize) {
        self.words = ncols.div_ceil(64);
        if self.values.len() < ncols {
            self.values.resize(ncols, T::ZERO);
            self.occupied.resize(self.words, 0);
        }
    }

    /// Add `val` to the current row's column `col`. Returns `true` when
    /// this is the first contribution to that column for this row.
    #[inline]
    pub fn scatter(&mut self, col: ColIndex, val: T) -> bool {
        let c = col as usize;
        debug_assert!(c < self.words * 64, "column past the fitted width");
        let (word, bit) = (c / 64, 1u64 << (c % 64));
        if self.occupied[word] & bit != 0 {
            self.values[c] += val;
            false
        } else {
            self.values[c] = val;
            self.occupied[word] |= bit;
            self.touched.push(col);
            true
        }
    }

    /// Distinct columns touched so far in the current row.
    pub fn nnz(&self) -> usize {
        self.touched.len()
    }

    /// Append the current row to `cols`/`vals` in ascending column order,
    /// reset for the next row and return the row's nnz. A row of `k`
    /// entries drains by a word scan of the bitmap when that reads no more
    /// words than a sort makes comparisons (`words ≤ k·bitlen(k)`), and by
    /// sorting the touched list otherwise.
    pub fn drain_into(&mut self, cols: &mut Vec<ColIndex>, vals: &mut Vec<T>) -> usize {
        let k = self.touched.len();
        let scan = self.words <= k * (usize::BITS - k.leading_zeros()) as usize;
        self.drain_by(scan, cols, vals)
    }

    /// Both drains: the word scan reads every set bit word by word and
    /// clears each word it reads; the sort drain sorts the touched list and
    /// clears its words through it. Either way the same columns come out in
    /// the same order, the values are gathered behind them, and every bit
    /// is left clear.
    fn drain_by(&mut self, scan: bool, cols: &mut Vec<ColIndex>, vals: &mut Vec<T>) -> usize {
        let k = self.touched.len();
        let start = cols.len();
        if scan {
            cols.reserve(k);
            for (w, word) in self.occupied[..self.words].iter_mut().enumerate() {
                if *word == 0 {
                    continue;
                }
                let base = (w * 64) as ColIndex;
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    cols.push(base + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
        } else {
            self.touched.sort_unstable();
            for &c in &self.touched {
                self.occupied[c as usize / 64] = 0;
            }
            cols.extend_from_slice(&self.touched);
        }
        vals.extend(cols[start..].iter().map(|&c| self.values[c as usize]));
        self.touched.clear();
        k
    }

    /// Make the current row the start of a fold: every touched value
    /// becomes `T::ZERO + v`, exactly what [`fold_into`](Self::fold_into)
    /// stores into an accumulator that has not yet seen the column. A row
    /// scattered straight into the fold target and then started this way
    /// holds the same bits as one folded into it from an empty start.
    pub fn start_fold(&mut self) {
        for &c in &self.touched {
            let v = &mut self.values[c as usize];
            *v = T::ZERO + *v;
        }
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
            let c = col as usize;
            let v = self.values[c];
            self.occupied[c / 64] = 0;
            let (word, bit) = (c / 64, 1u64 << (c % 64));
            if outer.occupied[word] & bit != 0 {
                outer.values[c] += v;
            } else {
                outer.values[c] = T::ZERO + v;
                outer.occupied[word] |= bit;
                outer.touched.push(col);
            }
        }
        self.touched.clear();
    }
}

/// Symbolic-pass companion of [`SparseAccumulator`]: counts the distinct
/// columns of one output row without storing values, with a generation
/// stamp per column so finishing a row is O(1). The GPU cost model's
/// output-width tables are built with it.
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

    /// Grow to cover at least `ncols` columns. Fresh stamps are 0 and the
    /// live generation is never 0, so grown slots read as unmarked.
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

    /// Drain the current row as `(col, value bits)` pairs.
    fn drained(acc: &mut SparseAccumulator<f64>) -> Vec<(ColIndex, u64)> {
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        let n = acc.drain_into(&mut cols, &mut vals);
        assert_eq!((cols.len(), vals.len()), (n, n), "drain: reported nnz");
        cols.into_iter()
            .zip(vals.iter().map(|v| v.to_bits()))
            .collect()
    }

    fn bits(entries: &[(ColIndex, f64)]) -> Vec<(ColIndex, u64)> {
        entries.iter().map(|&(c, v)| (c, v.to_bits())).collect()
    }

    /// The bitmap holds no set bit.
    fn clean(acc: &SparseAccumulator<f64>) -> bool {
        acc.occupied.iter().all(|&w| w == 0) && acc.touched.is_empty()
    }

    #[test]
    fn scatter_accumulates_duplicates() {
        let mut spa = SparseAccumulator::<f64>::new(8);
        assert!(spa.scatter(3, 1.0));
        assert!(spa.scatter(5, 2.0));
        assert!(!spa.scatter(3, 4.0));
        assert_eq!(spa.nnz(), 2);
        assert_eq!(drained(&mut spa), bits(&[(3, 5.0), (5, 2.0)]));
    }

    #[test]
    fn drain_resets_for_the_next_row() {
        let mut spa = SparseAccumulator::<f64>::new(4);
        spa.scatter(1, 1.0);
        drained(&mut spa);
        // same column again: must be a fresh first-touch with a fresh value
        assert!(spa.scatter(1, 7.0));
        assert_eq!(drained(&mut spa), bits(&[(1, 7.0)]));
    }

    #[test]
    fn drain_emits_sorted_columns() {
        // five touches: 100 columns (2 words) drain by the word scan,
        // 10,000 columns (157 words > 5·3) by the sort
        for ncols in [100, 10_000] {
            let mut spa = SparseAccumulator::<f64>::new(ncols);
            for &c in &[90u32, 5, 40, 17, 3] {
                spa.scatter(c, 1.0);
            }
            let cols: Vec<ColIndex> = drained(&mut spa).iter().map(|&(c, _)| c).collect();
            assert_eq!(cols, vec![3, 5, 17, 40, 90], "{ncols} columns");
        }
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
        // the sizer keeps generation stamps (the SPA's bitmap has none)
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
        assert!(clean(&inner), "fold leaves the folded bitmap clean");
        inner.scatter(5, 2.0);
        inner.scatter(7, -0.0);
        inner.fold_into(&mut outer);
        // first folds store 0 + v, so -0.0 comes out +0.0
        assert_eq!(drained(&mut outer), bits(&[(2, 0.0), (5, 3.0), (7, 0.0)]));
    }

    #[test]
    fn start_fold_matches_a_first_fold_bitwise() {
        let nan = f64::from_bits(0x7ff8_0000_0000_0badu64);
        let run = [(2u32, -0.0), (9, nan), (4, -1.5), (2, -0.0), (70, 0.0)];
        let (mut inner, mut folded) = (
            SparseAccumulator::<f64>::new(80),
            SparseAccumulator::<f64>::new(80),
        );
        let mut started = SparseAccumulator::<f64>::new(80);
        for &(c, v) in &run {
            inner.scatter(c, v);
            started.scatter(c, v);
        }
        inner.fold_into(&mut folded);
        started.start_fold();
        assert_eq!(drained(&mut started), drained(&mut folded));
    }

    #[test]
    fn empty_row_drains_nothing() {
        let mut spa = SparseAccumulator::<f64>::new(4);
        assert!(drained(&mut spa).is_empty());
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

    /// Drain the stream's row by the named method, appending after a
    /// prefix already in the output arrays.
    fn drain_stream_by(scan: bool, ncols: u32, stream: &[(ColIndex, f64)]) -> Vec<(u32, u64)> {
        let mut acc = SparseAccumulator::<f64>::new(ncols as usize);
        for &(c, v) in stream {
            acc.scatter(c, v);
        }
        let (mut cols, mut vals) = (vec![u32::MAX], vec![f64::NAN]);
        assert_eq!(acc.drain_by(scan, &mut cols, &mut vals), acc_nnz(stream));
        assert!(clean(&acc), "drain (scan: {scan}) left bits behind");
        cols.into_iter()
            .zip(vals.into_iter().map(f64::to_bits))
            .skip(1)
            .collect()
    }

    fn acc_nnz(stream: &[(ColIndex, f64)]) -> usize {
        let mut cols: Vec<ColIndex> = stream.iter().map(|&(c, _)| c).collect();
        cols.sort_unstable();
        cols.dedup();
        cols.len()
    }

    /// The word-scan drain and the sort drain append the same entries, bit
    /// for bit, at every row length — the empty row, partial words, whole
    /// words and rows denser than a word — and at widths that are and are
    /// not a multiple of 64.
    #[test]
    fn scan_drain_matches_sort_drain_bitwise() {
        let sizes = [
            0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 17, 63, 64, 65, 100, 1025,
        ];
        for ncols in [1u32, 63, 64, 65, 129, 2048] {
            for (i, &len) in sizes.iter().enumerate() {
                let stream = touch_stream(len, ncols, i as u64 + 77);
                let by_scan = drain_stream_by(true, ncols, &stream);
                let by_sort = drain_stream_by(false, ncols, &stream);
                assert_eq!(
                    by_scan, by_sort,
                    "drains diverged at len {len}, {ncols} cols"
                );
                let cols: Vec<u32> = by_sort.iter().map(|&(c, _)| c).collect();
                assert!(
                    cols.windows(2).all(|w| w[0] < w[1]),
                    "unsorted at len {len}"
                );
            }
        }
    }

    /// Each drain gathers every value with its exact bits — signed zeros
    /// and NaN payloads included — at lengths around every word size.
    #[test]
    fn gather_reads_table_bits_at_every_length() {
        let table: Vec<f64> = (0..257u64)
            .map(|i| match i % 5 {
                0 => -0.0,
                1 => f64::from_bits(0x7ff8_0000_0000_0000 | i),
                _ => ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 1) % 2000) as f64 / 7.0 - 140.0,
            })
            .collect();
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 33, 64, 65, 129] {
            let idx: Vec<ColIndex> = (0..n).map(|i| ((i * 37 + 11) % 257) as ColIndex).collect();
            for scan in [true, false] {
                let mut acc = SparseAccumulator::<f64>::new(257);
                for &c in &idx {
                    acc.scatter(c, table[c as usize]);
                }
                let (mut cols, mut vals) = (Vec::new(), Vec::new());
                assert_eq!(acc.drain_by(scan, &mut cols, &mut vals), n);
                for (&c, v) in cols.iter().zip(&vals) {
                    let want = table[c as usize].to_bits();
                    assert_eq!(v.to_bits(), want, "len {n}, scan: {scan}");
                }
            }
        }
    }

    #[test]
    fn soa_drain_resets_for_next_row() {
        let mut acc = SparseAccumulator::<f64>::new(16);
        acc.scatter(3, 1.0);
        acc.scatter(1, 2.0);
        let (mut oc, mut ov) = (Vec::new(), Vec::new());
        assert_eq!(acc.drain_into(&mut oc, &mut ov), 2);
        assert_eq!(oc, vec![1, 3]);
        assert_eq!(ov, vec![2.0, 1.0]);
        assert_eq!(acc.nnz(), 0);
        // next row: same column must be a fresh first touch, appended
        // behind the first row
        assert!(acc.scatter(3, 7.0));
        assert_eq!(acc.drain_into(&mut oc, &mut ov), 1);
        assert_eq!((oc[2], ov[2]), (3, 7.0));
    }

    /// Both drains leave every bit clear, so the next row's first touch of
    /// any column — drained or not — stores afresh.
    #[test]
    fn both_drains_leave_a_clean_bitmap() {
        for scan in [true, false] {
            let mut acc = SparseAccumulator::<f64>::new(200);
            for &c in &[0u32, 63, 64, 65, 127, 128, 199, 64] {
                acc.scatter(c, 1.0);
            }
            let (mut cols, mut vals) = (Vec::new(), Vec::new());
            assert_eq!(acc.drain_by(scan, &mut cols, &mut vals), 7);
            assert!(clean(&acc), "scan: {scan}");
            for c in [0u32, 63, 64, 65, 127, 128, 199] {
                assert!(acc.scatter(c, 2.0), "scan: {scan}: column {c} aliased");
            }
            cols.clear();
            vals.clear();
            acc.drain_by(!scan, &mut cols, &mut vals);
            assert!(vals.iter().all(|&v| v == 2.0), "scan: {scan}: stale value");
            assert!(clean(&acc));
        }
    }

    #[test]
    fn ensure_ncols_grows_without_aliasing() {
        let mut spa = SparseAccumulator::<f64>::new(2);
        spa.scatter(1, 5.0);
        drained(&mut spa);
        spa.ensure_ncols(130);
        assert_eq!(spa.ncols(), 130);
        assert!(spa.scatter(129, 1.0), "grown slot must read untouched");
        assert!(spa.scatter(64, 3.0), "grown slot must read untouched");
        assert!(spa.scatter(1, 2.0));
        assert_eq!(drained(&mut spa), bits(&[(1, 2.0), (64, 3.0), (129, 1.0)]));

        let mut sizer = RowSizer::new(2);
        sizer.mark(0);
        sizer.finish_row();
        sizer.ensure_ncols(8);
        assert!(sizer.mark(7));
        assert!(sizer.mark(0));
        assert_eq!(sizer.finish_row(), 2);
    }

    /// A pooled accumulator fitted to a narrower product keeps its wide
    /// arrays but scans only the narrow product's words.
    #[test]
    fn narrower_fit_keeps_storage_and_drains_clean() {
        let mut spa = SparseAccumulator::<f64>::new(10_000);
        spa.scatter(9_999, 1.0);
        drained(&mut spa);
        spa.ensure_ncols(65);
        assert_eq!((spa.ncols(), spa.words), (10_000, 2));
        for c in [64u32, 0, 3] {
            spa.scatter(c, 1.0);
        }
        assert_eq!(drained(&mut spa), bits(&[(0, 1.0), (3, 1.0), (64, 1.0)]));
        assert!(clean(&spa));
    }
}
