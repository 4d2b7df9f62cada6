//! Sparse accumulators for Gustavson-style row products.
//!
//! The row-row formulation (§II-A) computes one output row as a sum of
//! scaled B rows. The classic way to do that without materialising and
//! sorting intermediate tuples is Gustavson's SPA (Gilbert–Moler–Schreiber):
//! a dense value array indexed by column plus a record of the columns the
//! current row has touched.
//!
//! [`SparseAccumulator`] is that SPA, and the engine's only numeric
//! accumulator. Its two dense value arrays ("lanes") are seeded with −0.0,
//! the exact identity of IEEE addition, so `v += a·b` from the seed leaves
//! the bits of "store on first touch, `+=` after" and a [`Lane::scatter`]
//! needs no first-touch test: it adds the value, sets the column's bit in
//! the lane's occupancy bitmap and the word's bit in a summary bitmap (one
//! bit per 64 columns) shared by both lanes, with no branch.
//!
//! A row's first claim scatters into lane 0, every later claim into the
//! other lane. The drain walks the marked summary words, then each marked
//! word's bits, so columns come out ascending whatever the row's size, and
//! then gathers the values behind them, resetting each slot to −0.0 and
//! each bit to 0. A one-claim row emits lane 0 verbatim, a row of several
//! claims `(0 + v0) + v1`: the claims oracle's per-row sum, a run that
//! missed the column adding its slot's −0.0. A middle claim of three or
//! more is added into lane 0 in place (`v0 += v1`), so the drain emits
//! `(0 + ((r0 + r1) + …)) + rk`; that has the bits of the oracle's
//! `((0 + r0) + r1) + …` because a sum is −0.0 only when both addends
//! are, so the two differ only where every run so far is −0.0, and there
//! `0 +` gives +0.0 to both. Each lane's bit count is its claim's entry
//! count. The oracle (`reference::spmm_claims`) shares no code with this
//! module.
//!
//! [`RowSizer`] is the symbolic-pass companion: it only needs
//! distinct-column counts and therefore skips the value array entirely.

use crate::{ColIndex, Scalar};

/// Columns one occupancy word covers, and one summary word (64 words).
const WORD: usize = 64;
const SUMMARY_WORD: usize = WORD * 64;

/// Gustavson sparse accumulator with two −0.0-seeded lanes and a
/// two-level occupancy bitmap (see the module docs). Reusable across rows
/// and products; build one per thread.
#[derive(Debug, Clone)]
pub struct SparseAccumulator<T> {
    /// Per lane, every column's value: −0.0 where the row has not touched it.
    values: [Vec<T>; 2],
    /// Per lane, one bit per column, set while the row has touched it.
    occupied: [Vec<u64>; 2],
    /// One bit per occupancy word, set while either lane has a bit in it.
    summary: Vec<u64>,
    /// Width of the fitted product: the lanes' bound and the drain's reach,
    /// which can be narrower than the arrays in a pooled accumulator.
    ncols: usize,
}

/// One lane of a [`SparseAccumulator`], cut to the fitted product's width:
/// where one claim's run of the current row scatters.
pub struct Lane<'a, T> {
    values: &'a mut [T],
    occupied: &'a mut [u64],
    summary: &'a mut [u64],
}

impl<T: Scalar> Lane<'_, T> {
    /// Add `val` to the current row's column `col` and mark the column.
    /// `−0.0 + x` is `x` to the bit, signed zeros and NaN payloads included.
    #[inline]
    pub fn scatter(&mut self, col: ColIndex, val: T) {
        let c = col as usize;
        self.values[c] += val;
        self.occupied[c / WORD] |= 1 << (c % WORD);
        self.summary[c / SUMMARY_WORD] |= 1 << (c / WORD % 64);
    }
}

impl<T: Scalar> SparseAccumulator<T> {
    /// Accumulator for output rows with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        let (values, occupied, summary) = Default::default();
        let mut acc = Self {
            values,
            occupied,
            summary,
            ncols,
        };
        acc.ensure_ncols(ncols);
        acc
    }

    /// Number of columns this accumulator can hold.
    pub fn ncols(&self) -> usize {
        self.values[0].len()
    }

    /// Fit a product `ncols` wide: grow the arrays if they are narrower —
    /// grown slots seeded with −0.0, grown words clear — and bound the
    /// lanes and the drain to that product's columns. Every slot is −0.0
    /// and every bit clear between rows, so pooled workspaces reuse one
    /// accumulator across matrices of any width, and a narrow product never
    /// walks the words a wider one spans.
    pub fn ensure_ncols(&mut self, ncols: usize) {
        self.ncols = ncols;
        if self.ncols() < ncols {
            for (values, occupied) in self.values.iter_mut().zip(&mut self.occupied) {
                values.resize(ncols, -T::ZERO);
                occupied.resize(ncols.div_ceil(WORD), 0);
            }
            self.summary.resize(ncols.div_ceil(SUMMARY_WORD), 0);
        }
    }

    /// Lane `lane` (0 or 1), cut to the fitted width.
    fn lane(&mut self, lane: usize) -> Lane<'_, T> {
        let n = self.ncols;
        Lane {
            values: &mut self.values[lane][..n],
            occupied: &mut self.occupied[lane][..n.div_ceil(WORD)],
            summary: &mut self.summary[..n.div_ceil(SUMMARY_WORD)],
        }
    }

    /// Accumulate one output row of `claims` runs and append it to
    /// `cols`/`vals` in ascending column order, leaving the accumulator
    /// clean for the next row. `run(k, lane)` scatters claim `k`'s run into
    /// `lane`, in claim order; `entries(k, n)` reports that claim `k`
    /// stored `n` entries (its distinct columns). A one-claim row is
    /// emitted verbatim, a row of several claims as their sum from zero in
    /// claim order (see the module docs).
    pub fn accumulate_row(
        &mut self,
        claims: usize,
        mut run: impl FnMut(usize, Lane<'_, T>),
        mut entries: impl FnMut(usize, usize),
        cols: &mut Vec<ColIndex>,
        vals: &mut Vec<T>,
    ) {
        // one call site for `run`, so that its scatter loop is compiled
        // into this function rather than called once per claim
        for k in 0..claims {
            run(k, self.lane(usize::from(k > 0)));
            let [n0, n1] = match k {
                0 if claims > 1 => continue,
                0 => self.drain::<false>(cols, vals),
                _ if k + 1 < claims => self.fold(),
                _ => self.drain::<true>(cols, vals),
            };
            if k <= 1 {
                entries(0, n0);
            }
            if k >= 1 {
                entries(k, n1);
            }
        }
    }

    /// Fold a middle claim into lane 0 in place: `v0 += v1` for each column
    /// either lane marks, lane 1's slots back to −0.0 and its bits moved
    /// into lane 0's; the summary stays. The drain's `0 +` later starts the
    /// whole sum (see the module docs). Returns both lanes' entry counts.
    /// Out of line: only rows of three or more claims fold.
    #[inline(never)]
    fn fold(&mut self) -> [usize; 2] {
        let ([v0, v1], [o0, o1]) = (&mut self.values, &mut self.occupied);
        let mut counts = [0; 2];
        for w in marked_words(&self.summary[..self.ncols.div_ceil(SUMMARY_WORD)]) {
            let (b0, b1) = (o0[w], std::mem::take(&mut o1[w]));
            counts[0] += b0.count_ones() as usize;
            counts[1] += b1.count_ones() as usize;
            for c in set_bits(b0 | b1, w * WORD) {
                v0[c] += std::mem::replace(&mut v1[c], -T::ZERO);
            }
            o0[w] = b0 | b1;
        }
        counts
    }

    /// Append the row to `cols`/`vals` in ascending column order — lane 0
    /// verbatim, or `(0 + v0) + v1` when `FOLDED` (lane 1 is not read
    /// otherwise) — and return both lanes' entry counts. The bit walk
    /// appends the columns and a second, branch-free loop gathers their
    /// values and resets their slots, which is faster than doing both in
    /// one loop.
    fn drain<const FOLDED: bool>(
        &mut self,
        cols: &mut Vec<ColIndex>,
        vals: &mut Vec<T>,
    ) -> [usize; 2] {
        let ([v0, v1], [o0, o1]) = (&mut self.values, &mut self.occupied);
        let (start, mut counts) = (cols.len(), [0; 2]);
        let summary = &mut self.summary[..self.ncols.div_ceil(SUMMARY_WORD)];
        for w in marked_words(summary) {
            let mut bits = std::mem::take(&mut o0[w]);
            if FOLDED {
                let b1 = std::mem::take(&mut o1[w]);
                counts = [counts[0] + bits.count_ones(), counts[1] + b1.count_ones()];
                bits |= b1;
            }
            cols.extend(set_bits(bits, w * WORD).map(|c| c as ColIndex));
        }
        summary.fill(0);
        let row = cols[start..].iter().map(|&c| c as usize);
        if FOLDED {
            vals.extend(row.map(|c| {
                let v = std::mem::replace(&mut v0[c], -T::ZERO);
                (T::ZERO + v) + std::mem::replace(&mut v1[c], -T::ZERO)
            }));
            counts.map(|n| n as usize)
        } else {
            vals.extend(row.map(|c| std::mem::replace(&mut v0[c], -T::ZERO)));
            [cols.len() - start, 0]
        }
    }
}

/// The occupancy words the summary marks, ascending. Each group of 64
/// summary words is reduced to a mask of its marked ones without a branch
/// per word, so a row of a few entries in a wide product pays per word it
/// marked, not per word.
fn marked_words(summary: &[u64]) -> impl Iterator<Item = usize> + '_ {
    summary.chunks(64).enumerate().flat_map(|(g, group)| {
        let marked = (group.iter().enumerate()).fold(0, |m, (i, &s)| m | u64::from(s != 0) << i);
        set_bits(marked, 0).flat_map(move |i| set_bits(group[i], (g * 64 + i) * 64))
    })
}

/// The indices `base + i` of the set bits `i` of `bits`, ascending.
#[inline]
fn set_bits(mut bits: u64, base: usize) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (bits != 0).then(|| {
            let i = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            base + i
        })
    })
}

/// Symbolic-pass companion of [`SparseAccumulator`]: counts the distinct
/// columns of one output row without storing values, with a generation
/// stamp per column so finishing a row is O(1). Every output-width table
/// of the GPU cost model counts with it, and so every GPU spmm price.
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
pub(crate) mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    /// Every slot −0.0 by its bits and every bitmap and summary word zero.
    pub(crate) fn is_clean<T: Scalar>(acc: &SparseAccumulator<T>) -> bool {
        let seed = (-T::ZERO).value_bits();
        acc.values.iter().flatten().all(|v| v.value_bits() == seed)
            && acc.occupied.iter().flatten().all(|&w| w == 0)
            && acc.summary.iter().all(|&w| w == 0)
    }

    type Run<'a> = &'a [(ColIndex, f64)];

    /// Run `runs` as the claims of one row and drain it as
    /// `(col, value bits)`, checking that each claim's reported entries are
    /// its distinct columns and that the drain left the accumulator clean.
    fn row(acc: &mut SparseAccumulator<f64>, runs: &[Run<'_>]) -> Vec<(ColIndex, u64)> {
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        let mut entries = vec![None; runs.len()];
        acc.accumulate_row(
            runs.len(),
            |k, mut lane| {
                for &(c, v) in runs[k] {
                    lane.scatter(c, v);
                }
            },
            |k, n| assert!(entries[k].replace(n).is_none(), "claim {k} counted twice"),
            &mut cols,
            &mut vals,
        );
        for (k, run) in runs.iter().enumerate() {
            let distinct = run.iter().map(|&(c, _)| c).collect::<BTreeSet<_>>().len();
            assert_eq!(entries[k], Some(distinct), "claim {k}'s entries");
        }
        assert!(is_clean(acc), "the drain left a slot or a bit behind");
        cols.into_iter()
            .zip(vals.iter().map(|v| v.to_bits()))
            .collect()
    }

    fn bits(entries: &[(ColIndex, f64)]) -> Vec<(ColIndex, u64)> {
        entries.iter().map(|&(c, v)| (c, v.to_bits())).collect()
    }

    /// The claims oracle's row: each run stores a column's first touch and
    /// `+=`s later ones; one run is kept verbatim, several are summed from
    /// `0.0` in claim order.
    fn oracle(runs: &[Run<'_>]) -> Vec<(ColIndex, u64)> {
        let sums: Vec<BTreeMap<ColIndex, f64>> = runs
            .iter()
            .map(|run| {
                let mut sum = BTreeMap::new();
                for &(c, v) in *run {
                    sum.entry(c).and_modify(|s| *s += v).or_insert(v);
                }
                sum
            })
            .collect();
        let total = match &sums[..] {
            [one] => one.clone(),
            _ => {
                let mut total = BTreeMap::new();
                for (&c, &v) in sums.iter().flatten() {
                    *total.entry(c).or_insert(0.0) += v;
                }
                total
            }
        };
        total.into_iter().map(|(c, v)| (c, v.to_bits())).collect()
    }

    #[test]
    fn scatter_accumulates_duplicates() {
        let mut spa = SparseAccumulator::<f64>::new(8);
        let got = row(&mut spa, &[&[(3, 1.0), (5, 2.0), (3, 4.0)]]);
        assert_eq!(got, bits(&[(3, 5.0), (5, 2.0)]));
    }

    #[test]
    fn drain_resets_for_the_next_row() {
        let mut spa = SparseAccumulator::<f64>::new(4);
        row(&mut spa, &[&[(1, 1.0)]]);
        // same column again: a fresh value, not added to the last row's
        assert_eq!(row(&mut spa, &[&[(1, 7.0)]]), bits(&[(1, 7.0)]));
    }

    #[test]
    fn drain_emits_sorted_columns() {
        // one summary word and three, one claim and two
        for ncols in [100, 10_000] {
            let mut spa = SparseAccumulator::<f64>::new(ncols);
            let run: Vec<(ColIndex, f64)> =
                [90u32, 5, 40, 17, 3].iter().map(|&c| (c, 1.0)).collect();
            let last = ncols as ColIndex - 1;
            let tail = [(last, 1.0), (4, 1.0)];
            let cols = |runs: &[Run<'_>], spa: &mut SparseAccumulator<f64>| -> Vec<ColIndex> {
                row(spa, runs).iter().map(|&(c, _)| c).collect()
            };
            assert_eq!(
                cols(&[&run], &mut spa),
                vec![3, 5, 17, 40, 90],
                "{ncols} columns, one claim"
            );
            assert_eq!(
                cols(&[&run, &tail], &mut spa),
                vec![3, 4, 5, 17, 40, 90, last],
                "{ncols} columns, two claims"
            );
        }
    }

    #[test]
    fn sizer_counts_distinct_columns() {
        let mut sizer = RowSizer::new(10);
        for &c in &[1u32, 4, 1, 9, 4, 4] {
            sizer.mark(c);
        }
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
        let mut spa = SparseAccumulator::<f64>::new(8);
        let got = row(&mut spa, &[&[(2, -0.0), (5, 1.0)], &[(5, 2.0), (7, -0.0)]]);
        // sums start from 0, so -0.0 comes out +0.0
        assert_eq!(got, bits(&[(2, 0.0), (5, 3.0), (7, 0.0)]));
    }

    /// A column only the first of several claims touched drains as
    /// `0 + v`, the oracle's sum from zero, whatever its bits; one every
    /// claim touched sums in claim order.
    #[test]
    fn first_claim_drains_as_a_sum_from_zero_bitwise() {
        let nan = f64::from_bits(0x7ff8_0000_0000_0badu64);
        let first = [
            (2u32, -0.0),
            (9, nan),
            (4, -1.5),
            (2, -0.0),
            (70, 0.0),
            (71, 1e300),
        ];
        let later: [(ColIndex, f64); 2] = [(71, 1e300), (71, -1e300)];
        for runs in [&[&first[..], &[]][..], &[&first[..], &[], &later[..]][..]] {
            let mut spa = SparseAccumulator::<f64>::new(80);
            assert_eq!(row(&mut spa, runs), oracle(runs));
        }
        let mut spa = SparseAccumulator::<f64>::new(80);
        let got = row(&mut spa, &[&first, &[]]);
        assert_eq!(got[0], (2, 0.0f64.to_bits()), "-0.0 not summed from zero");
    }

    #[test]
    fn empty_row_drains_nothing() {
        let mut spa = SparseAccumulator::<f64>::new(4);
        assert!(row(&mut spa, &[&[]]).is_empty());
        assert!(row(&mut spa, &[&[], &[], &[]]).is_empty());
        assert!(row(&mut spa, &[]).is_empty());
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

    /// The word-scan drain appends, bit for bit, what sorting the row's
    /// touched columns and gathering their sums in visit order gives, at
    /// every row length — the empty row, partial words, whole words and
    /// rows denser than a word — and at widths that are and are not a
    /// multiple of 64.
    #[test]
    fn scan_drain_matches_sort_drain_bitwise() {
        let sizes = [
            0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 17, 63, 64, 65, 100, 1025,
        ];
        for ncols in [1u32, 63, 64, 65, 129, 2048, 4097] {
            let mut acc = SparseAccumulator::<f64>::new(ncols as usize);
            for (i, &len) in sizes.iter().enumerate() {
                let stream = touch_stream(len, ncols, i as u64 + 77);
                let mut touched: Vec<ColIndex> = Vec::new();
                let mut sums = vec![0.0f64; ncols as usize];
                for &(c, v) in &stream {
                    if touched.contains(&c) {
                        sums[c as usize] += v;
                    } else {
                        touched.push(c);
                        sums[c as usize] = v;
                    }
                }
                touched.sort_unstable();
                let by_sort: Vec<(ColIndex, u64)> = touched
                    .iter()
                    .map(|&c| (c, sums[c as usize].to_bits()))
                    .collect();
                let by_scan = row(&mut acc, &[&stream]);
                assert_eq!(
                    by_scan, by_sort,
                    "drains diverged at len {len}, {ncols} cols"
                );
            }
        }
    }

    /// Both drains — a one-claim row verbatim, a two-claim row folded —
    /// gather every value with its exact bits, signed zeros and NaN
    /// payloads included, at lengths around every word size.
    #[test]
    fn gather_reads_table_bits_at_every_length() {
        let table: Vec<f64> = (0..257u64)
            .map(|i| match i % 5 {
                0 => -0.0,
                1 => f64::from_bits(0x7ff8_0000_0000_0000 | i),
                _ => ((i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 1) % 2000) as f64 / 7.0 - 140.0,
            })
            .collect();
        let mut acc = SparseAccumulator::<f64>::new(257);
        for n in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 31, 33, 64, 65, 129] {
            let run: Vec<(ColIndex, f64)> = (0..n)
                .map(|i| ((i * 37 + 11) % 257) as ColIndex)
                .map(|c| (c, table[c as usize]))
                .collect();
            for (c, v) in row(&mut acc, &[&run]) {
                assert_eq!(v, table[c as usize].to_bits(), "len {n}, one claim");
            }
            for (c, v) in row(&mut acc, &[&[], &run]) {
                let want = (0.0 + table[c as usize]).to_bits();
                assert_eq!(v, want, "len {n}, folded");
            }
        }
    }

    #[test]
    fn soa_drain_resets_for_next_row() {
        let mut acc = SparseAccumulator::<f64>::new(16);
        let (mut oc, mut ov) = (Vec::new(), Vec::new());
        let mut claims = |acc: &mut SparseAccumulator<f64>, run: &[(ColIndex, f64)]| {
            acc.accumulate_row(
                1,
                |_, mut lane| run.iter().for_each(|&(c, v)| lane.scatter(c, v)),
                |_, _| {},
                &mut oc,
                &mut ov,
            );
        };
        claims(&mut acc, &[(3, 1.0), (1, 2.0)]);
        // next row: the same column starts afresh, appended behind the
        // first row
        claims(&mut acc, &[(3, 7.0)]);
        assert_eq!(oc, vec![1, 3, 3]);
        assert_eq!(ov, vec![2.0, 1.0, 7.0]);
    }

    /// Both drains leave every slot −0.0 and every bit clear, so the next
    /// row's first touch of any column — drained or not — starts afresh.
    #[test]
    fn both_drains_leave_a_clean_bitmap() {
        let run: Vec<(ColIndex, f64)> = [0u32, 63, 64, 65, 127, 128, 199, 64]
            .iter()
            .map(|&c| (c, 1.0))
            .collect();
        let again: Vec<(ColIndex, f64)> = run[..7].iter().map(|&(c, _)| (c, 2.0)).collect();
        for claims in [1, 2] {
            let mut acc = SparseAccumulator::<f64>::new(200);
            let mut runs = vec![&run[..]; claims];
            assert_eq!(row(&mut acc, &runs).len(), 7);
            runs[0] = &again;
            let stale = row(&mut acc, &runs[..1]);
            assert!(
                stale.iter().all(|&(_, v)| v == 2.0f64.to_bits()),
                "{claims} claims"
            );
        }
    }

    /// Every claim shape matches the claims oracle bit for bit at widths
    /// inside one bitmap word, across words, across summary words (4,097
    /// on) and across groups of 64 summary words (the last), with columns
    /// at both ends and around every word boundary, −0.0 products, NaN
    /// payloads, columns repeated within a run and runs that overlap in
    /// every pattern; four claims fold two middle claims in place.
    #[test]
    fn claims_match_the_oracle_at_summary_word_widths() {
        let nan = |p: u64| f64::from_bits(0x7ff8_0000_0000_0000 | p);
        let palette = [-0.0, -0.0, 0.0, nan(0xbad), -1.5, 2.25, 1e300, nan(7)];
        for ncols in [1usize, 63, 64, 65, 4_095, 4_096, 4_097, 8_193, 262_145] {
            let last = ncols - 1;
            let edges = [
                0, 1, 62, 63, 64, 65, 4_095, 4_096, 4_097, 8_191, 8_192, 262_144,
            ];
            let mut cols: Vec<usize> = (edges.into_iter())
                .chain([last.saturating_sub(1), last])
                .filter(|&c| c < ncols)
                .collect();
            cols.sort_unstable();
            cols.dedup();
            // claim k touches the i-th column when bit k of i + 1 is set, so
            // every subset of the first three claims meets some column once
            // there are seven; a column is touched twice in a run when
            // (i + k) % 3 == 0
            let runs: Vec<Vec<(ColIndex, f64)>> = (0..4)
                .map(|k| {
                    let mut run = Vec::new();
                    for (i, &c) in cols.iter().enumerate().rev() {
                        if (i + 1) >> k & 1 == 1 {
                            run.push((c as ColIndex, palette[(i * 3 + k) % palette.len()]));
                            if (i + k) % 3 == 0 {
                                run.push((c as ColIndex, palette[(i + k) % 3]));
                            }
                        }
                    }
                    run
                })
                .collect();
            let mut acc = SparseAccumulator::<f64>::new(ncols);
            for claims in 1..=4 {
                let runs: Vec<Run<'_>> = runs[..claims].iter().map(Vec::as_slice).collect();
                assert_eq!(
                    row(&mut acc, &runs),
                    oracle(&runs),
                    "{ncols} columns, {claims} claims"
                );
            }
        }
    }

    #[test]
    fn ensure_ncols_grows_without_aliasing() {
        let mut spa = SparseAccumulator::<f64>::new(2);
        row(&mut spa, &[&[(1, 5.0)]]);
        spa.ensure_ncols(130);
        assert_eq!(spa.ncols(), 130);
        assert!(is_clean(&spa), "grown slots must be seeded and clear");
        let got = row(&mut spa, &[&[(129, 1.0), (64, -0.0), (1, 2.0)]]);
        assert_eq!(got, bits(&[(1, 2.0), (64, -0.0), (129, 1.0)]));

        let mut sizer = RowSizer::new(2);
        sizer.mark(0);
        sizer.finish_row();
        sizer.ensure_ncols(8);
        assert!(sizer.mark(7));
        assert!(sizer.mark(0));
        assert_eq!(sizer.finish_row(), 2);
    }

    /// A pooled accumulator fitted to a narrower product keeps its wide
    /// arrays but bounds its lanes and drain to the narrow product's words.
    #[test]
    fn narrower_fit_keeps_storage_and_drains_clean() {
        let mut spa = SparseAccumulator::<f64>::new(10_000);
        row(&mut spa, &[&[(9_999, 1.0)]]);
        spa.ensure_ncols(65);
        assert_eq!((spa.ncols(), spa.lane(1).occupied.len()), (10_000, 2));
        let got = row(&mut spa, &[&[(64, 1.0), (0, 1.0), (3, 1.0)]]);
        assert_eq!(got, bits(&[(0, 1.0), (3, 1.0), (64, 1.0)]));
        let past = std::panic::catch_unwind(move || {
            let mut spa = spa;
            spa.lane(0).scatter(65, 1.0)
        });
        assert!(
            past.is_err(),
            "a column past the fitted width must not scatter"
        );
    }
}
