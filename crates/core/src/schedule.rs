//! Plan/execute split for the numeric work of Phases II–IV.
//!
//! Every algorithm path first runs its event-driven cost simulation
//! *serially* — thresholds, device clocks, and claim grains are pure
//! cost-model state and must stay bit-identical to the pre-split code —
//! recording only a [`ClaimSchedule`]: which device took which rows under
//! which B-mask, and at what simulated cost. The numeric work then runs in
//! one shot through [`execute`].
//!
//! Two executors implement the same contract:
//!
//! * [`ExecPolicy::Batched`] (default) — the production engine, one path
//!   for every thread count. The schedule is prepared once — its
//!   (claim, row) pairs counting-sorted by output row, and each row's flop
//!   bound — and any contiguous range of rows drains from that
//!   preparation straight into the range's own CSR arrays, reserved once
//!   from the flop bound on their nnz. Each row's claims run in claim
//!   order through the worker's
//!   [`SparseAccumulator`](spmm_sparse::SparseAccumulator), which drains
//!   the row in column order. The rows are cut into contiguous segments of
//!   about equal flops — one segment on a one-thread pool or for a small
//!   product — one worker draining each. One segment is C; several are
//!   stitched by [`concat_row_bands`]. A sharded run ([`crate::shard`])
//!   drains its row bands from one such preparation of the global
//!   schedule.
//! * [`ExecPolicy::PerClaim`] — the oracle: the serial
//!   [`reference::spmm_claims`], which shares no code with the batched
//!   path (no accumulator type, no thread pool, no workspaces). The
//!   equivalence suite pins the batched path against it bit for bit.
//!
//! Bit-identity of the batched output holds by construction: each output
//! row's claims are visited in claim index order, the oracle's order;
//! every claim's run is `kernels::scatter_row`'s accumulation in A-row
//! visit order onto a −0.0 seed, which has the bits of the oracle's
//! "first touch stores `a·b`, later touches `+=`"; and a
//! multi-claim row's column sums its runs from zero in claim order, a run
//! that missed it adding −0.0 — the oracle's per-row sum. A one-claim row
//! is kept verbatim by both. Segment and band cuts only decide which
//! worker drains a row, never how.

use std::ops::Range;

use spmm_hetsim::DeviceKind;
use spmm_parallel::ThreadPool;
use spmm_sparse::{reference, CsrMatrix, Scalar, WorkspacePool};

use crate::kernels::scatter_row;
use crate::shard::concat_row_bands;

/// Flops under which a product runs as one segment, and the least share of
/// a segment when several split it: below this, a worker's dispatch and
/// workspace checkout outweigh its rows.
const SEGMENT_MIN_FLOPS: u64 = 1 << 15;

/// Segments per pool thread for a large product, so a worker that drew
/// light rows claims more.
const SEGMENTS_PER_THREAD: usize = 4;

/// Which executor runs the scheduled numeric work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPolicy {
    /// The batched one-pass executor over all claims (default).
    #[default]
    Batched,
    /// The serial oracle [`reference::spmm_claims`].
    PerClaim,
}

/// One recorded claim: a device took `rows` of `A` against the `b_mask`
/// half of `B` at simulated cost `sim_ns`.
#[derive(Debug, Clone, Copy)]
pub struct ScheduledClaim<'a> {
    /// Which simulated device the claim was charged to.
    pub device: DeviceKind,
    /// Output rows (= A rows) of the claim.
    pub rows: &'a [usize],
    /// B-row mask of the product quadrant (`None` ⇒ all of B).
    pub b_mask: Option<&'a [bool]>,
    /// Simulated ns the cost model charged for this claim.
    pub sim_ns: f64,
}

/// The full plan of one run, claims in *block order*: the order the
/// pre-split code pushed its `RowBlock`s (all CPU claims, then all GPU
/// claims, Phase II before Phase III within each device).
#[derive(Debug, Clone, Default)]
pub struct ClaimSchedule<'a> {
    pub claims: Vec<ScheduledClaim<'a>>,
}

/// Stored-entry counts of the executed schedule: one entry per accumulator
/// insertion, exactly the per-block nnz sums the pre-split code derived —
/// these feed the Phase IV merge cost and the device→host transfer bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecCounts {
    /// Stored entries produced by each claim, in schedule order.
    pub per_claim: Vec<usize>,
    /// Entries from CPU claims.
    pub cpu_entries: usize,
    /// Entries from GPU claims.
    pub gpu_entries: usize,
}

impl ExecCounts {
    pub(crate) fn from_per_claim(schedule: &ClaimSchedule<'_>, per_claim: Vec<usize>) -> Self {
        let mut cpu_entries = 0;
        let mut gpu_entries = 0;
        for (claim, &n) in schedule.claims.iter().zip(&per_claim) {
            match claim.device {
                DeviceKind::Cpu => cpu_entries += n,
                DeviceKind::Gpu => gpu_entries += n,
            }
        }
        Self {
            per_claim,
            cpu_entries,
            gpu_entries,
        }
    }
}

/// Run the numeric work of a recorded schedule and assemble the output
/// CSR. Output bits and entry counts are identical for both policies and
/// any host thread count.
///
/// # Panics
///
/// If `shape` is not `(a.nrows(), b.ncols())`.
pub fn execute<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    schedule: &ClaimSchedule<'_>,
    shape: (usize, usize),
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
    exec: ExecPolicy,
) -> (CsrMatrix<T>, ExecCounts) {
    assert_eq!(shape, (a.nrows(), b.ncols()), "shape of A × B");
    let (c, per_claim) = match exec {
        ExecPolicy::PerClaim => {
            let claims: Vec<(&[usize], Option<&[bool]>)> = schedule
                .claims
                .iter()
                .map(|claim| (claim.rows, claim.b_mask))
                .collect();
            reference::spmm_claims(a, b, &claims).expect("incompatible shapes for product")
        }
        ExecPolicy::Batched => execute_batched(a, b, schedule, pool, workspaces),
    };
    (c, ExecCounts::from_per_claim(schedule, per_claim))
}

/// The production executor: row segments of about equal flops, each
/// drained by one worker (see the module docs). One segment is returned as
/// C; several are stitched in row order, their per-claim counts summed.
///
/// Per-claim entry counts are each claim's distinct columns in its row —
/// the oracle's run lengths — so `ExecCounts` (and every simulated
/// Phase-IV cost downstream) is the same under either policy.
fn execute_batched<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    schedule: &ClaimSchedule<'_>,
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
) -> (CsrMatrix<T>, Vec<usize>) {
    let prepared = PreparedSchedule::new(a, b, schedule);
    let bounds = segment_bounds(&prepared.flops, pool.num_threads());
    if let [lo, hi] = bounds[..] {
        return prepared.drain(lo..hi, workspaces);
    }
    let parts = pool.par_map(bounds.len() - 1, |s| {
        prepared.drain(bounds[s]..bounds[s + 1], workspaces)
    });
    let mut per_claim = vec![0; schedule.claims.len()];
    let mut bands = Vec::with_capacity(parts.len());
    for (band, counts) in parts {
        for (total, n) in per_claim.iter_mut().zip(counts) {
            *total += n;
        }
        bands.push(band);
    }
    (concat_row_bands(&bands, b.ncols()), per_claim)
}

/// A claim schedule of `A × B` prepared for draining: its (claim, row)
/// pairs counting-sorted by output row, and each row's flop bound.
/// [`Self::drain`] runs any contiguous range of rows, so the executor's
/// segments and a sharded run's row bands ([`crate::shard`]) drain
/// one preparation of the one schedule, A and B read in place.
pub(crate) struct PreparedSchedule<'p, 'a, T: Scalar> {
    a: &'p CsrMatrix<T>,
    b: &'p CsrMatrix<T>,
    claims: &'p [ScheduledClaim<'a>],
    /// Row `r`'s claims are `src[src_off[r]..src_off[r + 1]]`, in claim
    /// order — the oracle's order, which fixes the floating-point fold
    /// order of the drain.
    src_off: Vec<usize>,
    src: Vec<u32>,
    /// Σ|B(j,:)| over a claimed row's A entries: the row's work, and a
    /// bound on its nnz, since each of its columns comes from one of those
    /// B rows whatever the claims' masks. Unclaimed rows read 0.
    flops: Vec<u64>,
}

impl<'p, 'a, T: Scalar> PreparedSchedule<'p, 'a, T> {
    pub(crate) fn new(
        a: &'p CsrMatrix<T>,
        b: &'p CsrMatrix<T>,
        schedule: &'p ClaimSchedule<'a>,
    ) -> Self {
        let nrows = a.nrows();
        let claims = &schedule.claims[..];
        let mut src_off = vec![0usize; nrows + 1];
        for claim in claims {
            for &r in claim.rows {
                src_off[r + 1] += 1;
            }
        }
        for r in 0..nrows {
            src_off[r + 1] += src_off[r];
        }
        let mut src: Vec<u32> = vec![0; src_off[nrows]];
        let mut cursor = src_off.clone();
        for (ci, claim) in claims.iter().enumerate() {
            for &r in claim.rows {
                src[cursor[r]] = ci as u32;
                cursor[r] += 1;
            }
        }
        let flops = (0..nrows)
            .map(|r| {
                if src_off[r + 1] == src_off[r] {
                    return 0;
                }
                let row_b_nnz = |&j: &u32| b.row_nnz(j as usize) as u64;
                a.row(r).0.iter().map(row_b_nnz).sum()
            })
            .collect();
        Self {
            a,
            b,
            claims,
            src_off,
            src,
            flops,
        }
    }

    /// Drain `rows` in order into one band of C (`rows.len()` rows), with
    /// the band's entry count for every claim of the schedule. The band's
    /// arrays are reserved once for Σ min(row flops, ncols) entries; a
    /// bound too large to reserve falls back to ordinary growth.
    pub(crate) fn drain(
        &self,
        rows: Range<usize>,
        workspaces: &WorkspacePool,
    ) -> (CsrMatrix<T>, Vec<usize>) {
        let (a, b, claims) = (self.a, self.b, self.claims);
        let ncols = b.ncols();
        let bound: u64 = self.flops[rows.clone()]
            .iter()
            .map(|&f| f.min(ncols as u64))
            .sum();
        let (mut indices, mut values) = (Vec::new(), Vec::new());
        if let Ok(bound) = usize::try_from(bound) {
            let _ = indices
                .try_reserve_exact(bound)
                .and_then(|()| values.try_reserve_exact(bound));
        }
        let mut indptr = Vec::with_capacity(rows.len() + 1);
        indptr.push(0);
        let mut counts = vec![0; claims.len()];
        let mut acc = workspaces.acquire::<T>(ncols);
        for r in rows.clone() {
            let row_claims = &self.src[self.src_off[r]..self.src_off[r + 1]];
            let claim = |k: usize| row_claims[k] as usize;
            acc.accumulate_row(
                row_claims.len(),
                |k, lane| scatter_row(a, b, r, claims[claim(k)].b_mask, lane),
                |k, n| counts[claim(k)] += n,
                &mut indices,
                &mut values,
            );
            indptr.push(indices.len());
        }
        let band = CsrMatrix::from_parts_unchecked(rows.len(), ncols, indptr, indices, values);
        (band, counts)
    }
}

/// Row bounds of the segments, `bounds[s]..bounds[s + 1]` each. One
/// segment on a one-thread pool or for a product under two floors of
/// flops; otherwise up to [`SEGMENTS_PER_THREAD`] per thread, each about
/// [`SEGMENT_MIN_FLOPS`] or more, cut where the running flop total crosses
/// the next equal share. A row heavier than a share ends its segment and
/// skips the shares it spans, so no segment is empty.
fn segment_bounds(flops: &[u64], threads: usize) -> Vec<usize> {
    let total: u64 = flops.iter().sum();
    let nseg = if threads == 1 {
        1
    } else {
        (total / SEGMENT_MIN_FLOPS).clamp(1, (SEGMENTS_PER_THREAD * threads) as u64)
    };
    let mut bounds = vec![0];
    let (mut acc, mut next) = (0u64, 1u64);
    for (r, &f) in flops.iter().enumerate() {
        acc += f;
        if next < nseg && acc * nseg >= next * total && r + 1 < flops.len() {
            bounds.push(r + 1);
            next = acc * nseg / total + 1;
        }
    }
    bounds.push(flops.len());
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_scalefree::{scale_free_matrix, GeneratorConfig};

    fn scale_free(n: usize, nnz: usize, seed: u64) -> CsrMatrix<f64> {
        scale_free_matrix(&GeneratorConfig::square_power_law(n, nnz, 2.3, seed))
    }

    /// An hh_cpu-shaped schedule: every row in one phase-2 claim (A-side
    /// mask half), low rows claimed again under the complementary B half.
    fn hh_like_schedule<'a>(
        rows_h: &'a [usize],
        rows_l: &'a [usize],
        b_high: &'a [bool],
        b_low: &'a [bool],
        pieces: &'a [std::ops::Range<usize>],
    ) -> ClaimSchedule<'a> {
        let mut claims = vec![
            ScheduledClaim {
                device: DeviceKind::Cpu,
                rows: rows_h,
                b_mask: Some(b_high),
                sim_ns: 1.0,
            },
            ScheduledClaim {
                device: DeviceKind::Gpu,
                rows: rows_l,
                b_mask: Some(b_low),
                sim_ns: 1.0,
            },
        ];
        for (i, p) in pieces.iter().enumerate() {
            claims.push(ScheduledClaim {
                device: if i % 2 == 0 {
                    DeviceKind::Cpu
                } else {
                    DeviceKind::Gpu
                },
                rows: &rows_l[p.clone()],
                b_mask: Some(b_high),
                sim_ns: 1.0,
            });
        }
        for (i, p) in pieces.iter().enumerate() {
            claims.push(ScheduledClaim {
                device: if i % 2 == 0 {
                    DeviceKind::Gpu
                } else {
                    DeviceKind::Cpu
                },
                rows: &rows_h[p.start.min(rows_h.len())..p.end.min(rows_h.len())],
                b_mask: Some(b_low),
                sim_ns: 1.0,
            });
        }
        ClaimSchedule { claims }
    }

    #[test]
    fn batched_matches_per_claim_bitwise() {
        let a = scale_free(400, 3_200, 5);
        let t = a.mean_row_nnz().ceil() as usize;
        let b_high: Vec<bool> = (0..a.nrows()).map(|i| a.row_nnz(i) >= t).collect();
        let b_low: Vec<bool> = b_high.iter().map(|&h| !h).collect();
        let rows_h = crate::kernels::rows_where(&b_high, true);
        let rows_l = crate::kernels::rows_where(&b_high, false);
        let pieces: Vec<std::ops::Range<usize>> = {
            let mut v = Vec::new();
            let mut lo = 0;
            let mut g = 7;
            while lo < rows_l.len() {
                let hi = (lo + g).min(rows_l.len());
                v.push(lo..hi);
                lo = hi;
                g = g * 2 + 1;
            }
            v
        };
        let schedule = hh_like_schedule(&rows_h, &rows_l, &b_high, &b_low, &pieces);
        let shape = (a.nrows(), a.ncols());
        let ws = WorkspacePool::new();
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let (c_ref, n_ref) =
                execute(&a, &a, &schedule, shape, &pool, &ws, ExecPolicy::PerClaim);
            let (c_bat, n_bat) = execute(&a, &a, &schedule, shape, &pool, &ws, ExecPolicy::Batched);
            assert_eq!(c_ref, c_bat, "output diverged at {threads} threads");
            assert_eq!(n_ref, n_bat, "counts diverged at {threads} threads");
        }
    }

    #[test]
    fn segment_bounds_cut_equal_flop_shares() {
        let f = SEGMENT_MIN_FLOPS;
        // one thread, a product under two floors, or no rows: one segment
        assert_eq!(segment_bounds(&[f * 100; 8], 1), vec![0, 8]);
        assert_eq!(segment_bounds(&[f / 8; 8], 8), vec![0, 8]);
        assert_eq!(segment_bounds(&[], 8), vec![0, 0]);
        // at most four segments a thread, and no segment under the floor
        assert_eq!(segment_bounds(&[f; 8], 2), (0..=8).collect::<Vec<_>>());
        assert_eq!(segment_bounds(&[f / 2; 8], 8), vec![0, 2, 4, 6, 8]);
        assert_eq!(segment_bounds(&[f * 100; 12], 2).len(), 9);
        // a hub row spanning several shares ends its segment, skips the
        // shares it covers, and leaves no segment empty
        let bounds = segment_bounds(&[f, 6 * f, f, 0, 0, f / 2, f / 2], 2);
        assert_eq!(bounds, vec![0, 2, 3, 7]);
    }

    /// Σ|B(j,:)| over every A entry of each row: the executor's per-row
    /// flops for a schedule that claims every row.
    fn row_flops(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>) -> Vec<u64> {
        (0..a.nrows())
            .map(|r| {
                a.row(r)
                    .0
                    .iter()
                    .map(|&j| b.row_nnz(j as usize) as u64)
                    .sum()
            })
            .collect()
    }

    #[test]
    fn multi_segment_stitch_matches_per_claim() {
        // large enough that two and eight host threads cut several
        // segments, so the product is stitched by `concat_row_bands`
        let a = scale_free(4_000, 40_000, 13);
        let t = a.mean_row_nnz().ceil() as usize;
        let b_high: Vec<bool> = (0..a.nrows()).map(|i| a.row_nnz(i) >= t).collect();
        let b_low: Vec<bool> = b_high.iter().map(|&h| !h).collect();
        let rows_h = crate::kernels::rows_where(&b_high, true);
        let rows_l = crate::kernels::rows_where(&b_high, false);
        let third = rows_l.len() / 3;
        let pieces = [0..third, third..rows_l.len()];
        let schedule = hh_like_schedule(&rows_h, &rows_l, &b_high, &b_low, &pieces);
        let shape = (a.nrows(), a.ncols());
        let ws = WorkspacePool::new();
        let (c_ref, n_ref) = execute(
            &a,
            &a,
            &schedule,
            shape,
            &ThreadPool::new(1),
            &ws,
            ExecPolicy::PerClaim,
        );
        for threads in [2, 8] {
            let segments = segment_bounds(&row_flops(&a, &a), threads).len() - 1;
            assert!(segments >= 2, "{segments} segment(s) at {threads} threads");
            let pool = ThreadPool::new(threads);
            let (c_bat, n_bat) = execute(&a, &a, &schedule, shape, &pool, &ws, ExecPolicy::Batched);
            assert!(c_bat.bit_eq(&c_ref), "output diverged at {threads} threads");
            assert_eq!(n_ref, n_bat, "counts diverged at {threads} threads");
        }
    }

    #[test]
    fn prepared_drains_of_any_row_partition_stitch_to_execute() {
        // the sharded path: one prepared schedule drained over a
        // partition of the rows, the parts stitched in row order
        let a = scale_free(600, 5_000, 21);
        let b = scale_free(600, 4_000, 22);
        let t = a.mean_row_nnz().ceil() as usize;
        let b_high: Vec<bool> = (0..b.nrows()).map(|i| b.row_nnz(i) >= t).collect();
        let b_low: Vec<bool> = b_high.iter().map(|&h| !h).collect();
        let a_high: Vec<bool> = (0..a.nrows()).map(|i| a.row_nnz(i) >= t).collect();
        let rows_h = crate::kernels::rows_where(&a_high, true);
        let rows_l = crate::kernels::rows_where(&a_high, false);
        let pieces = [0..rows_l.len() / 4, rows_l.len() / 4..rows_l.len()];
        let schedule = hh_like_schedule(&rows_h, &rows_l, &b_high, &b_low, &pieces);
        let (c_ref, n_ref) = execute(
            &a,
            &b,
            &schedule,
            (a.nrows(), b.ncols()),
            &ThreadPool::new(1),
            &WorkspacePool::new(),
            ExecPolicy::PerClaim,
        );
        let n = a.nrows();
        let hub = (0..n).max_by_key(|&r| a.row_nnz(r)).unwrap();
        assert!(hub > 0 && hub + 1 < n, "the hub row must sit inside A");
        let partitions: [Vec<usize>; 5] = [
            vec![0, n],
            (0..=8).map(|k| k * n / 8).collect(),
            // empty ranges at the ends and inside
            vec![0, 0, 3, 3, n / 2, n / 2, n, n],
            // single rows, then the rest
            vec![0, 1, 2, 3, 4, n],
            // the hub row alone
            vec![0, hub, hub + 1, n],
        ];
        let ws = WorkspacePool::new();
        let prepared = PreparedSchedule::new(&a, &b, &schedule);
        for bounds in partitions {
            let parts: Vec<_> = bounds
                .windows(2)
                .map(|w| prepared.drain(w[0]..w[1], &ws))
                .collect();
            let mut per_claim = vec![0; schedule.claims.len()];
            for (band, counts) in &parts {
                assert_eq!(band.ncols(), b.ncols());
                for (total, &n) in per_claim.iter_mut().zip(counts) {
                    *total += n;
                }
            }
            let bands: Vec<CsrMatrix<f64>> = parts.into_iter().map(|(band, _)| band).collect();
            let c = concat_row_bands(&bands, b.ncols());
            assert!(c.bit_eq(&c_ref), "C diverged over rows {bounds:?}");
            let counts = ExecCounts::from_per_claim(&schedule, per_claim);
            assert_eq!(counts, n_ref, "counts diverged over rows {bounds:?}");
        }
    }

    #[test]
    fn full_coverage_schedule_matches_reference_product() {
        let a = scale_free(300, 2_100, 9);
        let all: Vec<usize> = (0..a.nrows()).collect();
        let schedule = ClaimSchedule {
            claims: vec![ScheduledClaim {
                device: DeviceKind::Cpu,
                rows: &all,
                b_mask: None,
                sim_ns: 0.0,
            }],
        };
        let pool = ThreadPool::new(4);
        let (c, counts) = execute(
            &a,
            &a,
            &schedule,
            (a.nrows(), a.ncols()),
            &pool,
            &WorkspacePool::new(),
            ExecPolicy::Batched,
        );
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        assert!(c.approx_eq(&expected, 1e-9, 1e-12));
        assert_eq!(counts.cpu_entries, c.nnz());
        assert_eq!(counts.gpu_entries, 0);
    }

    #[test]
    fn empty_schedule_yields_zero_matrix() {
        let a = scale_free(50, 250, 1);
        let pool = ThreadPool::new(2);
        let schedule = ClaimSchedule::default();
        for policy in [ExecPolicy::Batched, ExecPolicy::PerClaim] {
            let (c, counts) = execute(
                &a,
                &a,
                &schedule,
                (50, 50),
                &pool,
                &WorkspacePool::new(),
                policy,
            );
            assert_eq!(c.nnz(), 0);
            assert_eq!(c.shape(), (50, 50));
            assert!(counts.per_claim.is_empty());
        }
    }
}
