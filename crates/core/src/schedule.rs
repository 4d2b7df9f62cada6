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
//! * [`ExecPolicy::Batched`] (default) — the production engine: one guided
//!   pass over every output row that has a claim, whatever its claim count.
//!   Each claim of the row scatters through the worker's dense SPA
//!   ([`SparseAccumulator`](spmm_sparse::SparseAccumulator), Gustavson's
//!   accumulator) in claim order. A one-claim row is staged straight from
//!   that SPA; a multi-claim row folds each claim's run into a second SPA
//!   ([`SparseAccumulator::fold_into`](spmm_sparse::SparseAccumulator::fold_into))
//!   and stages that. One scan over the staged sizes and one compaction
//!   memcpy build C.
//! * [`ExecPolicy::PerClaim`] — the oracle: the serial
//!   [`reference::spmm_claims`], which shares no code with the batched
//!   path (no SPA type, no thread pool, no workspaces). The equivalence
//!   suite pins the batched path against it bit for bit.
//!
//! Bit-identity of the batched output holds by construction: each output
//! row's claims are visited in claim index order, the oracle's order;
//! every claim's run is [`scatter_row`](crate::kernels::scatter_row)'s
//! accumulation, which is the oracle's (first touch stores `a·b`, later
//! touches `+=`, in A-row visit order); and the fold stores `T::ZERO + v`
//! on a column's first claim and `+= v` on each later one — the very
//! operations, in the very order, of the oracle's per-row sum. A
//! one-claim row is kept verbatim by both.

use std::sync::{Mutex, PoisonError};

use spmm_hetsim::DeviceKind;
use spmm_parallel::{DisjointSlice, ThreadPool};
use spmm_sparse::{
    reference, ColIndex, CsrMatrix, EngineWorkspace, PooledWorkspace, Scalar, StagingBuffer,
    WorkspacePool,
};

use crate::kernels::{compact_staged, offsets_from_sizes, scatter_row, GUIDED_CHUNK};

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
    fn from_per_claim(schedule: &ClaimSchedule<'_>, per_claim: Vec<usize>) -> Self {
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
pub fn execute<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    schedule: &ClaimSchedule<'_>,
    shape: (usize, usize),
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
    exec: ExecPolicy,
) -> (CsrMatrix<T>, ExecCounts) {
    match exec {
        ExecPolicy::PerClaim => {
            assert_eq!(shape, (a.nrows(), b.ncols()), "shape of A × B");
            let claims: Vec<(&[usize], Option<&[bool]>)> = schedule
                .claims
                .iter()
                .map(|claim| (claim.rows, claim.b_mask))
                .collect();
            let (c, per_claim) =
                reference::spmm_claims(a, b, &claims).expect("incompatible shapes for product");
            (c, ExecCounts::from_per_claim(schedule, per_claim))
        }
        ExecPolicy::Batched => execute_batched(a, b, schedule, shape, pool, workspaces),
    }
}

/// The production executor: one guided pass over the rows that have
/// claims. Each claim of a row scatters through the worker's dense SPA in
/// claim order; a one-claim row is staged straight from it, a multi-claim
/// row folds every claim's run into the second (`outer`) SPA and stages
/// that. One scan over the staged sizes fixes the offsets, and one
/// compaction memcpy stitches the staged rows into the final CSR.
///
/// Per-claim entry counts are each claim's SPA nnz before its fold — the
/// oracle's run lengths — so `ExecCounts` (and every simulated
/// Phase-IV cost downstream) is the same under either policy.
fn execute_batched<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    schedule: &ClaimSchedule<'_>,
    shape: (usize, usize),
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
) -> (CsrMatrix<T>, ExecCounts) {
    let (nrows, ncols) = shape;
    let claims = &schedule.claims;
    // Counting sort of (claim, row) by output row. Within one output row
    // the sources stay in claim order — the oracle's order, which fixes
    // the floating-point fold order below.
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
    {
        let mut cursor = src_off.clone();
        for (ci, claim) in claims.iter().enumerate() {
            for &r in claim.rows {
                src[cursor[r]] = ci as u32;
                cursor[r] += 1;
            }
        }
    }
    let (src, src_off) = (&src[..], &src_off[..]);
    let rows: Vec<u32> = (0..nrows)
        .filter(|&r| src_off[r + 1] > src_off[r])
        .map(|r| r as u32)
        .collect();

    let sink = Mutex::new(Sink {
        staged: Vec::new(),
        per_claim: vec![0; claims.len()],
    });
    pool.for_each_guided_items(
        &rows,
        GUIDED_CHUNK,
        || Worker::new(workspaces, ncols, claims.len(), &sink),
        |w, rs| {
            let EngineWorkspace { spa, outer } = &mut *w.ws;
            for &r in rs {
                let sources = &src[src_off[r as usize]..src_off[r as usize + 1]];
                if let [ci] = *sources {
                    scatter_row(a, b, r as usize, claims[ci as usize].b_mask, spa);
                    w.counts[ci as usize] += w.buf.stage(r, spa);
                } else {
                    for &ci in sources {
                        scatter_row(a, b, r as usize, claims[ci as usize].b_mask, spa);
                        w.counts[ci as usize] += spa.nnz();
                        spa.fold_into(outer);
                    }
                    w.buf.stage(r, outer);
                }
            }
        },
    );
    let Sink { staged, per_claim } = sink.into_inner().expect("no worker panicked");

    // A staged run ends where the arena's next one starts.
    let mut sizes = vec![0u64; nrows];
    for arena in &staged {
        let ends = arena.rows.iter().skip(1).map(|&(_, start)| start);
        for (&(r, start), end) in arena.rows.iter().zip(ends.chain([arena.cols.len()])) {
            sizes[r as usize] = (end - start) as u64;
        }
    }
    let (indptr, total) = offsets_from_sizes(sizes, pool);
    let mut indices = vec![0 as ColIndex; total];
    let mut values = vec![T::ZERO; total];
    compact_staged(
        pool,
        staged,
        workspaces,
        &indptr,
        &DisjointSlice::new(&mut indices),
        &DisjointSlice::new(&mut values),
    );

    let c = CsrMatrix::from_parts_unchecked(nrows, ncols, indptr, indices, values);
    (c, ExecCounts::from_per_claim(schedule, per_claim))
}

/// What the batched pass's workers leave behind: their filled staging
/// arenas and their per-claim entry counts, summed.
struct Sink<T> {
    staged: Vec<StagingBuffer<T>>,
    per_claim: Vec<usize>,
}

/// One worker's state for the batched pass: a pooled workspace (the
/// claim SPA and the fold SPA), an owned staging arena and per-claim entry
/// tallies. On drop the tallies are added into the sink, and the arena is
/// handed to the compaction stage (staged data must outlive the worker
/// that produced it) or, when empty, returned to the pool.
struct Worker<'p, T: Scalar> {
    ws: PooledWorkspace<'p, T>,
    buf: StagingBuffer<T>,
    counts: Vec<usize>,
    pool: &'p WorkspacePool,
    sink: &'p Mutex<Sink<T>>,
}

impl<'p, T: Scalar> Worker<'p, T> {
    fn new(
        pool: &'p WorkspacePool,
        ncols: usize,
        nclaims: usize,
        sink: &'p Mutex<Sink<T>>,
    ) -> Self {
        Self {
            ws: pool.acquire::<T>(ncols),
            buf: pool.take_staging(),
            counts: vec![0; nclaims],
            pool,
            sink,
        }
    }
}

impl<T: Scalar> Drop for Worker<'_, T> {
    fn drop(&mut self) {
        // a poisoned sink means another worker panicked and the product
        // is abandoned; drop must not panic on top of that
        let mut sink = self.sink.lock().unwrap_or_else(PoisonError::into_inner);
        for (total, &n) in sink.per_claim.iter_mut().zip(&self.counts) {
            *total += n;
        }
        let buf = std::mem::replace(&mut self.buf, StagingBuffer::new());
        if buf.is_empty() {
            self.pool.release_staging(buf);
        } else {
            sink.staged.push(buf);
        }
    }
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
