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
//! * [`ExecPolicy::Batched`] (default) — the production engine. One
//!   bounds pass over *every* claim computes each output row's structural
//!   upper bound; rows whose bound fits [`FUSED_UB_MAX`] are scattered
//!   once into pooled staging (no symbolic pass), only the heavy tail is
//!   sized exactly, and one exclusive scan fixes every output slot — Liu &
//!   Vinter's upper-bound-then-allocate SpGEMM. The pool sees a handful of
//!   large guided work lists instead of fork-joins per claim.
//! * [`ExecPolicy::PerClaim`] — the reference: one plain dense-SPA
//!   [`row_products`](crate::kernels::row_products) per claim, then
//!   [`concat_row_blocks`](crate::merge::concat_row_blocks). The
//!   equivalence suite pins the batched path against it bit for bit.
//!
//! The batched executor routes each output row once, by its claim count,
//! its masked source count and its bound:
//!
//! * **copy** — one claim, one masked source: the scaled B row verbatim,
//!   no accumulator at all;
//! * **bounded single-claim** — scattered once through the dense SPA and
//!   drained into staging;
//! * **heavy single-claim** — sized by the symbolic pass, then scattered
//!   through the SPA straight into its final slot;
//! * **bounded multi-claim** — per-claim runs (set merges of scaled B rows
//!   for few sources, the SPA otherwise) merged in claim order into
//!   staging;
//! * **heavy multi-claim** — sized exactly, per-claim SPA runs merged in
//!   claim order into the final slot.
//!
//! The dense SPA ([`SparseAccumulator`]) is the only numeric accumulator:
//! it is the reference's own, so a row that scatters through it drains
//! the reference's bits.
//!
//! Bit-identity of the batched output is structural, not accidental: each
//! output row's sources are ordered by claim index, which equals the
//! reference's block order; every row is produced by
//! [`scatter_row`](crate::kernels::scatter_row)'s accumulation order (or a
//! copy/merge proven to round identically) and an ascending drain; and a
//! multi-source row merges its per-claim runs with exactly the
//! `sum = 0; sum += v_k` source-order accumulation the per-row merge of
//! `concat_row_blocks` performs.

use std::sync::atomic::{AtomicUsize, Ordering};

use std::sync::Mutex;

use spmm_hetsim::DeviceKind;
use spmm_parallel::{DisjointSlice, ThreadPool};
use spmm_sparse::{
    simd, upper_bound, ColIndex, CsrMatrix, EngineWorkspace, Scalar, SparseAccumulator,
    StagingBuffer, WorkspacePool,
};

use crate::kernels::{
    compact_staged, offsets_from_sizes, row_products_pooled, scatter_row, FusedStager, RowBlock,
    GUIDED_CHUNK,
};
use crate::merge::{
    concat_row_blocks, merge2_scaled, merge2_scaled_set, merge2_sorted, merge_scaled_set,
    MergeScratch,
};

/// Per-thread staging budget for the fused single-pass tier, in potential
/// output entries (the [`upper_bound`] bound, not exact nnz). Rows at or
/// under the budget skip the symbolic pass: they scatter once through the
/// dense SPA and drain into an exact-size staging carve-out
/// (≤ `FUSED_UB_MAX × (4 + 8)` bytes per row for f64 — comfortably inside
/// L2). Rows above it keep the exact two-pass treatment: for hub rows the
/// bound is loose (many colliding sources), and staging a multi-MB
/// over-allocation per row would evict the caches the SPA relies on.
pub const FUSED_UB_MAX: u64 = 4096;

/// Guided chunk for the copy pass and the staging compaction: each row is
/// a memcpy, so scheduling overhead dominates and chunks are large.
pub(crate) const COPY_CHUNK: usize = 16 * GUIDED_CHUNK;

/// Guided chunk for the bounded (fused) passes: every row there is capped
/// by [`FUSED_UB_MAX`], so rows are moderate and a hub-sized chunk would
/// drown them in claim traffic.
const BOUNDED_CHUNK: usize = 2 * GUIDED_CHUNK;

/// Guided chunk for the heavy passes: hub rows are a lot of work each, so
/// fine-grained stealing balances better.
const HEAVY_CHUNK: usize = GUIDED_CHUNK / 4;

/// Which executor runs the scheduled numeric work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecPolicy {
    /// The batched bounds/fused/scan executor over all claims (default).
    #[default]
    Batched,
    /// Per-claim dense-SPA `row_products` + `concat_row_blocks` reference.
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

impl<'a> ClaimSchedule<'a> {
    /// Total simulated ns charged to `device` across the schedule.
    pub fn device_ns(&self, device: DeviceKind) -> f64 {
        self.claims
            .iter()
            .filter(|c| c.device == device)
            .map(|c| c.sim_ns)
            .sum()
    }
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
        ExecPolicy::PerClaim => execute_per_claim(a, b, schedule, shape, pool, workspaces),
        ExecPolicy::Batched => execute_batched(a, b, schedule, shape, pool, workspaces),
    }
}

/// The reference: one `row_products` per claim, blocks combined by
/// `concat_row_blocks` in schedule (block) order.
fn execute_per_claim<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    schedule: &ClaimSchedule<'_>,
    shape: (usize, usize),
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
) -> (CsrMatrix<T>, ExecCounts) {
    let blocks: Vec<RowBlock<T>> = schedule
        .claims
        .iter()
        .map(|claim| row_products_pooled(a, b, claim.rows, claim.b_mask, pool, workspaces))
        .collect();
    let per_claim: Vec<usize> = blocks.iter().map(RowBlock::nnz).collect();
    let c = concat_row_blocks(&blocks, shape, pool);
    (c, ExecCounts::from_per_claim(schedule, per_claim))
}

/// The production executor: one bounds pass instead of a full symbolic
/// pass, with the exact sizer surviving only for rows whose bound exceeds
/// [`FUSED_UB_MAX`]. Bounded single-source rows scatter once through the
/// dense SPA; bounded multi-source rows keep the reference's per-run
/// materialisation and claim-order merge (the bits are defined by that
/// grouping) but merge into staging instead of a pre-sized slot. Both
/// drain into pooled staging and are stitched into the final CSR by one
/// compaction memcpy after the scan.
///
/// Per-claim entry counts accumulate at staging/drain time as the exact
/// nnz of each produced run against its claim — the reference's per-block
/// nnz — so `ExecCounts` (and therefore every simulated Phase-IV cost
/// downstream) is the same under either policy.
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
    // the sources stay in claim order — the reference's block order,
    // which fixes the floating-point merge order below.
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

    // Bounds pass: structural upper bound + masked source count per output
    // row, summed over the row's claims. O(nnz(A)) per claim with O(1)
    // B-row lookups — no sizer state, no column marking. Two by-products
    // survive for the fused numeric pass, which would otherwise repeat
    // every masked walk of A it performs here: `slot_nsrc` (per-claim
    // source counts, saturated at [`upper_bound::NSRC_SAT`], aligned with
    // `src`) lets it skip empty claims and stop source scans early, and
    // `claim_bits` (one bit per A entry per claim of its row, aligned
    // with A's nnz index space) replaces the per-entry B-mask lookups —
    // the masks of up to 8 claims are evaluated once, here, in a single
    // walk per row.
    let mut ub = vec![0u64; nrows];
    let mut nsrc = vec![0u8; nrows];
    let mut slot_nsrc = vec![0u8; src.len()];
    let mut claim_bits = vec![0u8; a.nnz()];
    {
        let out_u = DisjointSlice::new(&mut ub);
        let out_n = DisjointSlice::new(&mut nsrc);
        let out_s = DisjointSlice::new(&mut slot_nsrc);
        let out_bits = DisjointSlice::new(&mut claim_bits);
        pool.for_each_guided(nrows, 8 * GUIDED_CHUNK, |range| {
            for r in range {
                let sources = &src[src_off[r]..src_off[r + 1]];
                let mut u = 0u64;
                let mut n = 0u8;
                if sources.len() <= 8 && !sources.is_empty() {
                    // single walk over the row, all claim masks per entry
                    let acols = a.row(r).0;
                    let base = a.indptr()[r];
                    let mut ubk = [0u64; 8];
                    let mut nk = [0u8; 8];
                    for (t, &j) in acols.iter().enumerate() {
                        let mut bits = 0u8;
                        for (k, &ci) in sources.iter().enumerate() {
                            let pass = claims[ci as usize].b_mask.is_none_or(|m| m[j as usize]);
                            if pass {
                                bits |= 1 << k;
                                ubk[k] = ubk[k].saturating_add(b.row_nnz(j as usize) as u64);
                                if nk[k] < upper_bound::NSRC_SAT {
                                    nk[k] += 1;
                                }
                            }
                        }
                        // entries of row r are exclusive to r's claimant
                        unsafe { out_bits.write(base + t, bits) };
                    }
                    for k in 0..sources.len() {
                        u = u.saturating_add(ubk[k]);
                        n = n.saturating_add(nk[k]);
                        // slots of row r are exclusive to r's claimant
                        unsafe { out_s.write(src_off[r] + k, nk[k]) };
                    }
                } else {
                    // >8 claims: no bit space — per-claim walks, and the
                    // numeric pass falls back to mask-checked scatters
                    for (k, &ci) in sources.iter().enumerate() {
                        let bound = upper_bound::row_bound(a, b, r, claims[ci as usize].b_mask);
                        u = u.saturating_add(bound.ub);
                        n = n.saturating_add(bound.nsrc);
                        // slots of row r are exclusive to r's claimant
                        unsafe { out_s.write(src_off[r] + k, bound.nsrc) };
                    }
                }
                if sources.len() > 1 {
                    // multi-source rows never take the copy fast path
                    n = 2;
                }
                // one writer per output row
                unsafe {
                    out_u.write(r, u);
                    out_n.write(r, n);
                }
            }
        });
    }

    // Route: copy rows are exactly sized by their bound (sole masked
    // source ⇒ no collisions); bounded rows take the fused passes; heavy
    // rows keep the exact symbolic sizer.
    let mut sizes = vec![0u64; nrows];
    let mut copy: Vec<u32> = Vec::new();
    let mut bounded: Vec<u32> = Vec::new();
    let mut heavy: Vec<u32> = Vec::new();
    let mut multi: Vec<u32> = Vec::new();
    let mut fused_multi: Vec<u32> = Vec::new();
    let mut sym_rows: Vec<u32> = Vec::new();
    for r in 0..nrows {
        match src_off[r + 1] - src_off[r] {
            0 => {}
            1 => {
                if nsrc[r] <= 1 {
                    sizes[r] = ub[r];
                    copy.push(r as u32);
                } else if ub[r] <= FUSED_UB_MAX {
                    bounded.push(r as u32);
                } else {
                    heavy.push(r as u32);
                    sym_rows.push(r as u32);
                }
            }
            _ => {
                if ub[r] <= FUSED_UB_MAX {
                    fused_multi.push(r as u32);
                } else {
                    multi.push(r as u32);
                    sym_rows.push(r as u32);
                }
            }
        }
    }

    // Exact symbolic sizing for the rows that still need it.
    if !sym_rows.is_empty() {
        let out = DisjointSlice::new(&mut sizes);
        pool.for_each_guided_items(
            &sym_rows,
            GUIDED_CHUNK,
            || workspaces.acquire_sizer(ncols),
            |sizer, rs| {
                for &r in rs {
                    let r = r as usize;
                    let (acols, _) = a.row(r);
                    for &ci in &src[src_off[r]..src_off[r + 1]] {
                        let b_mask = claims[ci as usize].b_mask;
                        for &j in acols {
                            if let Some(mask) = b_mask {
                                if !mask[j as usize] {
                                    continue;
                                }
                            }
                            for &c in b.row(j as usize).0 {
                                sizer.mark(c);
                            }
                        }
                    }
                    // one writer per output row
                    unsafe { out.write(r, sizer.finish_row() as u64) };
                }
            },
        );
    }

    // Fused staged passes: the numeric work of every bounded
    // multi-accumulation row happens *before* the scan; the exact drained
    // size feeds the scan, and per-claim counts accumulate at stage time.
    let per_claim: Vec<AtomicUsize> = claims.iter().map(|_| AtomicUsize::new(0)).collect();
    let staged: Mutex<Vec<StagingBuffer<T>>> = Mutex::new(Vec::new());
    fused_single_pass(
        a, b, claims, src, src_off, pool, workspaces, ncols, &bounded, &mut sizes, &staged,
        &per_claim,
    );
    fused_multi_pass(
        a,
        b,
        claims,
        src,
        src_off,
        pool,
        workspaces,
        ncols,
        &fused_multi,
        &ub,
        &slot_nsrc,
        &claim_bits,
        &mut sizes,
        &staged,
        &per_claim,
    );

    let (indptr, total) = offsets_from_sizes(sizes, pool);

    let mut indices = vec![0 as ColIndex; total];
    let mut values = vec![T::ZERO; total];
    {
        let out_idx = DisjointSlice::new(&mut indices);
        let out_val = DisjointSlice::new(&mut values);
        let indptr = &indptr;
        let per_claim = &per_claim;

        copy_pass(
            a, b, claims, src, src_off, pool, &copy, indptr, &out_idx, &out_val, per_claim,
        );
        heavy_single_pass(
            a, b, claims, src, src_off, pool, workspaces, ncols, &heavy, indptr, &out_idx,
            &out_val, per_claim,
        );

        multi_source_pass(
            a, b, claims, src, src_off, pool, workspaces, ncols, &multi, indptr, &out_idx,
            &out_val, per_claim,
        );

        compact_staged(
            pool,
            staged.into_inner().unwrap(),
            workspaces,
            indptr,
            &out_idx,
            &out_val,
        );
    }

    let per_claim: Vec<usize> = per_claim.into_iter().map(|n| n.into_inner()).collect();
    let c = CsrMatrix::from_parts_unchecked(nrows, ncols, indptr, indices, values);
    (c, ExecCounts::from_per_claim(schedule, per_claim))
}

/// Bounded single-source rows of the batched executor: scatter each row
/// through the dense SPA under its sole claim's mask, drain once into the
/// worker's staging arena, count the exact entries against the claim, and
/// record the exact size for the scan.
#[allow(clippy::too_many_arguments)]
fn fused_single_pass<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    claims: &[ScheduledClaim<'_>],
    src: &[u32],
    src_off: &[usize],
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
    ncols: usize,
    rows: &[u32],
    sizes: &mut [u64],
    staged: &Mutex<Vec<StagingBuffer<T>>>,
    per_claim: &[AtomicUsize],
) {
    if rows.is_empty() {
        return;
    }
    let out = DisjointSlice::new(sizes);
    pool.for_each_guided_items(
        rows,
        BOUNDED_CHUNK,
        || FusedStager::new(workspaces, ncols, staged),
        |stager, rs| {
            // disjoint field borrows: the SPA lives in `ws`, the staging
            // arena next to it
            let buf = stager.buf.as_mut().expect("present until drop");
            let spa = &mut stager.ws.spa;
            for &r in rs {
                let r = r as usize;
                let ci = src[src_off[r]] as usize;
                scatter_row(a, b, r, claims[ci].b_mask, spa);
                let n = buf.stage(r as u32, spa);
                per_claim[ci].fetch_add(n, Ordering::Relaxed);
                // each r written by exactly one claimant
                unsafe { out.write(r, n as u64) };
            }
        },
    );
}

/// The batched executor's copy pass: sole claim, sole masked source — the
/// output row is the scaled B row verbatim. SoA form: one memcpy of B's
/// columns plus one vectorized scaled copy of its values. An empty pass
/// skips its dispatch entirely (a parallel fork for zero work shows up as
/// pure overhead).
#[allow(clippy::too_many_arguments)]
fn copy_pass<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    claims: &[ScheduledClaim<'_>],
    src: &[u32],
    src_off: &[usize],
    pool: &ThreadPool,
    rows: &[u32],
    indptr: &[usize],
    out_idx: &DisjointSlice<'_, ColIndex>,
    out_val: &DisjointSlice<'_, T>,
    per_claim: &[AtomicUsize],
) {
    if rows.is_empty() {
        return;
    }
    pool.for_each_guided_items(
        rows,
        COPY_CHUNK,
        || (),
        |(), rs| {
            for &r in rs {
                let r = r as usize;
                let ci = src[src_off[r]] as usize;
                let b_mask = claims[ci].b_mask;
                let (acols, avals) = a.row(r);
                let mut at = indptr[r];
                for (&j, &aij) in acols.iter().zip(avals) {
                    if let Some(mask) = b_mask {
                        if !mask[j as usize] {
                            continue;
                        }
                    }
                    let (bcols, bvals) = b.row(j as usize);
                    // rows own disjoint indptr ranges
                    unsafe {
                        out_idx.write_slice(at, bcols);
                        simd::scaled_copy(aij, bvals, out_val.slice_mut(at, bvals.len()));
                    }
                    at += bcols.len();
                }
                debug_assert_eq!(at, indptr[r + 1]);
                // each column touched exactly once ⇒ the claim's
                // entry count is the row size
                per_claim[ci].fetch_add(indptr[r + 1] - indptr[r], Ordering::Relaxed);
            }
        },
    );
}

/// Heavy multi-source rows (complementary mask halves, bound above
/// [`FUSED_UB_MAX`]): materialise each source run through the dense SPA,
/// then merge in claim order with the exact summation of the per-row
/// merge, straight into the exactly sized final slot.
#[allow(clippy::too_many_arguments)]
fn multi_source_pass<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    claims: &[ScheduledClaim<'_>],
    src: &[u32],
    src_off: &[usize],
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
    ncols: usize,
    multi: &[u32],
    indptr: &[usize],
    out_idx: &DisjointSlice<'_, ColIndex>,
    out_val: &DisjointSlice<'_, T>,
    per_claim: &[AtomicUsize],
) {
    if multi.is_empty() {
        return;
    }
    pool.for_each_guided_items(
        multi,
        HEAVY_CHUNK,
        || workspaces.acquire::<T>(ncols),
        |ws, rs| {
            let EngineWorkspace {
                spa,
                cols,
                vals,
                bounds,
                ..
            } = &mut **ws;
            for &r in rs {
                let r = r as usize;
                let sources = &src[src_off[r]..src_off[r + 1]];
                let mut at = indptr[r];
                cols.clear();
                vals.clear();
                bounds.clear();
                bounds.push(0);
                for &ci in sources {
                    let claim = &claims[ci as usize];
                    scatter_row(a, b, r, claim.b_mask, spa);
                    let n = spa.nnz();
                    per_claim[ci as usize].fetch_add(n, Ordering::Relaxed);
                    let start = cols.len();
                    cols.resize(start + n, 0);
                    vals.resize(start + n, T::ZERO);
                    spa.drain_sorted_into(&mut cols[start..], &mut vals[start..]);
                    bounds.push(cols.len());
                }
                merge_runs(cols, vals, bounds, |c, v| {
                    unsafe {
                        out_idx.write(at, c);
                        out_val.write(at, v);
                    }
                    at += 1;
                });
                debug_assert_eq!(at, indptr[r + 1]);
            }
        },
    );
}

/// Hint the cache at a run's column/value data: the set-touch cascade
/// consumes runs strictly in order, so later runs' (randomly placed)
/// lines can stream in while earlier ones merge. No-op off x86_64.
#[inline]
fn prefetch_run<T>(cols: &[ColIndex], vals: &[T]) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(cols.as_ptr() as *const i8, _MM_HINT_T0);
        _mm_prefetch(vals.as_ptr() as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (cols, vals);
    }
}

/// Materialise one many-source run into the scratch arrays through the
/// SPA: scatter under the claim's mask, then drain sorted into
/// freshly-sized tails of `cols`/`vals`. Returns the run's nnz.
fn run_into<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    r: usize,
    b_mask: Option<&[bool]>,
    spa: &mut SparseAccumulator<T>,
    cols: &mut Vec<ColIndex>,
    vals: &mut Vec<T>,
) -> usize {
    scatter_row(a, b, r, b_mask, spa);
    let n = spa.nnz();
    let start = cols.len();
    cols.resize(start + n, 0);
    vals.resize(start + n, T::ZERO);
    spa.drain_sorted_into(&mut cols[start..], &mut vals[start..]);
    n
}

/// Bounded multi-source rows, fused: the *same* per-run materialisation
/// and claim-order merge as [`multi_source_pass`] — the grouping of the
/// per-run sums is what defines the output bits, so a single fused
/// scatter would round differently and is off the table — but the merged
/// row lands in the worker's staging arena instead of a pre-sized final
/// slot. The exact symbolic sizing of these rows is thereby skipped
/// entirely: the scan reads the merged size, and compaction memcpys the
/// run into place. Per-claim counts accumulate per materialised run,
/// exactly as the reference counts them.
///
/// Two extra bound-guided moves live here and nowhere in
/// [`multi_source_pass`]. A claim with exactly one masked source
/// materialises its run as the scaled B row verbatim — the SPA would see
/// ascending, collision-free columns and first-touch values `aij * bjc`,
/// so the memcpy + scaled copy is the same bits without the scatter, the
/// drain sort, or the gather. And the merge emits through raw carve-out
/// writes into staging: the row's structural bound caps the merged size,
/// so the arena reserves once and the emit loop skips per-entry capacity
/// checks.
#[allow(clippy::too_many_arguments)]
fn fused_multi_pass<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    claims: &[ScheduledClaim<'_>],
    src: &[u32],
    src_off: &[usize],
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
    ncols: usize,
    multi: &[u32],
    ub: &[u64],
    slot_nsrc: &[u8],
    claim_bits: &[u8],
    sizes: &mut [u64],
    staged: &Mutex<Vec<StagingBuffer<T>>>,
    per_claim: &[AtomicUsize],
) {
    if multi.is_empty() {
        return;
    }
    let out = DisjointSlice::new(sizes);
    pool.for_each_guided_items(
        multi,
        BOUNDED_CHUNK,
        || FusedStager::new(workspaces, ncols, staged),
        |stager, rs| {
            // disjoint field borrows: the workspace holds the runs, the
            // staging arena next to it receives the merge
            let buf = stager.buf.as_mut().expect("present until drop");
            let EngineWorkspace {
                spa,
                cols,
                vals,
                bounds,
                ..
            } = &mut *stager.ws;
            // per-chunk claim tallies: one atomic flush per claim per
            // chunk instead of one per row
            let mut claim_nnz = vec![0usize; per_claim.len()];
            let mut mscratch = MergeScratch::default();
            for &r in rs {
                let r = r as usize;
                let sources = &src[src_off[r]..src_off[r + 1]];
                let slots = &slot_nsrc[src_off[r]..src_off[r + 1]];
                let (acols, avals) = a.row(r);
                let base = a.indptr()[r];
                // The first `out.len()` masked sources of one claim
                // (given by its slot position in `sources`), in A-row
                // (visit) order. The bounds pass already evaluated every
                // mask once per entry and recorded the verdicts in
                // `claim_bits`, so this scan reads one sequential byte
                // per entry — no random B-mask loads — and stops the
                // moment the last counted source is found. Rows with >8
                // claims carry no bits and re-check the mask directly.
                let have_bits = sources.len() <= 8;
                let masked_sources = |slot: usize, out: &mut [(usize, T)]| {
                    let bit = 1u8 << (slot & 7);
                    let mut k = 0;
                    for (t, (&j, &aij)) in acols.iter().zip(avals).enumerate() {
                        if have_bits {
                            if claim_bits[base + t] & bit == 0 {
                                continue;
                            }
                        } else if let Some(mask) = claims[sources[slot] as usize].b_mask {
                            if !mask[j as usize] {
                                continue;
                            }
                        }
                        out[k] = (j as usize, aij);
                        k += 1;
                        if k == out.len() {
                            return;
                        }
                    }
                    debug_assert!(
                        false,
                        "bounds pass counted more sources than the scan found"
                    );
                };
                let cap = ub[r] as usize;
                buf.cols.reserve(cap);
                buf.vals.reserve(cap);
                let start = buf.cols.len();
                let mut at = 0usize;
                let cp = buf.cols.spare_capacity_mut().as_mut_ptr();
                let vp = buf.vals.spare_capacity_mut().as_mut_ptr();
                // SAFETY (all raw staging writes below): every path emits
                // at most ub[r] distinct columns (the structural bound
                // over every claim), reserved above; each slot is written
                // once, and set_len covers exactly the written prefix.
                let live = slots.iter().filter(|&&n| n > 0).count();
                if live == 1 {
                    // Sole contributing claim — the overwhelmingly common
                    // shape under complementary mask halves. The outer
                    // merge would pass its run through untouched as
                    // `sum = T::ZERO; sum += v`, so compose that
                    // normalisation into the emit and materialise the run
                    // straight into staging: no scratch run, no cursor
                    // merge, no accumulator for up to SET_MERGE_MAX_K
                    // sources.
                    let slot = slots.iter().position(|&n| n > 0).expect("live == 1");
                    let nsrc = slots[slot];
                    let ci = sources[slot];
                    match nsrc {
                        1 => {
                            // the run is the scaled B row verbatim
                            let mut s = [(0usize, T::ZERO)];
                            masked_sources(slot, &mut s);
                            let (bc, bv) = b.row(s[0].0);
                            let scale = s[0].1;
                            for (t, (&c, &v)) in bc.iter().zip(bv).enumerate() {
                                unsafe {
                                    (*cp.add(t)).write(c);
                                    (*vp.add(t)).write(T::ZERO + scale * v);
                                }
                            }
                            at = bc.len();
                        }
                        2 => {
                            // set-touch merge of the two scaled B rows
                            let mut s = [(0usize, T::ZERO); 2];
                            masked_sources(slot, &mut s);
                            let (bc0, bv0) = b.row(s[0].0);
                            let (bc1, bv1) = b.row(s[1].0);
                            merge2_scaled_set(s[0].1, bc0, bv0, s[1].1, bc1, bv1, |c, v| {
                                unsafe {
                                    (*cp.add(at)).write(c);
                                    (*vp.add(at)).write(T::ZERO + v);
                                }
                                at += 1;
                            });
                        }
                        k if k <= upper_bound::SET_MERGE_MAX_K => {
                            // same set-touch materialisation, cascade form
                            let k = k as usize;
                            let mut s = [(0usize, T::ZERO); 8];
                            masked_sources(slot, &mut s[..k]);
                            let mut runs: [(T, &[ColIndex], &[T]); 8] = [(T::ZERO, &[], &[]); 8];
                            for (t, &(j, aij)) in s[..k].iter().enumerate() {
                                let (bc, bv) = b.row(j);
                                // the cascade touches later runs only after
                                // finishing earlier ones — start their
                                // (random) loads now
                                prefetch_run(bc, bv);
                                runs[t] = (aij, bc, bv);
                            }
                            merge_scaled_set(&runs[..k], &mut mscratch, |c, v| {
                                unsafe {
                                    (*cp.add(at)).write(c);
                                    (*vp.add(at)).write(T::ZERO + v);
                                }
                                at += 1;
                            });
                        }
                        _ => {
                            // saturated source count: scatter through the
                            // SPA, then norm-copy the drained run into
                            // staging
                            cols.clear();
                            vals.clear();
                            let b_mask = claims[ci as usize].b_mask;
                            let n = run_into(a, b, r, b_mask, spa, cols, vals);
                            for (t, (&c, &v)) in cols.iter().zip(vals.iter()).enumerate() {
                                unsafe {
                                    (*cp.add(t)).write(c);
                                    (*vp.add(t)).write(T::ZERO + v);
                                }
                            }
                            at = n;
                        }
                    }
                    // single live run: merged size == run size
                    claim_nnz[ci as usize] += at;
                } else if sources.len() == 2 && slots[0] == 1 && slots[1] == 1 {
                    // Two claims with one masked source each: merge the
                    // two scaled B rows directly. The runs a scatter +
                    // drain would materialise are those rows verbatim, so
                    // the accumulator and the scratch copies disappear.
                    let run = |k: usize| {
                        let mut s = [(0usize, T::ZERO)];
                        masked_sources(k, &mut s);
                        let (bcols, bvals) = b.row(s[0].0);
                        (s[0].1, bcols, bvals)
                    };
                    let (s0, c0, v0) = run(0);
                    let (s1, c1, v1) = run(1);
                    // reference counting: each run's nnz against its claim
                    claim_nnz[sources[0] as usize] += c0.len();
                    claim_nnz[sources[1] as usize] += c1.len();
                    merge2_scaled(s0, c0, v0, s1, c1, v1, |c, v| {
                        unsafe {
                            (*cp.add(at)).write(c);
                            (*vp.add(at)).write(v);
                        }
                        at += 1;
                    });
                } else if live > 1 {
                    cols.clear();
                    vals.clear();
                    bounds.clear();
                    bounds.push(0);
                    for (slot, (&ci, &nsrc)) in sources.iter().zip(slots).enumerate() {
                        let b_mask = claims[ci as usize].b_mask;
                        let n = match nsrc {
                            0 => 0,
                            1 => {
                                // sole masked source: the run is the
                                // scaled B row
                                let mut s = [(0usize, T::ZERO)];
                                masked_sources(slot, &mut s);
                                let (bcols, bvals) = b.row(s[0].0);
                                let start = cols.len();
                                cols.extend_from_slice(bcols);
                                vals.resize(start + bvals.len(), T::ZERO);
                                simd::scaled_copy(s[0].1, bvals, &mut vals[start..]);
                                bcols.len()
                            }
                            // Exactly two sources: the run is a set-touch
                            // merge of the two scaled B rows, straight
                            // into the scratch tail — no accumulator.
                            2 => {
                                let mut s = [(0usize, T::ZERO); 2];
                                masked_sources(slot, &mut s);
                                let (bc0, bv0) = b.row(s[0].0);
                                let (bc1, bv1) = b.row(s[1].0);
                                cols.reserve(bc0.len() + bc1.len());
                                vals.reserve(bc0.len() + bc1.len());
                                merge2_scaled_set(s[0].1, bc0, bv0, s[1].1, bc1, bv1, |c, v| {
                                    cols.push(c);
                                    vals.push(v);
                                })
                            }
                            // Up to SET_MERGE_MAX_K sources: the same
                            // set-touch materialisation, k-pointer form.
                            k if k <= upper_bound::SET_MERGE_MAX_K => {
                                let k = k as usize;
                                let mut s = [(0usize, T::ZERO); 8];
                                masked_sources(slot, &mut s[..k]);
                                let mut runs: [(T, &[ColIndex], &[T]); 8] =
                                    [(T::ZERO, &[], &[]); 8];
                                let mut total = 0usize;
                                for (t, &(j, aij)) in s[..k].iter().enumerate() {
                                    let (bc, bv) = b.row(j);
                                    runs[t] = (aij, bc, bv);
                                    total += bc.len();
                                }
                                cols.reserve(total);
                                vals.reserve(total);
                                merge_scaled_set(&runs[..k], &mut mscratch, |c, v| {
                                    cols.push(c);
                                    vals.push(v);
                                })
                            }
                            // More than SET_MERGE_MAX_K: materialise
                            // through the SPA.
                            _ => run_into(a, b, r, b_mask, spa, cols, vals),
                        };
                        claim_nnz[ci as usize] += n;
                        bounds.push(cols.len());
                    }
                    merge_runs(cols, vals, bounds, |c, v| {
                        unsafe {
                            (*cp.add(at)).write(c);
                            (*vp.add(at)).write(v);
                        }
                        at += 1;
                    });
                }
                // live == 0 ⇒ the row is empty; `at` stays 0
                // SAFETY: the first `at` spare slots were just initialised.
                unsafe {
                    buf.cols.set_len(start + at);
                    buf.vals.set_len(start + at);
                }
                buf.rows.push((r as u32, start));
                // each r written by exactly one claimant
                unsafe { out.write(r, at as u64) };
            }
            for (ci, &n) in claim_nnz.iter().enumerate() {
                if n > 0 {
                    per_claim[ci].fetch_add(n, Ordering::Relaxed);
                }
            }
        },
    );
}

/// Heavy single-source rows of the batched executor: scatter each row
/// (already sized exactly by the symbolic pass) through the dense SPA
/// under its sole claim's mask, count the entries against that claim, and
/// drain into the final slot.
#[allow(clippy::too_many_arguments)]
fn heavy_single_pass<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    claims: &[ScheduledClaim<'_>],
    src: &[u32],
    src_off: &[usize],
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
    ncols: usize,
    rows: &[u32],
    indptr: &[usize],
    out_idx: &DisjointSlice<'_, ColIndex>,
    out_val: &DisjointSlice<'_, T>,
    per_claim: &[AtomicUsize],
) {
    // An empty pass skips the dispatch: a pool fork plus a workspace
    // checkout for zero rows is pure overhead.
    if rows.is_empty() {
        return;
    }
    pool.for_each_guided_items(
        rows,
        HEAVY_CHUNK,
        || workspaces.acquire::<T>(ncols),
        |ws, rs| {
            let spa = &mut ws.spa;
            for &r in rs {
                let r = r as usize;
                let ci = src[src_off[r]] as usize;
                let at = indptr[r];
                let size = indptr[r + 1] - at;
                scatter_row(a, b, r, claims[ci].b_mask, spa);
                per_claim[ci].fetch_add(spa.nnz(), Ordering::Relaxed);
                debug_assert_eq!(size, spa.nnz());
                // rows own disjoint indptr ranges
                unsafe {
                    spa.drain_sorted_into(out_idx.slice_mut(at, size), out_val.slice_mut(at, size));
                }
            }
        },
    );
}

/// k-way merge of column-sorted runs, summing values of shared columns in
/// run order: `sum = 0; sum += v_k` — byte-for-byte the accumulation of
/// `concat_row_blocks`' per-row merge.
fn merge_runs<T: Scalar, F: FnMut(ColIndex, T)>(
    cols: &[ColIndex],
    vals: &[T],
    bounds: &[usize],
    mut emit: F,
) {
    let k = bounds.len() - 1;
    if k == 2 {
        // Two complementary mask halves is by far the common shape; the
        // vector-friendly two-cursor merge replicates the generic loop's
        // accumulation order exactly.
        merge2_sorted(
            &cols[bounds[0]..bounds[1]],
            &vals[bounds[0]..bounds[1]],
            &cols[bounds[1]..bounds[2]],
            &vals[bounds[1]..bounds[2]],
            emit,
        );
        return;
    }
    let mut pos: Vec<usize> = bounds[..k].to_vec();
    loop {
        let mut min: Option<ColIndex> = None;
        for (s, &p) in pos.iter().enumerate() {
            if p < bounds[s + 1] {
                let c = cols[p];
                min = Some(min.map_or(c, |m: ColIndex| m.min(c)));
            }
        }
        let Some(col) = min else { break };
        let mut sum = T::ZERO;
        for (s, p) in pos.iter_mut().enumerate() {
            if *p < bounds[s + 1] && cols[*p] == col {
                sum += vals[*p];
                *p += 1;
            }
        }
        emit(col, sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_scalefree::{scale_free_matrix, GeneratorConfig};
    use spmm_sparse::reference;

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

    #[test]
    fn device_ns_sums_by_device() {
        let rows = [0usize, 1];
        let schedule = ClaimSchedule {
            claims: vec![
                ScheduledClaim {
                    device: DeviceKind::Cpu,
                    rows: &rows,
                    b_mask: None,
                    sim_ns: 2.5,
                },
                ScheduledClaim {
                    device: DeviceKind::Gpu,
                    rows: &rows,
                    b_mask: None,
                    sim_ns: 4.0,
                },
                ScheduledClaim {
                    device: DeviceKind::Cpu,
                    rows: &rows,
                    b_mask: None,
                    sim_ns: 1.5,
                },
            ],
        };
        assert_eq!(schedule.device_ns(DeviceKind::Cpu), 4.0);
        assert_eq!(schedule.device_ns(DeviceKind::Gpu), 4.0);
    }
}
