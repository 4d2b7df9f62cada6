//! GPU device model: warp-per-row cost for the row-row spmm kernel of
//! [13] as described in the paper's §II-A-b.

use spmm_cache::{Cache, CacheConfig, CacheStats};
use spmm_parallel::{DisjointSlice, ThreadPool};
use spmm_sparse::{CsrMatrix, Scalar, WorkspacePool};

use crate::platform::GpuSpec;
use crate::SimNs;

/// Bytes per stored CSR entry (u32 column index + f64 value).
const ENTRY_BYTES: usize = 12;
/// Memory segment size of Kepler-class global loads.
const SEGMENT_BYTES: usize = 128;

const A_BASE: u64 = 0;
const B_BASE: u64 = 1 << 40;

/// The GPU side of the platform. Models the kernel of [13]: a fixed number
/// of warps is launched, warp `i` computes row `i` of `C`, accumulating
/// into a `PartialOutput` array of width `TR_b` in global memory
/// (§II-A-b). The model charges, per row:
///
/// * segment reads of the A row and each touched B row through a simulated
///   1.25 MB L2 (`l2_hit_cycles` vs `mem_cycles` per 128 B segment);
/// * one 32-wide SIMD step per `warp_width` chunk of each B row — a 2-entry
///   row costs the same step as a 32-entry row, which is exactly the warp
///   under-utilisation that makes *sorted/unsorted workqueue* baselines
///   lose (§V-C) and small rows the "right" work for the GPU;
/// * uncoalesced `PartialOutput` writes per produced value;
/// * extra passes over the A row when the output row is wider than `TR_b`
///   (the iterative column-group scheme of §II-A-b).
///
/// Total warp-cycles are divided by the device's issue throughput
/// (`sms × warps_per_sm`) to give wall time, plus a kernel-launch latency.
#[derive(Debug, Clone)]
pub struct GpuDevice {
    spec: GpuSpec,
    l2: Cache,
    /// Output-width stamp scratch (one slot per B column), generation
    /// counted so it never needs clearing between rows.
    stamp: Vec<u32>,
    stamp_gen: u32,
}

impl GpuDevice {
    pub fn new(spec: GpuSpec) -> Self {
        let l2 = Cache::new(CacheConfig {
            size_bytes: spec.l2_bytes,
            line_size: SEGMENT_BYTES,
            assoc: 16,
        });
        Self {
            spec,
            l2,
            stamp: Vec::new(),
            stamp_gen: 0,
        }
    }

    /// Device with the stamp scratch pre-sized for products whose B matrix
    /// has up to `ncols` columns, so the hot cost call never reallocates.
    pub fn sized(spec: GpuSpec, ncols: usize) -> Self {
        let mut dev = Self::new(spec);
        dev.reserve_columns(ncols);
        dev
    }

    /// The paper's Tesla K20c.
    pub fn paper() -> Self {
        Self::new(GpuSpec::k20c())
    }

    /// GPU with an explicitly scaled L2 (for reduced-scale experiments).
    pub fn with_l2(spec: GpuSpec, l2: Cache) -> Self {
        Self {
            spec,
            l2,
            stamp: Vec::new(),
            stamp_gen: 0,
        }
    }

    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Snapshot of the simulated L2's hit/miss counters.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Grow the stamp scratch to cover `ncols` output columns. Callers that
    /// know the matrix shape up front use this (or [`GpuDevice::sized`]) to
    /// keep the allocation out of `spmm_cost`.
    pub fn reserve_columns(&mut self, ncols: usize) {
        if self.stamp.len() < ncols {
            self.stamp.resize(ncols, u32::MAX);
        }
    }

    /// Forget all cached state (between independent experiments). The stamp
    /// scratch needs no rewrite: entries are generation-counted, and a
    /// stale value can only collide with a future generation after a full
    /// `u32` wrap, which the per-row bump guard clears first.
    pub fn reset(&mut self) {
        self.l2.flush();
    }

    /// Simulated ns for the GPU to multiply the given rows of `a` against
    /// `b` (masked rows of `b` skipped; they cost only the A-row read).
    /// Returns 0 for an empty row set without charging the launch latency.
    pub fn spmm_cost<T: Scalar>(
        &mut self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        rows: impl Iterator<Item = usize>,
        b_mask: Option<&[bool]>,
    ) -> SimNs {
        self.spmm_cost_inner(a, b, rows, b_mask, None)
    }

    /// [`GpuDevice::spmm_cost`] with the per-row masked output widths
    /// supplied by a [`masked_output_widths`] table instead of re-derived
    /// through the stamp scratch. The width only feeds the integer TR_b
    /// pass count, so every floating-point charge accumulates in the same
    /// order and the result is bit-identical to the unplanned call — while
    /// the O(flops) distinct-column walk drops to an O(1) lookup per row.
    pub fn spmm_cost_planned<T: Scalar>(
        &mut self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        rows: impl Iterator<Item = usize>,
        b_mask: Option<&[bool]>,
        widths: &[u32],
    ) -> SimNs {
        self.spmm_cost_inner(a, b, rows, b_mask, Some(widths))
    }

    fn spmm_cost_inner<T: Scalar>(
        &mut self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        rows: impl Iterator<Item = usize>,
        b_mask: Option<&[bool]>,
        widths: Option<&[u32]>,
    ) -> SimNs {
        // Greedy warp scheduling: W warps drain the row list, so the wall
        // time is the list-scheduling makespan — at least total/W and at
        // least the *serial depth* of the longest row. A warp's 32 lanes
        // cooperate across the row's nonzeros, so a row touching `nj` B
        // rows has depth ≈ cost / min(nj, 32); rows with fewer nonzeros
        // than lanes leave lanes idle (the §V-C under-utilisation).
        let mut total_cycles = 0.0f64;
        let mut max_row_depth = 0.0f64;
        let mut any = false;
        let b_indptr = b.indptr();
        if widths.is_none() {
            self.reserve_columns(b.ncols());
        }
        for i in rows {
            any = true;
            let (acols, _) = a.row(i);
            if acols.is_empty() {
                continue;
            }
            if widths.is_none() {
                self.stamp_gen = self.stamp_gen.wrapping_add(1);
                if self.stamp_gen == u32::MAX {
                    self.stamp.iter_mut().for_each(|s| *s = u32::MAX);
                    self.stamp_gen = 0;
                }
            }
            let mut row_cycles = 0.0f64;
            // A-row segment reads
            let a_read = self.read_cycles(
                A_BASE + (a.indptr()[i] * ENTRY_BYTES) as u64,
                acols.len() * ENTRY_BYTES,
            );
            row_cycles += a_read;
            // exact nnz of the output row: from the plan table when given,
            // otherwise counted live through the stamp scratch below
            let mut width = widths.map_or(0usize, |w| w[i] as usize);
            let mut nj = 0usize; // B rows actually multiplied
            let mut rescan_cycles = 0.0f64; // per-pass B index re-scan cost
            for &j in acols {
                let j = j as usize;
                if let Some(mask) = b_mask {
                    if !mask[j] {
                        continue;
                    }
                }
                let bnnz = b.row_nnz(j);
                if bnnz == 0 {
                    continue;
                }
                nj += 1;
                if widths.is_none() {
                    for &c in b.row(j).0 {
                        let slot = &mut self.stamp[c as usize];
                        if *slot != self.stamp_gen {
                            *slot = self.stamp_gen;
                            width += 1;
                        }
                    }
                }
                // B-row segment reads through the L2
                row_cycles += self.read_cycles(
                    B_BASE + (b_indptr[j] * ENTRY_BYTES) as u64,
                    bnnz * ENTRY_BYTES,
                );
                // SIMD lockstep: one step per warp-width chunk, whole chunks
                // charged even when mostly idle lanes
                let steps = bnnz.div_ceil(self.spec.warp_width) as f64;
                row_cycles += steps * self.spec.simd_step_cycles;
                // accumulation into the TR_b-wide PartialOutput window; the
                // writes are uncoalesced but L2-resident within the tile
                row_cycles += bnnz as f64 * self.spec.uncoalesced_write_cycles;
                // a later tiling pass re-scans this row's indices
                rescan_cycles += bnnz.div_ceil(SEGMENT_BYTES / 4) as f64 * self.spec.l2_hit_cycles
                    + steps * self.spec.simd_step_cycles;
            }
            // TR_b column-tiling: output rows wider than the auxiliary
            // PartialOutput / NonZeroIndices arrays force repeated passes
            // over the A row and the B indices (§II-A-b)
            let passes = width.div_ceil(self.spec.tr_b).max(1);
            if passes > 1 {
                row_cycles += (passes - 1) as f64 * (a_read + rescan_cycles);
            }
            total_cycles += row_cycles;
            let depth = row_cycles / nj.clamp(1, self.spec.warp_width) as f64;
            max_row_depth = max_row_depth.max(depth);
        }
        if !any {
            return 0.0;
        }
        let wall = (total_cycles / self.spec.parallel_warps()).max(max_row_depth);
        wall * self.spec.cycle_ns() * self.spec.kernel_overhead + self.spec.launch_ns
    }

    /// Segment reads of `len` bytes at `addr` through the L2; returns
    /// cycles.
    fn read_cycles(&mut self, addr: u64, len: usize) -> f64 {
        if len == 0 {
            return 0.0;
        }
        let first = addr / SEGMENT_BYTES as u64;
        let last = (addr + len as u64 - 1) / SEGMENT_BYTES as u64;
        let segments = (last - first + 1) as f64;
        let misses = self.l2.access_range(addr, len) as f64;
        let hits = segments - misses;
        hits * self.spec.l2_hit_cycles + misses * self.spec.mem_cycles
    }

    /// Simulated ns to multiply the given rows of sparse `a` against a
    /// dense matrix with `b_ncols` columns (csrmm, §VI). Dense rows load
    /// and store fully coalesced, so the kernel is far friendlier to the
    /// GPU than spmm — no `PartialOutput` scatter, no TR_b passes beyond
    /// plain column tiling of uniform cost.
    pub fn csrmm_cost<T: Scalar>(
        &mut self,
        a: &CsrMatrix<T>,
        b_ncols: usize,
        rows: impl Iterator<Item = usize>,
    ) -> SimNs {
        let mut total_cycles = 0.0f64;
        let mut max_row_depth = 0.0f64;
        let mut any = false;
        let row_bytes = b_ncols * 8;
        for i in rows {
            any = true;
            let (acols, _) = a.row(i);
            if acols.is_empty() {
                continue;
            }
            let mut row_cycles = self.read_cycles(
                A_BASE + (a.indptr()[i] * ENTRY_BYTES) as u64,
                acols.len() * ENTRY_BYTES,
            );
            for &j in acols {
                row_cycles += self.read_cycles(B_BASE + (j as usize * row_bytes) as u64, row_bytes);
                let steps = b_ncols.div_ceil(self.spec.warp_width) as f64;
                // fused multiply-add plus a coalesced store per chunk
                row_cycles += steps * (self.spec.simd_step_cycles + 1.0);
            }
            total_cycles += row_cycles;
            let depth = row_cycles / acols.len().clamp(1, self.spec.warp_width) as f64;
            max_row_depth = max_row_depth.max(depth);
        }
        if !any {
            return 0.0;
        }
        let wall = (total_cycles / self.spec.parallel_warps()).max(max_row_depth);
        wall * self.spec.cycle_ns() * self.spec.kernel_overhead + self.spec.launch_ns
    }

    /// ns for the GPU's share of Phase I: computing the Boolean
    /// high/low-density array from the row sizes ("embarrassingly parallel
    /// … we perform this computation on GPU", §III-A).
    pub fn boolean_mask_cost(&self, nrows: usize) -> SimNs {
        if nrows == 0 {
            return 0.0;
        }
        let steps = nrows.div_ceil(self.spec.warp_width) as f64;
        steps * self.spec.simd_step_cycles / self.spec.parallel_warps() * self.spec.cycle_ns()
            + self.spec.launch_ns
    }

    /// ns for the GPU to merge `tuples` output tuples (sort + mark + scan +
    /// segmented add, §III-D).
    pub fn merge_cost(&self, tuples: usize) -> SimNs {
        if tuples == 0 {
            return 0.0;
        }
        let t = tuples as f64;
        // radix-style sort: ~4 passes of read+write per tuple, massively
        // parallel; plus scan and reduce passes
        let cycles_per_tuple = 6.0;
        t * cycles_per_tuple / self.spec.parallel_warps() / self.spec.warp_width as f64
            * self.spec.cycle_ns()
            * 32.0 // lockstep inefficiency on scattered keys
            + self.spec.launch_ns
    }
}

/// Masked output width (distinct column count) of every row of `a × b`,
/// with masked-off B rows contributing nothing — exactly the `width`
/// [`GpuDevice::spmm_cost`] derives per row through its stamp scratch, but
/// computed once per `(a, b, mask)` and fanned out across the host pool.
/// Pure integer work, so the table is identical for any thread count, and
/// [`GpuDevice::spmm_cost_planned`] stays bit-equal to the unplanned call.
pub fn masked_output_widths<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    b_mask: Option<&[bool]>,
    pool: &ThreadPool,
) -> Vec<u32> {
    widths_impl(a, b, b_mask, None, pool, &WorkspacePool::new())
}

/// [`masked_output_widths`] restricted to the listed A rows — the returned
/// table still has one slot per A row (unlisted rows stay 0), so lookups
/// stay indexed by row. Use when only a known subset of rows can ever be
/// costed under this mask (e.g. the `A_L × B_H` quadrant).
pub fn masked_output_widths_for<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    b_mask: Option<&[bool]>,
    rows: &[usize],
    pool: &ThreadPool,
) -> Vec<u32> {
    widths_impl(a, b, b_mask, Some(rows), pool, &WorkspacePool::new())
}

/// [`masked_output_widths`] drawing the per-thread O(ncols) stamp scratch
/// from a [`WorkspacePool`] instead of allocating it per call — this is
/// what lets the Phase-I ladder cost dozens of candidates without dozens
/// of stamp-array allocations. The count is pure integer work, so the
/// table is byte-equal to the unpooled call.
pub fn masked_output_widths_pooled<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    b_mask: Option<&[bool]>,
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
) -> Vec<u32> {
    widths_impl(a, b, b_mask, None, pool, workspaces)
}

/// [`masked_output_widths_for`] with pooled stamp scratch.
pub fn masked_output_widths_for_pooled<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    b_mask: Option<&[bool]>,
    rows: &[usize],
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
) -> Vec<u32> {
    widths_impl(a, b, b_mask, Some(rows), pool, workspaces)
}

/// Rows whose structural upper bound (Σ masked `|B(k,:)|`) is at or under
/// this count their distinct columns through a sorted-insertion scratch
/// list instead of the O(ncols) stamp sizer: for a handful of entries the
/// list stays in one or two cache lines, while every `mark` is a random
/// probe into a stamp array as wide as the output. Pure routing — both
/// paths count the same set, so the table is bit-identical either way.
const TINY_WIDTH_UB: u64 = 32;

fn widths_impl<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    b_mask: Option<&[bool]>,
    rows: Option<&[usize]>,
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
) -> Vec<u32> {
    let len = rows.map_or(a.nrows(), <[usize]>::len);
    let mut widths = vec![0u32; a.nrows()];
    let out = DisjointSlice::new(&mut widths);
    pool.for_each_guided_with(
        len,
        64,
        || (workspaces.acquire_sizer(b.ncols()), Vec::<u32>::new()),
        |(sizer, tiny), range| {
            for k in range {
                let i = rows.map_or(k, |r| r[k]);
                let (acols, _) = a.row(i);
                if acols.is_empty() {
                    continue;
                }
                // Bounds sweep first (Σ |B(k,:)| over the row's masked
                // sources, keeping the sole source's index): a single masked
                // source makes the bound *exact* — the width is that B
                // row's size, no marking at all — and a tiny bound routes
                // to the scratch list. Only loose-bounded rows pay the
                // stamp sizer.
                let mut ub = 0u64;
                let mut nsrc = 0u32;
                let mut only = 0usize;
                for &j in acols {
                    let j = j as usize;
                    if let Some(mask) = b_mask {
                        if !mask[j] {
                            continue;
                        }
                    }
                    ub = ub.saturating_add(b.row_nnz(j) as u64);
                    nsrc += 1;
                    only = j;
                }
                let width = if nsrc == 0 {
                    continue; // all sources masked off: width stays 0
                } else if nsrc == 1 {
                    b.row_nnz(only) as u32
                } else if ub <= TINY_WIDTH_UB {
                    tiny.clear();
                    for &j in acols {
                        let j = j as usize;
                        if let Some(mask) = b_mask {
                            if !mask[j] {
                                continue;
                            }
                        }
                        for &c in b.row(j).0 {
                            let pos = tiny.partition_point(|&t| t < c);
                            if tiny.get(pos) != Some(&c) {
                                tiny.insert(pos, c);
                            }
                        }
                    }
                    tiny.len() as u32
                } else {
                    for &j in acols {
                        let j = j as usize;
                        if let Some(mask) = b_mask {
                            if !mask[j] {
                                continue;
                            }
                        }
                        for &c in b.row(j).0 {
                            sizer.mark(c);
                        }
                    }
                    sizer.finish_row() as u32
                };
                // each row written by at most one claimant (rows unique)
                unsafe { out.write(i, width) };
            }
        },
    );
    widths
}

/// The `B_L` output-width table of every threshold of an ascending
/// `ladder`, in one pass over the product's structure. Candidate `j`'s
/// `B_L` mask keeps the B rows with `|B(k,:)| < ladder[j].max(1)` (the
/// complement of Phase I's `B_H` classification), and its widths land in
/// `table[j * a.nrows()..(j + 1) * a.nrows()]` — byte-equal to
/// [`masked_output_widths`] under that mask, for any thread count.
///
/// The masks nest: a B row in candidate `j`'s `B_L` stays in it for every
/// later candidate. So each B row carries a bucket, the first candidate
/// whose mask keeps it, and an output column's width contribution starts
/// at the smallest bucket among the sources that produce it. Per A row
/// the sources are visited in ascending bucket order through a stamp, so a
/// column's first touch is in its minimum bucket; the fresh-column counts
/// per bucket, prefix-summed, are every candidate's width at once. A row
/// with a single live source needs no stamp: its width is that B row's
/// size from the source's bucket on.
pub fn ladder_output_widths<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    ladder: &[usize],
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
) -> Vec<u32> {
    assert!(
        ladder.windows(2).all(|w| w[0] <= w[1]),
        "threshold ladder must ascend"
    );
    let (n, m) = (a.nrows(), ladder.len());
    let mut table = vec![0u32; m * n];
    // bucket of B row k: the number of candidates that classify it high
    let bucket: Vec<u32> = (0..b.nrows())
        .map(|k| ladder.partition_point(|&t| t.max(1) <= b.row_nnz(k)) as u32)
        .collect();
    let out = DisjointSlice::new(&mut table);
    pool.for_each_guided_with(
        n,
        64,
        || {
            let sources = Vec::<(u32, u32)>::new();
            (workspaces.acquire_sizer(b.ncols()), sources, vec![0u32; m])
        },
        |(sizer, sources, fresh), range| {
            for i in range {
                // live sources: nonempty B rows some candidate keeps in B_L
                sources.clear();
                for &k in a.row(i).0 {
                    let bk = bucket[k as usize];
                    if (bk as usize) < m && b.row_nnz(k as usize) > 0 {
                        sources.push((bk, k));
                    }
                }
                if sources.is_empty() {
                    continue;
                }
                fresh.fill(0);
                if let [(bk, k)] = sources[..] {
                    fresh[bk as usize] = b.row_nnz(k as usize) as u32;
                } else {
                    sources.sort_unstable_by_key(|&(bk, _)| bk);
                    for &(bk, k) in sources.iter() {
                        let mut count = 0u32;
                        for &c in b.row(k as usize).0 {
                            count += u32::from(sizer.mark(c));
                        }
                        fresh[bk as usize] += count;
                    }
                    sizer.finish_row();
                }
                let first = sources[0].0 as usize;
                let mut width = 0u32;
                for (j, &f) in fresh.iter().enumerate().skip(first) {
                    width += f;
                    // SAFETY: j < m and i < n, so the slot is in the
                    // table; slot (j, i) is written only by the worker
                    // that claimed row i, and every row is claimed once.
                    unsafe { out.write(j * n + i, width) };
                }
            }
        },
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_sparse::CsrMatrix;

    /// n rows each with k distinct spread-out columns.
    fn uniform_matrix(n: usize, k: usize) -> CsrMatrix<f64> {
        assert!(k <= n, "row size cannot exceed ncols");
        let mut indptr = vec![0usize];
        let mut indices: Vec<u32> = Vec::new();
        let mut values = Vec::new();
        for i in 0..n {
            let mut cols: std::collections::BTreeSet<u32> = (0..k)
                .map(|s| (((i * 7919) + s * (n / k).max(1)) % n) as u32)
                .collect();
            let mut next = 0u32;
            while cols.len() < k {
                cols.insert(next);
                next += 1;
            }
            indices.extend(cols.iter());
            values.extend(std::iter::repeat_n(1.0, k));
            indptr.push(indices.len());
        }
        CsrMatrix::from_parts_unchecked(n, n, indptr, indices, values)
    }

    #[test]
    fn gpu_beats_cpu_on_many_small_rows() {
        let n = 20_000;
        let sparse = uniform_matrix(n, 2);
        let mut gpu = GpuDevice::paper();
        let mut cpu = crate::CpuDevice::paper();
        let gpu_ns = gpu.spmm_cost(&sparse, &sparse, 0..n, None);
        let cpu_ns = cpu.spmm_cost(&sparse, &sparse, 0..n, None);
        assert!(
            gpu_ns < cpu_ns,
            "many small rows are the GPU's work (gpu {gpu_ns} vs cpu {cpu_ns})"
        );
    }

    #[test]
    fn cpu_beats_gpu_on_dense_times_dense() {
        // Few long rows with heavy B-row reuse: the A_H x B_H pattern.
        let dense = uniform_matrix(2048, 512);
        let mut gpu = GpuDevice::paper();
        let mut cpu = crate::CpuDevice::paper();
        let gpu_ns = gpu.spmm_cost(&dense, &dense, 0..64, None);
        let cpu_ns = cpu.spmm_cost(&dense, &dense, 0..64, None);
        assert!(
            cpu_ns < gpu_ns,
            "dense x dense is the CPU's work (cpu {cpu_ns} vs gpu {gpu_ns})"
        );
    }

    #[test]
    fn empty_row_set_is_free() {
        let a = uniform_matrix(10, 2);
        let mut gpu = GpuDevice::paper();
        assert_eq!(gpu.spmm_cost(&a, &a, std::iter::empty(), None), 0.0);
    }

    #[test]
    fn launch_latency_charged_once_per_call() {
        let a = uniform_matrix(4, 1);
        let mut gpu = GpuDevice::paper();
        let one = gpu.spmm_cost(&a, &a, 0..4, None);
        assert!(one >= GpuSpec::k20c().launch_ns);
        assert!(one < 2.0 * GpuSpec::k20c().launch_ns);
    }

    #[test]
    fn mask_skips_b_rows() {
        let a = uniform_matrix(500, 4);
        let mut gpu = GpuDevice::paper();
        let full = gpu.spmm_cost(&a, &a, 0..500, None);
        gpu.reset();
        let none = gpu.spmm_cost(&a, &a, 0..500, Some(&vec![false; 500]));
        assert!(none < full, "masked product must be cheaper");
    }

    #[test]
    fn wide_output_rows_pay_tiling_passes() {
        // one A row hitting B rows whose combined width far exceeds TR_b
        let wide = uniform_matrix(4000, 2500);
        let narrow = uniform_matrix(1000, 100);
        let mut gpu = GpuDevice::paper();
        let wide_ns = gpu.spmm_cost(&wide, &wide, 0..8, None);
        gpu.reset();
        let narrow_ns = gpu.spmm_cost(&narrow, &narrow, 0..1000, None);
        let wide_flops: u64 = (0..8)
            .map(|i| {
                wide.row(i)
                    .0
                    .iter()
                    .map(|&j| wide.row_nnz(j as usize) as u64)
                    .sum::<u64>()
            })
            .sum();
        let wide_flops = wide_flops as f64;
        let narrow_flops = spmm_sparse::reference::flops(&narrow, &narrow) as f64;
        assert!(
            wide_ns / wide_flops > narrow_ns / narrow_flops,
            "per-flop cost must grow when TR_b tiling kicks in"
        );
    }

    #[test]
    fn boolean_mask_cost_scales_with_rows() {
        let gpu = GpuDevice::paper();
        assert_eq!(gpu.boolean_mask_cost(0), 0.0);
        let small = gpu.boolean_mask_cost(1_000);
        let large = gpu.boolean_mask_cost(10_000_000);
        assert!(large > small);
        // but it stays tiny relative to any spmm: the paper's Phase I is
        // under 4% of total (§V-B c)
        assert!(
            large < 3e6,
            "mask of 10M rows should take ~ms, got {large} ns"
        );
    }

    #[test]
    fn merge_cost_linear_ish() {
        let gpu = GpuDevice::paper();
        assert_eq!(gpu.merge_cost(0), 0.0);
        let a = gpu.merge_cost(100_000);
        let b = gpu.merge_cost(1_000_000);
        assert!(b > a * 5.0 && b < a * 20.0);
    }
}
