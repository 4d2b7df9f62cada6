//! GPU device model: warp-per-row cost for the row-row spmm kernel of
//! [13] as described in the paper's §II-A-b.

use spmm_cache::{Cache, CacheBank, CacheConfig, CacheStats};
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
/// The fewest sets the simulated L2 may have. B's lines start at line
/// 2^33 (`B_BASE` / 128 B); from four sets up, every line's set-relative
/// tag fits the `u32` tags of the ladder walk's [`CacheBank`] (for B
/// operands under 1 TB), so no geometry the model takes is refused later.
const MIN_L2_SETS: usize = 4;

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
}

impl GpuDevice {
    /// A cold device. Panics unless `spec.l2_bytes` gives the 16-way,
    /// 128 B-line L2 at least four sets (8 KB).
    pub fn new(spec: GpuSpec) -> Self {
        let config = CacheConfig {
            size_bytes: spec.l2_bytes,
            line_size: SEGMENT_BYTES,
            assoc: 16,
        };
        assert!(
            spec.l2_bytes >= MIN_L2_SETS * SEGMENT_BYTES * config.assoc,
            "a GPU L2 of {} bytes has fewer than the {MIN_L2_SETS} sets the model needs",
            spec.l2_bytes
        );
        Self {
            spec,
            l2: Cache::new(config),
        }
    }

    /// The paper's Tesla K20c.
    pub fn paper() -> Self {
        Self::new(GpuSpec::k20c())
    }

    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Snapshot of the simulated L2's hit/miss counters.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Replace the simulated L2 with `l2`, e.g. the cache a
    /// [`Phase2Price`] left behind, so later costs continue from it.
    pub fn set_l2(&mut self, l2: Cache) {
        assert_eq!(
            l2.config(),
            self.l2.config(),
            "replacement L2 must keep the device's geometry"
        );
        self.l2 = l2;
    }

    /// Forget all cached state (between independent experiments): the
    /// simulated L2 is the device's only state.
    pub fn reset(&mut self) {
        self.l2.flush();
    }

    /// Simulated ns for the GPU to multiply the given rows of `a` against
    /// `b` (masked rows of `b` skipped; they cost only the A-row read).
    /// Returns 0 for an empty row set without charging the launch latency.
    /// Builds the rows' widths with [`masked_output_widths_for_pooled`] on one
    /// thread, then prices the rows in the caller's order, duplicates
    /// included (the L2 charge depends on that order).
    pub fn spmm_cost<T: Scalar>(
        &mut self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        rows: impl Iterator<Item = usize>,
        b_mask: Option<&[bool]>,
    ) -> SimNs {
        let rows: Vec<usize> = rows.collect();
        let mut listed = rows.clone();
        listed.sort_unstable();
        listed.dedup();
        let (serial, scratch) = (ThreadPool::new(1), WorkspacePool::new());
        let widths = masked_output_widths_for_pooled(a, b, b_mask, &listed, &serial, &scratch);
        self.spmm_cost_planned(a, b, rows.into_iter(), b_mask, &widths)
    }

    /// [`GpuDevice::spmm_cost`] with the per-row masked output widths
    /// supplied by a [`masked_output_widths`] table (indexed by A row). The
    /// width only feeds the integer TR_b pass count; every floating-point
    /// charge accumulates in row order, so one table serves every claim of
    /// a product bit-identically to pricing each claim on its own.
    pub fn spmm_cost_planned<T: Scalar>(
        &mut self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        rows: impl Iterator<Item = usize>,
        b_mask: Option<&[bool]>,
        widths: &[u32],
    ) -> SimNs {
        let spec = self.spec;
        let mut clock = KernelClock::default();
        let b_indptr = b.indptr();
        for i in rows {
            clock.any = true;
            let (acols, _) = a.row(i);
            if acols.is_empty() {
                continue;
            }
            let mut row = RowCharge::new(self.read_cycles(
                A_BASE + (a.indptr()[i] * ENTRY_BYTES) as u64,
                acols.len() * ENTRY_BYTES,
            ));
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
                let read = self.read_cycles(
                    B_BASE + (b_indptr[j] * ENTRY_BYTES) as u64,
                    bnnz * ENTRY_BYTES,
                );
                row.b_row(&spec, read, bnnz);
            }
            clock.add(&spec, row, widths[i] as usize);
        }
        clock.ns(&spec)
    }

    /// The Phase II `A_L × B_L` price of every candidate of a threshold
    /// ladder, from one walk over A's rows. Candidate `k` keeps the A rows
    /// with `|A(i,:)| < t_a[k].max(1)` and the B rows with
    /// `|B(j,:)| < t_b[k].max(1)`, and reads its output widths from
    /// `widths[k * a.nrows()..(k + 1) * a.nrows()]` (the candidate-major
    /// table of [`ladder_output_widths`]). Its [`Phase2Price`] — the ns and
    /// the L2 the product leaves behind — is bit-identical to
    /// [`GpuDevice::spmm_cost_planned`] over those rows, mask and widths
    /// on a device of this spec with a cold L2.
    ///
    /// Both ladders ascend, so the candidates' access streams nest: each
    /// row gets the bucket `ladder_output_widths` gives it (the number of
    /// candidates that classify it high), and candidate `k` sees exactly
    /// the A rows of bucket ≤ `k` and, within them, the B rows of bucket
    /// ≤ `k`, in ascending row order. The walk visits each row once,
    /// charges it to every candidate that sees it through a
    /// [`CacheBank`] of cold L2s (one member per candidate) and keeps each
    /// candidate's cycle tally in [`spmm_cost_planned`]'s order.
    ///
    /// [`spmm_cost_planned`]: GpuDevice::spmm_cost_planned
    pub fn spmm_cost_ladder<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        t_a: &[usize],
        t_b: &[usize],
        widths: &[u32],
    ) -> Vec<Phase2Price> {
        let (n, m) = (a.nrows(), t_a.len());
        assert_eq!(t_b.len(), m, "one B threshold per candidate");
        assert_eq!(widths.len(), m * n, "one width table per candidate");
        let (bucket_a, bucket_b) = (ladder_buckets(a, t_a), ladder_buckets(b, t_b));
        let spec = self.spec;
        let mut bank = CacheBank::new(self.l2.config(), m);
        let mut rows = vec![RowCharge::default(); m];
        let mut clocks = vec![KernelClock::default(); m];
        let mut misses = vec![0u64; m];
        let b_indptr = b.indptr();
        for (i, &bi) in bucket_a.iter().enumerate() {
            let bi = bi as usize;
            if bi == m {
                continue; // high for every candidate
            }
            clocks[bi..].iter_mut().for_each(|c| c.any = true);
            let (acols, _) = a.row(i);
            if acols.is_empty() {
                continue;
            }
            let addr = A_BASE + (a.indptr()[i] * ENTRY_BYTES) as u64;
            let lines = bank.access_range(addr, acols.len() * ENTRY_BYTES, bi..m, &mut misses);
            for (row, &miss) in rows[bi..].iter_mut().zip(&misses[bi..]) {
                *row = RowCharge::new(segment_cycles(&spec, lines, miss));
            }
            for &j in acols {
                let j = j as usize;
                let lo = bi.max(bucket_b[j] as usize);
                let bnnz = b.row_nnz(j);
                if lo == m || bnnz == 0 {
                    continue;
                }
                let addr = B_BASE + (b_indptr[j] * ENTRY_BYTES) as u64;
                let lines = bank.access_range(addr, bnnz * ENTRY_BYTES, lo..m, &mut misses);
                for (row, &miss) in rows[lo..].iter_mut().zip(&misses[lo..]) {
                    row.b_row(&spec, segment_cycles(&spec, lines, miss), bnnz);
                }
            }
            for (k, (clock, &row)) in clocks.iter_mut().zip(&rows).enumerate().skip(bi) {
                clock.add(&spec, row, widths[k * n + i] as usize);
            }
        }
        clocks
            .iter()
            .enumerate()
            .map(|(k, clock)| Phase2Price {
                ns: clock.ns(&spec),
                l2: bank.member(k),
            })
            .collect()
    }

    /// Segment reads of `len` bytes at `addr` through the L2; returns
    /// cycles.
    fn read_cycles(&mut self, addr: u64, len: usize) -> f64 {
        if len == 0 {
            return 0.0;
        }
        let first = addr / SEGMENT_BYTES as u64;
        let last = (addr + len as u64 - 1) / SEGMENT_BYTES as u64;
        let misses = self.l2.access_range(addr, len);
        segment_cycles(&self.spec, last - first + 1, misses)
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

/// One GPU kernel's Phase II price from [`GpuDevice::spmm_cost_ladder`]:
/// its simulated ns and the L2 it leaves behind.
#[derive(Debug, Clone)]
pub struct Phase2Price {
    pub ns: SimNs,
    pub l2: Cache,
}

/// Cycles of `segments` 128 B segment reads of which `misses` went to
/// global memory.
fn segment_cycles(spec: &GpuSpec, segments: u64, misses: u64) -> f64 {
    let (segments, misses) = (segments as f64, misses as f64);
    let hits = segments - misses;
    hits * spec.l2_hit_cycles + misses * spec.mem_cycles
}

/// One warp-row's cycle tally. Every GPU spmm price charges a row through
/// this type, in this order, so the per-row and ladder walks agree to the
/// bit.
#[derive(Debug, Clone, Copy, Default)]
struct RowCharge {
    cycles: f64,
    /// The A-row read, repeated by every extra tiling pass.
    a_read: f64,
    /// Per-pass re-scan cost of the B indices.
    rescan: f64,
    /// B rows actually multiplied.
    nj: usize,
}

impl RowCharge {
    fn new(a_read: f64) -> Self {
        Self {
            cycles: a_read,
            a_read,
            ..Self::default()
        }
    }

    /// One live B row of `bnnz` entries whose segment reads cost `read`.
    fn b_row(&mut self, spec: &GpuSpec, read: f64, bnnz: usize) {
        self.nj += 1;
        self.cycles += read;
        // SIMD lockstep: one step per warp-width chunk, whole chunks
        // charged even when mostly idle lanes
        let steps = bnnz.div_ceil(spec.warp_width) as f64;
        self.cycles += steps * spec.simd_step_cycles;
        // accumulation into the TR_b-wide PartialOutput window; the writes
        // are uncoalesced but L2-resident within the tile
        self.cycles += bnnz as f64 * spec.uncoalesced_write_cycles;
        // a later tiling pass re-scans this row's indices
        self.rescan += bnnz.div_ceil(SEGMENT_BYTES / 4) as f64 * spec.l2_hit_cycles
            + steps * spec.simd_step_cycles;
    }
}

/// Greedy warp scheduling: W warps drain the row list, so the wall time is
/// the list-scheduling makespan — at least total/W and at least the
/// *serial depth* of the longest row. A warp's 32 lanes cooperate across
/// the row's nonzeros, so a row touching `nj` B rows has depth ≈ cost /
/// min(nj, 32); rows with fewer nonzeros than lanes leave lanes idle (the
/// §V-C under-utilisation).
#[derive(Debug, Clone, Copy, Default)]
struct KernelClock {
    total_cycles: f64,
    max_row_depth: f64,
    /// Whether the kernel was given any row (an empty launch is free).
    any: bool,
}

impl KernelClock {
    /// Close `row`, whose output row has `width` entries, and add it.
    fn add(&mut self, spec: &GpuSpec, mut row: RowCharge, width: usize) {
        // TR_b column-tiling: output rows wider than the auxiliary
        // PartialOutput / NonZeroIndices arrays force repeated passes over
        // the A row and the B indices (§II-A-b)
        let passes = width.div_ceil(spec.tr_b).max(1);
        if passes > 1 {
            row.cycles += (passes - 1) as f64 * (row.a_read + row.rescan);
        }
        self.total_cycles += row.cycles;
        let depth = row.cycles / row.nj.clamp(1, spec.warp_width) as f64;
        self.max_row_depth = self.max_row_depth.max(depth);
    }

    fn ns(&self, spec: &GpuSpec) -> SimNs {
        if !self.any {
            return 0.0;
        }
        let wall = (self.total_cycles / spec.parallel_warps()).max(self.max_row_depth);
        wall * spec.cycle_ns() * spec.kernel_overhead + spec.launch_ns
    }
}

/// Every row's bucket under an ascending threshold `ladder`: the number of
/// candidates that classify it high (`|row| >= t.max(1)`). A row is low —
/// in `A_L` or `B_L` — for exactly the candidates from its bucket on.
fn ladder_buckets<T: Scalar>(m: &CsrMatrix<T>, ladder: &[usize]) -> Vec<u32> {
    assert!(
        ladder.windows(2).all(|w| w[0] <= w[1]),
        "threshold ladder must ascend"
    );
    (0..m.nrows())
        .map(|k| ladder.partition_point(|&t| t.max(1) <= m.row_nnz(k)) as u32)
        .collect()
}

/// Masked output width (distinct column count) of every row of `a × b`,
/// with masked-off B rows contributing nothing: the per-row `width` that
/// [`GpuDevice::spmm_cost_planned`] reads for the TR_b pass count, computed
/// once per `(a, b, mask)` and fanned out across the host pool. Pure
/// integer work, so the table is identical for any thread count.
pub fn masked_output_widths<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    b_mask: Option<&[bool]>,
    pool: &ThreadPool,
) -> Vec<u32> {
    widths_impl(a, b, b_mask, None, pool, &WorkspacePool::new())
}

/// [`masked_output_widths`] drawing each worker's O(ncols)
/// [`RowSizer`](spmm_sparse::RowSizer) from a [`WorkspacePool`] instead of
/// allocating it per call — this is what lets the Phase-I ladder cost
/// dozens of candidates without dozens of sizer allocations. The count is
/// pure integer work, so the table is byte-equal to the unpooled call.
pub fn masked_output_widths_pooled<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    b_mask: Option<&[bool]>,
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
) -> Vec<u32> {
    widths_impl(a, b, b_mask, None, pool, workspaces)
}

/// [`masked_output_widths_pooled`] restricted to the listed A rows — the
/// returned table still has one slot per A row (unlisted rows stay 0), so
/// lookups stay indexed by row. Use when only a known subset of rows can
/// ever be costed under this mask (e.g. the `A_L × B_H` quadrant). Panics
/// unless `rows` is strictly ascending: a repeated row would be two
/// workers writing one slot.
pub fn masked_output_widths_for_pooled<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    b_mask: Option<&[bool]>,
    rows: &[usize],
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
) -> Vec<u32> {
    assert!(
        rows.windows(2).all(|w| w[0] < w[1]),
        "width-table rows must be strictly ascending"
    );
    widths_impl(a, b, b_mask, Some(rows), pool, workspaces)
}

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
    let live = |j: usize| b_mask.is_none_or(|mask| mask[j]);
    pool.for_each_guided_with(
        len,
        64,
        || workspaces.acquire_sizer(b.ncols()),
        |sizer, range| {
            for k in range {
                let i = rows.map_or(k, |r| r[k]);
                let (acols, _) = a.row(i);
                // Count the row's masked sources first, keeping the last:
                // a single one makes the width that B row's size, with no
                // marking at all. Only rows of several sources pay the
                // sizer.
                let mut nsrc = 0u32;
                let mut only = 0usize;
                for &j in acols {
                    if live(j as usize) {
                        nsrc += 1;
                        only = j as usize;
                    }
                }
                let width = match nsrc {
                    0 => continue, // no live source: width stays 0
                    1 => b.row_nnz(only) as u32,
                    _ => {
                        for &j in acols {
                            if live(j as usize) {
                                for &c in b.row(j as usize).0 {
                                    sizer.mark(c);
                                }
                            }
                        }
                        sizer.finish_row() as u32
                    }
                };
                // SAFETY: i < a.nrows() (`a.row(i)` checked it), and row i
                // is claimed by one worker only: `k` runs over disjoint
                // ranges, and the listed rows are strictly ascending.
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
/// the sources are visited in ascending bucket order through a sizer, so a
/// column's first touch is in its minimum bucket; the fresh-column counts
/// per bucket, prefix-summed, are every candidate's width at once. A row
/// with a single live source needs no sizer: its width is that B row's
/// size from the source's bucket on.
pub fn ladder_output_widths<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    ladder: &[usize],
    pool: &ThreadPool,
    workspaces: &WorkspacePool,
) -> Vec<u32> {
    let (n, m) = (a.nrows(), ladder.len());
    let mut table = vec![0u32; m * n];
    let bucket = ladder_buckets(b, ladder);
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
    #[should_panic(expected = "fewer than the 4 sets")]
    fn l2_of_two_sets_is_refused_at_construction() {
        // B's lines sit past 2^33: with two sets their tags overflow u32
        GpuDevice::new(GpuSpec {
            l2_bytes: 2 * 16 * SEGMENT_BYTES,
            ..GpuSpec::k20c()
        });
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
