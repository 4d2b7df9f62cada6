//! CPU device model: cache-driven cost for row-row spmm.

use spmm_cache::MemoryHierarchy;
use spmm_sparse::{CsrMatrix, Scalar};

use crate::platform::CpuSpec;
use crate::SimNs;

/// Bytes per stored CSR entry (u32 column index + f64 value).
const ENTRY_BYTES: usize = 12;

/// Virtual address bases keeping A, B, and the output stream in disjoint
/// regions of the simulated address space.
const A_BASE: u64 = 0;
const B_BASE: u64 = 1 << 40;

/// The CPU side of the platform. Carries a live cache hierarchy, so cost
/// queries are *stateful*: multiplying against the same few B rows twice is
/// cheaper the second time — this is what makes `A_H × B_H` the right work
/// for the CPU (§III-B: "good cache blocking techniques can be used").
///
/// The model walks the exact memory-access structure of the row-row kernel
/// (one stream read of the A row, one stream read of each touched B row,
/// one output tuple per multiply) through the hierarchy and divides the
/// single-stream time by `cores × parallel_efficiency`. The shared L3 of
/// the i7-980 makes the single-hierarchy approximation reasonable: all
/// cores work on the same B.
#[derive(Debug, Clone)]
pub struct CpuDevice {
    spec: CpuSpec,
    hierarchy: MemoryHierarchy,
}

impl CpuDevice {
    pub fn new(spec: CpuSpec) -> Self {
        let hierarchy = MemoryHierarchy::new(spec.hierarchy());
        Self { spec, hierarchy }
    }

    /// The paper's i7-980.
    pub fn paper() -> Self {
        Self::new(CpuSpec::i7_980())
    }

    pub fn spec(&self) -> &CpuSpec {
        &self.spec
    }

    /// Forget all cached state (between independent experiments).
    pub fn reset(&mut self) {
        self.hierarchy.flush();
    }

    /// Simulated ns for this CPU (all cores) to multiply the given rows of
    /// `a` against `b` in row-row form. `b_mask`, when given, restricts the
    /// product to B rows where the mask is true (the paper's Boolean
    /// classification array): excluded `j` entries cost only the A-row
    /// read.
    pub fn spmm_cost<T: Scalar>(
        &mut self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        rows: impl Iterator<Item = usize>,
        b_mask: Option<&[bool]>,
    ) -> SimNs {
        let mut total = 0.0f64;
        let mut max_row = 0.0f64;
        let b_indptr = b.indptr();
        for i in rows {
            let (acols, _) = a.row(i);
            if acols.is_empty() {
                continue;
            }
            let mut row_ns = 0.0f64;
            // stream-read the A row once
            row_ns += self.hierarchy.access_stream(
                A_BASE + (a.indptr()[i] * ENTRY_BYTES) as u64,
                acols.len() * ENTRY_BYTES,
            );
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
                // stream-read the B row through the cache hierarchy
                row_ns += self.hierarchy.access_stream(
                    B_BASE + (b_indptr[j] * ENTRY_BYTES) as u64,
                    bnnz * ENTRY_BYTES,
                );
                // multiply-add and emit one tuple per B entry
                row_ns += bnnz as f64 * (self.spec.flop_ns + self.spec.tuple_write_ns);
            }
            total += row_ns;
            max_row = max_row.max(row_ns);
        }
        // Greedy makespan over the cores: rows are indivisible, so one core
        // carrying a dense output row bounds the wall from below — the
        // intra-work-unit imbalance of §V-C ("it becomes difficult to make
        // effective load balancing techniques within a workunit").
        let wall = (total / (self.spec.cores as f64 * self.spec.parallel_efficiency)).max(max_row);
        wall * self.spec.kernel_overhead
    }

    /// Simulated ns for the *cache-blocked* CPU kernel to multiply the
    /// given rows of `a` against the masked rows of `b` (§III-B: for
    /// `A_H × B_H` "good cache blocking techniques can be used when
    /// multiplying"). The masked B operand is processed in column tiles
    /// sized to half the L2; each tile is streamed from DRAM once and then
    /// reused from cache across every A row, at the price of re-reading
    /// the A rows once per tile. Analytic (no LRU walk): blocking exists
    /// precisely to make the access pattern predictable. Tiles are sized
    /// to half the shared L3, the level the blocked operand actually
    /// lives in on the i7-980.
    pub fn spmm_cost_blocked<T: Scalar>(
        &mut self,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        rows: impl Iterator<Item = usize>,
        b_mask: Option<&[bool]>,
    ) -> SimNs {
        let mut flops = 0.0f64;
        let mut max_row_flops = 0.0f64;
        let mut a_bytes = 0.0f64;
        let mut probes = 0.0f64;
        for i in rows {
            let (acols, _) = a.row(i);
            a_bytes += (acols.len() * ENTRY_BYTES) as f64;
            let mut row_flops = 0.0f64;
            for &j in acols {
                let j = j as usize;
                if let Some(mask) = b_mask {
                    if !mask[j] {
                        continue;
                    }
                }
                let bnnz = b.row_nnz(j);
                if bnnz > 0 {
                    probes += 1.0;
                    row_flops += bnnz as f64;
                }
            }
            flops += row_flops;
            max_row_flops = max_row_flops.max(row_flops);
        }
        if flops == 0.0 {
            return 0.0;
        }
        let b_bytes: f64 = match b_mask {
            Some(mask) => (0..b.nrows())
                .filter(|&j| mask[j])
                .map(|j| (b.row_nnz(j) * ENTRY_BYTES) as f64)
                .sum(),
            None => (b.nnz() * ENTRY_BYTES) as f64,
        };
        let tile_bytes = (self.hierarchy.config().l3.size_bytes / 2).max(1) as f64;
        let ntiles = (b_bytes / tile_bytes).ceil().max(1.0);
        let per_elem = self.spec.flop_ns + self.spec.tuple_write_ns + self.spec.blocked_elem_ns;
        let compute = flops * per_elem + probes * self.spec.blocked_probe_ns;
        let traffic = (b_bytes + a_bytes * ntiles) * self.spec.stream_ns_per_byte;
        let wall = ((compute + traffic) / (self.spec.cores as f64 * self.spec.parallel_efficiency))
            .max(max_row_flops * per_elem);
        wall * self.spec.kernel_overhead
    }

    /// Simulated ns to multiply the given rows of sparse `a` against a
    /// dense matrix with `b_ncols` columns (the csrmm extension of the
    /// paper's §VI). Dense B rows are contiguous, so reads stream
    /// perfectly; the output row accumulates in cache.
    pub fn csrmm_cost<T: Scalar>(
        &mut self,
        a: &CsrMatrix<T>,
        b_ncols: usize,
        rows: impl Iterator<Item = usize>,
    ) -> SimNs {
        let mut ns = 0.0f64;
        let row_bytes = b_ncols * 8;
        let mut max_row = 0.0f64;
        for i in rows {
            let (acols, _) = a.row(i);
            if acols.is_empty() {
                continue;
            }
            let mut row_ns = self.hierarchy.access_stream(
                A_BASE + (a.indptr()[i] * ENTRY_BYTES) as u64,
                acols.len() * ENTRY_BYTES,
            );
            for &j in acols {
                row_ns += self
                    .hierarchy
                    .access_range(B_BASE + (j as usize * row_bytes) as u64, row_bytes);
                row_ns += b_ncols as f64 * (self.spec.flop_ns + 0.1);
            }
            ns += row_ns;
            max_row = max_row.max(row_ns);
        }
        (ns / (self.spec.cores as f64 * self.spec.parallel_efficiency)).max(max_row)
            * self.spec.kernel_overhead
    }

    /// ns for the CPU's share of Phase I: scanning row sizes and picking
    /// the threshold from the histogram (`O(nrows)` streaming).
    pub fn threshold_scan_cost(&self, nrows: usize) -> SimNs {
        // one parallel pass over 8-byte row sizes at the spec's DRAM
        // streaming rate — derived from `CpuSpec` (not a flat constant) so
        // rescaled or custom platforms price their own Phase I scan
        let bytes = nrows as f64 * 8.0;
        bytes * self.spec.stream_ns_per_byte
            / (self.spec.cores as f64 * self.spec.parallel_efficiency)
    }

    /// ns for the CPU to merge `tuples` Phase II/III output tuples into CSR
    /// (§III-D): a parallel sort by (r, c) plus two linear passes (head
    /// marking + segmented sum).
    pub fn merge_cost(&self, tuples: usize) -> SimNs {
        if tuples == 0 {
            return 0.0;
        }
        // LSD radix sort on the packed (r, c) key: a fixed number of
        // linear passes (~6 at 11 bits/digit for 64-bit keys) plus the
        // mark + segmented-sum passes, all streaming at ~0.4 ns/element
        // per pass on one core.
        let t = tuples as f64;
        let passes = 6.0 + 2.0;
        (t * passes * 0.4) / (self.spec.cores as f64 * self.spec.parallel_efficiency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_sparse::CsrMatrix;

    /// n rows each with k distinct nonzeros at spread-out columns.
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
    fn repeated_products_get_cheaper_with_warm_caches() {
        let a = uniform_matrix(200, 8);
        let mut cpu = CpuDevice::paper();
        let cold = cpu.spmm_cost(&a, &a, 0..200, None);
        let warm = cpu.spmm_cost(&a, &a, 0..200, None);
        assert!(
            warm < cold * 0.6,
            "warm pass ({warm}) should be much cheaper than cold ({cold})"
        );
    }

    #[test]
    fn dense_reuse_beats_scattered_access_per_flop() {
        // Few long B rows reused by every A row (the A_H x B_H pattern) vs
        // many distinct small B rows (the A_L x B_L pattern), equal flops.
        let n = 20_000;
        let dense = uniform_matrix(2048, 512); // long rows, heavy B reuse
        let sparse = uniform_matrix(n, 2); // 20000 rows x 2 nnz

        let mut cpu = CpuDevice::paper();
        let dense_ns = cpu.spmm_cost(&dense, &dense, 0..64, None);
        let dense_flops = spmm_sparse::reference::flops(&dense, &dense) as f64;

        cpu.reset();
        let sparse_ns = cpu.spmm_cost(&sparse, &sparse, 0..n, None);
        let sparse_flops = spmm_sparse::reference::flops(&sparse, &sparse) as f64;

        let dense_per_flop = dense_ns / dense_flops;
        let sparse_per_flop = sparse_ns / sparse_flops;
        assert!(
            dense_per_flop < sparse_per_flop * 0.5,
            "cache blocking should make dense work much cheaper per flop \
             (dense {dense_per_flop} vs sparse {sparse_per_flop})"
        );
    }

    #[test]
    fn mask_skips_b_rows() {
        let a = uniform_matrix(500, 64);
        let mut cpu = CpuDevice::paper();
        let full = cpu.spmm_cost(&a, &a, 0..500, None);
        cpu.reset();
        let none = cpu.spmm_cost(&a, &a, 0..500, Some(&vec![false; 500]));
        assert!(
            none < full * 0.5,
            "masked-out product should cost only A reads"
        );
    }

    #[test]
    fn empty_rows_cost_nothing() {
        let a = CsrMatrix::<f64>::zeros(50, 50);
        let mut cpu = CpuDevice::paper();
        assert_eq!(cpu.spmm_cost(&a, &a, 0..50, None), 0.0);
    }

    #[test]
    fn merge_cost_scales_linearly() {
        let cpu = CpuDevice::paper();
        let small = cpu.merge_cost(1_000);
        let big = cpu.merge_cost(100_000);
        assert!((big / small - 100.0).abs() < 1.0, "radix merge is linear");
        assert_eq!(cpu.merge_cost(0), 0.0);
    }

    #[test]
    fn reset_restores_cold_behaviour() {
        let a = uniform_matrix(200, 8);
        let mut cpu = CpuDevice::paper();
        let cold = cpu.spmm_cost(&a, &a, 0..200, None);
        cpu.reset();
        let cold2 = cpu.spmm_cost(&a, &a, 0..200, None);
        assert!((cold - cold2).abs() < cold * 1e-9);
    }
}
