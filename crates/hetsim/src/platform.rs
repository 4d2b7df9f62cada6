//! Platform specification: tunable parameters of the device models.

use spmm_cache::{CacheConfig, HierarchyConfig};

/// CPU model parameters (defaults: the paper's Intel i7-980, §II-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuSpec {
    /// Cache hierarchy geometry and latencies.
    pub hierarchy: HierarchyConfig,
    /// Physical cores running kernel threads.
    pub cores: usize,
    /// Fraction of linear speedup the cores achieve on spmm (memory
    /// bandwidth contention keeps this below 1).
    pub parallel_efficiency: f64,
    /// ns per multiply-add once operands are in registers.
    pub flop_ns: f64,
    /// ns per emitted output tuple (streaming store).
    pub tuple_write_ns: f64,
    /// ns per operand element when the kernel is cache-blocked and the
    /// operand tile is L1/L2 resident (§III-B's "good cache blocking
    /// techniques" on the dense × dense product).
    pub blocked_elem_ns: f64,
    /// ns per byte of DRAM streaming traffic (tile fills and per-tile A
    /// re-reads in the blocked kernel). ~10 GB/s on Westmere.
    pub stream_ns_per_byte: f64,
    /// ns per B-row visit in the blocked kernel: locating a row inside the
    /// resident tile is an L3-latency pointer chase. Dense B rows amortise
    /// this over many elements; 1–2-element rows do not — which is why
    /// blocking the *whole* product is no substitute for the H/L split.
    pub blocked_probe_ns: f64,
    /// Multiplier on kernel time for effects the first-order model omits
    /// (index arithmetic, branch misses, TLB, NUMA contention). Calibrated
    /// so full-scale runs land in the paper's hundreds-of-milliseconds
    /// range; applied equally to both devices so relative comparisons are
    /// unaffected.
    pub kernel_overhead: f64,
}

impl CpuSpec {
    /// The paper's Intel i7-980: 6 cores at 3.4 GHz. A Westmere core
    /// sustains roughly one fused load-multiply-add per cycle on this
    /// irregular kernel ⇒ ~0.3 ns per flop.
    pub fn i7_980() -> Self {
        Self {
            hierarchy: HierarchyConfig::i7_980(),
            cores: 6,
            parallel_efficiency: 0.75,
            flop_ns: 0.18,
            tuple_write_ns: 0.25,
            blocked_elem_ns: 0.25,
            stream_ns_per_byte: 0.1,
            blocked_probe_ns: 10.0,
            kernel_overhead: 6.0,
        }
    }

    /// The cache hierarchy matching this spec.
    pub fn hierarchy(&self) -> HierarchyConfig {
        self.hierarchy
    }
}

/// GPU model parameters (defaults: the paper's Tesla K20c, §II-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSpec {
    /// Streaming multiprocessors.
    pub sms: usize,
    /// Warps each SMX keeps in flight, throughput-wise (issue slots, not
    /// residency).
    pub warps_per_sm: usize,
    /// Core clock in GHz.
    pub clock_ghz: f64,
    /// SIMD width (threads per warp).
    pub warp_width: usize,
    /// Cycles for one 32-wide multiply-add step on a B-row chunk.
    pub simd_step_cycles: f64,
    /// Cycles to read one 128-byte memory segment that hits the L2 cache.
    pub l2_hit_cycles: f64,
    /// Cycles to read one 128-byte memory segment from global memory.
    pub mem_cycles: f64,
    /// Extra cycles per output element for the uncoalesced `PartialOutput`
    /// writes the paper calls out in §II-A-b.
    pub uncoalesced_write_cycles: f64,
    /// Column-tile width `TR_b` of the auxiliary `PartialOutput` /
    /// `NonZeroIndices` arrays (§II-A-b).
    pub tr_b: usize,
    /// L2 cache size in bytes (K20c: 1.25 MB): a multiple of 2 KB (16
    /// ways of 128 B lines) and at least four sets, 8 KB.
    pub l2_bytes: usize,
    /// Fixed kernel-launch latency in ns.
    pub launch_ns: f64,
    /// See `CpuSpec::kernel_overhead`.
    pub kernel_overhead: f64,
}

impl GpuSpec {
    /// The paper's Tesla K20c: 13 SMX × 192 cores at 706 MHz, 1.25 MB L2.
    pub fn k20c() -> Self {
        Self {
            sms: 13,
            warps_per_sm: 4,
            clock_ghz: 0.706,
            warp_width: 32,
            simd_step_cycles: 4.0,
            l2_hit_cycles: 12.0,
            mem_cycles: 80.0,
            uncoalesced_write_cycles: 5.0,
            tr_b: 1024,
            l2_bytes: 1_280 * 1024,
            launch_ns: 8_000.0,
            kernel_overhead: 6.0,
        }
    }

    /// ns per cycle for one warp-issue slot.
    pub fn cycle_ns(&self) -> f64 {
        1.0 / self.clock_ghz
    }

    /// Warp-issue slots across the whole device: total warp-cycles are
    /// divided by this to get wall cycles.
    pub fn parallel_warps(&self) -> f64 {
        (self.sms * self.warps_per_sm) as f64
    }
}

/// PCIe link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Effective bandwidth in GB/s. PCIe 2.0 x16 peaks at 8 GB/s, but the
    /// paper's own measurement ("25–30 ms for ~5 M nonzeros" ≈ 60 MB of
    /// CSR) implies ~2.2 GB/s effective; we use that.
    pub bandwidth_gbps: f64,
    /// Per-transfer latency in ns (DMA setup + driver).
    pub latency_ns: f64,
}

impl LinkSpec {
    /// PCIe 2.0 as observed by the paper.
    pub fn pcie2() -> Self {
        Self {
            bandwidth_gbps: 2.2,
            latency_ns: 20_000.0,
        }
    }
}

/// A full heterogeneous platform: one CPU, one GPU, one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Platform {
    pub cpu: CpuSpec,
    pub gpu: GpuSpec,
    pub link: LinkSpec,
}

impl Platform {
    /// The paper's experimental platform (§II-B): i7-980 + K20c + PCIe 2.0.
    pub fn paper() -> Self {
        Self {
            cpu: CpuSpec::i7_980(),
            gpu: GpuSpec::k20c(),
            link: LinkSpec::pcie2(),
        }
    }

    /// The paper's platform rescaled for inputs shrunk by `scale`×.
    ///
    /// Running the paper's experiments on `1/scale`-size matrix clones
    /// changes three ratios that its conclusions depend on; this preset
    /// restores them:
    ///
    /// * **cache : working-set** — L2/L3 (and the GPU L2) shrink by
    ///   `scale`, so "B does not fit in cache" stays true and the CPU's
    ///   cache-blocking advantage on `A_H × B_H` survives;
    /// * **transfer : compute** — spmm flops scale roughly as
    ///   `nnz²/rows` (≈ `scale²`) while bytes scale as `scale`, so the
    ///   link bandwidth is multiplied by `scale` to keep PCIe the same
    ///   *relative* cost the paper reports (§IV-A);
    /// * **launch : work-unit** — kernel-launch latency shrinks with the
    ///   work-unit rows so Phase III granularity effects are preserved.
    ///
    /// `scale = 1` is exactly [`Platform::paper`].
    pub fn scaled(scale: usize) -> Self {
        assert!(scale >= 1, "scale must be >= 1");
        let mut p = Self::paper();
        let k = scale as f64;
        p.cpu.hierarchy.l2 = shrink(p.cpu.hierarchy.l2, scale);
        p.cpu.hierarchy.l3 = shrink(p.cpu.hierarchy.l3, scale);
        // keep the L2 geometry legal: a multiple of line (128) x assoc (16)
        let gpu_unit = 128 * 16;
        p.gpu.l2_bytes = ((p.gpu.l2_bytes / scale) / gpu_unit).max(4) * gpu_unit;
        p.gpu.launch_ns /= k;
        p.link.bandwidth_gbps *= k;
        p.link.latency_ns /= k;
        p
    }
}

/// Shrink one cache level by `scale`, keeping geometry legal.
fn shrink(c: CacheConfig, scale: usize) -> CacheConfig {
    let unit = c.line_size * c.assoc;
    let size = ((c.size_bytes / scale) / unit).max(1) * unit;
    CacheConfig {
        size_bytes: size,
        ..c
    }
}

impl Default for Platform {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_matches_section_2b() {
        let p = Platform::paper();
        assert_eq!(p.cpu.cores, 6);
        assert_eq!(p.gpu.sms, 13);
        assert_eq!(p.gpu.warp_width, 32);
        assert!((p.gpu.clock_ghz - 0.706).abs() < 1e-9);
        assert_eq!(p.gpu.l2_bytes, 1_280 * 1024);
    }

    #[test]
    fn gpu_derived_quantities() {
        let g = GpuSpec::k20c();
        assert!((g.cycle_ns() - 1.4164).abs() < 1e-3);
        assert_eq!(g.parallel_warps(), 52.0);
    }

    #[test]
    fn link_matches_paper_transfer_observation() {
        // ~5M nnz CSR ≈ 5M * 12 bytes ≈ 60 MB; the paper reports 25-30 ms.
        let l = LinkSpec::pcie2();
        let bytes = 5_000_000.0 * 12.0;
        let ns = bytes / l.bandwidth_gbps + l.latency_ns;
        let ms = ns / 1e6;
        assert!((20.0..35.0).contains(&ms), "transfer model gives {ms} ms");
    }

    #[test]
    fn every_scale_prices_a_product_on_both_devices() {
        // shrinking leaves as few as 1-2 sets in the CPU L2/L3 and 4 in
        // the GPU L2, while B's lines sit past 2^33: every cache must take
        // those lines without refusing or aliasing them
        let a = spmm_scalefree::scale_free_matrix::<f64>(
            &spmm_scalefree::GeneratorConfig::square_power_law(300, 3_000, 2.1, 3),
        );
        let n = a.nrows();
        for scale in [1, 32, 150, 256, 4_096, 1 << 20] {
            let p = Platform::scaled(scale);
            let mut cpu = crate::CpuDevice::new(p.cpu);
            assert!(cpu.spmm_cost(&a, &a, 0..n, None) > 0.0);
            assert!(cpu.spmm_cost_blocked(&a, &a, 0..n, None) > 0.0);
            let gpu = crate::GpuDevice::new(p.gpu);
            let widths =
                crate::masked_output_widths(&a, &a, None, &spmm_parallel::ThreadPool::new(1));
            let ladder = [n + 1];
            let price = gpu.spmm_cost_ladder(&a, &a, &ladder, &ladder, &widths);
            assert!(price[0].ns > 0.0, "scale {scale}");
        }
    }

    #[test]
    fn specs_are_plain_copyable_values() {
        // Platform specs travel by value between the context, the device
        // models, and the bench harness — they must stay `Copy` + `PartialEq`
        // so scaled variants can be compared structurally.
        let p = Platform::paper();
        let q = p;
        assert_eq!(p, q);
        assert_ne!(Platform::scaled(16), p);
    }
}
