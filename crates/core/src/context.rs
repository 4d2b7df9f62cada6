//! Execution context: the simulated platform plus host-side parallelism.

use std::sync::Arc;

use spmm_hetsim::{CpuDevice, GpuDevice, PciLink, Platform};
use spmm_parallel::ThreadPool;
use spmm_sparse::WorkspacePool;

/// Bytes per CSR entry / GPU memory segment, mirrored from the device
/// models for the analytic estimates.
const ENTRY_BYTES: f64 = 12.0;
const SEGMENT_BYTES: f64 = 128.0;

/// Everything an algorithm run needs: the two simulated devices (stateful —
/// they carry cache contents), the PCIe link, a host thread pool for the
/// *real* numeric work, and a pool of per-thread engine workspaces so the
/// O(ncols) accumulator state is allocated once and reused
/// across all four masked products, every Phase-I ladder candidate, and
/// repeated multiplies.
#[derive(Debug)]
pub struct HeteroContext {
    pub platform: Platform,
    pub cpu: CpuDevice,
    pub gpu: GpuDevice,
    pub link: PciLink,
    pub pool: ThreadPool,
    /// Shared across contexts: a service layer hands every request its own
    /// (cheap, stateful) device models but one workspace pool, so scratch
    /// allocations amortise across the whole request stream. Deref
    /// coercion keeps `&ctx.workspaces` working at every call site.
    pub workspaces: Arc<WorkspacePool>,
}

impl HeteroContext {
    /// Context over the paper's platform (§II-B).
    pub fn paper() -> Self {
        Self::new(Platform::paper())
    }

    /// Context over an arbitrary platform spec.
    pub fn new(platform: Platform) -> Self {
        Self::with_shared(platform, ThreadPool::host(), Arc::new(WorkspacePool::new()))
    }

    /// Context whose host pool and workspace pool are shared with other
    /// contexts — the building block of the serve layer, where each request
    /// gets fresh device state (simulated caches start cold, exactly like a
    /// single-shot context) but every request draws scratch from one
    /// process-wide pool.
    pub fn with_shared(
        platform: Platform,
        pool: ThreadPool,
        workspaces: Arc<WorkspacePool>,
    ) -> Self {
        Self {
            platform,
            cpu: CpuDevice::new(platform.cpu),
            gpu: GpuDevice::new(platform.gpu),
            link: PciLink::new(platform.link),
            pool,
            workspaces,
        }
    }

    /// Context over the paper's platform rescaled for `1/scale`-size
    /// inputs ([`Platform::scaled`]).
    pub fn scaled(scale: usize) -> Self {
        Self::new(Platform::scaled(scale))
    }

    /// Same context with an explicit host thread count. The pool only sets
    /// how much *wall-clock* parallelism the host spends (numeric kernels,
    /// the candidate-parallel Phase I search); simulated nanoseconds,
    /// threshold picks, and profiles are identical for every value — the
    /// determinism suite sweeps this to prove it.
    pub fn with_host_threads(mut self, threads: usize) -> Self {
        self.pool = ThreadPool::new(threads);
        self
    }

    /// Flush both devices' cache state so the next run starts cold — call
    /// between independent measurements. The workspace pool is deliberately
    /// *not* cleared: its accumulators are −0.0-seeded with clear bitmaps
    /// between rows and its sizers generation-stamped (contents never leak
    /// between rows or runs), and
    /// keeping them warm across runs is the pool's entire point.
    pub fn reset(&mut self) {
        self.cpu.reset();
        self.gpu.reset();
    }

    /// Analytic ns-per-flop estimate for the CPU on rows of mean size
    /// `mean_row`. Density matters: long rows stream and amortise their
    /// cache-line fills, short scattered rows pay a line fill per row.
    /// Used only for a-priori decisions (Phase I threshold balancing, the
    /// HiPC2012 static split) — never for reported times, which always
    /// come from the full device models.
    pub fn cpu_ns_per_flop_estimate(&self, mean_row: f64) -> f64 {
        let s = self.platform.cpu;
        let m = mean_row.max(1.0);
        // per element: flop + tuple write + streamed line share; per row:
        // one non-streamed line fill (L3-ish latency)
        let per_elem = s.flop_ns + s.tuple_write_ns + 0.6;
        let per_row = 13.0;
        (per_elem + per_row / m) / (s.cores as f64 * s.parallel_efficiency)
    }

    /// Analytic ns-per-flop estimate for the GPU on rows of mean size
    /// `mean_row` (see [`Self::cpu_ns_per_flop_estimate`]).
    pub fn gpu_ns_per_flop_estimate(&self, mean_row: f64) -> f64 {
        let g = self.platform.gpu;
        let m = mean_row.max(1.0);
        // per element: accumulate + amortised segment reads + simd share;
        // per row: first-segment fills for the A and B rows
        let per_elem_cycles = g.uncoalesced_write_cycles
            + g.mem_cycles * ENTRY_BYTES / SEGMENT_BYTES
            + g.simd_step_cycles / g.warp_width as f64;
        let per_row_cycles = g.mem_cycles;
        (per_elem_cycles + per_row_cycles / m) / g.parallel_warps() * g.cycle_ns()
    }
}

impl Default for HeteroContext {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_context_builds() {
        let ctx = HeteroContext::paper();
        assert_eq!(ctx.platform.cpu.cores, 6);
        assert!(ctx.pool.num_threads() >= 1);
    }

    #[test]
    fn shared_contexts_draw_from_one_workspace_pool() {
        let shared = Arc::new(WorkspacePool::new());
        let a = HeteroContext::with_shared(Platform::paper(), ThreadPool::new(1), shared.clone());
        let b = HeteroContext::with_shared(Platform::paper(), ThreadPool::new(1), shared.clone());
        drop(a.workspaces.acquire::<f64>(128));
        assert_eq!(shared.idle_workspaces::<f64>(), 1);
        // the second context checks the same workspace back out
        drop(b.workspaces.acquire::<f64>(64));
        assert_eq!(shared.idle_workspaces::<f64>(), 1);
    }

    #[test]
    fn throughput_estimates_are_same_order() {
        // The paper leans on Lee et al. [12]: CPUs and GPUs offer
        // *comparable* spmm throughput. At a typical mean row size the
        // analytic estimates should be within ~4x of each other, or the
        // static HiPC2012 split would be degenerate.
        let ctx = HeteroContext::paper();
        let r = ctx.cpu_ns_per_flop_estimate(6.0) / ctx.gpu_ns_per_flop_estimate(6.0);
        assert!((0.25..4.0).contains(&r), "cpu/gpu estimate ratio {r}");
    }

    #[test]
    fn estimates_cross_over_with_density() {
        // dense rows should favour the CPU, sparse rows the GPU
        let ctx = HeteroContext::paper();
        let cpu_dense = ctx.cpu_ns_per_flop_estimate(200.0);
        let gpu_dense = ctx.gpu_ns_per_flop_estimate(200.0);
        assert!(
            cpu_dense < gpu_dense,
            "CPU must win dense: {cpu_dense} vs {gpu_dense}"
        );
        let cpu_sparse = ctx.cpu_ns_per_flop_estimate(2.0);
        let gpu_sparse = ctx.gpu_ns_per_flop_estimate(2.0);
        assert!(
            gpu_sparse < cpu_sparse,
            "GPU must win sparse: {gpu_sparse} vs {cpu_sparse}"
        );
    }

    #[test]
    fn scaled_context_shrinks_caches_and_link() {
        let one = HeteroContext::scaled(1);
        let sixteen = HeteroContext::scaled(16);
        assert_eq!(one.platform.cpu.hierarchy.l3.size_bytes, 12 * 1024 * 1024);
        assert!(sixteen.platform.cpu.hierarchy.l3.size_bytes < 1024 * 1024);
        assert!(sixteen.platform.link.bandwidth_gbps > one.platform.link.bandwidth_gbps);
        assert!(sixteen.platform.gpu.launch_ns < one.platform.gpu.launch_ns);
    }
}
