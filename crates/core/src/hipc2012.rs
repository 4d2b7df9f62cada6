//! The HiPC-2012 heterogeneous baseline (the paper's reference \[13\]).
//!
//! "The heterogeneous algorithm from \[13\] does a static work partitioning
//! across the CPU and the GPU" (§V-C) and "does not consider the nature of
//! the matrix" (§I-A). Reimplemented here as: split the rows of `A` at a
//! single point chosen a-priori from nnz counts and analytic device
//! throughputs, run the two halves concurrently (CPU prefix, GPU suffix),
//! merge on the CPU.

use spmm_sparse::{CsrMatrix, Scalar};

use spmm_hetsim::gpu::masked_output_widths_for_pooled;
use spmm_hetsim::{DeviceKind, PhaseBreakdown, PhaseTimes};

use crate::context::HeteroContext;
use crate::result::SpmmOutput;
use crate::schedule::{self, ClaimSchedule, ExecPolicy, ScheduledClaim};

/// Run the static-partition heterogeneous spmm of \[13\].
pub fn hipc2012<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
) -> SpmmOutput<T> {
    hipc2012_with(ctx, a, b, ExecPolicy::default())
}

/// [`hipc2012`] under an explicit executor policy.
pub fn hipc2012_with<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    exec: ExecPolicy,
) -> SpmmOutput<T> {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "A and B incompatible for multiplication"
    );
    ctx.reset();

    // A-priori static split: the CPU takes the prefix holding its
    // estimated throughput share of nnz(A). [13] sizes its partition from
    // offline device calibration, not from the matrix's actual per-row
    // work — which cannot be known without doing the multiplication (§I).
    // That gap between the static estimate and the true work distribution
    // is exactly the weakness the paper's dynamic, input-aware algorithm
    // attacks.
    let mean_row = b.mean_row_nnz();
    let cpu_tp = 1.0 / ctx.cpu_ns_per_flop_estimate(mean_row);
    let gpu_tp = 1.0 / ctx.gpu_ns_per_flop_estimate(mean_row);
    let cpu_share = cpu_tp / (cpu_tp + gpu_tp);
    let target = (a.nnz() as f64 * cpu_share) as usize;
    let split = a
        .indptr()
        .partition_point(|&off| off < target)
        .min(a.nrows());

    let upload = if std::ptr::eq(a, b) {
        a.byte_size()
    } else {
        a.byte_size() + b.byte_size()
    };
    let transfer_ns = ctx.link.transfer_ns(upload);

    let cpu_rows: Vec<usize> = (0..split).collect();
    let gpu_rows: Vec<usize> = (split..a.nrows()).collect();
    let cpu_ns = ctx.cpu.spmm_cost(a, b, cpu_rows.iter().copied(), None);
    // Width table restricted to the GPU's row suffix, priced by one
    // planned cost call (what `spmm_cost` would do, on the host pool).
    let w_gpu = masked_output_widths_for_pooled(a, b, None, &gpu_rows, &ctx.pool, &ctx.workspaces);
    let gpu_ns = ctx
        .gpu
        .spmm_cost_planned(a, b, gpu_rows.iter().copied(), None, &w_gpu);
    let compute = PhaseTimes::new(cpu_ns, gpu_ns);

    let sched = ClaimSchedule {
        claims: vec![
            ScheduledClaim {
                device: DeviceKind::Cpu,
                rows: &cpu_rows,
                b_mask: None,
                sim_ns: cpu_ns,
            },
            ScheduledClaim {
                device: DeviceKind::Gpu,
                rows: &gpu_rows,
                b_mask: None,
                sim_ns: gpu_ns,
            },
        ],
    };
    let (c, counts) = schedule::execute(
        a,
        b,
        &sched,
        (a.nrows(), b.ncols()),
        &ctx.pool,
        &ctx.workspaces,
        exec,
    );
    let gpu_count = counts.gpu_entries;
    let tuples_merged = counts.cpu_entries + gpu_count;

    let transfer_ns = transfer_ns + ctx.link.transfer_ns(gpu_count * 16);
    let merge = PhaseTimes::new(ctx.cpu.merge_cost(tuples_merged), 0.0);

    SpmmOutput {
        c,
        profile: PhaseBreakdown {
            phase1: PhaseTimes::default(),
            phase2: compute,
            phase3: PhaseTimes::default(),
            phase4: merge,
            transfer_ns,
        },
        threshold_a: 0,
        threshold_b: 0,
        hd_rows_a: 0,
        hd_rows_b: 0,
        tuples_merged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_scalefree::{scale_free_matrix, GeneratorConfig};
    use spmm_sparse::reference;

    fn scale_free(n: usize, nnz: usize, alpha: f64, seed: u64) -> CsrMatrix<f64> {
        scale_free_matrix(&GeneratorConfig::square_power_law(n, nnz, alpha, seed))
    }

    #[test]
    fn product_matches_reference() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(600, 3_000, 2.4, 10);
        let out = hipc2012(&mut ctx, &a, &a);
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        assert!(out.c.approx_eq(&expected, 1e-9, 1e-12));
    }

    #[test]
    fn both_devices_do_work() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(5_000, 30_000, 2.3, 11);
        let out = hipc2012(&mut ctx, &a, &a);
        assert!(out.profile.phase2.cpu_ns > 0.0, "CPU got no rows");
        assert!(out.profile.phase2.gpu_ns > 0.0, "GPU got no rows");
    }

    #[test]
    fn static_split_is_less_balanced_than_dynamic() {
        // On a scale-free matrix the a-priori nnz split mispredicts true
        // work; the imbalance is the opening HH-CPU exploits.
        let mut ctx = HeteroContext::paper();
        let a = scale_free(8_000, 56_000, 2.1, 12);
        let stat = hipc2012(&mut ctx, &a, &a);
        let dynamic = crate::hh_cpu(&mut ctx, &a, &a, &crate::HhCpuConfig::default());
        let stat_imb = stat.profile.phase2.imbalance() / stat.profile.phase2.wall();
        let dyn_imb = dynamic.profile.phase3.imbalance() / dynamic.profile.phase3.wall().max(1.0);
        assert!(
            dyn_imb < stat_imb + 0.25,
            "workqueue phase should not be wildly less balanced \
             (static {stat_imb}, dynamic {dyn_imb})"
        );
    }

    #[test]
    fn deterministic() {
        let a = scale_free(500, 2_500, 2.5, 13);
        let mut ctx = HeteroContext::paper();
        let o1 = hipc2012(&mut ctx, &a, &a);
        let o2 = hipc2012(&mut ctx, &a, &a);
        assert_eq!(o1.total_ns(), o2.total_ns());
    }
}
