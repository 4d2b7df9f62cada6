//! Vendor-library stand-ins for the Figure 6 footnote: "Our results also
//! outperform the results of cusparse and Intel MKL by 4x and 3.6x
//! respectively."
//!
//! * [`mkl_like`] — CPU-only spmm. The paper states its handwritten CPU
//!   routine "performs around 15% to 20% slower than the Intel MKL library
//!   routine" (§III-B); the stand-in therefore charges the CPU model's
//!   time divided by [`MKL_ADVANTAGE`].
//! * [`cusparse_like`] — GPU-only spmm over the same warp-per-row model,
//!   plus both PCIe directions.

use spmm_sparse::{CsrMatrix, Scalar};

use spmm_hetsim::{DeviceKind, PhaseBreakdown, PhaseTimes};

use crate::context::HeteroContext;
use crate::result::SpmmOutput;
use crate::schedule::{self, ClaimSchedule, ExecPolicy, ScheduledClaim};

/// MKL's measured edge over the paper's handwritten CPU kernel (§III-B
/// reports 15–20%; we take the midpoint).
pub const MKL_ADVANTAGE: f64 = 1.175;

/// Inefficiency of the 2012-era cuSPARSE csrgemm relative to the tuned
/// warp-per-row kernel of \[13\]: the vendor routine used an
/// expand–sort–compress pipeline with several times the memory traffic.
/// \[13\] (and transitively the paper's Figure 6, where cuSPARSE trails
/// HH-CPU by 4x while the GPU side of \[13\] is competitive) implies a
/// multiple-x gap; we use 3x.
pub const CUSPARSE_PENALTY: f64 = 3.0;

/// CPU-only spmm at MKL-like speed.
pub fn mkl_like<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
) -> SpmmOutput<T> {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "A and B incompatible for multiplication"
    );
    ctx.reset();
    let rows: Vec<usize> = (0..a.nrows()).collect();
    let cpu_ns = ctx.cpu.spmm_cost(a, b, rows.iter().copied(), None) / MKL_ADVANTAGE;
    let (c, tuples_merged) = whole_product(ctx, a, b, &rows, DeviceKind::Cpu, cpu_ns);
    let merge_ns = ctx.cpu.merge_cost(tuples_merged) / MKL_ADVANTAGE;
    SpmmOutput {
        c,
        profile: PhaseBreakdown {
            phase2: PhaseTimes::new(cpu_ns, 0.0),
            phase4: PhaseTimes::new(merge_ns, 0.0),
            ..Default::default()
        },
        threshold_a: 0,
        threshold_b: 0,
        hd_rows_a: 0,
        hd_rows_b: 0,
        tuples_merged,
    }
}

/// GPU-only spmm (cuSPARSE-like): upload, warp-per-row kernel, on-device
/// merge, download of the result.
pub fn cusparse_like<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
) -> SpmmOutput<T> {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "A and B incompatible for multiplication"
    );
    ctx.reset();
    let rows: Vec<usize> = (0..a.nrows()).collect();
    let upload = if std::ptr::eq(a, b) {
        a.byte_size()
    } else {
        a.byte_size() + b.byte_size()
    };
    let mut transfer_ns = ctx.link.transfer_ns(upload);
    let gpu_ns = ctx.gpu.spmm_cost(a, b, rows.iter().copied(), None) * CUSPARSE_PENALTY;
    let (c, tuples_merged) = whole_product(ctx, a, b, &rows, DeviceKind::Gpu, gpu_ns);
    let merge_ns = ctx.gpu.merge_cost(tuples_merged);
    transfer_ns += ctx.link.transfer_ns(c.byte_size());
    SpmmOutput {
        c,
        profile: PhaseBreakdown {
            phase2: PhaseTimes::new(0.0, gpu_ns),
            phase4: PhaseTimes::new(0.0, merge_ns),
            transfer_ns,
            ..Default::default()
        },
        threshold_a: 0,
        threshold_b: 0,
        hd_rows_a: 0,
        hd_rows_b: 0,
        tuples_merged,
    }
}

/// The numeric product of a single-device library: one claim over every
/// row of `A`, run through the production executor. Returns `C` and the
/// stored-entry count the simulated merge is charged on.
fn whole_product<T: Scalar>(
    ctx: &HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    rows: &[usize],
    device: DeviceKind,
    sim_ns: f64,
) -> (CsrMatrix<T>, usize) {
    let sched = ClaimSchedule {
        claims: vec![ScheduledClaim {
            device,
            rows,
            b_mask: None,
            sim_ns,
        }],
    };
    let (c, counts) = schedule::execute(
        a,
        b,
        &sched,
        (a.nrows(), b.ncols()),
        &ctx.pool,
        &ctx.workspaces,
        ExecPolicy::Batched,
    );
    (c, counts.cpu_entries + counts.gpu_entries)
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
    fn both_match_reference() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(600, 3_000, 2.4, 30);
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        let mkl = mkl_like(&mut ctx, &a, &a);
        let cus = cusparse_like(&mut ctx, &a, &a);
        assert!(mkl.c.approx_eq(&expected, 1e-9, 1e-12));
        assert!(cus.c.approx_eq(&expected, 1e-9, 1e-12));
    }

    #[test]
    fn mkl_is_cpu_only_and_cusparse_gpu_only() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(600, 3_000, 2.4, 31);
        let mkl = mkl_like(&mut ctx, &a, &a);
        assert_eq!(mkl.profile.phase2.gpu_ns, 0.0);
        assert_eq!(mkl.profile.transfer_ns, 0.0);
        let cus = cusparse_like(&mut ctx, &a, &a);
        assert_eq!(cus.profile.phase2.cpu_ns, 0.0);
        assert!(
            cus.profile.transfer_ns > 0.0,
            "cusparse pays PCIe both ways"
        );
    }

    #[test]
    fn heterogeneous_hhcpu_beats_single_device_libraries() {
        // The headline: HH-CPU beats cuSPARSE (4x) and MKL (3.6x). At
        // reduced scale (on the scale-matched platform) the factors shrink
        // but the ordering must hold.
        let mut ctx = HeteroContext::scaled(16);
        let a = scale_free(12_000, 120_000, 2.1, 32);
        let hh = crate::hh_cpu(&mut ctx, &a, &a, &crate::HhCpuConfig::default());
        let mkl = mkl_like(&mut ctx, &a, &a);
        let cus = cusparse_like(&mut ctx, &a, &a);
        assert!(
            hh.speedup_over(&mkl) > 1.0,
            "vs MKL: {}",
            hh.speedup_over(&mkl)
        );
        assert!(
            hh.speedup_over(&cus) > 1.0,
            "vs cuSPARSE: {}",
            hh.speedup_over(&cus)
        );
    }
}
