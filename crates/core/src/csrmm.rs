//! The csrmm (sparse × dense) extension sketched in the paper's conclusion
//! (§VI): "since B is dense, the work can be divided as multiplying the
//! high-density submatrix A_H of A with B on the CPU and the low-density
//! submatrix A_L of A with B on the GPU."

use spmm_sparse::{ColIndex, CsrMatrix, DenseMatrix, Scalar};

use spmm_hetsim::{PhaseBreakdown, PhaseTimes, SimNs};

use crate::context::HeteroContext;
use crate::kernels::rows_where;
use crate::threshold::{self, ThresholdPolicy};

/// Host-side `C = A × B` with the register-tiled kernel and no simulated
/// platform attached — the raw numeric sweep the baselines wrap and the
/// perf probes time. Bit-identical to [`spmm_sparse::reference::csrmm`].
pub fn csrmm_compute<T: Scalar>(a: &CsrMatrix<T>, b: &DenseMatrix<T>) -> DenseMatrix<T> {
    assert_eq!(a.ncols(), b.nrows(), "A and B incompatible");
    let mut c = DenseMatrix::zeros(a.nrows(), b.ncols());
    csrmm_rows(a, b, 0..a.nrows(), &mut c);
    c
}

/// Compute `C[i, :] = A[i, :] × B` for each listed row with the
/// register-tiled [`csrmm_row`]: [`CSRMM_TILE`] dense output columns per
/// pass over the sparse row, partial sums in a fixed-size array the
/// compiler keeps in registers, each element still accumulated in
/// ascending-`j` order. Rows not listed are left untouched (the
/// heterogeneous split visits each row exactly once across its disjoint
/// halves).
fn csrmm_rows<T: Scalar>(
    a: &CsrMatrix<T>,
    b: &DenseMatrix<T>,
    rows: impl IntoIterator<Item = usize>,
    c: &mut DenseMatrix<T>,
) {
    for i in rows {
        let (acols, avals) = a.row(i);
        csrmm_row(acols, avals, b, c.row_mut(i));
    }
}

/// Dense B-columns processed per A-row sweep by [`csrmm_row`].
const CSRMM_TILE: usize = 8;

/// Register-tiled `C[row] = Σ_j a_j * B[j]` over one sparse A-row.
///
/// Loop-interchanged: for each tile of [`CSRMM_TILE`] output columns the
/// sparse row is swept once with the tile's partial sums held in registers,
/// so B traffic is sequential within a tile and C is written exactly once.
/// Each output element still accumulates in ascending-`j` order starting
/// from `T::ZERO` — **bit-identical** to [`spmm_sparse::reference::csrmm`].
///
/// `out` must be `b.ncols()` long; its prior contents are overwritten.
fn csrmm_row<T: Scalar>(acols: &[ColIndex], avals: &[T], b: &DenseMatrix<T>, out: &mut [T]) {
    let ncols = b.ncols();
    assert_eq!(out.len(), ncols, "csrmm_row: output width");
    let bdata = b.data();
    let mut c0 = 0;
    while c0 + CSRMM_TILE <= ncols {
        let mut acc = [T::ZERO; CSRMM_TILE];
        for (&j, &aij) in acols.iter().zip(avals) {
            let brow = &bdata[j as usize * ncols + c0..][..CSRMM_TILE];
            for (a, &bv) in acc.iter_mut().zip(brow) {
                *a += aij * bv;
            }
        }
        out[c0..c0 + CSRMM_TILE].copy_from_slice(&acc);
        c0 += CSRMM_TILE;
    }
    // Remainder columns: same per-element j-order accumulation.
    for (c, o) in out.iter_mut().enumerate().skip(c0) {
        let mut acc = T::ZERO;
        for (&j, &aij) in acols.iter().zip(avals) {
            acc += aij * bdata[j as usize * ncols + c];
        }
        *o = acc;
    }
}

/// Result of a heterogeneous csrmm run.
#[derive(Debug, Clone)]
pub struct CsrmmOutput<T> {
    /// The dense product `C = A × B`.
    pub c: DenseMatrix<T>,
    /// Simulated timing (phase2 carries the overlapped compute).
    pub profile: PhaseBreakdown,
    /// Threshold splitting `A_H` from `A_L`.
    pub threshold: usize,
    /// Rows routed to the CPU.
    pub hd_rows: usize,
}

impl<T: Scalar> CsrmmOutput<T> {
    /// Total simulated wall time.
    pub fn total_ns(&self) -> SimNs {
        self.profile.total()
    }
}

/// Simulated cost of one candidate row split, charged against the given
/// devices. Shared between the empirical threshold search and the final
/// run so the search ranks candidates by exactly what the run will pay:
/// classification, the overlapped compute walls, and both link directions.
/// Degenerate splits skip what they don't need — an all-CPU split never
/// touches the link, and an all-GPU split ships no row mask.
fn split_sim<T: Scalar>(
    cpu: &mut spmm_hetsim::CpuDevice,
    gpu: &mut spmm_hetsim::GpuDevice,
    link: &spmm_hetsim::PciLink,
    a: &CsrMatrix<T>,
    b_ncols: usize,
    rows_h: &[usize],
    rows_l: &[usize],
) -> (PhaseTimes, PhaseTimes, SimNs) {
    let genuine_split = !rows_h.is_empty() && !rows_l.is_empty();
    let phase1 = PhaseTimes::new(
        cpu.threshold_scan_cost(a.nrows()),
        if genuine_split {
            gpu.boolean_mask_cost(a.nrows())
        } else {
            0.0
        },
    );
    let mut transfer_ns = if rows_l.is_empty() {
        0.0
    } else {
        // A, dense B, and (for a genuine split) the mask go to the GPU.
        let b_bytes = a.ncols() * b_ncols * 8;
        let mask_bytes = if genuine_split { a.nrows() } else { 0 };
        link.transfer_ns(a.byte_size() + b_bytes + mask_bytes)
    };
    let phase2 = PhaseTimes::new(
        cpu.csrmm_cost(a, b_ncols, rows_h.iter().copied()),
        gpu.csrmm_cost(a, b_ncols, rows_l.iter().copied()),
    );
    // The GPU's share of C returns over the link.
    transfer_ns += link.transfer_ns(rows_l.len() * b_ncols * 8);
    (phase1, phase2, transfer_ns)
}

/// Heterogeneous csrmm per §VI: `A_H × B` on CPU ∥ `A_L × B` on GPU.
pub fn hh_csrmm<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &DenseMatrix<T>,
    policy: ThresholdPolicy,
) -> CsrmmOutput<T> {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "A and B incompatible for multiplication"
    );
    ctx.reset();

    // Phase I equivalent: only A is classified (B is dense).
    let t = match policy {
        ThresholdPolicy::Fixed { t_a, .. } => t_a,
        // Both non-fixed policies run the empirical search over the csrmm
        // cost models (the paper's "identify t empirically" applied to its
        // §VI sketch): evaluate each power-of-two threshold on fresh
        // devices and keep the smallest end-to-end total. The ladder runs
        // one step past the largest row so the all-GPU endpoint is always
        // a candidate; on platforms where one device dominates, the search
        // degrades to that device instead of forcing a losing split.
        ThresholdPolicy::Balanced { .. } | ThresholdPolicy::Empirical { .. } => {
            let max_size = (0..a.nrows()).map(|i| a.row_nnz(i)).max().unwrap_or(0);
            let mut best = (f64::INFINITY, max_size + 1);
            let mut t = 1usize;
            loop {
                let mask = threshold::classify(a, t);
                let rows_h = rows_where(&mask, true);
                let rows_l = rows_where(&mask, false);
                let mut cpu = spmm_hetsim::CpuDevice::new(ctx.platform.cpu);
                let mut gpu = spmm_hetsim::GpuDevice::new(ctx.platform.gpu);
                let (p1, p2, tr) = split_sim(
                    &mut cpu,
                    &mut gpu,
                    &ctx.link,
                    a,
                    b.ncols(),
                    &rows_h,
                    &rows_l,
                );
                let total = p1.wall() + p2.wall() + tr;
                if total < best.0 {
                    best = (total, t);
                }
                if t > max_size {
                    break;
                }
                t *= 2;
            }
            best.1
        }
    };
    let mask = threshold::classify(a, t);
    let rows_h = rows_where(&mask, true);
    let rows_l = rows_where(&mask, false);
    let (phase1, phase2, transfer_ns) = split_sim(
        &mut ctx.cpu,
        &mut ctx.gpu,
        &ctx.link,
        a,
        b.ncols(),
        &rows_h,
        &rows_l,
    );

    // Real numeric result: the halves are row-disjoint, so each output row
    // is produced by exactly one kernel sweep.
    let mut c = DenseMatrix::zeros(a.nrows(), b.ncols());
    csrmm_rows(a, b, rows_h.iter().chain(&rows_l).copied(), &mut c);

    CsrmmOutput {
        c,
        profile: PhaseBreakdown {
            phase1,
            phase2,
            phase3: PhaseTimes::default(),
            phase4: PhaseTimes::default(),
            transfer_ns,
        },
        threshold: t,
        hd_rows: rows_h.len(),
    }
}

/// CPU-only csrmm baseline.
pub fn cpu_csrmm<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &DenseMatrix<T>,
) -> CsrmmOutput<T> {
    ctx.reset();
    let cpu_ns = ctx.cpu.csrmm_cost(a, b.ncols(), 0..a.nrows());
    let c = csrmm_compute(a, b);
    CsrmmOutput {
        c,
        profile: PhaseBreakdown {
            phase2: PhaseTimes::new(cpu_ns, 0.0),
            ..Default::default()
        },
        threshold: 0,
        hd_rows: a.nrows(),
    }
}

/// GPU-only csrmm baseline (pays PCIe both ways).
pub fn gpu_csrmm<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &DenseMatrix<T>,
) -> CsrmmOutput<T> {
    ctx.reset();
    let b_bytes = b.nrows() * b.ncols() * 8;
    let mut transfer_ns = ctx.link.transfer_ns(a.byte_size() + b_bytes);
    let gpu_ns = ctx.gpu.csrmm_cost(a, b.ncols(), 0..a.nrows());
    transfer_ns += ctx.link.transfer_ns(a.nrows() * b.ncols() * 8);
    let c = csrmm_compute(a, b);
    CsrmmOutput {
        c,
        profile: PhaseBreakdown {
            phase2: PhaseTimes::new(0.0, gpu_ns),
            transfer_ns,
            ..Default::default()
        },
        threshold: usize::MAX,
        hd_rows: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_scalefree::{scale_free_matrix, GeneratorConfig};

    fn inputs(n: usize, k: usize) -> (CsrMatrix<f64>, DenseMatrix<f64>) {
        let a = scale_free_matrix(&GeneratorConfig::square_power_law(n, n * 5, 2.3, 40));
        let data: Vec<f64> = (0..n * k).map(|i| (i % 17) as f64 * 0.25 - 2.0).collect();
        (a, DenseMatrix::from_row_major(n, k, data))
    }

    #[test]
    fn matches_reference_csrmm() {
        let mut ctx = HeteroContext::paper();
        let (a, b) = inputs(400, 16);
        let out = hh_csrmm(&mut ctx, &a, &b, ThresholdPolicy::default());
        let expected = spmm_sparse::reference::csrmm(&a, &b).unwrap();
        assert!(out.c.approx_eq(&expected, 1e-9, 1e-12));
    }

    #[test]
    fn tiled_kernel_is_bit_identical_to_reference() {
        // The tiled kernel keeps per-element j-order accumulation, so the
        // contract is exact bits, not a tolerance — across every baseline
        // and the split path, including ragged (non-multiple-of-8) widths.
        for k in [5, 8, 11, 16, 19, 24] {
            let mut ctx = HeteroContext::paper();
            let (a, b) = inputs(350, k);
            let expected = spmm_sparse::reference::csrmm(&a, &b).unwrap();
            let hh = hh_csrmm(&mut ctx, &a, &b, ThresholdPolicy::Fixed { t_a: 4, t_b: 4 });
            let cpu = cpu_csrmm(&mut ctx, &a, &b);
            let gpu = gpu_csrmm(&mut ctx, &a, &b);
            for c in [&hh.c, &cpu.c, &gpu.c] {
                assert_eq!(c.data().len(), expected.data().len());
                assert!(
                    c.data()
                        .iter()
                        .zip(expected.data())
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "tiled csrmm drifted from reference bits at width {k}"
                );
            }
        }
    }

    #[test]
    fn both_devices_participate_under_a_forced_split() {
        // §VI's work division: a fixed threshold routes hub rows to the
        // CPU and the long tail to the GPU, and both get charged.
        let mut ctx = HeteroContext::paper();
        let (a, b) = inputs(4_000, 32);
        let out = hh_csrmm(&mut ctx, &a, &b, ThresholdPolicy::Fixed { t_a: 8, t_b: 8 });
        assert!(out.profile.phase2.cpu_ns > 0.0);
        assert!(out.profile.phase2.gpu_ns > 0.0);
        assert!(out.hd_rows > 0 && out.hd_rows < a.nrows());
    }

    #[test]
    fn empirical_split_never_loses_to_a_single_device() {
        // csrmm is the regular, coalescing-friendly workload of §III-A, so
        // the K20c model outruns the i7-980 on the *entire* product at this
        // scale and no H/L division can win outright. The guarantee the
        // empirical search provides is graceful degradation: every split
        // including the all-GPU endpoint is ranked by its end-to-end total,
        // so hh can trail the best single device by at most the Phase I
        // classification it needed to reach that conclusion.
        let mut ctx = HeteroContext::scaled(16);
        let (a, b) = inputs(4_000, 32);
        let hh = hh_csrmm(&mut ctx, &a, &b, ThresholdPolicy::default());
        let cpu = cpu_csrmm(&mut ctx, &a, &b);
        let gpu = gpu_csrmm(&mut ctx, &a, &b);
        assert!(
            hh.profile.phase2.wall() < cpu.profile.phase2.wall(),
            "hh compute {} vs cpu {}",
            hh.profile.phase2.wall(),
            cpu.profile.phase2.wall()
        );
        let best_single = cpu.total_ns().min(gpu.total_ns());
        assert!(
            hh.total_ns() <= best_single + hh.profile.phase1.wall() + 1.0,
            "hh {} vs best single device {} + classification {}",
            hh.total_ns(),
            best_single,
            hh.profile.phase1.wall()
        );
    }

    #[test]
    fn fixed_threshold_is_respected() {
        let mut ctx = HeteroContext::paper();
        let (a, b) = inputs(300, 8);
        let out = hh_csrmm(&mut ctx, &a, &b, ThresholdPolicy::Fixed { t_a: 3, t_b: 3 });
        assert_eq!(out.threshold, 3);
        let expected_hd = (0..a.nrows()).filter(|&i| a.row_nnz(i) >= 3).count();
        assert_eq!(out.hd_rows, expected_hd);
    }
}
