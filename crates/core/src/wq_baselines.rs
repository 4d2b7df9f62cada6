//! The two workqueue-only baselines of §V-C.
//!
//! * **Algorithm Unsorted-Workqueue** — "the CPU and the GPU multiply
//!   independent and contiguous sets of rows of A with the rows of B …
//!   access the work-units from opposite ends of the workqueue." Dynamic
//!   load balance, no architecture matching.
//! * **Algorithm Sorted-Workqueue** — "we sort the rows of A according to
//!   their sizes, and then apply a workqueue model." Here the rows are
//!   sorted densest-first with the CPU at the dense end (the assignment
//!   most favourable to the baseline); it still loses to HH-CPU because
//!   every work-unit multiplies against *all* of B — no B-side split means
//!   no cache-blocked `B_H` working set for the CPU and no small-row-only
//!   `B_L` for the GPU.
//!
//! The paper finds HH-CPU ≈ 15% faster than either on scale-free inputs
//! (Figure 9).

pub use crate::units::WorkUnitConfig;

use spmm_sparse::{CsrMatrix, Scalar};

use spmm_hetsim::gpu::masked_output_widths_pooled;
use spmm_hetsim::{DeviceKind, PhaseBreakdown, PhaseTimes};
use spmm_workqueue::{End, RangeQueue};

use crate::context::HeteroContext;
use crate::result::SpmmOutput;
use crate::schedule::{self, ClaimSchedule, ExecPolicy, ScheduledClaim};

/// Algorithm Unsorted-Workqueue: double-ended dynamic balancing over the
/// natural row order.
pub fn unsorted_workqueue<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    units: WorkUnitConfig,
) -> SpmmOutput<T> {
    unsorted_workqueue_with(ctx, a, b, units, ExecPolicy::default())
}

/// [`unsorted_workqueue`] under an explicit executor policy.
pub fn unsorted_workqueue_with<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    units: WorkUnitConfig,
    exec: ExecPolicy,
) -> SpmmOutput<T> {
    let order: Vec<usize> = (0..a.nrows()).collect();
    workqueue_over_order(ctx, a, b, units, order, exec)
}

/// Algorithm Sorted-Workqueue: rows sorted ascending by size before
/// queueing. The CPU dequeues from the front and therefore receives the
/// *sparsest* rows while the GPU receives the densest — the natural
/// implementation of the paper's description, and exactly the "wrong work
/// to the wrong processor" assignment that §V-C says mere load balancing
/// cannot fix.
pub fn sorted_workqueue<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    units: WorkUnitConfig,
) -> SpmmOutput<T> {
    sorted_workqueue_with(ctx, a, b, units, ExecPolicy::default())
}

/// [`sorted_workqueue`] under an explicit executor policy.
pub fn sorted_workqueue_with<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    units: WorkUnitConfig,
    exec: ExecPolicy,
) -> SpmmOutput<T> {
    let mut order: Vec<usize> = (0..a.nrows()).collect();
    order.sort_by_key(|&i| a.row_nnz(i));
    workqueue_over_order(ctx, a, b, units, order, exec)
}

/// Shared engine: event-driven double-ended claiming of `order` chunks,
/// CPU from the front, GPU from the back. The claim loop only *plans* —
/// it records each claim's rows and simulated cost — and the numeric work
/// runs afterwards in one batched pass over the recorded schedule.
fn workqueue_over_order<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    units: WorkUnitConfig,
    order: Vec<usize>,
    exec: ExecPolicy,
) -> SpmmOutput<T> {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "A and B incompatible for multiplication"
    );
    ctx.reset();
    let upload = if std::ptr::eq(a, b) {
        a.byte_size()
    } else {
        a.byte_size() + b.byte_size()
    };
    let transfer_ns = ctx.link.transfer_ns(upload);

    // GPU claims are costed against memoized masked output widths — the
    // unmasked table covers every row once, instead of a width pass per
    // claim.
    let w_full = masked_output_widths_pooled(a, b, None, &ctx.pool, &ctx.workspaces);

    let queue = RangeQueue::new(order.len());
    let mut cpu_clock = 0.0f64;
    let mut gpu_clock = 0.0f64;
    let mut cpu_claims: Vec<ScheduledClaim<'_>> = Vec::new();
    let mut gpu_claims: Vec<ScheduledClaim<'_>> = Vec::new();
    loop {
        let cpu_turn = cpu_clock <= gpu_clock;
        let (end, grain) = if cpu_turn {
            (End::Front, units.cpu_rows)
        } else {
            (End::Back, units.gpu_rows)
        };
        let Some(range) = queue.claim(end, grain) else {
            break;
        };
        let rows = &order[range];
        if cpu_turn {
            let ns = ctx.cpu.spmm_cost(a, b, rows.iter().copied(), None);
            cpu_clock += ns;
            cpu_claims.push(ScheduledClaim {
                device: DeviceKind::Cpu,
                rows,
                b_mask: None,
                sim_ns: ns,
            });
        } else {
            let ns = ctx
                .gpu
                .spmm_cost_planned(a, b, rows.iter().copied(), None, &w_full);
            gpu_clock += ns;
            gpu_claims.push(ScheduledClaim {
                device: DeviceKind::Gpu,
                rows,
                b_mask: None,
                sim_ns: ns,
            });
        }
    }
    let compute = PhaseTimes::new(cpu_clock, gpu_clock);

    // Execute in block order: CPU claims first, then GPU claims — the order
    // the pre-split code concatenated its RowBlocks.
    let mut claims = cpu_claims;
    claims.append(&mut gpu_claims);
    let sched = ClaimSchedule { claims };
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
    let cpu_count = counts.cpu_entries;
    let transfer_ns = transfer_ns + ctx.link.transfer_ns(gpu_count * 16);
    let tuples_merged = cpu_count + gpu_count;
    let merge = PhaseTimes::new(
        ctx.cpu.merge_cost(tuples_merged),
        ctx.gpu.merge_cost(gpu_count),
    );

    SpmmOutput {
        c,
        profile: PhaseBreakdown {
            phase1: PhaseTimes::default(),
            phase2: PhaseTimes::default(),
            phase3: compute,
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
    fn unsorted_matches_reference() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(700, 3_500, 2.3, 20);
        let out = unsorted_workqueue(&mut ctx, &a, &a, WorkUnitConfig::auto(a.nrows()));
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        assert!(out.c.approx_eq(&expected, 1e-9, 1e-12));
    }

    #[test]
    fn sorted_matches_reference() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(700, 3_500, 2.3, 21);
        let out = sorted_workqueue(&mut ctx, &a, &a, WorkUnitConfig::auto(a.nrows()));
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        assert!(out.c.approx_eq(&expected, 1e-9, 1e-12));
    }

    #[test]
    fn queue_keeps_devices_balanced() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(8_000, 48_000, 2.2, 22);
        let out = unsorted_workqueue(&mut ctx, &a, &a, WorkUnitConfig::auto(a.nrows()));
        let p = out.profile.phase3;
        assert!(p.cpu_ns > 0.0 && p.gpu_ns > 0.0, "both devices must work");
        // the queue balances up to the cost of the final claims; a claim
        // holding a dense row can be expensive (a single warp carries a
        // whole row — exactly the §V-C weakness of these baselines), so the
        // bound here is loose
        assert!(
            p.imbalance() / p.wall() < 0.5,
            "dynamic queue imbalance too large: {}",
            p.imbalance() / p.wall()
        );
    }

    #[test]
    fn hhcpu_beats_both_on_scale_free_input() {
        // The Figure 9 claim: HH-CPU ≈ 15% faster on average than either
        // workqueue baseline on scale-free matrices.
        let mut ctx = HeteroContext::paper();
        let a = scale_free(12_000, 96_000, 2.1, 23);
        let units = WorkUnitConfig::auto(a.nrows());
        let hh = crate::hh_cpu(&mut ctx, &a, &a, &crate::HhCpuConfig::default());
        let uns = unsorted_workqueue(&mut ctx, &a, &a, units);
        let srt = sorted_workqueue(&mut ctx, &a, &a, units);
        assert!(
            hh.speedup_over(&uns) > 1.0,
            "HH-CPU vs unsorted: {}",
            hh.speedup_over(&uns)
        );
        assert!(
            hh.speedup_over(&srt) > 1.0,
            "HH-CPU vs sorted: {}",
            hh.speedup_over(&srt)
        );
    }
}
