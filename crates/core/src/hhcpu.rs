//! Algorithm HH-CPU (the paper's Algorithm 1).

use std::sync::OnceLock;

use spmm_sparse::{CsrMatrix, Scalar};

use spmm_hetsim::gpu::{masked_output_widths_for_pooled, masked_output_widths_pooled};
use spmm_hetsim::{DeviceKind, PhaseBreakdown, PhaseTimes};
use spmm_workqueue::{End, RangeQueue};

use crate::context::HeteroContext;
use crate::kernels::rows_where;
use crate::result::SpmmOutput;
use crate::schedule::{self, ClaimSchedule, ExecPolicy, ScheduledClaim};
use crate::threshold::{self, Phase1Plan, ThresholdPolicy};
use crate::units::WorkUnitConfig;

/// Configuration of one HH-CPU run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HhCpuConfig {
    /// Phase I threshold policy.
    pub policy: ThresholdPolicy,
    /// Phase III work-unit sizes; `None` ⇒ scale with the matrix
    /// ([`WorkUnitConfig::auto`]).
    pub units: Option<WorkUnitConfig>,
    /// Which executor runs the scheduled numeric work.
    pub exec: ExecPolicy,
}

impl HhCpuConfig {
    /// Fixed equal thresholds for both matrices (the Figure 8 sweep).
    pub fn with_threshold(t: usize) -> Self {
        Self {
            policy: ThresholdPolicy::Fixed { t_a: t, t_b: t },
            ..Self::default()
        }
    }
}

/// Everything Phase I computes for one `(A, B, policy)` triple that is
/// worth keeping across repeated multiplies of the same operands: the
/// [`Phase1Plan`] (thresholds, Boolean masks, symbolic row-size structures)
/// and the masked GPU width tables. Building this is the dominant
/// non-numeric cost of a run — the empirical threshold search alone
/// evaluates the full device cost models once per ladder candidate — so a
/// serve layer caches it keyed by content hash and hands warm requests to
/// [`hh_cpu_with_artifacts`], which is bit-identical to a cold [`hh_cpu`]
/// by construction (it runs exactly the same code on the same values; only
/// the wall-clock work of *recomputing* them is skipped).
#[derive(Debug)]
pub struct SpmmArtifacts {
    /// The threshold policy the plan was built under (cache-key sanity).
    pub policy: ThresholdPolicy,
    /// Thresholds, Boolean masks, and symbolic structures.
    pub plan: Phase1Plan,
    /// GPU output-width table under the `B_L` mask (all A rows) — serves
    /// the Phase II `A_L × B_L` product and the GPU's `A_H × B_L` claims.
    pub w_low: Vec<u32>,
    /// Width table under the `B_H` mask, restricted to `A_L` rows. Only
    /// needed when the GPU drains the CPU's queue end, so it is built
    /// lazily on first use and memoised here for later warm runs.
    w_high: OnceLock<Vec<u32>>,
}

impl SpmmArtifacts {
    /// Run Phase I and build the eager width table — the cold-path work
    /// that [`hh_cpu`] performs on every call and a serve layer performs
    /// once per `(A, B, policy)`.
    pub fn build<T: Scalar>(
        ctx: &HeteroContext,
        a: &CsrMatrix<T>,
        b: &CsrMatrix<T>,
        policy: ThresholdPolicy,
    ) -> Self {
        let plan = threshold::identify_plan(ctx, a, b, policy);
        let b_low: Vec<bool> = plan.thresholds.b_high.iter().map(|&h| !h).collect();
        let w_low = masked_output_widths_pooled(a, b, Some(&b_low), &ctx.pool, &ctx.workspaces);
        Self {
            policy,
            plan,
            w_low,
            w_high: OnceLock::new(),
        }
    }

    /// Derive the artifacts for one contiguous row band of A, given the
    /// band materialized by [`CsrMatrix::row_band`] over the same range.
    ///
    /// This is the sharding contract's load-bearing move: Phase I ran
    /// *once* on the full operands, and every band inherits the global
    /// thresholds, the global `B` classification, and its slice of the
    /// global `A` masks and GPU width tables. Because every downstream
    /// decision that touches C's *bits* (which mask covers which row, how
    /// rows merge) depends only on the row's own content plus these global
    /// masks, a band run with sliced artifacts produces rows bit-identical
    /// to the monolithic run — re-running Phase I per band would not
    /// (per-band thresholds would reclassify rows).
    ///
    /// The `w_high` table is deliberately *not* sliced: it is lazily built
    /// over `A_L` rows on first GPU drain of the CPU queue end, and each
    /// band memoises its own on demand from the same deterministic
    /// computation.
    pub fn for_row_band<T: Scalar>(
        &self,
        rows: std::ops::Range<usize>,
        band: &CsrMatrix<T>,
    ) -> SpmmArtifacts {
        assert_eq!(
            band.nrows(),
            rows.len(),
            "band matrix must cover exactly the requested rows"
        );
        let th = &self.plan.thresholds;
        assert!(rows.end <= th.a_high.len(), "band range exceeds A");
        let plan = Phase1Plan {
            thresholds: threshold::Thresholds {
                t_a: th.t_a,
                t_b: th.t_b,
                a_high: th.a_high[rows.clone()].to_vec(),
                b_high: th.b_high.clone(),
            },
            sym_a: threshold::SymbolicStructure::from_matrix(band),
            sym_b: Some(self.plan.sym_b().clone()),
        };
        SpmmArtifacts {
            policy: self.policy,
            plan,
            w_low: self.w_low[rows].to_vec(),
            w_high: OnceLock::new(),
        }
    }

    /// Approximate heap footprint, for serve-layer cache accounting.
    pub fn byte_size(&self) -> usize {
        let plan = &self.plan;
        let masks = plan.thresholds.a_high.len() + plan.thresholds.b_high.len();
        let syms = plan.sym_a.byte_size() + plan.sym_b.as_ref().map_or(0, |s| s.byte_size());
        let widths = (self.w_low.len() + self.w_high.get().map_or(0, Vec::len)) * 4;
        masks + syms + widths + std::mem::size_of::<Self>()
    }
}

/// Run Algorithm HH-CPU: `C = A × B` with the four-way split of §III.
///
/// Devices start cold (`ctx.reset()` is called), the numeric result is
/// exact (tested against the Gustavson reference), and the returned
/// profile carries the simulated per-phase times of the platform model.
pub fn hh_cpu<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    config: &HhCpuConfig,
) -> SpmmOutput<T> {
    let artifacts = SpmmArtifacts::build(ctx, a, b, config.policy);
    hh_cpu_with_artifacts(ctx, a, b, config, &artifacts)
}

/// [`hh_cpu`] against precomputed Phase-I artifacts: the warm path of the
/// serve layer. The run is bit-identical to a cold [`hh_cpu`] on the same
/// operands — same `C`, same [`PhaseBreakdown`] (Phase I's *simulated*
/// cost is still charged; only the host-side recomputation is skipped),
/// same thresholds — because Phase I is deterministic in `(A, B, policy)`
/// and everything after it consumes the plan by value.
///
/// The caller is responsible for passing artifacts built for these exact
/// operands and `config.policy` (a content-hash-keyed cache makes that
/// structural); the policy is cross-checked as a cheap guard.
pub fn hh_cpu_with_artifacts<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    config: &HhCpuConfig,
    artifacts: &SpmmArtifacts,
) -> SpmmOutput<T> {
    assert_eq!(
        a.ncols(),
        b.nrows(),
        "A and B incompatible for multiplication"
    );
    assert_eq!(
        artifacts.policy, config.policy,
        "artifacts were built under a different threshold policy"
    );
    ctx.reset();

    // ---- Phase I: thresholds + Boolean row classification, from the
    // (possibly cached) plan. The plan keeps the symbolic row-size
    // structures, so every Phase III mean and nnz total below is a
    // prefix-sum lookup, not a CSR rescan. ----
    let plan = &artifacts.plan;
    let th = &plan.thresholds;
    let phase1 = PhaseTimes::new(
        ctx.cpu.threshold_scan_cost(a.nrows() + b.nrows()),
        // the Boolean array is computed on the GPU from the row sizes
        ctx.gpu.boolean_mask_cost(a.nrows() + b.nrows()),
    );
    // row sizes up (4 B each), then A and B entirely ("we don't split the
    // matrices physically", §IV-A), plus the Boolean arrays down (1 B per
    // row); the self-product A × A ships its matrix *and* its per-row
    // arrays exactly once
    let (matrix_bytes, row_meta_bytes) = if std::ptr::eq(a, b) {
        (a.byte_size(), a.nrows() * 5)
    } else {
        (a.byte_size() + b.byte_size(), (a.nrows() + b.nrows()) * 5)
    };
    let mut transfer_ns = ctx.link.transfer_ns(row_meta_bytes + matrix_bytes);

    let b_low: Vec<bool> = th.b_high.iter().map(|&h| !h).collect();
    let rows_ah = rows_where(&th.a_high, true);
    let rows_al = rows_where(&th.a_high, false);
    // Work-unit grains: the paper's fixed 1000/10000 rows at full scale, or
    // sized to the actual H/L row lists so the queue always holds enough
    // units for the endgame to balance (the last unit bounds the final
    // clock gap between the devices).
    let units = config
        .units
        .unwrap_or_else(|| WorkUnitConfig::adaptive(rows_al.len(), rows_ah.len()));

    // Width tables for the planned GPU costing: the B_L table serves the
    // Phase II product (A_L rows) and the GPU's A_H × B_L claims — all A
    // rows together — so it was built eagerly (across the host pool) with
    // the artifacts. The B_H table only matters if the GPU drains the
    // CPU's queue end, and then only for A_L rows, so it is built lazily,
    // restricted, and memoised on the artifacts for later warm runs.
    let w_low = &artifacts.w_low;

    // ---- Phase II: A_H × B_H on CPU ∥ A_L × B_L on GPU. The CPU side
    // runs the cache-blocked kernel of §III-B (B_H tiled through L2). ----
    let cpu2 = ctx
        .cpu
        .spmm_cost_blocked(a, b, rows_ah.iter().copied(), Some(&th.b_high));
    let gpu2 = ctx
        .gpu
        .spmm_cost_planned(a, b, rows_al.iter().copied(), Some(&b_low), w_low);
    let phase2 = PhaseTimes::new(cpu2, gpu2);

    // ---- Phase III: A_L × B_H and A_H × B_L through the double-ended
    // workqueue (§III-C): "on the CPU end of the queue, we fill the queue
    // with work-units corresponding to the product A_L × B_H and on the
    // GPU end … A_H × B_L"; a device moves to the other product only
    // "after finishing" its own. Work-unit sizes follow §IV-B, converted
    // from the paper's row counts into a nonzero budget so a claim of
    // dense A_H rows is as small (in rows) as it is heavy (per row). The
    // simulation is event-driven: whichever device's clock is behind
    // claims next, so the clocks stay near-equal — the load balance the
    // queue exists for. ----
    let hd_b = th.hd_rows_b();
    let ld_b = b.nrows() - hd_b;
    // Means and totals from the Phase I prefix sums: integer sums over the
    // same row sets the old CSR walks covered, so every derived f64 is
    // bit-identical — one binary search instead of an O(rows) rescan.
    let sym_a = &plan.sym_a;
    let mean_al = if rows_al.is_empty() {
        0.0
    } else {
        sym_a.ld_nnz(th.t_a) as f64 / rows_al.len() as f64
    };
    let mean_ah = if rows_ah.is_empty() {
        0.0
    } else {
        sym_a.hd_nnz(th.t_a) as f64 / rows_ah.len() as f64
    };
    // The CPU's A_L × B_H work is one cache-blocked tiling pass shared by
    // all of its claims (consecutive rows off the same end continue the
    // pass), so the pass is costed once and claims are charged their nnz
    // share of it.
    let lh_nnz: f64 = sym_a.ld_nnz(th.t_a) as f64;
    // Per-claim nnz shares come from one prefix-sum array over the A_L
    // list (claims are contiguous ranges of it).
    let mut al_prefix: Vec<u64> = Vec::with_capacity(rows_al.len() + 1);
    al_prefix.push(0);
    for &i in &rows_al {
        al_prefix.push(al_prefix.last().unwrap() + sym_a.row_size(i) as u64);
    }
    let lh_blocked_total = if hd_b > 0 && !rows_al.is_empty() {
        ctx.cpu
            .spmm_cost_blocked(a, b, rows_al.iter().copied(), Some(&th.b_high))
    } else {
        0.0
    };
    // structurally-zero products are not enqueued at all
    let lh_queue = RangeQueue::new(if hd_b > 0 { rows_al.len() } else { 0 });
    let hl_queue = RangeQueue::new(if ld_b > 0 { rows_ah.len() } else { 0 });
    let cpu_claim_nnz = (units.cpu_rows as f64 * mean_al).max(1.0);
    let gpu_claim_nnz = (units.gpu_rows as f64 * mean_ah).max(1.0);
    let grain = |claim_nnz: f64, mean: f64| ((claim_nnz / mean.max(1.0)) as usize).max(1);

    let mut cpu_claims: Vec<ScheduledClaim<'_>> = Vec::new();
    let mut gpu_claims: Vec<ScheduledClaim<'_>> = Vec::new();
    let mut cpu_clock = 0.0f64;
    let mut gpu_clock = 0.0f64;
    loop {
        let cpu_turn = cpu_clock <= gpu_clock;
        // own product first, then help the other end
        let claim = if cpu_turn {
            lh_queue
                .claim(End::Front, grain(cpu_claim_nnz, mean_al))
                .map(|r| (r, false))
                .or_else(|| {
                    hl_queue
                        .claim(End::Front, grain(cpu_claim_nnz, mean_ah))
                        .map(|r| (r, true))
                })
        } else {
            hl_queue
                .claim(End::Back, grain(gpu_claim_nnz, mean_ah))
                .map(|r| (r, true))
                .or_else(|| {
                    lh_queue
                        .claim(End::Back, grain(gpu_claim_nnz, mean_al))
                        .map(|r| (r, false))
                })
        };
        let Some((piece, high_rows)) = claim else {
            break;
        };
        let (rows, b_mask): (&[usize], &[bool]) = if high_rows {
            (&rows_ah[piece.clone()], &b_low)
        } else {
            (&rows_al[piece.clone()], &th.b_high)
        };
        if cpu_turn {
            // B_H-side products stay cache-blocked on the CPU (the claim's
            // share of the single tiling pass); when the CPU helps with
            // the GPU end (A_H × B_L) the B operand is scattered and the
            // streaming kernel is the right model.
            let ns = if high_rows {
                ctx.cpu.spmm_cost(a, b, rows.iter().copied(), Some(b_mask))
            } else {
                let piece_nnz = (al_prefix[piece.end] - al_prefix[piece.start]) as f64;
                lh_blocked_total * piece_nnz / lh_nnz.max(1.0)
            };
            cpu_clock += ns;
            cpu_claims.push(ScheduledClaim {
                device: DeviceKind::Cpu,
                rows,
                b_mask: Some(b_mask),
                sim_ns: ns,
            });
        } else {
            let ns = if high_rows {
                ctx.gpu
                    .spmm_cost_planned(a, b, rows.iter().copied(), Some(b_mask), w_low)
            } else {
                let w = artifacts.w_high.get_or_init(|| {
                    masked_output_widths_for_pooled(
                        a,
                        b,
                        Some(&th.b_high),
                        &rows_al,
                        &ctx.pool,
                        &ctx.workspaces,
                    )
                });
                ctx.gpu
                    .spmm_cost_planned(a, b, rows.iter().copied(), Some(b_mask), w)
            };
            gpu_clock += ns;
            gpu_claims.push(ScheduledClaim {
                device: DeviceKind::Gpu,
                rows,
                b_mask: Some(b_mask),
                sim_ns: ns,
            });
        }
    }
    let phase3 = PhaseTimes::new(cpu_clock, gpu_clock);

    // ---- Execute: all scheduled numeric work in one batched pass (or the
    // per-claim reference, per `config.exec`). Claims go in block order —
    // each device's Phase II product first, then its Phase III claims in
    // claim order — exactly the order the pre-split code pushed its
    // RowBlocks, which fixes the merge's floating-point summation. ----
    let mut claims = Vec::with_capacity(2 + cpu_claims.len() + gpu_claims.len());
    claims.push(ScheduledClaim {
        device: DeviceKind::Cpu,
        rows: &rows_ah,
        b_mask: Some(&th.b_high),
        sim_ns: cpu2,
    });
    claims.extend(cpu_claims);
    claims.push(ScheduledClaim {
        device: DeviceKind::Gpu,
        rows: &rows_al,
        b_mask: Some(&b_low),
        sim_ns: gpu2,
    });
    claims.extend(gpu_claims);
    let sched = ClaimSchedule { claims };
    let (c, counts) = schedule::execute(
        a,
        b,
        &sched,
        (a.nrows(), b.ncols()),
        &ctx.pool,
        &ctx.workspaces,
        config.exec,
    );

    // ---- Phase IV: merge. The GPU pre-merges its own tuples while the CPU
    // performs the full combine (results are "merged together and stored on
    // the CPU", §III-D); the GPU's partials come down over the link. The
    // simulated devices still pay the paper's sort-based recipe per stored
    // entry (claim nnz == accumulator insertions == tuples), but the host
    // combined the claims with the per-row merge of the executor. ----
    let cpu_entries = counts.cpu_entries;
    let gpu_entries = counts.gpu_entries;
    transfer_ns += ctx.link.transfer_ns(gpu_entries * 16);
    let tuples_merged = cpu_entries + gpu_entries;
    let phase4 = PhaseTimes::new(
        ctx.cpu.merge_cost(tuples_merged),
        ctx.gpu.merge_cost(gpu_entries),
    );

    SpmmOutput {
        c,
        profile: PhaseBreakdown {
            phase1,
            phase2,
            phase3,
            phase4,
            transfer_ns,
        },
        threshold_a: th.t_a,
        threshold_b: th.t_b,
        hd_rows_a: th.hd_rows_a(),
        hd_rows_b: th.hd_rows_b(),
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
    fn product_matches_reference_on_scale_free_input() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(800, 4_000, 2.3, 1);
        let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        assert!(
            out.c.approx_eq(&expected, 1e-9, 1e-12),
            "HH-CPU result diverged"
        );
    }

    #[test]
    fn product_matches_reference_for_distinct_a_and_b() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(500, 2_500, 2.2, 7);
        let b = scale_free(500, 3_000, 3.0, 8);
        let out = hh_cpu(&mut ctx, &a, &b, &HhCpuConfig::default());
        let expected = reference::spmm_rowrow(&a, &b).unwrap();
        assert!(out.c.approx_eq(&expected, 1e-9, 1e-12));
    }

    #[test]
    fn fixed_threshold_zero_routes_everything_to_cpu() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(400, 2_000, 2.5, 3);
        let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::with_threshold(0));
        // t=0 ⇒ all rows high ⇒ GPU does nothing in Phases II and III
        assert_eq!(out.profile.phase2.gpu_ns, 0.0);
        assert_eq!(out.profile.phase3.gpu_ns, 0.0);
        assert!(out.profile.phase2.cpu_ns > 0.0);
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        assert!(out.c.approx_eq(&expected, 1e-9, 1e-12));
    }

    #[test]
    fn threshold_above_max_degenerates_to_gpu_only() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(400, 2_000, 2.5, 4);
        let t = a.max_row_nnz() + 1;
        let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::with_threshold(t));
        assert_eq!(out.profile.phase2.cpu_ns, 0.0);
        assert_eq!(out.hd_rows_a, 0);
        let expected = reference::spmm_rowrow(&a, &a).unwrap();
        assert!(out.c.approx_eq(&expected, 1e-9, 1e-12));
    }

    #[test]
    fn phase3_clocks_are_balanced() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(6_000, 40_000, 2.2, 5);
        let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
        let p3 = out.profile.phase3;
        if p3.cpu_ns > 0.0 && p3.gpu_ns > 0.0 {
            // the event-driven queue should keep the devices within one
            // work-unit of each other ("the difference between the GPU and
            // the CPU runtime within each phase is on average under 2% of
            // the overall runtime", §V-B b)
            let imbalance = p3.imbalance() / out.total_ns();
            assert!(imbalance < 0.15, "phase 3 imbalance {imbalance}");
        }
    }

    #[test]
    fn phases_two_and_three_dominate() {
        // On the scale-matched platform the compute phases dominate, as in
        // the paper's Figure 7 (≥ 96% at full scale; the reduced-scale
        // bound here is looser because Phase IV's linear-time merge shrinks
        // more slowly than the superlinear flop count).
        let mut ctx = HeteroContext::scaled(16);
        let a = scale_free(12_000, 120_000, 2.1, 9);
        let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
        assert!(
            out.profile.compute_fraction() > 0.6,
            "phases II+III should dominate, fraction = {}",
            out.profile.compute_fraction()
        );
    }

    #[test]
    fn deterministic_given_same_inputs() {
        let a = scale_free(700, 3_500, 2.4, 6);
        let mut ctx = HeteroContext::paper();
        let o1 = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
        let o2 = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
        assert_eq!(o1.total_ns(), o2.total_ns());
        assert_eq!(o1.c, o2.c);
        assert_eq!(o1.threshold_a, o2.threshold_a);
    }

    #[test]
    fn reused_artifacts_are_bit_identical_to_cold_runs() {
        // the serve layer's warm path: one SpmmArtifacts build, many runs —
        // every run must match a cold hh_cpu bit for bit
        let mut ctx = HeteroContext::paper();
        let a = scale_free(600, 3_000, 2.3, 11);
        let config = HhCpuConfig::default();
        let cold = hh_cpu(&mut ctx, &a, &a, &config);
        let artifacts = SpmmArtifacts::build(&ctx, &a, &a, config.policy);
        for _ in 0..2 {
            let warm = hh_cpu_with_artifacts(&mut ctx, &a, &a, &config, &artifacts);
            assert_eq!(warm.c, cold.c);
            assert_eq!(warm.profile, cold.profile);
            assert_eq!(warm.threshold_a, cold.threshold_a);
            assert_eq!(warm.threshold_b, cold.threshold_b);
            assert_eq!(warm.tuples_merged, cold.tuples_merged);
        }
        assert!(artifacts.byte_size() > 0);
    }

    #[test]
    #[should_panic(expected = "different threshold policy")]
    fn mismatched_artifact_policy_is_rejected() {
        let mut ctx = HeteroContext::paper();
        let a = scale_free(200, 1_000, 2.5, 12);
        let artifacts =
            SpmmArtifacts::build(&ctx, &a, &a, ThresholdPolicy::Fixed { t_a: 4, t_b: 4 });
        hh_cpu_with_artifacts(&mut ctx, &a, &a, &HhCpuConfig::default(), &artifacts);
    }

    #[test]
    fn tuples_merged_bounded_by_output_and_flops() {
        // in-kernel accumulation: between nnz(C) (everything merged in one
        // product) and flops (no accumulation at all)
        let mut ctx = HeteroContext::paper();
        let a = scale_free(300, 1_500, 2.6, 2);
        let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
        assert!(out.tuples_merged >= out.c.nnz());
        assert!((out.tuples_merged as u64) <= reference::flops(&a, &a));
    }
}
