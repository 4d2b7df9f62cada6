//! The candidate-parallel Phase-I search is a wall-clock optimisation
//! only: the picked thresholds, the Boolean classifications, and the raw
//! `estimate_ladder_with` floats must be bit-identical for every host
//! thread count, across seeds, and for the A ≠ B case.

use hetero_spmm::core::threshold::{estimate_ladder_with, identify};
use hetero_spmm::core::SymbolicStructure;
use hetero_spmm::prelude::*;

fn matrix(n: usize, nnz: usize, seed: u64) -> CsrMatrix<f64> {
    scale_free_matrix(&GeneratorConfig::square_power_law(n, nnz, 2.2, seed))
}

/// Phase II + Phase III walls of the dry run at threshold `t`.
fn estimate(ctx: &HeteroContext, a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, t: usize) -> f64 {
    let (sym_a, sym_b) = (
        SymbolicStructure::from_matrix(a),
        SymbolicStructure::from_matrix(b),
    );
    let (p2, p3) = estimate_ladder_with(ctx, a, b, &[t], &sym_a, &sym_b)[0];
    p2 + p3
}

fn assert_same_pick(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, scale: usize) {
    let policy = ThresholdPolicy::Empirical { candidates: 10 };
    let baseline = {
        let ctx = HeteroContext::scaled(scale).with_host_threads(1);
        identify(&ctx, a, b, policy)
    };
    for threads in [2, 8] {
        let ctx = HeteroContext::scaled(scale).with_host_threads(threads);
        let got = identify(&ctx, a, b, policy);
        assert_eq!(got, baseline, "thread count {threads} changed the pick");
        // the estimate at the picked threshold must be the same f64, bit
        // for bit — the dry run uses fresh devices per candidate, so
        // scheduling can never leak into the simulated nanoseconds
        let est1 = {
            let c1 = HeteroContext::scaled(scale).with_host_threads(1);
            estimate(&c1, a, b, baseline.t_a)
        };
        let est = estimate(&ctx, a, b, got.t_a);
        assert_eq!(est1.to_bits(), est.to_bits(), "estimate drifted");
    }
}

#[test]
fn empirical_pick_is_invariant_under_host_threads() {
    for seed in [3, 7, 11] {
        let a = matrix(3_000, 21_000, seed);
        assert_same_pick(&a, &a, 32);
    }
}

#[test]
fn empirical_pick_is_invariant_for_distinct_inputs() {
    // A and B with different row-size profiles: the ladder must span the
    // denser of the two, and the pick must still be schedule-free
    let a = matrix(2_000, 10_000, 5);
    let b = matrix(2_000, 30_000, 6);
    assert_same_pick(&a, &b, 32);
    assert_same_pick(&b, &a, 32);
}

#[test]
fn empirical_pick_is_invariant_on_catalog_clones() {
    for name in ["wiki-Vote", "email-Enron"] {
        let a = Dataset::by_name(name).unwrap().load::<f64>(32);
        assert_same_pick(&a, &a, 32);
    }
}

#[test]
fn full_run_is_invariant_under_host_threads() {
    // end to end: same product, same simulated profile, any thread count
    let a = matrix(3_000, 21_000, 9);
    let cfg = HhCpuConfig::default();
    let mut base_ctx = HeteroContext::scaled(32).with_host_threads(1);
    let base = hh_cpu(&mut base_ctx, &a, &a, &cfg);
    for threads in [2, 8] {
        let mut ctx = HeteroContext::scaled(32).with_host_threads(threads);
        let out = hh_cpu(&mut ctx, &a, &a, &cfg);
        assert_eq!(out.c, base.c);
        assert_eq!(out.profile.walls(), base.profile.walls());
        assert_eq!(
            out.profile.total().to_bits(),
            base.profile.total().to_bits()
        );
    }
}
