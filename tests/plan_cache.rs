//! The Phase II/III plan is simulated once and kept on the artifacts.
//!
//! `SpmmArtifacts::build` keeps the plan of the chosen thresholds — under
//! the empirical policy the winning ladder candidate's own dry run — and a
//! warm `hh_cpu_with_artifacts` replays it instead of simulating again.
//! These tests pin, on every Table I clone at 1/32 under every policy for
//! `A = A` and `A ≠ B`:
//!
//! - the kept plan equals a fresh `simulate_phases` of the same thresholds
//!   (claims, simulated-ns bits, clocks);
//! - a warm run equals a cold `hh_cpu` in C, `PhaseBreakdown` bits,
//!   thresholds and `tuples_merged`;
//! - a sharded run against the same artifacts, which executes the kept
//!   plan band by band, replies exactly what the monolithic run does.

use hetero_spmm::core::threshold::{self, PhasePlan};
use hetero_spmm::core::{
    hh_cpu, hh_cpu_sharded_with_artifacts, hh_cpu_with_artifacts, HeteroContext, HhCpuConfig,
    ShardConfig, SpmmArtifacts, SpmmOutput, ThresholdPolicy,
};
use hetero_spmm::hetsim::PhaseBreakdown;
use hetero_spmm::parallel::ThreadPool;
use hetero_spmm::scalefree::{scale_free_matrix, Dataset, GeneratorConfig};
use hetero_spmm::sparse::CsrMatrix;

const POLICIES: [ThresholdPolicy; 3] = [
    ThresholdPolicy::Empirical { candidates: 10 },
    ThresholdPolicy::Balanced { candidates: 16 },
    ThresholdPolicy::Fixed { t_a: 6, t_b: 9 },
];

type Operands = (&'static str, usize, CsrMatrix<f64>, CsrMatrix<f64>);

/// Every Table I clone at 1/32 with its platform scale and a distinct B of
/// the same shape.
fn clones() -> Vec<Operands> {
    clones_of(Dataset::all())
}

/// A few clones with different row-size laws, for the cases that re-run
/// the whole product per variant.
fn some_clones() -> Vec<Operands> {
    let names = ["wiki-Vote", "web-Google", "cop20kA"];
    clones_of(
        names
            .map(|n| Dataset::by_name(n).expect("catalog name"))
            .to_vec(),
    )
}

fn clones_of(datasets: Vec<Dataset>) -> Vec<Operands> {
    datasets
        .into_iter()
        .map(|d| {
            let a = d.load::<f64>(32);
            let b = scale_free_matrix(&GeneratorConfig::square_power_law(
                a.nrows(),
                a.nnz(),
                2.3,
                17,
            ));
            (d.entry().name, d.effective_scale(32), a, b)
        })
        .collect()
}

fn profile_bits(p: &PhaseBreakdown) -> [u64; 9] {
    [
        p.phase1.cpu_ns,
        p.phase1.gpu_ns,
        p.phase2.cpu_ns,
        p.phase2.gpu_ns,
        p.phase3.cpu_ns,
        p.phase3.gpu_ns,
        p.phase4.cpu_ns,
        p.phase4.gpu_ns,
        p.transfer_ns,
    ]
    .map(f64::to_bits)
}

fn assert_same_run(got: &SpmmOutput<f64>, want: &SpmmOutput<f64>, what: &str) {
    assert_eq!(got.c, want.c, "{what}: C diverged");
    assert_eq!(
        got.c.content_hash(),
        want.c.content_hash(),
        "{what}: C value bits diverged"
    );
    assert_eq!(
        profile_bits(&got.profile),
        profile_bits(&want.profile),
        "{what}: PhaseBreakdown bits diverged"
    );
    assert_eq!(
        (got.threshold_a, got.threshold_b),
        (want.threshold_a, want.threshold_b),
        "{what}: thresholds diverged"
    );
    assert_eq!(
        got.tuples_merged, want.tuples_merged,
        "{what}: tuples_merged diverged"
    );
}

fn assert_same_plan(got: &PhasePlan, want: &PhasePlan, what: &str) {
    let clocks = |p: &PhasePlan| {
        [
            p.phase2.cpu_ns,
            p.phase2.gpu_ns,
            p.phase3.cpu_ns,
            p.phase3.gpu_ns,
        ]
        .map(f64::to_bits)
    };
    assert_eq!(clocks(got), clocks(want), "{what}: phase clocks diverged");
    assert_eq!(got.rows_ah, want.rows_ah, "{what}: A_H rows");
    assert_eq!(got.rows_al, want.rows_al, "{what}: A_L rows");
    assert_eq!(got.b_low, want.b_low, "{what}: B_L mask");
    assert_eq!(got.claims.len(), want.claims.len(), "{what}: claim count");
    for (k, (g, w)) in got.claims.iter().zip(&want.claims).enumerate() {
        assert_eq!(
            (g.device, g.high, &g.rows, g.sim_ns.to_bits()),
            (w.device, w.high, &w.rows, w.sim_ns.to_bits()),
            "{what}: claim {k}"
        );
    }
}

/// A fresh simulation of the artifacts' thresholds on cold devices.
fn fresh_plan(
    ctx: &HeteroContext,
    a: &CsrMatrix<f64>,
    b: &CsrMatrix<f64>,
    artifacts: &SpmmArtifacts,
) -> PhasePlan {
    let mut sim =
        HeteroContext::with_shared(ctx.platform, ThreadPool::new(1), ctx.workspaces.clone());
    let plan = &artifacts.plan;
    let th = &plan.thresholds;
    threshold::simulate_phases(&mut sim, a, b, (th.t_a, th.t_b), &plan.sym_a, plan.sym_b())
}

#[test]
fn kept_plan_matches_a_fresh_simulation_and_warm_runs_match_cold_on_every_clone() {
    for (name, scale, a, b) in clones() {
        for policy in POLICIES {
            for (pair, rhs) in [("A = A", &a), ("A != B", &b)] {
                let what = format!("{name} {policy:?} {pair}");
                let mut ctx = HeteroContext::scaled(scale);
                let artifacts = SpmmArtifacts::build(&ctx, &a, rhs, policy);
                let kept = &artifacts.phases;
                assert_same_plan(kept, &fresh_plan(&ctx, &a, rhs, &artifacts), &what);

                let config = HhCpuConfig {
                    policy,
                    ..HhCpuConfig::default()
                };
                let cold = hh_cpu(&mut ctx, &a, rhs, &config);
                let warm = hh_cpu_with_artifacts(&mut ctx, &a, rhs, &config, &artifacts);
                assert_same_run(&warm, &cold, &format!("{what}: warm run"));
            }
        }
    }
}

#[test]
fn sharded_runs_match_the_monolithic_run_under_every_policy() {
    // uncapped and spilling every band, against the artifacts the
    // monolithic run used
    for (name, scale, a, b) in some_clones() {
        for policy in POLICIES {
            for (pair, rhs) in [("A = A", &a), ("A != B", &b)] {
                let config = HhCpuConfig {
                    policy,
                    ..HhCpuConfig::default()
                };
                let mut ctx = HeteroContext::scaled(scale);
                let artifacts = SpmmArtifacts::build(&ctx, &a, rhs, policy);
                let mono = hh_cpu_with_artifacts(&mut ctx, &a, rhs, &config, &artifacts);
                for byte_cap in [usize::MAX, 1] {
                    let what = format!("{name} {policy:?} {pair} 3 bands, cap {byte_cap}");
                    let shard = ShardConfig::out_of_core(3, byte_cap);
                    let out = hh_cpu_sharded_with_artifacts(
                        &mut ctx, &a, rhs, &config, &shard, &artifacts,
                    );
                    assert_same_run(&out.output, &mono, &what);
                    assert_eq!(
                        (out.output.hd_rows_a, out.output.hd_rows_b),
                        (mono.hd_rows_a, mono.hd_rows_b),
                        "{what}: H/L row counts diverged"
                    );
                }
            }
        }
    }
}
