//! One production engine, one reference.
//!
//! Every algorithm path records a `ClaimSchedule` during its event-driven
//! planning loop and runs the numeric work afterwards through one of two
//! executors: `ExecPolicy::Batched`, the production engine (row segments
//! drained in order straight into C: a row's first claim scatters into one
//! −0.0-seeded lane of a dense accumulator, every later claim into a
//! second lane that is folded into the first), or `ExecPolicy::PerClaim`,
//! the reference (the serial oracle `reference::spmm_claims`, which shares
//! no code with the engine). Every run of the production engine is
//! produced in the reference's scatter order (first touch sets, later
//! touches `+=`), a
//! one-claim row is kept verbatim and a multi-claim row sums its runs from
//! `T::ZERO` in claim order, so the floating-point bits must be *identical* — not
//! approximately equal, identical.
//!
//! These tests pin that contract for all four algorithm paths at several
//! host thread counts on every Table I clone and under the sharded driver:
//! identical output matrix (down to the value bits), identical simulated
//! `PhaseBreakdown`, identical thresholds, identical `tuples_merged`. The
//! same check on generated `A = B`, `A ≠ B` and `B ≠ A` inputs lives in
//! `schedule_equivalence.rs`, `adaptive_engine.rs` and `fused_engine.rs`.
//! The small direct-executor cases cover degenerate product shapes (1×1,
//! empty operands, zero-row claims, rows with many claims, products of a
//! few thousand flops) and operands of signed zeros and NaN payloads, and
//! the committed Phase-I goldens must survive untouched.

use hetero_spmm::core::schedule::{self, ClaimSchedule, ScheduledClaim};
use hetero_spmm::core::threshold::identify;
use hetero_spmm::hetsim::DeviceKind;
use hetero_spmm::parallel::ThreadPool;
use hetero_spmm::prelude::*;
use hetero_spmm::sparse::{reference, WorkspacePool};

mod common;
use common::{assert_identical, check_all_paths, matrix};

#[test]
fn batched_matches_per_claim_on_all_table1_clones() {
    // every Table I clone self-product plus a distinct-B product per clone,
    // so each published row-size distribution feeds the production engine
    // one-claim and multi-claim rows; debug-build runtime keeps the clones
    // at a deeper shrink than the release benches (bit-identity is
    // scale-independent)
    for d in Dataset::all() {
        let a = d.load::<f64>(256);
        check_all_paths(&a, &a, d.entry().name, &[1, 2, 8]);
        let b = matrix(a.nrows(), a.nnz(), 64);
        check_all_paths(&a, &b, &format!("{} != B", d.entry().name), &[2]);
    }
}

#[test]
fn batched_matches_per_claim_under_sharding() {
    // the sharded driver runs the executor once per row band; an explicit
    // 4-band pooled plan forces real multi-shard stitching even at test
    // sizes
    let a = matrix(4_000, 28_000, 65);
    let per_claim = HhCpuConfig {
        exec: ExecPolicy::PerClaim,
        ..HhCpuConfig::default()
    };
    for threads in [1usize, 4] {
        let mut ctx = HeteroContext::scaled(32).with_host_threads(threads);
        let shard = ShardConfig::pooled(4);
        let reference = hh_cpu_sharded(&mut ctx, &a, &a, &per_claim, &shard);
        let batched = hh_cpu_sharded(&mut ctx, &a, &a, &HhCpuConfig::default(), &shard);
        let what = format!("sharded, {threads} host threads");
        assert_eq!(batched.plan.shards(), 4, "{what}: shard plan");
        assert_eq!(batched.plan.bounds(), reference.plan.bounds(), "{what}");
        assert_identical(&batched.output, &reference.output, &what);
    }
}

#[test]
fn workspace_pool_survives_products_of_different_widths() {
    // One context (one workspace pool) multiplying matrices of different
    // column counts back and forth: pooled workspaces are width-agnostic
    // (`ensure_ncols` grows clear bits, drains clear theirs), so results must stay
    // exactly what a fresh context produces.
    let wide = matrix(1_500, 12_000, 54);
    let narrow = matrix(400, 2_400, 55);
    let mut shared = HeteroContext::scaled(32).with_host_threads(4);
    for _ in 0..2 {
        for m in [&wide, &narrow, &wide] {
            let reused = hh_cpu(&mut shared, m, m, &HhCpuConfig::default());
            let mut fresh_ctx = HeteroContext::scaled(32).with_host_threads(4);
            let fresh = hh_cpu(&mut fresh_ctx, m, m, &HhCpuConfig::default());
            assert_identical(&reused, &fresh, "pooled workspaces across widths");
        }
    }
}

#[test]
fn batched_matches_per_claim_on_wide_outputs() {
    // More than 2^15 output columns: both accumulator lanes span the whole
    // width, and most rows touch only a few of its columns. Every row must
    // still drain the reference's bits.
    let wide = |seed| {
        scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(
            33_000, 100_000, 2.1, seed,
        ))
    };
    let (a, b) = (wide(11), wide(12));
    check_all_paths(&a, &b, "wide A != B", &[1, 8]);
    // the fixture holds rows dense and sparse for C's width: rows of k
    // entries with `ncols/64 <= k·bitlen(k)` and rows with fewer
    let c = reference::spmm_rowrow(&a, &b).unwrap();
    let words = c.ncols().div_ceil(64);
    let scanned = (0..c.nrows())
        .map(|i| c.row_nnz(i))
        .filter(|&k| k > 0 && words <= k * (usize::BITS - k.leading_zeros()) as usize)
        .count();
    let nonempty = (0..c.nrows()).filter(|&i| c.row_nnz(i) > 0).count();
    assert!(
        scanned > 0 && scanned < nonempty,
        "{scanned} of {nonempty} rows drain by the word scan"
    );
}

#[test]
fn small_products_match_reference_at_word_boundary_widths() {
    // C one bitmap word wide and just under, at and over one and two
    // words, with rows from one entry to the full width. About 160k flops,
    // so eight host threads cut the rows into several segments.
    let a = matrix(2_000, 20_000, 74);
    for width in [1usize, 63, 64, 65, 129] {
        let mut b = CooMatrix::new(a.ncols(), width);
        for j in 0..a.ncols() {
            for k in 0..j % 17 {
                let col = (j * 31 + k * k * 7 + k) % width;
                b.push(j, col, ((j * 13 + k) % 11) as f64 * 0.25 - 1.0);
            }
        }
        let b = b.to_csr().unwrap();
        check_small_product(&a, &b, &format!("{width} columns"));
    }
}

#[test]
fn three_overlapping_claims_per_row_match_reference_past_one_summary_word() {
    // C wider than the 4,096 columns one summary word of the accumulator
    // covers, and every row under three claims whose masks overlap: a
    // column can come from any subset of the three runs, so the fold of
    // the middle claim and the two-lane drain meet every case.
    let a = matrix(9_000, 45_000, 75);
    let b = matrix(9_000, 36_000, 76);
    assert!(b.ncols() > 2 * 4_096);
    let all: Vec<usize> = (0..a.nrows()).collect();
    let evens: Vec<usize> = (0..a.nrows()).step_by(2).collect();
    let halves: Vec<bool> = (0..b.nrows()).map(|j| j % 2 == 0).collect();
    let thirds: Vec<bool> = (0..b.nrows()).map(|j| j % 3 != 1).collect();
    let schedule = ClaimSchedule {
        claims: vec![
            claim(&all, Some(&halves), DeviceKind::Cpu),
            claim(&evens, None, DeviceKind::Gpu),
            claim(&all, Some(&thirds), DeviceKind::Cpu),
        ],
    };
    let c = execute_both(&a, &b, &schedule, &[1, 2, 8], "three overlapping claims");
    assert!(c.ncols() > 2 * 4_096 && c.nnz() > 0);
}

/// Run one recorded schedule through both executors at each host thread
/// count and require identical C (down to the value bits, so NaN inputs
/// compare too) and entry counts; returns the reference C for further
/// checks.
fn execute_both(
    a: &CsrMatrix<f64>,
    b: &CsrMatrix<f64>,
    schedule: &ClaimSchedule<'_>,
    threads: &[usize],
    what: &str,
) -> CsrMatrix<f64> {
    let shape = (a.nrows(), b.ncols());
    let ws = WorkspacePool::new();
    let mut want = None;
    for &threads in threads {
        let pool = ThreadPool::new(threads);
        let (c_ref, n_ref) =
            schedule::execute(a, b, schedule, shape, &pool, &ws, ExecPolicy::PerClaim);
        let (c_bat, n_bat) =
            schedule::execute(a, b, schedule, shape, &pool, &ws, ExecPolicy::Batched);
        assert!(
            c_bat.bit_eq(&c_ref),
            "{what}: C diverged at {threads} threads"
        );
        assert_eq!(
            c_bat.content_hash(),
            c_ref.content_hash(),
            "{what}: value bits diverged at {threads} threads"
        );
        assert_eq!(n_bat, n_ref, "{what}: counts diverged at {threads} threads");
        want.get_or_insert(c_ref);
    }
    want.unwrap()
}

fn claim<'a>(
    rows: &'a [usize],
    b_mask: Option<&'a [bool]>,
    device: DeviceKind,
) -> ScheduledClaim<'a> {
    ScheduledClaim {
        device,
        rows,
        b_mask,
        sim_ns: 1.0,
    }
}

/// The hh_cpu shape over a mask: every high row against `B_H` on the CPU,
/// every row against `B_L` on the GPU, and the low rows against `B_H` in
/// two CPU/GPU pieces — low rows get three claims, two of them
/// complementary.
fn split_schedule<'a>(
    all: &'a [usize],
    high: &'a [usize],
    low: &'a [usize],
    b_high: &'a [bool],
    b_low: &'a [bool],
) -> ClaimSchedule<'a> {
    let mid = low.len() / 2;
    ClaimSchedule {
        claims: vec![
            claim(high, Some(b_high), DeviceKind::Cpu),
            claim(all, Some(b_low), DeviceKind::Gpu),
            claim(&low[..mid], Some(b_high), DeviceKind::Cpu),
            claim(&low[mid..], Some(b_high), DeviceKind::Gpu),
        ],
    }
}

/// Products too small to amortise anything still take the production
/// engine's full route and must agree with the reference bit for bit.
fn check_small_product(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, what: &str) {
    let all: Vec<usize> = (0..a.nrows()).collect();
    let whole = ClaimSchedule {
        claims: vec![claim(&all, None, DeviceKind::Cpu)],
    };
    let c = execute_both(a, b, &whole, &[1, 8], &format!("{what}, one claim"));
    let expected = reference::spmm_rowrow(a, b).unwrap();
    assert!(c.bit_eq(&expected), "{what}: wrong product");

    let t = b.mean_row_nnz().ceil().max(1.0) as usize;
    let b_high: Vec<bool> = (0..b.nrows()).map(|i| b.row_nnz(i) >= t).collect();
    let b_low: Vec<bool> = b_high.iter().map(|&h| !h).collect();
    let high: Vec<usize> = all.iter().copied().filter(|&i| a.row_nnz(i) >= t).collect();
    let low: Vec<usize> = all.iter().copied().filter(|&i| a.row_nnz(i) < t).collect();
    let split = split_schedule(&all, &high, &low, &b_high, &b_low);
    let c = execute_both(a, b, &split, &[1, 8], &format!("{what}, mask split"));
    assert!(c.approx_eq(&expected, 1e-9, 1e-12), "{what}: split product");
}

/// The 4×4 example of the paper's Figure 2.
fn fig2() -> CsrMatrix<f64> {
    CsrMatrix::try_new(
        4,
        4,
        vec![0, 2, 4, 6, 8],
        vec![1, 2, 2, 3, 0, 2, 0, 3],
        vec![2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 4.0],
    )
    .unwrap()
}

#[test]
fn small_products_match_reference_figure2() {
    check_small_product(&fig2(), &fig2(), "Figure 2");
}

#[test]
fn small_products_match_reference_empty_b_and_one_by_one() {
    let a = matrix(300, 1_500, 70);
    let empty_b = CsrMatrix::<f64>::zeros(300, 300);
    check_small_product(&a, &empty_b, "all-empty B");
    check_small_product(&empty_b, &a, "all-empty A");
    let one = CsrMatrix::try_new(1, 1, vec![0, 1], vec![0], vec![-1.5f64]).unwrap();
    check_small_product(&one, &one, "1x1");
    let zero = CsrMatrix::<f64>::zeros(1, 1);
    check_small_product(&one, &zero, "1x1 times empty");
}

#[test]
fn small_products_match_reference_zero_row_claims() {
    let a = fig2();
    let all: Vec<usize> = (0..4).collect();
    let none: Vec<usize> = Vec::new();
    let mask = [true, false, true, false];
    let inv = [false, true, false, true];
    let schedule = ClaimSchedule {
        claims: vec![
            claim(&none, None, DeviceKind::Cpu),
            claim(&all, Some(&mask), DeviceKind::Cpu),
            claim(&none, Some(&inv), DeviceKind::Gpu),
            claim(&all, Some(&inv), DeviceKind::Gpu),
            claim(&none, None, DeviceKind::Gpu),
        ],
    };
    let c = execute_both(&a, &a, &schedule, &[1, 8], "zero-row claims");
    assert!(c.approx_eq(&reference::spmm_rowrow(&a, &a).unwrap(), 1e-12, 1e-12));
}

#[test]
fn small_products_match_reference_rows_with_many_claims() {
    // Many claims on one output row, each fed by one, two, or many masked
    // sources: every claim's run folds into the row in claim order.
    let a = matrix(60, 600, 71);
    let b = matrix(60, 500, 72);
    let all: Vec<usize> = (0..a.nrows()).collect();
    for nclaims in [9usize, 12, 17] {
        // claim k owns the B rows j with j % nclaims == k: disjoint masks
        // that together cover B, so the sum over claims is A × B
        let masks: Vec<Vec<bool>> = (0..nclaims)
            .map(|k| (0..b.nrows()).map(|j| j % nclaims == k).collect())
            .collect();
        let schedule = ClaimSchedule {
            claims: masks
                .iter()
                .enumerate()
                .map(|(k, m)| {
                    let device = if k % 2 == 0 {
                        DeviceKind::Cpu
                    } else {
                        DeviceKind::Gpu
                    };
                    claim(&all, Some(m), device)
                })
                .collect(),
        };
        let c = execute_both(
            &a,
            &b,
            &schedule,
            &[1, 8],
            &format!("{nclaims} claims per row"),
        );
        assert!(c.approx_eq(&reference::spmm_rowrow(&a, &b).unwrap(), 1e-9, 1e-12));
    }
}

/// A quiet NaN with a payload, which products and sums carry into C's
/// bits: both executors must carry it to the same entries.
const NAN_PAYLOAD: u64 = 0x7ff8_0000_0000_0badu64;

/// An `n × n` operand whose values are −0.0, +0.0 and −1.0, plus one NaN
/// with a payload. Its products are signed zeros, ±1 and NaN, so a row's
/// bits show whether the executor copied a one-claim row verbatim (keeping
/// −0.0) and summed a multi-claim row from `T::ZERO` (turning −0.0 into
/// +0.0), as the reference does.
fn signed_zero_nan_matrix(n: usize, seed: usize) -> CsrMatrix<f64> {
    let mut coo = CooMatrix::new(n, n);
    for i in 0..n {
        for j in 0..n {
            if (i * 7 + j * 13 + seed * 5) % 11 < 4 {
                let v = [-0.0, 0.0, -1.0, -0.0][(i + 3 * j + seed) % 4];
                coo.push(i, j, v);
            }
        }
    }
    coo.push(seed, (seed * 5) % n, f64::from_bits(NAN_PAYLOAD));
    coo.to_csr().unwrap()
}

#[test]
fn signed_zeros_and_nan_payloads_match_under_every_claim_shape() {
    let n = 24;
    let a = signed_zero_nan_matrix(n, 1);
    let b = signed_zero_nan_matrix(n, 4);
    let all: Vec<usize> = (0..n).collect();
    let evens: Vec<usize> = (0..n).step_by(2).collect();
    let half: Vec<bool> = (0..n).map(|j| j % 3 == 0).collect();
    let rest: Vec<bool> = half.iter().map(|&h| !h).collect();
    let nothing = vec![false; n];
    for (b, pair) in [(&a, "A * A"), (&b, "A * B")] {
        let one = ClaimSchedule {
            claims: vec![claim(&all, None, DeviceKind::Cpu)],
        };
        let complementary = ClaimSchedule {
            claims: vec![
                claim(&all, Some(&half), DeviceKind::Cpu),
                claim(&all, Some(&rest), DeviceKind::Gpu),
            ],
        };
        let with_empty = ClaimSchedule {
            claims: vec![
                claim(&all, Some(&half), DeviceKind::Cpu),
                claim(&all, Some(&nothing), DeviceKind::Gpu),
                claim(&all, Some(&rest), DeviceKind::Cpu),
            ],
        };
        let overlapping = ClaimSchedule {
            claims: vec![
                claim(&all, None, DeviceKind::Gpu),
                claim(&evens, Some(&half), DeviceKind::Cpu),
            ],
        };
        let threads = [1, 3];
        let c_one = execute_both(&a, b, &one, &threads, &format!("{pair}, one claim"));
        let c_split = execute_both(&a, b, &complementary, &threads, &format!("{pair}, split"));
        execute_both(
            &a,
            b,
            &with_empty,
            &threads,
            &format!("{pair}, empty claim"),
        );
        execute_both(
            &a,
            b,
            &overlapping,
            &threads,
            &format!("{pair}, overlapping"),
        );
        // the fixture really carries what it is for
        assert!(
            c_one
                .values()
                .iter()
                .any(|v| v.to_bits() == (-0.0f64).to_bits()),
            "{pair}: no -0.0 in C"
        );
        assert!(
            c_one.values().iter().any(|v| v.is_nan()),
            "{pair}: no NaN in C"
        );
        assert!(
            !c_split.bit_eq(&c_one),
            "{pair}: split sums never normalised a -0.0"
        );
    }
}

#[test]
fn small_products_match_reference_just_under_32k_flops() {
    // grow a scale-free operand until its self-product lands just under
    // 32,768 flops: the size of one row band of a sharded small clone
    // (each of scircuit/32's eight bands is ~21k flops), which takes the
    // same route through the production engine as any large product
    let (a, flops) = (1..)
        .map(|k| {
            let a =
                scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(400, 40 * k, 2.1, 73));
            let flops = reference::flops(&a, &a);
            (a, flops)
        })
        .take_while(|(_, flops)| *flops < 32 * 1024)
        .last()
        .unwrap();
    assert!(
        (24 * 1024..32 * 1024).contains(&flops),
        "operand search landed at {flops} flops"
    );
    check_small_product(&a, &a, &format!("{flops}-flop product"));
}

#[test]
fn golden_thresholds_survive_the_split() {
    // the committed Phase-I goldens must be untouched by anything the
    // numeric executors do
    let golden: Vec<(String, usize)> = include_str!("golden/thresholds.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut it = l.split_whitespace();
            let name = it.next().expect("golden line: name").to_string();
            let t = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("golden line: threshold");
            (name, t)
        })
        .collect();
    assert_eq!(golden.len(), 3, "golden file shrank");

    let policy = ThresholdPolicy::Empirical { candidates: 10 };
    for (name, want) in &golden {
        let (a, scale) = if name == "smoke" {
            (
                scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(4_000, 40_000, 2.1, 7)),
                32,
            )
        } else {
            let d = Dataset::by_name(name).unwrap();
            (d.load::<f64>(32), d.effective_scale(32))
        };
        let ctx = HeteroContext::scaled(scale);
        let picked = identify(&ctx, &a, &a, policy);
        assert_eq!(
            picked.t_a, *want,
            "{name}: Phase-I threshold drifted from tests/golden/thresholds.txt"
        );
    }
}
