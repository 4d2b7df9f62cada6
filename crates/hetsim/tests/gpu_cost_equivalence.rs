//! Pin the GPU output-width tables to an independent distinct-column count
//! (a `BTreeSet` over each row's masked sources), and the GPU price to
//! `spmm_cost_planned` over those widths, in both simulated ns and L2
//! stats — the contract that lets Phase-II costing, Phase-III claims, and
//! empirical-ladder candidates all share one width table per
//! `(matrix, mask)`.

use std::collections::BTreeSet;

use spmm_hetsim::gpu::{
    masked_output_widths, masked_output_widths_for_pooled, masked_output_widths_pooled,
};
use spmm_hetsim::{GpuDevice, GpuSpec};
use spmm_parallel::ThreadPool;
use spmm_scalefree::{scale_free_matrix, GeneratorConfig};
use spmm_sparse::{CooMatrix, CsrMatrix, WorkspacePool};

type M = CsrMatrix<f64>;

fn scale_free(n: usize, nnz: usize, seed: u64) -> M {
    scale_free_matrix(&GeneratorConfig::square_power_law(n, nnz, 2.2, seed))
}

fn half_mask(n: usize, seed: u64) -> Vec<bool> {
    // deterministic mix of high/low rows, roughly half set
    (0..n)
        .map(|i| !(i.wrapping_mul(2654435761) ^ seed as usize).is_multiple_of(3))
        .collect()
}

/// Width of every listed row of `a × b` (0 elsewhere): the distinct
/// columns of the row's sources that `mask` keeps.
fn oracle_widths(a: &M, b: &M, mask: Option<&[bool]>, rows: &[usize]) -> Vec<u32> {
    let mut widths = vec![0u32; a.nrows()];
    for &i in rows {
        let mut cols = BTreeSet::<u32>::new();
        for &j in a.row(i).0 {
            if mask.is_none_or(|m| m[j as usize]) {
                cols.extend(b.row(j as usize).0);
            }
        }
        widths[i] = cols.len() as u32;
    }
    widths
}

/// CSR matrix with the given rows, every value 1.
fn from_rows(ncols: usize, rows: &[Vec<u32>]) -> M {
    let mut coo = CooMatrix::new(rows.len(), ncols);
    for (i, row) in rows.iter().enumerate() {
        row.iter().for_each(|&c| coo.push(i, c as usize, 1.0));
    }
    coo.to_csr().expect("valid CSR")
}

/// Every (rows, mask) shape the algorithm paths use: full product,
/// masked halves, scattered claim ranges; and a descending list with a
/// repeated row, which `spmm_cost` must price as given.
fn cases(n: usize) -> Vec<(Vec<usize>, Option<Vec<bool>>)> {
    let all: Vec<usize> = (0..n).collect();
    let front: Vec<usize> = (0..n / 3).collect();
    let scattered: Vec<usize> = (0..n).step_by(7).collect();
    let mut unsorted: Vec<usize> = (0..n).rev().step_by(3).collect();
    unsorted.insert(40, unsorted[7]);
    vec![
        (all.clone(), None),
        (all, Some(half_mask(n, 1))),
        (front, Some(half_mask(n, 2))),
        (scattered, Some(half_mask(n, 3))),
        (unsorted, Some(half_mask(n, 4))),
        (Vec::new(), None),
    ]
}

/// `spmm_cost` (its own width pass) and `spmm_cost_planned` over the
/// oracle's widths and over a `masked_output_widths` table price every case
/// alike, to the bit and in L2 traffic.
#[test]
fn planned_cost_bit_equal_to_stamp_walk() {
    let n = 600;
    let a = scale_free(n, 6_000, 11);
    let b = scale_free(n, 5_000, 13);
    let pool = ThreadPool::new(4);
    // four sets: small enough to evict, so the pricing order shows
    let spec = GpuSpec {
        l2_bytes: 4 * 16 * 128,
        ..GpuSpec::k20c()
    };
    for (rows, mask) in cases(n) {
        let mask_ref = mask.as_deref();
        let mut live = GpuDevice::new(spec);
        let live_ns = live.spmm_cost(&a, &b, rows.iter().copied(), mask_ref);

        let oracle = oracle_widths(&a, &b, mask_ref, &rows);
        let table = masked_output_widths(&a, &b, mask_ref, &pool);
        for widths in [&oracle, &table] {
            let mut planned = GpuDevice::new(spec);
            let planned_ns =
                planned.spmm_cost_planned(&a, &b, rows.iter().copied(), mask_ref, widths);
            assert_eq!(
                live_ns.to_bits(),
                planned_ns.to_bits(),
                "planned ns must be bit-identical (rows={}, masked={})",
                rows.len(),
                mask.is_some()
            );
            assert_eq!(live.l2_stats(), planned.l2_stats(), "L2 traffic must match");
        }
    }
}

#[test]
fn planned_cost_matches_across_sequential_calls() {
    // The workqueue paths issue many claims against one device; the L2 is
    // stateful, so the equivalence must hold claim-by-claim, not just for
    // one call on a fresh device.
    let n = 400;
    let a = scale_free(n, 4_000, 7);
    let mask = half_mask(n, 5);
    let pool = ThreadPool::new(3);
    let widths = masked_output_widths(&a, &a, Some(&mask), &pool);

    let mut live = GpuDevice::paper();
    let mut planned = GpuDevice::paper();
    let mut lo = 0usize;
    let mut grain = 3usize;
    while lo < n {
        let hi = (lo + grain).min(n);
        let l = live.spmm_cost(&a, &a, lo..hi, Some(&mask));
        let p = planned.spmm_cost_planned(&a, &a, lo..hi, Some(&mask), &widths);
        assert_eq!(l.to_bits(), p.to_bits(), "claim {lo}..{hi} diverged");
        lo = hi;
        grain = grain * 2 + 1;
    }
    assert_eq!(live.l2_stats(), planned.l2_stats());
}

#[test]
fn reset_device_agrees_with_fresh_device() {
    // reset() flushes the L2, the device's only state: a reused device
    // must cost identically to a newly constructed one.
    let n = 500;
    let a = scale_free(n, 5_000, 3);
    let mask = half_mask(n, 9);

    let mut reused = GpuDevice::paper();
    reused.spmm_cost(&a, &a, 0..n, None); // dirty the L2
    reused.reset();
    let reused_ns = reused.spmm_cost(&a, &a, 0..n, Some(&mask));

    let mut fresh = GpuDevice::paper();
    let fresh_ns = fresh.spmm_cost(&a, &a, 0..n, Some(&mask));

    assert_eq!(reused_ns.to_bits(), fresh_ns.to_bits());
}

#[test]
fn width_table_invariant_over_thread_count() {
    let n = 700;
    let a = scale_free(n, 8_000, 23);
    let b = scale_free(n, 6_000, 29);
    let mask = half_mask(n, 4);
    let reference = masked_output_widths(&a, &b, Some(&mask), &ThreadPool::new(1));
    let all: Vec<usize> = (0..n).collect();
    assert_eq!(reference, oracle_widths(&a, &b, Some(&mask), &all));
    for threads in [2, 4, 8] {
        let t = masked_output_widths(&a, &b, Some(&mask), &ThreadPool::new(threads));
        assert_eq!(reference, t, "width table changed at {threads} threads");
    }
    // and the unmasked table dominates any masked one
    let full = masked_output_widths(&a, &b, None, &ThreadPool::new(4));
    for (f, m) in full.iter().zip(&reference) {
        assert!(f >= m);
    }
}

/// The three width-table entry points against the oracle, at 1 and 4
/// threads, on rows of masked Σ|B| 31, 32 and 33 (disjoint, and 33 with one
/// shared column), overlapping sources, an empty A row, all-masked rows,
/// one live source (beside a masked one, or empty), an empty source beside
/// a live one, and a masked source beside two live ones. The patterns
/// repeat past four 64-row chunks.
#[test]
fn width_tables_match_the_oracle_on_edge_rows() {
    let b_rows = [0..16, 16..31, 16..32, 15..32, 32..49, 0..0, 0..40];
    let b = from_rows(64, &b_rows.map(|r| r.collect::<Vec<u32>>()));
    let mask = [true, true, true, true, true, true, false];
    let sums: [&[u32]; 5] = [&[0, 1], &[0, 2], &[0, 4], &[0, 3], &[1, 2]];
    let shapes: [&[u32]; 7] = [&[], &[6], &[2, 6], &[0, 5], &[5], &[4], &[0, 3, 6]];
    let patterns = [&sums[..], &shapes[..]].concat();
    let a_rows: Vec<Vec<u32>> = (0..360).map(|i| patterns[i % 12].to_vec()).collect();
    let a = from_rows(7, &a_rows);
    let (all, odd): (Vec<usize>, Vec<usize>) = ((0..360).collect(), (1..360).step_by(2).collect());
    let want = [31, 32, 33, 32, 16, 0, 0, 16, 16, 0, 17, 32];
    assert_eq!(oracle_widths(&a, &b, Some(&mask), &all)[..12], want);
    for threads in [1, 4] {
        let (pool, ws) = (ThreadPool::new(threads), WorkspacePool::new());
        for mask in [None, Some(&mask[..])] {
            let full = oracle_widths(&a, &b, mask, &all);
            let what = format!("{threads} threads, masked={}", mask.is_some());
            assert_eq!(masked_output_widths(&a, &b, mask, &pool), full, "{what}");
            let pooled = masked_output_widths_pooled(&a, &b, mask, &pool, &ws);
            assert_eq!(pooled, full, "{what}, pooled");
            let listed = masked_output_widths_for_pooled(&a, &b, mask, &odd, &pool, &ws);
            assert_eq!(listed, oracle_widths(&a, &b, mask, &odd), "{what}, odd");
        }
    }
}

#[test]
#[should_panic(expected = "strictly ascending")]
fn restricted_width_pass_refuses_a_repeated_row() {
    let a = scale_free(400, 4_000, 5);
    let mut rows: Vec<usize> = (0..400).collect();
    rows.insert(300, 299);
    let (pool, ws) = (ThreadPool::new(4), WorkspacePool::new());
    masked_output_widths_for_pooled(&a, &a, None, &rows, &pool, &ws);
}
