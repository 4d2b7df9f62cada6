//! Helpers shared by the engine-equivalence test binaries: the
//! `ExecPolicy::Batched` production engine checked bit for bit against the
//! `ExecPolicy::PerClaim` reference on every algorithm path.

// each test binary compiles its own copy and uses only part of it
#![allow(dead_code)]

use hetero_spmm::prelude::*;

pub fn matrix(n: usize, nnz: usize, seed: u64) -> CsrMatrix<f64> {
    scale_free_matrix(&GeneratorConfig::square_power_law(n, nnz, 2.2, seed))
}

/// A matrix pair built so output rows cover every drain remainder class:
/// `nnz(C[i,:]) ≡ 0..7 (mod 8)`, rows that are one scaled B row, rows
/// summed from two B-rows, fully empty rows, and rows fed by empty B rows.
pub fn remainder_lane_inputs() -> (CsrMatrix<f64>, CsrMatrix<f64>) {
    let n = 48usize;
    // B: row j holds j % 17 entries (0..=16 spans every residue mod 8,
    // including empty rows) starting at column j, values a fixed pattern.
    let mut b = CooMatrix::new(n, n);
    for j in 0..n {
        for k in 0..(j % 17).min(n - j) {
            let c = j + k;
            b.push(j, c, ((j * 31 + c) % 23) as f64 * 0.5 - 3.0);
        }
    }
    // A: even rows are single-entry (C row = scaled B row,
    // every width of B appears verbatim); odd rows sum two adjacent B rows
    // (overlapping column ranges ⇒ genuine accumulation, union sizes
    // spread across residues). Row n-1 is left fully empty.
    let mut a = CooMatrix::new(n, n);
    for i in 0..n - 1 {
        if i % 2 == 0 {
            a.push(i, i, 1.5);
        } else {
            a.push(i, i - 1, -0.75);
            a.push(i, i, 2.0);
        }
    }
    (a.to_csr().unwrap(), b.to_csr().unwrap())
}

/// Assert two runs of the same algorithm agree on everything an
/// `SpmmOutput` records, bit for bit.
pub fn assert_identical(got: &SpmmOutput<f64>, want: &SpmmOutput<f64>, what: &str) {
    assert_eq!(got.c, want.c, "{what}: output matrix diverged");
    assert_eq!(
        got.c.content_hash(),
        want.c.content_hash(),
        "{what}: output value bits diverged"
    );
    assert_eq!(got.profile, want.profile, "{what}: PhaseBreakdown diverged");
    assert_eq!(
        (got.threshold_a, got.threshold_b),
        (want.threshold_a, want.threshold_b),
        "{what}: thresholds diverged"
    );
    assert_eq!(
        got.tuples_merged, want.tuples_merged,
        "{what}: tuples_merged diverged"
    );
    assert_eq!(
        got.total_ns().to_bits(),
        want.total_ns().to_bits(),
        "{what}: total simulated time diverged"
    );
}

/// Every algorithm path, production engine against the reference.
pub fn check_all_paths(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, label: &str, threads: &[usize]) {
    let units = WorkUnitConfig::auto(a.nrows());
    let per_claim = HhCpuConfig {
        exec: ExecPolicy::PerClaim,
        ..HhCpuConfig::default()
    };
    for &threads in threads {
        let what = format!("{label}, {threads} host threads");
        let mut ctx = HeteroContext::scaled(32).with_host_threads(threads);

        let hh_ref = hh_cpu(&mut ctx, a, b, &per_claim);
        let hh_bat = hh_cpu(&mut ctx, a, b, &HhCpuConfig::default());
        assert_identical(&hh_bat, &hh_ref, &format!("hh_cpu ({what})"));

        let hipc_ref = hipc2012_with(&mut ctx, a, b, ExecPolicy::PerClaim);
        let hipc_bat = hipc2012_with(&mut ctx, a, b, ExecPolicy::Batched);
        assert_identical(&hipc_bat, &hipc_ref, &format!("hipc2012 ({what})"));

        let uns_ref = unsorted_workqueue_with(&mut ctx, a, b, units, ExecPolicy::PerClaim);
        let uns_bat = unsorted_workqueue_with(&mut ctx, a, b, units, ExecPolicy::Batched);
        assert_identical(&uns_bat, &uns_ref, &format!("unsorted_workqueue ({what})"));

        let srt_ref = sorted_workqueue_with(&mut ctx, a, b, units, ExecPolicy::PerClaim);
        let srt_bat = sorted_workqueue_with(&mut ctx, a, b, units, ExecPolicy::Batched);
        assert_identical(&srt_bat, &srt_ref, &format!("sorted_workqueue ({what})"));
    }
}
