//! Figure 8: effect of the Phase I threshold on total time and on the
//! Phase II / Phase III times, per matrix.
//!
//! Paper: "as we increase t from 0 to the largest possible value, the
//! overall time taken by our algorithm should exhibit a convex behavior
//! … the time corresponding to a threshold of 0 is close to the time taken
//! by MKL on the instance, and the time taken corresponding to the largest
//! applicable threshold is close to the time taken by [13]."

use criterion::Criterion;
use spmm_bench::{banner, emit_json, load, par_over_datasets, scale};
use spmm_core::{hh_cpu, mkl_like, threshold, HhCpuConfig, SymbolicStructure};

/// Log-spaced thresholds between the degenerate ends.
fn ladder(max_row: usize) -> Vec<usize> {
    let mut out = vec![0];
    let mut t = 2usize;
    while t <= max_row {
        out.push(t);
        t *= 2;
    }
    out.push(max_row + 1);
    out
}

fn figure() {
    banner(
        "Figure 8",
        "total / Phase II / Phase III time vs threshold t (per matrix)",
    );
    // The sweep itself uses the cost-model dry run (`estimate_ladder_with`)
    // so all 12 matrices x ~12 thresholds finish in minutes; the phase
    // walls it reports are identical to a full run's (the numerics only add
    // the real arithmetic, which does not affect simulated time). Matrices
    // sweep concurrently, and each builds its symbolic structure (sorted
    // row sizes + nnz prefix sums) once — the per-threshold classification
    // aggregates are then O(log n) lookups instead of CSR rescans — and
    // prices the whole ladder from one width pass and one Phase II walk.
    let computed = par_over_datasets(|_, a, ctx| {
        let sym = SymbolicStructure::from_matrix(a);
        let ts = ladder(a.max_row_nnz());
        let sweep: Vec<usize> = ts.iter().map(|&t| t.max(1)).collect();
        let walls = threshold::estimate_ladder_with(ctx, a, a, &sweep, &sym, &sym);
        let points: Vec<(usize, f64, f64)> =
            ts.into_iter().zip(walls).map(|(t, (p2, p3))| (t, p2, p3)).collect();
        let mkl = mkl_like(ctx, a, a);
        (a.max_row_nnz(), points, mkl)
    });
    let mut matrices = Vec::new();
    for (entry, (max_row, points, mkl)) in &computed {
        println!("\n{} (max row = {}):", entry.name, max_row);
        println!(
            "{:>10} {:>12} {:>12} {:>12}",
            "t", "II+III ms", "phase II ms", "phase III ms"
        );
        let mut series = Vec::new();
        let mut totals = Vec::new();
        for &(t, p2, p3) in points {
            println!(
                "{:>10} {:>12.3} {:>12.3} {:>12.3}",
                t,
                (p2 + p3) / 1e6,
                p2 / 1e6,
                p3 / 1e6
            );
            totals.push(p2 + p3);
            series.push(serde_json::json!({
                "t": t, "total_ms": (p2 + p3) / 1e6,
                "phase2_ms": p2 / 1e6, "phase3_ms": p3 / 1e6,
            }));
        }
        // convexity check: interior minimum strictly better than both ends
        let min = totals.iter().cloned().fold(f64::INFINITY, f64::min);
        let convex = min < totals[0] && min < *totals.last().unwrap();
        println!(
            "  interior minimum beats both ends: {} | t=0 end {:.3} ms vs MKL compute {:.3} ms",
            if convex { "YES" } else { "NO" },
            totals[0] / 1e6,
            mkl.profile.phase2.wall() / 1e6
        );
        matrices.push(serde_json::json!({
            "name": entry.name, "series": series, "convex": convex,
            "mkl_ms": mkl.total_ns() / 1e6,
        }));
    }
    emit_json(
        "fig08_threshold_sweep",
        &serde_json::json!({"scale": scale(), "matrices": matrices}),
    );
}

fn main() {
    let test_mode = std::env::args().any(|a| a == "--test");
    if !test_mode {
        figure();
    }
    let mut c = Criterion::default().configure_from_args().sample_size(10);
    let a = load("wiki-Vote");
    let mut ctx = spmm_bench::context();
    c.bench_function("fig08/hh_cpu_fixed_t/wiki-Vote", |b| {
        b.iter(|| hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::with_threshold(16)))
    });
    c.final_summary();
}
