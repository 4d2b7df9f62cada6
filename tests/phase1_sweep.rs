//! The Figure 8 sweep prices every threshold from one width pass and one
//! Phase II walk (`threshold::estimate_ladder_with`); each threshold's
//! phase walls must still be the bits of its own cold `simulate_phases`
//! run, for every host thread count, as A × A and A ≠ B.

use hetero_spmm::core::threshold::{self, adaptive_units, estimate_ladder_with, WidthTables};
use hetero_spmm::core::SymbolicStructure;
use hetero_spmm::prelude::*;

#[test]
fn ladder_sweep_matches_one_simulation_per_threshold() {
    for (name, other) in [
        ("wiki-Vote", false),
        ("web-Google", false),
        ("email-Enron", true),
    ] {
        let d = Dataset::by_name(name).unwrap();
        let a = d.load::<f64>(32);
        let b = if other {
            scale_free_matrix(&GeneratorConfig::square_power_law(
                a.nrows(),
                2 * a.nnz(),
                2.1,
                5,
            ))
        } else {
            a.clone()
        };
        let (sym_a, sym_b) = (
            SymbolicStructure::from_matrix(&a),
            SymbolicStructure::from_matrix(&b),
        );
        let platform = Platform::scaled(d.effective_scale(32));
        // the Figure 8 sweep: both ends, a repeat, and the ladder between
        let top = sym_a.max_row_nnz().max(sym_b.max_row_nnz()) + 1;
        let mut sweep = vec![1, 1];
        sweep.extend((1..).map(|k| 1 << k).take_while(|&t| t < top));
        sweep.push(top);
        let want: Vec<(u64, u64)> = sweep
            .iter()
            .map(|&t| {
                let mut sim = HeteroContext::new(platform).with_host_threads(1);
                let units = adaptive_units(&sym_a, t);
                let widths = WidthTables::default();
                let plan = threshold::simulate_phases(
                    &mut sim,
                    &a,
                    &b,
                    (t, t),
                    &sym_a,
                    &sym_b,
                    units,
                    &widths,
                );
                (plan.phase2.wall().to_bits(), plan.phase3.wall().to_bits())
            })
            .collect();
        for threads in [1, 2, 8] {
            let ctx = HeteroContext::new(platform).with_host_threads(threads);
            let got: Vec<(u64, u64)> = estimate_ladder_with(&ctx, &a, &b, &sweep, &sym_a, &sym_b)
                .into_iter()
                .map(|(p2, p3)| (p2.to_bits(), p3.to_bits()))
                .collect();
            assert_eq!(got, want, "{name}, {threads} threads: sweep walls drifted");
        }
    }
}
