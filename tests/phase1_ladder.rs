//! The one-pass width ladder is a Phase I optimisation only: for every
//! threshold of the empirical ladder, its slice of the table must equal
//! the per-candidate `masked_output_widths_pooled` table under that
//! candidate's `B_L` mask, element for element, for every operand shape,
//! ladder thinning and host thread count.

use std::collections::HashMap;

use hetero_spmm::core::threshold::{classify, empirical_ladder};
use hetero_spmm::core::SymbolicStructure;
use hetero_spmm::hetsim::gpu::{ladder_output_widths, masked_output_widths_pooled};
use hetero_spmm::parallel::ThreadPool;
use hetero_spmm::prelude::*;
use hetero_spmm::sparse::WorkspacePool;

/// Per-candidate reference tables of one product, memoised by threshold
/// (thinner ladders reuse the denser ladders' thresholds).
struct Oracle<'m> {
    a: &'m CsrMatrix<f64>,
    b: &'m CsrMatrix<f64>,
    pool: ThreadPool,
    workspaces: WorkspacePool,
    tables: HashMap<usize, Vec<u32>>,
}

impl<'m> Oracle<'m> {
    fn new(a: &'m CsrMatrix<f64>, b: &'m CsrMatrix<f64>) -> Self {
        Self {
            a,
            b,
            pool: ThreadPool::new(2),
            workspaces: WorkspacePool::new(),
            tables: HashMap::new(),
        }
    }

    fn widths(&mut self, t: usize) -> &[u32] {
        let Self {
            a,
            b,
            pool,
            workspaces,
            ..
        } = self;
        self.tables.entry(t).or_insert_with(|| {
            let b_low: Vec<bool> = classify(b, t).into_iter().map(|h| !h).collect();
            masked_output_widths_pooled(a, b, Some(&b_low), pool, workspaces)
        })
    }

    /// Check the one-pass table of `ladder` built on `threads` host threads.
    fn check(&mut self, ladder: &[usize], threads: usize, what: &str) {
        let pool = ThreadPool::new(threads);
        let table = ladder_output_widths(self.a, self.b, ladder, &pool, &WorkspacePool::new());
        let n = self.a.nrows();
        assert_eq!(table.len(), ladder.len() * n, "{what}: table shape");
        for (j, &t) in ladder.iter().enumerate() {
            let want = self.widths(t);
            let got = &table[j * n..(j + 1) * n];
            if let Some(i) = (0..n).find(|&i| got[i] != want[i]) {
                panic!(
                    "{what}, {threads} threads: t = {t} (candidate {j}), row {i}: \
                     one-pass width {} != per-candidate width {}",
                    got[i], want[i]
                );
            }
        }
    }

    /// Check the empirical ladder of every `candidates` count on every
    /// `threads` count.
    fn check_ladders(&mut self, candidates: &[usize], threads: &[usize], what: &str) {
        let sym_a = SymbolicStructure::from_matrix(self.a);
        let sym_b = SymbolicStructure::from_matrix(self.b);
        for &c in candidates {
            let ladder = empirical_ladder(&sym_a, &sym_b, c);
            for &th in threads {
                self.check(&ladder, th, &format!("{what}, {c} candidates"));
            }
        }
    }
}

const CANDIDATES: [usize; 4] = [1, 3, 10, 64];

#[test]
fn every_clone_matches_the_per_candidate_tables() {
    for d in Dataset::all() {
        let name = d.entry().name;
        let a = d.load::<f64>(32);
        Oracle::new(&a, &a).check_ladders(&CANDIDATES, &[2], name);
        // A ≠ B with B the denser side: the ladder runs up B's longer tail
        let b = scale_free_matrix(&GeneratorConfig::square_power_law(
            a.nrows(),
            2 * a.nnz(),
            2.1,
            19,
        ));
        Oracle::new(&a, &b).check_ladders(&CANDIDATES, &[2], &format!("{name} != B"));
    }
}

#[test]
fn tables_are_invariant_under_host_threads() {
    for name in ["wiki-Vote", "web-Google", "cop20kA"] {
        let a = Dataset::by_name(name).unwrap().load::<f64>(32);
        Oracle::new(&a, &a).check_ladders(&CANDIDATES, &[1, 2, 8], name);
    }
}

#[test]
fn wide_operand_matches_the_per_candidate_tables() {
    // more than 2^15 output columns
    let n = 40_000;
    let a = scale_free_matrix(&GeneratorConfig::square_power_law(n, 200_000, 2.1, 23));
    let b = scale_free_matrix(&GeneratorConfig::square_power_law(n, 320_000, 2.0, 29));
    assert!(b.ncols() > 1 << 15);
    Oracle::new(&a, &b).check_ladders(&CANDIDATES, &[1, 8], "wide A != B");
    Oracle::new(&b, &b).check_ladders(&[10], &[2], "wide B x B");
}

#[test]
fn hand_built_rows_match_the_per_candidate_tables() {
    // B row sizes (row: size): 0: 0 (empty), 1: 1, 2: 1, 3: 2, 4: 3, 5: 3,
    // 6: 5, 7: 8, 8: 16, 9: 40 — so ladder [2, 4, 8, 41] gives buckets
    // 0, 1 and 2 → 0; 3, 4 and 5 → 1; 6 → 2; 7, 8 and 9 → 3. The empty
    // row 0 is in every B_L mask with nothing to contribute.
    let sizes = [0usize, 1, 1, 2, 3, 3, 5, 8, 16, 40];
    let ncols = 48;
    let mut b = CooMatrix::new(sizes.len(), ncols);
    for (k, &s) in sizes.iter().enumerate() {
        for c in 0..s {
            // overlapping column windows so distinct rows share columns
            b.push(k, (3 * k + c) % ncols, 1.0);
        }
    }
    let b = b.to_csr().unwrap();
    let rows: &[&[usize]] = &[
        &[],                             // empty A row
        &[0],                            // only source is an empty B row
        &[4],                            // single source
        &[0, 7],                         // single live source beside an empty one
        &[9],                            // single source, in the top candidate's B_L only
        &[1, 2],                         // two sources in the same (lowest) bucket
        &[4, 5],                         // equal buckets, overlapping columns
        &[1, 3, 4, 5],                   // bound ≤ 32 across buckets 0 and 1
        &[6, 7, 8],                      // bound 29 across buckets 2 and 3
        &[2, 6, 9],                      // the widest source arrives last
        &[9, 8, 7, 6, 5, 4, 3, 2, 1, 0], // every source, reverse order
    ];
    let mut a = CooMatrix::new(rows.len(), sizes.len());
    for (i, srcs) in rows.iter().enumerate() {
        for &k in *srcs {
            a.push(i, k, 1.0);
        }
    }
    let a = a.to_csr().unwrap();
    let mut oracle = Oracle::new(&a, &b);
    for ladder in [
        vec![2, 4, 8, 41],
        vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17],
        vec![0, 1, 41],
        vec![41],
        vec![3],
        vec![],
    ] {
        for threads in [1, 2, 8] {
            oracle.check(&ladder, threads, &format!("hand-built, ladder {ladder:?}"));
        }
    }
    // every source masked off at the lowest threshold: t = 1 keeps only
    // the empty B row in B_L, so every width is 0
    let table = ladder_output_widths(&a, &b, &[1], &ThreadPool::new(1), &WorkspacePool::new());
    assert!(table.iter().all(|&w| w == 0));
    // the top of the ladder keeps every B row: row 10's sources cover
    // every column
    let top = ladder_output_widths(&a, &b, &[41], &ThreadPool::new(1), &WorkspacePool::new());
    assert_eq!(top[10] as usize, ncols);
}

#[test]
fn ladder_keeps_both_ends_for_every_candidate_count() {
    let a = Dataset::by_name("web-Google").unwrap().load::<f64>(32);
    let sym = SymbolicStructure::from_matrix(&a);
    let top = sym.max_row_nnz() + 1;
    for candidates in [0, 1, 2, 3, 10, 64] {
        let ladder = empirical_ladder(&sym, &sym, candidates);
        assert_eq!(ladder.first(), Some(&2), "{candidates} candidates");
        assert_eq!(ladder.last(), Some(&top), "{candidates} candidates");
        assert!(ladder.windows(2).all(|w| w[0] < w[1]), "{ladder:?}");
    }
    assert_eq!(
        empirical_ladder(&sym, &sym, 0),
        empirical_ladder(&sym, &sym, 1)
    );
}
