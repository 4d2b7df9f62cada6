//! The one-walk Phase II ladder price is a Phase I optimisation only:
//! `GpuDevice::spmm_cost_ladder` must price every candidate exactly as a
//! per-candidate `spmm_cost_planned` call on a cold device does — its ns
//! bits, its L2 counters, and the claims that continue from its
//! split-out L2 — for every Table I clone, both A × A and A ≠ B, every
//! ladder thinning, and hand-built rows (empty, all masked, empty B rows).

use std::collections::HashMap;

use hetero_spmm::cache::CacheStats;
use hetero_spmm::core::threshold::empirical_ladder;
use hetero_spmm::core::SymbolicStructure;
use hetero_spmm::hetsim::gpu::masked_output_widths;
use hetero_spmm::hetsim::{GpuDevice, GpuSpec, Platform};
use hetero_spmm::parallel::ThreadPool;
use hetero_spmm::scalefree::{scale_free_matrix, Dataset, GeneratorConfig};
use hetero_spmm::sparse::{CooMatrix, CsrMatrix};

fn scale_free(n: usize, nnz: usize, seed: u64) -> CsrMatrix<f64> {
    scale_free_matrix(&GeneratorConfig::square_power_law(n, nnz, 2.2, seed))
}

/// Rows of `m` that threshold `t` classifies low (`|row| < t.max(1)`).
fn low_rows(m: &CsrMatrix<f64>, t: usize) -> Vec<usize> {
    (0..m.nrows())
        .filter(|&i| m.row_nnz(i) < t.max(1))
        .collect()
}

fn low_mask(m: &CsrMatrix<f64>, t: usize) -> Vec<bool> {
    (0..m.nrows()).map(|i| m.row_nnz(i) < t.max(1)).collect()
}

/// A Phase III-style claim sequence continuing from `dev`'s L2: `A_H` rows
/// against the `B_L` mask claimed from the back in growing grains, then
/// `A_L` rows against the `B_H` mask from the front. Returns every claim's
/// ns bits and the final L2 counters.
fn claims(
    dev: &mut GpuDevice,
    a: &CsrMatrix<f64>,
    b: &CsrMatrix<f64>,
    (t_a, t_b): (usize, usize),
) -> (Vec<u64>, CacheStats) {
    let b_low = low_mask(b, t_b);
    let b_high: Vec<bool> = b_low.iter().map(|&l| !l).collect();
    let rows_al = low_rows(a, t_a);
    let rows_ah: Vec<usize> = (0..a.nrows())
        .filter(|&i| a.row_nnz(i) >= t_a.max(1))
        .collect();
    let mut bits = Vec::new();
    let (mut end, mut grain) = (rows_ah.len(), 1);
    for _ in 0..4 {
        let lo = end.saturating_sub(grain);
        bits.push(
            dev.spmm_cost(a, b, rows_ah[lo..end].iter().copied(), Some(&b_low))
                .to_bits(),
        );
        (end, grain) = (lo, grain * 3);
    }
    let (mut lo, mut grain) = (0, 2);
    for _ in 0..4 {
        let hi = (lo + grain).min(rows_al.len());
        bits.push(
            dev.spmm_cost(a, b, rows_al[lo..hi].iter().copied(), Some(&b_high))
                .to_bits(),
        );
        (lo, grain) = (hi, grain * 3);
    }
    (bits, dev.l2_stats())
}

/// Per-threshold-pair reference of one product, memoised (thinner ladders
/// reuse the denser ladders' thresholds): the per-row width table, and
/// `spmm_cost_planned` over the `A_L` rows under the `B_L` mask on a cold
/// device — its ns bits, L2 counters and the continuation claims.
type Reference = (u64, CacheStats, (Vec<u64>, CacheStats));

struct Oracle<'m> {
    spec: GpuSpec,
    a: &'m CsrMatrix<f64>,
    b: &'m CsrMatrix<f64>,
    pool: ThreadPool,
    widths: HashMap<usize, Vec<u32>>,
    prices: HashMap<(usize, usize), Reference>,
}

impl<'m> Oracle<'m> {
    fn new(spec: GpuSpec, a: &'m CsrMatrix<f64>, b: &'m CsrMatrix<f64>) -> Self {
        Self {
            spec,
            a,
            b,
            pool: ThreadPool::new(2),
            widths: HashMap::new(),
            prices: HashMap::new(),
        }
    }

    fn widths(&mut self, t_b: usize) -> &[u32] {
        let (a, b, pool) = (self.a, self.b, &self.pool);
        self.widths
            .entry(t_b)
            .or_insert_with(|| masked_output_widths(a, b, Some(&low_mask(b, t_b)), pool))
    }

    fn reference(&mut self, t: (usize, usize)) -> &Reference {
        if !self.prices.contains_key(&t) {
            let (a, b) = (self.a, self.b);
            let widths = self.widths(t.1).to_vec();
            let mut dev = GpuDevice::new(self.spec);
            let rows = low_rows(a, t.0).into_iter();
            let ns = dev.spmm_cost_planned(a, b, rows, Some(&low_mask(b, t.1)), &widths);
            let after = dev.l2_stats();
            let continued = claims(&mut dev, a, b, t);
            self.prices.insert(t, (ns.to_bits(), after, continued));
        }
        &self.prices[&t]
    }

    /// Price the ladder `(t_a[k], t_b[k])` in one walk and check every
    /// candidate, and a continuation from its split-out L2, against the
    /// reference.
    fn check(&mut self, t_a: &[usize], t_b: &[usize], what: &str) {
        let n = self.a.nrows();
        let mut table = Vec::with_capacity(t_b.len() * n);
        for &t in t_b {
            table.extend_from_slice(self.widths(t));
        }
        let prices = GpuDevice::new(self.spec).spmm_cost_ladder(self.a, self.b, t_a, t_b, &table);
        assert_eq!(prices.len(), t_a.len(), "{what}: one price per candidate");
        for (k, price) in prices.into_iter().enumerate() {
            let t = (t_a[k], t_b[k]);
            let (a, b, spec) = (self.a, self.b, self.spec);
            let (ns, stats, continued) = self.reference(t).clone();
            assert_eq!(price.ns.to_bits(), ns, "{what}: candidate {k} {t:?} ns");
            assert_eq!(price.l2.stats(), stats, "{what}: candidate {k} {t:?} L2");
            let mut member = GpuDevice::new(spec);
            member.set_l2(price.l2);
            assert_eq!(
                claims(&mut member, a, b, t),
                continued,
                "{what}: candidate {k} {t:?} continuation"
            );
        }
    }

    fn check_ladders(&mut self, what: &str) {
        let sym_a = SymbolicStructure::from_matrix(self.a);
        let sym_b = SymbolicStructure::from_matrix(self.b);
        for c in [1, 3, 10, 64] {
            let ladder = empirical_ladder(&sym_a, &sym_b, c);
            self.check(&ladder, &ladder, &format!("{what}, {c} candidates"));
        }
    }
}

#[test]
fn ladder_walk_matches_per_candidate_prices_on_every_clone() {
    for d in Dataset::all() {
        let name = d.entry().name;
        let spec = Platform::scaled(d.effective_scale(32)).gpu;
        let a = d.load::<f64>(32);
        Oracle::new(spec, &a, &a).check_ladders(name);
        // A ≠ B with B the denser side: the ladder runs up B's longer tail
        let b = scale_free(a.nrows(), 2 * a.nnz(), 19);
        Oracle::new(spec, &a, &b).check_ladders(&format!("{name} != B"));
    }
}

#[test]
fn ladder_walk_matches_with_distinct_a_and_b_thresholds() {
    let d = Dataset::by_name("web-Google").unwrap();
    let spec = Platform::scaled(d.effective_scale(32)).gpu;
    let a = d.load::<f64>(32);
    let b = scale_free(a.nrows(), 2 * a.nnz(), 7);
    let mut oracle = Oracle::new(spec, &a, &b);
    // the Fixed { t_a, t_b } pairs simulate_phases prices as one-entry
    // ladders, and a ladder whose B thresholds run ahead of A's
    for (t_a, t_b) in [(4, 9), (9, 4), (1, 1), (0, 0), (10_000, 10_000)] {
        oracle.check(&[t_a], &[t_b], &format!("one-entry ({t_a}, {t_b})"));
    }
    oracle.check(
        &[2, 4, 8, 16, 64],
        &[3, 3, 12, 40, 40],
        "A and B ladders apart",
    );
    oracle.check(&[], &[], "empty ladder");
}

#[test]
fn ladder_walk_matches_on_hand_built_rows() {
    // B row sizes 0 (empty), 1, 1, 2, 3, 3, 5, 8, 16, 40; A rows: empty,
    // sources that are all empty or all masked below the top candidate,
    // single sources, equal buckets, and every source at once
    let sizes = [0usize, 1, 1, 2, 3, 3, 5, 8, 16, 40];
    let ncols = 48;
    let mut b = CooMatrix::new(sizes.len(), ncols);
    for (k, &s) in sizes.iter().enumerate() {
        for c in 0..s {
            b.push(k, (3 * k + c) % ncols, 1.0);
        }
    }
    let b = b.to_csr().unwrap();
    let rows: &[&[usize]] = &[
        &[],
        &[0],
        &[9],
        &[8, 9],
        &[4],
        &[0, 7],
        &[1, 2],
        &[1, 3, 4, 5],
        &[6, 7, 8],
        &[9, 8, 7, 6, 5, 4, 3, 2, 1, 0],
        &[],
    ];
    let mut a = CooMatrix::new(rows.len(), sizes.len());
    for (i, srcs) in rows.iter().enumerate() {
        for &k in *srcs {
            a.push(i, k, 1.0);
        }
    }
    let a = a.to_csr().unwrap();
    // a 4-set L2 so the few lines alias and evict
    let spec = GpuSpec {
        l2_bytes: 4 * 128 * 16,
        ..GpuSpec::k20c()
    };
    let mut oracle = Oracle::new(spec, &a, &b);
    for ladder in [
        vec![2, 4, 8, 41],
        vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17],
        vec![0, 1, 41],
        vec![41],
        vec![3],
    ] {
        oracle.check(&ladder, &ladder, &format!("hand-built, ladder {ladder:?}"));
    }
}
