//! Phase I: density-threshold selection and row classification (§III-A),
//! and the one Phase II/III simulation of HH-CPU ([`simulate_phases`]).
//!
//! "Keeping t small may mean that the work done by the CPU in Phase II
//! would increase, whereas keeping t large may tilt the balance towards the
//! GPU. Hence, we chose to identify t empirically."
//!
//! Three policies are provided:
//!
//! * [`ThresholdPolicy::Fixed`] — a caller-supplied threshold (what the
//!   Figure 8 sweep uses).
//! * [`ThresholdPolicy::Balanced`] — pick, from the row-size histogram's
//!   quantile candidates, the threshold that best balances the *estimated*
//!   Phase II work between the devices: the "analytical techniques to
//!   identify the threshold" the paper lists as future work (§VI).
//! * [`ThresholdPolicy::Empirical`] — the default and the paper's method:
//!   simulate Phases II and III ([`simulate_phases`]) for every candidate
//!   of a log-spaced ladder ([`empirical_ladder`]) and keep the fastest,
//!   whose [`PhasePlan`] the run then replays instead of simulating it
//!   again. The candidates share two walks before they are simulated: one
//!   structural pass sizes every candidate's GPU output widths
//!   ([`spmm_hetsim::gpu::ladder_output_widths`]), and one walk over A's
//!   rows through a bank of simulated L2s prices every candidate's Phase II
//!   GPU product ([`spmm_hetsim::GpuDevice::spmm_cost_ladder`]). Both are
//!   exact: each candidate's widths, Phase II ns and post-Phase-II L2 equal
//!   what its own simulation would compute, so it continues into Phase III
//!   from them. The Figure 8 sweep ([`estimate_ladder_with`]) prices its
//!   thresholds the same way.

use std::ops::Range;
use std::sync::OnceLock;

use spmm_hetsim::gpu::{
    ladder_output_widths, masked_output_widths_for_pooled, masked_output_widths_pooled,
};
use spmm_hetsim::{DeviceKind, Phase2Price, PhaseTimes};
use spmm_parallel::ThreadPool;
use spmm_sparse::{CsrMatrix, RowHistogram, Scalar};
use spmm_workqueue::{End, RangeQueue};

use crate::context::HeteroContext;
use crate::units::WorkUnitConfig;

/// How Phase I picks the thresholds `t_A` and `t_B`. `Eq`/`Hash` are
/// derived (every variant is integer-parameterised) so a policy can key a
/// serve-layer artifact cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ThresholdPolicy {
    /// Use these exact thresholds for A and B.
    Fixed { t_a: usize, t_b: usize },
    /// Balance estimated Phase II device times over `candidates` histogram
    /// quantiles (per matrix), using the closed-form throughput estimates —
    /// the "analytical techniques" the paper lists as future work (§VI).
    Balanced { candidates: usize },
    /// The paper's approach: "we chose to identify t empirically" (§III-A).
    /// Simulates Phases II and III for about `candidates` thresholds of a
    /// log-spaced ladder ([`empirical_ladder`]; 0 counts as 1) and keeps
    /// the argmin. More accurate than `Balanced`: it costs one Phase II/III
    /// simulation per candidate, plus one structural pass that sizes every
    /// candidate's GPU output widths at once (offline preprocessing in the
    /// paper; not charged to the run).
    Empirical { candidates: usize },
}

impl Default for ThresholdPolicy {
    fn default() -> Self {
        ThresholdPolicy::Empirical { candidates: 10 }
    }
}

/// The chosen thresholds plus the Boolean row classifications ("we prepare
/// a Boolean array of size equal to the number of rows", §III-A).
#[derive(Debug, Clone, PartialEq)]
pub struct Thresholds {
    pub t_a: usize,
    pub t_b: usize,
    /// `true` ⇒ the row belongs to `A_H`.
    pub a_high: Vec<bool>,
    /// `true` ⇒ the row belongs to `B_H`.
    pub b_high: Vec<bool>,
}

impl Thresholds {
    /// Number of high-density rows of A.
    pub fn hd_rows_a(&self) -> usize {
        self.a_high.iter().filter(|&&h| h).count()
    }

    /// Number of high-density rows of B.
    pub fn hd_rows_b(&self) -> usize {
        self.b_high.iter().filter(|&&h| h).count()
    }
}

/// Everything Phase I produced: the thresholds plus the symbolic row-size
/// structures the search built along the way. The algorithm paths keep the
/// structures — the Phase III grain calculation reads its means and nnz
/// totals from these prefix sums instead of re-walking the CSR.
#[derive(Debug, Clone)]
pub struct Phase1Plan {
    pub thresholds: Thresholds,
    pub sym_a: SymbolicStructure,
    /// `None` for the self-product `A × A` (one structure serves both).
    pub sym_b: Option<SymbolicStructure>,
}

impl Phase1Plan {
    /// The B-side structure (A's own for the self-product).
    pub fn sym_b(&self) -> &SymbolicStructure {
        self.sym_b.as_ref().unwrap_or(&self.sym_a)
    }
}

/// Run Phase I: select thresholds per `policy` and classify every row of
/// `a` and `b`.
pub fn identify<T: Scalar>(
    ctx: &HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    policy: ThresholdPolicy,
) -> Thresholds {
    identify_plan(ctx, a, b, policy).thresholds
}

/// [`identify`] returning the symbolic structures alongside the
/// thresholds. Classification goes through [`SymbolicStructure::classify`]
/// (the cached size array), which is definitionally identical to
/// [`classify`] on the source matrix.
pub fn identify_plan<T: Scalar>(
    ctx: &HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    policy: ThresholdPolicy,
) -> Phase1Plan {
    identify_with_winner(ctx, a, b, policy).0
}

/// [`identify_plan`] plus, under [`ThresholdPolicy::Empirical`], the
/// winning candidate's Phase II/III plan and width tables.
pub(crate) fn identify_with_winner<T: Scalar>(
    ctx: &HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    policy: ThresholdPolicy,
) -> (Phase1Plan, Option<(PhasePlan, WidthTables)>) {
    let sym_a = SymbolicStructure::from_matrix(a);
    let sym_b = if std::ptr::eq(a, b) {
        None
    } else {
        Some(SymbolicStructure::from_matrix(b))
    };
    let mut winner = None;
    let (t_a, t_b) = match policy {
        ThresholdPolicy::Fixed { t_a, t_b } => (t_a, t_b),
        ThresholdPolicy::Balanced { candidates } => {
            let ha = RowHistogram::from_matrix(a);
            let hb = RowHistogram::from_matrix(b);
            let t_a = balanced_threshold(ctx, &ha, &hb, candidates);
            // For the self-product A × A the two scans coincide; in general
            // B gets its own balance point.
            let t_b = if std::ptr::eq(a, b) || (a.shape() == b.shape() && ha == hb) {
                t_a
            } else {
                balanced_threshold(ctx, &hb, &ha, candidates)
            };
            (t_a, t_b)
        }
        ThresholdPolicy::Empirical { candidates } => {
            let (t, best) = empirical_threshold(
                ctx,
                a,
                b,
                candidates,
                &sym_a,
                sym_b.as_ref().unwrap_or(&sym_a),
            );
            winner = best;
            (t, t)
        }
    };
    let a_high = sym_a.classify(t_a);
    let b_high = sym_b.as_ref().unwrap_or(&sym_a).classify(t_b);
    let plan = Phase1Plan {
        thresholds: Thresholds {
            t_a,
            t_b,
            a_high,
            b_high,
        },
        sym_a,
        sym_b,
    };
    (plan, winner)
}

/// The Boolean array: row `i` is high-density iff it has at least `t`
/// nonzeros. `t = 0` marks every row high (all-CPU degenerate case); a `t`
/// above the max row size marks none (HH-CPU degenerates to [13], §V-B d).
pub fn classify<T: Scalar>(m: &CsrMatrix<T>, t: usize) -> Vec<bool> {
    (0..m.nrows()).map(|i| m.row_nnz(i) >= t.max(1)).collect()
}

/// Symbolic row-size structure shared by every candidate of one Phase I
/// search: the per-row sizes plus an nnz-sorted copy with prefix sums.
///
/// Thresholding is monotone in row nnz, so once the sizes are sorted every
/// candidate's aggregate — HD/LD row counts, HD/LD nnz totals, and the
/// mean row sizes the Phase III grain calculation needs — falls out of one
/// `partition_point` binary search plus a prefix-sum lookup: `O(log n)`
/// per candidate instead of the `O(n + nnz)` re-scan the serial search
/// paid. The aggregates are *exact*, not approximate: integer sums over a
/// permutation of the same rows are order-free, so every derived f64 is
/// bit-identical to the quantity the per-candidate scan produced.
#[derive(Debug, Clone)]
pub struct SymbolicStructure {
    /// nnz of every row, in row order (row sizes fit u32: ≤ ncols).
    row_sizes: Vec<u32>,
    /// Row sizes sorted ascending.
    sorted_sizes: Vec<u32>,
    /// `prefix_nnz[k]` = total nnz of the `k` smallest rows.
    prefix_nnz: Vec<u64>,
}

impl SymbolicStructure {
    /// One `O(n log n)` pass over the matrix; every candidate afterwards is
    /// `O(log n)` (aggregates) or one cheap `O(n)` sweep of the cached size
    /// array (row lists / Boolean masks — no CSR walk).
    pub fn from_matrix<T: Scalar>(m: &CsrMatrix<T>) -> Self {
        let row_sizes: Vec<u32> = (0..m.nrows()).map(|i| m.row_nnz(i) as u32).collect();
        let mut sorted_sizes = row_sizes.clone();
        sorted_sizes.sort_unstable();
        let mut prefix_nnz = Vec::with_capacity(sorted_sizes.len() + 1);
        let mut acc = 0u64;
        prefix_nnz.push(0);
        for &s in &sorted_sizes {
            acc += s as u64;
            prefix_nnz.push(acc);
        }
        Self {
            row_sizes,
            sorted_sizes,
            prefix_nnz,
        }
    }

    /// Rows in the matrix.
    pub fn nrows(&self) -> usize {
        self.row_sizes.len()
    }

    /// Approximate heap footprint, for serve-layer cache accounting.
    pub fn byte_size(&self) -> usize {
        (self.row_sizes.len() + self.sorted_sizes.len()) * 4 + self.prefix_nnz.len() * 8
    }

    /// Total stored entries.
    pub fn nnz(&self) -> u64 {
        *self.prefix_nnz.last().unwrap()
    }

    /// Largest row size.
    pub fn max_row_nnz(&self) -> usize {
        self.sorted_sizes.last().copied().unwrap_or(0) as usize
    }

    /// nnz of row `i`, from the cached size array (no CSR access).
    pub fn row_size(&self, i: usize) -> usize {
        self.row_sizes[i] as usize
    }

    /// Index of the first sorted row with at least `max(t, 1)` nonzeros —
    /// everything below is `L`, everything from it on is `H`. `O(log n)`.
    fn split_point(&self, t: usize) -> usize {
        let t = t.max(1);
        self.sorted_sizes.partition_point(|&s| (s as usize) < t)
    }

    /// Number of high-density rows under threshold `t`. `O(log n)`.
    pub fn hd_rows(&self, t: usize) -> usize {
        self.nrows() - self.split_point(t)
    }

    /// Total nnz in low-density rows under `t`. `O(log n)`.
    pub fn ld_nnz(&self, t: usize) -> u64 {
        self.prefix_nnz[self.split_point(t)]
    }

    /// Total nnz in high-density rows under `t`. `O(log n)`.
    pub fn hd_nnz(&self, t: usize) -> u64 {
        self.nnz() - self.ld_nnz(t)
    }

    /// The Boolean array, identical to [`classify`] on the source matrix.
    pub fn classify(&self, t: usize) -> Vec<bool> {
        let t = t.max(1);
        self.row_sizes.iter().map(|&s| s as usize >= t).collect()
    }

    /// `(rows_h, rows_l)` in ascending row order — the exact walk order the
    /// stateful device models require, derived from the cached size array
    /// without touching the CSR.
    pub fn partition_rows(&self, t: usize) -> (Vec<usize>, Vec<usize>) {
        let split = self.split_point(t);
        let t = t.max(1);
        let mut rows_h = Vec::with_capacity(self.nrows() - split);
        let mut rows_l = Vec::with_capacity(split);
        for (i, &s) in self.row_sizes.iter().enumerate() {
            if s as usize >= t {
                rows_h.push(i);
            } else {
                rows_l.push(i);
            }
        }
        (rows_h, rows_l)
    }
}

/// Pick the candidate threshold minimising the estimated Phase II wall
/// time `max(cpu(A_H × B_H), gpu(A_L × B_L))`.
///
/// Work volumes are estimated from the histograms alone, assuming
/// uniformly placed columns: an entry of `A_X` lands in a row of `B_Y`
/// with probability `nnz(B_Y) / (rows(B) · mean(B))`, so
/// `flops(A_X × B_Y) ≈ nnz(A_X) · nnz(B_Y) / rows(B)` — the a-priori proxy
/// for the true flop count (which §I notes cannot be known without doing
/// the multiplication). Device speeds come from the density-aware
/// estimates in [`HeteroContext`].
fn balanced_threshold(
    ctx: &HeteroContext,
    rows_hist: &RowHistogram,
    other_hist: &RowHistogram,
    candidates: usize,
) -> usize {
    let total_nnz = rows_hist.nnz() as f64;
    let other_rows = other_hist.nrows() as f64;
    let other_nnz = other_hist.nnz() as f64;

    let mut best = (f64::INFINITY, 1usize);
    for t in rows_hist.threshold_candidates(candidates) {
        let hd_nnz = rows_hist.high_density_nnz(t) as f64;
        let ld_nnz = total_nnz - hd_nnz;
        let other_hd_rows = other_hist.high_density_rows(t) as f64;
        let other_hd_nnz = other_hist.high_density_nnz(t) as f64;
        let mean_high = if other_hd_rows > 0.0 {
            other_hd_nnz / other_hd_rows
        } else {
            0.0
        };
        let other_ld_rows = other_rows - other_hd_rows;
        let other_ld_nnz = other_nnz - other_hd_nnz;
        let mean_low = if other_ld_rows > 0.0 {
            other_ld_nnz / other_ld_rows
        } else {
            0.0
        };

        // flops of the two Phase II products under uniform column placement
        let flops_hh = hd_nnz * other_hd_nnz / other_rows;
        let flops_ll = ld_nnz * other_ld_nnz / other_rows;
        let cpu_est = flops_hh * ctx.cpu_ns_per_flop_estimate(mean_high);
        let gpu_est = flops_ll * ctx.gpu_ns_per_flop_estimate(mean_low);
        let wall = cpu_est.max(gpu_est);
        if wall < best.0 {
            best = (wall, t);
        }
    }
    best.1
}

/// The paper's empirical Phase I search: for each candidate threshold,
/// simulate Phases II and III on cold devices ([`simulate_phases`]) and
/// keep the candidate with the smallest `phase II wall + phase III wall`.
/// One threshold is used for both matrices, as in the paper's per-matrix
/// experiments (Figure 5 annotates a single threshold). The winner's plan
/// and width tables come back with its pick, so the run that follows never
/// simulates it a second time.
///
/// Every candidate comes out of [`fold_ladder`], which shares one width
/// pass and one Phase II walk between them; each candidate's plan is
/// bit-identical to a [`simulate_phases`] of its own on cold devices.
/// Candidates are folded by total cost, a tie going to the lower `t`,
/// within each group of the fan-out and then across the groups, so the
/// pick is the first minimum of the ladder — the same `t`, plan and cost
/// for every host thread count.
fn empirical_threshold<T: Scalar>(
    ctx: &HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    candidates: usize,
    sym_a: &SymbolicStructure,
    sym_b: &SymbolicStructure,
) -> (usize, Option<(PhasePlan, WidthTables)>) {
    type Best = (f64, usize, Option<(PhasePlan, WidthTables)>);
    let ladder = empirical_ladder(sym_a, sym_b, candidates);
    let none = || (f64::INFINITY, 1usize, None);
    // the ladder ascends, so the lower `t` of a tie is the earlier candidate
    let keep = |best: &mut Best, next: Best| {
        if next.0 < best.0 || (next.0 == best.0 && next.1 < best.1) {
            *best = next;
        }
    };
    let groups = fold_ladder(
        ctx,
        a,
        b,
        &ladder,
        sym_a,
        sym_b,
        none,
        |best, k, candidate| {
            let total = candidate.0.phase2.wall() + candidate.0.phase3.wall();
            keep(best, (total, ladder[k], Some(candidate)));
        },
    );
    let best = groups.into_iter().fold(none(), |mut best, group| {
        keep(&mut best, group);
        best
    });
    (best.1, best.2)
}

/// Simulate every distinct candidate `t` of an ascending `ladder` (one
/// threshold for both operands) with the default work units, and fold each
/// one's ladder index, plan and width tables into a per-group accumulator.
/// Returns the group accumulators.
///
/// A candidate that classifies every row of A and B as an earlier one does
/// ([`ladder_classes`]) has that candidate's plan, so it is not simulated
/// and not folded: the lowest `t` of each class stands for it, which is
/// the one a tie goes to anyway.
///
/// One [`ladder_output_widths`] pass sizes every candidate's `B_L` widths.
/// The ladder is then dealt into interleaved groups, one per host thread
/// the hardware runs at once (group `g` takes candidates `g, g + groups,
/// …`, so every group holds cheap and dear thresholds alike), and each
/// group prices its candidates' Phase II GPU products in one
/// [`spmm_hetsim::GpuDevice::spmm_cost_ladder`] walk, then simulates them
/// in ladder order on its own fresh devices ([`serial_context`]), each
/// seeded with its width table and its Phase II price (a group of one
/// candidate skips the walk). A candidate's plan is a function of its
/// threshold alone, so the results are bit-identical for every grouping
/// and thread count.
#[allow(clippy::too_many_arguments)]
fn fold_ladder<T: Scalar, R: Send>(
    ctx: &HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    ladder: &[usize],
    sym_a: &SymbolicStructure,
    sym_b: &SymbolicStructure,
    init: impl Fn() -> R + Sync,
    fold: impl Fn(&mut R, usize, (PhasePlan, WidthTables)) + Sync,
) -> Vec<R> {
    let classes = ladder_classes(ladder, sym_a, sym_b);
    let kept: Vec<usize> = (0..ladder.len()).filter(|&k| classes[k] == k).collect();
    let ladder: Vec<usize> = kept.iter().map(|&k| ladder[k]).collect();
    let (n, m) = (a.nrows(), ladder.len());
    let table = ladder_output_widths(a, b, &ladder, &ctx.pool, &ctx.workspaces);
    // groups past the hardware's parallelism would only timeslice, each
    // repeating the walk
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let groups = ctx.pool.num_threads().min(hw).clamp(1, m.max(1));
    ctx.pool.par_map(groups, |g| {
        let ks: Vec<usize> = (g..m).step_by(groups).collect();
        let mut sim = serial_context(ctx);
        let prices: Vec<Option<Phase2Price>> = if ks.len() == 1 {
            // a lone candidate shares nothing: its simulation prices its
            // own Phase II
            vec![None]
        } else {
            let t: Vec<usize> = ks.iter().map(|&k| ladder[k]).collect();
            let widths: Vec<u32> = ks
                .iter()
                .flat_map(|&k| &table[k * n..(k + 1) * n])
                .copied()
                .collect();
            let prices = sim.gpu.spmm_cost_ladder(a, b, &t, &t, &widths);
            prices.into_iter().map(Some).collect()
        };
        let mut acc = init();
        for (k, price) in ks.into_iter().zip(prices) {
            let widths = WidthTables {
                low: OnceLock::from(table[k * n..(k + 1) * n].to_vec()),
                high: OnceLock::new(),
            };
            let t = (ladder[k], ladder[k]);
            let candidate = evaluate(&mut sim, a, b, t, sym_a, sym_b, widths, price);
            fold(&mut acc, kept[k], candidate);
        }
        acc
    })
}

/// For each threshold of an ascending `ladder`, the index of the first one
/// that splits A and B into the same high and low rows. Thresholds with no
/// row size of either operand between them have equal high-row counts —
/// a higher threshold only moves rows from high to low — and every plan
/// input is a function of the split, so the two plans are identical.
fn ladder_classes(
    ladder: &[usize],
    sym_a: &SymbolicStructure,
    sym_b: &SymbolicStructure,
) -> Vec<usize> {
    let split = |t| (sym_a.hd_rows(t), sym_b.hd_rows(t));
    let mut first = 0;
    (0..ladder.len())
        .map(|k| {
            if split(ladder[k]) != split(ladder[first]) {
                first = k;
            }
            first
        })
        .collect()
}

/// The thresholds [`ThresholdPolicy::Empirical`] weighs: a log-spaced
/// ladder `2, 4, 8, …` up to the longer row of either operand, plus the
/// all-GPU end `max + 1`, thinned evenly to about `candidates` entries
/// while keeping both ends (`candidates = 0` is treated as 1). Strictly
/// ascending.
///
/// The interesting thresholds live in the distribution's tail, which
/// row-count quantiles never reach. The single shared `t` classifies
/// *both* matrices, so for A ≠ B products (the Figure 10 workload) the
/// ladder spans whichever tail is longer — building it from A alone would
/// leave B's hub rows unexplored.
pub fn empirical_ladder(
    sym_a: &SymbolicStructure,
    sym_b: &SymbolicStructure,
    candidates: usize,
) -> Vec<usize> {
    let max_size = sym_b.max_row_nnz().max(sym_a.max_row_nnz());
    // the sweep without its all-CPU end
    let mut ladder = sweep_ladder(max_size).split_off(1);
    let candidates = candidates.max(1);
    if ladder.len() > candidates {
        // thin evenly, keeping the ends
        let stride = ladder.len().div_ceil(candidates);
        let last = *ladder.last().unwrap();
        ladder = ladder.into_iter().step_by(stride).collect();
        if *ladder.last().unwrap() != last {
            ladder.push(last);
        }
    }
    ladder
}

/// The Figure 8 sweep over a matrix whose longest row holds `max_row`
/// nonzeros: the all-CPU end `0`, the log-spaced `2, 4, 8, …` up to
/// `max_row`, and the all-GPU end `max_row + 1`. Strictly ascending.
pub fn sweep_ladder(max_row: usize) -> Vec<usize> {
    let mut ladder = vec![0];
    let mut t = 2usize;
    while t <= max_row {
        ladder.push(t);
        t *= 2;
    }
    ladder.push(max_row + 1);
    ladder
}

/// A context with fresh devices of `ctx`'s platform and a one-thread pool:
/// width tables built inside `par_map` workers must not nest pools.
pub(crate) fn serial_context(ctx: &HeteroContext) -> HeteroContext {
    HeteroContext::with_shared(ctx.platform, ThreadPool::new(1), ctx.workspaces.clone())
}

/// One threshold pair's simulated Phase II/III plan under the default
/// (adaptive) work units, with `widths` — as seeded, plus the tables it
/// built on the way — and its Phase II GPU price when a ladder walk has
/// already computed it.
#[allow(clippy::too_many_arguments)]
pub(crate) fn evaluate<T: Scalar>(
    sim: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    (t_a, t_b): (usize, usize),
    sym_a: &SymbolicStructure,
    sym_b: &SymbolicStructure,
    widths: WidthTables,
    gpu2: Option<Phase2Price>,
) -> (PhasePlan, WidthTables) {
    let units = adaptive_units(sym_a, t_a);
    let plan = simulate_seeded(sim, a, b, (t_a, t_b), sym_a, sym_b, units, &widths, gpu2);
    (plan, widths)
}

/// The Phase II and Phase III walls of the [`simulate_phases`] plan that
/// an empirical Phase I would weigh for each threshold of an ascending
/// `ladder` (repeats allowed), in order: the Figure 8 sweep. Cost model
/// only, on fresh devices, with no numeric work; pass the same structure
/// twice for the self-product. The thresholds share one width pass and one
/// Phase II walk per candidate group, exactly as the empirical search's
/// candidates do, and each pair is bit-identical to the one-threshold
/// ladder `&[t]`. A threshold that splits the rows as a lower one does
/// copies that one's walls instead of being simulated.
pub fn estimate_ladder_with<T: Scalar>(
    ctx: &HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    ladder: &[usize],
    sym_a: &SymbolicStructure,
    sym_b: &SymbolicStructure,
) -> Vec<(f64, f64)> {
    let walls = |out: &mut Vec<_>, k, (plan, _): (PhasePlan, _)| {
        out.push((k, (plan.phase2.wall(), plan.phase3.wall())));
    };
    let mut swept = vec![(0.0, 0.0); ladder.len()];
    for (k, walls) in fold_ladder(ctx, a, b, ladder, sym_a, sym_b, Vec::new, walls).concat() {
        swept[k] = walls;
    }
    let classes = ladder_classes(ladder, sym_a, sym_b);
    (0..ladder.len()).map(|k| swept[classes[k]]).collect()
}

/// GPU output-width tables of one threshold pair's masks, each built on
/// first use and kept: `low` under the `B_L` mask over all A rows (the
/// Phase II `A_L × B_L` product and the GPU's `A_H × B_L` claims), and
/// `high` under the `B_H` mask over `A_L` rows only, needed just when the
/// GPU drains the CPU's queue end. Widths are integer tables, so a kept
/// table is bit-equal to a rebuilt one.
#[derive(Debug, Default)]
pub struct WidthTables {
    pub low: OnceLock<Vec<u32>>,
    pub high: OnceLock<Vec<u32>>,
}

/// One Phase III claim off the double-ended queue, in the order the
/// simulation pushed it.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedClaim {
    pub device: DeviceKind,
    /// `true` ⇒ rows of `A_H` against the `B_L` mask (the GPU end's
    /// product); `false` ⇒ rows of `A_L` against `B_H` (the CPU end's).
    pub high: bool,
    /// Range into [`PhasePlan::rows_ah`] (`high`) or [`PhasePlan::rows_al`].
    pub rows: Range<usize>,
    /// Simulated ns the cost model charged for the claim.
    pub sim_ns: f64,
}

/// The outcome of one Phase II/III simulation — a pure function of the
/// operands, the threshold pair, the platform and the work units, so it
/// can be kept with the Phase I artifacts and replayed by every later run
/// instead of being simulated again.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePlan {
    /// Phase II: `A_H × B_H` on the CPU ∥ `A_L × B_L` on the GPU.
    pub phase2: PhaseTimes,
    /// Phase III: the two device clocks when the queue ran dry.
    pub phase3: PhaseTimes,
    /// `A_H` rows in ascending order.
    pub rows_ah: Vec<usize>,
    /// `A_L` rows in ascending order.
    pub rows_al: Vec<usize>,
    /// The `B_L` mask (the complement of [`Thresholds::b_high`]).
    pub b_low: Vec<bool>,
    /// Phase III claims in push order.
    pub claims: Vec<PlannedClaim>,
    /// The work-unit grains the queue was simulated with.
    pub units: WorkUnitConfig,
}

/// The work units a run uses when the caller names none: sized to the
/// `A_L` / `A_H` row-list lengths ([`WorkUnitConfig::adaptive`]).
pub fn adaptive_units(sym_a: &SymbolicStructure, t_a: usize) -> WorkUnitConfig {
    let high = sym_a.hd_rows(t_a);
    WorkUnitConfig::adaptive(sym_a.nrows() - high, high)
}

/// The Phase II/III simulation of HH-CPU (§III-B, §III-C) for thresholds
/// `(t_a, t_b)` on cold devices, with no numeric work. The empirical
/// Phase I runs it once per candidate, and a run replays its plan.
///
/// Phase II overlaps `A_H × B_H` on the CPU (the cache-blocked kernel, B_H
/// tiled through L2) with `A_L × B_L` on the GPU. Phase III runs
/// `A_L × B_H` and `A_H × B_L` through the double-ended workqueue: "on the
/// CPU end of the queue, we fill the queue with work-units corresponding
/// to the product A_L × B_H and on the GPU end … A_H × B_L"; a device
/// moves to the other product only "after finishing" its own. Work-unit
/// sizes follow §IV-B, converted from the paper's row counts into a
/// nonzero budget so a claim of dense A_H rows is as small (in rows) as it
/// is heavy (per row). The simulation is event-driven: whichever device's
/// clock is behind claims next, so the clocks stay near-equal — the load
/// balance the queue exists for.
///
/// `ctx`'s devices are reset at entry, and only its platform, devices,
/// pool and workspaces are used. GPU costs are read against `widths`, each
/// table built on first need through `ctx.pool` and kept there for the
/// caller. The GPU's Phase II product and its Phase III claims, which
/// continue from the L2 Phase II left behind, are priced by
/// [`spmm_hetsim::GpuDevice::spmm_cost_planned`]; the empirical search
/// seeds the Phase II price from its ladder walk instead.
#[allow(clippy::too_many_arguments)]
pub fn simulate_phases<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    t: (usize, usize),
    sym_a: &SymbolicStructure,
    sym_b: &SymbolicStructure,
    units: WorkUnitConfig,
    widths: &WidthTables,
) -> PhasePlan {
    simulate_seeded(ctx, a, b, t, sym_a, sym_b, units, widths, None)
}

/// [`simulate_phases`], taking the GPU's Phase II price from `gpu2` when a
/// ladder walk has already computed it for `t_b`'s `B_L` mask over
/// `t_a`'s `A_L` rows.
#[allow(clippy::too_many_arguments)]
fn simulate_seeded<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    (t_a, t_b): (usize, usize),
    sym_a: &SymbolicStructure,
    sym_b: &SymbolicStructure,
    units: WorkUnitConfig,
    widths: &WidthTables,
    gpu2: Option<Phase2Price>,
) -> PhasePlan {
    ctx.reset();
    let (rows_ah, rows_al) = sym_a.partition_rows(t_a);
    let b_high = sym_b.classify(t_b);
    let b_low: Vec<bool> = b_high.iter().map(|&h| !h).collect();
    let hd_b = sym_b.hd_rows(t_b);
    let ld_b = b.nrows() - hd_b;
    let w_low = widths.low.get_or_init(|| {
        masked_output_widths_pooled(a, b, Some(&b_low), &ctx.pool, &ctx.workspaces)
    });

    let cpu2 = ctx
        .cpu
        .spmm_cost_blocked(a, b, rows_ah.iter().copied(), Some(&b_high));
    // Phase III's GPU claims continue from the L2 the Phase II product
    // left behind: a walk's price carries its L2 along
    let gpu2 = match gpu2 {
        Some(price) => {
            ctx.gpu.set_l2(price.l2);
            price.ns
        }
        None => ctx
            .gpu
            .spmm_cost_planned(a, b, rows_al.iter().copied(), Some(&b_low), w_low),
    };

    // Means and totals from the Phase I prefix sums: integer sums over
    // fixed row sets, so every derived f64 is bit-identical to a CSR
    // rescan — one binary search instead of an O(rows) walk.
    let mean_al = if rows_al.is_empty() {
        0.0
    } else {
        sym_a.ld_nnz(t_a) as f64 / rows_al.len() as f64
    };
    let mean_ah = if rows_ah.is_empty() {
        0.0
    } else {
        sym_a.hd_nnz(t_a) as f64 / rows_ah.len() as f64
    };
    // The CPU's A_L × B_H work is one cache-blocked tiling pass shared by
    // all of its claims (consecutive rows off the same end continue the
    // pass), so the pass is costed once and claims are charged their nnz
    // share of it.
    let lh_nnz = sym_a.ld_nnz(t_a) as f64;
    let lh_blocked_total = if hd_b > 0 && !rows_al.is_empty() {
        ctx.cpu
            .spmm_cost_blocked(a, b, rows_al.iter().copied(), Some(&b_high))
    } else {
        0.0
    };
    // structurally-zero products are not enqueued at all
    let lh_queue = RangeQueue::new(if hd_b > 0 { rows_al.len() } else { 0 });
    let hl_queue = RangeQueue::new(if ld_b > 0 { rows_ah.len() } else { 0 });
    let cpu_claim_nnz = (units.cpu_rows as f64 * mean_al).max(1.0);
    let gpu_claim_nnz = (units.gpu_rows as f64 * mean_ah).max(1.0);
    let grain = |claim_nnz: f64, mean: f64| ((claim_nnz / mean.max(1.0)) as usize).max(1);

    let mut claims = Vec::new();
    let (mut cpu_clock, mut gpu_clock) = (0.0f64, 0.0f64);
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
        let Some((piece, high)) = claim else { break };
        let (rows, mask): (&[usize], &[bool]) = if high {
            (&rows_ah[piece.clone()], &b_low)
        } else {
            (&rows_al[piece.clone()], &b_high)
        };
        let (device, sim_ns) = if cpu_turn {
            // B_H-side products stay cache-blocked on the CPU (the claim's
            // share of the single tiling pass); when the CPU helps with
            // the GPU end (A_H × B_L) the B operand is scattered and the
            // streaming kernel is the right model.
            let ns = if high {
                ctx.cpu.spmm_cost(a, b, rows.iter().copied(), Some(mask))
            } else {
                let piece_nnz = rows.iter().map(|&i| sym_a.row_size(i)).sum::<usize>() as f64;
                lh_blocked_total * piece_nnz / lh_nnz.max(1.0)
            };
            cpu_clock += ns;
            (DeviceKind::Cpu, ns)
        } else {
            let w = if high {
                w_low
            } else {
                widths.high.get_or_init(|| {
                    masked_output_widths_for_pooled(
                        a,
                        b,
                        Some(&b_high),
                        &rows_al,
                        &ctx.pool,
                        &ctx.workspaces,
                    )
                })
            };
            let ns = ctx
                .gpu
                .spmm_cost_planned(a, b, rows.iter().copied(), Some(mask), w);
            gpu_clock += ns;
            (DeviceKind::Gpu, ns)
        };
        claims.push(PlannedClaim {
            device,
            high,
            rows: piece,
            sim_ns,
        });
    }
    PhasePlan {
        phase2: PhaseTimes::new(cpu2, gpu2),
        phase3: PhaseTimes::new(cpu_clock, gpu_clock),
        rows_ah,
        rows_al,
        b_low,
        claims,
        units,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmm_scalefree::{scale_free_matrix, GeneratorConfig};

    fn scale_free(n: usize, nnz: usize, alpha: f64) -> CsrMatrix<f64> {
        scale_free_matrix(&GeneratorConfig::square_power_law(n, nnz, alpha, 42))
    }

    #[test]
    fn fixed_policy_is_respected() {
        let ctx = HeteroContext::paper();
        let a = scale_free(2_000, 10_000, 2.3);
        let th = identify(&ctx, &a, &a, ThresholdPolicy::Fixed { t_a: 7, t_b: 9 });
        assert_eq!(th.t_a, 7);
        assert_eq!(th.t_b, 9);
        for i in 0..a.nrows() {
            assert_eq!(th.a_high[i], a.row_nnz(i) >= 7);
            assert_eq!(th.b_high[i], a.row_nnz(i) >= 9);
        }
    }

    #[test]
    fn classify_degenerate_ends() {
        let a = scale_free(1_000, 5_000, 2.5);
        // t = 0 (clamped to 1): every nonempty row is "high" → all-CPU
        let all = classify(&a, 0);
        let nonempty = (0..a.nrows()).filter(|&i| a.row_nnz(i) > 0).count();
        assert_eq!(all.iter().filter(|&&h| h).count(), nonempty);
        // t beyond max: nothing is high → algorithm degenerates to [13]
        let none = classify(&a, a.max_row_nnz() + 1);
        assert!(none.iter().all(|&h| !h));
    }

    #[test]
    fn balanced_picks_interior_threshold_on_scale_free_input() {
        let ctx = HeteroContext::paper();
        let a = scale_free(20_000, 120_000, 2.2);
        let th = identify(&ctx, &a, &a, ThresholdPolicy::Balanced { candidates: 16 });
        assert!(th.t_a > 1, "threshold should not be the all-CPU end");
        assert!(
            th.t_a <= a.max_row_nnz(),
            "threshold should not be the all-GPU end"
        );
        // scale-free ⇒ few high-density rows
        let hd = th.hd_rows_a();
        assert!(hd > 0, "some rows must be high-density");
        assert!(
            (hd as f64) < 0.5 * a.nrows() as f64,
            "most rows must stay low-density (hd = {hd})"
        );
    }

    #[test]
    fn self_product_uses_equal_thresholds() {
        let ctx = HeteroContext::paper();
        let a = scale_free(5_000, 30_000, 2.5);
        let th = identify(&ctx, &a, &a, ThresholdPolicy::default());
        assert_eq!(th.t_a, th.t_b);
    }

    #[test]
    fn empirical_beats_or_matches_balanced_in_model_time() {
        // the empirical search evaluates the true cost model, so its pick
        // can never be worse than the closed-form balance point
        let ctx = HeteroContext::scaled(16);
        let a = scale_free(8_000, 64_000, 2.2);
        let emp = identify(&ctx, &a, &a, ThresholdPolicy::default());
        let bal = identify(&ctx, &a, &a, ThresholdPolicy::Balanced { candidates: 16 });
        let sym = SymbolicStructure::from_matrix(&a);
        let cost = |t| {
            let (p2, p3) = estimate_ladder_with(&ctx, &a, &a, &[t], &sym, &sym)[0];
            p2 + p3
        };
        let (emp_cost, bal_cost) = (cost(emp.t_a), cost(bal.t_a));
        assert!(
            emp_cost <= bal_cost * 1.05,
            "empirical pick t={} ({emp_cost}) worse than balanced t={} ({bal_cost})",
            emp.t_a,
            bal.t_a
        );
    }

    #[test]
    fn zero_empirical_candidates_count_as_one() {
        let ctx = HeteroContext::scaled(32);
        let a = scale_free(3_000, 15_000, 2.2);
        let zero = identify(&ctx, &a, &a, ThresholdPolicy::Empirical { candidates: 0 });
        let one = identify(&ctx, &a, &a, ThresholdPolicy::Empirical { candidates: 1 });
        assert_eq!(zero, one);
    }

    /// A square operand whose rows hold 1, 3, 12 or 40 entries, so the
    /// thresholds 4 and 8, and 16 and 32, split its rows alike.
    fn gapped(n: usize) -> CsrMatrix<f64> {
        let mut coo = spmm_sparse::CooMatrix::new(n, n);
        for i in 0..n {
            for j in 0..[1, 3, 12, 40][i % 4] {
                coo.push(i, (i * 7 + j * 131) % n, 1.0 + j as f64 / 8.0);
            }
        }
        coo.to_csr().unwrap()
    }

    #[test]
    fn duplicate_ladder_thresholds_match_one_threshold_ladders() {
        let ctx = HeteroContext::scaled(32);
        let a = gapped(2_000);
        let sym = SymbolicStructure::from_matrix(&a);
        let ladder = [0, 1, 2, 4, 8, 16, 32, 41];
        assert_eq!(
            ladder_classes(&ladder, &sym, &sym),
            [0, 0, 2, 3, 3, 5, 5, 7]
        );
        let alone = |t| estimate_ladder_with(&ctx, &a, &a, &[t], &sym, &sym)[0];
        let swept = estimate_ladder_with(&ctx, &a, &a, &ladder, &sym, &sym);
        for (&t, &(p2, p3)) in ladder.iter().zip(&swept) {
            let (want2, want3) = alone(t);
            assert_eq!(
                (p2.to_bits(), p3.to_bits()),
                (want2.to_bits(), want3.to_bits()),
                "t = {t}"
            );
        }
        // the empirical search weighs both pairs and picks the first
        // minimum of the one-threshold totals
        let ladder = empirical_ladder(&sym, &sym, 16);
        assert!(ladder.windows(2).any(|w| w == [4, 8]) && ladder.windows(2).any(|w| w == [16, 32]));
        let mut best = (f64::INFINITY, 0);
        for &t in &ladder {
            let (p2, p3) = alone(t);
            if p2 + p3 < best.0 {
                best = (p2 + p3, t);
            }
        }
        let th = identify(&ctx, &a, &a, ThresholdPolicy::Empirical { candidates: 16 });
        assert_eq!((th.t_a, th.t_b), (best.1, best.1));
    }

    #[test]
    fn hd_counts_match_masks() {
        let ctx = HeteroContext::paper();
        let a = scale_free(3_000, 15_000, 2.4);
        let th = identify(&ctx, &a, &a, ThresholdPolicy::Fixed { t_a: 5, t_b: 5 });
        assert_eq!(th.hd_rows_a(), th.a_high.iter().filter(|&&x| x).count());
        assert_eq!(th.hd_rows_a(), th.hd_rows_b());
    }
}
