//! The paper's exhibits — Table I and Figures 1 and 5–10 — computed on the
//! simulated platform at `1/scale` of the paper's matrix sizes.
//!
//! [`figures`] returns one [`Json`] row per exhibit row (a Table I matrix,
//! or a Figure 10 point), grouped by exhibit in the paper's order.
//! `spmm figures [scale]` writes them as JSON lines ([`json_lines`]) and
//! prints the paper-style tables ([`print_tables`]). Every number is
//! simulated time or a count, so the rows are identical on every run and
//! host; `tests/paper_figures.rs` pins the scale-128 series byte for byte
//! (`tests/golden/figures.jsonl`) and checks the paper's shape claims on
//! it.
//!
//! Each Table I matrix is loaded once, with a platform matched to its own
//! shrink factor ([`Dataset::effective_scale`]), and runs the six
//! algorithms of the evaluation once ([`run_algorithm`], the routine of
//! `spmm compare`): those runs feed Figures 6, 7 and 9, and HH-CPU's
//! Phase I pick is Figure 5's threshold. Figure 8 sweeps the threshold
//! with the cost model alone ([`threshold::estimate_ladder_with`]).
//! Matrices and Figure 10 points run concurrently, each on a fresh
//! one-thread context; simulated time does not depend on the host thread
//! count.

use std::io::{self, Write};

use spmm_core::{
    cusparse_like, hh_cpu, hipc2012, mkl_like, sorted_workqueue, threshold, unsorted_workqueue,
    HeteroContext, HhCpuConfig, SpmmOutput, SymbolicStructure, WorkUnitConfig,
};
use spmm_parallel::ThreadPool;
use spmm_scalefree::{fit_power_law, scale_free_matrix, Dataset, GeneratorConfig};
use spmm_sparse::{CsrMatrix, RowHistogram};

use crate::serve::json::Json;

/// The algorithms of the evaluation, in `spmm compare`'s order.
pub const ALGORITHMS: [&str; 6] = [
    "hh-cpu",
    "hipc2012",
    "mkl",
    "cusparse",
    "unsorted-wq",
    "sorted-wq",
];

/// The exhibits, in the order [`figures`] emits them.
const EXHIBITS: [&str; 8] = [
    "table1", "fig1", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
];

/// The row size Figure 1 annotates: "very few rows with at least 60
/// nonzeros".
const FIG1_CUTOFF: usize = 60;

/// Figure 10's sizes (§V-D), shrunk by the scale.
const FIG10_SIZES: [(&str, usize); 3] = [("100K", 100_000), ("500K", 500_000), ("1M", 1_000_000)];

/// Figure 10's α values: 3.0 to 6.5 in steps of 0.5.
const FIG10_ALPHAS: usize = 8;

/// Mean nonzeros per row of the Figure 10 inputs (webbase-like density).
const FIG10_MEAN_ROW: usize = 4;

/// Run one algorithm of the evaluation on `A × A`.
pub fn run_algorithm(
    algo: &str,
    ctx: &mut HeteroContext,
    a: &CsrMatrix<f64>,
) -> Result<SpmmOutput<f64>, String> {
    let units = WorkUnitConfig::auto(a.nrows());
    Ok(match algo {
        "hh-cpu" => hh_cpu(ctx, a, a, &HhCpuConfig::default()),
        "hipc2012" => hipc2012(ctx, a, a),
        "mkl" => mkl_like(ctx, a, a),
        "cusparse" => cusparse_like(ctx, a, a),
        "unsorted-wq" => unsorted_workqueue(ctx, a, a, units),
        "sorted-wq" => sorted_workqueue(ctx, a, a, units),
        other => return Err(format!("unknown algorithm {other:?}")),
    })
}

/// Every exhibit row at `1/scale` of the paper's sizes.
pub fn figures(scale: usize) -> Vec<Json> {
    assert!(scale >= 1, "scale must be >= 1");
    let matrices = Dataset::all();
    let jobs = matrices.len() + FIG10_SIZES.len() * FIG10_ALPHAS;
    let mut rows = ThreadPool::host()
        .par_map(jobs, |i| match matrices.get(i) {
            Some(d) => matrix_rows(d, scale),
            None => {
                let k = i - matrices.len();
                vec![fig10_row(
                    FIG10_SIZES[k / FIG10_ALPHAS],
                    k % FIG10_ALPHAS,
                    scale,
                )]
            }
        })
        .concat();
    // stable: matrices stay in Table I order within each exhibit
    rows.sort_by_key(|row| {
        EXHIBITS
            .iter()
            .position(|&e| row.str_field("exhibit") == Some(e))
    });
    rows
}

/// `rows` as JSON lines, the format of `tests/golden/figures.jsonl`.
pub fn json_lines(rows: &[Json]) -> String {
    rows.iter().map(|row| row.dump() + "\n").collect()
}

/// A row of `exhibit` with `fields` after its tag.
fn row(exhibit: &str, fields: Vec<(&str, Json)>) -> Json {
    let mut pairs = vec![("exhibit", Json::from(exhibit))];
    pairs.extend(fields);
    Json::obj(pairs)
}

fn array(xs: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(xs.into_iter().map(Json::from).collect())
}

/// Table I, Figure 1 (webbase-1M only) and Figures 5–9 rows of one matrix.
fn matrix_rows(d: &Dataset, scale: usize) -> Vec<Json> {
    let entry = d.entry();
    let a: CsrMatrix<f64> = d.load(scale);
    let mut ctx = HeteroContext::scaled(d.effective_scale(scale)).with_host_threads(1);
    let runs = ALGORITHMS.map(|algo| {
        let mut out = run_algorithm(algo, &mut ctx, &a).expect("a known algorithm");
        // the exhibits plot simulated time only
        out.c = CsrMatrix::zeros(0, 0);
        out
    });
    let [hh, hipc, mkl, cusparse, unsorted, sorted] = &runs;
    let name = || ("matrix", Json::from(entry.name));
    let alpha = || ("alpha", Json::from(entry.alpha));
    let hist = RowHistogram::from_matrix(&a);
    let fit = fit_power_law(&a.row_sizes());
    let p = hh.profile;

    let sym = SymbolicStructure::from_matrix(&a);
    let ladder = threshold::sweep_ladder(a.max_row_nnz());
    let swept: Vec<usize> = ladder.iter().map(|&t| t.max(1)).collect();
    let walls = threshold::estimate_ladder_with(&ctx, &a, &a, &swept, &sym, &sym);

    let mut rows = vec![
        row(
            "table1",
            vec![
                name(),
                ("rows", entry.rows.into()),
                ("nnz", entry.nnz.into()),
                alpha(),
                ("clone_rows", a.nrows().into()),
                ("clone_nnz", a.nnz().into()),
                ("alpha_fit", fit.map_or(Json::Null, |f| f.alpha.into())),
                ("xmin", fit.map_or(Json::Null, |f| f.xmin.into())),
            ],
        ),
        row(
            "fig5",
            vec![
                name(),
                ("threshold", hh.threshold_a.into()),
                ("hd_rows", hist.high_density_rows(hh.threshold_a).into()),
                (
                    "bins",
                    Json::Arr(
                        hist.log_binned()
                            .into_iter()
                            .map(|(lo, n)| Json::Arr(vec![lo.into(), n.into()]))
                            .collect(),
                    ),
                ),
            ],
        ),
        row(
            "fig6",
            vec![
                name(),
                alpha(),
                ("hh_ns", hh.total_ns().into()),
                ("hipc2012_ns", hipc.total_ns().into()),
                ("mkl_ns", mkl.total_ns().into()),
                ("cusparse_ns", cusparse.total_ns().into()),
                ("vs_hipc2012", hh.speedup_over(hipc).into()),
                ("vs_mkl", hh.speedup_over(mkl).into()),
                ("vs_cusparse", hh.speedup_over(cusparse).into()),
            ],
        ),
        row(
            "fig7",
            vec![
                name(),
                ("phase_ns", array(p.walls())),
                ("transfer_ns", p.transfer_ns.into()),
                ("total_ns", p.total().into()),
                ("phase2_imbalance_ns", p.phase2.imbalance().into()),
                ("phase3_imbalance_ns", p.phase3.imbalance().into()),
            ],
        ),
        row(
            "fig8",
            vec![
                name(),
                alpha(),
                ("t", array(ladder.iter().map(|&t| t as f64))),
                ("phase2_ns", array(walls.iter().map(|w| w.0))),
                ("phase3_ns", array(walls.iter().map(|w| w.1))),
                ("mkl_compute_ns", mkl.profile.phase2.wall().into()),
            ],
        ),
        row(
            "fig9",
            vec![
                name(),
                alpha(),
                ("hh_ns", hh.total_ns().into()),
                ("unsorted_ns", unsorted.total_ns().into()),
                ("sorted_ns", sorted.total_ns().into()),
                ("vs_unsorted", hh.speedup_over(unsorted).into()),
                ("vs_sorted", hh.speedup_over(sorted).into()),
            ],
        ),
    ];
    if entry.name == "webbase-1M" {
        let hd = hist.high_density_rows(FIG1_CUTOFF);
        rows.push(row(
            "fig1",
            vec![
                name(),
                ("rows", a.nrows().into()),
                ("rows_ge_60", hd.into()),
                ("share_ge_60", (hd as f64 / a.nrows() as f64).into()),
            ],
        ));
    }
    rows
}

/// One Figure 10 point: HH-CPU against HiPC2012 on `A × B`, distinct
/// generated matrices of the same α (§V-D).
fn fig10_row((size, rows): (&str, usize), k: usize, scale: usize) -> Json {
    let n = rows / scale;
    let alpha = 3.0 + 0.5 * k as f64;
    let gen = |seed| {
        scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(
            n,
            n * FIG10_MEAN_ROW,
            alpha,
            seed,
        ))
    };
    let (a, b) = (gen(1000 + k as u64), gen(2000 + k as u64));
    let mut ctx = HeteroContext::scaled(scale).with_host_threads(1);
    let hh = hh_cpu(&mut ctx, &a, &b, &HhCpuConfig::default());
    let hi = hipc2012(&mut ctx, &a, &b);
    let fit = fit_power_law(&a.row_sizes());
    row(
        "fig10",
        vec![
            ("size", size.into()),
            ("rows", n.into()),
            ("alpha", alpha.into()),
            ("alpha_fit", fit.map_or(Json::Null, |f| f.alpha.into())),
            ("hh_ns", hh.total_ns().into()),
            ("hipc2012_ns", hi.total_ns().into()),
            ("speedup", hh.speedup_over(&hi).into()),
            ("tuples", hh.tuples_merged.into()),
        ],
    )
}

/// The rows of one exhibit.
fn exhibit<'a>(rows: &'a [Json], name: &'a str) -> impl Iterator<Item = &'a Json> {
    rows.iter()
        .filter(move |row| row.str_field("exhibit") == Some(name))
}

/// A numeric field (`NaN` when absent or `null`).
fn num(row: &Json, key: &str) -> f64 {
    row.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

/// A numeric array field.
fn nums(row: &Json, key: &str) -> Vec<f64> {
    row.get(key)
        .and_then(Json::as_array)
        .map_or(Vec::new(), |xs| {
            xs.iter().map(|x| x.as_f64().unwrap_or(f64::NAN)).collect()
        })
}

fn text<'a>(row: &'a Json, key: &str) -> &'a str {
    row.str_field(key).unwrap_or("")
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Whether the Table I matrix `name` is scale-free.
fn scale_free(name: &str) -> bool {
    Dataset::by_name(name).is_some_and(|d| d.entry().is_scale_free())
}

/// Print the paper-style tables of `rows` (the output of [`figures`]).
pub fn print_tables(rows: &[Json], scale: usize, out: &mut impl Write) -> io::Result<()> {
    writeln!(
        out,
        "Exhibits at 1/{scale} of the paper's sizes (simulated ms; small matrices shrink less)"
    )?;

    writeln!(out, "\nTable I: rows, nnz and power-law α, paper | clone")?;
    writeln!(
        out,
        "{:>16} {:>10} {:>10} {:>8} | {:>8} {:>9} {:>8} {:>6}",
        "matrix", "rows", "nnz", "α", "rows", "nnz", "α fit", "xmin"
    )?;
    for r in exhibit(rows, "table1") {
        writeln!(
            out,
            "{:>16} {:>10} {:>10} {:>8.2} | {:>8} {:>9} {:>8.2} {:>6}",
            text(r, "matrix"),
            num(r, "rows"),
            num(r, "nnz"),
            num(r, "alpha"),
            num(r, "clone_rows"),
            num(r, "clone_nnz"),
            num(r, "alpha_fit"),
            num(r, "xmin"),
        )?;
    }

    for r in exhibit(rows, "fig1") {
        writeln!(out, "\nFigure 1: row histogram of {}", text(r, "matrix"))?;
        let bins = exhibit(rows, "fig5")
            .find(|f| f.str_field("matrix") == r.str_field("matrix"))
            .and_then(|f| f.get("bins"))
            .and_then(Json::as_array)
            .unwrap_or_default();
        for bin in bins {
            let (lo, n) = (num_at(bin, 0), num_at(bin, 1));
            let bar = "#".repeat((n.log10().max(0.0) * 6.0) as usize + 1);
            writeln!(out, "  size ≥ {lo:<8} {n:>9}  {bar}")?;
        }
        writeln!(
            out,
            "rows with ≥ {FIG1_CUTOFF} nonzeros: {} of {} ({:.2}%; paper: \"very few\")",
            num(r, "rows_ge_60"),
            num(r, "rows"),
            num(r, "share_ge_60") * 100.0
        )?;
    }

    writeln!(
        out,
        "\nFigure 5: Phase I threshold and high-density rows per matrix"
    )?;
    writeln!(
        out,
        "{:>16} {:>9} {:>8}  log-binned row sizes (size ≥ lo: rows)",
        "matrix", "threshold", "HD rows"
    )?;
    for r in exhibit(rows, "fig5") {
        let bins: Vec<String> = r
            .get("bins")
            .and_then(Json::as_array)
            .unwrap_or_default()
            .iter()
            .map(|bin| format!("{}:{}", num_at(bin, 0), num_at(bin, 1)))
            .collect();
        writeln!(
            out,
            "{:>16} {:>9} {:>8}  {}",
            text(r, "matrix"),
            num(r, "threshold"),
            num(r, "hd_rows"),
            bins.join(" ")
        )?;
    }

    writeln!(out, "\nFigure 6: HH-CPU speedup per matrix")?;
    writeln!(
        out,
        "{:>16} {:>7} | {:>10} {:>10} | {:>9} {:>9} {:>9}",
        "matrix", "α", "HH-CPU ms", "HiPC ms", "vs HiPC", "vs MKL", "vs cuSP"
    )?;
    let fig6: Vec<&Json> = exhibit(rows, "fig6").collect();
    for r in &fig6 {
        writeln!(
            out,
            "{:>16} {:>7.2} | {:>10.3} {:>10.3} | {:>9.3} {:>9.3} {:>9.3}",
            text(r, "matrix"),
            num(r, "alpha"),
            num(r, "hh_ns") / 1e6,
            num(r, "hipc2012_ns") / 1e6,
            num(r, "vs_hipc2012"),
            num(r, "vs_mkl"),
            num(r, "vs_cusparse"),
        )?;
    }
    let avg = |rs: &[&Json], key| mean(&rs.iter().map(|r| num(r, key)).collect::<Vec<_>>());
    writeln!(
        out,
        "{:>16} {:>7} | {:>10} {:>10} | {:>9.3} {:>9.3} {:>9.3}",
        "average",
        "",
        "",
        "",
        avg(&fig6, "vs_hipc2012"),
        avg(&fig6, "vs_mkl"),
        avg(&fig6, "vs_cusparse"),
    )?;
    writeln!(
        out,
        "paper: 1.25x vs HiPC2012 on average, 3.6x vs MKL, 4x vs cuSPARSE"
    )?;

    writeln!(out, "\nFigure 7: HH-CPU phase breakdown")?;
    writeln!(
        out,
        "{:>16} | {:>8} {:>8} {:>8} {:>8} {:>8} | {:>7} {:>7} {:>7}",
        "matrix", "I ms", "II ms", "III ms", "IV ms", "xfer ms", "II+III", "I+IV", "imbal"
    )?;
    let fig7: Vec<&Json> = exhibit(rows, "fig7").collect();
    let share = |r: &Json, phases: [usize; 2]| {
        let walls = nums(r, "phase_ns");
        phases.iter().map(|&k| walls[k]).sum::<f64>() / num(r, "total_ns")
    };
    // the paper's imbalance: the CPU/GPU gap of the overlapped phases,
    // averaged, relative to the run
    let imbalance = |r: &Json| {
        (num(r, "phase2_imbalance_ns") + num(r, "phase3_imbalance_ns")) / 2.0 / num(r, "total_ns")
    };
    for r in &fig7 {
        let walls = nums(r, "phase_ns");
        writeln!(
            out,
            "{:>16} | {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} | {:>6.1}% {:>6.1}% {:>6.1}%",
            text(r, "matrix"),
            walls[0] / 1e6,
            walls[1] / 1e6,
            walls[2] / 1e6,
            walls[3] / 1e6,
            num(r, "transfer_ns") / 1e6,
            share(r, [1, 2]) * 100.0,
            share(r, [0, 3]) * 100.0,
            imbalance(r) * 100.0,
        )?;
    }
    writeln!(
        out,
        "average II+III share {:.1}% (paper: > 96%), imbalance {:.1}% (paper: < 2%)",
        mean(&fig7.iter().map(|r| share(r, [1, 2])).collect::<Vec<_>>()) * 100.0,
        mean(&fig7.iter().map(|r| imbalance(r)).collect::<Vec<_>>()) * 100.0,
    )?;

    writeln!(
        out,
        "\nFigure 8: Phase II+III time over the threshold sweep"
    )?;
    writeln!(
        out,
        "{:>16} {:>7} {:>8} | {:>9} {:>9} {:>9} {:>9} | {:>6}",
        "matrix", "α", "best t", "t=0 ms", "best ms", "t=max ms", "MKL ms", "convex"
    )?;
    for r in exhibit(rows, "fig8") {
        let ts = nums(r, "t");
        let totals: Vec<f64> = nums(r, "phase2_ns")
            .iter()
            .zip(nums(r, "phase3_ns"))
            .map(|(p2, p3)| p2 + p3)
            .collect();
        let best = (0..totals.len())
            .min_by(|&i, &j| totals[i].total_cmp(&totals[j]))
            .unwrap_or(0);
        writeln!(
            out,
            "{:>16} {:>7.2} {:>8} | {:>9.3} {:>9.3} {:>9.3} {:>9.3} | {:>6}",
            text(r, "matrix"),
            num(r, "alpha"),
            ts[best],
            totals[0] / 1e6,
            totals[best] / 1e6,
            totals[totals.len() - 1] / 1e6,
            num(r, "mkl_compute_ns") / 1e6,
            if is_convex(&totals) { "yes" } else { "NO" },
        )?;
    }
    writeln!(
        out,
        "paper: convex in t; t = 0 near MKL, t > max near HiPC2012"
    )?;

    writeln!(
        out,
        "\nFigure 9: HH-CPU speedup over the work-queue baselines"
    )?;
    writeln!(
        out,
        "{:>16} {:>7} | {:>11} {:>11}",
        "matrix", "α", "vs Unsorted", "vs Sorted"
    )?;
    let fig9: Vec<&Json> = exhibit(rows, "fig9").collect();
    for r in &fig9 {
        writeln!(
            out,
            "{:>16} {:>7.2} | {:>11.3} {:>11.3}",
            text(r, "matrix"),
            num(r, "alpha"),
            num(r, "vs_unsorted"),
            num(r, "vs_sorted"),
        )?;
    }
    let scale_free_rows: Vec<&Json> = fig9
        .iter()
        .copied()
        .filter(|r| scale_free(text(r, "matrix")))
        .collect();
    writeln!(
        out,
        "{:>16} {:>7} | {:>11.3} {:>11.3}  (scale-free matrices; paper: ≈ 1.15 each)",
        "average",
        "",
        avg(&scale_free_rows, "vs_unsorted"),
        avg(&scale_free_rows, "vs_sorted"),
    )?;

    writeln!(
        out,
        "\nFigure 10: HH-CPU speedup over HiPC2012 against α (A ≠ B)"
    )?;
    writeln!(
        out,
        "{:>5} {:>7} {:>5} {:>7} {:>8} {:>9}",
        "size", "rows", "α", "α fit", "speedup", "tuples"
    )?;
    for r in exhibit(rows, "fig10") {
        writeln!(
            out,
            "{:>5} {:>7} {:>5.1} {:>7.2} {:>8.3} {:>9}",
            text(r, "size"),
            num(r, "rows"),
            num(r, "alpha"),
            num(r, "alpha_fit"),
            num(r, "speedup"),
            num(r, "tuples"),
        )?;
    }
    writeln!(
        out,
        "paper: the speedup decreases as α grows; the 100K series sits above 500K and 1M"
    )
}

/// Element `k` of a numeric array row.
fn num_at(pair: &Json, k: usize) -> f64 {
    pair.as_array()
        .and_then(|xs| xs.get(k))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// Figure 8's convexity: the sweep's interior minimum beats both
/// degenerate ends.
fn is_convex(totals: &[f64]) -> bool {
    let min = totals.iter().copied().fold(f64::INFINITY, f64::min);
    min < totals[0] && min < totals[totals.len() - 1]
}
