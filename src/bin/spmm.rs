//! `spmm` — command-line driver for the hetero-spmm library.
//!
//! ```text
//! spmm datasets                      list the Table I catalog
//! spmm info <dataset|file.mtx>       shape, nnz, histogram, power-law fit
//! spmm run <algo> <dataset> [scale]  run one algorithm, print the profile
//! spmm compare <dataset> [scale]     run every algorithm, print speedups
//! spmm sweep <dataset> [scale]       Figure 8 threshold sweep
//! spmm figures [scale]               Table I and Figures 1, 5–10
//! spmm convert <in.mtx> <out.mtx>    parse, validate, and rewrite a matrix
//! ```
//!
//! `<algo>` ∈ hh-cpu | hipc2012 | mkl | cusparse | unsorted-wq | sorted-wq.
//! `[scale]` shrinks catalog clones (default 16, 32 for `figures`; ignored
//! for `.mtx` files). A catalog clone runs on the platform matched to its
//! own shrink factor (`Dataset::effective_scale`), as in the figures.
//!
//! `spmm figures` writes one JSON line per exhibit row to stdout and the
//! paper-style tables to stderr; `tests/golden/figures.jsonl` is
//! `spmm figures 128`.

use std::io::Write as _;
use std::process::ExitCode;

use hetero_spmm::figures::{self, run_algorithm, ALGORITHMS};
use hetero_spmm::prelude::*;
use hetero_spmm::sparse::io;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("datasets") => cmd_datasets(),
        Some("info") => with_arg(&args, 1, "dataset or .mtx path", cmd_info),
        Some("run") => cmd_run(&args),
        Some("compare") => with_arg(&args, 1, "dataset", |d| {
            cmd_compare(d, scale_arg(&args, 2, 16)?)
        }),
        Some("sweep") => with_arg(&args, 1, "dataset", |d| {
            cmd_sweep(d, scale_arg(&args, 2, 16)?)
        }),
        Some("figures") => scale_arg(&args, 1, 32).and_then(cmd_figures),
        Some("convert") => cmd_convert(&args),
        _ => {
            eprintln!("usage: spmm <datasets|info|run|compare|sweep|figures|convert> …");
            eprintln!("see the module docs (`spmm --help` output) in src/bin/spmm.rs");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn with_arg(
    args: &[String],
    idx: usize,
    what: &str,
    f: impl FnOnce(&str) -> Result<(), String>,
) -> Result<(), String> {
    match args.get(idx) {
        Some(a) => f(a),
        None => Err(format!("missing argument: {what}")),
    }
}

/// The `[scale]` argument at `idx`, `default` when absent.
fn scale_arg(args: &[String], idx: usize, default: usize) -> Result<usize, String> {
    match args.get(idx) {
        None => Ok(default),
        Some(s) => s
            .parse()
            .ok()
            .filter(|&scale| scale >= 1)
            .ok_or_else(|| format!("scale must be a positive integer, got {s:?}")),
    }
}

/// Load by catalog name or Matrix Market path, with a context on the
/// platform matched to the matrix's shrink factor.
fn load(name: &str, scale: usize) -> Result<(CsrMatrix<f64>, HeteroContext), String> {
    if name.ends_with(".mtx") {
        let m = io::read_matrix_market(name).map_err(|e| e.to_string())?;
        Ok((m, HeteroContext::scaled(scale)))
    } else {
        let d = Dataset::by_name(name)
            .ok_or_else(|| format!("unknown dataset {name:?}; try `spmm datasets`"))?;
        Ok((
            d.load(scale),
            HeteroContext::scaled(d.effective_scale(scale)),
        ))
    }
}

fn cmd_datasets() -> Result<(), String> {
    println!("{:>16} {:>10} {:>11} {:>8}", "name", "rows", "nnz", "α");
    for e in CATALOG {
        println!(
            "{:>16} {:>10} {:>11} {:>8.2}",
            e.name, e.rows, e.nnz, e.alpha
        );
    }
    println!("\n(paper Table I; `spmm info <name>` loads the synthetic clone)");
    Ok(())
}

fn cmd_info(name: &str) -> Result<(), String> {
    let (m, _) = load(name, 16)?;
    println!(
        "{name}: {} x {}, {} nonzeros",
        m.nrows(),
        m.ncols(),
        m.nnz()
    );
    println!(
        "rows: mean {:.2} nnz, max {} nnz",
        m.mean_row_nnz(),
        m.max_row_nnz()
    );
    match fit_power_law(&m.row_sizes()) {
        Some(f) => println!(
            "power-law fit: α = {:.2} (xmin = {}, KS = {:.4}, tail n = {})",
            f.alpha, f.xmin, f.ks, f.tail_n
        ),
        None => println!("power-law fit: not enough positive rows"),
    }
    println!("\nrow histogram (log-binned):");
    let h = RowHistogram::from_matrix(&m);
    for (lo, n) in h.log_binned().into_iter().take(16) {
        let bar = "#".repeat(((n as f64).log10().max(0.0) * 6.0) as usize + 1);
        println!("  size≥{lo:<8} {n:>10} {bar}");
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let algo = args.get(1).ok_or("missing algorithm")?;
    let name = args.get(2).ok_or("missing dataset")?;
    let scale = scale_arg(args, 3, 16)?;
    let (a, mut ctx) = load(name, scale)?;
    let out = run_algorithm(algo, &mut ctx, &a)?;
    println!("{algo} on {name} (1/{scale} scale):");
    println!(
        "  C = A x A: {} nonzeros from {} tuples",
        out.c.nnz(),
        out.tuples_merged
    );
    if out.threshold_a > 0 {
        println!(
            "  threshold t = {} ({} HD rows)",
            out.threshold_a, out.hd_rows_a
        );
    }
    let p = out.profile;
    let w = p.walls();
    println!("  simulated total: {:.3} ms", p.total() / 1e6);
    println!(
        "  phases (ms): I {:.3} | II {:.3} (cpu {:.3} / gpu {:.3}) | III {:.3} \
         (cpu {:.3} / gpu {:.3}) | IV {:.3} | transfer {:.3}",
        w[0] / 1e6,
        w[1] / 1e6,
        p.phase2.cpu_ns / 1e6,
        p.phase2.gpu_ns / 1e6,
        w[2] / 1e6,
        p.phase3.cpu_ns / 1e6,
        p.phase3.gpu_ns / 1e6,
        w[3] / 1e6,
        p.transfer_ns / 1e6
    );
    Ok(())
}

fn cmd_compare(name: &str, scale: usize) -> Result<(), String> {
    let (a, mut ctx) = load(name, scale)?;
    println!(
        "{name} (1/{scale} scale, {} rows, {} nnz):\n",
        a.nrows(),
        a.nnz()
    );
    let mut results = Vec::new();
    for algo in ALGORITHMS {
        let out = run_algorithm(algo, &mut ctx, &a)?;
        results.push((algo, out));
    }
    let hh_total = results[0].1.total_ns();
    println!(
        "{:>12} {:>12} {:>14}",
        "algorithm", "total ms", "HH-CPU speedup"
    );
    for (algo, out) in &results {
        println!(
            "{:>12} {:>12.3} {:>14.3}",
            algo,
            out.total_ns() / 1e6,
            out.total_ns() / hh_total
        );
    }
    Ok(())
}

fn cmd_sweep(name: &str, scale: usize) -> Result<(), String> {
    let (a, mut ctx) = load(name, scale)?;
    println!(
        "{:>8} {:>12} {:>12} {:>12} {:>9}",
        "t", "total ms", "II ms", "III ms", "HD rows"
    );
    let mut best = (f64::INFINITY, 0);
    for t in hetero_spmm::core::threshold::sweep_ladder(a.max_row_nnz()) {
        let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::with_threshold(t));
        let p = out.profile;
        println!(
            "{:>8} {:>12.3} {:>12.3} {:>12.3} {:>9}",
            t,
            p.total() / 1e6,
            p.phase2.wall() / 1e6,
            p.phase3.wall() / 1e6,
            out.hd_rows_a
        );
        if p.total() < best.0 {
            best = (p.total(), t);
        }
    }
    let auto = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
    println!(
        "\nsweep best: t = {} at {:.3} ms; the empirical Phase I search picks \
         t = {} at {:.3} ms ({:+.1}%)",
        best.1,
        best.0 / 1e6,
        auto.threshold_a,
        auto.total_ns() / 1e6,
        (auto.total_ns() / best.0 - 1.0) * 100.0
    );
    Ok(())
}

fn cmd_figures(scale: usize) -> Result<(), String> {
    let rows = figures::figures(scale);
    std::io::stdout()
        .lock()
        .write_all(figures::json_lines(&rows).as_bytes())
        .and_then(|()| figures::print_tables(&rows, scale, &mut std::io::stderr().lock()))
        .map_err(|e| e.to_string())
}

fn cmd_convert(args: &[String]) -> Result<(), String> {
    let input = args.get(1).ok_or("missing input path")?;
    let output = args.get(2).ok_or("missing output path")?;
    let m: CsrMatrix<f64> = io::read_matrix_market(input).map_err(|e| e.to_string())?;
    let mut f = std::fs::File::create(output).map_err(|e| e.to_string())?;
    io::write_matrix_market(&m, &mut f).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({} x {}, {} nonzeros, duplicates merged, rows sorted)",
        output,
        m.nrows(),
        m.ncols(),
        m.nnz()
    );
    Ok(())
}
