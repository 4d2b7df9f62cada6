//! Device shootout: make the paper's architecture-awareness argument
//! visible. Runs the *same* work — dense×dense vs sparse×sparse partial
//! products — through both device models and prints per-flop costs,
//! showing why `A_H × B_H` belongs on the CPU and `A_L × B_L` on the GPU
//! (§V-C: "the CPU is more appropriate for multiplying dense matrices
//! where it can use techniques such as cache-blocking, and the GPU is more
//! appropriate for multiplying rows with small density").
//!
//! ```text
//! cargo run --release --example device_shootout
//! ```
//!
//! Doubles as the CI smoke-perf probe: after the per-flop table it
//!
//! * times the Phase-I empirical threshold search serial vs
//!   candidate-parallel and runs a Figure-8-style threshold sweep on three
//!   probe matrices, failing if any picked threshold drifts from the
//!   committed goldens (`tests/golden/thresholds.txt`), if the search's
//!   one-pass width ladder differs from the per-candidate width tables
//!   (wall times `phase1_widths_ms`, `phase1_masked_widths_ms`), or if its
//!   one-walk Phase II GPU prices differ from per-candidate
//!   `spmm_cost_planned` calls (its wall time is `phase1_gpu2_ms`);
//! * times end-to-end `hh_cpu` under the serial claims oracle
//!   (`ExecPolicy::PerClaim`) vs the production batched executor on every
//!   Table I clone, at 8 host threads and at one, failing on any bit of
//!   output or profile drift, and sets the one-thread executor against a
//!   bare dense scatter of the same flops, its roofline (`exec_perf`);
//! * times the register-tiled csrmm sweep vs the naive reference
//!   (`csrmm_perf`), failing hard on any bit drift between the two;
//! * times the sharded driver — uncapped and under a spilling byte cap —
//!   against the monolithic engine, failing unless every sharded product is
//!   bit-identical (`shard_perf`);
//! * replays the serve-layer request trace cold vs warm through
//!   `SpmmService`, failing on any warm-vs-cold bit drift;
//! * writes every wall-clock number to `BENCH_pr.json` (override the path
//!   with `BENCH_JSON`), which `ci/check_bench_floors.py` gates against
//!   `tests/golden/bench_floors.json`.

use std::time::Instant;

use hetero_spmm::core::schedule::{self, ClaimSchedule, ScheduledClaim};
use hetero_spmm::core::{threshold, SymbolicStructure};
use hetero_spmm::hetsim::gpu::{ladder_output_widths, masked_output_widths_pooled};
use hetero_spmm::hetsim::{CpuDevice, DeviceKind, GpuDevice};
use hetero_spmm::parallel::ThreadPool;
use hetero_spmm::prelude::*;
use hetero_spmm::serve::{replay, MultiplyRequest, ReplayOptions, ServiceConfig, SpmmService};
use hetero_spmm::sparse::WorkspacePool;

fn run(name: &str, a: &CsrMatrix<f64>, cpu: &mut CpuDevice, gpu: &mut GpuDevice) {
    cpu.reset();
    gpu.reset();
    let rows: Vec<usize> = (0..a.nrows()).collect();
    let flops = reference::flops(a, a) as f64;
    let cpu_ns = cpu.spmm_cost(a, a, rows.iter().copied(), None);
    let gpu_ns = gpu.spmm_cost(a, a, rows.iter().copied(), None);
    let winner = if cpu_ns < gpu_ns { "CPU" } else { "GPU" };
    println!(
        "{name:<28} {:>8.0}k flops | CPU {:>7.3} ns/flop | GPU {:>7.3} ns/flop | {winner} wins {:.2}x",
        flops / 1e3,
        cpu_ns / flops,
        gpu_ns / flops,
        (cpu_ns / gpu_ns).max(gpu_ns / cpu_ns)
    );
}

fn main() {
    let platform = Platform::paper();
    let mut cpu = CpuDevice::new(platform.cpu);
    let mut gpu = GpuDevice::new(platform.gpu);
    println!(
        "platform: {} CPU cores + {} GPU SMX ({}-wide warps)\n",
        platform.cpu.cores, platform.gpu.sms, platform.gpu.warp_width
    );

    // Dense × dense: few rows, many nonzeros each — the A_H × B_H shape.
    let dense = scale_free_matrix::<f64>(&GeneratorConfig {
        nrows: 512,
        ncols: 512,
        target_nnz: 512 * 200,
        distribution: RowSizeDistribution::NearUniform { spread: 20 },
        seed: 1,
    });
    run("dense x dense (A_H·B_H)", &dense, &mut cpu, &mut gpu);

    // Sparse × sparse: many rows, 2–3 nonzeros each — the A_L × B_L shape.
    let sparse = scale_free_matrix::<f64>(&GeneratorConfig {
        nrows: 60_000,
        ncols: 60_000,
        target_nnz: 60_000 * 2,
        distribution: RowSizeDistribution::NearUniform { spread: 1 },
        seed: 2,
    });
    run("sparse x sparse (A_L·B_L)", &sparse, &mut cpu, &mut gpu);

    // Mixed scale-free: what each device sees without the HH-CPU split.
    let mixed =
        scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(30_000, 150_000, 2.1, 3));
    run("mixed scale-free (no split)", &mixed, &mut cpu, &mut gpu);

    println!(
        "\nthe split exists because each device is fastest on a different shape —\n\
         assigning the \"right\" work to the \"right\" processor is the paper's thesis."
    );

    let phase1 = phase1_perf();
    let exec = exec_perf();
    let csrmm = csrmm_perf();
    let shard = shard_perf();
    let serve = serve_perf();

    let path = std::env::var("BENCH_JSON").unwrap_or_else(|_| "BENCH_pr.json".into());
    let json = format!("{{\n{phase1},\n{exec},\n{csrmm},\n{shard},\n{serve}\n}}\n");
    std::fs::write(&path, json).expect("write smoke-perf artifact");
    println!("wrote {path}");
}

/// Time the Phase-I empirical threshold search serial (one host thread) vs
/// candidate-parallel (host pool) on three probe matrices, run a
/// Figure-8-style sweep on each, and verify every pick against the
/// committed goldens, the search's one-pass width ladder against the
/// per-candidate width tables and its one-walk Phase II GPU prices against
/// per-candidate `spmm_cost_planned` calls. Returns the JSON fragment for
/// the CI artifact.
fn phase1_perf() -> String {
    let golden: Vec<(&str, usize)> = include_str!("../tests/golden/thresholds.txt")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            let mut it = l.split_whitespace();
            let name = it.next().expect("golden line: name");
            let t = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("golden line: threshold");
            (name, t)
        })
        .collect();
    let golden_for = |name: &str| -> usize {
        golden
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("no golden threshold for {name}"))
            .1
    };

    // the smoke matrix plus two Table I clones, each with its matched
    // platform scale (small catalog matrices shrink less than the requested scale)
    let mut cases: Vec<(&str, CsrMatrix<f64>, usize)> = vec![(
        "smoke",
        scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(4_000, 40_000, 2.1, 7)),
        32,
    )];
    for name in ["wiki-Vote", "email-Enron"] {
        let d = Dataset::by_name(name).unwrap();
        cases.push((name, d.load(32), d.effective_scale(32)));
    }

    let candidates = 10;
    let policy = ThresholdPolicy::Empirical { candidates };
    let host_threads = ThreadPool::host().num_threads();
    let reps = 3;
    println!("\nphase-I search (host pool = {host_threads} threads, best of {reps}):");

    let mut rows = Vec::new();
    let (mut serial_total, mut parallel_total) = (0.0f64, 0.0f64);
    let (mut widths_total, mut masked_total, mut gpu2_total) = (0.0f64, 0.0f64, 0.0f64);
    for (name, a, eff) in &cases {
        let serial_ctx = HeteroContext::scaled(*eff).with_host_threads(1);
        let parallel_ctx = HeteroContext::scaled(*eff);

        let (mut serial_ms, mut parallel_ms) = (f64::INFINITY, f64::INFINITY);
        let (mut pick_serial, mut pick_parallel) = (0usize, 0usize);
        for _ in 0..reps {
            let t0 = Instant::now();
            pick_serial = threshold::identify(&serial_ctx, a, a, policy).t_a;
            serial_ms = serial_ms.min(t0.elapsed().as_secs_f64() * 1e3);

            let t0 = Instant::now();
            pick_parallel = threshold::identify(&parallel_ctx, a, a, policy).t_a;
            parallel_ms = parallel_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        // the hard gate: the candidate-parallel search must agree with the
        // serial one, and both must match the committed golden pick
        assert_eq!(
            pick_serial, pick_parallel,
            "{name}: parallel Phase-I search diverged from serial"
        );
        assert_eq!(
            pick_serial,
            golden_for(name),
            "{name}: Phase-I threshold drifted from tests/golden/thresholds.txt"
        );

        // Figure 8 sweep: symbolic structure built once, every ladder
        // threshold estimated from one width pass and one Phase II walk
        let t0 = Instant::now();
        let sym = SymbolicStructure::from_matrix(a);
        let sweep: Vec<usize> = threshold::sweep_ladder(a.max_row_nnz())
            .into_iter()
            .map(|t| t.max(1))
            .collect();
        let totals: Vec<f64> =
            threshold::estimate_ladder_with(&parallel_ctx, a, a, &sweep, &sym, &sym)
                .into_iter()
                .map(|(p2, p3)| p2 + p3)
                .collect();
        let sweep_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(
            totals.iter().all(|t| t.is_finite()),
            "{name}: sweep produced a non-finite estimate"
        );

        // the second hard gate: the one-pass width ladder the search reads
        // must equal the per-candidate B_L width tables, slot for slot
        let search_ladder = threshold::empirical_ladder(&sym, &sym, candidates);
        let (pool, workspaces) = (&parallel_ctx.pool, &parallel_ctx.workspaces);
        let t0 = Instant::now();
        let table = ladder_output_widths(a, a, &search_ladder, pool, workspaces);
        let widths_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut masked_ms = 0.0f64;
        for (k, &t) in search_ladder.iter().enumerate() {
            let b_low: Vec<bool> = sym.classify(t).into_iter().map(|h| !h).collect();
            let t0 = Instant::now();
            let want = masked_output_widths_pooled(a, a, Some(&b_low), pool, workspaces);
            masked_ms += t0.elapsed().as_secs_f64() * 1e3;
            assert!(
                table[k * a.nrows()..(k + 1) * a.nrows()] == want[..],
                "{name}: one-pass width table drifted from the per-candidate table at t = {t}"
            );
        }

        // the third hard gate: the one-walk Phase II GPU prices must equal
        // per-candidate spmm_cost_planned calls on cold devices, ns bit for
        // bit and L2 counters
        let spec = parallel_ctx.platform.gpu;
        let t0 = Instant::now();
        let prices =
            GpuDevice::new(spec).spmm_cost_ladder(a, a, &search_ladder, &search_ladder, &table);
        let gpu2_ms = t0.elapsed().as_secs_f64() * 1e3;
        for ((k, &t), price) in search_ladder.iter().enumerate().zip(&prices) {
            let (_, rows_al) = sym.partition_rows(t);
            let b_low: Vec<bool> = sym.classify(t).into_iter().map(|h| !h).collect();
            let widths = &table[k * a.nrows()..(k + 1) * a.nrows()];
            let mut gpu = GpuDevice::new(spec);
            let ns = gpu.spmm_cost_planned(a, a, rows_al.into_iter(), Some(&b_low), widths);
            assert!(
                price.ns.to_bits() == ns.to_bits() && price.l2.stats() == gpu.l2_stats(),
                "{name}: one-walk Phase II GPU price drifted from the per-candidate price at t = {t}"
            );
        }

        println!(
            "  {name:<14} t={pick_serial:<5} serial {serial_ms:>8.2} ms | parallel {parallel_ms:>8.2} ms | \
             {:.2}x | widths ({} candidates) {widths_ms:.2} ms, masked {masked_ms:.2} ms | \
             gpu2 {gpu2_ms:.2} ms | sweep ({} pts) {sweep_ms:.2} ms",
            serial_ms / parallel_ms,
            search_ladder.len(),
            totals.len(),
        );
        serial_total += serial_ms;
        parallel_total += parallel_ms;
        widths_total += widths_ms;
        masked_total += masked_ms;
        gpu2_total += gpu2_ms;
        rows.push(format!(
            "    {{\"name\": \"{name}\", \"threshold\": {pick_serial}, \
             \"serial_ms\": {serial_ms:.4}, \"parallel_ms\": {parallel_ms:.4}, \
             \"speedup\": {:.4}, \"widths_ms\": {widths_ms:.4}, \
             \"masked_widths_ms\": {masked_ms:.4}, \"gpu2_ms\": {gpu2_ms:.4}, \
             \"sweep_points\": {}, \"sweep_ms\": {sweep_ms:.4}}}",
            serial_ms / parallel_ms,
            totals.len(),
        ));
    }
    println!(
        "  phase-I total: serial {serial_total:.2} ms | parallel {parallel_total:.2} ms | {:.2}x \
         (speedup needs a multi-core runner)",
        serial_total / parallel_total
    );

    format!(
        "  \"phase1_host_threads\": {host_threads},\n  \
         \"phase1_serial_ms\": {serial_total:.4},\n  \
         \"phase1_parallel_ms\": {parallel_total:.4},\n  \
         \"phase1_speedup\": {:.4},\n  \
         \"phase1_widths_ms\": {widths_total:.4},\n  \
         \"phase1_masked_widths_ms\": {masked_total:.4},\n  \
         \"phase1_gpu2_ms\": {gpu2_total:.4},\n  \
         \"phase1_matrices\": [\n{}\n  ]",
        serial_total / parallel_total,
        rows.join(",\n"),
    )
}

/// Time end-to-end `hh_cpu` — Phase I through the merge — with the
/// serial claims oracle vs the batched plan/execute path on every
/// Table I clone, at 8 host threads (`exec_*` keys) and at one, the
/// benchmark's and the serve default's engine width (`exec_1t_*` keys),
/// and fail hard if the batched product or its simulated profile deviates
/// by a single bit. At one host thread it also times the batched executor
/// alone against a bare dense scatter of the same flops
/// (`exec_1t_execute_ms`, `exec_1t_bare_ms`; their ratio is
/// `exec_1t_roofline_share`). Returns the JSON fragment for the CI
/// artifact.
fn exec_perf() -> String {
    let threads = 8;
    let reps = 2;
    println!(
        "\nexec-perf: hh_cpu end to end, serial oracle vs batched executor \
         ({threads} host threads / 1 host thread, best of {reps}):"
    );
    let mut rows = Vec::new();
    let mut totals = [0.0f64; 6];
    for d in Dataset::all() {
        let name = d.entry().name;
        let a = d.load::<f64>(32);
        let (serial_ms, batched_ms) = time_exec(&d, &a, threads, reps);
        let (serial_1t_ms, batched_1t_ms) = time_exec(&d, &a, 1, reps);
        let (execute_1t_ms, bare_1t_ms) = time_roofline(&a, 5);
        println!(
            "  {name:<14} serial {serial_ms:>8.2} ms | batched {batched_ms:>8.2} ms | {:.2}x \
             || 1t: serial {serial_1t_ms:>8.2} ms | batched {batched_1t_ms:>8.2} ms | {:.2}x \
             | execute {execute_1t_ms:>7.2} ms vs bare {bare_1t_ms:>6.2} ms",
            serial_ms / batched_ms,
            serial_1t_ms / batched_1t_ms,
        );
        let timed = [
            serial_ms,
            batched_ms,
            serial_1t_ms,
            batched_1t_ms,
            execute_1t_ms,
            bare_1t_ms,
        ];
        for (total, ms) in totals.iter_mut().zip(timed) {
            *total += ms;
        }
        rows.push(format!(
            "    {{\"name\": \"{name}\", \"exec_serial_ms\": {serial_ms:.4}, \
             \"exec_batched_ms\": {batched_ms:.4}, \"exec_speedup\": {:.4}, \
             \"exec_1t_serial_ms\": {serial_1t_ms:.4}, \
             \"exec_1t_batched_ms\": {batched_1t_ms:.4}, \"exec_1t_speedup\": {:.4}, \
             \"exec_1t_execute_ms\": {execute_1t_ms:.4}, \"exec_1t_bare_ms\": {bare_1t_ms:.4}, \
             \"exec_1t_roofline_share\": {:.4}}}",
            serial_ms / batched_ms,
            serial_1t_ms / batched_1t_ms,
            bare_1t_ms / execute_1t_ms,
        ));
    }
    let [serial_total, batched_total, serial_1t_total, batched_1t_total, execute_1t_total, bare_1t_total] =
        totals;
    println!(
        "  exec total: serial {serial_total:.2} ms | batched {batched_total:.2} ms | {:.2}x \
         (speedup needs a multi-core runner)\n  \
         exec total at 1 host thread: serial {serial_1t_total:.2} ms | \
         batched {batched_1t_total:.2} ms | {:.2}x\n  \
         roofline at 1 host thread: execute {execute_1t_total:.2} ms | \
         bare scatter {bare_1t_total:.2} ms | share {:.3}",
        serial_total / batched_total,
        serial_1t_total / batched_1t_total,
        bare_1t_total / execute_1t_total,
    );

    format!(
        "  \"exec_host_threads\": {threads},\n  \
         \"exec_serial_ms\": {serial_total:.4},\n  \
         \"exec_batched_ms\": {batched_total:.4},\n  \
         \"exec_speedup\": {:.4},\n  \
         \"exec_1t_serial_ms\": {serial_1t_total:.4},\n  \
         \"exec_1t_batched_ms\": {batched_1t_total:.4},\n  \
         \"exec_1t_speedup\": {:.4},\n  \
         \"exec_1t_execute_ms\": {execute_1t_total:.4},\n  \
         \"exec_1t_bare_ms\": {bare_1t_total:.4},\n  \
         \"exec_1t_roofline_share\": {:.4},\n  \
         \"exec_matrices\": [\n{}\n  ]",
        serial_total / batched_total,
        serial_1t_total / batched_1t_total,
        bare_1t_total / execute_1t_total,
        rows.join(",\n"),
    )
}

/// Best-of-`reps` wall ms of `hh_cpu` on `a × a` under the serial claims
/// oracle and under the batched executor at `threads` host threads, after
/// checking that the batched run reproduces the oracle's exactly.
fn time_exec(d: &Dataset, a: &CsrMatrix<f64>, threads: usize, reps: usize) -> (f64, f64) {
    let name = d.entry().name;
    let serial_cfg = HhCpuConfig {
        exec: ExecPolicy::PerClaim,
        ..HhCpuConfig::default()
    };
    let batched_cfg = HhCpuConfig::default();
    let mut ctx = HeteroContext::scaled(d.effective_scale(32)).with_host_threads(threads);

    // correctness gate before timing: the batched executor must
    // reproduce the oracle's run exactly
    let want = hh_cpu(&mut ctx, a, a, &serial_cfg);
    let got = hh_cpu(&mut ctx, a, a, &batched_cfg);
    assert_eq!(got.c, want.c, "{name}: batched executor changed C");
    assert_eq!(
        got.profile, want.profile,
        "{name}: batched executor changed the simulated profile"
    );
    assert_eq!(
        got.tuples_merged, want.tuples_merged,
        "{name}: batched executor changed tuples_merged"
    );

    let (mut serial_ms, mut batched_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(hh_cpu(&mut ctx, a, a, &serial_cfg));
        serial_ms = serial_ms.min(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        std::hint::black_box(hh_cpu(&mut ctx, a, a, &batched_cfg));
        batched_ms = batched_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (serial_ms, batched_ms)
}

/// Best-of-`reps` wall ms, at one host thread, of the batched executor
/// running all of `a × a` as one claim and of a bare dense scatter of the
/// same flops (`v[c] += a·b` into one dense array: no bitmap, no output),
/// the executor's roofline.
fn time_roofline(a: &CsrMatrix<f64>, reps: usize) -> (f64, f64) {
    let pool = ThreadPool::new(1);
    let workspaces = WorkspacePool::new();
    let rows: Vec<usize> = (0..a.nrows()).collect();
    let whole = ClaimSchedule {
        claims: vec![ScheduledClaim {
            device: DeviceKind::Cpu,
            rows: &rows,
            b_mask: None,
            sim_ns: 0.0,
        }],
    };
    let shape = (a.nrows(), a.ncols());
    let mut dense = vec![0.0f64; a.ncols()];
    let (mut execute_ms, mut bare_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        let run = schedule::execute(a, a, &whole, shape, &pool, &workspaces, ExecPolicy::Batched);
        std::hint::black_box(run);
        execute_ms = execute_ms.min(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        for r in 0..a.nrows() {
            let (acols, avals) = a.row(r);
            for (&j, &aij) in acols.iter().zip(avals) {
                let (bcols, bvals) = a.row(j as usize);
                for (&c, &bjc) in bcols.iter().zip(bvals) {
                    dense[c as usize] += aij * bjc;
                }
            }
        }
        std::hint::black_box(&mut dense);
        bare_ms = bare_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (execute_ms, bare_ms)
}

/// Time the register-tiled csrmm sweep against the naive reference triple
/// loop, hard-failing on any bit drift. Returns the JSON fragment for the
/// CI artifact.
fn csrmm_perf() -> String {
    let reps = 3;
    let a = scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(4_000, 40_000, 2.1, 9));
    let k = 32;
    let data: Vec<f64> = (0..a.ncols() * k)
        .map(|i| ((i * 13) % 37) as f64 * 0.125 - 2.0)
        .collect();
    let b = DenseMatrix::from_row_major(a.ncols(), k, data);

    // gate first: tiled must match the naive reference bit for bit
    let naive = reference::csrmm(&a, &b).unwrap();
    let mut ctx = HeteroContext::paper();
    let tiled = cpu_csrmm(&mut ctx, &a, &b).c;
    assert!(
        naive
            .data()
            .iter()
            .zip(tiled.data())
            .all(|(x, y)| x.to_bits() == y.to_bits()),
        "tiled csrmm drifted from the reference bits"
    );

    let (mut naive_ms, mut tiled_ms) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(reference::csrmm(&a, &b).unwrap());
        naive_ms = naive_ms.min(t0.elapsed().as_secs_f64() * 1e3);

        // raw kernel sweep — csrmm_compute, not cpu_csrmm, so the timing
        // excludes the simulated device cost model
        let t0 = Instant::now();
        std::hint::black_box(csrmm_compute(&a, &b));
        tiled_ms = tiled_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    let speedup = naive_ms / tiled_ms;
    println!(
        "\ncsrmm-perf (n={}, nnz={}, k={k}, best of {reps}):\n\
         naive {naive_ms:.2} ms | tiled {tiled_ms:.2} ms | {speedup:.2}x",
        a.nrows(),
        a.nnz(),
    );

    format!(
        "  \"csrmm_k\": {k},\n  \
         \"csrmm_naive_ms\": {naive_ms:.4},\n  \
         \"csrmm_tiled_ms\": {tiled_ms:.4},\n  \
         \"csrmm_speedup\": {speedup:.4}"
    )
}

/// Time the sharded row-band driver on the scircuit clone: the monolithic
/// engine vs the 8-band pipelined driver uncapped (`ShardConfig::pooled`,
/// nothing spills) vs the same driver under a byte cap that forces disk
/// spills. Hard-fails unless both sharded runs are bit-identical to the
/// monolithic run *before* anything is timed, and unless the pipelined
/// run's peak resident bytes stay under `byte_cap` + one band working set
/// (DESIGN.md §3.9). Returns the JSON fragment for the CI artifact.
fn shard_perf() -> String {
    // min-of-7: the mono-vs-pipelined ratio gates a 0.95 floor, so the
    // estimate needs more samples than the other probes to shake off
    // shared-runner jitter
    let reps = 7;
    let shards = 8;
    let d = Dataset::by_name("scircuit").unwrap();
    let a = d.load::<f64>(32);
    let config = HhCpuConfig::default();
    let mut ctx = HeteroContext::scaled(d.effective_scale(32)).with_host_threads(8);

    let mono = hh_cpu(&mut ctx, &a, &a, &config);
    // half the product's bytes: some shards must take the disk round-trip
    let cap = mono.c.byte_size() / 2;
    let pooled_cfg = ShardConfig::pooled(shards);
    let ooc_cfg = ShardConfig::out_of_core(shards, cap);

    // the hard gate: both byte caps must reproduce the monolithic
    // product to the bit, and the byte cap must actually spill
    let pooled = hh_cpu_sharded(&mut ctx, &a, &a, &config, &pooled_cfg);
    assert_eq!(pooled.output.c, mono.c, "pooled shards changed C");
    assert_eq!(
        pooled.output.tuples_merged, mono.tuples_merged,
        "pooled shards changed tuples_merged"
    );
    let ooc = hh_cpu_sharded(&mut ctx, &a, &a, &config, &ooc_cfg);
    assert_eq!(ooc.output.c, mono.c, "out-of-core shards changed C");
    let spilled = ooc.spilled_shards;
    assert!(spilled >= 1, "a cap of bytes(C)/2 never spilled");

    // the pipelined driver's residency contract: one band's A slice + C
    // band may ride over the cap while in flight, never more
    let pipe = ooc.pipe.as_ref().expect("pipelined run reports stats");
    let band_working_set = (0..ooc.plan.shards())
        .map(|i| {
            a.row_band_byte_size(ooc.plan.band(i)) + mono.c.row_band_byte_size(ooc.plan.band(i))
        })
        .max()
        .unwrap();
    assert!(
        pipe.peak_resident_bytes <= cap.saturating_add(band_working_set),
        "pipelined peak resident {} exceeds cap {cap} + band {band_working_set}",
        pipe.peak_resident_bytes
    );

    let (mut mono_ms, mut pooled_ms, mut ooc_ms) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    let mut best_pipe = *pipe;
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(hh_cpu(&mut ctx, &a, &a, &config));
        mono_ms = mono_ms.min(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        std::hint::black_box(hh_cpu_sharded(&mut ctx, &a, &a, &config, &pooled_cfg));
        pooled_ms = pooled_ms.min(t0.elapsed().as_secs_f64() * 1e3);

        let t0 = Instant::now();
        let run = hh_cpu_sharded(&mut ctx, &a, &a, &config, &ooc_cfg);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if ms < ooc_ms {
            ooc_ms = ms;
            best_pipe = run.pipe.expect("pipelined run reports stats");
        }
        std::hint::black_box(run);
    }

    println!(
        "\nshard-perf (scircuit/32, {shards} nnz-balanced bands, best of {reps}):\n\
         monolithic {mono_ms:.2} ms | pooled {pooled_ms:.2} ms ({:.2}x) | \
         out-of-core {ooc_ms:.2} ms ({spilled} spilled)\n\
         pipeline: {} workers | spill-thread idle {:.2} ms | admit wait {:.2} ms | \
         peak resident {:.2} MB (cap {:.2} MB + band {:.2} MB)",
        mono_ms / pooled_ms,
        best_pipe.workers,
        best_pipe.spill_wait_ns as f64 / 1e6,
        best_pipe.admit_wait_ns as f64 / 1e6,
        best_pipe.peak_resident_bytes as f64 / 1e6,
        cap as f64 / 1e6,
        band_working_set as f64 / 1e6,
    );
    format!(
        "  \"shard_shards\": {shards},\n  \
         \"shard_spilled\": {spilled},\n  \
         \"shard_mono_ms\": {mono_ms:.4},\n  \
         \"shard_pooled_ms\": {pooled_ms:.4},\n  \
         \"shard_ooc_ms\": {ooc_ms:.4},\n  \
         \"shard_pooled_speedup\": {:.4},\n  \
         \"shard_ooc_speedup\": {:.4},\n  \
         \"shard_pipe_spill_wait_ms\": {:.4},\n  \
         \"shard_pipe_peak_resident_mb\": {:.4},\n  \
         \"shard_pipe_budget_ok\": 1",
        ooc_ms / pooled_ms,
        mono_ms / ooc_ms,
        best_pipe.spill_wait_ns as f64 / 1e6,
        best_pipe.peak_resident_bytes as f64 / 1e6,
    )
}

/// Load the serve trace's operands into `service` (untimed setup) and
/// return the distinct products the trace multiplies.
fn serve_fixture(service: &SpmmService) -> Vec<MultiplyRequest> {
    for name in ["wiki-Vote", "email-Enron", "ca-CondMat", "scircuit"] {
        service.load_dataset(name, 32).expect("catalog dataset");
    }
    service.load_generated(Some("web-a"), 1_200, 6_000, 2.2, 21, 1);
    service.load_generated(Some("web-b"), 1_200, 7_200, 2.6, 22, 1);
    [
        ("wiki-Vote", "wiki-Vote"),
        ("email-Enron", "email-Enron"),
        ("ca-CondMat", "ca-CondMat"),
        ("scircuit", "scircuit"),
        ("web-a", "web-a"),
        ("web-a", "web-b"),
        ("web-b", "web-b"),
    ]
    .into_iter()
    .map(|(a, b)| MultiplyRequest::new(a, b))
    .collect()
}

/// Replay the serve-layer trace through `SpmmService` and time the same
/// multiplies cold (fresh service, artifact cache empty) vs warm (cache
/// hit on every product). Hard-fails on any warm-vs-cold bit drift —
/// every warm output is compared against the cold pass *and* against a
/// fresh single-shot `HeteroContext` run. Returns the JSON fragment for
/// the CI artifact.
fn serve_perf() -> String {
    // gate first: replay the committed trace with cold verification, then
    // a second pass that must be fully warm and bit-identical
    let trace = include_str!("../tests/golden/serve_trace.jsonl");
    let service = SpmmService::new(ServiceConfig::default());
    let options = ReplayOptions {
        verify_cold: true,
        wire_selftest: true,
    };
    let first = replay::replay_trace(&service, trace, &options).expect("trace replays");
    let second = replay::replay_trace(&service, trace, &options).expect("trace replays warm");
    assert!(
        first.drifts.is_empty(),
        "cold pass drift: {:?}",
        first.drifts
    );
    assert!(
        second.drifts.is_empty(),
        "warm pass drift: {:?}",
        second.drifts
    );
    assert_eq!(
        second.warm_artifact_hits, second.multiplies,
        "second replay pass must be fully warm"
    );
    for (a, b) in first.outputs.iter().zip(&second.outputs) {
        replay::diff_outputs(&a.reply.output, &b.reply.output)
            .expect("warm replay bit-identical to cold replay");
    }
    let requests = first.requests;

    // timing: the trace's distinct products, cold (best of fresh services)
    // vs warm (best of repeat passes on one service)
    let reps = 2;
    let mut cold_ms = f64::INFINITY;
    let mut service = SpmmService::new(ServiceConfig::default());
    for rep in 0..reps {
        let fresh = SpmmService::new(ServiceConfig::default());
        let products = serve_fixture(&fresh);
        let t0 = Instant::now();
        for req in &products {
            let reply = fresh.multiply(req).expect("cold multiply");
            assert!(!reply.warm, "cold pass unexpectedly hit the artifact cache");
            std::hint::black_box(reply);
        }
        cold_ms = cold_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        if rep == reps - 1 {
            service = fresh;
        }
    }
    let products = serve_fixture(&service);
    let mut warm_ms = f64::INFINITY;
    for _ in 0..reps + 1 {
        let t0 = Instant::now();
        for req in &products {
            let reply = service.multiply(req).expect("warm multiply");
            assert!(reply.warm, "warm pass missed the artifact cache");
            std::hint::black_box(reply);
        }
        warm_ms = warm_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    let multiplies = products.len();
    let speedup = cold_ms / warm_ms;
    let cold_rps = multiplies as f64 / (cold_ms / 1e3);
    let warm_rps = multiplies as f64 / (warm_ms / 1e3);
    println!(
        "\nserve-perf ({requests}-request trace, {multiplies} distinct products, best of {reps}):\n\
         cold {cold_ms:.2} ms ({cold_rps:.1} req/s) | warm {warm_ms:.2} ms ({warm_rps:.1} req/s) | {speedup:.2}x"
    );

    format!(
        "  \"serve_requests\": {requests},\n  \
         \"serve_multiplies\": {multiplies},\n  \
         \"serve_cold_ms\": {cold_ms:.4},\n  \
         \"serve_warm_ms\": {warm_ms:.4},\n  \
         \"serve_cold_rps\": {cold_rps:.4},\n  \
         \"serve_warm_rps\": {warm_rps:.4},\n  \
         \"serve_warm_speedup\": {speedup:.4}"
    )
}
