//! Standalone probes: single layer calls timed outside the request tree,
//! on the workload's own operands.

use std::collections::BTreeMap;
use std::fs::File;
use std::sync::Arc;
use std::time::Instant;

use hetero_spmm::core::schedule::{self, ClaimSchedule, ScheduledClaim};
use hetero_spmm::core::{
    concat_row_bands, hh_cpu_sharded_with_artifacts, hh_cpu_with_artifacts, identify_plan,
    ExecPolicy, HeteroContext, HhCpuConfig, Platform, ShardConfig, ShardPlan, ShardedOutput,
    SpmmArtifacts, ThresholdPolicy,
};
use hetero_spmm::hetsim::gpu::{masked_output_widths, masked_output_widths_pooled};
use hetero_spmm::hetsim::DeviceKind;
use hetero_spmm::parallel::ThreadPool;
use hetero_spmm::scalefree::scale_free_matrix;
use hetero_spmm::serve::{ServiceConfig, SpmmService};
use hetero_spmm::sparse::{io, reference, CsrMatrix, WorkspacePool};

use crate::session::Threads;
use crate::workload::{Plan, Workload};

/// Row bands of the out-of-core probe.
pub const OOC_SHARDS: usize = 8;

/// The out-of-core probe's budget, priced from the operand's row pointers
/// and the exact per-row widths of C.
#[derive(Clone, Copy, Debug)]
struct OocBudget {
    /// The `byte_cap`: a quarter of C's bytes.
    cap: usize,
    /// The largest band's A slice plus C band: the most the pipeline may
    /// hold beyond the cap.
    band_working_set: usize,
}

impl OocBudget {
    fn price(a: &CsrMatrix<f64>, b: &CsrMatrix<f64>, pool: &ThreadPool) -> Self {
        let widths = masked_output_widths(a, b, None, pool);
        let c_bytes = |rows: std::ops::Range<usize>| {
            let nnz: usize = widths[rows.clone()].iter().map(|&w| w as usize).sum();
            (rows.len() + 1) * 8 + nnz * (4 + 8)
        };
        let plan = ShardPlan::nnz_balanced(a, OOC_SHARDS);
        let band_working_set = (0..plan.shards())
            .map(|i| a.row_band_byte_size(plan.band(i)) + c_bytes(plan.band(i)))
            .max()
            .expect("at least one band");
        Self {
            cap: c_bytes(0..a.nrows()) / 4,
            band_working_set,
        }
    }

    /// Why an out-of-core run did not exercise the spill pipeline as
    /// priced, if it did not: it must spill, stay within the cap plus one
    /// band, and run `min(host threads, bands)` workers.
    fn violation(&self, out: &ShardedOutput<f64>, host_threads: usize) -> Option<String> {
        let Some(pipe) = &out.pipe else {
            return Some("out-of-core probe reported no pipeline".into());
        };
        let want_workers = host_threads.min(OOC_SHARDS);
        if out.spilled_shards == 0 {
            Some("out-of-core probe spilled no band".into())
        } else if pipe.peak_resident_bytes > self.cap + self.band_working_set {
            Some(format!(
                "out-of-core probe peaked at {} bytes > cap {} + band {}",
                pipe.peak_resident_bytes, self.cap, self.band_working_set
            ))
        } else if pipe.workers != want_workers {
            Some(format!(
                "out-of-core probe ran {} shard workers, want {want_workers}",
                pipe.workers
            ))
        } else {
            None
        }
    }
}

/// Samples per metric, by metric name.
pub type Samples = BTreeMap<&'static str, Vec<f64>>;

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn push(samples: &mut Samples, name: &'static str, value: f64) {
    samples.entry(name).or_default().push(value);
}

/// The shard metrics of one out-of-core run.
fn push_shard(samples: &mut Samples, run_ms: f64, out: &ShardedOutput<f64>) {
    push(samples, "shard.run_ms", run_ms);
    push(samples, "shard.spilled_bands", out.spilled_shards as f64);
    if let Some(pipe) = &out.pipe {
        push(
            samples,
            "shard.peak_resident_mb",
            pipe.peak_resident_bytes as f64 / (1 << 20) as f64,
        );
        push(
            samples,
            "shard.spill_wait_ms",
            pipe.spill_wait_ns as f64 / 1e6,
        );
        push(
            samples,
            "shard.admit_wait_ms",
            pipe.admit_wait_ns as f64 / 1e6,
        );
        push(samples, "shard.workers", pipe.workers as f64);
    }
}

/// Run every probe, cycling over the distinct products until each probe
/// has at least `rounds` samples and every product was probed.
///
/// No workload's requests reach `core::shard`, so the shard metrics come
/// from an out-of-core run of the workload's largest product: 8 bands and
/// a `byte_cap` of a quarter of C's bytes, with the run's host threads as
/// shard workers.
pub fn run(
    plan: &Plan,
    inputs: &[CsrMatrix<f64>],
    threads: Threads,
    rounds: usize,
) -> Result<Samples, String> {
    let pool = ThreadPool::new(threads.host_threads);
    let workspaces = Arc::new(WorkspacePool::new());
    let context = |scale: usize| {
        HeteroContext::with_shared(Platform::scaled(scale), pool.clone(), workspaces.clone())
    };
    let policy = ThresholdPolicy::default();
    let mut samples = Samples::new();
    let k = plan.products.len();
    for r in 0..rounds.max(k) {
        let product = &plan.products[r % k];
        let (a, b) = (&inputs[product.a], &inputs[product.b]);
        let operand = &plan.operands[product.a];
        let mut ctx = context(operand.scale);

        let t = Instant::now();
        let phase1 = identify_plan(&ctx, a, b, policy);
        push(&mut samples, "threshold.plan_ms", ms_since(t));

        let th = &phase1.thresholds;
        let b_low: Vec<bool> = th.b_high.iter().map(|&h| !h).collect();
        let t = Instant::now();
        let w_low = masked_output_widths_pooled(a, b, Some(&b_low), &pool, &workspaces);
        push(&mut samples, "hetsim.widths_ms", ms_since(t));

        // the CPU's blocked model and the GPU's planned model, all A rows
        ctx.reset();
        let t = Instant::now();
        let cost = ctx
            .cpu
            .spmm_cost_blocked(a, b, 0..a.nrows(), Some(&th.b_high))
            + ctx
                .gpu
                .spmm_cost_planned(a, b, 0..a.nrows(), Some(&b_low), &w_low);
        push(&mut samples, "hetsim.claim_cost_ms", ms_since(t));
        std::hint::black_box(cost);

        let rows: Vec<usize> = (0..a.nrows()).collect();
        let claims = ClaimSchedule {
            claims: vec![ScheduledClaim {
                device: DeviceKind::Cpu,
                rows: &rows,
                b_mask: None,
                sim_ns: 0.0,
            }],
        };
        let t = Instant::now();
        let (c, _) = schedule::execute(
            a,
            b,
            &claims,
            (a.nrows(), b.ncols()),
            &pool,
            &workspaces,
            ExecPolicy::Batched,
        );
        let exec_ms = ms_since(t);
        push(&mut samples, "schedule.execute_ms", exec_ms);
        push(
            &mut samples,
            "schedule.mflops",
            reference::flops(a, b) as f64 / (exec_ms * 1e3),
        );
        std::hint::black_box(c);

        let gen = operand.gen_config();
        let t = Instant::now();
        std::hint::black_box(scale_free_matrix::<f64>(&gen));
        push(&mut samples, "scalefree.gen_ms", ms_since(t));

        if plan.workload != Workload::ServeCold {
            // serve-cold times this inside its requests
            let scratch = SpmmService::new(ServiceConfig {
                host_threads: Some(threads.host_threads),
                ..ServiceConfig::default()
            });
            let (n, nnz) = (gen.nrows, gen.target_nnz);
            let t = Instant::now();
            scratch.load_generated(None, n, nnz, operand.alpha(), gen.seed, operand.scale);
            push(&mut samples, "serve.gen_ms", ms_since(t));
        }
    }

    // the largest product's C, cut into the out-of-core probe's row bands
    let largest = plan
        .products
        .iter()
        .max_by_key(|p| reference::flops(&inputs[p.a], &inputs[p.b]))
        .expect("at least one product");
    let (a, b) = (&inputs[largest.a], &inputs[largest.b]);
    let scale = plan.operands[largest.a].scale;
    let mut ctx = context(scale);
    let config = HhCpuConfig::default();
    let artifacts = SpmmArtifacts::build(&ctx, a, b, policy);
    let c = hh_cpu_with_artifacts(&mut ctx, a, b, &config, &artifacts).c;
    let bands_plan = ShardPlan::nnz_balanced(a, OOC_SHARDS);
    let bands: Vec<CsrMatrix<f64>> = (0..bands_plan.shards())
        .map(|i| c.row_band(bands_plan.band(i)))
        .collect();
    let budget = OocBudget::price(a, b, &pool);
    let spill_dir = std::env::temp_dir().join(format!("perfbench-io-{}", std::process::id()));
    std::fs::create_dir_all(&spill_dir).map_err(|e| format!("spill dir: {e}"))?;
    let result = (|| -> Result<(), String> {
        for r in 0..rounds {
            let shard = ShardConfig::out_of_core(OOC_SHARDS, budget.cap);
            let t = Instant::now();
            let out = hh_cpu_sharded_with_artifacts(&mut ctx, a, b, &config, &shard, &artifacts);
            push_shard(&mut samples, ms_since(t), &out);
            if out.output.c != c {
                return Err("sharded probe C differs from the monolithic C".into());
            }
            if let Some(why) = budget.violation(&out, threads.host_threads) {
                return Err(why);
            }

            let t = Instant::now();
            let stitched = concat_row_bands(&bands, c.ncols());
            push(&mut samples, "shard.stitch_ms", ms_since(t));
            if stitched != c {
                return Err("stitched bands differ from C".into());
            }

            let paths: Vec<_> = (0..bands.len())
                .map(|i| spill_dir.join(format!("r{r}-band{i}.csr")))
                .collect();
            let bytes: u64 = bands.iter().map(|m| m.byte_size() as u64).sum();
            let t = Instant::now();
            for (band, path) in bands.iter().zip(&paths) {
                let mut file = File::create(path).map_err(|e| e.to_string())?;
                io::write_csr_chunk(band, &mut file).map_err(|e| e.to_string())?;
            }
            push(&mut samples, "io.spill_write_mb_s", mb_per_s(bytes, t));
            let t = Instant::now();
            let back = paths
                .iter()
                .map(|path| {
                    let mut file = File::open(path).map_err(|e| e.to_string())?;
                    io::read_csr_chunk::<f64, _>(&mut file).map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, String>>()?;
            push(&mut samples, "io.spill_read_mb_s", mb_per_s(bytes, t));
            if back != bands {
                return Err("spill chunks did not read back bit-identical".into());
            }
            for path in &paths {
                std::fs::remove_file(path).map_err(|e| e.to_string())?;
            }
        }
        Ok(())
    })();
    std::fs::remove_dir_all(&spill_dir).map_err(|e| format!("spill dir cleanup: {e}"))?;
    result.map(|()| samples)
}

fn mb_per_s(bytes: u64, since: Instant) -> f64 {
    bytes as f64 / (1 << 20) as f64 / since.elapsed().as_secs_f64()
}
