//! Sharded out-of-core SpGEMM: the one global HH-CPU plan executed row
//! band by row band, pipelined under a resident-byte budget that spills to
//! disk.
//!
//! A shard is "a claim schedule with a row offset": the [`ShardPlan`]
//! cuts A into contiguous nnz-balanced row bands, and each band × full B
//! runs its slice of the global claim schedule — every claim's rows cut to
//! the band and shifted to band-local indices — through the unmodified
//! [`schedule::execute`]. Phase I and the Phase II/III plan are the
//! monolithic run's (`RunPlan`); no band is planned on its own. The
//! per-band CSR outputs are stitched back into monolithic C by pure indptr
//! offset fix-up — no re-sort, no re-merge. Each row of C meets the same
//! claims in the same order as in the monolithic run and the per-claim
//! entry counts add across bands, so C *and* the reply's profile,
//! thresholds and counters equal the monolithic [`crate::hh_cpu`]'s (see
//! DESIGN.md §3.7); `tests/shard_equivalence.rs` enforces it across every
//! shard count × byte cap × thread count × clone.
//!
//! Every sharded multiply runs one pipelined driver. Band work fans across
//! the host pool, each band on a serial executor sharing the
//! `Arc<WorkspacePool>`; admission is gated by a resident-byte budget
//! ([`ResidentBudget`]: in-flight band inputs + finished C bands,
//! byte-accurate against `byte_cap`); finished bands hand off to a
//! dedicated write-behind spill thread that owns the spill store; and
//! the final stitch streams spilled chunks back through a prefetching
//! reader thread that validates every chunk it reads back — compute
//! never blocks on `write_csr_chunk`, and the stitch never holds all
//! bands resident.
//! Band results commit in plan order regardless of completion order
//! ([`OrderedCommitter`]), which is what keeps the stitched C
//! bit-identical to the monolithic run (DESIGN.md §3.9).
//! A one-thread host pool degenerates to one worker: bands in plan
//! order, one at a time, with the spill writes still behind them. An
//! uncapped run ([`ShardConfig::pooled`]) is the same pipeline under a
//! budget it never exceeds: nothing spills and no spill directory exists.

use std::ops::Range;
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Instant;

use spmm_parallel::{OrderedCommitter, ThreadPool};
use spmm_sparse::io::{split_csr_chunk, write_csr_chunk};
use spmm_sparse::{CsrMatrix, Scalar, SparseError};

use crate::context::HeteroContext;
use crate::hhcpu::{HhCpuConfig, RunPlan, SpmmArtifacts};
use crate::result::SpmmOutput;
use crate::schedule::{self, ClaimSchedule, ExecCounts, ScheduledClaim};

/// Partition of A's rows into contiguous, nnz-balanced bands.
///
/// `bounds` has `shards + 1` entries with `bounds[0] == 0` and
/// `bounds[shards] == nrows`; band `i` is rows `bounds[i]..bounds[i+1]`.
/// Cuts sit where A's `indptr` first reaches each target `i·nnz/k`
/// (binary search — the row pointers *are* the nnz prefix sums), so a few
/// hub rows don't leave one band with most of the work the way a
/// row-count split would on a scale-free matrix. Every band is non-empty;
/// the shard count is clamped to the row count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// Plan `shards` nnz-balanced bands over `a`'s rows.
    pub fn nnz_balanced<T: Scalar>(a: &CsrMatrix<T>, shards: usize) -> Self {
        let nrows = a.nrows();
        let k = shards.clamp(1, nrows.max(1));
        let nnz = a.nnz();
        let mut bounds = Vec::with_capacity(k + 1);
        bounds.push(0);
        for i in 1..k {
            let cut = if nnz == 0 {
                i * nrows / k
            } else {
                // first row pointer at or past the i-th nnz target
                let target = i * nnz / k;
                a.indptr().partition_point(|&p| p < target).min(nrows)
            };
            // keep bands non-empty: at least one row each side of the cut
            let prev = *bounds.last().unwrap();
            bounds.push(cut.clamp(prev + 1, nrows - (k - i)));
        }
        bounds.push(nrows);
        Self { bounds }
    }

    /// Number of bands.
    pub fn shards(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Row range of band `i`.
    pub fn band(&self, i: usize) -> std::ops::Range<usize> {
        self.bounds[i]..self.bounds[i + 1]
    }

    /// The `shards + 1` band boundaries.
    pub fn bounds(&self) -> &[usize] {
        &self.bounds
    }
}

/// Configuration of one sharded multiply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Requested band count (clamped to A's row count by the planner).
    pub shards: usize,
    /// Resident-byte budget of the pipeline; `usize::MAX` never spills.
    pub byte_cap: usize,
}

impl ShardConfig {
    /// Uncapped execution over `shards` bands: the same pipeline under a
    /// budget it can never exceed, so no band spills.
    pub fn pooled(shards: usize) -> Self {
        Self::out_of_core(shards, usize::MAX)
    }

    /// Out-of-core execution under `byte_cap` resident bytes.
    pub fn out_of_core(shards: usize, byte_cap: usize) -> Self {
        Self { shards, byte_cap }
    }
}

/// Diagnostics of one pipelined run — how the byte budget and the
/// write-behind thread actually behaved. Purely observational: none of
/// these values feed back into the computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineStats {
    /// The configured resident-byte budget.
    pub byte_cap: usize,
    /// Peak bytes the budget ever held: in-flight band inputs + finished
    /// C bands not yet spilled. Bounded by `byte_cap` plus one band's
    /// working set (input + C) — the admission overrides that keep the
    /// pipeline deadlock-free each admit at most one band past the cap.
    pub peak_resident_bytes: usize,
    /// Worker threads the band work fanned across.
    pub workers: usize,
    /// Nanoseconds the write-behind spill thread spent idle waiting for
    /// finished bands (compute-bound run ⇒ large; I/O-bound ⇒ small).
    pub spill_wait_ns: u64,
    /// Nanoseconds workers spent blocked in budget admission (summed
    /// across workers).
    pub admit_wait_ns: u64,
}

/// Result of a sharded multiply: the stitched monolithic-equivalent
/// output plus the band accounting the monolithic path cannot give.
#[derive(Debug)]
pub struct ShardedOutput<T: Scalar> {
    /// Stitched C and profile, equal in every field to the monolithic
    /// [`crate::hh_cpu`] on the same operands (DESIGN.md §3.7).
    pub output: SpmmOutput<T>,
    /// The band partition that was executed.
    pub plan: ShardPlan,
    /// How many shard outputs took the disk round-trip (0 when uncapped).
    pub spilled_shards: usize,
    /// Pipeline diagnostics; every run reports them.
    pub pipe: Option<PipelineStats>,
}

/// The one append path of both stitches, [`concat_row_bands`] and
/// [`SpillStore::into_stitched`] (see there for the fix-up).
struct BandStitch<T: Scalar> {
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<T>,
}

impl<T: Scalar> BandStitch<T> {
    fn with_capacity(nrows: usize, nnz: usize, ncols: usize) -> Self {
        let mut indptr = Vec::with_capacity(nrows + 1);
        indptr.push(0);
        Self {
            ncols,
            indptr,
            indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
        }
    }

    fn append(&mut self, band: &CsrMatrix<T>) {
        debug_assert_eq!(
            band.ncols(),
            self.ncols,
            "bands must share the output width"
        );
        let base = self.indices.len();
        self.indptr
            .extend(band.indptr()[1..].iter().map(|&p| p + base));
        self.indices.extend_from_slice(band.indices());
        self.values.extend_from_slice(band.values());
    }

    fn finish(self) -> CsrMatrix<T> {
        let nrows = self.indptr.len() - 1;
        CsrMatrix::from_parts_unchecked(nrows, self.ncols, self.indptr, self.indices, self.values)
    }
}

/// Stitch per-band CSR outputs (in band order) into one matrix by indptr
/// offset fix-up: each band's row pointers are rebased by the running nnz
/// total and the index/value arrays are concatenated verbatim. Rows are
/// never re-sorted or re-merged, so the stitched matrix is bit-identical
/// to the bands laid end to end.
pub fn concat_row_bands<T: Scalar>(bands: &[CsrMatrix<T>], ncols: usize) -> CsrMatrix<T> {
    let nrows = bands.iter().map(CsrMatrix::nrows).sum();
    let nnz = bands.iter().map(CsrMatrix::nnz).sum();
    let mut out = BandStitch::with_capacity(nrows, nnz, ncols);
    for band in bands {
        out.append(band);
    }
    out.finish()
}

/// Run `C = A × B` sharded: global Phase I once, then each row band of A
/// × full B through the executor under `shard.byte_cap`, stitched by
/// offset fix-up. See the module docs for the contract.
///
/// # Panics
///
/// If a spill write or read fails; [`try_hh_cpu_sharded_with_artifacts`]
/// returns that as an error.
pub fn hh_cpu_sharded<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    config: &HhCpuConfig,
    shard: &ShardConfig,
) -> ShardedOutput<T> {
    let artifacts = SpmmArtifacts::build(ctx, a, b, config.policy);
    hh_cpu_sharded_with_artifacts(ctx, a, b, config, shard, &artifacts)
}

/// [`hh_cpu_sharded`] against precomputed *global* artifacts.
///
/// # Panics
///
/// If a spill write or read fails; [`try_hh_cpu_sharded_with_artifacts`]
/// returns that as an error.
pub fn hh_cpu_sharded_with_artifacts<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    config: &HhCpuConfig,
    shard: &ShardConfig,
    artifacts: &SpmmArtifacts,
) -> ShardedOutput<T> {
    try_hh_cpu_sharded_with_artifacts(ctx, a, b, config, shard, artifacts)
        .expect("shard spill failed")
}

/// [`hh_cpu_sharded`] against precomputed *global* artifacts (the serve
/// layer's warm path — the same artifacts serve monolithic and sharded
/// multiplies of the operands, because a band runs a slice of the one
/// global plan), answering a failed spill write or read with its error.
/// The spill directory is removed on either outcome.
///
/// The pipelined driver (see DESIGN.md §3.9). Three stages, all bounded
/// by one resident-byte budget:
///
/// 1. **Compute** — `min(pool, p)` workers claim bands *in plan order*;
///    admission waits until the band's input bytes fit under the cap.
///    Each worker executes the band's slice of the global schedule
///    (`band_schedule`) on a one-thread pool.
/// 2. **Commit + write-behind** — finished bands enter an
///    [`OrderedCommitter`], which releases them in plan order to an
///    unbounded channel feeding the spill thread. The spill thread owns
///    the spill store and evicts to disk oldest-first while the budget
///    is over cap, so compute never blocks on `write_csr_chunk`.
/// 3. **Streaming stitch** — after the last commit the store sizes the
///    final matrix from the band shapes recorded at push and appends bands
///    one at a time, prefetching and validating the next spilled chunk on
///    a reader thread while the current band's indptr fix-up memcpy runs.
///
/// The bands' per-claim entry counts are summed, and Phase I, Phase IV
/// and the transfers are charged once, exactly as for the monolithic run.
pub fn try_hh_cpu_sharded_with_artifacts<T: Scalar>(
    ctx: &mut HeteroContext,
    a: &CsrMatrix<T>,
    b: &CsrMatrix<T>,
    config: &HhCpuConfig,
    shard: &ShardConfig,
    artifacts: &SpmmArtifacts,
) -> Result<ShardedOutput<T>, SparseError> {
    let run = RunPlan::new(ctx, a, b, config, artifacts);
    let sched = run.schedule();
    let byte_cap = shard.byte_cap;
    let plan = ShardPlan::nnz_balanced(a, shard.shards);
    let p = plan.shards();
    // Cap workers at the hardware's parallelism even when the host pool
    // asks for more: band compute is CPU-bound, so oversubscribed workers
    // only timeslice — every band then finishes clustered at the end,
    // which defeats the compute/spill overlap and piles admission waits
    // at the tail. Staggered completions keep the writer fed throughout.
    // Worker count never affects the bits (in-order commit).
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(usize::MAX);
    let workers = ctx.pool.num_threads().min(p).min(hw).max(1);
    let band_a_bytes: Vec<usize> = (0..p).map(|i| a.row_band_byte_size(plan.band(i))).collect();
    let budget = ResidentBudget::new(byte_cap);
    let mut per_claim = vec![0usize; sched.claims.len()];
    let (ctx, bands, serial) = (&*ctx, &plan, &ThreadPool::new(1));

    let (c, spilled_shards, spill_wait_ns) = std::thread::scope(|s| -> Result<_, SparseError> {
        // The channel and committer live inside this scope so a worker
        // panic unwinds them (disconnecting the writer) before the scope
        // joins the writer thread — no deadlock on the way out.
        let (tx, rx) = mpsc::channel::<CsrMatrix<T>>();
        let writer = s.spawn({
            let budget = &budget;
            move || -> Result<(SpillStore<T>, u64), SparseError> {
                let mut store = SpillStore::new();
                let mut wait_ns = 0u64;
                loop {
                    let idle = Instant::now();
                    let msg = rx.recv();
                    wait_ns += idle.elapsed().as_nanos() as u64;
                    let Ok(c) = msg else { break };
                    store.push(c);
                    // The budget carries every resident byte — in-flight
                    // band inputs and every unspilled C, the store's
                    // included. Evict oldest-first while it (net of what
                    // this round already moved to disk) is over cap, so
                    // over-cap excess never outlives the band that caused
                    // it.
                    let mut to_disk = 0usize;
                    let mut written = Ok(());
                    while budget.resident().saturating_sub(to_disk) > byte_cap {
                        match store.evict_oldest() {
                            Ok(Some(bytes)) => to_disk += bytes,
                            Ok(None) => break,
                            Err(e) => {
                                written = Err(e);
                                break;
                            }
                        }
                    }
                    budget.spill_done(to_disk);
                    // Write-behind: once the budget has demonstrated
                    // pressure (something already spilled), pre-stage the
                    // next eviction victim — the budget is already
                    // released, so the write overlaps band compute, and
                    // the eventual eviction drops the memory with no I/O
                    // on the admission path. Under a cap nothing ever
                    // hits, staging would be pure overhead, so it stays
                    // off.
                    if written.is_ok() && store.spilled() > 0 {
                        written = store.stage_oldest();
                    }
                    if let Err(e) = written {
                        // Wake every admission waiter so workers drain
                        // instead of deadlocking on a budget that will
                        // never shrink; the join below surfaces the error.
                        budget.poison();
                        return Err(e);
                    }
                }
                Ok((store, wait_ns))
            }
        });

        // The commit closure owns `tx` (so dropping it after `finish`
        // disconnects the writer) and borrows the rest.
        let per_claim = &mut per_claim;
        let (budget_ref, inputs_ref) = (&budget, &band_a_bytes);
        let committer =
            OrderedCommitter::new(move |i: usize, (counts, c): (ExecCounts, CsrMatrix<T>)| {
                for (total, n) in per_claim.iter_mut().zip(counts.per_claim) {
                    *total += n;
                }
                // The band input dies here (the worker dropped it before
                // submitting); its C is now the writer's responsibility.
                budget_ref.commit(inputs_ref[i]);
                if tx.send(c).is_err() {
                    // Writer already failed: it poisoned the budget, but
                    // the pending-spill count must not dangle.
                    budget_ref.spill_done(0);
                }
            });

        std::thread::scope(|ws| {
            for _ in 0..workers {
                let (committer, budget, sched) = (&committer, &budget, &sched);
                let band_a_bytes = &band_a_bytes;
                ws.spawn(move || {
                    let mut rows = Vec::new();
                    while let Some(i) = budget.claim_next(band_a_bytes) {
                        let band = a.row_band(bands.band(i));
                        let (c, counts) = schedule::execute(
                            &band,
                            b,
                            &band_schedule(sched, bands.band(i), &mut rows),
                            (band.nrows(), b.ncols()),
                            serial,
                            &ctx.workspaces,
                            config.exec,
                        );
                        // C enters the budget the moment it exists; the
                        // band input leaves at commit time.
                        budget.charge_c(i, c.byte_size());
                        committer.submit(i, (counts, c));
                    }
                });
            }
        });

        let (committed, commit) = committer.finish();
        assert_eq!(committed, p, "every band must commit");
        drop(commit); // drops tx → the writer's recv disconnects
        let (store, wait_ns) = writer.join().expect("spill writer panicked")?;
        let spilled = store.spilled();
        let c = store.into_stitched(b.ncols())?;
        Ok((c, spilled, wait_ns))
    })?;

    let (peak_resident_bytes, admit_wait_ns) = budget.stats();
    let counts = ExecCounts::from_per_claim(&sched, per_claim);
    Ok(ShardedOutput {
        output: run.finish(ctx, c, &counts),
        plan,
        spilled_shards,
        pipe: Some(PipelineStats {
            byte_cap,
            peak_resident_bytes,
            workers,
            spill_wait_ns,
            admit_wait_ns,
        }),
    })
}

/// One band's slice of the global schedule: each claim's ascending row
/// list cut to `band` (two binary searches) and shifted to band-local
/// indices, stored in the caller's `rows` buffer. Every claim keeps its
/// slot, empty or not, so the band's per-claim counts line up with the
/// global schedule's.
fn band_schedule<'a>(
    global: &ClaimSchedule<'a>,
    band: Range<usize>,
    rows: &'a mut Vec<usize>,
) -> ClaimSchedule<'a> {
    rows.clear();
    let mut ends = Vec::with_capacity(global.claims.len());
    for claim in &global.claims {
        let lo = claim.rows.partition_point(|&r| r < band.start);
        let hi = lo + claim.rows[lo..].partition_point(|&r| r < band.end);
        rows.extend(claim.rows[lo..hi].iter().map(|&r| r - band.start));
        ends.push(rows.len());
    }
    let rows: &'a [usize] = rows;
    let mut start = 0;
    let claims = global
        .claims
        .iter()
        .zip(ends)
        .map(|(claim, end)| {
            let rows = &rows[start..end];
            start = end;
            ScheduledClaim { rows, ..*claim }
        })
        .collect();
    ClaimSchedule { claims }
}

/// Byte-accurate admission gate of the sharded pipeline.
///
/// `resident` counts in-flight band inputs, finished C bands awaiting
/// commit or spill, and whatever the spill store still holds in memory.
/// All increments are gated at `byte_cap` except two deadlock-breaking
/// overrides, each of which admits at most one band's working set past
/// the cap at a time (hence the `peak ≤ byte_cap + one band` guarantee):
///
/// * a band may be *claimed* over the cap when nothing is in flight and
///   no spill is pending — otherwise an over-cap band could never start;
/// * a finished C may be *charged* over the cap when its band is the
///   oldest in flight — its commit is what lets everyone else progress.
struct ResidentBudget {
    cap: usize,
    state: Mutex<BudgetState>,
    cv: Condvar,
}

#[derive(Default)]
struct BudgetState {
    /// In-flight band inputs + unspilled finished C bytes.
    resident: usize,
    /// Bands claimed but not yet committed.
    inflight: usize,
    /// Bands committed to the writer but not yet pushed into the store.
    pending_spills: usize,
    /// Next band index to claim (claims happen in plan order).
    next_band: usize,
    /// Bands committed so far — the oldest in-flight band's index.
    committed: usize,
    peak: usize,
    admit_wait_ns: u64,
    /// Set on writer I/O failure: admission stops gating so workers
    /// drain and the error can surface at join.
    poisoned: bool,
}

impl ResidentBudget {
    fn new(cap: usize) -> Self {
        Self {
            cap,
            state: Mutex::new(BudgetState::default()),
            cv: Condvar::new(),
        }
    }

    /// Claim the next band in plan order once its input fits the budget.
    fn claim_next(&self, band_bytes: &[usize]) -> Option<usize> {
        let mut g = self.state.lock().unwrap();
        loop {
            if g.next_band >= band_bytes.len() {
                return None;
            }
            let bytes = band_bytes[g.next_band];
            let fits = g.resident + bytes <= self.cap;
            let idle = g.inflight == 0 && g.pending_spills == 0;
            if fits || idle || g.poisoned {
                let i = g.next_band;
                g.next_band += 1;
                g.resident += bytes;
                g.inflight += 1;
                g.peak = g.peak.max(g.resident);
                return Some(i);
            }
            let blocked = Instant::now();
            g = self.cv.wait(g).unwrap();
            g.admit_wait_ns += blocked.elapsed().as_nanos() as u64;
        }
    }

    /// Charge a finished band's C bytes, waiting for room. The override:
    /// when `band` is the oldest in flight *and* the writer has drained
    /// its queue, the charge proceeds over cap — the oldest band's commit
    /// is what unblocks everyone else, and requiring an empty spill queue
    /// keeps successive overrides from stacking excess (the writer evicts
    /// the previous over-cap C before the next one may enter).
    fn charge_c(&self, band: usize, c_bytes: usize) {
        let mut g = self.state.lock().unwrap();
        loop {
            let fits = g.resident + c_bytes <= self.cap;
            let oldest = band == g.committed && g.pending_spills == 0;
            if fits || oldest || g.poisoned {
                break;
            }
            let blocked = Instant::now();
            g = self.cv.wait(g).unwrap();
            g.admit_wait_ns += blocked.elapsed().as_nanos() as u64;
        }
        g.resident += c_bytes;
        g.peak = g.peak.max(g.resident);
    }

    /// In-order commit of a band: its input bytes leave the budget, its C
    /// is now queued for the writer.
    fn commit(&self, input_bytes: usize) {
        let mut g = self.state.lock().unwrap();
        g.resident -= input_bytes;
        g.inflight -= 1;
        g.pending_spills += 1;
        g.committed += 1;
        self.cv.notify_all();
    }

    /// The writer finished one band; `disk_bytes` of residency moved to
    /// disk (this band and/or older evictions).
    fn spill_done(&self, disk_bytes: usize) {
        let mut g = self.state.lock().unwrap();
        g.resident -= disk_bytes;
        g.pending_spills -= 1;
        self.cv.notify_all();
    }

    /// Current resident bytes (writer-side view for global eviction).
    fn resident(&self) -> usize {
        self.state.lock().unwrap().resident
    }

    /// Writer I/O failure: stop gating so every waiter drains.
    fn poison(&self) {
        self.state.lock().unwrap().poisoned = true;
        self.cv.notify_all();
    }

    /// `(peak resident bytes, summed admission wait ns)`.
    fn stats(&self) -> (usize, u64) {
        let g = self.state.lock().unwrap();
        (g.peak, g.admit_wait_ns)
    }
}

/// Oldest-first spill store for finished C bands, pushed in band order:
/// bands stay in memory until the pipeline's writer evicts them, which
/// writes them to binary chunk files in a per-run temp directory. The
/// directory is created at the first write, removed by
/// [`SpillStore::into_stitched`] on success and by `Drop` on every other
/// path (early error, panic unwind, writer shutdown), so no spill files
/// outlive the run.
struct SpillStore<T: Scalar> {
    /// One slot per band, in band order.
    slots: Vec<Slot<T>>,
    dir: Option<std::path::PathBuf>,
    spilled: usize,
}

/// One band in the store: resident (`band` is `Some`), spilled (`None`),
/// or both — `staged` marks a resident band whose chunk file is already
/// on disk (write-behind), so evicting it frees memory with no I/O.
struct Slot<T: Scalar> {
    band: Option<CsrMatrix<T>>,
    staged: bool,
    /// The band's `(nrows, ncols, nnz)`, kept so the stitch sizes spilled
    /// bands without reopening their chunks and can check what it reads
    /// back.
    shape: (usize, usize, usize),
}

impl<T: Scalar> SpillStore<T> {
    fn new() -> Self {
        Self {
            slots: Vec::new(),
            dir: None,
            spilled: 0,
        }
    }

    /// How many bands have been written to disk so far.
    fn spilled(&self) -> usize {
        self.spilled
    }

    /// The spill directory, if any band has been written yet.
    #[cfg(test)]
    fn dir_path(&self) -> Option<&std::path::Path> {
        self.dir.as_deref()
    }

    fn chunk_path(dir: &std::path::Path, band: usize) -> std::path::PathBuf {
        dir.join(format!("shard-{band}.csr"))
    }

    /// Add the next band, resident.
    fn push(&mut self, c: CsrMatrix<T>) {
        self.slots.push(Slot {
            shape: (c.nrows(), c.ncols(), c.nnz()),
            band: Some(c),
            staged: false,
        });
    }

    /// Write the chunk file of the resident band in slot `pos`.
    fn write_chunk(&mut self, pos: usize) -> Result<(), SparseError> {
        if self.dir.is_none() {
            self.dir = Some(spill_dir()?);
        }
        let dir = self.dir.as_deref().expect("created above");
        let band = self.slots[pos].band.as_ref().expect("resident slot");
        let mut file = std::fs::File::create(Self::chunk_path(dir, pos))?;
        write_csr_chunk(band, &mut file)
    }

    /// Write the chunk file of the *oldest* unstaged resident band — the
    /// next eviction victim — while keeping the band resident
    /// (write-behind staging). A later [`Self::evict_oldest`] of a staged
    /// band frees its memory without any I/O, so the admission critical
    /// path never waits on a disk write. Staging exactly the next victim
    /// (rather than every band) wastes at most one chunk write on a band
    /// that ends up never evicted.
    fn stage_oldest(&mut self) -> Result<(), SparseError> {
        let Some(pos) = self
            .slots
            .iter()
            .position(|s| s.band.is_some() && !s.staged)
        else {
            return Ok(());
        };
        self.write_chunk(pos)?;
        self.slots[pos].staged = true;
        Ok(())
    }

    /// Spill the oldest resident band to disk, returning the CSR bytes
    /// freed; `None` when nothing is left to evict. Bands already staged
    /// drop instantly.
    fn evict_oldest(&mut self) -> Result<Option<usize>, SparseError> {
        let Some(pos) = self.slots.iter().position(|s| s.band.is_some()) else {
            return Ok(None);
        };
        if !self.slots[pos].staged {
            self.write_chunk(pos)?;
        }
        let band = self.slots[pos].band.take().expect("resident slot");
        self.spilled += 1;
        Ok(Some(band.byte_size()))
    }

    /// Stitch every band (band order) into one matrix without ever
    /// holding all bands resident: the band shapes recorded at push size
    /// the final arrays once, then bands append one at a time — with a
    /// prefetch thread reading, decoding and unlinking the *next* spilled
    /// chunk (double-buffered `sync_channel(1)`) while the current band's
    /// indptr fix-up memcpy runs. A spilled chunk is decoded through
    /// [`split_csr_chunk`] into a `try_new`-validated matrix and must read
    /// back with the shape recorded at push, so a truncated, corrupt or
    /// swapped chunk is an error, never a malformed C. Consumes the store;
    /// the spill directory is removed on the way out.
    fn into_stitched(mut self, ncols: usize) -> Result<CsrMatrix<T>, SparseError> {
        let slots = std::mem::take(&mut self.slots);
        let nrows = slots.iter().map(|s| s.shape.0).sum();
        let nnz = slots.iter().map(|s| s.shape.2).sum();
        let mut out = BandStitch::with_capacity(nrows, nnz, ncols);
        let spilled: Vec<usize> = (0..slots.len())
            .filter(|&i| slots[i].band.is_none())
            .collect();
        let dir = self.dir.clone();
        std::thread::scope(|s| -> Result<(), SparseError> {
            let (tx, rx) = mpsc::sync_channel::<Result<CsrMatrix<T>, SparseError>>(1);
            s.spawn(move || {
                for i in spilled {
                    let dir = dir.as_deref().expect("spilled band without a dir");
                    let path = Self::chunk_path(dir, i);
                    let band = std::fs::read(&path)
                        .map_err(SparseError::from)
                        .and_then(|bytes| split_csr_chunk::<T>(&bytes)?.to_matrix());
                    // unlink here, off the stitch's critical path, so
                    // the final directory removal finds it empty; a
                    // failed unlink is left to that removal
                    let _ = std::fs::remove_file(&path);
                    let failed = band.is_err();
                    // A closed receiver (consumer error/panic) or a
                    // failed read both end the prefetch.
                    if tx.send(band).is_err() || failed {
                        break;
                    }
                }
            });
            for (i, slot) in slots.into_iter().enumerate() {
                let band = match slot.band {
                    Some(band) => band,
                    None => {
                        let band = rx.recv().map_err(|_| {
                            SparseError::Io("spill prefetch thread exited early".into())
                        })??;
                        let shape = (band.nrows(), band.ncols(), band.nnz());
                        if shape != slot.shape {
                            return Err(SparseError::Parse {
                                line: 0,
                                msg: format!(
                                    "spilled band {i} read back as {shape:?}, pushed as {:?}",
                                    slot.shape
                                ),
                            });
                        }
                        band
                    }
                };
                out.append(&band);
            }
            Ok(())
        })?;
        // `self` drops here, removing the spill directory.
        Ok(out.finish())
    }
}

impl<T: Scalar> Drop for SpillStore<T> {
    fn drop(&mut self) {
        if let Some(dir) = self.dir.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Unique spill directory per call: pid + a process-global counter, no
/// wall clock (the repo's determinism discipline) and no collisions
/// between concurrent sharded runs in one process.
fn spill_dir() -> Result<std::path::PathBuf, SparseError> {
    static COUNTER: Mutex<u64> = Mutex::new(0);
    let n = {
        let mut guard = COUNTER.lock().unwrap();
        *guard += 1;
        *guard
    };
    let dir = std::env::temp_dir().join(format!("spmm-shard-{}-{}", std::process::id(), n));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hhcpu::hh_cpu;
    use spmm_scalefree::GeneratorConfig;

    fn matrix(seed: u64) -> CsrMatrix<f64> {
        spmm_scalefree::scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(
            300, 2_000, 2.1, seed,
        ))
    }

    #[test]
    fn plan_covers_all_rows_with_balanced_nnz() {
        let a = matrix(7);
        for shards in [1, 2, 3, 8] {
            let plan = ShardPlan::nnz_balanced(&a, shards);
            assert_eq!(plan.shards(), shards);
            assert_eq!(plan.bounds()[0], 0);
            assert_eq!(*plan.bounds().last().unwrap(), a.nrows());
            let mut total = 0;
            for i in 0..plan.shards() {
                let band = plan.band(i);
                assert!(!band.is_empty(), "band {i} empty");
                total += band.len();
            }
            assert_eq!(total, a.nrows());
            // nnz balance: no band more than ~2× the ideal share + one
            // hub row (cuts land on row boundaries)
            let ideal = a.nnz() / shards;
            let max_row = a.max_row_nnz();
            for i in 0..plan.shards() {
                let band = plan.band(i);
                let nnz = a.indptr()[band.end] - a.indptr()[band.start];
                assert!(
                    nnz <= 2 * ideal + max_row,
                    "band {i} holds {nnz} of ~{ideal}"
                );
            }
        }
    }

    #[test]
    fn plan_clamps_shards_to_rows() {
        let tiny = CsrMatrix::try_new(2, 2, vec![0, 1, 2], vec![0, 1], vec![1.0, 2.0]).unwrap();
        let plan = ShardPlan::nnz_balanced(&tiny, 8);
        assert_eq!(plan.shards(), 2);
        let empty = CsrMatrix::<f64>::zeros(5, 5);
        let plan = ShardPlan::nnz_balanced(&empty, 3);
        assert_eq!(plan.shards(), 3);
        assert_eq!(plan.bounds(), &[0, 1, 3, 5]);
    }

    #[test]
    fn concat_inverts_row_band() {
        let a = matrix(11);
        let plan = ShardPlan::nnz_balanced(&a, 5);
        let bands: Vec<_> = (0..5).map(|i| a.row_band(plan.band(i))).collect();
        let back = concat_row_bands(&bands, a.ncols());
        assert_eq!(back, a);
        assert_eq!(back.content_hash(), a.content_hash());
    }

    #[test]
    fn sharded_matches_monolithic_both_modes() {
        let a = matrix(3);
        let mut ctx = HeteroContext::paper().with_host_threads(2);
        let config = HhCpuConfig::default();
        let mono = hh_cpu(&mut ctx, &a, &a, &config);
        for byte_cap in [usize::MAX, 0] {
            let shard = ShardConfig::out_of_core(3, byte_cap);
            let out = hh_cpu_sharded(&mut ctx, &a, &a, &config, &shard);
            assert_eq!(out.output.c.content_hash(), mono.c.content_hash());
            assert_eq!(out.output.c, mono.c);
            assert_eq!(out.output.profile, mono.profile);
            assert_eq!(out.output.tuples_merged, mono.tuples_merged);
            assert_eq!(out.output.threshold_a, mono.threshold_a);
            assert_eq!(out.output.hd_rows_a, mono.hd_rows_a);
            assert_eq!(out.plan.shards(), 3);
            if byte_cap == 0 {
                assert_eq!(out.spilled_shards, 3, "byte_cap 0 must spill every shard");
            } else {
                assert_eq!(out.spilled_shards, 0, "an uncapped run never spills");
            }
        }
    }

    #[test]
    fn profile_is_sum_of_shards_and_mode_invariant() {
        // every band runs its slice of the one global plan, so the bands'
        // summed claim counts give the monolithic profile, pooled and
        // out-of-core alike
        let a = matrix(5);
        let b = matrix(6);
        let mut ctx = HeteroContext::paper().with_host_threads(2);
        let config = HhCpuConfig::default();
        let mono = hh_cpu(&mut ctx, &a, &b, &config);
        let pooled = hh_cpu_sharded(&mut ctx, &a, &b, &config, &ShardConfig::pooled(4));
        let ooc = hh_cpu_sharded(&mut ctx, &a, &b, &config, &ShardConfig::out_of_core(4, 0));
        for out in [&pooled, &ooc] {
            assert_eq!(out.output.c, mono.c);
            assert_eq!(out.output.profile, mono.profile);
            assert_eq!(out.output.hd_rows_b, mono.hd_rows_b);
            assert_eq!(out.output.tuples_merged, mono.tuples_merged);
        }
    }

    #[test]
    fn single_shard_cross_product_equals_monolithic_profile() {
        // With one band and A ≠ B the band runs the whole global schedule,
        // so even the simulated profile must agree to the bit.
        let a = matrix(9);
        let b = matrix(10);
        let mut ctx = HeteroContext::paper();
        let config = HhCpuConfig::default();
        let mono = hh_cpu(&mut ctx, &a, &b, &config);
        let out = hh_cpu_sharded(&mut ctx, &a, &b, &config, &ShardConfig::pooled(1));
        assert_eq!(out.output.c, mono.c);
        assert_eq!(out.output.profile, mono.profile);
        assert_eq!(out.output.tuples_merged, mono.tuples_merged);
    }

    #[test]
    fn band_schedules_partition_every_claim() {
        let rows = [0, 2, 3, 7, 8, 9];
        let global = ClaimSchedule {
            claims: [&rows[..], &rows[1..3], &[]]
                .map(|rows| ScheduledClaim {
                    device: spmm_hetsim::DeviceKind::Cpu,
                    rows,
                    b_mask: None,
                    sim_ns: 0.0,
                })
                .to_vec(),
        };
        let mut buf = Vec::new();
        let band = band_schedule(&global, 3..8, &mut buf);
        let local: Vec<&[usize]> = band.claims.iter().map(|c| c.rows).collect();
        assert_eq!(local, [&[0, 4][..], &[0], &[]]);
    }

    /// Largest per-band working set (input + C bytes) for a plan — the
    /// "one in-flight band" slack the budget's peak guarantee allows.
    fn max_band_working_set(a: &CsrMatrix<f64>, c: &CsrMatrix<f64>, plan: &ShardPlan) -> usize {
        (0..plan.shards())
            .map(|i| a.row_band_byte_size(plan.band(i)) + c.row_band_byte_size(plan.band(i)))
            .max()
            .unwrap()
    }

    #[test]
    fn out_of_core_matches_monolithic_and_honors_budget() {
        let a = matrix(21);
        let b = matrix(22);
        let config = HhCpuConfig::default();
        // one worker is the degenerate pipeline: bands in plan order, one
        // at a time, spill writes still behind them
        for threads in [1, 4] {
            let mut ctx = HeteroContext::paper().with_host_threads(threads);
            let mono = hh_cpu(&mut ctx, &a, &b, &config);
            for byte_cap in [0usize, 1, mono.c.byte_size() / 2, usize::MAX / 2] {
                let shard = ShardConfig::out_of_core(6, byte_cap);
                let piped = hh_cpu_sharded(&mut ctx, &a, &b, &config, &shard);

                assert_eq!(
                    piped.output.c, mono.c,
                    "out-of-core C drifted (cap {byte_cap}, {threads} threads)"
                );
                assert_eq!(piped.output.tuples_merged, mono.tuples_merged);
                assert_eq!(piped.output.profile, mono.profile);

                let stats = piped.pipe.expect("out-of-core run must report stats");
                assert_eq!(stats.byte_cap, byte_cap);
                assert!((1..=threads).contains(&stats.workers));
                let slack = max_band_working_set(&a, &mono.c, &piped.plan);
                assert!(
                    stats.peak_resident_bytes <= byte_cap.saturating_add(slack),
                    "peak {} exceeds cap {} + one band {}",
                    stats.peak_resident_bytes,
                    byte_cap,
                    slack
                );
                if byte_cap <= 1 {
                    assert_eq!(
                        piped.spilled_shards,
                        piped.plan.shards(),
                        "a cap of {byte_cap} bytes must spill every band"
                    );
                }
            }
        }
    }

    /// A store holding `bands` in order with the first `spill` of them
    /// evicted to disk.
    fn spilled_store(bands: &[CsrMatrix<f64>], spill: usize) -> SpillStore<f64> {
        let mut store = SpillStore::new();
        for band in bands {
            store.push(band.clone());
        }
        for _ in 0..spill {
            store.evict_oldest().unwrap().expect("a resident band");
        }
        store
    }

    #[test]
    fn spill_store_removes_dir_on_stitch() {
        let bands: Vec<CsrMatrix<f64>> = (0..4).map(|i| matrix(30 + i).row_band(0..50)).collect();
        let ncols = bands[0].ncols();
        // every band spilled, then mixed resident/spilled slots (one of
        // them staged), then nothing spilled
        for spill in [bands.len(), 2, 0] {
            let mut store = spilled_store(&bands, spill);
            store.stage_oldest().unwrap();
            assert_eq!(store.spilled(), spill);
            let dir = store
                .dir_path()
                .expect("store must have written a chunk")
                .to_path_buf();
            assert!(dir.exists());
            let stitched = store.into_stitched(ncols).unwrap();
            assert_eq!(stitched, concat_row_bands(&bands, ncols));
            assert!(!dir.exists(), "into_stitched must remove the spill dir");
        }
        let store = spilled_store(&bands, 0);
        assert!(store.dir_path().is_none(), "nothing written, no dir");
        assert_eq!(
            store.into_stitched(ncols).unwrap(),
            concat_row_bands(&bands, ncols)
        );
    }

    #[test]
    fn stitch_rejects_swapped_and_truncated_chunks() {
        let a = matrix(12);
        let plan = ShardPlan::nnz_balanced(&a, 2);
        let bands: Vec<CsrMatrix<f64>> = (0..2).map(|i| a.row_band(plan.band(i))).collect();
        assert_ne!(
            (bands[0].nrows(), bands[0].nnz()),
            (bands[1].nrows(), bands[1].nnz()),
            "the swap must change the recorded shape"
        );
        let chunk = |dir: &std::path::Path, i: usize| SpillStore::<f64>::chunk_path(dir, i);
        // band 1's chunk copied over band 0's: a valid chunk of the wrong
        // band
        let swap = |dir: &std::path::Path| {
            std::fs::copy(chunk(dir, 1), chunk(dir, 0)).unwrap();
        };
        // band 0's chunk cut short mid-array
        let truncate = |dir: &std::path::Path| {
            let bytes = std::fs::read(chunk(dir, 0)).unwrap();
            std::fs::write(chunk(dir, 0), &bytes[..bytes.len() / 2]).unwrap();
        };
        for corrupt in [&swap as &dyn Fn(&std::path::Path), &truncate] {
            let store = spilled_store(&bands, 2);
            let dir = store.dir_path().unwrap().to_path_buf();
            corrupt(&dir);
            assert!(
                store.into_stitched(a.ncols()).is_err(),
                "a corrupt spill chunk must fail the stitch"
            );
            assert!(!dir.exists(), "a failed stitch must remove the spill dir");
        }
    }

    #[test]
    fn spill_store_removes_dir_on_early_drop_and_unwind() {
        let band: CsrMatrix<f64> = matrix(40).row_band(10..60);
        let bands = [band];
        // early error / abandoned store: drop without stitching
        let store = spilled_store(&bands, 1);
        let dir = store.dir_path().unwrap().to_path_buf();
        assert!(dir.exists());
        drop(store);
        assert!(!dir.exists(), "Drop must remove the spill dir");
        // panic unwind: the store dies mid-use inside a panicking scope
        let dir_cell = Mutex::new(None);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let store = spilled_store(&bands, 1);
            *dir_cell.lock().unwrap() = Some(store.dir_path().unwrap().to_path_buf());
            panic!("simulated band failure");
        }));
        assert!(unwound.is_err());
        let dir = dir_cell.lock().unwrap().take().unwrap();
        assert!(!dir.exists(), "panic unwind must remove the spill dir");
    }

    #[test]
    fn writer_thread_shutdown_leaves_no_spill_files() {
        // The pipeline's spill thread owns the store; whatever way the
        // thread ends — clean return or panic unwind — the store's Drop
        // must take the spill directory with it.
        let bands = [matrix(41).row_band(0..40)];
        let clean = std::thread::spawn({
            let bands = bands.clone();
            move || {
                let store = spilled_store(&bands, 1);
                store.dir_path().unwrap().to_path_buf()
                // store dropped as the thread returns
            }
        })
        .join()
        .unwrap();
        assert!(!clean.exists(), "clean writer shutdown orphaned {clean:?}");

        let dir_cell = std::sync::Arc::new(Mutex::new(None));
        let panicked = std::thread::spawn({
            let dir_cell = dir_cell.clone();
            move || {
                let store = spilled_store(&bands, 1);
                *dir_cell.lock().unwrap() = Some(store.dir_path().unwrap().to_path_buf());
                panic!("simulated spill-thread failure");
            }
        })
        .join();
        assert!(panicked.is_err());
        let dir = dir_cell.lock().unwrap().take().unwrap();
        assert!(!dir.exists(), "panicking writer shutdown orphaned {dir:?}");
    }
}
