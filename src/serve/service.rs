//! The long-lived SpMM service: sessions share one matrix registry, one
//! artifact cache, one workspace pool, and one admission gate.
//!
//! Request lifecycle:
//!
//! 1. **Admission.** A bounded gate caps concurrently executing requests
//!    and the queue behind them; beyond that, requests are rejected
//!    immediately (back-pressure the caller can see) instead of piling up.
//! 2. **Resolve.** Operand tokens (alias or `0x…` content hash) resolve
//!    through the registry; `A = B` requests share one `Arc`, so the
//!    engine's pointer-keyed self-product fast paths fire exactly as in a
//!    single-shot run.
//! 3. **Artifacts.** The `(A, B, policy, scale)` artifact cache either
//!    hits (warm: Phase I's host-side work is skipped entirely) or the
//!    artifacts are built once and published for every later request.
//! 4. **Execute.** A per-request [`HeteroContext`] is assembled from fresh
//!    device models (simulated caches start cold, like every single-shot
//!    run) plus the *shared* host pool and workspace pool, and
//!    [`hh_cpu_with_artifacts`] runs the phases.
//!
//! The bit-identity contract: a warm reply equals a cold single-shot
//! [`hh_cpu`](spmm_core::hh_cpu) on the same operands — same `C`, same
//! [`PhaseBreakdown`](spmm_core::PhaseBreakdown), same thresholds — which
//! `tests/serve_equivalence.rs` and the CI serve-smoke replay enforce.

use std::sync::{Arc, Condvar, Mutex};

use spmm_core::{
    hh_cpu_with_artifacts, try_hh_cpu_sharded_with_artifacts, HeteroContext, HhCpuConfig, Platform,
    ShardConfig, SpmmArtifacts, SpmmOutput, ThresholdPolicy,
};
use spmm_parallel::ThreadPool;
use spmm_scalefree::{scale_free_matrix, Dataset, GeneratorConfig};
use spmm_sparse::{CsrMatrix, WorkspacePool};

use super::artifacts::{ArtifactCache, ArtifactKey, ArtifactStats};
use super::registry::{MatrixKey, MatrixRegistry, RegistryStats};

/// Tunables of one service instance.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Host threads for the shared pool (`None` ⇒ available parallelism).
    pub host_threads: Option<usize>,
    /// Requests allowed to execute concurrently.
    pub max_inflight: usize,
    /// Requests allowed to wait behind the executing ones; beyond this the
    /// gate rejects.
    pub queue_depth: usize,
    /// Byte cap on registered matrices (LRU eviction).
    pub registry_cap_bytes: usize,
    /// Byte cap on cached artifacts (LRU eviction).
    pub artifact_cap_bytes: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            host_threads: None,
            max_inflight: 4,
            queue_depth: 64,
            registry_cap_bytes: usize::MAX,
            artifact_cap_bytes: usize::MAX,
        }
    }
}

/// Why a request was not served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No registered matrix for this token.
    UnknownMatrix(String),
    /// `A.ncols != B.nrows`.
    ShapeMismatch {
        a: (usize, usize),
        b: (usize, usize),
    },
    /// Admission control turned the request away (queue full).
    Rejected,
    /// Malformed request (bad op, missing field, unknown dataset, …).
    BadRequest(String),
    /// A loaded matrix hashed to the key of a different registered matrix
    /// (the load is refused; nothing was registered).
    HashCollision(MatrixKey),
    /// An out-of-core multiply could not write or read back a spilled
    /// band (its spill directory is already removed).
    Spill(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownMatrix(tok) => write!(f, "unknown matrix {tok:?}"),
            ServeError::ShapeMismatch { a, b } => {
                write!(f, "shape mismatch: A is {a:?}, B is {b:?}")
            }
            ServeError::Rejected => write!(f, "rejected: request queue full"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::HashCollision(key) => write!(
                f,
                "content hash {} already names a different matrix",
                super::json::hex64(*key)
            ),
            ServeError::Spill(msg) => write!(f, "out-of-core spill failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// One multiply request, operands by registry token.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiplyRequest {
    /// Alias or `0x…` content hash of `A`.
    pub a: String,
    /// Alias or `0x…` content hash of `B`.
    pub b: String,
    /// Phase-I threshold policy (the artifact-cache key's third leg).
    pub policy: ThresholdPolicy,
    /// Platform scale; `None` ⇒ the scale `A` was registered with.
    pub scale: Option<usize>,
    /// Row-band shard count; `None` or `Some(1)` ⇒ monolithic. Sharded
    /// requests run the shard driver against the same cached artifacts
    /// (each band drains its rows of the one global plan) and reply exactly
    /// what the monolithic multiply replies.
    pub shards: Option<usize>,
    /// Resident-byte budget of the shard driver
    /// ([`spmm_core::ShardConfig::byte_cap`]); `Some` routes the request
    /// through it (as one band unless `shards` says otherwise) and spills
    /// finished bands past the cap, `None` runs it uncapped. An execution
    /// knob: the reply stays the monolithic one and the artifact cache key
    /// is unchanged. A spill that fails answers [`ServeError::Spill`].
    pub byte_cap: Option<usize>,
}

impl MultiplyRequest {
    /// `A × B` under the default (empirical) policy at `A`'s scale.
    pub fn new(a: impl Into<String>, b: impl Into<String>) -> Self {
        Self {
            a: a.into(),
            b: b.into(),
            policy: ThresholdPolicy::default(),
            scale: None,
            shards: None,
            byte_cap: None,
        }
    }

    /// Same request, executed as `shards` row bands.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Same request, executed out-of-core under `byte_cap` resident bytes.
    pub fn with_byte_cap(mut self, byte_cap: usize) -> Self {
        self.byte_cap = Some(byte_cap);
        self
    }
}

/// A served multiply: the full engine output plus serving metadata.
#[derive(Debug, Clone)]
pub struct MultiplyReply {
    /// The engine's output, bit-identical to a cold single-shot run.
    pub output: SpmmOutput<f64>,
    /// Platform scale the run used.
    pub scale: usize,
    /// The artifact cache was warm (Phase I skipped).
    pub warm: bool,
    /// Content hash of `A`.
    pub a_key: MatrixKey,
    /// Content hash of `B`.
    pub b_key: MatrixKey,
}

/// Reply to a load/register request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadReply {
    pub key: MatrixKey,
    pub nrows: usize,
    pub ncols: usize,
    pub nnz: usize,
    /// Default platform scale attached to the entry.
    pub scale: usize,
    /// The content (or its load spec) was already registered.
    pub warm: bool,
}

/// Admission counters exposed by [`SpmmService::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    pub admitted: u64,
    pub rejected: u64,
}

/// Aggregated service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceStats {
    pub registry: RegistryStats,
    pub artifacts: ArtifactStats,
    pub admission: AdmissionStats,
}

#[derive(Debug, Default)]
struct GateState {
    active: usize,
    queued: usize,
    admitted: u64,
    rejected: u64,
}

/// Bounded two-stage admission gate: `max_active` requests execute, up to
/// `max_queued` wait, the rest are rejected without blocking.
#[derive(Debug)]
pub struct AdmissionGate {
    max_active: usize,
    max_queued: usize,
    state: Mutex<GateState>,
    cv: Condvar,
}

/// RAII execution slot; dropping it wakes one queued request.
#[derive(Debug)]
pub struct AdmissionPermit<'g> {
    gate: &'g AdmissionGate,
}

impl AdmissionGate {
    pub fn new(max_active: usize, max_queued: usize) -> Self {
        assert!(max_active >= 1, "need at least one execution slot");
        Self {
            max_active,
            max_queued,
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        }
    }

    /// Claim an execution slot, waiting in the bounded queue if necessary.
    pub fn enter(&self) -> Result<AdmissionPermit<'_>, ServeError> {
        let mut state = self.state.lock().unwrap();
        if state.active >= self.max_active {
            if state.queued >= self.max_queued {
                state.rejected += 1;
                return Err(ServeError::Rejected);
            }
            state.queued += 1;
            while state.active >= self.max_active {
                state = self.cv.wait(state).unwrap();
            }
            state.queued -= 1;
        }
        state.active += 1;
        state.admitted += 1;
        Ok(AdmissionPermit { gate: self })
    }

    fn stats(&self) -> AdmissionStats {
        let state = self.state.lock().unwrap();
        AdmissionStats {
            admitted: state.admitted,
            rejected: state.rejected,
        }
    }
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.state.lock().unwrap();
        state.active -= 1;
        drop(state);
        self.gate.cv.notify_one();
    }
}

/// The long-lived service. `Sync`: wrap in an `Arc` and hand clones to
/// every session thread.
#[derive(Debug)]
pub struct SpmmService {
    registry: MatrixRegistry,
    artifacts: ArtifactCache,
    pool: ThreadPool,
    workspaces: Arc<WorkspacePool>,
    gate: AdmissionGate,
}

impl SpmmService {
    pub fn new(config: ServiceConfig) -> Self {
        let pool = match config.host_threads {
            Some(n) => ThreadPool::new(n),
            None => ThreadPool::host(),
        };
        Self {
            registry: MatrixRegistry::new(config.registry_cap_bytes),
            artifacts: ArtifactCache::new(config.artifact_cap_bytes),
            pool,
            workspaces: Arc::new(WorkspacePool::new()),
            gate: AdmissionGate::new(config.max_inflight, config.queue_depth),
        }
    }

    /// The shared matrix registry.
    pub fn registry(&self) -> &MatrixRegistry {
        &self.registry
    }

    /// The shared artifact cache.
    pub fn artifact_cache(&self) -> &ArtifactCache {
        &self.artifacts
    }

    /// Aggregated counters.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            registry: self.registry.stats(),
            artifacts: self.artifacts.stats(),
            admission: self.gate.stats(),
        }
    }

    /// Register an in-memory matrix under `alias`, default scale
    /// `scale`.
    ///
    /// # Panics
    ///
    /// If the matrix's content hash already names a different registered
    /// matrix; [`Self::try_insert_matrix`] returns that as an error.
    pub fn insert_matrix(
        &self,
        matrix: CsrMatrix<f64>,
        alias: Option<&str>,
        scale: usize,
    ) -> LoadReply {
        self.try_insert_matrix(matrix, alias, scale)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// [`Self::insert_matrix`], answering a content-hash collision with
    /// [`ServeError::HashCollision`] — the form for untrusted input.
    pub fn try_insert_matrix(
        &self,
        matrix: CsrMatrix<f64>,
        alias: Option<&str>,
        scale: usize,
    ) -> Result<LoadReply, ServeError> {
        self.register(matrix, alias, None, scale)
    }

    /// Load a Table-I catalog clone at `1/scale` size. Warm re-loads of
    /// the same `(name, scale)` spec skip regeneration entirely.
    pub fn load_dataset(&self, name: &str, scale: usize) -> Result<LoadReply, ServeError> {
        let dataset = Dataset::by_name(name)
            .ok_or_else(|| ServeError::BadRequest(format!("unknown dataset {name:?}")))?;
        let effective = dataset.effective_scale(scale.max(1));
        let spec = format!("dataset:{}:{effective}", dataset.entry().name);
        if let Some(reply) = self.warm_load(&spec, effective) {
            return Ok(reply);
        }
        let matrix = dataset.load::<f64>(scale.max(1));
        self.register(matrix, Some(dataset.entry().name), Some(&spec), effective)
    }

    /// Generate and register a square power-law matrix. Warm repeats of
    /// the same parameters skip regeneration.
    ///
    /// # Panics
    ///
    /// If the generated matrix's content hash already names a different
    /// registered matrix; [`Self::try_load_generated`] returns that as an
    /// error.
    pub fn load_generated(
        &self,
        alias: Option<&str>,
        nrows: usize,
        nnz: usize,
        alpha: f64,
        seed: u64,
        scale: usize,
    ) -> LoadReply {
        self.try_load_generated(alias, nrows, nnz, alpha, seed, scale)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// [`Self::load_generated`], answering a content-hash collision with
    /// [`ServeError::HashCollision`].
    pub fn try_load_generated(
        &self,
        alias: Option<&str>,
        nrows: usize,
        nnz: usize,
        alpha: f64,
        seed: u64,
        scale: usize,
    ) -> Result<LoadReply, ServeError> {
        let spec = format!("gen:{nrows}:{nnz}:{alpha}:{seed}");
        if let Some(mut reply) = self.warm_load(&spec, scale) {
            if let Some(a) = alias {
                // refresh the alias binding without regenerating
                if let Some((m, _)) = self.registry.get(reply.key) {
                    let out = self
                        .registry
                        .insert((*m).clone(), Some(a), Some(&spec), scale)?;
                    reply.warm = out.dedup;
                }
            }
            return Ok(reply);
        }
        let matrix =
            scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(nrows, nnz, alpha, seed));
        self.register(matrix, alias, Some(&spec), scale)
    }

    /// One admitted multiply.
    pub fn multiply(&self, request: &MultiplyRequest) -> Result<MultiplyReply, ServeError> {
        let _permit = self.gate.enter()?;
        self.multiply_unguarded(request, None)
    }

    /// A batch of multiplies under **one** admission slot, with
    /// micro-batching: small products (by `nnz(A) + nnz(B)`) run
    /// items-parallel across the host pool in one guided pass, each with a
    /// serial engine; large products run one at a time with the parallel
    /// engine. Outputs are positionally matched to `requests` and
    /// bit-identical to serving each request alone — the engine is
    /// thread-count-invariant, which the equivalence suite pins.
    pub fn multiply_batch(
        &self,
        requests: &[MultiplyRequest],
    ) -> Result<Vec<Result<MultiplyReply, ServeError>>, ServeError> {
        let _permit = self.gate.enter()?;
        let small: Vec<usize> = (0..requests.len())
            .filter(|&i| self.is_small(&requests[i]))
            .collect();
        let mut replies: Vec<Option<Result<MultiplyReply, ServeError>>> =
            requests.iter().map(|_| None).collect();
        // one guided pass over all small products: the pool parallelises
        // *across* requests, each request runs the serial engine
        let serial = ThreadPool::new(1);
        for (slot, reply) in small.iter().zip(self.pool.par_map(small.len(), |i| {
            self.multiply_unguarded(&requests[small[i]], Some(&serial))
        })) {
            replies[*slot] = Some(reply);
        }
        for (i, request) in requests.iter().enumerate() {
            if replies[i].is_none() {
                replies[i] = Some(self.multiply_unguarded(request, None));
            }
        }
        Ok(replies
            .into_iter()
            .map(|r| r.expect("all slots filled"))
            .collect())
    }

    /// Batch requests whose `nnz(A) + nnz(B)` is below this run
    /// items-parallel across the pool with a serial engine each (one
    /// guided pass over the whole batch) instead of one-at-a-time with a
    /// parallel engine — per-product parallelism cannot amortise on
    /// products this small.
    const MICRO_BATCH_NNZ: usize = 40_000;

    fn is_small(&self, request: &MultiplyRequest) -> bool {
        let nnz = |token: &str| {
            self.registry
                .resolve(token)
                .and_then(|k| self.registry.peek_nnz(k))
        };
        match (nnz(&request.a), nnz(&request.b)) {
            (Some(a), Some(b)) => a + b < Self::MICRO_BATCH_NNZ,
            // unknown operands error out on the sequential path
            _ => false,
        }
    }

    fn warm_load(&self, spec: &str, scale: usize) -> Option<LoadReply> {
        let key = self.registry.lookup_spec(spec)?;
        let (matrix, _) = self.registry.get(key)?;
        Some(LoadReply {
            key,
            nrows: matrix.nrows(),
            ncols: matrix.ncols(),
            nnz: matrix.nnz(),
            scale,
            warm: true,
        })
    }

    fn register(
        &self,
        matrix: CsrMatrix<f64>,
        alias: Option<&str>,
        spec: Option<&str>,
        scale: usize,
    ) -> Result<LoadReply, ServeError> {
        let (nrows, ncols, nnz) = (matrix.nrows(), matrix.ncols(), matrix.nnz());
        let outcome = self.registry.insert(matrix, alias, spec, scale)?;
        for evicted in &outcome.evicted {
            self.artifacts.purge_matrix(*evicted);
        }
        Ok(LoadReply {
            key: outcome.key,
            nrows,
            ncols,
            nnz,
            scale,
            warm: outcome.dedup,
        })
    }

    /// The multiply body, shared by the admitted single and batch paths.
    /// `pool_override` swaps the engine's host pool (micro-batch workers
    /// pass a serial pool); simulated results are pool-invariant.
    fn multiply_unguarded(
        &self,
        request: &MultiplyRequest,
        pool_override: Option<&ThreadPool>,
    ) -> Result<MultiplyReply, ServeError> {
        let a_key = self
            .registry
            .resolve(&request.a)
            .ok_or_else(|| ServeError::UnknownMatrix(request.a.clone()))?;
        let b_key = self
            .registry
            .resolve(&request.b)
            .ok_or_else(|| ServeError::UnknownMatrix(request.b.clone()))?;
        let (a, a_scale) = self
            .registry
            .get(a_key)
            .ok_or_else(|| ServeError::UnknownMatrix(request.a.clone()))?;
        let (b, _) = self
            .registry
            .get(b_key)
            .ok_or_else(|| ServeError::UnknownMatrix(request.b.clone()))?;
        if a.ncols() != b.nrows() {
            return Err(ServeError::ShapeMismatch {
                a: a.shape(),
                b: b.shape(),
            });
        }
        let scale = request.scale.unwrap_or(a_scale).max(1);
        let pool = pool_override.unwrap_or(&self.pool).clone();
        let mut ctx =
            HeteroContext::with_shared(Platform::scaled(scale), pool, self.workspaces.clone());

        // artifacts are shard-invariant: every request keys one band
        let key = ArtifactKey {
            a: a_key,
            b: b_key,
            policy: request.policy,
            scale,
            shards: 1,
        };
        let (artifacts, warm) = match self.artifacts.get(&key) {
            Some(hit) => (hit, true),
            None => {
                let built = Arc::new(SpmmArtifacts::build(&ctx, &*a, &*b, request.policy));
                self.artifacts.insert(key, built.clone());
                (built, false)
            }
        };
        let config = HhCpuConfig {
            policy: request.policy,
            ..HhCpuConfig::default()
        };
        let shards = request.shards.unwrap_or(1).max(1);
        let output = if shards > 1 || request.byte_cap.is_some() {
            // a capped request without an explicit shard count runs as
            // one band; an uncapped one never spills
            let byte_cap = request.byte_cap.unwrap_or(usize::MAX);
            let shard_config = ShardConfig::out_of_core(shards, byte_cap);
            try_hh_cpu_sharded_with_artifacts(&mut ctx, &a, &b, &config, &shard_config, &artifacts)
                .map_err(|err| ServeError::Spill(err.to_string()))?
                .output
        } else {
            hh_cpu_with_artifacts(&mut ctx, &a, &b, &config, &artifacts)
        };
        Ok(MultiplyReply {
            output,
            scale,
            warm,
            a_key,
            b_key,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_rejects_beyond_queue_depth() {
        let gate = AdmissionGate::new(1, 0);
        let held = gate.enter().unwrap();
        assert_eq!(gate.enter().err(), Some(ServeError::Rejected));
        drop(held);
        let again = gate.enter().unwrap();
        drop(again);
        let stats = gate.stats();
        assert_eq!((stats.admitted, stats.rejected), (2, 1));
    }

    #[test]
    fn gate_queues_up_to_depth() {
        let gate = Arc::new(AdmissionGate::new(1, 2));
        let held = gate.enter().unwrap();
        let (g1, g2) = (gate.clone(), gate.clone());
        let h1 = std::thread::spawn(move || g1.enter().map(|_| ()).is_ok());
        let h2 = std::thread::spawn(move || g2.enter().map(|_| ()).is_ok());
        // give both a moment to reach the queue, then free the slot
        std::thread::sleep(std::time::Duration::from_millis(30));
        drop(held);
        assert!(h1.join().unwrap());
        assert!(h2.join().unwrap());
    }

    #[test]
    fn unknown_operands_and_shape_mismatch_error_cleanly() {
        let service = SpmmService::new(ServiceConfig {
            host_threads: Some(1),
            ..ServiceConfig::default()
        });
        let err = service
            .multiply(&MultiplyRequest::new("ghost", "ghost"))
            .unwrap_err();
        assert!(matches!(err, ServeError::UnknownMatrix(_)));

        service.load_generated(Some("sq"), 100, 400, 2.5, 1, 1);
        let rect = CsrMatrix::<f64>::zeros(50, 70);
        service.insert_matrix(rect, Some("rect"), 1);
        let err = service
            .multiply(&MultiplyRequest::new("sq", "rect"))
            .unwrap_err();
        assert!(matches!(err, ServeError::ShapeMismatch { .. }));
    }

    #[test]
    fn unknown_dataset_is_a_bad_request() {
        let service = SpmmService::new(ServiceConfig::default());
        assert!(matches!(
            service.load_dataset("no-such-matrix", 32),
            Err(ServeError::BadRequest(_))
        ));
    }
}
