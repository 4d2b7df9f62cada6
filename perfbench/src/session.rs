//! One workload against one in-process `SpmmService`: set-up, the
//! closed-loop request window, the output oracle and the mechanism guards.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use hetero_spmm::core::{hh_cpu, HeteroContext, HhCpuConfig, Platform};
use hetero_spmm::parallel::ThreadPool;
use hetero_spmm::serve::json::{self, hex64, Json};
use hetero_spmm::serve::wire::profile_fingerprint;
use hetero_spmm::serve::{handle_request, ServiceConfig, ServiceStats, SpmmService};
use hetero_spmm::sparse::{reference, CsrMatrix, WorkspacePool};

use crate::procfs;
use crate::workload::{multiply_text, Plan, Workload};

/// Thread counts of a run, fixed by the workload and the host.
#[derive(Clone, Copy, Debug)]
pub struct Threads {
    pub nproc: usize,
    pub clients: usize,
    pub host_threads: usize,
}

impl Threads {
    pub fn of(workload: Workload) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            nproc,
            clients: workload.clients(nproc),
            host_threads: workload.host_threads(nproc),
        }
    }
}

/// What one reply said about its product.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub product: usize,
    pub error: Option<String>,
    pub c_hash: String,
    pub c_nnz: usize,
    pub profile_bits: String,
    pub tuples_merged: usize,
    /// Simulated total of the reply's phase profile.
    pub sim_ns: f64,
}

impl Outcome {
    pub fn from_reply(product: usize, reply: &Json) -> Self {
        let text = |k: &str| reply.str_field(k).unwrap_or_default().to_string();
        let count = |k: &str| reply.usize_field(k).unwrap_or_default();
        let error = match reply.get("ok").and_then(Json::as_bool) {
            Some(true) => None,
            _ => Some(text("error")),
        };
        Self {
            product,
            error,
            c_hash: text("c_hash"),
            c_nnz: count("c_nnz"),
            profile_bits: text("profile_bits"),
            tuples_merged: count("tuples_merged"),
            sim_ns: reply
                .get("total_ns")
                .and_then(Json::as_f64)
                .unwrap_or_default(),
        }
    }
}

/// One set-up service with the request texts of its workload.
pub struct Session<'p> {
    pub plan: &'p Plan,
    pub service: SpmmService,
    /// Threads of the service's engine pool, as the service reports them.
    pub engine_threads: Option<usize>,
    /// Per product: the `gen` request of its operand (serve-cold) or its
    /// `multiply` request.
    pub texts: Vec<String>,
}

/// Thread count of the service's engine pool, read from its `Debug` form
/// (the service has no accessor for it). Read before any operand is
/// registered, while that form is a few hundred bytes.
fn engine_threads(service: &SpmmService) -> Option<usize> {
    const FIELD: &str = "pool: ThreadPool { num_threads: ";
    let text = format!("{service:?}");
    let rest = &text[text.find(FIELD)? + FIELD.len()..];
    rest[..rest.find(' ')?].parse().ok()
}

/// Parse, dispatch and encode one request, as the wire loop does minus
/// the framing.
pub fn call(service: &SpmmService, text: &str) -> Json {
    let request = json::parse(text).expect("benchmark requests are valid JSON");
    let reply = handle_request(service, &request);
    std::hint::black_box(reply.dump());
    reply
}

impl<'p> Session<'p> {
    /// Build the service, register the operands and send every distinct
    /// request once. Returns the session and the set-up wall seconds.
    pub fn set_up(
        plan: &'p Plan,
        inputs: &[CsrMatrix<f64>],
        threads: Threads,
        warm_up: &mut dyn FnMut(&Session<'p>, usize) -> Outcome,
    ) -> (Self, f64, Vec<Outcome>) {
        let registry_cap_bytes = match plan.workload {
            // Two operands fit, a third never does: every `gen` of the
            // eight-seed cycle misses and evicts exactly one entry.
            Workload::ServeCold => {
                let bytes: Vec<usize> = inputs.iter().map(CsrMatrix::byte_size).collect();
                let (min, max) = (bytes.iter().min(), bytes.iter().max());
                let (min, max) = (*min.expect("operands"), *max.expect("operands"));
                assert!(
                    4 * max < 5 * min,
                    "serve-cold operands differ too much in size"
                );
                2 * max + min / 2
            }
            _ => usize::MAX,
        };
        let config = ServiceConfig {
            host_threads: Some(threads.host_threads),
            max_inflight: threads.clients,
            queue_depth: threads.clients,
            registry_cap_bytes,
            ..ServiceConfig::default()
        };
        // the copies the service takes ownership of are the benchmark's work
        let copies: Vec<CsrMatrix<f64>> = match plan.workload {
            Workload::ServeCold => Vec::new(),
            _ => inputs.to_vec(),
        };
        let start = Instant::now();
        let service = SpmmService::new(config);
        let engine_threads = engine_threads(&service);
        let texts = match plan.workload {
            Workload::ServeCold => plan.products.iter().map(|p| plan.gen_text(p.a)).collect(),
            _ => {
                let tokens: Vec<String> = copies
                    .into_iter()
                    .zip(&plan.operands)
                    .map(|(m, op)| hex64(service.insert_matrix(m, None, op.scale).key))
                    .collect();
                plan.products
                    .iter()
                    .map(|p| multiply_text(&tokens[p.a], &tokens[p.b]))
                    .collect()
            }
        };
        let session = Session {
            plan,
            service,
            engine_threads,
            texts,
        };
        let outcomes = (0..plan.products.len())
            .map(|p| warm_up(&session, p))
            .collect();
        (session, start.elapsed().as_secs_f64(), outcomes)
    }

    /// One untraced request of `product`: the reply to time and check.
    pub fn serve(&self, product: usize) -> Json {
        let text = &self.texts[product];
        if self.plan.workload != Workload::ServeCold {
            return call(&self.service, text);
        }
        let gen = call(&self.service, text);
        match gen.str_field("key") {
            Some(key) => call(&self.service, &multiply_text(key, key)),
            None => gen,
        }
    }
}

/// One completed request of a window.
#[derive(Clone, Copy, Debug)]
pub struct Request {
    pub product: usize,
    /// Wall time from send to reply.
    pub ms: f64,
}

/// The samples of one closed-loop window.
pub struct Window<T> {
    pub requests: Vec<Request>,
    pub results: Vec<T>,
    pub wall_s: f64,
    /// Process CPU seconds over the window.
    pub cpu_s: f64,
    /// Host steal seconds over the window.
    pub steal_s: f64,
    /// Client threads that completed at least one request.
    pub clients: usize,
    /// Most requests in flight at once.
    pub peak_inflight: usize,
}

impl<T> Window<T> {
    pub fn latency_ms(&self) -> Vec<f64> {
        self.requests.iter().map(|r| r.ms).collect()
    }
}

struct Dispatch {
    next: usize,
    order: Vec<usize>,
    done: bool,
}

/// Run `clients` closed-loop clients over the plan's request cycles. The
/// window lasts at least `seconds` and `min_requests`, and ends on a cycle
/// boundary. `send(product, cycle)` issues one request and returns the
/// reply (timed); `finish` turns it into the stored result (untimed).
pub fn closed_loop<R, T: Send>(
    plan: &Plan,
    clients: usize,
    seconds: f64,
    min_requests: usize,
    send: impl Fn(usize, usize) -> R + Sync,
    finish: impl Fn(usize, R) -> T + Sync,
) -> Window<T> {
    let k = plan.products.len();
    let dispatch = Mutex::new(Dispatch {
        next: 0,
        order: Vec::new(),
        done: false,
    });
    let inflight = AtomicUsize::new(0);
    let peak_inflight = AtomicUsize::new(0);
    let (cpu0, steal0) = (procfs::process_cpu_s(), procfs::host_steal_s());
    let start = Instant::now();
    let take = || -> Option<(usize, usize)> {
        let mut d = dispatch.lock().expect("dispatcher lock");
        if d.done {
            return None;
        }
        if d.next.is_multiple_of(k) {
            if start.elapsed().as_secs_f64() >= seconds && d.next >= min_requests {
                d.done = true;
                return None;
            }
            d.order = plan.cycle((d.next / k) as u64);
        }
        let taken = (d.order[d.next % k], d.next / k);
        d.next += 1;
        Some(taken)
    };
    let per_client: Vec<Vec<(Request, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    while let Some((product, cycle)) = take() {
                        let t = Instant::now();
                        let now = inflight.fetch_add(1, Ordering::SeqCst) + 1;
                        peak_inflight.fetch_max(now, Ordering::SeqCst);
                        let reply = send(product, cycle);
                        inflight.fetch_sub(1, Ordering::SeqCst);
                        let ms = t.elapsed().as_secs_f64() * 1e3;
                        let request = Request { product, ms };
                        out.push((request, finish(product, reply)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let mut window = Window {
        requests: Vec::new(),
        results: Vec::new(),
        wall_s,
        cpu_s: procfs::process_cpu_s() - cpu0,
        steal_s: procfs::host_steal_s() - steal0,
        clients: per_client.iter().filter(|c| !c.is_empty()).count(),
        peak_inflight: peak_inflight.into_inner(),
    };
    for (request, result) in per_client.into_iter().flatten() {
        window.requests.push(request);
        window.results.push(result);
    }
    window
}

/// The oracle's values for one distinct product.
#[derive(Clone, Debug)]
pub struct Truth {
    pub c_hash: String,
    pub c_nnz: usize,
    pub profile_bits: String,
    pub tuples_merged: usize,
    pub flops: u64,
}

/// Relative and absolute tolerance of the engine against the serial
/// Gustavson reference (summation order differs, so not bit-exact).
pub const REF_RTOL: f64 = 1e-9;
pub const REF_ATOL: f64 = 1e-12;

/// Compute every distinct product once, cold, on a fresh context, and
/// check it against `sparse::reference`.
pub fn oracle(
    plan: &Plan,
    inputs: &[CsrMatrix<f64>],
    threads: Threads,
) -> Result<Vec<Truth>, String> {
    plan.products
        .iter()
        .map(|p| {
            let (a, b) = (&inputs[p.a], &inputs[p.b]);
            let mut ctx = HeteroContext::with_shared(
                Platform::scaled(plan.operands[p.a].scale),
                ThreadPool::new(threads.host_threads),
                Arc::new(WorkspacePool::new()),
            );
            let out = hh_cpu(&mut ctx, a, b, &HhCpuConfig::default());
            let expected = reference::spmm_rowrow(a, b).map_err(|e| e.to_string())?;
            if !out.c.approx_eq(&expected, REF_RTOL, REF_ATOL) {
                return Err(format!("{}: cold C differs from the reference", p.label));
            }
            Ok(Truth {
                c_hash: hex64(out.c.content_hash()),
                c_nnz: out.c.nnz(),
                profile_bits: hex64(profile_fingerprint(&out.profile)),
                tuples_merged: out.tuples_merged,
                flops: reference::flops(a, b),
            })
        })
        .collect()
}

/// Failed requests among `outcomes`: error replies and replies that
/// differ from the oracle.
pub fn failures(outcomes: &[Outcome], truth: &[Truth]) -> Vec<String> {
    outcomes
        .iter()
        .filter_map(|o| {
            let t = &truth[o.product];
            if let Some(err) = &o.error {
                return Some(format!("product {}: error reply: {err}", o.product));
            }
            let same = o.c_hash == t.c_hash
                && o.c_nnz == t.c_nnz
                && o.profile_bits == t.profile_bits
                && o.tuples_merged == t.tuples_merged;
            (!same).then(|| format!("product {}: reply differs from the oracle", o.product))
        })
        .collect()
}

/// Counter movement over one or more windows.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsDelta {
    pub artifact_hits: u64,
    pub artifact_misses: u64,
    pub evictions: u64,
    pub rejected: u64,
}

impl StatsDelta {
    pub fn between(before: &ServiceStats, after: &ServiceStats) -> Self {
        Self {
            artifact_hits: after.artifacts.hits - before.artifacts.hits,
            artifact_misses: after.artifacts.misses - before.artifacts.misses,
            evictions: after.registry.evictions - before.registry.evictions,
            rejected: after.admission.rejected - before.admission.rejected,
        }
    }

    pub fn plus(self, other: Self) -> Self {
        Self {
            artifact_hits: self.artifact_hits + other.artifact_hits,
            artifact_misses: self.artifact_misses + other.artifact_misses,
            evictions: self.evictions + other.evictions,
            rejected: self.rejected + other.rejected,
        }
    }

    pub fn hit_ratio(&self) -> f64 {
        let total = self.artifact_hits + self.artifact_misses;
        if total == 0 {
            0.0
        } else {
            self.artifact_hits as f64 / total as f64
        }
    }
}

/// Thread counts one window actually ran with.
#[derive(Clone, Copy, Debug)]
pub struct Ran {
    /// Client threads that completed at least one request.
    pub clients: usize,
    /// Most requests in flight at once.
    pub peak_inflight: usize,
    /// Threads of the service's engine pool.
    pub engine_threads: Option<usize>,
}

impl Ran {
    pub fn of<T>(session: &Session<'_>, window: &Window<T>) -> Self {
        Self {
            clients: window.clients,
            peak_inflight: window.peak_inflight,
            engine_threads: session.engine_threads,
        }
    }
}

/// The conditions under which a workload exercises the layer it exists
/// for. Each returned string is one broken condition; a run with any is
/// invalid, whatever its speed.
pub fn guard_violations(
    plan: &Plan,
    threads: Threads,
    ran: &[Ran],
    requests: usize,
    delta: &StatsDelta,
) -> Vec<String> {
    let mut bad = Vec::new();
    let w = plan.workload;
    let (clients, host_threads) = (w.clients(threads.nproc), w.host_threads(threads.nproc));
    for r in ran {
        if r.clients != clients || r.peak_inflight != clients {
            bad.push(format!(
                "{} clients ran, at most {} requests in flight, want {clients} of each",
                r.clients, r.peak_inflight
            ));
        }
        if r.engine_threads != Some(host_threads) {
            bad.push(format!(
                "engine pool of {:?} threads, want {host_threads}",
                r.engine_threads
            ));
        }
    }
    if delta.rejected > 0 {
        bad.push(format!("{} requests rejected by admission", delta.rejected));
    }
    match w {
        Workload::ServeWarm => {
            if delta.hit_ratio() != 1.0 {
                bad.push(format!("artifact hit ratio {} != 1", delta.hit_ratio()));
            }
        }
        Workload::ServeCold => {
            if delta.artifact_hits != 0 {
                bad.push(format!("{} artifact hits, want 0", delta.artifact_hits));
            }
            if delta.evictions != requests as u64 {
                bad.push(format!(
                    "{} registry evictions for {requests} requests",
                    delta.evictions
                ));
            }
        }
    }
    bad.sort();
    bad.dedup();
    bad
}
