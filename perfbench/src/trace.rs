//! The traced request path: the public calls `handle_request` →
//! `SpmmService::multiply` compose, replayed from the benchmark's own code
//! with a span around each layer's call. Spans stay in memory until the
//! run ends.

use std::sync::Arc;
use std::time::Instant;

use hetero_spmm::core::{
    hh_cpu_with_artifacts, HeteroContext, HhCpuConfig, Platform, SpmmArtifacts,
};
use hetero_spmm::parallel::ThreadPool;
use hetero_spmm::serve::json::{self, hex64, Json};
use hetero_spmm::serve::wire::{multiply_reply, parse_multiply};
use hetero_spmm::serve::{ArtifactKey, MultiplyReply};
use hetero_spmm::sparse::WorkspacePool;

use crate::session::Session;
use crate::workload::{multiply_text, Workload};

/// One finished span, timed from the start of its request.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Every span of one request; the request span is their parent.
#[derive(Clone, Debug, Default)]
pub struct RequestTrace {
    pub total_ns: u64,
    pub spans: Vec<Span>,
}

impl RequestTrace {
    /// Summed span time of `layer` in this request, if it ran.
    pub fn layer_ns(&self, layer: &str) -> Option<u64> {
        let mut hits = self.spans.iter().filter(|s| s.layer == layer).peekable();
        hits.peek()?;
        Some(hits.map(|s| s.end_ns - s.start_ns).sum())
    }

    /// Request time no child span covers. Children run one after another
    /// on the request's thread, so they never overlap.
    pub fn self_ns(&self) -> u64 {
        let covered: u64 = self.spans.iter().map(|s| s.end_ns - s.start_ns).sum();
        self.total_ns - covered
    }
}

struct Recorder {
    origin: Instant,
    trace: RequestTrace,
}

impl Recorder {
    fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.trace.spans.push(Span {
            layer,
            start_ns,
            end_ns,
        });
        out
    }
}

fn error(message: impl Into<String>) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("error", message.into().into()),
    ])
}

/// Owns the host pool and workspace pool the traced path hands to every
/// per-request context, mirroring the service's own pair (same thread
/// count, one workspace pool for the whole run).
pub struct Tracer {
    pool: ThreadPool,
    workspaces: Arc<WorkspacePool>,
}

impl Tracer {
    pub fn new(host_threads: usize) -> Self {
        Self {
            pool: ThreadPool::new(host_threads),
            workspaces: Arc::new(WorkspacePool::new()),
        }
    }

    /// One traced request of `product`: the reply and its spans.
    pub fn request(&self, session: &Session<'_>, product: usize) -> (Json, RequestTrace) {
        let mut rec = Recorder {
            origin: Instant::now(),
            trace: RequestTrace::default(),
        };
        let text = &session.texts[product];
        let reply = if session.plan.workload == Workload::ServeCold {
            match self.generate(session, text, &mut rec) {
                Ok(key) => self.multiply(session, &multiply_text(&key, &key), &mut rec),
                Err(reply) => reply,
            }
        } else {
            self.multiply(session, text, &mut rec)
        };
        rec.trace.total_ns = rec.origin.elapsed().as_nanos() as u64;
        (reply, rec.trace)
    }

    /// The `gen` op: decode, then `SpmmService::load_generated`.
    fn generate(
        &self,
        session: &Session<'_>,
        text: &str,
        rec: &mut Recorder,
    ) -> Result<String, Json> {
        let fields = rec.span("wire.decode", || {
            let req = json::parse(text).ok()?;
            Some((
                req.usize_field("nrows")?,
                req.usize_field("nnz")?,
                req.get("alpha").and_then(Json::as_f64)?,
                req.usize_field("seed")? as u64,
                req.usize_field("scale")?,
            ))
        });
        let (nrows, nnz, alpha, seed, scale) = fields.ok_or_else(|| error("bad gen request"))?;
        let load = rec.span("serve.gen", || {
            session
                .service
                .load_generated(None, nrows, nnz, alpha, seed, scale)
        });
        Ok(hex64(load.key))
    }

    /// The `multiply` op, call for call as `SpmmService::multiply` makes
    /// them for an unsharded request (admission aside: the gate admits
    /// every client of a run).
    fn multiply(&self, session: &Session<'_>, text: &str, rec: &mut Recorder) -> Json {
        let request = rec.span("wire.decode", || {
            json::parse(text)
                .map_err(|e| e.to_string())
                .and_then(|j| parse_multiply(&j))
        });
        let request = match request {
            Ok(r) if r.shards.is_some() || r.byte_cap.is_some() => {
                return error("the traced path replays unsharded requests only")
            }
            Ok(r) => r,
            Err(msg) => return error(msg),
        };
        let registry = session.service.registry();
        let operands = rec.span("registry.resolve", || {
            let a_key = registry.resolve(&request.a)?;
            let b_key = registry.resolve(&request.b)?;
            let (a, a_scale) = registry.get(a_key)?;
            let (b, _) = registry.get(b_key)?;
            Some((a_key, b_key, a, a_scale, b))
        });
        let Some((a_key, b_key, a, a_scale, b)) = operands else {
            return error("unknown matrix");
        };
        let scale = request.scale.unwrap_or(a_scale).max(1);
        let mut ctx = rec.span("context.build", || {
            HeteroContext::with_shared(
                Platform::scaled(scale),
                self.pool.clone(),
                self.workspaces.clone(),
            )
        });
        let key = ArtifactKey {
            a: a_key,
            b: b_key,
            policy: request.policy,
            scale,
            shards: 1,
        };
        let cache = session.service.artifact_cache();
        let found = rec.span("artifacts.lookup", || cache.get(&key));
        let (artifacts, warm) = match found {
            Some(hit) => (hit, true),
            None => {
                let built = rec.span("phase1.build", || {
                    Arc::new(SpmmArtifacts::build(&ctx, &*a, &*b, request.policy))
                });
                rec.span("artifacts.lookup", || cache.insert(key, built.clone()));
                (built, false)
            }
        };
        let config = HhCpuConfig {
            policy: request.policy,
            ..HhCpuConfig::default()
        };
        let output = rec.span("hhcpu.run", || {
            hh_cpu_with_artifacts(&mut ctx, &a, &b, &config, &artifacts)
        });
        rec.span("wire.encode", || {
            let reply = multiply_reply(&MultiplyReply {
                output,
                scale,
                warm,
                a_key,
                b_key,
            });
            std::hint::black_box(reply.dump());
            reply
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_request_minus_children() {
        let trace = RequestTrace {
            total_ns: 100,
            spans: vec![
                Span {
                    layer: "wire.decode",
                    start_ns: 0,
                    end_ns: 10,
                },
                Span {
                    layer: "hhcpu.run",
                    start_ns: 15,
                    end_ns: 80,
                },
                Span {
                    layer: "wire.decode",
                    start_ns: 80,
                    end_ns: 85,
                },
            ],
        };
        assert_eq!(trace.self_ns(), 20);
        assert_eq!(trace.layer_ns("wire.decode"), Some(15));
        assert_eq!(trace.layer_ns("phase1.build"), None);
    }
}
