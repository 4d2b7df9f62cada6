//! Trace replay: drive a service from a JSONL request trace, keep every
//! multiply's full engine output, and (optionally) verify each one
//! bit-identical to a cold single-shot run.
//!
//! A trace is one request object per line (the `wire` protocol's
//! payloads without framing); blank lines and `#` comments are skipped.
//! The replayer is both the CI serve-smoke gate (warm ≡ cold, hard fail
//! on drift) and the `serve_*` throughput probe behind `BENCH_pr.json`.

use std::time::{Duration, Instant};

use spmm_core::{hh_cpu, HeteroContext, HhCpuConfig, Platform, SpmmOutput};

use super::json::{self, Json};
use super::service::{MultiplyReply, MultiplyRequest, SpmmService};
use super::wire;

/// What the replayer should do beyond dispatching.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayOptions {
    /// Re-run every multiply on a fresh cold [`HeteroContext`] and demand
    /// bit-identical output (matrix, profile, thresholds, counters).
    pub verify_cold: bool,
    /// Round-trip every trace line through the JSON writer/parser and the
    /// frame codec, catching wire-layer corruption.
    pub wire_selftest: bool,
}

/// One replayed multiply: the request as parsed plus the service's reply.
#[derive(Debug, Clone)]
pub struct ReplayedMultiply {
    pub request: MultiplyRequest,
    pub reply: MultiplyReply,
}

/// Result of one replay pass.
#[derive(Debug)]
pub struct ReplaySummary {
    /// Trace lines dispatched.
    pub requests: usize,
    /// Multiply products computed (batch items count individually).
    pub multiplies: usize,
    /// Multiplies served from a warm artifact cache.
    pub warm_artifact_hits: usize,
    /// Every multiply with its full engine output, in trace order.
    pub outputs: Vec<ReplayedMultiply>,
    /// Wall-clock time spent dispatching (excludes verification).
    pub wall: Duration,
    /// Human-readable descriptions of every warm-vs-cold bit drift
    /// (empty = the bit-identity contract held).
    pub drifts: Vec<String>,
}

fn selftest_line(line: &str, value: &Json) -> Result<(), String> {
    let reparsed = json::parse(&value.dump()).map_err(|e| format!("dump not parseable: {e}"))?;
    if reparsed != *value {
        return Err(format!(
            "dump/parse round trip changed the document: {line}"
        ));
    }
    let mut buf = Vec::new();
    wire::write_frame(&mut buf, value).map_err(|e| format!("frame write failed: {e}"))?;
    let back = wire::read_frame(&mut buf.as_slice())
        .map_err(|e| format!("frame read failed: {e}"))?
        .ok_or("frame read returned EOF")?;
    if back != *value {
        return Err(format!("frame round trip changed the document: {line}"));
    }
    Ok(())
}

/// Replay `trace` (JSONL) against `service`. Errors on unreadable lines
/// or failed requests; bit drift is reported in `drifts`, not an error,
/// so a gate can print every divergence before failing.
pub fn replay_trace(
    service: &SpmmService,
    trace: &str,
    options: &ReplayOptions,
) -> Result<ReplaySummary, String> {
    let mut summary = ReplaySummary {
        requests: 0,
        multiplies: 0,
        warm_artifact_hits: 0,
        outputs: Vec::new(),
        wall: Duration::ZERO,
        drifts: Vec::new(),
    };
    let start = Instant::now();
    for (lineno, line) in trace.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let context = |msg: String| format!("trace line {}: {msg}", lineno + 1);
        let request =
            json::parse(line).map_err(|e| context(format!("unparseable request: {e}")))?;
        if options.wire_selftest {
            selftest_line(line, &request).map_err(&context)?;
        }
        summary.requests += 1;
        match request.str_field("op") {
            Some("multiply") => {
                let req = wire::parse_multiply(&request).map_err(&context)?;
                let reply = service.multiply(&req).map_err(|e| context(e.to_string()))?;
                record(&mut summary, req, reply);
            }
            Some("batch") => {
                let items = request
                    .get("items")
                    .and_then(Json::as_array)
                    .ok_or_else(|| context("batch needs an \"items\" array".into()))?;
                let mut reqs = Vec::with_capacity(items.len());
                for item in items {
                    reqs.push(wire::parse_multiply(item).map_err(&context)?);
                }
                let replies = service
                    .multiply_batch(&reqs)
                    .map_err(|e| context(e.to_string()))?;
                for (req, reply) in reqs.into_iter().zip(replies) {
                    let reply = reply.map_err(|e| context(e.to_string()))?;
                    record(&mut summary, req, reply);
                }
            }
            Some("shutdown") => break,
            _ => {
                let reply = wire::handle_request(service, &request);
                if reply.get("ok") != Some(&Json::Bool(true)) {
                    return Err(context(format!("request failed: {}", reply.dump())));
                }
            }
        }
    }
    summary.wall = start.elapsed();

    if options.verify_cold {
        for (i, replayed) in summary.outputs.iter().enumerate() {
            if let Err(drift) = verify_against_cold(service, replayed) {
                summary.drifts.push(format!("multiply #{}: {drift}", i + 1));
            }
        }
    }
    Ok(summary)
}

fn record(summary: &mut ReplaySummary, request: MultiplyRequest, reply: MultiplyReply) {
    summary.multiplies += 1;
    if reply.warm {
        summary.warm_artifact_hits += 1;
    }
    summary.outputs.push(ReplayedMultiply { request, reply });
}

/// Run the same product on a fresh, cold, single-shot context and compare
/// every observable bit. The registry hands back `Arc` clones of one
/// allocation for `A = B`, so the cold run exercises the same
/// self-product fast paths the service did.
fn verify_against_cold(service: &SpmmService, replayed: &ReplayedMultiply) -> Result<(), String> {
    let reply = &replayed.reply;
    let (a, _) = service
        .registry()
        .get(reply.a_key)
        .ok_or("operand A evicted before verification")?;
    let (b, _) = service
        .registry()
        .get(reply.b_key)
        .ok_or("operand B evicted before verification")?;
    let config = HhCpuConfig {
        policy: replayed.request.policy,
        ..HhCpuConfig::default()
    };
    // a sharded or capped request replies what the monolithic run does,
    // so every multiply is held to a cold monolithic hh_cpu
    let mut ctx = HeteroContext::new(Platform::scaled(reply.scale));
    let cold = hh_cpu(&mut ctx, &a, &b, &config);
    diff_outputs(&reply.output, &cold)
}

/// Exact comparison of two engine outputs; `Err` describes the first
/// field that diverged.
pub fn diff_outputs(served: &SpmmOutput<f64>, cold: &SpmmOutput<f64>) -> Result<(), String> {
    if served.c != cold.c {
        return Err(format!(
            "product matrices differ (served {} nnz, cold {} nnz)",
            served.c.nnz(),
            cold.c.nnz()
        ));
    }
    if served.profile != cold.profile {
        return Err(format!(
            "profiles differ (served {:?}, cold {:?})",
            served.profile, cold.profile
        ));
    }
    let served_meta = (
        served.threshold_a,
        served.threshold_b,
        served.hd_rows_a,
        served.hd_rows_b,
        served.tuples_merged,
    );
    let cold_meta = (
        cold.threshold_a,
        cold.threshold_b,
        cold.hd_rows_a,
        cold.hd_rows_b,
        cold.tuples_merged,
    );
    if served_meta != cold_meta {
        return Err(format!(
            "decision metadata differs (served {served_meta:?}, cold {cold_meta:?})"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::service::ServiceConfig;

    const TRACE: &str = r#"
# tiny replay exercise
{"op":"gen","alias":"t","nrows":250,"nnz":1100,"alpha":2.3,"seed":9}
{"op":"multiply","a":"t","b":"t"}
{"op":"multiply","a":"t","b":"t"}
{"op":"stats"}
"#;

    fn service() -> SpmmService {
        SpmmService::new(ServiceConfig {
            host_threads: Some(2),
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn replay_counts_and_verifies_cold() {
        let service = service();
        let options = ReplayOptions {
            verify_cold: true,
            wire_selftest: true,
        };
        let summary = replay_trace(&service, TRACE, &options).unwrap();
        assert_eq!(summary.requests, 4);
        assert_eq!(summary.multiplies, 2);
        assert_eq!(summary.warm_artifact_hits, 1);
        assert!(summary.drifts.is_empty(), "{:?}", summary.drifts);
        // the two multiplies are bit-identical to each other too
        diff_outputs(
            &summary.outputs[0].reply.output,
            &summary.outputs[1].reply.output,
        )
        .unwrap();
    }

    #[test]
    fn second_pass_is_fully_warm() {
        let service = service();
        let options = ReplayOptions::default();
        replay_trace(&service, TRACE, &options).unwrap();
        let warm = replay_trace(&service, TRACE, &options).unwrap();
        assert_eq!(warm.warm_artifact_hits, warm.multiplies);
    }

    #[test]
    fn bad_lines_name_their_line_number() {
        let service = service();
        let err = replay_trace(&service, "\n{nope\n", &ReplayOptions::default()).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
        let err = replay_trace(
            &service,
            r#"{"op":"multiply","a":"ghost","b":"ghost"}"#,
            &ReplayOptions::default(),
        )
        .unwrap_err();
        assert!(err.contains("unknown matrix"), "{err}");
    }
}
