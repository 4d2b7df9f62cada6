//! The serve wire protocol: length-prefixed JSON frames.
//!
//! Each frame is a 4-byte little-endian payload length followed by one
//! UTF-8 JSON document. Requests are objects with an `"op"` field;
//! replies always carry `"ok"` (and `"error"` + `"code"` when false).
//! The same dispatcher serves stdio (one session) and a Unix socket (one
//! session per connection, all sharing one [`SpmmService`]).
//!
//! Numeric results cross the wire as *fingerprints*, not payloads: the
//! content hash of `C` and an FNV fingerprint of the nine
//! [`PhaseBreakdown`] bit patterns. Two runs are bit-identical iff their
//! fingerprints match, which is what the serve-smoke CI gate compares —
//! shipping gigabyte products through CI would test the pipe, not the
//! engine.

use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use spmm_core::{PhaseBreakdown, ThresholdPolicy};

use super::json::{self, hex64, Json};
use super::service::{MultiplyReply, MultiplyRequest, ServeError, SpmmService};

/// Hard cap on one frame's payload (catches corrupt length prefixes).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Write one frame: 4-byte LE length, then the JSON bytes.
pub fn write_frame<W: Write>(writer: &mut W, value: &Json) -> io::Result<()> {
    let payload = value.dump();
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame too large"))?;
    writer.write_all(&len.to_le_bytes())?;
    writer.write_all(payload.as_bytes())?;
    writer.flush()
}

/// Read one frame. `Ok(None)` on clean EOF (no bytes of a next frame);
/// mid-frame EOF, oversized lengths, and malformed JSON are errors.
pub fn read_frame<R: Read>(reader: &mut R) -> io::Result<Option<Json>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match reader.read(&mut len_bytes[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame length exceeds cap",
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    let text = std::str::from_utf8(&payload)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    json::parse(text)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// FNV-1a over the nine bit patterns of a [`PhaseBreakdown`] — equal iff
/// the simulated timing is bit-identical.
pub fn profile_fingerprint(profile: &PhaseBreakdown) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let fields = [
        profile.phase1.cpu_ns,
        profile.phase1.gpu_ns,
        profile.phase2.cpu_ns,
        profile.phase2.gpu_ns,
        profile.phase3.cpu_ns,
        profile.phase3.gpu_ns,
        profile.phase4.cpu_ns,
        profile.phase4.gpu_ns,
        profile.transfer_ns,
    ];
    let mut hash = OFFSET;
    for v in fields {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(PRIME);
        }
    }
    hash
}

fn error_reply(err: &ServeError) -> Json {
    let code = match err {
        ServeError::UnknownMatrix(_) => "unknown_matrix",
        ServeError::ShapeMismatch { .. } => "shape_mismatch",
        ServeError::Rejected => "rejected",
        ServeError::BadRequest(_) => "bad_request",
        ServeError::HashCollision(_) => "hash_collision",
        ServeError::Spill(_) => "spill_failed",
    };
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("code", code.into()),
        ("error", err.to_string().into()),
    ])
}

fn bad_request(message: impl Into<String>) -> Json {
    error_reply(&ServeError::BadRequest(message.into()))
}

fn load_reply(reply: &super::service::LoadReply) -> Json {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("key", hex64(reply.key).into()),
        ("nrows", reply.nrows.into()),
        ("ncols", reply.ncols.into()),
        ("nnz", reply.nnz.into()),
        ("scale", reply.scale.into()),
        ("warm", reply.warm.into()),
    ])
}

/// The multiply reply fields the replay verifier and CI gate compare.
pub fn multiply_reply(reply: &MultiplyReply) -> Json {
    let out = &reply.output;
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("a_key", hex64(reply.a_key).into()),
        ("b_key", hex64(reply.b_key).into()),
        ("warm", reply.warm.into()),
        ("scale", reply.scale.into()),
        ("c_rows", out.c.nrows().into()),
        ("c_cols", out.c.ncols().into()),
        ("c_nnz", out.c.nnz().into()),
        ("c_hash", hex64(out.c.content_hash()).into()),
        ("total_ns", Json::Num(out.total_ns())),
        (
            "profile_bits",
            hex64(profile_fingerprint(&out.profile)).into(),
        ),
        ("threshold_a", out.threshold_a.into()),
        ("threshold_b", out.threshold_b.into()),
        ("hd_rows_a", out.hd_rows_a.into()),
        ("hd_rows_b", out.hd_rows_b.into()),
        ("tuples_merged", out.tuples_merged.into()),
    ])
}

/// Parse the optional `"policy"` object of a multiply item.
fn parse_policy(value: Option<&Json>) -> Result<ThresholdPolicy, String> {
    let Some(value) = value else {
        return Ok(ThresholdPolicy::default());
    };
    let kind = value
        .str_field("kind")
        .ok_or_else(|| "policy needs a \"kind\"".to_string())?;
    match kind {
        "fixed" => {
            let t_a = value.usize_field("t_a").ok_or("fixed policy needs t_a")?;
            let t_b = value.usize_field("t_b").ok_or("fixed policy needs t_b")?;
            Ok(ThresholdPolicy::Fixed { t_a, t_b })
        }
        "balanced" => Ok(ThresholdPolicy::Balanced {
            candidates: candidates(value)?,
        }),
        "empirical" => Ok(ThresholdPolicy::Empirical {
            candidates: candidates(value)?,
        }),
        other => Err(format!("unknown policy kind {other:?}")),
    }
}

/// The `"candidates"` count of a searching policy (default 10, at least 1).
fn candidates(policy: &Json) -> Result<usize, String> {
    match policy.usize_field("candidates").unwrap_or(10) {
        0 => Err("policy candidates must be at least 1".to_string()),
        n => Ok(n),
    }
}

/// Parse one multiply item (the `multiply` op body or one `batch` entry).
pub fn parse_multiply(item: &Json) -> Result<MultiplyRequest, String> {
    let a = item.str_field("a").ok_or("multiply needs \"a\"")?;
    let b = item.str_field("b").ok_or("multiply needs \"b\"")?;
    Ok(MultiplyRequest {
        a: a.to_string(),
        b: b.to_string(),
        policy: parse_policy(item.get("policy"))?,
        scale: item.usize_field("scale"),
        shards: item.usize_field("shards"),
        byte_cap: item.usize_field("byte_cap"),
    })
}

fn stats_reply(service: &SpmmService) -> Json {
    let stats = service.stats();
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        (
            "registry",
            Json::obj(vec![
                ("entries", stats.registry.entries.into()),
                ("bytes", stats.registry.bytes.into()),
                ("hits", (stats.registry.hits as usize).into()),
                ("misses", (stats.registry.misses as usize).into()),
                ("dedup_hits", (stats.registry.dedup_hits as usize).into()),
                ("spec_hits", (stats.registry.spec_hits as usize).into()),
                ("evictions", (stats.registry.evictions as usize).into()),
            ]),
        ),
        (
            "artifacts",
            Json::obj(vec![
                ("entries", stats.artifacts.entries.into()),
                ("bytes", stats.artifacts.bytes.into()),
                ("hits", (stats.artifacts.hits as usize).into()),
                ("misses", (stats.artifacts.misses as usize).into()),
                ("evictions", (stats.artifacts.evictions as usize).into()),
                ("purged", (stats.artifacts.purged as usize).into()),
            ]),
        ),
        (
            "admission",
            Json::obj(vec![
                ("admitted", (stats.admission.admitted as usize).into()),
                ("rejected", (stats.admission.rejected as usize).into()),
            ]),
        ),
    ])
}

/// Dispatch one request object to the service. Always returns a reply
/// frame; protocol errors become `{"ok":false,…}` rather than panics.
pub fn handle_request(service: &SpmmService, request: &Json) -> Json {
    let Some(op) = request.str_field("op") else {
        return bad_request("request needs an \"op\" field");
    };
    match op {
        "ping" => Json::obj(vec![("ok", Json::Bool(true)), ("op", "ping".into())]),
        "shutdown" => Json::obj(vec![("ok", Json::Bool(true)), ("op", "shutdown".into())]),
        "stats" => stats_reply(service),
        "load_dataset" => {
            let Some(name) = request.str_field("name") else {
                return bad_request("load_dataset needs \"name\"");
            };
            let scale = request.usize_field("scale").unwrap_or(1);
            match service.load_dataset(name, scale) {
                Ok(reply) => load_reply(&reply),
                Err(err) => error_reply(&err),
            }
        }
        "gen" => {
            let (Some(nrows), Some(nnz)) =
                (request.usize_field("nrows"), request.usize_field("nnz"))
            else {
                return bad_request("gen needs \"nrows\" and \"nnz\"");
            };
            let alpha = request.get("alpha").and_then(Json::as_f64).unwrap_or(2.5);
            // the generator asserts these; a request must not reach them
            if nrows == 0 || nrows.checked_mul(nrows).is_none_or(|cap| nnz > cap) {
                return bad_request("gen needs nrows >= 1 and nnz <= nrows^2");
            }
            if !(alpha.is_finite() && alpha > 1.0) {
                return bad_request("gen needs a finite alpha > 1");
            }
            let seed = request.usize_field("seed").unwrap_or(0) as u64;
            let scale = request.usize_field("scale").unwrap_or(1);
            let alias = request.str_field("alias");
            match service.try_load_generated(alias, nrows, nnz, alpha, seed, scale) {
                Ok(reply) => load_reply(&reply),
                Err(err) => error_reply(&err),
            }
        }
        "load_path" => {
            let Some(path) = request.str_field("path") else {
                return bad_request("load_path needs \"path\"");
            };
            let scale = request.usize_field("scale").unwrap_or(1);
            match spmm_sparse::io::read_matrix_market::<f64, _>(path) {
                Ok(matrix) => {
                    match service.try_insert_matrix(matrix, request.str_field("alias"), scale) {
                        Ok(reply) => load_reply(&reply),
                        Err(err) => error_reply(&err),
                    }
                }
                Err(err) => bad_request(format!("cannot load {path:?}: {err}")),
            }
        }
        "multiply" => match parse_multiply(request) {
            Ok(req) => match service.multiply(&req) {
                Ok(reply) => multiply_reply(&reply),
                Err(err) => error_reply(&err),
            },
            Err(msg) => bad_request(msg),
        },
        "batch" => {
            let Some(items) = request.get("items").and_then(Json::as_array) else {
                return bad_request("batch needs an \"items\" array");
            };
            let mut requests = Vec::with_capacity(items.len());
            for item in items {
                match parse_multiply(item) {
                    Ok(req) => requests.push(req),
                    Err(msg) => return bad_request(msg),
                }
            }
            match service.multiply_batch(&requests) {
                Ok(replies) => Json::obj(vec![
                    ("ok", Json::Bool(true)),
                    (
                        "items",
                        Json::Arr(
                            replies
                                .iter()
                                .map(|r| match r {
                                    Ok(reply) => multiply_reply(reply),
                                    Err(err) => error_reply(err),
                                })
                                .collect(),
                        ),
                    ),
                ]),
                Err(err) => error_reply(&err),
            }
        }
        other => bad_request(format!("unknown op {other:?}")),
    }
}

/// Serve one session over a read/write stream pair until EOF or a
/// `shutdown` request. Returns whether shutdown was requested.
pub fn serve_stream<R: Read, W: Write>(
    service: &SpmmService,
    reader: &mut R,
    writer: &mut W,
) -> io::Result<bool> {
    while let Some(request) = read_frame(reader)? {
        let reply = handle_request(service, &request);
        write_frame(writer, &reply)?;
        if request.str_field("op") == Some("shutdown") {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Serve one session on stdin/stdout (the default `spmm_serve` mode).
pub fn serve_stdio(service: &SpmmService) -> io::Result<()> {
    let stdin = io::stdin();
    let stdout = io::stdout();
    serve_stream(service, &mut stdin.lock(), &mut stdout.lock())?;
    Ok(())
}

/// Serve concurrent sessions on a Unix socket, one thread per connection,
/// all sharing `service`. Returns when any session requests `shutdown`.
#[cfg(unix)]
pub fn serve_unix(service: Arc<SpmmService>, path: &Path) -> io::Result<()> {
    use std::os::unix::net::{UnixListener, UnixStream};

    let _ = std::fs::remove_file(path); // stale socket from a previous run
    let listener = UnixListener::bind(path)?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = stream?;
        let service = service.clone();
        let shutdown = shutdown.clone();
        let wake_path = path.to_path_buf();
        handles.push(std::thread::spawn(move || {
            let mut reader = match stream.try_clone() {
                Ok(r) => r,
                Err(_) => return,
            };
            let mut writer = stream;
            if serve_stream(&service, &mut reader, &mut writer).unwrap_or(false) {
                shutdown.store(true, Ordering::SeqCst);
                // unblock the accept loop so it observes the flag
                let _ = UnixStream::connect(&wake_path);
            }
        }));
    }
    for handle in handles {
        let _ = handle.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::service::ServiceConfig;
    use std::io::Cursor;

    fn service() -> SpmmService {
        SpmmService::new(ServiceConfig {
            host_threads: Some(2),
            ..ServiceConfig::default()
        })
    }

    #[test]
    fn frames_round_trip_and_eof_is_clean() {
        let doc = json::parse(r#"{"op":"ping","n":42}"#).unwrap();
        let mut buf = Vec::new();
        write_frame(&mut buf, &doc).unwrap();
        write_frame(&mut buf, &doc).unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(doc.clone()));
        assert_eq!(read_frame(&mut cursor).unwrap(), Some(doc));
        assert_eq!(read_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn truncated_and_oversized_frames_error() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Json::Null).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_frame(&mut Cursor::new(buf)).is_err());

        let huge = (MAX_FRAME_BYTES as u32 + 1).to_le_bytes().to_vec();
        assert!(read_frame(&mut Cursor::new(huge)).is_err());

        let mut partial_len = vec![1u8, 0];
        assert!(read_frame(&mut Cursor::new(std::mem::take(&mut partial_len))).is_err());
    }

    #[test]
    fn full_session_over_in_memory_streams() {
        let service = service();
        let mut input = Vec::new();
        for line in [
            r#"{"op":"gen","alias":"g","nrows":200,"nnz":900,"alpha":2.4,"seed":7}"#,
            r#"{"op":"multiply","a":"g","b":"g"}"#,
            r#"{"op":"multiply","a":"g","b":"g"}"#,
            r#"{"op":"stats"}"#,
            r#"{"op":"shutdown"}"#,
        ] {
            write_frame(&mut input, &json::parse(line).unwrap()).unwrap();
        }
        let mut output = Vec::new();
        let shut = serve_stream(&service, &mut Cursor::new(input), &mut output).unwrap();
        assert!(shut);

        let mut cursor = Cursor::new(output);
        let mut replies = Vec::new();
        while let Some(reply) = read_frame(&mut cursor).unwrap() {
            replies.push(reply);
        }
        assert_eq!(replies.len(), 5);
        for reply in &replies {
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
        }
        // second multiply is warm and bit-identical to the first
        assert_eq!(replies[1].get("warm"), Some(&Json::Bool(false)));
        assert_eq!(replies[2].get("warm"), Some(&Json::Bool(true)));
        for key in ["c_hash", "c_nnz", "profile_bits", "total_ns", "threshold_a"] {
            assert_eq!(replies[1].get(key), replies[2].get(key), "{key} drifted");
        }
        let arts = replies[3].get("artifacts").unwrap();
        assert_eq!(arts.usize_field("hits"), Some(1));
    }

    #[test]
    fn protocol_errors_are_replies_not_panics() {
        let service = service();
        for (line, code) in [
            (r#"{"no_op":1}"#, "bad_request"),
            (r#"{"op":"warp"}"#, "bad_request"),
            (
                r#"{"op":"multiply","a":"ghost","b":"ghost"}"#,
                "unknown_matrix",
            ),
            (r#"{"op":"load_dataset","name":"nope"}"#, "bad_request"),
            (r#"{"op":"multiply","a":"x"}"#, "bad_request"),
            (
                r#"{"op":"multiply","a":"x","b":"x","policy":{"kind":"warp"}}"#,
                "bad_request",
            ),
            // parameters the generator or the threshold ladder would
            // otherwise panic on
            (r#"{"op":"gen","nrows":0,"nnz":0}"#, "bad_request"),
            (r#"{"op":"gen","nrows":10,"nnz":101}"#, "bad_request"),
            (
                r#"{"op":"gen","nrows":100,"nnz":500,"alpha":1.0}"#,
                "bad_request",
            ),
            (
                r#"{"op":"multiply","a":"x","b":"x","policy":{"kind":"empirical","candidates":0}}"#,
                "bad_request",
            ),
            (
                r#"{"op":"multiply","a":"x","b":"x","policy":{"kind":"balanced","candidates":0}}"#,
                "bad_request",
            ),
        ] {
            let reply = handle_request(&service, &json::parse(line).unwrap());
            assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{line}");
            assert_eq!(reply.str_field("code"), Some(code), "{line}");
        }
        // the service keeps serving after every rejection
        let gen = r#"{"op":"gen","alias":"g","nrows":100,"nnz":500,"alpha":2.2}"#;
        let reply = handle_request(&service, &json::parse(gen).unwrap());
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
        let multiply =
            r#"{"op":"multiply","a":"g","b":"g","policy":{"kind":"empirical","candidates":1}}"#;
        let reply = handle_request(&service, &json::parse(multiply).unwrap());
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
    }

    #[test]
    fn hostile_matrix_market_headers_are_bad_requests() {
        let dir = std::env::temp_dir().join(format!("spmm-wire-mtx-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let header = "%%MatrixMarket matrix coordinate real general\n";
        let files = [
            // a header-sized reservation would abort the process
            ("huge_nnz.mtx", "3 3 1000000000000\n1 1 1.0\n"),
            // a column past the u32 index range would be stored at column 0
            ("wide.mtx", "2 4294967297 1\n1 4294967297 7.0\n"),
        ];
        let mut input = Vec::new();
        for (name, body) in files {
            let path = dir.join(name);
            std::fs::write(&path, format!("{header}{body}")).unwrap();
            let load = Json::obj(vec![
                ("op", Json::Str("load_path".into())),
                ("path", Json::Str(path.to_str().unwrap().into())),
            ]);
            write_frame(&mut input, &load).unwrap();
        }
        for line in [
            r#"{"op":"gen","alias":"g","nrows":100,"nnz":500,"alpha":2.2}"#,
            r#"{"op":"multiply","a":"g","b":"g"}"#,
        ] {
            write_frame(&mut input, &json::parse(line).unwrap()).unwrap();
        }
        let mut output = Vec::new();
        serve_stream(&service(), &mut Cursor::new(input), &mut output).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        let mut cursor = Cursor::new(output);
        let mut replies = Vec::new();
        while let Some(reply) = read_frame(&mut cursor).unwrap() {
            replies.push(reply);
        }
        assert_eq!(replies.len(), 4);
        for reply in &replies[..2] {
            assert_eq!(reply.get("ok"), Some(&Json::Bool(false)), "{reply:?}");
            assert_eq!(reply.str_field("code"), Some("bad_request"), "{reply:?}");
        }
        // the session keeps serving after both rejections
        for reply in &replies[2..] {
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
        }
    }

    #[test]
    fn profile_fingerprint_separates_close_profiles() {
        use spmm_core::PhaseBreakdown;
        let a = PhaseBreakdown::default();
        let b = PhaseBreakdown {
            transfer_ns: f64::MIN_POSITIVE, // one ulp of drift must be visible
            ..Default::default()
        };
        assert_ne!(profile_fingerprint(&a), profile_fingerprint(&b));
        assert_eq!(profile_fingerprint(&a), profile_fingerprint(&a.clone()));
    }
}
