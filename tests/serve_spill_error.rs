//! A failed spill is an error reply, not a panic.
//!
//! This binary holds one test because it points `TMPDIR` below a regular
//! file for the whole process: every spill directory the shard driver
//! tries to create there fails with "Not a directory".

use hetero_spmm::serve::json::{self, Json};
use hetero_spmm::serve::{handle_request, ServiceConfig, SpmmService};

#[test]
fn failed_spill_is_an_error_reply_and_the_service_keeps_serving() {
    let file = std::env::temp_dir().join(format!("spmm-spill-error-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    std::env::set_var("TMPDIR", file.join("spill"));

    let service = SpmmService::new(ServiceConfig {
        host_threads: Some(2),
        ..ServiceConfig::default()
    });
    let send = |line: &str| handle_request(&service, &json::parse(line).unwrap());
    let gen = send(r#"{"op":"gen","alias":"g","nrows":300,"nnz":1500,"alpha":2.3,"seed":4}"#);
    let capped = send(r#"{"op":"multiply","a":"g","b":"g","byte_cap":1}"#);
    let uncapped = send(r#"{"op":"multiply","a":"g","b":"g","shards":2}"#);
    std::fs::remove_file(&file).unwrap();

    assert_eq!(gen.get("ok"), Some(&Json::Bool(true)), "{}", gen.dump());
    assert_eq!(
        capped.get("ok"),
        Some(&Json::Bool(false)),
        "{}",
        capped.dump()
    );
    assert_eq!(
        capped.str_field("code"),
        Some("spill_failed"),
        "{}",
        capped.dump()
    );
    assert_eq!(
        uncapped.get("ok"),
        Some(&Json::Bool(true)),
        "{}",
        uncapped.dump()
    );
}
