//! The sharded driver's bit-identity contract.
//!
//! `hh_cpu_sharded` cuts A into nnz-balanced row bands, runs each band ×
//! full B through the executor on its slice of the one global claim
//! schedule, and stitches the outputs by indptr offset fix-up. The
//! contract (DESIGN.md §3.7): **the reply equals the monolithic run's** —
//! the same C (matrix and content hash), `PhaseBreakdown`, thresholds,
//! H/L row counts and `tuples_merged` — for every shard count × byte cap ×
//! host thread count, on the self-product and the cross product, for all
//! 12 Table-I clones. Each row meets the same claims in the same order as
//! in the monolithic run, and per-claim entry counts add across bands.
//!
//! Every leg runs the one pipelined driver (one worker at one host
//! thread) under three byte caps: uncapped (`usize::MAX`, nothing
//! spills), half the product's CSR bytes (some bands spill on every
//! clone) and 1 byte (every band takes the disk round-trip). Each leg
//! asserts the resident-byte ceiling
//! (`peak ≤ byte_cap + one band working set`, DESIGN.md §3.9).

use hetero_spmm::core::{hh_cpu_sharded_with_artifacts, SpmmArtifacts, ThresholdPolicy};
use hetero_spmm::prelude::*;
use hetero_spmm::serve::{MultiplyRequest, ServiceConfig, SpmmService};

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Deterministic A≠B partner: same shape and nnz budget as the clone,
/// different tail exponent and seed.
fn partner(a: &CsrMatrix<f64>, seed: u64) -> CsrMatrix<f64> {
    scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(
        a.nrows(),
        a.nnz().max(64),
        2.3,
        seed ^ 0x5bd1_e995,
    ))
}

/// Run the full acceptance matrix for one Table-I clone: shard counts
/// {1,2,3,8} × byte caps {uncapped, C/2, 1} × host threads {1,2,8} ×
/// A=B / A≠B.
fn exercise_clone(name: &str) {
    let dataset = Dataset::by_name(name).expect("catalog name");
    // ~1024-row clone: the bit-identity contract is scale-free, and this
    // suite runs 144 sharded multiplies per clone in debug tier-1
    let a = dataset.generate::<f64>((dataset.entry().rows / 1024).max(1));
    let b = partner(&a, a.nrows() as u64);
    let config = HhCpuConfig::default();

    for (label, rhs) in [("self", &a), ("cross", &b)] {
        let mut ctx = HeteroContext::paper().with_host_threads(2);
        let mono = hh_cpu(&mut ctx, &a, rhs, &config);
        let artifacts = SpmmArtifacts::build(&ctx, &a, rhs, ThresholdPolicy::default());
        let caps = [usize::MAX, mono.c.byte_size() / 2, 1];

        for shards in SHARD_COUNTS {
            for threads in THREAD_COUNTS {
                for cap in caps {
                    let what =
                        format!("{name} {label} shards={shards} threads={threads} cap={cap}");
                    let mut ctx = HeteroContext::paper().with_host_threads(threads);
                    let shard_config = ShardConfig::out_of_core(shards, cap);
                    let out = hh_cpu_sharded_with_artifacts(
                        &mut ctx,
                        &a,
                        rhs,
                        &config,
                        &shard_config,
                        &artifacts,
                    );
                    assert_eq!(
                        out.output.c.content_hash(),
                        mono.c.content_hash(),
                        "{what}: content hash drifted"
                    );
                    assert_eq!(out.output.c, mono.c, "{what}: C is not bit-identical");
                    assert_eq!(
                        out.output.tuples_merged, mono.tuples_merged,
                        "{what}: merge counter drifted"
                    );
                    assert_eq!(
                        (out.output.threshold_a, out.output.threshold_b),
                        (mono.threshold_a, mono.threshold_b),
                        "{what}: thresholds drifted"
                    );
                    assert_eq!(
                        (out.output.hd_rows_a, out.output.hd_rows_b),
                        (mono.hd_rows_a, mono.hd_rows_b),
                        "{what}: H/L classification drifted"
                    );
                    assert_eq!(
                        out.output.profile, mono.profile,
                        "{what}: profile differs from the monolithic run"
                    );
                    if cap < mono.c.byte_size() {
                        assert!(out.spilled_shards >= 1, "{what}: cap never spilled");
                    }
                    if cap == usize::MAX {
                        assert_eq!(out.spilled_shards, 0, "{what}: uncapped run spilled");
                    }
                    if cap == 1 {
                        assert_eq!(
                            out.spilled_shards,
                            out.plan.shards(),
                            "{what}: a 1-byte cap must spill every band"
                        );
                    }
                    let pipe = out
                        .pipe
                        .as_ref()
                        .expect("every sharded run reports pipe stats");
                    // one band's A slice + C band may exceed the cap
                    // while in flight, never more (DESIGN.md §3.9)
                    let working_set = (0..out.plan.shards())
                        .map(|i| {
                            a.row_band_byte_size(out.plan.band(i))
                                + mono.c.row_band_byte_size(out.plan.band(i))
                        })
                        .max()
                        .unwrap();
                    assert!(
                        pipe.peak_resident_bytes <= cap.saturating_add(working_set),
                        "{what}: peak resident {} exceeds cap {cap} + band {working_set}",
                        pipe.peak_resident_bytes
                    );
                    assert_eq!(pipe.byte_cap, cap, "{what}: stats cap drifted");
                }
            }
        }
    }
}

macro_rules! clone_tests {
    ($($fn_name:ident => $name:expr,)*) => {
        $(
            #[test]
            fn $fn_name() {
                exercise_clone($name);
            }
        )*
    };
}

clone_tests! {
    shard_equivalence_scircuit => "scircuit",
    shard_equivalence_webbase_1m => "webbase-1M",
    shard_equivalence_cop20ka => "cop20kA",
    shard_equivalence_web_google => "web-Google",
    shard_equivalence_p2p_gnutella31 => "p2p-Gnutella31",
    shard_equivalence_ca_condmat => "ca-CondMat",
    shard_equivalence_roadnet_ca => "roadNet-CA",
    shard_equivalence_internet => "internet",
    shard_equivalence_dblp2010 => "dblp2010",
    shard_equivalence_email_enron => "email-Enron",
    shard_equivalence_wiki_vote => "wiki-Vote",
    shard_equivalence_cit_patents => "cit-Patents",
}

/// The serve layer's sharded path: same registered operands, monolithic
/// and sharded multiplies, the same reply; the sharded request hits the
/// monolithic request's artifact entry (warm, no Phase I rerun) and adds
/// no entry of its own.
#[test]
fn serve_sharded_matches_monolithic() {
    let service = SpmmService::new(ServiceConfig {
        host_threads: Some(2),
        ..ServiceConfig::default()
    });
    service.load_dataset("scircuit", 32).unwrap();
    let mono = service
        .multiply(&MultiplyRequest::new("scircuit", "scircuit"))
        .unwrap();
    assert!(!mono.warm);
    let cached = service.stats().artifacts;
    for shards in [2, 4] {
        let sharded = service
            .multiply(&MultiplyRequest::new("scircuit", "scircuit").with_shards(shards))
            .unwrap();
        assert_eq!(sharded.output.c, mono.output.c, "shards={shards}");
        assert_eq!(sharded.output.profile, mono.output.profile);
        assert_eq!(sharded.output.tuples_merged, mono.output.tuples_merged);
        assert!(
            sharded.warm,
            "sharded request should hit the warm monolithic artifacts"
        );
    }
    let after = service.stats().artifacts;
    assert_eq!(
        (after.entries, after.bytes),
        (cached.entries, cached.bytes),
        "sharded requests must not add artifact entries or bytes"
    );
    // shards=1 and None are the same key: the second is a plain warm hit
    let one = service
        .multiply(&MultiplyRequest::new("scircuit", "scircuit").with_shards(1))
        .unwrap();
    assert!(one.warm);
    assert_eq!(one.output.c, mono.output.c);
    assert_eq!(one.output.profile, mono.output.profile);
}

/// The wire-exposed out-of-core mode: `byte_cap` on a multiply request
/// routes through the spill driver but changes no field of the reply, and
/// the request hits the same artifact entry as the monolithic run (warm,
/// no Phase I rerun, no entry added).
#[test]
fn serve_byte_cap_matches_monolithic() {
    let service = SpmmService::new(ServiceConfig {
        host_threads: Some(2),
        ..ServiceConfig::default()
    });
    service.load_dataset("email-Enron", 32).unwrap();
    let mono = service
        .multiply(&MultiplyRequest::new("email-Enron", "email-Enron"))
        .unwrap();
    assert!(!mono.warm);
    let cached = service.stats().artifacts;
    for (shards, cap) in [(1, 1), (3, 1), (4, usize::MAX / 2)] {
        let capped = service
            .multiply(
                &MultiplyRequest::new("email-Enron", "email-Enron")
                    .with_shards(shards)
                    .with_byte_cap(cap),
            )
            .unwrap();
        assert_eq!(
            capped.output.c, mono.output.c,
            "shards={shards} cap={cap}: C drifted under the byte cap"
        );
        assert_eq!(capped.output.profile, mono.output.profile);
        assert_eq!(capped.output.tuples_merged, mono.output.tuples_merged);
        assert!(
            capped.warm,
            "byte-capped request should hit the warm artifacts (shards={shards})"
        );
    }
    let after = service.stats().artifacts;
    assert_eq!(
        (after.entries, after.bytes),
        (cached.entries, cached.bytes),
        "capped requests must not add artifact entries or bytes"
    );
}

/// Full-size (scale 1) generator specs, runnable only under the
/// out-of-core driver with a memory cap. Ignored in default tier-1 — the
/// webbase-1M clone alone is ~1M rows / ~3.1M nnz and the product is far
/// bigger. Run explicitly:
/// `cargo test --release --test shard_equivalence -- --ignored`
fn full_scale_out_of_core(name: &str, shards: usize) {
    let dataset = Dataset::by_name(name).expect("catalog name");
    let a = dataset.generate::<f64>(1); // scale 1: published size
    assert_eq!(a.nrows(), dataset.entry().rows, "not the full-size clone");
    let config = HhCpuConfig::default();
    let mut ctx = HeteroContext::paper();
    // cap residency at one replica of B: with the self-product's C far
    // larger than B, most shards must take the disk round-trip
    let shard_config = ShardConfig::out_of_core(shards, a.byte_size());
    let out = hh_cpu_sharded(&mut ctx, &a, &a, &config, &shard_config);
    assert_eq!(out.plan.shards(), shards);
    assert!(
        out.spilled_shards >= 1,
        "a byte cap of bytes(B) must spill on the full-size product"
    );
    assert_eq!(out.output.c.nrows(), a.nrows());
    assert!(out.output.c.nnz() > a.nnz(), "product lost structure");

    // Spot-check stitched bands against the serial Gustavson reference
    // (tolerance comparison — the engine's summation order differs).
    let n = a.nrows();
    for start in [0usize, n / 2, n - 512] {
        let rows = start..(start + 512).min(n);
        let got = out.output.c.row_band(rows.clone());
        let want = reference::spmm_rowrow(&a.row_band(rows.clone()), &a).unwrap();
        assert!(
            got.approx_eq(&want, 1e-9, 1e-12),
            "{name}: rows {rows:?} drifted from the reference"
        );
    }
}

#[test]
#[ignore = "full-size webbase-1M out-of-core run (minutes, release only)"]
fn full_scale_webbase_1m_out_of_core() {
    full_scale_out_of_core("webbase-1M", 16);
}

#[test]
#[ignore = "full-size cit-Patents out-of-core run (minutes, release only)"]
fn full_scale_cit_patents_out_of_core() {
    full_scale_out_of_core("cit-Patents", 32);
}
