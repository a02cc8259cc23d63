//! Every seeded violation under `fixtures/` is detected by its lint.
//!
//! The fixture tree mimics the workspace layout (`crates/<name>/src/...`)
//! because lint scoping is path-based; the files are never compiled.

use std::path::PathBuf;

use saphyra_check::scan::SourceFile;
use saphyra_check::{run_lints, Finding};

fn fixtures_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn findings() -> Vec<Finding> {
    let rels = [
        "crates/core/src/hash_iter.rs",
        "crates/service/src/deadlock.rs",
        "crates/service/src/server.rs",
        "crates/service/src/raw.rs",
        "crates/graph/src/mmap_raw.rs",
    ];
    let files: Vec<SourceFile> = rels
        .iter()
        .map(|rel| SourceFile::load(&fixtures_root(), rel).expect(rel))
        .collect();
    run_lints(&files, None)
}

fn with(lint: &str, pred: impl Fn(&Finding) -> bool) -> Vec<Finding> {
    findings()
        .into_iter()
        .filter(|f| f.lint == lint && pred(f))
        .collect()
}

#[test]
fn seeded_hash_iteration_detected() {
    let hits = with("determinism", |f| {
        f.file == "crates/core/src/hash_iter.rs" && f.pattern == "hash-iteration"
    });
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].func, "checksum");
}

#[test]
fn seeded_lock_cycle_detected() {
    let hits = with("lock-order", |f| f.pattern.starts_with("cycle:"));
    assert!(!hits.is_empty(), "ABBA cycle in deadlock.rs not found");
    assert!(
        hits.iter()
            .all(|f| f.pattern.contains("deadlock.a") && f.pattern.contains("deadlock.b")),
        "{hits:?}"
    );
}

#[test]
fn seeded_hot_path_unwrap_detected() {
    let unwraps = with("panic-path", |f| {
        f.file == "crates/service/src/server.rs" && f.pattern == "unwrap"
    });
    assert_eq!(unwraps.len(), 1, "{unwraps:?}");
    assert_eq!(unwraps[0].func, "handle");
    let indexes = with("panic-path", |f| {
        f.file == "crates/service/src/server.rs" && f.pattern == "index"
    });
    assert_eq!(indexes.len(), 1, "{indexes:?}");
}

#[test]
fn seeded_unannotated_unsafe_detected() {
    let hits = with("unsafe-audit", |f| f.file == "crates/service/src/raw.rs");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].func, "reinterpret");
}

/// A raw FFI syscall binding, the shape of the service reactor's epoll
/// calls: an `mmap` call whose `unsafe` block carries no `// SAFETY:`
/// justification must be caught.
#[test]
fn seeded_unannotated_mmap_call_detected() {
    let hits = with("unsafe-audit", |f| f.file == "crates/graph/src/mmap_raw.rs");
    assert_eq!(hits.len(), 1, "{hits:?}");
    assert_eq!(hits[0].func, "map_file");
    assert_eq!(hits[0].pattern, "missing-safety-comment");
}

/// The fixture set produces exactly the seeded findings and nothing else —
/// guards against the lints over-firing as much as under-firing.
#[test]
fn fixtures_produce_no_other_findings() {
    let extra: Vec<Finding> = findings()
        .into_iter()
        .filter(|f| {
            !matches!(
                (f.lint, f.pattern.as_str()),
                ("determinism", "hash-iteration")
                    | ("panic-path", "unwrap")
                    | ("panic-path", "index")
                    | ("unsafe-audit", "missing-safety-comment")
            ) && !f.pattern.starts_with("cycle:")
        })
        .collect();
    assert!(extra.is_empty(), "{extra:?}");
}
