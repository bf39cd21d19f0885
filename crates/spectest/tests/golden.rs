//! Runs the whole golden corpus as part of `cargo test`.
//!
//! The `spectest` binary is the day-to-day entry point (better reporting,
//! `--filter`, `--dump`); this test ensures plain `cargo test` covers the
//! corpus too.

use spectest::runner::{discover, run_case, CaseOutcome, RunOverrides};
use std::path::PathBuf;

#[test]
fn golden_corpus_passes() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    let files = discover(&[dir]).expect("tests/golden must exist");
    assert!(
        files.len() >= 12,
        "golden corpus too small: {} cases",
        files.len()
    );
    let mut failed = Vec::new();
    for path in &files {
        if let CaseOutcome::Fail(msg) = run_case(path, RunOverrides::default()) {
            failed.push(format!("{}:\n{msg}", path.display()));
        }
    }
    assert!(
        failed.is_empty(),
        "{} golden case(s) failed:\n{}",
        failed.len(),
        failed.join("\n")
    );
}
