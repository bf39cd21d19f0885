//! Chaos-recovery harness: kill a real `specc --serve-queue` process at
//! every named crashpoint mid-drain, restart it, and assert the system
//! converges — the cache verifies clean (or self-heals its debris), the
//! re-drain completes every request, and the compiled artifacts are
//! byte-identical to an uncrashed reference run.
//!
//! Crashpoints are armed through `SPECFRAME_CRASH_AT=<point>:<n>` (the
//! process aborts at the n-th hit of the named point); see
//! `specframe_core::crashpoint::POINTS` for the catalog.

use std::path::{Path, PathBuf};
use std::process::Command;

fn specc() -> Command {
    let mut c = Command::new(env!("CARGO_BIN_EXE_specc"));
    // never inherit an armed crashpoint from the harness environment
    c.env_remove("SPECFRAME_CRASH_AT");
    c.env_remove("SPECFRAME_CACHE_DIR");
    c
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "specc_chaos_{tag}_{}_{}",
            std::process::id(),
            std::thread::current()
                .name()
                .unwrap_or("t")
                .replace("::", "_")
        ));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).expect("create temp dir");
        TempDir(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Seeds `queue` with two mega requests whose `-o` outputs land in `out`.
fn seed_queue(queue: &Path, out: &Path) {
    std::fs::write(
        queue.join("a.req"),
        format!("mega 9:6 -o {}\n", out.join("a.ir").display()),
    )
    .unwrap();
    std::fs::write(
        queue.join("b.req"),
        format!("mega 11:4 -o {}\n", out.join("b.ir").display()),
    )
    .unwrap();
}

/// Drains `queue` against `cache`; returns (status-success, stderr).
fn drain(queue: &Path, cache: &Path, crash_at: Option<&str>) -> (bool, String) {
    let mut cmd = specc();
    cmd.arg("--serve-queue")
        .arg(queue)
        .arg("--cache-dir")
        .arg(cache);
    if let Some(point) = crash_at {
        cmd.env("SPECFRAME_CRASH_AT", point);
    }
    let out = cmd.output().expect("spawn specc --serve-queue");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Strips the counters a crash/restart legitimately moves: wall time is
/// nondeterministic and a re-drain may hit where the reference missed.
/// Everything else in a response — above all the compiled module bytes
/// behind the `-o` files — must match exactly.
fn normalize_resp(text: &str) -> String {
    text.lines()
        .map(|line| {
            line.split_whitespace()
                .map(|tok| {
                    for pfx in [
                        "hits=", "misses=", "stale=", "retries=", "ioerr=", "wall_ms=",
                    ] {
                        if let Some(rest) = tok.strip_prefix(pfx) {
                            let _ = rest;
                            return format!("{pfx}X");
                        }
                    }
                    tok.to_string()
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Names of files in `dir` with the given extension-suffix, sorted.
fn files_with_suffix(dir: &Path, suffix: &str) -> Vec<String> {
    let mut v: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(suffix))
        .collect();
    v.sort();
    v
}

/// True if any file anywhere under `dir` has a name starting `.tmp-`.
fn cache_has_tmp_debris(dir: &Path) -> bool {
    fn walk(d: &Path) -> bool {
        let Ok(rd) = std::fs::read_dir(d) else {
            return false;
        };
        for e in rd.flatten() {
            let p = e.path();
            if p.is_dir() {
                if walk(&p) {
                    return true;
                }
            } else if e.file_name().to_string_lossy().starts_with(".tmp-") {
                return true;
            }
        }
        false
    }
    walk(dir)
}

/// The tentpole scenario, once per crashpoint: reference run, crashed run,
/// verify, re-drain, converge.
fn crash_and_converge(point: &str) {
    let tag = point.replace('-', "_");
    let ref_queue = TempDir::new(&format!("{tag}_refq"));
    let ref_cache = TempDir::new(&format!("{tag}_refc"));
    let ref_out = TempDir::new(&format!("{tag}_refo"));
    seed_queue(ref_queue.path(), ref_out.path());
    let (ok, err) = drain(ref_queue.path(), ref_cache.path(), None);
    assert!(ok, "reference drain failed: {err}");
    let ref_a = std::fs::read(ref_out.join("a.ir")).unwrap();
    let ref_b = std::fs::read(ref_out.join("b.ir")).unwrap();
    let ref_resp_a = std::fs::read_to_string(ref_queue.join("a.resp")).unwrap();
    let ref_resp_b = std::fs::read_to_string(ref_queue.join("b.resp")).unwrap();

    let queue = TempDir::new(&format!("{tag}_q"));
    let cache = TempDir::new(&format!("{tag}_c"));
    let out = TempDir::new(&format!("{tag}_o"));
    seed_queue(queue.path(), out.path());
    let (ok, err) = drain(queue.path(), cache.path(), Some(&format!("{point}:1")));
    assert!(!ok, "crashpoint {point} did not abort the drain: {err}");
    assert!(
        err.contains(point),
        "abort notice for {point} missing from stderr: {err}"
    );

    // the cache must verify clean after the crash (debris is reported and
    // swept, never counted as corruption)
    let verify = specc()
        .args(["cache", "verify", "--cache-dir"])
        .arg(cache.path())
        .output()
        .expect("cache verify");
    assert!(
        verify.status.success(),
        "cache verify failed after {point} crash: {}{}",
        String::from_utf8_lossy(&verify.stdout),
        String::from_utf8_lossy(&verify.stderr)
    );

    // restart: the re-drain must complete every request
    let (ok, err) = drain(queue.path(), cache.path(), None);
    assert!(ok, "re-drain after {point} crash failed: {err}");

    // converged: no requests left, both responses present, no debris
    assert_eq!(
        files_with_suffix(queue.path(), ".req"),
        Vec::<String>::new(),
        "requests left after re-drain ({point})"
    );
    assert_eq!(
        files_with_suffix(queue.path(), ".resp"),
        vec!["a.resp".to_string(), "b.resp".to_string()],
        "responses missing after re-drain ({point})"
    );
    assert_eq!(
        files_with_suffix(queue.path(), ".resp.tmp"),
        Vec::<String>::new(),
        "orphaned .resp.tmp left after re-drain ({point})"
    );
    assert!(
        !cache_has_tmp_debris(cache.path()),
        "stale cache .tmp-* left after re-drain ({point})"
    );

    // the artifacts converge on the uncrashed reference byte-for-byte
    assert_eq!(
        std::fs::read(out.join("a.ir")).unwrap(),
        ref_a,
        "a.ir diverged from the reference after {point} crash"
    );
    assert_eq!(
        std::fs::read(out.join("b.ir")).unwrap(),
        ref_b,
        "b.ir diverged from the reference after {point} crash"
    );
    // responses match too, modulo wall time and hit/miss distribution
    // (a crash after a cache commit legitimately turns misses into hits)
    let norm = |p: &Path| normalize_resp(&std::fs::read_to_string(p).unwrap());
    assert_eq!(norm(&queue.join("a.resp")), normalize_resp(&ref_resp_a));
    assert_eq!(norm(&queue.join("b.resp")), normalize_resp(&ref_resp_b));

    // a third drain is a no-op that still succeeds (idempotence)
    let (ok, err) = drain(queue.path(), cache.path(), None);
    assert!(ok, "idempotent extra drain failed ({point}): {err}");
}

#[test]
fn crash_at_cache_pre_rename_converges() {
    crash_and_converge("cache-pre-rename");
}

#[test]
fn crash_at_cache_post_rename_converges() {
    crash_and_converge("cache-post-rename");
}

#[test]
fn crash_at_queue_pre_resp_rename_converges() {
    crash_and_converge("queue-pre-resp-rename");
}

#[test]
fn crash_at_queue_pre_remove_req_converges() {
    crash_and_converge("queue-pre-remove-req");
}

#[test]
fn unreadable_request_is_quarantined_and_the_drain_continues() {
    let queue = TempDir::new("quarantine");
    let cache = TempDir::new("quarantine_cache");
    let out = TempDir::new("quarantine_out");
    // a directory named *.req defeats read_to_string on every platform,
    // modeling an unreadable/corrupt request file
    std::fs::create_dir(queue.join("bad.req")).unwrap();
    std::fs::write(
        queue.join("good.req"),
        format!("mega 9:6 -o {}\n", out.join("good.ir").display()),
    )
    .unwrap();

    let (ok, err) = drain(queue.path(), cache.path(), None);
    assert!(ok, "drain with a quarantined request failed: {err}");
    assert!(
        err.contains("1 quarantined"),
        "quarantine count missing from summary: {err}"
    );
    let bad_err = std::fs::read_to_string(queue.join("bad.err")).unwrap();
    assert!(
        bad_err.starts_with("unreadable request:"),
        "quarantine note: {bad_err}"
    );
    let good = std::fs::read_to_string(queue.join("good.resp")).unwrap();
    assert!(
        good.starts_with("ok in="),
        "good request not served: {good}"
    );
    assert!(out.join("good.ir").exists());
}

#[test]
fn deadline_zero_exits_code_5_and_writes_no_cache_entry() {
    // `--deadline-ms 0` has expired before the optimizer starts; one
    // millisecond usually runs out while it works on 1000 functions
    for (mega, ms) in [("5:4", "0"), ("42:1000", "1")] {
        let cache = TempDir::new(&format!("deadline_cache_{ms}"));
        let out = specc()
            .args(["--mega", mega, "--deadline-ms", ms, "--cache-dir"])
            .arg(cache.path())
            .output()
            .expect("specc --deadline-ms");
        assert_eq!(
            out.status.code(),
            Some(5),
            "--deadline-ms {ms} should exit 5: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // no partial (or complete) cache entries may exist after a cancel
        let stats = specc()
            .args(["cache", "stats", "--cache-dir"])
            .arg(cache.path())
            .output()
            .expect("cache stats");
        let text = String::from_utf8_lossy(&stats.stdout).into_owned();
        assert!(
            text.contains("0 entries"),
            "cache not empty after deadline abort ({ms} ms): {text}"
        );
        assert!(!cache_has_tmp_debris(cache.path()));
    }
}
