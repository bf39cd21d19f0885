//! End-to-end tests of `specc --serve`, `--serve-queue`, `--cache-dir` /
//! `SPECFRAME_CACHE_DIR`, and the `specc cache` maintenance subcommands —
//! all through the real binary, so cross-process key stability is what's
//! actually exercised.

use std::io::Write;
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn specc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_specc"))
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "specc_serve_{tag}_{}_{}",
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

    fn path(&self) -> &std::path::Path {
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

/// Runs one `--serve` session over the given stdin script; returns stdout.
fn serve_session(cache: &std::path::Path, script: &str, extra: &[&str]) -> String {
    let mut child = specc()
        .args(["--serve", "--cache-dir"])
        .arg(cache)
        .args(extra)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn specc --serve");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("serve session");
    assert!(
        out.status.success(),
        "serve exited {:?}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

#[test]
fn serve_cold_then_warm_across_processes_is_byte_identical() {
    let cache = TempDir::new("stdin");
    let outdir = TempDir::new("stdin_out");
    let cold_ir = outdir.join("cold.ir");
    let warm_ir = outdir.join("warm.ir");

    let cold = serve_session(
        cache.path(),
        &format!("mega 42:30 -o {}\nquit\n", cold_ir.display()),
        &[],
    );
    assert!(
        cold.contains("ok in=mega:42:30 funcs=30 hits=0 misses=30"),
        "{cold}"
    );

    // a NEW process: hits here prove the key has no process-local state
    let warm = serve_session(
        cache.path(),
        &format!("mega 42:30 -o {}\nstats\nquit\n", warm_ir.display()),
        &["--verbose"],
    );
    assert!(warm.contains("funcs=30 hits=30 misses=0 stale=0"), "{warm}");
    assert!(warm.contains("fn f0 hit\n"), "{warm}");
    assert!(warm.contains("ok in=stats entries=30"), "{warm}");

    let cold_bytes = std::fs::read(&cold_ir).unwrap();
    let warm_bytes = std::fs::read(&warm_ir).unwrap();
    assert!(!cold_bytes.is_empty());
    assert_eq!(cold_bytes, warm_bytes, "served outputs diverged");
}

#[test]
fn serve_reports_errors_without_dying() {
    let cache = TempDir::new("errs");
    let out = serve_session(
        cache.path(),
        "bogus\nmega notanumber\ncompile /definitely/missing.ir\nmega 5:4\nquit\n",
        &[],
    );
    assert!(out.contains("err in=bogus code=1"), "{out}");
    assert!(out.contains("err in=mega:notanumber code=1"), "{out}");
    assert!(
        out.contains("err in=compile:/definitely/missing.ir code=1"),
        "{out}"
    );
    // the session survived all three and still compiled
    assert!(out.contains("ok in=mega:5:4 funcs=4"), "{out}");
}

#[test]
fn serve_with_args_trains_profile_guided_compiles_on_them() {
    // a session started with --args keeps the profile-guided defaults and
    // trains every served compile on those arguments
    let cache = TempDir::new("trained");
    let input = cache.join("kernel.ir");
    std::fs::write(
        &input,
        "func main(n: i64) -> i64 {\n  var x: i64\nentry:\n  x = add n, 1\n  ret x\n}\n",
    )
    .unwrap();
    let out = serve_session(
        &cache.join("cache"),
        &format!("compile {}\nquit\n", input.display()),
        &["--args", "41"],
    );
    assert!(out.starts_with("ok in=compile:"), "{out}");
}

#[test]
fn serve_queue_drains_requests_to_resp_files() {
    let cache = TempDir::new("queue");
    let queue = TempDir::new("queue_dir");
    let drain = || {
        let out = specc()
            .args(["--serve-queue"])
            .arg(queue.path())
            .args(["--cache-dir"])
            .arg(cache.path())
            .output()
            .expect("spawn specc --serve-queue");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let out_ir = queue.join("m.ir");
    std::fs::write(
        queue.join("10-m.req"),
        format!("mega 9:6 -o {}\n", out_ir.display()),
    )
    .unwrap();
    std::fs::write(queue.join("20-s.req"), "stats\n").unwrap();
    drain();

    let resp1 = std::fs::read_to_string(queue.join("10-m.resp")).unwrap();
    assert!(
        resp1.contains("ok in=mega:9:6 funcs=6 hits=0 misses=6"),
        "{resp1}"
    );
    // queue order: the stats request ran after the compile populated it
    let resp2 = std::fs::read_to_string(queue.join("20-s.resp")).unwrap();
    assert!(resp2.contains("ok in=stats entries=6"), "{resp2}");
    assert!(out_ir.exists());
    assert!(
        !queue.join("10-m.req").exists(),
        "request files must be consumed"
    );
    assert!(!queue.join("20-s.req").exists());

    // a second drain over the same cache is served from it entirely and
    // writes the same bytes (under a new stem: a request whose response
    // exists is skipped as already served)
    let warm_ir = queue.join("warm.ir");
    std::fs::write(
        queue.join("30-w.req"),
        format!("mega 9:6 -o {}\n", warm_ir.display()),
    )
    .unwrap();
    drain();
    let resp = std::fs::read_to_string(queue.join("30-w.resp")).unwrap();
    assert!(
        resp.contains("ok in=mega:9:6 funcs=6 hits=6 misses=0 stale=0"),
        "{resp}"
    );
    assert_eq!(
        std::fs::read(&out_ir).unwrap(),
        std::fs::read(&warm_ir).unwrap()
    );
}

#[test]
fn cache_dir_env_var_enables_the_cache() {
    let cache = TempDir::new("env");
    for run in 0..2 {
        let out = specc()
            .args(["--mega", "8:5", "--stats", "-o"])
            .arg(cache.join(&format!("out{run}.ir")))
            .env("SPECFRAME_CACHE_DIR", cache.path())
            .output()
            .expect("spawn specc");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        let want = if run == 0 {
            "cache: 0 hits, 5 misses"
        } else {
            "cache: 5 hits, 0 misses"
        };
        assert!(err.contains(want), "run {run}: {err}");
    }
    assert_eq!(
        std::fs::read(cache.join("out0.ir")).unwrap(),
        std::fs::read(cache.join("out1.ir")).unwrap()
    );
}

#[test]
fn cache_subcommands_stats_verify_clear() {
    let cache = TempDir::new("subcmd");
    // populate via a plain compile
    let out = specc()
        .args(["--mega", "4:8", "--cache-dir"])
        .arg(cache.path())
        .arg("-o")
        .arg(cache.join("ignored.ir"))
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let stats = specc()
        .args(["cache", "stats", "--cache-dir"])
        .arg(cache.path())
        .output()
        .unwrap();
    assert!(stats.status.success());
    assert!(
        String::from_utf8_lossy(&stats.stdout).contains("8 entries"),
        "{stats:?}"
    );

    // healthy cache verifies clean
    let verify = specc()
        .args(["cache", "verify", "--cache-dir"])
        .arg(cache.path())
        .output()
        .unwrap();
    assert!(verify.status.success(), "{verify:?}");
    assert!(
        String::from_utf8_lossy(&verify.stdout).contains("8 ok, 0 bad"),
        "{verify:?}"
    );

    // sabotage one entry: verify must list it and exit 2
    let entry = walk_entries(cache.path())
        .into_iter()
        .next()
        .expect("an entry");
    let mut bytes = std::fs::read(&entry).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xff;
    std::fs::write(&entry, bytes).unwrap();
    let verify = specc()
        .args(["cache", "verify", "--cache-dir"])
        .arg(cache.path())
        .output()
        .unwrap();
    assert_eq!(verify.status.code(), Some(2), "{verify:?}");
    let text = String::from_utf8_lossy(&verify.stdout);
    assert!(text.contains("7 ok, 1 bad"), "{text}");
    assert!(text.contains("bad  "), "{text}");

    let clear = specc()
        .args(["cache", "clear", "--cache-dir"])
        .arg(cache.path())
        .output()
        .unwrap();
    assert!(clear.status.success());
    assert!(
        String::from_utf8_lossy(&clear.stdout).contains("removed 8 entries"),
        "{clear:?}"
    );
    assert!(walk_entries(cache.path()).is_empty());

    // no cache dir at all is a usage error (exit 1)
    let none = specc()
        .args(["cache", "stats"])
        .env_remove("SPECFRAME_CACHE_DIR")
        .output()
        .unwrap();
    assert_eq!(none.status.code(), Some(1), "{none:?}");
}

#[test]
fn two_concurrent_serve_processes_share_one_cache_without_corruption() {
    let cache = TempDir::new("concurrent");
    let outdir = TempDir::new("concurrent_out");
    // both sessions compile the same two workloads: every store races with
    // the sibling process writing the same keys
    let spawn = |tag: &str| {
        let script = format!(
            "mega 42:30 -o {}\nmega 7:10 -o {}\nquit\n",
            outdir.join(&format!("{tag}1.ir")).display(),
            outdir.join(&format!("{tag}2.ir")).display()
        );
        let mut child = specc()
            .args(["--serve", "--cache-dir"])
            .arg(cache.path())
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn specc --serve");
        child
            .stdin
            .as_mut()
            .unwrap()
            .write_all(script.as_bytes())
            .unwrap();
        child
    };
    let a = spawn("a");
    let b = spawn("b");
    for (tag, child) in [("a", a), ("b", b)] {
        let out = child.wait_with_output().expect("serve session");
        assert!(
            out.status.success(),
            "session {tag} exited {:?}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert_eq!(text.matches("ok in=mega:").count(), 2, "{tag}: {text}");
    }

    // whoever lost each race, the outputs must agree byte-for-byte
    for n in ["1", "2"] {
        assert_eq!(
            std::fs::read(outdir.join(&format!("a{n}.ir"))).unwrap(),
            std::fs::read(outdir.join(&format!("b{n}.ir"))).unwrap(),
            "concurrent sessions diverged on workload {n}"
        );
    }
    // and the shared cache holds no torn or undecodable entries
    let verify = specc()
        .args(["cache", "verify", "--cache-dir"])
        .arg(cache.path())
        .output()
        .unwrap();
    assert!(verify.status.success(), "{verify:?}");
    assert!(
        String::from_utf8_lossy(&verify.stdout).contains("40 ok, 0 bad"),
        "{verify:?}"
    );
}

#[test]
fn cache_fault_policy_output_is_byte_identical_to_the_faultless_run() {
    let cache_clean = TempDir::new("fault_clean");
    let cache_faulty = TempDir::new("fault_faulty");
    let outdir = TempDir::new("fault_out");
    let compile = |cache: &std::path::Path, policy: Option<&str>, out: &std::path::Path| {
        let mut cmd = specc();
        cmd.args(["--mega", "8:5", "--cache-dir"]).arg(cache);
        if let Some(p) = policy {
            cmd.args(["--cache-fault-policy", p]);
        }
        cmd.arg("-o").arg(out);
        let r = cmd.output().expect("spawn specc");
        assert!(
            r.status.success(),
            "policy {policy:?} failed: {}",
            String::from_utf8_lossy(&r.stderr)
        );
    };
    compile(cache_clean.path(), None, &outdir.join("clean.ir"));
    // cold (stores torn, retried) then warm (loads faulted, retried)
    compile(
        cache_faulty.path(),
        Some("torn-write:2"),
        &outdir.join("cold.ir"),
    );
    compile(
        cache_faulty.path(),
        Some("eio-read:3:2"),
        &outdir.join("warm.ir"),
    );
    let clean = std::fs::read(outdir.join("clean.ir")).unwrap();
    assert!(!clean.is_empty());
    assert_eq!(clean, std::fs::read(outdir.join("cold.ir")).unwrap());
    assert_eq!(clean, std::fs::read(outdir.join("warm.ir")).unwrap());

    // a malformed policy is rejected before any work starts
    let bad = specc()
        .args(["--mega", "8:5", "--cache-fault-policy", "explode:1"])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1), "{bad:?}");
}

/// Compiles `src` once with `specc` (no cache unless `extra` names one)
/// and returns the output bytes.
fn compile_once(dir: &TempDir, name: &str, src: &str, extra: &[&str]) -> Vec<u8> {
    let input = dir.join(&format!("{name}.ir"));
    let out = dir.join(&format!("{name}.out"));
    std::fs::write(&input, src).unwrap();
    let r = specc()
        .arg(&input)
        .args(["--spec", "none", "--control", "off"])
        .args(extra)
        .arg("-o")
        .arg(&out)
        .output()
        .expect("spawn specc");
    assert!(r.status.success(), "{}", String::from_utf8_lossy(&r.stderr));
    std::fs::read(&out).unwrap()
}

/// Regression: the caller edit `f(@b)` → `f(@a)` makes `f`'s store through
/// `p` alias its loads of `@a` without touching `f`'s body. The service
/// used to answer with a hit for `f` and replay code that reuses the
/// first load across the store (run result 6, reference 7); the served
/// output must equal an uncached compile.
#[test]
fn serve_recompiles_a_callee_whose_pointer_argument_was_retargeted() {
    let cache = TempDir::new("retarget");
    let dir = TempDir::new("retarget_io");
    let w1 = include_str!("smoke/retarget-callee.ir");
    let w2 = w1.replace("call f(@b)", "call f(@a)");
    std::fs::write(dir.join("w1.ir"), w1).unwrap();
    std::fs::write(dir.join("w2.ir"), &w2).unwrap();
    let served = dir.join("served.ir");
    let out = serve_session(
        cache.path(),
        &format!(
            "compile {} -o {}\ncompile {} -o {}\nquit\n",
            dir.join("w1.ir").display(),
            dir.join("first.ir").display(),
            dir.join("w2.ir").display(),
            served.display()
        ),
        &["--spec", "none", "--control", "off"],
    );
    let second = out
        .lines()
        .find(|l| l.starts_with("ok in=") && l.contains("w2.ir"))
        .unwrap_or_else(|| panic!("no response for w2.ir: {out}"));
    assert!(
        second.contains("funcs=2 hits=0 misses=2"),
        "f must miss: {second}"
    );
    let uncached = compile_once(&dir, "uncached", &w2, &[]);
    assert_eq!(std::fs::read(&served).unwrap(), uncached);
}

/// Regression: HSSA dumps name virtual variables by module-wide alias
/// class id, and a variable added to an earlier function renumbers them.
/// A cached `--dump-after hssa` compile must print the new numbering, as
/// an uncached one does, not replay the old dump.
#[test]
fn cached_hssa_dumps_follow_alias_class_renumbering() {
    let cache = TempDir::new("renumber");
    let dir = TempDir::new("renumber_io");
    let before = include_str!("smoke/renumber-classes.ir");
    let after = before.replace("  var v: i64", "  var w: i64\n  var v: i64");
    let cached = [
        "--dump-after",
        "hssa",
        "--cache-dir",
        cache.path().to_str().unwrap(),
    ];
    compile_once(&dir, "before", before, &cached);
    let replayed = compile_once(&dir, "after", &after, &cached);
    let uncached = compile_once(&dir, "uncached", &after, &["--dump-after", "hssa"]);
    assert_eq!(
        String::from_utf8(replayed).unwrap(),
        String::from_utf8(uncached).unwrap()
    );
}

fn walk_entries(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut v = Vec::new();
    for shard in std::fs::read_dir(dir).unwrap() {
        let shard = shard.unwrap().path();
        if !shard.is_dir() {
            continue;
        }
        for f in std::fs::read_dir(&shard).unwrap() {
            let p = f.unwrap().path();
            if p.extension().is_some_and(|e| e == "spcc") {
                v.push(p);
            }
        }
    }
    v.sort();
    v
}
