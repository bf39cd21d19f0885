//! The `specc --serve` compile service.
//!
//! A long-lived `specc` that accepts a stream of module compile requests
//! and answers with per-function status, backed by the persistent
//! per-function cache — so a fleet recompiling mostly-unchanged modules
//! pays only for the diff. Two transports share one request grammar:
//!
//! * **stdin** (`--serve`): one request per line on stdin, one response
//!   block per request on stdout, until `quit`/EOF;
//! * **queue directory** (`--serve-queue DIR`): every `*.req` file in
//!   `DIR` (sorted by name) is drained — the first non-empty line is the
//!   request, the response block is written to `<stem>.resp` via temp
//!   file + rename, and the `.req` is removed. One drain pass, then exit:
//!   deterministic for scripting; a fleet loops it.
//!
//! The queue protocol is crash-safe and idempotent (see DESIGN.md
//! "Failure domains & crash-recovery contract"):
//!
//! * a `.req` whose `.resp` already exists was fully served by a drain
//!   that crashed inside the write-resp/remove-req window — it is
//!   *skipped* (the stale `.req` is removed), so re-draining after a
//!   crash double-serves into a byte-identical no-op;
//! * an unreadable or malformed `.req` is *quarantined* to `<stem>.err`
//!   (with the reason inside) and the drain continues — one poisoned
//!   request can no longer abort the whole queue;
//! * an open-time fsck removes orphaned `.resp.tmp` files and sweeps
//!   stale cache `.tmp-*` debris left by a crashed writer.
//!
//! Request grammar (tokens are whitespace-separated; blank lines and
//! `#` comments are skipped):
//!
//! ```text
//! compile PATH [-o OUT] [--deadline-ms N]  # compile the module file at PATH
//! mega SEED[:FUNCS] [-o OUT] [--deadline-ms N] # compile the synthetic mega-module
//! stats                     # report cache entry count and bytes
//! quit                      # stop serving (stdin transport)
//! ```
//!
//! Responses are single-line, machine-parseable:
//!
//! ```text
//! ok in=<request> funcs=N hits=H misses=M stale=S retries=R ioerr=I fallbacks=F wall_ms=T
//! err in=<request> code=C msg=<message, newlines folded>
//! ```
//!
//! `code=5 msg=deadline` marks a request that exceeded its deadline: the
//! compile was cancelled cooperatively at a pass boundary, no cache
//! entries were written, and the service keeps serving. With `--verbose`,
//! `fn <name> <hit|miss|stale|compiled>` lines precede the `ok` line (one
//! per function, module order). The optimized module text is written to
//! OUT when `-o` is given and is never printed to the response stream —
//! the protocol stays line-oriented.

use crate::pipeline::{compile_module, CompileFailure, CompileOutput, CompileRequest};
use specframe_core::{crashpoint, FuncCache};
use specframe_ir::display::print_module;
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::time::Instant;

/// Service configuration: the base compile request every module request
/// starts from (carrying `--spec`, `--jobs`, `--cache-dir`, …) plus the
/// transport options.
pub struct ServeConfig {
    /// Template request; per-request handling clones and adapts it.
    pub base: CompileRequest,
    /// Emit per-function `fn <name> <outcome>` status lines.
    pub verbose: bool,
}

/// What the caller should do after one request.
#[derive(Debug, PartialEq, Eq)]
pub enum ServeAction {
    /// Keep reading requests.
    Continue,
    /// Stop serving (`quit`).
    Quit,
}

/// Serves requests from `input` until `quit` or EOF. Returns how many
/// compile requests were handled.
pub fn serve_stdin(
    cfg: &ServeConfig,
    input: &mut dyn BufRead,
    out: &mut dyn Write,
) -> io::Result<usize> {
    let mut handled = 0;
    for line in input.lines() {
        let line = line?;
        let mut response = String::new();
        let action = handle_request(cfg, &line, &mut response);
        out.write_all(response.as_bytes())?;
        out.flush()?;
        if !response.is_empty() {
            handled += 1;
        }
        if action == ServeAction::Quit {
            break;
        }
    }
    Ok(handled)
}

/// What one queue drain did — the convergence numbers the chaos harness
/// and `specc --serve-queue`'s summary line report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Requests served to a fresh `.resp` this pass.
    pub handled: usize,
    /// Requests skipped because their `.resp` already existed (a prior
    /// drain crashed between writing the response and removing the
    /// request); the stale `.req` is removed, completing the transaction.
    pub skipped: usize,
    /// Unreadable requests quarantined to `<stem>.err`.
    pub quarantined: usize,
    /// Crash debris removed by the open-time fsck: orphaned `.resp.tmp`
    /// files in the queue plus stale `.tmp-*` files in the cache.
    pub swept: usize,
}

/// Drains every `*.req` file in `dir` (sorted by file name), writing
/// `<stem>.resp` next to each and removing the request file. Crash-safe
/// and idempotent per the module contract; one bad request quarantines
/// instead of aborting the drain.
pub fn serve_queue(cfg: &ServeConfig, dir: &Path) -> io::Result<DrainReport> {
    let mut rep = DrainReport::default();

    // open-time fsck: a crash between writing `.resp.tmp` and renaming it
    // leaves an orphan; its `.req` survived, so the retry below rewrites
    // the response from scratch — the orphan is pure debris
    let mut reqs: Vec<std::path::PathBuf> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let p = entry?.path();
        let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".resp.tmp") {
            if std::fs::remove_file(&p).is_ok() {
                rep.swept += 1;
            }
        } else if p.extension().and_then(|e| e.to_str()) == Some("req") {
            reqs.push(p);
        }
    }
    // cache-side fsck: debris from a writer killed inside its store()
    if let Some(cache_dir) = &cfg.base.cache_dir {
        rep.swept += FuncCache::open(cache_dir).sweep_stale_tmps().unwrap_or(0);
    }

    reqs.sort();
    for req_path in reqs {
        let resp_path = req_path.with_extension("resp");
        if resp_path.exists() {
            // already served by a drain that crashed pre-remove: finish
            // the transaction (remove the `.req`), don't recompute — the
            // committed `.resp` is the authoritative answer
            let _ = std::fs::remove_file(&req_path);
            rep.skipped += 1;
            continue;
        }
        let line = match std::fs::read_to_string(&req_path) {
            Ok(text) => match text
                .lines()
                .find(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
            {
                Some(l) => l.to_string(),
                None => String::new(),
            },
            Err(e) => {
                quarantine(&req_path, &format!("unreadable request: {e}\n"));
                rep.quarantined += 1;
                continue;
            }
        };
        let mut response = String::new();
        // `quit` has no meaning for a one-pass drain; treat it as a no-op
        let _ = handle_request(cfg, &line, &mut response);
        let tmp = req_path.with_extension("resp.tmp");
        std::fs::write(&tmp, response)?;
        crashpoint::hit("queue-pre-resp-rename");
        std::fs::rename(&tmp, &resp_path)?;
        crashpoint::hit("queue-pre-remove-req");
        std::fs::remove_file(&req_path)?;
        rep.handled += 1;
    }
    Ok(rep)
}

/// Moves a poisoned request aside as `<stem>.err` (reason inside, written
/// via temp + rename like every other queue artifact) so the drain can
/// continue past it. Best-effort: quarantine failing must not take the
/// drain down with it.
fn quarantine(req_path: &Path, reason: &str) {
    let err_path = req_path.with_extension("err");
    let tmp = req_path.with_extension("err.tmp");
    if std::fs::write(&tmp, reason).is_ok() && std::fs::rename(&tmp, &err_path).is_ok() {
        let _ = std::fs::remove_file(req_path);
    }
}

/// Handles one request line, appending the response block (possibly
/// empty, for blanks/comments) to `response`.
pub fn handle_request(cfg: &ServeConfig, line: &str, response: &mut String) -> ServeAction {
    let tokens: Vec<&str> = line.split_whitespace().collect();
    let Some(&cmd) = tokens.first() else {
        return ServeAction::Continue;
    };
    if cmd.starts_with('#') {
        return ServeAction::Continue;
    }
    match cmd {
        "quit" => ServeAction::Quit,
        "stats" => {
            match &cfg.base.cache_dir {
                None => response.push_str("ok in=stats cache=disabled\n"),
                Some(dir) => match FuncCache::open(dir).entry_stats() {
                    Ok((n, bytes)) => {
                        response.push_str(&format!("ok in=stats entries={n} bytes={bytes}\n"))
                    }
                    Err(e) => respond_err(response, "stats", 3, &e.to_string()),
                },
            }
            ServeAction::Continue
        }
        "compile" | "mega" => {
            handle_compile(cfg, cmd, &tokens, response);
            ServeAction::Continue
        }
        other => {
            respond_err(response, other, 1, &format!("unknown request `{other}`"));
            ServeAction::Continue
        }
    }
}

fn respond_err(response: &mut String, input: &str, code: u8, msg: &str) {
    let msg = msg.replace('\n', "; ");
    response.push_str(&format!("err in={input} code={code} msg={msg}\n"));
}

fn handle_compile(cfg: &ServeConfig, cmd: &str, tokens: &[&str], response: &mut String) {
    let Some(arg) = tokens.get(1) else {
        respond_err(response, cmd, 1, &format!("`{cmd}` needs an argument"));
        return;
    };
    let input_label = format!("{cmd}:{arg}");
    let mut out_path: Option<&str> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut rest = tokens[2..].iter();
    while let Some(&t) = rest.next() {
        match t {
            "-o" => match rest.next() {
                Some(&p) => out_path = Some(p),
                None => {
                    respond_err(response, &input_label, 1, "-o needs a path");
                    return;
                }
            },
            "--deadline-ms" => match rest.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) => deadline_ms = Some(n),
                None => {
                    respond_err(response, &input_label, 1, "--deadline-ms needs a number");
                    return;
                }
            },
            other => {
                respond_err(
                    response,
                    &input_label,
                    1,
                    &format!("unknown token `{other}`"),
                );
                return;
            }
        }
    }

    let t0 = Instant::now();
    let result = match cmd {
        "compile" => compile_file(cfg, arg, deadline_ms),
        _ => compile_mega(cfg, arg, deadline_ms),
    };
    match result {
        // the deadline response is a fixed shape: the service stays up,
        // nothing was cached, and clients key off `code=5 msg=deadline`
        Err(e) if e.exit_code() == 5 => respond_err(response, &input_label, 5, "deadline"),
        Err(e) => respond_err(response, &input_label, e.exit_code(), &e.to_string()),
        Ok(out) => {
            let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
            if let Some(p) = out_path {
                if let Err(e) = std::fs::write(p, print_module(&out.module)) {
                    respond_err(response, &input_label, 3, &format!("writing {p}: {e}"));
                    return;
                }
            }
            if cfg.verbose {
                for (fi, f) in out.module.funcs.iter().enumerate() {
                    let outcome = out
                        .report
                        .cache_outcomes
                        .get(fi)
                        .map_or("compiled", |o| o.name());
                    response.push_str(&format!("fn {} {outcome}\n", f.name));
                }
            }
            let c = out.report.cache;
            response.push_str(&format!(
                "ok in={input_label} funcs={} hits={} misses={} stale={} \
                 retries={} ioerr={} fallbacks={} wall_ms={wall_ms:.1}\n",
                out.module.funcs.len(),
                c.hits,
                c.misses,
                c.stale,
                c.retries,
                c.io_errors,
                out.report.stats.spec_fallbacks,
            ));
        }
    }
}

/// The base request adapted with one request's `--deadline-ms` token.
fn with_deadline(cfg: &ServeConfig, deadline_ms: Option<u64>) -> CompileRequest {
    let mut req = cfg.base.clone();
    if deadline_ms.is_some() {
        req.deadline_ms = deadline_ms;
    }
    req
}

fn compile_file(
    cfg: &ServeConfig,
    path: &str,
    deadline_ms: Option<u64>,
) -> Result<CompileOutput, CompileFailure> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| CompileFailure::Usage(format!("reading {path}: {e}")))?;
    crate::pipeline::compile(&src, &with_deadline(cfg, deadline_ms))
}

fn compile_mega(
    cfg: &ServeConfig,
    arg: &str,
    deadline_ms: Option<u64>,
) -> Result<CompileOutput, CompileFailure> {
    let (seed, funcs) = match arg.split_once(':') {
        Some((s, n)) => (s, Some(n)),
        None => (arg, None),
    };
    let seed: u64 = seed
        .parse()
        .map_err(|_| CompileFailure::Usage(format!("bad mega seed `{seed}`")))?;
    let funcs: usize = match funcs {
        None => 1000,
        Some(n) => n
            .parse()
            .map_err(|_| CompileFailure::Usage(format!("bad mega function count `{n}`")))?,
    };
    let m = specframe_workloads::mega_module(seed, funcs);
    let mut req = with_deadline(cfg, deadline_ms);
    // the synthetic module has no profiling entry point
    req.degrade_without_training();
    compile_module(m, &req)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ControlKind, SpecKind};
    use specframe_core::parse_store_fault_policy;

    fn cfg_with_cache(dir: Option<std::path::PathBuf>) -> ServeConfig {
        ServeConfig {
            base: CompileRequest {
                spec: SpecKind::Heuristic,
                control: ControlKind::Static,
                cache_dir: dir,
                ..Default::default()
            },
            verbose: true,
        }
    }

    #[test]
    fn blank_and_comment_lines_produce_no_response() {
        let cfg = cfg_with_cache(None);
        let mut r = String::new();
        assert_eq!(handle_request(&cfg, "", &mut r), ServeAction::Continue);
        assert_eq!(
            handle_request(&cfg, "  # hi", &mut r),
            ServeAction::Continue
        );
        assert_eq!(r, "");
    }

    #[test]
    fn quit_stops_and_unknown_is_usage_error() {
        let cfg = cfg_with_cache(None);
        let mut r = String::new();
        assert_eq!(handle_request(&cfg, "quit", &mut r), ServeAction::Quit);
        assert_eq!(
            handle_request(&cfg, "bogus x", &mut r),
            ServeAction::Continue
        );
        assert!(r.contains("err in=bogus code=1"), "{r}");
    }

    #[test]
    fn stats_without_cache_reports_disabled() {
        let cfg = cfg_with_cache(None);
        let mut r = String::new();
        handle_request(&cfg, "stats", &mut r);
        assert_eq!(r, "ok in=stats cache=disabled\n");
    }

    #[test]
    fn mega_request_compiles_and_reports_counts() {
        let dir = std::env::temp_dir().join(format!("specframe-serve-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = cfg_with_cache(Some(dir.clone()));
        let mut cold = String::new();
        handle_request(&cfg, "mega 7:20", &mut cold);
        assert!(
            cold.contains("ok in=mega:7:20 funcs=20 hits=0 misses=20"),
            "{cold}"
        );
        assert!(cold.contains("fn f0 miss\n"), "{cold}");
        let mut warm = String::new();
        handle_request(&cfg, "mega 7:20", &mut warm);
        assert!(warm.contains("funcs=20 hits=20 misses=0"), "{warm}");
        assert!(warm.contains("fn f0 hit\n"), "{warm}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deadline_zero_returns_code_5_and_the_service_keeps_serving() {
        let dir = std::env::temp_dir().join(format!(
            "specframe-serve-deadline-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = cfg_with_cache(Some(dir.clone()));
        let mut r = String::new();
        handle_request(&cfg, "mega 3:6 --deadline-ms 0", &mut r);
        assert!(r.contains("err in=mega:3:6 code=5 msg=deadline"), "{r}");
        // no partial (or complete) cache entries from the cancelled request
        assert_eq!(FuncCache::open(&dir).entry_stats().unwrap().0, 0);
        // the session is unharmed: the same request without a deadline works
        let mut ok = String::new();
        handle_request(&cfg, "mega 3:6", &mut ok);
        assert!(ok.contains("ok in=mega:3:6 funcs=6"), "{ok}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_fault_policy_moves_counters_but_not_output() {
        let base = std::env::temp_dir().join(format!(
            "specframe-serve-faults-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let clean = cfg_with_cache(None);
        let reference = compile_mega(&clean, "5:8", None).unwrap();
        let want = print_module(&reference.module);
        for policy in ["enospc:2", "eio-read:7:2", "torn-write:2"] {
            let mut cfg = cfg_with_cache(Some(base.join(policy.replace(':', "_"))));
            cfg.base.cache_fault_policy = Some(parse_store_fault_policy(policy).unwrap());
            for round in 0..2 {
                let out = compile_mega(&cfg, "5:8", None)
                    .unwrap_or_else(|e| panic!("{policy} round {round}: {e}"));
                assert_eq!(
                    print_module(&out.module),
                    want,
                    "{policy} round {round}: output changed under faults"
                );
                let c = out.report.cache;
                assert_eq!(c.probes(), 8, "{policy} round {round}");
                assert!(c.retries <= c.io_errors, "{policy}: {c:?}");
            }
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn queue_drain_quarantines_skips_and_sweeps() {
        let dir =
            std::env::temp_dir().join(format!("specframe-serve-queue-fsck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // a crash inside the write-resp/remove-req window left both files
        std::fs::write(dir.join("10-a.req"), "stats\n").unwrap();
        std::fs::write(dir.join("10-a.resp"), "precommitted\n").unwrap();
        // an unreadable request (invalid UTF-8)
        std::fs::write(dir.join("20-b.req"), [0xff, 0xfe, 0x00]).unwrap();
        // an orphaned response temp from a crash pre-rename
        std::fs::write(dir.join("30-c.resp.tmp"), "half a response").unwrap();
        // a healthy request
        std::fs::write(dir.join("40-d.req"), "stats\n").unwrap();

        let cfg = cfg_with_cache(None);
        let rep = serve_queue(&cfg, &dir).unwrap();
        assert_eq!(
            rep,
            DrainReport {
                handled: 1,
                skipped: 1,
                quarantined: 1,
                swept: 1
            }
        );
        // the skipped transaction completed: .req gone, .resp untouched
        assert!(!dir.join("10-a.req").exists());
        assert_eq!(
            std::fs::read_to_string(dir.join("10-a.resp")).unwrap(),
            "precommitted\n"
        );
        // the poisoned request is quarantined with its reason
        assert!(!dir.join("20-b.req").exists());
        let err = std::fs::read_to_string(dir.join("20-b.err")).unwrap();
        assert!(err.contains("unreadable request"), "{err}");
        // the orphan is swept, the healthy request served
        assert!(!dir.join("30-c.resp.tmp").exists());
        assert!(std::fs::read_to_string(dir.join("40-d.resp"))
            .unwrap()
            .contains("ok in=stats"));
        // idempotent: a second drain finds nothing to do and changes nothing
        assert_eq!(serve_queue(&cfg, &dir).unwrap(), DrainReport::default());
        assert_eq!(
            std::fs::read_to_string(dir.join("10-a.resp")).unwrap(),
            "precommitted\n"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
