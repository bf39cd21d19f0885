//! `specc` — the specframe compiler driver.
//!
//! ```text
//! specc INPUT.ir [options]
//!
//!   --entry NAME          entry function (default: main)
//!   --args N,N,...        arguments for --run / --sim / profiling
//!   --train-args N,N,...  profiling-run arguments (default: --args)
//!   --spec MODE           data speculation: none|profile|heuristic|aggressive
//!                         (default: profile)
//!   --control MODE        control speculation: off|profile|static
//!                         (default: profile)
//!   --target NAME         execution target: epic (hardware ALAT, default)
//!                         | swr (software checks: compare-and-branch
//!                         recovery, no ALAT). Selects how checks are
//!                         lowered and the cost model the profitability
//!                         oracle weighs, so motion decisions may differ
//!                         per target on the same input
//!   --no-sr               disable strength reduction (and with it LFTR)
//!   --store-sinking       enable store promotion
//!   --explain-spec        print the per-site likeliness-oracle decision
//!                         table (source, evidence, flagged χ/μ counts)
//!   --alias-profile FILE  reuse a saved alias profile instead of a training
//!                         run; an unusable profile degrades the compile to
//!                         the heuristic rules with a warning
//!   --save-alias-profile FILE
//!                         serialize the alias profile this compile's data
//!                         speculation read (needs --spec profile)
//!   --emit WHAT           ir (optimized IR, default) | hssa (speculative
//!                         SSA dump of every function as SSAPRE reads it,
//!                         after refinement) | mach (rendered machine code
//!                         of the optimized module lowered for the active
//!                         --target)
//!   -o FILE               write the optimized IR to FILE (default: stdout)
//!   --run                 interpret the optimized program and print result
//!   --sim                 run it on the EPIC simulator and print counters
//!   --fault-policy SPEC   ALAT fault policy for --sim (repeatable):
//!                         default | geom:E:W | always-miss | forced-miss |
//!                         random:SEED[:DENOM] | flash-clear[:PERIOD] |
//!                         evict-at:N[:N...]
//!   --stats               print optimizer statistics
//!   --jobs N              worker threads for the per-function pipeline
//!                         (0 = auto: all cores)
//!   --time-passes         print per-pass wall times to stderr
//!   --dump-after PASSES   print the textual form of every function after
//!                         each named stage and exit (comma-separated from:
//!                         refine, hssa, ssapre, strength, lftr, storeprom,
//!                         lower);
//!                         byte-deterministic at any --jobs level
//!   --stop-after PASS     run the pipeline only through the named stage
//!   --verify-each         run the structural verifier (IR level after
//!                         refine/lower, the HSSA checker after every
//!                         HSSA-level stage) at every pass boundary;
//!                         failures are attributed `pass=<p> fn=<f> bb=<n>`
//!                         and feed the per-function degradation ladder
//!   --audit-spec          after lowering, prove every advanced load in the
//!                         machine code is validated by a matching check on
//!                         every path (the speculation-safety auditor)
//!   --audit-leaks         after lowering, reject any function in whose
//!                         machine code an advanced-load value can reach an
//!                         address computation or branch condition before
//!                         its check (the speculative-leak auditor); each
//!                         reported site is then witnessed — or refuted —
//!                         by a seeded forced-eviction simulator run whose
//!                         `evict-at:N` policy string is printed for replay
//!   --fence-leaks         like --audit-leaks, but repair instead of
//!                         reject: a speculation barrier is inserted before
//!                         each flagged sink so the re-audit comes back
//!                         clean (the emitted IR is unchanged; fences are a
//!                         machine-level transform applied at lowering)
//!   --taint-secret LOC[,LOC...]
//!                         with --sim: mark secret inputs (`@global` marks
//!                         every word of that global, a bare integer one
//!                         word address), track potentially-misspeculated
//!                         flow into addresses and branch conditions during
//!                         each speculation window, and print the
//!                         taint/leak counter rows after the counter block
//!   --reduce              on a compile or result-mismatch failure, shrink
//!                         the input to a minimal module that still fails
//!                         the same way, print it with a `; reduce:` stats
//!                         header, and exit 0
//!   --inject-spec-fail FUNC / --inject-fallback-fail FUNC
//!                         fault-injection hooks for testing the recovery
//!                         path: make FUNC's (fallback) compile panic
//!   --inject-corrupt FUNC:PASS
//!                         corrupt FUNC's HSSA right after PASS, exercising
//!                         --verify-each and the per-pass rollback rung
//!   --cache-dir DIR       persistent per-function compile cache (also via
//!                         SPECFRAME_CACHE_DIR; the flag wins). Hits replay
//!                         stored lowerings byte-identically; stale or
//!                         corrupt entries degrade to a fresh compile with
//!                         a warning
//!   --cache-fault-policy SPEC
//!                         wrap the cache's storage in a seeded,
//!                         deterministic fault injector (exercises the
//!                         retry/circuit-breaker path): enospc:N |
//!                         eio-read:SEED[:DENOM] | torn-write:N |
//!                         latency:MS. Transient errors are retried twice
//!                         per operation; exhaustion — or any permanent
//!                         error such as ENOSPC — trips a per-session
//!                         circuit breaker that degrades the rest of the
//!                         session to cache-off with a warning. Module
//!                         output bytes never change under any policy;
//!                         only the retry / io-error counters and cache
//!                         warnings move
//!   --deadline-ms N       cooperative compile deadline: a watchdog arms a
//!                         cancellation token checked at pass boundaries
//!                         and between functions; on expiry the compile
//!                         aborts with exit code 5 and writes no partial
//!                         cache entries
//!   --serve               compile service: read requests from stdin
//!                         (`compile PATH [-o OUT] [--deadline-ms N]`,
//!                         `mega SEED[:FUNCS] [-o OUT]`, `stats`, `quit`),
//!                         answer one status line per request on stdout; a
//!                         deadline expiry answers `err ... code=5
//!                         msg=deadline` and the service keeps serving
//!   --serve-queue DIR     drain every *.req file in DIR (sorted), writing
//!                         <stem>.resp beside each, then exit. The drain is
//!                         crash-safe and idempotent: requests that already
//!                         have a .resp are skipped, malformed or
//!                         unreadable requests are quarantined to
//!                         <stem>.err (the drain keeps going), and an
//!                         open-time fsck sweeps orphaned .resp.tmp files
//!                         and stale cache .tmp-* debris left by a crash
//!   --verbose             with --serve: per-function `fn NAME outcome`
//!                         lines before each `ok` response
//!
//! Cache maintenance subcommands (need a cache directory):
//!
//!   specc cache stats  --cache-dir DIR   entry count and total bytes
//!   specc cache clear  --cache-dir DIR   remove every entry
//!   specc cache verify --cache-dir DIR   decode every entry; exit 2 and
//!                                        list offenders if any fail; also
//!                                        reports .tmp-* debris and sweeps
//!                                        the stale ones
//! ```
//!
//! The compile and `--sim` flags go through
//! [`specframe::pipeline::parse_flags`], which golden-test RUN lines
//! (`; RUN: specc %s …`) share; there a valued flag may also be written
//! `--flag=value`. RUN lines accept every flag above except
//! `--explain-spec`, the alias-profile flags, `-o`, `--run`, `--stats`,
//! `--time-passes`, `--reduce`, the cache, deadline and serve flags and
//! `--emit hssa`, and they start from their own defaults: `--spec none
//! --control off --jobs 1`.
//!
//! Exit codes: 0 success, 1 usage/IO error, 2 input parse or verification
//! error, 3 compile/run failure, 4 speculative-compilation recovery
//! exhausted (even the non-speculative recompile failed), 5 deadline
//! exceeded (--deadline-ms expired before compilation finished).
//!
//! Example:
//!
//! ```text
//! specc kernel.ir --args 0,100 --spec profile --control static --sim \
//!       --fault-policy always-miss --fault-policy random:7
//! ```

use specframe::pipeline::{choose, reference_run_failed, witness_leaks_text};
use specframe::prelude::*;
use std::process::ExitCode;

/// What the one-shot compile writes (`--emit`).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Emit {
    /// The optimized IR.
    Ir,
    /// The speculative SSA form of every function that SSAPRE reads.
    Hssa,
    /// The optimized module's machine lowering for the active target.
    Mach,
}

struct Cli {
    input: String,
    /// `specc cache <action>` maintenance mode.
    cache_cmd: Option<String>,
    mega: Option<(u64, usize)>,
    /// The compile request and `--sim` options: what the one-shot compile
    /// runs, and the base of every request a service session serves.
    inv: Invocation,
    save_alias_profile: Option<String>,
    emit: Emit,
    out: Option<String>,
    run: bool,
    stats: bool,
    time_passes: bool,
    reduce: bool,
    serve: bool,
    serve_queue: Option<std::path::PathBuf>,
    verbose: bool,
}

const USAGE: &str = "usage: specc INPUT.ir [--entry NAME] [--args N,..] \
                     [--spec none|profile|heuristic|aggressive] \
                     [--control off|profile|static] [--target epic|swr] [--no-sr] \
                     [--store-sinking] [--explain-spec] [--alias-profile FILE] \
                     [--save-alias-profile FILE] [--emit ir|hssa|mach] [-o FILE] \
                     [--run] [--sim] [--fault-policy SPEC].. [--stats] \
                     [--jobs N] [--time-passes]\n\
                     [--dump-after refine|hssa|ssapre|strength|lftr|storeprom|lower[,..]]\n\
                     [--stop-after PASS] [--verify-each] [--audit-spec] \
                     [--audit-leaks] [--fence-leaks] \
                     [--taint-secret LOC,..] [--reduce] \
                     [--inject-spec-fail FUNC] [--inject-fallback-fail FUNC] \
                     [--inject-corrupt FUNC:PASS] [--cache-dir DIR] \
                     [--cache-fault-policy SPEC] [--deadline-ms N] \
                     [--serve] [--serve-queue DIR] [--verbose]\n\
                     cache maintenance: specc cache stats|clear|verify \
                     --cache-dir DIR\n\
                     --fault-policy: default | geom:E:W | always-miss | \
                     forced-miss | random:SEED[:DENOM] | flash-clear[:PERIOD] | \
                     evict-at:N[:N...]\n\
                     --cache-fault-policy: enospc:N | \
                     eio-read:SEED[:DENOM] | torn-write:N | latency:MS\n\
                     --audit-leaks rejects (and --fence-leaks repairs) \
                     machine code where a speculative load's value \
                     reaches an address or branch before its check; \
                     --taint-secret LOC[,LOC..] (with --sim) marks \
                     `@global` words or bare word addresses secret and \
                     tracks misspeculated flow to those sinks\n\
                     --jobs 0 (the default) uses all available cores";

fn parse_cli() -> Result<Cli, String> {
    // specc's defaults: profile-guided speculation, auto worker count
    let base = CompileRequest {
        spec: SpecKind::Profile,
        control: ControlKind::Profile,
        jobs: 0,
        ..Default::default()
    };
    let (inv, own) = parse_flags(base, std::env::args().skip(1))?;
    let mut cli = Cli {
        input: String::new(),
        cache_cmd: None,
        mega: None,
        inv,
        save_alias_profile: None,
        emit: Emit::Ir,
        out: None,
        run: false,
        stats: false,
        time_passes: false,
        reduce: false,
        serve: false,
        serve_queue: None,
        verbose: false,
    };
    let req = &mut cli.inv.req;
    let mut args = own.into_iter();
    while let Some(a) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{a} needs a value"));
        match a.as_str() {
            "--mega" => {
                let v = value()?;
                let (seed, funcs) = v.split_once(':').unwrap_or((v.as_str(), "1000"));
                cli.mega = Some((
                    seed.parse().map_err(|e| format!("bad --mega seed: {e}"))?,
                    funcs
                        .parse()
                        .map_err(|e| format!("bad --mega funcs: {e}"))?,
                ));
            }
            "--explain-spec" => req.explain_spec = true,
            "--alias-profile" => {
                let path = value()?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("cannot read {path}: {e}"))?;
                req.alias_profile = Some(text);
            }
            "--save-alias-profile" => cli.save_alias_profile = Some(value()?),
            "--emit" => {
                let vocabulary = [("ir", Emit::Ir), ("hssa", Emit::Hssa), ("mach", Emit::Mach)];
                cli.emit = choose("--emit", &value()?, &vocabulary)?;
            }
            "-o" => cli.out = Some(value()?),
            "--run" => cli.run = true,
            "--stats" => cli.stats = true,
            "--time-passes" => cli.time_passes = true,
            "--reduce" => cli.reduce = true,
            "--cache-dir" => req.cache_dir = Some(value()?.into()),
            "--cache-fault-policy" => {
                req.cache_fault_policy = Some(specframe::core::parse_store_fault_policy(&value()?)?)
            }
            "--deadline-ms" => {
                let ms = value()?.parse();
                req.deadline_ms = Some(ms.map_err(|e| format!("bad --deadline-ms: {e}"))?);
            }
            "--serve" => cli.serve = true,
            "--serve-queue" => cli.serve_queue = Some(value()?.into()),
            "--verbose" => cli.verbose = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other if !other.starts_with('-') && cli.input.is_empty() => {
                cli.input = other.to_string()
            }
            // `specc cache stats|clear|verify`: the action is the second
            // positional
            other if !other.starts_with('-') && cli.input == "cache" && cli.cache_cmd.is_none() => {
                cli.cache_cmd = Some(other.to_string())
            }
            other => return Err(format!("unknown option `{other}` (try --help)")),
        }
    }
    // the flag wins over the environment
    if req.cache_dir.is_none() {
        if let Ok(dir) = std::env::var("SPECFRAME_CACHE_DIR") {
            if !dir.is_empty() {
                req.cache_dir = Some(dir.into());
            }
        }
    }
    let executes = cli.run || cli.inv.sim.is_some() || cli.reduce;
    if cli.input == "cache" {
        match cli.cache_cmd.as_deref() {
            Some("stats" | "clear" | "verify") => {}
            Some(other) => {
                return Err(format!(
                    "unknown cache action `{other}` (stats, clear or verify)"
                ))
            }
            None => return Err("`specc cache` needs an action: stats, clear or verify".into()),
        }
        if req.cache_dir.is_none() {
            return Err("`specc cache` needs --cache-dir DIR (or SPECFRAME_CACHE_DIR)".into());
        }
        return Ok(cli);
    }
    if cli.serve && cli.serve_queue.is_some() {
        return Err("--serve and --serve-queue are mutually exclusive".into());
    }
    if cli.serve || cli.serve_queue.is_some() {
        if !cli.input.is_empty() || cli.mega.is_some() {
            return Err("serve mode reads requests; drop the input file / --mega".into());
        }
        if executes {
            return Err("serve mode is compile-only (no --run/--sim/--reduce)".into());
        }
        // the service never prints the decision table
        req.explain_spec = false;
        // the profile-guided defaults need a training run, which needs entry
        // arguments; a service session started without --args/--train-args
        // cannot provide them per request, so degrade to the self-contained
        // modes (exactly like `--mega` does) instead of failing every compile
        if req.args.is_empty() && req.train_args.as_ref().is_none_or(Vec::is_empty) {
            req.degrade_without_training();
        }
        return Ok(cli);
    }
    if cli.mega.is_some() {
        if !cli.input.is_empty() {
            return Err("--mega generates the input; drop the input file".into());
        }
        if executes {
            return Err("--mega is compile-only (no --run/--sim/--reduce)".into());
        }
        // The synthetic module has no entry to train on; profile-guided
        // speculation needs a real program.
        req.degrade_without_training();
    } else if cli.input.is_empty() {
        return Err("no input file (try --help)".into());
    }
    Ok(cli)
}

fn usage(msg: String) -> CompileFailure {
    CompileFailure::Usage(msg)
}

fn real_main() -> Result<(), CompileFailure> {
    let cli = parse_cli().map_err(usage)?;
    if cli.cache_cmd.is_some() {
        return run_cache_cmd(&cli);
    }
    if cli.serve || cli.serve_queue.is_some() {
        return run_serve(&cli);
    }
    let req = &cli.inv.req;
    let mut m = match cli.mega {
        Some((seed, funcs)) => specframe::workloads::mega_module(seed, funcs),
        None => {
            let src = std::fs::read_to_string(&cli.input)
                .map_err(|e| usage(format!("cannot read {}: {e}", cli.input)))?;
            let m = parse_module(&src)
                .map_err(|e| CompileFailure::Parse(format!("{}: {e}", cli.input)))?;
            verify_module(&m).map_err(|e| CompileFailure::Parse(format!("{}: {e}", cli.input)))?;
            m
        }
    };
    prepare_module(&mut m);
    // Input-side shape for the --time-passes throughput line (the
    // optimized module's instruction count would move with the optimizer).
    let input_shape = (m.funcs.len(), specframe::workloads::inst_count(&m));

    // The reference run on --args, which only `--run` and `--sim` compare
    // against (the mega-module, which has no entry point to interpret,
    // rejects both at parse time), is the one run that needs the entry
    // here; a training run reports a missing entry itself.
    let compares = cli.run || cli.inv.sim.is_some();
    if compares && m.func_by_name(&req.entry).is_none() {
        return Err(usage(format!(
            "no function `{}` in {}",
            req.entry, cli.input
        )));
    }
    // the dump is the form the optimizer reads, from a compile that stops
    // once it is built; it reads no run's result
    if cli.emit == Emit::Hssa {
        let mut req = req.clone();
        req.hooks.dump_after = PassSet::from_iter([Pass::Hssa]);
        req.hooks.stop_after = Some(Pass::Hssa);
        req.explain_spec = false;
        let out = compile_module(m, &req)?;
        for w in &out.report.warnings {
            eprintln!("specc: warning: {w}");
        }
        let dump: String = out.dumps.iter().map(|d| d.text.clone() + "\n").collect();
        return emit(&cli, &dump).map_err(usage);
    }
    // A compile that trains on --args runs the reference run itself
    // (`CompileOutput::reference`).
    let reference = if !compares || req.trains_on_own_args() {
        None
    } else {
        Some(run(&m, &req.entry, &req.args, req.fuel).map_err(|e| reference_run_failed(&e))?)
    };

    // keep the input around so a failure can be shrunk to a minimal repro
    // (and so an --audit-leaks rejection can be adversarially witnessed)
    let input_for_reduce = cli.reduce.then(|| m.clone());
    let input_for_witness =
        ((req.hooks.audit_leaks || req.hooks.fence_leaks) && cli.mega.is_none()).then(|| m.clone());
    let out = match compile_module(m, req) {
        Ok(out) => out,
        // an input whose reference run fails has no failing compile to shrink
        Err(e @ CompileFailure::Compile(_)) if cli.reduce && !e.is_reference_run() => {
            let input = input_for_reduce.as_ref().expect("--reduce keeps the input");
            return reduce_and_report(&cli, input, &e, false);
        }
        Err(e) => {
            // close the loop adversarially: re-derive the input lowering's
            // leak sites and drive each into actual misspeculation with a
            // seeded eviction schedule, so the static report is backed by
            // (or refuted against) a concrete simulator run — the printed
            // policy string replays with `--sim --fault-policy`
            if let (CompileFailure::Compile(ce), Some(orig)) = (&e, &input_for_witness) {
                if ce.pass == "audit-leaks" {
                    for line in witness_leaks_text(orig, req).lines() {
                        eprintln!("specc: {line}");
                    }
                }
            }
            return Err(e);
        }
    };
    for w in &out.report.warnings {
        eprintln!("specc: warning: {w}");
    }
    if let Some(table) = &out.explain {
        print!("{table}");
    }
    let expect = reference.or(out.reference).and_then(|(v, _)| v);
    let m = out.module;
    let report = &out.report;
    // every fenced site is also witnessed against the *unfenced* lowering
    // of the optimized module (the emitted IR carries no fences — they are
    // re-applied at machine level), proving each repaired leak was real
    if req.hooks.fence_leaks && report.stats.leak_sites_flagged > 0 && cli.mega.is_none() {
        for line in witness_leaks_text(&m, req).lines() {
            eprintln!("specc: {line}");
        }
    }
    if cli.stats {
        eprintln!("optimizer: {:?}", report.stats);
    }
    if req.cache_dir.is_some() && (cli.stats || cli.time_passes) {
        let c = report.cache;
        eprintln!(
            "cache: {} hits, {} misses, {} stale, {} retries, {} io errors, {} breaker trips",
            c.hits, c.misses, c.stale, c.retries, c.io_errors, c.breaker_trips
        );
    }
    if cli.time_passes {
        eprint!("{}", report.timings.report());
        let secs = report.timings.total.as_secs_f64();
        if secs > 0.0 {
            let (funcs, insts) = input_shape;
            eprintln!(
                "  throughput     {:.0} funcs/sec, {:.0} insts/sec ({funcs} funcs, {insts} insts)",
                funcs as f64 / secs,
                insts as f64 / secs
            );
        }
    }
    if let Some(path) = &cli.save_alias_profile {
        let prof = out.alias_profile.as_ref().ok_or_else(|| {
            usage("--save-alias-profile needs --spec profile (no profile was collected)".into())
        })?;
        let text = specframe::profile::write_alias_profile(prof);
        std::fs::write(path, text).map_err(|e| usage(format!("cannot write {path}: {e}")))?;
    }
    if !req.hooks.dump_after.is_empty() {
        // dump mode: the per-pass snapshots are the product
        emit(&cli, &specframe::core::render_dumps(&out.dumps)).map_err(usage)?;
        return Ok(());
    }
    if cli.emit == Emit::Mach {
        // machine-code mode: the rendered lowering for the active target
        // is the product (the same lowering --sim executes)
        let prog = specframe::codegen::lower_module_for(&m, req.target.spec());
        emit(&cli, &specframe::machine::render_mprogram(&prog)).map_err(usage)?;
        return Ok(());
    }

    let mismatch = |what: &str, got: Option<Value>| {
        let fail = CompileFailure::internal(
            what,
            format!("MISCOMPILE: {what} result {got:?} != reference {expect:?}"),
        );
        match &input_for_reduce {
            Some(input) => reduce_and_report(&cli, input, &fail, true),
            None => Err(fail),
        }
    };
    if cli.run {
        let (got, rs) = run(&m, &req.entry, &req.args, req.fuel)
            .map_err(|e| CompileFailure::internal("run", format!("optimized run failed: {e}")))?;
        if got != expect {
            return mismatch("run", got);
        }
        eprintln!(
            "result = {:?}  (loads {} checks {} stores {})",
            got, rs.loads, rs.check_loads, rs.stores
        );
    }
    if let Some(sim) = &cli.inv.sim {
        for policy in &sim.fault_policies {
            let (got, text) = simulate_text(&m, req, sim, policy)?;
            if got != expect {
                return mismatch("sim", got);
            }
            eprint!("{text}");
        }
    }

    if cli.reduce {
        eprintln!("specc: --reduce: nothing to reduce (no failure reproduced)");
    }
    if !cli.run && cli.inv.sim.is_none() || cli.out.is_some() {
        emit(&cli, &specframe::ir::display::print_module(&m)).map_err(usage)?;
    }
    Ok(())
}

/// `specc cache stats|clear|verify`: cache maintenance over the directory
/// named by `--cache-dir` / `SPECFRAME_CACHE_DIR`. `verify` exits 2 when
/// any entry fails to decode — same family as input verification errors.
fn run_cache_cmd(cli: &Cli) -> Result<(), CompileFailure> {
    let dir = cli
        .inv
        .req
        .cache_dir
        .as_ref()
        .expect("checked by parse_cli");
    let cache = specframe::core::FuncCache::open(dir);
    let io_err = |e: std::io::Error| usage(format!("cache dir {}: {e}", dir.display()));
    match cli.cache_cmd.as_deref().unwrap() {
        "stats" => {
            let (entries, bytes) = cache.entry_stats().map_err(io_err)?;
            println!("cache {}: {entries} entries, {bytes} bytes", dir.display());
        }
        "clear" => {
            let removed = cache.clear().map_err(io_err)?;
            println!("cache {}: removed {removed} entries", dir.display());
        }
        _ => {
            let report = cache.verify().map_err(io_err)?;
            for (key, why) in &report.bad {
                println!("bad  {} {why}", key.hex());
            }
            for tmp in &report.tmps {
                println!("tmp  {}", tmp.display());
            }
            println!(
                "cache {}: {} ok, {} bad, {} bytes",
                dir.display(),
                report.ok,
                report.bad.len(),
                report.bytes
            );
            if !report.tmps.is_empty() {
                let swept = cache.sweep_stale_tmps().map_err(io_err)?;
                println!(
                    "cache {}: {} tmp files, {swept} stale swept",
                    dir.display(),
                    report.tmps.len()
                );
            }
            if !report.bad.is_empty() {
                return Err(CompileFailure::Parse(format!(
                    "cache verify: {} undecodable entries",
                    report.bad.len()
                )));
            }
        }
    }
    Ok(())
}

/// `--serve` / `--serve-queue`: run the compile service with this
/// invocation's request as the base of every served compile.
fn run_serve(cli: &Cli) -> Result<(), CompileFailure> {
    let cfg = ServeConfig {
        // every served request clones the base, sharing its cache-health
        // cell: one circuit breaker for the whole session
        base: cli.inv.req.clone(),
        verbose: cli.verbose,
    };
    match &cli.serve_queue {
        Some(dir) => {
            let rep = serve_queue(&cfg, dir)
                .map_err(|e| usage(format!("serve queue {}: {e}", dir.display())))?;
            eprintln!(
                "specc: served {} requests ({} skipped, {} quarantined, {} tmp swept)",
                rep.handled, rep.skipped, rep.quarantined, rep.swept
            );
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            let served = serve_stdin(&cfg, &mut stdin.lock(), &mut stdout.lock())
                .map_err(|e| usage(format!("serve: {e}")))?;
            eprintln!("specc: served {served} requests");
        }
    }
    Ok(())
}

/// The `--reduce` tail: shrink the failing input to a minimal module that
/// fails the same way, and emit it (stdout or `-o`) under a `; reduce:`
/// stats header. The repro is the product, so the process exits 0.
fn reduce_and_report(
    cli: &Cli,
    input: &specframe::ir::Module,
    failure: &CompileFailure,
    run_check: bool,
) -> Result<(), CompileFailure> {
    eprintln!("specc: {failure}");
    eprintln!("specc: --reduce: shrinking the failing input...");
    let (red, stats) = reduce_failure(input, &cli.inv.req, failure, run_check);
    let mut text = format!(
        "; reduce: {} probes, {} -> {} instructions\n",
        stats.probes, stats.initial_insts, stats.final_insts
    );
    text.push_str(&specframe::ir::display::print_module(&red));
    emit(cli, &text).map_err(usage)
}

fn emit(cli: &Cli, text: &str) -> Result<(), String> {
    match &cli.out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("specc: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}
