//! Quick compile-time smoke bench for CI.
//!
//! Measures the mean wall-clock cost of the full speculative pipeline
//! (heuristic data speculation + static control speculation + strength
//! reduction) per test-scale workload and writes `BENCH_ci.json` in the
//! current directory. This is a trend indicator, not a benchmark — the
//! real measurement is `specbench` (`bash specbench/run.sh`), which times
//! `specc` end to end and per layer against the bounds in `BENCHMARK.json`.
//!
//! It also runs a deterministic smoke of the ddmin module reducer (a
//! known-failing program must shrink by at least 80% while preserving
//! the failure) and records the probe/shrink numbers in the JSON, so a
//! reducer regression shows up in the CI artifact.

use specframe_core::{
    optimize, optimize_with, peak_rss_kb, prepare_module, reduce_module, try_optimize_cached,
    ControlSpec, FuncCache, OptOptions, PipelineConfig, PipelineHooks, ReduceStats, SpecSource,
};
use specframe_ir::display::print_module;
use specframe_ir::{parse_module, verify_module};
use specframe_workloads::{all_workloads, inst_count, mega_module, mega_source, Scale};
use std::fmt::Write as _;
use std::time::Instant;

const ITERS: u32 = 3;

/// Whole-module throughput numbers from one mega-module compile.
struct MegaRow {
    funcs: usize,
    insts: usize,
    funcs_per_sec: f64,
    insts_per_sec: f64,
    peak_rss_kb: u64,
    /// The text layer: parsing and verifying the input, printing the output.
    parse_ms: f64,
    verify_ms: f64,
    print_ms: f64,
}

/// The fastest of three runs of `f`, in milliseconds, and its result.
fn best_of_3<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        out = Some(f());
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
    }
    (out.expect("three runs"), best)
}

/// Compiles the reduced-size synthetic mega-module (1k functions — the CI
/// time budget; `--mega` scales to 10k for local measurements), records
/// whole-module throughput, the text layer's times and peak RSS, and
/// asserts byte-identical output across `jobs` 1/2/4 — the parallel
/// driver's safety invariant, checked here on a workload none of the
/// golden files cover. The optimized module must also survive print →
/// parse → verify → print byte for byte: it carries the `load.s` and
/// `chks.*` forms control speculation adds, at a scale the round-trip
/// property test does not reach.
fn mega_smoke() -> MegaRow {
    const SEED: u64 = 42;
    const FUNCS: usize = 1000;
    let opts = OptOptions {
        data: SpecSource::Heuristic,
        control: ControlSpec::Static,
        strength_reduction: true,
        lftr: true,
        store_sinking: true,
        target: Default::default(),
    };
    let src = mega_source(SEED, FUNCS);
    let (mut base, parse_ms) = best_of_3(|| parse_module(&src).expect("mega source parses"));
    let (_, verify_ms) = best_of_3(|| verify_module(&base).expect("mega module verifies"));
    prepare_module(&mut base);
    let insts = inst_count(&base);

    let t0 = Instant::now();
    let mut m1 = base.clone();
    optimize_with(&mut m1, &opts, &PipelineConfig { jobs: 1 });
    let secs = t0.elapsed().as_secs_f64();

    let (text1, print_ms) = best_of_3(|| print_module(&m1));
    let reparsed = parse_module(&text1).expect("optimized mega module re-parses");
    verify_module(&reparsed).expect("re-parsed optimized mega module verifies");
    assert_eq!(
        print_module(&reparsed),
        text1,
        "optimized mega module does not print back to the same bytes"
    );
    for jobs in [2, 4] {
        let mut mj = base.clone();
        optimize_with(&mut mj, &opts, &PipelineConfig { jobs });
        assert_eq!(
            print_module(&mj),
            text1,
            "mega-module output differs between jobs=1 and jobs={jobs}"
        );
    }

    let row = MegaRow {
        funcs: FUNCS,
        insts,
        funcs_per_sec: FUNCS as f64 / secs,
        insts_per_sec: insts as f64 / secs,
        peak_rss_kb: peak_rss_kb().unwrap_or(0),
        parse_ms,
        verify_ms,
        print_ms,
    };
    println!(
        "mega-module: {} funcs / {} insts in {:.3} s ({:.0} funcs/sec, {:.0} insts/sec, \
         peak rss {} kB), jobs 1/2/4 byte-identical; parse {:.1} ms, verify {:.1} ms, \
         print {:.1} ms, output round-trips",
        row.funcs,
        row.insts,
        secs,
        row.funcs_per_sec,
        row.insts_per_sec,
        row.peak_rss_kb,
        row.parse_ms,
        row.verify_ms,
        row.print_ms
    );
    row
}

/// Cold/warm compile-cache numbers from the cache smoke.
struct CacheRow {
    funcs: usize,
    hits: u64,
    misses: u64,
    evicts: u64,
    cold_ms: f64,
    warm_ms: f64,
    /// Hits of the warm recompile after one body and one initializer edit.
    edit_hits: u64,
}

/// The compile-cache smoke gate: one cold mega-module compile populating
/// a fresh cache directory, then warm reruns at `jobs` 1/2/4. Asserts the
/// cache's contract — warm output byte-identical to both the cold run and
/// an uncached compile, a ≥ 99% warm hit rate, zero stale entries — and
/// the perf bar: the warm rerun must be at least 10× faster than cold.
/// Then one body edit and one global-initializer edit to the source must
/// still hit ≥ 99% through the same cache ([`edit_smoke`]).
///
/// The correctness assertions are hard on every attempt; the *timing* gate
/// alone retries (the shared CI container's wall clock jitters by tens of
/// percent run to run, and a single slow tick must not fail the build when
/// an immediate remeasure demonstrates the speedup).
fn cache_smoke() -> CacheRow {
    const SEED: u64 = 42;
    const FUNCS: usize = 1000;
    const ATTEMPTS: u32 = 3;
    let opts = OptOptions {
        data: SpecSource::Heuristic,
        control: ControlSpec::Static,
        strength_reduction: true,
        lftr: true,
        store_sinking: true,
        target: Default::default(),
    };
    let cfg1 = PipelineConfig { jobs: 1 };
    let hooks = PipelineHooks::default();
    let dir = std::env::temp_dir().join(format!("specframe-ci-cache-{}", std::process::id()));

    let mut base = mega_module(SEED, FUNCS);
    prepare_module(&mut base);

    let mut m0 = base.clone();
    optimize_with(&mut m0, &opts, &cfg1);
    let baseline = print_module(&m0);

    let mut row = None;
    for attempt in 1..=ATTEMPTS {
        // every attempt is a true cold start: empty directory
        let _ = std::fs::remove_dir_all(&dir);

        // the harness copy of the input stays outside both timing windows:
        // the gate compares compiles, not clones
        let mut m1 = base.clone();
        let t0 = Instant::now();
        let (cold, _) =
            try_optimize_cached(&mut m1, &opts, &cfg1, &hooks, Some(&FuncCache::open(&dir)))
                .expect("cold cached compile");
        let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(print_module(&m1), baseline, "cold cached output diverged");
        assert_eq!(cold.cache.hits, 0, "cold run on a fresh dir cannot hit");
        assert_eq!(cold.cache.misses, FUNCS as u64);

        let mut warm_ms = f64::INFINITY;
        let mut last = None;
        for jobs in [1usize, 2, 4] {
            // a freshly opened cache each time: no in-process carry-over
            let cache = FuncCache::open(&dir);
            let mut mj = base.clone();
            let t0 = Instant::now();
            let (warm, _) = try_optimize_cached(
                &mut mj,
                &opts,
                &PipelineConfig { jobs },
                &hooks,
                Some(&cache),
            )
            .expect("warm cached compile");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                print_module(&mj),
                baseline,
                "warm cached output diverged at jobs={jobs}"
            );
            assert!(
                warm.cache.hits as f64 >= 0.99 * FUNCS as f64,
                "warm hit rate below 99%: {:?}",
                warm.cache
            );
            assert_eq!(warm.cache.stale, 0, "{:?}", warm.cache);
            warm_ms = warm_ms.min(ms);
            last = Some(warm);
        }
        let warm = last.unwrap();
        if cold_ms < 10.0 * warm_ms {
            assert!(
                attempt < ATTEMPTS,
                "warm cache rerun not >= 10x faster after {ATTEMPTS} attempts: \
                 cold {cold_ms:.1} ms, warm {warm_ms:.1} ms"
            );
            println!(
                "cache smoke: attempt {attempt} below 10x (cold {cold_ms:.1} ms, \
                 warm {warm_ms:.1} ms), remeasuring"
            );
            continue;
        }
        row = Some(CacheRow {
            funcs: FUNCS,
            hits: warm.cache.hits,
            misses: warm.cache.misses,
            evicts: warm.cache.evicts,
            cold_ms,
            warm_ms,
            edit_hits: edit_smoke(SEED, FUNCS, &opts, &dir),
        });
        break;
    }
    let _ = std::fs::remove_dir_all(&dir);
    let row = row.expect("timing gate attempts exhausted");
    println!(
        "cache smoke: cold {:.1} ms -> warm {:.1} ms ({:.1}x), {}/{} hits, \
         jobs 1/2/4 byte-identical; {}/{} hits after a body + initializer edit",
        row.cold_ms,
        row.warm_ms,
        row.cold_ms / row.warm_ms,
        row.hits,
        row.funcs,
        row.edit_hits,
        row.funcs
    );
    row
}

/// The warm-edit gate: bumps one literal in one function body and one
/// global's initializer in the mega source, recompiles through the cache
/// the warm runs left in `dir`, and asserts ≥ 99% hits, no stale entries,
/// and output byte-identical to an uncached compile of the edited module.
/// Returns the hit count.
fn edit_smoke(seed: u64, funcs: usize, opts: &OptOptions, dir: &std::path::Path) -> u64 {
    let src = mega_source(seed, funcs);
    let edited = src
        .replacen("global g0: i64[1] = [1]\n", "global g0: i64[1] = [2]\n", 1)
        .replacen(" = add n, 3\n", " = add n, 4\n", 1);
    assert_eq!(
        src.lines()
            .zip(edited.lines())
            .filter(|(a, b)| a != b)
            .count(),
        2,
        "the edit touches one initializer and one body line"
    );
    let mut base = parse_module(&edited).expect("edited mega module parses");
    prepare_module(&mut base);
    let cfg = PipelineConfig { jobs: 1 };
    let mut uncached = base.clone();
    optimize_with(&mut uncached, opts, &cfg);
    let mut m = base;
    let (report, _) = try_optimize_cached(
        &mut m,
        opts,
        &cfg,
        &PipelineHooks::default(),
        Some(&FuncCache::open(dir)),
    )
    .expect("edited cached compile");
    assert_eq!(
        print_module(&m),
        print_module(&uncached),
        "edited cached output diverged"
    );
    assert!(
        report.cache.hits as f64 >= 0.99 * funcs as f64,
        "hit rate after a body + initializer edit below 99%: {:?}",
        report.cache
    );
    assert_eq!(report.cache.stale, 0, "{:?}", report.cache);
    report.cache.hits
}

/// Leak-audit and fencing numbers for the CI artifact.
struct LeakRow {
    /// Speculative-leak sites flagged across the optimized test workloads.
    sites: u64,
    /// Fences the repair transform inserted to close them.
    fences: u64,
    /// Simulator cycles of the known-leaky kernel, unfenced.
    unfenced_cycles: u64,
    /// Same kernel after fencing (the overhead is the delta).
    fenced_cycles: u64,
}

/// The speculative-leak smoke: every optimized test workload's lowering is
/// leak-audited and fenced (the re-audit must come back clean), then a
/// known-leaky kernel measures the fence's cycle overhead with the
/// architectural result pinned equal.
fn leaks_smoke() -> LeakRow {
    use specframe_machine::{fence_program, leak_audit_program, run_machine};
    let opts = OptOptions {
        data: SpecSource::Heuristic,
        control: ControlSpec::Static,
        strength_reduction: true,
        lftr: true,
        store_sinking: true,
        target: Default::default(),
    };
    let mut sites = 0u64;
    let mut fences = 0u64;
    for w in all_workloads(Scale::Test) {
        let mut m = w.module;
        prepare_module(&mut m);
        optimize(&mut m, &opts);
        let mut prog = specframe_codegen::lower_module(&m);
        sites += leak_audit_program(&prog).len() as u64;
        fences += fence_program(&mut prog);
        assert!(
            leak_audit_program(&prog).is_empty(),
            "workload {}: leak sites survive fencing",
            w.name
        );
    }
    let src = r#"
global t: i64[1] = [18]
global s: i64[4] = [7, 8, 9, 10]

func main() -> i64 {
  var p: i64
  var v: i64
entry:
  p = load.a.i64 [@t]
  v = load.i64 [p]
  p = ldc.i64 [@t]
  ret v
}
"#;
    let mut m = specframe_ir::parse_module(src).expect("leaky kernel");
    prepare_module(&mut m);
    let plain = specframe_codegen::lower_module(&m);
    let kernel_sites = leak_audit_program(&plain).len() as u64;
    assert!(kernel_sites > 0, "the leaky kernel must be flagged");
    let mut fenced = plain.clone();
    let kernel_fences = fence_program(&mut fenced);
    let (want, c0) = run_machine(&plain, "main", &[], 100_000).expect("unfenced run");
    let (got, c1) = run_machine(&fenced, "main", &[], 100_000).expect("fenced run");
    assert_eq!(want, got, "fencing changed the architectural result");
    assert!(c1.cycles >= c0.cycles, "a fence cannot be free");
    let row = LeakRow {
        sites: sites + kernel_sites,
        fences: fences + kernel_fences,
        unfenced_cycles: c0.cycles,
        fenced_cycles: c1.cycles,
    };
    println!(
        "leaks smoke: {} sites fenced with {} barriers; kernel overhead \
         {} -> {} cycles (+{})",
        row.sites,
        row.fences,
        row.unfenced_cycles,
        row.fenced_cycles,
        row.fenced_cycles - row.unfenced_cycles
    );
    row
}

/// Per-target throughput and overhead numbers for the CI artifact.
struct TargetRow {
    name: &'static str,
    funcs_per_sec: f64,
    /// Extra simulator cycles the leak fences cost on the speculative
    /// kernel (fenced minus unfenced, default fault policy).
    fence_overhead_cycles: u64,
    /// Extra cycles when every check misses (`always-miss`) — the price
    /// of the target's misspeculation-recovery shape.
    recovery_overhead_cycles: u64,
}

/// The per-target smoke: the synthetic mega-module compiled once per
/// execution target (the oracle's cost model moves with the target, so
/// these are genuinely different compiles), plus the fence and
/// misspeculation-recovery cycle overheads of the known-speculative
/// kernel on each backend. Results must stay architecturally equal on
/// every target under every measured condition.
fn targets_smoke() -> Vec<TargetRow> {
    use specframe_machine::{
        fence_program, parse_fault_policy, run_machine_on, run_machine_with_policy_on, TargetId,
    };
    const SEED: u64 = 7;
    const FUNCS: usize = 300;
    let src = r#"
global t: i64[1] = [18]
global s: i64[4] = [7, 8, 9, 10]

func main() -> i64 {
  var p: i64
  var v: i64
entry:
  p = load.a.i64 [@t]
  v = load.i64 [p]
  p = ldc.i64 [@t]
  ret v
}
"#;
    let mut rows = Vec::new();
    for target in TargetId::ALL {
        let opts = OptOptions {
            data: SpecSource::Heuristic,
            control: ControlSpec::Static,
            strength_reduction: true,
            lftr: true,
            store_sinking: true,
            target,
        };
        let mut m = mega_module(SEED, FUNCS);
        prepare_module(&mut m);
        let t0 = Instant::now();
        optimize(&mut m, &opts);
        let secs = t0.elapsed().as_secs_f64();

        let mut km = specframe_ir::parse_module(src).expect("target kernel");
        prepare_module(&mut km);
        let plain = specframe_codegen::lower_module_for(&km, target.spec());
        let mut fenced = plain.clone();
        fence_program(&mut fenced);
        let (want, c0) =
            run_machine_on(&plain, target.spec(), "main", &[], 100_000).expect("unfenced run");
        let (got, c1) =
            run_machine_on(&fenced, target.spec(), "main", &[], 100_000).expect("fenced run");
        assert_eq!(want, got, "{}: fencing changed the result", target.name());
        let miss = parse_fault_policy("always-miss").expect("always-miss policy");
        let (rec, c2) =
            run_machine_with_policy_on(&plain, target.spec(), "main", &[], 100_000, miss)
                .expect("always-miss run");
        assert_eq!(rec, want, "{}: recovery changed the result", target.name());
        let row = TargetRow {
            name: target.name(),
            funcs_per_sec: FUNCS as f64 / secs,
            fence_overhead_cycles: c1.cycles.saturating_sub(c0.cycles),
            recovery_overhead_cycles: c2.cycles.saturating_sub(c0.cycles),
        };
        println!(
            "target {}: {:.0} funcs/sec, fence overhead +{} cycles, \
             recovery overhead +{} cycles",
            row.name, row.funcs_per_sec, row.fence_overhead_cycles, row.recovery_overhead_cycles
        );
        rows.push(row);
    }
    rows
}

/// Fault-tolerance numbers for the CI artifact.
struct ChaosRow {
    /// Crashpoints exercised through the real `specc` binary.
    crashpoints: u64,
    /// Crash-then-restart drains that converged (must equal crashpoints).
    recoveries: u64,
    /// Transient cache-I/O retries the in-process fault drill drove.
    retries: u64,
    /// Injected cache I/O errors observed in that drill.
    io_errors: u64,
    /// Wall time for `specc --deadline-ms 1` to abort with exit code 5.
    deadline_abort_ms: f64,
}

/// The chaos smoke: an in-process storage-fault drill (torn writes under
/// retry must not move the output), a crash-recovery sweep killing the
/// real `specc` at every crashpoint mid-queue-drain and asserting the
/// restart converges, and a deadline-abort latency measurement.
fn chaos_smoke() -> ChaosRow {
    use specframe_core::cache::MemStore;
    use specframe_core::parse_store_fault_policy;

    // in-process drill: torn writes heal under retry, output pinned
    const SEED: u64 = 5;
    const FUNCS: usize = 50;
    let opts = OptOptions {
        data: SpecSource::Heuristic,
        control: ControlSpec::Static,
        strength_reduction: true,
        lftr: true,
        store_sinking: true,
        target: Default::default(),
    };
    let cfg = PipelineConfig { jobs: 1 };
    let hooks = PipelineHooks::default();
    let mut base = mega_module(SEED, FUNCS);
    prepare_module(&mut base);
    let mut m0 = base.clone();
    optimize_with(&mut m0, &opts, &cfg);
    let baseline = print_module(&m0);
    let policy = parse_store_fault_policy("torn-write:2").expect("policy");
    let cache = FuncCache::with_store(Box::new(MemStore::new())).with_fault_policy(policy);
    let mut m1 = base.clone();
    try_optimize_cached(&mut m1, &opts, &cfg, &hooks, Some(&cache))
        .expect("faulted cached compile");
    assert_eq!(print_module(&m1), baseline, "torn writes moved the output");
    let (retries, io_errors, _) = cache.fault_counters();
    assert!(retries > 0, "torn-write drill drove no retries");

    // crash-recovery sweep and deadline latency need the real binary
    let specc = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.join("specc")))
        .filter(|p| p.exists());
    let Some(specc) = specc else {
        println!("chaos smoke: specc binary not found beside ci_smoke; skipping crash sweep");
        return ChaosRow {
            crashpoints: 0,
            recoveries: 0,
            retries,
            io_errors,
            deadline_abort_ms: 0.0,
        };
    };

    let points = [
        "cache-pre-rename",
        "cache-post-rename",
        "queue-pre-resp-rename",
        "queue-pre-remove-req",
    ];
    let tmp = std::env::temp_dir().join(format!("specframe-ci-chaos-{}", std::process::id()));
    let mut recoveries = 0u64;
    for point in points {
        let queue = tmp.join(point).join("queue");
        let cache_dir = tmp.join(point).join("cache");
        let _ = std::fs::remove_dir_all(tmp.join(point));
        std::fs::create_dir_all(&queue).expect("queue dir");
        let out_ir = tmp.join(point).join("out.ir");
        std::fs::write(
            queue.join("r.req"),
            format!("mega 9:6 -o {}\n", out_ir.display()),
        )
        .expect("request");
        let crashed = std::process::Command::new(&specc)
            .arg("--serve-queue")
            .arg(&queue)
            .arg("--cache-dir")
            .arg(&cache_dir)
            .env("SPECFRAME_CRASH_AT", format!("{point}:1"))
            .output()
            .expect("crash run");
        assert!(
            !crashed.status.success(),
            "crashpoint {point} did not abort"
        );
        let redrain = std::process::Command::new(&specc)
            .arg("--serve-queue")
            .arg(&queue)
            .arg("--cache-dir")
            .arg(&cache_dir)
            .output()
            .expect("re-drain");
        assert!(
            redrain.status.success() && queue.join("r.resp").exists() && out_ir.exists(),
            "re-drain after {point} did not converge: {}",
            String::from_utf8_lossy(&redrain.stderr)
        );
        recoveries += 1;
    }
    let _ = std::fs::remove_dir_all(&tmp);

    // deadline-abort latency: how long until --deadline-ms 1 exits code 5
    let t0 = Instant::now();
    let dl = std::process::Command::new(&specc)
        .args(["--mega", "42:1000", "--deadline-ms", "1", "--jobs", "1"])
        .output()
        .expect("deadline run");
    let deadline_abort_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        dl.status.code(),
        Some(5),
        "deadline abort should exit 5: {}",
        String::from_utf8_lossy(&dl.stderr)
    );

    let row = ChaosRow {
        crashpoints: points.len() as u64,
        recoveries,
        retries,
        io_errors,
        deadline_abort_ms,
    };
    println!(
        "chaos smoke: {}/{} crashpoint recoveries, {} retries / {} injected errors, \
         deadline abort in {:.1} ms",
        row.recoveries, row.crashpoints, row.retries, row.io_errors, row.deadline_abort_ms
    );
    row
}

/// A "failing" program for the reducer smoke: one `div` (the simulated
/// trigger) buried in filler arithmetic, helper calls, and a diamond.
/// The predicate — program still verifies and still contains a `div` —
/// stands in for "still reproduces the failure".
fn reducer_smoke() -> ReduceStats {
    let src = r#"
global a: i64[4] = [1, 2, 3, 4]

func filler(x: i64) -> i64 {
  var s: i64
  var t: i64
entry:
  s = add x, 1
  t = add s, 2
  s = add t, 3
  t = add s, 4
  s = add t, 5
  t = add s, 6
  s = add t, 7
  ret s
}

func trigger(n: i64, d: i64) -> i64 {
  var u: i64
  var v: i64
  var w: i64
  var c: i64
  var q: i64
entry:
  u = load.i64 [@a]
  v = add u, n
  w = call filler(v)
  c = lt w, n
  br c, yes, no
yes:
  v = add v, 1
  jmp join
no:
  v = add v, 2
  jmp join
join:
  q = div v, d
  w = add q, v
  u = add w, u
  v = mul u, 3
  w = add v, w
  u = add w, 1
  ret u
}
"#;
    let m = specframe_ir::parse_module(src).expect("reducer smoke program");
    let mut failing = |c: &specframe_ir::Module| {
        specframe_ir::verify_module(c).is_ok() && print_module(c).contains(" div ")
    };
    let (red, stats) = reduce_module(&m, &mut failing);
    assert!(
        print_module(&red).contains(" div "),
        "reduction lost the failure trigger"
    );
    assert!(
        stats.shrink_percent() >= 80.0,
        "reducer smoke shrank only {:.0}% ({} -> {} insts)",
        stats.shrink_percent(),
        stats.initial_insts,
        stats.final_insts
    );
    println!(
        "reducer smoke: {} probes, {} -> {} instructions ({:.0}% shrink)",
        stats.probes,
        stats.initial_insts,
        stats.final_insts,
        stats.shrink_percent()
    );
    stats
}

fn main() {
    let opts = OptOptions {
        data: SpecSource::Heuristic,
        control: ControlSpec::Static,
        strength_reduction: true,
        lftr: true,
        store_sinking: true,
        target: Default::default(),
    };
    let mut rows = Vec::new();
    for w in all_workloads(Scale::Test) {
        // one warm-up to take cold caches out of the mean
        optimize(&mut w.module.clone(), &opts);
        let t0 = Instant::now();
        for _ in 0..ITERS {
            optimize(&mut w.module.clone(), &opts);
        }
        let mean_ms = t0.elapsed().as_secs_f64() * 1e3 / f64::from(ITERS);
        println!("{:<16} {mean_ms:8.2} ms", w.name);
        rows.push((w.name.to_string(), mean_ms));
    }

    let mega = mega_smoke();
    let cache = cache_smoke();
    let leaks = leaks_smoke();
    let targets = targets_smoke();
    let chaos = chaos_smoke();
    let rs = reducer_smoke();

    let mut json = String::from("{\n  \"config\": \"heuristic+static+sr+sink\",\n  \"iters\": ");
    let _ = write!(json, "{ITERS},\n  \"mean_ms\": {{\n");
    for (i, (name, ms)) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(json, "    \"{name}\": {ms:.3}{sep}");
    }
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"mega\": {{ \"funcs\": {}, \"insts\": {}, \"funcs_per_sec\": {:.0}, \
         \"insts_per_sec\": {:.0}, \"peak_rss_kb\": {}, \"parse_ms\": {:.2}, \
         \"verify_ms\": {:.2}, \"print_ms\": {:.2} }},",
        mega.funcs,
        mega.insts,
        mega.funcs_per_sec,
        mega.insts_per_sec,
        mega.peak_rss_kb,
        mega.parse_ms,
        mega.verify_ms,
        mega.print_ms
    );
    let _ = writeln!(
        json,
        "  \"cache\": {{ \"funcs\": {}, \"hits\": {}, \"misses\": {}, \"evicts\": {}, \
         \"cold_ms\": {:.1}, \"warm_ms\": {:.1}, \"edit_hits\": {} }},",
        cache.funcs,
        cache.hits,
        cache.misses,
        cache.evicts,
        cache.cold_ms,
        cache.warm_ms,
        cache.edit_hits
    );
    let _ = writeln!(
        json,
        "  \"leaks\": {{ \"sites\": {}, \"fences\": {}, \"unfenced_cycles\": {}, \
         \"fenced_cycles\": {} }},",
        leaks.sites, leaks.fences, leaks.unfenced_cycles, leaks.fenced_cycles
    );
    json.push_str("  \"targets\": {\n");
    for (i, t) in targets.iter().enumerate() {
        let sep = if i + 1 == targets.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    \"{}\": {{ \"funcs_per_sec\": {:.0}, \"fence_overhead_cycles\": {}, \
             \"recovery_overhead_cycles\": {} }}{sep}",
            t.name, t.funcs_per_sec, t.fence_overhead_cycles, t.recovery_overhead_cycles
        );
    }
    json.push_str("  },\n");
    let _ = writeln!(
        json,
        "  \"chaos\": {{ \"crashpoints\": {}, \"recoveries\": {}, \"retries\": {}, \
         \"io_errors\": {}, \"deadline_abort_ms\": {:.1} }},",
        chaos.crashpoints,
        chaos.recoveries,
        chaos.retries,
        chaos.io_errors,
        chaos.deadline_abort_ms
    );
    let _ = writeln!(
        json,
        "  \"reduce\": {{ \"probes\": {}, \"initial_insts\": {}, \
         \"final_insts\": {}, \"shrink_percent\": {:.0} }}",
        rs.probes,
        rs.initial_insts,
        rs.final_insts,
        rs.shrink_percent()
    );
    json.push_str("}\n");
    std::fs::write("BENCH_ci.json", json).expect("write BENCH_ci.json");
    println!("wrote BENCH_ci.json");
}
