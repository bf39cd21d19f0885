//! The whole-module optimization pipeline.
//!
//! `prepare_module` → (profiling, outside) → [`optimize`]:
//!
//! 1. drop unreachable blocks and split critical edges (so HSSA rename
//!    versions every block, and SSAPRE insertions and φ lowering have a
//!    block per edge);
//! 2. Steensgaard alias analysis;
//! 3. per function: build the speculative SSA form, refine over it (folding
//!    provably single-target pointer bases into direct references, and
//!    rebuilding the form only when something folded), run the speculative
//!    SSAPRE worklist (PRE + register promotion), run strength reduction /
//!    LFTR / store sinking, cleaning the form after the first of these
//!    passes to run and after each that rewrote it, verify, lower out of
//!    SSA;
//! 4. verify the module.
//!
//! The `SpecSource`/`ControlSpec` pair selects the paper's configurations:
//!
//! | paper configuration | `SpecSource`  | `ControlSpec` |
//! |---------------------|---------------|----------------|
//! | O3 baseline         | `None`        | `Off`          |
//! | profile-guided      | `Profile`     | `Profile`      |
//! | heuristic rules     | `Heuristic`   | `Static`       |
//! | potential estimate  | `Aggressive`  | `Off`          |

use crate::cache::{self, CacheOutcome, CacheStats, CachedFunc, FuncCache, Probe};
use crate::error::{panic_message, with_quiet_panics, CompileDiag, CompileError};
use crate::passes::{Pass, PassDump, PassSet, PipelineHooks};
use crate::prekernel::{cleanup_hssa, SpecPolicy};
use crate::ssapre::ssapre_function;
use crate::stats::{OptStats, PassTimings};
use crate::strength::{strength_reduce_hssa, SrTemp};
use specframe_alias::AliasAnalysis;
use specframe_analysis::{
    dom_compute_count, estimate_function, remove_unreachable_blocks, split_critical_edges,
    EdgeProfile, FuncAnalyses,
};
pub use specframe_hssa::SpecSource;
use specframe_hssa::{
    build_hssa, lower_function, print_hssa, refine_function, resolve_fresh_sites, verify_hssa,
    HssaFunc, Likeliness, SpecCosts,
};
use specframe_ir::display::{func_name_table, print_function};
use specframe_ir::{layout_globals, CalleeSig, FuncId, Function, Global, MemSiteId, Module};
use std::borrow::Cow;
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Where control-speculation likeliness comes from (Figure 3's "edge/path
/// profile / heuristic rules" box).
#[derive(Debug, Clone, Copy, Default)]
pub enum ControlSpec<'a> {
    /// No control speculation.
    #[default]
    Off,
    /// Edge-profile guided.
    Profile(&'a EdgeProfile),
    /// Ball–Larus-style static heuristics.
    Static,
}

/// Pipeline options.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptOptions<'a> {
    /// Data speculation source.
    pub data: SpecSource<'a>,
    /// Control speculation source.
    pub control: ControlSpec<'a>,
    /// Run strength reduction.
    pub strength_reduction: bool,
    /// Run linear-function test replacement over the strength-reduction
    /// temporaries. A no-op unless strength reduction also ran (LFTR
    /// consumes the `s ≡ i*c` version state SR records).
    pub lftr: bool,
    /// Run store promotion (sinking loop-invariant direct stores).
    pub store_sinking: bool,
    /// The execution target whose lowering and cost model the pipeline
    /// compiles for. The oracle weighs speculation profitability
    /// against this target's per-check overhead, so the same input can
    /// legitimately motion differently per target.
    pub target: specframe_machine::TargetId,
}

/// Projects a target's row down to the oracle's plain-data view (the hssa
/// crate cannot depend on the machine crate, so the driver — and the
/// `--explain-spec` renderer — perform the projection).
pub fn target_spec_costs(target: specframe_machine::TargetId) -> SpecCosts {
    let t = target.spec();
    SpecCosts {
        check_cost: t.check_overhead,
        int_load: t.costs.int_load,
        fp_load: t.costs.fp_load,
    }
}

/// Drops every block unreachable from its function's entry, then splits
/// critical edges, in every function. Below this point every block is
/// reachable, which HSSA construction relies on: its rename walks the
/// dominator tree and would leave a dead block unversioned. Run this
/// **before** collecting edge profiles so profile block ids match what
/// [`optimize`] sees (idempotent).
pub fn prepare_module(m: &mut Module) {
    for f in &mut m.funcs {
        remove_unreachable_blocks(f);
        split_critical_edges(f);
    }
}

/// Execution configuration of the pipeline (how to run, not what to run —
/// that is [`OptOptions`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineConfig {
    /// Worker threads for the per-function fan-out. `0` means auto: the
    /// machine's available parallelism.
    pub jobs: usize,
}

impl PipelineConfig {
    /// The effective worker count after auto resolution (always ≥ 1).
    pub fn resolved_jobs(&self) -> usize {
        if self.jobs > 0 {
            return self.jobs;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Everything one [`try_optimize_cached`] call reports: transformation
/// counters plus per-pass wall times, plus the diagnostics of any
/// per-function degradation the driver performed.
#[derive(Debug, Default, Clone)]
pub struct OptReport {
    /// Deterministic transformation counters (identical for any job count).
    pub stats: OptStats,
    /// Per-pass wall clock (varies run to run).
    pub timings: PassTimings,
    /// One warning per function that was recompiled non-speculatively
    /// after its speculative compilation failed (function index order),
    /// preceded by one `"cache"` warning per stale entry encountered.
    pub warnings: Vec<CompileDiag>,
    /// Compile-cache counters for this run; all-zero when no cache was
    /// attached. Deliberately not part of [`OptStats`]: cached and
    /// uncached runs must report identical transformation counters while
    /// reporting different cache counters.
    pub cache: CacheStats,
    /// Per-function cache outcome in function-index order; empty when no
    /// cache was attached. The compile service's per-function status lines
    /// read these.
    pub cache_outcomes: Vec<CacheOutcome>,
}

/// Runs the full speculative optimization pipeline over `m` with the
/// default execution configuration (parallel fan-out, auto worker count).
///
/// # Panics
/// Panics if an internal invariant breaks (the SSA verifier or the module
/// verifier rejects the result) — optimizer bugs are made loud.
pub fn optimize(m: &mut Module, opts: &OptOptions<'_>) -> OptStats {
    let cfg = PipelineConfig::default();
    match try_optimize_cached(m, opts, &cfg, &PipelineHooks::default(), None) {
        Ok((report, _)) => report.stats,
        Err(e) => panic!("optimize failed: {e}"),
    }
}

/// The pipeline's one entry point: optimizes `m`, optionally through a
/// persistent per-function compile cache, with the pass-manager hooks.
///
/// The per-function stages — build HSSA → refine → SSAPRE → strength
/// reduction / store sinking → verify → lower — are embarrassingly
/// parallel: each worker owns exactly one [`Function`] (moved out of the
/// module), builds that function's CFG analyses and edge estimate, and
/// reads only read-only shared state (globals, alias analysis, profiles).
/// The module is only touched at two deterministic points: the fan-out
/// (functions moved out in index order) and the join (lowered functions
/// spliced back in index order, with optimizer-synthesized memory sites
/// renumbered serially there). Output is therefore bit-identical for every
/// job count, including 1.
///
/// Hooks snapshot the textual form of any function after any named stage
/// ([`PipelineHooks::dump_after`]) or run the pipeline only through a stage
/// ([`PipelineHooks::stop_after`]). Snapshots are taken inside the workers
/// and assembled at the join, functions in module order and stages in
/// pipeline order; `lower` snapshots are taken at the join, after fresh
/// memory sites have been renumbered to their module-unique ids.
///
/// With a cache, every function's content hash (body + config +
/// alias-analysis slice + profile slices — see [`crate::cache::key`]) is
/// derived before the fan-out, since a key reads the whole module. The
/// worker that owns a function then probes its key: a hit replays the
/// stored lowering, stats and dumps in place of the input function; a miss
/// (or a stale entry, which degrades with a `"cache"` diagnostic leading
/// the report's warnings) is compiled. Clean misses are written back at the
/// join, *before* fresh-site renumbering, so an entry replays identically
/// into any module. Cache counters land on [`OptReport::cache`], never on
/// [`OptStats`].
///
/// A function whose speculative compilation fails (verifier rejection or a
/// worker panic) is recompiled with speculation disabled; the degradation
/// is recorded as an [`OptReport`] warning and counted in
/// [`OptStats::spec_fallbacks`].
///
/// # Errors
/// A [`CompileError`] naming the function and stage that failed: when the
/// non-speculative fallback fails too, when the deadline expires, or when
/// final whole-module verification rejects the result. Cache I/O failures
/// are never errors — they degrade to fresh compiles.
pub fn try_optimize_cached(
    m: &mut Module,
    opts: &OptOptions<'_>,
    cfg: &PipelineConfig,
    hooks: &PipelineHooks,
    fcache: Option<&FuncCache>,
) -> Result<(OptReport, Vec<PassDump>), CompileError> {
    let total0 = Instant::now();
    prepare_module(m);

    let mut timings = PassTimings {
        target: opts.target.name(),
        ..PassTimings::default()
    };
    let t0 = Instant::now();
    let aa = AliasAnalysis::analyze(m);
    timings.alias = t0.elapsed();

    // Fault injection makes a compile run-specific (the injected failure
    // and its recovery must actually happen); replaying such a result —
    // or caching it — would defeat the test hooks, so they turn the cache
    // off wholesale.
    let cache = fcache.filter(|_| {
        hooks.inject_spec_fail.is_none()
            && hooks.inject_fallback_fail.is_none()
            && hooks.inject_corrupt.is_none()
    });
    let jobs = cfg.resolved_jobs();
    // a key reads the whole module (every signature, the global table), so
    // keys are derived before the fan-out moves the functions out
    let keys: Vec<cache::CacheKey> = cache.map_or_else(Vec::new, |_| {
        let t0 = Instant::now();
        let ctx = cache::KeyContext::new(m, &aa, opts, hooks);
        let keys = fan_out(jobs, (0..m.funcs.len()).collect(), |fi| {
            ctx.function_key(fi)
        });
        timings.cache = t0.elapsed();
        keys
    });

    let func_names = func_name_table(m);
    // callee signatures and the global address layout, frozen before the
    // fan-out so per-worker verification/audit can run without the
    // (moved-out) module
    let sigs: Vec<(u32, bool)> = m
        .funcs
        .iter()
        .map(|f| (f.params, f.ret_ty.is_some()))
        .collect();
    let layout = layout_globals(&m.globals);
    let funcs = std::mem::take(&mut m.funcs);
    let sh = Shared {
        globals: &m.globals,
        func_names: &func_names,
        sigs: &sigs,
        layout: &layout,
        aa: &aa,
        opts,
        hooks,
    };
    // worker panics are caught inside process_function, so failures arrive
    // as CompileErrors in order
    let owned = fan_out(jobs, funcs.into_iter().enumerate().collect(), |(fi, f)| {
        replay_or_compile(&sh, cache.map(|c| (c, &keys[fi])), fi, f)
    });
    let cache = cache.map(|c| (c, keys.as_slice()));
    let (mut report, dumps) = join(m, owned, cache, hooks, &func_names, timings)?;
    if let Some((c, _)) = cache {
        fold_fault_counters(c, &mut report.cache, &mut report.warnings);
    }

    let t0 = Instant::now();
    specframe_ir::verify_module(m).map_err(|e| CompileError {
        function: String::new(),
        pass: "module-verify".into(),
        message: e.to_string(),
        fallback_exhausted: false,
    })?;
    report.timings.module_verify = t0.elapsed();
    report.timings.total = total0.elapsed();
    Ok((report, dumps))
}

/// What the worker that owns one function hands the join.
struct Owned {
    /// The function's cache outcome; `None` without a cache.
    outcome: Option<CacheOutcome>,
    /// A stale entry's diagnostic. It is kept apart from the result's own
    /// warnings, whose emptiness makes the recompile eligible for
    /// write-back, and leads the report's warnings.
    stale: Option<CompileDiag>,
    result: Result<FuncResult, CompileError>,
}

/// The work of the worker that owns function `fi`: with a cache, probe its
/// key and replay a hit in place of `f`; compile `f` otherwise. The probe
/// is timed into the result's `cache` row.
fn replay_or_compile(
    sh: &Shared<'_, '_>,
    cache: Option<(&FuncCache, &cache::CacheKey)>,
    fi: usize,
    f: Function,
) -> Owned {
    let (probe, probe_time) = match cache {
        Some((c, key)) => {
            let t0 = Instant::now();
            (Some(c.probe(key)), t0.elapsed())
        }
        None => (None, Duration::ZERO),
    };
    let outcome = probe.as_ref().map(|p| match p {
        Probe::Hit(_) => CacheOutcome::Hit,
        Probe::Miss => CacheOutcome::Miss,
        Probe::Stale(_) => CacheOutcome::Stale,
    });
    let mut stale = None;
    let result = match probe {
        Some(Probe::Hit(cf)) => Ok(FuncResult::from_cached(*cf)),
        probe => {
            if let Some(Probe::Stale(why)) = probe {
                stale = Some(CompileDiag {
                    function: f.name.clone(),
                    pass: "cache".into(),
                    message: format!("stale cache entry ({why}); recompiled from source"),
                });
            }
            process_function(sh, f, fi)
        }
    };
    Owned {
        outcome,
        stale,
        result: result.map(|mut r| {
            r.timings.cache = probe_time;
            r
        }),
    }
}

/// Join: splices the results back into `m` in index order and renumbers
/// fresh memory sites serially, reproducing serial numbering; per-function
/// dumps and warnings are concatenated in the same order, after every
/// stale entry's diagnostic. An unrecoverable per-function failure surfaces
/// here — the lowest function index wins, independent of worker
/// scheduling. Clean misses are written back here, encoded *before*
/// renumbering so the stored placeholders replay into any module.
fn join(
    m: &mut Module,
    owned: Vec<Owned>,
    cache: Option<(&FuncCache, &[cache::CacheKey])>,
    hooks: &PipelineHooks,
    func_names: &[String],
    timings: PassTimings,
) -> Result<(OptReport, Vec<PassDump>), CompileError> {
    let mut report = OptReport {
        timings,
        ..OptReport::default()
    };
    let mut warnings = Vec::new();
    let mut dumps: Vec<PassDump> = Vec::new();
    m.funcs = Vec::with_capacity(owned.len());
    for (fi, o) in owned.into_iter().enumerate() {
        let mut r = o.result?;
        if let Some(outcome) = o.outcome {
            report.cache_outcomes.push(outcome);
            match outcome {
                CacheOutcome::Hit => report.cache.hits += 1,
                CacheOutcome::Miss => report.cache.misses += 1,
                CacheOutcome::Stale => report.cache.stale += 1,
            }
        }
        report.warnings.extend(o.stale);
        // a function that needed the degradation ladder is not cached: its
        // result encodes a recovery, not the plain compile the key
        // describes. A cancelled request stops writing entries: the join
        // may still splice results compiled before the deadline, but none
        // of them reach the store.
        let write_back = matches!(o.outcome, Some(CacheOutcome::Miss | CacheOutcome::Stale))
            && r.warnings.is_empty()
            && !hooks.cancel.cancelled();
        let entry = cache.filter(|_| write_back).map(|(c, keys)| {
            let t0 = Instant::now();
            let bytes = cache::encode_entry(&r.f, r.fresh_sites, &r.stats, &r.dumps);
            report.timings.cache += t0.elapsed();
            (c, &keys[fi], bytes)
        });
        let first = MemSiteId(m.next_mem_site);
        m.next_mem_site += r.fresh_sites;
        resolve_fresh_sites(&mut r.f, first);
        report.stats.absorb(&r.stats);
        report.timings.absorb(&r.timings);
        warnings.append(&mut r.warnings);
        dumps.append(&mut r.dumps);
        if hooks.dump_after.contains(Pass::Lower) {
            let mut text = String::new();
            print_function(&mut text, &m.globals, func_names, &r.f);
            dumps.push(PassDump {
                pass: Pass::Lower,
                func: r.f.name.clone(),
                text,
            });
        }
        if let Some((c, key, bytes)) = entry {
            let t0 = Instant::now();
            if let Err(e) = c.insert(key, &bytes) {
                warnings.push(CompileDiag {
                    function: r.f.name.clone(),
                    pass: "cache".into(),
                    message: format!("cache write failed ({e}); result not cached"),
                });
            }
            report.timings.cache += t0.elapsed();
        }
        m.funcs.push(r.f);
    }
    report.warnings.append(&mut warnings);
    Ok((report, dumps))
}

/// Folds the storage-fault counters into `stats` and surfaces the circuit
/// breaker (once per session: only the cache instance that tripped it
/// reports).
fn fold_fault_counters(c: &FuncCache, stats: &mut CacheStats, warnings: &mut Vec<CompileDiag>) {
    (stats.retries, stats.io_errors, stats.breaker_trips) = c.fault_counters();
    if let Some(reason) = c.breaker_diag() {
        warnings.push(CompileDiag {
            function: String::new(),
            pass: "cache".into(),
            message: format!(
                "cache circuit breaker tripped ({reason}); compiling without the cache"
            ),
        });
    }
}

/// Runs `work` over `items` on up to `jobs` threads and returns the results
/// in item order. The calling thread is worker zero — only `jobs - 1`
/// spawn. Workers claim chunks of positions with one atomic `fetch_add`
/// each instead of popping from a locked queue, and each item has its own
/// (uncontended) slot mutex, so the per-item synchronization cost is one
/// futex fast path; results accumulate worker-locally and merge under the
/// output lock once per worker. At `jobs <= 1` it is a plain in-order loop.
fn fan_out<T: Send, R: Send>(jobs: usize, items: Vec<T>, work: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let jobs = jobs.min(n);
    if jobs <= 1 {
        return items.into_iter().map(work).collect();
    }
    let chunk = (n / (jobs * 8)).clamp(1, 32);
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..n).map(|_| None).collect());
    let worker = || {
        let mut local: Vec<(usize, R)> = Vec::new();
        loop {
            let lo = next.fetch_add(chunk, Ordering::Relaxed);
            if lo >= n {
                break;
            }
            let hi = (lo + chunk).min(n);
            for (i, slot) in (lo..hi).zip(&slots[lo..hi]) {
                let item = slot
                    .lock()
                    .expect("a slot lock is never held across a panic")
                    .take()
                    .expect("each item is claimed once");
                local.push((i, work(item)));
            }
        }
        let mut out = out
            .lock()
            .expect("the output lock is never held across a panic");
        for (i, r) in local {
            out[i] = Some(r);
        }
    };
    std::thread::scope(|s| {
        for _ in 1..jobs {
            s.spawn(worker);
        }
        worker();
    });
    out.into_inner()
        .expect("every worker has joined")
        .into_iter()
        .map(|r| r.expect("every item processed"))
        .collect()
}

/// One function's compiled output: a worker's compile, or the cache entry
/// it replayed.
struct FuncResult {
    /// The lowered function (fresh sites still local placeholders).
    f: Function,
    stats: OptStats,
    timings: PassTimings,
    /// Placeholder count for [`resolve_fresh_sites`] at the join.
    fresh_sites: u32,
    /// Snapshots taken, in pipeline order.
    dumps: Vec<PassDump>,
    /// Degradation diagnostics (non-speculative fallback taken) and
    /// reports from repairing stages (`--fence-leaks` site reports).
    warnings: Vec<CompileDiag>,
}

impl FuncResult {
    /// A result replayed from a cache entry, in place of the input function,
    /// by the worker that owns it: stored lowering, stats and dumps, zero
    /// timings (nothing ran; the worker adds its probe's time), no warnings
    /// (only clean compiles are written back).
    fn from_cached(cf: CachedFunc) -> FuncResult {
        FuncResult {
            f: cf.func,
            stats: cf.stats,
            timings: PassTimings::default(),
            fresh_sites: cf.fresh_sites,
            dumps: cf.dumps,
            warnings: Vec::new(),
        }
    }
}

/// Read-only state shared by every per-function worker.
struct Shared<'a, 'p> {
    globals: &'a [Global],
    func_names: &'a [String],
    /// `(params, has_ret)` per function, for per-worker call checking.
    sigs: &'a [(u32, bool)],
    /// Global address layout, for per-worker machine lowering (`--audit-spec`).
    layout: &'a [i64],
    aa: &'a AliasAnalysis,
    opts: &'a OptOptions<'p>,
    hooks: &'a PipelineHooks,
}

/// What one function's pipeline reads of its own beside the function,
/// built by the worker that owns it.
struct Unit<'p> {
    fid: FuncId,
    /// CFG analyses: every pass after `prepare_module` only rewrites
    /// instructions, never the CFG, so they stay valid through the whole
    /// pipeline.
    fa: FuncAnalyses,
    /// The control-speculation edge profile: the configured one, or this
    /// function's own static estimate (the estimator reads one function).
    edges: Option<Cow<'p, EdgeProfile>>,
}

/// The per-function pipeline. Owns `f`; everything else is shared
/// read-only.
///
/// Builds the function's [`Unit`], then the SSA form the first speculative
/// attempt optimizes, and runs refinement over it once up front (the fold
/// is not speculation-dependent), then runs the speculative stage group
/// under the degradation ladder ([`run_ladder`]), handing the form to its
/// first attempt unless refinement folded something. The result's
/// `dom_computes` counts the dominator trees this thread built for `f`: the
/// counter is per thread, so the join sums these.
fn process_function(
    sh: &Shared<'_, '_>,
    mut f: Function,
    fi: usize,
) -> Result<FuncResult, CompileError> {
    let hooks = sh.hooks;
    // between-functions deadline gate: a request past its deadline stops
    // claiming work; functions already in flight stop at their next pass
    // boundary (see `Attempt::enter`)
    if hooks.cancel.cancelled() {
        return Err(CompileError::deadline(&f.name));
    }
    let dom0 = dom_compute_count();
    let t0 = Instant::now();
    let fa = FuncAnalyses::compute(&f);
    let analyses_time = t0.elapsed();
    let fid = FuncId::from_index(fi);
    let edges = match sh.opts.control {
        ControlSpec::Off => None,
        ControlSpec::Profile(p) => Some(Cow::Borrowed(p)),
        ControlSpec::Static => {
            let mut p = EdgeProfile::new();
            estimate_function(&mut p, fid, &f, &fa);
            Some(Cow::Owned(p))
        }
    };
    let u = Unit { fid, fa, edges };
    let mut dumps: Vec<PassDump> = Vec::new();

    // flow-sensitive refinement (Figure 4's last box): build the SSA form
    // the first speculative attempt optimizes, fold pointer bases that
    // provably hold one static address into direct references over it, and
    // drop the form when anything folded ("update the SSA form if the μs
    // and χs lists have any change") so that attempt rebuilds it
    let oracle = attempt_oracle(sh, true);
    let (mut build_time, mut refine_time) = (Duration::ZERO, Duration::ZERO);
    let refined = with_quiet_panics(|| {
        catch_unwind(AssertUnwindSafe(|| {
            let t0 = Instant::now();
            let hf = build_hssa(sh.globals, &f, u.fid, sh.aa, &oracle, &u.fa);
            build_time = t0.elapsed();
            let t0 = Instant::now();
            let folded = refine_function(&mut f, &hf);
            refine_time = t0.elapsed();
            (folded == 0).then_some(hf)
        }))
    });
    let built = match refined {
        Ok(built) => built,
        // every attempt inherits the fold, and no panic site of the build
        // reads the oracle, so there is no speculation to disable — report
        // it directly
        Err(payload) => {
            return Err(CompileError {
                function: f.name.clone(),
                pass: "refine".into(),
                message: panic_message(payload.as_ref()),
                fallback_exhausted: false,
            })
        }
    };
    let mut pre_verify_time = Duration::ZERO;
    if hooks.verify_each {
        // pass-boundary check on the refined IR (refine is shared by every
        // later attempt, so a rejection here is unrecoverable, like a
        // refine panic)
        let t0 = Instant::now();
        let checked = verify_ir_function(sh, Pass::Refine, &f);
        pre_verify_time = t0.elapsed();
        if let Err(message) = checked {
            return Err(CompileError {
                function: f.name.clone(),
                pass: Pass::Refine.name().into(),
                message,
                fallback_exhausted: false,
            });
        }
    }
    if hooks.dump_after.contains(Pass::Refine) {
        let mut text = String::new();
        print_function(&mut text, sh.globals, sh.func_names, &f);
        dumps.push(PassDump {
            pass: Pass::Refine,
            func: f.name.clone(),
            text,
        });
    }
    let mut out = if hooks.runs(Pass::Hssa) {
        run_ladder(sh, &f, &u, built)?
    } else {
        // stopped after refine: the function is already executable IR
        FuncResult {
            f,
            stats: OptStats::default(),
            timings: PassTimings::default(),
            fresh_sites: 0,
            dumps: Vec::new(),
            warnings: Vec::new(),
        }
    };
    out.timings.analyses = analyses_time;
    out.timings.refine = refine_time;
    out.timings.hssa_build += build_time;
    out.timings.verify_each += pre_verify_time;
    out.timings.dom_computes = dom_compute_count() - dom0;
    dumps.append(&mut out.dumps);
    out.dumps = dumps;
    Ok(out)
}

/// The degradation ladder over the speculative stage group: the full
/// speculative attempt, then per-pass rollback (skip just the offending
/// pass, keep speculating), then the whole-function non-speculative
/// fallback. A rescued result carries the diagnostic of the rung that
/// saved it ahead of its own warnings; only a failure of the fallback, too,
/// is an error. A deadline bypasses every rung. `built`, the form
/// [`process_function`] built of `f` under the first attempt's oracle,
/// goes to that attempt; every later attempt builds its own.
fn run_ladder(
    sh: &Shared<'_, '_>,
    f: &Function,
    u: &Unit<'_>,
    built: Option<HssaFunc>,
) -> Result<FuncResult, CompileError> {
    let current = Cell::new("hssa");
    // an attempt is `Err` only on a deadline; its inner result collapses a
    // caught panic into the `(pass, message)` shape of a clean verifier
    // rejection
    let attempt = |speculative: bool, skip: PassSet, built: Option<HssaFunc>| {
        current.set("hssa");
        let r = with_quiet_panics(|| {
            catch_unwind(AssertUnwindSafe(|| {
                run_spec_stages(sh, f, u, speculative, skip, built, &current)
            }))
        })
        .unwrap_or_else(|payload| {
            Err((current.get().to_string(), panic_message(payload.as_ref())))
        });
        match r {
            // a deadline is not a compile failure the ladder can recover
            // from — retrying without speculation cannot buy time back — so
            // it bypasses every rung and surfaces as its own error shape
            Err((pass, _)) if pass == CompileError::DEADLINE_PASS => {
                Err(CompileError::deadline(&f.name))
            }
            r => Ok(r),
        }
    };
    let rescued = |mut out: FuncResult, pass: String, message: String| {
        let diag = CompileDiag {
            function: f.name.clone(),
            pass,
            message,
        };
        out.warnings.insert(0, diag);
        Ok(out)
    };
    let (pass, message) = match attempt(true, PassSet::EMPTY, built)? {
        Ok(out) => return Ok(out),
        Err(e) => e,
    };
    // rung 1: roll back just the offending pass and re-run the remaining
    // pipeline. An attributed failure names its pass; an unattributed one
    // (final verify, audit, lower) is bisected by trying single-pass skips
    // from the back of the pipeline.
    let candidates: Vec<Pass> = match pass.parse::<Pass>() {
        Ok(p) if SKIPPABLE.contains(&p) => vec![p],
        _ => SKIPPABLE.iter().rev().copied().collect(),
    };
    for p in candidates.into_iter().filter(|&p| pass_enabled(sh, p)) {
        if let Ok(mut out) = attempt(true, PassSet::from_iter([p]), None)? {
            out.stats.pass_rollbacks = 1;
            let why = format!(
                "speculative compilation failed ({message}); rolled back pass `{p}` for this \
                 function and re-ran the remaining pipeline"
            );
            return rescued(out, pass, why);
        }
    }
    // rung 2: non-speculative fallback — same function, speculation off
    match attempt(false, PassSet::EMPTY, None)? {
        Ok(mut out) => {
            out.stats.spec_fallbacks = 1;
            let why = format!(
                "speculative compilation failed ({message}); recompiled without speculation"
            );
            rescued(out, pass, why)
        }
        Err((fpass, fmessage)) => Err(CompileError {
            function: f.name.clone(),
            pass: fpass,
            message: fmessage,
            fallback_exhausted: true,
        }),
    }
}

/// The passes the rollback rung of the degradation ladder may skip
/// individually. HSSA build and lowering are structural (nothing runs
/// without them); refine runs before the ladder.
const SKIPPABLE: [Pass; 4] = [Pass::Ssapre, Pass::Strength, Pass::Lftr, Pass::Storeprom];

/// Whether pass `p` actually runs under this configuration (hooks *and*
/// option gates) — skipping a pass that never ran is a wasted retry.
fn pass_enabled(sh: &Shared<'_, '_>, p: Pass) -> bool {
    sh.hooks.runs(p)
        && match p {
            Pass::Strength => sh.opts.strength_reduction,
            Pass::Lftr => sh.opts.lftr,
            Pass::Storeprom => sh.opts.store_sinking,
            _ => true,
        }
}

/// One optional HSSA rewrite after SSAPRE: a row of [`OPTIONAL_PASSES`].
struct OptionalPass {
    pass: Pass,
    /// The rewrite; returns how many sites it changed (counted in
    /// `stats`), 0 only when it left the form untouched.
    run: fn(&mut HssaFunc, &FuncAnalyses, &mut Vec<SrTemp>, &mut OptStats) -> usize,
    time: fn(&mut PassTimings) -> &mut Duration,
}

/// The optional rewrites in pipeline order, each gated by
/// [`pass_enabled`]. LFTR consumes the temporaries strength reduction
/// records.
const OPTIONAL_PASSES: [OptionalPass; 3] = [
    OptionalPass {
        pass: Pass::Strength,
        run: |hf, fa, sr, st| strength_reduce_hssa(hf, st, fa, sr),
        time: |t| &mut t.strength,
    },
    OptionalPass {
        pass: Pass::Lftr,
        run: |hf, _, sr, st| crate::lftr::lftr_hssa(hf, sr, st),
        time: |t| &mut t.lftr,
    },
    OptionalPass {
        pass: Pass::Storeprom,
        run: |hf, fa, _, st| crate::storeprom::sink_stores_hssa(hf, st, fa),
        time: |t| &mut t.storeprom,
    },
];

/// The `pass=<p> fn=<f> bb=<n>` attribution suffix of verify-each and
/// audit diagnostics.
fn attribution(pass: &str, func: &str, bb: Option<u32>) -> String {
    match bb {
        Some(b) => format!("pass={pass} fn={func} bb={b}"),
        None => format!("pass={pass} fn={func}"),
    }
}

/// IR-level pass-boundary check (after `refine` and after `lower`): the
/// per-function structural verifier, run against the worker-shared global
/// count and callee signatures.
///
/// # Errors
/// Returns the fully attributed diagnostic message.
fn verify_ir_function(sh: &Shared<'_, '_>, pass: Pass, f: &Function) -> Result<(), String> {
    let callee = |i: usize| -> Option<CalleeSig<'_>> {
        sh.sigs.get(i).map(|&(params, has_ret)| CalleeSig {
            name: &sh.func_names[i],
            params,
            has_ret,
        })
    };
    specframe_ir::verify_function(sh.globals.len(), &callee, f).map_err(|e| {
        format!(
            "pass-boundary verification failed after `{pass}`: {} [{}]",
            e.msg,
            attribution(pass.name(), &f.name, e.block)
        )
    })
}

/// HSSA-level pass-boundary check: the detailed structural verifier plus,
/// once strength reduction has run, the SrTemp chain-consistency check.
///
/// # Errors
/// `(pass, message)` in the shape the degradation ladder consumes.
fn hssa_verify_each(
    f: &Function,
    hf: &HssaFunc,
    p: Pass,
    sr_temps: &[SrTemp],
    t: &mut PassTimings,
) -> Result<(), (String, String)> {
    let t0 = Instant::now();
    let mut r = verify_hssa(hf).map_err(|e| (e.block.map(|b| b as u32), e.msg));
    if r.is_ok() && p >= Pass::Strength {
        r = crate::lftr::verify_sr_temps(hf, sr_temps).map_err(|m| (None, m));
    }
    t.verify_each += t0.elapsed();
    r.map_err(|(bb, msg)| {
        (
            p.name().to_string(),
            format!(
                "pass-boundary verification failed after `{p}`: {msg} [{}]",
                attribution(p.name(), &f.name, bb)
            ),
        )
    })
}

/// Deterministic HSSA corruption for `--inject-corrupt`: breaks the first
/// renamed φ argument (falling back to a χ operand, then the entry
/// terminator) so the verify-each checker has a real violation to catch.
fn corrupt_hssa(hf: &mut HssaFunc) {
    for b in &mut hf.blocks {
        if let Some(arg) = b.phis.first_mut().and_then(|phi| phi.args.first_mut()) {
            *arg = u32::MAX;
            return;
        }
    }
    for b in &mut hf.blocks {
        if let Some(st) = b.stmts.iter_mut().find(|s| !s.chi.is_empty()) {
            st.chi[0].old_ver = u32::MAX;
            return;
        }
    }
    if let Some(b) = hf.blocks.first_mut() {
        b.term = None;
    }
}

/// One run of the speculative stage group: the context every stage
/// boundary reads, plus what the stages have produced so far.
struct Attempt<'s, 'a, 'p> {
    sh: &'s Shared<'a, 'p>,
    f: &'s Function,
    /// `false` on the ladder's non-speculative fallback rung.
    speculative: bool,
    /// The running stage, so a caught panic can be attributed.
    current: &'s Cell<&'static str>,
    stats: OptStats,
    t: PassTimings,
    dumps: Vec<PassDump>,
}

impl Attempt<'_, '_, '_> {
    /// Enters stage `p`: marks it current and polls the deadline.
    /// Cancellation is only observed at stage boundaries, where no
    /// function is half-rewritten, so a cancelled compile never commits
    /// (or caches) a partial transformation.
    fn enter(&self, p: &'static str) -> StageResult {
        self.current.set(p);
        if self.sh.hooks.cancel.cancelled() {
            return Err((
                CompileError::DEADLINE_PASS.into(),
                "deadline exceeded".into(),
            ));
        }
        Ok(())
    }

    /// Leaves HSSA-level stage `p`: the `--dump-after` snapshot, the
    /// `--inject-corrupt` sabotage of the speculative attempt (the fallback
    /// stays clean, like the other injection knobs, so the ladder always
    /// has a sound rung to land on) and the `--verify-each` check.
    fn leave(&mut self, hf: &mut HssaFunc, p: Pass, sr_temps: &[SrTemp]) -> StageResult {
        let (sh, f) = (self.sh, self.f);
        if sh.hooks.dump_after.contains(p) {
            self.dumps.push(PassDump {
                pass: p,
                func: f.name.clone(),
                text: print_hssa(sh.globals, sh.func_names, f, hf),
            });
        }
        if let Some((func, pass)) = &sh.hooks.inject_corrupt {
            if self.speculative && *pass == p && func == f.name.as_str() {
                corrupt_hssa(hf);
            }
        }
        if sh.hooks.verify_each {
            hssa_verify_each(f, hf, p, sr_temps, &mut self.t)?;
        }
        Ok(())
    }
}

/// A stage's verdict: `Err((pass, message))` in the shape the degradation
/// ladder consumes.
type StageResult = Result<(), (String, String)>;

/// The likeliness oracle of one attempt: the configured source on a
/// speculative attempt, no speculation on the fallback, weighed against the
/// target's costs. HSSA construction and the SSAPRE kernel of an attempt
/// query the same oracle, so their verdicts agree.
fn attempt_oracle<'p>(sh: &Shared<'_, 'p>, speculative: bool) -> Likeliness<'p> {
    let source = if speculative {
        sh.opts.data
    } else {
        SpecSource::None
    };
    Likeliness::with_costs(source, target_spec_costs(sh.opts.target))
}

/// The speculation-dependent stage group: HSSA build → SSAPRE → strength
/// reduction → LFTR → store promotion → verify → lower → post-lowering
/// audits. When `speculative` is false, every speculation source is forced
/// off (the degradation target). Passes in `skip` are left out (the
/// ladder's per-pass rollback rung). `built`, when given, is the form of
/// `f` built under this attempt's oracle, used instead of building one.
/// `current` tracks the running stage so a panic can be attributed.
///
/// [`cleanup_hssa`] runs after the first of SSAPRE and the optional passes
/// to run, since a fresh build's φs are unpruned, and after each later one
/// that reports a rewrite; cleaning a cleaned form changes nothing.
fn run_spec_stages(
    sh: &Shared<'_, '_>,
    f: &Function,
    u: &Unit<'_>,
    speculative: bool,
    skip: PassSet,
    built: Option<HssaFunc>,
    current: &Cell<&'static str>,
) -> Result<FuncResult, (String, String)> {
    let hooks = sh.hooks;
    let mut a = Attempt {
        sh,
        f,
        speculative,
        current,
        stats: OptStats::default(),
        t: PassTimings::default(),
        dumps: Vec::new(),
    };
    let oracle = attempt_oracle(sh, speculative);

    a.enter("hssa")?;
    let mut hf = match built {
        Some(hf) => hf,
        None => {
            let t0 = Instant::now();
            let hf = build_hssa(sh.globals, f, u.fid, sh.aa, &oracle, &u.fa);
            a.t.hssa_build = t0.elapsed();
            hf
        }
    };
    a.leave(&mut hf, Pass::Hssa, &[])?;
    let mut fresh = true;
    let mut clean = |hf: &mut HssaFunc, rewrites: usize| {
        if fresh || rewrites > 0 {
            cleanup_hssa(hf);
            fresh = false;
        }
    };

    if hooks.runs(Pass::Ssapre) {
        a.enter("ssapre")?;
        // injection fires on every attempt that reaches this stage — also
        // the rollback retry — so recovery degrades past rung 1
        let (inject, what) = if speculative {
            (&hooks.inject_spec_fail, "speculative-compilation")
        } else {
            (&hooks.inject_fallback_fail, "fallback-compilation")
        };
        if inject.as_deref() == Some(f.name.as_str()) {
            panic!("injected {what} failure");
        }
        if !skip.contains(Pass::Ssapre) {
            let policy = if speculative {
                SpecPolicy {
                    oracle,
                    control: u.edges.as_deref().map(|p| (p, u.fid)),
                }
            } else {
                SpecPolicy::none()
            };
            let t0 = Instant::now();
            // SSAPRE always follows a fresh build, so it is always cleaned
            // after, including the copies its phases propagated
            let transformed = ssapre_function(f, &mut hf, &policy, &mut a.stats, &u.fa);
            clean(&mut hf, transformed);
            a.t.ssapre = t0.elapsed();
            a.leave(&mut hf, Pass::Ssapre, &[])?;
        }
    }

    let mut sr_temps: Vec<SrTemp> = Vec::new();
    for op in &OPTIONAL_PASSES {
        if !pass_enabled(sh, op.pass) || skip.contains(op.pass) {
            continue;
        }
        a.enter(op.pass.name())?;
        let t0 = Instant::now();
        let rewrites = (op.run)(&mut hf, &u.fa, &mut sr_temps, &mut a.stats);
        clean(&mut hf, rewrites);
        *(op.time)(&mut a.t) = t0.elapsed();
        a.leave(&mut hf, op.pass, &sr_temps)?;
    }

    a.enter("verify")?;
    let t0 = Instant::now();
    verify_hssa(&hf).map_err(|e| ("verify".to_string(), e.msg))?;
    a.t.verify = t0.elapsed();

    a.enter("lower")?;
    let t0 = Instant::now();
    let (lowered, fresh_sites) = lower_function(f, &hf);
    a.t.lower = t0.elapsed();
    if hooks.verify_each {
        let t0 = Instant::now();
        let checked = verify_ir_function(sh, Pass::Lower, &lowered);
        a.t.verify_each += t0.elapsed();
        checked.map_err(|message| (Pass::Lower.name().to_string(), message))?;
    }

    let warnings = audit_lowered(&mut a, &lowered)?;
    Ok(FuncResult {
        f: lowered,
        stats: a.stats,
        timings: a.t,
        fresh_sites,
        dumps: a.dumps,
        warnings,
    })
}

/// The post-lowering audits over one function's machine lowering (against
/// the frozen global layout). `--audit-spec` proves the ld.a/ld.c pairing
/// contract. `--audit-leaks` rejects any advanced-load value that reaches
/// an address or branch sink before its check (the degradation ladder then
/// rolls speculation back); `--fence-leaks` instead records the repair the
/// machine lowering will apply and returns its site reports — the IR is
/// untouched, since fences are a deterministic machine-level transform that
/// sim/bench lowerings re-derive.
fn audit_lowered(
    a: &mut Attempt<'_, '_, '_>,
    lowered: &Function,
) -> Result<Vec<CompileDiag>, (String, String)> {
    let (hooks, func) = (a.sh.hooks, a.f.name.as_str());
    let lower = || {
        specframe_codegen::lower_function_machine_for(lowered, a.sh.layout, a.sh.opts.target.spec())
    };
    if hooks.audit_spec {
        a.current.set("audit");
        let t0 = Instant::now();
        let audited = specframe_machine::audit_func(&lower());
        a.t.audit = t0.elapsed();
        audited.map_err(|e| {
            let why = format!("{e} [{}]", attribution("audit", func, None));
            ("audit".to_string(), why)
        })?;
    }
    let mut warnings: Vec<CompileDiag> = Vec::new();
    if !(hooks.audit_leaks || hooks.fence_leaks) {
        return Ok(warnings);
    }
    a.current.set("audit-leaks");
    let t0 = Instant::now();
    let mut mf = lower();
    let sites = specframe_machine::leak_audit_func(&mf);
    let at = attribution("audit-leaks", func, None);
    let diag = |message: String| CompileDiag {
        function: func.to_string(),
        pass: "audit-leaks".into(),
        message,
    };
    if !sites.is_empty() {
        a.stats.leak_sites_flagged = sites.len() as u64;
        if !hooks.fence_leaks {
            let report: Vec<String> = sites.iter().map(|s| s.to_string()).collect();
            return Err((
                "audit-leaks".into(),
                format!("{} [{at}]", report.join("; ")),
            ));
        }
        let fences = specframe_machine::fence_func(&mut mf);
        a.stats.leak_fences_inserted = fences;
        let clean = specframe_machine::leak_audit_func(&mf).is_empty();
        warnings.extend(sites.iter().map(|s| diag(format!("{s} [{at}]"))));
        warnings.push(diag(format!(
            "fenced `{func}`: inserted {fences} speculation barrier(s); re-audit {}",
            if clean { "clean" } else { "STILL DIRTY" }
        )));
        if !clean {
            let why = format!("fencing failed to close every speculation window [{at}]");
            return Err(("audit-leaks".into(), why));
        }
    }
    a.t.audit_leaks = t0.elapsed();
    Ok(warnings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_ir::{parse_module, Value};
    use specframe_profile::{run, run_with, AliasProfiler, Collect};

    /// End-to-end semantic preservation: every configuration must compute
    /// what the unoptimized interpreter computes.
    fn check_all_modes(src: &str, entry: &str, args: &[Value]) {
        let m0 = parse_module(src).unwrap();
        let (expect, base_stats) = run(&m0, entry, args, 10_000_000).unwrap();

        // collect profiles on the prepared module
        let mut prepared = m0.clone();
        prepare_module(&mut prepared);
        let t = specframe_profile::train(&prepared, entry, args, 10_000_000, Collect::ALL).unwrap();
        let (aprof, eprof) = (t.alias.unwrap(), t.edges.unwrap());

        let configs: Vec<(&str, OptOptions)> = vec![
            ("baseline", OptOptions::default()),
            (
                "profile",
                OptOptions {
                    data: SpecSource::Profile(&aprof),
                    control: ControlSpec::Profile(&eprof),
                    strength_reduction: true,
                    lftr: true,
                    store_sinking: false,
                    target: Default::default(),
                },
            ),
            (
                "heuristic",
                OptOptions {
                    data: SpecSource::Heuristic,
                    control: ControlSpec::Static,
                    strength_reduction: true,
                    lftr: true,
                    store_sinking: false,
                    target: Default::default(),
                },
            ),
            (
                "aggressive",
                OptOptions {
                    data: SpecSource::Aggressive,
                    control: ControlSpec::Off,
                    strength_reduction: false,
                    lftr: false,
                    store_sinking: false,
                    target: Default::default(),
                },
            ),
        ];
        for (name, opts) in configs {
            let mut m = prepared.clone();
            let stats = optimize(&mut m, &opts);
            let (got, opt_stats) = run(&m, entry, args, 10_000_000)
                .unwrap_or_else(|e| panic!("{name}: optimized program failed: {e}"));
            assert_eq!(got, expect, "{name}: wrong result");
            let _ = (stats, opt_stats, base_stats);
        }
    }

    #[test]
    fn loop_with_global_promotes() {
        let src = r#"
global g: i64[1] = [5]

func f(n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@g]
  acc = add acc, v
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#;
        check_all_modes(src, "f", &[Value::I(25)]);
        // promotion effect: optimized baseline should do fewer dynamic loads
        let m0 = parse_module(src).unwrap();
        let (_, s0) = run(&m0, "f", &[Value::I(25)], 1_000_000).unwrap();
        let mut m = m0.clone();
        // loop-invariant promotion out of a while loop needs control
        // speculation (the paper's O3 ORC baseline has it: "the existing
        // SSAPRE in ORC already supports control speculation")
        optimize(
            &mut m,
            &OptOptions {
                control: ControlSpec::Static,
                ..Default::default()
            },
        );
        let (_, s1) = run(&m, "f", &[Value::I(25)], 1_000_000).unwrap();
        assert!(
            s1.loads < s0.loads,
            "promotion must cut loads: {} -> {}",
            s0.loads,
            s1.loads
        );
    }

    #[test]
    fn may_aliased_loop_needs_speculation() {
        // the paper's core scenario: a loop-invariant load may-aliased with
        // a store through a pointer that never actually aliases at run time
        // p may point at a or b (Steensgaard unifies them), but at run
        // time it only ever points at b — the paper's exact scenario
        let src = r#"
global a: i64[1] = [7]
global b: i64[1]

func smvp_like(p: ptr, n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@a]
  acc = add acc, v
  store.i64 [p], acc
  i = add i, 1
  jmp head
exit:
  ret acc
}

func main(n: i64) -> i64 {
  var r: i64
  var p: ptr
entry:
  br n, ub, ua
ua:
  p = @a
  jmp go
ub:
  p = @b
  jmp go
go:
  r = call smvp_like(p, n)
  ret r
}
"#;
        check_all_modes(src, "main", &[Value::I(30)]);

        // baseline cannot promote (store *p may alias a); profile mode can
        let m0 = parse_module(src).unwrap();
        let mut prepared = m0.clone();
        prepare_module(&mut prepared);
        let mut ap = AliasProfiler::new();
        run_with(&prepared, "main", &[Value::I(30)], 1_000_000, &mut ap).unwrap();
        let aprof = ap.finish();

        let mut base = prepared.clone();
        optimize(
            &mut base,
            &OptOptions {
                control: ControlSpec::Static,
                ..Default::default()
            },
        );
        let (_, sb) = run(&base, "main", &[Value::I(30)], 1_000_000).unwrap();

        let mut spec = prepared.clone();
        let st = optimize(
            &mut spec,
            &OptOptions {
                data: SpecSource::Profile(&aprof),
                control: ControlSpec::Static,
                strength_reduction: false,
                lftr: false,
                store_sinking: false,
                target: Default::default(),
            },
        );
        let (_, ss) = run(&spec, "main", &[Value::I(30)], 1_000_000).unwrap();
        assert!(st.data_spec_reloads > 0, "speculation must fire: {st:?}");
        assert!(
            ss.loads < sb.loads,
            "speculative promotion must cut loads: baseline {} spec {}",
            sb.loads,
            ss.loads
        );
    }

    #[test]
    fn redundant_expressions_eliminated() {
        let src = r#"
func f(a: i64, b: i64) -> i64 {
  var x: i64
  var y: i64
  var z: i64
entry:
  x = add a, b
  y = add a, b
  z = add x, y
  ret z
}
"#;
        check_all_modes(src, "f", &[Value::I(3), Value::I(4)]);
        let m0 = parse_module(src).unwrap();
        let mut m = m0.clone();
        let stats = optimize(&mut m, &OptOptions::default());
        assert!(stats.reloads >= 1, "a+b must be reloaded: {stats:?}");
    }

    #[test]
    fn diamond_partial_redundancy() {
        // classic PRE: a+b computed in one arm and after the merge
        let src = r#"
func f(a: i64, b: i64, sel: i64) -> i64 {
  var x: i64
  var y: i64
entry:
  br sel, have, nothave
have:
  x = add a, b
  jmp merge
nothave:
  x = 0
  jmp merge
merge:
  y = add a, b
  x = add x, y
  ret x
}
"#;
        check_all_modes(src, "f", &[Value::I(3), Value::I(4), Value::I(1)]);
        check_all_modes(src, "f", &[Value::I(3), Value::I(4), Value::I(0)]);
        let m0 = parse_module(src).unwrap();
        let mut m = m0.clone();
        let stats = optimize(&mut m, &OptOptions::default());
        // PRE must insert a+b on the nothave edge and reload at merge
        assert!(stats.insertions >= 1, "{stats:?}");
        assert!(stats.reloads >= 1, "{stats:?}");
    }

    #[test]
    fn injected_spec_failure_falls_back_to_nonspeculative() {
        // two functions; `kern`'s speculative compile is sabotaged — the
        // module must still compile, with `kern` recompiled non-
        // speculatively and a warning recorded; `other` is unaffected
        let src = r#"
global g: i64[1] = [5]

func kern(n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@g]
  acc = add acc, v
  i = add i, 1
  jmp head
exit:
  ret acc
}

func other(a: i64, b: i64) -> i64 {
  var x: i64
  var y: i64
entry:
  x = add a, b
  y = add a, b
  ret y
}
"#;
        let m0 = parse_module(src).unwrap();
        let (expect, _) = run(&m0, "kern", &[Value::I(20)], 1_000_000).unwrap();
        for jobs in [1, 4] {
            let mut m = m0.clone();
            let hooks = PipelineHooks {
                inject_spec_fail: Some("kern".into()),
                ..Default::default()
            };
            let opts = OptOptions {
                data: SpecSource::Heuristic,
                control: ControlSpec::Static,
                strength_reduction: true,
                lftr: true,
                store_sinking: false,
                target: Default::default(),
            };
            let (report, _) =
                try_optimize_cached(&mut m, &opts, &PipelineConfig { jobs }, &hooks, None)
                    .expect("fallback must rescue the module");
            assert_eq!(report.stats.spec_fallbacks, 1, "jobs={jobs}");
            assert_eq!(report.warnings.len(), 1, "jobs={jobs}");
            let w = &report.warnings[0];
            assert_eq!(w.function, "kern");
            assert_eq!(w.pass, "ssapre");
            assert!(
                w.message
                    .contains("injected speculative-compilation failure"),
                "{w}"
            );
            assert!(w.message.contains("recompiled without speculation"), "{w}");
            let (got, _) = run(&m, "kern", &[Value::I(20)], 1_000_000).unwrap();
            assert_eq!(got, expect, "jobs={jobs}: fallback output must run");
        }
    }

    #[test]
    fn injected_corruption_recovers_via_pass_rollback() {
        // corrupt kern's HSSA right after strength reduction: verify-each
        // must catch it, attribute it, and the ladder's rollback rung must
        // rescue the function by skipping just that pass — speculation and
        // the rest of the pipeline stay on
        let src = r#"
global g: i64[1] = [5]

func kern(n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@g]
  acc = add acc, v
  i = add i, 1
  jmp head
exit:
  ret acc
}

func other(a: i64, b: i64) -> i64 {
  var x: i64
entry:
  x = add a, b
  ret x
}
"#;
        let m0 = parse_module(src).unwrap();
        let (expect, _) = run(&m0, "kern", &[Value::I(20)], 1_000_000).unwrap();
        for jobs in [1, 4] {
            let mut m = m0.clone();
            let hooks = PipelineHooks {
                verify_each: true,
                inject_corrupt: Some(("kern".into(), Pass::Strength)),
                ..Default::default()
            };
            let opts = OptOptions {
                data: SpecSource::Heuristic,
                control: ControlSpec::Static,
                strength_reduction: true,
                lftr: true,
                store_sinking: false,
                target: Default::default(),
            };
            let (report, _) =
                try_optimize_cached(&mut m, &opts, &PipelineConfig { jobs }, &hooks, None)
                    .expect("rollback must rescue the module");
            assert_eq!(report.stats.pass_rollbacks, 1, "jobs={jobs}");
            assert_eq!(report.stats.spec_fallbacks, 0, "jobs={jobs}");
            assert_eq!(report.warnings.len(), 1, "jobs={jobs}");
            let w = &report.warnings[0];
            assert_eq!(w.function, "kern");
            assert_eq!(w.pass, "strength");
            assert!(w.message.contains("rolled back pass `strength`"), "{w}");
            assert!(w.message.contains("pass=strength fn=kern"), "{w}");
            let (got, _) = run(&m, "kern", &[Value::I(20)], 1_000_000).unwrap();
            assert_eq!(got, expect, "jobs={jobs}: rescued output must run");
        }
    }

    #[test]
    fn unskippable_corruption_degrades_to_nonspeculative() {
        // corruption injected after HSSA build poisons every speculative
        // attempt (hssa is not a skippable pass), so rung 1 fails for each
        // candidate and rung 2 — the non-speculative fallback, which the
        // injector leaves clean — must rescue the function
        let src = r#"
global g: i64[1] = [5]

func kern(n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@g]
  acc = add acc, v
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#;
        let m0 = parse_module(src).unwrap();
        let (expect, _) = run(&m0, "kern", &[Value::I(20)], 1_000_000).unwrap();
        let mut m = m0.clone();
        let hooks = PipelineHooks {
            verify_each: true,
            inject_corrupt: Some(("kern".into(), Pass::Hssa)),
            ..Default::default()
        };
        let (report, _) = try_optimize_cached(
            &mut m,
            &OptOptions {
                data: SpecSource::Heuristic,
                control: ControlSpec::Static,
                strength_reduction: true,
                lftr: true,
                store_sinking: false,
                target: Default::default(),
            },
            &PipelineConfig { jobs: 1 },
            &hooks,
            None,
        )
        .expect("fallback must rescue the module");
        assert_eq!(report.stats.pass_rollbacks, 0);
        assert_eq!(report.stats.spec_fallbacks, 1);
        assert_eq!(report.warnings.len(), 1);
        let w = &report.warnings[0];
        assert_eq!(w.function, "kern");
        assert_eq!(w.pass, "hssa");
        assert!(w.message.contains("recompiled without speculation"), "{w}");
        let (got, _) = run(&m, "kern", &[Value::I(20)], 1_000_000).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn audit_spec_accepts_speculative_output() {
        // the auditor must accept the pipeline's own speculative output:
        // heuristic data speculation over a may-aliased loop emits
        // ld.a/ld.c pairs, and --audit-spec proves the pairing contract
        let src = r#"
global a: i64[1] = [7]
global b: i64[1]

func kern(p: ptr, n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@a]
  acc = add acc, v
  store.i64 [p], i
  i = add i, 1
  jmp head
exit:
  ret acc
}

func main(sel: i64, n: i64) -> i64 {
  var r: i64
  var p: ptr
entry:
  br sel, ua, ub
ua:
  p = @a
  jmp go
ub:
  p = @b
  jmp go
go:
  r = call kern(p, n)
  ret r
}
"#;
        let mut m = parse_module(src).unwrap();
        let hooks = PipelineHooks {
            verify_each: true,
            audit_spec: true,
            ..Default::default()
        };
        let (report, _) = try_optimize_cached(
            &mut m,
            &OptOptions {
                data: SpecSource::Heuristic,
                control: ControlSpec::Static,
                strength_reduction: true,
                lftr: true,
                store_sinking: false,
                target: Default::default(),
            },
            &PipelineConfig { jobs: 1 },
            &hooks,
            None,
        )
        .expect("clean speculative output must pass the audit");
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert!(
            report.stats.checks > 0,
            "speculation must fire so the audit has checked loads to prove: {:?}",
            report.stats
        );
        assert!(report.timings.audit > std::time::Duration::ZERO);
        let (got, _) = run(&m, "main", &[Value::I(1), Value::I(10)], 1_000_000).unwrap();
        let m0 = parse_module(src).unwrap();
        let (expect, _) = run(&m0, "main", &[Value::I(1), Value::I(10)], 1_000_000).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn injected_fallback_failure_exhausts_recovery() {
        let src = r#"
func f(a: i64, b: i64) -> i64 {
  var x: i64
entry:
  x = add a, b
  ret x
}
"#;
        let mut m = parse_module(src).unwrap();
        let hooks = PipelineHooks {
            inject_spec_fail: Some("f".into()),
            inject_fallback_fail: Some("f".into()),
            ..Default::default()
        };
        let e = try_optimize_cached(
            &mut m,
            &OptOptions::default(),
            &PipelineConfig { jobs: 1 },
            &hooks,
            None,
        )
        .expect_err("both attempts sabotaged");
        assert_eq!(e.function, "f");
        assert!(e.fallback_exhausted, "{e}");
        assert!(
            e.message.contains("injected fallback-compilation failure"),
            "{e}"
        );
    }

    #[test]
    fn no_injection_means_no_warnings() {
        let src = r#"
func f(a: i64, b: i64) -> i64 {
  var x: i64
entry:
  x = add a, b
  ret x
}
"#;
        let mut m = parse_module(src).unwrap();
        let (report, _) = try_optimize_cached(
            &mut m,
            &OptOptions::default(),
            &PipelineConfig { jobs: 1 },
            &PipelineHooks::default(),
            None,
        )
        .unwrap();
        assert_eq!(report.stats.spec_fallbacks, 0);
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn mis_speculation_still_correct() {
        // profile lies: train with p = &b, run with p = &a (input
        // sensitivity, §1) — the check loads must keep the result correct
        let src = r#"
global a: i64[1] = [7]
global b: i64[1]

func kern(p: ptr, n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@a]
  acc = add acc, v
  store.i64 [p], i
  i = add i, 1
  jmp head
exit:
  ret acc
}

func main(sel: i64, n: i64) -> i64 {
  var r: i64
  var p: ptr
entry:
  br sel, ua, ub
ua:
  p = @a
  jmp go
ub:
  p = @b
  jmp go
go:
  r = call kern(p, n)
  ret r
}
"#;
        let m0 = parse_module(src).unwrap();
        let mut prepared = m0.clone();
        prepare_module(&mut prepared);
        // train on sel=0 (p=&b, no aliasing)
        let mut ap = AliasProfiler::new();
        run_with(
            &prepared,
            "main",
            &[Value::I(0), Value::I(10)],
            1_000_000,
            &mut ap,
        )
        .unwrap();
        let aprof = ap.finish();
        let mut spec = prepared.clone();
        optimize(
            &mut spec,
            &OptOptions {
                data: SpecSource::Profile(&aprof),
                ..Default::default()
            },
        );
        // deploy on sel=1 (p=&a: the weak update actually happens!)
        let (expect, _) = run(&prepared, "main", &[Value::I(1), Value::I(10)], 1_000_000).unwrap();
        let (got, _) = run(&spec, "main", &[Value::I(1), Value::I(10)], 1_000_000).unwrap();
        assert_eq!(got, expect, "mis-speculated run must still be correct");
    }
}
