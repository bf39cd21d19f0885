//! One-call compile sessions over the speculative pipeline.
//!
//! `specc` and the `spectest` golden-test runner both need the same
//! sequence — parse, verify, prepare, (optionally) profile on a training
//! input, then run [`specframe_core::try_optimize_cached`] — with the
//! same flag vocabulary. This module is that shared seam: [`parse_flags`]
//! reads the flags both front ends accept into a typed [`CompileRequest`]
//! (plus the [`SimOptions`] of `--sim`), so a `; RUN: specc …` line in a
//! golden test exercises exactly the code path the CLI does, without
//! spawning a subprocess.
//!
//! Failures are classified by [`CompileFailure`] so the CLI can exit with
//! a distinct code per family (usage 1, parse 2, compile 3, exhausted
//! speculation recovery 4, deadline exceeded 5), and the simulator
//! rendering shared by `specc --sim` and golden tests lives in
//! [`simulate_text`].

use specframe_alias::AliasAnalysis;
use specframe_analysis::FuncAnalyses;
use specframe_codegen::lower_module_for;
use specframe_core::{
    cancel::Watchdog, prepare_module, target_spec_costs, try_optimize_cached, CacheHealth,
    CancelToken, CompileDiag, CompileError, ControlSpec, FuncCache, OptOptions, OptReport, Pass,
    PassDump, PassSet, PipelineConfig, PipelineHooks, SpecSource, StoreFaultPolicy,
};
use specframe_hssa::{build_hssa, refine_function, HOperand, HStmtKind, Likeliness, SiteQuery};
use specframe_ir::{parse_module, verify_module, FuncId, Module, Ty, Value};
use specframe_machine::{
    fence_program, leak_audit_program, parse_fault_policy, run_machine_taint_on,
    run_machine_with_policy_on, witness_leaks_on, Counters, FaultPolicy, LeakEvent, TargetId,
};
use specframe_profile::{parse_alias_profile, train, AliasProfile, Collect, InterpError, Training};

/// Where data-speculation likeliness comes from (`--spec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecKind {
    /// No data speculation: the O3 baseline.
    None,
    /// Alias-profile guided (§3.2.1): a training run, or a saved profile.
    Profile,
    /// Heuristic rules (§3.2.2).
    Heuristic,
    /// Ignore all may-aliases — the §5.3 upper-bound estimator.
    Aggressive,
}

/// The `--spec` vocabulary.
const SPEC_KINDS: [(&str, SpecKind); 4] = [
    ("none", SpecKind::None),
    ("profile", SpecKind::Profile),
    ("heuristic", SpecKind::Heuristic),
    ("aggressive", SpecKind::Aggressive),
];

impl SpecKind {
    /// The optimizer's data-speculation source for this choice. `profile`
    /// is the alias profile a [`SpecKind::Profile`] compile collected or
    /// loaded; the other kinds ignore it.
    fn source(self, profile: Option<&AliasProfile>) -> SpecSource<'_> {
        match self {
            SpecKind::None => SpecSource::None,
            SpecKind::Profile => {
                SpecSource::Profile(profile.expect("a profile-guided compile has its profile"))
            }
            SpecKind::Heuristic => SpecSource::Heuristic,
            SpecKind::Aggressive => SpecSource::Aggressive,
        }
    }
}

/// Where control-speculation likeliness comes from (`--control`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ControlKind {
    /// No control speculation.
    Off,
    /// Edge-profile guided: needs a training run.
    Profile,
    /// Ball–Larus-style static heuristics.
    Static,
}

/// The `--control` vocabulary.
const CONTROL_KINDS: [(&str, ControlKind); 3] = [
    ("off", ControlKind::Off),
    ("profile", ControlKind::Profile),
    ("static", ControlKind::Static),
];

/// Everything a compile session needs besides the program text, typed:
/// the flag values were parsed where they entered ([`parse_flags`]).
#[derive(Debug, Clone)]
pub struct CompileRequest {
    /// Entry function for profiling runs (`--entry`).
    pub entry: String,
    /// Reference arguments (`--args`); also the training arguments unless
    /// [`CompileRequest::train_args`] overrides them.
    pub args: Vec<Value>,
    /// Training-run arguments (`--train-args`); `None` means use `args`.
    pub train_args: Option<Vec<Value>>,
    /// Data speculation source (`--spec`).
    pub spec: SpecKind,
    /// Control speculation source (`--control`).
    pub control: ControlKind,
    /// Run strength reduction (off with `--no-sr`, which also disables
    /// LFTR — it consumes strength reduction's temporaries).
    pub strength_reduction: bool,
    /// Run store promotion (`--store-sinking`).
    pub store_sinking: bool,
    /// Worker threads (`--jobs`, 0 = auto).
    pub jobs: usize,
    /// Snapshot/stop requests (`--dump-after` / `--stop-after`), the
    /// verification and audit switches, and fault injection
    /// (`--inject-spec-fail` / `--inject-fallback-fail` / `--inject-corrupt`).
    pub hooks: PipelineHooks,
    /// Interpreter fuel for profiling runs.
    pub fuel: u64,
    /// Serialized alias profile (`--alias-profile` file contents). Used
    /// instead of a training run when `spec` is `profile`; if it does not
    /// parse against the module, the compile *degrades* to the `heuristic`
    /// rules with a [`CompileDiag`] warning rather than failing — a stale
    /// or corrupted profile must never block compilation.
    pub alias_profile: Option<String>,
    /// Render the per-site likeliness-oracle decision table
    /// (`--explain-spec`) into [`CompileOutput::explain`].
    pub explain_spec: bool,
    /// Persistent compile-cache directory (`--cache-dir` /
    /// `SPECFRAME_CACHE_DIR`). `None` disables caching. Hits replay stored
    /// lowerings; output stays byte-identical to an uncached compile.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Storage fault injection over the cache backend
    /// (`--cache-fault-policy`, e.g. `enospc:3` / `eio-read:7:2` /
    /// `torn-write:2` / `latency:5`). Module output stays byte-identical
    /// under every policy; only the fault counters (and wall time) move.
    pub cache_fault_policy: Option<StoreFaultPolicy>,
    /// Session-wide cache circuit breaker. Cloning a request shares it,
    /// which is exactly what the serve loop wants: once storage proves
    /// broken, every later request in the session compiles cache-off
    /// instead of rediscovering the failure.
    pub cache_health: std::sync::Arc<CacheHealth>,
    /// Per-request compile deadline in milliseconds (`--deadline-ms`).
    /// Enforced cooperatively at pass boundaries and between functions; an
    /// exceeded deadline fails the compile with exit/service code 5 and
    /// writes no cache entries.
    pub deadline_ms: Option<u64>,
    /// Execution target (`--target`). Selects how checks are lowered and
    /// the cost model the profitability oracle weighs, so the same input
    /// can motion differently per target.
    pub target: TargetId,
}

/// The golden RUN-line defaults: no speculation, one worker thread.
impl Default for CompileRequest {
    fn default() -> Self {
        CompileRequest {
            entry: "main".into(),
            args: Vec::new(),
            train_args: None,
            spec: SpecKind::None,
            control: ControlKind::Off,
            strength_reduction: true,
            store_sinking: false,
            jobs: 1,
            hooks: PipelineHooks::default(),
            fuel: 100_000_000,
            alias_profile: None,
            explain_spec: false,
            cache_dir: None,
            cache_fault_policy: None,
            cache_health: std::sync::Arc::new(CacheHealth::default()),
            deadline_ms: None,
            target: TargetId::Epic,
        }
    }
}

impl CompileRequest {
    /// The arguments a training run uses.
    fn training_args(&self) -> &[Value] {
        self.train_args.as_deref().unwrap_or(&self.args)
    }

    /// The profiles the compile's training run collects: an alias profile
    /// under `--spec profile` without `--alias-profile`, and an edge
    /// profile under `--control profile` when the compile reaches SSAPRE,
    /// the one pass that reads it (the HSSA form does not). A compile that
    /// collects neither runs no training run.
    pub fn collects(&self) -> Collect {
        Collect {
            alias: self.spec == SpecKind::Profile && self.alias_profile.is_none(),
            edges: self.control == ControlKind::Profile && self.hooks.runs(Pass::Ssapre),
        }
    }

    /// Whether the compile runs a training run on its own arguments: it
    /// [`collects`](CompileRequest::collects) a profile, and the training
    /// arguments are `args`, bit for bit. Observers only watch a run, so
    /// that run is also the reference run on `args`: [`compile_module`]
    /// then returns its result as [`CompileOutput::reference`], and `specc`
    /// runs no reference run of its own.
    pub fn trains_on_own_args(&self) -> bool {
        let Collect { alias, edges } = self.collects();
        // bitwise, so `-0.0` is not `0.0`
        let (train, args) = (self.training_args(), self.args.as_slice());
        (alias || edges)
            && train.len() == args.len()
            && train.iter().zip(args).all(|(a, b)| a.bits_eq(*b))
    }

    /// Degrades the profile-guided modes to their self-contained
    /// counterparts — heuristic rules for data speculation, static branch
    /// estimates for control speculation — for inputs that cannot supply a
    /// training run (the synthetic mega-module, or a service session
    /// started without arguments).
    pub fn degrade_without_training(&mut self) {
        if self.spec == SpecKind::Profile {
            self.spec = SpecKind::Heuristic;
        }
        if self.control == ControlKind::Profile {
            self.control = ControlKind::Static;
        }
    }
}

/// How `--sim` runs the optimized module; shared by `specc --sim` and
/// golden RUN lines. Target, entry, arguments, fuel and leak fencing come
/// from the [`CompileRequest`] beside it.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// ALAT fault policies (`--fault-policy`, repeatable; `default` when
    /// none is given), one counter block each.
    pub fault_policies: Vec<FaultPolicy>,
    /// Secret locations (`--taint-secret LOC[,LOC...]`). Non-empty
    /// switches the simulator into taint mode (leak counters and per-site
    /// leak lines appear in the output).
    pub taint_secret: Vec<SecretLoc>,
}

/// One `--taint-secret` location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SecretLoc {
    /// `@name`: every word of that global is secret. The name resolves
    /// against the module at simulation time.
    Global(String),
    /// A bare integer: that one word address is secret.
    Addr(i64),
}

impl SecretLoc {
    /// Parses `@name` or a word address.
    fn parse(s: &str) -> Result<SecretLoc, String> {
        match s.strip_prefix('@') {
            Some(name) if !name.is_empty() => Ok(SecretLoc::Global(name.to_string())),
            _ => s.parse().map(SecretLoc::Addr).map_err(|_| {
                format!("--taint-secret: expected `@global` or a word address, got `{s}`")
            }),
        }
    }
}

/// A compile request plus the simulation riding on it: what the flag
/// vocabulary `specc` and golden RUN lines share sets.
#[derive(Debug, Clone)]
pub struct Invocation {
    /// The compile half.
    pub req: CompileRequest,
    /// `--sim` with its options; `None` without `--sim`.
    pub sim: Option<SimOptions>,
}

/// Looks `value` up in `flag`'s vocabulary; an unknown value is a usage
/// error that lists the known ones.
///
/// # Errors
/// `unknown FLAG `VALUE` (expected A|B|…)`.
pub fn choose<T: Copy>(flag: &str, value: &str, vocabulary: &[(&str, T)]) -> Result<T, String> {
    match vocabulary.iter().find(|(name, _)| *name == value) {
        Some(&(_, t)) => Ok(t),
        None => {
            let names: Vec<&str> = vocabulary.iter().map(|(name, _)| *name).collect();
            Err(format!(
                "unknown {flag} `{value}` (expected {})",
                names.join("|")
            ))
        }
    }
}

/// Parses a value list of the `--args 0,100` form.
fn parse_values(s: &str) -> Result<Vec<Value>, String> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(',')
        .map(|t| {
            let t = t.trim();
            if t.contains('.') {
                t.parse::<f64>()
                    .map(Value::F)
                    .map_err(|e| format!("bad float `{t}`: {e}"))
            } else {
                t.parse::<i64>()
                    .map(Value::I)
                    .map_err(|e| format!("bad int `{t}`: {e}"))
            }
        })
        .collect()
}

/// Parses a count-valued flag's value.
fn number<T: std::str::FromStr<Err = std::num::ParseIntError>>(
    flag: &str,
    v: String,
) -> Result<T, String> {
    v.parse().map_err(|e| format!("bad {flag}: {e}"))
}

/// Parses the flag vocabulary `specc` and golden RUN lines share, over
/// `base` (each front end's defaults): `--entry`, `--args`,
/// `--train-args`, `--spec`, `--control`, `--target`, `--no-sr`,
/// `--store-sinking`, `--jobs`, `--fuel`, `--dump-after`, `--stop-after`,
/// `--verify-each`, `--audit-spec`, `--audit-leaks`, `--fence-leaks`,
/// `--inject-spec-fail`, `--inject-fallback-fail`, `--inject-corrupt`,
/// `--sim`, `--fault-policy` and `--taint-secret`. A flag's value is the
/// next token, or follows `=` in the same token (`--target=swr`). Every
/// other token is returned, in order, for the front end's own flags.
///
/// # Errors
/// A usage message: an unknown, malformed or missing value, a value given
/// to a switch, or `--fault-policy` / `--taint-secret` without `--sim`.
pub fn parse_flags(
    base: CompileRequest,
    tokens: impl IntoIterator<Item = String>,
) -> Result<(Invocation, Vec<String>), String> {
    let mut req = base;
    let (mut sim, mut fault_policies, mut taint_secret) = (false, Vec::new(), Vec::new());
    let mut rest = Vec::new();
    let mut tokens = tokens.into_iter();
    while let Some(tok) = tokens.next() {
        let (flag, inline) = match tok.split_once('=') {
            Some((flag, v)) if flag.starts_with("--") => (flag, Some(v)),
            _ => (tok.as_str(), None),
        };
        let mut value = || -> Result<String, String> {
            match inline {
                Some(v) => Ok(v.to_string()),
                None => tokens.next().ok_or_else(|| format!("{flag} needs a value")),
            }
        };
        let switch = |on: &mut bool, to: bool| match inline {
            Some(_) => Err(format!("{flag} takes no value")),
            None => {
                *on = to;
                Ok(())
            }
        };
        let hooks = &mut req.hooks;
        match flag {
            "--entry" => req.entry = value()?,
            "--args" => req.args = parse_values(&value()?)?,
            "--train-args" => req.train_args = Some(parse_values(&value()?)?),
            "--spec" => req.spec = choose(flag, &value()?, &SPEC_KINDS)?,
            "--control" => req.control = choose(flag, &value()?, &CONTROL_KINDS)?,
            "--target" => {
                req.target = choose(flag, &value()?, &TargetId::ALL.map(|t| (t.name(), t)))?
            }
            "--jobs" => req.jobs = number(flag, value()?)?,
            "--fuel" => req.fuel = number(flag, value()?)?,
            "--no-sr" => switch(&mut req.strength_reduction, false)?,
            "--store-sinking" => switch(&mut req.store_sinking, true)?,
            "--dump-after" => hooks.dump_after = PassSet::parse_list(&value()?)?,
            "--stop-after" => hooks.stop_after = Some(value()?.parse()?),
            "--verify-each" => switch(&mut hooks.verify_each, true)?,
            "--audit-spec" => switch(&mut hooks.audit_spec, true)?,
            "--audit-leaks" => switch(&mut hooks.audit_leaks, true)?,
            "--fence-leaks" => switch(&mut hooks.fence_leaks, true)?,
            "--inject-spec-fail" => hooks.inject_spec_fail = Some(value()?),
            "--inject-fallback-fail" => hooks.inject_fallback_fail = Some(value()?),
            "--inject-corrupt" => {
                hooks.inject_corrupt = Some(PipelineHooks::parse_inject_corrupt(&value()?)?)
            }
            "--sim" => switch(&mut sim, true)?,
            "--fault-policy" => fault_policies.push(parse_fault_policy(&value()?)?),
            // `LOC[,LOC...]`; empty locations are dropped
            "--taint-secret" => {
                for loc in value()?.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                    taint_secret.push(SecretLoc::parse(loc)?);
                }
            }
            _ => rest.push(tok.clone()),
        }
    }
    if !sim {
        if !fault_policies.is_empty() {
            return Err("--fault-policy requires --sim".into());
        }
        if !taint_secret.is_empty() {
            return Err("--taint-secret requires --sim".into());
        }
    }
    if fault_policies.is_empty() {
        fault_policies.push(FaultPolicy::default());
    }
    let sim = sim.then_some(SimOptions {
        fault_policies,
        taint_secret,
    });
    Ok((Invocation { req, sim }, rest))
}

/// A failed compile session, classified for exit-code purposes.
#[derive(Debug, Clone)]
pub enum CompileFailure {
    /// Bad invocation: unknown flag value, missing entry function,
    /// unreadable input file. Exit code 1.
    Usage(String),
    /// The input program did not parse or verify. Exit code 2.
    Parse(String),
    /// The pipeline itself failed — profiling run error, internal pass
    /// failure, or a result mismatch against the reference interpreter.
    /// Exit code 3, or 4 when even the non-speculative recompile of some
    /// function failed ([`CompileError::fallback_exhausted`]).
    Compile(CompileError),
}

impl CompileFailure {
    /// The process exit code for this failure family.
    pub fn exit_code(&self) -> u8 {
        match self {
            CompileFailure::Usage(_) => 1,
            CompileFailure::Parse(_) => 2,
            CompileFailure::Compile(e) if e.fallback_exhausted => 4,
            CompileFailure::Compile(e) if e.is_deadline() => 5,
            CompileFailure::Compile(_) => 3,
        }
    }

    /// Whether this is a failed reference run ([`reference_run_failed`]):
    /// the input itself does not run on the request's arguments.
    pub fn is_reference_run(&self) -> bool {
        matches!(self, CompileFailure::Compile(e) if e.pass == REFERENCE_RUN)
    }

    /// Wraps a pipeline-level error that is not tied to one function.
    pub fn internal(pass: &str, message: String) -> Self {
        CompileFailure::Compile(CompileError {
            function: String::new(),
            pass: pass.to_string(),
            message,
            fallback_exhausted: false,
        })
    }
}

impl std::fmt::Display for CompileFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileFailure::Usage(m) | CompileFailure::Parse(m) => f.write_str(m),
            CompileFailure::Compile(e) => write!(f, "{e}"),
        }
    }
}

impl From<CompileError> for CompileFailure {
    fn from(e: CompileError) -> Self {
        CompileFailure::Compile(e)
    }
}

impl From<CompileFailure> for String {
    fn from(e: CompileFailure) -> Self {
        e.to_string()
    }
}

/// A finished compile session.
#[derive(Debug)]
pub struct CompileOutput {
    /// The optimized module.
    pub module: Module,
    /// Optimizer statistics, per-pass timings and degradation warnings.
    pub report: OptReport,
    /// Snapshots requested via [`PipelineHooks::dump_after`], in function
    /// then pipeline order (render with [`specframe_core::render_dumps`]).
    pub dumps: Vec<PassDump>,
    /// The alias profile the compile used, when one was collected by a
    /// training run or supplied via [`CompileRequest::alias_profile`] —
    /// what `specc --save-alias-profile` serializes. `None` when the
    /// compile's data speculation read no profile.
    pub alias_profile: Option<AliasProfile>,
    /// The reference run on the request's arguments, as
    /// [`specframe_profile::run`] returns it, when the compile's training
    /// run was that run ([`CompileRequest::trains_on_own_args`]).
    pub reference: Option<(Option<Value>, specframe_profile::RunStats)>,
    /// The `--explain-spec` decision table, when requested: one line per
    /// χ/μ-carrying site with the oracle's source, evidence and the
    /// flagged counts.
    pub explain: Option<String>,
}

/// Parses, verifies and [`compile_module`]s `src`.
pub fn compile(src: &str, req: &CompileRequest) -> Result<CompileOutput, CompileFailure> {
    let m = parse_module(src).map_err(|e| CompileFailure::Parse(e.to_string()))?;
    verify_module(&m).map_err(|e| CompileFailure::Parse(e.to_string()))?;
    compile_module(m, req)
}

/// The pass a failed reference run reports.
const REFERENCE_RUN: &str = "reference-run";

/// The failure of a reference run on the request's arguments, or of the
/// training run standing in for it: pass `reference-run`, exit code 3.
pub fn reference_run_failed(e: &InterpError) -> CompileFailure {
    CompileFailure::internal(REFERENCE_RUN, format!("reference run failed: {e}"))
}

/// The training run of a profile-guided compile: the request's entry on
/// its training arguments, collecting the profiles `collect` names. When it
/// runs on the request's own arguments it is the reference run as well, and
/// fails as one.
fn training_run(
    m: &Module,
    req: &CompileRequest,
    collect: Collect,
) -> Result<Training, CompileFailure> {
    if m.func_by_name(&req.entry).is_none() {
        return Err(CompileFailure::Usage(format!(
            "profile-guided compile needs entry function `{}`",
            req.entry
        )));
    }
    train(m, &req.entry, req.training_args(), req.fuel, collect).map_err(|e| {
        if req.trains_on_own_args() {
            reference_run_failed(&e)
        } else {
            CompileFailure::internal("profile", format!("profiling run failed: {e}"))
        }
    })
}

/// The data speculation a compile of `m` under `req` runs, and the alias
/// profile it was given: under `--spec profile`, the `--alias-profile`
/// text parsed against `m`, or no profile when the compile must train one.
/// A profile that does not parse degrades the compile to the heuristic
/// rules, with the warning it returns.
fn given_alias_profile(
    m: &Module,
    req: &CompileRequest,
) -> (SpecKind, Option<AliasProfile>, Option<CompileDiag>) {
    let (SpecKind::Profile, Some(text)) = (req.spec, &req.alias_profile) else {
        return (req.spec, None, None);
    };
    match parse_alias_profile(text, m) {
        Ok(p) => (SpecKind::Profile, Some(p), None),
        // §3.2: without a usable profile the framework falls back to the
        // speculative alias heuristics.
        Err(e) => {
            let warning = CompileDiag {
                function: String::new(),
                pass: "alias-profile".into(),
                message: format!(
                    "alias profile unusable ({e}); falling back to heuristic speculation rules"
                ),
            };
            (SpecKind::Heuristic, None, Some(warning))
        }
    }
}

/// Runs the speculative pipeline over an already-verified module:
/// critical-edge preparation, alias-profile ingestion or a profiling
/// interpreter run when a profile-guided mode is requested, then the
/// optimizer with the requested hooks.
pub fn compile_module(
    mut m: Module,
    req: &CompileRequest,
) -> Result<CompileOutput, CompileFailure> {
    prepare_module(&mut m);
    let (spec, mut aprof, warning) = given_alias_profile(&m, req);

    // per-request deadline: a cooperative token on the hooks, plus a
    // watchdog thread that trips it the moment the clock runs out (joined
    // on drop, so an in-time compile leaves nothing behind). The token is
    // not part of the cache key — deadlines never change output bytes.
    let mut hooks = req.hooks.clone();
    if let Some(ms) = req.deadline_ms {
        hooks.cancel = CancelToken::deadline_in(std::time::Duration::from_millis(ms));
    }
    let _watchdog = Watchdog::arm(&hooks.cancel);

    // profiling run, when a profile-guided mode still needs one; it
    // collects only the profiles this compile reads
    let collect = req.collects();
    let (mut eprof, mut reference) = (None, None);
    if collect.alias || collect.edges {
        let t = training_run(&m, req, collect)?;
        aprof = aprof.or(t.alias);
        eprof = t.edges;
        reference = req.trains_on_own_args().then_some((t.result, t.stats));
    }
    // the training run polls no token and predates the first pass
    // boundary; gate here so the deadline covers it
    if hooks.cancel.cancelled() {
        return Err(CompileFailure::Compile(CompileError::deadline("")));
    }
    let data = spec.source(aprof.as_ref());
    let control = match req.control {
        ControlKind::Off => ControlSpec::Off,
        // no edge profile when the compile stops before SSAPRE reads one
        ControlKind::Profile => eprof
            .as_ref()
            .map_or(ControlSpec::Off, ControlSpec::Profile),
        ControlKind::Static => ControlSpec::Static,
    };

    // the decision table reflects construction-time verdicts, so render it
    // on the prepared module before the optimizer consumes the flags
    let explain = req
        .explain_spec
        .then(|| render_explain_spec(&m, data, req.target));

    let fcache = req.cache_dir.as_ref().map(|dir| {
        let c = FuncCache::open(dir).with_health(std::sync::Arc::clone(&req.cache_health));
        match req.cache_fault_policy {
            Some(policy) => c.with_fault_policy(policy),
            None => c,
        }
    });
    let (mut report, dumps) = try_optimize_cached(
        &mut m,
        &OptOptions {
            data,
            control,
            strength_reduction: req.strength_reduction,
            lftr: req.strength_reduction,
            store_sinking: req.store_sinking,
            target: req.target,
        },
        &PipelineConfig { jobs: req.jobs },
        &hooks,
        fcache.as_ref(),
    )?;
    // a degradation raised before the optimizer ran comes first
    if let Some(w) = warning {
        report.warnings.insert(0, w);
    }
    Ok(CompileOutput {
        module: m,
        report,
        dumps,
        alias_profile: aprof,
        reference,
        explain,
    })
}

/// Renders the `--explain-spec` table: for every χ/μ-carrying site of
/// every function, the likeliness oracle's verdict evidence and how many
/// of the site's χs/μs were flagged likely. Functions in module order,
/// sites in block/statement order, so the output is deterministic. Each
/// function's form is the one the optimizer reads, after refinement.
pub fn render_explain_spec(m: &Module, source: SpecSource<'_>, target: TargetId) -> String {
    let aa = AliasAnalysis::analyze(m);
    let costs = target_spec_costs(target);
    let oracle = Likeliness::with_costs(source, costs);
    let mut s = format!(
        "=== speculation decisions (source: {}, target: {}) ===\n",
        oracle.source_name(),
        target.name()
    );
    // the per-type profitability verdicts the kernel gates speculation on:
    // a load only speculates when its latency beats the check overhead
    let verdict = |ty: Ty| {
        if costs.profitable(ty) {
            "speculate"
        } else {
            "keep"
        }
    };
    s.push_str(&format!(
        "profitability (check {}c): i64 load {}c -> {}, f64 load {}c -> {}\n",
        costs.check_cost,
        costs.int_load,
        verdict(Ty::I64),
        costs.fp_load,
        verdict(Ty::F64),
    ));
    for fi in 0..m.funcs.len() {
        let fid = FuncId::from_index(fi);
        // the form the optimizer reads: built, refined, and rebuilt only if
        // refinement folded a pointer base
        let mut f = m.func(fid).clone();
        let fa = FuncAnalyses::compute(&f);
        let mut hf = build_hssa(&m.globals, &f, fid, &aa, &oracle, &fa);
        if refine_function(&mut f, &hf) > 0 {
            hf = build_hssa(&m.globals, &f, fid, &aa, &oracle, &fa);
        }
        let ev = oracle.scan(&f);
        s.push_str(&format!("func {}:\n", f.name));
        let mut any = false;
        for (bi, blk) in hf.blocks.iter().enumerate() {
            for stmt in &blk.stmts {
                if stmt.chi.is_empty() && stmt.mu.is_empty() {
                    continue;
                }
                // the headline decision per site kind: a store's χ over its
                // access class, a load's μ over its class, a call's kept μs
                let (label, why) = match &stmt.kind {
                    HStmtKind::Store {
                        base, offset, site, ..
                    } => {
                        let syntax = match base {
                            HOperand::Reg(v, _) => Some((*v, *offset)),
                            _ => None,
                        };
                        let v = oracle.verdict(
                            &ev,
                            SiteQuery::StoreChiVirt {
                                site: *site,
                                syntax,
                            },
                        );
                        (format!("mem site {:>3} (store, block {bi})", site.0), v.why)
                    }
                    HStmtKind::Load { site, .. } | HStmtKind::CheckLoad { site, .. } => {
                        let v = oracle.verdict(&ev, SiteQuery::LoadMuVirt { site: *site });
                        (format!("mem site {:>3} (load, block {bi})", site.0), v.why)
                    }
                    HStmtKind::Call { site, .. } => {
                        let v = oracle.verdict(&ev, SiteQuery::CallMuVirt);
                        (format!("call site {:>2} (block {bi})", site.0), v.why)
                    }
                    _ => continue,
                };
                let chi_f = stmt.chi.iter().filter(|c| c.likely).count();
                let mu_f = stmt.mu.iter().filter(|u| u.likely).count();
                s.push_str(&format!(
                    "  {label}: {chi_f}/{} chi flagged, {mu_f}/{} mu flagged — {}\n",
                    stmt.chi.len(),
                    stmt.mu.len(),
                    why.describe()
                ));
                any = true;
            }
        }
        if !any {
            s.push_str("  (no speculative sites)\n");
        }
    }
    s
}

/// Shrinks a failing module to a minimal reproducer (`specc --reduce`,
/// `fuzzdiff --reduce-on-failure`).
///
/// The reduction predicate re-runs the compile session on every candidate
/// and accepts it only when it fails in the *same class* as `original`
/// — same exit-code family and same failing pass — so the reducer cannot
/// drift onto a different bug. For result-mismatch failures (`original`
/// names the `run`/`sim` pass), set `run_check`: candidates then must
/// compile cleanly and *diverge* from the reference interpreter on the
/// request's entry and arguments, the divergence being the preserved
/// failure. A candidate compile that trained on those arguments already
/// ran the reference interpreter ([`CompileOutput::reference`]); the
/// others get a reference run of their own.
pub fn reduce_failure(
    m: &Module,
    req: &CompileRequest,
    original: &CompileFailure,
    run_check: bool,
) -> (Module, specframe_core::ReduceStats) {
    let code = original.exit_code();
    let (orig_pass, is_miscompile) = match original {
        CompileFailure::Compile(e) => (e.pass.clone(), matches!(e.pass.as_str(), "run" | "sim")),
        _ => (String::new(), false),
    };
    let mut pred = |cand: &Module| -> bool {
        // a candidate that no longer verifies fails for a different
        // reason than the original — reject it
        if verify_module(cand).is_err() {
            return false;
        }
        match compile_module(cand.clone(), req) {
            Err(e) => {
                !is_miscompile
                    && e.exit_code() == code
                    && match &e {
                        CompileFailure::Compile(ce) => ce.pass == orig_pass,
                        _ => true,
                    }
            }
            Ok(out) => {
                if !(run_check && is_miscompile) {
                    return false;
                }
                let run = |m: &Module| specframe_profile::run(m, &req.entry, &req.args, req.fuel);
                let reference = out.reference.map(Ok).unwrap_or_else(|| {
                    let mut reference = cand.clone();
                    prepare_module(&mut reference);
                    run(&reference)
                });
                match (reference, run(&out.module)) {
                    (Ok((want, _)), Ok((got, _))) => want != got,
                    _ => false,
                }
            }
        }
    };
    specframe_core::reduce_module(m, &mut pred)
}

/// Lowers `m` for the request's target — through the machine-level
/// leak-fencing transform under `--fence-leaks`, so the inserted barriers
/// and their cycle cost show in the counters — simulates the request's
/// entry on its arguments under ALAT fault `policy`, and renders the
/// `--sim` counter block. With `--taint-secret` locations or fencing, the
/// simulator runs in taint mode and the taint counter rows and per-site
/// leak lines follow the ordinary block, whose pinned layout never
/// changes. Returns the machine result and the text; `specc` prints it to
/// stderr and golden tests CHECK it directly, so the two can never drift
/// apart.
pub fn simulate_text(
    m: &Module,
    req: &CompileRequest,
    sim: &SimOptions,
    policy: &FaultPolicy,
) -> Result<(Option<Value>, String), CompileFailure> {
    let name = policy.name();
    let target = req.target.spec();
    let (entry, args) = (req.entry.as_str(), req.args.as_slice());
    let failed = |e: specframe_machine::SimError| {
        CompileFailure::internal("simulate", format!("simulation failed: {e}"))
    };
    let mut prog = lower_module_for(m, target);
    if sim.taint_secret.is_empty() && !req.hooks.fence_leaks {
        let (got, c) = run_machine_with_policy_on(&prog, target, entry, args, req.fuel, policy)
            .map_err(failed)?;
        return Ok((got, render_sim_counters(&name, got, &c)));
    }
    let secrets = resolve_secret_locs(m, &sim.taint_secret)?;
    if req.hooks.fence_leaks {
        fence_program(&mut prog);
    }
    let rep = run_machine_taint_on(&prog, target, entry, args, req.fuel, policy, &secrets)
        .map_err(failed)?;
    let mut text = render_sim_counters(&name, rep.result, &rep.counters);
    text.push_str(&render_taint_counters(&rep.counters, &rep.events));
    Ok((rep.result, text))
}

/// Resolves `--taint-secret` locations against a module's global layout:
/// `@name` expands to every word address of that global.
fn resolve_secret_locs(m: &Module, locs: &[SecretLoc]) -> Result<Vec<i64>, CompileFailure> {
    let layout = m.global_layout();
    let mut out = Vec::new();
    for loc in locs {
        match loc {
            SecretLoc::Addr(addr) => out.push(*addr),
            SecretLoc::Global(name) => {
                let Some(gi) = m.globals.iter().position(|g| &g.name == name) else {
                    return Err(CompileFailure::Usage(format!(
                        "--taint-secret: unknown global `@{name}`"
                    )));
                };
                out.extend((0..i64::from(m.globals[gi].words)).map(|w| layout[gi] + w));
            }
        }
    }
    Ok(out)
}

/// The taint-mode extension of the `--sim` counter block: the leak/fence
/// counters in the same `name = value` layout, then one `leak:` line per
/// distinct dynamic taint-to-sink site. Kept out of
/// [`render_sim_counters`] so the plain counter block — pinned by
/// existing golden tests — keeps its exact shape.
pub fn render_taint_counters(c: &Counters, events: &[LeakEvent]) -> String {
    let mut s = String::new();
    {
        let mut line = |k: &str, v: String| s.push_str(&format!("{k:<21}= {v}\n"));
        line("fences retired", c.fences_retired.to_string());
        line("taint loads", c.taint_loads.to_string());
        line("leak addr events", c.leak_addr_events.to_string());
        line("leak branch events", c.leak_branch_events.to_string());
        line("secret leak events", c.leak_secret_events.to_string());
    }
    for ev in events {
        s.push_str(&format!(
            "leak: {}@{}: speculative value from r{} reached {} sink{}\n",
            ev.func,
            ev.at,
            ev.origin,
            ev.sink,
            if ev.secret { " (secret)" } else { "" }
        ));
    }
    s
}

/// Renders adversarial-eviction witnesses for every static leak site in
/// the (unfenced) lowering of `m` for the request's target, run on its
/// entry and arguments: each flagged site is driven into actual
/// misspeculation by a seeded forced-eviction schedule constructed from a
/// probe run, or refuted when no schedule can reach it. The emitted
/// `evict-at:N` policy string is replayable via `--fault-policy`, so a
/// leak repro shrinks to a `.spec`-ready case with `specc --reduce` plus
/// one `--sim` run. Empty string when the lowering audits clean.
pub fn witness_leaks_text(m: &Module, req: &CompileRequest) -> String {
    let target = req.target.spec();
    let prog = lower_module_for(m, target);
    let sites = leak_audit_program(&prog);
    let mut s = String::new();
    for w in witness_leaks_on(&prog, target, &req.entry, &req.args, req.fuel, &sites) {
        match &w.policy {
            Some(p) => s.push_str(&format!(
                "leak witness: {} — CONFIRMED under `--fault-policy {}` ({})\n",
                w.site,
                p.name(),
                w.note
            )),
            None => s.push_str(&format!(
                "leak witness: {} — refuted ({})\n",
                w.site, w.note
            )),
        }
    }
    s
}

/// The `--sim` counter block: one `name = value` line per counter, fault
/// policy first so multi-policy runs are self-describing.
pub fn render_sim_counters(policy: &str, result: Option<Value>, c: &Counters) -> String {
    let mut s = String::new();
    let mut line = |k: &str, v: String| s.push_str(&format!("{k:<21}= {v}\n"));
    line("fault policy", policy.to_string());
    line("result", format!("{result:?}"));
    line("cycles", c.cycles.to_string());
    line("loads retired", c.loads_retired.to_string());
    line("check loads", c.check_loads.to_string());
    line("failed checks", c.failed_checks.to_string());
    line("check ratio", format!("{:.2}%", c.check_ratio() * 100.0));
    line(
        "mis-speculation",
        format!("{:.2}%", c.mis_speculation_ratio() * 100.0),
    );
    line("alat inserts", c.alat_inserts.to_string());
    line("alat fault kills", c.alat_fault_kills.to_string());
    line("alat flash clears", c.alat_flash_clears.to_string());
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_core::{render_dumps, Pass, PassSet};
    use specframe_profile::{run_with, AliasProfiler};

    const DIAMOND: &str = r#"
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

    #[test]
    fn compile_without_profiling_needs_no_entry() {
        // `f`, not `main` — heuristic mode never runs the interpreter
        let req = CompileRequest {
            spec: SpecKind::Heuristic,
            control: ControlKind::Static,
            ..Default::default()
        };
        let out = compile(DIAMOND, &req).unwrap();
        assert!(out.report.stats.reloads >= 1);
    }

    #[test]
    fn a_compile_that_trains_on_its_args_returns_the_reference_run() {
        let args = vec![Value::I(3), Value::I(4), Value::I(1)];
        let o3 = CompileRequest {
            entry: "f".into(),
            args: args.clone(),
            fuel: 1_000_000,
            spec: SpecKind::None,
            control: ControlKind::Profile,
            ..Default::default()
        };
        let mut m = parse_module(DIAMOND).unwrap();
        prepare_module(&mut m);
        let want = specframe_profile::run(&m, "f", &args, 1_000_000).unwrap();
        // O3 trains edges only, on --args: that run is the reference run,
        // and no alias profile was collected
        assert!(o3.trains_on_own_args());
        let out = compile(DIAMOND, &o3).unwrap();
        assert_eq!(out.reference, Some(want));
        assert!(out.alias_profile.is_none());
        let paper = CompileRequest {
            spec: SpecKind::Profile,
            ..o3.clone()
        };
        assert_eq!(compile(DIAMOND, &paper).unwrap().reference, Some(want));
        // training on other arguments, or not at all: no reference
        for req in [
            CompileRequest {
                train_args: Some(vec![Value::I(3), Value::I(4), Value::I(0)]),
                ..o3.clone()
            },
            CompileRequest {
                control: ControlKind::Static,
                ..o3.clone()
            },
        ] {
            assert!(!req.trains_on_own_args());
            assert_eq!(compile(DIAMOND, &req).unwrap().reference, None);
        }
        // the arguments compare bit for bit: -0.0 is not 0.0
        let floats = |train: f64| CompileRequest {
            args: vec![Value::F(0.0)],
            train_args: Some(vec![Value::F(train)]),
            ..o3.clone()
        };
        assert!(floats(0.0).trains_on_own_args());
        assert!(!floats(-0.0).trains_on_own_args());
    }

    #[test]
    fn dump_after_ssapre_shows_pre_insertion() {
        let req = CompileRequest {
            spec: SpecKind::Heuristic,
            control: ControlKind::Static,
            hooks: PipelineHooks {
                dump_after: PassSet::from_iter([Pass::Ssapre]),
                ..Default::default()
            },
            ..Default::default()
        };
        let out = compile(DIAMOND, &req).unwrap();
        assert_eq!(out.dumps.len(), 1);
        let text = render_dumps(&out.dumps);
        assert!(
            text.contains("; === dump-after ssapre: func f ==="),
            "{text}"
        );
        assert!(text.contains("hssa func f {"), "{text}");
    }

    #[test]
    fn stop_after_refine_is_identity_module() {
        let req = CompileRequest {
            hooks: PipelineHooks {
                stop_after: Some(Pass::Refine),
                ..Default::default()
            },
            ..Default::default()
        };
        let out = compile(DIAMOND, &req).unwrap();
        // nothing optimized: both adds still present
        let printed = specframe_ir::display::print_module(&out.module);
        assert_eq!(printed.matches("add a, b").count(), 2, "{printed}");
    }

    #[test]
    fn stop_after_hssa_roundtrips_through_lowering() {
        let req = CompileRequest {
            hooks: PipelineHooks {
                stop_after: Some(Pass::Hssa),
                ..Default::default()
            },
            ..Default::default()
        };
        let out = compile(DIAMOND, &req).unwrap();
        let args = [Value::I(3), Value::I(4), Value::I(1)];
        let m0 = parse_module(DIAMOND).unwrap();
        let (want, _) = specframe_profile::run(&m0, "f", &args, 1_000_000).unwrap();
        let (got, _) = specframe_profile::run(&out.module, "f", &args, 1_000_000).unwrap();
        assert_eq!(want, got);
    }

    #[test]
    fn failure_families_map_to_distinct_exit_codes() {
        assert_eq!(CompileFailure::Usage("x".into()).exit_code(), 1);
        assert_eq!(CompileFailure::Parse("x".into()).exit_code(), 2);
        let mut e = CompileError {
            function: "f".into(),
            pass: "ssapre".into(),
            message: "boom".into(),
            fallback_exhausted: false,
        };
        assert_eq!(CompileFailure::Compile(e.clone()).exit_code(), 3);
        e.fallback_exhausted = true;
        assert_eq!(CompileFailure::Compile(e).exit_code(), 4);
    }

    #[test]
    fn parse_error_classified_as_parse() {
        let err = compile("func f(", &CompileRequest::default()).unwrap_err();
        assert!(matches!(err, CompileFailure::Parse(_)), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn corrupt_alias_profile_degrades_to_heuristics_with_warning() {
        let req = CompileRequest {
            spec: SpecKind::Profile,
            control: ControlKind::Static,
            alias_profile: Some("not a profile at all".into()),
            ..Default::default()
        };
        // entry `main` does not exist; a degraded (heuristic) compile must
        // not need it, proving no training run happened.
        let out = compile(DIAMOND, &req).unwrap();
        assert_eq!(out.report.warnings.len(), 1, "{:?}", out.report.warnings);
        let w = &out.report.warnings[0];
        assert_eq!(w.pass, "alias-profile");
        assert!(w.message.contains("falling back to heuristic"), "{w}");
        // heuristic rules did fire on the diamond
        assert!(out.report.stats.reloads >= 1);
    }

    #[test]
    fn valid_alias_profile_is_used_without_training_run() {
        // profile collected by hand, serialized, then fed back in — with no
        // entry function available, so any training-run attempt would fail
        let src = r#"
global a: i64[1]
global b: i64[1]

func leaf(sel: i64) -> i64 {
  var p: ptr
  var v: i64
entry:
  br sel, yes, no
yes:
  p = @a
  jmp go
no:
  p = @b
  jmp go
go:
  v = load.i64 [p]
  ret v
}
"#;
        let mut m0 = parse_module(src).unwrap();
        prepare_module(&mut m0);
        let mut ap = AliasProfiler::new();
        run_with(&m0, "leaf", &[Value::I(1)], 100_000, &mut ap).unwrap();
        let text = specframe_profile::write_alias_profile(&ap.finish());

        let req = CompileRequest {
            spec: SpecKind::Profile,
            entry: "nonexistent".into(),
            alias_profile: Some(text),
            ..Default::default()
        };
        let out = compile(src, &req).unwrap();
        assert!(out.report.warnings.is_empty(), "{:?}", out.report.warnings);
        assert!(out.alias_profile.is_some());
    }

    #[test]
    fn simulate_text_renders_fault_policy_counters() {
        let req = CompileRequest {
            entry: "f".into(),
            args: vec![Value::I(3), Value::I(4), Value::I(1)],
            fuel: 1_000_000,
            spec: SpecKind::Heuristic,
            control: ControlKind::Static,
            ..Default::default()
        };
        let out = compile(DIAMOND, &req).unwrap();
        let sim = SimOptions {
            fault_policies: Vec::new(),
            taint_secret: Vec::new(),
        };
        let (got, text) =
            simulate_text(&out.module, &req, &sim, &FaultPolicy::ALWAYS_MISS).unwrap();
        assert_eq!(got, Some(Value::I(14)));
        assert!(
            text.contains("fault policy         = always-miss"),
            "{text}"
        );
        assert!(text.contains("alat fault kills     = "), "{text}");
        // a bad policy name is a usage error where it enters
        let flags = ["--sim", "--fault-policy", "bogus"].map(String::from);
        let err = parse_flags(CompileRequest::default(), flags).unwrap_err();
        assert!(err.contains("unknown fault policy `bogus`"), "{err}");
    }
}
