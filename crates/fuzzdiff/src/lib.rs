//! Differential misspeculation oracle.
//!
//! The safety argument of the whole framework is that a mis-speculated
//! value is always *detected and recovered* by the check instruction, so
//! the program result can never depend on what the ALAT happened to do.
//! This crate turns that argument into an executable oracle:
//!
//! for every case (the eight workload kernels plus seeded random loop
//! programs with may-aliased memory traffic), for every execution target
//! (`epic` with its hardware ALAT, `swr` with software recovery checks),
//! for every optimizer configuration, for every fault policy —
//!
//! ```text
//! result(optimized, machine, policy) == result(unoptimized, interpreter)
//! ```
//!
//! bit-identically, on the training input *and* on an adversarial input
//! where the profiled assumptions are false. On top of result equality it
//! asserts counter sanity (`failed_checks ≤ check_loads`; a policy that
//! kills entries cannot *reduce* recoveries below zero) — an eviction
//! schedule may change *performance* counters but never *results*.
//!
//! Two cache oracles ride along on every case: [`storage_fault_case`]
//! (injected storage faults never move an output byte) and
//! [`key_soundness_case`] (one-step mutations: an unchanged cache key
//! means an unchanged stored entry, and a moved key with an unchanged
//! entry is counted as an over-invalidation).
//!
//! The `fuzzdiff` binary wraps this for CI with a seed and time budget.

use specframe::core::cache::codec::CachedFunc;
use specframe::core::cache::{MemStore, Probe};
use specframe::core::{CacheKey, FuncCache, KeyContext};
use specframe::ir::{Global, GlobalId, Inst, Operand};
use specframe::machine::policy::XorShift64;
use specframe::prelude::*;

/// One program under test.
#[derive(Debug, Clone)]
pub struct Case {
    /// Display name (`workload:gzip`, `random:17`).
    pub name: String,
    /// The prepared module (critical edges split).
    pub module: Module,
    /// Entry function.
    pub entry: String,
    /// Training-run arguments (profile collection).
    pub train_args: Vec<Value>,
    /// Reference-run argument vectors; every one must agree with the
    /// unoptimized interpreter. By convention the last one is adversarial
    /// (the profile lies) when the case has that notion.
    pub run_args: Vec<Vec<Value>>,
    /// Interpreter/simulator fuel budget.
    pub fuel: u64,
}

/// The eight paper workload kernels (plus stressors) as oracle cases.
pub fn workload_cases() -> Vec<Case> {
    all_workloads(Scale::Test)
        .into_iter()
        .map(|w| {
            let mut m = w.module;
            prepare_module(&mut m);
            let mut run_args = vec![w.ref_args.clone()];
            if w.train_args != w.ref_args {
                run_args.push(w.train_args.clone());
            }
            Case {
                name: format!("workload:{}", w.name),
                module: m,
                entry: w.entry.to_string(),
                train_args: w.train_args,
                run_args,
                fuel: w.fuel,
            }
        })
        .collect()
}

/// The step-count ceiling of a random case unless `fuzzdiff --steps` sets
/// another.
pub const DEFAULT_STEPS: u64 = 9;

/// Builds the seeded random case: a loop of at most `max_steps` statement
/// templates chosen by an xorshift stream. The first argument selects the
/// target of pointer `p` (`g0` — truly aliased, or `g1` — disjoint), so
/// training on `sel=0` and running on `sel=1` makes every profiled
/// no-alias assumption false at once. Bigger programs exercise deeper
/// optimizer interactions and give the reducer real work in the CI smoke.
pub fn random_case(seed: u64, max_steps: u64) -> Case {
    let mut rng = XorShift64::new(seed);
    let nsteps = 1 + (rng.next_u64() % max_steps.max(1)) as usize;
    let mut decls = String::new();
    let mut body = String::new();
    for si in 0..nsteps {
        let t = format!("t{si}");
        let k = rng.next_u64() % 8;
        match rng.next_u64() % 10 {
            0 => {
                decls += &format!("  var {t}: i64\n");
                body += &format!("  {t} = load.i64 [@g0 + {k}]\n  acc = add acc, {t}\n");
            }
            1 => body += &format!("  store.i64 [@g0 + {k}], acc\n"),
            2 => {
                decls += &format!("  var {t}: i64\n");
                body += &format!("  {t} = load.i64 [p + {k}]\n  acc = add acc, {t}\n");
            }
            3 => body += &format!("  store.i64 [p + {k}], acc\n"),
            4 => {
                decls += &format!("  var {t}: f64\n  var {t}i: i64\n");
                body += &format!(
                    "  {t} = load.f64 [@f0 + {k}]\n  {t}i = f2i {t}\n  acc = add acc, {t}i\n"
                );
            }
            5 => {
                decls += &format!("  var {t}: f64\n");
                body += &format!("  {t} = i2f acc\n  store.f64 [@f0 + {k}], {t}\n");
            }
            6 => {
                let c = (rng.next_u64() % 255) as i64 - 127;
                body += &format!("  acc = add acc, {c}\n");
            }
            7 => {
                let c = 1 + rng.next_u64() % 5;
                decls += &format!("  var {t}: i64\n");
                body += &format!("  {t} = mul i, {c}\n  acc = add acc, {t}\n");
            }
            8 => {
                // diamond: Φ insertion, control speculation, φ lowering
                decls += &format!("  var {t}c: i64\n  var {t}v: i64\n");
                body += &format!(
                    "  {t}c = mod i, 2\n  br {t}c, d{si}t, d{si}e\n\
                     d{si}t:\n  {t}v = load.i64 [@g0 + {k}]\n  acc = add acc, {t}v\n  jmp d{si}j\n\
                     d{si}e:\n  store.i64 [p + {k}], acc\n  jmp d{si}j\n\
                     d{si}j:\n"
                );
            }
            _ => {
                decls += &format!("  var {t}: i64\n");
                body += &format!("  {t} = call helper(acc)\n  acc = add acc, {t}\n");
            }
        }
    }
    let src = format!(
        r#"
global g0: i64[8] = [3, 1, 4, 1, 5, 9, 2, 6]
global g1: i64[8]
global f0: f64[8] = [1.5, 2.5, 0.5, 3.0, 1.0, 2.0, 4.5, 0.25]

func helper(x: i64) -> i64 {{
  var v: i64
entry:
  v = load.i64 [@g0 + 2]
  v = add v, x
  ret v
}}

func main(sel: i64, n: i64) -> i64 {{
  var p: ptr
  var i: i64
  var c: i64
  var acc: i64
{decls}entry:
  acc = 0
  i = 0
  br sel, ua, ub
ua:
  p = @g0
  jmp head
ub:
  p = @g1
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
{body}  i = add i, 1
  jmp head
exit:
  ret acc
}}
"#
    );
    let mut m = parse_module(&src).unwrap_or_else(|e| panic!("generated program: {e}\n{src}"));
    prepare_module(&mut m);
    verify_module(&m).unwrap_or_else(|e| panic!("generated program: {e}\n{src}"));
    Case {
        name: format!("random:{seed}"),
        module: m,
        entry: "main".into(),
        train_args: vec![Value::I(0), Value::I(6)],
        run_args: vec![
            vec![Value::I(0), Value::I(6)], // profile holds
            vec![Value::I(1), Value::I(6)], // profile lies: checks must recover
        ],
        fuel: 1_000_000,
    }
}

/// Aggregate statistics of one oracle sweep.
#[derive(Debug, Default, Clone, Copy)]
pub struct DiffStats {
    /// Cases examined.
    pub cases: u64,
    /// (config, policy, args) machine simulations compared.
    pub sim_runs: u64,
    /// Total failed checks observed — nonzero proves the adversarial
    /// policies actually exercised the recovery path.
    pub failed_checks: u64,
    /// Speculative-leak sites the static auditor flagged across all
    /// optimized lowerings (pre-fence).
    pub leak_sites: u64,
    /// Speculation barriers the leak oracle's fencing pass inserted.
    pub fences_inserted: u64,
    /// Cached compiles the storage-fault oracle performed.
    pub cache_runs: u64,
    /// Transient cache-I/O retries those compiles drove.
    pub cache_retries: u64,
    /// Injected cache I/O errors observed across the fault matrix.
    pub cache_io_errors: u64,
    /// Cache circuit-breaker trips (at most one per cache session).
    pub cache_breaker_trips: u64,
    /// (mutation, hook set, function) entry pairs the key-soundness oracle
    /// compared.
    pub key_pairs: u64,
    /// Of those, pairs whose key moved while the stored entry did not.
    pub key_over_invalidations: u64,
}

impl DiffStats {
    /// Over-invalidated share of the key-soundness oracle's entry pairs,
    /// in percent (0 when it compared none).
    pub fn over_invalidation_pct(&self) -> f64 {
        if self.key_pairs == 0 {
            0.0
        } else {
            100.0 * self.key_over_invalidations as f64 / self.key_pairs as f64
        }
    }
}

/// The outcome of one oracle run over one case, separating *setup*
/// problems (the case itself would not run) from genuine *divergences*
/// (optimized behavior differs from the reference). The reducer keys on
/// this: a candidate whose reference run breaks fails for a different
/// reason than the original divergence and must be rejected.
#[derive(Debug)]
pub enum DiffOutcome {
    /// Every comparison matched.
    Agree,
    /// The case could not be set up (reference or training run failed).
    Setup(String),
    /// At least one comparison diverged; the report lists them all.
    Diverged(String),
}

/// Deletes the first check instruction (`ldc`/`chks`) found in `m`,
/// returning whether one was found. This is the deliberate sabotage
/// behind `fuzzdiff --break-checks`: with the check gone, a mis-speculated
/// value is consumed unrecovered, and the differential oracle must notice
/// — an end-to-end proof that the oracle (and the reducer riding on it)
/// actually has teeth.
pub fn drop_first_check(m: &mut Module) -> bool {
    for f in &mut m.funcs {
        for b in &mut f.blocks {
            if let Some(i) = b
                .insts
                .iter()
                .position(|i| matches!(i, specframe::ir::Inst::CheckLoad { .. }))
            {
                b.insts.remove(i);
                return true;
            }
        }
    }
    false
}

/// Runs the full differential oracle on one case, with optional check
/// sabotage (`break_checks` deletes one check from every optimized module
/// before comparing — configs that emitted no check are skipped). A
/// divergence report names each result mismatch between the optimized
/// machine run and the unoptimized interpreter, interpreter divergence,
/// counter-sanity violation or compile failure.
pub fn diff_case(
    case: &Case,
    policies: &[FaultPolicy],
    stats: &mut DiffStats,
    break_checks: bool,
) -> DiffOutcome {
    stats.cases += 1;
    let m = &case.module;

    // ground truth: the unoptimized reference interpreter
    let mut want = Vec::new();
    for args in &case.run_args {
        match run(m, &case.entry, args, case.fuel) {
            Ok((r, _)) => want.push(r),
            Err(e) => {
                return DiffOutcome::Setup(format!("{}: reference run failed: {e}", case.name))
            }
        }
    }

    // training profile
    let (aprof, eprof) = match train(m, &case.entry, &case.train_args, case.fuel, Collect::ALL) {
        Ok(t) => (t.alias.expect("collected"), t.edges.expect("collected")),
        Err(e) => return DiffOutcome::Setup(format!("{}: training run failed: {e}", case.name)),
    };

    let mut failures = Vec::new();
    for target in TargetId::ALL {
        let configs: Vec<(&str, OptOptions)> = vec![
            (
                "none",
                OptOptions {
                    target,
                    ..OptOptions::default()
                },
            ),
            (
                "cspec",
                OptOptions {
                    data: SpecSource::None,
                    control: ControlSpec::Profile(&eprof),
                    strength_reduction: true,
                    lftr: false,
                    store_sinking: false,
                    target,
                },
            ),
            (
                "profile",
                OptOptions {
                    data: SpecSource::Profile(&aprof),
                    control: ControlSpec::Profile(&eprof),
                    strength_reduction: true,
                    lftr: false,
                    store_sinking: false,
                    target,
                },
            ),
            (
                "heuristic",
                OptOptions {
                    data: SpecSource::Heuristic,
                    control: ControlSpec::Static,
                    strength_reduction: true,
                    lftr: false,
                    store_sinking: true,
                    target,
                },
            ),
            (
                "sr-lftr",
                OptOptions {
                    data: SpecSource::Heuristic,
                    control: ControlSpec::Static,
                    strength_reduction: true,
                    lftr: true,
                    store_sinking: true,
                    target,
                },
            ),
            (
                "aggressive",
                OptOptions {
                    data: SpecSource::Aggressive,
                    control: ControlSpec::Static,
                    strength_reduction: false,
                    lftr: false,
                    store_sinking: false,
                    target,
                },
            ),
        ];

        for (cname, opts) in configs {
            let label = format!("{}/{cname}@{}", case.name, target.name());
            let mut om = m.clone();
            optimize(&mut om, &opts);
            if break_checks && !drop_first_check(&mut om) {
                continue; // nothing speculative to sabotage in this config
            }
            if let Err(e) = verify_module(&om) {
                failures.push(format!("{label}: verify failed: {e}"));
                continue;
            }
            // interpreter equivalence of the optimized module
            for (args, want) in case.run_args.iter().zip(&want) {
                match run(&om, &case.entry, args, case.fuel) {
                    Ok((r, _)) if r == *want => {}
                    Ok((r, _)) => failures.push(format!(
                        "{label}: interp({args:?}) = {r:?}, reference {want:?}"
                    )),
                    Err(e) => failures.push(format!("{label}: interp({args:?}) failed: {e}")),
                }
            }
            // machine equivalence under every fault policy (on epic the
            // policies act on the ALAT; on swr they map onto forced
            // recovery-branch misses — results must agree either way)
            let prog = lower_module_for(&om, target.spec());
            for policy in policies {
                let label = format!("{label}/{}", policy.name());
                for (args, want) in case.run_args.iter().zip(&want) {
                    stats.sim_runs += 1;
                    match run_machine_with_policy_on(
                        &prog,
                        target.spec(),
                        &case.entry,
                        args,
                        case.fuel,
                        policy,
                    ) {
                        Ok((r, c)) => {
                            if r != *want {
                                failures.push(format!(
                                    "{label}: machine({args:?}) = {r:?}, reference {want:?}"
                                ));
                            }
                            if c.failed_checks > c.check_loads {
                                failures.push(format!(
                                    "{label}: counter sanity: \
                                     failed_checks {} > check_loads {}",
                                    c.failed_checks, c.check_loads
                                ));
                            }
                            stats.failed_checks += c.failed_checks;
                        }
                        Err(e) => failures.push(format!("{label}: machine({args:?}) failed: {e}")),
                    }
                }
            }
            // leak oracle: fence the same lowering, prove the static
            // re-audit is clean, then run taint-enabled (every global word
            // secret) under every fault policy — zero taint-to-sink events
            // may survive fencing and the architectural result must stay
            // bit-identical to the reference interpreter
            let mut fprog = prog.clone();
            let fences = specframe::machine::fence_program(&mut fprog);
            stats.leak_sites += specframe::machine::leak_audit_program(&prog).len() as u64;
            stats.fences_inserted += fences;
            let still = specframe::machine::leak_audit_program(&fprog);
            if !still.is_empty() {
                failures.push(format!(
                    "{label}: leak oracle: {} sites survive fencing; first: {}",
                    still.len(),
                    still[0]
                ));
            }
            let secrets: Vec<i64> = (Module::GLOBAL_BASE..fprog.globals_end).collect();
            for policy in policies {
                let label = format!("{label}/{}", policy.name());
                for (args, want) in case.run_args.iter().zip(&want) {
                    stats.sim_runs += 1;
                    match specframe::machine::run_machine_taint_on(
                        &fprog,
                        target.spec(),
                        &case.entry,
                        args,
                        case.fuel,
                        policy,
                        &secrets,
                    ) {
                        Ok(rep) => {
                            let c = &rep.counters;
                            if rep.result != *want {
                                failures.push(format!(
                                    "{label}: fenced machine({args:?}) = {:?}, \
                                     reference {want:?}",
                                    rep.result
                                ));
                            }
                            if c.leak_addr_events + c.leak_branch_events > 0 {
                                let first = rep
                                    .events
                                    .first()
                                    .map(|e| {
                                        format!("first: {}@{} -> {} sink", e.func, e.at, e.sink)
                                    })
                                    .unwrap_or_default();
                                failures.push(format!(
                                    "{label}: leak oracle: {} taint-to-sink \
                                     events survive fencing ({first})",
                                    c.leak_addr_events + c.leak_branch_events
                                ));
                            }
                            stats.failed_checks += c.failed_checks;
                        }
                        Err(e) => {
                            failures.push(format!("{label}: fenced machine({args:?}) failed: {e}"))
                        }
                    }
                }
            }
        }
    }
    if failures.is_empty() {
        DiffOutcome::Agree
    } else {
        DiffOutcome::Diverged(failures.join("\n"))
    }
}

/// The storage-fault matrix the cache oracle sweeps: no faults, periodic
/// permanent ENOSPC, seeded transient read errors, and torn writes.
pub const STORE_FAULT_MATRIX: &[&str] = &["none", "enospc:2", "eio-read:7:2", "torn-write:2"];

/// The storage-fault oracle: compiles `case` through a compile cache whose
/// storage is wrapped in every [`STORE_FAULT_MATRIX`] fault injector, cold
/// and warm, and proves the module text never moves a byte from the
/// uncached baseline — faults may cost retries, trip the circuit breaker,
/// and turn hits back into misses, but they must never change the output.
/// Counter sanity rides along: probes account for every function, a retry
/// implies an observed I/O error, and the breaker trips at most once.
///
/// # Errors
/// A human-readable report of the first divergence or counter violation.
pub fn storage_fault_case(case: &Case, stats: &mut DiffStats) -> Result<(), String> {
    use specframe::core::parse_store_fault_policy;
    use specframe::ir::display::print_module;

    let target = TargetId::ALL[0];
    let opts = OptOptions {
        data: SpecSource::Heuristic,
        control: ControlSpec::Static,
        strength_reduction: true,
        lftr: true,
        store_sinking: true,
        target,
    };
    let cfg = PipelineConfig { jobs: 1 };
    let hooks = PipelineHooks::default();

    let mut base = case.module.clone();
    try_optimize_cached(&mut base, &opts, &cfg, &hooks, None)
        .map_err(|e| format!("{}: uncached baseline failed: {e}", case.name))?;
    let want = print_module(&base);
    let funcs = case.module.funcs.len() as u64;

    for policy in STORE_FAULT_MATRIX {
        let pol = parse_store_fault_policy(policy)?;
        let cache = FuncCache::with_store(Box::new(MemStore::new())).with_fault_policy(pol);
        for phase in ["cold", "warm"] {
            let label = format!("{}/{policy}/{phase}", case.name);
            let mut cm = case.module.clone();
            let (report, _) = try_optimize_cached(&mut cm, &opts, &cfg, &hooks, Some(&cache))
                .map_err(|e| format!("{label}: cached compile failed: {e}"))?;
            stats.cache_runs += 1;
            if print_module(&cm) != want {
                return Err(format!(
                    "{label}: cached module text diverged from the uncached baseline"
                ));
            }
            let c = report.cache;
            if c.hits + c.misses + c.stale != funcs {
                return Err(format!(
                    "{label}: probe accounting: {} hits + {} misses + {} stale != {funcs} funcs",
                    c.hits, c.misses, c.stale
                ));
            }
            if c.retries > c.io_errors {
                return Err(format!(
                    "{label}: counter sanity: {} retries > {} io errors",
                    c.retries, c.io_errors
                ));
            }
            if c.breaker_trips > 1 {
                return Err(format!(
                    "{label}: counter sanity: breaker tripped {} times",
                    c.breaker_trips
                ));
            }
            if *policy == "none" {
                if c.io_errors != 0 {
                    return Err(format!(
                        "{label}: {} io errors under the no-fault policy",
                        c.io_errors
                    ));
                }
                if phase == "warm" && c.misses != 0 {
                    return Err(format!(
                        "{label}: {} misses on a warm fault-free cache",
                        c.misses
                    ));
                }
            }
        }
        let (retries, io_errors, trips) = cache.fault_counters();
        stats.cache_retries += retries;
        stats.cache_io_errors += io_errors;
        stats.cache_breaker_trips += trips;
    }
    Ok(())
}

/// One single-step edit the key-soundness oracle ([`key_soundness_case`])
/// applies to a case. Each one is either something a function's cache key
/// must see (its output can change) or something it should not (its
/// output cannot), so together they probe both soundness and width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyMutation {
    /// Bump the module's first integer literal.
    BodyLiteral,
    /// Append an unused variable to the first function, which renumbers
    /// every later function's alias classes.
    UnusedVar,
    /// Point the last `@g` operand that escapes into a value (a call
    /// argument, copy or stored value; else the last `@g` at all) at the
    /// next global of the same type — a caller edit that changes what a
    /// callee's pointer may alias.
    RetargetGlobalAddr,
    /// Bump global 0's initializer.
    GlobalInit,
    /// Grow global 0 by one word, shifting every later global's address.
    GlobalResize,
    /// Rename global 0.
    GlobalRename,
    /// Append a global nothing references.
    AppendGlobal,
    /// Rename the lowest-index function that has a caller.
    FunctionRename,
    /// Drop the alias profile's entry for its lowest memory site; the
    /// module is unchanged and both sides compile profile-guided.
    DropProfileEntry,
}

impl KeyMutation {
    /// Every mutation, in the order the oracle applies them.
    const ALL: [KeyMutation; 9] = [
        KeyMutation::BodyLiteral,
        KeyMutation::UnusedVar,
        KeyMutation::RetargetGlobalAddr,
        KeyMutation::GlobalInit,
        KeyMutation::GlobalResize,
        KeyMutation::GlobalRename,
        KeyMutation::AppendGlobal,
        KeyMutation::FunctionRename,
        KeyMutation::DropProfileEntry,
    ];

    /// Stable name for reports.
    fn name(self) -> &'static str {
        match self {
            KeyMutation::BodyLiteral => "body-literal",
            KeyMutation::UnusedVar => "unused-var",
            KeyMutation::RetargetGlobalAddr => "retarget-global-addr",
            KeyMutation::GlobalInit => "global-init",
            KeyMutation::GlobalResize => "global-resize",
            KeyMutation::GlobalRename => "global-rename",
            KeyMutation::AppendGlobal => "append-global",
            KeyMutation::FunctionRename => "function-rename",
            KeyMutation::DropProfileEntry => "drop-profile-entry",
        }
    }

    /// The mutated copy of `m`, or `None` when `m` has no site for this
    /// edit (or the edit would not verify). [`KeyMutation::DropProfileEntry`]
    /// edits the profile, not the module, and returns `m` unchanged.
    fn apply(self, m: &Module) -> Option<Module> {
        let mut m = m.clone();
        match self {
            KeyMutation::BodyLiteral => {
                let mut hit = false;
                visit_operands(&mut m, &mut |o, _| {
                    if let (false, Operand::ConstI(c)) = (hit, o) {
                        *c = c.wrapping_add(1);
                        hit = true;
                    }
                });
                if !hit {
                    return None;
                }
            }
            KeyMutation::UnusedVar => {
                m.funcs.first_mut()?.new_var("key_oracle_unused", Ty::I64);
            }
            KeyMutation::RetargetGlobalAddr => {
                let n = m.globals.len();
                let sibling: Vec<Option<GlobalId>> = (0..n)
                    .map(|i| {
                        (1..n)
                            .map(|d| (i + d) % n)
                            .find(|&j| m.globals[j].ty == m.globals[i].ty)
                            .map(GlobalId::from_index)
                    })
                    .collect();
                let (mut k, mut escaping, mut any) = (0usize, None, None);
                visit_operands(&mut m, &mut |o, escapes| {
                    if let Operand::GlobalAddr(g) = *o {
                        if sibling[g.index()].is_some() {
                            any = Some(k);
                            escaping = if escapes { Some(k) } else { escaping };
                        }
                    }
                    k += 1;
                });
                let target = escaping.or(any)?;
                let mut k = 0usize;
                visit_operands(&mut m, &mut |o, _| {
                    if let (true, Operand::GlobalAddr(g)) = (k == target, &mut *o) {
                        *g = sibling[g.index()].expect("candidate has a sibling");
                    }
                    k += 1;
                });
            }
            KeyMutation::GlobalInit => {
                let g = m.globals.first_mut()?;
                match g.init.first_mut() {
                    Some(Value::I(x)) => *x = x.wrapping_add(1),
                    Some(Value::F(x)) => *x += 1.0,
                    Some(v) => *v = Value::I(1),
                    None if g.ty == Ty::F64 => g.init.push(Value::F(1.0)),
                    None => g.init.push(Value::I(1)),
                }
            }
            KeyMutation::GlobalResize => m.globals.first_mut()?.words += 1,
            KeyMutation::GlobalRename => m.globals.first_mut()?.name.push_str("_renamed"),
            KeyMutation::AppendGlobal => m.globals.push(Global {
                name: "key_oracle_extra".into(),
                words: 4,
                ty: Ty::I64,
                init: Vec::new(),
            }),
            KeyMutation::FunctionRename => {
                let callee = m
                    .funcs
                    .iter()
                    .flat_map(|f| f.blocks.iter().flat_map(|b| &b.insts))
                    .filter_map(|i| match i {
                        Inst::Call { callee, .. } => Some(callee.index()),
                        _ => None,
                    })
                    .min()
                    .unwrap_or(0);
                m.funcs.get_mut(callee)?.name.push_str("_renamed");
            }
            KeyMutation::DropProfileEntry => {}
        }
        verify_module(&m).ok().map(|()| m)
    }
}

/// Visits every operand of `m` in body order; the flag is `false` for a
/// memory access's base and `true` wherever the operand's value flows on.
fn visit_operands(m: &mut Module, f: &mut dyn FnMut(&mut Operand, bool)) {
    for func in &mut m.funcs {
        for b in &mut func.blocks {
            for inst in &mut b.insts {
                match inst {
                    Inst::Load { base, .. } | Inst::CheckLoad { base, .. } => f(base, false),
                    Inst::Store { base, val, .. } => {
                        f(base, false);
                        f(val, true);
                    }
                    other => other.map_uses(|o| f(o, true)),
                }
            }
            b.term.map_uses(|o| f(o, true));
        }
    }
}

/// Every function's cache key and the cache one cold cached compile
/// wrote its entries to.
struct StoredEntries {
    names: Vec<String>,
    keys: Vec<CacheKey>,
    cache: FuncCache,
}

impl StoredEntries {
    /// Compiles `m` through a fresh in-memory cache and derives its keys
    /// the way the driver does.
    fn compile(
        m: &Module,
        opts: &OptOptions,
        hooks: &PipelineHooks,
        label: &str,
    ) -> Result<StoredEntries, String> {
        let cache = FuncCache::with_store(Box::new(MemStore::new()));
        let cfg = PipelineConfig { jobs: 1 };
        let mut cm = m.clone();
        try_optimize_cached(&mut cm, opts, &cfg, hooks, Some(&cache))
            .map_err(|e| format!("{label}: cached compile failed: {e}"))?;
        let mut km = m.clone();
        prepare_module(&mut km);
        let aa = AliasAnalysis::analyze(&km);
        let kc = KeyContext::new(&km, &aa, opts, hooks);
        Ok(StoredEntries {
            names: km.funcs.iter().map(|f| f.name.clone()).collect(),
            keys: (0..km.funcs.len()).map(|fi| kc.function_key(fi)).collect(),
            cache,
        })
    }

    /// The decoded entry stored under function `fi`'s key, if any.
    fn entry(&self, fi: usize) -> Option<Box<CachedFunc>> {
        match self.cache.probe(&self.keys[fi]) {
            Probe::Hit(cf) => Some(cf),
            Probe::Miss | Probe::Stale(_) => None,
        }
    }
}

/// The key-soundness and over-invalidation oracle. For each single-step
/// edit in its `KeyMutation` table it compiles the case's module and the
/// one-step mutant through separate caches — once with default hooks, once
/// with `--dump-after` every pass plus `--audit-spec` — and, for every
/// function both modules have:
///
/// * asserts **key equal ⇒ stored entries equal** (an equal key with a
///   different entry is exactly a stale hit a warm compile would replay);
/// * counts an **over-invalidation** when the key moved but the entry did
///   not (a spurious miss — sound, but wasted work).
///
/// # Errors
/// A report naming the case, mutation, hook set and function of the first
/// stale key, or a compile/training failure.
pub fn key_soundness_case(case: &Case, stats: &mut DiffStats) -> Result<(), String> {
    let mut ap = AliasProfiler::new();
    run_with(
        &case.module,
        &case.entry,
        &case.train_args,
        case.fuel,
        &mut ap,
    )
    .map_err(|e| format!("{}: training run failed: {e}", case.name))?;
    let profile = ap.finish();
    let mut dropped = profile.clone();
    if let Some(&site) = dropped.mem.keys().min() {
        dropped.mem.remove(&site);
    }
    let heuristic = OptOptions {
        data: SpecSource::Heuristic,
        control: ControlSpec::Static,
        strength_reduction: true,
        lftr: true,
        store_sinking: true,
        target: TargetId::Epic,
    };
    let guided = OptOptions {
        data: SpecSource::Profile(&profile),
        ..heuristic
    };
    let guided_dropped = OptOptions {
        data: SpecSource::Profile(&dropped),
        ..heuristic
    };
    let observed = PipelineHooks {
        dump_after: PassSet::all(),
        audit_spec: true,
        ..PipelineHooks::default()
    };
    for (hname, hooks) in [
        ("default", &PipelineHooks::default()),
        ("dumps+audit", &observed),
    ] {
        let label = format!("{}/{hname}", case.name);
        let plain = StoredEntries::compile(&case.module, &heuristic, hooks, &label)?;
        let profiled = StoredEntries::compile(&case.module, &guided, hooks, &label)?;
        for mutation in KeyMutation::ALL {
            let label = format!("{label}/{}", mutation.name());
            let (before, after) = if mutation == KeyMutation::DropProfileEntry {
                if dropped == profile {
                    continue;
                }
                let after = StoredEntries::compile(&case.module, &guided_dropped, hooks, &label)?;
                (&profiled, after)
            } else {
                let Some(mutant) = mutation.apply(&case.module) else {
                    continue;
                };
                let after = StoredEntries::compile(&mutant, &heuristic, hooks, &label)?;
                (&plain, after)
            };
            for fi in 0..before.keys.len().min(after.keys.len()) {
                let same_key = before.keys[fi] == after.keys[fi];
                match (before.entry(fi), after.entry(fi)) {
                    (Some(a), Some(b)) => {
                        stats.key_pairs += 1;
                        if same_key && a != b {
                            return Err(format!(
                                "{label}: `{}` keeps its cache key but its stored entry \
                                 changed: a warm compile would replay stale code",
                                before.names[fi]
                            ));
                        }
                        if !same_key && a == b {
                            stats.key_over_invalidations += 1;
                        }
                    }
                    (Some(_), None) | (None, Some(_)) if same_key => {
                        return Err(format!(
                            "{label}: `{}` keeps its cache key but only one side compiled \
                             cleanly enough to be cached",
                            before.names[fi]
                        ));
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

/// Shrinks a diverging case to a minimal module with the ddmin-style
/// reducer and renders it as a `.spec`-ready repro. The predicate re-runs
/// the (optionally sabotaged) oracle on every candidate and accepts only
/// genuine divergences — a candidate whose reference run breaks, or that
/// stops diverging, is rejected, so the reduced program still fails for
/// the original reason.
pub fn reduce_failing_case(
    case: &Case,
    policies: &[FaultPolicy],
    break_checks: bool,
) -> (String, ReduceStats) {
    let mut pred = |cand: &Module| {
        let c2 = Case {
            module: cand.clone(),
            ..case.clone()
        };
        // a candidate that makes the compiler panic outright fails for a
        // *different* reason than the divergence being reduced — reject it
        specframe::core::error::with_quiet_panics(|| {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut s = DiffStats::default();
                matches!(
                    diff_case(&c2, policies, &mut s, break_checks),
                    DiffOutcome::Diverged(_)
                )
            }))
            .unwrap_or(false)
        })
    };
    let (red, rs) = reduce_module(&case.module, &mut pred);
    let policy = policies.first().cloned().unwrap_or_default();
    (
        render_spec_repro(case, &red, &rs, &policy, break_checks),
        rs,
    )
}

/// Formats `args` the way `specc --args` parses them.
fn fmt_args(args: &[Value]) -> String {
    args.iter()
        .map(|v| match v {
            Value::I(i) => i.to_string(),
            Value::F(f) => format!("{f:?}"),
            Value::Nat => "nat".to_string(),
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// Renders a reduced module as a ready-to-save `.spec` file: a RUN line
/// reproducing the speculative compile and its simulation under `policy`,
/// a CHECK on the result the reference interpreter computes, the
/// reduction provenance, and the program text.
fn render_spec_repro(
    case: &Case,
    red: &Module,
    rs: &ReduceStats,
    policy: &FaultPolicy,
    break_checks: bool,
) -> String {
    let adversarial = case.run_args.last().unwrap_or(&case.train_args);
    let (want, _) = run(red, &case.entry, adversarial, case.fuel)
        .expect("a diverging case runs on its arguments");
    let mut out = format!(
        "; RUN: specc %s --entry {} --spec heuristic --control static \
         --train-args {} --args {} --sim --fault-policy {}\n; CHECK: result = {want:?}\n",
        case.entry,
        fmt_args(&case.train_args),
        fmt_args(adversarial),
        policy.name(),
    );
    out += &format!(
        "; reduce: {} probes, {} -> {} instructions ({:.0}% shrink) from {}\n",
        rs.probes,
        rs.initial_insts,
        rs.final_insts,
        rs.shrink_percent(),
        case.name,
    );
    if break_checks {
        out += "; NOTE: diverges only with the --break-checks sabotage \
                (one check deleted after optimize) — the unsabotaged \
                pipeline is expected to pass on this program.\n";
    }
    out.push('\n');
    out += &specframe::ir::display::print_module(red);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_agrees(o: DiffOutcome) {
        assert!(matches!(o, DiffOutcome::Agree), "{o:?}");
    }

    #[test]
    fn storage_fault_oracle_accepts_a_workload_and_moves_counters() {
        let case = workload_cases().into_iter().next().expect("a workload");
        let mut stats = DiffStats::default();
        storage_fault_case(&case, &mut stats).expect("fault matrix must not change output");
        // 4 policies x cold+warm
        assert_eq!(stats.cache_runs, 8);
        // the faulty policies must actually inject something
        assert!(stats.cache_io_errors > 0, "{stats:?}");
        assert!(stats.cache_retries <= stats.cache_io_errors, "{stats:?}");
    }

    #[test]
    fn storage_fault_oracle_handles_seeded_random_cases() {
        let case = random_case(3, DEFAULT_STEPS);
        let mut stats = DiffStats::default();
        storage_fault_case(&case, &mut stats).expect("fault matrix must not change output");
        assert_eq!(stats.cache_runs, 8);
    }

    #[test]
    fn key_soundness_oracle_is_green_on_a_workload_and_a_random_case() {
        let mut stats = DiffStats::default();
        let gzip = workload_cases()
            .into_iter()
            .find(|c| c.name == "workload:gzip")
            .expect("gzip workload");
        for case in [gzip, random_case(5, DEFAULT_STEPS)] {
            key_soundness_case(&case, &mut stats).unwrap();
        }
        assert!(stats.key_pairs > 0, "{stats:?}");
    }

    /// A caller edit that retargets a callee's pointer parameter from `@b`
    /// to `@a`: `f`'s body is unchanged, but its store through `p` now
    /// aliases its loads of `@a`, so its compiled code must change — and
    /// so must its key.
    #[test]
    fn key_soundness_oracle_sees_a_retargeted_pointer_argument() {
        let src = include_str!("../../../tests/smoke/retarget-callee.ir");
        let mut m = parse_module(src).unwrap();
        prepare_module(&mut m);
        let mutant = KeyMutation::RetargetGlobalAddr.apply(&m).expect("a site");
        assert!(
            specframe::ir::display::print_module(&mutant).contains("call f(@a)"),
            "the escaping argument is the one retargeted"
        );
        let case = Case {
            name: "retarget".into(),
            module: m,
            entry: "main".into(),
            train_args: vec![],
            run_args: vec![vec![]],
            fuel: 100_000,
        };
        let mut stats = DiffStats::default();
        key_soundness_case(&case, &mut stats).unwrap();
        assert!(stats.key_pairs > 0, "{stats:?}");
    }

    #[test]
    fn random_cases_are_deterministic_per_seed() {
        let a = random_case(17, DEFAULT_STEPS);
        let b = random_case(17, DEFAULT_STEPS);
        assert_eq!(
            specframe::ir::display::print_module(&a.module),
            specframe::ir::display::print_module(&b.module)
        );
        // different seeds almost surely differ
        let c = random_case(18, DEFAULT_STEPS);
        assert_ne!(
            specframe::ir::display::print_module(&a.module),
            specframe::ir::display::print_module(&c.module)
        );
    }

    #[test]
    fn oracle_passes_on_random_cases_under_fault_matrix() {
        let policies = fault_matrix();
        let mut stats = DiffStats::default();
        for seed in 1..=4 {
            let case = random_case(seed, DEFAULT_STEPS);
            assert_agrees(diff_case(&case, &policies, &mut stats, false));
        }
        assert_eq!(stats.cases, 4);
        assert!(stats.sim_runs > 0);
        // always-miss over speculative configs must have exercised recovery
        assert!(stats.failed_checks > 0, "{stats:?}");
    }

    #[test]
    fn dropped_check_diverges_and_reduces() {
        let policies = vec![FaultPolicy::ALWAYS_MISS];
        let mut stats = DiffStats::default();
        // find a seed whose sabotaged compile actually diverges (the
        // first check of the module must be one that matters on the
        // adversarial input)
        let case = (1..=8)
            .map(|seed| random_case(seed, DEFAULT_STEPS))
            .find(|c| {
                matches!(
                    diff_case(c, &policies, &mut DiffStats::default(), true),
                    DiffOutcome::Diverged(_)
                )
            })
            .expect("no seed in 1..=8 diverges under --break-checks");
        // the unsabotaged oracle still passes on the same case
        assert_agrees(diff_case(&case, &policies, &mut stats, false));
        let (spec, rs) = reduce_failing_case(&case, &policies, true);
        assert!(spec.contains("RUN: specc"), "{spec}");
        assert!(spec.contains("; reduce:"), "{spec}");
        assert!(rs.probes > 0);
        assert!(
            rs.final_insts < rs.initial_insts,
            "reducer made no progress: {rs:?}"
        );
        // the repro must still diverge for the original reason
        let text = spec.split_once("\n\n").expect("module text").1;
        let mut red = parse_module(text).unwrap();
        prepare_module(&mut red);
        let rcase = Case {
            module: red,
            name: "reduced".into(),
            ..case.clone()
        };
        assert!(matches!(
            diff_case(&rcase, &policies, &mut DiffStats::default(), true),
            DiffOutcome::Diverged(_)
        ));
        // the RUN line is one specc and spectest accept, and simulating it
        // computes the CHECKed reference result
        let run_line = spec
            .lines()
            .find_map(|l| l.strip_prefix("; RUN: specc "))
            .expect("a RUN line");
        let toks = run_line.split_whitespace().map(str::to_string);
        let (inv, rest) = parse_flags(CompileRequest::default(), toks).expect("RUN flags");
        assert_eq!(rest, ["%s"], "{run_line}");
        let sim = inv.sim.expect("the RUN line simulates");
        assert_eq!(sim.fault_policies, policies, "{run_line}");
        let out = compile(text, &inv.req).expect("the repro compiles");
        let (got, block) = simulate_text(&out.module, &inv.req, &sim, &sim.fault_policies[0])
            .expect("the repro simulates");
        let check = spec
            .lines()
            .find_map(|l| l.strip_prefix("; CHECK: "))
            .expect("a CHECK line");
        assert_eq!(check, format!("result = {got:?}"), "{block}");
    }

    #[test]
    fn leak_oracle_fences_hand_written_leak_and_results_hold() {
        // the classic shape: an advanced load's value used as the next
        // load's address before its check — the static auditor must flag
        // it, the fence must close it, and the fenced program must agree
        // with the reference under the entire fault matrix
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
        let mut m = parse_module(src).unwrap();
        prepare_module(&mut m);
        let case = Case {
            name: "leaky".into(),
            module: m,
            entry: "main".into(),
            train_args: vec![],
            run_args: vec![vec![]],
            fuel: 100_000,
        };
        let policies = fault_matrix();
        let mut stats = DiffStats::default();
        assert_agrees(diff_case(&case, &policies, &mut stats, false));
        assert!(stats.leak_sites > 0, "{stats:?}");
        assert!(stats.fences_inserted > 0, "{stats:?}");
    }

    #[test]
    fn oracle_passes_on_one_workload() {
        let policies = vec![
            FaultPolicy::ALWAYS_MISS,
            FaultPolicy::Random { seed: 3, denom: 16 },
        ];
        let mut stats = DiffStats::default();
        let case = workload_cases()
            .into_iter()
            .find(|c| c.name == "workload:gzip")
            .expect("gzip workload");
        assert_agrees(diff_case(&case, &policies, &mut stats, false));
    }
}
