//! `.spec` file parsing, in-process RUN execution and case discovery.

use crate::matcher::{run_checks, CheckKind, Directive};
use specframe::core::StoreFaultPolicy;
use specframe::pipeline::choose;
use specframe::prelude::*;
use std::path::{Path, PathBuf};

/// One parsed RUN pipeline: a compile request plus the execution mode
/// riding on it (`--sim` with its options, or `--emit mach`).
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// The compile request and `--sim` options of the RUN line, parsed by
    /// the same function as `specc`'s flags.
    pub inv: Invocation,
    /// Run the post-compile leak-fencing contract check (set by
    /// [`RunOverrides::audit_leaks`], not parseable from a RUN line).
    pub leak_contract: bool,
    /// Emit the rendered machine lowering of the optimized module
    /// (`--emit mach`) instead of its IR text, so goldens can pin
    /// per-target check sequences (`chk.a` vs `chk.cmp` + recovery).
    pub emit_mach: bool,
}

/// One parsed golden test.
#[derive(Debug)]
pub struct SpecCase {
    /// The RUN pipelines, in file order (at least one).
    pub runs: Vec<RunSpec>,
    /// The raw RUN command strings (for reporting).
    pub run_lines: Vec<String>,
    /// The check directives, in file order.
    pub directives: Vec<Directive>,
    /// Harness-wide overrides this case must be *skipped* under
    /// (`; UNSUPPORTED: audit-spec`): a case whose pinned behavior
    /// contradicts an override by design — e.g. a deliberately leaky
    /// kernel, which the speculation auditor necessarily rejects — opts
    /// out instead of failing the overridden suite run.
    pub unsupported: Vec<String>,
    /// The IR program: the file with every `;` line removed.
    pub input: String,
}

/// Override names a `; UNSUPPORTED:` line may name.
const OVERRIDE_NAMES: [&str; 5] = [
    "verify-each",
    "audit-spec",
    "audit-leaks",
    "cache",
    "target",
];

/// Parses the text of a `.spec` file.
///
/// Lines whose first non-blank character is `;` are harness lines: either
/// a directive (`RUN:`, `CHECK:`, `CHECK-NEXT:`, `CHECK-NOT:`,
/// `CHECK-DAG:`, `UNSUPPORTED:` after the `;`) or a free-form comment.
/// An `UNSUPPORTED:` line names harness-wide overrides (whitespace
/// separated, from `OVERRIDE_NAMES`) the case must be skipped under.
/// Everything else is the IR program handed to the compiler (so `#`
/// comments stay IR-side).
/// A `;` comment that *mentions* `CHECK` or `RUN:` but parses as neither
/// is rejected — it is almost certainly a typo that would silently turn a
/// directive into a comment.
pub fn parse_spec(text: &str) -> Result<SpecCase, String> {
    let mut runs = Vec::new();
    let mut run_lines = Vec::new();
    let mut directives = Vec::new();
    let mut unsupported = Vec::new();
    let mut input = String::new();

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let trimmed = line.trim_start();
        let Some(body) = trimmed.strip_prefix(';') else {
            input.push_str(line);
            input.push('\n');
            continue;
        };
        let body = body.trim_start();
        if let Some(cmd) = body.strip_prefix("RUN:") {
            let cmd = cmd.trim();
            runs.push(
                parse_run_command(cmd).map_err(|e| format!("line {lineno}: bad RUN line: {e}"))?,
            );
            run_lines.push(cmd.to_string());
            continue;
        }
        if let Some(rest) = body.strip_prefix("UNSUPPORTED:") {
            for tok in rest.split_whitespace() {
                if !OVERRIDE_NAMES.contains(&tok) {
                    return Err(format!(
                        "line {lineno}: UNSUPPORTED names unknown override `{tok}` \
                         (known: {})",
                        OVERRIDE_NAMES.join(", ")
                    ));
                }
                unsupported.push(tok.to_string());
            }
            continue;
        }
        let kinds = [
            ("CHECK-NEXT:", CheckKind::Next),
            ("CHECK-NOT:", CheckKind::Not),
            ("CHECK-DAG:", CheckKind::Dag),
            ("CHECK:", CheckKind::Check),
        ];
        if let Some((pat, kind)) = kinds
            .iter()
            .find_map(|(p, k)| body.strip_prefix(p).map(|rest| (rest.trim(), *k)))
        {
            directives.push(Directive::new(kind, pat, lineno)?);
            continue;
        }
        if body.contains("CHECK") || body.contains("RUN:") {
            return Err(format!(
                "line {lineno}: `{}` looks like a directive but is not one of \
                 RUN: / CHECK: / CHECK-NEXT: / CHECK-NOT: / CHECK-DAG:",
                body.trim_end()
            ));
        }
        // plain harness comment: dropped
    }

    if runs.is_empty() {
        return Err("no `; RUN:` line".into());
    }
    if directives.first().map(|d| d.kind) == Some(CheckKind::Next) {
        return Err(format!(
            "line {}: CHECK-NEXT cannot be the first directive",
            directives[0].line
        ));
    }
    Ok(SpecCase {
        runs,
        run_lines,
        directives,
        unsupported,
        input,
    })
}

/// Parses a `specc %s …` command into a [`RunSpec`].
///
/// The flags are `specc`'s own vocabulary as [`parse_flags`] reads it,
/// from the RUN-line defaults ([`CompileRequest::default`]: `--spec none
/// --control off --jobs 1`), plus `--emit ir|mach`. Anything else (e.g.
/// `-o`) is rejected so a `.spec` file cannot silently diverge from what
/// the harness actually executes.
pub fn parse_run_command(cmd: &str) -> Result<RunSpec, String> {
    let mut toks = cmd.split_whitespace();
    if toks.next() != Some("specc") {
        return Err("RUN command must start with `specc`".into());
    }
    let (inv, rest) = parse_flags(CompileRequest::default(), toks.map(str::to_string))?;
    let mut rs = RunSpec {
        inv,
        leak_contract: false,
        emit_mach: false,
    };
    let mut saw_input = false;
    let mut rest = rest.into_iter();
    while let Some(t) = rest.next() {
        match t.as_str() {
            "%s" => saw_input = true,
            "--emit" => {
                let v = rest.next().ok_or("--emit needs a value")?;
                rs.emit_mach = choose("--emit", &v, &[("ir", false), ("mach", true)])?;
            }
            other => return Err(format!("unsupported RUN token `{other}`")),
        }
    }
    if !saw_input {
        return Err("RUN command must reference the input as `%s`".into());
    }
    Ok(rs)
}

/// Executes one RUN pipeline over the case's IR and returns the text the
/// checks run against: degradation warnings first (as `; warning:` lines,
/// so goldens can pin recovery diagnostics), then the rendered pass dumps
/// when `--dump-after` was given, the `--sim` counter block per fault
/// policy when simulating, and the optimized module otherwise.
pub fn execute_run(input: &str, rs: &RunSpec) -> Result<String, String> {
    let req = &rs.inv.req;
    let out = compile(input, req).map_err(|e| e.to_string())?;
    if rs.leak_contract {
        check_leak_contract(&out.module, req)?;
    }
    let mut text = String::new();
    for w in &out.report.warnings {
        text.push_str(&format!("; warning: {w}\n"));
    }
    if !req.hooks.dump_after.is_empty() {
        text.push_str(&render_dumps(&out.dumps));
    } else if rs.emit_mach {
        let prog = lower_module_for(&out.module, req.target.spec());
        text.push_str(&specframe::machine::render_mprogram(&prog));
    } else if let Some(sim) = &rs.inv.sim {
        for policy in &sim.fault_policies {
            let (_, block) =
                simulate_text(&out.module, req, sim, policy).map_err(|e| e.to_string())?;
            text.push_str(&block);
        }
    } else {
        text.push_str(&specframe::ir::display::print_module(&out.module));
    }
    Ok(text)
}

/// The `spectest --audit-leaks` contract over one compiled module: every
/// speculative-leak site in its lowering must be closable by the fencing
/// transform (re-audit clean), and — when the entry function exists —
/// fencing must not change the architectural result. Checked at machine
/// level so pinned golden output is untouched.
fn check_leak_contract(m: &specframe::ir::Module, req: &CompileRequest) -> Result<(), String> {
    use specframe::machine::{fence_program, leak_audit_program};
    let target = req.target.spec();
    let plain = lower_module_for(m, target);
    let sites = leak_audit_program(&plain);
    if sites.is_empty() {
        return Ok(());
    }
    let mut fenced = lower_module_for(m, target);
    let fences = fence_program(&mut fenced);
    let still = leak_audit_program(&fenced);
    if !still.is_empty() {
        return Err(format!(
            "leak contract: {} of {} flagged sites survive fencing ({} fences inserted); first: {}",
            still.len(),
            sites.len(),
            fences,
            still[0]
        ));
    }
    if m.func_by_name(&req.entry).is_some() {
        let run = |prog, what| {
            run_machine_on(prog, target, &req.entry, &req.args, req.fuel)
                .map(|(result, _)| result)
                .map_err(|e| format!("leak contract: {what} run failed: {e}"))
        };
        let (want, got) = (run(&plain, "unfenced")?, run(&fenced, "fenced")?);
        if got != want {
            return Err(format!(
                "leak contract: fencing changed the architectural result: {want:?} -> {got:?}"
            ));
        }
    }
    Ok(())
}

/// The verdict on one `.spec` file.
#[derive(Debug)]
pub enum CaseOutcome {
    /// Every directive matched.
    Pass,
    /// The case declared an active override `; UNSUPPORTED:`; the string
    /// names the override.
    Skip(String),
    /// Parse, compile or match failure; the string is the full report.
    Fail(String),
}

/// Harness-wide hook overrides (`spectest --verify-each` /
/// `--audit-spec`): applied on top of every RUN line, so the entire
/// golden suite can be re-run with pass-boundary verification and the
/// speculation-safety auditor enabled — any golden whose output changes
/// under them exposes a pipeline invariant violation.
#[derive(Debug, Clone, Default)]
pub struct RunOverrides {
    /// Force [`PipelineHooks::verify_each`] on every RUN.
    pub verify_each: bool,
    /// Force [`PipelineHooks::audit_spec`] on every RUN.
    pub audit_spec: bool,
    /// Run the speculative-leak fencing contract over every RUN's compiled
    /// module (`spectest --audit-leaks`): the output lowering is
    /// leak-audited, flagged sites are fenced, and the case fails if the
    /// re-audit is not clean or fencing changed the architectural result.
    /// A *post-compile* check on purpose — setting the pipeline's
    /// `audit_leaks`/`fence_leaks` hooks instead would add warning lines
    /// and degradations to pinned golden output wherever the optimizer
    /// legitimately speculates.
    pub audit_leaks: bool,
    /// Route every RUN through a persistent compile cache
    /// (`spectest --cache-dir`): the cached-path parity harness — the
    /// whole golden suite must produce identical output with caching on,
    /// cold or warm.
    pub cache_dir: Option<std::path::PathBuf>,
    /// Inject storage faults into the compile cache
    /// (`spectest --cache-fault-policy`, requires `--cache-dir`): the
    /// fault-tolerance parity harness — retries and breaker trips may
    /// happen underneath, but the golden output must not move a byte.
    pub cache_fault_policy: Option<StoreFaultPolicy>,
    /// Force every RUN onto this execution target (`spectest --target`):
    /// the whole golden suite is re-lowered and re-simulated for another
    /// backend. Cases that pin target-specific output (counter blocks,
    /// machine text, `--explain-spec` verdicts) declare
    /// `; UNSUPPORTED: target` and are counted as skipped.
    pub target: Option<TargetId>,
}

/// Runs one golden test file from disk under harness-wide hook overrides.
pub fn run_case(path: &Path, ov: RunOverrides) -> CaseOutcome {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return CaseOutcome::Fail(format!("cannot read {}: {e}", path.display())),
    };
    let mut case = match parse_spec(&text) {
        Ok(c) => c,
        Err(e) => return CaseOutcome::Fail(e),
    };
    let active = [
        ("verify-each", ov.verify_each),
        ("audit-spec", ov.audit_spec),
        ("audit-leaks", ov.audit_leaks),
        ("cache", ov.cache_dir.is_some()),
        ("target", ov.target.is_some()),
    ];
    for (name, on) in active {
        if on && case.unsupported.iter().any(|u| u == name) {
            return CaseOutcome::Skip(name.to_string());
        }
    }
    for rs in &mut case.runs {
        let req = &mut rs.inv.req;
        req.hooks.verify_each |= ov.verify_each;
        req.hooks.audit_spec |= ov.audit_spec;
        rs.leak_contract |= ov.audit_leaks;
        if req.cache_dir.is_none() {
            req.cache_dir = ov.cache_dir.clone();
        }
        if req.cache_fault_policy.is_none() {
            req.cache_fault_policy = ov.cache_fault_policy;
        }
        if let Some(t) = ov.target {
            req.target = t;
        }
    }
    if case.directives.is_empty() {
        return CaseOutcome::Fail("no CHECK directives".into());
    }
    match case_output(&case) {
        Ok(output) => match run_checks(&output, &case.directives) {
            Ok(()) => CaseOutcome::Pass,
            Err(f) => CaseOutcome::Fail(f.to_string()),
        },
        Err(e) => CaseOutcome::Fail(e),
    }
}

/// The concatenated output of every RUN line of a parsed case.
pub fn case_output(case: &SpecCase) -> Result<String, String> {
    let mut output = String::new();
    for (req, cmd) in case.runs.iter().zip(&case.run_lines) {
        output.push_str(&execute_run(&case.input, req).map_err(|e| format!("RUN `{cmd}`: {e}"))?);
    }
    Ok(output)
}

/// Expands files and directories into a sorted list of `.spec` files.
pub fn discover(paths: &[PathBuf]) -> Result<Vec<PathBuf>, String> {
    let mut found = Vec::new();
    for p in paths {
        if p.is_dir() {
            let entries =
                std::fs::read_dir(p).map_err(|e| format!("cannot list {}: {e}", p.display()))?;
            for entry in entries {
                let path = entry.map_err(|e| e.to_string())?.path();
                if path.extension().is_some_and(|e| e == "spec") {
                    found.push(path);
                }
            }
        } else if p.is_file() {
            found.push(p.clone());
        } else {
            return Err(format!("no such file or directory: {}", p.display()));
        }
    }
    found.sort();
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CASE: &str = "\
; RUN: specc %s --spec heuristic --control static --dump-after=ssapre
; Pins PRE insertion on the cold arm (paper SS4, Appendix A).
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
; CHECK: dump-after ssapre: func f
; CHECK: nothave:
; CHECK-NEXT: x2 = 0
; CHECK-NEXT: pre0{{.*}} = add a0, b0
";

    #[test]
    fn end_to_end_case_passes() {
        let case = parse_spec(CASE).unwrap();
        assert_eq!(case.runs.len(), 1);
        let out = case_output(&case).unwrap();
        assert!(run_checks(&out, &case.directives).is_ok(), "{out}");
    }

    #[test]
    fn directive_typos_are_rejected() {
        let bad = CASE.replace("; CHECK: nothave:", "; CHECK-NXT: nothave:");
        let e = parse_spec(&bad).unwrap_err();
        assert!(e.contains("looks like a directive"), "{e}");
    }

    #[test]
    fn run_line_rejects_unsupported_flags() {
        assert!(parse_run_command("specc %s -o out.ir").is_err());
        assert!(parse_run_command("cc %s").is_err());
        assert!(parse_run_command("specc --spec none").is_err()); // no %s
                                                                  // --fault-policy only makes sense under --sim
        assert!(parse_run_command("specc %s --fault-policy always-miss").is_err());
    }

    #[test]
    fn run_line_parses_sim_and_fault_policies() {
        let rs =
            parse_run_command("specc %s --sim --fault-policy always-miss --fault-policy random:3")
                .unwrap();
        let sim = rs.inv.sim.unwrap();
        assert_eq!(sim.fault_policies, ["always-miss", "random:3"]);
        // --sim alone defaults to the deterministic policy
        let rs = parse_run_command("specc %s --sim").unwrap();
        assert_eq!(rs.inv.sim.unwrap().fault_policies, ["default"]);
        // injection hooks ride on the request
        let rs = parse_run_command("specc %s --inject-spec-fail f").unwrap();
        assert_eq!(rs.inv.req.hooks.inject_spec_fail.as_deref(), Some("f"));
    }

    #[test]
    fn run_line_taint_secret_drops_empty_locations_like_specc() {
        let rs = parse_run_command("specc %s --sim --taint-secret @g,").unwrap();
        assert_eq!(rs.inv.sim.unwrap().taint_secret, ["@g"]);
        let rs = parse_run_command("specc %s --sim --taint-secret=@a,,16").unwrap();
        assert_eq!(rs.inv.sim.unwrap().taint_secret, ["@a", "16"]);
        let e = parse_run_command("specc %s --taint-secret @g").unwrap_err();
        assert!(e.contains("--taint-secret requires --sim"), "{e}");
    }

    #[test]
    fn run_line_rejects_unknown_values_with_the_specc_wording() {
        for (flag, want) in [
            (
                "--spec",
                "unknown --spec `bogus` (expected none|profile|heuristic|aggressive)",
            ),
            (
                "--control",
                "unknown --control `bogus` (expected off|profile|static)",
            ),
            ("--target", "unknown --target `bogus` (expected epic|swr)"),
        ] {
            let e = parse_run_command(&format!("specc %s {flag} bogus")).unwrap_err();
            assert_eq!(e, want);
            // the `=value` form goes through the same check
            let e = parse_run_command(&format!("specc %s {flag}=bogus")).unwrap_err();
            assert_eq!(e, want);
        }
        // a switch given a value is a usage error, not a silent no-op
        let e = parse_run_command("specc %s --sim=yes").unwrap_err();
        assert!(e.contains("--sim takes no value"), "{e}");
    }

    #[test]
    fn run_line_parses_full_vocabulary() {
        let req = parse_run_command(
            "specc %s --entry f --args 1,2 --train-args 3 --spec profile --control profile \
             --target swr --no-sr --store-sinking --jobs 4 --dump-after=hssa,lower \
             --stop-after ssapre",
        )
        .unwrap()
        .inv
        .req;
        assert_eq!(req.entry, "f");
        assert_eq!(req.spec, SpecKind::Profile);
        assert_eq!(req.control, ControlKind::Profile);
        assert_eq!(req.target, TargetId::Swr);
        assert_eq!(req.args, vec![Value::I(1), Value::I(2)]);
        assert_eq!(req.train_args, Some(vec![Value::I(3)]));
        assert!(!req.strength_reduction && req.store_sinking);
        assert_eq!(req.jobs, 4);
        assert!(req.hooks.dump_after.contains(Pass::Hssa));
        assert!(req.hooks.dump_after.contains(Pass::Lower));
        assert_eq!(req.hooks.stop_after, Some(Pass::Ssapre));
    }

    #[test]
    fn run_line_parses_target_and_emit_mach() {
        let rs = parse_run_command("specc %s --target=swr --emit mach").unwrap();
        assert_eq!(rs.inv.req.target, TargetId::Swr);
        assert!(rs.emit_mach);
        // `--emit ir` is the default output and parses as a no-op
        let rs = parse_run_command("specc %s --emit ir").unwrap();
        assert!(!rs.emit_mach);
        assert!(parse_run_command("specc %s --emit hssa").is_err());
        // a bogus target is rejected where it enters: at parse time
        let e = parse_run_command("specc %s --target vliw").unwrap_err();
        assert!(e.contains("unknown --target `vliw`"), "{e}");
    }

    #[test]
    fn target_override_forces_every_run_and_honors_unsupported() {
        let dir = std::env::temp_dir().join(format!("spectest-target-ov-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let case = dir.join("case.spec");
        std::fs::write(
            &case,
            "; RUN: specc %s\n; CHECK: func f\nfunc f() -> i64 {\nentry:\n  ret 0\n}\n",
        )
        .unwrap();
        let ov = RunOverrides {
            target: Some(TargetId::Swr),
            ..RunOverrides::default()
        };
        assert!(matches!(run_case(&case, ov.clone()), CaseOutcome::Pass));
        // an epic-pinned case opts out of the override
        let pinned = dir.join("pinned.spec");
        std::fs::write(
            &pinned,
            "; UNSUPPORTED: target\n; RUN: specc %s\n; CHECK: func f\n\
             func f() -> i64 {\nentry:\n  ret 0\n}\n",
        )
        .unwrap();
        assert!(matches!(run_case(&pinned, ov), CaseOutcome::Skip(s) if s == "target"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unsupported_skips_named_overrides_only() {
        let text = "; UNSUPPORTED: audit-spec\n; RUN: specc %s\n; CHECK: func f\nfunc f() -> i64 {\nentry:\n  ret 0\n}\n";
        let case = parse_spec(text).unwrap();
        assert_eq!(case.unsupported, ["audit-spec"]);
        // unknown override names are a parse error, not a silent comment
        let bad = text.replace("audit-spec", "audit-specs");
        assert!(parse_spec(&bad).unwrap_err().contains("unknown override"));
    }

    #[test]
    fn missing_run_is_an_error_and_missing_checks_fail_at_run_time() {
        assert!(parse_spec("func f() {\nentry:\n  ret\n}\n").is_err());
        // no checks: parses (so `spectest --dump` works on it) but has none
        let case = parse_spec("; RUN: specc %s\nfunc f() {\nentry:\n  ret\n}\n").unwrap();
        assert!(case.directives.is_empty());
    }
}
