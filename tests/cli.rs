//! End-to-end tests of the `specc` compiler driver.

use std::io::Write;
use std::process::Command;

const KERNEL: &str = r#"
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
  store.i64 [p], acc
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

fn write_kernel() -> tempfile_path::TempPath {
    tempfile_path::TempPath::new("specc_kernel", ".ir", KERNEL)
}

/// Minimal self-contained temp-file helper (no extra dependencies).
mod tempfile_path {
    pub struct TempPath(pub std::path::PathBuf);

    impl TempPath {
        pub fn new(stem: &str, ext: &str, content: &str) -> TempPath {
            let mut p = std::env::temp_dir();
            let unique = format!(
                "{stem}_{}_{}{ext}",
                std::process::id(),
                std::thread::current()
                    .name()
                    .unwrap_or("t")
                    .replace("::", "_")
            );
            p.push(unique);
            let mut f = std::fs::File::create(&p).expect("create temp file");
            use std::io::Write;
            f.write_all(content.as_bytes()).expect("write temp file");
            TempPath(p)
        }

        pub fn as_str(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }
}

fn specc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_specc"))
}

#[test]
fn compiles_and_simulates_speculatively() {
    let input = write_kernel();
    // trained on --args (the training run is the reference run), and on
    // other arguments (a bare reference run on --args comes first)
    for train in [&[][..], &["--train-args", "1,100"][..]] {
        let out = specc()
            .args([
                input.as_str(),
                "--args",
                "0,100",
                "--spec",
                "profile",
                "--control",
                "static",
                "--sim",
            ])
            .args(train)
            .output()
            .expect("spawn specc");
        assert!(
            out.status.success(),
            "{train:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("result               = Some(I(700))"), "{err}");
        assert!(err.contains("failed checks        = 0"), "{err}");
    }
}

#[test]
fn emits_optimized_ir_with_checks() {
    let input = write_kernel();
    let out = specc()
        .args([
            input.as_str(),
            "--args",
            "0,50",
            "--spec",
            "profile",
            "--control",
            "static",
        ])
        .output()
        .expect("spawn specc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let ir = String::from_utf8_lossy(&out.stdout);
    assert!(ir.contains("ldc.i64") || ir.contains("chks.i64"), "{ir}");
    // the emitted IR must re-parse
    specframe::ir::parse_module(&ir).expect("emitted IR re-parses");
}

#[test]
fn emits_speculative_ssa_dump() {
    let input = write_kernel();
    let out = specc()
        .args([input.as_str(), "--args", "0,10", "--emit", "hssa"])
        .output()
        .expect("spawn specc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let dump = String::from_utf8_lossy(&out.stdout);
    assert!(dump.contains("hssa func kern"), "{dump}");
    assert!(dump.contains("chi"), "{dump}");
}

#[test]
fn run_detects_results() {
    let input = write_kernel();
    let out = specc()
        .args([
            input.as_str(),
            "--args",
            "1,10",
            "--spec",
            "heuristic",
            "--control",
            "static",
            "--run",
        ])
        .output()
        .expect("spawn specc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    // sel=1: p really aliases a, so acc doubles each iteration (7 * 2^9)
    assert!(err.contains("result = Some(I(3584))"), "{err}");
}

#[test]
fn jobs_and_time_passes() {
    let input = write_kernel();
    // jobs=1 and jobs=4 must emit byte-identical IR
    let run_with_jobs = |jobs: &str| {
        let out = specc()
            .args([
                input.as_str(),
                "--args",
                "0,50",
                "--spec",
                "heuristic",
                "--control",
                "static",
                "--jobs",
                jobs,
                "--time-passes",
            ])
            .output()
            .expect("spawn specc");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (ir1, err1) = run_with_jobs("1");
    let (ir4, err4) = run_with_jobs("4");
    assert_eq!(ir1, ir4, "--jobs must not change the emitted IR");
    for err in [&err1, &err4] {
        assert!(err.contains("=== pass timings (target: epic) ==="), "{err}");
        assert!(err.contains("ssapre"), "{err}");
        assert!(err.contains("lower(epic)"), "{err}");
        assert!(err.contains("dom computes"), "{err}");
    }
}

#[test]
fn help_documents_jobs() {
    let out = specc().arg("--help").output().expect("spawn specc");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jobs"), "{err}");
    assert!(err.contains("--time-passes"), "{err}");
}

#[test]
fn bad_input_fails_cleanly() {
    let input = tempfile_path::TempPath::new("specc_bad", ".ir", "func oops {");
    let out = specc().arg(input.as_str()).output().expect("spawn specc");
    // parse errors are exit-code family 2
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("specc:"), "{err}");
}

/// Counts `i` up to `n` in a loop back to the entry block.
const ENTRY_LOOP: &str = r#"
func main(n: i64) -> i64 {
  var i: i64
  var c: i64
entry:
  i = add i, 1
  c = lt i, n
  br c, entry, done
done:
  ret i
}
"#;

#[test]
fn a_branch_to_the_entry_block_is_a_verify_error() {
    // the entry block has no predecessors, so the φ placement that rests
    // on it never sees a loop back to the entry: the verifier rejects one
    let input = tempfile_path::TempPath::new("specc_entry_loop", ".ir", ENTRY_LOOP);
    let out = specc()
        .args([input.as_str(), "--args", "5", "--run"])
        .output()
        .expect("spawn specc");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("branch to the entry block `entry`"), "{err}");
}

/// A program whose every run spins until its fuel runs out.
const SPIN: &str = "func main() -> i64 {\nentry:\n  jmp spin\nspin:\n  jmp spin\n}\n";

#[test]
fn a_loop_of_empty_blocks_runs_out_of_fuel() {
    // terminators spend fuel too, so the reference run cannot spin forever
    let input = tempfile_path::TempPath::new("specc_spin", ".ir", SPIN);
    let out = specc()
        .args([input.as_str(), "--entry", "main", "--run"])
        .output()
        .expect("spawn specc");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "{err}");
    assert!(err.contains("out of fuel"), "{err}");
}

#[test]
fn a_training_run_on_the_reference_args_fails_as_the_reference_run() {
    // profile-guided and trained on --args: the training run is the
    // reference run, and its failure reads like the bare run's; an input
    // that does not run has no failing compile for --reduce to shrink
    let input = tempfile_path::TempPath::new("specc_spin_sim", ".ir", SPIN);
    for mode in ["--sim", "--reduce"] {
        let out = specc()
            .args([input.as_str(), "--spec", "profile", "--control", "profile"])
            .arg(mode)
            .output()
            .expect("spawn specc");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(3), "{mode}: {err}");
        assert!(err.contains("reference run failed"), "{mode}: {err}");
        assert!(err.contains("out of fuel"), "{mode}: {err}");
        assert!(out.stdout.is_empty(), "{mode}");
    }
}

#[test]
fn emit_hssa_runs_no_reference_run() {
    // the dump reads no run's result, so a program that cannot run dumps
    let input = tempfile_path::TempPath::new("specc_spin_hssa", ".ir", SPIN);
    let out = specc()
        .args([input.as_str(), "--entry", "main", "--emit", "hssa"])
        .args(["--spec", "heuristic"])
        .output()
        .expect("spawn specc");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    let dump = String::from_utf8_lossy(&out.stdout);
    assert!(dump.contains("hssa func main"), "{dump}");
}

/// `tests/golden/refine-fold.spec`'s module: refinement folds `q` to `@g`.
const REFINE_FOLD: &str = r#"
global g: i64[1] = [9]
global h: i64[1]

func f(sel: i64) -> i64 {
  var q: ptr
  var x: i64
entry:
  q = @g
  x = load.i64 [q]
  ret x
}
"#;

#[test]
fn emit_hssa_prints_the_refined_form() {
    // the optimizer reads the load as a direct reference to `g`, with no
    // μ list over `q`'s virtual variable
    let input = tempfile_path::TempPath::new("specc_refine_fold", ".ir", REFINE_FOLD);
    let out = specc()
        .args([input.as_str(), "--entry", "f", "--emit", "hssa"])
        .args(["--spec", "heuristic", "--control", "static"])
        .output()
        .expect("spawn specc");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    let dump = String::from_utf8_lossy(&out.stdout);
    assert!(
        dump.contains("x1 = load.i64 [@g + 0]  (reads g0)"),
        "{dump}"
    );
    assert!(!dump.contains("mu_s"), "{dump}");
}

#[test]
fn explain_spec_explains_the_refined_form() {
    // refinement folds `q` to `@g`, so the load the optimizer reads is a
    // direct reference with no μ list left to flag
    let input = tempfile_path::TempPath::new("specc_refine_explain", ".ir", REFINE_FOLD);
    let out = specc()
        .args([
            input.as_str(),
            "--entry",
            "f",
            "--explain-spec",
            "-o",
            "/dev/null",
        ])
        .args(["--spec", "heuristic", "--control", "static"])
        .output()
        .expect("spawn specc");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(
        table.contains("func f:\n  (no speculative sites)\n"),
        "{table}"
    );
    assert!(!table.contains("mu flagged"), "{table}");
}

/// Counts up to its argument.
const COUNT: &str = r#"
func main(n: i64) -> i64 {
  var i: i64
  var c: i64
entry:
  i = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  i = add i, 1
  jmp head
exit:
  ret i
}
"#;

#[test]
fn a_compile_stopped_before_ssapre_trains_no_edge_profile() {
    // only SSAPRE reads the edge profile, so this compile trains nothing,
    // and `--sim` compares against a reference run of its own
    let input = tempfile_path::TempPath::new("specc_count", ".ir", COUNT);
    let out = specc()
        .args([input.as_str(), "--args", "4", "--spec", "heuristic"])
        .args(["--control", "profile", "--stop-after", "hssa", "--sim"])
        .output()
        .expect("spawn specc");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(err.contains("result               = Some(I(4))"), "{err}");
}

#[test]
fn emit_hssa_reads_the_given_alias_profile() {
    // a usable profile spares the training run, which could not finish on
    // this input; an unusable one degrades to the heuristic rules, with the
    // compile's warning, and does not train either
    let input = tempfile_path::TempPath::new("specc_spin_hssa_prof", ".ir", SPIN);
    for (profile, warns) in [
        ("specframe-alias-profile v1\nend\n", false),
        ("specframe-alias-profile v1\nsite 0 count", true),
    ] {
        let prof = tempfile_path::TempPath::new("specc_spin_hssa", ".aprof", profile);
        let out = specc()
            .args([input.as_str(), "--spec", "profile", "--control", "static"])
            .args(["--alias-profile", prof.as_str(), "--emit", "hssa"])
            .output()
            .expect("spawn specc");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{profile:?}: {err}");
        assert!(
            String::from_utf8_lossy(&out.stdout).contains("hssa func main"),
            "{profile:?}"
        );
        assert_eq!(
            err.contains("alias profile unusable"),
            warns,
            "{profile:?}: {err}"
        );
    }
}

#[test]
fn a_plain_compile_runs_no_reference_run() {
    // nothing compares against a reference result, so a compile needs no
    // arguments that `main` could run on
    let input = write_kernel();
    let out = specc()
        .args([input.as_str(), "--spec", "heuristic", "--control", "static"])
        .output()
        .expect("spawn specc");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("func kern"));
}

#[test]
fn unknown_flag_reports_usage() {
    let out = specc().arg("--frobnicate").output().expect("spawn specc");
    // usage errors are exit-code family 1
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown option"));
}

#[test]
fn unknown_flag_values_are_usage_errors_before_any_work() {
    let input = write_kernel();
    for (args, want) in [
        (&["--emit", "bogus"][..], "unknown --emit `bogus`"),
        (
            &["--spec", "bogus", "--emit", "hssa"][..],
            "unknown --spec `bogus`",
        ),
        (&["--control=bogus"][..], "unknown --control `bogus`"),
        (&["--sim=yes"][..], "--sim takes no value"),
    ] {
        let out = specc()
            .arg(input.as_str())
            .args(args)
            .output()
            .expect("spawn specc");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn fault_policies_report_per_policy_counters() {
    let input = write_kernel();
    let out = specc()
        .args([
            input.as_str(),
            "--args",
            "0,100",
            "--spec",
            "profile",
            "--control",
            "static",
            "--sim",
            "--fault-policy",
            "always-miss",
            "--fault-policy",
            "random:3",
            "--fault-policy",
            "flash-clear",
        ])
        .output()
        .expect("spawn specc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    for policy in ["always-miss", "random:3", "flash-clear"] {
        assert!(
            err.contains(&format!("fault policy         = {policy}")),
            "missing {policy} block in {err}"
        );
    }
    // every policy produced the same (correct) result
    assert_eq!(
        err.matches("result               = Some(I(700))").count(),
        3
    );
    // an ALAT that never hits forces a recovery per check load
    assert!(err.contains("alat fault kills"), "{err}");
}

#[test]
fn bad_fault_policy_is_usage_error() {
    let input = write_kernel();
    // an evict-at schedule without a positive tick would print a name
    // that does not parse back
    for policy in ["bogus", "evict-at:0"] {
        let out = specc()
            .args([input.as_str(), "--sim", "--fault-policy", policy])
            .output()
            .expect("spawn specc");
        assert_eq!(out.status.code(), Some(1), "{policy}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("fault policy"), "{policy}: {err}");
    }
}

#[test]
fn fault_policy_without_sim_is_rejected() {
    let input = write_kernel();
    let out = specc()
        .args([input.as_str(), "--fault-policy", "always-miss"])
        .output()
        .expect("spawn specc");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn injected_spec_failure_recovers_with_warning() {
    let input = write_kernel();
    let out = specc()
        .args([
            input.as_str(),
            "--args",
            "0,50",
            "--spec",
            "heuristic",
            "--control",
            "static",
            "--run",
            "--inject-spec-fail",
            "kern",
        ])
        .output()
        .expect("spawn specc");
    // recovery succeeded: the module still compiles and runs correctly
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("specc: warning:"), "{err}");
    assert!(err.contains("recompiled without speculation"), "{err}");
    assert!(err.contains("result = Some(I(350))"), "{err}");
}

#[test]
fn injected_fallback_failure_exits_4() {
    let input = write_kernel();
    let out = specc()
        .args([
            input.as_str(),
            "--args",
            "0,50",
            "--spec",
            "heuristic",
            "--control",
            "static",
            "--inject-spec-fail",
            "kern",
            "--inject-fallback-fail",
            "kern",
        ])
        .output()
        .expect("spawn specc");
    assert_eq!(
        out.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("non-speculative fallback also failed"),
        "{err}"
    );
}

/// One loop over a global: every `--inject-corrupt` stage has a φ
/// argument to break.
const KERN: &str = r#"
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

/// Without `--verify-each`, an injected corruption (an unrenamed `u32::MAX`
/// φ argument) runs through every later pass, cleanup included, and only
/// the final HSSA verification catches it: a corrupted `hssa` stage falls
/// back to the non-speculative compile, a corrupted optional pass is
/// rolled back. Either way the module runs to the reference result.
#[test]
fn injected_corruption_without_verify_each_is_caught_at_verify() {
    let input = tempfile_path::TempPath::new("specc_kern", ".ir", KERN);
    let failed = "specc: warning: func `kern` [verify]: speculative compilation failed \
                  (unrenamed phi arg in block 1); ";
    for (pass, recovery, result) in [
        (
            "hssa",
            "recompiled without speculation",
            "(loads 20 checks 0 stores 0)",
        ),
        (
            "ssapre",
            "rolled back pass `ssapre` for this function and re-ran the remaining pipeline",
            "(loads 20 checks 0 stores 0)",
        ),
        (
            "strength",
            "rolled back pass `strength` for this function and re-ran the remaining pipeline",
            "(loads 1 checks 20 stores 0)",
        ),
        (
            "lftr",
            "rolled back pass `lftr` for this function and re-ran the remaining pipeline",
            "(loads 1 checks 20 stores 0)",
        ),
    ] {
        let out = specc()
            .args([
                input.as_str(),
                "--entry",
                "kern",
                "--args",
                "20",
                "--spec",
                "heuristic",
                "--control",
                "static",
                "--run",
                "--inject-corrupt",
                &format!("kern:{pass}"),
            ])
            .output()
            .expect("spawn specc");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{pass}: {err}");
        assert!(out.stdout.is_empty(), "{pass}");
        assert_eq!(
            err,
            format!("{failed}{recovery}\nresult = Some(I(100))  {result}\n"),
            "{pass}"
        );
    }
}

/// A block nothing jumps to, reading and redefining a register: the
/// compile drops it and runs, under every data-speculation source.
#[test]
fn a_dead_block_is_dropped_under_every_spec() {
    let input = tempfile_path::TempPath::new(
        "specc_dead",
        ".ir",
        "func main(x: i64) -> i64 {\nentry:\n  ret x\ndead:\n  x = add x, 2\n  ret x\n}\n",
    );
    for spec in ["none", "heuristic", "aggressive", "profile"] {
        let out = specc()
            .args([
                input.as_str(),
                "--entry",
                "main",
                "--args",
                "3",
                "--spec",
                spec,
                "--control",
                "static",
                "--run",
            ])
            .output()
            .expect("spawn specc");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{spec}: {err}");
        assert!(err.contains("result = Some(I(3))"), "{spec}: {err}");
    }
}

#[test]
fn alias_profile_saves_reloads_and_degrades() {
    let input = write_kernel();
    let mut prof_path = std::env::temp_dir();
    prof_path.push(format!("specc_prof_{}.aprof", std::process::id()));
    let prof = prof_path.to_str().unwrap();

    // 1. train and save
    let out = specc()
        .args([
            input.as_str(),
            "--args",
            "0,50",
            "--spec",
            "profile",
            "--control",
            "static",
            "--save-alias-profile",
            prof,
        ])
        .output()
        .expect("spawn specc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let saved = std::fs::read_to_string(&prof_path).expect("profile written");
    assert!(saved.starts_with("specframe-alias-profile v1"), "{saved}");

    // 2. reload: same optimized IR as a fresh training run, no warnings
    let recompile = |extra: &[&str]| {
        let mut args = vec![
            input.as_str(),
            "--args",
            "0,50",
            "--spec",
            "profile",
            "--control",
            "static",
        ];
        args.extend_from_slice(extra);
        specc().args(&args).output().expect("spawn specc")
    };
    let fresh = recompile(&[]);
    let reloaded = recompile(&["--alias-profile", prof]);
    assert!(reloaded.status.success());
    assert!(!String::from_utf8_lossy(&reloaded.stderr).contains("warning"));
    assert_eq!(
        fresh.stdout, reloaded.stdout,
        "profile reload changed the IR"
    );

    // 3. corrupt the profile: compile degrades to heuristics with warning
    std::fs::write(&prof_path, "specframe-alias-profile v1\nsite 0 count").unwrap();
    let degraded = recompile(&["--alias-profile", prof]);
    assert!(
        degraded.status.success(),
        "{}",
        String::from_utf8_lossy(&degraded.stderr)
    );
    let err = String::from_utf8_lossy(&degraded.stderr);
    assert!(err.contains("specc: warning:"), "{err}");
    assert!(err.contains("falling back to heuristic"), "{err}");
    let _ = std::fs::remove_file(&prof_path);
}

#[test]
fn save_alias_profile_needs_a_compile_that_reads_one() {
    // O3 with edge-profiled control speculation collects no alias profile
    let input = write_kernel();
    let mut prof_path = std::env::temp_dir();
    prof_path.push(format!("specc_o3_prof_{}.aprof", std::process::id()));
    let out = specc()
        .args([input.as_str(), "--args", "0,50", "--spec", "none"])
        .args(["--control", "profile", "--save-alias-profile"])
        .arg(&prof_path)
        .output()
        .expect("spawn specc");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("--save-alias-profile needs --spec profile (no profile was collected)"),
        "{err}"
    );
    assert!(!prof_path.exists(), "{} written", prof_path.display());
}

#[test]
fn write_to_output_file() {
    let input = write_kernel();
    let mut outpath = std::env::temp_dir();
    outpath.push(format!("specc_out_{}.ir", std::process::id()));
    let out = specc()
        .args([
            input.as_str(),
            "--args",
            "0,10",
            "--spec",
            "none",
            "--control",
            "off",
            "-o",
            outpath.to_str().unwrap(),
        ])
        .output()
        .expect("spawn specc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let written = std::fs::read_to_string(&outpath).expect("output written");
    assert!(written.contains("func kern"));
    let _ = std::fs::remove_file(&outpath);
    // keep the borrow checker quiet about the Write import used in the helper
    let _ = std::io::sink().write(b"");
}

#[test]
fn target_flips_explain_spec_verdicts_and_lowering() {
    let input = write_kernel();
    let explain = |target: &str| {
        let out = specc()
            .args([
                input.as_str(),
                "--args",
                "0,10",
                "--spec",
                "heuristic",
                "--target",
                target,
                "--explain-spec",
                "-o",
                "/dev/null",
            ])
            .output()
            .expect("spawn specc");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let epic = explain("epic");
    assert!(epic.contains("target: epic"), "{epic}");
    assert!(epic.contains("i64 load 2c -> speculate"), "{epic}");
    let swr = explain("swr");
    assert!(swr.contains("target: swr"), "{swr}");
    assert!(swr.contains("i64 load 2c -> keep"), "{swr}");
    assert!(swr.contains("f64 load 9c -> speculate"), "{swr}");

    // and the lowering actually follows the verdict: the swr machine code
    // of the same kernel carries no ALAT instructions for the i64 load
    let out = specc()
        .args([
            input.as_str(),
            "--args",
            "0,10",
            "--spec",
            "heuristic",
            "--target",
            "swr",
            "--emit",
            "mach",
        ])
        .output()
        .expect("spawn specc");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mach = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(!mach.contains("ld.a"), "{mach}");
    assert!(!mach.contains("ld.sa"), "{mach}");
    assert!(!mach.contains("ld.c"), "{mach}");
    assert!(!mach.contains("chk"), "{mach}");

    let out = specc()
        .args([
            input.as_str(),
            "--args",
            "0,10",
            "--spec",
            "heuristic",
            "--emit",
            "mach",
        ])
        .output()
        .expect("spawn specc");
    let mach = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(mach.contains("ld.sa"), "{mach}");
    assert!(mach.contains("ld.c"), "{mach}");
}

#[test]
fn unknown_target_is_a_usage_error() {
    let input = write_kernel();
    let out = specc()
        .args([input.as_str(), "--target", "vliw"])
        .output()
        .expect("spawn specc");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown --target"), "{err}");
}
