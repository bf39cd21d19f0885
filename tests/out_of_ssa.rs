//! Out-of-SSA lowering, end to end: each register version lives in its
//! variable's home register unless it interferes with a version already
//! placed there, φ copies whose ends share a register vanish, and a
//! module's own check keeps the register of the load it validates.

use specframe::ir::display::print_module;
use specframe::ir::{Inst, Operand};
use specframe::prelude::*;
use std::process::Command;

/// The number of `var` lines `m` prints.
fn var_lines(m: &Module) -> usize {
    print_module(m)
        .lines()
        .filter(|l| l.trim_start().starts_with("var "))
        .count()
}

#[test]
fn mega_versions_coalesce_into_their_home_registers() {
    let mut m = parse_module(&mega_source(42, 200)).expect("mega source parses");
    prepare_module(&mut m);
    let input_vars = var_lines(&m);
    let opts = OptOptions {
        data: SpecSource::Heuristic,
        control: ControlSpec::Static,
        strength_reduction: true,
        lftr: true,
        store_sinking: false,
        target: Default::default(),
    };
    let hooks = PipelineHooks::default();
    let (report, _) = try_optimize_cached(&mut m, &opts, &PipelineConfig { jobs: 1 }, &hooks, None)
        .expect("optimize");
    assert!(report.stats.temps > 0, "the corpus promotes expressions");
    assert_eq!(report.stats.strength_reduced, 0);
    // no version needed a register of its own: the output declares the
    // input's variables and the PRE temporaries, nothing else
    assert_eq!(var_lines(&m), input_vars + report.stats.temps as usize);
    for f in &m.funcs {
        for inst in f.blocks.iter().flat_map(|b| &b.insts) {
            if let Inst::Copy {
                dst,
                src: Operand::Var(src),
            } = inst
            {
                assert_ne!(dst, src, "`{}` keeps a self copy", f.name);
            }
        }
    }
    let printed = print_module(&m);
    let reparsed = parse_module(&printed).expect("the output re-parses");
    verify_module(&reparsed).expect("the output verifies");
}

fn specc_on(stem: &str, src: &str, args: &[&str]) -> std::process::Output {
    let path = std::env::temp_dir().join(format!("{stem}_{}.ir", std::process::id()));
    std::fs::write(&path, src).expect("write input");
    let out = Command::new(env!("CARGO_BIN_EXE_specc"))
        .arg(&path)
        .args(args)
        .output()
        .expect("spawn specc");
    let _ = std::fs::remove_file(&path);
    out
}

/// Copy propagation makes two versions of one register overlap, and the
/// one lowering meets second keeps a register of its own. In a straight
/// line `b` becomes the first version of `a`, still live where the second
/// is defined. In a loop `j` becomes the header φ's version of `i`, still
/// live after the increment (the lost-copy shape), so the φ copies move
/// `i` into the φ's register. The fresh register's name `a.2` is taken
/// when the input declares it, as an earlier compile's output may, and so
/// is an optimizer temporary's name `pre0`: the promoted load of `@g`
/// goes into `pre0.1`.
#[test]
fn an_interfering_version_keeps_a_register_of_its_own() {
    let straight = "func main(n: i64) -> i64 {
  var a: i64
  var b: i64
  var c: i64
entry:
  a = add n, 1
  b = a
  a = add a, 2
  c = add b, a
  ret c
}
";
    let looped = "func main(n: i64) -> i64 {
  var i: i64
  var j: i64
  var c: i64
entry:
  i = 0
  jmp head
head:
  j = i
  i = add i, 1
  c = lt i, n
  br c, head, exit
exit:
  ret j
}
";
    let named = straight
        .replace("  var c: i64\n", "  var c: i64\n  var a.2: i64\n")
        .replace("entry:\n", "entry:\n  a.2 = 100\n")
        .replace("  ret c\n", "  c = add c, a.2\n  ret c\n");
    let temporary = "global g: i64[1] = [5]

func main(n: i64) -> i64 {
  var pre0: i64
  var x: i64
  var y: i64
entry:
  pre0 = add n, 1
  x = load.i64 [@g]
  y = load.i64 [@g]
  x = add x, y
  x = add x, pre0
  ret x
}
";
    let cases: [(&str, &str, &[&str]); 4] = [
        (
            straight,
            "result = Some(I(14))",
            &[
                "var a.2: i64",
                "a = add n, 1",
                "a.2 = add a, 2",
                "c = add a, a.2",
            ],
        ),
        (
            looped,
            "result = Some(I(4))",
            &["var i.2: i64", "i.2 = i", "i = add i.2, 1", "ret i.2"],
        ),
        (
            &named,
            "result = Some(I(114))",
            &["var a.2.1: i64", "a.2.1 = add a, 2", "c = add a, a.2.1"],
        ),
        (
            temporary,
            "result = Some(I(16))",
            &[
                "var pre0.1: i64",
                "pre0.1 = load.i64 [@g]",
                "x = add x, pre0",
            ],
        ),
    ];
    let flags = ["--spec", "none", "--control", "off"];
    for (src, result, lines) in cases {
        let run = specc_on(
            "interfering_versions",
            src,
            &[&flags[..], &["--run", "--args", "5"]].concat(),
        );
        let err = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{err}");
        assert!(err.contains(result), "{err}");
        let out = specc_on("interfering_versions", src, &flags);
        let ir = String::from_utf8_lossy(&out.stdout);
        for line in lines {
            assert!(ir.contains(line), "no `{line}` in\n{ir}");
        }
    }
}

/// The adjacent pairs of `tests/golden/check-pair-registers.spec`, alone
/// in their module so the speculation auditor sees only them: each check
/// shares its load's register, so it passes the audit and never fails.
#[test]
fn a_modules_own_check_pairs_pass_the_speculation_audit() {
    let src = "global a: i64[1] = [7]

func nat_pair() -> i64 {
  var v: i64
entry:
  v = load.s.i64 [@a]
  v = chks.i64 [@a]
  ret v
}

func alat_pair() -> i64 {
  var v: i64
entry:
  v = load.a.i64 [@a]
  v = ldc.i64 [@a]
  ret v
}
";
    for target in ["epic", "swr"] {
        for entry in ["nat_pair", "alat_pair"] {
            let out = specc_on(
                "check_pairs",
                src,
                &[
                    "--entry",
                    entry,
                    "--spec",
                    "none",
                    "--control",
                    "off",
                    "--sim",
                    "--audit-spec",
                    "--target",
                    target,
                ],
            );
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "{target} {entry}: {err}");
            assert!(
                err.contains("result               = Some(I(7))"),
                "{target} {entry}: {err}"
            );
            assert!(
                err.contains("failed checks        = 0"),
                "{target} {entry}: {err}"
            );
        }
    }
}
