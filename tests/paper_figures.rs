//! Every illustrative figure of the paper as an executable test.
//!
//! Figure / example index:
//! * Figure 1 — control speculation hides load latency (`ld.s` + check);
//! * Figure 2 — redundancy elimination with data speculation
//!   (`ld.a`/`ld.c`);
//! * Example 1 (§3.1) — the speculative SSA form's χs/μs flags;
//! * Figure 5 — the three occurrence relationships (redundant / not /
//!   speculatively redundant);
//! * Figure 6 — enhanced Φ-insertion exposes speculative anticipation;
//! * Figure 7 — enhanced renaming assigns the same h-version across a
//!   speculative weak update;
//! * Figure 8 — CodeMotion emits the advanced-load flag and the check.

use specframe::ir::{CheckKind, Inst, LoadSpec};
use specframe::prelude::*;

/// Profiles `m` on `args`, optimizes a copy with data+control speculation,
/// and returns (baseline module, speculative module).
fn compile_both(src: &str, train: &[Value]) -> (Module, Module) {
    let mut m = parse_module(src).expect("parse");
    prepare_module(&mut m);
    let t = specframe::profile::train(&m, "main", train, 10_000_000).unwrap();
    let (aprof, eprof) = (t.alias, t.edges);

    let mut base = m.clone();
    optimize(
        &mut base,
        &OptOptions {
            data: SpecSource::None,
            control: ControlSpec::Profile(&eprof),
            strength_reduction: false,
            lftr: false,
            store_sinking: false,
            target: Default::default(),
        },
    );
    let mut spec = m.clone();
    optimize(
        &mut spec,
        &OptOptions {
            data: SpecSource::Profile(&aprof),
            control: ControlSpec::Profile(&eprof),
            strength_reduction: false,
            lftr: false,
            store_sinking: false,
            target: Default::default(),
        },
    );
    (base, spec)
}

fn count_insts(m: &Module, f: &str, pred: impl Fn(&Inst) -> bool) -> usize {
    let fid = m.func_by_name(f).unwrap();
    m.func(fid)
        .blocks
        .iter()
        .flat_map(|b| b.insts.iter())
        .filter(|i| pred(i))
        .count()
}

/// Figure 1: `if (c) x = *y` with a hot taken path — the load is hoisted
/// above the branch as a control-speculative load.
#[test]
fn fig1_control_speculation_hoists_load() {
    let src = r#"
global y: i64[1] = [5]

func main(n: i64) -> i64 {
  var i: i64
  var c: i64
  var cc: i64
  var x: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  cc = mod i, 16
  cc = ne cc, 0
  br cc, taken, skip
taken:
  x = load.i64 [@y]
  acc = add acc, x
  jmp latch
skip:
  acc = add acc, 1
  jmp latch
latch:
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#;
    let args = [Value::I(64)];
    // figure 1 contrasts *control speculation itself*: compile once with
    // it off and once with it on (no data speculation in either)
    let mut m = parse_module(src).unwrap();
    prepare_module(&mut m);
    let mut ep = EdgeProfiler::new();
    run_with(&m, "main", &args, 10_000_000, &mut ep).unwrap();
    let eprof = ep.finish();
    let mut base = m.clone();
    optimize(
        &mut base,
        &OptOptions {
            data: SpecSource::None,
            control: ControlSpec::Off,
            strength_reduction: false,
            lftr: false,
            store_sinking: false,
            target: Default::default(),
        },
    );
    let mut spec = m.clone();
    optimize(
        &mut spec,
        &OptOptions {
            data: SpecSource::None,
            control: ControlSpec::Profile(&eprof),
            strength_reduction: false,
            lftr: false,
            store_sinking: false,
            target: Default::default(),
        },
    );

    // the speculative binary contains an ld.s (or the load moved into an
    // always-executed position guarded by a NaT check)
    let spec_loads = count_insts(&spec, "main", |i| {
        matches!(
            i,
            Inst::Load {
                spec: LoadSpec::Speculative,
                ..
            }
        )
    });
    let nat_checks = count_insts(&spec, "main", |i| {
        matches!(
            i,
            Inst::CheckLoad {
                kind: CheckKind::Nat,
                ..
            }
        )
    });
    assert!(
        spec_loads + nat_checks > 0,
        "control speculation must fire:\n{}",
        specframe::ir::display::print_module(&spec)
    );

    // dynamic effect: fewer real loads, same result
    let pb = lower_module(&base);
    let ps = lower_module(&spec);
    let (rb, cb) = run_machine(&pb, "main", &args, 1_000_000).unwrap();
    let (rs, cs) = run_machine(&ps, "main", &args, 1_000_000).unwrap();
    assert_eq!(rb, rs);
    assert!(
        cs.loads_retired < cb.loads_retired,
        "hoisting must reduce loads: {} -> {}",
        cb.loads_retired,
        cs.loads_retired
    );
}

/// Figure 2: `= *p; *q = …; = *p` — with the profile saying p and q never
/// alias, the second load becomes `ld.c` and the first `ld.a`.
#[test]
fn fig2_data_speculation_removes_redundant_load() {
    let src = r#"
global a: i64[4] = [10, 20, 30, 40]
global b: i64[4]

func kern(p: ptr, q: ptr) -> i64 {
  var x: i64
  var y: i64
entry:
  x = load.i64 [p]
  store.i64 [q], 99
  y = load.i64 [p]
  x = add x, y
  ret x
}

func main(sel: i64) -> i64 {
  var r: i64
  var q: ptr
entry:
  br sel, ua, ub
ua:
  q = @a
  jmp go
ub:
  q = @b
  jmp go
go:
  r = call kern(@a, q)
  ret r
}
"#;
    let (_base, spec) = compile_both(src, &[Value::I(0)]);

    let advanced = count_insts(&spec, "kern", |i| {
        matches!(
            i,
            Inst::Load {
                spec: LoadSpec::Advanced,
                ..
            }
        )
    });
    let checks = count_insts(&spec, "kern", |i| {
        matches!(
            i,
            Inst::CheckLoad {
                kind: CheckKind::Alat,
                ..
            }
        )
    });
    let plain_loads = count_insts(&spec, "kern", |i| {
        matches!(
            i,
            Inst::Load {
                spec: LoadSpec::Normal,
                ..
            }
        )
    });
    assert_eq!(
        advanced,
        1,
        "first load becomes ld.a:\n{}",
        specframe::ir::display::print_module(&spec)
    );
    assert_eq!(checks, 1, "second load becomes ld.c");
    assert_eq!(plain_loads, 0, "no plain load of *p remains in kern");

    // non-aliasing run: check succeeds; aliasing run: stays correct
    let prog = lower_module(&spec);
    let (r0, c0) = run_machine(&prog, "main", &[Value::I(0)], 100_000).unwrap();
    assert_eq!(r0, Some(Value::I(20)));
    assert_eq!(c0.failed_checks, 0);
    let (r1, c1) = run_machine(&prog, "main", &[Value::I(1)], 100_000).unwrap();
    assert_eq!(r1, Some(Value::I(109)), "aliasing run: 10 + 99");
    assert_eq!(c1.failed_checks, 1, "the check must catch the alias");
}

/// Example 1 (§3.1): χs on the profiled alias, weak χ on the other.
#[test]
fn example1_speculative_ssa_flags() {
    let src = r#"
global a: i64[1]
global b: i64[1]

func ex1(p: ptr) -> i64 {
  var x: i64
  var y: i64
entry:
  store.i64 [@a], 1
  store.i64 [@b], 2
  store.i64 [p], 4
  x = load.i64 [@a]
  y = load.i64 [p]
  x = add x, y
  ret x
}

func main(sel: i64) -> i64 {
  var q: ptr
  var r: i64
entry:
  br sel, ua, ub
ua:
  q = @a
  jmp go
ub:
  q = @b
  jmp go
go:
  r = call ex1(q)
  ret r
}
"#;
    let m = parse_module(src).unwrap();
    let aa = AliasAnalysis::analyze(&m);
    let mut ap = AliasProfiler::new();
    run_with(&m, "main", &[Value::I(0)], 100_000, &mut ap).unwrap();
    let aprof = ap.finish();
    let fid = m.func_by_name("ex1").unwrap();
    let f = m.func(fid);
    let fa = FuncAnalyses::compute(f);
    let oracle = Likeliness::new(SpecSource::Profile(&aprof));
    let hf = build_hssa(&m.globals, f, fid, &aa, &oracle, &fa);
    let dump = print_hssa(&m.globals, &func_name_table(&m), f, &hf);
    // the *p store: chi_s over b (observed), weak chi over a (not observed)
    assert!(dump.contains("b2 <- chi_s(b1)"), "{dump}");
    assert!(dump.contains("a2 <- chi(a1)"), "{dump}");
    // the *p load: mu_s over b, weak mu over a
    assert!(dump.contains("mu_s(b2)"), "{dump}");
    assert!(dump.contains("mu(a"), "{dump}");
}

/// Figure 5(c): an occurrence separated from its first computation only by
/// a speculative weak update is *speculatively redundant* — same h-version
/// plus a check — while the baseline treats it as not redundant.
#[test]
fn fig5_speculatively_redundant_occurrence() {
    let src = r#"
global a: i64[1] = [3]
global b: i64[1]

func kern(p: ptr) -> i64 {
  var x: i64
  var y: i64
entry:
  x = load.i64 [@a]
  store.i64 [p], 7
  y = load.i64 [@a]
  x = add x, y
  ret x
}

func main(sel: i64) -> i64 {
  var q: ptr
  var r: i64
entry:
  br sel, ua, ub
ua:
  q = @a
  jmp go
ub:
  q = @b
  jmp go
go:
  r = call kern(q)
  ret r
}
"#;
    let (base, spec) = compile_both(src, &[Value::I(0)]);
    // baseline: both loads of `a` survive (the may-alias kills redundancy)
    let base_loads = count_insts(&base, "kern", |i| matches!(i, Inst::Load { .. }));
    assert_eq!(base_loads, 2, "baseline keeps both loads");
    // speculative: one ld.a + one ld.c
    let spec_loads = count_insts(&spec, "kern", |i| matches!(i, Inst::Load { .. }));
    let spec_checks = count_insts(&spec, "kern", |i| matches!(i, Inst::CheckLoad { .. }));
    assert_eq!(spec_loads, 1, "one real load remains");
    assert_eq!(spec_checks, 1, "the second becomes a check");
}

/// Figure 6: the merge point whose expression is killed only by a weak
/// update becomes *speculatively anticipated*, enabling PRE across the
/// diamond.
#[test]
fn fig6_enhanced_phi_insertion() {
    let src = r#"
global a: i64[1] = [11]
global b: i64[1]

func kern(p: ptr, sel: i64) -> i64 {
  var x: i64
  var y: i64
entry:
  x = load.i64 [@a]
  br sel, wr, nw
wr:
  store.i64 [p], 5
  jmp merge
nw:
  x = add x, 1
  jmp merge
merge:
  y = load.i64 [@a]
  x = add x, y
  ret x
}

func main(sel: i64, wsel: i64) -> i64 {
  var q: ptr
  var r: i64
entry:
  br sel, ua, ub
ua:
  q = @a
  jmp go
ub:
  q = @b
  jmp go
go:
  r = call kern(q, wsel)
  ret r
}
"#;
    // train: q = &b (no aliasing), taking the store path
    let (base, spec) = compile_both(src, &[Value::I(0), Value::I(1)]);
    let base_loads = count_insts(&base, "kern", |i| matches!(i, Inst::Load { .. }));
    let spec_loads = count_insts(&spec, "kern", |i| matches!(i, Inst::Load { .. }));
    let spec_checks = count_insts(&spec, "kern", |i| matches!(i, Inst::CheckLoad { .. }));
    assert_eq!(base_loads, 2, "baseline reloads at the merge");
    assert!(
        spec_loads < 2 && spec_checks >= 1,
        "speculation turns the merge load into a check: loads={spec_loads} checks={spec_checks}\n{}",
        specframe::ir::display::print_module(&spec)
    );
    // both paths still compute correctly, including the aliasing deploy
    let prog = lower_module(&spec);
    for sel in [0i64, 1] {
        for wsel in [0i64, 1] {
            let m0 = parse_module(src).unwrap();
            let (want, _) = run(&m0, "main", &[Value::I(sel), Value::I(wsel)], 100_000).unwrap();
            let (got, _) =
                run_machine(&prog, "main", &[Value::I(sel), Value::I(wsel)], 100_000).unwrap();
            assert_eq!(got, want, "sel={sel} wsel={wsel}");
        }
    }
}

/// Figure 7: renaming assigns the same h-version across the weak update —
/// observable as zero *plain* reloads of the second occurrence (it reloads
/// from the temporary instead of from memory).
#[test]
fn fig7_enhanced_renaming() {
    // same program as fig5; here we check the machine-level effect: the
    // speculative version does strictly fewer memory loads per call
    let src = r#"
global a: i64[1] = [3]
global b: i64[1]

func kern(p: ptr) -> i64 {
  var x: i64
  var y: i64
entry:
  x = load.i64 [@a]
  store.i64 [p], 7
  y = load.i64 [@a]
  x = add x, y
  ret x
}

func main(sel: i64) -> i64 {
  var q: ptr
  var r: i64
entry:
  br sel, ua, ub
ua:
  q = @a
  jmp go
ub:
  q = @b
  jmp go
go:
  r = call kern(q)
  ret r
}
"#;
    let (base, spec) = compile_both(src, &[Value::I(0)]);
    let (rb, cb) = run_machine(&lower_module(&base), "main", &[Value::I(0)], 100_000).unwrap();
    let (rs, cs) = run_machine(&lower_module(&spec), "main", &[Value::I(0)], 100_000).unwrap();
    assert_eq!(rb, rs);
    assert_eq!(cb.loads_retired, 2);
    assert_eq!(cs.loads_retired, 1);
    assert_eq!(cs.check_loads, 1);
    assert_eq!(cs.failed_checks, 0);
}

/// Figure 8: the final output carries the advance-load flag on the saving
/// load and a check statement at the speculative reload — visible in the
/// printed IR as `load.a` and `ldc`.
#[test]
fn fig8_codemotion_output_shape() {
    let src = r#"
global a: i64[1] = [3]
global b: i64[1]

func kern(p: ptr) -> i64 {
  var x: i64
  var y: i64
entry:
  x = load.i64 [@a]
  store.i64 [p], 7
  y = load.i64 [@a]
  x = add x, y
  ret x
}

func main(sel: i64) -> i64 {
  var q: ptr
  var r: i64
entry:
  br sel, ua, ub
ua:
  q = @a
  jmp go
ub:
  q = @b
  jmp go
go:
  r = call kern(q)
  ret r
}
"#;
    let (_base, spec) = compile_both(src, &[Value::I(0)]);
    let printed = specframe::ir::display::print_module(&spec);
    assert!(printed.contains("load.a.i64 [@a]"), "{printed}");
    assert!(printed.contains("ldc.i64 [@a]"), "{printed}");
}
