//! # specframe-codegen
//!
//! Code generation: lowering `specframe-ir` modules onto a
//! `specframe-machine` speculation target. This is the stage where the
//! paper's speculation annotations become real instructions; *how* is the
//! active [`SpecTarget`]'s decision:
//!
//! | IR | EPIC (`epic`) | software-checked (`swr`) |
//! |----|---------------|--------------------------|
//! | `load`            | `ld`   | `ld` |
//! | `load.a`          | `ld.a` (ALAT entry) | `ld.a` + recorded address/epoch shadows |
//! | `load.s`          | `ld.sa` (deferred faults + ALAT) | `ld.sa` + shadows |
//! | `ldc` (checkload) | `ld.c` (free on ALAT hit) | compare + `chk.cmp` + recovery branch |
//! | `chks`            | NaT check with inline reload | NaT check (unchanged — register-file property) |
//!
//! Each IR instruction lowers to a *sequence* of machine instructions
//! (one, on `epic`); branch labels inside a sequence are
//! sequence-relative and rebased at emission, so only the lowering hooks
//! themselves may generate intra-sequence branches.
//!
//! Registers stay virtual (no allocator); global addresses are resolved to
//! link-time constants using the same layout the reference interpreter
//! uses, so the two execution engines are address-compatible and can be
//! co-simulated in tests.

use specframe_ir::{CheckKind, Function, Inst, LoadSpec, Module, Operand, Terminator, Value};
use specframe_machine::isa::{ChkKind, LdKind, MFunc, MInst, MOperand, MProgram, Reg};
use specframe_machine::target::{SpecFrame, SpecTarget, TargetId};

/// Lowers a whole module to a machine program for the default (`epic`)
/// target.
pub fn lower_module(m: &Module) -> MProgram {
    lower_module_for(m, TargetId::Epic.spec())
}

/// Lowers a whole module to a machine program for `target`.
pub fn lower_module_for(m: &Module, target: &dyn SpecTarget) -> MProgram {
    let layout = m.global_layout();
    let globals_end = layout
        .last()
        .map(|&b| b + i64::from(m.globals.last().unwrap().words))
        .unwrap_or(Module::GLOBAL_BASE);

    let mut global_image = Vec::new();
    for (gi, g) in m.globals.iter().enumerate() {
        for (w, v) in g.init.iter().enumerate() {
            global_image.push((layout[gi] + w as i64, *v));
        }
        // typed zero fill so f64 cells read back as floats even when only
        // partially initialized
        for w in g.init.len()..g.words as usize {
            global_image.push((layout[gi] + w as i64, Value::zero(g.ty)));
        }
    }

    let funcs = m
        .funcs
        .iter()
        .map(|f| lower_function_machine_for(f, &layout, target))
        .collect();

    MProgram {
        funcs,
        global_image,
        globals_end,
    }
}

fn operand(o: Operand, layout: &[i64]) -> MOperand {
    match o {
        Operand::Var(v) => MOperand::R(Reg(v.0)),
        Operand::ConstI(c) => MOperand::I(c),
        Operand::ConstF(c) => MOperand::F(c),
        Operand::GlobalAddr(g) => MOperand::I(layout[g.index()]),
        Operand::SlotAddr(s) => MOperand::SlotAddr(s.0),
    }
}

/// Lowers one function against a precomputed global address layout
/// (`Module::global_layout`) for `target`. Public so the driver's
/// `--audit-spec` hook can machine-lower a single function inside a
/// per-function worker, without the (partially moved-out) module in hand.
/// Each IR instruction lowers to one target-chosen instruction sequence;
/// block starts and branch labels are derived from the concatenated
/// sequence lengths, and sequence-relative branches emitted by lowering
/// hooks are rebased onto the flat stream.
pub fn lower_function_machine_for(f: &Function, layout: &[i64], target: &dyn SpecTarget) -> MFunc {
    // software speculation bookkeeping (epoch + shadow registers) is only
    // threaded through functions that actually speculate
    let speculates = f.blocks.iter().flat_map(|b| &b.insts).any(|i| match i {
        Inst::Load { spec, .. } => !matches!(spec, LoadSpec::Normal),
        Inst::CheckLoad { kind, .. } => matches!(kind, CheckKind::Alat),
        _ => false,
    });
    let mut fr = SpecFrame::new(
        f.vars.len() as u32,
        target.software_spec_state() && speculates,
    );
    let mut promoted: Vec<Reg> = Vec::new();

    // first pass: lower every instruction to its target sequence (this
    // also fixes the bookkeeping-register allocation order)
    let mut block_seqs: Vec<Vec<Vec<MInst>>> = Vec::with_capacity(f.blocks.len());
    for b in &f.blocks {
        let mut seqs = Vec::with_capacity(b.insts.len());
        for inst in &b.insts {
            let seq = match inst {
                Inst::Bin { dst, op, a, b } => vec![MInst::Alu {
                    d: Reg(dst.0),
                    op: *op,
                    a: operand(*a, layout),
                    b: operand(*b, layout),
                }],
                Inst::Un { dst, op, a } => vec![MInst::Un {
                    d: Reg(dst.0),
                    op: *op,
                    a: operand(*a, layout),
                }],
                Inst::Copy { dst, src } => vec![MInst::Mov {
                    d: Reg(dst.0),
                    s: operand(*src, layout),
                }],
                Inst::Load {
                    dst,
                    base,
                    offset,
                    ty,
                    spec,
                    ..
                } => {
                    let kind = match spec {
                        LoadSpec::Normal => LdKind::Normal,
                        LoadSpec::Advanced => LdKind::Advanced,
                        LoadSpec::Speculative => LdKind::SpecAdvanced,
                    };
                    if kind != LdKind::Normal && !promoted.contains(&Reg(dst.0)) {
                        promoted.push(Reg(dst.0));
                    }
                    target.lower_spec_load(
                        &mut fr,
                        Reg(dst.0),
                        operand(*base, layout),
                        *offset,
                        *ty,
                        kind,
                    )
                }
                Inst::CheckLoad {
                    dst,
                    base,
                    offset,
                    ty,
                    kind,
                    ..
                } => {
                    if !promoted.contains(&Reg(dst.0)) {
                        promoted.push(Reg(dst.0));
                    }
                    target.lower_check(
                        &mut fr,
                        Reg(dst.0),
                        operand(*base, layout),
                        *offset,
                        *ty,
                        match kind {
                            CheckKind::Alat => ChkKind::Alat,
                            CheckKind::Nat => ChkKind::Nat,
                        },
                    )
                }
                Inst::Store {
                    base,
                    offset,
                    val,
                    ty,
                    ..
                } => target.lower_store(
                    &mut fr,
                    operand(*base, layout),
                    *offset,
                    operand(*val, layout),
                    *ty,
                ),
                Inst::Call {
                    dst, callee, args, ..
                } => target.lower_call(
                    &mut fr,
                    dst.map(|d| Reg(d.0)),
                    callee.index(),
                    args.iter().map(|&a| operand(a, layout)).collect(),
                ),
                Inst::Alloc { dst, words, .. } => vec![MInst::Alloc {
                    d: Reg(dst.0),
                    words: operand(*words, layout),
                }],
            };
            seqs.push(seq);
        }
        block_seqs.push(seqs);
    }

    // block start offsets over the lowered sequence lengths
    let mut starts = Vec::with_capacity(f.blocks.len());
    let mut off = 0usize;
    for seqs in &block_seqs {
        starts.push(off);
        off += seqs.iter().map(Vec::len).sum::<usize>() + 1; // + terminator
    }

    // second pass: emit, rebasing sequence-relative branch labels (only
    // lowering hooks produce branches inside a sequence — IR instructions
    // are never terminators)
    let mut code = Vec::with_capacity(off);
    for (b, seqs) in f.blocks.iter().zip(block_seqs) {
        for seq in seqs {
            let base = code.len();
            for mut mi in seq {
                match &mut mi {
                    MInst::Jmp(t) => *t += base,
                    MInst::Br { then_, else_, .. } => {
                        *then_ += base;
                        *else_ += base;
                    }
                    _ => {}
                }
                code.push(mi);
            }
        }
        let term = match &b.term {
            Terminator::Jump(t) => MInst::Jmp(starts[t.index()]),
            Terminator::Br { cond, then_, else_ } => MInst::Br {
                cond: operand(*cond, layout),
                then_: starts[then_.index()],
                else_: starts[else_.index()],
            },
            Terminator::Ret(v) => MInst::Ret(v.map(|v| operand(v, layout))),
        };
        code.push(term);
    }

    MFunc {
        name: f.name.clone(),
        params: f.params,
        regs: fr.regs(),
        slot_words: f.slots.iter().map(|s| s.words).collect(),
        code,
        promoted_regs: promoted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_core::{optimize, ControlSpec, OptOptions, SpecSource};
    use specframe_ir::parse_module;
    use specframe_machine::run_machine;
    use specframe_profile::{run, run_with, AliasProfiler};

    /// Interpreter and machine must agree (co-simulation).
    fn cosim(src: &str, entry: &str, args: &[Value]) -> specframe_machine::Counters {
        let m = parse_module(src).unwrap();
        let (want, istats) = run(&m, entry, args, 10_000_000).unwrap();
        let p = lower_module(&m);
        let (got, c) = run_machine(&p, entry, args, 10_000_000).unwrap();
        assert_eq!(got, want, "machine result diverged from interpreter");
        assert_eq!(
            c.loads_retired, istats.loads,
            "retired loads must match interpreter loads"
        );
        assert_eq!(c.stores, istats.stores);
        c
    }

    #[test]
    fn cosim_loop() {
        let c = cosim(
            r#"
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
"#,
            "f",
            &[Value::I(10)],
        );
        assert_eq!(c.loads_retired, 10);
    }

    #[test]
    fn cosim_heap_and_calls() {
        cosim(
            r#"
func fill(p: ptr, n: i64) {
  var i: i64
  var c: i64
  var q: ptr
entry:
  i = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  q = add p, i
  store.i64 [q], i
  i = add i, 1
  jmp head
exit:
  ret
}

func main(n: i64) -> i64 {
  var p: ptr
  var i: i64
  var c: i64
  var acc: i64
  var q: ptr
  var v: i64
entry:
  p = alloc n
  call fill(p, n)
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  q = add p, i
  v = load.i64 [q]
  acc = add acc, v
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#,
            "main",
            &[Value::I(20)],
        );
    }

    #[test]
    fn cosim_floats_and_slots() {
        cosim(
            r#"
global t: f64[4] = [1.5, 2.5, 3.5, 4.5]

func f() -> f64 {
  var i: i64
  var c: i64
  var acc: f64
  var v: f64
  var q: ptr
  slot tmp: f64[1]
entry:
  i = 0
  acc = 0.0
  jmp head
head:
  c = lt i, 4
  br c, body, exit
body:
  q = add i, @t
  v = load.f64 [q]
  acc = fadd acc, v
  store.f64 [&tmp], acc
  i = add i, 1
  jmp head
exit:
  v = load.f64 [&tmp]
  ret v
}
"#,
            "f",
            &[],
        );
    }

    /// Fenced lowering is architecturally silent: same results, leak-clean.
    #[test]
    fn fenced_lowering_preserves_results() {
        let src = r#"
global a: i64[2] = [17, 5]

func f() -> i64 {
  var p: i64
  var v: i64
entry:
  p = load.a.i64 [@a]
  v = load.i64 [p]
  p = ldc.i64 [@a]
  ret v
}
"#;
        let m = parse_module(src).unwrap();
        let plain = lower_module(&m);
        assert!(
            !specframe_machine::leaks::leak_audit_program(&plain).is_empty(),
            "the windowed address use must be flagged"
        );
        let mut fenced = lower_module(&m);
        let fences = specframe_machine::leaks::fence_program(&mut fenced);
        assert!(fences > 0);
        assert!(specframe_machine::leaks::leak_audit_program(&fenced).is_empty());
        let (want, _) = run_machine(&plain, "f", &[], 10_000).unwrap();
        let (got, c) = run_machine(&fenced, "f", &[], 10_000).unwrap();
        assert_eq!(got, want, "fences must not change architectural results");
        assert_eq!(c.fences_retired, fences);
    }

    /// swr lowering: no ALAT instructions survive, software check
    /// sequences appear, and the architectural results match both the
    /// epic lowering and the reference interpreter — under every fault
    /// policy.
    #[test]
    fn swr_lowering_cosim_audits_and_fault_matrix() {
        use specframe_machine::{run_machine_on, run_machine_with_policy_on};
        let src = r#"
global a: i64[2] = [17, 5]

func f() -> i64 {
  var p: i64
  var v: i64
entry:
  p = load.a.i64 [@a]
  v = load.i64 [p]
  p = ldc.i64 [@a]
  ret v
}
"#;
        let m = parse_module(src).unwrap();
        let swr = TargetId::Swr.spec();
        let pe = lower_module(&m);
        let ps = lower_module_for(&m, swr);
        // the software sequence is visible in the rendering, the ALAT
        // check is gone
        let asm = specframe_machine::render_mprogram(&ps);
        assert!(
            asm.contains("chk.cmp"),
            "swr check sequence expected:\n{asm}"
        );
        assert!(!asm.contains("ld.c"), "no ALAT check load on swr:\n{asm}");
        // both audits hold on the swr-lowered code
        specframe_machine::audit_program(&ps).unwrap();
        let (want, _) = run_machine(&pe, "f", &[], 10_000).unwrap();
        let (got, c) = run_machine_on(&ps, swr, "f", &[], 10_000).unwrap();
        assert_eq!(got, want, "swr result diverged from epic");
        assert_eq!(c.check_loads, 1);
        assert_eq!(c.failed_checks, 0, "no intervening store: check hits");
        for name in specframe_machine::fault_matrix() {
            let pol = specframe_machine::parse_fault_policy(&name).unwrap();
            let (r, c) = run_machine_with_policy_on(&ps, swr, "f", &[], 10_000, pol).unwrap();
            assert_eq!(r, want, "policy {name} changed the swr result");
            assert!(c.failed_checks <= c.check_loads, "policy {name}");
        }
    }

    /// An aliasing store between the swr advanced load and its check must
    /// fail the epoch compare and take the recovery reload.
    #[test]
    fn swr_aliasing_store_takes_recovery_path() {
        use specframe_machine::run_machine_on;
        let src = r#"
global a: i64[1] = [42]

func f() -> i64 {
  var v: i64
entry:
  v = load.a.i64 [@a]
  store.i64 [@a], 99
  v = ldc.i64 [@a]
  ret v
}
"#;
        let m = parse_module(src).unwrap();
        let swr = TargetId::Swr.spec();
        let ps = lower_module_for(&m, swr);
        let (r, c) = run_machine_on(&ps, swr, "f", &[], 10_000).unwrap();
        assert_eq!(r, Some(Value::I(99)), "recovery must reload the store");
        assert_eq!(c.failed_checks, 1, "epoch bump must force the miss");
    }

    /// Leak fencing works on swr machine code: the windowed address use is
    /// flagged, fenced, and the fenced program re-audits clean with the
    /// same architectural result.
    #[test]
    fn swr_fenced_lowering_preserves_results() {
        use specframe_machine::run_machine_on;
        let src = r#"
global a: i64[2] = [17, 5]

func f() -> i64 {
  var p: i64
  var v: i64
entry:
  p = load.a.i64 [@a]
  v = load.i64 [p]
  p = ldc.i64 [@a]
  ret v
}
"#;
        let m = parse_module(src).unwrap();
        let swr = TargetId::Swr.spec();
        let plain = lower_module_for(&m, swr);
        assert!(
            !specframe_machine::leaks::leak_audit_program(&plain).is_empty(),
            "the windowed address use must be flagged on swr too"
        );
        let mut fenced = lower_module_for(&m, swr);
        let fences = specframe_machine::leaks::fence_program(&mut fenced);
        assert!(fences > 0);
        assert!(specframe_machine::leaks::leak_audit_program(&fenced).is_empty());
        let (want, _) = run_machine_on(&plain, swr, "f", &[], 10_000).unwrap();
        let (got, c) = run_machine_on(&fenced, swr, "f", &[], 10_000).unwrap();
        assert_eq!(got, want, "fences must not change architectural results");
        assert_eq!(c.fences_retired, fences);
    }

    /// The full paper pipeline on the machine: optimize speculatively, then
    /// measure the load reduction, the check ratio and a zero
    /// mis-speculation ratio when the profile holds.
    #[test]
    fn speculative_pipeline_on_machine() {
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
        let m0 = parse_module(src).unwrap();
        let mut prepared = m0.clone();
        specframe_core::prepare_module(&mut prepared);
        let args = [Value::I(0), Value::I(100)];
        let (want, _) = run(&prepared, "main", &args, 10_000_000).unwrap();

        let mut ap = AliasProfiler::new();
        run_with(&prepared, "main", &args, 10_000_000, &mut ap).unwrap();
        let aprof = ap.finish();

        // baseline: control speculation only (ORC O3)
        let mut base = prepared.clone();
        optimize(
            &mut base,
            &OptOptions {
                control: ControlSpec::Static,
                ..Default::default()
            },
        );
        let pb = lower_module(&base);
        let (rb, cb) = run_machine(&pb, "main", &args, 10_000_000).unwrap();
        assert_eq!(rb, want);

        // speculative: data + control
        let mut spec = prepared.clone();
        optimize(
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
        let ps = lower_module(&spec);
        let (rs, cs) = run_machine(&ps, "main", &args, 10_000_000).unwrap();
        assert_eq!(rs, want);

        assert!(
            cs.loads_retired < cb.loads_retired,
            "speculation must reduce retired loads: {} -> {}",
            cb.loads_retired,
            cs.loads_retired
        );
        assert!(cs.check_loads > 0, "checks must appear");
        assert_eq!(
            cs.failed_checks, 0,
            "profile holds at run time: no mis-speculation"
        );
        assert!(
            cs.cycles < cb.cycles,
            "fewer loads must mean fewer cycles: {} -> {}",
            cb.cycles,
            cs.cycles
        );

        // deploy on the aliasing input: correctness via failed checks
        let alias_args = [Value::I(1), Value::I(100)];
        let (want2, _) = run(&prepared, "main", &alias_args, 10_000_000).unwrap();
        let (rs2, cs2) = run_machine(&ps, "main", &alias_args, 10_000_000).unwrap();
        assert_eq!(rs2, want2, "mis-speculated run must stay correct");
        assert!(
            cs2.failed_checks > 0,
            "aliasing input must fail checks: {cs2:?}"
        );
        assert!(cs2.mis_speculation_ratio() > 0.5);
    }
}
