//! # specframe-codegen
//!
//! Code generation: lowering `specframe-ir` modules onto a
//! `specframe-machine` speculation target. This is the stage where the
//! paper's speculation annotations become real instructions. One path
//! lowers for every target; the one fact it reads off the target's row is
//! whether it has an ALAT ([`Target::has_alat`]):
//!
//! | IR | with an ALAT (`epic`) | without (`swr`) |
//! |----|---------------|--------------------------|
//! | `load`            | `ld`   | `ld` |
//! | `load.a`          | `ld.a` (ALAT entry) | `ld.a` + recorded address/epoch shadows |
//! | `load.s`          | `ld.sa` (deferred faults + ALAT) | `ld.sa` + shadows |
//! | `ldc` (checkload) | `ld.c` (free on ALAT hit) | compare + `chk.cmp` + recovery branch |
//! | `chks`            | NaT check with inline reload | NaT check (unchanged — register-file property) |
//! | `store`, `call`   | `st`, `call` | `st`, `call` + epoch bump |
//!
//! Without an ALAT, only a function that speculates keeps the software
//! state (the epoch and shadow registers); every other function lowers
//! one instruction to one, as on `epic`.
//!
//! Registers stay virtual (no allocator); global addresses are resolved to
//! link-time constants using the same layout the reference interpreter
//! uses, so the two execution engines are address-compatible and can be
//! co-simulated in tests.

use std::collections::BTreeMap;

use specframe_ir::{
    BinOp, CheckKind, Function, Inst, LoadSpec, Module, Operand, Terminator, Ty, Value,
};
use specframe_machine::isa::{ChkKind, LdKind, MFunc, MInst, MOperand, MProgram, Reg};
use specframe_machine::target::{Target, TargetId};

/// Lowers a whole module to a machine program for the default (`epic`)
/// target.
pub fn lower_module(m: &Module) -> MProgram {
    lower_module_for(m, TargetId::Epic.spec())
}

/// Lowers a whole module to a machine program for `target`.
pub fn lower_module_for(m: &Module, target: &Target) -> MProgram {
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

/// Per-function speculation state.
///
/// On a target without an ALAT, a function that speculates keeps its
/// speculation bookkeeping in registers numbered after its own: an *epoch*
/// register bumped after every store and call, and for each speculative
/// destination a pair of shadow registers holding the address and epoch
/// its advanced load recorded. Everywhere else (`software == false`) the
/// frame allocates nothing and every instruction lowers to itself.
struct SpecFrame {
    software: bool,
    /// The first bookkeeping register; allocated, and zeroed by the calling
    /// convention like every other register, only when `software`.
    epoch: Reg,
    next_reg: u32,
    shadows: BTreeMap<u32, (Reg, Reg)>,
    /// One bank of scratch registers `[t0, t1, t2, t3, tc]` for check
    /// sequences, allocated at the first one. Check sequences are
    /// straight-line, so every check site shares it.
    scratch: Option<[Reg; 5]>,
}

impl SpecFrame {
    /// A frame for a function with `regs` registers.
    fn new(regs: u32, software: bool) -> Self {
        SpecFrame {
            software,
            epoch: Reg(regs),
            next_reg: regs + u32::from(software),
            shadows: BTreeMap::new(),
            scratch: None,
        }
    }

    /// `n` fresh registers; the first of them.
    fn fresh(&mut self, n: u32) -> u32 {
        let r = self.next_reg;
        self.next_reg += n;
        r
    }

    /// The `(recorded address, recorded epoch)` shadow pair for
    /// speculative destination `d` (allocated on first use).
    fn shadow(&mut self, d: Reg) -> (Reg, Reg) {
        if let Some(&pair) = self.shadows.get(&d.0) {
            return pair;
        }
        let a = self.fresh(2);
        let pair = (Reg(a), Reg(a + 1));
        self.shadows.insert(d.0, pair);
        pair
    }

    fn scratch(&mut self) -> [Reg; 5] {
        if let Some(s) = self.scratch {
            return s;
        }
        let base = self.fresh(5);
        let s = std::array::from_fn(|i| Reg(base + i as u32));
        self.scratch = Some(s);
        s
    }

    /// Lowers a load. A speculative load with software state keeps the
    /// load itself as it is on `epic` (so the speculation auditor's
    /// provenance and NaT-check address pairing carry over) and records
    /// the effective address *before* it (`d` may alias the base
    /// register) and the current epoch after it.
    fn lower_load(
        &mut self,
        code: &mut Vec<MInst>,
        d: Reg,
        base: MOperand,
        off: i64,
        ty: Ty,
        kind: LdKind,
    ) {
        let ld = MInst::Ld {
            d,
            base,
            off,
            ty,
            kind,
        };
        if !self.software || kind == LdKind::Normal {
            code.push(ld);
            return;
        }
        let (a_d, e_d) = self.shadow(d);
        code.extend([
            MInst::Alu {
                d: a_d,
                op: BinOp::Add,
                a: base,
                b: MOperand::I(off),
            },
            ld,
            MInst::Mov {
                d: e_d,
                s: MOperand::R(self.epoch),
            },
        ]);
    }

    /// Lowers a check load. With software state an ALAT check re-derives
    /// the address, compares address and epoch with the load's shadows,
    /// and on a mismatch falls into an inline recovery reload that also
    /// refreshes the shadows; a hit branches past it. A NaT check keeps
    /// the hardware shape everywhere: NaT deferral is a register-file
    /// property, not an ALAT one.
    fn lower_check(
        &mut self,
        code: &mut Vec<MInst>,
        d: Reg,
        base: MOperand,
        off: i64,
        ty: Ty,
        kind: ChkKind,
    ) {
        if !self.software || kind == ChkKind::Nat {
            code.push(MInst::Chk {
                d,
                base,
                off,
                ty,
                kind,
            });
            return;
        }
        let (a_d, e_d) = self.shadow(d);
        let [t0, t1, t2, t3, tc] = self.scratch();
        let ep = self.epoch;
        let at = code.len();
        code.extend([
            MInst::Alu {
                d: t0,
                op: BinOp::Add,
                a: base,
                b: MOperand::I(off),
            },
            MInst::Alu {
                d: t1,
                op: BinOp::Eq,
                a: MOperand::R(t0),
                b: MOperand::R(a_d),
            },
            MInst::Alu {
                d: t2,
                op: BinOp::Eq,
                a: MOperand::R(ep),
                b: MOperand::R(e_d),
            },
            MInst::Alu {
                d: t3,
                op: BinOp::And,
                a: MOperand::R(t1),
                b: MOperand::R(t2),
            },
            MInst::ChkCmp {
                d: tc,
                val: d,
                cond: MOperand::R(t3),
            },
            MInst::Br {
                cond: MOperand::R(tc),
                then_: at + 9,
                else_: at + 6,
            },
            MInst::Ld {
                d,
                base: MOperand::R(t0),
                off: 0,
                ty,
                kind: LdKind::Recovery,
            },
            MInst::Mov {
                d: a_d,
                s: MOperand::R(t0),
            },
            MInst::Mov {
                d: e_d,
                s: MOperand::R(ep),
            },
        ]);
    }

    /// Emits a store or a call, then, with software state, bumps the
    /// epoch: the store, or any store in the callee, may overwrite what an
    /// outstanding advanced load read, so every one is invalidated.
    fn bump_epoch_after(&mut self, code: &mut Vec<MInst>, mi: MInst) {
        code.push(mi);
        if self.software {
            code.push(MInst::Alu {
                d: self.epoch,
                op: BinOp::Add,
                a: MOperand::R(self.epoch),
                b: MOperand::I(1),
            });
        }
    }
}

/// Lowers one function against a precomputed global address layout
/// (`Module::global_layout`) for `target`. Public so the driver's
/// `--audit-spec` hook can machine-lower a single function inside a
/// per-function worker, without the (partially moved-out) module in hand.
/// Terminators are emitted with block indices as labels and rebased onto
/// the block starts once every block is placed.
pub fn lower_function_machine_for(f: &Function, layout: &[i64], target: &Target) -> MFunc {
    // software speculation bookkeeping (epoch + shadow registers) is only
    // threaded through functions that actually speculate
    let speculates = f.blocks.iter().flat_map(|b| &b.insts).any(|i| match i {
        Inst::Load { spec, .. } => !matches!(spec, LoadSpec::Normal),
        Inst::CheckLoad { kind, .. } => matches!(kind, CheckKind::Alat),
        _ => false,
    });
    let mut fr = SpecFrame::new(f.vars.len() as u32, !target.has_alat && speculates);
    let mut promoted: Vec<Reg> = Vec::new();
    let mut code = Vec::with_capacity(f.blocks.iter().map(|b| b.insts.len() + 1).sum());
    let mut starts = Vec::with_capacity(f.blocks.len());
    let mut terms = Vec::with_capacity(f.blocks.len());
    for b in &f.blocks {
        starts.push(code.len());
        for inst in &b.insts {
            match inst {
                Inst::Bin { dst, op, a, b } => code.push(MInst::Alu {
                    d: Reg(dst.0),
                    op: *op,
                    a: operand(*a, layout),
                    b: operand(*b, layout),
                }),
                Inst::Un { dst, op, a } => code.push(MInst::Un {
                    d: Reg(dst.0),
                    op: *op,
                    a: operand(*a, layout),
                }),
                Inst::Copy { dst, src } => code.push(MInst::Mov {
                    d: Reg(dst.0),
                    s: operand(*src, layout),
                }),
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
                    let base = operand(*base, layout);
                    fr.lower_load(&mut code, Reg(dst.0), base, *offset, *ty, kind);
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
                    let kind = match kind {
                        CheckKind::Alat => ChkKind::Alat,
                        CheckKind::Nat => ChkKind::Nat,
                    };
                    let base = operand(*base, layout);
                    fr.lower_check(&mut code, Reg(dst.0), base, *offset, *ty, kind);
                }
                Inst::Store {
                    base,
                    offset,
                    val,
                    ty,
                    ..
                } => {
                    let st = MInst::St {
                        base: operand(*base, layout),
                        off: *offset,
                        val: operand(*val, layout),
                        ty: *ty,
                    };
                    fr.bump_epoch_after(&mut code, st);
                }
                Inst::Call {
                    dst, callee, args, ..
                } => {
                    let call = MInst::Call {
                        d: dst.map(|d| Reg(d.0)),
                        func: callee.index(),
                        args: args.iter().map(|&a| operand(a, layout)).collect(),
                    };
                    fr.bump_epoch_after(&mut code, call);
                }
                Inst::Alloc { dst, words, .. } => code.push(MInst::Alloc {
                    d: Reg(dst.0),
                    words: operand(*words, layout),
                }),
            }
        }
        terms.push(code.len());
        code.push(match &b.term {
            Terminator::Jump(t) => MInst::Jmp(t.index()),
            Terminator::Br { cond, then_, else_ } => MInst::Br {
                cond: operand(*cond, layout),
                then_: then_.index(),
                else_: else_.index(),
            },
            Terminator::Ret(v) => MInst::Ret(v.map(|v| operand(v, layout))),
        });
    }
    for t in terms {
        match &mut code[t] {
            MInst::Jmp(to) => *to = starts[*to],
            MInst::Br { then_, else_, .. } => {
                *then_ = starts[*then_];
                *else_ = starts[*else_];
            }
            _ => {}
        }
    }

    MFunc {
        name: f.name.clone(),
        params: f.params,
        regs: fr.next_reg,
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
        for pol in specframe_machine::fault_matrix() {
            let (r, c) = run_machine_with_policy_on(&ps, swr, "f", &[], 10_000, &pol).unwrap();
            assert_eq!(r, want, "policy {pol:?} changed the swr result");
            assert!(c.failed_checks <= c.check_loads, "policy {pol:?}");
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

    /// The oracle prices a successful check at the target's
    /// `check_overhead`; the check sequence lowered here must cost exactly
    /// that in the simulator. Nothing else ties the number in the
    /// target's row to the instructions this crate emits.
    #[test]
    fn a_hit_check_costs_the_targets_check_overhead() {
        use specframe_machine::run_machine_on;
        let src = r#"
global a: i64[1] = [7]

func main() -> i64 {
  var v: i64
entry:
  v = load.a.i64 [@a]
  v = ldc.i64 [@a]
  ret v
}
"#;
        let checked = parse_module(src).unwrap();
        let unchecked = parse_module(&src.replace("  v = ldc.i64 [@a]\n", "")).unwrap();
        for id in TargetId::ALL {
            let t = id.spec();
            let run = |m: &Module| {
                run_machine_on(&lower_module_for(m, t), t, "main", &[], 1_000).unwrap()
            };
            let (r1, c1) = run(&checked);
            let (r0, c0) = run(&unchecked);
            assert_eq!(r1, Some(Value::I(7)), "{}", t.name);
            assert_eq!(r0, r1, "{}", t.name);
            assert_eq!((c1.check_loads, c1.failed_checks), (1, 0), "{}", t.name);
            assert_eq!(c1.cycles - c0.cycles, t.check_overhead, "{}", t.name);
        }
    }

    #[test]
    fn without_software_state_every_instruction_lowers_to_itself() {
        let mut fr = SpecFrame::new(4, false);
        let mut code = Vec::new();
        let base = MOperand::R(Reg(1));
        fr.lower_load(&mut code, Reg(0), base, 8, Ty::I64, LdKind::Advanced);
        fr.lower_check(&mut code, Reg(0), base, 8, Ty::I64, ChkKind::Alat);
        let st = MInst::St {
            base,
            off: 0,
            val: MOperand::I(3),
            ty: Ty::I64,
        };
        fr.bump_epoch_after(&mut code, st);
        let call = MInst::Call {
            d: None,
            func: 0,
            args: vec![],
        };
        fr.bump_epoch_after(&mut code, call);
        assert_eq!(code.len(), 4);
        assert_eq!(fr.next_reg, 4, "no bookkeeping registers");
    }

    #[test]
    fn a_software_spec_load_records_its_address_before_the_load() {
        let mut fr = SpecFrame::new(2, true);
        let mut code = Vec::new();
        let base = MOperand::R(Reg(1));
        fr.lower_load(&mut code, Reg(0), base, 8, Ty::I64, LdKind::Advanced);
        assert_eq!(code.len(), 3);
        assert!(
            matches!(code[0], MInst::Alu { op: BinOp::Add, .. }),
            "address recorded first"
        );
        assert!(
            matches!(
                code[1],
                MInst::Ld {
                    d: Reg(0),
                    kind: LdKind::Advanced,
                    ..
                }
            ),
            "the load itself is unchanged"
        );
        // plain loads pass through untouched even with software state
        fr.lower_load(&mut code, Reg(0), base, 8, Ty::I64, LdKind::Normal);
        assert_eq!(code.len(), 4);
    }

    #[test]
    fn a_software_check_is_a_compare_and_a_recovery_branch() {
        let mut fr = SpecFrame::new(2, true);
        let mut code = Vec::new();
        let base = MOperand::R(Reg(1));
        fr.lower_load(&mut code, Reg(0), base, 8, Ty::I64, LdKind::Advanced);
        fr.lower_check(&mut code, Reg(0), base, 8, Ty::I64, ChkKind::Alat);
        let check = &code[3..];
        assert_eq!(check.len(), 9);
        assert!(matches!(check[4], MInst::ChkCmp { val: Reg(0), .. }));
        // the labels are absolute: a hit skips the recovery, a miss falls in
        assert!(matches!(
            check[5],
            MInst::Br {
                then_: 12,
                else_: 9,
                ..
            }
        ));
        assert!(matches!(
            check[6],
            MInst::Ld {
                kind: LdKind::Recovery,
                ..
            }
        ));
        // NaT checks keep the hardware shape
        fr.lower_check(&mut code, Reg(0), base, 8, Ty::I64, ChkKind::Nat);
        assert_eq!(code.len(), 13);
    }

    #[test]
    fn software_stores_and_calls_bump_the_epoch() {
        let mut fr = SpecFrame::new(2, true);
        let mut code = Vec::new();
        let st = MInst::St {
            base: MOperand::R(Reg(1)),
            off: 0,
            val: MOperand::I(3),
            ty: Ty::I64,
        };
        fr.bump_epoch_after(&mut code, st);
        let call = MInst::Call {
            d: Some(Reg(0)),
            func: 0,
            args: vec![MOperand::I(1)],
        };
        fr.bump_epoch_after(&mut code, call);
        assert_eq!(code.len(), 4);
        for bump in [&code[1], &code[3]] {
            assert!(matches!(
                bump,
                MInst::Alu {
                    d: Reg(2),
                    op: BinOp::Add,
                    ..
                }
            ));
        }
    }

    #[test]
    fn a_frame_reuses_shadows_and_scratch() {
        let mut fr = SpecFrame::new(10, true);
        assert_eq!(fr.epoch, Reg(10), "the epoch is the first register");
        assert_eq!(fr.shadow(Reg(3)), fr.shadow(Reg(3)));
        assert_eq!(fr.scratch(), fr.scratch());
        assert_eq!(fr.next_reg, 10 + 1 + 2 + 5);
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
