//! Out-of-SSA lowering.
//!
//! Converts an (optimized) [`HssaFunc`] back into executable base IR:
//! every `(register, version)` pair becomes a distinct IR register, register
//! φs become copies in predecessor blocks (sequentialized as parallel
//! copies), and the ghost machinery — memory/virtual variables, their φs,
//! χ/μ operators — is erased. Statements synthesized by the optimizer (site
//! [`FRESH_SITE`]) receive fresh module-unique memory sites.
//!
//! The CFG must have critical edges split before lowering whenever a block
//! with φs has a predecessor with several successors; the driver in
//! `specframe-core` guarantees this.

use crate::hvar::HVarKind;
use crate::stmt::{HOperand, HStmtKind, HTerm, HssaFunc, FRESH_SITE};
use specframe_ir::{Block, Function, Inst, MemSiteId, Operand, Terminator, VarDecl, VarId};
use specframe_ir::{FxHashMap, FxHashSet};

/// First placeholder id handed out by [`lower_function`] for statements the
/// optimizer synthesized (site [`FRESH_SITE`]). Placeholders are function
/// local — the k-th fresh statement in instruction-encounter order gets
/// `LOCAL_FRESH_BASE + k` — and must be rewritten to module-unique sites via
/// [`resolve_fresh_sites`] before the function is spliced back into a
/// module. The band below `FRESH_SITE` is far above any real site id.
pub const LOCAL_FRESH_BASE: u32 = u32::MAX - (1 << 24);

/// Rewrites the local fresh-site placeholders of a [`lower_function`] result
/// to module-unique ids starting at `first`, preserving encounter order.
pub fn resolve_fresh_sites(f: &mut Function, first: MemSiteId) {
    for b in &mut f.blocks {
        for inst in &mut b.insts {
            if let Inst::Load { site, .. }
            | Inst::CheckLoad { site, .. }
            | Inst::Store { site, .. } = inst
            {
                if site.0 >= LOCAL_FRESH_BASE {
                    *site = MemSiteId(first.0 + (site.0 - LOCAL_FRESH_BASE));
                }
            }
        }
    }
}

/// Lowers `hf` into a standalone [`Function`] without touching any module
/// state, so the parallel driver can run it with each worker owning exactly
/// one function. Optimizer-synthesized statements receive deterministic
/// local placeholder sites (`LOCAL_FRESH_BASE + k`, in instruction-encounter
/// order); the second return is the placeholder count. The caller splices
/// the function back in index order and calls [`resolve_fresh_sites`] with a
/// module-unique base, which reproduces the serial numbering bit for bit.
pub fn lower_function(base: &Function, hf: &HssaFunc) -> (Function, u32) {
    // variable table: original registers (version 0 keeps its id), optimizer
    // temps, then fresh ids for higher versions on demand
    let mut vars: Vec<VarDecl> = base.vars.clone();
    for (name, ty) in &hf.new_vars {
        vars.push(VarDecl {
            name: name.clone(),
            ty: *ty,
        });
    }
    let mut map: FxHashMap<(u32, u32), VarId> = FxHashMap::default();
    for i in 0..vars.len() as u32 {
        map.insert((i, 0), VarId(i));
    }
    let collapsed: FxHashSet<VarId> = hf.collapsed_vars.iter().copied().collect();
    let mut resolve = |v: VarId, ver: u32, vars: &mut Vec<VarDecl>| -> VarId {
        // collapsed registers (PRE temporaries) ignore versions entirely:
        // one home register per promoted expression
        if collapsed.contains(&v) {
            return v;
        }
        *map.entry((v.0, ver)).or_insert_with(|| {
            let d = &vars[v.index()];
            let nv = VarId::from_index(vars.len());
            let name = format!("{}.{}", d.name, ver);
            let ty = d.ty;
            vars.push(VarDecl { name, ty });
            nv
        })
    };

    let lower_opnd = |o: HOperand,
                      vars: &mut Vec<VarDecl>,
                      resolve: &mut dyn FnMut(VarId, u32, &mut Vec<VarDecl>) -> VarId|
     -> Operand {
        match o {
            HOperand::Reg(v, ver) => Operand::Var(resolve(v, ver, vars)),
            HOperand::ConstI(c) => Operand::ConstI(c),
            HOperand::ConstF(c) => Operand::ConstF(c),
            HOperand::GlobalAddr(g) => Operand::GlobalAddr(g),
            HOperand::SlotAddr(s) => Operand::SlotAddr(s),
        }
    };

    // translate statements block by block
    let block_names: Vec<String> = base.blocks.iter().map(|b| b.name.clone()).collect();
    let slots = base.slots.clone();
    let params = base.params;
    let ret_ty = base.ret_ty;
    let name = base.name.clone();

    // optimizer-synthesized statements get local placeholder sites in
    // instruction-encounter order; resolve_fresh_sites maps them to
    // module-unique ids at the driver's deterministic join point
    let mut fresh_count: u32 = 0;

    let mut blocks: Vec<Block> = Vec::with_capacity(hf.blocks.len());
    for (bi, hb) in hf.blocks.iter().enumerate() {
        let mut insts = Vec::with_capacity(hb.stmts.len());
        for s in &hb.stmts {
            let inst = match &s.kind {
                HStmtKind::Bin { dst, op, a, b } => Inst::Bin {
                    dst: resolve(dst.0, dst.1, &mut vars),
                    op: *op,
                    a: lower_opnd(*a, &mut vars, &mut resolve),
                    b: lower_opnd(*b, &mut vars, &mut resolve),
                },
                HStmtKind::Un { dst, op, a } => Inst::Un {
                    dst: resolve(dst.0, dst.1, &mut vars),
                    op: *op,
                    a: lower_opnd(*a, &mut vars, &mut resolve),
                },
                HStmtKind::Copy { dst, src } => Inst::Copy {
                    dst: resolve(dst.0, dst.1, &mut vars),
                    src: lower_opnd(*src, &mut vars, &mut resolve),
                },
                HStmtKind::Load {
                    dst,
                    base,
                    offset,
                    ty,
                    spec,
                    site,
                    ..
                } => Inst::Load {
                    dst: resolve(dst.0, dst.1, &mut vars),
                    base: lower_opnd(*base, &mut vars, &mut resolve),
                    offset: *offset,
                    ty: *ty,
                    spec: *spec,
                    site: if *site == FRESH_SITE {
                        fresh_count += 1;
                        MemSiteId(LOCAL_FRESH_BASE + (fresh_count - 1))
                    } else {
                        *site
                    },
                },
                HStmtKind::CheckLoad {
                    dst,
                    base,
                    offset,
                    ty,
                    kind,
                    site,
                    ..
                } => Inst::CheckLoad {
                    dst: resolve(dst.0, dst.1, &mut vars),
                    base: lower_opnd(*base, &mut vars, &mut resolve),
                    offset: *offset,
                    ty: *ty,
                    kind: *kind,
                    site: if *site == FRESH_SITE {
                        fresh_count += 1;
                        MemSiteId(LOCAL_FRESH_BASE + (fresh_count - 1))
                    } else {
                        *site
                    },
                },
                HStmtKind::Store {
                    base,
                    offset,
                    val,
                    ty,
                    site,
                    ..
                } => Inst::Store {
                    base: lower_opnd(*base, &mut vars, &mut resolve),
                    offset: *offset,
                    val: lower_opnd(*val, &mut vars, &mut resolve),
                    ty: *ty,
                    site: if *site == FRESH_SITE {
                        fresh_count += 1;
                        MemSiteId(LOCAL_FRESH_BASE + (fresh_count - 1))
                    } else {
                        *site
                    },
                },
                HStmtKind::Call {
                    dst,
                    callee,
                    args,
                    site,
                } => Inst::Call {
                    dst: dst.map(|d| resolve(d.0, d.1, &mut vars)),
                    callee: *callee,
                    args: args
                        .iter()
                        .map(|&a| lower_opnd(a, &mut vars, &mut resolve))
                        .collect(),
                    site: *site,
                },
                HStmtKind::Alloc { dst, words, site } => Inst::Alloc {
                    dst: resolve(dst.0, dst.1, &mut vars),
                    words: lower_opnd(*words, &mut vars, &mut resolve),
                    site: *site,
                },
            };
            insts.push(inst);
        }
        let term = match hb.term.as_ref().expect("terminator") {
            HTerm::Jump(t) => Terminator::Jump(*t),
            HTerm::Br { cond, then_, else_ } => Terminator::Br {
                cond: lower_opnd(*cond, &mut vars, &mut resolve),
                then_: *then_,
                else_: *else_,
            },
            HTerm::Ret(v) => Terminator::Ret(v.map(|v| lower_opnd(v, &mut vars, &mut resolve))),
        };
        blocks.push(Block {
            name: block_names[bi].clone(),
            insts,
            term,
        });
    }

    // register-phi elimination: parallel copies at the end of predecessors
    for (bi, hb) in hf.blocks.iter().enumerate() {
        let reg_phis: Vec<_> = hb
            .phis
            .iter()
            .filter_map(|p| match hf.catalog.kind(p.var) {
                // collapsed registers need no phi copies: every version is
                // the same register
                HVarKind::Reg(v) if !collapsed.contains(&v) => Some((v, p.dest, p.args.clone())),
                _ => None,
            })
            .collect();
        if reg_phis.is_empty() {
            continue;
        }
        for (pi, &pred) in hf.preds[bi].iter().enumerate() {
            let mut pairs: Vec<(VarId, VarId)> = Vec::new();
            for (v, dest, args) in &reg_phis {
                let d = resolve(*v, *dest, &mut vars);
                let s = resolve(*v, args[pi], &mut vars);
                if d != s {
                    pairs.push((d, s));
                }
            }
            if pairs.is_empty() {
                continue;
            }
            assert!(
                blocks[pred.index()].term.successors().len() == 1,
                "critical edge into block {bi} not split before lowering"
            );
            let copies = sequentialize(pairs, &mut vars);
            let pb = &mut blocks[pred.index()];
            pb.insts.extend(copies);
        }
    }

    let new_f = Function {
        name,
        params,
        ret_ty,
        vars,
        slots,
        blocks,
    };
    (new_f, fresh_count)
}

/// Emits a parallel copy group as a sequence of [`Inst::Copy`]s, breaking
/// cycles through a temporary.
fn sequentialize(mut pending: Vec<(VarId, VarId)>, vars: &mut Vec<VarDecl>) -> Vec<Inst> {
    let mut out = Vec::with_capacity(pending.len());
    while !pending.is_empty() {
        let mut progressed = false;
        let mut i = 0;
        while i < pending.len() {
            let (d, _s) = pending[i];
            let d_is_pending_src = pending.iter().any(|&(_, s2)| s2 == d);
            if !d_is_pending_src {
                let (d, s) = pending.swap_remove(i);
                out.push(Inst::Copy {
                    dst: d,
                    src: Operand::Var(s),
                });
                progressed = true;
            } else {
                i += 1;
            }
        }
        if !pending.is_empty() && !progressed {
            // pure cycle: save one destination's old value to a temp
            let (d, _) = pending[0];
            let ty = vars[d.index()].ty;
            let tmp = VarId::from_index(vars.len());
            vars.push(VarDecl {
                name: format!("swap.{}", vars.len()),
                ty,
            });
            out.push(Inst::Copy {
                dst: tmp,
                src: Operand::Var(d),
            });
            for (_, s) in pending.iter_mut() {
                if *s == d {
                    *s = tmp;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_in_module, verify_hssa, SpecSource};
    use specframe_alias::AliasAnalysis;
    use specframe_ir::{parse_module, FuncId, Ty, Value};
    use specframe_profile::run;

    fn round_trip(src: &str, entry: &str, args: &[Value]) {
        let m0 = parse_module(src).unwrap();
        let (expect, _) = run(&m0, entry, args, 1_000_000).unwrap();

        let mut m = m0.clone();
        for fi in 0..m.funcs.len() {
            specframe_analysis::split_critical_edges(&mut m.funcs[fi]);
        }
        let aa = AliasAnalysis::analyze(&m);
        for fi in 0..m.funcs.len() {
            let hf = build_in_module(&m, FuncId::from_index(fi), &aa, SpecSource::None);
            verify_hssa(&hf).unwrap();
            let (lowered, fresh) = lower_function(&m.funcs[fi], &hf);
            assert_eq!(fresh, 0, "an unoptimized form synthesizes no statement");
            m.funcs[fi] = lowered;
        }
        specframe_ir::verify_module(&m).unwrap();
        let (got, _) = run(&m, entry, args, 1_000_000).unwrap();
        assert_eq!(got, expect, "semantics changed by HSSA round trip");
    }

    #[test]
    fn straightline_round_trip() {
        round_trip(
            r#"
global g: i64[2] = [3, 4]

func f() -> i64 {
  var a: i64
  var b: i64
entry:
  a = load.i64 [@g]
  b = load.i64 [@g + 1]
  a = add a, b
  store.i64 [@g], a
  ret a
}
"#,
            "f",
            &[],
        );
    }

    #[test]
    fn loop_round_trip() {
        round_trip(
            r#"
global g: i64[1]

func f(n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
entry:
  i = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@g]
  v = add v, i
  store.i64 [@g], v
  i = add i, 1
  jmp head
exit:
  v = load.i64 [@g]
  ret v
}
"#,
            "f",
            &[Value::I(17)],
        );
    }

    #[test]
    fn diamond_with_phi_round_trip() {
        round_trip(
            r#"
func f(x: i64) -> i64 {
  var r: i64
entry:
  br x, a, b
a:
  r = 10
  jmp m
b:
  r = 20
  jmp m
m:
  r = add r, 1
  ret r
}
"#,
            "f",
            &[Value::I(1)],
        );
    }

    #[test]
    fn calls_and_heap_round_trip() {
        round_trip(
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

func f(n: i64) -> i64 {
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
            "f",
            &[Value::I(12)],
        );
    }

    #[test]
    fn sequentialize_handles_swap_cycle() {
        let mut vars = vec![
            VarDecl {
                name: "a".into(),
                ty: Ty::I64,
            },
            VarDecl {
                name: "b".into(),
                ty: Ty::I64,
            },
        ];
        // parallel copy {a <- b, b <- a}: needs a temp
        let copies = sequentialize(vec![(VarId(0), VarId(1)), (VarId(1), VarId(0))], &mut vars);
        assert_eq!(copies.len(), 3);
        assert_eq!(vars.len(), 3, "one swap temp introduced");
    }

    #[test]
    fn sequentialize_orders_chain() {
        let mut vars: Vec<VarDecl> = (0..3)
            .map(|i| VarDecl {
                name: format!("v{i}"),
                ty: Ty::I64,
            })
            .collect();
        // {v0 <- v1, v1 <- v2}: v0 must be written before v1 is clobbered
        let copies = sequentialize(vec![(VarId(0), VarId(1)), (VarId(1), VarId(2))], &mut vars);
        assert_eq!(copies.len(), 2);
        let Inst::Copy { dst, .. } = &copies[0] else {
            panic!()
        };
        assert_eq!(*dst, VarId(0));
        assert_eq!(vars.len(), 3, "no temp needed");
    }
}
