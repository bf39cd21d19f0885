//! Flow-sensitive refinement of indirect references (the last box of the
//! paper's Figure 4: *"we perform a flow sensitive pointer analysis using
//! factored use-def chain to refine the μs list and the χs list. We also
//! update the SSA form if the μs and χs lists have any change."*).
//!
//! Steensgaard's analysis is flow-insensitive: a pointer that is assigned
//! `&a` on one path somewhere in the program drags `a`'s whole equivalence
//! class onto every dereference. The factored use-def chain of the SSA
//! form recovers flow sensitivity cheaply: if an access's base register
//! version chases — through copies only, stopping at φs — to a unique
//! `&global`/`&slot`, the access provably touches exactly that object, and
//! the reference can be *folded into direct form*. The rebuilt χ/μ lists
//! are then exact: a folded store strongly defines its cell instead of
//! weakly updating an entire class, and a folded load participates in
//! non-speculative PRE like any scalar variable.

use crate::stmt::{HOperand, HStmtKind, HssaFunc};
use specframe_analysis::FuncAnalyses;
use specframe_ir::FxHashMap;
use specframe_ir::{FuncId, Function, Global, Inst, MemSiteId, Operand, VarId};

/// Analyzes `hf` (an already-built SSA form of `f`) and rewrites `f`,
/// folding every indirect load/store whose base register provably holds a
/// single static address into a direct reference. Returns the number of
/// references folded.
fn fold_known_addresses(f: &mut Function, hf: &HssaFunc) -> usize {
    // copy chains: (reg, version) -> source operand
    let mut copy_src: FxHashMap<(VarId, u32), HOperand> = FxHashMap::default();
    for b in hf.block_ids() {
        for stmt in &hf.blocks[b.index()].stmts {
            if let HStmtKind::Copy { dst, src } = &stmt.kind {
                copy_src.insert(*dst, *src);
            }
        }
    }
    let chase = |mut o: HOperand| -> HOperand {
        for _ in 0..64 {
            match o {
                HOperand::Reg(v, ver) => match copy_src.get(&(v, ver)) {
                    Some(&next) => o = next,
                    None => break,
                },
                _ => break,
            }
        }
        o
    };

    // per memory site: the static base it folds to
    let mut folds: FxHashMap<MemSiteId, Operand> = FxHashMap::default();
    for b in hf.block_ids() {
        for stmt in &hf.blocks[b.index()].stmts {
            let (base, site) = match &stmt.kind {
                HStmtKind::Load { base, site, .. }
                | HStmtKind::CheckLoad { base, site, .. }
                | HStmtKind::Store { base, site, .. } => (*base, *site),
                _ => continue,
            };
            if !matches!(base, HOperand::Reg(..)) {
                continue; // already direct
            }
            match chase(base) {
                HOperand::GlobalAddr(g) => {
                    folds.insert(site, Operand::GlobalAddr(g));
                }
                HOperand::SlotAddr(s) => {
                    folds.insert(site, Operand::SlotAddr(s));
                }
                _ => {}
            }
        }
    }
    if folds.is_empty() {
        return 0;
    }

    // rewrite the base function
    let mut folded = 0;
    for b in &mut f.blocks {
        for inst in &mut b.insts {
            match inst {
                Inst::Load { base, site, .. }
                | Inst::CheckLoad { base, site, .. }
                | Inst::Store { base, site, .. } => {
                    if let Some(&new_base) = folds.get(site) {
                        if matches!(base, Operand::Var(_)) {
                            *base = new_base;
                            folded += 1;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    folded
}

/// Flow-sensitive refinement of `f` (function `fid` of a module with
/// `globals`): builds a throwaway non-speculative HSSA over the analysis
/// cache `fa`, folds known addresses into direct references, and reports
/// the count. Folding only rewrites instruction operands of `f` — the CFG
/// is untouched, so `fa` stays valid afterwards, and no other part of the
/// module is, so each parallel worker can refine the function it owns.
///
/// Run this before the final HSSA construction: the caller rebuilds the
/// SSA form afterwards (the paper's "update the SSA form if the lists have
/// any change").
pub fn refine_function(
    globals: &[Global],
    f: &mut Function,
    fid: FuncId,
    aa: &specframe_alias::AliasAnalysis,
    fa: &FuncAnalyses,
) -> usize {
    let oracle = crate::oracle::Likeliness::new(crate::build::SpecSource::None);
    let hf = crate::build::build_hssa(globals, f, fid, aa, &oracle, fa);
    fold_known_addresses(f, &hf)
}

/// Identifies whether an HSSA statement is a direct memory access (used by
/// tests asserting the fold happened).
pub fn is_direct_access(hf: &HssaFunc, b: usize, si: usize) -> bool {
    match &hf.blocks[b].stmts[si].kind {
        HStmtKind::Load { base, .. }
        | HStmtKind::CheckLoad { base, .. }
        | HStmtKind::Store { base, .. } => !matches!(base, HOperand::Reg(..)),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_in_module, SpecSource};
    use specframe_alias::AliasAnalysis;
    use specframe_ir::{parse_module, Module};

    fn refine(m: &mut Module, fid: FuncId, aa: &AliasAnalysis) -> usize {
        let fa = FuncAnalyses::compute(m.func(fid));
        refine_function(&m.globals, &mut m.funcs[fid.index()], fid, aa, &fa)
    }

    /// p locally points at `a` only, but Steensgaard's class for it is
    /// {a, b} because `h` is called with both addresses elsewhere.
    const SRC: &str = r#"
global a: i64[1]
global b: i64[1]

func h(r: ptr) -> i64 {
  var v: i64
entry:
  v = load.i64 [r]
  ret v
}

func f() -> i64 {
  var p: ptr
  var q: ptr
  var x: i64
  var y: i64
entry:
  p = @a
  q = @b
  store.i64 [p], 1
  x = load.i64 [q]
  store.i64 [p], 2
  y = load.i64 [q]
  x = add x, y
  ret x
}

func main(sel: i64) -> i64 {
  var r: i64
  var t: i64
entry:
  br sel, ua, ub
ua:
  r = call h(@a)
  jmp go
ub:
  r = call h(@b)
  jmp go
go:
  t = call f()
  r = add r, t
  ret r
}
"#;

    #[test]
    fn locally_exact_pointers_fold_to_direct() {
        let mut m = parse_module(SRC).unwrap();
        let aa = AliasAnalysis::analyze(&m);
        let fid = m.func_by_name("f").unwrap();

        // sanity: before refinement the store *p is indirect — a weak
        // class-level update (chi on the shared virtual variable, no strong
        // def), so the loads of *q are killed by it
        let hf0 = build_in_module(&m, fid, &aa, SpecSource::None);
        let store = &hf0.blocks[0].stmts[2];
        assert!(
            matches!(
                store.kind,
                crate::stmt::HStmtKind::Store { dvar_def: None, .. }
            ),
            "unrefined store must be indirect"
        );
        assert!(!store.chi.is_empty(), "indirect store must chi its class");

        let n = refine(&mut m, fid, &aa);
        assert_eq!(n, 4, "both stores and both loads fold");

        // after refinement, all four references are direct
        let hf1 = build_in_module(&m, fid, &aa, SpecSource::None);
        for si in [2usize, 3, 4, 5] {
            assert!(
                is_direct_access(&hf1, 0, si),
                "stmt {si} should be direct now"
            );
        }
        // and the store strongly defines `a` without touching `b`
        let store = &hf1.blocks[0].stmts[2];
        assert!(matches!(
            store.kind,
            crate::stmt::HStmtKind::Store {
                dvar_def: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn fold_preserves_semantics_and_enables_nonspeculative_pre() {
        let mut m = parse_module(SRC).unwrap();
        let (want, s0) =
            specframe_profile::run(&m, "main", &[specframe_ir::Value::I(0)], 100_000).unwrap();
        let aa = AliasAnalysis::analyze(&m);
        let fid = m.func_by_name("f").unwrap();
        refine(&mut m, fid, &aa);
        specframe_ir::verify_module(&m).unwrap();
        let (got, s1) =
            specframe_profile::run(&m, "main", &[specframe_ir::Value::I(0)], 100_000).unwrap();
        assert_eq!(got, want);
        assert_eq!(s0.loads, s1.loads, "folding changes no dynamic behaviour");
    }

    #[test]
    fn phi_merged_pointers_do_not_fold() {
        let src = r#"
global a: i64[1]
global b: i64[1]

func f(sel: i64) -> i64 {
  var p: ptr
  var x: i64
entry:
  br sel, ua, ub
ua:
  p = @a
  jmp go
ub:
  p = @b
  jmp go
go:
  x = load.i64 [p]
  ret x
}
"#;
        let mut m = parse_module(src).unwrap();
        specframe_analysis::split_critical_edges(&mut m.funcs[0]);
        let aa = AliasAnalysis::analyze(&m);
        let fid = m.func_by_name("f").unwrap();
        let n = refine(&mut m, fid, &aa);
        assert_eq!(n, 0, "a phi-merged pointer is genuinely unknown");
    }

    #[test]
    fn pointer_arithmetic_blocks_folding() {
        let src = r#"
global a: i64[8]

func f(k: i64) -> i64 {
  var p: ptr
  var q: ptr
  var x: i64
entry:
  p = @a
  q = add p, k
  x = load.i64 [q]
  ret x
}
"#;
        let mut m = parse_module(src).unwrap();
        let aa = AliasAnalysis::analyze(&m);
        let fid = m.func_by_name("f").unwrap();
        let n = refine(&mut m, fid, &aa);
        assert_eq!(n, 0, "computed addresses must not fold");
    }
}
