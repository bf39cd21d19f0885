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
//!
//! Refinement is an analysis over an SSA form it is handed, not a build of
//! its own: the driver builds a function's form once, refines over it, and
//! rebuilds only when something folded — the lists changed, so the form
//! must be updated, exactly the rule quoted above.

use crate::stmt::{HOperand, HStmtKind, HssaFunc};
use specframe_ir::FxHashMap;
use specframe_ir::{Function, Inst, MemSiteId, Operand, VarId};

/// Flow-sensitive refinement of `f` over `hf`, an already-built SSA form
/// of `f`: folds every indirect load/store whose base register provably
/// holds a single static address into a direct reference of `f`, and
/// returns the number of references folded. `hf` describes the unrefined
/// `f`, so when this returns non-zero the caller rebuilds the form (the
/// paper's "update the SSA form if the lists have any change"); at zero,
/// `f` is untouched and `hf` is still its form.
///
/// The fold is blind to the speculation source `hf` was built under: it
/// reads only register copies and the base register versions of loads,
/// checks and stores, which renaming assigns the same way under every
/// `SpecSource` (the oracle sets only χ/μ `likely` flags). Folding only
/// rewrites instruction operands — the CFG is untouched, so the function's
/// cached analyses stay valid, and no other part of the module is, so each
/// parallel worker can refine the function it owns.
pub fn refine_function(f: &mut Function, hf: &HssaFunc) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_in_module, SpecSource};
    use specframe_alias::AliasAnalysis;
    use specframe_ir::{parse_module, FuncId, Module};
    use specframe_profile::AliasProfile;

    /// Whether statement `si` of block `b` is a direct memory access: the
    /// fold replaced its register base.
    fn is_direct_access(hf: &HssaFunc, b: usize, si: usize) -> bool {
        match &hf.blocks[b].stmts[si].kind {
            HStmtKind::Load { base, .. }
            | HStmtKind::CheckLoad { base, .. }
            | HStmtKind::Store { base, .. } => !matches!(base, HOperand::Reg(..)),
            _ => false,
        }
    }

    /// Refines function `fid` of `m` over its form built under `source`.
    fn refine_under(m: &mut Module, fid: FuncId, aa: &AliasAnalysis, source: SpecSource) -> usize {
        let hf = build_in_module(m, fid, aa, source);
        refine_function(&mut m.funcs[fid.index()], &hf)
    }

    fn refine(m: &mut Module, fid: FuncId, aa: &AliasAnalysis) -> usize {
        refine_under(m, fid, aa, SpecSource::None)
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

    /// The driver refines over the form its first speculative attempt
    /// optimizes, so the fold must not depend on the source that form was
    /// built under: every source folds the same references of every
    /// function into the same module.
    #[test]
    fn the_fold_is_the_same_under_every_spec_source() {
        let m0 = parse_module(SRC).unwrap();
        let aa = AliasAnalysis::analyze(&m0);
        let profile = AliasProfile::default();
        let sources = [
            SpecSource::None,
            SpecSource::Heuristic,
            SpecSource::Aggressive,
            SpecSource::Profile(&profile),
        ];
        let refined: Vec<(usize, Module)> = sources
            .iter()
            .map(|&source| {
                let mut m = m0.clone();
                let folded = (0..m.funcs.len())
                    .map(|fi| refine_under(&mut m, FuncId::from_index(fi), &aa, source))
                    .sum();
                (folded, m)
            })
            .collect();
        assert_eq!(refined[0].0, 4, "f's two stores and two loads fold");
        for (source, (folded, m)) in sources.iter().zip(&refined).skip(1) {
            assert_eq!(*folded, refined[0].0, "{source:?}: fold count");
            assert_eq!(m.funcs, refined[0].1.funcs, "{source:?}: refined functions");
        }
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
