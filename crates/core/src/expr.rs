//! Expression candidates for SSAPRE.
//!
//! SSAPRE works one *lexically identified* expression at a time (§4.1: "all
//! expressions are represented as trees with leaves being either constants
//! or SSA renamed variables"; the program is three-address, so every
//! candidate is first-order). Three families exist:
//!
//! * arithmetic expressions `a ⊕ b`;
//! * direct loads of a real variable (`a` in the paper's figures) — the
//!   scalar register-promotion candidates;
//! * indirect loads `*(p + off)` — the paper's `*p` / `A[i][j]` promotion
//!   candidates, where data speculation pays off.

use specframe_hssa::{HOperand, HStmt, HStmtKind, HVarId, HVarKind, HssaFunc, MemBase, MemVar};
use specframe_ir::{BinOp, Ty, VarId};
use specframe_ir::{FxHashSet, InlineVec};

/// A lexical operand of an expression key: the *identity* of the value, not
/// a version.
#[derive(Clone, Copy, PartialEq, Hash, Debug)]
pub enum LexOperand {
    /// A register by id.
    Reg(VarId),
    /// An integer constant.
    ConstI(i64),
    /// A float constant (compared bitwise).
    ConstF(u64),
    /// A link-time global address.
    GlobalAddr(specframe_ir::GlobalId),
    /// A slot address.
    SlotAddr(specframe_ir::SlotId),
}

impl Eq for LexOperand {}

impl LexOperand {
    fn of(o: &HOperand) -> LexOperand {
        match o {
            HOperand::Reg(v, _) => LexOperand::Reg(*v),
            HOperand::ConstI(c) => LexOperand::ConstI(*c),
            HOperand::ConstF(c) => LexOperand::ConstF(c.to_bits()),
            HOperand::GlobalAddr(g) => LexOperand::GlobalAddr(*g),
            HOperand::SlotAddr(s) => LexOperand::SlotAddr(*s),
        }
    }

    /// The register, if this operand is one.
    pub fn reg(self) -> Option<VarId> {
        match self {
            LexOperand::Reg(v) => Some(v),
            _ => None,
        }
    }
}

/// A lexically identified expression.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ExprKey {
    /// `a ⊕ b` (commutative operators canonicalized).
    Bin(BinOp, LexOperand, LexOperand),
    /// Direct load of a real variable.
    DirectLoad(MemVar, Ty),
    /// Indirect load `*(base + off)`; `vvar` is the virtual variable of the
    /// access class (the second SSA operand of the expression).
    IndirectLoad {
        /// Base pointer register.
        base: VarId,
        /// Constant word offset.
        off: i64,
        /// Access type.
        ty: Ty,
        /// The virtual variable of the load's alias class.
        vvar: HVarId,
    },
}

impl ExprKey {
    /// Whether this expression is a memory load (eligible for data
    /// speculation — arithmetic never is, because registers have no χs).
    pub fn is_load(&self) -> bool {
        !matches!(self, ExprKey::Bin(..))
    }

    /// The loaded type when this expression is a load (feeds the oracle's
    /// per-target profitability gate); `None` for arithmetic.
    pub fn load_ty(&self) -> Option<Ty> {
        match self {
            ExprKey::Bin(..) => None,
            ExprKey::DirectLoad(_, ty) => Some(*ty),
            ExprKey::IndirectLoad { ty, .. } => Some(*ty),
        }
    }

    /// Whether an inserted computation of this expression may fault, which
    /// rules out *control* speculation (inserting on paths that did not
    /// execute it): loads may fault (handled by `ld.s`), and so do integer
    /// division/modulo — the paper's framework only control-speculates
    /// instructions the architecture can defer.
    pub fn control_speculatable(&self) -> bool {
        match self {
            ExprKey::Bin(op, _, _) => !matches!(op, BinOp::Div | BinOp::Mod),
            _ => true, // loads are speculated via ld.s
        }
    }

    /// The registers the expression's value depends on (at most two, so
    /// never on the heap).
    pub fn tracked_regs(&self) -> InlineVec<VarId, 2> {
        let mut v = InlineVec::new();
        match self {
            ExprKey::Bin(_, a, b) => {
                if let Some(r) = a.reg() {
                    v.push(r);
                }
                if let Some(r) = b.reg() {
                    if a.reg() != Some(r) {
                        v.push(r);
                    }
                }
            }
            ExprKey::DirectLoad(..) => {}
            ExprKey::IndirectLoad { base, .. } => v.push(*base),
        }
        v
    }

    /// The family the expression belongs to.
    fn family(&self) -> Family {
        match self {
            ExprKey::Bin(..) => Family::Arith,
            ExprKey::DirectLoad(..) => Family::DirectLoad,
            ExprKey::IndirectLoad { .. } => Family::IndirectLoad,
        }
    }

    /// The memory variable (real or virtual) the expression's value depends
    /// on, if any.
    pub fn tracked_mem(&self, hf: &HssaFunc) -> Option<HVarId> {
        match self {
            ExprKey::Bin(..) => None,
            ExprKey::DirectLoad(mv, _) => hf.catalog.get(HVarKind::Mem(*mv)),
            ExprKey::IndirectLoad { vvar, .. } => Some(*vvar),
        }
    }

    /// The load syntax `(base reg, offset)` for the heuristic same-syntax
    /// rule (§3.2.2 rule 1), if this is an indirect load.
    pub fn syntax(&self) -> Option<(VarId, i64)> {
        match self {
            ExprKey::IndirectLoad { base, off, .. } => Some((*base, *off)),
            _ => None,
        }
    }
}

/// Does `stmt` contain a real occurrence of `key`? Returns the operand
/// versions if so: register versions in [`ExprKey::tracked_regs`] order,
/// and the memory-variable version.
pub fn occurrence_versions(stmt: &HStmt, key: &ExprKey) -> Option<OccVersions> {
    match (&stmt.kind, key) {
        (HStmtKind::Bin { op, a, b, .. }, ExprKey::Bin(kop, ka, kb)) => {
            if op != kop {
                return None;
            }
            let (la, lb) = (LexOperand::of(a), LexOperand::of(b));
            let matched = if la == *ka && lb == *kb {
                Some((a, b))
            } else if op.is_commutative() && la == *kb && lb == *ka {
                Some((b, a))
            } else {
                None
            };
            let (a, b) = matched?;
            let mut regs = InlineVec::new();
            for &r in key.tracked_regs().iter() {
                // find the version of r among the (possibly swapped) operands
                let ver = [a, b]
                    .iter()
                    .find_map(|o| match o {
                        HOperand::Reg(v, ver) if *v == r => Some(*ver),
                        _ => None,
                    })
                    .expect("tracked reg present");
                regs.push(ver);
            }
            Some(OccVersions { regs, mem: None })
        }
        (
            HStmtKind::Load {
                base: HOperand::GlobalAddr(g),
                offset,
                ty,
                dvar: Some((_, mver)),
                ..
            },
            ExprKey::DirectLoad(mv, kty),
        ) => {
            if mv.base == MemBase::Global(*g) && mv.off == *offset && ty == kty {
                Some(OccVersions {
                    regs: InlineVec::new(),
                    mem: Some(*mver),
                })
            } else {
                None
            }
        }
        (
            HStmtKind::Load {
                base: HOperand::SlotAddr(s),
                offset,
                ty,
                dvar: Some((_, mver)),
                ..
            },
            ExprKey::DirectLoad(mv, kty),
        ) => {
            if mv.base == MemBase::Slot(*s) && mv.off == *offset && ty == kty {
                Some(OccVersions {
                    regs: InlineVec::new(),
                    mem: Some(*mver),
                })
            } else {
                None
            }
        }
        (
            HStmtKind::Load {
                base: HOperand::Reg(b, bver),
                offset,
                ty,
                ..
            },
            ExprKey::IndirectLoad {
                base,
                off,
                ty: kty,
                vvar,
            },
        ) => {
            if b == base && offset == off && ty == kty {
                let mver = stmt.mu.iter().find(|m| m.var == *vvar).map(|m| m.ver)?;
                Some(OccVersions {
                    regs: [*bver].into_iter().collect(),
                    mem: Some(mver),
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Operand versions of one real occurrence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OccVersions {
    /// Versions of the tracked registers, in [`ExprKey::tracked_regs`]
    /// order.
    pub regs: InlineVec<u32, 2>,
    /// Version of the tracked memory variable.
    pub mem: Option<u32>,
}

/// The three candidate families, in the order [`collect_candidates`] lists
/// them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    /// Arithmetic expressions `a ⊕ b`.
    Arith,
    /// Direct loads of a real variable.
    DirectLoad,
    /// Indirect loads `*(base + off)`.
    IndirectLoad,
}

impl Family {
    /// Every family.
    pub const ALL: [Family; 3] = [Family::Arith, Family::DirectLoad, Family::IndirectLoad];
}

/// Scans a function for the SSAPRE candidates of `families`, in a
/// deterministic order: arithmetic first, then direct loads, then indirect
/// loads (so promoted address arithmetic feeds load candidates within one
/// pass ordering), each family in order of first occurrence. Expressions
/// with speculative loads or checks already in place are not re-collected.
pub fn collect_candidates(hf: &HssaFunc, families: &[Family]) -> Vec<ExprKey> {
    let arith = families.contains(&Family::Arith);
    let direct = families.contains(&Family::DirectLoad);
    let indirect = families.contains(&Family::IndirectLoad);
    let mut seen: FxHashSet<ExprKey> = FxHashSet::default();
    let mut lists: [Vec<ExprKey>; 3] = Default::default();
    let mut push = |k: ExprKey| {
        if seen.insert(k) {
            lists[k.family() as usize].push(k);
        }
    };
    for b in hf.block_ids() {
        for stmt in &hf.blocks[b.index()].stmts {
            match &stmt.kind {
                HStmtKind::Bin { op, a, b, .. } if arith => {
                    let (la, lb) = (LexOperand::of(a), LexOperand::of(b));
                    // skip all-constant expressions (constant folding's job)
                    if la.reg().is_none() && lb.reg().is_none() {
                        continue;
                    }
                    let (ka, kb) = if op.is_commutative() && lex_gt(&la, &lb) {
                        (lb, la)
                    } else {
                        (la, lb)
                    };
                    push(ExprKey::Bin(*op, ka, kb));
                }
                HStmtKind::Load {
                    base,
                    offset,
                    ty,
                    spec: specframe_ir::LoadSpec::Normal,
                    dvar,
                    ..
                } => match base {
                    HOperand::GlobalAddr(g) if direct && dvar.is_some() => {
                        push(ExprKey::DirectLoad(
                            MemVar {
                                base: MemBase::Global(*g),
                                off: *offset,
                            },
                            *ty,
                        ))
                    }
                    HOperand::SlotAddr(s) if direct && dvar.is_some() => push(ExprKey::DirectLoad(
                        MemVar {
                            base: MemBase::Slot(*s),
                            off: *offset,
                        },
                        *ty,
                    )),
                    HOperand::Reg(r, _) if indirect => {
                        if let Some(mu) = stmt.mu.first() {
                            // the first mu is always the vvar (build order)
                            push(ExprKey::IndirectLoad {
                                base: *r,
                                off: *offset,
                                ty: *ty,
                                vvar: mu.var,
                            });
                        }
                    }
                    _ => {}
                },
                _ => {}
            }
        }
    }
    lists.concat()
}

fn lex_gt(a: &LexOperand, b: &LexOperand) -> bool {
    format!("{a:?}") > format!("{b:?}")
}

/// The non-speculative kill query: does `stmt` redefine any value `key`
/// depends on? Register redefinitions, strong stores to the memory
/// variable and every χ over it kill. Under data speculation the client
/// asks the likeliness oracle about each χ instead (`ssapre`'s
/// `kills_with_policy`).
pub fn kills(stmt: &HStmt, key: &ExprKey, mem_var: Option<HVarId>) -> bool {
    if let Some((v, _)) = stmt.def_reg() {
        if key.tracked_regs().iter().any(|&r| r == v) {
            return true;
        }
    }
    let Some(mv) = mem_var else {
        return false;
    };
    if let HStmtKind::Store {
        dvar_def: Some((id, _)),
        ..
    } = &stmt.kind
    {
        if *id == mv {
            return true;
        }
    }
    stmt.chi_of(mv).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_alias::AliasAnalysis;
    use specframe_ir::parse_module;

    fn hssa_of(src: &str, func: &str) -> (specframe_ir::Module, HssaFunc) {
        let m = parse_module(src).unwrap();
        let aa = AliasAnalysis::analyze(&m);
        let fid = m.func_by_name(func).unwrap();
        let (hf, _) = crate::testutil::plain_hssa(&m, fid, &aa);
        (m, hf)
    }

    #[test]
    fn collects_all_three_families() {
        let (_, hf) = hssa_of(
            r#"
global g: i64[1]

func f(p: ptr, n: i64) -> i64 {
  var x: i64
  var y: i64
  var z: i64
entry:
  x = add n, 1
  y = load.i64 [@g]
  z = load.i64 [p + 2]
  x = add x, y
  x = add x, z
  ret x
}
"#,
            "f",
        );
        let cands = collect_candidates(&hf, &Family::ALL);
        assert!(cands
            .iter()
            .any(|k| matches!(k, ExprKey::Bin(BinOp::Add, ..))));
        assert!(cands.iter().any(|k| matches!(k, ExprKey::DirectLoad(..))));
        assert!(cands
            .iter()
            .any(|k| matches!(k, ExprKey::IndirectLoad { off: 2, .. })));
    }

    #[test]
    fn commutative_keys_canonicalize() {
        let (_, hf) = hssa_of(
            r#"
func f(a: i64, b: i64) -> i64 {
  var x: i64
  var y: i64
entry:
  x = add a, b
  y = add b, a
  x = add x, y
  ret x
}
"#,
            "f",
        );
        let cands = collect_candidates(&hf, &Family::ALL);
        let adds: Vec<_> = cands
            .iter()
            .filter(|k| {
                matches!(k, ExprKey::Bin(BinOp::Add, LexOperand::Reg(a), LexOperand::Reg(b))
                    if (a.0 == 0 && b.0 == 1) || (a.0 == 1 && b.0 == 0))
            })
            .collect();
        assert_eq!(adds.len(), 1, "a+b and b+a must share one key: {cands:?}");
    }

    #[test]
    fn occurrence_versions_extracted() {
        let (_, hf) = hssa_of(
            r#"
global g: i64[1]

func f(n: i64) -> i64 {
  var x: i64
  var y: i64
entry:
  x = load.i64 [@g]
  store.i64 [@g], n
  y = load.i64 [@g]
  x = add x, y
  ret x
}
"#,
            "f",
        );
        let key = collect_candidates(&hf, &Family::ALL)
            .into_iter()
            .find(|k| matches!(k, ExprKey::DirectLoad(..)))
            .unwrap();
        let b0 = &hf.blocks[0];
        let v1 = occurrence_versions(&b0.stmts[0], &key).unwrap();
        let v2 = occurrence_versions(&b0.stmts[2], &key).unwrap();
        assert_ne!(v1.mem, v2.mem, "store must change the mem version");
        assert!(occurrence_versions(&b0.stmts[1], &key).is_none());
    }

    #[test]
    fn kill_semantics_respect_speculation() {
        let (_m, hf) = hssa_of(
            r#"
global a: i64[1]
global b: i64[1]

func f(p: ptr) -> i64 {
  var x: i64
  var y: i64
entry:
  x = load.i64 [@a]
  store.i64 [p], 1
  y = load.i64 [@a]
  x = add x, y
  ret x
}

func main(s: i64) -> i64 {
  var q: ptr
  var r: i64
entry:
  br s, ua, ub
ua:
  q = @a
  jmp go
ub:
  q = @b
  jmp go
go:
  r = call f(q)
  ret r
}
"#,
            "f",
        );
        let key = collect_candidates(&hf, &Family::ALL)
            .into_iter()
            .find(|k| matches!(k, ExprKey::DirectLoad(..)))
            .unwrap();
        let mv = key.tracked_mem(&hf);
        let store = &hf.blocks[0].stmts[1];
        // without data speculation every chi over the variable kills
        assert!(kills(store, &key, mv));
    }
}
