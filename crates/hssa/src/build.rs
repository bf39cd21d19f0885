//! Speculative SSA construction (the pipeline of the paper's Figure 4).
//!
//! 1. equivalence-class alias analysis (done in `specframe-alias`);
//! 2. create χ and μ lists for indirect references and calls;
//! 3. set speculation flags from the alias profile (§3.2.1) or heuristic
//!    rules (§3.2.2);
//! 4. insert φs and rename — standard SSA over registers, real
//!    direct-memory variables, and virtual variables.

use crate::hvar::{HVarId, HVarKind, MemBase, MemVar, VarCatalog};
use crate::oracle::{FnEvidence, Likeliness, SiteQuery};
use crate::stmt::{ChiOp, HBlock, HOperand, HStmt, HStmtKind, HTerm, HssaFunc, MuOp, Phi};
use specframe_alias::{AliasAnalysis, ClassId, Loc};
use specframe_analysis::{iterated_df, DomTree, FuncAnalyses};
use specframe_ir::{
    BlockId, FuncId, FuncSlot, Function, Global, Inst, Operand, Terminator, Ty, VarId,
};
use specframe_ir::{FxHashMap, FxHashSet};
use specframe_profile::AliasProfile;

/// Where data-speculation likeliness comes from (Figure 3's "alias profile
/// / heuristic rules" box).
///
/// * `None` flags every χ/μ *likely*: classic HSSA, the paper's O3
///   baseline — every may-alias is honoured.
/// * `Profile` applies the §3.2.1 rules against a collected alias profile.
/// * `Heuristic` applies the §3.2.2 syntax-tree rules (refined per
///   expression inside SSAPRE, which knows the candidate's syntax).
/// * `Aggressive` flags *nothing* except real defs — the "aggressive
///   register promotion" upper-bound estimator of §5.3 / Figure 12.
#[derive(Clone, Copy, Debug, Default)]
pub enum SpecSource<'a> {
    /// Classic HSSA; no data speculation.
    #[default]
    None,
    /// Flags from an alias profile.
    Profile(&'a AliasProfile),
    /// Flags from the three heuristic rules.
    Heuristic,
    /// Ignore every may-alias (potential-estimation mode).
    Aggressive,
}

impl SpecSource<'_> {
    /// Whether this source permits data speculation at all.
    pub fn speculative(&self) -> bool {
        !matches!(self, SpecSource::None)
    }
}

/// Builds the speculative SSA form of one function against the likeliness
/// `oracle` and the function's CFG analyses `fa`. Every χ/μ `likely` flag
/// is one [`Likeliness::verdict`] call; the parallel driver calls this
/// with each worker owning exactly one function — `globals` and the
/// oracle are the only shared state, both read-only.
///
/// `f` must come from `specframe_core::prepare_module`: every block
/// reachable from the entry, since rename walks the dominator tree and
/// would leave a dead block's versions unassigned. The critical edges
/// `prepare_module` splits are needed only if the form will be optimized
/// and lowered; construction itself does not require them.
///
/// # Panics
/// Panics if some block of `f` is unreachable from its entry.
pub fn build_hssa(
    globals: &[Global],
    f: &Function,
    fid: FuncId,
    aa: &AliasAnalysis,
    oracle: &Likeliness<'_>,
    fa: &FuncAnalyses,
) -> HssaFunc {
    let (dt, df) = (&fa.dt, &fa.df);
    if let Some(dead) = f.block_ids().find(|&b| !dt.is_reachable(b)) {
        panic!(
            "build_hssa: block `{}` of `{}` is unreachable; run prepare_module first",
            f.block(dead).name,
            f.name
        );
    }
    let mut catalog = VarCatalog::new();
    for (i, _) in f.vars.iter().enumerate() {
        catalog.intern(HVarKind::Reg(VarId::from_index(i)));
    }

    // ---- pass A: intern direct-memory variables and virtual variables ----
    for b in &f.blocks {
        for inst in &b.insts {
            match inst {
                Inst::Load { base, offset, .. }
                | Inst::CheckLoad { base, offset, .. }
                | Inst::Store { base, offset, .. } => match base {
                    Operand::GlobalAddr(g) => {
                        catalog.intern(HVarKind::Mem(MemVar {
                            base: MemBase::Global(*g),
                            off: *offset,
                        }));
                    }
                    Operand::SlotAddr(s) => {
                        catalog.intern(HVarKind::Mem(MemVar {
                            base: MemBase::Slot(*s),
                            off: *offset,
                        }));
                    }
                    Operand::Var(_) => {
                        let c = aa.access_class(fid, *base).unwrap_or(ClassId(u32::MAX));
                        catalog.intern(HVarKind::Virt(c));
                    }
                    _ => {}
                },
                _ => {}
            }
        }
    }

    // Loc of a Mem var (for class/profile lookups)
    let mem_loc = |mv: MemVar| -> Loc {
        match mv.base {
            MemBase::Global(g) => Loc::Global(g),
            MemBase::Slot(s) => Loc::Slot(FuncSlot { func: fid, slot: s }),
        }
    };

    // snapshot: all Mem vars and Virt vars with their classes
    let mem_vars: Vec<(HVarId, MemVar, ClassId)> = catalog
        .iter()
        .filter_map(|(id, k)| match k {
            HVarKind::Mem(mv) => Some((id, mv, aa.loc_class(mem_loc(mv)))),
            _ => None,
        })
        .collect();
    let virt_vars: Vec<(HVarId, ClassId)> = catalog
        .iter()
        .filter_map(|(id, k)| match k {
            HVarKind::Virt(c) => Some((id, c)),
            _ => None,
        })
        .collect();

    let mem_ty = |mv: MemVar| -> Ty {
        match mv.base {
            MemBase::Global(g) => globals[g.index()].ty,
            MemBase::Slot(s) => f.slots[s.index()].ty,
        }
    };

    // ---- pass B: build statements with unversioned mu/chi lists ----
    // (versions are filled by renaming; we use u32::MAX as a placeholder)
    const UNV: u32 = u32::MAX;

    // one syntax prescan feeds the heuristic rules; every likeliness flag
    // below is a single oracle verdict
    let ev: FnEvidence = oracle.scan(f);
    let likely = |q: SiteQuery<'_>| -> bool { oracle.verdict(&ev, q).likely };

    let mut blocks: Vec<HBlock> = Vec::with_capacity(f.blocks.len());
    for b in &f.blocks {
        let mut hb = HBlock::default();
        for inst in &b.insts {
            let stmt = match inst {
                Inst::Bin { dst, op, a, b } => HStmt::new(HStmtKind::Bin {
                    dst: (*dst, UNV),
                    op: *op,
                    a: unversioned(*a),
                    b: unversioned(*b),
                }),
                Inst::Un { dst, op, a } => HStmt::new(HStmtKind::Un {
                    dst: (*dst, UNV),
                    op: *op,
                    a: unversioned(*a),
                }),
                Inst::Copy { dst, src } => HStmt::new(HStmtKind::Copy {
                    dst: (*dst, UNV),
                    src: unversioned(*src),
                }),
                Inst::Load {
                    dst,
                    base,
                    offset,
                    ty,
                    spec,
                    site,
                } => {
                    let mut stmt = HStmt::new(HStmtKind::Load {
                        dst: (*dst, UNV),
                        base: unversioned(*base),
                        offset: *offset,
                        ty: *ty,
                        spec: *spec,
                        site: *site,
                        dvar: None,
                    });
                    attach_load_lists(
                        &mut stmt, globals, f, fid, aa, &catalog, &mem_vars, *base, *offset, *ty,
                        *site, &likely, mem_loc,
                    );
                    stmt
                }
                Inst::CheckLoad {
                    dst,
                    base,
                    offset,
                    ty,
                    kind,
                    site,
                } => {
                    let mut stmt = HStmt::new(HStmtKind::CheckLoad {
                        dst: (*dst, UNV),
                        base: unversioned(*base),
                        offset: *offset,
                        ty: *ty,
                        kind: *kind,
                        site: *site,
                        dvar: None,
                    });
                    attach_load_lists(
                        &mut stmt, globals, f, fid, aa, &catalog, &mem_vars, *base, *offset, *ty,
                        *site, &likely, mem_loc,
                    );
                    stmt
                }
                Inst::Store {
                    base,
                    offset,
                    val,
                    ty,
                    site,
                } => {
                    let mut stmt = HStmt::new(HStmtKind::Store {
                        base: unversioned(*base),
                        offset: *offset,
                        val: unversioned(*val),
                        ty: *ty,
                        site: *site,
                        dvar_def: None,
                    });
                    match base {
                        Operand::GlobalAddr(_) | Operand::SlotAddr(_) => {
                            // direct store: strong def + chi on the vvar of
                            // the variable's class (indirect loads may read
                            // what we just wrote)
                            let mv = direct_memvar(*base, *offset);
                            let id = catalog.get(HVarKind::Mem(mv)).expect("interned");
                            if let HStmtKind::Store { dvar_def, .. } = &mut stmt.kind {
                                *dvar_def = Some((id, UNV));
                            }
                            let c = aa.loc_class(mem_loc(mv));
                            for &(vid, vc) in &virt_vars {
                                if vc == c {
                                    stmt.chi.push(ChiOp {
                                        var: vid,
                                        new_ver: UNV,
                                        old_ver: UNV,
                                        likely: likely(SiteQuery::StoreChiVirt {
                                            site: *site,
                                            syntax: None,
                                        }),
                                    });
                                }
                            }
                        }
                        Operand::Var(sb) => {
                            // indirect store: chi on the vvar and on every
                            // TBAA-compatible aliased real variable
                            let c = aa.access_class(fid, *base).unwrap_or(ClassId(u32::MAX));
                            let vv = catalog.get(HVarKind::Virt(c)).expect("interned");
                            stmt.chi.push(ChiOp {
                                var: vv,
                                new_ver: UNV,
                                old_ver: UNV,
                                likely: likely(SiteQuery::StoreChiVirt {
                                    site: *site,
                                    syntax: Some((*sb, *offset)),
                                }),
                            });
                            for &(id, mv, mc) in &mem_vars {
                                if mc == c && mem_ty(mv).tbaa_may_alias(*ty) {
                                    stmt.chi.push(ChiOp {
                                        var: id,
                                        new_ver: UNV,
                                        old_ver: UNV,
                                        likely: likely(SiteQuery::StoreChiMem {
                                            site: *site,
                                            loc: mem_loc(mv),
                                        }),
                                    });
                                }
                            }
                        }
                        _ => {}
                    }
                    stmt
                }
                Inst::Call {
                    dst,
                    callee,
                    args,
                    site,
                } => {
                    let mut stmt = HStmt::new(HStmtKind::Call {
                        dst: dst.map(|d| (d, UNV)),
                        callee: *callee,
                        args: args.iter().map(|&a| unversioned(a)).collect(),
                        site: *site,
                    });
                    let mods = aa.func_mod(*callee);
                    let refs = aa.func_ref(*callee);
                    // Heuristic rule 3: "the side effects of procedure calls
                    // obtained from compiler analysis are all assumed highly
                    // likely. Hence, all chi definitions in the procedure
                    // call are changed into chi_s. The mu list of the
                    // procedure call remains unchanged."
                    for &(id, mv, mc) in &mem_vars {
                        let loc = mem_loc(mv);
                        if mods.contains(&mc) {
                            stmt.chi.push(ChiOp {
                                var: id,
                                new_ver: UNV,
                                old_ver: UNV,
                                likely: likely(SiteQuery::CallChiMem { site: *site, loc }),
                            });
                        }
                        if refs.contains(&mc) {
                            stmt.mu.push(MuOp {
                                var: id,
                                ver: UNV,
                                likely: likely(SiteQuery::CallMuMem { site: *site, loc }),
                            });
                        }
                    }
                    for &(vid, vc) in &virt_vars {
                        let class_locs = aa.locs_in_class(vc);
                        if mods.contains(&vc) {
                            stmt.chi.push(ChiOp {
                                var: vid,
                                new_ver: UNV,
                                old_ver: UNV,
                                likely: likely(SiteQuery::CallChiVirt {
                                    site: *site,
                                    class_locs,
                                }),
                            });
                        }
                        if refs.contains(&vc) {
                            stmt.mu.push(MuOp {
                                var: vid,
                                ver: UNV,
                                likely: likely(SiteQuery::CallMuVirt),
                            });
                        }
                    }
                    stmt
                }
                Inst::Alloc { dst, words, site } => HStmt::new(HStmtKind::Alloc {
                    dst: (*dst, UNV),
                    words: unversioned(*words),
                    site: *site,
                }),
            };
            hb.stmts.push(stmt);
        }
        hb.term = Some(match &b.term {
            Terminator::Jump(t) => HTerm::Jump(*t),
            Terminator::Br { cond, then_, else_ } => HTerm::Br {
                cond: unversioned(*cond),
                then_: *then_,
                else_: *else_,
            },
            Terminator::Ret(v) => HTerm::Ret(v.map(unversioned)),
        });
        blocks.push(hb);
    }

    // ---- phi insertion ----
    let mut def_blocks: Vec<Vec<BlockId>> = vec![Vec::new(); catalog.len()];
    for (bi, hb) in blocks.iter().enumerate() {
        let bid = BlockId::from_index(bi);
        for stmt in &hb.stmts {
            if let Some((v, _)) = stmt.def_reg() {
                let id = catalog.get(HVarKind::Reg(v)).expect("reg interned");
                def_blocks[id.index()].push(bid);
            }
            if let HStmtKind::Store {
                dvar_def: Some((id, _)),
                ..
            } = &stmt.kind
            {
                def_blocks[id.index()].push(bid);
            }
            for c in &stmt.chi {
                def_blocks[c.var.index()].push(bid);
            }
        }
    }
    let preds = f.predecessors();
    for (vi, defs) in def_blocks.iter().enumerate() {
        if defs.is_empty() {
            continue;
        }
        let var = HVarId(vi as u32);
        for join in iterated_df(df, defs.iter().copied()) {
            let hb = &mut blocks[join.index()];
            hb.phis.push(Phi {
                var,
                dest: UNV,
                args: vec![UNV; preds[join.index()].len()],
            });
        }
    }

    // ---- renaming ----
    let mut hf = HssaFunc {
        func: fid,
        catalog,
        blocks,
        preds,
        next_ver: Vec::new(),
        new_vars: Vec::new(),
        first_new_var: f.vars.len() as u32,
        collapsed_vars: Vec::new(),
    };
    rename(f, dt, &mut hf);
    hf
}

fn direct_memvar(base: Operand, off: i64) -> MemVar {
    match base {
        Operand::GlobalAddr(g) => MemVar {
            base: MemBase::Global(g),
            off,
        },
        Operand::SlotAddr(s) => MemVar {
            base: MemBase::Slot(s),
            off,
        },
        _ => unreachable!("direct_memvar on indirect base"),
    }
}

fn unversioned(o: Operand) -> HOperand {
    match o {
        Operand::Var(v) => HOperand::Reg(v, u32::MAX),
        Operand::ConstI(c) => HOperand::ConstI(c),
        Operand::ConstF(c) => HOperand::ConstF(c),
        Operand::GlobalAddr(g) => HOperand::GlobalAddr(g),
        Operand::SlotAddr(s) => HOperand::SlotAddr(s),
    }
}

#[allow(clippy::too_many_arguments)]
fn attach_load_lists(
    stmt: &mut HStmt,
    globals: &[Global],
    f: &Function,
    fid: FuncId,
    aa: &AliasAnalysis,
    catalog: &VarCatalog,
    mem_vars: &[(HVarId, MemVar, ClassId)],
    base: Operand,
    offset: i64,
    ty: Ty,
    site: specframe_ir::MemSiteId,
    likely: &dyn Fn(SiteQuery<'_>) -> bool,
    mem_loc: impl Fn(MemVar) -> Loc,
) {
    match base {
        Operand::GlobalAddr(_) | Operand::SlotAddr(_) => {
            let mv = direct_memvar(base, offset);
            let id = catalog.get(HVarKind::Mem(mv)).expect("interned");
            match &mut stmt.kind {
                HStmtKind::Load { dvar, .. } | HStmtKind::CheckLoad { dvar, .. } => {
                    *dvar = Some((id, u32::MAX));
                }
                _ => unreachable!(),
            }
        }
        Operand::Var(_) => {
            let c = aa.access_class(fid, base).unwrap_or(ClassId(u32::MAX));
            let vv = catalog.get(HVarKind::Virt(c)).expect("interned");
            // paper's Example 1: `= *p` carries mu(a), mu(b), mu(v)
            stmt.mu.push(MuOp {
                var: vv,
                ver: u32::MAX,
                likely: likely(SiteQuery::LoadMuVirt { site }),
            });
            for &(id, mv, mc) in mem_vars {
                let loc = mem_loc(mv);
                let mvt = match mv.base {
                    MemBase::Global(g) => globals[g.index()].ty,
                    MemBase::Slot(s) => f.slots[s.index()].ty,
                };
                if mc == c && mvt.tbaa_may_alias(ty) {
                    stmt.mu.push(MuOp {
                        var: id,
                        ver: u32::MAX,
                        likely: likely(SiteQuery::LoadMuMem { site, loc }),
                    });
                }
            }
        }
        _ => {}
    }
}

fn rename(f: &Function, dt: &DomTree, hf: &mut HssaFunc) {
    let nvars = hf.catalog.len();
    hf.next_ver = vec![1; nvars];
    let mut stacks: Vec<Vec<u32>> = vec![vec![0]; nvars];

    // iterative preorder with explicit pop lists
    enum Action {
        Visit(BlockId),
        Pop(Vec<HVarId>),
    }
    let mut worklist = vec![Action::Visit(f.entry())];
    while let Some(action) = worklist.pop() {
        match action {
            Action::Pop(vars) => {
                for v in vars {
                    stacks[v.index()].pop();
                }
            }
            Action::Visit(b) => {
                let mut pushed: Vec<HVarId> = Vec::new();
                let block = &mut hf.blocks[b.index()];

                for phi in &mut block.phis {
                    let ver = hf.next_ver[phi.var.index()];
                    hf.next_ver[phi.var.index()] += 1;
                    phi.dest = ver;
                    stacks[phi.var.index()].push(ver);
                    pushed.push(phi.var);
                }

                for stmt in &mut block.stmts {
                    // uses first
                    for o in stmt.operands_mut() {
                        version_operand(o, &stacks, &hf.catalog);
                    }
                    for mu in &mut stmt.mu {
                        mu.ver = *stacks[mu.var.index()].last().unwrap();
                    }
                    if let HStmtKind::Load {
                        dvar: Some((id, ver)),
                        ..
                    }
                    | HStmtKind::CheckLoad {
                        dvar: Some((id, ver)),
                        ..
                    } = &mut stmt.kind
                    {
                        *ver = *stacks[id.index()].last().unwrap();
                    }
                    // then defs
                    if let HStmtKind::Store {
                        dvar_def: Some((id, ver)),
                        ..
                    } = &mut stmt.kind
                    {
                        let nv = hf.next_ver[id.index()];
                        hf.next_ver[id.index()] += 1;
                        *ver = nv;
                        stacks[id.index()].push(nv);
                        pushed.push(*id);
                    }
                    if let Some((v, ver)) = stmt.def_reg_mut() {
                        let id = hf.catalog.get(HVarKind::Reg(*v)).expect("reg");
                        let nv = hf.next_ver[id.index()];
                        hf.next_ver[id.index()] += 1;
                        *ver = nv;
                        stacks[id.index()].push(nv);
                        pushed.push(id);
                    }
                    for chi in &mut stmt.chi {
                        chi.old_ver = *stacks[chi.var.index()].last().unwrap();
                        let nv = hf.next_ver[chi.var.index()];
                        hf.next_ver[chi.var.index()] += 1;
                        chi.new_ver = nv;
                        stacks[chi.var.index()].push(nv);
                        pushed.push(chi.var);
                    }
                }

                if let Some(o) = block.term.as_mut().and_then(HTerm::operand_mut) {
                    version_operand(o, &stacks, &hf.catalog);
                }

                // fill phi args in successors
                let succs = hf.blocks[b.index()]
                    .term
                    .as_ref()
                    .map(|t| t.successors())
                    .unwrap_or_default();
                for s in succs {
                    if let Some(pi) = hf.pred_index(s, b) {
                        for phi in &mut hf.blocks[s.index()].phis {
                            phi.args[pi] = *stacks[phi.var.index()].last().unwrap();
                        }
                    }
                }

                worklist.push(Action::Pop(pushed));
                for &c in dt.children(b).iter().rev() {
                    worklist.push(Action::Visit(c));
                }
            }
        }
    }
}

fn version_operand(o: &mut HOperand, stacks: &[Vec<u32>], catalog: &VarCatalog) {
    if let HOperand::Reg(v, ver) = o {
        let id = catalog.get(HVarKind::Reg(*v)).expect("reg interned");
        *ver = *stacks[id.index()].last().unwrap();
    }
}

/// A structural HSSA validation failure, anchored to the block the
/// violation was observed in (when block-local). The driver's verify-each
/// hook reads `block` to render `pass=<p> fn=<f> bb=<n>` attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HssaVerifyError {
    /// Block index the violation is anchored to, if block-local.
    pub block: Option<usize>,
    /// Human-readable description.
    pub msg: String,
}

impl std::fmt::Display for HssaVerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for HssaVerifyError {}

/// Structural SSA validation: every version is defined at most once, no
/// placeholder (`u32::MAX`) version survives renaming, φ argument counts
/// match predecessor counts, and no version is stale: renaming hands out
/// versions strictly below [`HssaFunc::next_ver`], so any occurrence at or
/// above that bound was fabricated after Rename ran (e.g. a χ whose
/// operand version was never issued) — the corruption class the
/// verify-each hook exists to catch.
///
/// # Errors
/// Returns the first violation with the block it was observed in.
pub fn verify_hssa(hf: &HssaFunc) -> Result<(), HssaVerifyError> {
    let at = |bi: usize, msg: String| HssaVerifyError {
        block: Some(bi),
        msg,
    };
    // ver == u32::MAX is reported by the unrenamed checks, not as stale
    let stale = |var: HVarId, ver: u32| -> Option<u32> {
        let next = hf.next_ver.get(var.index()).copied().unwrap_or(0);
        (ver != u32::MAX && ver != 0 && ver >= next).then_some(next)
    };
    let mut defined: FxHashMap<(HVarId, u32), u32> = FxHashMap::default();
    let mut define = |var: HVarId, ver: u32| -> Result<(), String> {
        if ver == u32::MAX {
            return Err(format!("unrenamed def of {var:?}"));
        }
        if ver == 0 {
            return Err(format!("version 0 of {var:?} redefined"));
        }
        let n = defined.entry((var, ver)).or_insert(0);
        *n += 1;
        if *n > 1 {
            return Err(format!("{var:?} version {ver} defined twice"));
        }
        Ok(())
    };
    for (bi, b) in hf.blocks.iter().enumerate() {
        for phi in &b.phis {
            define(phi.var, phi.dest).map_err(|m| at(bi, m))?;
            if phi.args.len() != hf.preds[bi].len() {
                return Err(at(bi, format!("phi arg count mismatch in block {bi}")));
            }
            if phi.args.contains(&u32::MAX) {
                return Err(at(bi, format!("unrenamed phi arg in block {bi}")));
            }
            for &arg in std::iter::once(&phi.dest).chain(&phi.args) {
                if let Some(next) = stale(phi.var, arg) {
                    return Err(at(
                        bi,
                        format!(
                            "stale version {arg} of {:?} in phi (next unissued is {next})",
                            phi.var
                        ),
                    ));
                }
            }
        }
        for stmt in &b.stmts {
            for (v, ver) in stmt.reg_uses() {
                if ver == u32::MAX {
                    return Err(at(bi, format!("unrenamed use of {v} in block {bi}")));
                }
                if let Some(id) = hf.catalog.get(HVarKind::Reg(v)) {
                    if let Some(next) = stale(id, ver) {
                        return Err(at(
                            bi,
                            format!("stale version {ver} of {v} used (next unissued is {next})"),
                        ));
                    }
                }
            }
            for mu in &stmt.mu {
                if mu.ver == u32::MAX {
                    return Err(at(bi, format!("unrenamed mu in block {bi}")));
                }
                if let Some(next) = stale(mu.var, mu.ver) {
                    return Err(at(
                        bi,
                        format!(
                            "stale version {} of {:?} in mu (next unissued is {next})",
                            mu.ver, mu.var
                        ),
                    ));
                }
            }
            if let Some((v, ver)) = stmt.def_reg() {
                let id = hf
                    .catalog
                    .get(HVarKind::Reg(v))
                    .ok_or_else(|| at(bi, format!("def of uncataloged {v}")))?;
                define(id, ver).map_err(|m| at(bi, m))?;
                if let Some(next) = stale(id, ver) {
                    return Err(at(
                        bi,
                        format!("stale version {ver} of {v} defined (next unissued is {next})"),
                    ));
                }
            }
            if let HStmtKind::Store {
                dvar_def: Some((id, ver)),
                ..
            } = &stmt.kind
            {
                define(*id, *ver).map_err(|m| at(bi, m))?;
                if let Some(next) = stale(*id, *ver) {
                    return Err(at(
                        bi,
                        format!(
                            "stale version {ver} of {id:?} in store def (next unissued is {next})"
                        ),
                    ));
                }
            }
            for chi in &stmt.chi {
                if chi.old_ver == u32::MAX {
                    return Err(at(bi, format!("unrenamed chi old version in block {bi}")));
                }
                define(chi.var, chi.new_ver).map_err(|m| at(bi, m))?;
                for ver in [chi.old_ver, chi.new_ver] {
                    if let Some(next) = stale(chi.var, ver) {
                        return Err(at(
                            bi,
                            format!(
                                "stale version {ver} of {:?} in chi (next unissued is {next})",
                                chi.var
                            ),
                        ));
                    }
                }
            }
        }
        if b.term.is_none() {
            return Err(at(bi, format!("block {bi} lost its terminator")));
        }
    }
    verify_dominance(hf).map_err(|msg| HssaVerifyError { block: None, msg })?;
    Ok(())
}

/// Checks the SSA dominance property for register variables: every use of
/// `(reg, version)` must be dominated by its definition (statement order
/// within a block, dominator tree across blocks). Versions of *collapsed*
/// registers are exempt — their versions deliberately alias one machine
/// register and availability is guaranteed by SSAPRE's will-be-available
/// analysis instead.
fn verify_dominance(hf: &HssaFunc) -> Result<(), String> {
    let collapsed: FxHashSet<VarId> = hf.collapsed_vars.iter().copied().collect();

    // def location per (reg, ver): block + position (-1 = phi at entry of
    // block, entry for version 0)
    #[derive(Clone, Copy, PartialEq)]
    enum DefAt {
        Entry,
        Phi(BlockId),
        Stmt(BlockId, usize),
    }
    let mut defs: FxHashMap<(VarId, u32), DefAt> = FxHashMap::default();
    for (i, v) in (0..hf.catalog.len()).filter_map(|i| {
        let id = HVarId(i as u32);
        match hf.catalog.kind(id) {
            HVarKind::Reg(v) => Some((id, v)),
            _ => None,
        }
    }) {
        let _ = i;
        defs.insert((v, 0), DefAt::Entry);
    }
    for b in hf.block_ids() {
        for phi in &hf.blocks[b.index()].phis {
            if let HVarKind::Reg(v) = hf.catalog.kind(phi.var) {
                defs.insert((v, phi.dest), DefAt::Phi(b));
            }
        }
        for (si, stmt) in hf.blocks[b.index()].stmts.iter().enumerate() {
            if let Some((v, ver)) = stmt.def_reg() {
                defs.insert((v, ver), DefAt::Stmt(b, si));
            }
        }
    }

    // dominator tree over the HSSA's own terminators
    let doms = hssa_dominators(hf);
    let dominates = |a: BlockId, b: BlockId| -> bool {
        let mut cur = Some(b);
        while let Some(c) = cur {
            if c == a {
                return true;
            }
            cur = doms[c.index()];
            if cur == Some(c) {
                return false;
            }
        }
        false
    };

    let check_use = |v: VarId, ver: u32, at_block: BlockId, at_stmt: usize| -> Result<(), String> {
        if collapsed.contains(&v) {
            return Ok(());
        }
        match defs.get(&(v, ver)) {
            None => Err(format!("use of undefined {v}@{ver}")),
            Some(DefAt::Entry) => Ok(()),
            Some(DefAt::Phi(db)) => {
                if dominates(*db, at_block) {
                    Ok(())
                } else {
                    Err(format!("use of {v}@{ver} not dominated by its phi"))
                }
            }
            Some(DefAt::Stmt(db, dsi)) => {
                if *db == at_block {
                    if *dsi < at_stmt {
                        Ok(())
                    } else {
                        Err(format!("use of {v}@{ver} before its def in block {db}"))
                    }
                } else if dominates(*db, at_block) {
                    Ok(())
                } else {
                    Err(format!("use of {v}@{ver} not dominated by its def"))
                }
            }
        }
    };

    for b in hf.block_ids() {
        let blk = &hf.blocks[b.index()];
        for (si, stmt) in blk.stmts.iter().enumerate() {
            for (v, ver) in stmt.reg_uses() {
                check_use(v, ver, b, si)?;
            }
        }
        let term_use = blk.term.as_ref().and_then(HTerm::operand);
        if let Some((v, ver)) = term_use.and_then(|o| o.as_reg()) {
            check_use(v, ver, b, blk.stmts.len() + 1)?;
        }
        // phi args must be dominated by their defs at the end of the
        // corresponding predecessor
        for phi in &blk.phis {
            if let HVarKind::Reg(v) = hf.catalog.kind(phi.var) {
                for (pi, &arg) in phi.args.iter().enumerate() {
                    let pred = hf.preds[b.index()][pi];
                    // version 0 fallback on never-taken paths is allowed
                    if arg == 0 {
                        continue;
                    }
                    check_use(v, arg, pred, usize::MAX - 1)?;
                }
            }
        }
    }
    Ok(())
}

/// Simple iterative dominator computation over the HSSA terminators
/// (blocks may differ from the base function after optimization only in
/// statement content, but this keeps the verifier self-contained).
fn hssa_dominators(hf: &HssaFunc) -> Vec<Option<BlockId>> {
    let n = hf.blocks.len();
    let entry = BlockId(0);
    // reverse postorder
    let mut state = vec![0u8; n];
    let mut post: Vec<BlockId> = Vec::new();
    let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
    state[entry.index()] = 1;
    while let Some(&mut (b, ref mut cur)) = stack.last_mut() {
        let succs = hf.blocks[b.index()]
            .term
            .as_ref()
            .map(|t| t.successors())
            .unwrap_or_default();
        if *cur < succs.len() {
            let s = succs[*cur];
            *cur += 1;
            if state[s.index()] == 0 {
                state[s.index()] = 1;
                stack.push((s, 0));
            }
        } else {
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    let mut rpo_num = vec![usize::MAX; n];
    for (i, &b) in post.iter().enumerate() {
        rpo_num[b.index()] = i;
    }
    let mut idom: Vec<Option<BlockId>> = vec![None; n];
    idom[entry.index()] = Some(entry);
    let mut changed = true;
    while changed {
        changed = false;
        for &b in post.iter().skip(1) {
            let mut new: Option<BlockId> = None;
            for &p in &hf.preds[b.index()] {
                if idom[p.index()].is_none() {
                    continue;
                }
                new = Some(match new {
                    None => p,
                    Some(cur) => {
                        let (mut x, mut y) = (p, cur);
                        while x != y {
                            while rpo_num[x.index()] > rpo_num[y.index()] {
                                x = idom[x.index()].unwrap();
                            }
                            while rpo_num[y.index()] > rpo_num[x.index()] {
                                y = idom[y.index()].unwrap();
                            }
                        }
                        x
                    }
                });
            }
            if let Some(ni) = new {
                if idom[b.index()] != Some(ni) {
                    idom[b.index()] = Some(ni);
                    changed = true;
                }
            }
        }
    }
    idom[entry.index()] = None;
    idom
}

/// [`build_hssa`] of `m`'s function `fid` under `source`, with freshly
/// computed CFG analyses: the setup this crate's tests share.
#[cfg(test)]
pub(crate) fn build_in_module(
    m: &specframe_ir::Module,
    fid: FuncId,
    aa: &AliasAnalysis,
    source: SpecSource<'_>,
) -> HssaFunc {
    let f = m.func(fid);
    let fa = FuncAnalyses::compute(f);
    build_hssa(&m.globals, f, fid, aa, &Likeliness::new(source), &fa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_ir::{parse_module, Module};

    fn analyze(src: &str) -> (Module, AliasAnalysis) {
        let m = parse_module(src).unwrap();
        let aa = AliasAnalysis::analyze(&m);
        (m, aa)
    }

    /// The paper's Example 1 (§3.1): `*p` aliases `a` and `b`; with a
    /// profile showing only `b` is touched, the χ over `b` is flagged and
    /// the χ over `a` stays a speculative weak update.
    const EXAMPLE1: &str = r#"
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
  store.i64 [@a], 4
  y = load.i64 [p]
  ret y
}
"#;

    fn example1_pointing_to_b() -> (Module, AliasAnalysis) {
        // make p point to both a and b statically: caller passes either
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
  store.i64 [@a], 4
  y = load.i64 [p]
  ret y
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
        analyze(src)
    }

    #[test]
    fn chi_lists_cover_aliased_vars() {
        let (m, aa) = example1_pointing_to_b();
        let fid = m.func_by_name("ex1").unwrap();
        let hf = build_in_module(&m, fid, &aa, SpecSource::None);
        verify_hssa(&hf).unwrap();
        // stmt 2 is the indirect store *p: chi over vvar + a + b
        let st = &hf.blocks[0].stmts[2];
        assert!(matches!(st.kind, HStmtKind::Store { dvar_def: None, .. }));
        assert_eq!(st.chi.len(), 3, "chi: {:?}", st.chi);
        assert!(st.chi.iter().all(|c| c.likely));
        // stmt 5 is the indirect load *p: mu over vvar + a + b
        let ld = &hf.blocks[0].stmts[5];
        assert_eq!(ld.mu.len(), 3, "mu: {:?}", ld.mu);
    }

    #[test]
    fn profile_flags_follow_observed_locs() {
        let (m, aa) = example1_pointing_to_b();
        // run main with sel=0 so p == &b: profile sees only b
        let mut prof = specframe_profile::AliasProfiler::new();
        specframe_profile::run_with(&m, "main", &[specframe_ir::Value::I(0)], 10_000, &mut prof)
            .unwrap();
        let profile = prof.finish();
        let fid = m.func_by_name("ex1").unwrap();
        let hf = build_in_module(&m, fid, &aa, SpecSource::Profile(&profile));
        verify_hssa(&hf).unwrap();

        let ga = m.global_by_name("a").unwrap();
        let gb = m.global_by_name("b").unwrap();
        let id_a = hf
            .catalog
            .get(HVarKind::Mem(MemVar {
                base: MemBase::Global(ga),
                off: 0,
            }))
            .unwrap();
        let id_b = hf
            .catalog
            .get(HVarKind::Mem(MemVar {
                base: MemBase::Global(gb),
                off: 0,
            }))
            .unwrap();
        let st = &hf.blocks[0].stmts[2];
        let chi_a = st.chi_of(id_a).expect("chi over a");
        let chi_b = st.chi_of(id_b).expect("chi over b");
        // §3.2.1: b was touched -> chi_s; a was not -> speculative weak update
        assert!(!chi_a.likely, "a must be a weak update");
        assert!(chi_b.likely, "b must be flagged");
    }

    #[test]
    fn no_spec_mode_flags_everything() {
        let (m, aa) = analyze(EXAMPLE1);
        let fid = m.func_by_name("ex1").unwrap();
        let hf = build_in_module(&m, fid, &aa, SpecSource::None);
        for b in &hf.blocks {
            for s in &b.stmts {
                assert!(s.chi.iter().all(|c| c.likely));
                assert!(s.mu.iter().all(|u| u.likely));
            }
        }
    }

    #[test]
    fn aggressive_mode_flags_nothing() {
        let (m, aa) = example1_pointing_to_b();
        let fid = m.func_by_name("ex1").unwrap();
        let hf = build_in_module(&m, fid, &aa, SpecSource::Aggressive);
        for b in &hf.blocks {
            for s in &b.stmts {
                assert!(s.chi.iter().all(|c| !c.likely));
            }
        }
    }

    #[test]
    fn renaming_gives_unique_versions_and_phis_merge() {
        let src = r#"
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
  v = add v, 1
  store.i64 [@g], v
  i = add i, 1
  jmp head
exit:
  v = load.i64 [@g]
  ret v
}
"#;
        let (m, aa) = analyze(src);
        let fid = m.func_by_name("f").unwrap();
        let hf = build_in_module(&m, fid, &aa, SpecSource::None);
        verify_hssa(&hf).unwrap();
        // the loop header must merge i and the memory variable g
        let gb = m.global_by_name("g").unwrap();
        let id_g = hf
            .catalog
            .get(HVarKind::Mem(MemVar {
                base: MemBase::Global(gb),
                off: 0,
            }))
            .unwrap();
        let head = &hf.blocks[1];
        assert!(head.phis.iter().any(|p| p.var == id_g), "phi for g at head");
        let id_i = hf.catalog.get(HVarKind::Reg(VarId(1))).unwrap();
        assert!(head.phis.iter().any(|p| p.var == id_i), "phi for i at head");
    }

    /// Rename would leave the dead block's use of `x` unversioned, so
    /// construction refuses a function `prepare_module` has not cleaned.
    #[test]
    #[should_panic(expected = "block `dead` of `f` is unreachable; run prepare_module first")]
    fn unprepared_dead_block_is_rejected() {
        let (m, aa) = analyze(
            "func f(x: i64) -> i64 {\nentry:\n  ret x\ndead:\n  x = add x, 2\n  ret x\n}\n",
        );
        let fid = m.func_by_name("f").unwrap();
        build_in_module(&m, fid, &aa, SpecSource::None);
    }

    #[test]
    fn direct_store_strongly_defines() {
        let (m, aa) = example1_pointing_to_b();
        let fid = m.func_by_name("ex1").unwrap();
        let hf = build_in_module(&m, fid, &aa, SpecSource::None);
        let s0 = &hf.blocks[0].stmts[0]; // store.i64 [@a], 1
        let HStmtKind::Store {
            dvar_def: Some((_, v1)),
            ..
        } = s0.kind
        else {
            panic!("expected direct store def")
        };
        let s3 = &hf.blocks[0].stmts[4]; // store.i64 [@a], 4
        let HStmtKind::Store {
            dvar_def: Some((_, v2)),
            ..
        } = s3.kind
        else {
            panic!()
        };
        assert_ne!(v1, v2);
        // the load of a in between reads the version the chi of *p defined
        let ld = &hf.blocks[0].stmts[3];
        let HStmtKind::Load {
            dvar: Some((_, vload)),
            ..
        } = ld.kind
        else {
            panic!()
        };
        // store@0 defines v1; *p's chi defines v_chi > v1; load reads v_chi
        assert!(vload > v1);
        assert_ne!(vload, v2);
    }

    #[test]
    fn calls_get_mod_ref_lists() {
        let src = r#"
global g: i64[1]

func set() {
entry:
  store.i64 [@g], 1
  ret
}

func f() -> i64 {
  var v: i64
entry:
  v = load.i64 [@g]
  call set()
  v = load.i64 [@g]
  ret v
}
"#;
        let (m, aa) = analyze(src);
        let fid = m.func_by_name("f").unwrap();
        let hf = build_in_module(&m, fid, &aa, SpecSource::Heuristic);
        let call = &hf.blocks[0].stmts[1];
        assert!(matches!(call.kind, HStmtKind::Call { .. }));
        assert_eq!(call.chi.len(), 1, "call must chi g");
        // heuristic rule 3: call chis are flagged likely
        assert!(call.chi[0].likely);
    }
}
