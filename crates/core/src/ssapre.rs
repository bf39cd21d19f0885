//! Speculative SSAPRE clients: expression PRE and register promotion.
//!
//! The six-step engine itself lives in [`crate::prekernel`]; this module
//! hosts the *expression* client of that kernel — the lexical candidate
//! families [`ExprKey`] describes:
//!
//! * arithmetic expressions (address computations among them);
//! * direct loads (scalar promotion);
//! * indirect loads (speculative register promotion, §5 of the paper).
//!
//! [`ssapre_function`] runs the kernel over every candidate in the phase
//! order the cascading rewrites need (arithmetic first so address
//! computations common up, then direct loads whose collapsed temporaries
//! may become indirect bases, then indirect loads). The client's kill
//! query routes every χ weak-update decision through the driver's single
//! [`Likeliness`](specframe_hssa::Likeliness) oracle.
//!
//! The PRE temporary `t` is *collapsed* at lowering (all SSA versions map
//! to one register): that is what lets the ALAT key advanced loads and
//! check loads by the same register, and what makes a failed check's
//! reloaded value visible to every later reload.

use crate::expr::{collect_candidates, kills, occurrence_versions, ExprKey, Family, OccVersions};
use crate::prekernel::{run_kernel, SpecClient};
use crate::stats::OptStats;
use specframe_analysis::{DomFrontiers, DomTree, FuncAnalyses};
use specframe_hssa::{
    ChiRefine, HOperand, HStmt, HStmtKind, HVarId, HssaFunc, MemBase, RefineStmt,
};
use specframe_ir::FxHashSet;
use specframe_ir::{Function, LoadSpec, Ty, VarId};

// The engine moved to `prekernel`; keep the public surface stable.
pub use crate::prekernel::{
    cleanup_hssa, copy_propagate, eliminate_dead_copies, eliminate_dead_phis,
    propagate_collapsed_local, SpecPolicy,
};

/// Runs speculative SSAPRE for every candidate expression of `hf`.
/// Returns the number of expressions that were transformed.
///
/// `f_base` is the function the SSA form was built from (pre-SSAPRE view;
/// SSAPRE itself never mutates it) and `fa` its cached CFG analyses.
pub fn ssapre_function(
    f_base: &specframe_ir::Function,
    hf: &mut HssaFunc,
    policy: &SpecPolicy<'_>,
    stats: &mut OptStats,
    fa: &FuncAnalyses,
) -> usize {
    let (dt, df) = (&fa.dt, &fa.df);
    let mut changed = 0;
    // phase 1: arithmetic expressions (address computations among them);
    // every family is collected so `candidates` counts the loads too
    let candidates = collect_candidates(hf, &Family::ALL);
    stats.candidates += candidates.len() as u64;
    for key in candidates.iter().filter(|k| !k.is_load()) {
        if ssapre_expression(f_base, hf, key, dt, df, policy, stats) {
            changed += 1;
        }
    }
    // phase 2: copy propagation unifies the base registers of loads whose
    // address arithmetic phase 1 just commoned — this restores the "same
    // syntax tree" identity the paper's lexical expression matching relies
    // on (a three-address IR would otherwise hide it behind copies)
    copy_propagate(hf);
    // phase 3a: direct loads (scalar promotion) first — their collapsed
    // temporaries may become the base registers of indirect candidates
    for key in &collect_candidates(hf, &[Family::DirectLoad]) {
        if ssapre_expression(f_base, hf, key, dt, df, policy, stats) {
            changed += 1;
        }
    }
    // phase 3b: forward the promoted pointers into dependent load bases so
    // cascaded speculation (Appendix B's chk.a scenario) can see them
    copy_propagate(hf);
    propagate_collapsed_local(hf);
    // phase 3c: indirect loads, re-collected after the rewrite
    for key in &collect_candidates(hf, &[Family::IndirectLoad]) {
        if ssapre_expression(f_base, hf, key, dt, df, policy, stats) {
            changed += 1;
        }
    }
    // phase 4: clean up — propagate the copies the transformations left
    // behind and drop the dead ones, so a reload costs its check and
    // nothing more
    cleanup_hssa(hf);
    changed
}

/// Runs the six kernel steps for one expression. Returns `true` if the
/// program changed.
#[allow(clippy::too_many_arguments)]
pub fn ssapre_expression(
    f_base: &Function,
    hf: &mut HssaFunc,
    key: &ExprKey,
    dt: &DomTree,
    df: &DomFrontiers,
    policy: &SpecPolicy<'_>,
    stats: &mut OptStats,
) -> bool {
    let client = ExprClient::new(hf, key, policy, dt);
    run_kernel(f_base, hf, &client, dt, df, policy, stats)
}

// ---------------------------------------------------------------------------
// the expression client
// ---------------------------------------------------------------------------

/// The kernel client for one lexical expression candidate.
struct ExprClient<'a> {
    key: &'a ExprKey,
    policy: &'a SpecPolicy<'a>,
    tracked_regs: Vec<VarId>,
    mem_var: Option<HVarId>,
    /// Cascaded speculation (Appendix B's chk.a case): when an indirect
    /// load's base register is itself a collapsed promotion temporary, its
    /// SSA versions all denote "the current value of the promoted pointer"
    /// and a new version (a check or save of the pointer) is an *injuring*
    /// definition, not a kill: the dependent reload re-validates through
    /// its own ALAT check against the current address, so matching across
    /// those versions is recoverable.
    base_collapsed: bool,
    /// Union of profiled LOCs across the candidate's occurrence sites
    /// (for the per-expression χ refinement in profile mode).
    expr_locs: FxHashSet<specframe_alias::Loc>,
}

impl<'a> ExprClient<'a> {
    fn new(hf: &HssaFunc, key: &'a ExprKey, policy: &'a SpecPolicy<'a>, dt: &DomTree) -> Self {
        let base_collapsed = match key {
            ExprKey::IndirectLoad { base, .. } => hf.collapsed_vars.contains(base),
            _ => false,
        };
        let expr_locs: FxHashSet<specframe_alias::Loc> = match policy.oracle.profile() {
            Some(p) => {
                let mut locs = FxHashSet::default();
                for b in hf.block_ids() {
                    if !dt.is_reachable(b) {
                        continue;
                    }
                    for stmt in &hf.blocks[b.index()].stmts {
                        if occurrence_versions(stmt, key).is_none() {
                            continue;
                        }
                        if let HStmtKind::Load { site, .. } = &stmt.kind {
                            if let Some(s) = p.locs(*site) {
                                locs.extend(s.iter().copied());
                            }
                        }
                    }
                }
                locs
            }
            None => FxHashSet::default(),
        };
        ExprClient {
            key,
            policy,
            tracked_regs: key.tracked_regs().iter().copied().collect(),
            mem_var: key.tracked_mem(hf),
            base_collapsed,
            expr_locs,
        }
    }
}

impl SpecClient for ExprClient<'_> {
    fn occurrence(&self, stmt: &HStmt) -> Option<OccVersions> {
        occurrence_versions(stmt, self.key)
    }

    fn kills(&self, stmt: &HStmt) -> bool {
        kills_with_policy(
            stmt,
            self.key,
            self.mem_var,
            self.policy,
            &self.expr_locs,
            self.base_collapsed,
        )
    }

    fn tracked_regs(&self) -> &[VarId] {
        &self.tracked_regs
    }

    fn tracked_mem(&self) -> Option<HVarId> {
        self.mem_var
    }

    fn base_collapsed(&self) -> bool {
        self.base_collapsed
    }

    fn is_load(&self) -> bool {
        self.key.is_load()
    }

    fn control_speculatable(&self) -> bool {
        self.key.control_speculatable()
    }

    fn temp_ty(&self) -> Ty {
        match self.key {
            ExprKey::Bin(op, _, _) => op.result_ty(),
            ExprKey::DirectLoad(_, ty) => *ty,
            ExprKey::IndirectLoad { ty, .. } => *ty,
        }
    }

    fn temp_name(&self, n: u64) -> String {
        format!("pre{n}")
    }

    fn materialize(
        &self,
        hf: &HssaFunc,
        t: (VarId, u32),
        vers: &OccVersions,
        spec: LoadSpec,
    ) -> HStmt {
        materialize(self.key, hf, t, vers, self.mem_var, spec)
    }
}

// ---------------------------------------------------------------------------
// the client's kill query (the speculative-weak-update decision)
// ---------------------------------------------------------------------------

/// The killing statement's shape as the oracle's plain-data view.
fn refine_stmt(stmt: &HStmt) -> RefineStmt {
    match &stmt.kind {
        HStmtKind::Store {
            site, base, offset, ..
        } => RefineStmt::Store {
            site: *site,
            syntax: match base {
                HOperand::Reg(sb, _) => Some((*sb, *offset)),
                _ => None,
            },
        },
        HStmtKind::Call { site, .. } => RefineStmt::Call { site: *site },
        _ => RefineStmt::Other,
    }
}

fn kills_with_policy(
    stmt: &HStmt,
    key: &ExprKey,
    mem_var: Option<HVarId>,
    policy: &SpecPolicy<'_>,
    expr_locs: &FxHashSet<specframe_alias::Loc>,
    base_collapsed: bool,
) -> bool {
    if !policy.data() {
        return kills(stmt, key, mem_var);
    }
    let redefines_reg = stmt
        .def_reg()
        .is_some_and(|(v, _)| key.tracked_regs().iter().any(|&r| r == v));
    // a redefinition of a collapsed base register is an injuring def, not a
    // kill: dependent reloads re-validate through their own check
    if redefines_reg && !base_collapsed {
        return true;
    }
    kills_mem_part(stmt, key, mem_var, policy, expr_locs)
}

/// The memory component of the kill decision (strong def or effective chi
/// kill of the tracked memory variable), ignoring register redefinitions.
fn kills_mem_part(
    stmt: &HStmt,
    key: &ExprKey,
    mem_var: Option<HVarId>,
    policy: &SpecPolicy<'_>,
    expr_locs: &FxHashSet<specframe_alias::Loc>,
) -> bool {
    let Some(mv) = mem_var else { return false };
    if let HStmtKind::Store {
        dvar_def: Some((id, _)),
        ..
    } = &stmt.kind
    {
        if *id == mv {
            return true;
        }
    }
    let Some(chi) = stmt.chi_of(mv) else {
        return false;
    };
    policy.oracle.chi_kills(&ChiRefine {
        chi_likely: chi.likely,
        stmt: refine_stmt(stmt),
        cand_direct: matches!(key, ExprKey::DirectLoad(..)),
        cand_syntax: key.syntax(),
        cand_ty: key.load_ty(),
        expr_locs,
    })
}

/// Builds the inserted computation of `key` writing `t`, using the operand
/// versions recorded at the predecessor end.
fn materialize(
    key: &ExprKey,
    hf: &HssaFunc,
    t: (VarId, u32),
    vers: &OccVersions,
    mem_var: Option<HVarId>,
    spec: LoadSpec,
) -> HStmt {
    let _ = hf;
    match key {
        ExprKey::Bin(op, a, b) => {
            let mut it = vers.regs.iter();
            let mut conv = |l: &crate::expr::LexOperand| -> HOperand {
                match l {
                    crate::expr::LexOperand::Reg(v) => HOperand::Reg(*v, *it.next().unwrap()),
                    crate::expr::LexOperand::ConstI(c) => HOperand::ConstI(*c),
                    crate::expr::LexOperand::ConstF(c) => HOperand::ConstF(f64::from_bits(*c)),
                    crate::expr::LexOperand::GlobalAddr(g) => HOperand::GlobalAddr(*g),
                    crate::expr::LexOperand::SlotAddr(s) => HOperand::SlotAddr(*s),
                }
            };
            // note: tracked_regs dedups, so a+a uses one version for both
            let a_op = conv(a);
            let b_op = if a == b { a_op } else { conv(b) };
            HStmt::new(HStmtKind::Bin {
                dst: t,
                op: *op,
                a: a_op,
                b: b_op,
            })
        }
        ExprKey::DirectLoad(mv, ty) => {
            let base = match mv.base {
                MemBase::Global(g) => HOperand::GlobalAddr(g),
                MemBase::Slot(s) => HOperand::SlotAddr(s),
            };
            let mut stmt = HStmt::new(HStmtKind::Load {
                dst: t,
                base,
                offset: mv.off,
                ty: *ty,
                spec,
                site: specframe_hssa::stmt::FRESH_SITE,
                dvar: mem_var.map(|id| (id, vers.mem.unwrap_or(0))),
            });
            stmt.mu.clear();
            stmt
        }
        ExprKey::IndirectLoad {
            base,
            off,
            ty,
            vvar,
            ..
        } => {
            let mut stmt = HStmt::new(HStmtKind::Load {
                dst: t,
                base: HOperand::Reg(*base, vers.regs[0]),
                offset: *off,
                ty: *ty,
                spec,
                site: specframe_hssa::stmt::FRESH_SITE,
                dvar: None,
            });
            stmt.mu.push(specframe_hssa::MuOp {
                var: *vvar,
                ver: vers.mem.unwrap_or(0),
                likely: true,
            });
            stmt
        }
    }
}
