//! Speculative SSAPRE's client: expression PRE and register promotion.
//!
//! The six-step engine itself lives in [`crate::prekernel`]; this module
//! hosts its one client, the *expression* client, over the lexical
//! candidate families [`ExprKey`] describes:
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

use crate::expr::{
    collect_candidates, kills, occurrence_versions, ExprKey, Family, OccVersions, StmtTable,
};
use crate::prekernel::{propagate_copies, run_kernel, SpecPolicy};
use crate::stats::OptStats;
use specframe_analysis::FuncAnalyses;
use specframe_hssa::{
    ChiRefine, HOperand, HStmt, HStmtKind, HVarId, HssaFunc, MemBase, RefineStmt,
};
use specframe_ir::FxHashSet;
use specframe_ir::{BlockId, Function, LoadSpec, Ty, VarId};

/// Runs speculative SSAPRE for every candidate expression of `hf`.
/// Returns the number of expressions that were transformed.
///
/// `f_base` is the function the SSA form was built from (pre-SSAPRE view;
/// SSAPRE itself never mutates it) and `fa` its cached CFG analyses.
///
/// The result is not cleaned: the copies the transformations leave behind
/// and the unpruned φs of the build stay until the caller runs
/// [`cleanup_hssa`](crate::prekernel::cleanup_hssa) (the driver always
/// does, since SSAPRE follows a fresh build), so a reload costs its check
/// and nothing more.
pub fn ssapre_function(
    f_base: &specframe_ir::Function,
    hf: &mut HssaFunc,
    policy: &SpecPolicy<'_>,
    stats: &mut OptStats,
    fa: &FuncAnalyses,
) -> usize {
    ssapre_phases(f_base, hf, policy, stats, fa, |_, _, _| {})
}

/// [`ssapre_function`], calling `visit` with the function, the candidate
/// and the statement-table positions it scans before each candidate runs.
fn ssapre_phases(
    f_base: &Function,
    hf: &mut HssaFunc,
    policy: &SpecPolicy<'_>,
    stats: &mut OptStats,
    fa: &FuncAnalyses,
    mut visit: impl FnMut(&HssaFunc, &ExprKey, &[(BlockId, u32)]),
) -> usize {
    let mut changed = 0;
    // phase 1: arithmetic expressions (address computations among them);
    // every family is collected so `candidates` counts the loads too
    let candidates = collect_candidates(hf, &Family::ALL);
    stats.candidates += candidates.len() as u64;
    let arith = candidates.iter().filter(|k| !k.is_load());
    changed += run_phase(f_base, hf, arith, policy, stats, fa, &mut visit);
    // phase 2: copy propagation unifies the base registers of loads whose
    // address arithmetic phase 1 just commoned — this restores the "same
    // syntax tree" identity the paper's lexical expression matching relies
    // on (a three-address IR would otherwise hide it behind copies)
    propagate_copies(hf);
    // phase 3a: direct loads (scalar promotion) first — their collapsed
    // temporaries may become the base registers of indirect candidates
    let direct = collect_candidates(hf, &[Family::DirectLoad]);
    changed += run_phase(f_base, hf, &direct, policy, stats, fa, &mut visit);
    // phase 3b: forward the promoted pointers into dependent load bases so
    // cascaded speculation (Appendix B's chk.a scenario) can see them
    propagate_copies(hf);
    // phase 3c: indirect loads, re-collected after the rewrite
    let indirect = collect_candidates(hf, &[Family::IndirectLoad]);
    changed += run_phase(f_base, hf, &indirect, policy, stats, fa, &mut visit);
    changed
}

/// Runs the kernel for one phase's candidates, all of one family, over one
/// [`StmtTable`] of that family, rebuilt before the next candidate
/// whenever one changed `hf` (its statement positions moved). Returns the
/// number transformed.
fn run_phase<'k>(
    f_base: &Function,
    hf: &mut HssaFunc,
    keys: impl IntoIterator<Item = &'k ExprKey>,
    policy: &SpecPolicy<'_>,
    stats: &mut OptStats,
    fa: &FuncAnalyses,
    visit: &mut impl FnMut(&HssaFunc, &ExprKey, &[(BlockId, u32)]),
) -> usize {
    let mut changed = 0;
    let mut table = StmtTable::default();
    let mut stale = true;
    for key in keys {
        if stale {
            table = StmtTable::build(hf, key.family());
            stale = false;
        }
        let sites = table.sites(key);
        visit(hf, key, sites);
        let client = ExprClient::new(hf, key, sites, policy);
        if run_kernel(f_base, hf, &client, sites, fa, stats) {
            changed += 1;
            stale = true;
        }
    }
    changed
}

// ---------------------------------------------------------------------------
// the expression client
// ---------------------------------------------------------------------------

/// The kernel's client: one lexical expression candidate under the
/// speculation policy.
pub(crate) struct ExprClient<'a> {
    pub(crate) key: &'a ExprKey,
    pub(crate) policy: &'a SpecPolicy<'a>,
    /// Register operand variables, in lexical position order (deduped).
    pub(crate) tracked_regs: Vec<VarId>,
    /// Memory/virtual variable the candidate depends on, if any.
    pub(crate) mem_var: Option<HVarId>,
    /// Cascaded speculation (Appendix B's chk.a case): when an indirect
    /// load's base register is itself a collapsed promotion temporary, its
    /// SSA versions all denote "the current value of the promoted pointer"
    /// and a new version (a check or save of the pointer) is an *injuring*
    /// definition, not a kill: the dependent reload re-validates through
    /// its own ALAT check against the current address, so matching across
    /// those versions is recoverable.
    pub(crate) base_collapsed: bool,
    /// Union of profiled LOCs across the candidate's occurrence sites
    /// (for the per-expression χ refinement in profile mode).
    expr_locs: FxHashSet<specframe_alias::Loc>,
}

impl<'a> ExprClient<'a> {
    pub(crate) fn new(
        hf: &HssaFunc,
        key: &'a ExprKey,
        sites: &[(BlockId, u32)],
        policy: &'a SpecPolicy<'a>,
    ) -> Self {
        let base_collapsed = match key {
            ExprKey::IndirectLoad { base, .. } => hf.collapsed_vars.contains(base),
            _ => false,
        };
        let expr_locs: FxHashSet<specframe_alias::Loc> = match policy.oracle.profile() {
            Some(p) => {
                let mut locs = FxHashSet::default();
                for &(b, si) in sites {
                    let stmt = &hf.blocks[b.index()].stmts[si as usize];
                    if occurrence_versions(stmt, key).is_none() {
                        continue;
                    }
                    if let HStmtKind::Load { site, .. } = &stmt.kind {
                        if let Some(s) = p.locs(*site) {
                            locs.extend(s.iter().copied());
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

    /// Candidate-occurrence harvesting: does `stmt` compute the candidate?
    /// Returns the operand versions it consumes.
    pub(crate) fn occurrence(&self, stmt: &HStmt) -> Option<OccVersions> {
        occurrence_versions(stmt, self.key)
    }

    /// Result type of the kernel temporary.
    pub(crate) fn temp_ty(&self) -> Ty {
        match self.key {
            ExprKey::Bin(op, _, _) => op.result_ty(),
            ExprKey::DirectLoad(_, ty) => *ty,
            ExprKey::IndirectLoad { ty, .. } => *ty,
        }
    }

    /// The speculative-weak-update query: does `stmt` kill the candidate
    /// under the active policy? χ decisions go through the driver's
    /// likeliness oracle.
    pub(crate) fn kills(&self, stmt: &HStmt) -> bool {
        if !self.policy.data() {
            return kills(stmt, self.key, self.mem_var);
        }
        let redefines_reg = stmt
            .def_reg()
            .is_some_and(|(v, _)| self.tracked_regs.contains(&v));
        // a redefinition of a collapsed base register is an injuring def,
        // not a kill: dependent reloads re-validate through their own check
        if redefines_reg && !self.base_collapsed {
            return true;
        }
        self.kills_mem_part(stmt)
    }

    /// The memory component of the kill decision (strong def or effective
    /// chi kill of the tracked memory variable), ignoring register
    /// redefinitions.
    fn kills_mem_part(&self, stmt: &HStmt) -> bool {
        let Some(mv) = self.mem_var else { return false };
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
        let key = self.key;
        self.policy.oracle.chi_kills(&ChiRefine {
            chi_likely: chi.likely,
            stmt: refine_stmt(stmt),
            cand_direct: matches!(key, ExprKey::DirectLoad(..)),
            cand_syntax: key.syntax(),
            cand_ty: key.load_ty(),
            expr_locs: &self.expr_locs,
        })
    }

    /// The computation of the candidate CodeMotion inserts at a
    /// predecessor end, writing `t` from the operand versions `vers`
    /// recorded there.
    pub(crate) fn materialize(&self, t: (VarId, u32), vers: &OccVersions, spec: LoadSpec) -> HStmt {
        match self.key {
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
                    dvar: self.mem_var.map(|id| (id, vers.mem.unwrap_or(0))),
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
}

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{lex_gt, LexOperand};
    use crate::prekernel::{cleanup_hssa, run_steps, Kernel};
    use specframe_alias::AliasAnalysis;
    use specframe_analysis::{estimate_function, EdgeProfile};
    use specframe_hssa::{
        build_hssa, print_hssa, refine_function, HTerm, HVarKind, Likeliness, SpecSource,
    };
    use specframe_ir::display::func_name_table;
    use specframe_ir::{parse_module, FuncId, GlobalId, Module, SlotId};
    use specframe_profile::{train, AliasProfile, Collect};
    use specframe_workloads::{all_workloads, mega_source, Scale};
    use std::mem::discriminant;

    /// The occurrences of `key` a plain walk of every statement finds.
    fn full_walk(hf: &HssaFunc, key: &ExprKey) -> Vec<(BlockId, usize, OccVersions)> {
        let mut occs = Vec::new();
        for b in hf.block_ids() {
            for (si, stmt) in hf.blocks[b.index()].stmts.iter().enumerate() {
                if let Some(vers) = occurrence_versions(stmt, key) {
                    occs.push((b, si, vers));
                }
            }
        }
        occs
    }

    /// Runs SSAPRE with static control speculation over every function of
    /// the prepared module `m` under `source`, checking before each
    /// candidate that the table-driven scan finds what [`full_walk`] finds
    /// and that the six steps, run alone on a copy of the form, leave a
    /// candidate a pre-test decides untouched, and after SSAPRE that a
    /// second cleanup changes nothing. Returns the candidates checked, how
    /// many of them ran right after a candidate of the same phase that
    /// changed the function, and how many each pre-test decided.
    fn check_module(m: &Module, source: SpecSource<'_>) -> (usize, usize, [usize; 2]) {
        let aa = AliasAnalysis::analyze(m);
        let names = func_name_table(m);
        let (mut checked, mut after_change, mut decided) = (0, 0, [0; 2]);
        for fi in 0..m.funcs.len() {
            let fid = FuncId::from_index(fi);
            let mut f = m.funcs[fi].clone();
            let fa = FuncAnalyses::compute(&f);
            let mut edges = EdgeProfile::new();
            estimate_function(&mut edges, fid, &f, &fa);
            // the driver's order: refine over the built form, and rebuild
            // it only when something folded
            let oracle = Likeliness::new(source);
            let mut hf = build_hssa(&m.globals, &f, fid, &aa, &oracle, &fa);
            if refine_function(&mut f, &hf) > 0 {
                hf = build_hssa(&m.globals, &f, fid, &aa, &oracle, &fa);
            }
            let policy = SpecPolicy {
                oracle,
                control: Some((&edges, fid)),
            };
            let mut last: Option<(ExprKey, Vec<Vec<HStmt>>)> = None;
            ssapre_phases(
                &f,
                &mut hf,
                &policy,
                &mut OptStats::default(),
                &fa,
                |hf, key, sites| {
                    let client = ExprClient::new(hf, key, sites, &policy);
                    let k = Kernel::scan(hf, &client, sites, &fa.dt, &fa.df);
                    let scanned: Vec<_> = k
                        .occs
                        .iter()
                        .map(|o| (o.block, o.stmt, o.vers.clone()))
                        .collect();
                    assert_eq!(scanned, full_walk(hf, key), "{}: {key:?}", f.name);
                    checked += 1;
                    // a decided candidate must come out of the six steps
                    // without a rewrite, a temporary or a counted event
                    let pre_test = (!k.occs.is_empty())
                        .then(|| k.pre_test(hf, &fa.cyclic))
                        .flatten();
                    if let Some(t) = pre_test {
                        decided[t as usize] += 1;
                        let mut steps = hf.clone();
                        let mut stats = OptStats::default();
                        let what = format!("{}: {t:?} decided {key:?}", f.name);
                        assert!(!run_steps(k, &f, &mut steps, &mut stats), "{what}");
                        assert_eq!(
                            print_hssa(&m.globals, &names, &f, &steps),
                            print_hssa(&m.globals, &names, &f, hf),
                            "{what}"
                        );
                        assert_eq!(steps.new_vars, hf.new_vars, "{what}");
                        assert_eq!(steps.collapsed_vars, hf.collapsed_vars, "{what}");
                        assert_eq!(stats, OptStats::default(), "{what}");
                    }
                    // a phase runs one family, and inside a phase only a
                    // transformation moves a statement
                    let stmts: Vec<Vec<HStmt>> =
                        hf.blocks.iter().map(|b| b.stmts.clone()).collect();
                    if let Some((prev, prev_stmts)) = &last {
                        if discriminant(prev) == discriminant(key) && *prev_stmts != stmts {
                            after_change += 1;
                        }
                    }
                    last = Some((*key, stmts));
                },
            );
            // the driver skips the cleanup after a pass that rewrote
            // nothing once the form is cleaned, which is exact only if
            // cleaning again would change nothing
            cleanup_hssa(&mut hf);
            let cleaned = print_hssa(&m.globals, &names, &f, &hf);
            cleanup_hssa(&mut hf);
            assert_eq!(
                print_hssa(&m.globals, &names, &f, &hf),
                cleaned,
                "{}: a second cleanup changed the form",
                f.name
            );
        }
        (checked, after_change, decided)
    }

    /// A function whose dead copy `d = x` is the only use of the φ merging
    /// `x`: one cleanup must remove both.
    const DEAD_COPY_OF_A_PHI: &str = r#"
func f(n: i64) -> i64 {
  var x: i64
  var d: i64
  var y: i64
entry:
  x = 1
  br n, a, b
a:
  x = 2
  jmp join
b:
  jmp join
join:
  d = x
  y = add n, 1
  ret y
}
"#;

    /// A cycle with two entries: `entry` branches into `a` or `b`, and
    /// neither dominates the other, so no natural loop holds the lone load
    /// of `@g` in `a`, which SSAPRE hoists onto both edges into the cycle.
    const TWO_ENTRY_CYCLE: &str = r#"
global g: i64[1] = [5]

func f(n: i64) -> i64 {
  var i: i64
  var c: i64
  var x: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  br n, a, b
a:
  x = load.i64 [@g]
  acc = add acc, x
  i = add i, 1
  c = lt i, n
  br c, b, exit
b:
  jmp a
exit:
  ret acc
}
"#;

    /// The prepared one-function module `src` and its HSSA form, built
    /// without speculation.
    fn built(src: &str) -> (Module, HssaFunc) {
        let mut m = parse_module(src).expect("module");
        crate::prepare_module(&mut m);
        let aa = AliasAnalysis::analyze(&m);
        let f = &m.funcs[0];
        let oracle = Likeliness::new(SpecSource::None);
        let fa = FuncAnalyses::compute(f);
        let hf = build_hssa(&m.globals, f, FuncId::from_index(0), &aa, &oracle, &fa);
        (m, hf)
    }

    #[test]
    fn one_cleanup_removes_a_dead_copy_and_the_phi_it_reads() {
        let (m, mut hf) = built(DEAD_COPY_OF_A_PHI);
        let f = &m.funcs[0];
        let var = |name: &str| VarId(f.vars.iter().position(|v| v.name == name).unwrap() as u32);
        let (x, d) = (var("x"), var("d"));
        let left = |hf: &HssaFunc| {
            let copies = (hf.blocks.iter().flat_map(|b| &b.stmts))
                .filter(|s| matches!(s.kind, HStmtKind::Copy { dst: (v, _), .. } if v == d));
            let phis = (hf.blocks.iter().flat_map(|b| &b.phis))
                .filter(|p| hf.catalog.kind(p.var) == HVarKind::Reg(x));
            (copies.count(), phis.count())
        };
        assert_eq!(left(&hf), (1, 1));
        cleanup_hssa(&mut hf);
        assert_eq!(left(&hf), (0, 0));
    }

    #[test]
    fn one_cleanup_follows_a_copy_chain_to_its_end() {
        // `x0 = a`, `x1 = x0`, ..., `ret x69`
        let mut src = String::from("func f(a: i64) -> i64 {\n");
        src += &(0..70)
            .map(|i| format!("  var x{i}: i64\n"))
            .collect::<String>();
        src += "entry:\n  x0 = a\n";
        src += &(1..70)
            .map(|i| format!("  x{i} = x{}\n", i - 1))
            .collect::<String>();
        src += "  ret x69\n}\n";
        let (_, mut hf) = built(&src);
        cleanup_hssa(&mut hf);
        assert!(hf.blocks[0].stmts.is_empty(), "{:?}", hf.blocks[0].stmts);
        let a = HOperand::Reg(VarId(0), 0);
        assert_eq!(
            hf.blocks[0].term.as_ref().and_then(HTerm::operand),
            Some(&a)
        );
    }

    /// The statement table and the pre-tests against the plain walk and
    /// the six steps, on the nine test-scale kernels, a mega module,
    /// [`DEAD_COPY_OF_A_PHI`] and [`TWO_ENTRY_CYCLE`], under every
    /// speculation source.
    #[test]
    fn stmt_table_finds_what_a_full_walk_finds() {
        let mut modules: Vec<(String, Module, AliasProfile)> = Vec::new();
        for w in all_workloads(Scale::Test) {
            let mut m = w.module;
            crate::prepare_module(&mut m);
            let alias = Collect {
                alias: true,
                edges: false,
            };
            let t = train(&m, w.entry, &w.train_args, w.fuel, alias)
                .unwrap_or_else(|e| panic!("{}: training run: {e}", w.name));
            modules.push((w.name.to_string(), m, t.alias.expect("alias profile")));
        }
        // a mega module has no entry to train on: its profile is empty,
        // which still routes every candidate through the location walk
        let mut mega = parse_module(&mega_source(7, 150)).expect("mega module");
        crate::prepare_module(&mut mega);
        modules.push(("mega 7:150".into(), mega, AliasProfile::default()));
        for (name, src) in [
            ("dead copy", DEAD_COPY_OF_A_PHI),
            ("two-entry cycle", TWO_ENTRY_CYCLE),
        ] {
            let mut m = parse_module(src).expect(name);
            crate::prepare_module(&mut m);
            modules.push((name.into(), m, AliasProfile::default()));
        }
        assert_eq!(modules.len(), 12);
        let mut after_change = [0; 4];
        let mut decided = [[0; 2]; 4];
        for (name, m, profile) in &modules {
            let sources = [
                SpecSource::None,
                SpecSource::Heuristic,
                SpecSource::Aggressive,
                SpecSource::Profile(profile),
            ];
            for (si, source) in sources.into_iter().enumerate() {
                let (checked, rebuilt, by_test) = check_module(m, source);
                assert!(checked > 0, "{name} {source:?}: no candidate");
                after_change[si] += rebuilt;
                for (n, d) in decided[si].iter_mut().zip(by_test) {
                    *n += d;
                }
            }
        }
        assert!(
            after_change.iter().all(|&n| n > 0),
            "every source must run candidates after a transformation: {after_change:?}"
        );
        assert!(
            decided.iter().flatten().all(|&n| n > 0),
            "each pre-test must decide a candidate under every source: {decided:?}"
        );

        // the commutative operand order, on payloads that differ in digit
        // count and sign
        let f = |x: f64| LexOperand::ConstF(x.to_bits());
        let ops = [
            LexOperand::Reg(VarId(9)),
            LexOperand::Reg(VarId(10)),
            LexOperand::Reg(VarId(1)),
            LexOperand::Reg(VarId(u32::MAX)),
            LexOperand::ConstI(-1),
            LexOperand::ConstI(10),
            LexOperand::ConstI(-10),
            LexOperand::ConstI(9),
            LexOperand::ConstI(0),
            LexOperand::ConstI(i64::MIN),
            LexOperand::ConstI(i64::MAX),
            f(1.0),
            f(-0.0),
            f(f64::MAX),
            f(f64::NAN),
            LexOperand::ConstF(u64::MAX),
            LexOperand::ConstF(0),
            LexOperand::ConstF(7),
            LexOperand::GlobalAddr(GlobalId(9)),
            LexOperand::GlobalAddr(GlobalId(10)),
            LexOperand::SlotAddr(SlotId(2)),
            LexOperand::SlotAddr(SlotId(12)),
        ];
        for a in &ops {
            for b in &ops {
                assert_eq!(
                    lex_gt(a, b),
                    format!("{a:?}") > format!("{b:?}"),
                    "lex_gt({a:?}, {b:?})"
                );
            }
        }
    }
}
