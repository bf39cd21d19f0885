//! The likeliness oracle: the single seam for every χ/μ *likely* verdict.
//!
//! §3.2 of the paper derives likeliness from one of two sources — an alias
//! profile (§3.2.1) or three syntax-tree heuristic rules (§3.2.2) — and
//! every consumer (HSSA construction, the SSAPRE kernel's weak-update
//! queries, check-load emission) must agree on the verdicts or the ALAT
//! recovery protocol breaks. Historically each consumer re-derived the
//! decision from a `SpecSource` match; [`Likeliness`] centralizes them:
//!
//! * [`Likeliness::verdict`] answers the *construction-time* question "is
//!   this χ/μ at this site likely?", with evidence ([`Why`]) suitable for
//!   `specc --explain-spec`.
//! * [`Likeliness::chi_kills`] answers the *kernel-time* question "does
//!   this flagged-or-weak χ kill the candidate's occurrence chain?", the
//!   per-expression refinement that knows the candidate's own syntax and
//!   profiled LOC set.
//!
//! Codegen never queries the oracle directly: the kernel materializes its
//! answers as `LoadSpec` flags (`ld.a`/`ld.s`/`ld.c`) which lowering and
//! the machine encoder consume unchanged.
//!
//! Sources map to the paper as: `none` — classic HSSA, every may-alias
//! honoured (the O3 baseline); `profile` — §3.2.1 rules over a collected
//! alias profile; `heuristic` — §3.2.2 rules 1–3 applied per site from a
//! one-pass syntax scan ([`FnEvidence`]); `aggressive` — the §5.3
//! upper-bound estimator that flags nothing but real defs.

use crate::build::SpecSource;
use specframe_alias::Loc;
use specframe_ir::FxHashSet;
use specframe_ir::{CallSiteId, Function, Inst, MemSiteId, Operand, Ty, VarId};
use specframe_profile::AliasProfile;

/// Target-derived cycle figures the oracle weighs speculation against:
/// speculating a load only pays when the load's latency exceeds what the
/// target charges for the check that guards it. The driver owns the real
/// cost tables (in the machine crate, which this crate must not depend
/// on) and projects them down to this plain-data view.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpecCosts {
    /// Straight-line cycle overhead of one speculative check on the hit
    /// path (0 on an ALAT machine whose `ld.c` is free, positive on a
    /// software target that compares addresses and epochs inline).
    pub check_cost: u64,
    /// Integer load latency in cycles.
    pub int_load: u64,
    /// Floating-point load latency in cycles.
    pub fp_load: u64,
}

impl Default for SpecCosts {
    /// The paper's EPIC figures: free checks, 2-cycle integer loads,
    /// 9-cycle FP loads — under which every load type is profitable, so
    /// the default oracle behaves exactly as the pre-cost-model one did.
    fn default() -> SpecCosts {
        SpecCosts {
            check_cost: 0,
            int_load: 2,
            fp_load: 9,
        }
    }
}

impl SpecCosts {
    /// The load latency the candidate's type pays.
    pub fn load(&self, ty: Ty) -> u64 {
        match ty {
            Ty::F64 => self.fp_load,
            Ty::I64 | Ty::Ptr => self.int_load,
        }
    }

    /// Whether hoisting a load of this type past its check pays: the
    /// latency saved must strictly exceed the per-check overhead.
    pub fn profitable(&self, ty: Ty) -> bool {
        self.load(ty) > self.check_cost
    }
}

/// Per-function syntax evidence for the heuristic rules, collected by
/// [`Likeliness::scan`] in one pass before HSSA statements are built.
#[derive(Debug, Default)]
pub struct FnEvidence {
    /// Syntax `(base reg, word offset)` of every indirect load in the
    /// function (rule 1's "identical syntax trees" universe).
    load_syntax: FxHashSet<(VarId, i64)>,
}

impl FnEvidence {
    /// Whether an indirect load with exactly this syntax exists.
    pub fn has_load_syntax(&self, syntax: (VarId, i64)) -> bool {
        self.load_syntax.contains(&syntax)
    }
}

/// One likeliness question about a χ or μ being attached at a site. Memory
/// sites (loads/stores) and call sites are distinct id spaces, so each
/// variant carries its own.
#[derive(Clone, Copy, Debug)]
pub enum SiteQuery<'q> {
    /// χ over an aliased direct-memory cell at an indirect store.
    StoreChiMem {
        /// The store's memory site.
        site: MemSiteId,
        /// The cell's location.
        loc: Loc,
    },
    /// χ over the access-class virtual variable at a store. `syntax` is
    /// `(base reg, offset)` for indirect stores, `None` for direct stores
    /// (whose address tree — a global/slot — never matches a load's
    /// register-based tree).
    StoreChiVirt {
        /// The store's memory site.
        site: MemSiteId,
        /// Store address syntax, when indirect.
        syntax: Option<(VarId, i64)>,
    },
    /// μ over an aliased direct-memory cell at an indirect load.
    LoadMuMem {
        /// The load's memory site.
        site: MemSiteId,
        /// The cell's location.
        loc: Loc,
    },
    /// μ over the access-class virtual variable at an indirect load.
    LoadMuVirt {
        /// The load's memory site.
        site: MemSiteId,
    },
    /// χ over a direct-memory cell in a call's mod set.
    CallChiMem {
        /// The call site.
        site: CallSiteId,
        /// The cell's location.
        loc: Loc,
    },
    /// μ over a direct-memory cell in a call's ref set.
    CallMuMem {
        /// The call site.
        site: CallSiteId,
        /// The cell's location.
        loc: Loc,
    },
    /// χ over a virtual variable in a call's mod set.
    CallChiVirt {
        /// The call site.
        site: CallSiteId,
        /// Locations of the class the virtual variable stands for.
        class_locs: &'q [Loc],
    },
    /// μ over a virtual variable in a call's ref set (the paper keeps the
    /// μ list of a call unchanged in every mode).
    CallMuVirt,
}

/// Evidence behind a [`Verdict`], printable for `--explain-spec`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Why {
    /// No-speculation source: every may-alias is honoured.
    NoSpec,
    /// Aggressive source: every may-alias is ignored.
    Aggressive,
    /// Heuristic rule 1: a reference with identical syntax exists.
    Rule1SameSyntax,
    /// Heuristic rule 2: no same-syntax reference — unlikely.
    Rule2DiffSyntax,
    /// Heuristic rule 3: call side effects are all assumed highly likely.
    Rule3CallEffects,
    /// A call's μ list is kept unchanged regardless of source.
    CallMuKept,
    /// Profile observed (or did not observe) the site touching the loc.
    ProfileTouched(bool),
    /// Profile observed (or did not observe) the site executing.
    ProfileExecuted(bool),
    /// Profile observed (or did not observe) the call modifying the loc.
    ProfileCallMod(bool),
    /// Profile observed (or did not observe) the call reading the loc.
    ProfileCallRef(bool),
}

impl Why {
    /// Short human-readable evidence string.
    pub fn describe(&self) -> &'static str {
        match self {
            Why::NoSpec => "no-spec source honours every may-alias",
            Why::Aggressive => "aggressive source ignores every may-alias",
            Why::Rule1SameSyntax => "rule 1: same-syntax reference in function",
            Why::Rule2DiffSyntax => "rule 2: no same-syntax reference",
            Why::Rule3CallEffects => "rule 3: call side effects assumed likely",
            Why::CallMuKept => "call mu list kept unchanged",
            Why::ProfileTouched(true) => "profile: site touched the loc",
            Why::ProfileTouched(false) => "profile: site never touched the loc",
            Why::ProfileExecuted(true) => "profile: site executed",
            Why::ProfileExecuted(false) => "profile: site never executed",
            Why::ProfileCallMod(true) => "profile: call modified the loc",
            Why::ProfileCallMod(false) => "profile: call never modified the loc",
            Why::ProfileCallRef(true) => "profile: call read the loc",
            Why::ProfileCallRef(false) => "profile: call never read the loc",
        }
    }
}

/// An oracle answer: the flag value plus its evidence.
#[derive(Clone, Copy, Debug)]
pub struct Verdict {
    /// The χ/μ `likely` flag to materialize.
    pub likely: bool,
    /// Why.
    pub why: Why,
}

impl Verdict {
    fn new(likely: bool, why: Why) -> Verdict {
        Verdict { likely, why }
    }
}

/// Statement shape of a killing candidate for [`Likeliness::chi_kills`].
#[derive(Clone, Copy, Debug)]
pub enum RefineStmt {
    /// A store; `syntax` is `(base reg, offset)` when indirect.
    Store {
        /// The store's memory site.
        site: MemSiteId,
        /// Address syntax, when indirect.
        syntax: Option<(VarId, i64)>,
    },
    /// A call.
    Call {
        /// The call site.
        site: CallSiteId,
    },
    /// Anything else carrying a χ.
    Other,
}

/// Kernel-side χ-kill question: everything the per-expression refinement
/// needs, as plain data (so the oracle stays IR-shape agnostic).
#[derive(Clone, Copy, Debug)]
pub struct ChiRefine<'c> {
    /// The construction-time flag on the χ.
    pub chi_likely: bool,
    /// The killing statement's shape.
    pub stmt: RefineStmt,
    /// The candidate is a direct named-memory load (per-loc flags exact).
    pub cand_direct: bool,
    /// The candidate's own load syntax, when an indirect load.
    pub cand_syntax: Option<(VarId, i64)>,
    /// The candidate's loaded type, when the candidate is a load (feeds
    /// the [`SpecCosts`] profitability gate); `None` disables the gate.
    pub cand_ty: Option<Ty>,
    /// Profiled LOC union over the candidate's occurrence sites.
    pub expr_locs: &'c FxHashSet<Loc>,
}

/// The oracle. Owned by the driver; one per compilation, queried by HSSA
/// construction (per-site verdicts) and the SSAPRE kernel (per-expression
/// χ-kill refinement).
#[derive(Clone, Copy, Debug)]
pub struct Likeliness<'a> {
    source: SpecSource<'a>,
    costs: SpecCosts,
}

impl<'a> Likeliness<'a> {
    /// Oracle over one likeliness source, with the default (EPIC) costs.
    pub fn new(source: SpecSource<'a>) -> Likeliness<'a> {
        Likeliness::with_costs(source, SpecCosts::default())
    }

    /// Oracle over one likeliness source weighing the given target costs.
    pub fn with_costs(source: SpecSource<'a>, costs: SpecCosts) -> Likeliness<'a> {
        Likeliness { source, costs }
    }

    /// The target cost view this oracle weighs speculation against.
    pub fn costs(&self) -> SpecCosts {
        self.costs
    }

    /// The alias profile, when the source is `profile`.
    pub fn profile(&self) -> Option<&'a AliasProfile> {
        match self.source {
            SpecSource::Profile(p) => Some(p),
            _ => None,
        }
    }

    /// Whether this source permits data speculation at all.
    pub fn speculative(&self) -> bool {
        self.source.speculative()
    }

    /// Whether this is the heuristic source (§3.2.2).
    pub fn heuristic(&self) -> bool {
        matches!(self.source, SpecSource::Heuristic)
    }

    /// The source name as spelled on the `specc --spec` flag.
    pub fn source_name(&self) -> &'static str {
        match self.source {
            SpecSource::None => "none",
            SpecSource::Profile(_) => "profile",
            SpecSource::Heuristic => "heuristic",
            SpecSource::Aggressive => "aggressive",
        }
    }

    /// One-pass syntax prescan feeding the heuristic rules. Cheap (and
    /// empty) for the other sources.
    pub fn scan(&self, f: &Function) -> FnEvidence {
        let mut ev = FnEvidence::default();
        if !self.heuristic() {
            return ev;
        }
        for b in &f.blocks {
            for inst in &b.insts {
                if let Inst::Load {
                    base: Operand::Var(v),
                    offset,
                    ..
                }
                | Inst::CheckLoad {
                    base: Operand::Var(v),
                    offset,
                    ..
                } = inst
                {
                    ev.load_syntax.insert((*v, *offset));
                }
            }
        }
        ev
    }

    /// The construction-time verdict for one χ/μ at one site. This is the
    /// single call site replacing the per-kind `SpecSource` closures that
    /// used to live in `build_hssa`.
    pub fn verdict(&self, ev: &FnEvidence, q: SiteQuery<'_>) -> Verdict {
        // the call μ list is kept unchanged in every source (§3.2.2 rule 3
        // wording; profile mode refines per-loc below for real cells)
        if matches!(q, SiteQuery::CallMuVirt) {
            return Verdict::new(true, Why::CallMuKept);
        }
        match self.source {
            SpecSource::None => Verdict::new(true, Why::NoSpec),
            SpecSource::Aggressive => Verdict::new(false, Why::Aggressive),
            SpecSource::Heuristic => match q {
                // rule 1 / rule 2: a store's virtual-variable χ is likely
                // exactly when some load in the function uses the same
                // address syntax (a direct store's global/slot tree never
                // matches an indirect load's register tree)
                SiteQuery::StoreChiVirt { syntax, .. } => match syntax {
                    Some(s) if ev.has_load_syntax(s) => Verdict::new(true, Why::Rule1SameSyntax),
                    _ => Verdict::new(false, Why::Rule2DiffSyntax),
                },
                // an indirect reference trivially has its own syntax: the
                // load's μ over its class vvar is always likely (rule 1)
                SiteQuery::LoadMuVirt { .. } => Verdict::new(true, Why::Rule1SameSyntax),
                // a named cell and a pointer dereference have different
                // syntax trees (rule 2)
                SiteQuery::StoreChiMem { .. } | SiteQuery::LoadMuMem { .. } => {
                    Verdict::new(false, Why::Rule2DiffSyntax)
                }
                // rule 3: compiler-analyzed call side effects are all
                // assumed highly likely
                SiteQuery::CallChiMem { .. }
                | SiteQuery::CallMuMem { .. }
                | SiteQuery::CallChiVirt { .. } => Verdict::new(true, Why::Rule3CallEffects),
                SiteQuery::CallMuVirt => unreachable!("handled above"),
            },
            SpecSource::Profile(p) => match q {
                SiteQuery::StoreChiMem { site, loc } | SiteQuery::LoadMuMem { site, loc } => {
                    let t = p.touched(site, loc);
                    Verdict::new(t, Why::ProfileTouched(t))
                }
                SiteQuery::StoreChiVirt { site, .. } | SiteQuery::LoadMuVirt { site } => {
                    let e = p.site_executed(site);
                    Verdict::new(e, Why::ProfileExecuted(e))
                }
                SiteQuery::CallChiMem { site, loc } => {
                    let m = p.call_mod.get(&site).is_some_and(|s| s.contains(&loc));
                    Verdict::new(m, Why::ProfileCallMod(m))
                }
                SiteQuery::CallMuMem { site, loc } => {
                    let r = p.call_ref.get(&site).is_some_and(|s| s.contains(&loc));
                    Verdict::new(r, Why::ProfileCallRef(r))
                }
                SiteQuery::CallChiVirt { site, class_locs } => {
                    let set = p.call_mod.get(&site);
                    let m = class_locs
                        .iter()
                        .any(|l| set.is_some_and(|s| s.contains(l)));
                    Verdict::new(m, Why::ProfileCallMod(m))
                }
                SiteQuery::CallMuVirt => unreachable!("handled above"),
            },
        }
    }

    /// Kernel-side per-expression refinement: does a χ over the candidate's
    /// tracked memory variable kill its occurrence chain? Only meaningful
    /// when [`Likeliness::speculative`] — a non-speculative pipeline
    /// honours every χ without asking.
    ///
    /// * profile — a likely χ over a *virtual* variable only kills when the
    ///   killing site's observed LOCs overlap the candidate's observed LOCs
    ///   (per-loc flags on real cells are already exact);
    /// * heuristic — for stores, the per-candidate same-syntax comparison
    ///   (rule 1 against *this* candidate's tree, not any load's) is
    ///   authoritative; calls keep their rule-3 flag;
    /// * aggressive — χs never kill.
    pub fn chi_kills(&self, cx: &ChiRefine<'_>) -> bool {
        // the profitability gate runs before any likeliness source: when
        // the target's per-check overhead eats the candidate's load
        // latency, speculating cannot pay no matter how unlikely the χ —
        // honour it (kill) and keep the load where it is
        if self.source.speculative() {
            if let Some(ty) = cx.cand_ty {
                if !self.costs.profitable(ty) {
                    return true;
                }
            }
        }
        match self.source {
            SpecSource::None => true,
            SpecSource::Aggressive => cx.chi_likely,
            SpecSource::Heuristic => match cx.stmt {
                RefineStmt::Store { syntax, .. } => {
                    matches!((syntax, cx.cand_syntax), (Some(s), Some(c)) if s == c)
                }
                _ => cx.chi_likely,
            },
            SpecSource::Profile(p) => {
                if !cx.chi_likely {
                    return false;
                }
                if cx.cand_direct {
                    return true; // per-loc flags are already exact
                }
                match cx.stmt {
                    RefineStmt::Store { site, .. } => match p.locs(site) {
                        Some(locs) => locs.iter().any(|l| cx.expr_locs.contains(l)),
                        None => true,
                    },
                    RefineStmt::Call { site } => match p.call_mod.get(&site) {
                        Some(locs) => locs.iter().any(|l| cx.expr_locs.contains(l)),
                        None => true,
                    },
                    RefineStmt::Other => true,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_ir::parse_module;

    fn evidence_of(src: &str, func: &str) -> FnEvidence {
        let m = parse_module(src).unwrap();
        let f = m.func(m.func_by_name(func).unwrap());
        Likeliness::new(SpecSource::Heuristic).scan(f)
    }

    #[test]
    fn scan_collects_indirect_load_syntax_only() {
        let ev = evidence_of(
            r#"
global g: i64[1]

func f(p: ptr) -> i64 {
  var x: i64
  var y: i64
entry:
  x = load.i64 [p + 3]
  y = load.i64 [@g]
  x = add x, y
  ret x
}
"#,
            "f",
        );
        assert!(ev.has_load_syntax((specframe_ir::VarId(0), 3)));
        assert!(!ev.has_load_syntax((specframe_ir::VarId(0), 0)));
    }

    #[test]
    fn heuristic_store_chi_follows_rules_1_and_2() {
        let ev = evidence_of(
            r#"
func f(p: ptr, q: ptr) -> i64 {
  var x: i64
entry:
  x = load.i64 [p + 1]
  store.i64 [p + 1], x
  store.i64 [q + 2], x
  ret x
}
"#,
            "f",
        );
        let o = Likeliness::new(SpecSource::Heuristic);
        let site = MemSiteId(0);
        let same = o.verdict(
            &ev,
            SiteQuery::StoreChiVirt {
                site,
                syntax: Some((specframe_ir::VarId(0), 1)),
            },
        );
        assert!(same.likely);
        assert_eq!(same.why, Why::Rule1SameSyntax);
        let diff = o.verdict(
            &ev,
            SiteQuery::StoreChiVirt {
                site,
                syntax: Some((specframe_ir::VarId(1), 2)),
            },
        );
        assert!(!diff.likely);
        assert_eq!(diff.why, Why::Rule2DiffSyntax);
        let direct = o.verdict(&ev, SiteQuery::StoreChiVirt { site, syntax: None });
        assert!(!direct.likely, "direct store syntax never matches a load");
    }

    #[test]
    fn sources_disagree_only_where_the_paper_says() {
        let ev = FnEvidence::default();
        let msite = MemSiteId(7);
        let csite = CallSiteId(3);
        let none = Likeliness::new(SpecSource::None);
        let aggr = Likeliness::new(SpecSource::Aggressive);
        let heur = Likeliness::new(SpecSource::Heuristic);
        // call μ over a vvar is kept likely in every source
        for o in [&none, &aggr, &heur] {
            assert!(o.verdict(&ev, SiteQuery::CallMuVirt).likely);
        }
        // rule 3 keeps call χs likely under heuristic, aggressive drops them
        assert!(
            heur.verdict(
                &ev,
                SiteQuery::CallChiMem {
                    site: csite,
                    loc: Loc::Global(specframe_ir::GlobalId(0)),
                },
            )
            .likely
        );
        assert!(
            !aggr
                .verdict(
                    &ev,
                    SiteQuery::CallChiMem {
                        site: csite,
                        loc: Loc::Global(specframe_ir::GlobalId(0)),
                    },
                )
                .likely
        );
        assert!(
            none.verdict(&ev, SiteQuery::LoadMuVirt { site: msite })
                .likely
        );
    }

    #[test]
    fn heuristic_chi_kill_is_per_candidate_syntax() {
        let o = Likeliness::new(SpecSource::Heuristic);
        let locs = FxHashSet::default();
        let store = RefineStmt::Store {
            site: MemSiteId(0),
            syntax: Some((specframe_ir::VarId(0), 0)),
        };
        // same syntax kills even when the build-time flag says likely
        assert!(o.chi_kills(&ChiRefine {
            chi_likely: true,
            stmt: store,
            cand_direct: false,
            cand_syntax: Some((specframe_ir::VarId(0), 0)),
            cand_ty: None,
            expr_locs: &locs,
        }));
        // different syntax does NOT kill even when the build-time flag is
        // likely (the flag answered rule 1 for *some* load, not this one)
        assert!(!o.chi_kills(&ChiRefine {
            chi_likely: true,
            stmt: store,
            cand_direct: false,
            cand_syntax: Some((specframe_ir::VarId(5), 0)),
            cand_ty: None,
            expr_locs: &locs,
        }));
    }

    #[test]
    fn unprofitable_loads_are_killed_regardless_of_source() {
        // a software target charging 5 cycles per check: int loads (2c)
        // stop paying, fp loads (9c) still do
        let swr = SpecCosts {
            check_cost: 5,
            ..SpecCosts::default()
        };
        assert!(!swr.profitable(Ty::I64));
        assert!(!swr.profitable(Ty::Ptr));
        assert!(swr.profitable(Ty::F64));
        let locs = FxHashSet::default();
        let cx = |ty| ChiRefine {
            chi_likely: false,
            stmt: RefineStmt::Other,
            cand_direct: false,
            cand_syntax: None,
            cand_ty: Some(ty),
            expr_locs: &locs,
        };
        // even the aggressive source (χs never kill) honours the gate
        for source in [SpecSource::Aggressive, SpecSource::Heuristic] {
            let o = Likeliness::with_costs(source, swr);
            assert!(o.chi_kills(&cx(Ty::I64)), "{source:?} must kill int loads");
            assert!(!o.chi_kills(&cx(Ty::F64)), "{source:?} must keep fp loads");
        }
        // default (EPIC) costs leave every verdict untouched
        let aggr = Likeliness::new(SpecSource::Aggressive);
        assert!(!aggr.chi_kills(&cx(Ty::I64)));
        assert!(!aggr.chi_kills(&cx(Ty::F64)));
    }
}
