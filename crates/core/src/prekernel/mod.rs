//! The client-parameterized six-step speculative SSAPRE kernel.
//!
//! This module tree is the paper's §4 framework factored out of its
//! clients. One [`run_kernel`] call performs the six SSAPRE steps for a
//! single candidate described by a [`SpecClient`] over a function in
//! speculative SSA form — each step lives in the module named after it:
//!
//! 1. [`phi_insert`] — **Φ-Insertion**: Φs for the hypothetical temporary
//!    `h` are placed at the iterated dominance frontier of every real
//!    occurrence and at every φ of a variable of the candidate. Because
//!    the operand-variable φ set includes φs reached *through speculative
//!    weak updates*, this is the superset the paper's Appendix A computes
//!    by walking unflagged χs (an expression killed only by weak updates
//!    is *speculatively anticipated*, Figure 6).
//! 2. [`rename`] — a preorder dominator-tree walk assigns h-versions. The
//!    paper's extension: when operand versions differ *only through
//!    speculative weak updates*, the occurrence receives the same
//!    h-version and a speculation flag (Figure 7).
//! 3. [`downsafety`] — block-lexical backward anticipation; with data
//!    speculation, weak updates do not kill. Control speculation treats a
//!    profitable non-down-safe Φ as down-safe (edge-profile gated).
//! 4. [`willbeavail`] — `can_be_avail` / `later` propagation over the Φ
//!    graph, exactly as in SSAPRE.
//! 5. [`finalize`] — availability walk deciding saves, reloads and
//!    insertions, and allocating the t-versions they carry.
//! 6. [`codemotion`] — turns those decisions into [`MotionEdit`]s and
//!    applies them: saves become `t = E; x = t`, reloads become `x = t`,
//!    *speculative* reloads become check loads (`ld.c`, Appendix B),
//!    control-speculative insertions become `ld.s` with NaT-check
//!    reloads, and every load feeding a check is flagged `ld.a`.
//!
//! The kernel is shared by four clients: expression PRE and speculative
//! register promotion (both hosted in [`crate::ssapre`], running all six
//! steps), store promotion ([`crate::storeprom`]) and strength reduction
//! ([`crate::strength`]), which reuse the kernel's loop recognition
//! ([`loops`]) and motion-edit application ([`codemotion::apply_edits`])
//! for their loop-shaped candidates, plus linear-function test
//! replacement ([`crate::lftr`]), which consumes the rename/version state
//! strength reduction records for its temporaries.
//!
//! A client answers three questions and nothing more: *which statements
//! are occurrences of the candidate* ([`SpecClient::occurrence`]), *does
//! this statement kill it under the active speculation policy* — the
//! speculative-weak-update query routed through the driver's single
//! [`Likeliness`] oracle ([`SpecClient::kills`]) — and *how is an
//! inserted computation emitted* ([`SpecClient::materialize`]).

pub mod cleanup;
pub mod codemotion;
pub mod downsafety;
pub mod finalize;
pub mod loops;
pub mod phi_insert;
pub mod rename;
pub mod willbeavail;

pub use cleanup::{
    cleanup_hssa, copy_propagate, eliminate_dead_copies, eliminate_dead_phis,
    propagate_collapsed_local,
};
pub use codemotion::{apply_edits, MotionEdit};
pub use loops::{reducible_loops, LoopShape};

use crate::expr::OccVersions;
use crate::stats::OptStats;
use specframe_analysis::{DomFrontiers, DomTree, EdgeProfile};
use specframe_hssa::{HStmt, HStmtKind, HVarId, HssaFunc, Likeliness};
use specframe_ir::{BlockId, DenseMap, FuncId, Function, LoadSpec, Ty, VarId};

/// Speculation policy given to the kernel: the driver-owned likeliness
/// oracle (data speculation) plus the control-speculation edge profile.
#[derive(Clone, Copy, Debug)]
pub struct SpecPolicy<'a> {
    /// Likeliness oracle answering every χ weak-update question.
    pub oracle: Likeliness<'a>,
    /// Control speculation: edge profile + owning function.
    pub control: Option<(&'a EdgeProfile, FuncId)>,
}

impl SpecPolicy<'_> {
    /// Policy with all speculation off (the O3 baseline).
    pub fn none() -> SpecPolicy<'static> {
        SpecPolicy {
            oracle: Likeliness::new(specframe_hssa::SpecSource::None),
            control: None,
        }
    }

    /// Data speculation enabled (weak updates skippable).
    pub fn data(&self) -> bool {
        self.oracle.speculative()
    }
}

/// The kernel's contract with a candidate. Everything lexical about the
/// candidate (its shape, its operand variables, its kill set under the
/// speculation policy) lives behind this trait; the six steps themselves
/// are candidate-agnostic.
pub trait SpecClient {
    /// Candidate-occurrence harvesting: does `stmt` compute the candidate?
    /// Returns the operand versions it consumes.
    fn occurrence(&self, stmt: &HStmt) -> Option<OccVersions>;
    /// The speculative-weak-update query: does `stmt` kill the candidate
    /// under the active policy? Implementations route χ decisions through
    /// the driver's [`Likeliness`] oracle.
    fn kills(&self, stmt: &HStmt) -> bool;
    /// Register operand variables, in lexical position order (deduped).
    fn tracked_regs(&self) -> &[VarId];
    /// Memory/virtual variable the candidate depends on, if any.
    fn tracked_mem(&self) -> Option<HVarId>;
    /// Whether the candidate's base register is itself a collapsed
    /// promotion temporary (Appendix B's cascaded `chk.a` case): its
    /// redefinitions are injuring, not killing.
    fn base_collapsed(&self) -> bool {
        false
    }
    /// Whether occurrences are loads (the temporary then collapses onto
    /// one machine register so the ALAT can key it).
    fn is_load(&self) -> bool;
    /// Whether the candidate may be control-speculated (inserted on
    /// non-down-safe paths).
    fn control_speculatable(&self) -> bool;
    /// Result type of the kernel temporary.
    fn temp_ty(&self) -> Ty;
    /// Name of the kernel temporary (`n` is the global temp counter).
    fn temp_name(&self, n: u64) -> String;
    /// Motion-edit emission: build the inserted computation writing `t`,
    /// using the operand versions recorded at the predecessor end.
    fn materialize(
        &self,
        hf: &HssaFunc,
        t: (VarId, u32),
        vers: &OccVersions,
        spec: LoadSpec,
    ) -> HStmt;
}

// ---------------------------------------------------------------------------
// occurrence bookkeeping (shared by all six steps)
// ---------------------------------------------------------------------------

#[derive(Clone, Debug)]
pub(crate) struct RealOcc {
    pub(crate) block: BlockId,
    pub(crate) stmt: usize,
    pub(crate) vers: OccVersions,
    pub(crate) class: u32,
    /// Matched its class only through speculative weak updates.
    pub(crate) spec: bool,
    /// Filled by Finalize.
    pub(crate) role: Role,
    /// t-version, when this occurrence is a class def (save).
    pub(crate) t_ver: u32,
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Role {
    /// Computes the candidate itself (maybe saving into t).
    Compute { save: bool },
    /// Reloads from t.
    Reload { from: u32, check: bool },
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum OpndDef {
    Bottom,
    Real(usize),
    Phi(usize),
}

#[derive(Clone, Debug)]
pub(crate) struct PhiOpnd {
    pub(crate) def: OpndDef,
    pub(crate) has_real_use: bool,
    pub(crate) spec: bool,
    /// Variable versions at the end of the predecessor (for insertion).
    pub(crate) vers_at_pred: OccVersions,
    /// t-version carried along this edge (filled by Finalize).
    pub(crate) t_ver: u32,
    /// Insertion performed on this edge.
    pub(crate) inserted: bool,
}

#[derive(Clone, Debug)]
pub(crate) struct PhiE {
    pub(crate) block: BlockId,
    pub(crate) class: u32,
    pub(crate) opnds: Vec<PhiOpnd>,
    pub(crate) down_safe: bool,
    /// Made "down-safe" by control speculation.
    pub(crate) cspec: bool,
    pub(crate) can_be_avail: bool,
    pub(crate) later: bool,
    pub(crate) will_be_avail: bool,
    /// Some incoming value is only speculatively equal.
    pub(crate) tainted: bool,
    pub(crate) t_ver: u32,
}

/// Where a memory-variable version was defined (for weak-chain walking).
#[derive(Clone, Copy, Debug)]
pub(crate) enum MemDef {
    Entry,
    Phi(#[allow(dead_code)] BlockId),
    /// Strong direct def (store to the variable itself).
    Strong,
    /// χ at (block, stmt); `old` is the version merged in.
    Chi {
        block: BlockId,
        stmt: usize,
        old: u32,
    },
}

// ---------------------------------------------------------------------------
// kernel state
// ---------------------------------------------------------------------------

/// Sentinel for "no Φ in this block" in the dense [`Kernel::phi_at`] map.
pub(crate) const NO_PHI: u32 = u32::MAX;

/// State threaded through the six steps for one candidate.
///
/// Everything is index-keyed: occurrences live in one `Vec` sorted by
/// (block layout index, statement index) — a block's occurrences are the
/// contiguous slice named by `occ_rng` — and the per-block side tables are
/// dense vectors rather than hash maps, so the rename / downsafety /
/// finalize walks never hash.
pub(crate) struct Kernel<'k, C: SpecClient> {
    pub(crate) client: &'k C,
    pub(crate) policy: &'k SpecPolicy<'k>,
    pub(crate) dt: &'k DomTree,
    pub(crate) df: &'k DomFrontiers,
    pub(crate) mem_var: Option<HVarId>,
    pub(crate) occs: Vec<RealOcc>,
    /// Per block (by index): `occs[lo..hi]` are its occurrences in
    /// statement order.
    pub(crate) occ_rng: Vec<(u32, u32)>,
    pub(crate) phis: Vec<PhiE>,
    /// Per block (by index): index into `phis`, or [`NO_PHI`] (filled by
    /// Φ-Insertion).
    pub(crate) phi_at: Vec<u32>,
    /// Number of redundancy classes allocated by rename.
    pub(crate) next_class: u32,
}

impl<'k, C: SpecClient> Kernel<'k, C> {
    /// Scans the function for real occurrences of the candidate.
    pub(crate) fn scan(
        hf: &HssaFunc,
        client: &'k C,
        dt: &'k DomTree,
        df: &'k DomFrontiers,
        policy: &'k SpecPolicy<'k>,
    ) -> Self {
        let mut occs: Vec<RealOcc> = Vec::new();
        let mut occ_rng: Vec<(u32, u32)> = vec![(0, 0); hf.blocks.len()];
        for b in hf.block_ids() {
            if !dt.is_reachable(b) {
                continue;
            }
            let lo = occs.len() as u32;
            for (si, stmt) in hf.blocks[b.index()].stmts.iter().enumerate() {
                if let Some(vers) = client.occurrence(stmt) {
                    occs.push(RealOcc {
                        block: b,
                        stmt: si,
                        vers,
                        class: u32::MAX,
                        spec: false,
                        role: Role::Compute { save: false },
                        t_ver: u32::MAX,
                    });
                }
            }
            occ_rng[b.index()] = (lo, occs.len() as u32);
        }
        Kernel {
            client,
            policy,
            dt,
            df,
            mem_var: client.tracked_mem(),
            occs,
            occ_rng,
            phis: Vec::new(),
            phi_at: Vec::new(),
            next_class: 0,
        }
    }
}

/// The def table of memory variable `mv`, keyed by SSA version, that the
/// weak-chain walker follows.
pub(crate) fn mem_def_table(hf: &HssaFunc, dt: &DomTree, mv: HVarId) -> DenseMap<MemDef> {
    let mut mem_defs = DenseMap::with_len(hf.next_ver[mv.index()] as usize);
    mem_defs.insert(0, MemDef::Entry);
    for b in hf.block_ids() {
        // Unreachable blocks were never visited by HSSA rename, so their
        // χ/store versions are still the u32::MAX sentinel — inserting that
        // key would grow the dense table to 2³² slots. No reachable chain
        // can reference them (versions are assigned on the dominator walk),
        // so skip, exactly as the occurrence scan does.
        if !dt.is_reachable(b) {
            continue;
        }
        for phi in &hf.blocks[b.index()].phis {
            if phi.var == mv {
                mem_defs.insert(phi.dest, MemDef::Phi(b));
            }
        }
        for (si, stmt) in hf.blocks[b.index()].stmts.iter().enumerate() {
            if let HStmtKind::Store {
                dvar_def: Some((id, ver)),
                ..
            } = &stmt.kind
            {
                if *id == mv {
                    mem_defs.insert(*ver, MemDef::Strong);
                }
            }
            if let Some(chi) = stmt.chi_of(mv) {
                mem_defs.insert(
                    chi.new_ver,
                    MemDef::Chi {
                        block: b,
                        stmt: si,
                        old: chi.old_ver,
                    },
                );
            }
        }
    }
    mem_defs
}

/// Weak-chain query: can memory version `from` reach `to` through
/// skippable (unlikely, per the oracle) χs only? `Some(true)` = reaches
/// with >0 weak steps; `Some(false)` = equal; `None` = blocked.
pub(crate) fn weak_reaches<C: SpecClient>(
    hf: &HssaFunc,
    mem_defs: &DenseMap<MemDef>,
    client: &C,
    mut from: u32,
    to: u32,
) -> Option<bool> {
    if from == to {
        return Some(false);
    }
    let mut steps = 0;
    while steps < 4096 {
        match mem_defs.get(from) {
            Some(MemDef::Chi { block, stmt, old }) => {
                let s = &hf.blocks[block.index()].stmts[*stmt];
                if client.kills(s) {
                    return None;
                }
                from = *old;
                if from == to {
                    return Some(true);
                }
            }
            _ => return None,
        }
        steps += 1;
    }
    None
}

/// Runs the six steps for one candidate. Returns `true` if the program
/// changed.
pub fn run_kernel<C: SpecClient>(
    f_base: &Function,
    hf: &mut HssaFunc,
    client: &C,
    dt: &DomTree,
    df: &DomFrontiers,
    policy: &SpecPolicy<'_>,
    stats: &mut OptStats,
) -> bool {
    // ---- scan: real occurrences ------------------------------------------
    let mut k = Kernel::scan(hf, client, dt, df, policy);
    if k.occs.is_empty() {
        return false;
    }

    // ---- step 1 -----------------------------------------------------------
    k.phi_insertion(hf);
    // The profitability scan below passes only with two occurrences in one
    // class or a will-be-available Φ, and nothing before it mutates `hf`:
    // a lone occurrence without a Φ is decided here.
    if k.phis.is_empty() && k.occs.len() < 2 {
        return false;
    }

    // ---- steps 2-4 ----------------------------------------------------------
    k.rename(hf);
    // DownSafety and WillBeAvail only set per-Φ flags
    if !k.phis.is_empty() {
        k.downsafety(f_base, hf);
        k.willbeavail();
    }

    // quick profitability scan: is there anything to do at all? Occurrence
    // positions are unique, so a class is redundant iff it has two members;
    // one counting pass over the dense class ids replaces the O(n²) probe.
    let mut class_seen = vec![false; k.next_class as usize];
    let mut any_redundancy = false;
    for o in &k.occs {
        let c = o.class as usize;
        if class_seen[c] {
            any_redundancy = true;
            break;
        }
        class_seen[c] = true;
    }
    let mut wba_class = vec![false; k.next_class as usize];
    for p in &k.phis {
        if p.will_be_avail {
            wba_class[p.class as usize] = true;
        }
    }
    let any_wba_phi_use = k.occs.iter().any(|o| wba_class[o.class as usize]);
    if !any_redundancy && !any_wba_phi_use {
        return false;
    }

    // ---- steps 5+6 --------------------------------------------------------
    // the kernel temporary (collapsed at lowering for load clients: the
    // ALAT keys ld.a/ld.c by it, and failed checks refresh it for later
    // reloads; arithmetic temporaries stay in proper SSA)
    let t = hf.add_temp(client.temp_name(stats.temps), client.temp_ty());
    stats.temps += 1;
    if client.is_load() {
        hf.collapsed_vars.push(t);
    }

    let fin = k.finalize(hf, t);
    if !fin.changed {
        // nothing materialized (all computes unsaved and no reloads); the
        // allocated temp is left behind, harmless but unused
        return false;
    }

    k.codemotion(hf, t, fin, stats);
    true
}
