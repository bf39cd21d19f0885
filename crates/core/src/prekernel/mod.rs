//! The six-step speculative SSAPRE kernel.
//!
//! This module tree is the paper's §4 framework. One `run_kernel` call
//! handles a single lexical candidate of the expression client
//! (`ExprClient`, hosted in [`crate::ssapre`]: expression PRE and
//! speculative register promotion) over a function in speculative SSA
//! form. It scans the candidate's real occurrences, and two exact
//! pre-tests (`PreTest`) decide most candidates that cannot transform
//! before any step runs: a lone occurrence on no CFG cycle, and
//! arithmetic whose operand versions are pairwise distinct and each
//! killed later in its own block. Every other candidate runs the six
//! SSAPRE steps. Every block of the function is reachable from its entry
//! ([`crate::prepare_module`] drops the rest before HSSA construction), so
//! every step may assume renamed versions everywhere. Each step lives in
//! the module named after it:
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
//! 6. [`codemotion`] — writes those decisions into the form in place:
//!    saves become `t = E; x = t`, reloads become `x = t`, *speculative*
//!    reloads become check loads (`ld.c`, Appendix B), control-speculative
//!    insertions become `ld.s` with NaT-check reloads, and every load
//!    feeding a check is flagged `ld.a`.
//!
//! The client answers three questions: *which statements are occurrences
//! of the candidate*, *does this statement kill it under the active
//! speculation policy* — the speculative-weak-update query routed through
//! the driver's single [`Likeliness`] oracle — and *how is an inserted
//! computation emitted*.
//!
//! The loop-shaped passes — store promotion ([`crate::storeprom`]),
//! strength reduction ([`crate::strength`]) and linear-function test
//! replacement ([`crate::lftr`]) — run none of the six steps. They share
//! only the kernel's loop recognition ([`loops`]) and edit the form
//! directly; LFTR pairs the HSSA versions strength reduction records in
//! each [`crate::strength::SrTemp`].

pub mod cleanup;
pub mod codemotion;
pub mod downsafety;
pub mod finalize;
pub mod loops;
pub mod phi_insert;
pub mod rename;
pub mod willbeavail;

pub use cleanup::{cleanup_hssa, eliminate_dead_code, propagate_copies};
pub use loops::{reducible_loops, LoopShape};

use crate::expr::OccVersions;
use crate::ssapre::ExprClient;
use crate::stats::OptStats;
use specframe_analysis::{DomFrontiers, DomTree, EdgeProfile, FuncAnalyses};
use specframe_hssa::{HStmtKind, HVarId, HssaFunc, Likeliness};
use specframe_ir::{BlockId, DenseMap, FuncId, Function};

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
pub(crate) struct Kernel<'k> {
    pub(crate) client: &'k ExprClient<'k>,
    pub(crate) dt: &'k DomTree,
    pub(crate) df: &'k DomFrontiers,
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

impl<'k> Kernel<'k> {
    /// Collects the real occurrences of the candidate among `sites`, the
    /// `(block, stmt)` positions that can hold one, in layout order.
    pub(crate) fn scan(
        hf: &HssaFunc,
        client: &'k ExprClient<'k>,
        sites: &[(BlockId, u32)],
        dt: &'k DomTree,
        df: &'k DomFrontiers,
    ) -> Self {
        let mut occs: Vec<RealOcc> = Vec::new();
        let mut occ_rng: Vec<(u32, u32)> = vec![(0, 0); hf.blocks.len()];
        for &(b, si) in sites {
            let Some(vers) = client.occurrence(&hf.blocks[b.index()].stmts[si as usize]) else {
                continue;
            };
            let n = occs.len() as u32;
            let rng = &mut occ_rng[b.index()];
            if rng.0 == rng.1 {
                // the block's first occurrence
                *rng = (n, n);
            }
            rng.1 = n + 1;
            occs.push(RealOcc {
                block: b,
                stmt: si as usize,
                vers,
                class: u32::MAX,
                spec: false,
                role: Role::Compute { save: false },
                t_ver: u32::MAX,
            });
        }
        Kernel {
            client,
            dt,
            df,
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
pub(crate) fn mem_def_table(hf: &HssaFunc, mv: HVarId) -> DenseMap<MemDef> {
    let mut mem_defs = DenseMap::with_len(hf.next_ver[mv.index()] as usize);
    mem_defs.insert(0, MemDef::Entry);
    for b in hf.block_ids() {
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
pub(crate) fn weak_reaches(
    hf: &HssaFunc,
    mem_defs: &DenseMap<MemDef>,
    client: &ExprClient<'_>,
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

/// Runs one candidate whose occurrences are among `sites`, `(block,
/// stmt)` positions in layout order: Scan, the exact pre-tests, and the
/// six steps for a candidate no pre-test decided. Returns `true` if the
/// program changed.
pub(crate) fn run_kernel(
    f_base: &Function,
    hf: &mut HssaFunc,
    client: &ExprClient<'_>,
    sites: &[(BlockId, u32)],
    fa: &FuncAnalyses,
    stats: &mut OptStats,
) -> bool {
    let k = Kernel::scan(hf, client, sites, &fa.dt, &fa.df);
    if k.occs.is_empty() || k.pre_test(hf, &fa.cyclic).is_some() {
        return false;
    }
    run_steps(k, f_base, hf, stats)
}

/// The six steps, for a scanned candidate with at least one occurrence.
/// Returns `true` if the program changed.
pub(crate) fn run_steps(
    mut k: Kernel<'_>,
    f_base: &Function,
    hf: &mut HssaFunc,
    stats: &mut OptStats,
) -> bool {
    // ---- steps 1-4 ----------------------------------------------------------
    k.phi_insertion(hf);
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
    // the kernel temporary (collapsed at lowering for load candidates: the
    // ALAT keys ld.a/ld.c by it, and failed checks refresh it for later
    // reloads; arithmetic temporaries stay in proper SSA)
    let t = hf.add_temp(format!("pre{}", stats.temps), k.client.temp_ty());
    stats.temps += 1;
    if k.client.key.is_load() {
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

/// An exact pre-test that decided, right after Scan, that a candidate
/// cannot transform.
///
/// The kernel writes `hf` only once its profitability scan passes, which
/// takes two real occurrences in one class or a will-be-available Φ whose
/// class holds one. A Φ is will-be-available only once its `later` flag
/// clears, and `later` clears only through a Φ operand that a real
/// occurrence defines, directly or through other Φs' operands: the
/// occurrence's operand versions must still be current at the end of a
/// predecessor of a Φ block that the occurrence's block dominates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum PreTest {
    /// One occurrence, in a block on no cycle. No class has two members,
    /// and a will-be-available Φ would dominate the occurrence, which in
    /// turn would dominate a predecessor of a Φ block on the `later`
    /// chain leading back to that Φ: a cycle through the occurrence.
    LoneAcyclic,
    /// Arithmetic whose occurrences carry pairwise distinct operand
    /// versions, each killed later in its own block (a statement at or
    /// after the occurrence, the occurrence itself included, redefines a
    /// register of the candidate). Rename matches a `Bin` key only on
    /// identical versions, so no class has two members; a killed tuple is
    /// never current again in its block's dominator subtree, so no real
    /// occurrence defines a Φ operand. Loads are left out: under data
    /// speculation Rename matches different memory versions through
    /// unlikely χs.
    KilledDistinct,
}

impl Kernel<'_> {
    /// The pre-test that decides this candidate cannot transform, if one
    /// does. `cyclic` is the function's per-block cycle table.
    pub(crate) fn pre_test(&self, hf: &HssaFunc, cyclic: &[bool]) -> Option<PreTest> {
        if let [o] = self.occs.as_slice() {
            if !cyclic[o.block.index()] {
                return Some(PreTest::LoneAcyclic);
            }
        }
        if self.client.key.is_load() {
            return None;
        }
        // occurrences are sorted by (block, stmt): a kill after a block's
        // last occurrence is after each of the block's occurrences
        let tracked = &self.client.tracked_regs;
        let killed = self.occs.iter().enumerate().all(|(i, o)| {
            self.occs.get(i + 1).is_some_and(|n| n.block == o.block)
                || hf.blocks[o.block.index()].stmts[o.stmt..]
                    .iter()
                    .any(|s| s.def_reg().is_some_and(|(v, _)| tracked.contains(&v)))
        });
        if !killed {
            return None;
        }
        let mut tuples: Vec<[u32; 2]> = (self.occs.iter())
            .map(|o| [0, 1].map(|i| o.vers.regs.get(i).copied().unwrap_or(0)))
            .collect();
        tuples.sort_unstable();
        tuples
            .windows(2)
            .all(|w| w[0] != w[1])
            .then_some(PreTest::KilledDistinct)
    }
}
