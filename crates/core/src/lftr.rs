//! Linear-function test replacement (LFTR).
//!
//! The paper lists LFTR among the SSAPRE optimization set (§4.1, after
//! Kennedy et al., CC '98): once strength reduction has materialized
//! `s ≡ i*c`, the loop-exit test `i <op> N` can be rewritten to
//! `s <op> N*c`, making the original induction variable dead in loops
//! that only used it for the multiplication and the test.
//!
//! LFTR is tractable here because strength reduction records the HSSA
//! versions it pairs: each [`SrTemp`] says which `s` version corresponds
//! to which `i` version (`v_phi` ↔ the header-φ version, `v_step` ↔ the
//! post-increment version), so the test rewrite is a version-exact
//! substitution, not a new dataflow analysis. It runs none of the six
//! SSAPRE steps and replaces the comparison in place.
//!
//! Safety conditions, all checked per candidate:
//!
//! * the factor is positive (`c > 0`) — a negative factor would flip the
//!   comparison's direction;
//! * `N*c` does not overflow (`checked_mul`);
//! * the condition register feeds *only* the branch (any other use kills
//!   the rewrite);
//! * the recorded `s` version is still defined — cleanup between
//!   strength reduction and this pass may have deleted a dead reduction
//!   chain.

use crate::stats::OptStats;
use crate::strength::SrTemp;
use specframe_hssa::{HOperand, HStmt, HStmtKind, HTerm, HVarKind, HssaFunc};
use specframe_ir::{BinOp, VarId};

/// The replacement `s <op> N*c` for `stmt`, the definition of the branch
/// condition `cond`, if `stmt` compares `sr`'s induction variable against
/// a constant and the rewrite is safe: the `s` version pairing with the
/// tested IV version is still defined, and `cond` feeds nothing but the
/// branch (the rewritten comparison computes a scaled value, valid only
/// as a branch predicate).
fn replacement(hf: &HssaFunc, sr: &SrTemp, cond: (VarId, u32), stmt: &HStmt) -> Option<HStmt> {
    let HStmtKind::Bin { op, a, b, .. } = &stmt.kind else {
        return None;
    };
    if !matches!(op, BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge) {
        return None;
    }
    let (ver, n, iv_left) = match (a, b) {
        (HOperand::Reg(v, ver), HOperand::ConstI(n)) if *v == sr.iv_var => (*ver, *n, true),
        (HOperand::ConstI(n), HOperand::Reg(v, ver)) if *v == sr.iv_var => (*ver, *n, false),
        _ => return None,
    };
    let s_ver = if ver == sr.iv_phi_dest {
        sr.v_phi
    } else if ver == sr.iv_latch_ver {
        sr.v_step
    } else {
        return None;
    };
    let nc = n.checked_mul(sr.c)?;
    // only a comparison of the right shape pays for the whole-function
    // scan for other uses of the condition register
    let other_use = (hf.blocks.iter().flat_map(|blk| &blk.stmts))
        .any(|st| st.reg_uses().any(|u| u == cond) && st.def_reg() != Some(cond));
    if other_use || !sr_ver_defined(hf, sr.s, s_ver) {
        return None;
    }
    let s = HOperand::Reg(sr.s, s_ver);
    let n = HOperand::ConstI(nc);
    let (a, b) = if iv_left { (s, n) } else { (n, s) };
    Some(HStmt::new(HStmtKind::Bin {
        dst: cond,
        op: *op,
        a,
        b,
    }))
}

/// Verify-each support: cleanup may legitimately delete a *whole*
/// reduction chain whose value turned out dead (that is why
/// [`sr_ver_defined`] guards every LFTR application), but a chain deleted
/// by half — the header φ version surviving without its step version, or
/// vice versa — means a pass corrupted the `s ≡ i*c` version state LFTR
/// relies on.
///
/// # Errors
/// Returns a description of the first dangling chain.
pub(crate) fn verify_sr_temps(hf: &HssaFunc, temps: &[SrTemp]) -> Result<(), String> {
    for sr in temps {
        let phi = sr_ver_defined(hf, sr.s, sr.v_phi);
        let step = sr_ver_defined(hf, sr.s, sr.v_step);
        if phi != step {
            let (live, live_ver, dead_ver) = if phi {
                ("phi", sr.v_phi, sr.v_step)
            } else {
                ("step", sr.v_step, sr.v_phi)
            };
            return Err(format!(
                "dangling SrTemp chain for {}: {live} version {live_ver} is still \
                 defined but version {dead_ver} is gone",
                sr.s
            ));
        }
    }
    Ok(())
}

/// Whether version `ver` of register `s` still has a definition (a φ or
/// a statement). Cleanup between strength reduction and LFTR may delete
/// a reduction chain whose value turned out dead.
fn sr_ver_defined(hf: &HssaFunc, s: VarId, ver: u32) -> bool {
    let Some(hv) = hf.catalog.get(HVarKind::Reg(s)) else {
        return false;
    };
    hf.blocks.iter().any(|blk| {
        blk.phis.iter().any(|p| p.var == hv && p.dest == ver)
            || blk.stmts.iter().any(|st| st.def_reg() == Some((s, ver)))
    })
}

/// Runs LFTR over the strength-reduction temporaries recorded by
/// [`crate::strength::strength_reduce_hssa`], in recording order (so with
/// several factors over one IV the first recorded factor wins — later
/// temps no longer see a comparison of the IV). Returns the number of
/// loop-exit tests replaced, which is 0 only when `hf` was left untouched
/// (the driver then skips the cleanup of a form that is already clean).
pub fn lftr_hssa(hf: &mut HssaFunc, temps: &[SrTemp], stats: &mut OptStats) -> usize {
    let mut applied = 0;
    for sr in temps {
        // a negative factor would flip the comparison's direction
        if sr.c <= 0 {
            continue;
        }
        for &b in &sr.body {
            // the block must end in a branch whose condition is a
            // comparison of i defined in the same block
            let Some(HTerm::Br {
                cond: HOperand::Reg(cv, cver),
                ..
            }) = hf.blocks[b.index()].term
            else {
                continue;
            };
            let stmts = &hf.blocks[b.index()].stmts;
            let Some(ci) = stmts.iter().position(|st| st.def_reg() == Some((cv, cver))) else {
                continue;
            };
            let Some(with) = replacement(hf, sr, (cv, cver), &stmts[ci]) else {
                continue;
            };
            hf.blocks[b.index()].stmts[ci] = with;
            stats.lftr_applied += 1;
            applied += 1;
        }
    }
    applied
}
