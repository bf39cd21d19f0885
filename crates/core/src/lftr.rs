//! Linear-function test replacement (LFTR), the fourth kernel client.
//!
//! The paper lists LFTR among the SSAPRE optimization set (§4.1, after
//! Kennedy et al., CC '98): once strength reduction has materialized
//! `s ≡ i*c`, the loop-exit test `i <op> N` can be rewritten to
//! `s <op> N*c`, making the original induction variable dead in loops
//! that only used it for the multiplication and the test.
//!
//! LFTR is only tractable here because strength reduction and PRE share
//! the kernel's rename/version state: each [`SrTemp`] records which `s`
//! version corresponds to which `i` version (`v_phi` ↔ the header-φ
//! version, `v_step` ↔ the post-increment version), so the test rewrite
//! is a version-exact substitution, not a new dataflow analysis.
//!
//! Safety conditions, all checked per candidate:
//!
//! * the factor is positive (`c > 0`) — a negative factor would flip the
//!   comparison's direction;
//! * `N*c` does not overflow (`checked_mul`);
//! * the condition register feeds *only* the branch (the [`SpecClient`]
//!   kill query: any other use kills the rewrite);
//! * the recorded `s` version is still defined — cleanup between
//!   strength reduction and this pass may have deleted a dead reduction
//!   chain.

use crate::expr::OccVersions;
use crate::prekernel::{apply_edits, MotionEdit, SpecClient};
use crate::stats::OptStats;
use crate::strength::SrTemp;
use specframe_hssa::{HOperand, HStmt, HStmtKind, HTerm, HVarId, HVarKind, HssaFunc};
use specframe_ir::{BinOp, LoadSpec, Ty, VarId};

/// One replaceable loop-exit test: a branch-feeding comparison of the
/// recorded IV against a constant, with the version-matched `s` version
/// and the pre-multiplied bound.
struct LftrClient<'a> {
    sr: &'a SrTemp,
    /// The branch condition register (also the comparison's destination).
    cond: (VarId, u32),
    op: BinOp,
    /// The `s` version substituting for the tested `i` version.
    s_ver: u32,
    /// The pre-multiplied bound `N*c`.
    nc: i64,
    /// Whether the IV was the left operand of the comparison.
    iv_left: bool,
}

impl<'a> LftrClient<'a> {
    /// Recognizes `stmt` (the definition of `cond`) as a replaceable
    /// comparison of `sr`'s induction variable against a constant.
    fn recognize(sr: &'a SrTemp, cond: (VarId, u32), stmt: &HStmt) -> Option<Self> {
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
        Some(LftrClient {
            sr,
            cond,
            op: *op,
            s_ver,
            nc,
            iv_left,
        })
    }
}

impl SpecClient for LftrClient<'_> {
    /// The single occurrence is the comparison defining the condition.
    fn occurrence(&self, stmt: &HStmt) -> Option<OccVersions> {
        if stmt.def_reg() == Some(self.cond) {
            Some(OccVersions {
                regs: [self.s_ver].into_iter().collect(),
                mem: None,
            })
        } else {
            None
        }
    }

    /// Any use of the condition register outside its defining comparison
    /// kills the replacement: the rewritten comparison computes a scaled
    /// value, valid only as a branch predicate.
    fn kills(&self, stmt: &HStmt) -> bool {
        stmt.reg_uses().any(|u| u == self.cond) && stmt.def_reg() != Some(self.cond)
    }

    fn tracked_regs(&self) -> &[VarId] {
        std::slice::from_ref(&self.sr.iv_var)
    }

    fn tracked_mem(&self) -> Option<HVarId> {
        None
    }

    fn is_load(&self) -> bool {
        false
    }

    fn control_speculatable(&self) -> bool {
        false
    }

    fn temp_ty(&self) -> Ty {
        Ty::I64
    }

    fn temp_name(&self, n: u64) -> String {
        format!("lftr{n}")
    }

    /// The replacement comparison `s <op> N*c`.
    fn materialize(
        &self,
        _hf: &HssaFunc,
        t: (VarId, u32),
        vers: &OccVersions,
        _spec: LoadSpec,
    ) -> HStmt {
        let s = HOperand::Reg(self.sr.s, vers.regs[0]);
        let n = HOperand::ConstI(self.nc);
        let (a, b) = if self.iv_left { (s, n) } else { (n, s) };
        HStmt::new(HStmtKind::Bin {
            dst: t,
            op: self.op,
            a,
            b,
        })
    }
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
/// loop-exit tests replaced.
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
            }) = hf.blocks[b.index()].term.clone()
            else {
                continue;
            };
            let Some(ci) = hf.blocks[b.index()]
                .stmts
                .iter()
                .position(|st| st.def_reg() == Some((cv, cver)))
            else {
                continue;
            };
            let Some(client) =
                LftrClient::recognize(sr, (cv, cver), &hf.blocks[b.index()].stmts[ci])
            else {
                continue;
            };
            // kill scan over the whole function: the condition register
            // must feed only the branch
            if hf
                .blocks
                .iter()
                .any(|blk| blk.stmts.iter().any(|st| client.kills(st)))
            {
                continue;
            }
            if !sr_ver_defined(hf, sr.s, client.s_ver) {
                continue;
            }
            let vers = client
                .occurrence(&hf.blocks[b.index()].stmts[ci])
                .expect("recognized comparison is the occurrence");
            let with = client.materialize(hf, (cv, cver), &vers, LoadSpec::Normal);
            apply_edits(
                hf,
                vec![MotionEdit::Replace {
                    block: b,
                    stmt: ci,
                    with,
                }],
            );
            stats.lftr_applied += 1;
            applied += 1;
        }
    }
    applied
}
