//! Step 6: CodeMotion.
//!
//! Writes Finalize's decisions straight into the form: saves become
//! `t = E; x = t`, reloads become `x = t`, *speculative* reloads become
//! check loads (`ld.c`, Appendix B), control-speculative insertions become
//! `ld.s` with NaT-check reloads, and every load feeding a check is
//! flagged as an advanced load (`ld.a`).
//!
//! Each block is edited from its last occurrence up, so an edit never
//! moves a statement a later edit reads; insertions at predecessor ends
//! and the Φs of `t` follow the occurrence edits.

use super::finalize::FinalizeOut;
use super::{Kernel, OpndDef, Role};
use crate::stats::OptStats;
use specframe_hssa::{HOperand, HStmt, HStmtKind, HVarKind, HssaFunc, Phi as HPhi, FRESH_SITE};
use specframe_ir::{CheckKind, LoadSpec, VarId};

impl Kernel<'_> {
    pub(crate) fn codemotion(
        &self,
        hf: &mut HssaFunc,
        t: VarId,
        fin: FinalizeOut,
        stats: &mut OptStats,
    ) {
        let occs = &self.occs;
        let phis = &self.phis;
        let is_load_expr = self.client.key.is_load();
        let nclasses = self.next_class as usize;

        // advanced-load marking (Appendix B): a class with any checking
        // reload gets its defining loads flagged ld.a — class and Φ sets
        // are dense bit vectors keyed by the rename-allocated indices
        let mut checked_classes = vec![false; nclasses];
        for o in occs.iter() {
            if let Role::Reload { check: true, .. } = o.role {
                checked_classes[o.class as usize] = true;
            }
        }
        // any Phi reachable from a checked class spreads the marking to
        // defs (conservative: mark every saving def of a checked class and
        // every insertion feeding a Phi of a checked class)
        let mut changed = true;
        let mut checked_phis = vec![false; phis.len()];
        while changed {
            changed = false;
            for (i, p) in phis.iter().enumerate() {
                if checked_classes[p.class as usize] && !checked_phis[i] {
                    checked_phis[i] = true;
                    changed = true;
                }
            }
            for p in phis.iter() {
                for o in &p.opnds {
                    if let OpndDef::Phi(j) = o.def {
                        if checked_classes[p.class as usize]
                            && !checked_classes[phis[j].class as usize]
                        {
                            checked_classes[phis[j].class as usize] = true;
                            changed = true;
                        }
                    }
                }
            }
            // defs linked as operands of checked phis
            for (i, p) in phis.iter().enumerate() {
                if !checked_phis[i] {
                    continue;
                }
                for o in &p.opnds {
                    if let OpndDef::Real(oi) = o.def {
                        if !checked_classes[occs[oi].class as usize] {
                            checked_classes[occs[oi].class as usize] = true;
                            changed = true;
                        }
                    }
                }
            }
        }

        // control-speculation: classes fed by a cspec Phi need NaT-check
        // reloads
        let mut any_cspec = false;
        let mut nat_classes = vec![false; nclasses];
        for p in phis.iter() {
            if p.cspec && p.will_be_avail {
                any_cspec = true;
                nat_classes[p.class as usize] = true;
            }
        }
        // propagate downstream through phi operands
        let mut changed = true;
        while changed {
            changed = false;
            for p in phis.iter() {
                if p.opnds.iter().any(|o| match o.def {
                    OpndDef::Phi(j) => nat_classes[phis[j].class as usize],
                    _ => false,
                }) && !nat_classes[p.class as usize]
                {
                    nat_classes[p.class as usize] = true;
                    changed = true;
                }
            }
        }

        // ---- edit the form ------------------------------------------------
        // occs are sorted by (block index, statement index); each block's
        // contiguous run is edited from its last occurrence up, so an edit
        // only moves statements after the occurrences still to come, and
        // t-versions are allocated in the order the printed SSA form pins
        let mut run_start = 0usize;
        while run_start < occs.len() {
            let b = occs[run_start].block;
            let mut run_end = run_start;
            while run_end < occs.len() && occs[run_end].block == b {
                run_end += 1;
            }
            for o in occs[run_start..run_end].iter().rev() {
                let s = &mut hf.blocks[b.index()].stmts[o.stmt];
                // the occurrence's old destination, when it now copies
                // from a version of t
                let copy = match o.role {
                    Role::Compute { save: false } => continue,
                    Role::Compute { save: true } => {
                        let dst = s.def_reg_mut().expect("occurrence defines a register");
                        let old = std::mem::replace(dst, (t, o.t_ver));
                        if is_load_expr
                            && (checked_classes[o.class as usize] || nat_classes[o.class as usize])
                        {
                            if let HStmtKind::Load { spec, .. } = &mut s.kind {
                                if *spec == LoadSpec::Normal {
                                    *spec = LoadSpec::Advanced;
                                    stats.advanced_loads += 1;
                                }
                            }
                        }
                        stats.saves += 1;
                        Some((old, o.t_ver))
                    }
                    Role::Reload { from, check } => {
                        let dst = s.def_reg().expect("occurrence defines a register");
                        stats.reloads += 1;
                        if is_load_expr {
                            stats.loads_removed += 1;
                        }
                        if is_load_expr && (check || nat_classes[o.class as usize]) {
                            // check load revalidates t, then the original
                            // destination copies from it (Appendix B / Fig. 8)
                            let (HStmtKind::Load {
                                base, offset, ty, ..
                            }
                            | HStmtKind::CheckLoad {
                                base, offset, ty, ..
                            }) = s.kind
                            else {
                                panic!("a checked reload of a load candidate is a load");
                            };
                            let tv2 = hf.fresh_ver_of_reg(t);
                            hf.blocks[b.index()].stmts[o.stmt] = HStmt::new(HStmtKind::CheckLoad {
                                dst: (t, tv2),
                                base,
                                offset,
                                ty,
                                kind: if check {
                                    CheckKind::Alat
                                } else {
                                    CheckKind::Nat
                                },
                                site: FRESH_SITE,
                                dvar: None,
                            });
                            stats.checks += 1;
                            if check {
                                stats.data_spec_reloads += 1;
                            }
                            Some((dst, tv2))
                        } else {
                            *s = HStmt::new(HStmtKind::Copy {
                                dst,
                                src: HOperand::Reg(t, from),
                            });
                            None
                        }
                    }
                };
                if let Some((dst, ver)) = copy {
                    hf.blocks[b.index()].stmts.insert(
                        o.stmt + 1,
                        HStmt::new(HStmtKind::Copy {
                            dst,
                            src: HOperand::Reg(t, ver),
                        }),
                    );
                }
            }
            run_start = run_end;
        }

        // insertions at predecessor ends
        for (pi, op_idx) in fin.insertions {
            let p = &phis[pi];
            let pred = hf.preds[p.block.index()][op_idx];
            let opnd = &p.opnds[op_idx];
            let spec_load = p.cspec && is_load_expr;
            let stmt = self.client.materialize(
                (t, opnd.t_ver),
                &opnd.vers_at_pred,
                if spec_load {
                    LoadSpec::Speculative
                } else if checked_classes[p.class as usize] || nat_classes[p.class as usize] {
                    LoadSpec::Advanced
                } else {
                    LoadSpec::Normal
                },
            );
            hf.blocks[pred.index()].stmts.push(stmt);
            stats.insertions += 1;
            if spec_load {
                stats.control_spec_loads += 1;
            }
        }

        // phis for t
        let t_hvar = hf.catalog.get(HVarKind::Reg(t)).expect("temp interned");
        for p in phis.iter() {
            if !p.will_be_avail {
                continue;
            }
            let args: Vec<u32> = p
                .opnds
                .iter()
                .map(|o| {
                    if o.t_ver != u32::MAX {
                        o.t_ver
                    } else {
                        0 // unreachable value path; collapsed var makes this benign
                    }
                })
                .collect();
            hf.blocks[p.block.index()].phis.push(HPhi {
                var: t_hvar,
                dest: p.t_ver,
                args,
            });
        }

        stats.transformed += 1;
        if occs.iter().any(|o| o.spec) {
            stats.data_speculated_exprs += 1;
        }
        if any_cspec {
            stats.control_speculated_exprs += 1;
        }
    }
}
