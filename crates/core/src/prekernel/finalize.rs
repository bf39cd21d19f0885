//! Step 5: Finalize.
//!
//! An availability walk in dominator preorder decides, for every real
//! occurrence, whether it computes the candidate (possibly saving into
//! the kernel temporary `t`) or reloads from `t`, and for every
//! will-be-available Φ operand whether an insertion is required at the
//! predecessor end. All t-versions are allocated here, in walk order —
//! that ordering is part of the printed SSA form the golden tests pin.

use super::{Kernel, OpndDef, Role, NO_PHI};
use specframe_hssa::HssaFunc;
use specframe_ir::{BlockId, VarId};

/// Finalize's verdict, consumed by CodeMotion. Saves are recorded
/// directly in the occurrences' roles.
pub(crate) struct FinalizeOut {
    /// (phi index, operand index) pairs needing an insertion.
    pub(crate) insertions: Vec<(usize, usize)>,
    /// Whether anything materialized at all (some reload, save or
    /// insertion); when false the kernel bails out without touching `hf`.
    pub(crate) changed: bool,
}

#[derive(Clone, Copy)]
enum Avail {
    FromPhi { phi: usize, t_ver: u32 },
    FromReal { occ: usize, t_ver: u32 },
}

enum Walk {
    Visit(BlockId),
    Pop(Vec<u32>),
}

impl Kernel<'_> {
    pub(crate) fn finalize(&mut self, hf: &mut HssaFunc, t: VarId) -> FinalizeOut {
        let Kernel {
            dt,
            occs,
            occ_rng,
            phis,
            phi_at,
            next_class,
            ..
        } = self;
        // per-class availability stacks, indexed by the dense class ids
        // rename allocated
        let mut avail: Vec<Vec<Avail>> = vec![Vec::new(); *next_class as usize];
        // collected edits
        let mut saved = vec![false; occs.len()]; // occ indices that must save
        let mut insertions: Vec<(usize, usize)> = Vec::new(); // (phi, opnd)
        let mut walk = vec![Walk::Visit(dt.rpo()[0])];
        while let Some(w) = walk.pop() {
            match w {
                Walk::Pop(classes) => {
                    for c in classes {
                        avail[c as usize].pop();
                    }
                }
                Walk::Visit(b) => {
                    let mut pushed: Vec<u32> = Vec::new();
                    if phi_at[b.index()] != NO_PHI {
                        let pi = phi_at[b.index()] as usize;
                        if phis[pi].will_be_avail {
                            let tv = hf.fresh_ver_of_reg(t);
                            phis[pi].t_ver = tv;
                            avail[phis[pi].class as usize]
                                .push(Avail::FromPhi { phi: pi, t_ver: tv });
                            pushed.push(phis[pi].class);
                        }
                    }
                    // the block's occurrences, already in statement order
                    let (occ_lo, occ_hi) = occ_rng[b.index()];
                    for oi in occ_lo as usize..occ_hi as usize {
                        let class = occs[oi].class;
                        let top = avail[class as usize].last().copied();
                        match top {
                            Some(Avail::FromPhi { phi, t_ver }) => {
                                let check = occs[oi].spec || phis[phi].tainted;
                                occs[oi].role = Role::Reload { from: t_ver, check };
                            }
                            Some(Avail::FromReal { occ, t_ver }) => {
                                let check = occs[oi].spec || occs[occ].spec;
                                occs[oi].role = Role::Reload { from: t_ver, check };
                                saved[occ] = true;
                            }
                            None => {
                                let tv = hf.fresh_ver_of_reg(t);
                                occs[oi].t_ver = tv;
                                occs[oi].role = Role::Compute { save: false };
                                avail[class as usize].push(Avail::FromReal { occ: oi, t_ver: tv });
                                pushed.push(class);
                            }
                        }
                    }
                    // successors' Phi operands: insertions & t-version routing
                    let succs = hf.blocks[b.index()]
                        .term
                        .as_ref()
                        .map(|tm| tm.successors())
                        .unwrap_or_default();
                    for s in succs {
                        let pi = phi_at[s.index()];
                        if pi == NO_PHI {
                            continue;
                        }
                        let pi = pi as usize;
                        if !phis[pi].will_be_avail {
                            continue;
                        }
                        let Some(op_idx) = hf.pred_index(s, b) else {
                            continue;
                        };
                        let need_insert = match phis[pi].opnds[op_idx].def {
                            OpndDef::Bottom => true,
                            OpndDef::Phi(j) => {
                                !phis[j].will_be_avail && !phis[pi].opnds[op_idx].has_real_use
                            }
                            OpndDef::Real(_) => false,
                        };
                        if need_insert {
                            let tv = hf.fresh_ver_of_reg(t);
                            phis[pi].opnds[op_idx].t_ver = tv;
                            phis[pi].opnds[op_idx].inserted = true;
                            insertions.push((pi, op_idx));
                        } else {
                            // route the available t version along the edge
                            let tv = match phis[pi].opnds[op_idx].def {
                                OpndDef::Real(oi) => {
                                    saved[oi] = true;
                                    match occs[oi].role {
                                        Role::Compute { .. } => occs[oi].t_ver,
                                        Role::Reload { from, .. } => from,
                                    }
                                }
                                OpndDef::Phi(j) => phis[j].t_ver,
                                OpndDef::Bottom => unreachable!(),
                            };
                            phis[pi].opnds[op_idx].t_ver = tv;
                        }
                    }
                    walk.push(Walk::Pop(pushed));
                    for &c in dt.children(b).iter().rev() {
                        walk.push(Walk::Visit(c));
                    }
                }
            }
        }
        for (oi, &s) in saved.iter().enumerate() {
            if s {
                if let Role::Compute { .. } = occs[oi].role {
                    occs[oi].role = Role::Compute { save: true };
                }
            }
        }

        // nothing materialized? (all computes unsaved and no reloads)
        let changed = occs.iter().any(|o| match o.role {
            Role::Reload { .. } => true,
            Role::Compute { save } => save,
        }) || !insertions.is_empty();

        FinalizeOut {
            insertions,
            changed,
        }
    }
}
