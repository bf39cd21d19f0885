//! Step 1: Φ-Insertion.
//!
//! Φs for the hypothetical temporary are placed at the iterated dominance
//! frontier of every real occurrence, plus at every φ of a variable of the
//! candidate (the paper's Appendix A enhancement: walking def chains
//! through speculative weak updates can only ever reach variable φs, so
//! taking all of them is a sound superset).

use super::{Kernel, OpndDef, PhiE, PhiOpnd, NO_PHI};
use crate::expr::OccVersions;
use specframe_analysis::iterated_df;
use specframe_hssa::{HVarId, HVarKind, HssaFunc};
use specframe_ir::InlineVec;

impl Kernel<'_> {
    pub(crate) fn phi_insertion(&mut self, hf: &HssaFunc) {
        let tracked_regs = &self.client.tracked_regs;
        let mem_var = self.client.mem_var;
        let nblocks = hf.blocks.len();
        // occs are sorted by block, so consecutive dedup yields the seeds
        let mut occ_blocks = Vec::with_capacity(self.occs.len());
        for o in &self.occs {
            if occ_blocks.last() != Some(&o.block) {
                occ_blocks.push(o.block);
            }
        }
        let mut phi_block = vec![false; nblocks];
        for b in iterated_df(self.df, occ_blocks) {
            phi_block[b.index()] = true;
        }
        let reg_hvars: Vec<HVarId> = tracked_regs
            .iter()
            .filter_map(|&r| hf.catalog.get(HVarKind::Reg(r)))
            .collect();
        for b in hf.block_ids() {
            for phi in &hf.blocks[b.index()].phis {
                if reg_hvars.contains(&phi.var) || mem_var == Some(phi.var) {
                    phi_block[b.index()] = true;
                }
            }
        }
        // materialize in block-index order (the old sort order, for free)
        let mut phis: Vec<PhiE> = Vec::new();
        let mut phi_at = vec![NO_PHI; nblocks];
        for b in hf.block_ids() {
            if !phi_block[b.index()] {
                continue;
            }
            phi_at[b.index()] = phis.len() as u32;
            phis.push(PhiE {
                block: b,
                class: u32::MAX,
                opnds: hf.preds[b.index()]
                    .iter()
                    .map(|_| PhiOpnd {
                        def: OpndDef::Bottom,
                        has_real_use: false,
                        spec: false,
                        vers_at_pred: OccVersions {
                            regs: InlineVec::filled(0, tracked_regs.len()),
                            mem: mem_var.map(|_| 0),
                        },
                        t_ver: u32::MAX,
                        inserted: false,
                    })
                    .collect(),
                down_safe: false,
                cspec: false,
                can_be_avail: true,
                later: true,
                will_be_avail: false,
                tainted: false,
                t_ver: u32::MAX,
            });
        }
        self.phis = phis;
        self.phi_at = phi_at;
    }
}
