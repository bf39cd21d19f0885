//! Step 3: DownSafety (block-lexical backward anticipation).
//!
//! A Φ is down-safe when the candidate is anticipated at its block. With
//! data speculation active, weak updates (χs the oracle calls unlikely) do
//! not kill — that is the expression client's kill query answering
//! through the likeliness oracle. Control speculation then treats a
//! profitable non-down-safe Φ as down-safe when the edge profile says the
//! speculated path is cold relative to the block (Lo et al., PLDI '98).

use super::{Kernel, OpndDef};
use specframe_hssa::HssaFunc;
use specframe_ir::Function;

#[derive(Clone, Copy, PartialEq)]
enum Ev {
    Use,
    Kill,
    Transparent,
}

impl Kernel<'_> {
    pub(crate) fn downsafety(&mut self, f_base: &Function, hf: &HssaFunc) {
        let nblocks = hf.blocks.len();
        let mut first_event = vec![Ev::Transparent; nblocks];
        for b in hf.block_ids() {
            // the block's first occurrence (if any) is occ_rng[b].0 — occs
            // are sorted by statement index within the block
            let (lo, hi) = self.occ_rng[b.index()];
            let first_occ = if lo < hi {
                self.occs[lo as usize].stmt
            } else {
                usize::MAX
            };
            for (si, stmt) in hf.blocks[b.index()].stmts.iter().enumerate() {
                if si == first_occ {
                    first_event[b.index()] = Ev::Use;
                    break;
                }
                if self.client.kills(stmt) {
                    first_event[b.index()] = Ev::Kill;
                    break;
                }
            }
        }
        let mut ant_in = vec![true; nblocks];
        let mut changed = true;
        while changed {
            changed = false;
            for &b in self.dt.rpo().iter().rev() {
                let succs = hf.blocks[b.index()]
                    .term
                    .as_ref()
                    .map(|t| t.successors())
                    .unwrap_or_default();
                let out = if succs.is_empty() {
                    false
                } else {
                    succs.iter().all(|s| ant_in[s.index()])
                };
                let inb = match first_event[b.index()] {
                    Ev::Use => true,
                    Ev::Kill => false,
                    Ev::Transparent => out,
                };
                if inb != ant_in[b.index()] {
                    ant_in[b.index()] = inb;
                    changed = true;
                }
            }
        }
        for p in self.phis.iter_mut() {
            p.down_safe = ant_in[p.block.index()];
        }
        // control speculation: profitable non-down-safe Phis become
        // "down-safe"; the block frequencies are summed only when such a
        // Φ exists
        if let Some((ep, fid)) = self.client.policy.control {
            if self.client.key.control_speculatable() {
                let mut freqs: Option<Vec<u64>> = None;
                for p in self.phis.iter_mut() {
                    if p.down_safe {
                        continue;
                    }
                    let freqs = freqs.get_or_insert_with(|| ep.block_freqs(fid, f_base));
                    let bfreq = freqs[p.block.index()];
                    if bfreq == 0 {
                        continue;
                    }
                    let preds = &hf.preds[p.block.index()];
                    let ok = p.opnds.iter().enumerate().all(|(i, o)| {
                        o.def != OpndDef::Bottom
                            || ep.edge_count(fid, preds[i], p.block) * 2 < bfreq
                    });
                    // at least one operand must carry a value for
                    // speculation to be able to pay off
                    let any_def = p.opnds.iter().any(|o| o.def != OpndDef::Bottom);
                    if ok && any_def {
                        p.cspec = true;
                    }
                }
            }
        }
    }
}
