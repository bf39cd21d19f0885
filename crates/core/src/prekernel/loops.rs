//! Loop recognition shared by the loop-shaped passes.
//!
//! Store promotion and strength reduction operate on the same restricted
//! loop shape (and LFTR on the loops strength reduction reduced): a single
//! latch and a unique entry predecessor that has a single successor (so it
//! can host insertions). This module holds the one copy of that preamble.

use specframe_analysis::FuncAnalyses;
use specframe_hssa::HssaFunc;
use specframe_ir::BlockId;

/// One loop in the shape the loop-shaped passes can transform.
#[derive(Debug, Clone)]
pub struct LoopShape {
    /// Loop header block.
    pub header: BlockId,
    /// The single latch.
    pub latch: BlockId,
    /// The unique entry predecessor (single-successor, insertable).
    pub preheader: BlockId,
    /// φ argument index of the preheader edge at the header.
    pub pre_idx: usize,
    /// φ argument index of the latch edge at the header.
    pub latch_idx: usize,
    /// Blocks of the loop body (header included), in loop-info order.
    pub body: Vec<BlockId>,
}

/// Recognizes every loop of `hf` that has the transformable shape, in
/// loop-info order. Loops with multiple latches, multiple entries, or a
/// non-insertable preheader are skipped.
pub fn reducible_loops(hf: &HssaFunc, fa: &FuncAnalyses) -> Vec<LoopShape> {
    let mut shapes = Vec::new();
    for l in fa.loops.loops.clone() {
        if l.latches.len() != 1 {
            continue;
        }
        let header = l.header;
        let latch = l.latches[0];
        let preds = hf.preds[header.index()].clone();
        let Some(latch_idx) = preds.iter().position(|&p| p == latch) else {
            continue;
        };
        // unique entry predecessor with a single successor (insertable)
        let entries: Vec<usize> = (0..preds.len()).filter(|&i| i != latch_idx).collect();
        if entries.len() != 1 {
            continue;
        }
        let pre_idx = entries[0];
        let preheader = preds[pre_idx];
        if hf.blocks[preheader.index()]
            .term
            .as_ref()
            .map(|t| t.successors().len())
            != Some(1)
        {
            continue;
        }
        shapes.push(LoopShape {
            header,
            latch,
            preheader,
            pre_idx,
            latch_idx,
            body: l.body.clone(),
        });
    }
    shapes
}
