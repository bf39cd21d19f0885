//! Per-function analysis cache.
//!
//! Every per-function pass in the pipeline (HSSA construction, SSAPRE,
//! strength reduction, store sinking) consumes the same derived
//! structures: the dominator tree, its dominance frontiers, the natural
//! loop nest, and which blocks lie on a cycle. Historically each pass
//! recomputed them from scratch — up to four dominator builds per function
//! per `optimize` call. [`FuncAnalyses`] computes them once and is threaded
//! by reference through the pipeline.
//!
//! ## Invalidation rule
//!
//! A cached [`FuncAnalyses`] is valid for as long as the function's **CFG
//! shape** (block set, terminators / edges) is unchanged. Passes that only
//! rewrite instructions, operands, or φ operands — everything between the
//! first HSSA build and `lower_function` in the current pipeline, including
//! `refine_function`'s folds, which may trigger a rebuild of the form but
//! never of the analyses — must NOT invalidate it. Any pass that adds/removes blocks or edges (e.g.
//! `remove_unreachable_blocks` and `split_critical_edges`, which therefore
//! run *before* analyses are built) must call [`FuncAnalyses::recompute`]
//! before the cache is used again.

use crate::cfg::cyclic_blocks;
use crate::df::DomFrontiers;
use crate::dom::DomTree;
use crate::loops::LoopInfo;
use specframe_ir::Function;

/// The CFG-derived analyses of one function, computed once per `optimize`
/// call and shared (by reference) across all per-function passes.
#[derive(Debug, Clone)]
pub struct FuncAnalyses {
    /// Dominator tree (Cooper–Harvey–Kennedy).
    pub dt: DomTree,
    /// Dominance frontiers of `dt` — the φ/Φ placement sets.
    pub df: DomFrontiers,
    /// Natural-loop nest and per-block nesting depth.
    pub loops: LoopInfo,
    /// Per block: does it lie on a CFG cycle ([`cyclic_blocks`])? SSAPRE
    /// decides a lone occurrence outside every cycle before Φ-Insertion.
    pub cyclic: Vec<bool>,
}

impl FuncAnalyses {
    /// Computes all analyses of `f` from scratch.
    pub fn compute(f: &Function) -> FuncAnalyses {
        let dt = DomTree::compute(f);
        let df = DomFrontiers::compute(f, &dt);
        let loops = LoopInfo::compute(f, &dt);
        FuncAnalyses {
            dt,
            df,
            loops,
            cyclic: cyclic_blocks(f),
        }
    }

    /// Rebuilds the analyses after a CFG edit (see the invalidation rule in
    /// the module docs).
    pub fn recompute(&mut self, f: &Function) {
        *self = FuncAnalyses::compute(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dom::dom_compute_count;
    use specframe_ir::{ModuleBuilder, Ty};

    fn diamond() -> specframe_ir::Module {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("d", &[("x", Ty::I64)], None);
        {
            let mut fb = mb.define(f);
            let x = fb.param(0);
            let a = fb.block("a");
            let b = fb.block("b");
            let c = fb.block("c");
            fb.br(x.into(), a, b);
            fb.switch_to(a);
            fb.jmp(c);
            fb.switch_to(b);
            fb.jmp(c);
            fb.switch_to(c);
            fb.ret(None);
        }
        mb.finish()
    }

    #[test]
    fn compute_builds_one_dom_tree() {
        let m = diamond();
        let before = dom_compute_count();
        let fa = FuncAnalyses::compute(&m.funcs[0]);
        assert_eq!(dom_compute_count() - before, 1);
        assert!(fa.dt.is_reachable(specframe_ir::BlockId(3)));
        // merge block of the diamond is in the frontier of both arms
        assert!(!fa.df.of(specframe_ir::BlockId(1)).is_empty());
        assert_eq!(fa.loops.depth(specframe_ir::BlockId(0)), 0);
    }

    #[test]
    fn recompute_matches_fresh() {
        let m = diamond();
        let mut fa = FuncAnalyses::compute(&m.funcs[0]);
        fa.recompute(&m.funcs[0]);
        let fresh = FuncAnalyses::compute(&m.funcs[0]);
        assert_eq!(
            fa.dt.idom(specframe_ir::BlockId(3)),
            fresh.dt.idom(specframe_ir::BlockId(3))
        );
    }
}
