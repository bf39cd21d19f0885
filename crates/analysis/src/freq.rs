//! Edge profiles and static branch heuristics.
//!
//! The paper's framework (Figure 3) consumes *edge/path profiles or
//! heuristic rules* for control speculation. [`EdgeProfile`] is the shared
//! representation: the dynamic profiler in `specframe-profile` fills one in
//! by execution, and [`estimate_profile`] synthesizes one from Ball–Larus
//! style static heuristics (back edges are taken, loop exits are not) when
//! no profiling run is available.

use crate::cache::FuncAnalyses;
use crate::loops::LoopInfo;
use specframe_ir::{BlockId, FuncId, Function, Module, Terminator};
use std::collections::HashMap;

/// Execution counts for CFG edges and function entries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeProfile {
    edges: HashMap<(FuncId, BlockId, BlockId), u64>,
    entries: HashMap<FuncId, u64>,
}

impl EdgeProfile {
    /// An empty profile.
    pub fn new() -> EdgeProfile {
        EdgeProfile::default()
    }

    /// Adds `n` traversals of an edge.
    pub fn add_edge(&mut self, f: FuncId, from: BlockId, to: BlockId, n: u64) {
        *self.edges.entry((f, from, to)).or_insert(0) += n;
    }

    /// Sets the entry count of `f`.
    pub fn set_entry(&mut self, f: FuncId, n: u64) {
        self.entries.insert(f, n);
    }

    /// The recorded count of edge `from -> to`.
    pub fn edge_count(&self, f: FuncId, from: BlockId, to: BlockId) -> u64 {
        self.edges.get(&(f, from, to)).copied().unwrap_or(0)
    }

    /// The recorded entry count of `f`.
    pub fn entry_count(&self, f: FuncId) -> u64 {
        self.entries.get(&f).copied().unwrap_or(0)
    }

    /// Block execution frequencies: entry count for the entry block,
    /// incoming-edge sum for every other block.
    pub fn block_freqs(&self, fid: FuncId, f: &Function) -> Vec<u64> {
        let mut freq = vec![0u64; f.blocks.len()];
        freq[f.entry().index()] = self.entry_count(fid);
        for b in f.block_ids() {
            for s in f.block(b).term.successors() {
                freq[s.index()] += self.edge_count(fid, b, s);
            }
        }
        freq
    }

    /// The probability (0..=1) that control leaves `from` along the edge to
    /// `to`, out of all recorded out-edges of `from`. Returns `None` when
    /// the block was never exited in this profile.
    pub fn edge_probability(
        &self,
        fid: FuncId,
        f: &Function,
        from: BlockId,
        to: BlockId,
    ) -> Option<f64> {
        let total: u64 = f
            .block(from)
            .term
            .successors()
            .iter()
            .map(|&s| self.edge_count(fid, from, s))
            .sum();
        if total == 0 {
            None
        } else {
            Some(self.edge_count(fid, from, to) as f64 / total as f64)
        }
    }

    /// Whether the profile contains any data for function `fid`.
    pub fn covers(&self, fid: FuncId) -> bool {
        self.entry_count(fid) > 0
    }
}

/// Nominal entry count assigned to every function by the static estimator.
pub const STATIC_ENTRY: u64 = 1_000;

/// Loop-body multiplier assumed by the static estimator: a back edge is
/// predicted taken with probability 0.9, i.e. loops run ~10 iterations.
pub const STATIC_LOOP_TRIPS: u64 = 10;

/// Builds an [`EdgeProfile`] from static heuristics, without executing the
/// program (the "heuristic rules" control-speculation source of Figure 3).
///
/// Heuristics, in priority order, for each 2-way branch:
/// 1. an edge that is a loop back edge gets probability 0.9;
/// 2. an edge that exits the innermost loop of the branch gets 0.1;
/// 3. otherwise both edges get 0.5.
///
/// Block frequencies are then `STATIC_ENTRY * STATIC_LOOP_TRIPS^depth`,
/// which is exact for reducible single-exit loops under the above
/// probabilities and close enough elsewhere for speculation decisions.
pub fn estimate_profile(m: &Module) -> EdgeProfile {
    let mut p = EdgeProfile::new();
    for (i, f) in m.funcs.iter().enumerate() {
        estimate_function(&mut p, FuncId::from_index(i), f, &FuncAnalyses::compute(f));
    }
    p
}

/// Single-function slice of [`estimate_profile`] over the function's
/// pre-computed analyses, accumulating into `p`. The optimization driver
/// estimates only the functions it is actually going to recompile — a
/// cache hit replays its stored lowering and never consults the static
/// profile — and shares the pipeline's analysis cache instead of
/// rebuilding dominators and loops.
pub fn estimate_function(p: &mut EdgeProfile, fid: FuncId, f: &Function, fa: &FuncAnalyses) {
    let (dt, li) = (&fa.dt, &fa.loops);
    p.set_entry(fid, STATIC_ENTRY);
    for b in f.block_ids() {
        if !dt.is_reachable(b) {
            continue;
        }
        let freq = STATIC_ENTRY * STATIC_LOOP_TRIPS.pow(li.depth(b));
        match &f.block(b).term {
            Terminator::Jump(t) => p.add_edge(fid, b, *t, freq),
            Terminator::Br { then_, else_, .. } => {
                let prob_then = branch_prob(li, b, *then_, *else_);
                let t_count = (freq as f64 * prob_then) as u64;
                p.add_edge(fid, b, *then_, t_count);
                p.add_edge(fid, b, *else_, freq - t_count);
            }
            Terminator::Ret(_) => {}
        }
    }
}

fn branch_prob(li: &LoopInfo, from: BlockId, then_: BlockId, else_: BlockId) -> f64 {
    let back_t = li.is_back_edge(from, then_);
    let back_e = li.is_back_edge(from, else_);
    if back_t && !back_e {
        return 0.9;
    }
    if back_e && !back_t {
        return 0.1;
    }
    // loop-exit heuristic: prefer the successor that stays at (or deepens)
    // the current nesting depth
    let d = li.depth(from);
    let exit_t = li.depth(then_) < d;
    let exit_e = li.depth(else_) < d;
    if exit_t && !exit_e {
        return 0.1;
    }
    if exit_e && !exit_t {
        return 0.9;
    }
    0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_ir::{ModuleBuilder, Ty};

    fn loop_module() -> Module {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("l", &[("x", Ty::I64)], None);
        {
            let mut fb = mb.define(f);
            let x = fb.param(0);
            let head = fb.block("head");
            let body = fb.block("body");
            let exit = fb.block("exit");
            fb.jmp(head);
            fb.switch_to(head);
            fb.br(x.into(), body, exit);
            fb.switch_to(body);
            fb.jmp(head);
            fb.switch_to(exit);
            fb.ret(None);
        }
        mb.finish()
    }

    #[test]
    fn record_and_query() {
        let mut p = EdgeProfile::new();
        let f = FuncId(0);
        p.set_entry(f, 1);
        p.add_edge(f, BlockId(0), BlockId(1), 1);
        p.add_edge(f, BlockId(0), BlockId(1), 1);
        p.add_edge(f, BlockId(0), BlockId(2), 1);
        assert_eq!(p.edge_count(f, BlockId(0), BlockId(1)), 2);
        assert_eq!(p.entry_count(f), 1);
        assert!(p.covers(f));
        assert!(!p.covers(FuncId(1)));
    }

    #[test]
    fn probabilities_normalize() {
        let m = loop_module();
        let mut p = EdgeProfile::new();
        let f = FuncId(0);
        p.add_edge(f, BlockId(1), BlockId(2), 9);
        p.add_edge(f, BlockId(1), BlockId(3), 1);
        let pr = p
            .edge_probability(f, &m.funcs[0], BlockId(1), BlockId(2))
            .unwrap();
        assert!((pr - 0.9).abs() < 1e-9);
        assert!(p
            .edge_probability(f, &m.funcs[0], BlockId(2), BlockId(1))
            .is_none());
    }

    #[test]
    fn static_estimate_prefers_loop_body() {
        let m = loop_module();
        let p = estimate_profile(&m);
        let f = FuncId(0);
        let to_body = p.edge_count(f, BlockId(1), BlockId(2));
        let to_exit = p.edge_count(f, BlockId(1), BlockId(3));
        assert!(to_body > to_exit * 5, "{to_body} vs {to_exit}");
        let freqs = p.block_freqs(f, &m.funcs[0]);
        assert_eq!(freqs[0], STATIC_ENTRY);
        assert!(freqs[2] > freqs[3]);
    }

    #[test]
    fn block_freqs_sum_incoming() {
        let m = loop_module();
        let mut p = EdgeProfile::new();
        let f = FuncId(0);
        p.set_entry(f, 5);
        p.add_edge(f, BlockId(0), BlockId(1), 5);
        p.add_edge(f, BlockId(2), BlockId(1), 45);
        let freqs = p.block_freqs(f, &m.funcs[0]);
        assert_eq!(freqs[1], 50);
    }
}
