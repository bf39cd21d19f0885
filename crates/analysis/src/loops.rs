//! Natural-loop detection and nesting depth.
//!
//! Loop structure feeds two consumers: the static branch heuristics in
//! [`crate::freq`] (back edges are predicted taken) and the optimizer's
//! `reducible_loops`, which picks the loops strength reduction, LFTR and
//! store sinking transform.

use crate::dom::DomTree;
use specframe_ir::{BlockId, Function};

/// One natural loop.
#[derive(Debug, Clone)]
pub struct NaturalLoop {
    /// The loop header (target of the back edge).
    pub header: BlockId,
    /// Back-edge sources (latches).
    pub latches: Vec<BlockId>,
    /// All blocks in the loop body, header included, sorted.
    pub body: Vec<BlockId>,
}

/// Loop forest of one function.
#[derive(Debug, Clone)]
pub struct LoopInfo {
    /// Detected loops, outermost-first by header RPO position.
    pub loops: Vec<NaturalLoop>,
    /// Loop-nesting depth per block (0 = not in any loop).
    pub depth: Vec<u32>,
}

impl LoopInfo {
    /// Finds all natural loops: edges `l -> h` where `h` dominates `l`.
    /// Loops sharing a header are merged (as in standard loop analysis).
    pub fn compute(f: &Function, dt: &DomTree) -> LoopInfo {
        let n = f.blocks.len();
        let preds = f.predecessors();
        // gather back edges per header
        let mut latches_of: std::collections::BTreeMap<BlockId, Vec<BlockId>> = Default::default();
        for b in f.block_ids() {
            if !dt.is_reachable(b) {
                continue;
            }
            for s in f.block(b).term.successors() {
                if dt.dominates(s, b) {
                    latches_of.entry(s).or_default().push(b);
                }
            }
        }
        let mut loops = Vec::new();
        let mut depth = vec![0u32; n];
        for (&header, latches) in &latches_of {
            // body = header + all blocks that reach a latch without passing
            // through the header (standard natural-loop walk); a latch that
            // is the header itself adds nothing, and seeding the walk with
            // it would climb out through the header's entry edges
            let mut body = vec![header];
            let mut seen = vec![false; n];
            seen[header.index()] = true;
            let mut stack: Vec<BlockId> = Vec::new();
            for &l in latches.iter().filter(|&&l| l != header) {
                seen[l.index()] = true;
                stack.push(l);
            }
            while let Some(b) = stack.pop() {
                if !body.contains(&b) {
                    body.push(b);
                }
                for &p in &preds[b.index()] {
                    if !seen[p.index()] && dt.is_reachable(p) {
                        seen[p.index()] = true;
                        stack.push(p);
                    }
                }
            }
            body.sort();
            body.dedup();
            for &b in &body {
                depth[b.index()] += 1;
            }
            loops.push(NaturalLoop {
                header,
                latches: latches.clone(),
                body,
            });
        }
        // order outermost-first: fewer enclosing loops = smaller depth at header
        loops.sort_by_key(|l| depth[l.header.index()]);
        LoopInfo { loops, depth }
    }

    /// Loop-nesting depth of a block (0 outside any loop).
    #[inline]
    pub fn depth(&self, b: BlockId) -> u32 {
        self.depth[b.index()]
    }

    /// Whether edge `from -> to` is a back edge of some detected loop.
    pub fn is_back_edge(&self, from: BlockId, to: BlockId) -> bool {
        self.loops
            .iter()
            .any(|l| l.header == to && l.latches.contains(&from))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_ir::{ModuleBuilder, Ty};

    fn nested_loops() -> specframe_ir::Module {
        // entry -> oh; oh -> {ih, exit}; ih -> {ib, ol}; ib -> ih; ol -> oh
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("n", &[("x", Ty::I64)], None);
        {
            let mut fb = mb.define(f);
            let x = fb.param(0);
            let oh = fb.block("outer_head");
            let ih = fb.block("inner_head");
            let ib = fb.block("inner_body");
            let ol = fb.block("outer_latch");
            let exit = fb.block("exit");
            fb.jmp(oh);
            fb.switch_to(oh);
            fb.br(x.into(), ih, exit);
            fb.switch_to(ih);
            fb.br(x.into(), ib, ol);
            fb.switch_to(ib);
            fb.jmp(ih);
            fb.switch_to(ol);
            fb.jmp(oh);
            fb.switch_to(exit);
            fb.ret(None);
        }
        mb.finish()
    }

    #[test]
    fn finds_nested_loops_and_depths() {
        let m = nested_loops();
        let f = &m.funcs[0];
        let dt = DomTree::compute(f);
        let li = LoopInfo::compute(f, &dt);
        assert_eq!(li.loops.len(), 2);
        // outer: header=1 (oh), body {1,2,3,4}; inner: header=2, body {2,3}
        let outer = li.loops.iter().find(|l| l.header == BlockId(1)).unwrap();
        let inner = li.loops.iter().find(|l| l.header == BlockId(2)).unwrap();
        assert_eq!(
            outer.body,
            vec![BlockId(1), BlockId(2), BlockId(3), BlockId(4)]
        );
        assert_eq!(inner.body, vec![BlockId(2), BlockId(3)]);
        assert_eq!(li.depth(BlockId(0)), 0);
        assert_eq!(li.depth(BlockId(1)), 1);
        assert_eq!(li.depth(BlockId(2)), 2);
        assert_eq!(li.depth(BlockId(3)), 2);
        assert_eq!(li.depth(BlockId(4)), 1);
        assert_eq!(li.depth(BlockId(5)), 0);
    }

    #[test]
    fn back_edges_identified() {
        let m = nested_loops();
        let f = &m.funcs[0];
        let dt = DomTree::compute(f);
        let li = LoopInfo::compute(f, &dt);
        assert!(li.is_back_edge(BlockId(3), BlockId(2)));
        assert!(li.is_back_edge(BlockId(4), BlockId(1)));
        assert!(!li.is_back_edge(BlockId(1), BlockId(2)));
    }

    #[test]
    fn a_self_loop_holds_only_its_header() {
        let m = specframe_ir::parse_module(
            r#"
func f(n: i64) -> i64 {
entry:
  br n, a, b
a:
  br n, b, own
b:
  jmp a
own:
  br n, own, done
done:
  ret n
}
"#,
        )
        .unwrap();
        let f = &m.funcs[0];
        let li = LoopInfo::compute(f, &DomTree::compute(f));
        let own = li.loops.iter().find(|l| l.header == BlockId(3)).unwrap();
        assert_eq!(own.body, [BlockId(3)]);
        assert_eq!(li.depth, [0, 0, 0, 1, 0]);
    }

    #[test]
    fn acyclic_function_has_no_loops() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("a", &[], None);
        {
            let mut fb = mb.define(f);
            let b = fb.block("b");
            fb.jmp(b);
            fb.switch_to(b);
            fb.ret(None);
        }
        let m = mb.finish();
        let f = &m.funcs[0];
        let dt = DomTree::compute(f);
        let li = LoopInfo::compute(f, &dt);
        assert!(li.loops.is_empty());
        assert!(li.depth.iter().all(|&d| d == 0));
    }
}
