//! Dominator tree via the Cooper–Harvey–Kennedy iterative algorithm.

use crate::cfg::reverse_postorder;
use specframe_ir::{BlockId, Function};
use std::cell::Cell;

thread_local! {
    /// Per-thread count of [`DomTree::compute`] invocations.
    ///
    /// Observability hook for the pipeline's analysis cache: the driver
    /// reports how many dominator trees an `optimize` call built, so tests
    /// can assert one per function on the no-CFG-edit path. Per-thread, so
    /// concurrent compiles on other threads never show up in a delta; the
    /// worker that owns a function builds its analyses, so the driver
    /// samples this before and after each function's compile on that
    /// worker and sums the deltas at its join.
    static DOM_COMPUTES: Cell<u64> = const { Cell::new(0) };
}

/// The current value of this thread's [`DomTree::compute`] counter.
pub fn dom_compute_count() -> u64 {
    DOM_COMPUTES.with(Cell::get)
}

/// The dominator tree of one function.
///
/// Unreachable blocks have no `idom` and are excluded from every order.
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per block (`None` for the entry and unreachable
    /// blocks).
    idom: Vec<Option<BlockId>>,
    /// Children in the dominator tree.
    children: Vec<Vec<BlockId>>,
    /// Blocks in reverse postorder.
    rpo: Vec<BlockId>,
    /// Preorder (DFS entry) number per block in the dominator tree.
    pre: Vec<u32>,
    /// DFS exit number per block.
    post: Vec<u32>,
    /// Whether the block is reachable.
    reachable: Vec<bool>,
}

impl DomTree {
    /// Computes the dominator tree of `f`.
    pub fn compute(f: &Function) -> DomTree {
        DOM_COMPUTES.with(|c| c.set(c.get() + 1));
        let n = f.blocks.len();
        let rpo = reverse_postorder(f);
        let mut rpo_num = vec![usize::MAX; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_num[b.index()] = i;
        }
        let preds = f.predecessors();
        let entry = f.entry();

        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        idom[entry.index()] = Some(entry); // temporary self-idom for the fixpoint

        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &preds[b.index()] {
                    if idom[p.index()].is_none() {
                        continue; // not yet processed or unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_num, p, cur),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }
        idom[entry.index()] = None;

        let mut children = vec![Vec::new(); n];
        for b in f.block_ids() {
            if let Some(d) = idom[b.index()] {
                children[d.index()].push(b);
            }
        }

        // preorder/postorder numbering for O(1) dominance queries
        let mut pre = vec![0u32; n];
        let mut post = vec![0u32; n];
        let mut clock = 0u32;
        let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
        pre[entry.index()] = {
            clock += 1;
            clock
        };
        while let Some(&mut (b, ref mut cursor)) = stack.last_mut() {
            if *cursor < children[b.index()].len() {
                let c = children[b.index()][*cursor];
                *cursor += 1;
                clock += 1;
                pre[c.index()] = clock;
                stack.push((c, 0));
            } else {
                clock += 1;
                post[b.index()] = clock;
                stack.pop();
            }
        }

        let mut reachable = vec![false; n];
        for &b in &rpo {
            reachable[b.index()] = true;
        }

        DomTree {
            idom,
            children,
            rpo,
            pre,
            post,
            reachable,
        }
    }

    /// The immediate dominator of `b` (`None` for the entry).
    #[inline]
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Dominator-tree children of `b`.
    #[inline]
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        &self.children[b.index()]
    }

    /// Whether `a` dominates `b` (reflexive).
    #[inline]
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        self.reachable[a.index()]
            && self.reachable[b.index()]
            && self.pre[a.index()] <= self.pre[b.index()]
            && self.post[a.index()] >= self.post[b.index()]
    }

    /// Whether `a` strictly dominates `b`.
    #[inline]
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Blocks in reverse postorder (reachable only).
    #[inline]
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// Whether `b` is reachable from the entry.
    #[inline]
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.reachable[b.index()]
    }

    /// Dominator-tree preorder starting at the entry (the traversal order of
    /// SSA/SSAPRE renaming).
    pub fn preorder(&self) -> Vec<BlockId> {
        let entry = self.rpo[0];
        let mut out = Vec::with_capacity(self.rpo.len());
        let mut stack = vec![entry];
        while let Some(b) = stack.pop() {
            out.push(b);
            // push children in reverse so the first child is visited first
            for &c in self.children[b.index()].iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

fn intersect(
    idom: &[Option<BlockId>],
    rpo_num: &[usize],
    mut a: BlockId,
    mut b: BlockId,
) -> BlockId {
    while a != b {
        while rpo_num[a.index()] > rpo_num[b.index()] {
            a = idom[a.index()].expect("processed block has idom");
        }
        while rpo_num[b.index()] > rpo_num[a.index()] {
            b = idom[b.index()].expect("processed block has idom");
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_ir::{ModuleBuilder, Ty};

    /// Classic CFG from the Cooper–Harvey–Kennedy paper (Figure 2):
    /// 5 -> {4, 3}; 4 -> 1; 3 -> 2; 1 -> 2; 2 -> {1, exit-ish}
    /// We adapt: entry=b0 plays node 5.
    fn chk_example() -> specframe_ir::Module {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("chk", &[("x", Ty::I64)], None);
        {
            let mut fb = mb.define(f);
            let x = fb.param(0);
            let b4 = fb.block("n4");
            let b3 = fb.block("n3");
            let b1 = fb.block("n1");
            let b2 = fb.block("n2");
            fb.br(x.into(), b4, b3);
            fb.switch_to(b4);
            fb.jmp(b1);
            fb.switch_to(b3);
            fb.jmp(b2);
            fb.switch_to(b1);
            fb.jmp(b2);
            fb.switch_to(b2);
            fb.br(x.into(), b1, b1);
            // make b2 exit through b1? keep simple: b2 br to b1 both ways
        }
        mb.finish()
    }

    #[test]
    fn chk_idoms() {
        let m = chk_example();
        let d = DomTree::compute(&m.funcs[0]);
        // entry (n5) immediately dominates everything else
        for b in 1..5u32 {
            assert_eq!(d.idom(BlockId(b)), Some(BlockId(0)), "idom of b{b}");
        }
        assert_eq!(d.idom(BlockId(0)), None);
    }

    #[test]
    fn linear_chain_idoms() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("lin", &[], None);
        {
            let mut fb = mb.define(f);
            let b1 = fb.block("b1");
            let b2 = fb.block("b2");
            fb.jmp(b1);
            fb.switch_to(b1);
            fb.jmp(b2);
            fb.switch_to(b2);
            fb.ret(None);
        }
        let m = mb.finish();
        let d = DomTree::compute(&m.funcs[0]);
        assert_eq!(d.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(d.idom(BlockId(2)), Some(BlockId(1)));
        assert!(d.dominates(BlockId(0), BlockId(2)));
        assert!(d.strictly_dominates(BlockId(0), BlockId(2)));
        assert!(!d.dominates(BlockId(2), BlockId(1)));
        assert!(d.dominates(BlockId(1), BlockId(1)));
    }

    #[test]
    fn diamond_merge_dominated_by_fork() {
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
        let m = mb.finish();
        let d = DomTree::compute(&m.funcs[0]);
        assert_eq!(d.idom(BlockId(3)), Some(BlockId(0)));
        assert!(!d.dominates(BlockId(1), BlockId(3)));
        assert!(!d.dominates(BlockId(2), BlockId(3)));
    }

    #[test]
    fn preorder_visits_parents_first() {
        let m = chk_example();
        let d = DomTree::compute(&m.funcs[0]);
        let pre = d.preorder();
        let pos = |b: BlockId| pre.iter().position(|&x| x == b).unwrap_or(usize::MAX);
        for b in m.funcs[0].block_ids() {
            if let Some(p) = d.idom(b) {
                assert!(pos(p) < pos(b), "parent {p} before child {b}");
            }
        }
    }

    #[test]
    fn loop_idoms() {
        // entry -> head; head -> {body, exit}; body -> head
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
        let m = mb.finish();
        let d = DomTree::compute(&m.funcs[0]);
        assert_eq!(d.idom(BlockId(1)), Some(BlockId(0)));
        assert_eq!(d.idom(BlockId(2)), Some(BlockId(1)));
        assert_eq!(d.idom(BlockId(3)), Some(BlockId(1)));
    }
}
