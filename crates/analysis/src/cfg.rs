//! CFG traversal orders and edge utilities.

use specframe_ir::{Block, BlockId, Function, Terminator};

/// Blocks reachable from the entry, as a membership vector indexed by block.
pub fn reachable_blocks(f: &Function) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    let mut stack = vec![f.entry()];
    seen[f.entry().index()] = true;
    while let Some(b) = stack.pop() {
        for s in f.block(b).term.successors() {
            if !seen[s.index()] {
                seen[s.index()] = true;
                stack.push(s);
            }
        }
    }
    seen
}

/// Blocks that lie on a CFG cycle, as a membership vector indexed by
/// block: the members of every strongly connected component of two or
/// more blocks, and every block that branches to itself. Irreducible
/// cycles count, which natural-loop depth misses.
pub fn cyclic_blocks(f: &Function) -> Vec<bool> {
    // iterative Tarjan: `index` is the DFS preorder number (u32::MAX =
    // unvisited), `low` the smallest index reachable through the subtree
    // and one edge back into a block still on `open`
    let n = f.blocks.len();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_open = vec![false; n];
    let mut open: Vec<usize> = Vec::new();
    let mut cyclic = vec![false; n];
    // DFS frames: a block and the position of its next successor
    let mut frames: Vec<(usize, usize)> = Vec::new();
    let mut next = 0u32;
    for root in 0..n {
        if index[root] != u32::MAX {
            continue;
        }
        frames.push((root, 0));
        while let Some(&(b, i)) = frames.last() {
            if index[b] == u32::MAX {
                // first visit
                index[b] = next;
                low[b] = next;
                next += 1;
                open.push(b);
                on_open[b] = true;
            }
            let succ = match (&f.blocks[b].term, i) {
                (Terminator::Jump(s), 0) | (Terminator::Br { then_: s, .. }, 0) => Some(*s),
                (Terminator::Br { else_: s, .. }, 1) => Some(*s),
                _ => None,
            };
            if let Some(s) = succ {
                frames.last_mut().expect("a frame is open").1 += 1;
                let s = s.index();
                cyclic[b] |= s == b;
                if index[s] == u32::MAX {
                    frames.push((s, 0));
                } else if on_open[s] {
                    low[b] = low[b].min(index[s]);
                }
                continue;
            }
            frames.pop();
            if let Some(&(parent, _)) = frames.last() {
                low[parent] = low[parent].min(low[b]);
            }
            if low[b] == index[b] {
                // `b` roots a component: everything above it on `open`
                let at = open.iter().rposition(|&x| x == b).expect("b is open");
                let many = open.len() - at > 1;
                for x in open.drain(at..) {
                    on_open[x] = false;
                    cyclic[x] |= many;
                }
            }
        }
    }
    cyclic
}

/// Deletes every block unreachable from the entry and returns how many
/// went. The survivors keep their names and relative order, so the entry
/// stays block 0, and every successor is remapped to its new index.
pub fn remove_unreachable_blocks(f: &mut Function) -> usize {
    let reachable = reachable_blocks(f);
    if reachable.iter().all(|&r| r) {
        return 0;
    }
    // a survivor's new index is the number of survivors before it
    let mut remap = Vec::with_capacity(reachable.len());
    let mut kept = 0;
    for &r in &reachable {
        remap.push(BlockId::from_index(kept));
        kept += usize::from(r);
    }
    let mut keep = reachable.iter();
    f.blocks
        .retain(|_| *keep.next().expect("one flag per block"));
    for b in &mut f.blocks {
        b.term.map_successors(|t| *t = remap[t.index()]);
    }
    reachable.len() - kept
}

/// Reverse postorder over reachable blocks, starting at the entry.
///
/// This is the iteration order for forward dataflow and the block order the
/// dominator computation requires.
pub fn reverse_postorder(f: &Function) -> Vec<BlockId> {
    let mut post = Vec::with_capacity(f.blocks.len());
    let mut state = vec![0u8; f.blocks.len()]; // 0 unvisited, 1 open, 2 done
                                               // iterative DFS with explicit successor cursor
    let mut stack: Vec<(BlockId, usize)> = vec![(f.entry(), 0)];
    state[f.entry().index()] = 1;
    while let Some(&mut (b, ref mut cursor)) = stack.last_mut() {
        let succs = f.block(b).term.successors();
        if *cursor < succs.len() {
            let s = succs[*cursor];
            *cursor += 1;
            if state[s.index()] == 0 {
                state[s.index()] = 1;
                stack.push((s, 0));
            }
        } else {
            state[b.index()] = 2;
            post.push(b);
            stack.pop();
        }
    }
    post.reverse();
    post
}

/// Splits every critical edge (edge from a block with multiple successors to
/// a block with multiple predecessors) by inserting an empty forwarding
/// block. Returns the number of edges split.
///
/// SSAPRE inserts computations *on edges* (at Φ operands); splitting makes
/// every insertion point a block of its own, and out-of-SSA φ lowering needs
/// it for the same reason.
pub fn split_critical_edges(f: &mut Function) -> usize {
    let preds = f.predecessors();
    let mut to_split: Vec<(BlockId, BlockId)> = Vec::new();
    for b in f.block_ids() {
        let succs = f.block(b).term.successors();
        if succs.len() <= 1 {
            continue;
        }
        for s in succs {
            if preds[s.index()].len() > 1 {
                to_split.push((b, s));
            }
        }
    }
    for &(from, to) in &to_split {
        let mid = BlockId::from_index(f.blocks.len());
        f.blocks.push(Block {
            name: format!(
                "crit_{}_{}",
                f.blocks[from.index()].name,
                f.blocks[to.index()].name
            ),
            insts: Vec::new(),
            term: Terminator::Jump(to),
        });
        f.block_mut(from).term.map_successors(|t| {
            if *t == to {
                *t = mid;
            }
        });
    }
    to_split.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_ir::{ModuleBuilder, Operand, Ty};

    /// entry -> (a | b); a -> c; b -> c; c -> ret
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
    fn rpo_starts_at_entry_and_covers_reachable() {
        let m = diamond();
        let rpo = reverse_postorder(&m.funcs[0]);
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], m.funcs[0].entry());
        // c must come after both a and b
        let pos = |b: BlockId| rpo.iter().position(|&x| x == b).unwrap();
        assert!(pos(BlockId(3)) > pos(BlockId(1)));
        assert!(pos(BlockId(3)) > pos(BlockId(2)));
    }

    #[test]
    fn unreachable_blocks_excluded() {
        let mut m = diamond();
        let dead = m.funcs[0].new_block("dead");
        m.funcs[0].block_mut(dead).term = Terminator::Ret(None);
        let rpo = reverse_postorder(&m.funcs[0]);
        assert_eq!(rpo.len(), 4);
        let reach = reachable_blocks(&m.funcs[0]);
        assert!(!reach[dead.index()]);
    }

    #[test]
    fn cyclic_blocks_count_irreducible_cycles_and_self_loops() {
        // in `f`, `a` and `b` form a cycle in which neither block
        // dominates the other, so it has no natural loop; in `g`, `own`
        // branches to itself
        let m = specframe_ir::parse_module(
            r#"
func f(n: i64) -> i64 {
entry:
  br n, a, b
a:
  br n, b, done
b:
  jmp a
done:
  ret n
}

func g(n: i64) -> i64 {
entry:
  jmp own
own:
  br n, own, done
done:
  ret n
}
"#,
        )
        .unwrap();
        let f = &m.funcs[0];
        assert_eq!(cyclic_blocks(f), [false, true, true, false]);
        let loops = crate::LoopInfo::compute(f, &crate::DomTree::compute(f));
        assert_eq!((loops.depth(BlockId(1)), loops.depth(BlockId(2))), (0, 0));
        assert_eq!(cyclic_blocks(&m.funcs[1]), [false, true, false]);
        assert_eq!(cyclic_blocks(&diamond().funcs[0]), [false; 4]);
    }

    #[test]
    fn unreachable_blocks_removed_and_successors_remapped() {
        // `dead1` jumps back into the live loop header; `dead2` reaches
        // only `dead1`
        let mut m = specframe_ir::parse_module(
            r#"
func f(n: i64) -> i64 {
  var i: i64
  var c: i64
entry:
  i = 0
  jmp head
dead1:
  i = add i, 2
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  i = add i, 1
  jmp head
dead2:
  jmp dead1
exit:
  ret i
}
"#,
        )
        .unwrap();
        let f = &mut m.funcs[0];
        assert_eq!(remove_unreachable_blocks(f), 2);
        let names: Vec<&str> = f.blocks.iter().map(|b| b.name.as_str()).collect();
        assert_eq!(names, ["entry", "head", "body", "exit"]);
        let succs: Vec<Vec<BlockId>> = f.blocks.iter().map(|b| b.term.successors()).collect();
        let [head, body, exit] = [1, 2, 3].map(BlockId);
        assert_eq!(succs, [vec![head], vec![body, exit], vec![head], vec![]]);
        assert_eq!(remove_unreachable_blocks(f), 0);
        specframe_ir::verify_module(&m).unwrap();
        assert_eq!(remove_unreachable_blocks(&mut diamond().funcs[0]), 0);
    }

    #[test]
    fn critical_edge_split() {
        // entry -br-> (merge | side); side -> merge: edge entry->merge is critical
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("t", &[("x", Ty::I64)], None);
        {
            let mut fb = mb.define(f);
            let x = fb.param(0);
            let merge = fb.block("merge");
            let side = fb.block("side");
            fb.br(x.into(), merge, side);
            fb.switch_to(side);
            fb.jmp(merge);
            fb.switch_to(merge);
            fb.ret(None);
        }
        let mut m = mb.finish();
        let n = split_critical_edges(&mut m.funcs[0]);
        assert_eq!(n, 1);
        // the branch no longer targets merge directly
        let Terminator::Br { then_, .. } = m.funcs[0].blocks[0].term.clone() else {
            panic!()
        };
        assert_ne!(then_, BlockId(1));
        assert!(matches!(
            m.funcs[0].block(then_).term,
            Terminator::Jump(b) if b == BlockId(1)
        ));
        // splitting again is a no-op
        assert_eq!(split_critical_edges(&mut m.funcs[0]), 0);
        specframe_ir::verify_module(&m).unwrap();
    }

    #[test]
    fn branch_with_const_cond_still_splits() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("t", &[], None);
        {
            let mut fb = mb.define(f);
            let a = fb.block("a");
            let b = fb.block("b");
            fb.br(Operand::ConstI(1), a, b);
            fb.switch_to(a);
            fb.jmp(b);
            fb.switch_to(b);
            fb.ret(None);
        }
        let mut m = mb.finish();
        assert_eq!(split_critical_edges(&mut m.funcs[0]), 1);
    }
}
