//! Edge profiling observer.
//!
//! Fills the shared [`EdgeProfile`] representation from an actual execution;
//! the paper's SSAPRE uses this to pick profitable merge points for control
//! speculation ("the edge profile of the program can be used to select the
//! appropriate merge points for insertion", §4.1).

use crate::grown;
use crate::observer::Observer;
use specframe_analysis::EdgeProfile;
use specframe_ir::{BlockId, FuncId};

/// Observer that counts CFG edge traversals and function entries.
///
/// Counts live in tables indexed by function and block number, so a taken
/// edge costs a scan of its block's one or two successors, not a hash;
/// [`EdgeProfiler::finish`] builds the [`EdgeProfile`].
#[derive(Debug, Default)]
pub struct EdgeProfiler {
    /// Per function (by index): how often it was entered.
    entries: Vec<u64>,
    /// Per function, per block (by index): each successor taken from the
    /// block, with its count.
    edges: Vec<Vec<Vec<(BlockId, u64)>>>,
}

impl EdgeProfiler {
    /// A fresh profiler.
    pub fn new() -> EdgeProfiler {
        EdgeProfiler::default()
    }

    /// Consumes the profiler and yields the profile.
    pub fn finish(self) -> EdgeProfile {
        let mut p = EdgeProfile::new();
        for (fi, &n) in self.entries.iter().enumerate() {
            if n > 0 {
                p.set_entry(FuncId::from_index(fi), n);
            }
        }
        for (fi, blocks) in self.edges.iter().enumerate() {
            for (bi, succs) in blocks.iter().enumerate() {
                for &(to, n) in succs {
                    p.add_edge(FuncId::from_index(fi), BlockId::from_index(bi), to, n);
                }
            }
        }
        p
    }
}

impl Observer for EdgeProfiler {
    fn on_edge(&mut self, func: FuncId, from: BlockId, to: BlockId) {
        let succs = grown(grown(&mut self.edges, func.index()), from.index());
        match succs.iter_mut().find(|(b, _)| *b == to) {
            Some((_, n)) => *n += 1,
            None => succs.push((to, 1)),
        }
    }

    fn on_entry(&mut self, func: FuncId, _invocation: u64) {
        *grown(&mut self.entries, func.index()) += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_with;
    use specframe_ir::{parse_module, Value};

    #[test]
    fn loop_edges_dominate() {
        let src = r#"
func f(n: i64) -> i64 {
  var i: i64
  var c: i64
entry:
  i = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  i = add i, 1
  jmp head
exit:
  ret i
}
"#;
        let m = parse_module(src).unwrap();
        let mut prof = EdgeProfiler::new();
        run_with(&m, "f", &[Value::I(50)], 10_000, &mut prof).unwrap();
        let p = prof.finish();
        let f = FuncId(0);
        assert_eq!(p.entry_count(f), 1);
        assert_eq!(p.edge_count(f, BlockId(1), BlockId(2)), 50);
        assert_eq!(p.edge_count(f, BlockId(1), BlockId(3)), 1);
        let prob = p
            .edge_probability(f, &m.funcs[0], BlockId(1), BlockId(2))
            .unwrap();
        assert!(prob > 0.97);
    }

    #[test]
    fn matches_static_estimate_shape() {
        // the dynamic profile and the static heuristic must agree on which
        // successor of the loop header is hot
        let src = r#"
func f(n: i64) -> i64 {
  var i: i64
  var c: i64
entry:
  i = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  i = add i, 1
  jmp head
exit:
  ret i
}
"#;
        let m = parse_module(src).unwrap();
        let mut prof = EdgeProfiler::new();
        run_with(&m, "f", &[Value::I(30)], 10_000, &mut prof).unwrap();
        let dynamic = prof.finish();
        let statics = specframe_analysis::estimate_profile(&m);
        let f = FuncId(0);
        let dyn_hot = dynamic.edge_count(f, BlockId(1), BlockId(2))
            > dynamic.edge_count(f, BlockId(1), BlockId(3));
        let stat_hot = statics.edge_count(f, BlockId(1), BlockId(2))
            > statics.edge_count(f, BlockId(1), BlockId(3));
        assert_eq!(dyn_hot, stat_hot);
    }
}
