//! Store promotion: sinking loop-invariant direct stores.
//!
//! The paper builds its register promotion on Lo et al. (PLDI '98), which
//! promotes *loads and stores*; §5 evaluates the load side (speculative
//! promotion via `ld.c`). This module implements the store side for the
//! store-only pattern — the accumulator-spill idiom:
//!
//! ```text
//! loop {                          r = load g      // preheader
//!   ...                           loop {
//!   store g, acc          ==>       ...
//! }                                 r = acc       // register move
//!                                 }
//!                                 store g, r      // every loop exit
//! ```
//!
//! Restrictions (all checked, keeping the transformation *non-speculative*
//! — there is no "check store" instruction on IA-64, so a mis-speculated
//! store sink would be unrecoverable):
//!
//! * the location is a direct `global/slot + const` cell;
//! * the loop contains **no** loads of the location and **no** statement
//!   with any χ or μ over it other than the candidate stores themselves
//!   (no aliasing indirect access, no call that may read or write it);
//! * the loop has a single latch and a unique preheader (as in
//!   [`crate::strength`]).
//!
//! The carried value lives in a *collapsed* register (every definition is
//! "the current value of the cell"), so no φ plumbing is needed and the
//! preheader's initializing load covers the zero-trip case: if the loop
//! body never runs, the exit stores write back the original value. The
//! exit stores read the register's version 0, the register itself, which
//! keeps the in-loop moves live through the cleanup's dead-code sweep.
//!
//! This pass runs none of the six SSAPRE steps: loop recognition comes
//! from the kernel's [`reducible_loops`], and it edits the speculative SSA
//! form in place.

use crate::prekernel::reducible_loops;
use crate::stats::OptStats;
use specframe_analysis::FuncAnalyses;
use specframe_hssa::{HOperand, HStmt, HStmtKind, HVarId, HssaFunc, FRESH_SITE};
use specframe_ir::FxHashSet;
use specframe_ir::{BlockId, LoadSpec};

/// Whether `stmt`, which is not a direct store to the cell `mv`, touches
/// the cell: an in-loop read of it, or any χ or μ over it (an aliasing
/// indirect access or a call). Any such touch kills the promotion. There
/// is no "check store" on IA-64, so a mis-speculated store sink would be
/// unrecoverable: the query is exact, not oracle-refined.
fn touches_cell(stmt: &HStmt, mv: HVarId) -> bool {
    matches!(
        &stmt.kind,
        HStmtKind::Load { dvar: Some((id, _)), .. }
        | HStmtKind::CheckLoad { dvar: Some((id, _)), .. } if *id == mv
    ) || stmt.chi.iter().any(|c| c.var == mv)
        || stmt.mu.iter().any(|m| m.var == mv)
}

/// Runs store sinking over every loop of `hf`, using the function's cached
/// CFG analyses. Returns the number of in-loop stores removed, which is 0
/// only when `hf` was left untouched (the driver then skips the cleanup of
/// a form that is already clean).
pub fn sink_stores_hssa(hf: &mut HssaFunc, stats: &mut OptStats, fa: &FuncAnalyses) -> usize {
    let mut sunk_total = 0;

    for shape in reducible_loops(hf, fa) {
        let preheader = shape.preheader;
        let body: FxHashSet<BlockId> = shape.body.iter().copied().collect();

        // candidate memory variables: direct-store targets inside the loop
        let mut cands: Vec<HVarId> = Vec::new();
        for &b in &shape.body {
            for stmt in &hf.blocks[b.index()].stmts {
                if let HStmtKind::Store {
                    dvar_def: Some((id, _)),
                    ..
                } = &stmt.kind
                {
                    if !cands.contains(id) {
                        cands.push(*id);
                    }
                }
            }
        }

        'cand: for mv in cands {
            // occurrence harvest + kill scan: reject any in-loop read or
            // aliasing touch of mv
            let mut stores: Vec<(BlockId, usize)> = Vec::new();
            // the cell's address and type, from its last in-loop store
            let mut cell = None;
            for &b in &shape.body {
                for (si, stmt) in hf.blocks[b.index()].stmts.iter().enumerate() {
                    match &stmt.kind {
                        HStmtKind::Store {
                            dvar_def: Some((id, _)),
                            base,
                            offset,
                            ty,
                            ..
                        } if *id == mv => {
                            cell = Some((*base, *offset, *ty));
                            stores.push((b, si));
                        }
                        _ if touches_cell(stmt, mv) => continue 'cand,
                        _ => {}
                    }
                }
            }
            let Some((base, offset, ty)) = cell else {
                continue;
            };
            // indirect loads of the same class inside the loop read through
            // the virtual variable; if any in-loop statement mu's a vvar
            // that this location's class feeds, the scan above already saw a
            // chi from our stores on that vvar paired with the mu — be
            // conservative: require our stores to chi nothing but mv
            for &(b, si) in &stores {
                if hf.blocks[b.index()].stmts[si]
                    .chi
                    .iter()
                    .any(|c| c.var != mv)
                {
                    // some vvar may observe this cell; only safe if no
                    // in-loop mu on that vvar — already rejected above for
                    // mv, but vvar reads alias the cell too
                    let vvars: Vec<HVarId> = hf.blocks[b.index()].stmts[si]
                        .chi
                        .iter()
                        .map(|c| c.var)
                        .filter(|v| *v != mv)
                        .collect();
                    for &bb in &shape.body {
                        for stmt in &hf.blocks[bb.index()].stmts {
                            if stmt.mu.iter().any(|m| vvars.contains(&m.var)) {
                                continue 'cand;
                            }
                        }
                    }
                }
            }

            // exit edges: in-loop blocks with a successor outside the body
            let mut exit_points: Vec<BlockId> = Vec::new();
            for &b in &shape.body {
                let succs = hf.blocks[b.index()]
                    .term
                    .as_ref()
                    .map(|t| t.successors())
                    .unwrap_or_default();
                for s in succs {
                    if !body.contains(&s) {
                        // after critical-edge splitting either the exit
                        // target has only in-loop predecessors, or it is a
                        // dedicated (single-pred) split block
                        if hf.preds[s.index()].iter().any(|p| !body.contains(p)) {
                            continue 'cand; // unsplit critical exit: skip
                        }
                        if !exit_points.contains(&s) {
                            exit_points.push(s);
                        }
                    }
                }
            }
            if exit_points.is_empty() {
                continue; // infinite loop: nothing to sink to
            }

            // ---- transform. Versions are allocated in scan order (rv0 →
            // per-store rv → per-exit mver), which the printed SSA form
            // pins; the next candidate's legality scan reads the edited
            // statements.
            let r = hf.add_temp(format!("stp{}", stats.temps), ty);
            stats.temps += 1;
            hf.collapsed_vars.push(r);

            // preheader: r = load cell (covers the zero-trip case)
            let rv0 = hf.fresh_ver_of_reg(r);
            hf.blocks[preheader.index()]
                .stmts
                .push(HStmt::new(HStmtKind::Load {
                    dst: (r, rv0),
                    base,
                    offset,
                    ty,
                    spec: LoadSpec::Normal,
                    site: FRESH_SITE,
                    dvar: Some((mv, 0)),
                }));

            // in-loop stores become register moves
            for &(b, si) in &stores {
                let rv = hf.fresh_ver_of_reg(r);
                let stmt = &mut hf.blocks[b.index()].stmts[si];
                let HStmtKind::Store { val, .. } = stmt.kind else {
                    unreachable!()
                };
                *stmt = HStmt::new(HStmtKind::Copy {
                    dst: (r, rv),
                    src: val,
                });
                sunk_total += 1;
                stats.stores_sunk += 1;
            }

            // exit blocks: store the carried value back
            for &e in &exit_points {
                let mver = hf.fresh_ver(mv);
                hf.blocks[e.index()].stmts.insert(
                    0,
                    HStmt::new(HStmtKind::Store {
                        base,
                        offset,
                        val: HOperand::Reg(r, 0),
                        ty,
                        site: FRESH_SITE,
                        dvar_def: Some((mv, mver)),
                    }),
                );
            }
        }
    }
    sunk_total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OptStats;
    use specframe_ir::{parse_module, Value};
    use specframe_profile::run;

    fn sink(src: &str) -> (specframe_ir::Module, OptStats) {
        let mut m = parse_module(src).unwrap();
        crate::driver::prepare_module(&mut m);
        let mut stats = OptStats::default();
        crate::testutil::rewrite_functions(&mut m, |hf, fa| {
            sink_stores_hssa(hf, &mut stats, fa);
        });
        specframe_ir::verify_module(&m).unwrap();
        (m, stats)
    }

    const ACCUM: &str = r#"
global g: i64[1] = [100]

func f(n: i64) -> i64 {
  var i: i64
  var c: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  acc = add acc, i
  store.i64 [@g], acc
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#;

    #[test]
    fn sinks_accumulator_store() {
        let m0 = parse_module(ACCUM).unwrap();
        let (want, s0) = run(&m0, "f", &[Value::I(10)], 100_000).unwrap();
        let (m, stats) = sink(ACCUM);
        assert_eq!(stats.stores_sunk, 1, "{stats:?}");
        let (got, s1) = run(&m, "f", &[Value::I(10)], 100_000).unwrap();
        assert_eq!(got, want);
        assert!(
            s1.stores < s0.stores,
            "stores must drop: {} -> {}",
            s0.stores,
            s1.stores
        );
        // memory end state must match: g holds the last accumulator value
        let mut it0 = specframe_profile::Interpreter::new(&m0, 100_000);
        it0.call(
            m0.func_by_name("f").unwrap(),
            &[Value::I(10)],
            &mut specframe_profile::NullObserver,
        )
        .unwrap();
        let mut it1 = specframe_profile::Interpreter::new(&m, 100_000);
        it1.call(
            m.func_by_name("f").unwrap(),
            &[Value::I(10)],
            &mut specframe_profile::NullObserver,
        )
        .unwrap();
        let addr = specframe_ir::Module::GLOBAL_BASE;
        assert_eq!(it0.peek(addr), it1.peek(addr), "final memory must match");
    }

    #[test]
    fn zero_trip_loop_preserves_memory() {
        let m0 = parse_module(ACCUM).unwrap();
        let (m, _) = sink(ACCUM);
        // n = 0: the loop never runs; g must keep its initial 100
        run(&m0, "f", &[Value::I(0)], 100_000).unwrap();
        let mut it = specframe_profile::Interpreter::new(&m, 100_000);
        it.call(
            m.func_by_name("f").unwrap(),
            &[Value::I(0)],
            &mut specframe_profile::NullObserver,
        )
        .unwrap();
        assert_eq!(
            it.peek(specframe_ir::Module::GLOBAL_BASE),
            Value::I(100),
            "zero-trip loop must not clobber g"
        );
    }

    #[test]
    fn in_loop_read_blocks_sinking() {
        let src = r#"
global g: i64[1]

func f(n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
entry:
  i = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@g]
  v = add v, 1
  store.i64 [@g], v
  i = add i, 1
  jmp head
exit:
  v = load.i64 [@g]
  ret v
}
"#;
        let (_, stats) = sink(src);
        assert_eq!(stats.stores_sunk, 0, "read-modify-write must not sink");
    }

    #[test]
    fn aliasing_indirect_load_blocks_sinking() {
        let src = r#"
global g: i64[1]

func f(p: ptr, n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  store.i64 [@g], i
  v = load.i64 [p]
  acc = add acc, v
  i = add i, 1
  jmp head
exit:
  ret acc
}

func main(n: i64) -> i64 {
  var r: i64
entry:
  r = call f(@g, n)
  ret r
}
"#;
        let (_, stats) = sink(src);
        assert_eq!(
            stats.stores_sunk, 0,
            "a may-aliasing in-loop read must block sinking"
        );
    }

    #[test]
    fn call_in_loop_blocks_sinking() {
        let src = r#"
global g: i64[1]

func peek() -> i64 {
  var v: i64
entry:
  v = load.i64 [@g]
  ret v
}

func f(n: i64) -> i64 {
  var i: i64
  var c: i64
  var acc: i64
  var v: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  store.i64 [@g], i
  v = call peek()
  acc = add acc, v
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#;
        let (_, stats) = sink(src);
        assert_eq!(stats.stores_sunk, 0, "a call reading g must block sinking");
    }

    #[test]
    fn conditional_store_still_sinks_safely() {
        let src = r#"
global g: i64[1] = [7]

func f(n: i64) -> i64 {
  var i: i64
  var c: i64
  var cc: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  acc = add acc, i
  cc = mod i, 2
  br cc, odd, even
odd:
  store.i64 [@g], acc
  jmp latch
even:
  jmp latch
latch:
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#;
        let m0 = parse_module(src).unwrap();
        let (want, _) = run(&m0, "f", &[Value::I(9)], 100_000).unwrap();
        let (m, stats) = sink(src);
        assert_eq!(stats.stores_sunk, 1);
        let (got, _) = run(&m, "f", &[Value::I(9)], 100_000).unwrap();
        assert_eq!(got, want);
        // final memory: last odd i was 7 -> acc after i=7 is 0+..+7=28
        let mut it = specframe_profile::Interpreter::new(&m, 100_000);
        it.call(
            m.func_by_name("f").unwrap(),
            &[Value::I(9)],
            &mut specframe_profile::NullObserver,
        )
        .unwrap();
        let mut it0 = specframe_profile::Interpreter::new(&m0, 100_000);
        it0.call(
            m0.func_by_name("f").unwrap(),
            &[Value::I(9)],
            &mut specframe_profile::NullObserver,
        )
        .unwrap();
        assert_eq!(
            it.peek(specframe_ir::Module::GLOBAL_BASE),
            it0.peek(specframe_ir::Module::GLOBAL_BASE)
        );
    }
}
