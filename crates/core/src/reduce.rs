//! Automatic failure reduction: a ddmin-style module shrinker.
//!
//! Given a module and a *failing predicate* — any reproducible property,
//! e.g. "the differential oracle reports a divergence" or "compilation
//! exits with a verifier error" — [`reduce_module`] searches for a much
//! smaller module on which the predicate still holds, by repeatedly
//! deleting functions, blocks and instructions and keeping every deletion
//! that preserves the failure (Zeller's delta debugging, specialized to
//! the IR's structure).
//!
//! The reducer never interprets the failure itself; the predicate is the
//! single source of truth. That is what makes it safe to wire under any
//! client — `fuzzdiff` hands it the differential oracle, `specc --reduce`
//! hands it "the compile error class reproduces" — and what makes it the
//! caller's job to ensure the predicate matches the *original* failure
//! class (a reducer steered by "anything goes wrong" happily reduces one
//! bug into a different one).
//!
//! Deletion moves, iterated to a fixpoint:
//!
//! 1. **Uncalled functions** are dropped (callee indices remapped).
//! 2. **Instructions** are deleted in halving windows over the whole
//!    module (the classic ddmin chunk schedule): windows of n/2, then
//!    n/4, … then single instructions. Registers left without a
//!    definition read as zero, so any subset deletion stays executable.
//! 3. **Conditional branches** are rewritten to unconditional jumps
//!    (each arm tried separately), which turns whole regions dead.
//! 4. **Unreachable blocks** are removed (labels remapped).
//!
//! Every candidate is checked by calling the predicate; [`ReduceStats`]
//! counts those probes so clients can report reduction effort.

use specframe_analysis::remove_unreachable_blocks;
use specframe_ir::{Inst, Module, Terminator};

/// Effort and effect counters of one [`reduce_module`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReduceStats {
    /// Predicate evaluations (each one compiles/runs a candidate).
    pub probes: u64,
    /// Instruction count of the input module.
    pub initial_insts: usize,
    /// Instruction count of the reduced module.
    pub final_insts: usize,
}

impl ReduceStats {
    /// Percentage of instructions removed (0 when the input was empty).
    pub fn shrink_percent(&self) -> f64 {
        if self.initial_insts == 0 {
            0.0
        } else {
            100.0 * (self.initial_insts - self.final_insts) as f64 / self.initial_insts as f64
        }
    }
}

/// Shrinks `m` while `failing` keeps returning `true`.
///
/// The caller must ensure `failing(m)` holds for the input; the reducer
/// only ever *keeps* candidates for which it holds, so the returned
/// module still fails, and it is never larger than the input.
pub fn reduce_module(
    m: &Module,
    failing: &mut dyn FnMut(&Module) -> bool,
) -> (Module, ReduceStats) {
    let mut cur = m.clone();
    let mut stats = ReduceStats {
        probes: 0,
        initial_insts: cur.inst_count(),
        final_insts: 0,
    };
    loop {
        let mut changed = false;
        changed |= drop_uncalled_funcs(&mut cur, failing, &mut stats);
        changed |= ddmin_insts(&mut cur, failing, &mut stats);
        changed |= simplify_branches(&mut cur, failing, &mut stats);
        changed |= drop_unreachable_blocks(&mut cur, failing, &mut stats);
        if !changed {
            break;
        }
    }
    stats.final_insts = cur.inst_count();
    (cur, stats)
}

/// One predicate probe.
fn probe(failing: &mut dyn FnMut(&Module) -> bool, stats: &mut ReduceStats, cand: &Module) -> bool {
    stats.probes += 1;
    failing(cand)
}

/// Tries to delete every function that no *other* function calls,
/// highest index first (so earlier removals don't shift later candidates).
fn drop_uncalled_funcs(
    m: &mut Module,
    failing: &mut dyn FnMut(&Module) -> bool,
    stats: &mut ReduceStats,
) -> bool {
    let mut changed = false;
    let mut fi = m.funcs.len();
    while fi > 0 {
        fi -= 1;
        if m.funcs.len() == 1 {
            break; // an empty module fails for the wrong reason
        }
        let called_elsewhere = m.funcs.iter().enumerate().any(|(j, f)| {
            j != fi
                && f.blocks.iter().any(|b| {
                    b.insts
                        .iter()
                        .any(|i| matches!(i, Inst::Call { callee, .. } if callee.index() == fi))
                })
        });
        if called_elsewhere {
            continue;
        }
        let mut cand = m.clone();
        cand.funcs.remove(fi);
        for f in &mut cand.funcs {
            for b in &mut f.blocks {
                for i in &mut b.insts {
                    if let Inst::Call { callee, .. } = i {
                        if callee.index() > fi {
                            *callee = specframe_ir::FuncId::from_index(callee.index() - 1);
                        }
                    }
                }
            }
        }
        if probe(failing, stats, &cand) {
            *m = cand;
            changed = true;
        }
    }
    changed
}

/// Every instruction's position, in module order.
fn inst_sites(m: &Module) -> Vec<(usize, usize, usize)> {
    let mut sites = Vec::new();
    for (fi, f) in m.funcs.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            for ii in 0..b.insts.len() {
                sites.push((fi, bi, ii));
            }
        }
    }
    sites
}

/// Windowed ddmin over the module's instruction list: windows of half the
/// program, quarters, … down to single instructions. A successful
/// deletion re-collects the site list and retries the same position (the
/// window now covers fresh instructions); a failed one advances.
fn ddmin_insts(
    m: &mut Module,
    failing: &mut dyn FnMut(&Module) -> bool,
    stats: &mut ReduceStats,
) -> bool {
    let mut changed = false;
    let mut chunk = (m.inst_count() / 2).max(1);
    loop {
        let mut pos = 0;
        loop {
            let sites = inst_sites(m);
            if pos >= sites.len() {
                break;
            }
            let window = &sites[pos..(pos + chunk).min(sites.len())];
            let mut cand = m.clone();
            // delete back-to-front so earlier indices stay valid
            for &(fi, bi, ii) in window.iter().rev() {
                cand.funcs[fi].blocks[bi].insts.remove(ii);
            }
            if probe(failing, stats, &cand) {
                *m = cand;
                changed = true;
                // keep pos: the window now covers the survivors
            } else {
                pos += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk = (chunk / 2).max(1);
    }
    changed
}

/// Tries to replace each conditional branch by a jump to one of its arms.
fn simplify_branches(
    m: &mut Module,
    failing: &mut dyn FnMut(&Module) -> bool,
    stats: &mut ReduceStats,
) -> bool {
    let mut changed = false;
    for fi in 0..m.funcs.len() {
        for bi in 0..m.funcs[fi].blocks.len() {
            let Terminator::Br { then_, else_, .. } = m.funcs[fi].blocks[bi].term else {
                continue;
            };
            for target in [then_, else_] {
                let mut cand = m.clone();
                cand.funcs[fi].blocks[bi].term = Terminator::Jump(target);
                if probe(failing, stats, &cand) {
                    *m = cand;
                    changed = true;
                    break;
                }
            }
        }
    }
    changed
}

/// Removes blocks unreachable from the entry (per function, one probe per
/// function that has any).
fn drop_unreachable_blocks(
    m: &mut Module,
    failing: &mut dyn FnMut(&Module) -> bool,
    stats: &mut ReduceStats,
) -> bool {
    let mut changed = false;
    for fi in 0..m.funcs.len() {
        let mut f = m.funcs[fi].clone();
        if remove_unreachable_blocks(&mut f) == 0 {
            continue;
        }
        let mut cand = m.clone();
        cand.funcs[fi] = f;
        if probe(failing, stats, &cand) {
            *m = cand;
            changed = true;
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_ir::{parse_module, verify_module, BinOp};

    /// The predicate every test uses: "some function still contains a
    /// `div`" — standing in for a real failure trigger — *and* the module
    /// still verifies (a reduction that breaks structure is a different
    /// failure class, which a real client's predicate also rejects).
    fn contains_div(m: &Module) -> bool {
        verify_module(m).is_ok()
            && m.funcs.iter().any(|f| {
                f.blocks.iter().any(|b| {
                    b.insts
                        .iter()
                        .any(|i| matches!(i, Inst::Bin { op: BinOp::Div, .. }))
                })
            })
    }

    #[test]
    fn reduces_to_the_trigger() {
        // a loop, a helper call, dead arithmetic — and one div, the
        // "failure trigger" the reducer must preserve
        let src = r#"
func helper(a: i64) -> i64 {
  var x: i64
  var y: i64
entry:
  x = add a, 1
  y = mul x, 2
  ret y
}

func kern(n: i64) -> i64 {
  var i: i64
  var c: i64
  var t: i64
  var u: i64
  var q: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  t = add i, 3
  u = call helper(t)
  q = div u, 2
  acc = add acc, q
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#;
        let m = parse_module(src).unwrap();
        assert!(contains_div(&m), "input must fail");
        let initial = m.inst_count();
        let (red, stats) = reduce_module(&m, &mut contains_div);
        assert!(contains_div(&red), "reduced module must still fail");
        assert_eq!(stats.initial_insts, initial);
        assert_eq!(stats.final_insts, red.inst_count());
        assert!(stats.probes > 0);
        // everything but the div (and the structure keeping it alive)
        // must go: 13 instructions down to 1
        assert_eq!(red.inst_count(), 1, "{stats:?}");
        assert!(stats.shrink_percent() >= 80.0, "{stats:?}");
        // the uncalled helper must have been dropped
        assert_eq!(red.funcs.len(), 1);
        // the loop must have been straightened: no conditional branches
        assert!(red.funcs[0]
            .blocks
            .iter()
            .all(|b| !matches!(b.term, Terminator::Br { .. })));
    }

    #[test]
    fn keeps_called_functions_and_remaps_callees() {
        // the trigger lives in the *callee*: the caller chain must
        // survive, the unrelated function in between must not
        let src = r#"
func unrelated(a: i64) -> i64 {
  var x: i64
entry:
  x = mul a, 7
  ret x
}

func trigger(a: i64) -> i64 {
  var q: i64
entry:
  q = div a, 3
  ret q
}

func main(n: i64) -> i64 {
  var r: i64
entry:
  r = call trigger(n)
  ret r
}
"#;
        let m = parse_module(src).unwrap();
        let keep_call = |m: &Module| -> bool {
            verify_module(m).is_ok()
                && m.func_by_name("main").is_some_and(|main| {
                    m.funcs[main.index()].blocks.iter().any(|b| {
                        b.insts.iter().any(|i| {
                            matches!(i, Inst::Call { callee, .. }
                                 if m.funcs[callee.index()].name == "trigger")
                        })
                    })
                })
                && contains_div(m)
        };
        let mut pred = keep_call;
        let (red, _) = reduce_module(&m, &mut pred);
        assert!(keep_call(&red));
        assert_eq!(red.funcs.len(), 2, "unrelated must be dropped");
        // callee index was remapped when `unrelated` (index 0) went away
        let main = red.func_by_name("main").unwrap();
        assert!(red.funcs[main.index()].blocks.iter().any(|b| b
            .insts
            .iter()
            .any(|i| matches!(i, Inst::Call { callee, .. } if callee.index() == 0))));
    }

    #[test]
    fn empty_failure_is_a_fixpoint() {
        // a predicate nothing satisfies: the reducer must return the
        // input unchanged (it only keeps candidates that still fail)
        let src = r#"
func f(a: i64) -> i64 {
  var x: i64
entry:
  x = add a, 1
  ret x
}
"#;
        let m = parse_module(src).unwrap();
        let (red, stats) = reduce_module(&m, &mut |_| false);
        assert_eq!(red.inst_count(), m.inst_count());
        assert_eq!(stats.final_insts, stats.initial_insts);
    }
}
