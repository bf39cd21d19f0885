//! Simulation-based potential-load-reduction estimator (§5.3, Figure 12).
//!
//! The paper instruments every memory reference and tracks, per *equivalence
//! class* of references, whether consecutive loads to the same address
//! return the same value within one procedure invocation — each such load
//! could in principle have been kept in a register by a (speculative)
//! register promoter. Classes follow the paper's definition: references
//! with identical names (scalars/direct accesses) or identical syntax trees
//! (indirect accesses through the same base register and offset).
//!
//! The estimate is an *upper bound* oracle: it sees dynamic values, so it
//! counts reuse across aliasing stores that happened not to change the
//! value — exactly the headroom speculative promotion with `ld.c` checks
//! can chase.

use crate::observer::{MemAccess, Observer};
use specframe_ir::{FuncId, Inst, MemSiteId, Module, Operand, Value};
use std::collections::HashMap;

/// Static equivalence-class key for one memory reference site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ClassKey {
    Direct(FuncId, Operandish, i64),
    Indirect(FuncId, u32, i64),
}

/// Hash-friendly projection of base operands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Operandish {
    Global(u32),
    Slot(u32),
}

/// Result of the reuse simulation.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReuseReport {
    /// Dynamic loads observed.
    pub total_loads: u64,
    /// Loads whose value was available from the previous load of their
    /// equivalence class (same address, same value, same invocation).
    pub redundant_loads: u64,
}

impl ReuseReport {
    /// Fraction of loads that were potentially removable, in `[0, 1]`.
    pub fn ratio(&self) -> f64 {
        if self.total_loads == 0 {
            0.0
        } else {
            self.redundant_loads as f64 / self.total_loads as f64
        }
    }
}

/// Observer implementing the §5.3 simulation method.
#[derive(Debug)]
pub struct ReuseSimulator {
    site_class: HashMap<MemSiteId, u32>,
    /// Per class: (address, value, invocation) of the previous load.
    last: Vec<Option<(i64, Value, u64)>>,
    report: ReuseReport,
}

impl ReuseSimulator {
    /// Builds the static equivalence classes for `m` and a fresh simulator.
    pub fn new(m: &Module) -> ReuseSimulator {
        let mut keys: HashMap<ClassKey, u32> = HashMap::new();
        let mut site_class = HashMap::new();
        for (fi, f) in m.funcs.iter().enumerate() {
            let fid = FuncId::from_index(fi);
            for b in &f.blocks {
                for inst in &b.insts {
                    let (site, base, offset) = match inst {
                        Inst::Load {
                            site, base, offset, ..
                        }
                        | Inst::CheckLoad {
                            site, base, offset, ..
                        } => (*site, *base, *offset),
                        _ => continue,
                    };
                    let key = match base {
                        Operand::Var(v) => ClassKey::Indirect(fid, v.0, offset),
                        Operand::GlobalAddr(g) => {
                            ClassKey::Direct(fid, Operandish::Global(g.0), offset)
                        }
                        Operand::SlotAddr(s) => {
                            ClassKey::Direct(fid, Operandish::Slot(s.0), offset)
                        }
                        _ => continue,
                    };
                    let next = keys.len() as u32;
                    let class = *keys.entry(key).or_insert(next);
                    site_class.insert(site, class);
                }
            }
        }
        let n = keys.len();
        ReuseSimulator {
            site_class,
            last: vec![None; n],
            report: ReuseReport::default(),
        }
    }

    /// The report accumulated so far.
    pub fn report(&self) -> ReuseReport {
        self.report
    }
}

impl Observer for ReuseSimulator {
    fn on_mem(&mut self, a: &MemAccess<'_>) {
        if !a.is_load {
            return;
        }
        self.report.total_loads += 1;
        let Some(&class) = self.site_class.get(&a.site) else {
            return;
        };
        let slot = &mut self.last[class as usize];
        if let Some((addr, value, inv)) = slot {
            if *addr == a.addr && value.bits_eq(a.value) && *inv == a.invocation {
                self.report.redundant_loads += 1;
            }
        }
        *slot = Some((a.addr, a.value, a.invocation));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_with;
    use specframe_ir::parse_module;

    #[test]
    fn loop_invariant_load_is_reusable() {
        // v[i] pattern where the load address and value never change:
        // every iteration after the first is a potential reuse
        let src = r#"
global a: i64[1] = [42]

func f(n: i64) -> i64 {
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
  v = load.i64 [@a]
  acc = add acc, v
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#;
        let m = parse_module(src).unwrap();
        let mut sim = ReuseSimulator::new(&m);
        run_with(&m, "f", &[Value::I(10)], 10_000, &mut sim).unwrap();
        let r = sim.report();
        assert_eq!(r.total_loads, 10);
        assert_eq!(r.redundant_loads, 9);
        assert!((r.ratio() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn value_change_breaks_reuse() {
        let src = r#"
global a: i64[1]

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
  v = load.i64 [@a]
  v = add v, 1
  store.i64 [@a], v
  i = add i, 1
  jmp head
exit:
  ret i
}
"#;
        let m = parse_module(src).unwrap();
        let mut sim = ReuseSimulator::new(&m);
        run_with(&m, "f", &[Value::I(10)], 10_000, &mut sim).unwrap();
        let r = sim.report();
        assert_eq!(r.total_loads, 10);
        assert_eq!(r.redundant_loads, 0);
    }

    #[test]
    fn silent_store_keeps_reuse_visible() {
        // a store that rewrites the same value does NOT break value-based
        // reuse — this is precisely the headroom data speculation exposes
        let src = r#"
global a: i64[1] = [5]

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
  v = load.i64 [@a]
  store.i64 [@a], 5
  i = add i, 1
  jmp head
exit:
  ret i
}
"#;
        let m = parse_module(src).unwrap();
        let mut sim = ReuseSimulator::new(&m);
        run_with(&m, "f", &[Value::I(8)], 10_000, &mut sim).unwrap();
        let r = sim.report();
        assert_eq!(r.redundant_loads, 7);
    }

    #[test]
    fn different_sites_same_syntax_share_class() {
        // two textual loads of [@a] are the same "syntax tree": the second
        // load in each iteration reuses the first
        let src = r#"
global a: i64[1] = [3]

func f() -> i64 {
  var x: i64
  var y: i64
entry:
  x = load.i64 [@a]
  y = load.i64 [@a]
  x = add x, y
  ret x
}
"#;
        let m = parse_module(src).unwrap();
        let mut sim = ReuseSimulator::new(&m);
        run_with(&m, "f", &[], 1000, &mut sim).unwrap();
        let r = sim.report();
        assert_eq!(r.total_loads, 2);
        assert_eq!(r.redundant_loads, 1);
    }

    #[test]
    fn reuse_does_not_cross_invocations() {
        let src = r#"
global a: i64[1] = [3]

func g() -> i64 {
  var x: i64
entry:
  x = load.i64 [@a]
  ret x
}

func f() -> i64 {
  var x: i64
  var y: i64
entry:
  x = call g()
  y = call g()
  x = add x, y
  ret x
}
"#;
        let m = parse_module(src).unwrap();
        let mut sim = ReuseSimulator::new(&m);
        run_with(&m, "f", &[], 1000, &mut sim).unwrap();
        let r = sim.report();
        assert_eq!(r.total_loads, 2);
        // same site, same address, same value — but different invocations
        assert_eq!(r.redundant_loads, 0);
    }
}
