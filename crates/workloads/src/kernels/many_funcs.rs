//! `many_funcs` — a wide module for driver-parallelism measurement.
//!
//! Not one of the paper's eight benchmarks: this workload exists to
//! exercise the *compiler*, not the ALAT. It contains 32 independent
//! functions, each the paper's core promotion scenario in miniature (a
//! loop-invariant load may-aliased with a store through a selected
//! pointer), so every function gives SSAPRE real work and the per-function
//! fan-out in `specframe_core::optimize` has something to fan out over.
//! `tests/parallel_determinism.rs` compiles it at `jobs=1` and `jobs=8`.
//!
//! `mode` selects the pointer targets in `main`: 0 routes every store away
//! from the loaded global (speculation always pays), 1 routes it at the
//! same cell (every check fails). Unlike `gzip`, training and measurement
//! both use mode 0 — this workload is not an input-sensitivity story, and
//! the cross-benchmark invariant "profile holds ⇒ checks never fail" must
//! keep holding for it.

use super::{parse, Scale, Workload};
use specframe_ir::Value;

/// Number of independent kernel functions in the module.
pub const FUNCS: usize = 32;

fn source(n: i64) -> String {
    let mut s = String::new();
    for j in 0..FUNCS {
        s.push_str(&format!("global d{j}: i64[1] = [{}]\n", j + 1));
        s.push_str(&format!("global e{j}: i64[1]\n"));
    }
    for j in 0..FUNCS {
        s.push_str(&format!(
            r#"
func w{j}(n: i64, p: ptr) -> i64 {{
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
  v = load.i64 [@d{j}]
  acc = add acc, v
  store.i64 [p], acc
  i = add i, 1
  jmp head
exit:
  ret acc
}}
"#
        ));
    }
    s.push_str(
        "\nfunc main(mode: i64) -> i64 {\n  var chk: i64\n  var t: i64\n  var p: ptr\nentry:\n  chk = 0\n  jmp s0\n",
    );
    for j in 0..FUNCS {
        s.push_str(&format!(
            "s{j}:\n  br mode, a{j}, b{j}\na{j}:\n  p = @d{j}\n  jmp c{j}\nb{j}:\n  p = @e{j}\n  jmp c{j}\nc{j}:\n  t = call w{j}({n}, p)\n  chk = add chk, t\n  jmp s{}\n",
            j + 1
        ));
    }
    s.push_str(&format!("s{FUNCS}:\n  ret chk\n}}\n"));
    s
}

/// Builds the workload.
pub fn build(scale: Scale) -> Workload {
    let (n, fuel) = match scale {
        Scale::Test => (40, 2_000_000),
        Scale::Reference => (400, 20_000_000),
    };
    Workload {
        name: "many_funcs",
        description: "32 independent promotion loops (selected-pointer \
                      may-alias each): compiler-parallelism stressor for \
                      the per-function driver fan-out",
        module: parse("many_funcs", &source(n)),
        entry: "main",
        train_args: vec![Value::I(0)],
        ref_args: vec![Value::I(0)],
        fuel,
    }
}
