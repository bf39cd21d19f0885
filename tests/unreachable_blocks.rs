//! Regression test: functions with unreachable blocks compile.
//!
//! HSSA rename walks the dominator tree, so a block unreachable from the
//! entry would keep the `u32::MAX` "unrenamed" placeholder on every
//! version it reads or defines: the dense-index SSAPRE kernel once tried
//! to size a 2³²-slot table from one (found by the fuzzdiff reducer, whose
//! instruction-ddmin probes routinely decapitate loops and leave the body
//! unreachable), and the HSSA verifier rejected every such function, the
//! non-speculative fallback included. `prepare_module` now drops
//! unreachable blocks before anything builds HSSA, so the pipeline never
//! sees one: the compile succeeds without a warning and the dead body is
//! gone.

use specframe::prelude::*;

/// A decapitated loop — `head` jumps straight to `exit`, leaving the body
/// (an indirect store through `p`, i.e. a χ over the tracked memory
/// variable, a register copy and two redefinitions) unreachable — the
/// shape the reducer produced.
const DECAPITATED: &str = r#"
global g0: i64[8] = [3, 1, 4, 1, 5, 9, 2, 6]
global g1: i64[8]

func main(sel: i64, n: i64) -> i64 {
  var p: ptr
  var i: i64
  var c: i64
  var acc: i64
  var t: i64
entry:
  br sel, ua, ub
ua:
  p = @g0
  jmp head
ub:
  p = @g1
  jmp head
head:
  c = lt i, n
  t = load.i64 [@g0 + 6]
  acc = add t, t
  jmp exit
body:
  store.i64 [p + 6], acc
  acc = t
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#;

#[test]
fn unreachable_store_does_not_explode_the_kernel() {
    let m = parse_module(DECAPITATED).expect("parse");
    for opts in [
        OptOptions {
            data: SpecSource::Heuristic,
            control: ControlSpec::Static,
            strength_reduction: true,
            lftr: true,
            store_sinking: true,
            target: Default::default(),
        },
        OptOptions {
            data: SpecSource::Aggressive,
            control: ControlSpec::Static,
            strength_reduction: false,
            lftr: false,
            store_sinking: false,
            target: Default::default(),
        },
        OptOptions::default(),
    ] {
        let mut c = m.clone();
        let (report, _) = try_optimize_cached(
            &mut c,
            &opts,
            &PipelineConfig { jobs: 1 },
            &PipelineHooks::default(),
            None,
        )
        .unwrap_or_else(|e| panic!("{opts:?}: {e}"));
        assert!(
            report.warnings.is_empty(),
            "{opts:?}: {:?}",
            report.warnings
        );
        let main = c.func(c.func_by_name("main").expect("main"));
        assert!(main.blocks.iter().all(|b| b.name != "body"), "{opts:?}");
        let (r, _) = run(&c, "main", &[Value::I(1), Value::I(6)], 10_000).expect("optimized run");
        assert_eq!(r, Some(Value::I(4)), "{opts:?}");
    }
}
