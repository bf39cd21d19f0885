//! Regression test: functions with unreachable blocks must not blow up
//! the dense-index SSAPRE kernel.
//!
//! Unreachable blocks are never visited by the HSSA rename walk, so their
//! χ/store versions keep the `u32::MAX` "unrenamed" sentinel. The kernel's
//! scan used to insert those versions into the memory-def table — harmless
//! when the table was a hash map, but the dense table grows to its largest
//! key, so one sentinel insert tried to allocate 2³² slots (found by the
//! fuzzdiff reducer, whose instruction-ddmin probes routinely decapitate
//! loops and leave the body unreachable). The scan now skips unreachable
//! blocks, mirroring the occurrence scan, and `DenseMap::insert` rejects
//! the sentinel outright.

use specframe::prelude::*;

/// A decapitated loop — `head` jumps straight to `exit`, leaving the body
/// (an indirect store through `p`, i.e. a χ over the tracked memory
/// variable, plus a global load) unreachable — exactly the shape the
/// reducer produced.
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
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#;

#[test]
fn unreachable_store_does_not_explode_the_kernel() {
    let mut m = parse_module(DECAPITATED).expect("parse");
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
        // Completion is the test: before the fix this allocated a
        // 2³²-slot table (and now would panic on the DenseMap sentinel
        // assert). Whether the compile succeeds or degrades gracefully is
        // the pipeline's business — it must just terminate sanely.
        let mut c = m.clone();
        let _ = try_optimize_cached(
            &mut c,
            &opts,
            &PipelineConfig { jobs: 1 },
            &PipelineHooks::default(),
            None,
        );
    }
    // and the unoptimized module still runs
    prepare_module(&mut m);
    let (r, _) = run(&m, "main", &[Value::I(1), Value::I(6)], 10_000).expect("reference run");
    assert_eq!(r, Some(Value::I(4)));
}
