//! The speculative SSA form itself — the paper's Example 1 (§3.1).
//!
//! `*p` may alias both `a` and `b`; the profile observes that only `b` is
//! ever touched. In the speculative SSA form the χ over `b` is flagged
//! (`chi_s`, must be honoured) while the χ over `a` stays a *speculative
//! weak update* (plain `chi`, ignorable under a run-time check).
//!
//! ```text
//! cargo run --example speculative_ssa
//! ```

use specframe::prelude::*;

const SRC: &str = r#"
global a: i64[1]
global b: i64[1]

func ex1(p: ptr) -> i64 {
  var x: i64
  var y: i64
entry:
  store.i64 [@a], 1
  store.i64 [@b], 2
  store.i64 [p], 4
  x = load.i64 [@a]
  store.i64 [@a], 4
  y = load.i64 [p]
  ret y
}

func main(sel: i64) -> i64 {
  var q: ptr
  var r: i64
entry:
  br sel, ua, ub
ua:
  q = @a
  jmp go
ub:
  q = @b
  jmp go
go:
  r = call ex1(q)
  ret r
}
"#;

fn main() {
    let m = parse_module(SRC).expect("parse");
    let aa = AliasAnalysis::analyze(&m);
    let names = func_name_table(&m);
    let fid = m.func_by_name("ex1").unwrap();
    let f = m.func(fid);
    let fa = FuncAnalyses::compute(f);
    let dump = |source: SpecSource<'_>| {
        let hf = build_hssa(&m.globals, f, fid, &aa, &Likeliness::new(source), &fa);
        print_hssa(&m.globals, &names, f, &hf)
    };

    println!("=== traditional HSSA (every chi/mu flagged — Example 1(a)) ===\n");
    println!("{}", dump(SpecSource::None));

    // profile with p == &b: the alias with `a` never materializes
    let mut profiler = AliasProfiler::new();
    run_with(&m, "main", &[Value::I(0)], 100_000, &mut profiler).unwrap();
    let aprof = profiler.finish();

    println!("=== speculative SSA (profile: p -> b only — Example 1(b)) ===\n");
    println!("{}", dump(SpecSource::Profile(&aprof)));
    println!("note: the store through p now carries chi_s over b and vv,");
    println!("      but only a weak chi over a — the speculative weak update");
    println!("      the paper's extended SSAPRE may ignore.");
}
