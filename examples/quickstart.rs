//! Quickstart: the whole framework on one small program.
//!
//! A loop-invariant load of global `a` cannot be promoted to a register
//! because a store through `p` *may* alias it; the alias profile shows it
//! never does, so speculative SSAPRE promotes it anyway and guards the
//! value with an ALAT check (`ld.c`). Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use specframe::prelude::*;

const SRC: &str = r#"
global a: i64[1] = [7]
global b: i64[1]

func kern(p: ptr, n: i64) -> i64 {
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
  store.i64 [p], acc
  i = add i, 1
  jmp head
exit:
  ret acc
}

func main(sel: i64, n: i64) -> i64 {
  var r: i64
  var p: ptr
entry:
  br sel, ua, ub
ua:
  p = @a
  jmp go
ub:
  p = @b
  jmp go
go:
  r = call kern(p, n)
  ret r
}
"#;

fn main() {
    let mut m = parse_module(SRC).expect("parse");
    prepare_module(&mut m);
    let args = [Value::I(0), Value::I(1000)];

    // 1. profile the training run (here: the same input)
    let mut profiler = AliasProfiler::new();
    run_with(&m, "main", &args, 10_000_000, &mut profiler).expect("profiling run");
    let aprof = profiler.finish();

    // 2. baseline: O3-style, no data speculation
    let mut baseline = m.clone();
    optimize(
        &mut baseline,
        &OptOptions {
            data: SpecSource::None,
            control: ControlSpec::Static,
            strength_reduction: true,
            lftr: true,
            store_sinking: false,
            target: Default::default(),
        },
    );
    let (rb, cb) = run_machine(&lower_module(&baseline), "main", &args, 10_000_000).unwrap();

    // 3. speculative: alias-profile-guided data speculation
    let mut spec = m.clone();
    let stats = optimize(
        &mut spec,
        &OptOptions {
            data: SpecSource::Profile(&aprof),
            control: ControlSpec::Static,
            strength_reduction: true,
            lftr: true,
            store_sinking: false,
            target: Default::default(),
        },
    );
    let (rs, cs) = run_machine(&lower_module(&spec), "main", &args, 10_000_000).unwrap();

    assert_eq!(rb, rs, "speculation must not change the result");
    println!("result                    = {:?}", rs.unwrap());
    println!();
    println!("                     baseline   speculative");
    println!(
        "loads retired     {:>11} {:>13}",
        cb.loads_retired, cs.loads_retired
    );
    println!(
        "check loads       {:>11} {:>13}",
        cb.check_loads, cs.check_loads
    );
    println!(
        "failed checks     {:>11} {:>13}",
        cb.failed_checks, cs.failed_checks
    );
    println!("cycles            {:>11} {:>13}", cb.cycles, cs.cycles);
    println!();
    println!(
        "load reduction    = {:.1}%",
        (cb.loads_retired - cs.loads_retired) as f64 / cb.loads_retired as f64 * 100.0
    );
    println!(
        "speedup           = {:.1}%",
        (cb.cycles as f64 / cs.cycles as f64 - 1.0) * 100.0
    );
    println!();
    println!("static optimizer stats: {stats:?}");
    println!();
    println!("--- speculative kern (note ld.a / ldc) ---");
    let f = spec.func_by_name("kern").unwrap();
    let mut out = String::new();
    let names = func_name_table(&spec);
    specframe::ir::display::print_function(&mut out, &spec.globals, &names, spec.func(f));
    println!("{out}");
}
