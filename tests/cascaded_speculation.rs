//! Cascaded data speculation — the paper's Appendix B `chk.a` scenario:
//! an indirect reference whose *address* comes from a speculative check
//! statement. Here a pointer cell is speculatively promoted, and the data
//! it points to is promoted as well; the data check's address register is
//! the pointer's promoted temporary.
//!
//! IA-64 needs `chk.a` + recovery code for this because `ld.c` cannot
//! re-run the dependent address computation. Our check model re-loads with
//! the *current* register contents, and CodeMotion orders the pointer
//! check before the dependent data check, so the inline reload subsumes
//! the recovery block (documented in `specframe-machine`). This test pins
//! that behaviour down, including the nasty case where the pointer cell
//! itself is updated mid-loop.

use specframe::prelude::*;

/// `tab[0]` holds a pointer to the current buffer; the loop loads through
/// it every iteration. Stores through `w` may alias both the pointer cell
/// and the buffer. On the training input they never do; on the
/// adversarial input the pointer cell is *retargeted* mid-run, so the
/// promoted pointer AND the promoted data are both stale at once.
const SRC: &str = r#"
global tab: ptr[1]
global buf1: i64[4] = [100, 0, 0, 0]
global buf2: i64[4] = [999, 0, 0, 0]

func kern(w: ptr, n: i64, flip: i64) -> i64 {
  var i: i64
  var c: i64
  var p: ptr
  var v: i64
  var acc: i64
  var half: i64
  var ishalf: i64
entry:
  half = div n, 2
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  p = load.ptr [@tab]
  v = load.i64 [p]
  acc = add acc, v
  store.i64 [w], acc
  ishalf = eq i, half
  ishalf = mul ishalf, flip
  br ishalf, retarget, cont
retarget:
  store.ptr [@tab], @buf2
  jmp cont
cont:
  i = add i, 1
  jmp head
exit:
  ret acc
}

func main(sel: i64, n: i64, flip: i64) -> i64 {
  var r: i64
  var w: ptr
entry:
  store.ptr [@tab], @buf1
  br sel, ua, ub
ua:
  w = @buf1
  jmp go
ub:
  w = @buf2
  jmp go
go:
  r = call kern(w, n, flip)
  ret r
}
"#;

struct Built {
    spec: Module,
}

fn build() -> Built {
    let mut m = parse_module(SRC).unwrap();
    prepare_module(&mut m);
    // train: sel = 0 takes ub (w = @buf2, never read while the pointer
    // targets buf1); flip = 0 keeps the pointer stable
    let train = [Value::I(0), Value::I(20), Value::I(0)];
    let t = specframe::profile::train(&m, "main", &train, 1_000_000, Collect::ALL).unwrap();
    let (aprof, eprof) = (t.alias.unwrap(), t.edges.unwrap());
    let mut spec = m.clone();
    optimize(
        &mut spec,
        &OptOptions {
            data: SpecSource::Profile(&aprof),
            control: ControlSpec::Profile(&eprof),
            strength_reduction: false,
            lftr: false,
            store_sinking: false,
            target: Default::default(),
        },
    );
    Built { spec }
}

fn reference(args: &[Value]) -> Option<Value> {
    let mut m = parse_module(SRC).unwrap();
    prepare_module(&mut m);
    run(&m, "main", args, 1_000_000).unwrap().0
}

#[test]
fn both_levels_get_promoted() {
    let b = build();
    let printed = specframe::ir::display::print_module(&b.spec);
    // the pointer load and the data load both become checks somewhere
    assert!(
        printed.contains("ldc.ptr") || printed.contains("ldc.i64"),
        "{printed}"
    );
    let fid = b.spec.func_by_name("kern").unwrap();
    let kern = b.spec.func(fid);
    let checks = kern
        .blocks
        .iter()
        .flat_map(|bl| bl.insts.iter())
        .filter(|i| matches!(i, specframe::ir::Inst::CheckLoad { .. }))
        .count();
    assert!(checks >= 2, "pointer and data checks expected:\n{printed}");
}

#[test]
fn stable_run_is_fast_and_correct() {
    let b = build();
    let args = [Value::I(0), Value::I(20), Value::I(0)];
    let want = reference(&args);
    let prog = lower_module(&b.spec);
    let (got, c) = run_machine(&prog, "main", &args, 1_000_000).unwrap();
    assert_eq!(got, want);
    assert_eq!(c.failed_checks, 0, "{c:?}");
    assert!(c.check_loads > 0);
}

#[test]
fn retargeted_pointer_recovers_through_cascaded_checks() {
    let b = build();
    // flip = 1: halfway through, the pointer cell is retargeted to buf2 —
    // the promoted pointer is stale, and therefore the promoted data too
    let args = [Value::I(0), Value::I(20), Value::I(1)];
    let want = reference(&args);
    let prog = lower_module(&b.spec);
    let (got, c) = run_machine(&prog, "main", &args, 1_000_000).unwrap();
    assert_eq!(got, want, "cascaded mis-speculation must stay correct");
    assert!(
        c.failed_checks > 0,
        "the retargeting store must fail at least the pointer check: {c:?}"
    );
}

#[test]
fn aliasing_w_also_recovers() {
    let b = build();
    // sel = 1 takes ua: w == buf1, so the per-iteration store really does
    // clobber the loaded data cell every iteration
    let args = [Value::I(1), Value::I(10), Value::I(0)];
    let want = reference(&args);
    let prog = lower_module(&b.spec);
    let (got, c) = run_machine(&prog, "main", &args, 1_000_000).unwrap();
    assert_eq!(got, want);
    assert!(c.failed_checks > 0, "{c:?}");
    assert!(c.mis_speculation_ratio() > 0.3, "{c:?}");
}
