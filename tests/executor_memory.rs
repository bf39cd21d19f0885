//! Memory edge cases the two executors must agree on.
//!
//! The reference interpreter and the machine simulator share one memory
//! layout (`specframe_ir::Memory`): null page, globals, a fixed stack region,
//! then the heap. Each program below is run by the interpreter and, lowered,
//! by the simulator on both targets, and all three must end the same way:
//! with the same result, or faulting at the same address.

use specframe::ir::{Module, MEM_CAP, STACK_WORDS};
use specframe::machine::SimError;
use specframe::prelude::*;
use specframe::profile::InterpError;

const FUEL: u64 = 10_000;

/// How an execution ended.
#[derive(Debug, PartialEq)]
enum End {
    Ret(Option<Value>),
    Fault(i64),
}

/// Runs `main` of `src` on every executor and returns how they all ended.
fn run_everywhere(src: &str) -> End {
    let m = parse_module(src).expect("parses");
    verify_module(&m).expect("verifies");
    let want = match run(&m, "main", &[], FUEL) {
        Ok((r, _)) => End::Ret(r),
        Err(InterpError::BadAddress(a)) => End::Fault(a),
        Err(e) => panic!("interpreter: {e}"),
    };
    for target in TargetId::ALL {
        let prog = lower_module_for(&m, target.spec());
        let got = match run_machine_on(&prog, target.spec(), "main", &[], FUEL) {
            Ok((r, _)) => End::Ret(r),
            Err(SimError::BadAddress(a)) => End::Fault(a),
            Err(e) => panic!("simulator on {target:?}: {e}"),
        };
        assert_eq!(got, want, "simulator on {target:?}");
    }
    want
}

/// With no globals the stack starts at the global base and the first heap
/// object right after the stack region.
const HEAP_BASE: i64 = Module::GLOBAL_BASE + STACK_WORDS;

#[test]
fn a_returned_callees_slot_keeps_its_stale_value() {
    let src = "
func leak(v: i64) -> ptr {
  var p: ptr
  slot cell: i64[1]
entry:
  store.i64 [&cell], v
  p = &cell
  ret p
}

func main() -> i64 {
  var p: ptr
  var v: i64
entry:
  p = call leak(41)
  v = load.i64 [p]
  ret v
}";
    assert_eq!(run_everywhere(src), End::Ret(Some(Value::I(41))));
}

#[test]
fn unwritten_cells_above_the_stack_top_read_zero() {
    // one word past main's slot, deep inside the stack region, and the last
    // stack word just under the first heap object
    let src = "
func main() -> i64 {
  var p: ptr
  var h: ptr
  var a: i64
  var b: i64
  var c: i64
  slot s: i64[1]
entry:
  store.i64 [&s], 5
  p = &s
  a = load.i64 [p + 1]
  b = load.i64 [p + 1000]
  h = alloc 1
  c = load.i64 [h - 1]
  a = add a, b
  a = add a, c
  ret a
}";
    assert_eq!(run_everywhere(src), End::Ret(Some(Value::I(0))));
}

#[test]
fn unwritten_cells_of_a_fresh_object_read_zero() {
    let src = "
func main() -> i64 {
  var h: ptr
  var a: i64
  var b: i64
entry:
  h = alloc 4
  store.i64 [h + 1], 9
  a = load.i64 [h]
  b = load.i64 [h + 3]
  a = add a, b
  ret a
}";
    assert_eq!(run_everywhere(src), End::Ret(Some(Value::I(0))));
}

#[test]
fn an_access_at_the_heap_top_faults() {
    let src = "
func main() -> i64 {
  var h: ptr
  var v: i64
entry:
  h = alloc 4
  v = load.i64 [h + 3]
  v = load.i64 [h + 4]
  ret v
}";
    assert_eq!(run_everywhere(src), End::Fault(HEAP_BASE + 4));
}

#[test]
fn an_alloc_past_the_memory_cap_faults() {
    // an object may end exactly at the cap; its last word reads 0 without
    // the executors storing the words below it; one more word faults
    let fits = MEM_CAP - HEAP_BASE;
    let src = format!(
        "
func main() -> i64 {{
  var h: ptr
  var v: i64
entry:
  h = alloc {fits}
  v = load.i64 [h + {last}]
  h = alloc 1
  ret v
}}",
        last = fits - 1
    );
    assert_eq!(run_everywhere(&src), End::Fault(MEM_CAP + 1));
    let src = format!(
        "
func main() -> i64 {{
  var h: ptr
entry:
  h = alloc {MEM_CAP}
  ret 0
}}"
    );
    assert_eq!(run_everywhere(&src), End::Fault(HEAP_BASE + MEM_CAP));
}
