//! Mutation coverage for the verification stack.
//!
//! Each test seeds one corruption class from the verification contract
//! (DESIGN.md) into an otherwise-healthy artifact and asserts the
//! matching checker rejects it *with location attribution* — proving the
//! verifiers would actually catch a buggy pass, not just bless healthy
//! output. The four classes:
//!
//! 1. a dangling block target in the IR (structural verifier),
//! 2. a stale χ operand version in HSSA (HSSA checker),
//! 3. a dropped `ld.c` after optimization (speculation-safety auditor),
//! 4. a check whose address was swapped away from its advanced load's
//!    (auditor pairing rule).

use specframe::hssa::verify_hssa;
use specframe::ir::{BlockId, Inst, Operand, Terminator};
use specframe::prelude::*;

/// The shared guinea pig: a loop with a speculatively redundant load
/// (killed only by a may-aliasing store), so the heuristic config emits
/// an `ld.a`/`ld.c` pair for tests 3 and 4.
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

fn healthy() -> Module {
    let mut m = parse_module(SRC).unwrap();
    prepare_module(&mut m);
    verify_module(&m).unwrap();
    m
}

/// Optimizes with the heuristic config and returns the module plus the
/// position of its first ALAT check (`func`, `block`, `inst`).
fn optimized_with_check() -> (Module, (usize, usize, usize)) {
    let mut m = healthy();
    let stats = optimize(
        &mut m,
        &OptOptions {
            data: SpecSource::Heuristic,
            control: ControlSpec::Static,
            strength_reduction: true,
            lftr: false,
            store_sinking: false,
            target: Default::default(),
        },
    );
    assert!(stats.checks > 0, "speculation must fire: {stats:?}");
    for (fi, f) in m.funcs.iter().enumerate() {
        for (bi, b) in f.blocks.iter().enumerate() {
            for (ii, inst) in b.insts.iter().enumerate() {
                if matches!(inst, Inst::CheckLoad { .. }) {
                    return (m, (fi, bi, ii));
                }
            }
        }
    }
    panic!("no check emitted despite stats.checks > 0");
}

#[test]
fn dangling_block_target_is_caught_with_block_attribution() {
    let mut m = healthy();
    let kern = m.func_by_name("kern").unwrap();
    let f = &mut m.funcs[kern.index()];
    let nblocks = f.blocks.len();
    let bad = f
        .blocks
        .iter_mut()
        .position(|b| matches!(b.term, Terminator::Jump(_)))
        .expect("a jmp to corrupt");
    f.blocks[bad].term = Terminator::Jump(BlockId(nblocks as u32 + 7));
    let e = verify_module(&m).expect_err("dangling target must be rejected");
    let text = e.to_string();
    assert!(
        text.contains("block") || text.contains("target"),
        "message should name the bad edge: {text}"
    );
    assert!(
        e.block.is_some() && text.contains(&format!("bb={bad}")),
        "error must be anchored to the corrupted block: {text}"
    );
}

#[test]
fn stale_chi_version_is_caught_by_the_hssa_checker() {
    let m = healthy();
    let aa = AliasAnalysis::analyze(&m);
    let kern = m.func_by_name("kern").unwrap();
    let f = m.func(kern);
    let oracle = Likeliness::new(SpecSource::Heuristic);
    let mut hf = build_hssa(&m.globals, f, kern, &aa, &oracle, &FuncAnalyses::compute(f));
    verify_hssa(&hf).expect("healthy HSSA must verify");
    let b = hf
        .blocks
        .iter()
        .position(|b| b.stmts.iter().any(|s| !s.chi.is_empty()))
        .expect("the store must carry a chi");
    let st = hf.blocks[b]
        .stmts
        .iter_mut()
        .find(|s| !s.chi.is_empty())
        .unwrap();
    st.chi[0].old_ver = 1_000_000; // far past any issued version
    let e = verify_hssa(&hf).expect_err("stale chi version must be rejected");
    assert!(e.msg.contains("stale version"), "{e:?}");
    assert_eq!(
        e.block,
        Some(b),
        "error must be anchored to the chi's block"
    );
}

#[test]
fn dropped_check_is_caught_by_the_auditor() {
    let (mut m, (fi, bi, ii)) = optimized_with_check();
    m.funcs[fi].blocks[bi].insts.remove(ii);
    // the mutation is structurally invisible…
    verify_module(&m).expect("a dropped check is structurally fine");
    // …but the auditor proves the ld.a is now never validated
    let prog = lower_module(&m);
    let e = audit_program(&prog).expect_err("dropped ld.c must fail the audit");
    assert!(e.msg.contains("never validated"), "{e}");
    assert_eq!(e.func, m.funcs[fi].name, "attributed to the right function");
}

#[test]
fn swapped_check_address_is_caught_by_the_auditor() {
    let (mut m, (fi, bi, ii)) = optimized_with_check();
    let other = m.global_by_name("b").unwrap();
    match &mut m.funcs[fi].blocks[bi].insts[ii] {
        Inst::CheckLoad { base, .. } => {
            assert_ne!(*base, Operand::GlobalAddr(other), "pick a different base");
            *base = Operand::GlobalAddr(other);
        }
        _ => unreachable!("position found above"),
    }
    verify_module(&m).expect("a swapped base is structurally fine");
    let prog = lower_module(&m);
    let e = audit_program(&prog).expect_err("mismatched check address must fail the audit");
    assert!(e.msg.contains("re-executes"), "{e}");
    assert_eq!(e.func, m.funcs[fi].name, "attributed to the right function");
}
