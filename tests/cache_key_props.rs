//! Cache-key soundness properties.
//!
//! The compile cache replays a stored lowering whenever the key matches,
//! so the key must change with *everything* the pipeline's output depends
//! on — function body, optimizer configuration, the alias slice of its
//! accesses, and the alias-profile slice feeding the likeliness oracle —
//! while staying bit-stable across independently constructed modules (no
//! pointer values, no hash-map iteration order, nothing process-local may
//! reach the hash).

use proptest::prelude::*;
use specframe::core::{KeyContext, OptOptions, SpecSource};
use specframe::prelude::*;
use specframe_alias::AliasAnalysis;

/// One statement of a generated straight-line body: `x = <op> x, <operand>`.
#[derive(Debug, Clone, Copy)]
struct Step {
    op: usize,
    operand: i64,
}

// side-effect-free, total operators only: the generated bodies must
// always verify, whatever the sequence
const OPS: [&str; 8] = ["add", "sub", "mul", "and", "or", "xor", "shl", "shr"];

fn step_strategy() -> impl Strategy<Value = Step> {
    (0usize..OPS.len(), -8i64..8).prop_map(|(op, operand)| Step { op, operand })
}

fn render_body(steps: &[Step]) -> String {
    let mut s = String::new();
    for st in steps {
        s.push_str(&format!("  x = {} x, {}\n", OPS[st.op], st.operand));
    }
    s
}

/// A two-function module whose bodies are the given step sequences.
fn render_module(f_steps: &[Step], g_steps: &[Step]) -> String {
    format!(
        "func f(a: i64) -> i64 {{\n  var x: i64\nentry:\n  x = a\n{}  ret x\n}}\n\n\
         func g(a: i64) -> i64 {{\n  var x: i64\nentry:\n  x = a\n{}  ret x\n}}\n",
        render_body(f_steps),
        render_body(g_steps)
    )
}

const HEURISTIC: OptOptions<'static> = OptOptions {
    data: SpecSource::Heuristic,
    control: ControlSpec::Static,
    strength_reduction: true,
    lftr: true,
    store_sinking: false,
    target: TargetId::Epic,
};

/// Builds the module from source and derives every function's key.
fn keys_of(src: &str, opts: &OptOptions, hooks: &PipelineHooks) -> Vec<String> {
    let mut m = parse_module(src).expect("generated module parses");
    verify_module(&m).expect("generated module verifies");
    prepare_module(&mut m);
    let aa = AliasAnalysis::analyze(&m);
    let kc = KeyContext::new(&m, &aa, opts, hooks);
    (0..m.funcs.len())
        .map(|fi| kc.function_key(fi).hex())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Two independent builds of the same source produce the same keys —
    /// the in-process half of restart stability (the cross-process half
    /// is the CI serve gate, which hits across separate `specc` runs).
    #[test]
    fn key_is_stable_across_independent_builds(
        f in proptest::collection::vec(step_strategy(), 1..12),
        g in proptest::collection::vec(step_strategy(), 1..12),
    ) {
        let src = render_module(&f, &g);
        let hooks = PipelineHooks::default();
        prop_assert_eq!(
            keys_of(&src, &HEURISTIC, &hooks),
            keys_of(&src, &HEURISTIC, &hooks)
        );
    }

    /// Editing one function's body changes that function's key and ONLY
    /// that function's key: entries of untouched functions stay valid.
    #[test]
    fn body_edit_changes_only_that_functions_key(
        f in proptest::collection::vec(step_strategy(), 1..12),
        g in proptest::collection::vec(step_strategy(), 1..12),
        edit in step_strategy(),
    ) {
        let hooks = PipelineHooks::default();
        let before = keys_of(&render_module(&f, &g), &HEURISTIC, &hooks);
        let mut g2 = g.clone();
        g2.push(edit);
        let after = keys_of(&render_module(&f, &g2), &HEURISTIC, &hooks);
        prop_assert_eq!(&before[0], &after[0]);
        prop_assert_ne!(&before[1], &after[1]);
    }

    /// Every optimizer-configuration axis is a key axis.
    #[test]
    fn config_change_changes_key(
        f in proptest::collection::vec(step_strategy(), 1..12),
    ) {
        let src = render_module(&f, &f);
        let hooks = PipelineHooks::default();
        let base = keys_of(&src, &HEURISTIC, &hooks);

        let variants = [
            OptOptions { data: SpecSource::None, ..HEURISTIC },
            OptOptions { data: SpecSource::Aggressive, ..HEURISTIC },
            OptOptions { control: ControlSpec::Off, ..HEURISTIC },
            OptOptions { strength_reduction: false, ..HEURISTIC },
            OptOptions { lftr: false, ..HEURISTIC },
            OptOptions { store_sinking: true, ..HEURISTIC },
            OptOptions { target: TargetId::Swr, ..HEURISTIC },
        ];
        for v in variants.iter() {
            prop_assert_ne!(&base[0], &keys_of(&src, v, &hooks)[0]);
        }

        let hooked = PipelineHooks { verify_each: true, ..Default::default() };
        prop_assert_ne!(&base[0], &keys_of(&src, &HEURISTIC, &hooked)[0]);
        let audited = PipelineHooks { audit_spec: true, ..Default::default() };
        prop_assert_ne!(&base[0], &keys_of(&src, &HEURISTIC, &audited)[0]);
    }
}

/// The alias-profile slice is in the key: training runs that disagree
/// about what a load aliases must produce different keys, and identical
/// training runs identical ones — even though the profile lives in hash
/// maps whose iteration order the hash must never see.
#[test]
fn profile_slice_changes_key() {
    const SRC: &str = r#"
global a: i64[1] = [1]
global b: i64[1] = [2]

func leaf(sel: i64) -> i64 {
  var p: ptr
  var v: i64
entry:
  br sel, yes, no
yes:
  p = @a
  jmp go
no:
  p = @b
  jmp go
go:
  v = load.i64 [p]
  ret v
}
"#;
    let mut m = parse_module(SRC).unwrap();
    prepare_module(&mut m);
    let aa = AliasAnalysis::analyze(&m);

    let profile_for = |sel: i64| {
        let mut ap = AliasProfiler::new();
        run_with(&m, "leaf", &[Value::I(sel)], 100_000, &mut ap).unwrap();
        ap.finish()
    };
    let key_with = |p: &specframe::profile::AliasProfile| {
        let opts = OptOptions {
            data: SpecSource::Profile(p),
            ..HEURISTIC
        };
        KeyContext::new(&m, &aa, &opts, &PipelineHooks::default())
            .function_key(0)
            .hex()
    };

    let via_a = profile_for(1);
    let via_b = profile_for(0);
    let via_a_again = profile_for(1);
    assert_eq!(
        key_with(&via_a),
        key_with(&via_a_again),
        "same training run must reproduce the key"
    );
    assert_ne!(
        key_with(&via_a),
        key_with(&via_b),
        "different alias behavior must move the key"
    );
}

/// The execution target is a key axis: the oracle's profitability
/// verdicts and the machine lowering of any audited artifact both move
/// with `--target`, so an `epic` entry must never replay for `swr` —
/// the target fingerprint is hashed into every function key.
#[test]
fn target_changes_key() {
    let f = [Step { op: 0, operand: 3 }];
    let hooks = PipelineHooks::default();
    let src = render_module(&f, &f);
    let epic = keys_of(&src, &HEURISTIC, &hooks);
    let swr = keys_of(
        &src,
        &OptOptions {
            target: TargetId::Swr,
            ..HEURISTIC
        },
        &hooks,
    );
    assert_eq!(epic.len(), swr.len());
    for (e, s) in epic.iter().zip(&swr) {
        assert_ne!(e, s, "--target must move every function key");
    }
    // and the axis is stable: the same target reproduces the same keys
    assert_eq!(epic, keys_of(&src, &HEURISTIC, &hooks));
}

/// Module context is in the key: adding a global or a function signature
/// shifts every key (callee sets and global layout feed the pipeline).
#[test]
fn module_context_changes_key() {
    let f = [Step { op: 0, operand: 3 }];
    let hooks = PipelineHooks::default();
    let base = keys_of(&render_module(&f, &f), &HEURISTIC, &hooks);
    let with_global = format!("global extra: i64[4]\n\n{}", render_module(&f, &f));
    assert_ne!(base[0], keys_of(&with_global, &HEURISTIC, &hooks)[0]);
}

/// Only the whole-module machine lowering reads a global's initializer,
/// outside the cache, so an initializer edit moves no key — not even under
/// `--dump-after` every pass plus `--audit-spec`, which lower to machine
/// code inside the cached pipeline.
#[test]
fn global_initializer_edit_moves_no_key() {
    let src = include_str!("smoke/retarget-callee.ir");
    let edited = src
        .replace("a: i64[1] = [3]", "a: i64[1] = [9]")
        .replace("b: i64[1] = [5]", "b: i64[1]");
    assert_ne!(edited, src);
    let observed = PipelineHooks {
        dump_after: PassSet::all(),
        audit_spec: true,
        ..PipelineHooks::default()
    };
    for hooks in [PipelineHooks::default(), observed] {
        assert_eq!(
            keys_of(src, &HEURISTIC, &hooks),
            keys_of(&edited, &HEURISTIC, &hooks)
        );
    }
}

/// Regression: a caller edit that points `f`'s parameter at `@a` makes
/// the store through `p` alias `f`'s loads of `@a`. `f`'s body did not
/// change, but its code must (the second load may no longer reuse the
/// first), so its key must move with the pointee class of its store —
/// a key over the body and the module's globals alone replayed the stale
/// `f` and miscompiled (run result 6, reference 7).
#[test]
fn caller_retargeting_a_pointer_argument_moves_the_callees_key() {
    let w1 = include_str!("smoke/retarget-callee.ir");
    let w2 = w1.replace("call f(@b)", "call f(@a)");
    let hooks = PipelineHooks::default();
    for opts in [HEURISTIC, OptOptions::default()] {
        let (k1, k2) = (keys_of(w1, &opts, &hooks), keys_of(&w2, &opts, &hooks));
        assert_ne!(k1[0], k2[0], "f must not keep its key");
    }
}

/// Regression: HSSA dumps name virtual variables `vv<class id>`, and an
/// unused variable added to an earlier function renumbers every later
/// function's classes. With an HSSA dump requested, the later function's
/// key must move (its stored dump is stale); without one, it must not
/// (local class numbering keeps lowered code keys independent of it).
#[test]
fn class_renumbering_moves_keys_only_when_hssa_is_dumped() {
    let before = include_str!("smoke/renumber-classes.ir");
    let edited = before.replace("  var v: i64", "  var w: i64\n  var v: i64");
    let f = 1;
    let plain = PipelineHooks::default();
    let dumped = PipelineHooks {
        dump_after: PassSet::from_iter([Pass::Hssa]),
        ..PipelineHooks::default()
    };
    assert_eq!(
        keys_of(before, &HEURISTIC, &plain)[f],
        keys_of(&edited, &HEURISTIC, &plain)[f]
    );
    assert_ne!(
        keys_of(before, &HEURISTIC, &dumped)[f],
        keys_of(&edited, &HEURISTIC, &dumped)[f]
    );
}
