//! Property test: speculation never changes semantics.
//!
//! Random loop programs with may-aliased memory traffic are pushed through
//! every optimizer configuration; both the reference interpreter and the
//! EPIC machine must compute exactly the result of the unoptimized
//! program — on the training input *and* on the adversarial input where
//! the profiled assumptions are false (the checks must recover).

use proptest::prelude::*;
use specframe::prelude::*;

/// One statement template of the generated loop body.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// `acc += g0[k]`
    LoadG0(u8),
    /// `g0[k] = acc` (source of kills for LoadG0)
    StoreG0(u8),
    /// `x = p[k]; acc += x` — p is the selected pointer (may-alias!)
    LoadP(u8),
    /// `p[k] = acc`
    StoreP(u8),
    /// `acc += f2i(f0[k])` (float traffic for TBAA + fp latency paths)
    LoadF(u8),
    /// `f0[k] = i2f(acc)`
    StoreF(u8),
    /// `acc = acc + c`
    AddC(i8),
    /// `acc += i * c` (strength-reduction candidate)
    MulIv(u8),
    /// a diamond inside the loop body: `if (i % 2) acc += g0[k] else p[k] = acc`
    /// — exercises Φ insertion, control speculation and φ lowering
    Diamond(u8),
    /// a call to a helper that reads g0 (call χ/μ lists + mod/ref)
    CallHelper,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..8).prop_map(Step::LoadG0),
        (0u8..8).prop_map(Step::StoreG0),
        (0u8..8).prop_map(Step::LoadP),
        (0u8..8).prop_map(Step::StoreP),
        (0u8..8).prop_map(Step::LoadF),
        (0u8..8).prop_map(Step::StoreF),
        any::<i8>().prop_map(Step::AddC),
        (1u8..6).prop_map(Step::MulIv),
        (0u8..8).prop_map(Step::Diamond),
        Just(Step::CallHelper),
    ]
}

/// Renders the generated program. `p` selects between `g0` and `g1` via
/// the first argument, so stores through `p` may or may not truly alias
/// the direct `g0` accesses.
fn render(steps: &[Step]) -> String {
    let mut body = String::new();
    for (si, s) in steps.iter().enumerate() {
        let t = format!("t{si}");
        match s {
            Step::LoadG0(_) => {
                body += &format!("  var {t}: i64\n");
            }
            Step::LoadP(k) => {
                let _ = k;
                body += &format!("  var {t}: i64\n");
            }
            Step::LoadF(_) => {
                body += &format!("  var {t}: f64\n  var {t}i: i64\n");
            }
            Step::StoreF(_) => {
                body += &format!("  var {t}: f64\n");
            }
            Step::MulIv(_) => {
                body += &format!("  var {t}: i64\n");
            }
            Step::Diamond(_) => {
                body += &format!("  var {t}c: i64\n  var {t}v: i64\n");
            }
            Step::CallHelper => {
                body += &format!("  var {t}: i64\n");
            }
            _ => {}
        }
    }
    let decls = body;
    let mut body = String::new();
    for (si, s) in steps.iter().enumerate() {
        let t = format!("t{si}");
        match s {
            Step::LoadG0(k) => {
                body += &format!("  {t} = load.i64 [@g0 + {k}]\n  acc = add acc, {t}\n");
            }
            Step::StoreG0(k) => {
                body += &format!("  store.i64 [@g0 + {k}], acc\n");
            }
            Step::LoadP(k) => {
                body += &format!("  {t} = load.i64 [p + {k}]\n  acc = add acc, {t}\n");
            }
            Step::StoreP(k) => {
                body += &format!("  store.i64 [p + {k}], acc\n");
            }
            Step::LoadF(k) => {
                body += &format!(
                    "  {t} = load.f64 [@f0 + {k}]\n  {t}i = f2i {t}\n  acc = add acc, {t}i\n"
                );
            }
            Step::StoreF(k) => {
                body += &format!("  {t} = i2f acc\n  store.f64 [@f0 + {k}], {t}\n");
            }
            Step::AddC(c) => {
                body += &format!("  acc = add acc, {c}\n");
            }
            Step::MulIv(c) => {
                body += &format!("  {t} = mul i, {c}\n  acc = add acc, {t}\n");
            }
            Step::Diamond(k) => {
                // blocks are named per step index, so multiple diamonds
                // coexist; the parser requires every block terminated
                body += &format!(
                    "  {t}c = mod i, 2\n  br {t}c, d{si}t, d{si}e\nd{si}t:\n  {t}v = load.i64 [@g0 + {k}]\n  acc = add acc, {t}v\n  jmp d{si}j\nd{si}e:\n  store.i64 [p + {k}], acc\n  jmp d{si}j\nd{si}j:\n"
                );
            }
            Step::CallHelper => {
                body += &format!("  {t} = call helper(acc)\n  acc = add acc, {t}\n");
            }
        }
    }
    format!(
        r#"
global g0: i64[8] = [3, 1, 4, 1, 5, 9, 2, 6]
global g1: i64[8]
global f0: f64[8] = [1.5, 2.5, 0.5, 3.0, 1.0, 2.0, 4.5, 0.25]

func helper(x: i64) -> i64 {{
  var v: i64
entry:
  v = load.i64 [@g0 + 2]
  v = add v, x
  ret v
}}

func main(sel: i64, n: i64) -> i64 {{
  var p: ptr
  var i: i64
  var c: i64
  var acc: i64
{decls}entry:
  acc = 0
  i = 0
  br sel, ua, ub
ua:
  p = @g0
  jmp head
ub:
  p = @g1
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
{body}  i = add i, 1
  jmp head
exit:
  ret acc
}}
"#
    )
}

fn check_program(steps: &[Step]) {
    let src = render(steps);
    let mut m = parse_module(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
    prepare_module(&mut m);
    verify_module(&m).unwrap();

    let train = [Value::I(0), Value::I(6)]; // p = g1: no aliasing
    let adversarial = [Value::I(1), Value::I(6)]; // p = g0: profile lies

    let (want_train, _) = run(&m, "main", &train, 1_000_000).unwrap();
    let (want_adv, _) = run(&m, "main", &adversarial, 1_000_000).unwrap();

    let t = specframe::profile::train(&m, "main", &train, 1_000_000, Collect::ALL).unwrap();
    let (aprof, eprof) = (t.alias.unwrap(), t.edges.unwrap());

    let configs: Vec<(&str, OptOptions)> = vec![
        ("baseline", OptOptions::default()),
        (
            "cspec",
            OptOptions {
                data: SpecSource::None,
                control: ControlSpec::Profile(&eprof),
                strength_reduction: true,
                lftr: true,
                store_sinking: false,
                target: Default::default(),
            },
        ),
        (
            "profile",
            OptOptions {
                data: SpecSource::Profile(&aprof),
                control: ControlSpec::Profile(&eprof),
                strength_reduction: true,
                lftr: true,
                store_sinking: false,
                target: Default::default(),
            },
        ),
        (
            "heuristic",
            OptOptions {
                data: SpecSource::Heuristic,
                control: ControlSpec::Static,
                strength_reduction: true,
                lftr: true,
                store_sinking: false,
                target: Default::default(),
            },
        ),
        (
            "aggressive",
            OptOptions {
                data: SpecSource::Aggressive,
                control: ControlSpec::Static,
                strength_reduction: false,
                lftr: false,
                store_sinking: false,
                target: Default::default(),
            },
        ),
    ];
    for (name, opts) in configs {
        let mut om = m.clone();
        optimize(&mut om, &opts);
        verify_module(&om).unwrap_or_else(|e| panic!("{name}: {e}\n{src}"));

        // interpreter equivalence
        let (it, _) = run(&om, "main", &train, 1_000_000)
            .unwrap_or_else(|e| panic!("{name}(train) interp: {e}\n{src}"));
        assert_eq!(it, want_train, "{name}: train divergence\n{src}");
        let (ia, _) = run(&om, "main", &adversarial, 1_000_000)
            .unwrap_or_else(|e| panic!("{name}(adv) interp: {e}\n{src}"));
        assert_eq!(ia, want_adv, "{name}: adversarial divergence\n{src}");

        // machine equivalence (co-simulation)
        let prog = lower_module(&om);
        let (mt, _) = run_machine(&prog, "main", &train, 1_000_000)
            .unwrap_or_else(|e| panic!("{name}(train) machine: {e}\n{src}"));
        assert_eq!(mt, want_train, "{name}: machine train divergence\n{src}");
        let (ma, _) = run_machine(&prog, "main", &adversarial, 1_000_000)
            .unwrap_or_else(|e| panic!("{name}(adv) machine: {e}\n{src}"));
        assert_eq!(
            ma, want_adv,
            "{name}: machine adversarial divergence\n{src}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 96,
        max_shrink_iters: 200,
        ..ProptestConfig::default()
    })]

    #[test]
    fn optimized_programs_compute_the_same_results(
        steps in proptest::collection::vec(step_strategy(), 1..10)
    ) {
        check_program(&steps);
    }
}

/// A few directed shapes that have bitten during development.
#[test]
fn regression_shapes() {
    use Step::*;
    let shapes: Vec<Vec<Step>> = vec![
        vec![LoadG0(0), StoreP(0), LoadG0(0)],
        vec![LoadG0(3), StoreP(3), LoadG0(3), StoreG0(3), LoadG0(3)],
        vec![LoadP(1), StoreG0(1), LoadP(1)],
        vec![LoadF(2), StoreP(2), LoadF(2)],
        vec![MulIv(4), StoreP(0), MulIv(4)],
        vec![StoreP(0), LoadG0(0), StoreP(0), LoadG0(0)],
        vec![LoadG0(7), AddC(-3), LoadG0(7), AddC(5), LoadG0(7)],
        vec![Diamond(0), LoadG0(0)],
        vec![LoadG0(1), Diamond(1), LoadG0(1)],
        vec![CallHelper, LoadG0(2), CallHelper],
        vec![Diamond(3), Diamond(3), StoreP(3)],
    ];
    for s in shapes {
        check_program(&s);
    }
}
