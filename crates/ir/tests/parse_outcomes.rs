//! Pins what the parser does with every input, not just well-formed ones.
//!
//! Part A gives one malformed module per error the parser can report and
//! asserts the exact line and message of the first error. Part B mutates
//! the printed text of every test-scale workload and of a small mega
//! module (drop a word, duplicate one, or swap two neighbours) and folds
//! each outcome — the parsed module's `{:?}` on success, `line: msg` on
//! failure — into one FNV-1a digest per input. A rewrite of the parser
//! that changes which error comes first, the line it is reported on, or
//! the module a text parses to cannot pass both tables. A change that
//! means to move an outcome records the new table (the failure message
//! prints it in the form below) and says why it moved.

use specframe_ir::display::print_module;
use specframe_ir::parse_module;
use specframe_workloads::megamod::Rng;
use specframe_workloads::{all_workloads, mega_source, Scale};

/// `(case, source, line, message)`: the first error `parse_module`
/// reports for `source`.
const ERRORS: &[(&str, &str, u32, &str)] = &[
    (
        "bad float literal",
        "global g: f64[1] = [1e+]\n",
        1,
        "bad float literal `1e+`",
    ),
    (
        "bad int literal",
        "global g: i64[1] = [99999999999999999999]\n",
        1,
        "bad int literal `99999999999999999999`",
    ),
    (
        "unexpected character",
        "func f() {\nentry:\n  ret\n}\n$\n",
        5,
        "unexpected character `$`",
    ),
    (
        "lex error wins over an earlier header error",
        "global g i64[1]\nfunc f() {\nentry:\n  ret\n}\n%\n",
        6,
        "unexpected character `%`",
    ),
    (
        "expected punctuation",
        "global g i64[1]\n",
        1,
        "expected `:`, found Some(Ident(\"i64\"))",
    ),
    (
        "expected punctuation at end of input",
        "global g: i64[1] = [1\n",
        1,
        "expected `]`, found None",
    ),
    (
        "expected identifier",
        "func 5() {\nentry:\n  ret\n}\n",
        1,
        "expected identifier, found Some(Int(5))",
    ),
    ("unknown type", "global g: u8[1]\n", 1, "unknown type `u8`"),
    (
        "unknown parameter type",
        "func f(a: u8) {\nentry:\n  ret\n}\n",
        1,
        "unknown type `u8`",
    ),
    (
        "expected integer",
        "global g: i64[x]\n",
        1,
        "expected integer, found Some(Ident(\"x\"))",
    ),
    (
        "negative global size",
        "global g: i64[-1]\n",
        1,
        "negative global size",
    ),
    (
        "expected value",
        "global g: i64[2] = [x]\n",
        1,
        "expected value, found Some(Ident(\"x\"))",
    ),
    (
        "initializer longer than global",
        "global g: i64[1] = [1, 2]\n\nfunc f() {\nentry:\n  ret\n}\n",
        3,
        "initializer longer than global",
    ),
    (
        "duplicate global",
        "global g: i64[1]\nglobal g: i64[2]\nfunc f() {\nentry:\n  ret\n}\n",
        3,
        "duplicate global `g`",
    ),
    (
        "unterminated function body",
        "func f() {\nentry:\n  ret\n",
        3,
        "unterminated function body",
    ),
    (
        "duplicate function",
        "func f() {\nentry:\n  ret\n}\nfunc f() {\nentry:\n  ret\n}\n",
        8,
        "duplicate function `f`",
    ),
    (
        "expected global or func",
        "var x: i64\n",
        1,
        "expected `global` or `func` at top level",
    ),
    (
        "a header error late beats a body error early",
        "func f() {\nentry:\n  x = 1\n  ret\n}\nglobal g: i64[1]\nglobal g: i64[1]\n",
        7,
        "duplicate global `g`",
    ),
    (
        "duplicate var",
        "func f(a: i64) {\n  var a: i64\nentry:\n  ret\n}\n",
        3,
        "duplicate var `a`",
    ),
    (
        "duplicate slot",
        "func f() {\n  slot s: i64[1]\n  slot s: i64[2]\nentry:\n  ret\n}\n",
        4,
        "duplicate slot `s`",
    ),
    (
        "block falls through",
        "func f() {\nentry:\n  jmp b\nb:\nc:\n  ret\n}\n",
        5,
        "block falls through without terminator",
    ),
    (
        "duplicate block",
        "func f() {\nentry:\n  jmp entry\nentry:\n  ret\n}\n",
        5,
        "duplicate block `entry`",
    ),
    (
        "statement before first block label",
        "func f() {\n  ret\n}\n",
        2,
        "statement before first block label",
    ),
    (
        "statement after block terminator",
        "func f() {\nentry:\n  ret\n  ret\n}\n",
        4,
        "statement after block terminator",
    ),
    (
        "last block lacks a terminator",
        "func f() {\n  var x: i64\nentry:\n  x = 1\n}\n",
        5,
        "last block lacks a terminator",
    ),
    (
        "function has no blocks",
        "func f() {\n}\n\nfunc g() {\nentry:\n  ret\n}\n",
        4,
        "function has no blocks",
    ),
    (
        "unknown block",
        "func f() {\nentry:\n  jmp nowhere\n}\n\nfunc g() {\nentry:\n  ret\n}\n",
        6,
        "unknown block `nowhere`",
    ),
    (
        "unknown branch target",
        "func f(c: i64) {\nentry:\n  br c, entry, gone\n}\n",
        4,
        "unknown block `gone`",
    ),
    (
        "unknown var",
        "func f() {\nentry:\n  x = 1\n  ret\n}\n",
        3,
        "unknown var `x`",
    ),
    (
        "unknown operand var",
        "func f() -> i64 {\n  var x: i64\nentry:\n  x = add x, y\n  ret x\n}\n",
        5,
        "unknown var `y`",
    ),
    (
        "expected literal after minus",
        "func f() -> i64 {\nentry:\n  ret -x\n}\n",
        4,
        "expected literal after `-`, found Some(Ident(\"x\"))",
    ),
    (
        "unknown global",
        "func f() {\n  var x: i64\nentry:\n  x = load.i64 [@nope]\n  ret\n}\n",
        4,
        "unknown global `nope`",
    ),
    (
        "unknown slot",
        "func f() {\n  var x: i64\nentry:\n  x = load.i64 [&nope]\n  ret\n}\n",
        4,
        "unknown slot `nope`",
    ),
    (
        "expected operand",
        "func f() {\n  var x: i64\nentry:\n  x = add ,\n  ret\n}\n",
        5,
        "expected operand, found Some(Punct(','))",
    ),
    (
        "store without a type suffix",
        "global g: i64[1]\nfunc f() {\nentry:\n  store [@g], 1\n  ret\n}\n",
        4,
        "`store` needs a type suffix, e.g. `store.i64`",
    ),
    (
        "bad store type",
        "global g: i64[1]\nfunc f() {\nentry:\n  store.u8 [@g], 1\n  ret\n}\n",
        4,
        "bad store type `u8`",
    ),
    (
        "bad load type",
        "global g: i64[1]\nfunc f() {\n  var x: i64\nentry:\n  x = load.u8 [@g]\n  ret\n}\n",
        5,
        "bad load type",
    ),
    (
        "bad advanced load type",
        "global g: i64[1]\nfunc f() {\n  var x: i64\nentry:\n  x = load.a.u8 [@g]\n  ret\n}\n",
        5,
        "bad load type",
    ),
    (
        "bad speculative load type",
        "global g: i64[1]\nfunc f() {\n  var x: i64\nentry:\n  x = load.s.u8 [@g]\n  ret\n}\n",
        5,
        "bad load type",
    ),
    (
        "bad check type",
        "global g: i64[1]\nfunc f() {\n  var x: i64\nentry:\n  x = ldc.u8 [@g]\n  ret\n}\n",
        5,
        "bad check type",
    ),
    (
        "bad nat check type",
        "global g: i64[1]\nfunc f() {\n  var x: i64\nentry:\n  x = chks.u8 [@g]\n  ret\n}\n",
        5,
        "bad check type",
    ),
    (
        "unknown function",
        "func f() {\nentry:\n  call nope()\n  ret\n}\n",
        3,
        "unknown function `nope`",
    ),
    (
        "unknown function with a destination",
        "func f() {\n  var x: i64\nentry:\n  x = call nope(1)\n  ret\n}\n",
        4,
        "unknown function `nope`",
    ),
    (
        "bad address offset",
        "func f(p: ptr) {\n  var x: i64\nentry:\n  x = load.i64 [p + q]\n  ret\n}\n",
        4,
        "expected integer, found Some(Ident(\"q\"))",
    ),
    (
        "unclosed call arguments",
        "func g(a: i64) {\nentry:\n  ret\n}\nfunc f() {\nentry:\n  call g(1 2)\n  ret\n}\n",
        7,
        "expected `)`, found Some(Int(2))",
    ),
    (
        "a lex error inside a skipped body beats a later header error",
        "func f() {\nentry:\n  ret $\n}\nglobal g i64[1]\n",
        3,
        "unexpected character `$`",
    ),
    (
        "a brace inside a comment does not count",
        "func f() {\nentry:\n  ret # }\n}\nfunc f() {\nentry:\n  ret\n}\n",
        8,
        "duplicate function `f`",
    ),
    (
        "an unterminated body names the line of its last token",
        "func f() {\nentry:\n  ret\n# end }\n",
        3,
        "unterminated function body",
    ),
    (
        "a comment between a label and its colon",
        "func f() {\nentry # c\n:\n  ret\n  ret\n}\n",
        5,
        "statement after block terminator",
    ),
];

#[test]
fn every_parse_error_keeps_its_line_and_message() {
    let mut bad = String::new();
    for &(case, src, line, msg) in ERRORS {
        match parse_module(src) {
            Ok(_) => bad.push_str(&format!("{case}: parsed, expected line {line}: {msg}\n")),
            Err(e) if e.line != line || e.msg != msg => bad.push_str(&format!(
                "{case}: got line {}: {}, expected line {line}: {msg}\n",
                e.line, e.msg
            )),
            Err(_) => {}
        }
    }
    assert!(bad.is_empty(), "parse errors moved:\n{bad}");
}

/// One line per input: `input ok=N err=N digest`, counting the unmutated
/// text and its mutants.
const MUTATIONS: &str = "\
ammp ok=1 err=48 383195375821c989
art ok=3 err=46 79ce6de962b982af
equake_smvp ok=1 err=48 74a29f779e6baf43
gzip ok=1 err=48 fbac1e88d3e8da1e
many_funcs ok=3 err=46 31bb8a85f5dcf102
mcf ok=2 err=47 f2f64a3a5ec6c5ae
parser ok=1 err=48 8594c084d3fb7a94
twolf ok=3 err=46 dda017555f0260ca
vpr ok=1 err=48 cf02cc757c9cc69c
mega:7:40 ok=2 err=47 4ba38ac8a60a0a5e
edge ok=5 err=44 12e51625c2d5b5ab
";

/// Mutants drawn per input.
const PER_INPUT: usize = 48;

/// 64-bit FNV-1a.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A hand-written module with the grammar's corners: comments, a
/// duplicated parameter name, a `ret` before a label, negative offsets and
/// literals, exponent floats and every memory form.
const EDGE: &str = "\
# corners the printer never produces
global g: i64[4] = [1, -2]
global h: f64[2] = [1.5e3, -2]
func id(a: i64, a: i64) -> i64 {
entry:
  ret a
}
func f(p: ptr, n: i64) -> i64 {
  var x: i64
  var y: f64
  var entry2: i64
  slot s: i64[3]
entry:
  x = load.a.i64 [p - 2]
  y = load.s.f64 [@h + 1]
  store.i64 [&s + 2], -7
  x = ldc.i64 [p - 2]
  y = chks.f64 [@h + 1]
  y = fadd y, 2.5e-3
  entry2 = call id(x, -1) # trailing comment
  br n, more, entry2
more:
  ret
entry2:
  ret entry2
}
";

/// The word ranges of `text`: maximal runs of non-whitespace.
fn words(text: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices() {
        match (c.is_whitespace(), start) {
            (true, Some(s)) => {
                out.push((s, i));
                start = None;
            }
            (false, None) => start = Some(i),
            _ => {}
        }
    }
    if let Some(s) = start {
        out.push((s, text.len()));
    }
    out
}

/// Drops, duplicates or swaps words of `text` as `rng` draws.
fn mutate(text: &str, rng: &mut Rng) -> String {
    let w = words(text);
    let i = rng.below(w.len() as u64 - 1) as usize;
    let (s, e) = w[i];
    match rng.below(3) {
        0 => format!("{}{}", &text[..s], &text[e..]),
        1 => format!("{} {}", &text[..e], &text[s..]),
        _ => {
            let (s2, e2) = w[i + 1];
            format!(
                "{}{}{}{}{}",
                &text[..s],
                &text[s2..e2],
                &text[e..s2],
                &text[s..e],
                &text[e2..]
            )
        }
    }
}

#[test]
fn mutated_workload_text_parses_to_the_recorded_outcomes() {
    let mut inputs: Vec<(String, String)> = all_workloads(Scale::Test)
        .into_iter()
        .map(|w| (w.name.to_string(), print_module(&w.module)))
        .collect();
    inputs.push(("mega:7:40".into(), mega_source(7, 40)));
    inputs.push(("edge".into(), EDGE.to_string()));

    let mut rng = Rng::new(0x7061_7273_6572);
    let mut table = String::new();
    for (name, text) in &inputs {
        let (mut ok, mut err) = (0, 0);
        let mut h = 0xcbf2_9ce4_8422_2325;
        // the unmutated text first, then the mutants
        for k in 0..=PER_INPUT {
            let src = if k == 0 {
                text.clone()
            } else {
                mutate(text, &mut rng)
            };
            let outcome = match parse_module(&src) {
                Ok(m) => {
                    ok += 1;
                    format!("{m:?}")
                }
                Err(e) => {
                    err += 1;
                    format!("{}: {}", e.line, e.msg)
                }
            };
            h = fnv1a(h, outcome.as_bytes());
            h = fnv1a(h, b"\n");
        }
        table.push_str(&format!("{name} ok={ok} err={err} {h:016x}\n"));
    }
    assert!(
        table == MUTATIONS,
        "parse outcomes moved; the table at this tree is:\n{table}"
    );
}
