//! Strength reduction and linear-function test replacement.
//!
//! The paper lists both as members of the SSAPRE optimization set (§4.1,
//! after Kennedy et al., CC '98) and notes that *"the speculative weak
//! update concept … corresponds to the injuring definition and the
//! generation of speculative check instructions corresponds to the repair
//! code"* in that work. The pass introduces a PRE-style temporary
//! `s ≡ i*c` per induction expression, keeps it up to date with *repair*
//! additions at each injuring definition (`i = i + k` → `s = s + k*c`),
//! and replaces the multiplications with copies. Each reduced factor is
//! recorded as an [`SrTemp`] so the separate [`crate::lftr`] pass can
//! later rewrite the loop-exit test `i < N` into `s < N*c`
//! (linear-function test replacement) — LFTR needs the versions
//! (`v_phi`/`v_step`) this pass allocates.
//!
//! Like store promotion, this pass runs none of the six SSAPRE steps: its
//! loops come from the kernel's [`reducible_loops`], and it edits the
//! speculative SSA form in place.

use crate::prekernel::reducible_loops;
use crate::stats::OptStats;
use specframe_analysis::FuncAnalyses;
use specframe_hssa::{HOperand, HStmt, HStmtKind, HVarKind, HssaFunc, Phi as HPhi};
use specframe_ir::{BinOp, BlockId, Ty, VarId};

/// One reduced induction expression `s ≡ i*c`, recorded for LFTR. The
/// versions are the rename state LFTR needs to pick the right `s` version
/// for each version of `i` appearing in a loop-exit test.
#[derive(Debug, Clone)]
pub struct SrTemp {
    /// The basic induction variable `i`.
    pub iv_var: VarId,
    /// `i`'s version defined by the header φ.
    pub iv_phi_dest: u32,
    /// `i`'s version produced by the increment.
    pub iv_latch_ver: u32,
    /// The reduction temporary `s`.
    pub s: VarId,
    /// `s`'s header-φ version (pairs with `iv_phi_dest`).
    pub v_phi: u32,
    /// `s`'s post-repair version (pairs with `iv_latch_ver`).
    pub v_step: u32,
    /// The constant factor `c`.
    pub c: i64,
    /// Blocks of the owning loop.
    pub body: Vec<BlockId>,
}

/// One recognized basic induction variable.
#[derive(Debug, Clone, Copy)]
struct BasicIv {
    /// The register.
    var: VarId,
    /// Version defined by the header φ.
    phi_dest: u32,
    /// Version flowing in from the preheader.
    pre_ver: u32,
    /// Version produced by the increment (flows around the back edge).
    latch_ver: u32,
    /// Increment constant `k`.
    k: i64,
    /// Location of the increment statement.
    inc_at: (BlockId, usize),
    /// φ argument index of the latch.
    latch_idx: usize,
}

/// Extracts `(version of iv, factor)` if `stmt` is `_ = mul iv, c` (either
/// operand order) with a nonzero factor `c`. The increment is an
/// *injuring* definition in the paper's sense: it never kills such a
/// multiplication, it gets repair code.
fn mul_of_iv(iv: VarId, stmt: &HStmt) -> Option<(u32, i64)> {
    let HStmtKind::Bin {
        op: BinOp::Mul,
        a,
        b,
        ..
    } = &stmt.kind
    else {
        return None;
    };
    match (a, b) {
        (HOperand::Reg(v, ver), HOperand::ConstI(c))
        | (HOperand::ConstI(c), HOperand::Reg(v, ver))
            if *v == iv && *c != 0 =>
        {
            Some((*ver, *c))
        }
        _ => None,
    }
}

/// Runs strength reduction over every loop of `hf`, using the function's
/// cached CFG analyses. Each reduced factor is appended to `sr_out` for
/// the LFTR pass. Returns the number of multiplications rewritten, which is
/// 0 only when `hf` was left untouched (the driver then skips the cleanup
/// of a form that is already clean).
pub fn strength_reduce_hssa(
    hf: &mut HssaFunc,
    stats: &mut OptStats,
    fa: &FuncAnalyses,
    sr_out: &mut Vec<SrTemp>,
) -> usize {
    let mut rewritten_total = 0;

    for shape in reducible_loops(hf, fa) {
        let header = shape.header;
        let preheader = shape.preheader;
        let pre_idx = shape.pre_idx;
        let latch_idx = shape.latch_idx;

        // recognize basic induction variables from header φs
        let mut ivs: Vec<BasicIv> = Vec::new();
        for phi in hf.blocks[header.index()].phis.clone() {
            let HVarKind::Reg(var) = hf.catalog.kind(phi.var) else {
                continue;
            };
            let pre_ver = phi.args[pre_idx];
            let latch_ver = phi.args[latch_idx];
            // find `var.latch_ver = add var.phi_dest, k` in the loop body
            let mut found = None;
            'search: for &b in &shape.body {
                for (si, stmt) in hf.blocks[b.index()].stmts.iter().enumerate() {
                    if let HStmtKind::Bin { dst, op, a, b: bb } = &stmt.kind {
                        if *dst != (var, latch_ver) {
                            continue;
                        }
                        let k = match (op, a, bb) {
                            (BinOp::Add, HOperand::Reg(v, ver), HOperand::ConstI(k))
                                if *v == var && *ver == phi.dest =>
                            {
                                Some(*k)
                            }
                            (BinOp::Add, HOperand::ConstI(k), HOperand::Reg(v, ver))
                                if *v == var && *ver == phi.dest =>
                            {
                                Some(*k)
                            }
                            (BinOp::Sub, HOperand::Reg(v, ver), HOperand::ConstI(k))
                                if *v == var && *ver == phi.dest =>
                            {
                                Some(-*k)
                            }
                            _ => None,
                        };
                        if let Some(k) = k {
                            found = Some(BasicIv {
                                var,
                                phi_dest: phi.dest,
                                pre_ver,
                                latch_ver,
                                k,
                                inc_at: (b, si),
                                latch_idx,
                            });
                            break 'search;
                        }
                    }
                }
            }
            if let Some(iv) = found {
                ivs.push(iv);
            }
        }

        for iv in ivs {
            rewritten_total += reduce_one_iv(hf, &shape.body, header, preheader, iv, stats, sr_out);
        }
    }
    rewritten_total
}

fn reduce_one_iv(
    hf: &mut HssaFunc,
    body: &[BlockId],
    header: BlockId,
    preheader: BlockId,
    iv: BasicIv,
    stats: &mut OptStats,
    sr_out: &mut Vec<SrTemp>,
) -> usize {
    // harvest candidate multiplications factor-agnostically; grouped by
    // constant factor below
    // (block, stmt, dest, which version of i, factor)
    type MulCand = (BlockId, usize, (VarId, u32), u32, i64);
    let mut cands: Vec<MulCand> = Vec::new();
    for &b in body {
        for (si, stmt) in hf.blocks[b.index()].stmts.iter().enumerate() {
            let Some((ver, c)) = mul_of_iv(iv.var, stmt) else {
                continue;
            };
            let dst = stmt.def_reg().expect("a multiplication defines a register");
            let usable = ver == iv.phi_dest
                || (ver == iv.latch_ver
                    && (b, si) > (iv.inc_at.0, iv.inc_at.1)
                    && b == iv.inc_at.0);
            if usable {
                cands.push((b, si, dst, ver, c));
            }
        }
    }
    if cands.is_empty() {
        return 0;
    }

    let mut factors: Vec<i64> = cands.iter().map(|c| c.4).collect();
    factors.sort_unstable();
    factors.dedup();

    let mut rewritten = 0;
    for (nth, c) in factors.into_iter().enumerate() {
        // s tracks i * c
        // SR temporaries are proper SSA (their header φ is constructed
        // explicitly), so they need no collapsing and their copies fully
        // propagate away
        let s = hf.add_temp(format!("sr{}", stats.temps), Ty::I64);
        stats.temps += 1;

        // preheader: s = i.pre * c
        let v_init = hf.fresh_ver_of_reg(s);
        hf.blocks[preheader.index()]
            .stmts
            .push(HStmt::new(HStmtKind::Bin {
                dst: (s, v_init),
                op: BinOp::Mul,
                a: HOperand::Reg(iv.var, iv.pre_ver),
                b: HOperand::ConstI(c),
            }));

        // header φ: s.h = φ(s.init, s.step)
        let v_phi = hf.fresh_ver_of_reg(s);
        let v_step = hf.fresh_ver_of_reg(s);
        let s_hvar = hf.catalog.get(HVarKind::Reg(s)).expect("temp interned");
        let mut args = vec![v_init; hf.preds[header.index()].len()];
        args[iv.latch_idx] = v_step;
        hf.blocks[header.index()].phis.push(HPhi {
            var: s_hvar,
            dest: v_phi,
            args,
        });

        // repair after the injuring definition: s.step = s.h + k*c
        let (ib, isi) = iv.inc_at;
        hf.blocks[ib.index()].stmts.insert(
            isi + 1,
            HStmt::new(HStmtKind::Bin {
                dst: (s, v_step),
                op: BinOp::Add,
                a: HOperand::Reg(s, v_phi),
                b: HOperand::ConstI(iv.k.wrapping_mul(c)),
            }),
        );

        // candidates of this factor become copies of s; inside the
        // increment block, one after the increment shifts past the repairs
        // of this factor and of every factor before it
        for &(b, si, dst, ver, _) in cands.iter().filter(|cand| cand.4 == c) {
            let si = if b == ib && si > isi {
                si + nth + 1
            } else {
                si
            };
            let src_ver = if ver == iv.phi_dest { v_phi } else { v_step };
            hf.blocks[b.index()].stmts[si] = HStmt::new(HStmtKind::Copy {
                dst,
                src: HOperand::Reg(s, src_ver),
            });
            rewritten += 1;
            stats.strength_reduced += 1;
        }

        sr_out.push(SrTemp {
            iv_var: iv.var,
            iv_phi_dest: iv.phi_dest,
            iv_latch_ver: iv.latch_ver,
            s,
            v_phi,
            v_step,
            c,
            body: body.to_vec(),
        });
    }
    rewritten
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_ir::{parse_module, Module, Value};
    use specframe_profile::run;

    /// Strength reduction followed by LFTR over the recorded temporaries,
    /// on every function of the prepared module `m`; returns how many
    /// expressions strength reduction rewrote.
    fn reduce(m: &mut Module, stats: &mut OptStats) -> usize {
        let mut n = 0;
        crate::testutil::rewrite_functions(m, |hf, fa| {
            let mut sr_temps = Vec::new();
            n += strength_reduce_hssa(hf, stats, fa, &mut sr_temps);
            crate::lftr::lftr_hssa(hf, &sr_temps, stats);
        });
        n
    }

    const MUL_LOOP: &str = r#"
global out: i64[64]

func f(n: i64) -> i64 {
  var i: i64
  var c: i64
  var x: i64
  var q: ptr
entry:
  i = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  x = mul i, 8
  q = add x, @out
  store.i64 [q], x
  i = add i, 1
  jmp head
exit:
  x = mul i, 8
  ret x
}
"#;

    #[test]
    fn reduces_multiplication_in_loop() {
        let m0 = parse_module(MUL_LOOP).unwrap();
        // verify semantics against the unoptimized run (note: array is 64
        // words; n*8 must stay in range -> n <= 8)
        let (expect, _) = run(&m0, "f", &[Value::I(8)], 1_000_000).unwrap();
        let mut m = m0.clone();
        let mut stats = OptStats::default();
        crate::driver::prepare_module(&mut m);
        let n = reduce(&mut m, &mut stats);
        assert!(n >= 1, "one mul in the loop must be reduced");
        assert!(stats.strength_reduced >= 1);
        assert!(stats.lftr_applied == 0, "test is not on i so no lftr here");
        specframe_ir::verify_module(&m).unwrap();
        let (got, _) = run(&m, "f", &[Value::I(8)], 1_000_000).unwrap();
        assert_eq!(got, expect);
        // the loop body must no longer contain the multiplication
        let f = &m.funcs[0];
        let body_muls = f.blocks[2]
            .insts
            .iter()
            .filter(|i| matches!(i, specframe_ir::Inst::Bin { op: BinOp::Mul, .. }))
            .count();
        assert_eq!(body_muls, 0, "mul i,8 must be strength-reduced away");
    }

    /// Two constant factors, the second multiplying the incremented
    /// induction variable in the increment block.
    const TWO_FACTOR_LOOP: &str = r#"
func f(n: i64) -> i64 {
  var i: i64
  var c: i64
  var x: i64
  var y: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  x = mul i, 4
  i = add i, 1
  y = mul i, 8
  acc = add acc, x
  acc = add acc, y
  jmp head
exit:
  ret acc
}
"#;

    #[test]
    fn reduces_a_second_factor_after_the_increment() {
        let m0 = parse_module(TWO_FACTOR_LOOP).unwrap();
        let (expect, _) = run(&m0, "f", &[Value::I(10)], 1_000_000).unwrap();
        let mut m = m0.clone();
        let mut stats = OptStats::default();
        crate::driver::prepare_module(&mut m);
        let n = reduce(&mut m, &mut stats);
        assert_eq!(n, 2, "both multiplications are reduced");
        assert_eq!(stats.strength_reduced, 2);
        specframe_ir::verify_module(&m).unwrap();
        let (got, _) = run(&m, "f", &[Value::I(10)], 1_000_000).unwrap();
        assert_eq!(got, expect);
    }

    const LFTR_LOOP: &str = r#"
func f(n: i64) -> i64 {
  var i: i64
  var c: i64
  var x: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, 100
  br c, body, exit
body:
  x = mul i, 4
  acc = add acc, x
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#;

    #[test]
    fn lftr_rewrites_loop_test() {
        let m0 = parse_module(LFTR_LOOP).unwrap();
        let (expect, _) = run(&m0, "f", &[Value::I(0)], 1_000_000).unwrap();
        let mut m = m0.clone();
        let mut stats = OptStats::default();
        crate::driver::prepare_module(&mut m);
        reduce(&mut m, &mut stats);
        assert!(stats.strength_reduced >= 1, "{stats:?}");
        assert!(stats.lftr_applied >= 1, "{stats:?}");
        specframe_ir::verify_module(&m).unwrap();
        let (got, _) = run(&m, "f", &[Value::I(0)], 1_000_000).unwrap();
        assert_eq!(got, expect);
        // the comparison now tests the reduced variable against 400
        let printed = specframe_ir::display::print_module(&m);
        assert!(printed.contains("400"), "{printed}");
    }

    #[test]
    fn non_constant_step_is_left_alone() {
        let src = r#"
func f(n: i64, step: i64) -> i64 {
  var i: i64
  var c: i64
  var x: i64
  var acc: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  x = mul i, 4
  acc = add acc, x
  i = add i, step
  jmp head
exit:
  ret acc
}
"#;
        let m0 = parse_module(src).unwrap();
        let mut m = m0.clone();
        let mut stats = OptStats::default();
        crate::driver::prepare_module(&mut m);
        let n = reduce(&mut m, &mut stats);
        assert_eq!(n, 0, "variable step must not be reduced");
        let (a, _) = run(&m0, "f", &[Value::I(5), Value::I(2)], 1_000_000).unwrap();
        let (b, _) = run(&m, "f", &[Value::I(5), Value::I(2)], 1_000_000).unwrap();
        assert_eq!(a, b);
    }
}
