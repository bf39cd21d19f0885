//! Strength reduction and linear-function test replacement.
//!
//! The paper lists both as members of the SSAPRE optimization set (§4.1,
//! after Kennedy et al., CC '98) and notes that *"the speculative weak
//! update concept … corresponds to the injuring definition and the
//! generation of speculative check instructions corresponds to the repair
//! code"* in that work. This client shares the engine's machinery: it
//! introduces a collapsed PRE-style temporary `s ≡ i*c` per induction
//! expression, keeps it up to date with *repair* additions at each
//! injuring definition (`i = i + k` → `s = s + k*c`), and replaces the
//! multiplications with copies. Each reduced factor is recorded as an
//! [`SrTemp`] so the separate [`crate::lftr`] pass can later rewrite
//! the loop-exit test `i < N` into `s < N*c` (linear-function test
//! replacement) — LFTR needs the versions (`v_phi`/`v_step`) this pass
//! allocates.
//!
//! Like store promotion, this pass runs none of the six SSAPRE steps: its
//! loops come from the kernel's [`reducible_loops`], and all rewrites are
//! [`MotionEdit`]s applied via [`apply_edits`].

use crate::prekernel::{apply_edits, reducible_loops, MotionEdit};
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
    /// φ argument index of the preheader / latch.
    pre_idx: usize,
    latch_idx: usize,
}

/// The strength-reduction candidate: multiplications of one basic IV by
/// a constant factor. `c = None` harvests factor-agnostically; a fixed
/// factor drives emission. The increment is an *injuring* definition in
/// the paper's sense — it never kills, it gets repair code.
struct StrengthClient {
    iv: BasicIv,
    c: Option<i64>,
}

impl StrengthClient {
    /// Extracts `(version of i, factor)` if `stmt` is `_ = mul i, c`
    /// (either operand order) with a usable nonzero factor.
    fn mul_of_iv(&self, stmt: &HStmt) -> Option<(u32, i64)> {
        let HStmtKind::Bin {
            op: BinOp::Mul,
            a,
            b,
            ..
        } = &stmt.kind
        else {
            return None;
        };
        let (ver, c) = match (a, b) {
            (HOperand::Reg(v, ver), HOperand::ConstI(c)) if *v == self.iv.var => (*ver, *c),
            (HOperand::ConstI(c), HOperand::Reg(v, ver)) if *v == self.iv.var => (*ver, *c),
            _ => return None,
        };
        if c == 0 || self.c.is_some_and(|want| want != c) {
            return None;
        }
        Some((ver, c))
    }

    /// Name of the reduction temporary (`n` is the global temp counter).
    fn temp_name(&self, n: u64) -> String {
        format!("sr{n}")
    }

    /// Type of the reduction temporary.
    fn temp_ty(&self) -> Ty {
        Ty::I64
    }

    /// The preheader initialization `s = i.pre * c`, writing `t`.
    fn materialize(&self, t: (VarId, u32)) -> HStmt {
        HStmt::new(HStmtKind::Bin {
            dst: t,
            op: BinOp::Mul,
            a: HOperand::Reg(self.iv.var, self.iv.pre_ver),
            b: HOperand::ConstI(self.c.expect("factor fixed at emission")),
        })
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
                                pre_idx,
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
    let probe = StrengthClient { iv, c: None };
    type MulCand = (BlockId, usize, (VarId, u32), u32, i64);
    let mut cands: Vec<MulCand> = Vec::new();
    for &b in body {
        for (si, stmt) in hf.blocks[b.index()].stmts.iter().enumerate() {
            let Some((ver, c)) = probe.mul_of_iv(stmt) else {
                continue;
            };
            let HStmtKind::Bin { dst, .. } = &stmt.kind else {
                unreachable!()
            };
            let usable = ver == iv.phi_dest
                || (ver == iv.latch_ver
                    && (b, si) > (iv.inc_at.0, iv.inc_at.1)
                    && b == iv.inc_at.0);
            if usable {
                cands.push((b, si, *dst, ver, c));
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
    for c in factors {
        let client = StrengthClient { iv, c: Some(c) };
        // s tracks i * c
        // SR temporaries are proper SSA (their header φ is constructed
        // explicitly), so they need no collapsing and their copies fully
        // propagate away
        let s = hf.add_temp(client.temp_name(stats.temps), client.temp_ty());
        stats.temps += 1;
        let mut edits: Vec<MotionEdit> = Vec::new();

        // preheader: s = i.pre * c
        let v_init = hf.fresh_ver_of_reg(s);
        edits.push(MotionEdit::Append {
            block: preheader,
            what: client.materialize((s, v_init)),
        });

        // header φ: s.h = φ(s.init, s.step)
        let v_phi = hf.fresh_ver_of_reg(s);
        let v_step = hf.fresh_ver_of_reg(s);
        let s_hvar = hf.catalog.get(HVarKind::Reg(s)).expect("temp interned");
        let npreds = hf.preds[header.index()].len();
        let mut args = vec![v_init; npreds];
        args[iv.pre_idx] = v_init;
        args[iv.latch_idx] = v_step;
        edits.push(MotionEdit::AddPhi {
            block: header,
            phi: HPhi {
                var: s_hvar,
                dest: v_phi,
                args,
            },
        });

        // repair after the injuring definition: s.step = s.h + k*c
        let (ib, isi) = iv.inc_at;
        edits.push(MotionEdit::InsertAfter {
            block: ib,
            stmt: isi,
            what: HStmt::new(HStmtKind::Bin {
                dst: (s, v_step),
                op: BinOp::Add,
                a: HOperand::Reg(s, v_phi),
                b: HOperand::ConstI(iv.k.wrapping_mul(c)),
            }),
        });

        // rewrite candidates of this factor; edits apply in order, so the
        // Replace indices are post-insertion (within the increment block
        // they shift by one past the repair)
        for &(b, si, dst, ver, cc) in &cands {
            if cc != c {
                continue;
            }
            let si_adj = if b == ib && si > isi { si + 1 } else { si };
            let src_ver = if ver == iv.phi_dest { v_phi } else { v_step };
            edits.push(MotionEdit::Replace {
                block: b,
                stmt: si_adj,
                with: HStmt::new(HStmtKind::Copy {
                    dst,
                    src: HOperand::Reg(s, src_ver),
                }),
            });
            rewritten += 1;
            stats.strength_reduced += 1;
        }
        // apply per factor, not per loop: the next factor's repair
        // insertion and candidate indices read the mutated statement list
        apply_edits(hf, edits);

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
