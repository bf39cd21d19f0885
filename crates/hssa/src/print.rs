//! Paper-style textual dumps of the speculative SSA form.
//!
//! The output mirrors the notation of the paper's Example 1 / Figure 6:
//! χ-operators print as `a2 <- chi(a1)` (or `chi_s` when flagged), μ lists
//! as `mu(a3) mu_s(b2)`, φs as `a3 <- phi(a1, a2)`.

use crate::hvar::{HVarId, HVarKind, MemBase};
use crate::stmt::{HOperand, HStmtKind, HTerm, HssaFunc};
use specframe_ir::{Function, Global};
use std::fmt::Write;

/// Renders `hf`, the form of `f`, as human-readable text. `globals` and
/// `func_names` (indexed by `FuncId`, see
/// `specframe_ir::display::func_name_table`) are the module state a
/// parallel pipeline worker owns; a caller printing many functions builds
/// the name table once.
pub fn print_hssa(
    globals: &[Global],
    func_names: &[String],
    f: &Function,
    hf: &HssaFunc,
) -> String {
    let mut out = String::new();
    let vname = |id: HVarId| -> String {
        match hf.catalog.kind(id) {
            HVarKind::Reg(v) => {
                if (v.0 as usize) < f.vars.len() {
                    f.vars[v.index()].name.clone()
                } else {
                    let k = (v.0 - hf.first_new_var) as usize;
                    hf.new_vars
                        .get(k)
                        .map(|(n, _)| n.clone())
                        .unwrap_or_else(|| format!("v{}", v.0))
                }
            }
            HVarKind::Mem(mv) => {
                let base = match mv.base {
                    MemBase::Global(g) => globals[g.index()].name.clone(),
                    MemBase::Slot(s) => f.slots[s.index()].name.clone(),
                };
                if mv.off == 0 {
                    base
                } else {
                    format!("{base}[{}]", mv.off)
                }
            }
            HVarKind::Virt(c) => format!("vv{}", c.0),
        }
    };
    let reg_name = |v: specframe_ir::VarId| -> String {
        if (v.0 as usize) < f.vars.len() {
            f.vars[v.index()].name.clone()
        } else {
            let k = (v.0 - hf.first_new_var) as usize;
            hf.new_vars
                .get(k)
                .map(|(n, _)| n.clone())
                .unwrap_or_else(|| format!("v{}", v.0))
        }
    };
    let opnd = |o: &HOperand| -> String {
        match o {
            HOperand::Reg(v, ver) => format!("{}{}", reg_name(*v), ver),
            HOperand::ConstI(c) => format!("{c}"),
            HOperand::ConstF(c) => format!("{c}"),
            HOperand::GlobalAddr(g) => format!("@{}", globals[g.index()].name),
            HOperand::SlotAddr(s) => format!("&{}", f.slots[s.index()].name),
        }
    };

    writeln!(out, "hssa func {} {{", f.name).unwrap();
    for (bi, hb) in hf.blocks.iter().enumerate() {
        writeln!(out, "{}:", f.blocks[bi].name).unwrap();
        for phi in &hb.phis {
            let args: Vec<String> = phi
                .args
                .iter()
                .map(|a| format!("{}{}", vname(phi.var), a))
                .collect();
            writeln!(
                out,
                "  {}{} <- phi({})",
                vname(phi.var),
                phi.dest,
                args.join(", ")
            )
            .unwrap();
        }
        for s in &hb.stmts {
            let mut line = String::from("  ");
            match &s.kind {
                HStmtKind::Bin { dst, op, a, b } => {
                    write!(
                        line,
                        "{}{} = {} {}, {}",
                        reg_name(dst.0),
                        dst.1,
                        op,
                        opnd(a),
                        opnd(b)
                    )
                    .unwrap();
                }
                HStmtKind::Un { dst, op, a } => {
                    write!(line, "{}{} = {} {}", reg_name(dst.0), dst.1, op, opnd(a)).unwrap();
                }
                HStmtKind::Copy { dst, src } => {
                    write!(line, "{}{} = {}", reg_name(dst.0), dst.1, opnd(src)).unwrap();
                }
                HStmtKind::Load {
                    dst,
                    base,
                    offset,
                    ty,
                    spec,
                    dvar,
                    ..
                } => {
                    write!(
                        line,
                        "{}{} = load{}.{} [{} + {}]",
                        reg_name(dst.0),
                        dst.1,
                        spec.suffix(),
                        ty,
                        opnd(base),
                        offset
                    )
                    .unwrap();
                    if let Some((id, ver)) = dvar {
                        write!(line, "  (reads {}{})", vname(*id), ver).unwrap();
                    }
                }
                HStmtKind::CheckLoad {
                    dst,
                    base,
                    offset,
                    ty,
                    kind,
                    ..
                } => {
                    write!(
                        line,
                        "{}{} = {}.{} [{} + {}]",
                        reg_name(dst.0),
                        dst.1,
                        kind.mnemonic(),
                        ty,
                        opnd(base),
                        offset
                    )
                    .unwrap();
                }
                HStmtKind::Store {
                    base,
                    offset,
                    val,
                    ty,
                    dvar_def,
                    ..
                } => {
                    write!(
                        line,
                        "store.{} [{} + {}], {}",
                        ty,
                        opnd(base),
                        offset,
                        opnd(val)
                    )
                    .unwrap();
                    if let Some((id, ver)) = dvar_def {
                        write!(line, "  (defines {}{})", vname(*id), ver).unwrap();
                    }
                }
                HStmtKind::Call {
                    dst, callee, args, ..
                } => {
                    if let Some(d) = dst {
                        write!(line, "{}{} = ", reg_name(d.0), d.1).unwrap();
                    }
                    let a: Vec<String> = args.iter().map(&opnd).collect();
                    write!(
                        line,
                        "call {}({})",
                        func_names[callee.index()],
                        a.join(", ")
                    )
                    .unwrap();
                }
                HStmtKind::Alloc { dst, words, .. } => {
                    write!(line, "{}{} = alloc {}", reg_name(dst.0), dst.1, opnd(words)).unwrap();
                }
            }
            for mu in &s.mu {
                let tag = if mu.likely { "mu_s" } else { "mu" };
                write!(line, "  {}({}{})", tag, vname(mu.var), mu.ver).unwrap();
            }
            for chi in &s.chi {
                let tag = if chi.likely { "chi_s" } else { "chi" };
                write!(
                    line,
                    "  {}{} <- {}({}{})",
                    vname(chi.var),
                    chi.new_ver,
                    tag,
                    vname(chi.var),
                    chi.old_ver
                )
                .unwrap();
            }
            writeln!(out, "{line}").unwrap();
        }
        match hf.blocks[bi].term.as_ref() {
            Some(HTerm::Jump(t)) => writeln!(out, "  jmp {}", f.blocks[t.index()].name).unwrap(),
            Some(HTerm::Br { cond, then_, else_ }) => writeln!(
                out,
                "  br {}, {}, {}",
                opnd(cond),
                f.blocks[then_.index()].name,
                f.blocks[else_.index()].name
            )
            .unwrap(),
            Some(HTerm::Ret(None)) => writeln!(out, "  ret").unwrap(),
            Some(HTerm::Ret(Some(v))) => writeln!(out, "  ret {}", opnd(v)).unwrap(),
            None => writeln!(out, "  <no terminator>").unwrap(),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use crate::build::{build_in_module, SpecSource};
    use specframe_alias::AliasAnalysis;
    use specframe_ir::display::func_name_table;
    use specframe_ir::{parse_module, Module};

    fn render(m: &Module, hf: &crate::HssaFunc) -> String {
        super::print_hssa(&m.globals, &func_name_table(m), m.func(hf.func), hf)
    }

    #[test]
    fn dump_shows_chi_and_mu_with_flags() {
        let src = r#"
global a: i64[1]
global b: i64[1]

func ex1(p: ptr) -> i64 {
  var x: i64
  var y: i64
entry:
  store.i64 [@a], 1
  store.i64 [p], 4
  x = load.i64 [@a]
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
        let m = parse_module(src).unwrap();
        let aa = AliasAnalysis::analyze(&m);
        let fid = m.func_by_name("ex1").unwrap();
        let hf = build_in_module(&m, fid, &aa, SpecSource::None);
        let dump = render(&m, &hf);
        assert!(dump.contains("chi_s"), "{dump}");
        assert!(dump.contains("mu_s"), "{dump}");
        assert!(dump.contains("store.i64"), "{dump}");
        // the indirect load reads mu of the vvar and both globals
        assert!(dump.contains("(defines"), "{dump}");
    }

    #[test]
    fn dump_distinguishes_weak_updates() {
        let src = r#"
global a: i64[1]
global b: i64[1]

func f(p: ptr) {
entry:
  store.i64 [p], 4
  ret
}

func main() {
entry:
  call f(@b)
  ret
}
"#;
        let m = parse_module(src).unwrap();
        let aa = AliasAnalysis::analyze(&m);
        let fid = m.func_by_name("f").unwrap();
        // heuristic mode: chi over b is weak (printed as plain chi)
        let hf = build_in_module(&m, fid, &aa, SpecSource::Heuristic);
        let dump = render(&m, &hf);
        assert!(
            dump.contains("chi(b0)") || dump.contains("chi(vv"),
            "{dump}"
        );
    }
}
