//! Pretty printer.
//!
//! Output round-trips through [`crate::parse::parse_module`] up to site-id
//! renumbering: `print(parse(print(m))) == print(m)`.

use crate::function::{Function, Global, Module};
use crate::ids::VarId;
use crate::inst::{Inst, Operand, Terminator};
use crate::types::{Ty, Value};
use core::fmt::Write;

/// Renders a whole module in the textual IR syntax.
pub fn print_module(m: &Module) -> String {
    let mut out = String::new();
    for g in &m.globals {
        write!(out, "global {}: {}[{}]", g.name, g.ty, g.words).unwrap();
        if !g.init.is_empty() {
            out.push_str(" = [");
            for (i, v) in g.init.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                print_value(&mut out, *v);
            }
            out.push(']');
        }
        out.push('\n');
    }
    if !m.globals.is_empty() {
        out.push('\n');
    }
    let names = func_name_table(m);
    for f in &m.funcs {
        print_function_in(&mut out, &m.globals, &names, f);
        out.push('\n');
    }
    out
}

/// The function-name table (indexed by `FuncId`) that
/// [`print_function_in`] resolves call targets against. Cloned out of the
/// module once so printing can proceed on a bare [`Function`] — e.g. in a
/// parallel pipeline worker that owns no module.
pub fn func_name_table(m: &Module) -> Vec<String> {
    m.funcs.iter().map(|f| f.name.clone()).collect()
}

fn print_value(out: &mut String, v: Value) {
    match v {
        Value::I(x) => write!(out, "{x}").unwrap(),
        Value::F(x) => push_f64(out, x),
        Value::Nat => out.push_str("NaT"),
    }
}

/// Writes a float so the lexer reads it back as the same float: an
/// integral value below 1e15 as `3.0`, a larger one in `{:?}` form
/// (`1000000000000000.0`, `1e16`) because `{}` would print it as an
/// integer literal, and anything else with `{}`.
fn push_f64(out: &mut String, x: f64) {
    if x.fract() == 0.0 && x.is_finite() {
        if x.abs() < 1e15 {
            write!(out, "{x:.1}").unwrap()
        } else {
            write!(out, "{x:?}").unwrap()
        }
    } else {
        write!(out, "{x}").unwrap()
    }
}

/// Renders one function.
pub fn print_function(out: &mut String, m: &Module, f: &Function) {
    print_function_in(out, &m.globals, &func_name_table(m), f);
}

/// [`print_function`] over the pieces of module state a parallel worker
/// actually owns: the global table and the [`func_name_table`]. Byte-for-
/// byte identical to printing through the module.
pub fn print_function_in(
    out: &mut String,
    globals: &[Global],
    func_names: &[String],
    f: &Function,
) {
    out.push_str("func ");
    out.push_str(&f.name);
    out.push('(');
    for (i, d) in f.vars[..f.params as usize].iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_decl(out, &d.name, d.ty);
    }
    out.push(')');
    if let Some(t) = f.ret_ty {
        out.push_str(" -> ");
        out.push_str(t.name());
    }
    out.push_str(" {\n");
    for d in &f.vars[f.params as usize..] {
        out.push_str("  var ");
        push_decl(out, &d.name, d.ty);
        out.push('\n');
    }
    for s in &f.slots {
        out.push_str("  slot ");
        push_decl(out, &s.name, s.ty);
        writeln!(out, "[{}]", s.words).unwrap();
    }
    for b in &f.blocks {
        out.push_str(&b.name);
        out.push_str(":\n");
        for inst in &b.insts {
            out.push_str("  ");
            print_inst(out, globals, func_names, f, inst);
            out.push('\n');
        }
        out.push_str("  ");
        print_term(out, f, &b.term);
        out.push('\n');
    }
    out.push_str("}\n");
}

/// Writes `name: ty`.
fn push_decl(out: &mut String, name: &str, ty: Ty) {
    out.push_str(name);
    out.push_str(": ");
    out.push_str(ty.name());
}

fn push_opnd(out: &mut String, globals: &[Global], f: &Function, o: Operand) {
    match o {
        Operand::Var(v) => out.push_str(&f.vars[v.index()].name),
        Operand::ConstI(c) => write!(out, "{c}").unwrap(),
        Operand::ConstF(c) => push_f64(out, c),
        Operand::GlobalAddr(g) => {
            out.push('@');
            out.push_str(&globals[g.index()].name);
        }
        Operand::SlotAddr(s) => {
            out.push('&');
            out.push_str(&f.slots[s.index()].name);
        }
    }
}

/// Writes ` [base + offset]`, with the leading space.
fn push_addr(out: &mut String, globals: &[Global], f: &Function, base: Operand, offset: i64) {
    out.push_str(" [");
    push_opnd(out, globals, f, base);
    if offset > 0 {
        write!(out, " + {offset}").unwrap();
    } else if offset < 0 {
        write!(out, " - {}", -offset).unwrap();
    }
    out.push(']');
}

/// Writes `dst = `.
fn push_def(out: &mut String, f: &Function, dst: VarId) {
    out.push_str(&f.vars[dst.index()].name);
    out.push_str(" = ");
}

fn print_inst(
    out: &mut String,
    globals: &[Global],
    func_names: &[String],
    f: &Function,
    inst: &Inst,
) {
    match inst {
        Inst::Bin { dst, op, a, b } => {
            push_def(out, f, *dst);
            out.push_str(op.mnemonic());
            out.push(' ');
            push_opnd(out, globals, f, *a);
            out.push_str(", ");
            push_opnd(out, globals, f, *b);
        }
        Inst::Un { dst, op, a } => {
            push_def(out, f, *dst);
            out.push_str(op.mnemonic());
            out.push(' ');
            push_opnd(out, globals, f, *a);
        }
        Inst::Copy { dst, src } => {
            push_def(out, f, *dst);
            push_opnd(out, globals, f, *src);
        }
        Inst::Load {
            dst,
            base,
            offset,
            ty,
            spec,
            ..
        } => {
            push_def(out, f, *dst);
            out.push_str("load");
            out.push_str(spec.suffix());
            out.push('.');
            out.push_str(ty.name());
            push_addr(out, globals, f, *base, *offset);
        }
        Inst::Store {
            base,
            offset,
            val,
            ty,
            ..
        } => {
            out.push_str("store.");
            out.push_str(ty.name());
            push_addr(out, globals, f, *base, *offset);
            out.push_str(", ");
            push_opnd(out, globals, f, *val);
        }
        Inst::CheckLoad {
            dst,
            base,
            offset,
            ty,
            kind,
            ..
        } => {
            push_def(out, f, *dst);
            out.push_str(kind.mnemonic());
            out.push('.');
            out.push_str(ty.name());
            push_addr(out, globals, f, *base, *offset);
        }
        Inst::Call {
            dst, callee, args, ..
        } => {
            if let Some(d) = dst {
                push_def(out, f, *d);
            }
            out.push_str("call ");
            out.push_str(&func_names[callee.index()]);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                push_opnd(out, globals, f, *a);
            }
            out.push(')');
        }
        Inst::Alloc { dst, words, .. } => {
            push_def(out, f, *dst);
            out.push_str("alloc ");
            push_opnd(out, globals, f, *words);
        }
    }
}

fn print_term(out: &mut String, f: &Function, t: &Terminator) {
    match t {
        Terminator::Jump(b) => {
            out.push_str("jmp ");
            out.push_str(&f.blocks[b.index()].name);
        }
        Terminator::Br { cond, then_, else_ } => {
            out.push_str("br ");
            match cond {
                Operand::Var(v) => out.push_str(&f.vars[v.index()].name),
                Operand::ConstI(c) => write!(out, "{c}").unwrap(),
                _ => unreachable!("br condition must be var or int const"),
            }
            out.push_str(", ");
            out.push_str(&f.blocks[then_.index()].name);
            out.push_str(", ");
            out.push_str(&f.blocks[else_.index()].name);
        }
        Terminator::Ret(None) => out.push_str("ret"),
        Terminator::Ret(Some(v)) => {
            out.push_str("ret ");
            match v {
                Operand::Var(x) => out.push_str(&f.vars[x.index()].name),
                Operand::ConstI(c) => write!(out, "{c}").unwrap(),
                Operand::ConstF(c) => write!(out, "{c:?}").unwrap(),
                _ => unreachable!("ret value must be var or const"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::inst::BinOp;
    use crate::types::Ty;

    #[test]
    fn prints_simple_function() {
        let mut mb = ModuleBuilder::new();
        let g = mb.global("g", 2, Ty::F64);
        let f = mb.declare_func("f", &[("x", Ty::I64)], Some(Ty::F64));
        {
            let mut fb = mb.define(f);
            let v = fb.load(Operand::GlobalAddr(g), 1, Ty::F64);
            let w = fb.bin(BinOp::FAdd, v.into(), 1.5.into());
            fb.ret(Some(w.into()));
        }
        let m = mb.finish();
        let s = print_module(&m);
        assert!(s.contains("global g: f64[2]"));
        assert!(s.contains("func f(x: i64) -> f64 {"));
        assert!(s.contains("t0 = load.f64 [@g + 1]"));
        assert!(s.contains("t1 = fadd t0, 1.5"));
        assert!(s.contains("ret t1"));
    }

    use crate::inst::Operand;

    #[test]
    fn negative_offset_prints_minus() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("f", &[("p", Ty::Ptr)], None);
        {
            let mut fb = mb.define(f);
            let p = fb.param(0);
            fb.load(Operand::Var(p), -2, Ty::I64);
            fb.ret(None);
        }
        let s = print_module(&mb.finish());
        assert!(s.contains("[p - 2]"), "{s}");
    }
}
