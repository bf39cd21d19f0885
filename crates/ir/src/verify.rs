//! Structural verifier.
//!
//! Checks the invariants every later pass relies on. Run after construction
//! and after every transformation in tests; optimizations that break any of
//! these would silently corrupt downstream analyses.
//!
//! Failures carry structured attribution — the function, the block index,
//! and (when populated by the driver's verify-each hook) the pipeline pass
//! that produced the rejected IR — rendered as `pass=<p> fn=<f> bb=<n>`.

use crate::function::{Function, Module};
use crate::fx::FxHashSet;
use crate::inst::{Inst, Operand, Terminator};
use crate::types::Ty;

/// A verification failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Function in which the failure occurred, if function-local.
    pub func: Option<String>,
    /// Pipeline pass that produced the rejected IR, when known (populated
    /// by the driver's `--verify-each` hook, not by the verifier itself).
    pub pass: Option<String>,
    /// Block index the failure is anchored to, if block-local.
    pub block: Option<u32>,
    /// Human-readable description.
    pub msg: String,
}

impl VerifyError {
    /// A bare failure with no attribution.
    pub fn new(msg: impl Into<String>) -> VerifyError {
        VerifyError {
            func: None,
            pass: None,
            block: None,
            msg: msg.into(),
        }
    }

    /// Attributes the failure to a function.
    #[must_use]
    pub fn in_func(mut self, name: impl Into<String>) -> VerifyError {
        self.func = Some(name.into());
        self
    }

    /// Attributes the failure to the pipeline pass that produced the IR.
    #[must_use]
    pub fn in_pass(mut self, pass: impl Into<String>) -> VerifyError {
        self.pass = Some(pass.into());
        self
    }

    /// Anchors the failure to a block index.
    #[must_use]
    pub fn at_block(mut self, block: u32) -> VerifyError {
        self.block = Some(block);
        self
    }

    /// The `pass=<p> fn=<f> bb=<n>` attribution suffix (empty when no
    /// attribution beyond the message exists).
    pub fn location(&self) -> String {
        let mut parts = Vec::new();
        if let Some(p) = &self.pass {
            parts.push(format!("pass={p}"));
        }
        if let Some(f) = &self.func {
            parts.push(format!("fn={f}"));
        }
        if let Some(b) = self.block {
            parts.push(format!("bb={b}"));
        }
        parts.join(" ")
    }
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.pass.is_some() || self.block.is_some() {
            return write!(f, "verify error: {} [{}]", self.msg, self.location());
        }
        match &self.func {
            Some(name) => write!(f, "verify error in `{name}`: {}", self.msg),
            None => write!(f, "verify error: {}", self.msg),
        }
    }
}

impl std::error::Error for VerifyError {}

/// The callee-side facts a `call` instruction is checked against. Lets
/// [`verify_function`] run on a single function without the whole
/// [`Module`] in hand (the driver's per-worker verify-each hook).
#[derive(Debug, Clone, Copy)]
pub struct CalleeSig<'a> {
    /// Callee name (for diagnostics).
    pub name: &'a str,
    /// Declared parameter count.
    pub params: u32,
    /// Whether the callee returns a value.
    pub has_ret: bool,
}

/// Verifies a whole module.
///
/// Checked invariants:
/// * name uniqueness (globals, functions; vars/slots/blocks per function);
/// * every id (var, slot, global, block, func) is in range;
/// * every block's terminator targets exist; the entry block exists;
/// * call arity matches callee parameter count; call `dst` presence matches
///   the callee's return type;
/// * memory/call/alloc site ids are unique module-wide and below the
///   module's site counters;
/// * operand types are consistent (float operators get float-typed vars,
///   branch conditions are `i64`, stores match the declared cell type).
///
/// # Errors
/// Returns the first violated invariant.
pub fn verify_module(m: &Module) -> Result<(), VerifyError> {
    let mut names = FxHashSet::with_capacity_and_hasher(m.globals.len(), Default::default());
    for g in &m.globals {
        if !names.insert(g.name.as_str()) {
            return Err(VerifyError::new(format!(
                "duplicate global name `{}`",
                g.name
            )));
        }
        if g.init.len() > g.words as usize {
            return Err(VerifyError::new(format!(
                "global `{}` initializer exceeds size",
                g.name
            )));
        }
    }
    if let Some(n) = first_duplicate(m.funcs.iter().map(|f| f.name.as_str())) {
        return Err(VerifyError::new(format!("duplicate function name `{n}`")));
    }

    // one flag per issued site id: each id is checked against its counter
    // before its flag is read, so the flags never need to grow
    let mut mem_seen = vec![false; m.next_mem_site as usize];
    let mut call_seen = vec![false; m.next_call_site as usize];
    let mut alloc_seen = vec![false; m.next_alloc_site as usize];

    let callee = |i: usize| -> Option<CalleeSig<'_>> {
        m.funcs.get(i).map(|cf| CalleeSig {
            name: &cf.name,
            params: cf.params,
            has_ret: cf.ret_ty.is_some(),
        })
    };
    for f in &m.funcs {
        verify_function(m.globals.len(), &callee, f)?;
        for b in &f.blocks {
            for inst in &b.insts {
                match inst {
                    Inst::Load { site, .. }
                    | Inst::Store { site, .. }
                    | Inst::CheckLoad { site, .. } => {
                        if site.0 >= m.next_mem_site {
                            return Err(VerifyError::new(format!(
                                "mem site {site} beyond module counter"
                            ))
                            .in_func(&f.name));
                        }
                        if std::mem::replace(&mut mem_seen[site.index()], true) {
                            return Err(VerifyError::new(format!("duplicate mem site {site}"))
                                .in_func(&f.name));
                        }
                    }
                    Inst::Call { site, .. }
                        if (site.0 >= m.next_call_site
                            || std::mem::replace(&mut call_seen[site.index()], true)) =>
                    {
                        return Err(
                            VerifyError::new(format!("bad call site {site}")).in_func(&f.name)
                        );
                    }
                    Inst::Alloc { site, .. }
                        if (site.0 >= m.next_alloc_site
                            || std::mem::replace(&mut alloc_seen[site.index()], true)) =>
                    {
                        return Err(
                            VerifyError::new(format!("bad alloc site {site}")).in_func(&f.name)
                        );
                    }
                    _ => {}
                }
            }
        }
    }
    Ok(())
}

/// Verifies one function against its surrounding context: the module's
/// global count and a callee-signature lookup. This is the per-function
/// half of [`verify_module`], public so the driver's verify-each hook can
/// run it inside parallel workers without the (partially moved-out)
/// module. Site-id uniqueness is inherently module-wide and stays in
/// [`verify_module`].
///
/// # Errors
/// Returns the first violated invariant, attributed to the function and
/// (for per-block checks) the block index.
pub fn verify_function<'m>(
    n_globals: usize,
    callee: &dyn Fn(usize) -> Option<CalleeSig<'m>>,
    f: &Function,
) -> Result<(), VerifyError> {
    let fail = |msg: String| VerifyError::new(msg).in_func(&f.name);
    if f.blocks.is_empty() {
        return Err(fail("function has no blocks".into()));
    }
    if (f.params as usize) > f.vars.len() {
        return Err(fail("more params than vars".into()));
    }

    if let Some(n) = first_duplicate(f.vars.iter().map(|v| v.name.as_str())) {
        return Err(fail(format!("duplicate var name `{n}`")));
    }
    if let Some(n) = first_duplicate(f.slots.iter().map(|s| s.name.as_str())) {
        return Err(fail(format!("duplicate slot name `{n}`")));
    }
    if let Some(n) = first_duplicate(f.blocks.iter().map(|b| b.name.as_str())) {
        return Err(fail(format!("duplicate block name `{n}`")));
    }

    for (bi, b) in f.blocks.iter().enumerate() {
        verify_block(n_globals, callee, f, b).map_err(|msg| fail(msg).at_block(bi as u32))?;
    }
    Ok(())
}

/// The first name that repeats an earlier one.
fn first_duplicate<'a>(mut names: impl ExactSizeIterator<Item = &'a str>) -> Option<&'a str> {
    let mut seen = FxHashSet::with_capacity_and_hasher(names.len(), Default::default());
    names.find(|n| !seen.insert(*n))
}

/// The per-block invariants of [`verify_function`], with string errors
/// so the caller can attach block attribution in one place.
fn verify_block<'m>(
    n_globals: usize,
    callee: &dyn Fn(usize) -> Option<CalleeSig<'m>>,
    f: &Function,
    b: &crate::function::Block,
) -> Result<(), String> {
    let check_opnd = |o: Operand| -> Result<(), String> {
        match o {
            Operand::Var(v) if v.index() >= f.vars.len() => {
                return Err(format!("var {v} out of range"));
            }
            Operand::GlobalAddr(g) if g.index() >= n_globals => {
                return Err(format!("global {g} out of range"));
            }
            Operand::SlotAddr(s) if s.index() >= f.slots.len() => {
                return Err(format!("slot {s} out of range"));
            }
            _ => {}
        }
        Ok(())
    };

    let var_ty = |o: Operand| -> Option<Ty> {
        match o {
            Operand::Var(v) => Some(f.vars[v.index()].ty),
            Operand::ConstI(_) => Some(Ty::I64),
            Operand::ConstF(_) => Some(Ty::F64),
            Operand::GlobalAddr(_) | Operand::SlotAddr(_) => Some(Ty::Ptr),
        }
    };
    let num_compat = |t: Ty, want_float: bool| -> bool {
        if want_float {
            t == Ty::F64
        } else {
            t != Ty::F64
        }
    };

    for inst in &b.insts {
        for u in inst.uses() {
            check_opnd(u)?;
        }
        if let Some(d) = inst.def() {
            if d.index() >= f.vars.len() {
                return Err(format!("def var {d} out of range"));
            }
        }
        match inst {
            Inst::Bin { op, a, b: bb, dst } => {
                let wf = op.takes_float();
                for o in [*a, *bb] {
                    if let Some(t) = var_ty(o) {
                        if !num_compat(t, wf) {
                            return Err(format!(
                                "operand type {t} incompatible with `{}`",
                                op.mnemonic()
                            ));
                        }
                    }
                }
                if f.vars[dst.index()].ty != op.result_ty()
                    && !(op.result_ty() == Ty::I64 && f.vars[dst.index()].ty == Ty::Ptr)
                {
                    return Err(format!(
                        "dst of `{}` has type {}, expected {}",
                        op.mnemonic(),
                        f.vars[dst.index()].ty,
                        op.result_ty()
                    ));
                }
            }
            Inst::Load { dst, ty, base, .. } | Inst::CheckLoad { dst, ty, base, .. } => {
                if let Some(bt) = var_ty(*base) {
                    if bt == Ty::F64 {
                        return Err("load base must be integral".into());
                    }
                }
                let dt = f.vars[dst.index()].ty;
                let compat = match ty {
                    Ty::F64 => dt == Ty::F64,
                    _ => dt != Ty::F64,
                };
                if !compat {
                    return Err(format!("load of {ty} into {dt} register"));
                }
            }
            Inst::Store { base, val, ty, .. } => {
                if let Some(bt) = var_ty(*base) {
                    if bt == Ty::F64 {
                        return Err("store base must be integral".into());
                    }
                }
                if let Some(vt) = var_ty(*val) {
                    let compat = match ty {
                        Ty::F64 => vt == Ty::F64,
                        _ => vt != Ty::F64,
                    };
                    if !compat {
                        return Err(format!("store of {vt} value as {ty}"));
                    }
                }
            }
            Inst::Call {
                dst,
                callee: target,
                args,
                ..
            } => {
                let Some(sig) = callee(target.index()) else {
                    return Err(format!("callee {target} out of range"));
                };
                if args.len() != sig.params as usize {
                    return Err(format!(
                        "call to `{}` passes {} args, expects {}",
                        sig.name,
                        args.len(),
                        sig.params
                    ));
                }
                if dst.is_some() && !sig.has_ret {
                    return Err(format!("call to void `{}` has a destination", sig.name));
                }
            }
            _ => {}
        }
    }
    match &b.term {
        Terminator::Jump(t) => {
            if t.index() >= f.blocks.len() {
                return Err(format!("jump target {t} out of range"));
            }
        }
        Terminator::Br { cond, then_, else_ } => {
            check_opnd(*cond)?;
            if let Some(t) = var_ty(*cond) {
                if t == Ty::F64 {
                    return Err("branch condition must be integral".into());
                }
            }
            for t in [then_, else_] {
                if t.index() >= f.blocks.len() {
                    return Err(format!("branch target {t} out of range"));
                }
            }
        }
        Terminator::Ret(v) => {
            if let Some(v) = v {
                check_opnd(*v)?;
                if f.ret_ty.is_none() {
                    return Err("void function returns a value".into());
                }
            } else if f.ret_ty.is_some() {
                return Err("non-void function returns nothing".into());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::ids::{BlockId, MemSiteId, VarId};
    use crate::inst::BinOp;

    #[test]
    fn accepts_well_formed() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("ok", &[("x", Ty::I64)], Some(Ty::I64));
        {
            let mut fb = mb.define(f);
            let x = fb.param(0);
            let y = fb.bin(BinOp::Add, x.into(), 1.into());
            fb.ret(Some(y.into()));
        }
        verify_module(&mb.finish()).unwrap();
    }

    #[test]
    fn rejects_bad_branch_target() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("bad", &[], None);
        {
            let mut fb = mb.define(f);
            fb.jmp(BlockId(7));
        }
        let e = verify_module(&mb.finish()).unwrap_err();
        assert!(e.msg.contains("jump target"));
        assert_eq!(e.func.as_deref(), Some("bad"));
        assert_eq!(e.block, Some(0));
    }

    #[test]
    fn rejects_type_mismatch() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("bad", &[("x", Ty::F64)], None);
        {
            let mut fb = mb.define(f);
            let x = fb.param(0);
            fb.bin(BinOp::Add, x.into(), 1.into()); // int add on f64
            fb.ret(None);
        }
        let e = verify_module(&mb.finish()).unwrap_err();
        assert!(e.msg.contains("incompatible"));
    }

    #[test]
    fn rejects_duplicate_mem_site() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("bad", &[("p", Ty::Ptr)], None);
        {
            let mut fb = mb.define(f);
            let p = fb.param(0);
            fb.load(p.into(), 0, Ty::I64);
            fb.load(p.into(), 1, Ty::I64);
            fb.ret(None);
        }
        let mut m = mb.finish();
        // forge a duplicate site
        if let Inst::Load { site, .. } = &mut m.funcs[0].blocks[0].insts[1] {
            *site = MemSiteId(0);
        }
        let e = verify_module(&m).unwrap_err();
        assert!(e.msg.contains("duplicate mem site"));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let mut mb = ModuleBuilder::new();
        let callee = mb.declare_func("two", &[("a", Ty::I64), ("b", Ty::I64)], None);
        let f = mb.declare_func("bad", &[], None);
        {
            let mut fb = mb.define(f);
            fb.call(callee, &[1.into()]);
            fb.ret(None);
        }
        let e = verify_module(&mb.finish()).unwrap_err();
        assert!(e.msg.contains("args"));
    }

    #[test]
    fn rejects_out_of_range_var() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("bad", &[], None);
        {
            let mut fb = mb.define(f);
            fb.ret(None);
        }
        let mut m = mb.finish();
        m.funcs[0].blocks[0].insts.push(Inst::Copy {
            dst: VarId(9),
            src: Operand::ConstI(0),
        });
        assert!(verify_module(&m).is_err());
    }

    #[test]
    fn rejects_void_return_mismatch() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("bad", &[], Some(Ty::I64));
        {
            let mut fb = mb.define(f);
            fb.ret(None);
        }
        let e = verify_module(&mb.finish()).unwrap_err();
        assert!(e.msg.contains("returns nothing"));
    }

    #[test]
    fn display_appends_pass_attribution() {
        let plain = VerifyError::new("boom").in_func("f");
        assert_eq!(plain.to_string(), "verify error in `f`: boom");
        let rich = VerifyError::new("boom")
            .in_func("f")
            .in_pass("strength")
            .at_block(3);
        assert_eq!(rich.location(), "pass=strength fn=f bb=3");
        assert_eq!(
            rich.to_string(),
            "verify error: boom [pass=strength fn=f bb=3]"
        );
    }
}
