//! Programmatic IR construction.
//!
//! The builders are how the synthetic workloads in `specframe-workloads`
//! are written. [`ModuleBuilder`] owns the module and hands out fresh site
//! ids; [`FuncBuilder`] provides a cursor-style API over one function.
//!
//! ```
//! use specframe_ir::{BinOp, ModuleBuilder, Operand, Ty};
//!
//! let mut mb = ModuleBuilder::new();
//! let g = mb.global("counter", 1, Ty::I64);
//! let f = mb.declare_func("bump", &[("n", Ty::I64)], Some(Ty::I64));
//! {
//!     let mut fb = mb.define(f);
//!     let n = fb.param(0);
//!     let old = fb.load(Operand::GlobalAddr(g), 0, Ty::I64);
//!     let new = fb.bin(BinOp::Add, old.into(), n.into());
//!     fb.store(Operand::GlobalAddr(g), 0, new.into(), Ty::I64);
//!     fb.ret(Some(new.into()));
//! }
//! let module = mb.finish();
//! assert_eq!(module.funcs[0].name, "bump");
//! ```

use crate::function::{Block, Function, Global, Module, SlotDecl, VarDecl};
use crate::ids::{BlockId, FuncId, GlobalId, SlotId, VarId};
use crate::inst::{BinOp, CheckKind, Inst, LoadSpec, Operand, Terminator, UnOp};
use crate::types::{Ty, Value};

/// Builds a [`Module`], issuing globally unique site ids.
#[derive(Debug, Default)]
pub struct ModuleBuilder {
    module: Module,
}

impl ModuleBuilder {
    /// Creates an empty module builder.
    pub fn new() -> ModuleBuilder {
        ModuleBuilder::default()
    }

    /// Adds a zero-initialized global of `words` cells.
    pub fn global(&mut self, name: impl Into<String>, words: u32, ty: Ty) -> GlobalId {
        let id = GlobalId::from_index(self.module.globals.len());
        self.module.globals.push(Global {
            name: name.into(),
            words,
            ty,
            init: Vec::new(),
        });
        id
    }

    /// Adds a global with an explicit initializer.
    pub fn global_init(&mut self, name: impl Into<String>, ty: Ty, init: Vec<Value>) -> GlobalId {
        let words = u32::try_from(init.len()).expect("global too large");
        let id = GlobalId::from_index(self.module.globals.len());
        self.module.globals.push(Global {
            name: name.into(),
            words,
            ty,
            init,
        });
        id
    }

    /// Declares a function (so calls to it can be emitted before its body
    /// exists) and returns its id. The body starts as a single `ret`.
    pub fn declare_func(
        &mut self,
        name: impl Into<String>,
        params: &[(&str, Ty)],
        ret_ty: Option<Ty>,
    ) -> FuncId {
        let id = FuncId::from_index(self.module.funcs.len());
        let vars = params
            .iter()
            .map(|(n, t)| VarDecl {
                name: (*n).to_string(),
                ty: *t,
            })
            .collect();
        self.module.funcs.push(Function {
            name: name.into(),
            params: params.len() as u32,
            ret_ty,
            vars,
            slots: Vec::new(),
            blocks: vec![Block::new("entry")],
        });
        id
    }

    /// Opens a cursor over a previously declared function. Any existing body
    /// is discarded (the entry block is reset).
    pub fn define(&mut self, func: FuncId) -> FuncBuilder<'_> {
        let f = &mut self.module.funcs[func.index()];
        f.blocks = vec![Block::new("entry")];
        f.vars.truncate(f.params as usize);
        f.slots.clear();
        FuncBuilder {
            mb: self,
            func,
            cur: BlockId(0),
            sealed: false,
            temps: 0,
        }
    }

    /// Finishes construction and returns the module.
    pub fn finish(self) -> Module {
        self.module
    }

    /// Read-only view of the module under construction.
    pub fn module(&self) -> &Module {
        &self.module
    }
}

/// Cursor-style builder over one function.
///
/// The cursor points at the *current block*; emission methods append to it.
/// A block is terminated by [`FuncBuilder::jmp`], [`FuncBuilder::br`] or
/// [`FuncBuilder::ret`], after which the cursor must be moved with
/// [`FuncBuilder::switch_to`].
#[derive(Debug)]
pub struct FuncBuilder<'m> {
    mb: &'m mut ModuleBuilder,
    func: FuncId,
    cur: BlockId,
    sealed: bool,
    temps: u32,
}

impl FuncBuilder<'_> {
    fn f(&mut self) -> &mut Function {
        &mut self.mb.module.funcs[self.func.index()]
    }

    /// The `i`-th parameter's register.
    pub fn param(&self, i: u32) -> VarId {
        let f = &self.mb.module.funcs[self.func.index()];
        assert!(i < f.params, "param index out of range");
        VarId(i)
    }

    /// Declares a named register.
    pub fn var(&mut self, name: impl Into<String>, ty: Ty) -> VarId {
        self.f().new_var(name, ty)
    }

    /// Declares an anonymous temporary register.
    pub fn temp(&mut self, ty: Ty) -> VarId {
        let n = self.temps;
        self.temps += 1;
        self.f().new_var(format!("t{n}"), ty)
    }

    /// Declares a stack slot of `words` cells.
    pub fn slot(&mut self, name: impl Into<String>, words: u32, ty: Ty) -> SlotId {
        let f = self.f();
        let id = SlotId::from_index(f.slots.len());
        f.slots.push(SlotDecl {
            name: name.into(),
            words,
            ty,
        });
        id
    }

    /// Creates a new (unterminated) block; does not move the cursor.
    pub fn block(&mut self, name: impl Into<String>) -> BlockId {
        self.f().new_block(name)
    }

    /// Moves the cursor to `b`.
    pub fn switch_to(&mut self, b: BlockId) {
        self.cur = b;
        self.sealed = false;
    }

    /// The block the cursor currently points at.
    pub fn current(&self) -> BlockId {
        self.cur
    }

    fn push(&mut self, inst: Inst) {
        assert!(!self.sealed, "emitting into a terminated block");
        let cur = self.cur;
        self.f().block_mut(cur).insts.push(inst);
    }

    /// Emits `dst = op a, b` into a fresh temp and returns it.
    pub fn bin(&mut self, op: BinOp, a: Operand, b: Operand) -> VarId {
        let dst = self.temp(op.result_ty());
        self.push(Inst::Bin { dst, op, a, b });
        dst
    }

    /// Emits `dst = op a, b` into an existing register.
    pub fn bin_to(&mut self, dst: VarId, op: BinOp, a: Operand, b: Operand) {
        self.push(Inst::Bin { dst, op, a, b });
    }

    /// Emits `dst = op a` into a fresh temp and returns it.
    pub fn un(&mut self, op: UnOp, a: Operand) -> VarId {
        let dst = self.temp(op.result_ty());
        self.push(Inst::Un { dst, op, a });
        dst
    }

    /// Emits `dst = src`.
    pub fn copy_to(&mut self, dst: VarId, src: Operand) {
        self.push(Inst::Copy { dst, src });
    }

    /// Emits a load into a fresh temp and returns it.
    pub fn load(&mut self, base: Operand, offset: i64, ty: Ty) -> VarId {
        let dst = self.temp(ty);
        self.load_to(dst, base, offset, ty);
        dst
    }

    /// Emits a load into an existing register.
    pub fn load_to(&mut self, dst: VarId, base: Operand, offset: i64, ty: Ty) {
        let site = self.mb.module.fresh_mem_site();
        self.push(Inst::Load {
            dst,
            base,
            offset,
            ty,
            spec: LoadSpec::Normal,
            site,
        });
    }

    /// Emits a store.
    pub fn store(&mut self, base: Operand, offset: i64, val: Operand, ty: Ty) {
        let site = self.mb.module.fresh_mem_site();
        self.push(Inst::Store {
            base,
            offset,
            val,
            ty,
            site,
        });
    }

    /// Emits a check load (used by tests that hand-build speculative code;
    /// the optimizer normally emits these).
    pub fn check_load_to(
        &mut self,
        dst: VarId,
        base: Operand,
        offset: i64,
        ty: Ty,
        kind: CheckKind,
    ) {
        let site = self.mb.module.fresh_mem_site();
        self.push(Inst::CheckLoad {
            dst,
            base,
            offset,
            ty,
            kind,
            site,
        });
    }

    /// Emits a call, returning the destination temp if `callee` returns a
    /// value.
    pub fn call(&mut self, callee: FuncId, args: &[Operand]) -> Option<VarId> {
        let ret_ty = self.mb.module.funcs[callee.index()].ret_ty;
        let dst = ret_ty.map(|t| self.temp(t));
        let site = self.mb.module.fresh_call_site();
        self.push(Inst::Call {
            dst,
            callee,
            args: args.to_vec(),
            site,
        });
        dst
    }

    /// Emits a heap allocation of `words` cells, returning the pointer temp.
    pub fn alloc(&mut self, words: Operand) -> VarId {
        let dst = self.temp(Ty::Ptr);
        let site = self.mb.module.fresh_alloc_site();
        self.push(Inst::Alloc { dst, words, site });
        dst
    }

    fn terminate(&mut self, t: Terminator) {
        assert!(!self.sealed, "block already terminated");
        let cur = self.cur;
        self.f().block_mut(cur).term = t;
        self.sealed = true;
    }

    /// Terminates the current block with `jmp target`.
    pub fn jmp(&mut self, target: BlockId) {
        self.terminate(Terminator::Jump(target));
    }

    /// Terminates the current block with a conditional branch.
    pub fn br(&mut self, cond: Operand, then_: BlockId, else_: BlockId) {
        self.terminate(Terminator::Br { cond, then_, else_ });
    }

    /// Terminates the current block with a return.
    pub fn ret(&mut self, val: Option<Operand>) {
        self.terminate(Terminator::Ret(val));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_loop() {
        let mut mb = ModuleBuilder::new();
        let g = mb.global("sum", 1, Ty::I64);
        let f = mb.declare_func("count", &[("n", Ty::I64)], Some(Ty::I64));
        {
            let mut fb = mb.define(f);
            let n = fb.param(0);
            let i = fb.var("i", Ty::I64);
            fb.copy_to(i, Operand::ConstI(0));
            let head = fb.block("head");
            let body = fb.block("body");
            let exit = fb.block("exit");
            fb.jmp(head);
            fb.switch_to(head);
            let c = fb.bin(BinOp::Lt, i.into(), n.into());
            fb.br(c.into(), body, exit);
            fb.switch_to(body);
            let s = fb.load(Operand::GlobalAddr(g), 0, Ty::I64);
            let s2 = fb.bin(BinOp::Add, s.into(), 1.into());
            fb.store(Operand::GlobalAddr(g), 0, s2.into(), Ty::I64);
            fb.bin_to(i, BinOp::Add, i.into(), 1.into());
            fb.jmp(head);
            fb.switch_to(exit);
            let r = fb.load(Operand::GlobalAddr(g), 0, Ty::I64);
            fb.ret(Some(r.into()));
        }
        let m = mb.finish();
        assert_eq!(m.funcs.len(), 1);
        assert_eq!(m.funcs[0].blocks.len(), 4);
        // 3 loads/stores got distinct sites
        assert_eq!(m.next_mem_site, 3);
        crate::verify::verify_module(&m).unwrap();
    }

    #[test]
    #[should_panic(expected = "already terminated")]
    fn double_terminate_panics() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("t", &[], None);
        let mut fb = mb.define(f);
        fb.ret(None);
        fb.ret(None);
    }

    #[test]
    #[should_panic(expected = "terminated block")]
    fn emit_after_terminator_panics() {
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("t", &[], None);
        let mut fb = mb.define(f);
        fb.ret(None);
        fb.bin(BinOp::Add, 1.into(), 2.into());
    }

    #[test]
    fn call_gets_ret_temp() {
        let mut mb = ModuleBuilder::new();
        let callee = mb.declare_func("id", &[("x", Ty::I64)], Some(Ty::I64));
        {
            let mut fb = mb.define(callee);
            let x = fb.param(0);
            fb.ret(Some(x.into()));
        }
        let caller = mb.declare_func("main", &[], Some(Ty::I64));
        {
            let mut fb = mb.define(caller);
            let r = fb.call(callee, &[5.into()]).unwrap();
            fb.ret(Some(r.into()));
        }
        let m = mb.finish();
        assert_eq!(m.next_call_site, 1);
        crate::verify::verify_module(&m).unwrap();
    }
}
