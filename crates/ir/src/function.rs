//! Blocks, functions, globals and modules.

use crate::ids::{AllocSiteId, BlockId, CallSiteId, FuncId, GlobalId, MemSiteId, SlotId, VarId};
use crate::inst::{Inst, Terminator};
use crate::types::{Ty, Value};

/// A basic block: straight-line instructions plus one terminator.
#[derive(Clone, Debug, PartialEq)]
pub struct Block {
    /// Human-readable label (unique within the function).
    pub name: String,
    /// Straight-line body.
    pub insts: Vec<Inst>,
    /// Control transfer out of the block.
    pub term: Terminator,
}

impl Block {
    /// An empty block ending in `ret` (placeholder until sealed).
    pub fn new(name: impl Into<String>) -> Block {
        Block {
            name: name.into(),
            insts: Vec::new(),
            term: Terminator::Ret(None),
        }
    }
}

/// A register declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct VarDecl {
    /// Human-readable name (unique within the function).
    pub name: String,
    /// Register type.
    pub ty: Ty,
}

/// A stack slot declaration: addressable local memory.
///
/// Slots are the IR encoding of address-taken locals and local
/// arrays/structs — the "real variables" that participate in χ/μ aliasing.
#[derive(Clone, Debug, PartialEq)]
pub struct SlotDecl {
    /// Human-readable name (unique within the function).
    pub name: String,
    /// Size in 8-byte words.
    pub words: u32,
    /// Element type, for TBAA.
    pub ty: Ty,
}

/// A function definition.
#[derive(Clone, Debug, PartialEq)]
pub struct Function {
    /// Function name (unique within the module).
    pub name: String,
    /// The first `params` entries of `vars` are the parameters, in order.
    pub params: u32,
    /// Return type, if the function returns a value.
    pub ret_ty: Option<Ty>,
    /// All registers, parameters first.
    pub vars: Vec<VarDecl>,
    /// All stack slots.
    pub slots: Vec<SlotDecl>,
    /// All basic blocks; `blocks[0]` is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// The entry block id.
    #[inline]
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Iterates over block ids in layout order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Immutable block access.
    #[inline]
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.index()]
    }

    /// Mutable block access.
    #[inline]
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.index()]
    }

    /// The declared type of a register.
    #[inline]
    pub fn var_ty(&self, v: VarId) -> Ty {
        self.vars[v.index()].ty
    }

    /// Appends a fresh register and returns its id.
    pub fn new_var(&mut self, name: impl Into<String>, ty: Ty) -> VarId {
        let id = VarId::from_index(self.vars.len());
        self.vars.push(VarDecl {
            name: name.into(),
            ty,
        });
        id
    }

    /// Appends a fresh (empty, `ret`-terminated) block and returns its id.
    pub fn new_block(&mut self, name: impl Into<String>) -> BlockId {
        let id = BlockId::from_index(self.blocks.len());
        self.blocks.push(Block::new(name));
        id
    }

    /// Predecessor lists for every block, in one pass.
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for b in self.block_ids() {
            for s in self.block(b).term.successors() {
                preds[s.index()].push(b);
            }
        }
        preds
    }

    /// Total instruction count (for size reporting).
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// A module-level global memory object.
#[derive(Clone, Debug)]
pub struct Global {
    /// Global name (unique within the module).
    pub name: String,
    /// Size in 8-byte words.
    pub words: u32,
    /// Element type, for TBAA.
    pub ty: Ty,
    /// Optional initializer; missing cells are zero of `ty`.
    pub init: Vec<Value>,
}

/// A whole program: globals plus functions, with module-wide site counters.
///
/// The site counters make every memory reference, call and allocation in the
/// module uniquely identifiable, which is what lets alias profiles collected
/// by `specframe-profile` be consumed later by `specframe-hssa` even after
/// optimizations shuffle instructions around.
#[derive(Clone, Debug, Default)]
pub struct Module {
    /// All globals.
    pub globals: Vec<Global>,
    /// All functions.
    pub funcs: Vec<Function>,
    /// Next unissued memory-site id.
    pub next_mem_site: u32,
    /// Next unissued allocation-site id.
    pub next_alloc_site: u32,
    /// Next unissued call-site id.
    pub next_call_site: u32,
}

impl Module {
    /// Creates an empty module.
    pub fn new() -> Module {
        Module::default()
    }

    /// Looks a function up by name.
    pub fn func_by_name(&self, name: &str) -> Option<FuncId> {
        self.funcs
            .iter()
            .position(|f| f.name == name)
            .map(FuncId::from_index)
    }

    /// Looks a global up by name.
    pub fn global_by_name(&self, name: &str) -> Option<GlobalId> {
        self.globals
            .iter()
            .position(|g| g.name == name)
            .map(GlobalId::from_index)
    }

    /// Immutable function access.
    #[inline]
    pub fn func(&self, f: FuncId) -> &Function {
        &self.funcs[f.index()]
    }

    /// Mutable function access.
    #[inline]
    pub fn func_mut(&mut self, f: FuncId) -> &mut Function {
        &mut self.funcs[f.index()]
    }

    /// Issues a fresh memory-reference site id.
    pub fn fresh_mem_site(&mut self) -> MemSiteId {
        let id = MemSiteId(self.next_mem_site);
        self.next_mem_site += 1;
        id
    }

    /// Issues a fresh allocation site id.
    pub fn fresh_alloc_site(&mut self) -> AllocSiteId {
        let id = AllocSiteId(self.next_alloc_site);
        self.next_alloc_site += 1;
        id
    }

    /// Issues a fresh call site id.
    pub fn fresh_call_site(&mut self) -> CallSiteId {
        let id = CallSiteId(self.next_call_site);
        self.next_call_site += 1;
        id
    }

    /// Total instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(Function::inst_count).sum()
    }

    /// Static layout of global memory: returns, for each global, its base
    /// word address, laying globals out contiguously from address
    /// [`Module::GLOBAL_BASE`]. Both the interpreter and the machine
    /// simulator use this layout, so profiled LOCs agree between them.
    pub fn global_layout(&self) -> Vec<i64> {
        layout_globals(&self.globals)
    }

    /// First word address used for globals. Address 0 is kept invalid so
    /// null-pointer dereferences are catchable.
    pub const GLOBAL_BASE: i64 = 16;
}

/// [`Module::global_layout`] over a bare global list, for callers that
/// hold only the globals (the driver's per-function workers).
pub fn layout_globals(globals: &[Global]) -> Vec<i64> {
    let mut addr = Module::GLOBAL_BASE;
    let mut out = Vec::with_capacity(globals.len());
    for g in globals {
        out.push(addr);
        addr += i64::from(g.words);
    }
    out
}

/// Identifies one slot within one function — needed module-wide because
/// [`SlotId`] alone is function-local.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FuncSlot {
    /// Owning function.
    pub func: FuncId,
    /// Slot within that function.
    pub slot: SlotId,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{Operand, Terminator};

    #[test]
    fn predecessors_computed() {
        let mut f = Function {
            name: "t".into(),
            params: 0,
            ret_ty: None,
            vars: vec![],
            slots: vec![],
            blocks: vec![],
        };
        let b0 = f.new_block("entry");
        let b1 = f.new_block("a");
        let b2 = f.new_block("b");
        f.block_mut(b0).term = Terminator::Br {
            cond: Operand::ConstI(1),
            then_: b1,
            else_: b2,
        };
        f.block_mut(b1).term = Terminator::Jump(b2);
        let preds = f.predecessors();
        assert_eq!(preds[b0.index()], vec![]);
        assert_eq!(preds[b1.index()], vec![b0]);
        assert_eq!(preds[b2.index()], vec![b0, b1]);
    }

    #[test]
    fn global_layout_is_contiguous_from_base() {
        let mut m = Module::new();
        m.globals.push(Global {
            name: "a".into(),
            words: 4,
            ty: Ty::I64,
            init: vec![],
        });
        m.globals.push(Global {
            name: "b".into(),
            words: 2,
            ty: Ty::F64,
            init: vec![],
        });
        assert_eq!(
            m.global_layout(),
            vec![Module::GLOBAL_BASE, Module::GLOBAL_BASE + 4]
        );
    }

    #[test]
    fn site_counters_are_monotone() {
        let mut m = Module::new();
        assert_eq!(m.fresh_mem_site(), MemSiteId(0));
        assert_eq!(m.fresh_mem_site(), MemSiteId(1));
        assert_eq!(m.fresh_alloc_site(), AllocSiteId(0));
        assert_eq!(m.fresh_call_site(), CallSiteId(0));
    }

    #[test]
    fn lookup_by_name() {
        let mut m = Module::new();
        m.globals.push(Global {
            name: "g".into(),
            words: 1,
            ty: Ty::I64,
            init: vec![],
        });
        assert_eq!(m.global_by_name("g"), Some(GlobalId(0)));
        assert_eq!(m.global_by_name("nope"), None);
        assert_eq!(m.func_by_name("nope"), None);
    }
}
