//! Versioned HSSA statements, φ nodes and χ/μ operators.

use crate::hvar::{HVarId, VarCatalog};
use specframe_ir::{
    AllocSiteId, BinOp, BlockId, CallSiteId, CheckKind, FuncId, GlobalId, InlineVec, LoadSpec,
    MemSiteId, SlotId, Ty, UnOp, VarId,
};

/// A placeholder memory site for statements synthesized during optimization;
/// [`crate::lower_function`] and [`crate::resolve_fresh_sites`] replace it
/// with a fresh module-unique site.
pub const FRESH_SITE: MemSiteId = MemSiteId(u32::MAX);

/// A versioned register reference.
pub type RegVer = (VarId, u32);

/// A versioned operand.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum HOperand {
    /// Register `v` at SSA version `ver`.
    Reg(VarId, u32),
    /// Integer immediate.
    ConstI(i64),
    /// Float immediate.
    ConstF(f64),
    /// Address of a global.
    GlobalAddr(GlobalId),
    /// Address of a slot.
    SlotAddr(SlotId),
}

impl HOperand {
    /// The versioned register, if any.
    pub fn as_reg(self) -> Option<RegVer> {
        match self {
            HOperand::Reg(v, ver) => Some((v, ver)),
            _ => None,
        }
    }
}

/// A may-use operator `μ(var_ver)`.
///
/// `likely` is the paper's speculation flag: `μs` when the reference is
/// highly likely to actually read the variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MuOp {
    /// The variable possibly referenced.
    pub var: HVarId,
    /// Version read.
    pub ver: u32,
    /// `true` = `μs` (flagged, likely).
    pub likely: bool,
}

/// A may-def operator `new_ver = χ(old_ver)`.
///
/// `likely` is the speculation flag: a flagged χ (`χs`) is an update that
/// cannot be ignored; an **unflagged χ is a speculative weak update** that
/// optimizations may skip at the price of a run-time check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChiOp {
    /// The variable possibly modified.
    pub var: HVarId,
    /// Version defined here.
    pub new_ver: u32,
    /// Version merged in (the value if the update does not happen).
    pub old_ver: u32,
    /// `true` = `χs` (flagged, likely).
    pub likely: bool,
}

/// Statement payloads; registers and direct-memory variables carry SSA
/// versions.
#[derive(Clone, PartialEq, Debug)]
pub enum HStmtKind {
    /// `dst = op a, b`
    Bin {
        dst: RegVer,
        op: BinOp,
        a: HOperand,
        b: HOperand,
    },
    /// `dst = op a`
    Un { dst: RegVer, op: UnOp, a: HOperand },
    /// `dst = src`
    Copy { dst: RegVer, src: HOperand },
    /// A load. For a *direct* load (`base` is a global/slot address) `dvar`
    /// names the real variable and the version being read; for an
    /// *indirect* load the μ list on the statement carries the vvar and the
    /// aliased real variables.
    Load {
        dst: RegVer,
        base: HOperand,
        offset: i64,
        ty: Ty,
        spec: LoadSpec,
        site: MemSiteId,
        dvar: Option<(HVarId, u32)>,
    },
    /// A store. For a *direct* store `dvar_def` is the strong def of the
    /// real variable; indirect stores define only through their χ list.
    Store {
        base: HOperand,
        offset: i64,
        val: HOperand,
        ty: Ty,
        site: MemSiteId,
        dvar_def: Option<(HVarId, u32)>,
    },
    /// A data/control speculation check (present when re-optimizing already
    /// speculative code; emitted by CodeMotion).
    CheckLoad {
        dst: RegVer,
        base: HOperand,
        offset: i64,
        ty: Ty,
        kind: CheckKind,
        site: MemSiteId,
        dvar: Option<(HVarId, u32)>,
    },
    /// A call; its χ/μ lists model the callee's mod/ref side effects.
    Call {
        dst: Option<RegVer>,
        callee: FuncId,
        args: Vec<HOperand>,
        site: CallSiteId,
    },
    /// Heap allocation.
    Alloc {
        dst: RegVer,
        words: HOperand,
        site: AllocSiteId,
    },
}

/// One HSSA statement: payload plus may-use/may-def operators.
#[derive(Clone, PartialEq, Debug)]
pub struct HStmt {
    /// The operation.
    pub kind: HStmtKind,
    /// May-uses (μ / μs).
    pub mu: InlineVec<MuOp, 2>,
    /// May-defs (χ / χs).
    pub chi: InlineVec<ChiOp, 2>,
}

impl HStmt {
    /// Wraps a payload with empty χ/μ lists.
    pub fn new(kind: HStmtKind) -> HStmt {
        HStmt {
            kind,
            mu: InlineVec::new(),
            chi: InlineVec::new(),
        }
    }

    /// The register defined, if any.
    pub fn def_reg(&self) -> Option<RegVer> {
        match &self.kind {
            HStmtKind::Bin { dst, .. }
            | HStmtKind::Un { dst, .. }
            | HStmtKind::Copy { dst, .. }
            | HStmtKind::Load { dst, .. }
            | HStmtKind::CheckLoad { dst, .. }
            | HStmtKind::Alloc { dst, .. } => Some(*dst),
            HStmtKind::Call { dst, .. } => *dst,
            HStmtKind::Store { .. } => None,
        }
    }

    /// Register operands read by the payload (not including μ operators),
    /// in operand order. Allocates nothing: cleanup and the verifier call
    /// this for every statement.
    pub fn reg_uses(&self) -> impl Iterator<Item = RegVer> + '_ {
        let (fixed, args): ([Option<&HOperand>; 2], &[HOperand]) = match &self.kind {
            HStmtKind::Bin { a, b, .. } => ([Some(a), Some(b)], &[]),
            HStmtKind::Un { a, .. } => ([Some(a), None], &[]),
            HStmtKind::Copy { src, .. } => ([Some(src), None], &[]),
            HStmtKind::Load { base, .. } | HStmtKind::CheckLoad { base, .. } => {
                ([Some(base), None], &[])
            }
            HStmtKind::Store { base, val, .. } => ([Some(base), Some(val)], &[]),
            HStmtKind::Call { args, .. } => ([None, None], args),
            HStmtKind::Alloc { words, .. } => ([Some(words), None], &[]),
        };
        fixed
            .into_iter()
            .flatten()
            .chain(args)
            .filter_map(|o| o.as_reg())
    }

    /// The χ over `var`, if present.
    pub fn chi_of(&self, var: HVarId) -> Option<&ChiOp> {
        self.chi.iter().find(|c| c.var == var)
    }

    /// Whether this statement's χ list contains an *unlikely* (weak) update
    /// of `var` — the paper's *speculative weak update*.
    pub fn is_weak_update_of(&self, var: HVarId) -> bool {
        self.chi_of(var).is_some_and(|c| !c.likely)
    }
}

/// A φ node for one HSSA variable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Phi {
    /// Variable merged.
    pub var: HVarId,
    /// Version defined by the φ.
    pub dest: u32,
    /// One incoming version per predecessor, in `HssaFunc::preds` order.
    pub args: Vec<u32>,
}

/// Versioned block terminator.
#[derive(Clone, PartialEq, Debug)]
pub enum HTerm {
    /// `jmp target`
    Jump(BlockId),
    /// Conditional branch.
    Br {
        /// Condition (non-zero = taken).
        cond: HOperand,
        /// Taken target.
        then_: BlockId,
        /// Fall-through target.
        else_: BlockId,
    },
    /// Return.
    Ret(Option<HOperand>),
}

impl HTerm {
    /// Successors in order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            HTerm::Jump(t) => vec![*t],
            HTerm::Br { then_, else_, .. } => vec![*then_, *else_],
            HTerm::Ret(_) => vec![],
        }
    }
}

/// One HSSA block.
#[derive(Clone, Debug, Default)]
pub struct HBlock {
    /// φ nodes (at most one per variable).
    pub phis: Vec<Phi>,
    /// Statements in order.
    pub stmts: Vec<HStmt>,
    /// Terminator (versioned).
    pub term: Option<HTerm>,
}

/// A function in speculative SSA form.
///
/// Blocks correspond 1:1 (same [`BlockId`]s) to the base function the form
/// was built from; predecessors are frozen so φ argument order is stable.
#[derive(Clone, Debug)]
pub struct HssaFunc {
    /// The function this form was built from.
    pub func: FuncId,
    /// Variable catalog.
    pub catalog: VarCatalog,
    /// Blocks, indexed by [`BlockId`].
    pub blocks: Vec<HBlock>,
    /// Frozen predecessor lists (φ argument order).
    pub preds: Vec<Vec<BlockId>>,
    /// Next unissued version per variable (version 0 is the entry value).
    pub next_ver: Vec<u32>,
    /// Registers added during optimization: `(name, ty)`; their [`VarId`]s
    /// start at `first_new_var`.
    pub new_vars: Vec<(String, Ty)>,
    /// The first [`VarId`] not present in the base function.
    pub first_new_var: u32,
    /// Registers whose SSA versions all collapse onto one IR register at
    /// lowering. SSAPRE's expression temporaries live here: the collapse is
    /// what lets the ALAT key `ld.a`/`ld.c` pairs by one register name, and
    /// what makes a failed check's reloaded value visible to later reloads
    /// of the promoted expression.
    pub collapsed_vars: Vec<VarId>,
}

impl HssaFunc {
    /// Issues a fresh SSA version for `var`.
    pub fn fresh_ver(&mut self, var: HVarId) -> u32 {
        let v = &mut self.next_ver[var.index()];
        *v += 1;
        *v - 1
    }

    /// Issues a fresh SSA version for a register.
    pub fn fresh_ver_of_reg(&mut self, v: VarId) -> u32 {
        let hv = self
            .catalog
            .get(crate::hvar::HVarKind::Reg(v))
            .expect("register interned");
        self.fresh_ver(hv)
    }

    /// Adds a brand-new register (an optimizer temporary) of type `ty`,
    /// registering it in the catalog, and returns its [`VarId`].
    pub fn add_temp(&mut self, name: impl Into<String>, ty: Ty) -> VarId {
        let id = VarId(self.first_new_var + self.new_vars.len() as u32);
        self.new_vars.push((name.into(), ty));
        let hv = self.catalog.intern(crate::hvar::HVarKind::Reg(id));
        // keep next_ver in sync with the catalog
        if self.next_ver.len() < self.catalog.len() {
            self.next_ver.resize(self.catalog.len(), 1);
        }
        let _ = hv;
        id
    }

    /// Block ids in layout order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// The index of `pred` within `block`'s predecessor list (φ argument
    /// position).
    pub fn pred_index(&self, block: BlockId, pred: BlockId) -> Option<usize> {
        self.preds[block.index()].iter().position(|&p| p == pred)
    }
}
