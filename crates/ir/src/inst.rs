//! Operands, instructions and terminators.

use crate::ids::{AllocSiteId, BlockId, CallSiteId, FuncId, GlobalId, MemSiteId, SlotId, VarId};
use crate::types::{Ty, Value};
use core::fmt;

/// A scalar operand of an instruction.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Operand {
    /// A virtual register.
    Var(VarId),
    /// An integer (or pointer) immediate.
    ConstI(i64),
    /// A floating-point immediate.
    ConstF(f64),
    /// The word address of a global — the IR analogue of `&g`.
    GlobalAddr(GlobalId),
    /// The word address of a stack slot — the IR analogue of `&local`.
    SlotAddr(SlotId),
}

impl From<VarId> for Operand {
    fn from(v: VarId) -> Self {
        Operand::Var(v)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Self {
        Operand::ConstI(v)
    }
}

impl From<f64> for Operand {
    fn from(v: f64) -> Self {
        Operand::ConstF(v)
    }
}

/// Binary operators. Comparison operators yield `0`/`1` as `i64`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    // integer / pointer arithmetic
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    // integer comparisons
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    // floating point arithmetic
    FAdd,
    FSub,
    FMul,
    FDiv,
    // floating point comparisons
    FEq,
    FNe,
    FLt,
    FLe,
    FGt,
    FGe,
}

impl BinOp {
    /// The result type of the operator.
    pub fn result_ty(self) -> Ty {
        use BinOp::*;
        match self {
            FAdd | FSub | FMul | FDiv => Ty::F64,
            _ => Ty::I64,
        }
    }

    /// Whether the operator reads floating-point operands.
    pub fn takes_float(self) -> bool {
        use BinOp::*;
        matches!(
            self,
            FAdd | FSub | FMul | FDiv | FEq | FNe | FLt | FLe | FGt | FGe
        )
    }

    /// Whether the operator commutes (used to canonicalize lexical
    /// expression keys in SSAPRE).
    pub fn is_commutative(self) -> bool {
        use BinOp::*;
        matches!(
            self,
            Add | Mul | And | Or | Xor | Eq | Ne | FAdd | FMul | FEq | FNe
        )
    }

    /// Textual mnemonic (also the parser keyword).
    pub fn mnemonic(self) -> &'static str {
        use BinOp::*;
        match self {
            Add => "add",
            Sub => "sub",
            Mul => "mul",
            Div => "div",
            Mod => "mod",
            And => "and",
            Or => "or",
            Xor => "xor",
            Shl => "shl",
            Shr => "shr",
            Eq => "eq",
            Ne => "ne",
            Lt => "lt",
            Le => "le",
            Gt => "gt",
            Ge => "ge",
            FAdd => "fadd",
            FSub => "fsub",
            FMul => "fmul",
            FDiv => "fdiv",
            FEq => "feq",
            FNe => "fne",
            FLt => "flt",
            FLe => "fle",
            FGt => "fgt",
            FGe => "fge",
        }
    }

    /// Applies the operator, as both executors do; `None` for an integer
    /// division or modulo by zero. A NaT operand yields NaT, as on IA-64.
    #[inline(always)]
    pub fn eval(self, a: Value, b: Value) -> Option<Value> {
        use BinOp::*;
        if a.is_nat() || b.is_nat() {
            return Some(Value::Nat);
        }
        let (i, f) = (Value::I, Value::F);
        let flag = |c: bool| Value::I(i64::from(c));
        Some(match self {
            Add => i(a.as_i64().wrapping_add(b.as_i64())),
            Sub => i(a.as_i64().wrapping_sub(b.as_i64())),
            Mul => i(a.as_i64().wrapping_mul(b.as_i64())),
            Div | Mod if b.as_i64() == 0 => return None,
            Div => i(a.as_i64().wrapping_div(b.as_i64())),
            Mod => i(a.as_i64().wrapping_rem(b.as_i64())),
            And => i(a.as_i64() & b.as_i64()),
            Or => i(a.as_i64() | b.as_i64()),
            Xor => i(a.as_i64() ^ b.as_i64()),
            Shl => i(a.as_i64().wrapping_shl(b.as_i64() as u32)),
            Shr => i(a.as_i64().wrapping_shr(b.as_i64() as u32)),
            Eq => flag(a.as_i64() == b.as_i64()),
            Ne => flag(a.as_i64() != b.as_i64()),
            Lt => flag(a.as_i64() < b.as_i64()),
            Le => flag(a.as_i64() <= b.as_i64()),
            Gt => flag(a.as_i64() > b.as_i64()),
            Ge => flag(a.as_i64() >= b.as_i64()),
            FAdd => f(a.as_f64() + b.as_f64()),
            FSub => f(a.as_f64() - b.as_f64()),
            FMul => f(a.as_f64() * b.as_f64()),
            FDiv => f(a.as_f64() / b.as_f64()),
            FEq => flag(a.as_f64() == b.as_f64()),
            FNe => flag(a.as_f64() != b.as_f64()),
            FLt => flag(a.as_f64() < b.as_f64()),
            FLe => flag(a.as_f64() <= b.as_f64()),
            FGt => flag(a.as_f64() > b.as_f64()),
            FGe => flag(a.as_f64() >= b.as_f64()),
        })
    }

    /// All operators, in mnemonic order (used by the parser and proptest).
    pub const ALL: [BinOp; 26] = [
        BinOp::Add,
        BinOp::Sub,
        BinOp::Mul,
        BinOp::Div,
        BinOp::Mod,
        BinOp::And,
        BinOp::Or,
        BinOp::Xor,
        BinOp::Shl,
        BinOp::Shr,
        BinOp::Eq,
        BinOp::Ne,
        BinOp::Lt,
        BinOp::Le,
        BinOp::Gt,
        BinOp::Ge,
        BinOp::FAdd,
        BinOp::FSub,
        BinOp::FMul,
        BinOp::FDiv,
        BinOp::FEq,
        BinOp::FNe,
        BinOp::FLt,
        BinOp::FLe,
        BinOp::FGt,
        BinOp::FGe,
    ];
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Bitwise complement.
    Not,
    /// Floating-point negation.
    FNeg,
    /// Integer to double conversion.
    I2F,
    /// Double to integer conversion (truncating).
    F2I,
}

impl UnOp {
    /// The result type of the operator.
    pub fn result_ty(self) -> Ty {
        match self {
            UnOp::FNeg | UnOp::I2F => Ty::F64,
            _ => Ty::I64,
        }
    }

    /// Textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            UnOp::Neg => "neg",
            UnOp::Not => "not",
            UnOp::FNeg => "fneg",
            UnOp::I2F => "i2f",
            UnOp::F2I => "f2i",
        }
    }

    /// Applies the operator, as both executors do. A NaT operand yields
    /// NaT.
    #[inline(always)]
    pub fn eval(self, a: Value) -> Value {
        if a.is_nat() {
            return Value::Nat;
        }
        match self {
            UnOp::Neg => Value::I(a.as_i64().wrapping_neg()),
            UnOp::Not => Value::I(!a.as_i64()),
            UnOp::FNeg => Value::F(-a.as_f64()),
            UnOp::I2F => Value::F(a.as_i64() as f64),
            UnOp::F2I => Value::I(a.as_f64() as i64),
        }
    }

    /// All operators.
    pub const ALL: [UnOp; 5] = [UnOp::Neg, UnOp::Not, UnOp::FNeg, UnOp::I2F, UnOp::F2I];
}

/// Speculation attribute on a [`Inst::Load`].
///
/// These correspond to the IA-64 load flavours the paper's CodeMotion step
/// emits (§4.4, Appendix B):
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum LoadSpec {
    /// Plain `ld`.
    #[default]
    Normal,
    /// `ld.a` — advanced load. Performs the load *and* allocates an ALAT
    /// entry keyed by the destination register, so a later [`Inst::CheckLoad`]
    /// with [`CheckKind::Alat`] on the same register can detect intervening
    /// aliasing stores.
    Advanced,
    /// `ld.s` — control-speculative load. Hoisted above a branch; a fault is
    /// deferred into a NaT token checked by [`CheckKind::Nat`].
    Speculative,
}

impl LoadSpec {
    /// Parser/printer suffix (`load`, `load.a`, `load.s`).
    pub fn suffix(self) -> &'static str {
        match self {
            LoadSpec::Normal => "",
            LoadSpec::Advanced => ".a",
            LoadSpec::Speculative => ".s",
        }
    }
}

/// What an [`Inst::CheckLoad`] checks.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CheckKind {
    /// `ld.c` — ALAT check load: if the ALAT entry installed by the `ld.a`
    /// into the same destination register is still valid, the instruction
    /// costs 0 cycles and the register keeps its value; otherwise the load
    /// re-executes (paying full load latency plus a recovery penalty).
    Alat,
    /// `chk.s`-with-inline-recovery — NaT check: if the register holds NaT
    /// (the earlier `ld.s` faulted or was invalidated), re-execute the load;
    /// otherwise free.
    Nat,
}

impl CheckKind {
    /// Parser/printer keyword.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CheckKind::Alat => "ldc",
            CheckKind::Nat => "chks",
        }
    }
}

/// A non-terminator instruction.
///
/// Memory addressing is always `base + offset` where `offset` is a constant
/// word count — the addressing mode of the EPIC target. `site` fields give
/// each memory reference, call and allocation a module-wide stable identity
/// for the alias profiler.
#[derive(Clone, PartialEq, Debug)]
pub enum Inst {
    /// `dst = op a, b`
    Bin {
        dst: VarId,
        op: BinOp,
        a: Operand,
        b: Operand,
    },
    /// `dst = op a`
    Un { dst: VarId, op: UnOp, a: Operand },
    /// `dst = src`
    Copy { dst: VarId, src: Operand },
    /// `dst = load.ty [base + offset]`
    Load {
        dst: VarId,
        base: Operand,
        offset: i64,
        ty: Ty,
        spec: LoadSpec,
        site: MemSiteId,
    },
    /// `store.ty [base + offset], val`
    Store {
        base: Operand,
        offset: i64,
        val: Operand,
        ty: Ty,
        site: MemSiteId,
    },
    /// `dst = ldc.ty [base + offset]` or `dst = chks.ty [base + offset]`.
    ///
    /// The data-speculation check the paper's CodeMotion step generates. Its
    /// *semantics* are always "dst holds the current value of the memory
    /// cell" — re-loading unconditionally is a correct implementation, which
    /// is exactly what the reference interpreter does. The machine simulator
    /// models the fast path (0 cycles when the speculation held).
    CheckLoad {
        dst: VarId,
        base: Operand,
        offset: i64,
        ty: Ty,
        kind: CheckKind,
        site: MemSiteId,
    },
    /// `dst = call f(args...)` / `call f(args...)`
    Call {
        dst: Option<VarId>,
        callee: FuncId,
        args: Vec<Operand>,
        site: CallSiteId,
    },
    /// `dst = alloc words` — heap allocation; the returned object is named
    /// after `site` in alias profiles (allocation-site heap naming, §3.2.1).
    Alloc {
        dst: VarId,
        words: Operand,
        site: AllocSiteId,
    },
}

impl Inst {
    /// The register defined by this instruction, if any.
    pub fn def(&self) -> Option<VarId> {
        match self {
            Inst::Bin { dst, .. }
            | Inst::Un { dst, .. }
            | Inst::Copy { dst, .. }
            | Inst::Load { dst, .. }
            | Inst::CheckLoad { dst, .. }
            | Inst::Alloc { dst, .. } => Some(*dst),
            Inst::Call { dst, .. } => *dst,
            Inst::Store { .. } => None,
        }
    }

    /// Every operand read by this instruction, in operand order. Allocates
    /// nothing: the verifier calls this for every instruction.
    pub fn uses(&self) -> impl Iterator<Item = Operand> + '_ {
        let (fixed, args): ([Option<&Operand>; 2], &[Operand]) = match self {
            Inst::Bin { a, b, .. } => ([Some(a), Some(b)], &[]),
            Inst::Un { a, .. } => ([Some(a), None], &[]),
            Inst::Copy { src, .. } => ([Some(src), None], &[]),
            Inst::Load { base, .. } | Inst::CheckLoad { base, .. } => ([Some(base), None], &[]),
            Inst::Store { base, val, .. } => ([Some(base), Some(val)], &[]),
            Inst::Call { args, .. } => ([None, None], args),
            Inst::Alloc { words, .. } => ([Some(words), None], &[]),
        };
        fixed.into_iter().flatten().chain(args).copied()
    }

    /// Applies `f` to every operand in place.
    pub fn map_uses(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Inst::Bin { a, b, .. } => {
                f(a);
                f(b);
            }
            Inst::Un { a, .. } => f(a),
            Inst::Copy { src, .. } => f(src),
            Inst::Load { base, .. } | Inst::CheckLoad { base, .. } => f(base),
            Inst::Store { base, val, .. } => {
                f(base);
                f(val);
            }
            Inst::Call { args, .. } => {
                for a in args {
                    f(a);
                }
            }
            Inst::Alloc { words, .. } => f(words),
        }
    }
}

/// A block terminator.
#[derive(Clone, PartialEq, Debug)]
pub enum Terminator {
    /// `jmp target`
    Jump(BlockId),
    /// `br cond, then_, else_` — taken when `cond != 0`.
    Br {
        cond: Operand,
        then_: BlockId,
        else_: BlockId,
    },
    /// `ret` / `ret value`
    Ret(Option<Operand>),
}

impl Terminator {
    /// Successor blocks in order.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(t) => vec![*t],
            Terminator::Br { then_, else_, .. } => vec![*then_, *else_],
            Terminator::Ret(_) => vec![],
        }
    }

    /// Applies `f` to every successor label in place (used by edge
    /// splitting and block cloning).
    pub fn map_successors(&mut self, mut f: impl FnMut(&mut BlockId)) {
        match self {
            Terminator::Jump(t) => f(t),
            Terminator::Br { then_, else_, .. } => {
                f(then_);
                f(else_);
            }
            Terminator::Ret(_) => {}
        }
    }

    /// Applies `f` to every operand in place.
    pub fn map_uses(&mut self, mut f: impl FnMut(&mut Operand)) {
        match self {
            Terminator::Br { cond, .. } => f(cond),
            Terminator::Ret(Some(v)) => f(v),
            _ => {}
        }
    }
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl fmt::Display for UnOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn def_and_uses() {
        let i = Inst::Bin {
            dst: VarId(0),
            op: BinOp::Add,
            a: Operand::Var(VarId(1)),
            b: Operand::ConstI(3),
        };
        assert_eq!(i.def(), Some(VarId(0)));
        assert_eq!(
            i.uses().collect::<Vec<_>>(),
            vec![Operand::Var(VarId(1)), Operand::ConstI(3)]
        );

        let s = Inst::Store {
            base: Operand::Var(VarId(2)),
            offset: 1,
            val: Operand::ConstF(2.5),
            ty: Ty::F64,
            site: MemSiteId(0),
        };
        assert_eq!(s.def(), None);
        assert_eq!(s.uses().count(), 2);

        let c = Inst::Call {
            dst: None,
            callee: FuncId(0),
            args: vec![Operand::ConstI(1), Operand::Var(VarId(4))],
            site: CallSiteId(0),
        };
        assert_eq!(
            c.uses().collect::<Vec<_>>(),
            vec![Operand::ConstI(1), Operand::Var(VarId(4))]
        );
    }

    #[test]
    fn map_uses_rewrites_operands() {
        let mut i = Inst::Bin {
            dst: VarId(0),
            op: BinOp::Add,
            a: Operand::Var(VarId(1)),
            b: Operand::Var(VarId(1)),
        };
        i.map_uses(|o| {
            if let Operand::Var(v) = o {
                *v = VarId(v.0 + 10);
            }
        });
        assert_eq!(
            i.uses().collect::<Vec<_>>(),
            vec![Operand::Var(VarId(11)), Operand::Var(VarId(11))]
        );
    }

    #[test]
    fn terminator_successors() {
        let t = Terminator::Br {
            cond: Operand::Var(VarId(0)),
            then_: BlockId(1),
            else_: BlockId(2),
        };
        assert_eq!(t.successors(), vec![BlockId(1), BlockId(2)]);
        assert_eq!(Terminator::Ret(None).successors(), vec![]);
    }

    #[test]
    fn commutativity_is_marked() {
        assert!(BinOp::Add.is_commutative());
        assert!(!BinOp::Sub.is_commutative());
        assert!(BinOp::FMul.is_commutative());
        assert!(!BinOp::FDiv.is_commutative());
    }

    #[test]
    fn mnemonics_unique() {
        let mut seen = std::collections::HashSet::new();
        for op in BinOp::ALL {
            assert!(seen.insert(op.mnemonic()), "dup mnemonic {}", op.mnemonic());
        }
        for op in UnOp::ALL {
            assert!(seen.insert(op.mnemonic()), "dup mnemonic {}", op.mnemonic());
        }
    }

    #[test]
    fn operand_conversions() {
        assert_eq!(Operand::from(VarId(5)), Operand::Var(VarId(5)));
        assert_eq!(Operand::from(7i64), Operand::ConstI(7));
        assert_eq!(Operand::from(1.5f64), Operand::ConstF(1.5));
    }
}
