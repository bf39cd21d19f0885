//! The simulator's decoded form of a machine program.
//!
//! Each function is decoded once per [`crate::Simulator`] into a flat array
//! of [`Op`]s, one per [`MInst`] at the same index, so branch targets and
//! the instruction indices leak events name carry over unchanged. Every
//! operand is a cell of the function's frame:
//!
//! ```text
//! [0, regs)              the registers, each starting at 0; cell r is register r
//! [regs, regs + slots)   one cell per slot, written with its address at entry
//! [regs + slots, ..)     the distinct immediates the body uses
//! ```
//!
//! A call copies [`DFunc::template`] to start its frame.

use crate::isa::{ChkKind, LdKind, MFunc, MInst, MOperand, MProgram};
use specframe_ir::{BinOp, FxHashMap, Ty, UnOp, Value};

/// A frame cell index.
pub(crate) type Cell = u32;

/// One decoded machine instruction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Mov {
        d: Cell,
        s: Cell,
    },
    Alu {
        d: Cell,
        op: BinOp,
        a: Cell,
        b: Cell,
    },
    Un {
        d: Cell,
        op: UnOp,
        a: Cell,
    },
    Ld {
        d: Cell,
        base: Cell,
        off: i64,
        ty: Ty,
        kind: LdKind,
    },
    Chk {
        d: Cell,
        base: Cell,
        off: i64,
        ty: Ty,
        kind: ChkKind,
    },
    ChkCmp {
        d: Cell,
        val: Cell,
        cond: Cell,
    },
    St {
        base: Cell,
        val: Cell,
        off: i64,
        ty: Ty,
    },
    /// The arguments are the cells `DFunc::args[args..args + nargs]`.
    Call {
        d: Option<Cell>,
        func: u32,
        args: u32,
        nargs: u32,
    },
    Alloc {
        d: Cell,
        words: Cell,
    },
    Fence,
    Jmp(u32),
    Br {
        cond: Cell,
        then_: u32,
        else_: u32,
    },
    Ret(Option<Cell>),
}

/// One machine function, decoded.
#[derive(Debug)]
pub(crate) struct DFunc {
    pub(crate) params: u32,
    /// The frame a call starts from (layout in the module docs).
    pub(crate) template: Vec<Value>,
    /// The cell that receives the address of slot 0 (the register count);
    /// slot `i`'s goes to `slot_cell + i`.
    pub(crate) slot_cell: u32,
    /// Per slot: its size in words.
    pub(crate) slot_words: Vec<u32>,
    /// Registers holding promoted temporaries (the pressure proxy).
    pub(crate) promoted: u64,
    pub(crate) ops: Vec<Op>,
    /// The argument cells of every call, in op order.
    pub(crate) args: Vec<Cell>,
}

/// Decodes every function of `prog`.
pub(crate) fn decode_program(prog: &MProgram) -> Vec<DFunc> {
    prog.funcs.iter().map(decode).collect()
}

fn decode(f: &MFunc) -> DFunc {
    let slot_cell = f.regs;
    let mut template = vec![Value::I(0); (f.regs as usize) + f.slot_words.len()];
    // one cell per distinct immediate, keyed by kind and bits
    let mut consts: FxHashMap<(bool, u64), Cell> = FxHashMap::default();
    let mut cell = |o: MOperand| -> Cell {
        let (v, key) = match o {
            MOperand::R(r) => return r.0,
            MOperand::SlotAddr(s) => return slot_cell + s,
            MOperand::I(v) => (Value::I(v), (false, v as u64)),
            MOperand::F(v) => (Value::F(v), (true, v.to_bits())),
        };
        *consts.entry(key).or_insert_with(|| {
            template.push(v);
            (template.len() - 1) as Cell
        })
    };
    let mut args = Vec::new();
    let ops = f
        .code
        .iter()
        .map(|inst| match inst {
            MInst::Mov { d, s } => Op::Mov {
                d: d.0,
                s: cell(*s),
            },
            MInst::Alu { d, op, a, b } => Op::Alu {
                d: d.0,
                op: *op,
                a: cell(*a),
                b: cell(*b),
            },
            MInst::Un { d, op, a } => Op::Un {
                d: d.0,
                op: *op,
                a: cell(*a),
            },
            MInst::Ld {
                d,
                base,
                off,
                ty,
                kind,
            } => Op::Ld {
                d: d.0,
                base: cell(*base),
                off: *off,
                ty: *ty,
                kind: *kind,
            },
            MInst::Chk {
                d,
                base,
                off,
                ty,
                kind,
            } => Op::Chk {
                d: d.0,
                base: cell(*base),
                off: *off,
                ty: *ty,
                kind: *kind,
            },
            MInst::ChkCmp { d, val, cond } => Op::ChkCmp {
                d: d.0,
                val: val.0,
                cond: cell(*cond),
            },
            MInst::St { base, off, val, ty } => Op::St {
                base: cell(*base),
                val: cell(*val),
                off: *off,
                ty: *ty,
            },
            MInst::Call {
                d,
                func,
                args: call_args,
            } => {
                let first = args.len() as u32;
                args.extend(call_args.iter().map(|&a| cell(a)));
                Op::Call {
                    d: d.map(|d| d.0),
                    func: *func as u32,
                    args: first,
                    nargs: call_args.len() as u32,
                }
            }
            MInst::Alloc { d, words } => Op::Alloc {
                d: d.0,
                words: cell(*words),
            },
            MInst::Fence => Op::Fence,
            MInst::Jmp(t) => Op::Jmp(*t as u32),
            MInst::Br { cond, then_, else_ } => Op::Br {
                cond: cell(*cond),
                then_: *then_ as u32,
                else_: *else_ as u32,
            },
            MInst::Ret(v) => Op::Ret(v.map(&mut cell)),
        })
        .collect();
    DFunc {
        params: f.params,
        template,
        slot_cell,
        slot_words: f.slot_words.clone(),
        promoted: f.promoted_regs.len() as u64,
        ops,
        args,
    }
}
