//! The reference interpreter's decoded form of a module.
//!
//! Each function is decoded once per [`crate::Interpreter`] into a flat
//! array of [`Op`]s, so the run loop never matches an `Operand` or walks a
//! block list. Every operand is a cell of the function's frame:
//!
//! ```text
//! [0, vars)              the variables, each starting at its typed zero
//! [vars, vars + slots)   one cell per slot, written with its address at entry
//! [vars + slots, ..)     the distinct constants and global addresses the body uses
//! ```
//!
//! A call copies [`DFunc::template`] to start its frame. Blocks are laid out
//! in index order; a terminator keeps its block ids for
//! [`crate::Observer::on_edge`] and jumps to op indices.

use specframe_ir::{
    AllocSiteId, BinOp, BlockId, CallSiteId, FuncId, Function, FxHashMap, Inst, LoadSpec,
    MemSiteId, Module, Operand, Terminator, Ty, UnOp, Value,
};

/// A frame cell index.
pub(crate) type Cell = u32;

/// One decoded instruction or terminator.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Copy {
        dst: Cell,
        src: Cell,
    },
    Bin {
        dst: Cell,
        op: BinOp,
        a: Cell,
        b: Cell,
    },
    Un {
        dst: Cell,
        op: UnOp,
        a: Cell,
    },
    /// A plain, advanced or (`speculative`) control-speculative load.
    Load {
        dst: Cell,
        base: Cell,
        offset: i64,
        ty: Ty,
        speculative: bool,
        site: MemSiteId,
    },
    CheckLoad {
        dst: Cell,
        base: Cell,
        offset: i64,
        ty: Ty,
        site: MemSiteId,
    },
    Store {
        base: Cell,
        val: Cell,
        offset: i64,
        ty: Ty,
        site: MemSiteId,
    },
    /// The arguments are the cells `DFunc::args[args..args + nargs]`.
    Call {
        dst: Option<Cell>,
        callee: FuncId,
        site: CallSiteId,
        args: u32,
        nargs: u32,
    },
    Alloc {
        dst: Cell,
        words: Cell,
        site: AllocSiteId,
    },
    Jump {
        from: BlockId,
        to: BlockId,
        target: u32,
    },
    Br {
        cond: Cell,
        from: BlockId,
        then_: BlockId,
        else_: BlockId,
        then_pc: u32,
        else_pc: u32,
    },
    Ret {
        val: Option<Cell>,
    },
}

/// One function, decoded.
#[derive(Debug)]
pub(crate) struct DFunc {
    pub(crate) params: u32,
    /// The frame a call starts from (layout in the module docs).
    pub(crate) template: Vec<Value>,
    /// The cell that receives the address of slot 0 (the number of
    /// variables); slot `i`'s goes to `slot_cell + i`.
    pub(crate) slot_cell: u32,
    /// Per slot: its size in words and the typed zero it is filled with.
    pub(crate) slots: Vec<(u32, Value)>,
    pub(crate) ops: Vec<Op>,
    /// The op index the entry block starts at.
    pub(crate) entry: u32,
    /// The argument cells of every call, in op order.
    pub(crate) args: Vec<Cell>,
}

/// Decodes every function of `m`; `layout` is `m.global_layout()`.
pub(crate) fn decode_module(m: &Module, layout: &[i64]) -> Vec<DFunc> {
    m.funcs.iter().map(|f| decode(f, layout)).collect()
}

fn decode(f: &Function, layout: &[i64]) -> DFunc {
    let slot_cell = f.vars.len() as u32;
    let mut template: Vec<Value> = f.vars.iter().map(|d| Value::zero(d.ty)).collect();
    template.extend(f.slots.iter().map(|_| Value::I(0)));
    // one cell per distinct constant, keyed by kind and bits
    let mut consts: FxHashMap<(bool, u64), Cell> = FxHashMap::default();
    let mut cell = |o: Operand| -> Cell {
        let (v, key) = match o {
            Operand::Var(v) => return v.0,
            Operand::SlotAddr(s) => return slot_cell + s.0,
            Operand::ConstI(c) => (Value::I(c), (false, c as u64)),
            Operand::ConstF(c) => (Value::F(c), (true, c.to_bits())),
            Operand::GlobalAddr(g) => {
                let a = layout[g.index()];
                (Value::I(a), (false, a as u64))
            }
        };
        *consts.entry(key).or_insert_with(|| {
            template.push(v);
            (template.len() - 1) as Cell
        })
    };

    let mut starts = Vec::with_capacity(f.blocks.len());
    let mut n = 0u32;
    for b in &f.blocks {
        starts.push(n);
        n += b.insts.len() as u32 + 1;
    }
    let mut ops = Vec::with_capacity(n as usize);
    let mut args = Vec::new();
    for (bi, b) in f.blocks.iter().enumerate() {
        for inst in &b.insts {
            ops.push(match inst {
                Inst::Copy { dst, src } => Op::Copy {
                    dst: dst.0,
                    src: cell(*src),
                },
                Inst::Bin { dst, op, a, b } => Op::Bin {
                    dst: dst.0,
                    op: *op,
                    a: cell(*a),
                    b: cell(*b),
                },
                Inst::Un { dst, op, a } => Op::Un {
                    dst: dst.0,
                    op: *op,
                    a: cell(*a),
                },
                Inst::Load {
                    dst,
                    base,
                    offset,
                    ty,
                    spec,
                    site,
                } => Op::Load {
                    dst: dst.0,
                    base: cell(*base),
                    offset: *offset,
                    ty: *ty,
                    speculative: *spec == LoadSpec::Speculative,
                    site: *site,
                },
                Inst::CheckLoad {
                    dst,
                    base,
                    offset,
                    ty,
                    site,
                    ..
                } => Op::CheckLoad {
                    dst: dst.0,
                    base: cell(*base),
                    offset: *offset,
                    ty: *ty,
                    site: *site,
                },
                Inst::Store {
                    base,
                    offset,
                    val,
                    ty,
                    site,
                } => Op::Store {
                    base: cell(*base),
                    val: cell(*val),
                    offset: *offset,
                    ty: *ty,
                    site: *site,
                },
                Inst::Call {
                    dst,
                    callee,
                    args: call_args,
                    site,
                } => {
                    let first = args.len() as u32;
                    args.extend(call_args.iter().map(|&a| cell(a)));
                    Op::Call {
                        dst: dst.map(|d| d.0),
                        callee: *callee,
                        site: *site,
                        args: first,
                        nargs: call_args.len() as u32,
                    }
                }
                Inst::Alloc { dst, words, site } => Op::Alloc {
                    dst: dst.0,
                    words: cell(*words),
                    site: *site,
                },
            });
        }
        let from = BlockId::from_index(bi);
        ops.push(match b.term {
            Terminator::Jump(to) => Op::Jump {
                from,
                to,
                target: starts[to.index()],
            },
            Terminator::Br { cond, then_, else_ } => Op::Br {
                cond: cell(cond),
                from,
                then_,
                else_,
                then_pc: starts[then_.index()],
                else_pc: starts[else_.index()],
            },
            Terminator::Ret(v) => Op::Ret {
                val: v.map(&mut cell),
            },
        });
    }
    DFunc {
        params: f.params,
        template,
        slot_cell,
        slots: f
            .slots
            .iter()
            .map(|s| (s.words, Value::zero(s.ty)))
            .collect(),
        ops,
        entry: starts[f.entry().index()],
        args,
    }
}
