//! The IR interpreter.
//!
//! This is the framework's execution substrate: it runs workloads to collect
//! alias/edge profiles, and it serves as the semantic oracle — an optimized
//! module must produce exactly the values the interpreter produces for the
//! unoptimized module, or the optimizer is wrong. Speculation never gets to
//! change semantics here: a check load simply reloads (the always-correct
//! implementation of `ld.c`), and only the machine simulator in
//! `specframe-machine` models the cycle-level fast path.
//!
//! ## Memory model
//!
//! Word-addressed [`Value`] cells in a [`Memory`], the layout the machine
//! simulator shares (null page, globals, stack, heap; the diagram is on
//! [`Memory`]). Every named region (global, live slot, heap object) is
//! tracked in an interval map so dynamic addresses resolve to the abstract
//! locations ([`Loc`]) the alias profiler records; the lookup runs only
//! when an observer asks [`MemAccess::loc`].
//!
//! ## Execution
//!
//! [`Interpreter::new`] decodes every function once into a flat array of
//! ops whose operands are frame cells (`decode.rs`), and one loop runs
//! all frames of a call: a call pushes a window of cells onto one cell
//! stack and a frame record onto a frame stack instead of recursing
//! natively, so call depth costs no native stack.
//!
//! Every executed instruction and terminator spends one unit of fuel, so a
//! loop of empty blocks runs out of fuel like any other. A run needs
//! exactly [`RunStats::steps`] plus one unit per taken CFG edge and one
//! per function entry (each entered function returns once).

use crate::decode::{decode_module, DFunc, Op};
use crate::observer::{MemAccess, Observer};
use specframe_alias::Loc;
use specframe_ir::{FuncId, FuncSlot, Memory, Module, SlotId, Value};
use std::collections::BTreeMap;
use std::marker::PhantomData;

/// Maximum call depth.
pub const MAX_DEPTH: usize = 512;

/// Dynamic execution counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions executed.
    pub steps: u64,
    /// Plain and advanced/speculative loads executed (real memory reads
    /// that are not checks).
    pub loads: u64,
    /// Check loads executed (`ld.c` / NaT checks). The machine simulator
    /// decides how many of these actually re-access memory; the interpreter
    /// only counts them.
    pub check_loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Calls executed.
    pub calls: u64,
    /// Heap allocations executed.
    pub allocs: u64,
}

/// A run-time failure.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// The fuel budget ran out (use a larger budget for bigger workloads).
    OutOfFuel,
    /// A non-speculative access touched an unmapped or out-of-range address.
    BadAddress(i64),
    /// Integer division or modulo by zero.
    DivByZero,
    /// Call depth exceeded [`MAX_DEPTH`].
    StackOverflow,
    /// A NaT value reached a non-check consumer (branch, store, address).
    NatConsumed,
    /// The requested entry function does not exist.
    NoSuchFunction(String),
    /// Wrong number of entry arguments.
    BadEntryArgs,
    /// The stack region overflowed.
    StackExhausted,
}

impl core::fmt::Display for InterpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            InterpError::OutOfFuel => write!(f, "out of fuel"),
            InterpError::BadAddress(a) => write!(f, "bad address {a}"),
            InterpError::DivByZero => write!(f, "division by zero"),
            InterpError::StackOverflow => write!(f, "call stack overflow"),
            InterpError::NatConsumed => write!(f, "NaT consumed by non-check instruction"),
            InterpError::NoSuchFunction(n) => write!(f, "no such function `{n}`"),
            InterpError::BadEntryArgs => write!(f, "wrong number of entry arguments"),
            InterpError::StackExhausted => write!(f, "stack region exhausted"),
        }
    }
}

impl std::error::Error for InterpError {}

/// One named live region: the addresses `[start, end)` are `loc`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Region {
    pub(crate) start: i64,
    pub(crate) end: i64,
    pub(crate) loc: Loc,
}

/// Interval map of every named live region: start -> (end, loc).
#[derive(Debug, Default)]
pub(crate) struct Regions {
    map: BTreeMap<i64, (i64, Loc)>,
    /// How many times a frame has popped its slot regions. A region looked
    /// up since the last pop still names its addresses: only those pops
    /// remove regions, and a new region never overlaps a live one (slots
    /// push above every live slot, objects above every live object).
    pub(crate) pops: u64,
}

impl Regions {
    fn insert(&mut self, start: i64, end: i64, loc: Loc) {
        self.map.insert(start, (end, loc));
    }

    /// The region containing `addr`, if any.
    pub(crate) fn lookup(&self, addr: i64) -> Option<Region> {
        let (&start, &(end, loc)) = self.map.range(..=addr).next_back()?;
        (addr < end).then_some(Region { start, end, loc })
    }
}

/// One call frame of a run.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: FuncId,
    /// The op the frame runs next.
    pc: u32,
    /// The frame's first cell on the cell stack.
    base: usize,
    /// The memory stack top before the frame pushed its slots.
    mark: i64,
    invocation: u64,
}

/// How a frame's stretch of the run loop ended.
enum Exit {
    /// It calls `FuncId` with the collected arguments, and resumes at the
    /// op index.
    Call(FuncId, usize),
    /// It returns the value.
    Ret(Option<Value>),
}

/// Everything a run changes besides its frames. Kept apart from the
/// decoded code, so the run loop can borrow both at once.
struct State {
    mem: Memory,
    regions: Regions,
    fuel: u64,
    stats: RunStats,
    invocations: u64,
}

/// The interpreter state for one module.
pub struct Interpreter<'m> {
    code: Vec<DFunc>,
    st: State,
    module: PhantomData<&'m Module>,
}

impl<'m> Interpreter<'m> {
    /// Creates an interpreter with globals initialized and `fuel`
    /// budget (one unit per executed instruction or terminator).
    pub fn new(m: &'m Module, fuel: u64) -> Interpreter<'m> {
        let layout = m.global_layout();
        let global_end = layout
            .last()
            .zip(m.globals.last())
            .map(|(&base, g)| base + i64::from(g.words))
            .unwrap_or(Module::GLOBAL_BASE);
        let mut st = State {
            mem: Memory::new(global_end),
            regions: Regions::default(),
            fuel,
            stats: RunStats::default(),
            invocations: 0,
        };
        for (gi, g) in m.globals.iter().enumerate() {
            let base = layout[gi];
            st.regions.insert(
                base,
                base + i64::from(g.words),
                Loc::Global(specframe_ir::GlobalId::from_index(gi)),
            );
            for w in 0..g.words as usize {
                let v = g.init.get(w).copied().unwrap_or(Value::zero(g.ty));
                st.mem.write(base + w as i64, v);
            }
        }
        Interpreter {
            code: decode_module(m, &layout),
            st,
            module: PhantomData,
        }
    }

    /// Execution counters so far.
    pub fn stats(&self) -> RunStats {
        self.st.stats
    }

    /// Reads a memory cell (for post-run inspection in tests).
    pub fn peek(&self, addr: i64) -> Value {
        self.st.mem.read(addr)
    }

    /// Calls `func` with `args`, streaming events to `obs`.
    ///
    /// # Errors
    /// Any [`InterpError`] raised during execution.
    pub fn call<O: Observer + ?Sized>(
        &mut self,
        func: FuncId,
        args: &[Value],
        obs: &mut O,
    ) -> Result<Option<Value>, InterpError> {
        let mut cells = Vec::new();
        let mut frames = Vec::new();
        let r = self
            .enter(func, args, &mut cells, &mut frames, obs)
            .and_then(|()| self.run(&mut cells, &mut frames, obs));
        // an error leaves frames behind: pop them as their returns would
        while let Some(fr) = frames.pop() {
            self.leave(&fr, &cells);
        }
        r
    }

    /// Pushes a frame for `func`: its cells from the template, the
    /// arguments, and its slots.
    fn enter<O: Observer + ?Sized>(
        &mut self,
        func: FuncId,
        args: &[Value],
        cells: &mut Vec<Value>,
        frames: &mut Vec<Frame>,
        obs: &mut O,
    ) -> Result<(), InterpError> {
        if frames.len() >= MAX_DEPTH {
            return Err(InterpError::StackOverflow);
        }
        let f = &self.code[func.index()];
        if args.len() != f.params as usize {
            return Err(InterpError::BadEntryArgs);
        }
        let st = &mut self.st;
        st.invocations += 1;
        obs.on_entry(func, st.invocations);
        let fr = Frame {
            func,
            pc: f.entry,
            base: cells.len(),
            mark: st.mem.stack_top(),
            invocation: st.invocations,
        };
        cells.extend_from_slice(&f.template);
        cells[fr.base..fr.base + args.len()].copy_from_slice(args);
        // pushed before its slots, so a failed push pops the ones before
        // it; a slot cell not written yet holds address 0, no region's
        frames.push(fr);
        for (si, &(words, fill)) in f.slots.iter().enumerate() {
            let base = st
                .mem
                .push(words, fill)
                .ok_or(InterpError::StackExhausted)?;
            cells[fr.base + f.slot_cell as usize + si] = Value::I(base);
            let slot = FuncSlot {
                func,
                slot: SlotId::from_index(si),
            };
            st.regions
                .insert(base, base + i64::from(words), Loc::Slot(slot));
        }
        Ok(())
    }

    /// Pops a frame's slot regions and its stack storage.
    fn leave(&mut self, fr: &Frame, cells: &[Value]) {
        let f = &self.code[fr.func.index()];
        let st = &mut self.st;
        if !f.slots.is_empty() {
            let first = fr.base + f.slot_cell as usize;
            for addr in &cells[first..first + f.slots.len()] {
                st.regions.map.remove(&addr.as_i64());
            }
            st.regions.pops += 1;
        }
        st.mem.pop_to(fr.mark);
    }

    /// Runs the frames on the stack until the bottom one returns.
    fn run<O: Observer + ?Sized>(
        &mut self,
        cells: &mut Vec<Value>,
        frames: &mut Vec<Frame>,
        obs: &mut O,
    ) -> Result<Option<Value>, InterpError> {
        let mut args = Vec::new();
        loop {
            let fr = *frames.last().expect("a frame is running");
            let f = &self.code[fr.func.index()];
            let regs = &mut cells[fr.base..];
            match exec(f, &mut self.st, regs, &fr, &mut args, obs)? {
                Exit::Call(callee, pc) => {
                    frames.last_mut().expect("the caller").pc = pc as u32;
                    self.enter(callee, &args, cells, frames, obs)?;
                }
                Exit::Ret(value) => {
                    frames.pop();
                    self.leave(&fr, cells);
                    cells.truncate(fr.base);
                    let Some(caller) = frames.last() else {
                        return Ok(value);
                    };
                    let Op::Call { dst, site, .. } =
                        self.code[caller.func.index()].ops[caller.pc as usize - 1]
                    else {
                        unreachable!("a caller resumes after its call");
                    };
                    obs.on_return(site);
                    if let Some(d) = dst {
                        // verifier guarantees dst implies a non-void callee
                        cells[caller.base + d as usize] = value.unwrap_or(Value::I(0));
                    }
                }
            }
        }
    }
}

/// Runs frame `fr` of function `f`, whose cells are `regs`, from its `pc`
/// until it calls (leaving the arguments in `args`) or returns. The fuel
/// and step counts live in locals meanwhile, so every exit writes them
/// back.
fn exec<O: Observer + ?Sized>(
    f: &DFunc,
    st: &mut State,
    regs: &mut [Value],
    fr: &Frame,
    args: &mut Vec<Value>,
    obs: &mut O,
) -> Result<Exit, InterpError> {
    let mut pc = fr.pc as usize;
    let (mut fuel, mut steps) = (st.fuel, st.stats.steps);
    let exit = loop {
        let op = &f.ops[pc];
        pc += 1;
        if fuel == 0 {
            break Err(InterpError::OutOfFuel);
        }
        fuel -= 1;
        match *op {
            Op::Copy { dst, src } => {
                steps += 1;
                regs[dst as usize] = regs[src as usize];
            }
            Op::Bin { dst, op, a, b } => {
                steps += 1;
                match op.eval(regs[a as usize], regs[b as usize]) {
                    Some(v) => regs[dst as usize] = v,
                    None => break Err(InterpError::DivByZero),
                }
            }
            Op::Un { dst, op, a } => {
                steps += 1;
                regs[dst as usize] = op.eval(regs[a as usize]);
            }
            Op::Load {
                dst,
                base,
                offset,
                ty,
                speculative,
                site,
            } => {
                steps += 1;
                let addr = match st.address(regs[base as usize], offset) {
                    Ok(addr) => addr,
                    Err(_) if speculative => {
                        // deferred fault: NaT token (Figure 1)
                        regs[dst as usize] = Value::Nat;
                        continue;
                    }
                    Err(e) => break Err(e),
                };
                let v = st.mem.read(addr).coerce(ty);
                regs[dst as usize] = v;
                st.stats.loads += 1;
                obs.on_mem(&MemAccess {
                    site,
                    func: fr.func,
                    addr,
                    regions: &st.regions,
                    value: v,
                    ty,
                    is_load: true,
                    invocation: fr.invocation,
                });
            }
            Op::CheckLoad {
                dst,
                base,
                offset,
                ty,
                site,
            } => {
                // semantics: always reload — correctness never depends on
                // the speculation outcome
                steps += 1;
                let addr = match st.address(regs[base as usize], offset) {
                    Ok(addr) => addr,
                    Err(e) => break Err(e),
                };
                let v = st.mem.read(addr).coerce(ty);
                regs[dst as usize] = v;
                st.stats.check_loads += 1;
                obs.on_mem(&MemAccess {
                    site,
                    func: fr.func,
                    addr,
                    regions: &st.regions,
                    value: v,
                    ty,
                    is_load: true,
                    invocation: fr.invocation,
                });
            }
            Op::Store {
                base,
                val,
                offset,
                ty,
                site,
            } => {
                steps += 1;
                let addr = match st.address(regs[base as usize], offset) {
                    Ok(addr) => addr,
                    Err(e) => break Err(e),
                };
                let v = regs[val as usize];
                if v.is_nat() {
                    break Err(InterpError::NatConsumed);
                }
                let v = v.coerce(ty);
                st.mem.write(addr, v);
                st.stats.stores += 1;
                obs.on_mem(&MemAccess {
                    site,
                    func: fr.func,
                    addr,
                    regions: &st.regions,
                    value: v,
                    ty,
                    is_load: false,
                    invocation: fr.invocation,
                });
            }
            Op::Call {
                callee,
                site,
                args: first,
                nargs,
                ..
            } => {
                steps += 1;
                args.clear();
                for &a in &f.args[first as usize..(first + nargs) as usize] {
                    args.push(regs[a as usize]);
                }
                if args.iter().any(|v| v.is_nat()) {
                    break Err(InterpError::NatConsumed);
                }
                st.stats.calls += 1;
                obs.on_call(site, fr.func, callee);
                break Ok(Exit::Call(callee, pc));
            }
            Op::Alloc { dst, words, site } => {
                steps += 1;
                let w = regs[words as usize].as_i64();
                let base = match st.mem.alloc(w) {
                    Ok(base) => base,
                    Err(end) => break Err(InterpError::BadAddress(end)),
                };
                st.stats.allocs += 1;
                // all objects from one site share one LOC name, so each
                // allocation gets its own interval entry
                st.regions.insert(base, st.mem.heap_top(), Loc::Heap(site));
                regs[dst as usize] = Value::I(base);
            }
            Op::Jump { from, to, target } => {
                obs.on_edge(fr.func, from, to);
                pc = target as usize;
            }
            Op::Br {
                cond,
                from,
                then_,
                else_,
                then_pc,
                else_pc,
            } => {
                let c = regs[cond as usize];
                if c.is_nat() {
                    break Err(InterpError::NatConsumed);
                }
                let (to, target) = if c.as_i64() != 0 {
                    (then_, then_pc)
                } else {
                    (else_, else_pc)
                };
                obs.on_edge(fr.func, from, to);
                pc = target as usize;
            }
            Op::Ret { val } => break Ok(Exit::Ret(val.map(|v| regs[v as usize]))),
        }
    };
    st.fuel = fuel;
    st.stats.steps = steps;
    exit
}

impl State {
    /// The address `base + offset` a non-speculative access touches.
    #[inline]
    fn address(&self, base: Value, offset: i64) -> Result<i64, InterpError> {
        if base.is_nat() {
            return Err(InterpError::NatConsumed);
        }
        let addr = base.as_i64() + offset;
        if !self.mem.mapped(addr) {
            return Err(InterpError::BadAddress(addr));
        }
        Ok(addr)
    }
}

/// Runs `func_name` with `args` and no instrumentation.
///
/// # Errors
/// See [`InterpError`].
pub fn run(
    m: &Module,
    func_name: &str,
    args: &[Value],
    fuel: u64,
) -> Result<(Option<Value>, RunStats), InterpError> {
    run_with(m, func_name, args, fuel, &mut crate::observer::NullObserver)
}

/// Runs `func_name` with `args`, streaming events to `obs`.
///
/// # Errors
/// See [`InterpError`].
pub fn run_with<O: Observer + ?Sized>(
    m: &Module,
    func_name: &str,
    args: &[Value],
    fuel: u64,
    obs: &mut O,
) -> Result<(Option<Value>, RunStats), InterpError> {
    let f = m
        .func_by_name(func_name)
        .ok_or_else(|| InterpError::NoSuchFunction(func_name.to_string()))?;
    let mut it = Interpreter::new(m, fuel);
    let r = it.call(f, args, obs)?;
    Ok((r, it.stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_ir::{parse_module, Inst, LoadSpec, ModuleBuilder, Operand, Ty, STACK_WORDS};

    #[test]
    fn computes_a_sum_loop() {
        let src = r#"
func sum(n: i64) -> i64 {
  var i: i64
  var acc: i64
  var c: i64
entry:
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  acc = add acc, i
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#;
        let m = parse_module(src).unwrap();
        let (r, stats) = run(&m, "sum", &[Value::I(10)], 10_000).unwrap();
        assert_eq!(r, Some(Value::I(45)));
        assert!(stats.steps > 30);
        assert_eq!(stats.loads, 0);
    }

    #[test]
    fn globals_initialized_and_stored() {
        let src = r#"
global g: i64[2] = [7, 8]

func f() -> i64 {
  var a: i64
  var b: i64
entry:
  a = load.i64 [@g]
  b = load.i64 [@g + 1]
  a = add a, b
  store.i64 [@g], a
  a = load.i64 [@g]
  ret a
}
"#;
        let m = parse_module(src).unwrap();
        let (r, stats) = run(&m, "f", &[], 1000).unwrap();
        assert_eq!(r, Some(Value::I(15)));
        assert_eq!(stats.loads, 3);
        assert_eq!(stats.stores, 1);
    }

    #[test]
    fn heap_alloc_and_pointer_walk() {
        let src = r#"
func f(n: i64) -> i64 {
  var p: ptr
  var q: ptr
  var i: i64
  var c: i64
  var acc: i64
  var v: i64
entry:
  p = alloc n
  i = 0
  jmp fill
fill:
  c = lt i, n
  br c, fbody, sum
fbody:
  q = add p, i
  store.i64 [q], i
  i = add i, 1
  jmp fill
sum:
  i = 0
  acc = 0
  jmp shead
shead:
  c = lt i, n
  br c, sbody, exit
sbody:
  q = add p, i
  v = load.i64 [q]
  acc = add acc, v
  i = add i, 1
  jmp shead
exit:
  ret acc
}
"#;
        let m = parse_module(src).unwrap();
        let (r, stats) = run(&m, "f", &[Value::I(8)], 10_000).unwrap();
        assert_eq!(r, Some(Value::I(28)));
        assert_eq!(stats.allocs, 1);
        assert_eq!(stats.loads, 8);
    }

    #[test]
    fn slots_are_per_invocation() {
        let src = r#"
func helper(v: i64) -> i64 {
  var r: i64
  slot tmp: i64[1]
entry:
  store.i64 [&tmp], v
  r = load.i64 [&tmp]
  ret r
}

func main() -> i64 {
  var a: i64
  var b: i64
entry:
  a = call helper(3)
  b = call helper(4)
  a = add a, b
  ret a
}
"#;
        let m = parse_module(src).unwrap();
        let (r, stats) = run(&m, "main", &[], 10_000).unwrap();
        assert_eq!(r, Some(Value::I(7)));
        assert_eq!(stats.calls, 2);
    }

    #[test]
    fn null_deref_faults() {
        let src = r#"
func f() -> i64 {
  var p: ptr
  var v: i64
entry:
  p = 0
  v = load.i64 [p]
  ret v
}
"#;
        let m = parse_module(src).unwrap();
        assert_eq!(
            run(&m, "f", &[], 100).unwrap_err(),
            InterpError::BadAddress(0)
        );
    }

    #[test]
    fn speculative_load_defers_fault_to_nat() {
        // ld.s of a bad address gives NaT; a later chks reloads from a good
        // address — here we only verify NaT is produced and storing it traps
        let mut mb = ModuleBuilder::new();
        let f = mb.declare_func("f", &[], Some(Ty::I64));
        {
            let mut fb = mb.define(f);
            let v = fb.var("v", Ty::I64);
            let site = {
                let s = fb.load(Operand::ConstI(0), 0, Ty::I64);
                // rewrite to speculative
                s
            };
            let _ = site;
            fb.copy_to(v, 1.into());
            fb.ret(Some(v.into()));
        }
        let mut m = mb.finish();
        // make the load speculative
        if let Inst::Load { spec, .. } = &mut m.funcs[0].blocks[0].insts[0] {
            *spec = LoadSpec::Speculative;
        }
        let (r, _) = run(&m, "f", &[], 100).unwrap();
        assert_eq!(r, Some(Value::I(1)));
    }

    #[test]
    fn nat_propagates_then_store_traps() {
        let src = r#"
func f(p: ptr) -> i64 {
  var v: i64
  var w: i64
entry:
  v = load.s.i64 [p]
  w = add v, 1
  store.i64 [@g], w
  ret w
}
global g: i64[1]
"#;
        let m = parse_module(src).unwrap();
        assert_eq!(
            run(&m, "f", &[Value::I(2)], 100).unwrap_err(),
            InterpError::NatConsumed
        );
    }

    #[test]
    fn fuel_bounds_infinite_loops() {
        // a loop with an instruction, and one of blocks with none: the
        // terminators spend fuel too, so neither runs forever
        let busy = "func f() {\n  var x: i64\nentry:\n  x = add 0, 0\n  jmp entry\n}";
        let empty = "func f() {\nentry:\n  jmp spin\nspin:\n  jmp spin\n}";
        for src in [busy, empty] {
            let m = parse_module(src).unwrap();
            assert_eq!(run(&m, "f", &[], 1000).unwrap_err(), InterpError::OutOfFuel);
        }
    }

    #[test]
    fn steps_count_instructions_not_terminators() {
        let src = "func f() -> i64 {\n  var x: i64\nentry:\n  x = 1\n  jmp next\nnext:\n  ret x\n}";
        let m = parse_module(src).unwrap();
        let (r, stats) = run(&m, "f", &[], 3).unwrap();
        assert_eq!((r, stats.steps), (Some(Value::I(1)), 1));
        assert_eq!(run(&m, "f", &[], 2).unwrap_err(), InterpError::OutOfFuel);
    }

    #[test]
    fn float_memory_and_coercion() {
        let src = r#"
global a: f64[1] = [2.5]

func f() -> f64 {
  var x: f64
  var y: f64
entry:
  x = load.f64 [@a]
  y = fmul x, 4.0
  store.f64 [@a], y
  x = load.f64 [@a]
  ret x
}
"#;
        let m = parse_module(src).unwrap();
        let (r, _) = run(&m, "f", &[], 100).unwrap();
        assert_eq!(r, Some(Value::F(10.0)));
    }

    #[test]
    fn recursion_depth_limited() {
        let src = r#"
func f(n: i64) -> i64 {
  var r: i64
entry:
  r = call f(n)
  ret r
}
"#;
        let m = parse_module(src).unwrap();
        assert_eq!(
            run(&m, "f", &[Value::I(1)], 1_000_000).unwrap_err(),
            InterpError::StackOverflow
        );
    }

    #[test]
    fn oversized_slots_exhaust_stack() {
        let src = format!(
            "func f() {{\n  slot big: i64[{}]\nentry:\n  ret\n}}",
            STACK_WORDS + 1
        );
        let m = parse_module(&src).unwrap();
        assert_eq!(
            run(&m, "f", &[], 100).unwrap_err(),
            InterpError::StackExhausted
        );
    }

    #[test]
    fn check_loads_counted_separately() {
        let src = r#"
global g: i64[1] = [5]

func f() -> i64 {
  var a: i64
  var b: i64
entry:
  a = load.a.i64 [@g]
  b = ldc.i64 [@g]
  a = add a, b
  ret a
}
"#;
        let m = parse_module(src).unwrap();
        let (r, stats) = run(&m, "f", &[], 100).unwrap();
        assert_eq!(r, Some(Value::I(10)));
        assert_eq!(stats.loads, 1);
        assert_eq!(stats.check_loads, 1);
    }

    #[test]
    fn div_by_zero_traps() {
        let src = r#"
func f(a: i64) -> i64 {
  var r: i64
entry:
  r = div a, 0
  ret r
}
"#;
        let m = parse_module(src).unwrap();
        assert_eq!(
            run(&m, "f", &[Value::I(1)], 100).unwrap_err(),
            InterpError::DivByZero
        );
    }
}
