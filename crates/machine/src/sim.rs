//! The cycle-approximate EPIC simulator with `pfmon`-style counters.
//!
//! Memory is a [`Memory`], laid out exactly as the reference interpreter
//! lays it out (the diagram is on [`Memory`]).

use crate::alat::Alat;
use crate::costs::CostModel;
use crate::decode::{decode_program, DFunc, Op};
use crate::isa::{ChkKind, LdKind, MProgram, Reg};
use crate::policy::{FaultAction, FaultPolicy, Injector};
use crate::target::{Target, TargetId};
use specframe_ir::{Memory, Value};

/// Maximum call depth.
pub const MAX_DEPTH: usize = 512;

/// `pfmon`-style hardware counters.
///
/// The paper's figures map onto these as:
/// * Figure 10 "reduction of loads" — `loads_retired` (plain + advanced +
///   speculative loads; successful checks do not access memory);
/// * Figure 10 "speedup" — `cycles` ratios;
/// * Figure 11 "check loads / total loads retired" —
///   `check_loads / (loads_retired + check_loads)`;
/// * Figure 11 "mis-speculation ratio" — `failed_checks / check_loads`;
/// * the §5.2 RSE discussion — `promoted_regs` as the pressure proxy.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    /// Instructions retired.
    pub insts: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Cycles attributable to data access (load latencies, failed checks).
    pub data_access_cycles: u64,
    /// Memory-accessing loads retired (`ld`, `ld.a`, `ld.sa`).
    pub loads_retired: u64,
    /// Integer/pointer loads among `loads_retired`.
    pub int_loads: u64,
    /// Floating-point loads among `loads_retired`.
    pub fp_loads: u64,
    /// Check loads retired (`ld.c` and NaT checks).
    pub check_loads: u64,
    /// Checks that failed and re-loaded.
    pub failed_checks: u64,
    /// Stores retired.
    pub stores: u64,
    /// Branches retired.
    pub branches: u64,
    /// Calls executed.
    pub calls: u64,
    /// ALAT allocations.
    pub alat_inserts: u64,
    /// ALAT entries killed by stores.
    pub alat_store_invalidations: u64,
    /// ALAT conflict evictions.
    pub alat_evictions: u64,
    /// ALAT entries dropped by the fault policy (random kills plus entries
    /// lost to flash clears).
    pub alat_fault_kills: u64,
    /// Whole-table invalidations injected by the fault policy (the
    /// context-switch model).
    pub alat_flash_clears: u64,
    /// Maximum number of promoted-temporary registers live in any single
    /// frame (register-pressure proxy for the paper's RSE discussion).
    pub promoted_regs: u64,
    /// Speculation barriers retired (`MInst::Fence`).
    pub fences_retired: u64,
    /// Taint mode: loads whose value came from a secret-marked address.
    pub taint_loads: u64,
    /// Taint mode: dynamic flows of a potentially-misspeculated value into
    /// an address computation (load/store/check base) inside its window.
    pub leak_addr_events: u64,
    /// Taint mode: dynamic flows of a potentially-misspeculated value into
    /// a branch condition inside its window.
    pub leak_branch_events: u64,
    /// Taint mode: leak events whose flowing value was also secret-tainted.
    pub leak_secret_events: u64,
}

impl Counters {
    /// Total retired loads including checks (the paper's Figure 11
    /// denominator).
    pub fn total_loads_retired(&self) -> u64 {
        self.loads_retired + self.check_loads
    }

    /// Fraction of checks among all retired loads.
    pub fn check_ratio(&self) -> f64 {
        let t = self.total_loads_retired();
        if t == 0 {
            0.0
        } else {
            self.check_loads as f64 / t as f64
        }
    }

    /// Fraction of checks that failed.
    pub fn mis_speculation_ratio(&self) -> f64 {
        if self.check_loads == 0 {
            0.0
        } else {
            self.failed_checks as f64 / self.check_loads as f64
        }
    }
}

/// A machine-level execution failure.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Fuel exhausted.
    OutOfFuel,
    /// Unmapped or out-of-range non-speculative access.
    BadAddress(i64),
    /// Integer division by zero.
    DivByZero,
    /// Call depth exceeded.
    StackOverflow,
    /// NaT consumed by a non-check instruction.
    NatConsumed,
    /// Unknown entry function.
    NoSuchFunction(String),
    /// Wrong entry arity.
    BadEntryArgs,
    /// Stack region exhausted.
    StackExhausted,
}

impl core::fmt::Display for SimError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for SimError {}

/// Sink class of a speculative leak: what kind of observable computation
/// the potentially-misspeculated value flowed into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SinkClass {
    /// Address computation: the base of a load, store or check.
    Address,
    /// Branch condition.
    Branch,
}

impl core::fmt::Display for SinkClass {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SinkClass::Address => write!(f, "address"),
            SinkClass::Branch => write!(f, "branch"),
        }
    }
}

/// One taint-to-sink flow observed by the taint-mode simulator: inside the
/// speculation window of the advanced load whose destination is `origin`,
/// a value derived from it reached the sink at instruction `at`.
/// Site-deduplicated per (function, sink instruction); the dynamic event
/// counts live in [`Counters`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakEvent {
    /// Function the sink is in.
    pub func: String,
    /// Instruction index of the sink within the function.
    pub at: usize,
    /// Destination register of the speculative load whose window was open.
    pub origin: u32,
    /// What the value flowed into.
    pub sink: SinkClass,
    /// Whether the flowing value was also secret-tainted.
    pub secret: bool,
}

/// Per-register taint shadow: the set of open speculation-window origins
/// (destination registers of unchecked `ld.a`/`ld.sa`) whose value may
/// have flowed here, plus a secret bit for `--taint-secret` data.
#[derive(Debug, Clone, Default)]
struct TaintCell {
    secret: bool,
    win: std::collections::BTreeSet<u32>,
}

/// Taint-mode bookkeeping (present only when taint tracking is enabled).
struct TaintState {
    /// Word addresses whose contents are secret.
    secret_mem: std::collections::BTreeSet<i64>,
    /// Site-deduplicated leak events.
    events: Vec<LeakEvent>,
    seen: std::collections::BTreeSet<(String, usize)>,
    /// First dynamic execution of each speculative load:
    /// `(function, instruction index, Counters::insts at execution)` —
    /// the raw material for the adversarial eviction constructor.
    spec_trace: Vec<(String, usize, u64)>,
    traced: std::collections::BTreeSet<(String, usize)>,
    /// Secret bit of the value the innermost returning callee produced.
    ret_secret: bool,
}

/// Everything a taint-mode run produces.
#[derive(Debug)]
pub struct TaintReport {
    /// Architectural result — must equal the untainted run's bit for bit.
    pub result: Option<Value>,
    /// Counters including the taint/leak/fence rows.
    pub counters: Counters,
    /// Site-deduplicated taint-to-sink events.
    pub events: Vec<LeakEvent>,
    /// First dynamic execution of each speculative load:
    /// `(function, instruction index, instructions retired at execution)`.
    pub spec_trace: Vec<(String, usize, u64)>,
}

/// One call frame of a run.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: usize,
    /// The op the frame runs next.
    pc: usize,
    /// The frame's first cell on the cell stack.
    base: usize,
    /// The memory stack top before the frame pushed its slots.
    mark: i64,
}

/// The frames of one run: the cell stack, its taint shadow (grown only in
/// taint mode, cell for cell) and the frame records.
#[derive(Default)]
struct Stack {
    cells: Vec<Value>,
    taints: Vec<TaintCell>,
    frames: Vec<Frame>,
}

/// How a frame's stretch of the run loop ended.
enum Exit {
    /// It calls function `.0` with the collected arguments, and resumes at
    /// op `.1`.
    Call(usize, usize),
    /// It returns the value.
    Ret(Option<Value>),
}

/// Machine state for one program.
pub struct Simulator<'p> {
    prog: &'p MProgram,
    code: Vec<DFunc>,
    m: Machine,
}

/// Everything a run changes besides its frames. Kept apart from the
/// decoded code, so the run loop can borrow both at once.
struct Machine {
    costs: CostModel,
    mem: Memory,
    alat: Alat,
    /// The fault policy's injections over this run; `None` when it never
    /// drops an entry, and then nothing is asked per instruction.
    injector: Option<Injector>,
    /// The policy forces every check to miss (`forced-miss`).
    forces_misses: bool,
    counters: Counters,
    fuel: u64,
    taint: Option<TaintState>,
    /// Whether the target has a hardware ALAT. Without one, `ld.c` has
    /// nothing to consult (it always misses) and software check verdicts
    /// ([`crate::MInst::ChkCmp`]) carry the speculation contract instead.
    has_alat: bool,
    /// Policy geometry has zero entries (`always-miss`): every software
    /// check verdict is forced to miss, mirroring a 0-entry ALAT.
    zero_geom: bool,
    /// Pending fault-policy verdict poisonings on a no-ALAT target: each
    /// [`FaultAction`] charges one forced miss against the next software
    /// check (forcing extra misses is always architecturally legal — the
    /// recovery path reloads current memory through the current address).
    poison: u64,
}

impl<'p> Simulator<'p> {
    /// Creates a simulator for `target` with globals loaded: the target's
    /// cost table and ALAT presence govern execution, and `policy` supplies
    /// the ALAT geometry and fault behavior (see [`crate::policy`]).
    pub fn for_target(
        prog: &'p MProgram,
        target: &Target,
        fuel: u64,
        policy: &FaultPolicy,
    ) -> Simulator<'p> {
        let (entries, ways) = policy.geometry();
        let mut m = Machine {
            costs: target.costs,
            mem: Memory::new(prog.globals_end),
            alat: Alat::with_geometry(entries, ways),
            injector: Injector::new(policy),
            forces_misses: *policy == FaultPolicy::ForcedMiss,
            counters: Counters::default(),
            fuel,
            taint: None,
            has_alat: target.has_alat,
            zero_geom: entries == 0,
            poison: 0,
        };
        for &(addr, v) in &prog.global_image {
            m.mem.write(addr, v);
        }
        Simulator {
            prog,
            code: decode_program(prog),
            m,
        }
    }

    /// Switches on taint mode: `secret` word addresses are marked secret,
    /// and every taint-to-sink flow inside a speculation window is recorded
    /// (see [`LeakEvent`]). Architectural results are unaffected.
    pub fn enable_taint(&mut self, secret: &[i64]) {
        self.m.taint = Some(TaintState {
            secret_mem: secret.iter().copied().collect(),
            events: Vec::new(),
            seen: Default::default(),
            spec_trace: Vec::new(),
            traced: Default::default(),
            ret_secret: false,
        });
    }

    /// Counters so far (ALAT counters folded in).
    pub fn counters(&self) -> Counters {
        let (mut c, alat) = (self.m.counters, &self.m.alat);
        c.alat_inserts = alat.inserts;
        c.alat_store_invalidations = alat.store_invalidations;
        c.alat_evictions = alat.evictions;
        c.alat_fault_kills = alat.fault_kills;
        c.alat_flash_clears = alat.flash_clears;
        c
    }

    /// Reads a memory cell; `None` for addresses outside the mapped
    /// globals/stack/heap range, so callers can't mistake out-of-range
    /// reads for real zeros.
    pub fn peek(&self, addr: i64) -> Option<Value> {
        let mem = &self.m.mem;
        mem.mapped(addr).then(|| mem.read(addr))
    }

    /// Runs function `index` with `args`.
    ///
    /// # Errors
    /// See [`SimError`].
    pub fn run(&mut self, index: usize, args: &[Value]) -> Result<Option<Value>, SimError> {
        let mut stack = Stack::default();
        let r = self
            .enter(index, args, &[], &mut stack)
            .and_then(|()| self.resume(&mut stack));
        // an error leaves frames behind: free their stack storage as their
        // returns would
        if let Some(bottom) = stack.frames.first() {
            self.m.mem.pop_to(bottom.mark);
        }
        r
    }

    /// Pushes a frame for function `index`: its cells from the template,
    /// the arguments (with their secret bits in taint mode), and its slots.
    fn enter(
        &mut self,
        index: usize,
        args: &[Value],
        secrets: &[bool],
        stack: &mut Stack,
    ) -> Result<(), SimError> {
        if stack.frames.len() >= MAX_DEPTH {
            return Err(SimError::StackOverflow);
        }
        let f = &self.code[index];
        if args.len() != f.params as usize {
            return Err(SimError::BadEntryArgs);
        }
        let m = &mut self.m;
        m.counters.promoted_regs = m.counters.promoted_regs.max(f.promoted);
        let fr = Frame {
            func: index,
            pc: 0,
            base: stack.cells.len(),
            mark: m.mem.stack_top(),
        };
        stack.cells.extend_from_slice(&f.template);
        stack.cells[fr.base..fr.base + args.len()].copy_from_slice(args);
        if m.taint.is_some() {
            // speculation windows are frame-local (mirroring the static
            // leak audit's intraprocedural model); secret bits cross the
            // call boundary with the argument values
            stack.taints.resize(stack.cells.len(), TaintCell::default());
            for (cell, &s) in stack.taints[fr.base..].iter_mut().zip(secrets) {
                cell.secret = s;
            }
        }
        stack.frames.push(fr);
        for (si, &w) in f.slot_words.iter().enumerate() {
            let base = m.mem.push(w, Value::I(0)).ok_or(SimError::StackExhausted)?;
            stack.cells[fr.base + f.slot_cell as usize + si] = Value::I(base);
        }
        Ok(())
    }

    /// Runs the frames on the stack until the bottom one returns.
    fn resume(&mut self, stack: &mut Stack) -> Result<Option<Value>, SimError> {
        let (mut args, mut secrets) = (Vec::new(), Vec::new());
        loop {
            let fr = *stack.frames.last().expect("a frame is running");
            let frame = FrameRef {
                f: &self.code[fr.func],
                name: &self.prog.funcs[fr.func].name,
                regs: &mut stack.cells[fr.base..],
                taints: stack.taints.get_mut(fr.base..).unwrap_or_default(),
            };
            match self.m.exec(frame, fr.pc, &mut args, &mut secrets)? {
                Exit::Call(callee, pc) => {
                    stack.frames.last_mut().expect("the caller").pc = pc;
                    self.enter(callee, &args, &secrets, stack)?;
                }
                Exit::Ret(value) => {
                    stack.frames.pop();
                    self.m.mem.pop_to(fr.mark);
                    stack.cells.truncate(fr.base);
                    stack.taints.truncate(fr.base);
                    let Some(caller) = stack.frames.last() else {
                        return Ok(value);
                    };
                    let Op::Call { d: Some(d), .. } = self.code[caller.func].ops[caller.pc - 1]
                    else {
                        continue;
                    };
                    let d = caller.base + d as usize;
                    stack.cells[d] = value.unwrap_or(Value::I(0));
                    if let Some(ts) = &self.m.taint {
                        stack.taints[d] = TaintCell {
                            secret: ts.ret_secret,
                            win: Default::default(),
                        };
                    }
                }
            }
        }
    }
}

/// The running frame as the run loop sees it.
struct FrameRef<'a> {
    f: &'a DFunc,
    /// The function's name, for leak events.
    name: &'a str,
    /// The frame's cells.
    regs: &'a mut [Value],
    /// Their taint shadow; empty outside taint mode.
    taints: &'a mut [TaintCell],
}

impl Machine {
    /// Does to the ALAT what the fault policy's injector drew for this
    /// instruction boundary.
    fn inject_fault(&mut self, action: FaultAction) {
        match action {
            FaultAction::None => {}
            FaultAction::KillOne(lottery) => {
                if self.has_alat {
                    self.alat.kill_one(lottery);
                } else {
                    self.poison += 1;
                }
            }
            FaultAction::FlashClear => {
                if self.has_alat {
                    self.alat.flash_clear();
                } else {
                    self.poison += 1;
                    self.alat.flash_clears += 1;
                }
            }
        }
    }

    /// Consumes one pending fault-policy poisoning (no-ALAT targets); the
    /// forced miss is accounted like an ALAT entry lost to the policy.
    fn take_poison(&mut self) -> bool {
        if self.poison > 0 {
            self.poison -= 1;
            self.alat.fault_kills += 1;
            true
        } else {
            false
        }
    }

    /// Records one taint-to-sink flow (taint mode only; no-op when the
    /// window set of `cell` is empty).
    fn leak_event(&mut self, func: &str, at: usize, cell: &TaintCell, sink: SinkClass) {
        if cell.win.is_empty() {
            return;
        }
        let Some(ts) = self.taint.as_mut() else {
            return;
        };
        match sink {
            SinkClass::Address => self.counters.leak_addr_events += 1,
            SinkClass::Branch => self.counters.leak_branch_events += 1,
        }
        if cell.secret {
            self.counters.leak_secret_events += 1;
        }
        if ts.seen.insert((func.to_string(), at)) {
            ts.events.push(LeakEvent {
                func: func.to_string(),
                at,
                origin: *cell.win.iter().next().expect("non-empty window"),
                sink,
                secret: cell.secret,
            });
        }
    }

    /// Whether the word at `addr` is secret (taint mode only).
    fn secret_at(&self, addr: i64) -> bool {
        self.taint
            .as_ref()
            .is_some_and(|ts| ts.secret_mem.contains(&addr))
    }

    /// Runs `frame` from op `pc` until it calls (leaving the arguments
    /// and, in taint mode, their secret bits in `args` and `secrets`) or
    /// returns. The fuel and cycle counts live in locals meanwhile, so
    /// every exit writes them back.
    fn exec(
        &mut self,
        frame: FrameRef<'_>,
        mut pc: usize,
        args: &mut Vec<Value>,
        secrets: &mut Vec<bool>,
    ) -> Result<Exit, SimError> {
        let FrameRef {
            f,
            name,
            regs,
            taints,
        } = frame;
        let taint_on = self.taint.is_some();
        let costs = self.costs;
        let (fuel0, mut fuel, mut cycles) = (self.fuel, self.fuel, self.counters.cycles);
        let exit = loop {
            if fuel == 0 {
                break Err(SimError::OutOfFuel);
            }
            fuel -= 1;
            // the fault policy may drop ALAT entries at any instruction
            // boundary — the architecture explicitly permits this; on a
            // no-ALAT target the same injections poison upcoming software
            // check verdicts instead (a forced recovery-branch miss)
            if let Some(injector) = &mut self.injector {
                let action = injector.on_inst();
                self.inject_fault(action);
            }
            let at = pc;
            let op = &f.ops[pc];
            pc += 1;
            match *op {
                Op::Mov { d, s } => {
                    regs[d as usize] = regs[s as usize];
                    if taint_on {
                        taints[d as usize] = taints[s as usize].clone();
                    }
                    cycles += costs.alu;
                }
                Op::Alu { d, op, a, b } => {
                    match op.eval(regs[a as usize], regs[b as usize]) {
                        Some(v) => regs[d as usize] = v,
                        None => break Err(SimError::DivByZero),
                    }
                    if taint_on {
                        let mut c = taints[a as usize].clone();
                        let cb = &taints[b as usize];
                        c.secret |= cb.secret;
                        c.win.extend(cb.win.iter().copied());
                        taints[d as usize] = c;
                    }
                    cycles += costs.alu;
                }
                Op::Un { d, op, a } => {
                    regs[d as usize] = op.eval(regs[a as usize]);
                    if taint_on {
                        taints[d as usize] = taints[a as usize].clone();
                    }
                    cycles += costs.alu;
                }
                Op::Ld {
                    d,
                    base,
                    off,
                    ty,
                    kind,
                } => {
                    if taint_on {
                        self.leak_event(name, at, &taints[base as usize], SinkClass::Address);
                    }
                    let speculative = kind == LdKind::SpecAdvanced;
                    // a speculative flavour opens a window; plain and
                    // recovery loads close any window on the destination
                    let advanced = matches!(kind, LdKind::Advanced | LdKind::SpecAdvanced);
                    // taint: a spec load opens a window keyed by its dest
                    let open_window = |taints: &mut [TaintCell], secret: bool| {
                        let mut c = taints[base as usize].clone();
                        c.secret = secret;
                        if advanced {
                            c.win.insert(d);
                        } else {
                            c.win.clear();
                        }
                        taints[d as usize] = c;
                    };
                    let addr = match self.address(regs[base as usize], off) {
                        Ok(addr) => addr,
                        Err(_) if speculative => {
                            // deferred fault: NaT, no ALAT entry
                            regs[d as usize] = Value::Nat;
                            if taint_on {
                                open_window(taints, false);
                            }
                            cycles += costs.alu;
                            continue;
                        }
                        Err(e) => break Err(e),
                    };
                    regs[d as usize] = self.mem.read(addr).coerce(ty);
                    if taint_on {
                        let secret = self.secret_at(addr);
                        if secret {
                            self.counters.taint_loads += 1;
                        }
                        open_window(taints, secret);
                        if advanced {
                            let dyn_inst = self.counters.insts + (fuel0 - fuel);
                            let ts = self.taint.as_mut().expect("taint on");
                            if ts.traced.insert((name.to_string(), at)) {
                                ts.spec_trace.push((name.to_string(), at, dyn_inst));
                            }
                        }
                    }
                    let lat = costs.load(ty);
                    cycles += lat;
                    self.counters.data_access_cycles += lat;
                    self.counters.loads_retired += 1;
                    if ty.is_float() {
                        self.counters.fp_loads += 1;
                    } else {
                        self.counters.int_loads += 1;
                    }
                    if advanced && self.has_alat {
                        self.alat.insert(Reg(d), addr);
                    }
                }
                Op::Chk {
                    d,
                    base,
                    off,
                    ty,
                    kind,
                } => {
                    if taint_on {
                        self.leak_event(name, at, &taints[base as usize], SinkClass::Address);
                    }
                    let addr = match self.address(regs[base as usize], off) {
                        Ok(addr) => addr,
                        Err(e) => break Err(e),
                    };
                    self.counters.check_loads += 1;
                    let ok = match kind {
                        ChkKind::Alat => {
                            // without ALAT hardware an `ld.c` has nothing
                            // to consult: it conservatively misses (lowering
                            // for such targets emits ChkCmp sequences, so
                            // this arm is a defensive fallback there)
                            self.has_alat
                                && !self.forces_misses
                                && self.alat.check(Reg(d), addr)
                                && !regs[d as usize].is_nat()
                        }
                        ChkKind::Nat => !regs[d as usize].is_nat(),
                    };
                    // semantics: a passed check certifies the register
                    // already holds the memory value; a failed check
                    // re-loads and (for ALAT checks) re-allocates the entry
                    if ok {
                        cycles += costs.check_ok;
                    } else {
                        regs[d as usize] = self.mem.read(addr).coerce(ty);
                        let lat = costs.load(ty) + costs.check_fail_penalty;
                        cycles += lat;
                        self.counters.data_access_cycles += lat;
                        self.counters.failed_checks += 1;
                        if kind == ChkKind::Alat && self.has_alat {
                            self.alat.insert(Reg(d), addr);
                        }
                    }
                    if taint_on {
                        // the check resolves the speculation window opened by
                        // the matching spec load: close it everywhere
                        for c in taints.iter_mut() {
                            c.win.remove(&d);
                        }
                        taints[d as usize] = TaintCell {
                            secret: self.secret_at(addr),
                            win: Default::default(),
                        };
                    }
                }
                Op::ChkCmp { d, val, cond } => {
                    // software check verdict (no-ALAT targets): the lowered
                    // sequence computed `cond` = "recorded address and epoch
                    // still match"; the verdict also fails when the policy
                    // forces a miss or the checked value is NaT, sending the
                    // following branch down the recovery reload
                    let c = regs[cond as usize];
                    self.counters.check_loads += 1;
                    let forced = self.forces_misses || self.zero_geom || self.take_poison();
                    let ok =
                        !forced && !c.is_nat() && c.as_i64() != 0 && !regs[val as usize].is_nat();
                    regs[d as usize] = Value::I(i64::from(ok));
                    if ok {
                        cycles += costs.check_ok;
                    } else {
                        cycles += costs.check_fail_penalty;
                        self.counters.data_access_cycles += costs.check_fail_penalty;
                        self.counters.failed_checks += 1;
                    }
                    if taint_on {
                        // the verdict resolves the speculation window opened
                        // by the advanced load whose destination is `val`
                        for c in taints.iter_mut() {
                            c.win.remove(&val);
                        }
                        taints[val as usize].win.clear();
                        taints[d as usize] = TaintCell::default();
                    }
                }
                Op::St { base, val, off, ty } => {
                    if taint_on {
                        self.leak_event(name, at, &taints[base as usize], SinkClass::Address);
                    }
                    let addr = match self.address(regs[base as usize], off) {
                        Ok(addr) => addr,
                        Err(e) => break Err(e),
                    };
                    let v = regs[val as usize];
                    if v.is_nat() {
                        break Err(SimError::NatConsumed);
                    }
                    self.mem.write(addr, v.coerce(ty));
                    if self.has_alat {
                        self.alat.invalidate(addr);
                    }
                    if let Some(ts) = self.taint.as_mut() {
                        if taints[val as usize].secret {
                            ts.secret_mem.insert(addr);
                        } else {
                            ts.secret_mem.remove(&addr);
                        }
                    }
                    self.counters.stores += 1;
                    cycles += costs.store;
                }
                Op::Call {
                    func,
                    args: first,
                    nargs,
                    ..
                } => {
                    let cells = &f.args[first as usize..(first + nargs) as usize];
                    args.clear();
                    args.extend(cells.iter().map(|&a| regs[a as usize]));
                    if args.iter().any(|v| v.is_nat()) {
                        break Err(SimError::NatConsumed);
                    }
                    // secret bits cross the call; speculation windows are
                    // frame-local (mirrors the intraprocedural static audit)
                    secrets.clear();
                    if taint_on {
                        secrets.extend(cells.iter().map(|&a| taints[a as usize].secret));
                    }
                    self.counters.calls += 1;
                    cycles += costs.call_overhead;
                    break Ok(Exit::Call(func as usize, pc));
                }
                Op::Alloc { d, words } => {
                    let base = match self.mem.alloc(regs[words as usize].as_i64()) {
                        Ok(base) => base,
                        Err(end) => break Err(SimError::BadAddress(end)),
                    };
                    regs[d as usize] = Value::I(base);
                    if taint_on {
                        taints[d as usize] = TaintCell::default();
                    }
                    cycles += costs.alloc;
                }
                Op::Fence => {
                    // barrier: every in-flight advanced load resolves here,
                    // so all open speculation windows close
                    self.counters.fences_retired += 1;
                    cycles += costs.fence;
                    for c in taints.iter_mut() {
                        c.win.clear();
                    }
                }
                Op::Jmp(t) => {
                    cycles += costs.branch;
                    self.counters.branches += 1;
                    pc = t as usize;
                }
                Op::Br { cond, then_, else_ } => {
                    if taint_on {
                        self.leak_event(name, at, &taints[cond as usize], SinkClass::Branch);
                    }
                    let c = regs[cond as usize];
                    if c.is_nat() {
                        break Err(SimError::NatConsumed);
                    }
                    cycles += costs.branch;
                    self.counters.branches += 1;
                    pc = if c.as_i64() != 0 { then_ } else { else_ } as usize;
                }
                Op::Ret(v) => {
                    cycles += costs.branch;
                    if let Some(ts) = self.taint.as_mut() {
                        ts.ret_secret = v.is_some_and(|v| taints[v as usize].secret);
                    }
                    break Ok(Exit::Ret(v.map(|v| regs[v as usize])));
                }
            }
        };
        self.fuel = fuel;
        self.counters.insts += fuel0 - fuel;
        self.counters.cycles = cycles;
        exit
    }

    /// The address `base + offset` a non-speculative access touches.
    #[inline]
    fn address(&self, base: Value, offset: i64) -> Result<i64, SimError> {
        if base.is_nat() {
            return Err(SimError::NatConsumed);
        }
        let addr = base.as_i64() + offset;
        if !self.mem.mapped(addr) {
            return Err(SimError::BadAddress(addr));
        }
        Ok(addr)
    }
}

/// Convenience: run `entry` with `args` on the EPIC target under the
/// default (fault-free) ALAT policy.
///
/// # Errors
/// See [`SimError`].
pub fn run_machine(
    prog: &MProgram,
    entry: &str,
    args: &[Value],
    fuel: u64,
) -> Result<(Option<Value>, Counters), SimError> {
    run_machine_on(prog, TargetId::Epic.spec(), entry, args, fuel)
}

/// Like [`run_machine`], but for an explicit target (cost table and ALAT
/// presence).
///
/// # Errors
/// See [`SimError`].
pub fn run_machine_on(
    prog: &MProgram,
    target: &Target,
    entry: &str,
    args: &[Value],
    fuel: u64,
) -> Result<(Option<Value>, Counters), SimError> {
    run_machine_with_policy_on(prog, target, entry, args, fuel, &FaultPolicy::default())
}

/// Like [`run_machine_on`], but under an explicit ALAT fault policy.
///
/// # Errors
/// See [`SimError`].
pub fn run_machine_with_policy_on(
    prog: &MProgram,
    target: &Target,
    entry: &str,
    args: &[Value],
    fuel: u64,
    policy: &FaultPolicy,
) -> Result<(Option<Value>, Counters), SimError> {
    let idx = prog
        .func_by_name(entry)
        .ok_or_else(|| SimError::NoSuchFunction(entry.to_string()))?;
    let mut sim = Simulator::for_target(prog, target, fuel, policy);
    let r = sim.run(idx, args)?;
    Ok((r, sim.counters()))
}

/// Like [`run_machine_with_policy_on`], but with taint tracking on:
/// `secret` word addresses are marked secret, and every flow from an open
/// speculation window into an address or branch sink is recorded.
///
/// # Errors
/// See [`SimError`].
#[allow(clippy::too_many_arguments)]
pub fn run_machine_taint_on(
    prog: &MProgram,
    target: &Target,
    entry: &str,
    args: &[Value],
    fuel: u64,
    policy: &FaultPolicy,
    secret: &[i64],
) -> Result<TaintReport, SimError> {
    let idx = prog
        .func_by_name(entry)
        .ok_or_else(|| SimError::NoSuchFunction(entry.to_string()))?;
    let mut sim = Simulator::for_target(prog, target, fuel, policy);
    sim.enable_taint(secret);
    let result = sim.run(idx, args)?;
    let counters = sim.counters();
    let ts = sim.m.taint.take().expect("taint on");
    Ok(TaintReport {
        result,
        counters,
        events: ts.events,
        spec_trace: ts.spec_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::*;
    use specframe_ir::{BinOp, Ty, MEM_CAP};

    fn prog_one(f: MFunc) -> MProgram {
        MProgram {
            funcs: vec![f],
            global_image: vec![(16, Value::I(42)), (17, Value::F(2.5))],
            globals_end: 18,
        }
    }

    #[test]
    fn basic_load_add_store() {
        let f = MFunc {
            name: "main".into(),
            params: 0,
            regs: 2,
            slot_words: vec![],
            code: vec![
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Normal,
                },
                MInst::Alu {
                    d: Reg(1),
                    op: BinOp::Add,
                    a: MOperand::R(Reg(0)),
                    b: MOperand::I(1),
                },
                MInst::St {
                    base: MOperand::I(16),
                    off: 0,
                    val: MOperand::R(Reg(1)),
                    ty: Ty::I64,
                },
                MInst::Ret(Some(MOperand::R(Reg(1)))),
            ],
            promoted_regs: vec![],
        };
        let p = prog_one(f);
        let (r, c) = run_machine(&p, "main", &[], 1000).unwrap();
        assert_eq!(r, Some(Value::I(43)));
        assert_eq!(c.loads_retired, 1);
        assert_eq!(c.int_loads, 1);
        assert_eq!(c.stores, 1);
        // 2 (load) + 1 (alu) + 1 (store) + 1 (ret)
        assert_eq!(c.cycles, 5);
        assert_eq!(c.data_access_cycles, 2);
    }

    #[test]
    fn fp_load_costs_nine() {
        let f = MFunc {
            name: "main".into(),
            params: 0,
            regs: 1,
            slot_words: vec![],
            code: vec![
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(17),
                    off: 0,
                    ty: Ty::F64,
                    kind: LdKind::Normal,
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
            promoted_regs: vec![],
        };
        let (r, c) = run_machine(&prog_one(f), "main", &[], 100).unwrap();
        assert_eq!(r, Some(Value::F(2.5)));
        assert_eq!(c.fp_loads, 1);
        assert_eq!(c.data_access_cycles, 9);
    }

    #[test]
    fn successful_check_costs_zero() {
        // ld.a then ld.c with no intervening store: check hits, 0 cycles
        let f = MFunc {
            name: "main".into(),
            params: 0,
            regs: 1,
            slot_words: vec![],
            code: vec![
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Advanced,
                },
                MInst::Chk {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: ChkKind::Alat,
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
            promoted_regs: vec![Reg(0)],
        };
        let (r, c) = run_machine(&prog_one(f), "main", &[], 100).unwrap();
        assert_eq!(r, Some(Value::I(42)));
        assert_eq!(c.check_loads, 1);
        assert_eq!(c.failed_checks, 0);
        assert_eq!(c.mis_speculation_ratio(), 0.0);
        // 2 (ld.a) + 0 (check) + 1 (ret)
        assert_eq!(c.cycles, 3);
    }

    #[test]
    fn aliasing_store_fails_check_and_reloads() {
        // ld.a; store to the same address; ld.c must miss and reload the
        // NEW value — this is the paper's correctness guarantee
        let f = MFunc {
            name: "main".into(),
            params: 0,
            regs: 1,
            slot_words: vec![],
            code: vec![
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Advanced,
                },
                MInst::St {
                    base: MOperand::I(16),
                    off: 0,
                    val: MOperand::I(99),
                    ty: Ty::I64,
                },
                MInst::Chk {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: ChkKind::Alat,
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
            promoted_regs: vec![Reg(0)],
        };
        let (r, c) = run_machine(&prog_one(f), "main", &[], 100).unwrap();
        assert_eq!(r, Some(Value::I(99)), "failed check must reload");
        assert_eq!(c.failed_checks, 1);
        assert!(c.mis_speculation_ratio() > 0.99);
        assert_eq!(c.alat_store_invalidations, 1);
    }

    #[test]
    fn non_aliasing_store_keeps_check_cheap() {
        let f = MFunc {
            name: "main".into(),
            params: 0,
            regs: 1,
            slot_words: vec![],
            code: vec![
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Advanced,
                },
                MInst::St {
                    base: MOperand::I(17),
                    off: 0,
                    val: MOperand::I(99),
                    ty: Ty::I64,
                },
                MInst::Chk {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: ChkKind::Alat,
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
            promoted_regs: vec![Reg(0)],
        };
        let (r, c) = run_machine(&prog_one(f), "main", &[], 100).unwrap();
        assert_eq!(r, Some(Value::I(42)));
        assert_eq!(c.failed_checks, 0);
    }

    #[test]
    fn speculative_load_defers_fault() {
        // ld.sa of address 0 yields NaT; NaT check reloads from the good
        // address (models chk.s recovery)
        let f = MFunc {
            name: "main".into(),
            params: 0,
            regs: 1,
            slot_words: vec![],
            code: vec![
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(0),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::SpecAdvanced,
                },
                MInst::Chk {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: ChkKind::Nat,
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
            promoted_regs: vec![],
        };
        let (r, c) = run_machine(&prog_one(f), "main", &[], 100).unwrap();
        assert_eq!(r, Some(Value::I(42)));
        assert_eq!(c.failed_checks, 1);
        assert_eq!(c.loads_retired, 0, "the faulting ld.sa retires no load");
    }

    #[test]
    fn loop_counts_branches_and_fuel() {
        // r0 = 5; loop: r0 -= 1; br r0 != 0
        let f = MFunc {
            name: "main".into(),
            params: 0,
            regs: 1,
            slot_words: vec![],
            code: vec![
                MInst::Mov {
                    d: Reg(0),
                    s: MOperand::I(5),
                },
                MInst::Alu {
                    d: Reg(0),
                    op: BinOp::Sub,
                    a: MOperand::R(Reg(0)),
                    b: MOperand::I(1),
                },
                MInst::Br {
                    cond: MOperand::R(Reg(0)),
                    then_: 1,
                    else_: 3,
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
            promoted_regs: vec![],
        };
        let (r, c) = run_machine(&prog_one(f), "main", &[], 100).unwrap();
        assert_eq!(r, Some(Value::I(0)));
        assert_eq!(c.branches, 5);
    }

    #[test]
    fn calls_recurse_with_overhead() {
        let callee = MFunc {
            name: "id".into(),
            params: 1,
            regs: 1,
            slot_words: vec![],
            code: vec![MInst::Ret(Some(MOperand::R(Reg(0))))],
            promoted_regs: vec![],
        };
        let main = MFunc {
            name: "main".into(),
            params: 0,
            regs: 1,
            slot_words: vec![],
            code: vec![
                MInst::Call {
                    d: Some(Reg(0)),
                    func: 0,
                    args: vec![MOperand::I(7)],
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
            promoted_regs: vec![],
        };
        let p = MProgram {
            funcs: vec![callee, main],
            global_image: vec![],
            globals_end: 16,
        };
        let (r, c) = run_machine(&p, "main", &[], 100).unwrap();
        assert_eq!(r, Some(Value::I(7)));
        assert_eq!(c.calls, 1);
    }

    #[test]
    fn recursion_depth_limited() {
        // frames live on the simulator's own stack, so recursing to
        // MAX_DEPTH costs the native stack nothing, in a debug build too
        let f = MFunc {
            name: "main".into(),
            params: 1,
            regs: 1,
            slot_words: vec![1],
            code: vec![
                MInst::Call {
                    d: Some(Reg(0)),
                    func: 0,
                    args: vec![MOperand::R(Reg(0))],
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
            promoted_regs: vec![],
        };
        assert_eq!(
            run_machine(&prog_one(f), "main", &[Value::I(1)], 1_000_000).unwrap_err(),
            SimError::StackOverflow
        );
    }

    #[test]
    fn alat_survives_calls() {
        // IA-64 preserves the ALAT across calls; a callee that stores to an
        // unrelated address must not disturb the caller's entry
        let callee = MFunc {
            name: "noise".into(),
            params: 0,
            regs: 0,
            slot_words: vec![],
            code: vec![
                MInst::St {
                    base: MOperand::I(17),
                    off: 0,
                    val: MOperand::I(5),
                    ty: Ty::F64,
                },
                MInst::Ret(None),
            ],
            promoted_regs: vec![],
        };
        let main = MFunc {
            name: "main".into(),
            params: 0,
            regs: 1,
            slot_words: vec![],
            code: vec![
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Advanced,
                },
                MInst::Call {
                    d: None,
                    func: 0,
                    args: vec![],
                },
                MInst::Chk {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: ChkKind::Alat,
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
            promoted_regs: vec![Reg(0)],
        };
        let p = MProgram {
            funcs: vec![callee, main],
            global_image: vec![(16, Value::I(42)), (17, Value::F(0.0))],
            globals_end: 18,
        };
        let (r, c) = run_machine(&p, "main", &[], 1000).unwrap();
        assert_eq!(r, Some(Value::I(42)));
        assert_eq!(
            c.failed_checks, 0,
            "unrelated callee store must not fail the check"
        );
    }

    #[test]
    fn callee_aliasing_store_fails_caller_check() {
        let callee = MFunc {
            name: "clobber".into(),
            params: 0,
            regs: 0,
            slot_words: vec![],
            code: vec![
                MInst::St {
                    base: MOperand::I(16),
                    off: 0,
                    val: MOperand::I(77),
                    ty: Ty::I64,
                },
                MInst::Ret(None),
            ],
            promoted_regs: vec![],
        };
        let main = MFunc {
            name: "main".into(),
            params: 0,
            regs: 1,
            slot_words: vec![],
            code: vec![
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Advanced,
                },
                MInst::Call {
                    d: None,
                    func: 0,
                    args: vec![],
                },
                MInst::Chk {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: ChkKind::Alat,
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
            promoted_regs: vec![Reg(0)],
        };
        let p = MProgram {
            funcs: vec![callee, main],
            global_image: vec![(16, Value::I(42))],
            globals_end: 17,
        };
        let (r, c) = run_machine(&p, "main", &[], 1000).unwrap();
        assert_eq!(
            r,
            Some(Value::I(77)),
            "check must reload the callee's store"
        );
        assert_eq!(c.failed_checks, 1);
    }

    #[test]
    fn alloc_grows_heap_and_counts() {
        let f = MFunc {
            name: "main".into(),
            params: 0,
            regs: 2,
            slot_words: vec![],
            code: vec![
                MInst::Alloc {
                    d: Reg(0),
                    words: MOperand::I(8),
                },
                MInst::St {
                    base: MOperand::R(Reg(0)),
                    off: 3,
                    val: MOperand::I(9),
                    ty: Ty::I64,
                },
                MInst::Ld {
                    d: Reg(1),
                    base: MOperand::R(Reg(0)),
                    off: 3,
                    ty: Ty::I64,
                    kind: LdKind::Normal,
                },
                MInst::Ret(Some(MOperand::R(Reg(1)))),
            ],
            promoted_regs: vec![],
        };
        let (r, _) = run_machine(&prog_one(f), "main", &[], 100).unwrap();
        assert_eq!(r, Some(Value::I(9)));
    }

    #[test]
    fn promoted_regs_tracks_frame_maximum() {
        let f = MFunc {
            name: "main".into(),
            params: 0,
            regs: 3,
            slot_words: vec![],
            code: vec![MInst::Ret(None)],
            promoted_regs: vec![Reg(0), Reg(1), Reg(2)],
        };
        let (_, c) = run_machine(&prog_one(f), "main", &[], 100).unwrap();
        assert_eq!(c.promoted_regs, 3);
    }

    #[test]
    fn out_of_fuel_reported() {
        let f = MFunc {
            name: "main".into(),
            params: 0,
            regs: 0,
            slot_words: vec![],
            code: vec![MInst::Jmp(0)],
            promoted_regs: vec![],
        };
        assert_eq!(
            run_machine(&prog_one(f), "main", &[], 10).unwrap_err(),
            SimError::OutOfFuel
        );
    }

    #[test]
    fn fault_policies_never_change_results() {
        // ld.a; non-aliasing store; ld.c — under any fault policy the
        // result must be the memory value, only the counters may differ
        let f = MFunc {
            name: "main".into(),
            params: 0,
            regs: 1,
            slot_words: vec![],
            code: vec![
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Advanced,
                },
                MInst::St {
                    base: MOperand::I(17),
                    off: 0,
                    val: MOperand::I(99),
                    ty: Ty::F64,
                },
                MInst::Chk {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: ChkKind::Alat,
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
            promoted_regs: vec![Reg(0)],
        };
        let p = prog_one(f);
        for pol in crate::policy::fault_matrix() {
            let (r, c) =
                run_machine_with_policy_on(&p, TargetId::Epic.spec(), "main", &[], 1000, &pol)
                    .unwrap();
            assert_eq!(r, Some(Value::I(42)), "policy {pol:?}");
            assert!(c.failed_checks <= c.check_loads, "policy {pol:?}");
        }
    }

    #[test]
    fn always_miss_policy_forces_recovery() {
        let f = MFunc {
            name: "main".into(),
            params: 0,
            regs: 1,
            slot_words: vec![],
            code: vec![
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Advanced,
                },
                MInst::Chk {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: ChkKind::Alat,
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
            promoted_regs: vec![Reg(0)],
        };
        let p = prog_one(f);
        let run =
            |pol| run_machine_with_policy_on(&p, TargetId::Epic.spec(), "main", &[], 100, pol);
        let (r, c) = run(&FaultPolicy::ALWAYS_MISS).unwrap();
        assert_eq!(r, Some(Value::I(42)), "recovery reloads the right value");
        assert_eq!(c.failed_checks, 1, "0-entry ALAT must miss");
        let (r, c) = run(&FaultPolicy::ForcedMiss).unwrap();
        assert_eq!(r, Some(Value::I(42)));
        assert_eq!(c.failed_checks, 1);
    }

    #[test]
    fn flash_clear_policy_counts_clears() {
        // a loop long enough to cross the clear period, with a live entry
        let f = MFunc {
            name: "main".into(),
            params: 0,
            regs: 2,
            slot_words: vec![],
            code: vec![
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Advanced,
                },
                MInst::Mov {
                    d: Reg(1),
                    s: MOperand::I(40),
                },
                MInst::Alu {
                    d: Reg(1),
                    op: BinOp::Sub,
                    a: MOperand::R(Reg(1)),
                    b: MOperand::I(1),
                },
                MInst::Br {
                    cond: MOperand::R(Reg(1)),
                    then_: 2,
                    else_: 4,
                },
                MInst::Chk {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: ChkKind::Alat,
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
            promoted_regs: vec![Reg(0)],
        };
        let p = prog_one(f);
        let pol = FaultPolicy::FlashClear { period: 10 };
        let (r, c) =
            run_machine_with_policy_on(&p, TargetId::Epic.spec(), "main", &[], 10_000, &pol)
                .unwrap();
        assert_eq!(r, Some(Value::I(42)));
        assert!(c.alat_flash_clears >= 5, "clears: {}", c.alat_flash_clears);
        assert_eq!(c.alat_fault_kills, 1, "one live entry lost to a clear");
        assert_eq!(c.failed_checks, 1, "the cleared entry must miss");
    }

    #[test]
    fn peek_returns_none_out_of_range() {
        let f = MFunc {
            name: "main".into(),
            params: 0,
            regs: 0,
            slot_words: vec![],
            code: vec![MInst::Ret(None)],
            promoted_regs: vec![],
        };
        let p = prog_one(f);
        let sim = Simulator::for_target(&p, TargetId::Epic.spec(), 100, &FaultPolicy::default());
        assert_eq!(sim.peek(16), Some(Value::I(42)), "mapped global");
        assert_eq!(sim.peek(0), None, "null page");
        assert_eq!(sim.peek(15), None, "reserved low words");
        assert_eq!(sim.peek(-4), None, "negative address");
        assert_eq!(sim.peek(MEM_CAP + 1), None, "beyond the cap");
    }

    #[test]
    fn check_ratio_math() {
        let c = Counters {
            loads_retired: 60,
            check_loads: 40,
            failed_checks: 2,
            ..Default::default()
        };
        assert_eq!(c.total_loads_retired(), 100);
        assert!((c.check_ratio() - 0.4).abs() < 1e-12);
        assert!((c.mis_speculation_ratio() - 0.05).abs() < 1e-12);
    }
}
