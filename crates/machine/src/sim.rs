//! The cycle-approximate EPIC simulator with `pfmon`-style counters.

use crate::alat::Alat;
use crate::costs::CostModel;
use crate::isa::{ChkKind, LdKind, MFunc, MInst, MOperand, MProgram};
use crate::policy::{AlatPolicy, Deterministic, FaultAction};
use crate::target::{SpecTarget, TargetId};
use specframe_ir::{BinOp, Ty, UnOp, Value};

/// Words reserved for the stack region (matches the interpreter layout).
pub const STACK_WORDS: i64 = 1 << 20;
/// Hard memory cap (words).
pub const MEM_CAP: i64 = 1 << 28;
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

/// Machine state for one program.
pub struct Simulator<'p> {
    prog: &'p MProgram,
    costs: CostModel,
    mem: Vec<Value>,
    stack_base: i64,
    stack_top: i64,
    heap_base: i64,
    heap_top: i64,
    alat: Alat,
    policy: Box<dyn AlatPolicy>,
    counters: Counters,
    fuel: u64,
    taint: Option<TaintState>,
    /// Whether the target has a hardware ALAT. Without one, `ld.c` has
    /// nothing to consult (it always misses) and software check verdicts
    /// ([`MInst::ChkCmp`]) carry the speculation contract instead.
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
        target: &dyn SpecTarget,
        fuel: u64,
        policy: Box<dyn AlatPolicy>,
    ) -> Simulator<'p> {
        let stack_base = prog.globals_end;
        let heap_base = stack_base + STACK_WORDS;
        let g = policy.geometry();
        let mut s = Simulator {
            prog,
            costs: target.costs(),
            mem: Vec::new(),
            stack_base,
            stack_top: stack_base,
            heap_base,
            heap_top: heap_base,
            alat: Alat::with_geometry(g.entries, g.ways),
            policy,
            counters: Counters::default(),
            fuel,
            taint: None,
            has_alat: target.has_alat(),
            zero_geom: g.entries == 0,
            poison: 0,
        };
        for &(addr, v) in &prog.global_image {
            s.poke(addr, v);
        }
        s
    }

    /// Switches on taint mode: `secret` word addresses are marked secret,
    /// and every taint-to-sink flow inside a speculation window is recorded
    /// (see [`LeakEvent`]). Architectural results are unaffected.
    pub fn enable_taint(&mut self, secret: &[i64]) {
        self.taint = Some(TaintState {
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
        let mut c = self.counters;
        c.alat_inserts = self.alat.inserts;
        c.alat_store_invalidations = self.alat.store_invalidations;
        c.alat_evictions = self.alat.evictions;
        c.alat_fault_kills = self.alat.fault_kills;
        c.alat_flash_clears = self.alat.flash_clears;
        c
    }

    /// Reads a memory cell; `None` for addresses outside the mapped
    /// globals/stack/heap range, so callers can't mistake out-of-range
    /// reads for real zeros.
    pub fn peek(&self, addr: i64) -> Option<Value> {
        if !self.addr_ok(addr) {
            return None;
        }
        Some(self.mem.get(addr as usize).copied().unwrap_or(Value::I(0)))
    }

    fn poke(&mut self, addr: i64, v: Value) {
        let i = addr as usize;
        if i >= self.mem.len() {
            self.mem.resize(i + 1, Value::I(0));
        }
        self.mem[i] = v;
    }

    fn addr_ok(&self, addr: i64) -> bool {
        addr >= 16 && addr < self.heap_top.max(self.heap_base) && addr < MEM_CAP
    }

    fn load_cell(&self, addr: i64, ty: Ty) -> Value {
        // callers verify addr_ok first; an unmapped-but-valid cell is 0
        coerce(self.peek(addr).unwrap_or(Value::I(0)), ty)
    }

    /// Runs function `index` with `args`.
    ///
    /// # Errors
    /// See [`SimError`].
    pub fn run(&mut self, index: usize, args: &[Value]) -> Result<Option<Value>, SimError> {
        self.call(index, args, &[], 0)
    }

    fn call(
        &mut self,
        index: usize,
        args: &[Value],
        arg_secret: &[bool],
        depth: usize,
    ) -> Result<Option<Value>, SimError> {
        if depth >= MAX_DEPTH {
            return Err(SimError::StackOverflow);
        }
        let f: &MFunc = &self.prog.funcs[index];
        if args.len() != f.params as usize {
            return Err(SimError::BadEntryArgs);
        }
        self.counters.promoted_regs = self
            .counters
            .promoted_regs
            .max(f.promoted_regs.len() as u64);

        let mut regs = vec![Value::I(0); f.regs as usize];
        regs[..args.len()].copy_from_slice(args);
        // taint shadow: speculation windows are frame-local (mirroring the
        // static leak audit's intraprocedural model); secret bits cross the
        // call boundary with the argument values
        let mut taints = vec![TaintCell::default(); f.regs as usize];
        for (cell, &s) in taints.iter_mut().zip(arg_secret) {
            cell.secret = s;
        }

        // slots
        let frame_base = self.stack_top;
        let mut slot_base = Vec::with_capacity(f.slot_words.len());
        for &w in &f.slot_words {
            let base = self.stack_top;
            let end = base + i64::from(w);
            if end > self.stack_base + STACK_WORDS {
                return Err(SimError::StackExhausted);
            }
            for a in base..end {
                self.poke(a, Value::I(0));
            }
            slot_base.push(base);
            self.stack_top = end;
        }

        let result = self.exec(f, &mut regs, &mut taints, &slot_base, depth);
        self.stack_top = frame_base;
        result
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
    fn leak_event(&mut self, f: &MFunc, at: usize, cell: &TaintCell, sink: SinkClass) {
        if cell.win.is_empty() {
            return;
        }
        if self.taint.is_none() {
            return;
        }
        match sink {
            SinkClass::Address => self.counters.leak_addr_events += 1,
            SinkClass::Branch => self.counters.leak_branch_events += 1,
        }
        if cell.secret {
            self.counters.leak_secret_events += 1;
        }
        let ts = self.taint.as_mut().expect("taint on");
        if ts.seen.insert((f.name.clone(), at)) {
            ts.events.push(LeakEvent {
                func: f.name.clone(),
                at,
                origin: *cell.win.iter().next().expect("non-empty window"),
                sink,
                secret: cell.secret,
            });
        }
    }

    fn exec(
        &mut self,
        f: &MFunc,
        regs: &mut [Value],
        taints: &mut [TaintCell],
        slot_base: &[i64],
        depth: usize,
    ) -> Result<Option<Value>, SimError> {
        let eval = |regs: &[Value], o: MOperand| -> Value {
            match o {
                MOperand::R(r) => regs[r.0 as usize],
                MOperand::I(v) => Value::I(v),
                MOperand::F(v) => Value::F(v),
                MOperand::SlotAddr(s) => Value::I(slot_base[s as usize]),
            }
        };
        // taint shadow of an operand: registers carry their cell, every
        // immediate is clean
        let tcell = |taints: &[TaintCell], o: MOperand| -> TaintCell {
            match o {
                MOperand::R(r) => taints[r.0 as usize].clone(),
                _ => TaintCell::default(),
            }
        };
        let taint_on = self.taint.is_some();
        let mut pc = 0usize;
        loop {
            if self.fuel == 0 {
                return Err(SimError::OutOfFuel);
            }
            self.fuel -= 1;
            self.counters.insts += 1;
            // the fault policy may drop ALAT entries at any instruction
            // boundary — the architecture explicitly permits this; on a
            // no-ALAT target the same injections poison upcoming software
            // check verdicts instead (a forced recovery-branch miss)
            match self.policy.on_inst() {
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
            let at = pc;
            let inst = &f.code[pc];
            pc += 1;
            match inst {
                MInst::Mov { d, s } => {
                    regs[d.0 as usize] = eval(regs, *s);
                    if taint_on {
                        taints[d.0 as usize] = tcell(taints, *s);
                    }
                    self.counters.cycles += self.costs.alu;
                }
                MInst::Alu { d, op, a, b } => {
                    let va = eval(regs, *a);
                    let vb = eval(regs, *b);
                    regs[d.0 as usize] = alu(*op, va, vb)?;
                    if taint_on {
                        let mut c = tcell(taints, *a);
                        let cb = tcell(taints, *b);
                        c.secret |= cb.secret;
                        c.win.extend(cb.win);
                        taints[d.0 as usize] = c;
                    }
                    self.counters.cycles += self.costs.alu;
                }
                MInst::Un { d, op, a } => {
                    regs[d.0 as usize] = un(*op, eval(regs, *a));
                    if taint_on {
                        taints[d.0 as usize] = tcell(taints, *a);
                    }
                    self.counters.cycles += self.costs.alu;
                }
                MInst::Ld {
                    d,
                    base,
                    off,
                    ty,
                    kind,
                } => {
                    if taint_on {
                        let bc = tcell(taints, *base);
                        self.leak_event(f, at, &bc, SinkClass::Address);
                    }
                    let vb = eval(regs, *base);
                    let speculative = *kind == LdKind::SpecAdvanced;
                    // a speculative flavour opens a window; plain and
                    // recovery loads close any window on the destination
                    let advanced = matches!(kind, LdKind::Advanced | LdKind::SpecAdvanced);
                    // taint: a spec load opens a window keyed by its dest
                    let open_window = |taints: &mut [TaintCell], secret: bool| {
                        let mut c = tcell(taints, *base);
                        c.secret = secret;
                        if advanced {
                            c.win.insert(d.0);
                        } else {
                            c.win.clear();
                        }
                        taints[d.0 as usize] = c;
                    };
                    if vb.is_nat() {
                        if speculative {
                            regs[d.0 as usize] = Value::Nat;
                            if taint_on {
                                open_window(taints, false);
                            }
                            self.counters.cycles += self.costs.alu;
                            continue;
                        }
                        return Err(SimError::NatConsumed);
                    }
                    let addr = vb.as_i64() + off;
                    if !self.addr_ok(addr) {
                        if speculative {
                            // deferred fault: NaT, no ALAT entry
                            regs[d.0 as usize] = Value::Nat;
                            if taint_on {
                                open_window(taints, false);
                            }
                            self.counters.cycles += self.costs.alu;
                            continue;
                        }
                        return Err(SimError::BadAddress(addr));
                    }
                    let v = self.load_cell(addr, *ty);
                    regs[d.0 as usize] = v;
                    if taint_on {
                        let secret = self
                            .taint
                            .as_ref()
                            .expect("taint on")
                            .secret_mem
                            .contains(&addr);
                        if secret {
                            self.counters.taint_loads += 1;
                        }
                        open_window(taints, secret);
                        if advanced {
                            let dyn_inst = self.counters.insts;
                            let ts = self.taint.as_mut().expect("taint on");
                            if ts.traced.insert((f.name.clone(), at)) {
                                ts.spec_trace.push((f.name.clone(), at, dyn_inst));
                            }
                        }
                    }
                    let lat = self.costs.load(*ty);
                    self.counters.cycles += lat;
                    self.counters.data_access_cycles += lat;
                    self.counters.loads_retired += 1;
                    if ty.is_float() {
                        self.counters.fp_loads += 1;
                    } else {
                        self.counters.int_loads += 1;
                    }
                    if advanced && self.has_alat {
                        self.alat.insert(*d, addr);
                    }
                }
                MInst::Chk {
                    d,
                    base,
                    off,
                    ty,
                    kind,
                } => {
                    if taint_on {
                        let bc = tcell(taints, *base);
                        self.leak_event(f, at, &bc, SinkClass::Address);
                    }
                    let vb = eval(regs, *base);
                    if vb.is_nat() {
                        return Err(SimError::NatConsumed);
                    }
                    let addr = vb.as_i64() + off;
                    if !self.addr_ok(addr) {
                        return Err(SimError::BadAddress(addr));
                    }
                    self.counters.check_loads += 1;
                    let ok = match kind {
                        ChkKind::Alat => {
                            // without ALAT hardware an `ld.c` has nothing
                            // to consult: it conservatively misses (lowering
                            // for such targets emits ChkCmp sequences, so
                            // this arm is a defensive fallback there)
                            self.has_alat
                                && !self.policy.force_miss()
                                && self.alat.check(*d, addr)
                                && !regs[d.0 as usize].is_nat()
                        }
                        ChkKind::Nat => !regs[d.0 as usize].is_nat(),
                    };
                    // semantics: a passed check certifies the register
                    // already holds the memory value; a failed check
                    // re-loads and (for ALAT checks) re-allocates the entry
                    if ok {
                        self.counters.cycles += self.costs.check_ok;
                    } else {
                        let v = self.load_cell(addr, *ty);
                        regs[d.0 as usize] = v;
                        let lat = self.costs.load(*ty) + self.costs.check_fail_penalty;
                        self.counters.cycles += lat;
                        self.counters.data_access_cycles += lat;
                        self.counters.failed_checks += 1;
                        if *kind == ChkKind::Alat && self.has_alat {
                            self.alat.insert(*d, addr);
                        }
                    }
                    if taint_on {
                        // the check resolves the speculation window opened by
                        // the matching spec load: close it everywhere
                        for c in taints.iter_mut() {
                            c.win.remove(&d.0);
                        }
                        let secret = self
                            .taint
                            .as_ref()
                            .expect("taint on")
                            .secret_mem
                            .contains(&addr);
                        taints[d.0 as usize] = TaintCell {
                            secret,
                            win: Default::default(),
                        };
                    }
                }
                MInst::ChkCmp { d, val, cond } => {
                    // software check verdict (no-ALAT targets): the lowered
                    // sequence computed `cond` = "recorded address and epoch
                    // still match"; the verdict also fails when the policy
                    // forces a miss or the checked value is NaT, sending the
                    // following branch down the recovery reload
                    let c = eval(regs, *cond);
                    self.counters.check_loads += 1;
                    let forced = self.policy.force_miss() || self.zero_geom || self.take_poison();
                    let ok =
                        !forced && !c.is_nat() && c.as_i64() != 0 && !regs[val.0 as usize].is_nat();
                    regs[d.0 as usize] = Value::I(i64::from(ok));
                    if ok {
                        self.counters.cycles += self.costs.check_ok;
                    } else {
                        self.counters.cycles += self.costs.check_fail_penalty;
                        self.counters.data_access_cycles += self.costs.check_fail_penalty;
                        self.counters.failed_checks += 1;
                    }
                    if taint_on {
                        // the verdict resolves the speculation window opened
                        // by the advanced load whose destination is `val`
                        for c in taints.iter_mut() {
                            c.win.remove(&val.0);
                        }
                        taints[val.0 as usize].win.clear();
                        taints[d.0 as usize] = TaintCell::default();
                    }
                }
                MInst::St { base, off, val, ty } => {
                    if taint_on {
                        let bc = tcell(taints, *base);
                        self.leak_event(f, at, &bc, SinkClass::Address);
                    }
                    let vb = eval(regs, *base);
                    if vb.is_nat() {
                        return Err(SimError::NatConsumed);
                    }
                    let addr = vb.as_i64() + off;
                    if !self.addr_ok(addr) {
                        return Err(SimError::BadAddress(addr));
                    }
                    let v = eval(regs, *val);
                    if v.is_nat() {
                        return Err(SimError::NatConsumed);
                    }
                    self.poke(addr, coerce(v, *ty));
                    if self.has_alat {
                        self.alat.invalidate(addr);
                    }
                    if taint_on {
                        let vsecret = tcell(taints, *val).secret;
                        let ts = self.taint.as_mut().expect("taint on");
                        if vsecret {
                            ts.secret_mem.insert(addr);
                        } else {
                            ts.secret_mem.remove(&addr);
                        }
                    }
                    self.counters.stores += 1;
                    self.counters.cycles += self.costs.store;
                }
                MInst::Call { d, func, args } => {
                    let vals: Vec<Value> = args.iter().map(|&a| eval(regs, a)).collect();
                    if vals.iter().any(|v| v.is_nat()) {
                        return Err(SimError::NatConsumed);
                    }
                    // secret bits cross the call; speculation windows are
                    // frame-local (mirrors the intraprocedural static audit)
                    let arg_secret: Vec<bool> = if taint_on {
                        args.iter().map(|&a| tcell(taints, a).secret).collect()
                    } else {
                        Vec::new()
                    };
                    self.counters.calls += 1;
                    self.counters.cycles += self.costs.call_overhead;
                    let r = self.call(*func, &vals, &arg_secret, depth + 1)?;
                    if let Some(d) = d {
                        regs[d.0 as usize] = r.unwrap_or(Value::I(0));
                        if taint_on {
                            let ret_secret = self.taint.as_ref().expect("taint on").ret_secret;
                            taints[d.0 as usize] = TaintCell {
                                secret: ret_secret,
                                win: Default::default(),
                            };
                        }
                    }
                }
                MInst::Alloc { d, words } => {
                    let w = eval(regs, *words).as_i64().max(0);
                    let base = self.heap_top;
                    if base + w > MEM_CAP {
                        return Err(SimError::BadAddress(base + w));
                    }
                    self.heap_top += w;
                    regs[d.0 as usize] = Value::I(base);
                    if taint_on {
                        taints[d.0 as usize] = TaintCell::default();
                    }
                    self.counters.cycles += self.costs.alloc;
                }
                MInst::Fence => {
                    // barrier: every in-flight advanced load resolves here,
                    // so all open speculation windows close
                    self.counters.fences_retired += 1;
                    self.counters.cycles += self.costs.fence;
                    if taint_on {
                        for c in taints.iter_mut() {
                            c.win.clear();
                        }
                    }
                }
                MInst::Jmp(t) => {
                    self.counters.cycles += self.costs.branch;
                    self.counters.branches += 1;
                    pc = *t;
                }
                MInst::Br { cond, then_, else_ } => {
                    if taint_on {
                        let cc = tcell(taints, *cond);
                        self.leak_event(f, at, &cc, SinkClass::Branch);
                    }
                    let c = eval(regs, *cond);
                    if c.is_nat() {
                        return Err(SimError::NatConsumed);
                    }
                    self.counters.cycles += self.costs.branch;
                    self.counters.branches += 1;
                    pc = if c.as_i64() != 0 { *then_ } else { *else_ };
                }
                MInst::Ret(v) => {
                    self.counters.cycles += self.costs.branch;
                    if taint_on {
                        let secret = v.map(|v| tcell(taints, v).secret).unwrap_or(false);
                        self.taint.as_mut().expect("taint on").ret_secret = secret;
                    }
                    return Ok(v.map(|v| eval(regs, v)));
                }
            }
        }
    }
}

fn coerce(v: Value, ty: Ty) -> Value {
    match (ty, v) {
        (Ty::F64, Value::I(x)) => Value::F(x as f64),
        (Ty::F64, v) => v,
        (_, Value::F(x)) => Value::I(x as i64),
        (_, v) => v,
    }
}

fn alu(op: BinOp, a: Value, b: Value) -> Result<Value, SimError> {
    use BinOp::*;
    if a.is_nat() || b.is_nat() {
        return Ok(Value::Nat);
    }
    Ok(match op {
        Add => Value::I(a.as_i64().wrapping_add(b.as_i64())),
        Sub => Value::I(a.as_i64().wrapping_sub(b.as_i64())),
        Mul => Value::I(a.as_i64().wrapping_mul(b.as_i64())),
        Div => {
            let d = b.as_i64();
            if d == 0 {
                return Err(SimError::DivByZero);
            }
            Value::I(a.as_i64().wrapping_div(d))
        }
        Mod => {
            let d = b.as_i64();
            if d == 0 {
                return Err(SimError::DivByZero);
            }
            Value::I(a.as_i64().wrapping_rem(d))
        }
        And => Value::I(a.as_i64() & b.as_i64()),
        Or => Value::I(a.as_i64() | b.as_i64()),
        Xor => Value::I(a.as_i64() ^ b.as_i64()),
        Shl => Value::I(a.as_i64().wrapping_shl(b.as_i64() as u32)),
        Shr => Value::I(a.as_i64().wrapping_shr(b.as_i64() as u32)),
        Eq => Value::I((a.as_i64() == b.as_i64()) as i64),
        Ne => Value::I((a.as_i64() != b.as_i64()) as i64),
        Lt => Value::I((a.as_i64() < b.as_i64()) as i64),
        Le => Value::I((a.as_i64() <= b.as_i64()) as i64),
        Gt => Value::I((a.as_i64() > b.as_i64()) as i64),
        Ge => Value::I((a.as_i64() >= b.as_i64()) as i64),
        FAdd => Value::F(a.as_f64() + b.as_f64()),
        FSub => Value::F(a.as_f64() - b.as_f64()),
        FMul => Value::F(a.as_f64() * b.as_f64()),
        FDiv => Value::F(a.as_f64() / b.as_f64()),
        FEq => Value::I((a.as_f64() == b.as_f64()) as i64),
        FNe => Value::I((a.as_f64() != b.as_f64()) as i64),
        FLt => Value::I((a.as_f64() < b.as_f64()) as i64),
        FLe => Value::I((a.as_f64() <= b.as_f64()) as i64),
        FGt => Value::I((a.as_f64() > b.as_f64()) as i64),
        FGe => Value::I((a.as_f64() >= b.as_f64()) as i64),
    })
}

fn un(op: UnOp, a: Value) -> Value {
    if a.is_nat() {
        return Value::Nat;
    }
    match op {
        UnOp::Neg => Value::I(a.as_i64().wrapping_neg()),
        UnOp::Not => Value::I(!a.as_i64()),
        UnOp::FNeg => Value::F(-a.as_f64()),
        UnOp::I2F => Value::F(a.as_i64() as f64),
        UnOp::F2I => Value::I(a.as_f64() as i64),
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
    target: &dyn SpecTarget,
    entry: &str,
    args: &[Value],
    fuel: u64,
) -> Result<(Option<Value>, Counters), SimError> {
    run_machine_with_policy_on(
        prog,
        target,
        entry,
        args,
        fuel,
        Box::new(Deterministic::new()),
    )
}

/// Like [`run_machine_on`], but under an explicit ALAT fault policy (see
/// [`crate::policy::parse_fault_policy`] for the string grammar).
///
/// # Errors
/// See [`SimError`].
pub fn run_machine_with_policy_on(
    prog: &MProgram,
    target: &dyn SpecTarget,
    entry: &str,
    args: &[Value],
    fuel: u64,
    policy: Box<dyn AlatPolicy>,
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
    target: &dyn SpecTarget,
    entry: &str,
    args: &[Value],
    fuel: u64,
    policy: Box<dyn AlatPolicy>,
    secret: &[i64],
) -> Result<TaintReport, SimError> {
    let idx = prog
        .func_by_name(entry)
        .ok_or_else(|| SimError::NoSuchFunction(entry.to_string()))?;
    let mut sim = Simulator::for_target(prog, target, fuel, policy);
    sim.enable_taint(secret);
    let result = sim.run(idx, args)?;
    let counters = sim.counters();
    let ts = sim.taint.take().expect("taint on");
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
        for name in crate::policy::fault_matrix() {
            let pol = crate::policy::parse_fault_policy(&name).unwrap();
            let (r, c) =
                run_machine_with_policy_on(&p, TargetId::Epic.spec(), "main", &[], 1000, pol)
                    .unwrap();
            assert_eq!(r, Some(Value::I(42)), "policy {name}");
            assert!(c.failed_checks <= c.check_loads, "policy {name}");
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
        let pol = crate::policy::parse_fault_policy("always-miss").unwrap();
        let (r, c) =
            run_machine_with_policy_on(&p, TargetId::Epic.spec(), "main", &[], 100, pol).unwrap();
        assert_eq!(r, Some(Value::I(42)), "recovery reloads the right value");
        assert_eq!(c.failed_checks, 1, "0-entry ALAT must miss");
        let pol = crate::policy::parse_fault_policy("forced-miss").unwrap();
        let (r, c) =
            run_machine_with_policy_on(&p, TargetId::Epic.spec(), "main", &[], 100, pol).unwrap();
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
        let pol = crate::policy::parse_fault_policy("flash-clear:10").unwrap();
        let (r, c) =
            run_machine_with_policy_on(&p, TargetId::Epic.spec(), "main", &[], 10_000, pol)
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
        let sim = Simulator::for_target(
            &p,
            TargetId::Epic.spec(),
            100,
            Box::new(Deterministic::new()),
        );
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
