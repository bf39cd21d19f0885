//! Out-of-SSA lowering.
//!
//! Converts an (optimized) [`HssaFunc`] back into executable base IR. Each
//! register version lives in its register's *home* — the base [`VarId`],
//! which version 0 already holds — unless it interferes with a version
//! already placed there; such a version gets a fresh register `v.N`. This
//! is SSA destruction with coalescing (Sreedhar et al., SAS '99; Boissinot
//! et al., CGO '09). Register φs become copies at the end of their
//! predecessors (sequentialized as parallel copies), and a copy whose two
//! ends share a register vanishes. The ghost machinery — memory/virtual
//! variables, their φs, χ/μ operators — is erased. Statements synthesized
//! by the optimizer (site [`FRESH_SITE`]) receive fresh module-unique
//! memory sites.
//!
//! Registers in [`HssaFunc::collapsed_vars`] (the PRE load temporaries)
//! ignore versions: every version is the home register. On any other
//! register a check joins the register of the load it validates, because
//! the ALAT keys by register and a NaT lives in its register: the load
//! must be the nearest earlier definition of the check's register in its
//! block, with the same base, offset and type, and must not interfere
//! with it. Any other check lowers as a plain load, which is what a failed
//! check does anyway.
//!
//! The CFG must have critical edges split before lowering whenever a block
//! with φs has a predecessor with several successors; the driver in
//! `specframe-core` guarantees this.

use crate::hvar::HVarKind;
use crate::stmt::{HBlock, HOperand, HStmt, HStmtKind, HTerm, HssaFunc, Phi, RegVer, FRESH_SITE};
use crate::vers::{VerMap, VerSlots};
use specframe_ir::{
    Block, CheckKind, Function, Inst, LoadSpec, MemSiteId, Operand, Terminator, VarDecl, VarId,
};
use std::ops::Range;

/// First placeholder id handed out by [`lower_function`] for statements the
/// optimizer synthesized (site [`FRESH_SITE`]). Placeholders are function
/// local — the k-th fresh statement in instruction-encounter order gets
/// `LOCAL_FRESH_BASE + k` — and must be rewritten to module-unique sites via
/// [`resolve_fresh_sites`] before the function is spliced back into a
/// module. The band below `FRESH_SITE` is far above any real site id.
pub const LOCAL_FRESH_BASE: u32 = u32::MAX - (1 << 24);

/// Rewrites the local fresh-site placeholders of a [`lower_function`] result
/// to module-unique ids starting at `first`, preserving encounter order.
pub fn resolve_fresh_sites(f: &mut Function, first: MemSiteId) {
    for b in &mut f.blocks {
        for inst in &mut b.insts {
            if let Inst::Load { site, .. }
            | Inst::CheckLoad { site, .. }
            | Inst::Store { site, .. } = inst
            {
                if site.0 >= LOCAL_FRESH_BASE {
                    *site = MemSiteId(first.0 + (site.0 - LOCAL_FRESH_BASE));
                }
            }
        }
    }
}

/// Lowers `hf` into a standalone [`Function`] without touching any module
/// state, so the parallel driver can run it with each worker owning exactly
/// one function. Optimizer-synthesized statements receive deterministic
/// local placeholder sites (`LOCAL_FRESH_BASE + k`, in instruction-encounter
/// order); the second return is the placeholder count. The caller splices
/// the function back in index order and calls [`resolve_fresh_sites`] with a
/// module-unique base, which reproduces the serial numbering bit for bit.
/// Versions are placed in the order this walk first meets them, so the
/// output does not depend on the driver's job count.
pub fn lower_function(base: &Function, hf: &HssaFunc) -> (Function, u32) {
    // variable table: original registers (each one's home), optimizer
    // temps, then fresh ids for versions that cannot go home
    let mut vars: Vec<VarDecl> = base.vars.clone();
    vars.extend(hf.new_vars.iter().map(|(name, ty)| VarDecl {
        name: name.clone(),
        ty: *ty,
    }));
    let slots = VerSlots::new(hf);
    let mut homes = Homes::new(hf, &slots, vars);

    // optimizer-synthesized statements get local placeholder sites in
    // instruction-encounter order; resolve_fresh_sites maps them to
    // module-unique ids at the driver's deterministic join point
    let mut fresh_count: u32 = 0;
    let mut site_of = |site: MemSiteId| {
        if site == FRESH_SITE {
            fresh_count += 1;
            MemSiteId(LOCAL_FRESH_BASE + (fresh_count - 1))
        } else {
            site
        }
    };

    let mut blocks: Vec<Block> = Vec::with_capacity(hf.blocks.len());
    for (hb, b) in hf.blocks.iter().zip(&base.blocks) {
        let mut insts = Vec::with_capacity(hb.stmts.len());
        for s in &hb.stmts {
            let inst = match &s.kind {
                HStmtKind::Bin { dst, op, a, b } => Inst::Bin {
                    dst: homes.reg(*dst),
                    op: *op,
                    a: homes.operand(*a),
                    b: homes.operand(*b),
                },
                HStmtKind::Un { dst, op, a } => Inst::Un {
                    dst: homes.reg(*dst),
                    op: *op,
                    a: homes.operand(*a),
                },
                HStmtKind::Copy { dst, src } => Inst::Copy {
                    dst: homes.reg(*dst),
                    src: homes.operand(*src),
                },
                HStmtKind::Load {
                    dst,
                    base,
                    offset,
                    ty,
                    spec,
                    site,
                    ..
                } => Inst::Load {
                    dst: homes.reg(*dst),
                    base: homes.operand(*base),
                    offset: *offset,
                    ty: *ty,
                    spec: *spec,
                    site: site_of(*site),
                },
                HStmtKind::CheckLoad {
                    dst,
                    base,
                    offset,
                    ty,
                    kind,
                    site,
                    ..
                } => {
                    let d = homes.reg(*dst);
                    let base = homes.operand(*base);
                    let site = site_of(*site);
                    if homes.keeps_check(*dst) {
                        Inst::CheckLoad {
                            dst: d,
                            base,
                            offset: *offset,
                            ty: *ty,
                            kind: *kind,
                            site,
                        }
                    } else {
                        Inst::Load {
                            dst: d,
                            base,
                            offset: *offset,
                            ty: *ty,
                            spec: LoadSpec::Normal,
                            site,
                        }
                    }
                }
                HStmtKind::Store {
                    base,
                    offset,
                    val,
                    ty,
                    site,
                    ..
                } => Inst::Store {
                    base: homes.operand(*base),
                    offset: *offset,
                    val: homes.operand(*val),
                    ty: *ty,
                    site: site_of(*site),
                },
                HStmtKind::Call {
                    dst,
                    callee,
                    args,
                    site,
                } => Inst::Call {
                    dst: dst.map(|d| homes.reg(d)),
                    callee: *callee,
                    args: args.iter().map(|&a| homes.operand(a)).collect(),
                    site: *site,
                },
                HStmtKind::Alloc { dst, words, site } => Inst::Alloc {
                    dst: homes.reg(*dst),
                    words: homes.operand(*words),
                    site: *site,
                },
            };
            insts.push(inst);
        }
        let term = match hb.term.as_ref().expect("terminator") {
            HTerm::Jump(t) => Terminator::Jump(*t),
            HTerm::Br { cond, then_, else_ } => Terminator::Br {
                cond: homes.operand(*cond),
                then_: *then_,
                else_: *else_,
            },
            HTerm::Ret(v) => Terminator::Ret(v.map(|v| homes.operand(v))),
        };
        blocks.push(Block {
            name: b.name.clone(),
            insts,
            term,
        });
    }

    // register-phi elimination: parallel copies at the end of predecessors
    for (bi, hb) in hf.blocks.iter().enumerate() {
        let phis: Vec<(VarId, &Phi)> = reg_phis(hf, &hb.phis, &homes.collapsed).collect();
        if phis.is_empty() {
            continue;
        }
        for (pi, &pred) in hf.preds[bi].iter().enumerate() {
            let mut pairs: Vec<(VarId, VarId)> = Vec::new();
            for &(v, phi) in &phis {
                let d = homes.reg((v, phi.dest));
                let s = homes.reg((v, phi.args[pi]));
                if d != s {
                    pairs.push((d, s));
                }
            }
            if pairs.is_empty() {
                continue;
            }
            assert!(
                blocks[pred.index()].term.successors().len() == 1,
                "critical edge into block {bi} not split before lowering"
            );
            // a block has one φ per register, and every version lives in a
            // register of its own variable, so no copy of the group reads
            // another's destination: they need no order and no temporary
            debug_assert!(pairs
                .iter()
                .all(|&(d, _)| pairs.iter().all(|&(_, s)| s != d)));
            let copies = pairs.into_iter().map(|(dst, src)| Inst::Copy {
                dst,
                src: Operand::Var(src),
            });
            blocks[pred.index()].insts.extend(copies);
        }
    }

    let new_f = Function {
        name: base.name.clone(),
        params: base.params,
        ret_ty: base.ret_ty,
        vars: homes.vars,
        slots: base.slots.clone(),
        blocks,
    };
    (new_f, fresh_count)
}

/// The register φs among `phis`, with their registers, skipping collapsed
/// registers: every version of one is the same register, so its φs need
/// no copies and no liveness.
fn reg_phis<'a, 'c>(
    hf: &'a HssaFunc,
    phis: &'a [Phi],
    collapsed: &'c [bool],
) -> impl Iterator<Item = (VarId, &'a Phi)> + use<'a, 'c> {
    phis.iter().filter_map(|p| match hf.catalog.kind(p.var) {
        HVarKind::Reg(v) if !collapsed[v.index()] => Some((v, p)),
        _ => None,
    })
}

/// Where each register version of one function lives, decided the first
/// time lowering meets the version.
struct Homes<'s> {
    slots: &'s VerSlots,
    /// The output's variable table; fresh registers are appended.
    vars: Vec<VarDecl>,
    /// Per register: whether it is collapsed.
    collapsed: Vec<bool>,
    /// Interference between versions of one register, as `(slot, other
    /// version)` edges in both directions, sorted.
    conflicts: Vec<(u32, u32)>,
    /// Each check on a non-collapsed register with a pair candidate
    /// ([`validated`]): the version of the load it validates, and whether
    /// that version is itself a check.
    pairs: Vec<(RegVer, u32, bool)>,
    /// The checks that joined the register of the load they validate.
    paired: Vec<RegVer>,
    /// The register each version was placed in.
    placed: VerMap<'s, VarId>,
    /// Versions without a slot, each in a register of its own.
    unslotted: Vec<(RegVer, VarId)>,
}

impl<'s> Homes<'s> {
    fn new(hf: &HssaFunc, slots: &'s VerSlots, vars: Vec<VarDecl>) -> Homes<'s> {
        let mut collapsed = vec![false; vars.len()];
        for v in &hf.collapsed_vars {
            collapsed[v.index()] = true;
        }
        let mut pairs = Vec::new();
        let conflicts = interference(hf, slots, &collapsed, &mut pairs);
        Homes {
            slots,
            vars,
            collapsed,
            conflicts,
            pairs,
            paired: Vec::new(),
            placed: VerMap::new(slots),
            unslotted: Vec::new(),
        }
    }

    /// The register of version `ver` of `v`. Version 0 and every version
    /// of a collapsed register are the home register `v`. A check with a
    /// pair joins its load's register when nothing placed there interferes
    /// with it; any other version goes home when nothing placed there
    /// interferes with it, and into a fresh register `v.ver` otherwise. A
    /// version without a slot gets a fresh register of its own.
    fn reg(&mut self, rv: RegVer) -> VarId {
        let (v, ver) = rv;
        if ver == 0 || self.collapsed[v.index()] {
            return v;
        }
        let Some(slot) = self.slots.slot(rv) else {
            if let Some(&(_, r)) = self.unslotted.iter().find(|(u, _)| *u == rv) {
                return r;
            }
            let r = self.fresh(rv);
            self.unslotted.push((rv, r));
            return r;
        };
        if let Some(r) = self.placed.get(rv) {
            return r;
        }
        if let Some(&(_, load, of_check)) = self.pairs.iter().find(|p| p.0 == rv) {
            let r = self.reg((v, load));
            if (!of_check || self.paired.contains(&(v, load))) && self.fits(slot, v, r) {
                self.paired.push(rv);
                self.placed.insert(rv, r);
                return r;
            }
        }
        let r = if self.fits(slot, v, v) {
            v
        } else {
            self.fresh(rv)
        };
        self.placed.insert(rv, r);
        r
    }

    /// Whether no version of `v` that interferes with `slot` sits in `r`.
    fn fits(&self, slot: usize, v: VarId, r: VarId) -> bool {
        let from = self
            .conflicts
            .partition_point(|&(s, _)| (s as usize) < slot);
        self.conflicts[from..]
            .iter()
            .take_while(|&&(s, _)| s as usize == slot)
            .all(|&(_, ver)| {
                let at = if ver == 0 {
                    Some(v)
                } else {
                    self.placed.get((v, ver))
                };
                at != Some(r)
            })
    }

    /// A fresh register for `v`'s version `ver`, named `v.ver`, or
    /// `v.ver.k` with the least `k` that no variable has yet: an input may
    /// already declare `v.ver`, for example an earlier compile's output.
    fn fresh(&mut self, (v, ver): RegVer) -> VarId {
        let d = &self.vars[v.index()];
        let (base, ty) = (format!("{}.{}", d.name, ver), d.ty);
        let taken = |name: &str| self.vars.iter().any(|d| d.name == name);
        let mut name = base.clone();
        for k in 1.. {
            if !taken(&name) {
                break;
            }
            name = format!("{base}.{k}");
        }
        self.vars.push(VarDecl { name, ty });
        VarId::from_index(self.vars.len() - 1)
    }

    /// Whether the check defining `rv` stays a check: on a collapsed
    /// register, or paired with its load. Call after [`Homes::reg`].
    fn keeps_check(&self, rv: RegVer) -> bool {
        self.collapsed[rv.0.index()] || self.paired.contains(&rv)
    }

    fn operand(&mut self, o: HOperand) -> Operand {
        match o {
            HOperand::Reg(v, ver) => Operand::Var(self.reg((v, ver))),
            HOperand::ConstI(c) => Operand::ConstI(c),
            HOperand::ConstF(c) => Operand::ConstF(c),
            HOperand::GlobalAddr(g) => Operand::GlobalAddr(g),
            HOperand::SlotAddr(s) => Operand::SlotAddr(s),
        }
    }
}

/// For the check `check` after the statements `before` of its block: the
/// version defined by the nearest earlier definition of its register, when
/// that is a load of the same base, offset and type the check validates —
/// `ldc` a `load.a` or `load.s`, `chks` a `load.s` — or a check of the same
/// kind and location (the flag is `true`).
fn validated(before: &[HStmt], check: &HStmtKind) -> Option<(u32, bool)> {
    let HStmtKind::CheckLoad {
        dst: (v, _),
        base,
        offset,
        ty,
        kind,
        ..
    } = check
    else {
        return None;
    };
    let prev = before
        .iter()
        .rev()
        .find(|s| s.def_reg().is_some_and(|(d, _)| d == *v))?;
    match &prev.kind {
        HStmtKind::Load {
            dst,
            base: b,
            offset: o,
            ty: t,
            spec,
            ..
        } => {
            let validates = match kind {
                CheckKind::Alat => *spec != LoadSpec::Normal,
                CheckKind::Nat => *spec == LoadSpec::Speculative,
            };
            (validates && (b, o, t) == (base, offset, ty)).then_some((dst.1, false))
        }
        HStmtKind::CheckLoad {
            dst,
            base: b,
            offset: o,
            ty: t,
            kind: k,
            ..
        } => ((b, o, t, k) == (base, offset, ty, kind)).then_some((dst.1, true)),
        _ => None,
    }
}

/// Interference between versions of one register, from one backward
/// liveness over the version slots of `hf` (collapsed registers take no
/// part). A definition conflicts with every other version of its register
/// live at that point; the φ dests of a block are defined together at its
/// top. Returns `(slot, other version)` edges in both directions, sorted,
/// and appends each check's pair candidate ([`validated`]) to `pairs`.
fn interference(
    hf: &HssaFunc,
    slots: &VerSlots,
    collapsed: &[bool],
    pairs: &mut Vec<(RegVer, u32, bool)>,
) -> Vec<(u32, u32)> {
    let slot = |(v, ver): RegVer| {
        if collapsed[v.index()] {
            None
        } else {
            slots.slot((v, ver))
        }
    };
    let words = slots.len().div_ceil(64);
    let live_out = live_out(hf, collapsed, words, &slot);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut conflict = |live: &[u64], (v, ver): RegVer, at: usize| {
        let range = slots.versions(v);
        for j in ones(live, range.clone()).filter(|&j| j != at) {
            edges.push((at as u32, (j - range.start) as u32));
            edges.push((j as u32, ver));
        }
    };
    let mut live = vec![0u64; words];
    for (b, blk) in hf.blocks.iter().enumerate() {
        live.copy_from_slice(&live_out[b * words..(b + 1) * words]);
        if let Some(i) = term_use(blk).and_then(slot) {
            set(&mut live, i);
        }
        for (si, stmt) in blk.stmts.iter().enumerate().rev() {
            if let Some(d) = stmt.def_reg() {
                if let Some(i) = slot(d) {
                    conflict(&live, d, i);
                    clear(&mut live, i);
                    if let Some((load, of_check)) = validated(&blk.stmts[..si], &stmt.kind) {
                        pairs.push((d, load, of_check));
                    }
                }
            }
            for i in stmt.reg_uses().filter_map(slot) {
                set(&mut live, i);
            }
        }
        for (v, phi) in reg_phis(hf, &blk.phis, collapsed) {
            if let Some(i) = slot((v, phi.dest)) {
                conflict(&live, (v, phi.dest), i);
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// The versions live at the end of each block, as `words` words of bits
/// per block over the slots `slot` gives. φ args are read at the end of
/// the predecessor: after critical-edge splitting, a predecessor that gets
/// φ copies ends in a `jmp`, which reads no register after them.
fn live_out(
    hf: &HssaFunc,
    collapsed: &[bool],
    words: usize,
    slot: &impl Fn(RegVer) -> Option<usize>,
) -> Vec<u64> {
    let nb = hf.blocks.len();
    // per block: upward-exposed uses, definitions (φ dests included), and
    // live-out, seeded with the φ args read at its end
    let mut gen = vec![0u64; nb * words];
    let mut kill = vec![0u64; nb * words];
    let mut live_out = vec![0u64; nb * words];
    for (b, blk) in hf.blocks.iter().enumerate() {
        let (g, k) = (
            &mut gen[b * words..(b + 1) * words],
            &mut kill[b * words..(b + 1) * words],
        );
        if let Some(i) = term_use(blk).and_then(slot) {
            set(g, i);
        }
        for stmt in blk.stmts.iter().rev() {
            if let Some(i) = stmt.def_reg().and_then(slot) {
                set(k, i);
                clear(g, i);
            }
            for i in stmt.reg_uses().filter_map(slot) {
                set(g, i);
            }
        }
        for (v, phi) in reg_phis(hf, &blk.phis, collapsed) {
            if let Some(i) = slot((v, phi.dest)) {
                set(k, i);
                clear(g, i);
            }
            for (&pred, &arg) in hf.preds[b].iter().zip(&phi.args) {
                if let Some(i) = slot((v, arg)) {
                    set(&mut live_out[pred.index() * words..], i);
                }
            }
        }
    }
    let mut live_in = vec![0u64; nb * words];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nb).rev() {
            let succs = match hf.blocks[b].term.as_ref() {
                Some(HTerm::Jump(t)) => [Some(*t), None],
                Some(HTerm::Br { then_, else_, .. }) => [Some(*then_), Some(*else_)],
                _ => [None, None],
            };
            for s in succs.into_iter().flatten() {
                for w in 0..words {
                    live_out[b * words + w] |= live_in[s.index() * words + w];
                }
            }
            for w in b * words..(b + 1) * words {
                let live = gen[w] | (live_out[w] & !kill[w]);
                if live != live_in[w] {
                    live_in[w] = live;
                    changed = true;
                }
            }
        }
    }
    live_out
}

/// The register a block's terminator reads, if any.
fn term_use(blk: &HBlock) -> Option<RegVer> {
    blk.term
        .as_ref()
        .and_then(HTerm::operand)
        .and_then(|o| o.as_reg())
}

fn set(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

fn clear(bits: &mut [u64], i: usize) {
    bits[i / 64] &= !(1 << (i % 64));
}

/// The set bits of `bits` within `range`, a word at a time.
fn ones(bits: &[u64], range: Range<usize>) -> impl Iterator<Item = usize> + '_ {
    (range.start / 64..range.end.div_ceil(64)).flat_map(move |w| {
        let lo = range.start.max(w * 64) - w * 64;
        let hi = range.end.min(w * 64 + 64) - w * 64;
        let mask = (u64::MAX >> (64 - hi)) & (u64::MAX << lo);
        let mut word = bits[w] & mask;
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let j = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + j
            })
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_in_module, verify_hssa, SpecSource};
    use specframe_alias::AliasAnalysis;
    use specframe_ir::{parse_module, FuncId, Value};
    use specframe_profile::run;

    fn round_trip(src: &str, entry: &str, args: &[Value]) {
        let m0 = parse_module(src).unwrap();
        let (expect, _) = run(&m0, entry, args, 1_000_000).unwrap();

        let mut m = m0.clone();
        for fi in 0..m.funcs.len() {
            specframe_analysis::split_critical_edges(&mut m.funcs[fi]);
        }
        let aa = AliasAnalysis::analyze(&m);
        for fi in 0..m.funcs.len() {
            let hf = build_in_module(&m, FuncId::from_index(fi), &aa, SpecSource::None);
            verify_hssa(&hf).unwrap();
            let (lowered, fresh) = lower_function(&m.funcs[fi], &hf);
            assert_eq!(fresh, 0, "an unoptimized form synthesizes no statement");
            // no version of a form built from plain code interferes with
            // another version of its register, so every one goes home
            assert_eq!(lowered.vars, m.funcs[fi].vars, "{}", m.funcs[fi].name);
            m.funcs[fi] = lowered;
        }
        specframe_ir::verify_module(&m).unwrap();
        let (got, _) = run(&m, entry, args, 1_000_000).unwrap();
        assert_eq!(got, expect, "semantics changed by HSSA round trip");
    }

    #[test]
    fn straightline_round_trip() {
        round_trip(
            r#"
global g: i64[2] = [3, 4]

func f() -> i64 {
  var a: i64
  var b: i64
entry:
  a = load.i64 [@g]
  b = load.i64 [@g + 1]
  a = add a, b
  store.i64 [@g], a
  ret a
}
"#,
            "f",
            &[],
        );
    }

    #[test]
    fn loop_round_trip() {
        round_trip(
            r#"
global g: i64[1]

func f(n: i64) -> i64 {
  var i: i64
  var c: i64
  var v: i64
entry:
  i = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  v = load.i64 [@g]
  v = add v, i
  store.i64 [@g], v
  i = add i, 1
  jmp head
exit:
  v = load.i64 [@g]
  ret v
}
"#,
            "f",
            &[Value::I(17)],
        );
    }

    #[test]
    fn diamond_with_phi_round_trip() {
        round_trip(
            r#"
func f(x: i64) -> i64 {
  var r: i64
entry:
  br x, a, b
a:
  r = 10
  jmp m
b:
  r = 20
  jmp m
m:
  r = add r, 1
  ret r
}
"#,
            "f",
            &[Value::I(1)],
        );
    }

    #[test]
    fn calls_and_heap_round_trip() {
        round_trip(
            r#"
func fill(p: ptr, n: i64) {
  var i: i64
  var c: i64
  var q: ptr
entry:
  i = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  q = add p, i
  store.i64 [q], i
  i = add i, 1
  jmp head
exit:
  ret
}

func f(n: i64) -> i64 {
  var p: ptr
  var i: i64
  var c: i64
  var acc: i64
  var q: ptr
  var v: i64
entry:
  p = alloc n
  call fill(p, n)
  i = 0
  acc = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  q = add p, i
  v = load.i64 [q]
  acc = add acc, v
  i = add i, 1
  jmp head
exit:
  ret acc
}
"#,
            "f",
            &[Value::I(12)],
        );
    }
}
