//! Post-kernel cleanup: one copy-propagation walk, then one dead-code
//! sweep. The driver runs [`cleanup_hssa`] after SSAPRE and after each
//! optional pass whose input needs it — a fresh build, whose φs are
//! unpruned, or a form some stage rewrote — so a reload costs its check
//! and nothing more.

use specframe_hssa::stmt::RegVer;
use specframe_hssa::vers::{VerMap, VerSet, VerSlots};
use specframe_hssa::{HOperand, HStmtKind, HTerm, HVarKind, HssaFunc};
use specframe_ir::VarId;
use specframe_ir::{FxHashMap, FxHashSet};

/// Post-SSAPRE cleanup: [`propagate_copies`], then
/// [`eliminate_dead_code`]. Without the φ pruning, non-pruned SSA would
/// lower into a φ-copy per live-range per loop iteration and drown the
/// cycle savings the promotion just bought. Each step finishes its work
/// in one pass, so cleaning a cleaned form changes nothing.
pub fn cleanup_hssa(hf: &mut HssaFunc) {
    propagate_copies(hf);
    eliminate_dead_code(hf);
}

/// SSA copy propagation, in one walk over every statement operand and
/// terminator operand. Each operand first follows the global map — every
/// copy `x = y` whose destination and source are both non-collapsed — to
/// the end of its chain, then the block-local map of copies *from*
/// collapsed registers.
///
/// Versions of *collapsed* registers (the load-promotion temporaries) all
/// alias one machine register whose content changes at every check, so a
/// copy `x = t` from a collapsed `t` must not propagate globally. It is
/// safe to forward within its block up to the next definition of `t`,
/// which removes the one-cycle copy from almost every reload (the value is
/// consumed right where it was reloaded). Before the first load candidate
/// nothing is collapsed and the walk is plain copy propagation.
pub fn propagate_copies(hf: &mut HssaFunc) {
    let collapsed: FxHashSet<VarId> = hf.collapsed_vars.iter().copied().collect();
    let slots = VerSlots::new(hf);
    let mut global = VerMap::new(&slots);
    let mut mapped = 0usize;
    for blk in &hf.blocks {
        for stmt in &blk.stmts {
            if let HStmtKind::Copy { dst, src } = &stmt.kind {
                let from_collapsed = src.as_reg().is_some_and(|(v, _)| collapsed.contains(&v));
                if !from_collapsed && !collapsed.contains(&dst.0) {
                    global.insert(*dst, *src);
                    mapped += 1;
                }
            }
        }
    }
    // a chain visits each mapped copy at most once, so `mapped` steps
    // reach its end
    let resolve = |mut o: HOperand| {
        for _ in 0..mapped {
            match o.as_reg().and_then(|rv| global.get(rv)) {
                Some(next) => o = next,
                None => break,
            }
        }
        o
    };
    let mut local: FxHashMap<RegVer, RegVer> = FxHashMap::default();
    for blk in &mut hf.blocks {
        local.clear();
        let forward = |o: &mut HOperand, local: &FxHashMap<RegVer, RegVer>| {
            *o = resolve(*o);
            if let Some(&(t, ver)) = o.as_reg().and_then(|rv| local.get(&rv)) {
                *o = HOperand::Reg(t, ver);
            }
        };
        for stmt in &mut blk.stmts {
            for o in stmt.operands_mut() {
                forward(o, &local);
            }
            // a new definition of a collapsed register ends its forwards
            if let Some((dv, _)) = stmt.def_reg() {
                if collapsed.contains(&dv) {
                    local.retain(|_, &mut (s, _)| s != dv);
                }
            }
            if let HStmtKind::Copy {
                dst,
                src: HOperand::Reg(sv, sver),
            } = stmt.kind
            {
                if collapsed.contains(&sv) && !collapsed.contains(&dst.0) {
                    local.insert(dst, (sv, sver));
                }
            }
        }
        if let Some(o) = blk.term.as_mut().and_then(HTerm::operand_mut) {
            forward(o, &local);
        }
    }
}

/// What defines a register version [`eliminate_dead_code`] may remove.
#[derive(Clone, Copy)]
enum Def {
    /// The register φ at this position of this block's φ list.
    Phi(usize, usize),
    /// A copy from this register version.
    Copy(RegVer),
}

/// Removes every register φ and every copy whose result no statement
/// needs, from one liveness computation over register versions. The roots
/// are the operands of every statement that is not a copy and of every
/// terminator; a live register φ keeps its arguments live, and a live copy
/// its source. So a φ and a copy that keep only each other alive go too.
/// Memory and virtual-variable φs are ghosts (no lowering cost) and stay.
pub fn eliminate_dead_code(hf: &mut HssaFunc) {
    let slots = VerSlots::new(hf);
    let mut defs = VerMap::new(&slots);
    let mut work: Vec<RegVer> = Vec::new();
    for (b, blk) in hf.blocks.iter().enumerate() {
        for (i, phi) in blk.phis.iter().enumerate() {
            if let HVarKind::Reg(v) = hf.catalog.kind(phi.var) {
                defs.insert((v, phi.dest), Def::Phi(b, i));
            }
        }
        for stmt in &blk.stmts {
            match &stmt.kind {
                HStmtKind::Copy { dst, src } => {
                    if let Some(rv) = src.as_reg() {
                        defs.insert(*dst, Def::Copy(rv));
                    }
                }
                _ => work.extend(stmt.reg_uses()),
            }
        }
        if let Some(term) = &blk.term {
            work.extend(term.operand().and_then(|o| o.as_reg()));
        }
    }
    let mut live = VerSet::new(&slots);
    while let Some(rv) = work.pop() {
        if !live.insert(rv) {
            continue;
        }
        match defs.get(rv) {
            Some(Def::Phi(b, i)) => {
                work.extend(hf.blocks[b].phis[i].args.iter().map(|&arg| (rv.0, arg)))
            }
            Some(Def::Copy(src)) => work.push(src),
            None => {}
        }
    }
    let HssaFunc {
        catalog, blocks, ..
    } = hf;
    for blk in blocks.iter_mut() {
        blk.phis.retain(|phi| match catalog.kind(phi.var) {
            HVarKind::Reg(v) => live.contains((v, phi.dest)),
            _ => true,
        });
        blk.stmts.retain(|stmt| match &stmt.kind {
            HStmtKind::Copy { dst, .. } => live.contains(*dst),
            _ => true,
        });
    }
}
