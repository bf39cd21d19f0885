//! Post-kernel cleanup: copy propagation, block-local forwarding of
//! collapsed-temporary copies, dead-φ pruning and dead-copy elimination.
//! Every kernel client runs [`cleanup_hssa`] after its rewrites so a
//! reload costs its check and nothing more.

use specframe_hssa::{HOperand, HStmtKind, HVarKind, HssaFunc};
use specframe_ir::VarId;
use specframe_ir::{FxHashMap, FxHashSet};

/// Post-SSAPRE cleanup: copy propagation, block-local forwarding of
/// collapsed-temporary copies, dead-φ pruning and dead-copy elimination,
/// iterated to a fixpoint. Without the φ pruning, non-pruned SSA would
/// lower into a φ-copy per live-range per loop iteration and drown the
/// cycle savings the promotion just bought.
pub fn cleanup_hssa(hf: &mut HssaFunc) {
    for _ in 0..4 {
        copy_propagate(hf);
        propagate_collapsed_local(hf);
        let a = eliminate_dead_phis(hf);
        let b = eliminate_dead_copies(hf);
        if a == 0 && b == 0 {
            break;
        }
    }
}

/// Removes φs over *register* variables whose result version is never
/// used by any statement, terminator, or live φ. Memory/virtual-variable
/// φs are ghosts (no lowering cost) and are kept. Returns the number of
/// φs removed.
pub fn eliminate_dead_phis(hf: &mut HssaFunc) -> usize {
    // seed: versions used by non-phi consumers
    let mut needed: FxHashSet<(VarId, u32)> = FxHashSet::default();
    for b in hf.block_ids() {
        let blk = &hf.blocks[b.index()];
        for stmt in &blk.stmts {
            for u in stmt.reg_uses() {
                needed.insert(u);
            }
        }
        match &blk.term {
            Some(specframe_hssa::HTerm::Br {
                cond: HOperand::Reg(v, ver),
                ..
            }) => {
                needed.insert((*v, *ver));
            }
            Some(specframe_hssa::HTerm::Ret(Some(HOperand::Reg(v, ver)))) => {
                needed.insert((*v, *ver));
            }
            _ => {}
        }
    }
    // propagate: a phi is live iff its dest is needed; live phis need their
    // arguments — dead phis keep nothing alive (this is what prunes the
    // circular self-sustaining phi webs of non-pruned SSA)
    let mut changed = true;
    while changed {
        changed = false;
        for b in hf.block_ids() {
            for phi in &hf.blocks[b.index()].phis {
                if let HVarKind::Reg(v) = hf.catalog.kind(phi.var) {
                    if needed.contains(&(v, phi.dest)) {
                        for &a in &phi.args {
                            changed |= needed.insert((v, a));
                        }
                    }
                }
            }
        }
    }
    let mut removed = 0usize;
    let HssaFunc {
        catalog, blocks, ..
    } = hf;
    for blk in blocks.iter_mut() {
        let before = blk.phis.len();
        blk.phis.retain(|phi| match catalog.kind(phi.var) {
            HVarKind::Reg(v) => needed.contains(&(v, phi.dest)),
            _ => true,
        });
        removed += before - blk.phis.len();
    }
    removed
}

/// Block-local propagation of copies *from* collapsed registers.
///
/// A copy `x = t` where `t` is a collapsed promotion temporary cannot be
/// propagated globally (another check may refresh `t` in between), but it
/// *is* safe to forward within the same block up to the next definition of
/// `t` — which removes the one-cycle copy from almost every reload (the
/// value is consumed right where it was reloaded).
pub fn propagate_collapsed_local(hf: &mut HssaFunc) {
    let collapsed: FxHashSet<VarId> = hf.collapsed_vars.iter().copied().collect();
    if collapsed.is_empty() {
        return;
    }
    for b in 0..hf.blocks.len() {
        let mut local: FxHashMap<(VarId, u32), (VarId, u32)> = FxHashMap::default();
        let blk = &mut hf.blocks[b];
        for stmt in &mut blk.stmts {
            let rewrite = |o: &mut HOperand, local: &FxHashMap<(VarId, u32), (VarId, u32)>| {
                if let HOperand::Reg(v, ver) = o {
                    if let Some(&(tv, tver)) = local.get(&(*v, *ver)) {
                        *o = HOperand::Reg(tv, tver);
                    }
                }
            };
            match &mut stmt.kind {
                HStmtKind::Bin { a, b, .. } => {
                    rewrite(a, &local);
                    rewrite(b, &local);
                }
                HStmtKind::Un { a, .. } => rewrite(a, &local),
                HStmtKind::Copy { src, .. } => rewrite(src, &local),
                HStmtKind::Load { base, .. } | HStmtKind::CheckLoad { base, .. } => {
                    rewrite(base, &local)
                }
                HStmtKind::Store { base, val, .. } => {
                    rewrite(base, &local);
                    rewrite(val, &local);
                }
                HStmtKind::Call { args, .. } => {
                    for a in args {
                        rewrite(a, &local);
                    }
                }
                HStmtKind::Alloc { words, .. } => rewrite(words, &local),
            }
            // a new definition of a collapsed register invalidates forwards
            if let Some((dv, _)) = stmt.def_reg() {
                if collapsed.contains(&dv) {
                    local.retain(|_, &mut (s, _)| s != dv);
                }
            }
            if let HStmtKind::Copy {
                dst,
                src: HOperand::Reg(sv, sver),
            } = &stmt.kind
            {
                if collapsed.contains(sv) && !collapsed.contains(&dst.0) {
                    local.insert(*dst, (*sv, *sver));
                }
            }
        }
        if let Some(term) = &mut blk.term {
            match term {
                specframe_hssa::HTerm::Br { cond, .. } => {
                    if let HOperand::Reg(v, ver) = cond {
                        if let Some(&(tv, tver)) = local.get(&(*v, *ver)) {
                            *cond = HOperand::Reg(tv, tver);
                        }
                    }
                }
                specframe_hssa::HTerm::Ret(Some(HOperand::Reg(v, ver))) => {
                    if let Some(&(tv, tver)) = local.get(&(*v, *ver)) {
                        *term = specframe_hssa::HTerm::Ret(Some(HOperand::Reg(tv, tver)));
                    }
                }
                _ => {}
            }
        }
    }
}

/// Removes `x = y` statements whose destination version is never used
/// (by any statement operand, terminator, or φ argument). Iterates to a
/// fixpoint since copies can feed only other dead copies.
pub fn eliminate_dead_copies(hf: &mut HssaFunc) -> usize {
    let mut total = 0usize;
    loop {
        let mut used: FxHashSet<(VarId, u32)> = FxHashSet::default();
        for b in hf.block_ids() {
            let blk = &hf.blocks[b.index()];
            for phi in &blk.phis {
                if let HVarKind::Reg(v) = hf.catalog.kind(phi.var) {
                    for &a in &phi.args {
                        used.insert((v, a));
                    }
                }
            }
            for stmt in &blk.stmts {
                for u in stmt.reg_uses() {
                    used.insert(u);
                }
            }
            match &blk.term {
                Some(specframe_hssa::HTerm::Br {
                    cond: HOperand::Reg(v, ver),
                    ..
                }) => {
                    used.insert((*v, *ver));
                }
                Some(specframe_hssa::HTerm::Ret(Some(HOperand::Reg(v, ver)))) => {
                    used.insert((*v, *ver));
                }
                _ => {}
            }
        }
        let mut removed = 0usize;
        for b in hf.block_ids() {
            let blk = &mut hf.blocks[b.index()];
            let before = blk.stmts.len();
            blk.stmts.retain(|stmt| match &stmt.kind {
                HStmtKind::Copy { dst, .. } => used.contains(dst),
                _ => true,
            });
            removed += before - blk.stmts.len();
        }
        total += removed;
        if removed == 0 {
            return total;
        }
    }
}

/// SSA copy propagation: rewrites every use of a register version defined
/// by `x = y` to use `y` directly. Versions of *collapsed* registers (the
/// load-promotion temporaries) are never propagated: their versions all
/// alias one machine register whose content changes at every check, so a
/// snapshot copy must stay a copy.
pub fn copy_propagate(hf: &mut HssaFunc) {
    let collapsed: FxHashSet<VarId> = hf.collapsed_vars.iter().copied().collect();
    let mut map: FxHashMap<(VarId, u32), HOperand> = FxHashMap::default();
    for b in hf.block_ids() {
        for stmt in &hf.blocks[b.index()].stmts {
            if let HStmtKind::Copy { dst, src } = &stmt.kind {
                let ok = match src {
                    HOperand::Reg(v, _) => !collapsed.contains(v),
                    _ => true,
                };
                if ok && !collapsed.contains(&dst.0) {
                    map.insert(*dst, *src);
                }
            }
        }
    }
    let resolve = |mut o: HOperand| -> HOperand {
        for _ in 0..64 {
            match o {
                HOperand::Reg(v, ver) => match map.get(&(v, ver)) {
                    Some(&next) => o = next,
                    None => break,
                },
                _ => break,
            }
        }
        o
    };
    for b in 0..hf.blocks.len() {
        for stmt in &mut hf.blocks[b].stmts {
            match &mut stmt.kind {
                HStmtKind::Bin { a, b, .. } => {
                    *a = resolve(*a);
                    *b = resolve(*b);
                }
                HStmtKind::Un { a, .. } => *a = resolve(*a),
                HStmtKind::Copy { src, .. } => *src = resolve(*src),
                HStmtKind::Load { base, .. } | HStmtKind::CheckLoad { base, .. } => {
                    *base = resolve(*base)
                }
                HStmtKind::Store { base, val, .. } => {
                    *base = resolve(*base);
                    *val = resolve(*val);
                }
                HStmtKind::Call { args, .. } => {
                    for a in args {
                        *a = resolve(*a);
                    }
                }
                HStmtKind::Alloc { words, .. } => *words = resolve(*words),
            }
        }
        if let Some(term) = &mut hf.blocks[b].term {
            match term {
                specframe_hssa::HTerm::Br { cond, .. } => *cond = resolve(*cond),
                specframe_hssa::HTerm::Ret(Some(v)) => *v = resolve(*v),
                _ => {}
            }
        }
    }
}
