//! Post-kernel cleanup: copy propagation, block-local forwarding of
//! collapsed-temporary copies, dead-φ pruning and dead-copy elimination.
//! The driver runs [`cleanup_hssa`] after SSAPRE and after each optional
//! pass whose input may need it — a fresh build, whose φs are unpruned, or
//! a form some stage rewrote since the last cleanup reached its fixpoint —
//! so a reload costs its check and nothing more.

use specframe_hssa::stmt::RegVer;
use specframe_hssa::{HOperand, HStmtKind, HVarKind, HssaFunc};
use specframe_ir::VarId;
use specframe_ir::{FxHashMap, FxHashSet};

/// Post-SSAPRE cleanup: copy propagation, block-local forwarding of
/// collapsed-temporary copies, dead-φ pruning and dead-copy elimination,
/// iterated to a fixpoint for at most four rounds. Without the φ pruning,
/// non-pruned SSA would lower into a φ-copy per live-range per loop
/// iteration and drown the cycle savings the promotion just bought.
///
/// Returns whether the last round reached the fixpoint (removed nothing),
/// after which another call changes nothing; `false` when the rounds ran
/// out first.
pub fn cleanup_hssa(hf: &mut HssaFunc) -> bool {
    for _ in 0..4 {
        copy_propagate(hf);
        propagate_collapsed_local(hf);
        let a = eliminate_dead_phis(hf);
        let b = eliminate_dead_copies(hf);
        if a == 0 && b == 0 {
            return true;
        }
    }
    false
}

/// Dense slots for the register versions of one function, laid out from
/// its catalog and `next_ver`: register `v`'s versions `0..next_ver` take
/// the slots `start..start + next_ver` of `span[v] = (start, next_ver)`.
/// Every block of a prepared function is renamed, so every version it
/// defines has a slot. A version at or above `next_ver` — such as the
/// `u32::MAX` placeholder an `--inject-corrupt` run writes into a use —
/// has none: a [`VerSet`] or [`VerMap`] ignores its insertion and never
/// contains it.
struct VerSlots {
    span: Vec<(u32, u32)>,
    len: usize,
}

impl VerSlots {
    fn new(hf: &HssaFunc) -> VerSlots {
        let mut span = vec![(0, 0); hf.first_new_var as usize + hf.new_vars.len()];
        let mut len = 0u32;
        for (id, kind) in hf.catalog.iter() {
            if let HVarKind::Reg(v) = kind {
                let n = hf.next_ver[id.index()];
                span[v.index()] = (len, n);
                len += n;
            }
        }
        VerSlots {
            span,
            len: len as usize,
        }
    }

    fn slot(&self, (v, ver): RegVer) -> Option<usize> {
        let &(start, n) = self.span.get(v.index())?;
        (ver < n).then(|| start as usize + ver as usize)
    }
}

/// A set of register versions over [`VerSlots`].
struct VerSet<'s> {
    slots: &'s VerSlots,
    dense: Vec<bool>,
}

impl<'s> VerSet<'s> {
    fn new(slots: &'s VerSlots) -> Self {
        VerSet {
            slots,
            dense: vec![false; slots.len],
        }
    }

    /// Adds `rv`; returns whether it was absent.
    fn insert(&mut self, rv: RegVer) -> bool {
        self.slots
            .slot(rv)
            .is_some_and(|i| !std::mem::replace(&mut self.dense[i], true))
    }

    fn contains(&self, rv: RegVer) -> bool {
        self.slots.slot(rv).is_some_and(|i| self.dense[i])
    }
}

/// A map from register versions to operands over [`VerSlots`].
struct VerMap<'s> {
    slots: &'s VerSlots,
    dense: Vec<Option<HOperand>>,
}

impl<'s> VerMap<'s> {
    fn new(slots: &'s VerSlots) -> Self {
        VerMap {
            slots,
            dense: vec![None; slots.len],
        }
    }

    fn insert(&mut self, rv: RegVer, val: HOperand) {
        if let Some(i) = self.slots.slot(rv) {
            self.dense[i] = Some(val);
        }
    }

    fn get(&self, rv: RegVer) -> Option<HOperand> {
        self.dense[self.slots.slot(rv)?]
    }
}

/// Removes φs over *register* variables whose result version is never
/// used by any statement, terminator, or live φ. Memory/virtual-variable
/// φs are ghosts (no lowering cost) and are kept. Returns the number of
/// φs removed.
pub fn eliminate_dead_phis(hf: &mut HssaFunc) -> usize {
    let slots = VerSlots::new(hf);
    // seed: versions used by non-phi consumers
    let mut needed = VerSet::new(&slots);
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
                    if needed.contains((v, phi.dest)) {
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
            HVarKind::Reg(v) => needed.contains((v, phi.dest)),
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
    let slots = VerSlots::new(hf);
    let mut total = 0usize;
    loop {
        let mut used = VerSet::new(&slots);
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
                HStmtKind::Copy { dst, .. } => used.contains(*dst),
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
    let slots = VerSlots::new(hf);
    let mut map = VerMap::new(&slots);
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
                HOperand::Reg(v, ver) => match map.get((v, ver)) {
                    Some(next) => o = next,
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
