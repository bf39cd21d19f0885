//! Dense slots for the register versions of one function. Post-kernel
//! cleanup (copy propagation and dead-code removal) and out-of-SSA
//! [`crate::lower`] index their per-version tables by the same layout.

use crate::hvar::HVarKind;
use crate::stmt::{HssaFunc, RegVer};
use specframe_ir::VarId;
use std::ops::Range;

/// Dense slots for the register versions of one function, laid out from
/// its catalog and `next_ver`: register `v`'s versions `0..next_ver` take
/// the slots `start..start + next_ver` of `span[v] = (start, next_ver)`.
/// Every block of a prepared function is renamed, so every version it
/// defines has a slot. A version at or above `next_ver` — such as the
/// `u32::MAX` placeholder an `--inject-corrupt` run writes into a use —
/// has none: a [`VerSet`] or [`VerMap`] ignores its insertion and never
/// contains it.
pub struct VerSlots {
    span: Vec<(u32, u32)>,
    len: usize,
}

impl VerSlots {
    /// The layout of `hf`'s register versions.
    pub fn new(hf: &HssaFunc) -> VerSlots {
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

    /// The number of slots.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The slot of `rv`, if it has one.
    pub(crate) fn slot(&self, (v, ver): RegVer) -> Option<usize> {
        let &(start, n) = self.span.get(v.index())?;
        (ver < n).then(|| start as usize + ver as usize)
    }

    /// The slots of every version of `v`, in version order.
    pub(crate) fn versions(&self, v: VarId) -> Range<usize> {
        let (start, n) = self.span.get(v.index()).copied().unwrap_or((0, 0));
        start as usize..(start + n) as usize
    }
}

/// A set of register versions over [`VerSlots`].
pub struct VerSet<'s> {
    slots: &'s VerSlots,
    dense: Vec<bool>,
}

impl<'s> VerSet<'s> {
    /// The empty set.
    pub fn new(slots: &'s VerSlots) -> Self {
        VerSet {
            slots,
            dense: vec![false; slots.len],
        }
    }

    /// Adds `rv`; returns whether it was absent.
    pub fn insert(&mut self, rv: RegVer) -> bool {
        self.slots
            .slot(rv)
            .is_some_and(|i| !std::mem::replace(&mut self.dense[i], true))
    }

    /// Whether `rv` is in the set.
    pub fn contains(&self, rv: RegVer) -> bool {
        self.slots.slot(rv).is_some_and(|i| self.dense[i])
    }
}

/// A map from register versions over [`VerSlots`].
pub struct VerMap<'s, T> {
    slots: &'s VerSlots,
    dense: Vec<Option<T>>,
}

impl<'s, T: Copy> VerMap<'s, T> {
    /// The empty map.
    pub fn new(slots: &'s VerSlots) -> Self {
        VerMap {
            slots,
            dense: vec![None; slots.len],
        }
    }

    /// Maps `rv` to `val`.
    pub fn insert(&mut self, rv: RegVer, val: T) {
        if let Some(i) = self.slots.slot(rv) {
            self.dense[i] = Some(val);
        }
    }

    /// The value `rv` maps to.
    pub fn get(&self, rv: RegVer) -> Option<T> {
        self.dense[self.slots.slot(rv)?]
    }
}
