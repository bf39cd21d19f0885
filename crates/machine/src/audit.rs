//! Static speculation-safety auditor.
//!
//! The paper's correctness contract (§5) is that ignoring a speculative
//! weak update is safe *only because* every advanced load is re-validated
//! by a check instruction before its value is committed. This pass proves
//! the structural half of that contract on lowered machine code:
//!
//! * every `ld.a` / `ld.sa` (ALAT-allocating load) is followed, on some
//!   executable path, by a check on the same register — an advanced load
//!   whose value is never checked is a dropped `ld.c`;
//! * every check that can observe a reaching advanced load targets the
//!   **same address and type** as that load — a check re-executing a
//!   different load would "validate" the wrong value (the swapped-recovery
//!   corruption class);
//! * a NaT check (`chks`) never covers a plain `ld.a` — only
//!   control-speculative `ld.sa` values can hold NaT, so a NaT check over
//!   a non-speculative load silently skips ALAT validation.
//!
//! The analysis is a forward may-dataflow over the flat instruction
//! stream: each register maps to the set of advanced-load *provenances*
//! (origin index, address, flavour) that may reach it; joins are unions,
//! so one check at a merge point validates the loads of every incoming
//! path. Only reachable blocks participate — dead code cannot
//! mis-speculate.

use crate::isa::{ChkKind, LdKind, MFunc, MInst, MOperand, MProgram};
use specframe_ir::Ty;
use std::collections::BTreeSet;
use std::ops::Range;

/// An audit failure, anchored to one instruction of one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditError {
    /// Function the failure is in.
    pub func: String,
    /// Flat instruction index of the offending load or check.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl core::fmt::Display for AuditError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "speculation audit failed in `{}` at inst {}: {}",
            self.func, self.at, self.msg
        )
    }
}

impl std::error::Error for AuditError {}

/// What one audit proved (for `--audit-spec` reporting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AuditStats {
    /// ALAT-allocating loads (`ld.a` + `ld.sa`) proven checked.
    pub advanced_loads: u64,
    /// Check instructions audited.
    pub checks: u64,
}

impl AuditStats {
    /// Merges another stats block into this one.
    pub fn absorb(&mut self, other: &AuditStats) {
        self.advanced_loads += other.advanced_loads;
        self.checks += other.checks;
    }
}

/// An address key: `MOperand` minus the float payload (floats cannot be
/// load bases; bit-keyed so the set types stay total orders).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum BaseKey {
    R(u32),
    I(i64),
    Slot(u32),
    F(u64),
}

fn base_key(o: MOperand) -> BaseKey {
    match o {
        MOperand::R(r) => BaseKey::R(r.0),
        MOperand::I(i) => BaseKey::I(i),
        MOperand::SlotAddr(s) => BaseKey::Slot(s),
        MOperand::F(f) => BaseKey::F(f.to_bits()),
    }
}

fn ty_code(t: Ty) -> u8 {
    match t {
        Ty::I64 => 0,
        Ty::F64 => 1,
        Ty::Ptr => 2,
    }
}

fn ty_name(c: u8) -> &'static str {
    match c {
        0 => "i64",
        1 => "f64",
        _ => "ptr",
    }
}

/// One advanced load that may reach a register: where it is and what it
/// loaded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Prov {
    origin: usize,
    base: BaseKey,
    off: i64,
    ty: u8,
    spec: bool,
}

type RegState = RegSets<Prov>;

/// Applies one instruction to the provenance state. When `errors` is
/// given (the post-fixpoint sweep), mismatched checks are reported there.
fn transfer(
    st: &mut RegState,
    i: usize,
    inst: &MInst,
    checked: &mut BTreeSet<(usize, usize)>,
    mut errors: Option<&mut Vec<(usize, String)>>,
) {
    match inst {
        MInst::Mov { d, .. }
        | MInst::Alu { d, .. }
        | MInst::Un { d, .. }
        | MInst::Alloc { d, .. }
        | MInst::Call { d: Some(d), .. } => st[d.0 as usize].clear(),
        MInst::Ld {
            d,
            base,
            off,
            ty,
            kind,
        } => {
            let slot = &mut st[d.0 as usize];
            slot.clear();
            if let LdKind::Advanced | LdKind::SpecAdvanced = kind {
                slot.insert(Prov {
                    origin: i,
                    base: base_key(*base),
                    off: *off,
                    ty: ty_code(*ty),
                    spec: matches!(kind, LdKind::SpecAdvanced),
                });
            }
        }
        MInst::Chk {
            d,
            base,
            off,
            ty,
            kind,
        } => {
            let here = (base_key(*base), *off, ty_code(*ty));
            for p in &st[d.0 as usize] {
                if (p.base, p.off, p.ty) != here {
                    if let Some(errs) = errors.as_deref_mut() {
                        errs.push((
                            i,
                            format!(
                                "check on r{} re-executes [{:?}+{}] {} but the reaching \
                                 advanced load at inst {} loaded [{:?}+{}] {}",
                                d.0,
                                here.0,
                                here.1,
                                ty_name(here.2),
                                p.origin,
                                p.base,
                                p.off,
                                ty_name(p.ty)
                            ),
                        ));
                    }
                } else if matches!(kind, ChkKind::Nat) && !p.spec {
                    if let Some(errs) = errors.as_deref_mut() {
                        errs.push((
                            i,
                            format!(
                                "NaT check on r{} covers the plain ld.a at inst {} — \
                                 ALAT validation is skipped",
                                d.0, p.origin
                            ),
                        ));
                    }
                } else {
                    checked.insert((p.origin, i));
                }
            }
            st[d.0 as usize].clear();
        }
        MInst::ChkCmp { d, val, .. } => {
            // software check verdict: validates every advanced load
            // reaching `val` by register identity. Address agreement is
            // enforced *dynamically* by the compare the sequence computed
            // — a stale address simply misses and takes the recovery
            // reload, so there is no swapped-recovery class to flag here.
            let pairs: Vec<usize> = st[val.0 as usize].iter().map(|p| p.origin).collect();
            for o in pairs {
                checked.insert((o, i));
            }
            st[val.0 as usize].clear();
            st[d.0 as usize].clear();
        }
        // a fence stalls until in-flight loads resolve but does not
        // validate their values — check pairing is unaffected
        MInst::Call { d: None, .. }
        | MInst::St { .. }
        | MInst::Fence
        | MInst::Jmp(_)
        | MInst::Br { .. }
        | MInst::Ret(_) => {}
    }
}

/// Block boundaries of the flat stream: `starts[k]` is the first
/// instruction of block `k`, blocks are maximal single-entry runs.
fn block_starts(code: &[MInst]) -> Vec<usize> {
    let n = code.len();
    let mut leader = vec![false; n];
    if n > 0 {
        leader[0] = true;
    }
    for (i, inst) in code.iter().enumerate() {
        let mut next_leads = false;
        match inst {
            MInst::Jmp(t) => {
                leader[*t] = true;
                next_leads = true;
            }
            MInst::Br { then_, else_, .. } => {
                leader[*then_] = true;
                leader[*else_] = true;
                next_leads = true;
            }
            MInst::Ret(_) => next_leads = true,
            _ => {}
        }
        if next_leads && i + 1 < n {
            leader[i + 1] = true;
        }
    }
    (0..n).filter(|&i| leader[i]).collect()
}

/// Per-register sets of dataflow facts at one program point.
pub(crate) type RegSets<T> = Vec<BTreeSet<T>>;

/// One block of a flat machine stream after [`forward_fixpoint`]: its
/// instruction range and its converged in-state, `None` when unreachable.
pub(crate) type BlockState<T> = (Range<usize>, Option<RegSets<T>>);

/// Runs a forward may-dataflow over `f`'s blocks to a fixpoint: every
/// register starts empty at entry, in-states join by union, and each
/// reachable block is replayed through `transfer(state, inst index)`
/// until no in-state grows. The speculation audit and the leak audit
/// ([`crate::leaks`]) walk the same CFG this way with different lattices.
pub(crate) fn forward_fixpoint<T: Ord + Copy>(
    f: &MFunc,
    mut transfer: impl FnMut(&mut RegSets<T>, usize),
) -> Vec<BlockState<T>> {
    let n = f.code.len();
    if n == 0 {
        return Vec::new();
    }
    let starts = block_starts(&f.code);
    let block_of = |i: usize| -> usize { starts.partition_point(|&s| s <= i) - 1 };
    let end_of = |k: usize| -> usize { starts.get(k + 1).copied().unwrap_or(n) };
    let succs = |k: usize| -> Vec<usize> {
        let last = end_of(k) - 1;
        match &f.code[last] {
            MInst::Jmp(t) => vec![block_of(*t)],
            MInst::Br { then_, else_, .. } => vec![block_of(*then_), block_of(*else_)],
            MInst::Ret(_) => vec![],
            // block split by an incoming edge: falls through
            _ => {
                if end_of(k) < n {
                    vec![k + 1]
                } else {
                    vec![]
                }
            }
        }
    };

    let mut in_states: Vec<Option<RegSets<T>>> = vec![None; starts.len()];
    in_states[0] = Some(vec![BTreeSet::new(); f.regs as usize]);
    let mut work: Vec<usize> = vec![0];
    while let Some(k) = work.pop() {
        let mut st = in_states[k].clone().expect("queued blocks have a state");
        for i in starts[k]..end_of(k) {
            transfer(&mut st, i);
        }
        for s in succs(k) {
            match &mut in_states[s] {
                Some(cur) => {
                    let mut grew = false;
                    for (a, b) in cur.iter_mut().zip(&st) {
                        for p in b {
                            grew |= a.insert(*p);
                        }
                    }
                    if grew {
                        work.push(s);
                    }
                }
                slot @ None => {
                    *slot = Some(st.clone());
                    work.push(s);
                }
            }
        }
    }
    in_states
        .into_iter()
        .enumerate()
        .map(|(k, st)| (starts[k]..end_of(k), st))
        .collect()
}

/// Fixpoint of the provenance dataflow: the blocks with their in-states,
/// and the `(load, check)` pairs observed.
fn provenance_fixpoint(f: &MFunc) -> (Vec<BlockState<Prov>>, BTreeSet<(usize, usize)>) {
    let mut checked: BTreeSet<(usize, usize)> = BTreeSet::new();
    let blocks = forward_fixpoint(f, |st, i| {
        transfer(st, i, &f.code[i], &mut checked, None);
    });
    (blocks, checked)
}

/// The `(advanced load index, check index)` pairs the speculation-safety
/// audit proves, in address order. This is the pairing the leak audit
/// ([`crate::leaks`]) must agree with — the agreement is unit-tested.
pub fn check_pairs(f: &MFunc) -> Vec<(usize, usize)> {
    let (_, checked) = provenance_fixpoint(f);
    checked.into_iter().collect()
}

/// Audits one machine function.
///
/// # Errors
/// Returns the first (lowest-index) violation.
pub fn audit_func(f: &MFunc) -> Result<AuditStats, AuditError> {
    let fail = |(at, msg): (usize, String)| AuditError {
        func: f.name.clone(),
        at,
        msg,
    };
    let (blocks, mut checked) = provenance_fixpoint(f);

    // post-fixpoint sweep: replay each reachable block from its final
    // in-state, recording pairing violations in address order
    let mut errors: Vec<(usize, String)> = Vec::new();
    let mut stats = AuditStats::default();
    for (range, state) in &blocks {
        let Some(state) = state else { continue };
        let mut st = state.clone();
        for i in range.clone() {
            if matches!(&f.code[i], MInst::Chk { .. } | MInst::ChkCmp { .. }) {
                stats.checks += 1;
            }
            transfer(&mut st, i, &f.code[i], &mut checked, Some(&mut errors));
        }
    }
    // every reachable ALAT-allocating load must be validated by at least
    // one matching check on some path (dropped-`ld.c` detection)
    for (range, state) in &blocks {
        if state.is_none() {
            continue;
        }
        for i in range.clone() {
            if let MInst::Ld { d, kind, .. } = &f.code[i] {
                if matches!(kind, LdKind::Advanced | LdKind::SpecAdvanced) {
                    stats.advanced_loads += 1;
                    if !checked.iter().any(|&(o, _)| o == i) {
                        errors.push((
                            i,
                            format!(
                                "advanced load into r{} is never validated by a matching \
                                 check (dropped ld.c/chk)",
                                d.0
                            ),
                        ));
                    }
                }
            }
        }
    }
    // pairing violations (collected first, in address order) outrank
    // dropped-check reports: a mispaired check usually explains why its
    // load also shows as unvalidated
    match errors.into_iter().next() {
        Some(e) => Err(fail(e)),
        None => Ok(stats),
    }
}

/// Audits every function of a lowered program.
///
/// # Errors
/// Returns the first violation, in function order.
pub fn audit_program(p: &MProgram) -> Result<AuditStats, AuditError> {
    let mut stats = AuditStats::default();
    for f in &p.funcs {
        stats.absorb(&audit_func(f)?);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Reg;

    fn mf(regs: u32, code: Vec<MInst>) -> MFunc {
        MFunc {
            name: "t".into(),
            params: 0,
            regs,
            slot_words: vec![],
            code,
            promoted_regs: vec![],
        }
    }

    #[test]
    fn paired_advanced_load_passes() {
        let f = mf(
            2,
            vec![
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
                    val: MOperand::I(7),
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
        );
        let s = audit_func(&f).unwrap();
        assert_eq!(s.advanced_loads, 1);
        assert_eq!(s.checks, 1);
    }

    #[test]
    fn dropped_check_is_flagged() {
        let f = mf(
            1,
            vec![
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Advanced,
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
        );
        let e = audit_func(&f).unwrap_err();
        assert_eq!(e.at, 0);
        assert!(e.msg.contains("never validated"), "{e}");
    }

    #[test]
    fn swapped_check_address_is_flagged() {
        let f = mf(
            1,
            vec![
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Advanced,
                },
                MInst::Chk {
                    d: Reg(0),
                    base: MOperand::I(99),
                    off: 0,
                    ty: Ty::I64,
                    kind: ChkKind::Alat,
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
        );
        let e = audit_func(&f).unwrap_err();
        assert_eq!(e.at, 1);
        assert!(e.msg.contains("re-executes"), "{e}");
    }

    #[test]
    fn nat_check_over_plain_advanced_load_is_flagged() {
        let f = mf(
            1,
            vec![
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
                    kind: ChkKind::Nat,
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
        );
        let e = audit_func(&f).unwrap_err();
        assert!(e.msg.contains("NaT check"), "{e}");
    }

    #[test]
    fn merge_point_check_covers_both_paths() {
        // two ld.a's of the same address on different paths, one check
        // after the merge: both loads are validated
        let f = mf(
            2,
            vec![
                // 0: br r1, 1, 3
                MInst::Br {
                    cond: MOperand::R(Reg(1)),
                    then_: 1,
                    else_: 3,
                },
                // 1: ld.a r0
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Advanced,
                },
                // 2: jmp 4
                MInst::Jmp(4),
                // 3: ld.a r0 (other path)
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Advanced,
                },
                // 4: ld.c r0
                MInst::Chk {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: ChkKind::Alat,
                },
                MInst::Ret(Some(MOperand::R(Reg(0)))),
            ],
        );
        let s = audit_func(&f).unwrap();
        assert_eq!(s.advanced_loads, 2);
    }

    #[test]
    fn unreachable_code_is_ignored() {
        let f = mf(
            1,
            vec![
                MInst::Ret(None),
                // dead: an unchecked ld.a that can never execute
                MInst::Ld {
                    d: Reg(0),
                    base: MOperand::I(16),
                    off: 0,
                    ty: Ty::I64,
                    kind: LdKind::Advanced,
                },
                MInst::Ret(None),
            ],
        );
        audit_func(&f).unwrap();
    }
}
