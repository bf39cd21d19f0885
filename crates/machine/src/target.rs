//! Speculation targets: the substrate contract behind `--target`.
//!
//! The paper's framework treats data/control speculation as a policy the
//! compiler chooses per site; the *mechanism* that makes a mis-speculation
//! recoverable is a property of the target. This module abstracts that
//! mechanism behind [`SpecTarget`]:
//!
//! * **`epic`** ([`EpicTarget`]) — the IA-64 shape the rest of the crate
//!   documents: `ld.a` allocates an ALAT entry, `ld.c` consults it, a hit
//!   costs 0 cycles. Lowering hooks are all identity (one instruction in,
//!   one instruction out), so the generated code is byte-identical to the
//!   pre-trait lowering.
//! * **`swr`** ([`SwrTarget`]) — a RISC-like target with **no ALAT**.
//!   Advanced loads are checked in software: the lowering records the
//!   loaded address and a store/call *epoch* in shadow registers, and the
//!   check re-derives the address, compares both, and branches to an
//!   inline recovery reload on mismatch ([`MInst::ChkCmp`] +
//!   [`MInst::Br`] + a [`LdKind::Recovery`] load). The check is no longer
//!   free — 4 ALU ops and a branch — which flips the profitability
//!   question the driver's oracle asks per load type.
//!
//! Every consumer (codegen, simulator, auditors, fencing, fault policies,
//! fuzzdiff, CLI) takes the active target and must uphold the same
//! contracts on both: fault policies never change results, `failed_checks
//! ≤ check_loads`, check shapes close taint windows, audits pass.

use std::collections::BTreeMap;

use specframe_ir::{BinOp, Ty};

use crate::costs::CostModel;
use crate::isa::{ChkKind, LdKind, MInst, MOperand, Reg};

/// Per-function state for software-checked speculation lowering.
///
/// Targets that keep speculation bookkeeping in architectural registers
/// (no ALAT) allocate that bookkeeping here: a virtual *epoch* register
/// bumped after every store and call, and per-speculative-destination
/// shadow registers holding the recorded address and recorded epoch. A
/// hardware target leaves the frame inert (`software == false`) and every
/// hook degenerates to a single instruction.
#[derive(Debug)]
pub struct SpecFrame {
    software: bool,
    next_reg: u32,
    epoch: Option<Reg>,
    shadows: BTreeMap<u32, (Reg, Reg)>,
    scratch: Option<[Reg; 5]>,
}

impl SpecFrame {
    /// A frame whose fresh registers start at `base_regs`. `software` is
    /// whether the active target asked for software speculation state
    /// (see [`SpecTarget::software_spec_state`]).
    pub fn new(base_regs: u32, software: bool) -> Self {
        SpecFrame {
            software,
            next_reg: base_regs,
            epoch: None,
            shadows: BTreeMap::new(),
            scratch: None,
        }
    }

    /// Whether software speculation state is active for this function.
    pub fn software(&self) -> bool {
        self.software
    }

    /// Final register count, including all allocated bookkeeping.
    pub fn regs(&self) -> u32 {
        self.next_reg
    }

    /// Allocates a fresh virtual register.
    pub fn alloc(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// The epoch register (allocated on first use; zero-initialised by
    /// the calling convention like every other register).
    pub fn epoch(&mut self) -> Reg {
        if let Some(e) = self.epoch {
            return e;
        }
        let e = Reg(self.next_reg);
        self.next_reg += 1;
        self.epoch = Some(e);
        e
    }

    /// The `(recorded address, recorded epoch)` shadow pair for
    /// speculative destination `d` (allocated on first use).
    pub fn shadow(&mut self, d: Reg) -> (Reg, Reg) {
        if let Some(&pair) = self.shadows.get(&d.0) {
            return pair;
        }
        let a = Reg(self.next_reg);
        let e = Reg(self.next_reg + 1);
        self.next_reg += 2;
        self.shadows.insert(d.0, (a, e));
        (a, e)
    }

    /// One reusable bank of five scratch registers for check sequences
    /// (`[t0, t1, t2, t3, tc]`). Check sequences are straight-line, so a
    /// single bank is safe to share across every check site.
    pub fn scratch(&mut self) -> [Reg; 5] {
        if let Some(s) = self.scratch {
            return s;
        }
        let base = self.next_reg;
        self.next_reg += 5;
        let s = [
            Reg(base),
            Reg(base + 1),
            Reg(base + 2),
            Reg(base + 3),
            Reg(base + 4),
        ];
        self.scratch = Some(s);
        s
    }
}

/// The substrate contract: what a backend must provide for the framework
/// to speculate on it. See `DESIGN.md` ("SpecTarget & cost-model
/// contract") for the obligations a third backend inherits.
///
/// Lowering hooks return a *sequence* of machine instructions per source
/// instruction. Branch labels inside a returned sequence are **relative
/// to the sequence start**; one-past-the-end is a valid fall-through
/// label (a terminator always follows). The code generator concatenates
/// sequences and rebases intra-sequence labels.
pub trait SpecTarget: Sync {
    /// Short stable name (`epic`, `swr`) — the `--target` spelling.
    fn name(&self) -> &'static str;

    /// The target's cycle-cost table.
    fn costs(&self) -> CostModel;

    /// Whether the target has hardware ALAT state. Without one, `ld.c`
    /// has no hardware to consult and checks must be lowered in software.
    fn has_alat(&self) -> bool;

    /// Stable fingerprint folded into the compile-cache key. Must change
    /// whenever the target's lowering or cost table changes shape.
    fn fingerprint(&self) -> u64;

    /// Cycles a *successful* check costs on this target (the price of
    /// speculating that the oracle weighs against the saved latency).
    fn check_overhead(&self) -> u64;

    /// Whether lowering must thread software speculation state (epoch +
    /// shadow registers) through functions that speculate.
    fn software_spec_state(&self) -> bool {
        !self.has_alat()
    }

    /// Lowers a load. `kind` is the speculation flavour chosen by the
    /// optimizer; plain loads pass through every target unchanged.
    fn lower_spec_load(
        &self,
        fr: &mut SpecFrame,
        d: Reg,
        base: MOperand,
        off: i64,
        ty: Ty,
        kind: LdKind,
    ) -> Vec<MInst>;

    /// Lowers a check load (`ld.c` / NaT check).
    fn lower_check(
        &self,
        fr: &mut SpecFrame,
        d: Reg,
        base: MOperand,
        off: i64,
        ty: Ty,
        kind: ChkKind,
    ) -> Vec<MInst>;

    /// Lowers a store (software targets piggyback epoch bookkeeping).
    fn lower_store(
        &self,
        fr: &mut SpecFrame,
        base: MOperand,
        off: i64,
        val: MOperand,
        ty: Ty,
    ) -> Vec<MInst>;

    /// Lowers a call (software targets piggyback epoch bookkeeping —
    /// callees may store through any pointer).
    fn lower_call(
        &self,
        fr: &mut SpecFrame,
        d: Option<Reg>,
        func: usize,
        args: Vec<MOperand>,
    ) -> Vec<MInst>;
}

/// The EPIC/IA-64 target: hardware ALAT, zero-cost successful checks.
#[derive(Debug, Clone, Copy, Default)]
pub struct EpicTarget;

impl SpecTarget for EpicTarget {
    fn name(&self) -> &'static str {
        "epic"
    }

    fn costs(&self) -> CostModel {
        CostModel::default()
    }

    fn has_alat(&self) -> bool {
        true
    }

    fn fingerprint(&self) -> u64 {
        // "EPIC" | lowering revision
        0x4550_4943_0000_0001
    }

    fn check_overhead(&self) -> u64 {
        self.costs().check_ok
    }

    fn lower_spec_load(
        &self,
        _fr: &mut SpecFrame,
        d: Reg,
        base: MOperand,
        off: i64,
        ty: Ty,
        kind: LdKind,
    ) -> Vec<MInst> {
        vec![MInst::Ld {
            d,
            base,
            off,
            ty,
            kind,
        }]
    }

    fn lower_check(
        &self,
        _fr: &mut SpecFrame,
        d: Reg,
        base: MOperand,
        off: i64,
        ty: Ty,
        kind: ChkKind,
    ) -> Vec<MInst> {
        vec![MInst::Chk {
            d,
            base,
            off,
            ty,
            kind,
        }]
    }

    fn lower_store(
        &self,
        _fr: &mut SpecFrame,
        base: MOperand,
        off: i64,
        val: MOperand,
        ty: Ty,
    ) -> Vec<MInst> {
        vec![MInst::St { base, off, val, ty }]
    }

    fn lower_call(
        &self,
        _fr: &mut SpecFrame,
        d: Option<Reg>,
        func: usize,
        args: Vec<MOperand>,
    ) -> Vec<MInst> {
        vec![MInst::Call { d, func, args }]
    }
}

/// The software-checked RISC-like target: no ALAT.
///
/// * `ld.a`/`ld.sa` keep the load itself byte-identical to `epic` (so
///   the speculation auditor's provenance and NaT-check address pairing
///   carry over) and wrap it with bookkeeping: the effective address is
///   recorded *before* the load (the destination may clobber the base)
///   and the current epoch after it.
/// * `ld.c` re-derives the address, compares address and epoch shadows,
///   and on mismatch branches to an inline recovery reload that also
///   refreshes the shadows.
/// * Stores and calls bump the epoch, conservatively invalidating every
///   outstanding speculative load, in functions that speculate.
#[derive(Debug, Clone, Copy, Default)]
pub struct SwrTarget;

impl SpecTarget for SwrTarget {
    fn name(&self) -> &'static str {
        "swr"
    }

    fn costs(&self) -> CostModel {
        CostModel {
            // A software check recovers by branching and reloading —
            // there is no hardware pipeline flush to price in, so the
            // penalty is smaller than epic's.
            check_fail_penalty: 4,
            ..CostModel::default()
        }
    }

    fn has_alat(&self) -> bool {
        false
    }

    fn fingerprint(&self) -> u64 {
        // "SWR" | lowering revision
        0x5357_5200_0000_0001
    }

    fn check_overhead(&self) -> u64 {
        // t0 = addr; t1 = addr cmp; t2 = epoch cmp; t3 = and; branch.
        let c = self.costs();
        4 * c.alu + c.check_ok + c.branch
    }

    fn lower_spec_load(
        &self,
        fr: &mut SpecFrame,
        d: Reg,
        base: MOperand,
        off: i64,
        ty: Ty,
        kind: LdKind,
    ) -> Vec<MInst> {
        let speculative = matches!(kind, LdKind::Advanced | LdKind::SpecAdvanced);
        if !fr.software() || !speculative {
            return vec![MInst::Ld {
                d,
                base,
                off,
                ty,
                kind,
            }];
        }
        let ep = fr.epoch();
        let (a_d, e_d) = fr.shadow(d);
        vec![
            // The recorded address is derived before the load: `d` may
            // alias the base register.
            MInst::Alu {
                d: a_d,
                op: BinOp::Add,
                a: base,
                b: MOperand::I(off),
            },
            MInst::Ld {
                d,
                base,
                off,
                ty,
                kind,
            },
            MInst::Mov {
                d: e_d,
                s: MOperand::R(ep),
            },
        ]
    }

    fn lower_check(
        &self,
        fr: &mut SpecFrame,
        d: Reg,
        base: MOperand,
        off: i64,
        ty: Ty,
        kind: ChkKind,
    ) -> Vec<MInst> {
        if !fr.software() || kind == ChkKind::Nat {
            // NaT deferral is a register-file property, not an ALAT one;
            // the hardware NaT check shape is kept.
            return vec![MInst::Chk {
                d,
                base,
                off,
                ty,
                kind,
            }];
        }
        let ep = fr.epoch();
        let (a_d, e_d) = fr.shadow(d);
        let [t0, t1, t2, t3, tc] = fr.scratch();
        // Labels are sequence-relative; 9 (one past the end) falls
        // through to whatever the code generator emits next.
        vec![
            MInst::Alu {
                d: t0,
                op: BinOp::Add,
                a: base,
                b: MOperand::I(off),
            },
            MInst::Alu {
                d: t1,
                op: BinOp::Eq,
                a: MOperand::R(t0),
                b: MOperand::R(a_d),
            },
            MInst::Alu {
                d: t2,
                op: BinOp::Eq,
                a: MOperand::R(ep),
                b: MOperand::R(e_d),
            },
            MInst::Alu {
                d: t3,
                op: BinOp::And,
                a: MOperand::R(t1),
                b: MOperand::R(t2),
            },
            MInst::ChkCmp {
                d: tc,
                val: d,
                cond: MOperand::R(t3),
            },
            MInst::Br {
                cond: MOperand::R(tc),
                then_: 9,
                else_: 6,
            },
            MInst::Ld {
                d,
                base: MOperand::R(t0),
                off: 0,
                ty,
                kind: LdKind::Recovery,
            },
            MInst::Mov {
                d: a_d,
                s: MOperand::R(t0),
            },
            MInst::Mov {
                d: e_d,
                s: MOperand::R(ep),
            },
        ]
    }

    fn lower_store(
        &self,
        fr: &mut SpecFrame,
        base: MOperand,
        off: i64,
        val: MOperand,
        ty: Ty,
    ) -> Vec<MInst> {
        let st = MInst::St { base, off, val, ty };
        if !fr.software() {
            return vec![st];
        }
        let ep = fr.epoch();
        vec![
            st,
            MInst::Alu {
                d: ep,
                op: BinOp::Add,
                a: MOperand::R(ep),
                b: MOperand::I(1),
            },
        ]
    }

    fn lower_call(
        &self,
        fr: &mut SpecFrame,
        d: Option<Reg>,
        func: usize,
        args: Vec<MOperand>,
    ) -> Vec<MInst> {
        let call = MInst::Call { d, func, args };
        if !fr.software() {
            return vec![call];
        }
        let ep = fr.epoch();
        vec![
            call,
            MInst::Alu {
                d: ep,
                op: BinOp::Add,
                a: MOperand::R(ep),
                b: MOperand::I(1),
            },
        ]
    }
}

static EPIC: EpicTarget = EpicTarget;
static SWR: SwrTarget = SwrTarget;

/// Identifier for a built-in target (`--target=epic|swr`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TargetId {
    /// IA-64 EPIC with a hardware ALAT (the default).
    #[default]
    Epic,
    /// Software-checked RISC-like target, no ALAT.
    Swr,
}

impl TargetId {
    /// Every built-in target.
    pub const ALL: [TargetId; 2] = [TargetId::Epic, TargetId::Swr];

    /// The target implementation.
    pub fn spec(self) -> &'static dyn SpecTarget {
        match self {
            TargetId::Epic => &EPIC,
            TargetId::Swr => &SWR,
        }
    }

    /// The `--target` spelling.
    pub fn name(self) -> &'static str {
        self.spec().name()
    }

    /// Parses a `--target` spelling.
    pub fn parse(s: &str) -> Option<TargetId> {
        match s {
            "epic" => Some(TargetId::Epic),
            "swr" => Some(TargetId::Swr),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn target_names_round_trip() {
        for t in TargetId::ALL {
            assert_eq!(TargetId::parse(t.name()), Some(t));
        }
        assert_eq!(TargetId::parse("itanium"), None);
        assert_eq!(TargetId::default(), TargetId::Epic);
    }

    #[test]
    fn fingerprints_are_distinct_and_stable() {
        assert_ne!(
            TargetId::Epic.spec().fingerprint(),
            TargetId::Swr.spec().fingerprint()
        );
        // Pinned: cache keys depend on these.
        assert_eq!(TargetId::Epic.spec().fingerprint(), 0x4550_4943_0000_0001);
        assert_eq!(TargetId::Swr.spec().fingerprint(), 0x5357_5200_0000_0001);
    }

    #[test]
    fn profitability_flips_per_target() {
        // On epic a successful check is free, so both load types are
        // worth speculating; on swr the check costs more than an integer
        // load saves, but less than a floating-point load.
        let epic = TargetId::Epic.spec();
        let swr = TargetId::Swr.spec();
        assert_eq!(epic.check_overhead(), 0);
        assert_eq!(swr.check_overhead(), 5);
        assert!(epic.costs().load(Ty::I64) > epic.check_overhead());
        assert!(epic.costs().load(Ty::F64) > epic.check_overhead());
        assert!(swr.costs().load(Ty::I64) <= swr.check_overhead());
        assert!(swr.costs().load(Ty::F64) > swr.check_overhead());
    }

    #[test]
    fn epic_hooks_are_identity() {
        let t = TargetId::Epic.spec();
        let mut fr = SpecFrame::new(4, t.software_spec_state());
        let seq = t.lower_spec_load(
            &mut fr,
            Reg(0),
            MOperand::R(Reg(1)),
            8,
            Ty::I64,
            LdKind::Advanced,
        );
        assert_eq!(seq.len(), 1);
        let seq = t.lower_check(
            &mut fr,
            Reg(0),
            MOperand::R(Reg(1)),
            8,
            Ty::I64,
            ChkKind::Alat,
        );
        assert_eq!(seq.len(), 1);
        let seq = t.lower_store(&mut fr, MOperand::R(Reg(1)), 0, MOperand::I(3), Ty::I64);
        assert_eq!(seq.len(), 1);
        let seq = t.lower_call(&mut fr, None, 0, vec![]);
        assert_eq!(seq.len(), 1);
        assert_eq!(fr.regs(), 4, "epic allocates no bookkeeping registers");
    }

    #[test]
    fn swr_spec_load_records_address_before_load() {
        let t = TargetId::Swr.spec();
        let mut fr = SpecFrame::new(2, t.software_spec_state());
        let seq = t.lower_spec_load(
            &mut fr,
            Reg(0),
            MOperand::R(Reg(1)),
            8,
            Ty::I64,
            LdKind::Advanced,
        );
        assert_eq!(seq.len(), 3);
        assert!(
            matches!(seq[0], MInst::Alu { op: BinOp::Add, .. }),
            "address recorded first"
        );
        assert!(
            matches!(
                seq[1],
                MInst::Ld {
                    d: Reg(0),
                    kind: LdKind::Advanced,
                    ..
                }
            ),
            "the load itself is unchanged"
        );
        // Plain loads pass through untouched even on swr.
        let seq = t.lower_spec_load(
            &mut fr,
            Reg(0),
            MOperand::R(Reg(1)),
            8,
            Ty::I64,
            LdKind::Normal,
        );
        assert_eq!(seq.len(), 1);
    }

    #[test]
    fn swr_check_is_compare_and_recovery_branch() {
        let t = TargetId::Swr.spec();
        let mut fr = SpecFrame::new(2, t.software_spec_state());
        t.lower_spec_load(
            &mut fr,
            Reg(0),
            MOperand::R(Reg(1)),
            8,
            Ty::I64,
            LdKind::Advanced,
        );
        let seq = t.lower_check(
            &mut fr,
            Reg(0),
            MOperand::R(Reg(1)),
            8,
            Ty::I64,
            ChkKind::Alat,
        );
        assert_eq!(seq.len(), 9);
        assert!(matches!(seq[4], MInst::ChkCmp { val: Reg(0), .. }));
        assert!(matches!(
            seq[5],
            MInst::Br {
                then_: 9,
                else_: 6,
                ..
            }
        ));
        assert!(matches!(
            seq[6],
            MInst::Ld {
                kind: LdKind::Recovery,
                ..
            }
        ));
        // NaT checks keep the hardware shape.
        let seq = t.lower_check(
            &mut fr,
            Reg(0),
            MOperand::R(Reg(1)),
            8,
            Ty::I64,
            ChkKind::Nat,
        );
        assert_eq!(seq.len(), 1);
    }

    #[test]
    fn swr_stores_and_calls_bump_epoch() {
        let t = TargetId::Swr.spec();
        let mut fr = SpecFrame::new(2, t.software_spec_state());
        let ep = fr.epoch();
        let seq = t.lower_store(&mut fr, MOperand::R(Reg(1)), 0, MOperand::I(3), Ty::I64);
        assert_eq!(seq.len(), 2);
        assert!(matches!(seq[1], MInst::Alu { d, op: BinOp::Add, .. } if d == ep));
        let seq = t.lower_call(&mut fr, Some(Reg(0)), 0, vec![MOperand::I(1)]);
        assert_eq!(seq.len(), 2);
        assert!(matches!(seq[1], MInst::Alu { d, op: BinOp::Add, .. } if d == ep));
    }

    #[test]
    fn spec_frame_reuses_shadows_and_scratch() {
        let mut fr = SpecFrame::new(10, true);
        let s1 = fr.shadow(Reg(3));
        let s2 = fr.shadow(Reg(3));
        assert_eq!(s1, s2);
        let b1 = fr.scratch();
        let b2 = fr.scratch();
        assert_eq!(b1, b2);
        let e1 = fr.epoch();
        let e2 = fr.epoch();
        assert_eq!(e1, e2);
        assert_eq!(fr.regs(), 10 + 2 + 5 + 1);
    }
}
