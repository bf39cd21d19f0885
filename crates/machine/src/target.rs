//! Speculation targets: the rows behind `--target`.
//!
//! The paper's framework treats data/control speculation as a policy the
//! compiler chooses per site; the *mechanism* that makes a mis-speculation
//! recoverable is a property of the target. Here that property is one bit,
//! [`Target::has_alat`], in one row of data per target:
//!
//! * **`epic`** — the IA-64 shape the rest of the crate documents: `ld.a`
//!   allocates an ALAT entry, `ld.c` consults it, a hit costs 0 cycles.
//! * **`swr`** — a RISC-like target with **no ALAT**. Advanced loads are
//!   checked in software: the code generator records the loaded address
//!   and a store/call *epoch* in shadow registers, and the check
//!   re-derives the address, compares both, and branches to an inline
//!   recovery reload on mismatch ([`crate::MInst::ChkCmp`] +
//!   [`crate::MInst::Br`] + a [`crate::LdKind::Recovery`] load). The
//!   check is no longer free — 4 ALU ops and a branch — which flips the
//!   profitability question the driver's oracle asks per load type.
//!
//! The lowering that reads `has_alat` lives in `specframe-codegen`; the
//! simulator, the leak witness, the compile-cache key and the oracle read
//! the other fields. Every consumer must uphold the same contracts on both
//! rows: fault policies never change results, `failed_checks ≤
//! check_loads`, check shapes close taint windows, audits pass.

use crate::costs::CostModel;

/// A speculation target: what the framework needs to know about a machine
/// to speculate on it. See `DESIGN.md` ("Speculation targets & the
/// cost-model contract") for what a third row must provide.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Target {
    /// Short stable name (`epic`, `swr`) — the `--target` spelling.
    pub name: &'static str,
    /// The target's cycle-cost table.
    pub costs: CostModel,
    /// Whether the target has hardware ALAT state. Without one, `ld.c`
    /// has no hardware to consult and checks are lowered in software.
    pub has_alat: bool,
    /// Stable fingerprint folded into the compile-cache key. Must change
    /// whenever the target's lowering or cost table changes shape.
    pub fingerprint: u64,
    /// Cycles a *successful* check costs on this target (the price of
    /// speculating that the oracle weighs against the saved latency).
    pub check_overhead: u64,
}

/// The EPIC/IA-64 target: hardware ALAT, zero-cost successful checks.
static EPIC: Target = Target {
    name: "epic",
    costs: CostModel::EPIC,
    has_alat: true,
    // "EPIC" | lowering revision
    fingerprint: 0x4550_4943_0000_0001,
    check_overhead: CostModel::EPIC.check_ok,
};

/// `swr`'s cost table: epic's, except that a software check recovers by
/// branching and reloading — there is no hardware pipeline flush to price
/// in, so the penalty is smaller.
const SWR_COSTS: CostModel = CostModel {
    check_fail_penalty: 4,
    ..CostModel::EPIC
};

/// The software-checked RISC-like target: no ALAT.
static SWR: Target = Target {
    name: "swr",
    costs: SWR_COSTS,
    has_alat: false,
    // "SWR" | lowering revision
    fingerprint: 0x5357_5200_0000_0001,
    // t0 = addr; t1 = addr cmp; t2 = epoch cmp; t3 = and; chk.cmp; branch.
    check_overhead: 4 * SWR_COSTS.alu + SWR_COSTS.check_ok + SWR_COSTS.branch,
};

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

    /// The target's row.
    pub fn spec(self) -> &'static Target {
        match self {
            TargetId::Epic => &EPIC,
            TargetId::Swr => &SWR,
        }
    }

    /// The `--target` spelling.
    pub fn name(self) -> &'static str {
        self.spec().name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specframe_ir::Ty;

    #[test]
    fn target_names_are_distinct() {
        assert_eq!(TargetId::Epic.name(), "epic");
        assert_eq!(TargetId::Swr.name(), "swr");
        assert_eq!(TargetId::default(), TargetId::Epic);
    }

    #[test]
    fn fingerprints_are_distinct_and_stable() {
        assert_ne!(
            TargetId::Epic.spec().fingerprint,
            TargetId::Swr.spec().fingerprint
        );
        // Pinned: cache keys depend on these.
        assert_eq!(TargetId::Epic.spec().fingerprint, 0x4550_4943_0000_0001);
        assert_eq!(TargetId::Swr.spec().fingerprint, 0x5357_5200_0000_0001);
    }

    #[test]
    fn profitability_flips_per_target() {
        // On epic a successful check is free, so both load types are
        // worth speculating; on swr the check costs more than an integer
        // load saves, but less than a floating-point load.
        let epic = TargetId::Epic.spec();
        let swr = TargetId::Swr.spec();
        assert_eq!(epic.check_overhead, 0);
        assert_eq!(swr.check_overhead, 5);
        assert!(epic.costs.load(Ty::I64) > epic.check_overhead);
        assert!(epic.costs.load(Ty::F64) > epic.check_overhead);
        assert!(swr.costs.load(Ty::I64) <= swr.check_overhead);
        assert!(swr.costs.load(Ty::F64) > swr.check_overhead);
        assert_eq!(swr.costs.check_fail_penalty, 4);
    }
}
