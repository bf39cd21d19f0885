//! The latency model.
//!
//! The load latencies are the ones the paper quotes for Itanium: *"an
//! integer load has a minimal latency of 2 cycles (L1 Dcache hit on
//! Itanium), and a floating-point load has a minimal latency of 9 cycles
//! (L2 Dcache hit), and a successful check (ld.c or ldfd.c) cost 0
//! cycles"*. Everything else is a conventional in-order single-issue
//! approximation.

use specframe_ir::Ty;

/// Cycle costs for the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// ALU / move / compare.
    pub alu: u64,
    /// Integer or pointer load (L1 hit).
    pub int_load: u64,
    /// Floating-point load (L2 hit — FP loads bypass L1 on Itanium).
    pub fp_load: u64,
    /// Store.
    pub store: u64,
    /// Successful check (`ld.c` hit / NaT check pass).
    pub check_ok: u64,
    /// Extra penalty on a failed check, **on top of** the re-load latency
    /// (pipeline recovery).
    pub check_fail_penalty: u64,
    /// Branch (taken or not).
    pub branch: u64,
    /// Call/return overhead, added once per call.
    pub call_overhead: u64,
    /// Heap allocation service.
    pub alloc: u64,
    /// Speculation barrier (`MInst::Fence`): the stall waiting for every
    /// in-flight advanced load to resolve.
    pub fence: u64,
}

impl CostModel {
    /// The Itanium table: `epic`'s row, and the base of every other.
    pub const EPIC: CostModel = CostModel {
        alu: 1,
        int_load: 2,
        fp_load: 9,
        store: 1,
        check_ok: 0,
        check_fail_penalty: 8,
        branch: 1,
        call_overhead: 5,
        alloc: 20,
        fence: 3,
    };

    /// Latency of a load of type `ty`.
    #[inline]
    pub fn load(&self, ty: Ty) -> u64 {
        if ty.is_float() {
            self.fp_load
        } else {
            self.int_load
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_latencies() {
        let c = CostModel::EPIC;
        assert_eq!(c.load(Ty::I64), 2);
        assert_eq!(c.load(Ty::Ptr), 2);
        assert_eq!(c.load(Ty::F64), 9);
        assert_eq!(c.check_ok, 0);
    }
}
