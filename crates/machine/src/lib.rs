//! # specframe-machine
//!
//! The execution targets: the EPIC-like stand-in for the paper's 733 MHz
//! Itanium (HP i2000) and a software-checked target without an ALAT. It
//! provides
//!
//! * [`isa`] — a flat, label-resolved instruction set with the IA-64
//!   speculation primitives: `ld.a` (advanced load, allocates an ALAT
//!   entry), `ld.s`/`ld.sa` (control-speculative load, deferring faults to
//!   NaT), `ld.c` (ALAT check load) and NaT checks;
//! * [`alat`] — the **Advanced Load Address Table**: 32 entries, 2-way
//!   set-associative, indexed by register number, invalidated by
//!   overlapping stores — the hardware structure the paper's data
//!   speculation relies on;
//! * [`costs`] — the latency model, using the numbers the paper quotes: an
//!   integer load hits L1 in 2 cycles, a floating-point load hits L2 in 9
//!   cycles (Itanium FP loads bypass L1), a successful check costs 0;
//! * [`target`] — one row of data per `--target` (`epic`, `swr`): name,
//!   cost table, whether it has an ALAT, cache-key fingerprint and the
//!   price of a passing check (the lowering that reads the ALAT bit lives
//!   in `specframe-codegen`);
//! * [`policy`] — ALAT fault policies: the table's geometry and which
//!   entries the simulated hardware drops when, none of which may change a
//!   result;
//! * [`sim`] — a cycle-approximate simulator with `pfmon`-style counters
//!   (retired loads, check loads, failed checks, CPU cycles, data-access
//!   cycles);
//! * [`audit`] — the static speculation-safety auditor: every advanced
//!   load reaches a check on the same address and type;
//! * [`leaks`] — the static speculative-leak auditor, its fencing
//!   transform and the constructed-eviction witness.
//!
//! The simulator is *cycle-approximate*: it exposes every load's full
//! latency (single-issue, no overlap). Absolute numbers therefore differ
//! from real Itanium bundles, but the quantities the paper's figures
//! compare — dynamic loads removed, check ratio, mis-speculation ratio,
//! relative cycle reduction — are preserved, because all configurations
//! run under the same model.

pub mod alat;
pub mod audit;
pub mod costs;
mod decode;
pub mod isa;
pub mod leaks;
pub mod policy;
pub mod sim;
pub mod target;

pub use alat::Alat;
pub use audit::{audit_func, audit_program, check_pairs, AuditError, AuditStats};
pub use costs::CostModel;
pub use isa::{render_mfunc, render_mprogram, ChkKind, LdKind};
pub use isa::{Label, MFunc, MInst, MOperand, MProgram, Reg};
pub use leaks::{
    construct_leak_witness_on, fence_func, fence_program, leak_audit_func, leak_audit_program,
    leak_check_pairs, witness_leaks_on, LeakSite, LeakWitness,
};
pub use policy::{fault_matrix, parse_fault_policy, FaultPolicy};
pub use sim::{
    run_machine, run_machine_on, run_machine_taint_on, run_machine_with_policy_on, Counters,
    LeakEvent, SimError, Simulator, SinkClass, TaintReport,
};
pub use target::{Target, TargetId};
