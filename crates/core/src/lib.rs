//! # specframe-core
//!
//! **Speculative SSAPRE** — the paper's §4: the six-step SSAPRE framework
//! (Kennedy et al., TOPLAS '99) extended with
//!
//! * **data speculation**: speculative weak updates (unflagged χ operators
//!   in the speculative SSA form) are ignored during Φ-Insertion and
//!   Rename, exposing *speculative redundancy*; CodeMotion then emits
//!   advanced loads (`ld.a`) and check loads (`ld.c`) so the hardware ALAT
//!   re-validates every speculated value (Appendices A and B);
//! * **control speculation**: computations may be inserted at non-down-safe
//!   merge points when the edge profile says the speculated path is hot
//!   (Lo et al., PLDI '98) — inserted loads become `ld.s` and their reloads
//!   NaT-check loads.
//!
//! Clients implemented on top of the engine:
//!
//! * expression PRE ([`ssapre`] over arithmetic candidates);
//! * **speculative register promotion** ([`ssapre`] over direct and
//!   indirect load candidates — the optimization evaluated in §5);
//! * strength reduction and linear-function test replacement
//!   ([`strength`]).
//!
//! The pipeline's one entry point is [`driver::try_optimize_cached`], which
//! runs the whole pipeline (critical-edge split → speculative SSA → SSAPRE
//! worklist → strength reduction → out-of-SSA) over a module, optionally
//! through the compile cache, and reports [`stats::OptStats`] with the
//! per-pass timings; [`driver::optimize`] is its panicking shorthand
//! without hooks or a cache. The data-speculation source of
//! [`OptOptions`] is the speculative SSA form's own [`SpecSource`],
//! re-exported here.

pub mod cache;
pub mod cancel;
pub mod crashpoint;
pub mod driver;
pub mod error;
pub mod expr;
pub mod lftr;
pub mod passes;
pub mod prekernel;
pub mod reduce;
pub mod ssapre;
pub mod stats;
pub mod storeprom;
pub mod strength;
#[cfg(test)]
mod testutil;

pub use cache::{
    parse_store_fault_policy, CacheHealth, CacheKey, CacheOutcome, CacheStats, FaultStore,
    FuncCache, KeyContext, Storage, StoreFaultPolicy,
};
pub use cancel::{CancelToken, Watchdog};
pub use driver::{
    optimize, prepare_module, target_spec_costs, try_optimize_cached, ControlSpec, OptOptions,
    OptReport, PipelineConfig, SpecSource,
};
pub use error::{CompileDiag, CompileError};
pub use expr::ExprKey;
pub use lftr::lftr_hssa;
pub use passes::{render_dumps, Pass, PassDump, PassSet, PipelineHooks};
pub use prekernel::{apply_edits, reducible_loops, LoopShape, MotionEdit, SpecClient};
pub use reduce::{reduce_module, ReduceStats};
pub use ssapre::{ssapre_function, SpecPolicy};
pub use stats::{peak_rss_kb, OptStats, PassTimings};
pub use storeprom::sink_stores_hssa;
pub use strength::SrTemp;
