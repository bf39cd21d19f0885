//! # specframe-profile
//!
//! The dynamic half of the paper's framework: a reference interpreter for
//! the IR plus the profiling observers that feed the speculative SSA
//! construction (Figure 3's "alias profile" and "edge/path profile" inputs)
//! and the load-reuse study of §5.3.
//!
//! * [`interp`] — the IR interpreter: word-addressed memory, call frames,
//!   heap, NaT semantics for control-speculative loads. It doubles as the
//!   semantic oracle in tests: optimized programs must compute exactly what
//!   the interpreter computes.
//! * [`observer`] — instrumentation hooks streamed during execution.
//! * [`aliasprof`] — the **alias profiler** (§3.2.1): per memory-reference
//!   site, the set of abstract memory locations (LOCs) it touched; per call
//!   site, the modified/referenced LOC sets.
//! * [`edgeprof`] — edge profiling for control speculation.
//! * [`reuse`] — the simulation-based potential-load-reduction estimator
//!   used by Figure 12 (after Bodík et al.'s load-reuse analysis).

pub mod aliasprof;
pub mod edgeprof;
pub mod interp;
pub mod observer;
pub mod reuse;
pub mod serialize;

pub use aliasprof::{AliasProfile, AliasProfiler};
pub use edgeprof::EdgeProfiler;
pub use interp::{run, run_with, InterpError, Interpreter, RunStats};
pub use observer::{MemAccess, NullObserver, Observer};
pub use reuse::{ReuseReport, ReuseSimulator};
pub use serialize::{parse_alias_profile, write_alias_profile, ProfileParseError, PROFILE_HEADER};

/// The element at `i` of a table indexed by site, function or block
/// number, growing the table with defaults up to it.
fn grown<T: Default>(table: &mut Vec<T>, i: usize) -> &mut T {
    if i >= table.len() {
        table.resize_with(i + 1, T::default);
    }
    &mut table[i]
}
