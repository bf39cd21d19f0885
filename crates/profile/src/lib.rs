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
//! * [`train`] — the training run: the profiles a compile reads, from one
//!   interpreter pass.
//! * [`reuse`] — the simulation-based potential-load-reduction estimator
//!   used by Figure 12 (after Bodík et al.'s load-reuse analysis).

pub mod aliasprof;
mod decode;
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

use specframe_analysis::EdgeProfile;
use specframe_ir::{BlockId, CallSiteId, FuncId, Module, Value};

/// Which profiles a training run collects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Collect {
    /// The alias profile (§3.2.1).
    pub alias: bool,
    /// The edge profile, for control speculation.
    pub edges: bool,
}

impl Collect {
    /// Both profiles.
    pub const ALL: Collect = Collect {
        alias: true,
        edges: true,
    };
}

/// What a training run produces.
#[derive(Debug)]
pub struct Training {
    /// The entry's result.
    pub result: Option<Value>,
    /// The run's counters.
    pub stats: RunStats,
    /// The alias profile (§3.2.1), when collected.
    pub alias: Option<AliasProfile>,
    /// The edge profile, when collected.
    pub edges: Option<EdgeProfile>,
}

/// The training run of a profile-guided compile: runs `func_name` on
/// `args` once and collects the profiles `collect` names in the same pass,
/// with each profiler called statically. A profiler left out costs nothing
/// per event.
///
/// Observers only watch: the result and the counters equal what [`run`]
/// returns on the same module, arguments and fuel, whatever is collected.
///
/// # Errors
/// See [`InterpError`].
pub fn train(
    m: &Module,
    func_name: &str,
    args: &[Value],
    fuel: u64,
    collect: Collect,
) -> Result<Training, InterpError> {
    match (collect.alias, collect.edges) {
        (true, true) => observed(m, func_name, args, fuel, Profilers::default(), |p| {
            (Some(p.alias.finish()), Some(p.edges.finish()))
        }),
        (true, false) => observed(m, func_name, args, fuel, AliasProfiler::new(), |p| {
            (Some(p.finish()), None)
        }),
        (false, true) => observed(m, func_name, args, fuel, EdgeProfiler::new(), |p| {
            (None, Some(p.finish()))
        }),
        (false, false) => observed(m, func_name, args, fuel, NullObserver, |_| (None, None)),
    }
}

/// Runs `func_name` on `args` under `obs` and turns the observer into the
/// profiles.
fn observed<O: Observer>(
    m: &Module,
    func_name: &str,
    args: &[Value],
    fuel: u64,
    mut obs: O,
    finish: impl FnOnce(O) -> (Option<AliasProfile>, Option<EdgeProfile>),
) -> Result<Training, InterpError> {
    let (result, stats) = run_with(m, func_name, args, fuel, &mut obs)?;
    let (alias, edges) = finish(obs);
    Ok(Training {
        result,
        stats,
        alias,
        edges,
    })
}

/// The observer of a training run that collects both profiles: each event
/// goes to the profiler that counts it.
#[derive(Default)]
struct Profilers {
    alias: AliasProfiler,
    edges: EdgeProfiler,
}

impl Observer for Profilers {
    fn on_edge(&mut self, func: FuncId, from: BlockId, to: BlockId) {
        self.edges.on_edge(func, from, to);
    }

    fn on_entry(&mut self, func: FuncId, invocation: u64) {
        self.alias.on_entry(func, invocation);
        self.edges.on_entry(func, invocation);
    }

    fn on_call(&mut self, site: CallSiteId, caller: FuncId, callee: FuncId) {
        self.alias.on_call(site, caller, callee);
    }

    fn on_return(&mut self, site: CallSiteId) {
        self.alias.on_return(site);
    }

    fn on_mem(&mut self, access: &MemAccess<'_>) {
        self.alias.on_mem(access);
    }
}

/// The element at `i` of a table indexed by site, function or block
/// number, growing the table with defaults up to it.
fn grown<T: Default>(table: &mut Vec<T>, i: usize) -> &mut T {
    if i >= table.len() {
        table.resize_with(i + 1, T::default);
    }
    &mut table[i]
}
