//! Instrumentation hooks for the interpreter.

use crate::interp::Regions;
use specframe_alias::Loc;
use specframe_ir::{BlockId, CallSiteId, FuncId, MemSiteId, Ty, Value};

/// One dynamic memory access, as seen by observers.
#[derive(Debug, Clone, Copy)]
pub struct MemAccess<'a> {
    /// The static reference site.
    pub site: MemSiteId,
    /// Executing function.
    pub func: FuncId,
    /// Absolute word address touched.
    pub addr: i64,
    /// Value loaded or stored.
    pub value: Value,
    /// Access type.
    pub ty: Ty,
    /// `true` for loads and check loads, `false` for stores.
    pub is_load: bool,
    /// Monotone counter distinguishing procedure invocations (the reuse
    /// simulator only pairs loads within one invocation, following §5.3).
    pub invocation: u64,
    /// The interpreter's named regions, for [`MemAccess::loc`].
    pub(crate) regions: &'a Regions,
}

impl MemAccess<'_> {
    /// The abstract location the address resolves to, when the address lies
    /// in a named region (globals, live slots, heap objects). An interval
    /// map lookup, done only when an observer asks.
    pub fn loc(&self) -> Option<Loc> {
        self.regions.lookup(self.addr).map(|r| r.loc)
    }
}

/// Execution events streamed by the interpreter.
///
/// All methods default to no-ops so observers implement only what they
/// need. The interpreter is generic over its observer, so an event an
/// observer ignores costs nothing unless it goes through the dynamic
/// [`Compose`].
pub trait Observer {
    /// A CFG edge `from -> to` was traversed in `func`.
    fn on_edge(&mut self, _func: FuncId, _from: BlockId, _to: BlockId) {}

    /// A function was entered (before its first block runs).
    fn on_entry(&mut self, _func: FuncId, _invocation: u64) {}

    /// A call site is about to transfer control.
    fn on_call(&mut self, _site: CallSiteId, _caller: FuncId, _callee: FuncId) {}

    /// The matching call site returned.
    fn on_return(&mut self, _site: CallSiteId) {}

    /// A load, store or check load executed.
    fn on_mem(&mut self, _access: &MemAccess<'_>) {}
}

/// An observer that records nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl Observer for NullObserver {}

/// Fans events out to several observers through dynamic calls, one per
/// observer per event.
///
/// Nothing in this workspace builds it: the training run is
/// [`crate::train`], which calls both profilers statically. It stays
/// because the benchmark's in-process replay of a `specc` unit
/// (`specbench/src/traced.rs`) builds one.
pub struct Compose<'a>(pub Vec<&'a mut dyn Observer>);

impl Observer for Compose<'_> {
    fn on_edge(&mut self, func: FuncId, from: BlockId, to: BlockId) {
        for o in &mut self.0 {
            o.on_edge(func, from, to);
        }
    }

    fn on_entry(&mut self, func: FuncId, invocation: u64) {
        for o in &mut self.0 {
            o.on_entry(func, invocation);
        }
    }

    fn on_call(&mut self, site: CallSiteId, caller: FuncId, callee: FuncId) {
        for o in &mut self.0 {
            o.on_call(site, caller, callee);
        }
    }

    fn on_return(&mut self, site: CallSiteId) {
        for o in &mut self.0 {
            o.on_return(site);
        }
    }

    fn on_mem(&mut self, access: &MemAccess<'_>) {
        for o in &mut self.0 {
            o.on_mem(access);
        }
    }
}
