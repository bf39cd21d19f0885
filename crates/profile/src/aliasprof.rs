//! The alias profiler (§3.2.1 of the paper).
//!
//! For every static memory-reference site, the profiler records the set of
//! abstract memory locations (LOCs) the site actually touched during the
//! run; for every call site it records the modified and referenced LOC
//! sets. `specframe-hssa` later compares these dynamic sets against the
//! compile-time χ/μ lists to place speculation flags: a may-alias that
//! *never happened* in the profile becomes a speculative weak update that
//! optimizations may ignore.
//!
//! The paper contrasts this scheme with Wu–Lee invalidation profiling,
//! which monitors every reference pair-wise and "could slow down the
//! program execution by an order of magnitude"; recording per-site LOC sets
//! is the cheaper alternative the authors advocate.

use crate::grown;
use crate::interp::Region;
use crate::observer::{MemAccess, Observer};
use specframe_alias::{Loc, LocSet};
use specframe_ir::{CallSiteId, FuncId, MemSiteId};
use std::collections::HashMap;

/// The collected alias profile.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct AliasProfile {
    /// Per memory site: LOCs it touched.
    pub mem: HashMap<MemSiteId, LocSet>,
    /// Per memory site: how many times it executed.
    pub mem_count: HashMap<MemSiteId, u64>,
    /// Per call site: LOCs modified during the call (transitively).
    pub call_mod: HashMap<CallSiteId, LocSet>,
    /// Per call site: LOCs referenced during the call (transitively).
    pub call_ref: HashMap<CallSiteId, LocSet>,
}

impl AliasProfile {
    /// The profiled LOC set of a memory site (empty if never executed).
    pub fn locs(&self, site: MemSiteId) -> Option<&LocSet> {
        self.mem.get(&site)
    }

    /// Whether `site` ever touched `loc` in the profile.
    pub fn touched(&self, site: MemSiteId, loc: Loc) -> bool {
        self.mem.get(&site).is_some_and(|s| s.contains(&loc))
    }

    /// Whether the profile saw `site` execute at all. Sites that never
    /// executed carry no evidence — the speculative SSA construction treats
    /// their aliases conservatively.
    pub fn site_executed(&self, site: MemSiteId) -> bool {
        self.mem_count.get(&site).copied().unwrap_or(0) > 0
    }

    /// Merges another profile (e.g. from a second training input) into
    /// this one.
    pub fn merge(&mut self, other: &AliasProfile) {
        for (s, locs) in &other.mem {
            self.mem.entry(*s).or_default().extend(locs.iter().copied());
        }
        for (s, n) in &other.mem_count {
            *self.mem_count.entry(*s).or_insert(0) += n;
        }
        for (s, locs) in &other.call_mod {
            self.call_mod
                .entry(*s)
                .or_default()
                .extend(locs.iter().copied());
        }
        for (s, locs) in &other.call_ref {
            self.call_ref
                .entry(*s)
                .or_default()
                .extend(locs.iter().copied());
        }
    }
}

/// Observer that builds an [`AliasProfile`].
///
/// Counts and LOC sets live in vectors indexed by site number and are
/// folded into the profile's maps by [`AliasProfiler::finish`]. A site, or
/// an enclosing call, that touches the LOC it touched last skips the set
/// insert, so a loop walking one object pays a comparison per access.
///
/// Each site also keeps the region its last address resolved to, and
/// resolves a new address without the interpreter's interval map while
/// it stays inside that region. The cached region is dropped when the
/// address leaves it, when any frame has popped its slot regions since
/// the lookup (the only way a live region goes away), and when a new run
/// starts.
#[derive(Debug, Default)]
pub struct AliasProfiler {
    /// Per memory site (by index).
    mem: Vec<SiteLocs>,
    /// Per call site (by index): `None` until the site first executes.
    calls: Vec<Option<CallLocs>>,
    /// Call sites currently on the dynamic call stack, innermost last;
    /// every access inside the callee is charged to each enclosing site's
    /// mod/ref set.
    active_calls: Vec<ActiveCall>,
    /// Calls entered so far.
    activations: u64,
}

/// What one memory site has seen.
#[derive(Debug, Default)]
struct SiteLocs {
    count: u64,
    locs: LocSet,
    /// The LOC inserted into `locs` last.
    last: Option<Loc>,
    /// The region the site's last resolved address lay in, with the
    /// interpreter's count of slot pops when it was looked up.
    region: Option<(Region, u64)>,
    /// The innermost call activation, and the LOC, of the site's last
    /// access: every call around that activation has been charged the
    /// LOC, so the same LOC there again charges nothing new.
    charged: Option<(u64, Loc)>,
}

/// The mod and ref sets of one call site.
#[derive(Debug, Default)]
struct CallLocs {
    mods: LocSet,
    refs: LocSet,
}

/// One call on the dynamic call stack, with the LOC it charged last to
/// its site's mod and ref set.
#[derive(Debug)]
struct ActiveCall {
    site: CallSiteId,
    /// Numbers the activations of a run, from 1.
    id: u64,
    last_mod: Option<Loc>,
    last_ref: Option<Loc>,
}

impl AliasProfiler {
    /// A fresh profiler.
    pub fn new() -> AliasProfiler {
        AliasProfiler::default()
    }

    /// Consumes the profiler and yields the profile.
    pub fn finish(self) -> AliasProfile {
        let mut p = AliasProfile::default();
        for (i, s) in self.mem.into_iter().enumerate() {
            if s.count > 0 {
                let site = MemSiteId::from_index(i);
                p.mem_count.insert(site, s.count);
                p.mem.insert(site, s.locs);
            }
        }
        for (i, c) in self.calls.into_iter().enumerate() {
            if let Some(c) = c {
                let site = CallSiteId::from_index(i);
                p.call_mod.insert(site, c.mods);
                p.call_ref.insert(site, c.refs);
            }
        }
        p
    }
}

impl Observer for AliasProfiler {
    fn on_mem(&mut self, a: &MemAccess<'_>) {
        let site = grown(&mut self.mem, a.site.index());
        site.count += 1;
        let pops = a.regions.pops;
        let loc = match site.region {
            Some((r, at)) if at == pops && r.start <= a.addr && a.addr < r.end => r.loc,
            _ => {
                let Some(r) = a.regions.lookup(a.addr) else {
                    return;
                };
                site.region = Some((r, pops));
                r.loc
            }
        };
        if site.last != Some(loc) {
            site.last = Some(loc);
            site.locs.insert(loc);
        }
        let Some(innermost) = self.active_calls.last() else {
            return;
        };
        if site.charged == Some((innermost.id, loc)) {
            return;
        }
        site.charged = Some((innermost.id, loc));
        // innermost call first: a call that charged this LOC last was
        // entered inside every call around it, which charged it last too
        for call in self.active_calls.iter_mut().rev() {
            let last = if a.is_load {
                &mut call.last_ref
            } else {
                &mut call.last_mod
            };
            if *last == Some(loc) {
                break;
            }
            *last = Some(loc);
            let sets = self.calls[call.site.index()]
                .as_mut()
                .expect("an active call has executed");
            if a.is_load {
                sets.refs.insert(loc);
            } else {
                sets.mods.insert(loc);
            }
        }
    }

    fn on_entry(&mut self, _func: FuncId, invocation: u64) {
        // a new interpreter's first call: the regions cached from an
        // earlier run are not this run's
        if invocation == 1 {
            for site in &mut self.mem {
                site.region = None;
            }
        }
    }

    fn on_call(&mut self, site: CallSiteId, _caller: FuncId, _callee: FuncId) {
        grown(&mut self.calls, site.index()).get_or_insert_with(CallLocs::default);
        self.activations += 1;
        self.active_calls.push(ActiveCall {
            site,
            id: self.activations,
            last_mod: None,
            last_ref: None,
        });
    }

    fn on_return(&mut self, site: CallSiteId) {
        let popped = self.active_calls.pop();
        debug_assert_eq!(popped.map(|c| c.site), Some(site));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_with;
    use specframe_ir::{parse_module, Value};

    #[test]
    fn records_loc_sets_per_site() {
        let src = r#"
global a: i64[1]
global b: i64[1]

func f(sel: i64) -> i64 {
  var p: ptr
  var v: i64
entry:
  br sel, yes, no
yes:
  p = @a
  jmp go
no:
  p = @b
  jmp go
go:
  v = load.i64 [p]
  ret v
}
"#;
        let m = parse_module(src).unwrap();
        let mut prof = AliasProfiler::new();
        run_with(&m, "f", &[Value::I(1)], 1000, &mut prof).unwrap();
        run_with(&m, "f", &[Value::I(0)], 1000, &mut prof).unwrap();
        let p = prof.finish();
        // the single load site saw both globals
        let site = p.mem.keys().next().copied().unwrap();
        assert_eq!(p.locs(site).unwrap().len(), 2);
        assert_eq!(p.mem_count[&site], 2);
    }

    #[test]
    fn profile_reflects_input_sensitivity() {
        let src = r#"
global a: i64[1]
global b: i64[1]

func f(sel: i64) -> i64 {
  var p: ptr
  var v: i64
entry:
  br sel, yes, no
yes:
  p = @a
  jmp go
no:
  p = @b
  jmp go
go:
  v = load.i64 [p]
  ret v
}
"#;
        let m = parse_module(src).unwrap();
        let mut prof = AliasProfiler::new();
        run_with(&m, "f", &[Value::I(1)], 1000, &mut prof).unwrap();
        let p = prof.finish();
        let site = p.mem.keys().next().copied().unwrap();
        // only @a observed — this is exactly the imperfect information the
        // paper says requires data-speculation support
        assert_eq!(p.locs(site).unwrap().len(), 1);
    }

    #[test]
    fn call_sites_accumulate_mod_ref() {
        let src = r#"
global g: i64[1]

func set() {
entry:
  store.i64 [@g], 1
  ret
}

func get() -> i64 {
  var v: i64
entry:
  v = load.i64 [@g]
  ret v
}

func main() -> i64 {
  var v: i64
entry:
  call set()
  v = call get()
  ret v
}
"#;
        let m = parse_module(src).unwrap();
        let mut prof = AliasProfiler::new();
        run_with(&m, "main", &[], 1000, &mut prof).unwrap();
        let p = prof.finish();
        // two call sites: set (mods g) and get (refs g)
        let mods: Vec<_> = p.call_mod.values().filter(|s| !s.is_empty()).collect();
        let refs: Vec<_> = p.call_ref.values().filter(|s| !s.is_empty()).collect();
        assert_eq!(mods.len(), 1);
        assert_eq!(refs.len(), 1);
    }

    #[test]
    fn nested_calls_charge_every_enclosing_site() {
        let src = r#"
global g: i64[1]
global h: i64[1]

func inner() {
entry:
  store.i64 [@h], 1
  store.i64 [@g], 2
  store.i64 [@g], 3
  ret
}

func outer() -> i64 {
  var v: i64
entry:
  store.i64 [@g], 1
  call inner()
  call inner()
  v = load.i64 [@h]
  ret v
}

func main() -> i64 {
  var v: i64
entry:
  v = call outer()
  ret v
}
"#;
        let m = parse_module(src).unwrap();
        let mut prof = AliasProfiler::new();
        run_with(&m, "main", &[], 1000, &mut prof).unwrap();
        let p = prof.finish();
        let names = |s: &LocSet| s.iter().map(Loc::to_string).collect::<Vec<_>>().join(" ");
        // call sites number in text order: outer's two calls of inner, then
        // main's call of outer, which is charged everything inner touches
        for cs in 0..3 {
            assert_eq!(names(&p.call_mod[&CallSiteId(cs)]), "G0 G1", "site {cs}");
        }
        assert_eq!(names(&p.call_ref[&CallSiteId(0)]), "");
        assert_eq!(names(&p.call_ref[&CallSiteId(2)]), "G1");
    }

    #[test]
    fn every_activation_charges_its_call_site() {
        // the loop's store repeats one site and one LOC: each of the two
        // calls must still be charged it, though the site saw it last in
        // the call before
        let src = r#"
global g: i64[1]

func leaf(n: i64) {
  var i: i64
  var c: i64
entry:
  i = 0
  jmp head
head:
  c = lt i, n
  br c, body, exit
body:
  store.i64 [@g], i
  i = add i, 1
  jmp head
exit:
  ret
}

func main() -> i64 {
  var v: i64
entry:
  call leaf(3)
  call leaf(3)
  v = load.i64 [@g]
  ret v
}
"#;
        let m = parse_module(src).unwrap();
        let mut prof = AliasProfiler::new();
        run_with(&m, "main", &[], 1000, &mut prof).unwrap();
        let p = prof.finish();
        let names = |s: &LocSet| s.iter().map(Loc::to_string).collect::<Vec<_>>().join(" ");
        for cs in 0..2 {
            assert_eq!(names(&p.call_mod[&CallSiteId(cs)]), "G0", "site {cs}");
        }
    }

    #[test]
    fn popped_slot_regions_are_looked_up_again() {
        // `a` and `b` each pass their slot to `get`; `b`'s frame reuses the
        // stack words of `a`'s popped one, so the load in `get` reads the
        // same address twice, as two different LOCs
        let src = r#"
func get(p: ptr) -> i64 {
  var v: i64
entry:
  v = load.i64 [p]
  ret v
}

func a() -> i64 {
  var v: i64
  slot x: i64[1]
entry:
  store.i64 [&x], 1
  v = call get(&x)
  ret v
}

func b() -> i64 {
  var v: i64
  slot y: i64[1]
entry:
  store.i64 [&y], 2
  v = call get(&y)
  ret v
}

func main() -> i64 {
  var s: i64
  var t: i64
entry:
  s = call a()
  t = call b()
  s = add s, t
  ret s
}
"#;
        let m = parse_module(src).unwrap();
        let mut prof = AliasProfiler::new();
        run_with(&m, "main", &[], 1000, &mut prof).unwrap();
        let p = prof.finish();
        let get_load = MemSiteId(0);
        assert_eq!(p.locs(get_load).map(LocSet::len), Some(2));
    }

    #[test]
    fn a_second_run_looks_its_regions_up_afresh() {
        // both runs allocate their one object at the same address, from
        // different sites; the load must see each run's own object
        let src = r#"
func f(sel: i64) -> i64 {
  var p: ptr
  var v: i64
entry:
  br sel, one, two
one:
  p = alloc 1
  jmp go
two:
  p = alloc 1
  jmp go
go:
  v = load.i64 [p]
  ret v
}
"#;
        let m = parse_module(src).unwrap();
        let mut prof = AliasProfiler::new();
        run_with(&m, "f", &[Value::I(1)], 1000, &mut prof).unwrap();
        run_with(&m, "f", &[Value::I(0)], 1000, &mut prof).unwrap();
        let p = prof.finish();
        let load = MemSiteId(0);
        assert_eq!(p.locs(load).map(LocSet::len), Some(2));
    }

    #[test]
    fn merge_unions_loc_sets() {
        let src = r#"
global a: i64[1]
global b: i64[1]

func f(sel: i64) -> i64 {
  var p: ptr
  var v: i64
entry:
  br sel, yes, no
yes:
  p = @a
  jmp go
no:
  p = @b
  jmp go
go:
  v = load.i64 [p]
  ret v
}
"#;
        let m = parse_module(src).unwrap();
        let mut p1 = AliasProfiler::new();
        run_with(&m, "f", &[Value::I(1)], 1000, &mut p1).unwrap();
        let mut p2 = AliasProfiler::new();
        run_with(&m, "f", &[Value::I(0)], 1000, &mut p2).unwrap();
        let mut a = p1.finish();
        a.merge(&p2.finish());
        let site = a.mem.keys().next().copied().unwrap();
        assert_eq!(a.locs(site).unwrap().len(), 2);
        assert_eq!(a.mem_count[&site], 2);
    }
}
