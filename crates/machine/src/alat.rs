//! The Advanced Load Address Table.
//!
//! Itanium's ALAT tracks advanced loads so later check loads can tell
//! whether an intervening store touched the loaded address. The default
//! model is the documented structure: **32 entries, 2-way set-associative,
//! indexed by the target register number**. Each entry records the
//! register, the word address and the access width (one word here — the IR
//! is word-oriented).
//!
//! The architecture, however, permits *any* implementation to drop entries
//! at any time (smaller tables, context switches, capacity pressure), and
//! generated code must stay correct under every such behavior. The table is
//! therefore **parameterized by geometry** — any entry/way count down to a
//! 0-entry always-miss table — and exposes the two fault-injection
//! operations adversarial policies need: [`Alat::kill_one`] (drop one
//! arbitrary live entry) and [`Alat::flash_clear`] (drop everything, the
//! context-switch model). See [`crate::policy`] for the policies that
//! drive them.
//!
//! Semantics:
//! * `insert(reg, addr)` — executed by `ld.a`/`ld.sa`; evicts the other way
//!   of the set if all are occupied (LRU within the set);
//! * `invalidate(addr)` — executed by every store; removes all entries
//!   whose address matches (any register);
//! * `check(reg, addr)` — executed by `ld.c`: hit iff an entry for this
//!   register with this address is present; on miss the simulator re-loads
//!   and re-inserts.

use crate::isa::Reg;

/// Number of entries of the default geometry.
pub const ALAT_ENTRIES: usize = 32;
/// Associativity of the default geometry.
pub const ALAT_WAYS: usize = 2;
/// Number of sets of the default geometry.
pub const ALAT_SETS: usize = ALAT_ENTRIES / ALAT_WAYS;

#[derive(Clone, Copy, Debug, PartialEq)]
struct Entry {
    reg: Reg,
    addr: i64,
    lru: u64,
}

/// The ALAT model.
#[derive(Debug, Clone)]
pub struct Alat {
    /// `nsets × ways` slots, set after set; empty for a 0-entry table.
    slots: Vec<Option<Entry>>,
    ways: usize,
    /// Live entries: the `Some` slots. A store with none live walks no
    /// slot.
    live: usize,
    tick: u64,
    /// Entries inserted over the run.
    pub inserts: u64,
    /// Entries invalidated by stores.
    pub store_invalidations: u64,
    /// Entries lost to capacity/conflict eviction.
    pub evictions: u64,
    /// Entries dropped by fault injection ([`Alat::kill_one`] and
    /// [`Alat::flash_clear`]).
    pub fault_kills: u64,
    /// [`Alat::flash_clear`] invocations.
    pub flash_clears: u64,
}

impl Default for Alat {
    fn default() -> Self {
        Alat::new()
    }
}

impl Alat {
    /// An empty ALAT with the default IA-64 geometry (32 entries, 2-way).
    pub fn new() -> Alat {
        Alat::with_geometry(ALAT_ENTRIES, ALAT_WAYS)
    }

    /// An empty ALAT with `entries` total slots organised `ways`-way
    /// set-associatively. `entries == 0` builds the always-miss table every
    /// IA-64 implementation is allowed to be. When `entries < ways` the
    /// table degrades to a single `entries`-way set.
    pub fn with_geometry(entries: usize, ways: usize) -> Alat {
        let (nsets, ways) = if entries == 0 || ways == 0 {
            (0, ways.max(1))
        } else if entries <= ways {
            (1, entries)
        } else {
            (entries / ways, ways)
        };
        Alat {
            slots: vec![None; nsets * ways],
            ways,
            live: 0,
            tick: 0,
            inserts: 0,
            store_invalidations: 0,
            evictions: 0,
            fault_kills: 0,
            flash_clears: 0,
        }
    }

    /// Total slot count of this geometry (0 for the always-miss table).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The slots of the set `reg` indexes.
    #[inline]
    fn set_of(&mut self, reg: Reg) -> &mut [Option<Entry>] {
        let nsets = self.slots.len() / self.ways;
        let first = (reg.0 as usize) % nsets * self.ways;
        &mut self.slots[first..first + self.ways]
    }

    /// Allocates (or refreshes) the entry for `reg` covering `addr`.
    pub fn insert(&mut self, reg: Reg, addr: i64) {
        self.tick += 1;
        self.inserts += 1;
        if self.slots.is_empty() {
            // 0-entry table: the insert retires but nothing is tracked
            return;
        }
        let tick = self.tick;
        let entry = Entry {
            reg,
            addr,
            lru: tick,
        };
        let set = self.set_of(reg);
        // same register: overwrite in place
        if let Some(e) = set.iter_mut().flatten().find(|e| e.reg == reg) {
            *e = entry;
            return;
        }
        // free way?
        if let Some(slot) = set.iter_mut().find(|s| s.is_none()) {
            *slot = Some(entry);
            self.live += 1;
            return;
        }
        // evict LRU way
        let victim = set
            .iter_mut()
            .min_by_key(|s| s.as_ref().map(|e| e.lru).unwrap_or(0))
            .expect("nonempty set");
        *victim = Some(entry);
        self.evictions += 1;
    }

    /// A store to `addr` invalidates every matching entry.
    pub fn invalidate(&mut self, addr: i64) {
        if self.live == 0 {
            return;
        }
        for slot in &mut self.slots {
            if slot.is_some_and(|e| e.addr == addr) {
                *slot = None;
                self.live -= 1;
                self.store_invalidations += 1;
            }
        }
    }

    /// `ld.c` lookup: does `reg` still cover `addr`?
    pub fn check(&mut self, reg: Reg, addr: i64) -> bool {
        self.tick += 1;
        if self.slots.is_empty() {
            return false;
        }
        let tick = self.tick;
        match self
            .set_of(reg)
            .iter_mut()
            .flatten()
            .find(|e| e.reg == reg && e.addr == addr)
        {
            Some(e) => {
                e.lru = tick;
                true
            }
            None => false,
        }
    }

    /// Fault injection: drops the `lottery % occupancy`-th live entry (in
    /// set/way order). No-op on an empty table. The architecture permits
    /// this at any time, so correct code may never rely on an entry
    /// surviving.
    pub fn kill_one(&mut self, lottery: u64) {
        if self.live == 0 {
            return;
        }
        let target = (lottery % self.live as u64) as usize;
        let slot = self
            .slots
            .iter_mut()
            .filter(|s| s.is_some())
            .nth(target)
            .expect("the live count counts the live slots");
        *slot = None;
        self.live -= 1;
        self.fault_kills += 1;
    }

    /// Fault injection: drops every entry (the context-switch model —
    /// a real OS invalidates the whole ALAT when it switches address
    /// spaces).
    pub fn flash_clear(&mut self) {
        self.flash_clears += 1;
        self.fault_kills += self.live as u64;
        self.clear();
    }

    /// Drops everything without counting it as an injected fault (tests).
    pub fn clear(&mut self) {
        if self.live > 0 {
            self.slots.fill(None);
            self.live = 0;
        }
    }

    /// Number of live entries.
    pub fn occupancy(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_then_check_hits() {
        let mut a = Alat::new();
        a.insert(Reg(3), 100);
        assert!(a.check(Reg(3), 100));
        assert!(!a.check(Reg(3), 101), "different address misses");
        assert!(!a.check(Reg(4), 100), "different register misses");
    }

    #[test]
    fn store_invalidates_matching_address() {
        let mut a = Alat::new();
        a.insert(Reg(1), 50);
        a.insert(Reg(2), 60);
        a.invalidate(50);
        assert!(!a.check(Reg(1), 50));
        assert!(a.check(Reg(2), 60));
        assert_eq!(a.store_invalidations, 1);
    }

    #[test]
    fn non_aliasing_store_leaves_entry() {
        let mut a = Alat::new();
        a.insert(Reg(1), 50);
        a.invalidate(51);
        assert!(a.check(Reg(1), 50));
    }

    #[test]
    fn set_conflict_evicts_lru() {
        let mut a = Alat::new();
        // three registers in the same set (stride = ALAT_SETS)
        let r1 = Reg(1);
        let r2 = Reg(1 + ALAT_SETS as u32);
        let r3 = Reg(1 + 2 * ALAT_SETS as u32);
        a.insert(r1, 10);
        a.insert(r2, 20);
        a.insert(r3, 30); // evicts r1 (LRU)
        assert_eq!(a.evictions, 1);
        assert!(!a.check(r1, 10));
        assert!(a.check(r2, 20));
        assert!(a.check(r3, 30));
    }

    #[test]
    fn reinsert_same_register_updates_address() {
        let mut a = Alat::new();
        a.insert(Reg(7), 10);
        a.insert(Reg(7), 20);
        assert!(!a.check(Reg(7), 10));
        assert!(a.check(Reg(7), 20));
        assert_eq!(a.occupancy(), 1);
    }

    #[test]
    fn check_refreshes_lru() {
        let mut a = Alat::new();
        let r1 = Reg(2);
        let r2 = Reg(2 + ALAT_SETS as u32);
        let r3 = Reg(2 + 2 * ALAT_SETS as u32);
        a.insert(r1, 10);
        a.insert(r2, 20);
        a.check(r1, 10); // refresh r1; r2 becomes LRU
        a.insert(r3, 30);
        assert!(a.check(r1, 10), "r1 refreshed, must survive");
        assert!(!a.check(r2, 20), "r2 was LRU, evicted");
    }

    #[test]
    fn zero_entry_table_always_misses() {
        let mut a = Alat::with_geometry(0, 2);
        assert_eq!(a.capacity(), 0);
        a.insert(Reg(1), 10);
        assert_eq!(a.inserts, 1);
        assert_eq!(a.occupancy(), 0);
        assert!(!a.check(Reg(1), 10));
        a.invalidate(10); // no-op, no panic
        a.kill_one(7);
        a.flash_clear();
        assert_eq!(a.fault_kills, 0);
    }

    #[test]
    fn tiny_geometries_bound_occupancy() {
        for (entries, ways) in [(1, 1), (2, 2), (4, 2), (3, 4), (8, 1)] {
            let mut a = Alat::with_geometry(entries, ways);
            for r in 0..64u32 {
                a.insert(Reg(r), i64::from(r));
                assert!(
                    a.occupancy() <= a.capacity(),
                    "({entries},{ways}): occupancy {} > capacity {}",
                    a.occupancy(),
                    a.capacity()
                );
            }
            assert!(a.capacity() <= entries.max(1));
        }
    }

    #[test]
    fn kill_one_drops_exactly_one_live_entry() {
        let mut a = Alat::new();
        a.insert(Reg(1), 10);
        a.insert(Reg(2), 20);
        a.insert(Reg(3), 30);
        a.kill_one(1);
        assert_eq!(a.occupancy(), 2);
        assert_eq!(a.fault_kills, 1);
        // killed entries must miss; survivors must still hit
        let hits = [(Reg(1), 10), (Reg(2), 20), (Reg(3), 30)]
            .into_iter()
            .filter(|&(r, ad)| a.check(r, ad))
            .count();
        assert_eq!(hits, 2);
    }

    #[test]
    fn flash_clear_counts_kills() {
        let mut a = Alat::new();
        a.insert(Reg(1), 10);
        a.insert(Reg(2), 20);
        a.flash_clear();
        assert_eq!(a.occupancy(), 0);
        assert_eq!(a.fault_kills, 2);
        assert_eq!(a.flash_clears, 1);
        assert!(!a.check(Reg(1), 10));
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        /// The geometries the property runs on: the always-miss table,
        /// single sets, more ways than entries, direct-mapped and the
        /// default.
        const GEOMETRIES: [(usize, usize); 7] = [
            (0, 2),
            (1, 1),
            (2, 2),
            (3, 4),
            (4, 2),
            (8, 1),
            (ALAT_ENTRIES, ALAT_WAYS),
        ];

        proptest! {
            /// After any operation sequence on any geometry, the live count
            /// equals the occupancy, which never exceeds the capacity; a
            /// store drops every entry of its address, and exactly the
            /// entries it counts as invalidated;
            /// and a check hit implies a preceding insert of the same
            /// (reg, addr) with no intervening invalidation or flash clear.
            #[test]
            fn capacity_and_soundness(
                geometry in 0usize..GEOMETRIES.len(),
                ops in proptest::collection::vec((0u8..5, 0u32..8, 0i64..8), 0..200),
            ) {
                let (entries, ways) = GEOMETRIES[geometry];
                let mut a = Alat::with_geometry(entries, ways);
                // model: map (reg) -> addr of live entry, ignoring capacity
                // and killed entries
                let mut model: std::collections::HashMap<u32, i64> =
                    Default::default();
                for (kind, reg, addr) in ops {
                    match kind {
                        0 => {
                            a.insert(Reg(reg), addr);
                            model.insert(reg, addr);
                        }
                        1 => {
                            let (live, counted) = (a.occupancy(), a.store_invalidations);
                            a.invalidate(addr);
                            model.retain(|_, &mut v| v != addr);
                            prop_assert_eq!(
                                (live - a.occupancy()) as u64,
                                a.store_invalidations - counted
                            );
                            prop_assert!(a.slots.iter().flatten().all(|e| e.addr != addr));
                        }
                        2 => {
                            let hit = a.check(Reg(reg), addr);
                            // the real ALAT may miss due to capacity, but a
                            // hit must be justified by the model
                            if hit {
                                prop_assert_eq!(model.get(&reg), Some(&addr));
                            }
                        }
                        3 => a.kill_one(u64::from(reg) * 8 + addr as u64),
                        _ => {
                            a.flash_clear();
                            model.clear();
                        }
                    }
                    prop_assert_eq!(a.live, a.occupancy());
                    prop_assert!(a.occupancy() <= a.capacity());
                }
            }
        }
    }
}
