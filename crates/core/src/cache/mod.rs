//! Persistent per-function compile cache.
//!
//! The per-function transaction boundary (each function compiles, verifies
//! and degrades independently inside `catch_unwind`) is also the cache-entry
//! granularity: one entry = one function's lowered output + stats + dumps
//! under one content-addressed key ([`key`]). A hit skips the whole
//! refine→HSSA→SSAPRE→lower pipeline and replays the stored result; a miss
//! compiles normally and writes back at the driver's join point.
//!
//! Invariants, in priority order:
//!
//! 1. **Byte parity** — cached and uncached compiles of the same module
//!    under the same options produce byte-identical output at every
//!    `--jobs` level (the warm-path analogue of the parallel-determinism
//!    pin).
//! 2. **No stale hits** — anything that can change a function's lowering is
//!    folded into its key (see [`key`]); a profile change, config change, or
//!    edit anywhere the function can observe changes the key.
//! 3. **Graceful degradation** — a corrupt or version-skewed entry is a
//!    *miss with a diagnostic* (a new rung on the degradation ladder), never
//!    an error and never wrong output; the bad entry is removed and
//!    rewritten by the fresh compile.

pub mod codec;
pub mod fault;
pub mod key;
pub mod store;

pub use codec::{decode_entry, encode_entry, CachedFunc, EntryError};
pub use fault::{
    classify_io_error, parse_store_fault_policy, FaultStore, IoErrorClass, StoreFaultPolicy,
};
pub use key::{CacheKey, KeyContext, StableHasher, CACHE_FORMAT_VERSION};
pub use store::{EntryMeta, FileStore, MemStore, Storage};

use crate::stats::counter_block;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

counter_block! {
    /// Hit/miss/stale/evict counters for one `optimize` run (or one service
    /// lifetime — they sum).
    ///
    /// Kept out of [`crate::OptStats`] on purpose: `OptStats` is `Eq`-compared
    /// between cached and uncached runs by the parity tests, and a warm run
    /// *must* report identical transformation counters while reporting
    /// different cache counters.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct CacheStats {
        /// Functions replayed from the cache.
        pub hits: u64,
        /// Functions compiled because no entry existed.
        pub misses: u64,
        /// Functions compiled because their entry was corrupt or version-skewed
        /// (each also carries a `CompileDiag` on the report).
        pub stale: u64,
        /// Entries removed by the capacity policy during write-back.
        pub evicts: u64,
        /// Storage operations re-attempted after a transient I/O error.
        pub retries: u64,
        /// Storage operations that returned an I/O error (before retry).
        pub io_errors: u64,
        /// Times the circuit breaker opened this run (0 or 1 per run; a run
        /// that starts with the session breaker already open reports 0).
        pub breaker_trips: u64,
    }
}

impl CacheStats {
    /// Total probes this block describes.
    pub fn probes(&self) -> u64 {
        self.hits + self.misses + self.stale
    }
}

/// Per-function cache outcome, in function-index order — the service's
/// per-function status lines read these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Replayed from the cache.
    Hit,
    /// Compiled fresh (no entry).
    Miss,
    /// Compiled fresh (entry was corrupt or version-skewed).
    Stale,
}

impl CacheOutcome {
    /// The stable lower-case name used in service responses.
    pub fn name(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Stale => "stale",
        }
    }
}

/// Result of probing one key.
#[derive(Debug)]
pub enum Probe {
    /// Entry decoded cleanly.
    Hit(Box<CachedFunc>),
    /// No entry.
    Miss,
    /// Entry existed but failed to decode (reason inside); it has been
    /// removed so the fresh compile's write-back replaces it.
    Stale(String),
}

/// Report from [`FuncCache::verify`]: every entry decoded, with failures.
#[derive(Debug, Default)]
pub struct VerifyReport {
    /// Entries that decoded cleanly.
    pub ok: usize,
    /// Entries that failed, with the decode error.
    pub bad: Vec<(CacheKey, String)>,
    /// Total stored bytes walked.
    pub bytes: u64,
    /// In-flight write debris (`.tmp-*`) found alongside the entries.
    pub tmps: Vec<PathBuf>,
}

/// Session-wide cache circuit breaker, shared (via `Arc`) by every
/// compile in one service session or one-shot run.
///
/// The breaker opens when a storage error is permanent or a retry budget
/// is exhausted; from then on the session compiles cache-off (probes
/// answer [`Probe::Miss`], inserts are skipped) instead of hammering a
/// broken filesystem once per function. It never closes within a
/// session — a restart is the reset, which keeps degraded behavior easy
/// to reason about (and to test).
#[derive(Debug, Default)]
pub struct CacheHealth {
    open: AtomicBool,
    trips: AtomicU64,
    reason: Mutex<Option<String>>,
}

impl CacheHealth {
    /// Whether the breaker is open (cache disabled for the session).
    pub fn is_open(&self) -> bool {
        self.open.load(Ordering::SeqCst)
    }

    /// Opens the breaker; returns `true` iff this call flipped it.
    pub fn trip(&self, reason: &str) -> bool {
        let flipped = self
            .open
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_ok();
        if flipped {
            self.trips.fetch_add(1, Ordering::SeqCst);
            *self.reason.lock().unwrap() = Some(reason.to_string());
        }
        flipped
    }

    /// Why the breaker opened, if it has.
    pub fn reason(&self) -> Option<String> {
        self.reason.lock().unwrap().clone()
    }

    /// How many times [`CacheHealth::trip`] flipped the breaker (0 or 1).
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::SeqCst)
    }
}

/// Default [`FuncCache`] retry budget: transient I/O errors are retried
/// this many times before the breaker trips.
pub const DEFAULT_RETRY_BUDGET: u32 = 2;

/// The persistent function cache: policy over a [`Storage`] backend.
pub struct FuncCache {
    store: Box<dyn Storage>,
    /// Maximum retained entries; `None` = unbounded. Enforced at
    /// write-back, evicting oldest-modified first (key order breaks ties so
    /// eviction is deterministic under equal timestamps).
    max_entries: Option<usize>,
    /// Transient-error retry budget per storage operation.
    retry_budget: u32,
    /// Session breaker (shared across compiles of one session).
    health: Arc<CacheHealth>,
    /// Whether THIS cache instance tripped the breaker (drives the
    /// once-per-session `pass="cache"` diagnostic).
    tripped_here: AtomicBool,
    retries: AtomicU64,
    io_errors: AtomicU64,
}

impl FuncCache {
    /// A cache over the sharded file store at `dir`, unbounded.
    pub fn open(dir: impl Into<PathBuf>) -> FuncCache {
        FuncCache::with_store(Box::new(FileStore::new(dir)))
    }

    /// A cache over an explicit backend.
    pub fn with_store(store: Box<dyn Storage>) -> FuncCache {
        FuncCache {
            store,
            max_entries: None,
            retry_budget: DEFAULT_RETRY_BUDGET,
            health: Arc::new(CacheHealth::default()),
            tripped_here: AtomicBool::new(false),
            retries: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        }
    }

    /// Sets the entry-count cap (builder style).
    pub fn with_max_entries(mut self, cap: usize) -> FuncCache {
        self.max_entries = Some(cap);
        self
    }

    /// Sets the transient-error retry budget (builder style).
    pub fn with_retry_budget(mut self, budget: u32) -> FuncCache {
        self.retry_budget = budget;
        self
    }

    /// Shares a session-wide breaker (builder style). Without this, each
    /// cache gets a private breaker scoped to its own run.
    pub fn with_health(mut self, health: Arc<CacheHealth>) -> FuncCache {
        self.health = health;
        self
    }

    /// Wraps the backend in a [`FaultStore`] (builder style); the `none`
    /// policy is a true no-op, not a pass-through decorator.
    pub fn with_fault_policy(mut self, policy: StoreFaultPolicy) -> FuncCache {
        if policy != StoreFaultPolicy::None {
            self.store = Box::new(FaultStore::new(self.store, policy));
        }
        self
    }

    /// The session breaker this cache reports to.
    pub fn health(&self) -> &Arc<CacheHealth> {
        &self.health
    }

    /// Fault counters accumulated by this cache instance:
    /// `(retries, io_errors, breaker_trips)`.
    pub fn fault_counters(&self) -> (u64, u64, u64) {
        (
            self.retries.load(Ordering::SeqCst),
            self.io_errors.load(Ordering::SeqCst),
            u64::from(self.tripped_here.load(Ordering::SeqCst)),
        )
    }

    /// The breaker reason, iff this instance tripped it — the caller turns
    /// this into the once-per-session `pass="cache"` diagnostic.
    pub fn breaker_diag(&self) -> Option<String> {
        if self.tripped_here.load(Ordering::SeqCst) {
            self.health.reason()
        } else {
            None
        }
    }

    /// Runs one storage operation with classified-error retry. Transient
    /// errors get `retry_budget` further attempts with a short, bounded,
    /// deterministic backoff (attempt-indexed, no randomness — backoff
    /// shapes wall time, never output); a permanent error or an exhausted
    /// budget trips the session breaker and returns the error.
    fn with_retry<T>(&self, mut op: impl FnMut() -> io::Result<T>) -> io::Result<T> {
        let mut attempt = 0u32;
        loop {
            let err = match op() {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            self.io_errors.fetch_add(1, Ordering::SeqCst);
            if classify_io_error(&err) == IoErrorClass::Transient && attempt < self.retry_budget {
                attempt += 1;
                self.retries.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(std::time::Duration::from_micros(100 << attempt.min(6)));
                continue;
            }
            if self.health.trip(&err.to_string()) {
                self.tripped_here.store(true, Ordering::SeqCst);
            }
            return Err(err);
        }
    }

    /// Looks up `key`, decoding the entry. Undecodable entries degrade to
    /// [`Probe::Stale`]; I/O errors are retried, then degrade to
    /// [`Probe::Miss`] with the breaker open — the cache can slow a
    /// compile down but never fail one.
    pub fn probe(&self, key: &CacheKey) -> Probe {
        if self.health.is_open() {
            return Probe::Miss;
        }
        let bytes = match self.with_retry(|| self.store.load(key)) {
            Ok(Some(b)) => b,
            Ok(None) => return Probe::Miss,
            // breaker just tripped: this and every later probe is cache-off
            Err(_) => return Probe::Miss,
        };
        match decode_entry(&bytes) {
            Ok(cf) => Probe::Hit(Box::new(cf)),
            Err(e) => {
                let _ = self.store.remove(key);
                Probe::Stale(e.to_string())
            }
        }
    }

    /// Writes one encoded entry back, then applies the capacity policy.
    /// Returns how many entries were evicted. With the breaker open the
    /// write is skipped (`Ok(0)`): the session already carries the
    /// degradation diagnostic.
    pub fn insert(&self, key: &CacheKey, bytes: &[u8]) -> io::Result<u64> {
        if self.health.is_open() {
            return Ok(0);
        }
        self.with_retry(|| self.store.store(key, bytes))?;
        let Some(cap) = self.max_entries else {
            return Ok(0);
        };
        let mut metas = self.store.list()?;
        if metas.len() <= cap {
            return Ok(0);
        }
        metas.sort_by_key(|m| (m.modified, m.key));
        let excess = metas.len() - cap;
        let mut evicted = 0;
        for m in metas.iter().filter(|m| m.key != *key).take(excess) {
            self.store.remove(&m.key)?;
            evicted += 1;
        }
        Ok(evicted)
    }

    /// Removes every entry; returns how many were removed.
    pub fn clear(&self) -> io::Result<usize> {
        let metas = self.store.list()?;
        for m in &metas {
            self.store.remove(&m.key)?;
        }
        Ok(metas.len())
    }

    /// Entry count and total stored bytes (the `cache stats` numbers).
    pub fn entry_stats(&self) -> io::Result<(usize, u64)> {
        let metas = self.store.list()?;
        Ok((metas.len(), metas.iter().map(|m| m.size).sum()))
    }

    /// Walks every entry and attempts a full decode (the `cache verify`
    /// subcommand). Bad entries are reported, not removed — removal is the
    /// compile path's job, and a read-only walk is safer for diagnosis.
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut metas = self.store.list()?;
        metas.sort_by_key(|m| m.key);
        let mut rep = VerifyReport::default();
        for m in metas {
            rep.bytes += m.size;
            match self.store.load(&m.key)? {
                None => rep.bad.push((m.key, "entry vanished mid-walk".into())),
                Some(bytes) => match decode_entry(&bytes) {
                    Ok(_) => rep.ok += 1,
                    Err(e) => rep.bad.push((m.key, e.to_string())),
                },
            }
        }
        rep.tmps = self.store.tmp_debris()?;
        Ok(rep)
    }

    /// Removes write debris whose owner is provably gone (see
    /// [`Storage::sweep_stale_tmps`]); the open-time fsck and `cache
    /// verify` both route through here.
    pub fn sweep_stale_tmps(&self) -> io::Result<usize> {
        self.store.sweep_stale_tmps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::PassDump;
    use crate::stats::OptStats;
    use specframe_ir::{Block, Function, Terminator};

    fn tiny_entry(name: &str) -> Vec<u8> {
        let f = Function {
            name: name.into(),
            params: 0,
            ret_ty: None,
            vars: vec![],
            slots: vec![],
            blocks: vec![Block {
                name: "entry".into(),
                insts: vec![],
                term: Terminator::Ret(None),
            }],
        };
        encode_entry(&f, 0, &OptStats::default(), &[] as &[PassDump])
    }

    fn key(label: &str) -> CacheKey {
        let mut h = StableHasher::new();
        h.write_str(label);
        h.finish()
    }

    #[test]
    fn probe_insert_roundtrip() {
        let c = FuncCache::with_store(Box::new(MemStore::new()));
        let k = key("f");
        assert!(matches!(c.probe(&k), Probe::Miss));
        c.insert(&k, &tiny_entry("f")).unwrap();
        match c.probe(&k) {
            Probe::Hit(cf) => assert_eq!(cf.func.name, "f"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn corrupt_entry_probes_stale_and_is_removed() {
        let c = FuncCache::with_store(Box::new(MemStore::new()));
        let k = key("f");
        let mut bytes = tiny_entry("f");
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        c.insert(&k, &bytes).unwrap();
        assert!(matches!(c.probe(&k), Probe::Stale(_)));
        // removed on probe, so the next probe is a plain miss
        assert!(matches!(c.probe(&k), Probe::Miss));
    }

    #[test]
    fn capacity_policy_evicts_oldest() {
        let c = FuncCache::with_store(Box::new(MemStore::new())).with_max_entries(3);
        let mut evicted = 0;
        for i in 0..6 {
            evicted += c.insert(&key(&format!("f{i}")), &tiny_entry("f")).unwrap();
            // MemStore timestamps have full precision, but don't rely on it
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(evicted, 3);
        let (n, _) = c.entry_stats().unwrap();
        assert_eq!(n, 3);
        // the newest entries survive
        assert!(matches!(c.probe(&key("f5")), Probe::Hit(_)));
        assert!(matches!(c.probe(&key("f0")), Probe::Miss));
    }

    #[test]
    fn verify_reports_bad_entries() {
        let c = FuncCache::with_store(Box::new(MemStore::new()));
        c.insert(&key("good"), &tiny_entry("g")).unwrap();
        c.insert(&key("bad"), b"SPCCgarbage").unwrap();
        let rep = c.verify().unwrap();
        assert_eq!(rep.ok, 1);
        assert_eq!(rep.bad.len(), 1);
        // verify is read-only: the bad entry is still there
        let (n, _) = c.entry_stats().unwrap();
        assert_eq!(n, 2);
    }

    #[test]
    fn clear_empties_the_store() {
        let c = FuncCache::with_store(Box::new(MemStore::new()));
        c.insert(&key("a"), &tiny_entry("a")).unwrap();
        c.insert(&key("b"), &tiny_entry("b")).unwrap();
        assert_eq!(c.clear().unwrap(), 2);
        assert_eq!(c.entry_stats().unwrap().0, 0);
    }

    /// A backend that fails the first `fail_n` operations of each kind
    /// with a transient error, then behaves.
    struct FlakyStore {
        inner: MemStore,
        load_fails: std::sync::atomic::AtomicU32,
        store_fails: std::sync::atomic::AtomicU32,
    }

    impl FlakyStore {
        fn new(load_fails: u32, store_fails: u32) -> FlakyStore {
            FlakyStore {
                inner: MemStore::new(),
                load_fails: load_fails.into(),
                store_fails: store_fails.into(),
            }
        }

        fn take(counter: &std::sync::atomic::AtomicU32) -> bool {
            counter
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
        }
    }

    impl Storage for FlakyStore {
        fn load(&self, key: &CacheKey) -> io::Result<Option<Vec<u8>>> {
            if FlakyStore::take(&self.load_fails) {
                return Err(io::Error::other("flaky read"));
            }
            self.inner.load(key)
        }
        fn store(&self, key: &CacheKey, bytes: &[u8]) -> io::Result<()> {
            if FlakyStore::take(&self.store_fails) {
                return Err(io::Error::other("flaky write"));
            }
            self.inner.store(key, bytes)
        }
        fn remove(&self, key: &CacheKey) -> io::Result<()> {
            self.inner.remove(key)
        }
        fn list(&self) -> io::Result<Vec<EntryMeta>> {
            self.inner.list()
        }
    }

    #[test]
    fn transient_errors_are_retried_within_budget() {
        // 2 flaky loads, budget 2: the probe still hits, counters move
        let c = FuncCache::with_store(Box::new(FlakyStore::new(2, 0)));
        let k = key("f");
        c.insert(&k, &tiny_entry("f")).unwrap();
        assert!(matches!(c.probe(&k), Probe::Hit(_)));
        let (retries, io_errors, trips) = c.fault_counters();
        assert_eq!((retries, io_errors, trips), (2, 2, 0));
        assert!(!c.health().is_open());
    }

    #[test]
    fn exhausted_retries_trip_the_breaker_and_degrade_to_miss() {
        let c = FuncCache::with_store(Box::new(FlakyStore::new(100, 0))).with_retry_budget(1);
        let k = key("f");
        c.insert(&k, &tiny_entry("f")).unwrap();
        assert!(matches!(c.probe(&k), Probe::Miss), "degrades, not fails");
        assert!(c.health().is_open());
        let (retries, io_errors, trips) = c.fault_counters();
        assert_eq!((retries, io_errors, trips), (1, 2, 1));
        assert!(c.breaker_diag().unwrap().contains("flaky read"));
        // breaker open: probes short-circuit, inserts are skipped
        assert!(matches!(c.probe(&k), Probe::Miss));
        assert_eq!(c.insert(&k, &tiny_entry("f")).unwrap(), 0);
        assert_eq!(c.fault_counters().1, 2, "no further I/O once open");
    }

    #[test]
    fn permanent_errors_trip_without_retrying() {
        struct FullDisk;
        impl Storage for FullDisk {
            fn load(&self, _: &CacheKey) -> io::Result<Option<Vec<u8>>> {
                Ok(None)
            }
            fn store(&self, _: &CacheKey, _: &[u8]) -> io::Result<()> {
                Err(io::Error::new(io::ErrorKind::StorageFull, "disk full"))
            }
            fn remove(&self, _: &CacheKey) -> io::Result<()> {
                Ok(())
            }
            fn list(&self) -> io::Result<Vec<EntryMeta>> {
                Ok(Vec::new())
            }
        }
        let c = FuncCache::with_store(Box::new(FullDisk));
        assert!(c.insert(&key("f"), &tiny_entry("f")).is_err());
        let (retries, io_errors, trips) = c.fault_counters();
        assert_eq!((retries, io_errors, trips), (0, 1, 1));
        assert!(c.health().is_open());
    }

    #[test]
    fn shared_health_breaks_the_whole_session() {
        let health = Arc::new(CacheHealth::default());
        let first = FuncCache::with_store(Box::new(FlakyStore::new(100, 0)))
            .with_health(Arc::clone(&health));
        let k = key("f");
        first.insert(&k, &tiny_entry("f")).unwrap();
        assert!(matches!(first.probe(&k), Probe::Miss));
        assert!(health.is_open());
        // a later compile in the same session: cache-off from the start,
        // and it does NOT re-report the trip
        let second =
            FuncCache::with_store(Box::new(MemStore::new())).with_health(Arc::clone(&health));
        second.insert(&k, &tiny_entry("f")).unwrap();
        assert!(matches!(second.probe(&k), Probe::Miss));
        assert_eq!(second.fault_counters(), (0, 0, 0));
        assert!(second.breaker_diag().is_none());
        assert_eq!(health.trips(), 1);
    }

    #[test]
    fn retry_heals_a_torn_write() {
        // torn-write:1 faults EVERY store, so exhaust trips; torn-write:2
        // with retries repairs the damage within one insert
        let store = FaultStore::new(
            Box::new(MemStore::new()),
            StoreFaultPolicy::TornWrite { period: 2 },
        );
        let c = FuncCache::with_store(Box::new(store));
        let k = key("f");
        c.insert(&k, &tiny_entry("f")).unwrap();
        c.insert(&k, &tiny_entry("f")).unwrap(); // 2nd store torn, retried
        match c.probe(&k) {
            Probe::Hit(cf) => assert_eq!(cf.func.name, "f"),
            other => panic!("torn write not healed: {other:?}"),
        }
        let (retries, io_errors, trips) = c.fault_counters();
        assert_eq!((retries, io_errors, trips), (1, 1, 0));
    }

    #[test]
    fn verify_reports_tmp_debris() {
        let dir = std::env::temp_dir().join(format!(
            "specframe-verify-tmps-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let c = FuncCache::open(&dir);
        let k = key("f");
        c.insert(&k, &tiny_entry("f")).unwrap();
        let shard = dir.join(&k.hex()[..2]);
        std::fs::write(shard.join(format!(".tmp-{}-0-9", k.hex())), b"junk").unwrap();
        let rep = c.verify().unwrap();
        assert_eq!((rep.ok, rep.bad.len(), rep.tmps.len()), (1, 0, 1));
        assert_eq!(c.sweep_stale_tmps().unwrap(), 1);
        assert!(c.verify().unwrap().tmps.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
