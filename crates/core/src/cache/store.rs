//! Cache storage backends.
//!
//! [`Storage`] is the seam between cache policy (keying, staleness handling
//! and retries — all in [`super::FuncCache`]) and byte persistence. The default
//! backend is [`FileStore`], a two-level sharded directory of entry files;
//! the trait is deliberately tiny (load/store/remove/list over opaque byte
//! blobs) so an SQLite or remote backend can slot in later without touching
//! any cache logic.

use super::key::CacheKey;
use crate::crashpoint;
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One entry as seen by [`Storage::list`]: enough for `cache stats`,
/// `cache verify` and `cache clear` without decoding payloads.
#[derive(Debug, Clone, Copy)]
pub struct EntryMeta {
    /// The entry's content hash.
    pub key: CacheKey,
    /// Stored size in bytes.
    pub size: u64,
}

/// A byte-blob store addressed by [`CacheKey`].
pub trait Storage: Send + Sync {
    /// Reads an entry, `None` if absent.
    fn load(&self, key: &CacheKey) -> io::Result<Option<Vec<u8>>>;
    /// Writes (or replaces) an entry atomically.
    fn store(&self, key: &CacheKey, bytes: &[u8]) -> io::Result<()>;
    /// Deletes an entry; absent entries are not an error.
    fn remove(&self, key: &CacheKey) -> io::Result<()>;
    /// Enumerates every entry. Order is unspecified — callers sort.
    fn list(&self) -> io::Result<Vec<EntryMeta>>;
    /// Leftover in-flight write artifacts (a crashed writer's temp files).
    /// Backends without such debris report none.
    fn tmp_debris(&self) -> io::Result<Vec<PathBuf>> {
        Ok(Vec::new())
    }
    /// Removes debris whose writer is provably gone; returns how many were
    /// swept. Never touches committed entries or a live writer's temp file.
    fn sweep_stale_tmps(&self) -> io::Result<usize> {
        Ok(0)
    }
}

/// On-disk store: `root/<first 2 hex chars>/<32 hex chars>.spcc`.
///
/// Sharding by the key's first byte keeps directories small on large
/// caches; writes go through a temp file + rename so a concurrent reader
/// (or a crash) can never observe a half-written entry — at worst it sees
/// the old bytes or nothing.
#[derive(Debug)]
pub struct FileStore {
    root: PathBuf,
}

const ENTRY_EXT: &str = "spcc";

impl FileStore {
    /// A store rooted at `root`. The directory is created lazily on first
    /// write, so opening a cache never dirties the filesystem.
    pub fn new(root: impl Into<PathBuf>) -> FileStore {
        FileStore { root: root.into() }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, key: &CacheKey) -> PathBuf {
        let hex = key.hex();
        self.root.join(&hex[..2]).join(format!("{hex}.{ENTRY_EXT}"))
    }

    /// Whether the writer that owns this temp file is provably gone.
    /// Temp names are `.tmp-<hex>-<pid>-<seq>`; a file from our own pid is
    /// live by definition (some thread is mid-store), another pid is stale
    /// once `/proc/<pid>` no longer exists. Where `/proc` is unavailable
    /// the age fallback (10 minutes) keeps the sweep conservative.
    fn tmp_is_stale(path: &Path) -> bool {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let pid: Option<u32> = name
            .strip_prefix(".tmp-")
            .and_then(|rest| rest.split('-').nth(1))
            .and_then(|p| p.parse().ok());
        match pid {
            Some(pid) if pid == std::process::id() => false,
            Some(pid) if Path::new("/proc").is_dir() => {
                !Path::new(&format!("/proc/{pid}")).exists()
            }
            _ => path
                .metadata()
                .and_then(|md| md.modified())
                .ok()
                .and_then(|m| m.elapsed().ok())
                .is_some_and(|age| age.as_secs() > 600),
        }
    }
}

/// Per-process write sequence number: combined with the pid it makes temp
/// names unique across *threads* of one process, not just across processes
/// (two worker threads storing the same key simultaneously must not share
/// a temp file).
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl Storage for FileStore {
    fn load(&self, key: &CacheKey) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(key)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn store(&self, key: &CacheKey, bytes: &[u8]) -> io::Result<()> {
        let path = self.path(key);
        let dir = path.parent().expect("sharded path has a parent");
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(
            ".tmp-{}-{}-{}",
            key.hex(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, bytes)?;
        crashpoint::hit("cache-pre-rename");
        match std::fs::rename(&tmp, &path) {
            Ok(()) => {
                crashpoint::hit("cache-post-rename");
                Ok(())
            }
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    fn remove(&self, key: &CacheKey) -> io::Result<()> {
        match std::fs::remove_file(self.path(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn list(&self) -> io::Result<Vec<EntryMeta>> {
        let mut out = Vec::new();
        let shards = match std::fs::read_dir(&self.root) {
            Ok(rd) => rd,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for shard in shards {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(shard.path())? {
                let entry = entry?;
                let path = entry.path();
                if path.extension().and_then(|e| e.to_str()) != Some(ENTRY_EXT) {
                    continue;
                }
                let Some(key) = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(CacheKey::from_hex)
                else {
                    continue;
                };
                out.push(EntryMeta {
                    key,
                    size: entry.metadata()?.len(),
                });
            }
        }
        Ok(out)
    }

    fn tmp_debris(&self) -> io::Result<Vec<PathBuf>> {
        let mut out = Vec::new();
        let shards = match std::fs::read_dir(&self.root) {
            Ok(rd) => rd,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for shard in shards {
            let shard = shard?;
            if !shard.file_type()?.is_dir() {
                continue;
            }
            for entry in std::fs::read_dir(shard.path())? {
                let path = entry?.path();
                if path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(".tmp-"))
                {
                    out.push(path);
                }
            }
        }
        out.sort();
        Ok(out)
    }

    fn sweep_stale_tmps(&self) -> io::Result<usize> {
        let mut swept = 0;
        for tmp in self.tmp_debris()? {
            if FileStore::tmp_is_stale(&tmp) && std::fs::remove_file(&tmp).is_ok() {
                swept += 1;
            }
        }
        Ok(swept)
    }
}

/// In-memory store for unit tests and ephemeral (single-process) caches.
#[derive(Debug, Default)]
pub struct MemStore {
    entries: Mutex<HashMap<[u8; 16], Vec<u8>>>,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }
}

impl Storage for MemStore {
    fn load(&self, key: &CacheKey) -> io::Result<Option<Vec<u8>>> {
        Ok(self.entries.lock().unwrap().get(&key.0).cloned())
    }

    fn store(&self, key: &CacheKey, bytes: &[u8]) -> io::Result<()> {
        self.entries.lock().unwrap().insert(key.0, bytes.to_vec());
        Ok(())
    }

    fn remove(&self, key: &CacheKey) -> io::Result<()> {
        self.entries.lock().unwrap().remove(&key.0);
        Ok(())
    }

    fn list(&self) -> io::Result<Vec<EntryMeta>> {
        Ok(self
            .entries
            .lock()
            .unwrap()
            .iter()
            .map(|(k, b)| EntryMeta {
                key: CacheKey(*k),
                size: b.len() as u64,
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::key::StableHasher;

    fn key(label: &str) -> CacheKey {
        let mut h = StableHasher::new();
        h.write_str(label);
        h.finish()
    }

    fn exercise(store: &dyn Storage) {
        let k = key("a");
        assert_eq!(store.load(&k).unwrap(), None);
        store.store(&k, b"hello").unwrap();
        assert_eq!(store.load(&k).unwrap().as_deref(), Some(&b"hello"[..]));
        // overwrite is a replace
        store.store(&k, b"world").unwrap();
        assert_eq!(store.load(&k).unwrap().as_deref(), Some(&b"world"[..]));
        store.store(&key("b"), b"x").unwrap();
        let mut listed = store.list().unwrap();
        listed.sort_by_key(|m| m.key);
        assert_eq!(listed.len(), 2);
        assert!(listed.iter().any(|m| m.key == k && m.size == 5));
        store.remove(&k).unwrap();
        store.remove(&k).unwrap(); // idempotent
        assert_eq!(store.load(&k).unwrap(), None);
        assert_eq!(store.list().unwrap().len(), 1);
    }

    #[test]
    fn mem_store_contract() {
        exercise(&MemStore::new());
    }

    #[test]
    fn tmp_names_are_unique_across_threads() {
        // the pre-fix name `.tmp-<hex>-<pid>` collides when two threads of
        // one process store the same key; the sequence suffix must not
        let dir =
            std::env::temp_dir().join(format!("specframe-tmpseq-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::new(&dir);
        let k = key("contested");
        std::thread::scope(|s| {
            for i in 0..8u8 {
                let store = &store;
                let k = &k;
                s.spawn(move || {
                    for _ in 0..50 {
                        store.store(k, &[i; 64]).unwrap();
                    }
                });
            }
        });
        // the entry is whole (one of the writers' payloads, never a mix)
        let got = store.load(&k).unwrap().unwrap();
        assert_eq!(got.len(), 64);
        assert!(got.iter().all(|b| *b == got[0]), "torn entry: {got:?}");
        assert!(store.tmp_debris().unwrap().is_empty(), "leftover tmp files");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_tmp_sweep_spares_live_writers() {
        let dir =
            std::env::temp_dir().join(format!("specframe-tmpsweep-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::new(&dir);
        let k = key("x");
        store.store(&k, b"payload").unwrap();
        let shard = store.path(&k).parent().unwrap().to_path_buf();
        // our own pid: a thread could be mid-store — never swept
        let live = shard.join(format!(".tmp-{}-{}-0", k.hex(), std::process::id()));
        // pid 0 never exists in /proc: a crashed writer's debris
        let stale = shard.join(format!(".tmp-{}-0-1", k.hex()));
        std::fs::write(&live, b"half").unwrap();
        std::fs::write(&stale, b"half").unwrap();
        assert_eq!(store.tmp_debris().unwrap().len(), 2);
        assert_eq!(store.sweep_stale_tmps().unwrap(), 1);
        assert!(live.exists(), "live writer's tmp swept");
        assert!(!stale.exists(), "stale tmp survived the sweep");
        // committed entries are untouched
        assert_eq!(store.load(&k).unwrap().as_deref(), Some(&b"payload"[..]));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_store_contract() {
        let dir =
            std::env::temp_dir().join(format!("specframe-filestore-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FileStore::new(&dir);
        // listing a store that was never written to is empty, not an error
        assert!(store.list().unwrap().is_empty());
        exercise(&store);
        // no stray temp files left behind
        for shard in std::fs::read_dir(&dir).unwrap() {
            for f in std::fs::read_dir(shard.unwrap().path()).unwrap() {
                let name = f.unwrap().file_name();
                assert!(
                    !name.to_string_lossy().starts_with(".tmp-"),
                    "leftover temp file {name:?}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
