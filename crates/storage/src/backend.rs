//! Storage backends: where the bytes actually go.
//!
//! The WAL/snapshot/manifest engine ([`crate::ReplicaStore`]) is generic
//! over a [`Storage`] — a minimal flat namespace of append-only blobs
//! plus atomically-replaceable blobs. Three backends ship:
//!
//! * [`NullStorage`] — discards everything; `is_durable()` is false, so
//!   the engine short-circuits to no-ops. This is the pre-storage
//!   behaviour of the repo and the default for replicas that opt out.
//! * [`MemDisk`] — an in-memory disk with an explicit *durability line*
//!   per file: bytes appended after the last `sync` are lost on
//!   [`MemDisk::crash`], optionally leaving a torn final record behind.
//!   Cloning the handle shares the disk, which is how a simulated
//!   replica's storage survives its process being killed and rebuilt.
//!   Fsync latency is injectable and accounted, so experiments can model
//!   disk cost without a real disk.
//! * [`FileStorage`] — a directory of real files via `std::fs`, used by
//!   the live threaded runtime (`bayou-net`).

use bayou_types::VirtualTime;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Errors surfaced by storage backends and the recovery engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StorageError {
    /// The named blob does not exist.
    NotFound(String),
    /// An I/O operation failed (message carries the OS error).
    Io(String),
    /// Persistent data failed validation (bad magic, version, checksum).
    Corrupt(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(name) => write!(f, "no such storage blob: {name}"),
            StorageError::Io(msg) => write!(f, "storage i/o error: {msg}"),
            StorageError::Corrupt(msg) => write!(f, "corrupt persistent data: {msg}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// A flat namespace of named blobs with append and atomic-replace
/// semantics — the contract [`crate::ReplicaStore`] builds on.
///
/// Durability model: bytes passed to [`Storage::append`] are durable only
/// after a subsequent [`Storage::sync`]; a crash may truncate any
/// unsynced suffix at an arbitrary byte. [`Storage::write_atomic`] is
/// all-or-nothing: after a crash the old or the new content is observed,
/// never a mix.
pub trait Storage {
    /// Appends bytes to a blob, creating it if absent.
    fn append(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError>;

    /// Makes all previously appended bytes durable.
    fn sync(&mut self) -> Result<(), StorageError>;

    /// Hands appended bytes the backend still buffers to the operating
    /// system, without making them durable. Backends that write through
    /// on every append have nothing to do (the default).
    fn flush(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    /// Reads a whole blob.
    fn read(&self, file: &str) -> Result<Vec<u8>, StorageError>;

    /// Atomically replaces a blob's content (durable on return).
    fn write_atomic(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError>;

    /// Removes a blob (missing blobs are fine — removal is idempotent).
    fn remove(&mut self, file: &str) -> Result<(), StorageError>;

    /// Whether a blob exists.
    fn exists(&self, file: &str) -> bool;

    /// Names of all blobs, sorted.
    fn list(&self) -> Vec<String>;

    /// Whether this backend retains data at all. [`NullStorage`] returns
    /// `false`, which tells the engine to skip every write.
    fn is_durable(&self) -> bool {
        true
    }

    /// Drains the *simulated* time this backend spent blocked in fsync
    /// since the previous call. Real backends return zero (the caller
    /// already paid the wall-clock cost); [`MemDisk`] returns the
    /// injected latency accrued, which the simulator charges to the
    /// replica's CPU so crash/recovery schedules are disk-latency-aware.
    fn take_sync_stall(&mut self) -> VirtualTime {
        VirtualTime::ZERO
    }
}

/// A backend that stores nothing: today's in-memory-only replica
/// behaviour, expressed as a [`Storage`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NullStorage;

impl Storage for NullStorage {
    fn append(&mut self, _file: &str, _bytes: &[u8]) -> Result<(), StorageError> {
        Ok(())
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        Ok(())
    }
    fn read(&self, file: &str) -> Result<Vec<u8>, StorageError> {
        Err(StorageError::NotFound(file.to_string()))
    }
    fn write_atomic(&mut self, _file: &str, _bytes: &[u8]) -> Result<(), StorageError> {
        Ok(())
    }
    fn remove(&mut self, _file: &str) -> Result<(), StorageError> {
        Ok(())
    }
    fn exists(&self, _file: &str) -> bool {
        false
    }
    fn list(&self) -> Vec<String> {
        Vec::new()
    }
    fn is_durable(&self) -> bool {
        false
    }
}

#[derive(Debug, Default)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes `< synced_len` survive a crash; the rest may be torn away.
    synced_len: usize,
}

/// Cumulative I/O accounting of a [`MemDisk`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskStats {
    /// Number of `sync` calls.
    pub syncs: u64,
    /// Total bytes appended.
    pub appended_bytes: u64,
    /// Simulated time spent in fsync (syncs × injected latency).
    pub sync_time: VirtualTime,
}

#[derive(Debug, Default)]
struct MemDiskInner {
    files: BTreeMap<String, MemFile>,
    fsync_latency: VirtualTime,
    stats: DiskStats,
    /// Fsync latency accrued since the last [`Storage::take_sync_stall`]
    /// drain (what the simulator has not yet charged to a CPU).
    unclaimed_stall: VirtualTime,
}

/// The in-memory disk used by the deterministic simulator.
///
/// The handle is a cheap clone sharing one underlying disk — a restarted
/// replica process reopens the same [`MemDisk`] its predecessor wrote.
///
/// # Examples
///
/// ```
/// use bayou_storage::{MemDisk, Storage};
///
/// let mut disk = MemDisk::new();
/// disk.append("wal", b"abc").unwrap();
/// disk.sync().unwrap();
/// disk.append("wal", b"def").unwrap(); // never synced
/// disk.crash(0);                        // torn tail: unsynced bytes at risk
/// let data = disk.read("wal").unwrap();
/// assert!(data.starts_with(b"abc") && data.len() <= 6);
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemDisk(Arc<Mutex<MemDiskInner>>);

impl MemDisk {
    /// Creates an empty disk.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the simulated latency charged per `sync` (pure accounting;
    /// query the total via [`MemDisk::stats`]).
    pub fn set_fsync_latency(&self, latency: VirtualTime) {
        self.0.lock().fsync_latency = latency;
    }

    /// Cumulative I/O statistics.
    pub fn stats(&self) -> DiskStats {
        self.0.lock().stats
    }

    /// Simulates a crash: for every file, the unsynced suffix is cut at
    /// a pseudo-random point derived from `seed` — possibly mid-record,
    /// leaving a torn tail for recovery to detect and discard. Synced
    /// bytes are never lost.
    pub fn crash(&self, seed: u64) {
        let mut inner = self.0.lock();
        let mut x = seed | 1;
        for file in inner.files.values_mut() {
            // xorshift64*: deterministic, dependency-free
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            let r = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let unsynced = file.data.len() - file.synced_len;
            if unsynced > 0 {
                let keep = (r as usize) % (unsynced + 1);
                file.data.truncate(file.synced_len + keep);
            }
        }
    }

    /// Truncates one file to exactly `len` bytes (targeted fault
    /// injection for tests; ignores the durability line).
    pub fn truncate(&self, file: &str, len: usize) {
        let mut inner = self.0.lock();
        if let Some(f) = inner.files.get_mut(file) {
            f.data.truncate(len);
            f.synced_len = f.synced_len.min(len);
        }
    }

    /// Total bytes currently stored across all files.
    pub fn total_bytes(&self) -> usize {
        self.0.lock().files.values().map(|f| f.data.len()).sum()
    }

    /// Deep-copies the disk into an independent one (unlike `clone`,
    /// which shares). Useful for what-if recovery probes and benchmarks
    /// that must not mutate the original.
    pub fn fork(&self) -> MemDisk {
        let inner = self.0.lock();
        let copy = MemDiskInner {
            files: inner
                .files
                .iter()
                .map(|(k, f)| {
                    (
                        k.clone(),
                        MemFile {
                            data: f.data.clone(),
                            synced_len: f.synced_len,
                        },
                    )
                })
                .collect(),
            fsync_latency: inner.fsync_latency,
            stats: inner.stats,
            unclaimed_stall: inner.unclaimed_stall,
        };
        MemDisk(Arc::new(Mutex::new(copy)))
    }
}

impl Storage for MemDisk {
    fn append(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let mut inner = self.0.lock();
        inner.stats.appended_bytes += bytes.len() as u64;
        // an existing file is found by `&str`: the steady-state append
        // allocates no key
        match inner.files.get_mut(file) {
            Some(f) => f.data.extend_from_slice(bytes),
            None => {
                let f = inner.files.entry(file.to_string()).or_default();
                f.data.extend_from_slice(bytes);
            }
        }
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        let mut inner = self.0.lock();
        inner.stats.syncs += 1;
        let latency = inner.fsync_latency;
        inner.stats.sync_time += latency;
        inner.unclaimed_stall += latency;
        for f in inner.files.values_mut() {
            f.synced_len = f.data.len();
        }
        Ok(())
    }

    fn take_sync_stall(&mut self) -> VirtualTime {
        std::mem::take(&mut self.0.lock().unclaimed_stall)
    }

    fn read(&self, file: &str) -> Result<Vec<u8>, StorageError> {
        self.0
            .lock()
            .files
            .get(file)
            .map(|f| f.data.clone())
            .ok_or_else(|| StorageError::NotFound(file.to_string()))
    }

    fn write_atomic(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let mut inner = self.0.lock();
        inner.stats.appended_bytes += bytes.len() as u64;
        let f = inner.files.entry(file.to_string()).or_default();
        f.data = bytes.to_vec();
        f.synced_len = f.data.len();
        Ok(())
    }

    fn remove(&mut self, file: &str) -> Result<(), StorageError> {
        self.0.lock().files.remove(file);
        Ok(())
    }

    fn exists(&self, file: &str) -> bool {
        self.0.lock().files.contains_key(file)
    }

    fn list(&self) -> Vec<String> {
        self.0.lock().files.keys().cloned().collect()
    }
}

/// Counts the `read`/`write` calls made through it — with an unbuffered
/// `inner` (a file, a socket), its system calls. The count is an
/// always-on atomic, shared through the `Arc`, so a running process can
/// report how many calls each of its I/O paths makes per operation.
#[derive(Debug)]
pub struct Counted<T> {
    inner: T,
    calls: Arc<AtomicU64>,
}

impl<T> Counted<T> {
    /// Wraps `inner`, adding each call to `calls`.
    pub fn new(inner: T, calls: Arc<AtomicU64>) -> Self {
        Counted { inner, calls }
    }

    /// The wrapped reader or writer.
    pub fn get_ref(&self) -> &T {
        &self.inner
    }
}

impl<T: Read> Read for Counted<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.read(buf)
    }
}

impl<T: Write> Write for Counted<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// A directory of real files (`std::fs`), for the live runtime.
///
/// `append` buffers: the bytes reach the operating system at the next
/// [`Storage::flush`] or `sync`, so the handler steps one barrier covers
/// cost one `write(2)`, issued before any of their output leaves.
/// Appends to a different file than the buffered one flush the buffer
/// first, so each file sees its bytes in order. `sync` flushes, then
/// fsyncs every file written since the previous sync. `write_atomic`
/// writes a temporary file, fsyncs it and renames it into place.
/// Dropping the storage flushes what is still buffered. Every
/// `write(2)` that hands appended bytes to the OS is counted
/// ([`FileStorage::count_writes_in`]).
#[derive(Debug)]
pub struct FileStorage {
    root: PathBuf,
    /// Open append handles, with whether the file was written since the
    /// last sync.
    open: BTreeMap<String, (std::fs::File, bool)>,
    /// Appended bytes not yet handed to the OS, all for `buffered_file`.
    buffer: Vec<u8>,
    buffered_file: String,
    /// The `write(2)` calls that handed appended bytes to the OS.
    writes: Arc<AtomicU64>,
}

impl FileStorage {
    /// Opens (creating if needed) a storage directory.
    pub fn open(root: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(FileStorage {
            root,
            open: BTreeMap::new(),
            buffer: Vec::new(),
            buffered_file: String::new(),
            writes: Arc::default(),
        })
    }

    /// Counts this storage's appending `write(2)` calls in `writes`
    /// (builder style) — one counter can sum several storages, and
    /// outlive them across restarts.
    pub fn count_writes_in(mut self, writes: Arc<AtomicU64>) -> Self {
        self.writes = writes;
        self
    }

    fn path(&self, file: &str) -> PathBuf {
        self.root.join(file)
    }

    /// Fsyncs the directory itself, making file creations and renames
    /// durable: without this, an OS crash can roll back a rename that
    /// `write_atomic` already reported durable. (Directory handles are
    /// not syncable on all platforms; on non-Unix this is best-effort.)
    fn sync_dir(&self) -> Result<(), StorageError> {
        match std::fs::File::open(&self.root) {
            Ok(dir) => {
                if cfg!(unix) {
                    dir.sync_all()?;
                }
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }
}

impl Drop for FileStorage {
    fn drop(&mut self) {
        let _ = self.flush();
    }
}

impl Storage for FileStorage {
    fn append(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        if !self.open.contains_key(file) {
            let created = !self.path(file).exists();
            let fh = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.path(file))?;
            if created {
                // the new directory entry must survive a crash too
                self.sync_dir()?;
            }
            self.open.insert(file.to_string(), (fh, false));
        }
        if self.buffered_file != file {
            self.flush()?;
            self.buffered_file.clear();
            self.buffered_file.push_str(file);
        }
        self.buffer.extend_from_slice(bytes);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StorageError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        if let Some((fh, written)) = self.open.get_mut(&self.buffered_file) {
            Counted::new(fh, Arc::clone(&self.writes)).write_all(&self.buffer)?;
            *written = true;
        }
        self.buffer.clear();
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.flush()?;
        for (fh, written) in self.open.values_mut() {
            if std::mem::take(written) {
                fh.sync_data()?;
            }
        }
        Ok(())
    }

    fn read(&self, file: &str) -> Result<Vec<u8>, StorageError> {
        match std::fs::read(self.path(file)) {
            Ok(mut data) => {
                if self.buffered_file == file {
                    data.extend_from_slice(&self.buffer);
                }
                Ok(data)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                Err(StorageError::NotFound(file.to_string()))
            }
            Err(e) => Err(e.into()),
        }
    }

    fn write_atomic(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let tmp = self.path(&format!("{file}.tmp"));
        {
            let mut fh = std::fs::File::create(&tmp)?;
            fh.write_all(bytes)?;
            fh.sync_data()?;
        }
        std::fs::rename(&tmp, self.path(file))?;
        // fsync the directory so the rename itself is durable — the
        // manifest switch is only "old or new, never a mix" if the new
        // directory entry cannot be rolled back by an OS crash
        self.sync_dir()?;
        Ok(())
    }

    fn remove(&mut self, file: &str) -> Result<(), StorageError> {
        if self.buffered_file == file {
            self.buffer.clear();
        }
        self.open.remove(file);
        match std::fs::remove_file(self.path(file)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn exists(&self, file: &str) -> bool {
        self.path(file).exists()
    }

    fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(&self.root)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter(|e| e.path().is_file())
                    .filter_map(|e| e.file_name().into_string().ok())
                    .filter(|n| !n.ends_with(".tmp"))
                    .collect()
            })
            .unwrap_or_default();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_storage_retains_nothing() {
        let mut s = NullStorage;
        s.append("x", b"data").unwrap();
        assert!(!s.is_durable());
        assert!(!s.exists("x"));
        assert!(s.read("x").is_err());
        assert!(s.list().is_empty());
    }

    #[test]
    fn mem_disk_round_trip_and_sharing() {
        let mut a = MemDisk::new();
        let mut b = a.clone();
        a.append("f", b"one").unwrap();
        b.append("f", b"two").unwrap();
        assert_eq!(a.read("f").unwrap(), b"onetwo");
        assert_eq!(a.list(), vec!["f".to_string()]);
        b.remove("f").unwrap();
        assert!(!a.exists("f"));
    }

    #[test]
    fn mem_disk_crash_preserves_synced_prefix_only() {
        let mut d = MemDisk::new();
        d.append("wal", b"synced!").unwrap();
        d.sync().unwrap();
        d.append("wal", b"-unsynced-tail").unwrap();
        // probe independent forks: every seed keeps the synced prefix
        // and at most the unsynced tail
        let mut tail_lengths = std::collections::BTreeSet::new();
        for seed in 0..50 {
            let probe = d.fork();
            probe.crash(seed);
            let data = probe.read("wal").unwrap();
            assert!(
                data.starts_with(b"synced!"),
                "synced data lost (seed {seed})"
            );
            assert!(data.len() <= b"synced!-unsynced-tail".len());
            tail_lengths.insert(data.len());
        }
        assert!(tail_lengths.len() > 1, "tear point varies with the seed");
        // crash on the shared disk itself
        d.crash(7);
        let after = d.read("wal").unwrap();
        assert!(after.starts_with(b"synced!"));
    }

    #[test]
    fn mem_disk_write_atomic_is_durable() {
        let mut d = MemDisk::new();
        d.write_atomic("m", b"v1").unwrap();
        d.crash(3);
        assert_eq!(d.read("m").unwrap(), b"v1");
    }

    #[test]
    fn mem_disk_accounts_io() {
        let mut d = MemDisk::new();
        d.set_fsync_latency(VirtualTime::from_micros(100));
        d.append("f", b"1234").unwrap();
        d.sync().unwrap();
        d.sync().unwrap();
        let s = d.stats();
        assert_eq!(s.appended_bytes, 4);
        assert_eq!(s.syncs, 2);
        assert_eq!(s.sync_time, VirtualTime::from_micros(200));
    }

    #[test]
    fn file_storage_round_trip() {
        let dir = std::env::temp_dir().join(format!("bayou-storage-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = FileStorage::open(&dir).unwrap();
        s.append("wal-1", b"abc").unwrap();
        s.append("wal-1", b"def").unwrap();
        // buffered until the flush, yet readable through the storage
        assert!(std::fs::read(dir.join("wal-1")).unwrap().is_empty());
        assert_eq!(s.read("wal-1").unwrap(), b"abcdef");
        s.flush().unwrap();
        assert_eq!(std::fs::read(dir.join("wal-1")).unwrap(), b"abcdef");
        s.sync().unwrap();
        s.write_atomic("MANIFEST", b"m1").unwrap();
        s.write_atomic("MANIFEST", b"m2").unwrap();
        assert_eq!(s.read("wal-1").unwrap(), b"abcdef");
        assert_eq!(s.read("MANIFEST").unwrap(), b"m2");
        assert_eq!(s.list(), vec!["MANIFEST".to_string(), "wal-1".to_string()]);
        s.remove("wal-1").unwrap();
        s.remove("wal-1").unwrap(); // idempotent
        assert!(!s.exists("wal-1"));
        assert!(matches!(s.read("wal-1"), Err(StorageError::NotFound(_))));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
