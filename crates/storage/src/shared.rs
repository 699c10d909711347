//! Sharing one physical store between replication groups.
//!
//! A process hosting N Bayou groups keeps one durable store (one
//! directory, one fsync pipeline) rather than N: every group's
//! [`crate::ReplicaStore`] writes through a [`SharedBackend`] handle to
//! the same underlying [`Storage`], with a [`Prefixed`] view namespacing
//! its WAL segments, snapshots and manifest under a per-group file
//! prefix so recovery can tell the groups apart. Record-level sync
//! demands are funnelled into one [`SyncBarrier`] the *host* settles
//! once per runtime barrier — N groups dirtying the log in one step still
//! cost a single physical fsync, which is the whole point of sharing
//! the store (see `docs/ARCHITECTURE.md`, "Replication groups &
//! sharding").
//!
//! # Examples
//!
//! ```
//! use bayou_storage::{MemDisk, Prefixed, SharedBackend, Storage};
//! use bayou_types::GroupId;
//!
//! let shared = SharedBackend::new(MemDisk::new());
//! let mut a = Prefixed::new(shared.clone(), GroupId::new(0));
//! let mut b = Prefixed::new(shared.clone(), GroupId::new(1));
//! a.append("wal-0", b"aa").unwrap();
//! b.append("wal-0", b"bb").unwrap();
//! // each group sees only its own files, unprefixed…
//! assert_eq!(a.list(), vec!["wal-0".to_string()]);
//! assert_eq!(a.read("wal-0").unwrap(), b"aa");
//! assert_eq!(b.read("wal-0").unwrap(), b"bb");
//! // …while the physical store holds both, namespaced
//! assert_eq!(shared.list().len(), 2);
//! ```

use crate::backend::{Storage, StorageError};
use bayou_types::{GroupId, VirtualTime};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A cloneable [`Storage`] handle: every clone writes to the same
/// underlying backend, serialized by a mutex. This is how N per-group
/// stores inside one process share one physical store — the lock is
/// uncontended there (all groups run on the host's single step loop),
/// it exists so the handle satisfies the owning `Storage` signatures.
#[derive(Debug)]
pub struct SharedBackend<B: Storage> {
    inner: Arc<Mutex<B>>,
}

impl<B: Storage> Clone for SharedBackend<B> {
    fn clone(&self) -> Self {
        SharedBackend {
            inner: self.inner.clone(),
        }
    }
}

impl<B: Storage> SharedBackend<B> {
    /// Wraps `backend` in a shared handle.
    pub fn new(backend: B) -> Self {
        SharedBackend {
            inner: Arc::new(Mutex::new(backend)),
        }
    }

    /// Runs `f` with the underlying backend (inspection in tests).
    pub fn with<R>(&self, f: impl FnOnce(&mut B) -> R) -> R {
        f(&mut self.inner.lock().expect("shared backend poisoned"))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, B> {
        self.inner.lock().expect("shared backend poisoned")
    }
}

impl<B: Storage> Storage for SharedBackend<B> {
    fn append(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.lock().append(file, bytes)
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        self.lock().sync()
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        self.lock().flush()
    }
    fn read(&self, file: &str) -> Result<Vec<u8>, StorageError> {
        self.lock().read(file)
    }
    fn write_atomic(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.lock().write_atomic(file, bytes)
    }
    fn remove(&mut self, file: &str) -> Result<(), StorageError> {
        self.lock().remove(file)
    }
    fn exists(&self, file: &str) -> bool {
        self.lock().exists(file)
    }
    fn list(&self) -> Vec<String> {
        self.lock().list()
    }
    fn is_durable(&self) -> bool {
        self.lock().is_durable()
    }
    fn take_sync_stall(&mut self) -> VirtualTime {
        self.lock().take_sync_stall()
    }
}

/// Formats the file-name prefix that namespaces `group` inside a shared
/// store. Fixed-width so listings sort groups in index order.
fn group_prefix(group: GroupId) -> String {
    format!("g{:04}-", group.as_u32())
}

/// A per-group view of a shared store: every file name is transparently
/// prefixed with `g{index:04}-`, so N groups keep disjoint WAL
/// segments, snapshots and manifests inside one physical store, and
/// recovery of group *k* sees exactly the files group *k* wrote.
#[derive(Debug, Clone)]
pub struct Prefixed<S: Storage> {
    inner: S,
    prefix: String,
    /// The prefixed name of the last append, rebuilt in place: the
    /// steady-state append allocates no name.
    append_name: String,
}

impl<S: Storage> Prefixed<S> {
    /// Creates the view of `group` over `inner`.
    pub fn new(inner: S, group: GroupId) -> Self {
        Prefixed {
            inner,
            prefix: group_prefix(group),
            append_name: String::new(),
        }
    }

    fn name(&self, file: &str) -> String {
        let mut full = String::with_capacity(self.prefix.len() + file.len());
        full.push_str(&self.prefix);
        full.push_str(file);
        full
    }
}

impl<S: Storage> Storage for Prefixed<S> {
    fn append(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.append_name.clear();
        self.append_name.push_str(&self.prefix);
        self.append_name.push_str(file);
        self.inner.append(&self.append_name, bytes)
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        self.inner.sync()
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        self.inner.flush()
    }
    fn read(&self, file: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.read(&self.name(file))
    }
    fn write_atomic(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.inner.write_atomic(&self.name(file), bytes)
    }
    fn remove(&mut self, file: &str) -> Result<(), StorageError> {
        self.inner.remove(&self.name(file))
    }
    fn exists(&self, file: &str) -> bool {
        self.inner.exists(&self.name(file))
    }
    fn list(&self) -> Vec<String> {
        self.inner
            .list()
            .into_iter()
            .filter_map(|name| name.strip_prefix(&self.prefix).map(str::to_string))
            .collect()
    }
    fn is_durable(&self) -> bool {
        self.inner.is_durable()
    }
    fn take_sync_stall(&mut self) -> VirtualTime {
        self.inner.take_sync_stall()
    }
}

/// The shared group-commit barrier of a multi-group host.
///
/// Per-group stores registered on a barrier
/// ([`crate::ReplicaStore::defer_sync_to_barrier`]) mark it dirty
/// instead of tracking their own deferred sync; at each runtime barrier
/// (`Process::barrier`) the host [`SyncBarrier::settle`]s it and — if any
/// group dirtied the shared log — issues **one** physical sync for all
/// of them, before any buffered message or response leaves the process.
/// The write-ahead contract is the same as with one group.
#[derive(Debug, Default)]
pub struct SyncBarrier {
    dirty: AtomicBool,
}

impl SyncBarrier {
    /// Creates a clean barrier.
    pub fn new() -> Self {
        SyncBarrier::default()
    }

    /// Records that unsynced bytes were appended to the shared log.
    pub fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Relaxed);
    }

    /// Whether a sync is owed.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Relaxed)
    }

    /// Clears the barrier, returning whether a sync was owed. The caller
    /// must follow a `true` with one physical sync of the shared
    /// backend.
    pub fn settle(&self) -> bool {
        self.dirty.swap(false, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemDisk;

    #[test]
    fn prefixed_views_are_disjoint() {
        let shared = SharedBackend::new(MemDisk::new());
        let mut a = Prefixed::new(shared.clone(), GroupId::new(0));
        let mut b = Prefixed::new(shared.clone(), GroupId::new(1));
        a.append("wal-00000001", b"aaa").unwrap();
        a.write_atomic("MANIFEST", b"ma").unwrap();
        b.append("wal-00000001", b"bbbb").unwrap();
        b.write_atomic("MANIFEST", b"mb").unwrap();

        assert_eq!(a.read("wal-00000001").unwrap(), b"aaa");
        assert_eq!(b.read("wal-00000001").unwrap(), b"bbbb");
        assert_eq!(a.read("MANIFEST").unwrap(), b"ma");
        assert_eq!(b.read("MANIFEST").unwrap(), b"mb");
        assert_eq!(
            a.list(),
            vec!["MANIFEST".to_string(), "wal-00000001".to_string()]
        );
        assert!(a.exists("MANIFEST") && !a.exists("nope"));

        // removal in one group leaves the other untouched
        a.remove("wal-00000001").unwrap();
        assert!(!a.exists("wal-00000001"));
        assert!(b.exists("wal-00000001"));

        // the physical store holds the union, namespaced
        let all = shared.list();
        assert!(all.contains(&"g0000-MANIFEST".to_string()));
        assert!(all.contains(&"g0001-wal-00000001".to_string()));
    }

    #[test]
    fn shared_backend_clones_alias_one_store() {
        let shared = SharedBackend::new(MemDisk::new());
        let mut h1 = shared.clone();
        let h2 = shared.clone();
        h1.append("f", b"x").unwrap();
        assert_eq!(h2.read("f").unwrap(), b"x");
        assert!(h2.is_durable());
    }

    #[test]
    fn barrier_settles_once() {
        let barrier = SyncBarrier::new();
        assert!(!barrier.is_dirty());
        assert!(!barrier.settle());
        barrier.mark_dirty();
        barrier.mark_dirty();
        assert!(barrier.is_dirty());
        assert!(barrier.settle());
        assert!(!barrier.settle(), "one settle clears the debt");
    }
}
