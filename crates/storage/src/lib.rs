//! Durable replica storage for the Bayou Revisited reproduction: a
//! segmented, checksummed write-ahead log, periodic state-object
//! snapshots, a tiny manifest, and crash recovery.
//!
//! Until this crate existed, every replica kept its tentative/committed
//! lists, state object and Paxos acceptor state purely in memory — a
//! crash lost everything, which even the original Bayou design (Terry et
//! al., SOSP '95) avoided with its durable write log. This subsystem
//! makes a replica's knowledge survive fail-stop crashes:
//!
//! * **WAL** — every durable fact (locally invoked request, remote
//!   request entering the tentative order, Paxos promise/accept/decide)
//!   is a framed, CRC-32-guarded [`WalRecord`] appended to the current
//!   segment and fsynced *within the same atomic handler step* that
//!   produced it, so nothing acknowledged or sent can be forgotten.
//! * **Snapshots** — every [`StoreConfig::snapshot_every`] commits the
//!   replica cuts a [`Snapshot`] from its own state and its TOB's
//!   durable image (the state object materialized at the committed
//!   prefix, encoded through the data type's `Wire` state codec from
//!   `bayou-data`), and the store writes it atomically; older segments
//!   are then deleted, so recovery replays a bounded suffix. The store
//!   keeps no copy of the state it persists.
//! * **Manifest** — a checksummed, atomically-replaced blob naming the
//!   live snapshot and segments; anything unreferenced is an orphan from
//!   an interrupted install and is deleted on open.
//! * **Recovery** — [`ReplicaStore::open`] reads back the raw material
//!   ([`Recovered`]): the snapshot as saved and the WAL suffix's records
//!   in log order. [`Recovered::replay`] feeds them through a fresh
//!   `PaxosTob` — the one place durable records become a delivery order
//!   — and yields the pending requests to re-submit and the dot and cast
//!   high-waters. The replica layer (`bayou_core::recover_paxos_replica`)
//!   turns the result into a running replica that rejoins via the
//!   existing cursor-deduplicated catch-up.
//!
//! Three [`Storage`] backends ship: [`NullStorage`] (no durability —
//! the previous behaviour), [`MemDisk`] (simulator: shared in-memory
//! disk with an explicit durability line, torn-tail crash injection and
//! accounted fsync latency) and [`FileStorage`] (`std::fs`, for the live
//! runtime). See `docs/STORAGE.md` for the on-disk format.
//!
//! # Examples
//!
//! ```
//! use bayou_data::{KvOp, KvStore};
//! use bayou_storage::{MemDisk, Persistence, ReplicaStore, StoreConfig};
//! use bayou_types::{Dot, Level, ReplicaId, Req, Timestamp};
//! use std::sync::Arc;
//!
//! let disk = MemDisk::new();
//! let (mut store, recovered) =
//!     ReplicaStore::<KvStore, _>::open(disk.clone(), 3, StoreConfig::default()).unwrap();
//! assert!(recovered.is_empty());
//!
//! let req = Arc::new(Req::new(
//!     Timestamp::new(1),
//!     Dot::new(ReplicaId::new(0), 1),
//!     Level::Weak,
//!     KvOp::put("k", 7),
//! ));
//! store.log_invoke(&req, 0).unwrap();
//! drop(store); // crash
//!
//! let (_store, recovered) =
//!     ReplicaStore::<KvStore, _>::open(disk, 3, StoreConfig::default()).unwrap();
//! assert_eq!(recovered.records.len(), 1); // the request survived
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod container;
mod crc;
mod manifest;
mod record;
mod shared;
mod snapshot;
mod store;

pub use backend::{Counted, DiskStats, FileStorage, MemDisk, NullStorage, Storage, StorageError};
pub use crc::crc32;
pub use manifest::{Manifest, MANIFEST_FILE};
pub use record::{
    frame, frame_into, scan_frames, FrameScan, WalRecord, WalRecordRef, FRAME_OVERHEAD,
};
pub use shared::{Prefixed, SharedBackend, SyncBarrier};
pub use snapshot::{AcceptedSlot, DecidedSlot, PendingKind, PendingReq, Snapshot};
pub use store::{NullPersistence, Persistence, Recovered, Replayed, ReplicaStore, StoreConfig};
