//! The storage engine: a segmented WAL plus snapshots behind the
//! [`Persistence`] hooks a replica calls, and the recovery path that
//! turns the surviving bytes back into a replica.
//!
//! # Write path
//!
//! Every hook appends one framed, checksummed record to the current
//! segment — encode, frame, hand to the backend, nothing else: the store
//! keeps no copy of what the records say. The fsync those records demand
//! is paid once, at the *barrier* ([`Persistence::sync_step`]) — group
//! commit. The replica calls the hooks *inside* its atomic handler
//! steps; the runtime calls the barrier (`Process::barrier`, after every
//! handler in the simulator, once per wake live) before any message or
//! response those steps produced leaves the process, so a fact is on
//! disk before its effects escape. Code that drives the hooks directly
//! owes the barrier itself. Segments rotate at a size threshold.
//!
//! Every [`StoreConfig::snapshot_every`] commits a snapshot is due
//! ([`Persistence::snapshot_due`]): the replica cuts the image from its
//! own state and its TOB endpoint and hands it to
//! [`Persistence::save_snapshot`], which writes it atomically, switches
//! the manifest over and deletes all older files.
//!
//! # Recovery path
//!
//! [`ReplicaStore::open`] reads the manifest, decodes the snapshot (if
//! any) and scans the WAL suffix segment by segment — stopping each
//! segment's scan at the first torn or checksum-failing frame — into the
//! [`Recovered`] raw material, deriving nothing. [`Recovered::replay`]
//! is the only code that turns those records into a delivery order: it
//! installs the snapshot's mark on a fresh `PaxosTob`, restores it from
//! the snapshot's TOB image and the WAL's TOB facts, and keeps the
//! logged requests the restored TOB does not report decided.

use crate::backend::{Storage, StorageError};
use crate::manifest::Manifest;
use crate::record::{frame_into, scan_frames, FrameScan, WalRecord, WalRecordRef};
use crate::snapshot::{PendingKind, Snapshot};
use bayou_broadcast::{BaselineMark, PaxosTob, Tob, TobEvent};
use bayou_data::DataType;
use bayou_types::{BufPool, ReplicaId, SharedReq, VirtualTime, Wire};
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Arc;

const SEGMENT_MAGIC: &[u8; 4] = b"BSEG";
const SEGMENT_VERSION: u32 = 1;
const SEGMENT_HEADER_LEN: usize = 16;

fn segment_name(seq: u64) -> String {
    format!("wal-{seq:08}")
}

fn snapshot_name(seq: u64) -> String {
    format!("snap-{seq:08}")
}

fn segment_header(seq: u64) -> Vec<u8> {
    let mut h = Vec::with_capacity(SEGMENT_HEADER_LEN);
    h.extend_from_slice(SEGMENT_MAGIC);
    SEGMENT_VERSION.encode(&mut h);
    seq.encode(&mut h);
    h
}

/// Tuning of a [`ReplicaStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Commits between snapshots (the snapshot cadence).
    pub snapshot_every: u64,
    /// Segment size threshold that triggers rotation, in bytes.
    pub segment_max_bytes: usize,
    /// Whether every record demands an fsync (`true`, the safe default)
    /// or only rotation/snapshot boundaries do (faster, loses the
    /// unsynced suffix on crash — still recoverable thanks to the frame
    /// checksums).
    ///
    /// Record syncs are *group-committed*: a demand marks the store
    /// dirty and the *barrier* ([`Persistence::sync_step`]) pays it, so
    /// every record the steps it covers write — an invocation, a batch
    /// of tentative requests, a frame's worth of TOB decisions — shares
    /// one fsync. The runtime invokes the barrier before any message or
    /// response produced by those steps leaves, so the durability
    /// contract ("a fact is on disk before its effects escape") is
    /// exactly the per-record one. Code that drives the hooks directly,
    /// without a runtime, calls `sync_step()` wherever it needs
    /// durability.
    pub sync_every_record: bool,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            snapshot_every: 64,
            segment_max_bytes: 256 * 1024,
            sync_every_record: true,
        }
    }
}

/// The persistence hooks a replica drives. Every hook defaults to doing
/// nothing, which is [`NullPersistence`].
///
/// Every hook returns a typed [`StorageError`] on failure instead of
/// panicking: a replica that cannot persist must **crash-stop** — stop
/// acknowledging work and go silent, exactly as if its process had died
/// (fail-stop is the crash model this subsystem exists to survive) — and
/// unwinding through channel and lock state is not a clean way to die.
/// The replica reacts to the first `Err` by entering its failed state
/// (`BayouReplica::failure`); runtimes treat a failed replica as
/// crashed.
pub trait Persistence<F: DataType> {
    /// Logs a locally invoked request (before it is broadcast), with the
    /// dense TOB-cast sequence number it was assigned.
    fn log_invoke(&mut self, req: &SharedReq<F::Op>, tob_seq: u64) -> Result<(), StorageError> {
        let _ = (req, tob_seq);
        Ok(())
    }

    /// Logs a remote request entering the tentative order. The caller
    /// skips requests its TOB already decided.
    fn log_tentative(&mut self, req: &SharedReq<F::Op>, tob_seq: u64) -> Result<(), StorageError> {
        let _ = (req, tob_seq);
        Ok(())
    }

    /// Logs the TOB layer's durable transitions from one handler step,
    /// one record each, and hands the emptied buffer back so the caller
    /// keeps its capacity for the next step.
    #[allow(clippy::type_complexity)]
    fn log_tob_events(
        &mut self,
        mut events: Vec<TobEvent<SharedReq<F::Op>>>,
    ) -> Result<Vec<TobEvent<SharedReq<F::Op>>>, StorageError> {
        events.clear();
        Ok(events)
    }

    /// Counts one TOB delivery toward the snapshot cadence: a
    /// [`Persistence::log_commit_batch`] of one.
    fn note_commit(&mut self, req: &SharedReq<F::Op>) -> Result<(), StorageError> {
        self.log_commit_batch(std::slice::from_ref(req))
    }

    /// Counts a whole TOB delivery batch toward the snapshot cadence.
    /// Commits write no record (the decisions behind them are already
    /// logged); once the cadence runs out, [`Persistence::snapshot_due`]
    /// holds until the next snapshot is saved.
    fn log_commit_batch(&mut self, reqs: &[SharedReq<F::Op>]) -> Result<(), StorageError> {
        let _ = reqs;
        Ok(())
    }

    /// Whether the snapshot cadence ran out: the replica then cuts a
    /// snapshot image from its own state and hands it to
    /// [`Persistence::save_snapshot`] within the same step. Never true
    /// for hook-less implementations.
    fn snapshot_due(&self) -> bool {
        false
    }

    /// Writes `image` as the new snapshot: installs it in the manifest
    /// and deletes every older file — including every WAL byte below the
    /// image's compaction mark, whose only summary from then on is the
    /// mark and its baseline. Restarts the snapshot cadence.
    fn save_snapshot(&mut self, image: &Snapshot<F>) -> Result<(), StorageError> {
        let _ = image;
        Ok(())
    }

    /// Drains the simulated fsync stall accrued by the backing storage
    /// since the last call (see [`Storage::take_sync_stall`]).
    fn take_sync_stall(&mut self) -> VirtualTime {
        VirtualTime::ZERO
    }

    /// The barrier of group commit: hands the records logged since the
    /// last barrier to the backend ([`Storage::flush`]) and makes them
    /// durable with (at most) one fsync. The runtime's barrier
    /// (`Process::barrier`) calls this *before* the covered steps'
    /// buffered messages and responses leave — so the per-record
    /// durability contract ([`StoreConfig::sync_every_record`]) is
    /// preserved while all those steps pay a single sync.
    fn sync_step(&mut self) -> Result<(), StorageError> {
        Ok(())
    }

    /// Drains the number of physical fsync barriers (`Storage::sync` and
    /// atomic writes) issued since the previous call — measurement
    /// plumbing for the fsyncs/op counter in `bayou_sim::Metrics`.
    /// Hook-less implementations report zero.
    fn take_fsyncs(&mut self) -> u64 {
        0
    }
}

/// A [`Persistence`] that does nothing: the default for replicas without
/// durability (exactly the pre-storage behaviour).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullPersistence;

impl<F: DataType> Persistence<F> for NullPersistence {}

/// What [`ReplicaStore::open`] read back: the raw material of recovery,
/// with nothing derived from it yet. [`Recovered::replay`] turns it into
/// a delivery order, through a TOB.
#[derive(Debug)]
pub struct Recovered<F: DataType> {
    /// The snapshot as it was saved (`None` if there is none), its mark
    /// and `event_high` sized to the cluster: the state at `delivered`,
    /// the mark and its baseline, the pending list and the TOB image.
    pub snapshot: Option<Snapshot<F>>,
    /// The WAL suffix's records, in log order.
    pub records: Vec<WalRecord<F::Op>>,
    /// Whether any segment ended in a torn/corrupt frame that was
    /// discarded.
    pub torn_tail: bool,
    n: usize,
}

/// A store's durable records replayed through a TOB: what a replica is
/// rebuilt from ([`Recovered::replay`]).
#[derive(Debug)]
pub struct Replayed<F: DataType> {
    /// The deliveries the restored TOB released above the mark, in
    /// order: delivery `i` has absolute `tob_no == mark.delivered + i`.
    pub deliveries: Vec<SharedReq<F::Op>>,
    /// The snapshot's state, materialized at `state_delivered`
    /// (absolute, `>= mark.delivered`) deliveries.
    pub state: F::State,
    /// How many absolute deliveries `state` covers.
    pub state_delivered: u64,
    /// The compaction floor: the first `mark.delivered` deliveries were
    /// truncated; their combined effect is `baseline`.
    pub mark: BaselineMark,
    /// State materialized at exactly `mark.delivered` deliveries.
    pub baseline: F::State,
    /// Logged requests the restored TOB has not decided:
    /// `(kind, tob_seq, request)`, sorted by request id.
    pub pending: Vec<(PendingKind, u64, SharedReq<F::Op>)>,
    /// Per-replica high-water `event_no` over every request the store
    /// ever saw, compacted ones included.
    pub event_high: Vec<u64>,
    /// Per-sender next unused TOB-cast number: one past every cast the
    /// records show, and at least the mark's cursor. A cast of ours can
    /// be decided while an earlier one is still undecided (FIFO-blocked),
    /// so this counts every fact, not only the released deliveries.
    pub cast_next: Vec<u64>,
}

/// Raises `high[who]` to at least `to`.
fn raise(high: &mut [u64], who: ReplicaId, to: u64) {
    if let Some(h) = high.get_mut(who.index()) {
        *h = (*h).max(to);
    }
}

impl<F: DataType> Recovered<F> {
    /// Whether the store held any durable facts at all.
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.records.is_empty()
    }

    /// Replays the durable records through `tob`, a fresh endpoint, in
    /// one pass over the saved snapshot and then the WAL in log order:
    /// the mark is installed first, the TOB facts feed
    /// `PaxosTob::restore` — the deliveries come from the TOB alone —
    /// the logged requests the restored TOB does not report decided
    /// become the pending list, and every fact raises the dot and cast
    /// high-waters.
    pub fn replay(self, tob: &mut PaxosTob<SharedReq<F::Op>>) -> Replayed<F> {
        // a store without a snapshot restores no ballot: any fact at all
        // mutes a restored lease, and a fresh store has none
        let saved_ballot = self.snapshot.is_some();
        let Snapshot {
            delivered,
            state,
            promised: (round, leader),
            accepted,
            decided,
            pending: saved,
            mark,
            baseline,
            mut event_high,
        } = (self.snapshot).unwrap_or_else(|| Snapshot::empty(self.n));
        let mut cast_next = mark.fifo_next.clone();
        let mut pending = BTreeMap::new();
        let saved = saved.into_iter().map(|(kind, tob_seq, req)| match kind {
            PendingKind::Invoke => WalRecord::Invoke { tob_seq, req },
            PendingKind::Tentative => WalRecord::Tentative { tob_seq, req },
        });
        let promised = saved_ballot.then_some(WalRecord::Promised { round, leader });
        let accepted = (accepted.into_iter()).map(|(slot, round, leader, sender, seq, req)| {
            WalRecord::Accepted {
                slot,
                round,
                leader,
                sender,
                seq,
                req,
            }
        });
        let decided = (decided.into_iter()).map(|(slot, sender, seq, req)| WalRecord::Decided {
            slot,
            sender,
            seq,
            req,
        });
        let records = saved
            .chain(promised)
            .chain(accepted)
            .chain(decided)
            .chain(self.records);
        let facts = records.filter_map(|rec| {
            let (kind, tob_seq, req) = match rec {
                WalRecord::Invoke { tob_seq, req } => (PendingKind::Invoke, tob_seq, req),
                WalRecord::Tentative { tob_seq, req } => (PendingKind::Tentative, tob_seq, req),
                fact => {
                    if let WalRecord::Accepted {
                        sender, seq, req, ..
                    }
                    | WalRecord::Decided {
                        sender, seq, req, ..
                    } = &fact
                    {
                        raise(&mut event_high, req.origin(), req.id().event_no());
                        raise(&mut cast_next, *sender, seq + 1);
                    }
                    return fact.into_tob_event();
                }
            };
            raise(&mut event_high, req.origin(), req.id().event_no());
            raise(&mut cast_next, req.origin(), tob_seq + 1);
            let req = Arc::new(req);
            // an invocation record supersedes a relayed copy of the request
            if kind == PendingKind::Invoke {
                pending.insert(req.id(), (kind, tob_seq, req));
            } else {
                pending.entry(req.id()).or_insert((kind, tob_seq, req));
            }
            None
        });
        tob.install_baseline(&mark);
        let deliveries = tob.restore(facts).into_iter().map(|d| d.payload).collect();
        let pending = (pending.into_values())
            .filter(|(_, seq, req)| !tob.is_decided(req.origin(), *seq))
            .collect();
        Replayed {
            deliveries,
            state,
            state_delivered: delivered,
            mark,
            baseline,
            pending,
            event_high,
            cast_next,
        }
    }
}

/// The per-replica durable store. See the module docs for the write and
/// recovery paths.
pub struct ReplicaStore<F: DataType, B: Storage> {
    backend: B,
    enabled: bool,
    cfg: StoreConfig,
    n: usize,
    manifest: Manifest,
    current_segment_len: usize,
    commits_since_snapshot: u64,
    snapshots_written: u64,
    /// Physical fsync barriers issued since the last
    /// [`Persistence::take_fsyncs`] drain.
    fsyncs: u64,
    /// Group commit: records appended since the last sync barrier
    /// (deferred syncs owed to the next [`Persistence::sync_step`]).
    dirty: bool,
    /// When set, record-level sync demands are routed to this shared
    /// barrier instead of the store's own `dirty` flag, and
    /// [`Persistence::sync_step`] becomes a no-op — the multi-group host
    /// settles the barrier with one physical sync for all groups
    /// sharing the backend (see [`crate::SyncBarrier`]).
    barrier: Option<Arc<crate::shared::SyncBarrier>>,
    /// Reusable encode buffers: WAL record framing and snapshot encoding
    /// check buffers out of here instead of allocating per record, so a
    /// steady-state append allocates nothing
    /// (`core/tests/alloc_regression.rs`).
    enc_pool: BufPool,
    _data: PhantomData<fn() -> F>,
}

impl<F, B> ReplicaStore<F, B>
where
    F: DataType,
    F::Op: Wire,
    F::State: Wire,
    B: Storage,
{
    /// Opens (or creates) a replica's store on `backend` for a cluster of
    /// `n` replicas, recovering whatever survives in it.
    pub fn open(
        backend: B,
        n: usize,
        cfg: StoreConfig,
    ) -> Result<(Self, Recovered<F>), StorageError> {
        let mut store = ReplicaStore {
            enabled: backend.is_durable(),
            backend,
            cfg,
            n,
            manifest: Manifest::default(),
            current_segment_len: 0,
            commits_since_snapshot: 0,
            snapshots_written: 0,
            fsyncs: 0,
            dirty: false,
            barrier: None,
            enc_pool: BufPool::new(),
            _data: PhantomData,
        };
        if store.enabled {
            if let Some(manifest) = Manifest::load(&store.backend)? {
                manifest.remove_orphans(&mut store.backend)?;
                store.manifest = manifest;
            }
        }
        let recovered = store.read_back()?;
        if store.enabled {
            // never append to a possibly-torn tail: open a fresh segment
            store.rotate_segment()?;
        }
        Ok((store, recovered))
    }

    /// Reads the snapshot and the WAL suffix the manifest names.
    fn read_back(&self) -> Result<Recovered<F>, StorageError> {
        let mut rec = Recovered {
            snapshot: None,
            records: Vec::new(),
            torn_tail: false,
            n: self.n,
        };
        if let Some(name) = &self.manifest.snapshot {
            let mut snap = Snapshot::<F>::from_bytes(&self.backend.read(name)?)?;
            if (snap.decided.iter()).any(|(slot, ..)| *slot < snap.mark.slot_floor) {
                return Err(StorageError::Corrupt(
                    "snapshot decided slot below its own mark".into(),
                ));
            }
            if snap.mark.fifo_next.len() < self.n {
                snap.mark.fifo_next.resize(self.n, 0);
            }
            snap.event_high.resize(self.n, 0);
            rec.snapshot = Some(snap);
        }
        // scan the WAL suffix, one segment at a time
        for name in &self.manifest.segments {
            let data = match self.backend.read(name) {
                Ok(d) => d,
                Err(StorageError::NotFound(_)) => continue, // interrupted rotation
                Err(e) => return Err(e),
            };
            if data.len() < SEGMENT_HEADER_LEN || &data[..4] != SEGMENT_MAGIC {
                // a header that never made it to disk intact: an empty
                // segment from a crash during rotation
                rec.torn_tail = true;
                continue;
            }
            let scan: FrameScan<WalRecord<F::Op>> = scan_frames(&data[SEGMENT_HEADER_LEN..]);
            rec.torn_tail |= scan.torn;
            rec.records.extend(scan.records);
        }
        Ok(rec)
    }
}

impl<F, B> ReplicaStore<F, B>
where
    F: DataType,
    F::Op: Wire,
    F::State: Wire,
    B: Storage,
{
    /// Whether this store actually persists anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Number of snapshots written since open (diagnostics).
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots_written
    }

    /// The backend, for inspection (e.g. [`crate::MemDisk::stats`]).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Checkpoints the store's own files: replays the live snapshot and
    /// WAL suffix through a throwaway TOB ([`Recovered::replay`], as
    /// recovery does) and saves the result as the new snapshot. For code
    /// that drives the hooks without a replica to cut the image from
    /// (tests, benchmarks); a replica saves the image of its own state
    /// instead.
    pub fn write_snapshot(&mut self) -> Result<(), StorageError> {
        if !self.enabled {
            return Ok(());
        }
        self.backend.flush()?;
        let mut tob = PaxosTob::with_defaults(self.n);
        let replayed = self.read_back()?.replay(&mut tob);
        let covered = replayed.state_delivered - replayed.mark.delivered;
        let mut state = replayed.state;
        for req in replayed.deliveries.iter().skip(covered as usize) {
            F::apply(&mut state, &req.op);
        }
        let mut image = Snapshot {
            delivered: replayed.mark.delivered + replayed.deliveries.len() as u64,
            state,
            pending: (replayed.pending.iter())
                .map(|(kind, seq, req)| (*kind, *seq, req.as_ref().clone()))
                .collect(),
            mark: replayed.mark,
            baseline: replayed.baseline,
            event_high: replayed.event_high,
            ..Snapshot::empty(self.n)
        };
        image.set_tob_image(tob.durable_image(image.mark.slot_floor));
        self.save_snapshot(&image)
    }

    /// Syncs the backend, counting the physical barrier for the
    /// fsyncs/op measurement plumbing ([`Persistence::take_fsyncs`]) and
    /// settling any deferred group-commit sync.
    fn sync_backend(&mut self) -> Result<(), StorageError> {
        self.fsyncs += 1;
        self.dirty = false;
        self.backend.sync()
    }

    /// A record-level sync demand, deferred to the step barrier — the
    /// store's own by default, a host-shared [`crate::SyncBarrier`] when
    /// [`ReplicaStore::defer_sync_to_barrier`] routed it there.
    fn record_sync(&mut self) {
        match &self.barrier {
            Some(barrier) => barrier.mark_dirty(),
            None => self.dirty = true,
        }
    }

    /// Routes this store's group-commit sync debt to a shared barrier:
    /// from now on record-level sync demands mark `barrier` dirty and
    /// [`Persistence::sync_step`] is a no-op, because the multi-group
    /// host settles the barrier itself — once per runtime barrier, one
    /// write and at most one physical sync for every group sharing the
    /// backend, still before any output it covers leaves the process. Internal syncs at rotation and snapshot boundaries are
    /// unaffected (they sync the shared backend, which is sound — at
    /// worst another group's bytes ride along).
    pub fn defer_sync_to_barrier(&mut self, barrier: Arc<crate::shared::SyncBarrier>) {
        if self.dirty {
            // debt accrued before the handoff moves to the barrier
            barrier.mark_dirty();
            self.dirty = false;
        }
        self.barrier = Some(barrier);
    }

    /// Opens a fresh segment and makes it the append target.
    fn rotate_segment(&mut self) -> Result<(), StorageError> {
        let seq = self.manifest.next_file_seq;
        self.manifest.next_file_seq += 1;
        let name = segment_name(seq);
        self.backend.append(&name, &segment_header(seq))?;
        self.sync_backend()?;
        self.manifest.segments.push(name);
        self.manifest.store(&mut self.backend)?;
        self.fsyncs += 1; // the manifest switch is a write_atomic barrier
        self.current_segment_len = SEGMENT_HEADER_LEN;
        Ok(())
    }

    fn append_record(&mut self, rec: &WalRecordRef<'_, F::Op>) -> Result<(), StorageError> {
        self.append_record_with(rec, self.cfg.sync_every_record)
    }

    /// Appends one framed record; `demand_sync` is whether it owes the
    /// step barrier an fsync (multi-record hooks raise the demand once,
    /// after their last record).
    fn append_record_with(
        &mut self,
        rec: &WalRecordRef<'_, F::Op>,
        demand_sync: bool,
    ) -> Result<(), StorageError> {
        // pooled framing: the buffer is checked back in below, so the
        // steady-state append (encode + frame + write) allocates nothing
        let mut framed = self.enc_pool.checkout();
        frame_into(&mut framed, |out| rec.encode(out));
        // disjoint field borrows: the segment name stays in the manifest
        let append_res = match self.manifest.segments.last() {
            Some(segment) => self.backend.append(segment, &framed),
            None => Err(StorageError::Corrupt(
                "enabled store lost its open segment".into(),
            )),
        };
        let framed_len = framed.len();
        self.enc_pool.checkin(framed);
        append_res?;
        if demand_sync {
            self.record_sync();
        }
        self.current_segment_len += framed_len;
        if self.current_segment_len >= self.cfg.segment_max_bytes {
            self.sync_backend()?;
            self.rotate_segment()?;
        }
        Ok(())
    }
}

impl<F, B> Persistence<F> for ReplicaStore<F, B>
where
    F: DataType,
    F::Op: Wire,
    F::State: Wire,
    B: Storage,
{
    fn log_invoke(&mut self, req: &SharedReq<F::Op>, tob_seq: u64) -> Result<(), StorageError> {
        if !self.enabled {
            return Ok(());
        }
        self.append_record(&WalRecordRef::Invoke {
            tob_seq,
            req: req.as_ref(),
        })
    }

    fn log_tentative(&mut self, req: &SharedReq<F::Op>, tob_seq: u64) -> Result<(), StorageError> {
        if !self.enabled {
            return Ok(());
        }
        self.append_record(&WalRecordRef::Tentative {
            tob_seq,
            req: req.as_ref(),
        })
    }

    fn log_tob_events(
        &mut self,
        mut events: Vec<TobEvent<SharedReq<F::Op>>>,
    ) -> Result<Vec<TobEvent<SharedReq<F::Op>>>, StorageError> {
        if self.enabled && !events.is_empty() {
            for ev in &events {
                // one sync demand for the whole event batch, below
                self.append_record_with(&WalRecordRef::from_tob_event(ev), false)?;
            }
            if self.cfg.sync_every_record {
                self.record_sync();
            }
        }
        events.clear();
        Ok(events)
    }

    fn log_commit_batch(&mut self, reqs: &[SharedReq<F::Op>]) -> Result<(), StorageError> {
        self.commits_since_snapshot += reqs.len() as u64;
        Ok(())
    }

    fn snapshot_due(&self) -> bool {
        self.enabled && self.commits_since_snapshot >= self.cfg.snapshot_every
    }

    fn save_snapshot(&mut self, image: &Snapshot<F>) -> Result<(), StorageError> {
        if !self.enabled {
            return Ok(());
        }
        let old_files: Vec<String> = self
            .manifest
            .segments
            .drain(..)
            .chain(self.manifest.snapshot.take())
            .collect();

        let seq = self.manifest.next_file_seq;
        self.manifest.next_file_seq += 1;
        let snap_name = snapshot_name(seq);
        // pooled encode: reuse a checkout buffer instead of a fresh Vec
        let mut encoded = self.enc_pool.checkout();
        image.encode_into(&mut encoded);
        let write_res = self.backend.write_atomic(&snap_name, &encoded);
        self.enc_pool.checkin(encoded);
        write_res?;
        self.fsyncs += 1; // write_atomic is durable on return: one barrier
        self.manifest.snapshot = Some(snap_name);
        self.rotate_segment()?;
        for name in old_files {
            // best-effort: orphans are cleaned on the next open anyway
            let _ = self.backend.remove(&name);
        }
        self.commits_since_snapshot = 0;
        self.snapshots_written += 1;
        Ok(())
    }

    fn take_sync_stall(&mut self) -> VirtualTime {
        self.backend.take_sync_stall()
    }

    fn sync_step(&mut self) -> Result<(), StorageError> {
        // with a shared barrier the host hands over the step's appends
        // and pays its sync for every group at once
        if self.barrier.is_none() {
            if self.dirty {
                self.sync_backend()?;
            } else {
                self.backend.flush()?;
            }
        }
        Ok(())
    }

    fn take_fsyncs(&mut self) -> u64 {
        std::mem::take(&mut self.fsyncs)
    }
}

impl<F: DataType, B: Storage> std::fmt::Debug for ReplicaStore<F, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaStore")
            .field("enabled", &self.enabled)
            .field("commits_since_snapshot", &self.commits_since_snapshot)
            .field("segments", &self.manifest.segments)
            .field("snapshot", &self.manifest.snapshot)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{MemDisk, NullStorage};
    use bayou_data::{KvOp, KvStore};
    use bayou_types::{Dot, Level, Req, ReqId, Timestamp};

    type KvStore8 = ReplicaStore<KvStore, MemDisk>;

    fn shared(n: u64, replica: u32, op: KvOp) -> SharedReq<KvOp> {
        Arc::new(Req::new(
            Timestamp::new(n as i64),
            Dot::new(ReplicaId::new(replica), n),
            Level::Weak,
            op,
        ))
    }

    fn decided_ev(slot: u64, req: &SharedReq<KvOp>) -> TobEvent<SharedReq<KvOp>> {
        TobEvent::Decided {
            slot,
            sender: req.origin(),
            seq: slot,
            payload: req.clone(),
        }
    }

    /// The image a one-replica process holds after deciding and
    /// delivering `reqs` in slots `0..`, with nothing compacted.
    fn image_of(reqs: &[SharedReq<KvOp>]) -> Snapshot<KvStore> {
        let mut state = Default::default();
        for r in reqs {
            KvStore::apply(&mut state, &r.op);
        }
        Snapshot {
            delivered: reqs.len() as u64,
            state,
            decided: reqs
                .iter()
                .enumerate()
                .map(|(slot, r)| (slot as u64, r.origin(), slot as u64, r.as_ref().clone()))
                .collect(),
            event_high: vec![reqs.len() as u64],
            ..Snapshot::empty(1)
        }
    }

    /// Replays what a store read back through a fresh TOB.
    fn replay(recovered: Recovered<KvStore>, n: usize) -> Replayed<KvStore> {
        recovered.replay(&mut PaxosTob::with_defaults(n))
    }

    #[test]
    fn null_backend_disables_everything() {
        let (mut store, recovered) =
            ReplicaStore::<KvStore, _>::open(NullStorage, 3, StoreConfig::default()).unwrap();
        assert!(!store.is_enabled());
        assert!(recovered.is_empty());
        let r = shared(1, 0, KvOp::put("k", 1));
        store.log_invoke(&r, 0).unwrap();
        store.note_commit(&r).unwrap();
        assert!(!store.snapshot_due());
    }

    #[test]
    fn fresh_disk_recovers_empty_then_round_trips() {
        let disk = MemDisk::new();
        let (mut store, recovered) =
            KvStore8::open(disk.clone(), 3, StoreConfig::default()).unwrap();
        assert!(recovered.is_empty());

        let r1 = shared(1, 0, KvOp::put("a", 1));
        let r2 = shared(2, 1, KvOp::put("b", 2));
        store.log_invoke(&r1, 0).unwrap();
        store.log_tentative(&r2, 0).unwrap();
        store.log_tob_events(vec![decided_ev(0, &r1)]).unwrap();
        store.note_commit(&r1).unwrap();

        // "crash" (drop the store) and reopen the same disk
        drop(store);
        let (_store2, recovered) = KvStore8::open(disk, 3, StoreConfig::default()).unwrap();
        assert!(!recovered.torn_tail);
        // the records contain the decision
        assert!(recovered
            .records
            .iter()
            .any(|e| matches!(e, WalRecord::Decided { slot: 0, .. })));
        let replayed = replay(recovered, 3);
        assert_eq!(replayed.deliveries.len(), 1);
        assert_eq!(replayed.deliveries[0].id(), r1.id());
        assert_eq!(replayed.pending.len(), 1);
        assert_eq!(replayed.pending[0].2.id(), r2.id());
        assert_eq!(replayed.pending[0].0, PendingKind::Tentative);
    }

    #[test]
    fn snapshot_cadence_truncates_the_log_and_recovery_uses_the_state() {
        let disk = MemDisk::new();
        let cfg = StoreConfig {
            snapshot_every: 10,
            ..Default::default()
        };
        let (mut store, _) = KvStore8::open(disk.clone(), 1, cfg).unwrap();
        let mut reqs = Vec::new();
        for i in 0..25u64 {
            let r = shared(i + 1, 0, KvOp::put(format!("k{}", i % 5), i as i64));
            reqs.push(r.clone());
            store.log_invoke(&r, i).unwrap();
            store.log_tob_events(vec![decided_ev(i, &r)]).unwrap();
            store.note_commit(&r).unwrap();
            if store.snapshot_due() {
                store.save_snapshot(&image_of(&reqs)).unwrap();
            }
        }
        assert_eq!(store.snapshots_written(), 2);
        drop(store);

        let (store2, recovered) = KvStore8::open(disk, 1, cfg).unwrap();
        let replayed = replay(recovered, 1);
        assert_eq!(replayed.deliveries.len(), 25);
        assert_eq!(replayed.state_delivered, 20);
        // snapshot state covers the first 20 commits; the rest replay
        let mut expect = replayed.state.clone();
        for req in replayed.deliveries.iter().skip(20) {
            KvStore::apply(&mut expect, &req.op);
        }
        assert_eq!(expect.get("k4"), Some(&24));
        assert!(replayed.pending.is_empty());
        drop(store2);
    }

    /// A checkpoint of the files writes the same snapshot a process with
    /// that history would cut from its own state.
    #[test]
    fn checkpoint_of_the_files_matches_the_image_of_the_state() {
        let disk = MemDisk::new();
        let cfg = StoreConfig {
            snapshot_every: u64::MAX,
            segment_max_bytes: 256, // the history spans several segments
            ..Default::default()
        };
        let (mut store, _) = KvStore8::open(disk.clone(), 1, cfg).unwrap();
        let reqs: Vec<_> = (0..12u64)
            .map(|i| shared(i + 1, 0, KvOp::put(format!("k{}", i % 4), i as i64)))
            .collect();
        for (i, r) in reqs.iter().enumerate() {
            store.log_invoke(r, i as u64).unwrap();
            store.log_tob_events(vec![decided_ev(i as u64, r)]).unwrap();
            store.note_commit(r).unwrap();
        }
        let pending = shared(13, 0, KvOp::put("p", 13));
        store.log_invoke(&pending, 12).unwrap();
        store.write_snapshot().unwrap();

        let mut expect = image_of(&reqs);
        expect.pending = vec![(PendingKind::Invoke, 12, pending.as_ref().clone())];
        expect.event_high = vec![13];
        let snap = disk
            .list()
            .into_iter()
            .find(|f| f.starts_with("snap-"))
            .expect("a snapshot was written");
        assert_eq!(disk.read(&snap).unwrap(), expect.to_bytes());
        assert_eq!(
            disk.list().iter().filter(|f| f.starts_with("wal-")).count(),
            1,
            "the checkpoint retires every older segment"
        );
    }

    #[test]
    fn torn_tail_is_discarded_and_reported() {
        let disk = MemDisk::new();
        let cfg = StoreConfig {
            sync_every_record: false, // leave the tail unsynced
            ..Default::default()
        };
        let (mut store, _) = KvStore8::open(disk.clone(), 1, cfg).unwrap();
        let r1 = shared(1, 0, KvOp::put("a", 1));
        store.log_invoke(&r1, 0).unwrap();
        store.backend().clone().sync().unwrap(); // r1 durable
        let r2 = shared(2, 0, KvOp::put("b", 2));
        store.log_invoke(&r2, 1).unwrap();
        drop(store);
        disk.crash(42); // unsynced suffix torn at a random byte

        let (_s, recovered) = KvStore8::open(disk, 1, cfg).unwrap();
        let ids: Vec<ReqId> = (replay(recovered, 1).pending.iter())
            .map(|p| p.2.id())
            .collect();
        assert!(ids.contains(&r1.id()), "synced record must survive");
        // r2 may or may not survive depending on the tear point — but if
        // the tail was torn mid-record it must be reported
        if !ids.contains(&r2.id()) {
            assert_eq!(ids.len(), 1);
        }
    }

    #[test]
    fn segment_rotation_keeps_records_across_files() {
        let disk = MemDisk::new();
        let cfg = StoreConfig {
            segment_max_bytes: 128, // rotate every couple of records
            snapshot_every: u64::MAX,
            sync_every_record: true,
        };
        let (mut store, _) = KvStore8::open(disk.clone(), 1, cfg).unwrap();
        for i in 0..20u64 {
            store
                .log_invoke(&shared(i + 1, 0, KvOp::put("k", i as i64)), i)
                .unwrap();
            store.sync_step().unwrap();
        }
        assert!(
            store.manifest.segments.len() > 2,
            "rotation must have produced several segments: {:?}",
            store.manifest.segments
        );
        drop(store);
        let (_s, recovered) = KvStore8::open(disk, 1, cfg).unwrap();
        assert_eq!(replay(recovered, 1).pending.len(), 20);
    }

    #[test]
    fn reopening_twice_is_idempotent() {
        let disk = MemDisk::new();
        let cfg = StoreConfig::default();
        let (mut store, _) = KvStore8::open(disk.clone(), 2, cfg).unwrap();
        let r = shared(1, 0, KvOp::put("x", 1));
        store.log_invoke(&r, 0).unwrap();
        store.log_tob_events(vec![decided_ev(0, &r)]).unwrap();
        store.note_commit(&r).unwrap();
        drop(store);
        let (_s1, rec1) = KvStore8::open(disk.clone(), 2, cfg).unwrap();
        let (_s2, rec2) = KvStore8::open(disk, 2, cfg).unwrap();
        assert_eq!(rec1.records, rec2.records);
        let (rec1, rec2) = (replay(rec1, 2), replay(rec2, 2));
        assert_eq!(rec1.deliveries.len(), rec2.deliveries.len());
        assert_eq!(rec1.pending.len(), rec2.pending.len());
        assert_eq!(rec1.state_delivered, rec2.state_delivered);
    }
}
