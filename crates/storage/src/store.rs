//! The storage engine: a segmented WAL plus snapshots behind the
//! [`Persistence`] hooks a replica calls, and the recovery path that
//! turns the surviving bytes back into a replica.
//!
//! # Write path
//!
//! Every hook appends one framed, checksummed record to the current
//! segment; the fsync those records demand is paid once, at the *step
//! barrier* ([`Persistence::sync_step`]) — group commit. The replica
//! calls the hooks *inside* its atomic handler step and the barrier at
//! its end, so a fact is on disk before any message or response
//! produced by the same step leaves the process. Code that drives the
//! hooks directly owes the barrier itself. Segments rotate at a size threshold; every
//! [`StoreConfig::snapshot_every`] commits a [`Snapshot`] is written
//! atomically, the manifest is switched over, and all older files are
//! deleted.
//!
//! # Recovery path
//!
//! [`ReplicaStore::open`] reads the manifest, decodes the snapshot (if
//! any), scans the WAL suffix segment by segment — stopping each
//! segment's scan at the first torn or checksum-failing frame — and
//! folds the records into the [`Recovered`] image: the TOB durable-event
//! stream (to rebuild the Paxos endpoint), the local delivery order (by
//! replaying the decided log through the same deterministic sender-FIFO
//! gate the TOB uses), the snapshot state + its covered prefix, and the
//! still-pending requests that must be re-submitted.

use crate::backend::{Storage, StorageError};
use crate::manifest::Manifest;
use crate::record::{frame_into, scan_frames, FrameScan, WalRecord, WalRecordRef};
use crate::snapshot::{PendingKind, Snapshot};
use bayou_broadcast::{BaselineMark, FifoRelease, TobEvent};
use bayou_data::DataType;
use bayou_types::{BufPool, ReplicaId, ReqId, SharedReq, VirtualTime, Wire};
use std::collections::{BTreeMap, VecDeque};
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
    /// dirty and the *step barrier* ([`Persistence::sync_step`]) pays it,
    /// so every record a handler step writes — an invocation, a batch of
    /// tentative requests, a frame's worth of TOB decisions — shares one
    /// fsync. The replica invokes the barrier before any message or
    /// response produced by the step leaves, so the durability contract
    /// ("a fact is on disk before its effects escape") is exactly the
    /// per-record one. Code that drives the hooks directly, without a
    /// step structure, calls `sync_step()` wherever it needs durability.
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

/// The persistence hooks a replica drives.
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
    fn log_invoke(&mut self, req: &SharedReq<F::Op>, tob_seq: u64) -> Result<(), StorageError>;

    /// Logs a remote request entering the tentative order.
    fn log_tentative(&mut self, req: &SharedReq<F::Op>, tob_seq: u64) -> Result<(), StorageError>;

    /// Logs the TOB layer's durable transitions from one handler step.
    fn log_tob_events(
        &mut self,
        events: Vec<TobEvent<SharedReq<F::Op>>>,
    ) -> Result<(), StorageError>;

    /// Notes a TOB delivery (commit), in delivery order: a
    /// [`Persistence::log_commit_batch`] of one.
    fn note_commit(&mut self, req: &SharedReq<F::Op>) -> Result<(), StorageError> {
        self.log_commit_batch(std::slice::from_ref(req))
    }

    /// Notes a whole TOB delivery batch (in delivery order) in one call
    /// — the commit hook of the batched pipeline. The per-commit work
    /// (state-mirror application, snapshot-cadence check — and with it
    /// the fsync a snapshot implies) is amortized over the batch, so the
    /// whole batch costs at most one snapshot and one sync inside the
    /// atomic handler step.
    fn log_commit_batch(&mut self, reqs: &[SharedReq<F::Op>]) -> Result<(), StorageError>;

    /// Notes that the replica advanced its compaction floor to `mark`
    /// with `baseline` materialized at exactly the mark: the store drops
    /// its decided-log mirror below the floor, so the next snapshot is
    /// compact (O(state + window)) and the WAL bytes below the watermark
    /// die with the segments that snapshot deletes.
    ///
    /// A store that mirrors deliveries folds its own baseline forward
    /// over the ones the floor passed; `baseline` is only needed when
    /// the mark lies beyond every delivery the store has seen (a live
    /// baseline transfer).
    fn note_stable(
        &mut self,
        mark: &BaselineMark,
        baseline: &F::State,
    ) -> Result<(), StorageError> {
        let _ = (mark, baseline);
        Ok(())
    }

    /// Drains the simulated fsync stall accrued by the backing storage
    /// since the last call (see [`Storage::take_sync_stall`]).
    fn take_sync_stall(&mut self) -> VirtualTime {
        VirtualTime::ZERO
    }

    /// The step barrier of group commit: makes every record logged since
    /// the last barrier durable, with (at most) one fsync. The replica
    /// calls this at the end of every handler step, *before* the step's
    /// buffered messages and responses leave — so the per-record
    /// durability contract ([`StoreConfig::sync_every_record`]) is
    /// preserved while the whole step pays a single sync. A no-op when
    /// nothing is pending.
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

    /// The compaction floor this store last adopted and the state it
    /// keeps materialized at that floor — what its next snapshot records
    /// as mark and baseline. `None` for stores that keep no baseline.
    fn baseline(&self) -> Option<(&BaselineMark, &F::State)> {
        None
    }
}

/// A [`Persistence`] that does nothing: the default for replicas without
/// durability (exactly the pre-storage behaviour).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullPersistence;

impl<F: DataType> Persistence<F> for NullPersistence {
    fn log_invoke(&mut self, _req: &SharedReq<F::Op>, _tob_seq: u64) -> Result<(), StorageError> {
        Ok(())
    }
    fn log_tentative(
        &mut self,
        _req: &SharedReq<F::Op>,
        _tob_seq: u64,
    ) -> Result<(), StorageError> {
        Ok(())
    }
    fn log_tob_events(
        &mut self,
        _events: Vec<TobEvent<SharedReq<F::Op>>>,
    ) -> Result<(), StorageError> {
        Ok(())
    }
    fn log_commit_batch(&mut self, _reqs: &[SharedReq<F::Op>]) -> Result<(), StorageError> {
        Ok(())
    }
}

/// Everything recovery reconstructed from a replica's durable storage.
#[derive(Debug)]
pub struct Recovered<F: DataType> {
    /// TOB durable events (snapshot facts first, then the WAL suffix, in
    /// log order) — replay through `PaxosTob::restore` *after* installing
    /// [`Recovered::mark`].
    pub tob_events: Vec<TobEvent<SharedReq<F::Op>>>,
    /// The local TOB delivery order **above the compaction mark**
    /// implied by the retained decided log (computed with the same
    /// deterministic sender-FIFO release the TOB uses). Delivery
    /// `deliveries[i]` has absolute `tob_no == mark.delivered + i`.
    pub deliveries: Vec<SharedReq<F::Op>>,
    /// State materialized at `snapshot_delivered` (absolute) deliveries.
    pub snapshot_state: F::State,
    /// How many absolute deliveries the snapshot state already covers
    /// (`>= mark.delivered`).
    pub snapshot_delivered: u64,
    /// Requests logged but not decided: `(kind, tob_seq, request)`,
    /// sorted by request id.
    pub pending: Vec<(PendingKind, u64, SharedReq<F::Op>)>,
    /// The compaction floor the store sat on: the first `mark.delivered`
    /// deliveries were truncated; their combined effect is `baseline`.
    pub mark: BaselineMark,
    /// State materialized at exactly `mark.delivered` deliveries — what
    /// the recovered replica retains in place of the truncated payloads.
    pub baseline: F::State,
    /// Per-replica high-water `event_no` over everything the store ever
    /// saw, compacted requests included.
    pub event_high: Vec<u64>,
    /// Whether any segment ended in a torn/corrupt frame that was
    /// discarded.
    pub torn_tail: bool,
}

impl<F: DataType> Recovered<F> {
    /// An empty image (fresh store, or a non-durable backend).
    fn empty(n: usize) -> Self {
        Recovered {
            tob_events: Vec::new(),
            deliveries: Vec::new(),
            snapshot_state: F::State::default(),
            snapshot_delivered: 0,
            pending: Vec::new(),
            mark: BaselineMark::zero(n),
            baseline: F::State::default(),
            event_high: vec![0; n],
            torn_tail: false,
        }
    }

    /// Whether the store held any durable facts at all.
    pub fn is_empty(&self) -> bool {
        self.tob_events.is_empty()
            && self.pending.is_empty()
            && self.snapshot_delivered == 0
            && self.mark.is_zero()
    }
}

/// Decided slots: slot → `(sender, seq, request)`.
type DecidedMap<Op> = BTreeMap<u64, (ReplicaId, u64, SharedReq<Op>)>;
/// Accepted slots: slot → `(round, leader, sender, seq, request)`.
type AcceptedMap<Op> = BTreeMap<u64, (u64, ReplicaId, ReplicaId, u64, SharedReq<Op>)>;

/// The per-replica durable store. See the module docs for the write and
/// recovery paths.
pub struct ReplicaStore<F: DataType, B: Storage> {
    backend: B,
    enabled: bool,
    cfg: StoreConfig,
    n: usize,
    manifest: Manifest,
    current_segment_len: usize,
    // ---- mirrors feeding the next snapshot -----------------------------
    stable_state: F::State,
    delivered: u64,
    decided: DecidedMap<F::Op>,
    promised: (u64, ReplicaId),
    accepted: AcceptedMap<F::Op>,
    pending: BTreeMap<ReqId, (PendingKind, u64, SharedReq<F::Op>)>,
    decided_ids: std::collections::HashSet<ReqId>,
    /// The compaction floor the replica last reported (`note_stable`):
    /// decided-log mirrors below it are dropped and the next snapshot is
    /// written in the compact form.
    mark: BaselineMark,
    /// State materialized at exactly `mark.delivered` deliveries.
    baseline_state: F::State,
    /// The deliveries above the mark, in delivery order (`delivered -
    /// mark.delivered` of them): what the next floor advance folds into
    /// `baseline_state`, so an advance costs O(requests passed) instead
    /// of a copy of the state.
    above_mark: VecDeque<SharedReq<F::Op>>,
    /// Per-origin high-water `event_no` over every request ever seen.
    event_high: Vec<u64>,
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
            stable_state: F::State::default(),
            delivered: 0,
            decided: BTreeMap::new(),
            promised: (0, ReplicaId::new(0)),
            accepted: BTreeMap::new(),
            pending: BTreeMap::new(),
            decided_ids: std::collections::HashSet::new(),
            mark: BaselineMark::zero(n),
            baseline_state: F::State::default(),
            above_mark: VecDeque::new(),
            event_high: vec![0; n],
            commits_since_snapshot: 0,
            snapshots_written: 0,
            fsyncs: 0,
            dirty: false,
            barrier: None,
            enc_pool: BufPool::new(),
        };
        if !store.enabled {
            return Ok((store, Recovered::empty(n)));
        }

        let mut recovered = Recovered::empty(n);
        match Manifest::load(&store.backend)? {
            None => {}
            Some(manifest) => {
                manifest.remove_orphans(&mut store.backend)?;
                store.manifest = manifest;
                store.recover(&mut recovered)?;
            }
        }

        // never append to a possibly-torn tail: open a fresh segment
        store.rotate_segment()?;
        Ok((store, recovered))
    }

    /// Records that `origin` produced a request with `event_no` (keeps
    /// recovered dots collision-free across compaction).
    fn note_event(&mut self, origin: ReplicaId, event_no: u64) {
        if let Some(h) = self.event_high.get_mut(origin.index()) {
            *h = (*h).max(event_no);
        }
    }

    /// Folds the snapshot and the WAL suffix into `recovered` and the
    /// store's own mirrors.
    fn recover(&mut self, recovered: &mut Recovered<F>) -> Result<(), StorageError> {
        if let Some(name) = self.manifest.snapshot.clone() {
            let snap = Snapshot::<F>::from_bytes(&self.backend.read(&name)?)?;
            self.stable_state = snap.state.clone();
            self.promised = snap.promised;
            self.mark = snap.mark.clone();
            if self.mark.fifo_next.len() < self.n {
                self.mark.fifo_next.resize(self.n, 0);
            }
            self.baseline_state = snap.baseline.clone();
            for (i, h) in snap.event_high.iter().enumerate() {
                if let Some(mine) = self.event_high.get_mut(i) {
                    *mine = (*mine).max(*h);
                }
            }
            recovered.snapshot_state = snap.state;
            recovered.snapshot_delivered = snap.delivered;
            recovered.tob_events.push(TobEvent::Promised {
                round: snap.promised.0,
                leader: snap.promised.1,
            });
            for (slot, round, leader, sender, seq, req) in snap.accepted {
                let req = Arc::new(req);
                self.note_event(req.origin(), req.id().event_no());
                self.accepted
                    .insert(slot, (round, leader, sender, seq, req.clone()));
                recovered.tob_events.push(TobEvent::Accepted {
                    slot,
                    round,
                    leader,
                    sender,
                    seq,
                    payload: req,
                });
            }
            for (slot, sender, seq, req) in snap.decided {
                if slot < self.mark.slot_floor {
                    return Err(StorageError::Corrupt(
                        "snapshot decided slot below its own mark".into(),
                    ));
                }
                let req = Arc::new(req);
                self.note_event(req.origin(), req.id().event_no());
                self.decided_ids.insert(req.id());
                self.decided.insert(slot, (sender, seq, req.clone()));
                recovered.tob_events.push(TobEvent::Decided {
                    slot,
                    sender,
                    seq,
                    payload: req,
                });
            }
            for (kind, tob_seq, req) in snap.pending {
                let req = Arc::new(req);
                self.note_event(req.origin(), req.id().event_no());
                self.pending.insert(req.id(), (kind, tob_seq, req));
            }
        }

        // scan the WAL suffix, one segment at a time
        for name in self.manifest.segments.clone() {
            let data = match self.backend.read(&name) {
                Ok(d) => d,
                Err(StorageError::NotFound(_)) => continue, // interrupted rotation
                Err(e) => return Err(e),
            };
            if data.len() < SEGMENT_HEADER_LEN || &data[..4] != SEGMENT_MAGIC {
                // a header that never made it to disk intact: an empty
                // segment from a crash during rotation
                recovered.torn_tail = true;
                continue;
            }
            let scan: FrameScan<WalRecord<F::Op>> = scan_frames(&data[SEGMENT_HEADER_LEN..]);
            recovered.torn_tail |= scan.torn;
            for rec in scan.records {
                self.fold_record(rec, recovered);
            }
        }

        // prune pending requests that were decided later in the log, or
        // whose cast sequence number falls below the compaction floor
        // (they were decided, delivered everywhere and truncated — the
        // decided ids themselves are gone, but the per-sender FIFO
        // cursors in the mark still identify them)
        let mark = self.mark.clone();
        self.pending.retain(|id, (_, tob_seq, req)| {
            !self.decided_ids.contains(id) && *tob_seq >= mark.next_for(req.origin())
        });

        // deterministic local delivery order above the compaction floor:
        // the contiguous decided suffix, slot by slot, through the
        // sender-FIFO gate resumed at the mark (the exact release rule
        // the TOB applies after `install_baseline`); slots beyond the
        // first gap are decided-but-undeliverable and stay in the
        // decided map only
        let mut fifo = FifoRelease::new(self.n);
        for s in ReplicaId::all(self.n) {
            fifo.fast_forward(s, self.mark.next_for(s));
        }
        let mut next_slot = self.mark.slot_floor;
        while let Some((sender, seq, req)) = self.decided.get(&next_slot) {
            for released in fifo.push(*sender, *seq, req.clone()) {
                recovered.deliveries.push(released);
            }
            next_slot += 1;
        }
        // fast-forward the stable state over deliveries the snapshot
        // does not cover yet (`snapshot_delivered` is absolute; the
        // deliveries vector starts at the mark)
        let covered = (recovered
            .snapshot_delivered
            .saturating_sub(self.mark.delivered)) as usize;
        for req in recovered.deliveries.iter().skip(covered) {
            F::apply(&mut self.stable_state, &req.op);
        }
        self.delivered = self.mark.delivered + recovered.deliveries.len() as u64;
        self.above_mark = recovered.deliveries.iter().cloned().collect();

        recovered.mark = self.mark.clone();
        recovered.baseline = self.baseline_state.clone();
        recovered.event_high = self.event_high.clone();
        recovered.pending = self
            .pending
            .values()
            .map(|(kind, seq, req)| (*kind, *seq, req.clone()))
            .collect();
        Ok(())
    }

    /// Applies one WAL record to the mirrors and the recovered image.
    fn fold_record(&mut self, rec: WalRecord<F::Op>, recovered: &mut Recovered<F>) {
        match rec {
            WalRecord::Invoke { tob_seq, req } => {
                let req = Arc::new(req);
                self.note_event(req.origin(), req.id().event_no());
                self.pending
                    .insert(req.id(), (PendingKind::Invoke, tob_seq, req));
            }
            WalRecord::Tentative { tob_seq, req } => {
                let req = Arc::new(req);
                self.note_event(req.origin(), req.id().event_no());
                self.pending
                    .entry(req.id())
                    .or_insert((PendingKind::Tentative, tob_seq, req));
            }
            WalRecord::Promised { round, leader } => {
                if (round, leader) > self.promised {
                    self.promised = (round, leader);
                }
                recovered
                    .tob_events
                    .push(TobEvent::Promised { round, leader });
            }
            WalRecord::Accepted {
                slot,
                round,
                leader,
                sender,
                seq,
                req,
            } => {
                let req = Arc::new(req);
                self.note_event(req.origin(), req.id().event_no());
                match self.accepted.get(&slot) {
                    Some((r0, l0, ..)) if (*r0, *l0) > (round, leader) => {}
                    _ => {
                        self.accepted
                            .insert(slot, (round, leader, sender, seq, req.clone()));
                    }
                }
                recovered.tob_events.push(TobEvent::Accepted {
                    slot,
                    round,
                    leader,
                    sender,
                    seq,
                    payload: req,
                });
            }
            WalRecord::Decided {
                slot,
                sender,
                seq,
                req,
            } => {
                let req = Arc::new(req);
                self.note_event(req.origin(), req.id().event_no());
                if slot < self.mark.slot_floor {
                    // a pre-compaction record surviving in the WAL
                    // suffix: already summarised by the snapshot's mark
                    return;
                }
                if self
                    .decided
                    .insert(slot, (sender, seq, req.clone()))
                    .is_none()
                {
                    self.decided_ids.insert(req.id());
                }
                recovered.tob_events.push(TobEvent::Decided {
                    slot,
                    sender,
                    seq,
                    payload: req,
                });
            }
        }
    }

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
    /// host settles the barrier itself — once per handler step, one
    /// physical sync for every group sharing the backend, still before
    /// any of the step's output leaves the process. Internal syncs at
    /// rotation and snapshot boundaries are unaffected (they sync the
    /// shared backend, which is sound — at worst another group's bytes
    /// ride along).
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

    /// Writes a snapshot, installs it in the manifest and deletes every
    /// older file — including every WAL byte below the compaction
    /// watermark, whose only summary from then on is the snapshot's
    /// mark + baseline. Called automatically at the configured cadence;
    /// public so tests and shutdown paths can force one.
    pub fn write_snapshot(&mut self) -> Result<(), StorageError> {
        if !self.enabled {
            return Ok(());
        }
        let snap = Snapshot::<F> {
            delivered: self.delivered,
            state: self.stable_state.clone(),
            promised: self.promised,
            accepted: self
                .accepted
                .iter()
                .filter(|(slot, _)| {
                    **slot >= self.mark.slot_floor && !self.decided.contains_key(slot)
                })
                .map(|(slot, (round, leader, sender, seq, req))| {
                    (*slot, *round, *leader, *sender, *seq, req.as_ref().clone())
                })
                .collect(),
            decided: self
                .decided
                .iter()
                .filter(|(slot, _)| **slot >= self.mark.slot_floor)
                .map(|(slot, (sender, seq, req))| (*slot, *sender, *seq, req.as_ref().clone()))
                .collect(),
            pending: self
                .pending
                .values()
                .map(|(kind, seq, req)| (*kind, *seq, req.as_ref().clone()))
                .collect(),
            mark: self.mark.clone(),
            baseline: self.baseline_state.clone(),
            event_high: self.event_high.clone(),
        };
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
        snap.encode_into(&mut encoded);
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
        self.note_event(req.origin(), req.id().event_no());
        self.pending
            .insert(req.id(), (PendingKind::Invoke, tob_seq, req.clone()));
        self.append_record(&WalRecordRef::Invoke {
            tob_seq,
            req: req.as_ref(),
        })
    }

    fn log_tentative(&mut self, req: &SharedReq<F::Op>, tob_seq: u64) -> Result<(), StorageError> {
        if !self.enabled {
            return Ok(());
        }
        if self.decided_ids.contains(&req.id())
            || self.pending.contains_key(&req.id())
            || tob_seq < self.mark.next_for(req.origin())
        {
            // the cast-cursor check catches requests whose decision was
            // compacted away (their ids left `decided_ids` with it)
            return Ok(());
        }
        self.note_event(req.origin(), req.id().event_no());
        self.pending
            .insert(req.id(), (PendingKind::Tentative, tob_seq, req.clone()));
        self.append_record(&WalRecordRef::Tentative {
            tob_seq,
            req: req.as_ref(),
        })
    }

    fn log_tob_events(
        &mut self,
        events: Vec<TobEvent<SharedReq<F::Op>>>,
    ) -> Result<(), StorageError> {
        if !self.enabled || events.is_empty() {
            return Ok(());
        }
        for ev in events {
            match &ev {
                TobEvent::Promised { round, leader } => {
                    if (*round, *leader) > self.promised {
                        self.promised = (*round, *leader);
                    }
                }
                TobEvent::Accepted {
                    slot,
                    round,
                    leader,
                    sender,
                    seq,
                    payload,
                } => {
                    self.note_event(payload.origin(), payload.id().event_no());
                    self.accepted
                        .insert(*slot, (*round, *leader, *sender, *seq, payload.clone()));
                }
                TobEvent::Decided {
                    slot,
                    sender,
                    seq,
                    payload,
                } => {
                    self.note_event(payload.origin(), payload.id().event_no());
                    if self
                        .decided
                        .insert(*slot, (*sender, *seq, payload.clone()))
                        .is_none()
                    {
                        self.decided_ids.insert(payload.id());
                    }
                    self.pending.remove(&payload.id());
                }
            }
            // one sync demand for the whole event batch, below
            self.append_record_with(&WalRecordRef::from_tob_event(&ev), false)?;
        }
        if self.cfg.sync_every_record {
            self.record_sync();
        }
        Ok(())
    }

    fn log_commit_batch(&mut self, reqs: &[SharedReq<F::Op>]) -> Result<(), StorageError> {
        if !self.enabled || reqs.is_empty() {
            return Ok(());
        }
        // fold the whole batch into the stable-state mirror, then check
        // the snapshot cadence once — a batch crosses it at most once
        for req in reqs {
            F::apply(&mut self.stable_state, &req.op);
        }
        self.above_mark.extend(reqs.iter().cloned());
        self.delivered += reqs.len() as u64;
        self.commits_since_snapshot += reqs.len() as u64;
        if self.commits_since_snapshot >= self.cfg.snapshot_every {
            self.write_snapshot()?;
        }
        Ok(())
    }

    fn note_stable(
        &mut self,
        mark: &BaselineMark,
        baseline: &F::State,
    ) -> Result<(), StorageError> {
        if !self.enabled || mark.delivered <= self.mark.delivered {
            return Ok(());
        }
        // drop the decided-log mirror below the floor: the next snapshot
        // is compact, and with it the WAL segments holding those records
        // are deleted — that is the on-disk GC below the watermark
        let keep = self.decided.split_off(&mark.slot_floor);
        for (_, (_, _, req)) in std::mem::replace(&mut self.decided, keep) {
            self.decided_ids.remove(&req.id());
        }
        let keep = self.accepted.split_off(&mark.slot_floor);
        self.accepted = keep;
        let passed = mark.delivered - self.mark.delivered;
        let jumped = mark.delivered > self.delivered;
        self.mark = mark.clone();
        if self.mark.fifo_next.len() < self.n {
            self.mark.fifo_next.resize(self.n, 0);
        }
        if jumped {
            // a live baseline install: the replica adopted a transferred
            // state *ahead* of everything this store ever mirrored. Our
            // own delivery mirror jumps with it, stale pending requests
            // below the mark's cast cursors are gone, and the new prefix
            // is made durable immediately (snapshot) so a crash cannot
            // fall back below the cluster-wide floor again.
            self.baseline_state = baseline.clone();
            self.stable_state = baseline.clone();
            self.above_mark.clear();
            self.delivered = mark.delivered;
            let cursor_mark = self.mark.clone();
            self.pending
                .retain(|_, (_, seq, req)| *seq >= cursor_mark.next_for(req.origin()));
            self.write_snapshot()?;
        } else {
            // the committed prefix never rolls back: move the baseline
            // forward over exactly the deliveries the floor passed
            for req in self.above_mark.drain(..passed as usize) {
                F::apply(&mut self.baseline_state, &req.op);
            }
        }
        Ok(())
    }

    fn take_sync_stall(&mut self) -> VirtualTime {
        self.backend.take_sync_stall()
    }

    fn sync_step(&mut self) -> Result<(), StorageError> {
        // with a shared barrier the host pays the step sync for every
        // group at once; this store no longer owes one of its own
        if self.barrier.is_none() && self.dirty {
            self.sync_backend()?;
        }
        Ok(())
    }

    fn take_fsyncs(&mut self) -> u64 {
        std::mem::take(&mut self.fsyncs)
    }

    fn baseline(&self) -> Option<(&BaselineMark, &F::State)> {
        self.enabled.then_some((&self.mark, &self.baseline_state))
    }
}

impl<F: DataType, B: Storage> std::fmt::Debug for ReplicaStore<F, B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaStore")
            .field("enabled", &self.enabled)
            .field("delivered", &self.delivered)
            .field("decided_slots", &self.decided.len())
            .field("pending", &self.pending.len())
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
    use bayou_types::{Dot, Level, Req, Timestamp};

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

    #[test]
    fn null_backend_disables_everything() {
        let (mut store, recovered) =
            ReplicaStore::<KvStore, _>::open(NullStorage, 3, StoreConfig::default()).unwrap();
        assert!(!store.is_enabled());
        assert!(recovered.is_empty());
        let r = shared(1, 0, KvOp::put("k", 1));
        store.log_invoke(&r, 0).unwrap();
        store.note_commit(&r).unwrap();
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
        assert_eq!(recovered.deliveries.len(), 1);
        assert_eq!(recovered.deliveries[0].id(), r1.id());
        assert_eq!(recovered.pending.len(), 1);
        assert_eq!(recovered.pending[0].2.id(), r2.id());
        assert_eq!(recovered.pending[0].0, PendingKind::Tentative);
        assert!(!recovered.torn_tail);
        // tob events contain the decision
        assert!(recovered
            .tob_events
            .iter()
            .any(|e| matches!(e, TobEvent::Decided { slot: 0, .. })));
    }

    #[test]
    fn snapshot_cadence_truncates_the_log_and_recovery_uses_the_state() {
        let disk = MemDisk::new();
        let cfg = StoreConfig {
            snapshot_every: 10,
            ..Default::default()
        };
        let (mut store, _) = KvStore8::open(disk.clone(), 1, cfg).unwrap();
        for i in 0..25u64 {
            let r = shared(i + 1, 0, KvOp::put(format!("k{}", i % 5), i as i64));
            store.log_invoke(&r, i).unwrap();
            store.log_tob_events(vec![decided_ev(i, &r)]).unwrap();
            store.note_commit(&r).unwrap();
        }
        assert_eq!(store.snapshots_written(), 2);
        drop(store);

        let (store2, recovered) = KvStore8::open(disk, 1, cfg).unwrap();
        assert_eq!(recovered.deliveries.len(), 25);
        assert_eq!(recovered.snapshot_delivered, 20);
        // snapshot state covers the first 20 commits; the rest replay
        let mut expect = recovered.snapshot_state.clone();
        for req in recovered.deliveries.iter().skip(20) {
            KvStore::apply(&mut expect, &req.op);
        }
        assert_eq!(expect.get("k4"), Some(&24));
        assert!(recovered.pending.is_empty());
        drop(store2);
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
        let ids: Vec<ReqId> = recovered.pending.iter().map(|p| p.2.id()).collect();
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
        assert_eq!(recovered.pending.len(), 20);
    }

    #[test]
    fn floor_advance_folds_the_passed_deliveries_into_the_baseline() {
        let cfg = StoreConfig {
            snapshot_every: u64::MAX,
            ..Default::default()
        };
        let (mut store, _) = KvStore8::open(MemDisk::new(), 1, cfg).unwrap();
        let reqs: Vec<_> = (0..10u64)
            .map(|i| shared(i + 1, 0, KvOp::put(format!("k{}", i % 3), i as i64)))
            .collect();
        store.log_commit_batch(&reqs).unwrap();
        let mark = |delivered: u64| BaselineMark {
            slot_floor: delivered,
            delivered,
            fifo_next: vec![delivered],
        };
        let state_after = |upto: usize| {
            let mut state = Default::default();
            for r in &reqs[..upto] {
                KvStore::apply(&mut state, &r.op);
            }
            state
        };
        // below the mirror the store folds its own deliveries: the
        // baseline it is handed is not consulted
        let ignored = Default::default();
        store.note_stable(&mark(4), &ignored).unwrap();
        assert_eq!(store.baseline(), Some((&mark(4), &state_after(4))));
        store.note_stable(&mark(10), &ignored).unwrap();
        assert_eq!(store.baseline(), Some((&mark(10), &state_after(10))));
        // a mark past every mirrored delivery is a transfer: adopted as is
        let transferred = state_after(3);
        store.note_stable(&mark(12), &transferred).unwrap();
        assert_eq!(store.baseline(), Some((&mark(12), &transferred)));
        assert_eq!(store.snapshots_written(), 1, "the jump is made durable");
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
        assert_eq!(rec1.deliveries.len(), rec2.deliveries.len());
        assert_eq!(rec1.pending.len(), rec2.pending.len());
        assert_eq!(rec1.snapshot_delivered, rec2.snapshot_delivered);
    }
}
