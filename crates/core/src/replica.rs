//! The Bayou replica: Algorithm 1 (and its Algorithm 2 modification),
//! line by line.
//!
//! # Hot-path engineering
//!
//! The pseudocode is O(1) per step only if its primitive operations are;
//! this implementation keeps them so under load:
//!
//! * requests travel as [`SharedReq`] (`Arc<Req<_>>`) through the
//!   tentative/committed/executed lists, reliable broadcast and TOB —
//!   every hop is a pointer bump, never a payload clone;
//! * state rollback uses the state object's undo records
//!   ([`bayou_data::DeltaState`] by default) instead of O(state-size)
//!   checkpoints, and the replica is generic over [`StateObject`] so the
//!   checkpointing [`bayou_data::ReplayState`] remains available as the
//!   reference implementation;
//! * membership tests against the committed/tentative/executed lists go
//!   through id hash-sets, and `adjustExecution` re-plans only the
//!   changed suffix — under a commit storm the whole re-planning pass is
//!   O(suffix), not O(n²);
//! * checkpoints/undo records of the stable prefix are dropped
//!   ([`StateObject::truncate_checkpoints`]) every time the committed
//!   list grows, and the state object's trace ids with them, keeping
//!   rollback bookkeeping and the trace proportional to the speculative
//!   window rather than the lifetime of the replica;
//! * nothing else grows per operation either ([`BayouReplica::retained`]
//!   is the gauge): reliable-broadcast dedup and the links keep
//!   watermarks, the TOB forgets keys once they are decided and
//!   released, and the replica keeps no history of its invocations — it
//!   leaves a one-slot record for a recorder such as the simulator
//!   harness to take;
//! * TOB deliveries commit **batched**: one handler step's whole
//!   delivery batch is spliced into the committed list with a *single*
//!   re-planning pass (`adjust_execution`), a single stable-prefix
//!   refresh, a single snapshot-cadence count
//!   ([`bayou_storage::Persistence::log_commit_batch`]) and a single
//!   compaction check — the unit of work above the state object is "the
//!   batch this step drained", not "one request" (a lone delivery is a
//!   batch of one). The histories a per-request commit would produce
//!   are pinned as digests in `tests/batching.rs`; the scratch buffers
//!   feeding the adjust/replay pass are reused across batches, so
//!   steady-state delivery allocates O(changed suffix), not O(batch)
//!   fresh vectors per step (`tests/alloc_regression.rs`).
//!
//! # Committed-history compaction
//!
//! The paper's protocol keeps every committed request forever; a replica
//! instead truncates its committed prefix at the **globally-stable
//! watermark** and runs in O(state + speculation window) memory
//! indefinitely. This is the only mode: a committed prefix never rolls
//! back, so once every replica holds it nothing needs its payloads. The
//! whole history lives with a recorder (`BayouCluster` in the
//! simulator), never in the replica.
//!
//! *Message flow.* Every replica piggybacks its contiguous-delivered
//! cursor on the TOB traffic it already sends (in Paxos:
//! `Submit`/`Promise`/`DecideAck` upward, `Decide`/`Catchup` carry the
//! computed watermark downward). Each endpoint computes the watermark as
//! the minimum cursor across **all** replicas; the TOB truncates its
//! decided log there (at a clean sender-FIFO boundary, captured as a
//! [`BaselineMark`]) and the replica follows: the payloads of exactly
//! that prefix are dropped from `committed`/`executed`, their combined
//! effect is folded into a retained *baseline state*, and the next
//! snapshot the replica cuts sits on the new floor, so snapshots stay
//! compact and old WAL segments die.
//!
//! *Safety.* A cursor is only reported once the deliveries it covers are
//! durable at the reporter (the WAL write happens inside the same atomic
//! handler step, before any message leaves), and the watermark is the
//! minimum over all reports — so every replica already holds the prefix
//! the cluster truncates, and no current replica can ever need a
//! truncated payload for catch-up. Truncation changes no visible
//! behaviour: `baseline · retained committed · tentative` materializes
//! to the same state the full history would (the digests banked in
//! `tests/batching.rs`, recorded with and without truncation, and the
//! DST suite in `tests/dst.rs` enforce this).
//!
//! *The laggard path.* The one party that can still need truncated
//! history is a replica that lost its disk: its catch-up request comes
//! back floor-clamped, it sends [`BayouMsg::BaselineRequest`], and a
//! peer answers with [`BayouMsg::Baseline`] — the baseline state plus
//! the mark — which the laggard installs in place of the history that no
//! longer exists, resuming normal catch-up above the floor. A replica
//! restarting *with* its disk never needs this: the watermark cannot
//! pass its last durable report, so its missing suffix is always still
//! replayable.

use crate::api::{ExecTrace, Invocation, Invoked, Response, Served};
use bayou_broadcast::{
    BaselineMark, LinkMsg, MapCtx, RbMsg, ReliableBroadcast, Tob, TobDelivery, TobEvent,
};
use bayou_data::{DataType, DeltaState, StateObject};
use bayou_storage::{NullPersistence, PendingKind, Persistence, Replayed, Snapshot, StorageError};
use bayou_types::{
    wire, Context, Dot, LeaseConfig, ReplicaId, Req, ReqId, SharedReq, TimerId, Value, VirtualTime,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;
use std::sync::Arc;

/// The wire-message type of a replica (shorthand for internal plumbing).
type Msg<F, T> = BayouMsg<
    <F as DataType>::Op,
    <F as DataType>::State,
    <T as Tob<SharedReq<<F as DataType>::Op>>>::Msg,
>;

/// Which variant of the protocol a replica runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ProtocolMode {
    /// Algorithm 1 as published: every request is RB-cast *and* TOB-cast
    /// at invocation; responses are produced by the speculative
    /// execution. Exhibits circular causality (Figure 2) and unbounded
    /// weak-operation latency (§2.3).
    Original,
    /// Algorithm 2: strong requests are TOB-cast only; weak requests
    /// execute immediately on the current state (the response is computed
    /// before any messages are processed) and are then rolled back and
    /// re-enter the speculative order; weak read-only requests are purely
    /// local. Prevents circular causality and makes weak operations
    /// bounded wait-free (Appendix A.1).
    #[default]
    Improved,
}

/// The payload carried by Reliable Broadcast: the request plus the dense
/// per-sender TOB-cast sequence number, so that any replica RB-delivering
/// it can take over TOB dissemination ([`Tob::ensure`]) — the paper's
/// requirement that an RB-delivered message is eventually TOB-delivered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireReq<Op> {
    /// The request (shared — RB fan-out and retransmission clone the
    /// frame per peer, which must not deep-copy the payload).
    pub req: SharedReq<Op>,
    /// The origin's dense TOB-cast counter value for this request.
    pub tob_seq: u64,
}

/// Wire messages of a Bayou replica: reliable-broadcast frames,
/// TOB-implementation messages, or the baseline state-transfer pair used
/// by committed-history compaction.
#[derive(Debug, Clone)]
pub enum BayouMsg<Op, St, TM> {
    /// A reliable-broadcast link frame.
    Rb(LinkMsg<RbMsg<WireReq<Op>>>),
    /// A message of the Total Order Broadcast implementation.
    Tob(TM),
    /// "My committed prefix fell below your compaction floor — the
    /// history I am missing no longer exists as replayable requests;
    /// send me your baseline." Sent when the TOB flags a floor-clamped
    /// catch-up ([`Tob::take_baseline_needed`]).
    BaselineRequest,
    /// The baseline transfer: the state materialized at exactly the
    /// sender's compaction floor, plus the mark describing that floor.
    /// The receiver replaces everything below the mark with it
    /// (state-at-a-point instead of replayed requests) and resumes
    /// normal catch-up above.
    Baseline {
        /// State at exactly `mark.delivered` committed requests.
        state: St,
        /// The compaction floor the state sits on.
        mark: BaselineMark,
    },
}

wire! { WireReq<Op> { req, tob_seq } }

wire! {
    /// The replica's complete message codec: what one [`BayouMsg`] costs
    /// on a real wire. Used by the host's wire-bytes meter
    /// ([`crate::GroupedReplica::meter_wire_bytes`]) and available to
    /// byte-oriented transports. Tag 4, a per-replica step-end frame, is
    /// retired (the host frames steps) and must not be reused.
    BayouMsg<Op, St, TM> {
        0 => Rb(frame),
        1 => Tob(tm),
        2 => BaselineRequest,
        3 => Baseline { state, mark },
    }
}

/// Counters describing one replica's protocol activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Client invocations handled.
    pub invocations: u64,
    /// `execute` internal steps (including re-executions).
    pub executions: u64,
    /// `rollback` internal steps.
    pub rollbacks: u64,
    /// TOB deliveries processed.
    pub tob_deliveries: u64,
    /// RB deliveries processed (remote only).
    pub rb_deliveries: u64,
    /// Strong reads served locally under a held leader lease (no TOB
    /// round, no messages).
    pub lease_reads: u64,
    /// Guarded weak reads refused with [`Served::Retry`] because this
    /// replica had not caught up to the session's floors.
    pub session_retries: u64,
}

/// What a replica holds in the structures that used to gain an entry
/// for every operation it served — a read-only gauge
/// ([`BayouReplica::retained`]). Each count is bounded by what is out
/// of order, unacknowledged, undecided or speculative at the moment,
/// never by the replica's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Retained {
    /// Reliable-broadcast ids seen above the per-origin watermarks.
    pub rb_seen: usize,
    /// Own broadcasts not yet acknowledged by every peer's link.
    pub rb_unacked: usize,
    /// Link frame numbers delivered above the per-peer prefixes.
    pub link_sparse: usize,
    /// Broadcast keys in the TOB's bookkeeping sets
    /// ([`Tob::retained_keys`]).
    pub tob_keys: usize,
    /// Ids on the state object's trace above its stable prefix.
    pub trace: usize,
}

/// A Bayou replica (Algorithm 1 of the paper) for data type `F` over a
/// Total Order Broadcast implementation `T`, speculating through the
/// state object `S` ([`DeltaState`] unless overridden).
///
/// The field and method names mirror the pseudocode: `committed`,
/// `tentative`, `executed`, `to_be_executed`, `to_be_rolled_back`,
/// `reqs_awaiting_resp`, `adjust_tentative_order`, `adjust_execution`.
/// Rollback and execute are *separate internal steps*
/// ([`BayouReplica::step`]) so the simulator can count and charge them
/// individually — the §2.3 progress experiment depends on this.
///
/// The replica is the protocol, not a process: a
/// [`crate::GroupedReplica`] hosts one per replication group and calls
/// its step-level methods ([`BayouReplica::start`],
/// [`BayouReplica::invoke`], [`BayouReplica::receive`] +
/// [`BayouReplica::settle`], [`BayouReplica::on_timer`],
/// [`BayouReplica::step`]) inside its own handler steps. The host owns
/// everything that is per process: the frame coalescer, the WAL sync
/// barrier, timer routing and the runtime hooks.
pub struct BayouReplica<F, T, S = DeltaState<F>>
where
    F: DataType,
    T: Tob<SharedReq<F::Op>>,
    S: StateObject<F>,
{
    mode: ProtocolMode,
    state: S,
    curr_event_no: u64,
    /// The committed list **above the compaction watermark**: entry `i`
    /// is the `(compacted + i)`-th TOB delivery. Everything below the
    /// watermark lives only as `baseline` + `compacted`.
    committed: Vec<SharedReq<F::Op>>,
    committed_set: HashSet<ReqId>,
    tentative: Vec<SharedReq<F::Op>>,
    /// Tentative ids with the origin's TOB-cast sequence number (the
    /// seq doubles as the dedup cursor against compacted history).
    tentative_seq: HashMap<ReqId, u64>,
    executed: Vec<SharedReq<F::Op>>,
    executed_set: HashSet<ReqId>,
    /// Length of the stable prefix (executed ∧ committed, can never be
    /// revoked) of the *retained* lists: the floor for every
    /// longest-common-prefix rescan.
    stable_len: usize,
    to_be_executed: VecDeque<SharedReq<F::Op>>,
    to_be_rolled_back: VecDeque<SharedReq<F::Op>>,
    reqs_awaiting_resp: HashMap<ReqId, Option<(Value, ExecTrace)>>,
    /// Client correlation tags of locally-invoked requests still owed a
    /// response ([`Invocation::tag`]). In-memory only: recovery starts
    /// empty, so post-restart re-emissions carry no tag.
    client_tags: HashMap<ReqId, u64>,
    rb: ReliableBroadcast<WireReq<F::Op>>,
    tob: T,
    tob_seq: u64,
    outputs: Vec<Response>,
    stats: ReplicaStats,
    /// The last invocation's record, until a history recorder takes it
    /// ([`BayouReplica::take_invoked`]). One slot: the replica keeps no
    /// history of its own.
    invoked: Option<Invoked>,
    /// The ids the last commit batch appended, and the committed
    /// position of the first ([`BayouReplica::last_commit`]); the next
    /// batch overwrites them.
    last_commit: (u64, Vec<ReqId>),
    /// Durable-storage hooks ([`bayou_storage::NullPersistence`] unless
    /// the replica was built with [`BayouReplica::with_persistence`] or
    /// [`BayouReplica::recover`]).
    persist: Box<dyn Persistence<F> + Send>,
    /// Reusable buffer: the TOB's durable transitions of the current
    /// step, on their way to the write-ahead log.
    tob_events: Vec<TobEvent<SharedReq<F::Op>>>,
    /// Own requests TOB-cast without entering the tentative order (the
    /// Improved mode's strong operations), with their cast numbers,
    /// until they commit: with `tentative`, the undecided requests a
    /// snapshot lists as pending.
    ordered_only: Vec<(u64, SharedReq<F::Op>)>,
    /// Per-origin high-water of the dot event numbers written ahead —
    /// every logged request and every payload of a logged TOB fact. A
    /// snapshot records it so recovered dots never collide, even with
    /// requests whose payloads compaction dropped.
    event_high: Vec<u64>,
    /// Requests recovered from the WAL that are not yet decided: they
    /// are re-submitted into the TOB on start (relay guarantee across
    /// restarts). `(tob_seq, request)`, the origin being the request's.
    recovered_pending: Vec<(u64, SharedReq<F::Op>)>,
    // ---- committed-history compaction ----------------------------------
    /// Committed entries dropped so far (the high-water mark: the first
    /// `compacted` TOB deliveries exist only as `baseline`).
    compacted: u64,
    /// State materialized at exactly `compacted` committed requests —
    /// what replaces the dropped payloads, and what is served to a
    /// laggard that fell below everyone's compaction floor.
    baseline: F::State,
    /// The TOB floor `baseline` corresponds to.
    baseline_mark: BaselineMark,
    /// Entries dropped from the retained lists since the state object
    /// was created: converts list-relative positions to the state
    /// object's (uncompacted) trace positions.
    dropped_since_state: usize,
    /// Set on the first persistence failure: the replica has
    /// crash-stopped (executes nothing further, sends nothing) — the
    /// cluster observes it as crashed.
    failure: Option<StorageError>,
    // ---- batched commit pipeline ---------------------------------------
    /// Reusable buffer: the deduplicated requests of the batch being
    /// committed (cleared, not reallocated, per batch).
    commit_scratch: Vec<SharedReq<F::Op>>,
    /// Reusable buffer: the revoked executed suffix moved aside by
    /// `adjust_execution` on its way into the rollback queue.
    adjust_scratch: Vec<SharedReq<F::Op>>,
    /// The TOB deliveries received since the last
    /// [`BayouReplica::settle`] — every message of one incoming frame —
    /// committed there as one batch (the buffer is reused).
    deliveries: Vec<TobDelivery<SharedReq<F::Op>>>,
    // ---- read scalability ----------------------------------------------
    /// Leader-lease configuration ([`BayouReplica::set_lease`]): with a
    /// config, the TOB endpoint runs the lease protocol and strong
    /// read-only operations are served locally from `committed_state`
    /// once [`Tob::lease_ready`] holds for their read index. `None` (the
    /// default) keeps the replica bit-for-bit on the all-TOB path.
    lease: Option<LeaseConfig>,
    /// Strong reads the lease will serve, each with its read index
    /// ([`Tob::lease_read_index`]), waiting for that index to be
    /// delivered; [`BayouReplica::settle`] serves them, or sends them
    /// through the TOB round if the lease runs out first.
    lease_parked: Vec<(SharedReq<F::Op>, u64)>,
    /// Materialization of `baseline · committed` — the linearizable
    /// snapshot lease-served reads answer from. Maintained only while
    /// `lease` is set (one [`DataType::apply`] per commit), rebuilt by
    /// [`BayouReplica::set_lease`], replaced on baseline install.
    committed_state: F::State,
    /// Per-origin high-water of observed dot event numbers: entry `i` is
    /// the largest `event_no` this replica has admitted into its
    /// evaluation order from replica `i` (plus its own invocations).
    /// The serving side of [`crate::api::SessionGuard::min_seq`].
    seen_seq: Vec<u64>,
}

impl<F, T, S> BayouReplica<F, T, S>
where
    F: DataType,
    T: Tob<SharedReq<F::Op>>,
    S: StateObject<F> + Default,
{
    /// Creates a replica for a cluster of `n` replicas with the given TOB
    /// implementation and a default-initialised state object.
    pub fn new(n: usize, mode: ProtocolMode, tob: T) -> Self {
        Self::with_state_object(n, mode, tob, S::default())
    }
}

impl<F, T, S> BayouReplica<F, T, S>
where
    F: DataType,
    T: Tob<SharedReq<F::Op>>,
    S: StateObject<F>,
{
    /// Creates a replica speculating through an explicitly constructed
    /// state object (e.g. [`bayou_data::ReplayState`] for comparison
    /// runs).
    pub fn with_state_object(n: usize, mode: ProtocolMode, tob: T, state: S) -> Self {
        BayouReplica {
            mode,
            state,
            curr_event_no: 0,
            committed: Vec::new(),
            committed_set: HashSet::new(),
            tentative: Vec::new(),
            tentative_seq: HashMap::new(),
            executed: Vec::new(),
            executed_set: HashSet::new(),
            stable_len: 0,
            to_be_executed: VecDeque::new(),
            to_be_rolled_back: VecDeque::new(),
            reqs_awaiting_resp: HashMap::new(),
            client_tags: HashMap::new(),
            rb: ReliableBroadcast::new(n, VirtualTime::from_millis(60)),
            tob,
            tob_seq: 0,
            outputs: Vec::new(),
            stats: ReplicaStats::default(),
            invoked: None,
            last_commit: (0, Vec::new()),
            persist: Box::new(NullPersistence),
            tob_events: Vec::new(),
            ordered_only: Vec::new(),
            event_high: vec![0; n],
            recovered_pending: Vec::new(),
            compacted: 0,
            baseline: F::State::default(),
            baseline_mark: BaselineMark::zero(n),
            dropped_since_state: 0,
            failure: None,
            commit_scratch: Vec::new(),
            adjust_scratch: Vec::new(),
            deliveries: Vec::new(),
            lease: None,
            lease_parked: Vec::new(),
            committed_state: F::State::default(),
            seen_seq: vec![0; n],
        }
    }

    /// Attaches durable-storage hooks to a fresh replica: every invoked
    /// or RB-delivered request and every durable TOB transition is
    /// written ahead, and commits feed the snapshot cadence. Enables the
    /// TOB's durable-event recording ([`Tob::set_durable`]).
    pub fn with_persistence(
        n: usize,
        mode: ProtocolMode,
        mut tob: T,
        state: S,
        persist: Box<dyn Persistence<F> + Send>,
    ) -> Self {
        tob.set_durable(true);
        let mut replica = Self::with_state_object(n, mode, tob, state);
        replica.persist = persist;
        replica
    }

    /// Rebuilds replica `me` from its durable storage: the
    /// crash-recovery constructor.
    ///
    /// The caller (see `bayou_core::recover_grouped_paxos` for the
    /// standard wiring) has already restored the TOB endpoint by
    /// replaying the store's records through it
    /// ([`bayou_storage::Recovered::replay`]). From what the replay
    /// yields:
    ///
    /// * `deliveries` — the TOB's delivery order *above the compaction
    ///   mark* (the retained committed list as of the crash);
    /// * `state` + `state_delivered` — a state materialized at an
    ///   absolute delivery prefix; commits beyond it re-execute from
    ///   their logged payloads;
    /// * `mark` + `baseline` — the compaction floor: the first
    ///   `mark.delivered` deliveries exist only as the baseline state;
    /// * `pending` — logged requests the TOB has not decided, to re-enter
    ///   the tentative order and be re-submitted to the TOB on start;
    /// * `event_high` / `cast_next` — high-waters from which new dots
    ///   and TOB-cast numbers resume, so they never collide with
    ///   pre-crash ones; the next snapshot records `event_high`.
    ///
    /// Responses owed to clients at crash time are *not* recovered:
    /// Bayou clients observe a crashed replica as a lost session and
    /// retry (weak responses were tentative anyway; strong requests
    /// re-execute deduplicated by their dot).
    pub fn recover(
        me: ReplicaId,
        mode: ProtocolMode,
        mut tob: T,
        replayed: Replayed<F>,
        persist: Box<dyn Persistence<F> + Send>,
    ) -> Self {
        let Replayed {
            deliveries,
            state,
            state_delivered,
            pending,
            mark,
            baseline,
            event_high,
            cast_next,
        } = replayed;
        let n = event_high.len(); // one high-water per replica
        tob.set_durable(true); // after restore: recovery facts are already on disk
        let compacted = mark.delivered;
        let stable = (state_delivered.saturating_sub(compacted) as usize).min(deliveries.len());
        let committed_set: HashSet<ReqId> = deliveries.iter().map(|r| r.id()).collect();
        let state = S::with_committed_prefix(state, stable);

        // the snapshot-covered prefix is executed; the rest re-executes
        let executed: Vec<SharedReq<F::Op>> = deliveries[..stable].to_vec();
        let executed_set: HashSet<ReqId> = executed.iter().map(|r| r.id()).collect();

        // pending requests re-enter the tentative order by (ts, dot)
        let mut tentative: Vec<SharedReq<F::Op>> =
            pending.iter().map(|(_, _, r)| r.clone()).collect();
        tentative.sort_by_key(|r| r.sort_key());
        let tentative_seq: HashMap<ReqId, u64> =
            pending.iter().map(|(_, seq, r)| (r.id(), *seq)).collect();

        let to_be_executed: VecDeque<SharedReq<F::Op>> = deliveries[stable..]
            .iter()
            .chain(tentative.iter())
            .cloned()
            .collect();

        let recovered_pending: Vec<(u64, SharedReq<F::Op>)> =
            pending.into_iter().map(|(_, seq, r)| (seq, r)).collect();

        // session floors survive a restart only as far as the WAL saw the
        // requests: rebuild the per-origin high-waters from everything
        // recovered (dots of purely-local reads are gone, which only
        // makes the guard check more conservative)
        let mut seen_seq = vec![0u64; n];
        for r in deliveries
            .iter()
            .chain(recovered_pending.iter().map(|(_, r)| r))
        {
            let slot = &mut seen_seq[r.origin().index()];
            *slot = (*slot).max(r.id().event_no());
        }
        BayouReplica {
            curr_event_no: event_high[me.index()],
            committed: deliveries,
            committed_set,
            tentative,
            tentative_seq,
            executed,
            executed_set,
            stable_len: stable,
            to_be_executed,
            tob_seq: cast_next[me.index()],
            persist,
            event_high,
            recovered_pending,
            compacted,
            baseline,
            baseline_mark: mark,
            seen_seq,
            ..Self::with_state_object(n, mode, tob, state)
        }
    }

    /// A replica that is crash-stopped from the start with `failure`:
    /// what a host is given for storage it cannot read, so that it goes
    /// silent exactly as after a failed step barrier.
    pub(crate) fn crash_stopped(
        n: usize,
        mode: ProtocolMode,
        tob: T,
        failure: StorageError,
    ) -> Self {
        BayouReplica {
            failure: Some(failure),
            ..Self::with_state_object(n, mode, tob, S::with_state(F::State::default()))
        }
    }

    /// The protocol mode this replica runs.
    pub fn mode(&self) -> ProtocolMode {
        self.mode
    }

    /// Protocol activity counters.
    pub fn stats(&self) -> ReplicaStats {
        self.stats
    }

    /// Enables (or disables) leader leases on this replica and its TOB
    /// endpoint: the per-lane Ω leader piggybacks time-bounded lease
    /// grants on its TOB traffic and, while the quorum-confirmed window
    /// holds ([`Tob::lease_read_index`]), serves strong *read-only*
    /// operations locally from the committed state once it covers the
    /// read's index ([`Tob::lease_ready`]) — no TOB round, no messages.
    /// A read that misses the window falls back to the ordinary TOB
    /// round; it never silently downgrades.
    ///
    /// Off by default. With `None` the replica takes no clock readings
    /// and sends no lease frames — behaviour is bit-for-bit the all-TOB
    /// baseline.
    pub fn set_lease(&mut self, lease: Option<LeaseConfig>) {
        self.lease = lease;
        self.tob.set_lease(lease);
        if lease.is_some() {
            // (re)materialize `baseline · committed` — from here on it is
            // maintained incrementally at every commit
            let mut state = self.baseline.clone();
            for r in &self.committed {
                F::apply(&mut state, &r.op);
            }
            self.committed_state = state;
        } else {
            self.committed_state = F::State::default();
        }
    }

    /// The leader-lease configuration, if any.
    pub fn lease(&self) -> Option<LeaseConfig> {
        self.lease
    }

    /// The per-origin high-water of admitted dot event numbers — what a
    /// guarded read's [`crate::api::SessionGuard::min_seq`] is checked
    /// against (serving side of the session cursor).
    pub fn seen_seq(&self, origin: ReplicaId) -> u64 {
        self.seen_seq.get(origin.index()).copied().unwrap_or(0)
    }

    /// Advances the per-origin high-water for an admitted request.
    fn note_seen(&mut self, id: ReqId) {
        if let Some(slot) = self.seen_seq.get_mut(id.replica().index()) {
            *slot = (*slot).max(id.event_no());
        }
    }

    /// Committed entries dropped below the watermark so far. The
    /// retained committed list starts at absolute delivery index
    /// `compacted_count()`.
    pub fn compacted_count(&self) -> u64 {
        self.compacted
    }

    /// Total committed requests ever delivered here: the dropped prefix
    /// plus the retained list.
    pub fn committed_total(&self) -> u64 {
        self.compacted + self.committed.len() as u64
    }

    /// The baseline state: the materialization of exactly the first
    /// [`BayouReplica::compacted_count`] committed requests.
    pub fn baseline_state(&self) -> &F::State {
        &self.baseline
    }

    /// The storage failure that crash-stopped this replica, if any. A
    /// failed replica executes nothing and sends nothing — the cluster
    /// sees it as crashed.
    pub fn failure(&self) -> Option<&StorageError> {
        self.failure.as_ref()
    }

    /// Ids on the retained committed list, in TOB delivery order
    /// (`tobNo` order, starting at [`BayouReplica::compacted_count`]).
    pub fn committed_ids(&self) -> Vec<ReqId> {
        self.committed.iter().map(|r| r.id()).collect()
    }

    /// Ids on the tentative list, in `(timestamp, dot)` order.
    pub fn tentative_ids(&self) -> Vec<ReqId> {
        self.tentative.iter().map(|r| r.id()).collect()
    }

    /// Ids of currently executed (not rolled back) requests, in execution
    /// order.
    pub fn executed_ids(&self) -> Vec<ReqId> {
        self.executed.iter().map(|r| r.id()).collect()
    }

    /// The current evaluation order `committed · tentative` (ids).
    pub fn current_order(&self) -> Vec<ReqId> {
        self.committed
            .iter()
            .chain(self.tentative.iter())
            .map(|r| r.id())
            .collect()
    }

    /// Materialises the replica's current logical state.
    pub fn materialize(&self) -> F::State {
        self.state.materialize()
    }

    /// Read access to the state object (diagnostics; e.g. asserting that
    /// rollback bookkeeping stays bounded).
    pub fn state_object(&self) -> &S {
        &self.state
    }

    /// Number of requests whose responses are still owed to clients.
    pub fn awaiting_responses(&self) -> usize {
        self.reqs_awaiting_resp.len()
    }

    /// Takes the record of the invocation handled since the last call,
    /// if any — the hook a history recorder (the simulator harness)
    /// pairs with the input it delivered.
    pub(crate) fn take_invoked(&mut self) -> Option<Invoked> {
        self.invoked.take()
    }

    /// The requests the last commit batch appended, with the committed
    /// position of the first — what a recorder reads after each step to
    /// rebuild the whole committed order (compaction may drop the batch
    /// from the retained list within the step that delivered it).
    pub(crate) fn last_commit(&self) -> (u64, &[ReqId]) {
        (self.last_commit.0, &self.last_commit.1)
    }

    /// What this replica holds in its per-operation bookkeeping (see
    /// [`Retained`]).
    pub fn retained(&self) -> Retained {
        Retained {
            rb_seen: self.rb.retained_seen(),
            rb_unacked: self.rb.unacked_broadcasts(),
            link_sparse: self.rb.link().retained_sparse(),
            tob_keys: self.tob.retained_keys(),
            trace: self.state.trace().len(),
        }
    }

    /// Read access to the TOB component (diagnostics).
    pub fn tob(&self) -> &T {
        &self.tob
    }

    fn committed_contains(&self, id: ReqId) -> bool {
        self.committed_set.contains(&id)
    }

    fn executed_contains(&self, id: ReqId) -> bool {
        self.executed_set.contains(&id)
    }

    /// Checks a persistence hook's result. The first failure crash-stops
    /// the replica (this and every future handler becomes a no-op), which
    /// the rest of the cluster observes exactly as a crash. Returns
    /// whether the hook succeeded (callers must not proceed with the
    /// step's effects when it did not).
    fn persist_ok(&mut self, res: Result<(), StorageError>) -> bool {
        if let Err(e) = res {
            self.failure.get_or_insert(e);
            return false;
        }
        true
    }

    /// Lines 16–21: insert `r` into the tentative list by
    /// `(timestamp, dot)` and re-plan execution. `tob_seq` is the
    /// origin's dense TOB-cast number for `r` (the compaction dedup
    /// cursor).
    fn adjust_tentative_order(&mut self, r: SharedReq<F::Op>, tob_seq: u64) {
        debug_assert!(
            !self.tentative_seq.contains_key(&r.id()),
            "request {} already tentative",
            r.id()
        );
        let pos = self.tentative.partition_point(|x| x.as_ref() < r.as_ref());
        self.note_seen(r.id());
        self.tentative_seq.insert(r.id(), tob_seq);
        self.tentative.insert(pos, r);
        self.adjust_execution();
    }

    /// Lines 35–40: reconcile the executed prefix with the new evaluation
    /// order, scheduling rollbacks and (re-)executions.
    ///
    /// Cost is O(changed suffix): the longest-common-prefix scan starts
    /// at the stable (executed ∧ committed) prefix — which can never be
    /// revoked, so it never needs re-checking — the revoked suffix moves
    /// (not clones) into `to_be_rolled_back`, and the re-execution plan
    /// shares the requests by reference. The staging buffers
    /// (`adjust_scratch`, `to_be_executed`) are cleared and refilled in
    /// place, so steady-state re-planning performs no allocations beyond
    /// amortized capacity growth.
    fn adjust_execution(&mut self) {
        // stable_len ≤ committed.len() and ≤ executed.len(), and
        // executed[..stable_len] == committed[..stable_len] (invariant
        // maintained by the commit paths; committed is append-only and
        // the drain below never cuts into the stable prefix)
        let stable = self.stable_len;
        debug_assert!(stable <= self.executed.len() && stable <= self.committed.len());
        let lcp = stable
            + self.executed[stable..]
                .iter()
                .zip(self.committed[stable..].iter().chain(self.tentative.iter()))
                .take_while(|(a, b)| a.id() == b.id())
                .count();
        debug_assert!(self.adjust_scratch.is_empty());
        self.adjust_scratch.extend(self.executed.drain(lcp..));
        for r in &self.adjust_scratch {
            self.executed_set.remove(&r.id());
        }
        // the retained prefix equals the new order's first `lcp` entries,
        // so the remainder of the new order is exactly what must (re-)run
        self.to_be_executed.clear();
        if lcp <= self.committed.len() {
            self.to_be_executed.extend(
                self.committed[lcp..]
                    .iter()
                    .chain(self.tentative.iter())
                    .cloned(),
            );
        } else {
            self.to_be_executed
                .extend(self.tentative[lcp - self.committed.len()..].iter().cloned());
        }
        debug_assert!(self
            .to_be_executed
            .iter()
            .all(|r| !self.executed_set.contains(&r.id())));
        let rolled_back = self.adjust_scratch.drain(..).rev();
        self.to_be_rolled_back.extend(rolled_back);
    }

    /// Collects the TOB's durable transitions from the step that just
    /// ran and writes them ahead (no-op with [`NullPersistence`] and a
    /// TOB whose durability is off). The event buffer is reused.
    fn persist_tob_events(&mut self) {
        self.tob.drain_durable(&mut self.tob_events);
        if self.tob_events.is_empty() {
            return;
        }
        for ev in &self.tob_events {
            if let TobEvent::Accepted { payload, .. } | TobEvent::Decided { payload, .. } = ev {
                note_event(&mut self.event_high, payload);
            }
        }
        match self
            .persist
            .log_tob_events(std::mem::take(&mut self.tob_events))
        {
            Ok(emptied) => self.tob_events = emptied,
            Err(e) => {
                self.failure.get_or_insert(e);
            }
        }
    }

    /// The image of this replica a snapshot records: the state at every
    /// delivery, the compaction floor with its baseline, the TOB's
    /// durable facts above the floor and the requests still undecided
    /// (`me` tells own invocations from relayed ones).
    fn snapshot_image(&self, me: ReplicaId) -> Snapshot<F> {
        let state = if self.lease.is_some() {
            self.committed_state.clone()
        } else {
            let mut state = self.baseline.clone();
            for r in &self.committed {
                F::apply(&mut state, &r.op);
            }
            state
        };
        let mark = &self.baseline_mark;
        let mut image = Snapshot {
            delivered: self.committed_total(),
            state,
            promised: (0, ReplicaId::new(0)),
            accepted: Vec::new(),
            decided: Vec::new(),
            pending: Vec::new(),
            mark: mark.clone(),
            baseline: self.baseline.clone(),
            event_high: self.event_high.clone(),
        };
        image.set_tob_image(self.tob.durable_image(mark.slot_floor));
        let tentative = self
            .tentative
            .iter()
            .map(|r| (self.tentative_seq[&r.id()], r));
        let ordered = self.ordered_only.iter().map(|(seq, r)| (*seq, r));
        image.pending = tentative
            .chain(ordered)
            .filter(|(seq, r)| !self.tob.is_decided(r.origin(), *seq))
            .map(|(seq, r)| {
                let kind = if r.origin() == me {
                    PendingKind::Invoke
                } else {
                    PendingKind::Tentative
                };
                (kind, seq, r.as_ref().clone())
            })
            .collect();
        image.pending.sort_by_key(|(_, _, r)| r.id());
        image
    }

    /// Cuts a snapshot of this replica and hands it to the store (a
    /// failure crash-stops the replica).
    fn save_snapshot(&mut self, me: ReplicaId) {
        let image = self.snapshot_image(me);
        let res = self.persist.save_snapshot(&image);
        self.persist_ok(res);
    }

    /// Length of the retained stable (executed ∧ committed) prefix.
    /// `executed` is always a prefix of `committed · tentative` (every
    /// order change re-plans through [`BayouReplica::adjust_execution`]),
    /// so that prefix is exactly the shorter of the two lists.
    fn stable_prefix(&self) -> usize {
        self.executed.len().min(self.committed.len())
    }

    /// Committed-order position of the state object's first trace id:
    /// where it began, which compaction does not move.
    fn state_origin(&self) -> u64 {
        self.compacted - self.dropped_since_state as u64
    }

    /// The state object's current trace as a response carries it: the
    /// prefix that can never roll back (what compaction dropped since the
    /// state object was created, plus the retained stable prefix) by
    /// position in the committed order, the speculation window after it
    /// by value — O(window), never O(lifetime). The state object keeps
    /// its trace only from its last stable-prefix truncation on, which
    /// never passes the current stable prefix.
    fn exec_trace(&self) -> ExecTrace {
        let stable = self.dropped_since_state + self.stable_prefix();
        let tail = &self.state.trace()[stable - self.state.trace_offset()..];
        ExecTrace::new(self.state_origin(), stable, tail.to_vec())
    }

    /// Answers `r`'s client: releases the request's correlation tag and
    /// queues the response.
    fn respond(&mut self, r: &Req<F::Op>, value: Value, exec_trace: ExecTrace, served: Served) {
        let tag = self.client_tags.remove(&r.id());
        self.outputs.push(Response {
            meta: r.meta(),
            value,
            exec_trace,
            tag,
            served,
        });
    }

    /// Releases the stored response of a just-committed request, if its
    /// execution already stands in the final order.
    fn emit_committed_response(&mut self, r: &SharedReq<F::Op>) {
        let id = r.id();
        if self.reqs_awaiting_resp.contains_key(&id) && self.executed_contains(id) {
            if let Some(Some((value, trace))) = self.reqs_awaiting_resp.remove(&id) {
                self.respond(r, value, trace, Served::Committed);
            }
            // a `None` stored response cannot happen here: r ∈ executed
            // implies the execute step stored or returned it already
        }
    }

    /// Recomputes the stable (executed ∧ committed) prefix length and
    /// lets the state object drop rollback bookkeeping below it.
    /// Callers must have the invariant that `executed` is a prefix of
    /// `committed · tentative` (guaranteed after [`adjust_execution`]
    /// and whenever the execution queues drained).
    ///
    /// Positions handed to the state object are trace-absolute: its
    /// trace still contains everything compaction dropped from the
    /// replica's lists since the state object was created.
    fn refresh_stable_prefix(&mut self) {
        let stable = self.stable_prefix();
        debug_assert!(self
            .executed
            .iter()
            .take(stable)
            .zip(self.committed.iter())
            .all(|(e, c)| e.id() == c.id()));
        self.stable_len = stable;
        self.state
            .truncate_checkpoints(self.dropped_since_state + stable);
    }

    /// Truncates the committed prefix up to the TOB's compaction floor:
    /// the dropped payloads fold into the baseline state, and the store
    /// is told so its next snapshot is compact.
    ///
    /// Only whole floors are taken (all-or-nothing): the baseline must
    /// sit at *exactly* the floor the TOB describes, so if local
    /// execution still lags the floor the truncation waits for the next
    /// delivery instead of splitting the difference.
    fn maybe_compact(&mut self) {
        // borrowed: a settle where the floor did not move copies nothing
        let Some(mark) = self.tob.baseline_mark() else {
            return;
        };
        if mark.delivered <= self.compacted {
            // the floor can also advance purely in *slot* space (trailing
            // no-delivery duplicate slots): adopt the higher-slot mark so
            // the baseline we serve to laggards can step them over it
            if mark.delivered == self.compacted && mark.slot_floor > self.baseline_mark.slot_floor {
                self.baseline_mark = mark.clone();
                self.tob.release_decided(self.baseline_mark.slot_floor);
            }
            return;
        }
        let k = (mark.delivered - self.compacted) as usize;
        if k > self.stable_len {
            return; // executions below the floor still outstanding
        }
        let mark = mark.clone();
        for r in self.committed.drain(..k) {
            self.committed_set.remove(&r.id());
            F::apply(&mut self.baseline, &r.op);
        }
        for r in self.executed.drain(..k) {
            self.executed_set.remove(&r.id());
        }
        self.stable_len -= k;
        self.dropped_since_state += k;
        self.compacted = mark.delivered;
        self.baseline_mark = mark;
        self.tob.release_decided(self.baseline_mark.slot_floor);
    }

    /// Installs a baseline received from a peer: this replica fell below
    /// the cluster-wide compaction floor (its missing history no longer
    /// exists as replayable requests anywhere), so it replaces its
    /// committed prefix with the transferred state-at-the-mark and
    /// resumes normal catch-up above it.
    fn install_baseline(&mut self, me: ReplicaId, state: F::State, mark: BaselineMark) {
        if mark.delivered < self.committed_total() {
            return; // stale transfer: we already hold a longer prefix
        }
        if mark.delivered == self.committed_total() {
            // same delivery prefix: the visible history does not change,
            // but the sender's mark may sit on a higher *slot* floor than
            // our TOB's (trailing no-delivery duplicate slots that
            // everyone truncated) — fast-forward only the TOB's slot
            // bookkeeping so its contiguous prefix can step over them,
            // and keep all replica-level state
            self.tob.install_baseline(&mark);
            self.maybe_compact();
            return;
        }
        self.tob.install_baseline(&mark);
        // a replica reborn without its disk restarts its counters at 0;
        // the mark's cast cursor is a floor for both, or every future
        // invocation would reuse a (sender, seq) key the cluster already
        // decided and be silently dropped as a duplicate. (Event numbers
        // of purely-local read-only invocations are not recoverable from
        // the mark — those dots never enter the TOB, see the harness.)
        self.tob_seq = self.tob_seq.max(mark.next_for(me));
        self.curr_event_no = self.curr_event_no.max(mark.next_for(me));
        // tentative requests whose cast number falls below the mark were
        // decided inside the installed prefix: drop them (their stored
        // responses are unrecoverable — the client observes a lost
        // session, as with a crash)
        let tentative_seq = &self.tentative_seq;
        let (kept, dropped): (Vec<_>, Vec<_>) = std::mem::take(&mut self.tentative)
            .into_iter()
            .partition(|r| {
                tentative_seq
                    .get(&r.id())
                    .is_none_or(|seq| *seq >= mark.next_for(r.origin()))
            });
        self.tentative = kept;
        for r in dropped {
            self.tentative_seq.remove(&r.id());
            self.reqs_awaiting_resp.remove(&r.id());
        }
        self.ordered_only
            .retain(|(seq, r)| *seq >= mark.next_for(r.origin()));
        // reset speculation on top of the baseline: nothing is executed,
        // the committed list restarts (empty) at the mark. Responses
        // still owed for requests inside the cleared prefix can never be
        // produced (their execution context is gone) — the client
        // observes a lost session, as with a crash.
        for r in &self.committed {
            self.reqs_awaiting_resp.remove(&r.id());
        }
        self.committed.clear();
        self.committed_set.clear();
        self.executed.clear();
        self.executed_set.clear();
        self.to_be_rolled_back.clear();
        self.stable_len = 0;
        self.compacted = mark.delivered;
        self.baseline = state.clone();
        self.baseline_mark = mark;
        if self.lease.is_some() {
            // committed list is now empty: the snapshot *is* the
            // committed state
            self.committed_state = state.clone();
        }
        self.state = S::with_state(state);
        self.dropped_since_state = 0;
        self.adjust_execution();
        self.tob.release_decided(self.baseline_mark.slot_floor);
        // the new prefix is made durable at once, so a crash cannot fall
        // back below the cluster-wide floor again
        self.save_snapshot(me);
    }

    /// Reacts to the TOB flagging that our prefix fell below a peer's
    /// compaction floor: ask that peer for its baseline.
    fn request_baseline_if_needed(&mut self, ctx: &mut dyn Context<Msg<F, T>>) {
        if let Some(peer) = self.tob.take_baseline_needed() {
            ctx.send(peer, BayouMsg::BaselineRequest);
        }
    }

    fn handle_rb_deliver(&mut self, wire: WireReq<F::Op>, ctx: &mut dyn Context<Msg<F, T>>) {
        let r = wire.req;
        if r.origin() == ctx.id() {
            return; // lines 23–24: issued locally
        }
        if wire.tob_seq < self.tob.released_seq(r.origin()) {
            // a stale re-delivery of a long-committed request: with
            // compaction its id may have left the committed set, but the
            // origin's cast cursor still identifies it
            return;
        }
        self.stats.rb_deliveries += 1;
        // Relay guarantee: an RB-delivered request must eventually be
        // TOB-delivered even if its origin crashed or is partitioned away.
        {
            let mut tctx = MapCtx::new(ctx, BayouMsg::Tob);
            self.tob
                .ensure(r.origin(), wire.tob_seq, r.clone(), &mut tctx);
        }
        self.persist_tob_events();
        if !self.committed_contains(r.id()) && !self.tentative_seq.contains_key(&r.id()) {
            // a request the TOB already decided is on disk as that
            // decision: only an undecided one needs its own record
            if !self.tob.is_decided(r.origin(), wire.tob_seq) {
                note_event(&mut self.event_high, &r);
                let res = self.persist.log_tentative(&r, wire.tob_seq);
                if !self.persist_ok(res) {
                    return;
                }
            }
            self.adjust_tentative_order(r, wire.tob_seq);
        }
    }

    /// Broadcasts a fresh local request; returns the TOB-cast sequence
    /// number it was assigned (or `None` when the write-ahead log could
    /// not persist it — the replica has crash-stopped).
    fn broadcast_req(
        &mut self,
        r: &SharedReq<F::Op>,
        ctx: &mut dyn Context<Msg<F, T>>,
        rb_too: bool,
    ) -> Option<u64> {
        let seq = self.tob_seq;
        self.tob_seq += 1;
        // write-ahead: the request (with its TOB-cast number) is durable
        // before any frame carrying it can leave this step
        note_event(&mut self.event_high, r);
        let res = self.persist.log_invoke(r, seq);
        if !self.persist_ok(res) {
            return None;
        }
        if rb_too {
            let wire = WireReq {
                req: r.clone(),
                tob_seq: seq,
            };
            let mut rctx = MapCtx::new(ctx, BayouMsg::Rb);
            self.rb.broadcast(wire, &mut rctx);
        } else {
            self.ordered_only.push((seq, r.clone()));
        }
        let mut tctx = MapCtx::new(ctx, BayouMsg::Tob);
        self.tob.cast(seq, r.clone(), &mut tctx);
        self.persist_tob_events();
        Some(seq)
    }

    /// Lines 27–34, for one incoming frame's whole TOB delivery batch
    /// (drains `batch`): TOB delivery fixes the final position of every
    /// request in it. The batch is spliced into the committed order with
    /// one group-commit persistence call, one rollback/replay adjustment
    /// and one stable-prefix refresh — instead of one of each per request
    /// — and the caller follows with one compaction check
    /// ([`BayouReplica::settle`]).
    ///
    /// Observably equivalent to committing the entries one by one (the
    /// digests recorded in `tests/batching.rs`): committed/tentative/
    /// executed land in the same state because the committed list is
    /// append-only and the executed list only shrinks during delivery
    /// steps, so the intermediate adjustments a per-request commit would
    /// perform are all subsumed by the final one; the response condition
    /// (`executed` after the step) is likewise monotone across the
    /// batch, and responses are emitted in delivery order either way.
    fn commit_batch(&mut self, batch: &mut Vec<TobDelivery<SharedReq<F::Op>>>, me: ReplicaId) {
        debug_assert!(self.commit_scratch.is_empty());
        for d in batch.drain(..) {
            let r = d.payload;
            // after a crash-restart, catch-up may re-deliver commits the
            // recovered state already contains; they are idempotent
            if !self.committed_contains(r.id()) {
                self.commit_scratch.push(r);
            }
        }
        if self.commit_scratch.is_empty() {
            return;
        }
        // the batch's decisions are on disk already; it feeds the
        // snapshot cadence once
        let res = self.persist.log_commit_batch(&self.commit_scratch);
        if !self.persist_ok(res) {
            self.commit_scratch.clear();
            return; // crash-stopped: none of the batch is acknowledged
        }
        let mut reqs = std::mem::take(&mut self.commit_scratch);
        self.stats.tob_deliveries += reqs.len() as u64;
        self.last_commit.0 = self.committed_total();
        self.last_commit.1.clear();
        let mut any_tentative = false;
        for r in &reqs {
            let id = r.id();
            self.last_commit.1.push(id);
            self.committed_set.insert(id);
            self.note_seen(id);
            if self.lease.is_some() {
                F::apply(&mut self.committed_state, &r.op);
            }
            self.committed.push(r.clone());
            any_tentative |= self.tentative_seq.remove(&id).is_some();
        }
        if any_tentative {
            // one pass for the whole batch: everything no longer in
            // `tentative_seq` (kept 1:1 with `tentative`) just committed
            let tentative_seq = &self.tentative_seq;
            self.tentative
                .retain(|x| tentative_seq.contains_key(&x.id()));
        }
        if !self.ordered_only.is_empty() {
            let committed = &self.committed_set;
            self.ordered_only
                .retain(|(_, r)| !committed.contains(&r.id()));
        }
        // the snapshot point: the batch is committed, nothing of the
        // step has left yet
        if self.persist.snapshot_due() {
            self.save_snapshot(me);
        }
        self.adjust_execution();
        // allow the state object to drop undo records of the stable
        // prefix: after adjust_execution the executed list is a prefix of
        // committed · tentative, so the stable prefix length is O(1)
        self.refresh_stable_prefix();
        for r in &reqs {
            self.emit_committed_response(r);
        }
        // hand the emptied buffer back for the next batch
        reqs.clear();
        self.commit_scratch = reqs;
    }
}

impl<F, T, S> BayouReplica<F, T, S>
where
    F: DataType,
    T: Tob<SharedReq<F::Op>>,
    S: StateObject<F>,
{
    /// Starts the replica inside its host's first step: starts the TOB
    /// endpoint and re-submits recovered pending requests, so they are
    /// decided even though their original cast/relay messages are gone
    /// (the relay guarantee must hold across restarts).
    pub fn start(&mut self, ctx: &mut dyn Context<Msg<F, T>>) {
        if self.failure.is_some() {
            return;
        }
        {
            let mut tctx = MapCtx::new(ctx, BayouMsg::Tob);
            self.tob.on_start(&mut tctx);
            for (seq, req) in std::mem::take(&mut self.recovered_pending) {
                self.tob.ensure(req.origin(), seq, req, &mut tctx);
            }
        }
        self.persist_tob_events();
    }

    /// Lines 9–15 (Algorithm 1) / Algorithm 2: handles one client
    /// invocation.
    pub fn invoke(&mut self, inv: Invocation<F::Op>, ctx: &mut dyn Context<Msg<F, T>>) {
        if self.failure.is_some() {
            return; // crash-stopped: no new work is accepted
        }
        self.stats.invocations += 1;
        self.curr_event_no += 1;
        let tag = inv.tag;
        let guard = inv.guard;
        let r = Arc::new(Req::new(
            ctx.clock(),
            Dot::new(ctx.id(), self.curr_event_no),
            inv.level,
            inv.op,
        ));
        self.note_seen(r.id());
        if let Some(tag) = tag {
            self.client_tags.insert(r.id(), tag);
        }
        // Leader-lease fast path: a strong *read* arriving while the TOB
        // holds a quorum-confirmed lease window is served locally from
        // the committed state once that covers the read's index — no
        // TOB round, no messages. The check reads the (possibly skewed)
        // local clock, so it is reached only with a lease configured:
        // lease-off runs take the exact baseline step sequence.
        let lease_index = if self.mode == ProtocolMode::Improved
            && r.level.is_strong()
            && F::is_read_only(&r.op)
            && self.lease.is_some()
        {
            self.tob.lease_read_index(ctx.clock())
        } else {
            None
        };
        let tob_cast = match self.mode {
            ProtocolMode::Original => true,
            ProtocolMode::Improved => {
                lease_index.is_none() && (r.level.is_strong() || !F::is_read_only(&r.op))
            }
        };
        self.invoked = Some(Invoked {
            meta: r.meta(),
            invoked_at: ctx.now(),
            tob_cast,
        });
        match self.mode {
            ProtocolMode::Original => {
                if let Some(seq) = self.broadcast_req(&r, ctx, true) {
                    self.reqs_awaiting_resp.insert(r.id(), None);
                    self.adjust_tentative_order(r, seq);
                }
            }
            ProtocolMode::Improved => {
                if r.level.is_weak() {
                    // Session guard: a guarded weak read is served only
                    // when this replica stands at-or-past both session
                    // floors *and* its execution has caught up with the
                    // evaluation order (so everything admitted is
                    // actually in the state the read runs on). Otherwise
                    // the read is refused with a typed retry — never
                    // answered with state that would violate the
                    // session's guarantees.
                    if F::is_read_only(&r.op) {
                        if let Some(g) = guard {
                            let seen = self.seen_seq(g.origin);
                            let committed = self.committed_total();
                            let caught_up = seen >= g.min_seq
                                && committed >= g.min_commit
                                && self.to_be_executed.is_empty()
                                && self.to_be_rolled_back.is_empty();
                            if !caught_up {
                                self.stats.session_retries += 1;
                                let served = Served::Retry {
                                    seen_seq: seen,
                                    committed,
                                };
                                self.respond(&r, Value::Unit, ExecTrace::default(), served);
                                return;
                            }
                        }
                    }
                    // Execute immediately on the current state; the
                    // tentative response reflects exactly what this
                    // replica has executed so far (no concurrent request
                    // can sneak in front — this is what prevents circular
                    // causality).
                    let trace_before = self.exec_trace();
                    let value = self.state.execute(r.id(), &r.op);
                    self.respond(&r, value, trace_before, Served::Speculative);
                    self.state.rollback(r.id());
                    if !F::is_read_only(&r.op) {
                        if let Some(seq) = self.broadcast_req(&r, ctx, true) {
                            self.adjust_tentative_order(r, seq);
                        }
                    }
                } else if let Some(index) = lease_index {
                    if self.tob.lease_ready(ctx.clock(), index) {
                        self.serve_lease_read(&r);
                    } else {
                        self.lease_parked.push((r, index));
                    }
                } else {
                    self.reqs_awaiting_resp.insert(r.id(), None);
                    self.broadcast_req(&r, ctx, false);
                }
            }
        }
    }

    /// Answers a strong read from the committed state under the lease.
    fn serve_lease_read(&mut self, r: &Req<F::Op>) {
        // a read-only op leaves the committed state untouched
        self.stats.lease_reads += 1;
        let value = F::apply(&mut self.committed_state, &r.op);
        let served = Served::Lease {
            committed: self.committed_total(),
        };
        // the committed order from the state object's origin: its stable
        // prefix by length, then the committed requests not executed yet
        let stable = self.stable_prefix();
        let trace = ExecTrace::new(
            self.state_origin(),
            self.dropped_since_state + stable,
            self.committed[stable..].iter().map(|c| c.id()).collect(),
        );
        self.respond(r, value, trace, served);
    }

    /// Serves the parked lease reads whose index is delivered. While the
    /// lease holds the rest keep waiting; once it is lost they take the
    /// TOB round, like a read that arrived without a lease.
    fn serve_parked_reads(&mut self, ctx: &mut dyn Context<Msg<F, T>>) {
        if self.lease_parked.is_empty() {
            return;
        }
        let now = ctx.clock();
        let held = self.tob.lease_read_index(now).is_some();
        for (r, index) in std::mem::take(&mut self.lease_parked) {
            if self.tob.lease_ready(now, index) {
                self.serve_lease_read(&r);
            } else if held {
                self.lease_parked.push((r, index));
            } else {
                self.reqs_awaiting_resp.insert(r.id(), None);
                self.broadcast_req(&r, ctx, false);
            }
        }
    }

    /// Handles one wire message from `from`. The TOB deliveries it
    /// produces wait for [`BayouReplica::settle`], which the host calls
    /// once after every message of the incoming frame, so a frame
    /// commits as one delivery batch.
    pub fn receive(&mut self, from: ReplicaId, msg: Msg<F, T>, ctx: &mut dyn Context<Msg<F, T>>) {
        if self.failure.is_some() {
            return; // crash-stopped: silent to the cluster
        }
        match msg {
            BayouMsg::Rb(frame) => {
                let delivered = {
                    let mut rctx = MapCtx::new(ctx, BayouMsg::Rb);
                    self.rb.on_message(from, frame, &mut rctx)
                };
                for (_id, wire) in delivered {
                    self.handle_rb_deliver(wire, ctx);
                }
            }
            BayouMsg::Tob(tm) => {
                let batch = {
                    let mut tctx = MapCtx::new(ctx, BayouMsg::Tob);
                    self.tob.on_message(from, tm, &mut tctx)
                };
                self.deliveries.extend(batch);
            }
            BayouMsg::BaselineRequest => {
                // serve our baseline to a replica that fell below the
                // cluster-wide compaction floor
                if self.compacted > 0 {
                    ctx.send(
                        from,
                        BayouMsg::Baseline {
                            state: self.baseline.clone(),
                            mark: self.baseline_mark.clone(),
                        },
                    );
                }
            }
            BayouMsg::Baseline { state, mark } => {
                let me = ctx.id();
                self.install_baseline(me, state, mark);
            }
        }
    }

    /// Ends the TOB half of a step: logs the step's durable TOB facts,
    /// commits every delivery received since the last settle as one
    /// batch, serves the lease reads it unblocked and follows the
    /// compaction floor.
    pub fn settle(&mut self, ctx: &mut dyn Context<Msg<F, T>>) {
        // durable TOB facts (promises, acceptances, decisions) hit the
        // WAL — one write, one sync — before the deliveries they imply
        // execute and before any coalesced frame leaves the step
        self.persist_tob_events();
        let mut deliveries = std::mem::take(&mut self.deliveries);
        self.commit_batch(&mut deliveries, ctx.id());
        self.deliveries = deliveries;
        self.serve_parked_reads(ctx);
        // the TOB floor can advance on delivery-free steps too (a cursor
        // report arriving): follow it, or the baseline we serve to
        // laggards would lag the floor forever in a quiescent cluster
        self.maybe_compact();
        self.request_baseline_if_needed(ctx);
    }

    /// Handles the fire of a timer this replica armed: an RB link
    /// retransmit or ack tick, or a TOB timer (which may deliver, and
    /// then settles).
    pub fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Msg<F, T>>) {
        if self.failure.is_some() {
            return;
        }
        let mine = {
            let mut rctx = MapCtx::new(ctx, BayouMsg::Rb);
            self.rb.on_timer(timer, &mut rctx)
        };
        if !mine && self.tob.owns_timer(timer) {
            let batch = {
                let mut tctx = MapCtx::new(ctx, BayouMsg::Tob);
                self.tob.on_timer(timer, &mut tctx)
            };
            self.deliveries.extend(batch);
            self.settle(ctx);
        }
    }

    /// Lines 41–55: one `rollback` or one `execute` internal step.
    /// Returns `false` when neither is enabled (the replica is passive).
    pub fn step(&mut self) -> bool {
        if self.failure.is_some() {
            return false;
        }
        if let Some(head) = self.to_be_rolled_back.pop_front() {
            self.state.rollback(head.id());
            self.stats.rollbacks += 1;
            return true;
        }
        if let Some(head) = self.to_be_executed.pop_front() {
            // the trace snapshot is only needed for a response to a local
            // client; remote requests must not pay even the window copy
            let awaiting = self.reqs_awaiting_resp.contains_key(&head.id());
            let trace_before = if awaiting {
                self.exec_trace()
            } else {
                ExecTrace::default()
            };
            let value = self.state.execute(head.id(), &head.op);
            self.stats.executions += 1;
            if awaiting {
                if head.level.is_weak() || self.committed_contains(head.id()) {
                    let served = if head.level.is_weak() {
                        Served::Speculative
                    } else {
                        Served::Committed
                    };
                    self.respond(&head, value, trace_before, served);
                    self.reqs_awaiting_resp.remove(&head.id());
                } else {
                    self.reqs_awaiting_resp
                        .insert(head.id(), Some((value, trace_before)));
                }
            }
            self.executed_set.insert(head.id());
            self.executed.push(head);
            if self.to_be_executed.is_empty() && self.to_be_rolled_back.is_empty() {
                // execution caught up with the evaluation order: the
                // stable prefix is maximal again. Recompute it and follow
                // the TOB's compaction floor — a floor that arrived while
                // executions were still queued was skipped by the
                // message-step `maybe_compact` (the baseline must never
                // outrun local execution), and without this step nothing
                // would ever re-apply it on a quiescing replica.
                self.refresh_stable_prefix();
                self.maybe_compact();
            }
            return true;
        }
        false
    }

    /// Drains the client responses produced since the last call.
    pub fn drain_outputs(&mut self) -> Vec<Response> {
        std::mem::take(&mut self.outputs)
    }

    /// Settles the deferred group-commit sync: one fsync for everything
    /// logged since the last call (a no-op for a store that defers to
    /// its host's shared barrier). The host's
    /// [`bayou_types::Process::barrier`] runs this *before* any frame
    /// leaves, which preserves the write-ahead contract; a sync failure
    /// crash-stops the replica, and the runtime then discards the
    /// buffered sends and outputs it covered.
    pub(crate) fn sync_step(&mut self) {
        let res = self.persist.sync_step();
        self.persist_ok(res);
    }

    /// The durable-storage hooks, for the host's fsync and stall meters.
    pub(crate) fn persistence(&mut self) -> &mut (dyn Persistence<F> + Send) {
        self.persist.as_mut()
    }
}

/// Raises `event_high`'s entry for `req`'s origin to its dot.
fn note_event<Op>(event_high: &mut [u64], req: &Req<Op>) {
    if let Some(h) = event_high.get_mut(req.origin().index()) {
        *h = (*h).max(req.id().event_no());
    }
}

impl<F, T, S> fmt::Debug for BayouReplica<F, T, S>
where
    F: DataType,
    T: Tob<SharedReq<F::Op>> + fmt::Debug,
    S: StateObject<F>,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BayouReplica")
            .field("mode", &self.mode)
            .field("compacted", &self.compacted)
            .field("committed", &self.committed_ids())
            .field("tentative", &self.tentative_ids())
            .field("executed", &self.executed_ids())
            .field("stats", &self.stats)
            .finish()
    }
}

// unit tests live in harness.rs where a full cluster is available; pure
// list-surgery behaviours are tested here through a stub TOB. The stub
// context serves the host's unit tests too.
#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::nulltob::NullTob;
    use bayou_data::{AppendList, KvOp, KvStore, ListOp, ReplayState};
    use bayou_types::{Level, Timestamp};

    pub(crate) struct StubCtx {
        clock: i64,
        id: ReplicaId,
    }

    impl<M> Context<M> for StubCtx {
        fn id(&self) -> ReplicaId {
            self.id
        }
        fn cluster_size(&self) -> usize {
            2
        }
        fn now(&self) -> VirtualTime {
            VirtualTime::ZERO
        }
        fn clock(&mut self) -> Timestamp {
            self.clock += 1;
            Timestamp::new(self.clock)
        }
        fn send(&mut self, _to: ReplicaId, _m: M) {}
        fn set_timer(&mut self, _d: VirtualTime) -> TimerId {
            TimerId::new(0)
        }
        fn random(&mut self) -> u64 {
            0
        }
        fn omega(&mut self) -> ReplicaId {
            ReplicaId::new(0)
        }
    }

    type R = BayouReplica<AppendList, NullTob<SharedReq<ListOp>>>;

    pub(crate) fn stub(id: u32) -> StubCtx {
        StubCtx {
            clock: 0,
            id: ReplicaId::new(id),
        }
    }

    fn replica(mode: ProtocolMode) -> (R, StubCtx) {
        (BayouReplica::new(2, mode, NullTob::new()), stub(0))
    }

    fn drive(r: &mut R) {
        while r.step() {}
    }

    /// TOB-delivers `req` as a batch of one.
    fn commit<F: DataType, S: StateObject<F>>(
        r: &mut BayouReplica<F, NullTob<SharedReq<F::Op>>, S>,
        req: SharedReq<F::Op>,
    ) {
        r.commit_batch(
            &mut vec![TobDelivery {
                sender: req.origin(),
                seq: 0,
                tob_no: r.committed_total(),
                payload: req,
            }],
            ReplicaId::new(0),
        );
    }

    fn shared(ts: i64, replica: u32, n: u64, level: Level, op: ListOp) -> SharedReq<ListOp> {
        Arc::new(Req::new(
            Timestamp::new(ts),
            Dot::new(ReplicaId::new(replica), n),
            level,
            op,
        ))
    }

    #[test]
    fn original_mode_returns_tentative_response_at_execution() {
        let (mut r, mut ctx) = replica(ProtocolMode::Original);
        r.invoke(Invocation::weak(ListOp::append("a")), &mut ctx);
        assert!(
            r.drain_outputs().is_empty(),
            "response needs an execute step"
        );
        drive(&mut r);
        let out = r.drain_outputs();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, Value::from("a"));
        assert_eq!(out[0].exec_trace, ExecTrace::default());
    }

    #[test]
    fn improved_mode_weak_response_is_immediate() {
        let (mut r, mut ctx) = replica(ProtocolMode::Improved);
        r.invoke(Invocation::weak(ListOp::append("a")), &mut ctx);
        let out = r.drain_outputs();
        assert_eq!(out.len(), 1, "improved mode responds at invoke");
        assert_eq!(out[0].value, Value::from("a"));
        drive(&mut r);
        // the op re-executed into the tentative order
        assert_eq!(r.executed_ids().len(), 1);
    }

    #[test]
    fn improved_mode_weak_ro_is_local_only() {
        let (mut r, mut ctx) = replica(ProtocolMode::Improved);
        r.invoke(Invocation::weak(ListOp::Read), &mut ctx);
        let out = r.drain_outputs();
        assert_eq!(out[0].value, Value::from(""));
        drive(&mut r);
        assert!(r.tentative_ids().is_empty(), "RO op never enters tentative");
        assert!(r.executed_ids().is_empty());
    }

    #[test]
    fn tentative_order_sorts_by_timestamp_then_dot() {
        let (mut r, mut ctx) = replica(ProtocolMode::Original);
        // local op with clock 1
        r.invoke(Invocation::weak(ListOp::append("x")), &mut ctx);
        drive(&mut r);
        // remote op with an older timestamp must sort in front
        let remote = shared(0, 1, 1, Level::Weak, ListOp::append("y"));
        r.handle_rb_deliver(
            WireReq {
                req: remote,
                tob_seq: 0,
            },
            &mut ctx,
        );
        drive(&mut r);
        assert_eq!(r.stats().rollbacks, 1, "x must be rolled back");
        assert_eq!(r.materialize(), vec!["y".to_string(), "x".to_string()]);
    }

    #[test]
    fn own_rb_delivery_is_ignored() {
        let (mut r, mut ctx) = replica(ProtocolMode::Original);
        r.invoke(Invocation::weak(ListOp::append("x")), &mut ctx);
        drive(&mut r);
        let own = shared(1, 0, 1, Level::Weak, ListOp::append("x"));
        r.handle_rb_deliver(
            WireReq {
                req: own,
                tob_seq: 0,
            },
            &mut ctx,
        );
        assert_eq!(r.tentative_ids().len(), 1, "no duplicate insertion");
    }

    #[test]
    fn tob_delivery_moves_req_to_committed() {
        let (mut r, mut ctx) = replica(ProtocolMode::Original);
        r.invoke(Invocation::weak(ListOp::append("x")), &mut ctx);
        drive(&mut r);
        let req = shared(1, 0, 1, Level::Weak, ListOp::append("x"));
        commit(&mut r, req);
        assert_eq!(r.committed_ids().len(), 1);
        assert!(r.tentative_ids().is_empty());
        drive(&mut r);
        // already executed in the right order: no rollback
        assert_eq!(r.stats().rollbacks, 0);
    }

    #[test]
    fn commit_of_earlier_remote_req_forces_rollback_and_reexecution() {
        let (mut r, mut ctx) = replica(ProtocolMode::Original);
        r.invoke(Invocation::weak(ListOp::append("x")), &mut ctx);
        drive(&mut r);
        assert_eq!(r.materialize(), vec!["x".to_string()]);
        // a remote request commits first (TOB order beats timestamps)
        let remote = shared(100, 1, 1, Level::Weak, ListOp::append("z"));
        commit(&mut r, remote);
        drive(&mut r);
        assert_eq!(r.stats().rollbacks, 1);
        assert_eq!(r.materialize(), vec!["z".to_string(), "x".to_string()]);
        assert_eq!(r.executed_ids().len(), 2);
    }

    #[test]
    fn redelivered_commits_are_idempotent() {
        // after a crash-restart, catch-up may re-deliver commits the
        // recovered state already contains
        let (mut r, _) = replica(ProtocolMode::Original);
        let a = shared(1, 1, 1, Level::Weak, ListOp::append("a"));
        let b = shared(2, 1, 2, Level::Weak, ListOp::append("b"));
        commit(&mut r, a.clone());
        drive(&mut r);
        // a duplicate alone, then a duplicate ahead of a fresh request
        commit(&mut r, a.clone());
        r.commit_batch(
            &mut vec![
                TobDelivery {
                    sender: a.origin(),
                    seq: 0,
                    tob_no: 0,
                    payload: a,
                },
                TobDelivery {
                    sender: b.origin(),
                    seq: 1,
                    tob_no: 1,
                    payload: b,
                },
            ],
            ReplicaId::new(0),
        );
        drive(&mut r);
        assert_eq!(r.committed_ids().len(), 2);
        assert_eq!(r.stats().tob_deliveries, 2);
        assert_eq!(r.stats().rollbacks, 0);
        assert_eq!(r.materialize(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn strong_op_response_waits_for_commit_in_original_mode() {
        let (mut r, mut ctx) = replica(ProtocolMode::Original);
        r.invoke(Invocation::strong(ListOp::Duplicate), &mut ctx);
        drive(&mut r);
        assert!(
            r.drain_outputs().is_empty(),
            "strong response must wait for TOB"
        );
        assert_eq!(r.awaiting_responses(), 1);
        // commit it
        let req = shared(1, 0, 1, Level::Strong, ListOp::Duplicate);
        commit(&mut r, req);
        drive(&mut r);
        let out = r.drain_outputs();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, Value::from(""));
        assert_eq!(r.awaiting_responses(), 0);
    }

    #[test]
    fn strong_op_in_improved_mode_never_enters_tentative() {
        let (mut r, mut ctx) = replica(ProtocolMode::Improved);
        r.invoke(Invocation::strong(ListOp::append("s")), &mut ctx);
        drive(&mut r);
        assert!(r.tentative_ids().is_empty());
        assert!(r.executed_ids().is_empty());
        assert_eq!(r.awaiting_responses(), 1);
    }

    #[test]
    fn current_order_is_committed_then_tentative() {
        let (mut r, mut ctx) = replica(ProtocolMode::Original);
        r.invoke(Invocation::weak(ListOp::append("a")), &mut ctx);
        r.invoke(Invocation::weak(ListOp::append("b")), &mut ctx);
        drive(&mut r);
        let t1 = shared(1, 0, 1, Level::Weak, ListOp::append("a"));
        let t1_id = t1.id();
        commit(&mut r, t1);
        let order = r.current_order();
        assert_eq!(order[0], t1_id);
        assert_eq!(order.len(), 2);
    }

    #[test]
    fn replica_is_generic_over_the_state_object() {
        // the checkpointing reference implementation still plugs in
        let mut r: BayouReplica<AppendList, NullTob<SharedReq<ListOp>>, ReplayState<AppendList>> =
            BayouReplica::new(2, ProtocolMode::Improved, NullTob::new());
        let mut ctx = stub(0);
        r.invoke(Invocation::weak(ListOp::append("a")), &mut ctx);
        while r.step() {}
        assert_eq!(r.materialize(), vec!["a".to_string()]);
    }

    #[test]
    fn committed_growth_keeps_rollback_bookkeeping_bounded() {
        // regression: undo records / checkpoints of the committed prefix
        // must be dropped as the committed list grows, not accumulate
        // over the lifetime of the replica
        let mut r: BayouReplica<KvStore, NullTob<SharedReq<KvOp>>> =
            BayouReplica::new(2, ProtocolMode::Original, NullTob::new());
        // remote ids, so TOB delivery is the only source
        for i in 1..=500u64 {
            let req = Arc::new(Req::new(
                Timestamp::new(i as i64),
                Dot::new(ReplicaId::new(0), i),
                Level::Weak,
                KvOp::put(format!("k{}", i % 10), i as i64),
            ));
            commit(&mut r, req);
            while r.step() {}
            assert!(
                r.state_object().retained_records() <= 1,
                "bookkeeping leak: {} records after {} committed ops",
                r.state_object().retained_records(),
                i
            );
        }
        assert_eq!(r.committed_ids().len(), 500);
        assert_eq!(r.executed_ids().len(), 500);
    }
}
