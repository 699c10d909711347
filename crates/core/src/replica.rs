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
//!   list grows, keeping rollback bookkeeping proportional to the
//!   speculative window rather than the lifetime of the replica;
//! * TOB deliveries commit **batched**: one handler step's whole
//!   delivery batch is spliced into the committed list with a *single*
//!   re-planning pass (`adjust_execution`), a single stable-prefix
//!   refresh, a single group-commit persistence call
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
//! The paper's protocol keeps every committed request forever; with
//! [`BayouReplica::set_compaction`] a replica instead truncates its
//! committed prefix at the **globally-stable watermark** and runs in
//! O(state + speculation window) memory indefinitely.
//!
//! *Message flow.* Every replica piggybacks its contiguous-delivered
//! cursor on the TOB traffic it already sends (in Paxos:
//! `Submit`/`Promise`/`DecideAck` upward, `Decide`/`Catchup` carry the
//! computed watermark downward). Each endpoint computes the watermark as
//! the minimum cursor across **all** replicas; the TOB truncates its
//! decided log there (at a clean sender-FIFO boundary, captured as a
//! [`BaselineMark`]) and the replica follows: the payloads of exactly
//! that prefix are dropped from `committed`/`executed`, their combined
//! effect is folded into a retained *baseline state*, and the store is
//! told ([`bayou_storage::Persistence::note_stable`]) so snapshots
//! become compact and old WAL segments die.
//!
//! *Safety.* A cursor is only reported once the deliveries it covers are
//! durable at the reporter (the WAL write happens inside the same atomic
//! handler step, before any message leaves), and the watermark is the
//! minimum over all reports — so every replica already holds the prefix
//! the cluster truncates, and no current replica can ever need a
//! truncated payload for catch-up. Truncation changes no visible
//! behaviour: `baseline · retained committed · tentative` materializes
//! to the same state the full history would (the equivalence and DST
//! tests in `tests/compaction.rs` / `tests/dst.rs` enforce this).
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

use crate::api::{EventRecord, Invocation, Response, Served};
use bayou_broadcast::{
    BaselineMark, FrameMeter, LinkMsg, MapCtx, RbMsg, ReliableBroadcast, StepCoalescer,
    StepDeferral, Tob, TobDelivery,
};
use bayou_data::{DataType, DeltaState, StateObject};
use bayou_storage::{NullPersistence, PendingKind, Persistence, StorageError};
use bayou_types::{
    Context, Dot, LeaseConfig, Process, ReplicaId, Req, ReqId, SharedReq, TimerId, Value,
    VirtualTime, Wire, WireError, WireReader,
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

/// Default cross-step flush-deferral budget: 4× the simulator's default
/// 10µs handler step, so a saturated replica's consecutive invocations
/// share step frames while an isolated invocation is delayed by well
/// under any protocol timeout. See [`BayouReplica::set_flush_deferral`].
pub const DEFAULT_FLUSH_DELAY: VirtualTime = VirtualTime::from_micros(40);

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
    /// A step-end frame: every wire message one handler step produced
    /// for this peer, coalesced by [`bayou_broadcast::StepCoalescer`]
    /// into a single delivery event. Under saturation this is what
    /// turns per-slot message storms (64 `Accept`s from one `Submit`
    /// batch, 64 `Decide`s from one `Accepted` frame) into one message,
    /// one handler step and one WAL sync at the receiver — and what
    /// makes multi-request TOB delivery batches actually arrive as
    /// batches. The receiver processes the inner messages in order
    /// within one atomic step and commits their combined delivery batch
    /// once.
    Batch(Vec<BayouMsg<Op, St, TM>>),
}

impl<Op: Wire> Wire for WireReq<Op> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.req.encode(out);
        self.tob_seq.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(WireReq {
            req: SharedReq::decode(r)?,
            tob_seq: u64::decode(r)?,
        })
    }
}

/// The replica's complete frame codec: what one [`BayouMsg`] costs on a
/// real wire. Used by the wire-bytes meter
/// ([`BayouReplica::meter_wire_bytes`]) and available to byte-oriented
/// transports. Tags are append-only, like every other codec in the tree.
impl<Op, St, TM> Wire for BayouMsg<Op, St, TM>
where
    Op: Wire,
    St: Wire,
    TM: Wire,
{
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            BayouMsg::Rb(frame) => {
                out.push(0);
                frame.encode(out);
            }
            BayouMsg::Tob(tm) => {
                out.push(1);
                tm.encode(out);
            }
            BayouMsg::BaselineRequest => out.push(2),
            BayouMsg::Baseline { state, mark } => {
                out.push(3);
                state.encode(out);
                mark.encode(out);
            }
            BayouMsg::Batch(msgs) => {
                out.push(4);
                msgs.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(BayouMsg::Rb(LinkMsg::decode(r)?)),
            1 => Ok(BayouMsg::Tob(TM::decode(r)?)),
            2 => Ok(BayouMsg::BaselineRequest),
            3 => Ok(BayouMsg::Baseline {
                state: St::decode(r)?,
                mark: BaselineMark::decode(r)?,
            }),
            4 => Ok(BayouMsg::Batch(Vec::decode(r)?)),
            tag => Err(WireError::BadTag {
                ty: "BayouMsg",
                tag,
            }),
        }
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

/// A Bayou replica (Algorithm 1 of the paper) for data type `F` over a
/// Total Order Broadcast implementation `T`, speculating through the
/// state object `S` ([`DeltaState`] unless overridden).
///
/// The field and method names mirror the pseudocode: `committed`,
/// `tentative`, `executed`, `to_be_executed`, `to_be_rolled_back`,
/// `reqs_awaiting_resp`, `adjust_tentative_order`, `adjust_execution`.
/// Rollback and execute are *separate internal steps*
/// ([`Process::on_internal`]) so the simulator can count and charge them
/// individually — the §2.3 progress experiment depends on this.
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
    reqs_awaiting_resp: HashMap<ReqId, Option<(Value, Vec<ReqId>)>>,
    /// Client correlation tags of locally-invoked requests still owed a
    /// response ([`Invocation::tag`]). In-memory only: recovery starts
    /// empty, so post-restart re-emissions carry no tag.
    client_tags: HashMap<ReqId, u64>,
    rb: ReliableBroadcast<WireReq<F::Op>>,
    tob: T,
    tob_seq: u64,
    /// Delivery order of the retained suffix (`tob_no = compacted + i`).
    tob_order: Vec<ReqId>,
    outputs: Vec<Response>,
    stats: ReplicaStats,
    journal: Vec<EventRecord<F::Op>>,
    /// Durable-storage hooks ([`bayou_storage::NullPersistence`] unless
    /// the replica was built with [`BayouReplica::with_persistence`] or
    /// [`BayouReplica::recover`]).
    persist: Box<dyn Persistence<F> + Send>,
    /// Requests recovered from the WAL that are not yet decided: they
    /// are re-submitted into the TOB on start (relay guarantee across
    /// restarts). `(tob_seq, request)`, the origin being the request's.
    recovered_pending: Vec<(u64, SharedReq<F::Op>)>,
    // ---- committed-history compaction ----------------------------------
    /// Whether this replica truncates its committed prefix at the
    /// globally-stable watermark ([`BayouReplica::set_compaction`]).
    compaction: bool,
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
    /// The step-end frame coalescer's buffers and the cross-step
    /// flush-deferral state machine over them: outgoing wire messages
    /// coalesce into per-peer frames ([`BayouMsg::Batch`]) that may stay
    /// parked across consecutive handler steps for up to the budget
    /// ([`BayouReplica::set_flush_deferral`]).
    deferral: StepDeferral<Msg<F, T>>,
    /// Whether the last step closed was urgent (a strong operation waits
    /// on its frames); a multi-group host takes it to close its own step
    /// by the same rule ([`BayouReplica::take_step_urgent`]).
    step_urgent: bool,
    /// Reusable buffer: the TOB deliveries collected across one handler
    /// step (all messages of a frame), committed as one batch.
    delivery_scratch: Vec<TobDelivery<SharedReq<F::Op>>>,
    /// Wire-bytes meter attached to every step's frame coalescer
    /// ([`BayouReplica::meter_wire_bytes`]); `None` (the default) costs
    /// nothing.
    wire_meter: Option<FrameMeter<Msg<F, T>>>,
    // ---- read scalability ----------------------------------------------
    /// Leader-lease configuration ([`BayouReplica::set_lease`]): with a
    /// config, the TOB endpoint runs the lease protocol and strong
    /// read-only operations are served locally from `committed_state`
    /// while [`Tob::lease_ready`] holds. `None` (the default) keeps the
    /// replica bit-for-bit on the all-TOB path.
    lease: Option<LeaseConfig>,
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
        let mut rb = ReliableBroadcast::new(n, VirtualTime::from_millis(60));
        rb.set_flush_deferral(Some(DEFAULT_FLUSH_DELAY));
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
            rb,
            tob,
            tob_seq: 0,
            tob_order: Vec::new(),
            outputs: Vec::new(),
            stats: ReplicaStats::default(),
            journal: Vec::new(),
            persist: Box::new(NullPersistence),
            recovered_pending: Vec::new(),
            compaction: false,
            compacted: 0,
            baseline: F::State::default(),
            baseline_mark: BaselineMark::zero(n),
            dropped_since_state: 0,
            failure: None,
            commit_scratch: Vec::new(),
            adjust_scratch: Vec::new(),
            deferral: StepDeferral::new(Some(DEFAULT_FLUSH_DELAY)),
            step_urgent: false,
            delivery_scratch: Vec::new(),
            wire_meter: None,
            lease: None,
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

    /// Rebuilds a replica from its durable storage: the crash-recovery
    /// constructor.
    ///
    /// The caller (see `bayou_core::recover_paxos_replica` for the
    /// standard wiring) has already restored the TOB endpoint from the
    /// durable event stream and derived:
    ///
    /// * `deliveries` — the local TOB delivery order *above the
    ///   compaction mark* (the retained committed list as of the crash);
    /// * `snapshot_state` + `snapshot_delivered` — a state materialized
    ///   at an absolute delivery prefix; commits beyond it re-execute
    ///   from their logged payloads;
    /// * `mark` + `baseline` — the compaction floor: the first
    ///   `mark.delivered` deliveries exist only as the baseline state;
    /// * `pending` — logged requests not yet decided, to re-enter the
    ///   tentative order and be re-submitted to the TOB on start;
    /// * `curr_event_no` / `tob_seq` — high-water marks so new dots and
    ///   TOB-cast sequence numbers never collide with pre-crash ones.
    ///
    /// Responses owed to clients at crash time are *not* recovered:
    /// Bayou clients observe a crashed replica as a lost session and
    /// retry (weak responses were tentative anyway; strong requests
    /// re-execute deduplicated by their dot).
    #[allow(clippy::too_many_arguments)]
    pub fn recover(
        n: usize,
        mode: ProtocolMode,
        mut tob: T,
        deliveries: Vec<SharedReq<F::Op>>,
        snapshot_state: F::State,
        snapshot_delivered: u64,
        mark: BaselineMark,
        baseline: F::State,
        pending: Vec<(PendingKind, u64, SharedReq<F::Op>)>,
        curr_event_no: u64,
        tob_seq: u64,
        persist: Box<dyn Persistence<F> + Send>,
    ) -> Self {
        tob.set_durable(true); // after restore: recovery facts are already on disk
        let compacted = mark.delivered;
        let stable = (snapshot_delivered.saturating_sub(compacted) as usize).min(deliveries.len());
        let committed_set: HashSet<ReqId> = deliveries.iter().map(|r| r.id()).collect();
        let tob_order: Vec<ReqId> = deliveries.iter().map(|r| r.id()).collect();
        let state = S::with_committed_trace(snapshot_state, tob_order[..stable].to_vec());

        // the snapshot-covered prefix is executed; the rest re-executes
        let executed: Vec<SharedReq<F::Op>> = deliveries[..stable].to_vec();
        let executed_set: HashSet<ReqId> = executed.iter().map(|r| r.id()).collect();

        // pending requests re-enter the tentative order by (ts, dot)
        let undecided = || {
            pending
                .iter()
                .filter(|(_, _, r)| !committed_set.contains(&r.id()))
        };
        let mut tentative: Vec<SharedReq<F::Op>> = undecided().map(|(_, _, r)| r.clone()).collect();
        tentative.sort_by_key(|r| r.sort_key());
        let tentative_seq: HashMap<ReqId, u64> =
            undecided().map(|(_, seq, r)| (r.id(), *seq)).collect();

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
            curr_event_no,
            committed: deliveries,
            committed_set,
            tentative,
            tentative_seq,
            executed,
            executed_set,
            stable_len: stable,
            to_be_executed,
            tob_seq,
            tob_order,
            persist,
            recovered_pending,
            compacted,
            baseline,
            baseline_mark: mark,
            seen_seq,
            ..Self::with_state_object(n, mode, tob, state)
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

    /// Enables (or disables) committed-history compaction on this
    /// replica and its TOB endpoint: once all replicas have durably
    /// delivered a committed prefix (the globally-stable watermark,
    /// agreed through cursors piggybacked on TOB traffic), the request
    /// payloads below it are dropped and replaced by a baseline state +
    /// high-water mark, keeping replica memory and snapshot size
    /// O(state + speculation window) instead of O(lifetime).
    ///
    /// Off by default: the full committed list is the paper's model and
    /// what the spec checkers consume.
    pub fn set_compaction(&mut self, on: bool) {
        self.compaction = on;
        self.tob.set_compaction(on);
    }

    /// Whether committed-history compaction is enabled.
    pub fn compaction_enabled(&self) -> bool {
        self.compaction
    }

    /// Enables (or disables) leader leases on this replica and its TOB
    /// endpoint: the per-lane Ω leader piggybacks time-bounded lease
    /// grants on its TOB traffic and, while the quorum-confirmed window
    /// holds ([`Tob::lease_ready`]), serves strong *read-only*
    /// operations locally from the committed state — no TOB round, no
    /// messages. A read that misses the window falls back to the
    /// ordinary TOB round; it never silently downgrades.
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

    /// Sets (or clears) cross-step flush deferral: with a budget, the
    /// replica's step-end frames may be *parked* across consecutive
    /// handler steps (and the RB link defers framing its outboxes
    /// likewise), so a saturated burst of invocations shares wire frames
    /// instead of emitting one set per step. A timer guarantees parked
    /// frames flush within the budget even if the replica goes idle; the
    /// worst-case added latency for any message is twice the budget (a
    /// link-deferred payload flushed by the link timer can be parked once
    /// more at the step level). On by default with
    /// [`DEFAULT_FLUSH_DELAY`]; `None` flushes at every step end (what a
    /// multi-group host sets inside its groups, parking once for all of
    /// them).
    pub fn set_flush_deferral(&mut self, delay: Option<VirtualTime>) {
        self.deferral.set_budget(delay);
        self.rb.set_flush_deferral(delay);
    }

    /// The current cross-step flush-deferral budget, if any.
    pub fn flush_deferral(&self) -> Option<VirtualTime> {
        self.deferral.budget()
    }

    /// Whether wire-bytes metering is enabled.
    pub fn wire_metering(&self) -> bool {
        self.wire_meter.is_some()
    }

    /// Enables wire-bytes metering: every frame leaving the replica is
    /// measured under the real [`Wire`] codec ([`FrameMeter::wire`]) and
    /// drained by the runtime
    /// through [`Process::take_wire_bytes`] into the simulator's
    /// `wire_bytes` metric — the network-side analogue of the WAL's
    /// bytes accounting.
    ///
    /// Off by default. Metering consumes no randomness and changes no
    /// message or timer, so deterministic schedules (DST) are unaffected
    /// by toggling it; the cost is one extra encode per outgoing frame.
    pub fn meter_wire_bytes(&mut self)
    where
        F::Op: Wire,
        F::State: Wire,
        T::Msg: Wire,
    {
        self.wire_meter = Some(FrameMeter::wire());
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

    /// The TOB delivery order observed by this replica (ids, in `tobNo`
    /// order). A prefix of every other replica's view.
    pub fn tob_order(&self) -> &[ReqId] {
        &self.tob_order
    }

    /// The invocation journal: one [`EventRecord`] per invocation handled
    /// by this replica, with response fields unset (the harness fills
    /// them in from the output stream).
    pub fn journal(&self) -> &[EventRecord<F::Op>] {
        &self.journal
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
    /// TOB whose durability is off).
    fn persist_tob_events(&mut self) {
        let events = self.tob.drain_durable();
        if !events.is_empty() {
            let res = self.persist.log_tob_events(events);
            self.persist_ok(res);
        }
    }

    /// Answers `r`'s client: releases the request's correlation tag and
    /// queues the response.
    fn respond(&mut self, r: &Req<F::Op>, value: Value, exec_trace: Vec<ReqId>, served: Served) {
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
        let stable = self.executed.len().min(self.committed.len());
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
        if !self.compaction {
            return;
        }
        let Some(mark) = self.tob.baseline_mark() else {
            return;
        };
        if mark.delivered <= self.compacted {
            // the floor can also advance purely in *slot* space (trailing
            // no-delivery duplicate slots): adopt the higher-slot mark so
            // the baseline we serve to laggards can step them over it
            if mark.delivered == self.compacted && mark.slot_floor > self.baseline_mark.slot_floor {
                self.baseline_mark = mark;
                self.persist_stable();
            }
            return;
        }
        let k = (mark.delivered - self.compacted) as usize;
        if k > self.stable_len {
            return; // executions below the floor still outstanding
        }
        for r in self.committed.drain(..k) {
            self.committed_set.remove(&r.id());
            F::apply(&mut self.baseline, &r.op);
        }
        for r in self.executed.drain(..k) {
            self.executed_set.remove(&r.id());
        }
        self.tob_order.drain(..k);
        self.stable_len -= k;
        self.dropped_since_state += k;
        self.compacted = mark.delivered;
        self.baseline_mark = mark;
        self.persist_stable();
    }

    /// Tells the store the compaction floor (and its baseline) moved.
    fn persist_stable(&mut self) {
        let res = self
            .persist
            .note_stable(&self.baseline_mark, &self.baseline);
        self.persist_ok(res);
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
        self.tob_order.clear();
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
        self.persist_stable();
    }

    /// Reacts to the TOB flagging that our prefix fell below a peer's
    /// compaction floor: ask that peer for its baseline.
    fn request_baseline_if_needed(
        &mut self,
        ctx: &mut dyn Context<BayouMsg<F::Op, F::State, T::Msg>>,
    ) {
        if let Some(peer) = self.tob.take_baseline_needed() {
            ctx.send(peer, BayouMsg::BaselineRequest);
        }
    }

    fn handle_rb_deliver(
        &mut self,
        wire: WireReq<F::Op>,
        ctx: &mut dyn Context<BayouMsg<F::Op, F::State, T::Msg>>,
    ) {
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
            let res = self.persist.log_tentative(&r, wire.tob_seq);
            if !self.persist_ok(res) {
                return;
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
        ctx: &mut dyn Context<BayouMsg<F::Op, F::State, T::Msg>>,
        rb_too: bool,
    ) -> Option<u64> {
        let seq = self.tob_seq;
        self.tob_seq += 1;
        // write-ahead: the request (with its TOB-cast number) is durable
        // before any frame carrying it can leave this step
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
        }
        let mut tctx = MapCtx::new(ctx, BayouMsg::Tob);
        self.tob.cast(seq, r.clone(), &mut tctx);
        self.persist_tob_events();
        Some(seq)
    }

    /// Lines 27–34, for one handler step's whole TOB delivery batch
    /// (drains `batch`): TOB delivery fixes the final position of every
    /// request in it. The batch is spliced into the committed order with
    /// one group-commit persistence call, one rollback/replay adjustment
    /// and one stable-prefix refresh — instead of one of each per request
    /// — and the caller follows with one compaction check
    /// (`settle_deliveries`).
    ///
    /// Observably equivalent to committing the entries one by one (the
    /// digests recorded in `tests/batching.rs`): committed/tentative/
    /// executed land in the same state because the committed list is
    /// append-only and the executed list only shrinks during delivery
    /// steps, so the intermediate adjustments a per-request commit would
    /// perform are all subsumed by the final one; the response condition
    /// (`executed` after the step) is likewise monotone across the
    /// batch, and responses are emitted in delivery order either way.
    fn commit_batch(&mut self, batch: &mut Vec<TobDelivery<SharedReq<F::Op>>>) {
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
        // group commit: the whole batch becomes durable (and feeds the
        // snapshot cadence once) through a single persistence call,
        // still inside the atomic handler step
        let res = self.persist.log_commit_batch(&self.commit_scratch);
        if !self.persist_ok(res) {
            self.commit_scratch.clear();
            return; // crash-stopped: none of the batch is acknowledged
        }
        let mut reqs = std::mem::take(&mut self.commit_scratch);
        self.stats.tob_deliveries += reqs.len() as u64;
        let mut any_tentative = false;
        for r in &reqs {
            let id = r.id();
            self.tob_order.push(id);
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
    /// Opens the step-end frame coalescer over `ctx` for one handler
    /// step. The caller must run [`BayouReplica::close_step`] on it
    /// before returning.
    fn step_ctx<'a>(
        &mut self,
        ctx: &'a mut dyn Context<BayouMsg<F::Op, F::State, T::Msg>>,
    ) -> StepCoalescer<'a, BayouMsg<F::Op, F::State, T::Msg>> {
        self.deferral
            .open(ctx, BayouMsg::Batch, self.wire_meter.clone())
    }

    /// Settles the step's deferred group-commit sync: one fsync for
    /// everything the step logged. Runs *before* any frame leaves, which
    /// preserves the write-ahead contract. A sync failure crash-stops
    /// the replica; the runtime then discards the step's buffered sends
    /// and outputs, so nothing backed by the failed sync escapes.
    fn sync_step(&mut self) {
        let res = self.persist.sync_step();
        self.persist_ok(res);
    }

    /// Closes one handler step: settles the step's sync, then flushes
    /// the coalesced frames — or, with cross-step flush deferral on and
    /// the step not `urgent`, parks them until their deadline
    /// ([`StepDeferral::close`]).
    fn close_step(
        &mut self,
        cctx: StepCoalescer<'_, BayouMsg<F::Op, F::State, T::Msg>>,
        urgent: bool,
    ) {
        self.sync_step();
        self.step_urgent = urgent;
        self.deferral.close(cctx, urgent);
    }

    /// Whether the step this replica last closed was urgent, clearing the
    /// answer: a multi-group host asks after each of its groups' steps.
    pub(crate) fn take_step_urgent(&mut self) -> bool {
        std::mem::take(&mut self.step_urgent)
    }

    /// Whether a strong operation waits on the frames of the step that
    /// handles `msg`: it advances TOB agreement on a strong request
    /// ([`Tob::advances`]), looking inside step-end frames. Asked before
    /// dispatch, which may retire the TOB state the answer depends on.
    /// (The other half of the rule: a step handling a strong invocation
    /// that goes to the TOB is urgent too.)
    fn urgent_message(&self, msg: &BayouMsg<F::Op, F::State, T::Msg>) -> bool {
        match msg {
            BayouMsg::Tob(tm) => self
                .tob
                .advances(tm, &|r: &SharedReq<F::Op>| r.level.is_strong()),
            BayouMsg::Batch(msgs) => msgs.iter().any(|m| self.urgent_message(m)),
            _ => false,
        }
    }

    /// Ends the TOB half of a step: logs the step's durable TOB facts,
    /// commits its combined delivery batch and follows the compaction
    /// floor.
    fn settle_deliveries(
        &mut self,
        mut deliveries: Vec<TobDelivery<SharedReq<F::Op>>>,
        ctx: &mut dyn Context<BayouMsg<F::Op, F::State, T::Msg>>,
    ) {
        // durable TOB facts (promises, acceptances, decisions) hit the
        // WAL — one write, one sync — before the deliveries they imply
        // execute and before any coalesced frame leaves the step
        self.persist_tob_events();
        self.commit_batch(&mut deliveries);
        self.delivery_scratch = deliveries;
        // the TOB floor can advance on delivery-free steps too (a cursor
        // report arriving): follow it, or the baseline we serve to
        // laggards would lag the floor forever in a quiescent cluster
        self.maybe_compact();
        self.request_baseline_if_needed(ctx);
    }

    /// Processes one wire message (recursing into step-end frames),
    /// appending every TOB delivery it produced to `deliveries`. The
    /// caller persists the step's durable TOB facts and commits the
    /// combined batch once, after the whole frame dispatched.
    fn dispatch(
        &mut self,
        from: ReplicaId,
        msg: BayouMsg<F::Op, F::State, T::Msg>,
        ctx: &mut dyn Context<BayouMsg<F::Op, F::State, T::Msg>>,
        deliveries: &mut Vec<TobDelivery<SharedReq<F::Op>>>,
    ) {
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
                deliveries.extend(batch);
            }
            BayouMsg::BaselineRequest => {
                // serve our baseline to a replica that fell below the
                // cluster-wide compaction floor
                if self.compaction && self.compacted > 0 {
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
            BayouMsg::Batch(msgs) => {
                for m in msgs {
                    self.dispatch(from, m, ctx, deliveries);
                }
            }
        }
    }
}

impl<F, T, S> Process for BayouReplica<F, T, S>
where
    F: DataType,
    T: Tob<SharedReq<F::Op>>,
    S: StateObject<F>,
{
    type Msg = BayouMsg<F::Op, F::State, T::Msg>;
    type Input = Invocation<F::Op>;
    type Output = Response;

    fn on_start(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        if self.failure.is_some() {
            return;
        }
        let mut cctx = self.step_ctx(ctx);
        {
            let mut tctx = MapCtx::new(&mut cctx, BayouMsg::Tob);
            self.tob.on_start(&mut tctx);
            // re-submit recovered pending requests so they are decided
            // even though their original cast/relay messages are gone
            // (the relay guarantee must hold across restarts)
            for (seq, req) in std::mem::take(&mut self.recovered_pending) {
                self.tob.ensure(req.origin(), seq, req, &mut tctx);
            }
        }
        self.persist_tob_events();
        self.close_step(cctx, false);
    }

    /// Lines 9–15 (Algorithm 1) / Algorithm 2.
    fn on_input(&mut self, inv: Invocation<F::Op>, outer: &mut dyn Context<Self::Msg>) {
        if self.failure.is_some() {
            return; // crash-stopped: no new work is accepted
        }
        let mut cctx = self.step_ctx(outer);
        let ctx = &mut cctx;
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
        // the committed state — no TOB round, no messages. The check
        // reads the (possibly skewed) local clock, so it is reached only
        // with a lease configured: lease-off runs take the exact
        // baseline step sequence.
        let lease_read = self.mode == ProtocolMode::Improved
            && r.level.is_strong()
            && F::is_read_only(&r.op)
            && self.lease.is_some()
            && {
                let now = ctx.clock();
                self.tob.lease_ready(now)
            };
        let tob_cast = match self.mode {
            ProtocolMode::Original => true,
            ProtocolMode::Improved => {
                !lease_read && (r.level.is_strong() || !F::is_read_only(&r.op))
            }
        };
        // a strong op waits on this step's frames — its TOB round starts
        // here — unless the lease answers it within the step
        let urgent = r.level.is_strong() && tob_cast;
        self.journal.push(EventRecord {
            meta: r.meta(),
            op: r.op.clone(),
            replica: ctx.id(),
            invoked_at: ctx.now(),
            returned_at: None,
            value: None,
            exec_trace: None,
            tob_cast,
            served: None,
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
                                self.respond(&r, Value::Unit, Vec::new(), served);
                                self.close_step(cctx, false);
                                return;
                            }
                        }
                    }
                    // Execute immediately on the current state; the
                    // tentative response reflects exactly what this
                    // replica has executed so far (no concurrent request
                    // can sneak in front — this is what prevents circular
                    // causality).
                    let trace_before = self.state.trace().to_vec();
                    let value = self.state.execute(r.id(), &r.op);
                    self.respond(&r, value, trace_before, Served::Speculative);
                    self.state.rollback(r.id());
                    if !F::is_read_only(&r.op) {
                        if let Some(seq) = self.broadcast_req(&r, ctx, true) {
                            self.adjust_tentative_order(r, seq);
                        }
                    }
                } else if lease_read {
                    // a read-only op leaves the committed state untouched
                    self.stats.lease_reads += 1;
                    let value = F::apply(&mut self.committed_state, &r.op);
                    let served = Served::Lease {
                        committed: self.committed_total(),
                    };
                    self.respond(&r, value, self.tob_order.clone(), served);
                } else {
                    self.reqs_awaiting_resp.insert(r.id(), None);
                    self.broadcast_req(&r, ctx, false);
                }
            }
        }
        self.close_step(cctx, urgent);
    }

    fn on_message(&mut self, from: ReplicaId, msg: Self::Msg, ctx: &mut dyn Context<Self::Msg>) {
        if self.failure.is_some() {
            return; // crash-stopped: silent to the cluster
        }
        let urgent = self.urgent_message(&msg);
        let mut cctx = self.step_ctx(ctx);
        let mut deliveries = std::mem::take(&mut self.delivery_scratch);
        debug_assert!(deliveries.is_empty());
        self.dispatch(from, msg, &mut cctx, &mut deliveries);
        self.settle_deliveries(deliveries, &mut cctx);
        self.close_step(cctx, urgent);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Self::Msg>) {
        if self.failure.is_some() {
            return;
        }
        if self.deferral.owns_timer(timer) {
            // the parked frames' latency budget expired with the replica
            // idle: flush them now (must not go through close_step, which
            // would re-park them with a fresh deadline)
            let cctx = self.step_ctx(ctx);
            self.sync_step();
            self.deferral.flush(cctx);
            return;
        }
        let mut cctx = self.step_ctx(ctx);
        let mine = {
            let mut rctx = MapCtx::new(&mut cctx, BayouMsg::Rb);
            self.rb.on_timer(timer, &mut rctx)
        };
        if !mine && self.tob.owns_timer(timer) {
            let mut deliveries = std::mem::take(&mut self.delivery_scratch);
            debug_assert!(deliveries.is_empty());
            {
                let mut tctx = MapCtx::new(&mut cctx, BayouMsg::Tob);
                deliveries.extend(self.tob.on_timer(timer, &mut tctx));
            }
            self.settle_deliveries(deliveries, &mut cctx);
        }
        self.close_step(cctx, false);
    }

    /// Lines 41–55: one `rollback` or one `execute` step.
    fn on_internal(&mut self, _ctx: &mut dyn Context<Self::Msg>) -> bool {
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
            // client; remote requests must not pay an O(trace) copy
            let awaiting = self.reqs_awaiting_resp.contains_key(&head.id());
            let trace_before = if awaiting {
                self.state.trace().to_vec()
            } else {
                Vec::new()
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

    fn drain_outputs(&mut self) -> Vec<Response> {
        std::mem::take(&mut self.outputs)
    }

    fn take_storage_stall(&mut self) -> VirtualTime {
        self.persist.take_sync_stall()
    }

    fn take_wire_bytes(&mut self) -> u64 {
        self.wire_meter.as_ref().map_or(0, FrameMeter::take_bytes)
    }

    fn take_fsyncs(&mut self) -> u64 {
        self.persist.take_fsyncs()
    }

    fn has_failed(&self) -> bool {
        self.failure.is_some()
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
// list-surgery behaviours are tested here through a stub TOB.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::nulltob::NullTob;
    use bayou_data::{AppendList, KvOp, KvStore, ListOp, ReplayState};
    use bayou_types::{Level, Timestamp};

    struct StubCtx {
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

    fn stub(id: u32) -> StubCtx {
        StubCtx {
            clock: 0,
            id: ReplicaId::new(id),
        }
    }

    fn replica(mode: ProtocolMode) -> (R, StubCtx) {
        (BayouReplica::new(2, mode, NullTob::new()), stub(0))
    }

    fn drive(r: &mut R, ctx: &mut StubCtx) {
        while r.on_internal(ctx) {}
    }

    /// TOB-delivers `req` as a batch of one.
    fn commit<F: DataType, S: StateObject<F>>(
        r: &mut BayouReplica<F, NullTob<SharedReq<F::Op>>, S>,
        req: SharedReq<F::Op>,
    ) {
        r.commit_batch(&mut vec![TobDelivery {
            sender: req.origin(),
            seq: 0,
            tob_no: r.committed_total(),
            payload: req,
        }]);
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
        r.on_input(Invocation::weak(ListOp::append("a")), &mut ctx);
        assert!(
            r.drain_outputs().is_empty(),
            "response needs an execute step"
        );
        drive(&mut r, &mut ctx);
        let out = r.drain_outputs();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, Value::from("a"));
        assert!(out[0].exec_trace.is_empty());
    }

    #[test]
    fn improved_mode_weak_response_is_immediate() {
        let (mut r, mut ctx) = replica(ProtocolMode::Improved);
        r.on_input(Invocation::weak(ListOp::append("a")), &mut ctx);
        let out = r.drain_outputs();
        assert_eq!(out.len(), 1, "improved mode responds at invoke");
        assert_eq!(out[0].value, Value::from("a"));
        drive(&mut r, &mut ctx);
        // the op re-executed into the tentative order
        assert_eq!(r.executed_ids().len(), 1);
    }

    #[test]
    fn improved_mode_weak_ro_is_local_only() {
        let (mut r, mut ctx) = replica(ProtocolMode::Improved);
        r.on_input(Invocation::weak(ListOp::Read), &mut ctx);
        let out = r.drain_outputs();
        assert_eq!(out[0].value, Value::from(""));
        drive(&mut r, &mut ctx);
        assert!(r.tentative_ids().is_empty(), "RO op never enters tentative");
        assert!(r.executed_ids().is_empty());
    }

    #[test]
    fn tentative_order_sorts_by_timestamp_then_dot() {
        let (mut r, mut ctx) = replica(ProtocolMode::Original);
        // local op with clock 1
        r.on_input(Invocation::weak(ListOp::append("x")), &mut ctx);
        drive(&mut r, &mut ctx);
        // remote op with an older timestamp must sort in front
        let remote = shared(0, 1, 1, Level::Weak, ListOp::append("y"));
        r.handle_rb_deliver(
            WireReq {
                req: remote,
                tob_seq: 0,
            },
            &mut ctx,
        );
        drive(&mut r, &mut ctx);
        assert_eq!(r.stats().rollbacks, 1, "x must be rolled back");
        assert_eq!(r.materialize(), vec!["y".to_string(), "x".to_string()]);
    }

    #[test]
    fn own_rb_delivery_is_ignored() {
        let (mut r, mut ctx) = replica(ProtocolMode::Original);
        r.on_input(Invocation::weak(ListOp::append("x")), &mut ctx);
        drive(&mut r, &mut ctx);
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
        r.on_input(Invocation::weak(ListOp::append("x")), &mut ctx);
        drive(&mut r, &mut ctx);
        let req = shared(1, 0, 1, Level::Weak, ListOp::append("x"));
        commit(&mut r, req);
        assert_eq!(r.committed_ids().len(), 1);
        assert!(r.tentative_ids().is_empty());
        drive(&mut r, &mut ctx);
        // already executed in the right order: no rollback
        assert_eq!(r.stats().rollbacks, 0);
    }

    #[test]
    fn commit_of_earlier_remote_req_forces_rollback_and_reexecution() {
        let (mut r, mut ctx) = replica(ProtocolMode::Original);
        r.on_input(Invocation::weak(ListOp::append("x")), &mut ctx);
        drive(&mut r, &mut ctx);
        assert_eq!(r.materialize(), vec!["x".to_string()]);
        // a remote request commits first (TOB order beats timestamps)
        let remote = shared(100, 1, 1, Level::Weak, ListOp::append("z"));
        commit(&mut r, remote);
        drive(&mut r, &mut ctx);
        assert_eq!(r.stats().rollbacks, 1);
        assert_eq!(r.materialize(), vec!["z".to_string(), "x".to_string()]);
        assert_eq!(r.executed_ids().len(), 2);
    }

    #[test]
    fn redelivered_commits_are_idempotent() {
        // after a crash-restart, catch-up may re-deliver commits the
        // recovered state already contains
        let (mut r, mut ctx) = replica(ProtocolMode::Original);
        let a = shared(1, 1, 1, Level::Weak, ListOp::append("a"));
        let b = shared(2, 1, 2, Level::Weak, ListOp::append("b"));
        commit(&mut r, a.clone());
        drive(&mut r, &mut ctx);
        // a duplicate alone, then a duplicate ahead of a fresh request
        commit(&mut r, a.clone());
        r.commit_batch(&mut vec![
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
        ]);
        drive(&mut r, &mut ctx);
        assert_eq!(r.committed_ids().len(), 2);
        assert_eq!(r.stats().tob_deliveries, 2);
        assert_eq!(r.stats().rollbacks, 0);
        assert_eq!(r.materialize(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn strong_op_response_waits_for_commit_in_original_mode() {
        let (mut r, mut ctx) = replica(ProtocolMode::Original);
        r.on_input(Invocation::strong(ListOp::Duplicate), &mut ctx);
        drive(&mut r, &mut ctx);
        assert!(
            r.drain_outputs().is_empty(),
            "strong response must wait for TOB"
        );
        assert_eq!(r.awaiting_responses(), 1);
        // commit it
        let req = shared(1, 0, 1, Level::Strong, ListOp::Duplicate);
        commit(&mut r, req);
        drive(&mut r, &mut ctx);
        let out = r.drain_outputs();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].value, Value::from(""));
        assert_eq!(r.awaiting_responses(), 0);
    }

    #[test]
    fn strong_op_in_improved_mode_never_enters_tentative() {
        let (mut r, mut ctx) = replica(ProtocolMode::Improved);
        r.on_input(Invocation::strong(ListOp::append("s")), &mut ctx);
        drive(&mut r, &mut ctx);
        assert!(r.tentative_ids().is_empty());
        assert!(r.executed_ids().is_empty());
        assert_eq!(r.awaiting_responses(), 1);
    }

    #[test]
    fn current_order_is_committed_then_tentative() {
        let (mut r, mut ctx) = replica(ProtocolMode::Original);
        r.on_input(Invocation::weak(ListOp::append("a")), &mut ctx);
        r.on_input(Invocation::weak(ListOp::append("b")), &mut ctx);
        drive(&mut r, &mut ctx);
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
        r.on_input(Invocation::weak(ListOp::append("a")), &mut ctx);
        while r.on_internal(&mut ctx) {}
        assert_eq!(r.materialize(), vec!["a".to_string()]);
    }

    #[test]
    fn committed_growth_keeps_rollback_bookkeeping_bounded() {
        // regression: undo records / checkpoints of the committed prefix
        // must be dropped as the committed list grows, not accumulate
        // over the lifetime of the replica
        let mut r: BayouReplica<KvStore, NullTob<SharedReq<KvOp>>> =
            BayouReplica::new(2, ProtocolMode::Original, NullTob::new());
        let mut ctx = stub(1); // remote ids so TOB delivery is the only source
        for i in 1..=500u64 {
            let req = Arc::new(Req::new(
                Timestamp::new(i as i64),
                Dot::new(ReplicaId::new(0), i),
                Level::Weak,
                KvOp::put(format!("k{}", i % 10), i as i64),
            ));
            commit(&mut r, req);
            while r.on_internal(&mut ctx) {}
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
