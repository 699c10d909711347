//! Allocation regression test for the batched commit path: steady-state
//! delivery must allocate O(changed suffix), not O(batch) fresh vectors
//! per step.
//!
//! The `adjust_execution` / `commit_batch` scratch buffers
//! (`to_be_executed`, the revoked-suffix staging area, the batch dedup
//! buffer) are reused across batches, so once the replica has warmed up,
//! committing another batch should cost a near-constant (small) number
//! of heap allocations regardless of how much history has accumulated —
//! the allocation analogue of PR 1's checkpoint-leak test
//! (`committed_growth_keeps_rollback_bookkeeping_bounded`).
//!
//! Measured with a counting global allocator. The thresholds are
//! generous (amortized container growth — the committed list doubling,
//! hash-set rehashes — legitimately allocates now and then), but they
//! are far below the O(batch · suffix) allocation storm the
//! pre-batching per-request path would produce, and they do not grow
//! between an early and a late measurement window.
//!
//! Compaction has the same rule: a floor advance folds the requests it
//! passes into the baseline (O(requests passed), never a copy of the
//! state), and a step where the floor stays put costs nothing. So does
//! the Paxos leader: proposing behind a backlog walks it in place, and
//! so does the WAL: an append through the store the server wires
//! allocates nothing.

use bayou_broadcast::{Ballot, BaselineMark, PaxosConfig, PaxosMsg, PaxosTob, Tob, TobDelivery};
use bayou_core::{BayouMsg, BayouReplica, ProtocolMode};
use bayou_data::{DeltaState, KvOp, KvOpView, KvStore};
use bayou_storage::{
    frame_into, MemDisk, Persistence, Prefixed, ReplicaStore, SharedBackend, StoreConfig,
    SyncBarrier, FRAME_OVERHEAD,
};
use bayou_types::{
    BufPool, Context, Dot, GroupId, Level, ReplicaId, Req, ReqMeta, SharedReq, TimerId, Timestamp,
    VirtualTime, Wire, WireReader, WireView,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Per thread, so a test
    /// counts only its own work — never the harness's other threads or
    /// a test running in parallel. `const`-initialised and `Drop`-free,
    /// so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the current thread (none while the thread's
/// locals are being torn down).
fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates directly to the system allocator; the counter is a
// thread-local cell with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

struct StubCtx;

impl<M> Context<M> for StubCtx {
    fn id(&self) -> ReplicaId {
        ReplicaId::new(1)
    }
    fn cluster_size(&self) -> usize {
        2
    }
    fn now(&self) -> VirtualTime {
        VirtualTime::ZERO
    }
    fn clock(&mut self) -> Timestamp {
        Timestamp::new(0)
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

/// What the test feeds the scripted TOB as a wire message.
#[derive(Debug, Clone)]
enum Feed {
    /// A delivery batch, handed straight to the replica.
    Deliver(Vec<TobDelivery<SharedReq<KvOp>>>),
    /// A new compaction floor, reported from then on.
    Floor(BaselineMark),
}

/// A scripted TOB: whatever delivery batch the test sends as a wire
/// message comes straight out — the replica's real batched-commit path
/// (`receive` → `settle` → `commit_batch`) runs on top of it — and
/// whatever floor it sends is the compaction floor the replica follows.
#[derive(Debug, Default)]
struct FeedTob {
    floor: Option<BaselineMark>,
}

impl Tob<SharedReq<KvOp>> for FeedTob {
    type Msg = Feed;

    fn on_start(&mut self, _ctx: &mut dyn Context<Self::Msg>) {}
    fn cast(&mut self, _seq: u64, _payload: SharedReq<KvOp>, _ctx: &mut dyn Context<Self::Msg>) {}
    fn ensure(
        &mut self,
        _sender: ReplicaId,
        _seq: u64,
        _payload: SharedReq<KvOp>,
        _ctx: &mut dyn Context<Self::Msg>,
    ) {
    }

    fn on_message(
        &mut self,
        _from: ReplicaId,
        msg: Self::Msg,
        _ctx: &mut dyn Context<Self::Msg>,
    ) -> Vec<TobDelivery<SharedReq<KvOp>>> {
        match msg {
            Feed::Deliver(batch) => batch,
            Feed::Floor(mark) => {
                self.floor = Some(mark);
                Vec::new()
            }
        }
    }

    fn on_timer(
        &mut self,
        _timer: TimerId,
        _ctx: &mut dyn Context<Self::Msg>,
    ) -> Vec<TobDelivery<SharedReq<KvOp>>> {
        Vec::new()
    }

    fn owns_timer(&self, _timer: TimerId) -> bool {
        false
    }

    fn delivered_count(&self) -> u64 {
        0
    }

    fn baseline_mark(&self) -> Option<&BaselineMark> {
        self.floor.as_ref()
    }
}

type R = BayouReplica<KvStore, FeedTob>;

/// Commits one delivery batch of `n` requests from replica 0, numbered
/// from `next` with operation `op(no)`, through the replica's real wire
/// path (one TOB message, exactly like a coalesced Decide frame), and
/// drains execution.
fn deliver(r: &mut R, next: &mut u64, n: u64, op: impl Fn(u64) -> KvOp) {
    let mut ctx = StubCtx;
    let batch = (*next..*next + n)
        .map(|no| TobDelivery {
            sender: ReplicaId::new(0),
            seq: no - 1,
            tob_no: no - 1,
            payload: Arc::new(Req::new(
                Timestamp::new(no as i64),
                Dot::new(ReplicaId::new(0), no),
                Level::Weak,
                op(no),
            )),
        })
        .collect();
    *next += n;
    r.receive(
        ReplicaId::new(0),
        BayouMsg::Tob(Feed::Deliver(batch)),
        &mut ctx,
    );
    r.settle(&mut ctx);
    while r.step() {}
}

/// Commits `batches` delivery batches of `batch` requests each,
/// draining execution after each; returns allocations per batch.
fn commit_window(r: &mut R, next: &mut u64, batches: usize, batch: usize) -> f64 {
    let before = allocations();
    for _ in 0..batches {
        // a bounded key space: the state stays small, history grows
        deliver(r, next, batch as u64, |no| {
            KvOp::put(format!("k{}", no % 16), no as i64)
        });
    }
    (allocations() - before) as f64 / batches as f64
}

/// The compaction floor after `delivered` deliveries, all from replica 0
/// (one slot each) in a two-replica cluster.
fn floor_at(delivered: u64) -> BaselineMark {
    BaselineMark {
        slot_floor: delivered,
        delivered,
        fifo_next: vec![delivered, 0],
    }
}

/// Reports `mark` as the TOB's floor and settles; returns the
/// allocations of the receive and the settle alone.
fn move_floor(r: &mut R, mark: BaselineMark) -> u64 {
    let mut ctx = StubCtx;
    let msg = BayouMsg::Tob(Feed::Floor(mark));
    let before = allocations();
    r.receive(ReplicaId::new(0), msg, &mut ctx);
    r.settle(&mut ctx);
    allocations() - before
}

/// A durable compacting replica whose baseline already holds `keys`
/// distinct keys (folded in through one floor advance).
fn compacting_replica_over(keys: u64) -> (R, u64) {
    let cfg = StoreConfig {
        snapshot_every: u64::MAX,
        sync_every_record: false,
        ..StoreConfig::default()
    };
    let (store, _) = ReplicaStore::<KvStore, _>::open(MemDisk::new(), 2, cfg).unwrap();
    let mut r: R = BayouReplica::with_persistence(
        2,
        ProtocolMode::Original,
        FeedTob::default(),
        DeltaState::default(),
        Box::new(store),
    );
    let mut next = 1u64;
    deliver(&mut r, &mut next, keys, |no| {
        KvOp::put(format!("key{no}"), 0)
    });
    move_floor(&mut r, floor_at(next - 1));
    assert_eq!(r.compacted_count(), keys);
    assert_eq!(r.baseline_state().len() as u64, keys);
    (r, next)
}

/// A floor advance over `k` commits folds those `k` requests into the
/// replica's baseline: O(k) allocations, whatever the size of the
/// state. Copying the state instead (10⁴ keys, one `String`
/// each) costs thousands.
#[test]
fn floor_advance_allocates_per_request_passed_not_per_key() {
    const K: u64 = 64;
    let (mut r, mut next) = compacting_replica_over(10_000);
    for _ in 0..3 {
        deliver(&mut r, &mut next, K, |no| {
            KvOp::put(format!("key{}", no % K), 1)
        });
        let spent = move_floor(&mut r, floor_at(next - 1));
        assert_eq!(r.compacted_count(), next - 1, "the floor advanced");
        assert!(
            spent <= 4 * K,
            "a floor advance over {K} commits made {spent} allocations: it copies the state"
        );
    }
}

/// A settle where the compaction floor did not move touches the floor by
/// reference: no `BaselineMark` copy, no allocation at all.
#[test]
fn settle_with_a_still_floor_allocates_nothing() {
    let (mut r, next) = compacting_replica_over(16);
    let mut ctx = StubCtx;
    let before = allocations();
    for _ in 0..100 {
        r.settle(&mut ctx);
    }
    let spent = allocations() - before;
    assert_eq!(
        spent, 0,
        "100 settles on an unchanged floor made {spent} allocations"
    );
    assert_eq!(r.compacted_count(), next - 1);
}

#[test]
fn steady_state_delivery_allocations_stay_bounded() {
    let mut r: R = BayouReplica::new(2, ProtocolMode::Original, FeedTob::default());
    let mut next = 1u64;
    const BATCH: usize = 8;

    // warm-up: let every reusable buffer and container reach capacity
    commit_window(&mut r, &mut next, 125, BATCH);

    // early window vs a window 8× deeper into the history
    let early = commit_window(&mut r, &mut next, 100, BATCH);
    commit_window(&mut r, &mut next, 600, BATCH);
    let late = commit_window(&mut r, &mut next, 100, BATCH);

    // the measured window includes building each request (Arc + key
    // string + undo record + trace bookkeeping ≈ 4 allocations); the
    // point is that the *delivery path* adds no per-batch O(history) or
    // O(batch) vector churn on top — measured steady state is ~4.5
    // allocations/request, asserted with margin. The pre-batching path
    // rebuilt `to_be_executed` and split off the executed suffix afresh
    // per request.
    let per_req_early = early / BATCH as f64;
    let per_req_late = late / BATCH as f64;
    assert!(
        per_req_late < 8.0,
        "steady-state delivery allocates too much: {per_req_late:.1} allocations/request"
    );
    // ... and the cost must not grow with accumulated history
    assert!(
        per_req_late <= per_req_early * 1.5 + 2.0,
        "delivery allocations grow with history: early {per_req_early:.1}, late {per_req_late:.1} per request"
    );
}

/// Replica 0 of three, trusted by Ω: the leader's view of the world. It
/// counts the `Accept`s it is asked to send.
struct LeaderCtx {
    accepts: usize,
}

impl Context<PaxosMsg<String>> for LeaderCtx {
    fn id(&self) -> ReplicaId {
        ReplicaId::new(0)
    }
    fn cluster_size(&self) -> usize {
        3
    }
    fn now(&self) -> VirtualTime {
        VirtualTime::ZERO
    }
    fn clock(&mut self) -> Timestamp {
        Timestamp::new(0)
    }
    fn send(&mut self, _to: ReplicaId, m: PaxosMsg<String>) {
        self.accepts += usize::from(matches!(m, PaxosMsg::Accept { .. }));
    }
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

/// A Paxos leader proposes a new entry by walking its pending queue in
/// place: an enqueue behind 1 000 proposed-but-undecided entries costs
/// O(1) allocations, however deep the backlog. The payloads are
/// `String`s, whose clones allocate, so copying the queue — which the
/// leader used to do on every enqueue — would cost a thousand.
#[test]
fn paxos_enqueue_behind_a_backlog_allocates_o1() {
    let mut tob: PaxosTob<String> = PaxosTob::new(3, PaxosConfig::default());
    let mut ctx = LeaderCtx { accepts: 0 };
    tob.on_start(&mut ctx);
    tob.cast(0, "op-0".to_string(), &mut ctx); // opens phase 1
    let ballot = Ballot {
        round: 1,
        leader: ReplicaId::new(0),
    };
    // a second promise completes the quorum: replica 0 leads
    let promise = PaxosMsg::Promise {
        ballot,
        accepted: Vec::new(),
        decided_upto: 0,
        committed_upto: 0,
    };
    tob.on_message(ReplicaId::new(1), promise, &mut ctx);
    // no acceptor answers: every proposal stays pending
    for seq in 1..1_000 {
        tob.cast(seq, format!("op-{seq}"), &mut ctx);
    }
    assert_eq!(ctx.accepts, 2 * 1_000, "the leader proposed every entry");
    for seq in 1_000..1_004 {
        let payload = format!("op-{seq}");
        let before = allocations();
        tob.cast(seq, payload, &mut ctx);
        let spent = allocations() - before;
        assert!(
            spent <= 32,
            "an enqueue behind {seq} pending entries made {spent} allocations"
        );
    }
}

/// The wire layer itself: steady-state encode (pooled buffer + in-place
/// framing) and decode (fixed-width metadata, then a borrowing op view)
/// of a request frame must perform **zero** heap allocations per frame
/// after warm-up: `BufPool` keeps grown buffers, `frame_into` patches
/// the header in place, and `KvOpView` decoding yields `&str` slices of
/// the received bytes instead of materializing `String`s.
#[test]
fn wire_layer_steady_state_allocates_zero_per_frame() {
    let request: Req<KvOp> = Req::new(
        Timestamp::new(7),
        Dot::new(ReplicaId::new(1), 42),
        Level::Weak,
        KvOp::put("steady-state-key", 99),
    );

    let mut pool = BufPool::new();
    // warm-up: the pool's buffer grows to frame size exactly once
    for _ in 0..4 {
        let mut buf = pool.checkout();
        frame_into(&mut buf, |out| request.encode(out));
        pool.checkin(buf);
    }
    assert_eq!(pool.misses(), 1, "one buffer serves every frame");

    const FRAMES: u64 = 1_000;
    let before = allocations();
    let mut decoded_total = 0i64;
    for _ in 0..FRAMES {
        // encode: pooled checkout, in-place framing, no fresh Vec
        let mut buf = pool.checkout();
        frame_into(&mut buf, |out| request.encode(out));
        // decode: the request's metadata, then a borrowed view of its op
        // — key bytes stay in `buf`, nothing is copied out
        let mut r = WireReader::new(&buf[FRAME_OVERHEAD..]);
        let meta = ReqMeta::decode(&mut r).expect("framed request decodes");
        assert_eq!(meta.dot, request.dot);
        match KvOpView::decode_view(&mut r).expect("framed op decodes") {
            KvOpView::Put(key, v) => {
                assert_eq!(key, "steady-state-key");
                decoded_total += v;
            }
            _ => panic!("wrong op"),
        }
        assert!(r.is_empty());
        pool.checkin(buf);
    }
    let spent = allocations() - before;
    assert_eq!(decoded_total, 99 * FRAMES as i64);
    assert_eq!(
        spent, 0,
        "steady-state wire path must allocate nothing: {spent} allocations over {FRAMES} frames"
    );
}

/// A steady-state WAL append through the stack the server wires — one
/// group's `Prefixed` view of a `SharedBackend`, its sync demands routed
/// to the host's barrier — allocates nothing per record: the record is
/// framed into a pooled buffer, the prefixed file name is rebuilt in
/// place and the disk finds the open segment by `&str`. What remains is
/// the disk's own byte buffer growing by doubling: O(log bytes) over the
/// run, not one per record.
#[test]
fn wal_append_through_the_wired_store_allocates_nothing() {
    let shared = SharedBackend::new(MemDisk::new());
    let view = Prefixed::new(shared.clone(), GroupId::new(0));
    let cfg = StoreConfig {
        snapshot_every: u64::MAX,
        segment_max_bytes: usize::MAX,
        sync_every_record: true,
    };
    let (mut store, _) = ReplicaStore::<KvStore, _>::open(view, 3, cfg).unwrap();
    store.defer_sync_to_barrier(Arc::new(SyncBarrier::new()));
    let reqs: Vec<SharedReq<KvOp>> = (0..64u64)
        .map(|no| {
            Arc::new(Req::new(
                Timestamp::new(no as i64),
                Dot::new(ReplicaId::new(0), no + 1),
                Level::Weak,
                KvOp::put(format!("key{}", no % 8), no as i64),
            ))
        })
        .collect();
    // warm-up: the pooled buffer and the name buffer reach full size
    for (seq, r) in reqs.iter().enumerate().take(8) {
        store.log_invoke(r, seq as u64).unwrap();
    }
    const RECORDS: u64 = 2_000;
    let before = allocations();
    for seq in 8..RECORDS {
        let r = &reqs[seq as usize % reqs.len()];
        store.log_invoke(r, seq).unwrap();
    }
    let spent = allocations() - before;
    let doublings = u64::from(shared.with(|d| d.stats().appended_bytes).ilog2());
    assert!(
        spent <= doublings,
        "a steady-state append allocated: {spent} allocations over {} records, \
         more than the disk buffer's {doublings} doublings",
        RECORDS - 8
    );
    assert_eq!(spent / RECORDS, 0, "allocations per record");
}
