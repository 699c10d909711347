//! The Bayou process: a host multiplexing N ≥ 1 replication groups.
//!
//! The paper's protocol gives one replication group one total order,
//! which caps committed throughput at a single leader's commit
//! pipeline. [`GroupedReplica`] is the one [`Process`] every runtime
//! drives (`bayou-sim`, `bayou-net`, the server): it owns one
//! [`BayouReplica`] — the protocol — per [`GroupId`] and calls its
//! step-level methods inside its own handler steps, so the runtimes
//! route by `(replica, group)` without multiplying OS threads or sim
//! processes. A single-group deployment is a host with one group.
//! Groups never exchange protocol state; a keyspace partition above
//! them (the server's `ShardRouter`) guarantees no request crosses a
//! group boundary.
//!
//! What the host owns is exactly the per-process machinery:
//!
//! - **one handler-step loop** — every group handler runs inside the
//!   host's step; internal (`rollback`/`execute`) steps are served
//!   round-robin across groups;
//! - **one frame dispatch** — an incoming host frame hands each group
//!   its messages in frame order, then settles every group it touched
//!   once, so a group commits one delivery batch per frame however many
//!   sender steps the frame carries;
//! - **one WAL group-commit barrier** — per-group stores write through
//!   one shared backend ([`bayou_storage::SharedBackend`], namespaced by
//!   [`bayou_storage::Prefixed`]) and funnel their deferred record syncs
//!   into one [`SyncBarrier`] the host settles with a *single* physical
//!   fsync per runtime barrier ([`Process::barrier`]: after every
//!   handler in the simulator, once per wake live), before any frame
//!   leaves (the write-ahead contract: a group's "sends" only ever reach
//!   buffers);
//! - **one frame coalescer** — every step's sends, from *all* groups,
//!   land in the host's per-peer [`StepBuffers`] and stay there until the
//!   runtime ends its unit of work and calls
//!   [`Process::release_frames`]: the live runtime once per wake, the
//!   simulator once per busy period. Everything the unit's steps sent to
//!   one peer, for any group, leaves as one link frame. There is no
//!   timer and no budget: the runtime decides when a unit ends;
//! - **timer routing, failure and the runtime hooks** — which group
//!   armed which timer, `has_failed`, and the fsync, stall and wire-byte
//!   meters.
//!
//! [`crate::recover_grouped_paxos`] is the durable factory (one physical
//! store, N namespaced recoveries) and [`crate::recover_paxos_replica`]
//! its one-group case; [`crate::BayouCluster`] wires hosts over the
//! simulator.

use crate::api::{Invocation, Invoked, Response};
use crate::replica::{BayouMsg, BayouReplica};
use bayou_broadcast::{FrameMeter, StepBuffers, StepCoalescer, Tob};
use bayou_data::{DataType, StateObject};
use bayou_storage::{StorageError, SyncBarrier};
use bayou_types::{
    wire, Context, GroupId, LeaseConfig, Process, ReplicaId, SharedReq, TimerId, Timestamp,
    VirtualTime, Wire,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The inner wire enum of one group's replica.
type InnerMsg<F, T> = BayouMsg<
    <F as DataType>::Op,
    <F as DataType>::State,
    <T as Tob<SharedReq<<F as DataType>::Op>>>::Msg,
>;

/// The host's wire enum: a group-tagged inner message, or a frame
/// coalescing several of them (possibly for *different* groups) to the
/// same peer.
type HostMsg<F, T> = GroupedMsg<InnerMsg<F, T>>;

/// A group-addressed wire message.
///
/// `One` tags an inner protocol message with its destination group;
/// `Batch` is the host-level frame — the per-peer coalescing of
/// everything the host's groups sent in one unit of work (a live wake,
/// a simulated busy period): one frame per peer per wake. Under
/// saturation this is what turns per-slot message storms (64 `Accept`s
/// from one `Submit` batch, 64 `Decide`s from one `Accepted` frame)
/// into one message, one handler step, one delivery batch per group and
/// one WAL sync at the receiver.
#[derive(Debug, Clone)]
pub enum GroupedMsg<M> {
    /// One inner message, addressed to `GroupId` at the receiving host.
    One(GroupId, M),
    /// A host frame: several group-tagged messages to one peer.
    Batch(Vec<GroupedMsg<M>>),
}

wire! {
    GroupedMsg<M> {
        0 => One(gid, m),
        1 => Batch(msgs),
    }
}

/// The [`Context`] one group's replica sees inside a host step: sends
/// are tagged with the group id (and held by the host's frame
/// coalescer), timers are recorded in the host's ownership map so the
/// fire routes back to this group, and everything else delegates.
struct GroupCtx<'a, M> {
    outer: &'a mut dyn Context<GroupedMsg<M>>,
    gid: GroupId,
    timer_owner: &'a mut HashMap<TimerId, GroupId>,
}

impl<M> Context<M> for GroupCtx<'_, M> {
    fn id(&self) -> ReplicaId {
        self.outer.id()
    }

    fn cluster_size(&self) -> usize {
        self.outer.cluster_size()
    }

    fn now(&self) -> VirtualTime {
        self.outer.now()
    }

    fn clock(&mut self) -> Timestamp {
        self.outer.clock()
    }

    fn send(&mut self, to: ReplicaId, msg: M) {
        self.outer.send(to, GroupedMsg::One(self.gid, msg));
    }

    fn set_timer(&mut self, delay: VirtualTime) -> TimerId {
        let timer = self.outer.set_timer(delay);
        self.timer_owner.insert(timer, self.gid);
        timer
    }

    fn random(&mut self) -> u64 {
        self.outer.random()
    }

    fn omega(&mut self) -> ReplicaId {
        // each group queries its own Ω lane: eventual leadership spreads
        // over the live replicas instead of every co-hosted group
        // funnelling its ordering work through the lowest id (lane 0 is
        // the plain single-group oracle)
        self.outer.omega_for(self.gid.as_u32())
    }

    fn omega_for(&mut self, lane: u32) -> ReplicaId {
        self.outer.omega_for(lane)
    }
}

/// The host's shared WAL group-commit barrier: the flag the per-group
/// stores dirty, the settle that hands the logged appends to the OS and
/// pays the sync they owe, and the failure latch that crash-stops the
/// whole host (the store is shared — one group's sync failure is every
/// group's).
struct HostBarrier {
    barrier: Arc<SyncBarrier>,
    settle: Box<dyn FnMut(bool) -> Result<(), StorageError> + Send>,
    fsyncs: u64,
    failed: Option<StorageError>,
}

impl std::fmt::Debug for HostBarrier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HostBarrier")
            .field("dirty", &self.barrier.is_dirty())
            .field("fsyncs", &self.fsyncs)
            .field("failed", &self.failed)
            .finish()
    }
}

/// The Bayou process: N addressable [`BayouReplica`] groups behind one
/// [`Process`] endpoint. See the module docs for what the host owns
/// (step loop, frame dispatch, fsync barrier, frame coalescer, timers,
/// runtime hooks) and what each group keeps (its total order, WAL and
/// compaction watermark).
pub struct GroupedReplica<F, T, S>
where
    F: DataType,
    T: Tob<SharedReq<F::Op>>,
    S: StateObject<F>,
{
    groups: Vec<BayouReplica<F, T, S>>,
    /// Which group armed which timer (fires route back to the owner).
    timer_owner: HashMap<TimerId, GroupId>,
    /// The host-level coalescer's per-peer buffers: frames from all
    /// groups, merged per destination, held until the runtime's
    /// [`Process::release_frames`].
    frames: StepBuffers<HostMsg<F, T>>,
    barrier: Option<HostBarrier>,
    /// Muted groups: the host drops their messages, inputs and timers —
    /// a *group-scoped* crash on this replica (isolation tests).
    muted: Vec<bool>,
    /// Round-robin cursor for internal (`rollback`/`execute`) steps.
    rr_cursor: usize,
    /// Reusable buffer: the groups one incoming frame touched, in frame
    /// order — each settles once after the whole frame dispatched.
    touched: Vec<GroupId>,
    wire_meter: Option<FrameMeter<HostMsg<F, T>>>,
}

impl<F, T, S> GroupedReplica<F, T, S>
where
    F: DataType,
    T: Tob<SharedReq<F::Op>>,
    S: StateObject<F>,
{
    /// Builds a host over `groups` (one replica per [`GroupId`], in
    /// index order).
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn new(groups: Vec<BayouReplica<F, T, S>>) -> Self {
        assert!(!groups.is_empty(), "a grouped replica hosts >= 1 group");
        let muted = vec![false; groups.len()];
        GroupedReplica {
            groups,
            timer_owner: HashMap::new(),
            frames: StepBuffers::default(),
            barrier: None,
            muted,
            rr_cursor: 0,
            touched: Vec::new(),
            wire_meter: None,
        }
    }

    /// Number of groups hosted here.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Read access to one group's replica.
    ///
    /// # Panics
    ///
    /// Panics if `gid` is out of range.
    pub fn group(&self, gid: GroupId) -> &BayouReplica<F, T, S> {
        &self.groups[gid.index()]
    }

    /// The storage failure that crash-stopped this host, if any. The
    /// store is shared, so one group's persistence failure (or the
    /// shared barrier's) is a whole-process crash-stop.
    pub fn failure(&self) -> Option<&StorageError> {
        (self.barrier.as_ref())
            .and_then(|hb| hb.failed.as_ref())
            .or_else(|| self.groups.iter().find_map(|g| g.failure()))
    }

    /// Takes the record of the invocation group `gid` handled since the
    /// last call ([`BayouReplica::take_invoked`]); `None` for a group out
    /// of range.
    pub(crate) fn take_invoked(&mut self, gid: GroupId) -> Option<Invoked> {
        self.groups.get_mut(gid.index())?.take_invoked()
    }

    /// Mutes (or unmutes) one group on this host: while muted, the host
    /// drops the group's incoming messages, inputs and timer fires — a
    /// crash scoped to `(replica, group)`, leaving every other group on
    /// this process fully live. The group-isolation test hook.
    pub fn mute_group(&mut self, gid: GroupId, muted: bool) {
        if let Some(m) = self.muted.get_mut(gid.index()) {
            *m = muted;
        }
    }

    /// Routes every group's deferred group-commit sync debt through
    /// `barrier`, settled by `settle` at each [`Process::barrier`]: it
    /// hands the buffered appends to the OS (one write) and, when its
    /// argument says the barrier was dirtied, pays one physical fsync of
    /// the shared backend. A failure crash-stops the whole host, since
    /// the store is shared.
    pub(crate) fn set_sync_barrier(
        &mut self,
        barrier: Arc<SyncBarrier>,
        settle: impl FnMut(bool) -> Result<(), StorageError> + Send + 'static,
    ) {
        self.barrier = Some(HostBarrier {
            barrier,
            settle: Box::new(settle),
            fsyncs: 0,
            failed: None,
        });
    }

    /// Enables (or disables) leader leases in every group. Each group
    /// runs its own lease over its own lane Ω (`Context::omega_for`
    /// with the group's lane), so different groups may hold leases on
    /// different hosts concurrently.
    pub fn set_lease(&mut self, lease: Option<LeaseConfig>) {
        for g in &mut self.groups {
            g.set_lease(lease);
        }
    }

    /// Enables wire-bytes metering: every frame leaving the host is
    /// measured under the real group-tagged [`Wire`] codec
    /// ([`FrameMeter::wire`]) and drained by the runtime through
    /// [`Process::take_wire_bytes`] into the simulator's `wire_bytes`
    /// metric — the network-side analogue of the WAL's bytes
    /// accounting.
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

    /// Opens the host-level coalescer for one handler step. Every group
    /// send of the step lands here (group-tagged — frames of different
    /// groups to one peer merge into one [`GroupedMsg::Batch`] link
    /// frame); the caller ends the step by putting the buffers back,
    /// where its frames wait for the runtime's
    /// [`Process::release_frames`].
    fn host_step<'a>(
        &mut self,
        ctx: &'a mut dyn Context<HostMsg<F, T>>,
    ) -> StepCoalescer<'a, HostMsg<F, T>> {
        self.frames.open(ctx, self.wire_meter.clone())
    }

    /// Runs `f` on group `gid` inside the host step `cctx`: the group
    /// sees a [`GroupCtx`] that tags its sends and records its timers.
    fn in_group<R>(
        &mut self,
        gid: GroupId,
        cctx: &mut StepCoalescer<'_, HostMsg<F, T>>,
        f: impl FnOnce(&mut BayouReplica<F, T, S>, &mut GroupCtx<'_, InnerMsg<F, T>>) -> R,
    ) -> R {
        let mut gctx = GroupCtx {
            outer: cctx,
            gid,
            timer_owner: &mut self.timer_owner,
        };
        f(&mut self.groups[gid.index()], &mut gctx)
    }

    /// Whether the host serves `gid` at all: in range and not muted.
    fn serves(&self, gid: GroupId) -> bool {
        gid.index() < self.groups.len() && !self.muted[gid.index()]
    }

    /// Unwraps one incoming host frame (recursing into step-end batches)
    /// and hands each group-tagged message to its group, recording the
    /// group in `touched` on first sight — unless the group is muted or
    /// out of range, in which case the message is dropped exactly as a
    /// crashed replica would drop it.
    fn dispatch(
        &mut self,
        from: ReplicaId,
        msg: HostMsg<F, T>,
        cctx: &mut StepCoalescer<'_, HostMsg<F, T>>,
        touched: &mut Vec<GroupId>,
    ) {
        match msg {
            GroupedMsg::One(gid, m) => {
                if !self.serves(gid) {
                    return;
                }
                if !touched.contains(&gid) {
                    touched.push(gid);
                }
                self.in_group(gid, cctx, |g, gctx| g.receive(from, m, gctx));
            }
            GroupedMsg::Batch(msgs) => {
                for m in msgs {
                    self.dispatch(from, m, cctx, touched);
                }
            }
        }
    }
}

impl<F, T, S> Process for GroupedReplica<F, T, S>
where
    F: DataType,
    T: Tob<SharedReq<F::Op>>,
    S: StateObject<F>,
{
    type Msg = HostMsg<F, T>;
    type Input = (GroupId, Invocation<F::Op>);
    type Output = (GroupId, Response);

    fn on_start(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        let mut cctx = self.host_step(ctx);
        for gid in GroupId::all(self.groups.len()) {
            self.in_group(gid, &mut cctx, |g, gctx| g.start(gctx));
        }
        self.frames.put_back(cctx);
    }

    fn on_input(&mut self, (gid, inv): Self::Input, ctx: &mut dyn Context<Self::Msg>) {
        if !self.serves(gid) {
            return;
        }
        let mut cctx = self.host_step(ctx);
        self.in_group(gid, &mut cctx, |g, gctx| g.invoke(inv, gctx));
        self.frames.put_back(cctx);
    }

    fn on_message(&mut self, from: ReplicaId, msg: Self::Msg, ctx: &mut dyn Context<Self::Msg>) {
        let mut cctx = self.host_step(ctx);
        let mut touched = std::mem::take(&mut self.touched);
        self.dispatch(from, msg, &mut cctx, &mut touched);
        // every group the frame reached commits its share as one batch
        for gid in touched.drain(..) {
            self.in_group(gid, &mut cctx, |g, gctx| g.settle(gctx));
        }
        self.touched = touched;
        self.frames.put_back(cctx);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Self::Msg>) {
        let Some(gid) = self.timer_owner.remove(&timer) else {
            return; // a timer of a rebuilt or unknown owner: drop
        };
        if !self.serves(gid) {
            return;
        }
        let mut cctx = self.host_step(ctx);
        self.in_group(gid, &mut cctx, |g, gctx| g.on_timer(timer, gctx));
        self.frames.put_back(cctx);
    }

    fn on_internal(&mut self, _ctx: &mut dyn Context<Self::Msg>) -> bool {
        // one shared step loop: internal (rollback/execute) steps are
        // served round-robin across groups, so a group with a deep
        // redo queue cannot starve the others
        let (n, first) = (self.groups.len(), self.rr_cursor);
        let stepped = (0..n)
            .map(|k| (first + k) % n)
            .find(|&i| !self.muted[i] && self.groups[i].step());
        if let Some(i) = stepped {
            self.rr_cursor = (i + 1) % n;
        }
        stepped.is_some()
    }

    fn drain_outputs(&mut self) -> Vec<(GroupId, Response)> {
        let mut out = Vec::new();
        for (gid, group) in GroupId::all(self.groups.len()).zip(&mut self.groups) {
            out.extend(group.drain_outputs().into_iter().map(|r| (gid, r)));
        }
        out
    }

    /// Sends every frame the host's steps held since the last release,
    /// one per peer, each merging what all groups sent that peer.
    fn release_frames(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        self.frames
            .release(ctx, GroupedMsg::Batch, self.wire_meter.clone());
    }

    /// Settles every WAL append the host's steps made since the last
    /// barrier: each group's own deferred sync (a no-op for stores
    /// routed to the shared barrier), then the shared barrier — all the
    /// groups' appends reach the OS in one write and, if any group
    /// dirtied the shared log, one physical fsync covers them all. The
    /// runtime calls it before any frame or reply of those steps leaves
    /// (write-ahead: group "sends" only ever reached buffers). A failure
    /// crash-stops the host and the runtime discards what the steps
    /// produced.
    fn barrier(&mut self) {
        for g in &mut self.groups {
            g.sync_step();
        }
        if let Some(hb) = &mut self.barrier {
            if hb.failed.is_some() {
                return;
            }
            let dirty = hb.barrier.settle();
            hb.fsyncs += u64::from(dirty);
            if let Err(e) = (hb.settle)(dirty) {
                hb.failed = Some(e);
            }
        }
    }

    fn take_storage_stall(&mut self) -> VirtualTime {
        // the per-group stores share one backend whose stall counter is
        // drained destructively, so the per-group drains sum correctly
        self.groups.iter_mut().fold(VirtualTime::ZERO, |acc, g| {
            acc + g.persistence().take_sync_stall()
        })
    }

    fn take_wire_bytes(&mut self) -> u64 {
        self.wire_meter.as_ref().map_or(0, FrameMeter::take_bytes)
    }

    fn take_fsyncs(&mut self) -> u64 {
        let barrier = self
            .barrier
            .as_mut()
            .map_or(0, |hb| std::mem::take(&mut hb.fsyncs));
        barrier
            + self
                .groups
                .iter_mut()
                .map(|g| g.persistence().take_fsyncs())
                .sum::<u64>()
    }

    fn has_failed(&self) -> bool {
        self.failure().is_some()
    }
}

impl<F, T, S> std::fmt::Debug for GroupedReplica<F, T, S>
where
    F: DataType,
    T: Tob<SharedReq<F::Op>> + std::fmt::Debug,
    S: StateObject<F>,
{
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GroupedReplica")
            .field("groups", &self.groups.len())
            .field("muted", &self.muted)
            .field("barrier", &self.barrier)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::tests::stub;
    use crate::replica::ProtocolMode;
    use bayou_broadcast::TobDelivery;
    use bayou_data::{Counter, CounterOp, DeltaState};
    use bayou_storage::Persistence;
    use bayou_types::{Dot, Level, Req};
    use std::ops::Range;
    use std::sync::Mutex;

    /// A scripted TOB: each of its messages is the delivery batch it
    /// yields, so a test decides exactly what one frame delivers.
    #[derive(Debug)]
    struct FeedTob;

    type Deliveries = Vec<TobDelivery<SharedReq<CounterOp>>>;

    impl Tob<SharedReq<CounterOp>> for FeedTob {
        type Msg = Deliveries;

        fn on_start(&mut self, _ctx: &mut dyn Context<Deliveries>) {}
        fn cast(&mut self, _: u64, _: SharedReq<CounterOp>, _: &mut dyn Context<Deliveries>) {}
        fn ensure(
            &mut self,
            _: ReplicaId,
            _: u64,
            _: SharedReq<CounterOp>,
            _: &mut dyn Context<Deliveries>,
        ) {
        }
        fn on_message(
            &mut self,
            _from: ReplicaId,
            msg: Deliveries,
            _ctx: &mut dyn Context<Deliveries>,
        ) -> Deliveries {
            msg
        }
        fn on_timer(&mut self, _: TimerId, _: &mut dyn Context<Deliveries>) -> Deliveries {
            Vec::new()
        }
        fn owns_timer(&self, _timer: TimerId) -> bool {
            false
        }
        fn delivered_count(&self) -> u64 {
            0
        }
    }

    /// Every commit batch the host's groups write, as `(group, size)`.
    type CommitLog = Arc<Mutex<Vec<(GroupId, usize)>>>;

    /// A store that records each group-commit call and persists nothing.
    struct CountCommits {
        gid: GroupId,
        log: CommitLog,
    }

    impl Persistence<Counter> for CountCommits {
        fn log_commit_batch(&mut self, reqs: &[SharedReq<CounterOp>]) -> Result<(), StorageError> {
            self.log.lock().unwrap().push((self.gid, reqs.len()));
            Ok(())
        }
    }

    /// One sender step's TOB message for `gid`, delivering the requests
    /// numbered `nos` (from replica 1).
    fn deliver(gid: GroupId, nos: Range<u64>) -> GroupedMsg<BayouMsg<CounterOp, i64, Deliveries>> {
        let batch = nos
            .map(|no| TobDelivery {
                sender: ReplicaId::new(1),
                seq: no,
                tob_no: no,
                payload: Arc::new(Req::new(
                    Timestamp::new(no as i64),
                    Dot::new(ReplicaId::new(1), no + 1),
                    Level::Weak,
                    CounterOp::Add(1),
                )),
            })
            .collect();
        GroupedMsg::One(gid, BayouMsg::Tob(batch))
    }

    /// The property the host's frame dispatch carries: whatever one
    /// incoming frame holds — several groups' TOB messages interleaved,
    /// or many sender steps for one group — each group it reaches
    /// commits exactly once, and groups commit in the order the frame
    /// first reaches them.
    #[test]
    fn a_frame_commits_once_per_group_in_frame_order() {
        let log = CommitLog::default();
        let mut host = GroupedReplica::new(
            GroupId::all(2)
                .map(|gid| {
                    let store = CountCommits {
                        gid,
                        log: log.clone(),
                    };
                    let state = DeltaState::default();
                    BayouReplica::with_persistence(
                        2,
                        ProtocolMode::Improved,
                        FeedTob,
                        state,
                        Box::new(store),
                    )
                })
                .collect(),
        );
        let (g0, g1) = (GroupId::new(0), GroupId::new(1));
        let (from, mut ctx) = (ReplicaId::new(1), stub(0));

        let interleaved = vec![
            deliver(g1, 0..2),
            deliver(g0, 0..1),
            deliver(g1, 2..3),
            deliver(g0, 1..3),
        ];
        host.on_message(from, GroupedMsg::Batch(interleaved), &mut ctx);
        assert_eq!(*log.lock().unwrap(), [(g1, 3), (g0, 3)]);

        // four sender steps for one group, carried by one frame
        log.lock().unwrap().clear();
        let steps = (3..7).map(|no| deliver(g0, no..no + 1)).collect();
        host.on_message(from, GroupedMsg::Batch(steps), &mut ctx);
        assert_eq!(*log.lock().unwrap(), [(g0, 4)]);

        assert_eq!(host.group(g0).committed_total(), 7);
        assert_eq!(host.group(g1).committed_total(), 3);
    }

    #[test]
    fn grouped_msg_wire_round_trip() {
        let one: GroupedMsg<u64> = GroupedMsg::One(GroupId::new(3), 42);
        let back = GroupedMsg::<u64>::from_bytes(&one.to_bytes()).unwrap();
        assert!(matches!(back, GroupedMsg::One(g, 42) if g == GroupId::new(3)));

        let batch: GroupedMsg<u64> = GroupedMsg::Batch(vec![
            GroupedMsg::One(GroupId::new(0), 1),
            GroupedMsg::One(GroupId::new(1), 2),
        ]);
        let back = GroupedMsg::<u64>::from_bytes(&batch.to_bytes()).unwrap();
        match back {
            GroupedMsg::Batch(v) => assert_eq!(v.len(), 2),
            other => panic!("decoded {other:?}"),
        }
        assert!(GroupedMsg::<u64>::from_bytes(&[9]).is_err());
    }
}
