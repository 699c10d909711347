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
//!   fsync per step, before any frame leaves (the write-ahead contract:
//!   a group's "sends" only ever reach the host's buffers);
//! - **one flush deferral** — the host runs the cross-step park/flush
//!   state machine ([`StepDeferral`]) over its step-end coalescer, whose
//!   per-peer buffers hold frames from *all* groups, so frames for
//!   different groups headed to the same peer merge into one link frame.
//!   A step a strong operation waits on flushes at its end (the groups
//!   report it from [`BayouReplica::invoke`] / [`BayouReplica::receive`]);
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
use bayou_broadcast::{FrameMeter, StepCoalescer, StepDeferral, Tob};
use bayou_data::{DataType, StateObject};
use bayou_storage::{StorageError, SyncBarrier};
use bayou_types::{
    Context, GroupId, LeaseConfig, Process, ReplicaId, SharedReq, TimerId, Timestamp, VirtualTime,
    Wire, WireError, WireReader,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Default cross-step flush-deferral budget: 4× the simulator's default
/// 10µs handler step, so a saturated host's consecutive invocations
/// share step frames while an isolated invocation is delayed by well
/// under any protocol timeout. See [`GroupedReplica::set_flush_deferral`].
pub const DEFAULT_FLUSH_DELAY: VirtualTime = VirtualTime::from_micros(40);

/// The inner wire enum of one group's replica.
type InnerMsg<F, T> = BayouMsg<
    <F as DataType>::Op,
    <F as DataType>::State,
    <T as Tob<SharedReq<<F as DataType>::Op>>>::Msg,
>;

/// The host's wire enum: a group-tagged inner message, or a step-end
/// frame coalescing several of them (possibly for *different* groups)
/// to the same peer.
type HostMsg<F, T> = GroupedMsg<InnerMsg<F, T>>;

/// A group-addressed wire message.
///
/// `One` tags an inner protocol message with its destination group;
/// `Batch` is the host-level step-end frame — the per-peer coalescing
/// of everything the host's groups sent in one step (or in several
/// consecutive steps, under flush deferral). Under saturation this is
/// what turns per-slot message storms (64 `Accept`s from one `Submit`
/// batch, 64 `Decide`s from one `Accepted` frame) into one message,
/// one handler step, one delivery batch per group and one WAL sync at
/// the receiver.
#[derive(Debug, Clone)]
pub enum GroupedMsg<M> {
    /// One inner message, addressed to `GroupId` at the receiving host.
    One(GroupId, M),
    /// A host step-end frame: several group-tagged messages to one peer.
    Batch(Vec<GroupedMsg<M>>),
}

impl<M: Wire> Wire for GroupedMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            GroupedMsg::One(gid, m) => {
                out.push(0);
                gid.encode(out);
                m.encode(out);
            }
            GroupedMsg::Batch(msgs) => {
                out.push(1);
                msgs.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(GroupedMsg::One(GroupId::decode(r)?, M::decode(r)?)),
            1 => Ok(GroupedMsg::Batch(Vec::decode(r)?)),
            tag => Err(WireError::BadTag {
                ty: "GroupedMsg",
                tag,
            }),
        }
    }
}

/// The [`Context`] one group's replica sees inside a host step: sends
/// are tagged with the group id (and buffered by the host's step-end
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
/// stores dirty, the physical sync that settles it, and the failure
/// latch that crash-stops the whole host (the store is shared — one
/// group's sync failure is every group's).
struct HostBarrier {
    barrier: Arc<SyncBarrier>,
    sync: Box<dyn FnMut() -> Result<(), StorageError> + Send>,
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
/// (step loop, frame dispatch, fsync barrier, flush deferral, timers,
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
    /// The host-level step-end coalescer's per-peer buffers — frames
    /// from all groups, merged per destination — under the cross-step
    /// flush-deferral budget.
    deferral: StepDeferral<HostMsg<F, T>>,
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
    /// index order), parking step-end frames for up to
    /// [`DEFAULT_FLUSH_DELAY`].
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
            deferral: StepDeferral::new(Some(DEFAULT_FLUSH_DELAY)),
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
    /// `barrier`, settled by `sync` (one physical fsync of the shared
    /// backend) at each host step end. A sync failure crash-stops the
    /// whole host, since the store is shared.
    pub(crate) fn set_sync_barrier(
        &mut self,
        barrier: Arc<SyncBarrier>,
        sync: impl FnMut() -> Result<(), StorageError> + Send + 'static,
    ) {
        self.barrier = Some(HostBarrier {
            barrier,
            sync: Box::new(sync),
            fsyncs: 0,
            failed: None,
        });
    }

    /// Enables (or disables) committed-history compaction in every
    /// group (each group keeps its *own* watermark).
    pub fn set_compaction(&mut self, on: bool) {
        for g in &mut self.groups {
            g.set_compaction(on);
        }
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

    /// Sets (or clears) cross-step flush deferral: with a budget, the
    /// host's step-end frames may be *parked* across consecutive handler
    /// steps, so a saturated burst of invocations shares wire frames
    /// instead of emitting one set per step. A timer guarantees parked
    /// frames flush within the budget even if the host goes idle, so no
    /// frame waits longer than one budget; a step a strong operation
    /// waits on flushes at its end. On by default with
    /// [`DEFAULT_FLUSH_DELAY`]; `None` flushes at every step end.
    pub fn set_flush_deferral(&mut self, delay: Option<VirtualTime>) {
        self.deferral.set_budget(delay);
    }

    /// The host's cross-step flush-deferral budget, if any.
    pub fn flush_deferral(&self) -> Option<VirtualTime> {
        self.deferral.budget()
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

    /// Opens the host-level step-end coalescer for one handler step.
    /// Every group send of the step lands here (group-tagged — frames of
    /// different groups to one peer merge into one
    /// [`GroupedMsg::Batch`] link frame); the caller must end the step
    /// in [`GroupedReplica::close_host_step`] or the deferral's
    /// `flush`/`put_back`.
    fn host_step<'a>(
        &mut self,
        ctx: &'a mut dyn Context<HostMsg<F, T>>,
    ) -> StepCoalescer<'a, HostMsg<F, T>> {
        self.deferral
            .open(ctx, GroupedMsg::Batch, self.wire_meter.clone())
    }

    /// Settles the step's WAL syncs: each group's own deferred sync
    /// (a no-op for stores routed to the shared barrier), then the shared
    /// barrier — if any group dirtied the shared log this step, one
    /// physical fsync covers them all. Runs before any frame leaves the
    /// host (write-ahead: group "sends" only ever reached the host's
    /// buffers). A failure crash-stops the host and the runtime discards
    /// the step's output.
    fn sync_step(&mut self) {
        for g in &mut self.groups {
            g.sync_step();
        }
        if let Some(hb) = &mut self.barrier {
            if hb.failed.is_some() || !hb.barrier.settle() {
                return;
            }
            hb.fsyncs += 1;
            if let Err(e) = (hb.sync)() {
                hb.failed = Some(e);
            }
        }
    }

    /// Closes one host step: settle the WAL syncs first, then run the
    /// cross-step deferral over the coalesced frames — once for all
    /// groups, flushing at once when a strong operation waits on them.
    fn close_host_step(&mut self, cctx: StepCoalescer<'_, HostMsg<F, T>>, urgent: bool) {
        self.sync_step();
        self.deferral.close(cctx, urgent);
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
    /// crashed replica would drop it. Returns whether a strong operation
    /// waits on the step.
    fn dispatch(
        &mut self,
        from: ReplicaId,
        msg: HostMsg<F, T>,
        cctx: &mut StepCoalescer<'_, HostMsg<F, T>>,
        touched: &mut Vec<GroupId>,
    ) -> bool {
        match msg {
            GroupedMsg::One(gid, m) => {
                if !self.serves(gid) {
                    return false;
                }
                if !touched.contains(&gid) {
                    touched.push(gid);
                }
                self.in_group(gid, cctx, |g, gctx| g.receive(from, m, gctx))
            }
            GroupedMsg::Batch(msgs) => msgs.into_iter().fold(false, |urgent, m| {
                self.dispatch(from, m, cctx, touched) | urgent
            }),
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
        self.close_host_step(cctx, false);
    }

    fn on_input(&mut self, (gid, inv): Self::Input, ctx: &mut dyn Context<Self::Msg>) {
        if !self.serves(gid) {
            return;
        }
        let mut cctx = self.host_step(ctx);
        let urgent = self.in_group(gid, &mut cctx, |g, gctx| g.invoke(inv, gctx));
        self.close_host_step(cctx, urgent);
    }

    fn on_message(&mut self, from: ReplicaId, msg: Self::Msg, ctx: &mut dyn Context<Self::Msg>) {
        let mut cctx = self.host_step(ctx);
        let mut touched = std::mem::take(&mut self.touched);
        let urgent = self.dispatch(from, msg, &mut cctx, &mut touched);
        // every group the frame reached commits its share as one batch
        for gid in touched.drain(..) {
            self.in_group(gid, &mut cctx, |g, gctx| g.settle(gctx));
        }
        self.touched = touched;
        self.close_host_step(cctx, urgent);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Self::Msg>) {
        if self.deferral.owns_timer(timer) {
            // the host's own flush deadline expired with every group
            // idle: flush the parked frames of all groups now (not
            // through close_host_step, which would re-park them)
            let cctx = self.host_step(ctx);
            self.sync_step();
            self.deferral.flush(cctx);
            return;
        }
        let Some(gid) = self.timer_owner.remove(&timer) else {
            return; // a timer of a rebuilt or unknown owner: drop
        };
        if !self.serves(gid) {
            return;
        }
        let mut cctx = self.host_step(ctx);
        self.in_group(gid, &mut cctx, |g, gctx| g.on_timer(timer, gctx));
        self.close_host_step(cctx, false);
    }

    fn on_internal(&mut self, ctx: &mut dyn Context<Self::Msg>) -> bool {
        // one shared step loop: internal (rollback/execute) steps are
        // served round-robin across groups, so a group with a deep
        // redo queue cannot starve the others
        let (n, first) = (self.groups.len(), self.rr_cursor);
        let stepped = (0..n)
            .map(|k| (first + k) % n)
            .find(|&i| !self.muted[i] && self.groups[i].step());
        let cctx = self.host_step(ctx);
        match stepped {
            Some(i) => {
                self.rr_cursor = (i + 1) % n;
                self.close_host_step(cctx, false);
                true
            }
            None => {
                // a passive poll must be side-effect free: the runtime
                // refunds it and discards anything it buffered
                self.deferral.put_back(cctx);
                false
            }
        }
    }

    fn drain_outputs(&mut self) -> Vec<(GroupId, Response)> {
        let mut out = Vec::new();
        for (gid, group) in GroupId::all(self.groups.len()).zip(&mut self.groups) {
            out.extend(group.drain_outputs().into_iter().map(|r| (gid, r)));
        }
        out
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
        // the store is shared: one group's persistence failure (or the
        // shared barrier's) is a whole-process crash-stop
        self.barrier.as_ref().is_some_and(|hb| hb.failed.is_some())
            || self.groups.iter().any(|g| g.failure().is_some())
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
        fn log_invoke(&mut self, _: &SharedReq<CounterOp>, _: u64) -> Result<(), StorageError> {
            Ok(())
        }
        fn log_tentative(&mut self, _: &SharedReq<CounterOp>, _: u64) -> Result<(), StorageError> {
            Ok(())
        }
        fn log_tob_events(
            &mut self,
            _: Vec<bayou_broadcast::TobEvent<SharedReq<CounterOp>>>,
        ) -> Result<(), StorageError> {
            Ok(())
        }
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
    /// or many parked sender steps for one group — each group it reaches
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

        // four parked sender steps for one group, carried by one frame
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
