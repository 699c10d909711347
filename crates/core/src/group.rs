//! Addressable replication groups: N independent Bayou instances
//! multiplexed in one process.
//!
//! The paper's protocol gives one replication group one total order,
//! which caps committed throughput at a single leader's commit
//! pipeline. [`GroupedReplica`] lifts the one-replica-per-process
//! assumption: a host owns N [`BayouReplica`] instances — one per
//! [`GroupId`] — and multiplexes them behind a single [`Process`]
//! endpoint, so the runtimes (`bayou-sim`, `bayou-net`) route by
//! `(replica, group)` without multiplying OS threads or sim processes.
//! Groups never exchange protocol state; a keyspace partition above
//! them (the server's `ShardRouter`) guarantees no request crosses a
//! group boundary.
//!
//! What the groups *share* is exactly the per-process resources:
//!
//! - **one handler-step loop** — every inner handler runs inside the
//!   host's step; internal (`rollback`/`execute`) steps are served
//!   round-robin across groups;
//! - **one WAL group-commit barrier** — per-group stores write through
//!   one shared backend ([`bayou_storage::SharedBackend`], namespaced by
//!   [`bayou_storage::Prefixed`]) and funnel their deferred record syncs
//!   into one [`SyncBarrier`] the host settles with a *single* physical
//!   fsync per step, before any frame leaves (the write-ahead contract
//!   is unchanged: an inner step's "sends" only ever reach the host's
//!   buffers);
//! - **one flush-deferral budget** — the host runs the cross-step
//!   park/flush state machine ([`StepDeferral`]) over its own step-end
//!   coalescer, whose per-peer buffers hold frames from *all* groups, so
//!   frames for different groups headed to the same peer merge into one
//!   link frame.
//!
//! [`recover_grouped_paxos`] is the durable factory ([`GroupId`]-sharded
//! twin of [`crate::recover_paxos_replica`]): one physical store, N
//! namespaced recoveries. [`GroupedCluster`] wires hosts over the
//! simulator for tests and benches.

use crate::api::{Invocation, Response};
use crate::harness::assert_converged;
use crate::persist::recover_paxos_replica_on;
use crate::replica::{BayouMsg, BayouReplica, ProtocolMode};
use bayou_broadcast::{FrameMeter, PaxosConfig, PaxosTob, StepCoalescer, StepDeferral, Tob};
use bayou_data::{DataType, DeltaState, StateObject};
use bayou_sim::{OutputRecord, Sim, SimConfig};
use bayou_storage::{Prefixed, SharedBackend, Storage, StorageError, StoreConfig, SyncBarrier};
use bayou_types::{
    Context, GroupId, Level, Process, ReplicaId, SharedReq, TimerId, Timestamp, VirtualTime, Wire,
    WireError, WireReader,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The inner wire enum of one group's replica.
type InnerMsg<F, T> = BayouMsg<
    <F as DataType>::Op,
    <F as DataType>::State,
    <T as Tob<SharedReq<<F as DataType>::Op>>>::Msg,
>;

/// The host's wire enum: a group-tagged inner frame, or a step-end
/// frame coalescing several of them (possibly for *different* groups)
/// to the same peer.
type HostMsg<F, T> = GroupedMsg<InnerMsg<F, T>>;

/// A group-addressed wire message.
///
/// `One` tags an inner protocol frame with its destination group;
/// `Batch` is the host-level step-end frame — the per-peer coalescing
/// of everything the host's groups sent in one step, which is what lets
/// frames for different groups share one link frame.
#[derive(Debug, Clone)]
pub enum GroupedMsg<M> {
    /// One inner frame, addressed to `GroupId` at the receiving host.
    One(GroupId, M),
    /// A host step-end frame: several group-tagged frames to one peer.
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
        // the plain single-group oracle, so groups=1 is unchanged)
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

/// N addressable [`BayouReplica`] instances multiplexed behind one
/// [`Process`] endpoint. See the module docs for what is shared (step
/// loop, fsync barrier, flush-deferral budget, link frames) and what is
/// not (total orders, WALs, compaction watermarks).
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
    /// from all groups, merged per destination — under the single
    /// cross-step flush-deferral budget shared by all groups (inner
    /// replicas have their own deferral disabled by the host).
    deferral: StepDeferral<HostMsg<F, T>>,
    barrier: Option<HostBarrier>,
    /// Muted groups: the host drops their messages, inputs and timers —
    /// a *group-scoped* crash on this replica (isolation tests).
    muted: Vec<bool>,
    /// Round-robin cursor for internal (`rollback`/`execute`) steps.
    rr_cursor: usize,
    wire_meter: Option<FrameMeter<HostMsg<F, T>>>,
}

impl<F, T, S> GroupedReplica<F, T, S>
where
    F: DataType,
    T: Tob<SharedReq<F::Op>>,
    S: StateObject<F>,
{
    /// Builds a host over `groups` (one inner replica per [`GroupId`],
    /// in index order). The host takes over the cross-step
    /// flush-deferral budget: it adopts group 0's budget and disables
    /// deferral inside every group, so all groups share one budget and
    /// one deadline.
    ///
    /// # Panics
    ///
    /// Panics if `groups` is empty.
    pub fn new(mut groups: Vec<BayouReplica<F, T, S>>) -> Self {
        assert!(!groups.is_empty(), "a grouped replica hosts >= 1 group");
        let flush_deferral = groups[0].flush_deferral();
        for g in &mut groups {
            // the host owns the (single) deferral budget; inner step
            // frames flush into the host's buffers every inner step
            g.set_flush_deferral(None);
        }
        let muted = vec![false; groups.len()];
        GroupedReplica {
            groups,
            timer_owner: HashMap::new(),
            deferral: StepDeferral::new(flush_deferral),
            barrier: None,
            muted,
            rr_cursor: 0,
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

    /// Iterates over `(group, replica)` pairs in group order.
    pub fn groups(&self) -> impl Iterator<Item = (GroupId, &BayouReplica<F, T, S>)> {
        self.groups
            .iter()
            .enumerate()
            .map(|(i, g)| (GroupId::new(i as u32), g))
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

    /// Whether `gid` is currently muted on this host.
    pub fn group_muted(&self, gid: GroupId) -> bool {
        self.muted.get(gid.index()).copied().unwrap_or(false)
    }

    /// Routes every group's deferred group-commit sync debt through
    /// `barrier`, settled by `sync` (one physical fsync of the shared
    /// backend) at each host step end. Installed by
    /// [`recover_grouped_paxos`]; a sync failure crash-stops the whole
    /// host, since the store is shared.
    pub fn set_sync_barrier(
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
    pub fn set_lease(&mut self, lease: Option<bayou_types::LeaseConfig>) {
        for g in &mut self.groups {
            g.set_lease(lease);
        }
    }

    /// Sets (or clears) the host's single cross-step flush-deferral
    /// budget. Inner deferral stays off — the host parks for everyone.
    pub fn set_flush_deferral(&mut self, delay: Option<VirtualTime>) {
        self.deferral.set_budget(delay);
    }

    /// The host's cross-step flush-deferral budget, if any.
    pub fn flush_deferral(&self) -> Option<VirtualTime> {
        self.deferral.budget()
    }

    /// Enables wire-bytes metering of the host's outgoing frames under
    /// the group-tagged codec (see [`BayouReplica::meter_wire_bytes`];
    /// inner meters stay off — every frame leaves through the host).
    pub fn meter_wire_bytes(&mut self)
    where
        F::Op: Wire,
        F::State: Wire,
        T::Msg: Wire,
    {
        self.wire_meter = Some(FrameMeter::wire());
    }

    /// The barrier failure that crash-stopped this host, if any.
    pub fn barrier_failure(&self) -> Option<&StorageError> {
        self.barrier.as_ref().and_then(|b| b.failed.as_ref())
    }

    /// Opens the host-level step-end coalescer for one handler step.
    /// Every inner send of the step lands here (group-tagged — frames of
    /// different groups to one peer merge into one
    /// [`GroupedMsg::Batch`] link frame); the caller must run
    /// [`GroupedReplica::close_host_step`] on it.
    fn host_step<'a>(
        &mut self,
        ctx: &'a mut dyn Context<HostMsg<F, T>>,
    ) -> StepCoalescer<'a, HostMsg<F, T>> {
        self.deferral
            .open(ctx, GroupedMsg::Batch, self.wire_meter.clone())
    }

    /// Settles the shared WAL barrier: if any group dirtied the shared
    /// log this step, one physical fsync covers them all. Runs before
    /// any frame leaves the host (write-ahead: inner "sends" only ever
    /// reached the host's buffers), mirroring the inner replicas'
    /// `sync_step`-before-flush contract. A failure latches — the host
    /// crash-stops and the runtime discards the step's output.
    fn settle_barrier(&mut self) {
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

    /// Closes one host step: settle the shared fsync barrier first, then
    /// run the cross-step deferral over the coalesced frames — once for
    /// all groups.
    fn close_host_step(&mut self, cctx: StepCoalescer<'_, HostMsg<F, T>>) {
        self.settle_barrier();
        self.deferral.close(cctx);
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

    /// Unwraps one incoming host frame (recursing into host step-end
    /// batches) and hands each group-tagged inner frame to its group —
    /// unless the group is muted or out of range, in which case the
    /// frame is dropped exactly as a crashed replica would drop it.
    fn dispatch(
        &mut self,
        from: ReplicaId,
        msg: HostMsg<F, T>,
        cctx: &mut StepCoalescer<'_, HostMsg<F, T>>,
    ) {
        match msg {
            GroupedMsg::One(gid, m) => {
                if self.serves(gid) {
                    self.in_group(gid, cctx, |g, gctx| g.on_message(from, m, gctx));
                }
            }
            GroupedMsg::Batch(msgs) => {
                for m in msgs {
                    self.dispatch(from, m, cctx);
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
            self.in_group(gid, &mut cctx, |g, gctx| g.on_start(gctx));
        }
        self.close_host_step(cctx);
    }

    fn on_input(&mut self, (gid, inv): Self::Input, ctx: &mut dyn Context<Self::Msg>) {
        if !self.serves(gid) {
            return;
        }
        let mut cctx = self.host_step(ctx);
        self.in_group(gid, &mut cctx, |g, gctx| g.on_input(inv, gctx));
        self.close_host_step(cctx);
    }

    fn on_message(&mut self, from: ReplicaId, msg: Self::Msg, ctx: &mut dyn Context<Self::Msg>) {
        let mut cctx = self.host_step(ctx);
        self.dispatch(from, msg, &mut cctx);
        self.close_host_step(cctx);
    }

    fn on_timer(&mut self, timer: TimerId, ctx: &mut dyn Context<Self::Msg>) {
        if self.deferral.owns_timer(timer) {
            // the host's own flush deadline expired with every group
            // idle: flush the parked frames of all groups now (not
            // through close_host_step, which would re-park them)
            let cctx = self.host_step(ctx);
            self.settle_barrier();
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
        self.close_host_step(cctx);
    }

    fn on_internal(&mut self, ctx: &mut dyn Context<Self::Msg>) -> bool {
        // one shared step loop: internal (rollback/execute) steps are
        // served round-robin across groups, so a group with a deep
        // redo queue cannot starve the others
        let n = self.groups.len();
        let mut cctx = self.host_step(ctx);
        let mut stepped = false;
        for k in 0..n {
            let gid = GroupId::new(((self.rr_cursor + k) % n) as u32);
            if self.serves(gid) && self.in_group(gid, &mut cctx, |g, gctx| g.on_internal(gctx)) {
                self.rr_cursor = (gid.index() + 1) % n;
                stepped = true;
                break;
            }
        }
        if stepped {
            self.close_host_step(cctx);
        } else {
            // a passive poll must be side-effect free: the runtime
            // refunds it and discards anything it buffered
            self.deferral.put_back(cctx);
        }
        stepped
    }

    fn drain_outputs(&mut self) -> Vec<(GroupId, Response)> {
        let mut out = Vec::new();
        for (i, group) in self.groups.iter_mut().enumerate() {
            let gid = GroupId::new(i as u32);
            out.extend(group.drain_outputs().into_iter().map(|r| (gid, r)));
        }
        out
    }

    fn take_storage_stall(&mut self) -> VirtualTime {
        // the per-group stores share one backend whose stall counter is
        // drained destructively, so the per-group drains sum correctly
        self.groups
            .iter_mut()
            .fold(VirtualTime::ZERO, |acc, g| acc + g.take_storage_stall())
    }

    fn take_wire_bytes(&mut self) -> u64 {
        let host = self.wire_meter.as_ref().map_or(0, FrameMeter::take_bytes);
        host + self
            .groups
            .iter_mut()
            .map(Process::take_wire_bytes)
            .sum::<u64>()
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
                .map(Process::take_fsyncs)
                .sum::<u64>()
    }

    fn has_failed(&self) -> bool {
        // the store is shared: one group's persistence failure (or the
        // shared barrier's) is a whole-process crash-stop
        self.barrier.as_ref().is_some_and(|hb| hb.failed.is_some())
            || self.groups.iter().any(Process::has_failed)
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

/// Opens one shared `backend` and recovers `groups` Bayou instances
/// from it — the durable factory of a sharded process. Each group's
/// WAL segments, snapshots and manifest live under its own `g{index}-`
/// prefix inside the one store ([`Prefixed`]); all groups' deferred
/// group-commit syncs funnel into one [`SyncBarrier`] the returned host
/// settles with a single physical fsync per step.
///
/// On an empty store this degenerates to `groups` fresh replicas, which
/// makes it usable as a runtime *factory*: the same closure builds the
/// initial host and, over the same backend handle, its post-crash
/// successor with every group restored.
///
/// # Panics
///
/// Panics if any group's store cannot be opened or fails validation.
pub fn recover_grouped_paxos<F, S, B>(
    me: ReplicaId,
    n: usize,
    groups: usize,
    mode: ProtocolMode,
    paxos: PaxosConfig,
    backend: B,
    store_cfg: StoreConfig,
) -> GroupedReplica<F, PaxosTob<SharedReq<F::Op>>, S>
where
    F: DataType,
    F::Op: Wire,
    F::State: Wire,
    S: StateObject<F>,
    B: Storage + Send + 'static,
{
    let shared = SharedBackend::new(backend);
    let barrier = Arc::new(SyncBarrier::new());
    let replicas = GroupId::all(groups)
        .map(|gid| {
            recover_paxos_replica_on(
                me,
                n,
                mode,
                paxos,
                Prefixed::new(shared.clone(), gid),
                store_cfg,
                Some(barrier.clone()),
            )
        })
        .collect();
    let mut host = GroupedReplica::new(replicas);
    let mut sync_handle = shared;
    host.set_sync_barrier(barrier, move || sync_handle.sync());
    host
}

/// The grouped host type [`GroupedCluster`] simulates: Paxos groups
/// over the shared request codec.
type GroupedPaxosHost<F, S> = GroupedReplica<F, PaxosTob<SharedReq<<F as DataType>::Op>>, S>;

/// `n` grouped hosts wired over the simulator: the multi-group twin of
/// [`crate::BayouCluster`], routing invocations and assertions by
/// `(replica, group)`.
pub struct GroupedCluster<F, S = DeltaState<F>>
where
    F: DataType,
    S: StateObject<F>,
{
    sim: Sim<GroupedPaxosHost<F, S>>,
    n: usize,
    groups: usize,
    responses: Vec<OutputRecord<(GroupId, Response)>>,
    quiescent: bool,
}

impl<F, S> GroupedCluster<F, S>
where
    F: DataType,
    S: StateObject<F> + Default,
{
    /// Creates a cluster of fresh (non-durable) hosts: `groups`
    /// independent Bayou instances on each of `sim_config.n` replicas.
    pub fn new(sim_config: SimConfig, groups: usize, mode: ProtocolMode) -> Self {
        let n = sim_config.n;
        Self::with_factory(sim_config, groups, move |_| {
            let replicas = (0..groups)
                .map(|_| BayouReplica::new(n, mode, PaxosTob::new(n, PaxosConfig::default())))
                .collect();
            GroupedReplica::new(replicas)
        })
    }

    /// Creates a cluster from an arbitrary host factory. The factory is
    /// retained for scheduled restarts ([`SimConfig::with_restart`]) —
    /// build hosts with [`recover_grouped_paxos`] over a shared disk
    /// handle to express multi-group crash-recovery schedules.
    pub fn with_factory(
        sim_config: SimConfig,
        groups: usize,
        make: impl FnMut(ReplicaId) -> GroupedReplica<F, PaxosTob<SharedReq<F::Op>>, S> + 'static,
    ) -> Self {
        let n = sim_config.n;
        GroupedCluster {
            sim: Sim::new(sim_config, make),
            n,
            groups,
            responses: Vec::new(),
            quiescent: false,
        }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the cluster is empty (never true; clusters have ≥ 1
    /// replica).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of groups per replica.
    pub fn group_count(&self) -> usize {
        self.groups
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.sim.now()
    }

    /// Simulator metrics (messages, fsyncs, wire bytes — host-wide).
    pub fn metrics(&self) -> &bayou_sim::Metrics {
        self.sim.metrics()
    }

    /// Read access to one host.
    pub fn host(&self, r: ReplicaId) -> &GroupedReplica<F, PaxosTob<SharedReq<F::Op>>, S> {
        self.sim.process(r)
    }

    /// Read access to one group's replica on one host.
    pub fn replica(
        &self,
        r: ReplicaId,
        gid: GroupId,
    ) -> &BayouReplica<F, PaxosTob<SharedReq<F::Op>>, S> {
        self.host(r).group(gid)
    }

    /// Schedules an open-loop invocation addressed to `(replica, group)`.
    pub fn invoke_at(
        &mut self,
        at: VirtualTime,
        replica: ReplicaId,
        gid: GroupId,
        op: F::Op,
        level: Level,
    ) {
        self.sim
            .schedule_input(at, replica, (gid, Invocation::new(op, level)));
    }

    /// Schedules a fully-formed invocation (tags, session guards)
    /// addressed to `(replica, group)` — the grouped twin of
    /// [`crate::BayouCluster::schedule_at`].
    pub fn schedule_at(
        &mut self,
        at: VirtualTime,
        replica: ReplicaId,
        gid: GroupId,
        inv: Invocation<F::Op>,
    ) {
        self.sim.schedule_input(at, replica, (gid, inv));
    }

    /// Mutes (or unmutes) `gid` on `replica` — a `(replica, group)`
    /// scoped crash. The simulator has no scheduled control inputs, so
    /// this applies immediately, between runs.
    pub fn mute(&mut self, replica: ReplicaId, gid: GroupId, muted: bool) {
        self.sim.process_mut(replica).mute_group(gid, muted);
    }

    /// Runs until the deadline (or quiescence/limits), accumulating
    /// responses; returns how many responses have arrived in total.
    pub fn run_until(&mut self, deadline: VirtualTime) -> usize {
        let report = self.sim.run_until(deadline);
        self.responses.extend(report.outputs);
        self.quiescent = report.quiescent;
        self.responses.len()
    }

    /// Whether the last [`GroupedCluster::run_until`] ended in
    /// quiescence (no pending events before the deadline).
    pub fn quiescent(&self) -> bool {
        self.quiescent
    }

    /// Whether `r` is currently dead: crashed by the fault schedule, or
    /// crash-stopped by a persistence failure in any group (the store is
    /// shared, so one group's failure takes the whole host down).
    pub fn is_down(&self, r: ReplicaId) -> bool {
        self.sim.is_crashed(r) || self.host(r).has_failed()
    }

    /// All responses recorded so far, with time, replica and group.
    pub fn responses(&self) -> &[OutputRecord<(GroupId, Response)>] {
        &self.responses
    }

    /// Per-replica committed totals of one group, in replica order.
    pub fn committed_totals(&self, gid: GroupId) -> Vec<u64> {
        ReplicaId::all(self.n)
            .map(|r| self.replica(r, gid).committed_total())
            .collect()
    }

    /// Asserts that every replica of group `gid` (minus `skip`) has
    /// converged: equal committed totals and orders over the retained
    /// overlap, empty tentative lists, identical materialized states.
    ///
    /// # Panics
    ///
    /// Panics (with a diagnostic) if any two checked replicas disagree.
    pub fn assert_group_convergence(&self, gid: GroupId, skip: &[ReplicaId]) {
        let checked: Vec<_> = ReplicaId::all(self.n)
            .filter(|r| !skip.contains(r))
            .map(|r| (r, self.replica(r, gid)))
            .collect();
        assert_converged(&format!("group {gid}: "), &checked);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayou_data::{KvOp, KvStore};

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

    #[test]
    fn two_groups_commit_independently_in_sim() {
        let sim = SimConfig::new(3, 11).with_max_time(VirtualTime::from_secs(30));
        let mut c: GroupedCluster<KvStore> = GroupedCluster::new(sim, 2, ProtocolMode::Improved);
        let ms = VirtualTime::from_millis;
        c.invoke_at(
            ms(1),
            ReplicaId::new(0),
            GroupId::new(0),
            KvOp::put("a", 1),
            Level::Weak,
        );
        c.invoke_at(
            ms(2),
            ReplicaId::new(1),
            GroupId::new(1),
            KvOp::put("b", 2),
            Level::Weak,
        );
        c.invoke_at(
            ms(3),
            ReplicaId::new(2),
            GroupId::new(0),
            KvOp::put("c", 3),
            Level::Weak,
        );
        c.run_until(VirtualTime::from_secs(30));
        for gid in GroupId::all(2) {
            c.assert_group_convergence(gid, &[]);
        }
        assert_eq!(c.committed_totals(GroupId::new(0)), vec![2, 2, 2]);
        assert_eq!(c.committed_totals(GroupId::new(1)), vec![1, 1, 1]);
        // keyspaces never mix
        let g0 = c.replica(ReplicaId::new(0), GroupId::new(0)).materialize();
        assert_eq!(g0.get("a"), Some(&1));
        assert_eq!(g0.get("b"), None);
    }
}
