//! The cluster harness: `n` Bayou processes in the simulator, with
//! open-loop and closed-loop clients and history recording.

use crate::api::{EventRecord, Invocation, Response, RunTrace};
use crate::group::GroupedReplica;
use crate::replica::{BayouReplica, ProtocolMode};
use bayou_broadcast::{PaxosConfig, PaxosTob, Tob};
use bayou_data::{DataType, DeltaState, StateObject};
use bayou_sim::{OutputRecord, Sim, SimConfig};
use bayou_types::{GroupId, LeaseConfig, Level, Process, ReplicaId, ReqId, SharedReq, VirtualTime};
use std::collections::{HashMap, HashSet};

/// Configuration of a simulated Bayou cluster.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// The underlying simulator configuration (network, clocks, CPUs,
    /// stability, crashes, limits).
    pub sim: SimConfig,
    /// Protocol variant (Algorithm 1 or Algorithm 2).
    pub mode: ProtocolMode,
    /// Tuning of the default Paxos TOB.
    pub paxos: PaxosConfig,
    /// Leader-lease configuration ([`BayouReplica::set_lease`]): with a
    /// config the lane leader serves strong reads locally while its
    /// quorum-confirmed lease window holds. `None` (the default) is the
    /// all-TOB baseline, bit-for-bit.
    pub lease: Option<LeaseConfig>,
}

impl ClusterConfig {
    /// A default configuration: `n` replicas, improved protocol, stable
    /// run, ~1 ms network.
    pub fn new(n: usize, seed: u64) -> Self {
        ClusterConfig {
            sim: SimConfig::new(n, seed),
            mode: ProtocolMode::default(),
            paxos: PaxosConfig::default(),
            lease: None,
        }
    }

    /// Sets the protocol mode (builder style).
    pub fn with_mode(mut self, mode: ProtocolMode) -> Self {
        self.mode = mode;
        self
    }

    /// Replaces the simulator configuration (builder style).
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Enables leader leases on every replica (builder style).
    pub fn with_lease(mut self, lease: LeaseConfig) -> Self {
        self.lease = Some(lease);
        self
    }
}

/// A closed-loop client session bound to one replica: each step is
/// invoked only after the previous step's response arrived (plus a think
/// time), which keeps the recorded history well-formed (sequential
/// sessions, as the paper requires).
#[derive(Debug, Clone)]
pub struct SessionScript<Op> {
    /// The replica this session talks to.
    pub replica: ReplicaId,
    /// The operations to invoke, in order.
    pub steps: Vec<Invocation<Op>>,
    /// Pause between a response and the next invocation.
    pub think_time: VirtualTime,
    /// When to issue the first invocation.
    pub start_at: VirtualTime,
}

impl<Op> SessionScript<Op> {
    /// Creates a session with 1 ms think time starting at 1 ms.
    pub fn new(replica: ReplicaId, steps: Vec<Invocation<Op>>) -> Self {
        SessionScript {
            replica,
            steps,
            think_time: VirtualTime::from_millis(1),
            start_at: VirtualTime::from_millis(1),
        }
    }
}

/// `n` Bayou processes ([`GroupedReplica`] hosts, the process the
/// server runs) wired over the simulator with the chosen TOB and state
/// object: one replication group per host by default, N on request
/// ([`BayouCluster::grouped`], or a factory building N-group hosts).
///
/// The cluster is also the run's recorder. The replicas keep no history
/// — it is a record kept for checking, not replica state — so after
/// every step the cluster notes the invocation the step handled (the
/// input it delivered, with the record the replica left), each group's
/// committed order as far as the step extended it, and the responses,
/// whose exec traces it resolves against that order.
///
/// The single-group surface — [`BayouCluster::invoke_at`],
/// [`BayouCluster::replica`], the [`RunTrace`] returned by the runs —
/// addresses group 0; [`BayouCluster::schedule_in`],
/// [`BayouCluster::host`], [`BayouCluster::committed_totals`] and
/// [`BayouCluster::assert_group_convergence`] take a group.
///
/// See the crate-level example.
pub struct BayouCluster<F, T = PaxosTob<SharedReq<<F as DataType>::Op>>, S = DeltaState<F>>
where
    F: DataType,
    T: Tob<SharedReq<F::Op>>,
    S: StateObject<F> + Default,
{
    sim: Sim<GroupedReplica<F, T, S>>,
    n: usize,
    /// Per host, the invocations of its current incarnation, in order:
    /// the group each went to and its record (responses are matched in
    /// when a trace is built).
    invocations: Vec<Vec<(GroupId, EventRecord<F::Op>)>>,
    /// Per group, every request committed so far in TOB order.
    committed: Vec<Recorded>,
    responses: Vec<OutputRecord<(GroupId, Response)>>,
    quiescent: bool,
    /// Whether the schedule restarts replicas: a rebuilt replica's
    /// invocation records are dropped with it, so pre-crash responses
    /// legitimately have no event record. Without restarts an unmatched
    /// response is a protocol bug and trace building asserts on it.
    has_restarts: bool,
}

impl<F, S> BayouCluster<F, PaxosTob<SharedReq<F::Op>>, S>
where
    F: DataType,
    S: StateObject<F> + Default,
{
    /// Creates a cluster of one-group hosts with the default (Paxos)
    /// TOB, every process configured from `config`.
    pub fn new(config: ClusterConfig) -> Self {
        let ClusterConfig {
            sim,
            mode,
            paxos,
            lease,
        } = config;
        let n = sim.n;
        Self::with_factory(sim, move |_| {
            let mut host =
                GroupedReplica::new(vec![BayouReplica::new(n, mode, PaxosTob::new(n, paxos))]);
            host.set_lease(lease);
            host
        })
    }

    /// Creates a cluster of fresh (non-durable) hosts running `groups`
    /// independent Bayou instances each, with default settings.
    pub fn grouped(sim_config: SimConfig, groups: usize, mode: ProtocolMode) -> Self {
        let n = sim_config.n;
        Self::with_factory(sim_config, move |_| {
            GroupedReplica::new(
                (0..groups)
                    .map(|_| BayouReplica::new(n, mode, PaxosTob::new(n, PaxosConfig::default())))
                    .collect(),
            )
        })
    }
}

impl<F, T, S> BayouCluster<F, T, S>
where
    F: DataType,
    T: Tob<SharedReq<F::Op>>,
    S: StateObject<F> + Default,
{
    /// Creates a cluster of one-group hosts with a custom TOB per
    /// replica (e.g. [`crate::NullTob`] for the eventual-only baseline,
    /// or `SequencerTob` for the A2 ablation).
    pub fn with_tob(
        sim_config: SimConfig,
        mode: ProtocolMode,
        mut make_tob: impl FnMut(ReplicaId) -> T + 'static,
    ) -> Self {
        let n = sim_config.n;
        Self::with_factory(sim_config, move |id| {
            GroupedReplica::new(vec![BayouReplica::new(n, mode, make_tob(id))])
        })
    }

    /// Creates a cluster from an arbitrary host factory. Every host must
    /// run the same number of groups.
    ///
    /// The factory is retained by the simulator: a scheduled restart
    /// ([`SimConfig::with_restart`]) re-invokes it for the bounced
    /// replica, which is how crash-recovery schedules are expressed —
    /// build the host with [`crate::recover_paxos_replica`] (or
    /// [`crate::recover_grouped_paxos`]) over a
    /// [`bayou_storage::MemDisk`] handle and the same factory produces
    /// the fresh host at start and its recovered successor after a
    /// crash.
    pub fn with_factory(
        sim_config: SimConfig,
        make: impl FnMut(ReplicaId) -> GroupedReplica<F, T, S> + 'static,
    ) -> Self {
        let n = sim_config.n;
        let has_restarts = !sim_config.restarts.is_empty();
        let sim = Sim::new(sim_config, make);
        let groups = sim.process(ReplicaId::new(0)).group_count();
        let committed = GroupId::all(groups)
            .map(|gid| Recorded::recovered(ReplicaId::all(n).map(|r| sim.process(r).group(gid))))
            .collect();
        BayouCluster {
            sim,
            n,
            invocations: vec![Vec::new(); n],
            committed,
            responses: Vec::new(),
            quiescent: false,
            has_restarts,
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

    /// Number of groups per host.
    pub fn group_count(&self) -> usize {
        self.host(ReplicaId::new(0)).group_count()
    }

    /// Read access to one host (the process of replica `r`).
    pub fn host(&self, r: ReplicaId) -> &GroupedReplica<F, T, S> {
        self.sim.process(r)
    }

    /// Read access to replica `r` of group 0.
    pub fn replica(&self, r: ReplicaId) -> &BayouReplica<F, T, S> {
        self.host(r).group(GroupId::new(0))
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.sim.now()
    }

    /// The per-replica CPU backlog (for the §2.3 experiment).
    pub fn backlog(&self, r: ReplicaId) -> VirtualTime {
        self.sim.backlog(r)
    }

    /// Simulator metrics.
    pub fn metrics(&self) -> &bayou_sim::Metrics {
        self.sim.metrics()
    }

    /// Whether `r` is currently dead: crashed by the fault schedule, or
    /// crash-stopped by a persistence failure in any group (the store is
    /// shared, so one group's failure takes the whole host down).
    pub fn is_down(&self, r: ReplicaId) -> bool {
        self.sim.is_crashed(r) || self.host(r).has_failed()
    }

    /// Per-replica committed totals of group `gid` (compacted prefix +
    /// retained list), in replica order. The cluster-wide maximum can
    /// only grow while a quorum of replicas is alive and connected —
    /// quorum-loss tests snapshot this before and after a loss window to
    /// assert that no new commit was decided inside it.
    pub fn committed_totals(&self, gid: GroupId) -> Vec<u64> {
        ReplicaId::all(self.n)
            .map(|r| self.host(r).group(gid).committed_total())
            .collect()
    }

    /// Schedules an open-loop invocation at group 0.
    pub fn invoke_at(&mut self, at: VirtualTime, replica: ReplicaId, op: F::Op, level: Level) {
        self.schedule_at(at, replica, Invocation::new(op, level));
    }

    /// Schedules a fully-formed invocation (tags, session guards) at
    /// group 0.
    pub fn schedule_at(&mut self, at: VirtualTime, replica: ReplicaId, inv: Invocation<F::Op>) {
        self.schedule_in(at, replica, GroupId::new(0), inv);
    }

    /// Schedules a fully-formed invocation addressed to `(replica,
    /// group)`.
    pub fn schedule_in(
        &mut self,
        at: VirtualTime,
        replica: ReplicaId,
        gid: GroupId,
        inv: Invocation<F::Op>,
    ) {
        self.sim.schedule_input(at, replica, (gid, inv));
    }

    /// Mutes (or unmutes) `gid` on `replica` — a `(replica, group)`
    /// scoped crash ([`GroupedReplica::mute_group`]). The simulator has
    /// no scheduled control inputs, so this applies immediately, between
    /// runs.
    pub fn mute(&mut self, replica: ReplicaId, gid: GroupId, muted: bool) {
        self.sim.process_mut(replica).mute_group(gid, muted);
    }

    /// Runs until quiescence or the configured limits; returns the
    /// recorded trace of group 0.
    pub fn run(&mut self) -> RunTrace<F::Op> {
        self.run_until(VirtualTime::MAX)
    }

    /// Runs until the deadline (or quiescence/limits) and records;
    /// returns the trace of group 0.
    pub fn run_until(&mut self, deadline: VirtualTime) -> RunTrace<F::Op> {
        self.quiescent = loop {
            match self.step_until(deadline) {
                Some(true) => {}
                Some(false) => break false,
                None => break true,
            }
        };
        self.trace(GroupId::new(0))
    }

    /// Dispatches one simulator event due by `deadline` and records what
    /// it did ([`Sim::step_until`] gives the meaning of the result). Lets
    /// a test look at the cluster between any two steps.
    pub fn step_until(&mut self, deadline: VirtualTime) -> Option<bool> {
        // the step consumes its input: keep the operation for the record
        let next = self
            .sim
            .peek_next()
            .map(|(r, input)| (r, input.map(|(gid, inv)| (*gid, inv.op.clone()))));
        let restarts = self.sim.metrics().restarts;
        let stepped = self.sim.step_until(deadline);
        if let (Some(true), Some((r, input))) = (stepped, next) {
            if self.sim.metrics().restarts > restarts {
                // a rebuilt host's invocation records go with it
                self.invocations[r.index()].clear();
            }
            self.record_step(r, input);
        }
        stepped
    }

    /// Records the step host `r` just ran: the invocation it handled (if
    /// the step delivered one), the deliveries it added to each group's
    /// committed order, and its responses, whose exec traces resolve
    /// against that order.
    ///
    /// This is also where total order is checked: each group's last
    /// commit batch must equal the recorded order wherever the two
    /// overlap, so every delivery of every replica is compared once it
    /// happens — compaction may drop it from the replica right after.
    ///
    /// # Panics
    ///
    /// Panics if a batch disagrees with the recorded order, or starts
    /// beyond its end.
    fn record_step(&mut self, r: ReplicaId, input: Option<(GroupId, F::Op)>) {
        if let Some((gid, op)) = input {
            if let Some(inv) = self.sim.process_mut(r).take_invoked(gid) {
                let record = EventRecord::invoked(inv, op, r);
                self.invocations[r.index()].push((gid, record));
            }
        }
        // a step delivers only at its own host, and every position of the
        // order is delivered by some replica's commit batch first, so the
        // order grows without gaps
        let host = self.sim.process(r);
        let groups = GroupId::all(self.committed.len());
        for (gid, Recorded { base, order }) in groups.zip(&mut self.committed) {
            let base = *base;
            let (from, batch) = host.group(gid).last_commit();
            // positions below the base were committed before recording
            // began, by the cluster that wrote the recovered disks
            let batch = batch
                .get(base.saturating_sub(from) as usize..)
                .unwrap_or(&[]);
            let from = from.saturating_sub(base) as usize;
            assert!(
                from <= order.len(),
                "group {gid}: {r} committed position {from} beyond the recorded order \
                 ({} entries) — coverage gap",
                order.len()
            );
            let overlap = (order.len() - from).min(batch.len());
            assert_eq!(
                &order[from..from + overlap],
                &batch[..overlap],
                "group {gid}: TOB orders disagree at {r} — total order broken"
            );
            order.extend_from_slice(&batch[overlap..]);
        }
        for mut out in self.sim.take_outputs() {
            let (gid, response) = &mut out.output;
            let recorded = &self.committed[gid.index()];
            response.exec_trace.resolve(recorded.base, &recorded.order);
            self.responses.push(out);
        }
    }

    /// Whether the last run ended in quiescence (no pending events
    /// before the deadline).
    pub fn quiescent(&self) -> bool {
        self.quiescent
    }

    /// All responses recorded so far, with time, replica and group; every
    /// exec trace is resolved ([`crate::ExecTrace::ids`]).
    pub fn responses(&self) -> &[OutputRecord<(GroupId, Response)>] {
        &self.responses
    }

    /// Every request group `gid` committed so far, in TOB order, as the
    /// cluster recorded the deliveries step by step — the whole order,
    /// including what compaction dropped from every replica. Position
    /// `i` is the paper's `tobNo` `i`, counted from
    /// [`BayouCluster::committed_base`].
    pub fn committed_order(&self, gid: GroupId) -> &[ReqId] {
        &self.committed[gid.index()].order
    }

    /// The committed-order position [`BayouCluster::committed_order`]
    /// starts at: 0, unless the factory recovered the hosts from disks an
    /// earlier cluster wrote — then the lowest compaction floor among
    /// them, below which no host retains the order.
    pub fn committed_base(&self, gid: GroupId) -> u64 {
        self.committed[gid.index()].base
    }

    /// Runs closed-loop sessions to completion (or until the simulation
    /// limits stop progress) and returns the recorded trace.
    ///
    /// # Panics
    ///
    /// Panics if two sessions target the same replica — the paper's model
    /// has one session per replica.
    pub fn run_sessions(&mut self, scripts: Vec<SessionScript<F::Op>>) -> RunTrace<F::Op> {
        let mut cursors: HashMap<ReplicaId, (SessionScript<F::Op>, usize)> = HashMap::new();
        for s in scripts {
            assert!(
                !cursors.contains_key(&s.replica),
                "one session per replica: {} already has one",
                s.replica
            );
            if !s.steps.is_empty() {
                self.schedule_at(s.start_at, s.replica, s.steps[0].clone());
            }
            cursors.insert(s.replica, (s, 1));
        }
        loop {
            let seen = self.responses.len();
            if self.step_until(VirtualTime::MAX) != Some(true) {
                break;
            }
            for k in seen..self.responses.len() {
                let (replica, time) = (self.responses[k].replica, self.responses[k].time);
                if let Some((script, next)) = cursors.get_mut(&replica) {
                    if *next < script.steps.len() {
                        let inv = script.steps[*next].clone();
                        *next += 1;
                        self.schedule_at(time + script.think_time, replica, inv);
                    }
                }
            }
        }
        self.quiescent = true; // the steps drained everything reachable
        self.trace(GroupId::new(0))
    }

    /// Quorum-loss-aware convergence: like
    /// [`BayouCluster::assert_convergence`], but replicas that are down
    /// (crashed by the schedule or crash-stopped on a persistence
    /// failure) are skipped automatically — a dead replica is entitled
    /// to be arbitrarily stale, and a fault schedule that leaves some
    /// replicas dead must still be able to check the survivors.
    ///
    /// # Panics
    ///
    /// Panics (with a diagnostic) if any two *live* replicas disagree.
    pub fn assert_convergence_alive(&self) {
        let down: Vec<ReplicaId> = ReplicaId::all(self.n)
            .filter(|r| self.is_down(*r))
            .collect();
        self.assert_convergence(&down);
    }

    /// Asserts that all replicas of every group have converged: equal
    /// committed totals, each replica's retained committed list equal to
    /// the recorded order at its compaction offset, empty tentative
    /// lists, and identical materialised states.
    ///
    /// # Panics
    ///
    /// Panics (with a diagnostic) if any replica disagrees. `skip` lists
    /// replicas excluded from the check (e.g. crashed ones).
    pub fn assert_convergence(&self, skip: &[ReplicaId]) {
        for gid in GroupId::all(self.group_count()) {
            self.assert_group_convergence(gid, skip);
        }
    }

    /// [`BayouCluster::assert_convergence`] for group `gid` alone.
    ///
    /// # Panics
    ///
    /// Panics (with a diagnostic) if any two checked replicas disagree.
    pub fn assert_group_convergence(&self, gid: GroupId, skip: &[ReplicaId]) {
        let mut checked = ReplicaId::all(self.n)
            .filter(|r| !skip.contains(r))
            .map(|r| (r, self.host(r).group(gid)));
        let Some((first, a)) = checked.next() else {
            return;
        };
        let what = format!("group {gid}: ");
        let total = a.committed_total();
        let state = a.materialize();
        let (order, base) = (self.committed_order(gid), self.committed_base(gid));
        for (r, b) in std::iter::once((first, a)).chain(checked) {
            assert_eq!(
                b.committed_total(),
                total,
                "{what}committed totals diverge between {first} and {r}"
            );
            let off = (b.compacted_count() - base) as usize;
            let ids = b.committed_ids();
            assert_eq!(
                order.get(off..off + ids.len()),
                Some(&ids[..]),
                "{what}the committed order of {r} diverges from the recorded one"
            );
            assert!(
                b.tentative_ids().is_empty(),
                "{what}replica {r} still has tentative requests"
            );
            assert_eq!(
                b.materialize(),
                state,
                "{what}states diverge between {first} and {r}"
            );
        }
    }

    /// The recorded trace of group `gid`, built from its invocation
    /// records, the responses collected so far and its recorded
    /// committed order.
    fn trace(&self, gid: GroupId) -> RunTrace<F::Op> {
        let mut events: Vec<EventRecord<F::Op>> = self
            .invocations
            .iter()
            .flatten()
            .filter(|(g, _)| *g == gid)
            .map(|(_, e)| e.clone())
            .collect();
        // fill in responses (exactly one per request)
        let by_id: HashMap<ReqId, usize> = events
            .iter()
            .enumerate()
            .map(|(i, e)| (e.meta.id(), i))
            .collect();
        for (out_time, out) in self
            .responses
            .iter()
            .filter(|o| o.output.0 == gid)
            .map(|o| (o.time, &o.output.1))
        {
            // a restarted replica's invocation records go with it, so
            // responses it produced before crashing have no event record
            // in crash-recovery schedules; in any other schedule an
            // unmatched response is a protocol bug
            let Some(idx) = by_id.get(&out.meta.id()).copied() else {
                assert!(
                    self.has_restarts,
                    "response for unknown request {}",
                    out.meta.id()
                );
                continue;
            };
            let ev = &mut events[idx];
            if ev.value.is_some() {
                // a purely-local read-only invocation leaves no durable
                // trace, so a restarted replica may reuse its dot; the
                // pre-crash invocation's record died with the restart,
                // leaving only its stray response — which then collides
                // with the reused dot's event. The lost record makes the
                // collision undetectable from the surviving events, so
                // restart schedules get a blanket waiver; anywhere else a
                // duplicate response is a protocol bug.
                assert!(
                    self.has_restarts,
                    "duplicate response for request {}",
                    ev.meta.id()
                );
                continue;
            }
            ev.returned_at = Some(out_time);
            ev.value = Some(out.value.clone());
            ev.exec_trace = Some(out.exec_trace.ids().to_vec());
            ev.served = Some(out.served);
        }
        // a strong read parked for its lease read index takes the TOB
        // round if the lease runs out first — after its invocation was
        // recorded as not cast
        let ordered: HashSet<ReqId> = self.committed_order(gid).iter().copied().collect();
        for ev in events.iter_mut().filter(|e| e.meta.level.is_strong()) {
            ev.tob_cast |= ordered.contains(&ev.meta.id());
        }
        events.sort_by_key(|e| (e.invoked_at, e.meta.dot));
        RunTrace {
            events,
            tob_order: self.committed_order(gid).to_vec(),
            end_time: self.sim.now(),
            quiescent: self.quiescent,
        }
    }
}

/// One group's committed order as the cluster records it: the whole
/// order from position `base`, of which each replica retains only the
/// suffix above its compaction floor.
struct Recorded {
    /// 0 for fresh hosts; the lowest compaction floor for hosts
    /// recovered from an earlier cluster's disks, below which no host
    /// retains the order.
    base: u64,
    order: Vec<ReqId>,
}

impl Recorded {
    /// The order the replicas of one group hold when the cluster is
    /// built — nothing for fresh hosts; for recovered ones, their
    /// retained suffixes merged from the lowest compaction floor.
    ///
    /// # Panics
    ///
    /// Panics if two replicas disagree where their suffixes overlap, or
    /// if the suffixes leave a gap.
    fn recovered<'a, F, T, S>(
        replicas: impl Iterator<Item = &'a BayouReplica<F, T, S>> + Clone,
    ) -> Recorded
    where
        F: DataType + 'a,
        T: Tob<SharedReq<F::Op>> + 'a,
        S: StateObject<F> + 'a,
    {
        let floors = replicas.clone().map(|g| g.compacted_count());
        let base = floors.clone().min().unwrap_or(0);
        let mut order = Vec::new();
        // each pass appends what a replica holds past the order's end,
        // until none holds more
        loop {
            let before = order.len();
            for g in replicas.clone() {
                let from = (g.compacted_count() - base) as usize;
                if from > order.len() {
                    continue;
                }
                let ids = g.committed_ids();
                let overlap = (order.len() - from).min(ids.len());
                assert_eq!(
                    order[from..from + overlap],
                    ids[..overlap],
                    "recovered replicas disagree on the committed order"
                );
                order.extend_from_slice(&ids[overlap..]);
            }
            if order.len() == before {
                break;
            }
        }
        let reach = base + order.len() as u64;
        assert!(
            floors.max().unwrap_or(0) <= reach,
            "recovered replicas leave a gap in the committed order at position {reach}"
        );
        Recorded { base, order }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayou_data::{AppendList, Counter, CounterOp, KvOp, KvStore, ListOp};
    use bayou_sim::{NetworkConfig, Partition, PartitionSchedule, Stability};
    use bayou_types::Value;

    fn ms(v: u64) -> VirtualTime {
        VirtualTime::from_millis(v)
    }

    #[test]
    fn weak_and_strong_ops_complete_in_a_stable_run() {
        let mut c: BayouCluster<KvStore> = BayouCluster::new(ClusterConfig::new(3, 1));
        c.invoke_at(ms(1), ReplicaId::new(0), KvOp::put("k", 1), Level::Weak);
        c.invoke_at(
            ms(50),
            ReplicaId::new(1),
            KvOp::put_if_absent("k", 2),
            Level::Strong,
        );
        c.invoke_at(ms(400), ReplicaId::new(2), KvOp::get("k"), Level::Weak);
        let trace = c.run_until(ms(5_000));
        assert_eq!(trace.events.len(), 3);
        for e in &trace.events {
            assert!(!e.is_pending(), "event {} pending", e.meta.id());
        }
        // the strong putIfAbsent must have failed: the weak put committed
        // first (it was invoked 49ms earlier and the network is ~1ms)
        let strong = trace
            .events
            .iter()
            .find(|e| e.meta.level == Level::Strong)
            .unwrap();
        assert_eq!(strong.value, Some(Value::Bool(false)));
        c.assert_convergence(&[]);
    }

    #[test]
    fn replicas_converge_to_the_same_list() {
        let mut c: BayouCluster<AppendList> = BayouCluster::new(ClusterConfig::new(3, 7));
        for k in 0..6u64 {
            let r = ReplicaId::new((k % 3) as u32);
            c.invoke_at(ms(1 + k), r, ListOp::append(format!("e{k}")), Level::Weak);
        }
        let trace = c.run_until(ms(10_000));
        assert!(trace.events.iter().all(|e| !e.is_pending()));
        c.assert_convergence(&[]);
        // all six elements present exactly once
        let state = c.replica(ReplicaId::new(0)).materialize();
        assert_eq!(state.len(), 6);
    }

    #[test]
    fn tob_order_is_recorded_and_covers_all_updates() {
        let mut c: BayouCluster<Counter> = BayouCluster::new(ClusterConfig::new(2, 3));
        c.invoke_at(ms(1), ReplicaId::new(0), CounterOp::Add(1), Level::Weak);
        c.invoke_at(ms(2), ReplicaId::new(1), CounterOp::Add(2), Level::Weak);
        let trace = c.run_until(ms(5_000));
        assert_eq!(trace.tob_order.len(), 2);
        for e in &trace.events {
            assert!(trace.tob_delivered(e.meta.id()));
        }
    }

    /// A quiet run compacts every replica down to nothing retained, yet
    /// the trace's TOB order is whole: it comes from the recorder, so
    /// `tob_no` is the global position of every update.
    #[test]
    fn tob_order_is_whole_after_full_compaction() {
        let mut c: BayouCluster<Counter> = BayouCluster::new(ClusterConfig::new(3, 5));
        for k in 0..30u64 {
            let r = ReplicaId::new((k % 3) as u32);
            c.invoke_at(ms(1 + 3 * k), r, CounterOp::Add(1), Level::Weak);
        }
        let trace = c.run_until(ms(30_000));
        assert!(trace.quiescent);
        for r in ReplicaId::all(3) {
            let rep = c.replica(r);
            assert_eq!(rep.committed_total(), 30, "all committed at {r}");
            assert_eq!(rep.compacted_count(), 30, "fully compacted at {r}");
        }
        assert_eq!(trace.tob_order.len(), 30);
        let mut positions: Vec<usize> = trace
            .events
            .iter()
            .map(|e| trace.tob_no(e.meta.id()).expect("every update delivered"))
            .collect();
        positions.sort_unstable();
        assert_eq!(positions, (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn weak_ro_in_improved_mode_stays_local() {
        let mut c: BayouCluster<Counter> = BayouCluster::new(ClusterConfig::new(2, 3));
        c.invoke_at(ms(1), ReplicaId::new(0), CounterOp::Read, Level::Weak);
        let trace = c.run_until(ms(2_000));
        assert_eq!(trace.events.len(), 1);
        let e = &trace.events[0];
        assert!(!e.tob_cast);
        assert_eq!(e.value, Some(Value::Int(0)));
        assert!(trace.tob_order.is_empty());
    }

    #[test]
    fn strong_ops_block_under_partition_weak_ops_do_not() {
        let n = 3;
        // partition the whole run: no quorum for anyone
        let net = NetworkConfig {
            partitions: PartitionSchedule::new(vec![Partition::new(
                ms(0),
                ms(100_000),
                vec![
                    vec![ReplicaId::new(0)],
                    vec![ReplicaId::new(1)],
                    vec![ReplicaId::new(2)],
                ],
            )]),
            ..Default::default()
        };
        let sim = SimConfig::new(n, 5)
            .with_net(net)
            .with_stability(Stability::Asynchronous)
            .with_max_time(ms(3_000));
        let cfg = ClusterConfig::new(n, 5).with_sim(sim);
        let mut c: BayouCluster<KvStore> = BayouCluster::new(cfg);
        c.invoke_at(ms(1), ReplicaId::new(0), KvOp::put("a", 1), Level::Weak);
        c.invoke_at(ms(2), ReplicaId::new(1), KvOp::put("b", 2), Level::Strong);
        let trace = c.run_until(ms(3_000));
        let weak = trace
            .events
            .iter()
            .find(|e| e.meta.level == Level::Weak)
            .unwrap();
        let strong = trace
            .events
            .iter()
            .find(|e| e.meta.level == Level::Strong)
            .unwrap();
        assert!(!weak.is_pending(), "weak ops are highly available");
        assert!(strong.is_pending(), "strong ops need consensus");
    }

    #[test]
    fn sessions_run_sequentially_per_replica() {
        let mut c: BayouCluster<Counter> = BayouCluster::new(ClusterConfig::new(2, 9));
        let trace = c.run_sessions(vec![
            SessionScript::new(
                ReplicaId::new(0),
                vec![
                    Invocation::weak(CounterOp::Add(1)),
                    Invocation::weak(CounterOp::Read),
                    Invocation::strong(CounterOp::AddAndGet(10)),
                ],
            ),
            SessionScript::new(
                ReplicaId::new(1),
                vec![
                    Invocation::weak(CounterOp::Add(5)),
                    Invocation::strong(CounterOp::Read),
                ],
            ),
        ]);
        assert_eq!(trace.events.len(), 5);
        assert!(trace.events.iter().all(|e| !e.is_pending()));
        // per-session, returns precede next invokes
        for r in [ReplicaId::new(0), ReplicaId::new(1)] {
            let mut last_return = VirtualTime::ZERO;
            for e in trace.events.iter().filter(|e| e.replica == r) {
                assert!(e.invoked_at >= last_return, "session overlap at {r}");
                last_return = e.returned_at.unwrap();
            }
        }
        c.assert_convergence(&[]);
        // final counter value: 1 + 10 + 5 = 16
        assert_eq!(c.replica(ReplicaId::new(0)).materialize(), 16);
    }

    #[test]
    fn deterministic_traces_for_fixed_seed() {
        let run = |seed: u64| {
            let mut c: BayouCluster<AppendList> = BayouCluster::new(ClusterConfig::new(3, seed));
            for k in 0..5u64 {
                c.invoke_at(
                    ms(1 + k * 2),
                    ReplicaId::new((k % 3) as u32),
                    ListOp::append(format!("{k}")),
                    Level::Weak,
                );
            }
            let t = c.run_until(ms(5_000));
            (
                t.tob_order.clone(),
                t.events
                    .iter()
                    .map(|e| (e.meta.id(), e.value.clone()))
                    .collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn two_groups_commit_independently_in_sim() {
        let sim = SimConfig::new(3, 11).with_max_time(VirtualTime::from_secs(30));
        let mut c: BayouCluster<KvStore> = BayouCluster::grouped(sim, 2, ProtocolMode::Improved);
        let (g0, g1) = (GroupId::new(0), GroupId::new(1));
        let put = |k: &str, v| Invocation::weak(KvOp::put(k, v));
        c.schedule_in(ms(1), ReplicaId::new(0), g0, put("a", 1));
        c.schedule_in(ms(2), ReplicaId::new(1), g1, put("b", 2));
        c.schedule_in(ms(3), ReplicaId::new(2), g0, put("c", 3));
        c.run_until(VirtualTime::from_secs(30));
        c.assert_convergence(&[]);
        assert_eq!(c.committed_totals(g0), vec![2, 2, 2]);
        assert_eq!(c.committed_totals(g1), vec![1, 1, 1]);
        // keyspaces never mix
        let state = c.replica(ReplicaId::new(0)).materialize();
        assert_eq!(state.get("a"), Some(&1));
        assert_eq!(state.get("b"), None);
    }
}
