//! Committed-history compaction, end to end: bounded replica memory and
//! decided logs, recovery from compact snapshots, and the baseline state
//! transfer that serves a replica which fell below the cluster-wide
//! compaction floor. (That compaction changes nothing observable is
//! banked in `batching.rs`: its digests were recorded with and without
//! it.)

use bayou_broadcast::{
    BaselineMark, Entry, PaxosConfig, PaxosMsg, PaxosTob, Tob, TobDelivery, TobEvent,
};
use bayou_core::{
    recover_paxos_replica, BayouCluster, BayouMsg, BayouReplica, ClusterConfig, GroupedMsg,
    GroupedReplica, ProtocolMode,
};
use bayou_data::{Counter, CounterOp, DeltaState, KvOp, KvStore};
use bayou_sim::SimConfig;
use bayou_storage::{MemDisk, Prefixed, ReplicaStore, Snapshot, Storage, StoreConfig};
use bayou_types::{
    Context, Dot, GroupId, LeaseConfig, Level, Process, ReplicaId, Req, SharedReq, TimerId,
    Timestamp, VirtualTime,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn ms(v: u64) -> VirtualTime {
    VirtualTime::from_millis(v)
}

/// A long single-replica workload: the retained
/// committed list and the TOB decided log must stay bounded (O(window))
/// while the state reflects every commit ever made.
#[test]
fn compaction_bounds_committed_list_and_decided_log() {
    let n_ops: u64 = 10_000;
    let sim = SimConfig::new(1, 11).with_max_time(VirtualTime::from_secs(3_600));
    let cfg = ClusterConfig::new(1, 11).with_sim(sim);
    let mut c: BayouCluster<Counter> = BayouCluster::new(cfg);
    let mut max_retained = 0usize;
    for chunk in 0..(n_ops / 500) {
        for k in 0..500u64 {
            c.invoke_at(
                ms(1 + chunk * 2_000 + k * 2),
                ReplicaId::new(0),
                CounterOp::Add(1),
                Level::Weak,
            );
        }
        c.run_until(ms((chunk + 1) * 2_000));
        max_retained = max_retained.max(c.replica(ReplicaId::new(0)).committed_ids().len());
    }
    c.run_until(VirtualTime::from_secs(3_600));
    let r = c.replica(ReplicaId::new(0));
    assert_eq!(r.committed_total(), n_ops, "every op committed");
    assert_eq!(r.materialize(), n_ops as i64, "state reflects all commits");
    assert!(
        r.compacted_count() > n_ops - 600,
        "nearly everything compacted: {}",
        r.compacted_count()
    );
    assert!(
        r.committed_ids().len() < 600,
        "retained committed list stays O(window): {}",
        r.committed_ids().len()
    );
    assert!(
        max_retained < 1_200,
        "retained list bounded throughout the run: {max_retained}"
    );
    assert!(
        r.tob().decided_log().len() < 600,
        "TOB decided log truncated: {}",
        r.tob().decided_log().len()
    );
}

fn durable_factory(
    n: usize,
    disks: Vec<MemDisk>,
    store_cfg: StoreConfig,
) -> impl FnMut(
    ReplicaId,
) -> GroupedReplica<
    KvStore,
    bayou_broadcast::PaxosTob<bayou_types::SharedReq<KvOp>>,
    DeltaState<KvStore>,
> {
    move |id| {
        recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
            id,
            n,
            ProtocolMode::Improved,
            PaxosConfig::default(),
            disks[id.index()].clone(),
            store_cfg,
        )
    }
}

/// A durable replica is killed and rebuilt from its (compact)
/// snapshot + WAL suffix: it must converge with the survivors, and the
/// snapshot it recovered from must actually have carried a non-zero
/// compaction mark.
#[test]
fn restart_recovers_from_a_compact_snapshot() {
    let n = 3;
    let disks: Vec<MemDisk> = (0..n).map(|_| MemDisk::new()).collect();
    let store_cfg = StoreConfig {
        snapshot_every: 16,
        ..Default::default()
    };
    let sim = SimConfig::new(n, 5)
        .with_crash(ms(2_500), ReplicaId::new(1))
        .with_restart(ms(3_500), ReplicaId::new(1))
        .with_max_time(VirtualTime::from_secs(60));
    let mut cluster: BayouCluster<KvStore> =
        BayouCluster::with_factory(sim, durable_factory(n, disks.clone(), store_cfg));
    for k in 0..120u64 {
        let r = ReplicaId::new((k % 3) as u32);
        cluster.invoke_at(
            ms(1 + 40 * k),
            r,
            KvOp::put(format!("k{}", k % 9), k as i64),
            Level::Weak,
        );
    }
    let trace = cluster.run_until(VirtualTime::from_secs(60));
    assert!(trace.quiescent, "schedule must reach quiescence");
    cluster.assert_convergence(&[]);
    let restarted = cluster.replica(ReplicaId::new(1));
    assert!(
        restarted.compacted_count() > 0,
        "the restarted replica compacts too"
    );
    // the disk the replica recovered from holds a compact-form snapshot
    let disk = Prefixed::new(disks[1].clone(), GroupId::new(0));
    let snap_name = disk
        .list()
        .into_iter()
        .filter(|f| f.starts_with("snap-"))
        .max()
        .expect("a snapshot was written");
    let snap = Snapshot::<KvStore>::from_bytes(&disk.read(&snap_name).unwrap()).unwrap();
    assert!(
        snap.mark.delivered > 0,
        "snapshot carries a non-zero compaction mark"
    );
    assert!(
        (snap.decided.len() as u64) < snap.delivered,
        "snapshot decided log is a suffix, not the full history"
    );
}

/// A replica that loses its entire state (diskless restart) while the
/// rest of the cluster has compacted past it can no longer be caught up
/// by replay — the missing requests do not exist anywhere. It must be
/// served the baseline state instead, install it, and converge.
#[test]
fn laggard_below_the_watermark_is_served_the_baseline() {
    let n = 3;
    let sim = SimConfig::new(n, 23)
        .with_crash(ms(4_000), ReplicaId::new(2))
        .with_restart(ms(5_000), ReplicaId::new(2))
        .with_max_time(VirtualTime::from_secs(120));
    // non-durable factory: the restarted replica comes back with nothing
    let mut cluster: BayouCluster<KvStore> = BayouCluster::with_factory(sim, move |_| {
        GroupedReplica::new(vec![BayouReplica::new(
            n,
            ProtocolMode::Improved,
            bayou_broadcast::PaxosTob::with_defaults(n),
        )])
    });
    // plenty of pre-crash traffic so the cluster compacts a real prefix,
    // and continued post-restart traffic so catch-up traffic reaches the
    // reborn replica; the workload goes through replicas 0 and 1 (the
    // reborn replica invokes only once, late, after its baseline install
    // — see below)
    for k in 0..300u64 {
        let r = ReplicaId::new((k % 2) as u32);
        cluster.invoke_at(
            ms(1 + 30 * k),
            r,
            KvOp::put(format!("k{}", k % 11), k as i64),
            Level::Weak,
        );
    }
    // late invocation on the reborn replica itself: after installing the
    // baseline it must have adopted the mark's cast cursor, or this
    // request would reuse a decided (sender, seq) key and be silently
    // dropped cluster-wide as a duplicate
    cluster.invoke_at(
        ms(9_500),
        ReplicaId::new(2),
        KvOp::put("from-reborn", 777),
        Level::Weak,
    );
    let trace = cluster.run_until(VirtualTime::from_secs(120));
    assert!(
        trace.quiescent,
        "baseline transfer must unblock the laggard"
    );
    cluster.assert_convergence(&[]);
    let reborn = cluster.replica(ReplicaId::new(2));
    assert!(
        reborn.compacted_count() > 0,
        "the reborn replica holds a baseline, not replayed history"
    );
    assert_eq!(
        reborn.committed_total(),
        cluster.replica(ReplicaId::new(0)).committed_total(),
        "the reborn replica caught up to the full committed total"
    );
    let state = reborn.materialize();
    assert_eq!(state, cluster.replica(ReplicaId::new(0)).materialize());
    assert_eq!(
        state.get("from-reborn"),
        Some(&777),
        "the reborn replica's own post-baseline invocation must commit"
    );
}

/// `DecideAck`s, empty (watermark-answer) `Catchup`s and `Catchup`s
/// with entries, received cluster-wide.
#[derive(Debug, Default)]
struct Received([AtomicU64; 3]);

/// The Paxos TOB, counting the catch-up traffic it receives; every
/// other call is passed through unchanged.
struct Counted {
    tob: PaxosTob<SharedReq<KvOp>>,
    received: Arc<Received>,
}

impl Tob<SharedReq<KvOp>> for Counted {
    type Msg = PaxosMsg<SharedReq<KvOp>>;

    fn on_start(&mut self, ctx: &mut dyn Context<Self::Msg>) {
        self.tob.on_start(ctx)
    }
    fn cast(&mut self, seq: u64, payload: SharedReq<KvOp>, ctx: &mut dyn Context<Self::Msg>) {
        self.tob.cast(seq, payload, ctx)
    }
    fn ensure(
        &mut self,
        sender: ReplicaId,
        seq: u64,
        payload: SharedReq<KvOp>,
        ctx: &mut dyn Context<Self::Msg>,
    ) {
        self.tob.ensure(sender, seq, payload, ctx)
    }
    fn on_message(
        &mut self,
        from: ReplicaId,
        msg: Self::Msg,
        ctx: &mut dyn Context<Self::Msg>,
    ) -> Vec<TobDelivery<SharedReq<KvOp>>> {
        let kind = match &msg {
            PaxosMsg::DecideAck { .. } => Some(0),
            PaxosMsg::Catchup { entries, .. } if entries.is_empty() => Some(1),
            PaxosMsg::Catchup { .. } => Some(2),
            _ => None,
        };
        if let Some(k) = kind {
            self.received.0[k].fetch_add(1, Ordering::Relaxed);
        }
        self.tob.on_message(from, msg, ctx)
    }
    fn on_timer(
        &mut self,
        timer: TimerId,
        ctx: &mut dyn Context<Self::Msg>,
    ) -> Vec<TobDelivery<SharedReq<KvOp>>> {
        self.tob.on_timer(timer, ctx)
    }
    fn owns_timer(&self, timer: TimerId) -> bool {
        self.tob.owns_timer(timer)
    }
    fn delivered_count(&self) -> u64 {
        self.tob.delivered_count()
    }
    fn set_durable(&mut self, on: bool) {
        self.tob.set_durable(on)
    }
    fn set_lease(&mut self, config: Option<LeaseConfig>) {
        self.tob.set_lease(config)
    }
    fn lease_read_index(&self, now: Timestamp) -> Option<u64> {
        self.tob.lease_read_index(now)
    }
    fn lease_ready(&mut self, now: Timestamp, index: u64) -> bool {
        self.tob.lease_ready(now, index)
    }
    fn drain_durable(&mut self, out: &mut Vec<TobEvent<SharedReq<KvOp>>>) {
        self.tob.drain_durable(out)
    }
    fn durable_image(&self, slot_floor: u64) -> Vec<TobEvent<SharedReq<KvOp>>> {
        self.tob.durable_image(slot_floor)
    }
    fn release_decided(&mut self, slot_floor: u64) {
        self.tob.release_decided(slot_floor)
    }
    fn stable_delivered(&self) -> u64 {
        self.tob.stable_delivered()
    }
    fn baseline_mark(&self) -> Option<&BaselineMark> {
        self.tob.baseline_mark()
    }
    fn install_baseline(&mut self, mark: &BaselineMark) {
        self.tob.install_baseline(mark)
    }
    fn take_baseline_needed(&mut self) -> Option<ReplicaId> {
        self.tob.take_baseline_needed()
    }
    fn released_seq(&self, sender: ReplicaId) -> u64 {
        self.tob.released_seq(sender)
    }
    fn is_decided(&self, sender: ReplicaId, seq: u64) -> bool {
        self.tob.is_decided(sender, seq)
    }
    fn retained_keys(&self) -> usize {
        self.tob.retained_keys()
    }
}

/// The leader answers a watermark poll once, not in a loop. Acceptors
/// learn a slot on its `Accept` and deliver ahead of the leader, so
/// under load the leader's watermark moves between a poll and its
/// answer. If the answer — an empty `Catchup` — were acked, the ack
/// would poll again and the two would chase each other for as long as
/// the load lasts: on this run 12 781 `DecideAck`s and 10 058 empty
/// `Catchup`s, against the 2 439 and 1 999 pinned here. (Before
/// acceptors learned on accept, the counts were 3 468, 5 and 1 429:
/// acks from a follower behind the leader take the catch-up branch.
/// They were 2 427, 2 023 and 393 while a 40 µs flush timer, not the
/// end of the sender's busy period, released frames.)
#[test]
fn a_watermark_poll_is_answered_once() {
    const OPS: u64 = 1_000;
    let received = Arc::new(Received::default());
    let counts = Arc::clone(&received);
    let mut c: BayouCluster<KvStore, Counted> =
        BayouCluster::with_tob(SimConfig::new(3, 1), ProtocolMode::Improved, move |_| {
            Counted {
                tob: PaxosTob::new(3, PaxosConfig::default()),
                received: Arc::clone(&counts),
            }
        });
    // below saturation, every 8th op strong: the paper's mix
    for k in 0..OPS {
        let level = if k % 8 == 7 {
            Level::Strong
        } else {
            Level::Weak
        };
        c.invoke_at(
            VirtualTime::from_micros(1 + 667 * k),
            ReplicaId::new((k % 3) as u32),
            KvOp::put(format!("k{}", k % 50), k as i64),
            level,
        );
    }
    assert!(c.run_until(VirtualTime::from_secs(120)).quiescent);
    c.assert_convergence(&[]);
    let got = received.0.each_ref().map(|n| n.load(Ordering::Relaxed));
    assert_eq!(
        got,
        [2_439, 1_999, 405],
        "[DecideAck, empty Catchup, Catchup with entries] received"
    );
}

type Host = GroupedReplica<KvStore, PaxosTob<SharedReq<KvOp>>, DeltaState<KvStore>>;

/// A hand-driven context: the test is the network and the clock. Sends
/// are dropped, timers never fire, and Ω names a fixed leader.
struct Hand {
    me: ReplicaId,
    n: usize,
    leader: ReplicaId,
    timers: u64,
}

impl<M> Context<M> for Hand {
    fn id(&self) -> ReplicaId {
        self.me
    }
    fn cluster_size(&self) -> usize {
        self.n
    }
    fn now(&self) -> VirtualTime {
        ms(1)
    }
    fn clock(&mut self) -> Timestamp {
        Timestamp::new(1)
    }
    fn send(&mut self, _to: ReplicaId, _msg: M) {}
    fn set_timer(&mut self, _delay: VirtualTime) -> TimerId {
        self.timers += 1;
        TimerId::new(self.timers)
    }
    fn random(&mut self) -> u64 {
        4
    }
    fn omega(&mut self) -> ReplicaId {
        self.leader
    }
}

/// The compaction floor can advance in slot space alone: a trailing
/// duplicate decision delivers nothing, so the clean point after it
/// carries the same delivery count one slot further on. The replica
/// adopts that higher floor (`slot_floor` 1 → 2 at 1 delivery) after the
/// step's snapshot point, the next snapshot records it, and a restart
/// from that snapshot recovers the same deliveries and committed state.
#[test]
fn a_floor_advance_in_slot_space_only_survives_a_restart() {
    let (n, me, leader) = (3, ReplicaId::new(0), ReplicaId::new(1));
    let disk = MemDisk::new();
    let store_cfg = StoreConfig {
        snapshot_every: 1,
        ..Default::default()
    };
    let boot = || {
        recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
            me,
            n,
            ProtocolMode::Improved,
            PaxosConfig::default(),
            disk.clone(),
            store_cfg,
        )
    };
    let mut ctx = Hand {
        me,
        n,
        leader,
        timers: 0,
    };
    // driving the host by hand makes this test its runtime, so it owes
    // the write-ahead barrier after every handler
    let mut host = boot();
    host.on_start(&mut ctx);
    host.barrier();
    let req = |no: u64, op| {
        Arc::new(Req::new(
            Timestamp::new(no as i64),
            Dot::new(leader, no),
            Level::Weak,
            op,
        ))
    };
    let (a, b, c) = (
        req(1, KvOp::put("a", 1)),
        req(2, KvOp::put("b", 2)),
        req(3, KvOp::put("c", 3)),
    );
    let tob = |m| GroupedMsg::One(GroupId::new(0), BayouMsg::Tob(m));
    let decide = |slot, seq, r: &SharedReq<KvOp>, stable_upto| {
        let entry = Entry::new(leader, seq, r.clone());
        tob(PaxosMsg::Decide {
            slot,
            entry,
            stable_upto,
        })
    };
    let mut step = |host: &mut Host, msg| {
        host.on_message(leader, msg, &mut ctx);
        host.barrier();
        while host.on_internal(&mut ctx) {
            host.barrier();
        }
    };
    let mark = |host: &Host| {
        let m = host.group(GroupId::new(0)).tob().baseline_mark().unwrap();
        (m.slot_floor, m.delivered)
    };
    let view = Prefixed::new(disk.clone(), GroupId::new(0));
    let saved = || {
        let name = (view.list().into_iter())
            .filter(|f| f.starts_with("snap-"))
            .max()
            .expect("a snapshot was written");
        Snapshot::<KvStore>::from_bytes(&view.read(&name).unwrap()).unwrap()
    };

    // slot 0 delivers `a`; a watermark of 1 puts the floor on slot 1
    step(&mut host, decide(0, 0, &a, 0));
    let watermark = PaxosMsg::Catchup {
        first: 1,
        entries: Vec::new(),
        stable_upto: 1,
        floor: 0,
    };
    step(&mut host, tob(watermark));
    assert_eq!(mark(&host), (1, 1));
    assert_eq!(host.group(GroupId::new(0)).compacted_count(), 1);
    // slot 1 decides `a` again: a duplicate, which delivers nothing
    step(&mut host, decide(1, 0, &a, 1));
    // slot 2 delivers `b`, and the TOB's floor moves over the duplicate
    // in slot space only; the replica follows after the snapshot that
    // the commit of `b` cut, which still records slot floor 1
    step(&mut host, decide(2, 1, &b, 1));
    assert_eq!(mark(&host), (2, 1));
    let snap = saved();
    assert_eq!((snap.mark.slot_floor, snap.mark.delivered), (1, 1));
    // slot 3 delivers `c`: its snapshot is the first cut on the new floor
    step(&mut host, decide(3, 2, &c, 1));
    let live = host.group(GroupId::new(0));
    let (ids, total, state) = (
        live.committed_ids(),
        live.committed_total(),
        live.materialize(),
    );
    assert_eq!((live.compacted_count(), total), (1, 3));
    assert!(host.failure().is_none());
    drop(host); // crash

    // the image records the replica's higher slot floor
    let snap = saved();
    let floor = (snap.mark.slot_floor, snap.mark.delivered, snap.delivered);
    assert_eq!(floor, (2, 1, 3));
    let slots: Vec<u64> = snap.decided.iter().map(|d| d.0).collect();
    assert_eq!(slots, [2, 3], "the duplicate slot is below the floor");

    // the durable facts, replayed through a TOB, give the same order
    let probe = Prefixed::new(disk.fork(), GroupId::new(0));
    let (_store, recovered) = ReplicaStore::<KvStore, _>::open(probe, n, store_cfg).unwrap();
    let replayed = recovered.replay(&mut PaxosTob::with_defaults(n));
    let replayed_ids: Vec<_> = replayed.deliveries.iter().map(|r| r.id()).collect();
    assert_eq!(replayed_ids, ids);
    assert_eq!(replayed.mark, snap.mark);

    // and the restarted replica holds the same history and state
    let host = boot();
    let back = host.group(GroupId::new(0));
    assert_eq!(back.committed_ids(), ids);
    assert_eq!(back.committed_total(), total);
    assert_eq!(back.compacted_count(), 1);
    assert_eq!(back.materialize(), state);
    assert_eq!(mark(&host), (2, 1));
}
