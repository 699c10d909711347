//! Leader leases and follower session reads, end to end in the
//! simulator: the fast path engages, falls back typed (never silently),
//! survives failover without a stale read, and the lease-off
//! configuration stays on the all-TOB baseline.

use bayou_broadcast::PaxosConfig;
use bayou_core::{
    recover_paxos_replica, BayouCluster, ClusterConfig, Invocation, ProtocolMode, Served,
    SessionGuard,
};
use bayou_data::{DeltaState, KvOp, KvStore};
use bayou_sim::{NetworkConfig, Partition, PartitionSchedule, SimConfig};
use bayou_storage::{MemDisk, StoreConfig};
use bayou_types::{GroupId, LeaseConfig, Level, ReplicaId, Value, VirtualTime};

fn ms(v: u64) -> VirtualTime {
    VirtualTime::from_millis(v)
}

fn r(i: u32) -> ReplicaId {
    ReplicaId::new(i)
}

/// A strong read at the lane leader, invoked after the lease window has
/// had time to establish, is served locally (`Served::Lease`) with the
/// committed value — and reads before the window falls back to the TOB
/// round with the same answer.
#[test]
fn lease_serves_strong_reads_locally_at_the_leader() {
    let cfg = ClusterConfig::new(3, 11).with_lease(LeaseConfig::default());
    let mut c: BayouCluster<KvStore> = BayouCluster::new(cfg);
    // the write establishes leadership at the Ω choice (replica 0 in a
    // stable run) and starts the grant traffic
    c.invoke_at(ms(1), r(0), KvOp::put("k", 7), Level::Strong);
    // early read: leadership exists but the lease needs two grant
    // rounds of calibration — this one must fall back to the TOB round
    c.invoke_at(ms(30), r(0), KvOp::get("k"), Level::Strong);
    // late reads: well inside the quorum-confirmed window
    c.invoke_at(ms(600), r(0), KvOp::get("k"), Level::Strong);
    c.invoke_at(ms(700), r(0), KvOp::get("k"), Level::Strong);
    let trace = c.run_until(ms(1_500));

    let reads: Vec<_> = trace
        .events
        .iter()
        .filter(|e| e.op == KvOp::get("k"))
        .collect();
    assert_eq!(reads.len(), 3);
    for e in &reads {
        assert_eq!(e.value, Some(Value::Int(7)), "strong read must be current");
    }
    // the early read went through TOB, the late ones through the lease
    assert_eq!(reads[0].served, Some(Served::Committed));
    for e in &reads[1..] {
        assert!(
            matches!(e.served, Some(Served::Lease { .. })),
            "late read was not lease-served: {:?}",
            e.served
        );
        assert!(!e.tob_cast, "a lease-served read never enters the TOB");
    }
    assert_eq!(c.replica(r(0)).stats().lease_reads, 2);
    // lease-served reads are invisible to the TOB order
    assert_eq!(trace.tob_order.len(), 2); // put + early read
}

/// Only a restart mutes the lease for a lease duration (the crashed
/// incarnation may have promised a guard): a durable replica started on
/// an empty store recovers no facts and leases as soon as a replica
/// without storage does.
#[test]
fn a_fresh_durable_replica_leases_without_a_boot_mute() {
    let lease = LeaseConfig::default();
    let sim = SimConfig::new(3, 11).with_max_time(ms(1_500));
    let mut c: BayouCluster<KvStore> = BayouCluster::with_factory(sim, move |id| {
        let mut host = recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
            id,
            3,
            ProtocolMode::Improved,
            PaxosConfig::default(),
            MemDisk::new(),
            StoreConfig::default(),
        );
        host.set_lease(Some(lease));
        host
    });
    c.invoke_at(ms(1), r(0), KvOp::put("k", 7), Level::Strong);
    // inside the first lease duration after boot
    c.invoke_at(ms(300), r(0), KvOp::get("k"), Level::Strong);
    let trace = c.run_until(ms(1_500));
    let read = (trace.events.iter())
        .find(|e| e.op == KvOp::get("k"))
        .unwrap();
    assert_eq!(read.value, Some(Value::Int(7)));
    assert!(
        matches!(read.served, Some(Served::Lease { .. })),
        "a fresh store must not mute the lease: {:?}",
        read.served
    );
}

/// A compacting replica's lease-served read still reports the whole committed
/// order it read, from where the replica's state object began — the
/// origin every speculative response's trace starts at — not just the
/// suffix the replica happens to retain.
#[test]
fn leased_read_trace_is_the_committed_order_from_the_state_origin() {
    let cfg = ClusterConfig::new(3, 11).with_lease(LeaseConfig::default());
    let mut c: BayouCluster<KvStore> = BayouCluster::new(cfg);
    for k in 0..40u64 {
        c.invoke_at(
            ms(1 + 10 * k),
            r(k as u32 % 3),
            KvOp::put("k", k as i64),
            Level::Strong,
        );
    }
    c.invoke_at(ms(1_000), r(0), KvOp::get("k"), Level::Strong);
    let trace = c.run_until(ms(1_500));

    let read = trace
        .events
        .iter()
        .find(|e| e.op == KvOp::get("k"))
        .unwrap();
    let Some(Served::Lease { committed }) = read.served else {
        panic!("the read was not lease-served: {:?}", read.served);
    };
    assert_eq!(committed, 40, "every write committed before the read");
    let leader = c.replica(r(0));
    assert!(
        leader.compacted_count() > 0,
        "compaction must have truncated the retained order"
    );
    // replica 0 never restarted: its state object's trace starts at the
    // first commit, so the read saw the committed order from there
    let from_origin = &c.committed_order(GroupId::new(0))[..committed as usize];
    assert_eq!(read.exec_trace.as_deref(), Some(from_origin));
}

/// A follower may answer a strong put before the leaseholder knows the
/// put is decided: an acceptor learns a slot on its `Accept`. A leased
/// read at the leader that arrives after the put returned must still see
/// it, and it does so by waiting for its *read index* — the leader's
/// next slot at arrival — to be delivered, not by leaving the lease.
/// Reads every 50 µs around each follower-homed put: every read invoked
/// after the put returned sees it, and every read is lease-served.
#[test]
fn leased_reads_see_a_put_a_follower_already_answered() {
    let mut served = 0;
    for seed in 1..=4u64 {
        let cfg = ClusterConfig::new(3, seed).with_lease(LeaseConfig::default());
        let mut c: BayouCluster<KvStore> = BayouCluster::new(cfg);
        c.invoke_at(ms(1), r(0), KvOp::put("k", 0), Level::Strong);
        // once the lease is up, strong puts homed on replica 1 with
        // reads at the leaseholder from just before each put to well
        // after it returns
        for v in 1..=4i64 {
            let at = ms(500 + 100 * v as u64);
            c.invoke_at(at, r(1), KvOp::put("k", v), Level::Strong);
            for j in 0..100u64 {
                let read_at = at + VirtualTime::from_micros(50 * j);
                c.invoke_at(read_at, r(0), KvOp::get("k"), Level::Strong);
            }
        }
        let trace = c.run_until(ms(2_000));

        let puts: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.replica == r(1))
            .map(|e| e.returned_at.expect("the put answers"))
            .collect();
        for read in trace.events.iter().filter(|e| e.op == KvOp::get("k")) {
            assert!(
                matches!(read.served, Some(Served::Lease { .. })),
                "seed {seed}: read at {} was not lease-served: {:?}",
                read.invoked_at,
                read.served
            );
            // the last put that returned before the read was invoked
            let floor = puts
                .iter()
                .filter(|returned| **returned < read.invoked_at)
                .count() as i64;
            let Some(Value::Int(seen)) = read.value else {
                panic!("seed {seed}: read returned {:?}", read.value);
            };
            assert!(
                seen >= floor,
                "seed {seed}: read at {} saw {seen}, but put {floor} had returned",
                read.invoked_at
            );
            served += 1;
        }
    }
    assert_eq!(served, 4 * 4 * 100);
}

/// A strong read at a *follower* never uses the fast path: it goes
/// through the TOB round (typed as `Committed`), because only the
/// leaseholder's committed state is the linearization frontier.
#[test]
fn follower_strong_reads_take_the_tob_round() {
    let cfg = ClusterConfig::new(3, 13).with_lease(LeaseConfig::default());
    let mut c: BayouCluster<KvStore> = BayouCluster::new(cfg);
    c.invoke_at(ms(1), r(0), KvOp::put("k", 1), Level::Strong);
    c.invoke_at(ms(600), r(1), KvOp::get("k"), Level::Strong);
    let trace = c.run_until(ms(1_500));
    let read = trace
        .events
        .iter()
        .find(|e| e.op == KvOp::get("k"))
        .unwrap();
    assert_eq!(read.served, Some(Served::Committed));
    assert_eq!(read.value, Some(Value::Int(1)));
    assert_eq!(c.replica(r(1)).stats().lease_reads, 0);
}

/// Without a lease config nothing changes: no clock-driven frames, no
/// `Served::Lease` responses, the run quiesces, and the trace is
/// deterministic per seed — the all-TOB baseline.
#[test]
fn lease_off_is_the_quiescing_all_tob_baseline() {
    let run = |seed: u64| {
        let mut c: BayouCluster<KvStore> = BayouCluster::new(ClusterConfig::new(3, seed));
        c.invoke_at(ms(1), r(0), KvOp::put("k", 3), Level::Strong);
        c.invoke_at(ms(100), r(0), KvOp::get("k"), Level::Strong);
        let trace = c.run_until(ms(5_000));
        assert!(trace.quiescent, "lease-off runs quiesce");
        for e in &trace.events {
            assert!(
                !matches!(e.served, Some(Served::Lease { .. })),
                "no lease service without a lease config"
            );
        }
        for i in 0..3u32 {
            assert_eq!(c.replica(r(i)).stats().lease_reads, 0);
        }
        trace
            .events
            .iter()
            .map(|e| (e.meta.id(), e.value.clone(), e.served))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(17), run(17));
}

/// Leader failover mid-lease: the old leaseholder crashes, a new leader
/// takes over only after every outstanding guard has expired on its own
/// clock, and strong reads served afterwards — by lease or by TOB —
/// still see every committed write. No stale strong read, ever.
#[test]
fn failover_mid_lease_never_serves_stale() {
    let lease = LeaseConfig::default();
    let sim = SimConfig::new(3, 23)
        .with_crash(ms(800), r(0))
        .with_max_time(ms(8_000));
    let cfg = ClusterConfig::new(3, 23).with_sim(sim).with_lease(lease);
    let mut c: BayouCluster<KvStore> = BayouCluster::new(cfg);
    c.invoke_at(ms(1), r(0), KvOp::put("k", 1), Level::Strong);
    // r0 holds the lease by now; crash at 800ms leaves its guards live
    c.invoke_at(ms(700), r(0), KvOp::get("k"), Level::Strong);
    // after the crash: a write through the new leader, then reads
    c.invoke_at(ms(1_500), r(1), KvOp::put("k", 2), Level::Strong);
    c.invoke_at(ms(3_500), r(1), KvOp::get("k"), Level::Strong);
    let trace = c.run_until(ms(8_000));

    let pre = trace
        .events
        .iter()
        .find(|e| e.invoked_at == ms(700))
        .unwrap();
    assert!(
        matches!(pre.served, Some(Served::Lease { .. })),
        "pre-crash read should be lease-served: {:?}",
        pre.served
    );
    assert_eq!(pre.value, Some(Value::Int(1)));
    let post = trace
        .events
        .iter()
        .find(|e| e.invoked_at == ms(3_500))
        .unwrap();
    assert_eq!(
        post.value,
        Some(Value::Int(2)),
        "post-failover strong read must see the new write ({:?})",
        post.served
    );
}

/// Follower session reads: a guarded weak read at a partitioned-away
/// follower is refused with a typed `Retry` carrying the follower's
/// cursor; after the partition heals and the follower catches up, the
/// same guard is served with the session's write visible.
#[test]
fn guarded_read_retries_until_the_follower_catches_up() {
    let net = NetworkConfig {
        partitions: PartitionSchedule::new(vec![Partition::new(
            ms(0),
            ms(1_000),
            vec![vec![r(0)], vec![r(1)]],
        )]),
        ..Default::default()
    };
    let sim = SimConfig::new(2, 31)
        .with_net(net)
        .with_max_time(ms(10_000));
    let cfg = ClusterConfig::new(2, 31).with_sim(sim);
    let mut c: BayouCluster<KvStore> = BayouCluster::new(cfg);

    // session writes at replica 0: dots (r0, 1) — the session cursor
    c.invoke_at(ms(1), r(0), KvOp::put("s", 9), Level::Weak);
    let guard = SessionGuard {
        origin: r(0),
        min_seq: 1,
        min_commit: 0,
    };
    // inside the partition: replica 1 cannot have seen the write
    c.schedule_at(
        ms(100),
        r(1),
        Invocation::weak(KvOp::get("s")).with_guard(guard),
    );
    // after the heal + RB retransmission: the follower has caught up
    c.schedule_at(
        ms(3_000),
        r(1),
        Invocation::weak(KvOp::get("s")).with_guard(guard),
    );
    let trace = c.run_until(ms(10_000));

    let reads: Vec<_> = trace.events.iter().filter(|e| e.replica == r(1)).collect();
    assert_eq!(reads.len(), 2);
    assert_eq!(
        reads[0].served,
        Some(Served::Retry {
            seen_seq: 0,
            committed: 0
        }),
        "lagging follower must refuse the guarded read"
    );
    assert!(
        matches!(reads[1].served, Some(Served::Speculative)),
        "caught-up follower serves the guarded read: {:?}",
        reads[1].served
    );
    assert_eq!(
        reads[1].value,
        Some(Value::Int(9)),
        "read-your-writes: the session's write is visible"
    );
    assert_eq!(c.replica(r(1)).stats().session_retries, 1);
}

/// An unguarded weak read never retries — the guard is strictly opt-in.
#[test]
fn unguarded_weak_reads_never_retry() {
    let net = NetworkConfig {
        partitions: PartitionSchedule::new(vec![Partition::new(
            ms(0),
            ms(1_000),
            vec![vec![r(0)], vec![r(1)]],
        )]),
        ..Default::default()
    };
    let sim = SimConfig::new(2, 37).with_net(net).with_max_time(ms(5_000));
    let mut c: BayouCluster<KvStore> = BayouCluster::new(ClusterConfig::new(2, 37).with_sim(sim));
    c.invoke_at(ms(1), r(0), KvOp::put("s", 9), Level::Weak);
    c.invoke_at(ms(100), r(1), KvOp::get("s"), Level::Weak);
    let trace = c.run_until(ms(5_000));
    let read = trace.events.iter().find(|e| e.replica == r(1)).unwrap();
    assert_eq!(read.served, Some(Served::Speculative));
    // stale (the partition hides the write) — exactly what an unguarded
    // weak read is allowed to be
    assert_eq!(read.value, Some(Value::None));
}
