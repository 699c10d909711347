//! Replaying a simulator fault schedule against the live runtime.
//!
//! `bayou_sim::Nemesis` schedules are lists of timed faults; the live
//! [`bayou_net::PartitionControl`] mirrors the simulator's partition
//! constructors (`split_at`/`isolate`), so the same schedule that drove
//! a deterministic DST run can be walked in wall-clock time against real
//! threads. The live run is not deterministic, of course — the point is
//! that a schedule shape found interesting (or shrunken) in the
//! simulator can be re-exercised against the real runtime without
//! translation.

use bayou_broadcast::{PaxosConfig, PaxosTob};
use bayou_core::{recover_paxos_replica, GroupedReplica, Invocation, ProtocolMode};
use bayou_data::{DeltaState, KvOp, KvStore};
use bayou_net::{LiveCluster, LiveConfig, PartitionControl};
use bayou_sim::{Fault, Nemesis};
use bayou_storage::{FileStorage, StoreConfig};
use bayou_types::{GroupId, ReplicaId, VirtualTime};
use std::time::{Duration, Instant};

type LiveBayou = LiveCluster<
    GroupedReplica<KvStore, PaxosTob<bayou_types::SharedReq<KvOp>>, DeltaState<KvStore>>,
>;

/// Walks a nemesis schedule in wall-clock time, applying each supported
/// fault through the live control surface (outages become
/// crash/restart, partitions map through the mirrored constructors;
/// simulator-only faults — clock skew, CPU/fsync latency, loss bursts —
/// are skipped). Returns the number of fault edges applied.
///
/// The live control holds a *single* partition slot, so only schedules
/// whose partitions do not overlap in time can be replayed faithfully;
/// an overlapping pair panics instead of silently replaying a different
/// fault pattern. `Heal` sorts before `Partition` at equal timestamps
/// so back-to-back windows (`[a, b)` then `[b, c)`) hand over cleanly.
fn replay(cluster: &LiveBayou, ctl: &PartitionControl, nem: &Nemesis) -> usize {
    #[derive(PartialEq, Eq, PartialOrd, Ord)]
    enum Edge {
        Crash(ReplicaId),
        Restart(ReplicaId),
        Heal,
        Partition(Vec<Vec<ReplicaId>>),
    }
    let mut edges: Vec<(VirtualTime, Edge)> = Vec::new();
    for f in nem.faults() {
        match f {
            Fault::Outage {
                replica,
                from,
                until,
            } => {
                edges.push((*from, Edge::Crash(*replica)));
                edges.push((*until, Edge::Restart(*replica)));
            }
            Fault::Partition {
                from,
                until,
                blocks,
            } => {
                edges.push((*from, Edge::Partition(blocks.clone())));
                edges.push((*until, Edge::Heal));
            }
            // timing-model faults have no live equivalent (yet)
            Fault::ClockSkew { .. }
            | Fault::SlowCpu { .. }
            | Fault::FsyncLatency { .. }
            | Fault::LossBurst { .. } => {}
        }
    }
    edges.sort();
    let start = Instant::now();
    let applied = edges.len();
    let mut active_partitions = 0usize;
    for (at, edge) in edges {
        let due = Duration::from_nanos(at.as_nanos());
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        match edge {
            Edge::Crash(r) => ctl.crash(r),
            Edge::Restart(r) => cluster.restart(r),
            Edge::Partition(blocks) => {
                active_partitions += 1;
                assert!(
                    active_partitions == 1,
                    "schedule has overlapping partitions — not expressible \
                     through the single-slot live PartitionControl"
                );
                ctl.partition(blocks);
            }
            Edge::Heal => {
                active_partitions -= 1;
                ctl.heal();
            }
        }
    }
    applied
}

#[test]
fn simulated_schedule_replays_against_the_live_cluster() {
    let n = 3;
    // durable replicas (the restart model the DST harness also uses):
    // a bounced replica recovers its pre-crash state from its directory
    let root = std::env::temp_dir().join(format!(
        "bayou-nemesis-replay-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let _ = std::fs::remove_dir_all(&root);
    let factory_root = root.clone();
    let cluster: LiveBayou = LiveCluster::new(LiveConfig::new(n), move |id, n| {
        let dir = factory_root.join(format!("replica-{}", id.index()));
        let backend = FileStorage::open(dir).expect("open replica dir");
        recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
            id,
            n,
            ProtocolMode::Improved,
            PaxosConfig::default(),
            backend,
            StoreConfig {
                snapshot_every: 8,
                ..Default::default()
            },
        )
    });

    // the control surface mirrors the simulator's partition shapes
    let ctl = cluster.control();
    assert_eq!(ctl.cluster_size(), n);
    ctl.isolate(ReplicaId::new(2));
    ctl.heal();
    ctl.split_at(1);
    ctl.heal();

    // a small schedule in the simulator's own vocabulary: an isolation
    // that heals, then a single-replica outage that restarts
    let ms = VirtualTime::from_millis;
    let nem = Nemesis::from_faults(
        n,
        vec![
            Fault::Partition {
                from: ms(100),
                until: ms(400),
                blocks: vec![
                    vec![ReplicaId::new(2)],
                    vec![ReplicaId::new(0), ReplicaId::new(1)],
                ],
            },
            Fault::Outage {
                replica: ReplicaId::new(1),
                from: ms(500),
                until: ms(800),
            },
            // skipped by the live replay: no wall-clock equivalent
            Fault::ClockSkew {
                replica: ReplicaId::new(0),
                offset_us: 1_000,
                rate: 1.5,
            },
        ],
    );

    // workload on replica 0 (never faulted) ahead of the schedule
    let put = |k: u32| {
        (
            GroupId::new(0),
            Invocation::weak(KvOp::put(format!("k{k}"), k as i64)),
        )
    };
    for k in 0..6u32 {
        cluster.invoke(ReplicaId::new(0), put(k));
        std::thread::sleep(Duration::from_millis(40));
    }
    let applied = replay(&cluster, cluster.control(), &nem);
    assert_eq!(applied, 4, "two outage edges + two partition edges");
    for k in 6..10u32 {
        cluster.invoke(ReplicaId::new(0), put(k));
    }
    // drain the weak responses, then let the TOB settle post-heal
    for _ in 0..10 {
        assert!(
            cluster.recv_output(Duration::from_secs(5)).is_some(),
            "weak response missing"
        );
    }
    std::thread::sleep(Duration::from_millis(900));

    let hosts = cluster.shutdown();
    assert_eq!(hosts.len(), n);
    let replicas: Vec<_> = hosts.iter().map(|h| h.group(GroupId::new(0))).collect();
    let s0 = replicas[0].materialize();
    assert_eq!(s0.len(), 10, "all writes committed: {s0:?}");
    for r in &replicas[1..] {
        assert_eq!(r.materialize(), s0, "live replay diverged");
        assert!(r.tentative_ids().is_empty());
    }
    let _ = std::fs::remove_dir_all(&root);
}
