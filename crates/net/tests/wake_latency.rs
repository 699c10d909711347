//! Wake-latency regression: how long a request sits between the threads
//! of an in-memory 3-replica cluster, with nothing else to wait for.
//!
//! The replicas are the one-group `GroupedReplica` hosts the server
//! runs. The caller's `invoke` runs its home replica's wake itself, and
//! then the wakes of the peers its frames reach: a weak operation is one
//! wake and the caller's read of the output channel, a strong one adds
//! a broadcast round, every hop of it on the caller's thread (each
//! wake's frames leave at its end). Sequential round trips leave every
//! replica idle between requests, so the medians are what the wakes
//! cost: 11 µs and 12 µs on the 2-vCPU host this was last measured on
//! (three runs, alternating), where a replica thread woken per hop gave
//! 22 µs and 36 µs, strong hops parked behind the timer 410 µs, and
//! replicas that polled their channels every 200 µs 183 µs and 2.1 ms.
//!
//! Timing-sensitive, so `#[ignore]`; CI runs it in release:
//! `cargo test --release -p bayou-net --test wake_latency -- --ignored`.

use bayou_broadcast::PaxosTob;
use bayou_core::{BayouReplica, GroupedReplica, Invocation, ProtocolMode};
use bayou_data::{DeltaState, KvOp, KvStore};
use bayou_net::{LiveCluster, LiveConfig};
use bayou_types::{GroupId, Level, ReplicaId, SharedReq};
use std::time::{Duration, Instant};

type LiveBayou =
    LiveCluster<GroupedReplica<KvStore, PaxosTob<SharedReq<KvOp>>, DeltaState<KvStore>>>;

/// Median latency of `count` sequential `invoke` → `recv_output` round
/// trips at `level`, homed round-robin.
fn median_round_trip(cluster: &LiveBayou, level: Level, count: usize) -> Duration {
    let mut latencies: Vec<Duration> = (0..count)
        .map(|i| {
            let op = KvOp::put(format!("k{}", i % 16), i as i64);
            let sent = Instant::now();
            let inv = Invocation::new(op, level);
            cluster.invoke(ReplicaId::new(i as u32 % 3), (GroupId::new(0), inv));
            let (_, (_, response)) = cluster
                .recv_output(Duration::from_secs(10))
                .expect("the operation is answered");
            assert_eq!(response.meta.level, level);
            sent.elapsed()
        })
        .collect();
    latencies.sort_unstable();
    latencies[count / 2]
}

#[test]
#[ignore = "timing-sensitive: run in release on a quiet host"]
fn sequential_round_trips_wake_promptly() {
    let cluster: LiveBayou = LiveCluster::new(LiveConfig::new(3), |_, n| {
        let group = BayouReplica::new(n, ProtocolMode::Improved, PaxosTob::with_defaults(n));
        GroupedReplica::new(vec![group])
    });
    // leader election and lazy set-up are not what is timed
    median_round_trip(&cluster, Level::Strong, 5);

    let weak = median_round_trip(&cluster, Level::Weak, 200);
    let strong = median_round_trip(&cluster, Level::Strong, 50);
    cluster.shutdown();
    println!("weak median {weak:?}, strong median {strong:?}");
    assert!(weak < Duration::from_micros(150), "weak median {weak:?}");
    assert!(
        strong < Duration::from_micros(400),
        "strong median {strong:?}"
    );
}
