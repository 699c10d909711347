//! Wake-latency regression: how long a request sits between the threads
//! of an in-memory 3-replica cluster, with nothing else to wait for.
//!
//! A weak operation is one wake-up of its home replica and one of the
//! caller; a strong one adds a broadcast round (a wake-up per hop — the
//! steps a strong op waits on flush at their end instead of parking
//! behind the flush-deferral timer). Sequential round trips leave every
//! thread parked between requests, so the medians are what a wake-up
//! costs: 20 µs and 50 µs on the host this was last measured on, where
//! strong hops parked behind the timer gave 410 µs, and replicas that
//! polled their channels every 200 µs gave 183 µs and 2.1 ms.
//!
//! Timing-sensitive, so `#[ignore]`; CI runs it in release:
//! `cargo test --release -p bayou-net --test wake_latency -- --ignored`.

use bayou_broadcast::PaxosTob;
use bayou_core::{BayouReplica, Invocation, ProtocolMode};
use bayou_data::{KvOp, KvStore};
use bayou_net::{LiveCluster, LiveConfig};
use bayou_types::{Level, ReplicaId, SharedReq};
use std::time::{Duration, Instant};

type LiveBayou = LiveCluster<BayouReplica<KvStore, PaxosTob<SharedReq<KvOp>>>>;

/// Median latency of `count` sequential `invoke` → `recv_output` round
/// trips at `level`, homed round-robin.
fn median_round_trip(cluster: &LiveBayou, level: Level, count: usize) -> Duration {
    let mut latencies: Vec<Duration> = (0..count)
        .map(|i| {
            let op = KvOp::put(format!("k{}", i % 16), i as i64);
            let sent = Instant::now();
            cluster.invoke(ReplicaId::new(i as u32 % 3), Invocation::new(op, level));
            let (_, response) = cluster
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
        BayouReplica::new(n, ProtocolMode::Improved, PaxosTob::with_defaults(n))
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
