//! The same Bayou process the server runs, on a real threaded runtime:
//! one mailbox and lock per replica, wakes run on the invoking thread,
//! channel links, wall-clock timers, and a
//! partition injected mid-run. Each replica is a one-group
//! `GroupedReplica` host, so invocations and responses carry the group
//! they belong to.
//!
//! Run with: `cargo run --example live_cluster`

use bayou::net::{LiveCluster, LiveConfig};
use bayou::prelude::*;
use std::time::Duration;

fn main() {
    println!("=== live (threaded) Bayou cluster ===\n");
    let n = 3;
    let g0 = GroupId::new(0);
    let cluster = LiveCluster::new(LiveConfig::new(n), |_, n| {
        let group =
            BayouReplica::<KvStore, _>::new(n, ProtocolMode::Improved, PaxosTob::with_defaults(n));
        GroupedReplica::new(vec![group])
    });

    // normal operation
    cluster.invoke(ReplicaId::new(0), (g0, Invocation::weak(KvOp::put("a", 1))));
    cluster.invoke(ReplicaId::new(1), (g0, Invocation::weak(KvOp::put("b", 2))));
    for _ in 0..2 {
        let (r, (_, resp)) = cluster
            .recv_output(Duration::from_secs(5))
            .expect("weak ops respond");
        println!("  {r}: {:?} -> {} (tentative)", resp.meta.dot, resp.value);
    }

    // partition replica 2 away and show weak availability vs strong blocking
    println!("\ninjecting partition: {{R0, R1}} | {{R2}}");
    cluster.control().partition(vec![
        vec![ReplicaId::new(0), ReplicaId::new(1)],
        vec![ReplicaId::new(2)],
    ]);
    cluster.invoke(ReplicaId::new(2), (g0, Invocation::weak(KvOp::put("c", 3))));
    let (r, (_, resp)) = cluster
        .recv_output(Duration::from_secs(5))
        .expect("weak op on the isolated replica still responds");
    println!(
        "  {r}: weak put during partition -> {} (available!)",
        resp.value
    );

    cluster.invoke(ReplicaId::new(2), (g0, Invocation::strong(KvOp::get("c"))));
    match cluster.recv_output(Duration::from_millis(300)) {
        None => println!("  R2: strong get during partition -> still pending (needs quorum)"),
        Some((r, (_, resp))) => println!("  {r}: unexpected early response {}", resp.value),
    }

    println!("\nhealing partition");
    cluster.control().heal();
    let (r, (_, resp)) = cluster
        .recv_output(Duration::from_secs(10))
        .expect("strong op completes after heal");
    println!("  {r}: strong get -> {} (final)", resp.value);

    // give TOB a moment to stabilise everything, then inspect final states
    std::thread::sleep(Duration::from_millis(500));
    let hosts = cluster.shutdown();
    println!("\nfinal states:");
    let first = hosts[0].group(g0).materialize();
    for (i, host) in hosts.iter().enumerate() {
        let state = host.group(g0).materialize();
        println!("  R{i}: {state:?}");
        assert_eq!(state, first, "replicas must converge");
    }
    println!("\nall replicas converged ✓");
}
