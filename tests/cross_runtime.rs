//! Cross-runtime test: the identical Bayou process — a one-group
//! `GroupedReplica` host, the process the server runs — produces
//! equivalent outcomes on the deterministic simulator and on the live
//! threaded runtime.

use bayou::net::{LiveCluster, LiveConfig};
use bayou::prelude::*;
use std::time::Duration;

#[test]
fn sim_and_live_agree_on_final_state() {
    let ops: Vec<(u32, KvOp)> = vec![
        (0, KvOp::put("a", 1)),
        (1, KvOp::put("b", 2)),
        (2, KvOp::put_if_absent("a", 99)),
        (0, KvOp::remove("b")),
        (1, KvOp::put("c", 3)),
    ];

    // --- simulator -----------------------------------------------------
    let mut sim_cluster: BayouCluster<KvStore> = BayouCluster::new(ClusterConfig::new(3, 8));
    for (k, (r, op)) in ops.iter().enumerate() {
        // spaced out so the interleaving is sequential in both runtimes
        sim_cluster.invoke_at(
            VirtualTime::from_millis(1 + 300 * k as u64),
            ReplicaId::new(*r),
            op.clone(),
            Level::Weak,
        );
    }
    sim_cluster.run_until(VirtualTime::from_secs(30));
    sim_cluster.assert_convergence(&[]);
    let sim_state = sim_cluster.replica(ReplicaId::new(0)).materialize();

    // --- live runtime ----------------------------------------------------
    let g0 = GroupId::new(0);
    let live = LiveCluster::new(LiveConfig::new(3), |_, n| {
        let group =
            BayouReplica::<KvStore, _>::new(n, ProtocolMode::Improved, PaxosTob::with_defaults(n));
        GroupedReplica::new(vec![group])
    });
    for (r, op) in &ops {
        live.invoke(ReplicaId::new(*r), (g0, Invocation::weak(op.clone())));
        // sequential submission, mirroring the simulated spacing
        assert!(
            live.recv_output(Duration::from_secs(10)).is_some(),
            "weak op must respond"
        );
        std::thread::sleep(Duration::from_millis(30));
    }
    std::thread::sleep(Duration::from_millis(800)); // let TOB settle
    let hosts = live.shutdown();

    let live_state = hosts[0].group(g0).materialize();
    for host in &hosts {
        let rep = host.group(g0);
        assert_eq!(rep.materialize(), live_state, "live replicas diverged");
        assert!(rep.tentative_ids().is_empty());
    }
    assert_eq!(
        sim_state, live_state,
        "simulator and live runtime disagree on the final state"
    );
}

#[test]
fn live_strong_op_is_sequentially_consistent_with_weak_history() {
    let g0 = GroupId::new(0);
    let live = LiveCluster::new(LiveConfig::new(3), |_, n| {
        let group =
            BayouReplica::<Counter, _>::new(n, ProtocolMode::Improved, PaxosTob::with_defaults(n));
        GroupedReplica::new(vec![group])
    });
    for _ in 0..5 {
        live.invoke(ReplicaId::new(0), (g0, Invocation::weak(CounterOp::Add(2))));
        assert!(live.recv_output(Duration::from_secs(5)).is_some());
    }
    std::thread::sleep(Duration::from_millis(500)); // let the adds commit
    live.invoke(ReplicaId::new(1), (g0, Invocation::strong(CounterOp::Read)));
    let (_, (_, resp)) = live
        .recv_output(Duration::from_secs(10))
        .expect("strong read completes");
    assert_eq!(
        resp.value,
        Value::Int(10),
        "strong read sees all committed adds"
    );
    live.shutdown();
}
