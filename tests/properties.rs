//! Property-based integration tests (proptest): protocol invariants that
//! must hold for *every* randomly generated workload and schedule.

use bayou::prelude::*;
use proptest::prelude::*;

fn ms(v: u64) -> VirtualTime {
    VirtualTime::from_millis(v)
}

/// A randomly generated invocation plan: (time-offset ms, replica, op
/// selector, strong?).
fn plan_strategy(n: u32, max_ops: usize) -> impl Strategy<Value = Vec<(u64, u32, u8, bool)>> {
    proptest::collection::vec(
        (0u64..200, 0u32..n, 0u8..6, proptest::bool::weighted(0.25)),
        1..max_ops,
    )
}

fn op_from(selector: u8, k: usize) -> KvOp {
    match selector {
        0 => KvOp::put(format!("k{}", k % 4), k as i64),
        1 => KvOp::put_if_absent(format!("k{}", k % 4), k as i64),
        2 => KvOp::remove(format!("k{}", k % 4)),
        3 => KvOp::get(format!("k{}", k % 4)),
        4 => KvOp::Size,
        _ => KvOp::put(format!("x{}", k % 2), -(k as i64)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Convergence: whatever the workload, a stable run ends with equal
    /// committed lists and equal states everywhere.
    #[test]
    fn replicas_always_converge(plan in plan_strategy(3, 14), seed in 0u64..1000) {
        let mut cluster: BayouCluster<KvStore> =
            BayouCluster::new(ClusterConfig::new(3, seed));
        for (k, (t, r, sel, strong)) in plan.iter().enumerate() {
            let level = if *strong { Level::Strong } else { Level::Weak };
            cluster.invoke_at(ms(1 + t), ReplicaId::new(*r), op_from(*sel, k), level);
        }
        let trace = cluster.run_until(VirtualTime::from_secs(30));
        prop_assert!(trace.events.iter().all(|e| !e.is_pending()));
        cluster.assert_convergence(&[]);
        // every replica's retained committed list is the recorded TOB
        // order above its compaction offset
        for r in ReplicaId::all(3) {
            let replica = cluster.replica(r);
            let off = replica.compacted_count() as usize;
            prop_assert_eq!(replica.committed_total() as usize, trace.tob_order.len());
            prop_assert_eq!(replica.committed_ids(), trace.tob_order[off..].to_vec());
        }
    }

    /// The Theorem 2 guarantee is not just for hand-picked runs: every
    /// random stable run passes FEC(weak) ∧ Seq(strong).
    #[test]
    fn fec_weak_and_seq_strong_hold(plan in plan_strategy(3, 10), seed in 0u64..1000) {
        let mut cluster: BayouCluster<KvStore> =
            BayouCluster::new(ClusterConfig::new(3, seed));
        // space the ops out so sessions stay sequential (one op per
        // replica in flight): use disjoint per-replica time slots
        let mut next_slot = [0u64; 3];
        for (k, (t, r, sel, strong)) in plan.iter().enumerate() {
            let ri = *r as usize;
            let at = 1 + next_slot[ri] * 700 + t % 100;
            next_slot[ri] += 1;
            let level = if *strong { Level::Strong } else { Level::Weak };
            cluster.invoke_at(ms(at), ReplicaId::new(*r), op_from(*sel, k), level);
        }
        let trace = cluster.run_until(VirtualTime::from_secs(60));
        prop_assert!(trace.events.iter().all(|e| !e.is_pending()));
        let w = build_witness::<KvStore>(&trace).unwrap();
        let opts = CheckOptions::with_horizon(ms(600));
        let fec = check_fec::<KvStore>(&w, Level::Weak, &opts);
        prop_assert!(fec.ok(), "{}", fec);
        let seq = check_seq::<KvStore>(&w, Level::Strong);
        prop_assert!(seq.ok(), "{}", seq);
    }

    /// Determinism: identical configuration and seed give identical
    /// traces, bit for bit.
    #[test]
    fn runs_are_reproducible(plan in plan_strategy(3, 8), seed in 0u64..1000) {
        let run = || {
            let mut cluster: BayouCluster<KvStore> =
                BayouCluster::new(ClusterConfig::new(3, seed));
            for (k, (t, r, sel, strong)) in plan.iter().enumerate() {
                let level = if *strong { Level::Strong } else { Level::Weak };
                cluster.invoke_at(ms(1 + t), ReplicaId::new(*r), op_from(*sel, k), level);
            }
            let trace = cluster.run_until(VirtualTime::from_secs(30));
            (
                trace.tob_order.clone(),
                trace
                    .events
                    .iter()
                    .map(|e| (e.meta.id(), e.value.clone(), e.returned_at))
                    .collect::<Vec<_>>(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// Partitions delay but never corrupt: after any single partition
    /// heals, all updates are applied exactly once everywhere.
    #[test]
    fn partition_never_loses_updates(
        at_ms in 5u64..80,
        len_ms in 50u64..400,
        k in 1usize..3,
        seed in 0u64..500,
    ) {
        let net = NetworkConfig {
            partitions: PartitionSchedule::new(vec![Partition::split_at(
            ms(at_ms), ms(at_ms + len_ms), k, 3,
        )]),
            ..Default::default()
        };
        let sim = SimConfig::new(3, seed).with_net(net);
        let cfg = ClusterConfig::new(3, seed).with_sim(sim);
        let mut cluster: BayouCluster<Counter> = BayouCluster::new(cfg);
        for i in 0..9u64 {
            cluster.invoke_at(
                ms(1 + i * 15),
                ReplicaId::new((i % 3) as u32),
                CounterOp::Add(1),
                Level::Weak,
            );
        }
        let trace = cluster.run_until(VirtualTime::from_secs(30));
        prop_assert!(trace.events.iter().all(|e| !e.is_pending()));
        cluster.assert_convergence(&[]);
        prop_assert_eq!(cluster.replica(ReplicaId::new(0)).materialize(), 9);
    }
}
