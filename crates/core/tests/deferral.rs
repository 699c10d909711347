//! Equivalence of cross-step flush deferral
//! (`GroupedReplica::set_flush_deferral`, the default-on half of the
//! zero-copy wire path).
//!
//! Unlike delivery batching, deferral *does* change the message flow —
//! frames from consecutive handler steps merge, which can reorder TOB
//! submissions between replicas — so the two modes are not bit-identical
//! runs. What must hold instead (the same contract the coalescing tests
//! use, strengthened):
//!
//! * **completion & convergence**: every invocation completes and all
//!   replicas converge to one state, with and without deferral, across
//!   all eight data types;
//! * **same committed set**: the two modes commit exactly the same
//!   requests (deferral delays frames, it never drops or duplicates);
//! * **determinism**: a deferred run is a pure function of the seed —
//!   repeating it reproduces the identical trace bit for bit;
//! * **message reduction**: under saturation, deferral cuts messages/op
//!   further below the per-step-coalescing floor (that is its point).

use bayou_core::{BayouCluster, ClusterConfig};
use bayou_data::{
    AddRemoveSet, AppendList, Bank, Calendar, Counter, InvertibleDataType, KvStore, RandomOp,
    RwRegister, Script,
};
use bayou_types::{Level, ReplicaId, ReqId, Value, VirtualTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Everything observable about one run.
type Observation<St> = (
    Vec<ReqId>,  // recorded TOB order
    VirtualTime, // end time
    Vec<(
        ReqId,
        Option<VirtualTime>,
        Option<Value>,
        Option<Vec<ReqId>>,
    )>, // trace
    Vec<St>,     // final states
    Vec<Vec<ReqId>>, // retained committed lists
    u64,         // messages sent
);

fn observe<F: InvertibleDataType + RandomOp>(
    seed: u64,
    ops: usize,
    n: usize,
    deferral: bool,
) -> Observation<F::State> {
    let mut cfg = ClusterConfig::new(n, seed);
    if !deferral {
        cfg = cfg.without_flush_deferral();
    }
    let mut c: BayouCluster<F> = BayouCluster::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEF2);
    for k in 0..ops {
        let op = F::random_op(&mut rng);
        let level = if k % 7 == 3 {
            Level::Strong
        } else {
            Level::Weak
        };
        // a bursty schedule, so consecutive invocations actually land
        // inside one deferral budget
        let at = VirtualTime::from_micros(15 * k as u64 + 1);
        c.invoke_at(at, ReplicaId::new((k % n) as u32), op, level);
    }
    let trace = c.run_until(VirtualTime::from_secs(120));
    assert!(
        trace.events.iter().all(|e| !e.is_pending()),
        "every invocation must complete (seed {seed}, deferral {deferral})"
    );
    c.assert_convergence(&[]);
    let events = trace
        .events
        .iter()
        .map(|e| {
            (
                e.meta.id(),
                e.returned_at,
                e.value.clone(),
                e.exec_trace.clone(),
            )
        })
        .collect();
    let states = ReplicaId::all(n)
        .map(|r| c.replica(r).materialize())
        .collect();
    let committed = ReplicaId::all(n)
        .map(|r| c.replica(r).committed_ids())
        .collect();
    (
        trace.tob_order.clone(),
        trace.end_time,
        events,
        states,
        committed,
        c.metrics().messages_sent,
    )
}

fn assert_deferral_equivalent<F: InvertibleDataType + RandomOp>(seed: u64, ops: usize, n: usize) {
    let deferred = observe::<F>(seed, ops, n, true);
    let flushed = observe::<F>(seed, ops, n, false);

    // deferral is deterministic: same seed, same run, bit for bit
    let deferred_again = observe::<F>(seed, ops, n, true);
    assert_eq!(
        deferred, deferred_again,
        "deferred run must be a pure function of the seed \
         (seed {seed}, ops {ops}, n {n})"
    );

    // same requests committed, whatever the frame timing did to the order
    let committed_set =
        |o: &Observation<F::State>| -> BTreeSet<ReqId> { o.0.iter().copied().collect() };
    assert_eq!(
        committed_set(&deferred),
        committed_set(&flushed),
        "deferral must commit exactly the flushed run's requests \
         (seed {seed}, ops {ops}, n {n})"
    );
    assert_eq!(deferred.0.len(), flushed.0.len(), "no duplicates");
}

macro_rules! deferral_equivalence {
    ($name:ident, $ty:ty) => {
        mod $name {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig { cases: 8, ..Default::default() })]

                #[test]
                fn deferred_matches_flushed(seed in 0u64..10_000, ops in 8usize..24) {
                    assert_deferral_equivalent::<$ty>(seed, ops, 3);
                }
            }
        }
    };
}

deferral_equivalence!(append_list, AppendList);
deferral_equivalence!(kv_store, KvStore);
deferral_equivalence!(counter, Counter);
deferral_equivalence!(add_remove_set, AddRemoveSet);
deferral_equivalence!(bank, Bank);
deferral_equivalence!(calendar, Calendar);
deferral_equivalence!(rw_register, RwRegister);
deferral_equivalence!(script, Script);

/// Deferral's raison d'être: under a saturating open-loop workload it
/// must reduce the message count below the flush-every-step pipeline's.
#[test]
fn deferral_reduces_messages_under_saturation() {
    let run = |deferral: bool| {
        let mut cfg = ClusterConfig::new(3, 11);
        if !deferral {
            cfg = cfg.without_flush_deferral();
        }
        let mut c: BayouCluster<Counter> = BayouCluster::new(cfg);
        for k in 0..400usize {
            c.invoke_at(
                VirtualTime::from_micros(2 * k as u64 + 1),
                ReplicaId::new((k % 3) as u32),
                bayou_data::CounterOp::Add(1),
                Level::Weak,
            );
        }
        let trace = c.run_until(VirtualTime::from_secs(60));
        assert!(trace.events.iter().all(|e| !e.is_pending()));
        c.assert_convergence(&[]);
        assert_eq!(c.replica(ReplicaId::new(0)).materialize(), 400);
        c.metrics().messages_sent
    };
    let deferred = run(true);
    let flushed = run(false);
    assert!(
        deferred * 2 <= flushed,
        "deferral should at least halve the saturated message count \
         (deferred {deferred}, flushed {flushed})"
    );
}

/// A strong operation waits on no flush timer: every step on its round
/// (the invocation, then `Submit`, `Accept` and `Accepted` for its entry)
/// flushes at its end, so in an idle cluster it completes at exactly the
/// virtual time a cluster without deferral gives it — at the leader
/// (two hops) and at each follower (four). Parking those hops cost
/// ~40 µs each.
#[test]
fn lone_strong_op_completes_as_if_deferral_were_off() {
    let latency = |deferral: bool, origin: u32| {
        let sim = bayou_sim::SimConfig::new(3, 9)
            .with_net(bayou_sim::NetworkConfig::fixed(VirtualTime::from_millis(1)));
        let mut cfg = ClusterConfig::new(3, 9).with_sim(sim);
        if !deferral {
            cfg = cfg.without_flush_deferral();
        }
        let mut c: BayouCluster<Counter> = BayouCluster::new(cfg);
        // the first strong op elects the leader; the cluster then idles
        c.invoke_at(
            VirtualTime::from_millis(1),
            ReplicaId::new(0),
            bayou_data::CounterOp::Add(1),
            Level::Strong,
        );
        c.invoke_at(
            VirtualTime::from_millis(500),
            ReplicaId::new(origin),
            bayou_data::CounterOp::Add(2),
            Level::Strong,
        );
        let trace = c.run_until(VirtualTime::from_secs(2));
        c.assert_convergence(&[]);
        let lone = trace
            .events
            .iter()
            .max_by_key(|e| e.invoked_at)
            .expect("two events");
        lone.returned_at.expect("completed") - lone.invoked_at
    };
    for origin in 0..3 {
        assert_eq!(
            latency(true, origin),
            latency(false, origin),
            "a strong op invoked at replica {origin} waited on a flush timer"
        );
    }
}

/// An isolated invocation must still go out promptly: with nothing else
/// happening, the deferral budget (not a retransmission timeout) bounds
/// the extra latency, so a single op completes in far under a
/// retransmission period.
#[test]
fn single_invocation_is_not_wedged_by_deferral() {
    let mut c: BayouCluster<Counter> = BayouCluster::new(ClusterConfig::new(3, 5));
    c.invoke_at(
        VirtualTime::from_millis(1),
        ReplicaId::new(0),
        bayou_data::CounterOp::Add(7),
        Level::Strong, // strong: the response needs full TOB agreement
    );
    let trace = c.run_until(VirtualTime::from_secs(10));
    assert!(trace.events.iter().all(|e| !e.is_pending()));
    let returned = trace.events[0].returned_at.expect("completed");
    // well under the 60 ms RB retransmission period: the flush timer,
    // not the retransmit safety net, released the deferred frames
    assert!(
        returned < VirtualTime::from_millis(50),
        "strong op took {returned} — deferred frames were not timer-flushed"
    );
    c.assert_convergence(&[]);
}
