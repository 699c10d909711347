//! Frames leave when the wake ends: in the simulator a host's coalesced
//! frames leave once per busy period (a run of at most `WAKE_DRAIN`
//! handlers with no idle CPU between them), never on a timer.
//!
//! The wake changes only when frames leave, never which events happen,
//! so what must hold is the protocol's contract under that timing:
//!
//! * **completion & convergence**: every invocation completes and all
//!   replicas converge to one state under a bursty schedule, across all
//!   eight data types, and the total order holds no request twice;
//! * **determinism**: a run is a pure function of the seed — repeating
//!   it reproduces the identical trace bit for bit;
//! * **no wait**: a lone operation in an idle cluster is a busy period
//!   of one step, so its frames leave at the end of that step, with no
//!   timer involved.

use bayou_core::{BayouCluster, ClusterConfig};
use bayou_data::{
    AddRemoveSet, AppendList, Bank, Calendar, Counter, CounterOp, InvertibleDataType, KvStore,
    RandomOp, RwRegister, Script,
};
use bayou_sim::{CpuConfig, NetworkConfig, SimConfig};
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
) -> Observation<F::State> {
    let mut c: BayouCluster<F> = BayouCluster::new(ClusterConfig::new(n, seed));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xDEF2);
    for k in 0..ops {
        let op = F::random_op(&mut rng);
        let level = if k % 7 == 3 {
            Level::Strong
        } else {
            Level::Weak
        };
        // a bursty schedule: invocations 15 µs apart land on replicas
        // still busy with earlier steps, so busy periods span several
        let at = VirtualTime::from_micros(15 * k as u64 + 1);
        c.invoke_at(at, ReplicaId::new((k % n) as u32), op, level);
    }
    let trace = c.run_until(VirtualTime::from_secs(120));
    assert!(
        trace.events.iter().all(|e| !e.is_pending()),
        "every invocation must complete (seed {seed})"
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

fn assert_wake_run_sound<F: InvertibleDataType + RandomOp>(seed: u64, ops: usize, n: usize) {
    let run = observe::<F>(seed, ops, n);
    assert_eq!(
        run,
        observe::<F>(seed, ops, n),
        "a run must be a pure function of the seed (seed {seed}, ops {ops}, n {n})"
    );
    let order = &run.0;
    let distinct: BTreeSet<ReqId> = order.iter().copied().collect();
    assert_eq!(distinct.len(), order.len(), "no request committed twice");
}

macro_rules! wake_soundness {
    ($name:ident, $ty:ty) => {
        mod $name {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig { cases: 8, ..Default::default() })]

                #[test]
                fn bursty_runs_complete_converge_and_repeat(
                    seed in 0u64..10_000,
                    ops in 8usize..24,
                ) {
                    assert_wake_run_sound::<$ty>(seed, ops, 3);
                }
            }
        }
    };
}

wake_soundness!(append_list, AppendList);
wake_soundness!(kv_store, KvStore);
wake_soundness!(counter, Counter);
wake_soundness!(add_remove_set, AddRemoveSet);
wake_soundness!(bank, Bank);
wake_soundness!(calendar, Calendar);
wake_soundness!(rw_register, RwRegister);
wake_soundness!(script, Script);

/// A lone strong op in an idle cluster: its invocation is a busy period
/// of one step, so the frames it sends leave when that step's CPU time
/// ends — not one tick later, and with no timer firing in between — and
/// the op completes in a few link hops, far under any retransmission
/// period.
#[test]
fn a_lone_op_releases_its_frames_at_the_end_of_its_own_step() {
    let step = CpuConfig::default().step_cost();
    let sim = SimConfig::new(3, 9).with_net(NetworkConfig::fixed(VirtualTime::from_millis(1)));
    let mut c: BayouCluster<Counter> = BayouCluster::new(ClusterConfig::new(3, 9).with_sim(sim));
    // the first strong op elects the leader; the cluster then idles
    c.invoke_at(
        VirtualTime::from_millis(1),
        ReplicaId::new(0),
        CounterOp::Add(1),
        Level::Strong,
    );
    let warm = c.run();
    assert!(warm.events.iter().all(|e| !e.is_pending()));
    assert!(
        warm.end_time < VirtualTime::from_secs(1),
        "the cluster idles"
    );

    let at = VirtualTime::from_secs(1);
    c.invoke_at(at, ReplicaId::new(1), CounterOp::Add(2), Level::Strong);
    let (sent, fired) = (c.metrics().messages_sent, c.metrics().timers_fired);
    while c.step_until(at + step) == Some(true) {}
    assert!(
        c.metrics().messages_sent > sent,
        "the invocation's frames left at the end of its step"
    );
    assert_eq!(c.metrics().timers_fired, fired, "no timer released them");

    let trace = c.run();
    let lone = trace
        .events
        .iter()
        .max_by_key(|e| e.invoked_at)
        .expect("two events");
    let took = lone.returned_at.expect("completed") - lone.invoked_at;
    assert!(
        took < VirtualTime::from_millis(10),
        "a lone strong op took {took}"
    );
    c.assert_convergence(&[]);
}
