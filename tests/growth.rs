//! Nothing a serving replica holds grows with the operations it served.
//!
//! The structures that used to gain an entry per operation — the
//! reliable broadcast's dedup set, the links' receive windows, the TOB's
//! key sets and the state object's trace — and the broadcast's queue of
//! unacknowledged broadcasts that bounds the first are read through
//! [`BayouReplica::retained`](bayou::core::BayouReplica::retained) on a
//! durable, compacting three-replica cluster (the configuration the
//! server runs) that serves N operations and then 3N more, with one
//! replica killed and restarted along the way. Every count stays under
//! one bound, whatever N: throughout the run (what is in flight) and
//! once the cluster has gone quiet (nothing).

use bayou::broadcast::PaxosConfig;
use bayou::core::{recover_paxos_replica, BayouCluster, ProtocolMode, Retained};
use bayou::data::{DeltaState, KvOp, KvStore};
use bayou::sim::SimConfig;
use bayou::storage::{MemDisk, StoreConfig};
use bayou::types::{GroupId, Level, ReplicaId, VirtualTime};

const REPLICAS: usize = 3;
/// Operations of the first phase; the second serves three times as many.
const N: u64 = 300;
/// Largest count any gauge may show at any point of the run: the
/// in-flight window at this arrival rate, not the operations served.
const IN_FLIGHT: usize = 64;

fn ms(v: u64) -> VirtualTime {
    VirtualTime::from_millis(v)
}

/// Operation `k`: mostly weak puts, every 8th strong, every 5th a read.
fn op(k: u64) -> (KvOp, Level) {
    let level = if k % 8 == 7 {
        Level::Strong
    } else {
        Level::Weak
    };
    let op = if k % 5 == 4 {
        KvOp::get(format!("k{}", k % 16))
    } else {
        KvOp::put(format!("k{}", k % 16), k as i64)
    };
    (op, level)
}

/// The field-wise maximum of two gauges.
fn max(a: Retained, b: Retained) -> Retained {
    Retained {
        rb_seen: a.rb_seen.max(b.rb_seen),
        rb_unacked: a.rb_unacked.max(b.rb_unacked),
        link_sparse: a.link_sparse.max(b.link_sparse),
        tob_keys: a.tob_keys.max(b.tob_keys),
        trace: a.trace.max(b.trace),
    }
}

fn every_replica(c: &BayouCluster<KvStore>) -> Retained {
    ReplicaId::all(REPLICAS)
        .map(|r| c.replica(r).retained())
        .fold(Retained::default(), max)
}

/// Schedules operations `ks` round robin, 2 ms apart from `start`, and
/// runs until the cluster is quiet (or 60 s later); returns the largest
/// gauge seen along the way and the one at the end.
fn serve(
    c: &mut BayouCluster<KvStore>,
    ks: std::ops::Range<u64>,
    start: u64,
) -> (Retained, Retained) {
    for k in ks.clone() {
        let (op, level) = op(k);
        let at = ms(start + 2 * (k - ks.start));
        c.invoke_at(at, ReplicaId::new((k % REPLICAS as u64) as u32), op, level);
    }
    let deadline = ms(start + 2 * (ks.end - ks.start) + 60_000);
    let mut peak = Retained::default();
    let mut steps = 0u64;
    while c.step_until(deadline) == Some(true) {
        steps += 1;
        if steps.is_multiple_of(32) {
            peak = max(peak, every_replica(c));
        }
    }
    let end = every_replica(c);
    (max(peak, end), end)
}

#[test]
fn retained_state_stays_bounded_as_operations_accumulate() {
    let disks: Vec<MemDisk> = (0..REPLICAS).map(|_| MemDisk::new()).collect();
    let r0 = ReplicaId::new(0);
    // replica 0 dies a third of the way through the first phase and
    // comes back from its disk a little later
    let sim = SimConfig::new(REPLICAS, 26)
        .with_crash(ms(200), r0)
        .with_restart(ms(320), r0)
        .with_max_time(VirtualTime::from_secs(3_600));
    let mut c: BayouCluster<KvStore> = BayouCluster::with_factory(sim, move |id| {
        let mut host = recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
            id,
            REPLICAS,
            ProtocolMode::Improved,
            PaxosConfig::default(),
            disks[id.index()].clone(),
            StoreConfig::default(),
        );
        host.set_compaction(true);
        host
    });

    let (peak_n, end_n) = serve(&mut c, 0..N, 1);
    let start = c.now().as_nanos() / 1_000_000 + 1;
    let (peak_4n, end_4n) = serve(&mut c, N..4 * N, start);
    c.assert_convergence(&[]);
    assert_eq!(
        c.committed_totals(GroupId::new(0)),
        vec![c.replica(r0).committed_total(); REPLICAS]
    );

    for (phase, peak, end) in [("N", peak_n, end_n), ("4N", peak_4n, end_4n)] {
        let fields = [
            ("rb_seen", peak.rb_seen, end.rb_seen),
            ("rb_unacked", peak.rb_unacked, end.rb_unacked),
            ("link_sparse", peak.link_sparse, end.link_sparse),
            ("tob_keys", peak.tob_keys, end.tob_keys),
            ("trace", peak.trace, end.trace),
        ];
        for (name, peak, end) in fields {
            assert!(
                peak <= IN_FLIGHT,
                "{name} peaked at {peak} after {phase} operations (bound {IN_FLIGHT})"
            );
            assert_eq!(end, 0, "{name} still holds {end} once quiet after {phase}");
        }
    }
}
