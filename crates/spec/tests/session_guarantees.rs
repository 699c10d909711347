//! Session guarantees on the follower read path: read-your-writes and
//! monotonic-reads ([`check_session`]) hold for guarded weak reads
//! served from speculative follower state, across all eight data types
//! on compacting replicas, and — value-level — across replication
//! groups.
//!
//! The scenario mirrors the serving path's session reads: one session
//! writes at replica 0, a disjoint session mixes operations at
//! replica 1, and a third session issues *guarded* weak reads at
//! replica 2 with a [`SessionGuard`] whose `min_seq` floor names every
//! write of session 0. A guarded read is either served from a
//! caught-up follower (and must then satisfy RYW + MR on the witness)
//! or refused with a typed [`Served::Retry`] cursor — never silently
//! downgraded — so the early read (scheduled before the writes can
//! possibly have propagated) checks the refusal half, and the late
//! reads check the guarantee half.

use bayou_core::{
    BayouCluster, ClusterConfig, Invocation, ProtocolMode, Served, SessionGuard, SessionScript,
};
use bayou_data::{
    AddRemoveSet, AppendList, Bank, Calendar, Counter, InvertibleDataType, KvOp, KvStore, RandomOp,
    RwRegister, Script,
};
use bayou_sim::SimConfig;
use bayou_spec::{build_witness, check_session};
use bayou_types::{GroupId, Level, ReplicaId, Value, VirtualTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn ms(v: u64) -> VirtualTime {
    VirtualTime::from_millis(v)
}

fn r(i: u32) -> ReplicaId {
    ReplicaId::new(i)
}

/// Writes session 0 performs — and therefore the `min_seq` floor the
/// guarded reads demand: dots at a replica number its admitted
/// (non-read-only) invocations 1..=N, so "I have seen all five writes"
/// is exactly `min_seq = 5`.
const WRITES: u64 = 5;

/// Runs the three-session scenario for one data type and seed and
/// checks RYW + MR on the resulting witness.
fn session_guarantees_hold<F>(name: &str, seed: u64)
where
    F: InvertibleDataType + RandomOp,
{
    let mut cluster: BayouCluster<F> = BayouCluster::new(ClusterConfig::new(3, seed));

    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));

    // Session 0: updates only. Read-only weak ops are rolled back after
    // responding and never enter the evaluation order, so they would
    // not advance the follower's seen_seq — the floor below must be
    // reachable.
    let writer = SessionScript::new(
        r(0),
        (0..WRITES)
            .map(|_| {
                let op = F::random_update(&mut rng);
                if rng.gen_bool(0.3) {
                    Invocation::strong(op)
                } else {
                    Invocation::weak(op)
                }
            })
            .collect(),
    );
    // Session 1: arbitrary mix, including reads.
    let mixer = SessionScript::new(
        r(1),
        (0..4)
            .map(|_| {
                let op = F::random_op(&mut rng);
                if rng.gen_bool(0.25) {
                    Invocation::strong(op)
                } else {
                    Invocation::weak(op)
                }
            })
            .collect(),
    );

    // Session 2: guarded weak reads, if the type's alphabet has a
    // read-only operation to draw (all eight do; the bound is a guard
    // against a degenerate RNG streak, not a semantic branch).
    let read_op = (0..256)
        .map(|_| F::random_op(&mut rng))
        .find(|op| F::is_read_only(op));
    let guarded = read_op.is_some();
    if let Some(read_op) = read_op {
        let guard = SessionGuard {
            origin: r(0),
            min_seq: WRITES,
            min_commit: 2,
        };
        // Too early to have seen five writes from replica 0: must be
        // refused with a typed cursor, not served stale.
        cluster.schedule_at(
            ms(2),
            r(2),
            Invocation::weak(read_op.clone()).with_guard(guard),
        );
        // Long after quiescence: must be served.
        for at in [800, 1_000, 1_200] {
            cluster.schedule_at(
                ms(at),
                r(2),
                Invocation::weak(read_op.clone()).with_guard(guard),
            );
        }
    }

    let trace = cluster.run_sessions(vec![writer, mixer]);

    if guarded {
        let mut served = 0usize;
        let mut refused = 0usize;
        for e in trace.events.iter().filter(|e| e.replica == r(2)) {
            match e.served {
                Some(Served::Speculative) => served += 1,
                Some(Served::Retry { seen_seq, .. }) => {
                    assert!(
                        seen_seq < WRITES,
                        "{name} seed {seed}: refusal cursor claims the floor was met"
                    );
                    refused += 1;
                }
                other => panic!("{name} seed {seed}: guarded read served as {other:?}"),
            }
        }
        // Non-vacuous on both halves: the early read was refused, the
        // late ones were served.
        assert_eq!(
            refused, 1,
            "{name} seed {seed}: early guarded read not refused"
        );
        assert_eq!(
            served, 3,
            "{name} seed {seed}: late guarded reads not served"
        );
    }

    let a = build_witness::<F>(&trace)
        .unwrap_or_else(|e| panic!("{name} seed {seed}: witness failed: {e}"));
    let report = check_session(&a);
    assert!(
        report.ok(),
        "{name} seed {seed}: session guarantees violated:\n{report}"
    );
}

macro_rules! session_guarantee_props {
    ($($test:ident => $ty:ty),+ $(,)?) => {
        $(
            proptest! {
                #![proptest_config(ProptestConfig { cases: 8, ..Default::default() })]
                #[test]
                fn $test(seed in 0u64..100_000) {
                    session_guarantees_hold::<$ty>(stringify!($ty), seed);
                }
            }
        )+
    };
}

session_guarantee_props! {
    kv_sessions => KvStore,
    list_sessions => AppendList,
    counter_sessions => Counter,
    register_sessions => RwRegister,
    set_sessions => AddRemoveSet,
    bank_sessions => Bank,
    calendar_sessions => Calendar,
    undo_script_sessions => Script,
}

/// Value-level session guarantees across replication groups: guard
/// floors are *per group* (each group's replica numbers its own dots),
/// served guarded reads observe the session's writes to that group, and
/// an unreachable floor is refused with the group-local cursor.
#[test]
fn grouped_follower_reads_honor_per_group_floors() {
    let sim = SimConfig::new(3, 71).with_max_time(VirtualTime::from_secs(30));
    let mut cluster: BayouCluster<KvStore> = BayouCluster::grouped(sim, 2, ProtocolMode::Improved);
    let g = |i: u32| GroupId::new(i);

    // Session writes from replica 0: four to group 0, three to group 1.
    for i in 0..4i64 {
        let put = Invocation::new(KvOp::put("a", i), Level::Weak);
        cluster.schedule_in(ms(1 + 2 * i as u64), r(0), g(0), put);
    }
    for i in 0..3i64 {
        let put = Invocation::new(KvOp::put("b", 10 + i), Level::Weak);
        cluster.schedule_in(ms(2 + 2 * i as u64), r(0), g(1), put);
    }

    let guard = |min_seq: u64| SessionGuard {
        origin: r(0),
        min_seq,
        min_commit: 0,
    };
    let read = |key: &str, min_seq: u64, tag: u64| {
        Invocation::weak(KvOp::get(key))
            .with_guard(guard(min_seq))
            .with_tag(tag)
    };
    // Too early for group 0's four writes: typed refusal.
    cluster.schedule_in(ms(3), r(1), g(0), read("a", 4, 100));
    // After quiescence both groups' floors are met at their own counts…
    cluster.schedule_in(ms(700), r(1), g(0), read("a", 4, 101));
    cluster.schedule_in(ms(700), r(1), g(1), read("b", 3, 102));
    // …but a floor counting *all seven* writes is unreachable in group 1:
    // dots are numbered per group, so the guard cursor is group-local.
    cluster.schedule_in(ms(900), r(1), g(1), read("b", 7, 103));

    cluster.run_until(VirtualTime::from_secs(20));

    let by_tag = |tag: u64| {
        cluster
            .responses()
            .iter()
            .map(|rec| &rec.output.1)
            .find(|resp| resp.tag == Some(tag))
            .unwrap_or_else(|| panic!("no response for tag {tag}"))
    };

    let early = by_tag(100);
    match early.served {
        Served::Retry { seen_seq, .. } => assert!(seen_seq < 4, "premature floor: {seen_seq}"),
        other => panic!("early guarded read served as {other:?}"),
    }

    let g0 = by_tag(101);
    assert_eq!(g0.served, Served::Speculative, "{:?}", g0.served);
    assert_eq!(g0.value, Value::Int(3), "session write not observed");
    let g1 = by_tag(102);
    assert_eq!(g1.served, Served::Speculative, "{:?}", g1.served);
    assert_eq!(g1.value, Value::Int(12), "session write not observed");

    let unreachable = by_tag(103);
    match unreachable.served {
        Served::Retry { seen_seq, .. } => {
            assert_eq!(seen_seq, 3, "group 1 has exactly its own three writes");
        }
        other => panic!("unreachable floor served as {other:?}"),
    }

    cluster.assert_convergence(&[]);
}
