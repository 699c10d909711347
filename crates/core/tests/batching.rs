//! The replica reproduces banked histories of the arms it no longer has.
//!
//! The replica once kept switches for paths it has since lost: a
//! per-request sequential commit beside the batched one, and a mode
//! that kept the whole committed history instead of compacting it. Each
//! switch was deleted only after its two arms had been run over the
//! fixed table below — all eight data types × two seeds with every 7th
//! operation strong, an all-weak `KvStore` pair and a five-replica
//! `KvStore` case — and shown to agree. What is checked in is one
//! FNV-1a-64 digest per case, and the one remaining pipeline must
//! reproduce every digest.
//!
//! The digests now pinned were recorded at b98eca0 with compaction off
//! and on, and the two arms agreed on all 19 cases. They cover what a
//! client and a checker can see: the cluster's recorded committed order,
//! every event's id, response value, resolved execution trace and
//! return time, and every replica's final state. Message counts and the
//! lists a replica retains are not in the digest: compaction adds its
//! cursor reports and watermark polls (6–12 messages per case), and
//! shortens what a replica keeps, by design. The absolute message count
//! is pinned separately, at the bottom.
//!
//! The digest is over the `{:?}` rendering of the observation; every
//! `State` is a `BTree*`/`Vec`/`i64`, so the rendering is stable.

use bayou_core::{BayouCluster, ClusterConfig};
use bayou_data::{
    AddRemoveSet, AppendList, Bank, Calendar, Counter, InvertibleDataType, KvStore, RandomOp,
    RwRegister, Script,
};
use bayou_types::{GroupId, Level, ReplicaId, ReqId, Value, VirtualTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything observable about one run.
type Observation<St> = (
    Vec<ReqId>, // recorded committed order
    Vec<(
        ReqId,
        Option<Value>,
        Option<Vec<ReqId>>,
        Option<VirtualTime>,
    )>, // events: value, resolved exec trace, return time
    Vec<St>,    // final states
);

fn observe<F: InvertibleDataType + RandomOp>(
    seed: u64,
    ops: usize,
    n: usize,
    mixed: bool,
) -> Observation<F::State> {
    let mut c: BayouCluster<F> = BayouCluster::new(ClusterConfig::new(n, seed));
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB47C);
    for k in 0..ops {
        let op = F::random_op(&mut rng);
        let level = if mixed && k % 7 == 3 {
            Level::Strong
        } else {
            Level::Weak
        };
        // a bursty schedule, so commits arrive in multi-delivery batches
        let at = VirtualTime::from_micros(40 * k as u64 + 1);
        c.invoke_at(at, ReplicaId::new((k % n) as u32), op, level);
    }
    let trace = c.run_until(VirtualTime::from_secs(120));
    assert!(trace.quiescent, "seed {seed}: the run must quiesce");
    let events = trace
        .events
        .iter()
        .map(|e| {
            (
                e.meta.id(),
                e.value.clone(),
                e.exec_trace.clone(),
                e.returned_at,
            )
        })
        .collect();
    let states = ReplicaId::all(n)
        .map(|r| c.replica(r).materialize())
        .collect();
    (c.committed_order(GroupId::new(0)).to_vec(), events, states)
}

/// FNV-1a-64 of the observation's `{:?}` rendering.
fn digest<F: InvertibleDataType + RandomOp>(seed: u64, ops: usize, n: usize, mixed: bool) -> u64 {
    let rendered = format!("{:?}", observe::<F>(seed, ops, n, mixed));
    rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The two seeds every three-replica case runs under.
const SEEDS: [u64; 2] = [17, 4242];
/// Operations per three-replica case.
const OPS: usize = 24;

/// Asserts that the pipeline reproduces the digests banked for one data
/// type's mixed (or all-weak) runs, one per seed of [`SEEDS`].
fn assert_reproduces<F: InvertibleDataType + RandomOp>(name: &str, mixed: bool, banked: [u64; 2]) {
    for (seed, want) in SEEDS.into_iter().zip(banked) {
        let got = digest::<F>(seed, OPS, 3, mixed);
        assert_eq!(
            got, want,
            "{name}: the pipeline diverged from the banked history \
             (seed {seed}; got {got:#018x}, banked {want:#018x})"
        );
    }
}

macro_rules! reproduces_banked {
    ($name:ident, $ty:ty, $banked:expr) => {
        #[test]
        fn $name() {
            assert_reproduces::<$ty>(stringify!($ty), true, $banked);
        }
    };
}

// Banked at b98eca0, compaction off and on agreeing; columns SEEDS.
reproduces_banked!(
    append_list,
    AppendList,
    [0x798b_09f8_aad0_8d61, 0x0cb6_40c0_c86c_0994]
);
reproduces_banked!(
    kv_store,
    KvStore,
    [0x60a0_cf52_fb16_2077, 0x9b44_f1aa_fdba_3dfc]
);
reproduces_banked!(
    counter,
    Counter,
    [0x1614_2d7e_5721_16fd, 0xf584_9ddb_b365_a5f8]
);
reproduces_banked!(
    add_remove_set,
    AddRemoveSet,
    [0x6d90_0c85_ccfc_2c57, 0xd36b_a8e9_a48c_b912]
);
reproduces_banked!(bank, Bank, [0x2022_bbac_85cf_9b0b, 0x3946_b97d_9dc1_20f9]);
reproduces_banked!(
    calendar,
    Calendar,
    [0xd037_7b13_ec70_4edc, 0x392f_544a_39cc_6dc2]
);
reproduces_banked!(
    rw_register,
    RwRegister,
    [0x449f_b837_33af_6e67, 0x87ca_e1e3_b82b_3d1a]
);
reproduces_banked!(
    script,
    Script,
    [0xcfc4_4602_95d6_3d31, 0x2f10_5899_db0c_5d4f]
);

/// Five replicas and a deeper backlog, on one representative type.
#[test]
fn five_replicas() {
    let (got, want) = (digest::<KvStore>(7, 40, 5, true), 0x7309_647c_bebd_487f);
    assert_eq!(
        got, want,
        "five-replica KvStore diverged from the banked history \
         (got {got:#018x}, banked {want:#018x})"
    );
}

/// All-weak histories. The urgency rule of the flush deferral only
/// fires for strong operations, so a change to it must not move these
/// by a single event.
#[test]
fn all_weak() {
    assert_reproduces::<KvStore>(
        "KvStore (all weak)",
        false,
        [0x5198_6eb3_b714_f3ae, 0xa0cf_05f3_a5ff_eac8],
    );
}

/// `messages_sent` of the 200-op saturated workload below with one
/// level of flush deferral (the host's). 196 at b98eca0 with compaction
/// on, against 190 with it off (its cursor reports and watermark polls);
/// 183 at d729dfd, when the link deferred as well. The
/// one-frame-per-payload links coalescing replaced sent more than twice
/// as many.
const COALESCED_MESSAGES: u64 = 196;

/// Wire frame coalescing keeps the saturated (all-weak) message count
/// exactly where it was when the per-frame arm was deleted.
#[test]
fn coalesced_message_ceiling() {
    let mut c: BayouCluster<Counter> = BayouCluster::new(ClusterConfig::new(3, 11));
    for k in 0..200usize {
        c.invoke_at(
            VirtualTime::from_micros(5 * k as u64 + 1),
            ReplicaId::new((k % 3) as u32),
            bayou_data::CounterOp::Add(1),
            Level::Weak,
        );
    }
    let trace = c.run_until(VirtualTime::from_secs(60));
    assert!(trace.events.iter().all(|e| !e.is_pending()));
    c.assert_convergence(&[]);
    assert_eq!(c.replica(ReplicaId::new(0)).materialize(), 200);
    let sent = c.metrics().messages_sent;
    assert_eq!(
        sent, COALESCED_MESSAGES,
        "the saturated message count moved from the recorded one"
    );
}
