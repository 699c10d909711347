//! The commit pipeline reproduces the recorded per-request histories.
//!
//! Until PR 13 the replica kept a per-request sequential commit path
//! beside the batched one, and this suite ran both and compared them.
//! The equivalence is now stated once, as a predicate over recorded
//! histories: before the sequential arm was deleted it was run (at the
//! parent commit) over the fixed table below — all eight data types ×
//! {plain, compaction} × two seeds, plus a five-replica KvStore case —
//! and an FNV-1a-64 digest of everything observable about each run was
//! checked in. The one remaining pipeline must reproduce every digest:
//! the same trace — every event with the same response value, execution
//! trace and timing — the same TOB order, the same final states, the
//! same retained committed lists and the same message count.
//!
//! The digest is over the `{:?}` rendering of the observation; every
//! `State` is a `BTree*`/`Vec`/`i64`, so the rendering is stable.
//!
//! (Wire frame coalescing does change the message flow relative to the
//! historical one-frame-per-payload links; its invariants are
//! convergence and determinism, which the DST suite drives. An absolute
//! message ceiling lives at the bottom.)

use bayou_core::{BayouCluster, ClusterConfig};
use bayou_data::{
    AddRemoveSet, AppendList, Bank, Calendar, Counter, InvertibleDataType, KvStore, RandomOp,
    RwRegister, Script,
};
use bayou_types::{Level, ReplicaId, ReqId, Value, VirtualTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Everything observable about one run.
type Observation<St> = (
    Vec<ReqId>,  // stitched TOB order
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
    compaction: bool,
) -> Observation<F::State> {
    let mut cfg = ClusterConfig::new(n, seed);
    if compaction {
        cfg = cfg.with_compaction();
    }
    let mut c: BayouCluster<F> = BayouCluster::new(cfg);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB47C);
    for k in 0..ops {
        let op = F::random_op(&mut rng);
        let level = if k % 7 == 3 {
            Level::Strong
        } else {
            Level::Weak
        };
        // a bursty schedule, so commits arrive in multi-delivery batches
        let at = VirtualTime::from_micros(40 * k as u64 + 1);
        c.invoke_at(at, ReplicaId::new((k % n) as u32), op, level);
    }
    let trace = c.run_until(VirtualTime::from_secs(120));
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

/// FNV-1a-64 of the observation's `{:?}` rendering.
fn digest<F: InvertibleDataType + RandomOp>(
    seed: u64,
    ops: usize,
    n: usize,
    compaction: bool,
) -> u64 {
    let rendered = format!("{:?}", observe::<F>(seed, ops, n, compaction));
    rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The two seeds every three-replica case runs under.
const SEEDS: [u64; 2] = [17, 4242];
/// Operations per three-replica case.
const OPS: usize = 24;

/// Asserts that the pipeline reproduces the four digests the sequential
/// arm recorded for one data type: `[plain, compaction] × SEEDS`.
fn assert_reproduces<F: InvertibleDataType + RandomOp>(name: &str, recorded: [[u64; 2]; 2]) {
    for (compaction, row) in [false, true].into_iter().zip(recorded) {
        for (seed, want) in SEEDS.into_iter().zip(row) {
            let got = digest::<F>(seed, OPS, 3, compaction);
            assert_eq!(
                got, want,
                "{name}: the pipeline diverged from the recorded sequential history \
                 (seed {seed}, compaction {compaction}; got {got:#018x}, recorded {want:#018x})"
            );
        }
    }
}

macro_rules! reproduces_recorded {
    ($name:ident, $ty:ty, $recorded:expr) => {
        #[test]
        fn $name() {
            assert_reproduces::<$ty>(stringify!($ty), $recorded);
        }
    };
}

// Recorded at d729dfd on the per-request arm (delivery batching switched
// off): rows are [plain, compaction], columns SEEDS.
reproduces_recorded!(
    append_list,
    AppendList,
    [
        [0xa6c8_a90d_0efe_2c55, 0x6d4d_f4f2_da39_e5a2],
        [0x60ac_536a_2672_ea26, 0xf03a_9de4_510b_a395],
    ]
);
reproduces_recorded!(
    kv_store,
    KvStore,
    [
        [0x69d7_3748_4f5f_3d20, 0x07f2_8889_eaf9_ca60],
        [0x034f_2c46_9440_a57f, 0x2b6f_5a02_a1ed_aa22],
    ]
);
reproduces_recorded!(
    counter,
    Counter,
    [
        [0x827b_89e2_1f32_5f2d, 0x7880_ba8d_4483_9edf],
        [0x9885_4ae7_a650_c300, 0xaae9_3e61_5aab_6912],
    ]
);
reproduces_recorded!(
    add_remove_set,
    AddRemoveSet,
    [
        [0xf552_74f1_832b_6c1e, 0x7682_03a0_5c2f_4a78],
        [0x7757_ce09_ccbf_4bd5, 0x41f1_1cc5_414d_aa6b],
    ]
);
reproduces_recorded!(
    bank,
    Bank,
    [
        [0xe8c8_a7cf_2bd5_c888, 0x5f97_b602_c6e0_3f19],
        [0x391f_ba59_b7c5_f331, 0x2606_5df4_30dc_35d0],
    ]
);
reproduces_recorded!(
    calendar,
    Calendar,
    [
        [0x7076_4e3d_84f4_d83f, 0xf866_ed36_32a6_a81b],
        [0xe8f7_ee02_b9d0_55c1, 0x57a9_689f_cdb8_b803],
    ]
);
reproduces_recorded!(
    rw_register,
    RwRegister,
    [
        [0x51bf_139b_da20_7c24, 0xf19b_9403_b26e_69e6],
        [0xc188_4965_19cb_9ef1, 0xd710_f542_07b1_e839],
    ]
);
reproduces_recorded!(
    script,
    Script,
    [
        [0xf452_9115_ed18_a02e, 0x54df_909f_b30b_085c],
        [0x9b18_5626_39ad_1b77, 0x4a49_59be_39a3_060f],
    ]
);

/// Five replicas and a deeper backlog, on one representative type.
#[test]
fn five_replicas() {
    for (compaction, want) in [
        (false, 0x267b_f36d_b277_70f1u64),
        (true, 0x1c3a_2a93_0370_cd1au64),
    ] {
        let got = digest::<KvStore>(7, 40, 5, compaction);
        assert_eq!(
            got, want,
            "five-replica KvStore diverged from the recorded sequential history \
             (compaction {compaction}; got {got:#018x}, recorded {want:#018x})"
        );
    }
}

/// `messages_sent` of the 200-op saturated workload below at d729dfd
/// with coalescing on; the one-frame-per-payload links it replaced sent
/// more than twice as many.
const COALESCED_MESSAGES: u64 = 183;

/// Wire frame coalescing keeps the saturated message count at or under
/// what it was when the per-frame arm was deleted.
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
    assert!(
        sent <= COALESCED_MESSAGES,
        "the saturated message count grew past the recorded ceiling \
         (sent {sent}, ceiling {COALESCED_MESSAGES})"
    );
}
