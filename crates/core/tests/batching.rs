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
//! Every case of that table mixes in strong operations (every 7th), and
//! PR 23 moved their timing once: a step a strong operation waits on
//! now flushes its frames at step end instead of parking them for the
//! deferral budget. The 34 digests were re-pinned then; each case
//! commits the same request set as the recorded history and converges
//! (the five-replica case commits it in a different order, hence its
//! different final state). The all-weak table below was recorded at
//! PR 23's parent and still reproduces: where no strong operation runs,
//! nothing moved.
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
    mixed: bool,
) -> Observation<F::State> {
    let mut cfg = ClusterConfig::new(n, seed);
    if compaction {
        cfg = cfg.with_compaction();
    }
    let mut c: BayouCluster<F> = BayouCluster::new(cfg);
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
    mixed: bool,
) -> u64 {
    let rendered = format!("{:?}", observe::<F>(seed, ops, n, compaction, mixed));
    rendered.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The two seeds every three-replica case runs under.
const SEEDS: [u64; 2] = [17, 4242];
/// Operations per three-replica case.
const OPS: usize = 24;

/// Asserts that the pipeline reproduces the four digests recorded for
/// one data type's mixed (or all-weak) runs: `[plain, compaction] ×
/// SEEDS`.
fn assert_reproduces<F: InvertibleDataType + RandomOp>(
    name: &str,
    mixed: bool,
    recorded: [[u64; 2]; 2],
) {
    for (compaction, row) in [false, true].into_iter().zip(recorded) {
        for (seed, want) in SEEDS.into_iter().zip(row) {
            let got = digest::<F>(seed, OPS, 3, compaction, mixed);
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
            assert_reproduces::<$ty>(stringify!($ty), true, $recorded);
        }
    };
}

// Recorded at d729dfd on the per-request arm (delivery batching switched
// off), re-pinned in PR 23: rows are [plain, compaction], columns SEEDS.
reproduces_recorded!(
    append_list,
    AppendList,
    [
        [0x1d50_2428_393e_2510, 0xdbc7_f36b_bcb1_5274],
        [0x1ef6_940b_2805_95a2, 0xd84c_a93b_bd4f_76c2],
    ]
);
reproduces_recorded!(
    kv_store,
    KvStore,
    [
        [0x1b6f_018a_e36f_b5bf, 0x409f_50ca_a06c_0cf4],
        [0xc160_0f7f_ce24_21e0, 0xc02d_5784_4e40_34f8],
    ]
);
reproduces_recorded!(
    counter,
    Counter,
    [
        [0xfd05_2094_8415_612b, 0x9648_2c87_3592_f7cd],
        [0xf06f_57ac_b60c_e606, 0x63bd_ff5e_4a1e_461f],
    ]
);
reproduces_recorded!(
    add_remove_set,
    AddRemoveSet,
    [
        [0x4e8a_12da_5c8a_ce05, 0xcda9_8e05_e92c_9b62],
        [0xcb0f_b65b_ea5c_03b2, 0x717f_feeb_97e2_fb4d],
    ]
);
reproduces_recorded!(
    bank,
    Bank,
    [
        [0x438a_1526_5f47_f0e5, 0x1a77_a1cd_a051_e37a],
        [0x1c13_cdb0_89cd_c1b0, 0x751f_b83a_612a_c9a7],
    ]
);
reproduces_recorded!(
    calendar,
    Calendar,
    [
        [0x0104_c6cd_b027_d1de, 0x5f4b_33cc_e8ee_3438],
        [0xe6ad_315f_b0e1_0670, 0x43b6_80ed_1a44_2db4],
    ]
);
reproduces_recorded!(
    rw_register,
    RwRegister,
    [
        [0xe435_97d8_324f_c9ba, 0xda6f_cd90_9129_8913],
        [0xcdfa_5443_f8d8_ce9b, 0x69d7_3adf_5ac9_33ec],
    ]
);
reproduces_recorded!(
    script,
    Script,
    [
        [0xee7c_a0f5_dce5_90c9, 0xb167_3980_e912_1e79],
        [0x1914_bf1b_84f7_0188, 0x0c8d_abc0_31bd_0e72],
    ]
);

/// Five replicas and a deeper backlog, on one representative type.
#[test]
fn five_replicas() {
    for (compaction, want) in [
        (false, 0x5330_b9a6_4c66_beb6u64),
        (true, 0x3fa8_0c45_5a27_42bdu64),
    ] {
        let got = digest::<KvStore>(7, 40, 5, compaction, true);
        assert_eq!(
            got, want,
            "five-replica KvStore diverged from the recorded sequential history \
             (compaction {compaction}; got {got:#018x}, recorded {want:#018x})"
        );
    }
}

/// All-weak histories, recorded at 0b10447 (the parent of PR 23): the
/// urgency rule of the flush deferral only fires for strong operations,
/// so a run without one must not move by a single event.
#[test]
fn all_weak() {
    assert_reproduces::<KvStore>(
        "KvStore (all weak)",
        false,
        [
            [0x2ded_e53d_3882_c9ac, 0x10c6_d68d_b346_85c5],
            [0x1654_9f96_5b83_4117, 0x2488_e35a_d320_1397],
        ],
    );
}

/// `messages_sent` of the 200-op saturated workload below at d729dfd
/// with coalescing on; the one-frame-per-payload links it replaced sent
/// more than twice as many.
const COALESCED_MESSAGES: u64 = 183;

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
