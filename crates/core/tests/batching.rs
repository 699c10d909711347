//! The replica reproduces banked histories of the arms it no longer has.
//!
//! The replica once kept switches for paths it has since lost: a
//! per-request sequential commit beside the batched one, and a mode
//! that kept the whole committed history instead of compacting it. Each
//! switch was deleted only after its two arms had been run over the
//! fixed table below — all eight data types × two seeds with every 7th
//! operation strong, an all-weak `KvStore` pair and a five-replica
//! `KvStore` case — and shown to agree.
//!
//! What is checked in is four FNV-1a-64 digests per case, one per
//! component of what a client and a checker can see:
//!
//! * **order** — the cluster's recorded committed order;
//! * **events** — every event's id, response value and resolved
//!   execution trace;
//! * **states** — every replica's final state;
//! * **returns** — every event's return time.
//!
//! The split lets a change that only moves *when* operations answer
//! (a shorter commit path) re-pin the return times alone and show that
//! the history it commits — order, values, traces, final states — is
//! bit-for-bit the banked one. Message counts and the lists a replica
//! retains are in no digest: compaction adds its cursor reports and
//! watermark polls, and shortens what a replica keeps, by design. The
//! absolute message count is pinned separately, at the bottom.
//!
//! Each digest is over the `{:?}` rendering of its component; every
//! `State` is a `BTree*`/`Vec`/`i64`, so the rendering is stable.

use bayou_core::{BayouCluster, ClusterConfig};
use bayou_data::{
    AddRemoveSet, AppendList, Bank, Calendar, Counter, InvertibleDataType, KvStore, RandomOp,
    RwRegister, Script,
};
use bayou_types::{GroupId, Level, ReplicaId, VirtualTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pinned digests of one run, one per [`COMPONENTS`] entry.
type Digests = [u64; 4];

/// What each [`Digests`] entry covers.
const COMPONENTS: [&str; 4] = [
    "committed order",
    "events (id, value, trace)",
    "final states",
    "return times",
];

/// FNV-1a-64 of `v`'s `{:?}` rendering.
fn fnv<T: std::fmt::Debug>(v: &T) -> u64 {
    format!("{v:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

fn observe<F: InvertibleDataType + RandomOp>(
    seed: u64,
    ops: usize,
    n: usize,
    mixed: bool,
) -> Digests {
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
    let events: Vec<_> = trace
        .events
        .iter()
        .map(|e| (e.meta.id(), e.value.clone(), e.exec_trace.clone()))
        .collect();
    let returns: Vec<_> = trace.events.iter().map(|e| e.returned_at).collect();
    let states: Vec<F::State> = ReplicaId::all(n)
        .map(|r| c.replica(r).materialize())
        .collect();
    [
        fnv(&c.committed_order(GroupId::new(0))),
        fnv(&events),
        fnv(&states),
        fnv(&returns),
    ]
}

/// Asserts each component of `got` against its banked digest, naming
/// the first one that moved.
fn assert_digests(case: &str, got: Digests, want: Digests) {
    for ((component, g), w) in COMPONENTS.iter().zip(got).zip(want) {
        assert_eq!(
            g, w,
            "{case}: the {component} diverged from the banked history \
             (got {g:#018x}, banked {w:#018x}; all got {got:#018x?})"
        );
    }
}

/// The two seeds every three-replica case runs under.
const SEEDS: [u64; 2] = [17, 4242];
/// Operations per three-replica case.
const OPS: usize = 24;

/// Asserts that the pipeline reproduces the digests banked for one data
/// type's mixed (or all-weak) runs, one per seed of [`SEEDS`].
fn assert_reproduces<F: InvertibleDataType + RandomOp>(
    name: &str,
    mixed: bool,
    banked: [Digests; 2],
) {
    for (seed, want) in SEEDS.into_iter().zip(banked) {
        let got = observe::<F>(seed, OPS, 3, mixed);
        assert_digests(&format!("{name}, seed {seed}"), got, want);
    }
}

macro_rules! reproduces_banked {
    ($name:ident, $ty:ty, $seed_a:expr, $seed_b:expr $(,)?) => {
        #[test]
        fn $name() {
            assert_reproduces::<$ty>(stringify!($ty), true, [$seed_a, $seed_b]);
        }
    };
}

// Banked at 2aece6f, whose pipeline reproduced the single whole-run
// digests recorded at b98eca0; one row per seed of SEEDS, columns
// COMPONENTS. Re-pinned twice since. The return times, when acceptors
// began learning a slot on accept: strong ops homed on a follower
// answer two message delays sooner, over the same history. Then every
// moved component, when a host's frames began to leave at the end of
// its busy period instead of under a 40 µs flush timer: each case
// still commits the same requests with the same per-replica totals and
// converges, but where frames now leave sooner, submissions of
// concurrent ops reach the leader in another order, so the committed
// order moved in 11 of the 16 cases below (2 to 4 positions, from
// position 7 at the earliest).
reproduces_banked! {
    append_list,
    AppendList,
    [0x0c51a5667cdc6435, 0xba93cbccbc00331e, 0x5bab93abb4bbb633, 0x1c806777a4fdfd58],
    [0x6db010c2d1b108e6, 0xcea364577cc814fd, 0xb833656915695d4a, 0xa441fdda6ea0091d],
}
reproduces_banked! {
    kv_store,
    KvStore,
    [0x89a5f7692819ebaa, 0xeba64dcf8df79ff2, 0x0a54688ad6b30c28, 0x56307227bb5ce45b],
    [0xbce822427c3932c6, 0x534114d5aaeb3142, 0x62787e0f2a61e0b3, 0xb6022a4bfb4a2f9f],
}
reproduces_banked! {
    counter,
    Counter,
    [0xad33b77b8f575c8d, 0xd8c05b0d19d6c333, 0xa08fe4c4e712896d, 0x57dd6bf796888c38],
    [0xa819adcdd2510d25, 0x26e103d3cbb7e191, 0x8fd30f4a14b3badb, 0xf95f9ae713f0e9e0],
}
reproduces_banked! {
    add_remove_set,
    AddRemoveSet,
    [0xdd8b0ab81e77a2ef, 0x02ec6a1a11d2daf9, 0x22a003751ba4598c, 0x6ed4f5ada423c79b],
    [0x19267c7c23d8b61c, 0x07e00d894c8aa22f, 0x2d8c65cd1e93c9a8, 0x2c81bf82ee76cac0],
}
reproduces_banked! {
    bank,
    Bank,
    [0x864a962251582daa, 0x3cde2b232c1e65f0, 0x0156bb105c24df50, 0x1fa3e2c9d420d003],
    [0xac74edb64848ae4c, 0x331aed4c3f80a99a, 0x7b045dbb47e36615, 0xdefec855ce82a525],
}
reproduces_banked! {
    calendar,
    Calendar,
    [0xc65bb919f3d97058, 0x4368e0cc4bea66b5, 0xd2d7b606f11fbe76, 0xc5e6cb62d3f99d43],
    [0x1120db6f1e92f27e, 0xbcf09d2b6b2c446d, 0x7ac9c91fda4217ec, 0x51825758ad813e41],
}
reproduces_banked! {
    rw_register,
    RwRegister,
    [0xaef83ef52e63cad2, 0x18adeea65ef47256, 0xc2781c5bd0ee5ed7, 0xbb18558718813ddc],
    [0x52ee6b52706e0bdd, 0xa673083ea9e02bcd, 0x1a9ce72a909a3ff1, 0x365eb37945fc615a],
}
reproduces_banked! {
    script,
    Script,
    [0xac243f3abe15cb29, 0x19319635da0d06b7, 0x9d3f53fd39b0f063, 0xf4c5adf75470e677],
    [0xf0b909c833e0ed75, 0x6dfe2826e8b9614b, 0x7f7d8fe46ad41841, 0x9c394ad6d92f8d3b],
}

/// Five replicas and a deeper backlog, on one representative type.
#[test]
fn five_replicas() {
    assert_digests(
        "five-replica KvStore",
        observe::<KvStore>(7, 40, 5, true),
        [
            0x9b912d3d3451ec22,
            0x470c75c1844ba430,
            0x7bd6aaa8d9aac113,
            0x50f6ee628b72022e,
        ],
    );
}

/// All-weak histories: each op is a broadcast no one waits on. These
/// did not move by a single event when the 40 µs flush timer gave way
/// to releasing frames at the end of the sender's busy period.
#[test]
fn all_weak() {
    assert_reproduces::<KvStore>(
        "KvStore (all weak)",
        false,
        [
            [
                0x167e7ecd19124bf7,
                0x13c0d1d5abe15a6f,
                0x0a54688ad6b30c28,
                0x24deb2ca029e9134,
            ],
            [
                0xd1aa876c96215a63,
                0xb416f89bfd676a70,
                0x62787e0f2a61e0b3,
                0x24deb2ca029e9134,
            ],
        ],
    );
}

/// `messages_sent` of the 200-op workload below, whose frames leave at
/// the end of each sender's busy period. The ops are 5 µs apart over
/// three replicas, so each replica gets one every 15 µs, after its
/// 10 µs step has ended: each op is its own busy period and sends its
/// own frames. 196 at b98eca0 with compaction on, against 190 with it
/// off (its cursor reports and watermark polls); 183 at d729dfd, when
/// the link deferred as well; 191 once an empty watermark answer was no
/// longer acked, while a 40 µs flush timer still merged ops spaced
/// 5–40 µs apart; 323 since frames leave at the end of the busy period.
/// The one-frame-per-payload links coalescing replaced sent more than
/// twice the 191.
const COALESCED_MESSAGES: u64 = 323;

/// Wire frame coalescing keeps the (all-weak) message count of a 200-op
/// run exactly where [`COALESCED_MESSAGES`] records it.
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
        "the message count moved from the recorded one"
    );
}
