//! Property-based tests of the data-type layer: determinism, read-only
//! laws, state-object equivalence under arbitrary LIFO schedules, and
//! round-trips of the pooled/borrowing wire codec.

use bayou_data::{
    apply_all, replay, AddRemoveSet, AppendList, Bank, Calendar, Counter, DataType, DeltaState,
    KvStore, RandomOp, ReplayState, RwRegister, Script, ScriptOp, StateObject, UndoLogState,
};
use bayou_data::{
    BankOpView, CalendarOpView, CounterOp, KvOpView, ListOpView, RegisterOp, ScriptOpView,
    SetOpView,
};
use bayou_types::{BufPool, Dot, Level, ReplicaId, Req, Timestamp, Wire, WireView};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn ops_of<F: DataType + RandomOp>(seed: u64, n: usize) -> Vec<F::Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| F::random_op(&mut rng)).collect()
}

/// `apply` is deterministic and read-only ops never mutate — for every
/// data type in the library.
macro_rules! datatype_laws {
    ($name:ident, $ty:ty) => {
        mod $name {
            use super::*;

            proptest! {
                #[test]
                fn replay_is_deterministic(seed in 0u64..10_000, n in 1usize..40) {
                    let ops = ops_of::<$ty>(seed, n);
                    let (s1, v1) = replay::<$ty>(&ops);
                    let (s2, v2) = replay::<$ty>(&ops);
                    prop_assert_eq!(s1, s2);
                    prop_assert_eq!(v1, v2);
                }

                #[test]
                fn read_only_ops_never_mutate(seed in 0u64..10_000, n in 1usize..40) {
                    let ops = ops_of::<$ty>(seed, n);
                    let mut state = <$ty as DataType>::State::default();
                    for op in &ops {
                        let before = state.clone();
                        <$ty as DataType>::apply(&mut state, op);
                        if <$ty as DataType>::is_read_only(op) {
                            prop_assert_eq!(&state, &before);
                        }
                    }
                }

                #[test]
                fn random_update_is_updating(seed in 0u64..10_000) {
                    let mut rng = StdRng::seed_from_u64(seed);
                    for _ in 0..16 {
                        let op = <$ty as RandomOp>::random_update(&mut rng);
                        prop_assert!(!<$ty as DataType>::is_read_only(&op));
                    }
                }
            }
        }
    };
}

datatype_laws!(append_list, AppendList);
datatype_laws!(kv_store, KvStore);
datatype_laws!(counter, Counter);
datatype_laws!(add_remove_set, AddRemoveSet);
datatype_laws!(bank, Bank);
datatype_laws!(calendar, Calendar);
datatype_laws!(rw_register, RwRegister);
datatype_laws!(script, Script);

/// `DeltaState<F>` (inverse deltas) and `ReplayState<F>` (checkpoints)
/// must be observationally identical: same responses, same traces, same
/// materialised states, for random op sequences with random LIFO
/// rollback points — for every data type in the library.
macro_rules! state_object_equivalence {
    ($name:ident, $ty:ty) => {
        mod $name {
            use super::*;

            proptest! {
                #[test]
                fn delta_equals_replay_under_lifo_schedules(
                    schedule in lifo_schedule(),
                    seed in 0u64..10_000,
                ) {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut delta = DeltaState::<$ty>::new();
                    let mut rep = ReplayState::<$ty>::new();
                    let mut live: Vec<Dot> = Vec::new();
                    let mut next = 1u64;
                    for do_exec in schedule {
                        if do_exec || live.is_empty() {
                            let op = <$ty as RandomOp>::random_op(&mut rng);
                            let id = Dot::new(ReplicaId::new(0), next);
                            next += 1;
                            let vd = delta.execute(id, &op);
                            let vr = rep.execute(id, &op);
                            prop_assert_eq!(vd, vr, "response mismatch on {:?}", op);
                            live.push(id);
                        } else {
                            let id = live.pop().unwrap();
                            delta.rollback(id);
                            rep.rollback(id);
                        }
                        prop_assert_eq!(delta.materialize(), rep.materialize());
                        prop_assert_eq!(delta.trace(), rep.trace());
                    }
                }

                /// Truncating the committed prefix at random points must
                /// not change what LIFO rollback of the suffix restores.
                #[test]
                fn truncation_preserves_suffix_rollback(
                    seed in 0u64..10_000,
                    n in 4usize..40,
                    keep_sel in 1usize..100,
                ) {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut delta = DeltaState::<$ty>::new();
                    let mut rep = ReplayState::<$ty>::new();
                    let ids: Vec<Dot> =
                        (1..=n as u64).map(|k| Dot::new(ReplicaId::new(0), k)).collect();
                    for id in &ids {
                        let op = <$ty as RandomOp>::random_op(&mut rng);
                        delta.execute(*id, &op);
                        rep.execute(*id, &op);
                    }
                    let committed = keep_sel % n; // trace prefix that can never roll back
                    delta.truncate_checkpoints(committed);
                    rep.truncate_checkpoints(committed);
                    for id in ids[committed..].iter().rev() {
                        delta.rollback(*id);
                        rep.rollback(*id);
                        prop_assert_eq!(delta.materialize(), rep.materialize());
                    }
                    // both keep only the ids above the stable prefix
                    prop_assert_eq!(delta.trace(), rep.trace());
                    prop_assert_eq!(delta.trace_offset(), committed);
                    prop_assert_eq!(rep.trace_offset(), committed);
                }
            }
        }
    };
}

state_object_equivalence!(delta_counter, Counter);
state_object_equivalence!(delta_register, RwRegister);
state_object_equivalence!(delta_kv_store, KvStore);
state_object_equivalence!(delta_set, AddRemoveSet);
state_object_equivalence!(delta_list, AppendList);
state_object_equivalence!(delta_bank, Bank);
state_object_equivalence!(delta_calendar, Calendar);
state_object_equivalence!(delta_script, Script);

/// A random LIFO schedule of execute/rollback actions.
fn lifo_schedule() -> impl Strategy<Value = Vec<bool>> {
    // true = execute a new op, false = roll back the latest (if any)
    proptest::collection::vec(proptest::bool::weighted(0.65), 1..60)
}

proptest! {
    /// The two StateObject implementations (undo log vs checkpoint
    /// replay) agree on every value and every intermediate state, for
    /// arbitrary LIFO schedules of Script programs.
    #[test]
    fn undo_log_equals_checkpoint_replay(schedule in lifo_schedule(), seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut undo = UndoLogState::new();
        let mut rep = ReplayState::<Script>::new();
        let mut live: Vec<Dot> = Vec::new();
        let mut next = 1u64;
        for do_exec in schedule {
            if do_exec || live.is_empty() {
                let op: ScriptOp = Script::random_op(&mut rng);
                let id = Dot::new(ReplicaId::new(0), next);
                next += 1;
                let v1 = undo.execute(id, &op);
                let v2 = rep.execute(id, &op);
                prop_assert_eq!(v1, v2);
                live.push(id);
            } else {
                let id = live.pop().unwrap();
                undo.rollback(id);
                rep.rollback(id);
            }
            prop_assert_eq!(undo.materialize(), rep.materialize());
            prop_assert_eq!(undo.trace(), rep.trace());
        }
    }

    /// Executing then rolling everything back restores the initial state
    /// exactly (the undo log loses nothing).
    #[test]
    fn full_rollback_is_identity(seed in 0u64..10_000, n in 1usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut so = UndoLogState::new();
        let ids: Vec<Dot> = (1..=n as u64).map(|i| Dot::new(ReplicaId::new(0), i)).collect();
        for id in &ids {
            let op = Script::random_op(&mut rng);
            so.execute(*id, &op);
        }
        for id in ids.iter().rev() {
            so.rollback(*id);
        }
        prop_assert!(so.materialize().is_empty());
        prop_assert!(so.trace().is_empty());
        prop_assert_eq!(so.undo_entries(), 0);
    }

    /// Replaying a prefix then the suffix equals replaying the whole
    /// sequence (no hidden state outside `State`).
    #[test]
    fn replay_composes(seed in 0u64..10_000, n in 2usize..30, cut_sel in 0usize..100) {
        let ops = ops_of::<KvStore>(seed, n);
        let cut = 1 + cut_sel % (n - 1);
        let (whole, _) = replay::<KvStore>(&ops);
        let (mut prefix_state, _) = replay::<KvStore>(&ops[..cut]);
        apply_all::<KvStore>(&mut prefix_state, &ops[cut..]);
        prop_assert_eq!(whole, prefix_state);
    }
}

/// The pooled/borrowing wire codec: random requests of every data type
/// must survive pooled encode → borrowing view decode → `into_owned`,
/// with the pooled buffer deliberately *dirty* — it previously carried a
/// different, larger frame (plus trailing garbage), so any decode that
/// peeked past the encoded length or depended on a fresh zeroed `Vec`
/// would surface here.
macro_rules! pooled_codec_round_trips {
    ($name:ident, $ty:ty, $view:ty) => {
        mod $name {
            use super::*;

            proptest! {
                #[test]
                fn pooled_dirty_buffer_round_trips(seed in 0u64..10_000, n in 1usize..24) {
                    let ops = ops_of::<$ty>(seed, n);
                    let mut pool = BufPool::new();
                    // dirty the pool's one buffer: a large unrelated
                    // frame followed by garbage bytes
                    let mut big = pool.checkout();
                    Req::new(
                        Timestamp::new(-1),
                        Dot::new(ReplicaId::new(9), 9),
                        Level::Strong,
                        <$ty as RandomOp>::random_op(
                            &mut StdRng::seed_from_u64(seed ^ 0xD117),
                        ),
                    )
                    .encode(&mut big);
                    big.extend_from_slice(&[0xA5; 256]);
                    pool.checkin(big);

                    for (k, op) in ops.iter().enumerate() {
                        let req = Req::new(
                            Timestamp::new(k as i64),
                            Dot::new(ReplicaId::new(0), k as u64 + 1),
                            Level::Weak,
                            op.clone(),
                        );
                        let buf = pool.encode(&req);
                        let owned = Req::<$view>::view_from_bytes(&buf)
                            .expect("pooled frame decodes as a view")
                            .into_owned();
                        prop_assert_eq!(owned.timestamp, req.timestamp);
                        prop_assert_eq!(owned.dot, req.dot);
                        prop_assert_eq!(owned.level, req.level);
                        prop_assert_eq!(&owned.op, op);
                        pool.checkin(buf);
                    }
                    prop_assert_eq!(pool.misses(), 1, "one buffer serves the whole run");
                }
            }
        }
    };
}

pooled_codec_round_trips!(codec_append_list, AppendList, ListOpView);
pooled_codec_round_trips!(codec_kv_store, KvStore, KvOpView);
pooled_codec_round_trips!(codec_counter, Counter, CounterOp);
pooled_codec_round_trips!(codec_add_remove_set, AddRemoveSet, SetOpView);
pooled_codec_round_trips!(codec_bank, Bank, BankOpView);
pooled_codec_round_trips!(codec_calendar, Calendar, CalendarOpView);
pooled_codec_round_trips!(codec_rw_register, RwRegister, RegisterOp);
pooled_codec_round_trips!(codec_script, Script, ScriptOpView);
