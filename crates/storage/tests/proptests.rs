//! Property-based crash-recovery tests: a crash at an **arbitrary WAL
//! byte prefix** (including one that tears the final record in half)
//! recovers a replica state equivalent to replaying **exactly the
//! durable prefix** — no lost synced records, no resurrected torn ones —
//! for all eight data types.

use bayou_broadcast::{PaxosTob, TobEvent};
use bayou_data::{
    replay, AddRemoveSet, AppendList, Bank, Calendar, Counter, DataType, KvStore, RandomOp,
    RwRegister, Script,
};
use bayou_storage::{MemDisk, Persistence, ReplicaStore, Snapshot, Storage, StoreConfig};
use bayou_types::{Dot, Level, ReplicaId, Req, SharedReq, Timestamp, Wire};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn ops_of<F: DataType + RandomOp>(seed: u64, n: usize) -> Vec<F::Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| F::random_op(&mut rng)).collect()
}

fn shared_req<F: DataType>(i: usize, op: F::Op) -> SharedReq<F::Op> {
    Arc::new(Req::new(
        Timestamp::new(i as i64 + 1),
        Dot::new(ReplicaId::new(0), i as u64 + 1),
        Level::Weak,
        op,
    ))
}

/// The snapshot image of a one-replica process that decided and
/// delivered `reqs` in slots `0..` with nothing compacted — what a
/// replica cuts from its own state when the cadence runs out.
fn image_of<F: DataType>(reqs: &[SharedReq<F::Op>]) -> Snapshot<F> {
    let mut state = F::State::default();
    for r in reqs {
        F::apply(&mut state, &r.op);
    }
    Snapshot {
        delivered: reqs.len() as u64,
        state,
        decided: reqs
            .iter()
            .enumerate()
            .map(|(slot, r)| (slot as u64, r.origin(), slot as u64, r.as_ref().clone()))
            .collect(),
        event_high: vec![reqs.len() as u64],
        ..Snapshot::empty(1)
    }
}

/// The current (highest-numbered) WAL segment and its byte length.
fn current_wal(disk: &MemDisk) -> (String, usize) {
    let name = disk
        .list()
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .max()
        .expect("an open store always has a segment");
    let len = disk.read(&name).expect("segment readable").len();
    (name, len)
}

/// Writes `ops` as a decided/committed stream, then cuts the live WAL
/// segment at an arbitrary byte (`cut_frac`/1000 of its length) and
/// verifies recovery yields exactly the durable prefix.
///
/// `snapshot_every` controls whether part of the history lives in a
/// snapshot (whose covered prefix must always survive) with only the
/// suffix exposed to the cut.
fn crash_at_arbitrary_prefix_recovers_durable_prefix<F>(
    seed: u64,
    nops: usize,
    cut_frac: u64,
    snapshot_every: u64,
) where
    F: DataType + RandomOp,
    F::Op: Wire,
    F::State: Wire,
{
    let ops = ops_of::<F>(seed, nops);
    let disk = MemDisk::new();
    let cfg = StoreConfig {
        snapshot_every,
        segment_max_bytes: usize::MAX,
        sync_every_record: true,
    };
    let (mut store, recovered) = ReplicaStore::<F, _>::open(disk.clone(), 1, cfg).unwrap();
    assert!(recovered.is_empty());

    // After each commit, remember which segment the record landed in and
    // the segment length — the frame boundaries a crash can cut between.
    let mut marks: Vec<(String, usize)> = Vec::new();
    let mut snapshot_covered = 0u64;
    let mut committed = Vec::new();
    for (slot, op) in ops.iter().enumerate() {
        let req = shared_req::<F>(slot, op.clone());
        committed.push(req.clone());
        store
            .log_tob_events(vec![TobEvent::Decided {
                slot: slot as u64,
                sender: ReplicaId::new(0),
                seq: slot as u64,
                payload: req.clone(),
            }])
            .unwrap();
        // the proptests drive the hooks directly (no step structure), so
        // they owe the barrier that makes the record durable
        store.sync_step().unwrap();
        marks.push(current_wal(&disk));
        store.note_commit(&req).unwrap();
        if store.snapshot_due() {
            store.save_snapshot(&image_of::<F>(&committed)).unwrap();
            snapshot_covered = slot as u64 + 1;
        }
    }
    drop(store);

    // Crash: cut the live segment at an arbitrary byte offset.
    let (final_seg, final_len) = current_wal(&disk);
    let cut = ((cut_frac as usize) * final_len / 1000).min(final_len);
    disk.truncate(&final_seg, cut);

    // Records in the final segment survive iff fully below the cut;
    // everything in earlier (snapshot-covered) segments survives.
    let durable = marks
        .iter()
        .enumerate()
        .filter(|(_, (seg, end))| *seg != final_seg || *end <= cut)
        .map(|(i, _)| i + 1)
        .max()
        .unwrap_or(0)
        .max(snapshot_covered as usize);

    let (_store, recovered) = ReplicaStore::<F, _>::open(disk, 1, cfg).unwrap();
    let recovered = recovered.replay(&mut PaxosTob::with_defaults(1));
    prop_assert_eq!(
        recovered.deliveries.len(),
        durable,
        "durable prefix length (cut at byte {} of {})",
        cut,
        final_len
    );
    prop_assert!(recovered.state_delivered <= durable as u64);

    // State equivalence: snapshot state + WAL-suffix replay must equal
    // replaying exactly the durable prefix of the original op stream.
    let mut state = recovered.state.clone();
    for req in recovered
        .deliveries
        .iter()
        .skip(recovered.state_delivered as usize)
    {
        F::apply(&mut state, &req.op);
    }
    let (expect, _) = replay::<F>(&ops[..durable]);
    prop_assert_eq!(state, expect, "recovered state == replay of durable prefix");

    // And the recovered delivery order is exactly the durable prefix.
    for (i, req) in recovered.deliveries.iter().enumerate() {
        prop_assert_eq!(req.id(), Dot::new(ReplicaId::new(0), i as u64 + 1));
    }
}

macro_rules! crash_recovery_props {
    ($($name:ident => $ty:ty),+ $(,)?) => {$(
        mod $name {
            use super::*;

            proptest! {
                #![proptest_config(ProptestConfig { cases: 32, ..Default::default() })]

                /// WAL-only store (no snapshot ever fires).
                #[test]
                fn wal_prefix_crash(seed in 0u64..10_000, nops in 1usize..32, cut in 0u64..=1000) {
                    crash_at_arbitrary_prefix_recovers_durable_prefix::<$ty>(
                        seed, nops, cut, u64::MAX,
                    );
                }

                /// Snapshot + WAL-suffix store (cadence 8): the cut can
                /// only hurt the post-snapshot suffix.
                #[test]
                fn snapshot_plus_suffix_crash(seed in 0u64..10_000, nops in 1usize..32, cut in 0u64..=1000) {
                    crash_at_arbitrary_prefix_recovers_durable_prefix::<$ty>(
                        seed, nops, cut, 8,
                    );
                }
            }
        }
    )+};
}

crash_recovery_props!(
    append_list => AppendList,
    rw_register => RwRegister,
    counter => Counter,
    kv_store => KvStore,
    add_remove_set => AddRemoveSet,
    bank => Bank,
    calendar => Calendar,
    script => Script,
);

/// Unsynced tails torn at a random byte by [`MemDisk::crash`] recover a
/// (possibly shorter) clean prefix — never garbage, never a panic.
mod torn_unsynced_tail {
    use super::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..Default::default() })]

        #[test]
        fn recovers_some_clean_prefix(seed in 0u64..10_000, nops in 1usize..24, crash_seed in 0u64..10_000) {
            let ops = ops_of::<KvStore>(seed, nops);
            let disk = MemDisk::new();
            let cfg = StoreConfig {
                snapshot_every: u64::MAX,
                segment_max_bytes: usize::MAX,
                sync_every_record: false, // nothing synced: the whole log is at risk
            };
            let (mut store, _) = ReplicaStore::<KvStore, _>::open(disk.clone(), 1, cfg).unwrap();
            for (slot, op) in ops.iter().enumerate() {
                let req = shared_req::<KvStore>(slot, op.clone());
                store.log_tob_events(vec![TobEvent::Decided {
                    slot: slot as u64,
                    sender: ReplicaId::new(0),
                    seq: slot as u64,
                    payload: req.clone(),
                }]).unwrap();
                store.note_commit(&req).unwrap();
            }
            drop(store);
            disk.crash(crash_seed);

            let (_store, recovered) = ReplicaStore::<KvStore, _>::open(disk, 1, cfg).unwrap();
            let recovered = recovered.replay(&mut PaxosTob::with_defaults(1));
            let k = recovered.deliveries.len();
            prop_assert!(k <= nops);
            let mut state = recovered.state.clone();
            for req in &recovered.deliveries {
                KvStore::apply(&mut state, &req.op);
            }
            let (expect, _) = replay::<KvStore>(&ops[..k]);
            prop_assert_eq!(state, expect);
        }
    }
}
