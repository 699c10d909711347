//! Criterion bench: the durable-storage subsystem — WAL append cost,
//! snapshot write cost, and recovery time as a function of log length.
//!
//! Results feed `BENCH_PR2.json` (see the criterion shim's `BENCH_JSON`
//! output) and the ROADMAP Performance section.

use bayou_broadcast::{PaxosTob, TobEvent};
use bayou_data::{KvOp, KvStore};
use bayou_storage::{FileStorage, MemDisk, Persistence, ReplicaStore, StoreConfig};
use bayou_types::{Dot, Level, ReplicaId, Req, SharedReq, Timestamp};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;

fn shared(n: u64, op: KvOp) -> SharedReq<KvOp> {
    Arc::new(Req::new(
        Timestamp::new(n as i64 + 1),
        Dot::new(ReplicaId::new(0), n + 1),
        Level::Weak,
        op,
    ))
}

fn decided(slot: u64, req: &SharedReq<KvOp>) -> TobEvent<SharedReq<KvOp>> {
    TobEvent::Decided {
        slot,
        sender: ReplicaId::new(0),
        seq: slot,
        payload: req.clone(),
    }
}

/// Cost of one `log_invoke` append (frame + checksum + backend write),
/// with and without a per-record fsync, on the in-memory disk.
fn bench_wal_append(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage_wal_append");
    g.throughput(Throughput::Elements(1));
    for (name, sync) in [("mem_fsync_each", true), ("mem_fsync_batched", false)] {
        g.bench_function(name, |b| {
            let cfg = StoreConfig {
                snapshot_every: u64::MAX,
                segment_max_bytes: usize::MAX,
                sync_every_record: sync,
            };
            let (mut store, _) = ReplicaStore::<KvStore, _>::open(MemDisk::new(), 3, cfg).unwrap();
            let mut i = 0u64;
            b.iter(|| {
                let req = shared(i, KvOp::put("key", i as i64));
                store.log_invoke(&req, i).unwrap();
                // a step barrier per record: the raw per-record cost
                // (a no-op when the record demanded no sync)
                store.sync_step().unwrap();
                i += 1;
            });
        });
    }
    g.bench_function("file_fsync_batched", |b| {
        let dir = std::env::temp_dir().join(format!("bayou-bench-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = StoreConfig {
            snapshot_every: u64::MAX,
            segment_max_bytes: usize::MAX,
            sync_every_record: false,
        };
        let backend = FileStorage::open(&dir).unwrap();
        let (mut store, _) = ReplicaStore::<KvStore, _>::open(backend, 3, cfg).unwrap();
        let mut i = 0u64;
        b.iter(|| {
            let req = shared(i, KvOp::put("key", i as i64));
            store.log_invoke(&req, i).unwrap();
            i += 1;
        });
        let _ = std::fs::remove_dir_all(&dir);
    });
    g.finish();
}

/// Cost of writing one snapshot of a grown state (10³ / 10⁴ keys).
fn bench_snapshot_write(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage_snapshot");
    for keys in [1_000u64, 10_000] {
        g.bench_with_input(BenchmarkId::new("write", keys), &keys, |b, &keys| {
            let cfg = StoreConfig {
                snapshot_every: u64::MAX, // manual snapshots only
                segment_max_bytes: usize::MAX,
                sync_every_record: false,
            };
            let (mut store, _) = ReplicaStore::<KvStore, _>::open(MemDisk::new(), 3, cfg).unwrap();
            for k in 0..keys {
                let req = shared(k, KvOp::put(format!("k{k}"), k as i64));
                store.log_tob_events(vec![decided(k, &req)]).unwrap();
                store.note_commit(&req).unwrap();
            }
            b.iter(|| store.write_snapshot());
        });
    }
    g.finish();
}

/// Recovery time (`ReplicaStore::open` + `Recovered::replay`) for a 2 000-commit history:
/// replaying the whole WAL vs decoding a snapshot plus a short suffix.
fn bench_recovery(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage_recovery");
    let commits = 2_000u64;
    for (name, snapshot_every) in [("wal_only_2k", u64::MAX), ("snapshot_plus_suffix_2k", 64)] {
        let cfg = StoreConfig {
            snapshot_every,
            segment_max_bytes: usize::MAX,
            sync_every_record: false,
        };
        let disk = MemDisk::new();
        {
            let (mut store, _) = ReplicaStore::<KvStore, _>::open(disk.clone(), 3, cfg).unwrap();
            for k in 0..commits {
                let req = shared(k, KvOp::put(format!("k{}", k % 512), k as i64));
                store.log_tob_events(vec![decided(k, &req)]).unwrap();
                store.note_commit(&req).unwrap();
            }
        }
        g.bench_function(name, |b| {
            // recover a fork each iteration: `open` appends a fresh
            // segment, which must not accumulate on the shared original
            b.iter_batched(
                || disk.fork(),
                |fork| {
                    let (_store, recovered) =
                        ReplicaStore::<KvStore, _>::open(fork, 3, cfg).unwrap();
                    let replayed = recovered.replay(&mut PaxosTob::with_defaults(3));
                    assert_eq!(replayed.deliveries.len() as u64, commits);
                    replayed.deliveries.len()
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_wal_append,
    bench_snapshot_write,
    bench_recovery
);
criterion_main!(benches);
