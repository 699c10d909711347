//! Criterion bench: committed-history compaction — snapshot write and
//! recovery cost as a function of history length, with and without the
//! compaction mark, plus the replica-memory proxy (retained committed
//! entries) from a long simulated run.
//!
//! Timings land in the criterion shim's `BENCH_JSON`; the size/memory
//! proxies are printed as `SIZE ...` lines (archived together with the
//! timings in `BENCH_PR3.json`). The point being demonstrated: without
//! compaction both snapshot bytes and decode time scale with *history*,
//! with compaction they scale with *state + speculation window*.

use bayou_broadcast::{BaselineMark, TobEvent};
use bayou_core::{BayouCluster, ClusterConfig};
use bayou_data::{Counter, CounterOp, DataType, KvOp, KvStore};
use bayou_storage::{MemDisk, Persistence, ReplicaStore, Storage, StoreConfig};
use bayou_types::{Dot, Level, ReplicaId, Req, SharedReq, Timestamp, VirtualTime};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;

const KEYS: u64 = 1_000;

fn shared(n: u64, op: KvOp) -> SharedReq<KvOp> {
    Arc::new(Req::new(
        Timestamp::new(n as i64 + 1),
        Dot::new(ReplicaId::new(0), n + 1),
        Level::Weak,
        op,
    ))
}

/// Builds a store holding `history` commits; with `compact` the
/// replica-reported watermark sits `window` commits behind the head, so
/// the decided-log mirror (and the next snapshot) retains only that
/// window.
fn grown_store(
    disk: MemDisk,
    history: u64,
    window: u64,
    compact: bool,
) -> ReplicaStore<KvStore, MemDisk> {
    let cfg = StoreConfig {
        snapshot_every: u64::MAX, // manual snapshots only
        segment_max_bytes: usize::MAX,
        sync_every_record: false,
    };
    let (mut store, _) = ReplicaStore::<KvStore, _>::open(disk, 1, cfg).unwrap();
    // the baseline trails the head by `window` commits: fold each op in
    // once it falls below the watermark, exactly as a live replica does
    let mut baseline = <KvStore as DataType>::State::default();
    let mut floor = 0u64;
    for k in 0..history {
        let req = shared(k, KvOp::put(format!("key{}", k % KEYS), k as i64));
        store
            .log_tob_events(vec![TobEvent::Decided {
                slot: k,
                sender: ReplicaId::new(0),
                seq: k,
                payload: req.clone(),
            }])
            .unwrap();
        store.note_commit(&req).unwrap();
        if compact && (k + 1) % window == 0 && k + 1 > window {
            let new_floor = k + 1 - window;
            for j in floor..new_floor {
                KvStore::apply(
                    &mut baseline,
                    &KvOp::put(format!("key{}", j % KEYS), j as i64),
                );
            }
            floor = new_floor;
            let mark = BaselineMark {
                slot_floor: floor,
                delivered: floor,
                fifo_next: vec![floor],
            };
            store.note_stable(&mark, &baseline).unwrap();
        }
    }
    store
}

/// Snapshot write cost + byte size: O(history) without the mark,
/// O(state + window) with it.
fn bench_snapshot_forms(c: &mut Criterion) {
    let mut g = c.benchmark_group("compaction_snapshot");
    for history in [1_000u64, 10_000] {
        for (form, compact) in [("legacy", false), ("compact", true)] {
            let id = BenchmarkId::new(form, history);
            g.bench_with_input(id, &history, |b, &history| {
                let disk = MemDisk::new();
                let mut store = grown_store(disk.clone(), history, 256, compact);
                b.iter(|| store.write_snapshot().unwrap());
                let snap_bytes = disk
                    .list()
                    .into_iter()
                    .filter(|f| f.starts_with("snap-"))
                    .map(|f| disk.read(&f).unwrap().len())
                    .max()
                    .unwrap_or(0);
                println!("SIZE compaction_snapshot/{form}/{history} snapshot_bytes={snap_bytes}");
            });
        }
    }
    g.finish();
}

/// Recovery cost (`ReplicaStore::open`: decode + rebuild): the compact
/// form decodes a window, the legacy form decodes the lifetime.
fn bench_recovery_forms(c: &mut Criterion) {
    let mut g = c.benchmark_group("compaction_recovery");
    for history in [1_000u64, 10_000] {
        for (form, compact) in [("legacy", false), ("compact", true)] {
            let id = BenchmarkId::new(form, history);
            g.bench_with_input(id, &history, |b, &history| {
                let disk = MemDisk::new();
                let mut store = grown_store(disk.clone(), history, 256, compact);
                store.write_snapshot().unwrap();
                drop(store);
                let cfg = StoreConfig {
                    snapshot_every: u64::MAX,
                    segment_max_bytes: usize::MAX,
                    sync_every_record: false,
                };
                b.iter(|| {
                    let (s, recovered) =
                        ReplicaStore::<KvStore, _>::open(disk.fork(), 1, cfg).unwrap();
                    assert!(recovered.mark.delivered > 0 || !compact);
                    (s, recovered)
                });
            });
        }
    }
    g.finish();
}

/// Replica-memory proxy: retained committed entries after a 10⁴-commit
/// simulated run (single replica so the run is CPU-bound, not
/// consensus-bound). Timing measures the whole run; the proxy is the
/// `SIZE` line.
fn bench_replica_memory_proxy(c: &mut Criterion) {
    let mut g = c.benchmark_group("compaction_replica_memory");
    g.sample_size(10);
    for (form, compact) in [("legacy", false), ("compact", true)] {
        g.bench_function(form, |b| {
            b.iter(|| {
                let mut cfg = ClusterConfig::new(1, 7).with_sim(
                    bayou_sim::SimConfig::new(1, 7).with_max_time(VirtualTime::from_secs(3_600)),
                );
                if compact {
                    cfg = cfg.with_compaction();
                }
                let mut cluster: BayouCluster<Counter> = BayouCluster::new(cfg);
                for k in 0..10_000u64 {
                    cluster.invoke_at(
                        VirtualTime::from_millis(1 + 2 * k),
                        ReplicaId::new(0),
                        CounterOp::Add(1),
                        Level::Weak,
                    );
                }
                cluster.run_until(VirtualTime::from_secs(3_600));
                let r = cluster.replica(ReplicaId::new(0));
                assert_eq!(r.committed_total(), 10_000);
                println!(
                    "SIZE compaction_replica_memory/{form} retained_committed={} decided_log={}",
                    r.committed_ids().len(),
                    r.tob().decided_log().len(),
                );
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_snapshot_forms,
    bench_recovery_forms,
    bench_replica_memory_proxy
);
criterion_main!(benches);
