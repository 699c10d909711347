//! A replica whose storage starts failing must **crash-stop** — surface
//! a typed [`bayou_storage::StorageError`], stop acknowledging work and
//! go silent — instead of panicking across channel/lock state. The rest
//! of the cluster observes it exactly as a crash and keeps committing
//! with the surviving quorum.

use bayou_broadcast::PaxosConfig;
use bayou_core::{recover_paxos_replica, BayouCluster, ProtocolMode};
use bayou_data::{DeltaState, KvOp, KvStore};
use bayou_sim::SimConfig;
use bayou_storage::{scan_frames, MemDisk, Storage, StorageError, StoreConfig, WalRecord};
use bayou_types::{Level, ReplicaId, VirtualTime};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};

fn ms(v: u64) -> VirtualTime {
    VirtualTime::from_millis(v)
}

/// A disk that starts erroring on every write after a budget of appends
/// (a full disk, a dying device, a revoked volume…).
#[derive(Debug, Clone)]
struct FailingDisk {
    inner: MemDisk,
    appends_left: Arc<AtomicI64>,
}

impl FailingDisk {
    fn new(budget: i64) -> Self {
        FailingDisk {
            inner: MemDisk::new(),
            appends_left: Arc::new(AtomicI64::new(budget)),
        }
    }

    fn exhausted(&self) -> bool {
        self.appends_left.load(Ordering::SeqCst) <= 0
    }
}

impl Storage for FailingDisk {
    fn append(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        if self.appends_left.fetch_sub(1, Ordering::SeqCst) <= 0 {
            return Err(StorageError::Io("injected disk failure".into()));
        }
        self.inner.append(file, bytes)
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        if self.exhausted() {
            return Err(StorageError::Io("injected disk failure".into()));
        }
        self.inner.sync()
    }
    fn read(&self, file: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.read(file)
    }
    fn write_atomic(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        if self.exhausted() {
            return Err(StorageError::Io("injected disk failure".into()));
        }
        self.inner.write_atomic(file, bytes)
    }
    fn remove(&mut self, file: &str) -> Result<(), StorageError> {
        self.inner.remove(file)
    }
    fn exists(&self, file: &str) -> bool {
        self.inner.exists(file)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

#[test]
fn storage_failure_crash_stops_the_replica_and_the_cluster_survives() {
    let n = 3;
    // replica 2's disk dies after a handful of appends; the others are
    // healthy
    let sick = FailingDisk::new(12);
    let healthy: Vec<MemDisk> = (0..n).map(|_| MemDisk::new()).collect();
    let sick_for_factory = sick.clone();
    let sim = SimConfig::new(n, 31).with_max_time(ms(30_000));
    let mut cluster: BayouCluster<KvStore> = BayouCluster::with_factory(sim, move |id| {
        if id == ReplicaId::new(2) {
            recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
                id,
                n,
                ProtocolMode::Improved,
                PaxosConfig::default(),
                sick_for_factory.clone(),
                StoreConfig::default(),
            )
        } else {
            recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
                id,
                n,
                ProtocolMode::Improved,
                PaxosConfig::default(),
                healthy[id.index()].clone(),
                StoreConfig::default(),
            )
        }
    });
    for k in 0..20u64 {
        cluster.invoke_at(
            ms(1 + 50 * k),
            ReplicaId::new((k % 3) as u32),
            KvOp::put(format!("k{}", k % 5), k as i64),
            Level::Weak,
        );
    }
    cluster.run_until(ms(30_000));

    // the sick replica crash-stopped with a typed error — no panic, no
    // further acknowledgements
    let sick_replica = cluster.replica(ReplicaId::new(2));
    assert!(
        matches!(sick_replica.failure(), Some(StorageError::Io(_))),
        "replica 2 must crash-stop on its disk failure: {:?}",
        sick_replica.failure()
    );

    // the surviving quorum kept committing; they converge with each
    // other (the failed replica is skipped, exactly like a crashed one)
    cluster.assert_convergence(&[ReplicaId::new(2)]);
    let survivors_committed = cluster.replica(ReplicaId::new(0)).committed_total();
    assert!(
        survivors_committed > sick_replica.committed_total(),
        "survivors out-committed the failed replica"
    );
    assert!(
        survivors_committed >= 15,
        "the quorum kept serving: {survivors_committed} commits"
    );
}

/// One buffered append: file name and bytes.
type Append = (String, Vec<u8>);

/// A disk that buffers appends until `flush`, as `FileStorage` does, and
/// whose `flush` fails once it is broken: the step barrier, not the
/// append, is where the step's records fail to reach the device. What a
/// failed flush held is kept for inspection.
#[derive(Debug, Clone, Default)]
struct FlushFailingDisk {
    inner: MemDisk,
    buffered: Arc<Mutex<Vec<Append>>>,
    broken: Arc<AtomicBool>,
    lost: Arc<Mutex<Vec<u8>>>,
}

impl Storage for FlushFailingDisk {
    fn append(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let mut buffered = self.buffered.lock().unwrap();
        buffered.push((file.to_string(), bytes.to_vec()));
        Ok(())
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        let mut buffered = self.buffered.lock().unwrap();
        if self.broken.load(Ordering::SeqCst) && !buffered.is_empty() {
            let mut lost = self.lost.lock().unwrap();
            for (_, bytes) in buffered.drain(..) {
                lost.extend_from_slice(&bytes);
            }
            return Err(StorageError::Io("injected flush failure".into()));
        }
        for (file, bytes) in buffered.drain(..) {
            self.inner.append(&file, &bytes)?;
        }
        Ok(())
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        self.flush()?;
        self.inner.sync()
    }
    fn read(&self, file: &str) -> Result<Vec<u8>, StorageError> {
        self.inner.read(file)
    }
    fn write_atomic(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.inner.write_atomic(file, bytes)
    }
    fn remove(&mut self, file: &str) -> Result<(), StorageError> {
        self.inner.remove(file)
    }
    fn exists(&self, file: &str) -> bool {
        self.inner.exists(file)
    }
    fn list(&self) -> Vec<String> {
        self.inner.list()
    }
}

/// A `flush` that fails at the step barrier crash-stops the host with a
/// typed error, nothing of that step leaves it, and the surviving quorum
/// keeps committing — with the record sync on (the barrier syncs, which
/// flushes first) and off (the barrier only flushes).
#[test]
fn a_failed_flush_at_the_step_barrier_crash_stops_the_host() {
    let n = 3;
    for sync_every_record in [true, false] {
        let store_cfg = StoreConfig {
            sync_every_record,
            ..Default::default()
        };
        let sick = FlushFailingDisk::default();
        let healthy: Vec<MemDisk> = (0..n).map(|_| MemDisk::new()).collect();
        let sick_for_factory = sick.clone();
        let sim = SimConfig::new(n, 41).with_max_time(ms(30_000));
        let mut cluster: BayouCluster<KvStore> = BayouCluster::with_factory(sim, move |id| {
            let paxos = PaxosConfig::default();
            let mode = ProtocolMode::Improved;
            if id == ReplicaId::new(2) {
                let disk = sick_for_factory.clone();
                recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
                    id, n, mode, paxos, disk, store_cfg,
                )
            } else {
                let disk = healthy[id.index()].clone();
                recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
                    id, n, mode, paxos, disk, store_cfg,
                )
            }
        });
        for k in 0..9u64 {
            let at = ms(1 + 50 * k);
            let op = KvOp::put(format!("k{k}"), k as i64);
            cluster.invoke_at(at, ReplicaId::new((k % 3) as u32), op, Level::Weak);
        }
        cluster.run_until(ms(5_000));
        assert_eq!(cluster.replica(ReplicaId::new(2)).committed_total(), 9);
        assert!(cluster.host(ReplicaId::new(2)).failure().is_none());

        // the disk breaks while the cluster is idle; the next step at
        // replica 2 that writes anything is the invocation below
        sick.broken.store(true, Ordering::SeqCst);
        let lost_op = KvOp::put("lost", -1);
        cluster.invoke_at(ms(5_001), ReplicaId::new(2), lost_op.clone(), Level::Weak);
        for k in 0..10u64 {
            let at = ms(5_100 + 50 * k);
            let op = KvOp::put(format!("after{k}"), k as i64);
            cluster.invoke_at(at, ReplicaId::new((k % 2) as u32), op, Level::Weak);
        }
        let trace = cluster.run_until(ms(30_000));

        let host = cluster.host(ReplicaId::new(2));
        assert!(
            matches!(host.failure(), Some(StorageError::Io(_))),
            "sync_every_record={sync_every_record}: the failed flush must crash-stop the host: {:?}",
            host.failure()
        );
        // the failed flush held exactly the invocation's records
        let lost = sick.lost.lock().unwrap();
        let scan = scan_frames::<WalRecord<KvOp>>(&lost);
        assert!(
            (scan.records.iter())
                .any(|r| matches!(r, WalRecord::Invoke { req, .. } if req.op == lost_op)),
            "the failed step is the invocation's"
        );
        // nothing of that step left the host: no response, and no peer
        // ever heard of the request
        let lost_ev = (trace.events.iter())
            .find(|e| e.op == lost_op)
            .expect("the invocation is recorded");
        assert!(lost_ev.value.is_none(), "no response left the failed step");
        assert_eq!(trace.tob_no(lost_ev.meta.id()), None);
        for r in [ReplicaId::new(0), ReplicaId::new(1)] {
            assert_eq!(cluster.replica(r).materialize().get("lost"), None);
            assert!(!cluster
                .replica(r)
                .tentative_ids()
                .contains(&lost_ev.meta.id()));
        }
        // the surviving quorum kept committing
        cluster.assert_convergence(&[ReplicaId::new(2)]);
        assert_eq!(cluster.replica(ReplicaId::new(0)).committed_total(), 19);
    }
}

/// A store that fails validation on restart does not kill the replica
/// thread: `recover_paxos_replica` hands back a host that is already
/// crash-stopped with the typed error, and the rest of the cluster keeps
/// serving around it.
#[test]
fn a_restart_on_a_corrupt_snapshot_comes_up_crash_stopped_and_the_cluster_serves_on() {
    let n = 3;
    let store_cfg = StoreConfig {
        snapshot_every: 4,
        ..Default::default()
    };
    let disks: Vec<MemDisk> = (0..n).map(|_| MemDisk::new()).collect();
    let sick = disks[2].clone();
    let sim = SimConfig::new(n, 43)
        .with_crash(ms(2_000), ReplicaId::new(2))
        .with_restart(ms(3_000), ReplicaId::new(2))
        .with_max_time(ms(30_000));
    let mut incarnations = 0;
    let mut cluster: BayouCluster<KvStore> = BayouCluster::with_factory(sim, move |id| {
        if id == ReplicaId::new(2) {
            incarnations += 1;
            if incarnations > 1 {
                // one bit of the snapshot rotted while the replica was down
                let snap = (sick.list().into_iter())
                    .find(|f| f.contains("snap-"))
                    .expect("replica 2 saved a snapshot");
                let mut bytes = sick.read(&snap).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x10;
                sick.clone().write_atomic(&snap, &bytes).unwrap();
            }
        }
        recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
            id,
            n,
            ProtocolMode::Improved,
            PaxosConfig::default(),
            disks[id.index()].clone(),
            store_cfg,
        )
    });
    for k in 0..20u64 {
        let op = KvOp::put(format!("k{k}"), k as i64);
        // replica 2 takes invocations only before its crash
        let r = if k < 9 { k % 3 } else { k % 2 };
        cluster.invoke_at(ms(1 + 150 * k), ReplicaId::new(r as u32), op, Level::Weak);
    }
    cluster.run_until(ms(30_000));

    let host = cluster.host(ReplicaId::new(2));
    assert!(
        matches!(host.failure(), Some(StorageError::Corrupt(_))),
        "an unreadable store must come up crash-stopped: {:?}",
        host.failure()
    );
    assert_eq!(cluster.replica(ReplicaId::new(2)).committed_total(), 0);
    cluster.assert_convergence(&[ReplicaId::new(2)]);
    let survivor = cluster.replica(ReplicaId::new(0));
    assert_eq!(survivor.committed_total(), 20, "the quorum kept serving");
    assert_eq!(survivor.materialize().get("k19"), Some(&19));
}
