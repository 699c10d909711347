//! Every snapshot a durable cluster writes, pinned.
//!
//! A fixed-seed durable 3-replica `BayouCluster` runs weak puts with
//! every 8th op strong, compacting, with a snapshot every 16 commits.
//! Replica 1 is killed and restarted from its disk; replica 2 is killed
//! and restarted on a wiped disk, so it comes back below the cluster's
//! compaction floor and installs a baseline transferred from a peer.
//! Every snapshot any replica writes is recorded, in order, and its
//! digest is compared with the pinned list below: how the store builds
//! a snapshot may change, what it writes at each snapshot point may not.
//! A second run saturates the cluster instead (weak puts every 2 µs over
//! 2 ms links, each leader held to 8 proposals in flight, a 100 µs
//! fsync): there a replica can take a snapshot while its TOB's
//! compaction floor is ahead of its own, the floor it records.
//!
//! One field is masked before hashing: the `event_high` entries of
//! replicas other than the writer. Recovery reads only the writer's own
//! entry (the dot high-water of its next invocation, `recover_group` in
//! `crates/core/src/persist.rs`); the others carry no meaning a
//! recovered replica acts on.
//!
//! A failing run prints the recomputed list. A digest that moves is a
//! change to what a replica makes durable: review it, never re-pin it to
//! make the test pass.

use bayou_broadcast::PaxosConfig;
use bayou_core::{recover_paxos_replica, BayouCluster, ProtocolMode};
use bayou_data::{DeltaState, KvOp, KvStore};
use bayou_sim::{NetworkConfig, SimConfig};
use bayou_storage::{MemDisk, Snapshot, Storage, StorageError, StoreConfig};
use bayou_types::{Level, ReplicaId, VirtualTime};
use std::sync::{Arc, Mutex};

/// `(writer, file name, bytes)` of one snapshot.
type Written = (u32, String, Vec<u8>);
/// Every snapshot written, in write order.
type SnapLog = Arc<Mutex<Vec<Written>>>;

/// A [`MemDisk`] that records every snapshot written through it.
struct Recorder {
    disk: MemDisk,
    writer: u32,
    log: SnapLog,
}

impl Storage for Recorder {
    fn append(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.disk.append(file, bytes)
    }
    fn sync(&mut self) -> Result<(), StorageError> {
        self.disk.sync()
    }
    fn read(&self, file: &str) -> Result<Vec<u8>, StorageError> {
        self.disk.read(file)
    }
    fn write_atomic(&mut self, file: &str, bytes: &[u8]) -> Result<(), StorageError> {
        if file.contains("snap-") {
            let mut log = self.log.lock().unwrap();
            log.push((self.writer, file.to_string(), bytes.to_vec()));
        }
        self.disk.write_atomic(file, bytes)
    }
    fn remove(&mut self, file: &str) -> Result<(), StorageError> {
        self.disk.remove(file)
    }
    fn exists(&self, file: &str) -> bool {
        self.disk.exists(file)
    }
    fn list(&self) -> Vec<String> {
        self.disk.list()
    }
}

/// FNV-1a, 64 bit: a digest that is stable across toolchains.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of one snapshot with the other replicas' `event_high`
/// entries masked.
fn digest(writer: u32, bytes: &[u8]) -> u64 {
    let mut snap = Snapshot::<KvStore>::from_bytes(bytes).expect("a snapshot decodes");
    for (i, h) in snap.event_high.iter_mut().enumerate() {
        if i != writer as usize {
            *h = 0;
        }
    }
    fnv(&snap.to_bytes())
}

fn ms(v: u64) -> VirtualTime {
    VirtualTime::from_millis(v)
}

/// Runs the scenario and returns `(writer, file, digest)` per snapshot
/// plus the log itself.
fn run() -> (Vec<(u32, String, u64)>, Vec<Written>) {
    let n = 3;
    let log: SnapLog = Arc::default();
    let disks: Vec<MemDisk> = (0..n).map(|_| MemDisk::new()).collect();
    let mut incarnations = [0u32; 3];
    let store_cfg = StoreConfig {
        snapshot_every: 16,
        ..Default::default()
    };
    let factory_log = log.clone();
    let factory = move |id: ReplicaId| {
        incarnations[id.index()] += 1;
        let disk = if id.index() == 2 && incarnations[2] > 1 {
            MemDisk::new() // the wiped disk: a laggard below the floor
        } else {
            disks[id.index()].clone()
        };
        let backend = Recorder {
            disk,
            writer: id.index() as u32,
            log: factory_log.clone(),
        };
        recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
            id,
            n,
            ProtocolMode::Improved,
            PaxosConfig::default(),
            backend,
            store_cfg,
        )
    };
    let deadline = VirtualTime::from_secs(60);
    let sim = SimConfig::new(n, 31)
        .with_crash(ms(1_500), ReplicaId::new(1))
        .with_restart(ms(2_500), ReplicaId::new(1))
        .with_crash(ms(4_000), ReplicaId::new(2))
        .with_restart(ms(5_000), ReplicaId::new(2))
        .with_max_time(deadline);
    let mut cluster: BayouCluster<KvStore> = BayouCluster::with_factory(sim, factory);
    for k in 0..400u64 {
        let level = if k % 8 == 7 {
            Level::Strong
        } else {
            Level::Weak
        };
        cluster.invoke_at(
            ms(1 + 15 * k),
            ReplicaId::new((k % 3) as u32),
            KvOp::put(format!("k{}", k % 11), k as i64),
            level,
        );
    }
    let trace = cluster.run_until(deadline);
    assert!(trace.quiescent, "the schedule must reach quiescence");
    cluster.assert_convergence(&[]);
    digests_of(&log)
}

/// The `(writer, file, digest)` list of a finished run, and its log.
fn digests_of(log: &SnapLog) -> (Vec<(u32, String, u64)>, Vec<Written>) {
    let log = log.lock().unwrap().clone();
    let digests = log
        .iter()
        .map(|(w, name, bytes)| (*w, name.clone(), digest(*w, bytes)))
        .collect();
    (digests, log)
}

/// The saturated run: 1 000 weak puts, one every 2 µs.
fn run_saturated() -> (Vec<(u32, String, u64)>, Vec<Written>) {
    let n = 3;
    let log: SnapLog = Arc::default();
    let factory_log = log.clone();
    let factory = move |id: ReplicaId| {
        let disk = MemDisk::new();
        disk.set_fsync_latency(VirtualTime::from_micros(100));
        let backend = Recorder {
            disk,
            writer: id.index() as u32,
            log: factory_log.clone(),
        };
        let paxos = PaxosConfig {
            max_inflight: 8,
            ..Default::default()
        };
        let store_cfg = StoreConfig {
            snapshot_every: 256,
            ..Default::default()
        };
        recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
            id,
            n,
            ProtocolMode::Improved,
            paxos,
            backend,
            store_cfg,
        )
    };
    let deadline = VirtualTime::from_secs(60);
    let sim = SimConfig::new(n, 42)
        .with_net(NetworkConfig::fixed(ms(2)))
        .with_max_time(deadline);
    let mut cluster: BayouCluster<KvStore> = BayouCluster::with_factory(sim, factory);
    for k in 0..1_000u64 {
        cluster.invoke_at(
            VirtualTime::from_micros(2 * k + 1),
            ReplicaId::new((k % 3) as u32),
            KvOp::put(format!("k{}", k % 64), k as i64),
            Level::Weak,
        );
    }
    assert!(cluster.run_until(deadline).quiescent);
    cluster.assert_convergence(&[]);
    digests_of(&log)
}

/// Fails with the recomputed list when `digests` is not `pinned`.
fn assert_pinned(digests: &[(u32, String, u64)], pinned: &[(u32, &str, u64)]) {
    let table: String = digests
        .iter()
        .map(|(w, name, d)| format!("    ({w}, \"{name}\", 0x{d:016x}),\n"))
        .collect();
    let pinned: Vec<(u32, String, u64)> = pinned
        .iter()
        .map(|(w, name, d)| (*w, name.to_string(), *d))
        .collect();
    assert!(
        digests == pinned.as_slice(),
        "snapshot digests moved; recomputed:\n{table}"
    );
}

/// `(writer, file, digest)` of every snapshot the scenario writes.
const PINNED: &[(u32, &str, u64)] = &[
    (2, "g0000-snap-00000001", 0xf3fa01043cd6a2fd),
    (1, "g0000-snap-00000001", 0xdd8bfbe3d888fa6a),
    (0, "g0000-snap-00000001", 0x2d7adc33c166203b),
    (1, "g0000-snap-00000003", 0x9dd09c03d30b1f42),
    (2, "g0000-snap-00000003", 0x13c4f07980034a25),
    (0, "g0000-snap-00000003", 0xca6980b5223151cb),
    (2, "g0000-snap-00000005", 0x6bed7e7bd7d12f49),
    (1, "g0000-snap-00000005", 0xaf22a9a496ec2f27),
    (0, "g0000-snap-00000005", 0xbd4280cebc032668),
    (1, "g0000-snap-00000007", 0x9d62f9cb00ff8966),
    (2, "g0000-snap-00000007", 0x94e89e03728e3107),
    (0, "g0000-snap-00000007", 0xa9cb67afa8135c68),
    (1, "g0000-snap-00000009", 0xf817f19c4fbc1ba4),
    (2, "g0000-snap-00000009", 0x3bbc33735f88bf84),
    (0, "g0000-snap-00000009", 0x24402007924cf346),
    (1, "g0000-snap-00000011", 0xb2ef952e8f18f77f),
    (2, "g0000-snap-00000011", 0x2bbbd6212aa92472),
    (0, "g0000-snap-00000011", 0x12f1b45143bf5bd9),
    (2, "g0000-snap-00000013", 0xa49409d61fd0d456),
    (0, "g0000-snap-00000013", 0xfe0e0901c52cb960),
    (2, "g0000-snap-00000015", 0xbf0f9f787011ba68),
    (0, "g0000-snap-00000015", 0xe9990757aefaf6a1),
    (2, "g0000-snap-00000017", 0x5aad37697c8e2f5a),
    (0, "g0000-snap-00000017", 0x15cd506bfd7a4435),
    (1, "g0000-snap-00000014", 0x39f79e6e602851cf),
    (2, "g0000-snap-00000019", 0x8aa0b1bb860f5a82),
    (0, "g0000-snap-00000019", 0xe89f426022a79bdd),
    (1, "g0000-snap-00000016", 0x73abe980f5ffc4e3),
    (2, "g0000-snap-00000021", 0xea48085b10f3a76d),
    (0, "g0000-snap-00000021", 0x7c2ab5b3cec7a6f2),
    (1, "g0000-snap-00000018", 0xd62f6aefe9d5a350),
    (2, "g0000-snap-00000023", 0xfd766991c7185e4c),
    (0, "g0000-snap-00000023", 0x28a30f4f6558ffd1),
    (1, "g0000-snap-00000020", 0xee2e2f687f0abda8),
    (2, "g0000-snap-00000025", 0x8207434463da6335),
    (0, "g0000-snap-00000025", 0x883ad1c183c0feb4),
    (1, "g0000-snap-00000022", 0xbf0bcdc5fbb54f44),
    (2, "g0000-snap-00000027", 0x52369c4093ccef58),
    (0, "g0000-snap-00000027", 0x3a88295b854b28c6),
    (1, "g0000-snap-00000024", 0x6738c7b5e8786812),
    (2, "g0000-snap-00000029", 0x4491735f03d671e0),
    (0, "g0000-snap-00000029", 0x9c1bc989d7bf45de),
    (1, "g0000-snap-00000026", 0x8bdeacbd2cace524),
    (0, "g0000-snap-00000031", 0xe248bf23ffa63233),
    (1, "g0000-snap-00000028", 0xf2a7ffd6f3a9974d),
    (0, "g0000-snap-00000033", 0xefca381e505dd021),
    (1, "g0000-snap-00000030", 0xb68e9cfb6f3f716a),
    (0, "g0000-snap-00000035", 0xbccbd9d568f63db9),
    (2, "g0000-snap-00000001", 0xc60aa45b1a7766bd),
    (1, "g0000-snap-00000032", 0x03afbb6c31765fd6),
    (2, "g0000-snap-00000003", 0x5a5d0065912b6cd6),
    (0, "g0000-snap-00000037", 0x3154221a983e8552),
    (1, "g0000-snap-00000034", 0x21000c6f2da7b5d2),
    (2, "g0000-snap-00000005", 0x410036cd7b7a1552),
    (0, "g0000-snap-00000039", 0xca8a4d45290b5ebb),
    (1, "g0000-snap-00000036", 0x2c8c065ec8887676),
    (2, "g0000-snap-00000007", 0x31fd5350e0644170),
    (0, "g0000-snap-00000041", 0xbadd29e031739c64),
    (2, "g0000-snap-00000009", 0x15672214ca3cd60a),
    (1, "g0000-snap-00000038", 0x75dc8bc3be3f1828),
    (0, "g0000-snap-00000043", 0x275fc64daa03c32c),
    (2, "g0000-snap-00000011", 0x470b4f6360e669d6),
    (1, "g0000-snap-00000040", 0x8c6ef38aee70cac5),
];

#[test]
fn every_snapshot_matches_its_pinned_digest() {
    let (digests, log) = run();
    // the scenario exercises what it claims to: compact snapshots, a
    // recovery from one, and a transferred baseline made durable
    let marks: Vec<(u32, u64)> = log
        .iter()
        .map(|(w, _, b)| {
            (
                *w,
                Snapshot::<KvStore>::from_bytes(b).unwrap().mark.delivered,
            )
        })
        .collect();
    assert!(marks.iter().any(|(_, m)| *m > 0), "no compact snapshot");
    let wiped = log
        .iter()
        .position(|(w, name, _)| *w == 2 && name.ends_with("snap-00000001"))
        .expect("the wiped replica writes a snapshot after its restart");
    assert!(
        marks[wiped].1 > 0,
        "the wiped replica's first snapshot is a baseline"
    );
    assert_pinned(&digests, PINNED);
}

/// `(writer, file, digest)` of every snapshot the saturated run writes.
const PINNED_SATURATED: &[(u32, &str, u64)] = &[
    (1, "g0000-snap-00000001", 0x82a2b9d87057e85f),
    (2, "g0000-snap-00000001", 0xbb0e0c158d45001b),
    (0, "g0000-snap-00000001", 0xf52494ca7ca1a907),
    (1, "g0000-snap-00000003", 0x98eb9390d696f0e4),
    (2, "g0000-snap-00000003", 0xcb5a4925cca91319),
    (0, "g0000-snap-00000003", 0xf9b3336ea426ec89),
    (1, "g0000-snap-00000005", 0x9cdd3df69abd82e6),
    (2, "g0000-snap-00000005", 0xdf79cb864bd82e67),
    (0, "g0000-snap-00000005", 0x3a77e4d55e227bfd),
];

#[test]
fn every_snapshot_of_a_saturated_run_matches_its_pinned_digest() {
    let (digests, _) = run_saturated();
    assert_pinned(&digests, PINNED_SATURATED);
}
