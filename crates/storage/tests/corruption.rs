//! Adversarial decoder hardening: every persistent byte format (WAL
//! frames, snapshots, manifests) is attacked with byte flips at every
//! position, truncations at every length, hostile length fields and
//! random garbage. Corruption must always surface as a typed error (or,
//! for the WAL scanner, a clean torn-tail stop) — **never** a panic,
//! index overflow or runaway allocation.

use bayou_broadcast::BaselineMark;
use bayou_data::{DataType, KvOp, KvStore};
use bayou_storage::{
    frame, scan_frames, FrameScan, Manifest, MemDisk, ReplicaStore, Snapshot, Storage,
    StorageError, StoreConfig, WalRecord,
};
use bayou_types::{Dot, Level, ReplicaId, Req, Timestamp, Wire};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn req(n: u64) -> Req<KvOp> {
    Req::new(
        Timestamp::new(n as i64),
        Dot::new(ReplicaId::new(0), n),
        Level::Weak,
        KvOp::put(format!("key{n}"), n as i64),
    )
}

fn wal_stream() -> Vec<u8> {
    let mut out = Vec::new();
    for n in 1..=5u64 {
        let rec = WalRecord::Invoke {
            tob_seq: n,
            req: req(n),
        };
        out.extend_from_slice(&frame(&rec.to_bytes()));
    }
    out
}

fn sample_snapshot() -> Snapshot<KvStore> {
    let mut state = std::collections::BTreeMap::new();
    state.insert("a".to_string(), 1i64);
    state.insert("b".to_string(), -7i64);
    Snapshot {
        delivered: 4,
        state,
        promised: (2, ReplicaId::new(1)),
        accepted: vec![(5, 2, ReplicaId::new(1), ReplicaId::new(0), 3, req(3))],
        decided: vec![
            (3, ReplicaId::new(0), 1, req(1)),
            (4, ReplicaId::new(1), 0, req(2)),
        ],
        pending: vec![],
        mark: BaselineMark {
            slot_floor: 3,
            delivered: 3,
            fifo_next: vec![1, 0, 0],
        },
        baseline: std::collections::BTreeMap::new(),
        event_high: vec![3, 0, 0],
    }
}

/// Flipping any single byte of a framed WAL stream yields a clean
/// prefix-scan (possibly shorter), never a panic — and a flip inside a
/// frame always truncates the scan at or before that frame.
#[test]
fn wal_byte_flips_never_panic_and_never_resurrect_bad_frames() {
    let stream = wal_stream();
    let clean: FrameScan<WalRecord<KvOp>> = scan_frames(&stream);
    assert_eq!(clean.records.len(), 5);
    for pos in 0..stream.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut bad = stream.clone();
            bad[pos] ^= mask;
            let scan: FrameScan<WalRecord<KvOp>> = scan_frames(&bad);
            // whatever survived must be an exact prefix of the original
            assert!(scan.records.len() <= 5, "flip at {pos}");
            assert_eq!(
                scan.records[..],
                clean.records[..scan.records.len()],
                "flip at {pos} must not alter surviving records"
            );
        }
    }
}

/// Truncating the stream at every byte boundary yields exactly the
/// frames that fit, and a hostile length field (up to `u32::MAX`) is a
/// torn tail, not a slice panic or allocation.
#[test]
fn wal_truncations_and_hostile_lengths_are_torn_tails() {
    let stream = wal_stream();
    for cut in 0..stream.len() {
        let scan: FrameScan<WalRecord<KvOp>> = scan_frames(&stream[..cut]);
        assert!(scan.clean_len <= cut);
    }
    for hostile_len in [u32::MAX, u32::MAX / 2, 1 << 30, 9_999] {
        let mut bad = Vec::new();
        hostile_len.encode(&mut bad);
        0xDEAD_BEEFu32.encode(&mut bad);
        bad.extend_from_slice(&[0u8; 16]);
        let scan: FrameScan<WalRecord<KvOp>> = scan_frames(&bad);
        assert!(scan.torn, "hostile len {hostile_len} must read as torn");
        assert!(scan.records.is_empty());
        assert_eq!(scan.clean_len, 0);
    }
}

/// Every single-byte flip of a serialized snapshot is rejected as
/// corruption (the container checksum covers the whole body).
#[test]
fn snapshot_byte_flips_are_rejected() {
    let bytes = sample_snapshot().to_bytes();
    assert!(Snapshot::<KvStore>::from_bytes(&bytes).is_ok());
    for pos in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x20;
        assert!(
            Snapshot::<KvStore>::from_bytes(&bad).is_err(),
            "flip at byte {pos} must not decode"
        );
    }
}

/// Every truncation of a serialized snapshot is rejected.
#[test]
fn snapshot_truncations_are_rejected() {
    let bytes = sample_snapshot().to_bytes();
    for cut in 0..bytes.len() {
        assert!(
            Snapshot::<KvStore>::from_bytes(&bytes[..cut]).is_err(),
            "truncation to {cut} bytes must not decode"
        );
    }
}

/// Only container version 2 is read: a well-formed version-1 container
/// (valid magic and checksum over the legacy body — no mark, baseline or
/// dot high-waters) is a typed error, never a panic or a silent
/// zero-mark decode. So is a current body restamped as version 1.
#[test]
fn v1_stamped_snapshot_is_a_typed_error() {
    let s = sample_snapshot();
    let mut body = Vec::new();
    s.delivered.encode(&mut body);
    s.state.encode(&mut body);
    s.promised.encode(&mut body);
    s.accepted.encode(&mut body);
    s.decided.encode(&mut body);
    s.pending.encode(&mut body);
    let mut legacy = b"BSNP".to_vec();
    1u32.encode(&mut legacy);
    bayou_storage::crc32(&body).encode(&mut legacy);
    legacy.extend_from_slice(&body);

    let mut restamped = s.to_bytes();
    restamped[4..8].copy_from_slice(&1u32.to_le_bytes());

    for bytes in [legacy, restamped] {
        match Snapshot::<KvStore>::from_bytes(&bytes) {
            Err(StorageError::Corrupt(why)) => {
                assert!(why.contains("unsupported snapshot version 1"), "{why}")
            }
            other => panic!("a v1 container must be rejected, got {other:?}"),
        }
    }
}

/// Every single-byte flip and truncation of a manifest is rejected.
#[test]
fn manifest_flips_and_truncations_are_rejected() {
    let m = Manifest {
        snapshot: Some("snap-00000007".into()),
        segments: vec!["wal-00000008".into(), "wal-00000009".into()],
        next_file_seq: 10,
    };
    let bytes = m.to_bytes();
    assert_eq!(Manifest::from_bytes(&bytes).unwrap(), m);
    for pos in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        assert!(Manifest::from_bytes(&bad).is_err(), "flip at {pos}");
    }
    for cut in 0..bytes.len() {
        assert!(Manifest::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}

/// Random garbage buffers never panic any decoder (the fuzz-lite pass).
#[test]
fn random_garbage_never_panics_any_decoder() {
    let mut rng = StdRng::seed_from_u64(0xBAD_B17E5);
    for _ in 0..2_000 {
        let len = rng.gen_range(0..300usize);
        let buf: Vec<u8> = (0..len).map(|_| rng.gen::<u32>() as u8).collect();
        let _ = Snapshot::<KvStore>::from_bytes(&buf);
        let _ = Manifest::from_bytes(&buf);
        let _: FrameScan<WalRecord<KvOp>> = scan_frames(&buf);
        let _ = WalRecord::<KvOp>::from_bytes(&buf);
    }
}

/// A store whose manifest points at a corrupted snapshot must fail to
/// open with a typed corruption error — serving from unreadable storage
/// is worse than refusing to start.
#[test]
fn store_open_surfaces_snapshot_corruption_as_an_error() {
    let disk = MemDisk::new();
    let cfg = StoreConfig {
        snapshot_every: 2,
        ..Default::default()
    };
    {
        let (mut store, _) = ReplicaStore::<KvStore, _>::open(disk.clone(), 1, cfg).unwrap();
        use bayou_broadcast::TobEvent;
        use bayou_storage::Persistence;
        use std::sync::Arc;
        let mut image = Snapshot::<KvStore> {
            delivered: 0,
            state: Default::default(),
            promised: (0, ReplicaId::new(0)),
            accepted: Vec::new(),
            decided: Vec::new(),
            pending: Vec::new(),
            mark: BaselineMark::zero(1),
            baseline: Default::default(),
            event_high: vec![0],
        };
        for slot in 0..4u64 {
            let r = Arc::new(req(slot + 1));
            store
                .log_tob_events(vec![TobEvent::Decided {
                    slot,
                    sender: ReplicaId::new(0),
                    seq: slot,
                    payload: r.clone(),
                }])
                .unwrap();
            store.note_commit(&r).unwrap();
            // the image the process holds after committing `r`
            image.delivered += 1;
            KvStore::apply(&mut image.state, &r.op);
            image
                .decided
                .push((slot, ReplicaId::new(0), slot, r.as_ref().clone()));
            image.event_high = vec![slot + 1];
            if store.snapshot_due() {
                store.save_snapshot(&image).unwrap();
            }
        }
        assert!(store.snapshots_written() > 0);
    }
    // flip one byte inside the snapshot blob
    let snap_name = disk
        .list()
        .into_iter()
        .find(|f| f.starts_with("snap-"))
        .expect("snapshot exists");
    let mut bytes = disk.read(&snap_name).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    let mut disk2 = disk.clone();
    disk2.remove(&snap_name).unwrap();
    disk2.write_atomic(&snap_name, &bytes).unwrap();

    match ReplicaStore::<KvStore, _>::open(disk, 1, cfg) {
        Err(StorageError::Corrupt(_)) => {}
        other => panic!("corrupt snapshot must fail open with Corrupt, got {other:?}"),
    }
}
