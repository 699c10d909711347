//! State-object snapshots: the O(recovery-time) half of the store.
//!
//! A snapshot captures everything the WAL prefix it replaces could
//! reconstruct: the replica's state materialized at a TOB-delivery
//! prefix (encoded through the data type's [`Wire`] state codec — the
//! same encode path `bayou-data` states share), the TOB learner's
//! decided log, the acceptor's promised/accepted facts, and the requests
//! still awaiting a decision. After a snapshot installs, every older WAL
//! segment is deleted; recovery is `decode(snapshot) + replay(WAL
//! suffix)` instead of replaying the replica's lifetime.
//!
//! # Compact form (version 2)
//!
//! With committed-prefix compaction, the decided log in the snapshot is
//! only the *suffix above the globally-stable watermark*: the truncated
//! prefix is summarised by a [`bayou_broadcast::BaselineMark`] plus the
//! `baseline` state materialized at exactly the mark. This makes the
//! snapshot O(state + uncompacted window) instead of O(history) — the
//! decode cost finally matches the replay saving. Version 2 is the only
//! container read: a version-1 (full-decided-log, no mark) container is
//! rejected with a typed [`StorageError`] — no deployed data predates
//! the compact form.

use crate::backend::StorageError;
use bayou_broadcast::{BaselineMark, TobEvent};
use bayou_data::DataType;
use bayou_types::{wire, ReplicaId, Req, SharedReq, Wire, WireError, WireReader};

const MAGIC: &[u8; 4] = b"BSNP";
const VERSION: u32 = 2;

/// How a pending (not-yet-decided) request entered the replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingKind {
    /// Invoked locally (recovery must re-submit it to the TOB).
    Invoke,
    /// RB-delivered from a remote origin (recovery re-`ensure`s it).
    Tentative,
}

wire! {
    PendingKind {
        0 => Invoke,
        1 => Tentative,
    }
}

/// A decided TOB slot: `(slot, sender, seq, request)`.
pub type DecidedSlot<Op> = (u64, ReplicaId, u64, Req<Op>);

/// An accepted-but-not-necessarily-decided TOB slot:
/// `(slot, ballot round, ballot leader, sender, seq, request)`.
pub type AcceptedSlot<Op> = (u64, u64, ReplicaId, ReplicaId, u64, Req<Op>);

/// A pending request: `(kind, tob_seq, request)`.
pub type PendingReq<Op> = (PendingKind, u64, Req<Op>);

/// A full durable checkpoint of one replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot<F: DataType> {
    /// Number of TOB deliveries `state` reflects (the committed prefix
    /// length at capture time).
    pub delivered: u64,
    /// The state object materialized at exactly `delivered` deliveries.
    pub state: F::State,
    /// The acceptor's promised ballot `(round, leader)`.
    pub promised: (u64, ReplicaId),
    /// Accepted values for slots not yet known decided.
    pub accepted: Vec<AcceptedSlot<F::Op>>,
    /// The decided log **above the compaction floor** (all retained
    /// slots, ascending). With a zero mark this is the full decided
    /// log.
    pub decided: Vec<DecidedSlot<F::Op>>,
    /// Requests logged but not yet decided at capture time.
    pub pending: Vec<PendingReq<F::Op>>,
    /// The compaction floor the `decided` suffix sits on: slots below
    /// `mark.slot_floor` (the first `mark.delivered` deliveries) were
    /// truncated after all replicas durably delivered them.
    pub mark: BaselineMark,
    /// The state materialized at exactly `mark.delivered` deliveries —
    /// the baseline a recovered replica retains (and can serve to a
    /// disk-less laggard) in place of the truncated request payloads.
    pub baseline: F::State,
    /// Per-replica high-water `event_no` of every request ever seen in
    /// this store (compacted ones included) — keeps recovered dots
    /// collision-free even when the requests themselves were truncated.
    pub event_high: Vec<u64>,
}

impl<F: DataType> Snapshot<F> {
    /// The image of a replica of an `n`-replica cluster that holds
    /// nothing: what recovery starts from when no snapshot was saved.
    pub fn empty(n: usize) -> Self {
        Snapshot {
            delivered: 0,
            state: F::State::default(),
            promised: (0, ReplicaId::new(0)),
            accepted: Vec::new(),
            decided: Vec::new(),
            pending: Vec::new(),
            mark: BaselineMark::zero(n),
            baseline: F::State::default(),
            event_high: vec![0; n],
        }
    }

    /// Files a TOB endpoint's durable image
    /// ([`bayou_broadcast::Tob::durable_image`]) as this snapshot's
    /// promised ballot, accepted slots and decided log.
    pub fn set_tob_image(&mut self, image: Vec<TobEvent<SharedReq<F::Op>>>) {
        for event in image {
            match event {
                TobEvent::Promised { round, leader } => self.promised = (round, leader),
                TobEvent::Accepted {
                    slot,
                    round,
                    leader,
                    sender,
                    seq,
                    payload,
                } => {
                    let req = payload.as_ref().clone();
                    self.accepted.push((slot, round, leader, sender, seq, req));
                }
                TobEvent::Decided {
                    slot,
                    sender,
                    seq,
                    payload,
                } => {
                    let req = payload.as_ref().clone();
                    self.decided.push((slot, sender, seq, req));
                }
            }
        }
    }
}

impl<F: DataType> Snapshot<F>
where
    F::Op: Wire,
    F::State: Wire,
{
    /// Serializes with magic, version and a body checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the serialized snapshot (byte-identical to
    /// [`Snapshot::to_bytes`]) to `out` — the pooled-buffer encode path,
    /// so a store writing snapshots reuses one checked-out buffer
    /// instead of building a fresh body `Vec` per snapshot.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        crate::container::seal_into(out, MAGIC, VERSION, |body| {
            self.delivered.encode(body);
            self.state.encode(body);
            self.promised.encode(body);
            self.accepted.encode(body);
            self.decided.encode(body);
            self.pending.encode(body);
            // compaction floor + baseline + dot high-waters
            self.mark.encode(body);
            self.baseline.encode(body);
            self.event_high.encode(body);
        });
    }

    /// Parses and validates a serialized snapshot (container version 2
    /// only; any other version is a typed error).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, StorageError> {
        let body = crate::container::unseal(MAGIC, VERSION, "snapshot", bytes)?;
        let mut r = WireReader::new(body);
        let decode = |r: &mut WireReader<'_>| -> Result<Self, WireError> {
            Ok(Snapshot {
                delivered: u64::decode(r)?,
                state: F::State::decode(r)?,
                promised: <(u64, ReplicaId)>::decode(r)?,
                accepted: Vec::decode(r)?,
                decided: Vec::decode(r)?,
                pending: Vec::decode(r)?,
                mark: BaselineMark::decode(r)?,
                baseline: F::State::decode(r)?,
                event_high: Vec::decode(r)?,
            })
        };
        let snap =
            decode(&mut r).map_err(|e| StorageError::Corrupt(format!("snapshot body: {e}")))?;
        if !r.is_empty() {
            return Err(StorageError::Corrupt("snapshot trailing bytes".into()));
        }
        if snap.mark.delivered > snap.delivered {
            return Err(StorageError::Corrupt(
                "snapshot mark beyond its own delivered prefix".into(),
            ));
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayou_data::{KvOp, KvStore};
    use bayou_types::{Dot, Level, Timestamp};

    fn req(n: u64) -> Req<KvOp> {
        Req::new(
            Timestamp::new(n as i64),
            Dot::new(ReplicaId::new(0), n),
            Level::Weak,
            KvOp::put(format!("k{n}"), n as i64),
        )
    }

    fn sample() -> Snapshot<KvStore> {
        let mut state = std::collections::BTreeMap::new();
        state.insert("k1".to_string(), 1i64);
        Snapshot {
            delivered: 1,
            state,
            promised: (3, ReplicaId::new(1)),
            accepted: vec![(2, 3, ReplicaId::new(1), ReplicaId::new(0), 1, req(2))],
            decided: vec![(0, ReplicaId::new(0), 0, req(1))],
            pending: vec![(PendingKind::Invoke, 1, req(2))],
            mark: BaselineMark::zero(2),
            baseline: Default::default(),
            event_high: vec![2, 0],
        }
    }

    #[test]
    fn round_trip() {
        let s = sample();
        let back = Snapshot::<KvStore>::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back.delivered, s.delivered);
        assert_eq!(back.state, s.state);
        assert_eq!(back.promised, s.promised);
        assert_eq!(back.decided.len(), 1);
        assert_eq!(back.pending[0].0, PendingKind::Invoke);
        // payload equality (Req PartialEq compares sort keys only)
        assert_eq!(back.decided[0].3.op, s.decided[0].3.op);
        assert_eq!(back.mark, s.mark);
        assert_eq!(back.event_high, s.event_high);
    }

    #[test]
    fn compact_mark_round_trips() {
        let mut s = sample();
        s.delivered = 10;
        s.mark = BaselineMark {
            slot_floor: 9,
            delivered: 8,
            fifo_next: vec![5, 3],
        };
        s.baseline.insert("base".into(), 42);
        let back = Snapshot::<KvStore>::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back.mark, s.mark);
        assert_eq!(back.baseline, s.baseline);
    }

    #[test]
    fn mark_beyond_delivered_is_corrupt() {
        let mut s = sample();
        s.mark = BaselineMark {
            slot_floor: 5,
            delivered: 99, // > s.delivered == 1
            fifo_next: vec![0, 0],
        };
        assert!(matches!(
            Snapshot::<KvStore>::from_bytes(&s.to_bytes()),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        assert!(matches!(
            Snapshot::<KvStore>::from_bytes(&bytes),
            Err(StorageError::Corrupt(_))
        ));
        bytes.truncate(8);
        assert!(Snapshot::<KvStore>::from_bytes(&bytes).is_err());
    }
}
