//! WAL record types and their on-disk framing.
//!
//! Every durable fact a replica learns becomes one [`WalRecord`]:
//! locally invoked requests, remote requests entering the tentative
//! order, and the TOB layer's durable transitions (Paxos promises,
//! acceptances, decisions). Records are framed as
//!
//! ```text
//! ┌─────────────┬──────────────┬──────────────────────┐
//! │ len: u32 LE │ crc32: u32 LE│ payload: [u8; len]   │
//! └─────────────┴──────────────┴──────────────────────┘
//! ```
//!
//! with the CRC computed over the payload. The reader stops at the first
//! truncated or checksum-failing frame — a crash mid-append loses at most
//! the unsynced tail, never a synced prefix.

use crate::crc::crc32;
use bayou_broadcast::TobEvent;
use bayou_types::{wire, ReplicaId, Req, SharedReq, Wire};

/// Bytes of framing overhead per record (`len` + `crc`).
pub const FRAME_OVERHEAD: usize = 8;

/// One durable fact in a replica's write-ahead log.
///
/// The request-bearing variants carry the full request so recovery can
/// rebuild the tentative/committed lists without any other data source;
/// `tob_seq` is the origin's dense TOB-cast counter value, needed to
/// re-submit undecided requests into the TOB after a restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord<Op> {
    /// A request invoked locally, logged before it is broadcast.
    Invoke {
        /// The origin's dense TOB-cast sequence number.
        tob_seq: u64,
        /// The request.
        req: Req<Op>,
    },
    /// A remote request RB-delivered into the tentative order.
    Tentative {
        /// The origin's dense TOB-cast sequence number (carried on the
        /// RB wire frame).
        tob_seq: u64,
        /// The request.
        req: Req<Op>,
    },
    /// The TOB acceptor promised a ballot.
    Promised {
        /// Ballot round.
        round: u64,
        /// Ballot leader.
        leader: ReplicaId,
    },
    /// The TOB acceptor accepted a value in a slot.
    Accepted {
        /// The slot.
        slot: u64,
        /// Accepting ballot round.
        round: u64,
        /// Accepting ballot leader.
        leader: ReplicaId,
        /// Broadcast origin.
        sender: ReplicaId,
        /// The origin's dense TOB-cast sequence number.
        seq: u64,
        /// The accepted request.
        req: Req<Op>,
    },
    /// The TOB learner recorded a slot as decided.
    Decided {
        /// The slot.
        slot: u64,
        /// Broadcast origin.
        sender: ReplicaId,
        /// The origin's dense TOB-cast sequence number.
        seq: u64,
        /// The decided request.
        req: Req<Op>,
    },
}

impl<Op> WalRecord<Op> {
    /// Converts a TOB durable event into its WAL record form.
    pub fn from_tob_event(ev: TobEvent<SharedReq<Op>>) -> Self
    where
        Op: Clone,
    {
        match ev {
            TobEvent::Promised { round, leader } => WalRecord::Promised { round, leader },
            TobEvent::Accepted {
                slot,
                round,
                leader,
                sender,
                seq,
                payload,
            } => WalRecord::Accepted {
                slot,
                round,
                leader,
                sender,
                seq,
                req: payload.as_ref().clone(),
            },
            TobEvent::Decided {
                slot,
                sender,
                seq,
                payload,
            } => WalRecord::Decided {
                slot,
                sender,
                seq,
                req: payload.as_ref().clone(),
            },
        }
    }

    /// Converts a TOB-layer record back into the event form, sharing the
    /// request; returns `None` for the request-list records.
    pub fn into_tob_event(self) -> Option<TobEvent<SharedReq<Op>>> {
        match self {
            WalRecord::Promised { round, leader } => Some(TobEvent::Promised { round, leader }),
            WalRecord::Accepted {
                slot,
                round,
                leader,
                sender,
                seq,
                req,
            } => Some(TobEvent::Accepted {
                slot,
                round,
                leader,
                sender,
                seq,
                payload: std::sync::Arc::new(req),
            }),
            WalRecord::Decided {
                slot,
                sender,
                seq,
                req,
            } => Some(TobEvent::Decided {
                slot,
                sender,
                seq,
                payload: std::sync::Arc::new(req),
            }),
            WalRecord::Invoke { .. } | WalRecord::Tentative { .. } => None,
        }
    }
}

/// A WAL record borrowed from live replica state: its `encode` comes
/// from the owned [`WalRecord`]'s layout, so it writes the same bytes
/// without cloning the request — the hot write path never deep-copies
/// payloads just to frame them.
#[derive(Debug)]
pub enum WalRecordRef<'a, Op> {
    /// See [`WalRecord::Invoke`].
    Invoke {
        /// The origin's dense TOB-cast sequence number.
        tob_seq: u64,
        /// The request.
        req: &'a Req<Op>,
    },
    /// See [`WalRecord::Tentative`].
    Tentative {
        /// The origin's dense TOB-cast sequence number.
        tob_seq: u64,
        /// The request.
        req: &'a Req<Op>,
    },
    /// See [`WalRecord::Promised`].
    Promised {
        /// Ballot round.
        round: u64,
        /// Ballot leader.
        leader: ReplicaId,
    },
    /// See [`WalRecord::Accepted`].
    Accepted {
        /// The slot.
        slot: u64,
        /// Accepting ballot round.
        round: u64,
        /// Accepting ballot leader.
        leader: ReplicaId,
        /// Broadcast origin.
        sender: ReplicaId,
        /// The origin's dense TOB-cast sequence number.
        seq: u64,
        /// The accepted request.
        req: &'a Req<Op>,
    },
    /// See [`WalRecord::Decided`].
    Decided {
        /// The slot.
        slot: u64,
        /// Broadcast origin.
        sender: ReplicaId,
        /// The origin's dense TOB-cast sequence number.
        seq: u64,
        /// The decided request.
        req: &'a Req<Op>,
    },
}

impl<'a, Op> WalRecordRef<'a, Op> {
    /// Borrows a TOB durable event as its WAL record form.
    pub fn from_tob_event(ev: &'a TobEvent<SharedReq<Op>>) -> Self {
        match ev {
            TobEvent::Promised { round, leader } => WalRecordRef::Promised {
                round: *round,
                leader: *leader,
            },
            TobEvent::Accepted {
                slot,
                round,
                leader,
                sender,
                seq,
                payload,
            } => WalRecordRef::Accepted {
                slot: *slot,
                round: *round,
                leader: *leader,
                sender: *sender,
                seq: *seq,
                req: payload.as_ref(),
            },
            TobEvent::Decided {
                slot,
                sender,
                seq,
                payload,
            } => WalRecordRef::Decided {
                slot: *slot,
                sender: *sender,
                seq: *seq,
                req: payload.as_ref(),
            },
        }
    }
}

wire! {
    /// The WAL layout, stated once: [`WalRecordRef`] encodes through the
    /// same entries. Tag 0 is unused.
    WalRecord<Op> & WalRecordRef {
        1 => Invoke { tob_seq, req },
        2 => Tentative { tob_seq, req },
        3 => Promised { round, leader },
        4 => Accepted { slot, round, leader, sender, seq, req },
        5 => Decided { slot, sender, seq, req },
    }
}

/// Frames an encoded payload: `[len][crc][payload]`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
    (payload.len() as u32).encode(&mut out);
    crc32(payload).encode(&mut out);
    out.extend_from_slice(payload);
    out
}

/// Frames a payload into a reused buffer: clears `out`, reserves the
/// 8-byte header, runs `encode` to append the payload in place, then
/// patches the length and checksum — the zero-allocation (steady-state)
/// counterpart of [`frame`]`(&payload_bytes)`, byte-for-byte identical
/// to it. `out` is typically checked out of a [`bayou_types::BufPool`];
/// `encode` is a closure so both [`Wire`] values and borrowed encoders
/// like [`WalRecordRef`] fit.
pub fn frame_into(out: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.extend_from_slice(&[0u8; FRAME_OVERHEAD]);
    encode(out);
    let len = out.len() - FRAME_OVERHEAD;
    let crc = crc32(&out[FRAME_OVERHEAD..]);
    out[..4].copy_from_slice(&(len as u32).to_le_bytes());
    out[4..8].copy_from_slice(&crc.to_le_bytes());
}

/// The result of scanning a stream of framed records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameScan<T> {
    /// Every record that decoded and checksummed cleanly, in order.
    pub records: Vec<T>,
    /// Byte length of the clean prefix (where the first bad frame, if
    /// any, starts).
    pub clean_len: usize,
    /// Whether the scan stopped early (truncated frame, bad checksum or
    /// an undecodable payload) — i.e. the stream had a torn tail.
    pub torn: bool,
}

/// Scans framed records from `data`, stopping at the first frame that is
/// truncated, fails its checksum, or does not decode. Everything before
/// the stop point is returned; the tail is reported, not an error —
/// exactly the semantics crash recovery wants.
pub fn scan_frames<T: Wire>(data: &[u8]) -> FrameScan<T> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    // every arithmetic step below is explicitly bounds-checked: a hostile
    // length field must surface as a torn tail, never as a slice panic
    while data.len().saturating_sub(pos) >= FRAME_OVERHEAD {
        let word = |at: usize| -> u32 {
            let mut le = [0u8; 4];
            le.copy_from_slice(&data[at..at + 4]);
            u32::from_le_bytes(le)
        };
        let len = word(pos) as usize;
        let crc = word(pos + 4);
        let start = pos + FRAME_OVERHEAD;
        let Some(end) = start.checked_add(len).filter(|e| *e <= data.len()) else {
            return FrameScan {
                records,
                clean_len: pos,
                torn: true,
            };
        };
        let payload = &data[start..end];
        if crc32(payload) != crc {
            return FrameScan {
                records,
                clean_len: pos,
                torn: true,
            };
        }
        match T::from_bytes(payload) {
            Ok(rec) => records.push(rec),
            Err(_) => {
                return FrameScan {
                    records,
                    clean_len: pos,
                    torn: true,
                }
            }
        }
        pos = end;
    }
    FrameScan {
        records,
        clean_len: pos,
        torn: pos != data.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayou_types::{Dot, Level, Timestamp};

    fn req(n: u64) -> Req<u64> {
        Req::new(
            Timestamp::new(n as i64),
            Dot::new(ReplicaId::new(0), n),
            Level::Weak,
            n * 10,
        )
    }

    fn sample_records() -> Vec<WalRecord<u64>> {
        vec![
            WalRecord::Invoke {
                tob_seq: 0,
                req: req(1),
            },
            WalRecord::Tentative {
                tob_seq: 3,
                req: req(2),
            },
            WalRecord::Promised {
                round: 2,
                leader: ReplicaId::new(1),
            },
            WalRecord::Accepted {
                slot: 5,
                round: 2,
                leader: ReplicaId::new(1),
                sender: ReplicaId::new(0),
                seq: 0,
                req: req(1),
            },
            WalRecord::Decided {
                slot: 5,
                sender: ReplicaId::new(0),
                seq: 0,
                req: req(1),
            },
        ]
    }

    #[test]
    fn records_round_trip() {
        for rec in sample_records() {
            let bytes = rec.to_bytes();
            assert_eq!(WalRecord::<u64>::from_bytes(&bytes).unwrap(), rec);
        }
    }

    #[test]
    fn frame_into_matches_frame_even_on_a_dirty_buffer() {
        let mut buf = vec![0xAB; 256]; // dirty, oversized reused buffer
        for rec in sample_records() {
            frame_into(&mut buf, |o| rec.encode(o));
            assert_eq!(buf, frame(&rec.to_bytes()));
        }
    }

    #[test]
    fn frame_scan_round_trips_clean_streams() {
        let mut stream = Vec::new();
        for rec in sample_records() {
            stream.extend_from_slice(&frame(&rec.to_bytes()));
        }
        let scan: FrameScan<WalRecord<u64>> = scan_frames(&stream);
        assert!(!scan.torn);
        assert_eq!(scan.clean_len, stream.len());
        assert_eq!(scan.records, sample_records());
    }

    #[test]
    fn every_truncation_point_yields_exactly_the_intact_prefix() {
        let recs = sample_records();
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for rec in &recs {
            stream.extend_from_slice(&frame(&rec.to_bytes()));
            boundaries.push(stream.len());
        }
        for cut in 0..=stream.len() {
            let scan: FrameScan<WalRecord<u64>> = scan_frames(&stream[..cut]);
            let intact = boundaries.iter().filter(|b| **b <= cut).count() - 1;
            assert_eq!(scan.records.len(), intact, "cut at {cut}");
            assert_eq!(scan.records[..], recs[..intact]);
            assert_eq!(scan.torn, cut != boundaries[intact]);
            assert_eq!(scan.clean_len, boundaries[intact]);
        }
    }

    #[test]
    fn corrupted_byte_stops_the_scan_at_the_frame_boundary() {
        let recs = sample_records();
        let mut stream = Vec::new();
        for rec in &recs {
            stream.extend_from_slice(&frame(&rec.to_bytes()));
        }
        let first_len = frame(&recs[0].to_bytes()).len();
        // flip a payload byte inside the second frame
        stream[first_len + FRAME_OVERHEAD] ^= 0xFF;
        let scan: FrameScan<WalRecord<u64>> = scan_frames(&stream);
        assert!(scan.torn);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.clean_len, first_len);
    }

    /// The twin's five variants are pinned against the owned ones in
    /// `tests/golden_bytes.rs`; this checks the `TobEvent` borrow path.
    #[test]
    fn borrowed_encoding_is_byte_identical_to_owned() {
        let ev = TobEvent::Decided {
            slot: 9,
            sender: ReplicaId::new(2),
            seq: 4,
            payload: std::sync::Arc::new(req(3)),
        };
        let mut borrowed = Vec::new();
        WalRecordRef::from_tob_event(&ev).encode(&mut borrowed);
        assert_eq!(borrowed, WalRecord::from_tob_event(ev).to_bytes());
    }

    #[test]
    fn tob_event_conversion_round_trips() {
        let ev = TobEvent::Decided {
            slot: 9,
            sender: ReplicaId::new(2),
            seq: 4,
            payload: std::sync::Arc::new(req(3)),
        };
        let rec = WalRecord::from_tob_event(ev.clone());
        let back = rec.into_tob_event().unwrap();
        assert_eq!(back, ev);
        assert!(WalRecord::<u64>::Invoke {
            tob_seq: 0,
            req: req(1)
        }
        .into_tob_event()
        .is_none());
    }
}
