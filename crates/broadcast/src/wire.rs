//! [`Wire`] codecs for the broadcast-layer frame types.
//!
//! The simulator delivers these values as in-memory enums; the byte
//! codec matters on the WAL path and for the future TCP front end. Every
//! impl follows the workspace convention: one `u8` tag per enum variant,
//! fields in declaration order, little-endian fixed-width integers and
//! length-prefixed sequences (see `bayou_types::wire`). The proptests in
//! `crates/broadcast/tests/proptests.rs` round-trip these against random
//! values, including decodes from dirty reused pool buffers.

use crate::link::LinkMsg;
use crate::paxos::{Ballot, Entry, PaxosMsg};
use crate::rb::{RbId, RbMsg};
use bayou_types::{Wire, WireError, WireReader};

impl Wire for Ballot {
    fn encode(&self, out: &mut Vec<u8>) {
        self.round.encode(out);
        self.leader.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Ballot {
            round: u64::decode(r)?,
            leader: Wire::decode(r)?,
        })
    }
}

impl<M: Wire> Wire for Entry<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sender().encode(out);
        self.seq().encode(out);
        self.payload().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let sender = Wire::decode(r)?;
        let seq = u64::decode(r)?;
        let payload = M::decode(r)?;
        Ok(Entry::new(sender, seq, payload))
    }
}

impl<M: Wire> Wire for PaxosMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            PaxosMsg::Submit {
                entries,
                decided_upto,
                committed_upto,
            } => {
                out.push(0);
                entries.encode(out);
                decided_upto.encode(out);
                committed_upto.encode(out);
            }
            PaxosMsg::Prepare {
                ballot,
                decided_upto,
            } => {
                out.push(1);
                ballot.encode(out);
                decided_upto.encode(out);
            }
            PaxosMsg::Promise {
                ballot,
                accepted,
                decided_upto,
                committed_upto,
            } => {
                out.push(2);
                ballot.encode(out);
                accepted.encode(out);
                decided_upto.encode(out);
                committed_upto.encode(out);
            }
            PaxosMsg::Accept {
                ballot,
                slot,
                entry,
            } => {
                out.push(3);
                ballot.encode(out);
                slot.encode(out);
                entry.encode(out);
            }
            PaxosMsg::Accepted { ballot, slot } => {
                out.push(4);
                ballot.encode(out);
                slot.encode(out);
            }
            PaxosMsg::Decide {
                slot,
                entry,
                stable_upto,
            } => {
                out.push(5);
                slot.encode(out);
                entry.encode(out);
                stable_upto.encode(out);
            }
            PaxosMsg::DecideAck {
                upto,
                committed_upto,
                stable_upto,
            } => {
                out.push(6);
                upto.encode(out);
                committed_upto.encode(out);
                stable_upto.encode(out);
            }
            PaxosMsg::Catchup {
                first,
                entries,
                stable_upto,
                floor,
            } => {
                out.push(7);
                first.encode(out);
                entries.encode(out);
                stable_upto.encode(out);
                floor.encode(out);
            }
            PaxosMsg::LeaseGrant {
                ballot,
                grant,
                duration_us,
            } => {
                out.push(8);
                ballot.encode(out);
                grant.encode(out);
                duration_us.encode(out);
            }
            PaxosMsg::LeaseAck {
                ballot,
                grant,
                clock,
            } => {
                out.push(9);
                ballot.encode(out);
                grant.encode(out);
                clock.encode(out);
            }
            PaxosMsg::Nack { promised } => {
                out.push(10);
                promised.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(PaxosMsg::Submit {
                entries: Vec::decode(r)?,
                decided_upto: u64::decode(r)?,
                committed_upto: u64::decode(r)?,
            }),
            1 => Ok(PaxosMsg::Prepare {
                ballot: Ballot::decode(r)?,
                decided_upto: u64::decode(r)?,
            }),
            2 => Ok(PaxosMsg::Promise {
                ballot: Ballot::decode(r)?,
                accepted: Vec::decode(r)?,
                decided_upto: u64::decode(r)?,
                committed_upto: u64::decode(r)?,
            }),
            3 => Ok(PaxosMsg::Accept {
                ballot: Ballot::decode(r)?,
                slot: u64::decode(r)?,
                entry: Entry::decode(r)?,
            }),
            4 => Ok(PaxosMsg::Accepted {
                ballot: Ballot::decode(r)?,
                slot: u64::decode(r)?,
            }),
            5 => Ok(PaxosMsg::Decide {
                slot: u64::decode(r)?,
                entry: Entry::decode(r)?,
                stable_upto: u64::decode(r)?,
            }),
            6 => Ok(PaxosMsg::DecideAck {
                upto: u64::decode(r)?,
                committed_upto: u64::decode(r)?,
                stable_upto: u64::decode(r)?,
            }),
            7 => Ok(PaxosMsg::Catchup {
                first: u64::decode(r)?,
                entries: Vec::decode(r)?,
                stable_upto: u64::decode(r)?,
                floor: u64::decode(r)?,
            }),
            8 => Ok(PaxosMsg::LeaseGrant {
                ballot: Ballot::decode(r)?,
                grant: u64::decode(r)?,
                duration_us: u64::decode(r)?,
            }),
            9 => Ok(PaxosMsg::LeaseAck {
                ballot: Ballot::decode(r)?,
                grant: u64::decode(r)?,
                clock: i64::decode(r)?,
            }),
            10 => Ok(PaxosMsg::Nack {
                promised: Ballot::decode(r)?,
            }),
            tag => Err(WireError::BadTag {
                ty: "PaxosMsg",
                tag,
            }),
        }
    }
}

impl<M: Wire> Wire for LinkMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            LinkMsg::Data {
                incarnation,
                floor,
                seq,
                payloads,
            } => {
                out.push(0);
                incarnation.encode(out);
                floor.encode(out);
                seq.encode(out);
                payloads.encode(out);
            }
            LinkMsg::Ack {
                incarnation,
                upto,
                sparse,
            } => {
                out.push(1);
                incarnation.encode(out);
                upto.encode(out);
                sparse.encode(out);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(LinkMsg::Data {
                incarnation: u64::decode(r)?,
                floor: u64::decode(r)?,
                seq: u64::decode(r)?,
                payloads: Vec::decode(r)?,
            }),
            1 => Ok(LinkMsg::Ack {
                incarnation: u64::decode(r)?,
                upto: u64::decode(r)?,
                sparse: Vec::decode(r)?,
            }),
            tag => Err(WireError::BadTag { ty: "LinkMsg", tag }),
        }
    }
}

impl Wire for RbId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.origin.encode(out);
        self.seq.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RbId {
            origin: Wire::decode(r)?,
            seq: u64::decode(r)?,
        })
    }
}

impl<M: Wire> Wire for RbMsg<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id.encode(out);
        self.floor.encode(out);
        self.payload.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(RbMsg {
            id: RbId::decode(r)?,
            floor: u64::decode(r)?,
            payload: M::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayou_types::{BufPool, ReplicaId};

    fn rt<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    fn entry(s: u32, seq: u64, p: u64) -> Entry<u64> {
        Entry::new(ReplicaId::new(s), seq, p)
    }

    #[test]
    fn broadcast_frames_round_trip() {
        rt(Ballot {
            round: 3,
            leader: ReplicaId::new(2),
        });
        rt(entry(1, 9, 77));
        rt(PaxosMsg::Submit {
            entries: vec![entry(1, 1, 10), entry(1, 2, 11)],
            decided_upto: 5,
            committed_upto: 3,
        });
        rt(PaxosMsg::<u64>::Prepare {
            ballot: Ballot {
                round: 1,
                leader: ReplicaId::new(0),
            },
            decided_upto: 0,
        });
        rt(PaxosMsg::Promise {
            ballot: Ballot {
                round: 2,
                leader: ReplicaId::new(1),
            },
            accepted: vec![(
                4,
                Ballot {
                    round: 1,
                    leader: ReplicaId::new(0),
                },
                entry(2, 7, 99),
            )],
            decided_upto: 4,
            committed_upto: 2,
        });
        rt(PaxosMsg::Accept {
            ballot: Ballot {
                round: 2,
                leader: ReplicaId::new(1),
            },
            slot: 8,
            entry: entry(0, 3, 42),
        });
        rt(PaxosMsg::<u64>::Accepted {
            ballot: Ballot {
                round: 2,
                leader: ReplicaId::new(1),
            },
            slot: 8,
        });
        rt(PaxosMsg::Decide {
            slot: 8,
            entry: entry(0, 3, 42),
            stable_upto: 6,
        });
        rt(PaxosMsg::<u64>::DecideAck {
            upto: 9,
            committed_upto: 7,
            stable_upto: 6,
        });
        rt(PaxosMsg::Catchup {
            first: 2,
            entries: vec![entry(1, 1, 10)],
            stable_upto: 1,
            floor: 2,
        });
        rt(PaxosMsg::<u64>::LeaseGrant {
            ballot: Ballot {
                round: 2,
                leader: ReplicaId::new(1),
            },
            grant: 17,
            duration_us: 400_000,
        });
        rt(PaxosMsg::<u64>::LeaseAck {
            ballot: Ballot {
                round: 2,
                leader: ReplicaId::new(1),
            },
            grant: 17,
            clock: -123_456,
        });
        rt(PaxosMsg::<u64>::Nack {
            promised: Ballot {
                round: 5,
                leader: ReplicaId::new(0),
            },
        });
        rt(LinkMsg::Data {
            incarnation: 1_000_000,
            floor: 9,
            seq: 12,
            payloads: vec![5u64, 6, 7],
        });
        rt(LinkMsg::<u64>::Ack {
            incarnation: 1_000_000,
            upto: 12,
            sparse: vec![14, 16],
        });
        rt(RbId {
            origin: ReplicaId::new(1),
            seq: 44,
        });
        rt(RbMsg {
            id: RbId {
                origin: ReplicaId::new(1),
                seq: 44,
            },
            floor: 40,
            payload: 9u64,
        });
    }

    #[test]
    fn pooled_encode_matches_fresh_encode() {
        let mut pool = BufPool::new();
        let big = PaxosMsg::Catchup {
            first: 0,
            entries: (0..32u64).map(|i| entry(i as u32 % 3, i, i * 7)).collect(),
            stable_upto: 0,
            floor: 0,
        };
        let small = PaxosMsg::<u64>::Accepted {
            ballot: Ballot {
                round: 1,
                leader: ReplicaId::new(0),
            },
            slot: 1,
        };
        // Encode a large frame, recycle its buffer, then encode a
        // smaller frame into the reused (dirty) capacity: the bytes
        // must be identical to a fresh encode.
        let b1 = pool.encode(&big);
        assert_eq!(b1, big.to_bytes());
        pool.checkin(b1);
        let b2 = pool.encode(&small);
        assert_eq!(b2, small.to_bytes());
        assert_eq!(pool.misses(), 1);
    }

    #[test]
    fn bad_tags_fail_cleanly() {
        assert!(matches!(
            PaxosMsg::<u64>::from_bytes(&[11]),
            Err(WireError::BadTag {
                ty: "PaxosMsg",
                tag: 11
            })
        ));
        assert!(matches!(
            LinkMsg::<u64>::from_bytes(&[2]),
            Err(WireError::BadTag {
                ty: "LinkMsg",
                tag: 2
            })
        ));
        let msg = LinkMsg::Data {
            incarnation: 3,
            floor: 1,
            seq: 1,
            payloads: vec![1u64, 2],
        };
        let bytes = msg.to_bytes();
        for cut in 0..bytes.len() {
            assert!(LinkMsg::<u64>::from_bytes(&bytes[..cut]).is_err());
        }
    }
}
