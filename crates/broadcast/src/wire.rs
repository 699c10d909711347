//! [`Wire`] codecs for the broadcast-layer frame types.
//!
//! The simulator delivers these values as in-memory enums; the byte
//! codec matters on the WAL path and for the future TCP front end. Each
//! layout is declared once with `bayou_types::wire!`: one `u8` tag per
//! enum variant, fields in declaration order, little-endian fixed-width
//! integers and length-prefixed sequences. The proptests in
//! `crates/broadcast/tests/proptests.rs` round-trip these against random
//! values, including decodes from dirty reused pool buffers.

use crate::link::LinkMsg;
use crate::paxos::{Ballot, Entry, PaxosMsg};
use crate::rb::{RbId, RbMsg};
use bayou_types::{wire, Wire, WireError, WireReader};

wire! { Ballot { round, leader } }

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

wire! {
    PaxosMsg<M> {
        0 => Submit { entries, decided_upto, committed_upto },
        1 => Prepare { ballot, decided_upto },
        2 => Promise { ballot, accepted, decided_upto, committed_upto },
        3 => Accept { ballot, slot, entry },
        4 => Accepted { ballot, slot },
        5 => Decide { slot, entry, stable_upto },
        6 => DecideAck { upto, committed_upto, stable_upto },
        7 => Catchup { first, entries, stable_upto, floor },
        8 => LeaseGrant { ballot, grant, duration_us },
        9 => LeaseAck { ballot, grant, clock },
        10 => Nack { promised },
    }
}

wire! {
    LinkMsg<M> {
        0 => Data { incarnation, floor, seq, payloads },
        1 => Ack { incarnation, upto, sparse },
    }
}

wire! { RbId { origin, seq } }

wire! { RbMsg<M> { id, floor, payload } }

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
}
