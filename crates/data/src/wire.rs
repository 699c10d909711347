//! Stable byte encodings ([`Wire`]) for every shipped operation type.
//!
//! These codecs are what lets `bayou-storage` persist requests of *any*
//! of the eight data types: a WAL record frames `Req<Op>` through the
//! [`Wire`] impl of the concrete `Op`, and state snapshots reuse the
//! generic collection impls from `bayou-types` (all shipped states are
//! `i64`, `Vec<String>`, `BTreeSet<String>` or string-keyed `BTreeMap`s,
//! which already encode).
//!
//! The layout contract is the same as in `bayou_types::wire`, and each
//! op type states its layout once in a `wire!` invocation: one tag byte
//! per enum variant, fields in declaration order, little-endian
//! integers, length-prefixed strings. **Tags are append-only** — a new
//! operation gets the next free tag; existing tags never change meaning,
//! so WAL segments written by an older build keep decoding.

use crate::{
    BankOp, CalendarOp, CounterOp, Expr, Instr, KvOp, ListOp, RegisterOp, ScriptOp, SetOp,
};
use bayou_types::{wire, Wire, WireError, WireReader, WireView};

wire! {
    ListOp {
        0 => Append(s),
        1 => Duplicate,
        2 => Read,
        3 => GetFirst,
        4 => Size,
    }
}

wire! {
    RegisterOp {
        0 => Write(v),
        1 => Read,
    }
}

wire! {
    CounterOp {
        0 => Add(v),
        1 => AddAndGet(v),
        2 => Read,
    }
}

wire! {
    KvOp {
        0 => Get(k),
        1 => Put(k, v),
        2 => PutIfAbsent(k, v),
        3 => Remove(k),
        4 => Keys,
        5 => Size,
    }
}

wire! {
    SetOp {
        0 => Add(e),
        1 => Remove(e),
        2 => Contains(e),
        3 => Elements,
    }
}

wire! {
    BankOp {
        0 => Deposit(a, v),
        1 => Withdraw(a, v),
        2 => Balance(a),
        3 => Total,
    }
}

wire! {
    CalendarOp {
        0 => Reserve { room, slot, who },
        1 => Cancel { room, slot, who },
        2 => Holder { room, slot },
        3 => Schedule(room),
    }
}

wire! {
    Expr {
        0 => Const(v),
        1 => Load(k),
        2 => Acc,
        3 => AccPlus(v),
    }
}

wire! {
    Instr {
        0 => Read(k),
        1 => Write(k, e),
    }
}

impl Wire for ScriptOp {
    fn encode(&self, out: &mut Vec<u8>) {
        self.instrs.encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ScriptOp::new(Vec::decode(r)?))
    }
}

/// Borrowed view of a [`KvOp`]: the key is a slice of the input frame,
/// so the server routes a client request without allocating. It decodes
/// the same layout as `KvOp`'s codec above.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KvOpView<'a> {
    /// See [`KvOp::Get`].
    Get(&'a str),
    /// See [`KvOp::Put`].
    Put(&'a str, i64),
    /// See [`KvOp::PutIfAbsent`].
    PutIfAbsent(&'a str, i64),
    /// See [`KvOp::Remove`].
    Remove(&'a str),
    /// See [`KvOp::Keys`].
    Keys,
    /// See [`KvOp::Size`].
    Size,
}

impl<'a> KvOpView<'a> {
    /// The key this operation addresses, if any — the borrowed twin of
    /// [`KvOp::key`], so a router can pick a shard before the op is
    /// promoted to its owned form.
    pub fn key(&self) -> Option<&'a str> {
        match self {
            KvOpView::Get(k)
            | KvOpView::Put(k, _)
            | KvOpView::PutIfAbsent(k, _)
            | KvOpView::Remove(k) => Some(k),
            KvOpView::Keys | KvOpView::Size => None,
        }
    }

    /// Whether the operation is read-only — the borrowed twin of
    /// [`crate::DataType::is_read_only`] for [`crate::KvStore`], so a
    /// server can route reads (leaseholder vs sticky follower) before
    /// the op is promoted to its owned form.
    pub fn is_read_only(&self) -> bool {
        matches!(self, KvOpView::Get(_) | KvOpView::Keys | KvOpView::Size)
    }
}

impl<'a> WireView<'a> for KvOpView<'a> {
    type Owned = KvOp;
    fn decode_view(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(KvOpView::Get(<&str>::decode_view(r)?)),
            1 => Ok(KvOpView::Put(<&str>::decode_view(r)?, i64::decode(r)?)),
            2 => Ok(KvOpView::PutIfAbsent(
                <&str>::decode_view(r)?,
                i64::decode(r)?,
            )),
            3 => Ok(KvOpView::Remove(<&str>::decode_view(r)?)),
            4 => Ok(KvOpView::Keys),
            5 => Ok(KvOpView::Size),
            tag => Err(WireError::BadTag { ty: "KvOp", tag }),
        }
    }
    fn into_owned(self) -> KvOp {
        match self {
            KvOpView::Get(k) => KvOp::Get(k.to_owned()),
            KvOpView::Put(k, v) => KvOp::Put(k.to_owned(), v),
            KvOpView::PutIfAbsent(k, v) => KvOp::PutIfAbsent(k.to_owned(), v),
            KvOpView::Remove(k) => KvOp::Remove(k.to_owned()),
            KvOpView::Keys => KvOp::Keys,
            KvOpView::Size => KvOp::Size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomOp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn round_trips<F>(seed: u64)
    where
        F: RandomOp,
        F::Op: Wire,
    {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..200 {
            let op = F::random_op(&mut rng);
            let bytes = op.to_bytes();
            assert_eq!(F::Op::from_bytes(&bytes).unwrap(), op, "{}", F::NAME);
        }
    }

    #[test]
    fn random_ops_of_all_types_round_trip() {
        round_trips::<crate::AppendList>(1);
        round_trips::<crate::RwRegister>(2);
        round_trips::<crate::Counter>(3);
        round_trips::<crate::KvStore>(4);
        round_trips::<crate::AddRemoveSet>(5);
        round_trips::<crate::Bank>(6);
        round_trips::<crate::Calendar>(7);
        round_trips::<crate::Script>(8);
    }

    #[test]
    fn op_views_decode_the_owned_layout() {
        let mut rng = StdRng::seed_from_u64(24);
        for _ in 0..200 {
            let op = <crate::KvStore as RandomOp>::random_op(&mut rng);
            let bytes = op.to_bytes();
            assert_eq!(KvOpView::view_from_bytes(&bytes).unwrap().into_owned(), op);
        }
    }

    #[test]
    fn op_views_borrow_from_the_frame() {
        let op = KvOp::put("pooled-key", 9);
        let bytes = op.to_bytes();
        let range = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        match KvOpView::view_from_bytes(&bytes).unwrap() {
            KvOpView::Put(k, 9) => assert!(range.contains(&(k.as_ptr() as usize))),
            other => panic!("decoded {other:?}"),
        }
    }

    #[test]
    fn states_of_all_types_round_trip() {
        use crate::{apply_all, RandomOp};

        fn state_round_trip<F>(seed: u64)
        where
            F: RandomOp,
            F::State: Wire,
        {
            let mut rng = StdRng::seed_from_u64(seed);
            let ops: Vec<F::Op> = (0..50).map(|_| F::random_op(&mut rng)).collect();
            let mut state = F::State::default();
            apply_all::<F>(&mut state, &ops);
            let bytes = state.to_bytes();
            assert_eq!(F::State::from_bytes(&bytes).unwrap(), state, "{}", F::NAME);
        }

        state_round_trip::<crate::AppendList>(11);
        state_round_trip::<crate::RwRegister>(12);
        state_round_trip::<crate::Counter>(13);
        state_round_trip::<crate::KvStore>(14);
        state_round_trip::<crate::AddRemoveSet>(15);
        state_round_trip::<crate::Bank>(16);
        state_round_trip::<crate::Calendar>(17);
        state_round_trip::<crate::Script>(18);
    }
}
