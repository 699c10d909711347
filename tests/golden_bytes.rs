//! Golden bytes: one hex-pinned sample per variant of every codec that
//! reaches the wire or the disk — the op types and states of all eight
//! data types, the broadcast frames, the replica and host messages, the
//! WAL records (owned and borrowed) and the snapshot and manifest
//! containers. These bytes are the format contract: a sample that moves
//! is a broken codec, never a test to re-pin.
//!
//! One sweep runs over every sample: each must decode and re-encode to
//! itself, every strict prefix must fail to decode, and a tagged sample
//! whose tag byte is replaced by its type's first unused tag must fail
//! with `BadTag` naming that type.

use bayou_broadcast::{Ballot, BaselineMark, Entry, LinkMsg, PaxosMsg, RbId, RbMsg};
use bayou_core::{BayouMsg, GroupedMsg, WireReq};
use bayou_data::{
    BankOp, CalendarOp, CounterOp, Expr, Instr, KvOp, KvStore, ListOp, RegisterOp, ScriptOp, SetOp,
};
use bayou_storage::{Manifest, PendingKind, Snapshot, WalRecord, WalRecordRef};
use bayou_types::{
    Dot, GroupId, Level, ReadGuard, ReplicaId, Req, ReqMeta, SharedReq, Timestamp, Value, Wire,
    WireError,
};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

type Paxos = PaxosMsg<SharedReq<KvOp>>;
type Link = LinkMsg<RbMsg<WireReq<KvOp>>>;
type Bayou = BayouMsg<KvOp, BTreeMap<String, i64>, Paxos>;

struct Sample {
    name: &'static str,
    bytes: Vec<u8>,
    /// Decodes, then re-encodes (the round trip).
    decode: fn(&[u8]) -> Result<Vec<u8>, String>,
    /// `(type name, first unused tag)` when byte 0 is the type's tag.
    tag: Option<(&'static str, u8)>,
}

fn wire<T: Wire>(bytes: &[u8]) -> Result<Vec<u8>, String> {
    T::from_bytes(bytes)
        .map(|v| v.to_bytes())
        .map_err(|e| e.to_string())
}

fn tagged<T: Wire>(name: &'static str, v: &T, ty: &'static str, unused: u8) -> Sample {
    Sample {
        name,
        bytes: v.to_bytes(),
        decode: wire::<T>,
        tag: Some((ty, unused)),
    }
}

fn plain<T: Wire>(name: &'static str, v: &T) -> Sample {
    Sample {
        name,
        bytes: v.to_bytes(),
        decode: wire::<T>,
        tag: None,
    }
}

fn req(n: u64) -> Req<KvOp> {
    Req::new(
        Timestamp::new(n as i64),
        Dot::new(ReplicaId::new(1), n),
        Level::Weak,
        KvOp::put("k", n as i64),
    )
}

fn shared(n: u64) -> SharedReq<KvOp> {
    Arc::new(req(n))
}

fn ballot() -> Ballot {
    Ballot {
        round: 2,
        leader: ReplicaId::new(1),
    }
}

fn entry(n: u64) -> Entry<SharedReq<KvOp>> {
    Entry::new(ReplicaId::new(1), n, shared(n))
}

fn mark() -> BaselineMark {
    BaselineMark {
        slot_floor: 3,
        delivered: 2,
        fifo_next: vec![1, 1],
    }
}

fn rb_msg() -> RbMsg<WireReq<KvOp>> {
    RbMsg {
        id: RbId {
            origin: ReplicaId::new(1),
            seq: 4,
        },
        floor: 2,
        payload: WireReq {
            req: shared(4),
            tob_seq: 3,
        },
    }
}

fn kv_state() -> BTreeMap<String, i64> {
    [("a".to_string(), 1i64), ("b".to_string(), -2)]
        .into_iter()
        .collect()
}

fn wal_records() -> Vec<(&'static str, WalRecord<KvOp>)> {
    vec![
        (
            "WalRecord::Invoke",
            WalRecord::Invoke {
                tob_seq: 1,
                req: req(1),
            },
        ),
        (
            "WalRecord::Tentative",
            WalRecord::Tentative {
                tob_seq: 2,
                req: req(2),
            },
        ),
        (
            "WalRecord::Promised",
            WalRecord::Promised {
                round: 3,
                leader: ReplicaId::new(2),
            },
        ),
        (
            "WalRecord::Accepted",
            WalRecord::Accepted {
                slot: 4,
                round: 3,
                leader: ReplicaId::new(2),
                sender: ReplicaId::new(1),
                seq: 5,
                req: req(3),
            },
        ),
        (
            "WalRecord::Decided",
            WalRecord::Decided {
                slot: 4,
                sender: ReplicaId::new(1),
                seq: 5,
                req: req(3),
            },
        ),
    ]
}

/// The borrowed twin of each record in [`wal_records`].
fn borrowed<'a>(rec: &'a WalRecord<KvOp>) -> WalRecordRef<'a, KvOp> {
    match rec {
        WalRecord::Invoke { tob_seq, req } => WalRecordRef::Invoke {
            tob_seq: *tob_seq,
            req,
        },
        WalRecord::Tentative { tob_seq, req } => WalRecordRef::Tentative {
            tob_seq: *tob_seq,
            req,
        },
        WalRecord::Promised { round, leader } => WalRecordRef::Promised {
            round: *round,
            leader: *leader,
        },
        WalRecord::Accepted {
            slot,
            round,
            leader,
            sender,
            seq,
            req,
        } => WalRecordRef::Accepted {
            slot: *slot,
            round: *round,
            leader: *leader,
            sender: *sender,
            seq: *seq,
            req,
        },
        WalRecord::Decided {
            slot,
            sender,
            seq,
            req,
        } => WalRecordRef::Decided {
            slot: *slot,
            sender: *sender,
            seq: *seq,
            req,
        },
    }
}

fn snapshot() -> Snapshot<KvStore> {
    Snapshot {
        delivered: 4,
        state: kv_state(),
        promised: (2, ReplicaId::new(1)),
        accepted: vec![(5, 2, ReplicaId::new(1), ReplicaId::new(0), 3, req(3))],
        decided: vec![(4, ReplicaId::new(1), 0, req(2))],
        pending: vec![
            (PendingKind::Invoke, 4, req(4)),
            (PendingKind::Tentative, 5, req(5)),
        ],
        mark: mark(),
        baseline: [("a".to_string(), 1i64)].into_iter().collect(),
        event_high: vec![5, 0],
    }
}

fn manifest() -> Manifest {
    Manifest {
        snapshot: Some("snap-3".into()),
        segments: vec!["wal-1".into(), "wal-2".into()],
        next_file_seq: 4,
    }
}

fn samples() -> Vec<Sample> {
    let mut s = vec![
        // -- the op types of all eight data types ---------------------
        tagged("ListOp::Append", &ListOp::Append("x".into()), "ListOp", 5),
        tagged("ListOp::Duplicate", &ListOp::Duplicate, "ListOp", 5),
        tagged("ListOp::Read", &ListOp::Read, "ListOp", 5),
        tagged("ListOp::GetFirst", &ListOp::GetFirst, "ListOp", 5),
        tagged("ListOp::Size", &ListOp::Size, "ListOp", 5),
        tagged("RegisterOp::Write", &RegisterOp::Write(-2), "RegisterOp", 2),
        tagged("RegisterOp::Read", &RegisterOp::Read, "RegisterOp", 2),
        tagged("CounterOp::Add", &CounterOp::Add(3), "CounterOp", 3),
        tagged(
            "CounterOp::AddAndGet",
            &CounterOp::AddAndGet(-4),
            "CounterOp",
            3,
        ),
        tagged("CounterOp::Read", &CounterOp::Read, "CounterOp", 3),
        tagged("KvOp::Get", &KvOp::Get("k".into()), "KvOp", 6),
        tagged("KvOp::Put", &KvOp::Put("k".into(), 1), "KvOp", 6),
        tagged(
            "KvOp::PutIfAbsent",
            &KvOp::PutIfAbsent("k".into(), -1),
            "KvOp",
            6,
        ),
        tagged("KvOp::Remove", &KvOp::Remove("k".into()), "KvOp", 6),
        tagged("KvOp::Keys", &KvOp::Keys, "KvOp", 6),
        tagged("KvOp::Size", &KvOp::Size, "KvOp", 6),
        tagged("SetOp::Add", &SetOp::Add("e".into()), "SetOp", 4),
        tagged("SetOp::Remove", &SetOp::Remove("e".into()), "SetOp", 4),
        tagged("SetOp::Contains", &SetOp::Contains("e".into()), "SetOp", 4),
        tagged("SetOp::Elements", &SetOp::Elements, "SetOp", 4),
        tagged(
            "BankOp::Deposit",
            &BankOp::Deposit("ac".into(), 5),
            "BankOp",
            4,
        ),
        tagged(
            "BankOp::Withdraw",
            &BankOp::Withdraw("ac".into(), 6),
            "BankOp",
            4,
        ),
        tagged(
            "BankOp::Balance",
            &BankOp::Balance("ac".into()),
            "BankOp",
            4,
        ),
        tagged("BankOp::Total", &BankOp::Total, "BankOp", 4),
        tagged(
            "CalendarOp::Reserve",
            &CalendarOp::Reserve {
                room: "r".into(),
                slot: 7,
                who: "w".into(),
            },
            "CalendarOp",
            4,
        ),
        tagged(
            "CalendarOp::Cancel",
            &CalendarOp::Cancel {
                room: "r".into(),
                slot: 8,
                who: "v".into(),
            },
            "CalendarOp",
            4,
        ),
        tagged(
            "CalendarOp::Holder",
            &CalendarOp::Holder {
                room: "r".into(),
                slot: 9,
            },
            "CalendarOp",
            4,
        ),
        tagged(
            "CalendarOp::Schedule",
            &CalendarOp::Schedule("r".into()),
            "CalendarOp",
            4,
        ),
        tagged("Expr::Const", &Expr::Const(7), "Expr", 4),
        tagged("Expr::Load", &Expr::Load("x".into()), "Expr", 4),
        tagged("Expr::Acc", &Expr::Acc, "Expr", 4),
        tagged("Expr::AccPlus", &Expr::AccPlus(-1), "Expr", 4),
        tagged("Instr::Read", &Instr::Read("x".into()), "Instr", 2),
        tagged(
            "Instr::Write",
            &Instr::Write("y".into(), Expr::AccPlus(2)),
            "Instr",
            2,
        ),
        plain(
            "ScriptOp",
            &ScriptOp::new(vec![
                Instr::Read("x".into()),
                Instr::Write("y".into(), Expr::Load("x".into())),
            ]),
        ),
        // -- their states ---------------------------------------------
        plain("AppendList state", &vec!["x".to_string(), "yy".to_string()]),
        plain("RwRegister state", &-9i64),
        plain("Counter state", &42i64),
        plain("KvStore state", &kv_state()),
        plain(
            "AddRemoveSet state",
            &["e".to_string(), "f".to_string()]
                .into_iter()
                .collect::<BTreeSet<_>>(),
        ),
        plain("Bank state", &kv_state()),
        plain(
            "Calendar state",
            &[("r/7".to_string(), "w".to_string())]
                .into_iter()
                .collect::<BTreeMap<_, _>>(),
        ),
        plain("Script state", &kv_state()),
        // -- the shared building blocks -------------------------------
        tagged("Value::Unit", &Value::Unit, "Value", 7),
        tagged("Value::Bool", &Value::Bool(true), "Value", 7),
        tagged("Value::Int", &Value::Int(-3), "Value", 7),
        tagged("Value::Str", &Value::Str("s".into()), "Value", 7),
        tagged("Value::List", &Value::ints([1, 2]), "Value", 7),
        tagged(
            "Value::Map",
            &Value::Map([("k".to_string(), Value::None)].into_iter().collect()),
            "Value",
            7,
        ),
        tagged("Value::None", &Value::None, "Value", 7),
        tagged("Level::Weak", &Level::Weak, "Level", 2),
        tagged("Level::Strong", &Level::Strong, "Level", 2),
        plain(
            "ReqMeta",
            &ReqMeta {
                timestamp: Timestamp::new(-1),
                dot: Dot::new(ReplicaId::new(2), 3),
                level: Level::Strong,
            },
        ),
        plain("Req<KvOp>", &req(1)),
        plain(
            "ReadGuard",
            &ReadGuard {
                session: 9,
                min_seq: 8,
                min_commit: 7,
            },
        ),
        // -- broadcast frames -----------------------------------------
        plain("Ballot", &ballot()),
        plain("Entry", &entry(1)),
        tagged(
            "PaxosMsg::Submit",
            &Paxos::Submit {
                entries: vec![entry(1)],
                decided_upto: 2,
                committed_upto: 1,
            },
            "PaxosMsg",
            11,
        ),
        tagged(
            "PaxosMsg::Prepare",
            &Paxos::Prepare {
                ballot: ballot(),
                decided_upto: 3,
            },
            "PaxosMsg",
            11,
        ),
        tagged(
            "PaxosMsg::Promise",
            &Paxos::Promise {
                ballot: ballot(),
                accepted: vec![(4, ballot(), entry(2))],
                decided_upto: 3,
                committed_upto: 2,
            },
            "PaxosMsg",
            11,
        ),
        tagged(
            "PaxosMsg::Accept",
            &Paxos::Accept {
                ballot: ballot(),
                slot: 5,
                entry: entry(3),
            },
            "PaxosMsg",
            11,
        ),
        tagged(
            "PaxosMsg::Accepted",
            &Paxos::Accepted {
                ballot: ballot(),
                slot: 5,
            },
            "PaxosMsg",
            11,
        ),
        tagged(
            "PaxosMsg::Decide",
            &Paxos::Decide {
                slot: 5,
                entry: entry(3),
                stable_upto: 4,
            },
            "PaxosMsg",
            11,
        ),
        tagged(
            "PaxosMsg::DecideAck",
            &Paxos::DecideAck {
                upto: 6,
                committed_upto: 5,
                stable_upto: 4,
            },
            "PaxosMsg",
            11,
        ),
        tagged(
            "PaxosMsg::Catchup",
            &Paxos::Catchup {
                first: 2,
                entries: vec![entry(2)],
                stable_upto: 1,
                floor: 2,
            },
            "PaxosMsg",
            11,
        ),
        tagged(
            "PaxosMsg::LeaseGrant",
            &Paxos::LeaseGrant {
                ballot: ballot(),
                grant: 17,
                duration_us: 400_000,
            },
            "PaxosMsg",
            11,
        ),
        tagged(
            "PaxosMsg::LeaseAck",
            &Paxos::LeaseAck {
                ballot: ballot(),
                grant: 17,
                clock: -123_456,
            },
            "PaxosMsg",
            11,
        ),
        tagged(
            "PaxosMsg::Nack",
            &Paxos::Nack { promised: ballot() },
            "PaxosMsg",
            11,
        ),
        plain(
            "RbId",
            &RbId {
                origin: ReplicaId::new(2),
                seq: 6,
            },
        ),
        plain("RbMsg", &rb_msg()),
        tagged(
            "LinkMsg::Data",
            &Link::Data {
                incarnation: 1_000,
                floor: 1,
                seq: 2,
                payloads: vec![rb_msg()],
            },
            "LinkMsg",
            2,
        ),
        tagged(
            "LinkMsg::Ack",
            &Link::Ack {
                incarnation: 1_000,
                upto: 2,
                sparse: vec![4, 6],
            },
            "LinkMsg",
            2,
        ),
        plain("BaselineMark", &mark()),
        // -- replica and host messages --------------------------------
        plain(
            "WireReq",
            &WireReq {
                req: shared(7),
                tob_seq: 6,
            },
        ),
        tagged(
            "BayouMsg::Rb",
            &Bayou::Rb(Link::Ack {
                incarnation: 9,
                upto: 1,
                sparse: vec![],
            }),
            "BayouMsg",
            4,
        ),
        tagged(
            "BayouMsg::Tob",
            &Bayou::Tob(Paxos::Accepted {
                ballot: ballot(),
                slot: 1,
            }),
            "BayouMsg",
            4,
        ),
        tagged(
            "BayouMsg::BaselineRequest",
            &Bayou::BaselineRequest,
            "BayouMsg",
            4,
        ),
        tagged(
            "BayouMsg::Baseline",
            &Bayou::Baseline {
                state: kv_state(),
                mark: mark(),
            },
            "BayouMsg",
            4,
        ),
        tagged(
            "GroupedMsg::One",
            &GroupedMsg::One(GroupId::new(3), Bayou::BaselineRequest),
            "GroupedMsg",
            2,
        ),
        tagged(
            "GroupedMsg::Batch",
            &GroupedMsg::Batch(vec![
                GroupedMsg::One(GroupId::new(0), Bayou::BaselineRequest),
                GroupedMsg::One(
                    GroupId::new(1),
                    Bayou::Tob(Paxos::Nack { promised: ballot() }),
                ),
            ]),
            "GroupedMsg",
            2,
        ),
        // -- storage --------------------------------------------------
        tagged(
            "PendingKind::Invoke",
            &PendingKind::Invoke,
            "PendingKind",
            2,
        ),
        tagged(
            "PendingKind::Tentative",
            &PendingKind::Tentative,
            "PendingKind",
            2,
        ),
    ];
    for (name, rec) in wal_records() {
        s.push(tagged(name, &rec, "WalRecord", 0));
    }
    s.push(Sample {
        name: "Snapshot<KvStore>",
        bytes: snapshot().to_bytes(),
        decode: |b| {
            Snapshot::<KvStore>::from_bytes(b)
                .map(|s| s.to_bytes())
                .map_err(|e| e.to_string())
        },
        tag: None,
    });
    s.push(Sample {
        name: "Manifest",
        bytes: manifest().to_bytes(),
        decode: |b| {
            Manifest::from_bytes(b)
                .map(|m| m.to_bytes())
                .map_err(|e| e.to_string())
        },
        tag: None,
    });
    s
}

/// The pinned bytes, by sample name.
const GOLDEN: &[(&str, &str)] = &[
    ("ListOp::Append", "000100000078"),
    ("ListOp::Duplicate", "01"),
    ("ListOp::Read", "02"),
    ("ListOp::GetFirst", "03"),
    ("ListOp::Size", "04"),
    ("RegisterOp::Write", "00feffffffffffffff"),
    ("RegisterOp::Read", "01"),
    ("CounterOp::Add", "000300000000000000"),
    ("CounterOp::AddAndGet", "01fcffffffffffffff"),
    ("CounterOp::Read", "02"),
    ("KvOp::Get", "00010000006b"),
    ("KvOp::Put", "01010000006b0100000000000000"),
    ("KvOp::PutIfAbsent", "02010000006bffffffffffffffff"),
    ("KvOp::Remove", "03010000006b"),
    ("KvOp::Keys", "04"),
    ("KvOp::Size", "05"),
    ("SetOp::Add", "000100000065"),
    ("SetOp::Remove", "010100000065"),
    ("SetOp::Contains", "020100000065"),
    ("SetOp::Elements", "03"),
    ("BankOp::Deposit", "000200000061630500000000000000"),
    ("BankOp::Withdraw", "010200000061630600000000000000"),
    ("BankOp::Balance", "02020000006163"),
    ("BankOp::Total", "03"),
    ("CalendarOp::Reserve", "000100000072070000000100000077"),
    ("CalendarOp::Cancel", "010100000072080000000100000076"),
    ("CalendarOp::Holder", "02010000007209000000"),
    ("CalendarOp::Schedule", "030100000072"),
    ("Expr::Const", "000700000000000000"),
    ("Expr::Load", "010100000078"),
    ("Expr::Acc", "02"),
    ("Expr::AccPlus", "03ffffffffffffffff"),
    ("Instr::Read", "000100000078"),
    ("Instr::Write", "010100000079030200000000000000"),
    ("ScriptOp", "02000000000100000078010100000079010100000078"),
    ("AppendList state", "020000000100000078020000007979"),
    ("RwRegister state", "f7ffffffffffffff"),
    ("Counter state", "2a00000000000000"),
    ("KvStore state", "02000000010000006101000000000000000100000062feffffffffffffff"),
    ("AddRemoveSet state", "0200000001000000650100000066"),
    ("Bank state", "02000000010000006101000000000000000100000062feffffffffffffff"),
    ("Calendar state", "0100000003000000722f370100000077"),
    ("Script state", "02000000010000006101000000000000000100000062feffffffffffffff"),
    ("Value::Unit", "00"),
    ("Value::Bool", "0101"),
    ("Value::Int", "02fdffffffffffffff"),
    ("Value::Str", "030100000073"),
    ("Value::List", "0402000000020100000000000000020200000000000000"),
    ("Value::Map", "0501000000010000006b06"),
    ("Value::None", "06"),
    ("Level::Weak", "00"),
    ("Level::Strong", "01"),
    ("ReqMeta", "ffffffffffffffff02000000030000000000000001"),
    ("Req<KvOp>", "01000000000000000100000001000000000000000001010000006b0100000000000000"),
    ("ReadGuard", "090000000000000008000000000000000700000000000000"),
    ("Ballot", "020000000000000001000000"),
    ("Entry", "01000000010000000000000001000000000000000100000001000000000000000001010000006b0100000000000000"),
    ("PaxosMsg::Submit", "000100000001000000010000000000000001000000000000000100000001000000000000000001010000006b010000000000000002000000000000000100000000000000"),
    ("PaxosMsg::Prepare", "010200000000000000010000000300000000000000"),
    ("PaxosMsg::Promise", "0202000000000000000100000001000000040000000000000002000000000000000100000001000000020000000000000002000000000000000100000002000000000000000001010000006b020000000000000003000000000000000200000000000000"),
    ("PaxosMsg::Accept", "03020000000000000001000000050000000000000001000000030000000000000003000000000000000100000003000000000000000001010000006b0300000000000000"),
    ("PaxosMsg::Accepted", "040200000000000000010000000500000000000000"),
    ("PaxosMsg::Decide", "05050000000000000001000000030000000000000003000000000000000100000003000000000000000001010000006b03000000000000000400000000000000"),
    ("PaxosMsg::DecideAck", "06060000000000000005000000000000000400000000000000"),
    ("PaxosMsg::Catchup", "0702000000000000000100000001000000020000000000000002000000000000000100000002000000000000000001010000006b020000000000000001000000000000000200000000000000"),
    ("PaxosMsg::LeaseGrant", "080200000000000000010000001100000000000000801a060000000000"),
    ("PaxosMsg::LeaseAck", "090200000000000000010000001100000000000000c01dfeffffffffff"),
    ("PaxosMsg::Nack", "0a020000000000000001000000"),
    ("RbId", "020000000600000000000000"),
    ("RbMsg", "010000000400000000000000020000000000000004000000000000000100000004000000000000000001010000006b04000000000000000300000000000000"),
    ("LinkMsg::Data", "00e8030000000000000100000000000000020000000000000001000000010000000400000000000000020000000000000004000000000000000100000004000000000000000001010000006b04000000000000000300000000000000"),
    ("LinkMsg::Ack", "01e80300000000000002000000000000000200000004000000000000000600000000000000"),
    ("BaselineMark", "030000000000000002000000000000000200000001000000000000000100000000000000"),
    ("WireReq", "07000000000000000100000007000000000000000001010000006b07000000000000000600000000000000"),
    ("BayouMsg::Rb", "00010900000000000000010000000000000000000000"),
    ("BayouMsg::Tob", "01040200000000000000010000000100000000000000"),
    ("BayouMsg::BaselineRequest", "02"),
    ("BayouMsg::Baseline", "0302000000010000006101000000000000000100000062feffffffffffffff030000000000000002000000000000000200000001000000000000000100000000000000"),
    ("GroupedMsg::One", "000300000002"),
    ("GroupedMsg::Batch", "01020000000000000000020001000000010a020000000000000001000000"),
    ("PendingKind::Invoke", "00"),
    ("PendingKind::Tentative", "01"),
    ("WalRecord::Invoke", "01010000000000000001000000000000000100000001000000000000000001010000006b0100000000000000"),
    ("WalRecord::Tentative", "02020000000000000002000000000000000100000002000000000000000001010000006b0200000000000000"),
    ("WalRecord::Promised", "03030000000000000002000000"),
    ("WalRecord::Accepted", "04040000000000000003000000000000000200000001000000050000000000000003000000000000000100000003000000000000000001010000006b0300000000000000"),
    ("WalRecord::Decided", "05040000000000000001000000050000000000000003000000000000000100000003000000000000000001010000006b0300000000000000"),
    ("Snapshot<KvStore>", "42534e5002000000611ed0d9040000000000000002000000010000006101000000000000000100000062feffffffffffffff02000000000000000100000001000000050000000000000002000000000000000100000000000000030000000000000003000000000000000100000003000000000000000001010000006b030000000000000001000000040000000000000001000000000000000000000002000000000000000100000002000000000000000001010000006b02000000000000000200000000040000000000000004000000000000000100000004000000000000000001010000006b040000000000000001050000000000000005000000000000000100000005000000000000000001010000006b050000000000000003000000000000000200000000000000020000000100000000000000010000000000000001000000010000006101000000000000000200000005000000000000000000000000000000"),
    ("Manifest", "424d414e01000000e34c00690106000000736e61702d33020000000500000077616c2d310500000077616c2d320400000000000000"),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn golden(name: &str) -> Option<&'static str> {
    GOLDEN.iter().find(|(n, _)| *n == name).map(|(_, h)| *h)
}

#[test]
fn every_sample_encodes_to_its_pinned_bytes() {
    let samples = samples();
    let moved: Vec<String> = samples
        .iter()
        .filter(|s| golden(s.name) != Some(hex(&s.bytes).as_str()))
        .map(|s| format!("    (\"{}\", \"{}\"),", s.name, hex(&s.bytes)))
        .collect();
    assert!(
        moved.is_empty(),
        "{} samples differ from their pinned bytes (actual encodings):\n{}",
        moved.len(),
        moved.join("\n")
    );
    assert_eq!(samples.len(), GOLDEN.len(), "every pin has a sample");
}

#[test]
fn borrowed_wal_records_encode_to_the_owned_pins() {
    for (name, rec) in wal_records() {
        let mut out = Vec::new();
        borrowed(&rec).encode(&mut out);
        assert_eq!(Some(hex(&out).as_str()), golden(name), "{name}");
    }
}

#[test]
fn every_sample_round_trips_and_rejects_truncation_and_unknown_tags() {
    for s in samples() {
        let (name, decode) = (s.name, s.decode);
        assert_eq!(decode(&s.bytes).as_deref(), Ok(&s.bytes[..]), "{name}");
        for cut in 0..s.bytes.len() {
            assert!(decode(&s.bytes[..cut]).is_err(), "{name} cut at {cut}");
        }
        if let Some((ty, unused)) = s.tag {
            let mut bad = s.bytes.clone();
            bad[0] = unused;
            let bad_tag = WireError::BadTag { ty, tag: unused };
            assert_eq!(decode(&bad), Err(bad_tag.to_string()), "{name}");
        }
    }
}
