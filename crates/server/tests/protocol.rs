//! Adversarial decode tests for the client wire protocol: a hostile or
//! broken peer must never panic the codec, oversize an allocation, or
//! leak stale bytes from a reused buffer into a decoded frame.
//!
//! Mirrors the storage crate's corruption suite, applied to the serving
//! path: truncation at every byte, hostile interior length prefixes,
//! trailing garbage, bad enum tags, random-junk fuzz, and dirty reused
//! pool buffers.

use bayou_data::KvOp;
use bayou_server::protocol::{
    encode_frame, read_frame, write_frame, Reply, Request, RequestView, ResponseMsg, MAX_FRAME,
};
use bayou_types::{BufPool, Level, Value, Wire, WireView};
use proptest::prelude::*;

fn key_from(bytes: Vec<u8>) -> String {
    bytes.into_iter().map(|b| (b'a' + b % 26) as char).collect()
}

fn sample_requests() -> Vec<Request> {
    vec![
        Request::Op {
            tag: 1,
            level: Level::Weak,
            op: KvOp::put("alpha", 7),
        },
        Request::Op {
            tag: u64::MAX,
            level: Level::Strong,
            op: KvOp::get("a-much-longer-key-that-spans-buckets"),
        },
        Request::Op {
            tag: 0,
            level: Level::Weak,
            op: KvOp::remove(""),
        },
        Request::Ping { tag: 42 },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..Default::default() })]

    #[test]
    fn random_requests_round_trip_owned_and_borrowed(
        tag in 0u64..=u64::MAX,
        strong in proptest::bool::weighted(0.3),
        key_bytes in proptest::collection::vec(0u8..=255, 0..40),
        val in i64::MIN..=i64::MAX,
        kind in 0u8..3,
    ) {
        let key = key_from(key_bytes);
        let op = match kind {
            0 => KvOp::put(key, val),
            1 => KvOp::get(key),
            _ => KvOp::remove(key),
        };
        let level = if strong { Level::Strong } else { Level::Weak };
        let req = Request::Op { tag, level, op };
        let bytes = req.to_bytes();
        prop_assert_eq!(&Request::from_bytes(&bytes).unwrap(), &req);
        prop_assert_eq!(RequestView::view_from_bytes(&bytes).unwrap().into_owned(), req);
    }

    #[test]
    fn random_junk_never_panics_the_decoder(
        junk in proptest::collection::vec(0u8..=255, 0..64),
    ) {
        // any result is fine; panicking or over-allocating is not
        let _ = Request::from_bytes(&junk);
        let _ = RequestView::view_from_bytes(&junk);
        let _ = ResponseMsg::from_bytes(&junk);
        let mut buf = Vec::new();
        let _ = read_frame(&mut &junk[..], &mut buf);
    }
}

#[test]
fn every_truncation_of_a_valid_request_is_an_error() {
    for req in sample_requests() {
        let bytes = req.to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Request::from_bytes(&bytes[..cut]).is_err(),
                "{req:?} truncated to {cut}/{} bytes decoded",
                bytes.len()
            );
            assert!(
                RequestView::view_from_bytes(&bytes[..cut]).is_err(),
                "{req:?} view truncated to {cut}/{} bytes decoded",
                bytes.len()
            );
        }
    }
}

#[test]
fn trailing_bytes_after_a_valid_request_are_rejected() {
    for req in sample_requests() {
        let mut bytes = req.to_bytes();
        bytes.push(0xEE);
        assert!(Request::from_bytes(&bytes).is_err(), "{req:?} + trailer");
        assert!(
            RequestView::view_from_bytes(&bytes).is_err(),
            "{req:?} view + trailer"
        );
    }
}

#[test]
fn hostile_interior_string_length_is_an_error_not_an_allocation() {
    // Request::Op { tag, level, op: Put { key, .. } } with the key's
    // length prefix claiming ~4 GiB while only 3 bytes follow.
    let mut bytes = Vec::new();
    bytes.push(0u8); // Request::Op
    7u64.encode(&mut bytes); // tag
    Level::Weak.encode(&mut bytes);
    bytes.push(1u8); // KvOp::Put's variant tag
    bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile key length
    bytes.extend_from_slice(b"abc");
    assert!(Request::from_bytes(&bytes).is_err());
    assert!(RequestView::view_from_bytes(&bytes).is_err());
}

#[test]
fn unknown_variant_tags_are_errors() {
    for tag in 2u8..=255 {
        assert!(Request::from_bytes(&[tag]).is_err(), "Request tag {tag}");
    }
    // a response whose reply tag is out of range
    let mut bytes = Vec::new();
    3u64.encode(&mut bytes);
    bytes.push(9); // Reply has tags 0..=3
    assert!(ResponseMsg::from_bytes(&bytes).is_err());
}

#[test]
fn dirty_reused_pool_buffer_cannot_leak_into_the_next_frame() {
    let mut pool = BufPool::new();

    // first checkout carries a long, fully valid frame...
    let mut buf = pool.checkout();
    let long = Request::Op {
        tag: 1,
        level: Level::Weak,
        op: KvOp::put("a-long-key-full-of-stale-bytes-to-leak", 1),
    };
    encode_frame(&mut buf, &long);
    let long_frame = buf.clone();
    pool.checkin(buf);

    // ...the reused buffer must start empty, and a shorter frame encoded
    // into it must decode to exactly the short request
    let mut buf = pool.checkout();
    assert!(buf.is_empty(), "pool returned a dirty buffer");
    let short = Request::Ping { tag: 2 };
    encode_frame(&mut buf, &short);
    assert!(buf.len() < long_frame.len());
    let mut rd = &buf[..];
    let mut payload = Vec::new();
    assert!(read_frame(&mut rd, &mut payload).unwrap());
    assert_eq!(
        RequestView::view_from_bytes(&payload).unwrap().into_owned(),
        short
    );
    assert_eq!(pool.misses(), 1, "the same buffer served both frames");
}

#[test]
fn reused_read_buffer_shrinks_to_each_frame() {
    // a long frame then a short frame over the same connection buffer:
    // the second read must not expose the first frame's tail
    let mut wire = Vec::new();
    let mut scratch = Vec::new();
    let long = Request::Op {
        tag: 1,
        level: Level::Strong,
        op: KvOp::put("the-long-frame-payload-key", 5),
    };
    let short = Request::Ping { tag: 2 };
    write_frame(&mut wire, &mut scratch, &long).unwrap();
    write_frame(&mut wire, &mut scratch, &short).unwrap();

    let mut rd = &wire[..];
    let mut buf = Vec::new();
    assert!(read_frame(&mut rd, &mut buf).unwrap());
    assert_eq!(
        RequestView::view_from_bytes(&buf).unwrap().into_owned(),
        long
    );
    assert!(read_frame(&mut rd, &mut buf).unwrap());
    assert_eq!(
        RequestView::view_from_bytes(&buf).unwrap().into_owned(),
        short,
        "stale tail bytes from the longer previous frame leaked"
    );
    assert!(!read_frame(&mut rd, &mut buf).unwrap());
}

#[test]
fn frame_length_exactly_at_the_cap_is_accepted_and_one_past_is_not() {
    let mut wire = Vec::new();
    wire.extend_from_slice(&(MAX_FRAME as u32).to_le_bytes());
    wire.resize(4 + MAX_FRAME, 0xAB);
    let mut buf = Vec::new();
    assert!(read_frame(&mut &wire[..], &mut buf).unwrap());
    assert_eq!(buf.len(), MAX_FRAME);

    let mut wire = Vec::new();
    wire.extend_from_slice(&((MAX_FRAME + 1) as u32).to_le_bytes());
    let mut buf = Vec::new();
    let err = read_frame(&mut &wire[..], &mut buf).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
}

#[test]
fn reply_values_round_trip() {
    for reply in [
        Reply::Ok(Value::None),
        Reply::Ok(Value::Int(i64::MIN)),
        Reply::Ok(Value::Bool(true)),
        Reply::Ok(Value::Str(String::new())),
        Reply::Busy,
        Reply::Err(String::new()),
        Reply::Pong,
    ] {
        let msg = ResponseMsg {
            tag: u64::MAX,
            reply,
        };
        assert_eq!(ResponseMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
    }
}

/// Golden bytes of the client protocol: one hex-pinned sample per
/// variant of `Request`, `Reply` and `ResponseMsg`, plus the two
/// in-place reply encoders (whole frames, length prefix included). A
/// sample that moves is a broken codec, never a test to re-pin. Each
/// sample also decodes back to itself, fails to decode from every strict
/// prefix, and names its type in `BadTag` when its tag byte is replaced
/// by the type's first unused tag.
#[test]
fn golden_bytes_of_every_protocol_variant() {
    use bayou_server::protocol::{encode_ok_response, encode_retry_response};
    use bayou_types::{ReadGuard, WireError};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }
    fn sweep<T: Wire + PartialEq + std::fmt::Debug>(
        v: &T,
        pin: &str,
        at: usize,
        tag: Option<(&'static str, u8)>,
    ) {
        let bytes = v.to_bytes();
        assert_eq!(hex(&bytes), pin, "{v:?}");
        assert_eq!(&T::from_bytes(&bytes).unwrap(), v);
        for cut in 0..bytes.len() {
            assert!(T::from_bytes(&bytes[..cut]).is_err(), "{v:?} cut at {cut}");
        }
        if let Some((ty, unused)) = tag {
            let mut bad = bytes.clone();
            bad[at] = unused;
            assert_eq!(
                T::from_bytes(&bad),
                Err(WireError::BadTag { ty, tag: unused })
            );
        }
    }

    let requests = [
        (
            Request::Op {
                tag: 1,
                level: Level::Strong,
                op: KvOp::put("k", 2),
            },
            "0001000000000000000101010000006b0200000000000000",
        ),
        (Request::Ping { tag: 3 }, "010300000000000000"),
        (
            Request::GuardedOp {
                tag: 4,
                guard: ReadGuard {
                    session: 5,
                    min_seq: 6,
                    min_commit: 7,
                },
                op: KvOp::get("k"),
            },
            "02040000000000000005000000000000000600000000000000070000000000000000010000006b",
        ),
    ];
    for (req, pin) in &requests {
        sweep(req, pin, 0, Some(("Request", 3)));
        let bytes = req.to_bytes();
        assert_eq!(
            &RequestView::view_from_bytes(&bytes).unwrap().into_owned(),
            req
        );
    }
    let replies = [
        (Reply::Ok(Value::Int(-1)), "0002ffffffffffffffff"),
        (Reply::Busy, "01"),
        (Reply::Err("e".into()), "020100000065"),
        (Reply::Pong, "03"),
        (
            Reply::Retry {
                seen_seq: 8,
                committed: 9,
            },
            "0408000000000000000900000000000000",
        ),
    ];
    for (reply, pin) in &replies {
        sweep(reply, pin, 0, Some(("Reply", 5)));
    }
    let msg = ResponseMsg {
        tag: 10,
        reply: Reply::Ok(Value::Str("v".into())),
    };
    sweep(
        &msg,
        "0a0000000000000000030100000076",
        8,
        Some(("Reply", 5)),
    );

    let mut out = Vec::new();
    encode_ok_response(&mut out, 11, &Value::Int(12));
    assert_eq!(hex(&out), "120000000b0000000000000000020c00000000000000");
    out.clear();
    encode_retry_response(&mut out, 13, 14, 15);
    assert_eq!(
        hex(&out),
        "190000000d00000000000000040e000000000000000f00000000000000"
    );
}
