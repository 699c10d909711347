//! The client wire protocol: length-prefixed frames carrying requests
//! and responses.
//!
//! Framing is a `u32` little-endian payload length followed by the
//! payload, encoded with the same [`Wire`] layout contract as the WAL
//! and snapshot codecs: one tag byte per enum variant, fields in
//! declaration order, little-endian integers, length-prefixed strings,
//! append-only tags. A length prefix above [`MAX_FRAME`] is rejected
//! before any buffer is sized from it, so a hostile peer cannot make the
//! server reserve gigabytes from four bytes of input.
//!
//! The server decodes requests as [`RequestView`]s — borrowed straight
//! from the connection's reusable read buffer ([`read_frame`]), so the
//! steady-state decode path allocates nothing per frame (gated by
//! `tests/alloc.rs`, the client-codec extension of the storage crate's
//! counting-allocator gate).

use bayou_data::{KvOp, KvOpView};
use bayou_types::{wire, Level, ReadGuard, Value, Wire, WireError, WireReader, WireView};
use std::io::{self, Read, Write};

/// Hard ceiling on a frame's payload length. Larger prefixes are
/// rejected as [`io::ErrorKind::InvalidData`] before any allocation.
pub const MAX_FRAME: usize = 1 << 20;

/// The capacity of the buffered reader a server connection reads
/// requests through ([`read_frame`] over a `std::io::BufReader`): a
/// burst of pipelined requests costs one `read(2)`, and an idle
/// connection holds only this much.
pub const READ_BUFFER: usize = 4096;

/// A client request.
///
/// `tag` is an opaque per-connection correlation value chosen by the
/// client; the server echoes it on the matching [`ResponseMsg`], which
/// is what makes request pipelining possible — responses to weak and
/// strong operations interleave in completion order, not send order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Invoke one operation at one consistency level.
    Op {
        /// Client correlation tag, echoed on the response.
        tag: u64,
        /// Weak (tentative response) or strong (stable response).
        level: Level,
        /// The operation.
        op: KvOp,
    },
    /// Liveness probe; answered immediately with [`Reply::Pong`].
    Ping {
        /// Client correlation tag, echoed on the response.
        tag: u64,
    },
    /// A weak operation issued on behalf of a client session. The server
    /// merges its cursor table for `guard.session` into the guard's
    /// floors; a read is served only by a replica that has caught up to
    /// them (else [`Reply::Retry`]), and a write's completion advances
    /// the session's read-your-writes cursor server-side.
    GuardedOp {
        /// Client correlation tag, echoed on the response.
        tag: u64,
        /// The session cursor (client-supplied floors; the server's
        /// table only ever raises them).
        guard: ReadGuard,
        /// The operation.
        op: KvOp,
    },
}

wire! {
    Request {
        0 => Op { tag, level, op },
        1 => Ping { tag },
        2 => GuardedOp { tag, guard, op },
    }
}

/// Borrowed view of a [`Request`]: the op's keys are slices of the
/// input frame (see [`KvOpView`]), so the server's hot decode path
/// allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestView<'a> {
    /// See [`Request::Op`].
    Op {
        /// Client correlation tag.
        tag: u64,
        /// The consistency level.
        level: Level,
        /// The operation, borrowing from the frame.
        op: KvOpView<'a>,
    },
    /// See [`Request::Ping`].
    Ping {
        /// Client correlation tag.
        tag: u64,
    },
    /// See [`Request::GuardedOp`].
    GuardedOp {
        /// Client correlation tag.
        tag: u64,
        /// The session cursor ([`ReadGuard`] is `Copy` — no borrow
        /// needed).
        guard: ReadGuard,
        /// The operation, borrowing from the frame.
        op: KvOpView<'a>,
    },
}

impl<'a> WireView<'a> for RequestView<'a> {
    type Owned = Request;

    fn decode_view(r: &mut WireReader<'a>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(RequestView::Op {
                tag: u64::decode(r)?,
                level: Level::decode(r)?,
                op: KvOpView::decode_view(r)?,
            }),
            1 => Ok(RequestView::Ping {
                tag: u64::decode(r)?,
            }),
            2 => Ok(RequestView::GuardedOp {
                tag: u64::decode(r)?,
                guard: ReadGuard::decode(r)?,
                op: KvOpView::decode_view(r)?,
            }),
            tag => Err(WireError::BadTag { ty: "Request", tag }),
        }
    }

    fn into_owned(self) -> Request {
        match self {
            RequestView::Op { tag, level, op } => Request::Op {
                tag,
                level,
                op: op.into_owned(),
            },
            RequestView::Ping { tag } => Request::Ping { tag },
            RequestView::GuardedOp { tag, guard, op } => Request::GuardedOp {
                tag,
                guard,
                op: op.into_owned(),
            },
        }
    }
}

/// The server's answer to one request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// The operation's return value.
    Ok(Value),
    /// Load shed: the connection's outstanding-op window is full or the
    /// server is past its high-water mark. The operation was **not**
    /// invoked; the client may retry. Typed, so overload is never a
    /// silent stall.
    Busy,
    /// The operation failed (e.g. its replica crashed before
    /// responding). The message is human-readable.
    Err(String),
    /// Answer to [`Request::Ping`].
    Pong,
    /// The serving replica has not caught up to the session's guard: the
    /// [`Request::GuardedOp`] read was **not** executed. Carries the
    /// replica's own cursor (its per-origin executed counter and
    /// committed count) so the client can retry — typed, so a lagging
    /// follower never serves a stale session read silently.
    Retry {
        /// The replica's executed counter for the guard's origin.
        seen_seq: u64,
        /// The replica's committed-operation count.
        committed: u64,
    },
}

wire! {
    Reply {
        0 => Ok(v),
        1 => Busy,
        2 => Err(msg),
        3 => Pong,
        4 => Retry { seen_seq, committed },
    }
}

/// One response frame: the client's correlation tag plus the reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponseMsg {
    /// The tag of the [`Request`] being answered.
    pub tag: u64,
    /// The answer.
    pub reply: Reply,
}

wire! { ResponseMsg { tag, reply } }

/// Appends one framed message (`u32` LE payload length + payload) to
/// `out` — the caller's reusable encode buffer, so steady-state encodes
/// allocate nothing. The length slot is reserved up front and patched
/// once the payload is written.
pub fn encode_frame<T: Wire>(out: &mut Vec<u8>, msg: &T) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    msg.encode(out);
    let len = out.len() - at - 4;
    assert!(len <= MAX_FRAME, "outgoing frame exceeds MAX_FRAME");
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Encodes `msg` into `buf` (cleared first) and writes the frame to `w`.
pub fn write_frame<T: Wire>(w: &mut impl Write, buf: &mut Vec<u8>, msg: &T) -> io::Result<()> {
    buf.clear();
    encode_frame(buf, msg);
    w.write_all(buf)
}

/// Appends one framed `ResponseMsg { tag, reply: Reply::Ok(value) }` to
/// `out` without constructing either enum — the reply path, run in the
/// replica's wake, encodes the replica's `Value` in place by reference. Byte-identical
/// to [`encode_frame`] of the owned message (gated by a unit test here
/// and by `tests/alloc.rs` at steady state).
pub fn encode_ok_response(out: &mut Vec<u8>, tag: u64, value: &Value) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    tag.encode(out);
    out.push(0); // Reply::Ok variant tag
    value.encode(out);
    let len = out.len() - at - 4;
    assert!(len <= MAX_FRAME, "outgoing frame exceeds MAX_FRAME");
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// Appends one framed `ResponseMsg { tag, reply: Reply::Retry { .. } }`
/// to `out` without constructing either enum — the session-read reply
/// path's twin of [`encode_ok_response`], byte-identical to the owned
/// encode and allocation-free (gated by `tests/alloc.rs`).
pub fn encode_retry_response(out: &mut Vec<u8>, tag: u64, seen_seq: u64, committed: u64) {
    let at = out.len();
    out.extend_from_slice(&[0u8; 4]);
    tag.encode(out);
    out.push(4); // Reply::Retry variant tag
    seen_seq.encode(out);
    committed.encode(out);
    let len = out.len() - at - 4;
    assert!(len <= MAX_FRAME, "outgoing frame exceeds MAX_FRAME");
    out[at..at + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

/// One wake's replies, coalesced per connection: each reply is encoded
/// straight into its connection's buffer ([`ReplyBatch::to`] with
/// [`encode_ok_response`] or [`encode_retry_response`]), and
/// [`ReplyBatch::write`] hands every connection its bytes at once — one
/// write per connection per wake, however many replies it carries. The
/// buffers are kept for the next wake, so once they have grown to a
/// wake's size the batch allocates nothing (gated by `tests/alloc.rs`).
#[derive(Debug)]
pub struct ReplyBatch<C> {
    /// The connections addressed this wake, with their encoded replies.
    open: Vec<(C, Vec<u8>)>,
    /// Emptied buffers of earlier wakes, kept for their capacity.
    spare: Vec<Vec<u8>>,
}

impl<C> Default for ReplyBatch<C> {
    fn default() -> Self {
        ReplyBatch {
            open: Vec::new(),
            spare: Vec::new(),
        }
    }
}

impl<C: PartialEq> ReplyBatch<C> {
    /// The buffer collecting this wake's replies to `conn`: append
    /// encoded frames to it.
    pub fn to(&mut self, conn: C) -> &mut Vec<u8> {
        let at = match self.open.iter().position(|(c, _)| *c == conn) {
            Some(at) => at,
            None => {
                let buf = self.spare.pop().unwrap_or_default();
                self.open.push((conn, buf));
                self.open.len() - 1
            }
        };
        &mut self.open[at].1
    }

    /// Hands each connection's replies to `write` — one call per
    /// connection, in the order the connections were first addressed —
    /// and empties the batch for the next wake.
    pub fn write(&mut self, mut write: impl FnMut(&C, &[u8])) {
        for (conn, mut buf) in self.open.drain(..) {
            write(&conn, &buf);
            buf.clear();
            self.spare.push(buf);
        }
    }
}

/// Reads one frame's payload into `buf` (resized in place, so a reused
/// buffer makes the steady-state read path allocation-free).
///
/// Returns `Ok(false)` on clean end-of-stream (the peer closed between
/// frames); end-of-stream mid-frame, or a length prefix above
/// [`MAX_FRAME`], is an error.
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < len_buf.len() {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame-header",
                ))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME ({MAX_FRAME})"),
        ));
    }
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

/// Whether `buffered` — the unread bytes of a buffered reader — starts
/// with a whole frame, so that [`read_frame`] would take it without a
/// `read(2)`. The server's reader drives the replicas its requests went
/// to before any read that could block.
pub fn holds_frame(buffered: &[u8]) -> bool {
    match buffered.get(..4) {
        Some(len) => {
            let len = u32::from_le_bytes([len[0], len[1], len[2], len[3]]) as usize;
            len <= MAX_FRAME && buffered.len() - 4 >= len
        }
        None => false,
    }
}

/// Maps a codec error into the [`io::Error`] the serving path reports.
pub fn wire_err(e: WireError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        for req in [
            Request::Op {
                tag: 7,
                level: Level::Weak,
                op: KvOp::put("k", 1),
            },
            Request::Op {
                tag: u64::MAX,
                level: Level::Strong,
                op: KvOp::get("k"),
            },
            Request::Ping { tag: 0 },
            Request::GuardedOp {
                tag: 12,
                guard: ReadGuard {
                    session: 9,
                    min_seq: 4,
                    min_commit: 17,
                },
                op: KvOp::get("k"),
            },
        ] {
            let bytes = req.to_bytes();
            assert_eq!(Request::from_bytes(&bytes).unwrap(), req);
            let view = RequestView::view_from_bytes(&bytes).unwrap();
            assert_eq!(view.into_owned(), req);
        }
    }

    #[test]
    fn response_round_trips() {
        for reply in [
            Reply::Ok(Value::Int(9)),
            Reply::Ok(Value::Str("v".into())),
            Reply::Busy,
            Reply::Err("replica crashed".into()),
            Reply::Pong,
            Reply::Retry {
                seen_seq: 3,
                committed: 41,
            },
        ] {
            let msg = ResponseMsg { tag: 3, reply };
            assert_eq!(ResponseMsg::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn borrowed_retry_encode_is_byte_identical_to_owned() {
        for (tag, seen_seq, committed) in [(0u64, 0u64, 0u64), (7, 3, 41), (u64::MAX, 9, 1)] {
            let mut owned = Vec::new();
            encode_frame(
                &mut owned,
                &ResponseMsg {
                    tag,
                    reply: Reply::Retry {
                        seen_seq,
                        committed,
                    },
                },
            );
            let mut borrowed = Vec::new();
            encode_retry_response(&mut borrowed, tag, seen_seq, committed);
            assert_eq!(borrowed, owned, "tag {tag}");
        }
    }

    #[test]
    fn borrowed_ok_encode_is_byte_identical_to_owned() {
        for value in [
            Value::None,
            Value::Int(-3),
            Value::Bool(true),
            Value::Str("a longer string value".into()),
            Value::strs(["k0", "k1", "k2"]),
        ] {
            for tag in [0u64, 7, u64::MAX] {
                let mut owned = Vec::new();
                encode_frame(
                    &mut owned,
                    &ResponseMsg {
                        tag,
                        reply: Reply::Ok(value.clone()),
                    },
                );
                let mut borrowed = Vec::new();
                encode_ok_response(&mut borrowed, tag, &value);
                assert_eq!(borrowed, owned, "tag {tag}, value {value:?}");
            }
        }
    }

    #[test]
    fn frame_round_trips_through_io() {
        let mut wire = Vec::new();
        let mut buf = Vec::new();
        let req = Request::Op {
            tag: 1,
            level: Level::Weak,
            op: KvOp::put("key", 42),
        };
        write_frame(&mut wire, &mut buf, &req).unwrap();
        let mut rd = &wire[..];
        assert!(read_frame(&mut rd, &mut buf).unwrap());
        assert_eq!(
            RequestView::view_from_bytes(&buf).unwrap().into_owned(),
            req
        );
        assert!(!read_frame(&mut rd, &mut buf).unwrap(), "clean EOF");
    }

    /// A reader that hands `data` out in two reads, split at `at`, then
    /// reports end of stream.
    struct Split<'a> {
        data: &'a [u8],
        at: usize,
        pos: usize,
    }

    impl Read for Split<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let end = if self.pos < self.at {
                self.at
            } else {
                self.data.len()
            };
            let n = buf.len().min(end - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    #[test]
    fn frames_split_across_reads_at_every_offset_decode_through_the_read_buffer() {
        let requests = [
            Request::Op {
                tag: 1,
                level: Level::Weak,
                op: KvOp::put("key", 42),
            },
            Request::Ping { tag: 2 },
            Request::Op {
                tag: 3,
                level: Level::Strong,
                op: KvOp::get("a longer key than the small buffer holds"),
            },
        ];
        let mut wire = Vec::new();
        for req in &requests {
            encode_frame(&mut wire, req);
        }
        // the server's buffer, and one smaller than a frame
        for capacity in [READ_BUFFER, 7] {
            for at in 0..=wire.len() {
                let split = Split {
                    data: &wire,
                    at,
                    pos: 0,
                };
                let mut reader = std::io::BufReader::with_capacity(capacity, split);
                let mut frame = Vec::new();
                for req in &requests {
                    assert!(
                        read_frame(&mut reader, &mut frame).unwrap(),
                        "split at {at}"
                    );
                    let got = RequestView::view_from_bytes(&frame).unwrap().into_owned();
                    assert_eq!(&got, req, "split at {at}, buffer {capacity}");
                }
                assert!(!read_frame(&mut reader, &mut frame).unwrap(), "clean EOF");
            }
        }
    }

    #[test]
    fn holds_frame_tells_a_whole_buffered_frame_from_a_part() {
        let mut wire = Vec::new();
        encode_frame(&mut wire, &Request::Ping { tag: 9 });
        let whole = wire.len();
        encode_frame(&mut wire, &Request::Ping { tag: 10 });
        for at in 0..=wire.len() {
            assert_eq!(holds_frame(&wire[..at]), at >= whole, "{at} bytes");
        }
        // a hostile length is never waited for
        assert!(!holds_frame(&u32::MAX.to_le_bytes()));
    }

    #[test]
    fn a_wake_writes_each_connection_once_with_its_replies_in_order() {
        let frame = |tag, value: &Value| {
            let mut f = Vec::new();
            encode_ok_response(&mut f, tag, value);
            f
        };
        let (one, two, three) = (Value::Int(10), Value::Str("b".into()), Value::None);
        let mut batch = ReplyBatch::default();
        for wake in 0..2 {
            encode_ok_response(batch.to("a"), 1, &one);
            encode_ok_response(batch.to("b"), 2, &two);
            encode_ok_response(batch.to("a"), 3, &three);
            let mut writes: Vec<(&str, Vec<u8>)> = Vec::new();
            batch.write(|conn, bytes| writes.push((conn, bytes.to_vec())));
            assert_eq!(
                writes,
                [
                    ("a", [frame(1, &one), frame(3, &three)].concat()),
                    ("b", frame(2, &two)),
                ],
                "wake {wake}"
            );
        }
        let mut writes = 0;
        batch.write(|_, _| writes += 1);
        assert_eq!(writes, 0, "a written batch is empty");
    }

    #[test]
    fn hostile_length_prefix_is_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(b"junk");
        let mut buf = Vec::new();
        let err = read_frame(&mut &wire[..], &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(buf.capacity(), 0, "no buffer sized from the hostile prefix");
    }

    #[test]
    fn eof_mid_header_and_mid_payload_are_errors() {
        let mut buf = Vec::new();
        let err = read_frame(&mut &[1u8, 0][..], &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // header promises 8 bytes, stream carries 2
        let mut wire = Vec::new();
        wire.extend_from_slice(&8u32.to_le_bytes());
        wire.extend_from_slice(&[1, 2]);
        assert!(read_frame(&mut &wire[..], &mut buf).is_err());
    }
}
