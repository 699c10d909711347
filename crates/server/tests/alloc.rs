//! Counting-allocator gate for the serving-path codec: once the
//! connection's reusable buffers have warmed up, encoding a request
//! frame, reading it back, and borrow-decoding it as a [`RequestView`]
//! must allocate **nothing** per frame — the client-codec extension of
//! the storage crate's zero-copy wire gate.

use bayou_data::{KvOp, KvOpView};
use bayou_server::protocol::{
    encode_frame, encode_ok_response, encode_retry_response, read_frame, Reply, ReplyBatch,
    RequestView, ResponseMsg,
};
use bayou_server::Request;
use bayou_types::{Level, Value, WireView};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread. Per thread, so a test
    /// counts only its own work — never the harness's other threads or
    /// a test running in parallel. `const`-initialised and `Drop`-free,
    /// so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the current thread (none while the thread's
/// locals are being torn down).
fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: delegates directly to the system allocator; the counter is a
// thread-local cell with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Allocations the calling thread makes while `window` runs.
fn allocations_in(window: impl FnOnce()) -> u64 {
    let before = allocations();
    window();
    allocations() - before
}

/// The server's receive path: reusable encode buffer on the client side,
/// reusable frame buffer on the server side, borrowed request view.
#[test]
fn request_decode_path() {
    let request = Request::Op {
        tag: 7,
        level: Level::Weak,
        op: KvOp::put("steady-state-key", 99),
    };

    let mut enc = Vec::new();
    let mut frame = Vec::new();

    // warm-up: both buffers grow to frame size exactly once
    for _ in 0..4 {
        enc.clear();
        encode_frame(&mut enc, &request);
        let mut rd = &enc[..];
        assert!(read_frame(&mut rd, &mut frame).unwrap());
    }

    const FRAMES: u64 = 1_000;
    let mut decoded_total = 0i64;
    let spent = allocations_in(|| {
        for i in 0..FRAMES {
            enc.clear();
            encode_frame(&mut enc, &request);
            let mut rd = &enc[..];
            assert!(read_frame(&mut rd, &mut frame).unwrap());
            let view = RequestView::view_from_bytes(&frame).expect("framed request decodes");
            match view {
                RequestView::Op {
                    tag,
                    level: Level::Weak,
                    op: KvOpView::Put(key, v),
                } => {
                    assert_eq!(tag, 7);
                    assert_eq!(key, "steady-state-key");
                    decoded_total += v;
                }
                other => panic!("decoded {other:?} at frame {i}"),
            }
        }
    });
    assert_eq!(decoded_total, 99 * FRAMES as i64);
    assert_eq!(
        spent, 0,
        "steady-state request decode must allocate nothing: {spent} allocations over {FRAMES} frames"
    );
}

/// The server's transmit path: framing a non-`Str` response into the
/// connection's reusable write buffer allocates nothing per frame.
#[test]
fn response_encode_path() {
    let msg = ResponseMsg {
        tag: 3,
        reply: Reply::Ok(Value::Int(42)),
    };
    let mut buf = Vec::new();
    for _ in 0..4 {
        buf.clear();
        encode_frame(&mut buf, &msg);
    }

    const FRAMES: u64 = 1_000;
    let spent = allocations_in(|| {
        for _ in 0..FRAMES {
            buf.clear();
            encode_frame(&mut buf, &msg);
        }
    });
    assert_eq!(
        spent, 0,
        "steady-state response encode must allocate nothing: {spent} allocations over {FRAMES} frames"
    );
}

/// A wake's actual reply path ([`encode_ok_response`]): a
/// borrowed `Value` — including a `Str`, which the owned path could only
/// frame by building a `Reply::Ok` around it — encodes into the
/// connection's reusable write buffer with zero allocations per frame,
/// and the bytes are identical to the owned encode.
#[test]
fn borrowed_response_encode_path() {
    let values = [Value::Int(42), Value::Str("a steady-state reply".into())];

    // byte-identity against the owned path, checked outside the window
    for value in &values {
        let mut owned = Vec::new();
        encode_frame(
            &mut owned,
            &ResponseMsg {
                tag: 3,
                reply: Reply::Ok(value.clone()),
            },
        );
        let mut borrowed = Vec::new();
        encode_ok_response(&mut borrowed, 3, value);
        assert_eq!(borrowed, owned, "borrow encode diverged for {value:?}");
    }

    let mut buf = Vec::new();
    for value in &values {
        buf.clear();
        encode_ok_response(&mut buf, 3, value);
    }

    const FRAMES: u64 = 1_000;
    let spent = allocations_in(|| {
        for i in 0..FRAMES {
            let value = &values[(i % 2) as usize];
            buf.clear();
            encode_ok_response(&mut buf, i, value);
        }
    });
    assert_eq!(
        spent, 0,
        "steady-state borrowed response encode must allocate nothing: \
         {spent} allocations over {FRAMES} frames"
    );
}

/// The session-read refusal path ([`encode_retry_response`]): a typed
/// `Retry` cursor frames straight into the connection's reusable write
/// buffer — a lagging follower sheds guarded reads without allocating,
/// so retry storms cannot create memory pressure.
#[test]
fn borrowed_retry_encode_path() {
    // byte-identity against the owned path, checked outside the window
    let mut owned = Vec::new();
    encode_frame(
        &mut owned,
        &ResponseMsg {
            tag: 5,
            reply: Reply::Retry {
                seen_seq: 9,
                committed: 120,
            },
        },
    );
    let mut buf = Vec::new();
    encode_retry_response(&mut buf, 5, 9, 120);
    assert_eq!(buf, owned, "borrowed retry encode diverged from owned");

    const FRAMES: u64 = 1_000;
    let spent = allocations_in(|| {
        for i in 0..FRAMES {
            buf.clear();
            encode_retry_response(&mut buf, i, i, i * 3);
        }
    });
    assert_eq!(
        spent, 0,
        "steady-state retry encode must allocate nothing: \
         {spent} allocations over {FRAMES} frames"
    );
}

/// A replica's reply path per wake ([`ReplyBatch`]): the wake's
/// replies — `Ok` and `Retry`, to two connections — are encoded into
/// each connection's buffer and handed over one write per connection.
/// Once the buffers have grown to a wake's size, a wake allocates
/// nothing.
#[test]
fn coalesced_reply_encode_path() {
    let values = [Value::Int(42), Value::Str("a steady-state reply".into())];
    let mut batch: ReplyBatch<u64> = ReplyBatch::default();
    let wake = |batch: &mut ReplyBatch<u64>, i: u64| {
        encode_ok_response(batch.to(1), i, &values[0]);
        encode_ok_response(batch.to(2), i + 1, &values[1]);
        encode_retry_response(batch.to(1), i + 2, i, i * 3);
        encode_ok_response(batch.to(2), i + 3, &values[0]);
        let (mut writes, mut bytes) = (0, 0);
        batch.write(|_, frames| {
            writes += 1;
            bytes += frames.len();
        });
        (writes, bytes)
    };
    for i in 0..4 {
        wake(&mut batch, i);
    }

    const WAKES: u64 = 1_000;
    let mut written = (0, 0);
    let spent = allocations_in(|| {
        for i in 0..WAKES {
            let (writes, bytes) = wake(&mut batch, i);
            written = (written.0 + writes, written.1 + bytes);
        }
    });
    assert_eq!(written.0, 2 * WAKES, "one write per connection per wake");
    assert!(written.1 > 0);
    assert_eq!(
        spent, 0,
        "steady-state coalesced reply encode must allocate nothing: \
         {spent} allocations over {WAKES} wakes"
    );
}
