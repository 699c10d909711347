//! The benchmark's own client loop, over the public wire protocol.
//!
//! What `bayou-load` lacks and this has: open-loop latency is counted
//! from the instant a request was *due*, not the instant it was sent, so
//! a stall is charged to every request it delays; every operation keeps
//! its own record (outcome and times), so latency is reported per level
//! and kind; replies are parsed out of a buffer that survives read
//! timeouts, so a timeout can never tear a frame; and the open loop does
//! what a real client does with a refusal — `Reply::Err` (its replica
//! crashed) is sent again at once, `Reply::Busy` (shed) after a pause —
//! under a fresh tag, with the latency still counted from the due time.

use crate::workload::Op;
use bayou_server::protocol::{encode_frame, wire_err, MAX_FRAME};
use bayou_server::{Reply, Request, ResponseMsg};
use bayou_types::{Level, Wire};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Sends of one operation before the open loop gives it up.
pub const MAX_ATTEMPTS: u8 = 16;

/// Pause before a shed operation is sent again; doubled with every
/// further refusal up to half a second, five seconds in all.
const BUSY_BACKOFF: Duration = Duration::from_millis(4);

/// The drain of a measured run: an unanswered request is given up 30 s
/// after the last one was due.
pub const DRAIN: Duration = Duration::from_secs(30);

/// Tags carry the operation index in the low half and the attempt in the
/// high half, so the reader can account a reply without shared state.
fn tag_of(idx: usize, attempt: u8) -> u64 {
    idx as u64 | u64::from(attempt) << 32
}

fn untag(tag: u64) -> (usize, u8) {
    ((tag & 0xFFFF_FFFF) as usize, (tag >> 32) as u8)
}

/// How one operation ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// No final reply within the drain.
    Unanswered,
    /// `Reply::Ok`; the value when it was an integer (a get that hit).
    Ok(Option<i64>),
    Busy,
    Retry,
    Err,
}

/// Everything the client observed about one operation. Times are
/// nanoseconds since the run's start instant.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// When the request was due (open loop) or first sent (closed loop):
    /// the instant latency is counted from.
    pub from_ns: u64,
    /// When the first send began.
    pub send_start_ns: u64,
    /// When the last attempt had been written to the socket.
    pub sent_ns: u64,
    /// When the final reply was read.
    pub done_ns: u64,
    /// Traced runs only: when the final reply had been decoded and
    /// accounted.
    pub decoded_ns: u64,
    pub outcome: Outcome,
    /// Sends made.
    pub attempts: u8,
    /// `Reply::Err` and `Reply::Busy` replies received, the final one
    /// included.
    pub errs: u8,
    pub busies: u8,
}

impl Record {
    const EMPTY: Record = Record {
        from_ns: 0,
        send_start_ns: 0,
        sent_ns: 0,
        done_ns: 0,
        decoded_ns: 0,
        outcome: Outcome::Unanswered,
        attempts: 0,
        errs: 0,
        busies: 0,
    };

    pub fn latency_ns(&self) -> Option<u64> {
        matches!(self.outcome, Outcome::Ok(_)).then(|| self.done_ns.saturating_sub(self.from_ns))
    }

    /// Replies this operation received.
    pub fn replies(&self) -> u8 {
        let refusals = self.errs + self.busies;
        match self.outcome {
            Outcome::Unanswered | Outcome::Err | Outcome::Busy => refusals,
            Outcome::Ok(_) | Outcome::Retry => refusals + 1,
        }
    }
}

/// One connection's observed history.
#[derive(Debug, Default)]
pub struct ConnLog {
    pub records: Vec<Record>,
    /// Replies that answered no outstanding (operation, attempt): a tag
    /// never sent, or one answered twice.
    pub stray_replies: u64,
    /// Longest the open-loop generator sent after an operation was due.
    pub late_max_ns: u64,
}

/// The write half: frames a request into a reused buffer.
struct Sender {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Sender {
    fn send(&mut self, conn: usize, idx: usize, attempt: u8, op: Op) -> io::Result<()> {
        self.buf.clear();
        let req = Request::Op {
            tag: tag_of(idx, attempt),
            level: op.level,
            op: op.to_kv(conn, idx),
        };
        encode_frame(&mut self.buf, &req);
        self.stream.write_all(&self.buf)
    }
}

/// The read half: accumulates bytes and hands out whole frames. A read
/// that times out leaves the partial frame in the buffer.
struct FrameReader {
    stream: TcpStream,
    /// Bytes received and not yet handed out, from `head` on.
    buf: Vec<u8>,
    head: usize,
    /// What one `read` lands in.
    chunk: Vec<u8>,
}

impl FrameReader {
    fn buffered_frame(&self) -> io::Result<Option<usize>> {
        let avail = &self.buf[self.head..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("four bytes")) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds MAX_FRAME"),
            ));
        }
        Ok((avail.len() >= 4 + len).then_some(len))
    }

    /// The next response, or `None` when the socket's read timeout
    /// passed first. End of stream is an error: the server never closes
    /// a connection the benchmark still reads.
    fn next(&mut self) -> io::Result<Option<ResponseMsg>> {
        loop {
            if let Some(len) = self.buffered_frame()? {
                let at = self.head + 4;
                let msg = ResponseMsg::from_bytes(&self.buf[at..at + len]).map_err(wire_err)?;
                self.head = at + len;
                if self.head == self.buf.len() {
                    self.buf.clear();
                    self.head = 0;
                }
                return Ok(Some(msg));
            }
            if self.head > 0 {
                self.buf.drain(..self.head);
                self.head = 0;
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e) => match e.kind() {
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => return Ok(None),
                    io::ErrorKind::Interrupted => {}
                    _ => return Err(e),
                },
            }
        }
    }
}

/// One connection to the server under test.
pub struct Conn {
    sender: Sender,
    reader: FrameReader,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            sender: Sender {
                stream: stream.try_clone()?,
                buf: Vec::new(),
            },
            reader: FrameReader {
                stream,
                buf: Vec::with_capacity(1 << 16),
                head: 0,
                chunk: vec![0; 1 << 14],
            },
        })
    }

    /// One operation, waited for: warm-up and the closing barrier.
    pub fn call(&mut self, level: Level, op: bayou_data::KvOp) -> io::Result<Reply> {
        self.sender.buf.clear();
        encode_frame(&mut self.sender.buf, &Request::Op { tag: 0, level, op });
        self.sender.stream.write_all(&self.sender.buf)?;
        self.reader.stream.set_read_timeout(Some(DRAIN))?;
        match self.reader.next()? {
            Some(msg) => Ok(msg.reply),
            None => Err(io::ErrorKind::TimedOut.into()),
        }
    }
}

/// What both loops of a run share.
#[derive(Debug, Clone, Copy)]
pub struct RunCtl {
    /// The instant record times count from; open-loop due times are
    /// offsets from it.
    pub start: Instant,
    /// How long after the last request was due (open loop) or the last
    /// reply came (closed loop) an unanswered request is given up.
    pub drain: Duration,
    /// Adds a clock read per operation, for the client spans.
    pub traced: bool,
}

fn ns_since(start: Instant, t: Instant) -> u64 {
    t.saturating_duration_since(start).as_nanos() as u64
}

/// What became of an operation after one more reply.
enum Step {
    /// It has its final outcome.
    Final,
    /// Refused: send it again as this attempt, after this pause.
    Resend(u8, Duration),
    /// The reply matched nothing outstanding.
    Stray,
}

/// Accounts one reply against the log. With `resend`, a refusal short
/// of [`MAX_ATTEMPTS`] asks for another send instead of ending the
/// operation.
fn settle(log: &mut ConnLog, msg: ResponseMsg, now_ns: u64, resend: bool) -> (usize, Step) {
    let (at, attempt) = untag(msg.tag);
    let outstanding = log.records.get(at).is_some_and(|rec| {
        // only the latest attempt of an unfinished operation
        rec.outcome == Outcome::Unanswered && attempt == rec.errs + rec.busies
    });
    if !outstanding || msg.reply == Reply::Pong {
        log.stray_replies += 1;
        return (at, Step::Stray);
    }
    let rec = &mut log.records[at];
    rec.done_ns = now_ns;
    let (outcome, pause) = match msg.reply {
        Reply::Ok(v) => (Outcome::Ok(v.as_int()), None),
        Reply::Retry { .. } => (Outcome::Retry, None),
        Reply::Err(_) => {
            rec.errs += 1;
            (Outcome::Err, Some(Duration::ZERO))
        }
        Reply::Busy => {
            rec.busies += 1;
            (
                Outcome::Busy,
                Some(BUSY_BACKOFF * (1 << (rec.busies - 1).min(7))),
            )
        }
        Reply::Pong => unreachable!("handled above"),
    };
    let refusals = rec.errs + rec.busies;
    match pause {
        Some(pause) if resend && refusals < MAX_ATTEMPTS => (at, Step::Resend(refusals, pause)),
        _ => {
            rec.outcome = outcome;
            (at, Step::Final)
        }
    }
}

/// How a closed loop issues its operations.
#[derive(Debug, Clone, Copy)]
pub struct ClosedLoop<'a> {
    /// Operations kept in flight.
    pub window: usize,
    /// A strong operation is a flush: it is sent only once every earlier
    /// reply is in, and nothing is sent until its own reply is.
    pub fenced: bool,
    /// Operations the run's connections may still send between them;
    /// shared, so that they finish together whatever their speeds.
    pub budget: &'a AtomicUsize,
}

/// Closed loop on one thread: read a reply to send the next operation of
/// `ops`, while the budget lasts. Every reply is final. Latency runs
/// from the send.
pub fn closed_loop(
    conn: &mut Conn,
    conn_no: usize,
    ops: &[Op],
    how: ClosedLoop<'_>,
    ctl: RunCtl,
) -> io::Result<ConnLog> {
    let RunCtl {
        start,
        drain,
        traced,
    } = ctl;
    let mut log = ConnLog::default();
    conn.reader
        .stream
        .set_read_timeout(Some(drain.min(Duration::from_millis(500))))?;
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    let take = || {
        let spend = |left: usize| left.checked_sub(1);
        how.budget
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, spend)
            .is_ok()
    };
    let (mut inflight, mut exhausted, mut flushing) = (0usize, false, false);
    let mut last_progress = Instant::now();
    loop {
        let next = log.records.len();
        let flush = how.fenced && ops.get(next).is_some_and(|op| op.level == Level::Strong);
        let may_send = !exhausted && !flushing && inflight < how.window;
        if may_send && !(flush && inflight > 0) {
            if next < ops.len() && take() {
                let t0 = ns_since(start, Instant::now());
                conn.sender.send(conn_no, next, 0, ops[next])?;
                log.records.push(Record {
                    from_ns: t0,
                    send_start_ns: t0,
                    sent_ns: ns_since(start, Instant::now()),
                    attempts: 1,
                    ..Record::EMPTY
                });
                inflight += 1;
                flushing = flush;
            } else {
                exhausted = true;
            }
            continue;
        }
        if inflight == 0 {
            return Ok(log);
        }
        let Some(msg) = conn.reader.next()? else {
            if last_progress.elapsed() > drain {
                return Ok(log);
            }
            continue;
        };
        last_progress = Instant::now();
        let read_ns = ns_since(start, last_progress);
        if let (at, Step::Final) = settle(&mut log, msg, read_ns, false) {
            inflight -= 1;
            // a flush is alone in flight, so any reply ends it
            flushing = false;
            if traced {
                log.records[at].decoded_ns = ns_since(start, Instant::now());
            }
        }
    }
}

/// Open loop on two threads: the calling thread sends operation *i* at
/// `start + due_ns[i]` whatever the server does; a reader thread stamps
/// each reply as it arrives and hands refused operations back for
/// another send. Latency runs from the due time.
pub fn open_loop(
    conn: &mut Conn,
    conn_no: usize,
    ops: &[Op],
    due_ns: &[u64],
    ctl: RunCtl,
) -> io::Result<ConnLog> {
    let RunCtl {
        start,
        drain,
        traced,
    } = ctl;
    let Conn { sender, reader } = conn;
    let n = ops.len();
    assert_eq!(due_ns.len(), n, "a due time per operation");
    let give_up = start + Duration::from_nanos(due_ns.last().copied().unwrap_or(0)) + drain;
    let (resend_tx, resend_rx) = mpsc::channel::<(Instant, usize, u8)>();
    reader
        .stream
        .set_read_timeout(Some(drain.min(Duration::from_millis(200))))?;

    std::thread::scope(|scope| {
        let reading = scope.spawn(move || -> io::Result<ConnLog> {
            let mut log = ConnLog {
                records: vec![Record::EMPTY; n],
                ..ConnLog::default()
            };
            let mut finished = 0;
            while finished < n {
                let Some(msg) = reader.next()? else {
                    if Instant::now() > give_up {
                        break;
                    }
                    continue;
                };
                let now = Instant::now();
                match settle(&mut log, msg, ns_since(start, now), true) {
                    (at, Step::Final) => {
                        finished += 1;
                        if traced {
                            log.records[at].decoded_ns = ns_since(start, Instant::now());
                        }
                    }
                    // the sender is gone only if its socket failed
                    (at, Step::Resend(attempt, pause)) => {
                        let _ = resend_tx.send((now + pause, at, attempt));
                    }
                    (_, Step::Stray) => {}
                }
            }
            // returning drops `resend_tx`, which releases the sender
            Ok(log)
        });

        // (send start, sent, attempts) per operation, merged below
        let mut sent = vec![(0u64, 0u64, 0u8); n];
        let mut late_max_ns = 0u64;
        let mut next = 0usize;
        let mut resends: Vec<(Instant, usize, u8)> = Vec::new();
        let sending = (|| -> io::Result<()> {
            loop {
                let now = Instant::now();
                let scheduled = (next < n).then(|| start + Duration::from_nanos(due_ns[next]));
                let resend = resends.iter().map(|r| r.0).min();
                let wake = match (scheduled, resend) {
                    (Some(a), Some(b)) => a.min(b),
                    (a, b) => a.or(b).unwrap_or(now + Duration::from_secs(3600)),
                };
                match resend_rx.recv_timeout(wake.saturating_duration_since(now)) {
                    Ok(refused) => {
                        resends.push(refused);
                        continue;
                    }
                    Err(mpsc::RecvTimeoutError::Timeout) => {}
                    Err(mpsc::RecvTimeoutError::Disconnected) => return Ok(()),
                }
                let now = Instant::now();
                let (idx, attempt) = match resends.iter().position(|r| r.0 <= now) {
                    Some(at) => {
                        let (_, idx, attempt) = resends.swap_remove(at);
                        (idx, attempt)
                    }
                    None if scheduled.is_some_and(|due| due <= now) => {
                        next += 1;
                        (next - 1, 0)
                    }
                    None => continue,
                };
                let t0 = ns_since(start, now);
                sender.send(conn_no, idx, attempt, ops[idx])?;
                let first = if attempt == 0 { t0 } else { sent[idx].0 };
                sent[idx] = (first, ns_since(start, Instant::now()), attempt + 1);
                if attempt == 0 {
                    late_max_ns = late_max_ns.max(t0.saturating_sub(due_ns[idx]));
                }
            }
        })();
        if sending.is_err() {
            // unblock the reader: it exits on the socket error
            let _ = sender.stream.shutdown(std::net::Shutdown::Both);
        }
        let mut log = reading
            .join()
            .map_err(|_| io::Error::other("reader thread panicked"))??;
        sending?;
        for (idx, rec) in log.records.iter_mut().enumerate() {
            rec.from_ns = due_ns[idx];
            (rec.send_start_ns, rec.sent_ns, rec.attempts) = sent[idx];
        }
        log.late_max_ns = late_max_ns;
        Ok(log)
    })
}

/// A scriptable server for the tests of this package.
#[cfg(test)]
pub mod stub {
    use super::*;
    use bayou_server::protocol::{encode_ok_response, read_frame};
    use bayou_server::RequestView;
    use bayou_types::{Value, WireView};
    use std::net::TcpListener;

    /// What the stub does out of the ordinary, by request number.
    #[derive(Default, Clone, Copy)]
    pub struct Script {
        /// Sleep this long before answering request `.0`.
        pub stall: Option<(usize, Duration)>,
        /// Never answer this request.
        pub drop_no: Option<usize>,
        /// Answer these requests `Busy` / `Err` instead of `Ok(1)`.
        pub busy_no: Option<usize>,
        pub err_no: Option<usize>,
    }

    /// Accepts one connection and answers every request `Ok(1)` but for
    /// what the script says.
    pub fn serve(script: Script) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            stream.set_nodelay(true).unwrap();
            let (mut frame, mut out) = (Vec::new(), Vec::new());
            let mut seen = 0;
            while let Ok(true) = read_frame(&mut stream, &mut frame) {
                let Ok(RequestView::Op { tag, .. }) = RequestView::view_from_bytes(&frame) else {
                    break;
                };
                if let Some((_, stall)) = script.stall.filter(|s| s.0 == seen) {
                    std::thread::sleep(stall);
                }
                out.clear();
                let refusal = |reply| ResponseMsg { tag, reply };
                if Some(seen) == script.busy_no {
                    encode_frame(&mut out, &refusal(Reply::Busy));
                } else if Some(seen) == script.err_no {
                    encode_frame(&mut out, &refusal(Reply::Err("replica 0 crashed".into())));
                } else if Some(seen) != script.drop_no {
                    encode_ok_response(&mut out, tag, &Value::Int(1));
                }
                // two writes, so that frames straddle reads
                let mid = out.len() / 2;
                stream.write_all(&out[..mid]).unwrap();
                stream.write_all(&out[mid..]).unwrap();
                seen += 1;
            }
        });
        (addr, handle)
    }
}

#[cfg(test)]
mod tests {
    use super::stub::Script;
    use super::*;
    use crate::workload::{Kind, Op};

    fn gets(n: usize) -> Vec<Op> {
        let get = Op {
            level: Level::Weak,
            kind: Kind::Get,
            key: 0,
        };
        vec![get; n]
    }

    fn ctl(start: Instant, drain_ms: u64) -> RunCtl {
        RunCtl {
            start,
            drain: Duration::from_millis(drain_ms),
            traced: true,
        }
    }

    #[test]
    fn tags_round_trip() {
        for (idx, attempt) in [(0, 0), (5, 1), (4_000_000, 7)] {
            assert_eq!(untag(tag_of(idx, attempt)), (idx, attempt));
        }
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_due_during_it() {
        // 100 requests, one every 5 ms; the server stalls 200 ms before
        // answering request 20, so requests due during the stall wait
        // for it although each is answered at once when its turn comes
        let (addr, server) = stub::serve(Script {
            stall: Some((20, Duration::from_millis(200))),
            ..Script::default()
        });
        let ops = gets(100);
        let mut conn = Conn::connect(addr).unwrap();
        let start = Instant::now() + Duration::from_millis(20);
        let due: Vec<u64> = (0..100).map(|i| i * 5_000_000).collect();
        let log = open_loop(&mut conn, 0, &ops, &due, ctl(start, 5_000)).unwrap();
        drop(conn);
        server.join().unwrap();
        let ms = |i: usize| log.records[i].latency_ns().unwrap() as f64 / 1e6;
        assert!(ms(5) < 50.0, "before the stall: {} ms", ms(5));
        assert!(ms(20) >= 199.0, "the stalled request: {} ms", ms(20));
        // due 50 ms into a 200 ms stall: waits the remaining 150 ms
        assert!(
            (140.0..200.0).contains(&ms(30)),
            "due during the stall: {} ms",
            ms(30)
        );
        assert!(ms(90) < 50.0, "after the stall drained: {} ms", ms(90));
        assert!(log
            .records
            .iter()
            .all(|r| r.attempts == 1 && r.replies() == 1));
        assert_eq!(log.stray_replies, 0);
    }

    #[test]
    fn open_loop_sends_refused_operations_again() {
        // the stub refuses by arrival number: the 4th request to arrive
        // is shed and the 9th fails, whichever operations those are
        let (addr, server) = stub::serve(Script {
            busy_no: Some(3),
            err_no: Some(8),
            ..Script::default()
        });
        let ops = gets(10);
        let mut conn = Conn::connect(addr).unwrap();
        let due: Vec<u64> = (0..10).map(|i| i * 2_000_000).collect();
        let log = open_loop(&mut conn, 0, &ops, &due, ctl(Instant::now(), 2_000)).unwrap();
        drop(conn);
        server.join().unwrap();
        let ok = Outcome::Ok(Some(1));
        assert!(log.records.iter().all(|r| r.outcome == ok));
        let resent: Vec<&Record> = log.records.iter().filter(|r| r.attempts > 1).collect();
        let [shed, crashed] = resent[..] else {
            panic!("two operations are sent twice, not {}", resent.len());
        };
        assert_eq!(
            (shed.attempts, shed.busies, shed.errs, shed.replies()),
            (2, 1, 0, 2)
        );
        assert_eq!((crashed.attempts, crashed.busies, crashed.errs), (2, 0, 1));
        // the shed one paused before its second send; its latency still
        // counts from the due time
        assert!(shed.latency_ns().unwrap() >= BUSY_BACKOFF.as_nanos() as u64);
        assert_eq!(log.stray_replies, 0);
    }

    #[test]
    fn closed_loop_reports_a_dropped_reply_as_unanswered() {
        let (addr, server) = stub::serve(Script {
            drop_no: Some(3),
            ..Script::default()
        });
        let ops = gets(8);
        let mut conn = Conn::connect(addr).unwrap();
        let budget = AtomicUsize::new(usize::MAX);
        let how = ClosedLoop {
            window: 4,
            fenced: false,
            budget: &budget,
        };
        let log = closed_loop(&mut conn, 0, &ops, how, ctl(Instant::now(), 300)).unwrap();
        drop(conn);
        server.join().unwrap();
        assert_eq!(log.records.len(), 8);
        for (i, rec) in log.records.iter().enumerate() {
            if i == 3 {
                assert_eq!((rec.outcome, rec.replies()), (Outcome::Unanswered, 0));
            } else {
                assert_eq!(rec.outcome, Outcome::Ok(Some(1)));
                assert!(rec.decoded_ns >= rec.done_ns && rec.done_ns >= rec.sent_ns);
            }
        }
    }

    #[test]
    fn a_fenced_closed_loop_sends_a_strong_operation_alone() {
        // the stub answers in arrival order, so "alone in flight" shows
        // in the times: the flush is sent after every earlier reply was
        // read, and the next operation after the flush's reply
        let mut ops = gets(12);
        ops[5].level = Level::Strong;
        let (addr, server) = stub::serve(Script::default());
        let mut conn = Conn::connect(addr).unwrap();
        let budget = AtomicUsize::new(usize::MAX);
        let how = ClosedLoop {
            window: 4,
            fenced: true,
            budget: &budget,
        };
        let log = closed_loop(&mut conn, 0, &ops, how, ctl(Instant::now(), 300)).unwrap();
        drop(conn);
        server.join().unwrap();
        let r = &log.records;
        assert_eq!(r.len(), 12);
        assert!(r[..5]
            .iter()
            .all(|before| before.done_ns <= r[5].send_start_ns));
        assert!(r[6..]
            .iter()
            .all(|after| after.send_start_ns >= r[5].done_ns));
        // while unfenced operations overlap
        assert!(r[1].send_start_ns < r[0].done_ns);
    }

    #[test]
    fn closed_loops_share_a_budget() {
        let ops = gets(50);
        let budget = AtomicUsize::new(30);
        let start = Instant::now();
        let sent: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|c| {
                    let (ops, budget) = (&ops, &budget);
                    scope.spawn(move || {
                        let (addr, server) = stub::serve(Script::default());
                        let mut conn = Conn::connect(addr).unwrap();
                        let how = ClosedLoop {
                            window: 4,
                            fenced: false,
                            budget,
                        };
                        let log = closed_loop(&mut conn, c, ops, how, ctl(start, 300)).unwrap();
                        drop(conn);
                        server.join().unwrap();
                        assert!(log
                            .records
                            .iter()
                            .all(|r| r.outcome == Outcome::Ok(Some(1))));
                        log.records.len()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(sent, 30);
        assert_eq!(budget.load(Ordering::Relaxed), 0);
    }
}
