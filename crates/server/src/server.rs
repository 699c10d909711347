//! The concurrent TCP server fronting a live Bayou cluster.
//!
//! Plain `std::net`, thread-per-connection: each accepted socket gets a
//! reader thread that decodes pipelined request frames straight out of a
//! reusable buffer ([`crate::protocol::RequestView`] borrow-decoding —
//! no allocation per frame on the hot path) and dispatches operations
//! into the [`LiveCluster`]; it reads through a small buffer
//! ([`crate::protocol::READ_BUFFER`]), so a burst of pipelined requests
//! costs one `read(2)`. The reader queues every request of the buffer
//! ([`LiveCluster::post`]) and then, before a read that could block,
//! drives each replica it touched once ([`LiveCluster::drive`]): the
//! replica's wakes — and its peers', a strong op's whole broadcast
//! round — run on the reader's own thread unless another thread is
//! running them already. Replies leave from whichever thread runs the
//! wake that produced them, once per wake: the replica's output sink
//! routes each response to the owning connection by correlation tag,
//! encodes the wake's replies per connection into reused buffers
//! through the borrow path ([`crate::protocol::encode_ok_response`]),
//! and writes each connection once — so the response side is as
//! allocation-free as the request side. No thread hop sits between a
//! replica's wake and the socket. [`Server::hop_counts`] reports the
//! serving path's system calls — WAL writes, reply writes and request
//! reads — beside the replicas' wakes and the peer frames they
//! delivered.
//!
//! ## Slow readers
//!
//! A wake that writes a reply must not wait on a client: it holds its
//! replica's lock, and a replica that stalls stalls its groups' Paxos
//! rounds with it. Every
//! connection's write half has a short timeout (`WRITE_TIMEOUT`), and
//! a write that fails or times out shuts the connection down — a
//! partial frame poisons the stream. A client that stops reading loses
//! its own connection; nobody else waits.
//!
//! ## Sharding
//!
//! Each replica process hosts [`ServerConfig::shards`] independent
//! Bayou groups ([`GroupedReplica`]); a static [`ShardRouter`] hashes
//! every operation's key to one group, so ops on different shards never
//! contend on the same total order. Keyless operations (`keys()`,
//! `size()`) are pinned to group 0 — in a sharded deployment they are
//! per-shard views, not cross-shard aggregates. `shards = 1` (the
//! default) is the classic single-group server: one group, every key in
//! it, identical wire behavior.
//!
//! ## Bounded history
//!
//! Every group compacts its committed history, as every [`BayouReplica`]
//! does: once all replicas hold a committed prefix it lives on only as
//! a baseline state, so replica memory and
//! each snapshot stay O(state + speculation window) however long the
//! server runs.
//!
//! ## Backpressure and load shedding
//!
//! Two explicit limits keep overload typed instead of silent:
//!
//! * **per-connection window** ([`ServerConfig::window`]): a connection
//!   may have at most `window` operations outstanding; further ops get
//!   an immediate [`Reply::Busy`] without touching the cluster;
//! * **per-group high-water mark** ([`ServerConfig::high_water`]): once
//!   a group's outstanding-op table reaches it, every new op routed to
//!   that group is shed with [`Reply::Busy`] until responses drain it —
//!   one overloaded shard does not shed traffic for the others. With
//!   one group this is exactly the old server-wide mark.
//!
//! Past both gates, queuing the op can still block briefly on the
//! replica's bounded mailbox — bounded memory end to end.
//!
//! ## Crash routing
//!
//! Connections hash onto replicas (`conn_id mod n`) so sessions stay
//! sticky — one replica sees a connection's ops in order. When a replica
//! is crashed through [`Server::crash_replica`], its in-flight ops
//! (across every group it hosts) fail immediately with a typed
//! [`Reply::Err`] (their tags were in-memory only, so the recovered
//! replica re-derives responses without tags and the sink drops them),
//! and new ops fail over to the next live replica until
//! [`Server::restart_replica`] brings it back.

use crate::protocol::{
    encode_ok_response, encode_retry_response, holds_frame, read_frame, write_frame, Reply,
    ReplyBatch, RequestView, ResponseMsg, READ_BUFFER,
};
use bayou_broadcast::{PaxosConfig, PaxosTob};
use bayou_core::{
    recover_grouped_paxos, BayouReplica, GroupedReplica, Invocation, ProtocolMode, Response,
    Served, SessionGuard,
};
use bayou_data::{DeltaState, KvOp, KvOpView, KvStore};
use bayou_net::{LiveCluster, LiveConfig, WakeCounts};
use bayou_storage::{Counted, FileStorage, StoreConfig};
use bayou_types::{GroupId, LeaseConfig, Level, ReadGuard, ReplicaId, SharedReq, WireView};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// One group's replica type: Bayou over the KV store with the default
/// Paxos TOB.
pub type KvReplica = BayouReplica<KvStore, PaxosTob<SharedReq<KvOp>>, DeltaState<KvStore>>;

/// The process the server fronts: one host multiplexing
/// [`ServerConfig::shards`] [`KvReplica`] groups.
pub type KvHost = GroupedReplica<KvStore, PaxosTob<SharedReq<KvOp>>, DeltaState<KvStore>>;

/// Static keyspace partitioner: FNV-1a over the key's bytes, modulo the
/// shard count. Deterministic and config-free, so every server process
/// (and any client that wants locality hints) computes the same
/// placement; rebalancing would need a versioned map in its place.
#[derive(Debug, Clone, Copy)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` groups (must be nonzero).
    pub fn new(shards: usize) -> ShardRouter {
        assert!(shards > 0, "router needs at least one shard");
        ShardRouter { shards }
    }

    /// Number of shards routed over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The group an operation on `key` belongs to. `None` (keyless ops:
    /// `keys()`, `size()`) pins to group 0.
    pub fn route(&self, key: Option<&str>) -> GroupId {
        let Some(key) = key else {
            return GroupId::new(0);
        };
        // FNV-1a, 64-bit
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in key.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        GroupId::new((h % self.shards as u64) as u32)
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; port 0 picks a free port (see
    /// [`Server::local_addr`]).
    pub listen: String,
    /// Number of replicas in the fronted cluster.
    pub replicas: usize,
    /// Number of replication groups the keyspace is sharded over; each
    /// replica process hosts one instance of every group. `1` is the
    /// classic unsharded server.
    pub shards: usize,
    /// Root directory for durable replica state (one subdirectory per
    /// replica holding all of its groups' stores, recovered on
    /// restart). `None` runs in-memory replicas.
    pub data_dir: Option<PathBuf>,
    /// Per-connection outstanding-op window; ops past it are shed with
    /// [`Reply::Busy`].
    pub window: usize,
    /// Per-group outstanding-op high-water mark; past it every new op
    /// routed to that group is shed with [`Reply::Busy`].
    pub high_water: usize,
    /// Storage tuning for durable replicas.
    pub store: StoreConfig,
    /// Seed for the replicas' random streams.
    pub seed: u64,
    /// Leader lease for the strong-read fast path: `Some` arms
    /// quorum-acked leases on every group (strong read-only ops are then
    /// routed to the lowest live replica — the Ω leader of a stable
    /// cluster — and served locally from committed state while its lease
    /// holds, falling back to the full TOB round when it doesn't).
    /// `None` (the default) is the all-TOB baseline, bit-for-bit the old
    /// behavior.
    pub lease: Option<LeaseConfig>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            replicas: 3,
            shards: 1,
            data_dir: None,
            window: 32,
            high_water: 1024,
            store: StoreConfig {
                snapshot_every: 256,
                ..StoreConfig::default()
            },
            seed: 0,
            lease: None,
        }
    }
}

/// How long a reply may wait for room in a connection's socket buffer
/// before the connection is given up: a wake writes replies under its
/// replica's lock, so this bounds what a client that stops reading can
/// cost the replica.
const WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// The serving path's system calls, wakes and peer frames so far, summed
/// over every replica, connection and restart: the numerator of a
/// per-operation hop ledger.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HopCounts {
    /// `write(2)` calls that handed WAL appends to the OS.
    pub wal_writes: u64,
    /// `write(2)` calls on client connections (replies of every kind).
    pub reply_writes: u64,
    /// `read(2)` calls on client connections.
    pub request_reads: u64,
    /// Frames a replica put into another replica's mailbox.
    pub peer_frames: u64,
    /// Wakes the replicas ran that handled an event or fired a timer.
    pub wakes: u64,
}

/// The always-on counters behind [`HopCounts`].
#[derive(Debug, Default)]
struct Hops {
    wal_writes: Arc<AtomicU64>,
    reply_writes: Arc<AtomicU64>,
    request_reads: Arc<AtomicU64>,
}

impl Hops {
    fn counts(&self, links: WakeCounts) -> HopCounts {
        HopCounts {
            wal_writes: self.wal_writes.load(Ordering::Relaxed),
            reply_writes: self.reply_writes.load(Ordering::Relaxed),
            request_reads: self.request_reads.load(Ordering::Relaxed),
            peer_frames: links.peer_frames,
            wakes: links.wakes,
        }
    }
}

/// One connection's server-side state: the write half (stream + reusable
/// encode buffer behind one lock, so replies from every replica's wakes
/// and immediate Busy/Pong/Err replies from other threads interleave
/// whole-frame) and the outstanding-op count.
struct Conn {
    writer: Mutex<ConnWriter>,
    inflight: AtomicUsize,
}

struct ConnWriter {
    stream: Counted<TcpStream>,
    buf: Vec<u8>,
}

impl Conn {
    /// A connection writing to `stream`, each `write(2)` counted in
    /// `writes`.
    fn new(stream: TcpStream, writes: Arc<AtomicU64>) -> Conn {
        Conn {
            writer: Mutex::new(ConnWriter {
                stream: Counted::new(stream, writes),
                buf: Vec::new(),
            }),
            inflight: AtomicUsize::new(0),
        }
    }

    /// Writes under the writer lock. On any error — a dead peer, or
    /// `WRITE_TIMEOUT` spent on a full socket buffer — a frame may be
    /// partly written, which poisons the stream, so both halves are shut
    /// down: the reader thread sees the close and ends, and later
    /// replies fail at once.
    fn write(&self, frames: impl FnOnce(&mut Counted<TcpStream>, &mut Vec<u8>) -> io::Result<()>) {
        let mut w = self.writer.lock();
        let ConnWriter { stream, buf } = &mut *w;
        if frames(stream, buf).is_err() {
            let _ = stream.get_ref().shutdown(Shutdown::Both);
        }
    }

    /// Best-effort response write; a dead connection just drops it.
    fn reply(&self, tag: u64, reply: Reply) {
        self.write(|stream, buf| write_frame(stream, buf, &ResponseMsg { tag, reply }));
    }

    /// Shuts both halves of the connection down.
    fn close(&self) {
        let _ = self.writer.lock().stream.get_ref().shutdown(Shutdown::Both);
    }
}

/// A connection is equal only to itself: it keys a wake's
/// [`ReplyBatch`].
impl PartialEq for Conn {
    fn eq(&self, other: &Conn) -> bool {
        std::ptr::eq(self, other)
    }
}

/// An operation in flight between a connection and a replica group.
struct Pending {
    conn: Arc<Conn>,
    client_tag: u64,
    replica: ReplicaId,
    /// `Some(session)` when this op's completion should advance that
    /// session's read-your-writes cursor (guarded non-read-only ops
    /// only — reads never enter the evaluation order, so their dots
    /// must never become a floor).
    session: Option<u64>,
}

/// Where a session's writes last landed: the replica that assigned the
/// dot and the per-origin counter reached. A guarded read is only served
/// by a replica that has executed `origin`'s ops through `seq`.
#[derive(Debug, Clone, Copy)]
struct SessionCursor {
    origin: ReplicaId,
    seq: u64,
}

/// What a response needs to find its connection: shared by the reader
/// threads, which register ops, and the cluster's output sink, which
/// completes them under a replica's lock on whichever thread ran the
/// wake.
struct Routes {
    /// Outstanding ops by server-global tag, one table per group. Each
    /// table's size is that group's load-shed signal; entries leave on
    /// response or on replica crash.
    pending: Vec<Mutex<HashMap<u64, Pending>>>,
    /// Per-session write cursors, advanced by completed guarded writes
    /// and merged into every guarded read's floors. Sessions are client
    /// chosen identifiers; the table is in-memory only (a restarted
    /// server starts sessions fresh, which only weakens floors — never
    /// unsafe, the replica still enforces whatever guard it is sent).
    sessions: Mutex<HashMap<u64, SessionCursor>>,
}

struct Shared {
    cluster: LiveCluster<KvHost>,
    routes: Arc<Routes>,
    router: ShardRouter,
    next_tag: AtomicU64,
    crashed: Vec<AtomicBool>,
    stop: AtomicBool,
    conn_seq: AtomicU64,
    /// Ops shed with [`Reply::Busy`], per group (high-water sheds are
    /// charged to the op's group; window sheds to the group it would
    /// have routed to).
    shed: Vec<AtomicU64>,
    conns: Mutex<Vec<Weak<Conn>>>,
    readers: Mutex<Vec<JoinHandle<()>>>,
    hops: Hops,
    window: usize,
    high_water: usize,
    n: usize,
    /// Whether leader leases are armed — gates the strong-read-to-leader
    /// routing so a lease-off server is bit-for-bit the old one.
    lease_on: bool,
}

/// A running server. Dropping it leaks the threads; call
/// [`Server::stop`] for an orderly shutdown that returns the hosts.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Builds the cluster, binds the listener and spawns the accept
    /// thread.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let n = config.replicas;
        let shards = config.shards;
        assert!(n > 0, "server needs at least one replica");
        assert!(shards > 0, "server needs at least one shard");
        let live = LiveConfig {
            seed: config.seed,
            ..LiveConfig::new(n)
        };
        let lease = config.lease;
        let hops = Hops::default();
        // replies leave from the thread that ran the wake producing
        // them: each replica's sink routes a wake's responses to their
        // connections and writes each connection once
        let routes = Arc::new(Routes {
            pending: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            sessions: Mutex::new(HashMap::new()),
        });
        let sink = |_| {
            let routes = Arc::clone(&routes);
            let mut replies = ReplyBatch::default();
            move |outputs: Vec<(GroupId, Response)>| {
                for (gid, resp) in outputs {
                    route_response(&routes, gid, resp, &mut replies);
                }
                // one write per connection, each under its writer lock
                // and bounded by WRITE_TIMEOUT; a dead one drops them
                replies.write(|conn: &Arc<Conn>, bytes| {
                    conn.write(|stream, _| stream.write_all(bytes))
                });
            }
        };
        let cluster = match config.data_dir.clone() {
            Some(root) => {
                std::fs::create_dir_all(&root)?;
                let store = config.store;
                let wal_writes = Arc::clone(&hops.wal_writes);
                let make = move |id: ReplicaId, n| {
                    let dir = root.join(format!("replica-{}", id.index()));
                    let backend = FileStorage::open(dir)
                        .expect("open replica data dir")
                        .count_writes_in(Arc::clone(&wal_writes));
                    let mut host = recover_grouped_paxos::<KvStore, DeltaState<KvStore>, _>(
                        id,
                        n,
                        shards,
                        ProtocolMode::Improved,
                        PaxosConfig::default(),
                        backend,
                        store,
                    );
                    host.set_lease(lease);
                    host
                };
                LiveCluster::with_sink(live, make, sink)
            }
            None => {
                let make = move |_, n| {
                    let mut host = GroupedReplica::new(
                        (0..shards)
                            .map(|_| {
                                BayouReplica::new(
                                    n,
                                    ProtocolMode::Improved,
                                    PaxosTob::with_defaults(n),
                                )
                            })
                            .collect(),
                    );
                    host.set_lease(lease);
                    host
                };
                LiveCluster::with_sink(live, make, sink)
            }
        };

        let listener = TcpListener::bind(&config.listen)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            cluster,
            routes,
            router: ShardRouter::new(shards),
            next_tag: AtomicU64::new(1),
            crashed: (0..n).map(|_| AtomicBool::new(false)).collect(),
            stop: AtomicBool::new(false),
            conn_seq: AtomicU64::new(0),
            shed: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            conns: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
            hops,
            window: config.window,
            high_water: config.high_water,
            n,
            lease_on: lease.is_some(),
        });

        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("bayou-accept".into())
            .spawn(move || accept_loop(listener, accept_shared))?;

        Ok(Server {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of replication groups the keyspace is sharded over.
    pub fn shards(&self) -> usize {
        self.shared.router.shards()
    }

    /// The server's key→group placement (for tests and locality-aware
    /// clients).
    pub fn router(&self) -> ShardRouter {
        self.shared.router
    }

    /// Operations shed with [`Reply::Busy`] so far, across all groups.
    pub fn shed_count(&self) -> u64 {
        self.shared
            .shed
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .sum()
    }

    /// Operations shed with [`Reply::Busy`] charged to one group.
    pub fn shed_count_group(&self, gid: GroupId) -> u64 {
        self.shared.shed[gid.index()].load(Ordering::Relaxed)
    }

    /// The serving path's system calls so far: divide by the operations
    /// answered for a per-operation hop ledger.
    pub fn hop_counts(&self) -> HopCounts {
        self.shared.hops.counts(self.shared.cluster.wake_counts())
    }

    /// Crashes a replica: it goes silent, its in-flight ops — in every
    /// group it hosts — fail with a typed [`Reply::Err`] (never a
    /// silent stall), and new ops from its connections fail over to the
    /// next live replica.
    pub fn crash_replica(&self, r: ReplicaId) {
        self.shared.crashed[r.index()].store(true, Ordering::SeqCst);
        self.shared.cluster.control().crash(r);
        let mut failed: Vec<(Arc<Conn>, u64)> = Vec::new();
        for table in &self.shared.routes.pending {
            let mut pending = table.lock();
            pending.retain(|_, p| {
                if p.replica == r {
                    failed.push((Arc::clone(&p.conn), p.client_tag));
                    false
                } else {
                    true
                }
            });
        }
        for (conn, tag) in failed {
            conn.inflight.fetch_sub(1, Ordering::SeqCst);
            conn.reply(tag, Reply::Err(format!("replica {} crashed", r.index())));
        }
    }

    /// Restarts a crashed replica through the cluster factory (recovering
    /// every group from durable storage when the server was started with
    /// a data dir) and routes its connections back to it.
    pub fn restart_replica(&self, r: ReplicaId) {
        self.shared.cluster.restart(r);
        self.shared.crashed[r.index()].store(false, Ordering::SeqCst);
    }

    /// Orderly shutdown: closes every connection, joins all threads and
    /// returns the final host states (every group, for convergence
    /// inspection).
    pub fn stop(mut self) -> Vec<KvHost> {
        self.shared.stop.store(true, Ordering::SeqCst);
        for c in self.shared.conns.lock().drain(..) {
            if let Some(c) = c.upgrade() {
                c.close();
            }
        }
        // wake the acceptor so it observes the stop flag
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let readers: Vec<JoinHandle<()>> = self.shared.readers.lock().drain(..).collect();
        for h in readers {
            let _ = h.join();
        }
        for table in &self.shared.routes.pending {
            table.lock().clear();
        }
        let shared = match Arc::try_unwrap(self.shared) {
            Ok(s) => s,
            Err(_) => panic!("server threads still hold the shared state after join"),
        };
        shared.cluster.shutdown()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                let conn_id = shared.conn_seq.fetch_add(1, Ordering::SeqCst);
                let reader_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name(format!("bayou-conn-{conn_id}"))
                    .spawn(move || reader_loop(reader_shared, stream, conn_id))
                    .expect("spawn connection reader");
                shared.readers.lock().push(handle);
            }
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// The cluster's output sink, for one response: completes its pending op
/// and encodes the reply into the wake's buffer for its connection,
/// under the lock of the replica that produced it.
fn route_response(
    routes: &Routes,
    gid: GroupId,
    resp: Response,
    replies: &mut ReplyBatch<Arc<Conn>>,
) {
    // untagged responses are re-derivations after a crash restart: the
    // session that asked is gone (its ops were failed at crash time)
    let Some(tag) = resp.tag else { return };
    // already failed over / failed at crash time
    let Some(p) = routes.pending[gid.index()].lock().remove(&tag) else {
        return;
    };
    p.conn.inflight.fetch_sub(1, Ordering::SeqCst);
    if let Served::Retry {
        seen_seq,
        committed,
    } = resp.served
    {
        // the replica refused the guarded read (it lags the session's
        // floors) and did NOT execute it — hand the cursor back as a
        // typed reply, never a silently-downgraded value
        encode_retry_response(replies.to(p.conn), p.client_tag, seen_seq, committed);
        return;
    }
    if let Some(session) = p.session {
        // a completed session write advances the read-your-writes
        // cursor to the dot its replica assigned
        let id = resp.meta.id();
        let mut sessions = routes.sessions.lock();
        let cur = sessions.entry(session).or_insert(SessionCursor {
            origin: id.replica(),
            seq: 0,
        });
        if cur.origin != id.replica() || id.event_no() > cur.seq {
            *cur = SessionCursor {
                origin: id.replica(),
                seq: id.event_no(),
            };
        }
    }
    encode_ok_response(replies.to(p.conn), p.client_tag, &resp.value);
}

/// First live replica at or after the connection's home slot.
fn pick_replica(shared: &Shared, conn_id: u64) -> Option<ReplicaId> {
    let base = (conn_id as usize) % shared.n;
    (0..shared.n)
        .map(|i| (base + i) % shared.n)
        .find(|&r| !shared.crashed[r].load(Ordering::SeqCst))
        .map(|r| ReplicaId::new(r as u32))
}

/// The presumed Ω leader: the lowest live replica. Paxos phase 1 in this
/// codebase is won by the lowest-id contender of a stable membership, so
/// routing strong reads here maximizes lease fast-path hits; a wrong
/// guess is safe — a non-leaseholder simply serves the read through the
/// full TOB round.
fn pick_leader(shared: &Shared) -> Option<ReplicaId> {
    (0..shared.n)
        .find(|&r| !shared.crashed[r].load(Ordering::SeqCst))
        .map(|r| ReplicaId::new(r as u32))
}

fn reader_loop(shared: Arc<Shared>, stream: TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let write_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    if write_stream.set_write_timeout(Some(WRITE_TIMEOUT)).is_err() {
        return;
    }
    let conn = Arc::new(Conn::new(
        write_stream,
        Arc::clone(&shared.hops.reply_writes),
    ));
    shared.conns.lock().push(Arc::downgrade(&conn));

    // one read(2) takes a whole burst of pipelined requests; the reusable
    // frame buffer is resized in place and RequestView borrows from it,
    // so the decode path allocates nothing
    let reads = Arc::clone(&shared.hops.request_reads);
    let mut stream = BufReader::with_capacity(READ_BUFFER, Counted::new(stream, reads));
    let mut frame = Vec::new();
    // the replicas this read's requests were queued at: each is driven
    // once, after the last whole frame the read brought, so the requests
    // share its wakes
    let mut touched: Vec<ReplicaId> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        if !holds_frame(stream.buffer()) {
            // the next frame needs a read(2), which may block
            for replica in touched.drain(..) {
                shared.cluster.drive(replica);
            }
        }
        match read_frame(&mut stream, &mut frame) {
            Ok(true) => {}
            // clean close, I/O error, hostile length: drop the connection
            Ok(false) | Err(_) => break,
        }
        let queued_at = match RequestView::view_from_bytes(&frame) {
            // a malformed frame poisons the stream; close it
            Err(_) => break,
            Ok(RequestView::Ping { tag }) => {
                conn.reply(tag, Reply::Pong);
                None
            }
            Ok(RequestView::Op { tag, level, op }) => {
                handle_op(&shared, &conn, conn_id, tag, level, op, None)
            }
            Ok(RequestView::GuardedOp { tag, guard, op }) => {
                handle_op(&shared, &conn, conn_id, tag, Level::Weak, op, Some(guard))
            }
        };
        if let Some(replica) = queued_at.filter(|r| !touched.contains(r)) {
            touched.push(replica);
        }
    }
    for replica in touched {
        shared.cluster.drive(replica);
    }
    conn.close();
}

/// Answers an op at once (shed, or no replica to take it) or queues it
/// at a replica, returning which: the caller drives that replica.
fn handle_op(
    shared: &Shared,
    conn: &Arc<Conn>,
    conn_id: u64,
    client_tag: u64,
    level: Level,
    op: KvOpView<'_>,
    guard: Option<ReadGuard>,
) -> Option<ReplicaId> {
    // route on the borrowed key, before the op is promoted to owned
    let gid = shared.router.route(op.key());
    // per-connection window: pipelining is bounded, overload is typed
    if conn.inflight.load(Ordering::SeqCst) >= shared.window {
        shared.shed[gid.index()].fetch_add(1, Ordering::Relaxed);
        conn.reply(client_tag, Reply::Busy);
        return None;
    }
    let read_only = op.is_read_only();
    // with leases armed, strong reads go to the presumed leaseholder
    // (which serves them locally, no TOB round); everything else stays
    // sticky to the connection's home replica. Lease off: all sticky,
    // exactly the old routing.
    let picked = if shared.lease_on && level == Level::Strong && read_only {
        pick_leader(shared)
    } else {
        pick_replica(shared, conn_id)
    };
    let Some(replica) = picked else {
        conn.reply(client_tag, Reply::Err("no live replica".into()));
        return None;
    };
    // a guarded read carries its session's floors (the server-side
    // cursor raises the client's); a guarded write registers for a
    // cursor advance when its response lands
    let mut session_guard = None;
    let mut session_write = None;
    if let Some(g) = guard {
        if read_only {
            let cursor = shared.routes.sessions.lock().get(&g.session).copied();
            session_guard = Some(match cursor {
                Some(c) => SessionGuard {
                    origin: c.origin,
                    min_seq: c.seq.max(g.min_seq),
                    min_commit: g.min_commit,
                },
                // no writes recorded for this session: the guard floors
                // are whatever the client asked for, checked against
                // the serving replica's own counter
                None => SessionGuard {
                    origin: replica,
                    min_seq: g.min_seq,
                    min_commit: g.min_commit,
                },
            });
        } else {
            session_write = Some(g.session);
        }
    }
    let tag = {
        let mut pending = shared.routes.pending[gid.index()].lock();
        // per-group high-water mark: shed before the cluster sees the
        // op, without letting one hot shard starve the others
        if pending.len() >= shared.high_water {
            drop(pending);
            shared.shed[gid.index()].fetch_add(1, Ordering::Relaxed);
            conn.reply(client_tag, Reply::Busy);
            return None;
        }
        let tag = shared.next_tag.fetch_add(1, Ordering::SeqCst);
        conn.inflight.fetch_add(1, Ordering::SeqCst);
        pending.insert(
            tag,
            Pending {
                conn: Arc::clone(conn),
                client_tag,
                replica,
                session: session_write,
            },
        );
        tag
    };
    // outside the pending lock: a full replica mailbox blocks here
    // (bounded memory), and the pending entry is already in place for
    // the replica's reply
    let mut inv = Invocation::new(op.into_owned(), level).with_tag(tag);
    if let Some(sg) = session_guard {
        inv = inv.with_guard(sg);
    }
    shared.cluster.post(replica, (gid, inv));
    Some(replica)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_is_deterministic_and_total() {
        let router = ShardRouter::new(4);
        for key in ["a", "b", "user:17", "k0", ""] {
            let g = router.route(Some(key));
            assert!(g.index() < 4);
            assert_eq!(g, router.route(Some(key)), "placement must be stable");
        }
        assert_eq!(router.route(None), GroupId::new(0), "keyless ops pin to 0");
    }

    #[test]
    fn single_shard_routes_everything_to_group_zero() {
        let router = ShardRouter::new(1);
        for key in ["a", "b", "anything"] {
            assert_eq!(router.route(Some(key)), GroupId::new(0));
        }
    }

    #[test]
    fn router_spreads_keys_across_groups() {
        let router = ShardRouter::new(4);
        let mut per_group = [0usize; 4];
        for i in 0..1000 {
            per_group[router.route(Some(&format!("key-{i}"))).index()] += 1;
        }
        for (g, count) in per_group.iter().enumerate() {
            assert!(
                *count > 100,
                "group {g} got {count}/1000 keys — hash is not spreading"
            );
        }
    }
}
