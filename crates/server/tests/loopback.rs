//! End-to-end loopback tests: a real `bayou-server` over real TCP
//! sockets, driven by the pipelined client — request pipelining across
//! weak and strong levels, typed load shedding under backpressure, a
//! replica crash + durable restart mid-run, leased strong reads across a
//! leader failover, session-guarded follower reads with typed `Retry`
//! refusals, and the two hazards of replies written by the replicas'
//! wakes: a client that stops reading, and one connection answered by
//! two replicas' wakes at once.

use bayou_data::KvOp;
use bayou_server::{Client, KvHost, KvReplica, Reply, Server, ServerConfig, Session};
use bayou_storage::StoreConfig;
use bayou_types::{GroupId, LeaseConfig, Level, ReadGuard, ReplicaId, Value};
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn start(cfg: ServerConfig) -> (Server, String) {
    let server = Server::start(cfg).expect("server starts");
    let addr = server.local_addr().to_string();
    (server, addr)
}

/// The sole group of an unsharded host (these tests run `shards = 1`
/// unless they say otherwise).
fn g0(host: &KvHost) -> &KvReplica {
    host.group(GroupId::new(0))
}

fn connect(addr: &str) -> Client {
    let mut client = Client::connect(addr).expect("client connects");
    client
        .set_recv_timeout(Some(Duration::from_secs(20)))
        .expect("set timeout");
    client.ping().expect("server answers ping");
    client
}

fn fresh_dir(name: &str) -> PathBuf {
    let root = std::env::temp_dir().join(format!(
        "bayou-server-{name}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn pipelined_weak_and_strong_ops_over_tcp() {
    // window > burst size: this test asserts every op completes Ok, so
    // none may be shed (shedding behavior has its own tests below)
    let (server, addr) = start(ServerConfig {
        window: 64,
        ..ServerConfig::default()
    });
    let mut client = connect(&addr);

    // pipeline a mixed burst: every 4th op strong, none waited on
    const OPS: u64 = 40;
    let mut tags = HashMap::new();
    for i in 0..OPS {
        let level = if i % 4 == 3 {
            Level::Strong
        } else {
            Level::Weak
        };
        let tag = client
            .send(level, KvOp::put(format!("k{}", i % 8), i as i64))
            .expect("send");
        tags.insert(tag, level);
    }
    // responses arrive in completion order (weak long before strong);
    // every tag must be answered exactly once, all Ok
    for _ in 0..OPS {
        let (tag, reply) = client.recv().expect("response");
        assert!(tags.remove(&tag).is_some(), "tag {tag} unknown or repeated");
        assert!(matches!(reply, Reply::Ok(_)), "op {tag} failed: {reply:?}");
    }
    assert!(tags.is_empty(), "unanswered: {tags:?}");

    // a strong read observes the last committed write of k7 (op 39)
    let reply = client
        .call(Level::Strong, KvOp::get("k7"))
        .expect("strong get");
    assert_eq!(reply, Reply::Ok(Value::Int(39)));

    assert_eq!(server.shed_count(), 0, "nothing shed under light load");
    let replicas = server.stop();
    assert_eq!(replicas.len(), 3);
    let s0 = g0(&replicas[0]).materialize();
    assert_eq!(s0.len(), 8, "8 distinct keys");
    for r in &replicas[1..] {
        assert_eq!(g0(r).materialize(), s0, "replicas diverged");
        assert!(g0(r).tentative_ids().is_empty());
    }
}

/// Eight requests in one client write: the server's reader takes them
/// in one burst and every one is answered under its own tag — the puts
/// with the empty previous binding, the reads behind them with the
/// values the same connection wrote.
#[test]
fn eight_requests_in_one_write_are_all_answered_under_their_own_tags() {
    use bayou_server::protocol::{encode_frame, read_frame};
    use bayou_server::{Request, ResponseMsg};
    use bayou_types::Wire;
    use std::io::Write;

    let (server, addr) = start(ServerConfig::default());
    let mut stream = std::net::TcpStream::connect(&addr).expect("connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set timeout");
    let mut expected: HashMap<u64, Value> = HashMap::new();
    let mut burst = Vec::new();
    for k in 0..6u64 {
        let op = KvOp::put(format!("burst{k}"), k as i64);
        let (tag, level) = (100 + k, Level::Weak);
        encode_frame(&mut burst, &Request::Op { tag, level, op });
        expected.insert(tag, Value::None);
    }
    let reads = [
        (106, Level::Weak, "burst0", 0),
        (107, Level::Strong, "burst1", 1),
    ];
    for (tag, level, key, v) in reads {
        encode_frame(
            &mut burst,
            &Request::Op {
                tag,
                level,
                op: KvOp::get(key),
            },
        );
        expected.insert(tag, Value::Int(v));
    }
    stream.write_all(&burst).expect("one write of eight frames");

    let mut frame = Vec::new();
    let mut got: HashMap<u64, Value> = HashMap::new();
    for _ in 0..8 {
        assert!(read_frame(&mut stream, &mut frame).expect("a reply"));
        let ResponseMsg { tag, reply } = ResponseMsg::from_bytes(&frame).expect("decodes");
        let Reply::Ok(value) = reply else {
            panic!("tag {tag}: {reply:?}")
        };
        assert!(got.insert(tag, value).is_none(), "tag {tag} answered twice");
    }
    assert_eq!(got, expected);
    drop(stream);
    server.stop();
}

#[test]
fn window_overflow_sheds_with_typed_busy() {
    // a 2-op connection window: a pipelined burst of slow (strong) ops
    // must overflow it and be answered Busy, never silently stalled
    let (server, addr) = start(ServerConfig {
        window: 2,
        ..ServerConfig::default()
    });
    let mut client = connect(&addr);

    const OPS: u64 = 16;
    for i in 0..OPS {
        client
            .send(Level::Strong, KvOp::put("contended", i as i64))
            .expect("send");
    }
    let (mut oks, mut busy) = (0u64, 0u64);
    for _ in 0..OPS {
        match client.recv().expect("every op is answered") {
            (_, Reply::Ok(_)) => oks += 1,
            (_, Reply::Busy) => busy += 1,
            (tag, reply) => panic!("op {tag}: unexpected {reply:?}"),
        }
    }
    assert!(oks >= 2, "the in-window ops complete (got {oks})");
    assert!(busy > 0, "the burst must overflow a 2-op window");
    assert_eq!(oks + busy, OPS);
    assert_eq!(server.shed_count(), busy);
    server.stop();
}

#[test]
fn high_water_mark_sheds_new_ops_server_wide() {
    // high_water 1: with one strong op pending anywhere, the next op on
    // any connection is shed
    let (server, addr) = start(ServerConfig {
        high_water: 1,
        ..ServerConfig::default()
    });
    let mut a = connect(&addr);
    let mut b = connect(&addr);

    a.send(Level::Strong, KvOp::put("hw", 1)).expect("send");
    // the two connections race at the group's pending table: whichever
    // op lands second while the other is still pending is shed (the
    // expected case — commit takes a Paxos round); both may be Ok if the
    // first drained before the second arrived — always typed, never a
    // stall
    let probe_busy = match b
        .call(Level::Weak, KvOp::put("probe", 1))
        .expect("probe answered")
    {
        Reply::Busy => true,
        Reply::Ok(_) => false,
        other => panic!("unexpected {other:?}"),
    };
    let first_busy = match a.recv().expect("first op answered") {
        (_, Reply::Busy) => true,
        (_, Reply::Ok(_)) => false,
        (tag, other) => panic!("op {tag}: unexpected {other:?}"),
    };
    assert!(
        !(probe_busy && first_busy),
        "a 1-op window admits one of the two racing ops"
    );
    assert_eq!(
        server.shed_count(),
        u64::from(probe_busy) + u64::from(first_busy),
        "shed counter matches observed Busy replies"
    );
    server.stop();
}

#[test]
fn replica_crash_fails_pending_ops_and_durable_restart_converges() {
    let root = fresh_dir("crash");
    let (server, addr) = start(ServerConfig {
        data_dir: Some(root.clone()),
        ..ServerConfig::default()
    });
    // first connection: sticky-routed to replica 0
    let mut client = connect(&addr);

    // phase 1: committed baseline
    for i in 0..8 {
        let reply = client
            .call(Level::Strong, KvOp::put(format!("base{i}"), i))
            .expect("baseline put");
        assert!(matches!(reply, Reply::Ok(_)), "baseline {i}: {reply:?}");
    }

    // phase 2: pipeline strong ops at replica 0, then crash it mid-run.
    // Every in-flight op must be answered exactly once — Ok if it
    // committed first, a typed Err if the crash beat it — never dropped
    // and never both: the crash and the replica's own reply race for the
    // op's pending entry.
    const INFLIGHT: u64 = 6;
    let mut unanswered: HashSet<u64> = (0..INFLIGHT)
        .map(|i| {
            client
                .send(Level::Strong, KvOp::put("racing", i as i64))
                .expect("send")
        })
        .collect();
    server.crash_replica(ReplicaId::new(0));
    let (mut oks, mut errs) = (0u64, 0u64);
    for _ in 0..INFLIGHT {
        let (tag, reply) = client.recv().expect("in-flight op answered after crash");
        assert!(
            unanswered.remove(&tag),
            "tag {tag} unknown or answered twice"
        );
        match reply {
            Reply::Ok(_) => oks += 1,
            Reply::Err(msg) => {
                assert!(msg.contains("crashed"), "unexpected error: {msg}");
                errs += 1;
            }
            reply => panic!("op {tag}: unexpected {reply:?}"),
        }
    }
    assert_eq!(oks + errs, INFLIGHT);

    // phase 3: with replica 0 down, the connection fails over to a live
    // replica; quorum (2 of 3) still commits strong ops
    let reply = client
        .call(Level::Strong, KvOp::put("failover", 1))
        .expect("failover put");
    assert!(matches!(reply, Reply::Ok(_)), "failover: {reply:?}");

    // phase 4: restart replica 0 from its FileStorage dir; it recovers
    // and serves again
    server.restart_replica(ReplicaId::new(0));
    std::thread::sleep(Duration::from_millis(300));
    let reply = client
        .call(Level::Strong, KvOp::put("post-restart", 2))
        .expect("post-restart put");
    assert!(matches!(reply, Reply::Ok(_)), "post-restart: {reply:?}");

    // let anti-entropy settle, then check all three replicas agree
    std::thread::sleep(Duration::from_millis(800));
    let replicas = server.stop();
    assert_eq!(replicas.len(), 3);
    let s0 = g0(&replicas[0]).materialize();
    assert_eq!(s0.get("failover"), Some(&1));
    assert_eq!(s0.get("post-restart"), Some(&2));
    for (i, r) in replicas.iter().enumerate().skip(1) {
        assert_eq!(
            g0(r).materialize(),
            s0,
            "replica {i} diverged after recovery"
        );
        assert!(g0(r).tentative_ids().is_empty());
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The largest snapshot file any replica of a three-replica, one-group
/// server keeps under `root` (0 before the first snapshot).
fn largest_snapshot(root: &Path) -> u64 {
    (0..3)
        .filter_map(|i| std::fs::read_dir(root.join(format!("replica-{i}"))).ok())
        .flatten()
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with("g0000-snap-") && !name.ends_with(".tmp")
        })
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .max()
        .unwrap_or(0)
}

#[test]
fn snapshots_stay_bounded_as_history_grows() {
    // the server compacts its committed history: a snapshot holds the
    // state (8 keys here) and the speculation window, never the history,
    // so its size does not grow with the number of operations served
    const BOUND: u64 = 16 * 1024;
    let root = fresh_dir("snapshots");
    let (server, addr) = start(ServerConfig {
        data_dir: Some(root.clone()),
        store: StoreConfig {
            snapshot_every: 64,
            sync_every_record: false,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    });
    let mut client = connect(&addr);
    // strong puts, 10 in flight: every snapshot is written with at most
    // a burst (plus the cursor round trip) above the compaction floor
    const ROUND: i64 = 500;
    let mut sizes = Vec::new();
    for round in 0..3 {
        for burst in 0..ROUND / 10 {
            for i in 0..10 {
                let v = round * ROUND + burst * 10 + i;
                client
                    .send(Level::Strong, KvOp::put(format!("k{}", v % 8), v))
                    .expect("send");
            }
            for _ in 0..10 {
                let (tag, reply) = client.recv().expect("response");
                assert!(matches!(reply, Reply::Ok(_)), "op {tag}: {reply:?}");
            }
        }
        sizes.push(largest_snapshot(&root));
    }
    server.stop();
    assert!(sizes[0] > 0, "no snapshot was written");
    for (round, size) in sizes.iter().enumerate() {
        assert!(
            *size <= BOUND,
            "after {} ops a snapshot holds {size} bytes (bound {BOUND}): {sizes:?}",
            (round as i64 + 1) * ROUND
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn sharded_server_partitions_keys_and_converges_per_group() {
    const SHARDS: usize = 4;
    let (server, addr) = start(ServerConfig {
        shards: SHARDS,
        window: 64,
        ..ServerConfig::default()
    });
    let router = server.router();
    let mut client = connect(&addr);

    // a pipelined mixed burst over enough keys to hit every shard
    const OPS: u64 = 48;
    let mut expected: HashMap<String, i64> = HashMap::new();
    let mut outstanding = 0u64;
    for i in 0..OPS {
        let level = if i % 6 == 5 {
            Level::Strong
        } else {
            Level::Weak
        };
        let key = format!("shard-key-{}", i % 16);
        expected.insert(key.clone(), i as i64);
        client.send(level, KvOp::put(key, i as i64)).expect("send");
        outstanding += 1;
    }
    for _ in 0..outstanding {
        let (tag, reply) = client.recv().expect("response");
        assert!(matches!(reply, Reply::Ok(_)), "op {tag} failed: {reply:?}");
    }
    // a strong read through the router-addressed group observes the
    // last committed write of its key
    let reply = client
        .call(Level::Strong, KvOp::get("shard-key-15"))
        .expect("strong get");
    assert_eq!(reply, Reply::Ok(Value::Int(47)));

    assert_eq!(server.shed_count(), 0, "nothing shed under light load");
    let hosts = server.stop();
    assert_eq!(hosts.len(), 3);
    assert_eq!(hosts[0].group_count(), SHARDS);

    // every key lives in exactly the group the router names, groups
    // agree across replicas, and the union over groups is the full map
    let mut union: HashMap<String, i64> = HashMap::new();
    for g in 0..SHARDS {
        let gid = GroupId::new(g as u32);
        let state = hosts[0].group(gid).materialize();
        for host in &hosts[1..] {
            assert_eq!(host.group(gid).materialize(), state, "group {g} diverged");
            assert!(host.group(gid).tentative_ids().is_empty());
        }
        for (key, value) in &state {
            assert_eq!(
                router.route(Some(key)),
                gid,
                "key {key:?} landed in group {g}, not its routed group"
            );
            assert!(
                union.insert(key.clone(), *value).is_none(),
                "key {key:?} present in more than one group"
            );
        }
    }
    assert_eq!(
        union, expected,
        "union over groups must be exactly the written map"
    );
}

#[test]
fn leased_strong_reads_stay_fresh_across_leader_failover() {
    // leases armed: strong reads route to the presumed leaseholder and
    // are served locally once its lease holds. Crashing the leader must
    // never yield a stale strong read — the next leader serves through
    // the full TOB round until its own lease is quorum-acked.
    let (server, addr) = start(ServerConfig {
        lease: Some(LeaseConfig::new(200_000, 20_000)),
        ..ServerConfig::default()
    });
    let mut client = connect(&addr);

    let reply = client
        .call(Level::Strong, KvOp::put("k", 1))
        .expect("strong put");
    assert!(matches!(reply, Reply::Ok(_)), "put: {reply:?}");
    // give replica 0 time to win phase 1 and get a lease quorum-acked,
    // so at least some of these reads take the local fast path
    std::thread::sleep(Duration::from_millis(300));
    for _ in 0..8 {
        let reply = client.call(Level::Strong, KvOp::get("k")).expect("read");
        assert_eq!(reply, Reply::Ok(Value::Int(1)), "leased read went stale");
    }

    // kill the (presumed) leaseholder mid-lease; commit a newer value
    // through the surviving quorum and read it back strongly — the
    // failover leader has no lease yet, so this exercises the typed
    // fallback, and freshness must hold throughout
    server.crash_replica(ReplicaId::new(0));
    let reply = client
        .call(Level::Strong, KvOp::put("k", 2))
        .expect("failover put");
    assert!(matches!(reply, Reply::Ok(_)), "failover put: {reply:?}");
    for _ in 0..8 {
        let reply = client.call(Level::Strong, KvOp::get("k")).expect("read");
        assert_eq!(
            reply,
            Reply::Ok(Value::Int(2)),
            "stale strong read after failover"
        );
    }
    // and again once the new leader has had time to acquire its lease
    std::thread::sleep(Duration::from_millis(300));
    let reply = client.call(Level::Strong, KvOp::get("k")).expect("read");
    assert_eq!(reply, Reply::Ok(Value::Int(2)));
    server.stop();
}

#[test]
fn guarded_read_with_unreachable_floor_is_refused_with_typed_retry() {
    // a guard whose monotonic-reads floor is beyond anything the run
    // commits: the replica must refuse with the typed cursor (and never
    // execute the read), not block or return a possibly-stale value
    let (server, addr) = start(ServerConfig::default());
    let mut client = connect(&addr);

    let reply = client
        .call(Level::Weak, KvOp::put("g", 7))
        .expect("weak put");
    assert!(matches!(reply, Reply::Ok(_)));

    let guard = ReadGuard {
        session: 7,
        min_seq: 0,
        min_commit: 1_000_000,
    };
    let tag = client
        .send_guarded(guard, KvOp::get("g"))
        .expect("guarded send");
    let (got, reply) = client.recv().expect("guarded reply");
    assert_eq!(got, tag);
    let Reply::Retry {
        seen_seq: _,
        committed,
    } = reply
    else {
        panic!("expected a typed Retry, got {reply:?}");
    };
    assert!(
        committed < 1_000_000,
        "the cursor reports how far the replica actually got"
    );
    server.stop();
}

#[test]
fn session_reads_observe_the_sessions_writes_across_replicas() {
    // read-your-writes through the server's session-cursor table: the
    // write lands on connection A's replica, the guarded read goes to
    // connection B's (a different, sticky follower), which serves it
    // only once anti-entropy has caught it up to the session's floor —
    // until then the session loop absorbs typed Retry refusals
    let (server, addr) = start(ServerConfig::default());
    let mut writer = connect(&addr); // conn 0 -> replica 0
    let mut reader = connect(&addr); // conn 1 -> replica 1

    const SESSION: u64 = 42;
    {
        let mut s = Session::new(&mut writer, SESSION);
        for i in 0..4 {
            let reply = s.write(KvOp::put("ryw", i)).expect("session write");
            assert!(matches!(reply, Reply::Ok(_)), "write {i}: {reply:?}");
        }
    }
    let mut s = Session::new(&mut reader, SESSION);
    let reply = s.read(KvOp::get("ryw")).expect("session read");
    assert_eq!(
        reply,
        Reply::Ok(Value::Int(3)),
        "session read missed the session's own last write"
    );
    server.stop();
}

#[test]
fn malformed_frame_closes_only_that_connection() {
    use std::io::Write;
    let (server, addr) = start(ServerConfig::default());

    // a raw socket writes a frame whose payload is garbage
    let mut raw = std::net::TcpStream::connect(&addr).expect("connect");
    let garbage = [0xFFu8; 16];
    raw.write_all(&(garbage.len() as u32).to_le_bytes())
        .expect("header");
    raw.write_all(&garbage).expect("payload");
    // server closes this connection...
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 1];
    let n = std::io::Read::read(&mut raw, &mut buf).unwrap_or(0);
    assert_eq!(n, 0, "connection closed after malformed frame");

    // ...while a well-behaved connection is unaffected
    let mut client = connect(&addr);
    let reply = client
        .call(Level::Weak, KvOp::put("still-serving", 1))
        .expect("well-formed op after another conn was dropped");
    assert!(matches!(reply, Reply::Ok(_)));
    server.stop();
}

#[test]
fn a_client_that_stops_reading_costs_only_its_own_connection() {
    let (server, addr) = start(ServerConfig::default());
    // connection A (home: replica 0, the presumed Paxos leader) stores a
    // ~256 KB key — the store's values are integers, so the bulk rides
    // in a key — then pipelines weak `keys()` reads, each answered with
    // that key, and never reads a reply: its socket buffers fill within
    // a few dozen replies
    let mut a = connect(&addr);
    let big = "x".repeat(256 * 1024);
    let reply = a.call(Level::Weak, KvOp::put(big, 1)).expect("big put");
    assert!(matches!(reply, Reply::Ok(_)), "big put: {reply:?}");
    for _ in 0..256 {
        a.send(Level::Weak, KvOp::Keys).expect("pipelined read");
    }

    // connection B keeps being served, weak ops on replica 1 and strong
    // ones through replica 0's Paxos rounds, each within 2 s
    let mut b = connect(&addr);
    b.set_recv_timeout(Some(Duration::from_secs(2)))
        .expect("set timeout");
    for i in 0..40 {
        let level = if i % 2 == 0 {
            Level::Weak
        } else {
            Level::Strong
        };
        let reply = b
            .call(level, KvOp::put("b", i))
            .unwrap_or_else(|e| panic!("op {i} ({level:?}) stalled behind a slow reader: {e}"));
        assert!(matches!(reply, Reply::Ok(_)), "op {i}: {reply:?}");
    }

    // A was closed: what was written drains, then the stream ends (a
    // close or a reset), rather than the read timing out
    a.set_recv_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    let end = loop {
        if let Err(e) = a.recv() {
            break e;
        }
    };
    assert!(
        !matches!(
            end.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ),
        "connection A is still open: {end}"
    );
    server.stop();
}

#[test]
fn replies_from_two_replica_threads_share_one_connection_whole() {
    // leases on: strong gets go to the leader (replica 0) while puts
    // stay on the connection's home, so two replicas' wakes write
    // replies to one socket at once
    let (server, addr) = start(ServerConfig {
        lease: Some(LeaseConfig::new(200_000, 20_000)),
        window: 1024,
        ..ServerConfig::default()
    });
    let _home_0 = connect(&addr);
    let mut client = connect(&addr);
    // the second connection's home is replica 1; let replica 0 get its
    // lease, so most strong gets are answered at once and their replies
    // interleave densely with the puts'
    std::thread::sleep(Duration::from_millis(300));

    const OPS: i64 = 500;
    let mut unanswered: HashSet<u64> = (0..OPS)
        .map(|i| {
            let (level, op) = if i % 2 == 0 {
                (Level::Strong, KvOp::get(format!("k{}", i % 16)))
            } else {
                (Level::Weak, KvOp::put(format!("k{}", i % 16), i))
            };
            client.send(level, op).expect("send")
        })
        .collect();
    for _ in 0..OPS {
        // recv fails on a frame that does not decode
        let (tag, reply) = client.recv().expect("a whole reply frame");
        assert!(
            unanswered.remove(&tag),
            "tag {tag} unknown or answered twice"
        );
        assert!(matches!(reply, Reply::Ok(_)), "op {tag}: {reply:?}");
    }
    assert!(unanswered.is_empty(), "unanswered: {unanswered:?}");
    assert_eq!(server.shed_count(), 0, "nothing shed");
    server.stop();
}
