//! Round-trip regression for the serving path: sequential weak and
//! strong operations through a 3-replica `Server` over loopback TCP,
//! with nothing else running — on in-memory replicas, and on file-backed
//! ones configured as the benchmark runs them.
//!
//! A weak operation is one wake-up of the connection's reader thread,
//! which runs the wake of its home replica itself — writing the reply
//! before the wake's frames reach the peers — and one wake-up of the
//! client; a strong one adds the broadcast round, which the reader runs
//! too when no other thread holds the replicas. So
//! the medians are the server's fixed cost per operation above
//! `crates/net/tests/wake_latency.rs`. Connection `i` is homed on
//! replica `i`: the first on the leader, the second on a follower. Since
//! an acceptor learns a slot on its `Accept`, a strong op commits two
//! hops after it is invoked from either home: `Accept` + `Accepted` at
//! the leader, `Submit` + `Accept` at a follower. On the 2-vCPU host
//! this was measured on (medians of ten runs each), weak 49 µs and
//! strong 86 µs from the leader's connection when their bounds were set
//! (70 µs and 102 µs while a dispatcher thread sat between the replicas
//! and the sockets); in a later set, weak 53 µs and strong 81 µs, and
//! strong from the follower's connection 96 µs (108 µs while it waited
//! for the leader's `Decide`). Each bound is twice the median it was set
//! from. Once the reader ran the wakes itself, with no replica thread to
//! wake per hop, one run gave weak 20 µs, strong 18 µs and strong from
//! the follower 19 µs (file-backed: 17, 14 and 15 µs).
//!
//! Timing-sensitive, so `#[ignore]`; CI runs it in release:
//! `cargo test --release -p bayou-server --test round_trip -- --ignored`.

use bayou_data::KvOp;
use bayou_server::{run_load, Client, LoadConfig, Reply, Server, ServerConfig};
use bayou_storage::StoreConfig;
use bayou_types::Level;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Median latency of `count` sequential `call`s at `level`.
fn median_round_trip(client: &mut Client, level: Level, count: usize) -> Duration {
    let mut latencies: Vec<Duration> = (0..count)
        .map(|i| {
            let op = KvOp::put(format!("k{}", i % 16), i as i64);
            let sent = Instant::now();
            let reply = client.call(level, op).expect("the operation is answered");
            let took = sent.elapsed();
            assert!(matches!(reply, Reply::Ok(_)), "op {i}: {reply:?}");
            took
        })
        .collect();
    latencies.sort_unstable();
    latencies[count / 2]
}

/// A connection with its set-up done: one strong op answered, so the
/// server accepted it (and numbered it) before the next one connects,
/// and leader election and lazy set-up are not what is timed.
fn warm_client(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).expect("client connects");
    client
        .set_recv_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    median_round_trip(&mut client, Level::Strong, 5);
    client
}

/// One server at a time: the tests of this file would otherwise time
/// each other.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// The benchmark's file-backed server: records are written every wake
/// but fsynced only at segment and snapshot boundaries, a snapshot every
/// 1024 commits.
fn file_backed(dir: &std::path::Path) -> ServerConfig {
    ServerConfig {
        data_dir: Some(dir.to_path_buf()),
        store: StoreConfig {
            sync_every_record: false,
            snapshot_every: 1024,
            ..StoreConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// Weak, strong and follower-strong medians through a server started
/// with `config`.
fn server_medians(config: ServerConfig) -> (Duration, Duration, Duration) {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let server = Server::start(config).expect("server starts");
    let mut at_leader = warm_client(server.local_addr());
    let mut at_follower = warm_client(server.local_addr());

    let weak = median_round_trip(&mut at_leader, Level::Weak, 400);
    let strong = median_round_trip(&mut at_leader, Level::Strong, 100);
    let follower_strong = median_round_trip(&mut at_follower, Level::Strong, 100);
    drop((at_leader, at_follower));
    server.stop();
    println!(
        "weak median {weak:?}, strong median {strong:?}, \
         strong median from a follower {follower_strong:?}"
    );
    (weak, strong, follower_strong)
}

#[test]
#[ignore = "timing-sensitive: run in release on a quiet host"]
fn sequential_round_trips_through_the_server() {
    let (weak, strong, follower_strong) = server_medians(ServerConfig::default());
    assert!(weak < Duration::from_micros(99), "weak median {weak:?}");
    assert!(
        strong < Duration::from_micros(172),
        "strong median {strong:?}"
    );
    assert!(
        follower_strong < Duration::from_micros(192),
        "strong median from a follower {follower_strong:?}"
    );
}

/// The same round trips through file-backed replicas configured as the
/// benchmark runs them: records are written every step but fsynced only
/// at segment and snapshot boundaries (`sync_every_record: false`), a
/// snapshot every 1024 commits. What this adds over the in-memory server
/// is the store's CPU in the replicas' wakes and one `write(2)` per
/// replica wake. Medians of ten runs on the 2-vCPU host, when the store stopped
/// mirroring the replica and began writing once per step: weak 46.9 µs,
/// strong 72.9 µs, strong from a follower 90.0 µs (the in-memory server
/// in the same runs: 37.7, 64.3 and 76.8 µs). Each bound is twice its
/// median.
#[test]
#[ignore = "timing-sensitive: run in release on a quiet host"]
fn sequential_round_trips_through_a_file_backed_server() {
    let dir = std::env::temp_dir().join(format!("bayou-round-trip-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (weak, strong, follower_strong) = server_medians(file_backed(&dir));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(weak < Duration::from_micros(94), "weak median {weak:?}");
    assert!(
        strong < Duration::from_micros(146),
        "strong median {strong:?}"
    );
    assert!(
        follower_strong < Duration::from_micros(180),
        "strong median from a follower {follower_strong:?}"
    )
}

/// The hop ledger: the serving path's system calls per answered
/// operation — WAL `write(2)`s, reply `write(2)`s and request `read(2)`s
/// — and the replicas' peer frames and wakes
/// ([`Server::hop_counts`]), on the file-backed
/// server, under pipelined loads shaped like the benchmark's: two
/// connections with two operations in flight each, all weak but every
/// 100th op (`weak_closed`), every 8th strong (`mixed_closed`), and every
/// 8th strong paced open-loop at 1500 ops/s (`mixed_open`). Prints the
/// ledger; asserts only that every path was counted.
#[test]
#[ignore = "a measurement: run in release and read the output"]
fn hop_ledger_of_pipelined_loads() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let loads = [
        ("weak_closed", 100, None, 20_000),
        ("mixed_closed", 8, None, 20_000),
        ("mixed_open", 8, Some(1500.0), 6_000),
    ];
    for (name, strong_every, rate, ops) in loads {
        let dir = std::env::temp_dir().join(format!("bayou-hops-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::start(file_backed(&dir)).expect("server starts");
        let report = run_load(&LoadConfig {
            addr: server.local_addr().to_string(),
            conns: 2,
            ops,
            window: 2,
            strong_every,
            rate,
            seed: 5,
            ..LoadConfig::default()
        })
        .expect("the load runs");
        let hops = server.hop_counts();
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
        let per_op = |calls: u64| calls as f64 / report.oks as f64;
        println!(
            "{name}: {} ops answered; per op: WAL writes {:.2}, reply writes {:.2}, \
             request reads {:.2}, peer frames {:.2}, wakes {:.2}",
            report.oks,
            per_op(hops.wal_writes),
            per_op(hops.reply_writes),
            per_op(hops.request_reads),
            per_op(hops.peer_frames),
            per_op(hops.wakes)
        );
        assert!(report.oks > 0, "{name}: no op answered");
        assert!(
            hops.wal_writes > 0
                && hops.reply_writes > 0
                && hops.request_reads > 0
                && hops.peer_frames > 0
                && hops.wakes > 0,
            "{name}: {hops:?}"
        );
    }
}
