//! Round-trip regression for the serving path: sequential weak and
//! strong operations from one connection through an in-memory
//! 3-replica `Server` over loopback TCP, with nothing else running.
//!
//! A weak operation is one wake-up of the connection's reader thread,
//! one step of its home replica — which writes the reply itself — and
//! one wake-up of the client; a strong one adds the broadcast round. So
//! the medians are the server's fixed cost per operation above
//! `crates/net/tests/wake_latency.rs`. On the 2-vCPU host this was last
//! measured on (medians of ten runs each), weak 49 µs and strong 86 µs;
//! when a dispatcher thread sat between the replicas and the sockets,
//! 70 µs and 102 µs. The bounds are twice the former.
//!
//! Timing-sensitive, so `#[ignore]`; CI runs it in release:
//! `cargo test --release -p bayou-server --test round_trip -- --ignored`.

use bayou_data::KvOp;
use bayou_server::{Client, Reply, Server, ServerConfig};
use bayou_types::Level;
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

#[test]
#[ignore = "timing-sensitive: run in release on a quiet host"]
fn sequential_round_trips_through_the_server() {
    let server = Server::start(ServerConfig::default()).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    client
        .set_recv_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    // leader election and lazy set-up are not what is timed
    median_round_trip(&mut client, Level::Strong, 5);

    let weak = median_round_trip(&mut client, Level::Weak, 400);
    let strong = median_round_trip(&mut client, Level::Strong, 100);
    drop(client);
    server.stop();
    println!("weak median {weak:?}, strong median {strong:?}");
    assert!(weak < Duration::from_micros(99), "weak median {weak:?}");
    assert!(
        strong < Duration::from_micros(172),
        "strong median {strong:?}"
    );
}
