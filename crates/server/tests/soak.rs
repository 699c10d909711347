//! The long-haul gate: one durable server, a closed loop of clients, and
//! replica 0 killed and restarted once a minute. Nothing the replicas
//! retain may grow with the operations served, so the last minute must
//! serve as fast as the first and the process must be no bigger.
//!
//! Ignored by default (it runs ten minutes):
//!
//! ```text
//! cargo test --release -p bayou-server --test soak -- --ignored --nocapture
//! ```
//!
//! `SOAK_MINUTES` shortens or lengthens the run (at least 2 minutes).
//! It prints one line per minute: operations answered `Ok` per second
//! and the process's resident set.

use bayou_data::KvOp;
use bayou_server::{Client, Reply, Server, ServerConfig};
use bayou_storage::StoreConfig;
use bayou_types::{Level, ReplicaId};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Closed-loop client connections, one operation in flight each.
const CLIENTS: usize = 4;
/// Keys the clients write: the state stays this size.
const KEYS: u64 = 1_000;
/// How long replica 0 stays down each minute.
const DOWNTIME: Duration = Duration::from_millis(200);

/// The process's resident set in KiB (`VmRSS` of `/proc/self/status`).
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS line")
}

/// One client's closed loop: weak puts over the key space with a strong
/// put every 100th, until `stop`; every `Ok` counts toward the minute it
/// arrived in.
fn client_loop(
    addr: String,
    c: u64,
    start: Instant,
    oks: Arc<Vec<AtomicU64>>,
    stop: Arc<AtomicBool>,
) {
    let mut client = Client::connect(&addr).expect("client connects");
    client
        .set_recv_timeout(Some(Duration::from_secs(20)))
        .expect("set timeout");
    let mut i = 0u64;
    while !stop.load(Ordering::Relaxed) {
        i += 1;
        let level = if i.is_multiple_of(100) {
            Level::Strong
        } else {
            Level::Weak
        };
        let key = format!("k{}", (c * 7_919 + i) % KEYS);
        match client.call(level, KvOp::put(key, i as i64)) {
            Ok(Reply::Ok(_)) => {
                let minute = (start.elapsed().as_secs() / 60) as usize;
                if let Some(n) = oks.get(minute) {
                    n.fetch_add(1, Ordering::Relaxed);
                }
            }
            // typed outcomes of the kills (`Err`) or of overload (`Busy`)
            Ok(_) => {}
            Err(e) => panic!("client {c}: {e}"),
        }
    }
}

#[test]
#[ignore = "runs for ten minutes; see the module docs"]
fn a_server_killed_every_minute_holds_throughput_and_memory() {
    let minutes: usize = std::env::var("SOAK_MINUTES")
        .ok()
        .and_then(|m| m.parse().ok())
        .unwrap_or(10)
        .max(2);
    let root = std::env::temp_dir().join(format!("bayou-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = Server::start(ServerConfig {
        data_dir: Some(root.clone()),
        store: StoreConfig {
            sync_every_record: false,
            ..ServerConfig::default().store
        },
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr().to_string();

    let start = Instant::now();
    let oks: Arc<Vec<AtomicU64>> = Arc::new((0..minutes).map(|_| AtomicU64::new(0)).collect());
    let stop = Arc::new(AtomicBool::new(false));
    let clients: Vec<_> = (0..CLIENTS as u64)
        .map(|c| {
            let (addr, oks, stop) = (addr.clone(), Arc::clone(&oks), Arc::clone(&stop));
            std::thread::spawn(move || client_loop(addr, c, start, oks, stop))
        })
        .collect();

    let mut rss_kib = Vec::with_capacity(minutes);
    let r0 = ReplicaId::new(0);
    for minute in 0..minutes as u64 {
        // one kill and restart in the middle of every minute
        let at = |s: u64| start + Duration::from_secs(60 * minute + s);
        std::thread::sleep(at(30).saturating_duration_since(Instant::now()));
        server.crash_replica(r0);
        std::thread::sleep(DOWNTIME);
        server.restart_replica(r0);
        std::thread::sleep(at(60).saturating_duration_since(Instant::now()));
        rss_kib.push(vm_rss_kib());
        let ok = oks[minute as usize].load(Ordering::Relaxed);
        println!(
            "minute {:>2}: {:>7.0} ok/s, VmRSS {:>6.1} MB",
            minute + 1,
            ok as f64 / 60.0,
            rss_kib[minute as usize] as f64 / 1024.0
        );
    }
    stop.store(true, Ordering::Relaxed);
    for c in clients {
        c.join().expect("client thread");
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&root);

    let first = oks[0].load(Ordering::Relaxed) as f64;
    let last = oks[minutes - 1].load(Ordering::Relaxed) as f64;
    assert!(
        last >= 0.9 * first,
        "throughput fell: {first} ok in the first minute, {last} in the last"
    );
    let (rss_first, rss_last) = (rss_kib[0] as f64, rss_kib[minutes - 1] as f64);
    assert!(
        (rss_last - rss_first).abs() <= 0.2 * rss_first,
        "VmRSS moved from {rss_first} KiB after the first minute to {rss_last} KiB"
    );
}
