//! One round of an end-to-end run: a fresh in-process server, the
//! workload driven over loopback TCP, and everything the correctness
//! gate and the metrics need collected before the server's state is
//! thrown away. A run is several rounds (`main.rs`): this server slows
//! as its history grows, so a longer measurement is more rounds, not a
//! longer one.

use crate::driver::{closed_loop, open_loop, ClosedLoop, Conn, ConnLog, Record, RunCtl, DRAIN};
use crate::workload::{self, Op, Pacing, Spec, CONNS};
use bayou_data::KvOp;
use bayou_server::{Reply, Server, ServerConfig};
use bayou_storage::StoreConfig;
use bayou_types::{GroupId, LeaseConfig, Level, ReplicaId};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Where a run keeps what it writes: replica data directories while it
/// runs, span files and result lines after. Inside the checkout, and
/// ignored by git.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn fresh_data_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    out_dir().join(format!(
        "data-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Keys the benchmark writes outside the measured stream (warm-up and
/// the closing barrier); the gate ignores them.
pub const AUX_KEY_PREFIX: &str = "aux";

/// What the server's replicas keep their state in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Replicas {
    /// `data_dir: None` (the ladder's rung 7).
    Memory,
    /// `FileStorage` with the device off the blocking path: no `fsync`
    /// per replica step (`sync_every_record: false`) and a snapshot
    /// every [`SNAPSHOT_EVERY`] commits, not every 64. Every WAL
    /// append, rotation, snapshot and recovery still runs against real
    /// files. The end-to-end runs: the sandbox's disk is shared, and its
    /// `fsync` time swings between 150 and 300 us over minutes, which
    /// moved every latency and throughput of a default-configured run by
    /// a quarter to a third (see the README).
    Files,
    /// `FileStorage` as `StoreConfig::default()` has it: one `fsync` per
    /// replica step, a snapshot every 64 commits (the ladder's rung 8).
    FilesSynced,
}

/// Commits between snapshots in the end-to-end rounds: a handful of
/// snapshots a round, so that the code runs and the device's speed
/// does not set the result.
const SNAPSHOT_EVERY: u64 = 1024;

/// What a round needs to know beyond the workload.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub spec: &'static Spec,
    /// Seeds this round's operations and arrival times.
    pub seed: u64,
    /// Round length in tenths of a second.
    pub tenths: u64,
    pub traced: bool,
    pub replicas: Replicas,
    /// Whether a crashing workload's faults are injected.
    pub faults: bool,
}

/// What the data directory held after `Server::stop`.
#[derive(Debug, Default, Clone, Copy)]
pub struct Disk {
    pub total_bytes: u64,
    pub snapshot_bytes: u64,
    pub wal_segments: u64,
}

/// Everything observed in one round.
pub struct EndToEnd {
    pub spec: &'static Spec,
    /// Per connection, the stream as far as it was sent:
    /// `logs[c].records[i]` is what happened to `ops[c][i]`.
    pub ops: Vec<Vec<Op>>,
    pub logs: Vec<ConnLog>,
    pub setup_s: f64,
    pub shed_count: u64,
    /// Each replica's materialized map and tentative-id count after the
    /// settle and `Server::stop`.
    pub finals: Vec<(BTreeMap<String, i64>, usize)>,
    pub disk: Disk,
    /// (crash, restart) of replica 0, nanoseconds since the start.
    pub faults: Vec<(u64, u64)>,
    /// When the closing barrier was back on every connection: the
    /// server had committed everything it acknowledged.
    pub committed_ns: u64,
    /// The replicas' directory, left for the recovery rung; the caller
    /// removes it.
    pub data_dir: Option<PathBuf>,
}

impl EndToEnd {
    /// The part `from..to` (as shares of each connection's stream) of
    /// the records, with their operations.
    pub fn part(&self, from: f64, to: f64) -> impl Iterator<Item = (&Op, &Record)> {
        self.ops.iter().zip(&self.logs).flat_map(move |(ops, log)| {
            let cut = |share: f64| (ops.len() as f64 * share) as usize;
            let range = cut(from)..cut(to);
            ops[range.clone()].iter().zip(&log.records[range])
        })
    }

    /// Every record of every connection.
    pub fn all(&self) -> impl Iterator<Item = (&Op, &Record)> {
        self.part(0.0, 1.0)
    }
}

fn server_config(spec: &Spec, replicas: Replicas, data_dir: Option<PathBuf>) -> ServerConfig {
    ServerConfig {
        data_dir,
        lease: spec.lease.then(|| LeaseConfig::new(400_000, 40_000)),
        store: match replicas {
            Replicas::Files => StoreConfig {
                sync_every_record: false,
                snapshot_every: SNAPSHOT_EVERY,
                ..StoreConfig::default()
            },
            Replicas::Memory | Replicas::FilesSynced => StoreConfig::default(),
        },
        ..ServerConfig::default()
    }
}

fn expect_ok(reply: Reply, what: &str) -> io::Result<()> {
    match reply {
        Reply::Ok(_) => Ok(()),
        other => Err(io::Error::other(format!("{what}: {other:?}"))),
    }
}

/// Server start, connect, and 200 weak plus 20 strong warm-up operations:
/// what a user pays before the first request can be timed.
fn set_up(
    spec: &Spec,
    replicas: Replicas,
    data_dir: Option<PathBuf>,
) -> io::Result<(Server, Vec<Conn>, f64)> {
    let t0 = Instant::now();
    let server = Server::start(server_config(spec, replicas, data_dir))?;
    let mut conns = (0..CONNS)
        .map(|_| Conn::connect(server.local_addr()))
        .collect::<io::Result<Vec<_>>>()?;
    for (c, conn) in conns.iter_mut().enumerate() {
        for i in 0..110 {
            let key = format!("{AUX_KEY_PREFIX}-warm{}", i % 8 * CONNS + c);
            let level = if i % 11 == 10 {
                Level::Strong
            } else {
                Level::Weak
            };
            let op = if i % 2 == 0 {
                KvOp::put(key, i as i64)
            } else {
                KvOp::get(key)
            };
            expect_ok(conn.call(level, op)?, "warm-up")?;
        }
    }
    Ok((server, conns, t0.elapsed().as_secs_f64()))
}

fn list_disk(root: &Path) -> Disk {
    let mut disk = Disk::default();
    let Ok(replicas) = std::fs::read_dir(root) else {
        return disk;
    };
    for replica in replicas.flatten() {
        let Ok(files) = std::fs::read_dir(replica.path()) else {
            continue;
        };
        for file in files.flatten() {
            let len = file.metadata().map(|m| m.len()).unwrap_or(0);
            let name = file.file_name().to_string_lossy().into_owned();
            disk.total_bytes += len;
            if name.contains("snap-") {
                disk.snapshot_bytes += len;
            } else if name.contains("wal-") {
                disk.wal_segments += 1;
            }
        }
    }
    disk
}

/// Runs one round of the workload against a fresh server.
pub fn run(p: Params) -> io::Result<EndToEnd> {
    let spec = p.spec;
    // an open loop gives each connection its half of the schedule; the
    // connections of a closed loop share the count, so each needs a
    // stream that could cover all of it
    let total = spec.total_ops(p.tenths);
    let per_conn = match spec.pacing {
        Pacing::Open { .. } => total / CONNS,
        Pacing::Closed { .. } => total,
    };
    let mut ops: Vec<Vec<Op>> = (0..CONNS)
        .map(|c| workload::generate(spec, p.seed, c, per_conn))
        .collect();

    let dues: Vec<Vec<u64>> = match spec.pacing {
        Pacing::Open { .. } => (0..CONNS)
            .map(|c| workload::due_times(spec, p.seed, c, per_conn))
            .collect(),
        Pacing::Closed { .. } => vec![Vec::new(); CONNS],
    };

    let data_dir = (p.replicas != Replicas::Memory).then(fresh_data_dir);
    let (server, mut conns, setup_s) = set_up(spec, p.replicas, data_dir.clone())?;

    let ctl = RunCtl {
        start: Instant::now() + Duration::from_millis(20),
        drain: DRAIN,
        traced: p.traced,
    };
    let span_ns = p.tenths * 100_000_000;
    let budget = AtomicUsize::new(total);
    let mut faults = Vec::new();
    let logs = std::thread::scope(|scope| -> io::Result<Vec<ConnLog>> {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(ops.iter().zip(&dues))
            .enumerate()
            .map(|(c, (conn, (ops, due)))| {
                let budget = &budget;
                scope.spawn(move || match spec.pacing {
                    Pacing::Open { .. } => open_loop(conn, c, ops, due, ctl),
                    Pacing::Closed { window, fenced, .. } => {
                        let how = ClosedLoop {
                            window,
                            fenced,
                            budget,
                        };
                        closed_loop(conn, c, ops, how, ctl)
                    }
                })
            })
            .collect();
        if spec.crash && p.faults {
            // two cycles: down for a fifth of the round, up for a fifth
            let leader = ReplicaId::new(0);
            let at = |tenth: u64| ctl.start + Duration::from_nanos(span_ns / 10 * tenth);
            for cycle in 0..2 {
                std::thread::sleep(at(4 * cycle + 1).saturating_duration_since(Instant::now()));
                server.crash_replica(leader);
                let down = ctl.start.elapsed().as_nanos() as u64;
                std::thread::sleep(at(4 * cycle + 3).saturating_duration_since(Instant::now()));
                server.restart_replica(leader);
                faults.push((down, ctl.start.elapsed().as_nanos() as u64));
            }
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| io::Error::other("driver thread panicked"))?
            })
            .collect()
    })?;

    // a strong put per connection commits behind everything that
    // connection's replica has cast: when both are back, the server has
    // committed all it acknowledged. Weak replies can run far ahead of
    // that, so throughput is counted to this instant.
    for (c, conn) in conns.iter_mut().enumerate() {
        let barrier = KvOp::put(format!("{AUX_KEY_PREFIX}-end{c}"), 0);
        expect_ok(conn.call(Level::Strong, barrier)?, "closing barrier")?;
    }
    let committed_ns = ctl.start.elapsed().as_nanos() as u64;

    for (ops, log) in ops.iter_mut().zip(&logs) {
        ops.truncate(log.records.len());
    }
    // the replicas get a moment to deliver each other's tails
    std::thread::sleep(Duration::from_millis(300));

    let shed_count = server.shed_count();
    drop(conns);
    let finals = server
        .stop()
        .iter()
        .map(|host| {
            let group = host.group(GroupId::new(0));
            (group.materialize(), group.tentative_ids().len())
        })
        .collect();
    let disk = data_dir.as_deref().map(list_disk).unwrap_or_default();
    Ok(EndToEnd {
        spec,
        ops,
        logs,
        setup_s,
        shed_count,
        finals,
        disk,
        faults,
        committed_ns,
        data_dir,
    })
}
