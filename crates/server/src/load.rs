//! The load generator: drives a running server over TCP and reports
//! real wall-clock throughput and latency quantiles.
//!
//! Two modes:
//!
//! * **closed loop** ([`LoadConfig::rate`] `None`): each connection
//!   keeps up to [`LoadConfig::window`] operations in flight and sends
//!   the next as soon as a response retires one — throughput is what
//!   the server sustains at that concurrency;
//! * **open loop** (`rate` set): sends are paced at a fixed aggregate
//!   rate regardless of responses (a receiver thread per connection
//!   drains them), so latency includes queueing when the server falls
//!   behind — the coordinated-omission-free measurement.
//!
//! The weak/strong mix is controlled by [`LoadConfig::strong_every`],
//! key popularity by the [`LoadConfig::skew`] power transform.
//! Latencies land in a fixed-bucket [`Histogram`] (nanoseconds),
//! merged across connections.

use crate::client::Client;
use crate::hist::Histogram;
use crate::protocol::Reply;
use bayou_data::KvOp;
use bayou_types::Level;
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Load-run configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent connections.
    pub conns: usize,
    /// Total operations across all connections.
    pub ops: u64,
    /// Closed-loop in-flight window per connection.
    pub window: usize,
    /// Every `strong_every`-th op per connection is strong (0 = all
    /// weak).
    pub strong_every: u64,
    /// Read-heavy mix: with `read_every = N > 0`, every op is a `get`
    /// except each `N`-th, which is a `put` (so `N = 10` is a 90%-read
    /// workload). `0` keeps the legacy unbiased put/get coin flip.
    pub read_every: u64,
    /// Key-space size.
    pub keys: u64,
    /// Key-skew exponent: key = `⌊keys · u^skew⌋` for uniform `u`.
    /// `1.0` is uniform; larger concentrates traffic on low keys.
    pub skew: f64,
    /// Open-loop aggregate send rate in ops/sec (`None` = closed loop).
    pub rate: Option<f64>,
    /// RNG seed (per-connection streams derive from it).
    pub seed: u64,
    /// Shard count of the server under test — an annotation carried
    /// into [`LoadReport::json_record`] so archived rows are
    /// self-describing. The generator itself never routes: keys hash to
    /// groups server-side, so the workload is shard-oblivious.
    pub shards: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            addr: "127.0.0.1:4600".into(),
            conns: 8,
            ops: 10_000,
            window: 16,
            strong_every: 8,
            read_every: 0,
            keys: 64,
            skew: 1.0,
            rate: None,
            seed: 1,
            shards: 1,
        }
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Operations sent.
    pub sent: u64,
    /// Operations answered with a value.
    pub oks: u64,
    /// Operations shed with [`Reply::Busy`].
    pub busy: u64,
    /// Operations answered with [`Reply::Err`].
    pub errors: u64,
    /// Guarded reads refused with a typed [`Reply::Retry`] cursor.
    pub retries: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Completed (ok) operations per wall-clock second.
    pub throughput: f64,
    /// Merged latency histogram (nanoseconds, send to response).
    pub hist: Histogram,
}

impl LoadReport {
    /// A latency quantile in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.hist.quantile(q) as f64 / 1_000.0
    }

    /// One `BENCH_PR7.json`-style record: a flat JSON object with a
    /// group, a name and numeric fields.
    pub fn json_record(&self, group: &str, name: &str, cfg: &LoadConfig) -> String {
        format!(
            concat!(
                "{{\"group\": \"{}\", \"name\": \"{}\", ",
                "\"throughput_ops_per_sec\": {:.1}, ",
                "\"p50_us\": {:.1}, \"p99_us\": {:.1}, \"p999_us\": {:.1}, ",
                "\"max_us\": {:.1}, \"elapsed_secs\": {:.3}, ",
                "\"ops\": {}, \"oks\": {}, \"busy\": {}, \"errors\": {}, ",
                "\"retries\": {}, ",
                "\"conns\": {}, \"window\": {}, \"strong_every\": {}, ",
                "\"read_every\": {}, \"shards\": {}}}"
            ),
            group,
            name,
            self.throughput,
            self.quantile_us(0.5),
            self.quantile_us(0.99),
            self.quantile_us(0.999),
            self.hist.max() as f64 / 1_000.0,
            self.elapsed.as_secs_f64(),
            self.sent,
            self.oks,
            self.busy,
            self.errors,
            self.retries,
            cfg.conns,
            cfg.window,
            cfg.strong_every,
            cfg.read_every,
            cfg.shards,
        )
    }

    /// Human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} ops in {:.3}s: {:.0} ok/s (ok {}, busy {}, err {}, retry {}), \
             latency p50 {:.0}µs p99 {:.0}µs p999 {:.0}µs max {:.0}µs",
            self.sent,
            self.elapsed.as_secs_f64(),
            self.throughput,
            self.oks,
            self.busy,
            self.errors,
            self.retries,
            self.quantile_us(0.5),
            self.quantile_us(0.99),
            self.quantile_us(0.999),
            self.hist.max() as f64 / 1_000.0,
        )
    }
}

struct WorkerStats {
    sent: u64,
    oks: u64,
    busy: u64,
    errors: u64,
    retries: u64,
    hist: Histogram,
}

impl WorkerStats {
    fn new() -> WorkerStats {
        WorkerStats {
            sent: 0,
            oks: 0,
            busy: 0,
            errors: 0,
            retries: 0,
            hist: Histogram::new(),
        }
    }
}

/// xorshift64*: dependency-free deterministic stream per connection.
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn gen_op(rng: &mut u64, cfg: &LoadConfig, op_no: u64) -> (Level, KvOp) {
    let level = if cfg.strong_every > 0 && op_no % cfg.strong_every == cfg.strong_every - 1 {
        Level::Strong
    } else {
        Level::Weak
    };
    let u = (next_rand(rng) >> 11) as f64 / (1u64 << 53) as f64;
    let key = ((cfg.keys as f64) * u.powf(cfg.skew)) as u64 % cfg.keys.max(1);
    // advance the rng either way so read_every never shifts the key
    // stream — lease-on and lease-off runs see identical workloads
    let coin = next_rand(rng) & 1 == 0;
    let write = if cfg.read_every > 0 {
        op_no % cfg.read_every == cfg.read_every - 1
    } else {
        coin
    };
    let op = if write {
        KvOp::put(format!("k{key}"), op_no as i64)
    } else {
        KvOp::get(format!("k{key}"))
    };
    (level, op)
}

fn account(reply: &Reply, stats: &mut WorkerStats) {
    match reply {
        Reply::Ok(_) => stats.oks += 1,
        Reply::Busy => stats.busy += 1,
        Reply::Err(_) => stats.errors += 1,
        Reply::Retry { .. } => stats.retries += 1,
        Reply::Pong => {}
    }
}

/// Closed loop: keep `window` in flight, retire one to send the next.
fn closed_loop_worker(cfg: &LoadConfig, quota: u64, seed: u64) -> io::Result<WorkerStats> {
    let mut client = Client::connect(&cfg.addr)?;
    client.set_recv_timeout(Some(Duration::from_secs(30)))?;
    let mut rng = seed | 1;
    let mut stats = WorkerStats::new();
    let mut outstanding: HashMap<u64, Instant> = HashMap::new();
    while stats.sent < quota || !outstanding.is_empty() {
        if stats.sent < quota && outstanding.len() < cfg.window {
            let (level, op) = gen_op(&mut rng, cfg, stats.sent);
            let t0 = Instant::now();
            let tag = client.send(level, op)?;
            outstanding.insert(tag, t0);
            stats.sent += 1;
        } else {
            let (tag, reply) = client.recv()?;
            if let Some(t0) = outstanding.remove(&tag) {
                stats.hist.record(t0.elapsed().as_nanos() as u64);
            }
            account(&reply, &mut stats);
        }
    }
    Ok(stats)
}

/// Open loop: a sender paces writes; a receiver thread drains responses.
fn open_loop_worker(cfg: &LoadConfig, quota: u64, seed: u64, rate: f64) -> io::Result<WorkerStats> {
    let client = Client::connect(&cfg.addr)?;
    client.set_recv_timeout(Some(Duration::from_secs(30)))?;
    let (mut tx, mut rx) = client.split();
    let in_flight: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));

    let recv_flight = Arc::clone(&in_flight);
    let receiver = std::thread::spawn(move || -> io::Result<WorkerStats> {
        let mut stats = WorkerStats::new();
        let mut got = 0;
        while got < quota {
            let (tag, reply) = rx.recv()?;
            got += 1;
            let t0 = recv_flight.lock().expect("lock in_flight").remove(&tag);
            if let Some(t0) = t0 {
                stats.hist.record(t0.elapsed().as_nanos() as u64);
            }
            account(&reply, &mut stats);
        }
        Ok(stats)
    });

    // the per-connection share of the aggregate rate
    let interval = Duration::from_secs_f64(cfg.conns as f64 / rate);
    let mut rng = seed | 1;
    let mut next = Instant::now();
    for op_no in 0..quota {
        let now = Instant::now();
        if next > now {
            std::thread::sleep(next - now);
        }
        let (level, op) = gen_op(&mut rng, cfg, op_no);
        let t0 = Instant::now();
        // record before the write so queueing in the kernel counts
        let tag = {
            let mut f = in_flight.lock().expect("lock in_flight");
            let tag = tx.send(level, op)?;
            f.insert(tag, t0);
            tag
        };
        let _ = tag;
        next += interval;
    }
    let mut stats = receiver
        .join()
        .map_err(|_| io::Error::other("receiver thread panicked"))??;
    stats.sent = quota;
    Ok(stats)
}

/// Runs the configured workload and merges per-connection results.
pub fn run_load(cfg: &LoadConfig) -> io::Result<LoadReport> {
    assert!(cfg.conns > 0, "need at least one connection");
    let start = Instant::now();
    let mut handles = Vec::with_capacity(cfg.conns);
    for i in 0..cfg.conns {
        let quota = cfg.ops / cfg.conns as u64 + u64::from((i as u64) < cfg.ops % cfg.conns as u64);
        let cfg = cfg.clone();
        let seed = cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(i as u64 + 1);
        handles.push(std::thread::spawn(move || match cfg.rate {
            Some(rate) => open_loop_worker(&cfg, quota, seed, rate),
            None => closed_loop_worker(&cfg, quota, seed),
        }));
    }
    let mut merged = WorkerStats::new();
    let mut first_err = None;
    for h in handles {
        match h.join() {
            Ok(Ok(s)) => {
                merged.sent += s.sent;
                merged.oks += s.oks;
                merged.busy += s.busy;
                merged.errors += s.errors;
                merged.retries += s.retries;
                merged.hist.merge(&s.hist);
            }
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => {
                first_err = first_err.or_else(|| Some(io::Error::other("load worker panicked")))
            }
        }
    }
    if let Some(e) = first_err {
        return Err(e);
    }
    let elapsed = start.elapsed();
    Ok(LoadReport {
        sent: merged.sent,
        oks: merged.oks,
        busy: merged.busy,
        errors: merged.errors,
        retries: merged.retries,
        elapsed,
        throughput: merged.oks as f64 / elapsed.as_secs_f64().max(1e-9),
        hist: merged.hist,
    })
}
