//! The `bayou-server` binary: serves a durable replica cluster over TCP.

use bayou_server::{Server, ServerConfig};
use bayou_types::LeaseConfig;
use std::path::PathBuf;

const USAGE: &str = "\
bayou-server — serve a Bayou replica cluster over TCP

USAGE:
    bayou-server [OPTIONS]

OPTIONS:
    --listen ADDR          bind address (default 127.0.0.1:4600)
    --replicas N           cluster size (default 3)
    --shards N             replication groups the keyspace hashes over (default 1)
    --data-dir PATH        durable storage root (default: in-memory)
    --window N             per-connection in-flight window (default 32)
    --high-water N         per-group pending-op shed threshold (default 1024)
    --snapshot-every N     ops between snapshots (default 256)
    --seed N               simulation seed for the cluster RNG (default 0)
    --lease MS             arm leader leases of MS milliseconds (clock margin
                           MS/10); strong reads are then served locally by the
                           leaseholder. Default: off, every strong op a TOB round
    -h, --help             print this help
";

fn parse_args() -> Result<ServerConfig, String> {
    let mut cfg = ServerConfig {
        listen: "127.0.0.1:4600".into(),
        ..ServerConfig::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n\n{USAGE}"))
        };
        match arg.as_str() {
            "--listen" => cfg.listen = value("--listen")?,
            "--replicas" => {
                cfg.replicas = value("--replicas")?
                    .parse()
                    .map_err(|e| format!("--replicas: {e}"))?
            }
            "--shards" => {
                cfg.shards = value("--shards")?
                    .parse()
                    .map_err(|e| format!("--shards: {e}"))?
            }
            "--data-dir" => cfg.data_dir = Some(PathBuf::from(value("--data-dir")?)),
            "--window" => {
                cfg.window = value("--window")?
                    .parse()
                    .map_err(|e| format!("--window: {e}"))?
            }
            "--high-water" => {
                cfg.high_water = value("--high-water")?
                    .parse()
                    .map_err(|e| format!("--high-water: {e}"))?
            }
            "--snapshot-every" => {
                cfg.store.snapshot_every = value("--snapshot-every")?
                    .parse()
                    .map_err(|e| format!("--snapshot-every: {e}"))?
            }
            "--seed" => {
                cfg.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--lease" => {
                let ms: u64 = value("--lease")?
                    .parse()
                    .map_err(|e| format!("--lease: {e}"))?;
                if ms == 0 {
                    return Err("--lease must be at least 1 millisecond".into());
                }
                cfg.lease = Some(LeaseConfig::new(ms * 1000, (ms * 1000 / 10).max(1)));
            }
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n\n{USAGE}")),
        }
    }
    if cfg.replicas == 0 {
        return Err("--replicas must be at least 1".into());
    }
    if cfg.shards == 0 {
        return Err("--shards must be at least 1".into());
    }
    Ok(cfg)
}

fn main() {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(msg) => {
            eprintln!("bayou-server: {msg}");
            std::process::exit(2);
        }
    };
    let durable = cfg
        .data_dir
        .as_ref()
        .map(|d| d.display().to_string())
        .unwrap_or_else(|| "in-memory".into());
    let replicas = cfg.replicas;
    let shards = cfg.shards;
    let lease = match cfg.lease {
        Some(l) => format!("{}ms", l.duration_us / 1000),
        None => "off".into(),
    };
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bayou-server: failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "bayou-server listening on {} ({} replicas, {} shard{}, storage: {}, lease: {})",
        server.local_addr(),
        replicas,
        shards,
        if shards == 1 { "" } else { "s" },
        durable,
        lease
    );
    // Serve until killed. The accept, connection-reader and replica
    // threads own all the work; this thread just keeps the Server alive.
    loop {
        std::thread::park();
    }
}
