//! Criterion bench: end-to-end saturation throughput of the batched
//! commit pipeline — whole simulated-cluster runs (links + RB + Paxos +
//! replica + storage) under open-loop overload, at 10²–10⁴ ops, 3 and 5
//! replicas, weak-only and mixed weak/strong workloads, on compacting
//! replicas.
//!
//! Every configuration runs the one commit pipeline (delivery batching,
//! step-end frame coalescing, delayed cumulative acks, WAL group commit)
//! twice: with cross-step flush deferral on (`+defer`, the default) and
//! off (frames flush at every step end). The per-request / per-frame /
//! per-record arms PR 5 measured against are gone; their numbers stay
//! archived in `BENCH_PR5.json`. Row labels keep the `batched/` prefix
//! so rows stay comparable with `BENCH_PR6.json`. Two numbers are
//! reported per configuration:
//!
//! * **wall-clock ops/sec** (the criterion timing): how fast the host
//!   pushes the whole simulated run, a proxy for total protocol work;
//! * **simulated ops/sec** (`record_metric`, `sim_ops_per_sec`): ops
//!   divided by the *simulated* time at which every replica had
//!   committed the full workload, with a realistic 100 µs fsync charged
//!   to the simulated clock — the throughput of the modeled hardware,
//!   and the deterministic headline number (the simulator is a pure
//!   function of the config).
//!
//! messages/op and fsyncs/op from `bayou_sim::Metrics` land in the JSON
//! report alongside, with **allocations/op** (counting global allocator
//! over the whole instrumented run — where the pooled encode buffers
//! and borrowing decodes show up), **WAL encoded bytes/op** (bytes the
//! pooled `frame_into` encoder actually appended, from `DiskStats`) and
//! wire bytes/op. The acceptance point compares deferral on/off at 10³
//! ops / 3 replicas. Archived as `BENCH_PR6.json`.
//!
//! `SATURATION_SMOKE=1` shrinks the grid to a seconds-long CI smoke run.

use bayou_core::{recover_paxos_replica, BayouCluster, ClusterConfig, ProtocolMode};
use bayou_data::{DeltaState, KvOp, KvStore};
use bayou_storage::{MemDisk, StoreConfig};
use bayou_types::{GroupId, Level, ReplicaId, VirtualTime};
use criterion::{
    criterion_group, criterion_main, record_metric, BenchmarkId, Criterion, Throughput,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counting allocator: the allocations/op rows come from the delta of
/// this counter across one instrumented saturation run.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator; the counter is a
// relaxed atomic with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Simulated fsync latency of the modeled disks (an SSD-ish 100 µs),
/// charged to the replicas' simulated CPUs.
const FSYNC_LATENCY: VirtualTime = VirtualTime::from_micros(100);

/// One saturation configuration.
#[derive(Debug, Clone, Copy)]
struct Config {
    n: usize,
    ops: usize,
    /// Every `strong_every`-th op is strong (0 = weak-only).
    strong_every: usize,
    /// Cross-step flush deferral.
    deferral: bool,
}

impl Config {
    fn label(&self) -> String {
        format!(
            "batched/n{}/ops{}/{}{}",
            self.n,
            self.ops,
            if self.strong_every > 0 {
                "mixed"
            } else {
                "weak"
            },
            if self.deferral { "+defer" } else { "" },
        )
    }
}

fn build_cluster(cfg: Config) -> (BayouCluster<KvStore>, Vec<MemDisk>) {
    // per-replica in-memory disks so group commit and fsync accounting
    // are on the hot path (the disks outlive the factory closure)
    let disks: Vec<MemDisk> = (0..cfg.n).map(|_| MemDisk::new()).collect();
    for d in &disks {
        d.set_fsync_latency(FSYNC_LATENCY);
    }
    let n = cfg.n;
    let store_cfg = StoreConfig {
        snapshot_every: 256,
        ..StoreConfig::default()
    };
    let base = ClusterConfig::new(cfg.n, 42);
    let factory_disks = disks.clone();
    let cluster = BayouCluster::with_factory(base.sim, move |id: ReplicaId| {
        let mut r = recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
            id,
            n,
            ProtocolMode::Improved,
            Default::default(),
            factory_disks[id.index()].clone(),
            store_cfg,
        );
        r.set_flush_deferral(cfg.deferral.then_some(bayou_core::DEFAULT_FLUSH_DELAY));
        r.meter_wire_bytes();
        r
    });
    (cluster, disks)
}

fn schedule_ops(cluster: &mut BayouCluster<KvStore>, cfg: Config) {
    for k in 0..cfg.ops {
        let level = if cfg.strong_every > 0 && k % cfg.strong_every == cfg.strong_every - 1 {
            Level::Strong
        } else {
            Level::Weak
        };
        // open-loop far past the saturation point (a handler costs 10 µs
        // of simulated CPU, and one op is many handler steps): the
        // cluster falls behind and works through a deep backlog — the
        // regime the commit pipeline is built for
        cluster.invoke_at(
            VirtualTime::from_micros(2 * k as u64 + 1),
            ReplicaId::new((k % cfg.n) as u32),
            KvOp::put(format!("k{}", k % 64), k as i64),
            level,
        );
    }
}

/// One full run to quiescence (the criterion timing target).
fn run_saturation(cfg: Config) {
    let (mut cluster, _disks) = build_cluster(cfg);
    schedule_ops(&mut cluster, cfg);
    let trace = cluster.run_until(VirtualTime::from_secs(55));
    assert!(
        trace.events.iter().all(|e| !e.is_pending()),
        "saturation run left pending events ({})",
        cfg.label()
    );
}

/// What one instrumented run measured. Deterministic per config (the
/// allocation count too: the simulator is single-threaded and seeded).
struct Measured {
    /// Simulated seconds until every replica committed the workload.
    commit_secs: f64,
    msgs_per_op: f64,
    fsyncs_per_op: f64,
    /// Heap allocations per op across the whole run (workload
    /// construction + protocol + storage) — the pooled-codec headline.
    allocs_per_op: f64,
    /// WAL bytes appended per op (the pooled `frame_into` encoder's
    /// actual output volume).
    wal_bytes_per_op: f64,
    /// Encoded network frame bytes sent per op (the coalescer's
    /// [`FrameMeter`](bayou_broadcast::FrameMeter) accounting) — what
    /// link coalescing and flush deferral actually save on the wire.
    wire_bytes_per_op: f64,
}

/// One instrumented run: advances in slices until every replica has
/// committed the whole workload.
fn measure(cfg: Config) -> Measured {
    let (mut cluster, disks) = build_cluster(cfg);
    let alloc_before = allocations();
    schedule_ops(&mut cluster, cfg);
    // every scheduled op is an update, so every one of them commits
    let target = cfg.ops as u64;
    let step = VirtualTime::from_millis(if cfg.ops > 1_000 { 25 } else { 5 });
    let deadline = VirtualTime::from_secs(55);
    let mut slice = step;
    let committed_at = loop {
        cluster.run_until(slice);
        if cluster
            .committed_totals(GroupId::new(0))
            .iter()
            .all(|c| *c >= target)
        {
            break cluster.now();
        }
        assert!(
            slice < deadline,
            "workload never committed ({})",
            cfg.label()
        );
        slice += step;
    };
    let allocs = allocations() - alloc_before;
    let wal_bytes: u64 = disks.iter().map(|d| d.stats().appended_bytes).sum();
    let m = cluster.metrics();
    let ops = cfg.ops as f64;
    Measured {
        commit_secs: committed_at.as_secs_f64(),
        msgs_per_op: m.messages_sent as f64 / ops,
        fsyncs_per_op: m.fsyncs as f64 / ops,
        allocs_per_op: allocs as f64 / ops,
        wal_bytes_per_op: wal_bytes as f64 / ops,
        wire_bytes_per_op: m.wire_bytes as f64 / ops,
    }
}

fn smoke() -> bool {
    std::env::var("SATURATION_SMOKE").is_ok_and(|v| v == "1")
}

fn grid() -> Vec<Config> {
    let base = Config {
        n: 3,
        ops: 1_000,
        strong_every: 0,
        deferral: false,
    };
    if smoke() {
        // deferral on (the default) and off
        return [true, false]
            .into_iter()
            .map(|deferral| Config {
                ops: 100,
                deferral,
                ..base
            })
            .collect();
    }
    let mut grid = Vec::new();
    // deferral on (the default) and off (flush at every step end)
    for deferral in [true, false] {
        for ops in [100usize, 1_000, 10_000] {
            grid.push(Config {
                ops,
                deferral,
                ..base
            });
        }
        // 5 replicas and a mixed weak/strong workload, both at the 10³
        // point
        grid.push(Config {
            n: 5,
            deferral,
            ..base
        });
        grid.push(Config {
            strong_every: 8,
            deferral,
            ..base
        });
    }
    grid
}

fn bench_saturation(c: &mut Criterion) {
    let mut g = c.benchmark_group("saturation");
    g.sample_size(if smoke() { 2 } else { 3 });
    g.measurement_time(std::time::Duration::from_secs(if smoke() { 1 } else { 3 }));
    for cfg in grid() {
        g.throughput(Throughput::Elements(cfg.ops as u64));
        g.bench_with_input(BenchmarkId::new("run", cfg.label()), &cfg, |b, &cfg| {
            b.iter(|| run_saturation(cfg))
        });
        let m = measure(cfg);
        record_metric(
            "saturation_counters",
            &cfg.label(),
            &[
                ("sim_ops_per_sec", cfg.ops as f64 / m.commit_secs),
                ("messages_per_op", m.msgs_per_op),
                ("fsyncs_per_op", m.fsyncs_per_op),
                ("allocations_per_op", m.allocs_per_op),
                ("wal_bytes_per_op", m.wal_bytes_per_op),
                ("wire_bytes_per_op", m.wire_bytes_per_op),
            ],
        );
    }
    g.finish();

    // the acceptance point: flush deferral on vs off at 10³ ops / 3
    // replicas (deterministic — the simulator is a pure function of the
    // configuration). Deferral on must land at ≤ 2.0 messages/op against
    // the flush-every-step floor of ~4.
    let defer_point = |deferral| Config {
        n: 3,
        ops: if smoke() { 100 } else { 1_000 },
        strong_every: 0,
        deferral,
    };
    let on = measure(defer_point(true));
    let off = measure(defer_point(false));
    record_metric(
        "deferral_speedup",
        if smoke() {
            "n3/ops100/weak"
        } else {
            "n3/ops1000/weak"
        },
        &[
            ("deferred_messages_per_op", on.msgs_per_op),
            ("flushed_messages_per_op", off.msgs_per_op),
            ("messages_per_op_ratio", off.msgs_per_op / on.msgs_per_op),
            ("deferred_allocations_per_op", on.allocs_per_op),
            ("flushed_allocations_per_op", off.allocs_per_op),
            ("deferred_wire_bytes_per_op", on.wire_bytes_per_op),
            ("flushed_wire_bytes_per_op", off.wire_bytes_per_op),
            (
                "deferred_sim_ops_per_sec",
                defer_point(true).ops as f64 / on.commit_secs,
            ),
            (
                "flushed_sim_ops_per_sec",
                defer_point(false).ops as f64 / off.commit_secs,
            ),
        ],
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().warm_up_time(std::time::Duration::from_millis(200));
    targets = bench_saturation
}
criterion_main!(benches);
