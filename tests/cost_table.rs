//! The simulator's protocol costs, pinned: every row of
//! `tests/cost_table.txt` is one fixed simulator scenario, and every
//! count in it must come out exactly.
//!
//! The paper's cost argument is made in messages per operation — a weak
//! op pays one reliable-broadcast round, a strong op one total-order
//! round — and the simulator is a pure function of its configuration, so
//! those costs are exact integers. The rows:
//!
//! * **saturation** — open-loop overload of durable replicas (2 µs op
//!   spacing, 64 keys, 100 µs fsync): 3 and 5 replicas, weak and 1/8
//!   strong, 10², 10³ and 10⁴ ops. The 10⁴-op row is `#[ignore]`d: it
//!   takes ~20 s in a debug build.
//! * **sharded** — the same overload hashed over 1 and 4 replication
//!   groups on 3 hosts, each group's pipeline held to an 8-proposal
//!   window over 2 ms links.
//! * **reads** — a closed-loop session at the leaseholder, 9 gets to
//!   each put, leases on (`lease`) and off (`tob`); `strong_gets` is
//!   the mix, `weak_gets` its twin with every get weak (local), the
//!   baseline a strong read's message cost is measured against.
//! * **cluster** — 10³ weak counter adds in the Original and Improved
//!   protocol modes.
//! * **tob** — 50 strong ops over Paxos and over a fixed sequencer.
//!
//! The columns, all integers:
//!
//! * `end_us` — simulated µs when the workload was done: for saturation
//!   and sharded rows, the last event before the first 5 ms slice
//!   boundary (25 ms above 10³ ops) at which every replica had committed
//!   every op; for reads rows, the mix's last response; for cluster and
//!   tob rows, the end of the run;
//! * `msgs`, `steps`, `internal`, `fsyncs`, `wire_bytes` — the
//!   simulator's [`Metrics`] (messages sent, handler steps over all
//!   replicas, internal steps, fsync barriers, metered frame bytes);
//! * `wal_bytes` — bytes appended to the replicas' disks;
//! * `allocs` — heap allocations the scenario's thread made, hash
//!   tables aside;
//! * `lease` — strong reads answered under the lease;
//! * `tob` — the length of the total order (all groups).
//!
//! Saturation and sharded rows are read at `end_us`, the others at the
//! end of the run. Every scenario then runs on to its deadline and must
//! complete every op (or quiesce).
//!
//! Beside the pins, each family checks the gates its numbers exist to
//! show: a saturated busy period's frames at ≤ 2 msgs/op, 4 groups at
//! ≥ 2× the throughput of one, lease reads ≥ 5× all-TOB reads at ≤ 1
//! message each.
//!
//! A count that moves is a protocol change to review, not a pin to
//! refresh: the failing test prints the whole table with its rows
//! recomputed, the new table replaces `cost_table.txt` in the same
//! change, and `CHANGES.md` says why the count moved.

use bayou_broadcast::{PaxosConfig, PaxosTob, SequencerTob, Tob};
use bayou_core::{
    recover_grouped_paxos, recover_paxos_replica, BayouCluster, ClusterConfig, Invocation,
    ProtocolMode, Served, SessionScript,
};
use bayou_data::{Counter, CounterOp, DeltaState, KvOp, KvStore};
use bayou_sim::{Metrics, NetworkConfig, SimConfig};
use bayou_storage::{MemDisk, StoreConfig};
use bayou_types::{GroupId, LeaseConfig, Level, ReplicaId, SharedReq, VirtualTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations made by the current thread, so a scenario counts only
    /// its own work, never a test running beside it. `const`-initialised
    /// and `Drop`-free, so touching it never allocates.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation on the current thread (none while the thread's
/// locals are being torn down), unless it is a hash table's.
///
/// std's hash tables are the allocations aligned to their 16-byte
/// control groups (the SSE2 width on x86-64). When a table grows depends
/// on the tombstones its removals leave, so on the hash seed std draws
/// per process: counted, they would move the total by a few between two
/// runs of the same scenario.
fn count(layout: Layout) {
    if layout.align() < 16 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: delegates directly to the system allocator; the counter is a
// thread-local cell with no further invariants.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(layout);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the calling thread has made so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// One row's counts (the module docs define each column).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    end_us: u64,
    msgs: u64,
    steps: u64,
    internal: u64,
    fsyncs: u64,
    wal_bytes: u64,
    wire_bytes: u64,
    allocs: u64,
    lease: u64,
    tob: u64,
}

const COLUMNS: [&str; 10] = [
    "end_us",
    "msgs",
    "steps",
    "internal",
    "fsyncs",
    "wal_bytes",
    "wire_bytes",
    "allocs",
    "lease",
    "tob",
];

impl Counts {
    /// The simulator's own counters; the caller fills in the rest.
    fn of(m: &Metrics) -> Self {
        Counts {
            msgs: m.messages_sent,
            steps: m.steps.iter().sum(),
            internal: m.internal_steps,
            fsyncs: m.fsyncs,
            wire_bytes: m.wire_bytes,
            ..Counts::default()
        }
    }

    fn values(&self) -> [u64; 10] {
        [
            self.end_us,
            self.msgs,
            self.steps,
            self.internal,
            self.fsyncs,
            self.wal_bytes,
            self.wire_bytes,
            self.allocs,
            self.lease,
            self.tob,
        ]
    }

    fn from_values(v: [u64; 10]) -> Self {
        let [end_us, msgs, steps, internal, fsyncs, wal_bytes, wire_bytes, allocs, lease, tob] = v;
        Counts {
            end_us,
            msgs,
            steps,
            internal,
            fsyncs,
            wal_bytes,
            wire_bytes,
            allocs,
            lease,
            tob,
        }
    }
}

type Row = (String, Counts);

/// The checked-in table.
fn pinned() -> Vec<Row> {
    include_str!("cost_table.txt")
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let mut fields = line.split_whitespace();
            let name = fields.next().unwrap().to_string();
            let values: Vec<u64> = fields
                .map(|f| f.parse().unwrap_or_else(|e| panic!("{line}: {e}")))
                .collect();
            let values = values
                .try_into()
                .unwrap_or_else(|v: Vec<u64>| panic!("{line}: {} counts", v.len()));
            (name, Counts::from_values(values))
        })
        .collect()
}

/// The table as `cost_table.txt` holds it.
fn render(rows: &[Row]) -> String {
    let mut out = format!("# {:<38}", "row");
    for c in COLUMNS {
        out += &format!(" {c:>10}");
    }
    out.push('\n');
    let mut family = "";
    for (name, counts) in rows {
        let this = name.split('/').next().unwrap();
        if this != family {
            out.push('\n');
            family = this;
        }
        out += &format!("{name:<40}");
        for v in counts.values() {
            out += &format!(" {v:>10}");
        }
        out.push('\n');
    }
    out
}

/// Compares recomputed rows with the table.
///
/// # Panics
///
/// Panics with the whole table, these rows recomputed, if any row moved
/// or is missing.
fn check(rows: &[Row]) {
    let mut table = pinned();
    let mut moved = Vec::new();
    for (name, counts) in rows {
        match table.iter_mut().find(|(n, _)| n == name) {
            Some((_, pin)) if pin == counts => {}
            Some((_, pin)) => {
                moved.push(name.as_str());
                *pin = *counts;
            }
            None => {
                moved.push(name.as_str());
                table.push((name.clone(), *counts));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "moved or missing: {moved:?}. The table with these rows recomputed \
         (a moved count is reviewed and explained, never re-pinned to pass):\n{}",
        render(&table)
    );
}

#[test]
fn the_table_is_in_the_form_a_failure_prints() {
    // so that pasting a printed table diffs only the counts that moved
    assert_eq!(render(&pinned()), include_str!("cost_table.txt"));
}

/// Simulated fsync latency of the durable rows' disks (an SSD-ish
/// 100 µs), charged to the replicas' simulated CPUs.
const FSYNC_LATENCY: VirtualTime = VirtualTime::from_micros(100);

/// Distinct keys in every key-value workload.
const KEYS: usize = 64;

/// Deadline of the saturation and sharded runs.
const DEADLINE: VirtualTime = VirtualTime::from_secs(55);

fn durable_disks(n: usize) -> Vec<MemDisk> {
    let disks: Vec<MemDisk> = (0..n).map(|_| MemDisk::new()).collect();
    for d in &disks {
        d.set_fsync_latency(FSYNC_LATENCY);
    }
    disks
}

fn durable_store() -> StoreConfig {
    StoreConfig {
        snapshot_every: 256,
        ..StoreConfig::default()
    }
}

fn wal_bytes(disks: &[MemDisk]) -> u64 {
    disks.iter().map(|d| d.stats().appended_bytes).sum()
}

/// Advances in slices (5 ms, or 25 ms above 10³ ops) until every
/// replica of every group `g` has committed `shares[g]` ops; returns the
/// cluster time then.
///
/// # Panics
///
/// Panics if the workload has not committed by [`DEADLINE`].
fn run_to_commit(cluster: &mut BayouCluster<KvStore>, shares: &[u64], ops: usize) -> u64 {
    let step = VirtualTime::from_millis(if ops > 1_000 { 25 } else { 5 });
    let mut slice = step;
    loop {
        cluster.run_until(slice);
        let done = shares.iter().enumerate().all(|(g, share)| {
            cluster
                .committed_totals(GroupId::new(g as u32))
                .iter()
                .all(|c| c >= share)
        });
        if done {
            return cluster.now().as_micros();
        }
        assert!(slice < DEADLINE, "workload never committed");
        slice += step;
    }
}

/// One saturation row: open-loop overload of durable, compacting
/// replicas running the whole commit pipeline (delivery batching, frame
/// coalescing, delayed acks, WAL group commit).
#[derive(Debug, Clone, Copy)]
struct Saturation {
    n: usize,
    ops: usize,
    /// Every `strong_every`-th op is strong (0 = weak only).
    strong_every: usize,
}

impl Saturation {
    fn label(self) -> String {
        format!(
            "saturation/n{}/ops{}/{}",
            self.n,
            self.ops,
            if self.strong_every > 0 {
                "mixed"
            } else {
                "weak"
            },
        )
    }

    fn row(self) -> Row {
        let before = allocations();
        let Saturation { n, ops, .. } = self;
        let disks = durable_disks(n);
        let factory_disks = disks.clone();
        let mut cluster = BayouCluster::with_factory(ClusterConfig::new(n, 42).sim, move |id| {
            let mut r = recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
                id,
                n,
                ProtocolMode::Improved,
                Default::default(),
                factory_disks[id.index()].clone(),
                durable_store(),
            );
            r.meter_wire_bytes();
            r
        });
        for k in 0..ops {
            // far past the saturation point (a handler costs 10 µs of
            // simulated CPU, and one op is many handler steps): the
            // cluster works through a deep backlog
            cluster.invoke_at(
                VirtualTime::from_micros(2 * k as u64 + 1),
                ReplicaId::new((k % n) as u32),
                KvOp::put(format!("k{}", k % KEYS), k as i64),
                if self.strong_every > 0 && k % self.strong_every == self.strong_every - 1 {
                    Level::Strong
                } else {
                    Level::Weak
                },
            );
        }
        let end_us = run_to_commit(&mut cluster, &[ops as u64], ops);
        let counts = Counts {
            end_us,
            wal_bytes: wal_bytes(&disks),
            allocs: allocations() - before,
            tob: cluster.committed_order(GroupId::new(0)).len() as u64,
            ..Counts::of(cluster.metrics())
        };
        let trace = cluster.run_until(DEADLINE);
        assert!(
            trace.events.iter().all(|e| !e.is_pending()),
            "{} left pending events",
            self.label()
        );
        (self.label(), counts)
    }
}

/// The saturation rows: 3 replicas at 10², 10³ and 10⁴ weak ops, and at
/// 10³ ops 5 replicas and a 1/8-strong mix.
fn saturation_grid() -> impl Iterator<Item = Saturation> {
    let base = Saturation {
        n: 3,
        ops: 1_000,
        strong_every: 0,
    };
    [
        Saturation { ops: 100, ..base },
        base,
        Saturation {
            ops: 10_000,
            ..base
        },
        Saturation { n: 5, ..base },
        Saturation {
            strong_every: 8,
            ..base
        },
    ]
    .into_iter()
}

#[test]
fn saturation_costs_match_the_table() {
    let rows: Vec<Row> = saturation_grid()
        .filter(|s| s.ops <= 1_000)
        .map(Saturation::row)
        .collect();
    // the frame coalescer's reason to exist: a saturated replica's busy
    // period sends one frame per peer, so n3 with 10³ weak ops stays at
    // ≤ 2 msgs/op, against ~4 with a frame set at every step end
    let (_, weak) = rows
        .iter()
        .find(|(name, _)| name == "saturation/n3/ops1000/weak")
        .unwrap();
    assert!(
        weak.msgs <= 2_000,
        "a busy period's frames must hold 10³ weak ops to ≤ 2 msgs/op, got {} msgs",
        weak.msgs
    );
    check(&rows);
}

#[test]
#[ignore = "~20 s a row in a debug build; CI runs it in release"]
fn saturation_costs_at_ten_thousand_ops_match_the_table() {
    let rows: Vec<Row> = saturation_grid()
        .filter(|s| s.ops > 1_000)
        .map(Saturation::row)
        .collect();
    check(&rows);
}

/// One-way link delay of the sharded rows: with [`WINDOW`], one group
/// commits at most ~`WINDOW / RTT` ≈ 2 000 ops/s, under the 3 hosts'
/// shared CPU/fsync ceiling (~7 000 ops/s), so the one-group row is
/// pipeline-bound and groups can scale until the CPUs saturate.
const LINK_DELAY: VirtualTime = VirtualTime::from_millis(2);

/// Each group leader's flow-control window (`PaxosConfig::max_inflight`).
const WINDOW: usize = 8;

/// The server's placement, restated (`bayou_server::ShardRouter` sits
/// above the crates this test uses): FNV-1a over the key's bytes,
/// modulo the group count.
fn route(key: &str, groups: usize) -> GroupId {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    GroupId::new((h % groups as u64) as u32)
}

/// One sharded row: 10³ weak ops of open-loop overload over `groups`
/// replication groups multiplexed into 3 durable hosts.
fn sharded_row(groups: usize) -> Row {
    const N: usize = 3;
    const OPS: usize = 1_000;
    let label = format!("sharded/groups{groups}/ops{OPS}");
    let before = allocations();
    let disks = durable_disks(N);
    let sim = SimConfig::new(N, 42)
        .with_net(NetworkConfig::fixed(LINK_DELAY))
        .with_max_time(VirtualTime::from_secs(60));
    let paxos = PaxosConfig {
        max_inflight: WINDOW,
        ..Default::default()
    };
    let factory_disks = disks.clone();
    let mut cluster = BayouCluster::with_factory(sim, move |id| {
        recover_grouped_paxos::<KvStore, DeltaState<KvStore>, _>(
            id,
            N,
            groups,
            ProtocolMode::Improved,
            paxos,
            factory_disks[id.index()].clone(),
            durable_store(),
        )
    });
    let mut shares = vec![0u64; groups];
    for k in 0..OPS {
        let key = format!("k{}", k % KEYS);
        let gid = route(&key, groups);
        shares[gid.index()] += 1;
        cluster.schedule_in(
            VirtualTime::from_micros(2 * k as u64 + 1),
            ReplicaId::new((k % N) as u32),
            gid,
            Invocation::weak(KvOp::Put(key, k as i64)),
        );
    }
    let end_us = run_to_commit(&mut cluster, &shares, OPS);
    let counts = Counts {
        end_us,
        wal_bytes: wal_bytes(&disks),
        allocs: allocations() - before,
        tob: GroupId::all(groups)
            .map(|g| cluster.committed_order(g).len() as u64)
            .sum(),
        ..Counts::of(cluster.metrics())
    };
    cluster.run_until(DEADLINE);
    assert!(cluster.quiescent(), "{label} left pending events");
    (label, counts)
}

#[test]
fn sharded_costs_match_the_table() {
    let rows = [sharded_row(1), sharded_row(4)];
    // the same 10³ ops commit everywhere ≥ 2× sooner over 4 groups:
    // groups multiply commit windows over the same three hosts
    let (one, four) = (rows[0].1.end_us, rows[1].1.end_us);
    assert!(
        one >= 2 * four,
        "4 groups must reach ≥ 2× the throughput of 1, got {one} µs vs {four} µs"
    );
    check(&rows);
}

/// Ops in a read mix: every 10th a weak put, the rest gets.
const READ_OPS: usize = 2_000;

/// Simulated µs of lease warm-up before the mix starts: the priming
/// write establishes leadership, and the first grant quorum needs a
/// couple of pump ticks.
const WARMUP_US: u64 = 600_000;

/// One reads row: a priming strong put at replica 1 (it starts Ω
/// leadership and the grant traffic; an output at the session's replica
/// would advance the closed loop early), then a closed-loop session at
/// the leaseholder, replica 0, with a 10 µs think time.
fn reads_row(lease: bool, gets: Level) -> Row {
    let label = format!(
        "reads/{}/ops{READ_OPS}/{}_gets",
        if lease { "lease" } else { "tob" },
        if gets == Level::Strong {
            "strong"
        } else {
            "weak"
        },
    );
    let before = allocations();
    let mut config = ClusterConfig::new(3, 42);
    config.sim = config.sim.with_max_time(VirtualTime::from_secs(30));
    if lease {
        config = config.with_lease(LeaseConfig::default());
    }
    let mut cluster: BayouCluster<KvStore> = BayouCluster::new(config);
    cluster.invoke_at(
        VirtualTime::from_millis(1),
        ReplicaId::new(1),
        KvOp::put("prime", 0),
        Level::Strong,
    );
    let steps = (0..READ_OPS)
        .map(|k| {
            let key = format!("k{}", k % KEYS);
            if k % 10 == 9 {
                Invocation::weak(KvOp::put(key, k as i64))
            } else {
                Invocation::new(KvOp::get(key), gets)
            }
        })
        .collect();
    let mut script = SessionScript::new(ReplicaId::new(0), steps);
    script.think_time = VirtualTime::from_micros(10);
    script.start_at = VirtualTime::from_micros(WARMUP_US);
    let trace = cluster.run_sessions(vec![script]);
    assert_eq!(trace.events.len(), READ_OPS + 1, "{label}");
    assert!(
        trace.events.iter().all(|e| !e.is_pending()),
        "{label} left pending events"
    );
    let mix = || {
        trace
            .events
            .iter()
            .filter(|e| e.invoked_at.as_micros() >= WARMUP_US)
    };
    assert_eq!(
        mix().map(|e| e.invoked_at.as_micros()).min(),
        Some(WARMUP_US),
        "{label}: the mix starts late"
    );
    let counts = Counts {
        end_us: mix()
            .filter_map(|e| e.returned_at)
            .max()
            .unwrap()
            .as_micros(),
        allocs: allocations() - before,
        lease: mix()
            .filter(|e| matches!(e.served, Some(Served::Lease { .. })))
            .count() as u64,
        tob: trace.tob_order.len() as u64,
        ..Counts::of(cluster.metrics())
    };
    (label, counts)
}

#[test]
fn reads_costs_match_the_table() {
    let rows = [
        reads_row(true, Level::Strong),
        reads_row(true, Level::Weak),
        reads_row(false, Level::Strong),
        reads_row(false, Level::Weak),
    ];
    let [lease, lease_twin, tob, _] = rows.each_ref().map(|(_, c)| c);
    let reads = (READ_OPS - READ_OPS / 10) as u64;
    // the lease keeps strong reads off the total order: it orders only
    // the prime and the puts
    assert_eq!(
        lease.tob,
        1 + (READ_OPS / 10) as u64,
        "a lease read entered the total order"
    );
    assert!(
        lease.lease * 10 > reads * 9,
        "the lease must serve > 90% of strong reads, got {} of {reads}",
        lease.lease
    );
    // throughput over the mix, which starts at WARMUP_US in every row
    let (lease_us, tob_us) = (lease.end_us - WARMUP_US, tob.end_us - WARMUP_US);
    assert!(
        tob_us >= 5 * lease_us,
        "lease reads must be ≥ 5× all-TOB reads, got {lease_us} µs vs {tob_us} µs"
    );
    // a lease read's messages over the twin with weak (local) gets: the
    // twin has the mix's shape, so its puts batch as the mix's do
    let extra = lease.msgs.saturating_sub(lease_twin.msgs);
    assert!(
        extra <= reads,
        "lease reads must cost ≤ 1 message each, got {extra} for {reads} reads"
    );
    check(&rows);
}

/// One cluster row: 10³ weak counter adds, one every 100 µs.
fn cluster_row(mode: ProtocolMode) -> Row {
    const OPS: usize = 1_000;
    let label = format!("cluster/{mode:?}/ops{OPS}").to_lowercase();
    let before = allocations();
    let mut cluster: BayouCluster<Counter> =
        BayouCluster::new(ClusterConfig::new(3, 42).with_mode(mode));
    for k in 0..OPS {
        cluster.invoke_at(
            VirtualTime::from_micros(100 * k as u64 + 1),
            ReplicaId::new((k % 3) as u32),
            CounterOp::Add(1),
            Level::Weak,
        );
    }
    let trace = cluster.run_until(VirtualTime::from_secs(30));
    assert!(
        trace.events.iter().all(|e| !e.is_pending()),
        "{label} left pending events"
    );
    let counts = Counts {
        end_us: trace.end_time.as_micros(),
        allocs: allocations() - before,
        tob: trace.tob_order.len() as u64,
        ..Counts::of(cluster.metrics())
    };
    (label, counts)
}

#[test]
fn cluster_costs_match_the_table() {
    check(&[
        cluster_row(ProtocolMode::Original),
        cluster_row(ProtocolMode::Improved),
    ]);
}

/// One tob row: 50 strong counter adds, one every 2 ms, over the total
/// order broadcast `make` builds.
fn tob_row<T: Tob<SharedReq<CounterOp>>>(
    name: &str,
    make: impl FnMut(ReplicaId) -> T + 'static,
) -> Row {
    const OPS: usize = 50;
    let label = format!("tob/{name}/strong{OPS}");
    let before = allocations();
    let mut cluster: BayouCluster<Counter, T> =
        BayouCluster::with_tob(SimConfig::new(3, 7), ProtocolMode::Improved, make);
    for k in 0..OPS {
        cluster.invoke_at(
            VirtualTime::from_millis(1 + 2 * k as u64),
            ReplicaId::new((k % 3) as u32),
            CounterOp::Add(1),
            Level::Strong,
        );
    }
    let trace = cluster.run_until(VirtualTime::from_secs(30));
    assert_eq!(trace.tob_order.len(), OPS, "{label}");
    let counts = Counts {
        end_us: trace.end_time.as_micros(),
        allocs: allocations() - before,
        tob: OPS as u64,
        ..Counts::of(cluster.metrics())
    };
    (label, counts)
}

#[test]
fn tob_costs_match_the_table() {
    check(&[
        tob_row("paxos", |_| {
            PaxosTob::<SharedReq<CounterOp>>::with_defaults(3)
        }),
        tob_row("sequencer", |_| {
            SequencerTob::<SharedReq<CounterOp>>::new(3)
        }),
    ]);
}
