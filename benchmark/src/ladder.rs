//! The traced ladder: the workload's operations replayed at seven rungs,
//! each adding a layer, so that the difference between neighbouring
//! rungs attributes latency to a crate. Everything is measured from
//! here, around calls into public functions; spans go to
//! `out/trace-<workload>.json`.
//!
//! 1. `types`/`server`: the codecs alone.
//! 2. `data`: the state object alone.
//! 3. `storage`: `ReplicaStore` on real files.
//! 4. `core`: one replica, no storage, no peers.
//! 5. `core`+`broadcast`+`sim`: three replicas under the simulated
//!    clock, the only rung whose counts repeat exactly.
//! 6. `net`: the in-memory `LiveCluster`.
//! 7. `server`: over TCP with in-memory replicas.
//!
//! The end-to-end round, on real files that no step waits for, stands
//! above them, and the same round with the store's default `fsync` per
//! step is the last rung, 8.
//!
//! Rung 5 replays a closed-loop workload on an even schedule of 2 000
//! operations per second (rung 6 keeps the windows and the flush), and
//! no rung injects `crash_cycle`'s faults: restarting
//! an in-memory replica recovers nothing, which is another experiment.
//! Rungs 7 and 8 run the operations of the end-to-end round, rung 8 a
//! quarter of them; the rungs below run its first 6 000.

use crate::metrics::{measured, Better, LayerDef, Measured};
use crate::run::{self, out_dir, EndToEnd, Params, Replicas};
use crate::stats::{median, percentile, tail};
use crate::trace::{SpanClock, SpanLog};
use crate::workload::{due_times, generate, Kind, Op, Pacing, Spec, CONNS};
use bayou_broadcast::{PaxosConfig, PaxosTob, TobEvent};
use bayou_core::{
    recover_paxos_replica, BayouCluster, BayouReplica, ClusterConfig, GroupedReplica, Invocation,
    ProtocolMode,
};
use bayou_data::{DeltaState, KvOp, KvStore, StateObject};
use bayou_net::{LiveCluster, LiveConfig};
use bayou_server::protocol::{encode_frame, encode_ok_response};
use bayou_server::{KvHost, Request, RequestView, ResponseMsg, ServerConfig};
use bayou_storage::{
    FileStorage, MemDisk, Persistence, Prefixed, ReplicaStore, SharedBackend, StoreConfig,
};
use bayou_types::{
    Dot, GroupId, LeaseConfig, Level, ReplicaId, Req, SharedReq, Timestamp, Value, VirtualTime,
    Wire, WireView,
};
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const fn layer(name: &'static str, unit: &'static str, better: Better) -> LayerDef {
    LayerDef { name, unit, better }
}

/// Per-layer metrics the ladder yields, rung by rung.
pub const FROM_LADDER: [LayerDef; 35] = [
    layer("types.wire_ns_per_op", "ns", Better::Lower),
    layer("server.codec_ns_per_op", "ns", Better::Lower),
    layer("data.execute_ns_per_op", "ns", Better::Lower),
    layer("data.rollback_ns_per_op", "ns", Better::Lower),
    layer("storage.append_ns_per_op", "ns", Better::Lower),
    layer("storage.sync_p50_us", "us", Better::Lower),
    layer("storage.sync_p99_us", "us", Better::Lower),
    layer("storage.snapshot_ms_1k", "ms", Better::Lower),
    layer("storage.snapshot_ms_10k", "ms", Better::Lower),
    layer("storage.recover_ms", "ms", Better::Lower),
    layer("core.single_us_per_op", "us", Better::Lower),
    layer("core.sim_msgs_per_op", "count", Better::Lower),
    layer("core.sim_steps_per_op", "count", Better::Lower),
    layer("core.sim_internal_steps_per_op", "count", Better::Lower),
    layer("storage.sim_fsyncs_per_op", "count", Better::Lower),
    layer("storage.sim_wal_bytes_per_op", "B", Better::Lower),
    layer("broadcast.sim_wire_bytes_per_op", "B", Better::Lower),
    layer("broadcast.sim_strong_commit_us", "us", Better::Lower),
    layer("sim.host_us_per_op", "us", Better::Lower),
    layer("net.ok_per_s", "1/s", Better::Higher),
    layer("net.weak_p50_us", "us", Better::Lower),
    layer("net.strong_p50_us", "us", Better::Lower),
    layer("server.mem_ok_per_s", "1/s", Better::Higher),
    layer("server.mem_weak_p50_us", "us", Better::Lower),
    layer("server.mem_strong_p50_us", "us", Better::Lower),
    layer("server.mem_weak_p99_us", "us", Better::Lower),
    layer("server.client_send_us", "us", Better::Lower),
    layer("server.client_decode_us", "us", Better::Lower),
    layer("server.tcp_overhead_us", "us", Better::Lower),
    layer("storage.durable_overhead_us", "us", Better::Lower),
    layer("bench.trace_overhead_pct", "%", Better::Lower),
    layer("server.synced_ok_per_s", "1/s", Better::Higher),
    layer("server.synced_weak_p50_us", "us", Better::Lower),
    layer("server.synced_strong_p50_us", "us", Better::Lower),
    layer("storage.sync_overhead_us", "us", Better::Lower),
];

/// Operations the rungs below the server replay, over all connections:
/// an open-loop round's worth.
const LADDER_OPS: usize = 6_000;

/// What the rungs share: the operations, the span log and its clock.
struct Ladder<'a> {
    spec: &'static Spec,
    seed: u64,
    /// `ops[c][i]`, the first [`LADDER_OPS`] of the round's stream, and
    /// when each is due.
    ops: Vec<Vec<Op>>,
    due: Vec<Vec<u64>>,
    log: &'a mut SpanLog,
    clock: SpanClock,
    out: Vec<Measured>,
}

impl Ladder<'_> {
    /// The operations in due order with their connection and index.
    fn in_due_order(&self) -> impl Iterator<Item = (usize, usize, Op)> + '_ {
        let len = self.ops[0].len();
        (0..len).flat_map(move |i| (0..CONNS).map(move |c| (c, i, self.ops[c][i])))
    }

    fn count(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }

    /// Runs `work` under a span named `name` below `parent`; returns its
    /// result and duration in nanoseconds.
    fn timed<T>(&mut self, parent: u32, name: &'static str, work: impl FnOnce() -> T) -> (T, u64) {
        let start = self.clock.now_ns();
        let result = work();
        let end = self.clock.now_ns();
        self.log.push(parent, 0, name, start, end);
        (result, end - start)
    }

    fn report(&mut self, name: &'static str, value: f64, note: &str) {
        self.out.push(measured(name, value, note.to_string()));
    }
}

fn request_of(conn: usize, idx: usize, op: Op) -> SharedReq<KvOp> {
    Arc::new(Req::new(
        Timestamp::new((idx * CONNS + conn) as i64 + 1),
        Dot::new(ReplicaId::new(conn as u32), idx as u64 + 1),
        op.level,
        op.to_kv(conn, idx),
    ))
}

/// Rung 1: what one operation costs in the codecs alone — the `Wire`
/// round trip of a `Req<KvOp>` (what replicas exchange and log), and the
/// client protocol's request encode, borrowed decode and reply encode.
fn rung_codecs(l: &mut Ladder) {
    const REPS: usize = 8;
    let reqs: Vec<(u64, Level, KvOp, SharedReq<KvOp>)> = l
        .in_due_order()
        .map(|(c, i, op)| {
            (
                (i * CONNS + c) as u64,
                op.level,
                op.to_kv(c, i),
                request_of(c, i, op),
            )
        })
        .collect();
    let per_op = |ns: u64| ns as f64 / (REPS * reqs.len()) as f64;
    let root = l
        .log
        .push(0, 0, "rung1.codecs", l.clock.now_ns(), l.clock.now_ns());
    let mut buf = Vec::with_capacity(256);
    let (_, wire_ns) = l.timed(root, "types.wire_round_trip", || {
        for _ in 0..REPS {
            for (_, _, _, req) in &reqs {
                buf.clear();
                req.as_ref().encode(&mut buf);
                black_box(Req::<KvOp>::from_bytes(black_box(&buf)).expect("own encoding"));
            }
        }
    });
    let mut out = Vec::with_capacity(64);
    let (_, codec_ns) = l.timed(root, "server.codec", || {
        for _ in 0..REPS {
            for (tag, level, op, _) in &reqs {
                buf.clear();
                let request = Request::Op {
                    tag: *tag,
                    level: *level,
                    op: op.clone(),
                };
                encode_frame(&mut buf, &request);
                black_box(RequestView::view_from_bytes(black_box(&buf[4..])).expect("own frame"));
                out.clear();
                encode_ok_response(&mut out, *tag, &Value::Int(*tag as i64));
                black_box(ResponseMsg::from_bytes(black_box(&out[4..])).expect("own frame"));
            }
        }
    });
    l.report(
        "types.wire_ns_per_op",
        per_op(wire_ns),
        "Req<KvOp> encode + decode",
    );
    l.report(
        "server.codec_ns_per_op",
        per_op(codec_ns),
        "request encode + view, Ok reply encode + decode (includes the op's clone)",
    );
}

/// Rung 2: the state object alone — execute every operation, then roll
/// all of them back.
fn rung_data(l: &mut Ladder) {
    let work: Vec<(Dot, KvOp)> = l
        .in_due_order()
        .map(|(c, i, op)| {
            (
                Dot::new(ReplicaId::new(c as u32), i as u64 + 1),
                op.to_kv(c, i),
            )
        })
        .collect();
    let root = l
        .log
        .push(0, 0, "rung2.data", l.clock.now_ns(), l.clock.now_ns());
    let mut state = DeltaState::<KvStore>::new();
    let (_, exec_ns) = l.timed(root, "data.execute", || {
        for (id, op) in &work {
            black_box(state.execute(*id, op));
        }
    });
    let (_, back_ns) = l.timed(root, "data.rollback", || {
        for (id, _) in work.iter().rev() {
            state.rollback(*id);
        }
    });
    let n = work.len() as f64;
    l.report(
        "data.execute_ns_per_op",
        exec_ns as f64 / n,
        "DeltaState<KvStore>::execute",
    );
    l.report(
        "data.rollback_ns_per_op",
        back_ns as f64 / n,
        "LIFO rollback of all of them",
    );
}

fn decided(slot: u64, req: &SharedReq<KvOp>) -> TobEvent<SharedReq<KvOp>> {
    TobEvent::Decided {
        slot,
        sender: req.dot.replica(),
        seq: slot,
        payload: req.clone(),
    }
}

fn storage_err(e: bayou_storage::StorageError) -> io::Error {
    io::Error::other(format!("storage rung: {e}"))
}

/// Rung 3: `ReplicaStore` on real files — what a weak put pays before it
/// may be answered (log + step sync), what a snapshot of a grown history
/// costs, and how long the directory the end-to-end run left takes to
/// recover.
fn rung_storage(l: &mut Ladder, data_dir: Option<&Path>) -> io::Result<()> {
    let root = l
        .log
        .push(0, 0, "rung3.storage", l.clock.now_ns(), l.clock.now_ns());
    let scratch = out_dir().join(format!("ladder-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let server_store = ServerConfig::default().store;
    let puts: Vec<SharedReq<KvOp>> = l
        .in_due_order()
        .filter(|(_, _, op)| op.kind == Kind::Put)
        .map(|(c, i, op)| request_of(c, i, op))
        .collect();

    // log + sync per operation, then per batch of 16
    let open = |name: &str, cfg: StoreConfig| {
        let backend = FileStorage::open(scratch.join(name)).map_err(storage_err)?;
        let (store, _) = ReplicaStore::<KvStore, _>::open(backend, 3, cfg).map_err(storage_err)?;
        Ok::<_, io::Error>(store)
    };
    let no_snapshots = StoreConfig {
        snapshot_every: u64::MAX,
        ..server_store
    };
    let mut store = open("sync", no_snapshots)?;
    let mut syncs: Vec<u64> = Vec::with_capacity(1_000);
    for (seq, req) in puts.iter().cycle().take(1_000).enumerate() {
        let (res, ns) = l.timed(root, "storage.log_and_sync", || {
            store
                .log_invoke(req, seq as u64)
                .and_then(|()| store.sync_step())
        });
        res.map_err(storage_err)?;
        syncs.push(ns);
    }
    syncs.sort_unstable();
    // 200 batches, going round the puts again where a workload has few
    const BATCHES: usize = 200;
    let mut batched_ns = 0;
    for b in 0..BATCHES {
        let (res, ns) = l.timed(root, "storage.log16_and_sync", || {
            for k in 0..16 {
                let seq = 1_000 + b * 16 + k;
                store.log_invoke(&puts[seq % puts.len()], seq as u64)?;
            }
            store.sync_step()
        });
        res.map_err(storage_err)?;
        batched_ns += ns;
    }
    drop(store);
    l.report(
        "storage.append_ns_per_op",
        batched_ns as f64 / (BATCHES * 16) as f64,
        "log_invoke x16 + one step sync, per operation",
    );
    l.report(
        "storage.sync_p50_us",
        percentile(&syncs, 50.0) as f64 / 1e3,
        "log_invoke + step sync, one operation",
    );
    let (pct, ns) = tail(&syncs);
    l.report(
        "storage.sync_p99_us",
        ns as f64 / 1e3,
        &format!("p{pct:.2} of {}", syncs.len()),
    );

    // a snapshot of the uncompacted history after 10^3 and 10^4 commits
    let unsynced = StoreConfig {
        sync_every_record: false,
        ..no_snapshots
    };
    let mut store = open("snapshot", unsynced)?;
    let mut commits = 0u64;
    for (name, upto) in [
        ("storage.snapshot_ms_1k", 1_000u64),
        ("storage.snapshot_ms_10k", 10_000),
    ] {
        while commits < upto {
            let req = &puts[commits as usize % puts.len()];
            store
                .log_tob_events(vec![decided(commits, req)])
                .map_err(storage_err)?;
            store.note_commit(req).map_err(storage_err)?;
            commits += 1;
        }
        let mut took = Vec::new();
        for _ in 0..3 {
            let (res, ns) = l.timed(root, "storage.write_snapshot", || store.write_snapshot());
            res.map_err(storage_err)?;
            took.push(ns as f64 / 1e6);
        }
        l.report(
            name,
            median(&mut took),
            "ReplicaStore::write_snapshot, median of 3",
        );
    }
    drop(store);

    // recovery of replica 0's directory as the end-to-end run left it
    let recover_ms = match data_dir {
        None => 0.0,
        Some(dir) => {
            let files = FileStorage::open(dir.join("replica-0")).map_err(storage_err)?;
            let backend = Prefixed::new(SharedBackend::new(files), GroupId::new(0));
            let (res, ns) = l.timed(root, "storage.recover", || {
                ReplicaStore::<KvStore, _>::open(backend, 3, server_store).map(|_| ())
            });
            res.map_err(storage_err)?;
            ns as f64 / 1e6
        }
    };
    l.report(
        "storage.recover_ms",
        recover_ms,
        "ReplicaStore::open on the run's replica-0 directory",
    );
    let _ = std::fs::remove_dir_all(&scratch);
    Ok(())
}

/// Rung 4: one replica, no storage, no peers — `core`'s own cost per
/// operation (invoke, speculate, a one-member Paxos, commit, respond)
/// under the simulator's event loop.
fn rung_single(l: &mut Ladder) {
    let mut cluster: BayouCluster<KvStore> = BayouCluster::new(ClusterConfig::new(1, l.seed));
    for (n, (c, i, op)) in l.in_due_order().enumerate() {
        let at = VirtualTime::from_micros(n as u64 + 1);
        cluster.invoke_at(at, ReplicaId::new(0), op.to_kv(c, i), op.level);
    }
    let (trace, ns) = l.timed(0, "rung4.core_single", || cluster.run());
    let answered = trace.events.iter().filter(|e| !e.is_pending()).count();
    l.report(
        "core.single_us_per_op",
        ns as f64 / 1e3 / l.count() as f64,
        &format!("host time of a 1-replica BayouCluster, {answered} answered"),
    );
}

/// Rung 5: three durable replicas over `MemDisk` under the simulated
/// clock, on the workload's schedule. A pure function of the seed: its
/// counts repeat exactly.
fn rung_sim(l: &mut Ladder) {
    let spec = l.spec;
    let disks: Vec<MemDisk> = (0..3).map(|_| MemDisk::new()).collect();
    let factory_disks = disks.clone();
    let store = ServerConfig::default().store;
    let lease = spec.lease.then(|| LeaseConfig::new(400_000, 40_000));
    let config = ClusterConfig::new(3, l.seed);
    let mut cluster: BayouCluster<KvStore> =
        BayouCluster::with_factory(config.sim, move |id: ReplicaId| {
            let mut replica = recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
                id,
                3,
                ProtocolMode::Improved,
                PaxosConfig::default(),
                factory_disks[id.index()].clone(),
                store,
            );
            replica.set_lease(lease);
            replica.meter_wire_bytes();
            replica
        });
    let mut last = VirtualTime::from_nanos(0);
    for (c, i, op) in l.in_due_order() {
        // as the server routes: strong reads go to the leaseholder
        let leased_read = spec.lease && op.level == Level::Strong && op.kind == Kind::Get;
        let home = if leased_read { 0 } else { c };
        last = VirtualTime::from_nanos(l.due[c][i] + 1_000_000);
        cluster.invoke_at(last, ReplicaId::new(home as u32), op.to_kv(c, i), op.level);
    }
    let deadline = last.saturating_add(VirtualTime::from_secs(10));
    let (trace, host_ns) = l.timed(0, "rung5.sim_cluster", || cluster.run_until(deadline));
    let n = l.count() as f64;
    let m = cluster.metrics();
    let wal_bytes: u64 = disks.iter().map(|d| d.stats().appended_bytes).sum();
    let mut commits: Vec<u64> = trace
        .events
        .iter()
        .filter(|e| e.meta.level == Level::Strong)
        .filter_map(|e| Some(e.returned_at?.saturating_sub(e.invoked_at).as_nanos()))
        .collect();
    commits.sort_unstable();
    let pending = trace.pending().count();
    let counts = [
        (
            "core.sim_msgs_per_op",
            m.messages_sent as f64 / n,
            "messages handed to the network",
        ),
        (
            "core.sim_steps_per_op",
            m.total_steps() as f64 / n,
            "handler executions",
        ),
        (
            "core.sim_internal_steps_per_op",
            m.internal_steps as f64 / n,
            "rollbacks and executes",
        ),
        (
            "storage.sim_fsyncs_per_op",
            m.fsyncs as f64 / n,
            "physical sync barriers",
        ),
        (
            "storage.sim_wal_bytes_per_op",
            wal_bytes as f64 / n,
            "bytes appended, three replicas",
        ),
        (
            "broadcast.sim_wire_bytes_per_op",
            m.wire_bytes as f64 / n,
            "encoded frame bytes sent",
        ),
    ];
    for (name, value, note) in counts {
        l.report(name, value, note);
    }
    l.report(
        "broadcast.sim_strong_commit_us",
        commits.get(commits.len() / 2).map_or(0.0, |ns| *ns as f64 / 1e3),
        &format!(
            "median virtual invoke-to-response of {} strong ops, 1 ms links; {pending} ops pending at the end",
            commits.len()
        ),
    );
    l.report(
        "sim.host_us_per_op",
        host_ns as f64 / 1e3 / n,
        "wall clock of the simulated run",
    );
}

/// One connection's position in the rung-6 replay.
#[derive(Default, Clone)]
struct Lane {
    next: usize,
    inflight: usize,
    flushing: bool,
    /// Send instant (closed loop) or due instant (open loop) per op.
    from: Vec<Option<Instant>>,
}

/// Rung 6: the in-memory `LiveCluster` of the very hosts the server
/// fronts, driven by `invoke` and `recv_output` from one thread: no
/// sockets, no codecs, no disk. Paced as the workload is.
fn rung_net(l: &mut Ladder) {
    let spec = l.spec;
    let lease = spec.lease.then(|| LeaseConfig::new(400_000, 40_000));
    let cluster: LiveCluster<KvHost> = LiveCluster::new(LiveConfig::new(3), move |_, n| {
        let group = BayouReplica::new(n, ProtocolMode::Improved, PaxosTob::with_defaults(n));
        let mut host = GroupedReplica::new(vec![group]);
        host.set_lease(lease);
        host
    });
    let per_conn = l.ops[0].len();
    let gid = GroupId::new(0);
    let mut lanes = vec![Lane::default(); CONNS];
    for lane in &mut lanes {
        lane.from = vec![None; per_conn];
    }
    let (mut weak, mut strong): (Vec<u64>, Vec<u64>) = (Vec::new(), Vec::new());
    let span_start = l.clock.now_ns();
    let start = Instant::now();
    let mut done = 0;
    let mut last_reply = start;
    while done < per_conn * CONNS && last_reply.elapsed() < Duration::from_secs(10) {
        let now = Instant::now();
        let mut wait = Duration::from_millis(50);
        for (c, lane) in lanes.iter_mut().enumerate() {
            while lane.next < per_conn {
                let op = l.ops[c][lane.next];
                let from = match spec.pacing {
                    Pacing::Open { .. } => {
                        let at = start + Duration::from_nanos(l.due[c][lane.next]);
                        if at > now {
                            wait = wait.min(at - now);
                            break;
                        }
                        at
                    }
                    Pacing::Closed { window, fenced, .. } => {
                        let flush = fenced && op.level == Level::Strong;
                        let blocked = lane.inflight >= window || lane.flushing;
                        if blocked || (flush && lane.inflight > 0) {
                            break;
                        }
                        lane.flushing = flush;
                        now
                    }
                };
                let leased_read = spec.lease && op.level == Level::Strong && op.kind == Kind::Get;
                let home = ReplicaId::new(if leased_read { 0 } else { c as u32 });
                let tag = (lane.next * CONNS + c) as u64;
                let inv = Invocation::new(op.to_kv(c, lane.next), op.level).with_tag(tag);
                cluster.invoke(home, (gid, inv));
                lane.from[lane.next] = Some(from);
                lane.next += 1;
                lane.inflight += 1;
            }
        }
        let Some((_, (_, response))) = cluster.recv_output(wait) else {
            continue;
        };
        let Some(tag) = response.tag else { continue };
        let (c, i) = (tag as usize % CONNS, tag as usize / CONNS);
        let Some(from) = lanes[c].from[i].take() else {
            continue;
        };
        last_reply = Instant::now();
        let latency = last_reply.saturating_duration_since(from).as_nanos() as u64;
        match l.ops[c][i].level {
            Level::Weak => weak.push(latency),
            Level::Strong => strong.push(latency),
        }
        lanes[c].inflight -= 1;
        lanes[c].flushing = false;
        done += 1;
    }
    let elapsed = last_reply.saturating_duration_since(start).as_secs_f64();
    l.log
        .push(0, 0, "rung6.live_cluster", span_start, l.clock.now_ns());
    cluster.shutdown();
    weak.sort_unstable();
    strong.sort_unstable();
    let p50_us = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            percentile(v, 50.0) as f64 / 1e3
        }
    };
    l.report(
        "net.ok_per_s",
        if elapsed > 0.0 {
            done as f64 / elapsed
        } else {
            0.0
        },
        &format!("{done} of {} answered in {elapsed:.3} s", per_conn * CONNS),
    );
    l.report(
        "net.weak_p50_us",
        p50_us(&weak),
        &format!("{} samples", weak.len()),
    );
    l.report(
        "net.strong_p50_us",
        p50_us(&strong),
        &format!("{} samples", strong.len()),
    );
}

/// What rung 7 reads off a server run.
struct ServerRung {
    ok_per_s: f64,
    weak_p50_us: f64,
    weak_p99_us: f64,
    strong_p50_us: f64,
}

fn value_of(list: &[Measured], name: &str) -> f64 {
    list.iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

fn server_rung(run: &EndToEnd) -> ServerRung {
    let m = crate::metrics::of_run(run);
    ServerRung {
        ok_per_s: value_of(&m.end_to_end, "ok_per_s"),
        weak_p50_us: value_of(&m.end_to_end, "weak_p50_us"),
        weak_p99_us: value_of(&m.per_layer, "server.weak_p99_us"),
        strong_p50_us: value_of(&m.end_to_end, "strong_p50_us"),
    }
}

/// The client-side spans of a traced server run: one `request` per
/// operation, from when it was due to when its reply was accounted,
/// with `send`, `wait` and `decode` below it. What is left of `request`
/// is the time the generator ran late.
fn client_spans(run: &EndToEnd, log: &mut SpanLog, offset_ns: u64) {
    for (c, records) in run.logs.iter().map(|l| &l.records).enumerate() {
        for (i, r) in records.iter().enumerate() {
            if r.decoded_ns == 0 {
                continue;
            }
            let op = (i * CONNS + c) as u64;
            let at = |ns: u64| offset_ns + ns;
            let root = log.push(
                0,
                op,
                "request",
                at(r.from_ns.min(r.send_start_ns)),
                at(r.decoded_ns),
            );
            log.push(root, op, "send", at(r.send_start_ns), at(r.sent_ns));
            log.push(root, op, "wait", at(r.sent_ns), at(r.done_ns));
            log.push(root, op, "decode", at(r.done_ns), at(r.decoded_ns));
        }
    }
}

/// Rung 7: the server over TCP with in-memory replicas, run untraced
/// and then traced, so that the tracing's own cost shows. Rung 8: the
/// server on files with an `fsync` per replica step, which the
/// end-to-end rounds leave out.
fn rung_server(l: &mut Ladder, p: Params, files_weak_p50_us: f64) -> io::Result<()> {
    let params = |traced, replicas| Params {
        traced,
        replicas,
        faults: false,
        ..p
    };
    let plain = server_rung(&run::run(params(false, Replicas::Memory))?);
    let offset = l.clock.now_ns();
    let traced_run = run::run(params(true, Replicas::Memory))?;
    l.log
        .push(0, 0, "rung7.server_in_memory", offset, l.clock.now_ns());
    let first = l.log.spans().len();
    client_spans(&traced_run, l.log, offset);
    let traced = server_rung(&traced_run);

    let self_times = l.log.self_times();
    let mean_self_us = |name: &str| {
        let spans = l.log.spans()[first..].iter().zip(&self_times[first..]);
        let own: Vec<u64> = spans
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| *t)
            .collect();
        own.iter().sum::<u64>() as f64 / own.len().max(1) as f64 / 1e3
    };
    let (send_us, decode_us) = (mean_self_us("send"), mean_self_us("decode"));
    let net_weak_p50 = value_of(&l.out, "net.weak_p50_us");
    l.report(
        "server.mem_ok_per_s",
        plain.ok_per_s,
        "data_dir: None, untraced",
    );
    l.report(
        "server.mem_weak_p50_us",
        plain.weak_p50_us,
        "data_dir: None, untraced",
    );
    l.report(
        "server.mem_strong_p50_us",
        plain.strong_p50_us,
        "data_dir: None, untraced",
    );
    l.report(
        "server.mem_weak_p99_us",
        plain.weak_p99_us,
        "data_dir: None, untraced",
    );
    l.report(
        "server.client_send_us",
        send_us,
        "mean self time of the send spans",
    );
    l.report(
        "server.client_decode_us",
        decode_us,
        "mean self time of the decode spans",
    );
    l.report(
        "server.tcp_overhead_us",
        plain.weak_p50_us - net_weak_p50,
        "rung 7 weak p50 - rung 6 weak p50: sockets, codecs, dispatcher",
    );
    l.report(
        "storage.durable_overhead_us",
        files_weak_p50_us - plain.weak_p50_us,
        "end-to-end weak p50 - rung 7 weak p50: WAL writes and snapshots",
    );
    l.report(
        "bench.trace_overhead_pct",
        100.0 * (traced.weak_p50_us - plain.weak_p50_us) / plain.weak_p50_us.max(1e-9),
        "rung 7 weak p50, traced against untraced",
    );

    let offset = l.clock.now_ns();
    // a quarter of the round: synced, a closed loop answers a fifth as
    // many operations a second
    let quarter = Params {
        tenths: (p.tenths / 4).max(1),
        ..params(false, Replicas::FilesSynced)
    };
    let synced_run = run::run(quarter)?;
    l.log
        .push(0, 0, "rung8.server_synced", offset, l.clock.now_ns());
    if let Some(dir) = &synced_run.data_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let synced = server_rung(&synced_run);
    let note = "StoreConfig::default(): an fsync per replica step, a snapshot per 64 commits; a quarter round";
    l.report("server.synced_ok_per_s", synced.ok_per_s, note);
    l.report("server.synced_weak_p50_us", synced.weak_p50_us, note);
    l.report("server.synced_strong_p50_us", synced.strong_p50_us, note);
    l.report(
        "storage.sync_overhead_us",
        synced.weak_p50_us - files_weak_p50_us,
        "rung 8 weak p50 - end-to-end weak p50: waiting for the device",
    );
    Ok(())
}

/// Climbs all the rungs and writes the spans out. `p` is the end-to-end
/// round `e2e` came from.
pub fn climb(p: Params, e2e: &EndToEnd, end_to_end: &[Measured]) -> io::Result<Vec<Measured>> {
    let per_conn = (p.spec.total_ops(p.tenths).min(LADDER_OPS) / CONNS).max(1);
    let mut log = SpanLog::default();
    let mut l = Ladder {
        spec: p.spec,
        seed: p.seed,
        ops: (0..CONNS)
            .map(|c| generate(p.spec, p.seed, c, per_conn))
            .collect(),
        due: (0..CONNS)
            .map(|c| due_times(p.spec, p.seed, c, per_conn))
            .collect(),
        log: &mut log,
        clock: SpanClock::new(),
        out: Vec::new(),
    };
    rung_codecs(&mut l);
    rung_data(&mut l);
    rung_storage(&mut l, e2e.data_dir.as_deref())?;
    rung_single(&mut l);
    rung_sim(&mut l);
    rung_net(&mut l);
    rung_server(&mut l, p, value_of(end_to_end, "weak_p50_us"))?;

    let out = l.out;
    let path = out_dir().join(format!("trace-{}.json", p.spec.name));
    std::fs::write(&path, log.to_json())?;
    Ok(out)
}
