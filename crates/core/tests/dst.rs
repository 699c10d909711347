//! Deterministic-simulation testing (DST): a FoundationDB-style
//! fault-injection harness. A single seed drives *everything* — the
//! workload, network partitions and their heal schedule, per-replica
//! clock skew and drift, fsync latency, message loss/duplication bursts,
//! and multi-replica simultaneous outages including quorum-loss windows
//! — layered over crash/restart recovery from shared `MemDisk`s (with
//! torn unsynced tails). After every schedule the harness asserts:
//!
//! * the run quiesces and the live replicas converge (identical states,
//!   agreeing committed orders — quorum-loss-aware);
//! * re-running the same seed reproduces the identical outcome;
//! * each replica's durable image, reopened after the run, is
//!   *equivalent to a prefix of the live history*;
//! * the compaction watermark catches all the way up at quiescence (the
//!   idle-time beacon closes the final window).
//!
//! On failure the harness prints a one-line repro
//! (`DST_SEED=… cargo test -p bayou-core --test dst -- --ignored fuzz
//! --nocapture`) and *shrinks* the fault schedule to a smaller one that
//! still fails ([`bayou_sim::shrink`]). The `fuzz` test (ignored by
//! default) is the long-running entry point: it walks seeds until the
//! `DST_SECONDS` wall-clock budget runs out, or replays exactly
//! `DST_SEED` when set. See `docs/TESTING.md`.

use bayou_broadcast::{PaxosConfig, PaxosTob};
use bayou_core::{
    recover_paxos_replica, BayouCluster, GroupedReplica, ProtocolMode, RunTrace, Served,
};
use bayou_data::{DataType, DeltaState, KvOp, KvStore};
use bayou_sim::{shrink, Fault, Nemesis, NemesisConfig, SimConfig};
use bayou_storage::{MemDisk, Prefixed, ReplicaStore, StoreConfig};
use bayou_types::{GroupId, LeaseConfig, Level, ReplicaId, ReqId, VirtualTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

fn ms(v: u64) -> VirtualTime {
    VirtualTime::from_millis(v)
}

type DurableReplica = GroupedReplica<
    KvStore,
    bayou_broadcast::PaxosTob<bayou_types::SharedReq<KvOp>>,
    DeltaState<KvStore>,
>;

/// A factory recovering replicas from per-replica disks; re-invocations
/// (restarts) first tear the disk's unsynced tail like a kernel panic.
fn dst_factory(
    n: usize,
    disks: Vec<MemDisk>,
    store_cfg: StoreConfig,
    lease: Option<LeaseConfig>,
    crash_seed: u64,
) -> impl FnMut(ReplicaId) -> DurableReplica {
    let incarnations = Rc::new(RefCell::new(vec![0u64; n]));
    move |id| {
        let mut inc = incarnations.borrow_mut();
        inc[id.index()] += 1;
        if inc[id.index()] > 1 {
            disks[id.index()].crash(crash_seed ^ (id.as_u32() as u64) ^ inc[id.index()]);
        }
        let mut r = recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
            id,
            n,
            ProtocolMode::Improved,
            PaxosConfig::default(),
            disks[id.index()].clone(),
            store_cfg,
        );
        r.set_lease(lease);
        r
    }
}

/// What one schedule produced, for determinism comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// Per replica: `(compacted prefix, retained committed ids)`.
    orders: Vec<(u64, Vec<ReqId>)>,
    /// Per replica: the materialised state.
    states: Vec<std::collections::BTreeMap<String, i64>>,
    /// Per replica: total commits ever delivered.
    totals: Vec<u64>,
    /// Lease-served strong reads across the run (0 for baseline cases).
    lease_reads: u64,
    /// `(end time, dispatched events)` — the full-trace fingerprint.
    trace: (VirtualTime, u64),
}

/// The parameters of one DST case, all derived from the seed.
#[derive(Debug, Clone, Copy)]
struct CaseOpts {
    n: usize,
    /// Leader lease: `None` is the all-TOB baseline; `Some` arms the
    /// fast read path, switches the workload to the strong-read-heavy
    /// mix, aims an extra fault at the leaseholder, and turns on the
    /// stale-read oracle. Lease runs never quiesce (the grant pump runs
    /// forever), so the quiescence and watermark assertions are waived.
    lease: Option<LeaseConfig>,
    /// Injected always-false "spec check" (fails whenever a partition
    /// dropped a message) — exercises the failure/shrink machinery
    /// deterministically. Never set by real cases.
    canary: bool,
}

fn case_opts(seed: u64) -> CaseOpts {
    CaseOpts {
        // mostly 3-replica clusters, every 4th case a 5-replica one
        n: if seed % 4 == 3 { 5 } else { 3 },
        lease: seed_lease(seed),
        canary: false,
    }
}

/// The seed's lease dimension: off for half the cases (the baseline
/// must keep passing bit-for-bit), else a duration swept across
/// 100–450 ms with an epsilon of a tenth — short enough that expiry
/// races happen inside every schedule, long enough to span several
/// 40 ms grant rounds.
fn seed_lease(seed: u64) -> Option<LeaseConfig> {
    if (seed >> 6).is_multiple_of(2) {
        None
    } else {
        Some(lease_sweep(seed))
    }
}

/// The swept lease parameters of a seed (used whenever a case forces
/// the lease on regardless of [`seed_lease`]'s coin flip).
fn lease_sweep(seed: u64) -> LeaseConfig {
    let duration_us = 100_000 + ((seed >> 7) % 8) * 50_000;
    LeaseConfig::new(duration_us, duration_us / 10)
}

fn nemesis_config() -> NemesisConfig {
    NemesisConfig::default().with_horizon(VirtualTime::from_secs(4))
}

fn nemesis_for(seed: u64, n: usize) -> Nemesis {
    Nemesis::generate(n, seed, &nemesis_config())
}

/// The lease fault family: the general nemesis schedule plus one fault
/// aimed squarely at the leaseholder. Replica 0 is the eventual leader
/// of every stable run, so the targeted fault lands on whoever is most
/// likely holding the lease:
///
/// * **skew/drift** — rates swept across 0.5–2.0×, mostly beyond the
///   allowed ratio `D/(D−ε) ≈ 1.11`, where the rate check must *disable*
///   the fast path rather than let it serve stale;
/// * **crash mid-lease** — the leaseholder dies with its guards still
///   live on the followers' clocks; a successor may not commit (or
///   serve) anything until they expire;
/// * **isolation** — the leaseholder keeps its lease but loses the
///   cluster; its window must lapse un-renewed before the majority side
///   makes progress;
/// * every fourth seed adds nothing: expiry races come from the base
///   schedule and the short swept durations alone.
fn lease_nemesis(seed: u64, n: usize) -> Nemesis {
    let mut faults = nemesis_for(seed, n).faults().to_vec();
    let leader = ReplicaId::new(0);
    match seed % 4 {
        0 => faults.push(Fault::ClockSkew {
            replica: leader,
            offset_us: -200_000 + ((seed >> 2) % 9) as i64 * 50_000,
            rate: [0.5, 0.9, 1.05, 1.2, 2.0][((seed >> 5) % 5) as usize],
        }),
        1 => faults.push(Fault::Outage {
            replica: leader,
            from: ms(1_200),
            until: ms(2_400),
        }),
        2 => faults.push(Fault::Partition {
            from: ms(900),
            until: ms(2_100),
            blocks: vec![vec![leader], ReplicaId::all(n).skip(1).collect()],
        }),
        _ => {}
    }
    Nemesis::from_faults(n, faults)
}

/// The nemesis a case runs under: lease cases get the targeted family.
fn nemesis_for_opts(seed: u64, opts: CaseOpts) -> Nemesis {
    if opts.lease.is_some() {
        lease_nemesis(seed, opts.n)
    } else {
        nemesis_for(seed, opts.n)
    }
}

/// The workload horizon of a schedule: invocations are sprayed across
/// the faults and for a while past the heal. Computed from the
/// *original* schedule and passed unchanged into every shrink
/// candidate, so shrinking re-runs the identical workload (dropping a
/// fault must not shift every invocation time).
fn workload_horizon_ms(faults: &[Fault], n: usize) -> u64 {
    Nemesis::from_faults(n, faults.to_vec())
        .heal_time()
        .as_nanos()
        / 1_000_000
        + 1_500
}

/// The environment of one case: the fault-applied simulator
/// configuration, the per-replica disks (fsync latency installed) and
/// the store configuration. Shared between the harness proper
/// ([`run_faults`]) and the `inspect` diagnostic so the two can never
/// drift apart.
fn case_env(
    seed: u64,
    faults: &[Fault],
    n: usize,
    work_until: u64,
) -> (SimConfig, Vec<MemDisk>, StoreConfig, VirtualTime) {
    let nem = Nemesis::from_faults(n, faults.to_vec());
    let deadline = VirtualTime::from_millis(work_until) + VirtualTime::from_secs(60);
    let disks: Vec<MemDisk> = (0..n).map(|_| MemDisk::new()).collect();
    for r in ReplicaId::all(n) {
        if let Some(latency) = nem.fsync_latency(r) {
            disks[r.index()].set_fsync_latency(latency);
        }
    }
    let store_cfg = StoreConfig {
        snapshot_every: 8,
        ..Default::default()
    };
    let sim = nem.apply(SimConfig::new(n, seed).with_max_time(deadline));
    (sim, disks, store_cfg, deadline)
}

/// The seed's mixed workload: `(time, replica, op)` triples, identical
/// for the harness and the `inspect` diagnostic.
fn workload_ops(seed: u64, n: usize, work_until: u64) -> Vec<(VirtualTime, ReplicaId, KvOp)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x574F_524B); // "WORK"
    let n_ops = rng.gen_range(40..120u64);
    (0..n_ops)
        .map(|_| {
            let at = rng.gen_range(1..work_until);
            let replica = ReplicaId::new(rng.gen_range(0..n as u32));
            let op = match rng.gen_range(0..4u8) {
                0 => KvOp::put(
                    format!("k{}", rng.gen_range(0..9u8)),
                    rng.gen_range(-50..50i64),
                ),
                1 => KvOp::put_if_absent(
                    format!("k{}", rng.gen_range(0..9u8)),
                    rng.gen_range(0..9i64),
                ),
                2 => KvOp::remove(format!("k{}", rng.gen_range(0..9u8))),
                _ => KvOp::get(format!("k{}", rng.gen_range(0..9u8))),
            };
            (ms(at), replica, op)
        })
        .collect()
}

/// The lease cases' workload: strong reads dominate (the fast path under
/// attack), mixed with enough strong updates to keep the linearization
/// frontier moving and weak traffic to keep speculation busy.
fn lease_workload_ops(
    seed: u64,
    n: usize,
    work_until: u64,
) -> Vec<(VirtualTime, ReplicaId, KvOp, Level)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x4C45_4153); // "LEAS"
    let n_ops = rng.gen_range(60..140u64);
    (0..n_ops)
        .map(|_| {
            let at = rng.gen_range(1..work_until);
            let replica = ReplicaId::new(rng.gen_range(0..n as u32));
            let key = format!("k{}", rng.gen_range(0..9u8));
            let (op, level) = match rng.gen_range(0..10u8) {
                0..=4 => (KvOp::get(key), Level::Strong),
                5 | 6 => (KvOp::put(key, rng.gen_range(-50..50i64)), Level::Strong),
                7 => (
                    KvOp::put_if_absent(key, rng.gen_range(0..9i64)),
                    Level::Strong,
                ),
                8 => (KvOp::put(key, rng.gen_range(-50..50i64)), Level::Weak),
                _ => (KvOp::get(key), Level::Weak),
            };
            (ms(at), replica, op, level)
        })
        .collect()
}

/// The lease linearizability oracle: a lease-served strong read carries
/// the committed frontier it answered from; every strong *update* that
/// returned anywhere before the read was invoked must sit inside that
/// frontier (its global TOB position below `committed`). A violation is
/// a stale strong read — the one thing the lease machinery must never
/// produce, under any combination of skew, drift, crashes and
/// partitions. The trace's TOB order is the cluster's record of every
/// commit, so an update's position is always known: a missing one is a
/// hard failure, however much the replicas compacted.
///
/// One class of record is excluded as unreadable rather than wrong:
/// **restart chimeras**. A lease-served read leaves no durable trace, so
/// a restarted replica may reuse its dot; the harness then pairs the
/// *new* invocation's record with the *old* invocation's stray response.
/// The surviving record is always from the final incarnation while the
/// stray response predates the restart, so a chimera is exactly a
/// record that returned before it was invoked — skip those on both
/// sides of the comparison.
fn assert_no_stale_lease_reads(seed: u64, trace: &RunTrace<KvOp>) -> u64 {
    let chimera =
        |e: &bayou_core::EventRecord<KvOp>| e.returned_at.is_some_and(|r| r < e.invoked_at);
    let mut lease_reads = 0u64;
    for e in &trace.events {
        let Some(Served::Lease { committed }) = e.served else {
            continue;
        };
        if chimera(e) {
            continue;
        }
        lease_reads += 1;
        for w in &trace.events {
            if w.meta.level != Level::Strong || KvStore::is_read_only(&w.op) || chimera(w) {
                continue;
            }
            let Some(ret) = w.returned_at else { continue };
            if ret >= e.invoked_at {
                continue;
            }
            let no = trace.tob_no(w.meta.id()).unwrap_or_else(|| {
                panic!(
                    "seed {seed}: strong update {} returned without a TOB delivery",
                    w.meta.id()
                )
            });
            assert!(
                (no as u64) < committed,
                "seed {seed}: STALE lease read {} (invoked {}, frontier {committed}) \
                 missed strong update {} (returned {ret}, tobNo {no})",
                e.meta.id(),
                e.invoked_at,
                w.meta.id(),
            );
        }
    }
    lease_reads
}

/// Durable-prefix equivalence: reopen each disk (forked, read-only
/// probe) and check the recovered delivery order against the live
/// replica's committed order wherever the two overlap — the durable
/// image must be a prefix of the live history, never ahead of it.
fn assert_durable_prefix_equivalence(
    label: &str,
    cluster: &BayouCluster<KvStore>,
    disks: &[MemDisk],
    store_cfg: StoreConfig,
    n: usize,
) {
    for r in ReplicaId::all(n) {
        let probe = Prefixed::new(disks[r.index()].fork(), GroupId::new(0));
        let (_s, recovered) = ReplicaStore::<KvStore, _>::open(probe, n, store_cfg)
            .unwrap_or_else(|e| panic!("{label}: durable image of {r} unreadable: {e}"));
        // the durable facts, replayed through the protocol's own TOB
        let replayed = recovered.replay(&mut PaxosTob::with_defaults(n));
        let rec_off = replayed.mark.delivered as usize;
        let rec_ids: Vec<ReqId> = replayed.deliveries.iter().map(|q| q.id()).collect();
        let live = cluster.replica(r);
        let live_off = live.compacted_count() as usize;
        let live_ids = live.committed_ids();
        let from = rec_off.max(live_off);
        let until = (rec_off + rec_ids.len()).min(live_off + live_ids.len());
        if from < until {
            assert_eq!(
                &rec_ids[from - rec_off..until - rec_off],
                &live_ids[from - live_off..until - live_off],
                "{label}: durable image of {r} disagrees with its live history"
            );
        }
        assert!(
            rec_off + rec_ids.len() <= live_off + live_ids.len(),
            "{label}: durable image of {r} is ahead of its live history"
        );
    }
}

/// Runs one schedule and asserts every DST invariant; panics on
/// violation (the caller decides whether a panic is a test failure or a
/// fuzz finding to shrink). `work_until` is the workload horizon — for
/// shrink candidates, the *original* schedule's, not the candidate's.
fn run_faults(seed: u64, faults: &[Fault], opts: CaseOpts, work_until: u64) -> Outcome {
    let n = opts.n;
    let (sim, disks, store_cfg, deadline) = case_env(seed, faults, n, work_until);
    let mut cluster: BayouCluster<KvStore> = BayouCluster::with_factory(
        sim,
        dst_factory(n, disks.clone(), store_cfg, opts.lease, seed),
    );
    if opts.lease.is_some() {
        for (at, replica, op, level) in lease_workload_ops(seed, n, work_until) {
            cluster.invoke_at(at, replica, op, level);
        }
    } else {
        for (at, replica, op) in workload_ops(seed, n, work_until) {
            cluster.invoke_at(at, replica, op, Level::Weak);
        }
    }

    let trace = cluster.run_until(deadline);
    let mut lease_reads = 0u64;
    if opts.lease.is_none() {
        assert!(trace.quiescent, "seed {seed}: schedule must quiesce");
    } else {
        // the grant pump never lets a lease run quiesce, but the data
        // plane must still make progress: commits reach everyone by the
        // deadline (a lease wedging elections would show up here), and
        // no lease-served read may ever be stale
        assert!(
            cluster
                .committed_totals(GroupId::new(0))
                .iter()
                .all(|&t| t > 0),
            "seed {seed}: a lease run made no commit progress"
        );
        lease_reads = assert_no_stale_lease_reads(seed, &trace);
    }
    if opts.canary {
        let dropped = cluster.metrics().messages_dropped_partition;
        assert!(dropped == 0, "canary: partition dropped {dropped} messages");
    }
    // every outage in the schedule was paired with a restart, so at
    // quiescence the whole cluster is alive again; the quorum-loss-aware
    // check degenerates to the strict one (and catches unexpected deaths)
    for r in ReplicaId::all(n) {
        assert!(
            !cluster.is_down(r),
            "seed {seed}: {r} is unexpectedly dead at quiescence"
        );
    }
    cluster.assert_convergence_alive();

    assert_durable_prefix_equivalence(&format!("seed {seed}"), &cluster, &disks, store_cfg, n);

    // watermark catch-up: at quiescence the idle-time beacon must have
    // closed the final speculation window — every replica's committed
    // prefix is fully compacted, nothing stays resident forever (lease
    // runs are exempt: without quiescence the final window never closes)
    if opts.lease.is_none() {
        for r in ReplicaId::all(n) {
            let live = cluster.replica(r);
            assert_eq!(
                live.compacted_count(),
                live.committed_total(),
                "seed {seed}: watermark never caught up at {r} \
                 (retained {} of {} commits at quiescence)",
                live.committed_ids().len(),
                live.committed_total(),
            );
        }
    }

    Outcome {
        orders: ReplicaId::all(n)
            .map(|r| {
                (
                    cluster.replica(r).compacted_count(),
                    cluster.replica(r).committed_ids(),
                )
            })
            .collect(),
        states: ReplicaId::all(n)
            .map(|r| cluster.replica(r).materialize())
            .collect(),
        totals: cluster.committed_totals(GroupId::new(0)),
        lease_reads,
        trace: (trace.end_time, cluster.metrics().total_steps()),
    }
}

/// Generates the seed's schedule and runs it (the determinism-test
/// body).
fn run_case(seed: u64, opts: CaseOpts) -> Outcome {
    let nem = nemesis_for_opts(seed, opts);
    let work_until = workload_horizon_ms(nem.faults(), opts.n);
    run_faults(seed, nem.faults(), opts, work_until)
}

/// Generates the seed's schedule, runs the checked case, and reports
/// (one-line repro + shrunken schedule) on failure — the shared body of
/// the fuzz loop and the randomized proptests, so case construction can
/// never drift between the tier that found a failure and the tier that
/// replays it.
fn check_case(seed: u64, opts: CaseOpts) {
    let nem = nemesis_for_opts(seed, opts);
    let work_until = workload_horizon_ms(nem.faults(), opts.n);
    if let Err(msg) = run_checked(seed, nem.faults(), opts, work_until) {
        report_failure(seed, nem.faults(), opts, &msg);
    }
}

// ---- failure capture, reproduction and shrinking ------------------------

thread_local! {
    /// Whether panics on *this* thread are expected (being caught by
    /// [`run_checked`]) and should not print.
    static SILENT_PANICS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs a schedule catching the first violated assertion; `Err` carries
/// the panic message. The panic hook is process-global, so instead of
/// swapping hooks per call (which races with concurrent test threads
/// and would silence *their* genuine failures), a delegating hook is
/// installed once: it suppresses output only for threads that opted in
/// through the thread-local flag and forwards everything else to the
/// previous hook.
fn run_checked(
    seed: u64,
    faults: &[Fault],
    opts: CaseOpts,
    work_until: u64,
) -> Result<Outcome, String> {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SILENT_PANICS.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
    SILENT_PANICS.with(|s| s.set(true));
    let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        run_faults(seed, faults, opts, work_until)
    }));
    SILENT_PANICS.with(|s| s.set(false));
    res.map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string())
    })
}

/// A digit-insensitive failure signature: the first line of the panic
/// message with every digit removed. Stable across shrink candidates
/// (counts and times change; the violated invariant does not).
fn failure_kind(msg: &str) -> String {
    msg.lines()
        .next()
        .unwrap_or("")
        .chars()
        .filter(|c| !c.is_ascii_digit())
        .collect()
}

/// The one-line repro for a failing case. The failing check may have
/// run with options other than `case_opts(seed)` (the proptests pin
/// their own), so the line pins them explicitly via `DST_N` and the
/// lease pair — the fuzz entry
/// honours the overrides, making the replay exact regardless of which
/// tier found the failure.
fn repro_line(seed: u64, opts: CaseOpts) -> String {
    format!(
        "DST_SEED={seed} DST_N={} DST_LEASE_MS={} DST_EPSILON_US={} cargo test -p bayou-core --test dst -- --ignored fuzz --nocapture",
        opts.n,
        opts.lease.map_or(0, |l| l.duration_us / 1_000),
        opts.lease.map_or(0, |l| l.epsilon_us),
    )
}

/// Shrinks a failing schedule: keeps removing faults while the same
/// class of failure still reproduces under the same seed *and the same
/// workload* — the horizon is computed from the original schedule once,
/// so dropping a fault never shifts the invocation times (which would
/// make unrelated faults look load-bearing).
fn shrink_failure(seed: u64, faults: &[Fault], opts: CaseOpts, kind: &str) -> Vec<Fault> {
    let work_until = workload_horizon_ms(faults, opts.n);
    shrink(
        faults,
        |cand| matches!(run_checked(seed, cand, opts, work_until), Err(m) if failure_kind(&m) == kind),
    )
}

/// Prints the one-line repro and the shrunken schedule, then fails the
/// test with the original message.
fn report_failure(seed: u64, faults: &[Fault], opts: CaseOpts, msg: &str) -> ! {
    let kind = failure_kind(msg);
    let shrunk = shrink_failure(seed, faults, opts, &kind);
    eprintln!("=== DST failure at seed {seed} ({opts:?}) ===");
    eprintln!("{msg}");
    eprintln!("repro: {}", repro_line(seed, opts));
    eprintln!(
        "shrunken schedule ({} of {} faults still failing):\n{:#?}",
        shrunk.len(),
        faults.len(),
        shrunk
    );
    panic!(
        "DST failure at seed {seed}: {msg}\nrepro: {}",
        repro_line(seed, opts)
    );
}

// ---- the long-running fuzz entry point ----------------------------------

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The fuzz loop: `DST_SECONDS` (default 10) of wall-clock budget, seeds
/// walked sequentially from `DST_SEED` (default: derived from the
/// clock). With `DST_SEED` set and `DST_SECONDS` unset, exactly that one
/// seed is replayed — the repro mode the failure report points at.
/// `DST_N` and `DST_LEASE_MS` / `DST_EPSILON_US` pin
/// the case options a repro line recorded; without them each seed uses
/// `case_opts(seed)`.
///
/// Run with:
/// `cargo test -p bayou-core --test dst -- --ignored fuzz --nocapture`
#[test]
#[ignore = "long-running fuzz loop; see docs/TESTING.md"]
fn fuzz() {
    use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
    let fixed = env_u64("DST_SEED");
    let budget = Duration::from_secs(env_u64("DST_SECONDS").unwrap_or(10));
    let single = fixed.is_some() && env_u64("DST_SECONDS").is_none();
    let mut seed = fixed.unwrap_or_else(|| {
        SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
    });
    let start = Instant::now();
    let mut cases = 0u64;
    loop {
        let mut opts = case_opts(seed);
        if let Some(n) = env_u64("DST_N") {
            opts.n = n as usize;
        }
        if let Some(lease_ms) = env_u64("DST_LEASE_MS") {
            opts.lease = (lease_ms != 0).then(|| {
                LeaseConfig::new(
                    lease_ms * 1_000,
                    env_u64("DST_EPSILON_US").unwrap_or(lease_ms * 100),
                )
            });
        }
        check_case(seed, opts);
        cases += 1;
        if single || start.elapsed() >= budget {
            break;
        }
        seed = seed.wrapping_add(1);
    }
    eprintln!(
        "fuzz: {cases} case(s) ok in {:.1}s (last seed {seed})",
        start.elapsed().as_secs_f32()
    );
}

// ---- seeded proptests (the bounded always-on tier) ----------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..Default::default() })]

    /// Randomized full-nemesis schedules (partitions, skew, fsync
    /// latency, loss/duplication bursts, outages incl. quorum-loss
    /// windows) converge, keep their durable images equivalent to the
    /// live history, quiesce, and compact fully at quiescence.
    #[test]
    fn randomized_fault_schedules_converge(seed in 0u64..1_000_000) {
        check_case(seed, CaseOpts {
            n: 3,
            lease: None,
            canary: false,
        });
    }

    /// The lease fault family: strong-read-heavy workloads under
    /// leader-targeted skew/drift/crash/partition schedules (on top of
    /// the general nemesis). Every lease-served read is checked against
    /// the linearizability oracle; convergence and durable-prefix
    /// equivalence still hold.
    #[test]
    fn randomized_lease_schedules_never_serve_stale_reads(seed in 0u64..1_000_000) {
        check_case(seed, CaseOpts {
            n: 3,
            lease: Some(lease_sweep(seed)),
            canary: false,
        });
    }

    /// Determinism: a seed fully determines the outcome — end time,
    /// event count, orders and states (the backbone of the harness: a
    /// failing seed is a reproducible bug report). The seed's lease
    /// dimension is included, so lease runs must be as replayable as
    /// the baseline.
    #[test]
    fn schedules_are_deterministic(seed in 0u64..1_000_000) {
        let opts = case_opts(seed);
        prop_assert_eq!(run_case(seed, opts), run_case(seed, opts));
    }
}

// ---- lease fault family (deterministic schedules) -----------------------

/// Non-vacuity of the oracle: a fault-free lease schedule actually
/// produces lease-served reads, so the fuzz families' "zero stale reads"
/// verdict is a statement about exercised code, not an empty set.
#[test]
fn fault_free_lease_schedule_serves_lease_reads() {
    let opts = CaseOpts {
        n: 3,
        lease: Some(LeaseConfig::default()),
        canary: false,
    };
    let out = run_faults(5, &[], opts, 2_500);
    assert!(
        out.lease_reads > 0,
        "the fast path never engaged on a fault-free schedule"
    );
}

/// Drift beyond epsilon: the leaseholder's clock runs slow (followers'
/// guards expire in real time before the leader's window does — the
/// dangerous direction). The rate check must exclude the followers and
/// fall back to TOB; either way, no stale read.
#[test]
fn leader_clock_drift_beyond_epsilon_never_serves_stale() {
    let faults = vec![Fault::ClockSkew {
        replica: ReplicaId::new(0),
        offset_us: 150_000,
        rate: 0.5,
    }];
    let opts = CaseOpts {
        n: 3,
        lease: Some(LeaseConfig::default()),
        canary: false,
    };
    run_faults(9, &faults, opts, 2_500);
}

/// The leaseholder crashes with its guards still live on the followers'
/// clocks; the successor must wait them out before committing anything.
/// The oracle checks every lease-served read on both sides of the
/// failover.
#[test]
fn leader_crash_mid_lease_never_serves_stale() {
    let faults = vec![Fault::Outage {
        replica: ReplicaId::new(0),
        from: ms(1_000),
        until: ms(2_200),
    }];
    let opts = CaseOpts {
        n: 3,
        lease: Some(LeaseConfig::default()),
        canary: false,
    };
    run_faults(13, &faults, opts, 3_000);
}

/// The leaseholder is partitioned away mid-lease: its window lapses
/// un-renewed, the majority side takes over, and reads served by either
/// side stay linearizable.
#[test]
fn partitioned_leaseholder_never_serves_stale() {
    let faults = vec![Fault::Partition {
        from: ms(900),
        until: ms(2_100),
        blocks: vec![
            vec![ReplicaId::new(0)],
            vec![ReplicaId::new(1), ReplicaId::new(2)],
        ],
    }];
    let opts = CaseOpts {
        n: 3,
        lease: Some(LeaseConfig::default()),
        canary: false,
    };
    run_faults(17, &faults, opts, 3_000);
}

/// Exec traces resolve against the incarnation that produced them: in
/// this schedule a replica answers, crashes and recovers, and resolving
/// the pre-crash response against the recovered state object (whose
/// trace is shorter than the response's stable prefix) panics. Found by
/// the lease fuzz slice (`DST_SEED=109 DST_N=3 DST_LEASE_MS=100
/// DST_EPSILON_US=10000`, then under an 80 µs flush deferral since
/// deleted).
#[test]
fn pinned_trace_resolution_seed() {
    let opts = CaseOpts {
        n: 3,
        lease: Some(LeaseConfig::new(100_000, 10_000)),
        canary: false,
    };
    check_case(109, opts);
}

// ---- quorum-loss windows (deterministic schedules) ----------------------

/// Builds the quorum-loss schedule used by the window tests: a
/// 5-replica cluster where 3 replicas (a majority) are down during
/// `[2s, 4s)`, plus a skewed clock and a loss burst for spice.
fn quorum_loss_faults() -> Vec<Fault> {
    vec![
        Fault::Outage {
            replica: ReplicaId::new(1),
            from: ms(2_000),
            until: ms(4_000),
        },
        Fault::Outage {
            replica: ReplicaId::new(2),
            from: ms(2_000),
            until: ms(4_000),
        },
        Fault::Outage {
            replica: ReplicaId::new(3),
            from: ms(2_000),
            until: ms(4_000),
        },
        Fault::ClockSkew {
            replica: ReplicaId::new(4),
            offset_us: -50_000,
            rate: 0.5,
        },
        Fault::LossBurst {
            from: ms(500),
            until: ms(1_200),
            loss: 0.3,
            duplicate: 0.2,
        },
    ]
}

/// During a quorum-loss window no new commit is decided anywhere; weak
/// operations on the survivors stay available; after the heal the
/// cluster converges, the durable images match the live history, and
/// the watermark catches all the way up.
#[test]
fn quorum_loss_window_blocks_commits_until_heal() {
    let n = 5;
    let seed = 42;
    let faults = quorum_loss_faults();
    let nem = Nemesis::from_faults(n, faults.clone());
    assert_eq!(
        nem.quorum_loss_windows(),
        vec![(ms(2_000), ms(4_000))],
        "the schedule is a quorum-loss window"
    );

    let disks: Vec<MemDisk> = (0..n).map(|_| MemDisk::new()).collect();
    let store_cfg = StoreConfig {
        snapshot_every: 8,
        ..Default::default()
    };
    let deadline = VirtualTime::from_secs(60);
    let sim = nem.apply(SimConfig::new(n, seed).with_max_time(deadline));
    let mut cluster: BayouCluster<KvStore> =
        BayouCluster::with_factory(sim, dst_factory(n, disks.clone(), store_cfg, None, seed));

    // workload: before, during and after the window, on all replicas
    let mut rng = StdRng::seed_from_u64(seed);
    for k in 0..60u64 {
        let at = 1 + k * 90; // 1 .. 5.3s
        let replica = ReplicaId::new(rng.gen_range(0..n as u32));
        cluster.invoke_at(
            ms(at),
            replica,
            KvOp::put(format!("k{}", k % 7), k as i64),
            Level::Weak,
        );
    }

    // settle into the window: in-flight pre-window messages are long
    // delivered by 2.5s (delays are ~1ms, pumps 40ms)
    cluster.run_until(ms(2_500));
    assert!(cluster.is_down(ReplicaId::new(1)), "window is open");
    let totals_mid = cluster.committed_totals(GroupId::new(0));

    // run to just before the heal: commits must not have advanced —
    // with 3 of 5 replicas down there is no quorum to decide anything
    let trace = cluster.run_until(ms(3_950));
    assert!(!trace.quiescent, "still inside the schedule");
    let totals_late = cluster.committed_totals(GroupId::new(0));
    assert_eq!(
        totals_mid, totals_late,
        "commits were decided during a quorum-loss window"
    );

    // weak invocations on survivors during the window respond anyway
    // (eventual availability does not need a quorum)
    let survivors = [ReplicaId::new(0), ReplicaId::new(4)];
    let during_window: Vec<_> = trace
        .events
        .iter()
        .filter(|e| {
            e.invoked_at >= ms(2_100) && e.invoked_at < ms(3_900) && survivors.contains(&e.replica)
        })
        .collect();
    assert!(
        !during_window.is_empty(),
        "workload must exercise the window"
    );
    for e in &during_window {
        assert!(
            e.returned_at.is_some(),
            "weak op {} on survivor {} hung during quorum loss",
            e.meta.id(),
            e.replica
        );
    }

    // heal: everyone restarts from disk, the cluster converges
    let trace = cluster.run_until(deadline);
    assert!(trace.quiescent, "post-heal run must quiesce");
    for r in ReplicaId::all(n) {
        assert!(!cluster.is_down(r), "{r} still down after the heal");
    }
    cluster.assert_convergence_alive();
    let totals_end = cluster.committed_totals(GroupId::new(0));
    assert!(
        totals_end[0] > totals_mid[0],
        "commits resume after the heal"
    );

    assert_durable_prefix_equivalence("quorum-loss window", &cluster, &disks, store_cfg, n);

    // compaction watermark catch-up after the heal
    for r in ReplicaId::all(n) {
        let live = cluster.replica(r);
        assert_eq!(
            live.compacted_count(),
            live.committed_total(),
            "watermark never caught up at {r} after the quorum-loss window"
        );
    }
}

/// A total outage: *every* replica is down at once, all restart from
/// their (torn) disks, and the cluster still converges.
#[test]
fn full_cluster_outage_recovers_from_disks() {
    let n = 3;
    let faults: Vec<Fault> = ReplicaId::all(n)
        .map(|r| Fault::Outage {
            replica: r,
            from: ms(1_500 + 100 * r.as_u32() as u64),
            until: ms(3_000 + 150 * r.as_u32() as u64),
        })
        .collect();
    let nem = Nemesis::from_faults(n, faults.clone());
    assert!(!nem.quorum_loss_windows().is_empty(), "total outage");
    let opts = CaseOpts {
        n,
        lease: None,
        canary: false,
    };
    let work_until = workload_horizon_ms(&faults, n);
    run_faults(7, &faults, opts, work_until);
}

// ---- the failure/shrink machinery itself --------------------------------

/// Acceptance check for the harness: an (injected) spec-check failure is
/// deterministic, prints a one-line seed repro that reproduces the same
/// failure, and shrinking returns a strictly smaller schedule that still
/// fails — here, the single partition fault out of a five-fault
/// schedule, because the canary check fires exactly when a partition
/// drops a message.
#[test]
fn injected_failure_reproduces_and_shrinks_to_the_culprit() {
    let n = 3;
    let seed = 11;
    let opts = CaseOpts {
        n,
        lease: None,
        canary: true,
    };
    let partition = Fault::Partition {
        from: ms(800),
        until: ms(1_600),
        blocks: vec![
            vec![ReplicaId::new(0)],
            vec![ReplicaId::new(1), ReplicaId::new(2)],
        ],
    };
    let faults = vec![
        Fault::ClockSkew {
            replica: ReplicaId::new(1),
            offset_us: 30_000,
            rate: 1.5,
        },
        Fault::Outage {
            replica: ReplicaId::new(2),
            from: ms(300),
            until: ms(700),
        },
        partition.clone(),
        Fault::LossBurst {
            from: ms(100),
            until: ms(400),
            loss: 0.2,
            duplicate: 0.1,
        },
        Fault::FsyncLatency {
            replica: ReplicaId::new(0),
            latency: VirtualTime::from_micros(300),
        },
    ];

    let work_until = workload_horizon_ms(&faults, n);
    // the schedule fails (the canary sees partition drops) …
    let msg = run_checked(seed, &faults, opts, work_until).expect_err("canary must fire");
    assert!(msg.starts_with("canary:"), "unexpected failure: {msg}");
    // … deterministically: replaying the seed reproduces it verbatim,
    // which is what makes the printed one-line repro trustworthy
    assert_eq!(
        run_checked(seed, &faults, opts, work_until).expect_err("still fails"),
        msg,
        "same seed, same failure"
    );
    // the repro line pins the exact options this failure ran with
    assert_eq!(
        repro_line(seed, opts),
        format!(
            "DST_SEED={seed} DST_N=3 DST_LEASE_MS=0 DST_EPSILON_US=0 cargo test -p bayou-core --test dst -- --ignored fuzz --nocapture"
        )
    );

    // shrinking keeps the failure and strictly reduces the schedule —
    // down to exactly the partition the canary is sensitive to
    let kind = failure_kind(&msg);
    let shrunk = shrink_failure(seed, &faults, opts, &kind);
    assert!(
        shrunk.len() < faults.len(),
        "shrinking must remove something"
    );
    assert_eq!(shrunk, vec![partition], "minimal reproducer");
    // still failing under the *original* workload horizon — the oracle
    // contract shrink_failure guarantees its candidates
    let still =
        run_checked(seed, &shrunk, opts, work_until).expect_err("shrunken schedule still fails");
    assert_eq!(failure_kind(&still), kind);
}

/// Diagnostic companion to `fuzz`: replays one seed's schedule on the
/// raw simulator (skipping the harness assertions and trace building)
/// and dumps each replica's list and TOB cursor state. This is how a
/// wedged or diverged seed is dissected:
/// `DST_SEED=<seed> cargo test -p bayou-core --test dst -- --ignored inspect --nocapture`
#[test]
#[ignore = "diagnostic tool, run explicitly with DST_SEED"]
fn inspect() {
    use bayou_core::Invocation;
    let seed = env_u64("DST_SEED").unwrap_or(0);
    let mut opts = case_opts(seed);
    if let Some(n) = env_u64("DST_N") {
        opts.n = n as usize;
    }
    let n = opts.n;
    let nem = nemesis_for(seed, n);
    eprintln!("faults: {:#?}", nem.faults());
    // identical case construction to run_faults — shared helpers, so
    // this diagnostic can never drift from what the harness actually ran
    let work_until = workload_horizon_ms(nem.faults(), n);
    let (sim_cfg, disks, store_cfg, deadline) = case_env(seed, nem.faults(), n, work_until);
    let mut sim = bayou_sim::Sim::new(
        sim_cfg,
        dst_factory(n, disks.clone(), store_cfg, opts.lease, seed),
    );
    for (at, replica, op) in workload_ops(seed, n, work_until) {
        let inv = Invocation::new(op, Level::Weak);
        sim.schedule_input(at, replica, (GroupId::new(0), inv));
    }
    let report = sim.run_until(deadline);
    eprintln!("quiescent={} end={}", report.quiescent, report.end_time);
    for r in ReplicaId::all(n) {
        use bayou_broadcast::Tob;
        let rep = sim.process(r).group(GroupId::new(0));
        let tob = rep.tob();
        eprintln!(
            "{r}: compacted={} total={} tentative={} awaiting={} | tob delivered={} floor={} log={:?} released={:?}",
            rep.compacted_count(),
            rep.committed_total(),
            rep.tentative_ids().len(),
            rep.awaiting_responses(),
            tob.delivered_count(),
            tob.stable_delivered(),
            tob.decided_log()
                .iter()
                .map(|(s, sender, q)| (*s, sender.as_u32(), *q))
                .collect::<Vec<_>>(),
            ReplicaId::all(n).map(|s| tob.released_seq(s)).collect::<Vec<_>>(),
        );
        eprintln!(
            "  cursors (prefix, fifo_cursor, delivered, floor) = {:?}",
            tob.debug_cursors()
        );
    }
}
