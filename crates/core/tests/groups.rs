//! Multi-group (sharded) replication tests: N independent Bayou groups
//! multiplexed per process must behave like N independent clusters —
//! converging per group, never leaking state across groups, recovering
//! *all* groups from the one shared store, and isolating faults: a
//! stalled group must not block commits or regress watermarks in its
//! neighbours.
//!
//! The DST dimension lives here too: the `fuzz` entry point (ignored by
//! default) layers the full `Nemesis` fault families — partitions,
//! outages with torn-disk restarts, clock skew, fsync latency,
//! loss/duplication bursts — over 1–4 groups per seed
//! (`DST_GROUPS` pins it) and asserts per-group convergence,
//! determinism and durable-prefix equivalence.

use bayou_broadcast::{PaxosConfig, PaxosTob};
use bayou_core::{recover_grouped_paxos, BayouCluster, GroupedReplica, Invocation, ProtocolMode};
use bayou_data::{DeltaState, KvOp, KvStore};
use bayou_sim::{Nemesis, NemesisConfig, SimConfig};
use bayou_storage::{MemDisk, Prefixed, ReplicaStore, StoreConfig};
use bayou_types::{GroupId, Level, ReplicaId, ReqId, SharedReq, VirtualTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

fn ms(v: u64) -> VirtualTime {
    VirtualTime::from_millis(v)
}

type DurableHost =
    GroupedReplica<KvStore, bayou_broadcast::PaxosTob<SharedReq<KvOp>>, DeltaState<KvStore>>;

/// A factory recovering grouped hosts from per-replica shared disks;
/// re-invocations (restarts) first tear the disk's unsynced tail —
/// which is shared by every group's WAL, so one torn tail hits all
/// groups at once, exactly like a real kernel panic under one store.
fn grouped_factory(
    n: usize,
    groups: usize,
    disks: Vec<MemDisk>,
    store_cfg: StoreConfig,
    crash_seed: u64,
) -> impl FnMut(ReplicaId) -> DurableHost {
    let incarnations = Rc::new(RefCell::new(vec![0u64; n]));
    move |id| {
        let mut inc = incarnations.borrow_mut();
        inc[id.index()] += 1;
        if inc[id.index()] > 1 {
            disks[id.index()].crash(crash_seed ^ (id.as_u32() as u64) ^ inc[id.index()]);
        }
        recover_grouped_paxos::<KvStore, DeltaState<KvStore>, _>(
            id,
            n,
            groups,
            ProtocolMode::Improved,
            PaxosConfig::default(),
            disks[id.index()].clone(),
            store_cfg,
        )
    }
}

/// A key owned by `gid`: group-namespaced, so cross-group leakage shows
/// up as a foreign key in a group's materialized state.
fn gkey(gid: GroupId, k: u64) -> String {
    format!("g{}k{}", gid.index(), k)
}

/// The seed's sharded workload: `(time, replica, group, op, level)`
/// tuples, every key namespaced by its group. Every 8th op is strong, so
/// TOB rounds run under every fault.
fn grouped_workload(
    seed: u64,
    n: usize,
    groups: usize,
    work_until: u64,
) -> Vec<(VirtualTime, ReplicaId, GroupId, KvOp, Level)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5348_4152); // "SHAR"
    let n_ops = rng.gen_range(40..100u64);
    (0..n_ops)
        .map(|k| {
            let at = ms(rng.gen_range(1..work_until));
            let replica = ReplicaId::new(rng.gen_range(0..n as u32));
            let gid = GroupId::new(rng.gen_range(0..groups as u32));
            let op = match rng.gen_range(0..3u8) {
                0 => KvOp::put(gkey(gid, rng.gen_range(0..6)), rng.gen_range(-50..50i64)),
                1 => KvOp::remove(gkey(gid, rng.gen_range(0..6))),
                _ => KvOp::get(gkey(gid, rng.gen_range(0..6))),
            };
            let level = if k % 8 == 7 {
                Level::Strong
            } else {
                Level::Weak
            };
            (at, replica, gid, op, level)
        })
        .collect()
}

/// Durable-prefix equivalence, per group: reopen each replica's forked
/// disk through every group's [`Prefixed`] view and check the recovered
/// delivery order against that group's live committed order over the
/// retained overlap — each group's durable image must be a prefix of
/// its own live history, never ahead of it.
fn assert_grouped_durable_prefix(
    label: &str,
    cluster: &BayouCluster<KvStore>,
    disks: &[MemDisk],
    store_cfg: StoreConfig,
    n: usize,
    groups: usize,
) {
    for r in ReplicaId::all(n) {
        let probe = disks[r.index()].fork();
        for gid in GroupId::all(groups) {
            let view = Prefixed::new(probe.clone(), gid);
            let (_s, recovered) = ReplicaStore::<KvStore, _>::open(view, n, store_cfg)
                .unwrap_or_else(|e| panic!("{label}: durable image of {r}/{gid} unreadable: {e}"));
            // the durable facts, replayed through the protocol's own TOB
            let replayed = recovered.replay(&mut PaxosTob::with_defaults(n));
            let rec_off = replayed.mark.delivered as usize;
            let rec_ids: Vec<ReqId> = replayed.deliveries.iter().map(|q| q.id()).collect();
            let live = cluster.host(r).group(gid);
            let live_off = live.compacted_count() as usize;
            let live_ids = live.committed_ids();
            let from = rec_off.max(live_off);
            let until = (rec_off + rec_ids.len()).min(live_off + live_ids.len());
            if from < until {
                assert_eq!(
                    &rec_ids[from - rec_off..until - rec_off],
                    &live_ids[from - live_off..until - live_off],
                    "{label}: durable image of {r}/{gid} disagrees with its live history"
                );
            }
            assert!(
                rec_off + rec_ids.len() <= live_off + live_ids.len(),
                "{label}: durable image of {r}/{gid} is ahead of its live history"
            );
        }
    }
}

/// No cross-group leakage: every key in a group's materialized state
/// carries that group's namespace prefix.
fn assert_no_foreign_keys(cluster: &BayouCluster<KvStore>, n: usize, groups: usize) {
    for r in ReplicaId::all(n) {
        for gid in GroupId::all(groups) {
            let prefix = format!("g{}k", gid.index());
            for key in cluster.host(r).group(gid).materialize().keys() {
                assert!(
                    key.starts_with(&prefix),
                    "{r}/{gid} holds foreign key {key:?} — groups leaked state"
                );
            }
        }
    }
}

/// What one grouped schedule produced, for determinism comparison.
#[derive(Debug, PartialEq)]
struct GroupedOutcome {
    /// Per group, per replica: `(compacted prefix, retained ids)`.
    orders: Vec<Vec<(u64, Vec<ReqId>)>>,
    /// Per group, per replica: the materialised state.
    states: Vec<Vec<std::collections::BTreeMap<String, i64>>>,
    /// Per group: per-replica commit totals.
    totals: Vec<Vec<u64>>,
    /// `(end time, dispatched events)` — the full-trace fingerprint.
    trace: (VirtualTime, u64),
}

/// The parameters of one grouped DST case, derived from the seed.
#[derive(Debug, Clone, Copy)]
struct GroupedOpts {
    n: usize,
    groups: usize,
}

fn grouped_opts(seed: u64) -> GroupedOpts {
    GroupedOpts {
        n: 3,
        // the DST_GROUPS dimension: 1–4 groups per seed
        groups: (seed % 4) as usize + 1,
    }
}

/// Runs one full-nemesis grouped schedule and asserts every invariant:
/// quiescence, per-group convergence, no cross-group leakage, per-group
/// durable-prefix equivalence, and full watermark catch-up in every
/// group.
fn run_grouped_case(seed: u64, opts: GroupedOpts) -> GroupedOutcome {
    let GroupedOpts { n, groups } = opts;
    let nem = Nemesis::generate(
        n,
        seed,
        &NemesisConfig::default().with_horizon(VirtualTime::from_secs(4)),
    );
    let work_until = nem.heal_time().as_nanos() / 1_000_000 + 1_500;
    let deadline = ms(work_until) + VirtualTime::from_secs(60);
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
    let mut cluster: BayouCluster<KvStore> = BayouCluster::with_factory(
        sim,
        grouped_factory(n, groups, disks.clone(), store_cfg, seed),
    );
    for (at, replica, gid, op, level) in grouped_workload(seed, n, groups, work_until) {
        cluster.schedule_in(at, replica, gid, Invocation::new(op, level));
    }

    cluster.run_until(deadline);
    assert!(cluster.quiescent(), "seed {seed}: schedule must quiesce");
    // every outage in a Nemesis schedule is paired with a restart, so at
    // quiescence the whole cluster is alive again
    for r in ReplicaId::all(n) {
        assert!(
            !cluster.is_down(r),
            "seed {seed}: {r} is unexpectedly dead at quiescence"
        );
    }
    for gid in GroupId::all(groups) {
        cluster.assert_group_convergence(gid, &[]);
        for r in ReplicaId::all(n) {
            let live = cluster.host(r).group(gid);
            assert_eq!(
                live.compacted_count(),
                live.committed_total(),
                "seed {seed}: watermark never caught up at {r}/{gid}"
            );
        }
    }
    assert_no_foreign_keys(&cluster, n, groups);
    assert_grouped_durable_prefix(
        &format!("seed {seed}"),
        &cluster,
        &disks,
        store_cfg,
        n,
        groups,
    );

    GroupedOutcome {
        orders: GroupId::all(groups)
            .map(|gid| {
                ReplicaId::all(n)
                    .map(|r| {
                        let rep = cluster.host(r).group(gid);
                        (rep.compacted_count(), rep.committed_ids())
                    })
                    .collect()
            })
            .collect(),
        states: GroupId::all(groups)
            .map(|gid| {
                ReplicaId::all(n)
                    .map(|r| cluster.host(r).group(gid).materialize())
                    .collect()
            })
            .collect(),
        totals: GroupId::all(groups)
            .map(|gid| cluster.committed_totals(gid))
            .collect(),
        trace: (cluster.now(), cluster.metrics().total_steps()),
    }
}

// ---- deterministic schedules --------------------------------------------

/// Fresh (non-durable) hosts at every group count: per-group
/// convergence, exact commit totals, and no cross-group key leakage.
#[test]
fn fresh_hosts_converge_at_every_group_count() {
    for groups in 1..=4usize {
        let n = 3;
        let sim = SimConfig::new(n, 17).with_max_time(VirtualTime::from_secs(30));
        let mut cluster: BayouCluster<KvStore> =
            BayouCluster::grouped(sim, groups, ProtocolMode::Improved);
        let mut per_group = vec![0u64; groups];
        for k in 0..24u64 {
            let gid = GroupId::new((k % groups as u64) as u32);
            let replica = ReplicaId::new((k % n as u64) as u32);
            cluster.schedule_in(
                ms(1 + k * 3),
                replica,
                gid,
                Invocation::new(KvOp::put(gkey(gid, k % 5), k as i64), Level::Weak),
            );
            per_group[gid.index()] += 1;
        }
        cluster.run_until(VirtualTime::from_secs(30));
        assert!(cluster.quiescent(), "{groups} groups: must quiesce");
        assert_eq!(
            cluster.responses().len(),
            24,
            "{groups} groups: every op responds"
        );
        for gid in GroupId::all(groups) {
            cluster.assert_group_convergence(gid, &[]);
            assert_eq!(
                cluster.committed_totals(gid),
                vec![per_group[gid.index()]; n],
                "{groups} groups: {gid} commit total"
            );
        }
        assert_no_foreign_keys(&cluster, n, groups);
    }
}

/// Crash/restart with a torn shared WAL tail: after the heal, *all*
/// groups are restored from the one store and re-converge, and each
/// group's durable image stays a prefix of its live history.
#[test]
fn crash_restart_recovers_every_group_from_one_store() {
    let n = 3;
    let groups = 3;
    let seed = 23;
    let store_cfg = StoreConfig {
        snapshot_every: 8,
        ..Default::default()
    };
    let disks: Vec<MemDisk> = (0..n).map(|_| MemDisk::new()).collect();
    let deadline = VirtualTime::from_secs(60);
    let sim = SimConfig::new(n, seed)
        .with_max_time(deadline)
        .with_crash(ms(60), ReplicaId::new(1))
        .with_restart(ms(300), ReplicaId::new(1));
    let mut cluster: BayouCluster<KvStore> = BayouCluster::with_factory(
        sim,
        grouped_factory(n, groups, disks.clone(), store_cfg, seed),
    );
    for k in 0..30u64 {
        let gid = GroupId::new((k % groups as u64) as u32);
        // all ops go through replica 0 (never down) so none are dropped
        // at a dead process; replica 1 must still recover and converge
        cluster.schedule_in(
            ms(1 + k * 20), // spans the crash window
            ReplicaId::new(0),
            gid,
            Invocation::new(KvOp::put(gkey(gid, k % 4), k as i64), Level::Weak),
        );
    }
    cluster.run_until(deadline);
    assert!(cluster.quiescent(), "crash/restart schedule must quiesce");
    for gid in GroupId::all(groups) {
        cluster.assert_group_convergence(gid, &[]);
        let totals = cluster.committed_totals(gid);
        assert_eq!(totals, vec![10; n], "{gid}: all ops commit after heal");
    }
    assert_no_foreign_keys(&cluster, n, groups);
    assert_grouped_durable_prefix("crash/restart", &cluster, &disks, store_cfg, n, groups);
}

/// The isolation property, deterministic edition: group 0 loses its
/// quorum (muted on two of three replicas) while group 1 keeps running.
/// Group 1 must keep committing, converging and advancing its
/// compaction watermark; group 0 must stall without regressing; after
/// the heal group 0 catches up via retransmission.
#[test]
fn stalled_group_does_not_block_or_regress_its_neighbour() {
    let n = 3;
    let groups = 2;
    let (g0, g1) = (GroupId::new(0), GroupId::new(1));
    let sim = SimConfig::new(n, 7).with_max_time(VirtualTime::from_secs(120));
    let mut cluster: BayouCluster<KvStore> =
        BayouCluster::grouped(sim, groups, ProtocolMode::Improved);

    // phase 1: both groups commit normally
    for k in 0..6u64 {
        let gid = GroupId::new((k % 2) as u32);
        cluster.schedule_in(
            ms(1 + k),
            ReplicaId::new((k % n as u64) as u32),
            gid,
            Invocation::new(KvOp::put(gkey(gid, k), k as i64), Level::Weak),
        );
    }
    cluster.run_until(ms(2_000));
    let g0_before = cluster.committed_totals(g0);
    let g1_before = cluster.committed_totals(g1);
    assert_eq!(g0_before, vec![3; n], "phase 1: group 0 committed");
    assert_eq!(g1_before, vec![3; n], "phase 1: group 1 committed");

    // stall group 0: mute it on replicas 1 and 2 — no quorum remains
    cluster.mute(ReplicaId::new(1), g0, true);
    cluster.mute(ReplicaId::new(2), g0, true);

    // phase 2: traffic to both groups
    for k in 0..8u64 {
        let gid = GroupId::new((k % 2) as u32);
        cluster.schedule_in(
            ms(2_100 + k * 10),
            ReplicaId::new(0),
            gid,
            Invocation::new(KvOp::put(gkey(gid, 10 + k), k as i64), Level::Weak),
        );
    }
    cluster.run_until(ms(30_000));

    // group 0 stalled — no new commits anywhere, nothing regressed
    let g0_mid = cluster.committed_totals(g0);
    assert_eq!(
        g0_mid, g0_before,
        "group 0 must not commit without its quorum"
    );
    // group 1 sailed on: all phase-2 ops committed, full convergence
    let g1_mid = cluster.committed_totals(g1);
    assert_eq!(g1_mid, vec![7; n], "group 1 commits while group 0 stalls");
    cluster.assert_group_convergence(g1, &[]);
    // …and its history kept growing (the next test checks that its
    // compaction watermark catches up meanwhile)
    assert!(
        g1_mid[0] > g1_before[0],
        "group 1's history must advance during group 0's stall"
    );

    // heal: unmute; retransmission delivers the parked group-0 traffic
    cluster.mute(ReplicaId::new(1), g0, false);
    cluster.mute(ReplicaId::new(2), g0, false);
    cluster.run_until(VirtualTime::from_secs(120));
    assert_eq!(
        cluster.committed_totals(g0),
        vec![7; n],
        "group 0 catches up after the heal"
    );
    cluster.assert_group_convergence(g0, &[]);
    cluster.assert_group_convergence(g1, &[]);
    assert_no_foreign_keys(&cluster, n, groups);
}

/// The same isolation property with durable stores:
/// while group 0 is stalled, group 1's compaction watermark must catch
/// all the way up to its committed total — a stalled neighbour must not
/// pin group 1's retained history.
#[test]
fn neighbour_watermark_advances_while_group_is_stalled() {
    let n = 3;
    let groups = 2;
    let seed = 31;
    let (g0, g1) = (GroupId::new(0), GroupId::new(1));
    let store_cfg = StoreConfig {
        snapshot_every: 4,
        ..Default::default()
    };
    let disks: Vec<MemDisk> = (0..n).map(|_| MemDisk::new()).collect();
    let sim = SimConfig::new(n, seed).with_max_time(VirtualTime::from_secs(120));
    let mut cluster: BayouCluster<KvStore> = BayouCluster::with_factory(
        sim,
        grouped_factory(n, groups, disks.clone(), store_cfg, seed),
    );

    for k in 0..4u64 {
        for gid in GroupId::all(groups) {
            cluster.schedule_in(
                ms(1 + k * 2 + gid.as_u32() as u64),
                ReplicaId::new((k % n as u64) as u32),
                gid,
                Invocation::new(KvOp::put(gkey(gid, k), k as i64), Level::Weak),
            );
        }
    }
    cluster.run_until(ms(2_000));
    assert_eq!(cluster.committed_totals(g0), vec![4; n]);

    cluster.mute(ReplicaId::new(1), g0, true);
    cluster.mute(ReplicaId::new(2), g0, true);
    let g0_watermarks: Vec<u64> = ReplicaId::all(n)
        .map(|r| cluster.host(r).group(g0).compacted_count())
        .collect();

    for k in 0..10u64 {
        cluster.schedule_in(
            ms(2_100 + k * 10),
            ReplicaId::new((k % n as u64) as u32),
            g1,
            Invocation::new(KvOp::put(gkey(g1, 10 + k), k as i64), Level::Weak),
        );
    }
    cluster.run_until(ms(60_000));

    // group 1: committed and fully compacted despite the stalled peer
    assert_eq!(cluster.committed_totals(g1), vec![14; n]);
    cluster.assert_group_convergence(g1, &[]);
    for r in ReplicaId::all(n) {
        let live = cluster.host(r).group(g1);
        assert_eq!(
            live.compacted_count(),
            live.committed_total(),
            "group 1's watermark must catch up at {r} while group 0 is stalled"
        );
        // group 0's watermark froze, it must not have regressed
        assert!(
            cluster.host(r).group(g0).compacted_count() >= g0_watermarks[r.index()],
            "group 0's watermark regressed at {r}"
        );
    }
    assert_grouped_durable_prefix("stalled neighbour", &cluster, &disks, store_cfg, n, groups);
}

/// Grouped DST seeds that never quiesced or never converged before two
/// Paxos liveness fixes (ROADMAP item 1): 5485, a stale leader that Ω
/// trusted again retransmitting under a ballot the acceptors had
/// promised past (now refused with a `Nack`, and outbid); 7894, 12692
/// and 17637, a laggard Ω trusted next in an idle group that was never
/// caught up once the old leader stepped down or restarted (now the
/// former leader, or the restarted replica, keeps shipping what it
/// decided). Four groups. Seed 513, the original report, failed the
/// first way under the weak-only workload of the time. 12452 never
/// quiesced once every group compacted: a leader counted a peer that
/// had caught up from someone else as owed the slots below the
/// compaction floor, and pumped forever with nothing to send.
#[test]
fn pinned_liveness_seeds() {
    for seed in [5485, 7894, 12692, 17637, 513, 12452] {
        run_grouped_case(seed, GroupedOpts { n: 3, groups: 4 });
    }
}

// ---- seeded proptests (the bounded always-on tier) ----------------------

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..Default::default() })]

    /// Randomized full-nemesis schedules over 1–4 groups: every group
    /// converges independently, durable images stay prefix-equivalent
    /// per group, no state leaks across groups, and every group's
    /// watermark catches up.
    #[test]
    fn grouped_fault_schedules_converge_per_group(seed in 0u64..1_000_000) {
        run_grouped_case(seed, grouped_opts(seed));
    }

    /// Determinism with groups: a seed fully determines every group's
    /// outcome — orders, states, totals and the trace fingerprint.
    #[test]
    fn grouped_schedules_are_deterministic(seed in 0u64..1_000_000) {
        let opts = grouped_opts(seed);
        prop_assert_eq!(run_grouped_case(seed, opts), run_grouped_case(seed, opts));
    }
}

// ---- the long-running fuzz entry point ----------------------------------

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.trim().parse().ok()
}

/// The grouped fuzz loop: like the `dst` fuzz but with the group-count
/// dimension. `DST_SECONDS` (default 10) of wall-clock budget, seeds
/// walked from `DST_SEED`; `DST_GROUPS` (1–4) pins the group count,
/// `DST_N` the cluster size.
///
/// Run with:
/// `cargo test -p bayou-core --test groups -- --ignored fuzz --nocapture`
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
        let mut opts = grouped_opts(seed);
        if let Some(g) = env_u64("DST_GROUPS") {
            opts.groups = (g as usize).clamp(1, 4);
        }
        if let Some(n) = env_u64("DST_N") {
            opts.n = n as usize;
        }
        if let Err(e) = std::panic::catch_unwind(|| run_grouped_case(seed, opts)) {
            eprintln!(
                "repro: DST_SEED={seed} DST_GROUPS={} DST_N={} \
                 cargo test -p bayou-core --test groups -- --ignored fuzz --nocapture",
                opts.groups, opts.n
            );
            std::panic::resume_unwind(e);
        }
        cases += 1;
        if single || start.elapsed() >= budget {
            break;
        }
        seed = seed.wrapping_add(1);
    }
    eprintln!(
        "groups fuzz: {cases} case(s) ok in {:.1}s (last seed {seed}); \
         repro: DST_SEED=<seed> DST_GROUPS=<g> cargo test -p bayou-core --test groups -- --ignored fuzz --nocapture",
        start.elapsed().as_secs_f32()
    );
}
