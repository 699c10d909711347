//! Standard wiring of a durable Bayou process: one physical store,
//! one `ReplicaStore` + [`bayou_storage::Recovered::replay`] +
//! [`BayouReplica::recover`]
//! per group, hosted by a [`GroupedReplica`].
//!
//! [`recover_grouped_paxos`] is the one call a runtime needs: it opens
//! (or creates) every group's store on a shared [`Storage`] backend,
//! replays each store's records through a fresh Paxos endpoint — the
//! replay yields the delivery order, the pending requests and the
//! high-water marks that keep new dots and TOB-cast numbers collision
//! free — and hands the result to the replicas' recovery constructor.
//! On an empty store it degenerates to fresh replicas with persistence
//! attached — which is what makes it usable as a *factory*: the same
//! closure builds the initial host and, given the same backend handle,
//! its post-crash successor. A store that cannot be read yields a host
//! that is crash-stopped from the start. [`recover_paxos_replica`] is
//! its one-group case, the process a single-group server runs.

use crate::group::GroupedReplica;
use crate::replica::{BayouReplica, ProtocolMode};
use bayou_broadcast::{PaxosConfig, PaxosTob};
use bayou_data::{DataType, StateObject};
use bayou_storage::{Prefixed, ReplicaStore, SharedBackend, Storage, StoreConfig, SyncBarrier};
use bayou_types::{GroupId, ReplicaId, SharedReq, Wire};
use std::sync::Arc;

/// A host of Paxos-ordered groups, as the durable factories build it.
type PaxosHost<F, S> = GroupedReplica<F, PaxosTob<SharedReq<<F as DataType>::Op>>, S>;

/// Opens `backend` and returns the one-group process it describes:
/// fresh when the store is empty, recovered from snapshot + WAL
/// otherwise. Exactly [`recover_grouped_paxos`] with one group — the
/// group's files live under the `g0000-` prefix.
///
/// The restarted replica rejoins the cluster through the TOB's existing
/// cursor-deduplicated catch-up: its restored decided prefix keeps
/// catch-up traffic proportional to what it actually missed, and
/// re-delivered commits are idempotent at the replica.
///
/// # Crash-stop
///
/// If the store cannot be opened or its contents fail validation, the
/// host comes up crash-stopped with the typed error
/// ([`GroupedReplica::failure`]) — a replica with storage it cannot read
/// must not serve — and the runtime treats it as crashed, as after a
/// failed step barrier.
pub fn recover_paxos_replica<F, S, B>(
    me: ReplicaId,
    n: usize,
    mode: ProtocolMode,
    paxos: PaxosConfig,
    backend: B,
    store_cfg: StoreConfig,
) -> PaxosHost<F, S>
where
    F: DataType,
    F::Op: Wire,
    F::State: Wire,
    S: StateObject<F>,
    B: Storage + Send + 'static,
{
    recover_grouped_paxos(me, n, 1, mode, paxos, backend, store_cfg)
}

/// Opens one shared `backend` and recovers `groups` Bayou instances
/// from it — the durable factory of a sharded process. Each group's
/// WAL segments, snapshots and manifest live under its own `g{index}-`
/// prefix inside the one store ([`Prefixed`]); all groups' deferred
/// group-commit syncs funnel into one [`SyncBarrier`] the returned host
/// settles with a single physical fsync per step.
///
/// On an empty store this degenerates to `groups` fresh replicas, which
/// makes it usable as a runtime *factory*: the same closure builds the
/// initial host and, over the same backend handle, its post-crash
/// successor with every group restored.
///
/// # Crash-stop
///
/// If any group's store cannot be opened or fails validation, that
/// group comes up crash-stopped with the typed error, which crash-stops
/// the whole host (the store is shared).
pub fn recover_grouped_paxos<F, S, B>(
    me: ReplicaId,
    n: usize,
    groups: usize,
    mode: ProtocolMode,
    paxos: PaxosConfig,
    backend: B,
    store_cfg: StoreConfig,
) -> PaxosHost<F, S>
where
    F: DataType,
    F::Op: Wire,
    F::State: Wire,
    S: StateObject<F>,
    B: Storage + Send + 'static,
{
    let shared = SharedBackend::new(backend);
    let barrier = Arc::new(SyncBarrier::new());
    let replicas = GroupId::all(groups)
        .map(|gid| {
            let view = Prefixed::new(shared.clone(), gid);
            recover_group(me, n, mode, paxos, view, store_cfg, barrier.clone())
        })
        .collect();
    let mut host = GroupedReplica::new(replicas);
    let mut handle = shared;
    host.set_sync_barrier(barrier, move |dirty| {
        if dirty {
            handle.sync() // flushes first
        } else {
            handle.flush()
        }
    });
    host
}

/// Recovers one group's replica from its namespace of the shared store,
/// routing the store's deferred group-commit syncs to the host's
/// `barrier` ([`bayou_storage::ReplicaStore::defer_sync_to_barrier`]).
fn recover_group<F, S, B>(
    me: ReplicaId,
    n: usize,
    mode: ProtocolMode,
    paxos: PaxosConfig,
    backend: B,
    store_cfg: StoreConfig,
    barrier: Arc<SyncBarrier>,
) -> BayouReplica<F, PaxosTob<SharedReq<F::Op>>, S>
where
    F: DataType,
    F::Op: Wire,
    F::State: Wire,
    S: StateObject<F>,
    B: Storage + Send + 'static,
{
    let mut tob = PaxosTob::new(n, paxos);
    let (mut store, recovered) = match ReplicaStore::<F, B>::open(backend, n, store_cfg) {
        Ok(opened) => opened,
        Err(e) => return BayouReplica::crash_stopped(n, mode, tob, e),
    };
    store.defer_sync_to_barrier(barrier);
    let replayed = recovered.replay(&mut tob);
    BayouReplica::recover(me, mode, tob, replayed, Box::new(store))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bayou_data::{DeltaState, KvStore};
    use bayou_storage::{MemDisk, NullStorage};

    type R = PaxosHost<KvStore, DeltaState<KvStore>>;

    #[test]
    fn empty_store_yields_a_fresh_replica() {
        let r: R = recover_paxos_replica(
            ReplicaId::new(0),
            3,
            ProtocolMode::Improved,
            PaxosConfig::default(),
            MemDisk::new(),
            StoreConfig::default(),
        );
        let g = r.group(GroupId::new(0));
        assert!(g.committed_ids().is_empty());
        assert!(g.tentative_ids().is_empty());
        assert!(g.materialize().is_empty());
    }

    #[test]
    fn recovery_seq_marks_cover_fifo_blocked_decisions() {
        // regression: a request of ours can be decided while an earlier
        // cast of ours is still pending — it is then neither in
        // `pending` nor FIFO-released, but its (sender, seq) key and dot
        // must still count toward the recovery high-water marks, or the
        // first post-restart invoke collides and is silently dropped as
        // a TOB duplicate
        use crate::harness::BayouCluster;
        use bayou_broadcast::TobEvent;
        use bayou_data::KvOp;
        use bayou_storage::{MemDisk, Persistence};
        use bayou_types::{Dot, Level, Req, Timestamp, VirtualTime};
        use std::sync::Arc;

        let me = ReplicaId::new(0);
        let disk = MemDisk::new();
        let req = |event_no: u64, op: KvOp| {
            Arc::new(Req::new(
                Timestamp::new(event_no as i64),
                Dot::new(me, event_no),
                Level::Weak,
                op,
            ))
        };
        {
            let view = Prefixed::new(SharedBackend::new(disk.clone()), GroupId::new(0));
            let (mut store, _) =
                ReplicaStore::<KvStore, _>::open(view, 1, StoreConfig::default()).unwrap();
            let r1 = req(1, KvOp::put("a", 1)); // cast with seq 0, still pending
            let r2 = req(2, KvOp::put("b", 2)); // cast with seq 1, decided first
            store.log_invoke(&r1, 0).unwrap();
            store.log_invoke(&r2, 1).unwrap();
            store
                .log_tob_events(vec![TobEvent::Decided {
                    slot: 0,
                    sender: me,
                    seq: 1,
                    payload: r2,
                }])
                .unwrap();
        } // crash

        let factory_disk = disk.clone();
        let sim = bayou_sim::SimConfig::new(1, 3).with_max_time(VirtualTime::from_secs(20));
        let mut cluster: BayouCluster<KvStore> = BayouCluster::with_factory(sim, move |id| {
            recover_paxos_replica::<KvStore, DeltaState<KvStore>, _>(
                id,
                1,
                ProtocolMode::Improved,
                PaxosConfig::default(),
                factory_disk.clone(),
                StoreConfig::default(),
            )
        });
        // the recovered replica re-submits r1, unblocking r2's FIFO gap;
        // a fresh invoke must then get an unused seq/dot and commit too
        cluster.invoke_at(
            VirtualTime::from_millis(1),
            me,
            KvOp::put("c", 3),
            Level::Weak,
        );
        cluster.run_until(VirtualTime::from_secs(20));
        let committed = cluster.replica(me).committed_total();
        assert_eq!(
            committed, 3,
            "r1, r2 and the post-restart invoke must all commit"
        );
        let state = cluster.replica(me).materialize();
        assert_eq!(state.get("c"), Some(&3));
    }

    #[test]
    fn null_backend_works_as_a_factory_too() {
        let r: R = recover_paxos_replica(
            ReplicaId::new(1),
            3,
            ProtocolMode::Improved,
            PaxosConfig::default(),
            NullStorage,
            StoreConfig::default(),
        );
        assert!(r.group(GroupId::new(0)).committed_ids().is_empty());
    }
}
