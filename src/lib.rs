//! **Bayou Revisited** — a full Rust reproduction of *On mixing eventual
//! and strong consistency: Bayou revisited* (Kokociński, Kobus &
//! Wojciechowski, PODC 2019; arXiv:1905.11762).
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |-------|----------|
//! | [`types`] | identifiers, time, requests, the runtime abstraction |
//! | [`data`] | replicated data types + undo-capable state objects (Alg. 3) |
//! | [`sim`] | deterministic discrete-event simulator (network, partitions, clocks, CPUs, Ω) |
//! | [`broadcast`] | links, reliable broadcast, FIFO release, Paxos & sequencer TOB |
//! | [`core`] | the Bayou replica (Alg. 1 & Alg. 2), the process hosting it, cluster harness, comparators |
//! | [`storage`] | durable replicas: segmented WAL, snapshots, manifest, crash recovery |
//! | [`spec`] | the formal framework: histories, BEC/FEC/Seq checkers, Theorem 1 solver |
//! | [`net`] | live threaded runtime |
//! | [`bench`](mod@bench) | experiment drivers regenerating every figure and theorem |
//!
//! # Quickstart
//!
//! ```
//! use bayou::prelude::*;
//!
//! // Three simulated replicas over a key-value store.
//! let mut cluster: BayouCluster<KvStore> = BayouCluster::new(ClusterConfig::new(3, 42));
//!
//! // A weak (highly-available, tentative) put, then a strong
//! // (consensus-backed) putIfAbsent racing against it.
//! cluster.invoke_at(
//!     VirtualTime::from_millis(1),
//!     ReplicaId::new(0),
//!     KvOp::put("config", 1),
//!     Level::Weak,
//! );
//! cluster.invoke_at(
//!     VirtualTime::from_millis(50),
//!     ReplicaId::new(1),
//!     KvOp::put_if_absent("config", 2),
//!     Level::Strong,
//! );
//!
//! let trace = cluster.run();
//! cluster.assert_convergence(&[]);
//!
//! // The run is also a formal history: build the paper's abstract
//! // execution witness and check Fluctuating Eventual Consistency and
//! // sequential consistency of strong operations.
//! let witness = build_witness::<KvStore>(&trace)?;
//! assert!(check_fec::<KvStore>(&witness, Level::Weak, &CheckOptions::default()).ok());
//! assert!(check_seq::<KvStore>(&witness, Level::Strong).ok());
//! # Ok::<(), bayou::types::BayouError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bayou_bench as bench;
pub use bayou_broadcast as broadcast;
pub use bayou_core as core;
pub use bayou_data as data;
pub use bayou_net as net;
pub use bayou_sim as sim;
pub use bayou_spec as spec;
pub use bayou_storage as storage;
pub use bayou_types as types;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use bayou_broadcast::{PaxosTob, SequencerTob, Tob};
    pub use bayou_core::{
        recover_paxos_replica, BayouCluster, BayouReplica, ClusterConfig, GroupedReplica,
        Invocation, NullTob, ProtocolMode, Response, RunTrace, SessionScript,
    };
    pub use bayou_data::{
        AddRemoveSet, AppendList, Bank, BankOp, Calendar, CalendarOp, Counter, CounterOp, DataType,
        DeltaState, InvertibleDataType, KvOp, KvStore, ListOp, RandomOp, RegisterOp, ReplayState,
        RwRegister, Script, ScriptOp, SetOp, StateObject,
    };
    pub use bayou_sim::{
        ClockConfig, CpuConfig, NetworkConfig, Partition, PartitionSchedule, Sim, SimConfig,
        Stability,
    };
    pub use bayou_spec::{
        build_witness, check_bec, check_fec, check_ncc, check_seq, solve_bec_weak_seq_strong,
        CheckOptions, History, SolveOutcome,
    };
    pub use bayou_storage::{
        FileStorage, MemDisk, NullStorage, Persistence, ReplicaStore, Storage, StoreConfig,
    };
    pub use bayou_types::{
        BayouError, Dot, GroupId, Level, ReplicaId, Req, ReqId, SharedReq, Timestamp, Value,
        VirtualTime,
    };
}
