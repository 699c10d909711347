//! The Bayou protocol of *On mixing eventual and strong consistency:
//! Bayou revisited* (Kokociński, Kobus & Wojciechowski, PODC 2019).
//!
//! A [`BayouReplica`] speculatively total-orders client requests by
//! `(timestamp, dot)` on a `tentative` list and converges on the final
//! order established by Total Order Broadcast on a `committed` list,
//! rolling back and re-executing operations as the two orders are
//! reconciled — Algorithm 1 of the paper, line by line. *Weak* operations
//! respond immediately (tentatively); *strong* operations respond only
//! once their final position is fixed.
//!
//! Two protocol modes are provided:
//!
//! * [`ProtocolMode::Original`] — Algorithm 1 as published (exhibits
//!   *circular causality*, Figure 2);
//! * [`ProtocolMode::Improved`] — Algorithm 2: strong operations are
//!   TOB-cast only, weak operations execute immediately on the current
//!   state (then roll back and re-enter speculative order), and weak
//!   read-only operations are purely local. This variant avoids circular
//!   causality and makes weak operations bounded wait-free (Appendix A.1).
//!
//! The replica is the protocol, not a process. [`GroupedReplica`] is the
//! one [`bayou_types::Process`] every runtime drives: it hosts one
//! `BayouReplica` per replication group (one, unless the keyspace is
//! sharded) and owns what is per process — the frame coalescer, whose
//! frames leave when the runtime ends a wake, the WAL sync barrier,
//! timer routing and the runtime hooks. [`recover_grouped_paxos`] builds a durable host from
//! one store, and [`recover_paxos_replica`] is its one-group case.
//!
//! The crate also ships:
//!
//! * [`BayouCluster`] — a simulation harness wiring `n` hosts over
//!   `bayou-sim` + `bayou-broadcast` (one group each by default), with
//!   open-loop and closed-loop (session) clients and full history
//!   recording for the checkers in `bayou-spec`;
//! * comparator protocols for the impossibility demonstration and the
//!   baseline benches: [`NullTob`] (turns Bayou into an eventual-only
//!   store) and [`NaiveMixed`] (a system that *tries* to provide
//!   `BEC(weak)` + `Seq(strong)` — Theorem 1 shows why it cannot).
//!
//! # Examples
//!
//! ```
//! use bayou_core::{BayouCluster, ClusterConfig, ProtocolMode};
//! use bayou_data::{AppendList, ListOp};
//! use bayou_types::{Level, ReplicaId, VirtualTime};
//!
//! let mut cluster: BayouCluster<AppendList> =
//!     BayouCluster::new(ClusterConfig::new(2, 42));
//! cluster.invoke_at(
//!     VirtualTime::from_millis(1),
//!     ReplicaId::new(0),
//!     ListOp::append("a"),
//!     Level::Weak,
//! );
//! cluster.invoke_at(
//!     VirtualTime::from_millis(40),
//!     ReplicaId::new(1),
//!     ListOp::Read,
//!     Level::Strong,
//! );
//! let trace = cluster.run();
//! assert_eq!(trace.events.len(), 2);
//! assert!(trace.events.iter().all(|e| e.value.is_some()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod api;
mod group;
mod harness;
mod naive;
mod nulltob;
mod persist;
mod replica;

pub use api::{EventRecord, ExecTrace, Invocation, Response, RunTrace, Served, SessionGuard};
pub use group::{GroupedMsg, GroupedReplica};
pub use harness::{BayouCluster, ClusterConfig, SessionScript};
pub use naive::{NaiveMixed, NaiveMsg};
pub use nulltob::NullTob;
pub use persist::{recover_grouped_paxos, recover_paxos_replica};
pub use replica::{BayouMsg, BayouReplica, ProtocolMode, ReplicaStats, Retained, WireReq};
