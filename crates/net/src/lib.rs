//! A live, threaded runtime for the protocols of the Bayou Revisited
//! reproduction.
//!
//! Where `bayou-sim` executes protocols deterministically in virtual
//! time, this crate runs the *same* [`bayou_types::Process`]
//! implementations as a real in-process cluster: one bounded mailbox and
//! one lock per replica, and wall-clock timers. A replica runs on the
//! thread that brings it work: [`LiveCluster::invoke`] puts the input
//! into the mailbox and, unless another thread is running the replica
//! already, runs the replica's wakes right there, then those of every
//! peer their frames reached — so an idle cluster answers even a strong
//! op's broadcast round on the caller's thread, with no thread wake-up
//! per hop. Each replica keeps a thread of its own that sleeps until
//! the replica's earliest timer. Each wake handles what is queued, makes
//! its WAL appends durable with one barrier, hands its outputs to the
//! sink and only then puts the frames it produced straight into its
//! peers' mailboxes, dropping those that partitions or crash faults cut
//! off. It exists to demonstrate that the protocol code is
//! runtime-agnostic and to host the `examples/live_cluster.rs` demo,
//! the server and the wall-clock benches.
//!
//! The Ω failure detector is provided by [`PartitionControl`] (which
//! knows which replicas are crashed) — replicas read it through
//! [`bayou_types::Context::omega`] exactly as in the simulator.
//!
//! Fault injection goes through [`PartitionControl`], which mirrors the
//! simulator's partition constructors (`split_at`, `isolate`,
//! block-list `partition`) plus crash/uncrash — so a fault schedule
//! authored for (or shrunken by) the DST harness in `bayou-sim` can be
//! replayed against a live cluster without translation
//! (`tests/nemesis_replay.rs` walks a `bayou_sim::Nemesis` schedule in
//! wall-clock time).
//!
//! # Examples
//!
//! ```
//! use bayou_core::{BayouReplica, GroupedReplica, Invocation, ProtocolMode};
//! use bayou_broadcast::PaxosTob;
//! use bayou_data::{Counter, CounterOp};
//! use bayou_net::{LiveCluster, LiveConfig};
//! use bayou_types::{GroupId, ReplicaId};
//! use std::time::Duration;
//!
//! // the Bayou process: a host of one replication group
//! let cfg = LiveConfig::new(3);
//! let mut cluster = LiveCluster::new(cfg, |_, n| {
//!     let group =
//!         BayouReplica::<Counter, _>::new(n, ProtocolMode::Improved, PaxosTob::with_defaults(n));
//!     GroupedReplica::new(vec![group])
//! });
//! let g0 = GroupId::new(0);
//! cluster.invoke(ReplicaId::new(0), (g0, Invocation::weak(CounterOp::Add(5))));
//! let (_, (_, resp)) = cluster
//!     .recv_output(Duration::from_secs(5))
//!     .expect("weak op responds");
//! assert_eq!(resp.value, bayou_types::Value::Unit);
//! let hosts = cluster.shutdown();
//! assert_eq!(hosts.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod router;

pub use cluster::{LiveCluster, LiveConfig, WakeCounts};
pub use router::PartitionControl;
