//! The Bayou serving path: a real TCP server fronting a live replica
//! cluster, plus the client and load generator that drive it.
//!
//! This crate is where the simulator's abstractions meet actual sockets:
//!
//! * [`protocol`] — the length-prefixed client wire protocol, built on
//!   the same [`bayou_types::Wire`] codec as the WAL and snapshots, with
//!   borrow-decoding ([`protocol::RequestView`]) so the server's
//!   steady-state decode path allocates nothing per frame;
//! * [`server`] — a thread-per-connection `std::net` server fronting a
//!   [`bayou_net::LiveCluster`] of durable replicas, with request
//!   pipelining, per-connection windows, and typed load shedding
//!   ([`protocol::Reply::Busy`]);
//! * [`client`] — a pipelined client ([`client::Client`]) that keeps
//!   many requests in flight on one connection;
//! * [`hist`] — the fixed-bucket latency histogram the load generator
//!   aggregates into;
//! * [`load`] — closed- and open-loop workload generation reporting
//!   wall-clock throughput and p50/p99/p999 latency.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod hist;
pub mod load;
pub mod protocol;
pub mod server;

pub use client::{Client, Session};
pub use hist::Histogram;
pub use load::{run_load, LoadConfig, LoadReport};
pub use protocol::{Reply, Request, RequestView, ResponseMsg, MAX_FRAME};
pub use server::{HopCounts, KvHost, KvReplica, Server, ServerConfig, ShardRouter};
