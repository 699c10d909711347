//! The broadcast substrate of the Bayou Revisited reproduction.
//!
//! The paper's Bayou (Algorithm 1) disseminates every client request with
//! both **Reliable Broadcast** (RB) and **Total Order Broadcast** (TOB).
//! This crate implements both abstractions — from scratch, bottom-up, in
//! the style of the textbook stack the paper cites (Guerraoui &
//! Rodrigues, *Introduction to Reliable Distributed Programming*):
//!
//! * [`PerfectLink`] — stubborn point-to-point links with
//!   acknowledgements and retransmission, turning the simulator's
//!   fair-lossy partitioned network into reliable channels between
//!   correct, eventually-connected replicas;
//! * [`ReliableBroadcast`] — eager (relay-on-first-delivery) reliable
//!   broadcast over perfect links: if any correct replica delivers a
//!   message, every correct replica eventually delivers it, even when the
//!   origin crashes mid-broadcast;
//! * [`FifoRelease`] — deterministic sender-FIFO release used by both
//!   TOB implementations, providing the paper's requirement that TOB
//!   respects the order in which each replica TOB-cast its messages;
//! * [`PaxosTob`] — the default TOB: Multi-Paxos with one instance per
//!   slot, ballots led by the replica trusted by the Ω failure detector,
//!   submit/decide retransmission pumps, and catch-up for replicas that
//!   missed decisions during a partition. Safety (a single total order)
//!   holds in *all* runs by quorum intersection; liveness requires a
//!   stable run — exactly the TOB contract the paper's analysis assumes;
//! * [`SequencerTob`] — an intentionally simple leader-assigns-sequence
//!   numbers TOB used as an ablation baseline (A2). It is live and safe
//!   with a fixed leader in stable runs, but unlike Paxos its safety
//!   *depends* on Ω never nominating two leaders, which is precisely the
//!   design mistake the ablation quantifies.
//!
//! Layers are *embedded* components rather than separate processes: a
//! protocol such as Bayou owns one instance of each and routes messages
//! and timers to them. The [`MapCtx`] adapter re-wraps a
//! [`bayou_types::Context`] so each layer can speak its own message type
//! while the composed process owns a single wire enum.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ctx;
mod fifo;
mod link;
mod paxos;
mod rb;
mod sequencer;
mod tob;
mod wire;

pub use ctx::{FrameMeter, MapCtx, StepBuffers, StepCoalescer};
pub use fifo::FifoRelease;
pub use link::{LinkMsg, PerfectLink};
pub use paxos::{Ballot, Entry, PaxosConfig, PaxosMsg, PaxosTob};
pub use rb::{RbId, RbMsg, ReliableBroadcast};
pub use sequencer::{SequencerMsg, SequencerTob};
pub use tob::{BaselineMark, Tob, TobDelivery, TobEvent};
