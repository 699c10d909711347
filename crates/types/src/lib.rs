//! Core identifiers, time, request and runtime abstractions shared by every
//! crate in the Bayou Revisited reproduction.
//!
//! This crate is deliberately dependency-light: it defines the *vocabulary*
//! of the system — replica identifiers, dots, timestamps, consistency
//! levels, dynamic values, errors — together with the runtime abstraction
//! ([`Process`]/[`Context`]) that lets the same protocol code run both on
//! the deterministic discrete-event simulator (`bayou-sim`) and on the live
//! threaded runtime (`bayou-net`).
//!
//! # Examples
//!
//! ```
//! use bayou_types::{Dot, ReplicaId, Timestamp};
//!
//! let r1 = ReplicaId::new(1);
//! let d = Dot::new(r1, 7);
//! assert_eq!(d.replica(), r1);
//! assert!(Timestamp::new(3) < Timestamp::new(4));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod ids;
mod lease;
mod level;
mod req;
mod runtime;
mod time;
mod value;
mod wire;

pub use error::BayouError;
pub use ids::{Dot, GroupId, ReplicaId, ReqId};
pub use lease::{LeaseConfig, ReadGuard};
pub use level::Level;
pub use req::{Req, ReqMeta, SharedReq};
pub use runtime::{Context, Process, TimerId, WAKE_DRAIN};
pub use time::{Timestamp, VirtualTime};
pub use value::Value;
pub use wire::{BufPool, Wire, WireError, WireReader, WireView};

/// Result alias used across the workspace.
pub type Result<T> = std::result::Result<T, BayouError>;
